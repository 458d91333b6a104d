"""Decision rules, evidence tables, and strategy JSON round-trips.

The rules are checked through the batched engine, on hand-made signal
trajectories whose actions follow from the rule definitions.
"""

import hashlib
import math
import pickle
import warnings

import numpy as np
import pytest

from ratebound.ldp_numerics import llr_table, pair_means
from ratebound.network import Network
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)
from ratebound.sim_engine import SimConfig, _Binding, _replay, mistake_curve
from ratebound.strategies import (
    AutarkyML,
    ConstantFirstPeriod,
    Coordination,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
    first_action,
    lowest_dominant,
    ml_choice,
    prior_log_matrix,
    state_pairs,
    strategy_from_json,
    strategy_to_json,
)
from lane_reference import reference_lane, reference_llr
from replay_reference import dominant_row, ml_action, most_popular

LOG3 = 1.0986122886681098


def binary_model(p=0.75, n_agents=1, prior=None):
    return SignalModel(StateSpace((0, 1), prior), BinarySymmetric(p), n_agents)


def play(strategy, model, signals, network=None):
    """The engine's actions (agents, periods) on one trajectory of signals."""
    signals = np.asarray(signals, dtype=np.int8)
    network = network or Network.complete(model.n_agents)
    config = SimConfig(model, network, strategy, signals.shape[1], 1, 0)
    return _replay(config, _Binding(config), signals[None])[0]


# -- pure decision helpers ------------------------------------------------------


def test_most_popular_breaks_ties_toward_the_lowest_state():
    # the scalar reference's plurality, which the engine must reproduce
    assert most_popular([1, 1, 0]) == 1
    assert most_popular([0, 1]) == 0
    assert most_popular([2, 1, 2, 1]) == 1
    assert most_popular([3]) == 3
    with pytest.raises(ValueError):
        most_popular([])


def test_first_action_is_the_prior_mode():
    assert first_action((0.5, 0.5)) == 0
    assert first_action((0.2, 0.5, 0.3)) == 1


def ml(pair_evidence, k):
    """ml_choice on one cell; pair_evidence lists L[f, g] for f < g."""
    out = np.empty(1, dtype=np.int8)
    ml_choice(np.asarray(pair_evidence, dtype=float)[:, None], k, out)
    return int(out[0])


def test_ml_action_picks_the_dominating_row():
    assert ml([-1.0], 2) == 1
    assert ml([0.0], 2) == 0
    assert ml([0.0, 0.0, 0.0], 3) == 0
    # L[0, 1] = 1, L[0, 2] = -1, L[1, 2] = 1: no row dominates; every row
    # sums to 0, and the row-sum fallback breaks the tie toward state 0.
    assert ml([1.0, -1.0, 1.0], 3) == 0
    # L[0, 1] = -1, L[0, 2] = 2, L[1, 2] = -3: no row dominates; row sums
    # are 1, -2 and 1, and the tie again goes to the lowest state.
    assert ml([-1.0, 2.0, -3.0], 3) == 0
    assert ml([-1.0, 2.0, 1.0], 3) == 1


def test_two_state_ml_is_one_compare_that_equals_the_reference():
    # ml_choice decides two states by the sign of L[0, 1]; every cell must
    # equal the scalar reference's dominance rule, signed zeros, the
    # smallest subnormals and ties included, for either action width.
    rng = np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf]
    pair = np.concatenate([rng.normal(scale=3.0, size=(4, 250)).ravel(),
                           np.repeat(special, 25)])
    L = pair.reshape(1, 50, -1)
    for dtype in (np.int8, np.int16):
        actions = np.full(L.shape[1:], 7, dtype=dtype)
        ml_choice(L, 2, actions)
        expected = [ml_action(np.array([[0.0, v], [-v, 0.0]])) for v in pair]
        assert actions.ravel().tolist() == expected


def test_decisive_state_thresholds():
    # Each cell starts at either state; a decisive cell takes its state from
    # both starts, every other cell keeps the one it had.
    thresholds = np.array([[0.0, 1.0], [1.0, 0.0]]) - 0.2
    for evidence, t, decisive in ((4.1, 5, 0), (4.1, 6, None), (-4.1, 5, 1),
                                  (0.0, 1, None)):
        for start in (0, 1):
            out = np.full(1, start, dtype=np.int8)
            lowest_dominant(np.array([[evidence]]), thresholds * t, out)
            assert out[0] == (start if decisive is None else decisive), (
                evidence, t, start,
            )


def _full_evidence(pair_values, k):
    """The k x k matrix that one cell's pair evidence stands for."""
    L = np.zeros((k, k))
    for p, (f, g) in enumerate(state_pairs(k)):
        L[f, g], L[g, f] = pair_values[p], -pair_values[p]
    return L


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decision_kernels_equal_the_scalar_reference(k):
    # Evidence and cuts come from a pool of signed zeros, infinities and
    # small integers, so tests tie with their cuts and row sums tie with
    # each other, with a quarter of the values normal floats. Every cell of
    # lowest_dominant and ml_choice must equal the scalar reference.
    rng = np.random.default_rng(2600 + k)
    pool = np.array([-math.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf])
    cells = 3000

    def draw(shape):
        values = rng.choice(pool, size=shape)
        noisy = rng.random(shape) < 0.25
        values[noisy] = rng.normal(scale=2.0, size=noisy.sum())
        return values

    L = draw((len(state_pairs(k)), cells))
    cut = draw((k, k, cells))
    start = rng.integers(0, k, size=cells).astype(np.int8)
    actions = start.copy()
    lowest_dominant(L, cut, actions)
    chosen = np.full(cells, 7, dtype=np.int8)
    dominant, ml, fallbacks = [], [], 0
    with np.errstate(invalid="ignore"):  # a row sum of inf and -inf is nan
        ml_choice(L, k, chosen)
        for c in range(cells):
            full = _full_evidence(L[:, c], k)
            dominant.append(dominant_row(full, cut[..., c]))
            ml.append(ml_action(full))
            fallbacks += dominant_row(full, np.zeros((k, k))) is None
    kept = [s if f is None else f for s, f in zip(start.tolist(), dominant)]
    assert actions.tolist() == kept
    assert chosen.tolist() == ml
    # no vacuous case: every state is somewhere dominant and some cell has
    # none; ml_choice picks every state, by its row-sum fallback too when
    # k > 2 (on two states some row always dominates)
    assert set(dominant) == set(range(k)) | {None}
    assert set(ml) == set(range(k))
    assert (fallbacks > 0) == (k > 2)


# -- evidence tables ---------------------------------------------------------------


def test_prior_log_matrix_vanishes_for_uniform_priors():
    assert np.array_equal(prior_log_matrix(binary_model()), np.zeros((2, 2)))
    skewed = SignalModel(
        StateSpace((0, 1), prior=(0.8, 0.2)), BinarySymmetric(0.75)
    )
    mat = prior_log_matrix(skewed)
    assert mat[0, 1] == pytest.approx(math.log(4.0), rel=1e-14)
    assert mat[1, 0] == -mat[0, 1]


def _pair_table_models():
    """Binary, heterogeneous finite, zero-mass-atom and Gaussian models; the
    zero-mass atoms differ between agents."""
    rng = np.random.default_rng(91)
    hetero = rng.dirichlet(np.ones(6), size=(3, 3))
    sparse = rng.dirichlet(np.ones(11), size=(2, 3))
    sparse[0, :, [3, 7]] = 0.0
    sparse[1, :, 5] = 0.0
    sparse /= sparse.sum(axis=-1, keepdims=True)
    return [
        binary_model(0.75, n_agents=2),
        SignalModel(StateSpace((0, 1, 2)), Finite(tuple(range(6)), hetero), 3),
        SignalModel(StateSpace((0, 1, 2)), Finite(tuple(range(11)), sparse), 2),
        SignalModel(
            StateSpace((0, 1, 2)),
            Gaussian(rng.normal(size=(3, 3)) * 3.0, 1.7),
            3,
        ),
    ]


def _agent_llr_table(model, agent):
    """Reference: one agent's table from that agent's pmf rows alone."""
    pmf = model.pmf[agent]
    with np.errstate(divide="ignore"):
        logs = np.log(pmf)
    logs[:, ~(pmf > 0.0).any(axis=0)] = 0.0
    return logs.T[:, :, None] - logs.T[:, None, :]


def test_pair_tables_equal_each_agents_kernels_and_table():
    means = pair_means(binary_model(0.75))
    assert means[0, 0, 0] == 0.0 and means[0, 1, 1] == 0.0
    assert means[0, 0, 1] == pytest.approx(0.5 * LOG3, rel=1e-14)
    assert means[0, 1, 0] == pytest.approx(0.5 * LOG3, rel=1e-14)
    for model in _pair_table_models():
        n, k = model.n_agents, model.states.n_states
        means = pair_means(model)
        assert means.shape == (n, k, k)
        for a in range(n):
            for f in range(k):
                for g in range(k):
                    want = 0.0 if f == g else reference_lane(model, a, f, g)[1]
                    assert means[a, f, g] == want, (model, a, f, g)
        if model.has_finite_support:
            table = llr_table(model)
            assert table.shape == (n, len(model.support), k, k)
            for a in range(n):
                assert np.array_equal(table[a], _agent_llr_table(model, a))
    disjoint = SignalModel(
        StateSpace((0, 1)), Finite((0, 1, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))
    )
    for tables in (pair_means, llr_table):
        with pytest.raises(ValueError, match="absolutely continuous"):
            tables(disjoint)


def test_llr_table_golden_and_exact_antisymmetry():
    table = llr_table(binary_model(0.75))[0]
    assert table.shape == (2, 2, 2)
    assert table[0, 0, 1] == pytest.approx(LOG3, rel=1e-15)
    assert table[1, 0, 1] == pytest.approx(-LOG3, rel=1e-15)
    assert np.array_equal(table, -np.swapaxes(table, 1, 2))


def test_llr_table_is_silent_on_atoms_no_state_draws():
    model = SignalModel(
        StateSpace((0, 1, 2)),
        Finite((0, 1, 2), ((0.6, 0.4, 0.0), (0.4, 0.6, 0.0), (0.5, 0.5, 0.0))),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = llr_table(model)[0]
    assert np.array_equal(table[2], np.zeros((3, 3)))
    assert np.isfinite(table).all()


def test_compiled_increments_match_llr_for_both_families():
    model = binary_model(0.75, n_agents=2)
    config = SimConfig(model, Network.complete(2), AutarkyML(), 1, 1, 0)
    table = _Binding(config).table
    assert table.shape == (1, 2)  # one pair, one shared row of two atoms
    for s in (0, 1):
        assert table[0, s] == reference_llr(model, 0, 0, 1, s)
    gaussian = SignalModel(
        StateSpace((0, 1, 2)), Gaussian(((1.0, 0.0, -0.5), (2.0, 0.0, 1.0)), 2.0), 2
    )
    config = SimConfig(gaussian, Network.complete(2), AutarkyML(), 1, 1, 0)
    xs = (-0.7, 0.3, 2.2)
    acc = np.zeros((3, 2, len(xs)))  # (pairs, agents, reps)
    _Binding(config).absorb(np.array([xs, xs]), acc, np.empty((2, len(xs))))
    for p, (f, g) in enumerate(((0, 1), (0, 2), (1, 2))):
        for agent in (0, 1):
            for r, x in enumerate(xs):
                assert acc[p, agent, r] == pytest.approx(
                    reference_llr(gaussian, agent, f, g, x), rel=1e-14
                )


# -- strategies, played by the engine ----------------------------------------------


def test_engine_accumulates_evidence_on_top_of_the_prior():
    # log prior ratio log 4 against one signal's log 3: the prior outweighs
    # one contrary signal but not two.
    skewed = binary_model(0.75, prior=(0.8, 0.2))
    assert play(AutarkyML(), skewed, [[1, 1, 0, 0]]).tolist() == [[0, 1, 0, 0]]
    assert play(AutarkyML(), binary_model(0.75), [[1, 1, 0, 0]]).tolist() == [
        [1, 1, 1, 0]
    ]


def test_autarky_follows_the_evidence():
    # L[0, 1] = -log 3, 0, log 3: state 1, a tie to state 0, state 0
    assert play(AutarkyML(), binary_model(0.75), [[1, 0, 0]]).tolist() == [[1, 0, 0]]


def test_coordination_starts_at_the_prior_mode_then_follows_the_crowd():
    strategy = CoordinationComplete(delta=0.05)
    # Agents 1 and 2 see two 1-signals by t = 2: -2 log 3 clears the
    # threshold -(m - delta) * 2, so they turn decisive. Agent 0's evidence
    # is never decisive; she copies the previous period's plurality.
    actions = play(
        strategy, binary_model(0.75, 3), [[1, 0, 1], [1, 1, 1], [1, 1, 1]]
    )
    assert actions[:, 0].tolist() == [0, 0, 0]  # prior mode despite the signals
    assert actions[:, 1].tolist() == [0, 1, 1]
    assert actions[0, 2] == 1  # the crowd at t = 2 played 1


def test_coordination_overrides_the_crowd_on_decisive_evidence():
    strategy = CoordinationComplete(delta=0.05)
    actions = play(
        strategy, binary_model(0.75, 3), [[0, 0, 0], [1, 1, 1], [1, 1, 1]]
    )
    # t = 3: the plurality of t = 2 is 1, but 3 log 3 >= (m - delta) * 3
    assert actions[:, 1].tolist() == [0, 1, 1]
    assert actions[:, 2].tolist() == [0, 1, 1]


def test_coordination_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        CoordinationComplete(delta=0.0)
    with pytest.raises(ValueError):
        CoordinationConnected(delta=-1.0)


def test_connected_coordination_displays_what_the_schedule_directs():
    # Directed 3-cycle, agent i observes i-1: blocks of M = 4 periods. At
    # offset 1, agent 1 imitates agent 0's vote; agents 0 and 2 repeat their
    # own votes.
    strategy = CoordinationConnected(delta=0.05)
    actions = play(
        strategy,
        binary_model(0.75, 3),
        [[1, 1, 1, 1, 1, 1], [0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1]],
        network=Network.directed_cycle(3),
    )
    assert actions[:, 0].tolist() == [0, 0, 0]  # voting period: prior mode
    # t = 5 votes: agent 0 is decisive for 1, the others follow the t = 1 tally
    assert actions[:, 4].tolist() == [1, 0, 0]
    assert actions[:, 5].tolist() == [1, 1, 0]


def test_odd_even_split_roles():
    actions = play(
        OddEven(), binary_model(0.75, 4), [[0, 1], [1, 0], [0, 0], [1, 1]]
    )
    assert actions[1].tolist() == [1, 0]  # odd agents echo their signals
    assert actions[3].tolist() == [1, 1]
    # even agents: nothing revealed at t = 1 (a tie, state 0); at t = 2 both
    # revealed signals said 1
    assert actions[0].tolist() == [0, 1]
    assert actions[2].tolist() == [0, 1]


def test_constant_strategy_never_moves():
    model = binary_model(0.75)
    assert play(ConstantFirstPeriod(0), model, [[1, 1]]).tolist() == [[0, 0]]
    assert play(ConstantFirstPeriod(1), model, [[0, 0]]).tolist() == [[1, 1]]
    with pytest.raises(ValueError):
        ConstantFirstPeriod(-1)


# -- every compiled rule, pinned ---------------------------------------------------------


_THREE_STATES = SignalModel(
    StateSpace((0, 1, 2), (0.5, 0.3, 0.2)),
    Finite((0, 1, 2), ((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.1, 0.3, 0.6))),
    3,
)
_PINNED_RULES = {
    # name: (config, the binding's compiled form, sha256 of shape and counts)
    "autarky-binary": (
        SimConfig(binary_model(0.7, 3, (0.4, 0.6)), Network.complete(3),
                  AutarkyML(), 12, 3000, 1),
        "fill", "0a414e7ed803a05ca29e67e1818aa4a6e88f6ee111cb3c3d6fa6e8c51d1d6455",
    ),
    # p = 0.6 on a uniform prior: at t = 6 the float sums of count 3 fall on
    # either side of 0, so autarky stays on floats
    "autarky-binary-float": (
        SimConfig(binary_model(0.6, 3), Network.complete(3), AutarkyML(), 10, 2000, 10),
        "decide", "e56795b5ef5ac78237240f0505f6bfba02cfe5e4736aec4fae203dd420589cca",
    ),
    "autarky-finite": (
        SimConfig(_THREE_STATES, Network.complete(3), AutarkyML(), 10, 2000, 2),
        "decide", "bd0b3be63e32d7fecef8e483876a1070a7018d9b2f463d52d56b5f5c921d2cdd",
    ),
    "autarky-gaussian": (
        SimConfig(SignalModel(StateSpace((0, 1, 2)), Gaussian((0.0, 0.4, 1.0), 1.0), 2),
                  Network.complete(2), AutarkyML(), 10, 2000, 3),
        "decide", "f4dac7b17f05917a22993967e1165351c6cdd5d45a45a8faccb957706fc0d701",
    ),
    "complete-count": (
        SimConfig(binary_model(0.75, 5), Network.complete(5),
                  CoordinationComplete(0.05), 12, 3000, 4),
        "fill", "e52081f16d126da40444c42e500760589a36f6047771f3da61dfd2d39c13c7ba",
    ),
    "complete-float-finite": (
        SimConfig(_THREE_STATES, Network.complete(3), CoordinationComplete(0.02),
                  10, 2000, 5),
        "decide", "5207d2c6c15f0cf383070c3f19055b8523da786722068baa614d236ec4c174e4",
    ),
    # the README's straddling case: at t = 25 the float sums of one count
    # fall on either side of the cut, so the rule stays on floats
    "complete-float-straddle": (
        SimConfig(binary_model(0.7, 3), Network.complete(3), CoordinationComplete(),
                  25, 2000, 6),
        "decide", "4e06c2d9d11db10439612d752df2302703e7fa5e8e6e034e84e9fd3ffdf71e9e",
    ),
    "connected-relay": (
        SimConfig(binary_model(0.8, 4), Network.directed_cycle(4),
                  CoordinationConnected(0.05), 20, 2000, 7),
        "decide", "4274dba374a0c452df11ef4b027138a725525c2cb6836070504861ed49ac5f84",
    ),
    "odd-even": (
        SimConfig(binary_model(0.75, 4), Network.complete(4), OddEven(), 10, 3000, 8),
        "fill", "caa370602474faab8b012b4700bbaedde2422d3de155dec733e933d14ee61686",
    ),
    "constant": (
        SimConfig(binary_model(0.75, 2), Network.complete(2), ConstantFirstPeriod(1),
                  5, 1000, 9),
        "fill", "85828e496965eb2a1ac0273dc94e44d890cfe36cbfa1b6b7f78cd781334a60cb",
    ),
}


@pytest.mark.parametrize("name", _PINNED_RULES)
def test_every_compiled_rule_keeps_its_seeded_counts(name):
    # digests recorded before the rules moved out of the engine; each config
    # is small and seeded, and binds the named form
    config, form, digest = _PINNED_RULES[name]
    binding = _Binding(config)
    assert (binding.decide is None, binding.fill is None) == (
        form != "decide", form != "fill")
    counts = mistake_curve(config).counts
    raw = np.ascontiguousarray(counts, dtype="<i8").tobytes()
    assert hashlib.sha256(repr(counts.shape).encode() + raw).hexdigest() == digest


# -- JSON ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "strategy",
    [
        AutarkyML(),
        CoordinationComplete(),
        CoordinationComplete(delta=0.07),
        CoordinationConnected(delta=0.05),
        OddEven(),
        ConstantFirstPeriod(1),
    ],
)
def test_strategy_json_round_trip(strategy):
    assert strategy_from_json(strategy_to_json(strategy)) == strategy


def test_strategy_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        strategy_from_json({})
    with pytest.raises(ValueError):
        strategy_from_json({"strategy": "telepathy"})
    with pytest.raises(ValueError):
        strategy_from_json({"strategy": "constant"})
    for doc in (
        {"strategy": "constant", "state": 1.5},
        {"strategy": "constant", "state": True},
        {"strategy": "constant", "state": -1},
        {"strategy": "coordination", "delta": "0.05"},
        {"strategy": "coordination-connected", "delta": True},
        {"strategy": "coordination", "delta": math.inf},
        {"strategy": ["coordination"]},
    ):
        with pytest.raises(ValueError):
            strategy_from_json(doc)


def test_coordination_classes_share_one_base_and_stay_distinct():
    complete, connected = CoordinationComplete(0.05), CoordinationConnected(0.05)
    assert isinstance(complete, Coordination) and isinstance(connected, Coordination)
    assert complete != connected
    with pytest.raises(TypeError):
        Coordination(0.05)
    assert pickle.loads(pickle.dumps(connected)) == connected
    assert strategy_to_json(complete) == {"strategy": "coordination", "delta": 0.05}
    assert strategy_to_json(CoordinationConnected()) == {
        "strategy": "coordination-connected"
    }
