"""Simulation engine: exactness oracles, visibility, determinism, rate fits."""

import dataclasses
import hashlib
import itertools
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import replay_reference
from ratebound import sim_engine, strategies
from ratebound.ldp_numerics import checked_delta, pair_table
from ratebound.network import Network
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)
from ratebound.sim_engine import (
    CHUNK,
    InadmissibleConfig,
    MistakeCurve,
    SimConfig,
    config_violations,
    enumerate_exact,
    exact_autarky_curve,
    fit_rate,
    mistake_curve,
    read_curve_csv,
    run_trajectory,
    worker_count,
    write_curve_csv,
)
from ratebound.sim_engine import _Binding, _chunk_generator, _draw_chunk, _replay
from ratebound.strategies import (
    AutarkyML,
    ConstantFirstPeriod,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
)

MEAN_THREEQ = 0.5493061443340549


def binary_model(p=0.75, n_agents=1, prior=None):
    return SignalModel(StateSpace((0, 1), prior), BinarySymmetric(p), n_agents)


def autarky_config(horizon=3, replications=100, seed=0, p=0.75):
    return SimConfig(
        binary_model(p), Network.complete(1), AutarkyML(), horizon,
        replications, seed,
    )


# -- configuration validation ----------------------------------------------------


def test_delta_defaults_to_a_tenth_of_the_smallest_pair_mean():
    table = pair_table(binary_model(0.75))
    assert checked_delta(table, None) == pytest.approx(
        0.1 * MEAN_THREEQ, rel=1e-12
    )
    assert checked_delta(table, 0.3) == 0.3
    with pytest.raises(ValueError):
        checked_delta(table, 0.0)
    with pytest.raises(ValueError):
        checked_delta(table, MEAN_THREEQ + 0.01)


def test_config_rejects_inconsistent_workloads():
    model = binary_model(0.75, n_agents=3)
    net = Network.complete(3)
    with pytest.raises(ValueError):
        SimConfig(model, net, AutarkyML(), 0, 10, 0)
    with pytest.raises(ValueError):
        SimConfig(model, net, AutarkyML(), 5, 0, 0)
    with pytest.raises(ValueError):
        SimConfig(model, Network.complete(2), AutarkyML(), 5, 10, 0)
    with pytest.raises(ValueError, match="inadmissible"):
        SimConfig(binary_model(0.4, 3), net, AutarkyML(), 5, 10, 0)
    with pytest.raises(ValueError, match="complete"):
        SimConfig(
            model, Network.directed_cycle(3), CoordinationComplete(0.05), 5, 10, 0
        )
    disconnected = Network.from_neighborhoods(3, ((0,), (0, 1), (1, 2)))
    with pytest.raises(ValueError, match="strongly connected"):
        SimConfig(model, disconnected, CoordinationConnected(0.05), 5, 10, 0)
    with pytest.raises(ValueError, match="complete"):
        SimConfig(model, Network.directed_cycle(3), OddEven(), 5, 10, 0)
    finite = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((0.7, 0.3), (0.3, 0.7))), 2
    )
    with pytest.raises(ValueError, match="symmetric binary"):
        SimConfig(finite, Network.complete(2), OddEven(), 5, 10, 0)
    with pytest.raises(ValueError, match="out of range"):
        SimConfig(model, net, ConstantFirstPeriod(5), 5, 10, 0)
    with pytest.raises(ValueError, match="delta"):
        SimConfig(model, net, CoordinationComplete(delta=3.0), 5, 10, 0)
    for unknown in ("telepathy", object()):
        with pytest.raises(ValueError, match="strategy: unknown strategy object"):
            SimConfig(model, net, unknown, 3, 10, 0)


_DELTA = "strategy.delta: delta must lie in (0, 0.549306), the smallest pair mean"
_COMPLETE = "strategy/network: this strategy requires a complete network"
_CONNECTED = ("strategy/network: the connected coordination strategy requires "
              "a strongly connected network")
_SIZES = "model/network: model has 4 agents but the network has 3"


def test_config_violations_lists_every_strategy_check_in_order():
    # the whole list, recorded before the strategy checks moved out of the
    # engine: every message, its text and its place
    model = binary_model(0.75, n_agents=3)
    cycle, complete = Network.directed_cycle(3), Network.complete(3)
    disconnected = Network.from_neighborhoods(3, ((0,), (0, 1), (1, 2)))
    finite = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((0.7, 0.3), (0.3, 0.7))), 3
    )
    cases = [
        (model, cycle, AutarkyML(), []),
        (model, cycle, "telepathy",
         ["strategy: unknown strategy object 'telepathy'"]),
        (model, complete, CoordinationComplete(3.0), [_DELTA]),
        (model, cycle, CoordinationComplete(0.05), [_COMPLETE]),
        (model, disconnected, CoordinationConnected(0.05), [_CONNECTED]),
        (model, disconnected, CoordinationConnected(3.0), [_DELTA, _CONNECTED]),
        (finite, cycle, OddEven(),
         ["strategy/model: the odd/even strategy requires symmetric binary "
          "signals", _COMPLETE]),
        (model, complete, ConstantFirstPeriod(2),
         ["strategy.state: state index out of range"]),
        # delta is checked only against an admissible model
        (binary_model(0.4, 3), cycle, CoordinationComplete(3.0),
         ["model: p must lie in (1/2,1)", _COMPLETE]),
        (None, cycle, OddEven(), [_COMPLETE]),
        (model, None, CoordinationConnected(3.0), [_DELTA]),
        (binary_model(0.75, 4), cycle, "telepathy",
         ["strategy: unknown strategy object 'telepathy'", _SIZES]),
        (binary_model(0.75, 4), cycle, CoordinationComplete(3.0),
         [_SIZES, _DELTA, _COMPLETE]),
    ]
    for model_, network, strategy, expected in cases:
        assert config_violations(model_, network, strategy, 5, 10, 0) == expected, (
            model_, network, strategy)
    assert config_violations(binary_model(0.75, 4), cycle, ConstantFirstPeriod(2),
                             0, True, -1) == [
        "horizon: must be a positive integer",
        "replications: must be a positive integer",
        "seed: must be a nonnegative integer",
        _SIZES,
        "strategy.state: state index out of range",
    ]


def test_a_relay_schedule_too_large_to_hold_is_refused_before_it_is_built(
    monkeypatch
):
    def fail(*args):
        raise AssertionError("a refused config reached the graph routines")
    monkeypatch.setattr("ratebound.network.distances", fail)
    monkeypatch.setattr("ratebound.network._reaches_everyone", fail)
    model = binary_model(0.75, 2048)
    with pytest.raises(InadmissibleConfig) as excinfo:
        SimConfig(model, Network.complete(2048), CoordinationConnected(), 5, 10, 0)
    assert excinfo.value.violations == [
        "strategy/network: a propagation schedule on 2048 agents needs relay "
        "tables of 8581545984 entries; at most 2^24 (256 agents) are supported"
    ]


# -- exact oracles -----------------------------------------------------------------


def test_closed_form_autarky_curve_goldens():
    curve = exact_autarky_curve(binary_model(0.75), 3)
    assert curve.provenance == "exact-binomial"
    assert curve.mixed()[0].tolist() == pytest.approx(
        [0.25, 0.25, 0.15625], abs=1e-15
    )
    # state 1 loses ties to the tie-break, so it is the harder state
    assert curve.probs[1, 0, 1] == pytest.approx(0.4375, abs=1e-14)
    assert curve.probs[0, 0, 1] == pytest.approx(0.0625, abs=1e-14)


def test_closed_form_autarky_curve_rejects_unsupported_models():
    with pytest.raises(ValueError):
        exact_autarky_curve(
            SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0)), 3
        )
    with pytest.raises(ValueError, match="inadmissible"):
        exact_autarky_curve(binary_model(0.4), 3)
    skewed = SignalModel(
        StateSpace((0, 1), prior=(0.7, 0.3)), BinarySymmetric(0.75)
    )
    with pytest.raises(ValueError, match="uniform"):
        exact_autarky_curve(skewed, 3)


def test_closed_form_autarky_curve_refuses_a_horizon_that_is_no_count():
    # 0 gave an empty curve, -3 a numpy broadcast error, 2.5 a TypeError
    for horizon in (0, -3, 2.5, True, None):
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            exact_autarky_curve(binary_model(0.75), horizon)
    assert exact_autarky_curve(binary_model(0.75), np.int64(2)).horizon == 2


def test_enumeration_agrees_with_the_closed_form():
    config = autarky_config(horizon=6, replications=1)
    enum = enumerate_exact(config)
    closed = exact_autarky_curve(config.model, 6)
    assert np.max(np.abs(enum.probs - closed.probs)) <= 1e-14
    assert enum.provenance == "exact-enumeration"
    assert enum.trials == 0 and enum.counts is None


def test_enumeration_sums_profiles_in_order():
    # One block of 2^12 profiles: each cell's weighted mistakes must add up
    # profile by profile in lexicographic order, which pins enumerate_exact's
    # bytes to the engine's decisions whatever layout the engine keeps.
    n, horizon = 3, 4
    config = SimConfig(
        binary_model(0.7, n, (0.3, 0.7)), Network.complete(n),
        CoordinationComplete(0.05), horizon, 1, 0,
    )
    cells = n * horizon
    digits = (np.arange(2**cells)[:, None] >> np.arange(cells - 1, -1, -1)) & 1
    binding = _Binding(config)
    actions = _replay(config, binding, digits.reshape(-1, n, horizon))
    expected = np.zeros((2, n, horizon))
    for w in (0, 1):
        pmf = config.model.pmf[0, w]
        for profile, signal in zip(actions, digits):
            weight = pmf[signal[0]]
            for c in range(1, cells):
                weight = weight * pmf[signal[c]]
            expected[w] = expected[w] + weight * (profile != w)
    assert enumerate_exact(config).probs.tobytes() == expected.tobytes()


def test_enumeration_requires_finite_and_small_profiles():
    gaussian = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0))
    with pytest.raises(ValueError, match="finite"):
        enumerate_exact(
            SimConfig(gaussian, Network.complete(1), AutarkyML(), 2, 1, 0)
        )
    big = SimConfig(
        binary_model(0.75, 3), Network.complete(3), AutarkyML(), 7, 1, 0
    )
    with pytest.raises(ValueError, match="exceed"):
        enumerate_exact(big)


# -- Monte Carlo consistency ---------------------------------------------------------


def _reference_counts(config, state):
    """Mistake counts of the first chunk, one scalar replay per trajectory."""
    gen = _chunk_generator(config.seed, state, 0)
    signals = _draw_chunk(
        _Binding(config), state, gen, config.replications, config.horizon
    )
    total = np.zeros((config.network.n, config.horizon), dtype=np.int64)
    for trajectory in signals:
        total += replay_reference.replay(config, trajectory) != state
    return total


def test_trajectory_sums_reproduce_vectorized_counts():
    # Every complete-network strategy, under a uniform prior and under one
    # whose first action is state 1; the even group makes plurality ties
    # possible.
    strategies = [
        AutarkyML(), CoordinationComplete(0.05), OddEven(), ConstantFirstPeriod(1),
    ]
    for n, prior, strategy in itertools.product(
        (3, 4), (None, (0.3, 0.7)), strategies
    ):
        config = SimConfig(
            binary_model(0.75, n, prior), Network.complete(n), strategy,
            5, 600, 13,
        )
        curve = mistake_curve(config)
        for state in (0, 1):
            assert np.array_equal(
                _reference_counts(config, state), curve.counts[state]
            ), (n, prior, strategy, state)


def test_engine_reads_the_last_atom_of_a_129_atom_support():
    # Under state 0 nearly every signal is atom 128, the first index past
    # int8, whose llr strongly favors state 0; every other atom favors
    # state 1. A wrapped or clipped index would read one of those and make
    # almost every agent err.
    atoms = 129
    state0 = [1e-4] * (atoms - 1) + [1.0 - 1e-4 * (atoms - 1)]
    state1 = [0.999 / (atoms - 1)] * (atoms - 1) + [0.001]
    model = SignalModel(
        StateSpace((0, 1)), Finite(tuple(range(atoms)), (state0, state1)), 2
    )
    config = SimConfig(model, Network.complete(2), AutarkyML(), 3, 200, 5)
    curve = mistake_curve(config)
    assert curve.probs[0].max() < 0.1
    assert np.array_equal(_reference_counts(config, 1), curve.counts[1])


def test_gaussian_relay_matches_the_scalar_reference():
    model = SignalModel(
        StateSpace((0, 1, 2), (0.2, 0.3, 0.5)), Gaussian((0.0, 0.6, 1.2), 1.0), 4
    )
    config = SimConfig(
        model, Network.directed_cycle(4), CoordinationConnected(), 22, 40, 3
    )
    curve = mistake_curve(config)
    for state in range(3):
        assert np.array_equal(_reference_counts(config, state), curve.counts[state])


def test_engine_keeps_agents_and_replications_apart():
    # A tile of as many replications as agents: per-agent arrays (atom
    # offsets, Gaussian pair terms, coordination thresholds) that broadcast
    # along the wrong axis still have the right shape. Both models give each
    # agent its own law, the prior is not uniform, so the prior term is
    # added, and there are three states.
    n = 4
    pmf = np.array([
        [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]],
        [[0.4, 0.35, 0.25], [0.25, 0.4, 0.35], [0.35, 0.25, 0.4]],
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    ])
    states = StateSpace((0, 1, 2), (0.25, 0.45, 0.3))
    models = [
        SignalModel(states, Finite((0, 1, 2), pmf), n),
        SignalModel(states, Gaussian(
            ((0.0, 0.5, 1.0), (0.0, 1.5, 3.0), (1.0, 0.2, 0.6), (0.9, 0.0, 1.8)),
            1.0,
        ), n),
    ]
    strategies = [
        AutarkyML(), CoordinationComplete(0.05), CoordinationConnected(0.05),
        ConstantFirstPeriod(2),
    ]
    for model, strategy in itertools.product(models, strategies):
        config = SimConfig(model, Network.complete(n), strategy, 20, n, 31)
        binding = _Binding(config)
        # the compiled absorb carries per-agent atom offsets (finite) or a
        # per-agent diff (Gaussian)
        if model.has_finite_support:
            assert binding.absorb.args[1] is not None
        else:
            assert binding.absorb.args[0].shape == (3, n, 1)
        for state in range(3):
            gen = _chunk_generator(config.seed, state, 0)
            signals = _draw_chunk(binding, state, gen, n, config.horizon)
            actions = _replay(config, binding, signals)
            assert actions.shape == (n, n, config.horizon)
            for r in range(n):
                assert np.array_equal(
                    actions[r], replay_reference.replay(config, signals[r])
                ), (model.family, strategy, state, r)


@st.composite
def _random_workloads(draw):
    """A random finite model (k = 2-4 states, per-agent pmfs, a random prior)
    on a random strongly connected network, with every strategy the config
    admits."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    atoms = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = rng.dirichlet(np.ones(atoms), size=(n, k)) * 0.9 + 0.1 / atoms
    if draw(st.booleans()):  # an atom no state ever draws
        pmf = np.concatenate([pmf, np.zeros((n, k, 1))], axis=2)
    prior = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
    model = SignalModel(
        StateSpace(tuple(range(k)), tuple(prior)),
        Finite(tuple(range(pmf.shape[2])), pmf),
        n,
    )
    network = Network.random_strongly_connected(
        n, draw(st.floats(0.2, 1.0)), seed=draw(st.integers(0, 1000))
    )
    delta = draw(st.sampled_from([None, 0.01, 0.05]))
    candidates = [
        AutarkyML(), CoordinationComplete(delta), CoordinationConnected(delta),
        OddEven(), ConstantFirstPeriod(k - 1),
    ]
    horizon = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 1000))
    return [
        SimConfig(model, network, strategy, horizon, 5, seed)
        for strategy in candidates
        if not config_violations(model, network, strategy, horizon, 5, seed)
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_random_workloads(), st.data())
def test_engine_matches_the_scalar_reference_on_random_models(configs, data):
    for config in configs:
        state = data.draw(st.integers(0, config.model.states.n_states - 1))
        gen = _chunk_generator(config.seed, state, 0)
        binding = _Binding(config)
        signals = _draw_chunk(
            binding, state, gen, config.replications, config.horizon
        )
        actions = _replay(config, binding, signals)
        assert actions.shape == signals.shape
        for r in range(config.replications):
            assert np.array_equal(
                actions[r], replay_reference.replay(config, signals[r])
            ), (config.strategy, r)


# -- complete coordination on integer counts ------------------------------------------


def test_reachable_sums_bound_every_order_of_increments():
    # every order of t <= 12 increments, summed left to right from 0.0 as the
    # engine sums them: the bounds are the least and greatest sum of each
    # (t, count) cell, and p = 0.6 makes cells hold several sums
    keep = np.array([0.4054651081081644, 0.3, -0.1])
    bump = np.array([-0.4054651081081644, -0.7, 0.1])
    horizon = 12
    bounds = list(strategies.reachable_sums(keep, bump, horizon))
    assert len(bounds) == horizon
    several = 0
    for t, (lo, hi) in enumerate(bounds, start=1):
        assert lo.shape == hi.shape == (t + 1, 3)
        for lane in range(3):
            sums = {}
            for order in itertools.product((False, True), repeat=t):
                x = 0.0
                for counted in order:
                    x = x + float(bump[lane] if counted else keep[lane])
                sums.setdefault(sum(order), set()).add(x)
            assert sorted(sums) == list(range(t + 1))
            for c, reached in sums.items():
                assert (lo[c, lane], hi[c, lane]) == (min(reached), max(reached))
                several += len(reached) > 1
    assert several > 0
    # where bump <= keep, as _count_rule passes them, neither bound rises
    # with the count, also once a prior term is added as the engine adds it:
    # exact +-llr binary lanes, the two lanes above and two-atom pmfs' lanes
    binary = [_Binding(autarky_config(p=p)).table[0] for p in (0.6, 0.7, 0.75, 0.99)]
    pmf = np.random.default_rng(5).dirichlet((2.0, 2.0), size=(6, 2))
    llr = np.sort(np.log(pmf[:, 0]) - np.log(pmf[:, 1]), axis=1)
    keep = np.concatenate([[lane[0] for lane in binary], keep[:2], llr[:, 1]])
    bump = np.concatenate([[lane[1] for lane in binary], bump[:2], llr[:, 0]])
    assert (bump <= keep).all() and (bump[:4] == -keep[:4]).all()
    for prior in (0.0, math.log(0.4 / 0.6), math.log(0.7 / 0.3)):
        for lo, hi in strategies.reachable_sums(keep, bump, 90):
            assert (np.diff(prior + lo, axis=0) <= 0.0).all()
            assert (np.diff(prior + hi, axis=0) <= 0.0).all()
    assert lo.shape == (91, keep.size)


def test_count_rule_meets_its_specification_on_every_order(monkeypatch):
    # both callers' cuts on random two-atom lanes and priors, t <= 12: every
    # order of the increments, summed left to right from 0.0 as the engine
    # sums them, with the prior term added unless it is 0. _count_rule
    # refuses exactly when some (t, count) cell reaches both sides of a cut,
    # and otherwise its limits give every order's decisions.
    calls = []
    count_rule = strategies._count_rule

    def recorded(*args):
        calls.append((args, count_rule(*args)))
        return calls[-1][1]

    monkeypatch.setattr(strategies, "_count_rule", recorded)
    rng = np.random.default_rng(29)
    # p = 0.6 with this delta puts state 0's cut of t = 9 alone inside the
    # sums of count 5 under a prior of (0.7, 0.3), and state 1's alone inside
    # those of count 4 under (0.3, 0.7); on a uniform prior autarky's sums of
    # count 3 straddle 0 at t = 6
    configs = [
        SimConfig(binary_model(0.6, 2, prior), Network.complete(2),
                  CoordinationComplete(0.032000493590628454), 10, 1, 0)
        for prior in ((0.7, 0.3), (0.3, 0.7))
    ] + [autarky_config(8, p=0.6)]
    for case in range(80):
        n, horizon = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        prior = None if case % 2 else (q := float(rng.uniform(0.1, 0.9)), 1.0 - q)
        if case % 4 < 2:
            model = binary_model(float(rng.choice([0.6, 0.7, 0.75])), n, prior)
        else:
            pmf = rng.uniform(0.05, 0.95, size=(n, 2, 1))
            model = SignalModel(StateSpace((0, 1), prior),
                                Finite((0, 1), np.concatenate([pmf, 1.0 - pmf], 2)), n)
        strategy = AutarkyML() if case % 8 < 4 else CoordinationComplete()
        configs.append(SimConfig(model, Network.complete(n), strategy, horizon, 1, 0))
    orders = np.array(list(itertools.product((False, True), repeat=12)))
    counts = orders.cumsum(axis=1)
    outcomes = set()
    for config in configs:
        _Binding(config)
        (prior_term, table, zero_cut, one_cut), counted = calls.pop()
        straddles = False
        for agent, (keep, bump) in enumerate(np.sort(table, axis=1)[:, ::-1]):
            acc = np.zeros(len(orders))
            for t in range(1, config.horizon + 1):
                acc = acc + np.where(orders[:, t - 1], bump, keep)
                L = prior_term + acc if prior_term else acc
                zero = L >= zero_cut[t - 1, agent % zero_cut.shape[1]]
                one = L <= one_cut[t - 1, agent % one_cut.shape[1]]
                c = counts[:, t - 1]
                for decided in (zero, one):
                    for count in range(t + 1):
                        straddles |= np.unique(decided[c == count]).size > 1
                if counted is not None:
                    limits = counted[1][t - 1, :, agent % counted[1].shape[2], 0]
                    assert np.array_equal(c <= limits[1], zero)
                    assert np.array_equal(c > limits[0], one)
        assert straddles == (counted is None), config
        outcomes.add((type(config.strategy), counted is None))
    assert len(outcomes) == 4


def _bound_path(config):
    binding = _Binding(config)
    assert (binding.fill is None) != (binding.decide is None)
    return "count" if binding.fill is not None else "float"


def test_complete_coordination_binds_the_count_fill_only_when_it_is_exact():
    # criterion 5's config, which is also the benchmark's herd
    herd = SimConfig(
        binary_model(0.75, 50), Network.complete(50), CoordinationComplete(0.05),
        30, 1_000_000, 0,
    )
    assert _bound_path(herd) == "count"
    small = SimConfig(
        binary_model(0.75, 2), Network.complete(2), CoordinationComplete(0.05),
        3, 100_000, 0,
    )
    assert _bound_path(small) == "count"
    # p = 0.7, default delta: at t = 25 and count 8 the engine can reach
    # 7.625680743484829 and 7.625680743484831, on either side of the cut
    straddles = SimConfig(
        binary_model(0.7, 3), Network.complete(3), CoordinationComplete(), 30, 40, 9
    )
    assert _bound_path(straddles) == "float"
    binding = _Binding(straddles)
    *_, (lo, hi) = strategies.reachable_sums(*binding.table[0], 25)
    slack = pair_table(straddles.model).mean[0, 0, 1] - checked_delta(
        pair_table(straddles.model), None)
    cut = slack * 25
    assert lo[8] == 7.625680743484829 and hi[8] == 7.625680743484831
    assert lo[8] < cut <= hi[8]
    assert _bound_path(dataclasses.replace(straddles, horizon=24)) == "count"
    # counts past int8 take a wider integer; more than two states or atoms,
    # and other strategies, stay on floats
    for horizon in (128, 300, 600):
        assert _bound_path(dataclasses.replace(herd, horizon=horizon)) == "count"
    three_atoms = SignalModel(
        StateSpace((0, 1)), Finite((0, 1, 2), ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))), 2
    )
    three_states = SignalModel(
        StateSpace((0, 1, 2)), Finite((0, 1), ((0.8, 0.2), (0.5, 0.5), (0.2, 0.8))), 2
    )
    for model in (three_atoms, three_states):
        config = SimConfig(
            model, Network.complete(2), CoordinationComplete(0.01), 5, 10, 0
        )
        assert _bound_path(config) == "float"
    connected = SimConfig(
        binary_model(0.75, 3), Network.complete(3), CoordinationConnected(0.05),
        5, 10, 0,
    )
    assert _bound_path(connected) == "float"
    # the float path still matches the scalar reference where cells straddle
    for state in (0, 1):
        signals = _draw_chunk(binding, state, _chunk_generator(9, state, 0), 40, 30)
        actions = _replay(straddles, binding, signals)
        for r in range(40):
            assert np.array_equal(
                actions[r], replay_reference.replay(straddles, signals[r])
            ), (state, r)


# a two-atom family whose atom 0 favors state 1 (the count fill flips it)
# under a prior whose mode is state 1
_FLIPPED_FINITE = SignalModel(
    StateSpace((0, 1), (0.4, 0.6)), Finite((0, 1), ((0.35, 0.65), (0.8, 0.2))), 3
)
_LONG_HORIZON_MODELS = {
    "binary": binary_model(0.75, 3),
    "flipped-finite": _FLIPPED_FINITE,
}


def _plays_as_the_float_rule(config, monkeypatch):
    """The count fill's actions equal the scalar reference's on a few
    trajectories of each state, and its counts the float rule's, forced by
    making _count_rule refuse."""
    binding = _Binding(config)
    for state in (0, 1):
        signals = _draw_chunk(binding, state,
                              _chunk_generator(config.seed, state, 0), 6,
                              config.horizon)
        actions = _replay(config, binding, signals)
        for r in range(6):
            assert np.array_equal(
                actions[r], replay_reference.replay(config, signals[r])
            ), (state, r)
    counted = mistake_curve(config).counts
    with monkeypatch.context() as patch:
        patch.setattr(strategies, "_count_rule", lambda *args: None)
        floats = dataclasses.replace(config)
        assert _bound_path(floats) == "float"
        assert counted.sum() > 0
        assert np.array_equal(mistake_curve(floats).counts, counted)


@pytest.mark.parametrize("horizon", [128, 300])
@pytest.mark.parametrize("name", _LONG_HORIZON_MODELS)
def test_the_count_fill_plays_past_127_periods_as_the_float_rule(
    name, horizon, monkeypatch
):
    model = _LONG_HORIZON_MODELS[name]
    config = SimConfig(model, Network.complete(3), CoordinationComplete(0.05),
                       horizon, 600, 11)
    binding = _Binding(config)
    assert _bound_path(config) == "count"
    _, flip, limits = binding.fill.args
    assert (flip is not None) == (name == "flipped-finite")
    assert limits.dtype == np.int16 and limits.shape[:2] == (horizon, 2)
    _plays_as_the_float_rule(config, monkeypatch)


def test_autarky_binds_the_count_fill_only_when_it_is_exact(monkeypatch):
    # verify's autarky-exactness curve and criterion 7's autarky profile
    verify = SimConfig(binary_model(0.75), Network.complete(1), AutarkyML(), 30,
                       100_000, 0)
    profile = SimConfig(binary_model(0.75, 10), Network.complete(10), AutarkyML(),
                        25, 100_000, 0)
    assert _bound_path(verify) == _bound_path(profile) == "count"
    # on a uniform prior the float sums of the middle count straddle 0, first
    # at t = 60 (count 30) when p = 0.75 and at t = 6 (count 3) when p = 0.6
    for p, horizon, count, edge in ((0.75, 60, 30, 3.552713678800501e-15),
                                    (0.6, 6, 3, 1.1102230246251565e-16)):
        config = autarky_config(horizon, p=p)
        assert _bound_path(config) == "float"
        assert _bound_path(dataclasses.replace(config, horizon=horizon - 1)) == "count"
        *_, (lo, hi) = strategies.reachable_sums(*_Binding(config).table[0], horizon)
        assert (lo[count], hi[count]) == (-edge, edge)
    # more than two states or atoms, and Gaussian signals, stay on floats
    for model in (
        SignalModel(StateSpace((0, 1)),
                    Finite((0, 1, 2), ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))), 2),
        SignalModel(StateSpace((0, 1, 2)),
                    Finite((0, 1), ((0.8, 0.2), (0.5, 0.5), (0.2, 0.8))), 2),
        SignalModel(StateSpace((0, 1)), Gaussian((0.0, 1.0), 1.0), 2),
    ):
        config = SimConfig(model, Network.complete(2), AutarkyML(), 5, 10, 0)
        assert _bound_path(config) == "float"
    # past 127 periods the limits take int16; binary autarky takes a
    # non-uniform prior, as on a uniform one it straddles at t = 60
    for model in (binary_model(0.75, 3, (0.4, 0.6)), _FLIPPED_FINITE):
        for horizon in (128, 300):
            config = SimConfig(model, Network.complete(3), AutarkyML(), horizon,
                               600, 11)
            assert _bound_path(config) == "count"
            flip, limits = _Binding(config).fill.args
            assert (flip is not None) == (model is _FLIPPED_FINITE)
            assert limits.dtype == np.int16 and limits.shape == (horizon, 1, 1)
            _plays_as_the_float_rule(config, monkeypatch)


@st.composite
def _two_atom_coordination(draw):
    """Autarky or complete coordination on a random two-state, two-atom
    model: per-agent pmfs, either atom may favor state 1, a random prior."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pmf = rng.uniform(0.05, 0.95, size=(n, 2, 1))
    pmf = np.concatenate([pmf, 1.0 - pmf], axis=2)
    q = draw(st.floats(0.1, 0.9))
    model = SignalModel(StateSpace((0, 1), (q, 1.0 - q)), Finite((0, 1), pmf), n)
    delta = draw(st.sampled_from([None, 0.01, 0.05]))
    horizon = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 1000))
    if config_violations(model, Network.complete(n), CoordinationComplete(delta),
                         horizon, 8, seed):
        # an explicit delta at or past the smallest pair mean
        delta = None
    strategy = draw(st.sampled_from([AutarkyML(), CoordinationComplete(delta)]))
    return SimConfig(model, Network.complete(n), strategy, horizon, 8, seed)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_two_atom_coordination(), st.integers(0, 1))
def test_count_fill_matches_the_scalar_reference_on_random_models(config, state):
    binding = _Binding(config)
    event(f"{type(config.strategy).__name__}: {_bound_path(config)}")
    signals = _draw_chunk(
        binding, state, _chunk_generator(config.seed, state, 0),
        config.replications, config.horizon,
    )
    actions = _replay(config, binding, signals)
    for r in range(config.replications):
        assert np.array_equal(
            actions[r], replay_reference.replay(config, signals[r])
        ), (config.strategy, _bound_path(config), r)


def test_pooled_and_serial_count_curves_agree(monkeypatch):
    config = SimConfig(
        binary_model(0.75, 5, (0.4, 0.6)), Network.complete(5),
        CoordinationComplete(0.05), 12, 3 * CHUNK + 11, 17,
    )
    assert _bound_path(config) == "count"
    monkeypatch.setenv("RATEBOUND_THREADS", "1")
    serial = mistake_curve(config).counts
    monkeypatch.setenv("RATEBOUND_THREADS", "2")
    assert np.array_equal(mistake_curve(config).counts, serial)


@pytest.mark.parametrize(
    "prior, digest",
    [
        (None, "e6cbd20ef4b96e2937eec1f4a9fd71352e35525850ea3bfc5846157446e10579"),
        (
            (0.3, 0.7),
            "bda16185b99f5c000e84af57c8dc9d8cb874e180b862ca1b6f7eaf65597be0e2",
        ),
    ],
    ids=["uniform", "first-action-1"],
)
def test_vectorized_counts_match_recorded_digest(prior, digest, monkeypatch):
    # sha256 of the little-endian int64 counts, recorded before the draw and
    # the kernel were rewritten; three chunks, the last one partial.
    monkeypatch.setenv("RATEBOUND_THREADS", "1")
    config = SimConfig(
        binary_model(0.7, 8, prior), Network.complete(8),
        CoordinationComplete(0.05), 16, 10_000, 2024,
    )
    counts = mistake_curve(config).counts
    raw = np.ascontiguousarray(counts, dtype="<i8").tobytes()
    assert counts.shape == (2, 8, 16)
    assert hashlib.sha256(raw).hexdigest() == digest


def test_trajectory_sums_reproduce_generic_counts():
    config = SimConfig(
        binary_model(0.8, 3), Network.directed_cycle(3),
        CoordinationConnected(0.05), 5, 300, 7,
    )
    curve = mistake_curve(config)
    for state in (0, 1):
        total = np.zeros((3, 5), dtype=np.int64)
        for r in range(config.replications):
            _, mistakes = run_trajectory(config, state, r)
            total += mistakes
        assert np.array_equal(total, curve.counts[state])


def test_run_trajectory_replays_the_last_replication_of_a_partial_block():
    # Two blocks, the last holding 37 replications: run_trajectory draws
    # only a prefix of that block's stream and must still see the signals
    # the whole-block draw gives each replication.
    config = SimConfig(
        binary_model(0.8, 3), Network.directed_cycle(3),
        CoordinationConnected(0.05), 7, CHUNK + 37, 19,
    )
    binding = _Binding(config)
    for state in (0, 1):
        gen = _chunk_generator(config.seed, state, 1)
        block = _replay(config, binding, _draw_chunk(binding, state, gen, 37, 7))
        for offset in (0, 17, 36):
            actions, mistakes = run_trajectory(config, state, CHUNK + offset)
            assert np.array_equal(actions, block[offset]), (state, offset)
            assert np.array_equal(mistakes, block[offset] != state)


def _tile_workloads():
    finite = SignalModel(
        StateSpace((0, 1, 2), (0.5, 0.3, 0.2)),
        Finite((0, 1, 2, 3), (
            ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.3, 0.2)),
            ((0.5, 0.2, 0.3, 0.0), (0.2, 0.5, 0.3, 0.0), (0.3, 0.3, 0.4, 0.0)),
            ((0.6, 0.1, 0.1, 0.2), (0.2, 0.3, 0.1, 0.4), (0.1, 0.6, 0.2, 0.1)),
        )),
        3,
    )
    gaussian = SignalModel(
        StateSpace((0, 1, 2), (0.2, 0.3, 0.5)), Gaussian((0.0, 0.6, 1.2), 1.0), 4
    )
    return {
        "binary-coordination": SimConfig(
            binary_model(0.75, 3), Network.complete(3),
            CoordinationComplete(0.05), 6, CHUNK + 37, 5,
        ),
        "finite-autarky": SimConfig(
            finite, Network.complete(3), AutarkyML(), 8, 300, 6
        ),
        "gaussian-relay": SimConfig(
            gaussian, Network.directed_cycle(4), CoordinationConnected(),
            22, 150, 3,
        ),
        "odd-even": SimConfig(
            binary_model(0.7, 4), Network.complete(4), OddEven(), 7, 250, 8
        ),
        "autarky-blocks": autarky_config(horizon=5, replications=2 * CHUNK + 100),
        "gaussian-blocks": SimConfig(
            SignalModel(StateSpace((0, 1)), Gaussian((0.0, 0.5), 1.0), 1),
            Network.complete(1), AutarkyML(), 2, CHUNK + 9, 4,
        ),
    }


@pytest.mark.parametrize("name", list(_tile_workloads()))
def test_counts_do_not_depend_on_the_tile_size(name, monkeypatch):
    # Tiles of one replication, of 7, and of more than a whole block, and
    # units packing two and three whole blocks, must all count exactly what
    # the default units count, serially and on a pool. With several blocks
    # per state the last unit holds the partial block (autarky-blocks: units
    # of 2 + 1 and of 3).
    monkeypatch.setenv("RATEBOUND_THREADS", "1")
    config = _tile_workloads()[name]
    reference = mistake_curve(config).counts
    cells = config.network.n * max(config.horizon, sim_engine._TILE_PERIODS)
    for reps in (1, 7, CHUNK + 5, 2 * CHUNK, 3 * CHUNK + 1):
        monkeypatch.setattr(sim_engine, "_TILE_CELLS", reps * cells)
        assert np.array_equal(mistake_curve(config).counts, reference), reps
    monkeypatch.setenv("RATEBOUND_THREADS", "2")
    for reps in (7, 2 * CHUNK):
        monkeypatch.setattr(sim_engine, "_TILE_CELLS", reps * cells)
        assert np.array_equal(mistake_curve(config).counts, reference), reps


class _PoolStarted(Exception):
    pass


def _no_pool(*args, **kwargs):
    raise _PoolStarted


def test_small_curves_stay_in_process_unless_threads_are_set(monkeypatch):
    # 2 states x 3 blocks x 1 agent x 5 periods, in two units, one per state
    config = autarky_config(horizon=5, replications=3 * CHUNK)
    cells = 2 * config.replications * config.horizon
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("RATEBOUND_THREADS", raising=False)
    assert cells < sim_engine._POOL_CELLS
    counts = mistake_curve(config).counts
    monkeypatch.setenv("RATEBOUND_THREADS", "1")
    assert np.array_equal(mistake_curve(config).counts, counts)
    monkeypatch.setenv("RATEBOUND_THREADS", "2")
    with pytest.raises(_PoolStarted):
        mistake_curve(config)
    monkeypatch.setenv("RATEBOUND_THREADS", "")
    monkeypatch.setattr(sim_engine, "_POOL_CELLS", cells)
    with pytest.raises(_PoolStarted):
        mistake_curve(config)
    monkeypatch.setattr(sim_engine, "_POOL_CELLS", cells + 1)
    assert np.array_equal(mistake_curve(config).counts, counts)


def test_monte_carlo_tracks_the_exact_autarky_curve():
    config = autarky_config(horizon=8, replications=40_000, seed=3)
    mc = mistake_curve(config)
    exact = exact_autarky_curve(config.model, 8)
    se = np.sqrt(exact.probs * (1.0 - exact.probs) / mc.trials)
    assert np.all(np.abs(mc.probs - exact.probs) <= 4.0 * se)


def test_identical_configs_give_identical_counts():
    config = SimConfig(
        binary_model(0.75, 2), Network.complete(2), OddEven(), 6, 5000, 99
    )
    a = mistake_curve(config)
    b = mistake_curve(config)
    assert np.array_equal(a.counts, b.counts)
    assert a.trials == b.trials == 5000


def test_binding_is_compiled_once_per_config(monkeypatch):
    # run_trajectory, the serial and the pooled mistake_curve, and
    # enumerate_exact share the config's one binding; pool workers receive
    # it once and count what the serial loop counts.
    builds = []
    compile_binding = sim_engine._Binding

    def counted(config):
        builds.append(config)
        return compile_binding(config)

    monkeypatch.setattr(sim_engine, "_Binding", counted)
    config = SimConfig(
        binary_model(0.75, 2), Network.complete(2), CoordinationComplete(),
        5, CHUNK + 10, 12,
    )
    trajectories = [run_trajectory(config, 1, i)[0] for i in (0, 7, CHUNK + 9)]
    monkeypatch.setenv("RATEBOUND_THREADS", "1")
    serial = mistake_curve(config).counts
    monkeypatch.setenv("RATEBOUND_THREADS", "2")
    pooled = mistake_curve(config).counts
    enumerate_exact(config)
    assert builds == [config]
    assert np.array_equal(pooled, serial)
    equal = SimConfig(*(getattr(config, f) for f in (
        "model", "network", "strategy", "horizon", "replications", "seed")))
    assert equal == config and hash(equal) == hash(config)
    assert np.array_equal(run_trajectory(equal, 1, 7)[0], trajectories[1])
    assert len(builds) == 2


def test_binding_pickles_for_spawned_pool_workers():
    # a pool that spawns its workers, rather than forking them, sends them
    # the binding, and with it each strategy's compiled decide or fill;
    # complete coordination binds both of its forms
    paths = []
    for strategy, p in (
        (AutarkyML(), 0.75), (CoordinationComplete(0.05), 0.75),
        (CoordinationComplete(), 0.7), (CoordinationConnected(0.05), 0.75),
        (OddEven(), 0.75), (ConstantFirstPeriod(1), 0.75),
    ):
        config = SimConfig(
            binary_model(p, 3), Network.complete(3), strategy, 30, 50, 4
        )
        binding = _Binding(config)
        paths.append(_bound_path(config))
        signals = _draw_chunk(binding, 1, _chunk_generator(4, 1, 0), 50, config.horizon)
        copy = pickle.loads(pickle.dumps(binding))
        assert np.array_equal(
            _replay(config, copy, signals), _replay(config, binding, signals)
        )
    assert paths[1:3] == ["count", "float"]


def test_run_trajectory_validates_indices_and_reports_mistakes():
    config = autarky_config(horizon=4, replications=10)
    actions, mistakes = run_trajectory(config, 1, 3)
    assert actions.shape == (1, 4) and mistakes.shape == (1, 4)
    assert np.array_equal(mistakes, actions != 1)
    # an index is an integer in range, not a bool or a float
    for state in (2, -1, True, 1.0):
        with pytest.raises(ValueError) as excinfo:
            run_trajectory(config, state, 0)
        assert str(excinfo.value) == (
            f"state must be an integer index in 0..1, not {state!r}")
    for index in (10, -1, False, 2.0):
        with pytest.raises(ValueError) as excinfo:
            run_trajectory(config, 0, index)
        assert str(excinfo.value) == (
            f"replication_index must be an integer index in 0..9, not {index!r}")
    same = run_trajectory(config, np.int64(1), np.int64(3))
    assert np.array_equal(same[0], actions)


# -- visibility: strategies cannot benefit from unobserved actions --------------------


def _actions_with_poisoned_rows(config, state, observer, rng):
    """Run the engine twice on one block: honestly, and with the observer
    deciding each period on a copy of the (horizon, agents, reps) history
    whose rows of unobserved agents hold random states. A rule that reads
    beyond the observer's neighborhood makes the two runs diverge."""
    binding = _Binding(config)
    gen = _chunk_generator(config.seed, state, 0)
    signals = _draw_chunk(binding, state, gen, config.replications,
                          config.horizon)
    clean = _replay(config, binding, signals).copy()
    hidden = [
        j for j in range(config.network.n)
        if j not in config.network.neighborhoods[observer]
    ]
    honest = binding.decide

    def poisoned(t, L, history):
        honest(t, L, history)
        garbage = history.copy()
        garbage[: t - 1, hidden] = rng.integers(
            0, config.model.states.n_states, garbage[: t - 1, hidden].shape
        )
        honest(t, L, garbage)
        history[t - 1, observer] = garbage[t - 1, observer]

    binding.decide = poisoned
    poisoned_actions = _replay(config, binding, signals)
    assert hidden, "the observer must have unobserved agents"
    return clean, poisoned_actions


@pytest.mark.parametrize(
    "strategy", [AutarkyML(), CoordinationConnected(0.05)],
    ids=["autarky", "connected"],
)
def test_unobserved_actions_cannot_influence_decisions(strategy):
    config = SimConfig(
        binary_model(0.75, 5), Network.directed_cycle(5), strategy,
        horizon=18, replications=64, seed=21,
    )
    rng = np.random.default_rng(55)
    for state in (0, 1):
        for observer in range(config.network.n):
            clean, poisoned = _actions_with_poisoned_rows(
                config, state, observer, rng
            )
            assert np.array_equal(clean, poisoned), (state, observer)


# -- mistake curves and their statistics ----------------------------------------------


def test_mixed_curve_weights_states_by_the_prior():
    probs = np.array([[[0.2, 0.1]], [[0.4, 0.3]]])
    curve = MistakeCurve(probs, prior=(0.25, 0.75), provenance="exact-enumeration")
    assert curve.mixed()[0] == pytest.approx([0.35, 0.25], rel=1e-14)


# -- rate fitting -----------------------------------------------------------------------


def synthetic_exact_curve(rate, scale=0.3, horizon=30):
    ts = np.arange(1, horizon + 1)
    decay = scale * np.exp(-rate * ts)
    probs = np.broadcast_to(decay, (2, 1, horizon)).copy()
    return MistakeCurve(probs, prior=(0.5, 0.5), provenance="exact-enumeration")


def test_fit_recovers_a_pure_exponential_exactly():
    curve = synthetic_exact_curve(0.4)
    fit = fit_rate(curve, (1, 30))
    assert fit.usable and fit.n_points == 30
    assert fit.rate == pytest.approx(0.4, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    per_agent = fit_rate(curve, (5, 25), agent=0)
    assert per_agent.rate == pytest.approx(0.4, abs=1e-12)


def test_fit_skips_cells_with_too_few_recorded_mistakes():
    counts = np.array([[[400, 268, 180, 9, 5]]] * 2, dtype=np.int64)
    curve = MistakeCurve(
        probs=counts / 1000.0, prior=(0.5, 0.5), provenance="monte-carlo",
        counts=counts, trials=1000,
    )
    fit = fit_rate(curve, (1, 5))
    assert fit.usable and fit.n_points == 3
    assert fit.rate > 0.0
    starved = fit_rate(curve, (3, 5))
    assert not starved.usable
    assert starved.n_points == 1
    assert math.isnan(starved.rate) and math.isnan(starved.stderr)


def test_fit_is_unusable_on_an_all_zero_window():
    curve = synthetic_exact_curve(0.4, horizon=10)
    curve.probs[:, :, 5:] = 0.0
    assert not fit_rate(curve, (6, 10)).usable


def test_fit_validates_window_and_agent():
    curve = synthetic_exact_curve(0.4, horizon=10)
    with pytest.raises(ValueError, match=r"window \(0, 5\) outside the curve's 1..10"):
        fit_rate(curve, (0, 5))
    with pytest.raises(ValueError, match=r"window \(7, 5\) is reversed"):
        fit_rate(curve, (7, 5))
    with pytest.raises(ValueError, match=r"window \(1, 11\) outside"):
        fit_rate(curve, (1, 11))
    # window ends are integer periods: not truncated floats, not bools
    for window in ((1.9, 10.7), (True, 10), (1, 10.0)):
        with pytest.raises(ValueError) as excinfo:
            fit_rate(curve, window)
        assert str(excinfo.value) == (
            f"window ends must be integer periods, not {window!r}")
    assert fit_rate(curve, (np.int64(1), np.int64(10))) == fit_rate(curve, (1, 10))
    # an agent must be an integer index, not a bool or a float
    for agent in (True, 1.0, -1, curve.n_agents):
        with pytest.raises(ValueError) as excinfo:
            fit_rate(curve, (1, 10), agent=agent)
        assert str(excinfo.value) == (
            f"agent must be an integer index in 0..0, not {agent!r}")
    assert fit_rate(curve, (1, 10), agent=np.int64(0)) == fit_rate(curve, (1, 10))


# -- curve CSV ----------------------------------------------------------------------


def test_monte_carlo_curve_round_trips_through_csv(tmp_path):
    config = SimConfig(
        binary_model(0.75, 2), Network.complete(2), AutarkyML(), 3, 50, 5
    )
    curve = mistake_curve(config)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    raw = path.read_bytes()
    assert raw.startswith(b"agent,period,state,mistakes,trials\n")
    assert b"\r" not in raw
    lines = path.read_text().splitlines()
    # blank lines between the rows, as an editor or a concatenation leaves
    # them, read back the same curve
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(lines[0] + "\n\n" + "\n \n".join(lines[1:]) + "\n\n")
    for back in (read_curve_csv(path), read_curve_csv(spaced)):
        assert back.trials == 50
        assert np.array_equal(back.counts, curve.counts)
        assert np.array_equal(back.probs, curve.probs)
        assert back.provenance == "monte-carlo"


def test_exact_curve_round_trips_through_csv(tmp_path):
    curve = exact_autarky_curve(binary_model(0.75), 4)
    path = tmp_path / "exact.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert back.trials == 0 and back.counts is None
    assert np.array_equal(back.probs, curve.probs)


def test_curve_csv_keeps_the_prior_and_the_fit(tmp_path):
    config = SimConfig(
        binary_model(0.7, 2, prior=(0.8, 0.2)), Network.complete(2),
        AutarkyML(), 20, 4000, 8,
    )
    curve = mistake_curve(config)
    path = tmp_path / "skewed.csv"
    write_curve_csv(curve, path)
    assert path.read_text().splitlines()[1:3] == [
        "# prior=0.8,0.2", "# provenance=monte-carlo",
    ]
    back = read_curve_csv(path)
    assert back.prior == (0.8, 0.2)
    assert np.array_equal(back.mixed(), curve.mixed())
    assert fit_rate(back, (5, 20)) == fit_rate(curve, (5, 20))
    assert fit_rate(back, (5, 20), agent=1) == fit_rate(curve, (5, 20), agent=1)


def test_curve_csv_keeps_the_provenance(tmp_path):
    binomial = exact_autarky_curve(binary_model(0.75), 4)
    enumerated = enumerate_exact(autarky_config(horizon=4))
    # Always wrong in state 1: the summed profile mass rounds above 1.
    above_one = enumerate_exact(SimConfig(
        binary_model(0.7), Network.complete(1), ConstantFirstPeriod(0), 8, 1, 0
    ))
    assert above_one.probs.max() > 1.0
    for i, curve in enumerate((binomial, enumerated, above_one)):
        path = tmp_path / f"{i}.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.provenance == curve.provenance
        assert back.prior == curve.prior
        assert np.array_equal(back.probs, curve.probs)


def test_curve_csv_without_metadata_still_reads(tmp_path):
    counted = tmp_path / "counted.csv"
    counted.write_text(
        "agent,period,state,mistakes,trials\n0,1,0,3,10\n0,1,1,6,10\n"
    )
    back = read_curve_csv(counted)
    assert back.prior == (0.5, 0.5)
    assert back.provenance == "monte-carlo"
    assert back.counts.tolist() == [[[3]], [[6]]]
    exact = tmp_path / "exact.csv"
    exact.write_text("agent,period,state,mistakes,trials\n0,1,0,0.25,0\n")
    back = read_curve_csv(exact)
    assert back.prior == (1.0,) and back.provenance == "exact-enumeration"


def test_read_curve_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("agent,period,mistakes\n0,1,3\n")
    with pytest.raises(ValueError, match="header"):
        read_curve_csv(bad_header)
    empty = tmp_path / "b.csv"
    empty.write_text("agent,period,state,mistakes,trials\n")
    with pytest.raises(ValueError, match="no data"):
        read_curve_csv(empty)
    mixed = tmp_path / "c.csv"
    mixed.write_text(
        "agent,period,state,mistakes,trials\n0,1,0,3,100\n0,1,1,3,200\n"
    )
    with pytest.raises(ValueError, match="trial counts"):
        read_curve_csv(mixed)
    for body, message in (
        ("0,1,0,3,100\n0,2,0,3,100\n0,2,1,3,100\n", "every"),
        ("0,0,0,0.5,0\n", "period below 1"),
        ("-1,1,0,0.5,0\n", "agent or state below 0"),
        ("0,1,0,3,100\n0,1,0,4,100\n", "once"),
        ("0,1,0,2.5,100\n", "non-integer"),
        ("0,1,0,30,10\n", r"outside \[0, 10\]"),
        ("0,1,0,-1,10\n", r"outside \[0, 10\]"),
        ("0,1,0,1.5,0\n", r"outside \[0, 1\]"),
        ("0,1,0,nan,0\n", r"outside \[0, 1\]"),
    ):
        bad_rows = tmp_path / "e.csv"
        bad_rows.write_text(f"agent,period,state,mistakes,trials\n{body}")
        with pytest.raises(ValueError, match=message):
            read_curve_csv(bad_rows)
    rows = "0,1,0,3,100\n0,1,1,3,100\n"
    for meta, message in (
        ("# seed=4", "metadata"),
        ("# prior=0.2,0.3,0.5", "3 entries for 2 states"),
        ("# provenance=guesswork", "provenance"),
    ):
        bad_meta = tmp_path / "d.csv"
        bad_meta.write_text(f"agent,period,state,mistakes,trials\n{meta}\n{rows}")
        with pytest.raises(ValueError, match=message):
            read_curve_csv(bad_meta)
    # a malformed row or prior is refused with one line that names the
    # file's line, the state space's prior rule and no Python internals
    for body, message in (
        ("0,1,0,3\n", "expected the 5 fields agent,period,state,mistakes,trials, "
                      "found 4"),
        ("0,1,0,3,100,7\n", "expected the 5 fields agent,period,state,mistakes,"
                            "trials, found 6"),
        ("x,1,0,3,100\n", "non-integer agent 'x'"),
        ("0,1.5,0,3,100\n", "non-integer period '1.5'"),
        ("0,1,s,3,100\n", "non-integer state 's'"),
        ("0,1,0,3,ten\n", "non-integer trials 'ten'"),
        ("0,1,0,3,-10\n", "trials outside [0, 2^63)"),
        (f"0,1,0,{2**63},{2**63}\n", "trials outside [0, 2^63)"),
        ("0,1,0,abc,0\n", "non-numeric mistake probability 'abc'"),
        ("# prior=-1,2\n", "prior must have full support (all entries positive)"),
        ("# prior=nan,nan\n", "a prior entry must be a finite real number, not nan"),
        ("# prior=inf,0\n", "a prior entry must be a finite real number, not inf"),
        ("# prior=0.9,0.3\n", "prior must sum to 1"),
        ("# prior=abc,0.5\n", "non-numeric prior entry 'abc'"),
    ):
        bad = tmp_path / "f.csv"
        bad.write_text(f"agent,period,state,mistakes,trials\n0,1,0,3,100\n{body}"
                       "0,1,1,3,100\n")
        with pytest.raises(ValueError) as excinfo:
            read_curve_csv(bad)
        assert str(excinfo.value) == f"curve file line 3: {message}"


# -- worker configuration ----------------------------------------------------------


def test_worker_count_reads_the_environment(monkeypatch):
    monkeypatch.setenv("RATEBOUND_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("RATEBOUND_THREADS", "")
    assert worker_count() >= 1
    monkeypatch.setenv("RATEBOUND_THREADS", "zero")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("RATEBOUND_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
