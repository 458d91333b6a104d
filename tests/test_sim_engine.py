"""Simulation engine: exactness oracles, visibility, determinism, rate fits."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from ratebound.network import Network
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)
from ratebound.sim_engine import (
    MistakeCurve,
    SimConfig,
    enumerate_exact,
    exact_autarky_curve,
    fit_rate,
    mistake_curve,
    read_curve_csv,
    resolve_delta,
    run_trajectory,
    worker_count,
    write_curve_csv,
)
from ratebound.sim_engine import _Binding, _chunk_generator, _draw_chunk, _replay
from ratebound.strategies import (
    AgentState,
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
    model = binary_model(0.75)
    assert resolve_delta(model, None) == pytest.approx(
        0.1 * MEAN_THREEQ, rel=1e-12
    )
    assert resolve_delta(model, 0.3) == 0.3
    with pytest.raises(ValueError):
        resolve_delta(model, 0.0)
    with pytest.raises(ValueError):
        resolve_delta(model, MEAN_THREEQ + 0.01)


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
    disconnected = Network(3, ((0,), (0, 1), (1, 2)))
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


def test_enumeration_agrees_with_the_closed_form():
    config = autarky_config(horizon=6, replications=1)
    enum = enumerate_exact(config)
    closed = exact_autarky_curve(config.model, 6)
    assert np.max(np.abs(enum.probs - closed.probs)) <= 1e-14
    assert enum.provenance == "exact-enumeration"
    assert enum.trials == 0 and enum.counts is None


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


def test_trajectory_sums_reproduce_vectorized_counts():
    # Every vectorized strategy, under a uniform prior and under one whose
    # first action is state 1; the even group makes plurality ties possible.
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
        binding = _Binding(config)
        for state in (0, 1):
            # One chunk: these are the signals run_trajectory replays.
            gen = _chunk_generator(config.seed, state, 0)
            signals = _draw_chunk(config.model, state, gen, 600, 5)
            total = np.zeros((n, 5), dtype=np.int64)
            for trajectory in signals:
                total += _replay(config, binding, trajectory) != state
            assert np.array_equal(total, curve.counts[state]), (
                n, prior, strategy, state,
            )


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


def test_run_trajectory_validates_indices_and_reports_mistakes():
    config = autarky_config(horizon=4, replications=10)
    actions, mistakes = run_trajectory(config, 1, 3)
    assert actions.shape == (1, 4) and mistakes.shape == (1, 4)
    assert np.array_equal(mistakes, actions != 1)
    with pytest.raises(ValueError):
        run_trajectory(config, 2, 0)
    with pytest.raises(ValueError):
        run_trajectory(config, 0, 10)


# -- visibility: strategies cannot benefit from unobserved actions --------------------


def _actions_with_poisoned_channels(config, state, rep_rng):
    """Replay one trajectory twice: honestly, and with covert history slots
    for every unobserved agent filled with random garbage. A strategy that
    reads beyond its neighborhood would diverge between the two runs."""
    binding = _Binding(config)
    gen = _chunk_generator(config.seed, state, 0)
    signals = _draw_chunk(config.model, state, gen, config.replications,
                          config.horizon)
    net, strat, ctx = config.network, config.strategy, binding.ctx
    clean = [
        _replay(config, binding, signals[r]) for r in range(config.replications)
    ]
    poisoned = []
    for r in range(config.replications):
        agents = [
            AgentState(
                i, binding.prior_matrix, binding.pair_means[i],
                binding.increments[i], net.neighborhoods[i],
            )
            for i in range(net.n)
        ]
        for holder in agents:
            for j in range(net.n):
                holder.history.setdefault(j, [])
        actions = np.empty((net.n, config.horizon), dtype=np.int16)
        for t in range(1, config.horizon + 1):
            for i in range(net.n):
                agents[i].absorb(signals[r, i, t - 1])
            acts = [strat.act(agents[i], t, ctx) for i in range(net.n)]
            for j, act in enumerate(acts):
                for i in range(net.n):
                    if j in net.neighborhoods[i]:
                        agents[i].record(j, act)
                    else:
                        agents[i].history[j].append(int(rep_rng.integers(0, 2)))
            actions[:, t - 1] = acts
        poisoned.append(actions)
    return clean, poisoned


@pytest.mark.parametrize(
    "strategy", [AutarkyML(), CoordinationConnected(0.05)],
    ids=["autarky", "connected"],
)
def test_unobserved_actions_cannot_influence_decisions(strategy):
    config = SimConfig(
        binary_model(0.75, 5), Network.directed_cycle(5), strategy,
        horizon=18, replications=4, seed=21,
    )
    rng = np.random.default_rng(55)
    for state in (0, 1):
        clean, poisoned = _actions_with_poisoned_channels(config, state, rng)
        for honest, probed in zip(clean, poisoned):
            assert np.array_equal(honest, probed)


# -- mistake curves and their statistics ----------------------------------------------


def test_mixed_curve_weights_states_by_the_prior():
    probs = np.array([[[0.2, 0.1]], [[0.4, 0.3]]])
    curve = MistakeCurve(probs, prior=(0.25, 0.75), provenance="exact-enumeration")
    assert curve.mixed()[0] == pytest.approx([0.35, 0.25], rel=1e-14)
    assert curve.mixed_stderr() is None


def test_mixed_stderr_matches_the_binomial_formula():
    probs = np.array([[[0.2]], [[0.4]]])
    counts = (probs * 100).astype(np.int64)
    curve = MistakeCurve(
        probs, prior=(0.5, 0.5), provenance="monte-carlo", counts=counts,
        trials=100,
    )
    expected = math.sqrt((0.25 * 0.2 * 0.8 + 0.25 * 0.4 * 0.6) / 100)
    assert curve.mixed_stderr()[0, 0] == pytest.approx(expected, rel=1e-12)


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
    with pytest.raises(ValueError):
        fit_rate(curve, (0, 5))
    with pytest.raises(ValueError):
        fit_rate(curve, (7, 5))
    with pytest.raises(ValueError):
        fit_rate(curve, (1, 11))
    with pytest.raises(ValueError):
        fit_rate(curve, (1, 10), agent=1)


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
    back = read_curve_csv(path)
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
    for curve in (binomial, enumerated):
        path = tmp_path / f"{curve.provenance}.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.provenance == curve.provenance
        assert back.prior == curve.prior


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
