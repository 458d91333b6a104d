"""Rate constants: autarky, bounded, weak bounds, thresholds."""

import math

import numpy as np
import pytest

from ratebound.rates import (
    UNBOUNDED,
    autarky_rate,
    bounded_rate,
    coordination_threshold,
    rate_report,
    sweep_figure1,
    weak_bounded_rate,
)
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)
from ratebound.network import Network
from ratebound.sim_engine import InadmissibleConfig, SimConfig
from ratebound.strategies import CoordinationComplete
from ratebound.verification import _conjugate_zero_oracle

LOG3 = 1.0986122886681098
AUTARKY_THREEQ = 0.14384103622589045
BOUNDED_THREEQ = 0.5493061443340549


def binary_model(p=0.75, n_agents=1):
    return SignalModel(StateSpace((0, 1)), BinarySymmetric(p), n_agents)


def test_autarky_and_bounded_goldens():
    model = binary_model(0.75)
    assert autarky_rate(model) == pytest.approx(AUTARKY_THREEQ, rel=1e-10)
    assert bounded_rate(model) == pytest.approx(BOUNDED_THREEQ, rel=1e-12)
    assert bounded_rate(model) == pytest.approx(
        0.5 * math.log(3.0), rel=1e-12
    )


def test_autarky_rate_takes_an_integer_agent_index():
    # agents p = 0.9 and p = 0.6; a bool, float or string is no agent index,
    # not even when it would cast to 1
    pmf = [[(p, 1.0 - p), (1.0 - p, p)] for p in (0.9, 0.6)]
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf), 2)
    for agent in (True, 1.9, np.float64(1.2), "1", -1, 2):
        with pytest.raises(ValueError) as excinfo:
            autarky_rate(model, agent)
        assert str(excinfo.value) == (
            f"agent must be an integer index in 0..1, not {agent!r}")
    assert autarky_rate(model, np.int64(1)) == autarky_rate(model, 1)
    assert autarky_rate(model, 1) == autarky_rate(binary_model(0.6))


def test_weak_bounded_golden_and_gaussian_unboundedness():
    assert weak_bounded_rate(binary_model(0.75)) == pytest.approx(
        2.0 * LOG3, rel=1e-12
    )
    gaussian = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0))
    assert weak_bounded_rate(gaussian) == UNBOUNDED
    assert math.isinf(weak_bounded_rate(gaussian))


def test_rate_ordering_across_precisions():
    rng = np.random.default_rng(17)
    for q in rng.uniform(0.51, 0.99, 25):
        model = binary_model(float(q))
        raut = autarky_rate(model)
        rbdd = bounded_rate(model)
        rweak = weak_bounded_rate(model)
        assert 0.0 < raut < rbdd < rweak


def test_rate_report_picks_the_binding_pair_and_agent():
    # Agent 1 sees sharper signals, so she is the best-informed agent for
    # every ordered pair of this two-state model.
    pmf = (
        ((0.6, 0.4), (0.4, 0.6)),
        ((0.9, 0.1), (0.1, 0.9)),
    )
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf), n_agents=2)
    report = rate_report(model)
    assert report.argmax_agent == 1
    # Both pairs' means are exactly equal: the first in row-major order binds.
    assert report.argmin_pair == (0, 1)
    assert report.r_bdd == pytest.approx(
        0.8 * math.log(9.0), rel=1e-12
    )
    assert len(report.r_aut) == 2
    assert report.r_aut[0] < report.r_aut[1]
    assert report.as_dict()["r_tilde_bdd"] == pytest.approx(2 * math.log(9.0))


def test_rate_report_breaks_an_exact_tie_by_the_first_pair_and_agent():
    # Cyclic rows: (0, 2), (1, 0) and (2, 1) share the smallest mean bit for
    # bit, and both agents are identical.
    pmf = ((0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.3, 0.2, 0.5))
    model = SignalModel(StateSpace((0, 1, 2)), Finite((0, 1, 2), pmf), n_agents=2)
    report = rate_report(model)
    assert report.argmin_pair == (0, 2)
    assert report.argmax_agent == 0


def test_rate_report_serializes_unbounded_as_a_word():
    gaussian = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0))
    doc = rate_report(gaussian).as_dict()
    assert doc["r_tilde_bdd"] == "unbounded"
    assert doc["r_aut"] == pytest.approx([0.125])
    assert doc["r_bdd"] == pytest.approx(0.5)


def test_autarky_rate_uses_the_worst_pair():
    # Three states; the (0, 2) pair is nearly uninformative and must bind.
    pmf = (
        (0.50, 0.30, 0.20),
        (0.20, 0.30, 0.50),
        (0.48, 0.30, 0.22),
    )
    model = SignalModel(StateSpace((0, 1, 2)), Finite((0, 1, 2), pmf))
    rate = autarky_rate(model)
    from ratebound.ldp_numerics import PairKernel

    per_pair = [
        PairKernel(model, 0, f, g).legendre(0.0).value
        for f in range(3)
        for g in range(3)
        if f != g
    ]
    assert rate == pytest.approx(min(per_pair), rel=1e-12)
    assert rate < 0.01


def test_coordination_threshold_shrinks_with_slack():
    model = binary_model(0.75)
    tight = coordination_threshold(model, 0.05)
    loose = coordination_threshold(model, 0.3)
    assert isinstance(tight, int) and isinstance(loose, int)
    assert tight >= loose >= 1
    with pytest.raises(ValueError):
        coordination_threshold(model, 0.0)
    with pytest.raises(ValueError):
        coordination_threshold(model, BOUNDED_THREEQ)


def test_coordination_threshold_pins_the_group_sizes_at_three_quarters():
    model = binary_model(0.75)
    sizes = [coordination_threshold(model, delta)
             for delta in (0.4, 0.3, 0.2, 0.1, 0.05, 0.01)]
    assert sizes == [6, 14, 36, 171, 740, 19_608]


def test_coordination_threshold_and_the_engine_share_one_delta_rule():
    # Two agents, p = 0.75 and p = 0.6: their smallest pair means are 0.549
    # and 0.0811, so delta = 0.2 clears agent 0's but not agent 1's. Both
    # refuse it, over every agent, with one message, before the threshold
    # refuses the unequal agents themselves.
    pmf = [[(p, 1.0 - p), (1.0 - p, p)] for p in (0.75, 0.6)]
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf), 2)
    message = "delta must lie in (0, 0.081093), the smallest pair mean"
    with pytest.raises(ValueError) as threshold:
        coordination_threshold(model, 0.2)
    assert str(threshold.value) == message
    with pytest.raises(InadmissibleConfig) as config:
        SimConfig(model, Network.complete(2), CoordinationComplete(0.2),
                  horizon=5, replications=10, seed=0)
    assert config.value.violations == [f"strategy.delta: {message}"]
    with pytest.raises(ValueError, match="needs identical agents; agent 1's"):
        coordination_threshold(model, 0.05)


def test_coordination_threshold_refuses_unequal_agents():
    # one agent at p = 0.9 and one at p = 0.6: agent 0's law alone would set
    # the threshold, so the order of the agents would change it
    strong, weak = [[(p, 1.0 - p), (1.0 - p, p)] for p in (0.9, 0.6)]
    for pmf in ((strong, weak), (weak, strong)):
        model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf), 2)
        with pytest.raises(ValueError) as excinfo:
            coordination_threshold(model, 0.05)
        assert str(excinfo.value) == ("coordination_threshold needs identical "
                                      "agents; agent 1's signal law differs "
                                      "from agent 0's")
    means = ((0.0, 1.0), (0.0, 1.5))
    unequal = SignalModel(StateSpace((0, 1)), Gaussian(means, 1.0), 2)
    with pytest.raises(ValueError, match="needs identical agents; agent 1's"):
        coordination_threshold(unequal, 0.05)
    # an explicit per-agent array of equal rows is one law, stated per agent
    for weak_alone in (Finite((0, 1), weak), Finite((0, 1), (weak,) * 3)):
        model = SignalModel(StateSpace((0, 1)), weak_alone, 3)
        assert coordination_threshold(model, 0.05) == coordination_threshold(
            binary_model(0.6), 0.05)


def test_coordination_threshold_equals_its_pair_by_pair_solve():
    from ratebound.ldp_numerics import PairKernel

    states = StateSpace((0, 1, 2))
    models = [
        SignalModel(states, Finite((0, 1, 2, 3), ((0.4, 0.3, 0.2, 0.1),
                                                  (0.1, 0.4, 0.3, 0.2),
                                                  (0.25, 0.25, 0.25, 0.25)))),
        SignalModel(states, Gaussian((0.0, 0.6, 1.2), 1.0)),
    ]
    pairs = [(f, g) for f in range(3) for g in range(3) if f != g]
    for model in models:
        kern = {pair: PairKernel(model, 0, *pair) for pair in pairs}
        least = min(k.mean for k in kern.values())
        for delta in (0.9 * least, 0.5 * least, 0.2 * least):
            numerator = min(kern[f, g].legendre(delta - kern[g, f].mean).value
                            for f, g in pairs)
            denominator = min(kern[pair].legendre(kern[pair].mean - delta).value
                              for pair in pairs)
            expected = math.ceil(2.0 * numerator / denominator)
            assert coordination_threshold(model, delta) == expected


def test_sweep_rows_follow_the_input_grid():
    grid = [0.6, 0.75, 0.9]
    rows = sweep_figure1(grid)
    assert [q for q, _, _ in rows] == grid
    assert rows[1][1] == pytest.approx(AUTARKY_THREEQ, rel=1e-10)
    assert rows[1][2] == pytest.approx(BOUNDED_THREEQ, rel=1e-12)
    rauts = [raut for _, raut, _ in sweep_figure1(np.linspace(0.55, 0.95, 9))]
    assert all(a < b for a, b in zip(rauts, rauts[1:]))


def test_sweep_rows_equal_each_points_own_rates():
    # The sweep solves every point in one call; each row must equal the
    # point's own solves bit for bit, including near 1/2 and 1.
    grid = [0.5000001, *np.linspace(0.51, 0.99, 41), 0.9999999]
    for q, raut, rbdd in sweep_figure1(grid):
        model = binary_model(q)
        assert (raut, rbdd) == (autarky_rate(model), bounded_rate(model)), q


def test_windowed_grid_oracle_equals_the_full_scan():
    # The oracle scans the grid only around each coarse minimum; it must
    # return the full 11,001-point scan's value bit for bit, near 1/2 and 1
    # as well as on the rate-sweep check's own 201 precisions. A symmetric
    # binary cgf is symmetric about z = -1/2, a coarse grid point, so the
    # asymmetric two-atom lanes are the ones whose minimum the window finds.
    z = np.linspace(-1.05, 0.05, 11001)

    def symmetric_scan(q):
        w = math.log(q) - math.log(1.0 - q)
        cgf = np.logaddexp(math.log(q) + z * w, math.log(1.0 - q) - z * w)
        return -float(cgf.min())

    def full_scan(a, b):
        terms = [math.log(f) + z * (math.log(f) - math.log(g))
                 for f, g in ((a, b), (1.0 - a, 1.0 - b))]
        return -float(np.logaddexp(*terms).min())

    qs = np.array([*np.linspace(0.501, 0.999, 997), *np.linspace(0.51, 0.99, 200),
                   0.75, 0.5001, 0.9999])
    pf = np.column_stack([qs, 1.0 - qs])
    got = _conjugate_zero_oracle(pf, pf[:, ::-1]).tolist()
    assert got == [symmetric_scan(q) for q in qs]
    a, b = np.random.default_rng(20).uniform(0.01, 0.99, size=(2, 1000))
    lanes = [np.column_stack([p, 1.0 - p]) for p in (a, b)]
    expected = [full_scan(*pair) for pair in zip(a.tolist(), b.tolist())]
    assert _conjugate_zero_oracle(*lanes).tolist() == expected


def test_sweep_rejects_precisions_outside_the_open_interval():
    with pytest.raises(ValueError):
        sweep_figure1([0.5])
    with pytest.raises(ValueError):
        sweep_figure1([0.75, 1.0])
