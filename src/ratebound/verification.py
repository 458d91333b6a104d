"""End-to-end verification checks: oracles, invariants, dominance, determinism.

Each check is self-contained, seeded, and returns a pass/fail verdict with a
one-line detail. The CLI's `verify` subcommand and the acceptance test suite
both run exactly these checks.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np

from ratebound.ldp_numerics import conjugates, pair_table
from ratebound.network import Network, build_schedule, replay_knowledge, voting_periods
from ratebound.rates import autarky_rate, bounded_rate, sweep_figure1
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    SignalModel,
    StateSpace,
)
from ratebound.sim_engine import (
    SimConfig,
    enumerate_exact,
    exact_autarky_curve,
    fit_rate,
    mistake_curve,
    write_curve_csv,
)
from ratebound.strategies import (
    AutarkyML,
    ConstantFirstPeriod,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
)

_SEED = 20260819


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _binary_model(p: float, n_agents: int = 1) -> SignalModel:
    return SignalModel(StateSpace((0, 1)), BinarySymmetric(p), n_agents)


# -- 1: closed forms and the conjugate grid oracle --------------------------------


def _conjugate_zero_oracle(pf, pg) -> np.ndarray:
    """Grid-search values of the conjugate at 0 for two-atom pairs, one per
    lane: row i of pf and of pg holds lane i's pmf under f and under g.

    Independent of the solver: evaluates the cgf log(pf0 (pf0/pg0)^z +
    pf1 (pf1/pg1)^z) on a fine tilt grid. It vanishes at 0 and -1, so by
    convexity the minimizer lies inside [-1, 0]. Every 100th grid point
    locates each minimum to within one such step; convexity then puts the
    full grid's minimum among the points within a step of it, and only
    those are scanned, each by the full scan's expression.
    """
    z = np.linspace(-1.05, 0.05, 11001)
    # math.log, whose bits do not depend on numpy's vectorized loops
    log = np.vectorize(math.log, otypes=[float])
    log_f, log_g = log(pf), log(pg)
    w = log_f - log_g

    def cgf(zs: np.ndarray) -> np.ndarray:
        return np.logaddexp(log_f[:, :1] + zs * w[:, :1], log_f[:, 1:] + zs * w[:, 1:])

    step = 100
    coarse = cgf(z[::step]).argmin(axis=1) * step
    window = np.clip(coarse[:, None] + np.arange(-step, step + 1), 0, z.size - 1)
    return -cgf(z[window]).min(axis=1)


def _check_rate_sweep() -> tuple[bool, str]:
    grid = np.linspace(0.51, 0.99, 200)
    rows = sweep_figure1(grid) + sweep_figure1([0.75])
    closed_dev = 0.0
    for q, raut, rmaj in rows:
        closed = (2.0 * q - 1.0) * (math.log(q) - math.log(1.0 - q))
        closed_dev = max(closed_dev, abs(rmaj - closed))
    qs, rauts, _ = (np.array(column) for column in zip(*rows))
    pf = np.column_stack([qs, 1.0 - qs])
    oracle_dev = float(np.abs(rauts - _conjugate_zero_oracle(pf, pf[:, ::-1])).max())
    q75, raut75, rmaj75 = rows[-1]
    ok = (
        closed_dev <= 1e-9
        and oracle_dev <= 1e-6
        and abs(raut75 - 0.143841) <= 1e-3
        and abs(rmaj75 - 0.549306) <= 1e-6
    )
    return ok, (
        f"201 precisions: closed-form dev {closed_dev:.2e}, "
        f"grid-oracle dev {oracle_dev:.2e}, "
        f"p=0.75 gives ({raut75:.6f}, {rmaj75:.6f})"
    )


# -- 2: conjugate identities on random finite models ------------------------------


def _random_finite_model(rng: np.random.Generator) -> SignalModel:
    while True:
        k = int(rng.integers(2, 5))
        agents = int(rng.integers(1, 4))
        support_size = int(rng.integers(2, 7))
        pmf = rng.dirichlet(np.ones(support_size), size=(agents, k))
        pmf = (pmf + 0.02) / (1.0 + 0.02 * support_size)
        model = SignalModel(
            StateSpace(tuple(range(k))),
            Finite(tuple(range(support_size)), pmf),
            agents,
        )
        if not model.validate():
            return model


def _check_conjugate_identities() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED)
    deriv_dev = 0.0
    gap_ok = True
    pairs, lanes, etas = [], [], []
    for _ in range(20):
        model = _random_finite_model(rng)
        k = model.states.n_states
        agent = int(rng.integers(model.n_agents))
        f, g = (int(s) for s in rng.choice(k, size=2, replace=False))
        lane, swapped = pair_table(model).lanes([(agent, f, g), (agent, g, f)])
        margin = 1e-3 * (lane.high - lane.low)
        grid = np.linspace(lane.low + margin, lane.high - margin, 50)
        # 105 lanes per model: the lane at the grid, its own mean and 0,
        # and the anchor at -(swapped mean); then the swapped pair at the
        # negated grid, its own mean and 0.
        lanes += [lane] * 53 + [swapped] * 52
        etas += [*grid, lane.mean, 0.0, -swapped.mean, *-grid, swapped.mean, 0.0]
        pairs.append((lane, swapped, grid))
        h = 1e-4
        zs = np.sort(rng.uniform(-2.0, 1.0, 5))
        primes = [lane.cgf_prime(float(z)) for z in zs]
        gap_ok = gap_ok and all(a < b for a, b in zip(primes, primes[1:]))
        for z, prime in zip(zs, primes):
            central = (lane.cgf(z + h) - lane.cgf(z - h)) / (2.0 * h)
            deriv_dev = max(deriv_dev, abs(prime - central))
    values = conjugates(lanes, etas)[0].reshape(len(pairs), 105)
    swap_dev = zero_dev = anchor_dev = 0.0
    for (lane, swapped, grid), row in zip(pairs, values):
        at_mean, at_zero, anchor = row[50:53].tolist()
        swapped_at_mean, swapped_at_zero = row[103:].tolist()
        swap_dev = max(swap_dev, float(np.abs(row[:50] - (row[53:103] - grid)).max()))
        zero_dev = max(zero_dev, abs(at_mean), abs(swapped_at_mean))
        gap_ok = gap_ok and at_zero < lane.mean and swapped_at_zero < swapped.mean
        anchor_dev = max(anchor_dev, abs(anchor - swapped.mean))
    ok = (
        swap_dev <= 1e-8
        and zero_dev <= 1e-10
        and anchor_dev <= 1e-8
        and deriv_dev <= 1e-6
        and gap_ok
    )
    return ok, (
        f"20 models: swap dev {swap_dev:.2e}, zero-at-mean {zero_dev:.2e}, "
        f"anchor dev {anchor_dev:.2e}, derivative dev {deriv_dev:.2e}, "
        f"strict gap {'held' if gap_ok else 'VIOLATED'}"
    )


# -- 3: autarky exactness ----------------------------------------------------------


def _check_autarky_exactness() -> tuple[bool, str]:
    model = _binary_model(0.75)
    net = Network.complete(1)
    enum = enumerate_exact(
        SimConfig(model, net, AutarkyML(), horizon=12, replications=1, seed=0)
    )
    exact12 = exact_autarky_curve(model, 12)
    oracle_dev = float(np.max(np.abs(enum.probs - exact12.probs)))

    exact30 = exact_autarky_curve(model, 30)
    mc = mistake_curve(
        SimConfig(model, net, AutarkyML(), horizon=30, replications=100_000,
                  seed=_SEED)
    )
    se = np.sqrt(
        np.tensordot(
            np.asarray(exact30.prior) ** 2,
            exact30.probs * (1.0 - exact30.probs),
            axes=1,
        )
        / mc.trials
    )
    inside = np.abs(mc.mixed() - exact30.mixed()) <= 3.0 * se
    coverage = float(inside.mean())

    exact120 = exact_autarky_curve(model, 120)
    fit = fit_rate(exact120, (40, 120))
    target = autarky_rate(model)
    fit_err = abs(fit.rate - target) / target
    ok = oracle_dev <= 1e-12 and coverage >= 0.95 and fit.usable and fit_err <= 0.10
    return ok, (
        f"enumeration dev {oracle_dev:.1e}, MC within 3 SE on "
        f"{coverage:.0%} of cells, window fit {fit.rate:.4f} "
        f"({fit_err:.1%} off {target:.4f})"
    )


# -- 4: schedule coverage -----------------------------------------------------------


def _coverage_networks() -> list[Network]:
    rng = np.random.default_rng(_SEED)
    nets = [Network.complete(6), Network.directed_cycle(7), Network.complete(2)]
    for trial in range(100):
        n = 3 + trial % 10
        edge_prob = float(rng.uniform(0.15, 0.6))
        nets.append(Network.random_strongly_connected(n, edge_prob, seed=trial))
    return nets


def _check_schedule_coverage() -> tuple[bool, str]:
    nets = _coverage_networks()
    refusals = []
    for k, net in enumerate(nets):
        schedule = build_schedule(net)
        expected_m = 1 + net.n * (net.n - 2) if net.n >= 3 else 1
        try:
            if schedule.M != expected_m:
                raise RuntimeError(f"block length {schedule.M}, not {expected_m}")
            replay_knowledge(net, schedule)
        except RuntimeError as exc:
            refusals.append(f"network {k}: {exc}")
    return not refusals, f"{len(nets)} networks (n up to 12): " + (
        f"{len(refusals)} failed certification; first, {refusals[0]}"
        if refusals else "all certified full vote knowledge")


# -- 5: coordination dominance ------------------------------------------------------


def _check_coordination_dominance() -> tuple[bool, str]:
    model = _binary_model(0.75, n_agents=50)
    config = SimConfig(
        model,
        Network.complete(50),
        CoordinationComplete(delta=0.05),
        horizon=30,
        replications=1_000_000,
        seed=_SEED,
    )
    curve = mistake_curve(config)
    group = curve.mixed().mean(axis=0)
    autarky = exact_autarky_curve(model, 30).mixed()[0]
    below = [bool(group[t - 1] < autarky[t - 1]) for t in range(15, 31)]
    ok = all(below)
    return ok, (
        f"group vs autarky at t=15: {group[14]:.2e} < {autarky[14]:.2e}, "
        f"t=30: {group[29]:.2e} < {autarky[29]:.2e}; "
        f"{sum(below)}/16 periods strictly below"
    )


# -- 6: small-system brute force ----------------------------------------------------


def _check_small_system_exact() -> tuple[bool, str]:
    model = _binary_model(0.75, n_agents=2)
    config = SimConfig(
        model,
        Network.complete(2),
        CoordinationComplete(delta=0.05),
        horizon=3,
        replications=100_000,
        seed=_SEED,
    )
    exact = enumerate_exact(config)
    mc = mistake_curve(config)
    se = np.sqrt(exact.probs * (1.0 - exact.probs) / mc.trials)
    dev = np.abs(mc.probs - exact.probs)
    inside = dev <= 3.0 * se
    ok = bool(inside.all())
    return ok, (
        f"{int(inside.sum())}/{inside.size} cells within 3 SE of the "
        f"enumeration; largest deviation {float(dev.max()):.1e}"
    )


# -- 7: slowest-agent rate cap ------------------------------------------------------


def _votes_in(window: tuple[int, int], block: int) -> int:
    """Voting periods of a connected coordination profile inside a fit
    window, period 1 (the prior's choice) excepted."""
    lo, hi = window
    return sum(1 for t in voting_periods(hi, block) if t >= max(lo, 2))


def _check_slowest_agent_cap() -> tuple[bool, str]:
    model = _binary_model(0.75, n_agents=10)
    net = Network.complete(10)
    cap = bounded_rate(model) + 0.10
    # (name, model, network, strategy, replications, horizon, fit window,
    # least voting periods in the window)
    profiles = [
        ("autarky-ml", model, net, AutarkyML(), 100_000, 25, (5, 22), 0),
        ("coordination", model, net, CoordinationComplete(delta=0.05), 300_000,
         20, (4, 15), 0),
        ("odd-even", model, net, OddEven(), 100_000, 25, (3, 20), 0),
        ("constant", model, net, ConstantFirstPeriod(0), 100_000, 25, (5, 22), 0),
        ("coordination-connected", model, net, CoordinationConnected(delta=0.05),
         500, 40, (5, 35), 0),
        # On complete(10) the block length M = 81 exceeds the horizon, so the
        # profile above never votes twice. A directed 4-cycle (M = 9) with
        # the same signals votes at t = 10, 19, 28 and 37 inside its window.
        ("coordination-cycle", _binary_model(0.75, n_agents=4),
         Network.directed_cycle(4), CoordinationConnected(delta=0.05), 50_000,
         40, (10, 40), 3),
    ]
    summaries = []
    ok = True
    for (name, case_model, network, strategy, replications, horizon, window,
         least_votes) in profiles:
        config = SimConfig(case_model, network, strategy, horizon, replications,
                           _SEED)
        curve = mistake_curve(config)
        fits = [fit_rate(curve, window, agent=i) for i in range(network.n)]
        usable = [f.rate for f in fits if f.usable]
        votes = ""
        if isinstance(strategy, CoordinationConnected):
            count = _votes_in(window, build_schedule(network).M)
            ok = ok and count >= least_votes
            votes = f" ({count} votes in window)"
        if not usable:
            ok = False
            summaries.append(f"{name}: no usable fit{votes}")
            continue
        slowest = min(usable)
        ok = ok and slowest <= cap
        summaries.append(f"{name} {slowest:.3f}{votes}")
        if name == "odd-even":
            odd_flat = all(
                fits[i].usable and abs(fits[i].rate) <= 0.01
                for i in range(1, 10, 2)
            )
            ok = ok and odd_flat
            summaries[-1] += f", odd agents {'flat' if odd_flat else 'NOT flat'}"
    return ok, f"min fitted rate vs cap {cap:.3f}: " + "; ".join(summaries)


# -- 8: determinism across worker counts --------------------------------------------


def _with_workers(value: str, fn):
    old = os.environ.get("RATEBOUND_THREADS")
    os.environ["RATEBOUND_THREADS"] = value
    try:
        return fn()
    finally:
        if old is None:
            del os.environ["RATEBOUND_THREADS"]
        else:
            os.environ["RATEBOUND_THREADS"] = old


def _check_determinism() -> tuple[bool, str]:
    count_config = SimConfig(
        _binary_model(0.75, n_agents=5),
        Network.complete(5),
        CoordinationComplete(delta=0.05),
        horizon=10,
        replications=20_000,
        seed=77,
    )
    relay_config = SimConfig(
        _binary_model(0.8, n_agents=3),
        Network.directed_cycle(3),
        CoordinationConnected(delta=0.05),
        horizon=9,
        replications=2_000,
        seed=11,
    )
    problems = []
    for label, config in (("count fill", count_config),
                          ("connected relay", relay_config)):
        serial = _with_workers("1", lambda: mistake_curve(config))
        pooled = _with_workers("3", lambda: mistake_curve(config))
        if not np.array_equal(serial.counts, pooled.counts):
            problems.append(f"{label} counts differ across worker counts")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            path_a = os.path.join(tmp, "a.csv")
            path_b = os.path.join(tmp, "b.csv")
            write_curve_csv(serial, path_a)
            write_curve_csv(pooled, path_b)
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{label} curve CSV bytes differ")
    if sweep_figure1([0.6, 0.75, 0.9]) != sweep_figure1([0.6, 0.75, 0.9]):
        problems.append("sweep rows not reproducible")
    net = Network.random_strongly_connected(6, 0.4, seed=5)
    first, second = build_schedule(net), build_schedule(net)
    if not all(np.array_equal(getattr(first, field.name), getattr(second, field.name))
               for field in fields(first)):
        problems.append("schedule not reproducible")
    return not problems, (
        "curves, CSV bytes, sweeps, schedules identical across 1 and 3 workers"
        if not problems
        else "; ".join(problems)
    )


# -- runner -------------------------------------------------------------------------

_CHECKS: list[tuple[str, object, float | None]] = [
    ("rate-sweep", _check_rate_sweep, 5.0),
    ("conjugate-identities", _check_conjugate_identities, 10.0),
    ("autarky-exactness", _check_autarky_exactness, 60.0),
    ("schedule-coverage", _check_schedule_coverage, 5.0),
    ("coordination-dominance", _check_coordination_dominance, 600.0),
    ("small-system-exact", _check_small_system_exact, 30.0),
    ("slowest-agent-cap", _check_slowest_agent_cap, 300.0),
    ("determinism", _check_determinism, None),
]

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def run_checks(names=None) -> list[CheckResult]:
    """Run the named checks (all by default) and report results in order.

    A check fails if its verdict is negative, it raises, or it misses its
    runtime budget.
    """
    wanted = set(CHECK_NAMES if names is None else names)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, fn, budget in _CHECKS:
        if name not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            passed = False
            detail += f" [exceeded {budget:.0f}s budget]"
        results.append(CheckResult(name, passed, detail, elapsed))
    return results
