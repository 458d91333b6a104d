"""Trajectory simulation, exact enumeration oracles, mistake curves, rate fits."""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ratebound.network import Network, build_schedule, is_strongly_connected
from ratebound.signal_models import (
    BinarySymmetric,
    SignalModel,
    indices_from_uniforms,
)
from ratebound.strategies import (
    AgentState,
    AutarkyML,
    ConstantFirstPeriod,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
    RunContext,
    Strategy,
    finite_llr_table,
    first_action,
    make_increment_fn,
    pair_mean_matrix,
    prior_log_matrix,
)

# Replications are simulated in fixed-size blocks, each with its own
# counter-based stream keyed by (domain, state, block). Totals are integer
# sums over blocks, so results cannot depend on scheduling or worker count.
CHUNK = 4096
_DOMAIN_SIM = 2
_ENUM_LIMIT = 2**20
_MIN_FIT_MISTAKES = 20


def _is_complete(net: Network) -> bool:
    everyone = tuple(range(net.n))
    return all(hood == everyone for hood in net.neighborhoods)


def _min_pair_mean(model: SignalModel) -> float:
    k = model.states.n_states
    best = math.inf
    for agent in range(model.n_agents):
        means = pair_mean_matrix(model, agent)
        off = means[~np.eye(k, dtype=bool)]
        best = min(best, float(off.min()))
    return best


def resolve_delta(model: SignalModel, delta: float | None) -> float:
    """Default delta is a tenth of the smallest pair mean; any explicit value
    must leave the decisiveness thresholds positive."""
    min_mean = _min_pair_mean(model)
    resolved = 0.1 * min_mean if delta is None else float(delta)
    if not 0.0 < resolved < min_mean:
        raise ValueError(
            f"delta must lie in (0, {min_mean:.6g}), the smallest pair mean"
        )
    return resolved


@dataclass(frozen=True)
class SimConfig:
    """Complete, immutable description of one simulation workload."""

    model: SignalModel
    network: Network
    strategy: Strategy
    horizon: int
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.model.n_agents != self.network.n:
            raise ValueError("model and network disagree on the number of agents")
        violations = self.model.validate()
        if violations:
            raise ValueError("inadmissible model: " + "; ".join(violations))
        strat = self.strategy
        if isinstance(strat, (CoordinationComplete, CoordinationConnected)):
            resolve_delta(self.model, strat.delta)
        if isinstance(strat, CoordinationComplete) and not _is_complete(self.network):
            raise ValueError("the complete-network coordination strategy "
                             "requires a complete network")
        if isinstance(strat, CoordinationConnected) and not is_strongly_connected(
            self.network
        ):
            raise ValueError("the connected coordination strategy requires a "
                             "strongly connected network")
        if isinstance(strat, OddEven):
            if not isinstance(self.model.family, BinarySymmetric):
                raise ValueError("the odd/even strategy requires symmetric "
                                 "binary signals")
            if not _is_complete(self.network):
                raise ValueError("the odd/even strategy requires a complete network")
        if isinstance(strat, ConstantFirstPeriod):
            if strat.state >= self.model.states.n_states:
                raise ValueError("constant strategy state index out of range")


@dataclass(frozen=True)
class MistakeCurve:
    """Per-state, per-agent, per-period mistake probabilities.

    probs has shape (n_states, n_agents, horizon). Monte Carlo curves carry
    the raw integer counts and the per-state replication total; exact curves
    have counts None and trials 0.
    """

    probs: np.ndarray
    prior: tuple[float, ...]
    provenance: str
    counts: np.ndarray | None = None
    trials: int = 0

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.probs.shape[1]

    @property
    def horizon(self) -> int:
        return self.probs.shape[2]

    def mixed(self) -> np.ndarray:
        """Prior-weighted mistake probabilities, shape (n_agents, horizon)."""
        return np.tensordot(np.asarray(self.prior), self.probs, axes=1)

    def mixed_stderr(self) -> np.ndarray | None:
        """Standard error of mixed(); None for exact curves."""
        if self.trials == 0:
            return None
        weights = np.asarray(self.prior) ** 2
        variances = self.probs * (1.0 - self.probs)
        return np.sqrt(np.tensordot(weights, variances, axes=1) / self.trials)


# -- deterministic signal streams ------------------------------------------------


def _chunk_generator(seed: int, state: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_SIM, state, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _draw_chunk(
    model: SignalModel, state: int, gen: np.random.Generator, count: int, horizon: int
) -> np.ndarray:
    """Signals for one block: (count, n_agents, horizon) of support indices
    (finite families) or reals (Gaussian).

    Finite families map one uniform per signal through every agent's pmf row
    in a single broadcast call; the int16 indices come out in the uniforms'
    layout."""
    if model.has_finite_support:
        u = gen.random((count, model.n_agents, horizon))
        rows = np.stack([model.pmf_row(a, state) for a in range(model.n_agents)])
        return indices_from_uniforms(rows[:, None, :], u)
    means = np.array(
        [model.gaussian_params(a, state)[0] for a in range(model.n_agents)]
    )
    sigma = model.gaussian_params(0, state)[1]
    return gen.normal(means[None, :, None], sigma, (count, model.n_agents, horizon))


# -- generic trajectory replay ---------------------------------------------------


class _Binding:
    """Per-config constants shared by every trajectory replay."""

    def __init__(self, config: SimConfig):
        model = config.model
        self.prior_matrix = prior_log_matrix(model)
        self.pair_means = [pair_mean_matrix(model, i) for i in range(model.n_agents)]
        self.increments = [make_increment_fn(model, i) for i in range(model.n_agents)]
        self.observers = [
            [i for i in range(config.network.n) if j in config.network.neighborhoods[i]]
            for j in range(config.network.n)
        ]
        strat = config.strategy
        delta = None
        schedule = None
        llr_weight = None
        if isinstance(strat, (CoordinationComplete, CoordinationConnected)):
            delta = resolve_delta(model, strat.delta)
        if isinstance(strat, CoordinationConnected):
            schedule = build_schedule(config.network)
        if isinstance(strat, OddEven):
            llr_weight = float(finite_llr_table(model, 0)[0, 0, 1])
        self.ctx = RunContext(
            n=config.network.n,
            first_action=first_action(model.states.prior),
            delta=delta,
            schedule=schedule,
            llr_weight=llr_weight,
        )


def _replay(config: SimConfig, binding: _Binding, signals: np.ndarray) -> np.ndarray:
    """Run one trajectory from its (n_agents, horizon) signal matrix; returns
    the action matrix. Agents only ever read their own state, whose history
    covers exactly their neighborhood."""
    net = config.network
    strat = config.strategy
    ctx = binding.ctx
    agents = [
        AgentState(
            i,
            binding.prior_matrix,
            binding.pair_means[i],
            binding.increments[i],
            net.neighborhoods[i],
        )
        for i in range(net.n)
    ]
    actions = np.empty((net.n, config.horizon), dtype=np.int16)
    for t in range(1, config.horizon + 1):
        for i in range(net.n):
            agents[i].absorb(signals[i, t - 1])
        acts = [strat.act(agents[i], t, ctx) for i in range(net.n)]
        for j, a in enumerate(acts):
            for i in binding.observers[j]:
                agents[i].record(j, a)
        actions[:, t - 1] = acts
    return actions


# -- vectorized paths for symmetric binary models --------------------------------


def _vector_eligible(config: SimConfig) -> bool:
    return isinstance(config.model.family, BinarySymmetric) and isinstance(
        config.strategy,
        (AutarkyML, CoordinationComplete, OddEven, ConstantFirstPeriod),
    )


def _vector_counts(
    config: SimConfig, signals: np.ndarray, state: int
) -> np.ndarray:
    """Mistake counts (n_agents, horizon) for one block, vectorized over
    replications.

    Each action is held as a bool "plays 1" over (replications, agents), so a
    period's plurality is one row count and its per-agent mistakes one column
    count. Autarky and coordination read a time-major copy of the signals
    and update preallocated buffers in place, with the generic replay's float
    operations in its order: acc_t = acc_{t-1} + stepvals[s_t], then
    L01 = prior_diff + acc_t against the thresholds (m - delta) * t. Both
    paths therefore make bit-identical decisions.
    """
    model = config.model
    strat = config.strategy
    count, n, horizon = signals.shape
    if isinstance(strat, ConstantFirstPeriod):
        return np.full((n, horizon), (strat.state != state) * count, dtype=np.int64)
    stepvals = finite_llr_table(model, 0)[:, 0, 1]
    prior_diff = float(prior_log_matrix(model)[0, 1])
    if isinstance(strat, OddEven):
        return _odd_even_counts(signals, state, prior_diff, float(stepvals[0]))
    coordinate = isinstance(strat, CoordinationComplete)
    if coordinate:
        means = pair_mean_matrix(model, 0)
        delta = resolve_delta(model, strat.delta)
        m01 = float(means[0, 1])
        m10 = float(means[1, 0])
        first_plays1 = first_action(model.states.prior) == 1
    by_time = np.ascontiguousarray(np.moveaxis(signals, 2, 0))
    counts = np.empty((n, horizon), dtype=np.int64)
    acc = np.zeros((count, n))
    step = np.empty((count, n))
    L01 = np.empty((count, n))
    plays1 = np.empty((count, n), dtype=bool)
    decisive1 = np.empty((count, n), dtype=bool)
    for t in range(1, horizon + 1):
        np.take(stepvals, by_time[t - 1], out=step, mode="clip")
        np.add(acc, step, out=acc)
        np.add(prior_diff, acc, out=L01)
        if not coordinate:
            np.less(L01, 0.0, out=plays1)
        elif t == 1:
            plays1.fill(first_plays1)
        else:
            # -L01 >= x and L01 <= -x agree exactly: negation is exact.
            popular1 = 2 * np.count_nonzero(plays1, axis=1) > n
            np.less_equal(L01, -((m10 - delta) * t), out=decisive1)
            np.logical_or(decisive1, popular1[:, None], out=decisive1)
            np.less(L01, (m01 - delta) * t, out=plays1)
            np.logical_and(plays1, decisive1, out=plays1)
        counts[:, t - 1] = np.count_nonzero(plays1, axis=0)
    if state == 1:
        np.subtract(count, counts, out=counts)
    return counts


def _odd_even_counts(
    signals: np.ndarray, state: int, prior_diff: float, weight: float
) -> np.ndarray:
    """OddEven mistake counts, without a loop over periods: odd agents play
    their signal; every even agent plays 1 when prior_diff + balance * weight
    < 0, where balance counts the 0s minus the 1s revealed in earlier
    periods (an exact integer cumsum)."""
    count, n, horizon = signals.shape
    odd = np.arange(n) % 2 == 1
    revealed = signals[:, odd, :]
    counts = np.empty((n, horizon), dtype=np.int64)
    counts[odd] = np.count_nonzero(revealed != state, axis=0)
    ones = revealed.sum(axis=1, dtype=np.int64)
    balance = np.zeros((count, horizon), dtype=np.int64)
    np.cumsum(revealed.shape[1] - 2 * ones[:, :-1], axis=1, out=balance[:, 1:])
    even_plays1 = prior_diff + balance * weight < 0.0
    counts[~odd] = np.count_nonzero(even_plays1 != state, axis=0)
    return counts


# -- mistake curves ---------------------------------------------------------------


def _chunk_bounds(replications: int, chunk: int) -> int:
    return min(CHUNK, replications - chunk * CHUNK)


def _chunk_counts(config: SimConfig, state: int, chunk: int) -> np.ndarray:
    count = _chunk_bounds(config.replications, chunk)
    gen = _chunk_generator(config.seed, state, chunk)
    signals = _draw_chunk(config.model, state, gen, count, config.horizon)
    if _vector_eligible(config):
        return _vector_counts(config, signals, state)
    binding = _Binding(config)
    counts = np.zeros((config.network.n, config.horizon), dtype=np.int64)
    for r in range(count):
        actions = _replay(config, binding, signals[r])
        counts += actions != state
    return counts


def _chunk_task(args: tuple[SimConfig, int, int]) -> np.ndarray:
    return _chunk_counts(*args)


def worker_count() -> int:
    """Worker processes for curve estimation: RATEBOUND_THREADS or cpu count."""
    env = os.environ.get("RATEBOUND_THREADS")
    if env is None or env == "":
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError("RATEBOUND_THREADS must be a positive integer") from None
    if workers < 1:
        raise ValueError("RATEBOUND_THREADS must be a positive integer")
    return workers


def mistake_curve(config: SimConfig) -> MistakeCurve:
    """Monte Carlo mistake curve with `replications` trajectories per state.

    Work is split into fixed blocks with their own deterministic streams, so
    the counts are a pure function of the config regardless of how many
    workers process the blocks.
    """
    k = config.model.states.n_states
    n_chunks = -(-config.replications // CHUNK)
    tasks = [
        (config, state, chunk) for state in range(k) for chunk in range(n_chunks)
    ]
    counts = np.zeros((k, config.network.n, config.horizon), dtype=np.int64)
    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for (_, state, _), result in zip(tasks, pool.map(_chunk_task, tasks)):
                counts[state] += result
    else:
        for _, state, chunk in tasks:
            counts[state] += _chunk_counts(config, state, chunk)
    return MistakeCurve(
        probs=counts / config.replications,
        prior=config.model.states.prior,
        provenance="monte-carlo",
        counts=counts,
        trials=config.replications,
    )


def run_trajectory(
    config: SimConfig, state: int, replication_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """One trajectory's (actions, mistakes) matrices, both (n_agents, horizon).

    Replays the exact signals that mistake_curve's replication of the same
    index consumes.
    """
    if not 0 <= replication_index < config.replications:
        raise ValueError("replication_index out of range")
    if not 0 <= state < config.model.states.n_states:
        raise ValueError("state index out of range")
    chunk, offset = divmod(replication_index, CHUNK)
    gen = _chunk_generator(config.seed, state, chunk)
    count = _chunk_bounds(config.replications, chunk)
    signals = _draw_chunk(config.model, state, gen, count, config.horizon)
    actions = _replay(config, _Binding(config), signals[offset])
    return actions, actions != state


# -- exact oracles ----------------------------------------------------------------


def enumerate_exact(config: SimConfig) -> MistakeCurve:
    """Exact mistake curve by summing over every signal profile.

    Only for finite-support models with at most 2^20 profiles. The replay and
    the signal-index conventions are shared with the Monte Carlo path, so the
    two differ only by sampling noise.
    """
    model = config.model
    if not model.has_finite_support:
        raise ValueError("exact enumeration requires finite signal support")
    n, horizon = config.network.n, config.horizon
    support_size = len(model.support)
    cells = n * horizon
    if support_size**cells > _ENUM_LIMIT:
        raise ValueError(
            f"{support_size}^{cells} profiles exceed the enumeration limit"
        )
    k = model.states.n_states
    pmf = np.stack(
        [[model.pmf_row(agent, w) for agent in range(n)] for w in range(k)]
    )
    binding = _Binding(config)
    probs = np.zeros((k, n, horizon))
    rows = np.arange(n)[:, None]
    for digits in itertools.product(range(support_size), repeat=cells):
        sig = np.asarray(digits, dtype=np.int16).reshape(n, horizon)
        actions = _replay(config, binding, sig)
        for w in range(k):
            weight = float(pmf[w][rows, sig].prod())
            if weight > 0.0:
                probs[w] += weight * (actions != w)
    return MistakeCurve(
        probs=probs,
        prior=model.states.prior,
        provenance="exact-enumeration",
        counts=None,
        trials=0,
    )


def exact_autarky_curve(model: SignalModel, horizon: int) -> MistakeCurve:
    """Closed-form autarky mistake curve for uniform-prior symmetric binary
    models: binomial tails of the signal-count majority, ties to state 0."""
    if not isinstance(model.family, BinarySymmetric):
        raise ValueError("closed-form autarky curve requires binary symmetric "
                         "signals")
    violations = model.validate()
    if violations:
        raise ValueError("inadmissible model: " + "; ".join(violations))
    prior = model.states.prior
    if any(abs(q - 0.5) > 1e-12 for q in prior):
        raise ValueError("closed-form autarky curve requires a uniform prior")
    p = float(model.family.p)
    ts = np.arange(1, horizon + 1)
    # Under state 0 a mistake needs a strict minority of matching signals;
    # under state 1 a tie already loses to the tie-break.
    state0 = stats.binom.cdf(np.ceil(ts / 2) - 1, ts, p)
    state1 = stats.binom.cdf(np.floor(ts / 2), ts, p)
    probs = np.broadcast_to(
        np.stack([state0, state1])[:, None, :], (2, model.n_agents, horizon)
    ).copy()
    return MistakeCurve(
        probs=probs,
        prior=prior,
        provenance="exact-binomial",
        counts=None,
        trials=0,
    )


# -- rate fitting -----------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of -log(mistake probability) against the period."""

    rate: float
    stderr: float
    usable: bool
    n_points: int


def fit_rate(
    curve: MistakeCurve, window: tuple[int, int], agent: int | None = None
) -> FitResult:
    """Fit an exponential decay rate on a period window (1-based, inclusive).

    agent=None pools across agents. Periods qualify when the estimate can
    support a log: Monte Carlo cells need at least 20 recorded mistakes,
    exact cells a positive probability. Fewer than 3 qualifying periods make
    the fit unusable.
    """
    lo, hi = int(window[0]), int(window[1])
    if not 1 <= lo <= hi <= curve.horizon:
        raise ValueError(f"window {window} outside the curve's 1..{curve.horizon}")
    mixed = curve.mixed()
    if agent is None:
        p_hat = mixed.mean(axis=0)
    else:
        if not 0 <= agent < curve.n_agents:
            raise ValueError(f"agent index {agent} out of range")
        p_hat = mixed[agent]
    p_hat = p_hat[lo - 1 : hi]
    if curve.trials > 0:
        pooled = curve.counts.sum(axis=0)
        cell = pooled.sum(axis=0) if agent is None else pooled[agent]
        qualifies = cell[lo - 1 : hi] >= _MIN_FIT_MISTAKES
    else:
        qualifies = p_hat > 0.0
    ts = np.arange(lo, hi + 1, dtype=np.float64)[qualifies]
    if len(ts) < 3:
        return FitResult(math.nan, math.nan, False, len(ts))
    y = -np.log(p_hat[qualifies])
    dx = ts - ts.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean())) / sxx
    resid = (y - y.mean()) - slope * dx
    dof = len(ts) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)
    return FitResult(slope, stderr, True, len(ts))


# -- curve CSV --------------------------------------------------------------------


_CURVE_COLUMNS = "agent,period,state,mistakes,trials"
_PROVENANCES = ("monte-carlo", "exact-enumeration", "exact-binomial")


def write_curve_csv(curve: MistakeCurve, path) -> None:
    """Write `agent,period,state,mistakes,trials` rows, sorted, LF endings.

    The column line is followed by two metadata lines, `# prior=q0,q1,...`
    (each float in repr form, so it reads back exactly) and
    `# provenance=...`. Monte Carlo curves store integer counts; exact curves
    store the probability itself with trials 0.
    """
    prior = ",".join(repr(float(q)) for q in curve.prior)
    lines = [_CURVE_COLUMNS, f"# prior={prior}", f"# provenance={curve.provenance}"]
    for agent in range(curve.n_agents):
        for period in range(1, curve.horizon + 1):
            for state in range(curve.n_states):
                if curve.trials > 0:
                    mistakes = str(int(curve.counts[state, agent, period - 1]))
                else:
                    mistakes = repr(float(curve.probs[state, agent, period - 1]))
                lines.append(
                    f"{agent},{period},{state},{mistakes},{curve.trials}"
                )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path) -> MistakeCurve:
    """Rebuild a curve from write_curve_csv output, prior and provenance
    included.

    Files without the metadata lines still read: their states are mixed
    uniformly, and the provenance is monte-carlo when trials are recorded,
    exact-enumeration otherwise.
    """
    meta = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _CURVE_COLUMNS:
            raise ValueError(f"unrecognized curve header: {header!r}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if not sep or key not in ("prior", "provenance"):
                    raise ValueError(f"unrecognized curve metadata: {line!r}")
                meta[key] = value
                continue
            agent, period, state, mistakes, trials = line.split(",")
            rows.append(
                (int(agent), int(period), int(state), float(mistakes), int(trials))
            )
    if not rows:
        raise ValueError("curve file has no data rows")
    n_agents = max(r[0] for r in rows) + 1
    horizon = max(r[1] for r in rows)
    n_states = max(r[2] for r in rows) + 1
    trials = rows[0][4]
    if any(r[4] != trials for r in rows):
        raise ValueError("curve file mixes different trial counts")
    probs = np.zeros((n_states, n_agents, horizon))
    counts = np.zeros((n_states, n_agents, horizon), dtype=np.int64) if trials else None
    for agent, period, state, mistakes, _ in rows:
        if trials:
            counts[state, agent, period - 1] = int(mistakes)
            probs[state, agent, period - 1] = mistakes / trials
        else:
            probs[state, agent, period - 1] = mistakes
    if "prior" in meta:
        prior = tuple(float(q) for q in meta["prior"].split(","))
        if len(prior) != n_states:
            raise ValueError(
                f"curve prior has {len(prior)} entries for {n_states} states"
            )
    else:
        prior = tuple(1.0 / n_states for _ in range(n_states))
    provenance = meta.get(
        "provenance", "monte-carlo" if trials else "exact-enumeration"
    )
    if provenance not in _PROVENANCES:
        raise ValueError(f"unknown curve provenance {provenance!r}")
    return MistakeCurve(
        probs=probs,
        prior=prior,
        provenance=provenance,
        counts=counts,
        trials=trials,
    )
