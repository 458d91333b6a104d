"""Trajectory simulation, exact enumeration oracles, mistake curves, rate fits."""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ratebound.ldp_numerics import llr_table
from ratebound.network import Network
from ratebound.signal_models import (
    BinarySymmetric, SignalModel, checked_index, checked_prior, indices_from_words,
    is_count, per_agent, word_edges,
)
from ratebound.strategies import (
    Strategy, compile_rule, prior_log_matrix, state_pairs, strategy_violations,
)

# Replications are simulated in fixed-size blocks, each with its own
# counter-based stream keyed by (domain, state, block). Totals are integer
# sums over blocks, so results cannot depend on scheduling or worker count.
CHUNK = 4096
_DOMAIN_SIM = 2
# The engine's work unit holds about this many signals, counting each
# replication as at least _TILE_PERIODS periods, so that its words and
# signals stay in cache and, on short horizons, its per-period (agents, reps)
# rows stay within _TILE_CELLS / _TILE_PERIODS = 2^15 cells. A block larger
# than that is drawn and played in tiles, in order from the block's one
# stream; Philox draws are consumed element by element, so the tiles see
# exactly the signals of one whole-block draw. Smaller blocks are packed, a
# run of whole blocks of one state to a unit (see _chunk_counts).
_TILE_CELLS = 2**19
_TILE_PERIODS = 16
# With RATEBOUND_THREADS unset, a curve of fewer cells (states x replications
# x agents x horizon) than this runs in the calling process. Measured on 2
# shared vCPUs, starting and stopping a 2-worker fork pool takes only 8-10 ms,
# yet verify-light's 6.0M-cell autarky curve, on the count fill, took 43.4 ms
# on the pool against 34.5 ms in process (medians of six sets of 24
# alternated runs; the pool won 52 of the 144), while the 98.3M-cell herd
# took 0.31 s pooled against 0.58-0.60 s serially.
_POOL_CELLS = 2**23
_ENUM_LIMIT = 2**20
# An exact probability is a sum of products of pmf entries, whose rows may
# sum to 1 + 1e-9, so a mistake probability of 1 can read a little above it.
_PROB_SLACK = 1e-6
_MIN_FIT_MISTAKES = 20


def config_violations(
    model: SignalModel | None,
    network: Network | None,
    strategy: Strategy | None,
    horizon,
    replications,
    seed,
) -> list[str]:
    """Every reason a workload cannot run, each prefixed with the field or
    fields it concerns (`horizon:`, `model/network:`, `strategy.delta:`, ...).

    A model, network or strategy of None could not be read; the checks that
    need it are skipped. Delta is checked only against an admissible model.
    """
    violations = []
    if not is_count(horizon, 1):
        violations.append("horizon: must be a positive integer")
    if not is_count(replications, 1):
        violations.append("replications: must be a positive integer")
    if not is_count(seed, 0):
        violations.append("seed: must be a nonnegative integer")
    problems = [] if model is None else model.validate()
    violations.extend(f"model: {v}" for v in problems)
    # an unknown strategy object is named before the model/network sizes,
    # a strategy's own violations after them
    own = []
    try:
        own = strategy_violations(strategy, model, network, not problems)
    except TypeError as exc:
        violations.append(f"strategy: {exc}")
    if model is not None and network is not None and model.n_agents != network.n:
        violations.append(
            f"model/network: model has {model.n_agents} agents but the "
            f"network has {network.n}"
        )
    return violations + own


class InadmissibleConfig(ValueError):
    """SimConfig's refusal, carrying every violation config_violations
    found, each with its field prefix."""

    def __init__(self, violations: list[str]):
        super().__init__("inadmissible simulation config: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class SimConfig:
    """Complete, immutable description of one simulation workload; a
    workload that cannot run raises InadmissibleConfig."""

    model: SignalModel
    network: Network
    strategy: Strategy
    horizon: int
    replications: int
    seed: int

    def __post_init__(self) -> None:
        violations = config_violations(
            self.model, self.network, self.strategy, self.horizon,
            self.replications, self.seed,
        )
        if violations:
            raise InadmissibleConfig(violations)
        for name in ("horizon", "replications", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    @cached_property
    def _binding(self) -> _Binding:
        """The engine's per-config constants, compiled on first use and kept
        with the config, which is frozen."""
        return _Binding(self)


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


# -- deterministic signal streams ------------------------------------------------


def _chunk_generator(seed: int, state: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_SIM, state, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _draw_chunk(
    binding: _Binding, state: int, gen: np.random.Generator, count: int, horizon: int
) -> np.ndarray:
    """The next count replications of a block's stream: (count, n_agents,
    horizon) support indices (finite families) or reals (Gaussian)."""
    return binding.draw(state, gen, (count, binding.n, horizon))


def _draw_indices(edges: list, state: int, gen: np.random.Generator,
                  shape: tuple) -> np.ndarray:
    """Finite families: one raw Philox word per signal, thresholded against
    every agent's word edges of the state in a single broadcast call; the
    indices (int8 up to 128 atoms) come out in the words' layout."""
    return indices_from_words(edges[state], gen.bit_generator.random_raw(shape))


def _draw_normal(means: np.ndarray, sigma: float, state: int,
                 gen: np.random.Generator, shape: tuple) -> np.ndarray:
    return gen.normal(means[state], sigma, shape)


# -- the batched engine ------------------------------------------------------------


class _Binding:
    """Per-config constants of the engine, compiled once per run.

    Signals: draw(state, gen, shape), compiled here once for the signal
    family: support indices from the state's word edges, or Gaussian reals
    from its means and the shared sigma.
    Evidence: the log-prior term per state pair, and absorb(signals, acc,
    step), which adds a period's llr increments from per-pair llr tables
    flattened over (agent, atom) (table), or the Gaussian diff, avg and var.
    Per-agent arrays hold the agent axis second to last, (..., agents, 1),
    so they broadcast against (agents, reps) cells.
    Decisions: the strategy's rule, compiled once by strategies.compile_rule
    from the prior terms and the per-agent llr tables: either decide(t, L,
    history), played after each period's evidence, or fill(signals,
    history), which writes every period at once; the other is None.
    """

    def __init__(self, config: SimConfig):
        model = config.model
        n = model.n_agents
        k = model.states.n_states
        pairs = state_pairs(k)
        self.n = n
        self.action_dtype = np.int8 if k <= 127 else np.int16
        prior = prior_log_matrix(model)
        self.prior = np.array([prior[f, g] for f, g in pairs])
        # partials of module functions, unlike closures, pickle for a pool
        # whose workers are spawned; so do the strategy's compiled rules
        if model.has_finite_support:
            edges = [word_edges(per_agent(rows)[:, None, :])
                     for rows in model.pmf.transpose(1, 0, 2)]
            llrs = llr_table(model)
            tables = per_agent(np.stack([llrs[:, :, f, g] for f, g in pairs], 1))
            # table[p] is indexed by agent * n_atoms + atom
            self.table = np.ascontiguousarray(tables.transpose(1, 0, 2)).reshape(
                len(pairs), -1
            )
            offsets = np.arange(n)[:, None] * tables.shape[2] if len(tables) > 1 else None
            self.draw = partial(_draw_indices, edges)
            self.absorb = partial(_absorb_indices, self.table, offsets)
        else:
            tables = self.table = None
            means = per_agent(model.means)
            sigma = model.family.sigma
            diff = np.stack([means[:, f] - means[:, g] for f, g in pairs])
            avg = np.stack([(means[:, f] + means[:, g]) / 2.0 for f, g in pairs])
            self.draw = partial(_draw_normal, means.T[:, None, :, None], sigma)
            self.absorb = partial(_absorb_normal, diff[..., None], avg[..., None],
                                  sigma * sigma)
        self.decide, self.fill = compile_rule(config.strategy, model, config.network,
                                              config.horizon, self.prior, tables)


def _absorb_indices(table: np.ndarray, offsets: np.ndarray | None,
                    signals: np.ndarray, acc: np.ndarray, step: np.ndarray) -> None:
    """acc[p] += the period's llr increment of pair p for (agents, reps)
    support indices, looked up in the table past each agent's atom offset."""
    if offsets is not None:
        signals = signals + offsets
    for p in range(acc.shape[0]):
        table[p].take(signals, out=step, mode="clip")
        np.add(acc[p], step, out=acc[p])


def _absorb_normal(diff: np.ndarray, avg: np.ndarray, var: float,
                   signals: np.ndarray, acc: np.ndarray, step: np.ndarray) -> None:
    """acc[p] += diff * (x - avg) / var, the llr increment of pair p for
    (agents, reps) Gaussian signals x."""
    for p in range(acc.shape[0]):
        np.subtract(signals, avg[p], out=step)
        np.multiply(diff[p], step, out=step)
        np.divide(step, var, out=step)
        np.add(acc[p], step, out=acc[p])


def _replay(config: SimConfig, binding: _Binding, signals: np.ndarray) -> np.ndarray:
    """The engine: play the strategy on a batch of trajectories at once.

    signals has shape (reps, agents, horizon); the actions come back in the
    same shape, as a view of the (horizon, agents, reps) history, whose
    period rows hold each agent's replications contiguously. Unless the
    binding fills the history, each period absorbs its (agents, reps) view
    of the signals into the pair evidence, L = prior + acc (acc itself when
    every prior term is 0), then decides; a strategy reads its own evidence
    and the actions of the agents it observes. The float operations are
    those of the scalar replay, in its order, so the decisions are
    bit-identical to it.
    """
    reps, n, horizon = signals.shape
    history = np.empty((horizon, n, reps), dtype=binding.action_dtype)
    actions = history.transpose(2, 1, 0)
    if binding.fill is not None:
        binding.fill(signals, history)
        return actions
    acc = np.zeros((len(binding.prior), n, reps))
    step = np.empty((n, reps))
    prior = binding.prior[:, None, None] if binding.prior.any() else None
    L = acc if prior is None else np.empty_like(acc)
    for t in range(1, horizon + 1):
        binding.absorb(signals[:, :, t - 1].T, acc, step)
        if prior is not None:
            np.add(prior, acc, out=L)
        binding.decide(t, L, history)
    return actions


def _vector_counts(
    config: SimConfig, signals: np.ndarray, state: int, binding: _Binding
) -> np.ndarray:
    """Mistake counts (n_agents, horizon) of one block: the engine's actions
    that differ from the true state, summed over replications. The mask keeps
    the history's layout, so the sum runs along contiguous replication rows;
    a tile's counts fit int32."""
    actions = _replay(config, binding, signals)
    mistakes = np.not_equal(actions, state)
    return mistakes.sum(axis=0, dtype=np.int32).astype(np.int64)


# -- mistake curves ---------------------------------------------------------------


def _chunk_bounds(replications: int, chunk: int) -> int:
    return min(CHUNK, replications - chunk * CHUNK)


def _tile_reps(binding: _Binding, horizon: int) -> int:
    """Replications in one tile, the most a work unit plays at once."""
    return max(1, _TILE_CELLS // (binding.n * max(horizon, _TILE_PERIODS)))


def _chunk_counts(
    config: SimConfig, state: int, chunk: int, binding: _Binding, blocks: int = 1
) -> np.ndarray:
    """Mistake counts of one work unit: `blocks` consecutive blocks of one
    state from block `chunk` on. A lone block is drawn and played tile by
    tile. A unit of several blocks, which together fit one tile, draws each
    block from its own stream and plays their signals joined along the
    replication axis in one call; counts are integer sums over replications,
    so the grouping cannot change them."""
    if blocks > 1:
        signals = np.concatenate([
            _draw_chunk(
                binding, state, _chunk_generator(config.seed, state, block),
                _chunk_bounds(config.replications, block), config.horizon,
            )
            for block in range(chunk, chunk + blocks)
        ])
        return _vector_counts(config, signals, state, binding)
    count = _chunk_bounds(config.replications, chunk)
    gen = _chunk_generator(config.seed, state, chunk)
    tile = _tile_reps(binding, config.horizon)
    counts = np.zeros((binding.n, config.horizon), dtype=np.int64)
    for start in range(0, count, tile):
        signals = _draw_chunk(
            binding, state, gen, min(tile, count - start), config.horizon
        )
        counts += _vector_counts(config, signals, state, binding)
    return counts


def _threads_setting() -> int | None:
    """RATEBOUND_THREADS as a worker count; None when unset or empty."""
    env = os.environ.get("RATEBOUND_THREADS")
    if not env:
        return None
    try:
        workers = int(env)
    except ValueError:
        raise ValueError("RATEBOUND_THREADS must be a positive integer") from None
    if workers < 1:
        raise ValueError("RATEBOUND_THREADS must be a positive integer")
    return workers


def worker_count() -> int:
    """Worker processes for a pooled curve: RATEBOUND_THREADS or cpu count."""
    return _threads_setting() or os.cpu_count() or 1


# Inside a pool worker: the run's (config, binding), sent once per worker by
# the pool initializer, so that each task carries only its unit.
_worker_run: tuple[SimConfig, _Binding] | None = None


def _start_worker(config: SimConfig, binding: _Binding) -> None:
    global _worker_run
    _worker_run = (config, binding)


def _worker_counts(state: int, chunk: int, blocks: int) -> np.ndarray:
    config, binding = _worker_run
    return _chunk_counts(config, state, chunk, binding, blocks)


def mistake_curve(config: SimConfig) -> MistakeCurve:
    """Monte Carlo mistake curve with `replications` trajectories per state.

    Work is split into fixed blocks with their own deterministic streams, so
    the counts are a pure function of the config regardless of how many
    workers process the blocks. Blocks smaller than a tile are packed into
    units of consecutive blocks of one state. With RATEBOUND_THREADS unset,
    a curve of fewer than _POOL_CELLS cells runs in the calling process and
    a larger one on a pool of cpu-count workers; an explicit setting is the
    worker count whatever the curve's size.
    """
    k = config.model.states.n_states
    n_chunks = -(-config.replications // CHUNK)
    binding = config._binding
    per_unit = max(1, _tile_reps(binding, config.horizon) // CHUNK)
    units = [
        (state, chunk, min(per_unit, n_chunks - chunk))
        for state in range(k)
        for chunk in range(0, n_chunks, per_unit)
    ]
    counts = np.zeros((k, config.network.n, config.horizon), dtype=np.int64)
    cells = k * config.replications * binding.n * config.horizon
    workers = _threads_setting() or (1 if cells < _POOL_CELLS else worker_count())
    if workers > 1 and len(units) > 1:
        # numpy loads numpy.random on first use; loading it here, before the
        # pool forks, spares every new worker that import on its first unit.
        # The pool itself is loaded only by a curve that uses one.
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(
            max_workers=min(workers, len(units)),
            initializer=_start_worker,
            initargs=(config, binding),
        ) as pool:
            for (state, _, _), result in zip(
                units, pool.map(_worker_counts, *zip(*units))
            ):
                counts[state] += result
    else:
        for state, chunk, blocks in units:
            counts[state] += _chunk_counts(config, state, chunk, binding, blocks)
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
    index consumes: its block's stream is drawn only up to that replication.
    """
    for name, index, size in (
        ("replication_index", replication_index, config.replications),
        ("state", state, config.model.states.n_states),
    ):
        checked_index(index, size, name)
    chunk, offset = divmod(replication_index, CHUNK)
    gen = _chunk_generator(config.seed, state, chunk)
    binding = config._binding
    signals = _draw_chunk(binding, state, gen, offset + 1, config.horizon)
    actions = _replay(config, binding, signals[offset:])[0]
    return actions, actions != state


# -- exact oracles ----------------------------------------------------------------


def enumerate_exact(config: SimConfig) -> MistakeCurve:
    """Exact mistake curve by summing over every signal profile.

    Only for finite-support models with at most 2^20 profiles. Profiles run
    through the engine in blocks of CHUNK, in lexicographic order (the last
    agent-period digit fastest). Each profile's probability is a product
    over its cells in (agent, period) order, and the weighted mistakes are
    summed within a block, then block by block, in a fixed order.
    """
    model = config.model
    if not model.has_finite_support:
        raise ValueError("exact enumeration requires finite signal support")
    n, horizon = config.network.n, config.horizon
    support_size = len(model.support)
    cells = n * horizon
    total = support_size**cells
    if total > _ENUM_LIMIT:
        raise ValueError(
            f"{support_size}^{cells} profiles exceed the enumeration limit"
        )
    k = model.states.n_states
    pmf = model.pmf.transpose(1, 0, 2)
    binding = config._binding
    probs = np.zeros((k, n, horizon))
    place = support_size ** np.arange(cells - 1, -1, -1)
    cell_agent = np.repeat(np.arange(n), horizon)
    for start in range(0, total, CHUNK):
        profile = np.arange(start, min(start + CHUNK, total))
        digits = (profile[:, None] // place) % support_size
        # Profile-major, so each cell's weighted mistakes add up profile by
        # profile in order; over the history's layout the profile axis would
        # be innermost and numpy would sum it pairwise.
        actions = np.ascontiguousarray(
            _replay(config, binding, digits.reshape(-1, n, horizon))
        )
        for w in range(k):
            weight = pmf[w, cell_agent[0], digits[:, 0]]
            for c in range(1, cells):
                weight = weight * pmf[w, cell_agent[c], digits[:, c]]
            probs[w] += (weight[:, None, None] * (actions != w)).sum(axis=0)
    return MistakeCurve(
        probs=probs,
        prior=model.states.prior,
        provenance="exact-enumeration",
    )


def _binomial_rows(p: float, horizon: int):
    """Yield (t, row, scale) for t = 1..horizon, where row[j] / scale is
    P[Binomial(t, p) = j] exactly: p is a binary fraction num / den, so
    every row entry is an integer (Pascal's rule on num and den - num)."""
    num, den = float(p).as_integer_ratio()
    row = [1]
    for t in range(1, horizon + 1):
        row = [a * (den - num) + b * num for a, b in zip(row + [0], [0] + row)]
        yield t, row, den**t


def exact_autarky_curve(model: SignalModel, horizon: int) -> MistakeCurve:
    """Closed-form autarky mistake curve for uniform-prior symmetric binary
    models: binomial tails of the signal-count majority, ties to state 0."""
    if not is_count(horizon, 1):
        raise ValueError("horizon must be a positive integer")
    if not isinstance(model.family, BinarySymmetric):
        raise ValueError("closed-form autarky curve requires binary symmetric "
                         "signals")
    violations = model.validate()
    if violations:
        raise ValueError("inadmissible model: " + "; ".join(violations))
    prior = model.states.prior
    if any(abs(q - 0.5) > 1e-12 for q in prior):
        raise ValueError("closed-form autarky curve requires a uniform prior")
    # Under state 0 a mistake needs a strict minority of matching signals;
    # under state 1 a tie already loses to the tie-break. The integer tail
    # sums are exact and rounded once, by the int / int division.
    state0, state1 = [], []
    for t, row, scale in _binomial_rows(model.family.p, horizon):
        state0.append(sum(row[: (t + 1) // 2]) / scale)
        state1.append(sum(row[: t // 2 + 1]) / scale)
    probs = np.broadcast_to(
        np.array([state0, state1])[:, None, :], (2, model.n_agents, horizon)
    ).copy()
    return MistakeCurve(
        probs=probs,
        prior=prior,
        provenance="exact-binomial",
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

    The window is exactly two ends, integer periods, not bools. agent=None
    pools across agents; otherwise agent is an integer index below the
    curve's n_agents. Periods qualify when the estimate can support a log:
    Monte Carlo cells need at least 20 recorded mistakes, exact cells a
    positive probability. Fewer than 3 qualifying periods make the fit unusable.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise ValueError(f"window must be two periods (first, last), "
                         f"not {window!r}") from None
    if not (is_count(lo, -math.inf) and is_count(hi, -math.inf)):
        raise ValueError(f"window ends must be integer periods, not {window!r}")
    if lo > hi:
        raise ValueError(f"window {window} is reversed: its first period "
                         f"{lo} comes after its last {hi}")
    if not 1 <= lo <= hi <= curve.horizon:
        raise ValueError(f"window {window} outside the curve's 1..{curve.horizon}")
    mixed = curve.mixed()
    if agent is None:
        p_hat = mixed.mean(axis=0)
    else:
        p_hat = mixed[checked_index(agent, curve.n_agents, "agent")]
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


def _curve_field(kind, text: str, what: str, line: int):
    """kind(text), int or float; else ValueError naming the curve file's
    line."""
    try:
        return kind(text)
    except ValueError:
        adjective = "non-integer" if kind is int else "non-numeric"
        raise ValueError(
            f"curve file line {line}: {adjective} {what} {text!r}") from None


def _curve_row(text: str, line: int) -> tuple:
    """One data row as (agent, period, state, mistakes, trials): the mistake
    count an integer in [0, trials], or, when trials is 0, a probability in
    [0, 1 + _PROB_SLACK]; else ValueError naming the file's line."""
    fields = text.split(",")
    if len(fields) != 5:
        raise ValueError(f"curve file line {line}: expected the 5 fields "
                         f"{_CURVE_COLUMNS}, found {len(fields)}")
    names = _CURVE_COLUMNS.split(",")
    agent, period, state, trials = (
        _curve_field(int, fields[i], names[i], line) for i in (0, 1, 2, 4)
    )
    if not 0 <= trials < 2**63:  # counts are held as int64
        raise ValueError(f"curve file line {line}: trials outside [0, 2^63)")
    if min(agent, state) < 0 or period < 1:
        raise ValueError(f"curve file line {line}: an agent or state below 0 "
                         "or a period below 1")
    if trials:
        mistakes = _curve_field(int, fields[3], "mistake count", line)
        if not 0 <= mistakes <= trials:
            raise ValueError(f"curve file line {line}: mistake count outside "
                             f"[0, {trials}]")
    else:
        mistakes = _curve_field(float, fields[3], "mistake probability", line)
        if not 0.0 <= mistakes <= 1.0 + _PROB_SLACK:
            raise ValueError(f"curve file line {line}: mistake probability "
                             "outside [0, 1]")
    return agent, period, state, mistakes, trials


def read_curve_csv(path) -> MistakeCurve:
    """Rebuild a curve from write_curve_csv output, prior and provenance
    included.

    Files without the metadata lines still read: their states are mixed
    uniformly, and the provenance is monte-carlo when trials are recorded,
    exact-enumeration otherwise. A file must list every (agent, period,
    state) cell exactly once, with integer counts in [0, trials], or with
    probabilities in [0, 1] when trials is 0, and its prior must pass
    checked_prior. A malformed row or prior, or a second prior or
    provenance line, raises ValueError naming its line.
    """
    meta = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _CURVE_COLUMNS:
            raise ValueError(f"unrecognized curve header: {header!r}")
        rows = []
        for line, text in enumerate(fh, start=2):
            text = text.strip()
            if not text:
                continue
            if text.startswith("#"):
                key, sep, value = text[1:].strip().partition("=")
                if not sep or key not in ("prior", "provenance"):
                    raise ValueError(f"unrecognized curve metadata: {text!r}")
                if key in meta:
                    raise ValueError(f"curve file line {line}: a second # {key}= "
                                     f"line (the first is line {meta[key][0]})")
                meta[key] = (line, value)
                continue
            rows.append(_curve_row(text, line))
    if not rows:
        raise ValueError("curve file has no data rows")
    agents, periods, states, values, all_trials = zip(*rows)
    trials = all_trials[0]
    if any(t != trials for t in all_trials):
        raise ValueError("curve file mixes different trial counts")
    n_states = max(states) + 1
    shape = (n_states, max(agents) + 1, max(periods))
    cells = np.ravel_multi_index((states, agents, np.array(periods) - 1), shape)
    if np.unique(cells).size != cells.size or cells.size != math.prod(shape):
        raise ValueError("curve file must list every (agent, period, state) once")
    counts = None
    if trials:
        counts = np.zeros(shape, dtype=np.int64)
        counts.flat[cells] = values
        probs = counts / trials
    else:
        probs = np.zeros(shape)
        probs.flat[cells] = values
    if "prior" in meta:
        line, value = meta["prior"]
        entries = [_curve_field(float, q, "prior entry", line)
                   for q in value.split(",")]
        try:
            prior = checked_prior(entries, n_states)
        except ValueError as exc:
            raise ValueError(f"curve file line {line}: {exc}") from None
    else:
        prior = tuple(1.0 / n_states for _ in range(n_states))
    if "provenance" in meta:
        line, provenance = meta["provenance"]
        if provenance not in _PROVENANCES:
            raise ValueError(f"curve file line {line}: unknown curve provenance "
                             f"{provenance!r}")
    else:
        provenance = "monte-carlo" if trials else "exact-enumeration"
    return MistakeCurve(
        probs=probs,
        prior=prior,
        provenance=provenance,
        counts=counts,
        trials=trials,
    )
