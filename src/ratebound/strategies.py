"""Strategies: each profile's description, its admissibility checks, its
compiled rule and the array kernels that play it.

A strategy is a frozen description. strategy_violations lists why it cannot
run on a model and network; compile_rule turns it into the rule that
sim_engine's batched engine calls, once per period over (agents,
replications) arrays, or once for every period. The engine knows no
strategy: a new one is a class here, with its checks and its rule.

Evidence is held per unordered state pair: L[p] is L[f, g] for the p-th pair
of state_pairs(k), and L[g, f] = -L[f, g] holds exactly in floating point, so
one float per pair carries both directions. Actions are state indices.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Iterable

import numpy as np

from ratebound.ldp_numerics import checked_delta, pair_table
from ratebound.network import (
    Network, PropagationSchedule, build_schedule, is_complete, is_strongly_connected,
    schedule_too_large,
)
from ratebound.signal_models import (
    BinarySymmetric, SignalModel, is_count, is_real, per_agent,
)


# -- evidence and decision kernels -----------------------------------------------


def first_action(prior: Iterable[float]) -> int:
    """Prior-optimal action before any signal arrives; ties go to the lowest index."""
    return int(np.argmax(np.asarray(list(prior), dtype=np.float64)))


def prior_log_matrix(model: SignalModel) -> np.ndarray:
    """Matrix of log prior(f) - log prior(g)."""
    logs = np.log(np.asarray(model.states.prior, dtype=np.float64))
    return logs[:, None] - logs[None, :]


def state_pairs(k: int) -> list[tuple[int, int]]:
    """Unordered state pairs (f, g), f < g, in evidence order."""
    return [(f, g) for f in range(k) for g in range(f + 1, k)]


def _row_pairs(k: int, f: int) -> list[tuple[int, int]]:
    """(g, p) for every g != f in g order, p the position of the unordered
    pair {f, g} in state_pairs(k): L[f, g] is L[p] when f < g, else -L[p]."""
    pairs = state_pairs(k)
    return [(g, pairs.index((min(f, g), max(f, g)))) for g in range(k) if g != f]


def _put(actions: np.ndarray, f: int, where: np.ndarray, top: int) -> None:
    """actions = f where `where`, in place, for actions in 0..top; `where`
    (bool) is spent. State 0 is one multiply by the complement and state top
    one maximum; the states between take integer arithmetic in three
    passes. Each is far cheaper than a masked copy."""
    if f == 0:
        np.logical_not(where, out=where)
        np.multiply(actions, where, out=actions)
    elif f == top:
        if f != 1:
            where = np.multiply(where, f, dtype=actions.dtype)
        np.maximum(actions, where, out=actions)
    else:
        step = np.subtract(f, actions, dtype=actions.dtype)
        np.multiply(step, where, out=step)
        np.add(actions, step, out=actions)


def lowest_dominant(L: np.ndarray, cut: np.ndarray, actions: np.ndarray) -> None:
    """Where some state f has L[f, g] >= cut[f, g] for every g != f, set
    actions to the lowest such f; other cells keep their value. cut is
    (k, k, ...); L[f, g] >= cut[f, g] reads L[p] <= -cut[f, g] when f > g,
    which negation makes exact. actions must hold states, 0..k-1."""
    k = cut.shape[0]
    for f in reversed(range(k)):
        ok = None
        for g, p in _row_pairs(k, f):
            test = L[p] >= cut[f, g] if f < g else L[p] <= -cut[f, g]
            if ok is None:
                ok = test
            else:
                np.logical_and(ok, test, out=ok)
        _put(actions, f, ok, k - 1)


def ml_choice(L: np.ndarray, k: int, actions: np.ndarray) -> None:
    """Maximum-likelihood action: the lowest state whose row dominates,
    L[f, g] >= 0 for every g. On two states that is one compare: state 0
    exactly when L[0, 1] >= 0 (-0.0 included). Accumulated rounding can
    starve every row when k > 2; such cells take the largest row sum,
    summed left to right over g != f (ties to the lowest state)."""
    if k == 2:
        np.less(L[0], 0.0, out=actions)
        return
    top = k - 1
    actions.fill(0)
    best = None
    for f in range(k):
        row = None
        for g, p in _row_pairs(k, f):
            term = L[p] if f < g else -L[p]
            row = term if row is None else row + term
        if best is not None:
            better = row > best
            if f < top:
                row = np.where(better, row, best)
            _put(actions, f, better, top)
        best = row
    lowest_dominant(L, np.zeros((k, k)), actions)


def plurality(actions: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Most frequent state along axis; ties go to the lowest state."""
    counts = [(actions == f).sum(axis=axis, dtype=np.int32) for f in range(1, k)]
    best_count = actions.shape[axis] - sum(counts)
    best = None
    for f, count in enumerate(counts, start=1):
        better = count > best_count
        if best is None:
            best = better.astype(actions.dtype)
        else:
            _put(best, f, better, k - 1)
        if f < k - 1:
            np.maximum(best_count, count, out=best_count)
    return best


# -- the strategies --------------------------------------------------------------


@dataclass(frozen=True)
class AutarkyML:
    """Maximize the own-signal posterior each period; ignores everyone else."""


@dataclass(frozen=True)
class Coordination:
    """Act decisively on strong evidence, else follow the group's plurality.

    A state is decisive when every pairwise evidence total clears the linear
    threshold (m[f, g] - delta) * t; delta None takes a tenth of the
    smallest pair mean. Period 1 plays the prior's mode. The shared base of
    CoordinationComplete and CoordinationConnected, which say whose
    plurality is followed.
    """

    delta: float | None = None

    def __post_init__(self) -> None:
        if type(self) is Coordination:
            raise TypeError("build CoordinationComplete or CoordinationConnected")
        if self.delta is not None:
            if not (is_real(self.delta) and self.delta > 0.0):
                raise ValueError("delta must be a positive number")
            object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class CoordinationComplete(Coordination):
    """Coordination on complete networks: absent a decisive state the agent
    repeats the previous period's plurality action."""


@dataclass(frozen=True)
class CoordinationConnected(Coordination):
    """Coordination on any strongly connected network via vote propagation.

    Voting periods (block offset 0) follow the decisive-else-popular rule,
    with the plurality taken over every agent's previous vote as delivered by
    the propagation schedule. Propagation periods display whatever action the
    schedule directs, spending no evidence.
    """


@dataclass(frozen=True)
class OddEven:
    """Odd agents reveal their signals; even agents aggregate the reveals.

    Odd-indexed agents play their current signal's maximum-likelihood action
    every period. Even-indexed agents tally every revealed action so far,
    weighted by the one-signal log-likelihood ratio, and play the tally's
    favorite (state 0 on a tie). Defined for two-state symmetric binary
    models on complete networks.
    """


@dataclass(frozen=True)
class ConstantFirstPeriod:
    """Play one fixed action forever; a degenerate baseline."""

    state: int = 0

    def __post_init__(self) -> None:
        if not is_count(self.state, 0):
            raise ValueError("state must be a nonnegative integer")
        object.__setattr__(self, "state", operator.index(self.state))


Strategy = AutarkyML | CoordinationComplete | CoordinationConnected | OddEven | ConstantFirstPeriod


# -- admissibility ---------------------------------------------------------------


def strategy_violations(strategy: Strategy | None, model: SignalModel | None,
                        network: Network | None, admissible: bool) -> list[str]:
    """Every reason the strategy cannot be played on the model and network,
    each prefixed with the fields it concerns, in config_violations' order.
    A strategy, model or network of None could not be read and is not
    checked; delta is checked only against an admissible model. A network
    too large for a relay schedule is not tested for strong connectivity.
    An object that is no strategy raises TypeError."""
    if not isinstance(strategy, Strategy | None):
        raise TypeError(f"unknown strategy object {strategy!r}")
    violations = []
    if model is not None:
        if isinstance(strategy, Coordination) and admissible:
            try:
                checked_delta(pair_table(model), strategy.delta)
            except ValueError as exc:
                violations.append(f"strategy.delta: {exc}")
        k = model.states.n_states
        if isinstance(strategy, ConstantFirstPeriod) and strategy.state >= k:
            violations.append("strategy.state: state index out of range")
        binary = isinstance(model.family, BinarySymmetric)
        if isinstance(strategy, OddEven) and not binary:
            violations.append("strategy/model: the odd/even strategy requires "
                              "symmetric binary signals")
    if network is not None:
        if isinstance(strategy, CoordinationConnected):
            too_large = schedule_too_large(network.n)
            if too_large:
                violations.append(f"strategy/network: {too_large}")
            elif not is_strongly_connected(network):
                violations.append("strategy/network: the connected coordination "
                                  "strategy requires a strongly connected network")
        complete = isinstance(strategy, (CoordinationComplete, OddEven))
        if complete and not is_complete(network):
            violations.append("strategy/network: this strategy requires a "
                              "complete network")
    return violations


# -- compiled rules --------------------------------------------------------------


def compile_rule(strategy: Strategy, model: SignalModel, network: Network,
                 horizon: int, prior: np.ndarray, tables: np.ndarray | None):
    """The strategy's rule for an admissible config, compiled once, as
    (decide, fill) with exactly one of the two set.

    decide(t, L, history) writes period t's (agents, reps) actions into
    history[t - 1] from the evidence L (pairs, agents, reps) and the earlier
    periods (autarky, coordination); fill(signals, history) writes every
    period at once (odd/even, constant, and autarky and complete
    coordination on two states and two atoms whenever _count_rule proves
    integer cuts on signal counts exact). prior holds the log-prior term per
    state pair; tables each agent's llr per pair and atom, (agents or 1,
    pairs, atoms), or None for Gaussian signals. The rules are partials of
    module functions, which, unlike closures, pickle for a pool whose
    workers are spawned."""
    k = model.states.n_states
    two_atoms = k == 2 and tables is not None and tables.shape[2] == 2
    if isinstance(strategy, AutarkyML):
        if two_atoms:
            # ml_choice plays 0 when L >= 0 and 1 when L < 0, that is when L
            # is at most the greatest negative float
            zero = np.zeros((horizon, 1))
            counted = _count_rule(prior[0], tables[:, 0], zero,
                                  zero - np.nextafter(0.0, 1.0))
            if counted is not None:
                flip, limits = counted
                return None, partial(_count_autarky, flip, limits[:, 0])
        return partial(_autarky, k), None
    if isinstance(strategy, OddEven):
        return None, partial(_odd_even, prior[0], tables[0, 0, 0])
    if isinstance(strategy, ConstantFirstPeriod):
        return None, partial(_constant, strategy.state)
    table = pair_table(model)
    slack = per_agent(table.mean - checked_delta(table, strategy.delta))
    thresholds = slack.transpose(1, 2, 0)[..., None]
    cuts = np.stack([thresholds * t for t in range(1, horizon + 1)])
    first = first_action(model.states.prior)
    rule = (k, first, cuts)
    if isinstance(strategy, CoordinationConnected):
        schedule = build_schedule(network)
        # each voter's (source, offset) pairs, its own vote first
        n = model.n_agents
        own = np.column_stack([np.arange(n), np.zeros(n, dtype=np.intp)])
        votes = np.concatenate([own[:, None], schedule.harvest], axis=1)
        return partial(_relay_votes, *rule, schedule, votes), None
    if two_atoms:
        counted = _count_rule(prior[0], tables[:, 0], cuts[:, 0, 1, :, 0],
                              -cuts[:, 1, 0, :, 0])
        if counted is not None:
            return None, partial(_count_plurality, first, *counted)
    return partial(_follow_plurality, *rule), None


def _autarky(k: int, t: int, L: np.ndarray, history: np.ndarray) -> None:
    ml_choice(L, k, history[t - 1])


def _follow_plurality(k: int, first: int, cuts: np.ndarray, t: int, L: np.ndarray,
                      history: np.ndarray) -> None:
    """Complete coordination: the prior's mode at t = 1; then the lowest
    decisive state, else the previous period's plurality."""
    now = history[t - 1]
    if t == 1:
        now.fill(first)
        return
    now[...] = plurality(history[t - 2], k, axis=0)
    lowest_dominant(L, cuts[t - 1], now)


def reachable_sums(keep: np.ndarray, bump: np.ndarray, horizon: int):
    """Bounds of the float sums that the engine's evidence loop can reach.

    Yields (lo, hi) for t = 1..horizon, each of shape (t + 1,) + keep's shape
    (a lane per agent): lo[c] and hi[c] are the least and the greatest value
    of acc after t periods, c of which added bump and t - c keep, each added
    in turn to acc = 0.0, over every order of the increments.

    Rounding to nearest is monotone (x <= y gives fl(x + w) <= fl(y + w)), so
    a cell's least sum is the lesser of its two predecessors' least sums,
    each plus its increment, and likewise for the greatest: the bounds are
    sums that some order reaches, and every other sum of the cell lies
    between them. A test that both bounds pass holds for every sum. When
    bump <= keep, both bounds fall as the count rises: lo[c + 1] <= lo[c]
    and hi[c + 1] <= hi[c], since trading one keep of an order for a bump
    lowers no partial sum."""
    keep, bump = np.broadcast_arrays(np.asarray(keep, dtype=np.float64),
                                     np.asarray(bump, dtype=np.float64))
    lo = hi = np.zeros((1,) + keep.shape)
    for _ in range(horizon):
        lo = _add_period(lo, keep, bump, np.minimum)
        hi = _add_period(hi, keep, bump, np.maximum)
        yield lo, hi


def _add_period(bound: np.ndarray, keep: np.ndarray, bump: np.ndarray,
                pick) -> np.ndarray:
    """One period of reachable_sums: count c is reached from c by keep and
    from c - 1 by bump; pick chooses between the two where both exist."""
    out = np.concatenate([bound + keep, bound[-1:] + bump])
    pick(out[1:-1], bound[:-1] + bump, out=out[1:-1])
    return out


def _count_rule(prior: float, table: np.ndarray, zero_cut: np.ndarray,
                one_cut: np.ndarray):
    """A two-state, two-atom rule as integer cuts on signal counts, or None
    when some cell's float sums straddle a cut.

    table holds each agent's llr L[0, 1] per atom, (agents, 2). State 0 is
    decisive in period t when L >= zero_cut[t - 1], state 1 when
    L <= one_cut[t - 1]; both cuts are (horizon, agents or 1), and
    zero_cut > one_cut, so no cell is decisive both ways. An agent counts
    its signals of the atom that favors state 1 (atom 1 unless flip marks
    it). After t periods its evidence is prior + acc, where acc is one of
    the float sums that reachable_sums bounds for its count c (the engine
    skips a prior of 0, and 0.0 + acc differs from acc only in the sign of
    a zero, which no compare sees). Those bounds fall as c rises, so unless
    a cell's two bounds fall on either side of a cut, state 0 is decisive
    exactly when c < a and state 1 exactly when c >= b, where a counts the
    cells that pass lo >= zero_cut and b those that fail hi <= one_cut.
    Then complete coordination plays 1 exactly when c > limits[t-1, p],
    where p is the previous plurality: limit a - 1 when p = 1, b - 1 when
    p = 0. Autarky's cuts make every count decisive (b = a), so both limits
    are equal and it plays 1 exactly when c > limits[t-1, 0].

    Returns (flip, limits): flip (agents, 1) int8, or None when every agent
    counts atom 1; limits (horizon, 2, agents, 1) in the narrowest signed
    integer that holds every count and limit, -1..horizon: int8 through 127
    periods, then int16."""
    horizon = zero_cut.shape[0]
    limits = []
    sums = reachable_sums(table.max(axis=1), table.min(axis=1), horizon)
    for (lo, hi), zero, one in zip(sums, zero_cut, one_cut):
        lo, hi = prior + lo, prior + hi
        a, b = (lo >= zero).sum(axis=0), (hi > one).sum(axis=0)
        if ((hi >= zero).sum(axis=0) != a).any() or ((lo > one).sum(axis=0) != b).any():
            return None  # some cell's sums straddle a cut
        limits.append((b - 1, a - 1))
    flip = table[:, 1] > table[:, 0]
    flip = flip.astype(np.int8)[:, None] if flip.any() else None
    return flip, np.array(limits, dtype=np.min_scalar_type(-horizon - 1))[..., None]


def _signal_counts(flip: np.ndarray | None, dtype: np.dtype,
                   signals: np.ndarray) -> np.ndarray:
    """Each agent's running count of its signals of the atom that favors
    state 1 (see _count_rule), (horizon, agents, reps) in dtype, from the
    (reps, agents, horizon) support indices: one integer add per period."""
    reps, n, horizon = signals.shape
    counts = np.empty((horizon, n, reps), dtype=dtype)
    if flip is None:
        np.copyto(counts, signals.transpose(2, 1, 0), casting="unsafe")
    else:
        np.bitwise_xor(signals.transpose(2, 1, 0), flip, out=counts,
                       casting="unsafe")
    for t in range(1, horizon):
        np.add(counts[t - 1], counts[t], out=counts[t])
    return counts


def _count_autarky(flip: np.ndarray | None, limits: np.ndarray, signals: np.ndarray,
                   history: np.ndarray) -> None:
    """Autarky on integer counts (see _count_rule): each agent plays 1
    exactly when its count of state-1 signals exceeds its limit, one compare
    of every period at once."""
    np.greater(_signal_counts(flip, limits.dtype, signals), limits, out=history)


def _count_plurality(first: int, flip: np.ndarray | None, cuts: np.ndarray,
                     signals: np.ndarray, history: np.ndarray) -> None:
    """Complete coordination on integer counts (see _count_rule): the
    prior's mode at t = 1; then each agent plays 1 exactly when its count of
    state-1 signals exceeds its cut for the previous period's plurality.
    Counts take the cuts' integer type, and the plurality tally the
    narrowest unsigned one that holds the number of agents. Per period: one
    plurality sum over agents, one compare."""
    counts = _signal_counts(flip, cuts.dtype, signals)
    horizon, n, _ = counts.shape
    tally = np.min_scalar_type(n)
    history[0] = first
    for t in range(1, horizon):
        ones = history[t - 1].sum(axis=0, dtype=tally)
        cut = np.where(ones > n // 2, cuts[t, 1], cuts[t, 0])
        np.greater(counts[t], cut, out=history[t])


def _relay_votes(k: int, first: int, cuts: np.ndarray, schedule: PropagationSchedule,
                 votes: np.ndarray, t: int, L: np.ndarray, history: np.ndarray) -> None:
    """Connected coordination: relay periods show what the schedule directs;
    voting periods follow complete coordination's rule, over the previous
    block's votes that each voter sees at its (n, 2) votes (source, offset)
    pairs; the first vote is the prior's mode."""
    now = history[t - 1]
    offset = (t - 1) % schedule.M
    if t == 1:
        now.fill(first)
    elif offset:
        now[...] = history[
            t - offset - 1 + schedule.relay_offset[offset - 1],
            schedule.relay_source[offset - 1],
        ]
    else:
        seen = history[t - schedule.M - 1 + votes[..., 1], votes[..., 0]]
        now[...] = plurality(seen, k, axis=1)
        lowest_dominant(L, cuts[t - 1], now)


def _odd_even(prior: float, weight: float, signals: np.ndarray,
              history: np.ndarray) -> None:
    """OddEven without a loop over periods: odd agents play their signal;
    every even agent plays 1 when prior + balance * weight < 0, where
    balance counts the 0s minus the 1s revealed in earlier periods (an
    exact integer cumsum)."""
    reps, _, horizon = signals.shape
    revealed = signals[:, 1::2]
    history[:, 1::2] = revealed.T
    ones = revealed.sum(axis=1, dtype=np.int64).T
    balance = np.zeros((horizon, reps), dtype=np.int64)
    np.cumsum(revealed.shape[1] - 2 * ones[:-1], axis=0, out=balance[1:])
    history[:, 0::2] = (prior + balance * weight < 0.0)[:, None]


def _constant(state: int, signals: np.ndarray, history: np.ndarray) -> None:
    history.fill(state)


# -- JSON ------------------------------------------------------------------------

# JSON names of the strategies; a document carries the dataclass's fields
# beside the name, and one whose default is None may be left out.
_STRATEGY_NAMES = {
    "autarky-ml": AutarkyML,
    "coordination": CoordinationComplete,
    "coordination-connected": CoordinationConnected,
    "odd-even": OddEven,
    "constant": ConstantFirstPeriod,
}
_NAME_OF = {cls: name for name, cls in _STRATEGY_NAMES.items()}


def strategy_to_json(strategy: Strategy) -> dict:
    """Inverse of strategy_from_json."""
    if type(strategy) not in _NAME_OF:
        raise TypeError(f"unknown strategy object: {strategy!r}")
    values = {name: v for name, v in asdict(strategy).items() if v is not None}
    return {"strategy": _NAME_OF[type(strategy)], **values}


def strategy_from_json(doc: dict) -> Strategy:
    """Build a strategy from {"strategy": name, ...} configuration."""
    if not isinstance(doc, dict) or "strategy" not in doc:
        raise ValueError('strategy document needs a "strategy" name')
    name = doc["strategy"]
    cls = _STRATEGY_NAMES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}")
    for field in fields(cls):
        if field.default is not None and field.name not in doc:
            raise ValueError(f'{name} strategy needs "{field.name}"')
    return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
