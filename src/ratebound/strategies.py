"""Decision rules: the strategy profiles and the array kernels that play them.

A strategy is a frozen description; sim_engine's batched engine plays it one
period at a time over (agents, replications) arrays. Evidence is held per
unordered state pair: L[p] is L[f, g] for the p-th pair of state_pairs(k), and
L[g, f] = -L[f, g] holds exactly in floating point, so one float per pair
carries both directions. Actions are state indices.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from ratebound.signal_models import SignalModel, is_count


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


def _pair_index(pairs: list[tuple[int, int]], f: int, g: int) -> int:
    """Position of the unordered pair {f, g} in state_pairs order."""
    return pairs.index((min(f, g), max(f, g)))


def dominance_plan(k: int) -> tuple:
    """lowest_dominant's tests, compiled once: for each state f from the
    highest down, the (pair, compare, g) triples whose conjunction makes f
    dominant. L[f, g] >= c reads L[p] >= c when f < g, and L[p] <= -c
    otherwise, which negation makes exact; signed_cuts supplies the bounds
    c and -c."""
    pairs = state_pairs(k)
    return tuple(
        (f, tuple(
            (_pair_index(pairs, f, g),
             np.greater_equal if f < g else np.less_equal, g)
            for g in range(k)
            if g != f
        ))
        for f in reversed(range(k))
    )


def signed_cuts(cut: np.ndarray) -> np.ndarray:
    """The bounds of dominance_plan's tests for a (k, k, ...) cut: cut[f, g]
    above the diagonal, -cut[f, g] below it."""
    k = cut.shape[0]
    below = np.tri(k, k, -1, dtype=bool).reshape((k, k) + (1,) * (cut.ndim - 2))
    return np.where(below, -cut, cut)


def ml_plan(k: int) -> tuple:
    """ml_choice's compiled form: for each state f, the (pair, sign) terms of
    its row sum over g != f in g order; then the dominance plan and its zero
    bounds."""
    pairs = state_pairs(k)
    rows = tuple(
        tuple(
            (_pair_index(pairs, f, g), 1 if f < g else -1)
            for g in range(k)
            if g != f
        )
        for f in range(k)
    )
    return rows, dominance_plan(k), np.zeros((k, k))


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


def lowest_dominant(L: np.ndarray, plan: tuple, bounds: np.ndarray,
                    actions: np.ndarray) -> None:
    """Where some state f passes every test of plan against bounds (see
    dominance_plan), set actions to the lowest such f; other cells keep
    their value. actions must hold states, 0..k-1."""
    top = plan[0][0]
    for f, tests in plan:
        ok = None
        for p, compare, g in tests:
            if ok is None:
                ok = compare(L[p], bounds[f, g])
            else:
                np.logical_and(ok, compare(L[p], bounds[f, g]), out=ok)
        _put(actions, f, ok, top)


def ml_choice(L: np.ndarray, plan: tuple, actions: np.ndarray) -> None:
    """Maximum-likelihood action (plan = ml_plan(k)): the lowest state whose
    row dominates, L[f, g] >= 0 for every g. Accumulated rounding can starve
    every row when k > 2; such cells take the largest row sum, summed left to
    right over g != f (ties to the lowest state)."""
    rows, dominance, zeros = plan
    top = len(rows) - 1
    actions.fill(0)
    best = None
    for f, terms in enumerate(rows):
        row = None
        for p, sign in terms:
            term = L[p] if sign > 0 else -L[p]
            row = term if row is None else row + term
        if best is not None:
            better = row > best
            if f < top:
                row = np.where(better, row, best)
            _put(actions, f, better, top)
        best = row
    lowest_dominant(L, dominance, zeros, actions)


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


@dataclass(frozen=True)
class AutarkyML:
    """Maximize the own-signal posterior each period; ignores everyone else."""


@dataclass(frozen=True)
class Coordination:
    """Act decisively on strong evidence, else follow the group's plurality.

    A state is decisive when every pairwise evidence total clears the linear
    threshold (m[f, g] - delta) * t; delta None takes the engine's default.
    Period 1 plays the prior's mode. The shared base of CoordinationComplete
    and CoordinationConnected, which say whose plurality is followed.
    """

    delta: float | None = None

    def __post_init__(self) -> None:
        if type(self) is Coordination:
            raise TypeError("build CoordinationComplete or CoordinationConnected")
        real = isinstance(self.delta, numbers.Real) and not isinstance(self.delta, bool)
        if self.delta is not None and not (real and self.delta > 0.0):
            raise ValueError("delta must be a positive number")


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


Strategy = AutarkyML | CoordinationComplete | CoordinationConnected | OddEven | ConstantFirstPeriod


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
