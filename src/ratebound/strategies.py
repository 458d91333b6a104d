"""Decision rules: the strategy profiles and the array kernels that play them.

A strategy is a frozen description; sim_engine's batched engine plays it over
(agents, replications) arrays. Evidence is held per unordered state pair:
L[p] is L[f, g] for the p-th pair of state_pairs(k), and L[g, f] = -L[f, g]
holds exactly in floating point, so one float per pair carries both
directions. Actions are state indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ratebound.ldp_numerics import PairKernel
from ratebound.signal_models import SignalModel


def most_popular(actions: Iterable[int]) -> int:
    """Plurality action; ties go to the lowest state index."""
    counts = Counter(actions)
    if not counts:
        raise ValueError("most_popular needs at least one action")
    return max(counts.items(), key=lambda item: (item[1], -item[0]))[0]


def first_action(prior: Iterable[float]) -> int:
    """Prior-optimal action before any signal arrives; ties go to the lowest index."""
    return int(np.argmax(np.asarray(list(prior), dtype=np.float64)))


def prior_log_matrix(model: SignalModel) -> np.ndarray:
    """Matrix of log prior(f) - log prior(g)."""
    logs = np.log(np.asarray(model.states.prior, dtype=np.float64))
    return logs[:, None] - logs[None, :]


def pair_mean_matrix(model: SignalModel, agent: int) -> np.ndarray:
    """Matrix of expected one-period log-likelihood ratios m[f, g]; zero diagonal."""
    k = model.states.n_states
    means = np.zeros((k, k), dtype=np.float64)
    for f in range(k):
        for g in range(k):
            if f != g:
                means[f, g] = PairKernel(model, agent, f, g).mean
    return means


def finite_llr_table(model: SignalModel, agent: int) -> np.ndarray:
    """Per-signal-index increment matrices: table[s, f, g] = llr of atom s for
    (f, g). An atom with zero mass in every state is never drawn; its
    increments are 0."""
    pmf = np.stack(
        [model.pmf_row(agent, f) for f in range(model.states.n_states)]
    )
    with np.errstate(divide="ignore"):
        logs = np.log(pmf)
    logs[:, ~(pmf > 0.0).any(axis=0)] = 0.0
    return logs.T[:, :, None] - logs.T[:, None, :]


def state_pairs(k: int) -> list[tuple[int, int]]:
    """Unordered state pairs (f, g), f < g, in evidence order."""
    return [(f, g) for f in range(k) for g in range(f + 1, k)]


def _directed(L: np.ndarray, k: int, f: int, g: int) -> tuple[np.ndarray, int]:
    """(L[p], sign) with L[f, g] = sign * L[p]."""
    p = state_pairs(k).index((min(f, g), max(f, g)))
    return L[p], 1 if f < g else -1


def _put(actions: np.ndarray, f: int, where: np.ndarray) -> None:
    """actions = f where `where`, in place; integer arithmetic, which is far
    cheaper than a masked copy."""
    step = np.subtract(f, actions, dtype=actions.dtype)
    np.multiply(step, where, out=step)
    np.add(actions, step, out=actions)


def lowest_dominant(L: np.ndarray, cut, k: int, actions: np.ndarray) -> None:
    """Where some state f has L[f, g] >= cut[f][g] for every g != f, set
    actions to the lowest such f; other cells keep their value.

    L[g, f] >= c is tested as L[f, g] <= -c, which negation makes exact.
    """
    for f in reversed(range(k)):
        ok = None
        for g in range(k):
            if g == f:
                continue
            evidence, sign = _directed(L, k, f, g)
            test = evidence >= cut[f][g] if sign > 0 else evidence <= -cut[f][g]
            ok = test if ok is None else np.logical_and(ok, test, out=ok)
        _put(actions, f, ok)


def ml_choice(L: np.ndarray, k: int, actions: np.ndarray) -> None:
    """Maximum-likelihood action: the lowest state whose row dominates,
    L[f, g] >= 0 for every g. Accumulated rounding can starve every row when
    k > 2; such cells take the largest row sum, summed left to right over
    g != f (ties to the lowest state)."""
    actions.fill(0)
    best = None
    for f in range(k):
        row = None
        for g in range(k):
            if g != f:
                evidence, sign = _directed(L, k, f, g)
                term = evidence if sign > 0 else -evidence
                row = term if row is None else row + term
        if best is not None:
            better = row > best
            _put(actions, f, better)
            row = np.where(better, row, best)
        best = row
    lowest_dominant(L, np.zeros((k, k)), k, actions)


def plurality(actions: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Most frequent state along axis; ties go to the lowest state."""
    counts = [(actions == f).sum(axis=axis, dtype=np.int32) for f in range(1, k)]
    best = np.zeros(counts[0].shape, dtype=actions.dtype)
    best_count = actions.shape[axis] - sum(counts)
    for f, count in enumerate(counts, start=1):
        better = count > best_count
        _put(best, f, better)
        np.maximum(best_count, count, out=best_count)
    return best


@dataclass(frozen=True)
class AutarkyML:
    """Maximize the own-signal posterior each period; ignores everyone else."""


@dataclass(frozen=True)
class CoordinationComplete:
    """On complete networks: act decisively on strong evidence, else copy the crowd.

    A state is decisive when every pairwise evidence total clears the linear
    threshold (m[f, g] - delta) * t. Absent a decisive state the agent
    repeats the previous period's plurality action. Period 1 plays the
    prior's mode.
    """

    delta: float | None = None

    def __post_init__(self) -> None:
        if self.delta is not None and not self.delta > 0.0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class CoordinationConnected:
    """Coordination on any strongly connected network via vote propagation.

    Voting periods (block offset 0) follow the decisive-else-popular rule,
    with the plurality taken over every agent's previous vote as delivered by
    the propagation schedule. Propagation periods display whatever action the
    schedule directs, spending no evidence.
    """

    delta: float | None = None

    def __post_init__(self) -> None:
        if self.delta is not None and not self.delta > 0.0:
            raise ValueError("delta must be positive")


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
        if self.state < 0:
            raise ValueError("state index must be nonnegative")


Strategy = AutarkyML | CoordinationComplete | CoordinationConnected | OddEven | ConstantFirstPeriod


def strategy_to_json(strategy: Strategy) -> dict:
    """Inverse of strategy_from_json."""
    if isinstance(strategy, AutarkyML):
        return {"strategy": "autarky-ml"}
    if isinstance(strategy, CoordinationComplete):
        doc = {"strategy": "coordination"}
        if strategy.delta is not None:
            doc["delta"] = strategy.delta
        return doc
    if isinstance(strategy, CoordinationConnected):
        doc = {"strategy": "coordination-connected"}
        if strategy.delta is not None:
            doc["delta"] = strategy.delta
        return doc
    if isinstance(strategy, OddEven):
        return {"strategy": "odd-even"}
    if isinstance(strategy, ConstantFirstPeriod):
        return {"strategy": "constant", "state": strategy.state}
    raise TypeError(f"unknown strategy object: {strategy!r}")


def strategy_from_json(doc: dict) -> Strategy:
    """Build a strategy from {"strategy": name, ...} configuration."""
    if not isinstance(doc, dict) or "strategy" not in doc:
        raise ValueError('strategy document needs a "strategy" name')
    name = doc["strategy"]
    if name == "autarky-ml":
        return AutarkyML()
    if name == "coordination":
        return CoordinationComplete(delta=doc.get("delta"))
    if name == "coordination-connected":
        return CoordinationConnected(delta=doc.get("delta"))
    if name == "odd-even":
        return OddEven()
    if name == "constant":
        if "state" not in doc:
            raise ValueError('constant strategy needs a "state" index')
        return ConstantFirstPeriod(state=int(doc["state"]))
    raise ValueError(f"unknown strategy {name!r}")
