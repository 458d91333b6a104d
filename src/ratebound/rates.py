"""Learning-rate constants: what speed is feasible alone and under imitation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ratebound.ldp_numerics import (
    PairKernel,
    argmin_pair,
    conjugates,
    llr_table,
    pair_means,
)
from ratebound.network import Network
from ratebound.signal_models import BinarySymmetric, SignalModel, StateSpace

UNBOUNDED = math.inf


@dataclass(frozen=True)
class RateReport:
    """Every rate constant of a model, with the binding pair and agent.

    r_aut[i] is agent i's autarky rate (best exponential decay of her own
    mistake probability). r_bdd caps the slowest agent's rate under any
    strategy profile; argmin_pair is the state pair attaining it and
    argmax_agent the best-informed agent for that pair (lowest indices on
    ties). r_tilde_bdd is the cruder log-likelihood-range cap, UNBOUNDED
    (infinity) for Gaussian signals.
    """

    r_aut: tuple[float, ...]
    r_bdd: float
    r_tilde_bdd: float
    argmin_pair: tuple[int, int]
    argmax_agent: int

    def as_dict(self) -> dict:
        tilde = "unbounded" if math.isinf(self.r_tilde_bdd) else self.r_tilde_bdd
        return {
            "r_aut": list(self.r_aut),
            "r_bdd": self.r_bdd,
            "r_tilde_bdd": tilde,
            "argmin_pair": list(self.argmin_pair),
            "argmax_agent": self.argmax_agent,
        }


def _ordered_pairs(k: int) -> list[tuple[int, int]]:
    return list(permutations(range(k), 2))


def autarky_rate(model: SignalModel, agent: int = 0) -> float:
    """Exponential rate of an agent learning alone: min over ordered state
    pairs of the conjugate at zero."""
    return min(
        PairKernel(model, agent, f, g).legendre(0.0).value
        for f, g in _ordered_pairs(model.states.n_states)
    )


def _bounded_detail(model: SignalModel) -> tuple[float, tuple[int, int], int]:
    means = pair_means(model)
    best = means.max(axis=0)
    f, g = argmin_pair(best)
    return float(best[f, g]), (f, g), int(means[:, f, g].argmax())


def bounded_rate(model: SignalModel) -> float:
    """Rate cap for the slowest agent under any strategy: min over ordered
    state pairs of the best agent's mean log-likelihood ratio."""
    return _bounded_detail(model)[0]


def weak_bounded_rate(model: SignalModel) -> float:
    """Cruder cap from the reach of a single signal: twice the min-max sup of
    |llr| over the support. UNBOUNDED for Gaussian signals."""
    if not model.has_finite_support:
        return UNBOUNDED
    # An atom no state draws holds 0, which never raises a reach.
    reach = np.abs(llr_table(model)).max(axis=(0, 1))
    return 2.0 * float(reach[argmin_pair(reach)])


def rate_report(model: SignalModel) -> RateReport:
    """All rate constants of a model in one report."""
    r_bdd, pair, agent = _bounded_detail(model)
    return RateReport(
        r_aut=tuple(autarky_rate(model, i) for i in range(model.n_agents)),
        r_bdd=r_bdd,
        r_tilde_bdd=weak_bounded_rate(model),
        argmin_pair=pair,
        argmax_agent=agent,
    )


def neighborhood_bounded_rate(
    model: SignalModel, network: Network
) -> tuple[float, float]:
    """Network-local rate cap and its degree relaxation.

    Returns (exact, degree_bound): exact is the min over ordered state pairs
    of the max over agents of the summed mean log-likelihood ratios inside
    the agent's neighborhood; degree_bound = max_degree * bounded_rate is
    never smaller.
    """
    if model.n_agents != network.n:
        raise ValueError("model and network disagree on the number of agents")
    means = pair_means(model)
    # Each agent's neighborhood sums in its listed order, as scalars would.
    best = np.max(
        [sum(means[j] for j in hood) for hood in network.neighborhoods], axis=0
    )
    return float(best[argmin_pair(best)]), network.max_degree * bounded_rate(model)


def coordination_threshold(model: SignalModel, delta: float) -> int:
    """Smallest group size for which the coordination argument's bad-cascade
    mass is summable on complete networks of identical agents.

    Uses agent 0's signal law (the argument assumes identically distributed
    agents). Requires 0 < delta < min over ordered pairs of the mean
    log-likelihood ratio.
    """
    pairs = _ordered_pairs(model.states.n_states)
    kernels = {pair: PairKernel(model, 0, *pair) for pair in pairs}
    min_mean = min(k.mean for k in kernels.values())
    if not 0.0 < delta < min_mean:
        raise ValueError(
            f"delta must lie in (0, {min_mean:.6g}), the smallest pair mean"
        )
    numerator = min(
        kernels[(f, g)].legendre(-kernels[(g, f)].mean + delta).value
        for f, g in pairs
    )
    denominator = min(
        kernels[(f, g)].legendre(kernels[(f, g)].mean - delta).value
        for f, g in pairs
    )
    return math.ceil(2.0 * numerator / denominator)


def sweep_figure1(p_values) -> list[tuple[float, float, float]]:
    """Autarky and bounded rates for symmetric binary models across signal
    precisions. Returns (q, r_aut, r_bdd) rows in input order.

    Every point's conjugates at zero, one per ordered pair, are solved in one
    lockstep call; each equals the point's own autarky_rate solve."""
    models = []
    for q in p_values:
        q = float(q)
        if not 0.5 < q < 1.0:
            raise ValueError(f"signal precision {q} outside (1/2, 1)")
        models.append((q, SignalModel(StateSpace((0, 1)), BinarySymmetric(q))))
    pairs = _ordered_pairs(2)
    # A generator, so each kernel is released once the solve has its row.
    kernels = (PairKernel(model, 0, f, g) for _, model in models for f, g in pairs)
    values = conjugates(kernels, np.zeros(len(models) * len(pairs)))[0].tolist()
    return [
        (q, min(values[i * len(pairs) : (i + 1) * len(pairs)]), bounded_rate(model))
        for i, (q, model) in enumerate(models)
    ]
