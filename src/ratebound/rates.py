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


def _autarky_rates(cases: list, k: int) -> list[float]:
    """autarky_rate of each (model, agent) case, all of k states. Their
    conjugates at zero are solved in one lockstep call; each equals its
    kernel's own legendre(0) solve."""
    pairs = _ordered_pairs(k)
    # A generator, so each kernel is released once the solve has its row.
    kernels = (PairKernel(model, a, f, g) for model, a in cases for f, g in pairs)
    values = conjugates(kernels, np.zeros(len(cases) * len(pairs)))[0].tolist()
    return [min(values[i : i + len(pairs)]) for i in range(0, len(values), len(pairs))]


def autarky_rate(model: SignalModel, agent: int = 0) -> float:
    """Exponential rate of an agent learning alone: min over ordered state
    pairs of the conjugate at zero."""
    return _autarky_rates([(model, agent)], model.states.n_states)[0]


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
    cases = [(model, i) for i in range(model.n_agents)]
    return RateReport(
        r_aut=tuple(_autarky_rates(cases, model.states.n_states)),
        r_bdd=r_bdd,
        r_tilde_bdd=weak_bounded_rate(model),
        argmin_pair=pair,
        argmax_agent=agent,
    )


def coordination_threshold(model: SignalModel, delta: float) -> int:
    """Smallest group size for which the coordination argument's bad-cascade
    mass is summable on complete networks of identical agents.

    Uses agent 0's signal law (the argument assumes identically distributed
    agents). Requires 0 < delta < min over ordered pairs of the mean
    log-likelihood ratio.
    """
    pairs = _ordered_pairs(model.states.n_states)
    kernels = [PairKernel(model, 0, f, g) for f, g in pairs]
    mean = {pair: kern.mean for pair, kern in zip(pairs, kernels)}
    min_mean = min(mean.values())
    if not 0.0 < delta < min_mean:
        raise ValueError(
            f"delta must lie in (0, {min_mean:.6g}), the smallest pair mean"
        )
    # the numerator's etas, then the denominator's, in one lockstep call
    etas = [[delta - mean[g, f] for f, g in pairs],
            [mean[pair] - delta for pair in pairs]]
    numerator, denominator = conjugates(kernels * 2, etas)[0].min(axis=1).tolist()
    return math.ceil(2.0 * numerator / denominator)


def sweep_figure1(p_values) -> list[tuple[float, float, float]]:
    """Autarky and bounded rates for symmetric binary models across signal
    precisions. Returns (q, r_aut, r_bdd) rows in input order.

    One kernel per ordered state pair of each point gives both rates: r_aut
    is the smaller of the two conjugates at zero, all solved in one
    lockstep call, and r_bdd the smaller of the two means, which is what
    bounded_rate reads off pair_means for one agent."""
    models = []
    for q in map(float, p_values):
        if not 0.5 < q < 1.0:
            raise ValueError(f"signal precision {q} outside (1/2, 1)")
        models.append(SignalModel(StateSpace((0, 1)), BinarySymmetric(q)))
    kernels = [PairKernel(model, 0, f, g) for model in models
               for f, g in _ordered_pairs(2)]
    values = conjugates(kernels, np.zeros(len(kernels)))[0].tolist()
    return [
        (model.family.p, min(values[2 * i : 2 * i + 2]),
         min(kern.mean for kern in kernels[2 * i : 2 * i + 2]))
        for i, model in enumerate(models)
    ]
