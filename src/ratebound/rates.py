"""Learning-rate constants: what speed is feasible alone and under imitation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ratebound.ldp_numerics import (
    PairTable,
    argmin_pair,
    checked_delta,
    conjugates,
    llr_table,
    pair_means,
    pair_table,
    pmf_table,
)
from ratebound.signal_models import SignalModel

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


def _autarky_rates(table: PairTable, agents) -> list[float]:
    """autarky_rate of each of the table's agents. Their lanes' conjugates
    at zero are solved in one lockstep call; each equals its lane's own
    solve."""
    pairs = _ordered_pairs(table.mean.shape[1])
    lanes = table.lanes([(a, f, g) for a in agents for f, g in pairs])
    values = conjugates(lanes, np.zeros(len(lanes)))[0].tolist()
    return [min(values[i : i + len(pairs)]) for i in range(0, len(values), len(pairs))]


def autarky_rate(model: SignalModel, agent: int = 0) -> float:
    """Exponential rate of an agent learning alone: min over ordered state
    pairs of the conjugate at zero."""
    return _autarky_rates(pair_table(model), [agent])[0]


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
        r_aut=tuple(_autarky_rates(pair_table(model), range(model.n_agents))),
        r_bdd=r_bdd,
        r_tilde_bdd=weak_bounded_rate(model),
        argmin_pair=pair,
        argmax_agent=agent,
    )


def coordination_threshold(model: SignalModel, delta: float) -> int:
    """Smallest group size for which the coordination argument's bad-cascade
    mass is summable on complete networks of identical agents.

    Uses agent 0's signal law (the argument assumes identically distributed
    agents). Requires 0 < delta < min over every agent and ordered pair of
    the mean log-likelihood ratio, the engine's rule (checked_delta).
    """
    table = pair_table(model)
    delta = checked_delta(table, delta)
    pairs = _ordered_pairs(model.states.n_states)
    lanes = table.lanes([(0, f, g) for f, g in pairs])
    # the numerator's etas, then the denominator's, in one lockstep call
    etas = [[delta - table.mean[0, g, f] for f, g in pairs],
            [lane.mean - delta for lane in lanes]]
    numerator, denominator = conjugates(lanes * 2, etas)[0].min(axis=1).tolist()
    return math.ceil(2.0 * numerator / denominator)


def sweep_figure1(p_values) -> list[tuple[float, float, float]]:
    """Autarky and bounded rates for symmetric binary models across signal
    precisions. Returns (q, r_aut, r_bdd) rows in input order.

    The precisions are the agents of one pair table, so it gives both
    rates: r_aut is each agent's autarky rate, all solved in one lockstep
    call, and r_bdd the smaller of its two pair means, which is what
    bounded_rate reads for a model of that one agent."""
    qs = [float(q) for q in p_values]
    for q in qs:
        if not 0.5 < q < 1.0:
            raise ValueError(f"signal precision {q} outside (1/2, 1)")
    pmf = np.array([[(q, 1.0 - q), (1.0 - q, q)] for q in qs]).reshape(-1, 2, 2)
    table = pmf_table(pmf)
    r_bdd = table.mean[:, [0, 1], [1, 0]].min(axis=1).tolist()
    return list(zip(qs, _autarky_rates(table, range(len(qs))), r_bdd))
