"""State spaces, signal families, and log-likelihood ratio evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PRIOR_TOL = 1e-12
_PMF_TOL = 1e-9

# spawn-key domains keep the sampling streams of different consumers disjoint
_DOMAIN_PROFILE = 1


@dataclass(frozen=True)
class StateSpace:
    """Finite set of world states with a full-support prior.

    labels: ordered, distinct state identifiers (at least 2).
    prior: probability vector over states; None means uniform.
    """

    labels: tuple
    prior: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(labels) < 2:
            raise ValueError("a state space needs at least 2 states")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be distinct")
        if self.prior is None:
            prior = tuple(1.0 / len(labels) for _ in labels)
        else:
            prior = tuple(float(q) for q in self.prior)
            if len(prior) != len(labels):
                raise ValueError("prior length must match the number of states")
            if any(q <= 0.0 for q in prior):
                raise ValueError("prior must have full support (all entries positive)")
            if abs(sum(prior) - 1.0) > _PRIOR_TOL:
                raise ValueError("prior must sum to 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)

    @property
    def n_states(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class BinarySymmetric:
    """Two states, two signals; the signal matches the state with probability p.

    Signal values are the state indices 0 and 1 (signal k points to state k).
    Admissibility (checked by SignalModel.validate) requires p in (1/2, 1).
    """

    p: float


@dataclass(frozen=True)
class Finite:
    """Finitely supported signals with per-agent, per-state pmfs.

    pmf may be nested per agent (agents x states x support) or given once per
    state (states x support) and broadcast across agents.
    """

    support: tuple
    pmf: tuple

    def __post_init__(self) -> None:
        support = tuple(self.support)
        if len(support) < 2:
            raise ValueError("support needs at least 2 signal values")
        if len(set(support)) != len(support):
            raise ValueError("support values must be distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pmf", _freeze_nested(self.pmf))


@dataclass(frozen=True)
class Gaussian:
    """Gaussian signals with per-agent, per-state means and one shared sigma.

    means may be nested per agent (agents x states) or given once per state
    and broadcast. The shared sigma keeps the moment generating function of
    the log-likelihood ratio finite everywhere.
    """

    means: tuple
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", _freeze_nested(self.means))


def _freeze_nested(values):
    if isinstance(values, (list, tuple, np.ndarray)):
        return tuple(_freeze_nested(v) for v in values)
    return float(values)


@dataclass(frozen=True)
class SignalModel:
    """A signal distribution per agent and state, conditionally i.i.d. over periods.

    Immutable after construction; all operations are pure given the seed.
    Structural problems (bad shapes, non-probability rows) raise here;
    admissibility violations are reported by validate().
    """

    states: StateSpace
    family: BinarySymmetric | Finite | Gaussian
    n_agents: int = 1

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be positive")
        n, k = self.n_agents, self.states.n_states
        if isinstance(self.family, BinarySymmetric):
            p = float(self.family.p)
            pmf = np.empty((n, 2, 2))
            pmf[:, 0] = (p, 1.0 - p)
            pmf[:, 1] = (1.0 - p, p)
            object.__setattr__(self, "_pmf", pmf)
        elif isinstance(self.family, Finite):
            pmf = np.asarray(self.family.pmf, dtype=float)
            if pmf.ndim == 2:
                pmf = np.broadcast_to(pmf, (n,) + pmf.shape).copy()
            if pmf.ndim != 3 or pmf.shape[0] != n or pmf.shape[1] != k:
                raise ValueError(
                    "pmf must have shape (n_agents, n_states, support) "
                    "or (n_states, support)"
                )
            if pmf.shape[2] != len(self.family.support):
                raise ValueError("pmf rows must match the support length")
            if np.any(pmf < 0.0):
                raise ValueError("pmf entries must be nonnegative")
            if np.any(np.abs(pmf.sum(axis=2) - 1.0) > _PMF_TOL):
                raise ValueError("each per-state pmf must sum to 1")
            object.__setattr__(self, "_pmf", pmf)
        elif isinstance(self.family, Gaussian):
            means = np.asarray(self.family.means, dtype=float)
            if means.ndim == 1:
                means = np.broadcast_to(means, (n,) + means.shape).copy()
            if means.ndim != 2 or means.shape != (n, k):
                raise ValueError(
                    "means must have shape (n_agents, n_states) or (n_states,)"
                )
            object.__setattr__(self, "_means", means)
        else:
            raise TypeError(f"unknown signal family: {self.family!r}")

    # -- support / density accessors -------------------------------------

    @property
    def has_finite_support(self) -> bool:
        return not isinstance(self.family, Gaussian)

    @property
    def support(self) -> tuple:
        """Signal values for finitely supported families."""
        if isinstance(self.family, BinarySymmetric):
            return (0, 1)
        if isinstance(self.family, Finite):
            return self.family.support
        raise TypeError("Gaussian signals have no finite support")

    def pmf_row(self, agent: int, state: int) -> np.ndarray:
        """Probability vector over the support, for one agent and state."""
        self._check_agent(agent)
        self._check_state(state)
        return self._pmf[agent, state]

    def gaussian_params(self, agent: int, state: int) -> tuple[float, float]:
        """(mean, sigma) of the signal for one agent and state."""
        if not isinstance(self.family, Gaussian):
            raise TypeError("not a Gaussian model")
        self._check_agent(agent)
        self._check_state(state)
        return float(self._means[agent, state]), float(self.family.sigma)

    # -- core operations ---------------------------------------------------

    def llr(self, agent: int, f: int, g: int, s) -> float:
        """Log-likelihood ratio log(density_f(s) / density_g(s)) for one signal.

        f and g are state indices; s is a support value (finite families) or a
        real (Gaussian). Antisymmetric in (f, g) exactly.
        """
        self._check_agent(agent)
        self._check_state(f)
        self._check_state(g)
        if f == g:
            raise ValueError("llr requires two distinct states")
        if isinstance(self.family, Gaussian):
            mf = self._means[agent, f]
            mg = self._means[agent, g]
            sigma = float(self.family.sigma)
            return float((mf - mg) * (float(s) - (mf + mg) / 2.0) / sigma**2)
        try:
            idx = self.support.index(s)
        except ValueError:
            raise ValueError(f"signal value {s!r} is not in the support") from None
        pf = self._pmf[agent, f, idx]
        pg = self._pmf[agent, g, idx]
        if pf <= 0.0 or pg <= 0.0:
            raise ValueError(f"signal value {s!r} has zero probability")
        return math.log(pf) - math.log(pg)

    def sample_profile(self, state: int, period_count: int, seed) -> np.ndarray:
        """Draw an (n_agents, period_count) matrix of signals under one state.

        Draws are i.i.d. across agents and periods conditional on the state.
        Each agent has her own counter-based substream, so the matrix is a pure
        function of the seed alone: evaluation order and worker counts cannot
        change it. Finite families return support values, Gaussian returns reals.
        """
        self._check_state(state)
        if period_count < 0:
            raise ValueError("period_count must be nonnegative")
        root = np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_PROFILE, state))
        streams = root.spawn(self.n_agents)
        if isinstance(self.family, Gaussian):
            out = np.empty((self.n_agents, period_count))
            sigma = float(self.family.sigma)
            for agent, ss in enumerate(streams):
                gen = np.random.Generator(np.random.Philox(ss))
                out[agent] = gen.normal(self._means[agent, state], sigma, period_count)
            return out
        u = np.empty((self.n_agents, period_count))
        for agent, ss in enumerate(streams):
            u[agent] = np.random.Generator(np.random.Philox(ss)).random(period_count)
        idx = indices_from_uniforms(self._pmf[:, state, None, :], u)
        support = np.asarray(self.support)
        return support[idx]

    def validate(self) -> list[str]:
        """Return every violated admissibility condition; empty iff admissible."""
        violations: list[str] = []
        if isinstance(self.family, BinarySymmetric):
            if self.states.n_states != 2:
                violations.append("binary symmetric family requires exactly 2 states")
            if not 0.5 < self.family.p < 1.0:
                violations.append("p must lie in (1/2,1)")
            return violations
        if isinstance(self.family, Gaussian):
            if float(self.family.sigma) <= 0.0:
                violations.append("sigma must be positive")
            for agent in range(self.n_agents):
                for f in range(self.states.n_states):
                    for g in range(f + 1, self.states.n_states):
                        if self._means[agent, f] == self._means[agent, g]:
                            violations.append(
                                f"LLR identically zero (agent {agent}, states {f},{g}:"
                                " equal means)"
                            )
            return violations
        for agent in range(self.n_agents):
            support_masks = self._pmf[agent] > 0.0
            for f in range(self.states.n_states):
                for g in range(f + 1, self.states.n_states):
                    if not np.array_equal(support_masks[f], support_masks[g]):
                        violations.append(
                            "supports differ: absolute continuity fails "
                            f"(agent {agent}, states {f},{g})"
                        )
                        continue
                    mask = support_masks[f]
                    if np.allclose(
                        self._pmf[agent, f, mask], self._pmf[agent, g, mask]
                    ):
                        violations.append(
                            f"LLR identically zero (agent {agent}, states {f},{g})"
                        )
        return violations

    # -- helpers -------------------------------------------------------------

    def _check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent index {agent} out of range")

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.states.n_states:
            raise ValueError(f"state index {state} out of range")


def indices_from_uniforms(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0,1) to support indices by the inverse CDF of pmf.

    pmf is one probability row of length L, or a stack of rows of shape
    (..., L) whose leading shape broadcasts against u (per-agent rows of
    shape (n_agents, 1, L) against uniforms of shape (..., n_agents, T)).
    The index is the number of CDF edges at or below u, not counting the
    last edge: sum over j < L-1 of [u >= cumsum(pmf)_j]. A cumsum of
    nonnegative entries never decreases, so this equals
    searchsorted(edges, u, side="right") clipped to L-1; for binary signals
    it is the single compare u >= pmf[0]. Indices take the smallest signed
    integer type that holds them: int8 up to 128 atoms.

    A row may sum to slightly less than 1, so u can clear every edge; the
    index is then clipped to the row's last atom of positive mass, never a
    trailing atom of zero mass. Rows without trailing zeros are unaffected.

    One uniform per draw, so streams of uniforms align one-to-one with draws.
    Shared by every sampling path in the package to keep them bit-identical.
    """
    pmf = np.asarray(pmf)
    edges = np.cumsum(pmf, axis=-1)
    dtype = np.min_scalar_type(-edges.shape[-1])
    idx = np.zeros(np.broadcast_shapes(u.shape, edges.shape[:-1]), dtype=dtype)
    for j in range(edges.shape[-1] - 1):
        idx += u >= edges[..., j]
    last = edges.shape[-1] - 1 - np.argmax(pmf[..., ::-1] > 0.0, axis=-1)
    if (last < edges.shape[-1] - 1).any():
        np.minimum(idx, last.astype(dtype), out=idx)
    return idx


# -- JSON ingestion ------------------------------------------------------------


def model_from_json(doc: dict) -> SignalModel:
    """Build a SignalModel from {"states", "prior", "family", "n_agents"}."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    for key in ("states", "family"):
        if key not in doc:
            raise ValueError(f"model document is missing {key!r}")
    states = StateSpace(tuple(doc["states"]), doc.get("prior"))
    fam = doc["family"]
    if not isinstance(fam, dict) or "type" not in fam:
        raise ValueError("family must be an object with a 'type' field")
    kind = fam["type"]
    if kind == "binary_symmetric":
        family = BinarySymmetric(p=float(fam["p"]))
    elif kind == "finite":
        family = Finite(support=tuple(fam["support"]), pmf=fam["pmf"])
    elif kind == "gaussian":
        family = Gaussian(means=fam["means"], sigma=float(fam["sigma"]))
    else:
        raise ValueError(f"unknown family type {kind!r}")
    return SignalModel(states, family, int(doc.get("n_agents", 1)))


def model_to_json(model: SignalModel) -> dict:
    """Inverse of model_from_json."""
    if isinstance(model.family, BinarySymmetric):
        fam = {"type": "binary_symmetric", "p": model.family.p}
    elif isinstance(model.family, Finite):
        fam = {
            "type": "finite",
            "support": list(model.family.support),
            "pmf": model._pmf.tolist(),
        }
    else:
        fam = {
            "type": "gaussian",
            "means": model._means.tolist(),
            "sigma": model.family.sigma,
        }
    return {
        "states": list(model.states.labels),
        "prior": list(model.states.prior),
        "family": fam,
        "n_agents": model.n_agents,
    }
