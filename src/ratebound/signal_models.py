"""State spaces, signal families, and log-likelihood ratio evaluation."""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

_PRIOR_TOL = 1e-12
_PMF_TOL = 1e-9


def is_count(value, least: int) -> bool:
    """True iff value is an integer, not a bool, of at least `least`: the
    one check of every count and state index a config gives."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return integer and value >= least


def is_real(value) -> bool:
    """True iff value is a real number, not a bool, that is a finite float:
    the one check of every real a config gives (p, sigma, delta, prior, pmf
    and mean entries). A string is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _real(value, what: str) -> float:
    """value as a float, once is_real passes it; else ValueError on what."""
    if not is_real(value):
        raise ValueError(f"{what} must be a finite real number, not {value!r}")
    return float(value)


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
            prior = tuple(_real(q, "a prior entry") for q in self.prior)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real(self.p, "p"))


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
        object.__setattr__(self, "pmf", _freeze_nested(self.pmf, "a pmf entry"))


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
        object.__setattr__(self, "means", _freeze_nested(self.means, "a mean"))
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))


def _freeze_nested(values, what: str):
    """values, an array or nested lists and tuples, as nested tuples of
    floats, each entry checked by _real. Plain values (see _plain) of one
    shape whose entries are all finite are converted whole, row by row;
    anything else goes entry by entry, so that an error names the first
    offending value."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        return _real(values, what)
    if _plain(values):
        # an int too large for a float, or ragged rows, raise
        with contextlib.suppress(OverflowError, ValueError):
            array = np.array(values, dtype=float)
            if np.isfinite(array).all():
                return _tuples(array.tolist())
    return tuple(_freeze_nested(v, what) for v in values)


def _plain(values) -> bool:
    """True for a numeric array, and for nested lists and tuples whose
    entries are all plain floats and ints (not bools)."""
    if isinstance(values, np.ndarray):
        return values.ndim > 0 and values.dtype.kind in "fiu"
    level = [values]
    while level and set(map(type, level)) <= {list, tuple}:
        level = list(chain.from_iterable(level))
    return set(map(type, level)) <= {float, int}


def _tuples(rows: list) -> tuple:
    """Nested lists, as ndarray.tolist() gives them, as nested tuples."""
    return tuple(map(_tuples, rows) if rows and type(rows[0]) is list else rows)


def per_agent(rows: np.ndarray) -> np.ndarray:
    """Per-agent parameters with the agent axis first; a length-1 agent axis
    when every agent has the same, which keeps array operations on the
    scalar fast path."""
    return rows[:1] if (rows == rows[0]).all() else rows


@dataclass(frozen=True)
class SignalModel:
    """A signal distribution per agent and state, conditionally i.i.d. over periods.

    Immutable, its read-only arrays included; all operations are pure given
    the seed.
    Structural problems (bad shapes, non-probability rows) raise here;
    admissibility violations are reported by validate().
    """

    states: StateSpace
    family: BinarySymmetric | Finite | Gaussian
    n_agents: int = 1

    def __post_init__(self) -> None:
        if not is_count(self.n_agents, 1):
            raise ValueError("n_agents must be a positive integer")
        object.__setattr__(self, "n_agents", operator.index(self.n_agents))
        n, k = self.n_agents, self.states.n_states
        if isinstance(self.family, BinarySymmetric):
            p = self.family.p
            pmf = np.empty((n, 2, 2))
            pmf[:, 0] = (p, 1.0 - p)
            pmf[:, 1] = (1.0 - p, p)
            pmf.flags.writeable = False
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
            pmf.flags.writeable = False
            object.__setattr__(self, "_pmf", pmf)
        elif isinstance(self.family, Gaussian):
            means = np.asarray(self.family.means, dtype=float)
            if means.ndim == 1:
                means = np.broadcast_to(means, (n,) + means.shape).copy()
            if means.ndim != 2 or means.shape != (n, k):
                raise ValueError(
                    "means must have shape (n_agents, n_states) or (n_states,)"
                )
            means.flags.writeable = False
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

    @property
    def pmf(self) -> np.ndarray:
        """Probabilities over the finite support, shape (agents, states,
        support)."""
        return self._pmf

    @property
    def means(self) -> np.ndarray:
        """Signal means of a Gaussian family, shape (agents, states)."""
        return self._means

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
            sigma = self.family.sigma
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

    def validate(self) -> list[str]:
        """Return every violated admissibility condition; empty iff admissible."""
        violations: list[str] = []
        if isinstance(self.family, BinarySymmetric):
            if self.states.n_states != 2:
                violations.append("binary symmetric family requires exactly 2 states")
            if not 0.5 < self.family.p < 1.0:
                violations.append("p must lie in (1/2,1)")
            return violations
        # every agent and pair f < g at once, in the order agent, f, g
        f, g = np.triu_indices(self.states.n_states, 1)
        if isinstance(self.family, Gaussian):
            if self.family.sigma <= 0.0:
                violations.append("sigma must be positive")
            for agent, pair in np.argwhere(self._means[:, f] == self._means[:, g]):
                violations.append(f"LLR identically zero (agent {agent}, states "
                                  f"{f[pair]},{g[pair]}: equal means)")
            return violations
        # rows of one support are both 0.0 off it, where np.isclose holds
        masks = self._pmf > 0.0
        differ = np.any(masks[:, f] != masks[:, g], axis=2)
        close = np.all(np.isclose(self._pmf[:, f], self._pmf[:, g]), axis=2)
        for agent, pair in np.argwhere(differ | close):
            states = f"(agent {agent}, states {f[pair]},{g[pair]})"
            if differ[agent, pair]:
                violations.append(f"supports differ: absolute continuity fails {states}")
            else:
                violations.append(f"LLR identically zero {states}")
        return violations

    # -- helpers -------------------------------------------------------------

    def _check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent index {agent} out of range")

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.states.n_states:
            raise ValueError(f"state index {state} out of range")


# numpy's Generator.random() is (w >> 11) * 2**-53 for a raw 64-bit word w,
# so a uniform clears an edge e exactly when w >= ceil(e * 2**53) << 11.
_UNIFORM_BITS = 53
_WORD_SHIFT = np.uint64(64 - _UNIFORM_BITS)


@dataclass(frozen=True)
class WordEdges:
    """The inverse CDF of one pmf row, or of a stack of rows, on raw words.

    thresholds has shape (..., L-1), uint64: a word draws an index past
    atom j when it is at or above thresholds[..., j]. cap holds each row's
    largest drawable index, or is None when every row can draw its last atom.
    """

    thresholds: np.ndarray
    cap: np.ndarray | None


def word_edges(pmf) -> WordEdges:
    """Word thresholds of pmf: one probability row of length L, or a stack
    of rows of shape (..., L).

    Edge j is the CDF value e = cumsum(pmf)_j, and a word clears it when its
    uniform u = (w >> 11) * 2**-53 has u >= e, i.e. w >= ceil(e * 2**53) << 11.
    Edges at or below 0 are cleared by every word (threshold 0); edges with
    ceil(e * 2**53) = 2**53, which a row summing to slightly more than 1 can
    have, by none. Those edges, and the edges past a row's last atom of
    positive mass, are left out through the cap, so neither can be drawn.
    """
    pmf = np.asarray(pmf, dtype=float)
    top = 2.0**_UNIFORM_BITS
    cuts = np.clip(np.ceil(np.cumsum(pmf, axis=-1)[..., :-1] * top), 0.0, top)
    reachable = cuts < top
    # cuts never decrease, so the unreachable edges come last; the largest
    # threshold keeps the thresholds nondecreasing.
    thresholds = np.where(
        reachable, cuts.astype(np.uint64) << _WORD_SHIFT, np.uint64(2**64 - 1)
    )
    last = pmf.shape[-1] - 1 - np.argmax(pmf[..., ::-1] > 0.0, axis=-1)
    cap = np.minimum(reachable.sum(axis=-1), last)
    return WordEdges(thresholds, cap if (cap < pmf.shape[-1] - 1).any() else None)


def indices_from_words(edges: WordEdges, words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit Philox words to support indices by the inverse CDF.

    edges comes from word_edges; a stack of rows of shape (..., L) broadcasts
    its leading shape against the words (per-agent rows of shape
    (n_agents, 1, L) against words of shape (..., n_agents, T)). The index is
    the number of thresholds at or below the word, capped at the row's last
    reachable atom of positive mass. It equals the inverse CDF of the
    uniform numpy's random() makes of the same word, searchsorted(cumsum(pmf),
    u, side="right"), clipped to that atom. Indices take the smallest signed
    integer type that holds them: int8 up to 128 atoms.

    One word per draw, so streams of words align one-to-one with draws.
    Shared by every sampling path in the package to keep them bit-identical.
    """
    thresholds = edges.thresholds
    n_edges = thresholds.shape[-1]
    dtype = np.min_scalar_type(-(n_edges + 1))
    # the first comparison's bools become the int8 counter in place
    idx = np.greater_equal(words, thresholds[..., 0]).view(np.int8)
    idx = idx.astype(dtype, copy=False)
    for j in range(1, n_edges):
        idx += words >= thresholds[..., j]
    if edges.cap is not None:
        np.minimum(idx, edges.cap.astype(dtype), out=idx)
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
    try:
        if kind == "binary_symmetric":
            family = BinarySymmetric(p=fam["p"])
        elif kind == "finite":
            family = Finite(support=tuple(fam["support"]), pmf=fam["pmf"])
        elif kind == "gaussian":
            family = Gaussian(means=fam["means"], sigma=fam["sigma"])
        else:
            raise ValueError(f"unknown family type {kind!r}")
    except KeyError as exc:
        raise ValueError(f"{kind} family needs {exc}") from None
    return SignalModel(states, family, doc.get("n_agents", 1))


def model_to_json(model: SignalModel) -> dict:
    """Inverse of model_from_json. The family is written as given, a pmf or
    means given once per state included, so the model reads back equal."""
    if isinstance(model.family, BinarySymmetric):
        fam = {"type": "binary_symmetric", "p": model.family.p}
    elif isinstance(model.family, Finite):
        fam = {
            "type": "finite",
            "support": list(model.family.support),
            "pmf": np.array(model.family.pmf).tolist(),
        }
    else:
        fam = {
            "type": "gaussian",
            "means": np.array(model.family.means).tolist(),
            "sigma": model.family.sigma,
        }
    return {
        "states": list(model.states.labels),
        "prior": list(model.states.prior),
        "family": fam,
        "n_agents": model.n_agents,
    }
