"""Cumulant generating functions, convex conjugates, and binomial tail bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ratebound.signal_models import Gaussian, SignalModel

LEGENDRE_TOL = 1e-9
LEGENDRE_MAX_ITER = 400
# Newton steps can alternate around the root, each inside the bracket, and
# barely shrink it; past this iteration every step bisects. A lane that
# Newton solves in fewer iterations (up to 186 seen) takes the same steps.
_STALL_AFTER = 200


@dataclass(frozen=True)
class ConjugateResult:
    """Convex conjugate value sup_z (eta*z - cgf(z)) at one eta.

    argmax_z is the maximizing point; +-inf marks an eta at or beyond a
    finite endpoint of the llr range, where the value is the limiting one
    (-log of the extreme atom's probability).
    """

    eta: float
    value: float
    argmax_z: float
    iterations: int

    @property
    def at_boundary(self) -> bool:
        return math.isinf(self.argmax_z)


class PairKernel:
    """Log-likelihood ratio law of one agent under one ordered state pair (f, g).

    Caches the llr atoms under f (finite families) or the closed-form moments
    (Gaussian), and exposes the cumulant generating function, its derivatives,
    and the Fenchel-Legendre transform. Immutable after construction; all
    methods are pure, so kernels are safe to share across threads.

    mean is E_f[llr] (nats per period); domain is (inf llr, sup llr).
    """

    def __init__(self, model: SignalModel, agent: int, f: int, g: int):
        if f == g:
            raise ValueError("a pair kernel requires two distinct states")
        self.model = model
        self.agent = agent
        self.f = f
        self.g = g
        if isinstance(model.family, Gaussian):
            mean_f, sigma = model.gaussian_params(agent, f)
            mean_g, _ = model.gaussian_params(agent, g)
            diff = mean_f - mean_g
            self._gaussian = True
            self.variance = diff**2 / sigma**2
            self.mean = self.variance / 2.0
            self.domain = (-math.inf, math.inf)
            self._rows = None
        else:
            pmf_f = model.pmf_row(agent, f)
            pmf_g = model.pmf_row(agent, g)
            mask = pmf_f > 0.0
            if np.any(pmf_g[mask] <= 0.0):
                raise ValueError(
                    "kernel requires mutually absolutely continuous states"
                )
            self._gaussian = False
            log_pf = np.log(pmf_f[mask])
            llrs = log_pf - np.log(pmf_g[mask])
            # The kernel's lane row: log p_f, llr and llr^2 over its atoms.
            self._rows = np.array([log_pf, llrs, llrs**2])
            self.mean = float(np.sum(pmf_f[mask] * llrs))
            self.variance = float(
                np.sum(pmf_f[mask] * self._rows[2]) - self.mean**2
            )
            self.domain = (float(llrs.min()), float(llrs.max()))

    # -- cumulant generating function -------------------------------------

    def cgf(self, z):
        """log E_f[exp(z * llr)]; exact log-sum-exp, finite for every real z."""
        if self._gaussian:
            return self.mean * z + self.variance * np.square(z) / 2.0
        vals = _cgf(self._rows, np.asarray(z, dtype=float))
        return float(vals) if vals.ndim == 0 else vals

    def cgf_prime(self, z: float) -> float:
        """d/dz cgf(z) = E[llr e^{z llr}] / E[e^{z llr}], strictly increasing."""
        if self._gaussian:
            return self.mean + self.variance * z
        return float(_tilted_mean(self._rows, np.asarray(z, dtype=float)))

    def cgf_second(self, z: float) -> float:
        """d2/dz2 cgf(z): the variance under the z-tilted law (positive)."""
        if self._gaussian:
            return self.variance
        w = _tilted_law(self._rows, np.asarray(z, dtype=float))
        m1, m2 = np.add.reduce(w * self._rows[1:], axis=-1).tolist()
        return m2 - m1**2

    # -- Fenchel-Legendre transform ----------------------------------------

    def legendre(self, eta: float) -> ConjugateResult:
        """sup_z (eta*z - cgf(z)), solved via the strictly increasing cgf_prime.

        The one-lane case of `conjugates`: interior etas (inside the open llr
        range) are solved by a bracketed, safeguarded Newton iteration on
        cgf_prime(z) = eta to |residual| <= 1e-9. Etas at or beyond a finite
        endpoint return the limiting value -log P_f[llr = endpoint] with
        argmax_z = +-inf.
        """
        eta = float(eta)
        value, z, iterations = conjugates((self,), (eta,))
        return ConjugateResult(eta, float(value[0]), float(z[0]), int(iterations[0]))

    def _endpoint_value(self, endpoint: float) -> float:
        scale = max(1.0, abs(endpoint))
        log_pf, llrs = self._rows[0], self._rows[1]
        mass = np.exp(log_pf[np.abs(llrs - endpoint) <= 1e-12 * scale]).sum()
        return -math.log(mass)


def llr_table(model: SignalModel) -> np.ndarray:
    """Every agent's llr increment per atom, shape (agents, atoms, k, k):
    table[a, s, f, g] = log p_f(s) - log p_g(s) for agent a. An atom with
    zero mass in every state of its agent is never drawn; its increments are
    0. Raises ValueError unless each agent's states share one support."""
    pmf = model.pmf
    support = pmf > 0.0
    if np.any(support[:, :, None, :] > support[:, None, :, :]):
        raise ValueError("kernel requires mutually absolutely continuous states")
    with np.errstate(divide="ignore"):
        logs = np.log(pmf).transpose(0, 2, 1)
    logs[~support.any(axis=1)] = 0.0
    return logs[..., :, None] - logs[..., None, :]


def pair_means(model: SignalModel) -> np.ndarray:
    """E_f[llr] of every agent and ordered state pair, shape (agents, k, k),
    zero on the diagonal: means[a, f, g] = PairKernel(model, a, f, g).mean."""
    k = model.states.n_states
    means = np.zeros((model.n_agents, k, k))
    for a, f, g in product(range(model.n_agents), range(k), range(k)):
        if f != g:
            means[a, f, g] = PairKernel(model, a, f, g).mean
    return means


def argmin_pair(matrix: np.ndarray) -> tuple[int, int]:
    """The ordered state pair (f, g), f != g, at which a (k, k) matrix is
    smallest; ties go to the first pair in row-major order."""
    off = np.array(matrix, dtype=float)
    np.fill_diagonal(off, np.inf)
    return divmod(int(off.argmin()), len(off))


def conjugates(kernels, etas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugates of many (kernel, eta) lanes: lane i is the i-th kernel at
    the i-th eta of `etas` in C order. `kernels` is any iterable with one
    kernel per eta, read once.

    Returns (value, argmax_z, iterations) arrays shaped like `etas`; each
    lane equals its kernel's `legendre(eta).value`, `.argmax_z` and
    `.iterations`. Gaussian lanes take the closed form and etas at or beyond
    a finite endpoint the limiting value, lane by lane. The interior finite
    lanes are solved by one lockstep Newton iteration per atom count.
    """
    eta = np.asarray(etas, dtype=float)
    flat = eta.ravel()
    value = np.empty(flat.size)
    argmax = np.empty(flat.size)
    iterations = np.zeros(flat.size, dtype=np.int64)
    groups = {}  # atom count: (interior lanes, their kernel rows)
    for lane, (kern, e) in enumerate(zip(kernels, flat.tolist(), strict=True)):
        if kern._gaussian:
            argmax[lane] = (e - kern.mean) / kern.variance
            value[lane] = (e - kern.mean) ** 2 / (2.0 * kern.variance)
        elif e >= kern.domain[1]:
            value[lane] = kern._endpoint_value(kern.domain[1])
            argmax[lane] = math.inf
        elif e <= kern.domain[0]:
            value[lane] = kern._endpoint_value(kern.domain[0])
            argmax[lane] = -math.inf
        else:
            lanes, rows = groups.setdefault(kern._rows.shape[1], ([], []))
            lanes.append(lane)
            rows.append(kern._rows)
    for lanes, rows in groups.values():
        rows = np.array(rows)
        lanes = np.array(lanes, dtype=np.intp)
        lane_eta = flat[lanes]
        z, iterations[lanes] = _solve_tilt(rows, lane_eta)
        argmax[lanes] = z
        value[lanes] = lane_eta * z - _cgf(rows, z)
    return (
        value.reshape(eta.shape),
        argmax.reshape(eta.shape),
        iterations.reshape(eta.shape),
    )


# Kernel rows are stacked as (..., 3, atoms): log p_f, llr, llr^2. Each lane
# reduces its own contiguous row, so a lane's sums add its atoms in the same
# order, and give the same bits, as a one-kernel solve.


def _cgf(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    terms = z[..., None] * rows[..., 1, :]
    terms += rows[..., 0, :]
    top = np.maximum.reduce(terms, axis=-1)
    terms -= top[..., None]
    return top + np.log(np.add.reduce(np.exp(terms), axis=-1))


def _tilted_law(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The z-tilted law of each row: weights prop. to p_f * e^{z llr}."""
    w = z[..., None] * rows[..., 1, :]
    w += rows[..., 0, :]
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return w


def _tilted_mean(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.add.reduce(_tilted_law(rows, z) * rows[..., 1, :], axis=-1)


def _bracket(rows: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(lo, hi) per lane with cgf_prime(lo) < eta < cgf_prime(hi): from -1
    and 1, an end whose slope is not yet past eta doubles. The scalar rule's
    steps 1, 2, 4, ... land exactly on these powers of two."""
    ends = np.empty((2, eta.size))
    ends[0], ends[1] = -1.0, 1.0
    while True:
        slope = _tilted_mean(rows, ends)
        short = slope >= eta
        np.less_equal(slope[1], eta, out=short[1])
        if not short.any():
            return ends
        ends[short] *= 2.0


def _solve_tilt(rows: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cgf_prime(z) = eta for every lane of (lanes, 3, atoms) rows, in
    lockstep: each lane keeps its own bracket, takes the Newton step when it
    lands inside the bracket, up to _STALL_AFTER iterations, and bisects
    otherwise, and leaves the loop once its residual is within LEGENDRE_TOL.
    Returns (z, iterations)."""
    z_out = np.empty(eta.size)
    iters_out = np.empty(eta.size, dtype=np.int64)
    lo, hi = _bracket(rows, eta)
    z = (lo + hi) / 2.0
    lanes = np.arange(eta.size)
    # No positive tilted variance, or an overflowing step, means an
    # infinite step, which bisects.
    with np.errstate(divide="ignore", over="ignore"):
        for iteration in range(1, LEGENDRE_MAX_ITER + 1):
            w = _tilted_law(rows, z)
            slope, second = np.add.reduce(w[:, None, :] * rows[:, 1:, :], axis=-1).T
            residual = slope - eta
            done = np.abs(residual) <= LEGENDRE_TOL
            finished = np.count_nonzero(done)
            if finished:
                z_out[lanes[done]] = z[done]
                iters_out[lanes[done]] = iteration
                if finished == lanes.size:
                    return z_out, iters_out
                keep = ~done
                lanes, rows, eta, z = lanes[keep], rows[keep], eta[keep], z[keep]
                lo, hi, residual = lo[keep], hi[keep], residual[keep]
                slope, second = slope[keep], second[keep]
            # Python's m**2 (libm pow) and numpy's m*m differ in the last bit
            # on about 0.1% of floats, enough to move argmax_z by one ulp.
            curvature = second - np.array([m**2 for m in slope.tolist()])
            step = np.where(curvature > 0.0, residual / curvature, np.inf)
            if iteration > _STALL_AFTER:
                step[:] = np.inf
            above = residual > 0.0
            hi = np.where(above, z, hi)
            lo = np.where(above, lo, z)
            candidate = z - step
            z = np.where(
                (lo < candidate) & (candidate < hi), candidate, (lo + hi) / 2.0
            )
    raise RuntimeError(
        f"legendre solve did not converge for eta={eta[0]} "
        f"(best bracket [{lo[0]}, {hi[0]}])"
    )


def kl_bernoulli(a: float, b: float) -> float:
    """Bernoulli relative entropy D(a||b), with the 0*log(0) = 0 convention.

    b in {0, 1} with a != b yields math.inf.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0,1]")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0,1]")
    if b in (0.0, 1.0):
        return 0.0 if a == b else math.inf
    total = 0.0
    if a > 0.0:
        total += a * math.log(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return total


def binomial_tail_bound(n: int, k: int, q: float) -> float:
    """Chernoff bound e^{-n D(k/n || q)} on P[Binomial(n, q) <= k].

    Valid for the left tail only (k/n <= q).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    frac = k / n
    if frac > q:
        raise ValueError("bound requires k/n <= q (left tail)")
    return math.exp(-n * kl_bernoulli(frac, q))
