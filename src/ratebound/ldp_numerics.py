"""Cumulant generating functions, convex conjugates, and binomial tail bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ratebound.signal_models import Gaussian, SignalModel

LEGENDRE_TOL = 1e-9
LEGENDRE_MAX_ITER = 200


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
            self._llrs = None
            self._log_pf = None
        else:
            pmf_f = model.pmf_row(agent, f)
            pmf_g = model.pmf_row(agent, g)
            mask = pmf_f > 0.0
            if np.any(pmf_g[mask] <= 0.0):
                raise ValueError(
                    "kernel requires mutually absolutely continuous states"
                )
            self._gaussian = False
            self._log_pf = np.log(pmf_f[mask])
            self._llrs = self._log_pf - np.log(pmf_g[mask])
            self.mean = float(np.sum(pmf_f[mask] * self._llrs))
            self.variance = float(
                np.sum(pmf_f[mask] * self._llrs**2) - self.mean**2
            )
            self.domain = (float(self._llrs.min()), float(self._llrs.max()))

    # -- cumulant generating function -------------------------------------

    def cgf(self, z):
        """log E_f[exp(z * llr)]; exact log-sum-exp, finite for every real z."""
        if self._gaussian:
            return self.mean * z + self.variance * np.square(z) / 2.0
        z = np.asarray(z, dtype=float)
        terms = self._log_pf + z[..., None] * self._llrs
        top = terms.max(axis=-1)
        vals = top + np.log(np.exp(terms - top[..., None]).sum(axis=-1))
        return float(vals) if vals.ndim == 0 else vals

    def cgf_prime(self, z: float) -> float:
        """d/dz cgf(z) = E[llr e^{z llr}] / E[e^{z llr}], strictly increasing."""
        if self._gaussian:
            return self.mean + self.variance * z
        w = self._tilted_weights(z)
        return float(np.sum(w * self._llrs))

    def cgf_second(self, z: float) -> float:
        """d2/dz2 cgf(z): the variance under the z-tilted law (positive)."""
        if self._gaussian:
            return self.variance
        w = self._tilted_weights(z)
        m1 = float(np.sum(w * self._llrs))
        return float(np.sum(w * self._llrs**2)) - m1**2

    def _tilted_weights(self, z: float) -> np.ndarray:
        logw = self._log_pf + z * self._llrs
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()

    # -- Fenchel-Legendre transform ----------------------------------------

    def legendre(self, eta: float) -> ConjugateResult:
        """sup_z (eta*z - cgf(z)), solved via the strictly increasing cgf_prime.

        Interior etas (inside the open llr range) are solved by a bracketed,
        safeguarded Newton iteration on cgf_prime(z) = eta to |residual| <=
        1e-9. Etas at or beyond a finite endpoint return the limiting value
        -log P_f[llr = endpoint] with argmax_z = +-inf.
        """
        eta = float(eta)
        if self._gaussian:
            z = (eta - self.mean) / self.variance
            value = (eta - self.mean) ** 2 / (2.0 * self.variance)
            return ConjugateResult(eta, value, z, 0)
        lo_llr, hi_llr = self.domain
        if eta >= hi_llr:
            return ConjugateResult(eta, self._endpoint_value(hi_llr), math.inf, 0)
        if eta <= lo_llr:
            return ConjugateResult(
                eta, self._endpoint_value(lo_llr), -math.inf, 0
            )
        z, iterations = self._solve_tilt(eta)
        value = eta * z - self.cgf(z)
        return ConjugateResult(eta, value, z, iterations)

    def _endpoint_value(self, endpoint: float) -> float:
        scale = max(1.0, abs(endpoint))
        mass = np.exp(
            self._log_pf[np.abs(self._llrs - endpoint) <= 1e-12 * scale]
        ).sum()
        return -math.log(mass)

    def _solve_tilt(self, eta: float) -> tuple[float, int]:
        lo, hi = -1.0, 1.0
        step = 1.0
        while self.cgf_prime(lo) >= eta:
            lo -= step
            step *= 2.0
        step = 1.0
        while self.cgf_prime(hi) <= eta:
            hi += step
            step *= 2.0
        z = (lo + hi) / 2.0
        for iteration in range(1, LEGENDRE_MAX_ITER + 1):
            residual = self.cgf_prime(z) - eta
            if abs(residual) <= LEGENDRE_TOL:
                return z, iteration
            if residual > 0.0:
                hi = z
            else:
                lo = z
            curvature = self.cgf_second(z)
            step = residual / curvature if curvature > 0.0 else math.inf
            candidate = z - step
            if not lo < candidate < hi:
                candidate = (lo + hi) / 2.0
            z = candidate
        raise RuntimeError(
            f"legendre solve did not converge for eta={eta} "
            f"(best bracket [{lo}, {hi}])"
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
