"""Cumulant generating functions, convex conjugates, and a model's pair tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ratebound.signal_models import Gaussian, SignalModel

LEGENDRE_TOL = 1e-9
# ITP's constants (Oliveira & Takahashi, ACM TOMS 47(1), 2021): the step is
# truncated by _KAPPA1 * width**_KAPPA2 toward the midpoint, a lane may take
# _N0 iterations more than bisection would, and its bracket need not shrink
# below 2 * _EPS.
_KAPPA1 = 0.1
_KAPPA2 = 2
_N0 = 1
_EPS = 1e-13


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


class Lane(NamedTuple):
    """One agent's llr law under one ordered state pair (f, g): rows [log
    p_f, llr] over the agent's support atoms, shape (2, atoms), or None if
    Gaussian; E_f[llr], Var_f[llr] and the llr range (low, high)."""

    rows: np.ndarray | None
    mean: float
    variance: float
    low: float
    high: float

    def cgf(self, z):
        """log E_f[exp(z * llr)]; exact log-sum-exp, finite for every real z."""
        if self.rows is None:
            return self.mean * z + self.variance * np.square(z) / 2.0
        vals = _cgf(self.rows, np.asarray(z, dtype=float))
        return float(vals) if vals.ndim == 0 else vals

    def cgf_prime(self, z: float) -> float:
        """d/dz cgf(z) = E[llr e^{z llr}] / E[e^{z llr}], strictly increasing."""
        if self.rows is None:
            return self.mean + self.variance * z
        return float(_tilted_mean(self.rows, np.asarray(z, dtype=float)))


class PairKernel:
    """Log-likelihood ratio law of one agent under one ordered state pair (f, g).

    A view of one lane of the model's pair table: its cumulant generating
    function (cgf, cgf_prime, as the Lane's), and the Fenchel-Legendre
    transform. Immutable; all methods are pure, so kernels are safe to share
    across threads.

    mean is E_f[llr] (nats per period); domain is (inf llr, sup llr).
    """

    def __init__(self, model: SignalModel, agent: int, f: int, g: int):
        self.lane = pair_table(model).lanes([(agent, f, g)])[0]

    mean = property(lambda self: self.lane.mean)
    variance = property(lambda self: self.lane.variance)
    domain = property(lambda self: (self.lane.low, self.lane.high))
    cgf = property(lambda self: self.lane.cgf)
    cgf_prime = property(lambda self: self.lane.cgf_prime)

    def legendre(self, eta: float) -> ConjugateResult:
        """sup_z (eta*z - cgf(z)), solved via the strictly increasing cgf_prime.

        The one-lane case of `conjugates`: interior etas (inside the open llr
        range) are solved by bracketed ITP on cgf_prime(z) = eta, to
        |residual| <= 1e-9 or a bracket of width <= 2e-13, within its
        bracket's bisection count plus one. Etas at or beyond a finite
        endpoint return the limiting value -log P_f[llr = endpoint] with
        argmax_z = +-inf.
        """
        eta = float(eta)
        value, z, iterations = conjugates((self.lane,), (eta,))
        return ConjugateResult(eta, float(value[0]), float(z[0]), int(iterations[0]))


@dataclass(frozen=True, eq=False)
class PairTable:
    """Every agent's llr law under every ordered state pair (f, g): mean is
    the (agents, k, k) array of pair means, zero on the diagonal. A finite
    table holds the pmf and its logs, from one np.log, with 0 at atoms never
    drawn, and cuts a lane's rows and variance from them when asked; a
    Gaussian table holds the closed-form variances.
    """

    mean: np.ndarray
    variance: np.ndarray | None
    pmf: np.ndarray | None
    logs: np.ndarray | None

    def lanes(self, index) -> list[Lane]:
        """The lanes at index, a sequence of (agent, f, g) with f != g."""
        index = np.array(index, dtype=np.intp).reshape(-1, 3)
        n, k = self.mean.shape[:2]
        if not (((0 <= index) & (index < (n, k, k))).all()
                and (index[:, 1] != index[:, 2]).all()):
            raise ValueError(f"a lane needs an agent below {n} and two "
                             f"distinct states below {k}")
        a, f, g = index.T
        mean = self.mean[a, f, g].tolist()
        if self.logs is None:
            return [Lane(None, m, v, -math.inf, math.inf)
                    for m, v in zip(mean, self.variance[a, f, g].tolist())]
        lanes = [None] * len(mean)
        for members, pmf_f, log_pf, llrs in _gathers(self.pmf, self.logs, index):
            second = np.add.reduce(pmf_f * llrs**2, axis=-1)
            stats = zip(np.stack([log_pf, llrs], axis=1), second.tolist(),
                        llrs.min(axis=-1).tolist(), llrs.max(axis=-1).tolist())
            for i, (rows, sq, low, high) in zip(members.tolist(), stats):
                lanes[i] = Lane(rows, mean[i], sq - mean[i] ** 2, low, high)
        return lanes


def _gathers(pmf: np.ndarray, logs: np.ndarray, index: np.ndarray):
    """The lanes at index, (lanes, 3) rows of (agent, f, g), grouped by
    their agent's support: for each support pattern, (members, p_f, log
    p_f, llr) over its atoms. Each gather is a fresh C-contiguous (members,
    atoms) array, so each reduce over it runs over one lane's row, as np.sum
    does a lone lane's: atoms outside the support would regroup numpy's
    pairwise sum and move the last bit."""
    support = pmf[index[:, 0], 0] > 0.0
    order = np.lexsort(support.T)
    ends = np.flatnonzero((support[order[1:]] != support[order[:-1]]).any(axis=1))
    for members in np.split(order, ends + 1) if order.size else []:
        a, f, g = index[members].T[:, :, None]
        atoms = np.flatnonzero(support[members[0]])
        log_pf = logs[a, f, atoms]
        yield members, pmf[a, f, atoms], log_pf, log_pf - logs[a, g, atoms]


def pair_table(model: SignalModel) -> PairTable:
    """The model's PairTable, built on first use and kept, read-only, with
    the model, which is immutable. Raises ValueError unless each agent's
    states share one support."""
    table = vars(model).get("_pair_table")
    if table is None:
        if isinstance(model.family, Gaussian):
            diff = model.means[:, :, None] - model.means[:, None, :]
            # float ** 2 is the C library's pow; numpy's x * x can differ
            # from it in the last bit of a lane's moments.
            squares = np.reshape([d**2 for d in diff.ravel().tolist()], diff.shape)
            variance = squares / model.family.sigma**2
            table = PairTable(variance / 2.0, variance, None, None)
        else:
            table = pmf_table(model.pmf)
        for array in vars(table).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        object.__setattr__(model, "_pair_table", table)
    return table


def pmf_table(pmf: np.ndarray) -> PairTable:
    """The PairTable of an (agents, k, atoms) pmf array. Raises ValueError
    unless each agent's states share one support."""
    n, k, _ = pmf.shape
    support = pmf > 0.0
    if np.any(support[:, :, None, :] > support[:, None, :, :]):
        raise ValueError("kernel requires mutually absolutely continuous states")
    with np.errstate(divide="ignore"):
        logs = np.log(pmf)
    logs[~support] = 0.0
    index = np.argwhere(np.broadcast_to(~np.eye(k, dtype=bool), (n, k, k)))
    mean = np.zeros((n, k, k))
    for members, pmf_f, _, llrs in _gathers(pmf, logs, index):
        mean[tuple(index[members].T)] = np.add.reduce(pmf_f * llrs, axis=-1)
    return PairTable(mean, None, pmf, logs)


def llr_table(model: SignalModel) -> np.ndarray:
    """Every agent's llr increment per atom, shape (agents, atoms, k, k):
    table[a, s, f, g] = log p_f(s) - log p_g(s) for agent a, off the pair
    table's logs. An atom with zero mass in every state of its agent is never
    drawn; its increments are 0. Raises ValueError unless each agent's
    states share one support."""
    logs = pair_table(model).logs.transpose(0, 2, 1)
    return logs[..., :, None] - logs[..., None, :]


def argmin_pair(matrix: np.ndarray) -> tuple[int, int]:
    """The ordered state pair (f, g), f != g, at which a (k, k) matrix is
    smallest; ties go to the first pair in row-major order."""
    off = np.array(matrix, dtype=float)
    np.fill_diagonal(off, np.inf)
    return divmod(int(off.argmin()), len(off))


def checked_delta(table: PairTable, delta: float | None) -> float:
    """Coordination's delta, None for a tenth of the smallest pair mean over
    every agent; ValueError unless 0 < delta < that mean, which keeps every
    decisiveness threshold positive."""
    least = table.mean.min(axis=0)
    min_mean = float(least[argmin_pair(least)])
    resolved = 0.1 * min_mean if delta is None else float(delta)
    if not 0.0 < resolved < min_mean:
        raise ValueError(
            f"delta must lie in (0, {min_mean:.6g}), the smallest pair mean"
        )
    return resolved


def conjugates(lanes, etas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugates of many (lane, eta) pairs: lane i of `lanes`, a PairTable
    Lane, at the i-th eta of `etas` in C order. `lanes` is any iterable with
    one lane per eta, read once; a lane passed many times is triaged once.

    Returns (value, argmax_z, iterations) arrays shaped like `etas`; each
    entry equals its lane's PairKernel `legendre(eta)`. Gaussian lanes take
    the closed form and etas at or beyond a finite endpoint the limiting
    value. The interior finite lanes whose atom counts share `atoms // 8`
    are solved in one lockstep ITP call, each row padded at its end to the
    group's widest with zero-mass atoms (log p = -inf, llr = 0). numpy's
    pairwise sum adds a row in blocks of 8, so trailing zeros that stay
    inside the row's last block leave every reduction's bits unchanged;
    padding into a further block would regroup them.
    """
    eta = np.asarray(etas, dtype=float)
    flat = eta.ravel()
    first = {}  # id of each distinct lane: (its number, the lane)
    which = [first.setdefault(id(lane), (len(first), lane))[0] for lane in lanes]
    if len(which) != flat.size:
        raise ValueError(f"conjugates needs one lane per eta, not {len(which)} "
                         f"lanes for {flat.size} etas")
    distinct = [lane for _, lane in first.values()]
    which = np.array(which, dtype=np.intp)
    width = np.array([0 if lane.rows is None else lane.rows.shape[1]
                      for lane in distinct], dtype=np.intp)
    stats = np.array([lane[1:] for lane in distinct], dtype=float).reshape(-1, 4)
    mean, variance, low, high = stats[which].T
    value = np.empty(flat.size)
    argmax = np.empty(flat.size)
    iterations = np.zeros(flat.size, dtype=np.int64)
    gaussian = width[which] == 0
    # squared by float ** 2, the C library's pow, as pair_table squares the
    # Gaussian moments: numpy's x * x can differ from it in the last bit
    gap, spread = flat[gaussian] - mean[gaussian], variance[gaussian]
    argmax[gaussian] = gap / spread
    value[gaussian] = np.array([d**2 for d in gap.tolist()]) / (2.0 * spread)
    top = ~gaussian & (flat >= high)
    bottom = ~gaussian & ~top & (flat <= low)
    for at, side, z in ((top, 3, math.inf), (bottom, 2, -math.inf)):
        ids = _present(which[at], len(distinct))
        limit = np.empty(len(distinct))
        limit[ids] = [_endpoint_value(distinct[j].rows, stats[j, side])
                      for j in ids.tolist()]
        value[at] = limit[which[at]]
        argmax[at] = z
    interior = ~(gaussian | top | bottom)
    block = width // 8
    solved = _present(which[interior], len(distinct))
    for key in set(block[solved].tolist()):
        ids = solved[block[solved] == key]
        padded = np.empty((len(distinct), 2, width[ids].max()))
        padded[ids, 0], padded[ids, 1] = -math.inf, 0.0
        for j in ids.tolist():
            padded[j, :, :width[j]] = distinct[j].rows
        members = np.flatnonzero(interior & (block[which] == key))
        rows = padded[which[members]]
        lane_eta = flat[members]
        z, iterations[members] = _solve_tilt(rows, lane_eta)
        argmax[members] = z
        value[members] = lane_eta * z - _cgf(rows, z)
    return (
        value.reshape(eta.shape),
        argmax.reshape(eta.shape),
        iterations.reshape(eta.shape),
    )


def _present(numbers: np.ndarray, count: int) -> np.ndarray:
    """The distinct entries of numbers, a subset of range(count), ascending."""
    present = np.zeros(count, dtype=bool)
    present[numbers] = True
    return np.flatnonzero(present)


def _endpoint_value(rows: np.ndarray, endpoint: float) -> float:
    """-log P_f[llr = endpoint] of one lane's rows."""
    scale = max(1.0, abs(endpoint))
    log_pf, llrs = rows[0], rows[1]
    mass = np.exp(log_pf[np.abs(llrs - endpoint) <= 1e-12 * scale]).sum()
    return -math.log(mass)


# Lane rows are stacked as (..., 2, atoms): log p_f, llr. Each lane
# reduces its own contiguous row, so a lane's sums add its atoms in the same
# order, and give the same bits, as a one-lane solve.


def _cgf(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    terms = z[..., None] * rows[..., 1, :]
    terms += rows[..., 0, :]
    top = np.maximum.reduce(terms, axis=-1)
    terms -= top[..., None]
    return top + np.log(np.add.reduce(np.exp(terms), axis=-1))


def _tilted_mean(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """cgf_prime at z: the llr's mean under weights prop. to p_f * e^{z llr}."""
    w = z[..., None] * rows[..., 1, :]
    w += rows[..., 0, :]
    w -= np.maximum.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    return np.add.reduce(w * rows[..., 1, :], axis=-1)


def _bracket(rows: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per lane with cgf_prime(lo) < eta < cgf_prime(hi), and the
    slopes cgf_prime at both ends: from -1 and 1, an end whose slope is not
    yet past eta doubles, and only the ends still short are evaluated
    again. The scalar rule's steps 1, 2, 4, ... land exactly on these
    powers of two."""
    ends = np.empty((2, eta.size))
    ends[0], ends[1] = -1.0, 1.0
    slopes = _tilted_mean(rows, ends)
    side, lane = np.nonzero(np.stack([slopes[0] >= eta, slopes[1] <= eta]))
    while lane.size:
        ends[side, lane] *= 2.0
        slope = slopes[side, lane] = _tilted_mean(rows[lane], ends[side, lane])
        short = np.where(side == 0, slope >= eta[lane], slope <= eta[lane])
        side, lane = side[short], lane[short]
    return ends, slopes


def _solve_tilt(rows: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cgf_prime(z) = eta for every lane of (lanes, 2, atoms) rows, by ITP
    (interpolate, truncate, project) in lockstep. Each lane keeps its own
    bracket and its own budget: bisection's ceil(log2(width / (2 * _EPS)))
    iterations, plus _N0, within which ITP shrinks the bracket to 2 * _EPS.
    A lane leaves the loop once its residual is within LEGENDRE_TOL, at the
    point it tried, or once its bracket is within 2 * _EPS or its budget is
    spent, at the bracket's midpoint. Returns (z, iterations)."""
    z_out = np.empty(eta.size)
    iters_out = np.empty(eta.size, dtype=np.int64)
    (lo, hi), slopes = _bracket(rows, eta)
    y_lo, y_hi = slopes - eta
    # frexp reads ceil(log2) off the exponent exactly, so a lane's budget
    # does not depend on the lanes it is solved with.
    mantissa, exponent = np.frexp((hi - lo) / (2.0 * _EPS))
    budget = exponent - (mantissa == 0.5) + _N0
    lanes = np.arange(eta.size)
    for iteration in range(1, int(budget.max()) + 1):
        width = hi - lo
        mid = (lo + hi) / 2.0
        falsi = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
        toward = np.sign(mid - falsi)
        cut = _KAPPA1 * width**_KAPPA2
        z = np.where(cut <= np.abs(mid - falsi), falsi + toward * cut, mid)
        # The step stays within radius of the midpoint, which keeps the
        # lane's bracket inside the budget's bisection schedule.
        radius = np.ldexp(_EPS, budget - iteration + 1) - width / 2.0
        z = np.where(np.abs(z - mid) <= radius, z, mid - toward * radius)
        residual = _tilted_mean(rows, z) - eta
        above = residual > 0.0
        hi, y_hi = np.where(above, z, hi), np.where(above, residual, y_hi)
        lo, y_lo = np.where(above, lo, z), np.where(above, y_lo, residual)
        solved = np.abs(residual) <= LEGENDRE_TOL
        done = solved | (hi - lo <= 2.0 * _EPS) | (budget == iteration)
        if done.any():
            z_out[lanes[done]] = np.where(solved, z, (lo + hi) / 2.0)[done]
            iters_out[lanes[done]] = iteration
            keep = ~done
            lanes, rows, eta, budget = lanes[keep], rows[keep], eta[keep], budget[keep]
            lo, hi, y_lo, y_hi = lo[keep], hi[keep], y_lo[keep], y_hi[keep]
    return z_out, iters_out
