"""Cumulant generating functions, convex conjugates, and tail-bound goldens."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ratebound.ldp_numerics import (
    PairKernel,
    binomial_tail_bound,
    conjugates,
    kl_bernoulli,
)
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
)

LOG3 = 1.0986122886681098
# Frozen independently: kl_bernoulli(1/2, 3/4) = log(4/3)/2 and the
# half-log-likelihood mean (2p-1) log(p/(1-p)) / 2 coincide at p = 3/4.
KL_HALF_THREEQ = 0.14384103622589045
MEAN_THREEQ = 0.5493061443340549


def binary_kernel(p=0.75, f=0, g=1):
    model = SignalModel(StateSpace((0, 1)), BinarySymmetric(p))
    return PairKernel(model, 0, f, g)


def random_finite_model(rng):
    while True:
        k = int(rng.integers(2, 5))
        support_size = int(rng.integers(2, 7))
        pmf = rng.dirichlet(np.ones(support_size), size=k)
        pmf = (pmf + 0.02) / (1.0 + 0.02 * support_size)
        model = SignalModel(
            StateSpace(tuple(range(k))), Finite(tuple(range(support_size)), pmf)
        )
        if not model.validate():
            return model


# -- scalar divergences -------------------------------------------------------------


def test_kl_bernoulli_golden_and_edges():
    assert kl_bernoulli(0.5, 0.75) == pytest.approx(KL_HALF_THREEQ, rel=1e-14)
    assert kl_bernoulli(0.5, 0.75) == pytest.approx(math.log(4 / 3) / 2, rel=1e-14)
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.0, 0.0) == 0.0
    assert kl_bernoulli(1.0, 1.0) == 0.0
    assert kl_bernoulli(0.5, 0.0) == math.inf
    assert kl_bernoulli(0.5, 1.0) == math.inf
    assert kl_bernoulli(0.0, 0.4) == pytest.approx(-math.log(0.6), rel=1e-14)


def test_kl_bernoulli_rejects_out_of_range_arguments():
    with pytest.raises(ValueError):
        kl_bernoulli(-0.1, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 1.1)


def test_binomial_tail_bound_golden_and_identity():
    # exp(-20 * kl(1/2, 3/4)) = exp(-10 log(4/3)) = (3/4)^10 exactly
    assert binomial_tail_bound(20, 10, 0.75) == pytest.approx(
        59049 / 1048576, rel=1e-13
    )
    for n, k, q in [(5, 2, 0.6), (40, 25, 0.7), (7, 0, 0.51)]:
        expected = math.exp(-n * kl_bernoulli(k / n, q))
        assert binomial_tail_bound(n, k, q) == pytest.approx(expected, rel=1e-14)


def _exact_binomial_cdf(k, n, q):
    """P[Binomial(n, q) <= k] in exact rational arithmetic, rounded once."""
    p = Fraction(q)
    return float(
        sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))
    )


def test_binomial_tail_bound_dominates_the_exact_tail():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        q = float(rng.uniform(0.5, 0.99))
        k = int(rng.integers(0, math.floor(n * q) + 1))
        exact = _exact_binomial_cdf(k, n, q)
        assert exact <= binomial_tail_bound(n, k, q) + 1e-14


def test_binomial_tail_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial_tail_bound(0, 0, 0.5)
    with pytest.raises(ValueError):
        binomial_tail_bound(10, 11, 0.5)
    with pytest.raises(ValueError):
        binomial_tail_bound(10, 9, 0.5)


# -- kernels: moments and the cumulant generating function ---------------------------


def test_binary_kernel_moments_and_domain():
    kern = binary_kernel(0.75)
    assert kern.mean == pytest.approx(MEAN_THREEQ, rel=1e-14)
    assert kern.domain[0] == pytest.approx(-LOG3, rel=1e-14)
    assert kern.domain[1] == pytest.approx(LOG3, rel=1e-14)
    second_moment = 0.75 * LOG3**2 + 0.25 * LOG3**2
    assert kern.variance == pytest.approx(second_moment - kern.mean**2, rel=1e-12)


def test_cgf_vanishes_at_zero_and_minus_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = random_finite_model(rng)
        k = model.states.n_states
        f, g = (int(s) for s in rng.choice(k, size=2, replace=False))
        kern = PairKernel(model, 0, f, g)
        assert abs(kern.cgf(0.0)) <= 1e-12
        assert abs(kern.cgf(-1.0)) <= 1e-12


def test_cgf_prime_matches_central_differences_and_is_increasing():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(10):
        model = random_finite_model(rng)
        kern = PairKernel(model, 0, 0, 1)
        zs = np.sort(rng.uniform(-2.0, 1.5, 4))
        primes = [kern.cgf_prime(float(z)) for z in zs]
        assert all(a < b for a, b in zip(primes, primes[1:]))
        for z, prime in zip(zs, primes):
            central = (kern.cgf(z + h) - kern.cgf(z - h)) / (2 * h)
            assert prime == pytest.approx(central, abs=1e-7)
            curvature = kern.cgf_second(float(z))
            assert curvature > 0.0
            central2 = (kern.cgf(z + h) - 2 * kern.cgf(z) + kern.cgf(z - h)) / h**2
            assert curvature == pytest.approx(central2, abs=1e-4)


def test_cgf_accepts_vector_arguments():
    kern = binary_kernel(0.8)
    zs = np.linspace(-2, 2, 9)
    vector = kern.cgf(zs)
    assert vector.shape == (9,)
    for z, v in zip(zs, vector):
        assert v == pytest.approx(kern.cgf(float(z)), rel=1e-14)


# -- Fenchel-Legendre transform -------------------------------------------------------


def test_legendre_interior_solutions_satisfy_stationarity():
    kern = binary_kernel(0.75)
    for eta in np.linspace(-1.0, 1.0, 9):
        res = kern.legendre(float(eta))
        assert not res.at_boundary
        assert kern.cgf_prime(res.argmax_z) == pytest.approx(eta, abs=1e-8)
        assert res.value == pytest.approx(
            eta * res.argmax_z - kern.cgf(res.argmax_z), abs=1e-12
        )


def test_legendre_is_the_supremum_of_the_linear_gap():
    rng = np.random.default_rng(9)
    for _ in range(5):
        model = random_finite_model(rng)
        kern = PairKernel(model, 0, 1, 0)
        lo, hi = kern.domain
        for eta in rng.uniform(lo + 1e-3, hi - 1e-3, 8):
            value = kern.legendre(float(eta)).value
            for z in rng.uniform(-3.0, 3.0, 20):
                assert value >= eta * z - kern.cgf(float(z)) - 1e-8


def _newton_reference(model, f, g, eta):
    """The safeguarded Newton solve with the derivatives written out: each
    iteration builds the tilted law once for cgf_prime and once more for
    cgf_second. Returns (value, argmax_z, iterations)."""
    log_pf = np.log(model.pmf_row(0, f))
    llrs = log_pf - np.log(model.pmf_row(0, g))

    def tilted(z):
        logw = log_pf + z * llrs
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()

    def prime(z):
        return float(np.sum(tilted(z) * llrs))

    def second(z):
        w = tilted(z)
        m1 = float(np.sum(w * llrs))
        return float(np.sum(w * llrs**2)) - m1**2

    def cgf(z):
        terms = log_pf + z * llrs
        top = terms.max()
        return float(top + np.log(np.exp(terms - top).sum()))

    lo, hi, step = -1.0, 1.0, 1.0
    while prime(lo) >= eta:
        lo -= step
        step *= 2.0
    step = 1.0
    while prime(hi) <= eta:
        hi += step
        step *= 2.0
    z = (lo + hi) / 2.0
    for iteration in range(1, 201):
        residual = prime(z) - eta
        if abs(residual) <= 1e-9:
            return eta * z - cgf(z), z, iteration
        if residual > 0.0:
            hi = z
        else:
            lo = z
        curvature = second(z)
        candidate = z - (residual / curvature if curvature > 0.0 else math.inf)
        z = candidate if lo < candidate < hi else (lo + hi) / 2.0
    raise AssertionError("reference solve did not converge")


def test_legendre_matches_the_two_call_newton_reference():
    rng = np.random.default_rng(44)
    for _ in range(12):
        model = random_finite_model(rng)
        k = model.states.n_states
        f, g = (int(s) for s in rng.choice(k, size=2, replace=False))
        kern = PairKernel(model, 0, f, g)
        lo, hi = kern.domain
        etas = [kern.mean, 0.0, *rng.uniform(lo + 1e-6, hi - 1e-6, 6)]
        for eta in (float(e) for e in etas if lo < e < hi):
            res = kern.legendre(eta)
            assert (res.value, res.argmax_z, res.iterations) == _newton_reference(
                model, f, g, eta
            ), (f, g, eta)


def _random_kernel(rng, atoms):
    """A pair kernel with the given number of atoms; every atom has mass
    under both states, and some pmfs are far from uniform."""
    while True:
        pmf = rng.dirichlet(np.full(atoms, float(rng.choice([0.3, 1.0, 5.0]))), size=2)
        pmf = (pmf + 1e-3) / (1.0 + 1e-3 * atoms)
        model = SignalModel(StateSpace((0, 1)), Finite(tuple(range(atoms)), pmf))
        if not model.validate():
            return model, PairKernel(model, 0, 0, 1)


def _as_tuples(lanes):
    return list(zip(*(a.tolist() for a in lanes)))


def test_lanes_equal_one_lane_solves_and_the_reference():
    # Each kernel's etas, shuffled: its mean, 0, both endpoints and beyond,
    # etas close to each endpoint, and random interior points.
    rng = np.random.default_rng(66)
    for atoms in [2, 3, 5, 8, 9, 16, 17, 24, 39]:
        model, kern = _random_kernel(rng, atoms)
        lo, hi = kern.domain
        width = hi - lo
        etas = np.array(
            [kern.mean, 0.0, lo, hi, lo - 1.0, hi + 2.5,
             lo + 1e-7 * width, hi - 1e-7 * width,
             *rng.uniform(lo, hi, 12)]
        )
        rng.shuffle(etas)
        lanes = _as_tuples(conjugates([kern] * etas.size, etas))
        for eta, lane in zip(etas.tolist(), lanes):
            one = kern.legendre(eta)
            assert lane == (one.value, one.argmax_z, one.iterations), (atoms, eta)
            if lo < eta < hi:
                assert lane == _newton_reference(model, 0, 1, eta), (atoms, eta)
            else:
                assert lane[1] == (math.inf if eta >= hi else -math.inf)
                assert lane[2] == 0


def test_lanes_of_many_kernels_equal_their_own_solves():
    # The rate sweep's shape: many kernels with one atom count, one solve.
    rng = np.random.default_rng(67)
    for atoms in (2, 6):
        kernels = [_random_kernel(rng, atoms)[1] for _ in range(30)]
        etas = [float(rng.uniform(*k.domain)) for k in kernels]
        lanes = _as_tuples(conjugates(kernels, etas))
        for kern, eta, lane in zip(kernels, etas, lanes):
            one = kern.legendre(eta)
            assert lane == (one.value, one.argmax_z, one.iterations)


def test_lanes_keep_the_shape_and_order_of_the_etas():
    rng = np.random.default_rng(68)
    finite = [_random_kernel(rng, 4)[1] for _ in range(3)]
    gaussian = PairKernel(
        SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0)), 0, 0, 1
    )
    kernels = [finite[0], gaussian, finite[1], finite[2], gaussian, finite[0]]
    etas = np.array([[0.3, -2.0, 0.0], [-0.4, 4.0, 50.0]])
    value, argmax, iterations = conjugates(kernels, etas)
    assert value.shape == argmax.shape == iterations.shape == (2, 3)
    assert iterations.dtype.kind == "i"
    for kern, eta, v, z, it in zip(
        kernels, etas.ravel(), value.ravel(), argmax.ravel(), iterations.ravel()
    ):
        one = kern.legendre(float(eta))
        assert (v, z, it) == (one.value, one.argmax_z, one.iterations)
    assert argmax[1, 2] == math.inf
    assert iterations[0, 1] == iterations[1, 1] == 0


def test_lanes_of_no_etas_and_mismatched_inputs():
    value, argmax, iterations = conjugates([], [])
    assert value.shape == argmax.shape == iterations.shape == (0,)
    rng = np.random.default_rng(69)
    two, three = _random_kernel(rng, 2)[1], _random_kernel(rng, 3)[1]
    with pytest.raises(ValueError):
        conjugates([two], [0.0, 0.1])
    # Interior lanes of different atom counts are solved group by group,
    # each lane as its one-lane solve.
    kernels, etas = [two, three, two, three], [0.0, 0.0, 0.1, -0.2]
    solves = [kern.legendre(eta) for kern, eta in zip(kernels, etas)]
    assert _as_tuples(conjugates(kernels, etas)) == [
        (res.value, res.argmax_z, res.iterations) for res in solves
    ]
    # Lanes at or beyond an endpoint are not solved, so their atoms may differ.
    mixed = conjugates([two, three], [two.domain[1], 0.0])
    assert mixed[1][0] == math.inf


def test_legendre_bisects_out_of_an_alternating_newton_stall():
    # Newton steps here alternate around the root, each inside the bracket,
    # and shrink it by little: 200 iterations end in [-1.4739, -0.6632],
    # and bisection takes over.
    pmf = (
        (1.5691298565860281e-07, 0.03628572229903652, 3.88761908284786e-05,
         0.006116415669266428, 1.1696855281674205e-06, 0.04199073623658461,
         0.5992992999949722, 0.20972005818771472, 0.044420018204407594,
         5.4654330650825204e-05, 0.00014842026167448462,
         3.2172798401785446e-12, 0.061924472023133),
        (0.12492614981738434, 9.999999999979999e-13, 1.6975019798148156e-05,
         0.6132067915172061, 0.00010233220485282303, 1.7701027488227186e-07,
         0.0045674847470939155, 0.11844054048804833, 0.08960850544849053,
         0.033553501315233165, 0.015557520379405313, 9.999999999979999e-13,
         2.0022050212252686e-05),
    )
    model = SignalModel(StateSpace((0, 1)), Finite(tuple(range(13)), pmf))
    assert not model.validate()
    kern = PairKernel(model, 0, 0, 1)
    eta = -8.253719483291245
    res = kern.legendre(eta)
    assert abs(kern.cgf_prime(res.argmax_z) - eta) <= 1e-9
    grid = np.linspace(-3.0, 1.0, 4001)
    assert res.value >= np.max(eta * grid - kern.cgf(grid)) - 1e-12
    assert res.iterations == 234


def test_tilted_variance_keeps_pythons_power():
    # Squaring the tilted mean with numpy's m*m instead of Python's m**2
    # (libm pow) moves this solve's argmax_z and value in the last bit.
    pmf = np.array([[0.598, 0.402], [0.159, 0.841]])
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf))
    kern = PairKernel(model, 0, 0, 1)
    expected = (0.4599937629212296, 2.010558476078127, 6)
    res = kern.legendre(1.303)
    assert (res.value, res.argmax_z, res.iterations) == expected
    assert _newton_reference(model, 0, 1, 1.303) == expected
    lanes = _as_tuples(conjugates([kern] * 3, [0.0, 1.303, kern.mean]))
    assert lanes[1] == expected


def test_legendre_zero_at_the_mean_and_positive_elsewhere():
    kern = binary_kernel(0.9)
    assert abs(kern.legendre(kern.mean).value) <= 1e-10
    assert kern.legendre(0.0).value > 0.0
    assert kern.legendre(0.0).value < kern.mean


def test_legendre_golden_value_at_zero():
    assert binary_kernel(0.75).legendre(0.0).value == pytest.approx(
        KL_HALF_THREEQ, rel=1e-10
    )


def test_legendre_boundary_values_are_the_extreme_atom_masses():
    kern = binary_kernel(0.75)
    hi = kern.legendre(LOG3)
    assert hi.at_boundary and hi.argmax_z == math.inf
    assert hi.value == pytest.approx(-math.log(0.75), rel=1e-12)
    beyond = kern.legendre(5.0)
    assert beyond.value == hi.value
    lo = kern.legendre(-LOG3)
    assert lo.at_boundary and lo.argmax_z == -math.inf
    assert lo.value == pytest.approx(-math.log(0.25), rel=1e-12)


def test_legendre_state_swap_identity():
    rng = np.random.default_rng(21)
    for _ in range(8):
        model = random_finite_model(rng)
        k = model.states.n_states
        f, g = (int(s) for s in rng.choice(k, size=2, replace=False))
        kern = PairKernel(model, 0, f, g)
        swapped = PairKernel(model, 0, g, f)
        lo, hi = kern.domain
        for eta in np.linspace(lo + 1e-3, hi - 1e-3, 11):
            direct = kern.legendre(float(eta)).value
            via_swap = swapped.legendre(float(-eta)).value - eta
            assert direct == pytest.approx(via_swap, abs=1e-9)


def test_legendre_anchor_at_the_swapped_mean():
    rng = np.random.default_rng(30)
    for _ in range(8):
        model = random_finite_model(rng)
        kern = PairKernel(model, 0, 0, 1)
        swapped = PairKernel(model, 0, 1, 0)
        assert kern.legendre(-swapped.mean).value == pytest.approx(
            swapped.mean, abs=1e-9
        )


def test_gaussian_kernel_closed_forms():
    model = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 1.0))
    kern = PairKernel(model, 0, 0, 1)
    assert kern.variance == pytest.approx(1.0, rel=1e-15)
    assert kern.mean == pytest.approx(0.5, rel=1e-15)
    assert kern.domain == (-math.inf, math.inf)
    assert kern.legendre(0.0).value == pytest.approx(0.125, rel=1e-15)
    for eta in (-2.0, 0.3, 4.0):
        res = kern.legendre(eta)
        assert res.value == pytest.approx((eta - 0.5) ** 2 / 2.0, rel=1e-13)
        assert res.argmax_z == pytest.approx(eta - 0.5, rel=1e-13)
    assert kern.cgf(2.0) == pytest.approx(0.5 * 2.0 + 0.5 * 4.0, rel=1e-14)
    assert kern.cgf_prime(2.0) == pytest.approx(2.5, rel=1e-14)
    assert kern.cgf_second(2.0) == pytest.approx(1.0, rel=1e-14)


def test_kernel_rejects_identical_states_and_singular_pairs():
    model = SignalModel(StateSpace((0, 1)), BinarySymmetric(0.75))
    with pytest.raises(ValueError):
        PairKernel(model, 0, 1, 1)
    disjoint = SignalModel(
        StateSpace((0, 1)), Finite((0, 1, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))
    )
    with pytest.raises(ValueError):
        PairKernel(disjoint, 0, 0, 1)
