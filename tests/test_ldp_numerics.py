"""Cumulant generating functions, convex conjugates, and their goldens."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ratebound.ldp_numerics import (
    PairKernel,
    _cgf,
    _solve_tilt,
    conjugates,
    pair_table,
)
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
    model_from_json,
)

from lane_reference import reference_lane

LOG3 = 1.0986122886681098
# Frozen independently: the Bernoulli relative entropy D(1/2 || 3/4) =
# log(4/3)/2 and the half-log-likelihood mean (2p-1) log(p/(1-p)) / 2
# coincide at p = 3/4.
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


def _itp_reference(model, f, g, eta):
    """ITP on cgf_prime(z) - eta written out scalar by scalar, with its own
    constants: truncation 0.1 * width**2, one iteration over bisection's
    count, eps = 1e-13. Returns (value, argmax_z, iterations, budget, width),
    the last two being the iteration budget and the final bracket's width."""
    eps = 1e-13
    log_pf = np.log(model.pmf[0, f])
    llrs = log_pf - np.log(model.pmf[0, g])

    def prime(z):
        logw = log_pf + z * llrs
        logw -= logw.max()
        w = np.exp(logw)
        return float(np.sum(w / w.sum() * llrs))

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
    y_lo, y_hi = prime(lo) - eta, prime(hi) - eta
    mantissa, exponent = math.frexp((hi - lo) / (2 * eps))
    budget = exponent - (mantissa == 0.5) + 1
    for j in range(budget):
        width = hi - lo
        mid = (lo + hi) / 2.0
        falsi = (y_hi * lo - y_lo * hi) / (y_hi - y_lo)
        sigma = 0.0 if mid == falsi else math.copysign(1.0, mid - falsi)
        cut = 0.1 * (width * width)
        z = falsi + sigma * cut if cut <= abs(mid - falsi) else mid
        radius = math.ldexp(eps, budget - j) - width / 2.0
        if abs(z - mid) > radius:
            z = mid - sigma * radius
        residual = prime(z) - eta
        if residual > 0.0:
            hi, y_hi = z, residual
        else:
            lo, y_lo = z, residual
        if abs(residual) > 1e-9:
            if hi - lo > 2 * eps and j + 1 < budget:
                continue
            z = (lo + hi) / 2.0
        return eta * z - cgf(z), z, j + 1, budget, hi - lo
    raise AssertionError("unreachable: the last iteration returns")


def test_legendre_matches_the_scalar_itp_reference():
    rng = np.random.default_rng(44)
    cases = []
    for _ in range(12):
        model = random_finite_model(rng)
        k = model.states.n_states
        f, g = (int(s) for s in rng.choice(k, size=2, replace=False))
        kern = PairKernel(model, 0, f, g)
        lo, hi = kern.domain
        etas = [kern.mean, 0.0, *rng.uniform(lo + 1e-6, hi - 1e-6, 6)]
        cases += [(model, f, g, float(e)) for e in etas if lo < e < hi]
    # A kernel whose tilted mean squares differently under libm's m**2 and
    # numpy's m*m; both solves square only bracket widths, as width * width.
    skewed = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), [[0.598, 0.402], [0.159, 0.841]])
    )
    cases.append((skewed, 0, 1, 1.303))
    for model, f, g, eta in cases:
        res = PairKernel(model, 0, f, g).legendre(eta)
        expected = _itp_reference(model, f, g, eta)[:3]
        assert (res.value, res.argmax_z, res.iterations) == expected, (f, g, eta)


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
        lanes = _as_tuples(conjugates([kern.lane] * etas.size, etas))
        for eta, lane in zip(etas.tolist(), lanes):
            one = kern.legendre(eta)
            assert lane == (one.value, one.argmax_z, one.iterations), (atoms, eta)
            if lo < eta < hi:
                assert lane == _itp_reference(model, 0, 1, eta)[:3], (atoms, eta)
            else:
                assert lane[1] == (math.inf if eta >= hi else -math.inf)
                assert lane[2] == 0


def test_lanes_of_many_kernels_equal_their_own_solves():
    # The rate sweep's shape: many kernels with one atom count, one solve.
    rng = np.random.default_rng(67)
    for atoms in (2, 6):
        kernels = [_random_kernel(rng, atoms)[1] for _ in range(30)]
        etas = [float(rng.uniform(*k.domain)) for k in kernels]
        lanes = _as_tuples(conjugates([kern.lane for kern in kernels], etas))
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
    value, argmax, iterations = conjugates([kern.lane for kern in kernels], etas)
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
        conjugates([two.lane], [0.0, 0.1])
    # Interior lanes of 2 and 3 atoms are solved in one padded call, each
    # lane as its one-lane solve.
    kernels, etas = [two, three, two, three], [0.0, 0.0, 0.1, -0.2]
    solves = [kern.legendre(eta) for kern, eta in zip(kernels, etas)]
    assert _as_tuples(conjugates([kern.lane for kern in kernels], etas)) == [
        (res.value, res.argmax_z, res.iterations) for res in solves
    ]
    # Lanes at or beyond an endpoint are not solved, so their atoms may differ.
    mixed = conjugates([two.lane, three.lane], [two.domain[1], 0.0])
    assert mixed[1][0] == math.inf


def test_one_call_pads_widths_2_to_24_as_their_one_lane_solves():
    # Widths on both sides of 7|8, 15|16 and 23|24, several lanes each,
    # shuffled among endpoint etas and Gaussian lanes in one call. Rows
    # padded with zero-mass atoms keep their bits only inside their own
    # block of 8; a row padded across a block boundary moves a last bit.
    rng = np.random.default_rng(73)
    kernels, etas = [], []
    for atoms in range(2, 25):
        for _ in range(3):
            kern = _random_kernel(rng, atoms)[1]
            lo, hi = kern.domain
            kernels += [kern] * 8
            etas += [*rng.uniform(lo, hi, 5), lo, hi, hi + 1.0]
    for _ in range(4):
        model = SignalModel(StateSpace((0, 1)),
                            Gaussian(tuple(rng.normal(size=2)), rng.uniform(0.5, 2.0)))
        kernels += [PairKernel(model, 0, 0, 1)] * 3
        etas += rng.normal(size=3).tolist()
    order = rng.permutation(len(etas))
    kernels = [kernels[i] for i in order]
    etas = np.array(etas)[order]
    lanes = _as_tuples(conjugates([kern.lane for kern in kernels], etas))
    for kern, eta, lane in zip(kernels, etas.tolist(), lanes):
        one = kern.legendre(eta)
        assert lane == (one.value, one.argmax_z, one.iterations), (kern.lane.rows, eta)


def test_lanes_are_read_once_and_must_match_the_etas():
    rng = np.random.default_rng(74)
    kernels = [_random_kernel(rng, atoms)[1] for atoms in (2, 5, 9)]
    etas = [0.0, 0.1, -0.1, kernels[0].domain[1]]
    read = []

    def lanes():
        for kern in kernels + kernels[:1]:
            read.append(kern)
            yield kern.lane

    expected = [kern.legendre(eta) for kern, eta in zip(kernels + kernels[:1], etas)]
    assert _as_tuples(conjugates(lanes(), etas)) == [
        (res.value, res.argmax_z, res.iterations) for res in expected
    ]
    assert read == kernels + kernels[:1]
    # a lane passed as equal copies solves as the one object passed again
    copies = [kernels[1].lane._replace() for _ in etas]
    same = [kernels[1].lane] * len(etas)
    assert _as_tuples(conjugates(copies, etas)) == _as_tuples(conjugates(same, etas))
    for count in (3, 5):
        with pytest.raises(ValueError, match="one lane per eta"):
            conjugates((kernels * 2)[:count], etas)


def test_conjugates_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma, about a megabyte of resident memory that
    # no other part of a verify run loads
    code = """if True:
        import sys
        from ratebound.ldp_numerics import PairKernel, conjugates
        from ratebound.signal_models import (BinarySymmetric, Finite, Gaussian,
                                             SignalModel, StateSpace)
        states = StateSpace((0, 1))
        kernels = [PairKernel(SignalModel(states, family), 0, 0, 1) for family in (
            BinarySymmetric(0.75), Finite((0, 1, 2), ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2))),
            Gaussian((1.0, 0.0), 1.0))]
        lanes = [kern.lane for kern in kernels] * 3
        conjugates(lanes, [0.0, 0.1, 0.2, 5.0, -5.0, 0.3, 0.05, 0.0, -1.0])
        print("numpy.ma" in sys.modules)
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


# Newton steps on this lane alternate around the root, each inside the
# bracket, and shrink it by little: a safeguarded Newton solve took 234
# iterations here.
_ALTERNATING_PMF = (
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
_ALTERNATING_ETA = -8.253719483291245


def test_legendre_bisects_out_of_an_alternating_newton_stall():
    model = SignalModel(StateSpace((0, 1)), Finite(tuple(range(13)), _ALTERNATING_PMF))
    assert not model.validate()
    kern = PairKernel(model, 0, 0, 1)
    eta = _ALTERNATING_ETA
    res = kern.legendre(eta)
    assert abs(kern.cgf_prime(res.argmax_z) - eta) <= 1e-9
    grid = np.linspace(-3.0, 1.0, 4001)
    assert res.value >= np.max(eta * grid - kern.cgf(grid)) - 1e-12
    _, _, iterations, budget, _ = _itp_reference(model, 0, 1, eta)
    assert res.iterations == iterations <= budget


def test_lanes_end_within_their_itp_budget():
    # Extreme 9-13-atom kernels: Dirichlet pmfs with concentration below 1,
    # floored at 1e-12, at etas across each llr range; then the alternating
    # Newton lane. Each lane ends solved or with a bracket of width <= 2e-13
    # within bisection's count plus one.
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(16):
        atoms = int(rng.integers(9, 14))
        pmf = rng.dirichlet(np.full(atoms, rng.uniform(0.1, 1.0)), size=2)
        pmf = np.maximum(pmf, 1e-12)
        pmf /= pmf.sum(axis=1, keepdims=True)
        model = SignalModel(StateSpace((0, 1)), Finite(tuple(range(atoms)), pmf))
        kern = PairKernel(model, 0, 0, 1)
        cases += [(model, kern, float(e)) for e in rng.uniform(*kern.domain, 40)]
    model = SignalModel(StateSpace((0, 1)), Finite(tuple(range(13)), _ALTERNATING_PMF))
    cases.append((model, PairKernel(model, 0, 0, 1), _ALTERNATING_ETA))
    lanes = [kern.lane for _, kern, _ in cases]
    etas = [eta for _, _, eta in cases]
    for (model, kern, eta), lane in zip(cases, _as_tuples(conjugates(lanes, etas))):
        value, z, iterations, budget, width = _itp_reference(model, 0, 1, eta)
        assert lane == (value, z, iterations), eta
        assert iterations <= budget, eta
        assert abs(kern.cgf_prime(z) - eta) <= 1e-9 or width <= 2e-13, eta


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


def test_kernel_rejects_identical_states_and_singular_pairs():
    model = SignalModel(StateSpace((0, 1)), BinarySymmetric(0.75))
    with pytest.raises(ValueError):
        PairKernel(model, 0, 1, 1)
    disjoint = SignalModel(
        StateSpace((0, 1)), Finite((0, 1, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))
    )
    with pytest.raises(ValueError):
        PairKernel(disjoint, 0, 0, 1)


def test_kernel_takes_an_integer_agent_index():
    pmf = [[(p, 1.0 - p), (1.0 - p, p)] for p in (0.9, 0.6)]
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1), pmf), 2)
    for agent in (1.5, False, "0", 2):
        with pytest.raises(ValueError) as excinfo:
            PairKernel(model, agent, 0, 1)
        assert str(excinfo.value) == (
            f"agent must be an integer index in 0..1, not {agent!r}")
    assert PairKernel(model, np.int64(1), 0, 1).mean == PairKernel(model, 1, 0, 1).mean


def test_kernels_need_every_agent_to_share_one_support_across_states():
    # A kernel is a lane of the whole model's pair table, which needs each
    # agent's states to share one support, as pair_table and llr_table do.
    # So a nested pair, supp(p_0) inside supp(p_1), raises both ways round,
    # and so does an admissible agent of a model with such another agent.
    nested = ((0.5, 0.5, 0.0), (0.25, 0.25, 0.5))
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1, 2), nested))
    for f, g in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="absolutely continuous"):
            PairKernel(model, 0, f, g)
    fine = ((0.75, 0.25, 0.0), (0.25, 0.75, 0.0))
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1, 2), (fine, nested)), 2)
    with pytest.raises(ValueError, match="absolutely continuous"):
        PairKernel(model, 0, 0, 1)


# -- the pair table: one set of logs for every lane ---------------------------------


def _pair_table_models(rng):
    """Random Finite models (k 2-4, 2-13 atoms, 1-3 agents with their own
    pmfs, some atoms of mass zero under an agent), Gaussian models with
    per-agent means, and two fixed models."""
    models = []
    while len(models) < 60:
        k, atoms, agents = (int(rng.integers(2, 5)), int(rng.integers(2, 14)),
                            int(rng.integers(1, 4)))
        pmf = rng.dirichlet(np.full(atoms, float(rng.choice([0.3, 1.0, 5.0]))),
                            size=(agents, k))
        pmf = (pmf + 1e-3) / (1.0 + 1e-3 * atoms)
        for a in range(agents):
            if atoms > 2 and rng.random() < 0.5:
                pmf[a][:, rng.choice(atoms, size=int(rng.integers(1, atoms - 1)),
                                     replace=False)] = 0.0
                pmf[a] /= pmf[a].sum(axis=1, keepdims=True)
        model = SignalModel(StateSpace(tuple(range(k))),
                            Finite(tuple(range(atoms)), pmf), agents)
        if not model.validate():
            models.append(model)
    while len(models) < 75:
        k, agents = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        model = SignalModel(StateSpace(tuple(range(k))),
                            Gaussian(rng.normal(size=(agents, k)), rng.uniform(0.5, 2.0)),
                            agents)
        if not model.validate():
            models.append(model)
    # A mean gap whose square under float ** 2 (the C library's pow) is
    # 3.5535416870559997, where numpy's x * x gives 3.553541687056.
    models.append(SignalModel(StateSpace((0, 1)), Gaussian((1.885084, 0.0), 1.0)))
    with open(os.path.join(os.path.dirname(__file__), "data", "model_mixed.json")) as fh:
        models.append(model_from_json(json.load(fh)))
    return models


def test_pair_table_lanes_equal_the_per_lane_reference():
    # Every lane, bit for bit: the rows, moments and range, and the
    # conjugates solved on table lanes against the solver run on the
    # reference rows. Agents whose support leaves out an atom reduce over
    # their own atoms only; a sum padded with 0 * 0 terms regroups numpy's
    # pairwise sum from 8 atoms on, so such models must be among these.
    rng = np.random.default_rng(72)
    models = _pair_table_models(rng)
    masked_wide = [m for m in models if m.has_finite_support
                   and m.pmf.shape[2] >= 8 and not (m.pmf > 0.0).all()]
    assert len(masked_wide) >= 3
    for model in models:
        n, k = model.n_agents, model.states.n_states
        index = [(a, f, g) for a in range(n) for f in range(k) for g in range(k)
                 if f != g]
        table = pair_table(model)
        lanes = table.lanes(index)
        references = [reference_lane(model, *lane) for lane in index]
        for lane, at, (rows, *stats) in zip(lanes, index, references):
            assert list(lane[1:]) == stats, (model, at)
            assert table.mean[at] == lane.mean
            assert lane.rows is rows is None or lane.rows.tobytes() == rows.tobytes()
        etas = np.array([rng.uniform(low, high) if rows is not None else rng.normal()
                         for rows, _, _, low, high in references])
        value, argmax, iterations = conjugates(lanes, etas)
        solves = {}  # atom count: the lanes whose reference rows have it
        for i, (rows, mean, variance, _, _) in enumerate(references):
            if rows is None:
                e = etas[i]
                assert (value[i], argmax[i]) == ((e - mean) ** 2 / (2.0 * variance),
                                                 (e - mean) / variance)
            else:
                solves.setdefault(rows.shape[1], []).append(i)
        for members in solves.values():
            rows = np.array([references[i][0] for i in members])
            z, its = _solve_tilt(rows, etas[members])
            assert argmax[members].tolist() == z.tolist()
            assert iterations[members].tolist() == its.tolist()
            assert value[members].tolist() == (etas[members] * z - _cgf(rows, z)).tolist()
        assert np.all(table.mean[:, range(k), range(k)] == 0.0)
