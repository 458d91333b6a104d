"""State spaces, signal families, sampling determinism, and JSON round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
    indices_from_uniforms,
    model_from_json,
    model_to_json,
)

LOG3 = 1.0986122886681098


def binary_model(p=0.75, n_agents=1):
    return SignalModel(StateSpace((0, 1)), BinarySymmetric(p), n_agents)


# -- StateSpace ---------------------------------------------------------------


def test_state_space_uniform_prior_by_default():
    space = StateSpace(("a", "b", "c"))
    assert space.n_states == 3
    assert space.prior == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_state_space_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        StateSpace((0,))
    with pytest.raises(ValueError):
        StateSpace((0, 0))
    with pytest.raises(ValueError):
        StateSpace((0, 1), prior=(1.0,))
    with pytest.raises(ValueError):
        StateSpace((0, 1), prior=(1.0, 0.0))
    with pytest.raises(ValueError):
        StateSpace((0, 1), prior=(0.6, 0.6))


# -- family construction --------------------------------------------------------


def test_binary_symmetric_pmf_rows():
    model = binary_model(0.75, n_agents=2)
    assert model.pmf_row(0, 0) == pytest.approx([0.75, 0.25])
    assert model.pmf_row(1, 1) == pytest.approx([0.25, 0.75])
    assert model.support == (0, 1)


def test_finite_broadcasts_shared_pmf_across_agents():
    pmf = ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1, 2), pmf), n_agents=3)
    for agent in range(3):
        assert model.pmf_row(agent, 0) == pytest.approx(pmf[0])
        assert model.pmf_row(agent, 1) == pytest.approx(pmf[1])


def test_finite_rejects_bad_pmf_shapes_and_values():
    with pytest.raises(ValueError):
        SignalModel(
            StateSpace((0, 1)), Finite((0, 1), ((0.5, 0.5),)), n_agents=1
        )
    with pytest.raises(ValueError):
        SignalModel(
            StateSpace((0, 1)),
            Finite((0, 1), ((0.5, 0.5), (0.7, 0.7))),
            n_agents=1,
        )
    with pytest.raises(ValueError):
        SignalModel(
            StateSpace((0, 1)),
            Finite((0, 1), ((1.5, -0.5), (0.5, 0.5))),
            n_agents=1,
        )
    with pytest.raises(ValueError):
        Finite((0,), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        Finite((0, 0), ((0.5, 0.5), (0.5, 0.5)))


def test_gaussian_broadcasts_means_and_checks_shape():
    model = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 2.0), n_agents=2)
    assert model.gaussian_params(1, 0) == (1.0, 2.0)
    assert model.gaussian_params(0, 1) == (0.0, 2.0)
    with pytest.raises(ValueError):
        SignalModel(StateSpace((0, 1)), Gaussian(((1.0, 0.0),), 1.0), n_agents=2)
    with pytest.raises(TypeError):
        binary_model().gaussian_params(0, 0)


def test_unknown_family_rejected():
    with pytest.raises(TypeError):
        SignalModel(StateSpace((0, 1)), "not a family")


# -- log-likelihood ratios -------------------------------------------------------


def test_llr_binary_golden_and_exact_antisymmetry():
    model = binary_model(0.75)
    assert model.llr(0, 0, 1, 0) == pytest.approx(LOG3, rel=1e-15)
    assert model.llr(0, 0, 1, 1) == pytest.approx(-LOG3, rel=1e-15)
    assert model.llr(0, 1, 0, 0) == -model.llr(0, 0, 1, 0)


def test_llr_gaussian_closed_form():
    model = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 2.0))
    x = 0.3
    expected = (1.0 - 0.0) * (x - 0.5) / 4.0
    assert model.llr(0, 0, 1, x) == pytest.approx(expected, rel=1e-15)


def test_llr_rejects_bad_queries():
    model = binary_model()
    with pytest.raises(ValueError):
        model.llr(0, 1, 1, 0)
    with pytest.raises(ValueError):
        model.llr(0, 0, 1, 7)
    with pytest.raises(ValueError):
        model.llr(2, 0, 1, 0)
    zero_atom = SignalModel(
        StateSpace((0, 1)),
        Finite((0, 1, 2), ((0.5, 0.5, 0.0), (0.25, 0.25, 0.5))),
    )
    with pytest.raises(ValueError):
        zero_atom.llr(0, 0, 1, 2)


# -- sampling ---------------------------------------------------------------------


def test_sample_profile_is_a_pure_function_of_the_seed():
    model = binary_model(0.75, n_agents=3)
    a = model.sample_profile(0, 20, seed=42)
    b = model.sample_profile(0, 20, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (3, 20)
    assert set(np.unique(a)) <= {0, 1}
    c = model.sample_profile(0, 20, seed=43)
    assert not np.array_equal(a, c)
    d = model.sample_profile(1, 20, seed=42)
    assert not np.array_equal(a, d)


def test_sample_profile_matches_the_signal_precision():
    model = binary_model(0.75)
    draws = model.sample_profile(0, 200_000, seed=7)
    assert np.mean(draws == 0) == pytest.approx(0.75, abs=5e-3)


def test_sample_profile_gaussian_moments():
    model = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 2.0))
    draws = model.sample_profile(1, 200_000, seed=7)
    assert float(draws.mean()) == pytest.approx(0.0, abs=0.02)
    assert float(draws.std()) == pytest.approx(2.0, abs=0.02)


def test_sample_profile_rejects_bad_arguments():
    model = binary_model()
    with pytest.raises(ValueError):
        model.sample_profile(2, 5, seed=0)
    with pytest.raises(ValueError):
        model.sample_profile(0, -1, seed=0)


def test_indices_from_uniforms_inverse_cdf_edges():
    pmf = np.array([0.25, 0.75])
    u = np.array([0.0, 0.2499, 0.25, 0.9999, 1.0])
    assert indices_from_uniforms(pmf, u).tolist() == [0, 0, 1, 1, 1]


def _reference_indices(pmf_row, u):
    edges = np.cumsum(pmf_row)
    return np.minimum(np.searchsorted(edges, u, side="right"), len(pmf_row) - 1)


def _pmf_rows(k_min=2, k_max=6):
    """Rows of k nonnegative weights, zero atoms included, normalized."""
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        min_size=k_min, max_size=k_max,
    )
    return weights.filter(lambda w: sum(w) > 0.0).map(
        lambda w: np.asarray(w) / sum(w)
    )


@st.composite
def _uniforms_for(draw, rows):
    """Uniforms in [0,1): random ones, 0, every CDF edge of the rows below 1,
    and the floats just beneath those edges."""
    edges = np.cumsum(rows, axis=-1).ravel()
    inside = [float(e) for e in edges if 0.0 <= e < 1.0]
    below = [float(np.nextafter(e, 0.0)) for e in inside if e > 0.0]
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    return np.asarray([0.0] + inside + below + free)


@given(st.data())
def test_indices_from_uniforms_matches_clipped_searchsorted(data):
    pmf_row = data.draw(_pmf_rows())
    u = data.draw(_uniforms_for(pmf_row))
    got = indices_from_uniforms(pmf_row, u)
    assert got.shape == u.shape
    assert np.array_equal(got, _reference_indices(pmf_row, u))


@given(st.data())
def test_indices_from_uniforms_stacked_rows_match_each_row(data):
    k = data.draw(st.integers(2, 5))
    agents = data.draw(st.integers(1, 4))
    rows = np.stack([data.draw(_pmf_rows(k, k)) for _ in range(agents)])
    u = data.draw(_uniforms_for(rows))
    reps = data.draw(st.integers(1, 3))
    # (reps, agents, T) uniforms against (agents, 1, k) rows
    u = np.broadcast_to(u, (reps, agents, len(u)))
    got = indices_from_uniforms(rows[:, None, :], u)
    assert got.shape == u.shape
    for agent, row in enumerate(rows):
        assert np.array_equal(got[:, agent], _reference_indices(row, u[:, agent]))


# -- validate -----------------------------------------------------------------------


def test_validate_flags_binary_precision_out_of_range():
    assert binary_model(0.75).validate() == []
    assert "p must lie in (1/2,1)" in binary_model(0.4).validate()
    assert "p must lie in (1/2,1)" in binary_model(1.0).validate()
    three = SignalModel(StateSpace((0, 1, 2)), BinarySymmetric(0.75))
    assert any("2 states" in v for v in three.validate())


def test_validate_flags_uninformative_and_singular_finite_models():
    flat = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((0.5, 0.5), (0.5, 0.5)))
    )
    assert any("identically zero" in v for v in flat.validate())
    disjoint = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((1.0, 0.0), (0.0, 1.0)))
    )
    assert any("absolute continuity" in v for v in disjoint.validate())


def test_validate_flags_degenerate_gaussians():
    equal_means = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 1.0), 1.0))
    assert any("equal means" in v for v in equal_means.validate())
    bad_sigma = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 0.0))
    assert any("sigma" in v for v in bad_sigma.validate())


# -- JSON --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        binary_model(0.8, n_agents=2),
        SignalModel(
            StateSpace((0, 1, 2), prior=(0.5, 0.25, 0.25)),
            Finite((0, 1), ((0.6, 0.4), (0.4, 0.6), (0.5, 0.5))),
            n_agents=2,
        ),
        SignalModel(StateSpace(("lo", "hi")), Gaussian((0.0, 1.5), 0.7)),
    ],
    ids=["binary", "finite", "gaussian"],
)
def test_model_json_round_trip_is_stable(model):
    doc = model_to_json(model)
    rebuilt = model_from_json(doc)
    assert model_to_json(rebuilt) == doc
    assert rebuilt.states == model.states
    assert rebuilt.n_agents == model.n_agents


def test_model_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        model_from_json([])
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1]})
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1], "family": {"p": 0.75}})
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1], "family": {"type": "mystery"}})
