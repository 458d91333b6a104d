"""State spaces, signal families, signal drawing, and JSON round-trips."""

import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratebound.network import Network
from ratebound.signal_models import (
    BinarySymmetric,
    Finite,
    Gaussian,
    SignalModel,
    StateSpace,
    _freeze_nested,
    _real,
    indices_from_words,
    model_from_json,
    model_to_json,
    word_edges,
)
from ratebound.sim_engine import SimConfig, _Binding, _chunk_generator, _draw_chunk
from ratebound.strategies import AutarkyML

PMF_SHAPE = "pmf must have shape (n_agents, n_states, support) or (n_states, support)"
MEANS_SHAPE = "means must have shape (n_agents, n_states) or (n_states,)"


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
    assert model.pmf[0, 0] == pytest.approx([0.75, 0.25])
    assert model.pmf[1, 1] == pytest.approx([0.25, 0.75])
    assert model.support == (0, 1)


def test_finite_broadcasts_shared_pmf_across_agents():
    pmf = ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))
    model = SignalModel(StateSpace((0, 1)), Finite((0, 1, 2), pmf), n_agents=3)
    for agent in range(3):
        assert model.pmf[agent, 0] == pytest.approx(pmf[0])
        assert model.pmf[agent, 1] == pytest.approx(pmf[1])


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
    assert model.means.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert model.family.sigma == 2.0
    with pytest.raises(ValueError):
        SignalModel(StateSpace((0, 1)), Gaussian(((1.0, 0.0),), 1.0), n_agents=2)


def test_model_arrays_are_read_only():
    finite = SignalModel(
        StateSpace((0, 1)), Finite((0, 1), ((0.7, 0.3), (0.3, 0.7))), n_agents=2
    )
    gaussian = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 2.0))
    for array in (
        binary_model(0.75, n_agents=2).pmf[0, 0],
        finite.pmf,
        finite.pmf[1, 0],
        gaussian._means,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.9
    assert finite.pmf[0, 0].tolist() == [0.7, 0.3]


def _freeze_reference(values, what):
    """The per-entry freeze of a family's nested values: one check per entry,
    so an error names the first offending value in order."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return tuple(_freeze_reference(v, what) for v in values)
    return _real(values, what)


def _frozen_or_refused(freeze, values):
    try:
        return "frozen", freeze(values, "a pmf entry")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _freeze_array(values, what):
    return _freeze_nested(values, what, PMF_SHAPE)


def _reference_outcome(values):
    """The per-entry freeze's outcome, its nested tuples as the one float
    array a family keeps; ragged rows, which that freeze keeps as they
    stand, are refused with the family's shape message."""
    outcome = _frozen_or_refused(_freeze_reference, values)
    if outcome[0] != "frozen":
        return outcome
    try:
        return "frozen", np.array(outcome[1], dtype=float)
    except ValueError:
        return ValueError, PMF_SHAPE


def _assert_same_outcome(values):
    outcome = _frozen_or_refused(_freeze_array, values)
    expected = _reference_outcome(values)
    assert outcome[0] == expected[0]
    if outcome[0] != "frozen":
        assert outcome[1] == expected[1]
        return outcome
    frozen = outcome[1]
    assert type(frozen) is np.ndarray and frozen.dtype == float
    assert not frozen.flags.writeable
    assert frozen.shape == expected[1].shape
    assert np.array_equal(frozen, expected[1])
    return outcome


def _as_tuples(rows):
    return tuple(map(_as_tuples, rows)) if isinstance(rows, list) else rows


def _nested_forms(rng):
    """One random shape's values as arrays of several dtypes, nested lists
    and tuples, lists of arrays and lists mixing ints with floats."""
    shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
    reals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    ints = rng.integers(-50, 50, size=shape)
    mixed = np.where(rng.random(shape) < 0.5, reals.astype(object), ints.astype(object))
    return [
        reals, reals.astype(np.float32), ints, ints.astype(np.uint8),
        reals.tolist(), ints.tolist(), mixed.tolist(), _as_tuples(mixed.tolist()),
        list(reals), [np.float64(v) for v in reals.ravel()],
    ]


def _spoiled(rng, values):
    """values as nested lists with one entry replaced by a value that is no
    finite real, or one row made ragged, at a random position."""
    rows = np.asarray(values, dtype=float).tolist()
    if not isinstance(rows, list):
        rows = [rows]
    node = rows
    while isinstance(node[0], list):
        node = node[int(rng.integers(len(node)))]
    bad = [True, False, "0.5", math.nan, math.inf, -math.inf, 10**400, "ragged"]
    spoil = bad[rng.integers(len(bad))]
    if spoil == "ragged":
        node.pop() if len(node) > 1 and rng.random() < 0.5 else node.append(0.25)
    else:
        node[int(rng.integers(len(node)))] = spoil
    return rows


def test_the_array_freeze_equals_the_per_entry_freeze():
    rng = np.random.default_rng(2024)
    refused = set()
    for _ in range(150):
        for values in _nested_forms(rng):
            assert _assert_same_outcome(values)[0] == "frozen"
            spoiled = _spoiled(rng, values)
            for form in (spoiled, _as_tuples(spoiled)):
                kind, message = _assert_same_outcome(form)
                if kind != "frozen":
                    ragged = message == PMF_SHAPE
                    refused.add("ragged" if ragged else message.partition(", not ")[2][:6])
        poisoned = rng.normal(size=(3, 4))
        poisoned[rng.integers(3), rng.integers(4)] = rng.choice([math.nan, math.inf])
        for values in (poisoned, poisoned > 0.0, poisoned.astype(str)):
            _assert_same_outcome(values)
    # every spoiled entry was met; ragged rows raise the shape message
    assert refused == {"True", "False", "'0.5'", "nan", "inf", "-inf", "100000",
                       "ragged"}
    with pytest.raises(TypeError):
        _freeze_nested(np.array(0.5), "a mean", PMF_SHAPE)


def test_unknown_family_rejected():
    with pytest.raises(TypeError):
        SignalModel(StateSpace((0, 1)), "not a family")


def test_family_arrays_are_read_only_floats_the_model_reuses():
    given_pmf = np.array([[[0.7, 0.3], [0.3, 0.7]], [[0.6, 0.4], [0.4, 0.6]]])
    finite = Finite((0, 1), given_pmf)
    gaussian = Gaussian([[1, 0], [2, 0]], 1.0)
    for array in (finite.pmf, gaussian.means):
        assert type(array) is np.ndarray and array.dtype == float
        assert not array.flags.writeable
    # the family keeps its own copy of an array it is given
    assert given_pmf.flags.writeable and finite.pmf is not given_pmf
    model = SignalModel(StateSpace((0, 1)), finite, n_agents=2)
    assert model.pmf is finite.pmf
    assert SignalModel(StateSpace((0, 1)), gaussian, 2).means is gaussian.means
    # rows given once per state are stacked once, read-only
    shared = SignalModel(StateSpace((0, 1)), Finite((0, 1), given_pmf[0]), 3)
    assert shared.pmf.shape == (3, 2, 2) and not shared.pmf.flags.writeable
    assert np.array_equal(shared.pmf, np.stack([given_pmf[0]] * 3))


def test_ragged_rows_raise_the_shape_message_at_the_family():
    for rows in ([[0.5, 0.5], [1.0]], ((0.5, 0.5), (1.0,)), [[0.5, 0.5], 1.0],
                 [[[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]]]):
        with pytest.raises(ValueError) as refusal:
            Finite((0, 1), rows)
        assert str(refusal.value) == PMF_SHAPE
    with pytest.raises(ValueError) as refusal:
        Gaussian([[0.0, 1.0], [0.0]], 1.0)
    assert str(refusal.value) == MEANS_SHAPE
    # a bad entry is named before the rows are found ragged
    with pytest.raises(ValueError, match="a pmf entry must be a finite real "
                                         "number, not True"):
        Finite((0, 1), [[0.5, 0.5], [True]])
    # a pmf of the wrong depth still fails at the model, as before
    with pytest.raises(ValueError) as refusal:
        SignalModel(StateSpace((0, 1)), Finite((0, 1), [0.5, 0.5]))
    assert str(refusal.value) == PMF_SHAPE


def _random_model(rng):
    """A random Finite or Gaussian model, its array per agent or per state,
    with some of its zero entries written as -0.0."""
    n, k = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    rows = (n, k) if rng.random() < 0.5 else (k,)
    states = StateSpace(tuple(range(k)))
    if rng.random() < 0.5:
        means = rng.integers(-2, 3, size=rows) * rng.choice([1.0, 0.25])
        means[means == 0.0] *= rng.choice([1.0, -1.0])
        return SignalModel(states, Gaussian(means, float(rng.uniform(0.5, 2))), n)
    m = int(rng.integers(2, 5))
    pmf = rng.dirichlet(np.ones(m), size=rows)
    pmf[..., -1] = 0.0
    pmf /= pmf.sum(axis=-1, keepdims=True)
    pmf[..., -1] *= rng.choice([1.0, -1.0])
    return SignalModel(states, Finite(tuple(range(m)), pmf), n)


def test_families_round_trip_through_json_and_pickle_equal_and_hash_alike():
    rng = np.random.default_rng(25)
    for _ in range(200):
        model = _random_model(rng)
        doc = json.dumps(model_to_json(model))
        for rebuilt in (model_from_json(json.loads(doc)),
                        pickle.loads(pickle.dumps(model))):
            assert rebuilt == model and hash(rebuilt) == hash(model)
            assert rebuilt.family == model.family
            assert hash(rebuilt.family) == hash(model.family)
            assert json.dumps(model_to_json(rebuilt)) == doc
            array = (rebuilt.family.pmf if isinstance(rebuilt.family, Finite)
                     else rebuilt.family.means)
            model_array = rebuilt.pmf if rebuilt.has_finite_support else rebuilt.means
            assert not array.flags.writeable and not model_array.flags.writeable
            assert (model_array is array) == (array.ndim == model_array.ndim)


def test_zero_entries_of_either_sign_compare_equal_and_hash_alike():
    pairs = [
        (Gaussian((0.0, 1.0), 1.0), Gaussian((-0.0, 1.0), 1.0)),
        (Finite((0, 1, 2), ((0.5, 0.5, 0.0), (0.25, 0.75, 0.0))),
         Finite((0, 1, 2), ((0.5, 0.5, -0.0), (0.25, 0.75, -0.0)))),
    ]
    for plus, minus in pairs:
        assert plus == minus and hash(plus) == hash(minus)
    assert Gaussian((0.0, 1.0), 1.0) != Gaussian((0.0, 1.0), 2.0)
    assert Gaussian((0.0, 1.0), 1.0) != Gaussian(((0.0, 1.0),), 1.0)
    assert Finite((0, 1), ((0.5, 0.5),)) != Finite(("a", "b"), ((0.5, 0.5),))
    assert Finite((0, 1), ((0.5, 0.5),)) != Gaussian((0.5, 0.5), 1.0)


# -- sampling ---------------------------------------------------------------------


def test_draw_chunk_gaussian_moments():
    model = SignalModel(StateSpace((0, 1)), Gaussian((1.0, 0.0), 2.0))
    config = SimConfig(model, Network.complete(1), AutarkyML(), 2, 100_000, 7)
    binding = _Binding(config)
    for state, mean in ((0, 1.0), (1, 0.0)):
        draws = _draw_chunk(binding, state, _chunk_generator(7, state, 0), 100_000, 2)
        assert draws.shape == (100_000, 1, 2)
        assert float(draws.mean()) == pytest.approx(mean, abs=0.02)
        assert float(draws.std()) == pytest.approx(2.0, abs=0.02)


# -- raw words and their inverse CDF ----------------------------------------------

WORD_MAX = 2**64 - 1


def _words(u):
    """The smallest raw word whose uniform is u, for uniforms the generator
    can produce: multiples of 2^-53 in [0, 1)."""
    m = np.asarray(u, dtype=float) * 2.0**53
    assert (m == np.floor(m)).all() and (m >= 0).all() and (m < 2.0**53).all()
    return m.astype(np.uint64) << np.uint64(11)


def _uniforms(words):
    """numpy's uniform of each raw word: (w >> 11) * 2^-53."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


def _indices(pmf, words):
    return indices_from_words(word_edges(pmf), np.asarray(words, dtype=np.uint64))


def test_philox_uniforms_are_the_top_53_bits_of_raw_words():
    # The word path relies on numpy building random() from raw Philox words
    # this way; if a numpy release changes it, the draws change and this fails.
    for seed in (0, 1, 2024):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(2, 1, 3))
        u = np.random.Generator(np.random.Philox(ss)).random(10_000)
        words = np.random.Philox(ss).random_raw(10_000)
        assert np.array_equal(u, (words >> np.uint64(11)) * 2.0**-53)


def test_indices_from_uniforms_inverse_cdf_edges():
    pmf = np.array([0.25, 0.75])
    below = np.floor(0.2499 * 2**53) / 2**53
    words = np.append(_words([0.0, below, 0.25, 0.9999]), WORD_MAX)
    assert _indices(pmf, words).tolist() == [0, 0, 1, 1, 1]
    # An admissible row may sum to 1 - 5e-10; a word above its last edge
    # still draws the last atom of positive mass, not the trailing zero.
    model = SignalModel(
        StateSpace((0, 1)),
        Finite((0, 1, 2), ((0.7, 0.2999999995, 0.0), (0.3, 0.6999999995, 0.0))),
    )
    assert model.validate() == []
    top = np.append(_words([0.9999999998, 0.9999999996]), WORD_MAX)
    for state in (0, 1):
        assert _indices(model.pmf[0, state], top).tolist() == [1, 1, 1]


def test_word_edges_are_exact_at_both_ends():
    top = 1.0 - 2.0**-53  # the largest uniform the generator makes
    # A first edge of 0 is cleared by every word, word 0 included.
    assert _indices([0.0, 0.5, 0.5], [0, WORD_MAX]).tolist() == [1, 2]
    # An edge at the largest uniform is cleared by the largest words only.
    row = [top, 2.0**-53]
    assert _indices(row, _words([0.0, top - 2.0**-53, top])).tolist() == [0, 0, 1]
    assert _indices(row, [WORD_MAX]).tolist() == [1]
    # An edge at 1, or past it in a row that sums to 1 + 1e-9, is cleared by
    # no word: its atom is never drawn, not even at the largest word.
    for row in ([0.25, 0.75, 1e-9], [0.25, 0.75 + 1e-9, 0.0], [1.0, 1e-9]):
        edges = word_edges(row)
        assert edges.cap is not None
        got = _indices(row, [0, WORD_MAX - 1, WORD_MAX])
        assert got.max() == len(row) - 2
        assert got.tolist() == _reference_indices(
            np.asarray(row), _uniforms([0, WORD_MAX - 1, WORD_MAX])
        ).tolist()


def test_indices_from_uniforms_hold_the_largest_index_at_type_boundaries():
    # The index type must hold L - 1: int8 up to 128 atoms, int16 up to
    # 32,768. A word near the top draws the last atom at each boundary size.
    for atoms, dtype in ((128, np.int8), (129, np.int16), (32768, np.int16),
                         (32769, np.int32)):
        pmf = np.full(atoms, 1.0 / atoms)
        idx = _indices(pmf, _words([0.0, 1.0 - 1e-12]))
        assert idx.dtype == dtype
        assert idx.tolist() == [0, atoms - 1]


def test_draw_chunk_draws_the_inverse_cdf_of_its_uniforms():
    # _draw_chunk thresholds raw words; the support indices must be those of
    # each agent's float uniforms through her own pmf row.
    model = SignalModel(
        StateSpace((0, 1, 2)),
        Finite(("a", "b", "c"), (
            ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (0.3, 0.4, 0.3)),
            ((0.1, 0.6, 0.3), (0.3, 0.6, 0.1), (0.25, 0.5, 0.25)),
        )),
        n_agents=2,
    )
    config = SimConfig(model, Network.complete(2), AutarkyML(), 5, 100, 9)
    binding = _Binding(config)
    for state in range(3):
        got = _draw_chunk(binding, state, _chunk_generator(9, state, 0), 100, 5)
        u = _chunk_generator(9, state, 0).random((100, 2, 5))
        for agent in range(2):
            idx = _reference_indices(model.pmf[agent, state], u[:, agent])
            assert np.array_equal(got[:, agent], idx)


def _reference_indices(pmf_row, u):
    """Clipped searchsorted, never past the last atom of positive mass."""
    edges = np.cumsum(pmf_row)
    last = np.flatnonzero(pmf_row > 0.0)[-1]
    return np.minimum(np.searchsorted(edges, u, side="right"), last)


@st.composite
def _pmf_rows(draw, k_min=2, k_max=6):
    """A row of k nonnegative weights, zero atoms included, with up to k-1
    trailing zeros, normalized to a sum within 1e-9 of 1, as Finite admits."""
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        min_size=k_min, max_size=k_max,
    ))
    live = len(weights) - draw(st.integers(0, len(weights) - 1))
    weights[live:] = [0.0] * (len(weights) - live)
    weights[live - 1] = draw(st.floats(1e-6, 1.0))
    shortfall = draw(st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)))
    return np.asarray(weights) * ((1.0 - shortfall) / sum(weights))


def _thresholds(rows):
    """ceil(e * 2^53) << 11 for every CDF edge e in [0, 1) of the rows,
    computed in exact rationals."""
    edges = np.cumsum(rows, axis=-1).ravel()
    cuts = (math.ceil(Fraction(float(e)) * 2**53) for e in edges if 0 <= e < 1)
    return [c << 11 for c in cuts if c < 2**53]


@st.composite
def _words_for(draw, rows):
    """Raw words: 0, the largest, every threshold of the rows and the word
    just below it, and random ones."""
    thresholds = _thresholds(rows)
    below = [t - 1 for t in thresholds if t > 0]
    free = draw(st.lists(st.integers(0, WORD_MAX), max_size=20))
    return np.asarray([0, WORD_MAX] + thresholds + below + free, dtype=np.uint64)


@given(st.data())
def test_indices_from_uniforms_matches_clipped_searchsorted(data):
    pmf_row = data.draw(_pmf_rows())
    words = data.draw(_words_for(pmf_row))
    got = _indices(pmf_row, words)
    assert got.shape == words.shape
    assert np.array_equal(got, _reference_indices(pmf_row, _uniforms(words)))


@given(st.data())
def test_indices_from_uniforms_stacked_rows_match_each_row(data):
    k = data.draw(st.integers(2, 5))
    agents = data.draw(st.integers(1, 4))
    rows = np.stack([data.draw(_pmf_rows(k, k)) for _ in range(agents)])
    words = data.draw(_words_for(rows))
    reps = data.draw(st.integers(1, 3))
    # (reps, agents, T) words against (agents, 1, k) rows
    words = np.broadcast_to(words, (reps, agents, len(words)))
    got = _indices(rows[:, None, :], words)
    assert got.shape == words.shape
    u = _uniforms(words)
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


def _reference_finite_violations(model):
    """validate's finite branch as a loop over agents and state pairs."""
    violations = []
    k = model.states.n_states
    for agent in range(model.n_agents):
        support_masks = model.pmf[agent] > 0.0
        for f in range(k):
            for g in range(f + 1, k):
                if not np.array_equal(support_masks[f], support_masks[g]):
                    violations.append(
                        "supports differ: absolute continuity fails "
                        f"(agent {agent}, states {f},{g})"
                    )
                    continue
                mask = support_masks[f]
                if np.allclose(model.pmf[agent, f, mask], model.pmf[agent, g, mask]):
                    violations.append(
                        f"LLR identically zero (agent {agent}, states {f},{g})"
                    )
    return violations


def test_validate_lists_the_finite_violations_of_the_loop():
    # random models with zero-mass atoms and rows equal or near equal to an
    # earlier one, inside and outside np.isclose's tolerance
    rng = np.random.default_rng(23)
    found = set()
    for _ in range(2000):
        n, k, m = rng.integers(1, 5), rng.integers(2, 5), rng.integers(2, 6)
        pmf = rng.dirichlet(np.ones(m), size=(n, k))
        pmf[rng.random((n, k, m)) < 0.15] = 0.0
        pmf[..., 0] += pmf.sum(axis=2) == 0.0
        for agent, f in np.argwhere(rng.random((n, k)) < 0.4):
            g = rng.integers(k)
            nudge = rng.choice([0.0, 1e-9, 1e-6, 1e-3]) * rng.standard_normal(m)
            pmf[agent, f] = pmf[agent, g] * (1.0 + nudge)
        pmf /= pmf.sum(axis=2, keepdims=True)
        model = SignalModel(
            StateSpace(tuple(range(k))), Finite(tuple(range(m)), pmf), int(n)
        )
        expected = _reference_finite_violations(model)
        assert model.validate() == expected
        found.update(v.split(" (")[0] for v in expected)
        found.add(bool(expected))
    assert found == {
        True, False, "LLR identically zero",
        "supports differ: absolute continuity fails",
    }


def test_validate_lists_the_equal_gaussian_means_of_the_loop():
    rng = np.random.default_rng(29)
    found = set()
    for _ in range(300):
        n, k = rng.integers(1, 5), rng.integers(2, 5)
        means = rng.integers(0, 3, size=(n, k)).astype(float)
        model = SignalModel(StateSpace(tuple(range(k))), Gaussian(means, 1.0), int(n))
        expected = [
            f"LLR identically zero (agent {agent}, states {f},{g}: equal means)"
            for agent in range(n) for f in range(k) for g in range(f + 1, k)
            if means[agent, f] == means[agent, g]
        ]
        assert model.validate() == expected
        found.add(bool(expected))
    assert found == {True, False}


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
        SignalModel(StateSpace((0, 1)), Gaussian((0.0, 1.0), 1.5), n_agents=2),
        SignalModel(
            StateSpace((0, 1)), Gaussian(((0.0, 1.0), (0.5, 1.0)), 1.5), n_agents=2
        ),
        SignalModel(
            StateSpace((0, 1)),
            Finite(("a", "b"), (((0.7, 0.3), (0.3, 0.7)), ((0.6, 0.4), (0.4, 0.6)))),
            n_agents=2,
        ),
    ],
    ids=["binary", "finite", "gaussian", "gaussian-per-state", "gaussian-per-agent",
         "finite-per-agent"],
)
def test_model_json_round_trip_is_stable(model):
    # the family is written as given, so a pmf or means given once per state
    # reads back equal, not expanded per agent
    doc = model_to_json(model)
    rebuilt = model_from_json(json.loads(json.dumps(doc)))
    assert model_to_json(rebuilt) == doc
    assert rebuilt == model and hash(rebuilt) == hash(model)
    assert np.array_equal(
        rebuilt.pmf if model.has_finite_support else rebuilt._means,
        model.pmf if model.has_finite_support else model._means,
    )


def test_model_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        model_from_json([])
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1]})
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1], "family": {"p": 0.75}})
    with pytest.raises(ValueError):
        model_from_json({"states": [0, 1], "family": {"type": "mystery"}})
    for family in ({"type": "binary_symmetric"}, {"type": "gaussian", "means": [0, 1]}):
        with pytest.raises(ValueError, match="family needs"):
            model_from_json({"states": [0, 1], "family": family})
    binary = {"type": "binary_symmetric", "p": 0.75}
    for n_agents in (2.0, 2.9, True, "2", 0):
        with pytest.raises(ValueError, match="n_agents"):
            model_from_json({"states": [0, 1], "family": binary, "n_agents": n_agents})
    gaussian = {"type": "gaussian", "means": [0.0, 1.0], "sigma": 1.0}
    for value in ("0.75", True, None, math.nan, 10**400):
        for doc in (
            {"states": [0, 1], "family": dict(binary, p=value)},
            {"states": [0, 1], "family": dict(gaussian, sigma=value)},
            {"states": [0, 1], "family": dict(gaussian, means=[0.0, value])},
            {"states": [0, 1], "family": {
                "type": "finite", "support": [0, 1], "pmf": [[value, 0.5], [0.5, 0.5]],
            }},
            {"states": [0, 1], "prior": [0.5, value], "family": binary},
        ):
            with pytest.raises(ValueError, match="must be a finite real number"):
                model_from_json(doc)
    # numbers of other types are stored as plain floats and ints
    model = SignalModel(
        StateSpace((0, 1), (np.float32(0.25), 0.75)),
        Gaussian((np.float32(1), 0), np.int64(2)),
        np.int64(2),
    )
    assert type(model.n_agents) is int and type(model.family.sigma) is float
    assert model.family.means.dtype == float
    assert all(type(v) is float for v in model.states.prior)
    assert type(BinarySymmetric(np.float32(0.75)).p) is float
