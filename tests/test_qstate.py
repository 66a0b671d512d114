"""State and observable primitives: construction, inner products, spectra."""

import math
import re

import numpy as np
import pytest

from wvsim.errors import InvalidData
from wvsim.measurement import branch_weights, weak_value
from wvsim.qstate import Observable, make_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT10 = 0.31622776601683794  # 1/sqrt(10)


def seeded_rows(d):
    """40 seeded complex rows of length d spanning 600 decades, with some
    zero entries but no all-zero row."""
    rng = np.random.default_rng([5, d])
    rows = ((rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d)))
            * 10.0 ** rng.uniform(-300, 300, (40, 1)))
    rows[rng.random((40, d)) < 0.15] = 0.0
    rows[:, 0] += rows[:, 0] == 0  # no all-zero row
    return rows


class TestMakeState:
    def test_two_term_normalization(self):
        state = make_state([(-1, 1), (0, 1)])
        assert state.labels == (-1, 0)
        np.testing.assert_allclose(state.vector, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_single_term_scale_dropped(self):
        state = make_state([(1, 5)])
        assert state.labels == (1,)
        assert state.amplitudes == (1 + 0j,)

    def test_phase_preserved(self):
        state = make_state([(0, 1), (1, 1j)])
        np.testing.assert_allclose(state.vector, [INV_SQRT2, INV_SQRT2 * 1j], atol=1e-15)

    def test_labels_sorted(self):
        state = make_state([(3, 1), (-2, 2)])
        assert state.labels == (-2, 3)
        amplitude = dict(zip(state.labels, state.amplitudes))
        assert abs(amplitude[-2]) > abs(amplitude[3])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidData, match="^all amplitudes are zero$"):
            make_state([(0, 0), (1, 0)])

    @pytest.mark.parametrize("pairs", [
        pytest.param([(0, 1), (0, 1)], id="equal"),
        # the first bad item in input order is the one reported
        pytest.param([(0, 1), (0, math.nan)], id="before-a-non-finite"),
    ])
    def test_duplicate_label_rejected(self, pairs):
        with pytest.raises(InvalidData, match="label 0 given more than once"):
            make_state(pairs)

    def test_integer_amplitude_beyond_float_range_rejected(self):
        with pytest.raises(InvalidData,
                           match="^amplitude of label 0 is out of floating-point range$"):
            make_state([(0, 10**400)])

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-200, 1e-158, 1e154, 1e300])
    def test_extreme_magnitudes_normalise_without_overflow_or_underflow(self, scale):
        # a plain norm overflows above ~1e154 and underflows below ~1e-154
        state = make_state([(0, 3 * scale), (1, 4j * scale)])
        np.testing.assert_allclose(state.vector, [0.6, 0.8j], rtol=1e-15)

    def test_near_overflow_amplitudes_stay_unit_norm(self):
        state = make_state([(0, 1e308), (1, -1e308 + 1e308j)])
        assert np.linalg.norm(state.vector) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(state.vector, np.array([1, -1 + 1j]) / math.sqrt(3),
                                   rtol=1e-15)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_normalize_rows_equal_make_state_bitwise(self, d):
        def one_by_one(row):  # exact power-of-two rescale, then numpy.linalg.norm's sum
            e = math.frexp(max(max(abs(a.real), abs(a.imag)) for a in row))[1]
            vec = np.array([complex(math.ldexp(a.real, -e), math.ldexp(a.imag, -e))
                            for a in row])
            return vec / math.sqrt(vec.real.dot(vec.real) + vec.imag.dot(vec.imag))

        for row in seeded_rows(d):
            ref = one_by_one(row).tobytes()
            assert np.array(make_state(zip(range(d), row)).amplitudes).tobytes() == ref

    @pytest.mark.parametrize("d", range(1, 17))
    def test_vector_is_the_read_only_amplitudes(self, d):
        for row in seeded_rows(d):
            state = make_state(zip(range(d), row))
            assert state.vector.tobytes() == np.asarray(state.amplitudes).tobytes()
            with pytest.raises(ValueError):
                state.vector[0] = 1.0

    @pytest.mark.parametrize("pairs", [
        *(pytest.param([(1, 1), (0, amp)], id=str(amp))
          for amp in (math.nan, math.inf, -math.inf, complex(1, math.nan))),
        # the first bad item in input order is the one reported
        pytest.param([(0, math.nan), (0, 1)], id="before-a-repeat"),
        pytest.param([(1, 1), (0, math.inf), (1, 2)], id="before-a-later-repeat"),
    ])
    def test_non_finite_amplitude_rejected(self, pairs):
        with pytest.raises(InvalidData, match="amplitude of label 0 is not finite"):
            make_state(pairs)


    @pytest.mark.parametrize("pairs, label", [
        pytest.param([(0.7, 1), (1.2, 1)], 0.7, id="fraction"),
        pytest.param([(0, 1), ("a", 1)], "a", id="word"),
        pytest.param([(0, 1), ("1", 1)], "1", id="numeral"),
        pytest.param([(0, 1), (math.nan, 1)], math.nan, id="nan"),
        pytest.param([(0, 1), (math.inf, 1)], math.inf, id="inf"),
        pytest.param([(0, 1), (1 + 0j, 1)], 1 + 0j, id="complex"),
        pytest.param([(0, 1), (None, 1)], None, id="none"),
        # the first bad item in input order is the one reported
        pytest.param([(0.5, math.nan), (0, 1)], 0.5, id="before-a-non-finite"),
    ])
    def test_non_integer_label_rejected(self, pairs, label):
        with pytest.raises(InvalidData, match=f"^label {re.escape(repr(label))} is not an integer$"):
            make_state(pairs)

    def test_integral_labels_of_any_type_are_their_ints(self):
        state = make_state([(np.int64(2), 1), (1.0, 1j), (np.float64(-3.0), 2), (0, 1)])
        assert state.labels == (-3, 0, 1, 2)
        assert [type(label) for label in state.labels] == [int] * 4
        assert state == make_state([(2, 1), (1, 1j), (-3, 2), (0, 1)])


class TestInner:
    def test_two_state_selection_overlap(self):
        bra = make_state([(-1, 1), (0, -2)])
        ket = make_state([(-1, 1), (0, 1)])
        assert np.vdot(bra.vector, ket.vector) == pytest.approx(-INV_SQRT10, abs=1e-15)

    def test_self_overlap_is_one(self):
        ket = make_state([(0, 1), (1, 2), (2, 3j)])
        assert np.vdot(ket.vector, ket.vector) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        a = make_state([(0, 1), (1, 0)])
        b = make_state([(0, 0), (1, 1)])
        assert np.vdot(a.vector, b.vector) == 0

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0,\) vs \(1,\)"):
            weak_value(make_state([(0, 1)]), make_state([(1, 1)]), Observable.diagonal((1,)))


class TestApply:
    def test_integer_observable_diagonal_action(self):
        a = Observable.diagonal((-1, 0))
        state = make_state([(-1, 1), (0, 1)])
        np.testing.assert_allclose(a.matrix @ state.vector, [-INV_SQRT2, 0], atol=1e-15)

    def test_identity_leaves_state(self):
        state = make_state([(0, 1), (1, 1j), (2, -1)])
        ident = Observable.diagonal((0, 1, 2), [1, 1, 1])
        np.testing.assert_allclose(ident.matrix @ state.vector, state.vector)

    def test_sigmaz_flips_up_x_to_down_x(self):
        # hand oracle: diag(-1,+1) on (1,1)/sqrt2 -> (-1,1)/sqrt2
        sigma_z = Observable.diagonal((-1, 1))
        up_x = make_state([(-1, 1), (1, 1)])
        down_x = make_state([(-1, -1), (1, 1)])
        np.testing.assert_allclose(sigma_z.matrix @ up_x.vector, down_x.vector, atol=1e-15)

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0, 1\) vs \(0, 2\)"):
            branch_weights(make_state([(0, 1), (1, 1)]), None, Observable.diagonal((0, 2)))


class TestExpectation:
    def test_superposition_of_zero_and_two(self):
        a = Observable.diagonal((0, 1, 2))
        state = make_state([(0, 1), (1, 0), (2, 1)])
        assert np.vdot(state.vector, a.matrix @ state.vector).real == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate(self):
        a = Observable.diagonal((0, 1, 2))
        state = make_state([(0, 0), (1, 1), (2, 0)])
        assert np.vdot(state.vector, a.matrix @ state.vector).real == pytest.approx(1.0)

    def test_symmetric_superposition(self):
        a = Observable.diagonal((-1, 0, 1))
        state = make_state([(-1, 1), (0, 0), (1, 1)])
        assert np.vdot(state.vector, a.matrix @ state.vector).real == pytest.approx(0.0, abs=1e-14)


class TestObservable:
    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidData, match="matrix is not equal to its conjugate transpose"):
            Observable((0, 1), np.array([[0, 1], [0, 0]], dtype=complex))
        # the tolerance is relative: a small matrix is held to its own scale
        with pytest.raises(InvalidData, match="matrix is not equal to its conjugate transpose"):
            Observable((0, 1), [[0, 1e-13], [0, 0]])

    def test_small_off_diagonal_entries_are_not_dropped(self):
        obs = Observable((0, 1), [[0, 1e-13], [1e-13, 0]])
        vals, vecs = obs.eigenbasis
        assert vecs is not None
        np.testing.assert_allclose(vals, [-1e-13, 1e-13], rtol=1e-15)
        pre, post = make_state([(0, 1), (1, 0.3)]), make_state([(0, 1), (1, 2j)])
        vals, w = branch_weights(pre, post, obs)
        assert weak_value(pre, post, obs) == pytest.approx(np.sum(vals * w) / np.sum(w),
                                                           rel=1e-14)

    def test_large_hermitian_with_rounding_residue_accepted(self):
        rng = np.random.default_rng(31)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        spectrum = [1e6, 2e6, -3e6, 5e5]
        m = u @ np.diag(spectrum) @ u.conj().T
        assert np.max(np.abs(m - m.conj().T)) > 1e-12
        obs = Observable((0, 1, 2, 3), m)
        # stored as its Hermitian part, which is exactly Hermitian
        np.testing.assert_array_equal(obs.matrix, obs.matrix.conj().T)
        np.testing.assert_allclose(obs.matrix, m, rtol=0, atol=1e-15 * 3e6)
        np.testing.assert_allclose(obs.eigenbasis[0], sorted(spectrum), rtol=1e-12)
        state = make_state([(0, 1), (1, 0), (2, 1j), (3, 0)])
        assert isinstance(np.vdot(state.vector, obs.matrix @ state.vector).real, float)

    def test_exactly_hermitian_matrix_stored_as_given(self):
        m = np.array([[-0.0, 1 - 2j], [1 + 2j, 3e300]])
        assert Observable((0, 1), m).matrix.tobytes() == m.tobytes()

    def test_integer_entry_beyond_float_range_rejected(self):
        big = 10**400
        for obs in (lambda: Observable((0, 1), [[0, 0], [0, big]]),
                    lambda: Observable.diagonal((0, big))):
            with pytest.raises(InvalidData,
                               match="^matrix has an entry out of floating-point range$"):
                obs()

    @pytest.mark.parametrize("labels, matrix, entry", [
        *(pytest.param((1, 3), [[1, 0], [bad, 1]], r"\(3, 1\)", id=str(bad))
          for bad in (math.nan, math.inf, complex(0, -math.inf))),
        # reported before the matrix is found not to be Hermitian
        pytest.param((0, 1), [[math.nan, 1], [0, 1]], r"\(0, 0\)", id="before-hermiticity"),
    ])
    def test_non_finite_entry_rejected(self, labels, matrix, entry):
        with pytest.raises(InvalidData, match=f"matrix entry {entry} is not finite"):
            Observable(labels, matrix)

    def test_diagonal_constructor_has_exact_zero_offdiagonals(self):
        a = Observable.diagonal((-1, 0, 1))
        off = a.matrix - np.diag(np.diagonal(a.matrix))
        assert np.all(off == 0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidData, match=r"observable labels \(0, 0\) are not distinct"):
            Observable.diagonal((0, 0))

    @pytest.mark.parametrize("labels, label", [
        pytest.param((0.5, 1.5), 0.5, id="fractions"),
        pytest.param((0, 1.5), 1.5, id="fraction"),
        pytest.param((0, "a"), "a", id="word"),
        pytest.param((0, math.nan), math.nan, id="nan"),
    ])
    def test_non_integer_label_rejected(self, labels, label):
        match = f"^label {re.escape(repr(label))} is not an integer$"
        with pytest.raises(InvalidData, match=match):
            Observable(labels, [[1, 0], [0, 2]])
        with pytest.raises(InvalidData, match=match):
            Observable.diagonal(labels)
        with pytest.raises(InvalidData, match=match):
            Observable.diagonal(labels, [1.0, 2.0])

    def test_integral_labels_of_any_type_are_their_ints(self):
        a = Observable((np.int64(0), 1.0), [[1, 0], [0, 2]])
        assert a.labels == (0, 1) and [type(label) for label in a.labels] == [int] * 2
        diag = Observable.diagonal((np.int64(-1), 0.0, np.float64(2.0)))
        assert diag.labels == (-1, 0, 2) and [type(label) for label in diag.labels] == [int] * 3
        assert diag.matrix.tobytes() == Observable.diagonal((-1, 0, 2)).matrix.tobytes()

    def test_matrix_is_immutable(self):
        a = Observable.diagonal((0, 1))
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 5.0

    def test_eigenbasis_of_diagonal_matrix_is_the_label_basis(self):
        vals, vecs = Observable.diagonal((-1, 0, 2)).eigenbasis
        assert vals.tolist() == [-1.0, 0.0, 2.0]
        assert vecs is None

    def test_eigenbasis_is_computed_once_and_read_only(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        sigma_x = Observable((0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
        vals, vecs = sigma_x.eigenbasis
        assert sigma_x.eigenbasis[1] is vecs
        assert len(calls) == 1
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, sigma_x.matrix,
                                   atol=1e-15)
        with pytest.raises(ValueError):
            vals[0] = 5.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 5.0


def _random_state(rng, labels):
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    return make_state(list(zip(labels, amps)))


def _random_hermitian(rng, labels):
    n = len(labels)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Observable(labels, m + m.conj().T)


class TestAlgebraicProperties:
    """Randomized checks of the structural identities."""

    def test_expectation_always_real(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 5, 8, 16):
            labels = tuple(range(dim))
            for _ in range(20):
                obs, state = _random_hermitian(rng, labels), _random_state(rng, labels)
                val = np.vdot(state.vector, obs.matrix @ state.vector).real
                assert isinstance(val, float)

    def test_expectation_of_large_observables_is_real(self):
        # rounding in the imaginary part grows with the entries of A; an
        # absolute bound would call these valid Hermitian matrices complex
        rng = np.random.default_rng(14)
        labels = tuple(range(8))
        for _ in range(200):
            obs = _random_hermitian(rng, labels)
            big = Observable(labels, 1e6 * obs.matrix)
            state = _random_state(rng, labels)
            mean, big_mean = (np.vdot(state.vector, m @ state.vector).real
                              for m in (obs.matrix, big.matrix))
            assert big_mean == pytest.approx(1e6 * mean, rel=1e-9, abs=1e-3)

    def test_inner_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        labels = tuple(range(4))
        for _ in range(100):
            a, b = _random_state(rng, labels), _random_state(rng, labels)
            ab, ba = np.vdot(a.vector, b.vector), np.vdot(b.vector, a.vector)
            assert abs(ab - ba.conjugate()) < 1e-14

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(9)
        labels = tuple(range(6))
        for _ in range(100):
            a, b = _random_state(rng, labels), _random_state(rng, labels)
            assert abs(np.vdot(a.vector, b.vector)) <= 1 + 1e-12

    def test_apply_on_eigenstate_scales_by_eigenvalue(self):
        rng = np.random.default_rng(10)
        labels = tuple(range(5))
        for _ in range(25):
            obs = _random_hermitian(rng, labels)
            vals, vecs = np.linalg.eigh(obs.matrix)
            k = rng.integers(len(labels))
            eigstate = make_state(list(zip(labels, vecs[:, k])))
            np.testing.assert_allclose(obs.matrix @ eigstate.vector, vals[k] * eigstate.vector,
                                       atol=1e-12)
