"""State and observable primitives: construction, inner products, spectra."""

import math

import numpy as np
import pytest

from wvsim.errors import InvalidData
from wvsim.measurement import branch_weights, weak_value
from wvsim.qstate import Observable, apply, expectation, inner, make_state, normalize

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT10 = 0.31622776601683794  # 1/sqrt(10)


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
        assert abs(state.amplitude(-2)) > abs(state.amplitude(3))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidData, match="all amplitudes are zero"):
            make_state([(0, 0), (1, 0)])
        with pytest.raises(InvalidData, match="^all amplitudes are zero$"):
            normalize([[1, 2j], [0, 0], [3, 0]])

    def test_duplicate_label_rejected(self):
        with pytest.raises(InvalidData, match="label 0 given more than once"):
            make_state([(0, 1), (0, 1)])

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

        rng = np.random.default_rng([5, d])
        rows = ((rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d)))
                * 10.0 ** rng.uniform(-300, 300, (40, 1)))
        rows[rng.random((40, d)) < 0.15] = 0.0
        rows[:, 0] += rows[:, 0] == 0  # no all-zero row
        batched = normalize(rows)
        for row, out in zip(rows, batched):
            ref = one_by_one(row).tobytes()
            assert out.tobytes() == ref
            assert normalize(row).tobytes() == ref
            assert np.array(make_state(zip(range(d), row)).amplitudes).tobytes() == ref

    @pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(InvalidData, match="amplitude of label 0 is not finite"):
            make_state([(1, 1), (0, amp)])


class TestInner:
    def test_two_state_selection_overlap(self):
        bra = make_state([(-1, 1), (0, -2)])
        ket = make_state([(-1, 1), (0, 1)])
        assert inner(bra, ket) == pytest.approx(-INV_SQRT10, abs=1e-15)

    def test_self_overlap_is_one(self):
        ket = make_state([(0, 1), (1, 2), (2, 3j)])
        assert inner(ket, ket) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        a = make_state([(0, 1), (1, 0)])
        b = make_state([(0, 0), (1, 1)])
        assert inner(a, b) == 0

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0,\) vs \(1,\)"):
            inner(make_state([(0, 1)]), make_state([(1, 1)]))


class TestApply:
    def test_integer_observable_diagonal_action(self):
        a = Observable.diagonal((-1, 0))
        state = make_state([(-1, 1), (0, 1)])
        np.testing.assert_allclose(apply(a, state), [-INV_SQRT2, 0], atol=1e-15)

    def test_identity_leaves_state(self):
        state = make_state([(0, 1), (1, 1j), (2, -1)])
        ident = Observable.diagonal((0, 1, 2), [1, 1, 1])
        np.testing.assert_allclose(apply(ident, state), state.vector)

    def test_sigmaz_flips_up_x_to_down_x(self):
        # hand oracle: diag(-1,+1) on (1,1)/sqrt2 -> (-1,1)/sqrt2
        sigma_z = Observable.diagonal((-1, 1))
        up_x = make_state([(-1, 1), (1, 1)])
        down_x = make_state([(-1, -1), (1, 1)])
        np.testing.assert_allclose(apply(sigma_z, up_x), down_x.vector, atol=1e-15)

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0, 1\) vs \(0, 2\)"):
            apply(Observable.diagonal((0, 1)), make_state([(0, 1), (2, 1)]))


class TestExpectation:
    def test_superposition_of_zero_and_two(self):
        a = Observable.diagonal((0, 1, 2))
        state = make_state([(0, 1), (1, 0), (2, 1)])
        assert expectation(a, state) == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate(self):
        a = Observable.diagonal((0, 1, 2))
        assert expectation(a, make_state([(0, 0), (1, 1), (2, 0)])) == pytest.approx(1.0)

    def test_symmetric_superposition(self):
        a = Observable.diagonal((-1, 0, 1))
        state = make_state([(-1, 1), (0, 0), (1, 1)])
        assert expectation(a, state) == pytest.approx(0.0, abs=1e-14)


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
        assert isinstance(expectation(obs, make_state([(0, 1), (1, 0), (2, 1j), (3, 0)])), float)

    def test_exactly_hermitian_matrix_stored_as_given(self):
        m = np.array([[-0.0, 1 - 2j], [1 + 2j, 3e300]])
        assert Observable((0, 1), m).matrix.tobytes() == m.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(InvalidData, match=r"matrix entry \(3, 1\) is not finite"):
            Observable((1, 3), [[1, 0], [bad, 1]])

    def test_diagonal_constructor_has_exact_zero_offdiagonals(self):
        a = Observable.diagonal((-1, 0, 1))
        off = a.matrix - np.diag(np.diagonal(a.matrix))
        assert np.all(off == 0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidData, match=r"observable labels \(0, 0\) are not distinct"):
            Observable.diagonal((0, 0))

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
                val = expectation(_random_hermitian(rng, labels), _random_state(rng, labels))
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
            assert expectation(big, state) == pytest.approx(1e6 * expectation(obs, state),
                                                            rel=1e-9, abs=1e-3)

    def test_inner_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        labels = tuple(range(4))
        for _ in range(100):
            a, b = _random_state(rng, labels), _random_state(rng, labels)
            assert abs(inner(a, b) - inner(b, a).conjugate()) < 1e-14

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(9)
        labels = tuple(range(6))
        for _ in range(100):
            a, b = _random_state(rng, labels), _random_state(rng, labels)
            assert abs(inner(a, b)) <= 1 + 1e-12

    def test_apply_on_eigenstate_scales_by_eigenvalue(self):
        rng = np.random.default_rng(10)
        labels = tuple(range(5))
        for _ in range(25):
            obs = _random_hermitian(rng, labels)
            vals, vecs = np.linalg.eigh(obs.matrix)
            k = rng.integers(len(labels))
            eigstate = make_state(list(zip(labels, vecs[:, k])))
            np.testing.assert_allclose(apply(obs, eigstate), vals[k] * eigstate.vector,
                                       atol=1e-12)
