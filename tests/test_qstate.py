"""State and observable primitives: construction, inner products, spectra."""

import math

import numpy as np
import pytest

from wvsim import (
    BasisMismatch,
    DuplicateLabel,
    NotHermitian,
    Observable,
    ZeroVector,
    apply,
    expectation,
    inner,
    make_state,
)

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
        with pytest.raises(ZeroVector):
            make_state([(0, 0), (1, 0)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            make_state([(0, 1), (0, 1)])


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
        with pytest.raises(BasisMismatch):
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
        with pytest.raises(BasisMismatch):
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
        with pytest.raises(NotHermitian):
            Observable((0, 1), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_diagonal_constructor_has_exact_zero_offdiagonals(self):
        a = Observable.diagonal((-1, 0, 1))
        off = a.matrix - np.diag(np.diagonal(a.matrix))
        assert np.all(off == 0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
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
