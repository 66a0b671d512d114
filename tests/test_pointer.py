"""Gaussian pointer algebra: closed-form overlaps, Bures angles, grid oracle.

Every closed-form quantity asserted here is cross-checked against trapezoidal
quadrature of the sampled wavefunctions, which shares no code with the
Gram-matrix route.
"""

import math

import numpy as np
import pytest

from gridoracle import grid_inner, grid_overlap, to_grid
from wvsim.errors import InvalidData
from wvsim.pointer import (
    PointerMixture,
    bures_mixed,
    bures_pure,
    gaussian,
    mean_position,
    overlap,
    superpose,
)

EXP_MINUS_HALF = 0.6065306597126334       # exp(-0.5) = exp(-(2-0)^2/8)
EXP_SMALL_SHIFT = 0.9999875000781246      # exp(-0.01^2/8)


def phi_w(g=1.0, eps=0.01, delta=1.0):
    """Conditioned pointer 2 G_0 - G_{-g eps}, normalized."""
    return superpose([(2.0, gaussian(0.0, delta)), (-1.0, gaussian(-g * eps, delta))])


class TestGaussian:
    def test_unit_self_overlap(self):
        phi0 = gaussian(0.0, 1.0)
        assert overlap(phi0, phi0) == pytest.approx(1.0, abs=1e-14)

    def test_shifted_state_is_the_same_gaussian_moved(self):
        phi_e = gaussian(0.01, 1.0)
        assert phi_e.shifts == (0.01,)
        assert overlap(phi_e, phi_e) == pytest.approx(1.0, abs=1e-14)

    def test_two_sigma_overlap(self):
        assert overlap(gaussian(2.0, 1.0), gaussian(0.0, 1.0)).real == pytest.approx(
            EXP_MINUS_HALF, rel=1e-14)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(InvalidData, match="width must be positive, got 0.0"):
            gaussian(0.0, 0.0)
        with pytest.raises(InvalidData, match="width must be positive, got -1.0"):
            gaussian(0.0, -1.0)


class TestOverlap:
    def test_identical_states(self):
        w = phi_w()
        assert overlap(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_small_shift_value(self):
        val = overlap(gaussian(0.0, 1.0), gaussian(0.01, 1.0))
        assert val.real == pytest.approx(EXP_SMALL_SHIFT, rel=1e-14)
        assert val.imag == 0.0

    def test_far_separated_gaussians_vanish(self):
        assert abs(overlap(gaussian(0.0, 1.0), gaussian(100.0, 1.0))) < 1e-300

    def test_width_mismatch(self):
        with pytest.raises(InvalidData, match="widths differ: 1.0 vs 2.0"):
            overlap(gaussian(0.0, 1.0), gaussian(0.0, 2.0))


class TestSuperpose:
    def test_conditioned_pointer_norm_and_mean(self):
        w = phi_w()
        assert overlap(w, w) == pytest.approx(1.0, abs=1e-12)
        # effectively a Gaussian moved to the weak value: mean ~ g*eps*1
        assert mean_position(w) == pytest.approx(0.01, rel=1e-3)

    def test_zero_coefficient_is_identity(self):
        base = phi_w()
        again = superpose([(1.0, base), (0.0, gaussian(3.0, 1.0))])
        assert again.shifts == base.shifts
        np.testing.assert_allclose(again.coeffs, base.coeffs, atol=1e-14)

    def test_exact_cancellation_raises(self):
        phi = gaussian(0.5, 1.0)
        with pytest.raises(InvalidData, match="superposition cancelled to the zero function"):
            superpose([(1.0, phi), (-1.0, phi)])

    def test_mixed_widths_rejected(self):
        with pytest.raises(InvalidData, match="widths differ: 2.0 vs 1.0"):
            superpose([(1.0, gaussian(0.0, 1.0)), (1.0, gaussian(0.0, 2.0))])

    def test_normalization_idempotent(self):
        w = phi_w()
        again = superpose([(1.0, w)])
        assert max(abs(a - b) for a, b in zip(again.coeffs, w.coeffs)) < 1e-14


class TestBuresPure:
    def test_eigenvalue_shift_distance(self):
        # arccos exp(-eps^2/8) = eps/2 + O(eps^3)
        d = bures_pure(gaussian(0.0, 1.0), gaussian(0.01, 1.0))
        assert d == pytest.approx(0.005, abs=1e-7)

    def test_identical_states_have_zero_distance(self):
        w = phi_w()
        assert bures_pure(w, w) == pytest.approx(0.0, abs=1e-6)

    def test_zero_iff_equal_up_to_global_phase(self):
        w = phi_w()
        flipped = superpose([(-1.0, w)])
        assert bures_pure(w, flipped) == pytest.approx(0.0, abs=1e-6)
        assert bures_pure(w, gaussian(1.0, 1.0)) > 0.1

    def test_weak_vs_eigen_distance(self):
        d = bures_pure(gaussian(0.01, 1.0), phi_w())
        assert d == pytest.approx(1e-4 / (2 * math.sqrt(2)), rel=0.05)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = gaussian(rng.uniform(-3, 3), 1.0)
            b = superpose([(rng.normal() + 1j * rng.normal(), gaussian(rng.uniform(-3, 3), 1.0)),
                           (rng.normal() + 1j * rng.normal(), gaussian(rng.uniform(-3, 3), 1.0))])
            d_ab, d_ba = bures_pure(a, b), bures_pure(b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-14)
            assert 0.0 <= d_ab <= math.pi / 2


class TestBuresMixed:
    def test_single_component_degenerates_to_pure(self):
        w = phi_w()
        mix = PointerMixture(((1.0, w),))
        phi_e = gaussian(0.01, 1.0)
        assert bures_mixed(phi_e, mix) == pytest.approx(bures_pure(phi_e, w), abs=1e-14)
        assert bures_mixed(w, mix) == pytest.approx(0.0, abs=1e-7)

    def test_equal_mixture_of_shifted_gaussians(self):
        g, eps = 1.0, 0.01
        mix = PointerMixture(((0.5, gaussian(0.0, 1.0)), (0.5, gaussian(2 * g * eps, 1.0))))
        d = bures_mixed(gaussian(g * eps, 1.0), mix)
        assert d == pytest.approx(g * eps / 2, rel=0.01)

    def test_orthogonal_mixture(self):
        mix = PointerMixture(((0.5, gaussian(-100.0, 1.0)), (0.5, gaussian(100.0, 1.0))))
        assert bures_mixed(gaussian(0.0, 1.0), mix) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_weight_validation(self):
        with pytest.raises(InvalidData, match="mixture weights sum to 0.5, expected 1"):
            PointerMixture(((0.5, gaussian(0.0, 1.0)),))


class TestMeanPosition:
    def test_centered_gaussian(self):
        assert mean_position(gaussian(1.7, 0.3)) == pytest.approx(1.7, abs=1e-12)

    def test_symmetric_superposition(self):
        s = superpose([(1.0, gaussian(-2.0, 1.0)), (1.0, gaussian(2.0, 1.0))])
        assert mean_position(s) == pytest.approx(0.0, abs=1e-12)

    def test_resuperposed_single_gaussian_exact(self):
        s = superpose([(1.0, gaussian(0.37, 1.0))])
        assert mean_position(s) == pytest.approx(0.37, abs=1e-12)


class TestGridOracle:
    def test_trapezoidal_norm_of_unit_gaussian(self):
        f = to_grid(gaussian(0.0, 1.0), -10.0, 10.0, 4096)
        assert grid_inner(f, f).real == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_overlap_matches_quadrature(self):
        phi_e = gaussian(0.01, 1.0)
        w = phi_w()
        for a, b in [(phi_e, w), (gaussian(0.0, 1.0), phi_e), (w, w),
                     (gaussian(0.0, 1.0), gaussian(2.0, 1.0))]:
            closed = overlap(a, b)
            quad = grid_overlap(a, b)
            assert abs(closed - quad) <= 1e-6 * max(abs(closed), 1e-30)

    def test_quadrature_mean_position_agrees(self):
        w = phi_w()
        f = to_grid(w)
        qs = f.qs
        quad_mean = np.trapezoid(qs * np.abs(f.values) ** 2, qs)
        assert mean_position(w) == pytest.approx(quad_mean, abs=1e-9)

    def test_range_guard(self):
        wide = superpose([(1.0, gaussian(-5.0, 1.0)), (1.0, gaussian(5.0, 1.0))])
        with pytest.raises(InvalidData, match="does not cover shifts padded to"):
            to_grid(wide, -6.0, 6.0, 4096)

    def test_minimum_sample_count(self):
        with pytest.raises(InvalidData, match="need at least 16 samples, got 8"):
            to_grid(gaussian(0.0, 1.0), n=8)

    def test_complex_coefficients_round_trip(self):
        s = superpose([(1.0, gaussian(0.0, 1.0)), (1j, gaussian(0.4, 1.0))])
        assert abs(overlap(s, s) - grid_overlap(s, s)) < 1e-6
        phase = grid_overlap(gaussian(0.0, 1.0), s)
        assert abs(overlap(gaussian(0.0, 1.0), s) - phase) < 1e-6
