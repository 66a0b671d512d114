"""The pointer kernel: closed-form norms, Bures angles, moments, grid oracle.

A pointer is sum_j w_j G_{u_j}, given as (kicks u, weights w) and a width.
Every closed-form quantity asserted here is cross-checked against trapezoidal
quadrature of the sampled wavefunctions, which shares no code with the
kernel; Hypothesis checks its invariants over random kicks and weights.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridoracle import grid_cos_angle, grid_inner, grid_overlap, to_grid
from wvsim import pointer
from wvsim.errors import InvalidData
from wvsim.measurement import CouplingConfig
from wvsim.pointer import angle, mean_position, mixture_angle, norm_sq

EXP_MINUS_HALF = 0.6065306597126334       # exp(-0.5) = exp(-(2-0)^2/8)
EXP_SMALL_SHIFT = 0.9999875000781246      # exp(-0.01^2/8)

# Conditioned pointer 2 G_0 - G_{-g eps} at g eps = 0.01, unnormalized.
PHI_W = ([0.0, -0.01], [2.0, -1.0])


def unit(kicks, weights, delta=1.0):
    """The same pointer with weights rescaled to unit norm."""
    w = np.asarray(weights, dtype=complex)
    return kicks, w / math.sqrt(norm_sq(kicks, w, delta))


def shifted(pointer, center):
    """Kicks relative to a reference Gaussian at `center`."""
    kicks, weights = pointer
    return [u - center for u in kicks], weights


class TestGaussian:
    def test_unit_self_overlap(self):
        assert norm_sq([0.0], [1.0], 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_shifted_state_is_the_same_gaussian_moved(self):
        assert norm_sq([0.01], [1.0], 1.0) == pytest.approx(1.0, abs=1e-14)
        assert angle(*shifted(([0.01], [1.0]), 0.01), 1.0) == 0.0
        assert mean_position([0.01], [1.0], 1.0) == pytest.approx(0.01, abs=1e-15)

    def test_two_sigma_overlap(self):
        assert math.cos(angle([2.0], [1.0], 1.0)) == pytest.approx(EXP_MINUS_HALF, rel=1e-14)

    def test_nonpositive_width_rejected(self):
        # the width reaches the kernel only through CouplingConfig
        with pytest.raises(InvalidData, match=r"positive and finite, got \(1.0, 0.001, 0.0\)"):
            CouplingConfig(1.0, 1e-3, 0.0)
        with pytest.raises(InvalidData, match=r"positive and finite, got \(1.0, 0.001, -1.0\)"):
            CouplingConfig(1.0, 1e-3, -1.0)


class TestOverlap:
    def test_identical_states(self):
        assert norm_sq(*unit(*PHI_W), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_small_shift_value(self):
        assert math.cos(angle([0.01], [1.0], 1.0)) == pytest.approx(EXP_SMALL_SHIFT, rel=1e-14)

    def test_far_separated_gaussians_vanish(self):
        # the cosine |<G_0|G_100>| = exp(-1250) underflows to exactly 0
        assert angle([100.0], [1.0], 1.0) == math.pi / 2


class TestSuperpose:
    def test_conditioned_pointer_norm_and_mean(self):
        assert norm_sq(*unit(*PHI_W), 1.0) == pytest.approx(1.0, abs=1e-12)
        # effectively a Gaussian moved to the weak value: mean ~ g*eps*1
        assert mean_position(*PHI_W, 1.0) == pytest.approx(0.01, rel=1e-3)

    def test_zero_coefficient_is_identity(self):
        padded = ([0.0, -0.01, 3.0], [2.0, -1.0, 0.0])
        for f in (norm_sq, angle, mean_position):
            assert abs(f(*padded, 1.0) - f(*PHI_W, 1.0)) < 1e-14

    def test_exact_cancellation_has_zero_norm(self):
        assert norm_sq([0.5, 0.5], [1.0, -1.0], 1.0) == 0.0

    def test_normalization_idempotent(self):
        for f in (angle, mean_position):
            assert abs(f(*unit(*PHI_W), 1.0) - f(*PHI_W, 1.0)) < 1e-14


class TestBuresPure:
    def test_eigenvalue_shift_distance(self):
        # arccos exp(-eps^2/8) = eps/2 + O(eps^3)
        assert angle([0.01], [1.0], 1.0) == pytest.approx(0.005, abs=1e-7)

    def test_identical_states_have_zero_distance(self):
        # duplicate kicks need no merging: 2 G_0 - G_0 is G_0
        assert angle([0.0, 0.0], [2.0, -1.0], 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_zero_iff_equal_up_to_global_phase(self):
        for phase in (-1.0, 1j, (0.6 - 0.8j)):
            assert angle([0.0], [phase], 1.0) == pytest.approx(0.0, abs=1e-6)
        assert angle(*shifted(PHI_W, 1.0), 1.0) > 0.1

    def test_weak_vs_eigen_distance(self):
        d = angle(*shifted(PHI_W, 0.01), 1.0)
        assert d == pytest.approx(1e-4 / (2 * math.sqrt(2)), rel=0.05)

    def test_symmetry_and_range(self):
        # mirroring the pointer about the reference centre keeps the distance
        rng = np.random.default_rng(3)
        for _ in range(50):
            kicks = rng.uniform(-3, 3, size=2)
            weights = rng.normal(size=2) + 1j * rng.normal(size=2)
            d, d_mirror = angle(kicks, weights, 1.0), angle(-kicks, weights, 1.0)
            assert d == pytest.approx(d_mirror, abs=1e-14)
            assert 0.0 <= d <= math.pi / 2


class TestBuresMixed:
    def test_single_component_degenerates_to_pure(self):
        assert mixture_angle([0.01], [1.0], 1.0) == pytest.approx(
            angle([0.01], [1.0], 1.0), abs=1e-14)
        assert mixture_angle([0.0], [1.0], 1.0) == pytest.approx(0.0, abs=1e-7)

    def test_equal_mixture_of_shifted_gaussians(self):
        g, eps = 1.0, 0.01
        d = mixture_angle([-g * eps, g * eps], [0.5, 0.5], 1.0)
        assert d == pytest.approx(g * eps / 2, rel=0.01)

    def test_orthogonal_mixture(self):
        assert mixture_angle([-100.0, 100.0], [0.5, 0.5], 1.0) == pytest.approx(
            math.pi / 2, abs=1e-6)


class TestMeanPosition:
    def test_centered_gaussian(self):
        assert mean_position([1.7], [1.0], 0.3) == pytest.approx(1.7, abs=1e-12)

    def test_symmetric_superposition(self):
        assert mean_position([-2.0, 2.0], [1.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_resuperposed_single_gaussian_exact(self):
        assert mean_position([0.37], [0.3 - 0.7j], 1.0) == pytest.approx(0.37, abs=1e-12)


class TestBroadcasting:
    def test_rows_match_single_evaluations(self):
        rng = np.random.default_rng(4)
        kicks = rng.uniform(-2, 2, size=(5, 3))
        weights = rng.normal(size=3) + 1j * rng.normal(size=3)
        for f in (norm_sq, angle, mean_position):
            rows = f(kicks, weights, 0.7)
            assert rows.shape == (5,)
            for k, row in zip(kicks, rows):
                assert row == f(k, weights, 0.7)
        probs = rng.uniform(size=(5, 3))
        rows = mixture_angle(kicks, probs, 0.7)
        for k, p, row in zip(kicks, probs, rows):
            assert row == mixture_angle(k, p, 0.7)


def gram_angle_reference(kicks, weights, delta):
    """`angle` as the quadratic form w^H C w alone, which is how every
    pointer was evaluated before the weak-regime series."""
    x = np.asarray(kicks, dtype=float) / delta
    e = np.exp(x * x / -8.0)
    t = x[..., :, None] * x[..., None, :] / 4.0
    d = x[..., :, None] - x[..., None, :]
    scale = np.where(t >= 0.0, -np.exp(d * d / -8.0), e[..., :, None] * e[..., None, :])
    c = scale * np.expm1(-np.abs(t))
    sin_sq = np.einsum("...j,...jk,...k->...", np.conj(weights), c, weights).real
    return np.arctan2(np.sqrt(np.maximum(sin_sq, 0.0)), np.abs(np.sum(weights * e, axis=-1)))


def at_series_edge(direction):
    """Kicks in the proportions 1 : -0.6 : 0.3 whose largest is the last
    float inside the series domain, or the first one past it."""
    t_max = pointer._SERIES_T_MAX
    u = 2.0 * math.sqrt(t_max)
    while (u * 0.5) ** 2 > t_max:
        u = np.nextafter(u, 0.0)
    while (np.nextafter(u, 3.0) * 0.5) ** 2 <= t_max:
        u = np.nextafter(u, 3.0)
    if direction > 0:
        u = np.nextafter(u, 3.0)
    return u * np.array([1.0, -0.6, 0.3])


class TestWeakRegimeSeries:
    def test_rows_straddling_the_switch_match_single_evaluations(self):
        rng = np.random.default_rng(8)
        delta = 0.7
        edge = 2.0 * math.sqrt(pointer._SERIES_T_MAX) * delta
        scales = np.concatenate([np.geomspace(1e-8, 3.0, 13),
                                 edge * np.array([1 - 1e-15, 1.0, 1 + 1e-15])])
        for d in (2, 3, 5, 16):
            base = rng.uniform(-1.0, 1.0, d)
            kicks = scales[:, None] * (base / np.max(np.abs(base)))
            for weights in (rng.normal(size=d) + 1j * rng.normal(size=d),
                            rng.normal(size=(len(scales), d)) + 1j * rng.normal(size=(len(scales), d))):
                rows = angle(kicks, weights, delta)
                assert rows.shape == (len(scales),)
                for r, row in enumerate(rows):
                    assert row == angle(kicks[r], weights if weights.ndim == 1 else weights[r], delta)

    def test_series_and_quadratic_form_agree_at_the_switch(self):
        # complex weights, whose sine leads with a first moment that does not
        # cancel, so that the quadratic form is accurate at the switch too
        rng = np.random.default_rng(9)
        inside, outside = at_series_edge(-1), at_series_edge(+1)
        for _ in range(50):
            weights = rng.normal(size=3) + 1j * rng.normal(size=3)
            series = angle(inside, weights, 1.0)
            assert abs(series - gram_angle_reference(inside, weights, 1.0)) <= 1e-14 * series
            assert angle(outside, weights, 1.0) == gram_angle_reference(outside, weights, 1.0)

    def test_one_kick_pointers_keep_the_quadratic_form(self):
        kicks = np.geomspace(1e-9, 40.0, 50)[:, None] * np.array([[1.0], [-1.0]])[:, :, None]
        for weights in ([1.0], [0.3 - 0.7j]):
            assert np.array_equal(angle(kicks, weights, 1.3),
                                  gram_angle_reference(kicks, weights, 1.3))


class TestGridOracle:
    def test_trapezoidal_norm_of_unit_gaussian(self):
        f = to_grid([0.0], [1.0], 1.0, -10.0, 10.0, 4096)
        assert grid_inner(f, f).real == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_overlap_matches_quadrature(self):
        for pointer, center in [(PHI_W, 0.01), (([0.01], [1.0]), 0.0), (PHI_W, 0.0),
                                (([2.0], [1.0]), 0.0)]:
            kicks, weights = shifted(pointer, center)
            closed = math.cos(angle(kicks, weights, 1.0))
            quad = grid_cos_angle(kicks, weights, 1.0)
            assert abs(closed - quad) <= 1e-6 * closed
            closed_norm = norm_sq(kicks, weights, 1.0)
            quad_norm = grid_overlap(pointer, pointer, 1.0).real
            assert abs(closed_norm - quad_norm) <= 1e-6 * closed_norm

    def test_quadrature_mean_position_agrees(self):
        f = to_grid(*PHI_W, 1.0)
        qs = f.qs
        density = np.abs(f.values) ** 2
        quad_mean = np.trapezoid(qs * density, qs) / np.trapezoid(density, qs)
        assert mean_position(*PHI_W, 1.0) == pytest.approx(quad_mean, abs=1e-9)

    def test_range_guard(self):
        with pytest.raises(InvalidData, match="does not cover shifts padded to"):
            to_grid([-5.0, 5.0], [1.0, 1.0], 1.0, -6.0, 6.0, 4096)

    def test_minimum_sample_count(self):
        with pytest.raises(InvalidData, match="need at least 16 samples, got 8"):
            to_grid([0.0], [1.0], 1.0, n=8)

    def test_complex_coefficients_round_trip(self):
        s = ([0.0, 0.4], [1.0, 1j])
        assert abs(norm_sq(*s, 1.0) - grid_overlap(s, s, 1.0)) < 1e-6
        assert abs(math.cos(angle(*s, 1.0)) - grid_cos_angle(*s, 1.0)) < 1e-6
        f = to_grid(*s, 1.0)
        density = np.abs(f.values) ** 2
        quad_mean = np.trapezoid(f.qs * density, f.qs) / np.trapezoid(density, f.qs)
        assert abs(mean_position(*s, 1.0) - quad_mean) < 1e-6


kick_lists = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6)
components = st.floats(-10.0, 10.0)
complex_numbers = st.builds(complex, components, components)


@st.composite
def pointers(draw):
    """(kicks, weights) with at least one weight clear of zero."""
    kicks = draw(kick_lists)
    weights = draw(st.lists(complex_numbers, min_size=len(kicks), max_size=len(kicks)))
    weights[0] += draw(st.sampled_from([1.0, -1.0, 1j]))
    return np.array(kicks), np.array(weights)


class TestKernelProperties:
    @given(pointers(), st.floats(0.1, 10.0))
    def test_angles_lie_in_zero_to_right_angle(self, pointer, delta):
        kicks, weights = pointer
        assert 0.0 <= angle(kicks, weights, delta) <= math.pi / 2
        assert 0.0 <= mixture_angle(kicks, np.abs(weights) ** 2, delta) <= math.pi / 2

    @given(pointers(), complex_numbers.filter(lambda z: abs(z) >= 1e-3))
    def test_invariant_under_rescaling_the_weights(self, pointer, scale):
        kicks, weights = pointer
        # a nearly cancelled pointer is ill-conditioned
        assume(norm_sq(kicks, weights, 1.0) >= 1e-6 * np.sum(np.abs(weights) ** 2))
        for f, tol in ((angle, 1e-9), (mean_position, 1e-9)):
            assert f(kicks, scale * weights, 1.0) == pytest.approx(
                f(kicks, weights, 1.0), rel=tol, abs=tol)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 3.0))
    def test_norm_sq_over_orthonormal_post_selections_sums_to_one(self, n, seed, kick):
        rng = np.random.default_rng(seed)
        pre = rng.normal(size=n) + 1j * rng.normal(size=n)
        pre /= np.linalg.norm(pre)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        kicks = kick * rng.uniform(-1.0, 1.0, size=n)
        total = sum(norm_sq(kicks, np.conj(q[:, k]) * pre, 1.0) for k in range(n))
        assert total == pytest.approx(1.0, abs=1e-12)
