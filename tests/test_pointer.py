"""The pointer kernel: closed-form norms, Bures angles, grid oracle.

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
from wvsim.measurement import DEFAULT_OVERLAP_FLOOR, CouplingConfig, weakness
from wvsim.pointer import angle_and_norm, mixture_angle

EXP_MINUS_HALF = 0.6065306597126334       # exp(-0.5) = exp(-(2-0)^2/8)
EXP_SMALL_SHIFT = 0.9999875000781246      # exp(-0.01^2/8)

# Conditioned pointer 2 G_0 - G_{-g eps} at g eps = 0.01, unnormalized.
PHI_W = ([0.0, -0.01], [2.0, -1.0])


def unit(kicks, weights, delta=1.0):
    """The same pointer with weights rescaled to unit norm."""
    w = np.asarray(weights, dtype=complex)
    return kicks, w / math.sqrt(angle_and_norm(kicks, w, delta)[1])


def shifted(pointer, center):
    """Kicks relative to a reference Gaussian at `center`."""
    kicks, weights = pointer
    return [u - center for u in kicks], weights


class TestGaussian:
    def test_unit_self_overlap(self):
        assert angle_and_norm([0.0], [1.0], 1.0)[1] == pytest.approx(1.0, abs=1e-14)

    def test_shifted_state_is_the_same_gaussian_moved(self):
        assert angle_and_norm([0.01], [1.0], 1.0)[1] == pytest.approx(1.0, abs=1e-14)
        assert angle_and_norm(*shifted(([0.01], [1.0]), 0.01), 1.0)[0] == 0.0

    def test_two_sigma_overlap(self):
        assert math.cos(angle_and_norm([2.0], [1.0], 1.0)[0]) == pytest.approx(
            EXP_MINUS_HALF, rel=1e-14)

    def test_nonpositive_width_rejected(self):
        # the width reaches the kernel only through CouplingConfig
        with pytest.raises(InvalidData, match=r"positive and finite, got \(1.0, 0.001, 0.0\)"):
            CouplingConfig(1.0, 1e-3, 0.0)
        with pytest.raises(InvalidData, match=r"positive and finite, got \(1.0, 0.001, -1.0\)"):
            CouplingConfig(1.0, 1e-3, -1.0)


class TestOverlap:
    def test_identical_states(self):
        assert angle_and_norm(*unit(*PHI_W), 1.0)[1] == pytest.approx(1.0, abs=1e-12)

    def test_small_shift_value(self):
        assert math.cos(angle_and_norm([0.01], [1.0], 1.0)[0]) == pytest.approx(
            EXP_SMALL_SHIFT, rel=1e-14)

    def test_far_separated_gaussians_vanish(self):
        # the cosine |<G_0|G_100>| = exp(-1250) underflows to exactly 0
        assert angle_and_norm([100.0], [1.0], 1.0)[0] == math.pi / 2


class TestSuperpose:
    def test_conditioned_pointer_norm_and_mean(self):
        assert angle_and_norm(*unit(*PHI_W), 1.0)[1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_coefficient_is_identity(self):
        padded = ([0.0, -0.01, 3.0], [2.0, -1.0, 0.0])
        for got, want in zip(angle_and_norm(*padded, 1.0), angle_and_norm(*PHI_W, 1.0)):
            assert abs(got - want) < 1e-14

    def test_exact_cancellation_has_zero_norm(self):
        assert angle_and_norm([0.5, 0.5], [1.0, -1.0], 1.0)[1] == 0.0

    def test_normalization_idempotent(self):
        unit_angle = angle_and_norm(*unit(*PHI_W), 1.0)[0]
        angle = angle_and_norm(*PHI_W, 1.0)[0]
        assert abs(unit_angle - angle) < 1e-14


class TestBuresPure:
    def test_eigenvalue_shift_distance(self):
        # arccos exp(-eps^2/8) = eps/2 + O(eps^3)
        assert angle_and_norm([0.01], [1.0], 1.0)[0] == pytest.approx(0.005, abs=1e-7)

    def test_identical_states_have_zero_distance(self):
        # duplicate kicks need no merging: 2 G_0 - G_0 is G_0
        assert angle_and_norm([0.0, 0.0], [2.0, -1.0], 1.0)[0] == pytest.approx(0.0, abs=1e-6)

    def test_zero_iff_equal_up_to_global_phase(self):
        for phase in (-1.0, 1j, (0.6 - 0.8j)):
            assert angle_and_norm([0.0], [phase], 1.0)[0] == pytest.approx(0.0, abs=1e-6)
        assert angle_and_norm(*shifted(PHI_W, 1.0), 1.0)[0] > 0.1

    def test_weak_vs_eigen_distance(self):
        d = angle_and_norm(*shifted(PHI_W, 0.01), 1.0)[0]
        assert d == pytest.approx(1e-4 / (2 * math.sqrt(2)), rel=0.05)

    def test_symmetry_and_range(self):
        # mirroring the pointer about the reference centre keeps the distance
        rng = np.random.default_rng(3)
        for _ in range(50):
            kicks = rng.uniform(-3, 3, size=2)
            weights = rng.normal(size=2) + 1j * rng.normal(size=2)
            d = angle_and_norm(kicks, weights, 1.0)[0]
            d_mirror = angle_and_norm(-kicks, weights, 1.0)[0]
            assert d == pytest.approx(d_mirror, abs=1e-14)
            assert 0.0 <= d <= math.pi / 2


class TestBuresMixed:
    def test_single_component_degenerates_to_pure(self):
        assert mixture_angle([0.01], [1.0], 1.0) == pytest.approx(
            angle_and_norm([0.01], [1.0], 1.0)[0], abs=1e-14)
        assert mixture_angle([0.0], [1.0], 1.0) == pytest.approx(0.0, abs=1e-7)

    def test_equal_mixture_of_shifted_gaussians(self):
        g, eps = 1.0, 0.01
        d = mixture_angle([-g * eps, g * eps], [0.5, 0.5], 1.0)
        assert d == pytest.approx(g * eps / 2, rel=0.01)

    def test_orthogonal_mixture(self):
        assert mixture_angle([-100.0, 100.0], [0.5, 0.5], 1.0) == pytest.approx(
            math.pi / 2, abs=1e-6)


class TestBroadcasting:
    def test_rows_match_single_evaluations(self):
        rng = np.random.default_rng(4)
        kicks = rng.uniform(-2, 2, size=(3, 5))
        weights = rng.normal(size=3) + 1j * rng.normal(size=3)
        for q, rows in enumerate(angle_and_norm(kicks, weights, 0.7)):
            assert rows.shape == (5,)
            for k, row in zip(kicks.T, rows):
                assert row == angle_and_norm(k, weights, 0.7)[q]
        probs = rng.uniform(size=3)
        rows = mixture_angle(kicks, probs, 0.7)
        assert rows.shape == (5,)
        for k, row in zip(kicks.T, rows):
            assert row == mixture_angle(k, probs, 0.7)


def gram_angle_reference(kicks, weights, delta):
    """The angle of `angle_and_norm` as the quadratic form w^H C w alone, which is how every
    pointer was evaluated before the weak-regime series; the kicks come
    terms-first, like the kernel's, and are summed along the last axis."""
    x = np.moveaxis(np.asarray(kicks, dtype=float), 0, -1) / delta
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
            kicks = (base / np.max(np.abs(base)))[:, None] * scales
            weights = rng.normal(size=d) + 1j * rng.normal(size=d)
            angles, norms = angle_and_norm(kicks, weights, delta)
            assert angles.shape == norms.shape == (len(scales),)
            for k, angle, norm in zip(kicks.T, angles, norms):
                assert (angle, norm) == angle_and_norm(k, weights, delta)

    def test_rows_past_the_switch_skip_the_series(self, monkeypatch):
        calls = []
        series = pointer._series
        monkeypatch.setattr(pointer, "_series", lambda *a: calls.append(a) or series(*a))
        rng = np.random.default_rng(10)
        kicks = rng.uniform(0.5, 2.0, (3, 36)) * rng.choice([-1.0, 1.0], (3, 1))
        weights = rng.normal(size=3) + 1j * rng.normal(size=3)
        angles, norms = angle_and_norm(kicks, weights, 1.0)
        for k, angle, norm in zip(kicks.T, angles, norms):
            assert (angle, norm) == angle_and_norm(k, weights, 1.0)
        assert calls == []

    def test_series_and_quadratic_form_agree_at_the_switch(self):
        # complex weights, whose sine leads with a first moment that does not
        # cancel, so that the quadratic form is accurate at the switch too
        rng = np.random.default_rng(9)
        inside, outside = at_series_edge(-1), at_series_edge(+1)
        for _ in range(50):
            weights = rng.normal(size=3) + 1j * rng.normal(size=3)
            series = angle_and_norm(inside, weights, 1.0)[0]
            assert abs(series - gram_angle_reference(inside, weights, 1.0)) <= 1e-14 * series
            assert (angle_and_norm(outside, weights, 1.0)[0]
                    == gram_angle_reference(outside, weights, 1.0))

    def test_one_kick_pointers_keep_the_quadratic_form(self):
        kicks = np.array([1.0, -1.0])[None, :, None] * np.geomspace(1e-9, 40.0, 50)
        for weights in ([1.0], [0.3 - 0.7j]):
            assert np.array_equal(angle_and_norm(kicks, weights, 1.3)[0],
                                  gram_angle_reference(kicks, weights, 1.3))


class TestGridOracle:
    def test_trapezoidal_norm_of_unit_gaussian(self):
        f = to_grid([0.0], [1.0], 1.0, -10.0, 10.0, 4096)
        assert grid_inner(f, f).real == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_overlap_matches_quadrature(self):
        for pointer, center in [(PHI_W, 0.01), (([0.01], [1.0]), 0.0), (PHI_W, 0.0),
                                (([2.0], [1.0]), 0.0)]:
            kicks, weights = shifted(pointer, center)
            closed = math.cos(angle_and_norm(kicks, weights, 1.0)[0])
            quad = grid_cos_angle(kicks, weights, 1.0)
            assert abs(closed - quad) <= 1e-6 * closed
            closed_norm = angle_and_norm(kicks, weights, 1.0)[1]
            quad_norm = grid_overlap(pointer, pointer, 1.0).real
            assert abs(closed_norm - quad_norm) <= 1e-6 * closed_norm

    def test_range_guard(self):
        with pytest.raises(InvalidData, match="does not cover shifts padded to"):
            to_grid([-5.0, 5.0], [1.0, 1.0], 1.0, -6.0, 6.0, 4096)

    def test_minimum_sample_count(self):
        with pytest.raises(InvalidData, match="need at least 16 samples, got 8"):
            to_grid([0.0], [1.0], 1.0, n=8)

    def test_complex_coefficients_round_trip(self):
        s = ([0.0, 0.4], [1.0, 1j])
        assert abs(angle_and_norm(*s, 1.0)[1] - grid_overlap(s, s, 1.0)) < 1e-6
        assert abs(math.cos(angle_and_norm(*s, 1.0)[0]) - grid_cos_angle(*s, 1.0)) < 1e-6


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


# kicks whose (u / 2D)^2 at D = 1 stays below the series bound
series_kicks = st.floats(-0.99 * 2.0 * math.sqrt(pointer._SERIES_T_MAX),
                         0.99 * 2.0 * math.sqrt(pointer._SERIES_T_MAX))
nonzero_components = components.filter(lambda v: abs(v) >= 1e-3)


def bits(values):
    """The bytes of each float of a result, so that equal means bit for bit."""
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@st.composite
def series_pointers(draw, complex_weights=True, min_terms=2):
    """(kicks of shape (d, rows), weights of shape (d,)) with d >= min_terms
    nonzero weights and every kick inside the series range."""
    d, rows = draw(st.integers(min_terms, 8)), draw(st.integers(1, 4))
    kicks = np.array(draw(st.lists(st.lists(series_kicks, min_size=rows, max_size=rows),
                                   min_size=d, max_size=d)))
    part = (st.builds(complex, nonzero_components, components) if complex_weights
            else nonzero_components)
    return kicks, np.array(draw(st.lists(part, min_size=d, max_size=d)))


@st.composite
def with_zero_terms(draw, pointer, kick_values):
    """The pointer with 1 to 6 terms of weight 0 inserted at drawn places,
    each with drawn kicks on every row."""
    kicks, weights = pointer
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(weights)))
        row = draw(st.lists(kick_values, min_size=kicks.shape[1], max_size=kicks.shape[1]))
        kicks = np.insert(kicks, at, row, axis=0)
        weights = np.insert(weights, at, 0)
    return kicks, weights


class TestZeroAndRealWeights:
    """The kernel leaves out terms of weight 0, whatever their kicks, and takes
    real weights through a real pass; both only drop exact zeros from its
    sums, so neither may change a bit of any result."""

    @given(series_pointers(complex_weights=False))
    def test_real_weights_as_complex_give_the_same_bits(self, pointer):
        kicks, weights = pointer
        assert bits(angle_and_norm(kicks, weights, 1.0)) == bits(
            angle_and_norm(kicks, weights + 0j, 1.0))
        assert bits(angle_and_norm(kicks[:, 0], weights, 1.0)) == bits(
            angle_and_norm(kicks[:, 0], weights + 0j, 1.0))

    @given(st.data(), st.booleans())
    def test_zero_weight_terms_change_no_bit_of_a_pure_pointer(self, data, complex_weights):
        # one kept term, padded, keeps the one-kick form, and a padding kick
        # past the series range moves no row out of the series
        kicks, weights = data.draw(series_pointers(complex_weights, min_terms=1))
        padded = data.draw(with_zero_terms((kicks, weights), st.floats(-5.0, 5.0)))
        assert bits(angle_and_norm(*padded, 1.0)) == bits(angle_and_norm(kicks, weights, 1.0))
        assume(np.abs(np.add.reduce(weights)) > DEFAULT_OVERLAP_FLOOR)
        assert bits([weakness(*padded, 1.0)]) == bits([weakness(kicks, weights, 1.0)])

    @given(st.data())
    def test_zero_weight_terms_change_no_bit_of_a_mixture(self, data):
        kicks, weights = data.draw(series_pointers(complex_weights=False))
        probs = np.abs(weights)
        padded = data.draw(with_zero_terms((kicks, probs), st.floats(-5.0, 5.0)))
        assert bits([mixture_angle(*padded, 0.7)]) == bits([mixture_angle(kicks, probs, 0.7)])


class TestKernelProperties:
    @given(pointers(), st.floats(0.1, 10.0))
    def test_angles_lie_in_zero_to_right_angle(self, pointer, delta):
        kicks, weights = pointer
        assert 0.0 <= angle_and_norm(kicks, weights, delta)[0] <= math.pi / 2
        assert 0.0 <= mixture_angle(kicks, np.abs(weights) ** 2, delta) <= math.pi / 2

    @given(pointers(), complex_numbers.filter(lambda z: abs(z) >= 1e-3))
    def test_invariant_under_rescaling_the_weights(self, pointer, scale):
        kicks, weights = pointer
        # a nearly cancelled pointer is ill-conditioned
        assume(angle_and_norm(kicks, weights, 1.0)[1] >= 1e-6 * np.sum(np.abs(weights) ** 2))
        scaled = angle_and_norm(kicks, scale * weights, 1.0)[0]
        angle = angle_and_norm(kicks, weights, 1.0)[0]
        assert scaled == pytest.approx(angle, rel=1e-9, abs=1e-9)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 3.0))
    def test_norm_sq_over_orthonormal_post_selections_sums_to_one(self, n, seed, kick):
        rng = np.random.default_rng(seed)
        pre = rng.normal(size=n) + 1j * rng.normal(size=n)
        pre /= np.linalg.norm(pre)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        kicks = kick * rng.uniform(-1.0, 1.0, size=n)
        total = sum(angle_and_norm(kicks, np.conj(q[:, k]) * pre, 1.0)[1] for k in range(n))
        assert total == pytest.approx(1.0, abs=1e-12)
