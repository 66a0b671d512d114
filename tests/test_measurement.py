"""Measurement protocol: coupling, post-selection, weak values, weakness."""

import math

import numpy as np
import pytest

from wvsim.errors import InvalidData, OrthogonalSelection
from wvsim.measurement import (
    CouplingConfig,
    effective_shift_check,
    no_postselect_mixture,
    post_select,
    weak_value,
    weakness_metric,
)
from wvsim.pointer import bures_mixed, bures_pure, gaussian, mean_position, superpose
from wvsim.qstate import Observable, expectation, inner, make_state

A3 = Observable.diagonal((-1, 0, 1))
PRE3 = make_state([(-1, 1), (0, 1), (1, 0)])
POST3 = make_state([(-1, 1), (0, -2), (1, 0)])


def cfg(eps=0.01, g=1.0, delta=1.0):
    return CouplingConfig(g=g, epsilon=eps, delta=delta)


class TestWeakValue:
    def test_unit_weak_value_without_populating_the_eigenstate(self):
        assert weak_value(PRE3, POST3, A3) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert PRE3.amplitude(1) == 0
        assert POST3.amplitude(1) == 0

    def test_eigenstate_gives_eigenvalue(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        assert weak_value(e1, e1, A3) == pytest.approx(1.0, abs=1e-14)

    def test_complex_weak_value_of_projector(self):
        pre = make_state([(0, 1), (1, 1)])
        post = make_state([(0, 1), (1, 1j)])
        proj = Observable.diagonal((0, 1), [0.0, 1.0])
        assert weak_value(pre, post, proj) == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_orthogonal_selection_rejected(self):
        a = make_state([(0, 1), (1, 0)])
        b = make_state([(0, 0), (1, 1)])
        with pytest.raises(OrthogonalSelection,
                           match=r"\|<post\|pre>\| = 0.000e\+00 at or below floor 1.000e-12"):
            weak_value(a, b, Observable.diagonal((0, 1)))

    def test_overlap_floor_is_configurable(self):
        pre = make_state([(0, 1), (1, 1e-8)])
        post = make_state([(0, 0), (1, 1)])
        a = Observable.diagonal((0, 1))
        assert weak_value(pre, post, a) == pytest.approx(1.0)
        below = make_state([(0, 1), (1, 1e-13)])
        with pytest.raises(OrthogonalSelection, match="at or below floor 1.000e-12"):
            weak_value(below, post, a)

    def test_degenerates_to_expectation_for_post_equals_pre(self):
        rng = np.random.default_rng(11)
        labels = tuple(range(-2, 3))
        a = Observable.diagonal(labels)
        for _ in range(50):
            amps = rng.normal(size=5) + 1j * rng.normal(size=5)
            state = make_state(list(zip(labels, amps)))
            wv = weak_value(state, state, a)
            assert abs(wv - expectation(a, state)) < 1e-12
            assert -2 - 1e-12 <= wv.real <= 2 + 1e-12

    def test_invariant_under_phase_and_scale_of_selections(self):
        base = weak_value(PRE3, POST3, A3)
        for z in (2.0, -1.0, 1j, 0.3 - 0.7j):
            pre = make_state([(lab, z * amp) for lab, amp in zip(PRE3.labels, PRE3.amplitudes)])
            post = make_state([(lab, z * amp) for lab, amp in zip(POST3.labels, POST3.amplitudes)])
            assert abs(weak_value(pre, POST3, A3) - base) < 1e-12
            assert abs(weak_value(PRE3, post, A3) - base) < 1e-12


class TestCouple:
    def test_eigenstate_single_populated_branch(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        result = post_select(e1, e1, A3, cfg())
        assert result.pointer.terms == ((0.01, 1 + 0j),)
        assert result.probability == 1.0

    def test_superposition_branch_shifts(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 1), (2, 1)])
        assert post_select(pre, pre, a, cfg()).pointer.shifts == (0.0, 0.01, 0.02)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        labels = tuple(range(4))
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            pre = make_state(list(zip(labels, amps)))
            mix = no_postselect_mixture(pre, Observable.diagonal(labels), cfg())
            assert sum(p for p, _ in mix.components) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_coupling_limit_is_product_state(self):
        result = post_select(PRE3, PRE3, A3, cfg(eps=1e-15))
        assert max(abs(mu) for mu in result.pointer.shifts) <= 1e-15
        assert result.probability == pytest.approx(1.0, abs=1e-12)
        assert bures_pure(result.pointer, gaussian(0.0, 1.0)) < 1e-12

    def test_non_diagonal_observable_goes_through_eigenbasis(self):
        sigma_x = Observable((0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
        pre = make_state([(0, 1), (1, 0)])
        mix = no_postselect_mixture(pre, sigma_x, cfg())
        assert [state.shifts[0] for _, state in mix.components] == pytest.approx([-0.01, 0.01])
        np.testing.assert_allclose([p for p, _ in mix.components], [0.5, 0.5], atol=1e-12)
        result = post_select(pre, pre, sigma_x, cfg())
        # (G_+ + G_-)/norm: symmetric, and P(0) = (1 + exp(-(2 g eps)^2/8))/2
        assert mean_position(result.pointer) == pytest.approx(0.0, abs=1e-12)
        assert result.probability == pytest.approx((1 + math.exp(-0.02 ** 2 / 8)) / 2, abs=1e-14)


class TestPostSelect:
    def test_conditioned_pointer_and_probability(self):
        g, eps = 1.0, 0.01
        result = post_select(PRE3, POST3, A3, cfg(eps))
        expected = superpose([(2.0, gaussian(0.0, 1.0)), (-1.0, gaussian(-g * eps, 1.0))])
        assert bures_pure(result.pointer, expected) == pytest.approx(0.0, abs=1e-7)
        # exact Gram-matrix probability: (5 - 4 exp(-(g eps)^2/8))/10
        s = math.exp(-(g * eps) ** 2 / 8)
        assert result.probability == pytest.approx((5 - 4 * s) / 10, abs=1e-14)

    def test_probability_approaches_selection_overlap_squared(self):
        for eps in (1e-3, 1e-4, 1e-5):
            p = post_select(PRE3, POST3, A3, cfg(eps)).probability
            assert abs(p - 0.1) < eps ** 2

    def test_impossible_when_orthogonal_with_identical_shifts(self):
        ident = Observable.diagonal((0, 1), [1.0, 1.0])
        pre = make_state([(0, 1), (1, 1)])
        post = make_state([(0, 1), (1, -1)])
        with pytest.raises(OrthogonalSelection,
                           match="post-selection amplitude vanishes for every pointer component"):
            post_select(pre, post, ident, cfg())

    def test_orthogonal_selection_with_distinct_shifts_still_possible(self):
        pre = make_state([(-1, 1), (0, 0), (1, 1)])
        post = make_state([(-1, 1), (0, 0), (1, -1)])
        result = post_select(pre, post, A3, cfg(0.1))
        # back-action alone feeds the orthogonal branch: p = (1 - exp(-(2 g eps)^2/8))/2
        assert result.probability == pytest.approx((1 - math.exp(-0.2 ** 2 / 8)) / 2, abs=1e-14)
        assert 0 < result.probability < 1e-2

    def test_completeness_over_orthonormal_bases(self):
        rng = np.random.default_rng(13)
        labels = tuple(range(4))
        a = Observable.diagonal(labels)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            pre = make_state(list(zip(labels, amps)))
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            total = 0.0
            for k in range(4):
                post = make_state(list(zip(labels, q[:, k])))
                total += post_select(pre, post, a, cfg(0.3)).probability
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0, 1, 2\) vs \(-1, 0, 1\)"):
            post_select(PRE3, make_state([(0, 1), (1, 1), (2, 1)]), A3, cfg())


class TestNoPostselectMixture:
    def test_equal_weights_at_zero_and_double_shift(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 0), (2, 1)])
        mix = no_postselect_mixture(pre, a, cfg())
        weights = [p for p, _ in mix.components]
        shifts = [state.shifts[0] for _, state in mix.components]
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(shifts, [0.0, 0.02], atol=1e-15)

    def test_eigenstate_gives_pure_single_component(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        mix = no_postselect_mixture(e1, A3, cfg())
        assert len(mix.components) == 1
        p, state = mix.components[0]
        assert p == pytest.approx(1.0)
        assert bures_pure(state, gaussian(0.01, 1.0)) == 0.0

    def test_three_equal_born_weights(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 1), (2, 1)])
        mix = no_postselect_mixture(pre, a, cfg())
        np.testing.assert_allclose([p for p, _ in mix.components], [1 / 3] * 3, atol=1e-14)

    def test_degenerate_shifts_merge(self):
        ident = Observable.diagonal((0, 1), [1.0, 1.0])
        pre = make_state([(0, 1), (1, 1j)])
        mix = no_postselect_mixture(pre, ident, cfg())
        assert len(mix.components) == 1
        assert mix.components[0][1].shifts == (0.01,)


class TestWeaknessMetric:
    def test_vanishes_with_the_coupling(self):
        assert weakness_metric(PRE3, POST3, A3, cfg(1e-12)) < 1e-12

    def test_weak_regime_value(self):
        # hand value: 1 - exp(-(g eps)^2 / (8 delta^2))
        val = weakness_metric(PRE3, POST3, A3, cfg(0.01))
        assert val == pytest.approx(1 - math.exp(-1.25e-5), rel=1e-9)
        assert val < 1e-3

    def test_strong_regime_is_order_one(self):
        assert weakness_metric(PRE3, POST3, A3, cfg(10.0)) > 0.5

    def test_orthogonal_selection_rejected(self):
        a = make_state([(0, 1), (1, 0)])
        b = make_state([(0, 0), (1, 1)])
        with pytest.raises(OrthogonalSelection, match="pre- and post-selection are orthogonal"):
            weakness_metric(a, b, Observable.diagonal((0, 1)), cfg())

    def test_probability_drift_complements_the_metric(self):
        # spin nearly anti-aligned: the coherent scalar product barely moves
        # while the post-selected branch is already badly disturbed
        c, s = 1 / math.sqrt(1 + 100.0 ** 2), 100 / math.sqrt(1 + 100.0 ** 2)
        inv = 1 / math.sqrt(2)
        pre = make_state([(-1, (c - s) * inv), (1, (c + s) * inv)])
        post = make_state([(-1, inv), (1, inv)])
        sz = Observable.diagonal((-1, 1))
        p0 = abs(inner(post, pre)) ** 2

        def drift(c):
            return abs(post_select(pre, post, sz, c).probability - p0) / p0

        strong = cfg(0.1)
        assert weakness_metric(pre, post, sz, strong) < 1e-2
        assert drift(strong) > 1.0
        assert drift(cfg(1e-4)) < 1e-3


class TestEffectiveShiftCheck:
    def test_weak_value_shift_matches_quadratic_law(self):
        check = effective_shift_check(PRE3, POST3, A3, cfg(0.01))
        assert check.ideal.shifts == (0.01,)
        assert check.distance == pytest.approx(1e-4 / (2 * math.sqrt(2)), rel=0.05)

    def test_eigenstate_shift_is_exact(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        check = effective_shift_check(e1, e1, A3, cfg(0.01))
        assert check.distance == pytest.approx(0.0, abs=1e-10)

    def test_amplified_ideal_center(self):
        c, s = 1 / math.sqrt(1 + 100.0 ** 2), 100 / math.sqrt(1 + 100.0 ** 2)
        inv = 1 / math.sqrt(2)
        pre = make_state([(-1, (c - s) * inv), (1, (c + s) * inv)])
        post = make_state([(-1, inv), (1, inv)])
        check = effective_shift_check(pre, post, Observable.diagonal((-1, 1)), cfg(1e-4))
        assert check.ideal.shifts[0] == pytest.approx(100 * 1e-4, rel=1e-9)

    def test_replacement_quality_scales_one_order_faster(self):
        ratios = []
        for eps in (1e-2, 1e-3):
            check = effective_shift_check(PRE3, POST3, A3, cfg(eps))
            moved = bures_pure(gaussian(0.0, 1.0), check.actual)
            ratios.append(check.distance / moved)
        assert ratios[1] < 0.2 * ratios[0]


class TestScalingLaw:
    def test_weak_value_coupling_mimics_the_eigenvalue(self):
        for eps in (1e-2, 1e-3):
            g = 1.0
            phi0 = gaussian(0.0, 1.0)
            phi_e = gaussian(g * eps, 1.0)
            phi_w = post_select(PRE3, POST3, A3, cfg(eps)).pointer
            mix = no_postselect_mixture(
                make_state([(0, 1), (1, 0), (2, 1)]), Observable.diagonal((0, 1, 2)), cfg(eps))
            d_ref = bures_pure(phi0, phi_e)
            assert bures_pure(phi_e, phi_w) / d_ref < 0.05
            assert bures_mixed(phi_e, mix) / d_ref == pytest.approx(1.0, rel=1e-3)


class TestCouplingConfig:
    def test_rejects_nonpositive_parameters(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(InvalidData, match="must be positive and finite"):
                CouplingConfig(*bad)

    @pytest.mark.parametrize("bad", [
        (math.nan, 1e-3, 1.0), (1.0, math.nan, 1.0), (1.0, 1e-3, math.nan),
        (math.inf, 1e-3, 1.0), (1.0, math.inf, 1.0), (1.0, 1e-3, math.inf),
    ])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(InvalidData, match="g, epsilon and delta must be positive and finite"):
            CouplingConfig(*bad)
