"""Measurement protocol: branch weights, post-selection, weak values, weakness."""

import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wvsim import measurement
from wvsim import pointer as kernel
from wvsim.errors import InvalidData, OrthogonalSelection
from wvsim.measurement import (
    CouplingConfig,
    branch_weights,
    effective_shift_check,
    shift_sweep,
    weak_value,
    weakness,
)
from wvsim.pointer import angle_and_norm, mixture_angle
from wvsim.qstate import Observable, SystemState, make_state
from wvsim.scenarios import ScenarioSpec, run_comparison

A3 = Observable.diagonal((-1, 0, 1))
PRE3 = make_state([(-1, 1), (0, 1), (1, 0)])
POST3 = make_state([(-1, 1), (0, -2), (1, 0)])


def cfg(eps=0.01, g=1.0, delta=1.0):
    return CouplingConfig(g=g, epsilon=eps, delta=delta)


def pointer(pre, post, a, c):
    """(kicks, weights) of the pointer that coupling `a` with `c` leaves."""
    vals, weights = branch_weights(pre, post, a)
    return c.g * c.epsilon * vals, weights


def probability(pre, post, a, c):
    return angle_and_norm(*pointer(pre, post, a, c), c.delta)[1]


def weakness_of(pre, post, a, c):
    return float(weakness(*pointer(pre, post, a, c), c.delta))


class TestWeakValue:
    def test_unit_weak_value_without_populating_the_eigenstate(self):
        assert weak_value(PRE3, POST3, A3) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert dict(zip(PRE3.labels, PRE3.amplitudes))[1] == 0
        assert dict(zip(POST3.labels, POST3.amplitudes))[1] == 0

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

    def test_quotient_beyond_float_range_rejected(self):
        label = 10**307
        pre = make_state([(0, 1), (label, 1)])
        post = make_state([(0, 1), (label, -0.999999)])
        with pytest.raises(InvalidData, match=r"^weak value <post\|A\|pre>/<post\|pre> is out "
                                              r"of floating-point range$"):
            weak_value(pre, post, Observable.diagonal((0, label)))

    def test_numerator_beyond_float_range_rejected_inside_a_sweep(self):
        # A @ pre overflows under the np.errstate of a shift sweep, which makes it
        # raise there: still the weak value's error, not the kicks' out-of-range one
        labels = (0, 1, 2, 3)
        a = Observable(labels, np.full((4, 4), 1e308))
        pre = make_state([(k, 1.0) for k in labels])
        post = make_state([(0, 1.0), (1, 0.3), (2, 0.0), (3, 0.0)])
        message = r"^weak value <post\|A\|pre>/<post\|pre> is out of floating-point range$"
        with pytest.raises(InvalidData, match=message):
            _fresh_check(pre, post, a, cfg())
        with pytest.raises(InvalidData, match=message):
            run_comparison([ScenarioSpec("weak", pre, a, cfg(), post, (0.01,)),
                            ScenarioSpec("expect", pre, a, cfg(), None, (0.01,))])

    def test_overlap_floor_is_fixed_at_1e_12(self):
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
            assert abs(wv - np.vdot(state.vector, a.matrix @ state.vector).real) < 1e-12
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
        kicks, weights = pointer(e1, e1, A3, cfg())
        assert [(u, w) for u, w in zip(kicks, weights) if w != 0] == [(0.01, 1 + 0j)]
        assert probability(e1, e1, A3, cfg()) == 1.0

    def test_superposition_branch_shifts(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 1), (2, 1)])
        kicks, weights = pointer(pre, pre, a, cfg())
        assert tuple(kicks) == (0.0, 0.01, 0.02)
        assert all(weights != 0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        labels = tuple(range(4))
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            pre = make_state(list(zip(labels, amps)))
            _, born = branch_weights(pre, None, Observable.diagonal(labels))
            assert sum(born) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_coupling_limit_is_product_state(self):
        kicks, weights = pointer(PRE3, PRE3, A3, cfg(eps=1e-15))
        assert max(abs(mu) for mu in kicks) <= 1e-15
        angle, norm = angle_and_norm(kicks, weights, 1.0)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert angle < 1e-12

    def test_non_diagonal_observable_goes_through_eigenbasis(self):
        sigma_x = Observable((0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
        pre = make_state([(0, 1), (1, 0)])
        kicks, born = pointer(pre, None, sigma_x, cfg())
        assert list(kicks) == pytest.approx([-0.01, 0.01])
        np.testing.assert_allclose(born, [0.5, 0.5], atol=1e-12)
        kicks, weights = pointer(pre, pre, sigma_x, cfg())
        # (G_+ + G_-)/norm: P(0) = (1 + exp(-(2 g eps)^2/8))/2
        assert angle_and_norm(kicks, weights, 1.0)[1] == pytest.approx(
            (1 + math.exp(-0.02 ** 2 / 8)) / 2, abs=1e-14)


class TestPostSelect:
    def test_conditioned_pointer_and_probability(self):
        g, eps = 1.0, 0.01
        kicks, weights = pointer(PRE3, POST3, A3, cfg(eps))
        # the conditioned pointer is proportional to 2 G_0 - G_{-g eps}
        np.testing.assert_allclose(kicks, [-g * eps, 0.0, g * eps], atol=1e-17)
        np.testing.assert_allclose(weights / weights[1], [-0.5, 1.0, 0.0], atol=1e-14)
        # exact Gram-matrix probability: (5 - 4 exp(-(g eps)^2/8))/10
        s = math.exp(-(g * eps) ** 2 / 8)
        assert angle_and_norm(kicks, weights, 1.0)[1] == pytest.approx(
            (5 - 4 * s) / 10, abs=1e-14)

    def test_probability_approaches_selection_overlap_squared(self):
        for eps in (1e-3, 1e-4, 1e-5):
            p = probability(PRE3, POST3, A3, cfg(eps))
            assert abs(p - 0.1) < eps ** 2

    def test_impossible_when_orthogonal_with_identical_shifts(self):
        # equal kicks carry the selection amplitude <post|pre> = 0 unchanged,
        # so the post-selection probability is exactly zero at any coupling
        ident = Observable.diagonal((0, 1), [1.0, 1.0])
        pre = make_state([(0, 1), (1, 1)])
        post = make_state([(0, 1), (1, -1)])
        for eps in (1e-3, 0.01, 10.0):
            assert probability(pre, post, ident, cfg(eps)) == 0.0
        with pytest.raises(OrthogonalSelection, match="pre- and post-selection are orthogonal"):
            weakness_of(pre, post, ident, cfg())

    def test_orthogonal_selection_with_distinct_shifts_still_possible(self):
        pre = make_state([(-1, 1), (0, 0), (1, 1)])
        post = make_state([(-1, 1), (0, 0), (1, -1)])
        p = probability(pre, post, A3, cfg(0.1))
        # back-action alone feeds the orthogonal branch: p = (1 - exp(-(2 g eps)^2/8))/2
        assert p == pytest.approx((1 - math.exp(-0.2 ** 2 / 8)) / 2, abs=1e-14)
        assert 0 < p < 1e-2

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
                total += probability(pre, post, a, cfg(0.3))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_basis_mismatch(self):
        with pytest.raises(InvalidData, match=r"bases differ: \(0, 1, 2\) vs \(-1, 0, 1\)"):
            branch_weights(PRE3, make_state([(0, 1), (1, 1), (2, 1)]), A3)


class TestNoPostselectMixture:
    def test_equal_weights_at_zero_and_double_shift(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 0), (2, 1)])
        kicks, born = pointer(pre, None, a, cfg())
        populated = born != 0
        np.testing.assert_allclose(born[populated], [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(kicks[populated], [0.0, 0.02], atol=1e-15)

    def test_eigenstate_gives_pure_single_component(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        kicks, born = pointer(e1, None, A3, cfg())
        assert np.count_nonzero(born) == 1
        assert born[kicks == 0.01] == pytest.approx([1.0])
        assert mixture_angle(kicks - 0.01, born, 1.0) == 0.0

    def test_three_equal_born_weights(self):
        a = Observable.diagonal((0, 1, 2))
        pre = make_state([(0, 1), (1, 1), (2, 1)])
        _, born = branch_weights(pre, None, a)
        np.testing.assert_allclose(born, [1 / 3] * 3, atol=1e-14)

    def test_degenerate_shifts_merge(self):
        # the mixture angle is linear in the weights: equal kicks need no merging
        ident = Observable.diagonal((0, 1), [1.0, 1.0])
        pre = make_state([(0, 1), (1, 1j)])
        kicks, born = pointer(pre, None, ident, cfg())
        assert list(kicks) == [0.01, 0.01]
        for center in (0.0, 0.01, 0.5):
            assert mixture_angle(kicks - center, born, 1.0) == pytest.approx(
                mixture_angle([0.01 - center], [1.0], 1.0), abs=1e-15)


class TestWeaknessMetric:
    def test_vanishes_with_the_coupling(self):
        assert weakness_of(PRE3, POST3, A3, cfg(1e-12)) < 1e-12

    def test_weak_regime_value(self):
        # hand value: 1 - exp(-(g eps)^2 / (8 delta^2))
        val = weakness_of(PRE3, POST3, A3, cfg(0.01))
        assert val == pytest.approx(1 - math.exp(-1.25e-5), rel=1e-9)
        assert val < 1e-3

    def test_strong_regime_is_order_one(self):
        assert weakness_of(PRE3, POST3, A3, cfg(10.0)) > 0.5

    def test_orthogonal_selection_rejected(self):
        a = make_state([(0, 1), (1, 0)])
        b = make_state([(0, 0), (1, 1)])
        with pytest.raises(OrthogonalSelection, match="pre- and post-selection are orthogonal"):
            weakness_of(a, b, Observable.diagonal((0, 1)), cfg())

    def test_probability_drift_complements_the_metric(self):
        # spin nearly anti-aligned: the coherent scalar product barely moves
        # while the post-selected branch is already badly disturbed
        c, s = 1 / math.sqrt(1 + 100.0 ** 2), 100 / math.sqrt(1 + 100.0 ** 2)
        inv = 1 / math.sqrt(2)
        pre = make_state([(-1, (c - s) * inv), (1, (c + s) * inv)])
        post = make_state([(-1, inv), (1, inv)])
        sz = Observable.diagonal((-1, 1))
        p0 = abs(np.vdot(post.vector, pre.vector)) ** 2

        def drift(c):
            return abs(probability(pre, post, sz, c) - p0) / p0

        strong = cfg(0.1)
        assert weakness_of(pre, post, sz, strong) < 1e-2
        assert drift(strong) > 1.0
        assert drift(cfg(1e-4)) < 1e-3


def _overflowing_centre():
    """A check whose kicks g*eps*(a_j - Re(A_w)) = -+g*eps are in range while
    the centre g*eps*Re(A_w), Re(A_w) = 100, is not (nor is d_eigen's, so
    run_comparison would reject its sweep)."""
    state = make_state([(0, 1), (1, 1)])
    a = Observable.diagonal((0, 1), [99.0, 101.0])
    return state, state, a, CouplingConfig(1e307, 1.0, 1e300)


class TestEffectiveShiftCheck:
    def test_weak_value_shift_matches_quadratic_law(self):
        check = effective_shift_check(PRE3, POST3, A3, cfg(0.01))
        assert check.distance == pytest.approx(1e-4 / (2 * math.sqrt(2)), rel=0.05)

    def test_eigenstate_shift_is_exact(self):
        e1 = make_state([(-1, 0), (0, 0), (1, 1)])
        check = effective_shift_check(e1, e1, A3, cfg(0.01))
        assert check.distance == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("g, eps, delta", [(1e300, 1e10, 1.0), (1.0, 1e200, 1e-200)])
    def test_overflowing_coupling_raises(self, g, eps, delta):
        # with numpy warnings as errors, a NaN distance would fail with a RuntimeWarning
        with pytest.raises(InvalidData, match=r"g\*epsilon/delta is out of floating-point range"):
            effective_shift_check(PRE3, POST3, A3, CouplingConfig(g, eps, delta))
        with pytest.raises(InvalidData, match=r"g\*epsilon/delta is out of floating-point range"):
            _comparison(PRE3, POST3, A3, CouplingConfig(g, eps, delta), (eps,))

    def test_overflowing_centre_keeps_the_finite_distance(self):
        state, _, a, c = _overflowing_centre()
        angles = shift_sweep(state, state, a, c.g, c.delta, np.array([1.0]), [1.0])[3]
        assert angles.tolist() == [math.pi / 2]
        measurement._sweep = None
        check = effective_shift_check(state, state, a, c)
        assert _bits(check) == _bits((angles[0],))
        _assert_one_point_sweep(state, state, a, c, check)

    def test_replacement_quality_scales_one_order_faster(self):
        ratios = []
        for eps in (1e-2, 1e-3):
            check = effective_shift_check(PRE3, POST3, A3, cfg(eps))
            moved = angle_and_norm(*pointer(PRE3, POST3, A3, cfg(eps)), 1.0)[0]
            ratios.append(check.distance / moved)
        assert ratios[1] < 0.2 * ratios[0]


def _dense_selection(seed, d):
    """Seeded non-diagonal Hermitian observable of dimension d with complex
    pre- and post-selections."""
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = Observable(labels, (x + x.conj().T) / 2)
    pre, post = (make_state(zip(labels, rng.normal(size=d) + 1j * rng.normal(size=d)))
                 for _ in range(2))
    return pre, post, a


def _selection_outputs(pre, post, a):
    vals, w = branch_weights(pre, post, a)
    checks = [effective_shift_check(pre, post, a, cfg(eps)) for eps in (1e-4, 1e-2, 0.3)]
    return (weak_value(pre, post, a), vals.tobytes(), w.tobytes(), checks,
            weakness_of(pre, post, a, cfg(1e-3)))


def _comparison(pre, post, a, c, grid):
    """`run_comparison` of the selection against an expectation partner with
    the same target value, as it needs."""
    d = len(a.labels)
    aw = weak_value(pre, post, a).real
    mean = np.vdot(pre.vector, a.matrix @ pre.vector).real
    partner = Observable(a.labels, a.matrix + (aw - mean) * np.eye(d))
    return run_comparison([ScenarioSpec("weak", pre, a, c, post, grid),
                           ScenarioSpec("expect", pre, partner, c, None, grid)])


class TestSelectionMemo:
    """Each call computes its selection afresh, with the bits of any other
    call on equal inputs; nothing is shared between calls."""

    def test_shift_distance_equals_comparison_column_bitwise(self):
        pre, post, a = _dense_selection(21, 6)
        grid = tuple(np.geomspace(1e-4, 1e-1, 25).tolist())
        c = cfg(grid[0], g=1.3, delta=0.7)
        rows = _comparison(pre, post, a, c, grid)
        distances = [effective_shift_check(pre, post, a, replace(c, epsilon=eps)).distance
                     for eps in grid]
        assert distances == [r.d_weak_vs_eigen for r in rows]

    def test_repeated_calls_give_the_same_bits(self):
        pre, post, a = _dense_selection(22, 5)
        first = _selection_outputs(pre, post, a)
        again = _selection_outputs(SystemState(pre.labels, pre.amplitudes), post, a)
        assert _selection_outputs(pre, post, a) == first == again

    def test_zero_sign_keeps_its_own_entry(self):
        # equal states whose zero amplitudes differ in sign give weights whose
        # zeros differ in sign too
        a = Observable.diagonal((0, 1), [0.0, 1.0])
        post = SystemState((0, 1), (1 + 0j, 0j))
        plus, minus = (SystemState((0, 1), (1 + 0j, complex(0.0, z))) for z in (0.0, -0.0))
        assert plus == minus
        signs = [np.signbit(branch_weights(s, post, a)[1].imag).tolist() for s in (plus, minus)]
        assert signs == [[False, False], [False, True]]

    def test_shared_arrays_are_read_only(self):
        pre, post, a = _dense_selection(23, 4)
        vals, w = branch_weights(pre, post, a)
        assert pre.vector is pre.vector
        for shared in (vals, pre.vector):
            with pytest.raises(ValueError):
                shared[0] = 5.0
        # the weights are the caller's own: writing to them reaches no other call
        fresh = w.copy()
        w[0] = 5.0
        assert branch_weights(pre, post, a)[1].tobytes() == fresh.tobytes()

    def test_orthogonal_selection_raises_on_every_call(self):
        pre = make_state([(0, 1), (1, 1)])
        post = make_state([(0, 1), (1, -1)])
        ident = Observable.diagonal((0, 1), [1.0, 1.0])
        for _ in range(2):
            with pytest.raises(OrthogonalSelection, match="at or below floor"):
                weak_value(pre, post, ident)
        np.testing.assert_allclose(branch_weights(pre, post, ident)[1], [0.5, -0.5], rtol=1e-15)


@contextlib.contextmanager
def counted_kernel_calls():
    """The number of `pointer.angle_and_norm` calls made inside the block, as
    a list that grows by one per call."""
    calls, angle_and_norm = [], kernel.angle_and_norm
    kernel.angle_and_norm = lambda *args: calls.append(1) or angle_and_norm(*args)
    try:
        yield calls
    finally:
        kernel.angle_and_norm = angle_and_norm


def _fresh_check(pre, post, a, c):
    measurement._sweep = None
    return effective_shift_check(pre, post, a, c)


def _bits(check):
    return tuple(map(float.hex, check))


def _assert_one_point_sweep(pre, post, a, c, check):
    """The slot holds the one-point sweep that a check of pre, post and A at c
    made, and its reads give that check."""
    slot = measurement._sweep
    assert slot[0] is pre and slot[1] is post and slot[2] is a
    assert slot[3:5] == (c.g, c.delta) and slot[5] == [c.epsilon]
    assert _bits((slot[6][0],)) == _bits(check)


class TestShiftSweep:
    """`effective_shift_check` reads the distance from the last sweep of
    `shift_sweep`, which `run_comparison` makes for its d_weak_vs_eigen
    column; a check off that sweep first replaces it with a one-point sweep
    of its own eps. Either way the bits are those of a check on an empty slot."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 8),
           g=st.floats(1e-2, 1e2), delta=st.floats(1e-2, 1e2),
           grid=st.lists(st.floats(1e-5, 1e-1), min_size=1, max_size=12,
                         unique=True).map(sorted),
           off=st.floats(1e-5, 1e-1), scale=st.floats(1.5, 4.0))
    def test_checks_on_the_grid_read_the_comparison_column(self, seed, d, g, delta, grid,
                                                           off, scale):
        assume(off not in grid)
        pre, post, a = _dense_selection(seed, d)
        c = cfg(grid[0], g=g, delta=delta)
        column = [r.d_weak_vs_eigen for r in _comparison(pre, post, a, c, tuple(grid))]
        with counted_kernel_calls() as calls:
            hits = [effective_shift_check(pre, post, a, replace(c, epsilon=e)) for e in grid]
        assert [h.distance for h in hits] == column
        assert not calls
        other = _dense_selection(seed + 1, d)
        misses = [(pre, post, a, replace(c, epsilon=off)),
                  (pre, post, a, replace(c, g=g * scale)),
                  (pre, post, a, replace(c, delta=delta * scale)),
                  (*other, c)]
        missed = []
        for m in misses:
            with counted_kernel_calls() as calls:
                missed.append(effective_shift_check(*m))
            assert len(calls) == 1
            _assert_one_point_sweep(*m, missed[-1])
        # the last sweep wins, so a later check on the grid computes its row
        # again, through a one-point sweep, and gets the same bits
        with counted_kernel_calls() as calls:
            assert effective_shift_check(pre, post, a, replace(c, epsilon=grid[-1])) == hits[-1]
        assert len(calls) == 1
        assert [_fresh_check(*m) for m in misses] == missed
        assert [_fresh_check(pre, post, a, replace(c, epsilon=e)) for e in grid] == hits

    def test_equal_rebuilt_selection_misses_the_sweep_with_the_same_bits(self, monkeypatch):
        pre, post, a = _dense_selection(26, 4)
        grid = tuple(np.geomspace(1e-3, 1e-1, 7).tolist())
        c = cfg(grid[0], g=1.1, delta=0.9)
        column = [r.d_weak_vs_eigen for r in _comparison(pre, post, a, c, grid)]
        selections = []
        for name in ("weak_value", "branch_weights"):
            fn = getattr(measurement, name)
            monkeypatch.setattr(measurement, name,
                                lambda *args, fn=fn: selections.append(1) or fn(*args))
        # the swept objects hit and compute nothing, not even their selection
        with counted_kernel_calls() as calls:
            hits = [effective_shift_check(pre, post, a, replace(c, epsilon=e)).distance
                    for e in grid]
        assert hits == column
        assert not calls and not selections
        # equal states and an equal observable built anew match by value, not
        # by identity: each check misses, computes its row, and gets the same bits
        rebuilt = (SystemState(pre.labels, pre.amplitudes),
                   SystemState(post.labels, post.amplitudes), Observable(a.labels, a.matrix))
        assert rebuilt[:2] == (pre, post)
        for k in range(3):
            chosen = [pre, post, a]
            chosen[k] = rebuilt[k]
            with counted_kernel_calls() as calls:
                missed = [effective_shift_check(*chosen, replace(c, epsilon=e)) for e in grid]
            assert [m.distance for m in missed] == column
            assert len(calls) == len(grid)
            # each miss replaced the slot with its own one-point sweep, which
            # the same check then hits
            _assert_one_point_sweep(*chosen, replace(c, epsilon=grid[-1]), missed[-1])
            with counted_kernel_calls() as calls:
                assert effective_shift_check(*chosen, replace(c, epsilon=grid[-1])) == missed[-1]
            assert not calls

    def test_shift_sweep_is_the_comparison_column(self):
        pre, post, a = _dense_selection(24, 5)
        grid = tuple(np.geomspace(1e-3, 1e-1, 9).tolist())
        c = cfg(grid[0], g=0.8, delta=1.7)
        column = [r.d_weak_vs_eigen for r in _comparison(pre, post, a, c, grid)]
        aw, vals, w, angles, _ = shift_sweep(pre, post, a, c.g, c.delta, np.array(grid),
                                             list(grid))
        # the sweep builds the selection that weak_value and branch_weights give
        assert aw == weak_value(pre, post, a).real
        assert [x.tobytes() for x in (vals, w)] == [
            x.tobytes() for x in branch_weights(pre, post, a)]
        assert angles.tolist() == column
        with pytest.raises(ValueError):
            angles[0] = 1.0

    def test_orthogonal_selection_raises_on_the_grid(self):
        pre, post, a = _dense_selection(25, 3)
        grid = (1e-3, 1e-2)
        _comparison(pre, post, a, cfg(grid[0]), grid)
        sweep = measurement._sweep
        up, down = make_state([(0, 1), (1, 0), (2, 0)]), make_state([(0, 0), (1, 1), (2, 0)])
        for _ in range(2):
            with pytest.raises(OrthogonalSelection, match="at or below floor"):
                effective_shift_check(up, down, a, cfg(grid[0]))
            with pytest.raises(OrthogonalSelection, match="at or below floor"):
                run_comparison([ScenarioSpec("weak", up, a, cfg(grid[0]), down, grid),
                                ScenarioSpec("expect", up, a, cfg(grid[0]), None, grid)])
        assert measurement._sweep is sweep

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6),
           g=st.floats(1e-2, 1e2), delta=st.floats(1e-2, 1e2),
           grid=st.lists(st.floats(1e-5, 1e-1), min_size=1, max_size=8,
                         unique=True).map(sorted),
           off=st.floats(1e-5, 1e-1), scale=st.floats(1.5, 4.0),
           ops=st.lists(st.tuples(st.sampled_from(
               ["compare", "hit", "eps", "g", "delta", "other", "rebuilt", "tiny", "huge",
                "centre"]),
               st.integers(0, 7)), min_size=1, max_size=24))
    def test_every_check_is_a_check_on_an_empty_slot(self, seed, d, g, delta, grid, off,
                                                     scale, ops):
        # a model of the slot, (pre, post, A, g, delta, grid), against which
        # each check is a hit, which computes nothing and leaves the slot, or a
        # miss, which replaces it with its one-point sweep unless it raises
        assume(off not in grid)
        selections = [_dense_selection(seed, d), _dense_selection(seed + 1, d)]
        centre = _overflowing_centre()
        base = cfg(grid[0], g=g, delta=delta)
        measurement._sweep, model, cur = None, None, 0
        for kind, i in ops:
            pre, post, a = selections[cur]
            c = replace(base, epsilon=grid[i % len(grid)])
            if kind == "compare":
                cur = i % 2
                pre, post, a = selections[cur]
                _comparison(pre, post, a, base, tuple(grid))
                model = (pre, post, a, g, delta, grid)
                continue
            if kind == "eps":
                c = replace(c, epsilon=off)
            elif kind in ("g", "delta"):
                c = replace(c, **{kind: getattr(c, kind) * scale})
            elif kind == "other":
                pre, post, a = selections[1 - cur]
            elif kind == "rebuilt":
                pre, post, a = (SystemState(pre.labels, pre.amplitudes),
                                SystemState(post.labels, post.amplitudes),
                                Observable(a.labels, a.matrix))
            elif kind in ("tiny", "huge"):  # below the kick floor, or kicks that overflow
                c = replace(c, epsilon=1e-85 if kind == "tiny" else 1e300)
            elif kind == "centre":  # kicks in range, centre g*eps*Re(A_w) beyond it
                pre, post, a, c = centre
            hit = (model is not None and model[0] is pre and model[1] is post
                   and model[2] is a and model[3:5] == (c.g, c.delta) and c.epsilon in model[5])
            slot = measurement._sweep
            if kind in ("tiny", "huge"):
                with pytest.raises(InvalidData, match="out of floating-point range"):
                    effective_shift_check(pre, post, a, c)
                assert measurement._sweep is slot
                continue
            with counted_kernel_calls() as calls:
                check = effective_shift_check(pre, post, a, c)
            if hit:
                assert not calls and measurement._sweep is slot
            else:
                assert len(calls) == 1
                _assert_one_point_sweep(pre, post, a, c, check)
                model = (pre, post, a, c.g, c.delta, [c.epsilon])
            slot = measurement._sweep
            assert _bits(_fresh_check(pre, post, a, c)) == _bits(check)
            measurement._sweep = slot


class TestScalingLaw:
    def test_weak_value_coupling_mimics_the_eigenvalue(self):
        for eps in (1e-2, 1e-3):
            g = 1.0
            kicks, weights = pointer(PRE3, POST3, A3, cfg(eps))
            kicks_x, born = pointer(make_state([(0, 1), (1, 0), (2, 1)]), None,
                                    Observable.diagonal((0, 1, 2)), cfg(eps))
            d_ref = angle_and_norm([g * eps], [1.0], 1.0)[0]
            assert angle_and_norm(kicks - g * eps, weights, 1.0)[0] / d_ref < 0.05
            assert mixture_angle(kicks_x - g * eps, born, 1.0) / d_ref == pytest.approx(
                1.0, rel=1e-3)


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
