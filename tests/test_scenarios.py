"""Scenario constructors, comparison sweeps, power-law fits, amplification."""

import math

import numpy as np
import pytest

import mporacle
from wvsim import cli, measurement, pointer, qstate, scenarios
from wvsim.errors import InvalidData
from wvsim.measurement import (DEFAULT_OVERLAP_FLOOR, CouplingConfig, branch_weights,
                               weak_value, weakness)
from wvsim.scenarios import (
    DEFAULT_EPSILON_GRID,
    WEAKNESS_THRESHOLD,
    AmplificationRow,
    AmplificationTable,
    amplification_sweep,
    expectation_scenario,
    fit_power_law,
    run_comparison,
    spin_amplification_scenario,
    weak_value_one_scenario,
)

CFG = CouplingConfig(g=1.0, epsilon=0.01, delta=1.0)
# the relative accuracy of the general pointer kernel on well-conditioned sums
KERNEL_ULP_TOL = 2e-15
# four ulp: the closed-form shift holds about one, plus one for each rounding of
# g*eps/delta when g or delta is not a power of two
SHIFT_ULP_TOL = 4 * 2.0 ** -52


class TestSpinAmplificationScenario:
    def test_weak_value_is_tan_half_alpha(self):
        spec = spin_amplification_scenario(2 * math.atan(100.0), CFG)
        wv = weak_value(spec.pre, spec.post, spec.observable)
        assert wv.real == pytest.approx(100.0, abs=1e-9)
        assert wv.imag == pytest.approx(0.0, abs=1e-9)

    def test_right_angle_gives_unit_weak_value(self):
        spec = spin_amplification_scenario(math.pi / 2, CFG)
        assert weak_value(spec.pre, spec.post, spec.observable).real == pytest.approx(1.0)

    def test_selection_probability_closes_as_alpha_approaches_pi(self):
        # |<up_x|psi>|^2 = cos^2(alpha/2) straight from the construction
        for alpha in (2.0, 3.0, 3.14):
            spec = spin_amplification_scenario(alpha, CFG)
            p0 = abs(np.vdot(spec.post.vector, spec.pre.vector)) ** 2
            assert p0 == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)
        assert math.cos(3.14 / 2) ** 2 < 1e-6

    def test_weak_value_matches_tan_for_many_angles(self):
        for alpha in np.linspace(0.05, 3.1, 25):
            spec = spin_amplification_scenario(alpha, CFG)
            wv = weak_value(spec.pre, spec.post, spec.observable)
            assert abs(wv - math.tan(alpha / 2)) < 1e-9 * max(1.0, abs(math.tan(alpha / 2)))

    def test_angle_out_of_range(self, monkeypatch):
        for alpha in (0.0, -1.0, math.pi, 4.0):
            with pytest.raises(InvalidData, match=r"alpha must lie in \(0, pi\)"):
                spin_amplification_scenario(alpha, CFG)
        # a sweep names its first bad angle before normalising any selection
        monkeypatch.setattr(np, "vecdot", None)
        for alpha in (0.0, -1.0, math.pi, 4.0):
            with pytest.raises(InvalidData, match=rf"^alpha must lie in \(0, pi\), got {alpha}$"):
                amplification_sweep([1.0, alpha, -2.0], CFG)


class TestWeakValueOneScenario:
    def test_weak_value_is_one(self):
        spec = weak_value_one_scenario(CFG)
        assert weak_value(spec.pre, spec.post, spec.observable) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_one_unpopulated(self):
        spec = weak_value_one_scenario(CFG)
        assert dict(zip(spec.pre.labels, spec.pre.amplitudes))[1] == 0
        assert dict(zip(spec.post.labels, spec.post.amplitudes))[1] == 0

    def test_selection_probability_limit(self):
        spec = weak_value_one_scenario(CFG)
        p0 = abs(np.vdot(spec.post.vector, spec.pre.vector)) ** 2
        assert p0 == pytest.approx(0.1, abs=1e-14)


class TestExpectationScenario:
    def test_expectation_is_one_without_the_eigenstate(self):
        spec = expectation_scenario(CFG)
        pre = spec.pre
        assert np.vdot(pre.vector, spec.observable.matrix @ pre.vector).real == pytest.approx(
            1.0, abs=1e-14)
        assert dict(zip(pre.labels, pre.amplitudes))[1] == 0
        assert spec.post is None


class TestCanonicalScenarios:
    @pytest.mark.parametrize("make", [weak_value_one_scenario, expectation_scenario])
    def test_constructors_share_their_selection(self, make):
        first, second = make(CFG), make(CouplingConfig(2.0, 0.02, 3.0), [0.02])
        assert first.pre is second.pre
        assert first.post is second.post
        assert first.observable is second.observable

    def test_repeated_comparison_builds_no_state_or_selection(self, monkeypatch):
        def specs():
            return [weak_value_one_scenario(CFG), expectation_scenario(CFG)]

        built = []

        def recorded(init):
            def wrapper(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return wrapper

        run_comparison(specs())
        for cls in (qstate.SystemState, qstate.Observable):
            monkeypatch.setattr(cls, "__init__", recorded(cls.__init__))
        run_comparison(specs())
        assert built == []


class TestRunComparison:
    def test_single_epsilon_row_values(self):
        rows = run_comparison([weak_value_one_scenario(CFG, [0.01]),
                               expectation_scenario(CFG, [0.01])])
        (row,) = rows
        assert row.d_eigen == pytest.approx(0.005, rel=0.01)
        assert row.d_weak_vs_eigen == pytest.approx(3.54e-5, rel=0.05)
        assert row.d_expect_vs_eigen == pytest.approx(0.005, rel=0.01)
        assert row.postselect_probability == pytest.approx(0.1, abs=1e-3)

    def test_halving_epsilon_halves_and_quarters(self):
        grid = [0.005, 0.01]
        rows = run_comparison([weak_value_one_scenario(CFG, grid),
                               expectation_scenario(CFG, grid)])
        half, full = rows
        assert half.d_eigen == pytest.approx(full.d_eigen / 2, rel=0.01)
        assert half.d_weak_vs_eigen == pytest.approx(full.d_weak_vs_eigen / 4, rel=0.02)

    def test_ordering_and_vanishing_ratio(self):
        rows = run_comparison([weak_value_one_scenario(CFG), expectation_scenario(CFG)])
        ratios = []
        for row in rows:
            assert row.d_weak_vs_eigen < row.d_expect_vs_eigen
            ratios.append(row.d_weak_vs_eigen / row.d_expect_vs_eigen)
        # ratio shrinks linearly with epsilon across the decade
        assert ratios[0] == pytest.approx(ratios[-1] / 10, rel=0.05)

    def test_distances_within_bures_range(self):
        rows = run_comparison([weak_value_one_scenario(CFG), expectation_scenario(CFG)])
        for row in rows:
            for d in (row.d_eigen, row.d_weak_vs_eigen, row.d_expect_vs_eigen):
                assert 0.0 <= d <= math.pi / 2
            assert 0.0 <= row.postselect_probability <= 1.0

    def test_requires_one_scenario_of_each_kind(self):
        with pytest.raises(InvalidData, match="need exactly one post-selected and one"):
            run_comparison([weak_value_one_scenario(CFG)])

    def test_requires_shared_coupling(self):
        other = CouplingConfig(g=2.0, epsilon=0.01, delta=1.0)
        with pytest.raises(InvalidData,
                           match="^scenarios must share g, delta and the epsilon grid$"):
            run_comparison([weak_value_one_scenario(CFG), expectation_scenario(other)])

    def test_requires_shared_grid(self):
        # the expectation scenario's grid is compared, not ignored
        for weak_grid, expect_grid in (([0.01], [0.02]), ([0.01], [0.01, 0.02]),
                                       (DEFAULT_EPSILON_GRID, [0.01])):
            with pytest.raises(InvalidData,
                               match="^scenarios must share g, delta and the epsilon grid$"):
                run_comparison([weak_value_one_scenario(CFG, weak_grid),
                                expectation_scenario(CFG, expect_grid)])

    @pytest.mark.parametrize("g, grid", [(1.0, [1e-80, 1e-3]), (1e300, [1e-3, 1e10])])
    def test_weak_sweep_errors_come_before_the_partner_checks(self, g, grid):
        # the weak scenario's selection and kicks are swept first: a smallest kick
        # below the floor, or a largest one out of range, is named before an
        # expectation scenario that targets another value or is in another basis
        def partners(cfg, grid):
            other_target = qstate.Observable.diagonal((0, 1, 2), [0.0, 1.0, 3.0])
            return (scenarios.ScenarioSpec("target", scenarios.EXPECT_ONE_PRE, other_target,
                                           cfg, None, grid),
                    scenarios.ScenarioSpec("basis", qstate.make_state([(5, 1.0)]),
                                           scenarios.EXPECT_ONE_OBSERVABLE, cfg, None, grid))

        cfg = CouplingConfig(g, grid[0], 1.0)
        for expect in partners(cfg, grid):
            with pytest.raises(InvalidData, match=r"^g\*epsilon/delta is out of floating-point "):
                run_comparison([weak_value_one_scenario(cfg, grid), expect])
        # in range, each partner fails its own check, after the sweep was kept
        messages = (r"^scenarios target different values: weak 1.0 vs expectation 1.49+6$",
                    r"^bases differ: \(5,\) vs \(0, 1, 2\)$")
        for expect, message in zip(partners(CFG, [1e-3]), messages):
            measurement._sweep = None
            weak = weak_value_one_scenario(CFG, [1e-3])
            with pytest.raises(InvalidData, match=message):
                run_comparison([weak, expect])
            kept = measurement._sweep
            assert kept[0] is weak.pre and kept[1] is weak.post and kept[2] is weak.observable

    def test_explicit_grid_replaces_both_scenario_grids(self):
        # the second argument the benchmark's --smoke self-check passes
        mismatched = [weak_value_one_scenario(CFG), expectation_scenario(CFG, [0.02])]
        assert run_comparison(mismatched, [0.01]) == run_comparison(
            [weak_value_one_scenario(CFG, [0.01]), expectation_scenario(CFG, [0.01])])

    def test_explicit_grid_is_validated_like_the_spec_grid(self):
        def explicit(cfg, grid):
            return run_comparison([weak_value_one_scenario(cfg), expectation_scenario(cfg)],
                                  grid)

        for sweep in (compare_on, explicit):
            with pytest.raises(InvalidData, match="strictly increasing"):
                sweep(CFG, [0.01, 0.01])
            with pytest.raises(InvalidData, match="strictly positive"):
                sweep(CFG, [0.0, 0.01])


def assert_rows_stand_alone(specs, every=1):
    """Every `every`-th row of the sweep of `specs` equals, bit for bit, the
    one row of a sweep of its epsilon alone."""
    rows = run_comparison(specs)
    for row in rows[::every]:
        (alone,) = run_comparison(specs, [row.epsilon])
        assert np.array(alone).tobytes() == np.array(row).tobytes(), row.epsilon


class TestRowIndependence:
    """A row depends on its own epsilon alone, not on the grid it is swept in:
    every sum over the terms runs in one fixed order, whatever the row count."""

    def test_cli_default_grid(self):
        assert_rows_stand_alone([weak_value_one_scenario(CFG), expectation_scenario(CFG)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_compare_sweep_grids(self, workloads, tmp_path, seed):
        assert_rows_stand_alone(workloads.WORKLOADS["compare_sweep"](seed, tmp_path)._specs(), 7)

    def test_dense_observables_cases(self, workloads, tmp_path):
        wl = workloads.WORKLOADS["dense_observables"](1, tmp_path)
        assert len(wl.inputs["cases"]) == 7
        for k in range(7):
            assert_rows_stand_alone(wl.specs(k))


def compare_on(cfg, grid):
    """`run_comparison` of the canonical scenarios, both built with `grid`."""
    return run_comparison([weak_value_one_scenario(cfg, grid), expectation_scenario(cfg, grid)])


class TestScenarioSpec:
    """A spec holds its grid as given; `run_comparison` checks the grid it sweeps."""

    def test_default_grid(self):
        spec = weak_value_one_scenario(CFG)
        assert spec.epsilon_grid == DEFAULT_EPSILON_GRID
        assert len(spec.epsilon_grid) == 8
        assert spec.epsilon_grid[0] == pytest.approx(1e-3)
        assert spec.epsilon_grid[-1] == pytest.approx(1e-2)

    def test_zero_epsilon_excluded(self):
        with pytest.raises(InvalidData, match="epsilon grid values must be strictly positive"):
            compare_on(CFG, (0.0, 0.01))

    def test_grid_must_increase(self):
        with pytest.raises(InvalidData, match="epsilon grid must be strictly increasing"):
            compare_on(CFG, (0.01, 0.01))

    @pytest.mark.parametrize("make", [weak_value_one_scenario, expectation_scenario])
    def test_empty_grid_rejected_not_defaulted(self, make):
        for empty in ([], (), np.array([])):
            # an empty grid on either scenario is an error, never the default
            with pytest.raises(InvalidData, match="^epsilon grid is empty$"):
                compare_on(CFG, empty)
            with pytest.raises(InvalidData, match="^(epsilon grid is empty|scenarios must "
                                                  "share g, delta and the epsilon grid)$"):
                run_comparison([make(CFG, empty) if make is other else other(CFG)
                                for other in (weak_value_one_scenario, expectation_scenario)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_value_rejected(self, bad):
        for grid in ((bad,), (1e-3, bad), (1e-3, bad, 1e-2)):
            with pytest.raises(InvalidData, match="must be strictly positive and finite"):
                compare_on(CFG, grid)

    @pytest.mark.parametrize("grid, message", [
        ((), "^epsilon grid is empty$"),
        ((0.0, 0.01), "^epsilon grid values must be strictly positive and finite$"),
        ((1e-3, math.nan), "^epsilon grid values must be strictly positive and finite$"),
        ((0.02, 0.01), "^epsilon grid must be strictly increasing$")])
    def test_bad_grid_is_built_and_rejected_where_swept(self, grid, message):
        weak = scenarios.ScenarioSpec("weak", scenarios.WEAK_ONE_PRE,
                                      scenarios.WEAK_ONE_OBSERVABLE, CFG,
                                      scenarios.WEAK_ONE_POST, grid)
        expect = scenarios.ScenarioSpec("expect", scenarios.EXPECT_ONE_PRE,
                                        scenarios.EXPECT_ONE_OBSERVABLE, CFG, None, grid)
        assert weak.epsilon_grid is expect.epsilon_grid is grid
        with pytest.raises(InvalidData, match=message):
            run_comparison([weak, expect])
        # the same message when the bad grid is the one passed to sweep
        good = [weak_value_one_scenario(CFG), expectation_scenario(CFG)]
        with pytest.raises(InvalidData, match=message):
            run_comparison(good, grid)

    def test_cli_default_grid_spec_builds_the_default_grid(self):
        assert cli.parse_grid_spec(cli.DEFAULT_GRID_SPEC)[0] == DEFAULT_EPSILON_GRID


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        eps = np.geomspace(1e-3, 1e-2, 8)
        fit = fit_power_law(list(zip(eps, 0.5 * eps)))
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(0.5, abs=1e-10)
        assert fit.residual < 1e-12

    def test_quadratic_synthetic(self):
        eps = np.geomspace(1e-3, 1e-2, 8)
        fit = fit_power_law(list(zip(eps, 0.25 * eps ** 2)))
        assert fit.exponent == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(0.25, rel=1e-10)

    @pytest.mark.parametrize("scale, message", [
        (1e230, r"^power-law fit coefficient exp\(1059\.1891\d*\) is out of floating-point range$"),
        (1e-200, r"^power-law fit coefficient exp\(-921\.0340\d*\) is out of floating-point range$"),
    ])
    def test_coefficient_out_of_float_range_rejected(self, scale, message):
        # d = (scale eps)^2 is in range, its coefficient scale^2 overflows
        # or underflows, at the grids of `compare --g 1e230` and `--g 1e-200`
        eps = np.geomspace(1e-300 if scale > 1 else 1e150, 1e-250 if scale > 1 else 1e151, 5)
        points = [(e, (scale * e) ** 2) for e in eps.tolist()]
        with pytest.raises(InvalidData, match=message):
            fit_power_law(points)

    def test_coefficient_at_the_ends_of_float_range(self):
        # coefficients near the largest and smallest normal floats still fit
        for c, lo in ((1e308, 0.1), (2.5e-308, 1.0)):
            eps = np.geomspace(lo, 10 * lo, 5)
            fit = fit_power_law(list(zip(eps, c * eps)))
            assert fit.coefficient == pytest.approx(c, rel=1e-12)

    def test_sweep_exponents_and_coefficients(self):
        rows = run_comparison([weak_value_one_scenario(CFG), expectation_scenario(CFG)])
        weak_fit = fit_power_law([(r.epsilon, r.d_weak_vs_eigen) for r in rows])
        assert weak_fit.exponent == pytest.approx(2.0, abs=0.05)
        assert weak_fit.coefficient == pytest.approx(1 / (2 * math.sqrt(2)), rel=0.05)
        mix_fit = fit_power_law([(r.epsilon, r.d_expect_vs_eigen) for r in rows])
        assert mix_fit.exponent == pytest.approx(1.0, abs=0.05)
        assert mix_fit.coefficient == pytest.approx(0.5, rel=0.02)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InvalidData, match="needs strictly positive abscissae and distances"):
            fit_power_law([(1e-3, 1.0), (2e-3, 0.0), (4e-3, 1.0), (8e-3, 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, bad):
        for point in ((2e-3, bad), (bad, 1.0)):
            with pytest.raises(InvalidData, match="needs finite abscissae and distances"):
                fit_power_law([(1e-3, 1.0), point, (3e-3, 3.0), (4e-3, 4.0)])

    def test_fit_equals_per_point_reference_bitwise(self):
        rng = np.random.default_rng(17)
        for n in range(4, 40):
            eps = np.sort(10.0 ** rng.uniform(-6, 0, n))
            d = 10.0 ** rng.uniform(-3, 1) * eps ** rng.uniform(0.5, 3) * np.exp(rng.normal(0, 0.1, n))
            pts = list(zip(eps.tolist(), d.tolist()))
            # the centred closed-form line with its inputs built one Python pass
            # per point, which the array version replaced
            log_e = np.log([e for e, _ in pts])
            log_d = np.log([v for _, v in pts])
            de, dd = log_e - np.mean(log_e), log_d - np.mean(log_d)
            slope = float(np.dot(de, dd) / np.dot(de, de))
            intercept = float(np.mean(log_d - slope * log_e))
            residual = float(np.max(np.abs(dd - slope * de)))
            expected = (slope, math.exp(intercept), residual)
            assert tuple(fit_power_law(pts)) == expected

    def test_equal_abscissae_rejected(self):
        with pytest.raises(InvalidData, match="needs at least two distinct abscissae"):
            fit_power_law([(1e-3, 1.0), (1e-3, 2.0), (1e-3, 3.0), (1e-3, 4.0)])

    def test_abscissae_within_rounding_rejected(self):
        # log eps spreads ~1e-13 here: the slope would be the rounding noise of log d
        eps = np.linspace(1e-3, 1.0000000000001e-3, 6)
        assert np.ptp(np.log(eps)) > 0
        with pytest.raises(InvalidData, match="abscissae whose logs spread at least 1e-06"):
            fit_power_law(zip(eps.tolist(), (eps ** 2).tolist()))
        fit = fit_power_law([(e, e ** 2) for e in (1.0, 1.0 + 1e-6, 1.0 + 2e-6, 1.0 + 3e-6)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidData, match="need at least 4 points for a fit, got 2"):
            fit_power_law([(1e-3, 1e-3), (1e-2, 1e-2)])
        # counted before the points are checked to be pairs
        for short in ([(1e-3, 1.0), (2e-3, 2.0, 9.0), (3e-3, 3.0)], [1, 2, 3], iter([])):
            with pytest.raises(InvalidData, match="need at least 4 points for a fit"):
                fit_power_law(short)

    @pytest.mark.parametrize("points", [
        [(1e-3, 1.0), (2e-3, 2.0, 9.0), (3e-3, 3.0), (4e-3, 4.0)],
        [(1e-3, 1.0), (2e-3,), (3e-3, 3.0), (4e-3, 4.0)],
        [(1e-3, 1.0, 5.0), (2e-3,), (3e-3, 3.0), (4e-3, 4.0)],
        [(e, e, e) for e in (1e-3, 2e-3, 3e-3, 4e-3)],
        [1, 2, 3, 4],
        [(1e-3, 1.0), 2.0, (3e-3, 3.0), (4e-3, 4.0)],
        np.ones((4, 3)),
        np.ones(4),
    ], ids=["ragged-long", "ragged-short", "ragged-both", "triples", "scalars",
            "one-scalar", "array-n-3", "array-1d"])
    def test_non_pair_points_rejected(self, points):
        with pytest.raises(InvalidData, match=r"^power-law fit needs \(abscissa, distance\) pairs$"):
            fit_power_law(points)

    def test_fit_is_the_same_for_every_input_type(self):
        eps = np.geomspace(1e-3, 1e-1, 13)
        d = 0.3 * eps ** 1.7 * (1 + 0.01 * np.sin(40 * eps))
        pts = list(zip(eps.tolist(), d.tolist()))
        expected = fit_power_law(pts)
        for points in (zip(eps.tolist(), d.tolist()),
                       ((e, v) for e, v in pts),
                       [(np.float64(e), np.float64(v)) for e, v in pts],
                       np.column_stack([eps, d])):
            got = fit_power_law(points)
            assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestAmplificationSweep:
    def test_shift_tracks_weak_value_in_weak_regime(self):
        cfg = CouplingConfig(g=1.0, epsilon=1e-4, delta=1.0)
        alphas = [2 * math.atan(t) for t in (1.0, 10.0, 100.0)]
        rows = amplification_sweep(alphas, cfg)
        for row, target in zip(rows, (1.0, 10.0, 100.0)):
            assert row.mean_shift_over_g_eps == pytest.approx(target, rel=0.02)
            assert row.weak
            assert row.postselect_probability == pytest.approx(1 / (1 + target ** 2), abs=1e-3)
        assert amplification_sweep(iter(alphas), cfg) == rows
        assert amplification_sweep(np.array(alphas), cfg) == rows
        empty = amplification_sweep(iter([]), cfg)
        assert empty == amplification_sweep(np.array([]), cfg) and list(empty) == []

    @pytest.mark.parametrize("eps", [1e-5, 1e-4, 3e-3, 1e-2])
    def test_sweep_equals_row_by_row_reference_bitwise(self, eps):
        tans = [*10.0 ** np.random.default_rng(9).uniform(-8.0, 12.0, 60), 0.5, 1, 2, 10, 100, 1000, 50000, 1e5]
        alphas = [2 * math.atan(t) for t in tans]
        cfg = CouplingConfig(g=1.5, epsilon=eps, delta=2.0)
        rows = list(amplification_sweep(alphas, cfg))
        # each row depends on its own alpha alone, bit for bit
        alone = [row for alpha in alphas for row in amplification_sweep([alpha], cfg)]
        assert np.array(rows, dtype=float).tobytes() == np.array(alone, dtype=float).tobytes()
        # the shift holds a few ulp of the 60-digit oracle at the row's float tan;
        # the general kernel, one scenario and one branch_weights call per row,
        # agrees within its own accuracy: it sums <post|pre> ~ 1/tan(alpha/2)
        # from O(1) rounded products
        kick = np.float64(cfg.g) * eps
        for t, alpha, row in zip(tans, alphas, rows):
            assert row.tan_half_alpha == math.tan(alpha / 2)
            exact = mporacle.amplification_row(row.tan_half_alpha, 1.5, 2.0, eps)
            assert mporacle.rel_error(row.mean_shift_over_g_eps,
                                      exact["mean_shift"]) <= SHIFT_ULP_TOL, t
            spec = spin_amplification_scenario(alpha, cfg)
            vals, w = branch_weights(spec.pre, spec.post, spec.observable)
            metric = weakness(kick * vals, w, cfg.delta)
            prob = min(pointer.angle_and_norm(kick * vals, w, cfg.delta)[1], 1.0)
            p0 = abs(np.sum(w)) ** 2
            weak = metric <= WEAKNESS_THRESHOLD and abs(prob - p0) / p0 <= WEAKNESS_THRESHOLD
            tol = 2e-16 * max(t, 1 / t) + KERNEL_ULP_TOL
            assert row.postselect_probability == pytest.approx(prob, rel=tol, abs=0), t
            assert row.weak == weak, t

    def test_work_does_not_grow_with_rows(self, monkeypatch):
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        make_state = counted("make_state", qstate.make_state)
        for module in (qstate, scenarios):
            monkeypatch.setattr(module, "make_state", make_state)
        monkeypatch.setattr(scenarios.ScenarioSpec, "__init__",
                            counted("ScenarioSpec", scenarios.ScenarioSpec.__init__))
        monkeypatch.setattr(qstate.Observable, "__post_init__",
                            counted("Observable", qstate.Observable.__post_init__))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        per_size = []
        for n in (2, 200):
            counts.clear()
            amplification_sweep(np.linspace(0.1, 3.0, n), CFG)
            per_size.append(dict(counts))
        assert per_size[0] == per_size[1]

    @pytest.mark.parametrize("g, eps, delta, tan, error", [
        (1e300, 1e10, 1.0, 1e13, InvalidData),  # g*eps overflows
        (1e200, 1e-3, 1e-300, 10.0, InvalidData),  # x = g*eps/delta overflows
        (1.0, 1e200, 1.0, 10.0, InvalidData),  # x*x overflows
    ])
    def test_range_errors_in_kernel_order(self, g, eps, delta, tan, error):
        with pytest.raises(error, match="^g\\*epsilon/delta is out of floating-point range for "):
            amplification_sweep([1.0, 2 * math.atan(tan)], CouplingConfig(g, eps, delta))

    @pytest.mark.parametrize("tan", [1e13, 1e15, 1e16])
    def test_no_selection_is_orthogonal(self, tan):
        # <post|pre> = 1/sqrt(1+t^2) is never taken as a difference, so a row
        # whose selection amplitude lies below the general kernel's overlap
        # floor holds the oracle's digits like any other; 2*atan(1e16) rounds
        # to pi, so that row takes the largest alpha below pi
        alpha = min(2 * math.atan(tan), math.nextafter(math.pi, 0.0))
        cfg = CouplingConfig(1.0, 1e-12, 1.0)
        (row,) = amplification_sweep([alpha], cfg)
        t = math.tan(alpha / 2)
        assert row.tan_half_alpha == t and 1 / t <= DEFAULT_OVERLAP_FLOOR
        exact = mporacle.amplification_row(t, 1.0, 1.0, 1e-12)
        assert mporacle.rel_error(row.mean_shift_over_g_eps, exact["mean_shift"]) <= KERNEL_ULP_TOL
        assert mporacle.rel_error(row.postselect_probability, exact["p_postselect"]) <= KERNEL_ULP_TOL

    def test_unit_weak_value_shift_is_exact(self):
        cfg = CouplingConfig(g=1.0, epsilon=1e-4, delta=1.0)
        (row,) = amplification_sweep([math.pi / 2], cfg)
        assert row.mean_shift_over_g_eps == pytest.approx(1.0, abs=1e-12)

    def test_strong_coupling_row_flagged_and_distorted(self):
        strong = CouplingConfig(g=1.0, epsilon=0.1, delta=1.0)
        (row,) = amplification_sweep([2 * math.atan(100.0)], strong)
        assert not row.weak
        assert row.mean_shift_over_g_eps < 100.0
        # independent closed form: sin(a) / (1 + cos(a) exp(-(2 g eps)^2/8))
        alpha = 2 * math.atan(100.0)
        damp = math.exp(-(2 * 0.1) ** 2 / 8)
        expected = math.sin(alpha) / (1 + math.cos(alpha) * damp)
        assert row.mean_shift_over_g_eps == pytest.approx(expected, rel=1e-9)

    def test_shift_monotone_in_weak_value(self):
        cfg = CouplingConfig(g=1.0, epsilon=1e-4, delta=1.0)
        tans = (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
        rows = amplification_sweep([2 * math.atan(t) for t in tans], cfg)
        shifts = [r.mean_shift_over_g_eps for r in rows]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))


class TestAmplificationTable:
    CFG = CouplingConfig(g=1.5, epsilon=3e-3, delta=2.0)
    TANS = (1e-8, 0.5, 1.0, 10.0, 1e3, 1e5, 1e11)

    def sweep(self):
        return amplification_sweep([2 * math.atan(t) for t in self.TANS], self.CFG)

    def test_columns_are_read_only_named_rows_of_length_n(self):
        table = self.sweep()
        names = list(AmplificationTable.__annotations__)
        assert names == list(AmplificationRow._fields)
        with pytest.raises(ValueError):
            AmplificationTable(*(np.zeros(2) for _ in names[1:]))
        assert len(table) == len(self.TANS)
        for name in names:
            column = getattr(table, name)
            assert column.shape == (len(self.TANS),)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        assert table.weak.dtype == bool
        assert table.tan_half_alpha.tolist() == [math.tan(math.atan(t)) for t in self.TANS]

    def test_rows_are_the_columns_entries(self):
        table = self.sweep()
        rows = list(table)
        assert all(type(row) is AmplificationRow for row in rows)
        # row by row: Python floats and a bool, each the bits of its column entry
        assert len(rows) == len(table)
        for i, row in enumerate(rows):
            assert [type(v) for v in row] == [float] * 3 + [bool]
            for name, value in zip(AmplificationRow._fields, row):
                assert np.array([value]).tobytes() == getattr(table, name)[i:i + 1].tobytes()
        # every iteration reads the same rows
        assert list(table) == rows
        # and each row is what a sweep of its angle alone gives, bit for bit
        alone = [row for t in self.TANS for row in amplification_sweep([2 * math.atan(t)], self.CFG)]
        assert np.array(rows, dtype=float).tobytes() == np.array(alone, dtype=float).tobytes()

    def test_equality(self):
        table = self.sweep()
        assert table == self.sweep()
        assert list(table) == list(self.sweep())
        assert not table != self.sweep()
        other = amplification_sweep([2 * math.atan(t) for t in self.TANS[:-1]], self.CFG)
        assert table != other
        assert list(table) != list(other)
        # a table equals only another table
        assert table != list(table)
        assert table != tuple(table)
        assert list(amplification_sweep([], self.CFG)) == []
        assert amplification_sweep([], self.CFG) == amplification_sweep(np.array([]), self.CFG)
        assert table != []
