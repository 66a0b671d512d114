"""Digits of the printed quantities against a 60-digit mpmath oracle.

The canonical scenarios are swept over eps in [1e-6, 1e-1], where the old
arccos-of-a-fidelity forms lost every digit of the weak-vs-eigen angle. The
tolerances are set from the measured accuracy of the closed forms: about one
ulp for every column, with three exceptions. Past the weak regime the sine
of d_weak_vs_eigen is a quadratic form over O(eps^2) entries that cancel,
with an ulp/eps^2 floor. With a complex weak value that sine leads with the
first moment sum_j w_j (a_j - Re A_w), which cancels as much as its
condition number says. The amplified mean shift divides by the selection
amplitude <post|pre> ~ 1/tan(alpha/2) summed from O(1) terms.
"""

import math

import numpy as np
import pytest

import mporacle
from wvsim.cli import main
from wvsim.measurement import CouplingConfig, branch_weights, shift_angles, weak_value
from wvsim.qstate import Observable, make_state
from wvsim.scenarios import (
    amplification_sweep,
    expectation_scenario,
    fit_power_law,
    run_comparison,
    spin_amplification_scenario,
    weak_value_one_scenario,
)

GRID = tuple(np.geomspace(1e-6, 1e-1, 21).tolist())
ULP_TOL = 2e-15          # measured worst 4.3e-16
WEAK_FLOOR = 5e-15       # d_weak_vs_eigen relative error times eps^2; measured 1.9e-15
# d_weak_vs_eigen relative error over the condition number of its first
# moment, for complex selections; measured worst 2.8e-16
MOMENT_TOL = 5e-16
# fit_power_law against exact least squares, from np.polyfit's measured
# worst (1.65e-15, 5.49e-15 and 1.55e-14): the line may not get less accurate
FIT_EXPONENT_TOL = 2e-15
FIT_COEFFICIENT_TOL = 6e-15
FIT_RESIDUAL_TOL = 2e-14
TANS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)


def diagonal(observable):
    return np.real(np.diagonal(observable.matrix)).tolist()


@pytest.fixture(scope="module")
def sweep():
    cfg = CouplingConfig(1.0, GRID[0], 1.0)
    weak, expect = weak_value_one_scenario(cfg, GRID), expectation_scenario(cfg, GRID)
    rows = run_comparison([weak, expect])
    exact = [mporacle.comparison_row(weak.pre.amplitudes, weak.post.amplitudes,
                                     diagonal(weak.observable), expect.pre.amplitudes,
                                     diagonal(expect.observable), 1.0, 1.0, row.epsilon)
             for row in rows]
    return rows, exact


@pytest.mark.parametrize("column, attr", [
    ("d_eigen", "d_eigen"), ("d_expect_vs_eigen", "d_expect_vs_eigen"),
    ("p_postselect", "postselect_probability"), ("weakness", "weakness")])
def test_columns_to_the_last_ulp(sweep, column, attr):
    rows, exact = sweep
    for row, ex in zip(rows, exact):
        assert mporacle.rel_error(getattr(row, attr), ex[column]) <= ULP_TOL, row.epsilon


def test_weak_vs_eigen_angle_down_to_eps_1e_6(sweep):
    rows, exact = sweep
    for row, ex in zip(rows, exact):
        err = mporacle.rel_error(row.d_weak_vs_eigen, ex["d_weak_vs_eigen"])
        assert err <= ULP_TOL, row.epsilon
    # every printed digit at the default lower end eps = 1e-3
    at_1e3 = next(i for i, row in enumerate(rows) if row.epsilon == pytest.approx(1e-3))
    assert mporacle.rel_error(rows[at_1e3].d_weak_vs_eigen,
                              exact[at_1e3]["d_weak_vs_eigen"]) <= ULP_TOL


def test_weak_vs_eigen_angle_across_the_end_of_the_weak_regime():
    # kicks up to 2 eps: the series serves eps <= sqrt(0.02) = 0.1414..., the
    # quadratic form the larger eps, all in one sweep
    grid = (0.05, 0.1414, 0.15, 0.3, 1.0, 3.0)
    cfg = CouplingConfig(1.0, grid[0], 1.0)
    weak, expect = weak_value_one_scenario(cfg, grid), expectation_scenario(cfg, grid)
    for row in run_comparison([weak, expect]):
        exact = mporacle.comparison_row(weak.pre.amplitudes, weak.post.amplitudes,
                                        diagonal(weak.observable), expect.pre.amplitudes,
                                        diagonal(expect.observable), 1.0, 1.0, row.epsilon)
        err = mporacle.rel_error(row.d_weak_vs_eigen, exact["d_weak_vs_eigen"])
        tol = ULP_TOL if row.epsilon < 0.15 else WEAK_FLOOR / row.epsilon ** 2
        assert err <= tol, row.epsilon


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weak_vs_eigen_angle_of_complex_selections(d):
    rng = np.random.default_rng([11, d])
    for _ in range(3):
        pre, post = (make_state(zip(range(d), amps))
                     for amps in rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d)))
        values = np.sort(rng.uniform(-1.0, 1.0, d)).tolist()
        obs = Observable.diagonal(range(d), values)
        vals, w = branch_weights(pre, post, obs)
        moment = w * (vals - weak_value(pre, post, obs).real)
        kappa = np.sum(np.abs(moment)) / abs(np.sum(moment))
        angles = shift_angles(pre, post, obs, 1.0, 1.0, GRID)
        for eps, got in zip(GRID, angles):
            exact = mporacle.comparison_row(pre.amplitudes, post.amplitudes, values,
                                            pre.amplitudes, values, 1.0, 1.0, eps)
            err = mporacle.rel_error(got, exact["d_weak_vs_eigen"])
            assert err <= MOMENT_TOL * kappa, (eps, kappa)


def test_weakness_is_expm1_exactly():
    cfg = CouplingConfig(1.0, 1e-3, 1.0)
    (row,) = run_comparison([weak_value_one_scenario(cfg, [1e-3]),
                             expectation_scenario(cfg, [1e-3])])
    assert row.weakness == -math.expm1(-1e-6 / 8)
    assert f"{row.weakness:.12g}" == "1.24999992188e-07"


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 1e-1])
def test_amplified_mean_shift(eps):
    cfg = CouplingConfig(1.0, eps, 1.0)
    rows = amplification_sweep([2 * math.atan(t) for t in TANS], cfg)
    for t, row in zip(TANS, rows):
        spec = spin_amplification_scenario(2 * math.atan(t), cfg)
        exact = mporacle.mean_shift(spec.pre.amplitudes, spec.post.amplitudes,
                                    diagonal(spec.observable), 1.0, 1.0, eps)
        # measured worst 5.7e-12 at tan = 1e5
        assert mporacle.rel_error(row.mean_shift_over_g_eps, exact) <= 2e-16 * t + ULP_TOL, t


@pytest.mark.parametrize("grid", ["1e-4:1e-3:8:log", "1e-5:1e-4:8:log"])
def test_low_eps_sweep_fits_the_square_law(capsys, grid):
    assert main(["compare", "--eps-grid", grid]) == 0
    out = capsys.readouterr().out
    (fit,) = [line for line in out.splitlines() if line.startswith("# fit d_weak_vs_eigen:")]
    exponent = float(fit.split()[3].removeprefix("exponent="))
    assert abs(exponent - 2.0) <= 1e-3


def fit_cases(rows):
    """Noisy synthetic power laws of 4 to 39 points, and the three distance
    columns of the canonical sweep."""
    rng = np.random.default_rng(17)
    for n in range(4, 40):
        eps = np.sort(10.0 ** rng.uniform(-6, 0, n))
        d = 10.0 ** rng.uniform(-3, 1) * eps ** rng.uniform(0.5, 3) * np.exp(rng.normal(0, 0.1, n))
        yield list(zip(eps.tolist(), d.tolist()))
    for name in ("d_eigen", "d_weak_vs_eigen", "d_expect_vs_eigen"):
        yield [(r.epsilon, getattr(r, name)) for r in rows]


def test_power_law_fit_against_exact_least_squares(sweep):
    worst = [0.0, 0.0, 0.0]
    for points in fit_cases(sweep[0]):
        fit = fit_power_law(points)
        exponent, coefficient, residual = mporacle.power_law_fit(points)
        errors = (mporacle.rel_error(fit.exponent, exponent),
                  mporacle.rel_error(fit.coefficient, coefficient),
                  mporacle.rel_error(fit.residual, residual) * float(residual))
        worst = [max(w, e) for w, e in zip(worst, errors)]
    # relative error of the exponent and coefficient, absolute error of the
    # log-space residual
    for err, tol in zip(worst, (FIT_EXPONENT_TOL, FIT_COEFFICIENT_TOL, FIT_RESIDUAL_TOL)):
        assert err <= tol, worst
