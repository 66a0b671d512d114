"""Digits of the printed quantities against a 60-digit mpmath oracle.

The canonical scenarios are swept over eps in [1e-6, 1e-1], where the old
arccos-of-a-fidelity forms lost every digit of the weak-vs-eigen angle. The
tolerances are set from the measured accuracy of the closed forms: about one
ulp for every column except d_weak_vs_eigen, whose sine is an O(eps^4)
quadratic form over O(eps^2) entries and so carries an ulp/eps^2 floor, and
the amplified mean shift, which divides by the selection amplitude
<post|pre> ~ 1/tan(alpha/2) summed from O(1) terms.
"""

import math

import numpy as np
import pytest

import mporacle
from wvsim.cli import main
from wvsim.measurement import CouplingConfig
from wvsim.scenarios import (
    amplification_sweep,
    expectation_scenario,
    run_comparison,
    spin_amplification_scenario,
    weak_value_one_scenario,
)

GRID = tuple(np.geomspace(1e-6, 1e-1, 21).tolist())
ULP_TOL = 2e-15          # measured worst 4.3e-16
WEAK_FLOOR = 5e-15       # d_weak_vs_eigen relative error times eps^2; measured 1.9e-15
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
        assert err <= WEAK_FLOOR / row.epsilon ** 2, row.epsilon
    # ~9 correct digits at the default lower end eps = 1e-3
    at_1e3 = next(i for i, row in enumerate(rows) if row.epsilon == pytest.approx(1e-3))
    assert mporacle.rel_error(rows[at_1e3].d_weak_vs_eigen,
                              exact[at_1e3]["d_weak_vs_eigen"]) <= 1e-8


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
