"""Digits of the printed quantities against a 60-digit mpmath oracle.

The canonical scenarios are swept over eps in [1e-6, 1e-1], where the old
arccos-of-a-fidelity forms lost every digit of the weak-vs-eigen angle. The
tolerances are set from the measured accuracy of the closed forms: about one
ulp for every column, with three exceptions. Past the weak regime the sine
of d_weak_vs_eigen is a quadratic form over O(eps^2) entries that cancel,
with an ulp/eps^2 floor. With a complex weak value that sine leads with the
first moment sum_j w_j (a_j - Re A_w), which cancels as much as its
condition number says. The amplification table is a closed form in sums of
non-negative terms, so its mean shift and post-selection probability hold
about one ulp of the oracle at the float tan(alpha/2) of each row, for tans
from 1e-8 to 3.5e15 and for every kick down to subnormal g*eps. Below the
smallest kick g*eps/delta that the shift angles accept, underflow would
leave printed comparison digits wrong, so the shift sweep rejects it, and
with it a comparison.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import mporacle
from wvsim import measurement
from wvsim.cli import main
from wvsim.errors import InvalidData
from wvsim.measurement import (
    COMPARISON_MIN_KICK,
    CouplingConfig,
    branch_weights,
    effective_shift_check,
    weak_value,
)
from wvsim.qstate import Observable, make_state
from wvsim.scenarios import (
    WEAK_ONE_OBSERVABLE,
    WEAK_ONE_POST,
    WEAK_ONE_PRE,
    ScenarioSpec,
    amplification_sweep,
    expectation_scenario,
    fit_power_law,
    run_comparison,
    weak_value_one_scenario,
)

GRID = tuple(np.geomspace(1e-6, 1e-1, 21).tolist())
ULP_TOL = 2e-15          # measured worst 4.3e-16
WEAK_FLOOR = 5e-15       # d_weak_vs_eigen relative error times eps^2; measured 1.9e-15
# d_weak_vs_eigen relative error over the condition number of its first
# moment, for complex selections; measured worst 2.8e-16
MOMENT_TOL = 5e-16
# relative error over sum_j |w_j| / |sum_j w_j|, the condition number of the
# selection amplitude, for complex selections at g, delta = 1, 1 and 1.7, 0.6:
# p_postselect, measured worst 3.7e-16, and d_eigen, which is as accurate as
# Re(A_w) is, measured worst 8.7e-16
P_SELECTION_TOL = 4e-16
EIGEN_SELECTION_TOL = 1e-15
# weak_value of a non-diagonal observable, relative error over the condition
# number sum_j |conj(q_j) p_j| / |sum_j conj(q_j) p_j| of <post|pre> (labels
# j, amplitudes p of pre and q of post), for complex selections in d 2-16;
# measured worst 3.3e-16
WEAK_VALUE_TOL = 1e-15
# fit_power_law against exact least squares, from np.polyfit's measured
# worst (1.65e-15, 5.49e-15 and 1.55e-14): the line may not get less accurate
FIT_EXPONENT_TOL = 2e-15
FIT_COEFFICIENT_TOL = 6e-15
FIT_RESIDUAL_TOL = 2e-14
# tan(alpha/2) across the amplification table's range; 2*atan(1e16) rounds to
# pi, so that row is swept at the largest alpha below pi, whose tan is 3.5e15
TANS = (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7,
        1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16)
# a relative error this small still prints the oracle's 12 significant digits
PRINTED_TOL = 5e-13
COLUMNS = {"d_eigen": "d_eigen", "d_weak_vs_eigen": "d_weak_vs_eigen",
           "d_expect_vs_eigen": "d_expect_vs_eigen",
           "p_postselect": "postselect_probability", "weakness": "weakness"}


def alpha_of(t):
    """2*atan(t), or the largest alpha below pi where that rounds to pi."""
    return min(2 * math.atan(t), math.nextafter(math.pi, 0.0))


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
        aw = weak_value(pre, post, obs).real
        moment = w * (vals - aw)
        kappa = np.sum(np.abs(moment)) / abs(np.sum(moment))
        mean = float(np.abs(pre.vector) ** 2 @ vals)
        partner = Observable.diagonal(range(d), [v + (aw - mean) for v in values])
        cfg = CouplingConfig(1.0, GRID[0], 1.0)
        rows = run_comparison([ScenarioSpec("weak", pre, obs, cfg, post, GRID),
                               ScenarioSpec("expect", pre, partner, cfg, None, GRID)])
        for eps, row in zip(GRID, rows):
            exact = mporacle.comparison_row(pre.amplitudes, post.amplitudes, values,
                                            pre.amplitudes, values, 1.0, 1.0, eps)
            err = mporacle.rel_error(row.d_weak_vs_eigen, exact["d_weak_vs_eigen"])
            assert err <= MOMENT_TOL * kappa, (eps, kappa)
        # the post-selection probability, from the same kernel call as the
        # shift angles, and the closed-form d_eigen, on a grid that straddles
        # the series switch (u / 2 delta)^2 = 0.02 of the shifted kicks
        kappa_w = np.sum(np.abs(w)) / abs(np.sum(w))
        for g, delta in ((1.0, 1.0), (1.7, 0.6)):
            switch = 2.0 * delta * math.sqrt(0.02) / (g * np.max(np.abs(vals - aw)))
            grid = sorted({*GRID, *(switch * f for f in (0.5, 0.999, 1.001, 2.0))})
            cfg = CouplingConfig(g, grid[0], delta)
            rows = run_comparison([ScenarioSpec("weak", pre, obs, cfg, post, grid),
                                   ScenarioSpec("expect", pre, partner, cfg, None, grid)])
            for row in rows:
                exact = mporacle.comparison_row(pre.amplitudes, post.amplitudes, values,
                                                pre.amplitudes, diagonal(partner), g, delta,
                                                row.epsilon)
                err = mporacle.rel_error(row.postselect_probability, exact["p_postselect"])
                assert err <= P_SELECTION_TOL * kappa_w, (g, delta, row.epsilon, kappa_w)
                err = mporacle.rel_error(row.d_eigen, exact["d_eigen"])
                assert err <= EIGEN_SELECTION_TOL * kappa_w, (g, delta, row.epsilon, kappa_w)


@pytest.fixture(scope="module")
def dense_oracle():
    """`perfbench/oracle.py`, which diagonalises dense observables; it is only
    read, so no bytecode is written there."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, perfbench)
    try:
        import oracle
        yield oracle
    finally:
        sys.path.remove(perfbench)
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize("d", range(2, 17))
def test_weak_value_of_dense_observables(dense_oracle, d):
    rng = np.random.default_rng([12, d])
    labels = tuple(range(d))
    for _ in range(2):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        obs = Observable(labels, (x + x.conj().T) / 2)
        pre, post = (make_state(zip(labels, amps))
                     for amps in rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d)))
        exact = dense_oracle.weak_value(pre.amplitudes, post.amplitudes,
                                        tuple(map(tuple, obs.matrix.tolist())))
        value = weak_value(pre, post, obs)
        err = float(abs(mp.mpc(value.real, value.imag) - exact) / abs(exact))
        terms = post.vector.conj() * pre.vector
        kappa = np.sum(np.abs(terms)) / abs(np.sum(terms))
        assert err <= WEAK_VALUE_TOL * kappa, (err, kappa)


def test_weakness_is_expm1_exactly():
    cfg = CouplingConfig(1.0, 1e-3, 1.0)
    (row,) = run_comparison([weak_value_one_scenario(cfg, [1e-3]),
                             expectation_scenario(cfg, [1e-3])])
    assert row.weakness == -math.expm1(-1e-6 / 8)
    assert f"{row.weakness:.12g}" == "1.24999992188e-07"


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 1e-1])
def test_amplified_mean_shift(eps):
    # against the oracle at the float tan each row prints; measured worst
    # 3.2e-16 (shift) and 2.8e-16 (p) over tan in [1e-8, 3.5e15], eps in
    # [1e-12, 3]
    errors = amplification_errors(CouplingConfig(1.0, eps, 1.0), TANS)
    assert max(errors) <= ULP_TOL, errors


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


def comparison_errors(cfg, grid):
    """Worst relative error of each numeric column of the canonical
    comparison over `grid`."""
    weak, expect = weak_value_one_scenario(cfg, grid), expectation_scenario(cfg, grid)
    worst = dict.fromkeys(COLUMNS, 0.0)
    for row in run_comparison([weak, expect]):
        exact = mporacle.comparison_row(weak.pre.amplitudes, weak.post.amplitudes,
                                        diagonal(weak.observable), expect.pre.amplitudes,
                                        diagonal(expect.observable), cfg.g, cfg.delta,
                                        row.epsilon)
        for column, attr in COLUMNS.items():
            err = mporacle.rel_error(getattr(row, attr), exact[column])
            worst[column] = max(worst[column], err)
    return worst


def amplification_errors(cfg, tans):
    """Relative error of the worse of the mean shift and post-selection
    probability of each row of `tans`, against the oracle at the row's own
    float tan(alpha/2)."""
    table = amplification_sweep(map(alpha_of, tans), cfg)
    errors = []
    for t, shift, p in zip(table.tan_half_alpha.tolist(), table.mean_shift_over_g_eps.tolist(),
                           table.postselect_probability.tolist()):
        exact = mporacle.amplification_row(t, cfg.g, cfg.delta, cfg.epsilon)
        errors.append(max(mporacle.rel_error(shift, exact["mean_shift"]),
                          mporacle.rel_error(p, exact["p_postselect"])))
    return errors


@pytest.mark.parametrize("g, delta", [(1.0, 1.0), (4.0, 0.5), (2.0 ** -100, 2.0 ** -200)])
def test_comparison_holds_12_digits_down_to_its_smallest_kick(g, delta):
    eps = COMPARISON_MIN_KICK * delta / g
    assert g * eps / delta == COMPARISON_MIN_KICK
    cfg = CouplingConfig(g, eps, delta)
    # measured worst 3.6e-15, in d_weak_vs_eigen
    errors = comparison_errors(cfg, (eps, 1e30 * eps, 1e-3 / g))
    assert max(errors.values()) <= PRINTED_TOL, errors
    below = math.nextafter(eps, 0.0)
    with pytest.raises(InvalidData, match=r"^g\*epsilon/delta is out of floating-point range"):
        comparison_errors(cfg, (below, eps))


@pytest.mark.parametrize("eps, delta", [
    (sys.float_info.min, 1.0), (2.0 ** -20, 2.0 ** -20 / sys.float_info.min),
    (1e-3, 1e-3 / (sys.float_info.min / 10)), (1e-312, 1e-10)])
def test_amplification_holds_12_digits_down_to_its_smallest_kick(eps, delta):
    # the closed form has no floor: at kicks g*eps/delta down to the smallest
    # normal float, the next float below it, a tenth of it, and a subnormal
    # g*eps, every row holds the oracle's digits to about one ulp
    errors = amplification_errors(CouplingConfig(1.0, eps, delta), TANS)
    # measured worst 1.5e-16
    assert max(errors) <= ULP_TOL, errors
    below = CouplingConfig(1.0, eps, math.nextafter(delta, math.inf))
    assert max(amplification_errors(below, TANS)) <= ULP_TOL


def test_kicks_past_the_smallest_lose_printed_digits(monkeypatch):
    # with the check switched off, a tenth of the floor, or a g*eps that is
    # not a normal float, misses the oracle's 12 digits
    monkeypatch.setattr(measurement, "_check_smallest_kick", lambda *args: None)
    tenth = CouplingConfig(1.0, COMPARISON_MIN_KICK / 10, 1.0)
    assert comparison_errors(tenth, (tenth.epsilon,))["d_weak_vs_eigen"] > PRINTED_TOL
    subnormal = CouplingConfig(1e-160, 1e-160, 1e-250)
    assert max(comparison_errors(subnormal, (1e-160,)).values()) > PRINTED_TOL


@pytest.mark.parametrize("eps", [1e-80, 1e-100, math.nextafter(COMPARISON_MIN_KICK, 0.0)])
def test_shift_angles_reject_kicks_below_the_floor(eps, monkeypatch):
    # the floor holds for every entry to the shift kernel: a sweep, which
    # checks its grid first, and a one-eps check, whether or not it follows
    # a sweep of the same selection
    def canonical(grid):
        cfg = CouplingConfig(1.0, grid[0], 1.0)
        return run_comparison([weak_value_one_scenario(cfg, grid),
                               expectation_scenario(cfg, grid)])

    exact = mporacle.comparison_row(WEAK_ONE_PRE.amplitudes, WEAK_ONE_POST.amplitudes,
                                    diagonal(WEAK_ONE_OBSERVABLE), WEAK_ONE_PRE.amplitudes,
                                    diagonal(WEAK_ONE_OBSERVABLE), 1.0, 1.0,
                                    COMPARISON_MIN_KICK)["d_weak_vs_eigen"]
    (at_floor,) = canonical((COMPARISON_MIN_KICK,))
    assert mporacle.rel_error(at_floor.d_weak_vs_eigen, exact) <= PRINTED_TOL  # measured 3.6e-15
    out_of_range = r"^g\*epsilon/delta is out of floating-point range"
    with pytest.raises(InvalidData, match=out_of_range):
        canonical((eps, 1e-3))
    # the same kicks out of order: the grid check names the order, so the
    # floor, which the sweep checks at the first eps, is never skipped
    with pytest.raises(InvalidData, match="^epsilon grid must be strictly increasing$"):
        canonical((1e-3, 1e-80))
    check = CouplingConfig(1.0, eps, 1.0)
    canonical((1e-3, 1e-2))
    with pytest.raises(InvalidData, match=out_of_range):
        effective_shift_check(WEAK_ONE_PRE, WEAK_ONE_POST, WEAK_ONE_OBSERVABLE, check)
    monkeypatch.setattr(measurement, "_sweep", None)
    with pytest.raises(InvalidData, match=out_of_range):
        effective_shift_check(WEAK_ONE_PRE, WEAK_ONE_POST, WEAK_ONE_OBSERVABLE, check)
