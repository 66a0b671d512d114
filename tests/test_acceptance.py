"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with -s to see them on success).

All tolerances are pinned here; nothing is deferred to later calibration.
"""

import math

import numpy as np

from wvsim import (
    CouplingConfig,
    Observable,
    amplification_sweep,
    bures_pure,
    effective_shift_check,
    expectation,
    fit_power_law,
    gaussian,
    grid_overlap,
    make_state,
    no_postselect_mixture,
    overlap,
    post_select,
    run_comparison,
    spin_amplification_scenario,
    weak_value,
    weak_value_one_scenario,
)
from wvsim.cli import main
from wvsim.scenarios import expectation_scenario

CFG = CouplingConfig(g=1.0, epsilon=1e-3, delta=1.0)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


def sweep_rows():
    return run_comparison([weak_value_one_scenario(CFG), expectation_scenario(CFG)])


def test_criterion_1_weak_value_identities():
    spec = weak_value_one_scenario(CFG)
    err_unit = abs(weak_value(spec.pre, spec.post, spec.observable) - 1.0)
    spin = spin_amplification_scenario(2 * math.atan(100.0), CFG)
    err_spin = abs(weak_value(spin.pre, spin.post, spin.observable) - 100.0)
    report(1, "weak-value identities", err_unit <= 1e-12 and err_spin <= 1e-9,
           f"|A_w-1|={err_unit:.2e} <= 1e-12, |(sigma_z)_w-100|={err_spin:.2e} <= 1e-9")


def test_criterion_2_eigenvalue_distance_law():
    fit = fit_power_law([(r.epsilon, r.d_eigen) for r in sweep_rows()])
    ok = abs(fit.exponent - 1.0) <= 0.05 and abs(fit.coefficient / 0.5 - 1.0) <= 0.02
    report(2, "eigenvalue distance law", ok,
           f"exponent={fit.exponent:.6f} (1 +- 0.05), coefficient={fit.coefficient:.6f} (0.5 +- 2%)")


def test_criterion_3_weak_vs_eigen_separation():
    fit = fit_power_law([(r.epsilon, r.d_weak_vs_eigen) for r in sweep_rows()])
    target = 1 / (2 * math.sqrt(2))
    ok = abs(fit.exponent - 2.0) <= 0.05 and abs(fit.coefficient / target - 1.0) <= 0.05
    report(3, "weak-vs-eigen separation", ok,
           f"exponent={fit.exponent:.6f} (2 +- 0.05), coefficient={fit.coefficient:.6f} "
           f"({target:.6f} +- 5%)")


def test_criterion_4_expectation_vs_eigen_distance():
    rows = sweep_rows()
    fit = fit_power_law([(r.epsilon, r.d_expect_vs_eigen) for r in rows])
    ok_fit = abs(fit.exponent - 1.0) <= 0.05 and abs(fit.coefficient / 0.5 - 1.0) <= 0.02
    worst = max(r.d_weak_vs_eigen / r.d_expect_vs_eigen for r in rows)
    report(4, "expectation-vs-eigen distance", ok_fit and worst < 0.05,
           f"exponent={fit.exponent:.6f}, coefficient={fit.coefficient:.6f}, "
           f"max d_weak/d_expect={worst:.4f} < 0.05")


def test_criterion_5_postselection_probability():
    spec = weak_value_one_scenario(CFG)
    cfg = CouplingConfig(g=1.0, epsilon=1e-4, delta=1.0)
    p = post_select(spec.pre, spec.post, spec.observable, cfg).probability
    report(5, "post-selection probability", abs(p - 0.1) <= 1e-4,
           f"p={p:.10f}, |p-0.1|={abs(p - 0.1):.2e} <= 1e-4")


def test_criterion_6_oracle_equivalence():
    weak = weak_value_one_scenario(CFG)
    expect = expectation_scenario(CFG)
    worst = 0.0
    for eps in weak.epsilon_grid:
        cfg = CouplingConfig(g=1.0, epsilon=eps, delta=1.0)
        phi0 = gaussian(0.0, 1.0)
        phi_e = gaussian(cfg.g * eps, 1.0)
        phi_w = post_select(weak.pre, weak.post, weak.observable, cfg).pointer
        rho = no_postselect_mixture(expect.pre, expect.observable, cfg)
        states = [phi0, phi_e, phi_w] + [comp for _, comp in rho.components]
        for i, a in enumerate(states):
            for b in states[i:]:
                closed = overlap(a, b)
                quad = grid_overlap(a, b, n=4096)
                worst = max(worst, abs(closed - quad) / abs(closed))
    report(6, "oracle equivalence", worst <= 1e-6,
           f"max relative closed-form vs quadrature deviation {worst:.2e} <= 1e-6")


def test_criterion_7_c_number_replacement():
    spec = weak_value_one_scenario(CFG)
    cfg = CouplingConfig(g=1.0, epsilon=1e-3, delta=1.0)
    check = effective_shift_check(spec.pre, spec.post, spec.observable, cfg)
    moved = bures_pure(gaussian(0.0, 1.0), check.actual)
    ratio = check.distance / moved
    report(7, "c-number replacement", ratio < 0.02,
           f"distance-to-ideal / distance-moved = {ratio:.2e} < 0.02")


def test_criterion_8_amplification():
    cfg = CouplingConfig(g=1.0, epsilon=1e-4, delta=1.0)
    targets = (1.0, 10.0, 100.0)
    rows = amplification_sweep([2 * math.atan(t) for t in targets], cfg)
    shift_err = max(abs(r.mean_shift_over_g_eps / t - 1.0) for r, t in zip(rows, targets))
    prob_err = max(abs(r.postselect_probability - 1 / (1 + t ** 2))
                   for r, t in zip(rows, targets))
    report(8, "amplification", shift_err <= 0.02 and prob_err <= 1e-3,
           f"max shift rel err {shift_err:.2e} <= 2%, max prob err {prob_err:.2e} <= 1e-3")


def test_criterion_9_property_suite(capsys):
    rng = np.random.default_rng(99)
    labels = tuple(range(-2, 3))
    a = Observable.diagonal(labels)
    parts = []

    # weak value degenerates to the expectation value when post = pre
    worst = 0.0
    for _ in range(50):
        state = make_state(list(zip(labels, rng.normal(size=5) + 1j * rng.normal(size=5))))
        worst = max(worst, abs(weak_value(state, state, a) - expectation(a, state)))
    parts.append(("post=pre degeneration", worst <= 1e-12))

    # invariance under phase/scale of either selection
    pre = make_state([(lab, z) for lab, z in zip(labels, (1, 2, 0, 1j, -1))])
    post = make_state([(lab, z) for lab, z in zip(labels, (1, -1, 1, 0, 2j))])
    base = weak_value(pre, post, a)
    worst = 0.0
    for z in (1j, -2.0, 0.3 + 0.4j):
        scaled_pre = make_state([(lab, z * amp) for lab, amp in zip(pre.labels, pre.amplitudes)])
        scaled_post = make_state([(lab, z * amp) for lab, amp in zip(post.labels, post.amplitudes)])
        worst = max(worst, abs(weak_value(scaled_pre, post, a) - base),
                    abs(weak_value(pre, scaled_post, a) - base))
    parts.append(("phase/scale invariance", worst <= 1e-12))

    # post-selection probabilities over an orthonormal basis sum to one
    cfg = CouplingConfig(1.0, 0.05, 1.0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    total = sum(post_select(pre, make_state(list(zip(labels, q[:, k]))), a, cfg).probability
                for k in range(5))
    parts.append(("completeness", abs(total - 1.0) <= 1e-10))

    # Bures angles stay inside [0, pi/2]
    rows = sweep_rows()
    in_range = all(0.0 <= d <= math.pi / 2 for r in rows
                   for d in (r.d_eigen, r.d_weak_vs_eigen, r.d_expect_vs_eigen))
    parts.append(("Bures bounds", in_range))

    # byte-identical CLI output across repeated runs
    main(["compare"])
    first = capsys.readouterr().out
    main(["compare"])
    second = capsys.readouterr().out
    main(["amplify", "--alpha-tan", "1,10,100"])
    amp_first = capsys.readouterr().out
    main(["amplify", "--alpha-tan", "1,10,100"])
    amp_second = capsys.readouterr().out
    parts.append(("CLI determinism", first == second and amp_first == amp_second))

    report(9, "property suite", all(flag for _, flag in parts),
           ", ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in parts))
