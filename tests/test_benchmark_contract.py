"""The wvsim calls the benchmark in `perfbench/` makes still work and stay accurate.

One operation of each in-process workload runs at seed 1 and is checked by
the workload's own oracle check. Every check must pass, and each quantity must
keep its oracle digits to within the `min_digits` bound of `BENCHMARK.json`
(0.2 digits) of its recorded seed-1 value. The traced run's coverage pass
finds every name the benchmark probes, apart from a fixed list of stale ones.
`perfbench/` is only read: no bytecode is written there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wvsim import pointer, scenarios
from wvsim.measurement import CouplingConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
MIN_DIGITS_BOUND = next(m["bound"] for m in END_TO_END if m["name"] == "min_digits")
SEED_1_DIGITS = {
    "compare_sweep": {"d_eigen": 15.629, "d_weak_vs_eigen": 14.988,
                      "d_expect_vs_eigen": 15.584, "p_postselect": 15.367},
    "amplify_table": {"mean_shift": 15.7, "p_postselect": 15.533},
    "dense_observables": {"d_eigen": 15.526, "d_weak_vs_eigen": 14.548,
                          "d_expect_vs_eigen": 15.119, "p_postselect": 14.38},
}
# names in perfbench/probes.py's LAYERS that no wvsim module defines any more
STALE_PROBES = ["measurement.couple", "measurement.post_select",
                "measurement.no_postselect_mixture", "measurement.weakness_metric",
                "measurement.postselect_probability_drift", "pointer.bures_pure",
                "pointer.bures_mixed", "pointer.normalize_terms", "pointer.mean_position"]


@pytest.mark.parametrize("name", sorted(SEED_1_DIGITS))
def test_workload_operation_passes_its_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.prepare()
    out = wl.op(0)
    digits = {}
    assert wl.check(0, out, digits) == 0
    assert digits.keys() == SEED_1_DIGITS[name].keys()
    for key, floor in SEED_1_DIGITS[name].items():
        assert min(digits[key]) >= floor - MIN_DIGITS_BOUND, key


def test_amplify_operation_builds_no_rows(workloads, tmp_path, monkeypatch):
    # the timed operation yields the table's columns; its rows are built
    # only when the untimed check reads them, and then have the same digits
    calls = []
    row = scenarios._amplification_row
    monkeypatch.setattr(scenarios, "_amplification_row",
                        lambda values: calls.append(1) or row(values))
    wl = workloads.WORKLOADS["amplify_table"](1, tmp_path)
    out = wl.op(0)
    assert calls == []
    digits = {}
    assert wl.check(0, out, digits) == 0
    assert len(calls) == len(out) == workloads.AMPLIFY_ROWS
    for key, floor in SEED_1_DIGITS["amplify_table"].items():
        assert min(digits[key]) >= floor - MIN_DIGITS_BOUND, key


@pytest.mark.parametrize("name", sorted(SEED_1_DIGITS))
def test_repeated_operation_passes_the_repeat_check(workloads, name, tmp_path):
    # perfbench/run.py fails an operation whose output `!=` the first output
    # on the same input, so a repeat must compare equal under that operator
    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.prepare()
    first = wl.op(0)
    assert not wl.op(0) != first


def test_amplify_output_with_one_column_changed_fails_the_repeat_check(workloads, tmp_path):
    wl = workloads.WORKLOADS["amplify_table"](1, tmp_path)
    first = wl.op(0)
    for changed in scenarios.AmplificationRow._fields:
        columns = [getattr(first, name) for name in scenarios.AmplificationRow._fields]
        k = scenarios.AmplificationRow._fields.index(changed)
        columns[k] = columns[k].copy()
        columns[k][-1] = not columns[k][-1] if columns[k].dtype == bool else columns[k][-1] * 2
        assert scenarios.AmplificationTable(*columns) != first, changed


def test_smoke_comparison_with_an_explicit_grid(workloads):
    # the call `perfbench/run.py --smoke` makes, with its pass condition
    cfg = CouplingConfig(1.0, 1e-2, 1.0)
    specs = (scenarios.weak_value_one_scenario(cfg), scenarios.expectation_scenario(cfg))
    digits = {}
    rows = scenarios.run_comparison(specs, [1e-2])
    assert workloads.check_comparison_rows(rows, *specs, [0], digits) == 0
    assert [r.epsilon for r in rows] == [1e-2]
    assert digits["d_eigen"][0] >= 11.0


def test_dense_operation_runs_the_shift_kernel_once_per_sweep(workloads, tmp_path, monkeypatch):
    # one pointer kernel call per case, in run_comparison (d_weak_vs_eigen and
    # p_postselect together), and none in the per-eps effective_shift_check calls
    calls = []
    kernel = pointer.angle_and_norm
    monkeypatch.setattr(pointer, "angle_and_norm",
                        lambda *args: calls.append(1) or kernel(*args))
    wl = workloads.WORKLOADS["dense_observables"](1, tmp_path)
    wl.prepare()
    weak, expect = wl.specs(0)
    scenarios.run_comparison([weak, expect])
    assert len(calls) == 1
    calls.clear()
    out = wl.op(0)
    assert len(out) == 7
    assert sum(len(shifts) for _, shifts in out) == 252
    assert len(calls) == 7


def test_compare_operation_runs_the_shift_kernel_once(workloads, tmp_path, monkeypatch):
    # the comparison's real selections go through the one kernel entry: one
    # pointer kernel call per operation, for d_weak_vs_eigen and p_postselect
    calls = []
    kernel = pointer.angle_and_norm
    monkeypatch.setattr(pointer, "angle_and_norm",
                        lambda *args: calls.append(1) or kernel(*args))
    wl = workloads.WORKLOADS["compare_sweep"](1, tmp_path)
    for ops in (1, 2):
        rows, fits = wl.op(0)
        assert len(rows) == workloads.COMPARE_POINTS and len(fits) == 3
        assert len(calls) == ops


def test_coverage_pass_finds_every_probe_but_the_stale_ones(tmp_path):
    # in a child process, because importing perfbench/run.py pins its process
    # to one CPU and sets the BLAS thread variables
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import run; print(json.dumps(run.coverage_pass(1, Path(sys.argv[2])).absent))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-B", "-c", code, str(PERFBENCH), str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == STALE_PROBES
