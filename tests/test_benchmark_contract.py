"""The wvsim calls the benchmark in `perfbench/` makes still work and stay accurate.

One operation of each in-process workload runs at seed 1 and is checked by
the workload's own oracle check. Every check must pass, and each quantity must
keep its oracle digits to within the `min_digits` bound of `BENCHMARK.json`
(0.2 digits) of its recorded seed-1 value. `perfbench/` is only read: no
bytecode is written there.
"""

import json
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
    "amplify_table": {"mean_shift": 11.433, "p_postselect": 11.043},
    "dense_observables": {"d_eigen": 15.526, "d_weak_vs_eigen": 14.548,
                          "d_expect_vs_eigen": 15.119, "p_postselect": 14.38},
}


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracle  # noqa: F401  (imported now, while no bytecode is written)
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


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
    # two pointer.angle calls per case, both in run_comparison (d_eigen and
    # d_weak_vs_eigen), and none in the per-eps effective_shift_check calls
    calls = []
    angle = pointer.angle
    monkeypatch.setattr(pointer, "angle", lambda *args: calls.append(1) or angle(*args))
    wl = workloads.WORKLOADS["dense_observables"](1, tmp_path)
    wl.prepare()
    out = wl.op(0)
    assert len(out) == 7
    assert sum(len(shifts) for _, shifts in out) == 252
    assert len(calls) == 14
