"""wvsim benchmark: one closed-loop caller, four workloads, oracle-checked output.

    python3 perfbench/run.py --workload compare_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; wvsim is imported from ./src. With --trace 0 the
last stdout line is the JSON result with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken from
probed operations paired with untraced ones. --smoke is a fast self-check of
the benchmark itself. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP in this process and every child it starts, set
# before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# One CPU for this process and its children, so the reference loop and the
# operation it normalises (a CLI child too) run on the same core.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10
INTERPRETER_REPEATS = 5
REF_ITERS = 3200
SMOKE_SECONDS = 1
# A relative error above 10% is a wrong formula, not lost rounding digits.
MIN_CORRECT_DIGITS = 1.0


def reference_loop() -> float:
    """Fixed Python-plus-small-numpy work, independent of wvsim; its wall time
    right before each operation normalises that operation for machine drift.
    It lasts about 20 ms so that, like an operation, it averages the machine's
    speed over a stretch instead of sampling one instant."""
    import numpy as np
    gc.disable()  # a collection owed to the operation's garbage is not reference work
    try:
        t0 = time.perf_counter()
        x = np.linspace(0.0, 1.0, 16)
        acc = 0.0
        for i in range(REF_ITERS):
            y = np.exp(-(x - i * 1e-3) ** 2)
            acc += float(y @ y) + math.sqrt(i + 1.0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


# ---------------------------------------------------------------- set-up time

def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms of the top-level numpy import and of all top-level wvsim
    imports, from `python -X importtime` output."""
    out = {"numpy_ms": 0.0, "wvsim_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.startswith("  "):
            continue  # nested import, already inside a top-level total
        name = name.strip()
        if name == "numpy":
            out["numpy_ms"] += int(cumulative) / 1e3
        elif name == "wvsim" or name.startswith("wvsim."):
            out["wvsim_ms"] += int(cumulative) / 1e3
    return out


def measure_setup(workload: str, seed: int, workdir: Path, trace: bool,
                  repeats: int) -> list[tuple[float, dict]]:
    """Per fresh interpreter: seconds from process start to wvsim imported and
    this workload's inputs built, and (with trace) its import breakdown."""
    from workloads import child_env
    samples = []
    for _ in range(repeats):
        argv = [sys.executable, *(["-X", "importtime"] if trace else []), __file__,
                "--workload", workload, "--seed", str(seed), "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        samples.append((float(proc.stdout.split()[-1]) - t0, parse_importtime(proc.stderr)))
    return samples


def interpreter_ms() -> float:
    """Median wall time of a bare `python -c pass`."""
    from workloads import child_env
    starts = []
    for _ in range(INTERPRETER_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    return statistics.median(starts) * 1e3


# ---------------------------------------------------------------- timed loop

def timed_loop(wl, seconds: float, tracer) -> dict:
    """Closed loop, one caller: reference loop, then one operation, until the
    window ends. The window is rounded up to whole cycles over the inputs, so
    every input weighs the same in every run and counts repeat exactly. With a
    tracer every operation is run a second time with the probes installed,
    right after the untraced one."""
    ops = []
    first: dict[int, object] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        idx = k % wl.n_inputs
        k += 1
        ref = reference_loop()
        t0 = time.perf_counter()
        try:
            out = wl.run_op(idx)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        op = {"idx": idx, "ref": ref, "time": dt, "error": error}
        if error is None:
            op["items"], op["rows"] = wl.items(idx, out)
            if idx not in first:
                first[idx] = out
            elif out != first[idx]:
                op["error"] = "output differs from the first run on the same input"
        if tracer is not None and op["error"] is None:
            t0 = time.perf_counter()
            traced = wl.run_op(idx, tracer)
            op["traced"] = time.perf_counter() - t0
            if traced != first[idx]:
                op["error"] = "traced output differs from the untraced output"
        ops.append(op)
        if k % wl.n_inputs == 0 and time.perf_counter() >= deadline:
            return {"ops": ops, "first": first}


def check_outputs(wl, run: dict) -> tuple[dict, set]:
    """Oracle digits per quantity over the first output of every input, and
    the inputs whose output broke an invariant or missed the oracle by more
    than rounding can explain."""
    digits: dict[str, list[float]] = {}
    broken = set()
    for idx, out in sorted(run["first"].items()):
        seen = {key: len(values) for key, values in digits.items()}
        bad = wl.check(idx, out, digits)
        wrong = any(d < MIN_CORRECT_DIGITS for key, values in digits.items()
                    for d in values[seen.get(key, 0):])
        if bad or wrong:
            broken.add(idx)
    return digits, broken


def low_eps_probe(seed: int) -> dict:
    """The comparison below eps ~ 2e-4, run outside the timed window because
    there it is known to fail: the weak-vs-eigen angle rounds to zero and the
    power-law fit rejects it."""
    import numpy as np
    import oracle
    from workloads import check_comparison_rows
    from wvsim import scenarios
    from wvsim.errors import InvalidData
    from wvsim.measurement import CouplingConfig
    rng = np.random.default_rng([seed, 5])
    grid = np.geomspace(10.0 ** rng.uniform(-6.0, -5.0), 10.0 ** rng.uniform(-4.0, -3.75), 8).tolist()
    cfg = CouplingConfig(1.0, float(grid[0]), 1.0)
    specs = (scenarios.weak_value_one_scenario(cfg, grid), scenarios.expectation_scenario(cfg, grid))
    rows = scenarios.run_comparison(specs)
    digits: dict[str, list[float]] = {}
    check_comparison_rows(rows, *specs, range(len(rows)), digits)
    try:
        scenarios.fit_power_law([(r.epsilon, r.d_weak_vs_eigen) for r in rows])
        failed = 0.0
    except InvalidData:
        failed = 1.0
    return {"defect.low_eps.fit_failed_frac": failed,
            "defect.low_eps.d_weak_digits": min(digits["d_weak_vs_eigen"], default=oracle.MAX_DIGITS)}


# ---------------------------------------------------------------- per-layer metrics

TIME_METRICS = {
    # metric: (probe names, per "call", per workload "row", or "self_row":
    # self time per row the probed function returned)
    "scenarios.run_comparison.self_us_per_row": (("scenarios.run_comparison",), "self_row"),
    "scenarios.fit_power_law.us_per_call": (("scenarios.fit_power_law",), "call"),
    "scenarios.amplification_sweep.self_us_per_row": (("scenarios.amplification_sweep",), "self_row"),
    "scenarios.setup.us_per_scenario": (("scenarios.weak_value_one_scenario",
                                         "scenarios.expectation_scenario",
                                         "scenarios.spin_amplification_scenario"), "call"),
    "measurement.couple.us_per_call": (("measurement.couple",), "call"),
    "measurement.post_select.us_per_call": (("measurement.post_select",), "call"),
    "measurement.no_postselect_mixture.us_per_call": (("measurement.no_postselect_mixture",), "call"),
    "measurement.weakness_metric.us_per_call": (("measurement.weakness_metric",), "call"),
    "measurement.postselect_probability_drift.us_per_call": (
        ("measurement.postselect_probability_drift",), "call"),
    "measurement.effective_shift_check.us_per_call": (("measurement.effective_shift_check",), "call"),
    "pointer.bures.us_per_row": (("pointer.bures_pure", "pointer.bures_mixed"), "row"),
    "pointer.mean_position.us_per_call": (("pointer.mean_position",), "call"),
    "qstate.make_state.us_per_call": (("qstate.make_state",), "call"),
    "qstate.Observable.us_per_call": (("qstate.Observable",), "call"),
}


def time_metric(tracer, names, kind: str, rows: int) -> float | None:
    calls = sum(tracer.calls[n] for n in names)
    if not calls:
        return None
    if kind == "self_row":
        produced = sum(tracer.rows[n] for n in names)
        return sum(tracer.self_time[n] for n in names) / produced * 1e6 if produced else None
    seconds = sum(tracer.total[n] for n in names)
    return seconds / (rows if kind == "row" else calls) * 1e6


def cli_metrics(tracer) -> dict | None:
    """Per-invocation parse / compute / format split of `wvsim.cli.main`:
    compute is time in other wvsim layers called from the CLI, format is time
    in the output helpers, parse is the rest of main."""
    invocations = tracer.calls["cli.main"]
    if not invocations:
        return None
    from probes import CLI_FORMAT
    compute = sum(v for k, v in tracer.cross.items() if k.startswith("cli>"))
    fmt = sum(tracer.total[n] for n in CLI_FORMAT)
    ms = 1e3 / invocations
    return {"cli.parse_ms": (tracer.total["cli.main"] - compute - fmt) * ms,
            "cli.compute_ms": compute * ms, "cli.format_ms": fmt * ms}


def layer_metrics(tracer, coverage, rows: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the workload's traced operations. A timing whose
    layer the workload never calls is taken from the coverage pass instead,
    so that it still reads a measured time; those names are returned."""
    out, from_coverage = {}, []
    for metric, (names, kind) in TIME_METRICS.items():
        value = time_metric(tracer, names, kind, rows)
        if value is None:
            value = time_metric(coverage, names, kind, coverage_rows(coverage)) or 0.0
            from_coverage.append(metric)
        out[metric] = value
    cli = cli_metrics(tracer)
    if cli is None:
        cli = cli_metrics(coverage) or dict.fromkeys(("cli.parse_ms", "cli.compute_ms", "cli.format_ms"), 0.0)
        from_coverage.extend(cli)
    out.update(cli)
    out["measurement.couple.calls_per_row"] = tracer.calls["measurement.couple"] / rows
    out["pointer.normalize_terms.calls_per_row"] = tracer.calls["pointer.normalize_terms"] / rows
    out["measurement.eigh.calls_per_row"] = tracer.eigh_calls / rows
    out["measurement.eigh.useful_frac"] = tracer.eigh_distinct / max(tracer.eigh_calls, 1)
    return out, from_coverage


def coverage_rows(tracer) -> int:
    return max(1, tracer.rows["scenarios.run_comparison"] + tracer.rows["scenarios.amplification_sweep"]
               + tracer.calls["measurement.effective_shift_check"])


def coverage_pass(seed: int, workdir: Path):
    """One in-process pass over every CLI variant of this seed plus one dense
    effective-shift check: together they call every probed layer."""
    from probes import Tracer
    from workloads import CliOneshot, DenseObservables
    import wvsim.cli
    cli = CliOneshot(seed, workdir)
    cli.prepare()
    dense = DenseObservables(seed, workdir)
    tracer = Tracer()
    cwd = os.getcwd()
    os.chdir(workdir)  # config paths in the CLI variants are relative
    try:
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            for variant in cli.inputs["variants"]:
                wvsim.cli.main(variant["argv"])
            weak, _ = dense.specs(0)
            wvsim.measurement.effective_shift_check(weak.pre, weak.post, weak.observable, weak.cfg)
    finally:
        os.chdir(cwd)
    return tracer


# ---------------------------------------------------------------- one run

def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Returns (result line, extra end-to-end figures, run metadata)."""
    import numpy as np
    from probes import Tracer
    from workloads import WORKLOADS
    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as tmp:
        workdir = Path(tmp)
        # Half the set-up samples are taken before the window and half after,
        # so their median spans the run rather than one moment of it.
        setups = measure_setup(workload, seed, workdir, trace, SETUP_REPEATS // 2)
        wl = WORKLOADS[workload](seed, workdir)
        wl.prepare()
        tracer = Tracer() if trace else None
        loop = timed_loop(wl, seconds, tracer)
        rss_kib = getattr(wl, "peak_rss_kib", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups += measure_setup(workload, seed, workdir, trace, SETUP_REPEATS - SETUP_REPEATS // 2)
        digits, broken = check_outputs(wl, loop)
        probe = low_eps_probe(seed)
        coverage = coverage_pass(seed, workdir) if trace else None

    ops = loop["ops"]
    failed = [op for op in ops if op["error"] is not None or op["idx"] in broken]
    done = [op for op in ops if op["error"] is None]
    times = [op["time"] for op in ops]
    import oracle
    min_digits = min((min(v) for v in digits.values()), default=oracle.MAX_DIGITS)
    e2e = {
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "items_per_s": (sum(op["items"] for op in done) / sum(times), "items/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (p90(times) * 1e3, "ms"),
        "op_p50_norm": (statistics.median(op["time"] / op["ref"] for op in ops), "ratio"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "min_digits": (min_digits, "digits"),
        "failed_frac": (len(failed) / len(ops), "ratio"),
    }
    refs = [op["ref"] for op in ops]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": len(ops), "items": sum(op["items"] for op in done),
        "ref_loop_p50_ms": statistics.median(refs) * 1e3, "ref_loop_iqr_frac": quartile_spread(refs),
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": __import__("mpmath").__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "cpu": CPU, "commit": git_commit(),
        "errors": sorted({op["error"] for op in ops if op["error"]})[:5],
    }
    if not trace:
        metrics = {k: v for k, v in e2e.items() if k in declared("end_to_end")}
    else:
        rows = sum(op["rows"] for op in done) or 1
        layers, from_coverage = layer_metrics(tracer, coverage, rows)
        for key in ("numpy_ms", "wvsim_ms"):
            layers[f"import.{key}"] = statistics.median(i[key] for _, i in setups)
        layers["import.interpreter_ms"] = interpreter_ms()
        for key in ("d_eigen", "d_weak_vs_eigen", "d_expect_vs_eigen", "p_postselect", "mean_shift"):
            layers[f"digits.{key}"] = min(digits.get(key, []), default=oracle.MAX_DIGITS)
        layers.update(probe)
        traced = [op["traced"] / op["time"] for op in done if "traced" in op]
        layers["trace.overhead_frac"] = statistics.median(traced) - 1.0 if traced else 0.0
        units = {m["name"]: m["unit"] for m in declared("per_layer").values()}
        metrics = {k: (layers[k], units[k]) for k in units}
        meta["from_coverage"] = from_coverage
        meta["absent"] = tracer.absent
    result = {
        "correct": not failed and bool(digits),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, e2e, meta


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[section]}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def report(result: dict, e2e: dict, meta: dict) -> None:
    print(f"# {meta['workload']} seed={meta['seed']} seconds={meta['seconds']} "
          f"trace={meta['trace']}: {meta['ops']} ops, {meta['items']} items")
    if not meta["trace"]:
        for name, (value, unit) in e2e.items():
            print(f"  {name:<14} {value:.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


# ---------------------------------------------------------------- smoke mode

def smoke() -> int:
    """Fast self-check of the benchmark; prints one PASS/FAIL line per check."""
    from workloads import WORKLOADS, check_comparison_rows
    from wvsim import scenarios
    from wvsim.measurement import CouplingConfig
    checks = []
    wanted = {**declared("end_to_end"), **declared("per_layer")}
    counts = [m["name"] for m in declared("per_layer").values() if m["unit"] == "count"]
    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            plain, _, _ = run(name, 1, SMOKE_SECONDS, trace=False)
            traced, _, _ = run(name, 1, SMOKE_SECONDS, trace=True)
            again, _, _ = run(name, 1, SMOKE_SECONDS, trace=True)
        emitted = {k: v["unit"] for r in (plain, traced) for k, v in r["metrics"].items()}
        checks.append((f"{name}: every declared metric emitted with its unit",
                       all(emitted.get(k) == m["unit"] for k, m in wanted.items())))
        checks.append((f"{name}: count metrics repeat across two traced runs",
                       all(traced["metrics"][k] == again["metrics"][k] for k in counts)))
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
            a = json.dumps(WORKLOADS[name](7, Path(tmp)).inputs, sort_keys=True)
            b = json.dumps(WORKLOADS[name](7, Path(tmp)).inputs, sort_keys=True)
        checks.append((f"{name}: one seed rebuilds byte-identical inputs", a == b))
    cfg = CouplingConfig(1.0, 1e-2, 1.0)
    digits: dict[str, list[float]] = {}
    specs = (scenarios.weak_value_one_scenario(cfg), scenarios.expectation_scenario(cfg))
    check_comparison_rows(scenarios.run_comparison(specs, [1e-2]), *specs, [0], digits)
    checks.append(("oracle and wvsim agree on d_eigen at eps=1e-2 to >= 11 digits",
                   digits["d_eigen"][0] >= 11.0))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------- entry point

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check the benchmark")
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "wvsim" / "__init__.py").is_file():
        print(f"perfbench: no wvsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported first, so -X importtime times it apart from wvsim)
    import wvsim
    if Path(wvsim.__file__).resolve().parent != SRC / "wvsim":
        print(f"perfbench: imported wvsim from {wvsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.smoke:
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_only:
        import wvsim.cli  # noqa: F401  (the set-up cost covers the whole package)
        wl = WORKLOADS[args.workload](args.seed, Path(args.setup_only))
        wl.prepare()
        print(time.perf_counter())
        return 0
    report(*run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
