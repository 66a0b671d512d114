"""The four benchmark workloads: seeded inputs, one operation, output checks.

Each workload builds all of its inputs from the seed before timing starts
(`inputs` is plain JSON, so one seed must rebuild it byte for byte), runs one
closed-loop operation per `run_op` call, and checks a finished operation's
output with `check`, which returns oracle digits per quantity and the number
of broken invariants (non-finite value, probability outside [0, 1], Bures
angle outside [0, pi/2]).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

# wvsim functions are called through their modules, so that the probes of a
# traced run, which rebind module attributes, see every call.
from wvsim import measurement, qstate, scenarios
from wvsim.measurement import CouplingConfig
from wvsim.qstate import Observable

COMPARE_POINTS = 640
COMPARE_LO = 1e-3
COMPARE_FIXED = 64
AMPLIFY_OPS = 8
AMPLIFY_ROWS = 200
DENSE_DIMS = (2, 3, 4, 6, 8, 12, 16)
DENSE_POINTS = 36
DENSE_CHECKED = 6
DENSE_SPREAD = 0.5
DENSE_WEAK_VALUE = 1.0 + 0.5j
CHILD_TIMEOUT_S = 60.0
ANGLE_KEYS = ("d_eigen", "d_weak_vs_eigen", "d_expect_vs_eigen")


def strata_grid(rng, lo: float, hi: float, n: int) -> list[float]:
    """n increasing values on [lo, hi]: both ends pinned, so the extremes are
    the same for every seed, and each inner point drawn log-uniformly within
    half a step of its place on the even log grid."""
    span = math.log(hi / lo)
    inner = [lo * math.exp(span * (k + rng.uniform() - 0.5) / (n - 1)) for k in range(1, n - 1)]
    return [lo, *inner, hi]


def _matrix(obs_or_array) -> tuple:
    m = getattr(obs_or_array, "matrix", obs_or_array)
    return tuple(tuple(complex(z) for z in row) for row in np.asarray(m))


def _broken(**values) -> int:
    """Count invariant violations among named output values."""
    bad = 0
    for key, v in values.items():
        if not math.isfinite(v):
            bad += 1
        elif key.startswith("d_") and not 0.0 <= v <= math.pi / 2:
            bad += 1
        elif key == "p_postselect" and not 0.0 <= v <= 1.0:
            bad += 1
    return bad


def check_comparison_rows(rows, weak, expect, indices, digits, shifts=None) -> int:
    """Invariant violations in one run_comparison table, and oracle digits for
    the selected rows. `shifts` are effective-shift-check distances on the
    same grid, which measure the same angle as d_weak_vs_eigen."""
    import oracle  # mpmath loads only after the timed window
    wanted = set(indices)
    bad = 0
    for i, row in enumerate(rows):
        got = {"d_eigen": row.d_eigen, "d_weak_vs_eigen": row.d_weak_vs_eigen,
               "d_expect_vs_eigen": row.d_expect_vs_eigen,
               "p_postselect": row.postselect_probability}
        bad += _broken(**got)
        if i not in wanted:
            continue
        exact = oracle.comparison_row(
            weak.pre.amplitudes, weak.post.amplitudes, _matrix(weak.observable),
            expect.pre.amplitudes, _matrix(expect.observable),
            weak.cfg.g, weak.cfg.delta, row.epsilon)
        for key, value in got.items():
            digits.setdefault(key, []).append(oracle.digits(value, exact[key]))
        if shifts is not None:
            digits["d_weak_vs_eigen"].append(
                oracle.digits(shifts[i], exact["d_weak_vs_eigen"]))
    return bad


class InProcess:
    """A workload whose operations are calls into wvsim in this process."""

    def prepare(self) -> None:
        """Nothing to write before timing starts."""

    def run_op(self, idx: int, tracer=None):
        if tracer is None:
            return self.op(idx)
        with tracer:
            return self.op(idx)


class CompareSweep(InProcess):
    """`run_comparison` on the canonical weak-value-one and expectation
    scenarios over one seeded log grid, then `fit_power_law` on all three
    distance columns."""

    name = "compare_sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        hi = 10.0 ** rng.uniform(-2.0, -1.0)
        # The lowest octave holds the least-accurate rows, which set
        # min_digits; it is the same for every seed so that min_digits is too.
        low = np.geomspace(COMPARE_LO, 2 * COMPARE_LO, COMPARE_FIXED, endpoint=False).tolist()
        grid = low + strata_grid(rng, 2 * COMPARE_LO, hi, COMPARE_POINTS - COMPARE_FIXED)
        self.inputs = {"g": 1.0, "delta": 1.0, "grid": grid}
        self.n_inputs = 1

    def _specs(self):
        cfg = CouplingConfig(self.inputs["g"], self.inputs["grid"][0], self.inputs["delta"])
        grid = self.inputs["grid"]
        return (scenarios.weak_value_one_scenario(cfg, grid),
                scenarios.expectation_scenario(cfg, grid))

    def op(self, idx: int):
        rows = scenarios.run_comparison(self._specs())
        fits = [scenarios.fit_power_law([(r.epsilon, getattr(r, key)) for r in rows])
                for key in ANGLE_KEYS]
        return rows, fits

    def items(self, idx: int, out) -> tuple[int, int]:
        return len(out[0]), len(out[0])

    def check(self, idx: int, out, digits: dict) -> int:
        rows, fits = out
        weak, expect = self._specs()
        bad = sum(not all(map(math.isfinite, (f.exponent, f.coefficient, f.residual)))
                  for f in fits)
        return bad + check_comparison_rows(rows, weak, expect, range(len(rows)), digits)


class AmplifyTable(InProcess):
    """`amplification_sweep` over seeded tan(alpha/2) values in [1, 1e5], one
    seeded epsilon in [1e-5, 1e-2] per input, so weak_flag flips both ways."""

    name = "amplify_table"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        eps = strata_grid(rng, 1e-5, 1e-2, AMPLIFY_OPS)
        self.inputs = {"g": 1.0, "delta": 1.0, "ops": [
            {"eps": e, "tans": strata_grid(rng, 1.0, 1e5, AMPLIFY_ROWS)} for e in eps]}
        self.n_inputs = AMPLIFY_OPS

    def _cfg(self, idx: int) -> CouplingConfig:
        return CouplingConfig(self.inputs["g"], self.inputs["ops"][idx]["eps"],
                              self.inputs["delta"])

    def op(self, idx: int):
        alphas = [2.0 * math.atan(t) for t in self.inputs["ops"][idx]["tans"]]
        return scenarios.amplification_sweep(alphas, self._cfg(idx))

    def items(self, idx: int, out) -> tuple[int, int]:
        return len(out), len(out)

    def check(self, idx: int, out, digits: dict) -> int:
        import oracle
        cfg = self._cfg(idx)
        bad = 0
        for t, row in zip(self.inputs["ops"][idx]["tans"], out):
            bad += _broken(mean_shift=row.mean_shift_over_g_eps,
                           p_postselect=row.postselect_probability)
            spec = scenarios.spin_amplification_scenario(2.0 * math.atan(t), cfg)
            exact = oracle.amplify_row(spec.pre.amplitudes, spec.post.amplitudes,
                                       _matrix(spec.observable), cfg.g, cfg.delta, cfg.epsilon)
            digits.setdefault("mean_shift", []).append(
                oracle.digits(row.mean_shift_over_g_eps, exact["mean_shift"]))
            digits.setdefault("p_postselect", []).append(
                oracle.digits(row.postselect_probability, exact["p_postselect"]))
        return bad


def _pairs(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


class DenseObservables(InProcess):
    """Seeded non-diagonal Hermitian observables of dimension 2 to 16 with
    complex selections, through `run_comparison` and `effective_shift_check`.
    One operation runs every dimension, so all operations do the same work.

    Each observable is shifted and scaled so that the pre-selected state has
    mean 0 and spread DENSE_SPREAD, and the post-selection is drawn from the
    states that give weak value DENSE_WEAK_VALUE. Every case then has the same
    leading-order pointer angles, so the digits the oracle finds depend on
    rounding, not on how close a random case came to a degenerate one. The
    expectation partner is the same matrix plus Re(A_w) times the identity.
    """

    name = "dense_observables"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])

        def unit(d):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            return v / np.linalg.norm(v)

        cases = []
        for d in DENSE_DIMS:
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = (x + x.conj().T) / 2
            pre = unit(d)
            mean = np.vdot(pre, a @ pre).real
            a -= mean * np.eye(d)
            a *= DENSE_SPREAD / np.linalg.norm(a @ pre)
            # <post|(A - A_w)|pre> = 0 fixes the weak value; keep |<post|pre>|
            # away from 0 so the selection is not nearly orthogonal.
            u = (a - DENSE_WEAK_VALUE * np.eye(d)) @ pre
            while True:
                post = unit(d)
                post -= u * (np.vdot(u, post) / np.vdot(u, u))
                post /= np.linalg.norm(post)
                if abs(np.vdot(post, pre)) >= 0.2:
                    break
            partner = a + DENSE_WEAK_VALUE.real * np.eye(d)
            cases.append({"matrix": [_pairs(r) for r in a],
                          "partner": [_pairs(r) for r in partner],
                          "pre": _pairs(pre), "post": _pairs(post),
                          "grid": strata_grid(rng, 1e-3, 1e-1, DENSE_POINTS),
                          "checked": sorted(rng.choice(DENSE_POINTS, DENSE_CHECKED,
                                                       replace=False).tolist())})
        self.inputs = {"g": 1.0, "delta": 1.0, "cases": cases}
        self.n_inputs = 1

    def specs(self, k: int):
        """Weak-value and expectation scenarios of case k, built from the raw
        arrays the way a caller would."""
        case = self.inputs["cases"][k]
        labels = tuple(range(len(case["pre"])))
        pre = qstate.make_state(zip(labels, _complex(case["pre"])))
        post = qstate.make_state(zip(labels, _complex(case["post"])))
        obs = Observable(labels, np.array([_complex(r) for r in case["matrix"]]))
        partner = Observable(labels, np.array([_complex(r) for r in case["partner"]]))
        cfg = CouplingConfig(self.inputs["g"], case["grid"][0], self.inputs["delta"])
        return (scenarios.ScenarioSpec("dense_weak", pre, obs, cfg, post, case["grid"]),
                scenarios.ScenarioSpec("dense_expect", pre, partner, cfg, None, case["grid"]))

    def op(self, idx: int):
        out = []
        for k in range(len(self.inputs["cases"])):
            weak, expect = self.specs(k)
            rows = scenarios.run_comparison([weak, expect])
            shifts = [measurement.effective_shift_check(weak.pre, weak.post, weak.observable,
                                                        replace(weak.cfg, epsilon=e)).distance
                      for e in weak.epsilon_grid]
            out.append((rows, shifts))
        return out

    def items(self, idx: int, out) -> tuple[int, int]:
        n = sum(len(rows) for rows, _ in out)
        return n, n

    def check(self, idx: int, out, digits: dict) -> int:
        bad = 0
        for k, (rows, shifts) in enumerate(out):
            weak, expect = self.specs(k)
            # The lowest epsilons carry the least-accurate angles, so they are
            # always checked; a seeded sample covers the rest.
            indices = {0, 1, *self.inputs["cases"][k]["checked"]}
            bad += check_comparison_rows(rows, weak, expect, indices, digits, shifts)
            bad += sum(_broken(d_weak_vs_eigen=s) for s in shifts)
        return bad


class CliOneshot:
    """One `python -m wvsim.cli` process per operation, cycling through the
    subcommands with seeded grids, output formats and config files."""

    name = "cli_oneshot"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.workdir = workdir

        def grid_spec():
            lo = 10.0 ** rng.uniform(math.log10(2e-3), -2.0)
            hi = lo * 10.0 ** rng.uniform(0.5, math.log10(0.1 / lo))
            return f"{lo:.6g}:{hi:.6g}:{int(rng.integers(8, 33))}:log"

        tans = ",".join(f"{t:.6g}" for t in sorted(10.0 ** rng.uniform(0.0, 5.0, 6)))
        variants = [
            {"argv": ["compare"]},
            {"argv": ["compare", "--eps-grid", grid_spec()]},
            {"argv": ["amplify", "--alpha-tan", "1,10,100", "--eps", "1e-4"]},
            {"argv": ["weak-value", "--pre=-1:1,0:1", "--post=-1:1,0:-2", "--obs", "diag"]},
            {"argv": ["compare", "--format", "pretty", "--eps-grid", grid_spec()]},
            {"argv": ["compare"], "config": {
                "g": round(rng.uniform(1.0, 2.0), 4), "delta": round(rng.uniform(0.5, 1.0), 4),
                "eps-grid": grid_spec()}},
            {"argv": ["amplify", "--format", "pretty"], "config": {
                "alpha-tan": tans, "eps": float(f"{10.0 ** rng.uniform(-5.0, -3.0):.4g}")}},
        ]
        for k, v in enumerate(variants):
            if "config" in v:
                v["argv"] = v["argv"] + ["--config", f"config{k}.json"]
        self.inputs = {"variants": variants}
        self.n_inputs = len(variants)
        self.peak_rss_kib = 0

    def prepare(self) -> None:
        for k, v in enumerate(self.inputs["variants"]):
            if "config" in v:
                (self.workdir / f"config{k}.json").write_text(json.dumps(v["config"]))

    def run_op(self, idx: int, tracer=None):
        argv = self.inputs["variants"][idx]["argv"]
        if tracer is None:
            return run_child([sys.executable, "-m", "wvsim.cli", *argv], self.workdir, self)
        state = self.workdir / "trace.json"
        out = run_child([sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                         str(state), *argv], self.workdir, self)
        tracer.merge(json.loads(state.read_text()))
        return out

    def items(self, idx: int, out) -> tuple[int, int]:
        return 1, max(1, len(_table(out)[1]))

    def check(self, idx: int, out, digits: dict) -> int:
        import oracle
        variant = self.inputs["variants"][idx]
        argv, config = variant["argv"], variant.get("config", {})
        if argv[0] == "weak-value":
            re_s, sign, im_s = out.split()
            got = complex(float(re_s), float(im_s.rstrip("i")) * (1 if sign == "+" else -1))
            pre = qstate.make_state([(-1, 1), (0, 1)])
            post = qstate.make_state([(-1, 1), (0, -2)])
            exact = oracle.weak_value(pre.amplitudes, post.amplitudes,
                                      _matrix(Observable.diagonal((-1, 0)).matrix))
            digits.setdefault("weak_value", []).append(oracle.digits(got, exact))
            return _broken(weak_value=abs(got))
        header, rows = _table(out)
        g, delta = float(config.get("g", 1.0)), float(config.get("delta", 1.0))
        bad = 0
        if argv[0] == "amplify":
            eps = float(config.get("eps", _flag(argv, "--eps", "1e-4")))
            cfg = CouplingConfig(g, eps, delta)
            tans = [float(t) for t in config.get("alpha-tan", _flag(argv, "--alpha-tan", "")).split(",")]
            bad += len(rows) != len(tans)
            for t, row in zip(tans, rows):
                values = dict(zip(header, row))
                spec = scenarios.spin_amplification_scenario(2.0 * math.atan(t), cfg)
                exact = oracle.amplify_row(spec.pre.amplitudes, spec.post.amplitudes,
                                           _matrix(spec.observable), g, delta, eps)
                got = {"mean_shift": float(values["mean_shift_over_g_eps"]),
                       "p_postselect": float(values["p_postselect"])}
                bad += _broken(**got)
                for key, value in got.items():
                    digits.setdefault(key, []).append(oracle.digits(value, exact[key]))
            return bad
        spec = config.get("eps-grid", _flag(argv, "--eps-grid", "1e-3:1e-2:8:log"))
        lo, hi, n, _ = spec.split(":")
        grid = np.geomspace(float(lo), float(hi), int(n))
        cfg = CouplingConfig(g, float(grid[0]), delta)
        weak = scenarios.weak_value_one_scenario(cfg)
        expect = scenarios.expectation_scenario(cfg)
        for eps, row in zip(grid, rows):
            values = {k: float(v) for k, v in zip(header, row)}
            exact = oracle.comparison_row(
                weak.pre.amplitudes, weak.post.amplitudes, _matrix(weak.observable),
                expect.pre.amplitudes, _matrix(expect.observable), g, delta, float(eps))
            got = {key: values[key] for key in ANGLE_KEYS}
            got["p_postselect"] = values["p_postselect"]
            bad += _broken(**got)
            for key, value in got.items():
                digits.setdefault(key, []).append(oracle.digits(value, exact[key]))
        return bad + (len(rows) != len(grid))


def _flag(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of CSV or pretty CLI output; comment, echo and
    fit lines are skipped."""
    lines = [ln for ln in text.splitlines()
             if ln and not ln.startswith(("#", "wvsim ", "fit "))]
    if not lines:
        return [], []
    split = (lambda ln: ln.split(",")) if "," in lines[0] else str.split
    return split(lines[0]), [split(ln) for ln in lines[1:]]


def run_child(argv: list[str], cwd: Path, owner=None) -> str:
    """Run a child to completion and return its stdout; raise on a non-zero
    exit. The child's peak RSS is folded into `owner.peak_rss_kib`."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err, subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=err) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if owner is not None:
        owner.peak_rss_kib = max(owner.peak_rss_kib, usage.ru_maxrss)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: "
                           f"{err_path.read_text(errors='replace')[-300:]}")
    return out.decode()


def child_env() -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": str(src)}


WORKLOADS = {w.name: w for w in (CompareSweep, AmplifyTable, CliOneshot, DenseObservables)}
