"""Layer probes for the traced run.

A Tracer wraps each public name listed in LAYERS in every wvsim module
namespace that binds it, so a call is caught whichever module it goes
through (`couple` is reached both as `wvsim.scenarios.couple` and inside
`wvsim.measurement`). Each wrapped call is a span; self time is the span's
duration minus the spans nested in it. `numpy.linalg.eigh` calls made inside
a measurement span are counted, with the number of distinct matrices among
them in each traced operation (one `with tracer:` block or one traced CLI
process).

Names that do not exist (a later version may delete them) are listed in
`absent` and simply read as never called. Probes are installed only inside
`with tracer:` and removed on exit, so untraced work runs the original code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "cli": ("main", "render_table", "emit", "fmt", "format_complex"),
    "scenarios": ("run_comparison", "fit_power_law", "amplification_sweep",
                  "weak_value_one_scenario", "expectation_scenario",
                  "spin_amplification_scenario"),
    "measurement": ("couple", "post_select", "no_postselect_mixture", "weakness_metric",
                    "postselect_probability_drift", "effective_shift_check", "weak_value"),
    "pointer": ("bures_pure", "bures_mixed", "normalize_terms", "mean_position"),
    "qstate": ("make_state", "Observable"),
}
CLI_FORMAT = ("cli.render_table", "cli.emit", "cli.fmt", "cli.format_complex")


class Tracer:
    """Span aggregates per probed name: calls, inclusive and self seconds,
    and the length of list results (rows produced)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.rows = defaultdict(int)
        self.cross = defaultdict(float)  # inclusive seconds keyed "parent_layer>child_layer"
        self.eigh_calls = 0
        self.eigh_distinct = 0  # summed over operations
        self._op_matrices: set[bytes] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    parent, child = stack[-1][0].split(".")[0], name.split(".")[0]
                    if parent != child:
                        self.cross[f"{parent}>{child}"] += dur
            if isinstance(result, list):
                self.rows[name] += len(result)
            return result

        return probe

    def _eigh(self, fn):
        @functools.wraps(fn)
        def probe(a, *args, **kwargs):
            if any(frame[0].startswith("measurement.") for frame in self._stack):
                self.eigh_calls += 1
                self._op_matrices.add(np.ascontiguousarray(a).tobytes())
            return fn(a, *args, **kwargs)

        return probe

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        self.absent = []
        self._op_matrices = set()
        homes = {layer: importlib.import_module(f"wvsim.{layer}") for layer in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "wvsim" or key.startswith("wvsim."))]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                obj = vars(home).get(name)
                label = f"{layer}.{name}"
                if obj is None:
                    self.absent.append(label)
                elif isinstance(obj, type):
                    self._patch(obj, "__init__", self._span(label, obj.__init__))
                else:
                    wrapper = self._span(label, obj)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is obj:
                                self._patch(module, attr, wrapper)
        self._patch(np.linalg, "eigh", self._eigh(np.linalg.eigh))
        return self

    def __exit__(self, *exc) -> None:
        self.eigh_distinct += len(self._op_matrices)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def state(self) -> dict:
        """JSON-serialisable aggregates, for a traced child process."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_time": dict(self.self_time), "rows": dict(self.rows),
                "cross": dict(self.cross), "eigh_calls": self.eigh_calls,
                "eigh_distinct": self.eigh_distinct, "absent": self.absent}

    def merge(self, state: dict) -> None:
        for key in ("calls", "total", "self_time", "rows", "cross"):
            target = getattr(self, key)
            for name, value in state[key].items():
                target[name] += value
        self.eigh_calls += state["eigh_calls"]
        self.eigh_distinct += state["eigh_distinct"]
        self.absent = sorted(set(self.absent) | set(state["absent"]))
