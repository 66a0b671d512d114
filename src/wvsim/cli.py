"""Command-line front end.

Subcommands: `weak-value` for ad-hoc two-state-vector computations, `compare`
for the eigenvalue / weak-value / expectation-value distance sweep, and
`amplify` for the spin amplification table. Output is deterministic CSV
(`#` comment lines only before the header and after the data) or a plain
pretty table.
"""

from __future__ import annotations

import gc

# Every object the imports below build lives until the process exits, so the
# collector's passes over them are wasted: a run as `python -m wvsim.cli`
# imports with it off, and `run` freezes what the imports left before it
# turns it back on.
if __name__ == "__main__":
    gc.disable()

import argparse
import cmath
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import scenarios
from .errors import InvalidData, OrthogonalSelection
from .measurement import CouplingConfig, weak_value
from .qstate import Observable, SystemState, make_state

DEFAULT_GRID_SPEC = "1e-3:1e-2:8:log"
# the most points an --eps-grid may ask for; it is checked before the grid is
# built, so a mistyped n is an error rather than an allocation of terabytes
MAX_GRID_POINTS = 10**6
COMPARE_COLUMNS = ("epsilon", "d_eigen", "d_weak_vs_eigen", "d_expect_vs_eigen",
                   "p_postselect", "weakness")
AMPLIFY_COLUMNS = ("tan_half_alpha", "mean_shift_over_g_eps", "p_postselect", "weak_flag")
CONFIG_KEYS = {"weak-value": ("pre", "post", "obs"),
               "compare": ("g", "delta", "eps", "eps-grid"),
               "amplify": ("g", "delta", "eps", "alpha-tan")}


def fmt(x: float) -> str:
    """Locale-independent number formatting at 12 significant digits."""
    return f"{float(x):.12g}"


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12f} {sign} {abs(z.imag):.12f}i"


def parse_amplitude(text: str) -> complex:
    """Amplitude grammar: `a`, `a+bi` or `a-bi` with real a, b."""
    s = text.strip().replace("−", "-")
    if not s:
        raise InvalidData("empty amplitude")
    try:
        z = complex(s[:-1] + "j") if s.endswith("i") else complex(float(s))
    except ValueError:
        raise InvalidData(f"bad amplitude {text!r}; use a, a+bi or a-bi") from None
    if not cmath.isfinite(z):
        raise InvalidData(f"amplitude {text!r} is not finite")
    return z


def parse_state_spec(spec: str) -> SystemState:
    """State grammar: comma-separated `label:amplitude` terms."""
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip().replace("−", "-")
        label_s, sep, amp_s = chunk.partition(":")
        if not sep:
            raise InvalidData(f"missing ':' in state term {chunk!r}")
        try:
            label = int(label_s)
        except ValueError:
            raise InvalidData(f"bad basis label {label_s!r}") from None
        pairs.append((label, parse_amplitude(amp_s)))
    return make_state(pairs)


def parse_observable_spec(spec: str, labels: tuple[int, ...]) -> Observable:
    """Observable grammar: `diag` (A = sum_j j|j><j|) or `proj:<j>`."""
    s = spec.strip()
    if s == "diag":
        return Observable.diagonal(labels)
    if s.startswith("proj:"):
        try:
            j = int(s[len("proj:"):])
        except ValueError:
            raise InvalidData(f"bad projector label in {spec!r}") from None
        if j not in labels:
            raise InvalidData(f"projector label {j} not in basis {labels}")
        return Observable.diagonal(labels, [1.0 if lab == j else 0.0 for lab in labels])
    raise InvalidData(f"unknown observable spec {spec!r}; use diag or proj:<j>")


def parse_grid_spec(text: str) -> tuple[tuple[float, ...], str]:
    """Grid grammar `lo:hi:n:log|lin`; returns the grid and a canonical echo."""
    spec = str(text).strip()
    parts = spec.split(":")
    if len(parts) != 4:
        raise InvalidData(f"epsilon grid spec must be lo:hi:n:log|lin, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidData(f"bad epsilon grid spec {text!r}") from None
    kind = parts[3]
    if kind not in ("log", "lin"):
        raise InvalidData(f"grid kind must be log or lin, got {kind!r}")
    if not 0 < lo < hi < math.inf or n < 2:
        raise InvalidData("epsilon grid needs finite 0 < lo < hi and n >= 2")
    if n > MAX_GRID_POINTS:
        raise InvalidData(f"epsilon grid may have at most {MAX_GRID_POINTS} points, got {n}")
    grid = np.geomspace(lo, hi, n) if kind == "log" else np.linspace(lo, hi, n)
    grid = tuple(float(e) for e in grid)
    # rows that print the same epsilon would be indistinguishable; a grid that
    # is not strictly increasing is left to the grid check of
    # scenarios.run_comparison, which says so
    texts = [fmt(e) for e in grid]
    repeated = [a for a, b in zip(texts, texts[1:]) if a == b]
    if repeated and all(map(operator.lt, grid, grid[1:])):
        raise InvalidData(f"epsilon grid {spec!r} has neighbouring points "
                          f"that both print as {repeated[0]}")
    return grid, f"{fmt(lo)}:{fmt(hi)}:{n}:{kind}"


def load_config(path: str, command: str) -> dict:
    """The flat JSON object in `path`; every key must be one `command` reads."""
    import json  # only a run with --config reads one

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidData(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidData("config file must hold a flat JSON object")
    keys = CONFIG_KEYS[command]
    for key in data:
        if key not in keys:
            raise InvalidData(f"config key {key!r} is not read by {command}; "
                              f"it reads {', '.join(keys)}")
    return data


def pick(cli_value, config: dict, key: str, default=None):
    """Flag value if given, else config-file value, else the default."""
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


def positive(value, name: str) -> float:
    if isinstance(value, bool):  # a JSON true would otherwise read as 1
        raise InvalidData(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InvalidData(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an integer, from a config file, beyond the floats
        raise InvalidData(f"{name} is out of floating-point range") from None
    if not 0 < x < math.inf:
        raise InvalidData(f"{name} must be positive and finite, got {x}")
    return x


def emit(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidData(f"cannot write output file {out}: {exc.strerror}") from None


def render_table(comment: str, columns: tuple[str, ...], rows: list[tuple[str, ...]],
                 trailers: list[str], pretty: bool) -> str:
    if pretty:
        widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
                  for i, c in enumerate(columns)]
        lines = [comment.lstrip("# ")]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        lines.extend(t.lstrip("# ") for t in trailers)
    else:
        lines = [comment, ",".join(columns)]
        lines.extend(",".join(r) for r in rows)
        lines.extend(trailers)
    return "\n".join(lines) + "\n"


def cmd_weak_value(args: argparse.Namespace, config: dict) -> int:
    pre_spec = pick(args.pre, config, "pre")
    post_spec = pick(args.post, config, "post")
    obs_spec = pick(args.obs, config, "obs")
    if not pre_spec or not post_spec or not obs_spec:
        raise InvalidData("weak-value needs --pre, --post and --obs")
    pre = parse_state_spec(str(pre_spec))
    post = parse_state_spec(str(post_spec))
    value = weak_value(pre, post, parse_observable_spec(str(obs_spec), pre.labels))
    emit(args.out, format_complex(value) + "\n")
    return 0


def cmd_compare(args: argparse.Namespace, config: dict) -> int:
    g = positive(pick(args.g, config, "g", 1.0), "g")
    delta = positive(pick(args.delta, config, "delta", 1.0), "delta")
    if args.eps is not None and args.eps_grid is not None:
        raise InvalidData("--eps and --eps-grid are mutually exclusive")
    if args.eps is not None or args.eps_grid is not None:
        eps, grid_spec = args.eps, args.eps_grid
    else:
        eps, grid_spec = config.get("eps"), config.get("eps-grid")
        if eps is not None and grid_spec is not None:
            raise InvalidData("config file sets both eps and eps-grid")
    if eps is not None:
        grid = (positive(eps, "eps"),)
        echo = f"eps={fmt(grid[0])}"
    else:
        grid, canonical = parse_grid_spec(grid_spec if grid_spec is not None
                                          else DEFAULT_GRID_SPEC)
        echo = f"eps-grid={canonical}"
    cfg = CouplingConfig(g=g, epsilon=grid[0], delta=delta)
    rows = scenarios.run_comparison([scenarios.weak_value_one_scenario(cfg, grid),
                                     scenarios.expectation_scenario(cfg, grid)])
    cells = [tuple(map(fmt, r)) for r in rows]
    trailers = []
    # the scaling laws hold in the weak regime only, so only its rows are fitted
    weak = [r for r in rows if r.weakness <= scenarios.WEAKNESS_THRESHOLD]
    counts, bound = f"{len(weak)} of {len(rows)}", fmt(scenarios.WEAKNESS_THRESHOLD)
    if len(rows) >= 4 and len(weak) < 4:
        trailers.append(f"# fit skipped: {counts} rows have weakness <= {bound}, a fit needs 4")
    elif len(weak) >= 4:
        if len(weak) < len(rows):
            trailers.append(f"# fit rows: {counts} have weakness <= {bound}")
        eps, *columns = zip(*weak)
        for name, column in zip(("d_eigen", "d_weak_vs_eigen", "d_expect_vs_eigen"), columns):
            fit = scenarios.fit_power_law(zip(eps, column))
            trailers.append(f"# fit {name}: exponent={fmt(fit.exponent)} "
                            f"coefficient={fmt(fit.coefficient)} residual={fmt(fit.residual)}")
    comment = f"# wvsim compare g={fmt(g)} delta={fmt(delta)} {echo}"
    emit(args.out, render_table(comment, COMPARE_COLUMNS, cells, trailers,
                                args.format == "pretty"))
    return 0


def cmd_amplify(args: argparse.Namespace, config: dict) -> int:
    g = positive(pick(args.g, config, "g", 1.0), "g")
    delta = positive(pick(args.delta, config, "delta", 1.0), "delta")
    eps = positive(pick(args.eps, config, "eps", 1e-4), "eps")
    tan_spec = pick(args.alpha_tan, config, "alpha-tan")
    if tan_spec is None or not str(tan_spec).strip():
        raise InvalidData("amplify needs --alpha-tan with comma-separated tan(alpha/2) values")
    tans = [positive(part, "alpha-tan value") for part in str(tan_spec).split(",")
            if part.strip()]
    if not tans:
        raise InvalidData("amplify needs at least one tan(alpha/2) value")
    alphas = [2.0 * math.atan(t) for t in tans]
    for t, alpha in zip(tans, alphas):
        if alpha >= math.pi:
            raise InvalidData(f"alpha-tan value {fmt(t)} is too large: "
                              f"alpha = 2*atan(t) rounds to pi")
    cfg = CouplingConfig(g=g, epsilon=eps, delta=delta)
    table = scenarios.amplification_sweep(alphas, cfg)
    cells = list(zip(map(fmt, table.tan_half_alpha.tolist()),
                     map(fmt, table.mean_shift_over_g_eps.tolist()),
                     map(fmt, table.postselect_probability.tolist()),
                     ["true" if w else "false" for w in table.weak.tolist()]))
    comment = (f"# wvsim amplify g={fmt(g)} delta={fmt(delta)} eps={fmt(eps)} "
               f"alpha-tan={','.join(fmt(t) for t in tans)}")
    emit(args.out, render_table(comment, AMPLIFY_COLUMNS, cells, [],
                                args.format == "pretty"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvsim",
        description="Von Neumann weak-measurement simulator: weak values, "
                    "pointer-distance scaling sweeps, amplification tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, command: str) -> None:
        p.add_argument("--out", default="-", metavar="PATH",
                       help="output file, or - for stdout (default)")
        p.add_argument("--format", choices=("csv", "pretty"), default="csv")
        p.add_argument("--config", metavar="PATH",
                       help=f"flat JSON file with any of the keys "
                            f"{', '.join(CONFIG_KEYS[command])}; flags take precedence")

    wv = sub.add_parser("weak-value", help="print <post|A|pre>/<post|pre>")
    wv.add_argument("--pre", metavar="SPEC", help="state spec, e.g. -1:1,0:1")
    wv.add_argument("--post", metavar="SPEC", help="state spec, e.g. -1:1,0:-2")
    wv.add_argument("--obs", metavar="SPEC", help="diag or proj:<j>")
    common(wv, "weak-value")

    cp = sub.add_parser("compare",
                        help="eigenvalue vs weak-value vs expectation-value "
                             "pointer distances over an epsilon sweep")
    cp.add_argument("--g", type=float, help="coupling strength (default 1)")
    cp.add_argument("--delta", type=float, help="pointer width (default 1)")
    cp.add_argument("--eps", type=float, help="single interaction duration")
    cp.add_argument("--eps-grid", metavar="LO:HI:N:log|lin",
                    help=f"epsilon sweep grid (default {DEFAULT_GRID_SPEC})")
    common(cp, "compare")

    am = sub.add_parser("amplify", help="pointer shift amplification table")
    am.add_argument("--g", type=float, help="coupling strength (default 1)")
    am.add_argument("--delta", type=float, help="pointer width (default 1)")
    am.add_argument("--eps", type=float, help="interaction duration (default 1e-4)")
    am.add_argument("--alpha-tan", metavar="T1,T2,...",
                    help="tan(alpha/2) values to sweep")
    common(am, "amplify")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.command) if args.config else {}
        if args.command == "weak-value":
            return cmd_weak_value(args, config)
        if args.command == "compare":
            return cmd_compare(args, config)
        return cmd_amplify(args, config)
    except OrthogonalSelection as exc:
        print(f"wvsim: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"wvsim: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The entry of a `wvsim` process, `python -m wvsim.cli` and the installed
    script alike. `gc.freeze()` moves the imports' objects to the permanent
    generation, which neither the command's collections nor the one at
    shutdown pass over; `main` freezes nothing, so that a caller in a
    longer-lived process keeps its own objects collectable."""
    gc.freeze()
    gc.enable()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
