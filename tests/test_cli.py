"""Command-line interface: grammar, CSV contract, exit codes, determinism."""

import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mporacle
from wvsim.cli import (
    AMPLIFY_COLUMNS,
    COMPARE_COLUMNS,
    MAX_GRID_POINTS,
    main,
    parse_amplitude,
    parse_grid_spec,
    parse_observable_spec,
    parse_state_spec,
)
from wvsim.errors import InvalidData
from wvsim.scenarios import WEAKNESS_THRESHOLD, AmplificationRow, ComparisonRow

COMPARE_HEADER = "epsilon,d_eigen,d_weak_vs_eigen,d_expect_vs_eigen,p_postselect,weakness"
AMPLIFY_HEADER = "tan_half_alpha,mean_shift_over_g_eps,p_postselect,weak_flag"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateGrammar:
    def test_amplitudes(self):
        assert parse_amplitude("1") == 1
        assert parse_amplitude("-2.5") == -2.5
        assert parse_amplitude("0+1i") == 1j
        assert parse_amplitude("1.5-2i") == 1.5 - 2j

    def test_state_spec(self):
        state = parse_state_spec("-1:1,0:-2")
        assert state.labels == (-1, 0)
        amplitude = dict(zip(state.labels, state.amplitudes))
        assert amplitude[0] / amplitude[-1] == pytest.approx(-2.0)

    def test_bad_specs(self):
        for bad, message in (("1", "missing ':' in state term '1'"),
                             ("a:1", "bad basis label 'a'"),
                             ("0:zz", r"bad amplitude 'zz'; use a, a\+bi or a-bi"),
                             ("0:1,0:1", "label 0 given more than once"),
                             ("0:0", "all amplitudes are zero")):
            with pytest.raises(InvalidData, match=message):
                parse_state_spec(bad)

    def test_grid_spec(self):
        grid, echo = parse_grid_spec("1e-3:1e-2:8:log")
        assert len(grid) == 8
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e-2)
        assert echo == "0.001:0.01:8:log"
        lin, _ = parse_grid_spec("0.1:0.4:4:lin")
        assert lin == pytest.approx((0.1, 0.2, 0.3, 0.4))


class TestWeakValueCommand:
    def test_unit_weak_value(self, capsys):
        code, out, _ = run(capsys, "weak-value", "--pre=-1:1,0:1",
                           "--post=-1:1,0:-2", "--obs", "diag")
        assert code == 0
        assert out == "1.000000000000 + 0.000000000000i\n"

    def test_eigenstate(self, capsys):
        code, out, _ = run(capsys, "weak-value", "--pre", "1:1", "--post", "1:1",
                           "--obs", "diag")
        assert code == 0
        assert out == "1.000000000000 + 0.000000000000i\n"

    def test_complex_projector_value(self, capsys):
        code, out, _ = run(capsys, "weak-value", "--pre", "0:1,1:1",
                           "--post", "0:1,1:0+1i", "--obs", "proj:1")
        assert code == 0
        assert out == "0.500000000000 - 0.500000000000i\n"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "weak-value", "--pre", "0:bogus",
                           "--post", "0:1", "--obs", "diag")
        assert code == 2
        assert "amplitude" in err

    def test_orthogonal_selection_exits_3(self, capsys):
        code, _, err = run(capsys, "weak-value", "--pre", "0:1,1:0",
                           "--post", "0:0,1:1", "--obs", "diag")
        assert code == 3

    def test_sigmaz_observable(self, capsys):
        # sigma_z is `diag` on the labels -1, +1; there is no separate alias
        code, out, _ = run(capsys, "weak-value", "--pre=-1:1,1:1",
                           "--post=-1:1,1:1", "--obs", "diag")
        assert code == 0
        assert out == "0.000000000000 + 0.000000000000i\n"
        code, out, err = run(capsys, "weak-value", "--pre=-1:1,1:1",
                             "--post=-1:1,1:1", "--obs", "sigmaz")
        assert (code, out) == (2, "")
        assert err == "wvsim: error: unknown observable spec 'sigmaz'; use diag or proj:<j>\n"

    def test_pre_and_post_on_different_bases_exit_2(self, capsys):
        # the observable is built on pre's labels, so the weak value's one
        # basis check names post's labels against it
        assert run(capsys, "weak-value", "--pre=0:1,1:1", "--post=0:1,2:1", "--obs", "diag") == (
            2, "", "wvsim: error: bases differ: (0, 2) vs (0, 1)\n")

    @pytest.mark.parametrize("argv, code, err", [
        ("weak-value --pre=0:1,0:1 --post=0:1,1:1 --obs diag", 2,
         "wvsim: error: label 0 given more than once\n"),
        ("weak-value --pre=0:0,1:0 --post=0:1,1:1 --obs diag", 2,
         "wvsim: error: all amplitudes are zero\n"),
        ("weak-value --pre=0:1,1:1 --post=0:1,1:1 --obs proj:5", 2,
         "wvsim: error: projector label 5 not in basis (0, 1)\n"),
        ("compare --eps-grid 1:1.0000000000000002:5:lin", 2,
         "wvsim: error: epsilon grid must be strictly increasing\n"),
        ("compare --eps-grid 1e-3:1.00000001e-3:6:lin", 2,
         "wvsim: error: power-law fit needs abscissae whose logs spread at least 1e-06, "
         "got 9.99999993923e-09\n"),
        ("compare --eps-grid 1e-3:1.0000000000001e-3:3:lin", 2,
         "wvsim: error: epsilon grid '1e-3:1.0000000000001e-3:3:lin' has neighbouring points "
         "that both print as 0.001\n"),
        ("weak-value --pre=0:1,1:0 --post=0:0,1:1 --obs diag", 3,
         "wvsim: |<post|pre>| = 0.000e+00 at or below floor 1.000e-12\n"),
        ("compare --eps-grid 1e-300:1e-250:5:log --g 1e230", 2,
         "wvsim: error: power-law fit coefficient exp(1058.14942201) is out of "
         "floating-point range\n"),
        ("compare --eps-grid 1e150:1e151:5:log --g 1e-200", 2,
         "wvsim: error: power-law fit coefficient exp(-922.073757968) is out of "
         "floating-point range\n"),
        # finite input never prints an infinite weak value with exit 0
        (f"weak-value --pre=0:1,{10**307}:1 --post=0:1,{10**307}:-0.999999 --obs diag", 2,
         "wvsim: error: weak value <post|A|pre>/<post|pre> is out of floating-point range\n"),
        (f"weak-value --pre=0:1,{10**400}:1 --post=0:1,{10**400}:1 --obs diag", 2,
         "wvsim: error: matrix has an entry out of floating-point range\n"),
    ])
    def test_error_line_and_exit_code(self, capsys, argv, code, err):
        assert run(capsys, *argv.split()) == (code, "", err)

    @pytest.mark.parametrize("pre", ["0:1e308,1:1e308", "0:1e-200,1:1e-200",
                                     "0:5e-324,1:5e-324"])
    def test_extreme_amplitudes_normalise(self, capsys, pre):
        code, out, err = run(capsys, "weak-value", f"--pre={pre}", "--post=0:1,1:1",
                             "--obs", "diag")
        assert (code, out, err) == (0, "0.500000000000 + 0.000000000000i\n", "")


class TestCompareCommand:
    def test_default_sweep_shape_and_fits(self, capsys):
        code, out, _ = run(capsys, "compare")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# wvsim compare ")
        assert lines[1] == COMPARE_HEADER
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 8
        fits = {}
        for line in lines:
            if line.startswith("# fit "):
                name = line.split()[2].rstrip(":")
                parts = dict(kv.split("=") for kv in line.split()[3:])
                fits[name] = {k: float(v) for k, v in parts.items()}
        assert fits["d_eigen"]["exponent"] == pytest.approx(1.0, abs=0.05)
        assert fits["d_eigen"]["coefficient"] == pytest.approx(0.5, rel=0.02)
        assert fits["d_weak_vs_eigen"]["exponent"] == pytest.approx(2.0, abs=0.05)
        assert fits["d_weak_vs_eigen"]["coefficient"] == pytest.approx(0.353553, rel=0.05)
        assert fits["d_expect_vs_eigen"]["exponent"] == pytest.approx(1.0, abs=0.05)
        assert fits["d_expect_vs_eigen"]["coefficient"] == pytest.approx(0.5, rel=0.02)

    def test_single_epsilon_has_no_fit_lines(self, capsys):
        code, out, _ = run(capsys, "compare", "--eps", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 2  # header + row
        assert not any(l.startswith("# fit") for l in lines)

    def test_explicit_grid_matches_default_byte_for_byte(self, capsys):
        _, default_out, _ = run(capsys, "compare")
        _, explicit_out, _ = run(capsys, "compare", "--eps-grid", "1e-3:1e-2:8:log")
        assert explicit_out == default_out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "compare")
        _, second, _ = run(capsys, "compare")
        assert first == second

    def test_eps_and_grid_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, "compare", "--eps", "0.01",
                           "--eps-grid", "1e-3:1e-2:8:log")
        assert code == 2
        assert "mutually exclusive" in err

    def test_nonpositive_parameter_exits_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--g", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("compare", "--g", "nan", "--eps", "1e-3"),
        ("compare", "--eps", "inf"),
        ("weak-value", "--pre=0:1,1:nan", "--post=0:1,1:1", "--obs", "diag"),
        ("weak-value", "--pre=0:1,1:inf", "--post=0:1,1:1", "--obs", "diag"),
        ("compare", "--eps-grid", "nan:1e-2:4:log"),
        ("compare", "--eps-grid", "1e-3:inf:4:log"),
    ])
    def test_non_finite_number_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        "compare --g 1e300 --eps 1e10",
        "compare --g 1e200 --eps 1e-3 --delta 1e-300",
        "amplify --alpha-tan 10 --g 1e300 --eps 1e10",
    ])
    def test_overflowing_coupling_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("wvsim: error: g*epsilon/delta is out of floating-point range")

    @pytest.mark.parametrize("argv", [
        "compare --eps 1e-160",
        "compare --eps 1e-200",
        "compare --eps 9.9999999999e-78",
        "compare --eps-grid 1e-80:1e-3:8:log",
        "compare --g 1e-160 --eps 1e-160 --delta 1e-250",
    ])
    def test_underflowing_coupling_exits_2(self, capsys, argv):
        # below the smallest kick g*eps/delta that compare accepts, or with
        # g*eps not a normal float, where underflow can print wrong digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("wvsim: error: g*epsilon/delta is out of floating-point range")

    @pytest.mark.parametrize("argv, line", [
        ("compare --eps 1e-77", "1e-77,5e-78,3.53553390593e-155,5e-78,0.1,1.25e-155"),
        ("amplify --alpha-tan 1e-3,1,1e3 --eps 2.2250738585072014e-308",
         "1000,1000,9.99999000001e-07,true"),
    ])
    def test_smallest_kick_prints_the_oracle_digits(self, capsys, argv, line):
        # every column to 12 digits, as tests/test_oracle.py checks in full
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == line

    def test_grid_that_rounds_to_repeated_values_exits_2(self, capsys):
        code, out, err = run(capsys, "compare", "--eps-grid", "1:1.0000000000000002:5:lin")
        assert code == 2
        assert out == ""
        assert "epsilon grid must be strictly increasing" in err

    @pytest.mark.parametrize("n", [MAX_GRID_POINTS + 1, 1000000000000])
    def test_grid_with_too_many_points_exits_2_before_building_it(self, capsys, monkeypatch, n):
        # the count is checked before numpy is asked for the grid
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")
        monkeypatch.setattr(np, "geomspace", no_grid)
        monkeypatch.setattr(np, "linspace", no_grid)
        for kind in ("log", "lin"):
            code, out, err = run(capsys, "compare", "--eps-grid", f"1e-3:1e-2:{n}:{kind}")
            assert (code, out) == (2, "")
            assert err == (f"wvsim: error: epsilon grid may have at most {MAX_GRID_POINTS} "
                           f"points, got {n}\n")

    def test_row_fields_follow_the_printed_columns(self):
        # `compare` prints tuple(row), so the fields must be in column order
        field = {"p_postselect": "postselect_probability", "weak_flag": "weak"}
        assert [field.get(c, c) for c in COMPARE_COLUMNS] == list(ComparisonRow._fields)
        amplify = [field.get(c, c) for c in AMPLIFY_COLUMNS]
        assert amplify == list(AmplificationRow._fields)
        assert COMPARE_HEADER.split(",") == list(COMPARE_COLUMNS)
        assert AMPLIFY_HEADER.split(",") == list(AMPLIFY_COLUMNS)

    def test_out_file_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "compare", "--eps", "0.01", "--out", str(target))
        assert code == 0
        assert out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[1] == COMPARE_HEADER

    @pytest.mark.parametrize("argv", [
        ["compare"],
        ["weak-value", "--pre=-1:1,0:1", "--post=-1:1,0:-2", "--obs", "diag"],
    ])
    def test_unwritable_out_path_exits_2(self, capsys, tmp_path, argv):
        # a missing directory, and a directory where the file should go
        for target, code in ((tmp_path / "missing" / "x.csv", errno.ENOENT),
                             (tmp_path, errno.EISDIR)):
            assert run(capsys, *argv, "--out", str(target)) == (
                2, "", f"wvsim: error: cannot write output file {target}: {os.strerror(code)}\n")
            assert list(tmp_path.iterdir()) == []

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "compare", "--eps", "0.01", "--format", "pretty")
        assert code == 0
        assert "epsilon" in out and "," not in out.splitlines()[1]


def oracle_cells(argv):
    """The cells of every `amplify` row that `argv` asks for, from the oracle
    at each float tan(alpha/2) the program sweeps, formatted as it prints."""
    flags = dict(zip(argv.split()[1::2], argv.split()[2::2]))
    g, delta = float(flags.get("--g", 1.0)), float(flags.get("--delta", 1.0))
    eps = float(flags["--eps"])
    cells = []
    for typed in flags["--alpha-tan"].split(","):
        t = math.tan(2 * math.atan(float(typed)) / 2)
        exact = mporacle.amplification_row(t, g, delta, eps)
        weak = max(exact["weakness"], exact["drift"]) <= WEAKNESS_THRESHOLD
        cells += [f"{t:.12g}", f"{float(exact['mean_shift']):.12g}",
                  f"{float(exact['p_postselect']):.12g}", "true" if weak else "false"]
    return cells


class TestAmplifyCommand:
    def test_amplification_table(self, capsys):
        code, out, _ = run(capsys, "amplify", "--alpha-tan", "1,10,100")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == AMPLIFY_HEADER
        rows = [l.split(",") for l in lines[2:]]
        for row, target in zip(rows, (1.0, 10.0, 100.0)):
            assert float(row[1]) == pytest.approx(target, rel=0.02)
            assert row[3] == "true"

    @pytest.mark.parametrize("argv", [
        "amplify --alpha-tan 1 --delta 1e300 --eps 1e-300",
        "amplify --alpha-tan 1 --eps 2.2250738585072e-308",
        "amplify --alpha-tan 1 --eps 1e-310 --delta 1e-10",
    ], ids=["delta-1e300", "eps-below-normal", "subnormal-g-eps"])
    def test_tiny_coupling_prints_the_oracle_digits(self, capsys, argv):
        # the closed-form table has no underflow floor: kicks g*eps/delta
        # below the smallest normal float, and a subnormal g*eps, print the
        # oracle's 12 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        (row,) = [line.split(",") for line in out.splitlines()[2:]]
        assert row == oracle_cells(argv)

    @pytest.mark.parametrize("argv", [
        "amplify --alpha-tan 1e13 --eps 1e-12",
        "amplify --alpha-tan 1e-300 --eps 1e-3",
        "amplify --alpha-tan 1e11,1e9,1e6,1e5,1e-8 --eps 1e-6",
        "amplify --alpha-tan 1,100,1e5 --eps 1e-2",
    ])
    def test_every_cell_is_the_oracle_at_the_echoed_tan(self, capsys, argv):
        # a selection amplitude <post|pre> below the overlap floor (1e13), a
        # tan far below 1, and the tans whose rows lost digits when the
        # table was summed from spin amplitudes
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [cell for row in rows for cell in row] == oracle_cells(argv)

    def test_amplified_shift_prints_the_oracle_digits(self, capsys):
        # at tan = 5e4 the selection amplitude <post|pre> is ~1/tan of its
        # O(1) terms; the mean shift keeps its 12th digit (oracle
        # 15.7974963468372)
        code, out, _ = run(capsys, "amplify", "--alpha-tan", "0.5,2,50000", "--eps", "3e-3",
                           "--g", "1.5", "--delta", "2")
        assert code == 0
        assert out.splitlines()[-1] == "50000.0000001,15.7974963468,1.26602339718e-06,false"

    def test_strong_coupling_flagged(self, capsys):
        code, out, _ = run(capsys, "amplify", "--alpha-tan", "100", "--eps", "0.1")
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[3] == "false"
        assert float(row[1]) < 100.0

    def test_empty_alpha_list_exits_2(self, capsys):
        code, _, _ = run(capsys, "amplify", "--alpha-tan", "")
        assert code == 2

    def test_missing_alpha_list_exits_2(self, capsys):
        code, _, _ = run(capsys, "amplify")
        assert code == 2

    def test_tan_whose_angle_rounds_to_pi_exits_2(self, capsys):
        code, out, err = run(capsys, "amplify", "--alpha-tan", "1,1e300", "--eps", "1e-3")
        assert (code, out) == (2, "")
        assert err == ("wvsim: error: alpha-tan value 1e+300 is too large: "
                       "alpha = 2*atan(t) rounds to pi\n")

    def test_probability_column(self, capsys):
        _, out, _ = run(capsys, "amplify", "--alpha-tan", "100")
        row = out.splitlines()[-1].split(",")
        assert float(row[2]) == pytest.approx(1 / (1 + 100.0 ** 2), abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(tans=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=8),
           eps=st.floats(1e-6, 1e-1))
    def test_table_is_finite_or_orthogonal(self, tans, eps):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["amplify", "--alpha-tan", ",".join(map(repr, tans)),
                         "--eps", repr(eps)])
        out = out.getvalue()
        assert "nan" not in out and "inf" not in out
        # no selection is orthogonal: every tan(alpha/2) gets its row
        assert (code, err.getvalue()) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == len(tans)
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row[:3])
            assert 0.0 <= float(row[2]) <= 1.0


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# amplitude parts in [-2, 2]; those below 1e-280 are zero, so that scaling by
# 2^k for |k| <= 30 stays exact (a subnormal part would lose bits)
parts = st.floats(-2.0, 2.0).map(lambda x: 0.0 if abs(x) < 1e-280 else x)
amplitudes = st.builds(complex, parts, parts)
WEAK_VALUE_OUTPUT = re.compile(r"(-?\d+\.\d{12}) ([+-]) (\d+\.\d{12})i\n")
ORTHOGONAL_ERROR = re.compile(r"wvsim: \|<post\|pre>\| = \S+ at or below floor 1\.000e-12\n")
# the exit-2 errors of `compare` that README lists
COMPARE_ERRORS = re.compile(
    r"wvsim: error: (g\*epsilon/delta is out of floating-point range for g=\S+, "
    r"epsilon=\S+, delta=\S+"
    r"|epsilon grid must be strictly increasing"
    r"|epsilon grid '\S+' has neighbouring points that both print as \S+"
    r"|power-law fit needs abscissae whose logs spread at least 1e-06, got \S+"
    r"|power-law fit coefficient exp\(\S+\) is out of floating-point range)\n")


def state_spec(amps, scale=1.0):
    """`--pre`/`--post` text for amplitudes on labels 0, 1, ..., each times scale."""
    def amp(z):
        sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
        return f"{z.real * scale!r}{sign}{abs(z.imag) * scale!r}i"
    return ",".join(f"{j}:{amp(z)}" for j, z in enumerate(amps))


@st.composite
def selections(draw):
    """(pre amplitudes, post amplitudes, observable spec) in dimension 1-4,
    neither state all zero; half of the posts in dimension 2 or more are
    (-conj(pre_1), conj(pre_0), 0, ...), orthogonal to pre."""
    d = draw(st.integers(1, 4))
    states = st.lists(amplitudes, min_size=d, max_size=d).filter(any)
    obs = draw(st.sampled_from(["diag", *(f"proj:{j}" for j in range(d))]))
    pre = draw(states)
    if d >= 2 and draw(st.booleans()):
        post = [-pre[1].conjugate(), pre[0].conjugate()] + [0j] * (d - 2)
        assume(any(post))
    else:
        post = draw(states)
    return pre, post, obs


class TestCommandProperties:
    @settings(max_examples=60, deadline=None)
    @given(selection=selections(), k=st.integers(-30, 30), scaled=st.sampled_from(["pre", "post"]))
    def test_weak_value_is_finite_or_orthogonal_and_scale_invariant(self, selection, k, scaled):
        pre, post, obs = selection
        argv = ["weak-value", f"--pre={state_spec(pre)}", f"--post={state_spec(post)}",
                "--obs", obs]
        code, out, err = invoke(argv)
        if code == 3:
            assert out == "" and ORTHOGONAL_ERROR.fullmatch(err), err
        else:
            assert (code, err) == (0, "")
            re_part, _, im_part = WEAK_VALUE_OUTPUT.fullmatch(out).groups()
            assert math.isfinite(float(re_part)) and math.isfinite(float(im_part))
        # normalisation rescales by an exact power of two, so 2^k times
        # either state is the same selection, to the byte
        pre_spec, post_spec = ((state_spec(pre, 2.0 ** k), state_spec(post)) if scaled == "pre"
                               else (state_spec(pre), state_spec(post, 2.0 ** k)))
        assert invoke(["weak-value", f"--pre={pre_spec}", f"--post={post_spec}",
                       "--obs", obs]) == (code, out, err)

    @settings(max_examples=60, deadline=None)
    @given(selection=selections())
    def test_weak_value_of_pre_as_post_is_the_expectation(self, selection):
        pre, _, obs = selection
        spec = state_spec(pre)
        code, out, err = invoke(["weak-value", f"--pre={spec}", f"--post={spec}", "--obs", obs])
        assert (code, err) == (0, "")
        re_part, sign, im_part = WEAK_VALUE_OUTPUT.fullmatch(out).groups()
        state = parse_state_spec(spec)
        a = parse_observable_spec(obs, state.labels)
        mean = np.vdot(state.vector, a.matrix @ state.vector).real
        # within one unit of the last printed decimal
        assert abs(float(re_part) - mean) <= 1e-12
        assert float(im_part) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(g=st.floats(-150.0, 150.0), delta=st.floats(-150.0, 150.0),
           lo=st.floats(-8.0, 2.0), ratio=st.floats(1.0001, 1e6),
           n=st.integers(2, 12), kind=st.sampled_from(["log", "lin"]))
    def test_compare_is_finite_and_in_range_or_a_documented_error(self, g, delta, lo, ratio,
                                                                  n, kind):
        lo = 10.0 ** lo
        grid = f"{lo!r}:{lo * ratio!r}:{n}:{kind}"
        code, out, err = invoke(["compare", "--g", repr(10.0 ** g),
                                 "--delta", repr(10.0 ** delta), "--eps-grid", grid])
        if code == 2:
            assert out == "" and COMPARE_ERRORS.fullmatch(err), err
            return
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == COMPARE_HEADER
        rows = [list(map(float, line.split(","))) for line in lines[2:2 + n]]
        assert len(rows) == n
        for eps, *angles, p, weakness in rows:
            assert all(math.isfinite(x) for x in (eps, *angles, p, weakness))
            assert all(0.0 <= a <= math.pi / 2 for a in angles)
            assert 0.0 <= p <= 1.0
            assert weakness >= 0.0
        trailers = lines[2 + n:]
        assert len(trailers) == (3 if n >= 4 else 0)
        for line in trailers:
            values = re.fullmatch(r"# fit \w+: exponent=(\S+) coefficient=(\S+) residual=(\S+)",
                                  line).groups()
            assert all(math.isfinite(float(v)) for v in values)


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"eps": 0.01, "g": 1.0, "delta": 1.0}))
        _, from_config, _ = run(capsys, "compare", "--config", str(config))
        assert len(from_config.splitlines()) == 3  # comment, header, one row
        _, overridden, _ = run(capsys, "compare", "--config", str(config),
                               "--eps", "0.005")
        assert "0.005" in overridden.splitlines()[0]
        assert from_config != overridden

    def test_config_for_amplify(self, capsys, tmp_path):
        config = tmp_path / "amp.json"
        config.write_text(json.dumps({"alpha-tan": "1,10", "eps": 1e-4}))
        code, out, _ = run(capsys, "amplify", "--config", str(config))
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = run(capsys, "compare", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command, config, err", [
        ("amplify", {"g": True, "eps": 1e-3}, "g must be a number, got True"),
        ("compare", {"eps": True}, "eps must be a number, got True"),
        ("amplify", {"gg": 5, "eps": 1e-3},
         "config key 'gg' is not read by amplify; it reads g, delta, eps, alpha-tan"),
        ("compare", {"eps": 1e-3, "pre": "0:1"},
         "config key 'pre' is not read by compare; it reads g, delta, eps, eps-grid"),
        ("weak-value", {"pre": "0:1", "post": "0:1", "obs": "diag", "eps": 1e-3},
         "config key 'eps' is not read by weak-value; it reads pre, post, obs"),
        ("compare", {"format": "pretty"},
         "config key 'format' is not read by compare; it reads g, delta, eps, eps-grid"),
        ("compare", {"g": 10**400}, "g is out of floating-point range"),
        ("amplify", {"eps": -10**400}, "eps is out of floating-point range"),
    ], ids=["bool-g", "bool-eps", "unknown-key", "other-command-key", "weak-value-key",
            "format-key", "int-g-beyond-floats", "int-eps-beyond-floats"])
    def test_bad_config_exits_2(self, capsys, tmp_path, command, config, err):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        flags = ["--alpha-tan", "1"] if command == "amplify" else []
        assert (run(capsys, command, "--config", str(path), *flags)
                == (2, "", f"wvsim: error: {err}\n"))


class TestNumberFormatting:
    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "compare", "--eps", "0.0123456789012345")
        row = out.splitlines()[2]
        assert row.split(",")[0] == "0.0123456789012"

    def test_no_locale_separators(self, capsys):
        _, out, _ = run(capsys, "compare")
        data = [l for l in out.splitlines() if not l.startswith("#")]
        for line in data[1:]:
            for cell in line.split(","):
                float(cell)  # every cell parses back


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    """(`wvsim ...` command, shown output lines) for each `$ wvsim` line in a
    fenced block of the README."""
    examples, shown = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            shown = None
        elif line.startswith("$ wvsim "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None and line.strip():
            shown.append(line)
    return examples


def test_readme_lists_examples():
    assert [cmd.split()[1] for cmd, _ in readme_examples()] == ["weak-value", "compare", "amplify",
                                                                 "amplify"]


@pytest.mark.parametrize("command, shown", [pytest.param(cmd, shown, id=cmd)
                                            for cmd, shown in readme_examples()])
def test_readme_example_output(capsys, command, shown):
    """The output lines the README shows are the real output in order; a
    `...` line stands for any run of elided rows."""
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    pattern = "".join(r"(?:[^\n]*\n)*?" if line == "..." else re.escape(line) + r"\n"
                      for line in shown)
    assert re.fullmatch(pattern, out), out
