"""Command-line interface: grammar, CSV contract, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvsim.cli import (
    AMPLIFY_COLUMNS,
    COMPARE_COLUMNS,
    main,
    parse_amplitude,
    parse_grid_spec,
    parse_state_spec,
)
from wvsim.errors import InvalidData
from wvsim.scenarios import AmplificationRow, ComparisonRow

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
        assert state.amplitude(0) / state.amplitude(-1) == pytest.approx(-2.0)

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

    @pytest.mark.parametrize("argv, code, err", [
        ("weak-value --pre=0:1,0:1 --post=0:1,1:1 --obs diag", 2,
         "wvsim: error: label 0 given more than once\n"),
        ("weak-value --pre=0:0,1:0 --post=0:1,1:1 --obs diag", 2,
         "wvsim: error: all amplitudes are zero\n"),
        ("weak-value --pre=0:1,1:1 --post=0:1,1:1 --obs proj:5", 2,
         "wvsim: error: projector label 5 not in basis (0, 1)\n"),
        ("compare --eps-grid 1:1.0000000000000002:5:lin", 2,
         "wvsim: error: epsilon grid must be strictly increasing\n"),
        ("weak-value --pre=0:1,1:0 --post=0:0,1:1 --obs diag", 3,
         "wvsim: |<post|pre>| = 0.000e+00 at or below floor 1.000e-12\n"),
        ("amplify --alpha-tan 1e13 --eps 1e-12", 3,
         "wvsim: pre- and post-selection are orthogonal\n"),
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

    def test_grid_that_rounds_to_repeated_values_exits_2(self, capsys):
        code, out, err = run(capsys, "compare", "--eps-grid", "1:1.0000000000000002:5:lin")
        assert code == 2
        assert out == ""
        assert "epsilon grid must be strictly increasing" in err

    def test_row_fields_follow_the_printed_columns(self):
        # `compare` prints tuple(row), so the fields must be in column order
        field = {"p_postselect": "postselect_probability", "weak_flag": "weak"}
        assert [field.get(c, c) for c in COMPARE_COLUMNS] == list(ComparisonRow._fields)
        amplify = [field.get(c, c) for c in AMPLIFY_COLUMNS]
        assert [f for f in AmplificationRow._fields if f in amplify] == amplify
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

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "compare", "--eps", "0.01", "--format", "pretty")
        assert code == 0
        assert "epsilon" in out and "," not in out.splitlines()[1]


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
        if code == 3:
            assert (out, err.getvalue()) == ("", "wvsim: pre- and post-selection are orthogonal\n")
            return
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == len(tans)
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row[:3])
            assert 0.0 <= float(row[2]) <= 1.0


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
    ], ids=["bool-g", "bool-eps", "unknown-key", "other-command-key", "weak-value-key",
            "format-key"])
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
    assert [cmd.split()[1] for cmd, _ in readme_examples()] == ["weak-value", "compare", "amplify"]


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
