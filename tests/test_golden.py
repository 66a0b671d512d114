"""The CLI's bytes on a fixed corpus of invocations.

Each file in `tests/golden/` holds one invocation: its `$ wvsim ...` command
line, the exit code, then stdout and stderr byte for byte. The test runs
every command through `cli.main`, from `tests/golden/`, and compares the
whole record, so a change that moves a printed byte shows as a diff of these
files. A `--config` file a command names sits there too, beside its record.
A few records are also run as `python -m wvsim.cli` processes, which start
and exit through `cli.run` rather than `cli.main`. To add a case, write a
file holding only its command line; to regenerate every file from the
current program, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import ast
import contextlib
import difflib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wvsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parents[1]


def command_of(path: Path) -> str:
    first = path.read_text(encoding="utf-8").partition("\n")[0]
    assert first.startswith("$ wvsim "), path.name
    return first.removeprefix("$ wvsim ")


def record(command: str) -> str:
    """The golden record of one in-process run of `wvsim command` in GOLDEN."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command))
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    finally:
        os.chdir(cwd)
    return (f"$ wvsim {command}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def test_cli_bytes_match_the_golden_corpus():
    paths = sorted(GOLDEN.glob("*.txt"))
    assert len(paths) >= 25
    diffs = []
    for path in paths:
        expected = path.read_text(encoding="utf-8")
        got = record(command_of(path))
        if got != expected:
            diffs += difflib.unified_diff(expected.splitlines(keepends=True),
                                          got.splitlines(keepends=True),
                                          f"golden/{path.name}", "cli.main")
    assert not diffs, "".join(diffs)


def python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """A Python child run in GOLDEN on this checkout's wvsim, its output captured."""
    return subprocess.run([sys.executable, *argv], cwd=GOLDEN, capture_output=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, **kwargs)


def process_record(command: str) -> str:
    """The golden record of `wvsim command` run in GOLDEN as `python -m wvsim.cli`."""
    child = python("-m", "wvsim.cli", *shlex.split(command))
    return (f"$ wvsim {command}\nexit {child.returncode}\n--- stdout\n"
            f"{child.stdout.decode('utf-8')}--- stderr\n{child.stderr.decode('utf-8')}")


# a CSV table, a pretty table, an exit-2 error and an exit-3 OrthogonalSelection
@pytest.mark.parametrize("name", ["readme-compare.txt", "compare-pretty-one-eps.txt",
                                  "weak-value-overflows.txt", "weak-value-orthogonal.txt"])
def test_a_process_run_matches_its_golden_record(name):
    path = GOLDEN / name
    assert process_record(command_of(path)) == path.read_text(encoding="utf-8")


def test_a_process_usage_error_matches_the_in_process_one(monkeypatch):
    # argparse wraps its usage to the terminal's width; pin it for both runs
    monkeypatch.setenv("COLUMNS", "80")
    command = "frobnicate --eps 0.01"
    expected = record(command)
    assert expected.startswith(f"$ wvsim {command}\nexit 2\n--- stdout\n--- stderr\nusage: wvsim ")
    assert process_record(command) == expected


def test_a_process_runs_its_command_with_the_import_objects_frozen():
    # `python -m wvsim.cli` is runpy executing the module as __main__
    code = ("import gc, runpy, sys\n"
            "assert gc.isenabled() and gc.get_freeze_count() == 0\n"
            "sys.argv = ['wvsim', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('wvsim.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    path = GOLDEN / "readme-weak-value.txt"
    child = python("-c", code, *shlex.split(command_of(path)), text=True)
    stdout = path.read_text(encoding="utf-8").partition("--- stdout\n")[2].partition("--- stderr")[0]
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == stdout + "0 True True\n"


def test_the_installed_script_and_python_m_share_one_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, function = pyproject["project"]["scripts"]["wvsim"].partition(":")
    assert module == "wvsim.cli"
    # the module closes with `if __name__ == "__main__": <entry>()`
    block = ast.parse((ROOT / "src" / "wvsim" / "cli.py").read_text(encoding="utf-8")).body[-1]
    assert isinstance(block, ast.If) and ast.unparse(block.test) == "__name__ == '__main__'"
    assert [ast.unparse(line) for line in block.body] == [f"{function}()"]


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.txt")):
        path.write_text(record(command_of(path)), encoding="utf-8", newline="")
        print(path.name, file=sys.stderr)
