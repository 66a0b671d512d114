"""The CLI's bytes on a fixed corpus of invocations.

Each file in `tests/golden/` holds one invocation: its `$ wvsim ...` command
line, the exit code, then stdout and stderr byte for byte. The test runs
every command through `cli.main` and compares the whole record, so a change
that moves a printed byte shows as a diff of these files. To add a case,
write a file holding only its command line; to regenerate every file from
the current program, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import difflib
import io
import shlex
import sys
from pathlib import Path

from wvsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def command_of(path: Path) -> str:
    first = path.read_text(encoding="utf-8").partition("\n")[0]
    assert first.startswith("$ wvsim "), path.name
    return first.removeprefix("$ wvsim ")


def record(command: str) -> str:
    """The golden record of one in-process run of `wvsim command`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
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


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.txt")):
        path.write_text(record(command_of(path)), encoding="utf-8", newline="")
        print(path.name, file=sys.stderr)
