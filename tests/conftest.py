"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, for the benchmark's operations, grids and cases;
    imported without writing bytecode under perfbench/."""
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
