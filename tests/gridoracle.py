"""Trapezoidal-quadrature oracle for pointer wavefunctions.

The pointer states are sampled on a uniform grid and integrated with the
trapezoidal rule, a route that shares no code with the closed-form Gram
matrices of `wvsim.pointer`; the tests use it to cross-check those closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wvsim.errors import InvalidData
from wvsim.pointer import PointerState

DEFAULT_GRID_N = 4096
GRID_PADDING_WIDTHS = 8.0


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex wavefunction sampled on a uniform grid, for quadrature."""

    q_min: float
    q_max: float
    n: int
    values: np.ndarray

    @property
    def qs(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n)


def to_grid(s: PointerState, q_min: float | None = None, q_max: float | None = None,
            n: int = DEFAULT_GRID_N) -> GridFunction:
    """Sample the wavefunction on a uniform grid.

    The default range pads the outermost shifts by 8 widths, where Gaussian
    tails sit below 1e-14; an explicit range narrower than that is rejected.
    """
    if n < 16:
        raise InvalidData(f"need at least 16 samples, got {n}")
    lo = min(s.shifts) - GRID_PADDING_WIDTHS * s.width
    hi = max(s.shifts) + GRID_PADDING_WIDTHS * s.width
    if q_min is None:
        q_min = lo
    if q_max is None:
        q_max = hi
    if q_min > lo or q_max < hi:
        raise InvalidData(
            f"grid [{q_min}, {q_max}] does not cover shifts padded to [{lo}, {hi}]")
    qs = np.linspace(q_min, q_max, n)
    vals = np.zeros(n, dtype=complex)
    for mu, c in s.terms:
        vals += c * np.exp(-((qs - mu) ** 2) / (4.0 * s.width ** 2))
    vals *= (2.0 * math.pi * s.width ** 2) ** -0.25
    return GridFunction(float(q_min), float(q_max), int(n), vals)


def grid_inner(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoidal <f|g>; both functions must share the sample grid."""
    if (f.q_min, f.q_max, f.n) != (g.q_min, g.q_max, g.n):
        raise InvalidData("grid functions sampled on different grids")
    return complex(np.trapezoid(np.conj(f.values) * g.values, f.qs))


def grid_overlap(a: PointerState, b: PointerState, n: int = DEFAULT_GRID_N) -> complex:
    """Quadrature estimate of <a|b>, independent of the closed-form route."""
    if a.width != b.width:
        raise InvalidData(f"widths differ: {a.width} vs {b.width}")
    lo = min(min(a.shifts), min(b.shifts)) - GRID_PADDING_WIDTHS * a.width
    hi = max(max(a.shifts), max(b.shifts)) + GRID_PADDING_WIDTHS * a.width
    return grid_inner(to_grid(a, lo, hi, n), to_grid(b, lo, hi, n))
