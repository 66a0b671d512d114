"""Trapezoidal-quadrature oracle for pointer wavefunctions.

A pointer sum_j w_j G_{u_j} is given as (kicks u, weights w, width delta),
sampled on a uniform grid and integrated with the trapezoidal rule, a route
that shares no code with the closed forms of `wvsim.pointer`; the tests use
it to cross-check those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wvsim.errors import InvalidData

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


def padded_range(kicks, delta: float) -> tuple[float, float]:
    """The kicks' span padded by 8 widths, where Gaussian tails sit below 1e-14."""
    return (min(kicks) - GRID_PADDING_WIDTHS * delta,
            max(kicks) + GRID_PADDING_WIDTHS * delta)


def to_grid(kicks, weights, delta: float, q_min: float | None = None,
            q_max: float | None = None, n: int = DEFAULT_GRID_N) -> GridFunction:
    """Sample sum_j w_j G_{u_j} on a uniform grid.

    The default range is `padded_range`; an explicit range narrower than that
    is rejected.
    """
    if n < 16:
        raise InvalidData(f"need at least 16 samples, got {n}")
    lo, hi = padded_range(kicks, delta)
    if q_min is None:
        q_min = lo
    if q_max is None:
        q_max = hi
    if q_min > lo or q_max < hi:
        raise InvalidData(
            f"grid [{q_min}, {q_max}] does not cover shifts padded to [{lo}, {hi}]")
    qs = np.linspace(q_min, q_max, n)
    vals = np.zeros(n, dtype=complex)
    for mu, c in zip(kicks, weights):
        vals += c * np.exp(-((qs - mu) ** 2) / (4.0 * delta ** 2))
    vals *= (2.0 * math.pi * delta ** 2) ** -0.25
    return GridFunction(float(q_min), float(q_max), int(n), vals)


def grid_inner(f: GridFunction, g: GridFunction) -> complex:
    """Trapezoidal <f|g>; both functions must share the sample grid."""
    if (f.q_min, f.q_max, f.n) != (g.q_min, g.q_max, g.n):
        raise InvalidData("grid functions sampled on different grids")
    return complex(np.trapezoid(np.conj(f.values) * g.values, f.qs))


def grid_overlap(a, b, delta: float, n: int = DEFAULT_GRID_N) -> complex:
    """Quadrature estimate of <a|b> for pointers a, b given as (kicks,
    weights) pairs, independent of the closed-form route."""
    lo_a, hi_a = padded_range(a[0], delta)
    lo_b, hi_b = padded_range(b[0], delta)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    return grid_inner(to_grid(*a, delta, lo, hi, n), to_grid(*b, delta, lo, hi, n))


def grid_cos_angle(kicks, weights, delta: float, n: int = DEFAULT_GRID_N) -> float:
    """Quadrature cosine |<G_0|psi>| / ||psi|| of the Bures angle between the
    pointer psi = sum_j w_j G_{u_j} and G_0."""
    psi = (kicks, weights)
    gauss = ([0.0], [1.0])
    return abs(grid_overlap(gauss, psi, delta, n)) / math.sqrt(
        grid_overlap(psi, psi, delta, n).real * grid_overlap(gauss, gauss, delta, n).real)
