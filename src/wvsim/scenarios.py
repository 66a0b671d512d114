"""Canonical weak-measurement scenarios, epsilon sweeps and power-law fits.

Three couplings to the value 1 are compared through the pointer they leave
behind: an eigenstate with eigenvalue 1, a pre- and post-selected system with
weak value 1 whose selections never populate the matching eigenstate, and a
pre-selected-only superposition with expectation value 1. The sweep driver
tabulates the Bures angles between the resulting pointer states over an
epsilon grid, and log-log fits extract the leading scaling exponents: the
weak-value pointer departs from the eigenvalue pointer only at O(eps^2),
while the expectation-value mixture stays O(eps) away.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import pointer
from .errors import InvalidData, OrthogonalSelection
from .measurement import (DEFAULT_OVERLAP_FLOOR, CouplingConfig, _out_of_range,
                          branch_weights, shift_sweep, weak_value, weakness)
from .qstate import Observable, SystemState, make_state, normalize

DEFAULT_EPSILON_GRID = tuple(float(e) for e in np.geomspace(1e-3, 1e-2, 8))
WEAKNESS_THRESHOLD = 1e-2
# over a narrower spread of log abscissae a fitted slope is the distances'
# rounding error divided by that spread, not a scaling law
MIN_LOG_SPREAD = 1e-6
# The canonical selections are shared, so their eigenbases are computed once.
SPIN_Z = Observable.diagonal((-1, 1))
# |up_x>, the post-selection of every spin amplification row
SPIN_POST = SystemState((-1, 1), tuple(normalize([1 / math.sqrt(2.0)] * 2).tolist()))
WEAK_ONE_PRE = make_state([(-1, 1.0), (0, 1.0), (1, 0.0)])
WEAK_ONE_POST = make_state([(-1, 1.0), (0, -2.0), (1, 0.0)])
WEAK_ONE_OBSERVABLE = Observable.diagonal((-1, 0, 1))
EXPECT_ONE_PRE = make_state([(0, 1.0), (1, 0.0), (2, 1.0)])
EXPECT_ONE_OBSERVABLE = Observable.diagonal((0, 1, 2))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named pre/post-selection experiment plus its sweep grid, which
    `run_comparison` checks when it sweeps it."""

    name: str
    pre: SystemState
    observable: Observable
    cfg: CouplingConfig
    post: SystemState | None = None
    epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID


def _checked_grid(grid: Iterable[float]) -> tuple[np.ndarray, list[float]]:
    """`grid` as one float array and its `tolist()`; the grid must be
    non-empty, positive, finite and strictly increasing. A grid that is
    strictly increasing from a positive first point to a finite last one is
    all of these, so a valid grid costs one comparison of neighbours; the
    message is worked out only for a grid that fails it."""
    eps = np.fromiter(grid, float)
    values = eps.tolist()
    if values and 0 < values[0] and values[-1] < math.inf and (eps[1:] > eps[:-1]).all():
        return eps, values
    if not values:
        raise InvalidData("epsilon grid is empty")
    if not (np.isfinite(eps).all() and eps.min() > 0):
        raise InvalidData("epsilon grid values must be strictly positive and finite")
    raise InvalidData("epsilon grid must be strictly increasing")


class ComparisonRow(NamedTuple):
    epsilon: float
    d_eigen: float
    d_weak_vs_eigen: float
    d_expect_vs_eigen: float
    postselect_probability: float
    weakness: float


class PowerLawFit(NamedTuple):
    exponent: float
    coefficient: float
    residual: float


class AmplificationRow(NamedTuple):
    tan_half_alpha: float
    mean_shift_over_g_eps: float
    postselect_probability: float
    weakness: float
    weak: bool


_amplification_row = partial(tuple.__new__, AmplificationRow)


class AmplificationTable(Sequence):
    """The amplification table as columns: one read-only array of length n
    per `AmplificationRow` field, in field order (`weak` is boolean).

    As a sequence it reads as its `AmplificationRow` rows, which are built
    from the columns' `tolist()` once, on first use. It equals another table
    whose columns are equal, and a list of equal rows.
    """

    # a plain class: making it a dataclass would add about 1 ms to the import
    # of this module, and so to every CLI run
    tan_half_alpha: np.ndarray
    mean_shift_over_g_eps: np.ndarray
    postselect_probability: np.ndarray
    weakness: np.ndarray
    weak: np.ndarray

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(AmplificationRow._fields, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)

    @cached_property
    def _rows(self) -> list[AmplificationRow]:
        return list(map(_amplification_row, zip(
            *(getattr(self, name).tolist() for name in AmplificationRow._fields))))

    def __len__(self) -> int:
        return len(self.weak)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other):
        if isinstance(other, AmplificationTable):
            return all(np.array_equal(getattr(self, name), getattr(other, name))
                       for name in AmplificationRow._fields)
        if isinstance(other, list):
            return self._rows == other
        return NotImplemented


def spin_amplification_scenario(alpha: float, cfg: CouplingConfig) -> ScenarioSpec:
    """Spin-1/2 pre-selected almost opposite to the post-selected direction.

    Pre-selection cos(alpha/2)|up_x> + sin(alpha/2)|down_x>, post-selection
    |up_x>, encoded in the z basis on labels {-1, +1} where sigma_z is
    diagonal. The weak value of sigma_z is tan(alpha/2), which dwarfs the
    +-1 eigenvalue range as alpha approaches pi; the price is a
    post-selection probability of cos^2(alpha/2).
    """
    (pre,) = _spin_selections(np.array([alpha], dtype=float))
    return ScenarioSpec("spin_amplification",
                        SystemState((-1, 1), tuple(pre.astype(complex).tolist())),
                        SPIN_Z, cfg, SPIN_POST)


def _spin_selections(alphas: np.ndarray) -> np.ndarray:
    """Real amplitudes on labels (-1, 1) of the pre-selection for each
    alpha, as unit rows of an (n, 2) array; the post-selection is SPIN_POST
    for every row.

    The steps are `qstate.normalize`'s on real rows, so the result is bit
    for bit `normalize(rows).real`: numpy divides a complex number by a real
    one as a product with the reciprocal.
    """
    bad = ~((alphas > 0.0) & (alphas < math.pi))
    if bad.any():
        raise InvalidData(f"alpha must lie in (0, pi), got {float(alphas[bad.argmax()])}")
    c, s = np.cos(alphas / 2), np.sin(alphas / 2)
    inv = 1.0 / math.sqrt(2.0)
    rows = np.stack([(c - s) * inv, (c + s) * inv], axis=-1)
    # c + s >= |c - s| for alpha in (0, pi), and rounding keeps that order, so
    # the second amplitude is each row's largest, which `normalize` scales to [0.5, 1)
    rows = np.ldexp(rows, -np.frexp(rows[:, 1:])[1])
    return rows * (1.0 / np.sqrt(np.vecdot(rows, rows, keepdims=True)))


def weak_value_one_scenario(cfg: CouplingConfig,
                            epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID) -> ScenarioSpec:
    """Three-level system with weak value 1 while pre- and post-selection both
    leave the eigenvalue-1 state unpopulated."""
    return ScenarioSpec("weak_value_one", WEAK_ONE_PRE, WEAK_ONE_OBSERVABLE, cfg,
                        WEAK_ONE_POST, epsilon_grid)


def expectation_scenario(cfg: CouplingConfig,
                         epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID) -> ScenarioSpec:
    """Pre-selected-only superposition (|0> + |2>)/sqrt(2) with expectation
    value 1, which is not an eigenstate; without post-selection the pointer
    ends in an equal mixture of Gaussians shifted by 0 and 2 g eps."""
    return ScenarioSpec("expectation_one", EXPECT_ONE_PRE, EXPECT_ONE_OBSERVABLE, cfg,
                        None, epsilon_grid)


def run_comparison(specs: Iterable[ScenarioSpec],
                   epsilon_grid: Sequence[float] | None = None) -> list[ComparisonRow]:
    """Tabulate the three pointer distances over the epsilon grid of `specs`.

    `specs` must hold exactly one post-selected scenario and one
    pre-selected-only scenario sharing g, delta and the epsilon grid. The
    eigenvalue reference pointer for each epsilon is the initial Gaussian
    rigidly shifted by g * eps * a, with a the common target value (the weak
    value of the first scenario, which must match the expectation value of
    the second). A given `epsilon_grid` is swept in place of the scenarios'
    grids; it is kept only because the benchmark's `--smoke` self-check in
    `perfbench/run.py` passes one, and goes when that call does. The grid
    swept is checked here, once.
    """
    specs = list(specs)
    selected = [s for s in specs if s.post is not None]
    unselected = [s for s in specs if s.post is None]
    if len(selected) != 1 or len(unselected) != 1:
        raise InvalidData("need exactly one post-selected and one pre-selected-only scenario")
    weak, expect = selected[0], unselected[0]
    eps, grid = _checked_grid(weak.epsilon_grid if epsilon_grid is None else epsilon_grid)
    if ((weak.cfg.g, weak.cfg.delta) != (expect.cfg.g, expect.cfg.delta)
            or (epsilon_grid is None and expect.epsilon_grid is not weak.epsilon_grid
                and list(map(float, expect.epsilon_grid)) != grid)):
        raise InvalidData("scenarios must share g, delta and the epsilon grid")
    a_ref = weak_value(weak.pre, weak.post, weak.observable).real
    vals_x, born = branch_weights(expect.pre, None, expect.observable)
    a_exp = vals_x @ born
    if abs(a_exp - a_ref) > 1e-9:
        raise InvalidData(
            f"scenarios target different values: weak {a_ref} vs expectation {a_exp}")
    vals, w = branch_weights(weak.pre, weak.post, weak.observable)
    g, delta = weak.cfg.g, weak.cfg.delta
    # the five columns after epsilon as one array, so that one tolist() gives
    # them all; overflow and invalid operations raise, as either means
    # g*epsilon/delta is out of range and would print NaN rows
    columns = np.empty((5, len(grid)))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # first, as it rejects a smallest kick below the floor
            columns[1], norms = shift_sweep(weak.pre, weak.post, weak.observable,
                                            (vals, w, a_ref), g, delta, eps, grid)
            kick = g * eps
            # the angle of the eigenvalue pointer, G_0 shifted by g*eps*a_ref
            x = kick * a_ref / delta
            xx = x * x
            np.arctan2(np.sqrt(-np.expm1(xx / -4.0)), np.exp(xx / -8.0), out=columns[0])
            # kicks as the transpose of a terms-first array, the layout in
            # which the kernel sums over the terms
            columns[2] = pointer.mixture_angle(((vals_x - a_ref)[:, None] * kick).T, born, delta)
            np.minimum(norms, 1.0, out=columns[3])
            columns[4] = weakness((vals[:, None] * kick).T, w, delta)
    except FloatingPointError:
        raise _out_of_range(g, grid[-1], delta) from None
    return list(map(tuple.__new__, repeat(ComparisonRow), zip(grid, *columns.tolist())))


def fit_power_law(points: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line in (log eps, log d): d ~ coefficient * eps^exponent.

    The residual is the maximum absolute log-space deviation and is always
    reported alongside the fit.
    """
    if not isinstance(points, list):
        points = list(points)
    n = len(points)
    if n < 4:
        raise InvalidData(f"need at least 4 points for a fit, got {n}")
    try:
        lengths = set(map(len, points))
    except TypeError:  # a point with no length, such as a bare number
        lengths = None
    if lengths != {2}:
        raise InvalidData("power-law fit needs (abscissa, distance) pairs")
    pts = np.fromiter(chain.from_iterable(points), float, 2 * n).reshape(n, 2)
    # a NaN makes both extremes NaN, and an infinity is one of them
    lo, hi = np.minimum.reduce(pts, axis=None), np.maximum.reduce(pts, axis=None)
    if not -math.inf < lo <= hi < math.inf:
        raise InvalidData("power-law fit needs finite abscissae and distances")
    if not lo > 0:
        raise InvalidData("power-law fit needs strictly positive abscissae and distances")
    # log eps and log d as the first row of a (2, 2, n) stack whose second
    # row holds them centred, so that one pass gives both rows' residuals;
    # each mean is the sum np.mean takes, pairwise along a contiguous row, over n
    logs = np.empty((2, 2, n))
    np.log(pts.T, out=logs[0])
    log_e = logs[0, 0]
    spread = float(np.maximum.reduce(log_e) - np.minimum.reduce(log_e))
    if spread == 0:
        raise InvalidData("power-law fit needs at least two distinct abscissae")
    if spread < MIN_LOG_SPREAD:
        raise InvalidData(f"power-law fit needs abscissae whose logs spread at least "
                          f"{MIN_LOG_SPREAD:g}, got {spread:.12g}")
    de, dd = np.subtract(logs[0], (np.add.reduce(logs[0], axis=1) / n)[:, None], out=logs[1])
    # the least-squares line in closed form, from the centred points; the
    # intercept averages log d - slope log eps over the points, which rounds
    # less than mean(log d) - slope mean(log eps) at eps far below 1
    slope = float(de @ dd) / float(de @ de)
    off = logs[:, 1] - slope * logs[:, 0]
    intercept = float(np.add.reduce(off[0])) / n
    residual = float(np.maximum.reduce(np.abs(off[1])))
    return PowerLawFit(exponent=slope, coefficient=math.exp(intercept), residual=residual)


def amplification_sweep(alphas: Iterable[float], cfg: CouplingConfig) -> AmplificationTable:
    """Pointer mean shift in units of g*eps versus tan(alpha/2), as columns.

    In the weak regime the shift tracks the weak value tan(alpha/2) even far
    beyond the +-1 eigenvalue range. Rows outside the weak regime are flagged
    rather than dropped: a row counts as weak only while both the selection
    scalar product and the post-selection probability stay within
    WEAKNESS_THRESHOLD of their zero-coupling values.

    The pointer q (p1 G_{-u} + p2 G_u), with u = g*eps, post amplitude q and
    pre-selection (p1, p2), has closed-form moments in A = p1 + p2,
    B = p2 - p1 and S = <G_{-u}|G_u> = exp(-x^2 / 2), x = u / delta:
    norm^2 = q^2 (A^2 (1 + S) + B^2 (1 - S)) / 2 and <Q> = u q^2 A B / norm^2.
    Every sum there is over non-negative terms, A is exact for tan >= 3
    (Sterbenz), B for tan <= 1/3, and 1 - S is -expm1(-x^2 / 2), so each
    column keeps its last digits however small <post|pre> = q A or the kick;
    the normalisation q^2 (A^2 + B^2) = 1 is taken from the rounded
    amplitudes themselves. The tan column is `math.tan`'s: `np.tan`
    differs from it by an ulp on about 0.4% of tan(alpha/2) in [1, 1e5].
    """
    alphas = np.fromiter(alphas, float)
    n = alphas.size
    if not n:
        return AmplificationTable(*(np.empty(0) for _ in range(4)), np.empty(0, bool))
    pre = _spin_selections(alphas)
    p1, p2 = pre[:, 0], pre[:, 1]
    a, b = p1 + p2, p2 - p1
    # errors in the order of the general kernel: an overflowing g*eps, an
    # orthogonal selection, then an overflowing x or x^2 (h is finite only
    # if both are)
    kick = float(cfg.g) * float(cfg.epsilon)
    if not math.isfinite(kick):
        raise _out_of_range(cfg.g, cfg.epsilon, cfg.delta)
    if np.abs(a).min() * SPIN_POST.amplitudes[0].real <= DEFAULT_OVERLAP_FLOOR:
        raise OrthogonalSelection("pre- and post-selection are orthogonal")
    x = kick / float(cfg.delta)
    h = x * x / -2.0
    if not math.isfinite(h):
        raise _out_of_range(cfg.g, cfg.epsilon, cfg.delta)
    s, one_minus_s = math.exp(h), -math.expm1(h)
    metric = -math.expm1(h / 4.0)
    a2, b2 = a * a, b * b
    denom = a2 * (1.0 + s) + b2 * one_minus_s
    # |p - p0| / p0 with p0 = A^2 / (A^2 + B^2), the probability at zero kick
    drift = one_minus_s * np.abs(b2 - a2) / (2.0 * a2)
    return AmplificationTable(
        np.fromiter(map(math.tan, (alphas / 2).tolist()), float, n),
        2.0 * a * b / denom,
        np.minimum(denom / (2.0 * (a2 + b2)), 1.0),
        np.full(n, metric),
        (drift <= WEAKNESS_THRESHOLD) & (metric <= WEAKNESS_THRESHOLD))
