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
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import pointer
from .errors import InvalidData
from .measurement import CouplingConfig, _out_of_range, branch_weights, shift_sweep, weakness
from .qstate import Observable, SystemState, make_state

DEFAULT_EPSILON_GRID = tuple(float(e) for e in np.geomspace(1e-3, 1e-2, 8))
WEAKNESS_THRESHOLD = 1e-2
# over a narrower spread of log abscissae a fitted slope is the distances'
# rounding error divided by that spread, not a scaling law
MIN_LOG_SPREAD = 1e-6
# The canonical selections are shared, so their eigenbases are computed once.
# sigma_z and |up_x>, the post-selection of every spin amplification row, in
# the basis |up_x>, |down_x> (labels 0, 1) of that post-selection
SPIN_OBSERVABLE = Observable((0, 1), [[0, 1], [1, 0]])
SPIN_POST = make_state([(0, 1.0), (1, 0.0)])
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
    weak: bool


_amplification_row = partial(tuple.__new__, AmplificationRow)


class AmplificationTable:
    """The amplification table as columns: one read-only array of length n
    per `AmplificationRow` field, in field order (`weak` is boolean).

    Iterating it yields its `AmplificationRow` rows, each built from the
    columns' `tolist()` as it is read. It equals another table whose columns
    are equal.
    """

    # a plain class: making it a dataclass would add about 1 ms to the import
    # of this module, and so to every CLI run
    tan_half_alpha: np.ndarray
    mean_shift_over_g_eps: np.ndarray
    postselect_probability: np.ndarray
    weak: np.ndarray

    def __init__(self, *columns: np.ndarray):
        for name, column in zip(AmplificationRow._fields, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.weak)

    def __iter__(self):
        return map(_amplification_row, zip(
            *(getattr(self, name).tolist() for name in AmplificationRow._fields)))

    def __eq__(self, other):
        if not isinstance(other, AmplificationTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in AmplificationRow._fields)


def spin_amplification_scenario(alpha: float, cfg: CouplingConfig) -> ScenarioSpec:
    """Spin-1/2 pre-selected almost opposite to the post-selected direction.

    Pre-selection proportional to |up_x> + t|down_x> with t = tan(alpha/2),
    that is cos(alpha/2)|up_x> + sin(alpha/2)|down_x>, post-selection |up_x>,
    written in the basis of the post-selection: labels 0 and 1 for |up_x>
    and |down_x>, on which sigma_z swaps the two. The weak value of sigma_z
    is t, which dwarfs the +-1 eigenvalue range as alpha approaches pi; the
    price is a post-selection probability of cos^2(alpha/2) = 1/(1+t^2).
    """
    (t,) = _half_angle_tans(np.array([alpha], dtype=float)).tolist()
    return ScenarioSpec("spin_amplification", make_state([(0, 1.0), (1, t)]),
                        SPIN_OBSERVABLE, cfg, SPIN_POST)


def _half_angle_tans(alphas: np.ndarray) -> np.ndarray:
    """tan(alpha/2) of each alpha, by `math.tan`, which differs from `np.tan`
    by an ulp on about 0.4% of tan(alpha/2) in [1, 1e5]; each alpha must lie
    in (0, pi), which a NaN fails and an empty array passes."""
    if not (alphas.min(initial=math.inf) > 0.0 and alphas.max(initial=-math.inf) < math.pi):
        bad = ~((alphas > 0.0) & (alphas < math.pi))
        raise InvalidData(f"alpha must lie in (0, pi), got {float(alphas[bad.argmax()])}")
    return np.fromiter(map(math.tan, (alphas / 2).tolist()), float, alphas.size)


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
    g, delta = weak.cfg.g, weak.cfg.delta
    # the five columns after epsilon as one array, so that one tolist() gives
    # them all; overflow and invalid operations raise, as either means
    # g*epsilon/delta is out of range and would print NaN rows
    columns = np.empty((5, len(grid)))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # first, so its selection and smallest kick are checked before the partner
            a_ref, vals, w, columns[1], norms = shift_sweep(
                weak.pre, weak.post, weak.observable, g, delta, eps, grid)
            vals_x, born = branch_weights(expect.pre, None, expect.observable)
            a_exp = vals_x @ born
            if abs(a_exp - a_ref) > 1e-9:
                raise InvalidData(
                    f"scenarios target different values: weak {a_ref} vs expectation {a_exp}")
            kick = g * eps
            # the angle of the eigenvalue pointer, G_0 shifted by g*eps*a_ref
            x = kick * a_ref / delta
            xx = x * x
            np.arctan2(np.sqrt(-np.expm1(xx / -4.0)), np.exp(xx / -8.0), out=columns[0])
            columns[2] = pointer.mixture_angle((vals_x - a_ref)[:, None] * kick, born, delta)
            np.minimum(norms, 1.0, out=columns[3])
            columns[4] = weakness(vals[:, None] * kick, w, delta)
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
    try:
        coefficient = math.exp(intercept)
    except OverflowError:
        coefficient = math.inf
    # a subnormal or zero coefficient would print digits that underflow lost
    if not sys.float_info.min <= coefficient < math.inf:
        raise InvalidData(f"power-law fit coefficient exp({intercept:.12g}) is out of "
                          f"floating-point range")
    return PowerLawFit(exponent=slope, coefficient=coefficient, residual=residual)


def amplification_sweep(alphas: Iterable[float], cfg: CouplingConfig) -> AmplificationTable:
    """Pointer mean shift in units of g*eps versus tan(alpha/2), as columns.

    In the weak regime the shift tracks the weak value tan(alpha/2) even far
    beyond the +-1 eigenvalue range. Rows outside the weak regime are flagged
    rather than dropped: a row counts as weak only while both the selection
    scalar product and the post-selection probability stay within
    WEAKNESS_THRESHOLD of their zero-coupling values.

    Every column is a closed form in t = tan(alpha/2), the tan column itself,
    and S = <G_{-u}|G_u> = exp(-x^2 / 2) with u = g*eps and x = u / delta.
    The pre-selection |up_x> + t|down_x> of `spin_amplification_scenario`
    leaves the post-selected pointer ((1+t) G_u + (1-t) G_{-u}) / 2, so with
    D = (1+S) + t^2 (1-S) the mean shift over u is 2t / D, the
    post-selection probability D / (2(1+t^2)) and its drift from the
    zero-kick 1/(1+t^2) is (1-S)|t^2-1| / 2. Every sum there is over
    non-negative terms and 1 - S is -expm1(-x^2 / 2), so each column holds
    about one ulp at the float t however small 1/(1+t^2) or the kick; t is
    at most about 3.5e15 for alpha below pi, so t^2 cannot overflow.
    """
    t = _half_angle_tans(np.fromiter(alphas, float))
    # an overflowing g*eps, x or x^2 leaves h infinite
    x = float(cfg.g) * float(cfg.epsilon) / float(cfg.delta)
    h = x * x / -2.0
    if not math.isfinite(h):
        raise _out_of_range(cfg.g, cfg.epsilon, cfg.delta)
    s, one_minus_s = math.exp(h), -math.expm1(h)
    t2 = t * t
    # 2t / D over a = max(t, 1): for t >= 1 it is 2 / ((1+S)/t + t(1-S)),
    # which does not round t^2; t/a is t or exactly 1
    a = np.maximum(t, 1.0)
    b = t / a
    # D / (2(1+t^2)) as (1-S)/2 + S/(1+t^2), which rounds less; it is at
    # most (1+S)/2, so rounding cannot take it above 1
    return AmplificationTable(
        t, 2.0 * b / ((1.0 + s) / a + t * (b * one_minus_s)),
        one_minus_s / 2.0 + s / (1.0 + t2),
        # the drift (1-S)|t^2-1|/2 and the weakness 1-exp(-x^2/8) within the threshold
        (one_minus_s * np.abs(t2 - 1.0) <= 2.0 * WEAKNESS_THRESHOLD)
        & (-math.expm1(h / 4.0) <= WEAKNESS_THRESHOLD))
