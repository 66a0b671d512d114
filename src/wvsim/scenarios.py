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
import operator
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import pointer
from .errors import InvalidData
from .measurement import (CouplingConfig, _check_smallest_kick, _finite_columns,
                          branch_weights, shift_angles, weak_value, weakness)
from .qstate import Observable, SystemState, expectation, make_state, normalize

DEFAULT_EPSILON_GRID = tuple(float(e) for e in np.geomspace(1e-3, 1e-2, 8))
WEAKNESS_THRESHOLD = 1e-2
# over a narrower spread of log abscissae a fitted slope is the distances'
# rounding error divided by that spread, not a scaling law
MIN_LOG_SPREAD = 1e-6
# The smallest g*eps/delta at which every printed column still matches the
# oracle of tests/mporacle.py to 12 digits (tests/test_oracle.py); below it
# underflow leaves digits wrong. In a comparison the sine squared of
# d_weak_vs_eigen, ~(g eps/delta)^4 / 8, turns subnormal first; in the
# amplification table the kicks over delta must themselves be normal floats.
COMPARISON_MIN_KICK = 1e-77
AMPLIFICATION_MIN_KICK = sys.float_info.min
# The canonical selections are shared, so their eigenbases are computed once.
SPIN_Z = Observable.diagonal((-1, 1))
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


def _checked_grid(grid: Iterable[float]) -> tuple[float, ...]:
    """`grid` as a tuple of floats, which must be non-empty, positive, finite
    and strictly increasing."""
    grid = tuple(map(float, grid))
    if not grid:
        raise InvalidData("epsilon grid is empty")
    if not (all(map(math.isfinite, grid)) and min(grid) > 0):
        raise InvalidData("epsilon grid values must be strictly positive and finite")
    if not all(map(operator.lt, grid, grid[1:])):
        raise InvalidData("epsilon grid must be strictly increasing")
    return grid


class ComparisonRow(NamedTuple):
    epsilon: float
    d_eigen: float
    d_weak_vs_eigen: float
    d_expect_vs_eigen: float
    postselect_probability: float
    weakness: float


# a row straight from its six column values, with no Python frame per row
# (ComparisonRow._make also re-checks the length, which zip fixes here)
_comparison_row = partial(tuple.__new__, ComparisonRow)


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


def spin_amplification_scenario(alpha: float, cfg: CouplingConfig) -> ScenarioSpec:
    """Spin-1/2 pre-selected almost opposite to the post-selected direction.

    Pre-selection cos(alpha/2)|up_x> + sin(alpha/2)|down_x>, post-selection
    |up_x>, encoded in the z basis on labels {-1, +1} where sigma_z is
    diagonal. The weak value of sigma_z is tan(alpha/2), which dwarfs the
    +-1 eigenvalue range as alpha approaches pi; the price is a
    post-selection probability of cos^2(alpha/2).
    """
    pre, post = _spin_selections([alpha])
    return ScenarioSpec("spin_amplification", SystemState((-1, 1), tuple(pre[0].tolist())),
                        SPIN_Z, cfg, SystemState((-1, 1), tuple(post.tolist())))


def _spin_selections(alphas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes on labels (-1, 1) of the pre-selection for each alpha, as
    rows of an (n, 2) array, and of the common post-selection."""
    for alpha in alphas:
        if not 0.0 < alpha < math.pi:
            raise InvalidData(f"alpha must lie in (0, pi), got {alpha}")
    c = np.array([math.cos(alpha / 2) for alpha in alphas])
    s = np.array([math.sin(alpha / 2) for alpha in alphas])
    inv = 1.0 / math.sqrt(2.0)
    return (normalize(np.stack([(c - s) * inv, (c + s) * inv], axis=-1)),
            normalize([inv, inv]))


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
    grid = _checked_grid(weak.epsilon_grid if epsilon_grid is None else epsilon_grid)
    if ((weak.cfg.g, weak.cfg.delta) != (expect.cfg.g, expect.cfg.delta)
            or (epsilon_grid is None and expect.epsilon_grid is not weak.epsilon_grid
                and tuple(map(float, expect.epsilon_grid)) != grid)):
        raise InvalidData("scenarios must share g, delta and the epsilon grid")
    a_ref = weak_value(weak.pre, weak.post, weak.observable).real
    a_exp = expectation(expect.observable, expect.pre)
    if abs(a_exp - a_ref) > 1e-9:
        raise InvalidData(
            f"scenarios target different values: weak {a_ref} vs expectation {a_exp}")
    vals, w = branch_weights(weak.pre, weak.post, weak.observable)
    vals_x, born = branch_weights(expect.pre, None, expect.observable)
    g, delta = weak.cfg.g, weak.cfg.delta
    _check_smallest_kick(g, grid[0], delta, COMPARISON_MIN_KICK)
    with _finite_columns(g, grid[-1], delta):
        kick = g * np.array(grid)[:, None]
        columns = (
            pointer.angle(kick * a_ref, [1.0], delta),
            shift_angles(weak.pre, weak.post, weak.observable, g, delta, grid),
            pointer.mixture_angle(kick * (vals_x - a_ref), born, delta),
            np.minimum(pointer.norm_sq(kick * vals, w, delta), 1.0),
            weakness(kick * vals, w, delta),
        )
    return list(map(_comparison_row, zip(grid, *(c.tolist() for c in columns))))


def fit_power_law(points: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line in (log eps, log d): d ~ coefficient * eps^exponent.

    The residual is the maximum absolute log-space deviation and is always
    reported alongside the fit.
    """
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
    if not np.isfinite(pts).all():
        raise InvalidData("power-law fit needs finite abscissae and distances")
    if not (pts > 0).all():
        raise InvalidData("power-law fit needs strictly positive abscissae and distances")
    log_e, log_d = np.log(pts).T
    spread = float(np.ptp(log_e))
    if spread == 0:
        raise InvalidData("power-law fit needs at least two distinct abscissae")
    if spread < MIN_LOG_SPREAD:
        raise InvalidData(f"power-law fit needs abscissae whose logs spread at least "
                          f"{MIN_LOG_SPREAD:g}, got {spread:.12g}")
    # the least-squares line in closed form, from the centred points; the
    # intercept averages log d - slope log eps over the points, which rounds
    # less than mean(log d) - slope mean(log eps) at eps far below 1
    de, dd = log_e - log_e.mean(), log_d - log_d.mean()
    slope = float(de @ dd / (de @ de))
    intercept = float(np.mean(log_d - slope * log_e))
    residual = float(np.max(np.abs(dd - slope * de)))
    return PowerLawFit(exponent=slope, coefficient=math.exp(intercept), residual=residual)


def amplification_sweep(alphas: Iterable[float], cfg: CouplingConfig) -> list[AmplificationRow]:
    """Pointer mean shift in units of g*eps versus tan(alpha/2).

    In the weak regime the shift tracks the weak value tan(alpha/2) even far
    beyond the +-1 eigenvalue range. Rows outside the weak regime are flagged
    rather than dropped: a row counts as weak only while both the selection
    scalar product and the post-selection probability stay within
    WEAKNESS_THRESHOLD of their zero-coupling values.
    """
    alphas = list(alphas)
    if not alphas:
        return []
    pre, post = _spin_selections(alphas)
    # sigma_z is diagonal on the labels, so the amplitudes are the branch ones
    vals, w = SPIN_Z.eigenbasis[0], np.conj(post) * pre
    p0 = np.abs(np.sum(w, axis=-1)) ** 2
    _check_smallest_kick(cfg.g, cfg.epsilon, cfg.delta, AMPLIFICATION_MIN_KICK)
    with _finite_columns(cfg.g, cfg.epsilon, cfg.delta):
        kick = np.float64(cfg.g) * cfg.epsilon
        metric = weakness(kick * vals, w, cfg.delta)
        prob = np.minimum(pointer.norm_sq(kick * vals, w, cfg.delta), 1.0)
        shift = pointer.mean_position(kick * vals, w, cfg.delta) / kick
    weak = (metric <= WEAKNESS_THRESHOLD) & (np.abs(prob - p0) / p0 <= WEAKNESS_THRESHOLD)
    return list(map(AmplificationRow._make,
                    zip((math.tan(alpha / 2) for alpha in alphas), shift.tolist(),
                        prob.tolist(), metric.tolist(), weak.tolist())))
