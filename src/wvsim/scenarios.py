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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import pointer
from .errors import InvalidData
from .measurement import CouplingConfig, branch_weights, weak_value, weakness
from .qstate import Observable, SystemState, expectation, make_state, normalize

DEFAULT_EPSILON_GRID = tuple(float(e) for e in np.geomspace(1e-3, 1e-2, 8))
WEAKNESS_THRESHOLD = 1e-2
SPIN_Z = Observable.diagonal((-1, 1))  # shared, so its eigenbasis is computed once


@dataclass(frozen=True)
class ScenarioSpec:
    """A named pre/post-selection experiment plus its sweep grid."""

    name: str
    pre: SystemState
    observable: Observable
    cfg: CouplingConfig
    post: SystemState | None = None
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID

    def __post_init__(self):
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid or any(e <= 0 for e in grid):
            raise InvalidData("epsilon grid values must be strictly positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidData("epsilon grid must be strictly increasing")
        object.__setattr__(self, "epsilon_grid", grid)


@dataclass(frozen=True)
class ComparisonRow:
    epsilon: float
    d_eigen: float
    d_weak_vs_eigen: float
    d_expect_vs_eigen: float
    postselect_probability: float
    weakness: float


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    coefficient: float
    residual: float


@dataclass(frozen=True)
class AmplificationRow:
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
                            epsilon_grid: Sequence[float] | None = None) -> ScenarioSpec:
    """Three-level system with weak value 1 while pre- and post-selection both
    leave the eigenvalue-1 state unpopulated."""
    pre = make_state([(-1, 1.0), (0, 1.0), (1, 0.0)])
    post = make_state([(-1, 1.0), (0, -2.0), (1, 0.0)])
    return ScenarioSpec("weak_value_one", pre, Observable.diagonal((-1, 0, 1)), cfg,
                        post, tuple(epsilon_grid) if epsilon_grid else DEFAULT_EPSILON_GRID)


def expectation_scenario(cfg: CouplingConfig,
                         epsilon_grid: Sequence[float] | None = None) -> ScenarioSpec:
    """Pre-selected-only superposition (|0> + |2>)/sqrt(2) with expectation
    value 1, which is not an eigenstate; without post-selection the pointer
    ends in an equal mixture of Gaussians shifted by 0 and 2 g eps."""
    pre = make_state([(0, 1.0), (1, 0.0), (2, 1.0)])
    return ScenarioSpec("expectation_one", pre, Observable.diagonal((0, 1, 2)), cfg,
                        None, tuple(epsilon_grid) if epsilon_grid else DEFAULT_EPSILON_GRID)


def run_comparison(specs: Iterable[ScenarioSpec],
                   epsilon_grid: Sequence[float] | None = None) -> list[ComparisonRow]:
    """Tabulate the three pointer distances over an epsilon sweep.

    `specs` must hold exactly one post-selected scenario and one
    pre-selected-only scenario sharing g and delta. The eigenvalue reference
    pointer for each epsilon is the initial Gaussian rigidly shifted by
    g * eps * a, with a the common target value (the weak value of the first
    scenario, which must match the expectation value of the second). An
    explicit `epsilon_grid` replaces the post-selected scenario's grid and is
    validated the same way.
    """
    specs = list(specs)
    selected = [s for s in specs if s.post is not None]
    unselected = [s for s in specs if s.post is None]
    if len(selected) != 1 or len(unselected) != 1:
        raise InvalidData("need exactly one post-selected and one pre-selected-only scenario")
    weak, expect = selected[0], unselected[0]
    if (weak.cfg.g, weak.cfg.delta) != (expect.cfg.g, expect.cfg.delta):
        raise InvalidData("scenarios must share g and delta")
    a_ref = weak_value(weak.pre, weak.post, weak.observable).real
    a_exp = expectation(expect.observable, expect.pre)
    if abs(a_exp - a_ref) > 1e-9:
        raise InvalidData(
            f"scenarios target different values: weak {a_ref} vs expectation {a_exp}")
    if epsilon_grid is not None:
        weak = replace(weak, epsilon_grid=epsilon_grid)
    vals, w = branch_weights(weak.pre, weak.post, weak.observable)
    vals_x, born = branch_weights(expect.pre, None, expect.observable)
    g, delta = weak.cfg.g, weak.cfg.delta
    with _finite_columns(g, weak.epsilon_grid[-1], delta):
        kick = g * np.array(weak.epsilon_grid)[:, None]
        columns = (
            pointer.angle(kick * a_ref, [1.0], delta),
            pointer.angle(kick * (vals - a_ref), w, delta),
            pointer.mixture_angle(kick * (vals_x - a_ref), born, delta),
            np.minimum(pointer.norm_sq(kick * vals, w, delta), 1.0),
            weakness(kick * vals, w, delta),
        )
    return [ComparisonRow(eps, *row)
            for eps, row in zip(weak.epsilon_grid, np.transpose(columns).tolist())]


@contextmanager
def _finite_columns(g: float, epsilon: float, delta: float):
    """Evaluate pointer columns with overflow and invalid operations raising:
    either means g*epsilon/delta is out of range, and would print NaN rows."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise InvalidData(f"g*epsilon/delta is out of floating-point range for "
                          f"g={g}, epsilon={epsilon}, delta={delta}") from None


def fit_power_law(points: Iterable[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line in (log eps, log d): d ~ coefficient * eps^exponent.

    The residual is the maximum absolute log-space deviation and is always
    reported alongside the fit.
    """
    pts = [(float(e), float(d)) for e, d in points]
    if len(pts) < 4:
        raise InvalidData(f"need at least 4 points for a fit, got {len(pts)}")
    if any(e <= 0 or d <= 0 for e, d in pts):
        raise InvalidData("power-law fit needs strictly positive abscissae and distances")
    log_e = np.log([e for e, _ in pts])
    log_d = np.log([d for _, d in pts])
    slope, intercept = np.polyfit(log_e, log_d, 1)
    residual = float(np.max(np.abs(log_d - (slope * log_e + intercept))))
    return PowerLawFit(exponent=float(slope), coefficient=math.exp(float(intercept)),
                       residual=residual)


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
    with _finite_columns(cfg.g, cfg.epsilon, cfg.delta):
        kick = np.float64(cfg.g) * cfg.epsilon
        metric = weakness(kick * vals, w, cfg.delta)
        prob = np.minimum(pointer.norm_sq(kick * vals, w, cfg.delta), 1.0)
        shift = pointer.mean_position(kick * vals, w, cfg.delta) / kick
    weak = (metric <= WEAKNESS_THRESHOLD) & (np.abs(prob - p0) / p0 <= WEAKNESS_THRESHOLD)
    return [AmplificationRow(math.tan(alpha / 2), *row) for alpha, row in
            zip(alphas, zip(shift.tolist(), prob.tolist(), metric.tolist(), weak.tolist()))]
