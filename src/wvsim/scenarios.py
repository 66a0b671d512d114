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
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidAngle, InvalidData
from .measurement import (
    CouplingConfig,
    no_postselect_mixture,
    post_select,
    weak_value,
    weakness_metric,
)
from .pointer import bures_mixed, bures_pure, gaussian, mean_position
from .qstate import Observable, SystemState, expectation, inner, make_state

DEFAULT_EPSILON_GRID = tuple(float(e) for e in np.geomspace(1e-3, 1e-2, 8))
WEAKNESS_THRESHOLD = 1e-2


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
            raise ValueError("epsilon grid values must be strictly positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("epsilon grid must be strictly increasing")
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


def spin_amplification_scenario(alpha: float, cfg: CouplingConfig,
                                epsilon_grid: Sequence[float] | None = None) -> ScenarioSpec:
    """Spin-1/2 pre-selected almost opposite to the post-selected direction.

    Pre-selection cos(alpha/2)|up_x> + sin(alpha/2)|down_x>, post-selection
    |up_x>, encoded in the z basis on labels {-1, +1} where sigma_z is
    diagonal. The weak value of sigma_z is tan(alpha/2), which dwarfs the
    +-1 eigenvalue range as alpha approaches pi; the price is a
    post-selection probability of cos^2(alpha/2).
    """
    if not 0.0 < alpha < math.pi:
        raise InvalidAngle(f"alpha must lie in (0, pi), got {alpha}")
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    inv = 1.0 / math.sqrt(2.0)
    pre = make_state([(-1, (c - s) * inv), (1, (c + s) * inv)])
    post = make_state([(-1, inv), (1, inv)])
    return ScenarioSpec("spin_amplification", pre, Observable.diagonal((-1, 1)), cfg,
                        post, tuple(epsilon_grid) if epsilon_grid else DEFAULT_EPSILON_GRID)


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
        raise ValueError("need exactly one post-selected and one pre-selected-only scenario")
    weak, expect = selected[0], unselected[0]
    if (weak.cfg.g, weak.cfg.delta) != (expect.cfg.g, expect.cfg.delta):
        raise ValueError("scenarios must share g and delta")
    a_ref = weak_value(weak.pre, weak.post, weak.observable).real
    a_exp = expectation(expect.observable, expect.pre)
    if abs(a_exp - a_ref) > 1e-9:
        raise ValueError(
            f"scenarios target different values: weak {a_ref} vs expectation {a_exp}")
    if epsilon_grid is not None:
        weak = replace(weak, epsilon_grid=epsilon_grid)
    rows = []
    for eps in weak.epsilon_grid:
        cfg = replace(weak.cfg, epsilon=eps)
        phi0 = gaussian(0.0, cfg.delta)
        phi_e = gaussian(cfg.g * eps * a_ref, cfg.delta)
        result = post_select(weak.pre, weak.post, weak.observable, cfg)
        rho = no_postselect_mixture(expect.pre, expect.observable, cfg)
        rows.append(ComparisonRow(
            epsilon=eps,
            d_eigen=bures_pure(phi0, phi_e),
            d_weak_vs_eigen=bures_pure(phi_e, result.pointer),
            d_expect_vs_eigen=bures_mixed(phi_e, rho),
            postselect_probability=result.probability,
            weakness=weakness_metric(weak.pre, weak.post, weak.observable, cfg),
        ))
    return rows


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
    rows = []
    for alpha in alphas:
        spec = spin_amplification_scenario(alpha, cfg)
        result = post_select(spec.pre, spec.post, spec.observable, cfg)
        metric = weakness_metric(spec.pre, spec.post, spec.observable, cfg)
        p0 = abs(inner(spec.post, spec.pre)) ** 2
        drift = abs(result.probability - p0) / p0
        rows.append(AmplificationRow(
            tan_half_alpha=math.tan(alpha / 2),
            mean_shift_over_g_eps=mean_position(result.pointer) / (cfg.g * cfg.epsilon),
            postselect_probability=result.probability,
            weakness=metric,
            weak=metric <= WEAKNESS_THRESHOLD and drift <= WEAKNESS_THRESHOLD,
        ))
    return rows
