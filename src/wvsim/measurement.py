"""Von Neumann measurement protocol with impulsive coupling H = g A P.

Free Hamiltonians are switched off during the interaction window [0, eps], so
the joint unitary is exactly exp(-i g eps A x P): each eigenvalue branch a_j
kicks the pointer rigidly by g * eps * a_j and keeps its system amplitude. A
selection thus leaves the pointer sum_j w_j G_{g eps a_j} of `wvsim.pointer`,
with weights conj(<a_j|post>) <a_j|pre> after post-selection (where weak
values enter), or the Born weights |<a_j|pre>|^2 of a mixture without it.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pointer
from .errors import InvalidData, OrthogonalSelection
from .qstate import Observable, SystemState

DEFAULT_OVERLAP_FLOOR = 1e-12
# The smallest g*eps/delta at which the shift angles, and with them every
# column of a comparison, still match the oracle of tests/mporacle.py to 12
# digits (tests/test_oracle.py): below it the sine squared of the angle,
# ~(g eps/delta)^4 / 8, turns subnormal and underflow leaves digits wrong.
COMPARISON_MIN_KICK = 1e-77


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strength g, interaction duration epsilon, pointer width delta."""

    g: float
    epsilon: float
    delta: float

    def __init__(self, g: float, epsilon: float, delta: float):
        # by hand: callers build one per epsilon, and __post_init__ costs a third more
        if not (0 < g < math.inf and 0 < epsilon < math.inf and 0 < delta < math.inf):
            raise InvalidData(f"g, epsilon and delta must be positive and finite, got "
                              f"({g}, {epsilon}, {delta})")
        vars(self).update(g=g, epsilon=epsilon, delta=delta)


class ShiftCheck(NamedTuple):
    """`ideal` is the centre g*eps*Re(A_w) of the rigidly shifted Gaussian;
    `distance` is the Bures angle from the conditioned pointer to it, which
    is the `d_weak_vs_eigen` angle that `run_comparison` tabulates."""

    ideal: float
    distance: float


def _check_basis(state: SystemState, a: Observable) -> None:
    if state.labels != a.labels:
        raise InvalidData(f"bases differ: {state.labels} vs {a.labels}")


def _eigen_amplitudes(state: SystemState, a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues a_j of `a` and the amplitudes <a_j|state>."""
    _check_basis(state, a)
    vals, vecs = a.eigenbasis
    return vals, state.vector if vecs is None else vecs.conj().T @ state.vector


def weak_value(pre: SystemState, post: SystemState, a: Observable) -> complex:
    """<post|A|pre> / <post|pre>; complex and unbounded by the spectrum."""
    _check_basis(pre, a)
    _check_basis(post, a)
    denom = complex(np.vdot(post.vector, pre.vector))
    if abs(denom) <= DEFAULT_OVERLAP_FLOOR:
        raise OrthogonalSelection(f"|<post|pre>| = {abs(denom):.3e} at or below "
                                  f"floor {DEFAULT_OVERLAP_FLOOR:.3e}")
    try:  # an overflow raises here under a caller's np.errstate, as in a shift sweep
        value = complex(np.vdot(post.vector, a.matrix @ pre.vector)) / denom
    except FloatingPointError:
        value = cmath.nan
    if not cmath.isfinite(value):
        raise InvalidData("weak value <post|A|pre>/<post|pre> is out of floating-point range")
    return value


def branch_weights(pre: SystemState, post: SystemState | None,
                   a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues a_j of `a` and the pointer weight of each branch:
    conj(<a_j|post>) <a_j|pre> after post-selecting `post`, or the Born
    weights |<a_j|pre>|^2 when `post` is None. The kicks are g * eps * a_j.
    The eigenvalues are shared between calls and read-only."""
    vals, c = _eigen_amplitudes(pre, a)
    if post is not None:
        return vals, np.conj(_eigen_amplitudes(post, a)[1]) * c
    return vals, c.real ** 2 + c.imag ** 2


def weakness(kicks, weights, delta):
    """Relative change |<G_0|psi> - sum_j w_j| / |sum_j w_j| of the selection
    amplitude sum_j w_j = <post|pre> when the pointer psi = sum_j w_j G_{u_j}
    is projected back on G_0; broadcasts like `pointer`. Zero means the
    coupling left the two-state selection untouched, order one destroyed it.
    The real and imaginary parts of the change are one reduce over the term
    axis of a (terms, 2, ...) stack, which adds the terms in order.
    """
    x, w, _ = pointer._nonzero_terms(kicks, weights, delta)
    # np.abs: Python's abs of a numpy complex scalar rounds differently
    base = np.abs(np.add.reduce(w))
    if base <= DEFAULT_OVERLAP_FLOOR:
        raise OrthogonalSelection("pre- and post-selection are orthogonal")
    w = w.reshape((-1, 1) + (1,) * (x.ndim - 1))
    parts = np.concatenate((w.real, w.imag), axis=1) * np.expm1(x * x / -8.0)[:, None]
    return np.hypot(*np.add.reduce(parts, axis=0)) / base


def _out_of_range(g: float, epsilon: float, delta: float) -> InvalidData:
    return InvalidData(f"g*epsilon/delta is out of floating-point range for "
                       f"g={g}, epsilon={epsilon}, delta={delta}")


def _check_smallest_kick(g: float, epsilon: float, delta: float) -> None:
    """Reject a smallest kick whose angles would carry digits that underflow
    made wrong: g*epsilon must be a normal float and g*epsilon/delta at least
    COMPARISON_MIN_KICK."""
    kick = g * epsilon
    if not (kick >= sys.float_info.min and kick / delta >= COMPARISON_MIN_KICK):
        raise _out_of_range(g, epsilon, delta)


# (pre, post, A, g, delta, Re(A_w), grid, angle list) of the last `shift_sweep`,
# the one place `effective_shift_check` reads a distance; only the objects swept hit
_sweep = None


def shift_sweep(pre: SystemState, post: SystemState, a: Observable,
                g: float, delta: float, eps: np.ndarray, grid: list[float]):
    """(Re(A_w), eigenvalues, weights) of the selection of pre, post and A, then
    the read-only shift angles (`d_weak_vs_eigen`) and squared norms of its
    conditioned pointer over the strictly increasing float array `eps` (`grid`
    is its `tolist()`) from one kernel call. The only code that computes a
    shift distance: the sweep replaces the one kept for `effective_shift_check`,
    unless it raises. The caller evaluates it with numpy's overflow, divide and
    invalid errors raising, as `run_comparison` does: a FloatingPointError then
    means g*eps/delta is out of range at the largest eps."""
    global _sweep
    aw = weak_value(pre, post, a).real
    vals, w = branch_weights(pre, post, a)
    _check_smallest_kick(g, grid[0], delta)
    angles, norms = pointer.angle_and_norm((vals - aw)[:, None] * (g * eps), w, delta)
    angles.flags.writeable = False
    _sweep = (pre, post, a, g, delta, aw, grid, angles.tolist())
    return aw, vals, w, angles, norms


def effective_shift_check(pre: SystemState, post: SystemState, a: Observable,
                          cfg: CouplingConfig) -> ShiftCheck:
    """Compare the conditioned pointer against a rigid shift by g*eps*Re(A_w).

    In the weak regime the distance between them is O(eps^2) while the pointer
    has moved O(eps) away from where it started, so the observable acts on the
    probe like the single number Re(A_w). The distance is the
    `d_weak_vs_eigen` angle of the last `shift_sweep`: when that covered these
    pre, post and A objects, g, delta and eps it is read as it stands, and
    otherwise a one-point sweep over eps replaces it first.
    """
    g, eps, delta = cfg.g, cfg.epsilon, cfg.delta
    sweep = _sweep
    if not (sweep is not None and sweep[0] is pre and sweep[1] is post and sweep[2] is a
            and sweep[3] == g and sweep[4] == delta
            and (i := bisect_left(sweep[6], eps)) < len(sweep[6]) and sweep[6][i] == eps):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                shift_sweep(pre, post, a, g, delta, np.array([eps]), [eps])
        except FloatingPointError:
            raise _out_of_range(g, eps, delta) from None
        sweep, i = _sweep, 0
    ideal = g * eps * sweep[5]
    if not math.isfinite(ideal):
        raise _out_of_range(g, eps, delta)
    return ShiftCheck(ideal, sweep[7][i])
