"""Von Neumann measurement protocol with impulsive coupling H = g A P.

Free Hamiltonians are switched off during the interaction window [0, eps], so
the joint unitary is exactly exp(-i g eps A x P): each eigenvalue branch a_j
kicks the pointer rigidly by g * eps * a_j and keeps its system amplitude. A
selection thus leaves the pointer sum_j w_j G_{g eps a_j} of `wvsim.pointer`,
with weights conj(<a_j|post>) <a_j|pre> after post-selection (where weak
values enter), or the Born weights |<a_j|pre>|^2 of a mixture without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import pointer
from .errors import InvalidData, OrthogonalSelection
from .qstate import Observable, SystemState, apply, check_basis, inner

DEFAULT_OVERLAP_FLOOR = 1e-12
_SELECTION_MEMO_SIZE = 32


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strength g, interaction duration epsilon, pointer width delta."""

    g: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if not (0 < self.g < math.inf and 0 < self.epsilon < math.inf
                and 0 < self.delta < math.inf):
            raise InvalidData(
                f"g, epsilon and delta must be positive and finite, got "
                f"({self.g}, {self.epsilon}, {self.delta})")


class ShiftCheck(NamedTuple):
    ideal: float      # centre g*eps*Re(A_w) of the rigidly shifted Gaussian
    distance: float   # Bures angle from the conditioned pointer to it


class _Selection:
    """The quantities of one (pre, post, A) selection, each computed on first
    use. A failed computation raises again on every use, as it is not cached."""

    def __init__(self, pre: SystemState, post: SystemState, a: Observable):
        self.pre, self.post, self.a = pre, post, a

    @cached_property
    def weak_value(self) -> complex:
        denom = inner(self.post, self.pre)
        if abs(denom) <= DEFAULT_OVERLAP_FLOOR:
            raise OrthogonalSelection(f"|<post|pre>| = {abs(denom):.3e} at or below "
                                      f"floor {DEFAULT_OVERLAP_FLOOR:.3e}")
        return complex(np.vdot(self.post.vector, apply(self.a, self.pre))) / denom

    @cached_property
    def branches(self) -> tuple[np.ndarray, np.ndarray]:
        vals, c = _eigen_amplitudes(self.pre, self.a)
        w = np.conj(_eigen_amplitudes(self.post, self.a)[1]) * c
        w.flags.writeable = False
        return vals, w


def _selection(pre: SystemState, post: SystemState, a: Observable) -> _Selection:
    """The `_Selection` of (pre, post, a), shared by every call with the same
    inputs: states match by value and observables by identity, and both are
    immutable. The amplitude bytes join the key because state equality takes
    -0.0 == 0.0, and the sign of a zero amplitude can reach a result."""
    return _selection_memo(pre, post, a, pre.vector.tobytes(), post.vector.tobytes())


@lru_cache(maxsize=_SELECTION_MEMO_SIZE)
def _selection_memo(pre: SystemState, post: SystemState, a: Observable,
                    _pre_bytes: bytes, _post_bytes: bytes) -> _Selection:
    return _Selection(pre, post, a)


def _eigen_amplitudes(state: SystemState, a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues a_j of `a` and the amplitudes <a_j|state>."""
    check_basis(state.labels, a.labels)
    vals, vecs = a.eigenbasis
    return vals, state.vector if vecs is None else vecs.conj().T @ state.vector


def weak_value(pre: SystemState, post: SystemState, a: Observable) -> complex:
    """<post|A|pre> / <post|pre>; complex and unbounded by the spectrum."""
    return _selection(pre, post, a).weak_value


def branch_weights(pre: SystemState, post: SystemState | None,
                   a: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues a_j of `a` and the pointer weight of each branch:
    conj(<a_j|post>) <a_j|pre> after post-selecting `post`, or the Born
    weights |<a_j|pre>|^2 when `post` is None. The kicks are g * eps * a_j.
    The eigenvalues, and the weights after post-selection, are shared
    between calls and read-only."""
    if post is not None:
        return _selection(pre, post, a).branches
    vals, c = _eigen_amplitudes(pre, a)
    return vals, c.real ** 2 + c.imag ** 2


def weakness(kicks, weights, delta):
    """Relative change |<G_0|psi> - sum_j w_j| / |sum_j w_j| of the selection
    amplitude sum_j w_j = <post|pre> when the pointer psi = sum_j w_j G_{u_j}
    is projected back on G_0; broadcasts like `pointer`. Zero means the
    coupling left the two-state selection untouched, order one destroyed it.
    """
    base = np.abs(np.sum(weights, axis=-1))
    if np.any(base <= DEFAULT_OVERLAP_FLOOR):
        raise OrthogonalSelection("pre- and post-selection are orthogonal")
    x = np.asarray(kicks, dtype=float) / delta
    return np.abs(np.sum(weights * np.expm1(-(x * x) / 8.0), axis=-1)) / base


def effective_shift_check(pre: SystemState, post: SystemState, a: Observable,
                          cfg: CouplingConfig) -> ShiftCheck:
    """Compare the conditioned pointer against a rigid shift by g*eps*Re(A_w).

    In the weak regime the distance between them is O(eps^2) while the pointer
    has moved O(eps) away from where it started, so the observable acts on the
    probe like the single number Re(A_w).
    """
    s = _selection(pre, post, a)
    aw = s.weak_value.real
    vals, w = s.branches
    kick = cfg.g * cfg.epsilon
    return ShiftCheck(kick * aw, float(pointer.angle(kick * (vals - aw), w, cfg.delta)))
