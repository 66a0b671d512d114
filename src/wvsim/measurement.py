"""Von Neumann measurement protocol with impulsive coupling H = g A P.

Free Hamiltonians are switched off during the interaction window [0, eps], so
the joint unitary is exactly exp(-i g eps A x P) and each eigenvalue branch
a_j rigidly translates the pointer by g * eps * a_j while leaving the system
amplitudes untouched. Post-selection then conditions the pointer on a final
system state, which is where weak values enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BasisMismatch, OrthogonalSelection, PostSelectionImpossible, ZeroVector
from .pointer import (
    PointerMixture,
    PointerState,
    bures_pure,
    gaussian,
    merge_terms,
    normalize_terms,
)
from .qstate import Observable, SystemState, apply, inner

DEFAULT_OVERLAP_FLOOR = 1e-12


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strength g, interaction duration epsilon, pointer width delta."""

    g: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.g <= 0 or self.epsilon <= 0 or self.delta <= 0:
            raise ValueError(
                f"g, epsilon and delta must be positive, got "
                f"({self.g}, {self.epsilon}, {self.delta})")


@dataclass(frozen=True)
class PostSelectionResult:
    """Conditioned pointer state and the probability of the post-selection."""

    pointer: PointerState
    probability: float


class ShiftCheck(NamedTuple):
    actual: PointerState
    ideal: PointerState
    distance: float


def weak_value(pre: SystemState, post: SystemState, a: Observable,
               floor: float = DEFAULT_OVERLAP_FLOOR) -> complex:
    """<post|A|pre> / <post|pre>; complex and unbounded by the spectrum."""
    denom = inner(post, pre)
    if abs(denom) <= floor:
        raise OrthogonalSelection(
            f"|<post|pre>| = {abs(denom):.3e} at or below floor {floor:.3e}")
    numer = complex(np.vdot(post.vector, apply(a, pre)))
    return numer / denom


def _branches(a: Observable, cfg: CouplingConfig, *states: SystemState):
    """Kicks g * eps * a_j of the initial pointer (width delta, centred at 0)
    and each state's amplitudes in the eigenbasis of `a`."""
    vals, vecs = a.eigenbasis
    amps = []
    for state in states:
        if state.labels != a.labels:
            raise BasisMismatch(f"bases differ: {state.labels} vs {a.labels}")
        amps.append(state.vector if vecs is None else vecs.conj().T @ state.vector)
    return cfg.g * cfg.epsilon * vals, *amps


def post_select(pre: SystemState, post: SystemState, a: Observable,
                cfg: CouplingConfig) -> PostSelectionResult:
    """Couple `pre` to the pointer, project the system on `post` and
    renormalize the conditioned pointer.

    The probability is the squared norm of the unnormalized conditional
    pointer, evaluated with the exact Gaussian Gram matrix (not the weak
    limit |<post|pre>|^2, which it approaches as eps -> 0).
    """
    kicks, c, d = _branches(a, cfg, pre, post)
    weights = np.conj(d) * c
    try:
        pointer, norm_sq = normalize_terms(cfg.delta, zip(kicks, map(complex, weights)))
    except ZeroVector:
        raise PostSelectionImpossible(
            "post-selection amplitude vanishes for every pointer component") from None
    return PostSelectionResult(pointer=pointer, probability=min(norm_sq, 1.0))


def no_postselect_mixture(pre: SystemState, a: Observable,
                          cfg: CouplingConfig) -> PointerMixture:
    """Reduced pointer state when nothing is post-selected.

    Distinct shifts carry mutually orthogonal system branches, so tracing out
    the system yields a classical mixture with one Gaussian per distinct
    shift, weighted by the Born weight of that shift.
    """
    kicks, c = _branches(a, cfg, pre)
    # Python's complex abs, not np.abs: the two differ in the last bit.
    born = merge_terms(zip(kicks, [abs(amp) ** 2 for amp in map(complex, c)]))
    return PointerMixture(tuple((w, gaussian(mu, cfg.delta)) for mu, w in born))


def weakness_metric(pre: SystemState, post: SystemState, a: Observable,
                    cfg: CouplingConfig) -> float:
    """Relative change of the selection scalar product <post|pre> induced by
    the full coupling unitary (pointer returned to its initial Gaussian).

    Zero means the interaction left the two-state selection untouched; values
    of order one mean the coupling destroyed it.
    """
    base = inner(post, pre)
    if abs(base) <= DEFAULT_OVERLAP_FLOOR:
        raise OrthogonalSelection("pre- and post-selection are orthogonal")
    kicks, c, d = _branches(a, cfg, pre, post)
    damping = np.exp(-(kicks ** 2) / (8.0 * cfg.delta ** 2))
    perturbed = complex(np.vdot(d, damping * c))
    return abs(perturbed - base) / abs(base)


def effective_shift_check(pre: SystemState, post: SystemState, a: Observable,
                          cfg: CouplingConfig) -> ShiftCheck:
    """Compare the conditioned pointer against a rigid shift by g*eps*Re(A_w).

    In the weak regime the distance between them is O(eps^2) while the pointer
    has moved O(eps) away from where it started, so the observable acts on the
    probe like the single number Re(A_w).
    """
    aw = weak_value(pre, post, a)
    actual = post_select(pre, post, a, cfg).pointer
    ideal = gaussian(cfg.g * cfg.epsilon * aw.real, cfg.delta)
    return ShiftCheck(actual, ideal, bures_pure(actual, ideal))
