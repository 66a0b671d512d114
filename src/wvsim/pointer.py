"""Pointer wavefunctions as superpositions of equal-width shifted Gaussians.

A term c * G_mu denotes c * (2 pi D^2)^(-1/4) exp(-(Q - mu)^2 / (4 D^2)) with
a single width D shared by every term. This family is closed under the
impulsive measurement coupling (momentum generates exact position shifts), and
every inner product has the closed form

    <G_a|G_b> = exp(-(a - b)^2 / (8 D^2)),

so overlaps, moments and Bures angles carry no discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidData

SHIFT_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class PointerState:
    """Superposition sum_k c_k G_{mu_k} of unit-norm Gaussians of one width."""

    width: float
    shifts: tuple[float, ...]
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.width <= 0:
            raise InvalidData(f"width must be positive, got {self.width}")
        if len(self.shifts) != len(self.coeffs) or not self.shifts:
            raise InvalidData("shifts and coefficients must be non-empty and parallel")

    @property
    def terms(self) -> tuple[tuple[float, complex], ...]:
        return tuple(zip(self.shifts, self.coeffs))


@dataclass(frozen=True)
class PointerMixture:
    """Classical mixture sum_i p_i |state_i><state_i| of pointer states."""

    components: tuple[tuple[float, PointerState], ...]

    def __post_init__(self):
        comps = tuple((float(p), state) for p, state in self.components)
        if not comps:
            raise InvalidData("mixture needs at least one component")
        total = sum(p for p, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise InvalidData(f"mixture weights sum to {total}, expected 1")
        for p, state in comps:
            if not 0.0 < p <= 1.0:
                raise InvalidData(f"mixture weight {p} outside (0, 1]")
        object.__setattr__(self, "components", comps)


def _gram(shifts_a: Sequence[float], shifts_b: Sequence[float], width: float) -> np.ndarray:
    """Overlap matrix S_jk = <G_{a_j}|G_{b_k}> = exp(-(a_j - b_k)^2 / (8 D^2))."""
    d = np.subtract.outer(np.asarray(shifts_a, float), np.asarray(shifts_b, float))
    return np.exp(-(d * d) / (8.0 * width * width))


def merge_terms(terms: Iterable[tuple[float, complex]]) -> list[tuple[float, complex]]:
    """Coalesce (shift, amplitude or weight) terms whose shifts agree within
    SHIFT_MERGE_TOL, drop zeros."""
    out: list[list] = []
    for mu, c in sorted(terms, key=lambda t: t[0]):
        if out and abs(mu - out[-1][0]) <= SHIFT_MERGE_TOL:
            out[-1][1] += c
        else:
            out.append([float(mu), c])
    return [(mu, c) for mu, c in out if c != 0.0]


def normalize_terms(width: float, terms: Iterable[tuple[float, complex]]) -> tuple[PointerState, float]:
    """Merge raw (shift, coefficient) terms and rescale to unit norm.

    Returns the normalized state together with the squared norm of the raw
    superposition (when the terms come from a conditioned measurement branch,
    that squared norm is the post-selection probability).
    """
    merged = merge_terms(terms)
    if not merged:
        raise InvalidData("superposition cancelled to the zero function")
    shifts = tuple(mu for mu, _ in merged)
    coeffs = np.array([c for _, c in merged], dtype=complex)
    gram = _gram(shifts, shifts, width)
    norm_sq = float(np.vdot(coeffs, gram @ coeffs).real)
    if norm_sq <= 1e-24:
        raise InvalidData("superposition cancelled to the zero function")
    coeffs = coeffs / math.sqrt(norm_sq)
    return PointerState(float(width), shifts, tuple(map(complex, coeffs))), norm_sq


def gaussian(center: float, width: float) -> PointerState:
    """Unit-norm Gaussian of the given width centered at `center`."""
    if width <= 0:
        raise InvalidData(f"width must be positive, got {width}")
    return PointerState(float(width), (float(center),), (1.0 + 0.0j,))


def superpose(terms: Iterable[tuple[complex, PointerState]]) -> PointerState:
    """Normalized complex combination of pointer states sharing one width."""
    terms = list(terms)
    if not terms:
        raise InvalidData("empty superposition")
    width = terms[0][1].width
    raw: list[tuple[float, complex]] = []
    for coeff, state in terms:
        if state.width != width:
            raise InvalidData(f"widths differ: {state.width} vs {width}")
        for mu, c in state.terms:
            raw.append((mu, complex(coeff) * c))
    state, _ = normalize_terms(width, raw)
    return state


def overlap(a: PointerState, b: PointerState) -> complex:
    """<a|b> from the closed-form Gaussian overlap matrix."""
    if a.width != b.width:
        raise InvalidData(f"widths differ: {a.width} vs {b.width}")
    ca = np.asarray(a.coeffs, dtype=complex)
    cb = np.asarray(b.coeffs, dtype=complex)
    return complex(np.vdot(ca, _gram(a.shifts, b.shifts, a.width) @ cb))


def bures_pure(a: PointerState, b: PointerState) -> float:
    """Bures angle arccos|<a|b>| between pure pointer states, in [0, pi/2].

    The fidelity is clamped to [0, 1] before arccos; it can exceed 1 by a few
    ulp and arccos is steep there.
    """
    return math.acos(min(abs(overlap(a, b)), 1.0))


def bures_mixed(pure: PointerState, mix: PointerMixture) -> float:
    """Bures angle arccos sqrt(<pure|rho|pure>) between a pure state and a
    mixture rho = sum_i p_i |chi_i><chi_i|."""
    fid_sq = 0.0
    for p, comp in mix.components:
        fid_sq += p * abs(overlap(pure, comp)) ** 2
    return math.acos(min(math.sqrt(fid_sq), 1.0))


def mean_position(s: PointerState) -> float:
    """<Q>, using <G_a|Q|G_b> = ((a + b)/2) <G_a|G_b> for equal widths."""
    c = np.asarray(s.coeffs, dtype=complex)
    mus = np.asarray(s.shifts, float)
    centers = 0.5 * np.add.outer(mus, mus)
    return complex(np.vdot(c, (centers * _gram(mus, mus, s.width)) @ c)).real
