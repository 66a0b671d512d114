"""Finite-dimensional complex Hilbert-space primitives.

States and observables live on an ordered basis of integer labels. Everything
is dense: the systems of interest never exceed dimension ~16, so exactness and
simplicity win over sparse machinery.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidData

HERMITICITY_TOL = 1e-12
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class SystemState:
    """Unit-norm state vector over an ordered integer-labeled basis."""

    labels: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    @cached_property
    def vector(self) -> np.ndarray:
        """The amplitudes as a complex array; computed once, read-only."""
        vec = np.asarray(self.amplitudes, dtype=complex)
        vec.flags.writeable = False
        return vec

    def amplitude(self, label: int) -> complex:
        return self.amplitudes[self.labels.index(label)]


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator on the same ordered basis as the states.

    A matrix within HERMITICITY_TOL * max|A| of Hermitian is accepted and
    replaced by its Hermitian part m/2 + m^H/2, so the stored matrix is
    exactly Hermitian; an exactly Hermitian matrix is stored as given.
    """

    labels: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        labels = tuple(int(lab) for lab in self.labels)
        if len(set(labels)) != len(labels):
            raise InvalidData(f"observable labels {labels} are not distinct")
        if list(labels) != sorted(labels):
            raise InvalidData(f"observable labels {labels} must be sorted ascending")
        m = np.array(self.matrix, dtype=complex)
        n = len(labels)
        if m.shape != (n, n):
            raise InvalidData(f"matrix shape {m.shape} does not match {n} labels")
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise InvalidData(f"matrix entry ({labels[i]}, {labels[j]}) is not finite: {m[i, j]}")
        herm = m.conj().T
        residue = np.max(np.abs(m - herm))
        if residue > HERMITICITY_TOL * np.max(np.abs(m)):
            raise InvalidData("matrix is not equal to its conjugate transpose")
        if residue:
            m = m * 0.5 + herm * 0.5  # halved first, so no entry can overflow
        m.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def diagonal(cls, labels: Sequence[int], values: Sequence[complex] | None = None) -> "Observable":
        """diag(values) on the given labels; values default to the labels
        themselves, i.e. the integer observable sum_j j |j><j|."""
        labels = tuple(int(lab) for lab in labels)
        if values is None:
            values = labels
        return cls(labels, np.diag(np.asarray(values, dtype=complex)))

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Eigenvalues and, if the matrix is not diagonal, its eigenvectors as
        columns; None means the label basis already diagonalizes it. Computed
        once per observable; both arrays are read-only. Off-diagonal entries
        within DIAGONAL_TOL * max|A| of zero count as zero."""
        m = self.matrix
        off = m - np.diag(np.diagonal(m))
        if np.max(np.abs(off)) <= DIAGONAL_TOL * np.max(np.abs(m)):
            vals, vecs = np.real(np.diagonal(m)).copy(), None
        else:
            vals, vecs = np.linalg.eigh(m)
            vecs.flags.writeable = False
        vals.flags.writeable = False
        return vals, vecs


def make_state(pairs: Iterable[tuple[int, complex]]) -> SystemState:
    """Build a normalized state from (label, amplitude) pairs.

    Labels are sorted ascending; a repeated label is an error, not a merge.
    """
    items = [(int(label), complex(amp)) for label, amp in pairs]
    seen: set[int] = set()
    for label, amp in items:
        if label in seen:
            raise InvalidData(f"label {label} given more than once")
        if not cmath.isfinite(amp):
            raise InvalidData(f"amplitude of label {label} is not finite: {amp}")
        seen.add(label)
    items.sort(key=lambda t: t[0])
    vec = normalize(np.array([amp for _, amp in items], dtype=complex))
    return SystemState(tuple(label for label, _ in items), tuple(vec.tolist()))


def normalize(vec) -> np.ndarray:
    """Each row of finite amplitudes `vec` (its last axis) divided by its
    norm, as a new complex array; a row of zeros is an error."""
    parts = np.ascontiguousarray(vec, dtype=complex).view(float)
    # Rescale each row by a power of two (exact) so its largest real or
    # imaginary part lies in [0.5, 1): the norm can then neither overflow nor
    # underflow.
    e = np.frexp(np.abs(parts).max(axis=-1, keepdims=True, initial=0.0))[1]
    parts = np.ldexp(parts, -e)
    # The sum numpy.linalg.norm forms (so bit-identical), without its
    # argument handling, which costs more than the arithmetic here.
    re, im = parts[..., 0::2], parts[..., 1::2]
    norm = np.sqrt(np.vecdot(re, re, keepdims=True) + np.vecdot(im, im, keepdims=True))
    if not norm.all():
        raise InvalidData("all amplitudes are zero")
    return parts.view(complex) / norm


def check_basis(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if a != b:
        raise InvalidData(f"bases differ: {a} vs {b}")


def inner(bra: SystemState, ket: SystemState) -> complex:
    """<bra|ket> = sum_j conj(bra_j) ket_j."""
    check_basis(bra.labels, ket.labels)
    return complex(np.vdot(bra.vector, ket.vector))


def apply(observable: Observable, state: SystemState) -> np.ndarray:
    """A|psi> as a raw amplitude vector; deliberately not renormalized."""
    check_basis(observable.labels, state.labels)
    return observable.matrix @ state.vector


def expectation(observable: Observable, state: SystemState) -> float:
    """<psi|A|psi>, real because the stored A is exactly Hermitian; the
    imaginary part the sum leaves is rounding only and is dropped."""
    return complex(np.vdot(state.vector, apply(observable, state))).real
