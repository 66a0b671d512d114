"""Finite-dimensional complex Hilbert-space primitives.

States and observables live on an ordered basis of integer labels. Everything
is dense: the systems of interest never exceed dimension ~16, so exactness and
simplicity win over sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BasisMismatch, DuplicateLabel, NotHermitian, ZeroVector

HERMITICITY_TOL = 1e-12
DIAGONAL_TOL = 1e-12


@dataclass(frozen=True)
class SystemState:
    """Unit-norm state vector over an ordered integer-labeled basis."""

    labels: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)

    def amplitude(self, label: int) -> complex:
        return self.amplitudes[self.labels.index(label)]


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator on the same ordered basis as the states."""

    labels: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        labels = tuple(int(lab) for lab in self.labels)
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"observable labels {labels} are not distinct")
        if list(labels) != sorted(labels):
            raise ValueError(f"observable labels {labels} must be sorted ascending")
        m = np.array(self.matrix, dtype=complex)
        n = len(labels)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} labels")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise NotHermitian("matrix is not equal to its conjugate transpose")
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
        once per observable; both arrays are read-only."""
        m = self.matrix
        off = m - np.diag(np.diagonal(m))
        if np.max(np.abs(off)) <= DIAGONAL_TOL:
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
    for label, _ in items:
        if label in seen:
            raise DuplicateLabel(f"label {label} given more than once")
        seen.add(label)
    items.sort(key=lambda t: t[0])
    vec = np.array([amp for _, amp in items], dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ZeroVector("all amplitudes are zero")
    vec = vec / norm
    return SystemState(tuple(label for label, _ in items), tuple(map(complex, vec)))


def _check_basis(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if a != b:
        raise BasisMismatch(f"bases differ: {a} vs {b}")


def inner(bra: SystemState, ket: SystemState) -> complex:
    """<bra|ket> = sum_j conj(bra_j) ket_j."""
    _check_basis(bra.labels, ket.labels)
    return complex(np.vdot(bra.vector, ket.vector))


def apply(observable: Observable, state: SystemState) -> np.ndarray:
    """A|psi> as a raw amplitude vector; deliberately not renormalized."""
    _check_basis(observable.labels, state.labels)
    return observable.matrix @ state.vector


def expectation(observable: Observable, state: SystemState) -> float:
    """<psi|A|psi>; real for Hermitian A up to rounding."""
    val = complex(np.vdot(state.vector, apply(observable, state)))
    assert abs(val.imag) < 1e-12, "expectation value drifted off the real axis"
    return val.real
