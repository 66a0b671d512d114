"""Finite-dimensional states and Hermitian observables, validated on entry.

Both live on an ordered basis of integer labels; the arithmetic on them is
`wvsim.measurement`'s. Everything is dense: the systems of interest never
exceed dimension ~16, so exactness and simplicity win over sparse machinery.
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


def _label(label) -> int:
    """`label` as an int, which it must equal: 1.0 is label 1, 0.5 is an error."""
    try:
        if int(label) == label:
            return int(label)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidData(f"label {label!r} is not an integer")


@dataclass(frozen=True)
class SystemState:
    """Unit-norm state vector over an ordered integer-labeled basis."""

    labels: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    @cached_property
    def vector(self) -> np.ndarray:
        """The amplitudes as a read-only complex array; make_state's, else computed once."""
        vec = np.asarray(self.amplitudes, dtype=complex)
        vec.flags.writeable = False
        return vec


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
        labels = tuple(map(_label, self.labels))
        if len(set(labels)) != len(labels):
            raise InvalidData(f"observable labels {labels} are not distinct")
        if list(labels) != sorted(labels):
            raise InvalidData(f"observable labels {labels} must be sorted ascending")
        try:
            m = np.array(self.matrix, dtype=complex)
        except OverflowError:  # an integer entry beyond the floats
            raise InvalidData("matrix has an entry out of floating-point range") from None
        n = len(labels)
        if m.shape != (n, n):
            raise InvalidData(f"matrix shape {m.shape} does not match {n} labels")
        scale = np.abs(m).max()
        if not scale < np.inf:  # NaN or infinite: some entry is not finite
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise InvalidData(f"matrix entry ({labels[i]}, {labels[j]}) is not finite: {m[i, j]}")
        herm = m.conj().T
        residue = np.abs(m - herm).max()
        if residue > HERMITICITY_TOL * scale:
            raise InvalidData("matrix is not equal to its conjugate transpose")
        if residue:
            m = m * 0.5 + herm * 0.5  # halved first, so no entry can overflow
            scale = np.abs(m).max()
        m.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_scale", scale)  # max|A| of the stored matrix

    @classmethod
    def diagonal(cls, labels: Sequence[int], values: Sequence[complex] | None = None) -> "Observable":
        """diag(values) on the given labels; values default to the labels
        themselves, i.e. the integer observable sum_j j |j><j|."""
        return cls(labels, np.diag(labels if values is None else values))

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Eigenvalues and, if the matrix is not diagonal, its eigenvectors as
        columns; None means the label basis already diagonalizes it. Computed
        once per observable; both arrays are read-only. Off-diagonal entries
        within DIAGONAL_TOL * max|A| of zero count as zero."""
        m = self.matrix
        n = len(m)
        # the off-diagonal entries: the flat matrix past its first entry,
        # as rows of n + 1 that each end on the next diagonal entry
        off = m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
        if np.abs(off).max(initial=0.0) <= DIAGONAL_TOL * self._scale:
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
    pairs = list(pairs)
    try:  # one numpy pass: top, the largest real or imaginary part, is NaN or inf on a fault
        given, amps = zip(*pairs, strict=True) if pairs else ((), ())
        labels, amps = tuple(map(int, given)), np.array(amps, dtype=complex)
        top = (np.abs(amps.view(float)).max(initial=0.0)
               if labels == given and amps.shape == (len(set(labels)),) else np.nan)
    except (TypeError, ValueError, OverflowError):
        top = np.nan
    if not top < np.inf:  # the pairs one by one, to word the first fault
        items = {}
        for label, amp in pairs:
            label = _label(label)
            try:
                amp = complex(amp)
            except OverflowError:  # an integer amplitude beyond the floats
                raise InvalidData(f"amplitude of label {label} is out of "
                                  "floating-point range") from None
            if label in items:
                raise InvalidData(f"label {label} given more than once")
            if not cmath.isfinite(amp):
                raise InvalidData(f"amplitude of label {label} is not finite: {amp}")
            items[label] = amp
        return make_state(items.items())
    if list(labels) != sorted(labels):
        order = sorted(range(len(labels)), key=labels.__getitem__)
        labels, amps = tuple(map(labels.__getitem__, order)), amps[order]
    # an exact power-of-two rescale to top in [0.5, 1), so the norm cannot overflow
    # or underflow; then numpy.linalg.norm's sum (bit-identical) without its overhead
    parts = np.ldexp(amps.view(float), -np.frexp(top)[1])
    re, im = parts[0::2], parts[1::2]
    norm = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    if not norm:
        raise InvalidData("all amplitudes are zero")
    vec = parts.view(complex) / norm
    vec.flags.writeable = False
    state = SystemState(labels, tuple(vec.tolist()))
    object.__setattr__(state, "vector", vec)  # the cached property, filled in
    return state
