"""Independent high-precision oracle for the quantities wvsim prints.

Everything here is evaluated with mpmath at ORACLE_DPS decimal digits from the
closed forms of the Gaussian pointer algebra, starting from plain float inputs
(state amplitudes, observable matrix, g, delta, eps). It imports nothing from
wvsim: the observable is diagonalised by mpmath, and the pointer overlaps
<G_a|G_b> = exp(-(a - b)^2 / (8 delta^2)) are summed here directly.

Inputs are the exact binary floats the program received, so a difference
between the program and the oracle is the program's own rounding error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

ORACLE_DPS = 60
MAX_DIGITS = 16.0

mp.mp.dps = ORACLE_DPS


def _vec(amplitudes) -> list:
    v = [mp.mpc(complex(a).real, complex(a).imag) for a in amplitudes]
    norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


@lru_cache(maxsize=64)
def _spectrum(matrix: tuple) -> tuple:
    """Eigenvalues and eigenvector columns (None when diagonal) of a Hermitian
    matrix given as a tuple of row tuples of complex numbers."""
    n = len(matrix)
    if all(matrix[i][j] == 0 for i in range(n) for j in range(n) if i != j):
        return tuple(mp.mpf(complex(matrix[i][i]).real) for i in range(n)), None
    a = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            z = complex(matrix[i][j])
            a[i, j] = mp.mpc(z.real, z.imag)
    vals, vecs = mp.eighe(a)
    return tuple(vals[i] for i in range(n)), vecs


def _eigen_amplitudes(matrix: tuple, state: list) -> tuple[tuple, list]:
    vals, vecs = _spectrum(matrix)
    if vecs is None:
        return vals, state
    n = len(state)
    return vals, [mp.fsum(mp.conj(vecs[i, j]) * state[i] for i in range(n))
                  for j in range(n)]


def _overlap(a, b, delta):
    return mp.exp(-((a - b) ** 2) / (8 * delta ** 2))


def _conditioned(pre, post, matrix, g, delta, eps):
    """Shifts x_j, selection weights w_j and the squared norm of the
    post-selected pointer sum_j w_j G_{x_j}."""
    vals, c = _eigen_amplitudes(matrix, _vec(pre))
    _, d = _eigen_amplitudes(matrix, _vec(post))
    x = [mp.mpf(g) * mp.mpf(eps) * a for a in vals]
    w = [mp.conj(dj) * cj for cj, dj in zip(c, d)]
    norm_sq = mp.re(mp.fsum(mp.conj(w[j]) * w[k] * _overlap(x[j], x[k], delta)
                            for j in range(len(w)) for k in range(len(w))))
    return x, w, norm_sq


def weak_value(pre, post, matrix: tuple) -> complex:
    """<post|A|pre> / <post|pre>."""
    vals, c = _eigen_amplitudes(matrix, _vec(pre))
    _, d = _eigen_amplitudes(matrix, _vec(post))
    num = mp.fsum(mp.conj(dj) * a * cj for a, cj, dj in zip(vals, c, d))
    den = mp.fsum(mp.conj(dj) * cj for cj, dj in zip(c, d))
    return num / den


def comparison_row(pre, post, matrix: tuple, pre_x, matrix_x: tuple,
                   g: float, delta: float, eps: float) -> dict:
    """The four oracle-checked columns of one `run_comparison` row: the
    eigenvalue pointer is the initial Gaussian shifted by g*eps*Re(A_w)."""
    g, delta, eps = mp.mpf(g), mp.mpf(delta), mp.mpf(eps)
    m = g * eps * mp.re(weak_value(pre, post, matrix))
    x, w, norm_sq = _conditioned(pre, post, matrix, g, delta, eps)
    fid_weak = abs(mp.fsum(wj * _overlap(xj, m, delta) for xj, wj in zip(x, w)))
    fid_weak /= mp.sqrt(norm_sq)
    vals_x, cx = _eigen_amplitudes(matrix_x, _vec(pre_x))
    fid_sq_expect = mp.fsum(abs(cj) ** 2 * _overlap(g * eps * a, m, delta) ** 2
                            for a, cj in zip(vals_x, cx))
    return {
        "d_eigen": mp.acos(_overlap(0, m, delta)),
        "d_weak_vs_eigen": mp.acos(min(fid_weak, 1)),
        "d_expect_vs_eigen": mp.acos(min(mp.sqrt(fid_sq_expect), 1)),
        "p_postselect": min(norm_sq, 1),
    }


def amplify_row(pre, post, matrix: tuple, g: float, delta: float, eps: float) -> dict:
    """Mean pointer position over g*eps, and the post-selection probability."""
    g, delta, eps = mp.mpf(g), mp.mpf(delta), mp.mpf(eps)
    x, w, norm_sq = _conditioned(pre, post, matrix, g, delta, eps)
    n = len(w)
    mean = mp.re(mp.fsum(mp.conj(w[j]) * w[k] * (x[j] + x[k]) / 2 * _overlap(x[j], x[k], delta)
                         for j in range(n) for k in range(n))) / norm_sq
    return {"mean_shift": mean / (g * eps), "p_postselect": min(norm_sq, 1)}


def digits(value, exact) -> float:
    """-log10 of the relative error of `value` against `exact`, capped at
    MAX_DIGITS; a non-finite value has no correct digits."""
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return 0.0
    exact = mp.mpc(exact)
    err = abs(mp.mpc(value.real, value.imag) - exact)
    if err == 0:
        return MAX_DIGITS
    rel = err / abs(exact) if exact != 0 else err
    return float(min(MAX_DIGITS, max(0.0, -mp.log10(rel))))
