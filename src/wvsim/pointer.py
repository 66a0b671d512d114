"""The pointer kernel: closed forms for a pointer sum_j w_j G_{u_j}.

G_u = (2 pi D^2)^(-1/4) exp(-(Q - u)^2 / (4 D^2)) is the unit-norm Gaussian of
width D centred at u, and <G_a|G_b> = exp(-(a - b)^2 / (8 D^2)), so norms,
moments and Bures angles carry no discretization error. A pointer is a pair
of arrays: the kicks u_j and the weights w_j (amplitudes of a pure pointer, or
probabilities of a mixture). Every function takes the kicks terms-first, as
(d, rows) or as (d,) for one pointer, the layout it sums in, and gives one
result per row (epsilon), all rows sharing one weight vector of shape (d,).

Each quantity is written without cancellation in the weak regime (kicks small
against D): departures from zero-kick values go through expm1, and each angle
is atan2 of a separately computed sine and cosine, never arccos of a fidelity
that rounds to 1. The sine of a pure pointer's angle is a quadratic form whose
entries cancel there, so on rows whose kicks all lie within 2D sqrt(0.02) of
zero `angle_and_norm` sums it as a fixed 8-term series of non-negative
squares; past that, where the angle is no longer small, it evaluates the form
itself. The same pass gives the pointer's squared norm, so there is one norm
formula for every caller.
"""

from __future__ import annotations

import math

import numpy as np


def _form(a, m, b):
    """Re sum_jk conj(a_j) m_jk b_k over the last axes."""
    return np.einsum("...j,...jk,...k->...", np.conj(a), m, b).real


def _gram_exponent(x):
    """-(x_j - x_k)^2 / 8 for x = u / D, so that S_jk = <G_{u_j}|G_{u_k}> is
    exp(that) and S - 1 is expm1(that). The sign rides on the exact division,
    which saves the callers a pass that negates the d x d result."""
    d = x[..., :, None] - x[..., None, :]
    return d * d / -8.0


# `angle_and_norm` sums its series on rows whose kicks all have t = (u / 2D)^2 <=
# _SERIES_T_MAX. The terms past n = N = _SERIES_TERMS then add at most
# 2 t^(N-1) / (N+1)! <= 2^-56 times (sum_j |w_j|)^2 t^2, the size of the
# n = 2 term, which leads when the n = 1 term cancels (a real weak value).
_SERIES_TERMS = 8
_SERIES_T_MAX = 0.02
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(1, _SERIES_TERMS + 1)])[:, None]


def angle_and_norm(kicks, weights, delta):
    """(Bures angle in [0, pi/2] to G_0, squared norm) of the pure pointer
    sum_j w_j G_{u_j}, from one pass over its terms: one row per trailing
    index of the kicks, all sharing the one weight vector, of shape (d,),
    which need not be normalized.

    With e_j = <G_0|G_{u_j}> = exp(-u_j^2 / 8D^2), the cosine of the angle is
    |sum_j w_j e_j| and the sine sqrt(w^H C w), both over the norm, where
    C_jk = S_jk - e_j e_k = e_j e_k (exp(t_jk) - 1), t_jk = u_j u_k / 4D^2.
    The entries of C are O(t), but in the weak regime the sine is O(t^2), so
    on a row of two or more kicks that all have |u_j| <= 2D sqrt(0.02) the
    quadratic form is summed as the series of non-negative squares
    w^H C w = sum_{n>=1} |sum_j w_j e_j (u_j / 2D)^n|^2 / n!, truncated at a
    fixed n and accumulated in a fixed order, so that each row's angle
    depends on that row alone. Other rows, and one-kick pointers, whose C is
    1x1 and does not cancel, take the quadratic form itself, with an entry
    with t_jk >= 0 evaluated as -S_jk expm1(-t_jk), so that no factor
    overflows for kicks far outside the pointer.

    The squared norm is |sum_j w_j|^2 + w^H (S - 1) w. It depends on the
    kicks only through their differences, so a caller may shift them all by
    one amount (as the shift angles do) and still get the norm. On series
    rows it is cos^2 + sin^2 with the cosine's sum split as
    sum_j w_j + v, v = sum_j w_j expm1(-u_j^2 / 8D^2), and summed smallest
    terms first: |sum_j w_j|^2 + (2 Re(conj(sum_j w_j) v) + (|v|^2 + sin^2)).
    """
    x = np.asarray(kicks, dtype=float) / delta
    w = np.asarray(weights)
    rows, x = x.shape[1:], x.reshape(len(x), -1)
    y = x * 0.5
    yy = y * y
    if len(x) <= 1:  # one kick: C is 1x1 and does not cancel
        angle, norm = _gram(x.T, w)
    # a NaN kick fails this and the per-row test alike
    elif np.maximum.reduce(yy, axis=None, initial=-math.inf) <= _SERIES_T_MAX:
        angle, norm = _series(y, yy, w)
    else:
        series = np.max(yy, axis=0) <= _SERIES_T_MAX
        angle, norm = np.empty((2, x.shape[1]))
        if series.any():  # a sweep wholly past the range has no series rows
            angle[series], norm[series] = _series(y[:, series], yy[:, series], w)
        angle[~series], norm[~series] = _gram(x.T[~series], w)
    return angle.reshape(rows)[()], norm.reshape(rows)[()]


def _kept_terms(w):
    """(indices of the weights in the vector w that are not exactly 0, or None
    if none is 0; whether every weight is real). A term of weight 0 adds only
    exact zeros to a sum over the terms, so leaving it out changes no bit."""
    values = w.tolist()
    kept = [j for j, v in enumerate(values) if v]
    real = not any(v.imag for v in values)
    return kept if len(kept) < len(values) else None, real


def _series(y, yy, w):
    """`angle_and_norm` by the series, for kicks u_j = 2D y_j given as y and
    y^2 with the terms along the first axis, and weights w of shape (d,).
    The n = 0 sum, sum_j w_j e_j, is the cosine. Terms of weight 0 are left
    out, and real weights (complex ones with zero imaginary parts too) take
    one real pass, which again leaves out only exact zeros."""
    kept, real = _kept_terms(w)
    if kept is not None:
        y, yy, w = y.take(kept, 0), yy.take(kept, 0), w.take(kept)
    if real:
        w = w.real
    # p_nj = e_j y_j^n for n = 0 .. N, and expm1(-y_j^2 / 2) at n = N + 1, each
    # n a contiguous block, then times w_j into a (terms, N + 2, rows) stack:
    # numpy reduces its first axis slice by slice (pairwise summation runs
    # only along the fastest, and the middle axis is longer than 1), so each
    # sum runs over j in order and a row's sums do not depend on the others
    h = yy * -0.5
    p = np.empty((_SERIES_TERMS + 2,) + y.shape)
    np.exp(h, out=p[0])
    for n in range(1, _SERIES_TERMS + 1):
        np.multiply(p[n - 1], y, out=p[n])
    np.expm1(h, out=p[-1])
    p = p.swapaxes(0, 1)
    q = np.empty(p.shape)
    w_j = w.reshape(-1, 1, 1)
    re = np.add.reduce(np.multiply(p, w_j.real, out=q), axis=0)
    sq = re * re
    if not real:
        im = np.add.reduce(np.multiply(p, w_j.imag, out=q), axis=0)
        sq += im * im
    terms = sq[1:-1] / _FACTORIALS
    sin_sq = terms[-1] + terms[-2]
    for n in range(_SERIES_TERMS - 3, -1, -1):
        sin_sq += terms[n]
    total = np.add.reduce(w)
    cross = total * re[-1] if real else total.real * re[-1] + total.imag * im[-1]
    norm = np.abs(total) ** 2 + (2.0 * cross + (sq[-1] + sin_sq))
    return np.arctan2(np.sqrt(sin_sq), np.sqrt(sq[0])), norm


def _gram(x, weights):
    """`angle_and_norm` from the quadratic forms, for kicks x = u / D."""
    e = np.exp(x * x / -8.0)
    t = x[..., :, None] * x[..., None, :] / 4.0
    exponent = _gram_exponent(x)
    scale = np.where(t >= 0.0, -np.exp(exponent), e[..., :, None] * e[..., None, :])
    sin_sq = _form(weights, scale * np.expm1(-np.abs(t)), weights)
    norm = (np.abs(np.sum(weights, axis=-1)) ** 2
            + _form(weights, np.expm1(exponent), weights))
    return (np.arctan2(np.sqrt(np.maximum(sin_sq, 0.0)), np.abs(np.sum(weights * e, axis=-1))),
            norm)


def _nonzero_terms(kicks, weights, delta):
    """x = u / D and the weight vector shaped to broadcast on it, both less terms of weight 0."""
    x = np.asarray(kicks, dtype=float) / delta
    w = np.asarray(weights)
    kept = _kept_terms(w)[0]
    w = w.reshape((-1,) + (1,) * (x.ndim - 1))
    if kept is not None:
        x, w = x.take(kept, 0), w.take(kept, 0)
    return x, w


def mixture_angle(kicks, weights, delta):
    """Bures angle in [0, pi/2] between the mixture sum_j p_j |G_{u_j}><G_{u_j}|
    (one weight vector p_j >= 0 of shape (d,), not necessarily summing to 1)
    and G_0: its squared cosine is sum_j p_j exp(-u_j^2 / 4D^2) / sum_j p_j.
    Both sums, of p_j (-expm1) and p_j exp, are one reduce over the term axis
    of a (terms, 2, ...) stack, which adds the terms in order."""
    x, p = _nonzero_terms(kicks, weights, delta)
    a = x * x / -4.0
    s = np.empty((len(a), 2) + a.shape[1:])
    np.negative(np.expm1(a, out=s[:, 0]), out=s[:, 0])
    np.exp(a, out=s[:, 1])
    sin, cos = np.sqrt(np.add.reduce(np.multiply(s, p[:, None], out=s), axis=0))
    return np.arctan2(sin, cos)


def mean_position(kicks, weights, delta):
    """<Q> of the normalized pointer, from <G_a|Q|G_b> = ((a + b)/2) <G_a|G_b>:
    Re[conj(sum_j w_j u_j) sum_k w_k + (w u)^H (S - 1) w] over the squared
    norm of `angle_and_norm`."""
    # a row must not depend on the others: the terms contiguous along the last axis, and
    # Re(conj(a) b) in real arithmetic, as numpy rounds complex array and scalar products apart
    x = np.moveaxis(np.asarray(kicks, dtype=float) / delta, 0, -1).copy()
    wx = weights * x
    a, b = np.sum(wx, axis=-1), np.sum(weights, axis=-1)
    num = (a.real * b.real + a.imag * b.imag) + _form(wx, np.expm1(_gram_exponent(x)), weights)
    return delta * num / angle_and_norm(kicks, weights, delta)[1]
