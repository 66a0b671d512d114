"""The pointer kernel: closed forms for a pointer sum_j w_j G_{u_j}.

G_u = (2 pi D^2)^(-1/4) exp(-(Q - u)^2 / (4 D^2)) is the unit-norm Gaussian of
width D centred at u, and <G_a|G_b> = exp(-(a - b)^2 / (8 D^2)), so norms,
moments and Bures angles carry no discretization error. A pointer is a pair
of arrays: the kicks u_j and the weights w_j (amplitudes of a pure pointer, or
probabilities of a mixture). Every function takes the terms along the last
axis and broadcasts over the leading ones, one row per epsilon or selection.

Each quantity is written without cancellation in the weak regime (kicks small
against D): departures from zero-kick values go through expm1, and each angle
is atan2 of a separately computed sine and cosine, never arccos of a fidelity
that rounds to 1. The sine of a pure pointer's angle is a quadratic form whose
entries cancel there, so on rows whose kicks all lie within 2D sqrt(0.02) of
zero `angle` sums it as a fixed 8-term series of non-negative squares; past
that, where the angle is no longer small, it evaluates the form itself.
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


def norm_sq(kicks, weights, delta):
    """||sum_j w_j G_{u_j}||^2 = |sum_j w_j|^2 + w^H (S - 1) w."""
    x = np.asarray(kicks, dtype=float) / delta
    s_minus_1 = np.expm1(_gram_exponent(x))
    return np.abs(np.sum(weights, axis=-1)) ** 2 + _form(weights, s_minus_1, weights)


# `angle` sums its series on rows whose kicks all have t = (u / 2D)^2 <=
# _SERIES_T_MAX. The terms past n = N = _SERIES_TERMS then add at most
# 2 t^(N-1) / (N+1)! <= 2^-56 times (sum_j |w_j|)^2 t^2, the size of the
# n = 2 term, which leads when the n = 1 term cancels (a real weak value).
_SERIES_TERMS = 8
_SERIES_T_MAX = 0.02
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(1, _SERIES_TERMS + 1)])[:, None]


def angle(kicks, weights, delta):
    """Bures angle in [0, pi/2] between the pure pointer sum_j w_j G_{u_j}
    and G_0; the weights need not be normalized.

    With e_j = <G_0|G_{u_j}> = exp(-u_j^2 / 8D^2), the cosine is
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
    """
    x = np.asarray(kicks, dtype=float) / delta
    w = np.asarray(weights)
    if w.ndim > 1 or w.shape != x.shape[-1:]:
        x, w = np.broadcast_arrays(x, w)
    lead, d = x.shape[:-1], x.shape[-1]
    if d <= 1:
        return _gram_angle(x, w)
    x = x.reshape(-1, d)
    per_row = w.ndim > 1
    if per_row:
        w = w.reshape(x.shape)
    y = np.multiply(x.T, 0.5, order="C")
    yy = y * y
    series = np.max(yy, axis=0) <= _SERIES_T_MAX
    if series.all():
        out = _series_angle(y, yy, w)
    else:
        out = np.empty(len(x))
        out[series] = _series_angle(y[:, series], yy[:, series], w[series] if per_row else w)
        out[~series] = _gram_angle(x[~series], w[~series] if per_row else w)
    return out.reshape(lead)[()]


def _series_angle(y, yy, w):
    """`angle` by the series, for kicks u_j = 2D y_j given as y and y^2 with
    the terms along the first axis, and weights w of shape (d,) or (rows, d).
    The n = 0 sum, sum_j w_j e_j, is the cosine."""
    q = np.empty((_SERIES_TERMS + 1,) + y.shape)
    np.exp(yy * -0.5, out=q[0])
    for n in range(1, _SERIES_TERMS + 1):
        np.multiply(q[n - 1], y, out=q[n])
    # v[:, n] = (Re, Im) sum_j w_j e_j y_j^n, summed over j in order
    w_j = np.stack([w.real.T, w.imag.T], axis=1).reshape(len(y), 2, 1, -1)
    q_j = q.swapaxes(0, 1)
    v = q_j[0] * w_j[0]
    for j in range(1, len(y)):
        v += q_j[j] * w_j[j]
    sq = np.square(v).sum(axis=0)
    terms = sq[1:] / _FACTORIALS
    sin_sq = terms[-1].copy()
    for n in range(_SERIES_TERMS - 2, -1, -1):
        sin_sq += terms[n]
    return np.arctan2(np.sqrt(sin_sq), np.sqrt(sq[0]))


def _gram_angle(x, weights):
    """`angle` from the quadratic form w^H C w, for kicks x = u / D."""
    e = np.exp(x * x / -8.0)
    t = x[..., :, None] * x[..., None, :] / 4.0
    scale = np.where(t >= 0.0, -np.exp(_gram_exponent(x)), e[..., :, None] * e[..., None, :])
    sin_sq = _form(weights, scale * np.expm1(-np.abs(t)), weights)
    return np.arctan2(np.sqrt(np.maximum(sin_sq, 0.0)), np.abs(np.sum(weights * e, axis=-1)))


def mixture_angle(kicks, weights, delta):
    """Bures angle in [0, pi/2] between the mixture
    sum_j p_j |G_{u_j}><G_{u_j}| (weights p_j >= 0, not necessarily summing
    to 1) and G_0: its squared cosine is sum_j p_j exp(-u_j^2 / 4D^2) / sum_j p_j."""
    x = np.asarray(kicks, dtype=float) / delta
    a = -(x * x) / 4.0
    return np.arctan2(np.sqrt(np.sum(weights * -np.expm1(a), axis=-1)),
                      np.sqrt(np.sum(weights * np.exp(a), axis=-1)))


def mean_position(kicks, weights, delta):
    """<Q> of the normalized pointer, from <G_a|Q|G_b> = ((a + b)/2) <G_a|G_b>:
    Re[conj(sum_j w_j u_j) sum_k w_k + (w u)^H (S - 1) w] / norm_sq."""
    x = np.asarray(kicks, dtype=float) / delta
    wx = weights * x
    num = ((np.conj(np.sum(wx, axis=-1)) * np.sum(weights, axis=-1)).real
           + _form(wx, np.expm1(_gram_exponent(x)), weights))
    return delta * num / norm_sq(kicks, weights, delta)
