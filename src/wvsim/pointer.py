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
that rounds to 1.
"""

from __future__ import annotations

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


def angle(kicks, weights, delta):
    """Bures angle in [0, pi/2] between the pure pointer sum_j w_j G_{u_j}
    and G_0; the weights need not be normalized.

    With e_j = <G_0|G_{u_j}> = exp(-u_j^2 / 8D^2), the cosine is
    |sum_j w_j e_j| and the sine sqrt(w^H C w), both over the norm, where
    C_jk = S_jk - e_j e_k = e_j e_k expm1(t_jk), t_jk = u_j u_k / 4D^2. An
    entry with t_jk >= 0 is evaluated as -S_jk expm1(-t_jk), so that no
    factor overflows for kicks far outside the pointer.
    """
    x = np.asarray(kicks, dtype=float) / delta
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
