"""High-precision oracle for the quantities wvsim prints.

Everything is evaluated with mpmath at ORACLE_DPS decimal digits from the
closed forms of the Gaussian pointer algebra, starting from the exact binary
floats the program received (state amplitudes, observable diagonal, g, delta,
eps, or the tan of an amplification row), so a difference between the
program and the oracle is the program's own rounding error. It imports
nothing from wvsim and handles diagonal observables only, which is what the
canonical scenarios use, and fits power laws by exact least squares.
Comparison rows get more digits the smaller the kick g*eps/delta, since
their angles are arccosines of numbers within about the kick's fourth power
of 1.
"""

from __future__ import annotations

import math

import mpmath as mp

ORACLE_DPS = 60


def _comparison_dps(g, delta, eps) -> int:
    """ORACLE_DPS plus four digits per decade that g*eps/delta lies below 1."""
    decades = math.log10(delta) - math.log10(g) - math.log10(eps)
    return ORACLE_DPS + 4 * max(0, math.ceil(decades))


def _vec(amplitudes) -> list:
    v = [mp.mpc(a) for a in amplitudes]
    norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _overlap(a, b, delta):
    """<G_a|G_b> for unit Gaussians of width delta."""
    return mp.exp(-((a - b) ** 2) / (8 * delta ** 2))


def _pointer(pre, post, diagonal, g, delta, eps):
    """Kicks x_j, weights w_j and squared norm of sum_j w_j G_{x_j}."""
    x = [g * eps * mp.mpf(a) for a in diagonal]
    w = [mp.conj(d) * c for c, d in zip(_vec(pre), _vec(post))]
    n = len(w)
    norm_sq = mp.re(mp.fsum(mp.conj(w[j]) * w[k] * _overlap(x[j], x[k], delta)
                            for j in range(n) for k in range(n)))
    return x, w, norm_sq


def comparison_row(pre, post, diagonal, pre_x, diagonal_x, g, delta, eps) -> dict:
    """The five numeric columns of one `run_comparison` row; the eigenvalue
    pointer is the initial Gaussian shifted by g*eps*Re(A_w)."""
    with mp.workdps(_comparison_dps(g, delta, eps)):
        g, delta, eps = mp.mpf(g), mp.mpf(delta), mp.mpf(eps)
        x, w, norm_sq = _pointer(pre, post, diagonal, g, delta, eps)
        total = mp.fsum(w)
        m = mp.re(mp.fsum(wj * xj for wj, xj in zip(w, x)) / total)
        fid_weak = abs(mp.fsum(wj * _overlap(xj, m, delta) for xj, wj in zip(x, w)))
        fid_sq_expect = mp.fsum(abs(c) ** 2 * _overlap(g * eps * mp.mpf(a), m, delta) ** 2
                                for a, c in zip(diagonal_x, _vec(pre_x)))
        returned = mp.fsum(wj * _overlap(xj, 0, delta) for xj, wj in zip(x, w))
        return {
            "d_eigen": mp.acos(_overlap(0, m, delta)),
            "d_weak_vs_eigen": mp.acos(fid_weak / mp.sqrt(norm_sq)),
            "d_expect_vs_eigen": mp.acos(mp.sqrt(fid_sq_expect)),
            "p_postselect": min(norm_sq, 1),
            "weakness": abs(returned - total) / abs(total),
        }


def amplification_row(t, g, delta, eps) -> dict:
    """Mean pointer position over g*eps, post-selection probability, the
    relative change of <post|pre> and of that probability from zero kick
    (`weakness` and `drift`, which flag the weak regime) of a spin
    pre-selected as |up_x> + t|down_x> and post-selected on |up_x>, for
    the exact float t. The selections are built from t in the z basis
    (labels -1, 1), where sigma_z is diagonal: the pre-selection is
    proportional to (1 - t, 1 + t) and the post-selection to (1, 1). The
    Gram sums cancel by about t^2 (or 1/t^2) and by (g*eps/delta)^2, so they
    are taken with two more digits per decade of either."""
    decades = max(0, math.ceil(math.log10(delta) - math.log10(g) - math.log10(eps)))
    with mp.workdps(ORACLE_DPS + 2 * decades + 2 * math.ceil(abs(math.log10(t)))):
        g, delta, eps, t = mp.mpf(g), mp.mpf(delta), mp.mpf(eps), mp.mpf(t)
        x, w, norm_sq = _pointer((1 - t, 1 + t), (1, 1), (-1, 1), g, delta, eps)
        mean = mp.re(mp.fsum(mp.conj(w[j]) * w[k] * (x[j] + x[k]) / 2
                             * _overlap(x[j], x[k], delta)
                             for j in range(2) for k in range(2))) / norm_sq
        total = mp.fsum(w)
        returned = mp.fsum(wj * _overlap(xj, 0, delta) for xj, wj in zip(x, w))
        return {"mean_shift": mean / (g * eps), "p_postselect": norm_sq,
                "weakness": abs(returned - total) / abs(total),
                "drift": abs(norm_sq - abs(total) ** 2) / abs(total) ** 2}


def power_law_fit(points):
    """(exponent, coefficient, residual) of the least-squares line through
    (log eps, log d) for the exact logs of the given float points; the
    residual is the largest absolute log-space deviation from that line."""
    with mp.workdps(ORACLE_DPS):
        log_e = [mp.log(mp.mpf(e)) for e, _ in points]
        log_d = [mp.log(mp.mpf(d)) for _, d in points]
        n = len(log_e)
        mean_e, mean_d = mp.fsum(log_e) / n, mp.fsum(log_d) / n
        slope = (mp.fsum((a - mean_e) * (b - mean_d) for a, b in zip(log_e, log_d))
                 / mp.fsum((a - mean_e) ** 2 for a in log_e))
        intercept = mean_d - slope * mean_e
        residual = max(abs(b - (slope * a + intercept)) for a, b in zip(log_e, log_d))
        return slope, mp.exp(intercept), residual


def rel_error(value, exact) -> float:
    """|value - exact| / |exact| at oracle precision."""
    with mp.workdps(ORACLE_DPS):
        return float(abs(mp.mpf(value) - exact) / abs(exact))
