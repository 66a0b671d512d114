"""High-precision oracle for the quantities wvsim prints.

Everything is evaluated with mpmath at ORACLE_DPS decimal digits from the
closed forms of the Gaussian pointer algebra, starting from the exact binary
floats the program received (state amplitudes, observable diagonal, g, delta,
eps), so a difference between the program and the oracle is the program's own
rounding error. It imports nothing from wvsim and handles diagonal observables
only, which is what the canonical scenarios use, and fits power laws by
exact least squares.
"""

from __future__ import annotations

import mpmath as mp

ORACLE_DPS = 60


def _vec(amplitudes) -> list:
    v = [mp.mpc(complex(a).real, complex(a).imag) for a in amplitudes]
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
    with mp.workdps(ORACLE_DPS):
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


def mean_shift(pre, post, diagonal, g, delta, eps):
    """Mean pointer position of the post-selected pointer over g*eps."""
    with mp.workdps(ORACLE_DPS):
        g, delta, eps = mp.mpf(g), mp.mpf(delta), mp.mpf(eps)
        x, w, norm_sq = _pointer(pre, post, diagonal, g, delta, eps)
        n = len(w)
        mean = mp.re(mp.fsum(mp.conj(w[j]) * w[k] * (x[j] + x[k]) / 2
                             * _overlap(x[j], x[k], delta)
                             for j in range(n) for k in range(n))) / norm_sq
        return mean / (g * eps)


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
