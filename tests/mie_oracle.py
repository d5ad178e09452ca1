"""Classical Lorenz-Mie coefficients in textbook form, used as a test oracle.

Implements a_l and b_l for a homogeneous sphere with real relative index m at
size parameter x, via Riccati-Bessel functions built on scipy.special. This
module is deliberately independent of the package under test: it never imports
from qmie, so agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np
from scipy.special import spherical_jn, spherical_yn


def riccati_psi(l_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """psi_l(x) = x j_l(x) and its derivative, for l = 0..l_max."""
    ls = np.arange(l_max + 1)
    j = spherical_jn(ls, x)
    jp = spherical_jn(ls, x, derivative=True)
    return x * j, j + x * jp


def riccati_xi(l_max: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """xi_l(x) = x h1_l(x) and its derivative (outgoing convention)."""
    ls = np.arange(l_max + 1)
    h = spherical_jn(ls, x) + 1j * spherical_yn(ls, x)
    hp = spherical_jn(ls, x, derivative=True) + 1j * spherical_yn(ls, x, derivative=True)
    return x * h, h + x * hp


def mie_ab(m: float, x: float, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (a, b) arrays for l = 1..l_max (index 0 holds l=1)."""
    if not (m > 0.0 and x > 0.0 and l_max >= 1):
        raise ValueError("need m > 0, x > 0, l_max >= 1")
    psi_x, dpsi_x = riccati_psi(l_max, x)
    psi_mx, dpsi_mx = riccati_psi(l_max, m * x)
    xi_x, dxi_x = riccati_xi(l_max, x)
    sl = slice(1, l_max + 1)
    a = (m * psi_mx[sl] * dpsi_x[sl] - psi_x[sl] * dpsi_mx[sl]) / (
        m * psi_mx[sl] * dxi_x[sl] - xi_x[sl] * dpsi_mx[sl]
    )
    b = (psi_mx[sl] * dpsi_x[sl] - m * psi_x[sl] * dpsi_mx[sl]) / (
        psi_mx[sl] * dxi_x[sl] - m * xi_x[sl] * dpsi_mx[sl]
    )
    return a, b


def qsca(m: float, x: float, l_max: int) -> float:
    """Scattering efficiency Q_sca = (2/x^2) sum (2l+1)(|a|^2 + |b|^2)."""
    a, b = mie_ab(m, x, l_max)
    ls = np.arange(1, l_max + 1)
    return float(2.0 / (x * x) * np.sum((2 * ls + 1) * (np.abs(a) ** 2 + np.abs(b) ** 2)))


def amplitude_s12(m: float, x: float, mu, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Far-field amplitudes S1, S2 at scattering-angle cosines mu.

    Bohren & Huffman (4.74), with the angular functions pi_l, tau_l from
    their upward recurrences and the series cut at l_max.
    """
    a, b = mie_ab(m, x, l_max)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    pi_prev, pi_cur = np.zeros_like(mu), np.ones_like(mu)
    s1 = np.zeros(mu.shape, dtype=complex)
    s2 = np.zeros(mu.shape, dtype=complex)
    for l in range(1, l_max + 1):
        tau = l * mu * pi_cur - (l + 1) * pi_prev
        f = (2 * l + 1) / (l * (l + 1.0))
        s1 += f * (a[l - 1] * pi_cur + b[l - 1] * tau)
        s2 += f * (a[l - 1] * tau + b[l - 1] * pi_cur)
        pi_prev, pi_cur = pi_cur, ((2 * l + 1) * mu * pi_cur - (l + 1) * pi_prev) / l
    return s1, s2
