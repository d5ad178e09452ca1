"""Classical Lorenz-Mie reference values, built on scipy.special alone.

Nothing here imports qmie: every dataset the benchmark produces is compared
against these textbook forms, so agreement is a cross-check and not a rerun
of the same code.

Conventions follow Bohren & Huffman (1983): size parameter x = kR, relative
index m = sqrt(eps), external coefficients a_n (electric) and b_n (magnetic),
internal coefficients c_n (magnetic) and d_n (electric), angular functions
pi_n and tau_n, amplitudes S1 (perpendicular) and S2 (parallel).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spherical_jn, spherical_yn


def series_order(x: float) -> int:
    """Order past which every Mie series at size x is below double precision."""
    return int(math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0)) + 16


def _riccati(n_max: int, x):
    """psi_n = x j_n, xi_n = x h1_n and their derivatives, n = 0..n_max.

    An array x adds trailing axes: values are indexed [n, ...x].
    """
    n = np.arange(n_max + 1).reshape(-1, *([1] * np.ndim(x)))
    j = spherical_jn(n, x)
    jp = spherical_jn(n, x, derivative=True)
    with np.errstate(over="ignore", invalid="ignore"):
        y = spherical_yn(n, x)
        yp = spherical_yn(n, x, derivative=True)
        h, hp = j + 1j * y, jp + 1j * yp
        return x * j, j + x * jp, x * h, h + x * hp


def mie_coefficients(m: float, x, n_max: int):
    """(a, b, c, d) for n = 1..n_max (index 0 holds n = 1), over any x shape.

    Orders whose Bessel values overflow (n far above x) carry 0: their true
    magnitude is below x^(2n+1) and far under double precision.
    """
    psi, dpsi, xi, dxi = _riccati(n_max, x)
    psi_m, dpsi_m, _, _ = _riccati(n_max, m * x)
    s = slice(1, n_max + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = (m * psi_m[s] * dpsi[s] - psi[s] * dpsi_m[s]) / (m * psi_m[s] * dxi[s] - xi[s] * dpsi_m[s])
        b = (psi_m[s] * dpsi[s] - m * psi[s] * dpsi_m[s]) / (psi_m[s] * dxi[s] - m * xi[s] * dpsi_m[s])
        # the Wronskian psi xi' - xi psi' = i fixes the internal numerators
        c = 1j * m / (psi_m[s] * dxi[s] - m * xi[s] * dpsi_m[s])
        d = 1j * m / (m * psi_m[s] * dxi[s] - xi[s] * dpsi_m[s])
    out = []
    for arr in (a, b, c, d):
        arr = np.where(np.isfinite(arr), arr, 0.0)
        out.append(arr)
    return tuple(out)


def q_sca(m: float, x: float, n_max: int) -> float:
    """Scattering efficiency (2/x^2) sum (2n+1)(|a_n|^2 + |b_n|^2)."""
    a, b, _, _ = mie_coefficients(m, x, n_max)
    n = np.arange(1, n_max + 1)
    return float(2.0 / (x * x) * np.sum((2 * n + 1) * (np.abs(a) ** 2 + np.abs(b) ** 2)))


def pi_tau(n_max: int, mu: float):
    """Angular functions pi_n(mu), tau_n(mu) for n = 1..n_max."""
    pi = np.zeros(n_max + 1)
    tau = np.zeros(n_max + 1)
    if n_max >= 1:
        pi[1] = 1.0
    for n in range(2, n_max + 1):
        pi[n] = ((2 * n - 1) * mu * pi[n - 1] - n * pi[n - 2]) / (n - 1)
    n = np.arange(n_max + 1)
    tau[1:] = n[1:] * mu * pi[1:] - (n[1:] + 1) * pi[:-1]
    return pi[1:], tau[1:]


def pair_sums(coef_n, coef_m, mu: float):
    """(sum_perp, sum_par) = sum_n (2n+1)/(n(n+1)) times
    (coef_n pi + coef_m tau, coef_n tau + coef_m pi)."""
    n_max = len(coef_n)
    pi, tau = pi_tau(n_max, mu)
    n = np.arange(1, n_max + 1)
    w = (2 * n + 1) / (n * (n + 1.0))
    return complex(np.sum(w * (coef_n * pi + coef_m * tau))), complex(np.sum(w * (coef_n * tau + coef_m * pi)))


def amplitudes(m: float, x: float, mu: float, n_max: int | None = None):
    """Far-field amplitudes (S1, S2) at scattering angle acos(mu)."""
    n_max = n_max or series_order(max(x, m * x))
    a, b, _, _ = mie_coefficients(m, x, n_max)
    return pair_sums(a, b, mu)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def scattering_frame(k_in, n_out):
    """Unit vectors (e_perp, e_par_in, e_par_out, mu) of the scattering plane.

    e_par = e_perp x k_hat on both sides, so the frames coincide in the
    forward direction, where S1 = S2.
    """
    ki, no = _unit(k_in), _unit(n_out)
    mu = float(np.clip(np.dot(ki, no), -1.0, 1.0))
    cross = np.cross(no, ki)
    if np.linalg.norm(cross) < 1e-12:
        # forward or backward: any transverse axis, S1 = +-S2 there
        trial = np.array([1.0, 0.0, 0.0]) if abs(ki[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        cross = np.cross(trial, ki)
    e_perp = _unit(cross)
    return e_perp, np.cross(e_perp, ki), np.cross(e_perp, no), mu


def project(perp_par, k_in, e_in, n_out, e_out):
    """e_out* . T . e_in for an operator diagonal in the multipole order,
    given its (perpendicular, parallel) amplitudes at the frame's angle."""
    e_perp, e_par_i, e_par_o, _ = scattering_frame(k_in, n_out)
    e_in = np.asarray(e_in, dtype=complex)
    e_out = np.asarray(e_out, dtype=complex)
    perp, par = perp_par
    return (perp * np.vdot(e_out, e_perp) * np.dot(e_perp, e_in)
            + par * np.vdot(e_out, e_par_o) * np.dot(e_par_i, e_in))


def polarization(g: int, kvec) -> np.ndarray:
    """Plane-wave polarization (e_1, e_2) = (i e_phi, e_theta) at k-hat."""
    kx, ky, kz = (float(c) for c in kvec)
    k = math.sqrt(kx * kx + ky * ky + kz * kz)
    theta = math.acos(max(-1.0, min(1.0, kz / k)))
    phi = math.atan2(ky, kx)
    if g == 1:
        return 1j * np.array([-math.sin(phi), math.cos(phi), 0.0])
    return np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                     -math.sin(theta)], dtype=complex)


# --------------------------------------------------------- volume overlaps

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(160)


def radial_overlaps(n_max: int, a: float, b: float, radius: float) -> np.ndarray:
    """O_n = integral_0^R r^2 j_n(a r) j_n(b r) dr for n = 0..n_max+1.

    Fixed 160-node Gauss-Legendre rule: the integrand is entire and, for
    aR, bR up to a few tens, resolved to rounding.
    """
    r = 0.5 * radius * (_GL_NODES + 1.0)
    w = 0.5 * radius * _GL_WEIGHTS
    n = np.arange(n_max + 2)[:, None]
    return (spherical_jn(n, a * r) * spherical_jn(n, b * r)) @ (w * r * r)


def _overlap_series(ov: np.ndarray, n_max: int):
    """Magnetic (O_n) and electric ((n+1) O_{n-1} + n O_{n+1})/(2n+1) radial sums."""
    n = np.arange(1, n_max + 1)
    return ov[1:n_max + 1], ((n + 1) * ov[0:n_max] + n * ov[2:n_max + 2]) / (2 * n + 1)


def sphere_overlap(eps: float, radius: float, kvec, e_pol, kvec_p, e_pol_p,
                   interior: bool, n_max: int) -> complex:
    """integral over the sphere of conj(e e^{ik.r}) . E(r) d^3r.

    E is the plane wave e' e^{ik'.r} itself (interior=False) or the classical
    internal field of the sphere lit by it (interior=True). Expanding both in
    vector multipoles leaves per-order radial overlaps times the same pi/tau
    angular structure as S1 and S2; the normalisation 4 pi is fixed by the
    eps = 1 case, which is the sphere's Fourier transform.
    """
    kvec = np.asarray(kvec, dtype=float)
    kvec_p = np.asarray(kvec_p, dtype=float)
    k, kp = np.linalg.norm(kvec), np.linalg.norm(kvec_p)
    m = math.sqrt(eps) if interior else 1.0
    ov = radial_overlaps(n_max, k, m * kp, radius)
    mag, ele = _overlap_series(ov, n_max)
    if interior:
        _, _, c, d = mie_coefficients(m, kp * radius, n_max)
        mag, ele = c * mag, d * ele
    _, _, _, mu = scattering_frame(kvec_p, kvec)
    perp_par = pair_sums(ele, mag, mu)
    return 4.0 * math.pi * project(perp_par, kvec_p, e_pol_p, kvec, e_pol)


def sphere_fourier(radius: float, qvec) -> float:
    """integral over the sphere of e^{i Q.r} d^3r = 4 pi R^3 j_1(QR)/(QR)."""
    qr = float(np.linalg.norm(qvec)) * radius
    if qr < 1e-8:
        return 4.0 * math.pi * radius**3 / 3.0
    return 4.0 * math.pi * radius**3 * float(spherical_jn(1, qr)) / qr


def kernel(kind: str, eps: float, radius: float, g: int, kvec, gp: int, kvec_p,
           n_max: int | None = None) -> complex:
    """Bogoliubov kernel V, B or A_offdiag between plane-wave labels.

    V = (sqrt(k k')/4) ((eps-1)/eps) int G*.G',
    A_offdiag = ((eps-1)/2) (sqrt(k k')/(k-k')) int G*.F',
    B = -((eps-1)/2) (sqrt(k k')/(k+k')) int G*.F'*,
    with G = e^{ik.r} e_g/(2 pi)^{3/2} and F' the outgoing scattering
    eigenmode, (2 pi)^{-3/2} times the classical internal field inside.
    """
    kvec = np.asarray(kvec, dtype=float)
    kvec_p = np.asarray(kvec_p, dtype=float)
    k, kp = np.linalg.norm(kvec), np.linalg.norm(kvec_p)
    e, ep = polarization(g, kvec), polarization(gp, kvec_p)
    norm = (2.0 * math.pi) ** -3
    if kind == "V":
        val = np.vdot(e, ep) * sphere_fourier(radius, kvec_p - kvec)
        return math.sqrt(k * kp) / 4.0 * (eps - 1.0) / eps * norm * val
    n_max = n_max or series_order(max(k, math.sqrt(eps) * kp) * radius)
    if kind == "A_offdiag":
        val = sphere_overlap(eps, radius, kvec, e, kvec_p, ep, True, n_max)
        return (eps - 1.0) / 2.0 * math.sqrt(k * kp) / (k - kp) * norm * val
    if kind == "B":
        # int conj(G) . conj(F') = conj(int conj(conj(e) e^{-ik.r}) . F')
        val = np.conj(sphere_overlap(eps, radius, -kvec, np.conj(e), kvec_p, ep, True, n_max))
        return -(eps - 1.0) / 2.0 * math.sqrt(k * kp) / (k + kp) * norm * val
    raise ValueError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------- eigenmode fields

def _legendre_and_derivative(n: int, mu: np.ndarray):
    """P_n(mu) and dP_n/dtheta = -sin(theta) P_n'(mu) by the Bonnet recurrence."""
    p_prev, p = np.ones_like(mu), mu.copy()
    if n == 0:
        return p_prev, np.zeros_like(mu)
    for l in range(1, n):
        p_prev, p = p, ((2 * l + 1) * mu * p - l * p_prev) / (l + 1)
    sin = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
    # (1 - mu^2) P_n' = n (P_{n-1} - mu P_n)
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = np.where(sin > 0.0, -n * (p_prev - mu * p) / np.where(sin > 0.0, sin, 1.0), 0.0)
    return p, dp


def eigenmode_intensity_outside(eps: float, radius: float, k: float, p: str, l: int,
                                points: np.ndarray) -> np.ndarray:
    """|S/k|^2 of the m = 0 spherical eigenmode (p, l) at points with r >= R.

    Outside the sphere the radial factor is, up to a unit phase,
    cos(phi_l) j(kr) + sin(phi_l) y(kr) with phi_l = pi/2 - arg(b_l) for TE
    and pi/2 - arg(a_l) for TM.
    """
    a, b, _, _ = mie_coefficients(math.sqrt(eps), k * radius, l)
    phi = math.pi / 2.0 - np.angle(b[l - 1] if p == "TE" else a[l - 1])
    r = np.linalg.norm(points, axis=1)
    mu = points[:, 2] / r
    y_norm = math.sqrt((2 * l + 1) / (4.0 * math.pi))
    pl, dpl = _legendre_and_derivative(l, mu)
    y, dy = y_norm * pl, y_norm * dpl

    def g(order):
        return math.cos(phi) * spherical_jn(order, k * r) + math.sin(phi) * spherical_yn(order, k * r)

    if p == "TE":
        # |X_l0|^2 = (dY/dtheta)^2 / (l (l+1))
        return (2.0 / math.pi) * g(l) ** 2 * dy**2 / (l * (l + 1.0))
    up, dn = g(l + 1), g(l - 1)
    radial = -math.sqrt(l * (l + 1.0)) / (2 * l + 1.0) * (up + dn) * y
    polar = (math.sqrt(l / (l + 1.0)) * up - math.sqrt((l + 1.0) / l) * dn) / (2 * l + 1.0) * dy
    return (2.0 / math.pi) * (radial**2 + polar**2)
