"""The m-sum routes for plane waves, kept as test oracles.

Every quantity that pairs two plane-wave labels is a sum over m of
conj(c^p_lm(n)) c^p_lm(n'), and every mode sum a sum over m of
c^p_lm(n) S^p_lm(r). The library forms those sums at the angle between two
directions (two photons, or a photon and a point), through pi_l and tau_l.
This module forms them the long way instead: from whole multipole coefficient tables
(``qmie.modes._coefficient_table``) and from whole harmonic blocks
(``qmie.specfun.spherical_harmonics_batch``) summed over m explicitly, so
that the two routes share neither the angular functions nor the
scattering-plane frame.
"""

import math

import numpy as np

from qmie import modes, specfun
from qmie.miecore import phase_table, truncation_order

# c^p_{lmg} = i^(l + shift) conj(X_lm . e_component): (component, shift) of
# the TE and TM tables, for g = 1 and g = 2; component 1 is e_theta and 2 is
# e_phi
COEFFICIENT_RULE = (((2, 1), (1, -1)), ((1, 0), (2, 0)))

# directions per whole harmonic block, to bound its memory
BLOCK_SLICE = 32


def harmonic_sums(l_max, theta, phi, weights):
    """sum_m weights[k, l, m] F[n, l, m] for F = Y, dY/dtheta and
    mY/sin(theta) of the whole block, each (N, K, l_max+1)."""
    theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
    sums = np.empty((3, theta.size, weights.shape[0], l_max + 1), dtype=complex)
    for start in range(0, theta.size, BLOCK_SLICE):
        part = slice(start, start + BLOCK_SLICE)
        block = specfun.spherical_harmonics_batch(l_max, theta[part], phi[part])
        for i, arr in enumerate(block):
            sums[i, part] = np.einsum("klm,nlm->nkl", weights, arr)
    return sums


def coefficient_tables(kappas, l_max):
    """c_{lmg}^p of K plane-wave labels, (K, 2, l_max+1, 2 l_max+1)."""
    return np.stack([modes._coefficient_table(*kappa.angles, kappa.g, l_max) for kappa in kappas])


def coefficient_overlaps(theta, phi, c_ref, l_max):
    """sum_m conj(c_{lmg}^p(n)) c_ref[p, l, m] for N directions n and both g.

    c_ref is one (TE, TM) pair of coefficient tables, shaped
    (2, l_max+1, 2 l_max+1). Returns (N, 2, 2, l_max+1) indexed [n, g - 1, p, l].
    """
    _, dy, u = harmonic_sums(l_max, theta, phi, c_ref)
    ls = np.arange(l_max + 1)
    x = specfun._x_family(ls.astype(float), dy, u)
    return np.stack([
        np.stack([np.conj(1j**(ls + shift)) * x[:, p, :, comp]
                  for p, (comp, shift) in enumerate(rule)], axis=1)
        for rule in COEFFICIENT_RULE
    ], axis=1)


def amplitudes(spec, kappa_in, theta, phi, l_max=None):
    """f for outgoing directions (theta, phi) and both outgoing g: (N, 2)."""
    k = kappa_in.k
    q = k * spec.radius
    if l_max is None:
        l_max = truncation_order(q)
    c_in = modes._coefficient_table(*kappa_in.angles, kappa_in.g, l_max)
    overlaps = coefficient_overlaps(theta, phi, c_in, l_max)
    t = phase_table(spec, q, l_max)
    weights = t.sin_phi * (t.cos_phi - 1j * t.sin_phi)
    return -4.0 * math.pi / k * np.einsum("ngpl,pl->ng", overlaps, weights)


def angular_sums(kappa, kappa_prime, l_max, conjugate_pair):
    """Per-(p, l) sums over m of the coefficient products, (2, l_max+1).

    Normal kinds pair c*(khat) with c(khat'); the counter-rotating kind pairs
    c*(khat) with c*(khat') at mirrored m, picking up the conjugation parity
    of the vector harmonics: (-1)^(m+1) for TE, (-1)^m for TM.
    """
    c1, c2 = coefficient_tables((kappa, kappa_prime), l_max)
    if not conjugate_pair:
        return np.einsum("plm,plm->pl", np.conj(c1), c2)
    m = np.arange(-l_max, l_max + 1)
    parity = np.where(m % 2 == 0, 1.0, -1.0)
    return np.einsum("pm,plm,plm->pl", np.stack([-parity, parity]), np.conj(c1),
                     np.conj(np.flip(c2, axis=2)))


def mode_sum(spec, kappas, direction, points, l_max, kind):
    """(1/k) sum_{plm} c_{lmg}^p S^p_{lm}(r) for K plane-wave modes at N
    points, (K, N, 3): the coefficient tables of all K modes as 2K weight
    rows of one sum over m, X from the TE rows and V and W from the TM rows,
    on the local spherical basis."""
    r, theta, phi = modes._spherical_coords(points)
    k = kappas[0].k
    coeffs = coefficient_tables(kappas, l_max)
    y, dy, u = harmonic_sums(l_max, theta, phi, coeffs.reshape((-1,) + coeffs.shape[2:]))
    ls = np.arange(l_max + 1, dtype=float)
    bx = specfun._x_family(ls, dy[:, 0::2], u[:, 0::2])
    bv, bw = specfun._vw_families(ls, y[:, 1::2], dy[:, 1::2], u[:, 1::2])
    f_ll, f_up, f_dn = modes._radial_tables(spec, k, r, l_max, direction, kind)
    f_te, f_tm_up, f_tm_dn = f_ll[:, 0], f_up[:, 1], f_dn[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        w_v = np.sqrt(ls / (2.0 * ls + 1.0))
        w_w = np.sqrt((ls + 1.0) / (2.0 * ls + 1.0))
    sph = np.einsum("nl,nklc->knc", f_te, bx)
    sph += np.einsum("nl,nklc->knc", w_v * f_tm_up, bv)
    sph -= np.einsum("nl,nklc->knc", w_w * f_tm_dn, bw)
    return math.sqrt(2.0 / math.pi) * specfun.spherical_to_cartesian(sph, theta, phi)
