"""The radial family of the spherical eigenmodes in mpmath, as a test oracle.

Same layout as ``qmie.modes._radial_tables``: three complex arrays
f^p_{l,l}, f^p_{l,l+1}, f^p_{l,l-1}, indexed [..., p, l] with p = 0 for TE
and 1 for TM. The boundary coefficients follow their definitions,

    alpha_TE = q q' j_{l+1}(q') y_l(q) - q^2 j_l(q') y_{l+1}(q)
    beta_TE  = q^2 j_l(q') j_{l+1}(q) - q q' j_{l+1}(q') j_l(q)
    alpha_TM = q^2 j_{l+1}(q') y_l(q) - q q' j_l(q') y_{l+1}(q) + c_l y_l(q)
    beta_TM  = q q' j_l(q') j_{l+1}(q) - q^2 j_{l+1}(q') j_l(q) - c_l j_l(q)

with q' = sqrt(eps) q and c_l = q' (eps - 1) / eps (l + 1) j_l(q'), and
sin phi = beta / |alpha + i beta|. Everything runs at 40 digits, where
neither Bessel values past the float range nor their products under- or
overflow, and is rounded to floats only at the end.
"""

from __future__ import annotations

import functools

import mpmath as mp
import numpy as np

DPS = 40


@functools.lru_cache(maxsize=None)
def _bessel(kind: str, l: int, x: float):
    if x == 0.0 and kind == "j":
        return mp.mpf(1 if l == 0 else 0)
    with mp.workdps(DPS):
        z = mp.mpf(x)
        f = mp.besselj if kind == "j" else mp.bessely
        return mp.sqrt(mp.pi / (2 * z)) * f(mp.mpf(l) + mp.mpf(1) / 2, z)


def _phase(eps: float, q: float, p: int, l: int):
    """(gamma, sin phi, phi) of channel (p, l) at 40 digits."""
    with mp.workdps(DPS):
        q_m = mp.mpf(q)
        qp_m = mp.sqrt(mp.mpf(eps)) * q_m
        qp = float(qp_m)
        i0, i1 = _bessel("j", l, qp), _bessel("j", l + 1, qp)
        j0, j1 = _bessel("j", l, q), _bessel("j", l + 1, q)
        y0, y1 = _bessel("y", l, q), _bessel("y", l + 1, q)
        qq, qqp = q_m * q_m, q_m * qp_m
        if p == 0:
            alpha = qqp * i1 * y0 - qq * i0 * y1
            beta = qq * i0 * j1 - qqp * i1 * j0
        else:
            contact = qp_m * (mp.mpf(eps) - 1) / mp.mpf(eps) * (l + 1) * i0
            alpha = qq * i1 * y0 - qqp * i0 * y1 + contact * y0
            beta = qqp * i0 * j1 - qq * i1 * j0 - contact * j0
        norm = mp.sqrt(alpha**2 + beta**2)
        return 1 / norm, beta / norm, mp.atan2(beta, alpha)


def radial_tables(spec, k, r, l_max, direction, kind, branch=None, rows=None):
    """mpmath counterpart of ``qmie.modes._radial_tables``.

    ``rows`` limits the orders l computed (the others stay 0); by default
    every l = 0..l_max is computed. Row l = 0 uses the neutral phase, as the
    package does.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    rows = range(l_max + 1) if rows is None else rows
    sign = -1 if direction == "outgoing" else 1
    out = np.zeros((3, radii.size, 2, l_max + 1), dtype=complex)
    with mp.workdps(DPS):
        for n, x in enumerate(radii.tolist()):
            kr = float(mp.mpf(k) * mp.mpf(x))
            if kind != "vacuum":
                inside = x < spec.radius if branch is None else branch == "inside"
                kr_in = float(mp.sqrt(mp.mpf(spec.epsilon)) * mp.mpf(k) * mp.mpf(x))
            for l in rows:
                lps = (l, min(l + 1, l_max + 1), max(l - 1, 0))
                for p in (0, 1):
                    if kind == "vacuum":
                        vals = [_bessel("j", lp, kr) for lp in lps]
                    else:
                        if l == 0:
                            gamma, sin, phi = mp.mpf(1), mp.mpf(0), mp.mpf(0)
                        else:
                            gamma, sin, phi = _phase(spec.epsilon, k * spec.radius, p, l)
                        ph = mp.expj(sign * phi)
                        if inside:
                            vals = [ph * gamma * _bessel("j", lp, kr_in) for lp in lps]
                        else:
                            vals = []
                            for lp in lps:
                                h = _bessel("j", lp, kr) - sign * 1j * _bessel("y", lp, kr)
                                vals.append(_bessel("j", lp, kr) + sign * 1j * sin * ph * h)
                        if kind == "scattered":
                            vals = [v - _bessel("j", lp, kr) for v, lp in zip(vals, lps)]
                    for f, v in enumerate(vals):
                        out[f, n, p, l] = complex(v)
    shape = np.shape(r)
    return tuple(f.reshape(shape + (2, l_max + 1)) for f in out)
