"""Coupling kernels of the canonical transformation between plane-wave
operators and scattering-eigenmode operators.

All three kernels reduce the sphere-volume integral of a mode product to
analytic angular sums times one-dimensional radial integrals of spherical
Bessel products over [0, R]. The radial integrals run through adaptive
quadrature; the angular part uses the multipole coefficient tables of the
plane-wave modes.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import spherical_jn

from . import modes
from .errors import DomainError, PoleExcludedError, ToleranceError
from .miecore import SphereSpec, phase_table, truncation_order
from .modes import PlaneModeIndex

__all__ = [
    "CouplingKernel",
    "coupling_v",
    "b_coefficient",
    "a_offdiagonal_kernel",
    "a_diagonal_channel_sum",
]

# |k| spacings below this relative gap count as sitting on the pole
_POLE_RTOL = 1e-13


@dataclass(frozen=True)
class CouplingKernel:
    """One evaluated kernel entry with its quadrature error estimate."""

    kappa: PlaneModeIndex
    kappa_prime: PlaneModeIndex
    value: complex
    kind: str
    abs_err: float


def _check_direction(direction: str) -> float:
    if direction == "outgoing":
        return -1.0
    if direction == "incoming":
        return 1.0
    raise DomainError(f"direction must be 'outgoing' or 'incoming', got {direction!r}")


def _radial_overlap(l: int, a: float, b: float, radius: float, rtol: float):
    """integral_0^R r^2 j_l(a r) j_l(b r) dr with an error estimate."""

    def integrand(r):
        return r * r * spherical_jn(l, a * r) * spherical_jn(l, b * r)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(integrand, 0.0, radius, epsabs=1e-15, epsrel=rtol, limit=200)
        except IntegrationWarning as exc:
            raise ToleranceError(
                f"radial overlap quadrature failed to converge at l={l}: {exc}"
            ) from exc
    return val, err


def _angular_sums(kappa: PlaneModeIndex, kappa_prime: PlaneModeIndex,
                  l_max: int, conjugate_pair: bool):
    """Per-(p, l) sums over m of the plane-wave coefficient products.

    Normal kinds pair c*(khat) with c(khat'); the counter-rotating kind pairs
    c*(khat) with c*(khat') at mirrored m, picking up the conjugation parity
    of the vector harmonics: (-1)^(m+1) for TE, (-1)^m for TM.
    """
    (t1, p1), (t2, p2) = kappa.angles, kappa_prime.angles
    tables = modes._coefficient_table([t1, t2], [p1, p2], l_max)
    c1_te, c1_tm = tables[0, kappa.g - 1]
    c2_te, c2_tm = tables[1, kappa_prime.g - 1]
    if not conjugate_pair:
        m_te = np.einsum("lm,lm->l", np.conj(c1_te), c2_te)
        m_tm = np.einsum("lm,lm->l", np.conj(c1_tm), c2_tm)
        return m_te, m_tm
    m = np.arange(-l_max, l_max + 1)
    parity = np.where(m % 2 == 0, 1.0, -1.0)
    flip_te = np.conj(np.flip(c2_te, axis=1))
    flip_tm = np.conj(np.flip(c2_tm, axis=1))
    m_te = np.einsum("m,lm,lm->l", -parity, np.conj(c1_te), flip_te)
    m_tm = np.einsum("m,lm,lm->l", parity, np.conj(c1_tm), flip_tm)
    return m_te, m_tm


def _volume_overlap(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int,
    rtol: float,
    scattered: bool,
    phase_sign: float,
    conjugate_pair: bool,
):
    """Reduced sphere-volume integral of G*_kappa dotted into the kappa'
    family member: G (scattered=False), F or F* (scattered=True).

    Returns (value, abs_err). The reduction is
    (2/pi) sum_{p,l} M^p_l Phi^p_l T^p_l with M the angular coefficient sums,
    Phi the interior radial phase factor and T the radial overlaps.
    """
    k = kappa.k
    kp = kappa_prime.k
    b_scale = math.sqrt(spec.epsilon) if scattered else 1.0
    m_te, m_tm = _angular_sums(kappa, kappa_prime, l_max, conjugate_pair)
    if scattered:
        t = phase_table(spec, kp * spec.radius, l_max)
        phase = t.gamma * np.exp(phase_sign * 1j * t.phi)
    else:
        phase = np.ones((2, l_max + 1))
    total = 0.0 + 0.0j
    err = 0.0
    for l in range(1, l_max + 1):
        t_te, e_te = _radial_overlap(l, k, b_scale * kp, spec.radius, rtol)
        o_up, e_up = _radial_overlap(l + 1, k, b_scale * kp, spec.radius, rtol)
        o_dn, e_dn = _radial_overlap(l - 1, k, b_scale * kp, spec.radius, rtol)
        w_up = l / (2.0 * l + 1.0)
        w_dn = (l + 1.0) / (2.0 * l + 1.0)
        t_tm = w_up * o_up + w_dn * o_dn
        e_tm = w_up * e_up + w_dn * e_dn
        phi_te, phi_tm = phase[:, l]
        total += m_te[l] * phi_te * t_te + m_tm[l] * phi_tm * t_tm
        err += abs(m_te[l] * phi_te) * e_te + abs(m_tm[l] * phi_tm) * e_tm
    return (2.0 / math.pi) * total, (2.0 / math.pi) * err


def _default_l_max(spec: SphereSpec, kappa, kappa_prime, scattered: bool) -> int:
    scale = math.sqrt(spec.epsilon) if scattered else 1.0
    q_eff = spec.radius * max(kappa.k, scale * kappa_prime.k)
    return truncation_order(q_eff)


def coupling_v(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int | None = None,
    rtol: float = 1e-11,
) -> CouplingKernel:
    """Sphere-mediated plane-wave coupling V = (sqrt(w w')/4) v with
    v = ((eps-1)/eps) integral_V G* . G'. Hermitian: V(k,k') = conj(V(k',k)).
    """
    k, kp = kappa.k, kappa_prime.k
    pref = math.sqrt(k * kp) / 4.0 * (spec.epsilon - 1.0) / spec.epsilon
    if spec.epsilon == 1.0:
        return CouplingKernel(kappa, kappa_prime, 0.0 + 0.0j, "V", 0.0)
    if l_max is None:
        l_max = _default_l_max(spec, kappa, kappa_prime, scattered=False)
    val, err = _volume_overlap(
        spec, kappa, kappa_prime, l_max, rtol,
        scattered=False, phase_sign=0.0, conjugate_pair=False,
    )
    return CouplingKernel(kappa, kappa_prime, pref * val, "V", abs(pref) * err)


def b_coefficient(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int | None = None,
    rtol: float = 1e-11,
    direction: str = "outgoing",
) -> CouplingKernel:
    """Counter-rotating coefficient
    B = -((eps-1)/2) (sqrt(k k')/(k + k')) integral_V G* . F'*.
    """
    sign = _check_direction(direction)
    k, kp = kappa.k, kappa_prime.k
    pref = -(spec.epsilon - 1.0) / 2.0 * math.sqrt(k * kp) / (k + kp)
    if spec.epsilon == 1.0:
        return CouplingKernel(kappa, kappa_prime, 0.0 + 0.0j, "B", 0.0)
    if l_max is None:
        l_max = _default_l_max(spec, kappa, kappa_prime, scattered=True)
    # conjugating F flips the interior phase factor e^{sign i phi} as well
    val, err = _volume_overlap(
        spec, kappa, kappa_prime, l_max, rtol,
        scattered=True, phase_sign=-sign, conjugate_pair=True,
    )
    return CouplingKernel(kappa, kappa_prime, pref * val, "B", abs(pref) * err)


def a_offdiagonal_kernel(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int | None = None,
    rtol: float = 1e-11,
    direction: str = "outgoing",
) -> CouplingKernel:
    """Smooth off-pole part of the co-rotating coefficient,
    ((eps-1)/2) (sqrt(k k')/(k - k')) integral_V G* . F'.

    The point |k| = |k'| is excluded: its principal-value treatment has no
    stand-alone numeric value outside the full scattering derivation.
    """
    sign = _check_direction(direction)
    k, kp = kappa.k, kappa_prime.k
    if abs(k - kp) <= _POLE_RTOL * max(k, kp):
        raise PoleExcludedError(
            f"|k| = {k!r} and |k'| = {kp!r} sit on the 1/(|k|-|k'|) pole"
        )
    pref = (spec.epsilon - 1.0) / 2.0 * math.sqrt(k * kp) / (k - kp)
    if spec.epsilon == 1.0:
        return CouplingKernel(kappa, kappa_prime, 0.0 + 0.0j, "A_offdiag", 0.0)
    if l_max is None:
        l_max = _default_l_max(spec, kappa, kappa_prime, scattered=True)
    val, err = _volume_overlap(
        spec, kappa, kappa_prime, l_max, rtol,
        scattered=True, phase_sign=sign, conjugate_pair=False,
    )
    return CouplingKernel(kappa, kappa_prime, pref * val, "A_offdiag", abs(pref) * err)


def a_diagonal_channel_sum(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int | None = None,
    direction: str = "outgoing",
) -> complex:
    """Channel sum sum_{p,l,m} c*_{lmg} c_{lmg'} e^{-+ i phi} cos(phi)
    weighting the elastic delta term of the co-rotating coefficient.
    """
    sign = _check_direction(direction)
    k, kp = kappa.k, kappa_prime.k
    if abs(k - kp) > 1e-12 * max(k, kp):
        raise DomainError(
            f"diagonal term requires |k| = |k'|; got {k!r} and {kp!r}"
        )
    q = k * spec.radius
    if l_max is None:
        l_max = truncation_order(q)
    m_te, m_tm = _angular_sums(kappa, kappa_prime, l_max, conjugate_pair=False)
    t = phase_table(spec, q, l_max)
    # rows l = 0 of the angular sums vanish
    return complex(np.sum(np.stack([m_te, m_tm]) * np.exp(sign * 1j * t.phi) * t.cos_phi))
