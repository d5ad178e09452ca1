"""Mie channel coefficients and phase shifts for a lossless dielectric sphere.

Every scattering observable of the package reduces to the per-channel phase
shift phi_l^p computed here. Channels are (polarization, multipole order)
pairs; the sphere enters only through its relative permittivity and radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import specfun
from .errors import DegenerateChannelError, DomainError, ResourceLimitError

__all__ = [
    "SphereSpec",
    "ChannelIndex",
    "SizeParams",
    "PhaseShiftRecord",
    "mie_boundary_coefficients",
    "phase_shift",
    "small_particle_sin_phi",
    "truncation_order",
]

POLARIZATIONS = ("TE", "TM")


@dataclass(frozen=True)
class SphereSpec:
    """Lossless dielectric sphere: relative permittivity and radius."""

    epsilon: float
    radius: float

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        radius = float(self.radius)
        if not math.isfinite(eps) or eps < 1.0:
            raise DomainError(f"epsilon={eps} must be finite and >= 1")
        if not math.isfinite(radius) or radius <= 0.0:
            raise DomainError(f"radius={radius} must be finite and positive")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class ChannelIndex:
    """Scattering channel (p, l); l = 0 modes vanish identically."""

    p: str
    l: int

    def __post_init__(self) -> None:
        if self.p not in POLARIZATIONS:
            raise DomainError(f"polarization {self.p!r} not in {POLARIZATIONS}")
        if self.l != int(self.l) or self.l < 1:
            raise DomainError(f"multipole order l={self.l} must be an integer >= 1")
        object.__setattr__(self, "l", int(self.l))


@dataclass(frozen=True)
class SizeParams:
    """Adimensional size parameters q = kR and q' = sqrt(eps) k R."""

    q: float
    q_prime: float

    @classmethod
    def from_q(cls, spec: SphereSpec, q: float) -> "SizeParams":
        q = float(q)
        if not math.isfinite(q) or q <= 0.0:
            raise DomainError(f"q={q} must be finite and positive")
        return cls(q=q, q_prime=math.sqrt(spec.epsilon) * q)


@dataclass(frozen=True)
class PhaseShiftRecord:
    """Boundary coefficients and the derived phase-shift trigonometry.

    Invariants: gamma_l = 1/sqrt(alpha^2 + beta^2), cos_phi = gamma*alpha,
    sin_phi = gamma*beta, phi = atan2(beta, alpha).
    """

    alpha_l: float
    beta_l: float
    gamma_l: float
    cos_phi: float
    sin_phi: float
    phi: float


def mie_boundary_coefficients(
    spec: SphereSpec, q: float, channel: ChannelIndex
) -> tuple[float, float]:
    """Boundary-matching pair (alpha_l, beta_l) for one channel at q = kR.

    The four Bessel-product formulas are evaluated as written, with interior
    argument q' = sqrt(eps) q. For eps = 1 the Wronskian identity collapses
    the pair to (1, 0) for both polarizations.
    """
    sizes = SizeParams.from_q(spec, q)
    q = sizes.q
    qp = sizes.q_prime
    eps = spec.epsilon
    l = channel.l
    j_out = specfun.spherical_bessel_j(l + 1, q)
    y_out = specfun.spherical_bessel_y(l + 1, q)
    j_in = specfun.spherical_bessel_j(l + 1, qp)
    # grouping scalars apart from the Bessel products lets the eps = 1 case
    # cancel bit-exactly to (1, 0)
    if channel.p == "TE":
        alpha = (q * qp) * (j_in[l + 1] * y_out[l]) - (q * q) * (j_in[l] * y_out[l + 1])
        beta = (q * q) * (j_in[l] * j_out[l + 1]) - (q * qp) * (j_in[l + 1] * j_out[l])
    else:
        contact = qp * ((eps - 1.0) / eps) * (l + 1.0) * j_in[l]
        alpha = (q * q) * (j_in[l + 1] * y_out[l]) - (q * qp) * (j_in[l] * y_out[l + 1])
        alpha += contact * y_out[l]
        beta = (q * qp) * (j_in[l] * j_out[l + 1]) - (q * q) * (j_in[l + 1] * j_out[l])
        beta -= contact * j_out[l]
    return float(alpha), float(beta)


def phase_shift(spec: SphereSpec, q: float, channel: ChannelIndex) -> PhaseShiftRecord:
    """Channel phase shift with all derived trigonometric fields."""
    alpha, beta = mie_boundary_coefficients(spec, q, channel)
    norm = math.hypot(alpha, beta)
    if norm == 0.0:
        raise DegenerateChannelError(
            f"(alpha, beta) vanished for channel {channel} at q={q}"
        )
    gamma = 1.0 / norm
    return PhaseShiftRecord(
        alpha_l=alpha,
        beta_l=beta,
        gamma_l=gamma,
        cos_phi=gamma * alpha,
        sin_phi=gamma * beta,
        phi=math.atan2(beta, alpha),
    )


def small_particle_sin_phi(spec: SphereSpec, q: float, channel: ChannelIndex) -> float:
    """Leading small-q behavior of sin phi for one channel.

    For (TM, 1) this is the closed dipole form -(2/3) q^3 (eps-1)/(eps+2).
    Other channels only have a published power-law scaling, so the returned
    value -(eps-1) q^{2l+1} (TM) or -(eps-1) q^{2l+3} (TE) is an order-of-
    magnitude envelope, not a calibrated prefactor.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"q={q} must be finite and non-negative")
    if q > 0.3:
        warnings.warn(
            f"small-particle expansion requested at q={q} > 0.3; "
            "the asymptotic form degrades quickly there",
            UserWarning,
            stacklevel=2,
        )
    eps = spec.epsilon
    if channel.p == "TM" and channel.l == 1:
        return -2.0 / 3.0 * q**3 * (eps - 1.0) / (eps + 2.0)
    exponent = 2 * channel.l + (1 if channel.p == "TM" else 3)
    warnings.warn(
        f"channel ({channel.p}, l={channel.l}) has no closed small-q prefactor; "
        "returning an order-of-magnitude envelope",
        UserWarning,
        stacklevel=2,
    )
    return -(eps - 1.0) * q**exponent


def truncation_order(q: float, margin: int = 4) -> int:
    """Multipole cutoff for series at size parameter q (Wiscombe-style).

    Phase shifts at order l need Bessel orders up to l + 1, so a cutoff whose
    phase shifts would pass HARD_CAP_LMAX raises ResourceLimitError naming
    the order q needs; it is never clamped.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"q={q} must be finite and non-negative")
    raw = math.ceil(q + 4.0 * q ** (1.0 / 3.0) + 2.0) + int(margin)
    if raw + 1 > specfun.HARD_CAP_LMAX:
        raise ResourceLimitError(
            f"q={q} needs multipole order {raw}, whose phase shifts need Bessel "
            f"order {raw + 1}, above the hard cap {specfun.HARD_CAP_LMAX}"
        )
    return max(4, raw)
