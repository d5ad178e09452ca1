"""Mie channel coefficients and phase shifts for a lossless dielectric sphere.

Every scattering observable of the package reduces to the per-channel phase
shift phi_l^p computed here. Channels are (polarization, multipole order)
pairs; the sphere enters only through its relative permittivity and radius.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DegenerateChannelError, DomainError, ResourceLimitError

__all__ = [
    "SphereSpec",
    "ChannelIndex",
    "SizeParams",
    "PhaseShiftRecord",
    "PhaseTable",
    "phase_table",
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


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Boundary coefficients and phase-shift trigonometry of every channel.

    Read-only arrays shaped (2, l_max + 1), indexed [p, l] with p = 0 for TE
    and 1 for TM. Each row l >= 1 obeys the PhaseShiftRecord invariants; row
    l = 0 holds the neutral values (alpha 1, beta 0, gamma 1, phi 0), since
    l = 0 modes vanish identically.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    sin_phi: np.ndarray
    cos_phi: np.ndarray
    phi: np.ndarray


def phase_table(spec: SphereSpec, q: float, l_max: int) -> PhaseTable:
    """Phase shifts of all channels l = 1..l_max at q = kR.

    Built from one j and one y sweep at q and one j sweep at the interior
    argument q' = sqrt(eps) q. The sweeps come as mantissas and powers of
    two, and the common factors j_l(q') y_l(q) of alpha and j_l(q') j_l(q)
    of beta stay powers of two until the end, so y_l overflowing and j_l
    underflowing for l >> q never meet as 0 * inf: a phase too small to
    represent comes out as 0. Where the plain Bessel products are normal
    floats, alpha and beta equal them bit for bit. Rows up to q's own
    cutoff do not depend on l_max. For eps = 1 every row is exactly neutral.
    """
    sizes = SizeParams.from_q(spec, q)
    q, qp, eps = sizes.q, sizes.q_prime, spec.epsilon
    if l_max != int(l_max) or l_max < 1:
        raise DomainError(f"l_max={l_max} must be an integer >= 1")
    l_max = int(l_max)
    # alpha, beta, gamma, sin_phi, cos_phi, phi; column l = 0 is neutral
    out = np.empty((6, 2, l_max + 1))
    out[:, :, 0] = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    if eps == 1.0:
        # no sphere: every channel is neutral, exactly
        out[:, :, 1:] = out[:, :, :1]
    else:
        def orders(mant, exps):
            # orders l and l + 1 for l = 1..l_max, both in units of 2^exps[l],
            # with mantissas in [0.5, 1) so that their products stay in range
            frac, bits = np.frexp(mant[:l_max + 2])
            exps = exps[:l_max + 2] + bits
            return frac[1:-1], np.ldexp(frac[2:], exps[2:] - exps[1:-1]), exps[1:-1]

        # the j sweeps run at least to q's own cutoff, so every table up to
        # that cutoff starts the recurrence alike and agrees on shared rows
        top = max(l_max + 1, min(_cutoff(q) + 1, specfun.HARD_CAP_LMAX))
        j0, j1, ej = orders(*specfun._j_scaled(top, q))
        y0, y1, ey = orders(*specfun._y_scaled(l_max + 1, q))
        i0, i1, ei = orders(*specfun._j_scaled(top, qp))
        contact = qp * ((eps - 1.0) / eps) * np.arange(2.0, l_max + 2.0) * i0
        iy, yi, ij, ji = i1 * y0, i0 * y1, i0 * j1, i1 * j0
        alpha, beta = np.empty((2, 2, l_max))
        alpha[0] = (q * qp) * iy - (q * q) * yi
        alpha[1] = (q * q) * iy - (q * qp) * yi + contact * y0
        beta[0] = (q * q) * ij - (q * qp) * ji
        beta[1] = (q * qp) * ij - (q * q) * ji - contact * j0
        # the trigonometry runs on both scaled by the larger of their powers
        e_alpha, e_beta = ei + ey, ei + ej
        shift = np.maximum(e_alpha, e_beta)
        a, b = np.ldexp(alpha, e_alpha - shift), np.ldexp(beta, e_beta - shift)
        norm = np.hypot(a, b)
        if norm.min() == 0.0:
            p, l = np.argwhere(norm == 0.0)[0]
            raise DegenerateChannelError(
                f"(alpha, beta) vanished for channel ({POLARIZATIONS[p]}, {l + 1}) at q={q}")
        with np.errstate(over="ignore"):
            np.ldexp(alpha, e_alpha, out=out[0, :, 1:])
        np.ldexp(beta, e_beta, out=out[1, :, 1:])
        np.ldexp(1.0 / norm, -shift, out=out[2, :, 1:])
        np.divide(b, norm, out=out[3, :, 1:])
        np.divide(a, norm, out=out[4, :, 1:])
        np.arctan2(b, a, out=out[5, :, 1:])
    out.flags.writeable = False
    return PhaseTable(*out)


def mie_boundary_coefficients(
    spec: SphereSpec, q: float, channel: ChannelIndex
) -> tuple[float, float]:
    """Boundary-matching pair (alpha_l, beta_l) for one channel at q = kR.

    A row of ``phase_table(spec, q, channel.l)``; exactly (1, 0) for eps = 1.
    """
    rec = phase_shift(spec, q, channel)
    return rec.alpha_l, rec.beta_l


def phase_shift(spec: SphereSpec, q: float, channel: ChannelIndex) -> PhaseShiftRecord:
    """Channel phase shift with all derived trigonometric fields.

    A row of ``phase_table(spec, q, channel.l)``.
    """
    t = phase_table(spec, q, channel.l)
    p, l = POLARIZATIONS.index(channel.p), channel.l
    return PhaseShiftRecord(*(float(a[p, l]) for a in
                              (t.alpha, t.beta, t.gamma, t.cos_phi, t.sin_phi, t.phi)))


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


def _cutoff(q: float, margin: int = 4) -> int:
    return math.ceil(q + 4.0 * q ** (1.0 / 3.0) + 2.0) + int(margin)


def truncation_order(q: float, margin: int = 4) -> int:
    """Multipole cutoff for series at size parameter q (Wiscombe-style).

    Phase shifts at order l need Bessel orders up to l + 1, so a cutoff whose
    phase shifts would pass HARD_CAP_LMAX raises ResourceLimitError naming
    the order q needs; it is never clamped.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"q={q} must be finite and non-negative")
    raw = _cutoff(q, margin)
    if raw + 1 > specfun.HARD_CAP_LMAX:
        raise ResourceLimitError(
            f"q={q} needs multipole order {raw}, whose phase shifts need Bessel "
            f"order {raw + 1}, above the hard cap {specfun.HARD_CAP_LMAX}"
        )
    return max(4, raw)
