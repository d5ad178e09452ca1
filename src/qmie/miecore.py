"""Mie channel coefficients and phase shifts for a lossless dielectric sphere.

Every scattering observable of the package reduces to the per-channel phase
shift phi_l^p computed here. Channels are (polarization, multipole order)
pairs; the sphere enters only through its relative permittivity and radius.

The sphere's size enters every series through its multipole cutoff l_max.
Its default is ``truncation_order(q)``, Wiscombe's rule, and
``_resolve_cutoff(q, l_max, reach)`` is the one place that applies it and
checks an explicit cutoff (``specfun._check_cutoff``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DegenerateChannelError, DomainError, ResourceLimitError

__all__ = [
    "Q_FLOOR",
    "SphereSpec",
    "ChannelIndex",
    "PhaseShiftRecord",
    "PhaseTable",
    "phase_table",
    "mie_boundary_coefficients",
    "phase_shift",
    "small_particle_sin_phi",
    "truncation_order",
]

POLARIZATIONS = ("TE", "TM")

# Smallest size parameter q = kR a phase table accepts, with a margin above
# the floor 1e-55 of the y_l sweeps (see specfun._arguments).
Q_FLOOR = 1e-50


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
        l = specfun._as_integer(self.l, "multipole order l")
        if l < 1:
            raise DomainError(f"multipole order l={l} must be an integer >= 1")
        object.__setattr__(self, "l", l)


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

    Read-only arrays shaped (2, l_max + 1) for one size parameter, or
    (N, 2, l_max + 1) for N of them, indexed [..., p, l] with p = 0 for TE
    and 1 for TM. Each row l >= 1 obeys the PhaseShiftRecord invariants; row
    l = 0 holds the neutral values (alpha 1, beta 0, gamma 1, phi 0), since
    l = 0 modes vanish identically. ``sin_mantissa`` and the integer
    ``sin_exponent`` carry sin phi = ldexp(sin_mantissa, sin_exponent) with
    the mantissa inside the float range, also where sin_phi underflows to 0:
    products of sin phi with values past the float range, such as y_l(k r)
    for l >> k r, are formed from them.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    sin_phi: np.ndarray
    cos_phi: np.ndarray
    phi: np.ndarray
    sin_mantissa: np.ndarray
    sin_exponent: np.ndarray


def _size_parameters(q) -> tuple[np.ndarray, list[float]]:
    """q as a validated 0-d or 1-D float array and as a list of floats.

    A bad entry raises DomainError naming it.
    """
    qs = np.asarray(q, dtype=float)
    if qs.ndim > 1 or qs.size == 0:
        raise DomainError(f"q must be a scalar or a non-empty 1-D array, got shape {qs.shape}")
    q_list = qs.reshape(-1).tolist()
    for n, x in enumerate(q_list):
        if not (math.isfinite(x) and x >= Q_FLOOR):
            name = "q" if qs.ndim == 0 else f"q[{n}]"
            raise DomainError(f"{name}={x} must be finite and at least Q_FLOOR={Q_FLOOR}")
    return qs, q_list


def phase_table(spec: SphereSpec, q, l_max) -> PhaseTable:
    """Phase shifts of all channels l = 1..l_max at q = kR.

    q is one size parameter, giving arrays shaped (2, l_max + 1), or a 1-D
    array of N of them, giving (N, 2, L + 1). Every entry must be finite
    and at least ``Q_FLOOR`` (DomainError naming the first bad entry
    otherwise), and a
    2-D or empty q is a DomainError; a degenerate channel raises
    DegenerateChannelError naming its q. For an array q, l_max is one
    cutoff or an integer array of one per q, and L is the largest. The
    scalar table is the N = 1 slice of the array form, and slice [n] of an
    array table equals ``phase_table(spec, q[n], l_max[n])`` bit for bit on
    its columns up to l_max[n]; past them it is neutral, like column 0.
    ``qmie palpha-scan`` builds one table for its whole q grid, and a
    ``bogoliubov`` scan one for all its k', each at its own cutoff.

    The table costs three Bessel sweeps: j and y at q and j at the interior
    argument q' = sqrt(eps) q, each one call over all N entries, with the j
    sweeps run to each entry's own cutoff. From ``specfun.BATCH_MIN``
    entries on, each call is one batched recurrence; below that, and for
    one q, it is one scalar recurrence per entry; the rows are equal bit for
    bit either way. The arithmetic after them is one array pass over all N.
    The sweeps come as mantissas and powers of two, and the common factors
    j_l(q') y_l(q) of alpha and j_l(q') j_l(q) of beta stay powers of two
    until the end, so y_l overflowing and j_l underflowing for l >> q never
    meet as 0 * inf: a phase too small to represent comes out as 0. Where
    the plain Bessel products are normal floats, alpha and beta equal them
    bit for bit. Rows up to q's own cutoff do not depend on l_max. For
    eps = 1 every row is exactly neutral.
    """
    qs, q_list = _size_parameters(q)
    eps = spec.epsilon
    n = len(q_list)
    # the sweeps' cap on order l_max + 1, before any table is allocated
    if np.ndim(l_max) == 0:
        l_max = specfun._check_cutoff(l_max, 1)
        cutoffs, past = [l_max] * n, None
    else:
        cutoffs = np.asarray(l_max)
        if cutoffs.shape != qs.shape or cutoffs.dtype.kind not in "iu":
            raise DomainError(f"l_max must be one integer or one per q, got {l_max!r}")
        specfun._check_cutoff(int(cutoffs.min()), 1)
        l_max = specfun._check_cutoff(int(cutoffs.max()), 1)
        past = np.arange(1, l_max + 1) > cutoffs[:, None]
        cutoffs = cutoffs.tolist()
    # alpha, beta, gamma, sin_phi, cos_phi, phi, sin_mantissa; column l = 0
    # is neutral
    out = np.empty((7, n, 2, l_max + 1))
    out[..., 0] = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])[:, None, None]
    sin_exponent = np.zeros((n, 2, l_max + 1), dtype=int)
    if eps == 1.0:
        # no sphere: every channel is neutral, exactly
        out[..., 1:] = out[..., :1]
    else:
        x = qs.reshape(-1)
        xp = math.sqrt(eps) * x
        # the j sweeps run at least to q's own cutoff, so every table up to
        # that cutoff starts the recurrence alike and agrees on shared rows;
        # only orders 0..l_max + 1 are kept
        width = l_max + 2
        tops = np.array([max(c + 1, min(_cutoff(v) + 1, specfun.HARD_CAP_LMAX))
                         for v, c in zip(q_list, cutoffs)])
        mant = np.empty((3, n, width))
        exps = np.empty((3, n, width), dtype=int)
        for row, (m, e) in enumerate((specfun._j_scaled(tops, x, width),
                                      specfun._y_scaled(l_max + 1, x),
                                      specfun._j_scaled(tops, xp, width))):
            mant[row], exps[row] = m, e
        # orders l and l + 1 for l = 1..l_max, both in units of 2^exps[l],
        # with mantissas in [0.5, 1) so that their products stay in range
        frac, bits = np.frexp(mant)
        exps += bits
        (j0, y0, i0), (ej, ey, ei) = frac[..., 1:-1], exps[..., 1:-1]
        j1, y1, i1 = np.ldexp(frac[..., 2:], exps[..., 2:] - exps[..., 1:-1])
        qc, qpc = x[:, None], xp[:, None]
        qq, qqp = qc * qc, qc * qpc
        contact = (qpc * ((eps - 1.0) / eps)) * np.arange(2.0, l_max + 2.0) * i0
        iy, yi, ij, ji = i1 * y0, i0 * y1, i0 * j1, i1 * j0
        alpha, beta = np.empty((2, n, 2, l_max))
        alpha[:, 0] = qqp * iy - qq * yi
        alpha[:, 1] = qq * iy - qqp * yi + contact * y0
        beta[:, 0] = qq * ij - qqp * ji
        beta[:, 1] = qqp * ij - qq * ji - contact * j0
        # the trigonometry runs on both scaled by the larger of their powers
        e_alpha, e_beta = (ei + ey)[:, None], (ei + ej)[:, None]
        if past is not None and past.any():
            # (1, 0) at scale 1 past an entry's own cutoff: the neutral row
            for a, value in ((alpha, 1.0), (beta, 0.0), (e_alpha, 0), (e_beta, 0)):
                np.copyto(a, value, where=past[:, None])
        shift = np.maximum(e_alpha, e_beta)
        np.subtract(e_beta, shift, out=sin_exponent[..., 1:])
        a, b = np.ldexp(alpha, e_alpha - shift), np.ldexp(beta, sin_exponent[..., 1:])
        norm = np.hypot(a, b)
        if norm.min() == 0.0:
            i, p, l = np.argwhere(norm == 0.0)[0]
            raise DegenerateChannelError(
                f"(alpha, beta) vanished for channel ({POLARIZATIONS[p]}, {l + 1}) "
                f"at q={q_list[i]}")
        with np.errstate(over="ignore"):
            np.ldexp(alpha, e_alpha, out=out[0, ..., 1:])
        np.ldexp(beta, e_beta, out=out[1, ..., 1:])
        np.ldexp(1.0 / norm, -shift, out=out[2, ..., 1:])
        np.divide(a, norm, out=out[4, ..., 1:])
        np.arctan2(b, a, out=out[5, ..., 1:])
        np.divide(beta, norm, out=out[6, ..., 1:])
        # scaled after the division, so that a sin phi in the normal range
        # never passes through a subnormal b
        np.ldexp(out[6, ..., 1:], sin_exponent[..., 1:], out=out[3, ..., 1:])
    out.flags.writeable = False
    sin_exponent.flags.writeable = False
    if qs.ndim == 0:
        return PhaseTable(*out[:, 0], sin_exponent[0])
    return PhaseTable(*out, sin_exponent)


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
    """Leading small-q term of sin phi for one channel, from the
    small-particle expansions of the Mie coefficients (Bohren and Huffman):

        TM: -(l+1)(eps-1) q^{2l+1} / [(2l+1)!! (2l-1)!! (l eps + l + 1)]
        TE: -(eps-1) q^{2l+3} / [(2l+1)!! (2l+3)!!]

    (TM, 1) is the dipole form -(2/3) q^3 (eps-1)/(eps+2). ``phase_table``
    rows equal these terms times 1 + O(q^2). The double factorials are taken
    in logs, as in ``specfun._series_j``, so an order l >> q gives 0 or a
    tiny value, never an overflow.
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
    eps, l = spec.epsilon, channel.l
    ln_df = specfun._ln_double_factorial_odd
    if channel.p == "TM":
        power, ln_denominator = 2 * l + 1, ln_df(l) + ln_df(l - 1)
        factor = (l + 1) * (eps - 1.0) / (l * eps + l + 1.0)
    else:
        power, ln_denominator = 2 * l + 3, ln_df(l) + ln_df(l + 1)
        factor = eps - 1.0
    return -factor * q**power * math.exp(-ln_denominator)


def _cutoff(q: float) -> int:
    return math.ceil(q + 4.0 * q ** (1.0 / 3.0) + 2.0) + 4


def truncation_order(q: float) -> int:
    """Multipole cutoff for series at size parameter q (Wiscombe-style).

    Phase shifts at order l need Bessel orders up to l + 1, so a cutoff whose
    phase shifts would pass HARD_CAP_LMAX raises ResourceLimitError naming
    the order q needs; it is never clamped.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError(f"q={q} must be finite and non-negative")
    raw = _cutoff(q)
    if raw + 1 > specfun.HARD_CAP_LMAX:
        raise ResourceLimitError(
            f"q={q} needs multipole order {raw}, whose phase shifts need Bessel "
            f"order {raw + 1}, above the hard cap {specfun.HARD_CAP_LMAX}"
        )
    return max(4, raw)


def _resolve_cutoff(q: float, l_max=None, reach: int = 1) -> int:
    """The multipole cutoff of a sum at size parameter q whose terms need
    Bessel orders up to l_max + reach: l_max, or truncation_order(q) when it
    is None, checked by ``specfun._check_cutoff``. Public functions that take
    l_max call it before any angular or Bessel work."""
    if l_max is None:
        l_max = truncation_order(q)
    return specfun._check_cutoff(l_max, reach)
