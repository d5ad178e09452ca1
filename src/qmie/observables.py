"""Single-photon scattering observables and two-photon correlation maps.

Everything here is a delta-stripped elastic kernel: the continuum Dirac
factors of the formal S-matrix never appear, and equal-frequency constraints
are enforced on the mode labels instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import modes, specfun
from .errors import ConsistencyError, DomainError
from .miecore import POLARIZATIONS, ChannelIndex, SphereSpec, _resolve_cutoff, phase_shift, phase_table
from .modes import PlaneModeIndex

__all__ = [
    "ScatteringAmplitude",
    "CrossSectionResult",
    "SMatrixChannel",
    "CorrelationGrid",
    "p_alpha",
    "scattering_amplitude",
    "s_matrix_channels",
    "total_cross_section",
    "differential_cross_section",
    "transition_amplitude_kernel",
    "g2_map",
    "g2_small_particle",
]

_ELASTIC_RTOL = 1e-12


@dataclass(frozen=True)
class ScatteringAmplitude:
    """Elastic scattering amplitude f between two plane-wave labels."""

    value: complex
    kappa_out: PlaneModeIndex
    kappa_in: PlaneModeIndex


@dataclass(frozen=True)
class CrossSectionResult:
    """Total cross section with its per-channel decomposition."""

    sigma: float
    per_channel: tuple
    l_max_used: int


@dataclass(frozen=True)
class SMatrixChannel:
    """Unimodular channel value e^{-2 i phi_l^p} of the S-matrix."""

    channel: ChannelIndex
    value: complex


@dataclass(frozen=True, eq=False)
class CorrelationGrid:
    """g2 values over an azimuth x azimuth detector grid.

    Undefined points (zero single-photon signal at a detector) are NaN.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    values: np.ndarray
    theta1: float
    theta2: float
    pol_i: str
    pol_j: str


def _require_elastic(kappa_out: PlaneModeIndex, kappa_in: PlaneModeIndex) -> float:
    k_out, k_in = kappa_out.k, kappa_in.k
    if abs(k_out - k_in) > _ELASTIC_RTOL * k_in:
        raise DomainError(
            f"inelastic pair |k_out|={k_out} vs |k_in|={k_in}; photons keep their frequency"
        )
    return k_in


def p_alpha(spec: SphereSpec, q: float, channel: ChannelIndex) -> float:
    """Scattered far-field power fraction P_alpha = sin^2 phi of one channel.

    It equals (pi/2) r^2 times the integral of |S_sc|^2 of the channel's
    m = 0 mode over a far-field sphere of radius r; the tests check that
    with a solid-angle quadrature.
    """
    return phase_shift(spec, q, channel).sin_phi ** 2


def _amplitudes(spec: SphereSpec, kappa_in: PlaneModeIndex, theta, phi, l_max: int | None):
    """f for outgoing directions (theta, phi) and both outgoing g: (N, 2),
    through pi_l and tau_l at the scattering angle (``specfun._pair_sums``)."""
    k = kappa_in.k
    q = k * spec.radius
    l_max = _resolve_cutoff(q, l_max)
    n_in, e_in = modes._directions([kappa_in])
    n_out, e_theta, e_phi = specfun.unit_vectors(theta, phi)
    sums = specfun._pair_sums(n_out[:, None], n_in[0], np.stack([1j * e_phi, e_theta], axis=1),
                              e_in[0, kappa_in.g - 1], l_max)
    t = phase_table(spec, q, l_max)
    weights = t.sin_phi * (t.cos_phi - 1j * t.sin_phi)
    return -4.0 * math.pi / k * np.einsum("ngpl,pl->ng", sums, weights)


def scattering_amplitude(
    spec: SphereSpec,
    kappa_out: PlaneModeIndex,
    kappa_in: PlaneModeIndex,
    l_max: int | None = None,
) -> ScatteringAmplitude:
    """f_{kk'} = -(4 pi/|k|) sum c*(out) c(in) sin(phi) e^{-i phi}, truncated."""
    _require_elastic(kappa_out, kappa_in)
    to, po = kappa_out.angles
    f = _amplitudes(spec, kappa_in, [to], [po], l_max)[0, kappa_out.g - 1]
    return ScatteringAmplitude(value=complex(f), kappa_out=kappa_out, kappa_in=kappa_in)


def s_matrix_channels(spec: SphereSpec, q: float, l_max: int | None = None) -> list[SMatrixChannel]:
    """Per-channel S-matrix values e^{-2 i phi_l^p}, l = 1..l_max."""
    l_max = _resolve_cutoff(q, l_max)
    phi = phase_table(spec, q, l_max).phi
    return [SMatrixChannel(channel=ChannelIndex(p, l),
                           value=complex(math.cos(2.0 * phi[i, l]), -math.sin(2.0 * phi[i, l])))
            for i, p in enumerate(POLARIZATIONS) for l in range(1, l_max + 1)]


def total_cross_section(spec: SphereSpec, q: float, l_max: int | None = None) -> CrossSectionResult:
    """Total elastic cross section, computed two ways and cross-checked.

    The addition-theorem form (2 pi/k^2) sum (2l+1) sin^2 phi is returned;
    the angular-coefficient form 16 pi^2/k^2 sum_plm |c_lmg^p sin phi|^2,
    built from the plane-wave multipole content of one incoming label, must
    agree to 1e-9 relative or a consistency error is raised. Both forms read
    the same phase table, so the check guards the harmonic normalization:
    the vector addition theorem sum_m |c_lmg^p|^2 = (2l+1)/(8 pi) at every
    order l, through the Legendre seeds, recurrence and ladder. It stops at
    the last order whose sin^2 phi is not exactly 0 in either polarization
    (NaN counts as nonzero, and fails the check); past it every term is 0,
    also where sin phi itself is a nonzero value below about 1.5e-162.
    """
    l_max = _resolve_cutoff(q, l_max)
    k = q / spec.radius
    sin_phi = phase_table(spec, q, l_max).sin_phi
    sin2 = sin_phi ** 2
    contrib = (2.0 * math.pi / (k * k)) * (2 * np.arange(l_max + 1) + 1) * sin2
    per_channel = tuple((ChannelIndex(p, l), float(contrib[i, l]))
                        for i, p in enumerate(POLARIZATIONS) for l in range(1, l_max + 1))
    sigma = sum(c for _, c in per_channel)
    # independent route: sum_m |c_lmg^p|^2 for one concrete incoming label
    # (any direction and g; the sum is isotropic), here g = 1 at cos theta =
    # 0.8, read from the Legendre rows as sum_m |X . e_phi|^2 (TE) and
    # |X . e_theta|^2 (TM)
    live = np.flatnonzero(np.any(sin2 != 0.0, axis=0))
    angular = 0.0
    if live.size:
        l_live = int(live[-1])
        norms = specfun._tangential_norms(l_live, math.acos(0.8))
        angular = 16.0 * math.pi**2 / (k * k) * float(np.sum(norms * sin2[:, :l_live + 1]))
    # written so that NaN on either side fails the check
    if not abs(angular - sigma) <= 1e-9 * max(sigma, 1e-300):
        raise ConsistencyError(
            f"cross-section forms disagree: angular={angular!r} vs channels={sigma!r}"
        )
    return CrossSectionResult(sigma=float(sigma), per_channel=per_channel, l_max_used=l_max)


def differential_cross_section(
    spec: SphereSpec,
    kappa_in: PlaneModeIndex,
    direction,
    l_max: int | None = None,
):
    """d sigma/d Omega: |f|^2 summed over outgoing polarizations.

    direction is one 3-vector, giving a float, or an (N, 3) array of
    directions, giving N values from one batched pass.
    """
    n = np.asarray(direction, dtype=float)
    rows = np.atleast_2d(n)
    valid = rows.ndim == 2 and rows.shape[1] == 3 and rows.shape[0] > 0 \
        and np.all(np.isfinite(rows))
    norm = np.sqrt(np.einsum("nc,nc->n", rows, rows)) if valid else None
    if not valid or np.any(norm == 0.0):
        raise DomainError("direction must be a finite nonzero 3-vector or an (N, 3) array of them")
    _, theta, phi = modes._spherical_coords(rows)
    f = _amplitudes(spec, kappa_in, theta, phi, l_max)
    total = np.sum(np.abs(f) ** 2, axis=1)
    return float(total[0]) if n.shape == (3,) else total


def transition_amplitude_kernel(
    spec: SphereSpec,
    kappa_out: PlaneModeIndex,
    kappa_in: PlaneModeIndex,
    l_max: int | None = None,
) -> complex:
    """Delta-stripped single-photon transition kernel i f / (2 pi |k|)."""
    k = _require_elastic(kappa_out, kappa_in)
    f = scattering_amplitude(spec, kappa_out, kappa_in, l_max)
    return 1j * f.value / (2.0 * math.pi * k)


_POL_AXES = {"x": np.array([1.0, 0.0, 0.0]),
             "y": np.array([0.0, 1.0, 0.0]),
             "z": np.array([0.0, 0.0, 1.0])}


def _pol_axis(label) -> tuple[str, np.ndarray]:
    if isinstance(label, str):
        if label not in _POL_AXES:
            raise DomainError(f"polarization axis {label!r} not in ('x', 'y', 'z')")
        return label, _POL_AXES[label]
    v = np.asarray(label, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)) or np.linalg.norm(v) == 0.0:
        raise DomainError("polarization axis must be 'x'/'y'/'z' or a nonzero 3-vector")
    return "custom", v / np.linalg.norm(v)


def g2_small_particle(phi1, phi2):
    """Closed-form small-particle correlation surface sin^2(phi1 + phi2)."""
    return np.sin(np.asarray(phi1) + np.asarray(phi2)) ** 2


def g2_map(
    spec: SphereSpec,
    kappa1: PlaneModeIndex,
    kappa2: PlaneModeIndex,
    pol_i,
    pol_j,
    theta1: float,
    theta2: float,
    phi1_grid,
    phi2_grid,
    r_detector: float | None = None,
    l_max: int | None = None,
) -> CorrelationGrid:
    """Normalized second-order correlation g2_ij over detector azimuths.

    Two photons occupy the outgoing scattering eigenmodes of kappa1, kappa2;
    detectors sit at radius r_detector with fixed polar angles. The numerator
    is the symmetrized two-mode projection, the denominator the product of
    single-photon intensities; zero-intensity detectors yield NaN. Both
    photons' fields are the ``form="mie"`` scattering eigenmodes, from one
    batched mode sum at kappa1's |k| (the two agree to 1e-12 relative).
    """
    k = _require_elastic(kappa1, kappa2)
    name_i, e_i = _pol_axis(pol_i)
    name_j, e_j = _pol_axis(pol_j)
    phi1 = np.asarray(phi1_grid, dtype=float)
    phi2 = np.asarray(phi2_grid, dtype=float)
    if phi1.ndim != 1 or phi2.ndim != 1 or phi1.size == 0 or phi2.size == 0:
        raise DomainError("phi grids must be non-empty 1-D arrays")
    if r_detector is None:
        r_detector = 1e3 / k
    elif not 0.0 < r_detector < math.inf:
        raise DomainError(f"r_detector={r_detector} must be finite and > 0")
    elif k * r_detector < 1e3:
        warnings.warn(
            f"detector radius k r = {k * r_detector:.3g} < 1e3; far-field "
            "normalization may be degraded",
            UserWarning,
            stacklevel=2,
        )
    l_max = _resolve_cutoff(k * spec.radius, l_max)

    def ring(theta: float, phis: np.ndarray) -> np.ndarray:
        st = math.sin(theta)
        return r_detector * np.stack(
            [st * np.cos(phis), st * np.sin(phis), np.full(phis.size, math.cos(theta))], axis=-1)

    # both detector rings and both photon modes in one batch: the "mie" form
    # F = G + (1/k) sum c S^sc of each mode, whose scattered sums share one
    # radial table
    pts = np.concatenate([ring(theta1, phi1), ring(theta2, phi2)])
    waves = [modes.plane_wave_mode(kappa, pts).value for kappa in (kappa1, kappa2)]
    scattered = modes._mode_sum(spec, (kappa1, kappa2), "outgoing", pts, l_max, "scattered")
    f1, f2 = (g + s for g, s in zip(waves, scattered))
    n1 = phi1.size
    a1, a2 = f1[:n1] @ e_i, f2[:n1] @ e_i
    b1, b2 = f1[n1:] @ e_j, f2[n1:] @ e_j
    num = np.abs(a1[:, None] * b2[None, :] + a2[:, None] * b1[None, :]) ** 2
    den = (np.abs(a1) ** 2 + np.abs(a2) ** 2)[:, None] * (np.abs(b1) ** 2 + np.abs(b2) ** 2)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(den > 0.0, num / den, np.nan)
    return CorrelationGrid(phi1=phi1, phi2=phi2, values=values,
                           theta1=float(theta1), theta2=float(theta2),
                           pol_i=name_i, pol_j=name_j)
