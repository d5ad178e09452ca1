"""Eigenmodes of the dielectric sphere evaluated at arbitrary points.

Spherical eigenmodes S (and their vacuum references and scattered parts),
plane-wave modes G, the multipole coefficients of a plane wave, and the
scattering eigenmodes F built from them. Values are Cartesian; assembly is
done on the local spherical basis where the closed forms live.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .miecore import POLARIZATIONS, ChannelIndex, SphereSpec, phase_table, truncation_order

__all__ = [
    "SphericalModeIndex",
    "PlaneModeIndex",
    "FieldSample",
    "PlaneWaveCoefficient",
    "radial_function",
    "spherical_eigenmode",
    "vacuum_eigenmode",
    "scattered_part",
    "curl_spherical_eigenmode",
    "plane_wave_mode",
    "plane_wave_coefficients",
    "scattering_eigenmode",
    "dipole_limit_field",
    "field_intensity_map",
]

DIRECTIONS = ("outgoing", "incoming")


@dataclass(frozen=True)
class SphericalModeIndex:
    """Multi-index (p, l, m, k) plus the in/out boundary condition."""

    channel: ChannelIndex
    m: int
    k: float
    direction: str = "outgoing"

    def __post_init__(self) -> None:
        if abs(self.m) > self.channel.l:
            raise DomainError(f"|m|={abs(self.m)} exceeds l={self.channel.l}")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"wavenumber k={self.k} must be finite and positive")
        if self.direction not in DIRECTIONS:
            raise DomainError(f"direction {self.direction!r} not in {DIRECTIONS}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True)
class PlaneModeIndex:
    """Plane-wave mode label: polarization g and wavevector."""

    g: int
    kvec: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.g not in (1, 2):
            raise DomainError(f"polarization g={self.g} must be 1 or 2")
        kv = tuple(float(c) for c in self.kvec)
        if len(kv) != 3 or not all(math.isfinite(c) for c in kv):
            raise DomainError("kvec must be a finite 3-vector")
        if kv == (0.0, 0.0, 0.0):
            raise DomainError("kvec must be nonzero")
        object.__setattr__(self, "kvec", kv)

    @property
    def k(self) -> float:
        return math.sqrt(sum(c * c for c in self.kvec))

    @property
    def angles(self) -> tuple[float, float]:
        """Propagation direction (theta_k, phi_k)."""
        kx, ky, kz = self.kvec
        k = self.k
        theta = math.acos(max(-1.0, min(1.0, kz / k)))
        phi = math.atan2(ky, kx) % (2.0 * math.pi)
        return theta, phi


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Complex Cartesian field value at a position."""

    value: np.ndarray
    point: np.ndarray


@dataclass(frozen=True)
class PlaneWaveCoefficient:
    """One multipole coefficient c_{lmg}^p of a plane-wave mode."""

    channel: ChannelIndex
    m: int
    g: int
    value: complex


def _as_point(point) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"point must be a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point must be finite")
    return p


def _as_points(points) -> tuple[np.ndarray, bool]:
    """(N, 3) finite points, and whether a single (3,) point was given."""
    p = np.asarray(points, dtype=float)
    single = p.shape == (3,)
    if single:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] == 0:
        raise DomainError(f"points must be a 3-vector or (N, 3) with N > 0, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point must be finite")
    return p, single


def _spherical_coords(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, theta, phi) arrays of (N, 3) points; the origin maps to (0, 0, 0)."""
    r = np.sqrt(np.einsum("nc,nc->n", p, p))
    safe = np.where(r == 0.0, 1.0, r)
    theta = np.where(r == 0.0, 0.0, np.arccos(np.clip(p[:, 2] / safe, -1.0, 1.0)))
    phi = np.where(r == 0.0, 0.0, np.mod(np.arctan2(p[:, 1], p[:, 0]), 2.0 * math.pi))
    return r, theta, phi


def radial_function(
    spec: SphereSpec,
    mode: SphericalModeIndex,
    l_prime: int,
    r: float,
    branch: str | None = None,
) -> complex:
    """Radial factor f_{l l'} of a spherical eigenmode at radius r.

    TE modes use l' = l only; TM modes use l' = l -/+ 1. Inside the sphere the
    factor is e^{-/+ i phi} gamma j_{l'}(sqrt(eps) k r); outside it combines
    j_{l'}(kr) with the phase-shifted outgoing/incoming Hankel term. Incoming
    values are the complex conjugates of outgoing ones.
    """
    l = mode.channel.l
    valid = (l,) if mode.channel.p == "TE" else (l - 1, l + 1)
    if l_prime not in valid:
        raise DomainError(
            f"l_prime={l_prime} invalid for {mode.channel.p} l={l}; allowed {valid}"
        )
    if r < 0.0 or not math.isfinite(r):
        raise DomainError(f"r={r} must be finite and non-negative")
    if branch not in (None, "inside", "outside"):
        raise DomainError(f"branch {branch!r} not in (None, 'inside', 'outside')")
    f_ll, f_up, f_dn = _radial_tables(spec, mode.k, r, l, mode.direction, "full", branch)
    column = {l: f_ll, l + 1: f_up, l - 1: f_dn}[l_prime]
    return complex(column[POLARIZATIONS.index(mode.channel.p), l])


def _assemble(
    spec: SphereSpec | None,
    mode: SphericalModeIndex,
    point,
    kind: str,
    branch: str | None = None,
    curl: bool = False,
) -> FieldSample:
    """S_alpha of the requested radial kind, or its curl, at one or N points.

    The angular factors come from one batched harmonic contraction, the
    radial factors from one radial table per distinct radius.
    """
    p, single = _as_points(point)
    r, theta, phi = _spherical_coords(p)
    l, m, k = mode.channel.l, mode.m, mode.k
    weight = np.zeros((1, l + 1, 2 * l + 1))
    weight[0, l, m + l] = 1.0
    x, v, w = (f[:, 0, l] for f in specfun.vector_harmonics_contract(l, theta, phi, weight))
    f_ll, f_up, f_dn = (f[:, POLARIZATIONS.index(mode.channel.p), l, None] for f in
                        _radial_tables(spec, k, r, l, mode.direction, kind, branch))
    norm = k * math.sqrt(2.0 / math.pi)
    # the curl swaps the TE and TM angular structures
    if (mode.channel.p == "TE") != curl:
        sph = norm * f_ll * x
    else:
        w_v = math.sqrt(l / (2.0 * l + 1.0))
        w_w = math.sqrt((l + 1.0) / (2.0 * l + 1.0))
        sph = norm * (w_v * f_up * v - w_w * f_dn * w)
    if curl:
        inside = r < spec.radius if branch is None else np.full(r.shape, branch == "inside")
        kappa = k * np.where(inside, math.sqrt(spec.epsilon), 1.0)[:, None]
        sph = (-1j if mode.channel.p == "TE" else 1j) * kappa * sph
    value = specfun.spherical_to_cartesian(sph, theta, phi)
    return FieldSample(value=value[0] if single else value, point=p[0] if single else p)


def spherical_eigenmode(
    spec: SphereSpec, mode: SphericalModeIndex, point, branch: str | None = None
) -> FieldSample:
    """Normalized spherical eigenmode S_alpha(r), Cartesian components.

    point is a 3-vector or an (N, 3) array; the value has the same shape.
    """
    return _assemble(spec, mode, point, "full", branch)


def vacuum_eigenmode(mode: SphericalModeIndex, point) -> FieldSample:
    """Free-space eigenmode S0_alpha(r): same structure with plain j radials."""
    return _assemble(None, mode, point, "vacuum")


def scattered_part(spec: SphereSpec, mode: SphericalModeIndex, point) -> FieldSample:
    """S_alpha - S0_alpha, the purely scattered content of the eigenmode."""
    return _assemble(spec, mode, point, "scattered")


def curl_spherical_eigenmode(
    spec: SphereSpec, mode: SphericalModeIndex, point, branch: str | None = None
) -> FieldSample:
    """Analytic curl of S_alpha, from the closed radial forms.

    curl(TE mode) = -i kappa (TM-type angular structure with the TE channel's
    radial family); curl(TM mode) = +i kappa f_ll X, with kappa the local
    wavenumber sqrt(eps) k inside the sphere and k outside.
    """
    return _assemble(spec, mode, point, "full", branch, curl=True)


# ------------------------------------------------------------- plane waves

def polarization_vectors(kappa: PlaneModeIndex) -> np.ndarray:
    """Cartesian complex unit vectors (e_1, e_2) = (i e_phi, e_theta) at k-hat."""
    theta, phi = kappa.angles
    _, e_theta, e_phi = specfun.unit_vectors(theta, phi)
    return np.stack([1j * e_phi.astype(complex), e_theta.astype(complex)])


def plane_wave_mode(kappa: PlaneModeIndex, point) -> FieldSample:
    """Normalized plane-wave mode G_kappa(r) = e^{i k.r} e_g / (2 pi)^{3/2}.

    point is a 3-vector or an (N, 3) array; the value has the same shape.
    """
    p, single = _as_points(point)
    e_g = polarization_vectors(kappa)[kappa.g - 1]
    wave = np.exp(1j * (p @ np.asarray(kappa.kvec))) / (2.0 * math.pi) ** 1.5
    value = wave[:, None] * e_g
    return FieldSample(value=value[0] if single else value, point=p[0] if single else p)


# c^p_{lmg} = i^(l + shift) conj(X_lm . e_component): (component, shift) of
# the TE and TM tables, for g = 1 and g = 2
_COEFFICIENT_RULE = (((2, 1), (1, -1)), ((1, 0), (2, 0)))


def _coefficient_table(theta_k, phi_k, l_max: int) -> np.ndarray:
    """c_{lmg}^p for N propagation directions, both g, from one X block.

    Shaped (N, 2, 2, l_max+1, 2 l_max+1) and indexed [n, g - 1, p, l, m + l_max]
    with p = 0 for TE and 1 for TM.
    """
    if l_max < 1:
        raise DomainError(f"l_max={l_max} must be >= 1")
    _, dy, u = specfun.spherical_harmonics_batch(l_max, theta_k, phi_k)
    ls = np.arange(l_max + 1)[:, None]
    bx = specfun._x_family(ls.astype(float), dy, u)
    out = np.empty((bx.shape[0], 2, 2) + bx.shape[1:3], dtype=complex)
    for g, rule in enumerate(_COEFFICIENT_RULE):
        for p, (comp, shift) in enumerate(rule):
            out[:, g, p] = 1j**(ls + shift) * np.conj(bx[..., comp])
    return out


def _coefficient_overlaps(theta, phi, c_ref: np.ndarray, l_max: int) -> np.ndarray:
    """sum_m conj(c_{lmg}^p(n)) c_ref[p, l, m] for N directions n and both g.

    c_ref is one (TE, TM) pair of coefficient tables, shaped
    (2, l_max+1, 2 l_max+1). Returns (N, 2, 2, l_max+1) indexed [n, g - 1, p, l].
    The directions' own tables are never formed: the m sums are taken on the
    harmonic block, chunk by chunk.
    """
    x, _, _ = specfun.vector_harmonics_contract(l_max, theta, phi, c_ref)
    ls = np.arange(l_max + 1)
    return np.stack([
        np.stack([np.conj(1j**(ls + shift)) * x[:, p, :, comp]
                  for p, (comp, shift) in enumerate(rule)], axis=1)
        for rule in _COEFFICIENT_RULE
    ], axis=1)


def plane_wave_coefficients(kappa: PlaneModeIndex, l_max: int) -> list[PlaneWaveCoefficient]:
    """Multipole coefficients c_{lmg}^p of the plane-wave mode, l <= l_max.

    Pure functions of the propagation direction; |kvec| does not enter.
    """
    theta_k, phi_k = kappa.angles
    c_te, c_tm = _coefficient_table(theta_k, phi_k, l_max)[0, kappa.g - 1]
    out = []
    for l in range(1, l_max + 1):
        for m in range(-l, l + 1):
            out.append(PlaneWaveCoefficient(ChannelIndex("TE", l), m, kappa.g, complex(c_te[l, m + l_max])))
            out.append(PlaneWaveCoefficient(ChannelIndex("TM", l), m, kappa.g, complex(c_tm[l, m + l_max])))
    return out


# ------------------------------------------------------- scattering modes

def _radial_tables(
    spec: SphereSpec | None,
    k: float,
    r,
    l_max: int,
    direction: str,
    kind: str,
    branch: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radial family: f^p_{l,l}, f^p_{l,l+1}, f^p_{l,l-1} for l = 0..l_max.

    kind: "full" (with sphere), "vacuum" (j only), "scattered" (difference).
    Inside the sphere f^p_{l,l'} = e^{-/+ i phi} gamma j_l'(sqrt(eps) k r);
    outside it is j_l'(k r) with the phase-shifted outgoing/incoming Hankel
    term. branch None resolves by position; r = R lands on the outside branch.
    Each array is indexed [..., p, l] with p = 0 for TE and 1 for TM (row
    l = 0 unused); r is one radius, or N radii giving a leading axis N. The
    phase table is built once per call; each distinct radius costs one j
    sweep at k r, plus one y sweep outside or one interior j sweep inside.
    """
    radii, where = np.unique(np.asarray(r, dtype=float), return_inverse=True)
    ls = np.arange(l_max + 1)
    lps = (ls, np.minimum(ls + 1, l_max + 1), np.maximum(ls - 1, 0))
    j_vac = np.array([specfun.spherical_bessel_j(l_max + 1, k * x) for x in radii])[:, None]
    if kind == "vacuum":
        fams = [np.repeat(j_vac[..., lp], 2, axis=1).astype(complex) for lp in lps]
    else:
        inside = radii < spec.radius if branch is None else np.full(radii.shape, branch == "inside")
        # the interior j sweep inside the sphere, the y sweep outside
        other = np.array([specfun.spherical_bessel_j(l_max + 1, math.sqrt(spec.epsilon) * k * x)
                          if ins else specfun.spherical_bessel_y(l_max + 1, k * x)
                          for x, ins in zip(radii, inside)])[:, None]
        sign = -1.0 if direction == "outgoing" else 1.0
        table = phase_table(spec, k * spec.radius, l_max)
        ph = np.exp(sign * 1j * table.phi)
        inner, outer = ph * table.gamma, 1j * table.sin_phi * ph
        h1 = j_vac + 1j * other
        if direction == "incoming":
            h1 = np.conj(h1)
        fams = [np.where(inside[:, None, None], inner * other[..., lp],
                         j_vac[..., lp] + sign * (outer * h1[..., lp])) for lp in lps]
        if kind == "scattered":
            fams = [f - j_vac[..., lp] for f, lp in zip(fams, lps)]
    return tuple(f[where.reshape(np.shape(r))] for f in fams)


def _mode_sum(
    spec: SphereSpec | None,
    kappa: PlaneModeIndex,
    direction: str,
    points: np.ndarray,
    l_max: int,
    kind: str,
) -> np.ndarray:
    """(1/k) sum_{plm} c_{lmg}^p S^p_{lm}(r) of the requested radial kind.

    points is (N, 3); the result is (N, 3). The m sums are taken on the
    batched harmonic contraction against kappa's coefficient tables.
    """
    r, theta, phi = _spherical_coords(points)
    k = kappa.k
    theta_k, phi_k = kappa.angles
    coeffs = _coefficient_table(theta_k, phi_k, l_max)[0, kappa.g - 1]
    bx, bv, bw = specfun.vector_harmonics_contract(l_max, theta, phi, coeffs)
    f_ll, f_up, f_dn = _radial_tables(spec, k, r, l_max, direction, kind)
    f_te, f_tm_up, f_tm_dn = f_ll[:, 0], f_up[:, 1], f_dn[:, 1]
    ls = np.arange(l_max + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_v = np.sqrt(ls / (2.0 * ls + 1.0))
        w_w = np.sqrt((ls + 1.0) / (2.0 * ls + 1.0))
    # per-l radial weights against the per-l angular sums: X with the TE
    # table, V and W with the TM table
    sph = np.einsum("nl,nlc->nc", f_te, bx[:, 0])
    sph += np.einsum("nl,nlc->nc", w_v * f_tm_up, bv[:, 1])
    sph -= np.einsum("nl,nlc->nc", w_w * f_tm_dn, bw[:, 1])
    norm = k * math.sqrt(2.0 / math.pi)
    return (norm / k) * specfun.spherical_to_cartesian(sph, theta, phi)


def scattering_eigenmode(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    direction: str,
    point,
    l_max: int | None = None,
    form: str = "direct",
    plane_wave: str = "exact",
) -> FieldSample:
    """Normalized scattering eigenmode F_kappa(r).

    form "direct" evaluates (1/k) sum c S directly; form "mie" uses the
    decomposition F = G + (1/k) sum c S^sc, whose scattered series converges
    with the sphere's truncation order rather than with kr (use it far from
    the sphere). plane_wave "truncated" replaces G by its own multipole sum,
    making the two forms agree to machine precision at shared truncation.

    point is a 3-vector or an (N, 3) array; the value has the same shape.
    The default cutoff of the direct form grows with k r and is taken at
    the largest radius of the batch.
    """
    if direction not in DIRECTIONS:
        raise DomainError(f"direction {direction!r} not in {DIRECTIONS}")
    if form not in ("direct", "mie"):
        raise DomainError(f"form {form!r} not in ('direct', 'mie')")
    if plane_wave not in ("exact", "truncated"):
        raise DomainError(f"plane_wave {plane_wave!r} not in ('exact', 'truncated')")
    p, single = _as_points(point)
    r, _, _ = _spherical_coords(p)
    k = kappa.k
    q = k * spec.radius
    if l_max is None:
        if form == "direct":
            l_max = min(specfun.HARD_CAP_LMAX, truncation_order(q) + math.ceil(k * r.max()))
        else:
            l_max = truncation_order(q)
    if form == "direct":
        value = _mode_sum(spec, kappa, direction, p, l_max, "full")
    else:
        if plane_wave == "exact":
            base = plane_wave_mode(kappa, p).value
        else:
            base = _mode_sum(None, kappa, direction, p, l_max, "vacuum")
        value = base + _mode_sum(spec, kappa, direction, p, l_max, "scattered")
    return FieldSample(value=value[0] if single else value, point=p[0] if single else p)


def dipole_limit_field(spec: SphereSpec, kappa: PlaneModeIndex, point) -> FieldSample:
    """Small-particle approximation: plane wave plus induced-dipole radiation.

    The sphere is replaced by a point dipole p = alpha G(0) at the origin with
    polarizability 3 eps0 V (eps-1)/(eps+2); the radiated part applies the
    free-space Green's tensor, so mu0 w^2 alpha = 3 V k^2 (eps-1)/(eps+2).
    """
    p = _as_point(point)
    r = float(np.linalg.norm(p))
    if r < spec.radius:
        raise DomainError("dipole comparison point must lie outside the sphere")
    base = plane_wave_mode(kappa, p).value
    eps = spec.epsilon
    if eps == 1.0:
        return FieldSample(value=base, point=p)
    k = kappa.k
    vol = 4.0 / 3.0 * math.pi * spec.radius**3
    strength = 3.0 * vol * k * k * (eps - 1.0) / (eps + 2.0)
    dip = plane_wave_mode(kappa, (0.0, 0.0, 0.0)).value
    rhat = p / r
    kr = k * r
    rad = (1.0 + 1j / kr - 1.0 / kr**2) * dip
    rad += (-1.0 - 3j / kr + 3.0 / kr**2) * np.dot(rhat, dip) * rhat
    rad *= cmath.exp(1j * kr) / (4.0 * math.pi * r)
    return FieldSample(value=base + strength * rad, point=p)


def field_intensity_map(spec: SphereSpec, mode: SphericalModeIndex, grid) -> np.ndarray:
    """Adimensional intensity |S_alpha(r)/k|^2 over a set of points."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError(f"grid must be (N, 3), got {pts.shape}")
    val = spherical_eigenmode(spec, mode, pts).value
    return np.real(np.einsum("nc,nc->n", np.conj(val), val)) / mode.k**2
