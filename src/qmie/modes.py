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
from .errors import DomainError, ResourceLimitError
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

# the smallest normal float
_TINY = float(np.finfo(float).tiny)


def _direction_sign(direction: str) -> float:
    """The sign of the boundary condition: -1 for outgoing, +1 for incoming;
    any other value is a DomainError."""
    if direction not in DIRECTIONS:
        raise DomainError(f"direction {direction!r} not in {DIRECTIONS}")
    return -1.0 if direction == "outgoing" else 1.0


@dataclass(frozen=True)
class SphericalModeIndex:
    """Multi-index (p, l, m, k) plus the in/out boundary condition."""

    channel: ChannelIndex
    m: int
    k: float
    direction: str = "outgoing"

    def __post_init__(self) -> None:
        m = specfun._as_integer(self.m, "m")
        if abs(m) > self.channel.l:
            raise DomainError(f"|m|={abs(m)} exceeds l={self.channel.l}")
        if not (math.isfinite(self.k) and self.k > 0.0):
            raise DomainError(f"wavenumber k={self.k} must be finite and positive")
        _direction_sign(self.direction)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True)
class PlaneModeIndex:
    """Plane-wave mode label: polarization g and wavevector."""

    g: int
    kvec: tuple[float, float, float]

    def __post_init__(self) -> None:
        g = specfun._as_integer(self.g, "polarization g")
        if g not in (1, 2):
            raise DomainError(f"polarization g={g} must be 1 or 2")
        kv = tuple(float(c) for c in self.kvec)
        if len(kv) != 3 or not all(math.isfinite(c) for c in kv):
            raise DomainError("kvec must be a finite 3-vector")
        if not _TINY <= sum(c * c for c in kv) < math.inf:
            # |k| and the direction kz/|k| would come from a subnormal, 0 or inf
            raise DomainError(f"kvec={kv} must be nonzero, and |kvec|^2 must neither "
                              "underflow nor overflow")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "kvec", kv)

    @property
    def k(self) -> float:
        return math.sqrt(sum(c * c for c in self.kvec))

    @property
    def angles(self) -> tuple[float, float]:
        """Propagation direction (theta_k, phi_k), by the rule of _spherical_coords."""
        kx, ky, kz = self.kvec
        theta = math.atan2(math.hypot(kx, ky), kz)
        phi = specfun._wrap_phi(math.atan2(ky, kx))
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
    """(r, theta, phi) arrays of (N, 3) points; the origin maps to (0, 0, 0).
    theta is atan2(hypot(x, y), z), which keeps its digits near the z axis."""
    r = np.sqrt(np.einsum("nc,nc->n", p, p))
    theta = np.where(r == 0.0, 0.0, np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2]))
    phi = np.where(r == 0.0, 0.0, specfun._wrap_phi(np.arctan2(p[:, 1], p[:, 0])))
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

    The angular factors are the mode's one harmonic Y_l^m and its
    derivatives (``specfun.spherical_harmonic_at``), whose Legendre
    recurrence runs on the columns |m'| <= |m| + 1 only: O(l |m|) per point.
    Only the family it needs is formed from them: X for TE (or the curl of
    TM), V and W otherwise. The radial factors come from one radial table
    over the distinct radii.
    """
    p, single = _as_points(point)
    r, theta, phi = _spherical_coords(p)
    l, m, k = mode.channel.l, mode.m, mode.k
    y, dy, u = specfun.spherical_harmonic_at(l, m, theta, phi)
    ls = np.array([float(l)])
    f_ll, f_up, f_dn = (f[:, POLARIZATIONS.index(mode.channel.p), l, None] for f in
                        _radial_tables(spec, k, r, l, mode.direction, kind, branch))
    norm = k * math.sqrt(2.0 / math.pi)
    # the curl swaps the TE and TM angular structures
    if (mode.channel.p == "TE") != curl:
        sph = norm * f_ll * specfun._x_family(ls, dy, u)
    else:
        v, w = specfun._vw_families(ls, y, dy, u)
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

def plane_wave_mode(kappa: PlaneModeIndex, point) -> FieldSample:
    """Normalized plane-wave mode G_kappa(r) = e^{i k.r} e_g / (2 pi)^{3/2}.

    point is a 3-vector or an (N, 3) array; the value has the same shape.
    """
    p, single = _as_points(point)
    e_g = _directions([kappa])[1][0, kappa.g - 1]
    wave = np.exp(1j * (p @ np.asarray(kappa.kvec))) / (2.0 * math.pi) ** 1.5
    value = wave[:, None] * e_g
    return FieldSample(value=value[0] if single else value, point=p[0] if single else p)


# c^p_{lmg} = i^(l + shift) conj(X_lm . e_component): (component, shift) of
# the TE and TM tables, for g = 1 and g = 2; component 1 is e_theta and 2 is
# e_phi (X has no radial component)
_COEFFICIENT_RULE = (((2, 1), (1, -1)), ((1, 0), (2, 0)))


def _coefficient_table(theta_k, phi_k, g, l_max: int) -> np.ndarray:
    """c_{lmg}^p for one propagation direction, (2, l_max+1, 2 l_max+1) indexed
    [p, l, m + l_max] with p = 0 for TE and 1 for TM, from X . e_theta and
    X . e_phi only."""
    _, dy, u = specfun.spherical_harmonics_batch(l_max, theta_k, phi_k)
    ls = np.arange(l_max + 1)[:, None]
    x = dict(zip((1, 2), specfun._x_components(ls, dy[0], u[0])))
    return np.stack([1j**(ls + shift) * np.conj(x[comp]) for comp, shift in _COEFFICIENT_RULE[g - 1]])


def _directions(kappas) -> tuple[np.ndarray, np.ndarray]:
    """Directions (N, 3) and Cartesian complex unit polarization vectors
    (e_1, e_2) = (i e_phi, e_theta) (N, 2, 3) of N plane-wave labels."""
    theta, phi = np.array([kappa.angles for kappa in kappas]).T
    n, e_theta, e_phi = specfun.unit_vectors(theta, phi)
    return n, np.stack([1j * e_phi.astype(complex), e_theta.astype(complex)], axis=1)


def plane_wave_coefficients(kappa: PlaneModeIndex, l_max: int) -> list[PlaneWaveCoefficient]:
    """Multipole coefficients c_{lmg}^p of the plane-wave mode, l <= l_max.

    Pure functions of the propagation direction; |kvec| does not enter.
    """
    l_max = specfun._check_cutoff(l_max, 0)
    c_te, c_tm = _coefficient_table(*kappa.angles, kappa.g, l_max)
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

    kind: "full" (with sphere), "vacuum" (j only), "scattered" (full less
    vacuum: the Hankel term alone outside, never formed as (j + S) - j).
    Inside the sphere f^p_{l,l'} = e^{-/+ i phi} gamma j_l'(sqrt(eps) k r);
    outside it is j_l'(k r) with the phase-shifted outgoing/incoming Hankel
    term. branch None resolves by position; r = R lands on the outside branch.
    Each array is indexed [..., p, l] with p = 0 for TE and 1 for TM (row
    l = 0 unused); r is one radius, or N radii giving a leading axis N. The
    phase table is built once per call. The Bessel sweeps over the distinct
    radii are two calls: one j call at k r for every radius together with
    sqrt(eps) k r for those inside, and one y call at k r for those outside.
    From ``specfun.BATCH_MIN`` arguments on, a call is one batched
    recurrence, equal bit for bit to the scalar sweeps it replaces.
    Outside, sin phi and y_l'(k r) stay mantissas and powers of two until
    their product: for l >> k r, y_l' overflows where sin phi underflows,
    and the product comes out as a float or 0, never as 0 * inf. Where no
    intermediate leaves the normal float range, this equals the plain
    product bit for bit.
    """
    radii, where = np.unique(np.asarray(r, dtype=float), return_inverse=True)
    ls = np.arange(l_max + 1)
    lps = (ls, np.minimum(ls + 1, l_max + 1), np.maximum(ls - 1, 0))
    args = [k * radii]
    if kind != "vacuum":
        inside = radii < spec.radius if branch is None else np.full(radii.shape, branch == "inside")
        args.append(math.sqrt(spec.epsilon) * k * radii[inside])
    j = specfun.spherical_bessel_j(l_max + 1, np.concatenate(args))[:, None]
    j_vac, j_in = j[:radii.size], j[radii.size:]
    if kind == "vacuum":
        fams = [np.repeat(j_vac[..., lp], 2, axis=1).astype(complex) for lp in lps]
    else:
        outside = ~inside
        sign = _direction_sign(direction)
        table = phase_table(spec, k * spec.radius, l_max)
        ph = np.exp(sign * 1j * table.phi)
        fams = [np.empty((radii.size, 2, l_max + 1), dtype=complex) for _ in lps]
        if inside.any():
            inner = ph * table.gamma
            for f, lp in zip(fams, lps):
                f[inside] = inner * j_in[..., lp]
                if kind == "scattered":
                    f[inside] -= j_vac[inside][..., lp]
        if outside.any():
            # sin phi h_l'(k r) at the scale of the mantissas of sin phi and
            # y_l', then rescaled once: j_l' is small wherever y_l' is large,
            # so bringing it to y_l''s scale loses nothing that matters
            y_mant, y_exp = (a[:, None] for a in specfun._y_scaled(l_max + 1, k * radii[outside]))
            j_out = j_vac[outside]
            h1 = np.ldexp(j_out, -y_exp) + 1j * y_mant
            if sign > 0.0:
                h1 = np.conj(h1)
            outer = 1j * table.sin_mantissa * ph
            for f, lp in zip(fams, lps):
                prod = outer * h1[..., lp]
                scale = table.sin_exponent + y_exp[..., lp]
                sin_h = np.empty_like(prod)
                np.ldexp(prod.real, scale, out=sin_h.real)
                np.ldexp(prod.imag, scale, out=sin_h.imag)
                # the scattered content outside is the Hankel term alone
                term = sign * sin_h
                f[outside] = term if kind == "scattered" else j_out[..., lp] + term
    return tuple(f[where.reshape(np.shape(r))] for f in fams)


def _mode_sum(
    spec: SphereSpec | None,
    kappas: tuple[PlaneModeIndex, ...],
    direction: str,
    points: np.ndarray,
    l_max: int,
    kind: str,
) -> np.ndarray:
    """(1/k) sum_{plm} c_{lmg}^p S^p_{lm}(r) of the requested radial kind,
    for each of K plane-wave modes at one wavenumber.

    kappas is a tuple of K modes; the wavenumber is that of kappas[0], and
    only the others' directions and g enter. points is (N, 3); the result is
    (K, N, 3), row i for kappas[i], equal bit for bit to the K = 1 sum of
    kappas[i]. No sum over m is taken (vector addition theorem): with mu =
    n . rhat, s_l = sqrt(l (l + 1)), b = a x n and (a, shift) from
    _COEFFICIENT_RULE, S = sum_m c^p_lm Y_lm = i^(l + shift + 1) (2l + 1) /
    (4 pi s_l) pi_l(mu) (rhat . b), whose surface gradient is that factor
    times pi_l' (n - mu rhat)(rhat . b) + pi_l (b - rhat (rhat . b)). X =
    -i rhat x grad S / s_l, V and W mix S rhat and grad S; against one
    radial table (one phase table) this leaves five sums over l per mode
    and point, O(l_max) each. Nothing is divided by sin(Theta); at the
    origin (rhat = 0) only the direction-free b term is left.
    """
    l_max = specfun._check_cutoff(l_max, 1)
    # the radii of _spherical_coords, which place a point at r = R
    r = np.sqrt(np.einsum("nc,nc->n", points, points))
    rhat = points / np.where(r == 0.0, 1.0, r)[:, None]
    angles = np.array([kappa.angles for kappa in kappas]).T
    n, e_theta, e_phi = (v[:, None] for v in specfun.unit_vectors(*angles))
    # [i, p, (component, shift)] of each mode's TE and TM coefficients
    rule = np.array([_COEFFICIENT_RULE[kappa.g - 1] for kappa in kappas])
    b = np.cross(np.where(rule[..., :1] == 1, e_theta, e_phi), n)
    mu = specfun._dot(n, rhat)
    rb_te, rb_tm = (specfun._dot(b[:, p, None], rhat)[..., None] for p in (0, 1))
    pi = specfun._pi_rows(mu, l_max)[1:]
    ls = np.arange(l_max + 1)[:, None, None]
    # pi'_l = pi'_{l-2} + (2l - 1) pi_{l-1}: one running sum per parity of l
    dpi = np.zeros_like(pi)
    steps = (2.0 * ls[1:] - 1.0) * pi[:-1]
    np.cumsum(steps[0::2], axis=0, out=dpi[1::2])
    np.cumsum(steps[1::2], axis=0, out=dpi[2::2])
    # i^(l + shift), (l_max + 1, K, 2); row l = 0 meets pi_0 = pi'_0 = 0
    phase = np.array([1.0, 1j, -1.0, -1j])[(ls + rule[..., 1]) % 4]
    live = np.maximum(ls, 1)
    f_te, f_up, f_dn = (f[:, p].T[:, None] for f, p in zip(
        _radial_tables(spec, kappas[0].k, r, l_max, direction, kind), (0, 1, 1)))
    te = phase[..., :1] * ((2 * ls + 1) / (4.0 * math.pi * live * (ls + 1))) * f_te
    tm = 1j * phase[..., 1:] / (4.0 * math.pi)
    up, dn = f_up / (ls + 1), f_dn / live
    radial, tangential = tm * -((ls + 2) * up + (ls - 1) * dn), tm * (up - dn)
    t1, t2, m1, m2, m3 = ((w * rows).sum(axis=0)[..., None] for w, rows in (
        (te, dpi), (te, pi), (radial, pi), (tangential, dpi), (tangential, pi)))
    field = (rb_te * t1) * np.cross(rhat, n) + t2 * np.cross(rhat, b[:, None, 0])
    field += (rb_tm * m1) * rhat + (rb_tm * m2) * (n - mu[..., None] * rhat) + m3 * b[:, None, 1]
    return math.sqrt(2.0 / math.pi) * field


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
    The default cutoff is truncation_order(q) + ceil(kr + 10 kr^(1/3)),
    with kr = 0 for the mie form and k r at the largest radius of the batch
    for the direct form; where its radial functions would pass the hard
    cap, ResourceLimitError names the order that radius needs.
    """
    _direction_sign(direction)
    if form not in ("direct", "mie"):
        raise DomainError(f"form {form!r} not in ('direct', 'mie')")
    if plane_wave not in ("exact", "truncated"):
        raise DomainError(f"plane_wave {plane_wave!r} not in ('exact', 'truncated')")
    p, single = _as_points(point)
    if l_max is not None:
        l_max = specfun._check_cutoff(l_max, 1)
    else:
        kr = kappa.k * float(_spherical_coords(p)[0].max()) if form == "direct" else 0.0
        l_max = truncation_order(kappa.k * spec.radius) + math.ceil(kr + 10.0 * kr ** (1.0 / 3.0))
        if l_max + 1 > specfun.HARD_CAP_LMAX:
            raise ResourceLimitError(
                f"k r={kr} needs multipole order {l_max}, whose radial functions need Bessel "
                f"order {l_max + 1}, above the hard cap {specfun.HARD_CAP_LMAX}")
    if form == "direct":
        value = _mode_sum(spec, (kappa,), direction, p, l_max, "full")[0]
    else:
        if plane_wave == "exact":
            base = plane_wave_mode(kappa, p).value
        else:
            base = _mode_sum(None, (kappa,), direction, p, l_max, "vacuum")[0]
        value = base + _mode_sum(spec, (kappa,), direction, p, l_max, "scattered")[0]
    return FieldSample(value=value[0] if single else value, point=p[0] if single else p)


def dipole_limit_field(spec: SphereSpec, kappa: PlaneModeIndex, point) -> FieldSample:
    """Small-particle approximation: plane wave plus induced-dipole radiation.

    The sphere is replaced by a point dipole p = alpha G(0) at the origin with
    polarizability 3 eps0 V (eps-1)/(eps+2); the radiated part applies the
    free-space Green's tensor, so mu0 w^2 alpha = 3 V k^2 (eps-1)/(eps+2).
    """
    p, single = _as_points(point)
    if not single:
        raise DomainError(f"point must be a 3-vector, got shape {p.shape}")
    p = p[0]
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
