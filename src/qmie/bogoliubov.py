"""Coupling kernels of the canonical transformation between plane-wave
operators and scattering-eigenmode operators.

All three kernels reduce the sphere-volume integral of a mode product to
analytic angular sums times one-dimensional radial overlaps
T_l = integral_0^R r^2 j_l(a r) j_l(b r) dr. The angular part uses the
multipole coefficient tables of the plane-wave modes. The overlaps of all
orders come from Lommel's closed form (Watson, Theory of Bessel Functions,
sec. 5.11) over one Bessel sweep per argument, each order with a stated
rounding bound. Near the diagonal a = b the closed form cancels; the orders
whose bound exceeds rtol |T_l| there are recomputed together by two fixed
Gauss-Legendre rules on [0, R], one Bessel sweep per node and argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modes, specfun
from .errors import (
    DomainError,
    PoleExcludedError,
    QmieError,
    ResourceLimitError,
    ToleranceError,
)
from .miecore import SphereSpec, phase_table, truncation_order
from .modes import PlaneModeIndex

__all__ = [
    "CouplingKernel",
    "coupling_v",
    "b_coefficient",
    "a_offdiagonal_kernel",
    "a_diagonal_channel_sum",
    "KERNEL_LMAX",
]

# |k| spacings below this relative gap count as sitting on the pole
_POLE_RTOL = 1e-13

# Largest kernel order: the TM overlaps reach order l_max + 1, whose closed
# form needs j_{l_max + 2}.
KERNEL_LMAX = specfun.HARD_CAP_LMAX - 2

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CouplingKernel:
    """One evaluated kernel entry with its error bound (see _overlaps)."""

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


def _envelope(j: np.ndarray, x: float) -> np.ndarray:
    """|j_l(x)|, raised to 1/x past the turning point x = l + 1/2, where
    j_l oscillates and a sweep's error is absolute rather than relative."""
    past = x > np.arange(j.size) + 0.5
    return np.where(past, np.maximum(np.abs(j), 1.0 / x), np.abs(j))


def _overlaps(l_top: int, a: float, b: float, radius: float):
    """Radial overlaps T_l = integral_0^R r^2 j_l(a r) j_l(b r) dr for
    l = 0..l_top by Lommel's closed form,

        T_l = R^2 (a j_{l+1}(aR) j_l(bR) - b j_l(aR) j_{l+1}(bR)) / (a^2 - b^2),

    from one j sweep at aR and one at bR, each to order l_top + 1.

    Returns (values, bounds). The rounding bound of order l is

        4 eps g_l R^2 (a E_{l+1}(aR) E_l(bR) + b E_l(aR) E_{l+1}(bR)) / |a^2 - b^2|

    with g_l = 2 + l + aR + bR and E from _envelope. It charges every j
    value an error of order eps g_l E, because the Miller sweep's error grows
    with its length, and covers the rounding of the products; against
    mpmath the errors stay below a quarter of it. Near a = b the two terms
    cancel and the bound grows like eps max(a^2, b^2) / |a^2 - b^2|; at
    a == b it is inf. Orders that underflow come out as 0 with bound 0.
    """
    gap = (a - b) * (a + b)
    if gap == 0.0:
        return np.zeros(l_top + 1), np.full(l_top + 1, np.inf)
    x_a, x_b = a * radius, b * radius
    ja = specfun.spherical_bessel_j(l_top + 1, x_a)
    jb = specfun.spherical_bessel_j(l_top + 1, x_b)
    scale = radius * radius / gap
    values = scale * (a * ja[1:] * jb[:-1] - b * ja[:-1] * jb[1:])
    ea, eb = _envelope(ja, x_a), _envelope(jb, x_b)
    growth = 2.0 + np.arange(l_top + 1) + x_a + x_b
    bounds = 4.0 * _EPS * growth * abs(scale) * (a * ea[1:] * eb[:-1] + b * ea[:-1] * eb[1:])
    return values, bounds


def _band_overlaps(ls: np.ndarray, a: float, b: float, radius: float, rtol: float):
    """T_l for the ascending orders ls by Gauss-Legendre rules on [0, R] with
    n = (a + b) R / 2 + l_top / 2 + 16 and n + n // 2 + 8 nodes; the
    integrand is entire, so they converge once n passes its oscillation
    count. One j sweep call serves every node of both rules at each distinct
    argument. Returns the larger rule and its difference from the smaller,
    which raises ToleranceError above max(rtol S_l, 1e-290): S_l integrates
    |r^2 j_l(ar) j_l(br)|, |T_l| where the integrand keeps its sign, so
    rounding cannot fail a zero of T_l."""
    n = int((a + b) * radius / 2.0 + ls[-1] / 2.0) + 16
    nodes = [np.polynomial.legendre.leggauss(m) for m in (n, n + n // 2 + 8)]
    r_all = np.concatenate([radius * (x + 1.0) / 2.0 for x, _ in nodes])
    args = (a,) if a == b else (a, b)
    # j[i, node, l] at args[i] times the nodes of both rules, one after the other
    j = specfun.spherical_bessel_j(ls[-1], np.concatenate([c * r_all for c in args]))
    j = j[:, ls].reshape(len(args), r_all.size, ls.size)
    rules, lo = [], 0
    for x, w in nodes:
        hi = lo + x.size
        r, prod = r_all[lo:hi], j[0, lo:hi] * j[-1, lo:hi]
        rules.append((radius / 2.0) * ((w * r * r) @ prod))
        lo = hi
    errs = np.abs(rules[1] - rules[0])
    mass = (radius / 2.0) * ((w * r * r) @ np.abs(prod))
    bad = np.flatnonzero(errs > np.maximum(rtol * mass, 1e-290))
    if bad.size:
        raise ToleranceError(f"radial overlap rules differ by {errs[bad[0]]:.3g} at "
                             f"l={ls[bad[0]]}, above rtol S_l = {rtol * mass[bad[0]]:.3g}")
    return rules[1], errs


def _resolved_overlaps(l_top: int, a: float, b: float, radius: float, rtol: float):
    """The overlaps of _overlaps, with every order whose rounding bound
    exceeds rtol |T_l| (near a = b, at a == b or at a zero of T_l) recomputed
    by _band_overlaps. A band value replaces the closed form only where the
    band's rule difference is below the closed form's bound: the bound can
    sit just above rtol |T_l| while the rules, held only to rtol S_l, differ
    by more. Returns (values, abs_errs), as the two routines do."""
    values, errs = _overlaps(l_top, a, b, radius)
    band = np.flatnonzero(errs > rtol * np.abs(values))
    if band.size:
        band_values, band_errs = _band_overlaps(band, a, b, radius, rtol)
        better = band_errs < errs[band]
        values[band[better]], errs[band[better]] = band_values[better], band_errs[better]
    return values, errs


def _angular_sums(kappa: PlaneModeIndex, kappa_prime: PlaneModeIndex,
                  l_max: int, conjugate_pair: bool, tables=None):
    """Per-(p, l) sums over m of the plane-wave coefficient products.

    Normal kinds pair c*(khat) with c(khat'); the counter-rotating kind pairs
    c*(khat) with c*(khat') at mirrored m, picking up the conjugation parity
    of the vector harmonics: (-1)^(m+1) for TE, (-1)^m for TM. tables is the
    (kappa, kappa') pair of coefficient tables at l_max, built here when not
    given. Returns (2, l_max+1) sums indexed [p, l].
    """
    if tables is None:
        tables = _ScanTables(kappa, [kappa_prime], l_max).pair(kappa_prime, l_max)
    c1, c2 = tables
    if not conjugate_pair:
        return np.einsum("plm,plm->pl", np.conj(c1), c2)
    m = np.arange(-l_max, l_max + 1)
    parity = np.where(m % 2 == 0, 1.0, -1.0)
    return np.einsum("pm,plm,plm->pl", np.stack([-parity, parity]), np.conj(c1),
                     np.conj(np.flip(c2, axis=2)))


def _volume_overlap(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_prime: PlaneModeIndex,
    l_max: int,
    rtol: float,
    scattered: bool,
    phase_sign: float,
    conjugate_pair: bool,
    tables=None,
):
    """Reduced sphere-volume integral of G*_kappa dotted into the kappa'
    family member: G (scattered=False), F or F* (scattered=True).

    Returns (value, abs_err). The reduction is
    (2/pi) sum_{p,l} M^p_l Phi^p_l T^p_l with M the angular coefficient sums
    (over tables, as in _angular_sums), Phi the interior radial phase factor
    and T the radial overlaps.
    """
    k = kappa.k
    kp = kappa_prime.k
    b_scale = math.sqrt(spec.epsilon) if scattered else 1.0
    weight = _angular_sums(kappa, kappa_prime, l_max, conjugate_pair, tables)
    if scattered:
        t = phase_table(spec, kp * spec.radius, l_max)
        weight = weight * t.gamma * np.exp(phase_sign * 1j * t.phi)
    o, o_err = _resolved_overlaps(l_max + 1, k, b_scale * kp, spec.radius, rtol)
    # TE takes the overlap of order l, TM those of orders l + 1 and l - 1
    ls = np.arange(1, l_max + 1)
    w_up = ls / (2.0 * ls + 1.0)
    w_dn = (ls + 1.0) / (2.0 * ls + 1.0)
    radial = np.stack([o[1:-1], w_up * o[2:] + w_dn * o[:-2]])
    radial_err = np.stack([o_err[1:-1], w_up * o_err[2:] + w_dn * o_err[:-2]])
    total = np.sum(weight[:, 1:] * radial)
    err = np.sum(np.abs(weight[:, 1:]) * radial_err)
    return (2.0 / math.pi) * total, (2.0 / math.pi) * err


class _ScanTables:
    """The coefficient tables of one scan, from one ``modes._coefficient_table``
    call at the scan's largest cutoff top. Its rows are kappa and each
    distinct exact (theta, phi, g) among the kappa', so two k' that differ
    only in |k'| share a row."""

    def __init__(self, kappa: PlaneModeIndex, kappa_primes, top: int):
        keys = [(*kappa.angles, kappa.g)] + [(*kp.angles, kp.g) for kp in kappa_primes]
        self.rows = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        theta, phi, g = zip(*self.rows)
        self.table = modes._coefficient_table(theta, phi, g, top)
        self.top = top

    def pair(self, kappa_prime: PlaneModeIndex, l_max: int) -> np.ndarray:
        """The (kappa, kappa') tables at l_max <= top: rows l <= l_max and
        columns |m| <= l_max, equal bit for bit to a table built at l_max."""
        rows = [0, self.rows[(*kappa_prime.angles, kappa_prime.g)]]
        top = self.top
        return np.ascontiguousarray(self.table[rows, :, :l_max + 1, top - l_max:top + l_max + 1])


def _default_l_max(spec: SphereSpec, kappa, kappa_prime, scattered: bool) -> int:
    scale = math.sqrt(spec.epsilon) if scattered else 1.0
    q_eff = spec.radius * max(kappa.k, scale * kappa_prime.k)
    return truncation_order(q_eff)


def _check_kernel_order(l_max: int) -> int:
    if l_max > KERNEL_LMAX:
        raise ResourceLimitError(
            f"l_max={l_max} exceeds the kernel cap {KERNEL_LMAX} "
            f"(the radial overlaps need Bessel orders up to l_max + 2 <= {specfun.HARD_CAP_LMAX})"
        )
    return l_max


def _prefactor(kind: str, spec: SphereSpec, k: float, kp: float) -> float:
    """The kernel's prefactor of the reduced volume integral; A_offdiag
    refuses the pole |k| = |k'|."""
    if kind == "V":
        return math.sqrt(k * kp) / 4.0 * (spec.epsilon - 1.0) / spec.epsilon
    if kind == "B":
        return -(spec.epsilon - 1.0) / 2.0 * math.sqrt(k * kp) / (k + kp)
    if abs(k - kp) <= _POLE_RTOL * max(k, kp):
        raise PoleExcludedError(
            f"|k| = {k!r} and |k'| = {kp!r} sit on the 1/(|k|-|k'|) pole"
        )
    return (spec.epsilon - 1.0) / 2.0 * math.sqrt(k * kp) / (k - kp)


def _kernel_scan(kind: str, spec: SphereSpec, kappa: PlaneModeIndex, kappa_primes,
                 l_max: int | None = None, rtol: float = 1e-11,
                 direction: str = "outgoing") -> list[CouplingKernel]:
    """The kernels of one kind ("V", "B" or "A_offdiag") between kappa and
    each kappa' in turn, exactly zero for a transparent sphere.

    kappa_primes is any iterable, drawn once. Each kappa' is first checked
    and given its cutoff: l_max when given, or its own default, within the
    kernel order range. One coefficient table at the largest cutoff then
    serves every kernel, each reading its slice. A QmieError met while
    drawing or checking kappa' number i is raised only after the kernels
    before it are evaluated, so a scan fails where a loop over single
    kernels would, with the same error.
    """
    # V takes no boundary condition; the conjugated F* of B flips the
    # interior phase factor e^{sign i phi}
    sign = 0.0 if kind == "V" else _check_direction(direction)
    scattered, phase_sign, conjugate_pair = {
        "V": (False, 0.0, False), "B": (True, -sign, True), "A_offdiag": (True, sign, False),
    }[kind]
    plans, failure = [], None
    try:
        for kappa_prime in kappa_primes:
            pref = _prefactor(kind, spec, kappa.k, kappa_prime.k)
            if l_max is not None:
                _check_kernel_order(l_max)
            if spec.epsilon == 1.0:
                cutoff = None
            elif l_max is None:
                cutoff = _check_kernel_order(_default_l_max(spec, kappa, kappa_prime, scattered))
            else:
                cutoff = l_max
            plans.append((kappa_prime, pref, cutoff))
    except QmieError as exc:  # raised below, after the kernels before it
        failure = exc
    kernels, tables = [], None
    if plans and spec.epsilon != 1.0:
        tables = _ScanTables(kappa, [kp for kp, _, _ in plans], max(c for _, _, c in plans))
    for kappa_prime, pref, cutoff in plans:
        if cutoff is None:
            kernels.append(CouplingKernel(kappa, kappa_prime, 0.0 + 0.0j, kind, 0.0))
            continue
        val, err = _volume_overlap(spec, kappa, kappa_prime, cutoff, rtol, scattered,
                                   phase_sign, conjugate_pair, tables.pair(kappa_prime, cutoff))
        kernels.append(CouplingKernel(kappa, kappa_prime, pref * val, kind, abs(pref) * err))
    if failure is not None:
        raise failure
    return kernels


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
    return _kernel_scan("V", spec, kappa, [kappa_prime], l_max, rtol)[0]


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
    return _kernel_scan("B", spec, kappa, [kappa_prime], l_max, rtol, direction)[0]


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
    return _kernel_scan("A_offdiag", spec, kappa, [kappa_prime], l_max, rtol, direction)[0]


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
    sums = _angular_sums(kappa, kappa_prime, l_max, conjugate_pair=False)
    t = phase_table(spec, q, l_max)
    # rows l = 0 of the angular sums vanish
    return complex(np.sum(sums * np.exp(sign * 1j * t.phi) * t.cos_phi))
