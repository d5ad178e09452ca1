"""Coupling kernels of the canonical transformation between plane-wave
operators and scattering-eigenmode operators.

All three kernels reduce the sphere-volume integral of a mode product to
analytic angular sums times one-dimensional radial overlaps
T_l = integral_0^R r^2 j_l(a r) j_l(b r) dr. The angular part sums over m
through pi_l and tau_l at the angle between the two plane waves, with no
coefficient table. The overlaps of all
orders come from one exact series, Lommel's closed form (Watson, Theory of
Bessel Functions, sec. 5.11) telescoped over the Bessel recurrence, summed
from one Bessel sweep per argument. It holds near and on the diagonal
a = b alike, and each order comes with a stated bound (see _overlaps); the
module holds no quadrature. A scan of many kappa' is one array pass: one
angular pass, one phase table over every |k'| R, one overlap pass and the
radial mixing of all kernels at once, each kernel equal bit for bit to the
same kernel alone (see kernel_scan).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modes, specfun
from .errors import (
    DomainError,
    PoleExcludedError,
    QmieError,
    ToleranceError,
)
from .miecore import SphereSpec, _resolve_cutoff, phase_table
from .modes import PlaneModeIndex

__all__ = [
    "CouplingKernel",
    "kernel_scan",
    "coupling_v",
    "b_coefficient",
    "a_offdiagonal_kernel",
    "a_diagonal_channel_sum",
    "KERNEL_LMAX",
]

# |k| spacings below this relative gap count as sitting on the pole
_POLE_RTOL = 1e-13

# Largest kernel order: the TM overlaps reach order l_max + 1, whose series
# starts at j_{l_max + 2}, so kernel cutoffs are resolved at reach 2; the
# sweeps stop at HARD_CAP_LMAX.
KERNEL_LMAX = specfun.HARD_CAP_LMAX - 2

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CouplingKernel:
    """One evaluated kernel entry. abs_err bounds its error: the angular
    sums weigh the per-order bounds of the radial overlaps (see _overlaps)."""

    kappa: PlaneModeIndex
    kappa_prime: PlaneModeIndex
    value: complex
    kind: str
    abs_err: float


def _envelope(j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|j_l(x)| per row of j, raised to 1/x past the turning point
    x = l + 1/2, where j_l oscillates and a sweep's error is absolute rather
    than relative."""
    env = np.abs(j)
    turned = np.arange(j.shape[1]) < np.ceil(x - 0.5)[:, None]
    return np.where(turned, np.maximum(env, (1.0 / x)[:, None]), env)


def _overlaps(l_top, a: float, b, radius: float, rtol: float):
    """Radial overlaps T_l = integral_0^R r^2 j_l(a r) j_l(b r) dr for
    l = 0..l_top and a, b > 0, by the exact series

        T_l = (R / ab) sum_{n = l+1, l+3, ...} (2n + 1) j_n(aR) j_n(bR).

    Lommel's closed form (Watson, Theory of Bessel Functions, sec. 5.11),
    R^2 (a j_{l+1}(aR) j_l(bR) - b j_l(aR) j_{l+1}(bR)) / (a^2 - b^2), and
    the recurrence of j give T_{l-1} - T_{l+1} = (2l + 1) (R / ab) j_l(aR)
    j_l(bR); T_l -> 0, so the differences telescope into the series. It
    holds no 1 / (a^2 - b^2): a == b is no special case. All orders come
    from one j sweep at aR and one at bR (one when a == b) to order
    N = max(l_top + 1, ceil(x) + 16) + 8 + floor(4 x^(1/3)), x = max(aR, bR),
    capped at HARD_CAP_LMAX, and one cumulative sum per parity: past the
    turning point x, and past the first term of order l_top, the terms fall
    off over a few x^(1/3) orders.

    b and l_top are one value each, or 1-D arrays of N pairs sharing a:
    then values and bounds are (N, L + 1) arrays, L the largest l_top, and
    row n equals the call at (l_top[n], b[n]) bit for bit through l_top[n]
    and is 0 past it. The pairs share one j call at aR, with one top N per
    pair, and one at their bR; each tail runs from its own top.

    Returns (values, bounds). The bound of order l is 4 eps g_l S_l plus a
    bound on the terms past N, with g_l = 2 + l + aR + bR and S_l the same
    series over the envelopes E (_envelope). The first term charges each j
    value an error of order eps g_l E, as the Miller sweep's error grows with
    its length, and covers the rounding of the products and sums; against
    mpmath the errors stay below half of it. For the second: for n > y the
    ratio j_n(y) / j_{n-1}(y) lies in (0, y / (2n + 1 - y)), so with
    q = r(aR) r(bR), r(y) = y / (2N + 3 - y), the terms past N sum to at
    most |j_N(aR) j_N(bR)| ((2N + 1) q / (1 - q) + 2q / (1 - q)^2), doubled
    for the rounding of j_N; an argument above N counts |j_n| <= 1 and
    r = 1, and q >= 1 makes the bound infinite. It stays below a few hundred
    eps S_l up to x of about 450, where the capped sweep stops covering the
    tail. ToleranceError is raised where a bound exceeds max(rtol S_l, 1e-290),
    for the first pair that has such an order:
    S_l is |T_l| where the terms keep their sign and keeps rounding from
    failing an order at a zero of T_l; the floor covers orders that
    underflow, which come out as 0 with bound 0.
    """
    one = np.ndim(b) == 0
    bs, l_tops = np.atleast_1d(np.asarray(b, dtype=float)), np.atleast_1d(l_top)
    with np.errstate(over="ignore"):  # the check below refuses an inf
        x_a, x_b = a * radius, bs * radius
    x_as = np.full(bs.size, x_a)
    # the sweeps' own check, before math.ceil meets an argument past it; one
    # pair checks scalars, so that an argument error names x
    for xs in (x_as, x_b):
        specfun._arguments(xs[0] if one else xs, positive=False)
    tops = np.array([min(specfun.HARD_CAP_LMAX,
                         max(l + 1, math.ceil(x) + 16) + 8 + int(4.0 * x ** (1.0 / 3.0)))
                     for l, x in zip(l_tops.tolist(), np.maximum(x_a, x_b).tolist())])
    ja = np.ldexp(*specfun._j_scaled(tops, x_as))
    jb = ja if np.all(bs == a) else np.ldexp(*specfun._j_scaled(tops, x_b))
    orders = np.arange(ja.shape[1])
    terms = np.stack([ja * jb, _envelope(ja, x_as) * _envelope(jb, x_b)])
    terms *= 2.0 * orders + 1.0
    # -0.0 above a pair's top adds nothing, not even a sign: each tail sums
    # from its own top, as the pair alone would
    terms[:, orders > tops[:, None]] = -0.0
    tails = np.empty_like(terms)
    for start in (orders[-1], orders[-1] - 1):
        tails[..., start::-2] = np.cumsum(terms[..., start::-2], axis=-1)
    scale = radius / (a * bs)
    width = int(l_tops.max()) + 1
    values, mass = scale[:, None] * tails[..., 1:width + 1]
    # past the top, |j_{N+k}(y)| <= |j_N(y)| r(y)^k for y <= N, and <= 1 above;
    # in Python floats, where (1 - q)**2 rounds as libm's pow
    rows = np.arange(bs.size)
    past_top = []
    for top, y_b, f_a, f_b, s in zip(tops.tolist(), x_b.tolist(), np.abs(ja[rows, tops]).tolist(),
                                     np.abs(jb[rows, tops]).tolist(), scale.tolist()):
        f_a, r_a = (f_a, x_a / (2 * top + 3 - x_a)) if top >= x_a else (1.0, 1.0)
        f_b, r_b = (f_b, y_b / (2 * top + 3 - y_b)) if top >= y_b else (1.0, 1.0)
        q = r_a * r_b
        past_top.append(2.0 * s * f_a * f_b * ((2 * top + 1) * q / (1.0 - q)
                                               + 2.0 * q / (1.0 - q) ** 2)
                        if q < 1.0 else math.inf)
    bounds = (4.0 * _EPS * (2.0 + np.arange(width) + x_a + x_b[:, None]) * mass
              + np.array(past_top)[:, None])
    kept = np.arange(width) <= l_tops[:, None]
    bad = np.argwhere(kept & (bounds > np.maximum(rtol * mass, 1e-290)))
    if bad.size:
        n, l = bad[0]
        raise ToleranceError(f"radial overlap bound {bounds[n, l]:.3g} at l={l} exceeds "
                             f"rtol S_l = {rtol * mass[n, l]:.3g}; the Bessel sweeps stop at "
                             f"order {tops[n]}")
    values, bounds = np.where(kept, values, 0.0), np.where(kept, bounds, 0.0)
    return (values[0], bounds[0]) if one else (values, bounds)


def _angular_sums(kappa: PlaneModeIndex, kappa_primes, l_max: int, conjugate_pair: bool):
    """Per-(p, l) sums over m of the plane-wave coefficient products of kappa
    and each of N kappa', (N, 2, l_max+1) indexed [i, p, l], in one array
    pass (``specfun._pair_sums``). Normal kinds pair c*(khat) with c(khat'),
    the counter-rotating kind c*(khat) with c*(khat') at mirrored m. Rows
    l <= L of a pair depend neither on l_max >= L nor on the other kappa'.
    """
    n, e = modes._directions([kappa, *kappa_primes])
    g_prime = [kappa_prime.g - 1 for kappa_prime in kappa_primes]
    return specfun._pair_sums(n[0], n[1:], e[0, kappa.g - 1], e[np.arange(1, len(n)), g_prime],
                              l_max, conjugate_pair)


def _volume_overlaps(
    spec: SphereSpec,
    kappa: PlaneModeIndex,
    kappa_primes,
    cutoffs,
    rtol: float,
    scattered: bool,
    phase_sign: float,
    sums: np.ndarray,
):
    """Reduced sphere-volume integrals of G*_kappa dotted into the family
    member of each of N kappa': G (scattered=False), F or F* (scattered=True),
    kappa' number n to order cutoffs[n].

    Returns N pairs (value, abs_err). The reduction is
    (2/pi) sum_{p,l} M^p_l Phi^p_l T^p_l with M the angular coefficient sums
    (sums, the (N, 2, max(cutoffs) + 1) rows of _angular_sums), Phi the
    interior radial phase factor and T the radial overlaps. One phase table
    at every k' R, each entry at its own cutoff, and one _overlaps pass
    serve all N; a failure in either is raised as a loop over single
    kernels meets it. Only the two final sums run per kernel, over its own
    (2, cutoff) products, since numpy's pairwise sum order depends on their
    length.
    """
    ks, orders = np.array([kappa_prime.k for kappa_prime in kappa_primes]), np.array(cutoffs)
    b_scale = math.sqrt(spec.epsilon) if scattered else 1.0
    try:
        if scattered:
            with np.errstate(over="ignore"):  # the phase table refuses an inf
                qs = ks * spec.radius
            t = phase_table(spec, qs, orders)
            sums = sums * t.gamma * np.exp(phase_sign * 1j * t.phi)
        o, o_err = _overlaps(orders + 1, kappa.k, b_scale * ks, spec.radius, rtol)
    except QmieError:
        # the array calls name no k': the single kernels in turn raise the
        # loop's error, a kernel's phase table before its overlaps
        for kp, cutoff in zip(ks.tolist(), cutoffs):
            if scattered:
                phase_table(spec, kp * spec.radius, cutoff)
            _overlaps(cutoff + 1, kappa.k, b_scale * kp, spec.radius, rtol)
        raise
    # TE takes the overlap of order l, TM those of orders l + 1 and l - 1
    ls = np.arange(1, o.shape[1] - 1)
    w_up = ls / (2.0 * ls + 1.0)
    w_dn = (ls + 1.0) / (2.0 * ls + 1.0)
    radial = np.stack([o[:, 1:-1], w_up * o[:, 2:] + w_dn * o[:, :-2]], axis=1)
    radial_err = np.stack([o_err[:, 1:-1], w_up * o_err[:, 2:] + w_dn * o_err[:, :-2]], axis=1)
    sums = sums[..., 1:]
    return [((2.0 / math.pi) * np.sum(row[:, :c] * r[:, :c]),
             (2.0 / math.pi) * np.sum(size[:, :c] * r_err[:, :c]))
            for row, size, r, r_err, c in zip(sums, np.abs(sums), radial, radial_err, cutoffs)]


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


def kernel_scan(kind: str, spec: SphereSpec, kappa: PlaneModeIndex, kappa_primes,
                l_max: int | None = None, rtol: float = 1e-11,
                direction: str = "outgoing") -> list[CouplingKernel]:
    """The kernels of one kind ("V", "B" or "A_offdiag") between kappa and
    each kappa' in turn, exactly zero for a transparent sphere.

    direction is checked for every kind, though V ignores it. kappa_primes
    is any iterable, drawn once. Each kappa' is first checked and given its
    cutoff by ``miecore._resolve_cutoff`` at reach 2, also for eps = 1:
    l_max when given, or its own default at q = R max(|k|, s |k'|), s =
    sqrt(eps) for B and A_offdiag and 1 for V. One pass of _angular_sums at
    the largest cutoff and one _volume_overlaps pass (one phase table, one
    _overlaps call, the radial mixing as arrays) then serve every kernel,
    each reading its own rows, so each kernel equals the one-element scan
    bit for bit. A QmieError met while drawing or checking kappa' number i
    is raised only after the kernels before it are evaluated, and an error
    inside the pass comes from the first kernel that meets one alone, so a
    scan fails where a loop over single kernels would, with the same error.
    """
    # V takes no boundary condition; the conjugated F* of B flips the
    # interior phase factor e^{sign i phi}
    sign = modes._direction_sign(direction)
    scattered, phase_sign, conjugate_pair = {
        "V": (False, 0.0, False), "B": (True, -sign, True), "A_offdiag": (True, sign, False),
    }[kind]
    scale = math.sqrt(spec.epsilon) if scattered else 1.0
    plans, failure = [], None
    try:
        for kappa_prime in kappa_primes:
            pref = _prefactor(kind, spec, kappa.k, kappa_prime.k)
            q = spec.radius * max(kappa.k, scale * kappa_prime.k)
            plans.append((kappa_prime, pref, _resolve_cutoff(q, l_max, reach=2)))
    except QmieError as exc:  # raised below, after the kernels before it
        failure = exc
    if plans and spec.epsilon != 1.0:
        kappa_primes, prefs, cutoffs = zip(*plans)
        sums = _angular_sums(kappa, kappa_primes, max(cutoffs), conjugate_pair)
        reduced = _volume_overlaps(spec, kappa, kappa_primes, cutoffs, rtol, scattered,
                                   phase_sign, sums)
        kernels = [CouplingKernel(kappa, kappa_prime, pref * val, kind, abs(pref) * err)
                   for kappa_prime, pref, (val, err) in zip(kappa_primes, prefs, reduced)]
    else:
        kernels = [CouplingKernel(kappa, kappa_prime, 0.0 + 0.0j, kind, 0.0)
                   for kappa_prime, _, _ in plans]
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
    return kernel_scan("V", spec, kappa, [kappa_prime], l_max, rtol)[0]


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
    return kernel_scan("B", spec, kappa, [kappa_prime], l_max, rtol, direction)[0]


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
    return kernel_scan("A_offdiag", spec, kappa, [kappa_prime], l_max, rtol, direction)[0]


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
    sign = modes._direction_sign(direction)
    k, kp = kappa.k, kappa_prime.k
    if abs(k - kp) > 1e-12 * max(k, kp):
        raise DomainError(
            f"diagonal term requires |k| = |k'|; got {k!r} and {kp!r}"
        )
    q = k * spec.radius
    l_max = _resolve_cutoff(q, l_max)
    sums = _angular_sums(kappa, [kappa_prime], l_max, conjugate_pair=False)[0]
    t = phase_table(spec, q, l_max)
    # rows l = 0 of the angular sums vanish
    return complex(np.sum(sums * np.exp(sign * 1j * t.phi) * t.cos_phi))
