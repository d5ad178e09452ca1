"""Stable special functions on the sphere.

Spherical Bessel functions of the first and second kind, orthonormal spherical
harmonics in the Condon-Shortley convention, and the tangential/mixed vector
harmonic triple (X, V, W) expressed on the local spherical basis.

Numerical strategy: j_l is generated by a Miller-type downward recurrence
seeded well above the requested order and renormalized against a closed-form
anchor (upward recurrence for j_l is catastrophically unstable for l > x);
y_l is generated upward from its closed forms, which is the stable direction.
Both sweeps take one argument or a 1-D array of them. From ``BATCH_MIN``
(24) arguments on, one recurrence runs over the whole array, each argument
taking exactly the steps, rescalings and anchors of its scalar sweep, so
every row equals the scalar sweep bit for bit; smaller arrays loop over the
scalar sweep. Arguments are capped at ``HARD_CAP_ARGUMENT`` (2^20), which
bounds the length of every sweep.
Angular derivatives of Y_l^m are evaluated through ladder identities that stay
finite at the poles; nothing is differentiated numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError

__all__ = [
    "HARD_CAP_LMAX",
    "HARD_CAP_ARGUMENT",
    "AngularPoint",
    "VectorHarmonicTriple",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_hankel_h1",
    "legendre_p",
    "spherical_harmonic",
    "HarmonicsBlock",
    "spherical_harmonics_block",
    "spherical_harmonics_batch",
    "vector_spherical_harmonics",
    "vector_harmonics_block",
    "vector_harmonics_batch",
    "spherical_harmonics_contract",
    "vector_harmonics_contract",
    "unit_vectors",
    "spherical_to_cartesian",
]

# Hard cap on multipole order; guards runaway truncation requests.
HARD_CAP_LMAX = 512

# Hard cap on a Bessel argument x. A j sweep takes about max(l, x) steps, and
# in a batch the largest argument sets the step count for all, so the cap
# bounds every sweep's length; the default g2-map detector sits at k r = 1e3.
HARD_CAP_ARGUMENT = 2.0 ** 20

# Batches of fewer arguments run one scalar sweep per argument: the batched
# sweep pays numpy's fixed cost per call at every recurrence step, which a
# smaller batch does not earn back. The two cost the same at about 16-24
# arguments, for tops 5-231 and x up to 200.
BATCH_MIN = 24

# Below x = 1e-6 (l+1) the two-term power series is more reliable than the
# renormalized recurrence (whose anchor underflows first).
_SERIES_THRESHOLD = 1e-6

# Bessel sweeps rescale their running pair by this power of two before it
# overflows; the scaled sweeps carry the exponent, so nothing is lost.
_RESCALE_BITS = 830
_RESCALE = 2.0 ** -_RESCALE_BITS
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AngularPoint:
    """Direction on the unit sphere, polar angle theta in [0, pi]."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not math.isfinite(theta) or not math.isfinite(phi):
            raise DomainError("angular point must be finite")
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta={theta} outside [0, pi]")
        phi = phi % (2.0 * math.pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class VectorHarmonicTriple:
    """X, V, W at one (l, m, theta, phi), components on (e_r, e_theta, e_phi)."""

    X: np.ndarray
    V: np.ndarray
    W: np.ndarray


def _as_angles(point) -> tuple[float, float]:
    if not isinstance(point, AngularPoint):
        theta, phi = point
        point = AngularPoint(theta, phi)
    return point.theta, point.phi


def _as_integer(value, name: str) -> int:
    """value as an int, or DomainError when it is not integral (NaN, inf)."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name}={value} must be an integer")


def _check_degree(l: int, m) -> int:
    m = _as_integer(m, "m")
    if abs(m) > l:
        raise DomainError(f"m={m} must be an integer with |m| <= l={l}")
    return m


def _check_order(l_max: int) -> int:
    l_max = _as_integer(l_max, "order")
    if l_max < 0:
        raise DomainError(f"order must be a non-negative integer, got {l_max}")
    if l_max > HARD_CAP_LMAX:
        raise ResourceLimitError(
            f"l_max={l_max} exceeds the hard cap {HARD_CAP_LMAX}"
        )
    return l_max


def _ln_double_factorial_odd(l: int) -> float:
    # (2l+1)!! = 2^{l+1} Gamma(l + 3/2) / sqrt(pi)
    return (l + 1) * math.log(2.0) + math.lgamma(l + 1.5) - 0.5 * math.log(math.pi)


def _series_j(l: int, x: float) -> tuple[float, int]:
    # leading two terms of j_l = x^l/(2l+1)!! (1 - x^2/(2(2l+3)) + ...), as a
    # mantissa and a power of two so that it never underflows
    ln_lead = l * math.log(x) - _ln_double_factorial_odd(l)
    bits = min(0, math.floor((ln_lead + 700.0) / _LN2))
    return math.exp(ln_lead - bits * _LN2) * (1.0 - x * x / (2.0 * (2 * l + 3))), bits


def _miller_j(l_top: int, x: float) -> tuple[list[float], list[int]]:
    """Unstable-direction-safe j_0..j_{l_top} for x not tiny relative to l_top.

    Returns mantissas and powers of two.
    """
    start = int(max(l_top, math.ceil(x))) + 16 + int(2.0 * math.sqrt(max(l_top, x)))
    out = [0.0] * (l_top + 1)
    scale = [0] * (l_top + 1)
    jp, jc, bits = 0.0, 1e-30, 0
    for l in range(start, 0, -1):
        jp, jc = jc, (2 * l + 1) / x * jc - jp
        if not -1e250 <= jc <= 1e250:
            # rescale by a power of two before overflow; bits keeps the scale
            jp *= _RESCALE
            jc *= _RESCALE
            bits += _RESCALE_BITS
        if l - 1 <= l_top:
            out[l - 1] = jc
            scale[l - 1] = bits
    # anchor against whichever closed form is well conditioned here: j0 away
    # from the nonzero roots of sin, else j1 (whose naive form only cancels
    # badly for small x, where j0 is fine anyway)
    j0 = math.sin(x) / x
    if x < 1.0 or abs(math.sin(x)) > 0.1 or l_top == 0:
        a, anchor = 0, j0
    else:
        a, anchor = 1, math.sin(x) / (x * x) - math.cos(x) / x
    ratio = anchor / out[a] if out[a] != 0.0 else 0.0
    mant = [v * ratio for v in out]
    exps = [s - scale[a] for s in scale]
    # the l=0 closed form is exact at full relative accuracy; the recurrence
    # value loses relative precision near roots of j_0
    mant[0], exps[0] = j0, 0
    return mant, exps


def _unchecked_steps(size: np.ndarray, growth: np.ndarray) -> int:
    """Recurrence steps in which no running pair can pass 1e250.

    size bounds each argument's pair (at least the 1e-30 seed counts, which
    covers arguments still at their seed) and one step multiplies it by at
    most growth; the margin of ten covers the rounding of the steps.
    """
    steps = np.log(1e249 / np.maximum(size, 1e-30)) / np.log(growth)
    return max(0, int(steps.min()))


def _miller_j_batch(tops: np.ndarray, x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """_miller_j over N arguments at once, as two (N, width) arrays.

    Row n equals the first width <= min(tops) + 1 entries of
    _miller_j(tops[n], x[n]) bit for bit. One downward recurrence runs from
    the largest start. The arguments are sorted by start, so the ones under
    way are always a prefix; each waits at its seed (0, 1e-30) until its own
    start, takes the scalar steps in the same order, rescales on its own,
    and is anchored on math.sin and math.cos as the scalar sweep is. The
    rescale test runs at every step that a growth bound cannot clear. Only
    the orders kept (and the anchor orders 0 and 1) are stored, so memory
    does not grow with x.
    """
    starts = (np.maximum(tops, np.ceil(x)).astype(int) + 16
              + (2.0 * np.sqrt(np.maximum(tops, x))).astype(int))
    order = np.argsort(-starts, kind="stable")
    starts, tops, x = starts[order], tops[order], x[order]
    n_all, first = x.size, int(starts[0])
    # live[l]: the arguments under way at the step that computes order l - 1
    live = np.searchsorted(-starts, -np.arange(first + 1), side="right").tolist()
    # orders l + 1, l and l - 1 sit in rows (l + 1) % 3, l % 3 and (l - 1) % 3,
    # so an argument that has not started keeps its seed in place
    ring = np.zeros((3, n_all))
    ring[starts % 3, np.arange(n_all)] = 1e-30
    keep = max(width, 2)
    out = np.empty((keep, n_all))
    scale = np.zeros((keep, n_all), dtype=int)
    size = np.zeros(n_all)
    check = first
    for l in range(first, 0, -1):
        n = live[l]
        cur, new = ring[l % 3, :n], ring[(l - 1) % 3, :n]
        np.divide(2 * l + 1, x[:n], out=new)
        new *= cur
        new -= ring[(l + 1) % 3, :n]
        if l == check:
            over = np.flatnonzero(np.abs(new) > 1e250)
            if over.size:
                cur[over] *= _RESCALE
                new[over] *= _RESCALE
                scale[:min(l, keep), over] += _RESCALE_BITS
            np.maximum(np.abs(cur), np.abs(new), out=size[:n])
            check = l - 1 - _unchecked_steps(size, (2 * l - 1) / x + 1.0)
        if l - 1 < keep:
            # every argument is under way: each start exceeds its top by 16
            out[l - 1] = new
    sin = np.array([math.sin(v) for v in x.tolist()])
    j0 = sin / x
    use_j1 = ~((x < 1.0) | (np.abs(sin) > 0.1) | (tops == 0))
    cos = np.array([math.cos(v) for v in x.tolist()])
    anchor = np.where(use_j1, sin / (x * x) - cos / x, j0)
    cols, a = np.arange(n_all), use_j1.astype(int)
    pivot = out[a, cols]
    ratio = np.divide(anchor, pivot, out=np.zeros(n_all), where=pivot != 0.0)
    mant = out[:width] * ratio
    exps = scale[:width] - scale[a, cols]
    mant[0], exps[0] = j0, 0
    back = np.empty_like(order)
    back[order] = cols
    return mant.T[back], exps.T[back]


def _upward_y(l_max: int, x: float) -> tuple[list[float], list[int]]:
    """y_0..y_{l_max} by upward recurrence, as mantissas and powers of two."""
    yp, yc, bits = 0.0, -math.cos(x) / x, 0
    mant = [yc]
    exps = [0] * (l_max + 1)
    if l_max >= 1:
        yp, yc = yc, -math.cos(x) / (x * x) - math.sin(x) / x
        mant.append(yc)
    for l in range(1, l_max):
        yp, yc = yc, (2 * l + 1) / x * yc - yp
        if not -1e250 <= yc <= 1e250:
            yp *= _RESCALE
            yc *= _RESCALE
            bits += _RESCALE_BITS
        mant.append(yc)
        exps[l + 1] = bits
    return mant, exps


def _upward_y_batch(x: np.ndarray, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """_upward_y over N arguments at once, as two (N, l_max + 1) arrays.

    Row n equals _upward_y(l_max, x[n]) bit for bit: the same steps, the
    same per-argument rescaling, math.sin and math.cos for the seeds.
    """
    sin = np.array([math.sin(v) for v in x.tolist()])
    cos = np.array([math.cos(v) for v in x.tolist()])
    table = np.empty((l_max + 1, x.size))
    scale = np.zeros((l_max + 1, x.size), dtype=int)
    table[0] = -cos / x
    if l_max >= 1:
        table[1] = -cos / (x * x) - sin / x
    growth = (2 * l_max - 1) / x + 1.0
    check = 1
    # orders l whose row was rescaled as the running yp: the scalar sweep
    # keeps their unscaled value
    stored = []
    for l in range(1, l_max):
        new = table[l + 1]
        np.divide(2 * l + 1, x, out=new)
        new *= table[l]
        new -= table[l - 1]
        if l == check:
            over = np.flatnonzero(np.abs(new) > 1e250)
            if over.size:
                stored.append((l, over, table[l, over]))
                table[l, over] *= _RESCALE
                new[over] *= _RESCALE
                scale[l + 1:, over] += _RESCALE_BITS
            size = np.maximum(np.abs(table[l]), np.abs(new))
            check = l + 1 + _unchecked_steps(size, growth)
    for l, over, values in stored:
        table[l, over] = values
    return table.T.copy(), scale.T.copy()


def _j_one(l_max: int, x: float) -> tuple[list[float], list[int]]:
    """The scalar sweep behind _j_scaled, for one checked argument."""
    mant = [0.0] * (l_max + 1)
    exps = [0] * (l_max + 1)
    if x == 0.0:
        mant[0] = 1.0
        return mant, exps
    # orders with x < threshold*(l+1) take the series branch
    l_series = l_max + 1
    while l_series > 0 and x < _SERIES_THRESHOLD * l_series:
        l_series -= 1
    if l_series > 0:
        mant[:l_series], exps[:l_series] = _miller_j(l_series - 1, x)
    for l in range(l_series, l_max + 1):
        mant[l], exps[l] = _series_j(l, x)
    return mant, exps


def _reject(xs: np.ndarray, positive: bool):
    """Raise for the first argument outside the sweeps' range."""
    flat = xs.reshape(-1)
    bad = ~np.isfinite(flat) | ((flat <= 0.0) if positive else (flat < 0.0))
    rule = "positive (y_l diverges at 0)" if positive else "non-negative"
    for mask, error, text in ((bad, DomainError, f"must be finite and {rule}"),
                              (flat > HARD_CAP_ARGUMENT, ResourceLimitError,
                               f"exceeds the argument cap {HARD_CAP_ARGUMENT:.0f}")):
        if mask.any():
            n = int(np.argmax(mask))
            name = "x" if xs.ndim == 0 else f"x[{n}]"
            raise error(f"Bessel argument {name}={float(flat[n])!r} {text}")


def _arguments(l_max, x, positive: bool):
    """Checked tops and arguments of a sweep, the whole batch before any
    sweep runs. Returns (int, float) for one argument, else two 1-D arrays
    with one top per argument."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or xs.size == 0:
        raise DomainError(f"x must be a scalar or a non-empty 1-D array, got shape {xs.shape}")
    low, high = xs.min(), xs.max()
    # NaN fails both tests
    if not ((low > 0.0 if positive else low >= 0.0) and high <= HARD_CAP_ARGUMENT):
        _reject(xs, positive)
    if xs.ndim == 0:
        return _check_order(l_max), float(xs)
    if np.ndim(l_max) == 0:
        return np.full(xs.shape, _check_order(l_max)), xs
    tops = np.asarray(l_max)
    if tops.shape != xs.shape or tops.dtype.kind not in "iu":
        raise DomainError(f"orders must be one integer or one per argument, got {tops!r}")
    _check_order(int(tops.min()))
    _check_order(int(tops.max()))
    return tops, xs


def _rows(sweeps, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Mantissa and exponent arrays from scalar sweeps, first width orders."""
    return (np.array([m[:width] for m, _ in sweeps], dtype=float),
            np.array([e[:width] for _, e in sweeps], dtype=int))


def _j_scaled(l_max, x) -> tuple[np.ndarray, np.ndarray]:
    """j_0(x)..j_{l_max}(x) as mantissas and powers of two.

    j_l = ldexp(mantissa_l, exponent_l), with mantissas inside the float
    range, also where j_l itself underflows. One argument x gives two arrays
    of l_max + 1 entries. A 1-D array of N arguments gives two (N, L + 1)
    arrays: l_max is then one top or one per argument, L is the smallest
    top, and row n equals the first L + 1 entries of
    ``_j_scaled(l_max[n], x[n])`` bit for bit. From ``BATCH_MIN`` arguments
    on, one batched Miller sweep serves every argument without series
    orders; x = 0 and arguments with series orders take the scalar sweep.
    Every x must be finite, >= 0 and at most ``HARD_CAP_ARGUMENT``, checked
    over the whole batch before any sweep.
    """
    tops, xs = _arguments(l_max, x, positive=False)
    if not isinstance(xs, np.ndarray):
        return tuple(np.array(a) for a in _j_one(tops, xs))
    width = int(tops.min()) + 1
    if xs.size < BATCH_MIN:
        return _rows([_j_one(t, v) for t, v in zip(tops.tolist(), xs.tolist())], width)
    series = xs < _SERIES_THRESHOLD * (tops + 1)
    if not series.any():
        return _miller_j_batch(tops, xs, width)
    mant = np.empty((xs.size, width))
    exps = np.empty((xs.size, width), dtype=int)
    mant[series], exps[series] = _rows([_j_one(t, v) for t, v in
                                        zip(tops[series].tolist(), xs[series].tolist())], width)
    if not series.all():
        rest = ~series
        mant[rest], exps[rest] = _miller_j_batch(tops[rest], xs[rest], width)
    return mant, exps


def _y_scaled(l_max, x) -> tuple[np.ndarray, np.ndarray]:
    """y_0(x)..y_{l_max}(x) by upward recurrence, as mantissas and powers of
    two; the mantissas stay inside the float range, also where y_l overflows.

    Arguments and tops as for ``_j_scaled``; x must be > 0. From
    ``BATCH_MIN`` arguments on, one batched upward sweep serves the batch,
    its rows equal to the scalar sweep's bit for bit.
    """
    tops, xs = _arguments(l_max, x, positive=True)
    if not isinstance(xs, np.ndarray):
        return tuple(np.array(a) for a in _upward_y(tops, xs))
    top = int(tops.min())
    if xs.size >= BATCH_MIN:
        return _upward_y_batch(xs, top)
    return _rows([_upward_y(top, v) for v in xs.tolist()], top + 1)


def spherical_bessel_j(l_max, x) -> np.ndarray:
    """Spherical Bessel functions j_0(x)..j_{l_max}(x), 0 <= l_max <= HARD_CAP_LMAX,
    0 <= x <= HARD_CAP_ARGUMENT; a 1-D array of x gives one row per argument."""
    return np.ldexp(*_j_scaled(l_max, x))


def spherical_bessel_y(l_max, x) -> np.ndarray:
    """Spherical Bessel functions y_0(x)..y_{l_max}(x), 0 < x <= HARD_CAP_ARGUMENT;
    -inf past the float range; a 1-D array of x gives one row per argument."""
    with np.errstate(over="ignore"):
        return np.ldexp(*_y_scaled(l_max, x))


def spherical_hankel_h1(l_max: int, x: float) -> np.ndarray:
    """h_l^(1)(x) = j_l(x) + i y_l(x) for l = 0..l_max."""
    return spherical_bessel_j(l_max, x) + 1j * spherical_bessel_y(l_max, x)


def legendre_p(l: int, x: float) -> float:
    """Legendre polynomial P_l(x) on [-1, 1] via the Bonnet recurrence."""
    l = _check_order(l)
    x = float(x)
    if math.isnan(x) or abs(x) > 1.0:
        raise DomainError(f"x={x} outside [-1, 1]")
    if l == 0:
        return 1.0
    pm, pc = 1.0, x
    for n in range(1, l):
        pm, pc = pc, ((2 * n + 1) * x * pc - n * pm) / (n + 1)
    return pc


# Values per order l of one chunk of spherical_harmonics_contract: the chunk's
# directions times the 2 (M + 1) + 1 columns |m| <= M + 1 that its weights
# need. Large enough to amortize the per-l loop, small enough that a chunk's
# rows stay well under a megabyte.
CHUNK_VALUES = 2**13


def chunk_directions(m_top: int) -> int:
    """Directions per chunk of ``spherical_harmonics_contract``.

    m_top is the largest |m| with a nonzero weight; each direction of a
    chunk holds 2 (m_top + 1) + 1 columns of each row l.
    """
    return max(1, CHUNK_VALUES // (2 * (m_top + 1) + 1))


@dataclass(frozen=True)
class HarmonicsBlock:
    """All Y_l^m data up to l_max at one direction.

    Arrays are indexed [l, m + l_max]: ``y`` holds Y_l^m, ``dtheta_y`` holds
    the theta derivative, ``m_y_over_sin`` holds m Y_l^m / sin(theta) (finite
    at the poles). Entries with |m| > l are zero.
    """

    l_max: int
    theta: float
    phi: float
    y: np.ndarray
    dtheta_y: np.ndarray
    m_y_over_sin: np.ndarray

    def idx(self, m: int) -> int:
        return m + self.l_max


def _as_angle_arrays(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Validated 1-D direction arrays, phi wrapped into [0, 2 pi)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.ndim != 1 or theta.shape != phi.shape:
        raise DomainError(
            f"theta and phi must be matching 1-D arrays, got {theta.shape} and {phi.shape}"
        )
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise DomainError("angular point must be finite")
    if np.any((theta < 0.0) | (theta > math.pi)):
        raise DomainError("theta outside [0, pi]")
    return theta, np.mod(phi, 2.0 * math.pi)


@functools.lru_cache(maxsize=8)
def _recurrence_tables(l_max: int) -> tuple[np.ndarray, ...]:
    """Per-(l, m) coefficients of the column recurrence and the ladder.

    The column recurrence is P_l^m = a x P_{l-1}^m - a b P_{l-2}^m; a and
    a b are indexed [l, m] for m >= 0, a nonzero for m <= l - 1 (at m = l - 1
    exactly sqrt(2l + 1), which gives the off-diagonal P_{m+1}^m) and a b
    for m <= l - 2 (b at (1, 0) is -0.0, a sign the u zeros must not see).
    up, dn are indexed [l, m + l_max] (zero outside |m| <= l); dn at m is up
    at -m, so dn is the mirrored view of up. Built once per l_max and
    cached, so the arrays are read-only.
    """
    ls = np.arange(l_max + 1, dtype=float)[:, None]
    ms = np.arange(l_max + 1, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * ls * ls - 1.0) / (ls * ls - ms * ms))
        b = np.sqrt(((ls - 1.0) ** 2 - ms * ms) / (4.0 * (ls - 1.0) ** 2 - 1.0))
    ab = np.where(ms <= ls - 2.0, a * b, 0.0)
    a = np.where(ms <= ls - 1.0, a, 0.0)
    m = np.arange(-l_max, l_max + 1, dtype=float)[None, :]
    up = np.where((np.abs(m) <= ls) & (m + 1.0 <= ls),
                  np.sqrt(np.maximum((ls - m) * (ls + m + 1.0), 0.0)), 0.0)
    for table in (a, ab, up):
        table.setflags(write=False)
    return a, ab, up, up[:, ::-1]


def _legendre_seeds(theta: np.ndarray, m_top: int) -> np.ndarray:
    """The diagonal P_m^m of the column recurrence for m = 0..m_top.

    Returns seeds shaped (2, N, m_top + 1) and indexed [f, n, m]: f = 0
    holds the normalized Legendre value p and f = 1 its companion
    u = m p / sin(theta). The u diagonal runs with one sin(theta) factor
    removed, so no 0/0 forms appear at theta = 0 or pi. The rest of each
    column, the first off-diagonal P_{m+1}^m included, comes from the
    recurrence in ``_legendre_rows``.
    """
    n = theta.size
    s = np.sin(theta)[:, None]
    seeds = np.zeros((2, n, m_top + 1))
    # diagonal by running product, Condon-Shortley sign folded in
    m = np.arange(1, m_top + 1)
    step = -np.sqrt((2 * m + 1) / (2.0 * m)) * s
    p00 = 1.0 / math.sqrt(4.0 * math.pi)
    seeds[0] = np.cumprod(np.concatenate([np.full((n, 1), p00), step], axis=1), axis=1)
    if m_top >= 1:
        # same diagonal with one sin(theta) factor removed, times m
        d1 = np.full((n, 1), -math.sqrt(3.0 / 2.0) * p00)
        seeds[1, :, 1:] = m * np.cumprod(np.concatenate([d1, step[:, 1:]], axis=1), axis=1)
    return seeds


def _legendre_rows(theta: np.ndarray, band: int, l_stop: int, a: np.ndarray,
                   ab: np.ndarray, rows: np.ndarray):
    """Write the Legendre row (p, u) of each order l < l_stop, columns
    m = 0..band, into rows[l % len(rows)] and yield l.

    Y_l^m = p e^{i m phi} and u = m p / sin(theta), as in ``_legendre_seeds``.
    rows holds every row (the whole block) or a ring of three (the streamed
    contraction). Columns m < l come from the recurrence; at m = l - 1 its
    two-back term is 0.0 times 0.0, and it starts at l = 2 (with two rows,
    l = 1 would read the row it writes). Column l is the seed; columns
    m > l keep their zeros, which a ring's row l had as row l - 3.
    """
    x = np.cos(theta)[:, None]
    seeds = _legendre_seeds(theta, band)
    ring = len(rows)
    # formed once for the whole block, per order in a ring: O(band) memory
    ax = a[:l_stop, None, :band + 1] * x if ring >= l_stop else None
    for l in range(l_stop):
        row = rows[l % ring]
        c = min(l, band + 1)
        out = row[:, :, :c]
        if l >= 1:
            np.multiply(a[l, :c] * x if ax is None else ax[l, :, :c],
                        rows[(l - 1) % ring, :, :, :c], out=out)
        if l >= 2:
            out -= ab[l, :c] * rows[(l - 2) % ring, :, :, :c]
        if l <= band:
            row[:, :, l] = seeds[:, :, l]
        yield l


# the factors taking column m to column -m, m = 1..HARD_CAP_LMAX: (-1)^m
# for Y (row 0) and -(-1)^m for mY/sin(theta) (row 1)
_PARITY = np.array([[1.0], [-1.0]]) * np.where(np.arange(1, HARD_CAP_LMAX + 1) % 2 == 0, 1.0, -1.0)


def _phases(phi: np.ndarray, m_top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^{i m phi} for m = 0..m_top shaped (N, m_top + 1), and e^{-/+ i phi} shaped (N, 1)."""
    return (np.exp(1j * phi[:, None] * np.arange(m_top + 1)),
            np.exp(-1j * phi)[:, None], np.exp(1j * phi)[:, None])


def _complete(pu: np.ndarray, phases, em, ep, up, dn) -> np.ndarray:
    """Y, dY/dtheta and mY/sin(theta) from the m >= 0 Legendre columns.

    pu stacks (p, u) on its first axis, as ``_legendre_rows`` does, and holds
    the columns m = 0..c on its last. The result stacks (Y, dY/dtheta,
    mY/sin(theta)) on its first axis and holds m = -c..c on its last,
    column c + m for order m. phases, em and ep (from ``_phases``) broadcast
    against p; up and dn are the ladder coefficients of the result's
    columns. dY/dtheta at the edge columns m = -/+ c lacks the neighbour
    beyond them: exact where c is l_max, whose missing neighbour vanishes;
    below that, the caller gives those columns no weight.
    """
    c = pu.shape[-1] - 1
    out = np.zeros((3,) + pu.shape[1:-1] + (2 * c + 1,), dtype=complex)
    y_u = out[::2]
    np.multiply(pu, phases, out=y_u[..., c:])
    # conjugation symmetry fixes negative m exactly: Y_l^{-m} is
    # (-1)^m conj(Y_l^m), and mY/sin(theta) flips sign once more; columns
    # c-1 .. 0 hold m = -1 .. -c
    neg = y_u[..., :c][..., ::-1]
    np.conjugate(y_u[..., c + 1:], out=neg)
    neg *= _PARITY[:, :c].reshape((2,) + (1,) * (pu.ndim - 2) + (c,))
    # ladder: 2 dY_l^m = up e^{-i phi} Y_l^{m+1} - dn e^{i phi} Y_l^{m-1}
    y, dy = out[0], out[1]
    np.multiply(y[..., 1:], em, out=dy[..., :-1])
    dy[..., :-1] *= up[..., :-1]
    lower = y[..., :-1] * ep
    lower *= dn[..., 1:]
    dy[..., 1:] -= lower
    dy *= 0.5
    return out


def _tangential_norms(l_max: int, theta: float) -> np.ndarray:
    """sum over |m| <= l of |dY_l^m/dtheta|^2 and of |m Y_l^m/sin(theta)|^2,
    each over l (l + 1), for l = 0..l_max at one polar angle: (2, l_max + 1).

    Row 0 is |X . e_phi|^2 summed over m, row 1 |X . e_theta|^2; row l = 0
    is zero. Neither depends on phi: in the ladder of ``_complete`` both
    phase factors reduce to e^{i m phi}, so with P_l^{-1} = -P_l^1
    2 |dY_l^m| = |up P_l^{m+1} - dn P_l^{m-1}|, and |m Y/sin(theta)| = |u|.
    Column -m mirrors m, so the sums run over m >= 0 in real arithmetic,
    with weight 2 for m >= 1. The vector addition theorem makes each entry
    (2l + 1)/(8 pi) at every theta.
    """
    a, ab, up, dn = _recurrence_tables(l_max)
    rows = np.zeros((l_max + 1, 2, 1, l_max + 2))
    for _ in _legendre_rows(np.array([float(theta)]), l_max, l_max + 1, a, ab, rows):
        pass
    p, u = rows[:, 0, 0], rows[:, 1, 0, :-1]
    # P_l^{m-1} for m = 0..l_max, with P_l^{-1} = -P_l^1; column l_max + 1
    # of p is the vanishing P_l^{m+1} at m = l_max
    lower = np.concatenate([-p[:, 1:2], p[:, :-2]], axis=1)
    dy = up[:, l_max:] * p[:, 1:] - dn[:, l_max:] * lower
    weight = np.full(l_max + 1, 2.0)
    weight[0] = 1.0
    sums = np.stack([0.25 * (dy * dy) @ weight, (u * u) @ weight])
    ls = np.arange(1, l_max + 1)
    sums[:, 1:] /= ls * (ls + 1.0)
    return sums


def _x_components(ls: np.ndarray, dy, u):
    """X . e_theta and X . e_phi from dY/dtheta and mY/sin(theta) at orders
    ``ls``; X . e_r is zero."""
    live = ls > 0
    # l = 0 divides by one instead of zero; the mask then clears those rows
    s = np.where(live, np.sqrt(ls * (ls + 1.0)), 1.0)
    x_theta, x_phi = -u / s, -1j * dy / s
    x_theta *= live
    x_phi *= live
    return x_theta, x_phi


def _x_family(ls: np.ndarray, dy, u):
    """X from dY/dtheta and mY/sin(theta) at orders ``ls``, as in _vector_families."""
    x = np.zeros(dy.shape + (3,), dtype=complex)
    x[..., 1], x[..., 2] = _x_components(ls, dy, u)
    return x


def _vw_families(ls: np.ndarray, y, dy, u):
    """(V, W) from Y, dY/dtheta and mY/sin(theta) at orders ``ls``, as in _vector_families."""
    live = ls > 0
    nv = np.sqrt((ls + 1.0) * (2.0 * ls + 1.0))
    nw = np.where(live, np.sqrt(ls * (2.0 * ls + 1.0)), 1.0)
    mask = live[..., None].astype(float)
    v, w = (np.empty(y.shape + (3,), dtype=complex) for _ in range(2))
    for arr, radial, norm in ((v, -(ls + 1.0), nv), (w, ls, nw)):
        arr[..., 0] = radial * y / norm
        arr[..., 1] = dy / norm
        arr[..., 2] = 1j * u / norm
        arr *= mask
    return v, w


def _vector_families(ls: np.ndarray, y, dy, u):
    """(X, V, W) from Y, dY/dtheta and mY/sin(theta) at orders ``ls``.

    ``ls`` broadcasts against the scalar arrays; the results carry a trailing
    axis of spherical components (e_r, e_theta, e_phi). Rows with l = 0
    vanish identically. Each family is elementwise in its inputs, so a caller
    that reads only some rows or families forms only those, with
    ``_x_family`` and ``_vw_families``.
    """
    return (_x_family(ls, dy, u), *_vw_families(ls, y, dy, u))


def _check_vector_order(l_max: int) -> int:
    l_max = _check_order(l_max)
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    return l_max


def spherical_harmonics_batch(l_max: int, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, dY/dtheta and mY/sin(theta) for all l <= l_max, |m| <= l, at N directions.

    theta and phi are scalars or 1-D arrays of one length N. Returns three
    complex arrays shaped (N, l_max + 1, 2 l_max + 1) indexed
    [n, l, m + l_max]; entries with |m| > l are zero. The whole batch is
    held at once; ``spherical_harmonics_contract`` is the bounded-memory
    route for many directions.
    """
    l_max = _check_order(l_max)
    theta, phi = _as_angle_arrays(theta, phi)
    a, ab, up, dn = _recurrence_tables(l_max)
    rows = np.zeros((l_max + 1, 2, theta.size, l_max + 1))
    for _ in _legendre_rows(theta, l_max, l_max + 1, a, ab, rows):
        pass
    phases, em, ep = (f[:, None] for f in _phases(phi, l_max))
    return tuple(_complete(rows.transpose(1, 2, 0, 3), phases, em, ep, up, dn))


def spherical_harmonics_block(l_max: int, theta: float, phi: float) -> HarmonicsBlock:
    """Compute Y, dY/dtheta and mY/sin(theta) for all l <= l_max, |m| <= l.

    The N = 1 view of ``spherical_harmonics_batch``.
    """
    theta, phi = _as_angles((theta, phi))
    y, dy, u = spherical_harmonics_batch(l_max, theta, phi)
    return HarmonicsBlock(y.shape[1] - 1, theta, phi, y[0], dy[0], u[0])


def spherical_harmonic(l: int, m: int, point) -> complex:
    """Orthonormal Y_l^m(theta, phi) with the Condon-Shortley phase."""
    l = _check_order(l)
    m = _check_degree(l, m)
    y, _, _ = spherical_harmonics_batch(l, *_as_angles(point))
    return complex(y[0, l, m + l])


def unit_vectors(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local spherical basis (e_r, e_theta, e_phi) as Cartesian rows.

    Array angles give arrays with a trailing axis of 3.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_r = np.stack([st * cp, st * sp, ct], axis=-1)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return e_r, e_theta, e_phi


def spherical_to_cartesian(components: np.ndarray, theta, phi) -> np.ndarray:
    """Rotate (A_r, A_theta, A_phi) components into Cartesian components.

    components has a trailing axis of 3; array angles broadcast against the
    leading axes.
    """
    e_r, e_theta, e_phi = unit_vectors(theta, phi)
    a = np.asarray(components)
    return a[..., 0, None] * e_r + a[..., 1, None] * e_theta + a[..., 2, None] * e_phi


def vector_harmonics_batch(l_max: int, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (X, V, W) triples for l <= l_max at N directions.

    Returns three complex arrays shaped (N, l_max + 1, 2 l_max + 1, 3)
    indexed [n, l, m + l_max, spherical component]; rows with l = 0 or
    |m| > l are zero. The family view of ``spherical_harmonics_batch``.
    """
    l_max = _check_vector_order(l_max)
    y, dy, u = spherical_harmonics_batch(l_max, theta, phi)
    return _vector_families(np.arange(l_max + 1, dtype=float)[:, None], y, dy, u)


def vector_harmonics_block(l_max: int, theta: float, phi: float) -> tuple[np.ndarray, ...]:
    """All (X, V, W) triples for l <= l_max at one direction, in bulk.

    Returns three complex arrays shaped (l_max + 1, 2 l_max + 1, 3) indexed
    [l, m + l_max, spherical component]; rows with l = 0 or |m| > l are zero.
    The N = 1 view of ``vector_harmonics_batch``.
    """
    x, v, w = vector_harmonics_batch(l_max, *_as_angles((theta, phi)))
    return x[0], v[0], w[0]


def spherical_harmonics_contract(l_max: int, theta, phi, weights) -> tuple[np.ndarray, ...]:
    """Weighted sums over m of Y, dY/dtheta and mY/sin(theta) at N directions.

    weights is shaped (K, l_max + 1, 2 l_max + 1) and indexed like a harmonic
    block. Returns three complex arrays shaped (N, K, l_max + 1) holding
    sum_m weights[k, l, m] F[n, l, m] for the three arrays F of
    ``spherical_harmonics_batch``.

    No harmonic block is formed. With M the largest |m| at which any weight
    is nonzero (NaN counts), ``_legendre_rows`` runs over l for a chunk of
    directions on the columns |m| <= M + 1 only (the dY ladder reads column
    m + 1), into a ring of three rows, and each row l whose weights are not
    all zero is completed and contracted as soon as it exists. A chunk holds
    ``chunk_directions(M)`` directions, so memory is O(M) per direction
    whatever N and l_max are, and the work is O(l_max M) per direction. The
    sums equal those over the whole block bit for bit.
    """
    l_max = _check_order(l_max)
    theta, phi = _as_angle_arrays(theta, phi)
    weights = np.asarray(weights, dtype=complex)
    width = 2 * l_max + 1
    if weights.ndim != 3 or weights.shape[1:] != (l_max + 1, width):
        raise DomainError(f"weights must be (K, {l_max + 1}, {width}), got {weights.shape}")
    live = weights != 0
    m_top = int(np.abs(np.flatnonzero(np.any(live, axis=(0, 1))) - l_max).max(initial=0))
    row_live = np.any(live, axis=(0, 2))
    l_stop = int(np.flatnonzero(row_live).max(initial=-1)) + 1
    band = min(m_top + 1, l_max)
    cols = slice(l_max - band, l_max + band + 1)
    a, ab, up, dn = _recurrence_tables(l_max)
    band_weights = weights[:, :, cols]
    n = theta.size
    sums = np.zeros((3, n, weights.shape[0], l_max + 1), dtype=complex)
    step = chunk_directions(m_top)
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        phases, em, ep = _phases(phi[chunk], band)
        ring = np.zeros((3, 2, phases.shape[0], band + 1))
        for l in _legendre_rows(theta[chunk], band, l_stop, a, ab, ring):
            if row_live[l]:
                harm = _complete(ring[l % 3], phases, em, ep, up[l, cols], dn[l, cols])
                sums[:, chunk, :, l] = np.einsum("km,inm->ink", band_weights[:, l], harm)
    return tuple(sums)


def vector_harmonics_contract(l_max: int, theta, phi, weights) -> tuple[np.ndarray, ...]:
    """Weighted sums over m of the (X, V, W) triples at N directions.

    weights as for ``spherical_harmonics_contract``, of which this is the
    family view. Returns three complex arrays shaped (N, K, l_max + 1, 3)
    holding sum_m weights[k, l, m] F[n, l, m, c] for F = X, V, W, equal bit
    for bit to the sums over the whole ``vector_harmonics_batch``.
    """
    l_max = _check_vector_order(l_max)
    sums = spherical_harmonics_contract(l_max, theta, phi, weights)
    return _vector_families(np.arange(l_max + 1, dtype=float), *sums)


def vector_spherical_harmonics(l: int, m: int, point) -> VectorHarmonicTriple:
    """The orthonormal triple (X, V, W) at one direction, spherical basis.

    X is r x grad Y scaled by 1/(i sqrt(l(l+1))) and is purely tangential;
    V and W mix the radial harmonic with the tangential gradient. l = 0 is
    rejected: those solutions vanish identically.
    """
    l = _check_order(l)
    if l < 1:
        raise DomainError("l must be >= 1; the l=0 triple vanishes identically")
    m = _check_degree(l, m)
    x, v, w = vector_harmonics_batch(l, *_as_angles(point))
    return VectorHarmonicTriple(X=x[0, l, m + l], V=v[0, l, m + l], W=w[0, l, m + l])
