"""Stable special functions on the sphere.

Spherical Bessel functions of the first and second kind, orthonormal spherical
harmonics in the Condon-Shortley convention, and the tangential/mixed vector
harmonic triple (X, V, W) expressed on the local spherical basis. There is one
public routine per shape: j_l and y_l sweeps (``spherical_bessel_j``,
``spherical_bessel_y``), one harmonic at N directions
(``spherical_harmonic_at``), every harmonic at N directions
(``spherical_harmonics_batch``), and one value at one direction
(``spherical_harmonic``, ``vector_spherical_harmonics``). Vector families of
a whole batch are ``_vector_families`` of its scalar arrays.

Numerical strategy: both kinds come from one recurrence, f_{l+d} = (2l+1)/x
f_l - f_{l-d} with d = -1 or +1, run by ``_recur`` for one argument and by
``_recur_batch`` for many, the running pair rescaled by a power of two before
it overflows. j_l runs it downward from well above the requested order and is
renormalized against a closed-form anchor (upward recurrence for j_l is
catastrophically unstable for l > x); y_l runs it upward from its closed forms
y_0 and y_1, which is the stable direction. Arguments are capped at
``HARD_CAP_ARGUMENT`` (2^20), which bounds the length of every sweep, and
orders at ``HARD_CAP_LMAX`` (512).

Sweep orders and harmonic degrees, which may be 0, are checked by
``_check_order``. A multipole cutoff l_max is checked by one function,
``_check_cutoff(l_max, reach)``: an integer l_max >= 1 whose sums need
Bessel orders up to l_max + reach <= HARD_CAP_LMAX, with reach 0 for the
plane-wave coefficients and pair sums, 1 for phase tables, radial tables and
mode sums, and 2 for the coupling kernels. ``miecore._resolve_cutoff`` gives
it its default, and every public function that takes l_max runs one of the
two before any angular or Bessel work.

The public sweeps ``spherical_bessel_j`` and ``spherical_bessel_y`` take one
integer order and one argument or a 1-D array of them (an array of orders is
a DomainError); per-argument tops are private to ``_j_scaled``. Each kind has
one route, and one argument is row 0 of the one-argument batch. A j sweep
gives each argument its own sweep, ``_j_one``, below ``BATCH_MIN`` (24)
arguments, and from it on only x = 0 and arguments with series orders; one
``_miller_j_batch`` serves the rest. A y sweep forms its seeds once and runs
``_recur`` per argument, or from ``BATCH_MIN`` on one ``_recur_batch``. A
batched sweep gives each argument the steps, rescalings and anchors of its
own sweep, so every row equals it bit for bit. The pairs
``_recur``/``_recur_batch`` and ``_miller_j``/``_miller_j_batch`` stay apart:
each is faster on the sizes it serves, as a batched step pays numpy's fixed
cost per call. Serving every batch size with the batched Miller sweep took
``_j_scaled(30, 3.0)`` from 24 to 227 us, and a one-q phase table at q = 0.5
from 129 to 428 us (warm minima on one 2-vCPU VM).

Every harmonic comes from one Legendre row recurrence, ``_legendre_rows``: the
whole block of all (l, m) at N directions, or one (l, m) at N directions
(``spherical_harmonic_at``) on the columns |m'| <= |m| + 1 in a ring of three
rows, O(|m|) memory per direction. Angular derivatives of Y_l^m are evaluated
through ladder identities that stay finite at the poles; nothing is
differentiated numerically.
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
    "VectorHarmonicTriple",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_harmonic",
    "spherical_harmonic_at",
    "spherical_harmonics_batch",
    "vector_spherical_harmonics",
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
class VectorHarmonicTriple:
    """X, V, W at one (l, m, theta, phi), components on (e_r, e_theta, e_phi)."""

    X: np.ndarray
    V: np.ndarray
    W: np.ndarray


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


def _check_cutoff(l_max, reach: int) -> int:
    """A multipole cutoff l_max for sums that need Bessel orders up to
    l_max + reach: _check_order, then l_max >= 1 (DomainError), then
    l_max + reach <= HARD_CAP_LMAX (ResourceLimitError naming both)."""
    l_max = _check_order(l_max)
    if l_max < 1:
        raise DomainError("l_max must be >= 1")
    if l_max + reach > HARD_CAP_LMAX:
        raise ResourceLimitError(f"l_max={l_max} needs Bessel order {l_max + reach}, "
                                 f"above the hard cap {HARD_CAP_LMAX}")
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


def _recur(x: float, ls: range, prev: float, cur: float,
           keep: int) -> tuple[list[float], list[int]]:
    """The Bessel recurrence f_{l+d} = (2l+1)/x f_l - f_{l-d} over the steps l
    of ls, d = ls.step = -1 (down) or +1 (up), seeded by (f_{l-d}, f_l) =
    (prev, cur) at the first step. The sweep is the seeds and then the order
    each step forms, as mantissas and powers of two; the pair is rescaled by
    2^-830 before it passes 1e250. Returns the last keep <= len(ls) + 2
    entries of the sweep: the steps before them store nothing, so memory
    grows with keep, not with the length of the sweep.
    """
    head, bits = max(0, len(ls) - keep), 0
    for l in ls[:head]:
        prev, cur = cur, (2 * l + 1) / x * cur - prev
        if not -1e250 <= cur <= 1e250:
            prev *= _RESCALE
            cur *= _RESCALE
            bits += _RESCALE_BITS
    skip = len(ls) + 2 - keep
    mant, exps = [prev, cur][skip:], [0, 0][skip:]
    for l in ls[head:]:
        prev, cur = cur, (2 * l + 1) / x * cur - prev
        if not -1e250 <= cur <= 1e250:
            prev *= _RESCALE
            cur *= _RESCALE
            bits += _RESCALE_BITS
        mant.append(cur)
        exps.append(bits)
    return mant, exps


def _recur_batch(x: np.ndarray, ls: range, starts: np.ndarray, prev: np.ndarray,
                 cur: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """_recur over N arguments at once, as two (keep, N) arrays: column n is
    _recur(x[n], range(starts[n], ls.stop, ls.step), prev[n], cur[n], keep)
    bit for bit, except that a sweep starting inside the kept entries leaves
    0 in the rows of its seeds and above them. The starts come in the order of
    ls from ls.start on, so the arguments under way are a prefix; each joins
    the ring with its seeds at its start and rescales on its own.
    The rescale test runs at each step that a growth bound cannot clear.
    Kept orders are formed in their own rows and a rescale happens in the
    ring, so it never touches a stored order.
    """
    d, n_all = ls.step, x.size
    # live[i]: the arguments under way at step ls[i]
    live = np.searchsorted(d * starts, d * np.arange(ls.start, ls.stop, d), side="right").tolist()
    # entry s of a sweep (the seeds are 0 and 1) sits in row s - skip
    skip = len(ls) + 2 - keep
    out = np.zeros((keep, n_all))
    scale = np.zeros((keep, n_all), dtype=int)
    if skip < 2:
        out[:2 - skip] = (prev, cur)[skip:]
    # orders l - d, l and l + d of step l sit in rows (l - d) % 3, l % 3 and
    # (l + d) % 3 of the ring
    ring = np.empty((3, n_all))
    # size bounds each pair (an argument still at its seeds too), and one
    # step multiplies it by at most 1 + (2l+1)/x, l the largest step; the
    # margin of ten covers the rounding of the steps
    size = np.maximum(np.abs(prev), np.abs(cur))
    log_growth = np.log((2 * max(ls.start, ls.stop - d) + 1) / x + 1.0)
    n, check = 0, 2
    for s, (l, m) in enumerate(zip(ls, live), 2):
        if m > n:
            if n:
                # the pair under way may sit in kept rows; it joins the seeds
                ring[(l - d) % 3, :n] = rows[(l - d) % 3]
                ring[l % 3, :n] = rows[l % 3]
            ring[(l - d) % 3, n:m] = prev[n:m]
            ring[l % 3, n:m] = cur[n:m]
            n = m
            rows, x_n = list(ring[:, :n]), x[:n]
        if s >= skip:
            rows[(l + d) % 3] = out[s - skip, :n]
        cur_l, new = rows[l % 3], rows[(l + d) % 3]
        np.divide(2 * l + 1, x_n, out=new)
        new *= cur_l
        new -= rows[(l - d) % 3]
        if s == check:
            over = np.flatnonzero(np.abs(new) > 1e250)
            if over.size:
                # the running pair rescales in the ring, never in a kept row
                ring[l % 3, :n] = cur_l
                cur_l = rows[l % 3] = ring[l % 3, :n]
                cur_l[over] *= _RESCALE
                new[over] *= _RESCALE
                scale[max(s - skip, 0):, over] += _RESCALE_BITS
            np.maximum(np.abs(cur_l), np.abs(new), out=size[:n])
            steps = np.log(1e249 / np.maximum(size, 1e-30)) / log_growth
            check = s + 1 + max(0, int(steps.min()))
    return out, scale


def _miller_j(l_top: int, x: float) -> tuple[list[float], list[int]]:
    """Unstable-direction-safe j_0..j_{l_top} for x not tiny relative to l_top.

    Returns mantissas and powers of two.
    """
    start = int(max(l_top, math.ceil(x))) + 16 + int(2.0 * math.sqrt(max(l_top, x)))
    mant, exps = _recur(x, range(start, 0, -1), 0.0, 1e-30, l_top + 1)
    # the sweep ends with order 0
    out, scale = mant[::-1], exps[::-1]
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


def _miller_j_batch(tops: np.ndarray, x: np.ndarray, mant: np.ndarray, exps: np.ndarray,
                    rows: np.ndarray) -> None:
    """_miller_j over N arguments at once, written into the zeroed rows
    rows[n] of the (M, width) arrays mant and exps.

    Row rows[n] receives the first width entries of _miller_j(tops[n], x[n])
    bit for bit through its top and stays 0 past it: one _recur_batch over
    the arguments sorted by start, anchored on math.sin and math.cos as the
    scalar sweep is. Only the orders kept (and the anchor orders 0 and 1)
    are stored, so memory does not grow with x.
    """
    width = min(mant.shape[1], int(tops.max()) + 1)
    starts = (np.maximum(tops, np.ceil(x)).astype(int) + 16
              + (2.0 * np.sqrt(np.maximum(tops, x))).astype(int))
    order = np.argsort(-starts, kind="stable")
    starts, tops, x = starts[order], tops[order], x[order]
    n_all = x.size
    out, scale = _recur_batch(x, range(int(starts[0]), 0, -1), starts, np.zeros(n_all),
                              np.full(n_all, 1e-30), max(width, 2))
    # the sweeps end with order 0
    out, scale = out[::-1], scale[::-1]
    sin = np.fromiter(map(math.sin, x.tolist()), float, n_all)
    j0 = sin / x
    use_j1 = ~((x < 1.0) | (np.abs(sin) > 0.1) | (tops == 0))
    cos = np.fromiter(map(math.cos, x.tolist()), float, n_all)
    anchor = np.where(use_j1, sin / (x * x) - cos / x, j0)
    cols, a = np.arange(n_all), use_j1.astype(int)
    pivot = out[a, cols]
    ratio = np.divide(anchor, pivot, out=np.zeros(n_all), where=pivot != 0.0)
    m = out[:width] * ratio
    e = scale[:width] - scale[a, cols]
    m[0], e[0] = j0, 0
    if tops.min() < width - 1:
        past = np.arange(width)[:, None] > tops
        m[past], e[past] = 0.0, 0
    rows = rows[order]
    mant[rows, :width], exps[rows, :width] = m.T, e.T


def _j_one(l_max: int, x: float, mant: np.ndarray, exps: np.ndarray) -> None:
    """The per-argument sweep behind _j_scaled: j_0..j_{l_max} of one checked
    argument, written into the zeroed row (mant, exps) as far as it reaches."""
    if x == 0.0:
        mant[0] = 1.0
        return
    # orders with x < threshold*(l+1) take the series branch
    l_series = l_max + 1
    while l_series > 0 and x < _SERIES_THRESHOLD * l_series:
        l_series -= 1
    if l_series > 0:
        m, e = _miller_j(l_series - 1, x)
        mant[:l_series], exps[:l_series] = m[:mant.size], e[:mant.size]
    for l in range(l_series, min(l_max + 1, mant.size)):
        mant[l], exps[l] = _series_j(l, x)


def _reject(xs: np.ndarray, floor: float):
    """Raise for the first argument outside the sweeps' range."""
    flat = xs.reshape(-1)
    bad = ~np.isfinite(flat) | (flat < floor)
    rule = (f"at least {floor!r} (one upward y_l step overflows below about 5.7e-56)"
            if floor else "non-negative")
    for mask, error, text in ((bad, DomainError, f"must be finite and {rule}"),
                              (flat > HARD_CAP_ARGUMENT, ResourceLimitError,
                               f"exceeds the argument cap {HARD_CAP_ARGUMENT:.0f}")):
        if mask.any():
            n = int(np.argmax(mask))
            name = "x" if xs.ndim == 0 else f"x[{n}]"
            raise error(f"Bessel argument {name}={float(flat[n])!r} {text}")


def _arguments(x, positive: bool) -> np.ndarray:
    """The checked arguments of a sweep as one 1-D array, the whole batch
    before any sweep runs; a scalar x is one argument, and its errors name
    x. positive (the y sweeps) asks for x >= 1e-55: below about 5.7e-56 one
    upward step (2l + 1)/x, l < 512, can carry the rescale threshold 1e250
    past the float range (NaN or untyped errors)."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or xs.size == 0:
        raise DomainError(f"x must be a scalar or a non-empty 1-D array, got shape {xs.shape}")
    low, high = xs.min(), xs.max()
    floor = 1e-55 if positive else 0.0
    # NaN fails both tests
    if not (low >= floor and high <= HARD_CAP_ARGUMENT):
        _reject(xs, floor)
    return xs.reshape(-1)


def _j_scaled(l_max, x, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """j_0(x)..j_{l_max}(x) as mantissas and powers of two.

    j_l = ldexp(mantissa_l, exponent_l), with mantissas inside the float
    range, also where j_l itself underflows. One argument x gives two arrays
    of l_max + 1 entries, row 0 of the one-argument batch. A 1-D array of N
    arguments gives two (N, L + 1) arrays: l_max is then one top or one per
    argument, L is the largest top, and row n equals ``_j_scaled(l_max[n],
    x[n])`` bit for bit through its own top and is exactly 0 past it; width,
    if given, keeps only the first width <= L + 1 columns, and the sweeps
    store no others (a phase table reads orders up to its l_max + 1). Every
    x must be finite, >= 0 and at most ``HARD_CAP_ARGUMENT``, checked over
    the whole batch before any sweep.
    """
    xs = _arguments(x, positive=False)
    if np.ndim(l_max) == 0:
        tops = np.full(xs.size, _check_order(l_max))
    else:
        tops = np.asarray(l_max)
        if tops.shape != xs.shape or tops.dtype.kind not in "iu":
            raise DomainError(f"orders must be one integer or one per argument, got {tops!r}")
        _check_order(int(tops.min()))
        _check_order(int(tops.max()))
    width = int(tops.max()) + 1 if width is None else width
    mant = np.zeros((xs.size, width))
    exps = np.zeros((xs.size, width), dtype=int)
    # the rows of the per-argument sweep (every row below BATCH_MIN) and of
    # the batched one
    if xs.size < BATCH_MIN:
        one, rest = np.arange(xs.size), np.arange(0)
    else:
        series = xs < _SERIES_THRESHOLD * (tops + 1)
        one, rest = np.flatnonzero(series), np.flatnonzero(~series)
    for n, top, v in zip(one.tolist(), tops[one].tolist(), xs[one].tolist()):
        _j_one(top, v, mant[n], exps[n])
    if rest.size:
        _miller_j_batch(tops[rest], xs[rest], mant, exps, rest)
    return (mant[0], exps[0]) if np.ndim(x) == 0 else (mant, exps)


def _y_scaled(l_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """y_0(x)..y_{l_max}(x) by upward recurrence, as mantissas and powers of
    two; the mantissas stay inside the float range, also where y_l overflows.

    One order l_max; arguments as for ``_j_scaled``, and x must be >= 1e-55
    (see ``_arguments``). The seeds y_0 and y_1 come from math.sin and
    math.cos, formed once for the batch.
    """
    xs = _arguments(x, positive=True)
    l_max = _check_order(l_max)
    sin = np.fromiter(map(math.sin, xs.tolist()), float, xs.size)
    cos = np.fromiter(map(math.cos, xs.tolist()), float, xs.size)
    y0 = -cos / xs
    y1 = -cos / (xs * xs) - sin / xs if l_max else y0
    ls = range(1, l_max)
    if xs.size >= BATCH_MIN:
        mant, exps = _recur_batch(xs, ls, np.ones(xs.size, dtype=int), y0, y1, l_max + 1)
        mant, exps = mant.T.copy(), exps.T.copy()
    else:
        mant = np.empty((xs.size, l_max + 1))
        exps = np.empty((xs.size, l_max + 1), dtype=int)
        for n, (v, prev, cur) in enumerate(zip(xs.tolist(), y0.tolist(), y1.tolist())):
            mant[n], exps[n] = _recur(v, ls, prev, cur, l_max + 1)
    return (mant[0], exps[0]) if np.ndim(x) == 0 else (mant, exps)


def spherical_bessel_j(l_max: int, x) -> np.ndarray:
    """Spherical Bessel functions j_0(x)..j_{l_max}(x) for one integer order
    0 <= l_max <= HARD_CAP_LMAX and 0 <= x <= HARD_CAP_ARGUMENT; a 1-D array
    of x gives one row per argument. An array of orders is a DomainError."""
    if np.ndim(l_max):
        raise DomainError(f"order={l_max} must be an integer")
    return np.ldexp(*_j_scaled(l_max, x))


def spherical_bessel_y(l_max: int, x) -> np.ndarray:
    """Spherical Bessel functions y_0(x)..y_{l_max}(x) for one integer order
    0 <= l_max <= HARD_CAP_LMAX and 1e-55 <= x <= HARD_CAP_ARGUMENT; -inf
    past the float range; a 1-D array of x gives one row per argument. An
    array of orders is a DomainError."""
    with np.errstate(over="ignore"):
        return np.ldexp(*_y_scaled(l_max, x))


# Values per order l of one chunk of spherical_harmonic_at: the chunk's
# directions times the 2 band + 1 columns |m'| <= band that it completes.
# Large enough to amortize the per-l loop, small enough that a chunk's rows
# stay well under a megabyte.
CHUNK_VALUES = 2**13


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
    return theta, _wrap_phi(phi)


def _wrap_phi(phi):
    """An azimuth, a float or an array, wrapped into [0, 2 pi). A tiny
    negative phi rounds up to 2 pi itself, which is 0."""
    phi = phi % (2.0 * math.pi)
    return phi * (phi != 2.0 * math.pi)


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
    # (l - m)(l + m + 1) is +0.0 or negative outside -l <= m <= l - 1
    up = np.sqrt(np.maximum((ls - m) * (ls + m + 1.0), 0.0))
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
                   ab: np.ndarray, rows: np.ndarray) -> None:
    """Write the Legendre row (p, u) of each order l < l_stop, columns
    m = 0..band, into rows[l % len(rows)].

    Y_l^m = p e^{i m phi} and u = m p / sin(theta), as in ``_legendre_seeds``.
    rows holds every row (the whole block) or a ring of three, which ends
    holding the last three orders (one harmonic, ``spherical_harmonic_at``).
    Columns m < l come from the recurrence; at m = l - 1 its two-back term
    is 0.0 times 0.0, and it starts at l = 2 (with two rows, l = 1 would
    read the row it writes). Column l is the seed; columns m > l keep their
    zeros, which a ring's row l had as row l - 3.
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
    beyond them: exact where c is at least the row's order l, whose
    neighbour beyond column l vanishes; below that, the caller does not
    read those columns.
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
    _legendre_rows(np.array([float(theta)]), l_max, l_max + 1, a, ab, rows)
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


def spherical_harmonics_batch(l_max: int, theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, dY/dtheta and mY/sin(theta) for all l <= l_max, |m| <= l, at N directions.

    theta and phi are scalars or 1-D arrays of one length N. Returns three
    complex arrays shaped (N, l_max + 1, 2 l_max + 1) indexed
    [n, l, m + l_max]; entries with |m| > l are zero. The whole batch is
    held at once; ``spherical_harmonic_at`` gives one (l, m) at many
    directions in bounded memory.
    """
    l_max = _check_order(l_max)
    theta, phi = _as_angle_arrays(theta, phi)
    a, ab, up, dn = _recurrence_tables(l_max)
    rows = np.zeros((l_max + 1, 2, theta.size, l_max + 1))
    _legendre_rows(theta, l_max, l_max + 1, a, ab, rows)
    phases, em, ep = (f[:, None] for f in _phases(phi, l_max))
    return tuple(_complete(rows.transpose(1, 2, 0, 3), phases, em, ep, up, dn))


def spherical_harmonic_at(l: int, m: int, theta, phi) -> np.ndarray:
    """Y_l^m, dY_l^m/dtheta and m Y_l^m / sin(theta) at N directions, (3, N).

    theta and phi are scalars or 1-D arrays of one length N. Column n
    equals the [n, l, m + l] entries of ``spherical_harmonics_batch(l,
    theta, phi)`` bit for bit (a larger l_max gives equal values, but at
    |m| = l its dY/dtheta can be a zero of the other sign at the poles).
    ``_legendre_rows`` runs on the columns |m'| <= |m| + 1 only (the dY
    ladder reads column |m| + 1), into a ring of three rows, over chunks of
    CHUNK_VALUES // (2 band + 1) directions, and only row l is completed:
    memory is O(|m|) per direction whatever N is, and the work is O(l |m|)
    per direction.
    """
    l = _check_order(l)
    m = _check_degree(l, m)
    theta, phi = _as_angle_arrays(theta, phi)
    band = min(abs(m) + 1, l)
    a, ab, up, dn = _recurrence_tables(l)
    cols = slice(l - band, l + band + 1)
    out = np.empty((3, theta.size), dtype=complex)
    step = max(1, CHUNK_VALUES // (2 * band + 1))
    for start in range(0, theta.size, step):
        chunk = slice(start, start + step)
        phases, em, ep = _phases(phi[chunk], band)
        ring = np.zeros((3, 2, phases.shape[0], band + 1))
        _legendre_rows(theta[chunk], band, l + 1, a, ab, ring)
        out[:, chunk] = _complete(ring[l % 3], phases, em, ep, up[l, cols], dn[l, cols])[..., band + m]
    return out


def _at_point(l: int, m: int, point) -> np.ndarray:
    """spherical_harmonic_at at the one direction point = (theta, phi), (3, 1)."""
    out = spherical_harmonic_at(l, m, *point)
    if out.shape[1] != 1:
        raise DomainError(f"point must be one (theta, phi) pair, got {out.shape[1]} directions")
    return out


def spherical_harmonic(l: int, m: int, point) -> complex:
    """Orthonormal Y_l^m(theta, phi) with the Condon-Shortley phase, at the
    pair point = (theta, phi)."""
    return complex(_at_point(l, m, point)[0, 0])


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


def _dot(a, b):
    """Unconjugated a . b over a trailing axis of 3, in an order no batch changes."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _pi_rows(mu, l_max: int) -> np.ndarray:
    """pi_l(mu) = P_l'(mu) (Bohren & Huffman 1983, sec. 4.4) for l = -1..l_max
    by the three-term recurrence, O(l_max) per entry of mu, in rows l + 1:
    rows 0 and 1 hold pi_{-1} = pi_0 = 0. No entry depends on the others."""
    pi = np.zeros((l_max + 2,) + np.shape(mu))
    pi[2] = 1.0
    for l in range(2, l_max + 1):
        pi[l + 1] = ((2 * l - 1) * mu * pi[l] - l * pi[l - 1]) / (l - 1)
    return pi


def _pair_sums(n, n_prime, e, e_prime, l_max: int, conjugate: bool = False) -> np.ndarray:
    """sum_m conj(c^p_lm(n, e)) c^p_lm(n', e') for pairs of plane waves,
    indexed [..., p, l] (p = 0 for TE), from pi_l and tau_l at cos(Theta) =
    n . n' (Bohren & Huffman 1983, sec. 4.4; no Condon-Shortley sign) and
    the frame e_perp = n' x n / |n' x n|, e_par = e_perp x n, e_par' =
    e_perp x n': TE (2l + 1) / (4 pi l (l + 1)) (tau_l (e* . e_perp)(e_perp
    . e') + pi_l (e* . e_par)(e_par' . e')), TM with pi_l and tau_l swapped.
    conjugate pairs c*(n) with c*(n') at mirrored m: e' conjugated, TE
    times (-1)^l and TM times -(-1)^l. Unit directions n, n' and
    polarizations e, e' are (..., 3) arrays that broadcast together; no
    entry depends on the rest of its batch. The angle and the frame read
    the chord n' - s n, s = sign(n . n'), exact for nearly (anti)parallel
    pairs; at n' = +-n it gives cos(Theta) = s exactly, hence the closed
    forms pi_l = s^(l+1) l (l+1) / 2 and tau_l = s pi_l, and any e_perp
    orthogonal to n' serves: n' x its least aligned axis.
    """
    l_max = _check_cutoff(l_max, 0)
    n, n_prime = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(n_prime, dtype=float))
    sign = np.where(_dot(n, n_prime) < 0.0, -1.0, 1.0)
    chord = n_prime - sign[..., None] * n
    mu = sign * (1.0 - 0.5 * _dot(chord, chord))
    perp = np.cross(chord, n)
    # parallel to within 1.5e-154: |n' x n|^2 is 0 or subnormal
    flat = _dot(perp, perp) < np.finfo(float).tiny
    if flat.any():
        perp[flat] = np.cross(n_prime[flat], np.eye(3)[np.argmin(np.abs(n_prime[flat]), axis=-1)])
    e_perp = perp / np.sqrt(_dot(perp, perp))[..., None]
    pi = _pi_rows(mu, l_max)
    ls = np.arange(l_max + 1.0).reshape((-1,) + (1,) * mu.ndim)
    tau = np.moveaxis(ls * mu * pi[1:] - (ls + 1.0) * pi[:-1], 0, -1)
    pi = np.moveaxis(pi[1:], 0, -1)
    e_star, e_prime = np.conj(e), np.conj(e_prime) if conjugate else e_prime
    a = (_dot(e_star, e_perp) * _dot(e_perp, e_prime))[..., None]
    b = (_dot(e_star, np.cross(e_perp, n)) * _dot(np.cross(e_perp, n_prime), e_prime))[..., None]
    ls = np.arange(l_max + 1)
    # row l = 0 is 0, as pi_0 = tau_0 = 0
    norm = (2 * ls + 1) / (4.0 * math.pi * np.maximum(ls * (ls + 1), 1))
    te = np.where(ls % 2 == 0, norm, -norm) if conjugate else norm
    tm = -te if conjugate else norm
    return np.stack([te * (tau * a + pi * b), tm * (pi * a + tau * b)], axis=-2)


def vector_spherical_harmonics(l: int, m: int, point) -> VectorHarmonicTriple:
    """The orthonormal triple (X, V, W) at one direction, spherical basis.

    X is r x grad Y scaled by 1/(i sqrt(l(l+1))) and is purely tangential;
    V and W mix the radial harmonic with the tangential gradient. l = 0 is
    rejected: those solutions vanish identically.
    """
    l = _check_order(l)
    if l < 1:
        raise DomainError("l must be >= 1; the l=0 triple vanishes identically")
    x, v, w = _vector_families(np.array([float(l)]), *_at_point(l, m, point))
    return VectorHarmonicTriple(X=x[0], V=v[0], W=w[0])
