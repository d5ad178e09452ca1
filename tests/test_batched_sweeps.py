"""Batched Bessel sweeps: every row equals the scalar sweep byte for byte.

The batched recurrences in ``specfun`` are one definition with the scalar
sweeps, not a second implementation: mantissas are compared as int64 views
and exponents exactly. The callers that switched to them are guarded by
counting the scalar kernels they still call.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import bogoliubov, cli, modes, specfun
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import SphereSpec, phase_table

BATCH = specfun.BATCH_MIN

# x in [1e-3, 400]: for small x and high tops the sweeps rescale
MILLER_X = st.floats(1e-3, 400.0)
# below 1e-6 (l + 1) some orders take the series branch
SERIES_X = st.floats(1e-12, 5e-4)
J_ARGS = st.one_of(MILLER_X, MILLER_X, MILLER_X, SERIES_X, st.just(0.0))
TOPS = st.integers(0, specfun.HARD_CAP_LMAX - 1)


def assert_rows_equal(got, ref):
    """Mantissas as int64 views and exponents, row by row."""
    (m, e), (rm, re_) = got, ref
    assert m.dtype == np.float64 and rm.dtype == np.float64
    assert np.array_equal(m.view(np.int64), rm.view(np.int64))
    assert np.array_equal(e, re_)


def scalar_j(tops, xs):
    """The scalar sweeps, each row through its own top and 0 past it."""
    width = int(max(tops)) + 1
    mant, exps = np.zeros((len(xs), width)), np.zeros((len(xs), width), dtype=int)
    for row, (t, x) in enumerate(zip(tops, xs)):
        mant[row, :t + 1], exps[row, :t + 1] = specfun._j_scaled(int(t), float(x))
    return mant, exps


def scalar_y(top, xs):
    rows = [specfun._y_scaled(top, float(x)) for x in xs]
    return np.array([m for m, _ in rows]), np.array([e for _, e in rows])


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(J_ARGS, TOPS), min_size=BATCH, max_size=BATCH + 40))
def test_j_batch_rows_equal_scalar_sweeps(pairs):
    xs = np.array([x for x, _ in pairs])
    tops = np.array([t for _, t in pairs])
    assert_rows_equal(specfun._j_scaled(tops, xs), scalar_j(tops, xs))
    # one top for all
    top = int(tops.max())
    assert_rows_equal(specfun._j_scaled(top, xs), scalar_j([top] * xs.size, xs))


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(MILLER_X, min_size=BATCH, max_size=BATCH + 40),
       top=st.integers(0, specfun.HARD_CAP_LMAX))
def test_y_batch_rows_equal_scalar_sweeps(xs, top):
    xs = np.array(xs)
    assert_rows_equal(specfun._y_scaled(top, xs), scalar_y(top, xs))


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.floats(1e-3, 1.0), min_size=BATCH, max_size=BATCH + 20),
       top=st.integers(400, specfun.HARD_CAP_LMAX))
def test_y_batch_near_overflow(xs, top):
    # y_l passes the float range for these l >> x; the mantissas rescale
    xs = np.array(xs)
    got = specfun._y_scaled(top, xs)
    assert_rows_equal(got, scalar_y(top, xs))
    assert got[1].max() > 0
    with np.errstate(over="ignore"):
        assert np.isinf(specfun.spherical_bessel_y(top, xs)[:, -1]).all()


def test_rescaled_and_mixed_batch():
    # small x with the top order rescale both sweeps; series arguments, x = 0
    # and ordinary arguments share one batch with per-argument tops
    xs = np.concatenate([np.geomspace(1e-3, 1.0, BATCH), [0.0, 1e-9, 2e-4, 37.5, 399.0]])
    tops = np.resize([511, 300, 17, 3, 0, 250], xs.size)
    j = specfun._j_scaled(tops, xs)
    assert_rows_equal(j, scalar_j(tops, xs))
    full = specfun._j_scaled(511, xs)
    assert_rows_equal(full, scalar_j([511] * xs.size, xs))
    assert full[1].min() < 0
    y = specfun._y_scaled(511, xs[xs > 0])
    assert_rows_equal(y, scalar_y(511, xs[xs > 0]))
    assert y[1].max() > 0


@pytest.mark.parametrize("n", [BATCH - 1, BATCH])
def test_both_sides_of_the_switch_agree(n):
    xs = np.linspace(0.05, 60.0, n)
    assert_rows_equal(specfun._j_scaled(90, xs), scalar_j([90] * n, xs))
    assert_rows_equal(specfun._y_scaled(90, xs), scalar_y(90, xs))
    assert np.array_equal(specfun.spherical_bessel_j(90, xs),
                          np.array([specfun.spherical_bessel_j(90, x) for x in xs]))


def test_order_validation():
    xs = np.linspace(1.0, 2.0, BATCH)
    with pytest.raises(DomainError, match="one per argument"):
        specfun._j_scaled(np.arange(3), xs)
    with pytest.raises(ResourceLimitError):
        specfun._j_scaled(np.full(BATCH, 513), xs)
    with pytest.raises(DomainError, match="non-empty 1-D"):
        specfun._y_scaled(3, np.empty(0))


# ---------------------------------------------------- the shared recurrence

@st.composite
def recurrences(draw):
    """One batched sweep: its steps in either direction, staggered starts in
    the order of the steps, seeds, and a kept tail that every argument's
    sweep reaches (with the seeds when every argument starts first)."""
    d = draw(st.sampled_from([-1, 1]))
    steps = draw(st.integers(0, 120))
    first = draw(st.integers(steps, 300)) if d < 0 else draw(st.integers(0, 200))
    n = draw(st.integers(1, 40))
    lags = sorted(draw(st.lists(st.integers(0, steps), min_size=n, max_size=n)))
    lags[0] = 0
    keep = draw(st.integers(0, steps + 2 if lags[-1] == 0 else steps - lags[-1]))
    x = draw(st.lists(st.floats(1e-3, 400.0), min_size=n, max_size=n))
    seeds = st.one_of(st.just(0.0), st.floats(-1e200, 1e200, allow_subnormal=False))
    prev = draw(st.lists(seeds, min_size=n, max_size=n))
    cur = draw(st.lists(seeds, min_size=n, max_size=n))
    return (np.array(x), range(first, first + d * steps, d), first + d * np.array(lags),
            np.array(prev), np.array(cur), keep)


def scalar_recur(x, ls, starts, prev, cur, keep):
    """The last keep entries of _recur per argument, as (keep, N) arrays."""
    rows = [specfun._recur(float(x[n]), range(int(starts[n]), ls.stop, ls.step),
                           float(prev[n]), float(cur[n]), keep) for n in range(x.size)]
    return (np.array([m for m, _ in rows], dtype=float).reshape(x.size, keep).T,
            np.array([e for _, e in rows], dtype=int).reshape(x.size, keep).T)


@settings(max_examples=150, deadline=None)
@given(sweep=recurrences())
def test_recur_batch_columns_equal_scalar_recurrences(sweep):
    assert_rows_equal(specfun._recur_batch(*sweep), scalar_recur(*sweep))


@pytest.mark.parametrize("top", [0, 1, 2])
def test_recur_batch_keeps_the_seeds_of_a_short_sweep(top):
    # the y sweeps of tops 0, 1 and 2: the seeds and at most one step
    x = np.linspace(0.5, 3.0, 5)
    sweep = (x, range(1, top), np.ones(5, dtype=int), -np.cos(x) / x, np.sin(x), top + 1)
    got = specfun._recur_batch(*sweep)
    assert got[0].shape == (top + 1, 5)
    assert_rows_equal(got, scalar_recur(*sweep))


@pytest.mark.parametrize("d", [-1, 1])
def test_recur_batch_rescales_each_argument_at_its_own_steps(d):
    # each argument rescales at other steps, most of them inside the kept
    # rows, where rescaling a stored order in place would break the match
    x = np.geomspace(1e-3, 2.0, BATCH)
    ls = range(400, 0, -1) if d < 0 else range(1, 400)
    starts = ls.start + d * np.arange(BATCH)
    seeds = np.full(BATCH, 1e-30), np.full(BATCH, 1e-29)
    got = specfun._recur_batch(x, ls, starts, *seeds, 300)
    assert_rows_equal(got, scalar_recur(x, ls, starts, *seeds, 300))
    steps_rescaled = [np.flatnonzero(np.diff(column)).tolist() for column in got[1].T]
    assert all(steps_rescaled[:-1])
    assert len({tuple(s) for s in steps_rescaled}) > BATCH // 2


def whole_sweep(x, ls, prev, cur):
    """The recurrence storing every entry of its sweep, as _recur did before
    it kept only the tail its caller reads."""
    mant, exps, bits = [prev, cur], [0, 0], 0
    for l in ls:
        prev, cur = cur, (2 * l + 1) / x * cur - prev
        if not -1e250 <= cur <= 1e250:
            prev *= 2.0 ** -830
            cur *= 2.0 ** -830
            bits += 830
        mant.append(cur)
        exps.append(bits)
    return mant, exps


@settings(max_examples=150, deadline=None)
@given(sweep=recurrences())
def test_recur_keeps_the_tail_of_the_whole_sweep_bit_for_bit(sweep):
    x, ls, starts, prev, cur, keep = sweep
    for n in range(x.size):
        args = (float(x[n]), range(int(starts[n]), ls.stop, ls.step), float(prev[n]),
                float(cur[n]))
        mant, exps = whole_sweep(*args)
        got_mant, got_exps = specfun._recur(*args, keep)
        assert np.array_equal(np.array(got_mant, dtype=float).view(np.int64),
                              np.array(mant[len(mant) - keep:], dtype=float).view(np.int64))
        assert got_exps == exps[len(exps) - keep:]


def test_long_scalar_j_sweep_stores_only_the_orders_it_keeps():
    # a sweep from x = 2^20 takes about a million steps; stored, its orders
    # would raise the peak RSS by about 48 MB
    code = ("import resource; from qmie import specfun; specfun.spherical_bessel_j(3, 1e3); "
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "specfun.spherical_bessel_j(3, 2.0 ** 20); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # ru_maxrss counts KiB on Linux and bytes on macOS
    unit = 1 if sys.platform == "darwin" else 1024
    assert int(proc.stdout) * unit < 5 * 2**20


# ----------------------------------------------------------- argument range

@pytest.mark.parametrize("sweep", [specfun.spherical_bessel_j, specfun.spherical_bessel_y])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_argument_is_a_domain_error(sweep, bad):
    with pytest.raises(DomainError, match="finite"):
        sweep(3, bad)


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-200, 1e-160, 5.6e-56, np.nextafter(1e-55, 0.0)])
@pytest.mark.parametrize("batched", [False, True])
def test_y_below_its_floor_is_a_domain_error(x, batched):
    # below about 5.7e-56 one upward step can overflow, and below about
    # 1.5e-162 x * x underflows: NaN, ZeroDivisionError or OverflowError
    # before the floor
    arg = np.full(BATCH + 1, 1.0) if batched else x
    if batched:
        arg[3] = x
    with pytest.raises(DomainError, match=r"at least 1e-55"):
        specfun.spherical_bessel_y(5, arg)


@pytest.mark.parametrize("top", [1, 2, 5, 40, specfun.HARD_CAP_LMAX])
def test_y_from_its_floor_up_is_finite_at_every_order(top):
    # every alignment of the rescale steps: many arguments just above the
    # floor, where one step multiplies by up to 1023 / x
    xs = np.concatenate([np.geomspace(1e-55, 2e-55, 40), np.geomspace(1e-55, 1e-40, 40)])
    with np.errstate(all="raise"):
        mant, exps = specfun._y_scaled(top, xs)
    assert np.all(np.isfinite(mant)) and np.all(mant < 0.0)
    # y_l(x) -> -(2l - 1)!! / x^(l + 1) as x -> 0
    ls = np.arange(top + 1)
    log2_lead = np.cumsum(np.log2(np.maximum(2 * ls - 1, 1))) - np.outer(np.log2(xs), ls + 1)
    assert np.max(np.abs(np.log2(-mant) + exps - log2_lead)) < 1e-10
    for n in (0, 41):
        assert_rows_equal((mant[n:n + 1], exps[n:n + 1]),
                          tuple(a[None] for a in specfun._y_scaled(top, float(xs[n]))))


@pytest.mark.parametrize("sweep", [specfun.spherical_bessel_j, specfun.spherical_bessel_y])
def test_argument_cap_bounds_the_sweep(sweep):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="argument cap"):
        sweep(3, 1e300)
    with pytest.raises(ResourceLimitError, match="argument cap"):
        sweep(3, np.nextafter(specfun.HARD_CAP_ARGUMENT, math.inf))
    assert time.perf_counter() - start < 1.0
    assert np.isfinite(sweep(3, specfun.HARD_CAP_ARGUMENT)).all()


def test_batch_is_checked_whole_before_any_sweep(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a sweep ran before the batch was checked")

    for name in ("_j_one", "_miller_j", "_miller_j_batch", "_recur", "_recur_batch"):
        monkeypatch.setattr(specfun, name, forbidden)
    xs = np.linspace(1.0, 2.0, BATCH + 5)
    xs[7], xs[9] = 1e7, math.nan
    with pytest.raises(DomainError, match=r"x\[9\]=nan"):
        specfun._j_scaled(4, xs)
    xs[9] = 1.0
    with pytest.raises(ResourceLimitError, match=r"x\[7\]=10000000.0"):
        specfun._y_scaled(4, xs)


# -------------------------------------------------------------- the callers

@pytest.fixture
def scalar_sweeps(monkeypatch):
    """Counts the per-argument recurrences, one per argument swept: j runs
    _recur downward, y upward."""
    calls = {"j": 0, "y": 0}
    recur = specfun._recur

    def counted(x, ls, *args):
        calls["j" if ls.step < 0 else "y"] += 1
        return recur(x, ls, *args)

    monkeypatch.setattr(specfun, "_recur", counted)
    return calls


# one operation of each CLI command at the sizes of the benchmark's workloads
BENCHMARK_COMMANDS = [
    ["phase-shifts", "--epsilon", "2.1", "--q", "200"],
    ["palpha-scan", "--epsilon", "2.1", "--q-min", "0.5", "--q-max", "12", "--q-steps", "400",
     "--channels", "TM:1,TM:2,TM:3,TM:4,TM:5,TE:1,TE:2,TE:3,TE:4,TE:5"],
    ["cross-section", "--epsilon", "2.1", "--q", "150"],
    ["diff-cross-section", "--epsilon", "2.1", "--q", "20", "--g", "1", "--detector-phi", "1"],
    ["field-map", "--epsilon", "2.1", "--q", "3.4", "--channel", "TM:1"],
    ["g2-map", "--epsilon", "2.1", "--k", "3", "--n-phi", "64"],
    ["bogoliubov", "--epsilon", "2.1", "--kind", "B", "--k", "5", "--kp-min", "3",
     "--kp-max", "9", "--kp-steps", "7", "--kp-theta", "1", "--kp-phi", "0.7",
     "--g", "1", "--gp", "2"],
]


def test_public_sweeps_get_one_integer_order_from_every_command(tmp_path, monkeypatch):
    # the layer tracer of perfbench counts a public sweep's orders as
    # int(order) + 1, which an array of per-argument tops breaks
    orders = []
    for name in ("spherical_bessel_j", "spherical_bessel_y"):
        sweep = getattr(specfun, name)

        def spy(l_max, x, _sweep=sweep, _name=name):
            orders.append((_name, l_max))
            return _sweep(l_max, x)

        monkeypatch.setattr(specfun, name, spy)
    for n, argv in enumerate(BENCHMARK_COMMANDS):
        assert cli.main(argv + ["-o", str(tmp_path / f"{n}.csv")]) == 0, argv[0]
    assert orders
    assert [(name, l_max) for name, l_max in orders if type(l_max) is not int] == []


def test_field_map_radial_tables_sweep_no_radius_alone(scalar_sweeps):
    # the radii of a default 41 x 41 field-map grid
    spec, k = SphereSpec(2.1, 1.0), 3.4
    ticks = np.linspace(-4.0, 4.0, 41)
    r = np.hypot(*np.meshgrid(ticks, ticks)).ravel()
    for l in (1, 2):
        modes._radial_tables(spec, k, r, l, "outgoing", "full")
    # only the single-q phase table of each call: j, y at q and j at sqrt(eps) q
    assert scalar_sweeps == {"j": 4, "y": 2}


def test_phase_table_sweeps(scalar_sweeps):
    spec = SphereSpec(2.1, 1.0)
    phase_table(spec, np.linspace(0.49, 12.05, 400), 5)
    assert scalar_sweeps == {"j": 0, "y": 0}
    phase_table(spec, 3.4, 5)
    assert scalar_sweeps == {"j": 2, "y": 1}


def test_overlaps_sweep_once_per_distinct_argument(scalar_sweeps):
    bogoliubov._overlaps(5, 3.0, 3.0, 1.0, 1e-11)
    assert scalar_sweeps == {"j": 1, "y": 0}
    bogoliubov._overlaps(5, 3.0, 3.0 * (1 + 1e-6), 1.0, 1e-11)
    assert scalar_sweeps == {"j": 3, "y": 0}

