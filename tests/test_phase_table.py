"""The array-valued phase table: overflow safety, oracles, row views."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmie import specfun
from qmie.errors import DegenerateChannelError, DomainError, ResourceLimitError
from qmie.miecore import (
    Q_FLOOR,
    ChannelIndex,
    SphereSpec,
    mie_boundary_coefficients,
    phase_shift,
    phase_table,
    truncation_order,
)
from qmie.observables import s_matrix_channels
from mie_oracle import mie_ab

FIELDS = ("alpha", "beta", "gamma", "sin_phi", "cos_phi", "phi")


@settings(max_examples=60, deadline=None)
@given(q=st.floats(1e-6, 400.0), eps=st.floats(1.0, 10.0))
def test_table_finite_and_unitary_for_every_order(q, eps):
    spec = SphereSpec(eps, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(spec, q, 511)
        channels = s_matrix_channels(spec, q, 511)
    for name in FIELDS:
        assert np.all(np.isfinite(getattr(t, name))), name
    assert np.max(np.abs(t.cos_phi**2 + t.sin_phi**2 - 1.0)) < 1e-14
    assert max(abs(abs(ch.value) - 1.0) for ch in channels) < 1e-14


@settings(max_examples=80, deadline=None)
@given(q=st.floats(1e-6, 400.0), eps=st.floats(1.0, 1e3), l_max=st.integers(1, 511))
@example(q=1e-6, eps=1e3, l_max=511)
@example(q=400.0, eps=1e3, l_max=511)
def test_phase_finite_and_unitary_up_to_eps_1e3(q, eps, l_max):
    # above eps = 10 alpha may overflow and gamma underflow at high l (see
    # the README's valid ranges); the phase shift itself stays finite and
    # S = e^{-2 i phi} unimodular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(SphereSpec(eps, 1.0), q, l_max)
    for name in ("sin_phi", "cos_phi", "phi"):
        assert np.all(np.isfinite(getattr(t, name))), name
    s = (t.cos_phi - 1j * t.sin_phi) ** 2
    assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-14


@pytest.mark.parametrize("eps", [1.5, 2.1, 4.0, 10.0])
@pytest.mark.parametrize("q", [0.1, 0.5, 2.0, 10.0, 37.0])
def test_table_rows_match_classical_oracle(eps, q):
    # every order far past q where the oracle holds 1e-10 itself: its TE
    # numerator cancels for l >> q, so values below 1e-30 go to the mpmath
    # test below
    t = phase_table(SphereSpec(eps, 1.0), q, 300)
    with np.errstate(all="ignore"):
        a, b = mie_ab(math.sqrt(eps), q, 300)
    for p, coef in ((0, b), (1, a)):
        ref = np.abs(coef) ** 2
        keep = np.isfinite(ref) & (ref > 1e-30)
        np.testing.assert_allclose(t.sin_phi[p, 1:][keep] ** 2, ref[keep], rtol=1e-10)


def _mp_sin2(eps, q, l, p):
    """|a_l|^2 (TM) or |b_l|^2 (TE) at 50 digits."""
    with mp.workdps(50):
        m, x = mp.sqrt(mp.mpf(eps)), mp.mpf(q)

        def j(n, z):
            return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(n + mp.mpf(1) / 2, z)

        def h(n, z):
            return j(n, z) + 1j * mp.sqrt(mp.pi / (2 * z)) * mp.bessely(n + mp.mpf(1) / 2, z)

        def riccati(f, z):
            return z * f(l, z), z * f(l - 1, z) - l * f(l, z)

        psi, dpsi = riccati(j, x)
        psi_m, dpsi_m = riccati(j, m * x)
        xi, dxi = riccati(h, x)
        if p == "TM":
            coef = (m * psi_m * dpsi - psi * dpsi_m) / (m * psi_m * dxi - xi * dpsi_m)
        else:
            coef = (psi_m * dpsi - m * psi * dpsi_m) / (psi_m * dxi - m * xi * dpsi_m)
        return float(abs(coef) ** 2)


@pytest.mark.parametrize("eps,q,p,l", [
    (1.5, 1e-6, "TE", 7), (1.5, 1e-6, "TM", 9), (2.1, 0.5, "TE", 39), (2.1, 0.5, "TM", 60),
    (4.0, 1e-3, "TM", 60), (10.0, 37.0, "TE", 160),
])
def test_table_accurate_where_bessel_values_leave_float_range(eps, q, p, l):
    # y_l(q) overflows or j_l(q) underflows here, yet sin^2 phi is a normal float
    got = phase_shift(SphereSpec(eps, 1.0), q, ChannelIndex(p, l)).sin_phi ** 2
    assert got == pytest.approx(_mp_sin2(eps, q, l, p), rel=1e-12)


@pytest.mark.parametrize("q", [1e-6, 0.5, 37.0, 400.0])
def test_transparent_sphere_rows_are_exactly_neutral(q):
    t = phase_table(SphereSpec(1.0, 1.0), q, 511)
    for name, value in zip(FIELDS, (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)):
        assert np.all(getattr(t, name) == value), name


def test_channel_far_past_q_is_finite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = phase_shift(SphereSpec(2.1, 1.0), 0.5, ChannelIndex("TM", 150))
    assert all(math.isfinite(v) for v in (rec.alpha_l, rec.beta_l, rec.gamma_l,
                                          rec.cos_phi, rec.sin_phi, rec.phi))
    assert abs(rec.sin_phi) < 1e-300
    assert rec.cos_phi == 1.0


@pytest.mark.parametrize("q", [0.5, 3.4, 37.2, 200.3])
def test_scalar_views_are_table_rows(q):
    # rows up to q's own cutoff do not depend on l_max, so the per-channel
    # views agree bit for bit with the default-cutoff table
    spec = SphereSpec(2.1, 1.0)
    l_max = truncation_order(q)
    t = phase_table(spec, q, l_max)
    for l in sorted({1, 2, l_max // 2, l_max}):
        for i, p in enumerate(("TE", "TM")):
            rec = phase_shift(spec, q, ChannelIndex(p, l))
            assert (rec.alpha_l, rec.beta_l, rec.gamma_l, rec.cos_phi, rec.sin_phi, rec.phi) == \
                tuple(getattr(t, name)[i, l] for name in
                      ("alpha", "beta", "gamma", "cos_phi", "sin_phi", "phi"))
            assert mie_boundary_coefficients(spec, q, ChannelIndex(p, l)) == \
                (t.alpha[i, l], t.beta[i, l])


def test_coefficients_equal_plain_bessel_products():
    # the power-of-two bookkeeping changes no bit where nothing over- or underflows
    spec, q = SphereSpec(2.1, 1.0), 3.0
    l_max = truncation_order(q)
    t = phase_table(spec, q, l_max)
    qp = math.sqrt(2.1) * q
    j = specfun.spherical_bessel_j(l_max + 1, q)
    y = specfun.spherical_bessel_y(l_max + 1, q)
    ji = specfun.spherical_bessel_j(l_max + 1, qp)
    l = np.arange(1, l_max + 1)
    alpha_te = (q * qp) * (ji[l + 1] * y[l]) - (q * q) * (ji[l] * y[l + 1])
    beta_te = (q * q) * (ji[l] * j[l + 1]) - (q * qp) * (ji[l + 1] * j[l])
    assert np.array_equal(t.alpha[0, 1:], alpha_te)
    assert np.array_equal(t.beta[0, 1:], beta_te)


def test_table_shape_and_neutral_row():
    t = phase_table(SphereSpec(2.1, 1.0), 2.0, 7)
    for name, value in zip(FIELDS, (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)):
        arr = getattr(t, name)
        assert arr.shape == (2, 8)
        assert np.all(arr[:, 0] == value)
        assert not arr.flags.writeable


def test_table_order_validation():
    spec = SphereSpec(2.1, 1.0)
    with pytest.raises(DomainError):
        phase_table(spec, 1.0, 0)
    with pytest.raises(DomainError):
        phase_table(spec, 1.0, 2.5)
    with pytest.raises(ResourceLimitError):
        phase_table(spec, 1.0, 512)
    with pytest.raises(DomainError):
        phase_table(spec, 0.0, 5)


@settings(max_examples=60, deadline=None)
@given(log_q=st.floats(math.log10(Q_FLOOR), -6.0), eps=st.floats(1.0, 10.0),
       l_max=st.integers(1, 511))
@example(log_q=math.log10(Q_FLOOR), eps=2.1, l_max=511)
def test_table_finite_down_to_the_q_floor(log_q, eps, l_max):
    q = max(Q_FLOOR, 10.0 ** log_q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(SphereSpec(eps, 1.0), q, l_max)
    for name in FIELDS + ("sin_mantissa",):
        assert np.all(np.isfinite(getattr(t, name))), name
    assert np.max(np.abs(t.cos_phi**2 + t.sin_phi**2 - 1.0)) < 1e-14


@pytest.mark.parametrize("q", [Q_FLOOR, 1e-30, 1e-12])
def test_dipole_channel_at_small_q(q):
    # sin phi of (TM, 1) is -(2/3) q^3 (eps - 1)/(eps + 2) (1 + O(q^2))
    t = phase_table(SphereSpec(2.1, 1.0), q, 4)
    assert t.sin_phi[1, 1] == pytest.approx(-2.0 / 3.0 * q**3 * 1.1 / 4.1, rel=1e-12)


def ln_odd_double_factorial(j):
    n = (j + 1) // 2
    return math.lgamma(2 * n + 1) - n * math.log(2.0) - math.lgamma(n + 1)


def small_q_leading_sin_phi(eps, q, p, l):
    # Bohren & Huffman's small-particle terms, in logs: p = 0 is TE, 1 is TM
    if p == 0:
        ln = (math.log(eps - 1.0) + (2 * l + 3) * math.log(q)
              - ln_odd_double_factorial(2 * l + 1) - ln_odd_double_factorial(2 * l + 3))
    else:
        ln = (math.log((l + 1) * (eps - 1.0)) + (2 * l + 1) * math.log(q)
              - ln_odd_double_factorial(2 * l + 1) - ln_odd_double_factorial(2 * l - 1)
              - math.log(l * eps + l + 1))
    return -math.exp(ln) if ln > -745.0 else 0.0


@pytest.mark.parametrize("eps", [1.5, 2.1, 10.0])
def test_tiny_sin_phi_keeps_its_digits(eps):
    # sin phi between the smallest normal float and 1e-279 is scaled after
    # the division by the norm, never through a subnormal intermediate
    checked = 0
    for q in np.geomspace(Q_FLOOR, 1e-6, 45):
        sin_phi = phase_table(SphereSpec(eps, 1.0), q, 60).sin_phi
        for p in (0, 1):
            for l in range(1, 61):
                ref = small_q_leading_sin_phi(eps, q, p, l)
                if 2.3e-308 < abs(ref) < 1e-279:
                    checked += 1
                    assert sin_phi[p, l] / ref == pytest.approx(1.0, abs=1e-11), (q, p, l)
    assert checked > 50
    if eps == 2.1:
        te2 = phase_table(SphereSpec(eps, 1.0), 1e-42, 4).sin_phi[0, 2]
        assert te2 == pytest.approx(small_q_leading_sin_phi(eps, 1e-42, 0, 2), rel=1e-11)
        assert -7e-298 < te2 < -6.9e-298


@pytest.mark.parametrize("q", [Q_FLOOR * (1.0 - 2.0**-52), 1e-60, 4.4e-101, 1e-170, 5e-324])
def test_q_below_the_floor_is_a_domain_error(q):
    for spec in (SphereSpec(2.1, 1.0), SphereSpec(1.0, 1.0)):
        with pytest.raises(DomainError, match="Q_FLOOR"):
            phase_table(spec, q, 4)
    with pytest.raises(DomainError, match=re.escape("q[1]")):
        phase_table(SphereSpec(2.1, 1.0), [0.5, q], 4)


@pytest.mark.parametrize("x", [1e-6, 0.5, 20.0])
def test_scaled_sweeps_carry_values_past_float_range(x):
    jm, je = specfun._j_scaled(400, x)
    ym, ye = specfun._y_scaled(400, x)
    with mp.workdps(40):
        for l in (0, 1, 5, 60, 200, 400):
            half = mp.mpf(l) + mp.mpf(1) / 2
            z = mp.sqrt(mp.pi / (2 * mp.mpf(x)))
            ref_j = z * mp.besselj(half, x) / mp.mpf(2) ** int(je[l])
            ref_y = z * mp.bessely(half, x) / mp.mpf(2) ** int(ye[l])
            assert jm[l] == pytest.approx(float(ref_j), rel=1e-12)
            assert ym[l] == pytest.approx(float(ref_y), rel=1e-12)
    # the plain sweeps saturate instead of turning into nan
    y = specfun.spherical_bessel_y(400, x)
    assert not np.any(np.isnan(y))


# ------------------------------------------------------------- array form

ALL_FIELDS = FIELDS + ("sin_mantissa", "sin_exponent")
Q_ARRAYS = st.lists(st.floats(1e-6, 470.0), min_size=1, max_size=64)


@settings(max_examples=40, deadline=None)
@given(qs=Q_ARRAYS, eps=st.floats(1.0, 10.0), l_max=st.integers(1, 40))
@example(qs=np.geomspace(1e-6, 470.0, 32).tolist() * 2, eps=2.1, l_max=40)
def test_array_slices_equal_scalar_tables(qs, eps, l_max):
    spec = SphereSpec(eps, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(spec, np.array(qs), l_max)
        rows = [phase_table(spec, q, l_max) for q in qs]
    for name in ALL_FIELDS:
        arr = getattr(t, name)
        assert arr.shape == (len(qs), 2, l_max + 1)
        assert not arr.flags.writeable
        for n, row in enumerate(rows):
            assert np.array_equal(arr[n], getattr(row, name)), (name, n)


@settings(max_examples=20, deadline=None)
@given(qs=Q_ARRAYS, l_max=st.integers(1, 40))
def test_array_transparent_sphere_is_exactly_neutral(qs, l_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(SphereSpec(1.0, 1.0), np.array(qs), l_max)
    for name, value in zip(FIELDS, (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)):
        arr = getattr(t, name)
        assert arr.shape == (len(qs), 2, l_max + 1)
        assert np.all(arr == value), name
        assert not arr.flags.writeable


@settings(max_examples=30, deadline=None)
@given(qs=Q_ARRAYS, data=st.data(),
       bad=st.sampled_from([0.0, -0.0, -1.5, -1e-300, math.nan, math.inf, -math.inf]))
def test_array_bad_entry_is_named(qs, data, bad):
    n = data.draw(st.integers(0, len(qs)), label="position")
    q = qs[:n] + [bad] + qs[n:]
    with pytest.raises(DomainError, match=rf"q\[{n}\]={bad}"):
        phase_table(SphereSpec(2.1, 1.0), np.array(q), 5)


@pytest.mark.parametrize("q", [np.empty(0), np.ones((2, 3)), np.ones((1, 1)), [[0.5]]])
def test_array_shape_validation(q):
    with pytest.raises(DomainError, match="scalar or a non-empty 1-D array"):
        phase_table(SphereSpec(2.1, 1.0), q, 5)


@settings(max_examples=20, deadline=None)
@given(qs=Q_ARRAYS, data=st.data(), l_max=st.integers(1, 40))
def test_array_degenerate_channel_names_its_q(qs, data, l_max):
    # the interior sweep at the chosen q returns zeros, so alpha = beta = 0
    target = qs[data.draw(st.integers(0, len(qs) - 1), label="position")]
    interior = math.sqrt(2.1) * target
    sweep = specfun._j_scaled

    def zeroed(orders, x, *width):
        # the sweep takes every q of the table in one call: zero the rows
        # of the interior argument at the chosen q
        mant, exps = sweep(orders, x, *width)
        return np.where((np.asarray(x) == interior)[..., None], 0.0, mant), exps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_j_scaled", zeroed)
        with pytest.raises(DegenerateChannelError, match=rf"at q={re.escape(repr(target))}$"):
            phase_table(SphereSpec(2.1, 1.0), np.array(qs), l_max)


def test_scalar_table_is_a_view_of_the_array_form():
    spec = SphereSpec(2.1, 1.0)
    t = phase_table(spec, 3.4, 9)
    for name in ALL_FIELDS:
        arr = getattr(t, name)
        assert arr.shape == (2, 10)
        assert arr.base is not None and arr.base.shape[-3] == 1


# ------------------------------------------------------ per-entry cutoffs

NEUTRAL = dict(zip(ALL_FIELDS, (1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0)))


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(st.tuples(st.floats(1e-6, 470.0),
                                  st.one_of(st.integers(1, 40), st.integers(1, 511))),
                        min_size=1, max_size=specfun.BATCH_MIN + 16),
       eps=st.one_of(st.just(1.0), st.floats(1.0, 10.0)))
@example(entries=[(0.3, 1), (150.0, 178), (3.0, 511)] * 9, eps=2.1)
def test_per_entry_cutoffs_equal_single_tables(entries, eps):
    # below and from BATCH_MIN entries on: the scalar-loop and batched sweeps
    spec = SphereSpec(eps, 1.0)
    qs, l_maxes = (np.array(c) for c in zip(*entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = phase_table(spec, qs, l_maxes)
        rows = [phase_table(spec, float(q), int(l)) for q, l in entries]
    top = int(l_maxes.max())
    for name in ALL_FIELDS:
        arr = getattr(t, name)
        assert arr.shape == (len(entries), 2, top + 1) and not arr.flags.writeable
        for n, (row, l) in enumerate(zip(rows, l_maxes.tolist())):
            assert np.array_equal(arr[n, :, :l + 1].view(np.int64),
                                  getattr(row, name).view(np.int64)), (name, n)
            assert np.all(arr[n, :, l + 1:] == NEUTRAL[name]), (name, n)


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(st.tuples(st.one_of(st.floats(1e-3, 400.0), st.floats(1e-12, 5e-4),
                                            st.just(0.0)),
                                  st.integers(0, specfun.HARD_CAP_LMAX)),
                        min_size=1, max_size=specfun.BATCH_MIN + 16))
def test_per_argument_tops_equal_single_sweeps(entries):
    xs, tops = (np.array(c) for c in zip(*entries))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mant, exps = specfun._j_scaled(tops, xs)
    assert mant.shape == exps.shape == (len(entries), int(tops.max()) + 1)
    for n, (x, top) in enumerate(entries):
        m, e = specfun._j_scaled(top, x)
        assert np.array_equal(mant[n, :top + 1].view(np.int64), m.view(np.int64)), n
        assert np.array_equal(exps[n, :top + 1], e), n
        assert not mant[n, top + 1:].any() and not exps[n, top + 1:].any(), n


@pytest.mark.parametrize("q,l_max", [
    (np.array([1.0, 2.0]), np.array([3])),
    (np.array([1.0, 2.0]), np.array([3.0, 4.0])),
    (1.0, np.array([3])),
])
def test_per_entry_cutoffs_need_one_integer_per_q(q, l_max):
    with pytest.raises(DomainError, match="one integer or one per q"):
        phase_table(SphereSpec(2.1, 1.0), q, l_max)


def test_per_entry_cutoffs_are_checked_against_the_cap():
    with pytest.raises(ResourceLimitError, match="l_max=512 needs Bessel order 513"):
        phase_table(SphereSpec(2.1, 1.0), np.array([1.0, 2.0]), np.array([4, 512]))
    with pytest.raises(DomainError, match="l_max must be >= 1"):
        phase_table(SphereSpec(2.1, 1.0), np.array([1.0, 2.0]), np.array([0, 4]))
