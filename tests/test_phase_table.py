"""The array-valued phase table: overflow safety, oracles, row views."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import specfun
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import (
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
