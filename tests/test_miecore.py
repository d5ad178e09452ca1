"""Channel coefficients and phase shifts against frozen and classical oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import (
    Q_FLOOR,
    ChannelIndex,
    PhaseShiftRecord,
    SphereSpec,
    mie_boundary_coefficients,
    phase_shift,
    phase_table,
    small_particle_sin_phi,
    truncation_order,
)
from mie_oracle import mie_ab

SPEC21 = SphereSpec(epsilon=2.1, radius=1.0)


# ------------------------------------------------------------ domain types

def test_sphere_spec_validation():
    with pytest.raises(DomainError):
        SphereSpec(epsilon=0.9, radius=1.0)
    with pytest.raises(DomainError):
        SphereSpec(epsilon=2.0, radius=0.0)
    with pytest.raises(DomainError):
        SphereSpec(epsilon=float("inf"), radius=1.0)


def test_channel_index_validation():
    with pytest.raises(DomainError):
        ChannelIndex("TX", 1)
    with pytest.raises(DomainError):
        ChannelIndex("TE", 0)


# ---------------------------------------------------- boundary coefficients

def test_transparent_sphere_coefficients():
    spec = SphereSpec(epsilon=1.0, radius=1.0)
    for p in ("TE", "TM"):
        for l in (1, 2, 7):
            for q in (0.2, 1.0, 6.0):
                alpha, beta = mie_boundary_coefficients(spec, q, ChannelIndex(p, l))
                assert alpha == pytest.approx(1.0, rel=1e-11)
                assert beta == 0.0


def test_frozen_boundary_coefficients():
    # 40-digit evaluations of the printed formulas, pinned
    a, b = mie_boundary_coefficients(SPEC21, 0.5, ChannelIndex("TM", 1))
    assert a == pytest.approx(1.2649689528263532, rel=1e-13)
    assert b == pytest.approx(-0.028274060710865958, rel=1e-13)
    a2, b2 = mie_boundary_coefficients(SPEC21, 0.5, ChannelIndex("TE", 2))
    assert a2 == pytest.approx(2.042101744842026, rel=1e-13)
    assert b2 == pytest.approx(-1.0974645400315477e-05, rel=1e-13)


def test_boundary_rejects_nonpositive_q():
    with pytest.raises(DomainError):
        mie_boundary_coefficients(SPEC21, 0.0, ChannelIndex("TE", 1))


# ------------------------------------------------------------- phase shifts

def test_frozen_phase_shift_record():
    rec = phase_shift(SPEC21, 0.5, ChannelIndex("TM", 1))
    assert rec.sin_phi == pytest.approx(-0.022346003454699479, rel=1e-13)
    assert rec.cos_phi == pytest.approx(0.99975029688897945, rel=1e-13)
    assert rec.gamma_l == pytest.approx(0.79033583761499539, rel=1e-13)
    assert rec.phi == pytest.approx(math.atan2(rec.beta_l, rec.alpha_l), rel=1e-15)


def test_record_invariants_consistency():
    rng = np.random.default_rng(11)
    for _ in range(40):
        eps = rng.uniform(1.0, 6.0)
        q = rng.uniform(0.05, 9.0)
        l = int(rng.integers(1, 12))
        p = "TE" if rng.integers(2) else "TM"
        rec = phase_shift(SphereSpec(eps, 1.0), q, ChannelIndex(p, l))
        assert rec.cos_phi**2 + rec.sin_phi**2 == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= rec.sin_phi**2 <= 1.0
        # reconstructing (alpha, beta) from the derived trig fields
        assert rec.cos_phi / rec.gamma_l == pytest.approx(rec.alpha_l, rel=1e-13)
        assert rec.sin_phi / rec.gamma_l == pytest.approx(rec.beta_l, rel=1e-13, abs=1e-300)


def test_no_scatterer_means_no_shift():
    spec = SphereSpec(epsilon=1.0, radius=2.0)
    for l in (1, 3, 9):
        rec = phase_shift(spec, 1.3, ChannelIndex("TM", l))
        assert rec.sin_phi == 0.0
        assert rec.cos_phi == pytest.approx(1.0, rel=1e-11)
        assert rec.phi == 0.0


@pytest.mark.parametrize("eps", [1.5, 2.1, 4.0])
@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_classical_oracle_equivalence(eps, q):
    # sin^2 phi per channel against the frozen textbook series
    spec = SphereSpec(eps, 1.0)
    l_max = truncation_order(q)
    a, b = mie_ab(math.sqrt(eps), q, l_max)
    for l in range(1, l_max + 1):
        tm = phase_shift(spec, q, ChannelIndex("TM", l)).sin_phi ** 2
        te = phase_shift(spec, q, ChannelIndex("TE", l)).sin_phi ** 2
        if abs(a[l - 1]) ** 2 > 1e-30:
            assert tm == pytest.approx(abs(a[l - 1]) ** 2, rel=1e-10)
        if abs(b[l - 1]) ** 2 > 1e-30:
            assert te == pytest.approx(abs(b[l - 1]) ** 2, rel=1e-10)


# ----------------------------------------------------- small-particle limit

def test_dipole_closed_form_value():
    # prefactor -(2/3) fixed by the Rayleigh cross-section limit
    val = small_particle_sin_phi(SPEC21, 0.1, ChannelIndex("TM", 1))
    assert val == pytest.approx(-2.0 / 3.0 * 1e-3 * 1.1 / 4.1, rel=1e-15)
    assert val == pytest.approx(-1.788617886178862e-04, rel=1e-13)


def test_dipole_asymptotic_ratio_converges():
    ch = ChannelIndex("TM", 1)
    devs = []
    for q in (0.1, 0.05, 0.025):
        exact = phase_shift(SPEC21, q, ch).sin_phi
        asym = small_particle_sin_phi(SPEC21, q, ch)
        devs.append(abs(exact / asym - 1.0))
    assert devs[0] < 5e-4
    # O(q^2): each halving of q shrinks the deviation ~4x
    assert devs[1] < devs[0] / 3.0
    assert devs[2] < devs[1] / 3.0


def test_transparent_small_particle_is_zero():
    spec = SphereSpec(epsilon=1.0, radius=1.0)
    assert small_particle_sin_phi(spec, 0.2, ChannelIndex("TM", 1)) == 0.0
    assert small_particle_sin_phi(spec, 0.2, ChannelIndex("TE", 3)) == 0.0


def test_small_particle_warns_outside_regime():
    with pytest.warns(UserWarning, match="q=0.5"):
        small_particle_sin_phi(SPEC21, 0.5, ChannelIndex("TM", 1))


def test_envelope_channels_scale_as_documented():
    ch_te = ChannelIndex("TE", 2)
    ch_tm = ChannelIndex("TM", 2)
    v1 = small_particle_sin_phi(SPEC21, 0.02, ch_te)
    v2 = small_particle_sin_phi(SPEC21, 0.01, ch_te)
    assert v1 / v2 == pytest.approx(2.0**7, rel=1e-12)
    w1 = small_particle_sin_phi(SPEC21, 0.02, ch_tm)
    w2 = small_particle_sin_phi(SPEC21, 0.01, ch_tm)
    assert w1 / w2 == pytest.approx(2.0**5, rel=1e-12)
    # the envelope tracks the true channel scaling
    exact_ratio = (
        phase_shift(SPEC21, 0.02, ch_te).sin_phi
        / phase_shift(SPEC21, 0.01, ch_te).sin_phi
    )
    assert exact_ratio == pytest.approx(2.0**7, rel=1e-3)


@pytest.mark.parametrize("q,within", [(1e-3, 1e-6), (1e-2, 9.1e-5)])
@pytest.mark.parametrize("epsilon", [1.5, 2.1, 12.0])
def test_small_particle_terms_lead_the_phase_table(epsilon, q, within):
    spec = SphereSpec(epsilon, 1.0)
    table = phase_table(spec, q, 4)
    for row, p in enumerate(("TE", "TM")):
        for l in (1, 2, 4):
            lead = small_particle_sin_phi(spec, q, ChannelIndex(p, l))
            assert abs(table.sin_phi[row, l] / lead - 1.0) <= within, (p, l)


def test_small_particle_terms_never_overflow():
    for p in ("TE", "TM"):
        for epsilon in (1.5, 12.0):
            value = small_particle_sin_phi(SphereSpec(epsilon, 1.0), Q_FLOOR, ChannelIndex(p, 511))
            assert math.isfinite(value) and abs(value) < 1e-300


@settings(max_examples=25, deadline=None)
@given(log_q=st.floats(math.log(Q_FLOOR), math.log(1e-2)), epsilon=st.floats(1.0, 10.0))
def test_small_particle_terms_match_every_order(log_q, epsilon):
    # rows equal the leading terms times 1 + O(q^2) wherever either is a
    # normal float, so neither is 0 where the other is not; the table's own
    # rounding grows like 1 / (eps - 1) as eps -> 1
    q = max(Q_FLOOR, math.exp(log_q))
    spec = SphereSpec(epsilon, 1.0)
    table = phase_table(spec, q, 511)
    tol = q * q + 1e-12 / (epsilon - 1.0) if epsilon > 1.0 else 0.0
    tiny = np.finfo(float).tiny
    for row, p in enumerate(("TE", "TM")):
        for l in range(1, 512):
            lead = small_particle_sin_phi(spec, q, ChannelIndex(p, l))
            got = table.sin_phi[row, l]
            if max(abs(lead), abs(got)) >= tiny:
                assert abs(got - lead) <= tol * abs(lead), (p, l)


# --------------------------------------------------------- truncation order

def test_truncation_formula_and_floor():
    assert truncation_order(0.1) == math.ceil(0.1 + 4 * 0.1 ** (1 / 3) + 2) + 4
    assert truncation_order(0.1) >= 4
    assert truncation_order(5.0) == math.ceil(5 + 4 * 5 ** (1 / 3) + 2) + 4
    assert truncation_order(0.0) >= 4
    with pytest.raises(ResourceLimitError, match="multipole order"):
        truncation_order(1e6)
