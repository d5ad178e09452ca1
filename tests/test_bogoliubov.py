"""Bogoliubov coupling kernels: radial overlaps, reductions, kernel laws."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from qmie import bogoliubov as bg
from qmie import modes
from qmie.errors import DomainError, PoleExcludedError, ToleranceError
from qmie.miecore import ChannelIndex, SphereSpec, _resolve_cutoff, phase_shift, truncation_order
from qmie.modes import PlaneModeIndex

SPEC = SphereSpec(epsilon=2.1, radius=1.0)
VACUUM = SphereSpec(epsilon=1.0, radius=1.0)

# canonical non-null mode pair: second direction out of the xz-plane, since
# in-plane cross-polarized pairs vanish identically by mirror symmetry
K1, K2 = 0.5, 0.75
KAP = PlaneModeIndex(1, (0.0, 0.0, K1))
KAPP = PlaneModeIndex(
    2,
    (
        K2 * math.sin(1.0) * math.cos(0.7),
        K2 * math.sin(1.0) * math.sin(0.7),
        K2 * math.cos(1.0),
    ),
)

# Direct 3D Gauss-Legendre quadrature of the sphere-volume integrals for
# (KAP, KAPP) at l_max=12: 20 radial x (24 x 20) angular nodes, fields
# summed to l=18. The reduced path reproduced these to ~2.6e-15.
VOLUME_3D = {
    "v": -4.200836740850551e-20 - 5.641916387649206e-03j,
    "a": 3.271462961915263e-04 - 4.657307403238113e-03j,
    "b": -3.229229046699860e-04 - 4.059912168719351e-03j,
}

# first validated adaptive-quadrature run, identical at rtol 1e-9 and 1e-12
B_REGRESSION = 8.700959769687678e-05 + 0.0010939184535266495j


def lommel_overlap(l, a, b, radius):
    """Closed-form integral_0^R r^2 j_l(a r) j_l(b r) dr."""
    if a == b:
        return (
            radius**3
            / 2.0
            * (
                spherical_jn(l, a * radius) ** 2
                - spherical_jn(l - 1, a * radius) * spherical_jn(l + 1, a * radius)
            )
        )
    return (
        radius**2
        * (
            a * spherical_jn(l + 1, a * radius) * spherical_jn(l, b * radius)
            - b * spherical_jn(l, a * radius) * spherical_jn(l + 1, b * radius)
        )
        / (a**2 - b**2)
    )


# ------------------------------------------------------------ radial overlaps

@pytest.mark.parametrize("l", [1, 2, 5, 9])
@pytest.mark.parametrize("a,b", [(0.5, 0.75), (1.3, 2.6), (4.0, 0.2), (2.0, 2.0)])
def test_radial_overlap_against_closed_form(l, a, b):
    # the series at its last order and below it
    for l_top in (l, l + 3):
        vals, errs = bg._overlaps(l_top, a, b, 1.0, 1e-12)
        val, err = vals[l], errs[l]
        ref = lommel_overlap(l, a, b, 1.0)
        assert val == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert err >= 0.0
        assert abs(val - ref) <= max(err, 1e-13)


def test_radial_overlap_nonconvergence():
    # the bound holds the rounding of the sweeps and sums, a few hundred
    # eps S_l here, so no order meets a tolerance below it
    pair = (PlaneModeIndex(1, (0.0, 0.0, 3.0)), PlaneModeIndex(2, (0.0, 3.0, 0.0)))
    assert bg.coupling_v(SPEC, *pair, rtol=1e-11).abs_err >= 0.0
    with pytest.raises(ToleranceError, match="radial overlap bound"):
        bg.coupling_v(SPEC, *pair, rtol=1e-16)


# ----------------------------------------------------- reduction vs 3D oracle

def volume_overlap(ka, kb, l_max, scattered, phase_sign, conjugate_pair):
    """bg._volume_overlaps of the one pair at rtol 1e-12, fed its angular sums."""
    sums = bg._angular_sums(ka, [kb], l_max, conjugate_pair)
    return bg._volume_overlaps(SPEC, ka, [kb], [l_max], 1e-12, scattered, phase_sign, sums)[0]


def test_volume_overlaps_match_3d_quadrature():
    red_v, _ = volume_overlap(KAP, KAPP, 12, False, 0.0, False)
    red_a, _ = volume_overlap(KAP, KAPP, 12, True, -1.0, False)
    red_b, _ = volume_overlap(KAP, KAPP, 12, True, 1.0, True)
    assert red_v == pytest.approx(VOLUME_3D["v"], rel=1e-12, abs=1e-18)
    assert red_a == pytest.approx(VOLUME_3D["a"], rel=1e-12)
    assert red_b == pytest.approx(VOLUME_3D["b"], rel=1e-12)


def test_mirror_symmetric_pair_is_null():
    # same pair with the second direction rotated back into the xz-plane
    flat = PlaneModeIndex(2, (K2 * math.sin(1.0), 0.0, K2 * math.cos(1.0)))
    val, _ = volume_overlap(KAP, flat, 10, False, 0.0, False)
    assert val == 0.0


# ------------------------------------------------------------------ V kernel

def test_v_transparent():
    kern = bg.coupling_v(VACUUM, KAP, KAPP)
    assert kern.value == 0.0 and kern.abs_err == 0.0 and kern.kind == "V"


def test_v_self_coupling_closed_form():
    kz = PlaneModeIndex(1, (0.0, 0.0, 0.5))
    kern = bg.coupling_v(SPEC, kz, kz)
    v_sphere = 4.0 / 3.0 * math.pi * SPEC.radius**3
    closed = 0.5 / 4.0 * (SPEC.epsilon - 1.0) / SPEC.epsilon * v_sphere / (2.0 * math.pi) ** 3
    assert kern.value == pytest.approx(closed, rel=1e-10)
    assert abs(kern.value.imag) < 1e-18


def test_v_hermiticity_random_pairs():
    rng = np.random.default_rng(20260815)
    for _ in range(6):
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        k1, k2 = rng.uniform(0.3, 3.0, size=2)
        ka = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k1 * d1 / np.linalg.norm(d1)))
        kb = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k2 * d2 / np.linalg.norm(d2)))
        va = bg.coupling_v(SPEC, ka, kb).value
        vb = bg.coupling_v(SPEC, kb, ka).value
        assert abs(va - np.conj(vb)) <= 1e-12 * max(abs(va), 1e-6)


# ------------------------------------------------------------------ B kernel

def test_b_transparent():
    assert bg.b_coefficient(VACUUM, KAP, KAPP).value == 0.0


def test_b_regression_and_two_tolerance_consistency():
    k9 = bg.b_coefficient(SPEC, KAP, KAPP, rtol=1e-9)
    k12 = bg.b_coefficient(SPEC, KAP, KAPP, rtol=1e-12)
    assert abs(k9.value - k12.value) <= k9.abs_err + k12.abs_err
    assert k12.value == pytest.approx(B_REGRESSION, rel=1e-9)
    assert k12.kind == "B"


def test_b_vanishes_linearly_toward_transparency():
    eps_grid = np.array([1.001, 1.002, 1.004])
    y = np.array(
        [abs(bg.b_coefficient(SphereSpec(e, 1.0), KAP, KAPP).value) for e in eps_grid]
    )
    x = eps_grid - 1.0
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert r2 > 0.999
    assert abs(coef[1]) < 0.01 * y.max()


def test_b_l_max_converged():
    base = bg.b_coefficient(SPEC, KAP, KAPP).value
    more = bg.b_coefficient(SPEC, KAP, KAPP, l_max=20).value
    assert more == pytest.approx(base, rel=1e-12)


def test_b_direction_validation():
    with pytest.raises(DomainError):
        bg.b_coefficient(SPEC, KAP, KAPP, direction="sideways")


@pytest.mark.parametrize("call", [
    lambda d: bg.kernel_scan("V", SPEC, KAP, [KAPP], direction=d),
    lambda d: bg.kernel_scan("B", VACUUM, KAP, [KAPP], direction=d),
    lambda d: bg.a_diagonal_channel_sum(SPEC, KAP, KAP, direction=d),
    lambda d: modes.SphericalModeIndex(ChannelIndex("TE", 1), 0, 1.0, d),
    lambda d: modes.scattering_eigenmode(SPEC, KAP, d, (0.0, 0.0, 2.0)),
], ids=["kernel_scan-V", "kernel_scan-vacuum", "a_diagonal_channel_sum",
        "SphericalModeIndex", "scattering_eigenmode"])
def test_one_direction_check(call):
    with pytest.raises(DomainError, match=r"^direction 'sideways' not in \('outgoing', 'incoming'\)$"):
        call("sideways")


def test_direction_sign_and_v_ignores_it():
    assert [modes._direction_sign(d) for d in modes.DIRECTIONS] == [-1.0, 1.0]
    v = [bg.kernel_scan("V", SPEC, KAP, [KAPP], direction=d)[0].value for d in modes.DIRECTIONS]
    assert v[0] == v[1]


# ------------------------------------------------------------------ A kernel

def test_a_transparent():
    assert bg.a_offdiagonal_kernel(VACUUM, KAP, KAPP).value == 0.0


def test_a_pole_excluded():
    kb = PlaneModeIndex(2, (K1 * 0.6, 0.0, K1 * 0.8))
    with pytest.raises(PoleExcludedError):
        bg.a_offdiagonal_kernel(SPEC, KAP, kb)
    almost = PlaneModeIndex(2, (0.0, 0.0, K1 * (1.0 + 1e-15)))
    with pytest.raises(PoleExcludedError):
        bg.a_offdiagonal_kernel(SPEC, KAP, almost)


def test_a_finite_and_continuous_across_pole_neighborhood():
    k0 = 1.0
    ka = PlaneModeIndex(1, (0.0, 0.0, k0))
    ws = []
    for ratio in (0.99, 0.995, 0.999, 1.001, 1.005, 1.01):
        kp = k0 * ratio
        kb = PlaneModeIndex(1, (kp * 0.6, 0.0, kp * 0.8))
        kern = bg.a_offdiagonal_kernel(SPEC, ka, kb)
        ws.append(kern.value * (k0 - kp))
    ws = np.array(ws)
    assert np.all(np.isfinite(ws))
    steps = np.abs(np.diff(ws)) / np.abs(ws[:-1])
    assert np.max(steps) < 0.02


def test_a_swap_prefactor_antisymmetry():
    # the 1/(k - k') prefactor flips sign under mode swap while the volume
    # integral transforms by its own conjugate-swap of the angular sums
    rng = np.random.default_rng(7)
    for _ in range(3):
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        k1, k2 = rng.uniform(0.3, 2.0, size=2)
        ka = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k1 * d1 / np.linalg.norm(d1)))
        kb = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k2 * d2 / np.linalg.norm(d2)))
        s = math.sqrt(SPEC.epsilon)
        l_ab = _resolve_cutoff(SPEC.radius * max(ka.k, s * kb.k), reach=2)
        l_ba = _resolve_cutoff(SPEC.radius * max(kb.k, s * ka.k), reach=2)
        i_ab, _ = volume_overlap(ka, kb, l_ab, True, -1.0, False)
        i_ba, _ = volume_overlap(kb, ka, l_ba, True, -1.0, False)
        pref = (SPEC.epsilon - 1.0) / 2.0 * math.sqrt(k1 * k2)
        fwd = bg.a_offdiagonal_kernel(SPEC, ka, kb).value
        bwd = bg.a_offdiagonal_kernel(SPEC, kb, ka).value
        assert fwd * (k1 - k2) == pytest.approx(pref * i_ab, rel=1e-12)
        assert bwd * (k2 - k1) == pytest.approx(pref * i_ba, rel=1e-12)


def test_angular_sums_conjugate_swap():
    rng = np.random.default_rng(11)
    for _ in range(3):
        d1 = rng.normal(size=3)
        d2 = rng.normal(size=3)
        ka = PlaneModeIndex(int(rng.integers(1, 3)), tuple(d1))
        kb = PlaneModeIndex(int(rng.integers(1, 3)), tuple(d2))
        f_te, f_tm = bg._angular_sums(ka, [kb], 8, conjugate_pair=False)[0]
        b_te, b_tm = bg._angular_sums(kb, [ka], 8, conjugate_pair=False)[0]
        assert np.allclose(b_te, np.conj(f_te), atol=1e-14)
        assert np.allclose(b_tm, np.conj(f_tm), atol=1e-14)
        # the counter-rotating pairing is symmetric outright
        c_te, c_tm = bg._angular_sums(ka, [kb], 8, conjugate_pair=True)[0]
        s_te, s_tm = bg._angular_sums(kb, [ka], 8, conjugate_pair=True)[0]
        assert np.allclose(s_te, c_te, atol=1e-14)
        assert np.allclose(s_tm, c_tm, atol=1e-14)


# ------------------------------------------------------ diagonal channel sum

def test_a_diagonal_channel_sum_elastic_reduction():
    k = 0.9
    ka = PlaneModeIndex(1, (0.0, 0.0, k))
    kb = PlaneModeIndex(
        2, (k * math.sin(0.8) * math.cos(0.5), k * math.sin(0.8) * math.sin(0.5), k * math.cos(0.8))
    )
    got = bg.a_diagonal_channel_sum(SPEC, ka, kb)
    l_max = truncation_order(k * SPEC.radius)
    coeffs_a = {
        (c.channel.p, c.channel.l, c.m): c.value
        for c in modes.plane_wave_coefficients(ka, l_max)
    }
    coeffs_b = {
        (c.channel.p, c.channel.l, c.m): c.value
        for c in modes.plane_wave_coefficients(kb, l_max)
    }
    ref = 0.0 + 0.0j
    for (p, l, m), ca in coeffs_a.items():
        rec = phase_shift(SPEC, k * SPEC.radius, ChannelIndex(p, l))
        ref += np.conj(ca) * coeffs_b[(p, l, m)] * np.exp(-1j * rec.phi) * rec.cos_phi
    assert got == pytest.approx(ref, rel=1e-12)
    assert got != 0.0


def test_a_diagonal_requires_equal_moduli():
    kb = PlaneModeIndex(1, (0.0, 0.0, 2.0 * K1))
    with pytest.raises(DomainError):
        bg.a_diagonal_channel_sum(SPEC, KAP, kb)


# --------------------------------------------------------------- error model

def test_reported_error_bounds_tolerance_change():
    for fn in (bg.coupling_v, bg.b_coefficient, bg.a_offdiagonal_kernel):
        loose = fn(SPEC, KAP, KAPP, rtol=1e-8)
        tight = fn(SPEC, KAP, KAPP, rtol=5e-9)
        assert abs(loose.value - tight.value) <= max(loose.abs_err, 1e-16)
        assert loose.abs_err >= 0.0


def test_kernel_records_modes():
    kern = bg.coupling_v(SPEC, KAP, KAPP)
    assert kern.kappa is KAP and kern.kappa_prime is KAPP
