"""Eigenmode evaluation: radial branches, interfaces, plane-wave content."""

import functools
import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from qmie import bogoliubov, modes, observables, specfun
from qmie.errors import DomainError
from qmie.miecore import POLARIZATIONS, ChannelIndex, SphereSpec, phase_shift, truncation_order
from qmie.specfun import unit_vectors
from msum_reference import amplitudes as msum_amplitudes
from msum_reference import angular_sums as msum_angular_sums
from quadrature import solid_angle_grid

SPEC = SphereSpec(epsilon=2.1, radius=1.0)
VACUUM = SphereSpec(epsilon=1.0, radius=1.0)


def direction_vector(theta, phi):
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])


# ------------------------------------------------------------ mode indices

def test_mode_index_validation():
    ch = ChannelIndex("TE", 2)
    with pytest.raises(DomainError):
        modes.SphericalModeIndex(ch, 3, 1.0)
    with pytest.raises(DomainError):
        modes.SphericalModeIndex(ch, 0, -1.0)
    with pytest.raises(DomainError):
        modes.SphericalModeIndex(ch, 0, 1.0, "sideways")
    # a fractional m is no order, not m = 1
    with pytest.raises(DomainError, match="integer"):
        modes.SphericalModeIndex(ch, 1.5, 1.0)
    assert modes.SphericalModeIndex(ch, -2.0, 1.0).m == -2
    with pytest.raises(DomainError):
        modes.PlaneModeIndex(3, (0, 0, 1))
    # g as m: an integral float is the integer, anything else is no label
    assert modes.PlaneModeIndex(2.0, (0, 0, 1)) == modes.PlaneModeIndex(2, (0, 0, 1))
    assert type(modes.PlaneModeIndex(1.0, (0, 0, 1)).g) is int
    for g in (1.5, math.nan, math.inf, "1"):
        with pytest.raises(DomainError, match="polarization g"):
            modes.PlaneModeIndex(g, (0, 0, 1))
    with pytest.raises(DomainError):
        modes.PlaneModeIndex(1, (0, 0, 0))



@pytest.mark.parametrize("kvec", [(0.0, 0.0, 1e-170), (5e-324, 0.0, 0.0),
                                  (1e-160, -1e-160, 1e-160)])
def test_plane_mode_index_rejects_an_underflowing_norm(kvec):
    with pytest.raises(DomainError, match="underflow"):
        modes.PlaneModeIndex(1, kvec)


@pytest.mark.parametrize("kvec", [(0.0, 0.0, 1e200), (1e154, 1e154, 0.0)])
def test_plane_mode_index_rejects_an_overflowing_norm(kvec):
    with pytest.raises(DomainError, match="overflow"):
        modes.PlaneModeIndex(1, kvec)


def test_plane_mode_index_keeps_its_norm_and_direction_near_the_edge():
    # |k|^2 = 1e-300 is a normal float: accepted, with k = sqrt(sum c^2)
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, 1e-150))
    assert kap.k == math.sqrt(1e-150 * 1e-150)
    assert kap.angles == (0.0, 0.0)
    # |k|^2 = 1e308 is below the largest float
    assert modes.PlaneModeIndex(1, (0.0, 0.0, 1e154)).k == math.sqrt(1e154 * 1e154)


# --------------------------------------------------------- radial function

def test_radial_transparent_sphere_is_bessel():
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 2), 0, 1.5)
    for r in (0.0, 0.4, 1.0, 3.7):
        for lp in (1, 3):
            val = modes.radial_function(VACUUM, mode, lp, r)
            ref = spherical_jn(lp, 1.5 * r)
            assert val == pytest.approx(ref, rel=1e-11, abs=1e-15)
            assert val.imag == 0.0


def test_radial_in_out_conjugacy():
    out = modes.SphericalModeIndex(ChannelIndex("TM", 2), 0, 1.0, "outgoing")
    inc = modes.SphericalModeIndex(ChannelIndex("TM", 2), 0, 1.0, "incoming")
    for r in (0.2, 0.99, 1.0, 1.7, 8.0):
        for lp in (1, 3):
            fo = modes.radial_function(SPEC, out, lp, r)
            fi = modes.radial_function(SPEC, inc, lp, r)
            assert fi == np.conj(fo)


def test_radial_lprime_validation():
    te = modes.SphericalModeIndex(ChannelIndex("TE", 2), 0, 1.0)
    tm = modes.SphericalModeIndex(ChannelIndex("TM", 2), 0, 1.0)
    with pytest.raises(DomainError):
        modes.radial_function(SPEC, te, 3, 0.5)
    with pytest.raises(DomainError):
        modes.radial_function(SPEC, tm, 2, 0.5)
    with pytest.raises(DomainError):
        modes.radial_function(SPEC, tm, 1, -0.5)


def test_radial_far_field_asymptote_small_particle():
    # leading Hankel asymptote; valid to 1e-5 where sin(phi) is small
    for q in (0.01, 0.1):
        k = q / SPEC.radius
        for (p, l) in (("TM", 1), ("TE", 1), ("TM", 2), ("TE", 2)):
            rec = phase_shift(SPEC, q, ChannelIndex(p, l))
            mode = modes.SphericalModeIndex(ChannelIndex(p, l), 0, k)
            lps = (l,) if p == "TE" else (l - 1, l + 1)
            for lp in lps:
                for kr in (1e3, 1e3 + 0.7):
                    val = modes.radial_function(SPEC, mode, lp, kr / k)
                    asy = spherical_jn(lp, kr) - (
                        (-1j) ** lp * rec.sin_phi * np.exp(1j * (kr - rec.phi)) / kr
                    )
                    assert val == pytest.approx(asy, rel=1e-5)


def test_radial_far_field_exact_for_lprime_zero():
    # h_0 has no correction series, so the asymptote is exact at any q
    q = 1.0
    rec = phase_shift(SPEC, q, ChannelIndex("TM", 1))
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 1), 0, q)
    kr = 1e3
    val = modes.radial_function(SPEC, mode, 0, kr / q)
    asy = spherical_jn(0, kr) - (-1j) ** 0 * rec.sin_phi * np.exp(1j * (kr - rec.phi)) / kr
    assert val == pytest.approx(asy, rel=1e-13)


# ------------------------------------------------------ spherical eigenmode

def test_te_mode_is_tangential():
    mode = modes.SphericalModeIndex(ChannelIndex("TE", 3), 1, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pt = rng.uniform(-2, 2, 3)
        if np.linalg.norm(pt) < 1e-3:
            continue
        s = modes.spherical_eigenmode(SPEC, mode, pt)
        rhat = pt / np.linalg.norm(pt)
        assert abs(np.dot(rhat, s.value)) < 1e-15 * max(1.0, np.max(np.abs(s.value)))


@pytest.mark.parametrize("q", [0.3, 1.0, 3.0])
def test_interface_conditions(q):
    # all four continuity relations, approached at R(1 +/- 1e-12)
    rng = np.random.default_rng(int(q * 10))
    k = q / SPEC.radius
    cases = [("TE", 1, 0), ("TM", 1, 1), ("TE", 2, -1), ("TM", 3, 2)]
    for (p, l, m) in cases:
        mode = modes.SphericalModeIndex(ChannelIndex(p, l), m, k)
        theta, phi = rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        nhat = direction_vector(theta, phi)
        _, e_t, e_p = unit_vectors(theta, phi)
        s_in = modes.spherical_eigenmode(SPEC, mode, SPEC.radius * (1 - 1e-12) * nhat).value
        s_out = modes.spherical_eigenmode(SPEC, mode, SPEC.radius * (1 + 1e-12) * nhat).value
        c_in = modes.curl_spherical_eigenmode(SPEC, mode, SPEC.radius * (1 - 1e-12) * nhat).value
        c_out = modes.curl_spherical_eigenmode(SPEC, mode, SPEC.radius * (1 + 1e-12) * nhat).value
        scale_s = np.max(np.abs(np.concatenate([s_in, s_out])))
        scale_c = np.max(np.abs(np.concatenate([c_in, c_out])))
        for e in (e_t, e_p):
            assert abs(np.dot(e, s_in) - np.dot(e, s_out)) < 1e-9 * scale_s
            assert abs(np.dot(e, c_in) - np.dot(e, c_out)) < 1e-9 * scale_c
        n_in = SPEC.epsilon * np.dot(nhat, s_in)
        n_out = np.dot(nhat, s_out)
        assert abs(n_in - n_out) < 1e-9 * max(scale_s, abs(n_out))


def test_interface_at_wider_offsets():
    # literal R(1 +/- 1e-8) approach: the smooth radial drift over the offset
    # is ~(l+1+q) 2e-8, so the budget here is drift-aware, not 1e-9
    q = 1.0
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 2), 1, q / SPEC.radius)
    nhat = direction_vector(1.1, 0.4)
    _, e_t, e_p = unit_vectors(1.1, 0.4)
    s_in = modes.spherical_eigenmode(SPEC, mode, SPEC.radius * (1 - 1e-8) * nhat).value
    s_out = modes.spherical_eigenmode(SPEC, mode, SPEC.radius * (1 + 1e-8) * nhat).value
    scale = np.max(np.abs(s_out))
    for e in (e_t, e_p):
        assert abs(np.dot(e, s_in) - np.dot(e, s_out)) < 5e-7 * scale


def test_mode_at_exact_radius_uses_outside_branch():
    mode = modes.SphericalModeIndex(ChannelIndex("TE", 1), 0, 1.0)
    pt = SPEC.radius * direction_vector(1.0, 0.0)
    on = modes.spherical_eigenmode(SPEC, mode, pt).value
    out = modes.spherical_eigenmode(SPEC, mode, pt, branch="outside").value
    assert np.array_equal(on, out)


def test_polar_angle_keeps_its_digits_near_the_z_axis():
    # acos(z / r) gives 0 at (1e-9, 0, 1), and 1.0000444e-6 at (1e-6, 0, 1);
    # a plane wave's direction kvec takes the same rule
    pts = np.array([[x, 0.0, z] for z in (1.0, -1.0) for x in (1e-9, 3e-8, 1e-6)])
    r, theta, phi = modes._spherical_coords(pts)
    ref = np.array([math.atan2(x, z) for x, _, z in pts])
    assert np.all(np.abs(theta - ref) <= np.spacing(ref))
    assert np.all(phi == 0.0)
    for kvec in np.concatenate([pts, 7.5 * pts]):
        angles = np.array(modes.PlaneModeIndex(1, kvec).angles)
        assert np.all(np.abs(angles - [math.atan2(kvec[0], kvec[2]), 0.0]) <= np.spacing(angles))
    # the origin maps to (0, 0, 0), also with signed zeros
    r, theta, phi = modes._spherical_coords(np.array([[0.0, -0.0, -0.0]]))
    assert np.array_equal(np.concatenate([r, theta, phi]).view(np.int64), np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("y", [-1e-300, -5e-324, -1e-17])
def test_tiny_negative_azimuth_wraps_to_zero(y):
    # atan2(y, 1) mod 2 pi rounds up to 2 pi itself for these y; the wrap
    # is the one of the harmonics, which read it as phi = 0
    _, _, phi = modes._spherical_coords(np.array([[1.0, y, 0.0], [2.5, 2.5 * y, 1.0]]))
    assert phi.view(np.int64).tolist() == [0, 0]
    theta_k, phi_k = modes.PlaneModeIndex(1, (1.0, y, 0.0)).angles
    assert (theta_k, phi_k) == (math.pi / 2, 0.0) and math.copysign(1.0, phi_k) == 1.0
    assert type(phi_k) is float
    # one step further below zero keeps its 2 pi - |phi|
    _, _, phi = modes._spherical_coords(np.array([[1.0, -1e-15, 0.0]]))
    assert phi[0] == modes.PlaneModeIndex(1, (1.0, -1e-15, 0.0)).angles[1] == \
        math.atan2(-1e-15, 1.0) % (2.0 * math.pi) < 2.0 * math.pi



# --------------------------------------------------- vacuum/scattered parts

def test_scattered_part_vanishes_without_scatterer():
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 1), 0, 1.3)
    for pt in ([0.2, 0.1, 0.4], [1.5, -0.3, 0.9]):
        sc = modes.scattered_part(VACUUM, mode, pt)
        assert np.all(sc.value == 0.0)


def test_vacuum_mode_needs_no_spec():
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 2), -1, 0.8)
    pt = [0.5, 0.2, -0.7]
    vac = modes.vacuum_eigenmode(mode, pt)
    full = modes.spherical_eigenmode(VACUUM, mode, pt)
    assert np.allclose(vac.value, full.value, rtol=1e-11, atol=1e-16)


def test_scattered_far_field_power_recovers_sin2phi():
    # (pi/2) r^2 integral |S_sc|^2 dOmega -> sin^2 phi at kr = 1e3
    theta, phi, w = solid_angle_grid(20, 24)
    for (p, l, m, q) in [("TM", 1, 0, 1.0), ("TE", 1, 1, 2.0), ("TM", 2, -1, 3.4)]:
        k = q / SPEC.radius
        mode = modes.SphericalModeIndex(ChannelIndex(p, l), m, k)
        rec = phase_shift(SPEC, q, ChannelIndex(p, l))
        r = 1e3 / k
        acc = 0.0
        for t, f, ww in zip(theta, phi, w):
            v = modes.scattered_part(SPEC, mode, r * direction_vector(t, f)).value
            acc += ww * float(np.real(np.vdot(v, v)))
        assert (math.pi / 2) * r**2 * acc == pytest.approx(rec.sin_phi**2, rel=1e-4)


def test_scattered_far_field_envelope():
    q = 2.0
    mode = modes.SphericalModeIndex(ChannelIndex("TE", 1), 0, q)
    rec = phase_shift(SPEC, q, ChannelIndex("TE", 1))
    r = 5e2
    vals = [
        np.linalg.norm(modes.scattered_part(SPEC, mode, r * direction_vector(t, 0.3)).value)
        for t in np.linspace(0.3, 2.8, 9)
    ]
    # envelope sin(phi)/(kr) times the mode normalization k sqrt(2/pi) |X|
    top = max(vals) / (q * math.sqrt(2 / math.pi))
    assert top == pytest.approx(abs(rec.sin_phi) / (q * r) * math.sqrt(3 / (8 * math.pi)), rel=1e-2)


# -------------------------------------------------------------- plane waves

def test_plane_wave_at_origin_direction():
    kap = modes.PlaneModeIndex(2, (0.0, 0.0, 2.0))
    val = modes.plane_wave_mode(kap, (0.0, 0.0, 0.0)).value
    _, e_theta, _ = unit_vectors(0.0, 0.0)
    assert np.allclose(val, e_theta / (2 * math.pi) ** 1.5, atol=1e-16)


def test_plane_wave_modulus_and_transversality():
    rng = np.random.default_rng(9)
    for _ in range(8):
        kvec = tuple(rng.uniform(-2, 2, 3))
        if np.linalg.norm(kvec) < 0.1:
            continue
        for g in (1, 2):
            kap = modes.PlaneModeIndex(g, kvec)
            pt = rng.uniform(-3, 3, 3)
            val = modes.plane_wave_mode(kap, pt).value
            assert np.linalg.norm(val) == pytest.approx((2 * math.pi) ** -1.5, rel=1e-14)
            assert abs(np.dot(val, kvec)) < 1e-14 * np.linalg.norm(kvec)


def test_coefficient_channel_sum_rule():
    # sum_m |c_{lm g}|^2 over both polarizations = (2l+1)/(4pi) per g
    kap = modes.PlaneModeIndex(1, (0.7, -0.4, 1.1))
    l_max = 6
    coeffs = modes.plane_wave_coefficients(kap, l_max)
    acc: dict = {}
    for c in coeffs:
        key = c.channel.l
        acc[key] = acc.get(key, 0.0) + abs(c.value) ** 2
    for l in range(1, l_max + 1):
        assert acc[l] == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-12)


def test_pair_sums_form_no_coefficient_table(monkeypatch):
    # amplitudes and kernel angular sums read pi_l and tau_l at the angle
    # between the two directions: no coefficient table, no harmonic rows
    rng = np.random.default_rng(12)
    theta, phi = rng.uniform(0.0, math.pi, 7), rng.uniform(0.0, 2 * math.pi, 7)
    kappa_in = modes.PlaneModeIndex(2, (1.1, -0.7, 2.3))
    kappa_primes = [modes.PlaneModeIndex(1, tuple(rng.normal(size=3))) for _ in range(3)]
    ref_f = msum_amplitudes(SPEC, kappa_in, theta, phi, 9)
    ref_m = [msum_angular_sums(kappa_in, kp, 9, True) for kp in kappa_primes]
    for module, name in ((modes, "_coefficient_table"), (specfun, "_legendre_rows"),
                         (specfun, "spherical_harmonic_at")):
        monkeypatch.setattr(module, name, None)
    f = observables._amplitudes(SPEC, kappa_in, theta, phi, 9)
    assert np.max(np.abs(f - ref_f)) < 1e-12 * np.max(np.abs(ref_f))
    sums = bogoliubov._angular_sums(kappa_in, kappa_primes, 9, True)
    assert np.max(np.abs(sums - np.array(ref_m))) < 1e-13


def test_coefficients_axial_selection_rule():
    kap = modes.PlaneModeIndex(2, (0.0, 0.0, 3.0))
    for c in modes.plane_wave_coefficients(kap, 5):
        if abs(c.m) != 1:
            assert abs(c.value) < 1e-15


def test_coefficients_independent_of_wavenumber():
    a = modes.plane_wave_coefficients(modes.PlaneModeIndex(1, (0.3, 0.4, 0.5)), 4)
    b = modes.plane_wave_coefficients(modes.PlaneModeIndex(1, (0.6, 0.8, 1.0)), 4)
    for ca, cb in zip(a, b):
        assert ca.value == pytest.approx(cb.value, rel=1e-13, abs=1e-18)


# ------------------------------------------------------- scattering modes

def test_vacuum_reconstruction_accuracy():
    # truncated c-sum reproduces the plane wave in vacuum
    l_max = truncation_order(5.0) + 8
    rng = np.random.default_rng(3)
    kvec = (0.9, 0.2, -0.8)
    k = float(np.linalg.norm(kvec))
    for g in (1, 2):
        kap = modes.PlaneModeIndex(g, kvec)
        for _ in range(6):
            pt = rng.uniform(-2.5, 2.5, 3)
            if np.linalg.norm(pt) * k > 5.0:
                pt *= 5.0 / (np.linalg.norm(pt) * k)
            F = modes.scattering_eigenmode(VACUUM, kap, "outgoing", pt, l_max=l_max)
            G = modes.plane_wave_mode(kap, pt)
            assert np.max(np.abs(F.value - G.value)) < 1e-8


def test_reconstruction_error_decreases_with_lmax():
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, 1.0))
    pt = np.array([1.8, -1.2, 2.0])
    G = modes.plane_wave_mode(kap, pt).value
    errs = []
    for l_max in (4, 8, 12, 16):
        F = modes.scattering_eigenmode(VACUUM, kap, "outgoing", pt, l_max=l_max).value
        errs.append(np.max(np.abs(F - G)))
    for a, b in zip(errs, errs[1:]):
        if a > 1e-13:
            assert b < a


def test_mie_form_identity():
    # direct sum == truncated plane wave + scattered sum, shared truncation
    kap = modes.PlaneModeIndex(1, (0.8, 0.3, 1.0))
    for pt in ([0.4, -1.1, 0.7], [2.0, 0.3, -0.2], [0.2, 0.1, 0.05]):
        d = modes.scattering_eigenmode(SPEC, kap, "outgoing", pt, l_max=12, form="direct")
        m = modes.scattering_eigenmode(
            SPEC, kap, "outgoing", pt, l_max=12, form="mie", plane_wave="truncated"
        )
        scale = max(np.max(np.abs(d.value)), 1e-30)
        assert np.max(np.abs(d.value - m.value)) < 1e-12 * scale


def test_scattering_mode_argument_validation():
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        modes.scattering_eigenmode(SPEC, kap, "outward", (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        modes.scattering_eigenmode(SPEC, kap, "outgoing", (1.0, 0.0, 0.0), form="fast")


# ------------------------------------------------------------ dipole limit

def test_dipole_field_trivial_cases():
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, 0.01))
    pt = (300.0, 0.0, 0.0)
    d = modes.dipole_limit_field(VACUUM, kap, pt)
    g = modes.plane_wave_mode(kap, pt)
    assert np.array_equal(d.value, g.value)
    with pytest.raises(DomainError):
        modes.dipole_limit_field(SPEC, kap, (0.2, 0.0, 0.0))
    # one point only: an (N, 3) batch is refused, as are non-finite points
    with pytest.raises(DomainError, match="3-vector"):
        modes.dipole_limit_field(SPEC, kap, [pt, pt])
    with pytest.raises(DomainError, match="finite"):
        modes.dipole_limit_field(SPEC, kap, (math.inf, 0.0, 0.0))


def test_dipole_far_zone_is_transverse():
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, 0.01))
    for nhat in (direction_vector(0.8, 0.5), direction_vector(2.2, 4.0)):
        pt = 1e5 * nhat
        sc = modes.dipole_limit_field(SPEC, kap, pt).value - modes.plane_wave_mode(kap, pt).value
        assert abs(np.dot(nhat, sc)) < 5.0 / (0.01 * 1e5) * np.linalg.norm(sc)


def test_dipole_matches_scattering_mode_far_field():
    # q = 0.01 small particle, kr = 1e3
    k = 0.01
    kap = modes.PlaneModeIndex(1, (0.0, 0.0, k))
    for nhat in (direction_vector(1.0, 0.0), direction_vector(0.4, 2.5), direction_vector(2.6, 1.1)):
        pt = (1e3 / k) * nhat
        F = modes.scattering_eigenmode(SPEC, kap, "outgoing", pt, form="mie").value
        D = modes.dipole_limit_field(SPEC, kap, pt).value
        G = modes.plane_wave_mode(kap, pt).value
        rel = np.linalg.norm((F - G) - (D - G)) / np.linalg.norm(D - G)
        assert rel < 0.01


# ------------------------------------------------------------ intensity map

def test_intensity_map_finite_at_origin():
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 1), 0, 0.1)
    vals = modes.field_intensity_map(SPEC, mode, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    assert np.all(np.isfinite(vals))
    assert vals.shape == (2,)


def test_near_sphere_intensity_dominated_by_dipole_channel():
    # q = 0.1: the (TM,1) mode towers over the other low channels
    q = 0.1
    grid = [
        [r * math.sin(t), 0.0, r * math.cos(t)]
        for r in np.linspace(0.2, 3.0, 10)
        for t in np.linspace(0.1, 3.0, 5)
    ]
    peak = {}
    for (p, l) in [("TM", 1), ("TE", 1), ("TM", 2), ("TE", 2), ("TM", 3)]:
        mode = modes.SphericalModeIndex(ChannelIndex(p, l), 0, q / SPEC.radius)
        peak[(p, l)] = modes.field_intensity_map(SPEC, mode, grid).max()
    for key, val in peak.items():
        if key != ("TM", 1):
            assert peak[("TM", 1)] > 50.0 * val


def random_points(n, seed):
    # half inside the sphere, half outside, plus the origin and the surface
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.where(np.arange(n) % 2 == 0, rng.uniform(0.05, 0.95, n), rng.uniform(1.05, 4.0, n))
    pts = radii[:, None] * dirs
    pts[0] = 0.0
    pts[1] = SPEC.radius * dirs[1]
    return pts


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_intensity_map_batch_matches_pointwise_modes(offset):
    l = 3
    mode = modes.SphericalModeIndex(ChannelIndex("TM", l), 1, 2.3)
    # one direction either side of the default chunk of the mode's harmonic
    # at |m| = 1, whose rows hold the columns |m'| <= 2
    pts = random_points(specfun.CHUNK_VALUES // 5 + offset, 500 + offset)
    vals = modes.field_intensity_map(SPEC, mode, pts)
    assert vals.shape == (pts.shape[0],)
    for pt, got in zip(pts, vals):
        s = modes.spherical_eigenmode(SPEC, mode, pt).value
        ref = float(np.real(np.vdot(s, s))) / mode.k**2
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_mode_sum_batch_matches_pointwise_calls(offset):
    l_max = 8
    kap = modes.PlaneModeIndex(2, (0.9, -0.4, 1.3))
    # an oblique plane wave, at 430 points and one more or fewer
    pts = random_points(430 + offset, 600 + offset)
    for kind in ("full", "scattered"):
        (batch,) = modes._mode_sum(SPEC, (kap,), "outgoing", pts, l_max, kind)
        assert batch.shape == pts.shape
        single = np.array([modes._mode_sum(SPEC, (kap,), "outgoing", pt[None], l_max, kind)[0, 0]
                           for pt in pts])
        assert np.max(np.abs(batch - single)) <= 1e-13 * np.max(np.abs(single))
    far = modes.scattering_eigenmode(SPEC, kap, "incoming", pts, l_max=l_max, form="mie").value
    for pt, got in zip(pts[:5], far[:5]):
        ref = modes.scattering_eigenmode(SPEC, kap, "incoming", pt, l_max=l_max, form="mie").value
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def assemble_points(l):
    pts = random_points(150, 700 + l)
    pts[2:4] = [[0.0, 0.0, 2.5], [0.0, 0.0, -0.5]]
    return pts


def assemble_orders(l):
    return sorted({0, 1, -l})


@functools.lru_cache(maxsize=None)
def whole_block_entries(l):
    """{m: (X, V, W)} at the orders m of assemble_orders(l) and the points of
    assemble_points(l), from the whole vector-harmonic block, formed for a
    few directions at a time to bound its memory."""
    _, theta, phi = modes._spherical_coords(assemble_points(l))
    ls = np.arange(l + 1.0)[:, None]
    parts = [specfun._vector_families(ls, *specfun.spherical_harmonics_batch(l, theta[i:i + 8], phi[i:i + 8]))
             for i in range(0, theta.size, 8)]
    return {m: [np.concatenate([fams[f][:, l, m + l] for fams in parts]) for f in range(3)]
            for m in assemble_orders(l)}


def assemble_by_whole_block(spec, mode, pts, kind, curl):
    # S_alpha, or its curl, from every family of the whole block's entry at
    # (l, m), of which _assemble forms one family of one harmonic
    r, theta, phi = modes._spherical_coords(pts)
    l, m, k = mode.channel.l, mode.m, mode.k
    x, v, w = whole_block_entries(l)[m]
    f_ll, f_up, f_dn = (f[:, POLARIZATIONS.index(mode.channel.p), l, None] for f in
                        modes._radial_tables(spec, k, r, l, mode.direction, kind))
    norm = k * math.sqrt(2.0 / math.pi)
    if (mode.channel.p == "TE") != curl:
        sph = norm * f_ll * x
    else:
        w_v = math.sqrt(l / (2.0 * l + 1.0))
        w_w = math.sqrt((l + 1.0) / (2.0 * l + 1.0))
        sph = norm * (w_v * f_up * v - w_w * f_dn * w)
    if curl:
        kappa = k * np.where(r < spec.radius, math.sqrt(spec.epsilon), 1.0)[:, None]
        sph = (-1j if mode.channel.p == "TE" else 1j) * kappa * sph
    return specfun.spherical_to_cartesian(sph, theta, phi)


@pytest.mark.parametrize("kind,curl", [("full", False), ("full", True), ("vacuum", False),
                                       ("scattered", False), ("scattered", True)])
@pytest.mark.parametrize("l", [1, 2, 7, 160])
@pytest.mark.parametrize("p", ["TE", "TM"])
def test_assemble_equals_the_vector_contraction_route(p, l, kind, curl):
    # the reference is the whole-block route: the vector families of
    # spherical_harmonics_batch at [l, m]
    spec = None if kind == "vacuum" else SPEC
    pts = assemble_points(l)
    for m in assemble_orders(l):
        mode = modes.SphericalModeIndex(ChannelIndex(p, l), m, 2.3)
        got = modes._assemble(spec, mode, pts, kind, curl=curl).value
        ref = assemble_by_whole_block(spec, mode, pts, kind, curl)
        assert got.tobytes() == ref.tobytes()


# -------------------------------------------------------------- curl checks

def numerical_curl(fn, pt, h=1e-6):
    jac = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        dp = np.zeros(3)
        dp[a] = h
        jac[:, a] = (fn(pt + dp) - fn(pt - dp)) / (2 * h)
    return np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]])


@pytest.mark.parametrize("p,l,m,pt", [
    ("TE", 2, 1, (0.3, 0.2, 0.25)),
    ("TE", 2, 1, (1.3, -0.9, 0.6)),
    ("TM", 1, -1, (1.3, -0.9, 0.6)),
    ("TM", 3, 2, (0.25, 0.3, 0.2)),
])
def test_analytic_curl_matches_numerical(p, l, m, pt):
    mode = modes.SphericalModeIndex(ChannelIndex(p, l), m, 1.7)
    fn = lambda x: modes.spherical_eigenmode(SPEC, mode, x).value
    num = numerical_curl(fn, np.asarray(pt, dtype=float))
    ana = modes.curl_spherical_eigenmode(SPEC, mode, pt).value
    assert np.max(np.abs(num - ana)) < 1e-7 * max(np.max(np.abs(ana)), 1e-3)
