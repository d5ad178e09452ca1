"""Scattering amplitudes, cross sections, S-matrix channels and g2 maps."""

import math
import warnings

import numpy as np
import pytest

from qmie import modes, observables, specfun
from qmie.errors import ConsistencyError, DomainError
from qmie.miecore import ChannelIndex, SphereSpec, phase_shift, truncation_order
from qmie.modes import PlaneModeIndex
from mie_oracle import amplitude_s12, mie_ab
from quadrature import solid_angle_grid

SPEC = SphereSpec(epsilon=2.1, radius=1.0)
VACUUM = SphereSpec(epsilon=1.0, radius=1.0)


# ------------------------------------------------------------------ p_alpha

def test_p_alpha_transparent():
    assert observables.p_alpha(VACUUM, 1.0, ChannelIndex("TM", 1)) == 0.0


def test_p_alpha_dipole_peak_location():
    ch = ChannelIndex("TM", 1)
    qs = np.arange(2.8, 4.2, 0.02)
    vals = [observables.p_alpha(SPEC, q, ch) for q in qs]
    q_star = qs[int(np.argmax(vals))]
    assert abs(q_star - 3.4) <= 0.1


def test_p_alpha_small_q_closed_form():
    # (4/9) q^6 ((eps-1)/(eps+2))^2, the square of the dipole sin(phi)
    for q in (0.01, 0.005):
        val = observables.p_alpha(SPEC, q, ChannelIndex("TM", 1))
        ref = 4.0 / 9.0 * q**6 * (1.1 / 4.1) ** 2
        assert val == pytest.approx(ref, rel=1e-3)


def test_p_alpha_quadrature_route_agrees():
    val_p = observables.p_alpha(SPEC, 1.0, ChannelIndex("TM", 1))
    val_q = observables.p_alpha(SPEC, 1.0, ChannelIndex("TM", 1), method="quadrature")
    assert val_q == pytest.approx(val_p, rel=1e-4)
    with pytest.raises(DomainError):
        observables.p_alpha(SPEC, 1.0, ChannelIndex("TM", 1), method="guess")


# ------------------------------------------------------ scattering amplitude

def test_amplitude_transparent_sphere():
    k = 1.3
    kap = PlaneModeIndex(1, (0.0, 0.0, k))
    out = PlaneModeIndex(2, (k, 0.0, 0.0))
    assert observables.scattering_amplitude(VACUUM, out, kap).value == 0.0


def test_amplitude_elastic_enforcement():
    with pytest.raises(DomainError):
        observables.scattering_amplitude(
            SPEC, PlaneModeIndex(1, (0.0, 0.0, 1.0)), PlaneModeIndex(1, (0.0, 0.0, 2.0))
        )


def test_optical_theorem_single_point():
    q = 1.0
    k = q / SPEC.radius
    sigma = observables.total_cross_section(SPEC, q).sigma
    for g in (1, 2):
        kap = PlaneModeIndex(g, (0.0, 0.0, k))
        f = observables.scattering_amplitude(SPEC, kap, kap).value
        assert f.imag == pytest.approx(k * sigma / (4.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("eps", [1.5, 2.1, 4.0])
@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_optical_theorem_matrix(eps, q):
    spec = SphereSpec(eps, 1.0)
    k = q / spec.radius
    sigma = observables.total_cross_section(spec, q).sigma
    kap = PlaneModeIndex(1, (0.6 * k, 0.0, 0.8 * k))
    f = observables.scattering_amplitude(spec, kap, kap).value
    assert f.imag == pytest.approx(k * sigma / (4.0 * math.pi), rel=1e-10)


# --------------------------------------------------------- s-matrix channels

def test_s_matrix_transparent_identity():
    for ch in observables.s_matrix_channels(VACUUM, 2.0, l_max=6):
        assert ch.value == 1.0 + 0.0j


def test_s_matrix_channel_identity_and_unitarity():
    # e^{-2 i phi} = 1 - 2 i sin(phi) e^{-i phi}, and unit modulus
    for q in (0.5, 3.0):
        for ch in observables.s_matrix_channels(SPEC, q):
            rec = phase_shift(SPEC, q, ch.channel)
            rhs = 1.0 - 2j * rec.sin_phi * np.exp(-1j * rec.phi)
            assert ch.value == pytest.approx(rhs, abs=1e-14)
            assert abs(abs(ch.value) - 1.0) < 1e-14


# ------------------------------------------------------- total cross section

def test_sigma_transparent_is_zero():
    assert observables.total_cross_section(VACUUM, 1.0).sigma == 0.0


def test_sigma_rayleigh_limit_and_scaling():
    devs = []
    for q in (0.01, 0.005):
        sigma = observables.total_cross_section(SPEC, q).sigma
        ray = (8.0 * math.pi / 3.0) * ((1.1 / 4.1) * q**2 * SPEC.radius) ** 2
        devs.append(abs(sigma / ray - 1.0))
    assert devs[0] < 1e-3
    # O(q^2) approach: halving q cuts the deviation ~4x
    assert devs[1] < devs[0] / 3.0


def test_sigma_matches_classical_series():
    q = 2.0
    l_max = truncation_order(q)
    a, b = mie_ab(math.sqrt(SPEC.epsilon), q, l_max)
    k = q / SPEC.radius
    ref = 2.0 * math.pi / k**2 * sum(
        (2 * l + 1) * (abs(a[l - 1]) ** 2 + abs(b[l - 1]) ** 2) for l in range(1, l_max + 1)
    )
    assert observables.total_cross_section(SPEC, q).sigma == pytest.approx(ref, rel=1e-9)


def test_sigma_channel_decomposition():
    res = observables.total_cross_section(SPEC, 3.0)
    acc = sum(c for _, c in res.per_channel)
    assert res.sigma == pytest.approx(acc, rel=1e-12)
    assert all(c >= 0.0 for _, c in res.per_channel)
    assert res.l_max_used == truncation_order(3.0)


def test_sigma_truncation_converged():
    q = 5.0
    base = observables.total_cross_section(SPEC, q).sigma
    doubled = observables.total_cross_section(SPEC, q, l_max=2 * truncation_order(q)).sigma
    assert abs(doubled / base - 1.0) < 1e-10


# -------------------------------------------------- differential cross section

def test_differential_quadrature_recovers_sigma():
    q = 1.0
    k = q / SPEC.radius
    kap = PlaneModeIndex(1, (0.0, 0.0, k))
    theta, phi, w = solid_angle_grid(20, 26)
    acc = 0.0
    for t, f, ww in zip(theta, phi, w):
        n = (math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t))
        acc += ww * observables.differential_cross_section(SPEC, kap, n)
    sigma = observables.total_cross_section(SPEC, q).sigma
    assert acc == pytest.approx(sigma, rel=1e-8)


def test_differential_dipole_pattern():
    # x-polarized input along z at q = 0.01; dark direction checked absolutely
    q = 0.01
    k = q / SPEC.radius
    kap = PlaneModeIndex(2, (0.0, 0.0, k))
    sigma = observables.total_cross_section(SPEC, q).sigma
    peak = 3.0 * sigma / (8.0 * math.pi)
    for (t, f) in [(0.3, 0.2), (1.2, 2.0), (2.5, 4.0), (1.5707963, 1.5707963), (0.9, 0.0)]:
        n = np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
        ds = observables.differential_cross_section(SPEC, kap, n)
        ref = peak * (1.0 - n[0] ** 2)
        assert ds == pytest.approx(ref, rel=5e-3)
    dark = observables.differential_cross_section(SPEC, kap, (1.0, 0.0, 0.0))
    assert dark < 1e-3 * peak


def test_forward_enhancement_grows_with_q():
    vals = []
    for q in (0.5, 1.5, 3.0):
        k = q / SPEC.radius
        kap = PlaneModeIndex(1, (0.0, 0.0, k))
        fwd = observables.differential_cross_section(SPEC, kap, (0.0, 0.0, 1.0))
        vals.append(fwd / observables.total_cross_section(SPEC, q).sigma)
    assert vals[0] < vals[1] < vals[2]


def test_differential_direction_validation():
    kap = PlaneModeIndex(1, (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        observables.differential_cross_section(SPEC, kap, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        observables.differential_cross_section(SPEC, kap, [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0)])


def scan_directions(thetas, phi_d):
    return np.stack([np.sin(thetas) * math.cos(phi_d),
                     np.sin(thetas) * math.sin(phi_d),
                     np.cos(thetas)], axis=-1)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_differential_batch_matches_single_directions(offset):
    # q = 20: l_max = 37, so a chunk holds two directions
    q = 20.0
    l_max = truncation_order(q)
    n = specfun.CHUNK_VALUES // ((l_max + 1) * (2 * l_max + 1)) + offset
    kap = PlaneModeIndex(2, (0.3 * q, -0.2 * q, math.sqrt(0.87) * q))
    dirs = scan_directions(np.linspace(0.0, math.pi, n + 2)[1:-1], 2.1)
    batch = observables.differential_cross_section(SPEC, kap, dirs)
    assert batch.shape == (n,)
    for d, got in zip(dirs, batch):
        single = observables.differential_cross_section(SPEC, kap, d)
        assert isinstance(single, float)
        assert got == pytest.approx(single, rel=1e-13)


@pytest.mark.parametrize("g", [1, 2])
def test_differential_batch_matches_classical_amplitudes(g):
    # incidence along z: g = 1 is y-polarized, g = 2 is x-polarized
    q = 20.0
    k = q / SPEC.radius
    l_max = truncation_order(q)
    kap = PlaneModeIndex(g, (0.0, 0.0, k))
    thetas = np.linspace(0.0, math.pi, 25)
    phi_d = 0.7
    got = observables.differential_cross_section(SPEC, kap, scan_directions(thetas, phi_d))
    s1, s2 = amplitude_s12(math.sqrt(SPEC.epsilon), q, np.cos(thetas), l_max)
    if g == 2:
        s1, s2 = s2, s1
    ref = (np.abs(s1) ** 2 * math.cos(phi_d) ** 2 + np.abs(s2) ** 2 * math.sin(phi_d) ** 2) / k**2
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(ref)


# --------------------------------------------------------- transition kernel

def test_transition_kernel_proportionality():
    k = 1.0
    kin = PlaneModeIndex(1, (0.0, 0.0, k))
    kout = PlaneModeIndex(2, (k * 0.6, 0.0, k * 0.8))
    f = observables.scattering_amplitude(SPEC, kout, kin).value
    t = observables.transition_amplitude_kernel(SPEC, kout, kin)
    assert t == 1j * f / (2.0 * math.pi * k)
    assert observables.transition_amplitude_kernel(VACUUM, kout, kin) == 0.0
    with pytest.raises(DomainError):
        observables.transition_amplitude_kernel(
            SPEC, kout, PlaneModeIndex(1, (0.0, 0.0, 2.0))
        )


# ------------------------------------------------------------------ g2 maps

def small_particle_setup(n_grid, k=0.01):
    kap1 = PlaneModeIndex(1, (k, 0.0, 0.0))
    kap2 = PlaneModeIndex(1, (0.0, k, 0.0))
    phis = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    return kap1, kap2, phis


def test_g2_small_particle_closed_form():
    assert observables.g2_small_particle(0.0, 0.0) == 0.0
    assert observables.g2_small_particle(math.pi / 4, math.pi / 4) == pytest.approx(1.0, rel=1e-15)


def test_g2_map_matches_small_particle_surface():
    kap1, kap2, phis = small_particle_setup(24)
    grid = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, 3.0 * math.pi / 4, phis, phis
    )
    ref = observables.g2_small_particle(phis[:, None], phis[None, :])
    assert np.nanmax(np.abs(grid.values - ref)) <= 0.02
    assert np.nanmin(grid.values) >= 0.0


def test_g2_hom_zero_line_and_unity_point():
    kap1, kap2, phis = small_particle_setup(8)
    grid = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, 3.0 * math.pi / 4,
        [math.pi / 4, 3 * math.pi / 4], [math.pi / 4, math.pi / 4]
    )
    # phi1 + phi2 = pi is the destructive Hong-Ou-Mandel line
    assert grid.values[1, 0] < 1e-4
    assert grid.values[0, 0] == pytest.approx(1.0, abs=2e-2)


def test_g2_grid_symmetry_same_detectors():
    kap1, kap2, phis = small_particle_setup(10)
    grid = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, math.pi / 4, phis, phis
    )
    assert np.allclose(grid.values, grid.values.T, equal_nan=True, atol=1e-12)


def test_g2_detector_radius_invariance():
    kap1, kap2, phis = small_particle_setup(6)
    base = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, 3 * math.pi / 4, phis, phis
    )
    doubled = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, 3 * math.pi / 4, phis, phis,
        r_detector=2e3 / kap1.k,
    )
    assert np.nanmax(np.abs(base.values - doubled.values)) < 1e-4


def test_g2_equal_frequency_enforced():
    kap1 = PlaneModeIndex(1, (0.01, 0.0, 0.0))
    kap2 = PlaneModeIndex(1, (0.0, 0.02, 0.0))
    with pytest.raises(DomainError):
        observables.g2_map(SPEC, kap1, kap2, "z", "z", 1.0, 1.0, [0.0], [0.0])


def test_g2_near_field_detector_warns():
    kap1, kap2, _ = small_particle_setup(4)
    with pytest.warns(UserWarning, match="far-field"):
        observables.g2_map(
            SPEC, kap1, kap2, "z", "z", 1.0, 1.0, [0.0], [0.0],
            r_detector=100.0 / kap1.k,
        )


def test_g2_zero_signal_sentinel(monkeypatch):
    kap1, kap2, _ = small_particle_setup(4)
    real = modes.scattering_eigenmode

    def muted(spec, kappa, direction, point, **kw):
        sample = real(spec, kappa, direction, point, **kw)
        # kill the upper detector entirely; points may come one or N at a time
        upper = np.asarray(point)[..., 2:] > 0
        return modes.FieldSample(value=np.where(upper, 0.0, sample.value), point=sample.point)

    monkeypatch.setattr(observables.modes, "scattering_eigenmode", muted)
    grid = observables.g2_map(
        SPEC, kap1, kap2, "z", "z", math.pi / 4, 3 * math.pi / 4, [0.3], [0.4]
    )
    assert np.isnan(grid.values[0, 0])


def test_g2_default_detector_radius_does_not_warn():
    # (1e3 / k) * k rounds to 999.9999999999999 at this k, which once fired
    # the near-field warning with the default detector radius
    k = 0.0099009
    assert (1e3 / k) * k < 1e3
    kap1, kap2 = PlaneModeIndex(1, (k, 0.0, 0.0)), PlaneModeIndex(1, (0.0, k, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = observables.g2_map(SPEC, kap1, kap2, "z", "z", math.pi / 4,
                                  3 * math.pi / 4, [0.3, 1.1], [0.4, 2.0])
    assert np.all(np.isfinite(grid.values))


def test_cross_section_guard_catches_nan(monkeypatch):
    # NaN fails every comparison, so the guard must be written to fail on it
    real = modes._coefficient_table

    def poisoned(*args):
        return real(*args) * np.nan

    monkeypatch.setattr(observables.modes, "_coefficient_table", poisoned)
    with pytest.raises(ConsistencyError):
        observables.total_cross_section(SPEC, 1.0)
