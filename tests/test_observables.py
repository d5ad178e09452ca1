"""Scattering amplitudes, cross sections, S-matrix channels and g2 maps."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import modes, observables, specfun
from qmie.errors import ConsistencyError, DomainError
from qmie.miecore import ChannelIndex, SphereSpec, phase_shift, phase_table, truncation_order
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
    # P_alpha = (pi/2) r^2 int |S_sc|^2 dOmega over a far-field sphere: the
    # scattered part of the channel's m = 0 eigenmode integrated on a
    # 24 x 28 solid-angle grid at k r = 1e3
    q, ch = 1.0, ChannelIndex("TM", 1)
    k = q / SPEC.radius
    r = 1e3 / k
    theta, phi, w = solid_angle_grid(24, 28)
    pts = r * np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                        np.cos(theta)], axis=-1)
    v = modes.scattered_part(SPEC, modes.SphericalModeIndex(ch, 0, k), pts).value
    power = np.real(np.einsum("nc,nc->n", np.conj(v), v))
    val_q = (math.pi / 2.0) * r * r * float(np.sum(w * power))
    assert val_q == pytest.approx(observables.p_alpha(SPEC, q, ch), rel=1e-4)


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


def test_detector_polar_angle_keeps_its_digits_near_the_z_axis(monkeypatch):
    # arccos of the normalized z gave exactly 0 for the direction (1e-9, 0, 1)
    seen, amplitudes = [], observables._amplitudes

    def recording(spec, kappa_in, theta, phi, l_max):
        seen.append(theta)
        return amplitudes(spec, kappa_in, theta, phi, l_max)

    monkeypatch.setattr(observables, "_amplitudes", recording)
    dirs = [(x, 0.0, z) for z in (1.0, -1.0) for x in (1e-9, 3e-8, 1e-6)]
    observables.differential_cross_section(SPEC, PlaneModeIndex(1, (0.0, 0.0, 1.0)), dirs)
    ref = np.array([math.atan2(x, z) for x, _, z in dirs])
    assert np.all(np.abs(seen[0] - ref) <= np.spacing(ref))


def scan_directions(thetas, phi_d):
    return np.stack([np.sin(thetas) * math.cos(phi_d),
                     np.sin(thetas) * math.sin(phi_d),
                     np.cos(thetas)], axis=-1)


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_differential_batch_matches_single_directions(side):
    # side -1 and 1: directions exactly backward or forward, parallel to
    # within 1e-300..1e-160 (where the scattering plane is undefined and the
    # frame falls back to an axis) and within 1e-12..1e-2; side 0: the
    # poles and random directions. Every entry of the batch equals its own
    # single-direction call bit for bit
    q = 20.0
    kap = PlaneModeIndex(2, (0.3 * q, -0.2 * q, math.sqrt(0.87) * q))
    n = np.array(kap.kvec) / kap.k
    rng = np.random.default_rng(8 + side)
    if side:
        away = np.cross(n, rng.normal(size=(12, 3)))
        tilts = np.concatenate([[0.0, 1e-300, 1e-200, 1e-160], 10.0 ** rng.uniform(-12, -2, 8)])
        dirs = side * n + tilts[:, None] * away / np.linalg.norm(away, axis=1)[:, None]
    else:
        dirs = np.concatenate([np.eye(3), -np.eye(3), rng.normal(size=(10, 3))])
    batch = observables.differential_cross_section(SPEC, kap, dirs)
    assert batch.shape == (len(dirs),)
    for d, got in zip(dirs, batch):
        single = observables.differential_cross_section(SPEC, kap, d)
        assert isinstance(single, float)
        assert got == single


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


@pytest.mark.parametrize("g", [1, 2])
def test_integral_float_polarization_gives_the_same_cross_section(g):
    n = (0.6, 0.0, 0.8)
    as_int, as_float = (PlaneModeIndex(label, (0.0, 0.3, 1.0)) for label in (g, float(g)))
    assert (observables.differential_cross_section(SPEC, as_float, n)
            == observables.differential_cross_section(SPEC, as_int, n))


def test_g2_equal_frequency_enforced():
    kap1 = PlaneModeIndex(1, (0.01, 0.0, 0.0))
    kap2 = PlaneModeIndex(1, (0.0, 0.02, 0.0))
    with pytest.raises(DomainError):
        observables.g2_map(SPEC, kap1, kap2, "z", "z", 1.0, 1.0, [0.0], [0.0])


@pytest.mark.parametrize("radius", [-1000.0, 0.0, math.inf, math.nan])
def test_g2_detector_radius_must_be_finite_and_positive(radius):
    # at r <= 0 the detector rings would sit mirrored through the origin or on it
    kap1, kap2, _ = small_particle_setup(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="r_detector"):
            observables.g2_map(SPEC, kap1, kap2, "z", "z", 1.0, 1.0, [0.0], [0.0],
                               r_detector=radius)


def test_g2_near_field_detector_warns():
    kap1, kap2, _ = small_particle_setup(4)
    with pytest.warns(UserWarning, match="far-field"):
        observables.g2_map(
            SPEC, kap1, kap2, "z", "z", 1.0, 1.0, [0.0], [0.0],
            r_detector=100.0 / kap1.k,
        )


def mute_upper_detector(monkeypatch):
    # kill the upper detector entirely: both parts of F = G + (1/k) sum c S^sc
    real_sum, real_wave = modes._mode_sum, modes.plane_wave_mode

    def mute(value, points):
        return np.where(np.asarray(points)[..., 2:] > 0, 0.0, value)

    def muted_sum(spec, kappas, direction, points, *args):
        return mute(real_sum(spec, kappas, direction, points, *args), points)

    def muted_wave(kappa, point):
        sample = real_wave(kappa, point)
        return modes.FieldSample(value=mute(sample.value, point), point=sample.point)

    monkeypatch.setattr(observables.modes, "_mode_sum", muted_sum)
    monkeypatch.setattr(observables.modes, "plane_wave_mode", muted_wave)


def test_g2_zero_signal_sentinel(monkeypatch):
    kap1, kap2, _ = small_particle_setup(4)
    mute_upper_detector(monkeypatch)
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


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(1.0, 10.0),
       k=st.one_of(st.floats(2.95, 3.05), st.floats(0.0099, 0.0101)),
       theta1=st.floats(0.0, math.pi), theta2=st.floats(0.0, math.pi),
       n_phi=st.integers(2, 64))
def test_g2_map_photon_fields_equal_separate_eigenmodes(eps, k, theta1, theta2, n_phi):
    # one stacked mode sum for both photons gives each photon's "mie"
    # eigenmode bit for bit, and the grid is the one those fields give
    spec = SphereSpec(eps, 1.0)
    kap1, kap2, phis = small_particle_setup(n_phi, k)
    seen, real = [], modes._mode_sum

    def spy(*args):
        seen.append((args[3], real(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modes, "_mode_sum", spy)
        grid = observables.g2_map(spec, kap1, kap2, "z", "z", theta1, theta2, phis, phis)
    ((pts, scattered),) = seen
    fields = [modes.scattering_eigenmode(spec, kap, "outgoing", pts, l_max=truncation_order(k),
                                         form="mie").value for kap in (kap1, kap2)]
    for kap, s, f in zip((kap1, kap2), scattered, fields):
        assert (modes.plane_wave_mode(kap, pts).value + s).tobytes() == f.tobytes()
    (a1, b1), (a2, b2) = ((f[:n_phi] @ np.array([0.0, 0.0, 1.0]), f[n_phi:] @ np.array([0.0, 0.0, 1.0]))
                          for f in fields)
    num = np.abs(a1[:, None] * b2[None, :] + a2[:, None] * b1[None, :]) ** 2
    den = (np.abs(a1) ** 2 + np.abs(a2) ** 2)[:, None] * (np.abs(b1) ** 2 + np.abs(b2) ** 2)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert grid.values.tobytes() == np.where(den > 0.0, num / den, np.nan).tobytes()


def test_mode_sums_build_no_coefficient_table(monkeypatch):
    # the g2-map photons and both forms of the scattering eigenmode sum
    # through pi_l at n . rhat: no coefficient table, no harmonic or
    # Legendre rows, no vector families and no spherical basis; a g2 map
    # builds one radial table, with one phase table
    for module, name in ((modes, "_coefficient_table"), (specfun, "spherical_harmonic_at"),
                         (specfun, "_legendre_rows"), (specfun, "_x_family"),
                         (specfun, "_vw_families"), (specfun, "spherical_to_cartesian")):
        monkeypatch.setattr(module, name, None)
    calls = []
    for module, name in ((modes, "_radial_tables"), (modes, "phase_table")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    kap1, kap2, phis = small_particle_setup(64, k=3.0)
    grid = observables.g2_map(SPEC, kap1, kap2, "z", "z", math.pi / 4, 3 * math.pi / 4, phis, phis)
    assert np.all(np.isfinite(grid.values))
    assert calls == ["_radial_tables", "phase_table"]
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [2.0, 1.0, -1.5]])
    for form, plane_wave in (("direct", "exact"), ("mie", "exact"), ("mie", "truncated")):
        value = modes.scattering_eigenmode(SPEC, kap1, "outgoing", pts, form=form,
                                           plane_wave=plane_wave).value
        assert value.shape == (3, 3) and np.all(np.isfinite(value))


def test_cross_section_guard_catches_nan(monkeypatch):
    # NaN fails every comparison, so the guard must be written to fail on it
    real = specfun._tangential_norms

    def poisoned(*args):
        return real(*args) * np.nan

    monkeypatch.setattr(observables.specfun, "_tangential_norms", poisoned)
    with pytest.raises(ConsistencyError):
        observables.total_cross_section(SPEC, 1.0)


# ------------------------------------------------- cross-section self-check

@pytest.mark.parametrize("l_max", [1, 2, 77, 178, 511])
@pytest.mark.parametrize("theta", [0.0, math.acos(0.8), 1.9, math.pi])
def test_tangential_norms_equal_coefficient_table_sums(l_max, theta):
    # sum_m |c^p_lm|^2 of the g = 1 table, TE then TM; phi does not enter
    table = modes._coefficient_table(theta, 2.3, 1, l_max)
    ref = np.sum(np.abs(table) ** 2, axis=-1)
    got = specfun._tangential_norms(l_max, theta)
    assert got.shape == (2, l_max + 1)
    assert np.all(got[:, 0] == 0.0)
    assert np.max(np.abs(got[:, 1:] / ref[:, 1:] - 1.0)) < 1e-14


def _scaled_seeds(real):
    return lambda theta, m_top: real(theta, m_top) * (1.0 + 1e-6)


def _scaled_ladder(real):
    def tables(l_max):
        a, ab, up, _ = real(l_max)
        up = up * (1.0 + 1e-6)
        return a, ab, up, up[:, ::-1]
    return tables


def _scaled_recurrence(real):
    def tables(l_max):
        a, ab, up, dn = real(l_max)
        return a * (1.0 + 1e-6), ab, up, dn
    return tables


@pytest.mark.parametrize("name, perturb", [("_legendre_seeds", _scaled_seeds),
                                           ("_recurrence_tables", _scaled_ladder),
                                           ("_recurrence_tables", _scaled_recurrence)])
def test_cross_section_check_catches_a_broken_normalization(monkeypatch, name, perturb):
    # a harmonic normalization off by 1e-6 (the diagonal seeds, the TE
    # ladder, the column recurrence) moves the angular sum far past 1e-9
    observables.total_cross_section(SPEC, 2.0)
    monkeypatch.setattr(specfun, name, perturb(getattr(specfun, name)))
    with pytest.raises(ConsistencyError):
        observables.total_cross_section(SPEC, 2.0)


def test_cross_section_check_stops_at_the_last_live_order(monkeypatch):
    calls, real = [], specfun._tangential_norms
    monkeypatch.setattr(specfun, "_tangential_norms",
                        lambda l_max, theta: calls.append(l_max) or real(l_max, theta))
    observables.total_cross_section(SPEC, 0.5, l_max=200)
    sin_phi = phase_table(SPEC, 0.5, 200).sin_phi
    sin2 = sin_phi ** 2
    (l_live,) = calls
    # the terms are norms * sin^2 phi: the cut is the last order whose
    # sin^2 phi is nonzero, before sin phi itself reaches 0
    assert l_live == 43
    assert np.any(sin2[:, l_live] != 0.0) and np.all(sin2[:, l_live + 1:] == 0.0)
    assert np.any(sin_phi[:, l_live + 1:] != 0.0)
    # with no sphere no order is live, and nothing is built
    calls.clear()
    assert observables.total_cross_section(VACUUM, 1.0).sigma == 0.0
    assert calls == []


def test_cross_section_nan_past_the_live_orders_fails(monkeypatch):
    # a NaN counts as a live order, so a NaN where sin phi is otherwise 0
    # still reaches the check and fails it
    real = observables.phase_table

    def poisoned(spec, q, l_max):
        t = real(spec, q, l_max)
        sin_phi = t.sin_phi.copy()
        sin_phi[0, 150] = np.nan
        return dataclasses.replace(t, sin_phi=sin_phi)

    monkeypatch.setattr(observables, "phase_table", poisoned)
    with pytest.raises(ConsistencyError):
        observables.total_cross_section(SPEC, 0.5, l_max=200)


def test_cross_section_builds_no_complex_harmonic_table(monkeypatch):
    calls = []
    for module, name in ((modes, "_coefficient_table"), (specfun, "_complete"),
                         (specfun, "spherical_harmonics_batch")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    observables.total_cross_section(SPEC, 150.2)
    observables.total_cross_section(SPEC, 0.5, l_max=200)
    assert calls == []
