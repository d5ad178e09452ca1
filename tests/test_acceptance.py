"""End-to-end acceptance checks, one test per release criterion.

Each test carries its stated numerical tolerance and a wall-clock budget;
the terminal summary prints one PASS/FAIL line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from qmie import bogoliubov as bg
from qmie import cli, modes, observables, specfun
from qmie.miecore import ChannelIndex, SphereSpec, phase_shift, truncation_order
from qmie.modes import PlaneModeIndex, SphericalModeIndex
from mie_oracle import mie_ab
from quadrature import solid_angle_grid

EPS_GRID = (1.5, 2.1, 4.0)
Q_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def direction_vector(theta, phi):
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])


def unit_vectors(theta, phi):
    r = direction_vector(theta, phi)
    t = np.array([
        math.cos(theta) * math.cos(phi),
        math.cos(theta) * math.sin(phi),
        -math.sin(theta),
    ])
    p = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return r, t, p


def test_criterion_01_classical_series_equivalence():
    start = time.perf_counter()
    for eps in EPS_GRID:
        spec = SphereSpec(eps, 1.0)
        for q in Q_GRID:
            l_max = truncation_order(q)
            a, b = mie_ab(math.sqrt(eps), q, l_max)
            for l in range(1, l_max + 1):
                tm = phase_shift(spec, q, ChannelIndex("TM", l)).sin_phi ** 2
                te = phase_shift(spec, q, ChannelIndex("TE", l)).sin_phi ** 2
                for got, ref in ((tm, abs(a[l - 1]) ** 2), (te, abs(b[l - 1]) ** 2)):
                    if ref > 1e-30:
                        assert got == pytest.approx(ref, rel=1e-10)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_rayleigh_limit():
    start = time.perf_counter()
    spec = SphereSpec(2.1, 1.0)
    devs = []
    for q in (0.01, 0.005):
        sigma = observables.total_cross_section(spec, q).sigma
        rayleigh = (8.0 * math.pi / 3.0) * ((spec.epsilon - 1.0) / (spec.epsilon + 2.0)
                                            * q**2 * spec.radius) ** 2
        devs.append(abs(sigma / rayleigh - 1.0))
    assert devs[0] < 1e-3
    assert devs[1] < devs[0] / 3.0
    assert time.perf_counter() - start < 1.0


def test_criterion_03_optical_theorem():
    start = time.perf_counter()
    for eps in EPS_GRID:
        spec = SphereSpec(eps, 1.0)
        for q in Q_GRID:
            k = q / spec.radius
            sigma = observables.total_cross_section(spec, q).sigma
            kap = PlaneModeIndex(1, (0.0, 0.0, k))
            fwd = observables.scattering_amplitude(spec, kap, kap).value
            assert fwd.imag == pytest.approx(k * sigma / (4.0 * math.pi), rel=1e-10)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_channel_power_peaks():
    start = time.perf_counter()
    spec = SphereSpec(2.1, 1.0)
    targets = {("TM", 1): 3.4, ("TE", 1): 4.0, ("TM", 2): 4.0,
               ("TE", 2): 4.3, ("TM", 3): 4.6}
    qs = np.arange(2.8, 5.2, 0.02)
    for (p, l), q_ref in targets.items():
        ch = ChannelIndex(p, l)
        vals = [observables.p_alpha(spec, float(q), ch) for q in qs]
        q_star = float(qs[int(np.argmax(vals))])
        assert abs(q_star - q_ref) <= 0.1, f"{p}:{l} peaked at {q_star}"
    assert time.perf_counter() - start < 10.0


def test_criterion_05_hom_surface():
    start = time.perf_counter()
    spec = SphereSpec(2.1, 1.0)
    k = 0.01 / spec.radius
    kap1 = PlaneModeIndex(1, (k, 0.0, 0.0))
    kap2 = PlaneModeIndex(1, (0.0, k, 0.0))
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    grid = observables.g2_map(spec, kap1, kap2, "z", "z",
                              math.pi / 4.0, 3.0 * math.pi / 4.0, phis, phis,
                              r_detector=1e3 / k)
    ref = np.sin(phis[:, None] + phis[None, :]) ** 2
    assert np.nanmax(np.abs(grid.values - ref)) <= 0.02
    # every deep zero of the surface sits on phi1 + phi2 = n pi within the
    # grid spacing, and the on-line points themselves are deep zeros
    spacing = phis[1] - phis[0]
    sums = phis[:, None] + phis[None, :]
    line_dist = np.abs((sums + math.pi / 2.0) % math.pi - math.pi / 2.0)
    deep = grid.values < 1e-4
    assert np.all(line_dist[deep] < spacing)
    on_line = line_dist < 1e-12
    assert on_line.any()
    assert np.nanmax(grid.values[on_line]) < 1e-3
    assert time.perf_counter() - start < 60.0


def test_criterion_06_interface_conditions():
    start = time.perf_counter()
    spec = SphereSpec(2.1, 1.0)
    rng = np.random.default_rng(41)
    for q in (0.3, 1.0, 3.0):
        k = q / spec.radius
        for (p, l, m) in (("TE", 1, 0), ("TM", 1, 1), ("TE", 3, -2), ("TM", 2, 2)):
            mode = SphericalModeIndex(ChannelIndex(p, l), m, k)
            theta, phi = rng.uniform(0.2, 2.9), rng.uniform(0.0, 2.0 * math.pi)
            nhat = direction_vector(theta, phi)
            _, e_t, e_p = unit_vectors(theta, phi)
            r_in = spec.radius * (1.0 - 1e-12) * nhat
            r_out = spec.radius * (1.0 + 1e-12) * nhat
            s_in = modes.spherical_eigenmode(spec, mode, r_in).value
            s_out = modes.spherical_eigenmode(spec, mode, r_out).value
            c_in = modes.curl_spherical_eigenmode(spec, mode, r_in).value
            c_out = modes.curl_spherical_eigenmode(spec, mode, r_out).value
            scale_s = np.max(np.abs(np.concatenate([s_in, s_out])))
            scale_c = np.max(np.abs(np.concatenate([c_in, c_out])))
            for e in (e_t, e_p):
                assert abs(np.dot(e, s_in) - np.dot(e, s_out)) < 1e-9 * scale_s
                assert abs(np.dot(e, c_in) - np.dot(e, c_out)) < 1e-9 * scale_c
            assert abs(spec.epsilon * np.dot(nhat, s_in)
                       - np.dot(nhat, s_out)) < 1e-9 * scale_s
    assert time.perf_counter() - start < 5.0


def test_criterion_07_plane_wave_reconstruction():
    start = time.perf_counter()
    k = 1.0
    kap = PlaneModeIndex(2, (k * 0.48, k * 0.36, k * 0.8))
    l_max = truncation_order(k) + 8
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(12):
        pt = rng.uniform(-1.0, 1.0, size=3)
        pt *= rng.uniform(0.1, 5.0) / (k * np.linalg.norm(pt))
        exact = modes.plane_wave_mode(kap, pt).value
        rec = modes.scattering_eigenmode(
            SphereSpec(1.0, 1.0), kap, "outgoing", pt, l_max=l_max).value
        worst = max(worst, float(np.max(np.abs(rec - exact))))
    assert worst < 1e-8
    assert time.perf_counter() - start < 5.0


def test_criterion_08_cross_section_form_equivalence():
    start = time.perf_counter()
    khat = direction_vector(1.1, 0.6)
    for eps in EPS_GRID:
        spec = SphereSpec(eps, 1.0)
        for q in Q_GRID:
            k = q / spec.radius
            result = observables.total_cross_section(spec, q)
            kap = PlaneModeIndex(1, tuple(k * khat))
            coeffs = modes.plane_wave_coefficients(kap, result.l_max_used)
            weight_by_channel = {}
            for c in coeffs:
                weight_by_channel[c.channel] = (
                    weight_by_channel.get(c.channel, 0.0) + abs(c.value) ** 2
                )
            acc = 0.0
            for channel, weight in weight_by_channel.items():
                acc += weight * phase_shift(spec, q, channel).sin_phi ** 2
            sigma_angular = 16.0 * math.pi**2 / k**2 * acc
            assert sigma_angular == pytest.approx(result.sigma, rel=1e-9)
    assert time.perf_counter() - start < 2.0


def test_criterion_09_coupling_kernel_properties():
    start = time.perf_counter()
    spec = SphereSpec(2.1, 1.0)
    kap = PlaneModeIndex(1, (0.0, 0.0, 0.5))
    kapp = PlaneModeIndex(2, (
        0.75 * math.sin(1.0) * math.cos(0.7),
        0.75 * math.sin(1.0) * math.sin(0.7),
        0.75 * math.cos(1.0),
    ))
    # linear vanishing toward transparency
    eps_grid = np.array([1.001, 1.002, 1.004])
    y = np.array([abs(bg.b_coefficient(SphereSpec(e, 1.0), kap, kapp).value)
                  for e in eps_grid])
    x = eps_grid - 1.0
    coef = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - np.polyval(coef, x)) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2 > 0.999
    # Hermiticity of the sphere-mediated coupling
    rng = np.random.default_rng(3)
    for _ in range(3):
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        k1, k2 = rng.uniform(0.3, 2.5, size=2)
        ka = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k1 * d1 / np.linalg.norm(d1)))
        kb = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k2 * d2 / np.linalg.norm(d2)))
        va = bg.coupling_v(spec, ka, kb).value
        vb = bg.coupling_v(spec, kb, ka).value
        assert abs(va - np.conj(vb)) <= 1e-12 * max(abs(va), 1e-6)
    # quadrature self-consistency at two tolerance levels
    for fn in (bg.coupling_v, bg.b_coefficient, bg.a_offdiagonal_kernel):
        loose = fn(spec, kap, kapp, rtol=1e-9)
        tight = fn(spec, kap, kapp, rtol=1e-12)
        assert abs(loose.value - tight.value) <= loose.abs_err + tight.abs_err + 1e-16
    assert time.perf_counter() - start < 30.0


def test_criterion_10_property_suites_and_cli_determinism(tmp_path):
    start = time.perf_counter()
    # spherical Bessel Wronskian j_{l+1} y_l - j_l y_{l+1} = 1/x^2
    for x in np.geomspace(0.05, 40.0, 12):
        j = specfun.spherical_bessel_j(8, x)
        y = specfun.spherical_bessel_y(8, x)
        for l in range(8):
            w = j[l + 1] * y[l] - j[l] * y[l + 1]
            assert w == pytest.approx(1.0 / x**2, rel=1e-11)
    # vector harmonic orthonormality under solid-angle quadrature
    theta, phi, w = solid_angle_grid(24, 32)
    families = specfun._vector_families(np.arange(7.0)[:, None],
                                        *specfun.spherical_harmonics_batch(6, theta, phi))
    gram_sets = []
    for arr in families:
        flat = arr.reshape(arr.shape[0], -1, 3)
        gram = np.einsum("pac,pbc,p->ab", np.conj(flat), flat, w)
        gram_sets.append(gram)
    ls = np.arange(7)[:, None]
    ms = np.arange(-6, 7)[None, :]
    valid = (np.abs(ms) <= ls) & (ls >= 1)
    for gram in gram_sets:
        idx = np.flatnonzero(valid.ravel())
        sub = gram[np.ix_(idx, idx)]
        assert np.max(np.abs(sub - np.eye(idx.size))) < 1e-10
    # in/out conjugacy of the radial families
    spec = SphereSpec(2.1, 1.0)
    for (kind, r) in (("full", 0.4), ("full", 2.3), ("scattered", 1.7)):
        f_out = modes._radial_tables(spec, 1.3, r, 5, "outgoing", kind)
        f_in = modes._radial_tables(spec, 1.3, r, 5, "incoming", kind)
        for a, b in zip(f_out, f_in):
            assert np.array_equal(np.conj(a), b)
    # unimodular scattering channels
    for q in (0.5, 3.0):
        for ch in observables.s_matrix_channels(spec, q):
            assert abs(abs(ch.value) - 1.0) < 1e-14
    # byte-identical CLI reruns
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["cross-section", "--epsilon", "2.1", "--q", "2.0"]
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes().replace(str(a).encode(), b"") == \
        b.read_bytes().replace(str(b).encode(), b"")
    assert time.perf_counter() - start < 30.0
