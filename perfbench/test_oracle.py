"""The benchmark's reference computations against known limits.

    python3 -m pytest perfbench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle

M = math.sqrt(2.1)

# Direct 3-D Gauss-Legendre quadrature of the sphere-volume integrals for the
# pair k = 0.5 z (g = 1), k' = 0.75 (sin 1 cos 0.7, sin 1 sin 0.7, cos 1)
# (g = 2) at eps = 2.1, R = 1; the same frozen values back the qmie tests.
KAP = np.array([0.0, 0.0, 0.5])
KAPP = 0.75 * np.array([math.sin(1.0) * math.cos(0.7), math.sin(1.0) * math.sin(0.7), math.cos(1.0)])
VOLUME_3D = {
    "V": -4.200836740850551e-20 - 5.641916387649206e-03j,
    "A_offdiag": 3.271462961915263e-04 - 4.657307403238113e-03j,
    "B": -3.229229046699860e-04 - 4.059912168719351e-03j,
}


def test_rayleigh_limit():
    x = 1e-3
    rayleigh = 8.0 / 3.0 * x**4 * ((M * M - 1.0) / (M * M + 2.0)) ** 2
    assert oracle.q_sca(M, x, 5) == pytest.approx(rayleigh, rel=1e-5)


@pytest.mark.parametrize("x", [0.3, 3.4, 20.0, 150.0])
def test_forward_amplitudes_equal_and_optical_theorem(x):
    s1, s2 = oracle.amplitudes(M, x, 1.0)
    assert abs(s1 - s2) <= 1e-12 * abs(s1)
    n_max = oracle.series_order(M * x)
    assert 4.0 / x**2 * s1.real == pytest.approx(oracle.q_sca(M, x, n_max), rel=1e-10)


def test_overflowing_orders_carry_zero():
    a, b, c, d = oracle.mie_coefficients(M, 0.5, 200)
    for arr in (a, b, c, d):
        assert np.all(np.isfinite(arr))
    assert abs(a[150]) == 0.0 and abs(a[0]) > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plane_wave_overlap_is_sphere_fourier_transform(seed):
    rng = np.random.default_rng(seed)
    k1, k2 = rng.normal(size=3), 1.7 * rng.normal(size=3)
    for g in (1, 2):
        for gp in (1, 2):
            e1, e2 = oracle.polarization(g, k1), oracle.polarization(gp, k2)
            series = oracle.sphere_overlap(2.1, 1.0, k1, e1, k2, e2, False, 40)
            closed = np.vdot(e1, e2) * oracle.sphere_fourier(1.0, k2 - k1)
            assert abs(series - closed) <= 1e-13 * max(1.0, abs(closed))


def test_transparent_interior_field_is_the_plane_wave():
    e1, e2 = oracle.polarization(1, KAP), oracle.polarization(2, KAPP)
    inside = oracle.sphere_overlap(1.0, 1.0, KAP, e1, KAPP, e2, True, 20)
    free = oracle.sphere_overlap(1.0, 1.0, KAP, e1, KAPP, e2, False, 20)
    assert abs(inside - free) <= 1e-15


@pytest.mark.parametrize("kind", ["V", "A_offdiag", "B"])
def test_kernels_match_3d_volume_quadrature(kind):
    k, kp = 0.5, 0.75
    prefactor = {
        "V": math.sqrt(k * kp) / 4.0 * (2.1 - 1.0) / 2.1,
        "A_offdiag": (2.1 - 1.0) / 2.0 * math.sqrt(k * kp) / (k - kp),
        "B": -(2.1 - 1.0) / 2.0 * math.sqrt(k * kp) / (k + kp),
    }[kind]
    got = oracle.kernel(kind, 2.1, 1.0, 1, KAP, 2, KAPP, n_max=12)
    ref = prefactor * VOLUME_3D[kind]
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_transparent_eigenmode_radial_is_bessel_j():
    # eps = 1: phi_l = 0 and the TE radial factor is j_l(kr) itself
    pts = np.array([[1.5, 0.0, 0.7], [0.0, 0.0, 3.0], [2.0, 0.0, -2.0]])
    got = oracle.eigenmode_intensity_outside(1.0 + 1e-15, 1.0, 2.0, "TE", 1, pts)
    r = np.linalg.norm(pts, axis=1)
    sin_t = np.hypot(pts[:, 0], pts[:, 1]) / r
    # |X_10|^2 = (3 / 8 pi) sin^2 theta
    j1 = np.sin(2.0 * r) / (2.0 * r) ** 2 - np.cos(2.0 * r) / (2.0 * r)
    assert got == pytest.approx((2.0 / math.pi) * j1**2 * 3.0 / (8.0 * math.pi) * sin_t**2, rel=1e-9)
