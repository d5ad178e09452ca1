"""Special-function kernel: frozen oracle values, identities, pole behavior."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import specfun
from qmie.errors import DomainError, ResourceLimitError
from quadrature import solid_angle_grid

mpmath.mp.dps = 40


def oracle_j(l: int, x: float) -> float:
    xm = mpmath.mpf(x)
    return float(mpmath.sqrt(mpmath.pi / (2 * xm)) * mpmath.besselj(l + mpmath.mpf(1) / 2, xm))


# ---------------------------------------------------------------- bessel j

def test_j_at_sin_root_argument():
    out = specfun.spherical_bessel_j(0, math.pi)
    assert abs(out[0]) < 1e-16


def test_j_at_origin():
    out = specfun.spherical_bessel_j(2, 0.0)
    assert out.tolist() == [1.0, 0.0, 0.0]


def test_j_sequence_against_high_precision_oracle():
    # spot sequence frozen from a 40-digit downward-recurrence evaluation
    out = specfun.spherical_bessel_j(50, 10.0)
    assert out[25] == pytest.approx(1.2843422360095697e-09, rel=1e-12)
    assert out[50] == pytest.approx(2.2306960232186467e-31, rel=1e-12)
    for l in range(51):
        assert out[l] == pytest.approx(oracle_j(l, 10.0), rel=1e-12)


@pytest.mark.parametrize(
    "x", [1e-8, 1e-4, 0.03, 0.7, 2.0, 5.0, 9.4, 10.0, 17.3, 29.0, 41.5, 50.0]
)
def test_j_oracle_grid(x):
    out = specfun.spherical_bessel_j(60, x)
    for l in range(61):
        ref = oracle_j(l, x)
        if abs(ref) < 1e-280:
            continue
        assert out[l] == pytest.approx(ref, rel=1e-12)


def test_j_rejects_nan_and_negative():
    with pytest.raises(DomainError):
        specfun.spherical_bessel_j(3, float("nan"))
    with pytest.raises(DomainError):
        specfun.spherical_bessel_j(3, -1.0)


def test_order_cap_enforced():
    with pytest.raises(ResourceLimitError):
        specfun.spherical_bessel_j(513, 1.0)
    with pytest.raises(DomainError):
        specfun.spherical_bessel_j(-1, 1.0)


# ---------------------------------------------------------------- bessel y

def test_y_closed_form_zero():
    out = specfun.spherical_bessel_y(0, math.pi / 2)
    assert abs(out[0]) < 1e-16


def test_y_frozen_oracle_value():
    out = specfun.spherical_bessel_y(25, 5.0)
    assert out[25] == pytest.approx(-50682639748971.25, rel=1e-12)


def test_y_rejects_nonpositive():
    for bad in (0.0, -2.0):
        with pytest.raises(DomainError):
            specfun.spherical_bessel_y(4, bad)


def test_wronskian_grid():
    # j_{l+1} y_l - j_l y_{l+1} = 1/x^2
    for x in np.geomspace(1e-3, 50.0, 23):
        j = specfun.spherical_bessel_j(61, x)
        y = specfun.spherical_bessel_y(61, x)
        target = 1.0 / (x * x)
        for l in range(61):
            w = j[l + 1] * y[l] - j[l] * y[l + 1]
            assert w == pytest.approx(target, rel=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1e-3, max_value=50.0),
    l=st.integers(min_value=0, max_value=60),
)
def test_wronskian_property(x, l):
    j = specfun.spherical_bessel_j(l + 1, x)
    y = specfun.spherical_bessel_y(l + 1, x)
    w = j[l + 1] * y[l] - j[l] * y[l + 1]
    assert w == pytest.approx(1.0 / (x * x), rel=1e-11)


# ---------------------------------------------------------------- hankel h1

def test_h1_closed_form_l0():
    x = 1.7
    out = specfun.spherical_hankel_h1(0, x)
    assert out[0] == pytest.approx(-1j * np.exp(1j * x) / x, rel=1e-14)


def test_h1_is_exact_composition():
    x = 3.0
    h = specfun.spherical_hankel_h1(10, x)
    j = specfun.spherical_bessel_j(10, x)
    y = specfun.spherical_bessel_y(10, x)
    assert np.array_equal(h.real, j)
    assert np.array_equal(h.imag, y)


def test_h1_frozen_oracle_value():
    out = specfun.spherical_hankel_h1(10, 3.0)
    assert out[10].real == pytest.approx(3.5260038931752564e-06, rel=1e-12)
    assert out[10].imag == pytest.approx(-4699.8591888113915, rel=1e-12)


# ---------------------------------------------------------------- legendre

def test_legendre_trivial_values():
    for l in (0, 1, 2, 7, 19):
        assert specfun.legendre_p(l, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert specfun.legendre_p(2, 0.0) == pytest.approx(-0.5, rel=1e-15)
    assert specfun.legendre_p(1, -0.3) == -0.3


def test_legendre_domain():
    with pytest.raises(DomainError):
        specfun.legendre_p(3, 1.0001)


# ---------------------------------------------------------------- harmonics

def test_harmonic_constant_mode():
    val = specfun.spherical_harmonic(0, 0, (0.4, 2.2))
    assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-15)


def test_harmonic_polar_value():
    val = specfun.spherical_harmonic(1, 0, (0.0, 0.0))
    assert val == pytest.approx(math.sqrt(3 / (4 * math.pi)), rel=1e-15)


def test_harmonic_frozen_oracle_value():
    val = specfun.spherical_harmonic(3, 2, (1.1, 0.7))
    assert val == pytest.approx(0.06258014418941467 + 0.3628323989083785j, rel=1e-13)


def test_harmonic_conjugation_exact():
    block = specfun.spherical_harmonics_block(8, 0.9, 2.45)
    for l in range(9):
        for m in range(l + 1):
            plus = block.y[l, block.idx(m)]
            minus = block.y[l, block.idx(-m)]
            assert minus == (-1) ** m * np.conj(plus)


def test_harmonic_domain():
    with pytest.raises(DomainError):
        specfun.spherical_harmonic(2, 3, (0.3, 0.3))


def test_addition_theorem():
    rng = np.random.default_rng(20260815)
    for _ in range(12):
        t1, t2 = rng.uniform(0.05, math.pi - 0.05, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        cos_gamma = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
        for l in (1, 4, 11, 20):
            acc = 0.0j
            for m in range(-l, l + 1):
                acc += np.conj(specfun.spherical_harmonic(l, m, (t1, p1))) * specfun.spherical_harmonic(l, m, (t2, p2))
            target = (2 * l + 1) / (4 * math.pi) * specfun.legendre_p(l, cos_gamma)
            assert acc.real == pytest.approx(target, rel=1e-12, abs=1e-12)
            assert abs(acc.imag) < 1e-13


def test_pole_rows_are_finite():
    for theta in (0.0, math.pi):
        block = specfun.spherical_harmonics_block(12, theta, 1.3)
        assert np.all(np.isfinite(block.y))
        assert np.all(np.isfinite(block.dtheta_y))
        assert np.all(np.isfinite(block.m_y_over_sin))
        # only m=0 harmonics survive at the poles
        for l in range(13):
            for m in range(-l, l + 1):
                val = block.y[l, block.idx(m)]
                if m == 0:
                    ref = math.sqrt((2 * l + 1) / (4 * math.pi))
                    if theta == math.pi:
                        ref *= (-1) ** l
                    assert val == pytest.approx(ref, rel=1e-14)
                else:
                    # theta=pi carries sin(pi) ~ 1e-16 through the diagonal
                    # seed, amplified by the l-dependent normalization
                    assert abs(val) < 1e-13


def test_angular_point_validation():
    with pytest.raises(DomainError):
        specfun.AngularPoint(-0.1, 0.0)
    with pytest.raises(DomainError):
        specfun.AngularPoint(math.pi + 0.1, 0.0)
    wrapped = specfun.AngularPoint(1.0, 2 * math.pi + 0.5)
    assert wrapped.phi == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------- vector harmonics

def test_x10_closed_form():
    # X_1^0 = i sqrt(3/8pi) sin(theta) e_phi
    for theta in (0.3, 1.2, 2.8):
        trip = specfun.vector_spherical_harmonics(1, 0, (theta, 0.9))
        expect = 1j * math.sqrt(3 / (8 * math.pi)) * math.sin(theta)
        assert trip.X[0] == 0.0
        assert abs(trip.X[1]) < 1e-16
        assert trip.X[2] == pytest.approx(expect, rel=1e-14)


def test_x_is_tangential():
    rng = np.random.default_rng(7)
    for _ in range(20):
        l = int(rng.integers(1, 9))
        m = int(rng.integers(-l, l + 1))
        theta = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0, 2 * math.pi)
        trip = specfun.vector_spherical_harmonics(l, m, (theta, phi))
        assert trip.X[0] == 0.0


def test_vsh_l0_rejected():
    with pytest.raises(DomainError):
        specfun.vector_spherical_harmonics(0, 0, (1.0, 1.0))


def test_vsh_orthonormality_gram():
    l_max = 6
    theta, phi, w = solid_angle_grid(24, 32)
    labels = [(fam, l, m) for fam in range(3) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    vecs = np.zeros((len(labels), theta.size, 3), dtype=complex)
    for ipt in range(theta.size):
        bx, bv, bw = specfun.vector_harmonics_block(l_max, theta[ipt], phi[ipt])
        fams = (bx, bv, bw)
        for irow, (fam, l, m) in enumerate(labels):
            vecs[irow, ipt] = fams[fam][l, m + l_max]
    gram = np.einsum("apc,bpc,p->ab", np.conj(vecs), vecs, w)
    assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-10


def test_block_matches_single_mode_api():
    theta, phi = 0.77, 4.1
    bx, bv, bw = specfun.vector_harmonics_block(5, theta, phi)
    for l in (1, 3, 5):
        for m in (-l, 0, l - 1):
            trip = specfun.vector_spherical_harmonics(l, m, (theta, phi))
            assert np.allclose(bx[l, m + 5], trip.X, rtol=0, atol=1e-16)
            assert np.allclose(bv[l, m + 5], trip.V, rtol=0, atol=1e-16)
            assert np.allclose(bw[l, m + 5], trip.W, rtol=0, atol=1e-16)


def test_spherical_to_cartesian_roundtrip():
    theta, phi = 1.1, 0.6
    e_r, e_theta, e_phi = specfun.unit_vectors(theta, phi)
    basis = np.stack([e_r, e_theta, e_phi])
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-15)
    v = specfun.spherical_to_cartesian(np.array([1.0, 2.0, -0.5]), theta, phi)
    assert np.allclose(v, 1.0 * e_r + 2.0 * e_theta - 0.5 * e_phi)


# ------------------------------------------------------------ batched layer

def chunk_directions(l_max):
    return specfun.CHUNK_VALUES // ((l_max + 1) * (2 * l_max + 1))


def random_directions(n, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi, n)
    theta[:2] = (0.0, math.pi)
    return theta, rng.uniform(-1.0, 2 * math.pi + 1.0, n)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_block_matches_per_direction(offset):
    l_max = 6
    n = chunk_directions(l_max) + offset
    theta, phi = random_directions(n, 100 + offset)
    y, dy, u = specfun.spherical_harmonics_batch(l_max, theta, phi)
    assert y.shape == (n, l_max + 1, 2 * l_max + 1)
    bx, bv, bw = specfun.vector_harmonics_batch(l_max, theta, phi)
    assert bx.shape == (n, l_max + 1, 2 * l_max + 1, 3)
    for i in range(n):
        block = specfun.spherical_harmonics_block(l_max, theta[i], phi[i])
        for got, ref in ((y, block.y), (dy, block.dtheta_y), (u, block.m_y_over_sin)):
            assert np.max(np.abs(got[i] - ref)) <= 1e-14 * np.max(np.abs(ref))
        for got, ref in zip((bx, bv, bw), specfun.vector_harmonics_block(l_max, theta[i], phi[i])):
            assert np.max(np.abs(got[i] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_contraction_matches_per_direction_sums(offset):
    # the m sums cross a chunk boundary of the direction batch
    l_max = 6
    n = chunk_directions(l_max) + offset
    theta, phi = random_directions(n, 200 + offset)
    rng = np.random.default_rng(300 + offset)
    weights = rng.normal(size=(2, l_max + 1, 2 * l_max + 1)) \
        + 1j * rng.normal(size=(2, l_max + 1, 2 * l_max + 1))
    sums = specfun.vector_harmonics_contract(l_max, theta, phi, weights)
    for i in range(n):
        for got, fam in zip(sums, specfun.vector_harmonics_block(l_max, theta[i], phi[i])):
            ref = np.einsum("klm,lmc->klc", weights, fam)
            assert np.max(np.abs(got[i] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_batch_rejects_bad_directions():
    with pytest.raises(DomainError):
        specfun.spherical_harmonics_batch(3, [0.1, math.pi + 0.1], [0.0, 0.0])
    with pytest.raises(DomainError):
        specfun.vector_harmonics_batch(3, [0.1, 0.2], [0.0])
    with pytest.raises(DomainError):
        specfun.vector_harmonics_contract(3, [0.1], [0.0], np.zeros((1, 3, 7)))
