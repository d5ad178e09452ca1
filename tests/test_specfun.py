"""Special-function kernel: frozen oracle values, identities, pole behavior."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from qmie import specfun
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import ChannelIndex, SphereSpec, phase_table
from qmie.modes import SphericalModeIndex
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


@pytest.mark.parametrize("sweep", [specfun.spherical_bessel_j, specfun.spherical_bessel_y])
def test_public_sweeps_take_one_order(sweep):
    # per-argument tops are private to _j_scaled
    with pytest.raises(DomainError, match="must be an integer"):
        sweep(np.array([3, 5]), np.array([1.0, 2.0]))


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
    y = specfun.spherical_harmonics_batch(8, 0.9, 2.45)[0][0]
    for l in range(9):
        for m in range(l + 1):
            assert y[l, 8 - m] == (-1) ** m * np.conj(y[l, 8 + m])


def test_harmonic_domain():
    with pytest.raises(DomainError):
        specfun.spherical_harmonic(2, 3, (0.3, 0.3))


def test_fractional_m_is_a_domain_error():
    # 1.5 passed |m| <= l and then failed as an array index
    for evaluate in (specfun.spherical_harmonic, specfun.vector_spherical_harmonics):
        with pytest.raises(DomainError, match="integer"):
            evaluate(2, 1.5, (0.3, 0.2))
    assert specfun.spherical_harmonic(2, -1.0, (0.3, 0.2)) == \
        specfun.spherical_harmonic(2, -1, (0.3, 0.2))


ORDER_ENTRY_POINTS = {
    "ChannelIndex": lambda n: ChannelIndex("TM", n),
    "SphericalModeIndex": lambda n: SphericalModeIndex(ChannelIndex("TM", 1), n, 1.0),
    "spherical_harmonic-m": lambda n: specfun.spherical_harmonic(2, n, (0.3, 0.2)),
    "spherical_harmonic-l": lambda n: specfun.spherical_harmonic(n, 0, (0.3, 0.2)),
    "spherical_bessel_j": lambda n: specfun.spherical_bessel_j(n, 1.0),
    "phase_table": lambda n: phase_table(SphereSpec(2.1, 1.0), 1.0, n),
}


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRY_POINTS))
def test_non_finite_order_is_a_domain_error(entry, order):
    # int(nan) and int(inf) raise ValueError and OverflowError of their own
    with pytest.raises(DomainError, match="must be an integer"):
        ORDER_ENTRY_POINTS[entry](order)


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
            target = (2 * l + 1) / (4 * math.pi) * eval_legendre(l, cos_gamma)
            assert acc.real == pytest.approx(target, rel=1e-12, abs=1e-12)
            assert abs(acc.imag) < 1e-13


def test_pole_rows_are_finite():
    for theta in (0.0, math.pi):
        y, dy, u = (f[0] for f in specfun.spherical_harmonics_batch(12, theta, 1.3))
        assert np.all(np.isfinite(y))
        assert np.all(np.isfinite(dy))
        assert np.all(np.isfinite(u))
        # only m=0 harmonics survive at the poles
        for l in range(13):
            for m in range(-l, l + 1):
                val = y[l, m + 12]
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
        specfun.spherical_harmonic(3, 1, (-0.1, 0.0))
    with pytest.raises(DomainError):
        specfun.spherical_harmonic(3, 1, (math.pi + 0.1, 0.0))
    for evaluate in (specfun.spherical_harmonic, specfun.vector_spherical_harmonics):
        with pytest.raises(DomainError, match="one"):
            evaluate(3, 1, ([0.1, 0.2], [0.0, 0.0]))
    wrapped = specfun.spherical_harmonic(3, 1, (1.0, 2 * math.pi + 0.5))
    assert wrapped == pytest.approx(specfun.spherical_harmonic(3, 1, (1.0, 0.5)), rel=1e-12)


# ---------------------------------------------------------- vector harmonics

def vector_batch(l_max, theta, phi):
    """(X, V, W) for every l <= l_max, |m| <= l at N directions, each
    (N, l_max + 1, 2 l_max + 1, 3): the families of the scalar batch."""
    return specfun._vector_families(np.arange(l_max + 1.0)[:, None],
                                    *specfun.spherical_harmonics_batch(l_max, theta, phi))


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
    fams = vector_batch(l_max, theta, phi)
    vecs = np.array([fams[fam][:, l, m + l_max] for fam, l, m in labels])
    gram = np.einsum("apc,bpc,p->ab", np.conj(vecs), vecs, w)
    assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-10


def test_block_matches_single_mode_api():
    theta, phi = 0.77, 4.1
    bx, bv, bw = (f[0] for f in vector_batch(5, theta, phi))
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

def random_directions(n, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi, n)
    theta[:2] = (0.0, math.pi)
    return theta, rng.uniform(-1.0, 2 * math.pi + 1.0, n)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_block_matches_per_direction(offset):
    l_max = 6
    n = 546 + offset
    theta, phi = random_directions(n, 100 + offset)
    y, dy, u = specfun.spherical_harmonics_batch(l_max, theta, phi)
    assert y.shape == (n, l_max + 1, 2 * l_max + 1)
    bx, bv, bw = vector_batch(l_max, theta, phi)
    assert bx.shape == (n, l_max + 1, 2 * l_max + 1, 3)
    for i in range(n):
        for got, ref in zip((y, dy, u), specfun.spherical_harmonics_batch(l_max, theta[i], phi[i])):
            assert np.max(np.abs(got[i] - ref[0])) <= 1e-14 * np.max(np.abs(ref[0]))
        for got, ref in zip((bx, bv, bw), vector_batch(l_max, theta[i], phi[i])):
            assert np.max(np.abs(got[i] - ref[0])) <= 1e-14 * np.max(np.abs(ref[0]))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_contraction_matches_per_direction_sums(offset):
    # every (l, m) up to l_max, one direction either side of the default
    # chunk of |m| = l_max - 1, against the vector families of one block
    # per direction
    l_max = 6
    n = specfun.CHUNK_VALUES // (2 * l_max + 1) + offset
    theta, phi = random_directions(n, 200 + offset)
    blocks = [np.concatenate(f) for f in zip(*(vector_batch(l_max, t, p)
                                               for t, p in zip(theta, phi)))]
    scales = [np.max(np.abs(b), axis=(1, 2, 3)) for b in blocks]
    for l in range(1, l_max + 1):
        for m in range(-l, l + 1):
            fams = specfun._vector_families(np.array([float(l)]),
                                            *specfun.spherical_harmonic_at(l, m, theta, phi))
            for got, ref, scale in zip(fams, blocks, scales):
                assert np.all(np.max(np.abs(got - ref[:, l, m + l_max]), axis=1) <= 1e-14 * scale)


def test_tiny_negative_phi_wraps_to_zero():
    # np.mod(-1e-300, 2 pi) rounds to 2 pi itself, outside [0, 2 pi)
    for l, m in ((1, 1), (7, 3), (40, -17)):
        at_zero = specfun.spherical_harmonic_at(l, m, [0.3, 2.0], [0.0, 0.0])
        for phi in (-1e-300, -5e-324):
            got = specfun.spherical_harmonic_at(l, m, [0.3, 2.0], [phi, phi])
            assert got.tobytes() == at_zero.tobytes()


def test_batch_rejects_bad_directions():
    with pytest.raises(DomainError):
        specfun.spherical_harmonics_batch(3, [0.1, math.pi + 0.1], [0.0, 0.0])
    with pytest.raises(DomainError):
        specfun.spherical_harmonics_batch(3, [0.1, 0.2], [0.0])
    for theta, phi in (([0.1, math.pi + 0.1], [0.0, 0.0]), ([0.1, 0.2], [0.0]),
                       ([0.1, math.nan], [0.0, 0.0]), ([[0.1]], [[0.0]])):
        with pytest.raises(DomainError):
            specfun.spherical_harmonic_at(3, 1, theta, phi)
    for l, m in ((3, 4), (3, 1.5), (-1, 0)):
        with pytest.raises(DomainError):
            specfun.spherical_harmonic_at(l, m, [0.1], [0.0])
    with pytest.raises(ResourceLimitError):
        specfun.spherical_harmonic_at(513, 0, [0.1], [0.0])
