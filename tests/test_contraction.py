"""One spherical harmonic at many directions against the whole-block route, bit for bit.

``specfun.spherical_harmonic_at`` runs the Legendre rows of one (l, m) on the
columns |m'| <= |m| + 1, in a ring of three and in chunks of directions;
``spherical_harmonics_batch`` holds every row and column at once.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import specfun


def block_entry(l, m, theta, phi, l_max=None):
    """The [n, l, m + l_max] entries of the whole block, shaped (3, N)."""
    l_max = l if l_max is None else l_max
    return np.stack([f[:, l, m + l_max] for f in specfun.spherical_harmonics_batch(l_max, theta, phi)])


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def directions(n, rng):
    theta = rng.uniform(0.0, math.pi, n)
    theta[:2] = (0.0, math.pi)[:n]
    return theta, rng.uniform(-1.0, 2.0 * math.pi + 1.0, n)


def chunk(m, l):
    """Directions per chunk of spherical_harmonic_at at (l, m)."""
    return max(1, specfun.CHUNK_VALUES // (2 * min(abs(m) + 1, l) + 1))


@st.composite
def harmonic_cases(draw):
    l = draw(st.integers(0, 60), label="l")
    m = draw(st.one_of(st.sampled_from([0, l, -l]), st.integers(-l, l)), label="m")
    extra = draw(st.sampled_from([0, 0, 1, 3]), label="l_max - l")
    chunk_values = draw(st.integers(1, 256), label="CHUNK_VALUES")
    chunks = draw(st.sampled_from([1, 2]), label="chunks")
    offset = draw(st.sampled_from([-1, 0, 1]), label="offset")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return l, m, extra, chunk_values, chunks, offset, seed


@settings(max_examples=80, deadline=None)
@given(case=harmonic_cases())
def test_contraction_equals_whole_block_bit_for_bit(case):
    # chunks shrunk so that direction counts straddle one or two chunk
    # boundaries at every l; theta = 0 and pi are among the directions, and
    # each _legendre_rows call sees at most one chunk of them
    l, m, extra, chunk_values, chunks, offset, seed = case
    rng = np.random.default_rng(seed)
    sizes, rows = [], specfun._legendre_rows

    def counting(theta, *args):
        sizes.append(theta.size)
        return rows(theta, *args)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(specfun, "CHUNK_VALUES", chunk_values)
        step = chunk(m, l)
        n = max(2, chunks * step + offset)
        theta, phi = directions(n, rng)
        patch.setattr(specfun, "_legendre_rows", counting)
        got = specfun.spherical_harmonic_at(l, m, theta, phi)
    assert sizes == [min(step, n - start) for start in range(0, n, step)]
    assert_same_bits(got, block_entry(l, m, theta, phi))
    # a larger block gives the same values; at |m| = l its dY/dtheta may
    # be a zero of the other sign at the poles
    assert np.array_equal(got, block_entry(l, m, theta, phi, l + extra))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("l_max,m_top", [(5, 0), (5, 1), (12, 3), (20, 20)])
def test_contraction_crosses_default_chunk_boundary(l_max, m_top, offset):
    # one (l, m) = (l_max, +-m_top) at one direction either side of the
    # default chunk, as a field map of one eigenmode asks for it
    rng = np.random.default_rng(10 * l_max + m_top + offset)
    theta, phi = directions(chunk(m_top, l_max) + offset, rng)
    for m in (m_top, -m_top):
        got = specfun.spherical_harmonic_at(l_max, m, theta, phi)
        assert_same_bits(got, block_entry(l_max, m, theta, phi))


def test_scalar_contraction_takes_l_max_zero():
    # the vector families start at l = 1; Y_0^0 does not
    theta, phi = directions(5, np.random.default_rng(4))
    got = specfun.spherical_harmonic_at(0, 0, theta, phi)
    assert_same_bits(got, block_entry(0, 0, theta, phi))
    assert np.all(got[0] == 1.0 / math.sqrt(4.0 * math.pi))
    assert not np.any(got[1:])


def test_single_high_order_weight_is_one_column():
    # the vector families of one (l, m) harmonic, at orders where the whole
    # block is large, against that block's entry and the scalar API
    rng = np.random.default_rng(3)
    theta, phi = directions(6, rng)
    for l, m in ((160, 0), (160, -1), (100, 100)):
        got = specfun._vector_families(np.array([float(l)]), *specfun.spherical_harmonic_at(l, m, theta, phi))
        ref = [f[:, l, m + l] for f in specfun._vector_families(
            np.arange(l + 1.0)[:, None], *specfun.spherical_harmonics_batch(l, theta, phi))]
        for g, r in zip(got, ref):
            assert_same_bits(g, r)
        single = [specfun.vector_spherical_harmonics(l, m, (t, p)) for t, p in zip(theta, phi)]
        for f, name in zip(got, "XVW"):
            assert_same_bits(f, np.array([getattr(r, name) for r in single]))
