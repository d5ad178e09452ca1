"""The streamed vector-harmonic contraction against the whole-block route, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import specfun

# directions per slice of the reference, to bound its whole-block memory
REFERENCE_SLICE = 16


def block_sums(l_max, theta, phi, weights):
    """sum_m weights[k, l, m] F[n, l, m] from every harmonic of the whole block.

    The m sums run over all 2 l_max + 1 columns of Y, dY/dtheta and
    mY/sin(theta) at each direction.
    """
    theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
    sums = np.empty((3, theta.size, weights.shape[0], l_max + 1), dtype=complex)
    for start in range(0, theta.size, REFERENCE_SLICE):
        part = slice(start, start + REFERENCE_SLICE)
        block = specfun.spherical_harmonics_batch(l_max, theta[part], phi[part])
        for i, arr in enumerate(block):
            sums[i, part] = np.einsum("klm,nlm->nkl", weights, arr)
    return sums


def block_contract(l_max, theta, phi, weights):
    """The (X, V, W) families formed from ``block_sums``, as the contraction does."""
    sums = block_sums(l_max, theta, phi, weights)
    return specfun._vector_families(np.arange(l_max + 1, dtype=float), *sums)


def vector_contract(l_max, theta, phi, weights):
    """The (X, V, W) families formed from the streamed scalar contraction."""
    sums = specfun.spherical_harmonics_contract(l_max, theta, phi, weights)
    return specfun._vector_families(np.arange(l_max + 1, dtype=float), *sums)


def assert_same_bits(got, ref):
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert g.tobytes() == r.tobytes()


def directions(n, rng):
    theta = rng.uniform(0.0, math.pi, n)
    theta[:2] = (0.0, math.pi)
    return theta, rng.uniform(-1.0, 2.0 * math.pi + 1.0, n)


def support_weights(rng, k, l_max, m_top, kind):
    """Weights whose largest nonzero |m| is m_top (none for kind "zero")."""
    shape = (k, l_max + 1, 2 * l_max + 1)
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = np.arange(-l_max, l_max + 1)
    keep = np.abs(m) <= m_top
    if kind == "negative":
        keep &= m < 0
    w *= keep
    if kind == "row":
        w *= (np.arange(l_max + 1) == rng.integers(0, l_max + 1))[:, None]
    if kind == "zero":
        # signed zeros: a -0.0 weight is no live weight either
        w = np.copysign(np.zeros(shape), rng.normal(size=shape)) * (1 + 0j)
    return w


@st.composite
def contraction_cases(draw):
    l_max = draw(st.integers(1, 60), label="l_max")
    k = draw(st.sampled_from([1, 2, 3]), label="K")
    kind = draw(st.sampled_from(["band", "negative", "row", "zero"]), label="kind")
    m_top = draw(st.one_of(st.sampled_from([0, 1, l_max]), st.integers(0, l_max)), label="M")
    if kind == "negative":
        m_top = max(m_top, 1)
    chunk_values = draw(st.integers(1, 256), label="CHUNK_VALUES")
    chunks = draw(st.sampled_from([1, 2]), label="chunks")
    offset = draw(st.sampled_from([-1, 0, 1]), label="offset")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return l_max, k, kind, m_top, chunk_values, chunks, offset, seed


@settings(max_examples=80, deadline=None)
@given(case=contraction_cases())
def test_contraction_equals_whole_block_bit_for_bit(case):
    # chunks shrunk so that direction counts straddle one or two chunk
    # boundaries at every l_max; theta = 0 and pi are among the directions
    l_max, k, kind, m_top, chunk_values, chunks, offset, seed = case
    rng = np.random.default_rng(seed)
    weights = support_weights(rng, k, l_max, m_top, kind)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(specfun, "CHUNK_VALUES", chunk_values)
        n = max(2, chunks * specfun.chunk_directions(m_top) + offset)
        theta, phi = directions(n, rng)
        got = vector_contract(l_max, theta, phi, weights)
    assert all(f.shape == (n, k, l_max + 1, 3) for f in got)
    assert_same_bits(got, block_contract(l_max, theta, phi, weights))


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("l_max,m_top", [(5, 0), (5, 1), (12, 3), (20, 20)])
def test_contraction_crosses_default_chunk_boundary(l_max, m_top, offset):
    rng = np.random.default_rng(10 * l_max + m_top + offset)
    weights = support_weights(rng, 2, l_max, m_top, "band")
    theta, phi = directions(specfun.chunk_directions(m_top) + offset, rng)
    got = vector_contract(l_max, theta, phi, weights)
    assert_same_bits(got, block_contract(l_max, theta, phi, weights))
    got = specfun.spherical_harmonics_contract(l_max, theta, phi, weights)
    assert_same_bits(got, block_sums(l_max, theta, phi, weights))


def test_scalar_contraction_takes_l_max_zero():
    # the vector families start at l = 1; Y_0^0 sums do not
    theta, phi = directions(5, np.random.default_rng(4))
    weights = np.array([[[2.0 - 1.0j]], [[0.0]]])
    got = specfun.spherical_harmonics_contract(0, theta, phi, weights)
    assert_same_bits(got, block_sums(0, theta, phi, weights))
    assert np.all(got[0][:, 0, 0] == (2.0 - 1.0j) / math.sqrt(4.0 * math.pi))


@pytest.mark.parametrize("l,m", [(3, 5), (3, -2), (0, 0), (8, 8)])
def test_nan_weight_poisons_its_row_as_the_whole_block_does(l, m):
    # a NaN counts as a live weight, also at |m| > l where every harmonic
    # is zero
    l_max = 8
    rng = np.random.default_rng(7)
    weights = support_weights(rng, 2, l_max, 1, "band")
    weights[1, l, m + l_max] = math.nan
    theta, phi = directions(9, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = vector_contract(l_max, theta, phi, weights)
        ref = block_contract(l_max, theta, phi, weights)
    for g, r in zip(got, ref):
        assert np.array_equal(np.isnan(g), np.isnan(r))
        assert np.array_equal(g, r, equal_nan=True)
        assert np.all(np.isnan(g[:, 1, l]).any(axis=-1))
        assert not np.isnan(np.delete(g[:, 1], l, axis=1)).any()
        assert not np.isnan(g[:, 0]).any()


def test_single_high_order_weight_is_one_column():
    # the contraction of one (l, m) harmonic, as a field map of one
    # eigenmode asks for it, at orders where the whole block is large
    rng = np.random.default_rng(3)
    theta, phi = directions(6, rng)
    for l, m in ((160, 0), (160, -1), (100, 100)):
        weights = np.zeros((1, l + 1, 2 * l + 1))
        weights[0, l, m + l] = 1.0
        got = vector_contract(l, theta, phi, weights)
        assert_same_bits(got, block_contract(l, theta, phi, weights))
        ref = [specfun.vector_spherical_harmonics(l, m, (t, p)) for t, p in zip(theta, phi)]
        for f, name in zip(got, "XVW"):
            np.testing.assert_allclose(f[:, 0, l], [getattr(r, name) for r in ref],
                                       rtol=0.0, atol=1e-13)
