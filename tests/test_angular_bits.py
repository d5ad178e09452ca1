"""The harmonic block, pinned byte for byte.

Every route to the harmonics runs one Legendre row recurrence, so comparing
the routes with each other cannot catch a change in its bits. These sha256
digests were recorded from the separate recurrences the routes ran before
they shared one; zero signs at the poles and at theta > pi/2 are among the
pinned bytes. One (l, m) at many directions (``spherical_harmonic_at``)
equals the block bit for bit (tests/test_contraction.py).
"""

import hashlib
import math

import numpy as np
import pytest

from qmie import specfun


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def directions(n):
    """n directions from theta = pi (n = 1) or theta = 0 through pi; phi
    runs past 2 pi so that its wrap is pinned too."""
    theta = np.linspace(0.0, math.pi, n) if n > 1 else np.array([math.pi])
    return theta, 0.3 + 0.7 * np.arange(n)


# (l_max, N): every l_max with N = 1 and 2, N = 91 up to l_max 55
BATCH_DIGESTS = {
    (1, 1):
        "c7f6216f0259357a28ea0809f4aaf3ad957baf295d4af2527c417060a073c8e3",
    (1, 2):
        "5cba151b83eca79389928fb048be902178e8d3654a036f43953c02f0c4a03266",
    (1, 91):
        "78721c6ad74aa806169ebb7a1f1a804aa406de383a670e2bdf98538763c75022",
    (2, 1):
        "bb1d6445ab57d093d0bce28aa315217a3591ef28879b695da7d1962d43932a3e",
    (2, 2):
        "4e90b0099ac1a97577f2a49c0af13632139ddaf5ed2dd70f8906f373e81919b6",
    (2, 91):
        "1ec5607b070357b8872308316f322b21575bb3d2a02bd2f0af8b2ae653a7abf2",
    (3, 1):
        "dedbb42dd9ec8337be2b0d183bf1d8d4454a123414bba7ad855637b8318deabc",
    (3, 2):
        "2198f0a7692b0c9674d2a7206fd042b10ef5accda7bcbab341e977364580d767",
    (3, 91):
        "d7fdaed631a1f14ce50fc7effc266319bfd66591a36c68684206db8e9f9d4be2",
    (55, 1):
        "3b2803f03b54037840902fc7e9c340a0a84408615dae62603e4bb30c4e8ac811",
    (55, 2):
        "4637460d4365a22bef4a7e88ffe384ba72213ddcda8b01b4d09ca1b2836e0629",
    (55, 91):
        "96b7d8a995cb1640234c32fc84e8d7d81bd3ac488c3c6d7dcfd8cefac3cad37d",
    (181, 1):
        "87c04470537e481e61a912eb5653ad660e17e402b5a077fa954aefceb7afb958",
    (181, 2):
        "effb0030b6721a70cad541232f6b9209626cd57b61b1a9e03d112d8a49fc8a9a",
}


@pytest.mark.parametrize("l_max,n", sorted(BATCH_DIGESTS))
def test_harmonics_batch_bits(l_max, n):
    got = digest(specfun.spherical_harmonics_batch(l_max, *directions(n)))
    assert got == BATCH_DIGESTS[l_max, n]


def test_block_and_contraction_share_one_row_recurrence(monkeypatch):
    # every route to the harmonics runs _legendre_rows: the block with all
    # its rows, one (l, m) with a ring of three on the columns |m'| <= |m| + 1
    calls, rows = [], specfun._legendre_rows

    def counting(theta, band, l_stop, a, ab, ring):
        calls.append((band, l_stop, len(ring)))
        return rows(theta, band, l_stop, a, ab, ring)

    monkeypatch.setattr(specfun, "_legendre_rows", counting)
    theta, phi = directions(3)
    specfun.spherical_harmonics_batch(4, theta, phi)
    specfun.spherical_harmonic_at(4, -1, theta, phi)
    specfun.spherical_harmonic(4, 1, (theta[1], phi[1]))
    specfun.vector_spherical_harmonics(4, -1, (theta[1], phi[1]))
    specfun.spherical_harmonic_at(4, 4, theta, phi)
    assert calls == [(4, 5, 5)] + [(2, 5, 3)] * 3 + [(4, 5, 3)]


def test_recurrence_tables_are_cached_read_only():
    specfun._recurrence_tables.cache_clear()
    tables = specfun._recurrence_tables(40)
    assert specfun._recurrence_tables(40) is tables
    assert not any(t.flags.writeable for t in tables)
    # dn at m is up at -m: the mirrored view equals the ladder formula bit for bit
    up, dn = tables[2], tables[3]
    ls = np.arange(41, dtype=float)[:, None]
    m = np.arange(-40, 41, dtype=float)[None, :]
    ref = np.where((np.abs(m) <= ls) & (m - 1.0 >= -ls),
                   np.sqrt(np.maximum((ls + m) * (ls - m + 1.0), 0.0)), 0.0)
    assert np.array_equal(dn.view(np.int64), ref.view(np.int64))
    assert np.shares_memory(up, dn)


@pytest.mark.parametrize("l_max", [0, 1, 2, 5, 43, 178, 512])
def test_ladder_table_is_positive_zero_outside_its_band(l_max):
    # the band mask on the ladder coefficients is the unmasked formula's own
    # zeros: +0.0 wherever m < -l or m >= l
    specfun._recurrence_tables.cache_clear()
    up = specfun._recurrence_tables(l_max)[2]
    ls = np.arange(l_max + 1, dtype=float)[:, None]
    m = np.arange(-l_max, l_max + 1, dtype=float)[None, :]
    ref = np.where((np.abs(m) <= ls) & (m + 1.0 <= ls),
                   np.sqrt(np.maximum((ls - m) * (ls + m + 1.0), 0.0)), 0.0)
    assert np.array_equal(up.view(np.int64), ref.view(np.int64))
