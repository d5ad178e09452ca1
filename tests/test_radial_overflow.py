"""The radial family where y_l(k r) leaves the float range and sin phi underflows."""

import functools
import warnings

import numpy as np
import pytest

from qmie import cli, modes
from qmie.miecore import ChannelIndex, SphereSpec
from radial_reference import radial_tables as mp_radial_tables

SPEC = SphereSpec(2.1, 1.0)


def test_scattering_eigenmode_far_past_kr_matches_mpmath(monkeypatch):
    # orders up to 200 at k r = 0.76: y_l = -inf meets a sin phi of 0 in
    # plain floats
    args = (SPEC, modes.PlaneModeIndex(1, (0.5, 0.0, 0.0)), "outgoing", [1.5, 0.0, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = modes.scattering_eigenmode(*args, l_max=200).value
    assert np.all(np.isfinite(got))
    monkeypatch.setattr(modes, "_radial_tables", mp_radial_tables)
    ref = modes.scattering_eigenmode(*args, l_max=200).value
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_field_map_far_past_q_matches_mpmath(tmp_path, monkeypatch):
    path = tmp_path / "map.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["field-map", "--epsilon", "2.1", "--q", "0.5", "--channel", "TM:160",
                         "-o", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]
    grid = np.array([[float(x), 0.0, float(z)] for x, z, _ in rows])
    got = np.array([float(r[2]) for r in rows])
    assert got.size == 41 * 41 and np.all(np.isfinite(got))
    # the reference on every 7th point (inside, outside and the origin); the
    # map reads row l = 160 of the radial family only
    monkeypatch.setattr(modes, "_radial_tables",
                        functools.partial(mp_radial_tables, rows=(160,)))
    mode = modes.SphericalModeIndex(ChannelIndex("TM", 160), 0, 0.5)
    ref = modes.field_intensity_map(SPEC, mode, grid[::7])
    np.testing.assert_allclose(got[::7], ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("direction", ["outgoing", "incoming"])
@pytest.mark.parametrize("k,r", [(1.9, 1.01), (1.0, 2.0), (0.9, 1.2)])
def test_radial_family_with_rescaled_y_matches_mpmath(k, r, direction):
    # y_l'(k r) crosses the sweep's rescale threshold among l' = 139..151,
    # and near the surface sin phi y_l' outweighs j_l' although sin phi
    # itself underflows
    l_max = 150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = modes._radial_tables(SPEC, k, r, l_max, direction, "full")
    rows = range(140, l_max + 1)
    ref = mp_radial_tables(SPEC, k, r, l_max, direction, "full", rows=rows)
    for g, f in zip(got, ref):
        g, f = g[:, 140:], f[:, 140:]
        assert np.all(np.abs(f) > 0.0)
        np.testing.assert_allclose(g, f, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("direction", ["outgoing", "incoming"])
@pytest.mark.parametrize("k,r,l_max,first", [(1.3, 2.3, 5, 0), (1.9, 1.01, 143, 140)])
def test_scattered_radial_family_matches_mpmath(k, r, l_max, first, direction):
    # the scattered term is small against j_l' at low orders far out and at
    # high orders near the surface; forming it as (j_l' + S) - j_l' loses
    # its relative accuracy there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = modes._radial_tables(SPEC, k, r, l_max, direction, "scattered")
    rows = range(first, l_max + 1)
    ref = mp_radial_tables(SPEC, k, r, l_max, direction, "scattered", rows=rows)
    for g, f in zip(got, ref):
        g, f = g[:, first:], f[:, first:]
        normal = np.abs(f) >= np.finfo(float).tiny
        assert np.count_nonzero(normal) >= f.size // 2
        np.testing.assert_allclose(g[normal], f[normal], rtol=1e-12, atol=0.0)
