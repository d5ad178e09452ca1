"""Mode sums through the angle between photon and point: the scattering
eigenmodes and the g2-map photons against the m-sum route of
``msum_reference``, the cutoffs they accept and the direct form's default.
"""

import math
import pickle

import numpy as np
import pytest

from qmie import modes, observables, specfun
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import SphereSpec, phase_table, truncation_order
from qmie.modes import PlaneModeIndex
from msum_reference import mode_sum as msum_mode_sum

SPEC = SphereSpec(epsilon=2.1, radius=1.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def tilted(n, angle, rng):
    """n turned by angle about a random axis orthogonal to it."""
    axis = unit(np.cross(n, rng.normal(size=3)))
    return math.cos(angle) * n + math.sin(angle) * np.cross(axis, n)


def points_around(n, rng):
    """Along +-n and within 1e-12..1e-2 of +-n, inside, on and outside the
    sphere, then random points at the same radii."""
    angles = 10.0 ** np.arange(-12.0, -1.0, 2.0)
    pts = []
    for r in (0.4, SPEC.radius, 2.5):
        for s in (1.0, -1.0):
            pts.append(s * r * n)
            pts.extend(s * r * tilted(n, angle, rng) for angle in angles)
        pts.extend(r * unit(rng.normal(size=(4, 3))))
    return pts


@pytest.mark.parametrize("count", [1, 2, 3])
def test_mode_sums_match_the_m_sum_route(count):
    # K photons, both g, every kind and direction; the origin, points along
    # and near each photon's +-n, inside, on and outside the sphere
    rng = np.random.default_rng(40 + count)
    for trial, l_max in enumerate((1, 2, 9, 30)):
        k = rng.uniform(0.3, 4.0)
        dirs = unit(rng.normal(size=(count, 3)))
        if trial == 1:
            # along z the photon sits at the pole of its own polarization basis
            dirs[0] = (0.0, 0.0, 1.0)
        kappas = tuple(PlaneModeIndex(1 + (trial + i) % 2, tuple(k * d)) for i, d in enumerate(dirs))
        pts = np.array([np.zeros(3)] + [p for d in dirs for p in points_around(d, rng)])
        for kind in ("full", "vacuum", "scattered"):
            spec = None if kind == "vacuum" else SPEC
            for direction in modes.DIRECTIONS:
                got = modes._mode_sum(spec, kappas, direction, pts, l_max, kind)
                ref = msum_mode_sum(spec, kappas, direction, pts, l_max, kind)
                assert got.shape == ref.shape == (count, len(pts), 3)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kvec", [(0.0, 0.0, 2.0), (0.0, 0.0, -2.0), (1.2, -0.4, 1.5)])
@pytest.mark.parametrize("g", [1, 2])
def test_vacuum_mode_sum_is_the_plane_wave_near_its_axis(kvec, g):
    # past kr + 10 kr^(1/3) + 10 the vacuum sum is G to rounding, at points
    # along and within 1e-12..1e-2 of +-n, the z axis among them
    rng = np.random.default_rng(7 + g)
    kappa = PlaneModeIndex(g, kvec)
    pts = np.array(points_around(unit(kvec), rng))
    kr = kappa.k * np.max(np.linalg.norm(pts, axis=1))
    got = modes._mode_sum(None, (kappa,), "outgoing", pts,
                          math.ceil(kr + 10.0 * kr ** (1.0 / 3.0)) + 10, "vacuum")[0]
    wave = modes.plane_wave_mode(kappa, pts).value
    assert np.max(np.abs(got - wave)) <= 1e-13 * np.max(np.abs(wave))


# ------------------------------------------------------------ the cutoffs

KAP1 = PlaneModeIndex(1, (1.0, 0.3, 0.2))
KAP2 = PlaneModeIndex(2, (0.2, -1.0, 0.3))
POINTS = np.array([[0.3, 0.2, -0.1], [1.5, -2.0, 0.7], [0.0, 0.0, 0.0]])
PHIS = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)

WHOLE_FLOAT_CALLS = {
    "plane_wave_coefficients": lambda l_max: [
        c.value for c in modes.plane_wave_coefficients(KAP1, l_max)],
    "eigenmode-direct": lambda l_max: modes.scattering_eigenmode(
        SPEC, KAP1, "outgoing", POINTS, l_max).value,
    "eigenmode-mie": lambda l_max: modes.scattering_eigenmode(
        SPEC, KAP1, "incoming", POINTS, l_max, form="mie").value,
    "eigenmode-mie-truncated": lambda l_max: modes.scattering_eigenmode(
        SPEC, KAP1, "outgoing", POINTS, l_max, form="mie", plane_wave="truncated").value,
    "mode_sum": lambda l_max: modes._mode_sum(
        SPEC, (KAP1, KAP2), "outgoing", POINTS, l_max, "scattered"),
    "g2_map": lambda l_max: observables.g2_map(
        SPEC, KAP1, KAP2, "z", "x", 0.7, 2.1, PHIS, PHIS, l_max=l_max).values,
    "total_cross_section": lambda l_max: observables.total_cross_section(SPEC, 1.3, l_max),
    "s_matrix_channels": lambda l_max: observables.s_matrix_channels(SPEC, 1.3, l_max),
}


@pytest.mark.parametrize("name", sorted(WHOLE_FLOAT_CALLS))
def test_whole_float_cutoff_is_the_integer_one(name, monkeypatch):
    call = WHOLE_FLOAT_CALLS[name]
    # pickled, so that values compare bit for bit and l_max_used as an int
    assert pickle.dumps(call(3.0)) == pickle.dumps(call(3))

    def no_work(*args, **kwargs):
        raise AssertionError("work before the cutoff check")

    for module, attr in ((modes, "_radial_tables"), (modes, "_coefficient_table"),
                         (modes, "plane_wave_mode"), (observables, "phase_table")):
        monkeypatch.setattr(module, attr, no_work)
    for bad in (3.5, 0, -2, math.nan):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("kr", [3, 10, 41, 103, 200, 309])
def test_direct_default_cutoff_meets_the_mie_form(kr):
    # points outside the sphere out to radius kr / k, along +-n among them;
    # a cutoff of kr + 6 kr^(1/3) missed the mie form by 5e-9 off the axis
    # and 3.5e-8 along it at kr = 309
    rng = np.random.default_rng(kr)
    for trial in range(3):
        spec = SphereSpec(rng.uniform(1.1, 4.0), 1.0)
        k = rng.uniform(0.2, 2.5)
        n = unit(rng.normal(size=3))
        kappa = PlaneModeIndex(1 + trial % 2, tuple(k * n))
        radii = np.concatenate([[kr / k] * 8, rng.uniform(1.05, kr / k, 4)])
        pts = radii[:, None] * np.concatenate([[n, -n], unit(rng.normal(size=(10, 3)))])
        direct = modes.scattering_eigenmode(spec, kappa, "outgoing", pts).value
        mie = modes.scattering_eigenmode(spec, kappa, "outgoing", pts, form="mie").value
        assert np.max(np.abs(direct - mie)) <= 1e-9 * np.max(np.abs(mie))


CUTOFF_CALLS = dict(WHOLE_FLOAT_CALLS, phase_table=lambda l_max: phase_table(SPEC, 1.3, l_max))
del CUTOFF_CALLS["plane_wave_coefficients"]


@pytest.mark.parametrize("name", sorted(CUTOFF_CALLS))
def test_cutoff_512_names_the_bessel_order_it_needs(name, monkeypatch):
    # phase shifts and radial functions of order l need Bessel order l + 1:
    # the caller's l_max = 512 is refused by name, before any sweep
    def no_work(*args, **kwargs):
        raise AssertionError("work before the cutoff check")

    for module, attr in ((modes, "_radial_tables"), (modes, "plane_wave_mode"),
                         (observables, "phase_table"), (specfun, "_j_scaled"),
                         (specfun, "_y_scaled"), (specfun, "_pi_rows")):
        monkeypatch.setattr(module, attr, no_work)
    call = CUTOFF_CALLS[name]
    with pytest.raises(ResourceLimitError, match=r"^l_max=512 needs Bessel order 513, above the hard cap 512$"):
        call(512)
    with pytest.raises(ResourceLimitError, match=r"^l_max=513 exceeds the hard cap 512$"):
        call(513)


def test_direct_default_cutoff_past_the_cap_names_its_order():
    kr = 480.0
    need = truncation_order(SPEC.radius) + math.ceil(kr + 10.0 * kr ** (1.0 / 3.0))
    assert need + 1 > 512
    with pytest.raises(ResourceLimitError, match=rf"needs multipole order {need},") as err:
        modes.scattering_eigenmode(SPEC, PlaneModeIndex(1, (0.0, 0.0, 1.0)), "outgoing",
                                   [0.0, 0.0, kr])
    assert "l_max=" not in str(err.value)
