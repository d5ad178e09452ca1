"""Two plane waves met through the angle between them: pi_l, tau_l and the
scattering-plane frame, against the m-sum route of ``msum_reference``.

Amplitudes and kernel angular sums are checked over random directions, both
polarizations, both pairings and the parallel, antiparallel and nearly
(anti)parallel pairs where the frame is undefined or ill-conditioned.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qmie import bogoliubov as bg
from qmie import observables, specfun
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import SphereSpec
from qmie.modes import PlaneModeIndex
from msum_reference import amplitudes as msum_amplitudes
from msum_reference import angular_sums as msum_angular_sums

SPEC = SphereSpec(epsilon=2.1, radius=1.0)
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def tilted(n, angle, rng):
    """n turned by angle about a random axis orthogonal to it."""
    axis = unit(np.cross(n, rng.normal(size=3)))
    return math.cos(angle) * n + math.sin(angle) * np.cross(axis, n)


def direction_pairs(rng, count):
    """Random pairs, then equal, opposite, scaled and nearly (anti)parallel ones."""
    pairs = []
    for i in range(count):
        n = unit(rng.normal(size=3))
        kind = i % 6
        if kind == 0:
            m = unit(rng.normal(size=3))
        elif kind == 1:
            m = n * rng.uniform(0.5, 2.0)
        elif kind == 2:
            m = -n * rng.uniform(0.5, 2.0)
        elif kind == 3:
            m = tilted(n, 10.0 ** rng.uniform(-12, -2), rng)
        elif kind == 4:
            m = -tilted(n, 10.0 ** rng.uniform(-12, -2), rng)
        else:
            # along an axis, where the polarization basis sits at a pole
            n = np.eye(3)[i % 3] * rng.choice([-1.0, 1.0])
            m = n if rng.uniform() < 0.5 else -n
        pairs.append((n, m))
    return pairs


# ------------------------------------------------- pi_l, tau_l and the frame

def sums(n, m, e, e_prime, l_max):
    return specfun._pair_sums(np.asarray(n, dtype=float), np.asarray(m, dtype=float),
                              np.asarray(e, dtype=float), np.asarray(e_prime, dtype=float), l_max)


def pole_values(l_max):
    """(2l + 1)/(8 pi) and (-1)^l for l = 0..l_max, row 0 cleared."""
    ls = np.arange(l_max + 1)
    half = (2 * ls + 1) / (8.0 * math.pi)
    half[0] = 0.0
    return half, np.where(ls % 2 == 0, 1.0, -1.0)


@pytest.mark.parametrize("l_max", [1, 2, 7, 60, specfun.HARD_CAP_LMAX])
def test_sums_at_the_poles_are_the_closed_forms(l_max):
    # n' = n: pi_l = tau_l = l (l + 1)/2; n' = -n: pi_l = -tau_l = (-1)^(l+1)
    # l (l + 1)/2. For e = e' real, unit and orthogonal to n the frame, which
    # is arbitrary there, drops out: TE = TM = (2l + 1)/(8 pi) at n' = n and
    # TE = -TM = (-1)^l (2l + 1)/(8 pi) at n' = -n
    rng = np.random.default_rng(l_max)
    n = np.array([unit(rng.normal(size=3)) for _ in range(4)] + list(np.eye(3)) + list(-np.eye(3)))
    e = np.array([unit(np.cross(v, rng.normal(size=3))) for v in n])
    got = sums(np.concatenate([n, n]), np.concatenate([n, -n]), np.concatenate([e, e]),
               np.concatenate([e, e]), l_max)
    half, parity = pole_values(l_max)
    k = len(n)
    expect = np.concatenate([np.broadcast_to([half, half], (k, 2, l_max + 1)),
                             np.broadcast_to([parity * half, -parity * half], (k, 2, l_max + 1))])
    assert np.max(np.abs(got - expect) / np.maximum(half, 1.0)) < 2e-15


@pytest.mark.parametrize("tilt", [1e-160, 1e-200, 1e-300])
def test_pairs_parallel_below_the_normal_range_take_the_pole_frame(tilt):
    # |n' x n|^2 is subnormal or 0: normalizing it would leave e_perp short
    # or NaN
    n = np.array([[tilt, 0.0, 1.0], [0.0, -tilt, -1.0]])
    got = sums(n, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 4)
    half, parity = pole_values(4)
    assert np.all(np.isfinite(got))
    expect = [[half, half], [parity * half, -parity * half]]
    assert np.max(np.abs(got - expect)) < 1e-16


@pytest.mark.parametrize("seed", [3, 4])
def test_sums_read_the_legendre_derivatives(seed):
    # n' is n turned by Theta within a coordinate plane, so the third axis w
    # is orthogonal to both in floating point too: e = e' = w reads tau_l
    # (TE) and pi_l (TM), e = w x n, e' = w x n' reads pi_l (TE) and tau_l
    # (TM), times (2l + 1)/(4 pi l (l + 1)). Theta runs from 1e-12 of
    # parallel to 1e-12 of antiparallel; pi_l = P_l'(mu) and tau_l =
    # mu P_l'(mu) - (1 - mu^2) P_l''(mu)
    rng = np.random.default_rng(seed)
    l_max, count = 30, 60
    angle = 10.0 ** rng.uniform(-12, 0.5, count)
    angle[1::2] = math.pi - angle[1::2]
    alpha = rng.uniform(0.0, 2.0 * math.pi, count)
    plane = np.zeros((2, count, 3))
    plane[0, :, :2] = np.stack([np.cos(alpha), np.sin(alpha)], axis=1)
    plane[1, :, :2] = np.stack([np.cos(alpha + angle), np.sin(alpha + angle)], axis=1)
    axes = [rng.permutation(3) for _ in range(count)]
    flips = rng.choice([-1.0, 1.0], size=(count, 3))
    n, m = (np.array([flips[i] * v[i, axes[i]] for i in range(count)]) for v in plane)
    w = np.array([flips[i] * np.eye(3)[2, axes[i]] for i in range(count)])
    across = sums(n, m, w, w, l_max)
    along = sums(n, m, np.cross(w, n), np.cross(w, m), l_max)
    mu = np.clip(np.sum(n * m, axis=1), -1.0, 1.0)
    for l in range(l_max + 1):
        coef = np.zeros(l + 1)
        coef[l] = 1.0
        d1 = np.polynomial.legendre.legval(mu, np.polynomial.legendre.legder(coef))
        d2 = np.polynomial.legendre.legval(mu, np.polynomial.legendre.legder(coef, 2))
        pi, tau = d1, mu * d1 - (1.0 - mu * mu) * d2
        norm = (2 * l + 1) / (4.0 * math.pi * max(l * (l + 1), 1))
        bound = 1e-12 * norm * max(1.0, l * (l + 1.0) / 2.0)
        for got, (te, tm) in ((across, (tau, pi)), (along, (pi, tau))):
            assert np.max(np.abs(got[:, 0, l] - norm * te)) < bound
            assert np.max(np.abs(got[:, 1, l] - norm * tm)) < bound


@pytest.mark.parametrize("l_max,error", [(0, DomainError), (-1, DomainError), (2.5, DomainError),
                                         (specfun.HARD_CAP_LMAX + 1, ResourceLimitError),
                                         (10**8, ResourceLimitError)])
def test_sums_check_the_order_before_any_work(l_max, error, monkeypatch):
    def no_work(*args):
        raise AssertionError("angular work before the order check")

    monkeypatch.setattr(specfun, "_dot", no_work)
    with pytest.raises(error):
        sums(np.eye(3), np.eye(3), np.eye(3), np.eye(3), l_max)


def test_whole_float_cutoffs_equal_integer_ones():
    ka = PlaneModeIndex(1, (0.3, 1.0, 2.0))
    kb = PlaneModeIndex(2, (1.0, 0.5, -2.0))
    kc = PlaneModeIndex(2, (2.0, 0.3, 1.0))
    for call in (lambda l_max: observables.scattering_amplitude(SPEC, kc, ka, l_max).value,
                 lambda l_max: observables.transition_amplitude_kernel(SPEC, kc, ka, l_max),
                 lambda l_max: observables.differential_cross_section(
                     SPEC, ka, np.eye(3), l_max).tolist(),
                 lambda l_max: bg.a_diagonal_channel_sum(SPEC, ka, kc, l_max),
                 lambda l_max: bg.coupling_v(SPEC, ka, kb, l_max),
                 lambda l_max: bg.b_coefficient(SPEC, ka, kb, l_max),
                 lambda l_max: bg.a_offdiagonal_kernel(SPEC, ka, kb, l_max)):
        assert call(3.0) == call(3)
        for bad, error in ((0, DomainError), (3.5, DomainError), (600, ResourceLimitError)):
            with pytest.raises(error):
                call(bad)


# ------------------------------------------------------- against the m sums

@pytest.mark.parametrize("conjugate_pair", [False, True])
def test_angular_sums_match_the_m_sum_route(conjugate_pair):
    rng = np.random.default_rng(17 + conjugate_pair)
    worst = 0.0
    for n, m in direction_pairs(rng, 240):
        l_max = int(rng.integers(1, 40))
        kappa = PlaneModeIndex(int(rng.integers(1, 3)), tuple(rng.uniform(0.2, 5.0) * n))
        kappa_prime = PlaneModeIndex(int(rng.integers(1, 3)), tuple(rng.uniform(0.2, 5.0) * m))
        got = bg._angular_sums(kappa, [kappa_prime], l_max, conjugate_pair)[0]
        ref = msum_angular_sums(kappa, kappa_prime, l_max, conjugate_pair)
        scale = (2 * np.arange(l_max + 1) + 1) / (8.0 * math.pi)
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
    assert worst <= 1e-12


@pytest.mark.parametrize("g", [1, 2])
def test_amplitudes_match_the_m_sum_route(g):
    rng = np.random.default_rng(40 + g)
    for trial in range(12):
        n_in = unit(rng.normal(size=3)) if trial % 3 else np.eye(3)[trial % 2 + 1]
        q = rng.uniform(0.3, 30.0)
        kappa_in = PlaneModeIndex(g, tuple(q / SPEC.radius * n_in))
        theta, phi = rng.uniform(0.0, math.pi, 30), rng.uniform(0.0, 2.0 * math.pi, 30)
        # forward, backward, the poles and directions within 1e-9 of them
        t_in, p_in = kappa_in.angles
        theta[:6] = [t_in, math.pi - t_in, 0.0, math.pi, t_in + 1e-9, math.pi - t_in + 1e-9]
        phi[:6] = [p_in, p_in + math.pi, 0.0, 1.3, p_in, p_in + math.pi]
        theta = np.clip(theta, 0.0, math.pi)
        got = observables._amplitudes(SPEC, kappa_in, theta, phi, None)
        ref = msum_amplitudes(SPEC, kappa_in, theta, phi)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("q", [0.4, 3.4, 20.0, 41.0])
def test_optical_theorem_at_any_incidence(q):
    # sigma = (4 pi / k) Im f(forward), from the closed forms at Theta = 0
    sigma = observables.total_cross_section(SPEC, q).sigma
    k = q / SPEC.radius
    rng = np.random.default_rng(int(q * 10))
    for _ in range(4):
        kappa = PlaneModeIndex(int(rng.integers(1, 3)), tuple(k * unit(rng.normal(size=3))))
        f = observables.scattering_amplitude(SPEC, kappa, kappa).value
        assert 4.0 * math.pi / k * f.imag == pytest.approx(sigma, rel=1e-13)


@pytest.mark.parametrize("kvec", [(0.3, -1.2, 2.0), (0.0, 0.0, 2.0), (0.0, 1.5, 0.0)])
def test_diagonal_v_kernel_lands_on_the_parallel_case(kvec):
    # k' along k: the frame is undefined (the axes, where both labels have
    # the same angles) or fixed by the last bits of the angles
    kappa = PlaneModeIndex(1, kvec)
    for g in (1, 2):
        kappa_prime = PlaneModeIndex(g, tuple(1.7 * c for c in kappa.kvec))
        got = bg._angular_sums(kappa, [kappa_prime], 20, False)[0]
        ref = msum_angular_sums(kappa, kappa_prime, 20, False)
        assert np.max(np.abs(got - ref)) < 1e-13
        # sum_m conj(c(e)) c(e') = (2l + 1)/(8 pi) e* . e' per polarization
        ls = np.arange(21)
        expect = (2 * ls + 1) / (8.0 * math.pi) * (g == 1)
        expect[0] = 0.0
        assert np.allclose(got, [expect, expect], rtol=0, atol=1e-15)


# -------------------------------------------------------- independent oracles

def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports of a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_imports_nothing_from_tests_or_perfbench():
    local = {p.stem for p in TESTS.glob("*.py")}
    local |= {p.stem for p in (ROOT / "perfbench").glob("*.py")} | {"perfbench", "tests"}
    sources = sorted((ROOT / "src" / "qmie").glob("*.py"))
    assert sources
    for path in sources:
        assert not imported_modules(path) & local, path.name


def test_mie_oracle_does_not_read_the_angular_route():
    path = TESTS / "mie_oracle.py"
    assert imported_modules(path) <= {"__future__", "numpy", "scipy"}
    names = {node.attr for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name)}
    assert not names & {"_pair_sums", "_pi_rows", "_angular_sums", "qmie"}


def test_msum_oracle_does_not_read_the_angle_routes():
    # the m-sum oracle reads coefficient tables and whole harmonic blocks,
    # never pi_l at the angle between two directions nor the one-harmonic
    # route of the eigenmodes
    tree = ast.parse((TESTS / "msum_reference.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {"_coefficient_table", "spherical_harmonics_batch"} <= names
    assert not names & {"_pair_sums", "_pi_rows", "_mode_sum", "_angular_sums", "_amplitudes",
                        "spherical_harmonic_at", "_assemble"}
