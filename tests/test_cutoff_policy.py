"""One cutoff policy: every public function that takes l_max refuses a bad
one with a typed error before any angular or Bessel work, and a run of the
CLI exits 2 for it, at epsilon == 1 as well."""

import math

import numpy as np
import pytest

from qmie import bogoliubov as bg
from qmie import miecore, modes, observables, specfun
from qmie.cli import main as run
from qmie.errors import DomainError, ResourceLimitError
from qmie.miecore import SphereSpec
from qmie.modes import PlaneModeIndex

SPECS = (SphereSpec(2.1, 1.0), SphereSpec(1.0, 1.0))
# |k| = 1 for all but KP, so that every elastic pair is one
K = PlaneModeIndex(1, (0.0, 0.0, 1.0))
K_OUT = PlaneModeIndex(2, (0.6, 0.0, 0.8))
KP = PlaneModeIndex(2, (0.3, -0.4, 0.5))
DIRECTIONS = np.column_stack([np.sin(np.linspace(0.0, math.pi, 91)), np.zeros(91),
                              np.cos(np.linspace(0.0, math.pi, 91))])
PHIS = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)

# (reach, call(spec, l_max)): the sums of each need Bessel orders up to
# l_max + reach
POLICY = {
    "phase_table": (1, lambda spec, l: miecore.phase_table(spec, 1.3, l)),
    "phase_table-per-entry": (1, lambda spec, l: miecore.phase_table(
        spec, np.array([1.3, 2.0]), np.array([3, l]))),
    "plane_wave_coefficients": (0, lambda spec, l: modes.plane_wave_coefficients(K, l)),
    "scattering_eigenmode": (1, lambda spec, l: modes.scattering_eigenmode(
        spec, K, "outgoing", (0.5, 0.2, 2.0), l_max=l)),
    "scattering_amplitude": (1, lambda spec, l: observables.scattering_amplitude(
        spec, K_OUT, K, l_max=l)),
    "s_matrix_channels": (1, lambda spec, l: observables.s_matrix_channels(spec, 1.3, l)),
    "total_cross_section": (1, lambda spec, l: observables.total_cross_section(spec, 1.3, l)),
    "differential_cross_section": (1, lambda spec, l: observables.differential_cross_section(
        spec, K, DIRECTIONS, l_max=l)),
    "transition_amplitude_kernel": (1, lambda spec, l: observables.transition_amplitude_kernel(
        spec, K_OUT, K, l_max=l)),
    "g2_map": (1, lambda spec, l: observables.g2_map(
        spec, K, K_OUT, "x", "z", 0.7, 2.1, PHIS, PHIS, l_max=l)),
    "kernel_scan": (2, lambda spec, l: bg.kernel_scan("B", spec, K, [KP, K_OUT], l_max=l)),
    "coupling_v": (2, lambda spec, l: bg.coupling_v(spec, K, KP, l_max=l)),
    "b_coefficient": (2, lambda spec, l: bg.b_coefficient(spec, K, KP, l_max=l)),
    "a_offdiagonal_kernel": (2, lambda spec, l: bg.a_offdiagonal_kernel(spec, K, KP, l_max=l)),
    "a_diagonal_channel_sum": (1, lambda spec, l: bg.a_diagonal_channel_sum(
        spec, K, K_OUT, l_max=l)),
}

SPIED = ("_pi_rows", "_legendre_rows", "_j_scaled", "_y_scaled")


@pytest.fixture
def work(monkeypatch):
    """The names of the angular and Bessel routines called, in order."""
    calls = []
    for name in SPIED:
        real = getattr(specfun, name)
        monkeypatch.setattr(specfun, name, lambda *a, _n=name, _f=real, **kw:
                            calls.append(_n) or _f(*a, **kw))
    return calls


def bad_cutoffs(reach):
    """(l_max, error, message) of every bad cutoff at this reach: the first
    cutoff past the cap at this reach, and 513, among them."""
    def past_cap(v):
        if v > specfun.HARD_CAP_LMAX:
            return f"l_max={v} exceeds the hard cap 512"
        return f"l_max={v} needs Bessel order {v + reach}, above the hard cap 512"

    return ([(0, DomainError, "l_max must be >= 1"),
             (-1, DomainError, "order must be a non-negative integer, got -1"),
             (3.5, DomainError, "order=3.5 must be an integer"),
             (math.nan, DomainError, "order=nan must be an integer")]
            + [(v, ResourceLimitError, past_cap(v)) for v in sorted({513 - reach, 513})])


@pytest.mark.parametrize("name", sorted(POLICY))
def test_bad_cutoff_is_refused_before_any_work(name, work):
    reach, call = POLICY[name]
    for spec in SPECS:
        for l_max, error, message in bad_cutoffs(reach):
            with pytest.raises(error) as info:
                call(spec, l_max)
            # the per-entry table reads a float array as no integer cutoff
            if not (name == "phase_table-per-entry" and isinstance(l_max, float)):
                assert str(info.value) == message
            assert work == [], (spec, l_max)


@pytest.mark.parametrize("name", sorted(POLICY))
def test_largest_cutoff_is_accepted(name, work):
    # the reach each function is listed with is the one its check uses: one
    # order below the first refused one runs, and the spies see its work
    reach, call = POLICY[name]
    call(SPECS[0], specfun.HARD_CAP_LMAX - reach)
    assert work


def test_resolve_cutoff_default_and_reach():
    assert miecore._resolve_cutoff(3.0) == miecore.truncation_order(3.0)
    assert miecore._resolve_cutoff(3.0, 7.0, reach=2) == 7
    # the default for q = 473.5 passes the cap only for the kernels' reach
    assert miecore._resolve_cutoff(473.5) == 511
    with pytest.raises(ResourceLimitError, match="^l_max=511 needs Bessel order 513"):
        miecore._resolve_cutoff(473.5, reach=2)
    assert bg.KERNEL_LMAX == miecore._resolve_cutoff(1.0, bg.KERNEL_LMAX, reach=2)


@pytest.mark.parametrize("l_max", ["0", "-5"])
@pytest.mark.parametrize("kind", ["V", "B", "A_offdiag"])
def test_cli_refuses_a_bad_kernel_cutoff_for_a_transparent_sphere(tmp_path, capsys, kind, l_max):
    # A_offdiag refuses the pole k' = k before it meets the cutoff
    out, kp_min = tmp_path / "x.csv", "1.5" if kind == "A_offdiag" else "1"
    assert run(["bogoliubov", "--epsilon", "1", "--kind", kind, "--k", "1", "--kp-min", kp_min,
                "--kp-max", "2", "--kp-steps", "2", "--l-max", l_max, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("l_max must be >= 1" if l_max == "0" else "non-negative integer") in err
    assert not out.exists()


def test_default_kernel_cutoff_past_the_cap_is_refused_for_a_transparent_sphere():
    # the default is resolved as for a dielectric sphere, though every kernel is 0
    with pytest.raises(ResourceLimitError, match=r"^q=480.0 needs multipole order 518"):
        bg.kernel_scan("V", SPECS[1], PlaneModeIndex(1, (0.0, 0.0, 480.0)), [K])
