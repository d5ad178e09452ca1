"""One angular pass per kernel scan: sliced coefficient tables, the scan's
angular rows, scan against single kernels, error placement and the angular
passes of a bogoliubov run."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmie import bogoliubov as bg
from qmie import cli, modes, specfun
from qmie.errors import DomainError, PoleExcludedError, ResourceLimitError, ToleranceError
from qmie.miecore import SphereSpec
from qmie.modes import PlaneModeIndex

SPEC = SphereSpec(epsilon=2.1, radius=1.0)
VACUUM = SphereSpec(epsilon=1.0, radius=1.0)
PUBLIC = {"V": bg.coupling_v, "B": bg.b_coefficient, "A_offdiag": bg.a_offdiagonal_kernel}


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


# ------------------------------------------------------------ sliced tables

def coefficient_tables(theta, phi, g, l_max):
    """The one-direction tables of N directions, stacked: (N, 2, l_max+1, 2 l_max+1)."""
    return np.stack([modes._coefficient_table(*args, l_max) for args in zip(theta, phi, g)])


angles = st.tuples(
    st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([1, 2]),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(angles, min_size=1, max_size=4), top=st.integers(1, 60), data=st.data())
def test_sliced_top_table_equals_fresh_table(rows, top, data):
    l_max = data.draw(st.integers(1, top))
    theta, phi, g = (list(c) for c in zip(*rows))
    table = coefficient_tables(theta, phi, g, top)
    pick = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
    sliced = np.ascontiguousarray(table[pick, :, :l_max + 1, top - l_max:top + l_max + 1])
    fresh = coefficient_tables([theta[i] for i in pick], [phi[i] for i in pick],
                               [g[i] for i in pick], l_max)
    assert sliced.shape == fresh.shape
    assert np.array_equal(bits(sliced), bits(fresh))


# sha256 of the tables built from the X block (the whole vector-harmonic
# family), before the tangential components were written directly
TABLE_DIGESTS = [
    (([0.4], [1.1], [2], 12),
     "d071f243c53dc01f4d73cdfef042c57c21d0d58250d9fe73c52d017c2b914a06"),
    (([0.0, math.pi], [0.0, 2.5], [1, 2], 7),
     "e64f1c752f8da7b0410631d6a431d8db5cbed7183c2bbcf95c2f3a2e4ea1e790"),
    (([1.0, 0.3, 2.9], [0.7, 6.0, 3.3], [2, 1, 2], 40),
     "3873c8d8f97564b1c541ea962c8a59f5d28f8724f746e49fdaf0cb372f8e231b"),
    # the direction and cutoff of the cross-section self-check at q = 150
    (([0.6435011087932843], [0.6435011087932844], [1], 178),
     "34c364bfb234d2e2f62e189d28717fb512341076e20f37f0faba82ac45aeb94d"),
]


@pytest.mark.parametrize("args,digest", TABLE_DIGESTS, ids=["one", "poles", "three", "q150"])
def test_coefficient_table_bytes_are_frozen(args, digest):
    table = coefficient_tables(*args)
    assert table.shape == (len(args[0]), 2, args[3] + 1, 2 * args[3] + 1)
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest


# ------------------------------------------------- scan against single kernels

def scanned(kps, theta=1.0, phi=0.7, gp=2):
    """The k' of a bogoliubov scan, labelled as the CLI labels them."""
    return [PlaneModeIndex(gp, (kp * math.sin(theta) * math.cos(phi),
                                kp * math.sin(theta) * math.sin(phi), kp * math.cos(theta)))
            for kp in kps]


def single_kernels(kind, spec, kappa, kappa_primes, **kw):
    """The kernels one public call at a time, and the error that stopped them."""
    out = []
    for kappa_prime in kappa_primes:
        try:
            out.append(PUBLIC[kind](spec, kappa, kappa_prime, **kw))
        except Exception as exc:
            return out, exc
    return out, None


def kernel_bits(kernels) -> list:
    return [bits(np.array([k.value.real, k.value.imag, k.abs_err])).tolist() for k in kernels]


SCANS = {
    # the three scans of the benchmark's kernels workload
    "B": ("B", SPEC, 5.0, np.linspace(3.0, 9.0, 7), {}),
    "V": ("V", SPEC, 3.0, np.linspace(2.0, 6.0, 7), {}),
    "A_offdiag": ("A_offdiag", SPEC, 0.5, np.linspace(0.3, 0.9, 5), {}),
    "B-lmax": ("B", SPEC, 0.5, np.linspace(0.3, 0.9, 4), {"l_max": 12}),
    "A-incoming": ("A_offdiag", SPEC, 1.2, np.linspace(0.2, 3.0, 4), {"direction": "incoming"}),
    "V-diagonal": ("V", SPEC, 3.0, np.linspace(2.97, 3.03, 5), {}),
    "V-vacuum": ("V", VACUUM, 3.0, np.linspace(2.0, 6.0, 3), {}),
    "B-vacuum": ("B", VACUUM, 3.0, np.linspace(2.0, 6.0, 3), {"l_max": 12}),
    "A-vacuum": ("A_offdiag", VACUUM, 3.0, np.linspace(2.0, 6.0, 3), {}),
    # from BATCH_MIN k' on, the batched sweeps with one top per argument;
    # the geometric scans' tops span far enough that the short sweeps start
    # inside the orders the long ones keep
    "B-long": ("B", SPEC, 5.0, np.linspace(3.0, 9.0, 30), {}),
    "V-long-diagonal": ("V", SPEC, 3.0, np.linspace(2.0, 4.0, 25), {}),
    "V-wide": ("V", SPEC, 0.5, np.geomspace(0.01, 60.0, 30), {}),
    "A-wide": ("A_offdiag", SPEC, 1.0, np.geomspace(0.02, 40.0, 24), {"direction": "incoming"}),
}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_equals_single_kernels_bit_for_bit(name):
    kind, spec, k, kps, kw = SCANS[name]
    kappa, kappa_primes = PlaneModeIndex(1, (0.0, 0.0, k)), scanned(kps)
    got = bg.kernel_scan(kind, spec, kappa, kappa_primes, **kw)
    ref, failure = single_kernels(kind, spec, kappa, kappa_primes, **kw)
    assert failure is None
    assert kernel_bits(got) == kernel_bits(ref)
    assert [(g.kind, g.kappa, g.kappa_prime) for g in got] == \
        [(r.kind, r.kappa, r.kappa_prime) for r in ref]
    if spec.epsilon == 1.0:
        assert all(g.value == 0.0 and g.abs_err == 0.0 for g in got)


@pytest.mark.parametrize("name", ["B", "A_offdiag", "V", "B-long", "V-long-diagonal"])
def test_one_array_pass_per_scan(name, monkeypatch):
    # one phase table over every k' of a B or A scan, and one j call per
    # argument set: the table's at q and sqrt(eps) q, the overlaps' at aR
    # and at the bR's
    kind, spec, k, kps, kw = SCANS[name]
    tables, sweeps = [], []
    real_table, real_sweep = bg.phase_table, specfun._j_scaled
    monkeypatch.setattr(bg, "phase_table",
                        lambda *args: tables.append(np.shape(args[1])) or real_table(*args))
    monkeypatch.setattr(specfun, "_j_scaled",
                        lambda *args: sweeps.append(np.shape(args[1])) or real_sweep(*args))
    bg.kernel_scan(kind, spec, PlaneModeIndex(1, (0.0, 0.0, k)), scanned(kps), **kw)
    n = (len(kps),)
    assert tables == ([] if kind == "V" else [n])
    assert sweeps == [n] * (2 if kind == "V" else 4)


def test_scan_at_one_direction_shares_rows():
    # the angular sums of a scan come from one pass at the largest cutoff;
    # each k' reads rows equal bit for bit to its own pass at its own cutoff,
    # and k' that share their angles share their rows
    kappa, kappa_primes = PlaneModeIndex(1, (0.0, 0.0, 5.0)), scanned(np.linspace(3.0, 9.0, 7))
    for conjugate_pair in (False, True):
        sums = bg._angular_sums(kappa, kappa_primes, 29, conjugate_pair)
        assert sums.shape == (7, 2, 30)
        rows = {}
        for kappa_prime, row in zip(kappa_primes, sums):
            fresh = bg._angular_sums(kappa, [kappa_prime], 18, conjugate_pair)[0]
            assert np.array_equal(bits(row[:, :19]), bits(fresh))
            rows.setdefault((*kappa_prime.angles, kappa_prime.g), set()).add(row.tobytes())
        # the angles come from each scaled k' vector and differ in the last bit
        assert all(len(r) == 1 for r in rows.values()) and len(rows) <= 3


# scans that stop part way, with the error the kernels one at a time raise
FAILING = {
    "pole-mid-scan": ("A_offdiag", SPEC, 0.5, [0.3, 0.5, 0.7], {}, 1, PoleExcludedError,
                      "|k| = 0.5 and |k'| = 0.5 sit on the 1/(|k|-|k'|) pole"),
    "pole-vacuum": ("A_offdiag", VACUUM, 0.5, [0.3, 0.5, 0.7], {}, 1, PoleExcludedError,
                    "|k| = 0.5 and |k'| = 0.5 sit on the 1/(|k|-|k'|) pole"),
    "cutoff-above-cap-V": ("V", SPEC, 1.0, [1.0, 2.0, 473.5], {}, 2, ResourceLimitError,
                           "l_max=511 needs Bessel order 513, above the hard cap 512"),
    "cutoff-above-cap-B": ("B", SPEC, 1.0, [1.0, 2.0, 473.5 / math.sqrt(2.1), 3.0], {}, 2,
                           ResourceLimitError,
                           "l_max=511 needs Bessel order 513, above the hard cap 512"),
    "q-above-cap": ("B", SPEC, 1.0, [1.0, 133.0, 400.0, 2.0], {}, 2, ResourceLimitError,
                    "q=579.6550698475777 needs multipole order 620"),
    "lmax-above-cap": ("V", SPEC, 1.0, [1.0, 2.0], {"l_max": 600}, 0, ResourceLimitError,
                       "l_max=600 exceeds the hard cap 512"),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_scan_fails_at_the_same_k_prime(name, monkeypatch):
    kind, spec, k, kps, kw, at, error, message = FAILING[name]
    kappa, kappa_primes = PlaneModeIndex(1, (0.0, 0.0, k)), scanned(kps)
    evaluated, real = [], bg._volume_overlaps

    def spy(spec, kappa, kappa_primes, *args):
        evaluated.extend(kappa_primes)
        return real(spec, kappa, kappa_primes, *args)

    monkeypatch.setattr(bg, "_volume_overlaps", spy)
    ref, failure = single_kernels(kind, spec, kappa, kappa_primes, **kw)
    ref_evaluated = evaluated[:]
    evaluated.clear()
    assert type(failure) is error and str(failure).startswith(message)
    assert len(ref) == at
    with pytest.raises(error) as info:
        bg.kernel_scan(kind, spec, kappa, kappa_primes, **kw)
    assert str(info.value) == str(failure)
    assert evaluated == ref_evaluated
    assert len(evaluated) == (at if spec.epsilon != 1.0 else 0)


# scans that fail inside the array pass, with the k' whose error the
# kernels one at a time raise first, and its type
PASS_FAILING = {
    "bound-V": ("V", SPEC, 470.0, [1.0, 470.0, 2.0], {}, 1, ToleranceError),
    "table-floor-B": ("B", SPEC, 1.0, [1.0, 1e-60, 2.0], {}, 1, DomainError),
    # the table at k' number 2 fails in the array pass before the overlaps
    # run, but the loop meets the overlap bound of k' number 1 first
    "bound-before-a-later-table-B": ("B", SPEC, 460.0, [100.0, 460.0 / math.sqrt(2.1), 1e-60],
                                     {}, 1, ToleranceError),
    "argument-cap-V": ("V", SPEC, 1.0, [1.0, 2e6, 3.0], {"l_max": 5}, 1, ResourceLimitError),
}


@pytest.mark.parametrize("name", sorted(PASS_FAILING))
def test_scan_raises_the_loop_error_from_inside_the_pass(name):
    kind, spec, k, kps, kw, at, error = PASS_FAILING[name]
    kappa, kappa_primes = PlaneModeIndex(1, (0.0, 0.0, k)), scanned(kps)
    ref, failure = single_kernels(kind, spec, kappa, kappa_primes, **kw)
    assert type(failure) is error and len(ref) == at
    with pytest.raises(error) as info:
        bg.kernel_scan(kind, spec, kappa, kappa_primes, **kw)
    # the array calls would name q[1] or x[1]; the loop names q or x
    assert str(info.value) == str(failure)


def test_scan_draws_each_k_prime_in_turn(monkeypatch):
    # a k' that cannot be labelled fails after the kernels before it, as the
    # CLI's loop over single kernels did
    def draw():
        yield from scanned([2.0, 3.0])
        raise DomainError("no label")

    evaluated, real = [], bg._volume_overlaps
    monkeypatch.setattr(bg, "_volume_overlaps",
                        lambda *args: evaluated.extend(kp.k for kp in args[2]) or real(*args))
    with pytest.raises(DomainError, match="no label"):
        bg.kernel_scan("V", SPEC, PlaneModeIndex(1, (0.0, 0.0, 3.0)), draw())
    assert evaluated == pytest.approx([2.0, 3.0])


# -------------------------------------------------------- the bogoliubov run

@pytest.mark.parametrize("kind,k,kp_range", [
    ("B", "5", ("3", "9", "7")),
    ("V", "3", ("2", "6", "7")),
    ("A_offdiag", "0.5", ("0.3", "0.9", "5")),
])
@pytest.mark.parametrize("epsilon", ["2.1", "1"])
def test_one_coefficient_table_per_bogoliubov_run(tmp_path, monkeypatch, kind, k, kp_range,
                                                  epsilon):
    # the run's table of coefficient sums comes from one angular pass over
    # every k', through pi_l and tau_l: no multipole coefficient table
    calls, real = [], bg._angular_sums

    def counting(kappa, kappa_primes, l_max, conjugate_pair):
        calls.append(len(kappa_primes))
        return real(kappa, kappa_primes, l_max, conjugate_pair)

    monkeypatch.setattr(bg, "_angular_sums", counting)
    monkeypatch.setattr(modes, "_coefficient_table", None)
    kp_min, kp_max, steps = kp_range
    out = tmp_path / "bg.csv"
    assert cli.main(["bogoliubov", "--epsilon", epsilon, "--kind", kind, "--k", k,
                     "--kp-min", kp_min, "--kp-max", kp_max, "--kp-steps", steps,
                     "-o", str(out)]) == 0
    # a transparent sphere gives exact zeros without a pass
    assert calls == ([int(steps)] if epsilon != "1" else [])
