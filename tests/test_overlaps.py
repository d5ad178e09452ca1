"""Radial overlaps from the Bessel series: accuracy and bounds against
mpmath, the diagonal and a zero of T_l, the large-argument diagonal and the
argument cap, agreement with the quadrature-only kernels, the kernel order
range, the scipy-free import and scan paths and a scipy-blocked run of
every command."""

import json
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

import qmie
from qmie import bogoliubov as bg
from qmie import specfun
from qmie.cli import main as run
from qmie.errors import ResourceLimitError, ToleranceError
from qmie.miecore import SphereSpec
from kernel_reference import EPSILON, KERNEL_REFERENCE, kernel_pair

SPEC = SphereSpec(EPSILON, 1.0)
KERNELS = {"V": bg.coupling_v, "B": bg.b_coefficient, "A_offdiag": bg.a_offdiagonal_kernel}

# Below this size an overlap is a product of underflowed Bessel values; the
# series then returns 0 (or a few subnormal ulps) with bound 0, and the
# tolerance test holds such orders to this absolute floor.
UNDERFLOW_FLOOR = 1e-290


def _j(l, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf(1) / 2, x)


def reference_overlaps(l_top, a, b, radius):
    """Lommel's closed form at 50 digits for the exact binary inputs; the
    cancellation near a = b costs at most 13 of them."""
    with mp.workdps(50):
        a, b, R = mp.mpf(a), mp.mpf(b), mp.mpf(radius)
        ja = [_j(l, a * R) for l in range(l_top + 2)]
        if a == b:
            jm = [_j(-1, a * R)] + ja[:-1]
            return [R**3 / 2 * (ja[l] ** 2 - jm[l] * ja[l + 1]) for l in range(l_top + 1)]
        jb = [_j(l, b * R) for l in range(l_top + 2)]
        return [R**2 * (a * ja[l + 1] * jb[l] - b * ja[l] * jb[l + 1]) / (a**2 - b**2)
                for l in range(l_top + 1)]


def envelope_series(l_top, a, b, radius):
    """S_l of the overlap bound, recomputed from scipy's j values; the
    tolerance test of _overlaps compares bounds with rtol S_l."""
    top = l_top + 200
    ea, eb = (np.maximum(np.abs(spherical_jn(np.arange(top), x)),
                         np.where(x > np.arange(top) + 0.5, 1.0 / x, 0.0))
              for x in (a * radius, b * radius))
    terms = (2.0 * np.arange(top) + 1.0) * ea * eb
    return [radius / (a * b) * terms[l + 1::2].sum() for l in range(l_top + 1)]


log_wavenumber = st.floats(-3.0, math.log10(50.0)).map(lambda e: 10.0**e)
relative_gap = st.one_of(
    st.just(0.0),
    st.builds(lambda n, s: s * 10.0**-n, st.integers(1, 12), st.sampled_from([-1.0, 1.0])),
)


@settings(max_examples=40, deadline=None)
@given(a=log_wavenumber, gap=relative_gap, apart=st.none() | log_wavenumber,
       radius=st.floats(0.5, 2.0), l_top=st.integers(0, 60),
       rtol=st.sampled_from([1e-8, 1e-11]))
def test_overlaps_within_bound_and_rtol_of_mpmath(a, gap, apart, radius, l_top, rtol):
    b = apart if apart is not None else a * (1.0 + gap)
    values, bounds = bg._overlaps(l_top, a, b, radius, rtol)
    ref = reference_overlaps(l_top, a, b, radius)
    for l in range(l_top + 1):
        err = abs(mp.mpf(values[l]) - ref[l])
        assert err <= bounds[l] + UNDERFLOW_FLOOR, l
        assert err <= rtol * abs(ref[l]) + UNDERFLOW_FLOOR, l


@settings(max_examples=30, deadline=None)
@given(a=log_wavenumber, pairs=st.lists(st.tuples(st.none() | log_wavenumber, st.integers(0, 60)),
                                        min_size=1, max_size=specfun.BATCH_MIN + 8),
       radius=st.floats(0.5, 2.0))
def test_overlap_rows_equal_single_pairs_bit_for_bit(a, pairs, radius):
    # below and from BATCH_MIN pairs on, with a == b among them
    bs = np.array([a if b is None else b for b, _ in pairs])
    l_tops = np.array([l for _, l in pairs])
    values, bounds = bg._overlaps(l_tops, a, bs, radius, 1e-8)
    assert values.shape == bounds.shape == (len(pairs), int(l_tops.max()) + 1)
    for n, (b, l) in enumerate(zip(bs.tolist(), l_tops.tolist())):
        for got, ref in zip((values[n], bounds[n]), bg._overlaps(l, a, b, radius, 1e-8)):
            assert np.array_equal(got[:l + 1].view(np.int64), ref.view(np.int64)), n
            assert not got[l + 1:].any(), n


def test_overlap_rows_raise_for_the_first_failing_pair():
    with pytest.raises(ToleranceError) as single:
        bg._overlaps(508, 470.0, 460.0, 1.0, 1e-11)
    with pytest.raises(ToleranceError) as rows:
        bg._overlaps(np.array([5, 508, 508]), 470.0, np.array([1.0, 460.0, 470.0]), 1.0, 1e-11)
    assert str(rows.value) == str(single.value)


def test_overlaps_resolve_an_order_at_a_zero_of_the_overlap():
    # T_0(a, 6) changes sign at this a; V scans at |k| ~ 3 through |k'| = 6
    # meet it. The bound is absolute: far above rtol |T_0|, but within
    # rtol S_0, so nothing raises, and the value is within 1e-16 of mpmath.
    a = 2.9972348651665896
    values, bounds = bg._overlaps(3, a, 6.0, 1.0, 1e-11)
    ref = reference_overlaps(3, a, 6.0, 1.0)
    assert abs(ref[0]) < 1e-17
    err = abs(mp.mpf(values[0]) - ref[0])
    assert err <= 1e-16
    assert err <= bounds[0] <= 1e-11 * envelope_series(3, a, 6.0, 1.0)[0]
    assert bounds[0] > 1e-11 * abs(values[0])


def test_overlaps_meet_rtol_where_the_lommel_bound_was_loose():
    # order 5's Lommel bound sat just above rtol |T_5|; the band value that
    # replaced it was 4.0e-11 relative off. The series holds rtol.
    a, b, radius, rtol = 19.021934212499463, 0.1, 1.7842187965305232, 1e-11
    values, bounds = bg._overlaps(5, a, b, radius, rtol)
    ref = reference_overlaps(5, a, b, radius)
    for l in range(6):
        err = abs(mp.mpf(values[l]) - ref[l])
        assert err <= bounds[l] and err <= rtol * abs(ref[l]), l


@pytest.mark.parametrize("a,b,radius,l_top", [
    (1.0, 46.1056300146888, 1.3130363431333634, 42),
    (42.97595296486859, 0.9 * 42.97595296486859, 1.5, 11),
    (1.0, 20.889955880478507, 1.5, 1),
])
def test_overlaps_meet_rtol_at_the_failing_examples(a, b, radius, l_top):
    # the tuples where the route between Lommel's form and the band missed
    # rtol |T_l|. The first is ill-conditioned in b: rounding b R to double alone moves
    # T_42 by 1.6e-11 relative, and the sweep's rounding happens to offset
    # it (0.12 rtol); the bound is what holds by construction.
    values, bounds = bg._overlaps(l_top, a, b, radius, 1e-11)
    ref = reference_overlaps(l_top, a, b, radius)
    for l in range(l_top + 1):
        err = abs(mp.mpf(values[l]) - ref[l])
        assert err <= bounds[l] and err <= 1e-11 * abs(ref[l]), l


def test_closed_form_orders_need_no_quadrature_off_the_diagonal():
    values, bounds = bg._overlaps(30, 3.0, 2.0 * math.sqrt(EPSILON), 1.0, 1e-11)
    assert np.all(bounds <= 1e-11 * np.abs(values))
    # underflowed orders come out as exact zeros with a zero bound
    values, bounds = bg._overlaps(300, 0.5, 0.75, 1.0, 1e-11)
    assert values[-1] == 0.0 and bounds[-1] == 0.0
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(bounds))


def test_overlaps_on_the_large_diagonal_against_mpmath():
    # the V kernel at |k| = |k'| = 400 needs orders up to 437
    values, bounds = bg._overlaps(437, 400.0, 400.0, 1.0, 1e-11)
    ref = reference_overlaps(437, 400.0, 400.0, 1.0)
    for l in (0, 100, 300, 422):
        err = abs(mp.mpf(values[l]) - ref[l])
        assert err <= bounds[l] and err <= 1e-11 * abs(ref[l]), l


def test_overlaps_past_the_capped_sweep_raise():
    # above x of about 450 the sweep, capped at order 512, cannot cover the
    # terms past its top; the bound says so instead of understating the error
    with pytest.raises(ToleranceError, match="radial overlap bound .* stop at order 512"):
        bg._overlaps(508, 470.0, 470.0, 1.0, 1e-11)


# ------------------------------------------------ quadrature-only references

@pytest.mark.parametrize("kind,k,k_prime,value,abs_err", KERNEL_REFERENCE)
def test_kernels_agree_with_quadrature_reference(kind, k, k_prime, value, abs_err):
    kern = KERNELS[kind](SPEC, *kernel_pair(k, k_prime))
    assert abs(kern.value - value) <= max(1e-12 * abs(value), abs_err + kern.abs_err)
    assert kern.abs_err >= 0.0


def test_band_cli_scan_reruns_byte_identical(tmp_path):
    args = ["bogoliubov", "--epsilon", "2.1", "--kind", "V", "--k", "3",
            "--kp-min", "2.97", "--kp-max", "3.03", "--kp-steps", "5"]
    first, second = tmp_path / "a" / "v.csv", tmp_path / "b" / "v.csv"
    first.parent.mkdir()
    second.parent.mkdir()
    assert run(args + ["-o", str(first)]) == 0
    assert run(args + ["-o", str(second)]) == 0
    assert first.read_bytes().replace(str(first).encode(), b"") == \
        second.read_bytes().replace(str(second).encode(), b"")


def _diagonal_v(k):
    return ["bogoliubov", "--epsilon", "2.1", "--kind", "V", "--k", k,
            "--kp-min", k, "--kp-max", k, "--kp-steps", "1"]


def test_cli_large_diagonal_v_exits_0(tmp_path):
    # the Gauss-Legendre band's rules failed here ("differ by 6.81e-24 at
    # l=422") from about |k| = |k'| = 400 on
    out = tmp_path / "v.csv"
    assert run(_diagonal_v("400") + ["-o", str(out)]) == 0
    row = list(map(float, out.read_text().splitlines()[-1].split(",")))
    assert row[0] == 400.0 and all(map(math.isfinite, row))
    # the self-coupling of one mode has a closed form: (k / 4) ((eps - 1) / eps)
    # times the sphere's volume over (2 pi)^3
    assert run(_diagonal_v("400") + ["--kp-theta", "0", "--kp-phi", "0", "--gp", "1",
                                     "-o", str(out)]) == 0
    _, re_, im_, abs_err = map(float, out.read_text().splitlines()[-1].split(","))
    closed = 100.0 * (EPSILON - 1.0) / EPSILON * (4.0 * math.pi / 3.0) / (2.0 * math.pi) ** 3
    assert abs(complex(re_, im_) - closed) <= abs_err <= 1e-11 * closed


def test_cli_diagonal_past_the_capped_sweep_exits_3(tmp_path, capsys):
    out = tmp_path / "v.csv"
    start = time.perf_counter()
    assert run(_diagonal_v("470") + ["-o", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    assert "stop at order 512" in capsys.readouterr().err
    assert not out.exists()


def test_cli_kernel_past_the_argument_cap_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch):
    swept = []

    def recording(name):
        real = getattr(specfun, name)

        def sweep(*args):
            swept.append(name)
            return real(*args)
        return sweep

    for name in ("_j_one", "_miller_j_batch", "_recur", "_recur_batch"):
        monkeypatch.setattr(specfun, name, recording(name))
    out = tmp_path / "v.csv"
    assert run(_diagonal_v("2e6") + ["--l-max", "5", "-o", str(out)]) == 2
    assert "argument cap" in capsys.readouterr().err
    assert swept == [] and not out.exists()


# ------------------------------------------------------- kernel order range

@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_kernel_order_range(kind):
    fn = KERNELS[kind]
    pair = kernel_pair(0.5, 0.75)
    kern = fn(SPEC, *pair, l_max=bg.KERNEL_LMAX)
    assert bg.KERNEL_LMAX == 510
    assert np.isfinite(kern.value) and np.isfinite(kern.abs_err)
    assert kern.value == pytest.approx(fn(SPEC, *pair).value, rel=1e-12)
    for l_max in (511, 512):
        with pytest.raises(ResourceLimitError, match=f"l_max={l_max} needs Bessel order "
                                                     f"{l_max + 2}, above the hard cap 512"):
            fn(SPEC, *pair, l_max=l_max)


def test_cli_rejects_kernel_order_above_cap(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = run(["bogoliubov", "--epsilon", "2.1", "--kind", "B", "--k", "0.5",
              "--kp-min", "0.6", "--kp-max", "0.9", "--kp-steps", "2",
              "--l-max", "511", "-o", str(out)])
    assert rc == 2
    assert "l_max=511" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- scipy-free runtime

def _run_child(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmie.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.path.dirname(__file__), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


_SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_import_and_parser_load_no_scipy():
    proc = _run_child(
        "import sys, qmie, qmie.cli\n"
        "qmie.cli.build_parser()\n"
        f"print({_SCIPY_MODULES})\n"
    )
    assert proc.stdout.strip() == "[]"


def test_off_band_kernel_scans_load_no_scipy(tmp_path):
    scans = [("B", "5", "3", "9", "7"), ("V", "3", "2", "6", "7"),
             ("A_offdiag", "0.5", "0.3", "0.9", "5")]
    calls = "".join(
        f"assert main(['bogoliubov', '--epsilon', '2.1', '--kind', {kind!r}, '--k', {k!r}, "
        f"'--kp-min', {lo!r}, '--kp-max', {hi!r}, '--kp-steps', {n!r}, "
        f"'-o', {str(tmp_path / (kind + '.csv'))!r}]) == 0\n"
        for kind, k, lo, hi, n in scans
    )
    proc = _run_child(f"import sys\nfrom qmie.cli import main\n{calls}print({_SCIPY_MODULES})\n")
    assert proc.stdout.strip() == "[]"
    assert all((tmp_path / f"{s[0]}.csv").exists() for s in scans)


def test_diagonal_v_scan_loads_scipy_and_holds_rtol():
    # The name dates from the adaptive-quadrature band. The Bessel series
    # now serves the diagonal, so the scan must load no scipy at all while
    # holding the reference values to the same rtol.
    diagonal = [(kp, value) for kind, k, kp, value, _ in KERNEL_REFERENCE
                if kind == "V" and abs(kp / k - 1.0) < 2e-9]
    assert any(kp == 3.0 for kp, _ in diagonal)
    proc = _run_child(
        "import json, sys\n"
        "from qmie.bogoliubov import coupling_v\n"
        "from qmie.miecore import SphereSpec\n"
        "from kernel_reference import kernel_pair\n"
        f"kps = {[kp for kp, _ in diagonal]!r}\n"
        "vals = [coupling_v(SphereSpec(2.1, 1.0), *kernel_pair(3.0, kp)).value for kp in kps]\n"
        f"print(json.dumps({{'scipy': {_SCIPY_MODULES}, "
        "'values': [[v.real, v.imag] for v in vals]}))\n"
    )
    doc = json.loads(proc.stdout)
    assert doc["scipy"] == []
    for (_, ref), (re_, im_) in zip(diagonal, doc["values"]):
        assert abs(complex(re_, im_) - ref) <= 1e-11 * abs(ref)


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # k' steps through k (V) and through k / sqrt(eps) (B), so both scans
    # reach the diagonal of the radial overlaps
    b_pole = 3.0 / math.sqrt(EPSILON)
    commands = [
        ["phase-shifts", "--epsilon", "2.1", "--q", "3.0"],
        ["palpha-scan", "--epsilon", "2.1", "--q-min", "1.0", "--q-max", "2.0", "--q-steps", "5"],
        ["field-map", "--epsilon", "2.1", "--q", "1.0", "--channel", "TM:1", "--points", "5"],
        ["cross-section", "--epsilon", "2.1", "--q", "2.0"],
        ["diff-cross-section", "--epsilon", "2.1", "--q", "2.0", "--n-theta", "5"],
        ["g2-map", "--q", "1.0", "--n-phi", "4"],
        ["bogoliubov", "--epsilon", "2.1", "--kind", "V", "--k", "3",
         "--kp-min", "2.97", "--kp-max", "3.03", "--kp-steps", "5"],
        ["bogoliubov", "--epsilon", "2.1", "--kind", "B", "--k", "3",
         "--kp-min", repr(b_pole - 0.01), "--kp-max", repr(b_pole + 0.01), "--kp-steps", "3"],
    ]
    outs = [str(tmp_path / f"{i}.csv") for i in range(len(commands))]
    proc = _run_child(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from qmie.cli import main\n"
        f"for args, out in zip({commands!r}, {outs!r}):\n"
        "    print(args[0], main(args + ['-o', out]))\n"
    )
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(name, rc) for name, rc in lines] == [(c[0], "0") for c in commands]
    assert all(os.path.exists(out) for out in outs)
