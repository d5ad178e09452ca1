"""Closed-form radial overlaps: accuracy against mpmath, the near-diagonal
Gauss-Legendre band, agreement with the quadrature-only kernels, the kernel
order range, the scipy-free import and scan paths and a scipy-blocked run
of every command."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmie
from qmie import bogoliubov as bg
from qmie.cli import main as run
from qmie.errors import ResourceLimitError
from qmie.miecore import SphereSpec
from kernel_reference import EPSILON, KERNEL_REFERENCE, kernel_pair

SPEC = SphereSpec(EPSILON, 1.0)
KERNELS = {"V": bg.coupling_v, "B": bg.b_coefficient, "A_offdiag": bg.a_offdiagonal_kernel}

# Below this size an overlap is a product of underflowed Bessel values; the
# closed form then returns 0 (or a few subnormal ulps) with bound 0, and the
# band rules hold such orders to this absolute floor.
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
    values, bounds = bg._overlaps(l_top, a, b, radius)
    band = bounds > rtol * np.abs(values)
    if a == b:
        assert band.all()
    calls = []
    rules = bg._band_overlaps

    def recording(ls, *args):
        calls.append(list(ls))
        return rules(ls, *args)

    with mock.patch.object(bg, "_band_overlaps", recording):
        resolved, errs = bg._resolved_overlaps(l_top, a, b, radius, rtol)
    assert calls == ([list(np.flatnonzero(band))] if band.any() else [])
    ref = reference_overlaps(l_top, a, b, radius)
    for l in range(l_top + 1):
        if not band[l]:
            assert resolved[l] == values[l] and errs[l] == bounds[l]
            assert abs(mp.mpf(values[l]) - ref[l]) <= bounds[l] + UNDERFLOW_FLOOR, l
        assert abs(mp.mpf(resolved[l]) - ref[l]) <= rtol * abs(ref[l]) + UNDERFLOW_FLOOR, l


def test_band_resolves_an_order_at_a_zero_of_the_overlap():
    # T_0(a, 6) changes sign at this a; V scans at |k| ~ 3 through |k'| = 6
    # meet it. The closed form sends the order to the band, where only the
    # rules' rounding is left, far below rtol times the integral of |r^2 j j|.
    a = 2.9972348651665896
    values, bounds = bg._overlaps(3, a, 6.0, 1.0)
    assert bounds[0] > 1e-11 * abs(values[0])
    resolved, errs = bg._resolved_overlaps(3, a, 6.0, 1.0, 1e-11)
    ref = reference_overlaps(3, a, 6.0, 1.0)
    assert abs(ref[0]) < 1e-17
    assert abs(mp.mpf(resolved[0]) - ref[0]) <= 1e-16 and errs[0] <= 1e-16


def test_band_keeps_the_closed_form_where_its_bound_is_smaller():
    # order 5's closed-form bound sits just above rtol |T_5|, so the order
    # enters the band, whose rules differ by more than that bound; the band
    # value was 26 times further from mpmath than the closed form
    a, b, radius, rtol = 19.021934212499463, 0.1, 1.7842187965305232, 1e-11
    values, bounds = bg._overlaps(5, a, b, radius)
    assert bounds[5] > rtol * abs(values[5])
    resolved, errs = bg._resolved_overlaps(5, a, b, radius, rtol)
    assert resolved[5] == values[5] and errs[5] == bounds[5]
    ref = reference_overlaps(5, a, b, radius)
    assert abs(mp.mpf(resolved[5]) - ref[5]) <= rtol * abs(ref[5])


def test_closed_form_orders_need_no_quadrature_off_the_diagonal():
    values, bounds = bg._overlaps(30, 3.0, 2.0 * math.sqrt(EPSILON), 1.0)
    assert np.all(bounds <= 1e-11 * np.abs(values))
    # underflowed orders come out as exact zeros with a zero bound
    values, bounds = bg._overlaps(300, 0.5, 0.75, 1.0)
    assert values[-1] == 0.0 and bounds[-1] == 0.0
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(bounds))


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
        with pytest.raises(ResourceLimitError, match=f"l_max={l_max} exceeds the kernel cap 510"):
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
    # The name dates from the adaptive-quadrature band. The Gauss-Legendre
    # band now serves the diagonal, so the scan must load no scipy at all
    # while holding the reference values to the same rtol.
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
    # reach the near-diagonal band
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
        "from qmie import bogoliubov\n"
        "from qmie.cli import main\n"
        "rules, band = bogoliubov._band_overlaps, []\n"
        "def recording(ls, *args):\n"
        "    band.append(len(ls))\n"
        "    return rules(ls, *args)\n"
        "bogoliubov._band_overlaps = recording\n"
        f"for args, out in zip({commands!r}, {outs!r}):\n"
        "    band.clear()\n"
        "    print(args[0], main(args + ['-o', out]), len(band))\n"
    )
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(name, rc) for name, rc, _ in lines] == [(c[0], "0") for c in commands]
    # the diagonal V point and the B point at sqrt(eps) k' = k entered the band
    assert int(lines[-2][2]) > 0 and int(lines[-1][2]) > 0
    assert all(os.path.exists(out) for out in outs)
