"""Command-line surface: determinism, formats, exit codes, config handling."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmie
from qmie import cli, modes, observables, specfun
from qmie.miecore import ChannelIndex, SphereSpec, phase_shift
from mie_oracle import qsca


def run(args):
    return cli.main(list(args))


def read_rows(path):
    """CSV body as lists of strings, skipping comments and the header."""
    lines = path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    return [l.split(",") for l in body[1:]]


# ------------------------------------------------------------- determinism

@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_dataset_gets_the_mode_open_would_give(tmp_path, umask):
    out = tmp_path / "ps.csv"
    old = os.umask(umask)
    try:
        assert run(["phase-shifts", "--epsilon", "2.1", "--q", "1", "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o7777 == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o640, 0o600, 0o664], ids=oct)
def test_overwritten_dataset_keeps_its_mode(tmp_path, mode):
    out = tmp_path / "ps.csv"
    out.write_text("old\n")
    out.chmod(mode)
    old = os.umask(0o022)
    try:
        assert run(["phase-shifts", "--epsilon", "2.1", "--q", "1", "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o7777 == mode
    assert out.read_text().startswith("#")


def test_dataset_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: reading it by setting it would expose other
    # threads' files for that instant, so the write must not call os.umask
    def refuse(mask):
        raise AssertionError("os.umask called")

    out = tmp_path / "ps.csv"
    old = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        assert run(["phase-shifts", "--epsilon", "2.1", "--q", "1", "-o", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == 0o640
        out.chmod(0o604)
        assert run(["phase-shifts", "--epsilon", "2.1", "--q", "2", "-o", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == 0o604
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ps.csv"]


def test_dataset_write_retries_a_taken_temporary_name(tmp_path, monkeypatch):
    taken = tmp_path / (".qmie-" + "00" * 8)
    taken.write_text("not ours\n")
    draws = iter([b"\0" * 8, b"\1" * 8])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    out = tmp_path / "ps.csv"
    assert run(["phase-shifts", "--epsilon", "2.1", "--q", "1", "-o", str(out)]) == 0
    assert taken.read_text() == "not ours\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "ps.csv"]

def test_repeat_run_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["phase-shifts", "--epsilon", "2.1", "--q", "0.5"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    ca, cb = a.read_bytes(), b.read_bytes()
    assert ca.replace(str(a).encode(), b"") == cb.replace(str(b).encode(), b"")


def test_repeat_g2_json_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["g2-map", "--q", "0.01", "--n-phi", "4", "--format", "json"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes().replace(str(a).encode(), b"") == \
        b.read_bytes().replace(str(b).encode(), b"")


# ------------------------------------------------------------ phase shifts

def test_phase_shifts_transparent_rows(tmp_path):
    out = tmp_path / "ps.csv"
    assert run(["phase-shifts", "--epsilon", "1.0", "--q", "2.0", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert rows
    assert all(float(r[5]) == 0.0 for r in rows)  # sin_phi column


def test_phase_shifts_bit_for_bit(tmp_path):
    out = tmp_path / "ps.csv"
    assert run(["phase-shifts", "--epsilon", "2.1", "--q", "0.5", "-o", str(out)]) == 0
    spec = SphereSpec(2.1, 1.0)
    for r in read_rows(out):
        rec = phase_shift(spec, 0.5, ChannelIndex(r[1], int(r[0])))
        assert r[2] == repr(rec.alpha_l)
        assert r[3] == repr(rec.beta_l)
        assert r[4] == repr(rec.gamma_l)
        assert r[5] == repr(rec.sin_phi)
        assert r[6] == repr(rec.cos_phi)


# -------------------------------------------------------------- exit codes

def test_invalid_epsilon_is_config_error(tmp_path, capsys):
    rc = run(["phase-shifts", "--epsilon", "0.5", "--q", "1.0",
              "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_both_q_and_k_rejected(tmp_path, capsys):
    rc = run(["phase-shifts", "--epsilon", "2.1", "--q", "1.0", "--k", "1.0",
              "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "q" in capsys.readouterr().err


def test_missing_output_rejected(capsys):
    assert run(["phase-shifts", "--epsilon", "2.1", "--q", "1.0"]) == 2
    assert "output" in capsys.readouterr().err


def test_empty_scan_range_rejected(tmp_path, capsys):
    rc = run(["palpha-scan", "--epsilon", "2.1", "--q-min", "2.0", "--q-max", "1.0",
              "--q-steps", "5", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "range" in err or "q" in err


def test_invalid_mode_is_config_error(tmp_path, capsys):
    rc = run(["field-map", "--epsilon", "2.1", "--q", "1.0", "--channel", "TM:0",
              "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_pole_hit_is_config_error(tmp_path, capsys):
    rc = run(["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kind", "A_offdiag",
              "--kp-min", "0.5", "--kp-max", "0.5", "--kp-steps", "1",
              "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "pole" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    rc = run(["phase-shifts", "--epsilon", "2.1", "--q", "1.0",
              "-o", str(tmp_path / "no" / "dir" / "x.csv")])
    assert rc == 4
    assert "x.csv" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0


# ------------------------------------------------------------- config file

def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 0.5, "format": "json"}))
    out = tmp_path / "out.csv"
    rc = run(["phase-shifts", "--config", str(cfg), "--format", "csv", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# artifact")  # csv won over the config file
    assert "epsilon=2.1" in text


def test_config_file_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 0.5, "qq": 3}))
    rc = run(["phase-shifts", "--config", str(cfg), "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "qq" in capsys.readouterr().err


def test_config_file_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = run(["phase-shifts", "--config", str(cfg), "--epsilon", "2.1", "--q", "1",
              "-o", str(tmp_path / "x.csv")])
    assert rc == 2


INTEGER_FIELDS = [
    ("phase-shifts", "l_max"), ("cross-section", "l_max"), ("palpha-scan", "q_steps"),
    ("field-map", "m"), ("field-map", "points"), ("diff-cross-section", "g"),
    ("diff-cross-section", "n_theta"), ("diff-cross-section", "l_max"), ("g2-map", "n_phi"),
    ("g2-map", "l_max"), ("bogoliubov", "kp_steps"), ("bogoliubov", "g"),
    ("bogoliubov", "gp"), ("bogoliubov", "l_max"),
]


@pytest.mark.parametrize("value", [3.9, True])
@pytest.mark.parametrize("command,field", INTEGER_FIELDS)
def test_config_integer_field_is_not_truncated(tmp_path, capsys, command, field, value):
    # int() would turn 3.9 into 3 and true into 1 and run on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 1.0, field: value}))
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(cfg), "-o", str(out)]) == 2
    assert f"{field}: {value!r} is not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_config_integral_float_is_an_integer_and_boolean_no_number(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 1.0, "l_max": 3.0}))
    assert run(["phase-shifts", "--config", str(cfg), "-o", str(out)]) == 0
    assert "l_max=3" in config_tokens(out)
    for field in ("epsilon", "radius", "q"):
        cfg.write_text(json.dumps({"epsilon": 2.1, "q": 1.0, field: True}))
        assert run(["phase-shifts", "--config", str(cfg), "-o", str(tmp_path / "y.csv")]) == 2
        assert f"{field}: True is not a number" in capsys.readouterr().err


STRING_FIELDS = [(command, opt.name) for command, (_, _, options) in cli._COMMANDS.items()
                 for opt in options if opt.cast is str]


@pytest.mark.parametrize("value", [5, [1, 0, 0]])
@pytest.mark.parametrize("command,field", STRING_FIELDS)
def test_config_string_field_takes_only_a_json_string(tmp_path, capsys, command, field, value):
    # a number would fail deep inside a command; a list would be echoed with
    # spaces that split the config line
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 1.0, field: value}))
    argv = [command, "--config", str(cfg)] + ([] if field == "output" else ["-o", str(out)])
    assert run(argv) == 2
    assert f"{field}: {value!r} is not a string" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [("plane", "ab"), ("kind", "W"), ("pol_i", "q"),
                                         ("format", "xml"), ("direction", "sideways")])
def test_config_choices_are_checked_like_flags(tmp_path, capsys, field, value):
    command = {"plane": "field-map", "kind": "bogoliubov", "pol_i": "g2-map",
               "format": "phase-shifts", "direction": "field-map"}[field]
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps({"epsilon": 2.1, "q": 1.0, field: value}))
    assert run([command, "--config", str(cfg), "-o", str(out)]) == 2
    assert f"{field}: {value!r} not one of" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ parser

def subcommands(parser):
    action, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_parser_holds_the_invoked_command_alone():
    assert subcommands(cli.build_parser("bogoliubov")) == ["bogoliubov"]
    everything = ["phase-shifts", "palpha-scan", "field-map", "cross-section",
                  "diff-cross-section", "g2-map", "bogoliubov"]
    assert subcommands(cli.build_parser()) == everything
    assert subcommands(cli.build_parser("frobnicate")) == everything


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_help_exits_0(capsys, command):
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: qmie {command} ")


# a cheap valid run of each command, as config fields
ECHO_BASE = {
    "phase-shifts": {"epsilon": 2.1, "q": 0.5},
    "palpha-scan": {"epsilon": 2.1, "q_min": 1.0, "q_max": 2.0, "q_steps": 3},
    "field-map": {"epsilon": 2.1, "q": 1.0, "points": 3},
    "cross-section": {"epsilon": 2.1, "q": 0.5},
    "diff-cross-section": {"epsilon": 2.1, "q": 0.5, "n_theta": 3},
    "g2-map": {"q": 0.5, "n_phi": 2},
    "bogoliubov": {"epsilon": 2.1, "k": 0.5, "kp_min": 0.6, "kp_max": 0.7, "kp_steps": 1},
}
# a valid value, other than the default, of every option of every command
ECHO_VALUES = {
    "epsilon": 1.5, "radius": 1.25, "q": 0.75, "k": 0.75, "l_max": 3, "format": "json",
    "output": "out", "q_min": 1.5, "q_max": 2.5, "q_steps": 2, "channels": "TE:2",
    "channel": "TE:2", "m": 1, "direction": "incoming", "plane": "xy", "half_width": 2.5,
    "points": 4, "g": 2, "incident_theta": 0.5, "incident_phi": 0.25, "n_theta": 4,
    "detector_phi": 1.0, "n_phi": 3, "theta1": 0.5, "theta2": 2.5, "pol_i": "x", "pol_j": "y",
    "r_detector": 4000.0, "kind": "V", "kp_min": 0.55, "kp_max": 0.65, "kp_steps": 2,
    "kp_theta": 0.5, "kp_phi": 0.25, "gp": 1,
}
DECLARED = [(command, opt.name) for command, (_, _, options) in cli._COMMANDS.items()
            for opt in options]


@pytest.mark.parametrize("command,name", DECLARED)
def test_flag_and_config_field_echo_alike(tmp_path, monkeypatch, command, name):
    value = ECHO_VALUES[name]
    fields = dict(ECHO_BASE[command])
    if name in ("q", "k"):
        fields.pop("q", None)
        fields.pop("k", None)
    flag = ["--" + name.replace("_", "-"), str(value)]
    outputs = []
    for where in ("flag", "file"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        given = {name: value} if where == "file" else {}
        Path("cfg.json").write_text(json.dumps({**fields, **given}))
        argv = [command, "--config", "cfg.json"]
        if where == "flag":
            argv += flag
        if name != "output":
            argv += ["-o", "out"]
        assert run(argv) == 0
        outputs.append(Path("out").read_bytes())
    assert outputs[0] == outputs[1]
    if name == "format":
        assert json.loads(outputs[0])["config"]["format"] == "json"
    else:
        assert f"{name}={cli._fmt(value)}" in config_tokens(tmp_path / "file" / "out")


# ----------------------------------------------------------- command output

def test_cross_section_transparent_row(tmp_path):
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "1.0", "--q", "1.0", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert rows and all(float(r[4]) == 0.0 for r in rows)


def test_palpha_scan_monotone_small_q(tmp_path):
    out = tmp_path / "pa.csv"
    assert run(["palpha-scan", "--epsilon", "2.1", "--q-min", "0.05", "--q-max", "0.5",
                "--q-steps", "10", "--channels", "TM:1", "-o", str(out)]) == 0
    vals = [float(r[2]) for r in read_rows(out)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_palpha_scan_reports_argmax(tmp_path):
    out = tmp_path / "pa.csv"
    assert run(["palpha-scan", "--epsilon", "2.1", "--q-min", "2.8", "--q-max", "4.0",
                "--q-steps", "61", "--channels", "TM:1", "-o", str(out)]) == 0
    note = [l for l in out.read_text().splitlines() if l.startswith("# argmax TM:1")]
    assert len(note) == 1
    q_star = float(note[0].split("q=")[1].split()[0])
    assert abs(q_star - 3.4) <= 0.1


def test_field_map_grid_shape(tmp_path):
    out = tmp_path / "fm.csv"
    assert run(["field-map", "--epsilon", "2.1", "--q", "1.0", "--channel", "TM:1",
                "--m", "0", "--points", "5", "--half-width", "2.0",
                "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 25
    assert all(float(r[2]) >= 0.0 for r in rows)


@pytest.mark.parametrize("half_width", ["inf", "-inf", "nan"])
def test_field_map_non_finite_half_width_exits_2_without_warning(tmp_path, capsys, half_width):
    out = tmp_path / "fm.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["field-map", "--epsilon", "2.1", "--q", "1.0", "--half-width", half_width,
                    "-o", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert "half-width" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field-map", "--epsilon", "2.1", "--q", "1", "--half-width", "1e9", "--points", "2"],
    ["g2-map", "--q", "1", "--r-detector", "1e9"],
])
def test_huge_radius_exits_2_at_once(tmp_path, capsys, argv):
    # k r = 1e9 is past the Bessel argument cap; the sweep is refused, not run
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    assert run(argv + ["-o", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "argument cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cross-section", "--epsilon", "2.1", "--q", "1e-60"],
    ["cross-section", "--epsilon", "2.1", "--q", "1e-150"],
    ["cross-section", "--epsilon", "2.1", "--q", "1e-170"],
    ["phase-shifts", "--epsilon", "2.1", "--q", "1e-60"],
    ["palpha-scan", "--epsilon", "2.1", "--q-min", "1e-60", "--q-max", "1", "--q-steps", "3"],
])
def test_q_below_the_floor_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["-o", str(out)]) == 2
    assert "Q_FLOOR" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["diff-cross-section", "--epsilon", "2.1", "--q", "1e-170"],
    ["g2-map", "--k", "1e-170"],
    ["bogoliubov", "--epsilon", "2.1", "--k", "1e-170", "--kind", "B",
     "--kp-min", "0.5", "--kp-max", "1", "--kp-steps", "2"],
    ["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kind", "B",
     "--kp-min", "5e-324", "--kp-max", "1", "--kp-steps", "2"],
])
def test_underflowing_wavevector_exits_2(tmp_path, capsys, argv):
    # |k|^2 underflows: the plane-wave label is refused, not divided by 0
    out = tmp_path / "out.csv"
    assert run(argv + ["-o", str(out)]) == 2
    assert "underflow" in capsys.readouterr().err
    assert not out.exists()


_HUGE_RADIUS = ["--radius", "1e200", "--k", "1e-100", "--kp-min", "1e150", "--kp-max", "2e150"]


@pytest.mark.parametrize("argv,message", [
    (["--kind", "V", "--k", "1", "--kp-min", "1e200", "--kp-max", "2e200"], "nor overflow"),
    (["--kind", "V", *_HUGE_RADIUS], "x=1e+100 exceeds the argument cap"),
    # the phase table at every k' R refuses the inf
    (["--kind", "B", *_HUGE_RADIUS], "q=inf must be finite"),
    (["--kind", "A_offdiag", *_HUGE_RADIUS], "q=inf must be finite"),
])
def test_overflowing_wavevector_exits_2(tmp_path, capsys, argv, message):
    # |k'|^2 overflows, or k' R does: a typed error before any sweep top is
    # formed, not an OverflowError from math.ceil, and no overflow warning
    out = tmp_path / "out.csv"
    argv = ["bogoliubov", "--epsilon", "2.1", *argv, "--kp-steps", "2",
            "--l-max", "5", "-o", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["phase-shifts", "--epsilon", "2.1", "--q", "1"],
    ["cross-section", "--epsilon", "2.1", "--q", "1"],
    ["diff-cross-section", "--epsilon", "2.1", "--q", "5"],
    ["bogoliubov", "--epsilon", "2.1", "--k", "5", "--kind", "V",
     "--kp-min", "1", "--kp-max", "2", "--kp-steps", "2"],
])
def test_huge_cutoff_exits_2_before_anything_is_allocated(tmp_path, argv):
    # under a 2 GiB address-space cap: a phase table of 10^8 orders would
    # take 10 GiB and the angular rows of 91 directions 73 GB
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from qmie import cli; sys.exit(cli.main(sys.argv[1:]))")
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--l-max", "100000000",
                           "-o", str(out)], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the" in proc.stderr
    assert not out.exists()


def test_diff_cross_section_scan(tmp_path):
    out = tmp_path / "ds.csv"
    assert run(["diff-cross-section", "--epsilon", "2.1", "--q", "1.0",
                "--n-theta", "7", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 7
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == math.pi


@pytest.mark.parametrize("radius", ["-1000", "0", "inf", "nan"])
def test_g2_map_detector_radius_outside_range_exits_2(tmp_path, capsys, radius):
    out = tmp_path / "g2.csv"
    assert run(["g2-map", "--q", "1", f"--r-detector={radius}", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "r_detector" in err and "far-field" not in err
    assert not out.exists()


def test_g2_map_zero_line_and_default_epsilon(tmp_path):
    out = tmp_path / "g2.csv"
    assert run(["g2-map", "--q", "0.01", "--n-phi", "8", "-o", str(out)]) == 0
    text = out.read_text()
    assert "epsilon=2.1" in text
    rows = read_rows(out)
    assert len(rows) == 64
    on_line = [float(r[2]) for r in rows
               if abs((float(r[0]) + float(r[1])) % math.pi) < 1e-9]
    assert on_line and max(on_line) < 1e-3


def test_bogoliubov_scan_with_error_column(tmp_path):
    out = tmp_path / "bg.json"
    assert run(["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kind", "B",
                "--kp-min", "0.6", "--kp-max", "0.9", "--kp-steps", "3",
                "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == ["k_prime", "value_re", "value_im", "abs_err"]
    assert len(doc["data"]) == 3
    assert all(row[3] >= 0.0 for row in doc["data"])
    assert doc["config"]["command"] == "bogoliubov"


def test_module_entry_point(tmp_path):
    out = tmp_path / "ps.csv"
    # the child imports the same qmie as this process, however pytest found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmie.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qmie.cli", "phase-shifts", "--epsilon", "2.1",
         "--q", "0.5", "-o", str(out)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.exists()


# ------------------------------------------------- numeric cells and l_max

def test_bogoliubov_csv_cells_are_plain_floats(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kind", "V",
                "--kp-min", "0.6", "--kp-max", "0.9", "--kp-steps", "3",
                "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row)


def config_tokens(path):
    line = next(l for l in path.read_text().splitlines() if l.startswith("# config: "))
    return line[len("# config: "):].split(" ")


L_MAX_COMMANDS = {
    "diff-cross-section": ["diff-cross-section", "--epsilon", "2.1", "--q", "5.0",
                           "--n-theta", "7"],
    "g2-map": ["g2-map", "--q", "3.0", "--n-phi", "4"],
    "bogoliubov": ["bogoliubov", "--epsilon", "2.1", "--k", "2.0", "--kind", "V",
                   "--kp-min", "1.5", "--kp-max", "2.5", "--kp-steps", "2"],
}


@pytest.mark.parametrize("command", sorted(L_MAX_COMMANDS))
def test_l_max_is_honoured_and_echoed(tmp_path, command):
    args = L_MAX_COMMANDS[command]
    default, flag, cfg_out = tmp_path / "d.csv", tmp_path / "f.csv", tmp_path / "c.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l_max": 2}))
    assert run(args + ["-o", str(default)]) == 0
    assert run(args + ["--l-max", "2", "-o", str(flag)]) == 0
    assert run(args + ["--config", str(cfg), "-o", str(cfg_out)]) == 0
    assert not [t for t in config_tokens(default) if t.startswith("l_max=")]
    assert "l_max=2" in config_tokens(flag)
    assert read_rows(flag) != read_rows(default)
    assert read_rows(cfg_out) == read_rows(flag)


@pytest.mark.parametrize("args", [
    ["field-map", "--epsilon", "2.1", "--q", "1.0", "--points", "3"],
    ["palpha-scan", "--epsilon", "2.1", "--q-min", "1.0", "--q-max", "2.0",
     "--q-steps", "3"],
])
def test_l_max_rejected_where_unused(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run(args + ["--l-max", "2", "-o", str(out)]) == 2
    assert "--l-max" in capsys.readouterr().err
    assert not out.exists()


def test_l_max_replaces_the_default_cutoff(tmp_path):
    # the default cutoff of q = 474 needs order 512 and is not computed
    out = tmp_path / "ps.csv"
    assert run(["phase-shifts", "--epsilon", "2.1", "--q", "474", "--l-max", "10",
                "-o", str(out)]) == 0
    assert "l_max=10" in config_tokens(out)
    assert max(int(r[0]) for r in read_rows(out)) == 10


def test_truncation_beyond_hard_cap_names_needed_order(tmp_path, capsys):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "474", "-o", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "multipole order 512" in err and "Bessel order 513" in err
    assert not bad.exists()
    assert run(["cross-section", "--epsilon", "2.1", "--q", "473", "-o", str(good)]) == 0
    assert max(int(r[2]) for r in read_rows(good)) == 511


def test_explicit_l_max_512_names_the_bessel_order_it_needs(tmp_path, capsys):
    out = tmp_path / "sigma.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "2", "--l-max", "512", "-o", str(out)]) == 2
    assert "l_max=512 needs Bessel order 513" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- non-finite values

def test_cross_section_far_past_q_is_finite(tmp_path):
    # l >> q: y_l overflows and j_l underflows; the phase table keeps the
    # channel finite (tiny or exactly zero) instead of 0 * inf = nan
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "0.5", "--l-max", "200",
                "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 400
    assert all(math.isfinite(float(r[3])) for r in rows)
    total = float(rows[0][4])
    # the classical series past l = 20 adds less than 1e-100
    assert total == pytest.approx(math.pi * qsca(math.sqrt(2.1), 0.5, 20), rel=1e-10)


def test_non_finite_data_exits_3_without_file(tmp_path, monkeypatch, capsys):
    def broken(spec, q, l_max=None):
        ch = ChannelIndex("TM", 1)
        return observables.CrossSectionResult(math.inf, ((ch, math.inf),), 1)

    monkeypatch.setattr(cli.observables, "total_cross_section", broken)
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "1.0", "-o", str(out)]) == 3
    assert "sigma_channel" in capsys.readouterr().err
    assert not out.exists()


def test_cross_section_nan_self_check_exits_3(tmp_path, monkeypatch):
    real = specfun._tangential_norms
    monkeypatch.setattr(observables.specfun, "_tangential_norms",
                        lambda *args: real(*args) * math.nan)
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "1.0", "-o", str(out)]) == 3
    assert not out.exists()


def test_cross_section_broken_normalization_exits_3(tmp_path, monkeypatch):
    # Legendre seeds off by 1e-6: the self-check, not the data, catches it
    real = specfun._legendre_seeds
    monkeypatch.setattr(specfun, "_legendre_seeds",
                        lambda theta, m_top: real(theta, m_top) * (1.0 + 1e-6))
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "150.2", "-o", str(out)]) == 3
    assert not out.exists()


def test_g2_zero_signal_nan_is_written(tmp_path, monkeypatch):
    # the documented exception: g2 is NaN where a detector sees no signal
    real_sum, real_wave = modes._mode_sum, modes.plane_wave_mode

    def mute(value, points):
        return np.where(np.asarray(points)[..., 2:] > 0, 0.0, value)

    def muted_wave(kappa, point):
        sample = real_wave(kappa, point)
        return modes.FieldSample(value=mute(sample.value, point), point=sample.point)

    monkeypatch.setattr(observables.modes, "_mode_sum",
                        lambda spec, kappas, direction, points, *a:
                        mute(real_sum(spec, kappas, direction, points, *a), points))
    monkeypatch.setattr(observables.modes, "plane_wave_mode", muted_wave)
    out = tmp_path / "g2.csv"
    assert run(["g2-map", "--k", "0.01", "--n-phi", "2", "-o", str(out)]) == 0
    assert all(math.isnan(float(r[2])) for r in read_rows(out))


# ------------------------------------------------------------ scan path

SCAN_ARGS = ["palpha-scan", "--epsilon", "2.1", "--q-min", "0.5", "--q-max", "12.0",
             "--q-steps", "400", "--channels", "TM:1,TM:2,TM:3,TM:4,TM:5,TE:1,TE:2,TE:3,TE:4,TE:5"]


def test_palpha_scan_builds_one_phase_table(tmp_path, monkeypatch):
    shapes, build = [], cli.phase_table

    def counting(spec, q, l_max):
        shapes.append(np.shape(q))
        return build(spec, q, l_max)

    monkeypatch.setattr(cli, "phase_table", counting)
    assert run(SCAN_ARGS + ["-o", str(tmp_path / "scan.csv")]) == 0
    assert shapes == [(400,)]


# sha256 of the files these commands wrote before the scan read its whole q
# grid from one table; relative output names keep the header echo fixed
FROZEN_DIGESTS = [
    (SCAN_ARGS + ["-o", "scan.csv"],
     "97dc32382766b78a0b2bf527242571d2e33df9fbe5922b3821b09e6494c84851"),
    (["phase-shifts", "--epsilon", "2.1", "--q", "200", "-o", "table.csv"],
     "71eac1cba26cce12868489d81cfca5f5f98f837260d7a6e1817212eb6b7d1fb1"),
    # re-pinned when the polar angle of a point became atan2(hypot(x, y), z)
    # instead of acos(z / r): 444 of 1681 intensity cells moved, each by at
    # most 1.0e-17 (1.8e-16 of the largest intensity, 2.8e-14 relative)
    (["field-map", "--epsilon", "2.1", "--q", "3.4", "--channel", "TM:1", "-o", "field.csv"],
     "cde7570daca9ab8c0f3ffe43aab6486e97ef4f910b70577defd157fd4e4c2eb7"),
    # written before the commands returned columns instead of rows
    (["field-map", "--epsilon", "2.1", "--q", "8", "--channel", "TE:2", "--plane", "xy",
      "--points", "33", "--format", "json", "-o", "field.json"],
     "ae4d1b0fc7a88e96f15ec584075c10338d81cb4f73e0a6fe03956c49ff8aa571"),
    # re-pinned when the mode sums moved from the m sums to pi_l at n . rhat:
    # every g2 cell moved by at most 3.4e-15 (k = 3) and 1.4e-15 (k = 0.01)
    (["g2-map", "--k", "3", "-o", "g2.csv"],
     "89505458b5796510a1134782b0eee33a0df4b6b95f9f58fc85dd623d0d6cc62f"),
    (["g2-map", "--k", "0.01", "--format", "json", "-o", "g2.json"],
     "cfb8ae2bca3208b18fb73a0574914c6b451e870acaf1f843d90f1668e5117d6d"),
    (["cross-section", "--epsilon", "2.1", "--q", "150", "-o", "sigma.csv"],
     "b7dd9c2ece974ea3225d6b3fdf704ec7a936a2874b1b9cc1ba002edfb10e70d9"),
    (["cross-section", "--epsilon", "2.1", "--q", "0.5", "--l-max", "200", "--format", "json",
      "-o", "sigma.json"],
     "a4cdad5bf50a324c218b519d3a42a27f02b3b1607b0ce500cf005518bef8d925"),
    # re-pinned when amplitudes and kernel angular sums moved from the m sums
    # to pi_l and tau_l at the scattering angle: every dsigma/dOmega row moved
    # by at most 6.5e-14 relative, and every kernel value by at most 0.025 of
    # the sum of the two sides' abs_err. All three re-pinned again when the
    # polar angle of a plane wave and of a detector direction became
    # atan2(hypot(x, y), z) instead of an arccos: 24 of 182 dsigma/dOmega
    # cells moved, each by at most 1.3e-14 of the largest value; 5 of 28 B
    # cells and 3 of 28 V cells moved, each value by at most 0.0012 (B) and
    # 0.0022 (V) of the sum of the two sides' abs_err
    (["diff-cross-section", "--epsilon", "2.1", "--q", "35.4", "--g", "2", "--detector-phi", "1",
      "-o", "dsigma.csv"],
     "edcbb94649d9df91ef059502178c58b631e135db10011712f455c0ac5c966f83"),
    (["bogoliubov", "--epsilon", "2.1", "--k", "5", "--kind", "B", "--kp-min", "3",
      "--kp-max", "9", "--kp-steps", "7", "-o", "b.csv"],
     "f6438c52c770c58e0c3243a974bee1fd5ab967323a65297d3540aed900dbff47"),
    (["bogoliubov", "--epsilon", "2.1", "--k", "3", "--kind", "V", "--kp-min", "2",
      "--kp-max", "6", "--kp-steps", "7", "--format", "json", "-o", "v.json"],
     "7eadb28381ae1f8398b6d297ba03331a1096394de8a413de3b5e85ba714ef2b3"),
    (["phase-shifts", "--epsilon", "2.1", "--q", "37", "--format", "json", "-o", "table.json"],
     "53798502efe6db6ad04ee44c532bee7c21e41948c9a1a0d6c33a84a7358ee961"),
]


@pytest.mark.parametrize("args,digest", FROZEN_DIGESTS, ids=[
    "palpha-scan", "phase-shifts-q200", "field-map-csv", "field-map-xy-json", "g2-map-csv",
    "g2-map-json", "cross-section-q150", "cross-section-lmax200-json", "diff-cross-section",
    "bogoliubov-B", "bogoliubov-V-json", "phase-shifts-q37-json"])
def test_scan_and_table_outputs_are_frozen(tmp_path, monkeypatch, args, digest):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 0
    assert hashlib.sha256((tmp_path / args[-1]).read_bytes()).hexdigest() == digest


# ------------------------------------------------------- columnar datasets

# values whose formatting the distinct-value step must keep apart or intact
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]


@st.composite
def columnar_cases(draw):
    n = draw(st.integers(3, 42))
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=4)) + EDGE_VALUES

    def column(cells, size=n):
        return draw(st.lists(cells, min_size=size, max_size=size))

    # heavy repetition, with both zeros in one column at drawn positions
    phi1 = draw(st.permutations(column(st.sampled_from(pool), n - 2) + [0.0, -0.0]))
    phi2 = column(st.floats(allow_nan=False, allow_infinity=False))
    g2 = column(st.one_of(st.sampled_from(pool), st.just(math.nan)))
    ls = column(st.integers(-10**6, 10**6))
    ps = column(st.sampled_from(["TM", "TE", "TM:1", "TE:12"]))
    mixed = [draw(st.sampled_from([float, np.float64]))(x)
             for x in column(st.sampled_from(pool))]
    return np.array(phi1), np.array(phi2), np.array(g2), ls, ps, mixed


@settings(max_examples=80, deadline=None)
@given(case=columnar_cases())
def test_csv_cells_format_each_value_of_every_column(case):
    names = ("phi1", "phi2", "g2", "l", "p", "sigma")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._require_finite("g2-map", names, case)  # g2's NaN is the documented exception
        text = cli._render("csv", "g2-map", {}, names, case)
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == ",".join(names)
    phi1, phi2, g2, ls, ps, mixed = case
    expected = [[repr(float(x)) for x in phi1], [repr(float(x)) for x in phi2],
                [repr(float(x)) for x in g2], [str(x) for x in ls], [str(x) for x in ps],
                [repr(float(x)) for x in mixed]]
    assert [row.split(",") for row in body[1:]] == [list(r) for r in zip(*expected)]


def test_list_cells_pass_strings_and_keep_zeros_and_ints_apart():
    column = ["TM:1", 0.0, -0.0, 1, 1.0, np.float64(-0.0), True, "2.50"]
    assert cli._cells(column) == ["TM:1", "0.0", "-0.0", "1", "1.0", "-0.0", "True", "2.50"]


@pytest.mark.parametrize("target,module,column,bad", [
    ("field_intensity_map", cli, "intensity", math.inf),
    ("differential_cross_section", observables, "dsigma_domega", math.nan),
])
def test_non_finite_numpy_column_exits_3(tmp_path, monkeypatch, capsys, target, module,
                                         column, bad):
    real = getattr(module, target)

    def poisoned(*args, **kwargs):
        vals = np.array(real(*args, **kwargs), dtype=float)
        vals[len(vals) // 2] = bad
        return vals

    monkeypatch.setattr(module, target, poisoned)
    out = tmp_path / "x.csv"
    args = {"intensity": ["field-map", "--epsilon", "2.1", "--q", "1.0", "--points", "5"],
            "dsigma_domega": ["diff-cross-section", "--epsilon", "2.1", "--q", "1.0",
                              "--n-theta", "7"]}[column]
    assert run(args + ["-o", str(out)]) == 3
    assert f"column {column!r} holds {bad!r}" in capsys.readouterr().err
    assert not out.exists()


class Allocated(Exception):
    """A command reached its first grid allocation."""


# each command with the largest value of its size flag that stays within
# cli.MAX_ROWS rows
ROW_CAP_ARGS = {
    "field-map": (["field-map", "--epsilon", "2.1", "--q", "1.0", "--points"], 2048),
    "g2-map": (["g2-map", "--k", "1.0", "--n-phi"], 2048),
    "palpha-scan": (["palpha-scan", "--epsilon", "2.1", "--q-min", "1.0", "--q-max", "2.0",
                     "--channels", "TM:1,TE:1", "--q-steps"], 2**21),
    "diff-cross-section": (["diff-cross-section", "--epsilon", "2.1", "--q", "1.0",
                            "--n-theta"], 2**22),
    "bogoliubov": (["bogoliubov", "--epsilon", "2.1", "--k", "1.0", "--kp-min", "0.5",
                    "--kp-max", "0.9", "--kp-steps"], 2**22),
}


@pytest.mark.parametrize("command", sorted(ROW_CAP_ARGS))
def test_rows_above_cap_are_refused_before_allocation(tmp_path, monkeypatch, capsys, command):
    # every grid starts from np.linspace: refusing it shows that the size
    # check comes first, and nothing of the requested size is allocated
    def refuse(*args, **kwargs):
        raise Allocated

    args, largest = ROW_CAP_ARGS[command]
    monkeypatch.setattr(cli.np, "linspace", refuse)
    out = tmp_path / "x.csv"
    with pytest.raises(Allocated):
        run(args + [str(largest), "-o", str(out)])
    assert run(args + [str(largest + 1), "-o", str(out)]) == 2
    assert f"exceed the cap of {cli.MAX_ROWS} rows" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------- angle options

ANGLE_ARGS = {
    "theta1": ["g2-map", "--k", "1.0", "--n-phi", "2"],
    "theta2": ["g2-map", "--k", "1.0", "--n-phi", "2"],
    "incident_theta": ["diff-cross-section", "--epsilon", "2.1", "--q", "0.5"],
    "incident_phi": ["diff-cross-section", "--epsilon", "2.1", "--q", "0.5"],
    "detector_phi": ["diff-cross-section", "--epsilon", "2.1", "--q", "0.5"],
    "kp_theta": ["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kp-min", "0.6",
                 "--kp-max", "0.9", "--kp-steps", "2"],
    "kp_phi": ["bogoliubov", "--epsilon", "2.1", "--k", "0.5", "--kp-min", "0.6",
               "--kp-max", "0.9", "--kp-steps", "2"],
}


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("option", sorted(ANGLE_ARGS))
def test_infinite_angle_exits_2_before_any_math(tmp_path, monkeypatch, capsys, option, value):
    def refuse(*args):
        raise AssertionError("trigonometry reached")

    # the commands' own trigonometry runs on math.sin and math.cos
    monkeypatch.setattr(cli.math, "sin", refuse)
    monkeypatch.setattr(cli.math, "cos", refuse)
    out = tmp_path / "x.csv"
    # --flag=-inf, since argparse reads a bare -inf as an option
    flag = "--" + option.replace("_", "-")
    assert run(ANGLE_ARGS[option] + [f"{flag}={value}", "-o", str(out)]) == 2
    assert f"config error: {option}: {float(value)!r} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_angle_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kp_phi": Infinity}')
    out = tmp_path / "x.csv"
    assert run(ANGLE_ARGS["kp_phi"] + ["--config", str(cfg), "-o", str(out)]) == 2
    assert "kp_phi: inf is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_cross_section_columns_are_float_arrays():
    args = build_args(["cross-section", "--epsilon", "2.1", "--q", "3.0", "-o", "x.csv"])
    res = cli.Resolver(args, cli._COMMANDS["cross-section"][2])
    _, names, columns, _ = cli.cmd_cross_section(res)
    cols = dict(zip(names, columns))
    for name in ("q", "sigma_channel", "sigma_total"):
        assert isinstance(cols[name], np.ndarray) and cols[name].dtype == np.float64
    assert len(set(cols["q"].tolist())) == len(set(cols["sigma_total"].tolist())) == 1


def build_args(argv):
    return cli.build_parser(argv[0]).parse_args(argv)
