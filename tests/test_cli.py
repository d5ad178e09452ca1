"""Command-line surface: determinism, formats, exit codes, config handling."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qmie
from qmie import cli, modes, observables
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


def test_diff_cross_section_scan(tmp_path):
    out = tmp_path / "ds.csv"
    assert run(["diff-cross-section", "--epsilon", "2.1", "--q", "1.0",
                "--n-theta", "7", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 7
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == math.pi


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


def test_truncation_beyond_hard_cap_names_needed_order(tmp_path, capsys):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "474", "-o", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "multipole order 512" in err and "Bessel order 513" in err
    assert not bad.exists()
    assert run(["cross-section", "--epsilon", "2.1", "--q", "473", "-o", str(good)]) == 0
    assert max(int(r[2]) for r in read_rows(good)) == 511


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
    real = modes._coefficient_table
    monkeypatch.setattr(observables.modes, "_coefficient_table",
                        lambda *args: real(*args) * math.nan)
    out = tmp_path / "cs.csv"
    assert run(["cross-section", "--epsilon", "2.1", "--q", "1.0", "-o", str(out)]) == 3
    assert not out.exists()


def test_g2_zero_signal_nan_is_written(tmp_path, monkeypatch):
    # the documented exception: g2 is NaN where a detector sees no signal
    real = modes.scattering_eigenmode

    def muted(spec, kappa, direction, point, **kw):
        sample = real(spec, kappa, direction, point, **kw)
        upper = np.asarray(point)[..., 2:] > 0
        return modes.FieldSample(value=np.where(upper, 0.0, sample.value), point=sample.point)

    monkeypatch.setattr(observables.modes, "scattering_eigenmode", muted)
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
]


@pytest.mark.parametrize("args,digest", FROZEN_DIGESTS, ids=["palpha-scan", "phase-shifts-q200"])
def test_scan_and_table_outputs_are_frozen(tmp_path, monkeypatch, args, digest):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 0
    assert hashlib.sha256((tmp_path / args[-1]).read_bytes()).hexdigest() == digest
