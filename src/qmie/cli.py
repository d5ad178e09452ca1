"""Command-line surface turning library calls into reproducible datasets.

Every command writes one file, atomically, in CSV or JSON. Output is
deterministic: fixed column order, shortest round-trip float formatting,
and a sorted echo of the effective configuration in the header, so a rerun
with the same configuration is byte-identical.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, bogoliubov, observables
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateChannelError,
    NonFiniteError,
    QmieError,
    ResourceLimitError,
    ToleranceError,
)
from .miecore import POLARIZATIONS, ChannelIndex, SphereSpec, _resolve_cutoff, phase_table
from .modes import PlaneModeIndex, SphericalModeIndex, field_intensity_map

_FIG_CHANNELS = "TM:1,TE:1,TM:2,TE:2,TM:3"
# most rows one dataset may have. Every row is held in memory as text before
# the file is written, so a larger grid (field-map --points or g2-map --n-phi
# above 2048) is refused before anything is allocated.
MAX_ROWS = 2**22


def _fmt(x) -> str:
    """One CSV cell. Floats use repr: shortest decimal that round-trips."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _parse_channel(text: str) -> ChannelIndex:
    parts = text.strip().split(":")
    if len(parts) != 2 or parts[0] not in ("TE", "TM"):
        raise ConfigError(f"channels: {text!r} is not of the form TE:l or TM:l")
    try:
        l = int(parts[1])
    except ValueError:
        raise ConfigError(f"channels: {text!r} has a non-integer order") from None
    return ChannelIndex(parts[0], l)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    return data


class Option:
    """One option of one command, declared once. The name gives the config-file
    field and the flag (``--half-width`` from ``half_width``). cast is float,
    int or str; default is echoed when neither flag nor file gives a value;
    choices bind flags and file values alike; finite refuses inf and NaN."""

    def __init__(self, name, cast=str, default=None, choices=None, help=None, finite=False):
        self.name, self.cast, self.default = name, cast, default
        self.choices, self.help, self.finite = choices, help, finite

    def resolve(self, val):
        """val, from a flag, the config file or the default, cast and checked."""
        if val is None:
            return None
        if self.cast is str:
            wrong = not isinstance(val, str)
        else:
            # a JSON true or 3.9 would cast to 1 or 3 without a word
            wrong = isinstance(val, bool) or (self.cast is int and isinstance(val, float)
                                              and not val.is_integer())
        if wrong:
            kind = {str: "a string", int: "an integer", float: "a number"}[self.cast]
            raise ConfigError(f"{self.name}: {val!r} is not {kind}")
        try:
            val = self.cast(val)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{self.name}: cannot interpret {val!r}") from None
        if self.choices and val not in self.choices:
            raise ConfigError(f"{self.name}: {val!r} not one of {', '.join(self.choices)}")
        if self.finite and not math.isfinite(val):
            raise ConfigError(f"{self.name}: {val!r} is not finite")
        return val


class Resolver:
    """Every option of one command, resolved once: command-line flag over
    config-file field over default. effective holds each value for the
    provenance echo."""

    def __init__(self, args: argparse.Namespace, options):
        file_data = _load_config_file(args.config) if args.config else {}
        self.effective = {}
        for opt in options:
            val = getattr(args, opt.name)
            if val is None:
                val = file_data.get(opt.name)
            self.effective[opt.name] = opt.resolve(opt.default if val is None else val)
        # only after every declared field is cast, so a bad value is named as such
        extra = sorted(set(file_data) - set(self.effective))
        if extra:
            raise ConfigError(f"config: unknown field {extra[0]!r}")

    def __getitem__(self, name: str):
        return self.effective[name]

    def wavenumber(self, radius: float) -> tuple[float, float]:
        """Exactly one of q (= k R) and k must be set; returns (q, k)."""
        q, k = self["q"], self["k"]
        if (q is None) == (k is None):
            raise ConfigError("q/k: exactly one of q and k must be given")
        if q is None:
            q = k * radius
        else:
            k = q / radius
        if not (math.isfinite(q) and q > 0.0):
            raise ConfigError(f"q/k: size parameter q={q} must be positive")
        self.effective["q"], self.effective["k"] = q, k
        return q, k

    def sphere(self) -> SphereSpec:
        if self["epsilon"] is None:
            raise ConfigError("epsilon: required")
        return SphereSpec(epsilon=self["epsilon"], radius=self["radius"])


def _cells(column) -> list:
    """One column as CSV cells. A float array formats each distinct bit
    pattern once (so -0.0 and 0.0 stay apart); a list is formatted per cell,
    its str cells passing as they are."""
    if not isinstance(column, np.ndarray):
        return [c if type(c) is str else _fmt(c) for c in column]
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _values(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _render(fmt: str, command: str, effective: dict, names, columns, notes=()):
    cfg = {k: v for k, v in sorted(effective.items()) if v is not None}
    if fmt == "json":
        doc = {"config": {"command": command, "version": __version__, **cfg},
               "schema": list(names), "data": [list(r) for r in zip(*map(_values, columns))]}
        if notes:
            doc["config"]["notes"] = list(notes)
        return json.dumps(doc, sort_keys=True) + "\n"
    lines = [f"# artifact {__version__}", f"# command: {command}"]
    lines.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in cfg.items()))
    lines.extend(f"# {n}" for n in notes)
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    return "\n".join(lines) + "\n"


def _require_finite(command: str, names, columns) -> None:
    """Reject NaN or inf in a data column, except g2-map's documented g2 NaN."""
    for name, column in zip(names, columns):
        if (command, name) == ("g2-map", "g2"):
            continue
        if isinstance(column, np.ndarray):
            bad = column[~np.isfinite(column)].tolist()
        else:
            bad = [c for c in column if isinstance(c, float) and not math.isfinite(c)]
        if bad:
            raise NonFiniteError(f"{command}: column {name!r} holds {bad[0]!r}")


def _check_rows(command: str, rows: int) -> None:
    """Refuse a dataset of more than MAX_ROWS rows before anything is allocated."""
    if rows > MAX_ROWS:
        raise ResourceLimitError(
            f"{command}: {rows} rows exceed the cap of {MAX_ROWS} rows per dataset")


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file and one rename. The
    temporary file is created with mode 0o666, so the kernel applies the
    umask as open() would, and the umask is never read or changed; a file
    that is replaced passes its mode on."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:
        tmp = os.path.join(directory, ".qmie-" + os.urandom(8).hex())
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -------------------------------------------------------------- commands
# Each command returns (command, names, columns, notes). A column is a float64
# array, or a list for string, integer and mixed columns; rows are never built.

def cmd_phase_shifts(res: Resolver):
    spec = res.sphere()
    q, _ = res.wavenumber(spec.radius)
    l_max = res.effective["l_max"] = _resolve_cutoff(q, res["l_max"])
    t = phase_table(spec, q, l_max)
    # rows run over l, then over the polarizations: the transposed tables
    ls = [l for l in range(1, l_max + 1) for _ in POLARIZATIONS]
    ps = list(POLARIZATIONS) * l_max
    cols = [c[:, 1:].T.ravel() for c in (t.alpha, t.beta, t.gamma, t.sin_phi, t.cos_phi)]
    return ("phase-shifts", ("l", "p", "alpha", "beta", "gamma", "sin_phi", "cos_phi"),
            [ls, ps, *cols], ())


def cmd_palpha_scan(res: Resolver):
    spec = res.sphere()
    q_min, q_max, steps = res["q_min"], res["q_max"], res["q_steps"]
    if q_min is None or q_max is None or steps is None:
        raise ConfigError("q-min/q-max/q-steps: all three are required")
    if steps < 1 or not (0.0 < q_min <= q_max):
        raise ConfigError(
            f"q range [{q_min}, {q_max}] with {steps} steps is empty or invalid")
    channels = [_parse_channel(t) for t in res["channels"].split(",") if t.strip()]
    if not channels:
        raise ConfigError("channels: empty list")
    _check_rows("palpha-scan", steps * len(channels))
    qs = np.linspace(q_min, q_max, steps)
    # p_alpha = sin^2 phi, read for every channel and q from one phase table
    # over the whole grid
    l_top = max(ch.l for ch in channels)
    power = phase_table(spec, qs, l_top).sin_phi ** 2
    labels, powers, notes = [], [], []
    for ch in channels:
        label = f"{ch.p}:{ch.l}"
        vals = power[:, POLARIZATIONS.index(ch.p), ch.l]
        best = int(np.argmax(vals))
        notes.append(f"argmax {label}: q={_fmt(qs[best])} p_alpha={_fmt(vals[best])}")
        labels += [label] * steps
        powers.append(vals)
    return ("palpha-scan", ("q", "channel", "p_alpha"),
            [np.tile(qs, len(channels)), labels, np.concatenate(powers)], notes)


def cmd_field_map(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    plane, half_width, points = res["plane"], res["half_width"], res["points"]
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ConfigError(f"half-width: {half_width} must be finite and positive")
    if points < 2:
        raise ConfigError("points/half-width: grid is empty or degenerate")
    _check_rows("field-map", points * points)
    mode = SphericalModeIndex(_parse_channel(res["channel"]), res["m"], k, res["direction"])
    axes = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}[plane]
    ticks = np.linspace(-half_width * spec.radius, half_width * spec.radius, points)
    us, vs = np.repeat(ticks, points), np.tile(ticks, points)
    grid = np.zeros((points * points, 3))
    grid[:, axes[0]], grid[:, axes[1]] = us, vs
    vals = field_intensity_map(spec, mode, grid)
    return "field-map", (plane[0], plane[1], "intensity"), [us, vs, vals], ()


def cmd_cross_section(res: Resolver):
    spec = res.sphere()
    q, _ = res.wavenumber(spec.radius)
    result = observables.total_cross_section(spec, q, l_max=res["l_max"])
    n = len(result.per_channel)
    return ("cross-section", ("q", "p", "l", "sigma_channel", "sigma_total"),
            [np.full(n, q), [ch.p for ch, _ in result.per_channel],
             [ch.l for ch, _ in result.per_channel],
             np.array([contrib for _, contrib in result.per_channel]),
             np.full(n, result.sigma)], ())


def cmd_diff_cross_section(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    inc_theta, inc_phi, n_theta = res["incident_theta"], res["incident_phi"], res["n_theta"]
    if n_theta < 2:
        raise ConfigError("n-theta: need at least two detector angles")
    _check_rows("diff-cross-section", n_theta)
    kvec = (k * math.sin(inc_theta) * math.cos(inc_phi),
            k * math.sin(inc_theta) * math.sin(inc_phi),
            k * math.cos(inc_theta))
    kappa = PlaneModeIndex(res["g"], kvec)
    thetas = np.linspace(0.0, math.pi, n_theta)
    det_phi = res["detector_phi"]
    dirs = np.stack([np.sin(thetas) * math.cos(det_phi),
                     np.sin(thetas) * math.sin(det_phi),
                     np.cos(thetas)], axis=-1)
    vals = observables.differential_cross_section(spec, kappa, dirs, l_max=res["l_max"])
    return "diff-cross-section", ("theta", "dsigma_domega"), [thetas, vals], ()


def cmd_g2_map(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    n_phi = res["n_phi"]
    if n_phi < 2:
        raise ConfigError("n-phi: need at least two azimuths")
    _check_rows("g2-map", n_phi * n_phi)
    kappa1 = PlaneModeIndex(1, (k, 0.0, 0.0))
    kappa2 = PlaneModeIndex(1, (0.0, k, 0.0))
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = observables.g2_map(spec, kappa1, kappa2, res["pol_i"], res["pol_j"],
                              res["theta1"], res["theta2"], phis, phis,
                              r_detector=res["r_detector"], l_max=res["l_max"])
    return ("g2-map", ("phi1", "phi2", "g2"),
            [np.repeat(phis, n_phi), np.tile(phis, n_phi), grid.values.ravel()], ())


def cmd_bogoliubov(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    kind, kp_min, kp_max, steps = res["kind"], res["kp_min"], res["kp_max"], res["kp_steps"]
    kp_theta, kp_phi, l_max = res["kp_theta"], res["kp_phi"], res["l_max"]
    if kp_min is None or kp_max is None or steps is None:
        raise ConfigError("kp-min/kp-max/kp-steps: all three are required")
    if steps < 1 or not (0.0 < kp_min <= kp_max):
        raise ConfigError(f"k' range [{kp_min}, {kp_max}] is empty or invalid")
    _check_rows("bogoliubov", steps)
    kappa = PlaneModeIndex(res["g"], (0.0, 0.0, k))
    kps = np.linspace(kp_min, kp_max, steps)
    # drawn one at a time, so a k' that cannot be labelled fails in its place
    kappa_ps = (PlaneModeIndex(res["gp"], (kp * math.sin(kp_theta) * math.cos(kp_phi),
                                           kp * math.sin(kp_theta) * math.sin(kp_phi),
                                           kp * math.cos(kp_theta))) for kp in kps)
    # one scan: one angular pass for every k'; V ignores the direction
    kerns = bogoliubov.kernel_scan(kind, spec, kappa, kappa_ps, l_max=l_max,
                                   direction=res["direction"])
    return ("bogoliubov", ("k_prime", "value_re", "value_im", "abs_err"),
            [kps, [kern.value.real for kern in kerns], [kern.value.imag for kern in kerns],
             [kern.abs_err for kern in kerns]], ())


# ------------------------------------------------------------- the table

def _common(epsilon=None, wavenumber=True, l_max=True) -> list:
    """The sphere, wavenumber, cutoff and output options the commands share."""
    opts = [Option("epsilon", float, epsilon, help="relative permittivity (>= 1)"),
            Option("radius", float, 1.0, help="sphere radius R (default 1)")]
    if wavenumber:
        opts += [Option("q", float, help="size parameter q = k R"),
                 Option("k", float, help="vacuum wavenumber")]
    if l_max:
        opts.append(Option("l_max", int, help="multipole cutoff override"))
    return opts + [Option("format", default="csv", choices=("csv", "json")),
                   Option("output", help="output file path")]


_DIRECTION = Option("direction", default="outgoing", choices=("outgoing", "incoming"))


def _angle(name: str, default: float) -> Option:
    """An angle in radians: any finite value, refused before any trigonometry."""
    return Option(name, float, default, finite=True)


# name: (function, help, options). Each option is declared here only: its
# flag, config-file field, cast, default, choices and echo all derive from it.
_COMMANDS = {
    "phase-shifts": (cmd_phase_shifts, "Mie phase-shift table per channel", _common()),
    "palpha-scan": (cmd_palpha_scan, "scattered power fraction over a q grid", [
        *_common(wavenumber=False, l_max=False),
        Option("q_min", float), Option("q_max", float), Option("q_steps", int),
        Option("channels", default=_FIG_CHANNELS, help=f"comma list, default {_FIG_CHANNELS}")]),
    "field-map": (cmd_field_map, "planar |S/k|^2 map of one eigenmode", [
        *_common(l_max=False),
        Option("channel", default="TM:1", help="mode channel, e.g. TM:1"),
        Option("m", int, 0), _DIRECTION,
        Option("plane", default="xz", choices=("xy", "xz", "yz")),
        Option("half_width", float, 4.0, help="half extent in units of R"),
        Option("points", int, 41, help="grid points per axis")]),
    "cross-section": (cmd_cross_section, "total cross section by channel", _common()),
    "diff-cross-section": (cmd_diff_cross_section, "differential cross section scan", [
        *_common(),
        Option("g", int, 1, help="incident polarization index"),
        _angle("incident_theta", 0.0), _angle("incident_phi", 0.0),
        Option("n_theta", int, 91), _angle("detector_phi", 0.0)]),
    "g2-map": (cmd_g2_map, "two-photon correlation map over azimuths", [
        *_common(epsilon=2.1),
        Option("n_phi", int, 64), _angle("theta1", math.pi / 4.0),
        _angle("theta2", 3.0 * math.pi / 4.0),
        Option("pol_i", default="z", choices=("x", "y", "z")),
        Option("pol_j", default="z", choices=("x", "y", "z")),
        Option("r_detector", float)]),
    "bogoliubov": (cmd_bogoliubov, "coupling-kernel scan over |k'|", [
        *_common(),
        Option("kind", default="B", choices=("V", "B", "A_offdiag")),
        Option("kp_min", float), Option("kp_max", float), Option("kp_steps", int),
        _angle("kp_theta", 1.0), _angle("kp_phi", 0.7),
        Option("g", int, 1, help="polarization of the fixed mode"),
        Option("gp", int, 2, help="polarization of the scanned mode"), _DIRECTION]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="qmie",
        description="Datasets for quantized Lorenz-Mie scattering off a "
                    "lossless dielectric sphere.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a parser of one command still shows them all in its usage line
    every = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        _, help_text, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for opt in options:
            flags = ["--" + opt.name.replace("_", "-")] + (["-o"] if opt.name == "output" else [])
            p.add_argument(*flags, dest=opt.name, type=opt.cast, choices=opt.choices,
                           help=opt.help)
        p.add_argument("--config", help="JSON config file; flags take precedence")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    run, _, options = _COMMANDS[args.command]
    output = None
    try:
        res = Resolver(args, options)
        output = res["output"]
        if not output:
            raise ConfigError("output: required")
        command, names, columns, notes = run(res)
        _require_finite(command, names, columns)
        text = _render(res["format"], command, res.effective, names, columns, notes)
        _write_atomic(output, text)
    except (ToleranceError, ConsistencyError, DegenerateChannelError, NonFiniteError) as exc:
        print(f"qmie: numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except QmieError as exc:
        print(f"qmie: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qmie: i/o error on {output}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
