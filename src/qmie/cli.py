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
import tempfile

import numpy as np

from . import __version__, bogoliubov, observables
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateChannelError,
    DomainError,
    NonFiniteError,
    PoleExcludedError,
    QmieError,
    ResourceLimitError,
    ToleranceError,
)
from .miecore import POLARIZATIONS, ChannelIndex, SphereSpec, phase_table, truncation_order
from .modes import PlaneModeIndex, SphericalModeIndex, field_intensity_map

_FIG_CHANNELS = "TM:1,TE:1,TM:2,TE:2,TM:3"


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


class Resolver:
    """Merges command-line flags over config-file values over defaults and
    records every effective value for the provenance echo."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_data = {}
        if getattr(args, "config", None):
            self.file_data = _load_config_file(args.config)
        self.known = set()
        self.effective = {}

    def get(self, key: str, default=None, cast=None):
        self.known.add(key)
        val = getattr(self.args, key.replace("-", "_"), None)
        if val is None:
            val = self.file_data.get(key)
        if val is None:
            val = default
        if val is not None and cast is not None:
            try:
                val = cast(val)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: cannot interpret {val!r}") from None
        self.effective[key] = val
        return val

    def reject_unknown(self) -> None:
        extra = sorted(set(self.file_data) - self.known)
        if extra:
            raise ConfigError(f"config: unknown field {extra[0]!r}")

    def wavenumber(self, radius: float) -> tuple[float, float]:
        """Exactly one of q (= k R) and k must be set; returns (q, k)."""
        q = self.get("q", cast=float)
        k = self.get("k", cast=float)
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

    def sphere(self, default_epsilon=None) -> SphereSpec:
        eps = self.get("epsilon", default=default_epsilon, cast=float)
        radius = self.get("radius", default=1.0, cast=float)
        if eps is None:
            raise ConfigError("epsilon: required")
        return SphereSpec(epsilon=eps, radius=radius)


def _render(fmt: str, command: str, effective: dict, columns, rows, notes=()):
    cfg = {k: v for k, v in sorted(effective.items()) if v is not None}
    if fmt == "json":
        doc = {"config": {"command": command, "version": __version__, **cfg},
               "schema": list(columns), "data": [list(r) for r in rows]}
        if notes:
            doc["config"]["notes"] = list(notes)
        return json.dumps(doc, sort_keys=True) + "\n"
    lines = [f"# artifact {__version__}", f"# command: {command}"]
    lines.append("# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in cfg.items()))
    lines.extend(f"# {n}" for n in notes)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _require_finite(command: str, columns, rows) -> None:
    """Reject NaN or inf in a data column, except g2-map's documented g2 NaN."""
    for i, name in enumerate(columns):
        if (command, name) == ("g2-map", "g2"):
            continue
        bad = [row[i] for row in rows if isinstance(row[i], float) and not math.isfinite(row[i])]
        if bad:
            raise NonFiniteError(f"{command}: column {name!r} holds {bad[0]!r}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qmie-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -------------------------------------------------------------- commands

def cmd_phase_shifts(res: Resolver):
    spec = res.sphere()
    q, _ = res.wavenumber(spec.radius)
    l_max = res.get("l_max", default=truncation_order(q), cast=int)
    res.reject_unknown()
    t = phase_table(spec, q, l_max)
    cols = (t.alpha, t.beta, t.gamma, t.sin_phi, t.cos_phi)
    rows = [(l, p, *(float(c[i, l]) for c in cols))
            for l in range(1, l_max + 1) for i, p in enumerate(POLARIZATIONS)]
    return ("phase-shifts", ("l", "p", "alpha", "beta", "gamma", "sin_phi", "cos_phi"),
            rows, ())


def cmd_palpha_scan(res: Resolver):
    spec = res.sphere()
    q_min = res.get("q_min", cast=float)
    q_max = res.get("q_max", cast=float)
    steps = res.get("q_steps", cast=int)
    chan_text = res.get("channels", default=_FIG_CHANNELS)
    res.reject_unknown()
    if q_min is None or q_max is None or steps is None:
        raise ConfigError("q-min/q-max/q-steps: all three are required")
    if steps < 1 or not (0.0 < q_min <= q_max):
        raise ConfigError(
            f"q range [{q_min}, {q_max}] with {steps} steps is empty or invalid")
    channels = [_parse_channel(t) for t in chan_text.split(",") if t.strip()]
    if not channels:
        raise ConfigError("channels: empty list")
    qs = np.linspace(q_min, q_max, steps)
    # p_alpha = sin^2 phi, read for every channel from one phase table per q
    l_top = max(ch.l for ch in channels)
    power = np.array([phase_table(spec, float(q), l_top).sin_phi for q in qs]) ** 2
    rows, notes = [], []
    for ch in channels:
        label = f"{ch.p}:{ch.l}"
        vals = power[:, POLARIZATIONS.index(ch.p), ch.l].tolist()
        best = int(np.argmax(vals))
        notes.append(f"argmax {label}: q={_fmt(float(qs[best]))} "
                     f"p_alpha={_fmt(float(vals[best]))}")
        rows.extend((float(q), label, v) for q, v in zip(qs, vals))
    return "palpha-scan", ("q", "channel", "p_alpha"), rows, notes


def cmd_field_map(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    ch = _parse_channel(res.get("channel", default="TM:1"))
    m = res.get("m", default=0, cast=int)
    direction = res.get("direction", default="outgoing")
    plane = res.get("plane", default="xz")
    half_width = res.get("half_width", default=4.0, cast=float)
    points = res.get("points", default=41, cast=int)
    res.reject_unknown()
    if plane not in ("xy", "xz", "yz"):
        raise ConfigError(f"plane: {plane!r} not one of xy, xz, yz")
    if points < 2 or half_width <= 0.0:
        raise ConfigError("points/half-width: grid is empty or degenerate")
    mode = SphericalModeIndex(ch, m, k, direction)
    axes = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}[plane]
    ticks = np.linspace(-half_width * spec.radius, half_width * spec.radius, points)
    grid = []
    for u in ticks:
        for v in ticks:
            pt = [0.0, 0.0, 0.0]
            pt[axes[0]], pt[axes[1]] = u, v
            grid.append(pt)
    vals = field_intensity_map(spec, mode, grid)
    rows = [(float(g[axes[0]]), float(g[axes[1]]), float(val))
            for g, val in zip(grid, vals)]
    return "field-map", (plane[0], plane[1], "intensity"), rows, ()


def cmd_cross_section(res: Resolver):
    spec = res.sphere()
    q, _ = res.wavenumber(spec.radius)
    l_max = res.get("l_max", cast=int)
    res.reject_unknown()
    result = observables.total_cross_section(spec, q, l_max=l_max)
    rows = [(q, ch.p, ch.l, contrib, result.sigma)
            for ch, contrib in result.per_channel]
    return ("cross-section", ("q", "p", "l", "sigma_channel", "sigma_total"),
            rows, ())


def cmd_diff_cross_section(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    g = res.get("g", default=1, cast=int)
    inc_theta = res.get("incident_theta", default=0.0, cast=float)
    inc_phi = res.get("incident_phi", default=0.0, cast=float)
    n_theta = res.get("n_theta", default=91, cast=int)
    det_phi = res.get("detector_phi", default=0.0, cast=float)
    l_max = res.get("l_max", cast=int)
    res.reject_unknown()
    if n_theta < 2:
        raise ConfigError("n-theta: need at least two detector angles")
    kvec = (k * math.sin(inc_theta) * math.cos(inc_phi),
            k * math.sin(inc_theta) * math.sin(inc_phi),
            k * math.cos(inc_theta))
    kappa = PlaneModeIndex(g, kvec)
    thetas = np.linspace(0.0, math.pi, n_theta)
    dirs = np.stack([np.sin(thetas) * math.cos(det_phi),
                     np.sin(thetas) * math.sin(det_phi),
                     np.cos(thetas)], axis=-1)
    vals = observables.differential_cross_section(spec, kappa, dirs, l_max=l_max)
    rows = [(float(t), float(v)) for t, v in zip(thetas, vals)]
    return "diff-cross-section", ("theta", "dsigma_domega"), rows, ()


def cmd_g2_map(res: Resolver):
    spec = res.sphere(default_epsilon=2.1)
    _, k = res.wavenumber(spec.radius)
    n_phi = res.get("n_phi", default=64, cast=int)
    theta1 = res.get("theta1", default=math.pi / 4.0, cast=float)
    theta2 = res.get("theta2", default=3.0 * math.pi / 4.0, cast=float)
    pol_i = res.get("pol_i", default="z")
    pol_j = res.get("pol_j", default="z")
    r_det = res.get("r_detector", cast=float)
    l_max = res.get("l_max", cast=int)
    res.reject_unknown()
    if n_phi < 2:
        raise ConfigError("n-phi: need at least two azimuths")
    kappa1 = PlaneModeIndex(1, (k, 0.0, 0.0))
    kappa2 = PlaneModeIndex(1, (0.0, k, 0.0))
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = observables.g2_map(spec, kappa1, kappa2, pol_i, pol_j,
                              theta1, theta2, phis, phis, r_detector=r_det, l_max=l_max)
    rows = [(float(p1), float(p2), float(grid.values[i, j]))
            for i, p1 in enumerate(phis) for j, p2 in enumerate(phis)]
    return "g2-map", ("phi1", "phi2", "g2"), rows, ()


def cmd_bogoliubov(res: Resolver):
    spec = res.sphere()
    _, k = res.wavenumber(spec.radius)
    kind = res.get("kind", default="B")
    kp_min = res.get("kp_min", cast=float)
    kp_max = res.get("kp_max", cast=float)
    steps = res.get("kp_steps", cast=int)
    kp_theta = res.get("kp_theta", default=1.0, cast=float)
    kp_phi = res.get("kp_phi", default=0.7, cast=float)
    g = res.get("g", default=1, cast=int)
    gp = res.get("gp", default=2, cast=int)
    direction = res.get("direction", default="outgoing")
    l_max = res.get("l_max", cast=int)
    res.reject_unknown()
    ops = {"V": bogoliubov.coupling_v,
           "B": bogoliubov.b_coefficient,
           "A_offdiag": bogoliubov.a_offdiagonal_kernel}
    if kind not in ops:
        raise ConfigError(f"kind: {kind!r} not one of {sorted(ops)}")
    if kp_min is None or kp_max is None or steps is None:
        raise ConfigError("kp-min/kp-max/kp-steps: all three are required")
    if steps < 1 or not (0.0 < kp_min <= kp_max):
        raise ConfigError(f"k' range [{kp_min}, {kp_max}] is empty or invalid")
    kappa = PlaneModeIndex(g, (0.0, 0.0, k))
    rows = []
    for kp in np.linspace(kp_min, kp_max, steps):
        kvec = (kp * math.sin(kp_theta) * math.cos(kp_phi),
                kp * math.sin(kp_theta) * math.sin(kp_phi),
                kp * math.cos(kp_theta))
        kappa_p = PlaneModeIndex(gp, kvec)
        if kind == "V":
            kern = ops[kind](spec, kappa, kappa_p, l_max=l_max)
        else:
            kern = ops[kind](spec, kappa, kappa_p, l_max=l_max, direction=direction)
        rows.append((float(kp), kern.value.real, kern.value.imag, kern.abs_err))
    return "bogoliubov", ("k_prime", "value_re", "value_im", "abs_err"), rows, ()


_COMMANDS = {
    "phase-shifts": cmd_phase_shifts,
    "palpha-scan": cmd_palpha_scan,
    "field-map": cmd_field_map,
    "cross-section": cmd_cross_section,
    "diff-cross-section": cmd_diff_cross_section,
    "g2-map": cmd_g2_map,
    "bogoliubov": cmd_bogoliubov,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmie",
        description="Datasets for quantized Lorenz-Mie scattering off a "
                    "lossless dielectric sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, wavenumber=True, l_max=True):
        p.add_argument("--epsilon", type=float, help="relative permittivity (>= 1)")
        p.add_argument("--radius", type=float, help="sphere radius R (default 1)")
        if wavenumber:
            p.add_argument("--q", type=float, help="size parameter q = k R")
            p.add_argument("--k", type=float, help="vacuum wavenumber")
        if l_max:
            p.add_argument("--l-max", type=int, dest="l_max", help="multipole cutoff override")
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", "-o", help="output file path")

    p = sub.add_parser("phase-shifts", help="Mie phase-shift table per channel")
    common(p)

    p = sub.add_parser("palpha-scan", help="scattered power fraction over a q grid")
    common(p, wavenumber=False, l_max=False)
    p.add_argument("--q-min", type=float, dest="q_min")
    p.add_argument("--q-max", type=float, dest="q_max")
    p.add_argument("--q-steps", type=int, dest="q_steps")
    p.add_argument("--channels", help=f"comma list, default {_FIG_CHANNELS}")

    p = sub.add_parser("field-map", help="planar |S/k|^2 map of one eigenmode")
    common(p, l_max=False)
    p.add_argument("--channel", help="mode channel, e.g. TM:1")
    p.add_argument("--m", type=int)
    p.add_argument("--direction", choices=("outgoing", "incoming"))
    p.add_argument("--plane", choices=("xy", "xz", "yz"))
    p.add_argument("--half-width", type=float, dest="half_width",
                   help="half extent in units of R")
    p.add_argument("--points", type=int, help="grid points per axis")

    p = sub.add_parser("cross-section", help="total cross section by channel")
    common(p)

    p = sub.add_parser("diff-cross-section", help="differential cross section scan")
    common(p)
    p.add_argument("--g", type=int, help="incident polarization index")
    p.add_argument("--incident-theta", type=float, dest="incident_theta")
    p.add_argument("--incident-phi", type=float, dest="incident_phi")
    p.add_argument("--n-theta", type=int, dest="n_theta")
    p.add_argument("--detector-phi", type=float, dest="detector_phi")

    p = sub.add_parser("g2-map", help="two-photon correlation map over azimuths")
    common(p)
    p.add_argument("--n-phi", type=int, dest="n_phi")
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--pol-i", dest="pol_i")
    p.add_argument("--pol-j", dest="pol_j")
    p.add_argument("--r-detector", type=float, dest="r_detector")

    p = sub.add_parser("bogoliubov", help="coupling-kernel scan over |k'|")
    common(p)
    p.add_argument("--kind", choices=("V", "B", "A_offdiag"))
    p.add_argument("--kp-min", type=float, dest="kp_min")
    p.add_argument("--kp-max", type=float, dest="kp_max")
    p.add_argument("--kp-steps", type=int, dest="kp_steps")
    p.add_argument("--kp-theta", type=float, dest="kp_theta")
    p.add_argument("--kp-phi", type=float, dest="kp_phi")
    p.add_argument("--g", type=int, help="polarization of the fixed mode")
    p.add_argument("--gp", type=int, help="polarization of the scanned mode")
    p.add_argument("--direction", choices=("outgoing", "incoming"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    output = None
    try:
        res = Resolver(args)
        fmt = res.get("format", default="csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format: {fmt!r} not one of csv, json")
        output = res.get("output")
        if not output:
            raise ConfigError("output: required")
        command, columns, rows, notes = _COMMANDS[args.command](res)
        _require_finite(command, columns, rows)
        text = _render(fmt, command, res.effective, columns, rows, notes)
        _write_atomic(output, text)
    except (ConfigError, DomainError, PoleExcludedError, ResourceLimitError) as exc:
        print(f"qmie: config error: {exc}", file=sys.stderr)
        return 2
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
