"""The benchmark's workloads: qmie CLI operations and the check of each.

A workload is a round of operations; each run repeats whole rounds. Every
repeat draws fresh inputs from the run's random generator: epsilon in a
narrow band around 2.1, plus q, k or the detector azimuth. The bands keep
each operation's multipole cutoff l_max fixed, so repeats do the same amount
of work, while the changed values give every repeat new cache keys, as
separate CLI invocations would have.

Checks read the file an operation wrote and compare it with ``oracle``,
which never imports qmie.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

EPS = (2.09, 2.105)
TM_TE = ("TM:1", "TM:2", "TM:3", "TM:4", "TM:5", "TE:1", "TE:2", "TE:3", "TE:4", "TE:5")
KP_THETA, KP_PHI = 1.0, 0.7


class CheckError(AssertionError):
    """A dataset disagrees with the reference computation."""


@dataclass
class Dataset:
    columns: list
    rows: list


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[Dataset], None]
    fmt: str = "csv"


def _cell(text: str):
    # numpy scalars that reach the CSV writer print as np.float64(...)
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    try:
        return float(text)
    except ValueError:
        return text


def read_dataset(path: str, fmt: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            doc = json.load(fh)
            return Dataset(doc["schema"], doc["data"])
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return Dataset(lines[0].split(","), [[_cell(c) for c in ln.split(",")] for ln in lines[1:]])


def is_finite(ds: Dataset) -> bool:
    return all(math.isfinite(v) for row in ds.rows for v in row if isinstance(v, float))


def column(ds: Dataset, name: str) -> np.ndarray:
    i = ds.columns.index(name)
    return np.array([row[i] for row in ds.rows])


def expect_close(label: str, got, ref, rtol: float, slack=0.0) -> None:
    """Max deviation relative to the largest reference magnitude.

    ``slack`` adds a per-entry absolute allowance for ill-conditioned entries.
    """
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape:
        raise CheckError(f"{label}: shape {got.shape} vs reference {ref.shape}")
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    excess = np.abs(got - ref) - slack
    err = float(np.max(excess)) / scale if scale > 0.0 else float(np.max(np.abs(got)))
    if not err <= rtol:
        raise CheckError(f"{label}: relative error {err:.3e} > {rtol:.1e}")


def _fmt(x: float) -> str:
    return repr(float(x))


# ----------------------------------------------------------------- spectra

def _channel_power(eps: float, q: float, labels, n_max: int):
    """Classical sin^2 phi (|a_l|^2 for TM, |b_l|^2 for TE) and its slack.

    Channels with l between q and sqrt(eps) q resonate so sharply that
    rounding q by a few ulps moves sin^2 phi by 1e-9 and more; the slack
    is 1e-14 times the largest slope d(sin^2 phi)/d(ln q) seen around q.
    """
    labels = [(p, int(l)) for p, l in labels]

    def power(x):
        a, b, _, _ = oracle.mie_coefficients(math.sqrt(eps), x, n_max)
        return np.array([abs((a if p == "TM" else b)[l - 1]) ** 2 for p, l in labels])

    slope = np.max([np.abs(power(q * (1 + h)) - power(q * (1 - h))) / (2 * h)
                    for h in (1e-9, 1e-12)], axis=0)
    return power(q), 1e-14 * slope


def phase_shifts(kind: str, eps: float, q: float, fmt: str) -> Op:
    def check(ds):
        ls, ps = column(ds, "l").astype(int), column(ds, "p")
        sin = column(ds, "sin_phi")
        ref, slack = _channel_power(eps, q, zip(ps, ls), int(ls.max()))
        expect_close("sin^2 phi", sin**2, ref, 1e-10, slack)
        gamma, alpha, beta = column(ds, "gamma"), column(ds, "alpha"), column(ds, "beta")
        expect_close("gamma^2 (alpha^2 + beta^2)", gamma**2 * (alpha**2 + beta**2),
                     np.ones_like(gamma), 1e-12)
        expect_close("cos^2 + sin^2", column(ds, "cos_phi") ** 2 + sin**2, np.ones_like(sin), 1e-12)

    return Op(kind, ["phase-shifts", "--epsilon", _fmt(eps), "--q", _fmt(q), "--format", fmt],
              check, fmt)


def palpha_scan(eps: float, q_min: float, q_max: float, steps: int) -> Op:
    def check(ds):
        qs, labels, got = column(ds, "q"), column(ds, "channel"), column(ds, "p_alpha")
        grid = qs[:steps]
        expect_close("q grid", grid, np.linspace(q_min, q_max, steps), 1e-15)
        a, b, _, _ = oracle.mie_coefficients(math.sqrt(eps), grid, 5)
        ref = []
        for label in labels[::steps]:
            p, l = label.split(":")
            ref.append(np.abs((a if p == "TM" else b)[int(l) - 1]) ** 2)
        expect_close("p_alpha", got, np.concatenate(ref), 1e-10)

    return Op("palpha-scan", ["palpha-scan", "--epsilon", _fmt(eps), "--q-min", _fmt(q_min),
                              "--q-max", _fmt(q_max), "--q-steps", str(steps),
                              "--channels", ",".join(TM_TE)], check)


def cross_section(kind: str, eps: float, q: float, l_max: int | None = None) -> Op:
    def check(ds):
        ls, ps = column(ds, "l").astype(int), column(ds, "p")
        n_max = int(ls.max())
        power, slack = _channel_power(eps, q, zip(ps, ls), n_max)
        weight = 2.0 * math.pi / q**2 * (2 * ls + 1)
        expect_close("sigma per channel", column(ds, "sigma_channel"), weight * power, 1e-10,
                     weight * slack)
        total = oracle.q_sca(math.sqrt(eps), q, n_max) * math.pi
        expect_close("sigma total vs Q_sca pi R^2", column(ds, "sigma_total"),
                     np.full(len(ls), total), 1e-10, np.sum(weight * slack))

    argv = ["cross-section", "--epsilon", _fmt(eps), "--q", _fmt(q)]
    if l_max is not None:
        argv += ["--l-max", str(l_max)]
    return Op(kind, argv, check)


def spectra(rng) -> list:
    u = rng.uniform
    return [
        phase_shifts("phase-shifts-q200-csv", u(*EPS), u(199.7, 200.5), "csv"),
        phase_shifts("phase-shifts-q37-json", u(*EPS), u(36.8, 37.5), "json"),
        palpha_scan(u(*EPS), u(0.49, 0.51), u(11.95, 12.05), 400),
        cross_section("cross-section-q60", u(*EPS), u(59.5, 60.3)),
        cross_section("cross-section-q150", u(*EPS), u(149.8, 150.7)),
        # fails at every repeat: y_l overflows and j_l underflows for l >> q,
        # so the boundary coefficients are 0*inf and sigma_total is nan
        cross_section("cross-section-q0.5-lmax200", 2.1, 0.5, 200),
    ]


# ---------------------------------------------------------------- farfield

def diff_cross_section(kind: str, eps: float, q: float, g: int, det_phi: float) -> Op:
    def check(ds):
        thetas, got = column(ds, "theta"), column(ds, "dsigma_domega")
        a, b, _, _ = oracle.mie_coefficients(math.sqrt(eps), q, oracle.series_order(math.sqrt(eps) * q))
        s1, s2 = np.array([oracle.pair_sums(a, b, math.cos(t)) for t in thetas]).T
        c2, s2_ = math.cos(det_phi) ** 2, math.sin(det_phi) ** 2
        if g == 2:
            c2, s2_ = s2_, c2
        ref = (np.abs(s1) ** 2 * c2 + np.abs(s2) ** 2 * s2_) / q**2
        expect_close("dsigma/dOmega vs S1, S2", got, ref, 1e-10)

    return Op(kind, ["diff-cross-section", "--epsilon", _fmt(eps), "--q", _fmt(q), "--g", str(g),
               "--detector-phi", _fmt(det_phi)], check)


def farfield(rng) -> list:
    u = rng.uniform
    return [
        diff_cross_section("diff-cross-section-q20-g1", u(*EPS), u(19.5, 20.1), 1, u(0.0, 2.0 * math.pi)),
        diff_cross_section("diff-cross-section-q35-g2", u(*EPS), u(35.0, 35.8), 2, u(0.0, 2.0 * math.pi)),
    ]


# --------------------------------------------------------------- pointwise

def field_map(kind: str, eps: float, q: float, channel: str) -> Op:
    p, l = channel.split(":")

    def check(ds):
        pts = np.column_stack([column(ds, "x"), np.zeros(len(ds.rows)), column(ds, "z")])
        got = column(ds, "intensity")
        if got.size != 41 * 41:
            raise CheckError(f"field-map: {got.size} points, expected 41 x 41")
        out = np.linalg.norm(pts, axis=1) >= 1.0
        ref = oracle.eigenmode_intensity_outside(eps, 1.0, q, p, int(l), pts[out])
        expect_close("intensity outside the sphere", got[out], ref, 1e-10)
        if np.any(got < 0.0):
            raise CheckError("field-map: negative intensity")

    return Op(kind, ["field-map", "--epsilon", _fmt(eps), "--q", _fmt(q), "--channel", channel], check)


def g2_map(kind: str, eps: float, k: float, rtol: float) -> Op:
    n_phi = 64

    def check(ds):
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        m = math.sqrt(eps)
        a, b, _, _ = oracle.mie_coefficients(m, k, oracle.series_order(m * k))
        incident = [((1.0, 0.0, 0.0), oracle.polarization(1, (1.0, 0.0, 0.0))),
                    ((0.0, 1.0, 0.0), oracle.polarization(1, (0.0, 1.0, 0.0)))]
        z = np.array([0.0, 0.0, 1.0])

        def z_fields(theta):
            out = np.empty((2, n_phi), dtype=complex)
            for j, ph in enumerate(phis):
                n = (math.sin(theta) * math.cos(ph), math.sin(theta) * math.sin(ph), math.cos(theta))
                for i, (kin, ein) in enumerate(incident):
                    mu = float(np.dot(kin, n))
                    out[i, j] = oracle.project(oracle.pair_sums(a, b, mu), kin, ein, n, z)
            return out

        a1, a2 = z_fields(math.pi / 4.0)
        b1, b2 = z_fields(3.0 * math.pi / 4.0)
        num = np.abs(a1[:, None] * b2[None, :] + a2[:, None] * b1[None, :]) ** 2
        den = (np.abs(a1) ** 2 + np.abs(a2) ** 2)[:, None] * (np.abs(b1) ** 2 + np.abs(b2) ** 2)[None, :]
        got = column(ds, "g2").reshape(n_phi, n_phi)
        expect_close("g2 vs far-field S1, S2", got, num / den, rtol)
        if k < 0.1:
            expect_close("g2 vs sin^2(phi1 + phi2)", got,
                         np.sin(phis[:, None] + phis[None, :]) ** 2, 0.02)

    return Op(kind, ["g2-map", "--epsilon", _fmt(eps), "--k", _fmt(k),
                                    "--n-phi", str(n_phi)], check)


def pointwise(rng) -> list:
    u = rng.uniform
    return [
        field_map("field-map-TM1-q3.4", u(*EPS), u(3.35, 3.45), "TM:1"),
        field_map("field-map-TE1-q3.4", u(*EPS), u(3.35, 3.45), "TE:1"),
        field_map("field-map-TM2-q8", u(*EPS), u(7.9, 8.1), "TM:2"),
        field_map("field-map-TE2-q8", u(*EPS), u(7.9, 8.1), "TE:2"),
        # detectors sit at k r = 1e3: the far-field reference is off by O(1/kr)
        g2_map("g2-map-k3", u(*EPS), u(2.95, 3.05), 2e-2),
        g2_map("g2-map-k0.01", u(*EPS), u(0.0099, 0.0101), 1e-8),
    ]


# ----------------------------------------------------------------- kernels

def bogoliubov(name: str, kind: str, eps: float, k: float, kp_min: float, kp_max: float, steps: int) -> Op:
    def check(ds):
        kps = column(ds, "k_prime")
        expect_close("k' grid", kps, np.linspace(kp_min, kp_max, steps), 1e-15)
        got = column(ds, "value_re") + 1j * column(ds, "value_im")
        direction = np.array([math.sin(KP_THETA) * math.cos(KP_PHI),
                              math.sin(KP_THETA) * math.sin(KP_PHI), math.cos(KP_THETA)])
        ref = np.array([oracle.kernel(kind, eps, 1.0, 1, (0.0, 0.0, k), 2, kp * direction)
                        for kp in kps])
        expect_close(f"{kind} kernel", got, ref, 1e-10)

    return Op(name, ["bogoliubov", "--epsilon", _fmt(eps), "--kind", kind, "--k", _fmt(k),
               "--kp-min", _fmt(kp_min), "--kp-max", _fmt(kp_max), "--kp-steps", str(steps),
               "--kp-theta", _fmt(KP_THETA), "--kp-phi", _fmt(KP_PHI), "--g", "1", "--gp", "2"],
              check)


def kernels(rng) -> list:
    u = rng.uniform
    return [
        bogoliubov("bogoliubov-B-k5", "B", u(*EPS), u(4.95, 5.05), 3.0, 9.0, 7),
        bogoliubov("bogoliubov-V-k3", "V", u(*EPS), u(2.95, 3.05), 2.0, 6.0, 7),
        bogoliubov("bogoliubov-A_offdiag-k0.5", "A_offdiag", u(*EPS), u(0.495, 0.505), 0.3, 0.9, 5),
    ]


WORKLOADS = {"spectra": spectra, "farfield": farfield, "pointwise": pointwise, "kernels": kernels}
