"""Layer spans for the traced run, recorded from outside the program.

Every function named in the ``__all__`` of a qmie layer module is replaced,
in each qmie module that binds it, by a wrapper that records a span: label,
start, end and parent span. ``from .miecore import phase_shift`` copies the
binding, so each copy is replaced. Calls into scipy's ``quad`` are counted
through the ``bogoliubov`` module's own binding. Spans stay in memory until
the run ends; a layer's self time is its spans minus their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

LAYERS = ("specfun", "miecore", "modes", "observables", "bogoliubov")
BESSEL_SWEEPS = ("specfun.spherical_bessel_j", "specfun.spherical_bessel_y")
CACHES = {"coefficient_table": "_coefficient_table", "phase_table": "_phase_table"}


def _group(label: str) -> str:
    """Per-layer metric prefix of a span label."""
    layer, _, name = label.partition(".")
    if layer == "specfun":
        if "harmonic" in name:
            return "specfun.harmonics"
        if "bessel" in name or "hankel" in name:
            return "specfun.bessel"
    if label == "miecore.phase_shift":
        return "miecore.phase_shift"
    return label if label == "bogoliubov.quad" else layer


class Tracer:
    """Span recorder plus the counters the spans cannot give."""

    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.label = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.bessel_orders = 0
        self.nonfinite = 0
        self.restore: list = []

    def _id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self.label_ids[label]

    def span(self, label: str, fn, *args, **kwargs):
        """Run fn inside a span; the span is closed even if fn raises."""
        idx = len(self.label)
        self.label.append(self._id(label))
        self.parent.append(self.current)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.current = idx
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.current = self.parent[idx]

    def _wrap(self, label: str, fn):
        if label in BESSEL_SWEEPS:
            def wrapper(*args, **kwargs):
                self.bessel_orders += int(args[0]) + 1
                return self.span(label, fn, *args, **kwargs)
        elif label == "miecore.phase_shift":
            def wrapper(*args, **kwargs):
                rec = self.span(label, fn, *args, **kwargs)
                if not all(math.isfinite(v) for v in (rec.alpha_l, rec.beta_l, rec.gamma_l,
                                                       rec.cos_phi, rec.sin_phi, rec.phi)):
                    self.nonfinite += 1
                return rec
        else:
            def wrapper(*args, **kwargs):
                return self.span(label, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every binding of each traced function across qmie.*."""
        mods = [m for n, m in sys.modules.items() if n == "qmie" or n.startswith("qmie.")]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"qmie.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        bg = sys.modules["qmie.bogoliubov"]
        if hasattr(bg, "quad"):
            targets[id(bg.quad)] = (bg.quad, self._wrap("bogoliubov.quad", bg.quad))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self.restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in self.restore:
            setattr(mod, attr, val)
        self.restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per metric group."""
        n = len(self.label)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            g = _group(self.labels[self.label[i]])
            out[g] = out.get(g, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for lid in self.label:
            g = _group(self.labels[lid])
            out[g] = out.get(g, 0) + 1
        return out

    def write(self, path: str, meta: dict) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {**meta, "labels": self.labels, "label": self.label.tolist(),
               "parent": self.parent.tolist(),
               "start_ns": [round((t - t0) * 1e9) for t in self.start],
               "end_ns": [round((t - t0) * 1e9) for t in self.end]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def cache_counts(modes_module) -> dict[str, tuple[int, int]]:
    """(hits, misses) of the modes caches that exist, via cache_info()."""
    out = {}
    for name, attr in CACHES.items():
        fn = getattr(modes_module, attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
    return out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(qmie import ms, scipy import ms) from -X importtime output.

    Children are printed before their parent and one indent level deeper.
    Each total sums the cumulative times of the package's imports that have
    no ancestor from the same package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        name = name[1:]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"qmie": 0, "scipy": 0}
    # walk parents first: a line's parent is the next line at depth - 1
    ancestors: list[str] = []
    for depth, us, name in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in totals and top not in ancestors:
            totals[top] += us
        ancestors.append(top)
    return totals["qmie"] / 1e3, totals["scipy"] / 1e3
