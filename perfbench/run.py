"""Time qmie CLI workloads end to end, check every dataset they write.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; qmie is imported from its ``src``.
One workload runs in this one process, single-threaded. The run

1. times cold starts of a fresh interpreter up to ``import qmie.cli`` and a
   built parser (one discarded, then the median of the rest: ``setup_s``);
2. runs one warm-up round of the workload's operations, then whole rounds
   until ``--seconds`` have passed, each operation an in-process
   ``qmie.cli.main`` call with inputs drawn from ``--seed``;
3. checks each written dataset against ``oracle`` outside the timed region.

``work_s`` sums, over the operation kinds, the median time of one call,
rescaled to a quiet host by a gauge loop timed between the calls.
With ``--trace 1`` the layer functions are wrapped (see ``tracing``) and the
per-layer metrics are reported instead; spans go to ``perfbench/out``.
The last line of standard output is one JSON object with the result.
"""

import os

# one thread per numerical library, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CODE = "import qmie.cli; qmie.cli.build_parser()"
COLD_STARTS = 5
IMPORTTIME_STARTS = 3
MIN_ROUNDS = 3
# seconds of gauge per second of timed operation, and the gauge's median on
# a quiet host (2-vCPU Xeon, Python 3.11): work_s is expressed at that speed
GAUGE_SHARE = 0.1
GAUGE_REF_S = 0.0022


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start(*flags: str) -> tuple[float, str]:
    """Wall time of one fresh interpreter that imports qmie.cli and builds its parser."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def gauge_once() -> float:
    """Time one fixed unit of work that never touches qmie: the host's speed now.

    Its mix follows qmie's hot paths: a scalar float recurrence, numpy
    element stores, small complex arrays through einsum, scipy.special calls.
    """
    import numpy as np
    from scipy.special import spherical_jn

    t0 = time.perf_counter()
    x, acc = 1.7, np.zeros(128)
    for rep in range(20):
        jp, jc = 0.0, 1e-30
        for l in range(200, 0, -1):
            jp, jc = jc, (2 * l + 1) / x * jc - jp
        for l in range(1, 128):
            acc[l] = acc[l - 1] * 0.5 + l
        block = np.exp(1j * np.outer(acc[:24], acc[:24]) * 1e-3)
        np.einsum("lm,lm->l", block, np.conj(block))
        spherical_jn(np.arange(30), x + rep)
    return time.perf_counter() - t0


class Runner:
    """Runs the operations of one workload and keeps their outcomes."""

    def __init__(self, workload: str, seed: int):
        import qmie
        from qmie import cli, modes

        if Path(qmie.__file__).resolve().parent != SRC / "qmie":
            raise RuntimeError(f"qmie imported from {qmie.__file__}, not from {SRC}")
        self.cli, self.modes = cli, modes
        self.build_round = workloads.WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.outdir = OUT / workload
        self.outdir.mkdir(parents=True, exist_ok=True)
        # lru caches of the program: cleared before each operation, as a
        # separate CLI invocation would start without them
        self.caches = [obj for name, mod in sys.modules.items()
                       if name == "qmie" or name.startswith("qmie.")
                       for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
        self.tracer = None
        self.times = defaultdict(list)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.counters = defaultdict(float)
        self.gauges: list[float] = []

    def _call(self, argv: list) -> tuple[int | None, float]:
        """(exit code, seconds) of one cli.main call; None if it raised."""
        for fn in self.caches:
            fn.cache_clear()
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = self.tracer.span("cli.main", self.cli.main, argv)
        except Exception:
            # an escaped exception is a failed operation, not a failed benchmark
            traceback.print_exc()
            rc = None
        finally:
            elapsed = time.perf_counter() - t0
            gc.enable()
        return rc, elapsed

    def run_op(self, op, timed: bool) -> None:
        path = self.outdir / f"{op.kind}.{op.fmt}"
        path.unlink(missing_ok=True)
        argv = [*op.argv, "-o", str(path)]
        if self.tracer is None:
            rc, elapsed = self._call(argv)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, elapsed = self._call(argv)
            self.counters["runtime_warnings"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
            for name, (hits, misses) in tracing.cache_counts(self.modes).items():
                self.counters[f"modes.{name}.hits"] += hits
                self.counters[f"modes.{name}.misses"] += misses
        if timed:
            self.times[op.kind].append(elapsed)
            self.run_gauge(GAUGE_SHARE * elapsed)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            return
        ds = workloads.read_dataset(str(path), op.fmt)
        if self.tracer is not None:
            self.counters["cli.rows"] += len(ds.rows)
            self.counters["cli.bytes"] += path.stat().st_size
        if not workloads.is_finite(ds):
            self.failed += 1
            return
        try:
            op.check(ds)
        except workloads.CheckError as exc:
            self.errors.append(f"{op.kind} {' '.join(op.argv)}: {exc}")

    def run_gauge(self, budget: float) -> None:
        """Gauge samples spread over the run in proportion to operation time."""
        spent = 0.0
        while True:
            self.gauges.append(gauge_once())
            spent += self.gauges[-1]
            if spent >= budget:
                return

    def run_round(self, timed: bool) -> None:
        for op in self.build_round(self.rng):
            self.run_op(op, timed)

    def raw_work_s(self) -> float:
        return sum(statistics.median(v) for v in self.times.values())

    def work_s(self) -> float:
        """Sum of per-kind median times, rescaled from the run's gauge to GAUGE_REF_S."""
        return self.raw_work_s() * GAUGE_REF_S / statistics.median(self.gauges)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        cold_start()
        imports = [tracing.parse_importtime(cold_start("-X", "importtime")[1])
                   for _ in range(IMPORTTIME_STARTS)]
    else:
        cold_start()
        setup_s = statistics.median(cold_start()[0] for _ in range(COLD_STARTS))

    sys.path.insert(0, str(SRC))
    runner = Runner(workload, seed)
    runner.run_round(timed=False)
    if trace:
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        runner.run_round(timed=True)
        rounds += 1

    for kind, vals in runner.times.items():
        print(f"{kind:32s} n={len(vals):3d} median={statistics.median(vals) * 1e3:10.2f} ms")
    print(f"raw work {runner.raw_work_s():.4f} s, gauge median {statistics.median(runner.gauges) * 1e3:.3f} ms "
          f"over {len(runner.gauges)} samples (quiet host {GAUGE_REF_S * 1e3:.1f} ms)")
    for err in runner.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed}
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_s": {"value": runner.work_s(), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        return result

    tracer = runner.tracer
    tracer.uninstall()
    per_round = {}
    self_ms = {g: v * 1e3 / rounds for g, v in tracer.self_times().items()}
    calls = {g: n / rounds for g, n in tracer.calls().items()}
    for g in ("specfun.harmonics", "specfun.bessel", "miecore.phase_shift", "modes",
              "observables", "bogoliubov.quad"):
        per_round[f"{g}.calls"] = (calls.get(g, 0.0), "count")
    per_round["specfun.bessel.orders"] = (tracer.bessel_orders / rounds, "count")
    per_round["miecore.nonfinite"] = (tracer.nonfinite / rounds, "count")
    for g in ("specfun.harmonics", "specfun.bessel", "bogoliubov.quad"):
        per_round[f"{g}.ms"] = (self_ms.get(g, 0.0), "ms")
    for layer in ("specfun", "miecore", "modes", "observables", "cli"):
        total = sum((v for g, v in self_ms.items() if g.split(".")[0] == layer), 0.0)
        per_round[f"{layer}.ms"] = (total, "ms")
    # bogoliubov's own time, without the quad calls reported above
    per_round["bogoliubov.ms"] = (self_ms.get("bogoliubov", 0.0), "ms")
    for name in ("modes.coefficient_table.hits", "modes.coefficient_table.misses",
                 "modes.phase_table.hits", "modes.phase_table.misses", "runtime_warnings"):
        per_round[name] = (runner.counters[name] / rounds, "count")
    per_round["cli.rows"] = (runner.counters["cli.rows"] / rounds, "count")
    per_round["cli.bytes"] = (runner.counters["cli.bytes"] / rounds, "bytes")
    per_round["setup.import_ms"] = (statistics.median(i[0] for i in imports), "ms")
    per_round["setup.scipy_import_ms"] = (statistics.median(i[1] for i in imports), "ms")
    per_round["trace.work_s"] = (runner.work_s(), "s")
    tracer.write(str(OUT / f"trace-{workload}.json"),
                 {"workload": workload, "seed": seed, "rounds": rounds})
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per_round.items())}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qmie" / "cli.py").is_file():
        print(f"run.py: no qmie sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
