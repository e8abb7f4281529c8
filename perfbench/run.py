"""Run one benchmark workload of thermalpdc in this process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times ``thermalpdc.scenario.run``
calls for ``--seconds`` of wall time and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced calls for
``--seconds``, reports the per-layer metrics from the spans and writes the
spans to ``.perfbench_spans/<workload>-seed<seed>.npz``, then runs two more
calls under tracemalloc for each layer's peak allocation.  Every call's
artifacts are checked outside the timed region.

Standard output ends with a record line (environment, seed, config
digests, sample counts) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"

SETUP_SAMPLES = 25
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import thermalpdc; print(repr(time.perf_counter() - t))"
)
MEMORY_CALLS = 2
# One thread of load.  BLAS would otherwise run a thread per CPU; its
# threads wait for each other, so on a shared VM steal time on either CPU
# stretches every call (on 2 vCPUs, the drift of ghost-image calls between
# 15-call blocks was 21% with two threads against 8% with one).  Set before
# numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10

# Per-function metrics of the traced run: (span name, field).
FUNCTION_METRICS = (
    ("scenario.validate_config", "self_s"),
    ("gaussian.check_separability_lossy", "calls"),
    ("gaussian.symplectic_eigenvalues", "self_s"),
    ("correlations.write_sweep_csv", "self_s"),
    ("fock.evolve_thermal_pair", "self_s"),
    ("fock.evolve_fock_pair", "calls"),
    ("fock.evolve_fock_pair", "self_s"),
    ("fock.moments", "self_s"),
    ("ghost.g2_map", "self_s"),
    ("ghost.transfer_test_arm", "self_s"),
    ("ghost.transfer_reference_arm", "self_s"),
    ("artifacts.sha256_of", "self_s"),
    ("artifacts.write_xy_csv", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "errors": "count", "peak_alloc_mb": "MB"}


def tail(samples: list[float]) -> tuple[float, int]:
    """Value and percentile of the highest whole percentile with at least
    TAIL_BEYOND samples above it (nearest rank).  With fewer than
    2 * TAIL_BEYOND samples that would fall below the median, so the
    median is reported as percentile 50."""
    ordered = sorted(samples)
    n = len(ordered)
    percentile = 100 * (n - TAIL_BEYOND) // n
    if percentile <= 50:
        return statistics.median(ordered), 50
    return ordered[-(-percentile * n // 100) - 1], percentile


def import_seconds() -> float:
    """Seconds to import thermalpdc in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import thermalpdc

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thermalpdc": thermalpdc.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


class Runner:
    """Closed loop, one client: each call starts when the previous one and
    its output checks are done."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.next_call = -1  # call -1 is the warm-up
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def call(self, tracer=None) -> tuple[float, int, int] | None:
        """One timed call; returns (seconds, items, bytes written), or None
        if it raised or its outputs failed a check."""
        from perfbench.checks import check_outputs
        from perfbench.workloads import config_digest
        from thermalpdc import scenario

        index, self.next_call = self.next_call, self.next_call + 1
        configs = self.workload.configs(self.seed, index)
        self.digests += [config_digest(cfg) for cfg in configs]
        outs = [self.work / f"call{index}-{j}" for j in range(len(configs))]
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                manifests = [scenario.run(c, out_dir=o, workers=1) for c, o in zip(configs, outs)]
            else:
                with tracer.call(index):
                    manifests = [scenario.run(c, out_dir=o, workers=1) for c, o in zip(configs, outs)]
            elapsed = time.perf_counter() - start
            problems = [
                f"{cfg['kind']}: {problem}"
                for cfg, out, manifest in zip(configs, outs, manifests)
                for problem in check_outputs(cfg, out, manifest)
            ]
        except Exception as exc:  # a failing call is counted, not fatal
            problems = [f"call {index} raised {type(exc).__name__}: {exc}"]
        finally:
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.failures += problems
            return None
        items = sum(self.workload.items(cfg) for cfg in configs)
        written = sum(entry["bytes"] for m in manifests for entry in m["files"])
        return elapsed, items, written

    def loop(self, seconds: float, setup: list[float]) -> list[tuple[float, int, int]]:
        """Calls for `seconds`, with SETUP_SAMPLES import probes appended to
        `setup` spread evenly between them.  Machine speed drifts in phases
        of seconds, so probes taken in one burst would see one phase; spread
        out, they see the same drift as the calls.  The probes' time is not
        counted in `seconds`."""
        results = []
        start = time.perf_counter()
        probing = 0.0
        while True:
            elapsed = time.perf_counter() - start - probing
            if len(setup) < SETUP_SAMPLES * min(elapsed / seconds, 1.0):
                before = time.perf_counter()
                setup.append(import_seconds())
                probing += time.perf_counter() - before
            elif elapsed < seconds:
                result = self.call()
                if result is not None:
                    results.append(result)
            else:
                return results


def end_to_end(results, setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, details for the record)."""
    times = [r[0] for r in results]
    p50 = statistics.median(times)
    tail_value, percentile = tail(times)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s.p50": {"value": p50, "unit": "s"},
        "run_s.tail": {"value": tail_value, "unit": "s"},
        "items_per_s": {"value": sum(r[1] for r in results) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    details = {
        "setup_s": {"samples": len(setup), "values": setup},
        "run_s.p50": {"samples": len(times), "values": times},
        "run_s.tail": {"samples": len(times), "percentile": percentile},
        "items_per_s": {"items": sum(r[1] for r in results), "timed_s": sum(times)},
    }
    return metrics, details


def per_layer(runner: Runner, seconds: float, spans: Path) -> tuple[dict, dict]:
    """Untraced and traced calls in turn, so that both see the same drift
    in machine speed; then the tracemalloc calls.  The tracer is installed
    only around the traced calls, outside their timed region."""
    from perfbench.tracing import LAYERS, Tracer

    untraced, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(traced) < len(untraced):
            tracer.install()
            try:
                result = runner.call(tracer)
            finally:
                tracer.uninstall()
            target = traced
        else:
            result, target = runner.call(), untraced
        if result is not None:
            target.append(result)
    spans.parent.mkdir(exist_ok=True)
    tracer.dump_spans(spans)
    if not traced or not untraced:
        raise SystemExit("error: no traced or untraced call succeeded")
    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        for _ in range(MEMORY_CALLS):
            runner.call(memory)
    finally:
        tracemalloc.stop()
        memory.uninstall()

    calls = len(traced)
    summary = tracer.summary()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for index, layer in enumerate(LAYERS):
        stats = summary["layers"][layer]
        for field in ("calls", "self_s", "errors"):
            put(f"{layer}.{field}", stats[field] / calls, UNITS[field])
        put(f"{layer}.peak_alloc_mb", memory.peak_alloc[index] / 2**20, UNITS["peak_alloc_mb"])
    empty = {"calls": 0, "self_s": 0.0, "errors": 0}
    for name, field in FUNCTION_METRICS:
        put(f"{name}.{field}", summary["functions"].get(name, empty)[field] / calls, UNITS[field])
    untraced_p50 = statistics.median(r[0] for r in untraced)
    traced_p50 = statistics.median(r[0] for r in traced)
    layers_self_s = sum(stats["self_s"] for stats in summary["layers"].values())
    put("artifacts.bytes_written", sum(r[2] for r in traced) / calls, "bytes")
    put("trace.overhead_s", traced_p50 - untraced_p50, "s")
    put("trace.coverage", layers_self_s / sum(r[0] for r in traced), "ratio")
    details = {
        "untraced": {"samples": len(untraced), "run_s.p50": untraced_p50},
        "traced": {"samples": calls, "run_s.p50": traced_p50, "spans": len(tracer.fid)},
        "spans_file": str(spans.relative_to(ROOT)),
        "memory_calls": MEMORY_CALLS,
        "functions": summary["functions"],
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermalpdc" / "__init__.py").is_file():
        print(f"error: no thermalpdc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    try:
        record["environment"] = environment(args.seed)
        runner.call()  # warm-up: checked, not timed
        if args.trace:
            spans = SPANS / f"{args.workload}-seed{args.seed}.npz"
            metrics, record["tracing"] = per_layer(runner, args.seconds, spans)
        else:
            setup: list[float] = []
            results = runner.loop(args.seconds, setup)
            if not results:
                print(f"error: no call succeeded: {runner.failures[:3]}", file=sys.stderr)
                return 1
            metrics, record["end_to_end"] = end_to_end(results, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    record["fail_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio"}
    record["failures"] = runner.failures[:20]
    record["config_sha256"] = runner.digests
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
