"""Benchmark of the metaplectic library and CLI: four closed-loop workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload operator-apply --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

One client runs one operation at a time and checks every output against a
computation made apart from the library (``oracles.py``).  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``ops_per_s``, ``op_p50_ms``, ``peak_rss_mb``, ``setup_s``), their times
scaled to the machine's nominal speed by a reference loop (``calibrate.py``);
with ``--trace 1`` the run records spans around the library's public
functions and reports the per-layer metrics instead (see ``README.md``).
"""

from __future__ import annotations

import os

# one BLAS thread: the dense rescaling product otherwise spreads over every
# core and its wall time follows the machine's other load
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("operator-apply", "phase-space-norms", "matrix-analysis", "cli-roundtrip")

#: reference loops timed right after the set-up; their median slowdown scales it
SETUP_REFERENCES = 3
#: no-work CLI invocations timed by the traced cli-roundtrip run
STARTUP_REPEATS = 3


def setup(name: str, seed: int, workdir: Path):
    """Import the library and build the workload's inputs; return (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - t0


def cli_startup_ms() -> float:
    """Median wall time of a CLI invocation that does no work (``--help``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "metaplectic.cli", "--help"],
                       env=env, capture_output=True, timeout=60, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        wl, setup_wall = setup(name, seed, workdir)
        tracer = reference = None
        if trace:
            import spans

            tracer = spans.Tracer()
            wl.in_process = True
            tracer.install()
        else:
            import calibrate

            reference = calibrate.Reference()
            setup_slowdown = statistics.median(
                reference.slowdown() for _ in range(SETUP_REFERENCES))

        for op in wl.warmup():
            wl.run(op)

        # slowdowns[i] and slowdowns[i + 1] are timed just before and just
        # after operation i (the untraced run only)
        slowdowns = [reference.slowdown()] if reference is not None else []
        op_seconds: list[float] = []
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            for op in wl.round(k):
                if tracer is not None:
                    tracer.op = attempted
                t0 = time.perf_counter()
                try:
                    result = wl.run(op)
                    error = None
                except Exception as exc:  # an operation that raises counts as failed
                    error = f"raised {type(exc).__name__}: {exc}"
                op_seconds.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.op = None
                attempted += 1
                if error is None:
                    error = wl.check(op, result)
                if error:
                    failed += 1
                    if not op.fault:
                        correct = False
                        print(f"{name}: {op}: {error}", file=sys.stderr)
                if reference is not None:
                    slowdowns.append(reference.slowdown())
            k += 1

        if tracer is not None:
            tracer.uninstall()
            startup = cli_startup_ms() if name == "cli-roundtrip" else 0.0
            metrics = tracer.layer_metrics(attempted, startup)
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{name}-seed{seed}.jsonl", attempted, op_seconds)
        else:
            if name == "cli-roundtrip":  # the work is done in children; it keeps their peak
                peak_kb = wl.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # each time at nominal machine speed (calibrate.py); the wall
            # times, and the slowdowns that scale them, go to standard error
            scaled = [dt / math.sqrt(slowdowns[i] * slowdowns[i + 1])
                      for i, dt in enumerate(op_seconds)]
            metrics = {
                "ops_per_s": (attempted / sum(scaled), "op/s"),
                "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
                "setup_s": (setup_wall / setup_slowdown, "s"),
            }
            print(f"{name}: wall ops_per_s {attempted / sum(op_seconds):.4g} "
                  f"op_p50_ms {statistics.median(op_seconds) * 1e3:.4g} setup_s {setup_wall:.4g}; "
                  f"slowdown median {statistics.median(slowdowns):.4g} "
                  f"range {min(slowdowns):.4g}-{max(slowdowns):.4g} setup {setup_slowdown:.4g}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; print a table, return the merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:40s} {mv['value']:14.6g} {mv['unit']}")
            merged["metrics"][f"{name}.{metric}"] = mv
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metaplectic" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
