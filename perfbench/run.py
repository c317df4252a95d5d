"""matfield benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload certify-default --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; matfield is imported from its src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the machine.
--trace 0 times the workload's operations for --seconds seconds (in whole
rounds or passes, see workloads.py) and reports the end-to-end metrics.
--trace 1 runs a fixed set of operations (so counts repeat exactly for a
seed) once untraced and once traced, reports
the per-layer metrics and the tracing overhead, and writes the spans to
.perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
SETUP_CODE = "import numpy, matfield; matfield.build_config({}, mode='design-trace')"
# The highest of p75/p90/p99 with at least ten samples beyond it at the
# sample counts of a run: 145-185 certified run() calls on a 2-vCPU host
# (more on a faster one) and 1200 designs.
# design-sweep has room for p99 (12 beyond it), but its p99 followed the
# host's slow phases twice as much as its p50 did, so it stops at p90.
TAIL_PERCENTILE = 90
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_matfield():
    src = ROOT / "src"
    if not (src / "matfield" / "__init__.py").is_file():
        sys.exit(f"no matfield sources under {src}")
    sys.path.insert(0, str(src))
    import matfield

    if Path(matfield.__file__).resolve().parent != (src / "matfield").resolve():
        sys.exit(f"matfield imported from {matfield.__file__}, not from {src}")
    return matfield


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def setup_seconds():
    """Median wall time of a fresh process importing numpy and matfield up to a config."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_end_to_end(mf, workload, seed, seconds):
    stats = workloads.Stats()
    gap, problem = workloads.oracle_gap_decades(mf)
    if problem is not None:
        stats.errors.append(f"reference panel: {problem}")
    setup = setup_seconds()
    start = time.perf_counter()
    timed = workload.measure(mf, seed, seconds, stats)
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = np.asarray(stats.ops)
    units = ops[:, 2].astype(int)
    lat_ms = 1000.0 * ops[units > 0, 1]
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (units.sum() / ops[:, 0].sum(), "1/s"),
        "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_ms_tail": (float(np.percentile(lat_ms, TAIL_PERCENTILE)), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "oracle_gap_decades": (gap, "1"),
    }
    info = {"timed": timed, "samples": int(lat_ms.size), "wall_s": wall_s,
            "tail_percentile": TAIL_PERCENTILE}
    return stats, metrics, info


def run_traced(mf, workload, seed):
    plain = workloads.Stats()
    start = time.perf_counter()
    workload.run_fixed(mf, seed, plain)
    untraced_s = time.perf_counter() - start
    stats = workloads.Stats()
    tracer = tracing.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        workload.run_fixed(mf, seed, stats, tracer.span)
        traced_s = time.perf_counter() - start
    stats.errors += plain.errors
    layer = tracer.layer_metrics()
    metrics = {name: (layer[name], unit) for name, unit in tracing.METRIC_UNITS.items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "1")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write(spans_path)
    info = {"spans": len(tracer.spans), "untraced_s": untraced_s,
            "traced_s": traced_s, "spans_file": str(spans_path.relative_to(ROOT))}
    return stats, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mf = import_matfield()
    workload = workloads.WORKLOADS[args.workload]
    facts = machine_facts()
    bite = workloads.self_test(mf)
    if args.trace:
        stats, metrics, info = run_traced(mf, workload, args.seed)
    else:
        stats, metrics, info = run_end_to_end(mf, workload, args.seed, args.seconds)
    if bite is not None:
        stats.errors.append(f"self-test: {bite}")
    print(json.dumps({"machine": facts, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **info, "errors": stats.errors[:20]}))
    print(json.dumps({
        "correct": not stats.errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
