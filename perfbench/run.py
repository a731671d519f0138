#!/usr/bin/env python3
"""Benchmark of the csgs sweep, solve and certificate paths.

    python3 perfbench/run.py --workload sweep-3d --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop (one client, one operation at a time) on
inputs generated from ``--seed``, checks every operation's output with the
independent checker, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every public function of the
csgs layers is wrapped in a span and the metrics are the per-layer ones derived
from the spans.  numpy and scipy are pinned to one thread.  Results and span
dumps are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("sweep-3d", "ground-1d", "critical-3d")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_csgs():
    """Import csgs from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "csgs" / "__init__.py").is_file():
        raise ImportError(f"no csgs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import csgs

    if Path(csgs.__file__).resolve().parent != (SRC / "csgs").resolve():
        raise ImportError(f"csgs imported from {csgs.__file__}, not from {SRC}")
    return csgs


def _machine(csgs) -> str:
    import numpy
    import scipy

    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} csgs={csgs.__version__} {threads}"
    )


def _timed_op(wl, ops: list, problems: list) -> None:
    """Run one operation, time it, check its output; append to ``ops``/``problems``."""
    from workloads import OpFailed

    t0 = time.perf_counter()
    try:
        out = wl.op()
    except OpFailed as exc:
        ops.append(None)
        print(f"# failed: {exc}")
        return
    ops.append(time.perf_counter() - t0)
    problems.extend(wl.check(out))


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    try:
        csgs = _import_csgs()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    print(f"# machine: {_machine(csgs)}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = WORKLOADS[args.workload](work, args.seed)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        # with tracing on, untraced and traced operations alternate, so the
        # overhead is measured against operations run at the same time
        untraced: list[float | None] = []
        ops: list[float | None] = []
        problems: list[str] = []
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            if tracer is not None:
                _timed_op(wl, untraced, problems)
                tracer.install()
            _timed_op(wl, ops, problems)
            if tracer is not None:
                tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    durations = [d for d in ops if d is not None]
    if not durations:
        print("error: no operation completed", file=sys.stderr)
        return 1
    p50 = statistics.median(durations)
    for msg in problems[:20]:
        print(f"# check failed: {msg}")
    print(f"# {args.workload} seed={args.seed}: {len(durations)} timed operations "
          f"({', '.join(f'{d:.3f}' for d in durations)} s), op p50 {p50:.4f} s; "
          f"set-ups {', '.join(f'{s:.4f}' for s in setups)} s after a {import_s:.4f} s import")

    if tracer is None:
        metrics = {
            "op_s.p50": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        tracer.dump(OUT / f"spans-{args.workload}.npz")
        values = tracer.per_layer(len(ops))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        base = [d for d in untraced if d is not None]
        if base:
            base_p50 = statistics.median(base)
            print(f"# tracing overhead: traced op p50 {p50:.4f} s against untraced op p50 "
                  f"{base_p50:.4f} s ({100.0 * (p50 / base_p50 - 1.0):+.1f} %), "
                  f"{len(tracer)} spans")

    result = {
        "correct": not problems,
        "attempted": len(ops) + len(untraced),
        "failed": sum(d is None for d in ops + untraced),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
