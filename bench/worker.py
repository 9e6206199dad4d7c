"""One workload in one process: set up, run operations, stream records.

Started by ``run.py``; not meant to be run by hand.  Every line written
to standard output is one JSON object:

* ``{"setup": true}`` once imports, input generation and the warm-up
  operation are done, so the parent can time set-up from spawn;
* ``{"env": {...}}`` with the versions and settings in force;
* one ``{"op": ..., "seconds": ..., "ok": ...}`` per operation, the
  warm-up included; ``traced`` marks operations run under the tracer;
* in a traced run, ``{"layers": {...}, "diagnostic": {...}}`` last.

The parent counts the records, so operations finished before a crash
or an out-of-memory kill still count, and the one in flight counts as
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import shallowcheck as sc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if not Path(sc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"shallowcheck was imported from {sc.__file__}, not from {ROOT / 'src'}")

#: Environment variables that set thread pools and numpy's use of huge
#: pages, recorded because both move operation times.
RECORDED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMPY_MADVISE_HUGEPAGE")


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "variables": {v: os.environ.get(v) for v in RECORDED_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": gc.get_threshold(),
        "shallowcheck": sc.__file__,
    }


def run_op(op: workloads.Op, index: int, call=None, timed=None, **extra) -> float | None:
    """Time one operation, check it outside the timed region, emit its record.

    Any exception, ``CapacityError`` and ``MemoryError`` included, is a
    failed operation and never a verdict.  ``timed`` is called as soon as
    the operation returns.  Returns the seconds taken, or ``None`` when
    the operation failed.
    """
    error, ok = None, False
    start, cpu_start = perf_counter(), process_time()
    try:
        out = (call or op.call)()
    except Exception as exc:  # scored as a failure, never as a verdict
        error = f"{type(exc).__name__}: {exc}"
    seconds, cpu_seconds = perf_counter() - start, process_time() - cpu_start
    if timed is not None:
        timed()
    if error is None:
        try:
            ok = bool(op.check(out))
        except Exception as exc:  # a malformed output is a wrong answer
            error = f"check raised {type(exc).__name__}: {exc}"
    emit({"op": index, "kind": op.kind, "qubits": op.qubits,
          "seconds": seconds, "cpu_seconds": cpu_seconds, "ok": ok, "error": error, **extra})
    return seconds if ok else None


def ratio_diagnostic(seed: int, pairs: int = 7) -> dict:
    """Describe time at n=60 over n=10, depth 3, runs interleaved.

    The acceptance test on scaling bounds this ratio (as a ratio of
    three-trial means) by 10; the spread recorded here shows how far
    machine load alone moves it.
    """
    small, large = [], []
    for i in range(pairs):
        for n, sink in ((10, small), (60, large)):
            c = workloads.brickwork(n, 3, workloads.rng_for(seed, i, stream=2))
            start = perf_counter()
            sc.compute_description(c)
            sink.append(perf_counter() - start)
    ratios = [b / a for a, b in zip(small, large)]
    return {
        "pairs": pairs,
        "n10_s": small,
        "n60_s": large,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "max_ratio": max(ratios),
        "ratio_of_medians": statistics.median(large) / statistics.median(small),
    }


def measure(w: workloads.Workload, seed: int, deadline: float) -> None:
    """Run operations in whole cycles until the deadline, at least one cycle."""
    index = 1
    while index == 1 or (index - 1) % w.cycle or perf_counter() < deadline:
        run_op(w.make(seed, index), index)
        index += 1


def trace(w: workloads.Workload, seed: int, deadline: float, spans_path) -> None:
    """Run each operation plain, then traced, in whole cycles until the deadline.

    Whole cycles make every operation kind run equally often, so the
    per-operation counts repeat exactly between runs.
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    index = 1
    while index == 1 or (index - 1) % w.cycle or perf_counter() < deadline:
        op = w.make(seed, index)
        plain_s = run_op(op, index)
        tracer.op = index
        with tracer.installed():
            traced_s = run_op(op, index, lambda: tracer.call(w.root, op.call), traced=True)
        if plain_s is not None and traced_s is not None:
            plain.append(plain_s)
            traced.append(traced_s)
        index += 1
    if spans_path:
        tracer.write(spans_path)
    layers = spans.layer_metrics(tracer.spans, index - 1)
    layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1 if plain else 0.0
    emit({"layers": layers, "absent": sorted(tracer.absent),
          "diagnostic": ratio_diagnostic(seed)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    # The warm-up operation ends set-up; the parent times set-up from
    # spawn to the "setup" line.
    run_op(w.make(args.seed, 0), 0, timed=lambda: emit({"setup": True}), warmup=True)
    emit({"env": environment()})
    if args.mode == "setup":
        return 0

    deadline = perf_counter() + args.seconds
    if args.mode == "measure":
        measure(w, args.seed, deadline)
    else:
        trace(w, args.seed, deadline, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
