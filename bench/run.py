"""Benchmark of shallowcheck's describe, weak, strong and static checks.

Run from the repository root::

    python3 bench/run.py --workload describe-dense --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones.
The line before it holds the environment.  A fuller record (every
operation's time, the set-up samples, the describe ratio diagnostic of
a traced run) goes to ``bench/out/``, together with the spans of a
traced run.

Each process runs one workload as a closed loop, one operation in
flight, with BLAS and OpenMP pinned to one thread.  An untraced run
makes two set-up-only processes and one measuring process; set-up time
is the median over the three.  Exit status is 0 when a result was
printed and 2 when the workload could not start at all, for example
when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("describe-dense", "weak-check", "strong-narrow", "assert-static")

#: Every process of one run is killed this many seconds after the run
#: starts, so a hung or swapping run still ends with a result.
RUN_LIMIT_S = 170.0

#: Set-up-only processes per untraced run, besides the measuring one.
SETUP_ONLY = 2

#: One BLAS or OpenMP thread per worker, so one operation uses one core.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {
    "qubits_per_s": "qubits/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}


class Child:
    """Outcome of one worker process: its records and resource usage."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, **PINNED_ENV)
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        self.records: list[dict] = []
        self.setup_s: float | None = None
        try:
            for line in proc.stdout:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "setup" in record:
                    self.setup_s = perf_counter() - start
                self.records.append(record)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    @property
    def ops(self) -> list[dict]:
        return [r for r in self.records if "op" in r]

    def first(self, key: str):
        return next((r for r in self.records if key in r), {})

    def attempted_failed(self) -> tuple[int, int]:
        """Operations started and failed, counting one in flight at a crash."""
        ops = self.ops
        failed = sum(not r["ok"] for r in ops)
        if self.returncode != 0 and self.setup_s is not None:
            return len(ops) + 1, failed + 1
        return len(ops), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        modes = [["--mode", "trace", "--spans", str(OUT / f"{stem}.spans.jsonl")]]
    else:
        modes = [["--mode", "setup"]] * SETUP_ONLY + [["--mode", "measure"]]
    children = []
    for mode in modes:
        children.append(Child(common + mode, deadline))
        if children[-1].setup_s is None:
            print(f"bench: workload {args.workload} did not start", file=sys.stderr)
            return 2
    main_child = children[-1]

    counts = [c.attempted_failed() for c in children]
    attempted = sum(a for a, _ in counts)
    failed = sum(f for _, f in counts)
    timed = [r for r in main_child.ops if not r.get("warmup") and not r.get("traced")]
    done = [r for r in timed if r["ok"]]
    setup_samples = [c.setup_s for c in children]
    final = main_child.first("layers")
    if args.trace:
        layers = final.get("layers", {})
        units = {**spans.LAYER_UNITS, "trace.overhead_frac": "ratio"}
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        op_seconds = [r["seconds"] for r in done]
        values = {
            "qubits_per_s": sum(r["qubits"] for r in done) / sum(op_seconds) if done else 0.0,
            "op_p50_s": statistics.median(op_seconds) if done else 0.0,
            "peak_rss_mb": main_child.peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_samples),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    env = {**main_child.first("env").get("env", {}), "run_limit_s": RUN_LIMIT_S}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "samples": len(done),
        "setup_samples_s": setup_samples, "absent_bindings": final.get("absent", []),
        "diagnostic": final.get("diagnostic"), "metrics": metrics,
        "operations": [r for c in children for r in c.ops],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    diagnostic = detail["diagnostic"] or {}
    print(json.dumps({"env": env, "samples": len(done),
                      "absent_bindings": detail["absent_bindings"],
                      "describe_n60_over_n10": {k: diagnostic.get(k) for k in
                                                ("median_ratio", "max_ratio")}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
