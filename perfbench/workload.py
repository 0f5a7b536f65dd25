"""One workload in one process: set-up, whole passes, checks, result.

Started by ``run.py`` with BLAS pinned to one thread.  ``--t0`` is the
parent's ``time.monotonic_ns()`` just before it started this process,
so the reported set-up time covers interpreter start, imports, input
generation and the building of reused hosts.  The last line of stdout is
one JSON object.

A pass runs every operation of the workload once, in a fixed order, and
checks each output.  Passes repeat until ``--seconds`` have gone by, so
every run is whole passes and the mix of operations never depends on
timing.  With ``--trace 1`` the first half of the time runs untraced and
the second half traced; the difference in operations per second between
the halves is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers
from common import Cli

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closure", "lattice", "maps", "commutative")


def run_passes(ops, seconds: float, quick: bool, tally: dict) -> dict[int, list[float]]:
    """Whole passes until ``seconds`` have gone by (one in quick mode).
    Returns the wall times of the operations that did not fail, by position."""
    start, passes = time.perf_counter(), 0
    times: dict[int, list[float]] = {}
    while passes == 0 or (not quick and time.perf_counter() - start < seconds):
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an error from trokit fails the operation
                out, ok = exc, False
            else:
                ok = None
            dt = time.perf_counter() - t0
            if ok is None:
                try:
                    ok = bool(op.check(out))
                except Exception:  # an output the check cannot read is wrong
                    ok = False
            tally["attempted"] += 1
            if not ok:
                tally["failed"] += 1
                if not op.known_fault:
                    tally["unexpected"].append(op.name)
                continue
            times.setdefault(i, []).append(dt)
            if op.top:
                tally["top"].append(dt)
        passes += 1
    tally["passes"] = passes
    return times


def ops_per_s(times: dict[int, list[float]]) -> float:
    """Operations of one pass over the time of a typical pass: the sum of
    each operation's median time, so a slow burst in one pass counts once."""
    return len(times) / sum(statistics.median(t) for t in times.values())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    module = importlib.import_module(f"workloads.{args.workload}")
    docs = HERE / "out" / f"docs-{os.getpid()}"
    docs.mkdir(parents=True, exist_ok=True)
    try:
        ops = module.build(np.random.default_rng(args.seed),
                           np.random.default_rng([args.seed, 1]), Cli(docs))
        if args.quick:
            ops = [op for op in ops if not op.heavy]
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        # keep the harness's own objects out of the collections that run
        # during timed calls, as in a fresh CLI process
        gc.collect()
        gc.freeze()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally = {"attempted": 0, "failed": 0, "unexpected": [], "top": []}
        if args.trace:
            half = args.seconds / 2
            plain = ops_per_s(run_passes(ops, half, args.quick, tally))
            recorder = layers.Recorder()
            layers.install(recorder)
            traced = ops_per_s(run_passes(ops, half, args.quick, tally))
            metrics = recorder.metrics(tally["passes"])
            overhead = 1 - traced / plain
            metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
            recorder.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            times = run_passes(ops, args.seconds, args.quick, tally)
            metrics = {
                "ops_per_s": {"value": ops_per_s(times), "unit": "1/s"},
                "op_s.p50": {"value": statistics.median(t for ts in times.values() for t in ts),
                             "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            if tally["top"]:
                metrics["top_op_s"] = {"value": statistics.median(tally["top"]), "unit": "s"}
    finally:
        shutil.rmtree(docs, ignore_errors=True)

    for name in tally["unexpected"]:
        print(f"failed: {name}", file=sys.stderr)
    print(json.dumps({"correct": not tally["unexpected"], "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
