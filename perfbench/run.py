"""Benchmark command for trokit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  Each workload runs in its own process
(``workload.py``), a closed loop with one caller, with OpenBLAS, OpenMP
and MKL pinned to one thread in that process's environment.  trokit is
imported from ``src/`` of the checkout, never from an installed copy.

With ``--trace 0`` the command first starts the workload four times for
set-up only, then once for the measured passes; ``setup_s`` is the median
of the five set-up times.  It prints every end-to-end metric with its
unit and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` the metrics
are the per-layer ones and the spans are written under ``perfbench/out/``.
``--quick`` runs one pass without the heavy rungs and no set-up probes;
the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child(args: argparse.Namespace, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.quick:
        cmd.append("--quick")
    cmd += ["--t0", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closure", "lattice", "maps", "commutative"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "trokit" / "__init__.py").is_file():
        print(f"error: no trokit sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    try:
        probes = []
        if not args.trace and not args.quick:
            probes = [child(args, env, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
        result = child(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if "setup_s" in metrics:
        metrics["setup_s"]["value"] = statistics.median(probes + [metrics["setup_s"]["value"]])
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
