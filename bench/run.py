"""Benchmark of the regselect studies: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
src/.  Each measured process is a fresh single-threaded-BLAS Python
(bench/worker.py).  With --trace 0 the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics setup_s, wall_s, cpu_s and peak_rss_mb; with
--trace 1 the metrics are the per-layer ones of bench/layers.py.  The full
record of the run (machine block, every round, problems found) goes to
bench/out/<workload>-seed<N>-trace<T>/result.json, and a traced run's
spans to spans.json beside it.  --tiny shrinks every workload for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("qo-spectral", "denoise-plateau", "deblur-path", "tv-idx")
# Set-up is timed in this many fresh processes, after one untimed warm-up
# that fills the file cache and the bytecode cache.
SETUP_PROBES = 5
# Whole-run limit, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def spawn(cmd: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    cmd = cmd + ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **PINNED), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired:
        raise RunError("worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "regselect" / "__init__.py").is_file():
        print(f"error: no regselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = [sys.executable, "-I", str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")

    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES + 1):
                probe = spawn(base + ["--out", str(run_dir / f"probe{k}"), "--setup-only"], deadline)
                if k:
                    setups.append(probe["setup_s"])
        res = spawn(base + ["--out", str(run_dir)], deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for k in range(SETUP_PROBES + 1):
        shutil.rmtree(run_dir / f"probe{k}", ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    record = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups=setups, metrics=metrics)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(res["machine"]))
    print(f"rounds: {len(res['walls'])}  wall_s per round: "
          + " ".join(f"{w:.3f}" for w in res["walls"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
