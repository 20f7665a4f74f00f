"""One benchmark process: set up, run timed rounds of one workload, check.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It prints one JSON object as its last stdout line.

    worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
              --spawned-at T [--setup-only] [--tiny]

`--spawned-at` is the CLOCK_MONOTONIC time at which run.py started this
process, so setup time covers interpreter start, imports and input
generation.  With --setup-only the process exits after setting up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import regselect  # noqa: E402

if Path(regselect.__file__).resolve().parent != SRC / "regselect":
    sys.exit(f"regselect was imported from {regselect.__file__}, not from {SRC}")

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, round_seed  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    """Where and with what the numbers were taken."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def timed(driver, cfg):
    """Wall and process CPU seconds of one study call, and its traceback if it raised."""
    gc.collect()
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        driver(cfg)
        error = None
    except Exception:  # a failing study counts its selections as failed
        error = traceback.format_exc()
    return time.perf_counter() - w0, time.process_time() - c0, error


def traced(driver, cfg, tracer: Tracer):
    """One study call under the tracer; returns its root span id and traceback."""
    gc.collect()
    layers.install(tracer)
    root = len(tracer.start)
    try:
        tracer.call("study", driver, cfg)
        error = None
    except Exception:
        error = traceback.format_exc()
    finally:
        tracer.unpatch()
    return root, error


def same_bytes(a: Path, b: Path, names) -> bool:
    try:
        return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    except OSError:
        return False


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    run_dir = Path(args.out)

    def round_config(r: int, name: str):
        cfg = wl.config(round_seed(args.seed, r), run_dir / f"r{r:03d}" / name, args.tiny)
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
        return cfg

    # Set-up: the first round's inputs.
    cfg = round_config(0, "csv")
    wl.prepare(cfg)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    r = 0
    while True:
        if r:
            cfg = round_config(r, "csv")
            wl.prepare(cfg)
        entry = {"cfg": cfg}
        if tracer is not None:
            # The traced call goes first, so that it meets the program's
            # caches as cold as an untraced run does.
            t_cfg = replace(cfg, out=str(Path(cfg.out).with_name("csv-traced")))
            Path(t_cfg.out).mkdir(exist_ok=True)
            w0 = time.perf_counter()
            root, t_error = traced(wl.driver, t_cfg, tracer)
            entry.update(traced_wall=time.perf_counter() - w0, traced_cfg=t_cfg, root=root,
                         traced_error=t_error)
        entry["wall"], entry["cpu"], entry["error"] = timed(wl.driver, cfg)
        rounds.append(entry)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed rounds.
    attempted = failed = 0
    correct = True
    problems = []
    layer_rounds = []
    for i, entry in enumerate(rounds):
        cfg = entry["cfg"]
        count = wl.selections(cfg)
        attempted += count * (2 if tracer is not None else 1)
        if entry["error"] is not None:
            failed += count
            problems.append(f"round {i}: study raised\n{entry['error']}")
        else:
            chk = wl.check(cfg)
            failed += chk.failed
            correct &= chk.correct
            problems += [f"round {i}: {p}" for p in chk.problems]
        if tracer is not None:
            if entry["traced_error"] is not None:
                failed += count
                problems.append(f"round {i}: traced study raised\n{entry['traced_error']}")
            elif entry["error"] is not None or not same_bytes(
                    Path(cfg.out), Path(entry["traced_cfg"].out), wl.outputs):
                failed += count
                problems.append(f"round {i}: traced outputs differ from the untraced outputs")
            else:
                layer_rounds.append(layers.study_metrics(tracer, entry["root"]))
        if i < len(rounds) - 1:
            shutil.rmtree(Path(cfg.out).parent, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "walls": [e["wall"] for e in rounds],
        "cpus": [e["cpu"] for e in rounds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
        "machine": machine(),
    }
    if tracer is not None:
        traced_walls = [e["traced_wall"] for e in rounds]
        per_layer = {m: statistics.median(lr[m] for lr in layer_rounds) if layer_rounds else 0.0
                     for m in layers.PER_LAYER if m != "trace.overhead_s"}
        # Both calls of a round do the same work, so pair them.
        per_layer["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, result["walls"]))
        result.update(traced_walls=traced_walls, per_layer=per_layer,
                      per_layer_rounds=layer_rounds, missing_targets=sorted(tracer.missing))
        tracer.write(run_dir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
