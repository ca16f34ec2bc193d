#!/usr/bin/env python3
"""Benchmark for afc: paper-scale frames, the C6 floor sweep, weight-set certification.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-frames --seed 1 --seconds 25 --trace 0

Each run starts fresh worker processes (``worker.py``) one after another.
The first ones only set up, so the set-up time is sampled several times;
the last one sets up and then runs the workload in a closed loop. With
``--trace 0`` the last line on stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run instead. A record of the run (environment, work done, both
rates, failures) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-frames", "floor-sweep", "weight-design")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up samples included
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args, env, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker and wait for it; returns (set-up seconds, result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(0 if setup_only else args.trace),
        "--out-dir", str(args.out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise WorkerError(f"worker exited with code {code} (set-up done: {setup_s is not None})")
    return setup_s, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="wall time of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "afc" / "__init__.py").is_file():
        print(f"no afc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    args.out_dir = HERE / "out"
    args.out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    for var in BLAS_THREADS:
        env.setdefault(var, "1")

    deadline = time.monotonic() + DEADLINE_S
    # the traced run reports per-layer metrics only, so it needs no set-up samples
    samples = SETUP_SAMPLES if args.trace == 0 else 1
    setups = []
    try:
        for i in range(samples):
            setup_s, result = run_worker(args, env, deadline, setup_only=i < samples - 1)
            setups.append(setup_s)
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record = dict(result, trace=args.trace, seconds=args.seconds, setup_samples_s=setups)
    record_path = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "frames_per_s": {"value": result["frames_per_s"], "unit": "1/s"},
            "certs_per_s": {"value": result["certs_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    work = result["work"]
    env_rec = result["environment"]
    print(
        f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
        f"frames/s {result['frames_per_s']:.4g}, certs/s {result['certs_per_s']:.4g}, "
        f"set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
        f"first {work['prefix_rounds']} rounds: {work['prefix_iterations']} iterations, "
        f"{work['prefix_bit_errors']} bit errors; python {env_rec['python']}, numpy {env_rec['numpy']}, "
        f"{env_rec['blas']}, threads {env_rec['threads']}, nproc {env_rec['nproc']}"
    )
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
