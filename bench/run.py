"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics (set-up time, throughput, latency percentiles,
peak memory); with ``--trace 1`` it holds the per-layer metrics of a traced
run, and the spans go to ``bench/out/``.  The package is imported from
``src/`` of this checkout; without it the command fails with exit code 2.

Set-up time is measured from process start to the moment the worker
reports ``READY``, on ``SETUP_SAMPLES`` fresh processes (the last of which
goes on to run the workload), and the median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair-closed-form", "search-solvers", "monte-carlo", "cli-reports")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, scratch: Path, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless set-up only, its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", str(scratch),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup_s, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stratcomm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'stratcomm'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, scratch, True, deadline)[0])
        setup_s, result = _worker(args, scratch, False, deadline)
        setups.append(setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = result["metrics"]
    else:
        units = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update({k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()})
    print(
        json.dumps(
            {
                "correct": result["unexpected"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
