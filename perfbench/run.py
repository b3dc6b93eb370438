"""spillnet benchmark: two closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With one workload, the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics (setup_s, items_per_s, peak_rss_mb); --trace 1
reports the per-layer metrics. See perfbench/README.md.

Each measurement runs in fresh processes: SETUP_SAMPLES - 1 processes
that only set up, then one that sets up and measures, so set-up time is
a median and one workload's memory peak never carries into another's.
Every process starts with one BLAS thread; the sweep workload uses two
worker processes.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-generated", "structure-large")
SETUP_SAMPLES = 5
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
           setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: worker still running at the deadline") from e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload}: worker exited {done.returncode}\n{done.stderr}")
    if done.stderr.strip():
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result: correct, attempted, failed and metrics."""
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    for k in range(SETUP_SAMPLES - 1):
        probe = worker(workload, seed, seconds, trace, work / f"setup{k}", True, deadline)
        setups.append(probe["setup_s"])
    result = worker(workload, seed, seconds, trace, work / "run", False, deadline)
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run is still using it
        pass
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(workload: str, trace: int, res: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}: {kind}; attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for name, m in res["metrics"].items():
        print(f"   {name:28s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: 0 for one workload, both for all)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spillnet" / "__init__.py").is_file():
        print(f"spillnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            res = measure(args.workload, args.seed, args.seconds, args.trace or 0)
            print(json.dumps(res))
            return 0
        modes = (0, 1) if args.trace is None else (args.trace,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in modes:
                res = measure(workload, args.seed, args.seconds, trace)
                print_table(workload, trace, res)
                combined["correct"] &= res["correct"]
                combined["attempted"] += res["attempted"]
                combined["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = m
        print(json.dumps(combined))
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
