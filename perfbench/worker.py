"""One workload in one process: set up, measure, check, print one JSON line.

Run by run.py; not meant to be called by hand. With --setup-only it stops
after set-up and reports only its set-up time.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError, SweepGenerated  # noqa: E402

TRACE_DIR = Path(__file__).resolve().parent / "out"


class Passes:
    """Pass times, failed items and check errors of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def check(self, check, *args) -> None:
        """Run one check; a wrong output is recorded, and measuring goes on."""
        try:
            self.failed += check(*args) or 0
        except CheckError as e:
            self.errors.append(str(e))
            print(f"check failed: {e}", file=sys.stderr)

    def run(self, seconds: float, min_passes: int, tracer=None) -> list[float]:
        """Whole passes until `seconds` of pass time is spent; returns their
        times. Each pass is checked after its clock has stopped."""
        times: list[float] = []
        while sum(times) < seconds or len(times) < min_passes:
            t0 = time.perf_counter()
            outputs = self.workload.run_pass(tracer)
            times.append(time.perf_counter() - t0)
            self.check(self.workload.check, outputs)
        self.times += times
        return times

    def rate(self, times: list[float]) -> float:
        """Items per second at the median pass time."""
        return self.workload.items_per_pass / statistics.median(times)


def layer_metrics(tracer: Tracer, items: int) -> dict[str, tuple[float, str]]:
    inclusive, own, calls = tracer.totals()

    def per_item(*names, scale=1e3):
        return sum(inclusive.get(n, 0.0) for n in names) / items * scale

    def per_call(name, scale):
        return inclusive[name] / calls[name] * scale if calls.get(name) else 0.0

    m = {
        "model.validate_us": (per_call("model.validate_model", 1e6), "us/call"),
        "allocation.shares_us": (per_call("allocation.shares_from_productivities", 1e6), "us/call"),
        "allocation.shares_calls": (
            calls.get("allocation.shares_from_productivities", 0) / items, "count/item"),
        "dynamics.simulate_s": (per_item("dynamics.simulate", scale=1.0), "s/item"),
        "dynamics.detect_ms": (
            per_item("dynamics.detect_transitions", "dynamics.detect_convergence"), "ms/item"),
        "structure.classify_ms": (per_item("structure.classify"), "ms/item"),
        "structure.closure_ms": (per_item("structure.closure"), "ms/item"),
        "structure.evnn_ms": (per_item("structure.is_eventually_nonnegative"), "ms/item"),
        "structure.spectrum_ms": (per_item("structure.dominant_eigenvalue_power"), "ms/item"),
        "longrun.predict_ms": (per_item("longrun.predict_regime"), "ms/item"),
        "longrun.solve_ms": (per_item("longrun.solve_support_system"), "ms/item"),
        "scenarios.run_s": (per_item("scenarios.run", scale=1.0), "s/item"),
        "scenarios.run_self_ms": (own.get("scenarios.run", 0.0) / items * 1e3, "ms/item"),
        "scenarios.csv_ms": (per_item("scenarios.trajectory_csv"), "ms/item"),
        "svgchart.chart_ms": (per_item("svgchart.trajectory_chart"), "ms/item"),
        "scenarios.load_ms": (per_call("scenarios.load_scenario", 1e3), "ms/file"),
    }
    for module in ("model", "allocation", "dynamics", "structure", "longrun", "scenarios",
                   "svgchart"):
        self_s = sum(t for name, t in own.items() if name.startswith(module + "."))
        m[f"{module}.self_ms"] = (self_s / items * 1e3, "ms/item")
    return m


def peak_rss_mb() -> float:
    """This process's peak plus the largest peak among the processes it
    waited for (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_metrics(passes: Passes, seconds: float, trace_path: Path):
    """Half the time untraced, half traced: the per-layer metrics, and the
    difference in item rate as the tracing overhead."""
    workload = passes.workload
    untraced = passes.rate(passes.run(seconds / 2, 1))
    metrics = {"cli.startup_s": (0.0, "s"), "cli.sweep_s": (0.0, "s")}
    if isinstance(workload, SweepGenerated):
        metrics["cli.sweep_s"] = (statistics.median(passes.times), "s")
        metrics["cli.startup_s"] = (workload.cli_startup_s(), "s")
        # spans from this process cannot see into the sweep's worker
        # processes, so the traced passes make the same calls in-process,
        # and the untraced rate to compare them with is the in-process one
        workload.in_process = True
        untraced = passes.rate(passes.run(0.0, 1))
    tracer = Tracer()
    tracer.install()
    try:
        traced_times = passes.run(seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    traced = passes.rate(traced_times)
    metrics.update(layer_metrics(tracer, workload.items_per_pass * len(traced_times)))
    metrics["trace.items_per_s"] = (traced, "items/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
    tracer.write(trace_path)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.generate()
    workload.warm_up()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = Passes(workload)
    if args.trace:
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        metrics = traced_metrics(passes, args.seconds, trace_path)
    else:
        metrics = {
            "items_per_s": (passes.rate(passes.run(args.seconds, 3)), "items/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    passes.check(workload.final_check)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not passes.errors,
        "attempted": workload.items_per_pass * len(passes.times),
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
