"""Command-line interface.

Exit codes: 0 success, 2 validation or parse failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .longrun import predict_regime
from .model import NumericalError, SpillnetError, ValidationError
from .scenarios import (
    RunReport,
    Scenario,
    builtin_scenarios,
    load_scenario,
    run,
    run_many,
    structure_lines,
)
from .structure import classify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _failure(e: SpillnetError | OSError) -> tuple[int, str]:
    """Exit code and stderr label for a failure."""
    if isinstance(e, NumericalError):
        return EXIT_NUMERICAL, "numerical failure"
    if isinstance(e, SpillnetError):
        # validation errors plus model-domain violations (negative
        # productivity, degenerate economy)
        return EXIT_VALIDATION, "error"
    return EXIT_IO, "i/o failure"


def _cmd_classify(args) -> int:
    scenario = load_scenario(args.file)
    print(f"scenario: {scenario.name}")
    print("\n".join(structure_lines(classify(scenario.matrix))))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.file)
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    if args.step is not None:
        scenario = replace(scenario, step=args.step)
    report = run(scenario, outdir=args.out)
    print(f"simulated {scenario.name} to t = {scenario.horizon:g}")
    print(f"regime: {report.prediction.regime}")
    print(f"terminal growth rate: {report.convergence.growth_rate:.6g}")
    print(f"realized support: {sorted(report.realized_support)}")
    for e in report.transitions:
        print(
            f"transition at t={e.time:g}: {sorted(e.old_leaders)} -> {sorted(e.new_leaders)}"
        )
    if report.outputs:
        for kind, path in report.outputs.items():
            print(f"wrote {kind}: {path}")
    return EXIT_OK


def _cmd_longrun(args) -> int:
    scenario = load_scenario(args.file)
    prediction = predict_regime(classify(scenario.matrix), scenario.matrix, scenario.params)
    print(f"regime: {prediction.regime} (reason: {prediction.reason})")
    if not prediction.candidates:
        print("no stable balanced-growth candidate")
    for sol in prediction.candidates:
        zs = ", ".join(f"{v:.6g}" for v in sol.z_star)
        print(
            f"support {sorted(sol.support)}: g = {sol.growth_rate:.9g}, "
            f"z* = [{zs}], residual = {sol.residual:.3g}"
        )
    if prediction.initial_condition_dependent:
        print("realized support depends on initial conditions")
    return EXIT_OK


def _cmd_paper_figs(args) -> int:
    outdir = Path(args.out)
    scenarios = builtin_scenarios()
    for scenario, report in zip(scenarios, run_many(scenarios, outdir=outdir)):
        if not isinstance(report, RunReport):
            raise report
        print(f"{scenario.name}: regime={report.prediction.regime}, "
              f"terminal g={report.convergence.growth_rate:.6g}")
    print(f"outputs in {outdir}")
    return EXIT_OK


def _error_outcome(stem: str, e: SpillnetError | OSError) -> tuple[str, dict, int]:
    """A failure as a sweep.json entry keyed by the file stem, since an
    exception does not always survive the trip back to the parent
    process."""
    return stem, {"error": f"{type(e).__name__}: {e}"}, _failure(e)[0]


def _run_group(jobs: list[tuple[int, str, Scenario]], out: str | None) -> list:
    """Run one sweep worker's scenarios as one batch: (file index, name,
    sweep.json entry, exit code) per scenario."""
    reports = run_many([scenario for _, _, scenario in jobs], outdir=out)
    outcomes = []
    for (index, stem, scenario), report in zip(jobs, reports):
        if isinstance(report, RunReport):
            entry = {
                "regime": report.prediction.regime,
                "terminal_growth": report.convergence.growth_rate,
            }
            outcomes.append((index, scenario.name, entry, EXIT_OK))
        else:
            outcomes.append((index, *_error_outcome(stem, report)))
    return outcomes


def _cmd_sweep(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    files = sorted(Path(args.dir).glob("*.json"))
    if not files:
        raise ValidationError(f"no scenario JSON files in {args.dir}")
    outcomes = []
    jobs = []
    for index, path in enumerate(files):
        try:
            jobs.append((index, path.stem, load_scenario(path)))
        except (SpillnetError, OSError) as e:
            outcomes.append((index, *_error_outcome(path.stem, e)))
    # deal the scenarios round-robin, longest sample grid (horizon / step)
    # first, so that every group gets a similar mix of grid lengths
    jobs.sort(key=lambda job: (job[2].horizon / job[2].step, job[2].matrix.n), reverse=True)
    workers = args.workers or os.cpu_count() or 1
    groups = [jobs[w::workers] for w in range(min(workers, len(jobs)))]
    if groups:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futures = [pool.submit(_run_group, group, args.out) for group in groups]
            for future in futures:
                outcomes += future.result()
    outcomes.sort(key=lambda o: o[0])
    for _, name, entry, _ in sorted(outcomes, key=lambda o: o[1]):
        if "error" in entry:
            print(f"{name}: {entry['error']}", file=sys.stderr)
        else:
            print(f"{name}: regime={entry['regime']}, "
                  f"terminal g={entry['terminal_growth']:.6g}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        index = {name: entry for _, name, entry, _ in outcomes}
        Path(args.out, "sweep.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n"
        )
    return next((code for _, _, _, code in outcomes if code != EXIT_OK), EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spillnet",
        description="Simulate and classify R&D growth under cross-technology "
        "spillover structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural report for a scenario file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="integrate a scenario and export results")
    p.add_argument("file")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument(
        "--step", type=float, default=None,
        help="initial step and sample spacing (samples every 10 steps); the "
        "DOP853 integrator (Dormand-Prince 8(5,3) pair, 7th-order dense "
        "output) then adapts its step to a local error tolerance of 1e-12",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("longrun", help="long-run supports and growth rates")
    p.add_argument("file")
    p.set_defaults(func=_cmd_longrun)

    p = sub.add_parser("paper-figs", help="run the built-in example suite")
    p.add_argument("--out", default="paper-figs")
    p.set_defaults(func=_cmd_paper_figs)

    p = sub.add_parser("sweep", help="run every scenario JSON in a directory")
    p.add_argument("dir")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes, at least 1 (default: one per CPU)",
    )
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpillnetError, OSError) as e:
        code, label = _failure(e)
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
