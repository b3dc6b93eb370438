"""Scenario files, the built-in example suite, and end-to-end runs.

A scenario is a single JSON document with the exact fields
{name, n, F, nu, alpha, s_total, c, q0, horizon, step} (F row-major,
receiver-row convention) plus an optional `defaulted` list naming the
parameters that are artifact defaults rather than source-given values, so
reports never present guessed numbers as given ones.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    ConvergenceResult,
    Trajectory,
    TransitionEvent,
    detect_convergence,
    detect_transitions,
    simulate_batch,
)
from .longrun import LongRunSolution, RegimePrediction, predict_regime
from .model import (
    EconomyParams,
    Model,
    NonFiniteEntryError,
    QualityState,
    SpilloverMatrix,
    SpillnetError,
    ValidationError,
    validate_model,
)
from .structure import StructureReport, classify
from .svgchart import trajectory_chart

# beyond this log-scale, raw qualities are not representable in float64 and
# the CSV stores normalized directions instead
_RAW_Q_LOG_LIMIT = 700.0

# a run has settled when its shares over the trailing window stay this
# close to the terminal ones, and it realizes a candidate when z(T) is
# this close to the candidate's z*: one tolerance for both, so that a
# settled run near its predicted fixed point never reads as a miss
_SETTLED_TOL = 1e-4

_REQUIRED_FIELDS = ("name", "n", "F", "nu", "alpha", "s_total", "c", "q0", "horizon", "step")

# the fields a `defaulted` list may name
_PARAMETER_FIELDS = _REQUIRED_FIELDS[2:]


class ScenarioParseError(ValidationError):
    """Scenario file is not valid JSON or not a JSON object."""


class MissingFieldError(ValidationError):
    """Scenario file lacks a required field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    matrix: SpilloverMatrix
    params: EconomyParams
    q0: QualityState
    horizon: float
    step: float
    defaulted: tuple[str, ...] = ()

    def __post_init__(self):
        validate_model(self.matrix, self.params, self.q0)
        for name in ("horizon", "step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonFiniteEntryError(f"{name} is not finite: {value!r}")
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        names = self.defaulted
        if not isinstance(names, Sequence) or isinstance(names, str) or not all(
            isinstance(d, str) and d in _PARAMETER_FIELDS for d in names
        ):
            raise ValidationError(
                f"defaulted must be a list of names from {_PARAMETER_FIELDS}, got {names!r}"
            )
        object.__setattr__(self, "defaulted", tuple(names))


@dataclass(frozen=True)
class RunReport:
    scenario: str
    structure: StructureReport
    prediction: RegimePrediction
    realized: LongRunSolution | None
    realized_support: frozenset[int]
    transitions: tuple[TransitionEvent, ...]
    convergence: ConvergenceResult
    crosscheck_pass: bool | None
    defaulted: tuple[str, ...]
    outputs: dict[str, str] = field(default_factory=dict)
    # field evaluations and accepted/rejected steps of the integration
    integrator: dict[str, int] = field(default_factory=dict)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario document, with file context on every
    failure and a distinct error class per failure kind."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise OSError(f"cannot read scenario file {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: scenario document must be a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise MissingFieldError(f"{path}: missing required field {name!r}")
    try:
        n = doc["n"]
        # not int(n) alone: it reads true as 1 and truncates 2.9 to 2
        if not (type(n) is int or type(n) is float and n.is_integer()):
            raise ValidationError(f"n must be an integer, got {n!r}")
        n = int(n)
        flat = np.asarray(doc["F"], dtype=float)
        if flat.size != n * n:
            raise ValidationError(
                f"F has {flat.size} entries but n = {n} needs {n * n}"
            )
        matrix = SpilloverMatrix(flat.reshape(n, n))
        params = EconomyParams(
            nu=float(doc["nu"]),
            alpha=float(doc["alpha"]),
            s_total=float(doc["s_total"]),
            c=float(doc["c"]),
        )
        q0 = np.asarray(doc["q0"], dtype=float)
        if q0.size != n:
            raise ValidationError(f"q0 has {q0.size} entries but n = {n}")
        scenario = Scenario(
            name=str(doc["name"]),
            matrix=matrix,
            params=params,
            q0=QualityState(0.0, q0),
            horizon=float(doc["horizon"]),
            step=float(doc["step"]),
            defaulted=doc.get("defaulted", ()),
        )
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from e
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: malformed field value: {e}") from e
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "n": s.matrix.n,
        "F": [float(v) for v in s.matrix.entries.ravel()],
        "nu": s.params.nu,
        "alpha": s.params.alpha,
        "s_total": s.params.s_total,
        "c": s.params.c,
        "q0": [float(v) for v in s.q0.q],
        "horizon": s.horizon,
        "step": s.step,
        "defaulted": list(s.defaulted),
    }


def write_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")


def _mk(name, rows, nu, alpha, s_total, q0, horizon, defaulted, c=1.0, step=1e-2):
    return Scenario(
        name=name,
        matrix=SpilloverMatrix(np.array(rows, dtype=float)),
        params=EconomyParams(nu=nu, alpha=alpha, s_total=s_total, c=c),
        q0=QualityState(0.0, np.array(q0, dtype=float)),
        horizon=horizon,
        step=step,
        defaulted=tuple(defaulted),
    )


# parameters the source figures leave unstated and this artifact fills in
_FIG12_DEFAULTS = ("nu", "alpha", "s_total", "q0", "c", "horizon", "step")


def builtin_scenarios() -> list[Scenario]:
    """The example suite: the two spillover structures behind the
    less-than-exponential and exponential growth figures, the staged
    technology-transition scenario, the eventually-nonnegative example,
    and a homogeneous reference case."""
    return [
        _mk(
            "fig12-oneway",
            [[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
            nu=0.5, alpha=1.0, s_total=1.0, q0=[1, 1, 1, 1],
            horizon=60.0, defaulted=_FIG12_DEFAULTS,
        ),
        _mk(
            "fig12-circular",
            [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
            nu=0.5, alpha=1.0, s_total=1.0, q0=[1, 1, 1, 1],
            horizon=60.0, defaulted=_FIG12_DEFAULTS,
        ),
        _mk(
            "fig4-transitions",
            [[3 / 4, 0, 0, 1], [1 / 2, 1 / 2, 0, 0], [0, 1 / 3, 0, 1], [0, 0, 3, 0]],
            nu=0.5, alpha=0.0, s_total=1.0, q0=[1, 0.1, 0.1, 0.1],
            horizon=60.0, defaulted=("c", "horizon", "step"),
        ),
        _mk(
            "sec4-eventually-nn",
            [[1, 1, 1, 1], [1, 1, 1, 1], [-1, 1, 1, 1], [1, 0, 1, 1]],
            nu=0.5, alpha=1.0, s_total=1.0, q0=[1, 1, 1, 1],
            horizon=60.0, defaulted=_FIG12_DEFAULTS,
        ),
        _mk(
            "homogeneous-baseline",
            [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
            nu=0.5, alpha=1.0, s_total=1.0, q0=[1, 1, 1, 1],
            horizon=60.0, defaulted=_FIG12_DEFAULTS + ("F",),
        ),
    ]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise KeyError(f"no built-in scenario named {name!r}")


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text with columns t, q_1..q_n, s_1..s_n, g_1..g_n, g_YL, logsum.

    q columns hold raw qualities z_i * exp(logsum) when representable;
    otherwise they hold the normalized directions z_i and the leading
    comment flag says normalized=true.
    """
    n = traj.n
    normalized = bool(traj.logsum.max() > _RAW_Q_LOG_LIMIT)
    lines = [f"# normalized={'true' if normalized else 'false'}"]
    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(n)]
        + [f"s_{i + 1}" for i in range(n)]
        + [f"g_{i + 1}" for i in range(n)]
        + ["g_YL", "logsum"]
    )
    lines.append(",".join(header))
    q_cols = traj.z if normalized else traj.z * np.exp(traj.logsum)[:, None]
    table = np.column_stack(
        (traj.times, q_cols, traj.shares, traj.tech_growth,
         traj.sector_growth, traj.logsum)
    )
    # repr of a Python float is the shortest text that parses back exactly
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _report_dict(report: RunReport) -> dict:
    s = report.structure
    p = report.prediction
    return {
        "scenario": report.scenario,
        "defaulted_parameters": list(report.defaulted),
        "structure": {
            "classes": sorted(s.classes),
            "cores": [sorted(c) for c in s.cores],
            "irreducible": s.irreducible,
            "weak_components": [sorted(c) for c in s.weak_components],
            "dominant_eigenvalue": s.dominant_eigenvalue,
            "eventually_nonnegative": {
                "flag": s.eventually_nonnegative[0],
                "witness_power": s.eventually_nonnegative[1],
            },
            "negative_edges": [list(e) for e in s.negative_edges],
            "self_loops": list(s.self_loops),
        },
        "prediction": {
            "regime": p.regime,
            "reason": p.reason,
            "survivors": sorted(p.survivors) if p.survivors is not None else None,
            "initial_condition_dependent": p.initial_condition_dependent,
            "candidates": [
                {
                    "support": sorted(c.support),
                    "growth_rate": c.growth_rate,
                    "shares_inf": [float(v) for v in c.shares_inf],
                    "residual": c.residual,
                }
                for c in p.candidates
            ],
        },
        "simulation": {
            "realized_support": sorted(report.realized_support),
            "terminal_shares": [float(v) for v in report.convergence.shares],
            "terminal_growth_rate": report.convergence.growth_rate,
            "shares_converged": report.convergence.shares_converged,
            "growth_converged": report.convergence.growth_converged,
            "transitions": [
                {
                    "time": e.time,
                    "old_leaders": sorted(e.old_leaders),
                    "new_leaders": sorted(e.new_leaders),
                }
                for e in report.transitions
            ],
            "integrator": report.integrator,
        },
        "crosscheck_pass": report.crosscheck_pass,
        "outputs": report.outputs,
    }


def structure_lines(s: StructureReport) -> list[str]:
    """The structural section of a text report, one line per fact."""
    flag, k = s.eventually_nonnegative
    lines = [
        f"classes: {', '.join(sorted(s.classes))}",
        f"cores: {[sorted(c) for c in s.cores] or 'none'}",
        f"irreducible: {s.irreducible}",
        f"weak components: {[sorted(c) for c in s.weak_components]}",
        f"dominant eigenvalue: {s.dominant_eigenvalue:.9g}",
        f"eventually nonnegative: {flag}" + (f" (witness power {k})" if flag else ""),
    ]
    if s.negative_edges:
        lines.append(f"negative entries at: {[list(e) for e in s.negative_edges]}")
    lines.append("spectrum: " + ", ".join(f"{e:.6g}" for e in s.spectrum))
    return lines


def _report_text(report: RunReport) -> str:
    d = _report_dict(report)
    lines = [f"scenario: {d['scenario']}"]
    if d["defaulted_parameters"]:
        lines.append(
            "defaulted parameters (artifact choices, not source-given): "
            + ", ".join(d["defaulted_parameters"])
        )
    lines += structure_lines(report.structure)
    pr = d["prediction"]
    lines.append(f"predicted regime: {pr['regime']} (reason: {pr['reason']})")
    if pr["survivors"] is not None:
        lines.append(f"predicted survivors: {pr['survivors']}")
    elif pr["candidates"]:
        lines.append(
            "survivors depend on initial conditions; candidates: "
            + "; ".join(
                f"{c['support']} (g={c['growth_rate']:.6g})" for c in pr["candidates"]
            )
        )
    elif pr["regime"] == "exponential":
        lines.append("no stable balanced-growth candidate")
    sim = d["simulation"]
    lines += [
        f"realized support: {sim['realized_support']}",
        f"terminal growth rate: {sim['terminal_growth_rate']:.9g}",
        "terminal shares: "
        + ", ".join(f"{v:.6g}" for v in sim["terminal_shares"]),
        f"converged: shares={sim['shares_converged']} growth={sim['growth_converged']}",
    ]
    if sim["transitions"]:
        for e in sim["transitions"]:
            lines.append(
                f"transition at t={e['time']:g}: {e['old_leaders']} -> {e['new_leaders']}"
            )
    else:
        lines.append("transitions: none")
    if d["crosscheck_pass"] is not None:
        lines.append(f"prediction cross-check: {'pass' if d['crosscheck_pass'] else 'FAIL'}")
    elif pr["candidates"]:
        lines.append("prediction cross-check: undecided (not converged)")
    return "\n".join(lines) + "\n"


def run_many(
    scenarios: Sequence[Scenario],
    outdir: str | Path | None = None,
) -> list[RunReport | SpillnetError | OSError]:
    """classify -> predict for each scenario, one simulate_batch call for
    all of them, then detect and export per scenario.

    Returns one RunReport per scenario, or the error that stopped that
    scenario; one failing scenario does not stop the others.  The
    realized-vs-predicted cross-check is recorded in the report rather
    than raised, so a surprising simulation still produces full output.
    """
    results: list = [None] * len(scenarios)
    predicted = {}
    for i, scenario in enumerate(scenarios):
        try:
            # a Scenario is validated when it is built
            model = Model(scenario.matrix, scenario.params, scenario.q0)
            structure = classify(scenario.matrix)
            prediction = predict_regime(structure, scenario.matrix, scenario.params)
        except SpillnetError as e:
            results[i] = e
            continue
        predicted[i] = (model, structure, prediction)
    batch = list(predicted)
    trajectories = simulate_batch(
        [predicted[i][0] for i in batch],
        [scenarios[i].horizon for i in batch],
        [scenarios[i].step for i in batch],
    )
    for i, traj in zip(batch, trajectories):
        if not isinstance(traj, Trajectory):
            results[i] = traj
            continue
        try:
            results[i] = _detect_and_export(scenarios[i], *predicted[i][1:], traj, outdir)
        except (SpillnetError, OSError) as e:
            results[i] = e
    return results


def run(scenario: Scenario, outdir: str | Path | None = None) -> RunReport:
    """One scenario end to end: run_many of one, raising its error."""
    (report,) = run_many([scenario], outdir)
    if not isinstance(report, RunReport):
        raise report
    return report


def _detect_and_export(
    scenario: Scenario,
    structure: StructureReport,
    prediction: RegimePrediction,
    traj: Trajectory,
    outdir: str | Path | None,
) -> RunReport:
    """Detection, the prediction cross-check and export for one simulated
    scenario.

    A candidate is realized when the terminal relative qualities z(T) lie
    within 1e-4 (max norm) of its z*; a survivor's share may be far below
    any share threshold and still be structural.  When none is and the
    run has not converged, the cross-check is undecided (None), so that a
    failed cross-check always means a run that settled elsewhere.
    """
    transitions = tuple(detect_transitions(traj))
    window = min(5.0, scenario.horizon / 4.0)
    convergence = detect_convergence(traj, eps=_SETTLED_TOL, window=window)
    realized_support = frozenset(
        int(i) for i in np.flatnonzero(traj.shares[-1] > 1e-3)
    )

    realized = None
    crosscheck: bool | None = None
    if prediction.candidates:
        for cand in prediction.candidates:
            if np.abs(traj.z[-1] - cand.z_star).max() <= _SETTLED_TOL:
                realized = cand
                break
        # a run still moving at the horizon neither confirms nor refutes
        if realized is not None or convergence.converged:
            crosscheck = realized is not None

    outputs: dict[str, str] = {}
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        base = outdir / scenario.name
        csv_path = base.with_suffix(".csv")
        csv_path.write_text(trajectory_csv(traj))
        outputs["trajectory"] = str(csv_path)
        svg_path = base.with_suffix(".svg")
        svg_path.write_text(
            trajectory_chart(traj.times, traj.shares, traj.tech_growth, traj.sector_growth)
        )
        outputs["chart"] = str(svg_path)

    report = RunReport(
        scenario=scenario.name,
        structure=structure,
        prediction=prediction,
        realized=realized,
        realized_support=realized_support,
        transitions=transitions,
        convergence=convergence,
        crosscheck_pass=crosscheck,
        defaulted=scenario.defaulted,
        outputs=outputs,
        integrator={
            "field_evaluations": traj.field_evaluations,
            "accepted_steps": traj.accepted_steps,
            "rejected_steps": traj.rejected_steps,
        },
    )
    if outdir is not None:
        (outdir / f"{scenario.name}.report.txt").write_text(_report_text(report))
        (outdir / f"{scenario.name}.report.json").write_text(
            json.dumps(_report_dict(report), indent=2, sort_keys=True) + "\n"
        )
        outputs["report_text"] = str(outdir / f"{scenario.name}.report.txt")
        outputs["report_json"] = str(outdir / f"{scenario.name}.report.json")
    return report
