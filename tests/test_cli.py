import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spillnet import InertTechnologyWarning, builtin_scenario, write_scenario
from spillnet.cli import main


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "circular.json"
    write_scenario(builtin_scenario("fig12-circular"), path)
    return path


def test_classify_command(scenario_file, capsys):
    assert main(["classify", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "strongly-connected" in out
    assert "dominant eigenvalue" in out


def test_longrun_command(scenario_file, capsys):
    assert main(["longrun", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "exponential" in out
    assert "support [0, 1, 2, 3]" in out


def test_longrun_command_classifies_once(tmp_path, monkeypatch, capsys):
    from spillnet import cli, longrun, structure

    path = tmp_path / "oneway.json"
    write_scenario(builtin_scenario("fig12-oneway"), path)
    calls = []

    def counting_classify(matrix):
        calls.append(matrix)
        return structure.classify(matrix)

    monkeypatch.setattr(cli, "classify", counting_classify)
    monkeypatch.setattr(longrun, "classify", counting_classify)
    assert main(["longrun", str(path)]) == 0
    assert "polynomial" in capsys.readouterr().out
    assert len(calls) == 1


def test_simulate_command_writes_outputs(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["simulate", str(scenario_file), "--horizon", "10", "--out", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "fig12-circular.csv").exists()
    assert (out_dir / "fig12-circular.svg").exists()
    assert (out_dir / "fig12-circular.report.json").exists()
    assert "terminal growth rate" in capsys.readouterr().out


def test_simulate_command_warns_of_inert_technologies_once(tmp_path, capsys):
    path = tmp_path / "inert.json"
    doc = {
        "name": "inert", "n": 3, "F": [0, 1, 0, 1, 0, 0, 0, 0, 0], "nu": 0.5,
        "alpha": 0.0, "s_total": 1.0, "c": 1.0, "q0": [1, 1, 1],
        "horizon": 5.0, "step": 0.01,
    }
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", str(path)]) == 0
    assert [w.category for w in caught] == [InertTechnologyWarning]
    assert "[2]" in str(caught[0].message)


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert main(["classify", str(bad)]) == 2
    assert "missing required field" in capsys.readouterr().err


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["classify", str(bad)]) == 2


def test_io_failure_exit_code(tmp_path):
    assert main(["classify", str(tmp_path / "missing.json")]) == 4


def test_sweep_merges_by_name(tmp_path, capsys):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    for name in ("fig12-oneway", "homogeneous-baseline"):
        s = builtin_scenario(name)
        s = type(s)(
            name=s.name, matrix=s.matrix, params=s.params, q0=s.q0,
            horizon=5.0, step=s.step, defaulted=s.defaulted,
        )
        write_scenario(s, scenarios_dir / f"{name}.json")
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "fig12-oneway" in out and "homogeneous-baseline" in out
    index = json.loads((out_dir / "sweep.json").read_text())
    assert set(index) == {"fig12-oneway", "homogeneous-baseline"}

    # strict JSON: NaN and Infinity are not JSON, so none may reach a report
    def refuse(constant):
        raise ValueError(f"{constant} in a report")

    reports = sorted(out_dir.rglob("*.report.json"))
    assert len(reports) == 2
    for path in reports:
        json.loads(path.read_text(), parse_constant=refuse)


def test_sweep_keeps_results_when_one_scenario_fails(tmp_path, capsys):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    small = replace(builtin_scenario("fig12-oneway"), horizon=5.0)
    write_scenario(small, scenarios_dir / "small.json")
    # a 19-cycle beside a rotation block, which is not eventually
    # nonnegative: the long-run solver refuses the network
    f = np.zeros((21, 21))
    f[:2, :2] = [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
    f[2:, 2:] = np.roll(np.eye(19), 1, axis=0)
    big = {
        "name": "big", "n": 21, "F": f.ravel().tolist(),
        "nu": 0.5, "alpha": 0.0, "s_total": 1.0, "c": 1.0, "q0": [1.0] * 21,
        "horizon": 5.0, "step": 0.01,
    }
    (scenarios_dir / "big.json").write_text(json.dumps(big))
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "fig12-oneway: regime=" in captured.out
    assert "big: PreconditionError: " in captured.err
    index = json.loads((out_dir / "sweep.json").read_text())
    assert set(index) == {"fig12-oneway", "big"}
    assert index["fig12-oneway"]["regime"] == "polynomial"
    assert index["big"]["error"].startswith("PreconditionError: ")
    assert "eventually nonnegative" in index["big"]["error"]


def _cycle(n):
    return {
        "name": f"cycle{n}", "n": n, "F": np.roll(np.eye(n), 1, axis=0).ravel().tolist(),
        "nu": 0.5, "alpha": 0.0, "s_total": 1.0, "c": 1.0, "q0": [1.0] * n,
        "horizon": 5.0, "step": 0.01,
    }


def test_longrun_command_without_stable_candidate(tmp_path, capsys):
    path = tmp_path / "cycle7.json"
    path.write_text(json.dumps(_cycle(7)))
    assert main(["longrun", str(path)]) == 0
    out = capsys.readouterr().out
    assert "regime: exponential" in out
    assert "no stable balanced-growth candidate" in out
    assert "initial conditions" not in out


def test_longrun_command_solves_once_and_prints_the_prediction(tmp_path, monkeypatch, capsys):
    from spillnet import longrun

    # one enumeration of candidate supports per solve, whoever calls it
    candidates = longrun._candidate_supports
    calls = []

    def counting_candidates(*args):
        calls.append(args)
        return candidates(*args)

    monkeypatch.setattr(longrun, "_candidate_supports", counting_candidates)
    path = tmp_path / "cycle7.json"
    path.write_text(json.dumps(_cycle(7)))
    assert main(["longrun", str(path)]) == 0
    assert len(calls) == 1
    # not eventually nonnegative and no exponential core: nothing to solve,
    # where the support solver would refuse the matrix
    signed = dict(_cycle(2), F=[-1.0, 1.0, 1.0, -1.0])
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(signed))
    capsys.readouterr()
    assert main(["longrun", str(path)]) == 0
    assert "no stable balanced-growth candidate" in capsys.readouterr().out
    assert len(calls) == 1


def test_longrun_command_names_a_cycle_without_growth(tmp_path, capsys):
    # strongly connected, but the block's dominant eigenvalue is 0: not
    # one-way
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(dict(_cycle(2), F=[-1.0, 1.0, 1.0, -1.0])))
    assert main(["longrun", str(path)]) == 0
    out = capsys.readouterr().out
    assert "regime: polynomial (reason: no-growing-cycle)" in out
    assert "no stable balanced-growth candidate" in out


def test_sweep_charts_a_21_cycle(tmp_path, capsys):
    # from a uniform start every share stays 1/21 up to an ulp, a range
    # below the chart's tick resolution; n = 21 is solved, not refused
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    (scenarios_dir / "cycle21.json").write_text(json.dumps(_cycle(21)))
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir)]) == 0
    assert "cycle21: regime=exponential" in capsys.readouterr().out
    svg = (out_dir / "cycle21.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    report = json.loads((out_dir / "cycle21.report.json").read_text())
    assert report["prediction"]["candidates"] == []
    assert report["prediction"]["initial_condition_dependent"] is False
    text = (out_dir / "cycle21.report.txt").read_text()
    assert "no stable balanced-growth candidate" in text


def test_sweep_empty_dir_fails(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["sweep", str(empty)]) == 2


def test_paper_figs_runs_all(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["paper-figs", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("fig12-oneway", "fig12-circular", "fig4-transitions",
                  "sec4-eventually-nn", "homogeneous-baseline"):
        assert name in out
        assert (out_dir / f"{name}.csv").exists()


def test_sweep_keeps_group_results_when_one_fails_during_integration(tmp_path, capsys):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    for name in ("fig12-oneway", "fig12-circular"):
        write_scenario(replace(builtin_scenario(name), horizon=5.0), scenarios_dir / f"{name}.json")
    # one-way, so it passes classification and prediction; q1's productivity
    # alpha * exp(-L) - z0 turns negative as soon as q0 grows
    doomed = {
        "name": "doomed", "n": 2, "F": [0.0, 0.0, -1.0, 0.0],
        "nu": 0.5, "alpha": 1.0, "s_total": 1.0, "c": 1.0, "q0": [1.0, 1.0],
        "horizon": 5.0, "step": 0.01,
    }
    (scenarios_dir / "doomed.json").write_text(json.dumps(doomed))
    out_dir = tmp_path / "out"
    # one worker: all three scenarios share one batch
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir), "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert "doomed: NegativeProductivityError: " in captured.err
    assert "fig12-oneway: regime=polynomial" in captured.out
    assert "fig12-circular: regime=exponential" in captured.out
    index = json.loads((out_dir / "sweep.json").read_text())
    assert set(index) == {"fig12-oneway", "fig12-circular", "doomed"}
    assert index["doomed"]["error"].startswith("NegativeProductivityError: ")
    for name in ("fig12-oneway", "fig12-circular"):
        report = json.loads((out_dir / f"{name}.report.json").read_text())
        assert index[name]["terminal_growth"] == report["simulation"]["terminal_growth_rate"]


@pytest.mark.parametrize("field, value", [("horizon", "NaN"), ("horizon", "Infinity"), ("step", "NaN")])
def test_sweep_reports_non_finite_horizon_or_step(tmp_path, capsys, field, value):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    write_scenario(replace(builtin_scenario("fig12-oneway"), horizon=5.0), scenarios_dir / "good.json")
    doc = json.loads((scenarios_dir / "good.json").read_text())
    doc["name"] = "bad"
    # json writes and reads NaN and Infinity as bare literals
    (scenarios_dir / "bad.json").write_text(json.dumps(doc).replace(
        f'"{field}": {doc[field]}', f'"{field}": {value}'
    ))
    assert json.loads((scenarios_dir / "bad.json").read_text())[field] != doc[field]
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "bad: NonFiniteEntryError: " in captured.err
    assert (out_dir / "fig12-oneway.csv").exists()
    index = json.loads((out_dir / "sweep.json").read_text())
    assert set(index) == {"fig12-oneway", "bad"}
    assert index["fig12-oneway"]["regime"] == "polynomial"
    assert index["bad"]["error"].startswith(f"NonFiniteEntryError: {scenarios_dir / 'bad.json'}: {field} ")


@pytest.mark.parametrize("field, value", [("defaulted", [3, {"a": 1}]), ("defaulted", "nu"), ("n", 2.9)])
def test_sweep_reports_a_malformed_defaulted_list_or_n(tmp_path, capsys, field, value):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    write_scenario(replace(builtin_scenario("fig12-oneway"), horizon=5.0), scenarios_dir / "good.json")
    doc = json.loads((scenarios_dir / "good.json").read_text())
    doc["name"], doc[field] = "bad", value
    (scenarios_dir / "bad.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir)]) == 2
    assert "bad: ValidationError: " in capsys.readouterr().err
    index = json.loads((out_dir / "sweep.json").read_text())
    assert set(index) == {"fig12-oneway", "bad"}
    assert index["bad"]["error"].startswith(f"ValidationError: {scenarios_dir / 'bad.json'}: {field} ")
    assert index["fig12-oneway"]["regime"] == "polynomial"
    for suffix in (".csv", ".svg", ".report.txt", ".report.json"):
        assert (out_dir / f"fig12-oneway{suffix}").exists()
    assert not list(out_dir.glob("bad*"))


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    scenarios_dir = tmp_path / "scenarios"
    scenarios_dir.mkdir()
    write_scenario(replace(builtin_scenario("fig12-oneway"), horizon=5.0), scenarios_dir / "a.json")
    out_dir = tmp_path / "out"
    assert main(["sweep", str(scenarios_dir), "--out", str(out_dir), "--workers", workers]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()
