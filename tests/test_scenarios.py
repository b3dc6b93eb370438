import json
from dataclasses import replace

import numpy as np
import pytest

from spillnet import (
    EconomyParams,
    MissingFieldError,
    QualityState,
    Scenario,
    ScenarioParseError,
    SpilloverMatrix,
    ValidationError,
    builtin_scenario,
    builtin_scenarios,
    load_scenario,
    run,
    simulate,
    trajectory_csv,
    validate_model,
    write_scenario,
)


def test_exactly_five_builtins_with_expected_names():
    names = [s.name for s in builtin_scenarios()]
    assert names == [
        "fig12-oneway",
        "fig12-circular",
        "fig4-transitions",
        "sec4-eventually-nn",
        "homogeneous-baseline",
    ]


def test_builtin_matrix_entries_pinned():
    oneway = builtin_scenario("fig12-oneway").matrix.entries
    np.testing.assert_array_equal(
        oneway, [[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]]
    )
    circular = builtin_scenario("fig12-circular").matrix.entries
    assert circular[0, 3] == 1.0
    np.testing.assert_array_equal(circular[1:], oneway[1:])

    fig4 = builtin_scenario("fig4-transitions")
    np.testing.assert_array_equal(fig4.matrix.entries[3], [0, 0, 3, 0])
    np.testing.assert_array_equal(fig4.matrix.entries[1], [0.5, 0.5, 0, 0])
    np.testing.assert_array_equal(fig4.q0.q, [1, 0.1, 0.1, 0.1])
    assert fig4.params.alpha == 0.0 and fig4.params.nu == 0.5

    sec4 = builtin_scenario("sec4-eventually-nn").matrix.entries
    assert sec4[2, 0] == -1.0
    assert sec4[3, 1] == 0.0

    hom = builtin_scenario("homogeneous-baseline").matrix.entries
    assert (hom == 1.0).all()


def test_unstated_parameters_flagged_as_defaults():
    for s in builtin_scenarios():
        assert s.defaulted, s.name
    fig4 = builtin_scenario("fig4-transitions")
    # the staged-transition figure states nu, alpha, S, q0; only the rest
    # are artifact choices
    assert set(fig4.defaulted) == {"c", "horizon", "step"}
    assert "nu" in builtin_scenario("fig12-oneway").defaulted


def test_round_trip_every_builtin(tmp_path):
    for s in builtin_scenarios():
        path = tmp_path / f"{s.name}.json"
        write_scenario(s, path)
        assert load_scenario(path) == s


def test_load_matches_builtin_fig4(tmp_path):
    path = tmp_path / "fig4.json"
    write_scenario(builtin_scenario("fig4-transitions"), path)
    loaded = load_scenario(path)
    assert loaded.matrix == builtin_scenario("fig4-transitions").matrix
    assert loaded.q0 == builtin_scenario("fig4-transitions").q0


def test_missing_field_named(tmp_path):
    doc = json.loads((write_scenario(builtin_scenario("fig12-oneway"), tmp_path / "s.json"), (tmp_path / "s.json").read_text())[1])
    del doc["nu"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(MissingFieldError, match="'nu'"):
        load_scenario(bad)


def test_wrong_q0_length_is_dimension_error(tmp_path):
    doc = {
        "name": "x", "n": 2, "F": [0, 1, 1, 0],
        "nu": 0.5, "alpha": 0.0, "s_total": 1.0, "c": 1.0,
        "q0": [1, 1, 1], "horizon": 10.0, "step": 0.01,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="bad.json"):
        load_scenario(bad)


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioParseError, match="line 1"):
        load_scenario(bad)


def test_malformed_value_is_validation_error(tmp_path):
    doc = {
        "name": "x", "n": 2, "F": [0, 1, 1, 0],
        "nu": "not-a-number", "alpha": 0.0, "s_total": 1.0, "c": 1.0,
        "q0": [1, 1], "horizon": 10.0, "step": 0.01,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="malformed"):
        load_scenario(bad)


@pytest.mark.parametrize("field, value", [
    ("defaulted", "nu"),
    ("defaulted", [3, {"a": 1}]),
    ("defaulted", ["nu", "theta"]),
    ("defaulted", {"nu": True}),
    ("n", 2.9),
    ("n", True),
    ("n", "2"),
])
def test_bad_defaulted_or_n_is_validation_error(tmp_path, field, value):
    doc = {
        "name": "x", "n": 2, "F": [0, 1, 1, 0],
        "nu": 0.5, "alpha": 0.0, "s_total": 1.0, "c": 1.0,
        "q0": [1, 1], "horizon": 10.0, "step": 0.01, field: value,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"bad.json: {field} "):
        load_scenario(bad)
    if field == "defaulted":
        # programmatic scenarios are checked the same way
        with pytest.raises(ValidationError, match="defaulted "):
            replace(builtin_scenario("fig12-oneway"), defaulted=value)
    # an integral float is still an integer
    doc["n"], doc["defaulted"] = 2.0, ["nu"]
    bad.write_text(json.dumps(doc))
    assert load_scenario(bad).matrix.n == 2


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


def test_csv_format_and_determinism(tmp_path):
    s = builtin_scenario("fig12-circular")
    model = validate_model(s.matrix, s.params, s.q0)
    traj = simulate(model, 5.0)
    text = trajectory_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "# normalized=false"
    assert lines[1] == "t,q_1,q_2,q_3,q_4,s_1,s_2,s_3,s_4,g_1,g_2,g_3,g_4,g_YL,logsum"
    assert len(lines) == 2 + traj.times.size
    # byte-identical on a rerun
    assert trajectory_csv(simulate(model, 5.0)) == text


def test_csv_switches_to_normalized_on_overflow_scale():
    s = builtin_scenario("homogeneous-baseline")
    model = validate_model(s.matrix, s.params, s.q0)
    traj = simulate(model, 60.0)
    boosted = type(traj)(
        times=traj.times,
        z=traj.z,
        logsum=traj.logsum + 800.0,  # beyond float64 range for exp
        shares=traj.shares,
        tech_growth=traj.tech_growth,
        sector_growth=traj.sector_growth,
    )
    text = trajectory_csv(boosted)
    assert text.splitlines()[0] == "# normalized=true"
    assert "inf" not in text


def _csv_columns_round_trip(traj, q_cols):
    lines = trajectory_csv(traj).splitlines()[2:]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    expected = np.column_stack(
        (traj.times, q_cols, traj.shares, traj.tech_growth,
         traj.sector_growth, traj.logsum)
    )
    assert table.shape == expected.shape
    # bit for bit, NaN growth of zero-quality technologies included
    assert table.tobytes() == expected.tobytes()


def test_csv_values_parse_back_bit_for_bit(model_factory):
    s = builtin_scenario("fig4-transitions")
    traj = simulate(validate_model(s.matrix, s.params, s.q0), 20.0)
    _csv_columns_round_trip(traj, traj.z * np.exp(traj.logsum)[:, None])
    traj = simulate(model_factory([[0, 0], [0, 0]], alpha=1.0, q0=[1.0, 0.0]), 1.0)
    assert np.isnan(traj.tech_growth).any()
    _csv_columns_round_trip(traj, traj.z * np.exp(traj.logsum)[:, None])
    boosted = type(traj)(
        times=traj.times, z=traj.z, logsum=traj.logsum + 800.0,
        shares=traj.shares, tech_growth=traj.tech_growth,
        sector_growth=traj.sector_growth,
    )
    _csv_columns_round_trip(boosted, boosted.z)


def test_chart_polylines_match_pointwise_scaling():
    import re

    from spillnet.svgchart import _H, _MB, _ML, _MR, _MT, _W, _panel

    s = builtin_scenario("fig12-oneway")
    traj = simulate(validate_model(s.matrix, s.params, s.q0), 20.0)
    series = traj.tech_growth.T.copy()
    series[1, ::7] = np.nan  # gaps are left out of the line
    # a series with no finite value draws no line at all
    series = np.vstack([series, np.full(traj.times.size, np.nan)])
    parts = _panel("growth", traj.times, series, ["a", "b", "c", "d", "e"], _H)
    finite = series[np.isfinite(series)]
    lo, hi = finite.min(), finite.max()
    lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    lines = [m.group(1) for m in map(re.compile('points="([^"]*)"').search, parts) if m]
    assert len(lines) == 4
    for line, values in zip(lines, series):
        expected = " ".join(
            f"{_ML + (t - t0) / (t1 - t0) * (_W - _ML - _MR):.2f},"
            f"{_H + _MT + (hi - v) / (hi - lo) * (_H - _MT - _MB):.2f}"
            for t, v in zip(traj.times, values)
            if np.isfinite(v)
        )
        assert line == expected


def test_chart_range_below_float_resolution():
    # a tick stepped by accumulation never moves past lo once the step is
    # below lo's float resolution; a one-ulp range is drawn as a flat one
    from spillnet.svgchart import _panel, _ticks

    lo = 1 / 21
    hi = np.nextafter(lo, 1.0)
    assert 0 < len(_ticks(lo, hi)) <= 10
    times = np.array([0.0, 1.0])
    one_ulp = _panel("t", times, np.array([[lo, hi]]), ["a"], 0)
    assert one_ulp == _panel("t", times, np.array([[lo, lo]]), ["a"], 0)
    labels = [p for p in one_ulp if 'text-anchor="end"' in p]
    assert len(labels) >= 3 and len(set(labels)) == len(labels)


def test_run_circular_end_to_end(tmp_path):
    report = run(builtin_scenario("fig12-circular"), outdir=tmp_path)
    assert report.prediction.regime == "exponential"
    assert report.crosscheck_pass is True
    assert report.realized is not None
    assert report.realized_support == frozenset(range(4))
    for key in ("trajectory", "chart", "report_text", "report_json"):
        assert key in report.outputs
    data = json.loads((tmp_path / "fig12-circular.report.json").read_text())
    assert data["prediction"]["regime"] == "exponential"
    assert data["crosscheck_pass"] is True
    svg = (tmp_path / "fig12-circular.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_report_json_carries_integrator_counts(tmp_path):
    report = run(builtin_scenario("fig12-circular"), outdir=tmp_path)
    data = json.loads((tmp_path / "fig12-circular.report.json").read_text())
    counts = data["simulation"]["integrator"]
    assert counts == report.integrator
    assert set(counts) == {"field_evaluations", "accepted_steps", "rejected_steps"}
    assert counts["field_evaluations"] >= 6 * counts["accepted_steps"] > 0


def test_run_classifies_once(monkeypatch):
    from spillnet import longrun, scenarios, structure

    calls = []

    def counting_classify(matrix):
        calls.append(matrix)
        return structure.classify(matrix)

    monkeypatch.setattr(scenarios, "classify", counting_classify)
    monkeypatch.setattr(longrun, "classify", counting_classify)
    run(builtin_scenario("fig12-circular"), outdir=None)
    assert len(calls) == 1


def test_run_outputs_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(builtin_scenario("fig4-transitions"), outdir=a)
    run(builtin_scenario("fig4-transitions"), outdir=b)
    name = "fig4-transitions.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()
    # reports agree on everything except the embedded output paths
    ra = json.loads((a / "fig4-transitions.report.json").read_text())
    rb = json.loads((b / "fig4-transitions.report.json").read_text())
    ra.pop("outputs"), rb.pop("outputs")
    assert ra == rb


def test_run_oneway_reports_polynomial(tmp_path):
    report = run(builtin_scenario("fig12-oneway"), outdir=None)
    assert report.prediction.regime == "polynomial"
    assert report.crosscheck_pass is None  # no candidate supports to check
    assert "nu" in report.defaulted


def test_crosscheck_undecided_when_run_has_not_converged(tmp_path):
    # fig4-transitions' one candidate is right, but at t = 60 z is still
    # about 5e-4 from z* and moving: that is no misprediction
    scenario = builtin_scenario("fig4-transitions")
    report = run(scenario, outdir=tmp_path)
    (candidate,) = report.prediction.candidates
    assert not report.convergence.converged
    model = validate_model(scenario.matrix, scenario.params, scenario.q0)
    z_end = simulate(model, scenario.horizon, scenario.step).z[-1]
    assert 1e-4 < np.abs(z_end - candidate.z_star).max() < 1e-3
    assert report.realized is None
    assert report.crosscheck_pass is None
    text = (tmp_path / "fig4-transitions.report.txt").read_text()
    assert "prediction cross-check: undecided (not converged)" in text
    assert "FAIL" not in text


def test_crosscheck_matches_candidates_on_relative_qualities():
    # an irreducible sparse network whose one candidate, the full set, has
    # members with tiny asymptotic shares (min s* about 1e-28): only 2 of 8
    # technologies hold more than 1e-3 of the scientists at the end
    rng = np.random.default_rng(1)
    f = (rng.random((8, 8)) < 0.5) * rng.random((8, 8))
    scenario = Scenario(
        name="panel-n8-k1",
        matrix=SpilloverMatrix(f),
        params=EconomyParams(nu=0.5, alpha=0.0, s_total=1.0),
        q0=QualityState(0.0, np.ones(8)),
        horizon=60.0,
        step=0.01,
    )
    report = run(scenario)
    (candidate,) = report.prediction.candidates
    assert candidate.support == frozenset(range(8))
    assert len(report.realized_support) < 8
    assert report.crosscheck_pass is True
    assert report.realized is candidate


def test_settled_run_near_its_candidate_passes_crosscheck():
    # at t = 15 this irreducible network's shares have settled (within
    # 1e-4 over the window) while z is still about 5e-6 from z*: the
    # realized test must use the tolerance the convergence test uses
    rng = np.random.default_rng(24)
    f = (rng.random((12, 12)) < 0.5) * rng.random((12, 12))
    scenario = Scenario(
        name="panel-n12-k24",
        matrix=SpilloverMatrix(f),
        params=EconomyParams(nu=0.5, alpha=0.0, s_total=1.0),
        q0=QualityState(0.0, np.ones(12)),
        horizon=15.0,
        step=0.01,
    )
    report = run(scenario)
    assert report.convergence.converged
    assert report.crosscheck_pass is True
