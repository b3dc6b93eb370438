import math

import numpy as np
import pytest

from spillnet import (
    DegenerateEconomyError,
    Trajectory,
    builtin_scenario,
    builtin_scenarios,
    detect_convergence,
    detect_transitions,
    growth_series,
    leader_set,
    sector_growth_rate,
    simulate,
    simulate_batch,
    solve_support_system,
    validate_model,
)

SQRT_HALF = math.sqrt(0.5)


def test_symmetric_two_cycle_closed_form(model_factory):
    model = model_factory([[0, 1], [1, 0]])
    traj = simulate(model, 20.0)
    np.testing.assert_allclose(traj.shares, 0.5, atol=1e-12)
    assert abs(traj.sector_growth[-1] - SQRT_HALF) < 1e-4
    np.testing.assert_allclose(traj.tech_growth[-1], SQRT_HALF, atol=1e-4)


def test_no_spillovers_linear_growth_exact(model_factory):
    # uniform shares by symmetry: q_i(t) = 1 + (S/2)^nu * t
    model = model_factory([[0, 0], [0, 0]], alpha=1.0)
    traj = simulate(model, 10.0)
    expected = np.repeat((1.0 + 0.5**0.5 * traj.times)[:, None], 2, axis=1)
    q = traj.qualities()
    np.testing.assert_allclose(q, expected, rtol=1e-10)
    assert traj.sector_growth[-1] < 0.1
    assert traj.sector_growth[-1] < traj.sector_growth[0]


def test_circular_chain_common_growth_constant(model_factory):
    model = model_factory(
        [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]], alpha=1.0
    )
    traj = simulate(model, 60.0)
    rates = traj.tech_growth[-1]
    assert np.all(rates > 0)
    assert rates.max() - rates.min() < 1e-6
    sols = solve_support_system(model.matrix, model.params)
    assert len(sols) == 1
    assert abs(traj.sector_growth[-1] - sols[0].growth_rate) < 1e-3 * sols[0].growth_rate


@pytest.mark.parametrize(
    "rows, alpha, q0",
    [
        ([[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]], 1.0, [1, 1, 1, 1]),
        ([[3 / 4, 0, 0, 1], [1 / 2, 1 / 2, 0, 0], [0, 1 / 3, 0, 1], [0, 0, 3, 0]], 0.0, [1, 0.1, 0.1, 0.1]),
        ([[1, 1, 1, 1], [1, 1, 1, 1], [-1, 1, 1, 1], [1, 0, 1, 1]], 1.0, [1, 1, 1, 1]),
    ],
)
def test_scale_free_state_matches_raw_integration(model_factory, raw_rk4, rows, alpha, q0):
    # the (z, log-sum) field must be the exact rewrite of the raw dynamics
    model = model_factory(rows, alpha=alpha, q0=q0)
    traj = simulate(model, 5.0, step=1e-3, sample_every=5000)
    q_ref = raw_rk4(
        np.array(rows, float), q0, model.params.nu, alpha, model.params.s_total,
        5.0, 1e-3,
    )
    np.testing.assert_allclose(traj.z[-1], q_ref / q_ref.sum(), atol=1e-10)
    assert traj.logsum[-1] == pytest.approx(math.log(q_ref.sum()), abs=1e-10)


def test_qualities_monotone_under_nonnegative_field(rng, model_factory):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        f = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
        q0 = rng.uniform(0.1, 2.0, n)
        model = model_factory(f, alpha=float(rng.uniform(0, 1)), q0=q0)
        traj = simulate(model, 8.0, step=0.02)
        logq = np.where(traj.z > 0, np.log(np.maximum(traj.z, 1e-300)), -np.inf)
        logq = logq + traj.logsum[:, None]
        assert np.all(np.diff(logq, axis=0) >= -1e-9)
        assert np.all(np.diff(traj.logsum) >= -1e-12)
        # the integrator preserves the simplex exactly up to roundoff
        np.testing.assert_allclose(traj.z.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(traj.z >= -1e-12)
        assert np.isfinite(traj.logsum).all()


def test_consistency_check_halving_reduces_discrepancy_4x(model_factory):
    model = model_factory(
        [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]], alpha=1.0
    )

    def discrepancy(h):
        traj = simulate(model, 8.0, step=h, sample_every=1)
        gs = growth_series(traj)
        mid = 0.5 * (gs.sector_growth[:-1] + gs.sector_growth[1:])
        return np.abs(gs.logsum_rate - mid).max()

    ratio = discrepancy(0.02) / discrepancy(0.01)
    assert 3.2 < ratio < 4.8


def test_step_size_robustness_on_builtins(raw_rk4):
    # the adaptive step does not depend on `step`, so agreement is checked
    # against the independent raw-coordinate oracle at half the scenario step
    for scenario in builtin_scenarios():
        model = validate_model(scenario.matrix, scenario.params, scenario.q0)
        traj = simulate(model, scenario.horizon, step=scenario.step)
        p = scenario.params
        q_ref = raw_rk4(
            scenario.matrix.entries, scenario.q0.q, p.nu, p.alpha, p.s_total,
            scenario.horizon, scenario.step / 2,
        )
        assert np.abs(traj.z[-1] - q_ref / q_ref.sum()).max() < 1e-6, scenario.name


def test_field_evaluation_budget_on_builtins():
    for scenario in builtin_scenarios():
        model = validate_model(scenario.matrix, scenario.params, scenario.q0)
        traj = simulate(model, scenario.horizon, step=scenario.step)
        assert 0 < traj.field_evaluations < 2500, scenario.name
        assert traj.field_evaluations >= 12 * traj.accepted_steps > 0


# the DOP853 nodes, which the integrator itself never needs (the field
# does not depend on t)
_SQRT6 = math.sqrt(6.0)
_NODES = np.array([
    0.0, (6 - _SQRT6) / 67.5, (6 - _SQRT6) / 45, (6 - _SQRT6) / 30, (6 + _SQRT6) / 30,
    1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0, 1 / 10, 1 / 5, 7 / 9,
])


def _dense_weights(theta):
    from spillnet import dynamics

    u = theta * (1 - theta)
    basis = np.array([theta, u, theta * u, u**2, theta * u**2, u**3, theta * u**3])
    return basis @ dynamics._DENSE


def test_tableau_order_conditions():
    from spillnet import dynamics

    for i in range(1, 16):
        assert dynamics._A[i].shape == (i,)
        assert dynamics._A[i].sum() == pytest.approx(_NODES[i], abs=1e-15), i
    b = dynamics._A[12]
    for k in range(1, 9):
        assert b @ _NODES[:12] ** (k - 1) == pytest.approx(1 / k, abs=1e-15), k
    assert abs(dynamics._E5.sum()) < 1e-15
    assert abs(dynamics._E3.sum()) < 1e-15
    # the embedded 5th- and 3rd-order solutions: b - E5 is exact on
    # polynomials up to degree 4 and b - E3 up to degree 2, and no further
    for weights, order in ((b - dynamics._E5, 5), (b - dynamics._E3, 3)):
        residuals = [weights @ _NODES[:12] ** (k - 1) - 1 / k for k in range(1, order + 2)]
        assert np.abs(residuals[:order]).max() < 1e-15
        assert abs(residuals[order]) > 1e-6


def test_continuous_extension_end_points_and_order():
    from spillnet import dynamics

    # y(0) = y and y(1) = y_new exactly
    assert np.array_equal(_dense_weights(0.0), np.zeros(16))
    assert np.array_equal(_dense_weights(1.0), np.pad(dynamics._A[12], (0, 4)))
    for theta in (0.1, 0.37, 0.5, 0.83):
        w = _dense_weights(theta)
        residuals = [w @ _NODES ** (k - 1) - theta**k / k for k in range(1, 9)]
        assert np.abs(residuals[:7]).max() < 1e-13, theta  # 7th order
        assert abs(residuals[7]) > 1e-7, theta


def test_dense_output_matches_raw_integration_between_steps(model_factory, raw_rk4):
    # samples inside steps come from the 7th-order continuous extension;
    # dropping its last term shows up here as errors of about 1e-11
    rows = [[3 / 4, 0, 0, 1], [1 / 2, 1 / 2, 0, 0], [0, 1 / 3, 0, 1], [0, 0, 3, 0]]
    q0 = [1, 0.1, 0.1, 0.1]
    model = model_factory(rows, q0=q0)
    traj = simulate(model, 5.0, step=0.01, sample_every=125)
    assert traj.times.size == 5
    assert traj.accepted_steps > traj.times.size
    for t, z, logsum in zip(traj.times[1:], traj.z[1:], traj.logsum[1:]):
        q_ref = raw_rk4(np.array(rows, float), q0, 0.5, 0.0, 1.0, t, 1e-3)
        np.testing.assert_allclose(z, q_ref / q_ref.sum(), rtol=0, atol=3e-12)
        assert logsum == pytest.approx(math.log(q_ref.sum()), abs=3e-12)


def test_nan_field_raises_blowup_at_once(model_factory, monkeypatch):
    from spillnet import IntegrationBlowupError, dynamics

    calls = []

    def nan_field(y, *args):
        calls.append(1)
        if len(calls) > 100:
            raise RuntimeError("integrator kept going on a NaN field")
        nan = np.full(y.shape[:-1] + (y.shape[-1] - 1,), np.nan)
        return np.full_like(y, np.nan), nan, nan, None

    monkeypatch.setattr(dynamics, "_field", nan_field)
    with pytest.raises(IntegrationBlowupError) as info:
        simulate(model_factory([[0, 1], [1, 0]]), 20.0)
    assert info.value.last_good_time == 0.0
    assert len(calls) <= 13  # one step: the initial stage plus twelve more


def test_negative_productivity_stage_rejects_step(model_factory, monkeypatch):
    from spillnet import dynamics

    model = model_factory([[0, 1], [1, 0]], alpha=0.5)
    clean = simulate(model, 5.0)
    field = dynamics._field
    calls = []

    def flaky_field(y, *args):
        calls.append(1)
        ydot, v, shares, negative = field(y, *args)
        if len(calls) == 3:
            # one stage of the first step reports negative productivity
            return ydot, v, shares, np.ones(y.shape[:-1], dtype=bool)
        return ydot, v, shares, negative

    monkeypatch.setattr(dynamics, "_field", flaky_field)
    traj = simulate(model, 5.0)
    assert traj.rejected_steps >= 1
    np.testing.assert_allclose(traj.z, clean.z, atol=1e-10)
    np.testing.assert_allclose(traj.logsum, clean.logsum, atol=1e-10)


def test_persistent_negative_productivity_is_reraised(model_factory, monkeypatch):
    from spillnet import NegativeProductivityError, dynamics

    field = dynamics._field
    calls = []

    def failing_field(y, *args):
        calls.append(1)
        if len(calls) > 600:
            raise RuntimeError("integrator kept halving the step")
        ydot, v, shares, negative = field(y, *args)
        if len(calls) > 1:
            return ydot, v, shares, np.ones(y.shape[:-1], dtype=bool)
        return ydot, v, shares, negative

    monkeypatch.setattr(dynamics, "_field", failing_field)
    with pytest.raises(NegativeProductivityError):
        simulate(model_factory([[0, 1], [1, 0]]), 5.0)
    # halving from step to 1e-9 * step takes about 30 rejected steps, each
    # of twelve stage evaluations after the initial one
    assert (len(calls) - 1) / 12 < 40


def test_negative_productivity_sample_rejects_step(model_factory, monkeypatch):
    from spillnet import dynamics

    model = model_factory([[0, 1], [1, 0]], alpha=0.5)
    clean = simulate(model, 5.0)
    rates = dynamics._rates
    flagged = []

    def flaky_rates(y, *args):
        ydot, v, shares, negative = rates(y, *args)
        if not flagged and y.ndim == 2 and y.shape[0] > 1:
            # a stage of a batch of one has one state, so this is the
            # evaluation of the first step that holds several samples
            flagged.append(y.shape[0])
            return ydot, v, shares, np.arange(y.shape[0]) == 1
        return ydot, v, shares, negative

    monkeypatch.setattr(dynamics, "_rates", flaky_rates)
    traj = simulate(model, 5.0)
    assert flagged
    assert traj.rejected_steps == clean.rejected_steps + 1
    np.testing.assert_allclose(traj.z, clean.z, atol=1e-10)
    np.testing.assert_allclose(traj.logsum, clean.logsum, atol=1e-10)
    np.testing.assert_allclose(traj.shares, clean.shares, atol=1e-10)


def _counting_rates(monkeypatch):
    """Count the states at which the field is evaluated."""
    from spillnet import dynamics

    rates = dynamics._rates
    states = []

    def counting_rates(y, *args):
        states.append(y[..., 0].size)
        return rates(y, *args)

    monkeypatch.setattr(dynamics, "_rates", counting_rates)
    return states


def test_field_evaluations_count_every_state_evaluated(model_factory, monkeypatch):
    cycle = model_factory([[0, 1], [1, 0]], alpha=0.5)
    ring = model_factory(np.roll(np.eye(4), 1, axis=0) + 0.5 * np.eye(4), nu=0.3, q0=[1, 2, 1, 0.5])
    alone = []
    for model, t_end in ((cycle, 6.0), (ring, 9.0)):
        states = _counting_rates(monkeypatch)
        traj = simulate(model, t_end, step=0.01, sample_every=7)
        assert traj.field_evaluations == sum(states)
        # besides the first evaluation and twelve per attempted step: three
        # per step that fills samples, and one per sample after the first
        attempted = traj.accepted_steps + traj.rejected_steps
        dense = traj.field_evaluations - 1 - 12 * attempted - (traj.times.size - 1)
        assert dense % 3 == 0 and 0 < dense <= 3 * traj.accepted_steps
        alone.append(traj)
    states = _counting_rates(monkeypatch)
    batch = simulate_batch([cycle, ring], [6.0, 9.0], [0.01, 0.01], sample_every=7)
    assert [traj.field_evaluations for traj in batch] == [traj.field_evaluations for traj in alone]
    assert sum(states) == sum(traj.field_evaluations for traj in batch)


def test_nonreceivers_lose_all_scientists(model_factory):
    # two separated cycles, the heavier one wins; the losing block receives
    # nothing from the winners so its shares collapse
    model = model_factory([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
    traj = simulate(model, 60.0)
    conv = detect_convergence(traj, eps=1e-4, window=5.0)
    assert conv.converged
    assert traj.shares[-1][:2].max() < 1e-3


def test_sector_growth_weighted_average_examples():
    assert sector_growth_rate([1.0, 3.0], [0.2, 0.1]) == pytest.approx(0.125)
    # equal growth rates collapse the average onto that rate
    assert sector_growth_rate([0.3, 0.9, 2.0], [0.4, 0.4, 0.4]) == pytest.approx(0.4)
    # a single grower's weight pulls the average up to its rate
    for w in (0.5, 0.9, 0.999):
        avg = sector_growth_rate([w, 1 - w], [0.7, 0.0])
        assert avg < 0.7
        assert avg == pytest.approx(0.7 * w)


def test_growth_series_matches_logsum_differencing(model_factory):
    model = model_factory([[0, 1], [1, 0]], alpha=0.5)
    traj = simulate(model, 10.0, step=0.01, sample_every=1)
    gs = growth_series(traj)
    mid = 0.5 * (gs.sector_growth[:-1] + gs.sector_growth[1:])
    assert np.abs(gs.logsum_rate - mid).max() < 1e-5
    assert gs.interval_times.shape == (traj.times.size - 1,)


def test_undefined_growth_flagged_at_zero_quality(model_factory):
    model = model_factory([[0, 0], [0, 0]], alpha=1.0, q0=[1.0, 0.0])
    traj = simulate(model, 1.0)
    assert math.isnan(traj.tech_growth[0][1])
    assert not math.isnan(traj.tech_growth[-1][1])  # alpha lifts it off zero
    assert np.isfinite(traj.sector_growth).all()


def test_batched_sample_pass_matches_per_state_field():
    from spillnet import dynamics

    for scenario in builtin_scenarios():
        model = validate_model(scenario.matrix, scenario.params, scenario.q0)
        traj = simulate(model, scenario.horizon, step=scenario.step)
        p = model.params
        args = (model.matrix.entries, p.nu, p.alpha, p.s_total)
        for i, (z, logsum) in enumerate(zip(traj.z, traj.logsum)):
            _, v, shares, _ = dynamics._field(np.append(z, logsum), *args)
            growth = np.where(z > 0, v / np.where(z > 0, z, 1.0), np.nan)
            np.testing.assert_allclose(traj.shares[i], shares, rtol=0, atol=1e-14)
            np.testing.assert_allclose(traj.tech_growth[i], growth, rtol=1e-14, atol=1e-14)
            assert traj.sector_growth[i] == pytest.approx(v.sum(), rel=1e-14, abs=1e-14)


def _synthetic_trajectory(times, shares):
    times = np.asarray(times, float)
    shares = np.asarray(shares, float)
    m, n = shares.shape
    z = shares.copy()
    return Trajectory(
        times=times,
        z=z,
        logsum=np.zeros(m),
        shares=shares,
        tech_growth=np.zeros((m, n)),
        sector_growth=np.zeros(m),
    )


def test_transition_debounce_suppresses_blips():
    times = np.arange(0.0, 10.0, 0.1)
    shares = np.tile([0.8, 0.2], (times.size, 1))
    # a 0.3-long blip toward technology 2, then a sustained switch at t = 5
    blip = (times >= 2.0) & (times < 2.3)
    shares[blip] = [0.2, 0.8]
    shares[times >= 5.0] = [0.2, 0.8]
    traj = _synthetic_trajectory(times, shares)
    events = detect_transitions(traj, theta=0.6, hold=1.0)
    assert len(events) == 1
    assert events[0].old_leaders == frozenset({0})
    assert events[0].new_leaders == frozenset({1})
    assert events[0].time == pytest.approx(5.0)


def test_constant_shares_no_events():
    times = np.arange(0.0, 5.0, 0.1)
    shares = np.tile([0.5, 0.3, 0.2], (times.size, 1))
    assert detect_transitions(_synthetic_trajectory(times, shares), theta=0.6) == []


def test_winner_from_start_no_events(model_factory):
    model = model_factory([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
    traj = simulate(model, 40.0)
    assert detect_transitions(traj, theta=0.6, hold=1.0) == []


def test_convergence_symmetric_cycle(model_factory):
    traj = simulate(model_factory([[0, 1], [1, 0]]), 20.0)
    conv = detect_convergence(traj, eps=1e-4, window=5.0)
    assert conv.converged
    np.testing.assert_allclose(conv.shares, 0.5, atol=1e-9)
    assert conv.growth_rate == pytest.approx(SQRT_HALF, abs=1e-4)


def test_convergence_oneway_shares_settle_before_growth():
    scenario = builtin_scenario("fig12-oneway")
    model = validate_model(scenario.matrix, scenario.params, scenario.q0)
    traj = simulate(model, 50.0)
    conv = detect_convergence(traj, eps=3e-3, window=5.0)
    assert conv.shares_converged
    assert not conv.growth_converged  # rates still decaying toward zero
    idx = traj.times >= 25.0
    assert traj.sector_growth[-1] < traj.sector_growth[idx][0]
    assert conv.growth_rate > 0


def test_zero_initial_quality_sum_rejected(model_factory):
    model = model_factory([[0, 0], [0, 0]], alpha=1.0, q0=[0.0, 0.0])
    with pytest.raises(DegenerateEconomyError):
        simulate(model, 1.0)


def test_blowup_error_carries_last_good_time():
    from spillnet import IntegrationBlowupError

    err = IntegrationBlowupError("boom", last_good_time=3.5)
    assert err.last_good_time == 3.5


def test_blowup_error_survives_pickle():
    import pickle

    from spillnet import IntegrationBlowupError

    err = pickle.loads(pickle.dumps(IntegrationBlowupError("boom", last_good_time=3.5)))
    assert isinstance(err, IntegrationBlowupError)
    assert str(err) == "boom"
    assert err.last_good_time == 3.5


def test_simulate_argument_validation(model_factory):
    model = model_factory([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        simulate(model, -1.0)
    with pytest.raises(ValueError):
        simulate(model, 1.0, step=0.0)
    with pytest.raises(ValueError):
        simulate(model, 1.0, sample_every=0)
    for t_end, step in ((math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            simulate(model, t_end, step=step)


@pytest.mark.parametrize(
    "t_end, step, sample_every",
    [
        (1.05, 0.01, 10),   # fractional remainder step
        (0.3, 0.1, 1),      # k*step lands one ulp past t_end
        (0.25, 0.1, 3),     # only the endpoints get sampled
        (10.0, 0.3, 7),
    ],
)
def test_final_time_always_sampled(model_factory, t_end, step, sample_every):
    model = model_factory([[0, 1], [1, 0]])
    traj = simulate(model, t_end, step=step, sample_every=sample_every)
    assert traj.times[-1] == t_end
    assert np.all(np.diff(traj.times) > 0)


@pytest.mark.parametrize("name", ["fig4-transitions", "sec4-eventually-nn"])
def test_one_sample_grid_emits_no_warning(name):
    # a first step as long as the horizon overflows its trial stages; the
    # step rejection deals with them, so no numpy warning reaches the caller
    import warnings

    scenario = builtin_scenario(name)
    model = validate_model(scenario.matrix, scenario.params, scenario.q0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(model, scenario.horizon, step=scenario.horizon)
    assert traj.times.tolist() == [0.0, scenario.horizon]
    assert traj.rejected_steps > 0
    reference = simulate(model, scenario.horizon)
    np.testing.assert_allclose(traj.z[-1], reference.z[-1], rtol=0, atol=1e-9)


def test_batch_pads_mixed_sizes_out_of_the_shares(model_factory):
    # with alpha = 1 an unmasked padding technology of the n = 2 rows would
    # draw productivity alpha * exp(-L), and with it scientists
    cycle = model_factory([[0, 1], [1, 0]], alpha=1.0, q0=[1.0, 0.5])
    rows = np.roll(np.eye(5), 1, axis=0)
    ring = model_factory(rows, nu=0.3, alpha=1.0, q0=[1.0, 2.0, 1.0, 0.5, 1.0])
    independent = model_factory([[0, 0], [0, 0]], alpha=1.0, q0=[1.0, 3.0])
    # no technology ever has productivity, so the shares stay uniform over
    # the economy's own two technologies
    idle = model_factory([[0, 1], [0, 1]], q0=[1.0, 0.0])
    models = [cycle, ring, independent, idle]
    t_ends, steps = [6.0, 6.0, 3.0, 3.0], [0.01, 0.02, 0.01, 0.01]
    batch = simulate_batch(models, t_ends, steps)
    for model, t_end, step, traj in zip(models, t_ends, steps, batch):
        alone = simulate(model, t_end, step=step)
        assert traj.z.shape == alone.z.shape
        np.testing.assert_allclose(traj.z, alone.z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.logsum, alone.logsum, rtol=1e-12)
        np.testing.assert_allclose(traj.shares, alone.shares, rtol=0, atol=1e-12)
        # the error norm runs over each row's own n + 1 components, so a
        # row takes the steps its economy takes alone
        assert traj.accepted_steps == alone.accepted_steps
        assert traj.rejected_steps == alone.rejected_steps


def _assert_same_trajectory(a, b):
    for name in ("times", "z", "logsum", "shares", "tech_growth", "sector_growth"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert (a.field_evaluations, a.accepted_steps, a.rejected_steps) == (
        b.field_evaluations, b.accepted_steps, b.rejected_steps
    )


def test_batch_isolates_failing_rows(model_factory, monkeypatch):
    from spillnet import IntegrationBlowupError, NegativeProductivityError, dynamics

    good = [
        model_factory([[0, 1], [1, 0]], alpha=0.5),
        model_factory([[0, 2], [1, 0]], nu=0.3, q0=[1.0, 0.2]),
        model_factory([[1, 0], [1, 1]], nu=0.8, alpha=1.0),
    ]
    alone = [simulate(model, 5.0) for model in good]
    # q1 overtakes q0 at once, which drives p0 = z0 - z1 below zero in
    # every step however small
    negative = model_factory([[1, -1], [0, 1]])
    # the field of this economy turns to NaN (a marker entry picks it out)
    blowup = model_factory([[0, 3], [1, 0]])
    field = dynamics._field

    def nan_for_marked_rows(y, f, *args):
        ydot, v, shares, neg = field(y, f, *args)
        if f.ndim == 3:
            ydot[f[:, 0, 1] == 3] = np.nan
        return ydot, v, shares, neg

    monkeypatch.setattr(dynamics, "_field", nan_for_marked_rows)
    models = [good[0], negative, good[1], blowup, good[2]]
    batch = simulate_batch(models, [5.0] * 5, [0.01] * 5)
    assert isinstance(batch[1], NegativeProductivityError)
    assert isinstance(batch[3], IntegrationBlowupError)
    assert batch[3].last_good_time == 0.0
    for traj, reference in zip([batch[0], batch[2], batch[4]], alone):
        _assert_same_trajectory(traj, reference)


def test_vectorised_leader_sets_match_leader_set_with_ties(rng):
    from spillnet.dynamics import _leader_sets

    for _ in range(200):
        n = int(rng.integers(1, 9))
        # few distinct levels, so that equal shares are common
        raw = rng.integers(0, 4, size=(20, n)).astype(float)
        raw[raw.sum(axis=1) == 0] = 1.0
        shares = raw / raw.sum(axis=1, keepdims=True)
        for theta in (0.1, 0.5, 0.6, float(rng.uniform(0.01, 0.99))):
            members = _leader_sets(shares, theta)
            for row, member in zip(shares, members):
                assert frozenset(np.flatnonzero(member).tolist()) == leader_set(row, theta)
