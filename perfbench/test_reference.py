"""The reference computations against closed forms and hand-built graphs.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np

import reference


def test_two_cycle_grows_at_root_half():
    # symmetric 2-cycle: s = (1/2, 1/2), so q_i' = (1/2)^(1/2) q_i
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    samples = reference.integrate(f, [1.0, 1.0], 0.5, 0.0, 1.0, 5.0, 0.01)
    np.testing.assert_allclose(samples.sector_growth, math.sqrt(0.5), rtol=1e-12)
    np.testing.assert_allclose(samples.shares, 0.5, rtol=1e-12)
    root_err, fixed_err = reference.perron_check(f, {0, 1}, [0.5, 0.5], math.sqrt(0.5), 0.5, 1.0)
    assert root_err < 1e-12 and fixed_err < 1e-12


def test_homogeneous_growth_law():
    # g = n f (S/n)^nu on F = f * ones, from a uniform start
    n, f0, s_total, nu = 5, 0.7, 2.0, 0.3
    f = np.full((n, n), f0)
    g = n * f0 * (s_total / n) ** nu
    samples = reference.integrate(f, np.ones(n), nu, 0.0, s_total, 2.0, 0.01)
    np.testing.assert_allclose(samples.sector_growth, g, rtol=1e-12)
    shares, growth = reference.window_means(samples, 0.5)
    assert abs(growth - g) < 1e-12 * g
    np.testing.assert_allclose(shares, 1.0 / n, rtol=1e-12)
    root_err, fixed_err = reference.perron_check(f, range(n), np.full(n, 1.0 / n), g, nu, s_total)
    assert root_err < 1e-12 and fixed_err < 1e-12


def test_alpha_rescaling_matches_unscaled_rk4():
    # per-step renormalisation divides alpha by the carried scale; on a
    # short horizon it must agree with RK4 on raw q
    rng = np.random.default_rng(0)
    f = rng.uniform(0.0, 1.0, (3, 3))
    q = np.array([1.0, 2.0, 0.5])
    nu, alpha, step = 0.5, 1.0, 0.01

    def field(q):
        p = f @ q + alpha
        return (reference.shares(p, nu) * 1.0) ** nu * p

    for _ in range(100):
        k1 = field(q)
        k2 = field(q + 0.5 * step * k1)
        k3 = field(q + 0.5 * step * k2)
        k4 = field(q + step * k3)
        q = q + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    samples = reference.integrate(f, [1.0, 2.0, 0.5], nu, alpha, 1.0, 1.0, step)
    p = f @ q + alpha
    np.testing.assert_allclose(samples.shares[-1], reference.shares(p, nu), rtol=1e-12)
    v = reference.shares(p, nu) ** nu * p
    assert abs(samples.sector_growth[-1] - v.sum() / q.sum()) < 1e-12


def hand_built():
    # 0 -> 1 -> 2 -> 0 is a cycle, 2 -> 3 a tail, 4 has a self-loop, 5 is
    # isolated; entry (i, j) is the spillover i receives from j
    f = np.zeros((6, 6))
    f[1, 0] = f[2, 1] = f[0, 2] = 1.0
    f[3, 2] = 0.5
    f[4, 4] = 0.3
    return f


def test_reachability_components_and_cores():
    f = hand_built()
    reach = reference.reachability(f)
    cycle = [0, 1, 2]
    assert reach[np.ix_(cycle, cycle)].all()
    assert reach[3, cycle].all() and not reach[cycle, 3].any()
    assert not reach[3, 3] and reach[4, 4] and not reach[5].any()
    assert set(reference.strong_components(f)) == {
        frozenset(cycle), frozenset({3}), frozenset({4}), frozenset({5})}
    assert set(reference.weak_components(f)) == {
        frozenset({0, 1, 2, 3}), frozenset({4}), frozenset({5})}
    assert reference.cores(f) == {frozenset(cycle), frozenset({4})}
    assert not reference.irreducible(f)
    assert reference.irreducible(f[np.ix_(cycle, cycle)])


def test_witness_by_direct_power():
    # a negative spillover starts a 4-chain: F^1..F^3 carry it, F^4 = 0
    f = np.zeros((4, 4))
    f[1, 0] = -1.0
    f[2, 1] = f[3, 2] = 1.0
    assert not any(reference.witness_holds(f, k) for k in (1, 2, 3))
    assert reference.witness_holds(f, 4)
