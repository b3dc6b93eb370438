import itertools
import logging

import numpy as np
import pytest

from spillnet import (
    EconomyParams,
    PreconditionError,
    QualityState,
    SpilloverMatrix,
    block_winner,
    classify,
    closure,
    predict_regime,
    solve_support_system,
)

P0 = EconomyParams(nu=0.5, alpha=0.0, s_total=1.0)

ONEWAY = [[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]]
CIRCULAR = [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]]
FIG4 = [[3 / 4, 0, 0, 1], [1 / 2, 1 / 2, 0, 0], [0, 1 / 3, 0, 1], [0, 0, 3, 0]]
TWO_CYCLES_1V2 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
STALL = [[0.319, 0.871, 0], [0, 0.374, 0.5], [1.409, 0, 0.493]]
TWO_EQUAL_CYCLES = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def recomputed_residual(f, sol, nu):
    """Independent check of the pairwise support equations."""
    z = sol.z_star
    u = np.where(z > 0, (f @ z) ** (1.0 / (1.0 - nu)), 0.0)
    worst = 0.0
    idx = sorted(sol.support)
    for i in idx:
        for j in idx:
            worst = max(worst, abs(z[j] * u[i] - z[i] * u[j]))
    return worst / max(z.max() * u.max(), 1e-300)


def test_independent_technologies_every_self_spillover_is_a_candidate():
    # for nu in (0, 1) each positive self-spillover is a locally stable
    # survivor: the share rule hands more scientists to whichever is ahead
    from spillnet import simulate, validate_model

    matrix = SpilloverMatrix(np.diag([1.0, 2.0]))
    prediction = predict_regime(classify(matrix), matrix, P0)
    assert [c.support for c in prediction.candidates] == [{0}, {1}]
    # single-survivor closed form g = S^nu * F_ii
    assert [c.growth_rate for c in prediction.candidates] == pytest.approx(
        [1.0, 2.0], abs=1e-12
    )
    np.testing.assert_allclose(prediction.candidates[1].shares_inf, [0.0, 1.0])
    assert prediction.initial_condition_dependent
    assert prediction.survivors is None
    # where a simulation lands depends on the start
    for q0, winner, g in [([10.0, 1.0], 0, 1.0), ([1.0, 1.0], 1, 2.0)]:
        traj = simulate(validate_model(matrix, P0, QualityState(0.0, q0)), 60.0)
        assert traj.shares[-1][winner] == pytest.approx(1.0, abs=1e-12)
        assert traj.sector_growth[-1] == pytest.approx(g, abs=1e-9)


def test_independent_ties_give_multiple_candidates():
    sols = solve_support_system(SpilloverMatrix(np.diag([2.0, 2.0])), P0)
    assert {frozenset(s.support) for s in sols} == {frozenset({0}), frozenset({1})}


def test_homogeneous_full_support_closed_form():
    for n, f, s_total in [(4, 1.0, 1.0), (4, 2.0, 1.0), (3, 0.7, 2.0)]:
        params = EconomyParams(nu=0.5, alpha=0.0, s_total=s_total)
        sols = solve_support_system(SpilloverMatrix(np.full((n, n), f)), params)
        assert len(sols) == 1
        sol = sols[0]
        assert sol.support == frozenset(range(n))
        np.testing.assert_allclose(sol.z_star, 1.0 / n, atol=1e-11)
        np.testing.assert_allclose(sol.shares_inf, 1.0 / n, atol=1e-11)
        assert sol.growth_rate == pytest.approx(
            n * f * (s_total / n) ** 0.5, rel=1e-9
        )


def test_homogeneity_law_doubling_f_doubles_growth():
    g1 = solve_support_system(SpilloverMatrix(np.full((4, 4), 1.0)), P0)[0].growth_rate
    g2 = solve_support_system(SpilloverMatrix(np.full((4, 4), 2.0)), P0)[0].growth_rate
    assert g2 == pytest.approx(2.0 * g1, rel=1e-9)


def test_separated_cycles_two_path_dependent_solutions():
    sols = solve_support_system(SpilloverMatrix(TWO_CYCLES_1V2), P0)
    supports = {frozenset(s.support) for s in sols}
    assert supports == {frozenset({0, 1}), frozenset({2, 3})}
    rates = {frozenset(s.support): s.growth_rate for s in sols}
    assert rates[frozenset({0, 1})] == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert rates[frozenset({2, 3})] == pytest.approx(2 * np.sqrt(0.5), rel=1e-9)


@pytest.mark.parametrize(
    "rows, params",
    [
        (CIRCULAR, P0),
        (FIG4, P0),
        (TWO_CYCLES_1V2, P0),
        (np.full((4, 4), 1.0), P0),
        ([[1, 1, 1, 1], [1, 1, 1, 1], [-1, 1, 1, 1], [1, 0, 1, 1]], P0),
    ],
)
def test_accepted_solutions_satisfy_support_equations(rows, params):
    f = np.array(rows, dtype=float)
    sols = solve_support_system(SpilloverMatrix(f), params)
    assert sols
    for sol in sols:
        assert sol.residual < 1e-9
        assert recomputed_residual(f, sol, params.nu) < 1e-9
        # z is zero exactly off support, positive on it, normalized
        on = sorted(sol.support)
        off = sorted(sol.stagnant)
        assert np.all(sol.z_star[on] > 0)
        assert np.all(sol.z_star[off] == 0)
        assert np.all(sol.shares_inf[off] == 0)
        assert sol.z_star.sum() == pytest.approx(1.0, abs=1e-9)


def test_eigen_consistency_growth_rate_two_routes():
    # route 1: the solver's eigenvalue; route 2: the defining relation
    # g = (s_i S)^nu (F z)_i / z_i, identical across the support
    for rows in (CIRCULAR, FIG4, TWO_CYCLES_1V2):
        f = np.array(rows, dtype=float)
        for sol in solve_support_system(SpilloverMatrix(f), P0):
            idx = sorted(sol.support)
            g_direct = (
                (sol.shares_inf[idx] * P0.s_total) ** P0.nu
                * (f @ sol.z_star)[idx]
                / sol.z_star[idx]
            )
            np.testing.assert_allclose(g_direct, sol.growth_rate, rtol=1e-9)


@pytest.mark.parametrize("nu", [0.8, 0.95])
def test_bipartite_two_cycle_matches_closed_form_at_high_nu(nu):
    # on F = [[0, a], [b, 0]] the rest point has z0 / z1 = (a/b)^(r/(r+1))
    # with r = 1/(1-nu); full Newton steps from the uniform point swing
    # between the two sides of this steep map instead of converging
    rng = np.random.default_rng(3)
    r = 1.0 / (1.0 - nu)
    for _ in range(20):
        a, b = rng.uniform(0.5, 2.0, 2)
        ratio = (a / b) ** (r / (r + 1.0))
        z = np.array([ratio, 1.0]) / (1.0 + ratio)
        g = float((z**nu * np.array([a * z[1], b * z[0]])).sum())
        params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
        (sol,) = solve_support_system(SpilloverMatrix([[0, a], [b, 0]]), params)
        np.testing.assert_allclose(sol.z_star, z, rtol=0, atol=1e-9)
        assert sol.growth_rate == pytest.approx(g, abs=1e-9)


def test_unstable_interior_mixtures_rejected():
    # equal twin cycles admit a symmetric interior fixed point, but any
    # imbalance between blocks grows, so only the pure blocks are returned
    f = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    sols = solve_support_system(SpilloverMatrix(f), P0)
    assert {frozenset(s.support) for s in sols} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }


def test_large_network_returns_its_core_closures():
    # 30 technologies: a 3-cycle, a 4-cycle and a self-spillover, each
    # feeding a chain, plus 17 isolated ones; no size limit applies, and
    # each core closure is a stable candidate of its own
    f = np.zeros((30, 30))

    def link(nodes, w, closed):
        for a, b in zip(nodes, nodes[1:]):
            f[b, a] = w
        if closed:
            f[nodes[0], nodes[-1]] = w

    link([0, 1, 2], 1.0, True)
    link([2, 3, 4], 0.5, False)
    link([5, 6, 7, 8], 2.0, True)
    link([8, 9], 1.0, False)
    f[10, 10] = 1.5
    link([10, 11, 12], 1.0, False)
    matrix = SpilloverMatrix(f)
    prediction = predict_regime(classify(matrix), matrix, P0)
    assert [c.support for c in prediction.candidates] == [
        {10, 11, 12},
        {0, 1, 2, 3, 4},
        {5, 6, 7, 8, 9},
    ]
    assert prediction.initial_condition_dependent
    for sol in prediction.candidates:
        assert sol.residual < 1e-9
        assert np.all(sol.z_star[sorted(sol.support)] > 0)


def test_cycle_without_stable_candidate_is_not_path_dependent():
    # the equal-growth point of a 7-cycle repels, so no candidate is
    # stable; that leaves the outcome open, it does not make it depend on
    # the start
    matrix = SpilloverMatrix(np.roll(np.eye(7), 1, axis=0))
    prediction = predict_regime(classify(matrix), matrix, P0)
    assert prediction.regime == "exponential"
    assert prediction.candidates == ()
    assert prediction.survivors is None
    assert not prediction.initial_condition_dependent


def test_large_n_core_reachability_pruning():
    # 13 technologies: two 3-cycles of different weight, each feeding one
    # downstream technology, plus five isolated ones; the only candidate
    # supports are the core closures
    n = 13
    f = np.zeros((n, n))
    for a, b, w in [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]:
        f[b, a] = w
    for a, b, w in [(3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0)]:
        f[b, a] = w
    f[6, 2] = 1.0  # downstream of the first cycle
    f[7, 5] = 1.0  # downstream of the second
    sols = solve_support_system(SpilloverMatrix(f), P0)
    assert {frozenset(s.support) for s in sols} == {
        frozenset({0, 1, 2, 6}),
        frozenset({3, 4, 5, 7}),
    }
    for sol in sols:
        assert sol.residual < 1e-9
        assert np.all(sol.z_star[sorted(sol.support)] > 0)


def brute_force_supports(f):
    """Every subset, smallest first, that is admissible as a support: each
    member has a positive inflow from inside, and no outsider receives a
    nonzero spillover from inside."""
    n = f.shape[0]
    found = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            inside = list(combo)
            outside = [i for i in range(n) if i not in combo]
            if not (f[np.ix_(inside, inside)] > 0).any(axis=1).all():
                continue
            if outside and (f[np.ix_(outside, inside)] != 0).any():
                continue
            found.append(frozenset(combo))
    return found


def random_structured_matrix(rng):
    n = int(rng.integers(1, 11))
    f = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
    if rng.random() < 0.5:
        # block structure: receive only from the same or a lower level, so
        # upstream cores feed downstream ones and reducible supports appear
        level = rng.integers(0, 3, n)
        f *= level[:, None] >= level[None, :]
        if rng.random() < 0.3:
            f *= level[:, None] == level[None, :]
    if rng.random() < 0.3:
        f *= np.where(rng.random((n, n)) < 0.15, -1.0, 1.0)
    return f


def equal_disjoint_blocks(rng):
    """Two or three copies of one strongly connected block: exact ties."""
    m = int(rng.integers(1, 4))
    block = rng.uniform(0.2, 1.0, (m, m)) * (rng.random((m, m)) < 0.7)
    block[np.arange(m), (np.arange(m) + 1) % m] += 0.5
    return np.kron(np.eye(int(rng.integers(2, 4))), block)


def self_loops_and_one_link(rng):
    """k isolated self-spillovers, one of which also feeds a technology."""
    k = int(rng.integers(2, 6))
    f = np.zeros((k + 1, k + 1))
    f[np.arange(k), np.arange(k)] = rng.uniform(1.0, 2.0, k)
    f[k, rng.integers(0, k)] = rng.uniform(0.2, 1.0)
    return f


def two_sources_feeding_a_core(rng):
    """Cores A and B (each a self-spillover or a 2-cycle) both feed core D."""
    blocks = []
    for _ in range(3):
        if rng.random() < 0.5:
            blocks.append(rng.uniform(0.5, 2.0, (1, 1)))
        else:
            a, b = rng.uniform(0.5, 2.0, 2)
            blocks.append(np.array([[0.0, a], [b, 0.0]]))
    start = np.cumsum([0] + [len(b) for b in blocks])
    f = np.zeros((start[-1], start[-1]))
    for block, lo in zip(blocks, start):
        f[lo : lo + len(block), lo : lo + len(block)] = block
    f[start[2], start[0]] = rng.uniform(0.1, 1.0)
    f[start[2], start[1]] = rng.uniform(0.1, 1.0)
    return f


# matrix families and draws per family, each from default_rng(7)
FAMILY_DRAWS = [
    (random_structured_matrix, 20),
    (equal_disjoint_blocks, 6),
    (self_loops_and_one_link, 6),
    (two_sources_feeding_a_core, 5),
]


@pytest.mark.parametrize("family, count", FAMILY_DRAWS)
def test_solver_matches_brute_force_subset_oracle(family, count, monkeypatch):
    # solving every admissible subset, unions of core closures included,
    # accepts exactly the supports and rates the solver finds among single
    # core closures
    from spillnet import longrun

    rng = np.random.default_rng(7)
    unions = several = 0
    for _ in range(count):
        f = family(rng)
        matrix = SpilloverMatrix(f)
        report = classify(matrix)
        if not (matrix.nonnegative or report.eventually_nonnegative[0]):
            continue
        subsets = brute_force_supports(f)
        unions += len(subsets) > len(longrun._candidate_supports(f, report))
        for nu in (0.05, 0.2, 0.5, 0.8, 0.95):
            params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
            got = longrun._solve_support_system(matrix, params, report)
            with monkeypatch.context() as patch:
                patch.setattr(longrun, "_candidate_supports", lambda f, r: subsets)
                expected = longrun._solve_support_system(matrix, params, report)
            assert [(s.support, s.growth_rate) for s in got] == [
                (s.support, s.growth_rate) for s in expected
            ]
            several += len(got) >= 2
    # the oracle must see unions, and solutions must compete
    assert unions >= 3 and several >= 5, (unions, several)


@pytest.mark.parametrize("family, count", FAMILY_DRAWS)
def test_solver_fixed_points_are_rest_points_of_the_integrator_field(family, count):
    # on its support at alpha = 0, each accepted z* stays put under the
    # field the integrator steps, and log-output grows at the solver's g
    from spillnet import dynamics, longrun

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(count):
        f = family(rng)
        matrix = SpilloverMatrix(f)
        report = classify(matrix)
        if not (matrix.nonnegative or report.eventually_nonnegative[0]):
            continue
        for nu in (0.05, 0.2, 0.5, 0.8, 0.95):
            params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
            for sol in longrun._solve_support_system(matrix, params, report):
                idx = sorted(sol.support)
                y = np.append(sol.z_star[idx], 0.0)
                ydot = dynamics._field(y, f[np.ix_(idx, idx)], nu, 0.0, 1.0)[0]
                g = sol.growth_rate
                assert np.abs(ydot[:-1]).max() <= 1e-10, (idx, nu)
                assert abs(ydot[-1] - g) <= 1e-10 * max(1.0, abs(g)), (idx, nu)
                checked += 1
    assert checked >= count


def test_candidate_closure_block_is_induced_closure():
    # no path leaves a candidate (a core closure), so the block of
    # the full closure over its members, which the solver reads strong
    # connectivity from, equals the closure of the induced subgraph
    from spillnet.longrun import _candidate_supports

    rng = np.random.default_rng(11)
    counts = {"signed": 0, "strong": 0, "not strong": 0}
    for _ in range(300):
        f = random_structured_matrix(rng)
        matrix = SpilloverMatrix(f)
        report = classify(matrix)
        if not (matrix.nonnegative or report.eventually_nonnegative[0]):
            continue
        for support in _candidate_supports(f, report):
            idx = sorted(support)
            block = report.closure[np.ix_(idx, idx)]
            np.testing.assert_array_equal(block, closure(f[np.ix_(idx, idx)] != 0))
            counts["signed"] += not matrix.nonnegative
            counts["strong" if block.all() else "not strong"] += 1
    assert counts["signed"] >= 10 and min(counts.values()) >= 10, counts


def test_candidate_supports_order_by_size_then_members_at_n16():
    from spillnet.longrun import _candidate_supports

    f = np.zeros((16, 16))
    f[0, 1] = f[1, 0] = 1.0  # core A feeds the chain 2..6
    for i in range(2, 7):
        f[i, i - 1] = 1.0
    f[10, 11] = f[11, 10] = 1.0  # core B
    f[13, 13] = 1.0  # core C, a self-spillover, feeds 14
    f[14, 13] = 1.0
    a, b, c = set(range(7)), {10, 11}, {13, 14}
    expected = [b, c, a]
    got = _candidate_supports(f, classify(SpilloverMatrix(f)))
    assert got == [frozenset(s) for s in expected]


def test_tiny_positive_fixed_point_accepted_on_irreducible_network():
    # converges to min z* ~ 2e-15: an absolute positivity floor rejected it
    # and left an irreducible network with zero candidates
    from spillnet import simulate, validate_model

    rng = np.random.default_rng(1)
    f = (rng.random((8, 8)) < 0.5) * rng.random((8, 8))
    matrix = SpilloverMatrix(f)
    assert classify(matrix).irreducible
    prediction = predict_regime(classify(matrix), matrix, P0)
    assert [c.support for c in prediction.candidates] == [frozenset(range(8))]
    assert not prediction.initial_condition_dependent
    g = prediction.candidates[0].growth_rate
    assert g == pytest.approx(0.787786, abs=1e-6)
    traj = simulate(validate_model(matrix, P0, QualityState(0.0, np.ones(8))), 60.0)
    assert traj.sector_growth[-1] == pytest.approx(g, abs=1e-8)


def test_not_eventually_nonnegative_rejected():
    rot = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
    with pytest.raises(PreconditionError):
        solve_support_system(SpilloverMatrix(rot), P0)


@pytest.mark.parametrize(
    "rows", [[[0, 1], [-1, 0]], [[1, 1], [-1, 1]]], ids=["quarter-turn", "identity-plus-turn"]
)
def test_periodically_negative_powers_rejected(rows):
    # some power is nonnegative (F^4 = I, and (I + R)^8 = 16 I), but three
    # in every four, or seven in every eight, have a negative entry
    with pytest.raises(PreconditionError):
        solve_support_system(SpilloverMatrix(rows), P0)


def _regime(rows, params=P0):
    m = SpilloverMatrix(np.array(rows, dtype=float))
    return predict_regime(classify(m), m, params)


def test_regime_oneway_polynomial():
    pred = _regime(ONEWAY)
    assert pred.regime == "polynomial"
    assert pred.reason == "one-way"
    assert not pred.candidates


def test_regime_circular_exponential():
    pred = _regime(CIRCULAR)
    assert pred.regime == "exponential"
    assert pred.survivors == frozenset(range(4))
    assert not pred.initial_condition_dependent


def test_regime_zero_matrix_stagnating():
    pred = _regime(np.zeros((4, 4)))
    assert pred.regime == "stagnating"
    assert pred.survivors == frozenset(range(4))


def test_regime_cycle_without_growth_is_not_one_way():
    # a cycle whose block has no positive dominant eigenvalue is not a
    # one-way structure; an acyclic one still is
    pred = _regime([[-1, 1], [1, -1]])
    assert pred.regime == "polynomial"
    assert pred.reason == "no-growing-cycle"
    assert not pred.candidates
    assert _regime([[0, 0, 0], [1, 0, 0], [0, -1, 0]]).reason == "one-way"


def test_regime_single_edge_linear():
    pred = _regime([[0, 0], [1, 0]])
    assert pred.regime == "linear"


def test_regime_path_dependent_marks_candidates():
    pred = _regime(TWO_CYCLES_1V2)
    assert pred.regime == "exponential"
    assert pred.initial_condition_dependent
    assert pred.survivors is None
    assert len(pred.candidates) == 2


def test_regime_spectrum_duality(rng):
    # exponential growth exactly when the matrix has spectral radius > 0,
    # which for nonnegative matrices means some cycle exists
    for _ in range(80):
        n = int(rng.integers(2, 6))
        f = rng.uniform(0, 2, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.35)
        pred = _regime(f)
        rho = np.abs(np.linalg.eigvals(f)).max()
        assert (pred.regime == "exponential") == (rho > 1e-12)


def test_exponential_branch_matches_per_core_rule(rng):
    # oracle: some core whose own diagonal block has a positive rightmost
    # eigenvalue, one dense eigensolve per core
    def draws():
        # a signed 2-cycle with roots +-i whose self-loop core still grows
        yield np.array([[1.0, 1.0], [-2.0, -1.0]])
        for k in range(300):
            n = int(rng.integers(1, 21))
            low = -1.0 if k % 2 else 0.0
            f = rng.uniform(low, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < rng.uniform(0.05, 0.4))
            yield np.round(2 * f) if k % 5 == 0 else f

    for f in draws():
        m = SpilloverMatrix(f)
        report = classify(m)
        grows = any(
            np.linalg.eigvals(f[np.ix_(c, c)]).real.max() > 0 for c in map(sorted, report.cores)
        )
        try:
            # only the exponential branch solves supports, and the solver
            # refuses signed matrices that are not eventually nonnegative
            exponential = predict_regime(report, m, P0).regime == "exponential"
        except PreconditionError:
            exponential = True
        assert exponential == grows, f


def test_block_winner_heavier_block():
    winner = block_winner(
        SpilloverMatrix(TWO_CYCLES_1V2), P0, QualityState(0.0, np.ones(4))
    )
    assert winner == frozenset({2, 3})


def test_block_winner_head_start():
    f = SpilloverMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    winner = block_winner(f, P0, QualityState(0.0, [1.1, 1, 1, 1]))
    assert winner == frozenset({0, 1})


def test_block_winner_single_block():
    f = SpilloverMatrix([[0, 1], [1, 0]])
    assert block_winner(f, P0, QualityState(0.0, [1, 1])) == frozenset({0, 1})


def test_block_winner_refuses_intra_spillovers():
    with pytest.raises(PreconditionError):
        block_winner(
            SpilloverMatrix(np.diag([1.0, 2.0])), P0, QualityState(0.0, [1, 1])
        )


@pytest.mark.filterwarnings("ignore::spillnet.InertTechnologyWarning")
def test_solver_agrees_with_simulation_on_random_structures(rng):
    # close the loop on random instances: wherever the solver finds a
    # unique surviving set, a long simulation must land on it
    # (random zero rows at alpha = 0 legitimately trigger inert warnings)
    from spillnet import detect_convergence, simulate, validate_model
    from spillnet.model import EconomyParams as EP
    from spillnet.model import QualityState as QS

    checked = 0
    attempts = 0
    while checked < 12 and attempts < 200:
        attempts += 1
        n = int(rng.integers(2, 6))
        f = rng.uniform(0.2, 2.0, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.45)
        m = SpilloverMatrix(f)
        sols = solve_support_system(m, P0)
        if len(sols) != 1 or sols[0].growth_rate < 0.3:
            continue
        sol = sols[0]
        q0 = rng.uniform(0.5, 1.5, n)
        model = validate_model(m, EP(nu=0.5, alpha=0.0, s_total=1.0), QS(0.0, q0))
        traj = simulate(model, 60.0, step=0.02)
        if not detect_convergence(traj, eps=1e-5, window=5.0).converged:
            continue
        checked += 1
        assert np.abs(traj.shares[-1] - sol.shares_inf).max() < 1e-3
        assert abs(traj.sector_growth[-1] - sol.growth_rate) < 1e-3 * sol.growth_rate
    assert checked >= 8  # the generator must actually exercise the check


def test_rest_point_jacobian_matches_central_differences(rng):
    # G and its Jacobian against central differences of G written out from
    # the formula: s = u^r / sum(u^r), v = (sS)^nu u, G = v / sum(v) - z
    from spillnet.longrun import _rest_point_terms

    def g_of(z, f, nu, s_total):
        u = f @ z
        s = u ** (1.0 / (1.0 - nu))
        s = s / s.sum()
        v = (s * s_total) ** nu * u
        return v / v.sum() - z

    h = 1e-6
    for _ in range(100):
        m = int(rng.integers(2, 13))
        f = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
        # an entry in every row keeps each productivity positive
        f[np.arange(m), rng.integers(0, m, m)] += 0.1
        z = rng.random(m) + 0.05
        z /= z.sum()
        nu = float(rng.choice([0.3, 0.5, 0.8, 0.95]))
        s_total = float(rng.uniform(0.5, 2.0))
        resid, jac, _, _ = _rest_point_terms(z, f, nu, s_total)
        np.testing.assert_allclose(resid, g_of(z, f, nu, s_total), rtol=0, atol=1e-14)
        differences = np.column_stack(
            [
                (g_of(z + h * e, f, nu, s_total) - g_of(z - h * e, f, nu, s_total)) / (2 * h)
                for e in np.eye(m)
            ]
        )
        scale = max(1.0, np.abs(differences).max())
        np.testing.assert_allclose(jac, differences, rtol=0, atol=1e-7 * scale)
        # G is unchanged when z is scaled, so z is an eigenvector for -1
        np.testing.assert_allclose(jac @ z, -z, rtol=0, atol=1e-14)


@pytest.mark.parametrize("nu", [0.8, 0.95])
def test_irreducible_core_at_high_nu_matches_simulation(nu):
    # an irreducible core whose dynamics settle at high nu, where sharp
    # share concentration makes the rest point hard to reach
    from spillnet import simulate, validate_model

    matrix = SpilloverMatrix([[0.319, 0.871, 0], [0, 0.374, 0.5], [1.409, 0, 0.493]])
    params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
    prediction = predict_regime(classify(matrix), matrix, params)
    assert [c.support for c in prediction.candidates] == [frozenset(range(3))]
    (sol,) = prediction.candidates
    traj = simulate(validate_model(matrix, params, QualityState(0.0, [1.0, 1.2, 0.9])), 200.0)
    np.testing.assert_allclose(sol.z_star, traj.z[-1], rtol=0, atol=1e-7)
    assert sol.growth_rate == pytest.approx(traj.sector_growth[-1], abs=1e-7)


def test_step_cap_logged_at_debug_only(caplog):
    # at nu = 0.99 the stall matrix's dynamics do not settle and the solve
    # runs out of steps
    matrix = SpilloverMatrix([[0.319, 0.871, 0], [0, 0.374, 0.5], [1.409, 0, 0.493]])
    params = EconomyParams(nu=0.99, alpha=0.0, s_total=1.0)
    with caplog.at_level(logging.INFO, logger="spillnet.longrun"):
        assert solve_support_system(matrix, params) == []
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="spillnet.longrun"):
        assert solve_support_system(matrix, params) == []
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert "[0, 1, 2]" in record.getMessage() and "residual" in record.getMessage()


@pytest.mark.parametrize("nu", [0.5, 0.95])
def test_scaled_matrix_keeps_its_rest_point(nu):
    # the rest point is scale-free in F and g is linear in it; raising the
    # unnormalised productivities to 1/(1-nu) overflowed at 1e16 and
    # underflowed at 1e-20
    f = np.array([[0.3, 1.2, 0], [0.5, 0.2, 0.9], [1.0, 0, 0.4]])
    params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
    (base,) = solve_support_system(SpilloverMatrix(f), params)
    for scale in (1.0, 1e16, 1e-20):
        (sol,) = solve_support_system(SpilloverMatrix(scale * f), params)
        assert sol.support == base.support == frozenset(range(3))
        assert sol.growth_rate == pytest.approx(scale * base.growth_rate, rel=1e-12)
        np.testing.assert_allclose(sol.z_star, base.z_star, rtol=0, atol=1e-12)
        assert np.isfinite(sol.residual) and sol.residual < 1e-9


@pytest.mark.parametrize(
    "rows, support, nu, verdict",
    [
        (STALL, {0, 1, 2}, 0.95, "stable"),
        # past the Hopf point near nu = 0.962 the rest point is a focus
        (STALL, {0, 1, 2}, 0.97, "unstable focus"),
        (STALL, {0, 1, 2}, 0.99, "not converged"),
        # the equal-growth point between two equal 2-cycles
        (TWO_EQUAL_CYCLES, {0, 1, 2, 3}, 0.2, "saddle"),
        (TWO_EQUAL_CYCLES, {0, 1, 2, 3}, 0.5, "saddle"),
        (TWO_EQUAL_CYCLES, {0, 1, 2, 3}, 0.8, "saddle"),
        (np.zeros((2, 2)), {0, 1}, 0.5, "non-positive"),
        # three equal self-loops: J is symmetric, so the uniform point is a
        # saddle whose rightmost eigenvalue is a double real one
        (np.eye(3), {0, 1, 2}, 0.5, "saddle"),
    ],
)
def test_rest_point_verdicts(rows, support, nu, verdict):
    from spillnet.longrun import _solve_on_support

    point = _solve_on_support(np.array(rows, dtype=float), support, nu, 1.0)
    assert point.members == sorted(support)
    assert point.verdict == verdict
    if verdict in ("stable", "saddle", "unstable focus"):
        assert point.residual < 1e-12
    if verdict == "saddle":
        np.testing.assert_array_equal(point.z, np.full(len(support), 1 / len(support)))
    if verdict == "unstable focus":
        assert point.growth == pytest.approx(0.406386, abs=1e-6)
