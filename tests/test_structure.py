import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spillnet import (
    SpilloverMatrix,
    adjacency,
    classify,
    closure,
    dominant_eigenvalue_power,
    is_eventually_nonnegative,
    strongly_connected_components,
    structure,
    weak_components,
)

ONEWAY = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]], float)
CIRCULAR = np.array([[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]], float)
SEC4 = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [-1, 1, 1, 1], [1, 0, 1, 1]], float)


def brute_force_reachability(a):
    """Independent oracle: DFS path enumeration, edge j -> i iff a[i, j]."""
    a = np.asarray(a, dtype=bool)
    n = a.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for start in range(n):
        stack = [int(i) for i in np.flatnonzero(a[:, start])]
        visited = set()
        while stack:
            i = stack.pop()
            if i in visited:
                continue
            visited.add(i)
            stack.extend(int(k) for k in np.flatnonzero(a[:, i]))
        for i in visited:
            out[i, start] = True
    return out


def test_adjacency_examples():
    assert not adjacency(SpilloverMatrix(np.zeros((3, 3)))).any()
    a = adjacency(SpilloverMatrix(ONEWAY))
    np.testing.assert_array_equal(a, ONEWAY.astype(bool))
    assert a.sum() == 5
    assert adjacency(SpilloverMatrix(np.full((4, 4), 2.0))).all()


def test_closure_oneway_is_nilpotent_reachability():
    c = closure(adjacency(SpilloverMatrix(ONEWAY)))
    np.testing.assert_array_equal(c, brute_force_reachability(ONEWAY > 0))
    assert not np.diag(c).any()  # acyclic: nothing reaches itself


def test_closure_circular_all_reachable():
    # with the (1,4) entry the digraph is one big cycle: every technology
    # reaches every other, including itself (path enumeration confirms)
    c = closure(adjacency(SpilloverMatrix(CIRCULAR)))
    np.testing.assert_array_equal(c, brute_force_reachability(CIRCULAR > 0))
    assert c.all()


def test_closure_block_diagonal_stays_block_diagonal():
    a = np.zeros((4, 4), dtype=bool)
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = True
    c = closure(a)
    assert not c[:2, 2:].any() and not c[2:, :2].any()
    assert c[:2, :2].all() and c[2:, 2:].all()


@given(
    st.integers(1, 12).flatmap(
        lambda n: arrays(np.bool_, (n, n), elements=st.booleans())
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_closure_idempotent_and_matches_brute_force(a):
    c = closure(a)
    np.testing.assert_array_equal(closure(c), c)
    np.testing.assert_array_equal(c, brute_force_reachability(a))


def test_classify_oneway():
    r = classify(SpilloverMatrix(ONEWAY))
    assert r.classes == {"one-way"}
    assert r.cores == ()
    assert not r.irreducible
    assert max(abs(e) for e in r.spectrum) < 1e-9
    assert abs(r.dominant_eigenvalue) < 1e-9
    assert not closure(adjacency(SpilloverMatrix(ONEWAY))).diagonal().any()


def test_classify_circular():
    r = classify(SpilloverMatrix(CIRCULAR))
    assert r.dominant_eigenvalue > 0
    assert r.irreducible
    assert "strongly-connected" in r.classes
    # the whole technology set lies on a cycle, so the core is all of it
    assert frozenset(range(4)) in r.cores
    assert closure(adjacency(SpilloverMatrix(CIRCULAR))).diagonal().any()


def test_classify_independent_and_homogeneous():
    r = classify(SpilloverMatrix(np.diag([1.0, 2.0, 3.0])))
    assert "independent" in r.classes
    assert "separated(3)" in r.classes
    assert r.cores == (frozenset({0}), frozenset({1}), frozenset({2}))

    r = classify(SpilloverMatrix(np.full((4, 4), 0.5)))
    assert "homogeneous" in r.classes
    assert "strongly-connected" in r.classes


def test_classify_zero_matrix():
    r = classify(SpilloverMatrix(np.zeros((3, 3))))
    assert "independent" in r.classes
    assert r.cores == ()
    assert r.dominant_eigenvalue == 0.0


def test_two_cycle_closed_form_dominant_eigenvalue():
    # a pure two-cycle has dominant eigenvalue sqrt(F_ij * F_ji)
    r = classify(SpilloverMatrix([[0.0, 2.0], [8.0, 0.0]]))
    assert r.dominant_eigenvalue == pytest.approx(4.0, abs=1e-10)


def test_sec4_matrix_classification():
    r = classify(SpilloverMatrix(SEC4))
    assert r.eventually_nonnegative == (True, 2)
    assert r.negative_edges == ((2, 0),)
    assert "strongly-connected" in r.classes  # granted via the extension


def test_separated_label_counts_blocks():
    two_cycles = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    r = classify(SpilloverMatrix(two_cycles))
    assert "separated(2)" in r.classes
    assert set(r.weak_components) == {frozenset({0, 1}), frozenset({2, 3})}


def test_negative_entries_still_carry_influence_reachability():
    # the only edge is negative: it appears in the reachability closure
    # (influence) but not in the positive adjacency
    f = SpilloverMatrix([[0.0, 0.0], [-1.0, 0.0]])
    r = classify(f)
    assert not adjacency(f).any()
    assert r.closure[1, 0] and r.closure.sum() == 1
    assert r.negative_edges == ((1, 0),)
    assert r.eventually_nonnegative == (True, 2)  # square is the zero matrix
    assert "one-way" in r.classes


def test_negative_not_eventually_nonnegative_refuses_labels():
    theta = 1.0  # rotation by 1 radian: no integer power is nonnegative
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    r = classify(SpilloverMatrix(rot))
    assert not r.eventually_nonnegative[0]
    assert r.classes == {"general"}


def test_eventually_nonnegative_examples():
    assert is_eventually_nonnegative(SpilloverMatrix(SEC4)) == (True, 2)
    assert is_eventually_nonnegative(SpilloverMatrix(np.eye(3))) == (True, 1)
    # nilpotent: the square is the zero matrix, which is nonnegative
    assert is_eventually_nonnegative(SpilloverMatrix([[0.0, -1.0], [0.0, 0.0]])) == (
        True,
        2,
    )


def test_rotation_matrix_never_nonnegative_brute_force():
    theta = 1.0
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    # oracle: direct unscaled power scan
    power = rot.copy()
    for _ in range(50):
        assert power.min() < -1e-6
        power = power @ rot
    assert is_eventually_nonnegative(SpilloverMatrix(rot), k_max=50) == (False, None)


def test_eventually_nonnegative_rescaling_survives_large_entries():
    f = SEC4 * 1e150  # naive unscaled powers overflow immediately
    flag, k = is_eventually_nonnegative(SpilloverMatrix(f))
    assert (flag, k) == (True, 2)


def test_oneway_iff_no_cores(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.3)
        r = classify(SpilloverMatrix(f))
        acyclic = not closure(adjacency(SpilloverMatrix(f))).diagonal().any()
        assert ("one-way" in r.classes) == acyclic == (not r.cores)


def test_perron_frobenius_on_random_nonnegative(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        f = rng.uniform(0, 2, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
        r = classify(SpilloverMatrix(f))
        eigs = np.linalg.eigvals(f)
        # dominant eigenvalue of a nonnegative matrix is its spectral
        # radius: real, nonnegative, equal to the max real part
        assert r.dominant_eigenvalue >= -1e-12
        assert r.dominant_eigenvalue == pytest.approx(
            np.abs(eigs).max(), abs=1e-9
        )
        if r.irreducible and n >= 2:
            assert r.dominant_eigenvalue > 0


def test_power_iteration_agrees_with_dense_solver(rng):
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 9))
        f = rng.uniform(0, 2, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.6)
        eigs = np.linalg.eigvals(f)
        order = np.argsort(eigs.real)
        if eigs[order[-1]].real - eigs[order[-2]].real <= 1e-6:
            continue  # agreement is only guaranteed with a spectral gap
        checked += 1
        dense = eigs.real.max()
        power = dominant_eigenvalue_power(SpilloverMatrix(f))
        assert abs(power - dense) < 1e-8


def test_classification_consistency(rng):
    for _ in range(150):
        n = int(rng.integers(2, 7))
        f = rng.uniform(0, 2, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.4)
        r = classify(SpilloverMatrix(f))
        if "strongly-connected" in r.classes:
            assert r.irreducible
        if "homogeneous" in r.classes:
            assert "strongly-connected" in r.classes
        if "independent" in r.classes and n >= 2:
            assert f"separated({n})" in r.classes or not f.any()
            assert "strongly-connected" not in r.classes
        if r.irreducible and n >= 2:
            assert frozenset(range(n)) in r.cores


def assert_spectrum_matches(r, eigs, **tol):
    """The report lists all n eigenvalues, rightmost first, and their real
    and imaginary parts agree with those of `eigs`."""
    assert len(r.spectrum) == len(eigs)
    assert list(r.spectrum) == sorted(r.spectrum, key=lambda e: (e.real, e.imag), reverse=True)
    spectrum = np.array(r.spectrum)
    assert np.sort(spectrum.real) == pytest.approx(np.sort(eigs.real), **tol)
    assert np.sort(spectrum.imag) == pytest.approx(np.sort(eigs.imag), **tol)


def test_large_matrix_spectrum_marker(rng):
    f = rng.uniform(0, 1, (17, 17))
    r = classify(SpilloverMatrix(f))
    assert_spectrum_matches(r, np.linalg.eigvals(f), abs=1e-8)
    assert r.dominant_eigenvalue == pytest.approx(
        np.linalg.eigvals(f).real.max(), abs=1e-8
    )


def test_large_nilpotent_dominant_eigenvalue_is_exactly_zero(rng):
    # strictly lower triangular: every SCC is a 1x1 zero block
    f = np.tril(rng.uniform(0.2, 1.0, (20, 20)), k=-1)
    r = classify(SpilloverMatrix(f))
    assert r.spectrum == (0j,) * 20
    assert "one-way" in r.classes
    assert r.dominant_eigenvalue == 0.0


def test_large_reducible_dominant_eigenvalue_matches_dense(rng):
    # two source cores with Perron roots 1e-4 apart feed a one-way chain;
    # power iteration on the whole matrix cannot separate the two roots
    n = 20
    core = rng.uniform(0.3, 1.0, (3, 3))
    f = np.zeros((n, n))
    f[:3, :3] = core
    f[3:6, 3:6] = core * (1.0 + 1e-4)
    f[6, [0, 3]] = 1.0
    f[7:, 6:-1] += np.diag(rng.uniform(0.3, 1.0, n - 7))
    r = classify(SpilloverMatrix(f))
    assert_spectrum_matches(r, np.linalg.eigvals(f), abs=1e-8)
    assert {frozenset({0, 1, 2}), frozenset({3, 4, 5})} <= set(r.cores)
    assert "one-way" not in r.classes and not r.irreducible
    assert r.dominant_eigenvalue == pytest.approx(
        np.linalg.eigvals(f).real.max(), abs=1e-8
    )


def union_find_weak_components(a):
    """Independent oracle: union-find over the edges of `a` with direction
    ignored, components listed by smallest member."""
    a = np.asarray(a, dtype=bool)
    parent = list(range(a.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in np.argwhere(a):
        parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(a.shape[0]):
        groups.setdefault(find(i), set()).add(i)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def sparse_graph(n, rng):
    """About one to three random edges per node."""
    return rng.uniform(0, 1, (n, n)) < rng.uniform(1, 3) / n


def layered_graph(n, rng):
    """Edges from each level to the next, a few back edges closing long
    cycles, and a few self-loops, under shuffled labels."""
    levels = np.array_split(np.arange(n), int(rng.integers(3, 9)))
    a = np.zeros((n, n), dtype=bool)
    for prev, level in zip(levels, levels[1:]):
        for v in level:
            a[v, rng.choice(prev, size=int(rng.integers(1, 3)))] = True
    back = rng.integers(0, n, (int(rng.integers(0, 3)), 2))
    a[back[:, 0], back[:, 1]] = True
    loops = rng.integers(0, n, 3)
    a[loops, loops] = True
    label = rng.permutation(n)
    return a[np.ix_(label, label)]


def zigzag_graph(n, rng):
    """A path whose edges alternate direction (0 -> 1 <- 2 -> 3 ...),
    under shuffled labels, optionally cut into two pieces."""
    a = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        if i % 2 == 0:
            a[i + 1, i] = True
        else:
            a[i, i + 1] = True
    if rng.random() < 0.5:
        cut = int(rng.integers(1, n - 1))
        a[cut, cut + 1] = a[cut + 1, cut] = False
    label = rng.permutation(n)
    return a[np.ix_(label, label)]


def directed_path_graph(n, rng):
    """One long directed path under shuffled labels: every round of the
    closure has to carry reachability one node further."""
    a = np.zeros((n, n), dtype=bool)
    a[np.arange(1, n), np.arange(n - 1)] = True
    label = rng.permutation(n)
    return a[np.ix_(label, label)]


GRAPHS = [sparse_graph, layered_graph, zigzag_graph, directed_path_graph]
SIZES = [13, 17, 24, 33, 48, 64, 96]


@pytest.mark.parametrize("make", GRAPHS, ids=lambda g: g.__name__)
def test_closure_matches_brute_force_beyond_n12(make, rng):
    for n in SIZES:
        a = make(n, rng)
        np.testing.assert_array_equal(closure(a), brute_force_reachability(a))


@pytest.mark.parametrize("make", GRAPHS, ids=lambda g: g.__name__)
def test_weak_components_match_union_find_in_order(make, rng):
    for n in SIZES:
        a = make(n, rng)
        assert weak_components(closure(a)) == union_find_weak_components(a)


def block_triangular(blocks, rng):
    """Matrix whose SCCs are exactly the given dense diagonal blocks:
    random edges run only from earlier blocks into later ones, and the
    labels are shuffled."""
    n = sum(len(b) for b in blocks)
    f = np.zeros((n, n))
    start = 0
    for b in blocks:
        m = len(b)
        f[start : start + m, start : start + m] = b
        feed = rng.uniform(0, 1, (m, start)) < 0.2
        f[start : start + m, :start] = rng.uniform(-1, 1, (m, start)) * feed
        start += m
    label = rng.permutation(n)
    return f[np.ix_(label, label)]


def spectrum_mix(rng):
    """Singletons with positive, zero and negative diagonal entries, dense
    blocks of 2..16 nodes (signed or nonnegative), and one nonnegative
    block of 17..20 nodes; each kind wins the rightmost eigenvalue in
    some draws."""
    blocks = [np.array([[d]]) for d in (rng.uniform(0, 3), 0.0, -rng.uniform(0, 3))]
    for _ in range(3):
        m = int(rng.integers(2, 17))
        if rng.random() < 0.5:
            blocks.append(rng.uniform(-1, 1, (m, m)))
        else:
            scale = rng.uniform(0.5, 2) / np.sqrt(m)
            blocks.append(rng.uniform(0, 1, (m, m)) * scale)
    m = int(rng.integers(17, 21))
    blocks.append(rng.uniform(0.1, 1, (m, m)) * rng.uniform(0.05, 0.4))
    order = rng.permutation(len(blocks))
    return [blocks[i] for i in order]


def refuse_power_iteration(monkeypatch):
    # classify takes every SCC block of two or more nodes to a dense
    # eigensolve; power iteration on F + sigma*I can settle on the wrong
    # eigenvalue of a signed block and stall on a long weighted cycle
    def refuse(matrix, *args, **kwargs):
        raise AssertionError(f"power iteration on a {matrix.n}-node block")

    monkeypatch.setattr(structure, "dominant_eigenvalue_power", refuse)


def test_large_spectrum_matches_dense_on_block_mixes(rng, monkeypatch):
    refuse_power_iteration(monkeypatch)
    for _ in range(40):
        blocks = spectrum_mix(rng)
        f = block_triangular(blocks, rng)
        r = classify(SpilloverMatrix(f))
        # the generator's own blocks: a dense solve of the whole non-normal
        # matrix is itself off by up to 1e-11 on interior eigenvalues
        blockwise = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        assert_spectrum_matches(r, blockwise, rel=1e-9, abs=1e-12)
        assert_spectrum_matches(r, np.linalg.eigvals(f), abs=1e-9)
        sccs = strongly_connected_components(r.closure)
        assert sorted(map(len, sccs)) == sorted(len(b) for b in blocks)
        dense = np.linalg.eigvals(f).real.max()
        assert r.dominant_eigenvalue == pytest.approx(dense, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", range(17, 25))
def test_signed_large_block_dominant_eigenvalue_matches_dense(n, monkeypatch):
    # power iteration lands on 1.225 instead of 1.796 here for n = 17,
    # seed 12, after running to max_iter
    refuse_power_iteration(monkeypatch)
    for seed in range(20):
        f = np.random.default_rng(seed).uniform(-1, 1, (n, n))
        r = classify(SpilloverMatrix(f))
        assert r.dominant_eigenvalue == pytest.approx(
            np.linalg.eigvals(f).real.max(), rel=1e-9
        )


@pytest.mark.parametrize("n", [100, 200])
def test_long_weighted_cycle_dominant_eigenvalue_is_geometric_mean(n, monkeypatch):
    # every eigenvalue of a weighted n-cycle has the same modulus, so power
    # iteration on F + sigma*I has almost no spectral gap to converge on
    refuse_power_iteration(monkeypatch)
    w = np.random.default_rng(0).uniform(0.5, 1.5, n)
    f = np.zeros((n, n))
    f[(np.arange(n) + 1) % n, np.arange(n)] = w
    r = classify(SpilloverMatrix(f))
    assert r.irreducible
    assert r.dominant_eigenvalue == pytest.approx(
        np.exp(np.log(w).mean()), rel=1e-12
    )


def power_window_oracle(f, k_max=50, tol=1e-9):
    """Independent oracle for is_eventually_nonnegative: every whole power
    F^k from np.linalg.matrix_power, judged on its own max-norm.  Returns
    the start of the final unbroken run of powers >= -tol up to k_max
    (None when F^k_max is not in one) and whether any power's min/scale
    lies within a decade of -tol, where the package's column-restricted
    scale may judge it the other way."""
    start, near = None, False
    for k in range(1, k_max + 1):
        power = np.linalg.matrix_power(f, k)
        scale = np.abs(power).max()
        ratio = power.min() / scale if scale > 0 else 0.0
        near |= tol / 10 <= -ratio <= 10 * tol
        start = (start or k) if ratio >= -tol else None
    return start, near


def signed_draws(rng, count):
    """Random signed matrices with n <= 8: sparse mostly-positive ones with
    a few negative entries, fully signed ones, and reducible
    block-triangular ones where a nonnegative block feeds a signed block
    or a signed block feeds a nonnegative one."""
    for k in range(count):
        kind = k % 4
        n = int(rng.integers(1 if kind < 2 else 3, 9))
        if kind == 0:
            f = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.6)
            f[rng.uniform(0, 1, (n, n)) < 0.15] *= -rng.uniform(0.01, 1)
        elif kind == 1:
            f = rng.uniform(-1, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
        else:
            m = int(rng.integers(1, n - 1))
            positive = rng.uniform(0, 2, (m, m)) * (rng.uniform(0, 1, (m, m)) < 0.7)
            signed = rng.uniform(0, 1, (n - m, n - m)) * (
                rng.uniform(0, 1, (n - m, n - m)) < 0.7
            )
            signed[0, -1] = -rng.uniform(0.01, 1)
            signed *= rng.uniform(0.5, 4)
            blocks = [positive, signed] if kind == 2 else [signed, positive]
            f = np.zeros((n, n))
            start = 0
            for b in blocks:
                size = len(b)
                f[start : start + size, start : start + size] = b
                feed = rng.uniform(0, 1, (size, start)) < 0.4
                f[start : start + size, :start] = rng.uniform(0, 1, (size, start)) * feed
                start += size
            label = rng.permutation(n)
            f = f[np.ix_(label, label)]
        yield f


def test_eventually_nonnegative_matches_whole_power_oracle(rng):
    fixed = [
        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1.0, 2.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[1.0, 1.0], [-1.0, 1.0]]),
        np.array([[0.0, -1.0], [0.0, 0.0]]),
        SEC4,
    ]
    draws = [*fixed, *signed_draws(rng, 200)]
    outcomes = []
    for f in draws:
        start, near = power_window_oracle(f)
        if near:
            # a negative part that decays against a growing one crosses the
            # tolerance; where it does, the whole power's scale and that of
            # its restricted columns can disagree by a power or two
            continue
        got = is_eventually_nonnegative(SpilloverMatrix(f))
        assert got == (start is not None, start), f
        outcomes.append(got)
    assert len(draws) - len(outcomes) < 0.1 * len(draws)
    # the draws exercise both answers and witnesses beyond the first power
    assert {flag for flag, _ in outcomes} == {True, False}
    assert sum(k is not None and k > 1 for _, k in outcomes) >= 10


def test_classify_at_scale_with_signed_chain(rng, monkeypatch):
    # a weighted layered digraph beside a 12-node chain entered through one
    # negative spillover: column-restricted powers see only the chain's
    # head, whose walk leaves the chain after 11 steps
    refuse_power_iteration(monkeypatch)
    m, tail = 288, 12
    f = np.zeros((m + tail, m + tail))
    f[:m, :m] = layered_graph(m, rng) * rng.uniform(0.1, 1.0, (m, m))
    chain = np.arange(m, m + tail)
    f[chain[1], chain[0]] = -1.0
    f[chain[2:], chain[1:-1]] = 1.0
    label = rng.permutation(m + tail)
    f = f[np.ix_(label, label)]

    r = classify(SpilloverMatrix(f))
    reach = brute_force_reachability(f != 0)
    np.testing.assert_array_equal(r.closure, reach)
    mutual = (reach & reach.T) | np.eye(len(f), dtype=bool)
    sccs = {frozenset(np.flatnonzero(row).tolist()) for row in mutual}
    found = strongly_connected_components(r.closure)
    assert set(found) == sccs and [min(c) for c in found] == sorted(map(min, sccs))
    loops = {frozenset({int(i)}) for i in np.flatnonzero(f.diagonal() > 0)}
    assert set(r.cores) == {c for c in sccs if len(c) >= 2} | loops
    assert r.dominant_eigenvalue == pytest.approx(
        np.linalg.eigvals(f).real.max(), rel=1e-9, abs=1e-12
    )
    assert r.eventually_nonnegative == (True, 12)


@pytest.mark.parametrize("diagonal", ["zero", "negative"])
def test_all_singleton_dag_dominant_is_max_diagonal(diagonal, rng):
    n = 96
    f = np.tril(rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.05), k=-1)
    if diagonal == "negative":
        np.fill_diagonal(f, -rng.uniform(0.1, 3.0, n))
    label = rng.permutation(n)
    f = f[np.ix_(label, label)]
    r = classify(SpilloverMatrix(f))
    assert r.cores == ()
    assert strongly_connected_components(r.closure) == [frozenset({i}) for i in range(n)]
    # a triangular matrix's eigenvalues are its diagonal entries
    assert r.spectrum == tuple(complex(d) for d in np.sort(f.diagonal())[::-1])
    assert r.dominant_eigenvalue == f.diagonal().max()
