"""Graph-theoretic classification of a spillover matrix.

The adjacency matrix keeps the strict positive-edge definition
(a_ij = 1 iff F_ij > 0).  When negative entries are present they still
transmit influence, so reachability (closure, components, cores) is
computed over nonzero entries and the negative positions are reported
separately; the named structure classes are only granted when the matrix
is nonnegative or eventually nonnegative.

`classify` takes one closure per matrix.  SCCs, cores and weak
components are read off it, and so is the spectrum: F is
block-triangular over its SCCs, so its eigenvalues are the diagonal
entries of the singletons and those of each larger diagonal block, one
dense eigensolve per block.  Eventual nonnegativity powers only the
columns from which a walk can reach a negative edge, over a finite
window of powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SpilloverMatrix


@dataclass(frozen=True)
class StructureReport:
    adjacency: np.ndarray
    closure: np.ndarray
    classes: frozenset[str]
    cores: tuple[frozenset[int], ...]
    irreducible: bool
    weak_components: tuple[frozenset[int], ...]
    eventually_nonnegative: tuple[bool, int | None]
    dominant_eigenvalue: float
    spectrum: tuple[complex, ...]  # all n eigenvalues, by descending (real, imag)
    negative_edges: tuple[tuple[int, int], ...]
    self_loops: tuple[int, ...]


def adjacency(matrix: SpilloverMatrix) -> np.ndarray:
    """Boolean matrix with a_ij = 1 iff technology i receives a positive
    spillover from technology j."""
    return matrix.entries > 0


def closure(a: np.ndarray) -> np.ndarray:
    """Reachability closure by Warshall's algorithm (Warshall 1962).

    Entry (i, j) is true iff a directed path of length >= 1 leads from j
    to i (following the receiver-row edge convention of `adjacency`); the
    diagonal is true exactly on nodes that lie on a cycle.  Round k joins
    row k (what reaches k) into the rows of the nodes k reaches and
    touches no other row, so on sparse graphs a round costs |rows| * n
    rather than n^2.
    """
    a = np.asarray(a, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"closure needs a square boolean matrix, got {a.shape}")
    reach = a.copy()
    for k in range(a.shape[0]):
        rows = reach[:, k].nonzero()[0]
        reach[rows] |= reach[k]
    return reach


def strongly_connected_components(reach: np.ndarray) -> list[frozenset[int]]:
    """SCCs from a reachability closure: i and j are equivalent iff each
    reaches the other (or i == j).  Row i of the mutual reachability
    matrix is the component of i, so the distinct rows are the components;
    each is taken once, at the row of its smallest member, which also
    orders them.  A row with one true entry is a singleton, built without
    scanning the row."""
    mutual = reach & reach.T
    np.fill_diagonal(mutual, True)
    sizes = mutual.sum(axis=1)
    firsts = np.flatnonzero(mutual.argmax(axis=1) == np.arange(len(mutual)))
    return [
        frozenset((i,)) if sizes[i] == 1 else frozenset(np.flatnonzero(mutual[i]).tolist())
        for i in firsts.tolist()
    ]


def weak_components(reach: np.ndarray) -> list[frozenset[int]]:
    """Connected components of the closure with edge direction ignored,
    ordered by smallest member.

    Each component is grown from its smallest unseen node by a frontier
    over the symmetrised closure, so every node's row is read once.
    """
    linked = reach | reach.T
    seen = np.zeros(len(linked), dtype=bool)
    components = []
    while not seen.all():
        member = np.zeros_like(seen)
        member[seen.argmin()] = True
        frontier = member
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~member
            member |= frontier
        seen |= member
        components.append(frozenset(np.flatnonzero(member).tolist()))
    return components


def is_eventually_nonnegative(
    matrix: SpilloverMatrix, k_max: int = 50, tol: float = 1e-9
) -> tuple[bool, int | None]:
    """(True, k0) when every power F^k with k0 <= k <= k_max is >= -tol
    elementwise, k0 as small as possible; (False, None) when F^k_max has
    an entry below -tol.

    This checks a finite window of powers, not a proof that every power
    beyond k_max stays nonnegative.  A power that is exactly 0 ends the
    scan early, since every later power is 0 too.

    Entry (i, j) of F^k is a sum over walks of length k from j to i, so it
    can be negative only if such a walk uses a negative edge: j is the
    tail of a negative edge or reaches one (sign-pattern reasoning after
    Noutsos 2006).  Only those columns C are powered, as F^k[:, C] =
    F @ F^(k-1)[:, C]; every other column of F^k is a sum of nonnegative
    products.  The powered columns are rescaled to unit max-norm after each
    multiplication, which keeps their signs and prevents overflow; `tol`
    therefore applies relative to the max-norm of F^k[:, C], the entries
    whose round-off comes from walks that end in C, not of the whole power.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    f = matrix.entries
    nonzero = f != 0
    cols = (f < 0).any(axis=0)
    frontier = cols
    while frontier.any():
        frontier = nonzero[frontier].any(axis=0) & ~cols
        cols |= frontier
    if not cols.any():
        return True, 1
    power = f[:, cols]
    start = None
    for k in range(1, k_max + 1):
        scale = np.abs(power).max()
        if scale == 0:
            return True, start or k
        power = power / scale
        start = (start or k) if power.min() >= -tol else None
        power = f @ power
    return start is not None, start


def dominant_eigenvalue_power(
    matrix: SpilloverMatrix, tol: float = 1e-14, max_iter: int = 100_000
) -> float:
    """Rightmost eigenvalue estimate by power iteration on F + sigma*I,
    with sigma the maximum absolute row sum (keeps the shifted matrix
    nonnegative whenever F is, making its Perron root the target)."""
    f = matrix.entries
    sigma = float(np.abs(f).sum(axis=1).max())
    if sigma == 0.0:
        return 0.0
    b = f + sigma * np.eye(matrix.n)
    v = np.full(matrix.n, 1.0 / np.sqrt(matrix.n))
    lam = 0.0
    for _ in range(max_iter):
        w = b @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return -sigma
        v_new = w / norm
        lam_new = float(v_new @ (b @ v_new))
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            return lam_new - sigma
        v, lam = v_new, lam_new
    return lam - sigma


def _classes(
    matrix: SpilloverMatrix,
    reach: np.ndarray,
    weak: list[frozenset[int]],
    cores: list[frozenset[int]],
) -> frozenset[str]:
    f = matrix.entries
    n = matrix.n
    labels: set[str] = set()
    offdiag = ~np.eye(n, dtype=bool)
    if not np.any(reach & offdiag):
        labels.add("independent")
    if not cores:
        # acyclic including self-loops: permutation-triangularizable with
        # zero diagonal
        labels.add("one-way")
    if len(weak) >= 2:
        labels.add(f"separated({len(weak)})")
    if reach.all():
        labels.add("strongly-connected")
    first = f.flat[0]
    if first > 0 and np.all(f == first):
        labels.add("homogeneous")
    if not labels:
        labels.add("general")
    return frozenset(labels)


def classify(matrix: SpilloverMatrix) -> StructureReport:
    """Full structural report: adjacency, closure, Definition-style class
    labels, cores (cycles that can power exponential growth), reducibility,
    eventual nonnegativity, and spectrum."""
    f = matrix.entries
    n = matrix.n
    adj = adjacency(matrix)
    negative = tuple(
        (int(i), int(j)) for i, j in np.argwhere(f < 0)
    )
    influence = (f != 0) if negative else adj
    reach = closure(influence)
    weak = weak_components(reach)

    self_loops = tuple(int(i) for i in range(n) if f[i, i] > 0)
    sccs = strongly_connected_components(reach)
    cores = [c for c in sccs if len(c) >= 2]
    cores += [frozenset({i}) for i in self_loops]

    if matrix.nonnegative:
        evnn: tuple[bool, int | None] = (True, 1)
    else:
        evnn = is_eventually_nonnegative(matrix)

    if matrix.nonnegative or evnn[0]:
        classes = _classes(matrix, reach, weak, cores)
    else:
        # named spillover-structure labels only apply to (eventually)
        # nonnegative matrices
        classes = frozenset({"general"})

    # F is block-triangular over its SCCs, so its spectrum is the union
    # of the spectra of its diagonal blocks F[b, b]
    singles = [i for c in sccs if len(c) == 1 for i in c]
    blocks = [sorted(c) for c in sccs if len(c) >= 2]
    eigs = np.concatenate(
        [f.diagonal()[singles]] + [np.linalg.eigvals(f[np.ix_(m, m)]) for m in blocks]
    )
    eigs = np.sort_complex(eigs)[::-1]

    return StructureReport(
        adjacency=adj,
        closure=reach,
        classes=classes,
        cores=tuple(cores),
        irreducible=bool(reach.all()),
        weak_components=tuple(weak),
        eventually_nonnegative=evnn,
        dominant_eigenvalue=float(eigs.real.max()),
        spectrum=tuple(eigs.tolist()),
        negative_edges=negative,
        self_loops=self_loops,
    )
