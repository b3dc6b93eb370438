"""Long-run analysis: surviving technology sets, growth regimes, block
competition, and constructed technology transitions.

A set of technologies can sustain common exponential growth only when the
relative qualities z (normalized to sum 1 on the candidate support) solve

    z_j (F_i z)^(1/(1-nu)) = z_i (F_j z)^(1/(1-nu))   for all i, j in the support

with z strictly positive on the support and zero off it.  The autonomous
term alpha is dropped here: along any growing path alpha / q vanishes, so
the fixed point is alpha-free; alpha only affects transient selection,
which simulation resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import _research_rates, shares_from_productivities
from .dynamics import Trajectory, _rates, simulate
from .model import (
    EconomyParams,
    Model,
    PreconditionError,
    QualityState,
    SpilloverMatrix,
    TransitionSearchExhaustedError,
    validate_model,
)
from .structure import StructureReport, _block_dominant, classify, closure

_DAMPING = 0.5
_FP_TOL = 1e-12
_FP_MAX_ITER = 100_000
_RESIDUAL_TOL = 1e-9
_POSITIVITY_FLOOR = 1e-6
_STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class LongRunSolution:
    """One candidate surviving set with its relative qualities and rate."""

    support: frozenset[int]
    stagnant: frozenset[int]
    z_star: np.ndarray
    shares_inf: np.ndarray
    growth_rate: float
    residual: float


@dataclass(frozen=True)
class RegimePrediction:
    regime: str  # stagnating | linear | polynomial | exponential
    reason: str
    survivors: frozenset[int] | None
    candidates: tuple[LongRunSolution, ...]
    initial_condition_dependent: bool


@dataclass(frozen=True)
class TransitionDesign:
    phi1: float
    phi2: float
    model: Model
    trajectory: Trajectory


def _support_jacobian(z, f_sub, nu, s_total):
    """Central-difference Jacobian of zdot on the support simplex at
    alpha = 0, all 2m probes in one stacked call of the integrator's
    rates (which clamp tiny negative probe productivities to zero)."""
    m = z.size
    h = 1e-7
    probe = h * np.eye(m)
    zs = np.concatenate((z + probe, z - probe))
    # products summed along the last axis round the same for one state as
    # for a stack, where a matrix product need not: the central
    # differences divide any such difference by 2e-7
    fz = (zs[:, None, :] * f_sub).sum(axis=-1)
    ydot = _rates(np.concatenate((zs, np.zeros((2 * m, 1))), axis=1), fz, nu, 0.0, s_total)[0]
    return (ydot[:m, :-1] - ydot[m:, :-1]).T / (2 * h)


def _interior_unstable(z, f_sub, nu, s_total, scale) -> bool:
    """True when the equal-growth point repels within its own simplex.

    The Jacobian of the share-weighted field is restricted to the tangent
    space sum(dz) = 0; any eigenvalue with clearly positive real part
    marks a saddle that the dynamics cannot settle on.
    """
    m = z.size
    if m == 1:
        return False
    jac = _support_jacobian(z, f_sub, nu, s_total)
    # orthonormal basis of the simplex tangent space
    _, _, vt = np.linalg.svd(np.ones((1, m)))
    basis = vt[1:]
    reduced = basis @ jac @ basis.T
    max_re = float(np.linalg.eigvals(reduced).real.max())
    return max_re > _STABILITY_TOL * max(1.0, scale)


def _solve_on_support(f, support, nu, s_total):
    """Damped nonlinear power iteration z <- normalize(diag((sS)^nu) F z)
    restricted to the support.

    Returns the sorted members, F on them, the fixed point z, its shares s
    and its growth rate, the rightmost eigenvalue of diag((sS)^nu) F_sub;
    None when the iteration fails to converge or leaves the positive
    region.

    Damping starts at 0.5 and shrinks whenever the update direction
    reverses: on bipartite cores with strong share concentration (large
    1/(1-nu)) a fixed 0.5 settles into a stable 2-cycle instead of the
    fixed point.
    """
    idx = sorted(support)
    f_sub = f[np.ix_(idx, idx)]
    m = len(idx)
    z = np.full(m, 1.0 / m)
    lam = _DAMPING
    prev_delta = None
    for _ in range(_FP_MAX_ITER):
        u = f_sub @ z
        if u.min() <= 0.0:
            return None
        w = _research_rates(u, nu, s_total)[1]
        delta = w / w.sum() - z
        if prev_delta is not None and float(delta @ prev_delta) < 0.0:
            lam = max(0.5 * lam, 1e-3)
        prev_delta = delta
        z_new = z + lam * delta
        if np.abs(z_new - z).max() < _FP_TOL:
            s = _research_rates(f_sub @ z_new, nu, s_total)[0]
            growth = np.linalg.eigvals(np.diag((s * s_total) ** nu) @ f_sub)
            return idx, f_sub, z_new, s, float(growth.real.max())
        z = z_new
    return None


def _pairwise_residual(z, f_sub, nu) -> float:
    u = (f_sub @ z) ** (1.0 / (1.0 - nu))
    # violation of z_j u_i = z_i u_j, scale-free in both z and u
    cross = np.abs(np.outer(u, z) - np.outer(z, u))
    denom = max(z.max() * u.max(), np.finfo(float).tiny)
    return float(cross.max() / denom)


def _candidate_supports(f: np.ndarray, report: StructureReport) -> list[frozenset[int]]:
    """The distinct core closures (a core together with everything it
    reaches) in which every member has a positive inflow from within,
    ordered by size and then by sorted members: at most one per core.

    A support that can grow on its own exerts no influence on any outside
    technology, so it is a union of core closures: with any member of a
    core it holds everything that core reaches, and following positive
    inflows backwards from a member closes a positive cycle, which lies in
    a core.  A union of two closures neither of which contains the other
    is never stable, though: each holds a core the other lacks, the two
    cores compete for the same scientists, and the share rule
    s ~ p^(1/(1-nu)) hands more of them to whichever is ahead.  The
    equal-growth point between them is a saddle, so only single closures
    are candidates.
    """
    n = f.shape[0]
    supports = set()
    for core in report.cores:
        mask = np.zeros(n, dtype=bool)
        mask[list(core)] = True
        mask |= report.closure[:, mask].any(axis=1)
        idx = np.flatnonzero(mask)
        # every member needs a positive inflow from within the support
        if (f[np.ix_(idx, idx)] > 0).any(axis=1).all():
            supports.add(frozenset(idx.tolist()))
    return sorted(supports, key=lambda c: (len(c), sorted(c)))


def solve_support_system(
    matrix: SpilloverMatrix, params: EconomyParams
) -> list[LongRunSolution]:
    """All stable candidate surviving sets with their relative qualities,
    asymptotic shares, and common growth rate.

    The candidates are the core closures (see _candidate_supports), so a
    network with k cores costs at most k fixed-point solves.  A candidate
    is accepted iff its fixed point converges, stays positive (at least
    1e-6 on every member, or above 0 on a support whose nonzero spillovers
    connect it strongly), satisfies the pairwise equations to within 1e-9
    and does not repel within its own simplex.  Independent technologies
    are no exception: for nu in (0, 1) every positive self-spillover is a
    locally stable survivor, and which one wins depends on the start.
    """
    return _solve_support_system(matrix, params, classify(matrix))


def _solve_support_system(
    matrix: SpilloverMatrix, params: EconomyParams, report: StructureReport
) -> list[LongRunSolution]:
    """solve_support_system on a matrix whose classification is at hand."""
    if not (matrix.nonnegative or report.eventually_nonnegative[0]):
        raise PreconditionError(
            "long-run analysis requires a nonnegative or eventually "
            "nonnegative spillover matrix"
        )
    f = matrix.entries
    n = matrix.n
    solutions = []
    for support in _candidate_supports(f, report):
        solved = _solve_on_support(f, support, params.nu, params.s_total)
        if solved is None:
            continue
        idx, f_sub, z, s, growth = solved
        # Perron-Frobenius gives z* > 0 on a strongly connected support, so
        # any positive z is accepted there, however small its entries.  No
        # path leaves a candidate (a core closure), so its block of the
        # full closure is the closure of its induced subgraph.
        strong = report.closure[np.ix_(idx, idx)].all()
        floor = 0.0 if strong else _POSITIVITY_FLOOR
        if z.min() <= 0.0 or z.min() < floor:
            continue
        residual = _pairwise_residual(z, f_sub, params.nu)
        if residual >= _RESIDUAL_TOL:
            continue
        if _interior_unstable(z, f_sub, params.nu, params.s_total, abs(growth)):
            continue
        z_full = np.zeros(n)
        z_full[idx] = z
        s_full = np.zeros(n)
        s_full[idx] = s
        solutions.append(
            LongRunSolution(
                support=support,
                stagnant=frozenset(range(n)) - support,
                z_star=z_full,
                shares_inf=s_full,
                growth_rate=growth,
                residual=residual,
            )
        )
    return solutions


def predict_regime(
    report: StructureReport, matrix: SpilloverMatrix, params: EconomyParams
) -> RegimePrediction:
    """Long-run growth regime from the spillover structure alone.

    stagnating: no positive spillovers at all (qualities at most linear,
    rates tending to zero).  linear/polynomial: edges but no cycle; the
    label is polynomial when some technology receives a chained spillover
    (a path through at least one intermediate).  exponential: some cycle
    whose induced submatrix has a positive dominant eigenvalue; survivor
    candidates then come from the support solver, which restricts inputs
    to nonnegative or eventually nonnegative matrices.  The survivors are
    known when exactly one candidate is stable; two or more make the
    outcome depend on initial conditions, and none leaves it open.
    """
    f = matrix.entries
    n = matrix.n
    adj = report.adjacency

    if any(_block_dominant(f, sorted(core)) > 0 for core in report.cores):
        candidates = tuple(_solve_support_system(matrix, params, report))
        # no stable candidate is not path dependence
        survivors = candidates[0].support if len(candidates) == 1 else None
        if "homogeneous" in report.classes:
            reason = "homogeneous"
        elif "strongly-connected" in report.classes:
            reason = "strongly-connected"
        else:
            reason = "circular-chain"
        return RegimePrediction(
            regime="exponential",
            reason=reason,
            survivors=survivors,
            candidates=candidates,
            initial_condition_dependent=len(candidates) >= 2,
        )

    if not adj.any():
        return RegimePrediction(
            regime="stagnating",
            reason="no-spillovers",
            survivors=frozenset(range(n)),
            candidates=(),
            initial_condition_dependent=False,
        )

    chained = (adj @ adj).any()
    return RegimePrediction(
        regime="polynomial" if chained else "linear",
        reason="one-way",
        survivors=None,
        candidates=(),
        initial_condition_dependent=False,
    )


def block_winner(
    matrix: SpilloverMatrix, params: EconomyParams, q0: QualityState
) -> frozenset[int]:
    """Predicted winning block for separated technology clusters.

    With no intra-technology spillovers, a uniform start hands victory to
    the block whose share-weighted submatrix grows fastest; when all
    spillovers are equal in size, a unique head-start technology drags its
    whole block to victory instead.
    """
    if np.any(np.diag(matrix.entries) != 0):
        raise PreconditionError(
            "block-winner analysis assumes no intra-technology spillovers"
        )
    if not matrix.nonnegative:
        raise PreconditionError("block-winner analysis requires a nonnegative matrix")
    if q0.n != matrix.n:
        raise PreconditionError("initial quality vector has the wrong length")
    report = classify(matrix)
    blocks = sorted(report.weak_components, key=sorted)
    if len(blocks) == 1:
        return blocks[0]

    f = matrix.entries
    nonzero = f[f != 0]
    equal_weights = nonzero.size > 0 and np.all(nonzero == nonzero.flat[0])
    top = np.flatnonzero(q0.q == q0.q.max())
    if equal_weights and top.size == 1:
        leader = int(top[0])
        for block in blocks:
            if leader in block:
                return block

    best_block = None
    best_rate = -np.inf
    for block in blocks:
        solved = _solve_on_support(f, block, params.nu, params.s_total)
        if solved is None:
            continue
        rate = solved[-1]
        if rate > best_rate:
            best_rate = rate
            best_block = block
    if best_block is None:
        raise PreconditionError("no block admits a growing allocation")
    return best_block


def _validate_chain(f: np.ndarray, clusters: list[list[int]]) -> None:
    n = f.shape[0]
    flat = [i for c in clusters for i in c]
    if sorted(flat) != list(range(n)):
        raise PreconditionError("clusters must partition the technology indices")
    if len(clusters) < 2:
        raise PreconditionError("a transition needs at least two clusters")
    for c in clusters:
        sub = f[np.ix_(c, c)] > 0
        if not closure(sub).all():
            raise PreconditionError(
                f"cluster {c} is not internally strongly connected"
            )
    for k in range(len(clusters) - 1):
        giver, receiver = clusters[k], clusters[k + 1]
        if not np.any(f[np.ix_(receiver, giver)] > 0):
            raise PreconditionError(
                f"no one-way spillover link from cluster {giver} to {receiver}"
            )
    if len(clusters) == 2:
        c1, c2 = clusters
        if np.any(f[np.ix_(c1, c2)] != 0):
            raise PreconditionError(
                "two-cluster transitions require strictly one-way spillovers "
                "(no feedback into the first cluster)"
            )


def construct_transition(
    matrix: SpilloverMatrix,
    params: EconomyParams,
    clusters: list[list[int]],
    q0: QualityState | None = None,
    horizon: float = 60.0,
    step: float = 1e-2,
    max_power: int = 8,
) -> TransitionDesign:
    """Find (phi1, phi2) staging a technology transition on a chained
    cluster structure: phi2 multiplies the last cluster's internal
    spillovers, phi1 is added to the first cluster's initial qualities.

    Success means the first cluster holds the majority scientist share at
    t = 0 while the last cluster ends holding all but 1e-3 of it.  For two
    clusters the link must be strictly one-way; longer chains are accepted
    with extra cross-links, the multi-block generalization.
    """
    f = matrix.entries
    clusters = [sorted(int(i) for i in c) for c in clusters]
    _validate_chain(f, clusters)
    if q0 is None:
        q0 = QualityState(0.0, np.ones(matrix.n))
    first, last = clusters[0], clusters[-1]

    best = None
    powers = [2.0**k for k in range(max_power + 1)]
    # the terminal share of the last cluster is set by the fixed point and
    # thus by phi2; per phi2 it suffices to try the smallest phi1 that
    # hands the first cluster the initial majority
    for phi2 in powers:
        scaled = f.copy()
        scaled[np.ix_(last, last)] *= phi2
        for phi1 in powers:
            q_start = q0.q.copy()
            q_start[first] += phi1
            p = scaled @ q_start + params.alpha
            if p.min() < 0:
                continue
            shares0 = shares_from_productivities(p, params.nu)
            if shares0[first].sum() <= 0.5:
                continue
            model = validate_model(
                SpilloverMatrix(scaled), params, QualityState(0.0, q_start)
            )
            traj = simulate(model, horizon, step=step)
            terminal = float(traj.shares[-1][last].sum())
            if best is None or terminal > best[2]:
                best = (phi1, phi2, terminal)
            if terminal > 1.0 - 1e-3:
                return TransitionDesign(
                    phi1=phi1, phi2=phi2, model=model, trajectory=traj
                )
            break
    raise TransitionSearchExhaustedError(
        f"no (phi1, phi2) pair up to 2^{max_power} produced a confirmed "
        "transition",
        best_candidate=best,
    )
