"""Long-run analysis: surviving technology sets, growth regimes, block
competition, and constructed technology transitions.

A set of technologies can sustain common exponential growth only when the
relative qualities z (normalized to sum 1 on the candidate support) solve

    z_j (F_i z)^(1/(1-nu)) = z_i (F_j z)^(1/(1-nu))   for all i, j in the support

with z strictly positive on the support and zero off it.  The autonomous
term alpha is dropped here: along any growing path alpha / q vanishes, so
the fixed point is alpha-free; alpha only affects transient selection,
which simulation resolves.  Such a z is a rest point of the integrator's
field, G(z) = v / sum(v) - z = 0 with v = (sS)^nu F z, growing at rate
sum(v).  One pseudo-transient Newton solve of G per candidate finds it,
and the Jacobian of G that drives the solve also decides its stability.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .allocation import _research_rates, shares_from_productivities
from .dynamics import Trajectory, simulate
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

_FP_TOL = 1e-12
_MAX_STEPS = 500
_RESIDUAL_TOL = 1e-9
_POSITIVITY_FLOOR = 1e-6
_STABILITY_TOL = 1e-6

_log = logging.getLogger(__name__)


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


def _interior_unstable(jac, growth) -> bool:
    """True when the equal-growth point repels within its own simplex.

    At a rest point zdot = sum(v) * G(z), so the field's Jacobian is the
    growth rate times that of G.  It is restricted to the tangent space
    sum(dz) = 0; any eigenvalue with clearly positive real part marks a
    saddle that the dynamics cannot settle on.
    """
    m = jac.shape[0]
    if m == 1:
        return False
    # orthonormal basis of the simplex tangent space
    basis = np.linalg.svd(np.ones((1, m)))[2][1:]
    reduced = basis @ (growth * jac) @ basis.T
    return bool(np.linalg.eigvals(reduced).real.max() > _STABILITY_TOL * max(1.0, growth))


def _rest_point_terms(z, f_sub, nu, s_total):
    """G(z) = w - z with w = v / sum(v) at alpha = 0, its Jacobian
    (I - w 1^T) diag(w / ((1-nu) u)) F - I (v is proportional to
    u^(1/(1-nu))), the shares and sum(v); None unless u = F z > 0."""
    u = f_sub @ z
    if u.min() <= 0.0:
        return None
    s, v = _research_rates(u, nu, s_total)
    total = v.sum()
    w = v / total
    d = (w / (u * (1.0 - nu)))[:, None] * f_sub
    jac = d - np.outer(w, d.sum(axis=0)) - np.eye(z.size)
    return w - z, jac, s, total


def _solve_on_support(f, support, nu, s_total):
    """Sorted members, F on them, the rest point z of G, its shares, its
    growth rate sum(v) and the Jacobian of G there; None when u = F z is
    not positive at the uniform start or the solve does not converge
    within _MAX_STEPS steps, which is logged at DEBUG.

    Pseudo-transient continuation (Kelley & Keyes 1998) from the uniform
    point: each step solves (I/dt - J) dz = G, which keeps sum(z) = 1.
    It is a linearly implicit Euler step of zdot = G, the integrator's
    flow zdot = sum(v) G at another speed, so small dt heads for the rest
    point the dynamics settle on and large dt is Newton's method.  dt
    starts below 1/|J|_inf and grows as the residual falls; a step that
    leaves z > 0, or whose residual misses its linear prediction dz/dt by
    over half the current residual, is retried at half the dt.
    """
    idx = sorted(support)
    f_sub = f[np.ix_(idx, idx)]
    z = np.full(len(idx), 1.0 / len(idx))
    terms = _rest_point_terms(z, f_sub, nu, s_total)
    if terms is None:
        return None
    resid, jac, s, total = terms
    # 1/dt above |J|_inf, a bound on every eigenvalue of J
    dt = 0.5 / np.abs(jac).sum(axis=1).max()
    prev = np.abs(resid).max()
    for _ in range(_MAX_STEPS):
        norm = np.abs(resid).max()
        if norm < _FP_TOL:
            return idx, f_sub, z, s, float(total), jac
        dt *= prev / norm
        prev = norm
        dz = np.linalg.solve(np.eye(z.size) / dt - jac, resid)
        trial = z + dz
        terms = None if trial.min() <= 0.0 else _rest_point_terms(trial, f_sub, nu, s_total)
        if terms is None or np.abs(terms[0] - dz / dt).max() > 0.5 * norm:
            dt *= 0.5
            continue
        z = trial
        resid, jac, s, total = terms
    _log.debug(
        "rest-point solve on support %s stopped at the %d-step cap, residual %.3g",
        idx, _MAX_STEPS, np.abs(resid).max(),
    )
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
    network with k cores costs at most k rest-point solves.  A candidate
    is accepted iff its solve converges, its z is at least 1e-6 on every
    member (any z > 0 on a support whose nonzero spillovers connect it
    strongly), satisfies the pairwise equations to within 1e-9 and does
    not repel within its own simplex.  Independent technologies
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
        idx, f_sub, z, s, growth, jac = solved
        # the solve keeps z > 0, which Perron-Frobenius asks of z* on a
        # strongly connected support, however small the entries.  No path
        # leaves a candidate (a core closure), so its block of the full
        # closure is the closure of its induced subgraph.
        if not report.closure[np.ix_(idx, idx)].all() and z.min() < _POSITIVITY_FLOOR:
            continue
        residual = _pairwise_residual(z, f_sub, params.nu)
        if residual >= _RESIDUAL_TOL or _interior_unstable(jac, growth):
            continue
        z_full, s_full = np.zeros((2, n))
        z_full[idx], s_full[idx] = z, s
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
    rates tending to zero).  linear/polynomial: edges but no growing cycle
    (reason one-way if acyclic, else no-growing-cycle); the label is
    polynomial when some technology receives a chained spillover (a path
    through at least one intermediate).  exponential: some cycle whose
    induced submatrix has a positive dominant eigenvalue; survivor
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
        reason="no-growing-cycle" if report.closure.diagonal().any() else "one-way",
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
        rate = solved[4]
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
