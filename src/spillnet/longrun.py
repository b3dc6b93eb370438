"""Long-run analysis: surviving technology sets, growth regimes and block
competition, from the spillover structure alone (no integration).

Technology transitions are detected in simulated runs
(dynamics.detect_transitions); spillnet does not construct them.

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

from .allocation import _research_rates
from .model import EconomyParams, PreconditionError, QualityState, SpilloverMatrix
from .structure import StructureReport, classify

_FP_TOL = 1e-12
_MAX_STEPS = 500
_POSITIVITY_FLOOR = 1e-6
_STABILITY_TOL = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LongRunSolution:
    """One candidate surviving set with its relative qualities and rate;
    residual is max|G| at z*, below 1e-12 by construction."""

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
class _RestPoint:
    """Where one rest-point solve on a support stopped, and what it found.

    members are the sorted support, z its point, shares and growth the
    scientist shares and g = sum(v) there, residual max|G| there (below
    _FP_TOL once converged).  verdict is "stable", "saddle" or "unstable
    focus" for a converged point, else "not converged" (the step cap ran
    out) or "non-positive" (F z has an entry <= 0 at the uniform start,
    where z is that start and the other numbers are NaN).
    """

    members: list[int]
    z: np.ndarray
    shares: np.ndarray
    growth: float
    residual: float
    verdict: str


def _verdict(jac, growth) -> str:
    """Stability of a converged equal-growth point within its own simplex.

    At a rest point zdot = sum(v) * G(z), so the field's Jacobian is the
    growth rate times that of G.  G is unchanged when z is scaled, so
    J z = -z and 1^T J = -1^T: the spectrum of g J is the tangent spectrum
    (sum(dz) = 0) plus -g, which never repels.  A rightmost eigenvalue with
    clearly positive real part repels, and the point is then an unstable
    focus when that eigenvalue's imaginary part is clearly nonzero too, else
    a saddle.
    """
    tol = _STABILITY_TOL * max(1.0, growth)
    eig = np.linalg.eigvals(growth * jac)
    rightmost = eig[eig.real.argmax()]
    if rightmost.real <= tol:
        return "stable"
    return "unstable focus" if abs(rightmost.imag) > tol else "saddle"


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


def _solve_on_support(f, support, nu, s_total) -> _RestPoint:
    """The rest point of G on a support, solved from the uniform point,
    with its verdict; a solve that spends its _MAX_STEPS steps is logged
    at DEBUG.

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
        return _RestPoint(idx, z, np.full(z.size, np.nan), np.nan, np.nan, "non-positive")
    resid, jac, s, total = terms
    # 1/dt above |J|_inf, a bound on every eigenvalue of J
    dt = 0.5 / np.abs(jac).sum(axis=1).max()
    prev = np.abs(resid).max()
    for _ in range(_MAX_STEPS):
        norm = np.abs(resid).max()
        if norm < _FP_TOL:
            growth = float(total)
            return _RestPoint(idx, z, s, growth, float(norm), _verdict(jac, growth))
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
    norm = float(np.abs(resid).max())
    _log.debug(
        "rest-point solve on support %s stopped at the %d-step cap, residual %.3g",
        idx, _MAX_STEPS, norm,
    )
    return _RestPoint(idx, z, s, float(total), norm, "not converged")


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
    is accepted iff its solve converges to a point that does not repel
    within its own simplex (verdict "stable") whose z is at least 1e-6 on
    every member (any z > 0 on a support whose nonzero spillovers connect
    it strongly).  Independent technologies
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
        point = _solve_on_support(f, support, params.nu, params.s_total)
        if point.verdict != "stable":
            continue
        idx = point.members
        # the solve keeps z > 0, which Perron-Frobenius asks of z* on a
        # strongly connected support, however small the entries.  No path
        # leaves a candidate (a core closure), so its block of the full
        # closure is the closure of its induced subgraph.
        if not report.closure[np.ix_(idx, idx)].all() and point.z.min() < _POSITIVITY_FLOOR:
            continue
        z_full, s_full = np.zeros((2, n))
        z_full[idx], s_full[idx] = point.z, point.shares
        solutions.append(
            LongRunSolution(
                support=support,
                stagnant=frozenset(range(n)) - support,
                z_star=z_full,
                shares_inf=s_full,
                growth_rate=point.growth,
                residual=point.residual,
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
    n = matrix.n
    adj = report.adjacency

    # some core grows: the cores are the SCCs of 2+ nodes and the positive
    # self-loops, and every other diagonal block is a singleton f_ii <= 0
    if report.self_loops or report.dominant_eigenvalue > 0:
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

    points = [_solve_on_support(f, block, params.nu, params.s_total) for block in blocks]
    converged = [p for p in points if p.verdict not in ("not converged", "non-positive")]
    if not converged:
        raise PreconditionError("no block admits a growing allocation")
    # max keeps the first of equal rates
    return frozenset(max(converged, key=lambda p: p.growth).members)
