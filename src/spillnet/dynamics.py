"""Closed-loop integration of the R&D quality system.

The state is stored as (z, L) with z = q / sum(q) and L = ln sum(q):
exponential trajectories overflow raw quality storage, while in these
coordinates every quantity stays O(1).  Writing v_i = qdot_i / sum(q),
the vector field becomes

    v_i = (s_i(z, L) * S)^nu * ((F z)_i + alpha * exp(-L))
    zdot = v - sum(v) * z
    Ldot = sum(v)

which is exact (no approximation relative to raw q).  Because the sector
output satisfies Y_L = sum(q), the sector growth rate is simply sum(v),
and per-technology growth is g_i = v_i / z_i.

The stacked state (z, L) is integrated with the embedded Dormand-Prince
5(4) pair (Dormand & Prince 1980) under local error control at tolerance
TOL, and the fixed sample grid is filled from the pair's 4th-order
continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6).
Many economies are integrated in lock step as rows of one stacked state,
so that each step's interpreter overhead is paid once for all of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .allocation import shares_from_productivities
from .model import (
    DegenerateEconomyError,
    IntegrationBlowupError,
    Model,
    NegativeProductivityError,
    SpillnetError,
)

DEFAULT_STEP = 1e-2
DEFAULT_HOLD = 0.5


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: directions z, log-scale L, shares, and growth rates.

    tech_growth is NaN where z_i = 0 (growth of a zero quality is
    undefined); such entries carry zero weight in sector_growth anyway.
    """

    times: np.ndarray
    z: np.ndarray
    logsum: np.ndarray
    shares: np.ndarray
    tech_growth: np.ndarray
    sector_growth: np.ndarray
    field_evaluations: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0

    @property
    def n(self) -> int:
        return self.z.shape[1]

    def qualities(self, index: int | None = None) -> np.ndarray:
        """Raw q at one sample (or all samples); may overflow to inf on
        long exponential runs, which is why z/logsum is the stored form."""
        with np.errstate(over="ignore"):
            if index is None:
                return self.z * np.exp(self.logsum)[:, None]
            return self.z[index] * np.exp(self.logsum[index])


@dataclass(frozen=True)
class TransitionEvent:
    time: float
    old_leaders: frozenset[int]
    new_leaders: frozenset[int]


@dataclass(frozen=True)
class ConvergenceResult:
    converged: bool
    shares_converged: bool
    growth_converged: bool
    shares: np.ndarray
    growth_rate: float


@dataclass(frozen=True)
class GrowthSeries:
    """Growth diagnostics plus the independent integration check
    d(ln sum q)/dt per sample interval."""

    tech_growth: np.ndarray
    sector_growth: np.ndarray
    interval_times: np.ndarray
    logsum_rate: np.ndarray


def _field(y, f, nu, alpha, s_total):
    """(ydot, v, shares, negative) at the stacked scale-free state
    y = (z, L), along the last axis.

    Either one economy (f of shape (n, n), scalar parameters) at one state
    or at a stack of states in the rows of y, or a stack of B economies
    (f of shape (B, n, n), nu and s_total of shape (B,), and alpha of
    shape (B, n), one value per technology) at one state each.

    Tiny negative productivities near extinct technologies are roundoff
    and clamp to zero.  `negative` is None when there are no others, and
    otherwise flags (per state) where productivity went clearly negative.
    """
    # states in columns: per-state parameters broadcast along the last
    # axis, and the per-state sums of one state are scalars
    yt = y.T
    z = yt[:-1]
    decay = (alpha * np.exp(-y[..., -1:])).T
    p = np.matmul(f, y[..., :-1, None])[..., 0].T + decay
    negative = None
    if p.min() < 0:
        pmin = np.minimum.reduce(p)
        negative = pmin < -1e-12 * np.maximum(1.0, np.maximum.reduce(np.abs(p)))
        p = np.maximum(p, 0.0)
    s = shares_from_productivities(p.T, nu).T
    v = (s * s_total) ** nu * p
    total = np.add.reduce(v)
    ydot = np.empty_like(yt)
    ydot[:-1] = v - total * z
    ydot[-1] = total
    return ydot.T, v.T, s.T, negative


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# table II.5.2): stage rows, the 5th-order weights (equal to the last stage
# row, so the last stage is the next step's first), the weights of the
# error estimate (5th minus 4th order), and the 4th-order continuous
# extension used for dense output (dopri5 of the same authors).
_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_D = np.array(
    [
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
        -10690763975 / 1880347072, 701980252875 / 199316789632,
        -1453857185 / 822651844, 69997945 / 29380423,
    ]
)

# the continuous extension as weights on the stages: with
# u = theta (1 - theta), y(theta) = y + h basis(theta) @ _DENSE @ k for
# basis(theta) = (theta, u, theta u, u^2), dopri5's
# y + theta (r2 + (1 - theta) (r3 + theta (r4 + (1 - theta) r5))) written
# out with r2 = h _A[6] k, r3 = h k_1 - r2, r4 = r2 - h k_7 - r3, r5 = h _D k
_A6 = np.append(_A[6], 0.0)
_FIRST, _LAST = np.eye(7)[0], np.eye(7)[6]
_DENSE = np.array([_A6, _FIRST - _A6, 2 * _A6 - _FIRST - _LAST, _D])

TOL = 1e-12
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0


def _sample_times(t_end: float, step: float, sample_every: int) -> np.ndarray:
    """Multiples of sample_every * step up to t_end, and t_end itself."""
    n_full = int(math.floor(t_end / step + 1e-12))
    remainder = t_end - n_full * step
    times = [0.0] + [k * step for k in range(sample_every, n_full + 1, sample_every)]
    if remainder < 1e-12 * step and n_full % sample_every == 0:
        # k*step can land one ulp off t_end; pin the final stamp exactly
        times[-1] = t_end
    else:
        times.append(t_end)
    return np.array(times)


def _take(keep, *arrays):
    """The kept rows of each per-row array."""
    return tuple(a[keep] for a in arrays)


def simulate_batch(
    models: Sequence[Model],
    t_ends: Sequence[float],
    steps: Sequence[float],
    sample_every: int = 10,
) -> list[Trajectory | SpillnetError]:
    """Adaptive Dormand-Prince 5(4) integration of B closed loops in lock
    step: one Trajectory per model, or the SpillnetError that stopped it.

    Row b integrates models[b] to t_ends[b] with its own time, step and
    accept/reject decision.  A step is accepted when the RMS norm, over
    the row's own n + 1 components, of the embedded error estimate scaled
    componentwise by TOL * (1 + max(|y|, |y_new|)) on the stacked (z, L)
    state is at most 1.  steps[b] and sample_every fix only the initial
    step and the sample grid: samples at multiples of
    sample_every * steps[b] and always at t_ends[b], filled from the
    pair's 4th-order continuous extension.  A stage with negative
    productivity rejects the row's step and halves it; the row fails with
    NegativeProductivityError once the step falls below 1e-9 * steps[b].
    A non-finite trial state or error estimate fails the row with
    IntegrationBlowupError at once.  Failed and finished rows leave the
    batch; the others carry on.  Economies of different sizes are padded
    to the largest n with inert technologies that get no share.  Shares
    and growth rates come from one call of the integration field on all of
    a row's samples.  A row's field_evaluations counts the evaluations
    made for it: one at the start and six per attempted step.
    """
    b_all = len(models)
    t_ends = np.asarray(t_ends, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if t_ends.shape != (b_all,) or steps.shape != (b_all,):
        raise ValueError("t_ends and steps need one entry per model")
    if np.any(t_ends <= 0):
        raise ValueError(f"t_end must be positive, got {t_ends.min()}")
    if np.any(steps <= 0):
        raise ValueError(f"step must be positive, got {steps.min()}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if not b_all:
        return []

    results: list = [None] * b_all
    sizes = np.array([m.matrix.n for m in models], dtype=int)
    n = int(sizes.max())
    grids = [_sample_times(te, st, sample_every) for te, st in zip(t_ends, steps)]
    n_samples = np.array([g.size for g in grids], dtype=int)
    # each row's sample times, then +inf past its last sample
    grid = np.full((b_all, int(n_samples.max()) + 1), np.inf)
    # states padded to n technologies: z, zeros, then L
    out = np.zeros((b_all, grid.shape[1] - 1, n + 1))  # the samples
    k0 = np.zeros((b_all, n + 1))  # the field at the initial state
    f = np.zeros((b_all, n, n))
    for b, (model, times) in enumerate(zip(models, grids)):
        m = sizes[b]
        grid[b, : times.size] = times
        f[b, :m, :m] = model.matrix.entries
        q0 = model.q0.q
        total0 = q0.sum()
        if total0 <= 0:
            results[b] = DegenerateEconomyError(
                "initial qualities sum to zero; scale-free state undefined"
            )
            continue
        y0 = np.append(q0 / total0, math.log(total0))
        p = model.params
        ydot, _, _, negative = _field(y0, model.matrix.entries, p.nu, p.alpha, p.s_total)
        if negative:
            results[b] = NegativeProductivityError(
                "productivity is negative at the initial state"
            )
            continue
        padding = [m] * (n - m)
        out[b, 0] = np.insert(y0, padding, 0.0)
        k0[b] = np.insert(ydot, padding, 0.0)

    # the rows still integrating; every per-row array below follows `rows`
    rows = np.array([b for b in range(b_all) if results[b] is None], dtype=int)
    y, f = out[rows, 0], f[rows]
    nu, alpha, s_total = (
        np.array([getattr(models[b].params, name) for b in rows], dtype=float)
        for name in ("nu", "alpha", "s_total")
    )
    # a padding technology has a zero row in f, but alpha * exp(-L) would
    # still give it productivity and so scientists; a zero alpha leaves it
    # p = 0 exactly, and so share 0 (or, when no technology of the row has
    # productivity, a share that does nothing, since v = 0 then)
    alpha = alpha[:, None] * (np.arange(n) < sizes[rows, None])
    dof = sizes[rows] + 1.0
    t, t_end, h = np.zeros(rows.size), t_ends[rows], steps[rows]
    h_min = 1e-9 * h
    t_next = grid[rows, 1]  # each row's next sample time
    k = np.empty((rows.size, 7, n + 1))
    k[:, 0] = k0[rows]
    attempted = np.zeros(b_all, dtype=int)
    rejected = np.zeros(b_all, dtype=int)

    steps_taken = 0  # by every row still in the batch
    while rows.size:
        steps_taken += 1
        last = t + h >= t_end
        h = np.where(last, t_end - t, h)
        hc = h[:, None]
        negative = None
        for i in range(1, 7):
            # the last stage point is the 5th-order solution y_new
            y_new = y + hc * (_A[i] @ k[:, :i])
            k[:, i], _, _, neg = _field(y_new, f, nu, alpha, s_total)
            if neg is not None:
                negative = neg if negative is None else negative | neg
        scale = TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err = np.sqrt(np.add.reduce((hc * (_E @ k) / scale) ** 2, axis=1) / dof)
        finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
        accept = finite & (err <= 1.0)
        if negative is not None:
            accept &= ~negative
        t_new = np.where(last, t_end, t + h)

        # samples in (t, t_new] from the continuous extension, all rows'
        # at once: one entry per (row, sample) pair
        r = np.flatnonzero(accept & (t_next <= t_new))
        if r.size:
            times = grid[rows[r]]
            upto = times <= t_new[r, None]
            pair, col = np.nonzero(upto & (times > t[r, None]))
            at = r[pair]
            th = (times[pair, col] - t[at]) / h[at]
            u = th * (1 - th)
            # stacked products, so that a row's samples do not depend on
            # which other rows share the batch
            basis = np.column_stack((th, u, th * u, u * u))[:, None]
            out[rows[at], col] = y[at] + hc[at] * (basis @ (_DENSE @ k[at]))[:, 0]
            t_next[r] = times[np.arange(r.size), np.add.reduce(upto, axis=1)]

        # the error estimate is exactly 0 on solutions linear in t
        factor = np.minimum(np.maximum(_SAFETY * np.maximum(err, 1e-10) ** -0.2, _FAC_MIN), _FAC_MAX)
        rejected[rows] += ~accept
        blowup = ~finite
        if negative is not None:
            blowup &= ~negative
            factor = np.where(negative, 0.5, factor)
        h = h * factor
        failed = blowup | (~accept & (h < h_min))
        for r in np.flatnonzero(failed):
            tr = float(t[r])
            if blowup[r]:
                error = IntegrationBlowupError(
                    f"non-finite state in the step from t = {tr}", last_good_time=tr
                )
            elif negative is not None and negative[r]:
                error = NegativeProductivityError(
                    f"productivity went negative in every step from t = {tr} "
                    f"down to step size {h_min[r]:g}"
                )
            else:
                error = IntegrationBlowupError(
                    f"step size fell below {h_min[r]:g} at t = {tr}", last_good_time=tr
                )
            results[rows[r]] = error
        y = np.where(accept[:, None], y_new, y)
        k[:, 0] = np.where(accept[:, None], k[:, 6], k[:, 0])
        t = np.where(accept, t_new, t)
        drop = (last & accept) | failed
        if drop.any():
            done = drop & accept
            # the final sample is the integrated state itself
            out[rows[done], n_samples[rows[done]] - 1] = y[done]
            attempted[rows[drop]] = steps_taken
            rows, y, k, f, nu, alpha, s_total, dof, t, t_end, h, h_min, t_next = _take(
                ~drop, rows, y, k, f, nu, alpha, s_total, dof, t, t_end, h, h_min, t_next
            )

    for b, model in enumerate(models):
        if results[b] is not None:
            continue
        m = sizes[b]
        ys = np.delete(out[b, : n_samples[b]], np.s_[m:n], axis=1)
        p = model.params
        ydot, v, shares, negative = _field(ys, model.matrix.entries, p.nu, p.alpha, p.s_total)
        if negative is not None and negative.any():
            results[b] = NegativeProductivityError(
                f"productivity is negative at the sample t = {grids[b][negative.argmax()]}"
            )
            continue
        zs = ys[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            growth = np.where(zs > 0, v / np.where(zs > 0, zs, 1.0), np.nan)
        results[b] = Trajectory(
            times=grids[b],
            z=zs,
            logsum=ys[:, -1],
            shares=shares,
            tech_growth=growth,
            sector_growth=ydot[:, -1],
            field_evaluations=1 + 6 * int(attempted[b]),
            accepted_steps=int(attempted[b] - rejected[b]),
            rejected_steps=int(rejected[b]),
        )
    return results


def simulate(
    model: Model,
    t_end: float,
    step: float = DEFAULT_STEP,
    sample_every: int = 10,
) -> Trajectory:
    """One closed loop: simulate_batch of one model, raising its error."""
    (result,) = simulate_batch([model], [t_end], [step], sample_every)
    if isinstance(result, SpillnetError):
        raise result
    return result


def sector_growth_rate(q: np.ndarray, tech_growth: np.ndarray) -> float:
    """Quality-weighted average growth: sum_i g_i q_i / sum_j q_j.
    NaN growth entries must carry zero quality and contribute nothing."""
    q = np.asarray(q, dtype=float)
    g = np.asarray(tech_growth, dtype=float)
    w = q / q.sum()
    return float(np.where(w > 0, np.nan_to_num(g) * w, 0.0).sum())


def growth_series(traj: Trajectory) -> GrowthSeries:
    """Analytic growth rates plus the per-interval check d(ln sum q)/dt.

    The check value is independent of the stored rates: it differences the
    integrated log-scale, so systematic disagreement with the midpoint of
    sector_growth reveals an integration error.
    """
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    dt = np.diff(traj.times)
    rate = np.diff(traj.logsum) / dt
    mid = 0.5 * (traj.times[:-1] + traj.times[1:])
    return GrowthSeries(
        tech_growth=traj.tech_growth,
        sector_growth=traj.sector_growth,
        interval_times=mid,
        logsum_rate=rate,
    )


def leader_set(shares: np.ndarray, theta: float) -> frozenset[int]:
    """Minimal set of technologies whose shares, sorted descending, sum to
    at least theta.  Ties broken by index for determinism."""
    order = np.lexsort((np.arange(shares.size), -shares))
    total = 0.0
    chosen = []
    for i in order:
        chosen.append(int(i))
        total += shares[i]
        if total >= theta:
            break
    return frozenset(chosen)


def _leader_sets(shares: np.ndarray, theta: float) -> np.ndarray:
    """leader_set of every row of `shares` at once, as a boolean membership
    matrix: shares sorted descending (ties by index), summed in that order
    until the sum reaches theta."""
    n = shares.shape[1]
    order = np.argsort(-shares, axis=1, kind="stable")
    reached = np.cumsum(np.take_along_axis(shares, order, axis=1), axis=1) >= theta
    # a row that never reaches theta takes every technology
    size = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, n)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
    return rank < size[:, None]


def detect_transitions(
    traj: Trajectory, theta: float, hold: float = DEFAULT_HOLD
) -> list[TransitionEvent]:
    """Leader-set changes that persist for at least `hold` time units.

    The debounce suppresses chatter when shares cross repeatedly within
    one oscillation of the solver; an event's time is when the new leader
    set first appeared.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    unique, labels = np.unique(
        _leader_sets(traj.shares, theta), axis=0, return_inverse=True
    )
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in unique]
    labels = labels.ravel().tolist()
    events: list[TransitionEvent] = []
    current = labels[0]
    candidate: int | None = None
    candidate_since = 0.0
    for i in range(1, traj.times.size):
        if labels[i] == current:
            candidate = None
            continue
        if labels[i] != candidate:
            candidate = labels[i]
            candidate_since = float(traj.times[i])
        if traj.times[i] - candidate_since >= hold:
            events.append(
                TransitionEvent(
                    time=candidate_since,
                    old_leaders=sets[current],
                    new_leaders=sets[candidate],
                )
            )
            current = candidate
            candidate = None
    return events


def detect_convergence(
    traj: Trajectory, eps: float, window: float
) -> ConvergenceResult:
    """Trailing-window stationarity of shares and of the sector growth rate.

    Shares are converged when every sample in the window is within eps
    (max norm) of the terminal sample; growth when its spread over the
    window is below eps.  Reports trailing-window means either way.
    """
    span = traj.times[-1] - traj.times[0]
    if window >= span:
        raise ValueError(f"window {window} must be shorter than the span {span}")
    start = traj.times[-1] - window
    idx = np.flatnonzero(traj.times >= start)
    s_win = traj.shares[idx]
    g_win = traj.sector_growth[idx]
    shares_ok = bool(np.abs(s_win - traj.shares[-1]).max() < eps)
    growth_ok = bool(g_win.max() - g_win.min() < eps)
    return ConvergenceResult(
        converged=shares_ok and growth_ok,
        shares_converged=shares_ok,
        growth_converged=growth_ok,
        shares=s_win.mean(axis=0),
        growth_rate=float(g_win.mean()),
    )
