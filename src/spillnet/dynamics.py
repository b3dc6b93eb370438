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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import shares_from_productivities
from .model import (
    DegenerateEconomyError,
    IntegrationBlowupError,
    Model,
    NegativeProductivityError,
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
    """(ydot, v, shares) at the stacked scale-free state y = (z, L), along
    the last axis: one state, or a stack of states in the rows of y.

    Tiny negative productivities near extinct technologies are roundoff
    and clamp to zero; anything larger raises NegativeProductivityError.
    """
    # states in columns: the per-state sums of one state are scalars, and
    # its decay term takes math.exp, which is cheaper on a scalar
    yt = y.T
    z = yt[:-1]
    decay = math.exp(-y[-1]) if y.ndim == 1 else np.exp(-yt[-1])
    p = f @ z + alpha * decay
    if p.min() < 0:
        pmin = p.min(axis=0)
        if np.any(pmin < -1e-12 * np.maximum(1.0, np.abs(p).max(axis=0))):
            raise NegativeProductivityError(
                f"productivity went negative during integration (min {pmin.min()})"
            )
        p = np.maximum(p, 0.0)
    s = shares_from_productivities(p.T, nu).T
    v = (s * s_total) ** nu * p
    total = np.add.reduce(v)
    ydot = np.empty_like(yt)
    ydot[:-1] = v - total * z
    ydot[-1] = total
    return ydot.T, v.T, s.T


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

TOL = 1e-12
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0


def simulate(
    model: Model,
    t_end: float,
    step: float = DEFAULT_STEP,
    sample_every: int = 10,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the closed loop.

    Each step is accepted when the mixed RMS norm of the embedded error
    estimate, scaled componentwise by TOL * (1 + max(|y|, |y_new|)) on the
    stacked (z, L) state, is at most 1.  `step` and `sample_every` fix
    only the initial step and the sample grid: samples at multiples of
    sample_every * step and always at t_end, filled from the pair's
    4th-order continuous extension.  A stage with negative productivity
    rejects the step and halves it; the error is re-raised once the step
    falls below 1e-9 * step.  A non-finite trial state or error estimate
    raises IntegrationBlowupError at once.  Shares and growth rates come
    from one call of the integration field on all samples at once.
    """
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    args = (
        model.matrix.entries, model.params.nu, model.params.alpha,
        model.params.s_total,
    )

    q0 = model.q0.q
    total0 = q0.sum()
    if total0 <= 0:
        raise DegenerateEconomyError(
            "initial qualities sum to zero; scale-free state undefined"
        )
    y = np.append(q0 / total0, math.log(total0))

    n_full = int(math.floor(t_end / step + 1e-12))
    remainder = t_end - n_full * step
    times = [0.0] + [k * step for k in range(sample_every, n_full + 1, sample_every)]
    if remainder < 1e-12 * step and n_full % sample_every == 0:
        # k*step can land one ulp off t_end; pin the final stamp exactly
        times[-1] = t_end
    else:
        times.append(t_end)
    times_arr = np.array(times)
    ys = np.empty((times_arr.size, y.size))
    ys[0] = y
    j = 1  # next sample to fill

    k = np.empty((7, y.size))
    k[0] = _field(y, *args)[0]
    evaluations, accepted, rejected = 1, 0, 0
    t, h, h_min = 0.0, step, 1e-9 * step
    while t < t_end:
        last = t + h >= t_end
        if last:
            h = t_end - t
        try:
            for i in range(1, 7):
                # the last stage point is the 5th-order solution y_new
                y_new = y + h * (_A[i] @ k[:i])
                evaluations += 1
                k[i] = _field(y_new, *args)[0]
        except NegativeProductivityError:
            rejected += 1
            h *= 0.5
            if h < h_min:
                raise
            continue
        scale = TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        err = math.sqrt(np.mean((h * (_E @ k) / scale) ** 2))
        if not (math.isfinite(err) and np.isfinite(y_new).all()):
            raise IntegrationBlowupError(
                f"non-finite state in the step from t = {t}", last_good_time=t
            )
        if err > 1.0:
            rejected += 1
            h *= max(_FAC_MIN, _SAFETY * err**-0.2)
            if h < h_min:
                raise IntegrationBlowupError(
                    f"step size fell below {h_min:g} at t = {t}", last_good_time=t
                )
            continue

        accepted += 1
        t_new = t_end if last else t + h
        m = int(np.searchsorted(times_arr, t_new, side="right"))
        if m > j:
            # samples in (t, t_new] from the continuous extension (dopri5's contd5)
            th = ((times_arr[j:m] - t) / h)[:, None]
            r2 = y_new - y
            r3 = h * k[0] - r2
            r4 = r2 - h * k[6] - r3
            r5 = h * (_D @ k)
            ys[j:m] = y + th * (r2 + (1 - th) * (r3 + th * (r4 + (1 - th) * r5)))
            j = m
        # the error estimate is exactly 0 on solutions linear in t
        t, y, h = t_new, y_new, h * min(_FAC_MAX, _SAFETY * max(err, 1e-10) ** -0.2)
        k[0] = k[6]
    ys[-1] = y  # the final sample is the integrated state itself

    ydot, v, shares = _field(ys, *args)
    zs = ys[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(zs > 0, v / np.where(zs > 0, zs, 1.0), np.nan)

    return Trajectory(
        times=times_arr,
        z=zs,
        logsum=ys[:, -1],
        shares=shares,
        tech_growth=growth,
        sector_growth=ydot[:, -1],
        field_evaluations=evaluations,
        accepted_steps=accepted,
        rejected_steps=rejected,
    )


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
    events: list[TransitionEvent] = []
    current = leader_set(traj.shares[0], theta)
    candidate: frozenset[int] | None = None
    candidate_since = 0.0
    for i in range(1, traj.times.size):
        leaders = leader_set(traj.shares[i], theta)
        if leaders == current:
            candidate = None
            continue
        if leaders != candidate:
            candidate = leaders
            candidate_since = float(traj.times[i])
        if traj.times[i] - candidate_since >= hold:
            events.append(
                TransitionEvent(
                    time=candidate_since,
                    old_leaders=current,
                    new_leaders=candidate,
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
