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


def _field(z, logsum, f, nu, alpha, s_total):
    """(zdot, Ldot, v) for the scale-free state; see module docstring."""
    p = f @ z + alpha * math.exp(-logsum)
    pmin = p.min()
    if pmin < 0:
        # tiny negative excursions near extinct technologies are numerical
        if pmin < -1e-12 * max(1.0, np.abs(p).max()):
            raise NegativeProductivityError(
                f"productivity went negative during integration (min {pmin})"
            )
        p = np.maximum(p, 0.0)
    s = shares_from_productivities(p, nu)
    v = (s * s_total) ** nu * p
    total = v.sum()
    return v - total * z, total, v


def simulate(
    model: Model,
    t_end: float,
    step: float = DEFAULT_STEP,
    sample_every: int = 10,
) -> Trajectory:
    """Fixed-step classic Runge-Kutta integration of the closed loop.

    Shares are recomputed from the current state at every stage.  Samples
    are taken every `sample_every` steps and always at the final time.
    """
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    f = model.matrix.entries
    nu = model.params.nu
    alpha = model.params.alpha
    s_total = model.params.s_total

    q0 = model.q0.q
    total0 = q0.sum()
    if total0 <= 0:
        raise DegenerateEconomyError(
            "initial qualities sum to zero; scale-free state undefined"
        )
    z = q0 / total0
    logsum = math.log(total0)

    n_full = int(math.floor(t_end / step + 1e-12))
    remainder = t_end - n_full * step
    if remainder < 1e-12 * step:
        remainder = 0.0

    times = [0.0]
    zs = [z.copy()]
    logs = [logsum]

    def rk4_step(z, logsum, h):
        dz1, dl1, _ = _field(z, logsum, f, nu, alpha, s_total)
        dz2, dl2, _ = _field(z + 0.5 * h * dz1, logsum + 0.5 * h * dl1, f, nu, alpha, s_total)
        dz3, dl3, _ = _field(z + 0.5 * h * dz2, logsum + 0.5 * h * dl2, f, nu, alpha, s_total)
        dz4, dl4, _ = _field(z + h * dz3, logsum + h * dl3, f, nu, alpha, s_total)
        z_new = z + (h / 6.0) * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
        l_new = logsum + (h / 6.0) * (dl1 + 2.0 * dl2 + 2.0 * dl3 + dl4)
        return z_new, l_new

    for k in range(1, n_full + 1):
        z, logsum = rk4_step(z, logsum, step)
        if not (np.all(np.isfinite(z)) and math.isfinite(logsum)):
            raise IntegrationBlowupError(
                f"non-finite state at t = {k * step}", last_good_time=times[-1]
            )
        if k % sample_every == 0:
            times.append(k * step)
            zs.append(z.copy())
            logs.append(logsum)
    if remainder > 0.0:
        z, logsum = rk4_step(z, logsum, remainder)
        if not (np.all(np.isfinite(z)) and math.isfinite(logsum)):
            raise IntegrationBlowupError(
                f"non-finite state at t = {t_end}", last_good_time=times[-1]
            )
    final_already_sampled = remainder == 0.0 and n_full % sample_every == 0
    if final_already_sampled:
        # k*step can land one ulp off t_end; pin the final stamp exactly
        times[-1] = t_end
    else:
        times.append(t_end)
        zs.append(z.copy())
        logs.append(logsum)

    times_arr = np.array(times)
    z_arr = np.vstack(zs)
    log_arr = np.array(logs)

    m = len(times)
    shares = np.empty((m, model.n))
    growth = np.empty((m, model.n))
    sector = np.empty(m)
    for i in range(m):
        p = f @ z_arr[i] + alpha * math.exp(-log_arr[i])
        p = np.maximum(p, 0.0)
        s = shares_from_productivities(p, nu)
        v = (s * s_total) ** nu * p
        shares[i] = s
        sector[i] = v.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            growth[i] = np.where(z_arr[i] > 0, v / np.where(z_arr[i] > 0, z_arr[i], 1.0), np.nan)

    return Trajectory(
        times=times_arr,
        z=z_arr,
        logsum=log_arr,
        shares=shares,
        tech_growth=growth,
        sector_growth=sector,
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
