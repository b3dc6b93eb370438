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

The stacked state (z, L) is integrated with DOP853, the Dormand-Prince
8(5,3) pair, under local error control at tolerance TOL, and the fixed
sample grid is filled from its 7th-order continuous extension (Hairer,
Norsett & Wanner, Solving ODEs I, II.5-6 and II.10).  The extension is one
order below the step, so inside long steps the samples are less accurate
than the integrated states at the step ends.
Many economies are integrated in lock step as rows of one stacked state,
so that each step's interpreter overhead is paid once for all of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .allocation import _research_rates
from .model import (
    DegenerateEconomyError,
    IntegrationBlowupError,
    Model,
    NegativeProductivityError,
    SpillnetError,
)

DEFAULT_STEP = 1e-2


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
    return _rates(y, np.matmul(f, y[..., :-1, None])[..., 0], nu, alpha, s_total)


def _rates(y, fz, nu, alpha, s_total):
    """_field at the states y whose spillover inflows fz = F z the caller
    has computed, with parameters per state as in _field."""
    # states in columns: per-state parameters broadcast along the last
    # axis, and the per-state sums of one state are scalars
    yt = y.T
    z = yt[:-1]
    p = (fz + alpha * np.exp(-y[..., -1:])).T
    negative = None
    if p.min() < 0:
        pmin = np.minimum.reduce(p)
        negative = pmin < -1e-12 * np.maximum(1.0, np.maximum.reduce(np.abs(p)))
        p = np.maximum(p, 0.0)
    s, v = _research_rates(p, nu, s_total)
    total = np.add.reduce(v)
    ydot = np.empty_like(yt)
    ydot[:-1] = v - total * z
    ydot[-1] = total
    return ydot.T, v.T, s.T, negative


# DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5 and II.10, code dop853): stage rows _A[1..11]; _A[12], the
# 8th-order weights, whose stage point is y_new and whose stage the next
# step's first; and _A[13..15], the three extra stages of the continuous
# extension.  Row i weighs the stages before it.
_A = tuple(
    np.array(row)
    for row in (
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (
            0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
            -0.017578125,
        ),
        (
            0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
            -0.015319437748624402, 0.008273789163814023,
        ),
        (
            0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
            27.59209969944671, 20.154067550477894, -43.48988418106996,
        ),
        (
            0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
            21.230051448181193, 15.279233632882423, -33.28821096898486,
            -0.020331201708508627,
        ),
        (
            -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
            -8.149787010746927, -18.52006565999696, 22.739487099350505,
            2.4936055526796523, -3.0467644718982196,
        ),
        (
            2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
            -17.9589318631188, 27.94888452941996, -2.8589982771350235,
            -8.87285693353063, 12.360567175794303, 0.6433927460157636,
        ),
        (
            0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
        ),
        (
            0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
            -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
            0.00820105229563469, 0.007567897660545699, -0.008298,
        ),
        (
            0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
            0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
            -0.00010834732869724932, 0.0003825710908356584,
            -0.00034046500868740456, 0.1413124436746325,
        ),
        (
            -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
            7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
            0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
        ),
    )
)
# the two error estimates, as weights on the first 12 stages: 8th minus
# 5th order, and 8th minus 3rd order
_E5 = np.array(
    [
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
    ]
)
_E3 = _A[12] - np.array(
    [
        0.2440944881889763779527559055, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.7338466882816118573413617415, 0.0, 0.0, 0.02205882352941176470588235294,
    ]
)
# the 7th-order continuous extension as weights on all 16 stages: with
# u = theta (1 - theta), y(theta) = y + h basis(theta) @ _DENSE @ k for
# basis(theta) = (theta, u, theta u, u^2, theta u^2, u^3, theta u^3),
# dop853's nested form with d1 = y_new - y = h _A[12] k,
# d2 = h k_1 - d1, d3 = 2 d1 - h (k_1 + k_13) and d4..d7 = h _D k
_D = np.array(
    [
        [
            -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
            -3.0689499459498917, 2.38466765651207, 2.117034582445028,
            -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
            -0.08899033645133331, 18.148505520854727, -9.194632392478356,
            -4.436036387594894,
        ],
        [
            10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
            165.20045171727028, -374.5467547226902, -22.113666853125306,
            7.733432668472264, -30.674084731089398, -9.332130526430229,
            15.697238121770845, -31.139403219565178, -9.35292435884448,
            35.81684148639408,
        ],
        [
            19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
            -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963,
            -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
            -60.19669523126412, 84.32040550667716, 11.99229113618279,
        ],
        [
            -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
            -231.5293791760455, 357.6391179106141, 93.40532418362432,
            -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
            96.32455395918828, -39.17726167561544, -149.72683625798564,
        ],
    ]
)
_B = np.pad(_A[12], (0, 4))
_FIRST, _LAST = np.eye(16)[0], np.eye(16)[12]
_DENSE = np.vstack((_B, _FIRST - _B, 2 * _B - _FIRST - _LAST, _D))

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
    """Adaptive DOP853 integration of B closed loops in lock step: one
    Trajectory per model, or the SpillnetError that stopped it.

    Row b integrates models[b] to t_ends[b] with its own time, step and
    accept/reject decision.  A step is accepted when the pair's combined
    5th/3rd-order error estimate, over the row's own n + 1 components and
    scaled componentwise by TOL * (1 + max(|y|, |y_new|)) on the stacked
    (z, L) state, is at most 1.  steps[b] and sample_every fix only the
    initial step and the sample grid: samples at multiples of
    sample_every * steps[b] and always at t_ends[b], filled from the
    pair's 7th-order continuous extension, whose three extra stages are
    computed only for rows whose step holds samples.  A stage or a sample
    with negative productivity rejects the row's step and halves it; the
    row fails with NegativeProductivityError once the step falls below
    1e-9 * steps[b].  A non-finite trial state or error estimate fails the
    row with IntegrationBlowupError at once.  Failed and finished rows
    leave the batch; the others carry on.  Economies of different sizes
    are padded to the largest n with inert technologies that get no share.
    Shares and growth rates come from the field evaluation that checks
    each sample.  A row's field_evaluations counts the evaluations made
    for it: one at the start (the first sample's), twelve per attempted
    step, three more per step that fills samples, and one per sample
    filled, also in a step that one of them then rejects.
    """
    b_all = len(models)
    t_ends = np.asarray(t_ends, dtype=float)
    steps = np.asarray(steps, dtype=float)
    if t_ends.shape != (b_all,) or steps.shape != (b_all,):
        raise ValueError("t_ends and steps need one entry per model")
    for name, values in (("t_end", t_ends), ("step", steps)):
        bad = ~(np.isfinite(values) & (values > 0))
        if bad.any():
            raise ValueError(f"{name} must be positive and finite, got {values[bad][0]}")
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
    # at the samples: states padded to n technologies (z, zeros, then L),
    # v, shares and sector growth
    out = np.zeros((b_all, grid.shape[1] - 1, n + 1))
    out_v = np.zeros(out.shape[:2] + (n,))
    out_s = np.zeros_like(out_v)
    out_g = np.zeros(out.shape[:2])
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
        ydot, v, shares, negative = _field(y0, model.matrix.entries, p.nu, p.alpha, p.s_total)
        if negative:
            results[b] = NegativeProductivityError(
                "productivity is negative at the initial state"
            )
            continue
        padding = [m] * (n - m)
        out[b, 0] = np.insert(y0, padding, 0.0)
        out_v[b, 0, :m], out_s[b, 0, :m], out_g[b, 0] = v, shares, ydot[-1]
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
    i_next = np.ones(rows.size, dtype=int)  # each row's next sample
    k = np.empty((rows.size, 16, n + 1))
    k[:, 0] = k0[rows]
    attempted = np.zeros(b_all, dtype=int)
    rejected = np.zeros(b_all, dtype=int)
    # evaluations beyond the first and the twelve per attempted step
    extra = np.zeros(b_all, dtype=int)

    steps_taken = 0  # by every row still in the batch
    while rows.size:
        steps_taken += 1
        last = t + h >= t_end
        h = np.where(last, t_end - t, h)
        hc = h[:, None]
        negative = np.zeros(rows.size, dtype=bool)
        # overflowing stages give a non-finite estimate, which is handled below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(1, 13):
                # the last stage point is the 8th-order solution y_new
                y_new = y + hc * (_A[i] @ k[:, :i])
                k[:, i], _, _, neg = _field(y_new, f, nu, alpha, s_total)
                if neg is not None:
                    negative |= neg
            scale = TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
            e5 = np.add.reduce((_E5 @ k[:, :12] / scale) ** 2, axis=1)
            e3 = np.add.reduce((_E3 @ k[:, :12] / scale) ** 2, axis=1)
            denom = e5 + 0.01 * e3
            err = np.where(denom == 0.0, 0.0, h * e5 / np.sqrt(denom * dof))
        finite = np.isfinite(err) & np.isfinite(y_new).all(axis=1)
        accept = finite & (err <= 1.0) & ~negative
        t_new = np.where(last, t_end, t + h)

        r = np.flatnonzero(accept & (grid[rows, i_next] <= t_new))
        if r.size:
            kr, yr, hr, fr, nur, alphar, sr = _take(r, k, y, hc, f, nu, alpha, s_total)
            for i in range(13, 16):
                kr[:, i], _, _, neg = _field(yr + hr * (_A[i] @ kr[:, :i]), fr, nur, alphar, sr)
                if neg is not None:
                    negative[r] |= neg
            # the continuous extension of y and, F z being linear in z, of
            # F z: F meets the step's 8 vectors once per row, not every sample
            ext = np.concatenate((yr[:, None], _DENSE @ kr), axis=1)
            ext = np.concatenate((ext, ext[..., :-1] @ fr.transpose(0, 2, 1)), axis=2)
            times = grid[rows[r]]
            upto = times <= t_new[r, None]
            # one entry per (row, sample) pair in (t, t_new]
            pair, col = np.nonzero(upto & (times > t[r, None]))
            th = (times[pair, col] - t[r[pair]]) / h[r[pair]]
            u = th * (1 - th)
            u2 = u * u
            basis = np.column_stack((th, u, th * u, u2, th * u2, u * u2, th * u * u2))
            # products per pair, not per batch.  A row's bits still depend
            # on which rows share its batch: padding to the batch's largest
            # n changes the order of the row's reductions
            ext = ext[pair]
            ys = ext[:, 0] + hr[pair] * (basis[:, None] @ ext[:, 1:])[:, 0]
            ys, fz = ys[:, : n + 1], ys[:, n + 1 :]
            # a sample at the step's end is the integrated state itself
            end = th == 1.0
            ys[end] = y_new[r[pair[end]]]
            ydot, v, shares, neg = _rates(ys, fz, nur[pair], alphar[pair], sr[pair])
            count = np.add.reduce(upto, axis=1) - i_next[r]
            extra[rows[r]] += 3 + count
            if neg is not None:
                negative[r[pair[neg]]] = True
            accept &= ~negative
            kept = accept[r[pair]]
            at = rows[r[pair[kept]]], col[kept]
            out[at], out_v[at], out_s[at], out_g[at] = (
                ys[kept], v[kept], shares[kept], ydot[kept, -1]
            )
            i_next[r] += np.where(accept[r], count, 0)

        # the error estimate is exactly 0 on solutions linear in t
        factor = np.minimum(np.maximum(_SAFETY * np.maximum(err, 1e-10) ** -0.125, _FAC_MIN), _FAC_MAX)
        factor = np.where(negative, 0.5, factor)
        rejected[rows] += ~accept
        blowup = ~finite & ~negative
        h = h * factor
        failed = blowup | (~accept & (h < h_min))
        for r in np.flatnonzero(failed):
            tr = float(t[r])
            if blowup[r]:
                error = IntegrationBlowupError(
                    f"non-finite state in the step from t = {tr}", last_good_time=tr
                )
            elif negative[r]:
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
        k[:, 0] = np.where(accept[:, None], k[:, 12], k[:, 0])
        t = np.where(accept, t_new, t)
        drop = (last & accept) | failed
        if drop.any():
            attempted[rows[drop]] = steps_taken
            rows, y, k, f, nu, alpha, s_total, dof, t, t_end, h, h_min, i_next = _take(
                ~drop, rows, y, k, f, nu, alpha, s_total, dof, t, t_end, h, h_min, i_next
            )

    for b in range(b_all):
        if results[b] is not None:
            continue
        m, ns = sizes[b], n_samples[b]
        zs = out[b, :ns, :m].copy()
        v = out_v[b, :ns, :m]
        shares = out_s[b, :ns, :m].copy()
        if m < n:
            # where no technology has productivity, the shares are uniform
            # over the padding technologies too
            shares[out_s[b, :ns, m:].any(axis=1)] = 1.0 / m
        with np.errstate(divide="ignore", invalid="ignore"):
            growth = np.where(zs > 0, v / np.where(zs > 0, zs, 1.0), np.nan)
        results[b] = Trajectory(
            times=grids[b],
            z=zs,
            logsum=out[b, :ns, -1].copy(),
            shares=shares,
            tech_growth=growth,
            sector_growth=out_g[b, :ns].copy(),
            field_evaluations=1 + 12 * int(attempted[b]) + int(extra[b]),
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


def _leader_sets(shares: np.ndarray, theta: float) -> np.ndarray:
    """The leader set of every row of `shares`, as a boolean membership
    matrix: the minimal set of technologies whose shares, sorted
    descending (ties by index), sum to at least theta."""
    n = shares.shape[1]
    order = np.argsort(-shares, axis=1, kind="stable")
    reached = np.cumsum(np.take_along_axis(shares, order, axis=1), axis=1) >= theta
    # a row that never reaches theta takes every technology
    size = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, n)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
    return rank < size[:, None]


def detect_transitions(
    traj: Trajectory, theta: float = 0.6, hold: float = 1.0
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
