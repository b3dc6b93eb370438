"""Market-clearing scientist allocation and production-side statics.

The share of scientists hired by R&D firm i is

    s_i = (F_i q + alpha)^(1/(1-nu)) / sum_j (F_j q + alpha)^(1/(1-nu)),

the outcome of perfect competition for a fixed supply of scientists when
all firms face the same marginal return to quality.  Everything here is a
pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DegenerateEconomyError,
    DimensionMismatchError,
    EconomyParams,
    MarketStatics,
    NegativeProductivityError,
    QualityState,
    SpilloverMatrix,
)


@dataclass(frozen=True)
class AllocationShares:
    """Scientist shares s_i (a simplex vector) and headcounts S_i = s_i * S."""

    shares: np.ndarray
    scientists: np.ndarray


def shares_from_productivities(p: np.ndarray, nu: float | np.ndarray) -> np.ndarray:
    """Simplex of shares from raw R&D productivities p_i = F_i q + alpha,
    along the last axis, so a stack of productivity vectors gives a stack
    of share vectors.  nu is one exponent, or one per vector of the stack.

    Productivities are normalized by their maximum before exponentiation:
    shares are homogeneous of degree zero in p, and the rescaling prevents
    overflow when 1/(1-nu) is large.  All-zero productivities mean firms
    are indistinguishable, which yields the uniform allocation.
    """
    p = np.asarray(p, dtype=float)
    # transposed, a stack of vectors reduces to one value per vector and a
    # single vector to a scalar, which keeps the one-vector call as cheap
    # as scalar arithmetic
    pt = p.T
    pmax = np.maximum.reduce(pt)
    flat = pmax <= 0.0
    # a stack is masked vector by vector; a single vector only when flat
    if flat.ndim or flat:
        pt = np.where(flat, 1.0, pt)
        pmax = np.where(flat, 1.0, pmax)
    w = (pt / pmax) ** (1.0 / (1.0 - nu))
    return (w / np.add.reduce(w)).T


def _research_rates(p, nu, s_total):
    """Shares s and research rates v = (s S)^nu * p from productivities p
    with the technologies along the first axis: one vector, or a stack of
    them in the columns, with nu and s_total one value or one per column.

    The one step from productivities to quality growth, shared by the
    integrator's field and the long-run fixed point.
    """
    s = shares_from_productivities(p.T, nu).T
    return s, (s * s_total) ** nu * p


def compute_shares(
    matrix: SpilloverMatrix, q: QualityState, params: EconomyParams
) -> AllocationShares:
    """Market-clearing allocation of scientists at quality vector q."""
    if q.n != matrix.n:
        raise DimensionMismatchError(
            f"quality vector has length {q.n} but matrix is {matrix.n}x{matrix.n}"
        )
    p = matrix.entries @ q.q + params.alpha
    bad = np.flatnonzero(p < 0)
    if bad.size:
        raise NegativeProductivityError(
            f"productivity F_i q + alpha is negative for rows {bad.tolist()}"
        )
    s = shares_from_productivities(p, params.nu)
    return AllocationShares(shares=s, scientists=s * params.s_total)


def market_statics(q: QualityState, params: EconomyParams) -> MarketStatics:
    """Wage, labor allocation, prices, profits, outputs, and sector output.

    Closed forms under beta = 1/2: the wage clearing the unit labor supply
    is w = (c/2) sqrt(sum q); labor splits proportionally to quality; the
    monopoly price is the 2x markup on marginal labor cost w/q_i.
    """
    total = q.q.sum()
    if total <= 0.0:
        raise DegenerateEconomyError("all qualities are zero; no production possible")
    w = 0.5 * params.c * np.sqrt(total)
    labor = q.q / total
    with np.errstate(divide="ignore"):
        prices = np.where(q.q > 0, 2.0 * w / np.where(q.q > 0, q.q, 1.0), np.inf)
    flagged = tuple(int(i) for i in np.flatnonzero(q.q == 0))
    profits = params.c**2 / (4.0 * w) * q.q
    outputs = q.q * labor
    y_l = float(np.sqrt(outputs).sum() ** 2)
    return MarketStatics(
        wage=float(w),
        labor=labor,
        prices=prices,
        profits=profits,
        outputs=outputs,
        y_l=y_l,
        flagged_prices=flagged,
    )
