import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spillnet import (
    DegenerateEconomyError,
    EconomyParams,
    NegativeProductivityError,
    QualityState,
    SpilloverMatrix,
    compute_shares,
    market_statics,
    shares_from_productivities,
)

P = EconomyParams(nu=0.5, alpha=1.0, s_total=1.0, c=1.0)


def q(*vals):
    return QualityState(0.0, np.array(vals, dtype=float))


def test_zero_matrix_gives_uniform_shares():
    out = compute_shares(SpilloverMatrix(np.zeros((3, 3))), q(5, 1, 0.2), P)
    np.testing.assert_allclose(out.shares, 1 / 3)
    np.testing.assert_allclose(out.scientists.sum(), P.s_total)


def test_stacked_productivities_give_shares_row_by_row():
    p = np.array([[2.0, 1.0, 0.5], [0.0, 0.0, 0.0], [1e-300, 3.0, 3.0]])
    stacked = shares_from_productivities(p, 0.6)
    for row, shares in zip(p, stacked):
        np.testing.assert_array_equal(shares, shares_from_productivities(row, 0.6))
    np.testing.assert_array_equal(stacked[1], 1 / 3)


def test_two_to_one_productivity_gives_four_to_one_shares():
    # productivities (2, 1), exponent 1/(1-nu) = 2 => shares (4/5, 1/5)
    m = SpilloverMatrix([[1.0, 0.0], [0.0, 0.0]])
    out = compute_shares(m, q(1, 1), P)
    np.testing.assert_allclose(out.shares, [0.8, 0.2], atol=1e-14)


def test_homogeneous_matrix_equal_qualities_uniform():
    m = SpilloverMatrix(np.full((4, 4), 0.7))
    out = compute_shares(m, q(2, 2, 2, 2), P)
    np.testing.assert_allclose(out.shares, 0.25, atol=1e-14)


def test_negative_productivity_names_offending_row():
    m = SpilloverMatrix([[-1.0, 0.0], [0.0, 0.0]])
    params = EconomyParams(nu=0.5, alpha=0.0, s_total=1.0)
    with pytest.raises(NegativeProductivityError, match=r"\[0\]"):
        compute_shares(m, q(1, 1), params)


def test_exact_ties_get_exactly_equal_shares():
    m = SpilloverMatrix([[0.3, 0.0], [0.0, 0.3]])
    out = compute_shares(m, q(7, 7), P)
    assert out.shares[0] == out.shares[1]


def test_overflow_guard_with_extreme_exponent():
    params = EconomyParams(nu=0.99, alpha=0.0, s_total=1.0)  # exponent 100
    m = SpilloverMatrix([[1e8, 0.0], [0.0, 9e7]])
    out = compute_shares(m, q(1, 1), params)
    assert np.isfinite(out.shares).all()
    assert out.shares.sum() == pytest.approx(1.0, abs=1e-12)


# subnormal floats are excluded: homogeneity of the share formula is exact
# in the reals but denormal rounding breaks bitwise comparisons
nonneg_matrix = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(0, 10, allow_nan=False, allow_subnormal=False),
)
nonneg_q = arrays(
    np.float64,
    (4,),
    elements=st.floats(0, 10, allow_nan=False, allow_subnormal=False),
)


@given(f=nonneg_matrix, qv=nonneg_q, alpha=st.floats(0, 5), nu=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_shares_form_a_simplex(f, qv, alpha, nu):
    params = EconomyParams(nu=nu, alpha=alpha, s_total=2.0)
    out = compute_shares(SpilloverMatrix(f), QualityState(0.0, qv), params)
    assert np.all(out.shares >= 0)
    assert abs(out.shares.sum() - 1.0) < 1e-12
    assert abs(out.scientists.sum() - params.s_total) < 1e-12


@given(f=nonneg_matrix, qv=nonneg_q, alpha=st.floats(0, 5), nu=st.floats(0.05, 0.9))
@settings(max_examples=200, deadline=None)
def test_share_ratio_law(f, qv, alpha, nu):
    params = EconomyParams(nu=nu, alpha=alpha, s_total=1.0)
    p = f @ qv + alpha
    out = compute_shares(SpilloverMatrix(f), QualityState(0.0, qv), params)
    for i in range(4):
        for j in range(4):
            if out.shares[j] > 1e-6 and p[j] > 0:
                expected = (p[i] / p[j]) ** (1.0 / (1.0 - nu))
                assert out.shares[i] / out.shares[j] == pytest.approx(
                    expected, rel=1e-10, abs=1e-10
                )


@given(f=nonneg_matrix, qv=nonneg_q, lam=st.floats(1e-3, 1e3), nu=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_scale_invariance_at_alpha_zero(f, qv, lam, nu):
    params = EconomyParams(nu=nu, alpha=0.0, s_total=1.0)
    a = compute_shares(SpilloverMatrix(f), QualityState(0.0, qv), params)
    b = compute_shares(SpilloverMatrix(f), QualityState(0.0, lam * qv), params)
    np.testing.assert_allclose(a.shares, b.shares, atol=1e-12)


def test_market_statics_hand_values():
    params = EconomyParams(nu=0.5, alpha=1.0, s_total=1.0, c=2.0)
    ms = market_statics(q(1, 1), params)
    assert ms.wage == pytest.approx(np.sqrt(2.0), rel=1e-14)
    np.testing.assert_allclose(ms.labor, [0.5, 0.5])
    assert ms.y_l == pytest.approx(2.0, rel=1e-12)
    # price is the 2x markup on marginal labor cost w/q
    np.testing.assert_allclose(ms.prices, 2 * ms.wage)
    # profit c^2/(4w) q
    np.testing.assert_allclose(ms.profits, 4.0 / (4 * ms.wage))


def test_market_statics_single_active_technology():
    params = EconomyParams(nu=0.5, alpha=1.0, s_total=1.0, c=2.0)
    ms = market_statics(q(4, 0, 0), params)
    np.testing.assert_allclose(ms.labor, [1, 0, 0])
    assert ms.y_l == pytest.approx(4.0)
    assert ms.flagged_prices == (1, 2)
    assert np.isinf(ms.prices[1]) and np.isinf(ms.prices[2])


def test_market_statics_degenerate():
    with pytest.raises(DegenerateEconomyError):
        market_statics(q(0, 0), P)


def test_sector_output_equals_total_quality(rng):
    # closed-form identity Y_L = sum(q) under the square-root aggregate
    for _ in range(300):
        n = rng.integers(1, 8)
        qv = rng.uniform(0, 10, n)
        if qv.sum() == 0:
            qv[0] = 1.0
        ms = market_statics(QualityState(0.0, qv), P)
        assert ms.y_l == pytest.approx(qv.sum(), rel=1e-12, abs=1e-10)
        assert ms.labor.sum() == pytest.approx(1.0, abs=1e-12)
