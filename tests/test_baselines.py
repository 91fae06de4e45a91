"""Threshold rules, the robust scale estimate, and the normal quantile."""

import math

import numpy as np
import pytest
import scipy.special

from mapthresh import (
    DegenerateDataError,
    DomainError,
    FixedThreshold,
    VariableThreshold,
    aic_threshold,
    bic_threshold,
    fdr_sequence,
    fixed_threshold_estimate,
    foster_stine_sequence,
    mad_sigma,
    normal_quantile,
    rank_sequence,
    ric_threshold,
    select_k,
    tk_sequence,
    universal_threshold,
    variable_threshold_estimate,
)

# ---------------------------------------------------------------------------
# fixed cutoffs


def test_universal_threshold_values():
    assert universal_threshold(1000, 1.0) == pytest.approx(3.716922, abs=1e-6)
    assert universal_threshold(2, 1.0) == pytest.approx(1.177410, abs=1e-6)
    assert universal_threshold(1000, 2.0) == 2 * universal_threshold(1000, 1.0)


def test_universal_threshold_domain():
    with pytest.raises(DomainError):
        universal_threshold(1, 1.0)
    with pytest.raises(DomainError):
        universal_threshold(1000, 0.0)


def test_fixed_constructor_family():
    assert aic_threshold(2.0) == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert bic_threshold(100, 1.5) == pytest.approx(1.5 * math.sqrt(math.log(100)), rel=1e-12)
    assert ric_threshold(777, 1.3) == universal_threshold(777, 1.3)


def test_fixed_threshold_extremes():
    y = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(fixed_threshold_estimate(y, 0.0).mu_hat, y)
    zero = fixed_threshold_estimate(y, math.inf)
    assert np.all(zero.mu_hat == 0.0)
    assert zero.k_hat == 0


def test_fixed_threshold_keeps_boundary():
    result = fixed_threshold_estimate(np.array([3.0, -1.0, 0.5]), 1.0)
    assert np.array_equal(result.mu_hat, [3.0, -1.0, 0.0])
    assert result.k_hat == 2


def test_fixed_threshold_rejects_bad_lambda():
    with pytest.raises(DomainError):
        FixedThreshold(-0.1)
    with pytest.raises(DomainError):
        FixedThreshold(math.nan)


# ---------------------------------------------------------------------------
# variable cutoffs


def test_variable_threshold_worked_example():
    y = np.array([3.0, 2.0, 0.1])  # squares 9, 4, 0.01
    lams = np.sqrt(np.array([5.0, 5.0, 5.0]))
    result = variable_threshold_estimate(y, lams)
    k_hat, objective = select_k(rank_sequence(y).sorted_sq, np.cumsum(np.r_[0.0, lams**2]))
    assert np.allclose(objective, [13.01, 9.01, 10.01, 15.0], atol=1e-12)
    assert result.k_hat == k_hat == 1
    assert np.array_equal(result.mu_hat, [3.0, 0.0, 0.0])


def test_variable_reduces_to_fixed_for_constant_sequence():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.standard_normal(15) * 2
        lam = float(rng.uniform(0.5, 3.0))
        fixed = fixed_threshold_estimate(y, lam)
        var = variable_threshold_estimate(y, np.full(15, lam))
        assert var.k_hat == fixed.k_hat
        assert np.array_equal(var.mu_hat, fixed.mu_hat)


def test_variable_foster_stine_matches_quadratic_rescan():
    rng = np.random.default_rng(99)
    y = rng.standard_normal(100) * 2.5
    lams = foster_stine_sequence(100, 1.0)
    result = variable_threshold_estimate(y, lams)
    sq = np.sort(y**2)[::-1]
    slow = [sq[k:].sum() + (lams[:k] ** 2).sum() for k in range(101)]
    assert result.k_hat == int(np.argmin(slow))
    k_hat, objective = select_k(sq, np.cumsum(np.r_[0.0, lams**2]))
    assert k_hat == result.k_hat
    assert np.allclose(objective, slow, rtol=1e-10, atol=1e-10)


def test_variable_threshold_validation():
    VariableThreshold(np.array([1.0, 0.0]))  # zero entries are legal
    with pytest.raises(DomainError):
        VariableThreshold(np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        VariableThreshold(np.array([1.0, math.inf]))
    with pytest.raises(DomainError):
        variable_threshold_estimate(np.zeros(3), np.array([1.0, 1.0]))  # length


# ---------------------------------------------------------------------------
# rank-dependent sequences


def test_fdr_sequence_pinned_values():
    lams = fdr_sequence(1000, 1.0, q=0.05)
    # tail probability (i/n)(q/2) reaches 0.025 at the last rank
    assert lams[-1] == pytest.approx(1.959964, abs=1e-6)
    assert lams[0] == pytest.approx(4.0556, abs=1e-4)
    assert np.all(np.diff(lams) < 0)


def test_fdr_sequence_scales_and_validates():
    assert np.allclose(fdr_sequence(100, 3.0, 0.1), 3.0 * fdr_sequence(100, 1.0, 0.1))
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            fdr_sequence(100, 1.0, bad)


def test_fdr_small_q_dominates_universal_at_top_rank():
    assert fdr_sequence(1000, 1.0, q=0.001)[0] > universal_threshold(1000, 1.0)


def test_foster_stine_values():
    fs = foster_stine_sequence(1000, 1.0)
    assert fs[9] == pytest.approx(math.sqrt(2 * math.log(100)), rel=1e-12)
    assert fs[9] == pytest.approx(3.034854, abs=1e-6)
    assert fs[-1] == 0.0
    assert np.all(np.diff(fs) < 0)


def test_tk_doubles_foster_stine_energy():
    fs = foster_stine_sequence(50, 1.3)
    tk = tk_sequence(50, 1.3)
    assert np.allclose(tk, math.sqrt(2) * fs, rtol=1e-12)


def test_sequences_linear_in_sigma():
    for maker in (foster_stine_sequence, tk_sequence):
        assert np.allclose(maker(64, 2.5), 2.5 * maker(64, 1.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# robust scale


def test_mad_sigma_pinned_example():
    assert mad_sigma(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(
        1.48258, abs=1e-5
    )


def test_mad_sigma_consistency_on_noise():
    y = np.random.default_rng(12).standard_normal(100_000)
    assert 0.98 < mad_sigma(y) < 1.02


def test_mad_sigma_shift_invariant():
    y = np.random.default_rng(4).standard_normal(501) * 2
    assert mad_sigma(y + 17.5) == pytest.approx(mad_sigma(y), rel=1e-12)


def test_mad_sigma_degenerate():
    with pytest.raises(DegenerateDataError):
        mad_sigma(np.full(10, 3.2))
    with pytest.raises(DegenerateDataError):
        # more than half the entries at the median still gives MAD = 0
        mad_sigma(np.array([5.0, 5.0, 5.0, 5.0, 1.0, 9.0]))


# ---------------------------------------------------------------------------
# normal quantile


def test_quantile_against_reference_over_full_range():
    # scipy's ndtri is the independent oracle; it is not used by the package
    p = np.concatenate(
        [
            np.logspace(-12, math.log10(0.5), 500),
            1.0 - np.logspace(-12, math.log10(0.5), 500)[::-1],
        ]
    )
    ours = normal_quantile(p)
    ref = scipy.special.ndtri(p)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_quantile_key_points():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(1 - 2.5e-5) == pytest.approx(4.0556, abs=1e-4)


def test_quantile_antisymmetry():
    for p in (0.51, 0.75, 0.975, 1 - 1e-7, 1 - 1e-11):
        assert normal_quantile(p) + normal_quantile(1 - p) == pytest.approx(
            0.0, abs=1e-12
        )


def test_quantile_roundtrip_through_cdf():
    p = np.logspace(-10, -0.35, 200)
    x = normal_quantile(p)
    back = scipy.special.ndtr(x)
    assert np.max(np.abs(back - p) / p) < 1e-9


def test_quantile_shapes_and_domain():
    assert isinstance(normal_quantile(0.3), float)
    arr = normal_quantile(np.array([[0.2, 0.5], [0.9, 0.99]]))
    assert arr.shape == (2, 2)
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def test_quantile_monotone():
    p = np.linspace(1e-6, 1 - 1e-6, 1001)
    assert np.all(np.diff(normal_quantile(p)) > 0)
