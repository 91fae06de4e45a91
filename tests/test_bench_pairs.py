"""The paired-ratio summary of tools/bench_pairs.py."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import bench_pairs  # noqa: E402


def sign_test_coverage(k, d):
    """P(v_(d) <= median <= v_(k+1-d)) for k values, by counting outcomes."""
    return 1.0 - 2.0 * sum(math.comb(k, i) for i in range(d)) / 2**k


@pytest.mark.parametrize("k", range(1, 31))
def test_sign_test_interval_is_the_narrowest_with_the_coverage(k):
    values = [10.0 - 0.5 * i for i in range(k)]  # unsorted on purpose
    low, high, coverage = bench_pairs.sign_test_interval(values)
    ordered = sorted(values)
    d = ordered.index(low) + 1
    assert high == ordered[k - d]
    assert coverage == sign_test_coverage(k, d)
    if d > 1:
        assert coverage >= bench_pairs.SIGN_TEST_LEVEL
    if d + 1 <= (k + 1) // 2:
        assert sign_test_coverage(k, d + 1) < bench_pairs.SIGN_TEST_LEVEL


def test_ten_pairs_take_the_second_and_ninth_ratio():
    parent = [100.0] * 10
    change = [91.0, 95.0, 88.0, 102.0, 90.0, 93.0, 97.0, 89.0, 94.0, 92.0]
    summary = bench_pairs.paired_ratios(parent, change)
    assert summary["ratio_median"] == pytest.approx(0.925)
    assert summary["ratio_below_1_in_pairs"] == "9/10"
    assert summary["ratio_sign_test_interval"] == [0.89, 0.97]
    assert summary["ratio_interval_coverage"] == pytest.approx(1.0 - 22 / 1024)
    assert bench_pairs.paired_ratios([0.0, 1.0], [1.0, 1.0]) == {}
