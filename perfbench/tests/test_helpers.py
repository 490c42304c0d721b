"""Quick tests of the benchmark's own helpers, on hand-worked cases.

Run with ``python3 -m pytest perfbench/tests``; they import nothing of the
program under test.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from common import (RunResult, nearest_rank, spread, tail,  # noqa: E402
                    tail_percentile)
from reference import (candidate_sizes, check_configuration,  # noqa: E402
                       kernel_front, merge_optimum, pareto, undivided_time,
                       wr_optimum)

# size -> [(time, workspace)]: undivided under no workspace is 5.0, two
# halves 3.0; 50 bytes admit the fast full-batch algorithm (2.0).
TABLE = {1: [(1.0, 0)], 2: [(1.5, 0), (1.2, 100)], 4: [(2.0, 50), (5.0, 0)]}


def test_nearest_rank():
    values = list(range(10, 0, -1))
    assert nearest_rank(values, 0.5) == 5
    assert nearest_rank(values, 0.9) == 9
    assert nearest_rank(values, 0.91) == 10
    assert nearest_rank(values, 1.0) == 10
    assert nearest_rank(values, 0.01) == 1
    with pytest.raises(ValueError):
        nearest_rank(values, 0.0)
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_tail_needs_forty_samples_and_ten_beyond():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(50) == 80
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(32040) == 99
    assert tail(list(range(1, 40))) is None
    # 40 samples: p75 is the 30th, and ten samples lie beyond it.
    assert tail(list(range(1, 41))) == (75, 30)
    assert tail(list(range(1, 101))) == (90, 90)


def test_spread_is_interquartile_distance_over_median():
    assert spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    assert spread([7.0, 7.0, 7.0]) == 0.0
    assert spread([5.0]) == 0.0


def test_candidate_sizes():
    assert candidate_sizes("powerOfTwo", 12) == [1, 2, 4, 8, 12]
    assert candidate_sizes("powerOfTwo", 8) == [1, 2, 4, 8]
    assert candidate_sizes("all", 3) == [1, 2, 3]
    assert candidate_sizes("undivided", 7) == [7]


def test_wr_optimum_by_hand():
    assert wr_optimum(TABLE, 4, 0) == 3.0  # 2 + 2 at 1.5 each
    assert wr_optimum(TABLE, 4, 50) == 2.0  # undivided, fast algorithm
    assert wr_optimum(TABLE, 4, 100) == 2.0
    assert wr_optimum(TABLE, 3, 0) == 2.5  # 2 + 1
    assert undivided_time(TABLE, 4, 0) == 5.0
    assert undivided_time(TABLE, 4, 50) == 2.0
    assert wr_optimum({2: [(1.0, 0)]}, 3, 0) == float("inf")


def test_pareto_keeps_undominated_points():
    assert pareto([(3, 10), (2, 10), (5, 0), (4, 20)]) == [(5, 0), (2, 10)]


def test_kernel_front_and_merge_by_hand():
    front = kernel_front(TABLE, 4, cap=100)
    assert front == [(3.0, 0), (2.0, 50)]
    other = [(4.0, 0), (1.0, 60)]
    # Choices: 3+4 @0, 2+4 @50, 3+1 @60, 2+1 @110.
    assert merge_optimum([front, other], 100) == 4.0
    assert merge_optimum([front, other], 60) == 4.0
    assert merge_optimum([front, other], 59) == 6.0
    assert merge_optimum([front, other], 0) == 7.0
    assert merge_optimum([front, other], 110) == 3.0
    assert merge_optimum([[(1.0, 10)]], 5) == float("inf")


def test_check_configuration():
    def config(*micros):
        return SimpleNamespace(
            micros=[SimpleNamespace(micro_batch=b, workspace=w) for b, w in micros],
            batch=sum(b for b, _ in micros))

    assert check_configuration(config((2, 10), (2, 50)), 4, 50) is None
    assert "sum" in check_configuration(config((2, 10)), 4, 50)
    assert "over limit" in check_configuration(config((4, 60)), 4, 50)


def test_latencies_report_the_median_where_no_tail_exists():
    result = RunResult()
    cold = [0.001 * i for i in range(1, 40)]  # 39 samples: no tail
    warm = [0.001 * i for i in range(1, 101)]  # p90 is the 90th
    result.put_latencies(cold, warm, ("a", "a_tail", "b", "b_tail"))
    assert result.metrics["cold_ms"] == (pytest.approx(20.0), "ms")
    assert result.metrics["cold_tail_ms"] == result.metrics["cold_ms"]
    assert result.metrics["warm_tail_ms"] == (pytest.approx(90.0), "ms")
    assert "a_tail (p75)" not in result.named
    assert result.named["b_tail (p90)"][2] == 100

