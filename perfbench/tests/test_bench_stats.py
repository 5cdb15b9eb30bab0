"""Statistics helpers: medians, quartiles, tails with ten samples beyond."""

import math
import statistics

import pytest

import stats

INF = math.inf


def test_median_and_quartiles_match_the_statistics_module():
    values = [3.1, 0.4, 9.9, 2.2, 5.0, 7.7, 1.0]
    assert stats.median(values) == 3.1
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)


def test_empty_or_single_inputs_are_refused():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([1.0])
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0


def test_a_failure_is_an_infinite_latency_that_misses_every_limit():
    values = [10.0] * 95 + [INF] * 5
    assert stats.percentile(values, 90) == 10.0
    assert stats.percentile(values, 99) == INF
    assert stats.percentile([1.0, INF], 50) == 1.0
    assert stats.percentile([INF, INF, 1.0], 50) == INF


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.min_samples(99) == 1000


def test_tail_percentile_is_the_highest_with_ten_beyond():
    assert stats.tail_percentile(range(1, 101)) == (90.0, 90)
    assert stats.tail_percentile(range(1, 200)) == (90.0, 180)
    assert stats.tail_percentile(range(1, 201)) == (95.0, 190)
    assert stats.tail_percentile(range(1, 40)) == (50.0, 20)
    assert stats.tail_percentile(range(1, 20)) is None


def test_failure_share_comes_with_its_base():
    assert stats.failure_share(3, 120) == (0.025, 120)
    assert stats.failure_share(0, 1) == (0.0, 1)
    with pytest.raises(ValueError):
        stats.failure_share(0, 0)
    with pytest.raises(ValueError):
        stats.failure_share(5, 4)
