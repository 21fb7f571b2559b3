"""Self-tests of the benchmark's arithmetic.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_percentile_matches_linear_interpolation():
    xs = [3.0, 1.0, 2.0, 4.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 50) == 2.5
    assert stats.percentile(xs, 25) == pytest.approx(1.75)
    assert stats.median([5.0]) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (1000, 99), (200, 95), (199, 90), (100, 90), (99, 85), (77, 85),
    (66, 80), (50, 80), (40, 75), (20, 50), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10


def test_union_length_merges_overlaps_and_gaps():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 1), (2, 3)]) == 2.0
    assert stats.union_length([(0, 2), (1, 3)]) == 3.0
    assert stats.union_length([(1, 3), (0, 4), (5, 6)]) == 5.0


def test_self_time_with_overlapping_children():
    # Parent [0, 10]; children overlap each other ([1, 4] and [3, 6])
    # and one overhangs the parent ([8, 12]): covered = [1, 6] + [8, 10].
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(3.0)
    # Children entirely outside the parent subtract nothing.
    assert stats.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0
    # Nested, non-overlapping children: self times of a tree sum to
    # the root's duration.
    assert stats.self_time(0.0, 10.0, [(0.0, 10.0)]) == 0.0


def test_latency_split_parts_sum_to_latency():
    split = stats.LatencySplit(latency=1.0, lateness=0.01,
                               queue_wait=0.3, exec=0.5)
    parts = split.parts()
    assert parts["unattributed"] == pytest.approx(0.19)
    assert sum(parts.values()) == pytest.approx(1.0)
    assert list(parts) == ["lateness", "queue_wait", "exec",
                           "unattributed"]
