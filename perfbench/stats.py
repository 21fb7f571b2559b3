"""Pure arithmetic of the benchmark: percentiles, self time, latency splits.

Nothing here touches the program under test, so the self-tests in
``perfbench/tests`` pin every rule the reported numbers rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: A reported tail percentile must have at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation.

    Same definition as ``numpy.percentile``'s default, written out so
    the rule is testable without the program's numerical stack.
    """
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def tail_percentile(n: int, candidates=(99, 95, 90, 85, 80, 75, 50)
                    ) -> int | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    With ``n`` samples, ``n * (1 - q/100)`` of them lie above the
    ``q``-th percentile; the rule keeps the tail estimate from resting
    on a handful of points.  None when even the lowest candidate fails.
    """
    for q in sorted(candidates, reverse=True):
        if n * (100 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return q
    return None


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child
    that overhangs its parent (a span absorbed from another clock) or
    siblings that overlap each other (concurrent threads) are never
    subtracted twice.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


@dataclass(frozen=True)
class LatencySplit:
    """One request's latency, split into the parts the generator can see.

    ``latency`` runs from the request's due time until the generator
    observed its outcome.  ``lateness`` is how late the generator
    submitted it; ``queue_wait`` and ``exec`` are the scheduler's own
    figures; ``unattributed`` is what remains (admission, dispatch,
    hand-off and the generator's notice of the outcome).
    """

    latency: float
    lateness: float
    queue_wait: float
    exec: float

    @property
    def unattributed(self) -> float:
        return self.latency - self.lateness - self.queue_wait - self.exec

    def parts(self) -> dict[str, float]:
        """The four parts; they sum to ``latency`` exactly."""
        return {"lateness": self.lateness, "queue_wait": self.queue_wait,
                "exec": self.exec, "unattributed": self.unattributed}
