"""Pure statistics of the benchmark: percentiles, self time, ladders.

Nothing here touches the program under test, so every rule the
benchmark reports by is unit-tested in ``perfbench/tests``.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Percentiles a tail metric may report, highest first.  A timing is
# reported at the highest one that leaves at least MIN_BEYOND samples
# beyond it, so a short phase never claims a p99 it cannot resolve.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with >= MIN_BEYOND of ``n`` samples beyond it.

    ``None`` when even the median has fewer than MIN_BEYOND samples
    above it (fewer than 20 samples).
    """
    for p in TAIL_CANDIDATES:
        # round away float noise: 1000 samples leave exactly 10 beyond p99
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def summarize(values: Sequence[float], expected_n: Optional[float] = None) -> Dict:
    """Median plus the tail the sample size supports, with the count.

    ``expected_n`` (the count a phase's schedule planned on average)
    caps the tail percentile, so runs whose realised counts straddle a
    threshold still report the same percentile.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(int(min(n, expected_n)) if expected_n is not None else n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": tail_p,
        # too few samples for any tail: report the worst one, flagged
        # by tail_p=None, rather than a percentile it cannot support
        "tail": percentile(values, tail_p) if tail_p is not None else max(values),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)``, the rule
    the benchmark's steadiness is judged by.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


# ----------------------------------------------------------------------
# arrival schedules
# ----------------------------------------------------------------------
def poisson_schedule(rate: float, duration: float, seed: str,
                     count: Optional[int] = None) -> List[float]:
    """Arrival offsets (s) of a Poisson process at ``rate``/s.

    The process runs for ``duration`` seconds: the gaps are exponential
    draws.  Given ``count`` (a ladder rung scores a fixed number of
    requests), it is the process conditioned on exactly ``count``
    arrivals in ``count / rate`` seconds, whose arrival times are
    sorted uniform draws.  A rung then offers its nominal rate: 40
    free-running arrivals span that time only to within about a sixth,
    and a rung near capacity passed or failed on that alone.  Draws
    come from ``random.Random(seed)``, so one seed string always yields
    one schedule.
    """
    if rate <= 0 or (duration <= 0 and count is None):
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    if count is not None:
        return sorted(rng.uniform(0.0, count / rate) for _ in range(count))
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict]) -> Dict:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` carry ``id``, ``parent`` (an id or ``None``), ``start``
    and ``end``.  Children are clipped to their parent's interval and
    overlapping children count once, so summing self times over a tree
    gives the root's duration exactly when children nest inside their
    parents and do not overlap; any excess shows spans that do not nest.
    """
    children: Dict = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = union_length(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(s["id"], ())
        )
        result[s["id"]] = (end - start) - covered
    return result


# ----------------------------------------------------------------------
# rate ladder
# ----------------------------------------------------------------------
BACKLOG_SHARE = 0.1


def rung_verdict(latencies_ms: Sequence[float], failed: int, backlog_end: int,
                 limit_ms: float) -> Tuple[bool, str]:
    """Does one ladder rung meet the latency limit without a growing backlog?

    A rung fails on any failed request, on a tail (by the percentile
    rule) above ``limit_ms``, or when, as its last request fell due,
    more than a tenth of its requests were still waiting for a
    connection: the backlog grew faster than the server drained it.
    """
    if failed:
        return False, f"{failed} failed"
    if not latencies_ms:
        return False, "no samples"
    tail = summarize(latencies_ms)
    if tail["tail"] > limit_ms:
        label = f"p{tail['tail_p']:g}" if tail["tail_p"] is not None else "max"
        return False, f"{label} {tail['tail']:.1f} ms > {limit_ms:g} ms"
    if backlog_end > BACKLOG_SHARE * len(latencies_ms):
        return False, f"{backlog_end} requests still queued at the last arrival"
    return True, "ok"


def pick_max_rps(rungs: Sequence[Dict]) -> float:
    """Highest offered rate met before the first failing rung (0 if none).

    ``rungs`` are ``{"rate", "passed"}`` in the order they ran (rising
    rate).  A pass above a failure does not count: the ladder stops
    being trustworthy once the system fell behind.
    """
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if not rung["passed"]:
            break
        best = rung["rate"]
    return best
