"""Interleaved paired rounds: the timing discipline every leg race uses.

Each round runs every leg once, back to back, in a fixed order; a
speedup is the **median over rounds of the per-round ratio**.  On a
shared host a contention burst inflates both passes of a round and
cancels in their ratio, where a ratio of independent leg totals (or of
leg medians) would not.

    rounds = paired_rounds({"slow": run_slow, "fast": run_fast}, rounds=5)
    speedup = rounds.ratio("slow", "fast")
"""

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping


@dataclass
class Rounds:
    """Per-leg pass times, in round order, and each leg's last result.

    The last round's results are the warm ones: a first pass may pay
    one-time costs (plan tracing, cache fills) a reported leg should
    not show.
    """

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    last: Dict[str, object] = field(default_factory=dict)

    def median_seconds(self, leg: str) -> float:
        return statistics.median(self.seconds[leg])

    def ratios(self, slow: str, fast: str) -> List[float]:
        return [s / f for s, f in zip(self.seconds[slow], self.seconds[fast]) if f > 0]

    def ratio(self, slow: str, fast: str) -> float:
        """Median of the per-round ``slow / fast`` time ratios."""
        ratios = self.ratios(slow, fast)
        return statistics.median(ratios) if ratios else float("inf")


def paired_rounds(legs: Mapping[str, Callable[[int], object]], rounds: int) -> Rounds:
    """Run ``legs`` interleaved round-robin for ``rounds`` rounds.

    Each leg is called as ``run(round_index)``.  A result with a
    ``seconds`` attribute (a replay report) has timed its own hot loop
    and that figure is recorded; otherwise the wall time of the call is.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    out = Rounds(seconds={name: [] for name in legs})
    for index in range(rounds):
        for name, run in legs.items():
            start = time.perf_counter()
            result = run(index)
            elapsed = time.perf_counter() - start
            out.seconds[name].append(getattr(result, "seconds", elapsed))
            out.last[name] = result
    return out
