"""The rules the benchmark reports by: schedules, percentiles, self time, ladders."""

import math
import statistics

import pytest

from frontdoor.stats import (
    percentile,
    pick_max_rps,
    poisson_schedule,
    rung_verdict,
    self_times,
    spread,
    summarize,
    tail_percentile,
    union_length,
)


def test_poisson_schedule_is_reproducible_from_its_seed():
    assert poisson_schedule(20.0, 30.0, "7:reference") == poisson_schedule(20.0, 30.0, "7:reference")
    assert poisson_schedule(20.0, 30.0, "7:reference") != poisson_schedule(20.0, 30.0, "8:reference")


def test_poisson_schedule_runs_at_its_rate():
    rate, duration = 50.0, 400.0
    offsets = poisson_schedule(rate, duration, "rate-check")
    expected = rate * duration
    # a Poisson count has sd sqrt(mean); 5 sd is a generous envelope
    assert abs(len(offsets) - expected) < 5 * math.sqrt(expected)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    assert statistics.mean(gaps) == pytest.approx(1.0 / rate, rel=0.03)
    # exponential gaps: the sd equals the mean
    assert statistics.stdev(gaps) == pytest.approx(1.0 / rate, rel=0.05)
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < duration


def test_poisson_schedule_can_stop_after_a_count():
    offsets = poisson_schedule(40.0, 0.0, "rung", count=40)
    assert len(offsets) == 40 and offsets == poisson_schedule(40.0, 0.0, "rung", count=40)
    # exactly the count, within the time the rate gives it
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] < 40 / 40.0
    rate = 50.0
    many = poisson_schedule(rate, 0.0, "many", count=20000)
    gaps = [b - a for a, b in zip(many, many[1:])]
    # conditioned on its count the process still has exponential gaps
    assert statistics.mean(gaps) == pytest.approx(1.0 / rate, rel=0.01)
    assert statistics.stdev(gaps) == pytest.approx(1.0 / rate, rel=0.03)


def test_poisson_schedule_rejects_empty_phases():
    with pytest.raises(ValueError):
        poisson_schedule(0.0, 10.0, "x")


@pytest.mark.parametrize("n,expected", [
    (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_the_tail_with_its_count():
    values = list(range(1, 201))  # 200 samples -> p95 leaves exactly 10 beyond
    s = summarize(values)
    assert s["n"] == 200 and s["tail_p"] == 95.0
    assert s["p50"] == pytest.approx(100.5)
    assert s["tail"] == pytest.approx(percentile(values, 95.0))


def test_summarize_caps_the_tail_at_the_planned_count():
    values = list(range(1, 206))  # 205 realised, 180 planned: stay at p90
    assert summarize(values, expected_n=180)["tail_p"] == 90.0
    assert summarize(values[:150], expected_n=180)["tail_p"] == 90.0


def test_summarize_with_too_few_samples_reports_the_worst_one():
    s = summarize([3.0, 1.0, 2.0])
    assert s["tail_p"] is None and s["tail"] == 3.0


def test_percentile_interpolates_like_numpy():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50.0) == pytest.approx(2.5)
    assert percentile(values, 90.0) == pytest.approx(3.7)
    assert percentile([5.0], 99.0) == 5.0


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [10.0] * 4 + [11.0, 9.0, 10.0, 10.0, 12.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0
    assert union_length([(2, 1)]) == 0.0


def _span(sid, start, end, parent=None):
    return {"id": sid, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, "root"),
        _span("b", 3.0, 6.0, "root"),  # overlaps a on [3, 4]
        _span("a1", 1.5, 2.0, "a"),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0)
    assert selfs["a"] == pytest.approx(3.0 - 0.5)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["a1"] == pytest.approx(0.5)
    # the overlap is counted in both children: the excess over the root
    # duration is exactly the doubly covered second
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_self_time_clips_children_to_their_parent():
    selfs = self_times([_span("p", 0.0, 4.0), _span("c", 3.0, 6.0, "p")])
    assert selfs["p"] == pytest.approx(3.0)


def test_nested_spans_reconcile_exactly():
    spans = [_span("r", 0.0, 8.0), _span("x", 1.0, 3.0, "r"), _span("y", 3.0, 7.0, "r"),
             _span("y1", 4.0, 5.0, "y")]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def test_max_rps_is_the_highest_rung_met_before_the_first_failure():
    rungs = [{"rate": 20.0, "passed": True}, {"rate": 40.0, "passed": True},
             {"rate": 80.0, "passed": False}, {"rate": 160.0, "passed": True}]
    assert pick_max_rps(rungs) == 40.0
    # descending ladders arrive out of order
    assert pick_max_rps([{"rate": 20.0, "passed": False}, {"rate": 10.0, "passed": False},
                         {"rate": 5.0, "passed": True}]) == 5.0
    assert pick_max_rps([{"rate": 5.0, "passed": False}]) == 0.0


def test_rung_verdict_needs_the_limit_no_failures_and_no_backlog():
    fast = [10.0] * 40
    assert rung_verdict(fast, failed=0, backlog_end=2, limit_ms=100.0) == (True, "ok")
    assert not rung_verdict(fast, failed=1, backlog_end=0, limit_ms=100.0)[0]
    slow_tail = [10.0] * 29 + [150.0] * 11  # p75 of 40 samples lands in the slow quarter
    assert not rung_verdict(slow_tail, failed=0, backlog_end=0, limit_ms=100.0)[0]
    assert rung_verdict([10.0] * 31 + [150.0] * 9, failed=0, backlog_end=0, limit_ms=100.0)[0]
    assert not rung_verdict(fast, failed=0, backlog_end=5, limit_ms=100.0)[0]
    assert not rung_verdict([], failed=0, backlog_end=0, limit_ms=100.0)[0]


class _Traffic:
    reference_rate = 10.0
    ladder = (5.0, 10.0, 20.0, 40.0)

    def ops(self, phase, rate, duration, count=None):
        return []


class _Loop:
    """Answers each rung in 10 ms (passes) or 500 ms (fails), in the order given."""

    def __init__(self, passes):
        self.passes = list(passes)
        self.names = []

    def run(self, name, rate, ops):
        from frontdoor.loadgen import Outcome, PhaseReport

        self.names.append(name)
        done = 0.010 if self.passes.pop(0) else 0.500
        return PhaseReport(name, rate, outcomes=[
            Outcome(op=None, due_at=0.0, done_at=done, status=200) for _ in range(40)])


def test_ladder_confirms_a_failing_rung_before_it_turns():
    from frontdoor.serving import _run_ladder

    loop = _Loop([True, False, True, False, False])
    rungs = _run_ladder(loop, _Traffic())
    assert loop.names == ["rung-10", "rung-20", "rung-20-2", "rung-40", "rung-40-2"]
    assert [(r["rate"], r["passed"], r["attempts"]) for r in rungs] == [
        (10.0, True, 1), (20.0, True, 2), (40.0, False, 2)]
    assert pick_max_rps(rungs) == 20.0
    assert not loop.passes


def test_ladder_descends_when_the_reference_rung_fails_twice():
    from frontdoor.serving import _run_ladder

    loop = _Loop([False, False, True])
    rungs = _run_ladder(loop, _Traffic())
    assert loop.names == ["rung-10", "rung-10-2", "rung-5"]
    assert pick_max_rps(rungs) == 5.0
