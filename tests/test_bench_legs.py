"""The leg races behind ``benchmarks/bench_serve_throughput.py`` and
``benchmarks/bench_stream_replay.py``, on tiny inputs.

The scripts themselves train a quick-profile model and run outside the
test gate; these checks keep their measuring code honest against the
library it drives: every leg reports, the model's mode survives, the
replay legs agree, the paired-rounds helper pairs and medians, and
``bench_serve_async.py``'s latency percentile interpolates.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import MarkovChain
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.serve import Predictor
from repro.stream import events_from_checkins
from repro.utils import spawn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_serve_async import interpolated_percentile  # noqa: E402
from bench_serve_throughput import serve_legs  # noqa: E402
from bench_stream_replay import replay_legs  # noqa: E402
from paired import paired_rounds  # noqa: E402

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    return dataset, split_samples(make_samples(dataset), seed=0)


@pytest.fixture(scope="module")
def model(tiny):
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


# ----------------------------------------------------------------------
# paired rounds
# ----------------------------------------------------------------------
class _Timed:
    def __init__(self, seconds):
        self.seconds = seconds


def test_paired_rounds_interleave_and_median_the_ratios():
    calls = []
    slow_times = iter([4.0, 9.0, 6.0])
    fast_times = iter([2.0, 3.0, 1.0])

    def leg(name, times):
        def run(index):
            calls.append((name, index))
            return _Timed(next(times))
        return run

    rounds = paired_rounds({"slow": leg("slow", slow_times), "fast": leg("fast", fast_times)}, 3)
    assert calls == [("slow", 0), ("fast", 0), ("slow", 1), ("fast", 1), ("slow", 2), ("fast", 2)]
    assert rounds.ratios("slow", "fast") == [2.0, 3.0, 6.0]
    assert rounds.ratio("slow", "fast") == 3.0  # not 19/6, the ratio of totals
    assert rounds.median_seconds("slow") == 6.0
    assert rounds.last["slow"].seconds == 6.0


def test_paired_rounds_times_legs_without_their_own_seconds():
    rounds = paired_rounds({"noop": lambda index: None}, 2)
    assert len(rounds.seconds["noop"]) == 2
    assert all(s >= 0 for s in rounds.seconds["noop"])


def test_paired_rounds_rejects_zero_rounds():
    with pytest.raises(ValueError, match="rounds"):
        paired_rounds({"noop": lambda index: None}, 0)


# ----------------------------------------------------------------------
# serve legs
# ----------------------------------------------------------------------
def test_serve_legs_report(tiny, model):
    _, splits = tiny
    report = serve_legs(model, splits.test[:6])
    assert report["samples"] == 6
    assert report["cached_sps"] > 0 and report["uncached_sps"] > 0
    assert report["batched_sps"] > 0
    assert {"p50_ms", "p95_ms", "p99_ms"} <= set(report)


def test_serve_legs_report_compiled_legs(tiny, model):
    _, splits = tiny
    report = serve_legs(model, splits.test[:12], repeats=1, batch_size=8)
    for leg in ("compiled", "compiled_f32"):
        assert report[f"{leg}_sps"] > 0
        assert report[f"{leg}_warmup_seconds"] >= 0
        assert report[f"{leg}_plans"] >= 1
    assert {"compiled_speedup", "compiled_f64_speedup"} <= set(report)


def test_serve_legs_baseline_has_no_compiled_legs(tiny):
    dataset, splits = tiny
    mc = MarkovChain(len(dataset.city.pois))
    mc.fit(splits.train[:50])
    report = serve_legs(mc, splits.test[:8], repeats=1, batch_size=8)
    assert "compiled_sps" not in report
    assert report["batched_sps"] > 0


def test_serve_legs_restore_mode(tiny, model):
    _, splits = tiny
    model.train()
    try:
        serve_legs(model, splits.test[:3])
        assert model.training is True
        model.eval()
        serve_legs(model, splits.test[:3])
        assert model.training is False
    finally:
        model.eval()


# ----------------------------------------------------------------------
# replay legs
# ----------------------------------------------------------------------
def test_replay_legs_agree_and_report(tiny, model):
    dataset, _ = tiny
    events = events_from_checkins(dataset.checkins)[:150]
    predictor = Predictor(model, graph_cache_size=256, compile=False)
    comparison = replay_legs(predictor, events, batch_size=16, rounds=2)
    assert comparison["incremental_ranked_identical"]
    baseline, incremental = comparison["baseline"], comparison["incremental"]
    assert incremental["predictions"] == baseline["predictions"] > 0
    assert incremental["metrics"] == baseline["metrics"]
    assert comparison["incremental_speedup"] > 0
    assert set(comparison["_reports"]) == {"baseline", "incremental"}


class TestInterpolatedPercentile:
    def test_midpoint(self):
        assert interpolated_percentile([10.0, 20.0], 50) == 15.0

    def test_endpoints_and_degenerate(self):
        assert interpolated_percentile([], 99) == 0.0
        assert interpolated_percentile([7.0], 99) == 7.0
        assert interpolated_percentile([1.0, 2.0, 3.0], 0) == 1.0
        assert interpolated_percentile([1.0, 2.0, 3.0], 100) == 3.0

    def test_small_sample_p99_not_quantised(self):
        # nearest-rank would return 20.0 for both; interpolation must not
        values = [10.0, 20.0]
        assert 10.0 < interpolated_percentile(values, 95) < 20.0
        assert interpolated_percentile(values, 95) != interpolated_percentile(values, 99)

    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(3)
        values = sorted(rng.uniform(0, 100, size=37).tolist())
        for p in (50, 90, 95, 99):
            assert interpolated_percentile(values, p) == pytest.approx(
                float(np.percentile(values, p)), abs=1e-12
            )
