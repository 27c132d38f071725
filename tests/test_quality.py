"""Model-quality observability: windowed counters, the prequential
quality monitor, drift detection, shift scenarios, and the end-to-end
HTTP identity between scraped quality metrics and offline accounting."""

import json
import math
import os
import random
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset
from repro.obs import (
    KS,
    STRATA,
    DriftDetector,
    MetricsRegistry,
    QualityMonitor,
    WindowedCounter,
    cold_start_stratum,
    merge_reports,
    parse_prometheus,
    render_prometheus,
)
from repro.cluster import ClusterConfig, ClusterHttpFrontend, ClusterRouter
from repro.serve import (
    HttpFrontend,
    InferenceServer,
    Predictor,
    ServerConfig,
    save_checkpoint,
)
from repro.stream import (
    CheckinEvent,
    StoreConfig,
    StreamIngest,
    UserStateStore,
    events_from_checkins,
    popularity_shift_events,
    prequential_replay,
)
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)


@pytest.fixture(scope="module")
def model(tiny_dataset):
    model = TSPNRA.from_dataset(tiny_dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def ev(user, poi, t):
    return CheckinEvent(user_id=user, poi_id=poi, timestamp=float(t))


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class Sample:
    """Duck-typed PredictionSample: just what the monitor reads."""

    def __init__(self, user_id, history=(), prefix=(), target=None,
                 history_key=None):
        self.user_id = user_id
        self.history = history
        self.prefix = prefix
        self.target = target
        self.history_key = history_key


class Result:
    def __init__(self, ranked_pois):
        self.ranked_pois = list(ranked_pois)


class Visit:
    def __init__(self, poi_id, timestamp):
        self.poi_id = poi_id
        self.timestamp = timestamp


# ----------------------------------------------------------------------
# windowed counters
# ----------------------------------------------------------------------
class TestWindowedCounter:
    def test_sums_within_window_and_forgets(self):
        clock = FakeClock(0.0)
        counter = WindowedCounter("w", window_seconds=60.0, slots=6, clock=clock)
        counter.inc(2.0)
        clock.now = 30.0
        counter.inc(3.0)
        assert counter.value == 5.0
        clock.now = 59.0  # first cell still inside the window
        assert counter.value == 5.0
        clock.now = 65.0  # first cell (slot 0) aged out; second survives
        assert counter.value == 3.0
        clock.now = 200.0
        assert counter.value == 0.0

    def test_rejects_negative_and_bad_shape(self):
        counter = WindowedCounter("w", window_seconds=10.0, slots=5)
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        with pytest.raises(ValueError):
            WindowedCounter("w", window_seconds=0.0)
        with pytest.raises(ValueError):
            WindowedCounter("w", window_seconds=10.0, slots=0)

    def test_memory_bounded_by_slots(self):
        clock = FakeClock(0.0)
        counter = WindowedCounter("w", window_seconds=10.0, slots=5, clock=clock)
        for step in range(50):
            clock.now = float(step * 2)  # a new slot every inc
            counter.inc()
        assert len(counter._cells) <= 5

    def test_inc_at_matches_inc(self):
        clock = FakeClock(100.0)
        a = WindowedCounter("a", window_seconds=60.0, slots=6, clock=clock)
        b = WindowedCounter("b", window_seconds=60.0, slots=6, clock=clock)
        a.inc(1.5)
        b.inc_at(b._now_slot(), 1.5)
        assert a._cells == b._cells

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.windowed("w", "h", {"s": "0"}, window_seconds=60.0)
        again = registry.windowed("w", "h", {"s": "0"}, window_seconds=60.0)
        other = registry.windowed("w", "h", {"s": "1"}, window_seconds=60.0)
        assert first is again and first is not other


# ----------------------------------------------------------------------
# the quality monitor
# ----------------------------------------------------------------------
class TestQualityMonitor:
    def test_cold_start_stratum(self):
        assert cold_start_stratum(0) == "0"
        assert cold_start_stratum(1) == "1"
        assert cold_start_stratum(2) == "2+"
        assert cold_start_stratum(99) == "2+"

    def test_labelled_sample_joins_immediately_with_exact_ranks(self):
        q = QualityMonitor(MetricsRegistry(), top_k=20)
        ranked = Result(range(100, 140))
        # rank 1 hit, rank 7 hit, and a miss
        assert q.record_batch([Sample(1, target=Visit(100, 0.0))], [ranked]) == ["joined"]
        assert q.record_batch([Sample(2, target=Visit(106, 0.0))], [ranked]) == ["joined"]
        assert q.record_batch([Sample(3, target=Visit(999, 0.0))], [ranked]) == ["joined"]
        s = q.summary()["strata"]["0"]
        assert s["window"]["joins"] == 3
        assert s["window"]["hits"] == {"5": 1, "10": 2, "20": 2}
        assert s["window"]["mrr_sum"] == pytest.approx(1.0 + 1.0 / 7.0)
        assert s["window"]["ndcg_sum"]["10"] == pytest.approx(
            1.0 + 1.0 / math.log2(8)
        )
        assert s["recall"]["10"] == pytest.approx(2.0 / 3.0)
        assert q.pending_count() == 0

    def test_unlabelled_prediction_joins_on_next_checkin_exactly_once(self):
        q = QualityMonitor(MetricsRegistry(), top_k=10)
        assert q.record_batch([Sample(7)], [Result([4, 5, 6])]) == ["pending"]
        assert q.pending_count() == 1
        assert q.observe_checkin(ev(7, 5, 1.0)) == "joined"  # rank 2
        # exactly once: the second check-in finds nothing pending
        assert q.observe_checkin(ev(7, 5, 2.0)) is None
        summary = q.summary()
        assert summary["joins"]["0"] == 1
        assert summary["strata"]["0"]["window"]["mrr_sum"] == pytest.approx(0.5)

    def test_stratum_follows_history_length(self):
        q = QualityMonitor(MetricsRegistry())
        q.record_batch([Sample(1, history=((),), target=Visit(0, 0.0))], [Result([0])])
        q.record_batch([Sample(2, history=((), ()), target=Visit(0, 0.0))], [Result([0])])
        joins = q.summary()["joins"]
        assert joins == {"0": 0, "1": 1, "2+": 1}

    def test_anonymous_traffic_skipped(self):
        q = QualityMonitor(MetricsRegistry())
        assert q.record_batch([Sample(-1)], [Result([1])]) == [None]
        assert q.pending_count() == 0

    def test_two_pending_predictions_latest_wins(self):
        """Satellite: a re-served user replaces the stale pending entry;
        the join grades the *latest* answer and counts exactly once."""
        q = QualityMonitor(MetricsRegistry(), top_k=10)
        q.record_batch([Sample(7)], [Result([1, 2, 3])])  # stale: label would rank 1
        q.record_batch([Sample(7)], [Result([9, 8, 1])])  # latest: label ranks 3
        assert q.pending_count() == 1
        assert q.summary()["replaced"] == 1
        assert q.observe_checkin(ev(7, 1, 1.0)) == "joined"
        s = q.summary()
        assert s["joins"]["0"] == 1
        assert s["strata"]["0"]["window"]["mrr_sum"] == pytest.approx(1.0 / 3.0)
        assert q.observe_checkin(ev(7, 1, 2.0)) is None

    def test_session_roll_expires_instead_of_joining(self):
        """Satellite: the user's session rolls before they return — the
        prediction's context is stale, so it expires and never joins."""

        class Rolled:
            session_rolled = True

        q = QualityMonitor(MetricsRegistry())
        q.record_batch([Sample(3)], [Result([1, 2])])
        assert q.observe_checkin(ev(3, 1, 100.0), Rolled()) == "expired"
        s = q.summary()
        assert s["expired"] == 1
        assert sum(s["joins"].values()) == 0
        assert q.pending_count() == 0

    def test_gap_rule_sweeps_stale_pending_entries(self):
        q = QualityMonitor(MetricsRegistry(), gap_hours=72.0)
        q.record_batch([Sample(1, prefix=(Visit(0, 10.0),))], [Result([1])])
        q.record_batch([Sample(2, prefix=(Visit(0, 100.0),))], [Result([1])])
        # another user's event advances the watermark past user 1's gap
        assert q.observe_checkin(ev(9, 0, 10.0 + 73.0)) is None
        assert q.pending_count() == 1  # user 1 swept, user 2 survives
        assert q.summary()["expired"] == 1

    def test_ring_bound_evicts_fifo(self):
        q = QualityMonitor(MetricsRegistry(), max_pending=2)
        for user in (1, 2, 3):
            q.record_batch([Sample(user)], [Result([1])])
        assert q.pending_count() == 2
        assert q.summary()["evicted"] == 1
        assert q.observe_checkin(ev(1, 1, 0.0)) is None  # oldest was dropped
        assert q.observe_checkin(ev(3, 1, 0.0)) == "joined"

    def test_top_k_widened_to_largest_cutoff(self):
        q = QualityMonitor(MetricsRegistry(), top_k=5)
        assert q.top_k == KS[-1]

    def test_metrics_ride_prometheus_exposition(self):
        registry = MetricsRegistry()
        q = QualityMonitor(registry, top_k=10)
        q.record_batch([Sample(1, target=Visit(4, 0.0))], [Result([4, 5, 6])])
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed[("repro_quality_joins_total", (("stratum", "0"),))] == 1.0
        assert parsed[
            ("repro_quality_recall", (("k", "5"), ("stratum", "0")))
        ] == 1.0
        assert parsed[
            ("repro_quality_recall", (("k", "5"), ("stratum", "all")))
        ] == 1.0
        assert parsed[("repro_quality_pending", ())] == 0.0


# ----------------------------------------------------------------------
# batch accounting: one record site, one strata report
# ----------------------------------------------------------------------
def _offline_rows(samples, results, top_k):
    """Per-sample join accounting, the way the module docstring states it."""
    rows = {s: {"joins": 0, "mrr": 0.0, "hits": dict.fromkeys(KS, 0),
                "ndcg": dict.fromkeys(KS, 0.0)} for s in STRATA}
    for sample, result in zip(samples, results):
        row = rows[cold_start_stratum(len(sample.history))]
        row["joins"] += 1
        top = list(result.ranked_pois[:top_k])
        if sample.target.poi_id not in top:
            continue
        rank = top.index(sample.target.poi_id) + 1
        row["mrr"] += 1.0 / rank
        for k in KS:
            if rank <= k:
                row["hits"][k] += 1
                row["ndcg"][k] += 1.0 / math.log2(rank + 1)
    return rows


def _labelled_batch(size, seed):
    """``size`` labelled samples spread over all three strata, with hits
    at every depth and misses."""
    rng = random.Random(seed)
    samples, results = [], []
    for index in range(size):
        ranked = rng.sample(range(100), 30)
        label = ranked[rng.randrange(25)] if index % 4 else 999
        samples.append(Sample(index, history=((),) * (index % 3),
                              target=Visit(label, 0.0)))
        results.append(Result(ranked))
    return samples, results


class TestRecordBatch:
    def test_fan_out_is_bounded_and_counts_match_offline(self, monkeypatch):
        calls = []
        original = WindowedCounter.inc_at

        def counting(self, slot, amount=1.0):
            calls.append(self.name)
            original(self, slot, amount)

        monkeypatch.setattr(WindowedCounter, "inc_at", counting)
        for size in (64, 256):
            calls.clear()
            q = QualityMonitor(MetricsRegistry())
            samples, results = _labelled_batch(size, seed=size)
            assert q.record_batch(samples, results) == ["joined"] * size
            # one increment per (stratum, series): 3 strata x 8 series
            assert 0 < len(calls) <= 24
            summary = q.summary()
            expected = _offline_rows(samples, results, q.top_k)
            for stratum, row in expected.items():
                window = summary["strata"][stratum]["window"]
                assert summary["predictions"][stratum] == row["joins"]
                assert summary["joins"][stratum] == row["joins"]
                assert window["joins"] == row["joins"]
                assert window["hits"] == {str(k): row["hits"][k] for k in KS}
                assert window["mrr_sum"] == pytest.approx(row["mrr"], rel=1e-12, abs=1e-12)
                for k in KS:
                    assert window["ndcg_sum"][str(k)] == pytest.approx(
                        row["ndcg"][k], rel=1e-12, abs=1e-12
                    )

    def test_mixed_batch_paths_in_serve_order(self):
        q = QualityMonitor(MetricsRegistry())
        samples = [Sample(-1), Sample(4), Sample(5, target=Visit(2, 0.0)), Sample(4)]
        results = [Result([1]), Result([1]), Result([1, 2]), Result([3])]
        assert q.record_batch(samples, results) == [None, "pending", "joined", "pending"]
        summary = q.summary()
        assert summary["predictions"]["0"] == 3
        assert summary["replaced"] == 1 and q.pending_count() == 1
        assert summary["strata"]["0"]["window"]["mrr_sum"] == pytest.approx(0.5)
        assert q.observe_checkin(ev(4, 3, 1.0)) == "joined"  # the latest list

    def test_concurrent_batches_lose_no_update(self):
        """Worker threads record at once: every count and sum survives."""
        q = QualityMonitor(MetricsRegistry(), max_pending=10_000)
        batches = [_labelled_batch(16, seed=s) for s in range(48)]
        unlabelled = [([Sample(10_000 + s)], [Result([1, 2])]) for s in range(48)]
        work = [b for pair in zip(batches, unlabelled) for b in pair]

        def worker(offset):
            for samples, results in work[offset::6]:
                q.record_batch(samples, results)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        expected = _offline_rows(
            [s for b in batches for s in b[0]], [r for b in batches for r in b[1]], q.top_k
        )
        summary = q.summary()
        assert q.pending_count() == len(unlabelled)
        assert sum(summary["predictions"].values()) == 48 * 16 + len(unlabelled)
        for stratum, row in expected.items():
            window = summary["strata"][stratum]["window"]
            assert summary["joins"][stratum] == window["joins"] == row["joins"]
            assert window["hits"] == {str(k): row["hits"][k] for k in KS}
            assert window["mrr_sum"] == pytest.approx(row["mrr"], rel=1e-12)

    def test_replay_records_each_prediction_once(self, tiny_dataset, model):
        """The replay predicts through ``predictor.predict_batch``, the one
        record site: an attached monitor sees every prediction exactly once."""
        predictor = Predictor(model, graph_cache_size=None, compile=False)
        predictor.quality = QualityMonitor(MetricsRegistry())
        events = events_from_checkins(tiny_dataset.checkins)[:200]
        report = prequential_replay(predictor, events)
        summary = predictor.quality.summary()
        assert report.predictions > 0
        assert sum(summary["predictions"].values()) == report.predictions
        assert sum(summary["joins"].values()) == report.predictions
        assert summary["strata"]["all"]["window"]["joins"] == report.predictions

    def test_merge_reports_equals_one_monitor_over_both_slices(self):
        samples, results = _labelled_batch(90, seed=7)
        whole = QualityMonitor(MetricsRegistry())
        whole.record_batch(samples, results)
        shards = [QualityMonitor(MetricsRegistry()) for _ in range(2)]
        shards[0].record_batch(samples[:40], results[:40])
        shards[1].record_batch(samples[40:], results[40:])
        shards[1].record_batch([Sample(500)], [Result([1])])  # one pending
        reports = [q.summary() for q in shards]
        reports[0]["store_strata"] = {"0": 2, "1": 1}
        reports[1]["store_strata"] = {"0": 3}
        reports[1]["drift"] = {"alert": True}
        merged = merge_reports(reports)
        expected = whole.summary()
        assert merged["joins"] == expected["joins"]
        assert merged["predictions"]["0"] == expected["predictions"]["0"] + 1
        assert merged["pending"] == 1
        assert merged["store_strata"] == {"0": 5, "1": 1}
        assert merged["drift_alert"] is True
        for stratum in STRATA + ("all",):
            ours, theirs = merged["strata"][stratum], expected["strata"][stratum]
            assert ours["window"]["joins"] == theirs["window"]["joins"]
            assert ours["window"]["hits"] == theirs["window"]["hits"]
            assert ours["mrr"] == pytest.approx(theirs["mrr"], rel=1e-12)
            assert ours["recall"] == theirs["recall"]
            for k in map(str, KS):
                assert ours["ndcg"][k] == pytest.approx(theirs["ndcg"][k], rel=1e-12)


# ----------------------------------------------------------------------
# ingest observers
# ----------------------------------------------------------------------
class TestIngestObservers:
    def test_observer_sees_event_and_append_result(self):
        seen = []
        ingest = StreamIngest(UserStateStore(StoreConfig()))
        ingest.add_observer(lambda event, result: seen.append((event, result)))
        ingest.ingest(ev(1, 2, 0.0))
        assert len(seen) == 1
        assert seen[0][0].poi_id == 2
        assert seen[0][1].state_version == 1
        assert ingest.stats()["observers"] == 1

    def test_observer_exceptions_contained(self):
        """Observability must never fail ingestion."""
        ingest = StreamIngest(UserStateStore(StoreConfig()))
        ingest.add_observer(lambda *a: (_ for _ in ()).throw(RuntimeError("boom")))
        result = ingest.ingest(ev(1, 2, 0.0))
        assert result.state_version == 1
        assert ingest.stats()["observer_errors"] == 1

    def test_quality_join_through_real_ingest_roll(self):
        """The 72h rule on the real store expires the pending entry."""
        registry = MetricsRegistry()
        q = QualityMonitor(registry)
        ingest = StreamIngest(UserStateStore(StoreConfig(gap_hours=72.0)))
        ingest.add_observer(q.observe_checkin)
        ingest.ingest(ev(5, 1, 0.0))
        q.record_batch([Sample(5, prefix=(Visit(1, 0.0),))], [Result([2, 3])])
        # next check-in is 73h later: the store rolls the session
        ingest.ingest(ev(5, 2, 73.0))
        s = q.summary()
        assert s["expired"] == 1
        assert sum(s["joins"].values()) == 0

    def test_pending_ring_is_ephemeral_across_recovery(self, tmp_path):
        """Satellite: after a crash-and-recover the WAL rebuilds the
        store but the pending ring is gone by design — the recovered
        tier's counters restart clean and no pre-crash prediction can
        mis-join post-recovery traffic."""
        from repro.cluster import DurableIngest, EventLogWriter, recover_store

        store_config = StoreConfig(gap_hours=72.0)
        ingest = DurableIngest(
            UserStateStore(store_config),
            log=EventLogWriter(tmp_path, fsync="never"),
        )
        quality = QualityMonitor(MetricsRegistry())
        ingest.add_observer(quality.observe_checkin)
        ingest.ingest(ev(5, 1, 0.0))
        quality.record_batch([Sample(5, prefix=(Visit(1, 0.0),))], [Result([2, 3])])
        assert quality.pending_count() == 1
        ingest.log.close()  # crash: the monitor dies with the process

        recovery = recover_store(tmp_path, config=store_config)
        assert recovery.store.snapshot(5) is not None  # state survived
        recovered = QualityMonitor(MetricsRegistry())
        summary = recovered.summary()
        assert recovered.pending_count() == 0
        assert sum(summary["predictions"].values()) == 0
        assert sum(summary["joins"].values()) == 0
        # the pre-crash user's next check-in joins nothing
        assert recovered.observe_checkin(ev(5, 2, 1.0)) is None


# ----------------------------------------------------------------------
# drift detection
# ----------------------------------------------------------------------
class TestDriftDetector:
    def _feed(self, detector, pois, start_t=0.0):
        for index, poi in enumerate(pois):
            detector.update(ev(index % 7, poi, start_t + index * 0.01))

    def test_quiet_until_reference_frozen_and_window_filled(self):
        d = DriftDetector(MetricsRegistry(), window=20, reference=20)
        self._feed(d, [i % 5 for i in range(10)])
        assert not d.alert() and d.psi() == 0.0
        assert not d.summary()["frozen"]
        self._feed(d, [i % 5 for i in range(10)], start_t=1.0)
        assert d.summary()["frozen"]
        assert not d.alert()  # window still under min_window

    def test_stationary_stream_stays_quiet(self):
        d = DriftDetector(MetricsRegistry(), window=32, reference=32)
        self._feed(d, [i % 6 for i in range(96)])
        assert d.summary()["frozen"]
        assert d.psi("poi") < d.threshold
        assert not d.alert()

    def test_popularity_shift_trips_alert(self):
        d = DriftDetector(MetricsRegistry(), window=32, reference=32)
        self._feed(d, [i % 6 for i in range(64)])
        assert not d.alert()
        self._feed(d, [100 + (i % 6) for i in range(64)], start_t=10.0)
        assert d.psi("poi") > d.threshold
        assert d.alert()
        assert d.summary()["alert"]

    def test_tile_distribution_tracked_when_mapper_given(self):
        d = DriftDetector(
            MetricsRegistry(), window=16, reference=16, tile_of=lambda poi: poi // 10
        )
        self._feed(d, [i % 6 for i in range(48)])
        assert set(d.summary()["distributions"]) == {"poi", "tile"}

    def test_freeze_reference_early(self):
        d = DriftDetector(MetricsRegistry(), window=8, reference=1000, min_window=4)
        self._feed(d, [1, 2, 3, 1, 2, 3])
        d.freeze_reference()
        assert d.summary()["frozen"]
        self._feed(d, [9] * 8, start_t=5.0)
        assert d.alert()

    def test_update_many_equals_one_event_at_a_time(self):
        """Batches crossing the reference freeze leave the same state."""
        events = [ev(i % 7, (i * 5) % 23, i * 0.01) for i in range(90)]

        def detector():
            return DriftDetector(
                MetricsRegistry(), window=16, reference=40, bins=6,
                tile_of=lambda poi: poi // 4,
            )

        single, batched = detector(), detector()
        for event in events:
            single.update(event)
        for lo in range(0, len(events), 13):
            batched.update_many(events[lo:lo + 13])
        batched.update_many([])
        assert batched.summary() == single.summary()
        for dist in ("poi", "tile"):
            ours, theirs = batched._sketches[dist], single._sketches[dist]
            assert ours.ref_counts == theirs.ref_counts
            assert ours.cur_counts == theirs.cur_counts
            assert list(ours.recent) == list(theirs.recent)

    def test_events_counter_includes_reference_phase(self):
        registry = MetricsRegistry()
        d = DriftDetector(registry, window=16, reference=16)
        self._feed(d, [1] * 4)
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed[("repro_drift_events_total", ())] == 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(MetricsRegistry(), window=0)
        with pytest.raises(ValueError):
            DriftDetector(MetricsRegistry(), bins=1)
        with pytest.raises(ValueError):
            DriftDetector(MetricsRegistry(), threshold=0.0)


# ----------------------------------------------------------------------
# shift scenarios
# ----------------------------------------------------------------------
class TestShiftScenario:
    def test_permutes_only_after_cut_preserving_shape(self):
        events = [ev(u, u % 5, t) for t, u in enumerate(range(10))]
        scenario = popularity_shift_events(events, 5, shift_at=0.5, seed=3)
        assert scenario.shift_index == 5
        assert scenario.pre_shift == events[:5]
        for before, after in zip(events[5:], scenario.post_shift):
            assert after.user_id == before.user_id
            assert after.timestamp == before.timestamp
            assert after.poi_id == scenario.permutation[before.poi_id]
        assert sorted(scenario.permutation) == list(range(5))

    def test_validation(self):
        events = [ev(1, 0, 0.0)]
        with pytest.raises(ValueError, match="shift_at"):
            popularity_shift_events(events, 5, shift_at=1.0)
        with pytest.raises(ValueError, match="2 POIs"):
            popularity_shift_events(events, 1)
        with pytest.raises(ValueError, match="outside"):
            popularity_shift_events([ev(1, 9, 0.0)], 5)

    def test_seed_determinism(self):
        events = [ev(u, u % 4, float(u)) for u in range(8)]
        one = popularity_shift_events(events, 4, seed=1)
        two = popularity_shift_events(events, 4, seed=1)
        other = popularity_shift_events(events, 4, seed=2)
        assert one.permutation == two.permutation
        assert one.permutation != other.permutation


# ----------------------------------------------------------------------
# end-to-end over HTTP: scraped quality == offline accounting
# ----------------------------------------------------------------------
class TestQualityOverHttp:
    @staticmethod
    def _post(url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @staticmethod
    def _get(url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def test_scraped_window_equals_offline_join_accounting(
        self, tiny_dataset, model
    ):
        """The acceptance identity: replay live traffic over real HTTP —
        predict, then check the user in where they actually went — and
        the windowed Recall@K / MRR scraped from ``/metrics`` must equal
        the same window computed offline from the predictions this test
        itself issued.  Exact join accounting, not approximate."""
        events = events_from_checkins(tiny_dataset.checkins)[:160]
        store = UserStateStore(StoreConfig())
        config = ServerConfig(
            workers=2, max_batch_size=8, max_wait_ms=1.0, quality_topk=20
        )
        expected = {
            s: {"joins": 0, "hits": {5: 0, 10: 0, 20: 0}, "mrr": 0.0,
                "ndcg": {5: 0.0, 10: 0.0, 20: 0.0}}
            for s in ("0", "1", "2+")
        }
        predictions = expired = 0
        pending = {}  # user -> (stratum, top-20 list) — mirrors the ring
        sessions = {}  # user -> completed-session count (offline mirror)
        server = InferenceServer(model, config=config, state_store=store).start()
        front = HttpFrontend(server, port=0).start()
        try:
            url = front.url
            for event in events:
                if event.user_id in sessions:
                    # serve before ingest: the prequential test step
                    status, body = self._post(
                        url + "/predict", {"user_id": event.user_id, "k": 20}
                    )
                    assert status == 200, body
                    completed = sessions[event.user_id]
                    stratum = ("0", "1", "2+")[min(completed, 2)]
                    pending[event.user_id] = (stratum, body["top_pois"])
                    predictions += 1
                status, body = self._post(url + "/checkin", {
                    "user_id": event.user_id,
                    "poi_id": event.poi_id,
                    "timestamp": event.timestamp,
                })
                assert status == 200, body
                rolled = body["session_rolled"]
                sessions[event.user_id] = (
                    sessions.get(event.user_id, 0) + (1 if rolled else 0)
                )
                if event.user_id not in pending:
                    continue
                stratum, top_pois = pending.pop(event.user_id)
                if rolled:
                    expired += 1
                    continue
                bucket = expected[stratum]
                bucket["joins"] += 1
                if event.poi_id in top_pois:
                    rank = top_pois.index(event.poi_id) + 1
                    bucket["mrr"] += 1.0 / rank
                    for k in (5, 10, 20):
                        if rank <= k:
                            bucket["hits"][k] += 1
                            bucket["ndcg"][k] += 1.0 / math.log2(rank + 1)

            assert predictions > 20, "tape too short to exercise the monitor"
            assert sum(b["joins"] for b in expected.values()) > 0

            scrape = urllib.request.urlopen(url + "/metrics", timeout=30)
            parsed = parse_prometheus(scrape.read().decode())
            report = self._get(url + "/quality")
        finally:
            front.stop()
            server.stop(drain=True)

        total_joins = sum(b["joins"] for b in expected.values())
        for stratum, bucket in expected.items():
            label = (("stratum", stratum),)
            assert parsed[("repro_quality_window_joins", label)] == bucket["joins"]
            assert parsed[("repro_quality_window_mrr_sum", label)] == pytest.approx(
                bucket["mrr"], rel=1e-12, abs=1e-12
            )
            for k in (5, 10, 20):
                klabel = (("k", str(k)), ("stratum", stratum))
                assert parsed[
                    ("repro_quality_window_hits", klabel)
                ] == bucket["hits"][k]
                if bucket["joins"]:
                    assert parsed[
                        ("repro_quality_recall", klabel)
                    ] == pytest.approx(bucket["hits"][k] / bucket["joins"])
            # the /quality JSON carries the identical raw window
            window = report["strata"][stratum]["window"]
            assert window["joins"] == bucket["joins"]
            assert window["hits"] == {
                str(k): bucket["hits"][k] for k in (5, 10, 20)
            }
            assert window["mrr_sum"] == pytest.approx(
                bucket["mrr"], rel=1e-12, abs=1e-12
            )
        # "all" is the strata sum, recomputed — not a mean of ratios
        assert report["strata"]["all"]["window"]["joins"] == total_joins
        assert parsed[
            ("repro_quality_mrr", (("stratum", "all"),))
        ] == pytest.approx(
            sum(b["mrr"] for b in expected.values()) / total_joins
        )
        assert sum(report["joins"].values()) == total_joins
        assert report["expired"] == expired
        assert sum(report["predictions"].values()) == predictions
        assert report["pending"] == len(pending)
        # drift rides the same report, fed by the same ingest hook
        assert report["drift"]["events"] == len(events)
        assert report["store_strata"]


# ----------------------------------------------------------------------
# cluster: per-shard reports merged by the router, degrading on death
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestClusterQuality:
    @pytest.fixture()
    def cluster(self, tiny_dataset, model, tmp_path):
        checkpoint = save_checkpoint(
            model, tmp_path / "tiny.npz", dataset=tiny_dataset
        )
        config = ClusterConfig(
            num_shards=2,
            snapshot_interval=50,
            heartbeat_interval_s=0.5,
            auto_restart=False,
            quality_topk=20,
        )
        router = ClusterRouter(checkpoint, tmp_path / "persist", config=config)
        router.start()
        try:
            yield router
        finally:
            router.stop()

    def test_merge_sums_windows_and_survives_a_dead_shard(
        self, tiny_dataset, cluster
    ):
        from repro.stream import events_from_checkins

        events = events_from_checkins(tiny_dataset.checkins)[:60]
        seen = set()
        expected_predictions = 0
        for event in events:
            if event.user_id in seen:
                reply = cluster.predict_user(event.user_id, k=20)
                assert reply["ok"], reply
                expected_predictions += 1
            seen.add(event.user_id)
            reply = cluster.checkin({
                "user_id": event.user_id,
                "poi_id": event.poi_id,
                "timestamp": event.timestamp,
            })
            assert reply["ok"], reply

        report = cluster.quality()
        assert report["enabled"] is True
        assert [s["status"] for s in report["shards"]] == ["ok", "ok"]
        merged = report["cluster"]
        shard_reports = [s["quality"] for s in report["shards"]]
        # the cluster section is the shard sum, ratios recomputed, built
        # by the same strata report a single server's summary uses
        assert merged == merge_reports(shard_reports)
        assert set(merged["strata"]) == set(STRATA) | {"all"}
        assert sum(merged["predictions"].values()) == expected_predictions
        assert merged["store_strata"] == {
            s: sum(r["store_strata"].get(s, 0) for r in shard_reports)
            for s in merged["store_strata"]
        }
        total_joins = sum(
            sum(r["joins"].values()) for r in shard_reports
        )
        assert sum(merged["joins"].values()) == total_joins
        window = merged["strata"]["all"]["window"]
        assert window["joins"] == sum(
            r["strata"]["all"]["window"]["joins"] for r in shard_reports
        )
        assert window["hits"]["20"] == sum(
            r["strata"]["all"]["window"]["hits"]["20"] for r in shard_reports
        )
        if window["joins"]:
            assert merged["strata"]["all"]["recall"]["20"] == pytest.approx(
                window["hits"]["20"] / window["joins"]
            )
        assert isinstance(merged["drift_alert"], bool)

        with ClusterHttpFrontend(cluster, port=0) as front:
            with urllib.request.urlopen(front.url + "/quality", timeout=30) as r:
                assert r.status == 200
                http_report = json.loads(r.read())
            assert http_report["enabled"] is True

            # SIGKILL one shard: the report degrades, never fails
            victim = cluster.shards[1]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.time() + 10.0
            degraded = cluster.quality()
            while (
                all(s["status"] == "ok" for s in degraded["shards"])
                and time.time() < deadline
            ):
                time.sleep(0.2)
                degraded = cluster.quality()
            statuses = {s["shard"]: s["status"] for s in degraded["shards"]}
            assert statuses[1] == "down"
            assert statuses[0] == "ok"
            assert degraded["enabled"] is True  # the survivor still reports
            down = next(s for s in degraded["shards"] if s["status"] == "down")
            assert down["error"]
            with urllib.request.urlopen(front.url + "/quality", timeout=30) as r:
                assert r.status == 200  # HTTP scrape degrades too, no 500
