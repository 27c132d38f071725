"""Tests for the async serving runtime: micro-batch scheduler, worker
pool, HTTP front-end, and the thread-safety substrate underneath it
(thread-local grad mode, locked caches and stats)."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import oracle
import pytest
from http_contract import FrontDoorContract

from repro.autograd import Tensor, is_grad_enabled, no_grad
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.data.trajectory import PredictionSample, Visit
from repro.serve import (
    HttpFrontend,
    InferenceServer,
    MicroBatchScheduler,
    Predictor,
    PredictorBase,
    PredictorResult,
    QueueFullError,
    SchedulerClosedError,
    ServeStats,
    ServerConfig,
    read_checkpoint,
    result_to_json,
    sample_from_json,
    save_checkpoint,
)
from repro.serve.protocol import target_poi_of
from repro.stream import StoreConfig, UserStateStore
from repro.utils import LRUCache, spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    return dataset, splits


@pytest.fixture(scope="module")
def model(tiny):
    """An untrained TSPN-RA: identity checks don't need trained weights."""
    dataset, _ = tiny
    model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


def _edge_case_batch(splits):
    """Mixed lengths, no-history, length-1 prefix, and target-less."""
    batch = list(splits.test[:8])
    with_history = next(s for s in splits.test if s.history)
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=[],
            prefix=with_history.prefix,
            target=with_history.target,
            history_key=(with_history.user_id, -1),
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix[:1],
            target=with_history.target,
            history_key=with_history.history_key,
        )
    )
    batch.append(
        PredictionSample(
            user_id=with_history.user_id,
            history=with_history.history,
            prefix=with_history.prefix,
            target=None,
            history_key=with_history.history_key,
        )
    )
    assert len({len(s.prefix) for s in batch}) > 1
    return batch


# ----------------------------------------------------------------------
# thread-safety substrate
# ----------------------------------------------------------------------
class TestGradModeThreadLocal:
    def test_no_grad_does_not_leak_across_threads(self):
        barrier = threading.Barrier(2)
        seen = {}

        def inside_no_grad():
            with no_grad():
                barrier.wait()
                time.sleep(0.02)  # hold no_grad while the peer checks
                seen["inside"] = is_grad_enabled()
            seen["after"] = is_grad_enabled()

        def peer():
            barrier.wait()
            seen["peer"] = is_grad_enabled()
            x = Tensor(np.ones(2), requires_grad=True)
            seen["peer_op_tracks"] = (x * 2.0).requires_grad

        threads = [threading.Thread(target=f) for f in (inside_no_grad, peer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {
            "inside": False,
            "after": True,
            "peer": True,
            "peer_op_tracks": True,
        }

    def test_concurrent_no_grad_restores_per_thread(self):
        failures = []

        def worker():
            for _ in range(50):
                with no_grad():
                    if is_grad_enabled():
                        failures.append("enabled inside no_grad")
                if not is_grad_enabled():
                    failures.append("stuck disabled after no_grad")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestServeStatsThreadSafe:
    def test_concurrent_record_batch_exact_totals(self):
        stats = ServeStats()
        threads_n, per_thread = 8, 250

        def hammer():
            for _ in range(per_thread):
                stats.record_batch(0.001, 2)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.requests == threads_n * per_thread * 2
        assert stats.batches == threads_n * per_thread
        assert stats.total_seconds == pytest.approx(threads_n * per_thread * 0.001)
        as_dict = stats.as_dict()
        assert as_dict["requests"] == stats.requests
        assert as_dict["p50_ms"] == pytest.approx(1.0)

    def test_reads_during_writes(self):
        stats = ServeStats()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.record_batch(0.0005, 1)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                snapshot = stats.as_dict()
                # counters are striped (per-instrument locks), so a read
                # can land mid-record: with one single-request writer the
                # counters may be skewed by at most the one in-flight
                # record, never torn or lost
                assert abs(snapshot["requests"] - snapshot["batches"]) <= 1
                stats.latency_percentiles()
        finally:
            stop.set()
            thread.join()


class TestLRUCacheThreadSafe:
    def test_bound_holds_under_concurrent_inserts(self):
        cache = LRUCache(maxsize=8)
        errors = []

        def insert(base):
            try:
                for i in range(300):
                    cache.put((base, i), i)
                    cache.get((base, i - 1))
                    assert len(cache) <= 8
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=insert, args=(b,)) for b in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.hits + cache.misses == 6 * 300


# ----------------------------------------------------------------------
# micro-batch scheduler
# ----------------------------------------------------------------------
class TestMicroBatchScheduler:
    def test_flush_on_batch_size(self):
        scheduler = MicroBatchScheduler(max_batch_size=3, max_wait_ms=10_000)
        futures = [scheduler.submit(i) for i in range(5)]
        batch = scheduler.next_batch()
        assert [r.sample for r in batch] == [0, 1, 2]  # full, FIFO, no wait
        batch = scheduler.next_batch()  # deadline flush on the remainder
        assert [r.sample for r in batch] == [3, 4]
        assert all(not f.done() for f in futures)  # consumers resolve them

    def test_flush_on_deadline(self):
        scheduler = MicroBatchScheduler(max_batch_size=64, max_wait_ms=40)
        scheduler.submit("a")
        scheduler.submit("b")
        start = time.monotonic()
        batch = scheduler.next_batch()
        elapsed = time.monotonic() - start
        assert [r.sample for r in batch] == ["a", "b"]
        assert elapsed < 5.0  # returned via deadline, not a hang

    def test_deadline_counts_queue_wait(self):
        # enqueue, sit past the deadline, then ask: must flush immediately
        scheduler = MicroBatchScheduler(max_batch_size=64, max_wait_ms=20)
        scheduler.submit("late")
        time.sleep(0.05)
        start = time.monotonic()
        batch = scheduler.next_batch()
        assert [r.sample for r in batch] == ["late"]
        assert time.monotonic() - start < 0.02

    def test_idle_timeout_returns_none(self):
        scheduler = MicroBatchScheduler()
        assert scheduler.next_batch(timeout=0.01) is None
        assert not scheduler.closed

    def test_bounded_queue_rejects(self):
        scheduler = MicroBatchScheduler(max_queue=2)
        scheduler.submit(1)
        scheduler.submit(2)
        with pytest.raises(QueueFullError):
            scheduler.submit(3)
        assert scheduler.stats()["rejected"] == 1
        assert scheduler.depth() == 2

    def test_close_drains_queue(self):
        scheduler = MicroBatchScheduler(max_batch_size=2)
        futures = [scheduler.submit(i) for i in range(3)]
        scheduler.close(drain=True)
        with pytest.raises(SchedulerClosedError):
            scheduler.submit(99)
        assert [r.sample for r in scheduler.next_batch()] == [0, 1]
        assert [r.sample for r in scheduler.next_batch()] == [2]
        assert scheduler.next_batch() is None  # drained
        assert all(not f.done() for f in futures)

    def test_close_without_drain_fails_pending(self):
        scheduler = MicroBatchScheduler()
        future = scheduler.submit("pending")
        scheduler.close(drain=False)
        with pytest.raises(SchedulerClosedError):
            future.result(timeout=1.0)
        assert scheduler.next_batch() is None

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_queue=0)

    def test_cancelled_requests_are_skipped(self):
        scheduler = MicroBatchScheduler(max_batch_size=4, max_wait_ms=0.0)
        abandoned = scheduler.submit("gone")
        kept = scheduler.submit("kept")
        assert abandoned.cancel()  # client gave up before dispatch
        batch = scheduler.next_batch()
        assert [r.sample for r in batch] == ["kept"]
        assert not kept.done()
        assert scheduler.stats()["cancelled"] == 1

    def test_all_cancelled_leaves_queue_empty(self):
        scheduler = MicroBatchScheduler(max_wait_ms=0.0)
        future = scheduler.submit("gone")
        future.cancel()
        assert scheduler.next_batch(timeout=0.01) is None
        assert scheduler.depth() == 0


# ----------------------------------------------------------------------
# a deterministic stub model for runtime-behaviour tests
# ----------------------------------------------------------------------
class GatedModel(PredictorBase):
    """Blocks inside predict until released; records batch sizes."""

    name = "stub"
    num_pois = 10
    training = False

    def __init__(self):
        self.gate = threading.Event()
        self.batch_sizes = []

    def eval(self):
        return self

    def train(self, mode=True):
        return self

    def predict(self, sample, *shared, k=None):
        return PredictorResult(
            ranked_pois=list(range(self.num_pois)),
            target_poi=target_poi_of(sample),
            num_pois=self.num_pois,
        )

    def predict_batch(self, samples, *shared, k=None):
        self.batch_sizes.append(len(samples))
        assert self.gate.wait(10.0), "gate never released"
        return [self.predict(s, k=k) for s in samples]


def _stub_sample(i=0):
    return PredictionSample(
        user_id=0, history=[], prefix=[Visit(poi_id=i % 10, timestamp=float(i))],
        target=None, history_key=("stub", i),
    )


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestInferenceServerRuntime:
    def test_busy_worker_backpressure_then_recovery(self):
        stub = GatedModel()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0, max_queue=2)
        server = InferenceServer(stub, config=config).start()
        try:
            first = server.submit(_stub_sample(0))
            assert _wait_until(lambda: server.scheduler.depth() == 0)  # in flight
            queued = [server.submit(_stub_sample(i)) for i in (1, 2)]
            with pytest.raises(QueueFullError):
                server.submit(_stub_sample(3))
            stats = server.stats()
            assert stats["requests"]["rejected"] == 1
            assert stats["scheduler"]["queue_depth"] == 2
            stub.gate.set()  # recovery: everything admitted completes
            for future in [first, *queued]:
                assert future.result(timeout=10.0).ranked_pois == list(range(10))
        finally:
            stub.gate.set()
            server.stop(drain=True)

    def test_graceful_shutdown_drains_in_flight_and_queued(self):
        stub = GatedModel()
        config = ServerConfig(workers=1, max_batch_size=2, max_wait_ms=0.0)
        server = InferenceServer(stub, config=config).start()
        first = server.submit(_stub_sample(0))
        assert _wait_until(lambda: server.scheduler.depth() == 0)
        queued = [server.submit(_stub_sample(i)) for i in (1, 2)]
        stopper = threading.Thread(target=server.stop, kwargs={"drain": True})
        stopper.start()
        with pytest.raises(SchedulerClosedError):  # admissions closed...
            server.submit(_stub_sample(9))
        stub.gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        for future in [first, *queued]:  # ...but the backlog was served
            assert future.result(timeout=1.0).ranked_pois == list(range(10))
        assert stub.batch_sizes == [1, 2]  # queued pair coalesced into one batch
        assert server.stats()["requests"]["completed"] == 3

    def test_stop_without_drain_fails_backlog(self):
        stub = GatedModel()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0)
        server = InferenceServer(stub, config=config).start()
        first = server.submit(_stub_sample(0))
        assert _wait_until(lambda: server.scheduler.depth() == 0)
        abandoned = server.submit(_stub_sample(1))
        server.scheduler.close(drain=False)
        with pytest.raises(SchedulerClosedError):
            abandoned.result(timeout=1.0)
        stub.gate.set()
        assert first.result(timeout=10.0) is not None  # in-flight still served
        server.stop(drain=True)

    def test_failing_batch_poisons_only_itself(self):
        class FlakyModel(GatedModel):
            def predict_batch(self, samples, *shared, k=None):
                if any(s.user_id == 666 for s in samples):
                    raise RuntimeError("bad batch")
                return [self.predict(s, k=k) for s in samples]

        stub = FlakyModel()
        stub.gate.set()
        config = ServerConfig(workers=1, max_batch_size=1, max_wait_ms=0.0)
        server = InferenceServer(stub, config=config).start()
        try:
            bad_sample = PredictionSample(
                user_id=666, history=[], prefix=[Visit(0, 0.0)], target=None,
                history_key=("stub", 666),
            )
            bad = server.submit(bad_sample)
            good = server.submit(_stub_sample(1))
            with pytest.raises(RuntimeError, match="bad batch"):
                bad.result(timeout=10.0)
            assert good.result(timeout=10.0).ranked_pois == list(range(10))
            stats = server.stats()
            assert stats["requests"]["failed"] == 1
            assert stats["requests"]["completed"] == 1
        finally:
            server.stop(drain=True)

    def test_submit_validates_before_batching(self):
        stub = GatedModel()
        stub.gate.set()
        server = InferenceServer(stub, config=ServerConfig(workers=1))
        with pytest.raises(ValueError, match="non-empty"):
            server.submit(
                PredictionSample(user_id=0, history=[], prefix=[], target=None,
                                 history_key=("stub", 0))
            )
        with pytest.raises(ValueError, match="outside"):
            server.submit(
                PredictionSample(user_id=0, history=[], prefix=[Visit(99, 0.0)],
                                 target=None, history_key=("stub", 1))
            )
        with pytest.raises(ValueError, match="outside"):  # history checked too
            from repro.data.trajectory import Trajectory

            server.submit(
                PredictionSample(
                    user_id=0,
                    history=[Trajectory(user_id=0, visits=[Visit(99, 0.0)])],
                    prefix=[Visit(1, 1.0)], target=None, history_key=("stub", 2),
                )
            )

    def test_pool_shares_one_embedding_refresh_per_version(self, model):
        server = InferenceServer(
            model, config=ServerConfig(workers=3, max_batch_size=1, max_wait_ms=0.0)
        )
        # drive every replica directly: each must hit the shared store
        sample = PredictionSample(
            user_id=0, history=[], prefix=[Visit(0, 0.0)], target=None,
            history_key=("stub", "shared"),
        )
        states = [predictor.shared_state() for predictor in server.predictors]
        assert all(state is states[0] for state in states)  # one copy, shared
        refreshes = sum(p.stats.embedding_refreshes for p in server.predictors)
        hits = sum(p.stats.embedding_cache_hits for p in server.predictors)
        assert refreshes == 1 and hits == 2
        results = [p.predict(sample).ranked_pois for p in server.predictors]
        assert results[0] == results[1] == results[2]


# ----------------------------------------------------------------------
# end-to-end equivalence on the real model
# ----------------------------------------------------------------------
class TestServedEquivalence:
    def test_concurrent_clients_match_direct_predict_batch(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        direct = {id(s): r for s, r in zip(batch, model.predict_batch(batch))}

        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0)
        server = InferenceServer(model, config=config).start()
        failures = []
        try:
            def client(offset):
                try:
                    for sample in batch[offset::2]:
                        served = server.predict(sample, timeout=30.0)
                        expected = direct[id(sample)]
                        assert served.ranked_pois == expected.ranked_pois
                        assert served.ranked_tiles == expected.ranked_tiles
                        assert served.target_poi == expected.target_poi
                        assert served.poi_rank == expected.poi_rank
                except Exception as error:
                    failures.append(repr(error))

            threads = [threading.Thread(target=client, args=(o,)) for o in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.stop(drain=True)
        assert not failures

    def test_hot_reload_propagates_to_every_worker(self, tiny, model, tmp_path):
        dataset, splits = tiny
        other = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(9))
        other.eval()
        checkpoint = save_checkpoint(other, tmp_path / "other.npz")
        probes = splits.test[:4]
        expected = [r.ranked_pois for r in other.predict_batch(probes)]
        before = [r.ranked_pois for r in model.predict_batch(probes)]
        assert expected != before, "fixture models must rank differently"

        server = InferenceServer(model, config=ServerConfig(workers=2)).start()
        try:
            version_before = model.weights_version()
            served_before = [server.predict(s, timeout=30.0).ranked_pois for s in probes]
            assert served_before == before
            new_version = server.reload_weights(str(checkpoint))
            assert new_version > version_before
            # every replica shares the swapped parameters (zero-copy)
            for predictor in server.predictors:
                replica_ranks = [
                    r.ranked_pois for r in predictor.predict_batch(probes)
                ]
                assert replica_ranks == expected
            served_after = [server.predict(s, timeout=30.0).ranked_pois for s in probes]
            assert served_after == expected
        finally:
            server.stop(drain=True)

    def test_reload_rejects_other_models_checkpoint(self, tiny, model, tmp_path):
        from repro.baselines import make_baseline

        dataset, splits = tiny
        locations = np.array(
            [dataset.spec.bbox.normalize(x, y) for x, y in dataset.city.pois.xy]
        )
        mc = make_baseline("MC", len(dataset.city.pois), locations)
        mc.fit(splits.train)
        checkpoint = save_checkpoint(mc, tmp_path / "mc.npz")
        server = InferenceServer(model, config=ServerConfig(workers=1))
        with pytest.raises(ValueError, match="MC"):
            server.reload_weights(str(checkpoint))


class TestCompiledServing:
    """The compiled-plan path through the async runtime (satellite of
    the trace/plan refactor): identity vs eager, the shared pool-wide
    plan cache, the ``/stats`` plans section, and the escape hatch."""

    def test_async_compiled_matches_eager(self, tiny, model):
        _, splits = tiny
        batch = _edge_case_batch(splits)
        eager = Predictor(model, graph_cache_size=None, compile=False)
        expected = {id(s): r for s, r in zip(batch, eager.predict_batch(batch))}

        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0)
        server = InferenceServer(model, config=config).start()
        try:
            assert server.plan_cache is not None
            for sample in batch:
                served = server.predict(sample, timeout=30.0)
                want = expected[id(sample)]
                assert served.ranked_pois == want.ranked_pois
                assert served.ranked_tiles == want.ranked_tiles
                assert served.poi_rank == want.poi_rank
            # every worker replica shares the one plan cache
            assert all(
                p.plan_cache is server.plan_cache for p in server.predictors
            )
        finally:
            server.stop(drain=True)

    def test_stats_reports_plans_section(self, tiny, model):
        _, splits = tiny
        config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0)
        server = InferenceServer(model, config=config).start()
        try:
            for sample in splits.test[:8]:
                server.predict(sample, timeout=30.0)
            plans = server.stats()["plans"]
        finally:
            server.stop(drain=True)
        assert plans["enabled"] is True
        assert plans["dtype"] == "float64"
        assert plans["traces"] >= 1
        assert plans["misses"] >= plans["traces"]
        assert plans["hits"] >= 0 and plans["fallbacks"] == 0
        assert plans["plans"], "at least one live plan after serving"
        for entry in plans["plans"]:
            assert len(entry["bucket"]) == 4
            assert entry["steps"] > 0
            assert entry["buffer_bytes"] >= 0

    def test_compile_false_escape_hatch(self, tiny, model):
        _, splits = tiny
        batch = list(splits.test[:4])
        eager = Predictor(model, graph_cache_size=None, compile=False)
        expected = [r.ranked_pois for r in eager.predict_batch(batch)]
        config = ServerConfig(workers=1, compile=False)
        server = InferenceServer(model, config=config).start()
        try:
            assert server.plan_cache is None
            served = [server.predict(s, timeout=30.0).ranked_pois for s in batch]
            assert server.stats()["plans"] == {"enabled": False}
        finally:
            server.stop(drain=True)
        assert served == expected

    def test_plan_dtype_float32_served(self, tiny, model):
        _, splits = tiny
        batch = list(splits.test[:4])
        config = ServerConfig(workers=1, plan_dtype="float32")
        server = InferenceServer(model, config=config).start()
        try:
            results = [server.predict(s, timeout=30.0) for s in batch]
            plans = server.stats()["plans"]
        finally:
            server.stop(drain=True)
        assert plans["dtype"] == "float32"
        assert all(r.ranked_pois for r in results)


class TestConcurrentPredictor:
    def test_parallel_predicts_match_serial(self, tiny, model):
        _, splits = tiny
        test = splits.test[:12]
        serial = [oracle.predict(model, s).ranked_pois for s in test]

        predictor = Predictor(model)
        results = {}
        failures = []

        def client(indices):
            try:
                for i in indices:
                    results[i] = predictor.predict(test[i]).ranked_pois
            except Exception as error:
                failures.append(repr(error))

        threads = [
            threading.Thread(target=client, args=(range(o, len(test), 4),))
            for o in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert [results[i] for i in range(len(test))] == serial
        # the shared-state lock collapsed concurrent refreshes into one
        assert predictor.stats.embedding_refreshes == 1
        assert predictor.stats.requests == len(test)

    def test_graph_cache_stays_bounded_under_concurrency(self, tiny, model):
        _, splits = tiny
        by_key = {}
        for sample in splits.test + splits.train:
            by_key.setdefault(sample.history_key, sample)
        distinct = [s for s in by_key.values() if s.history][:8]
        assert len(distinct) >= 4, "fixture needs several distinct histories"

        predictor = Predictor(model, graph_cache_size=2)
        failures = []

        def client(samples):
            try:
                for sample in samples:
                    predictor.predict(sample)
                    assert len(predictor.graph_cache) <= 2
            except Exception as error:
                failures.append(repr(error))

        threads = [
            threading.Thread(target=client, args=(distinct[o::2],)) for o in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(predictor.graph_cache) <= 2


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_sample_round_trip_fields(self):
        sample = sample_from_json(
            {
                "user_id": 3,
                "prefix": [{"poi_id": 1, "timestamp": 2.5}, 4],
                "history": [[0, 1], [{"poi_id": 2, "timestamp": 9.0}]],
                "target": {"poi_id": 5, "timestamp": 3.0},
            },
            num_pois=10,
        )
        assert sample.user_id == 3
        assert [v.poi_id for v in sample.prefix] == [1, 4]
        assert sample.prefix[1].timestamp == 1.0  # bare ids index-timestamped
        assert [t.poi_ids for t in sample.history] == [[0, 1], [2]]
        assert sample.target.poi_id == 5
        assert sample.history_key[0] == "serve"

    def test_equal_histories_share_cache_key(self):
        a = sample_from_json({"user_id": 1, "prefix": [1], "history": [[2, 3]]})
        b = sample_from_json({"user_id": 1, "prefix": [4], "history": [[2, 3]]})
        c = sample_from_json({"user_id": 1, "prefix": [4], "history": [[3, 2]]})
        assert a.history_key == b.history_key
        assert a.history_key != c.history_key

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "JSON object"),
            ({"prefix": []}, "non-empty"),
            ({"prefix": "nope"}, "non-empty"),
            ({"prefix": [1.5]}, "integer"),
            ({"prefix": [{"timestamp": 1.0}]}, "poi_id"),
            ({"prefix": [{"poi_id": 1, "timestamp": "late"}]}, "number"),
            ({"prefix": [1], "history": [[]]}, "history"),
            ({"prefix": [1], "user_id": "me"}, "user_id"),
            ({"prefix": [99]}, "universe"),
            ({"prefix": [1], "target": {"poi_id": -2}}, "universe"),
        ],
    )
    def test_validation_errors(self, payload, message):
        with pytest.raises(ValueError, match=message):
            sample_from_json(payload, num_pois=10)

    def test_result_to_json_shapes(self):
        with_target = PredictorResult(
            ranked_pois=[3, 1, 2], target_poi=1, ranked_tiles=[7, 8],
            target_tile=7, num_pois=50,
        )
        body = result_to_json(with_target, k=2)
        assert body == {
            "top_pois": [3, 1],
            "num_pois": 50,
            "top_tiles": [7, 8],
            "target_poi": 1,
            "poi_rank": 2,
        }
        live = PredictorResult(ranked_pois=[3, 1, 2], target_poi=-1)
        assert result_to_json(live, k=2) == {"top_pois": [3, 1], "num_pois": None}


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def http_stack(model):
    config = ServerConfig(workers=2, max_batch_size=4, max_wait_ms=2.0)
    server = InferenceServer(model, config=config).start()
    front = HttpFrontend(server, port=0).start()
    yield server, front
    front.stop()
    server.stop(drain=True)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def front_door(model):
    """The front-door contract's stack: a stateful single-process server."""
    config = ServerConfig(workers=1, max_batch_size=4, max_wait_ms=1.0)
    server = InferenceServer(
        model, config=config, state_store=UserStateStore(StoreConfig(num_shards=2))
    ).start()
    front = HttpFrontend(server, port=0).start()
    yield front
    front.stop()
    server.stop(drain=True)


class TestHttpFrontend(FrontDoorContract):
    def test_healthz(self, http_stack):
        _, front = http_stack
        status, body = _get(front.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2

    def test_predict_matches_direct_model(self, tiny, model, http_stack):
        _, splits = tiny
        _, front = http_stack
        sample = next(s for s in splits.test if s.history)
        payload = {
            "user_id": sample.user_id,
            "prefix": [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in sample.prefix],
            "history": [
                [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in t.visits]
                for t in sample.history
            ],
            "target": {"poi_id": sample.target.poi_id, "timestamp": sample.target.timestamp},
            "k": 5,
        }
        status, body = _post(front.url + "/predict", payload)
        assert status == 200
        direct = oracle.predict(model, sample)
        assert body["top_pois"] == direct.top_k(5)
        assert body["poi_rank"] == direct.poi_rank
        assert body["target_poi"] == sample.target.poi_id
        assert body["num_pois"] == model.num_pois

    def test_recommend_strips_target(self, tiny, http_stack):
        _, splits = tiny
        _, front = http_stack
        sample = splits.test[0]
        payload = {
            "user_id": sample.user_id,
            "prefix": [v.poi_id for v in sample.prefix],
            "target": {"poi_id": 0, "timestamp": 0.0},
            "k": 3,
        }
        status, body = _post(front.url + "/recommend", payload)
        assert status == 200
        assert len(body["recommendations"]) == 3
        assert "poi_rank" not in body and "target_poi" not in body

    def test_concurrent_http_clients_all_succeed(self, tiny, http_stack):
        _, splits = tiny
        _, front = http_stack
        outcomes = []
        lock = threading.Lock()

        def client(index):
            sample = splits.test[index % len(splits.test)]
            status, body = _post(
                front.url + "/predict",
                {"user_id": sample.user_id,
                 "prefix": [v.poi_id for v in sample.prefix], "k": 4},
            )
            with lock:
                outcomes.append((status, len(body.get("top_pois", []))))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == [(200, 4)] * 8

    def test_malformed_json_is_400(self, http_stack):
        _, front = http_stack
        request = urllib.request.Request(
            front.url + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_stats_shape(self, http_stack):
        _, front = http_stack
        status, stats = _get(front.url + "/stats")
        assert status == 200
        assert stats["workers"] == 2
        assert {"scheduler", "batches", "requests"} <= set(stats)
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(stats["requests"])
        assert stats["scheduler"]["max_batch_size"] == 4

    def test_unknown_get_is_404(self, http_stack):
        _, front = http_stack
        status, body = _get(front.url + "/nope")
        assert status == 404

    def test_reload_shape_mismatch_is_400_and_keeps_serving(
        self, tiny, model, http_stack, tmp_path
    ):
        """A checkpoint whose *last* parameter has the wrong shape is
        rejected whole: no weight changes, and the old ranked lists are
        still served."""
        _, splits = tiny
        _, front = http_stack
        sample = next(s for s in splits.test if s.history)
        payload = {
            "user_id": sample.user_id,
            "prefix": [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in sample.prefix],
            "history": [
                [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in t.visits]
                for t in sample.history
            ],
            "k": 10,
        }
        status, before = _post(front.url + "/predict", payload)
        assert status == 200
        good = save_checkpoint(model, tmp_path / "good.npz")
        meta, params, _ = read_checkpoint(good)
        last = list(dict(model.named_parameters()))[-1]
        params[last] = np.zeros(params[last].shape + (1,))
        bad = tmp_path / "bad.npz"
        np.savez(
            bad,
            __meta__=np.array(json.dumps(meta)),
            **{"param::" + name: value for name, value in params.items()},
        )
        versions = [p.version for p in model.parameters()]
        status, body = _post(front.url + "/reload", {"checkpoint": str(bad)})
        assert status == 400
        assert "shape mismatch" in body["error"]
        assert [p.version for p in model.parameters()] == versions
        assert _post(front.url + "/predict", payload) == (200, before)

    def test_reload_corrupt_checkpoint_is_400_not_dropped(self, http_stack, tmp_path):
        _, front = http_stack
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"this is not an npz archive")
        status, body = _post(front.url + "/reload", {"checkpoint": str(corrupt)})
        assert status == 400
        assert "error" in body


# ----------------------------------------------------------------------
# checkpoint recipe bugfix + CLI guards
# ----------------------------------------------------------------------
class TestCheckpointRecipeErrors:
    def _tampered_checkpoint(self, tiny, model, tmp_path, mutate):
        dataset, _ = tiny
        path = save_checkpoint(model, tmp_path / "good.npz", dataset=dataset)
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(data["__meta__"].item())
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        mutate(meta)
        tampered = tmp_path / "tampered.npz"
        np.savez_compressed(tampered, __meta__=np.array(json.dumps(meta)), **arrays)
        return tampered

    def test_unknown_preset_surfaces_clear_error(self, tiny, model, tmp_path):
        def rename(meta):
            meta["dataset"]["name"] = "atlantis"

        tampered = self._tampered_checkpoint(tiny, model, tmp_path, rename)
        with pytest.raises(ValueError, match="atlantis"):
            Predictor.from_checkpoint(tampered)

    def test_unknown_recipe_argument_surfaces_clear_error(self, tiny, model, tmp_path):
        def add_arg(meta):
            meta["dataset"]["from_the_future"] = 1

        tampered = self._tampered_checkpoint(tiny, model, tmp_path, add_arg)
        with pytest.raises(ValueError, match="cannot rebuild its dataset"):
            Predictor.from_checkpoint(tampered)


class TestServeCLI:
    def test_serve_requires_preset_or_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "preset or --checkpoint" in capsys.readouterr().err

    def test_serve_missing_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["serve", "--checkpoint", "/nonexistent.npz"]) == 2
        assert "not found" in capsys.readouterr().err
