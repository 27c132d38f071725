"""Differential fuzz harness for incremental QR-P graph maintenance.

The correctness story of the incremental hot path is equivalence: after
*every* event of *any* stream, the O(session)-maintained graph must be
node-, edge-, and attention-identical to a from-scratch
``build_qrp_graph`` rebuild of the same completed sessions.  This
module proves it three ways:

* a seeded random check-in stream generator (gaps straddling the 72h
  rule, forced rolls at ``max_session_visits``, deque evictions,
  repeat POIs, length-1 sessions) drives 200+ fast differential
  streams — plus a long randomized soak behind the ``slow`` marker;
* the serve path's packed block-diagonal HGAT is identity-tested
  against the per-graph path (mixed graph sizes, empty-graph users,
  ``MAX_PACKED_NODES`` overflow, concurrent ``InferenceServer`` load);
* snapshot/recovery carries the incremental graphs: a restored store
  fed the same tail converges to graphs identical to a store that
  never went down.
"""

import threading

import numpy as np
import oracle
import pytest

import repro.core.model as model_module
from repro.autograd import Tensor
from repro.cluster.snapshot import load_snapshot, save_snapshot
from repro.core import TSPNRA, TSPNRAConfig
from repro.core.hgat import HGATEncoder
from repro.data import build_dataset, make_samples
from repro.data.trajectory import Trajectory, Visit
from repro.geo import BoundingBox
from repro.graphs import (
    EDGE_TYPES,
    QRPGraphMaintainer,
    StaleEvictionError,
    attention_masks,
    build_qrp_graph,
    evict_qrp_graph,
    graphs_equal,
    update_qrp_graph,
)
from repro.serve import InferenceServer, Predictor, ServerConfig
from repro.spatial import RegionQuadTree
from repro.stream import (
    CheckinEvent,
    StoreConfig,
    StreamIngest,
    UserStateStore,
    events_from_checkins,
    prequential_replay,
    serialised_rebuild_baseline,
    stream_history_key,
)
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)
GAP = 72.0
BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)
NUM_POIS = 80

#: fast-suite differential stream count (acceptance: >= 200)
N_FAST_STREAMS = 208


# ----------------------------------------------------------------------
# synthetic world + stream generator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    """A quad-tree + road adjacency rich enough to move under streams."""
    rng = np.random.default_rng(20240808)
    points = rng.uniform(0.2, 9.8, size=(NUM_POIS, 2))
    tree = RegionQuadTree.build(BOX, points, max_depth=5, max_pois=8)
    leaves = tree.leaves()
    adjacency = {(min(a, b), max(a, b)) for a, b in zip(leaves, leaves[1:])}
    adjacency |= {(min(a, b), max(a, b)) for a, b in zip(leaves, leaves[2:])}
    return tree, adjacency


def _stream(rng, user, n_events, start=0.0, pool_size=8):
    """Seeded per-user stream exercising every session-boundary case.

    Gap choices deliberately straddle the 72h rule (71.9 stays in
    session, exactly 72.0 rolls); a large-gap tail run produces
    length-1 sessions; a small POI pool forces repeat visits so the
    first-visit ordering (and its eviction-time reshuffles) is
    exercised hard.
    """
    pool = rng.choice(NUM_POIS, size=pool_size, replace=False)
    gaps = np.array([0.2, 1.0, 12.0, 71.9, 72.0, 100.0, 500.0])
    probabilities = np.array([0.35, 0.2, 0.1, 0.05, 0.15, 0.1, 0.05])
    t = float(start)
    for _ in range(n_events):
        t += float(rng.choice(gaps, p=probabilities))
        if rng.random() < 0.8:
            poi = int(pool[rng.integers(len(pool))])
        else:
            poi = int(rng.integers(NUM_POIS))
        yield CheckinEvent(user_id=user, poi_id=poi, timestamp=t)


def _interleave(rng, streams):
    """Merge per-user streams round-robin-ish (per-user order intact)."""
    streams = [list(s) for s in streams]
    merged = []
    while any(streams):
        index = int(rng.integers(len(streams)))
        if streams[index]:
            merged.append(streams[index].pop(0))
    return merged


def _assert_graph_matches(tree, adjacency, snapshot, context):
    """The live graph == a from-scratch rebuild: nodes, edges, masks."""
    assert snapshot.graph is not None, context
    qrp, masks = snapshot.graph
    expected = build_qrp_graph(tree, adjacency, snapshot.history)
    assert graphs_equal(qrp, expected), context
    if qrp.is_empty:
        assert masks == {}, context
    else:
        expected_masks = attention_masks(expected)
        assert set(masks) == set(expected_masks), context
        for kind, mask in expected_masks.items():
            assert np.array_equal(masks[kind], mask), (context, kind)


def _fuzz_one_stream(tree, adjacency, seed, users=2, events_per_user=12):
    """One differential stream; returns the store's final stats."""
    rng = np.random.default_rng(seed)
    config = StoreConfig(
        num_shards=2,
        max_sessions=int(rng.integers(1, 5)),
        max_session_visits=int(rng.integers(2, 6)),
        gap_hours=GAP,
    )
    store = UserStateStore(config)
    assert store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
    events = _interleave(
        rng,
        [
            _stream(rng, user, events_per_user, start=float(rng.uniform(0, 50)))
            for user in range(users)
        ],
    )
    for index, event in enumerate(events):
        store.append(event)
        snapshot = store.snapshot(event.user_id)
        _assert_graph_matches(tree, adjacency, snapshot, (seed, index))
    return store.stats()


# ----------------------------------------------------------------------
# the differential fuzz harness
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    def test_incremental_equals_rebuild_across_seeded_streams(self, world):
        """>= 200 seeded streams, graph identity checked after EVERY event.

        The aggregate coverage asserts prove the generator actually hit
        the hard cases (forced rolls, deque evictions) and that no
        stream needed the counted fallback rebuild.
        """
        tree, adjacency = world
        totals = {"sessions_rolled": 0, "forced_rolls": 0, "graph_evictions": 0}
        for seed in range(N_FAST_STREAMS):
            stats = _fuzz_one_stream(tree, adjacency, 1000 + seed)
            assert stats["graph_rebuilds"] == 0, seed
            assert stats["graph_updates"] == stats["sessions_rolled"], seed
            for key in totals:
                totals[key] += stats[key]
        assert totals["sessions_rolled"] > N_FAST_STREAMS  # rollovers everywhere
        assert totals["forced_rolls"] > 0  # max_session_visits rule fired
        assert totals["graph_evictions"] > 0  # deque bound fired

    def test_length_one_sessions_and_repeats(self, world):
        """A pure big-gap stream: every session is a single visit."""
        tree, adjacency = world
        store = UserStateStore(StoreConfig(num_shards=1, max_sessions=3))
        assert store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        pois = [4, 9, 4, 4, 9, 2, 4]  # heavy repeats across sessions
        for index, poi in enumerate(pois):
            store.append(CheckinEvent(user_id=1, poi_id=poi, timestamp=index * 100.0))
            _assert_graph_matches(tree, adjacency, store.snapshot(1), index)
        stats = store.stats()
        assert stats["graph_evictions"] > 0
        assert stats["graph_rebuilds"] == 0

    @pytest.mark.slow
    def test_long_randomized_soak(self, world):
        """Longer streams, more users, wider config space."""
        tree, adjacency = world
        for seed in range(48):
            rng = np.random.default_rng(77_000 + seed)
            config = StoreConfig(
                num_shards=int(rng.integers(1, 5)),
                max_sessions=int(rng.integers(1, 8)),
                max_session_visits=int(rng.integers(2, 10)),
                gap_hours=GAP,
            )
            store = UserStateStore(config)
            assert store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
            events = _interleave(
                rng,
                [
                    _stream(
                        rng,
                        user,
                        120,
                        start=float(rng.uniform(0, 50)),
                        pool_size=int(rng.integers(3, 16)),
                    )
                    for user in range(3)
                ],
            )
            for index, event in enumerate(events):
                store.append(event)
                snapshot = store.snapshot(event.user_id)
                _assert_graph_matches(tree, adjacency, snapshot, (seed, index))
            assert store.stats()["graph_rebuilds"] == 0, seed


# ----------------------------------------------------------------------
# the incremental API surface
# ----------------------------------------------------------------------
def _sessions(pois_per_session, user=1, start=0.0):
    sessions = []
    t = start
    for pois in pois_per_session:
        visits = []
        for poi in pois:
            visits.append(Visit(poi_id=poi, timestamp=t))
            t += 1.0
        sessions.append(Trajectory(user_id=user, visits=visits))
        t += 100.0
    return sessions


class TestIncrementalAPI:
    def test_update_matches_build_at_every_prefix(self, world):
        tree, adjacency = world
        sessions = _sessions([[1, 5, 1], [9, 5], [33], [1, 40, 41, 9]])
        maintainer = QRPGraphMaintainer(tree, adjacency)
        state = maintainer.new_state()
        for count, session in enumerate(sessions, start=1):
            qrp = update_qrp_graph(state, session)
            expected = build_qrp_graph(tree, adjacency, sessions[:count])
            assert graphs_equal(qrp, expected)
            for kind in EDGE_TYPES:
                assert np.array_equal(
                    state.masks[kind], attention_masks(expected)[kind]
                )

    def test_evict_matches_build_at_every_suffix(self, world):
        tree, adjacency = world
        sessions = _sessions([[1, 5], [9, 1], [33, 9], [40, 5, 1]])
        maintainer = QRPGraphMaintainer(tree, adjacency)
        state = maintainer.build_state(sessions)
        for dropped in range(1, len(sessions)):
            qrp = evict_qrp_graph(state, sessions[dropped - 1])
            expected = build_qrp_graph(tree, adjacency, sessions[dropped:])
            assert graphs_equal(qrp, expected), dropped

    def test_eviction_reorders_first_visit_order(self, world):
        """S0=[A], S1=[B], S2=[A]: evicting S0 flips POI order to B, A."""
        tree, adjacency = world
        a, b = 4, 9
        sessions = _sessions([[a], [b], [a]])
        maintainer = QRPGraphMaintainer(tree, adjacency)
        state = maintainer.build_state(sessions)
        assert state.qrp.poi_refs == [a, b]
        evict_qrp_graph(state, sessions[0])
        assert state.qrp.poi_refs == [b, a]
        assert graphs_equal(
            state.qrp, build_qrp_graph(tree, adjacency, sessions[1:])
        )

    def test_no_structural_change_reuses_graph_object(self, world):
        """Repeat-only sessions leave the graph object untouched."""
        tree, adjacency = world
        maintainer = QRPGraphMaintainer(tree, adjacency)
        state = maintainer.new_state()
        update_qrp_graph(state, _sessions([[3, 7]])[0])
        before = state.qrp
        update_qrp_graph(state, _sessions([[7, 3, 3]], start=500.0)[0])
        assert state.qrp is before

    def test_stale_eviction_raises(self, world):
        tree, adjacency = world
        maintainer = QRPGraphMaintainer(tree, adjacency)
        sessions = _sessions([[1, 5], [9]])
        state = maintainer.build_state(sessions)
        with pytest.raises(StaleEvictionError):
            evict_qrp_graph(state, sessions[1])  # not the oldest

    def test_attention_masks_match_per_edge_reference(self, world):
        tree, adjacency = world
        qrp = build_qrp_graph(tree, adjacency, _sessions([[1, 5, 9], [33, 1]]))
        masks = attention_masks(qrp)
        n = qrp.graph.num_nodes
        for kind in EDGE_TYPES:
            reference = np.ones((n, n), dtype=bool)
            for src, dst in qrp.graph.edges[kind]:
                reference[dst, src] = False
            assert np.array_equal(masks[kind], reference)
        via_hgat = HGATEncoder.build_masks(qrp)
        assert all(np.array_equal(masks[k], via_hgat[k]) for k in EDGE_TYPES)

    def test_hgat_forward_identical_on_incremental_graph(self, world):
        """Attention-identity in the strongest sense: same HGAT output."""
        tree, adjacency = world
        sessions = _sessions([[1, 5], [9, 33], [40, 1, 9]])
        maintainer = QRPGraphMaintainer(tree, adjacency)
        state = maintainer.new_state()
        for session in sessions:
            update_qrp_graph(state, session)
        rebuilt = build_qrp_graph(tree, adjacency, sessions)
        encoder = HGATEncoder(dim=8, num_layers=2, rng=spawn(3))
        h0 = Tensor(spawn(4).normal(size=(state.qrp.graph.num_nodes, 8)))
        incremental = encoder(state.qrp, h0, masks=state.masks)
        full = encoder(rebuilt, h0)
        assert np.array_equal(incremental.data, full.data)


# ----------------------------------------------------------------------
# store integration: lazy materialisation, counted fallbacks, pushes
# ----------------------------------------------------------------------
class TestStoreIntegration:
    def test_attach_after_traffic_counts_one_rebuild(self, world):
        """Users predating the attach pay one lazy counted build."""
        tree, adjacency = world
        store = UserStateStore(StoreConfig(num_shards=1))
        events = list(_stream(np.random.default_rng(2), 1, 8))
        for event in events[:4]:
            store.append(event)
        assert store.stats()["graph_updates"] == 0  # nothing attached yet
        assert store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        rolled = False
        for index, event in enumerate(events[4:]):
            result = store.append(event)
            rolled = rolled or result.session_rolled
            if result.session_rolled:
                _assert_graph_matches(tree, adjacency, store.snapshot(1), index)
        stats = store.stats()
        if rolled:
            assert stats["graph_rebuilds"] == 1  # the lazy materialisation
            assert stats["graph_updates"] + 1 == stats["sessions_rolled"]

    def test_second_maintainer_rejected(self, world):
        tree, adjacency = world
        store = UserStateStore(StoreConfig(num_shards=1))
        first = QRPGraphMaintainer(tree, adjacency)
        assert store.attach_graph_maintainer(first)
        assert store.attach_graph_maintainer(first)  # idempotent
        assert not store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        assert store.graph_maintainer is first
        assert not store.attach_graph_maintainer(None)

    def test_append_result_carries_replacement_entry(self, world):
        tree, adjacency = world
        store = UserStateStore(StoreConfig(num_shards=1))
        assert store.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        store.append(CheckinEvent(user_id=3, poi_id=5, timestamp=0.0))
        result = store.append(CheckinEvent(user_id=3, poi_id=9, timestamp=100.0))
        assert result.session_rolled
        assert result.invalidated_key == stream_history_key(3, 0)
        assert result.history_key == stream_history_key(3, result.state_version)
        qrp, masks = result.graph_entry
        expected = build_qrp_graph(tree, adjacency, store.snapshot(3).history)
        assert graphs_equal(qrp, expected)
        assert set(masks) == set(EDGE_TYPES)

    def test_no_maintainer_means_no_entry(self):
        store = UserStateStore(StoreConfig(num_shards=1))
        store.append(CheckinEvent(user_id=3, poi_id=5, timestamp=0.0))
        result = store.append(CheckinEvent(user_id=3, poi_id=9, timestamp=100.0))
        assert result.session_rolled
        assert result.graph_entry is None
        assert result.history_key == stream_history_key(3, result.state_version)
        assert store.snapshot(3).graph is None


# ----------------------------------------------------------------------
# snapshot / recovery: a restored shard converges to identical graphs
# ----------------------------------------------------------------------
class TestRecoveryGraphIdentity:
    def test_recovered_store_graphs_match_never_crashed_live(self, world, tmp_path):
        """Snapshot mid-session, restore, continue: graphs identical."""
        tree, adjacency = world
        config = StoreConfig(num_shards=2, max_sessions=3, max_session_visits=4)
        live = UserStateStore(config)
        assert live.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        rng = np.random.default_rng(5)
        events = _interleave(
            rng, [_stream(rng, user, 30, start=user * 3.0) for user in (1, 2)]
        )
        half = len(events) // 2
        for event in events[:half]:
            live.append(event)
        assert live.stats()["open_visits"] > 0  # the cut lands mid-session
        path = save_snapshot(live, tmp_path, last_seq=half)

        recovered = load_snapshot(path).store
        assert recovered.attach_graph_maintainer(QRPGraphMaintainer(tree, adjacency))
        for event in events[half:]:
            live.append(event)
            recovered.append(event)

        post_restore_rolls = 0
        for user in live.users():
            ours, theirs = live.snapshot(user), recovered.snapshot(user)
            assert ours.state_version == theirs.state_version
            assert ours.history_version == theirs.history_version
            assert ours.history == theirs.history and ours.prefix == theirs.prefix
            _assert_graph_matches(tree, adjacency, ours, user)
            if theirs.graph is not None:  # materialised on a post-restore roll
                post_restore_rolls += 1
                _assert_graph_matches(tree, adjacency, theirs, user)
                assert graphs_equal(ours.graph[0], theirs.graph[0])
        assert post_restore_rolls > 0  # the identity check actually ran
        stats = recovered.stats()
        assert stats["graph_rebuilds"] >= 1  # lazy materialisation, counted
        # pre-crash lifetime counters survived via the snapshot meta
        assert stats["graph_updates"] >= live.stats()["graph_updates"] - stats["graph_rebuilds"]


# ----------------------------------------------------------------------
# serve path: packed block-diagonal HGAT == per-graph path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_dataset():
    return build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)


@pytest.fixture(scope="module")
def model(tiny_dataset):
    """Untrained TSPN-RA: identity checks don't need trained weights."""
    model = TSPNRA.from_dataset(tiny_dataset, TSPNRAConfig(**CFG), rng=spawn(0))
    model.eval()
    return model


@pytest.fixture(scope="module")
def mixed_batch(tiny_dataset):
    """Heterogeneous graph sizes + empty-graph (no-history) users."""
    samples = make_samples(tiny_dataset, last_only=False)
    samples.sort(key=lambda s: len(s.history))
    batch = samples[:: max(1, len(samples) // 14)][:14]
    empty = [s for s in samples if not s.history]
    assert empty, "need cold-start users in the batch"
    return batch + empty[:2]


class TestPackedServeIdentity:
    def test_packed_batch_matches_per_graph_path(self, model, mixed_batch):
        shared = model.compute_embeddings()
        model.clear_graph_cache()
        batched = model.predict_batch(mixed_batch, *shared)
        for sample, got in zip(mixed_batch, batched):
            want = oracle.predict(model, sample, *shared)
            assert got.ranked_pois == want.ranked_pois, sample.history_key
            assert got.ranked_tiles == want.ranked_tiles, sample.history_key

    def test_pack_cap_overflow_falls_back_identically(
        self, model, mixed_batch, monkeypatch
    ):
        """A tiny MAX_PACKED_NODES forces pack splits + solo overflow
        graphs; ranked lists must not move."""
        shared = model.compute_embeddings()
        reference = model.predict_batch(mixed_batch, *shared)
        monkeypatch.setattr(model_module, "MAX_PACKED_NODES", 8)
        capped = model.predict_batch(mixed_batch, *shared)
        for want, got in zip(reference, capped):
            assert got.ranked_pois == want.ranked_pois
            assert got.ranked_tiles == want.ranked_tiles

    def test_packed_identity_under_concurrent_server_load(
        self, model, tiny_dataset, mixed_batch
    ):
        shared = model.compute_embeddings()
        expected = [oracle.predict(model, s, *shared) for s in mixed_batch]
        config = ServerConfig(workers=2, max_batch_size=8, max_wait_ms=2, compile=False)
        with InferenceServer(model, config=config, dataset=tiny_dataset) as server:
            results = [None] * len(mixed_batch)
            errors = []

            def drive(indices):
                try:
                    for i in indices:
                        results[i] = server.predict(mixed_batch[i])
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=drive, args=(range(lane, len(mixed_batch), 4),))
                for lane in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for want, got in zip(expected, results):
            assert got.ranked_pois == want.ranked_pois


# ----------------------------------------------------------------------
# end-to-end: pushed entries serve identical ranked lists
# ----------------------------------------------------------------------
class TestIngestPushes:
    def test_rollover_pushes_entry_that_matches_rebuild(self, model):
        predictor = Predictor(model, graph_cache_size=64, compile=False)
        ingest = StreamIngest(UserStateStore(StoreConfig(num_shards=1)))
        ingest.register_predictor(predictor)
        ingest.ingest(CheckinEvent(user_id=11, poi_id=3, timestamp=0.0))
        result = ingest.ingest(CheckinEvent(user_id=11, poi_id=5, timestamp=100.0))
        assert result.session_rolled
        entry = predictor.graph_cache.get(result.history_key)
        assert entry is not None, "rollover should push the fresh entry"
        snapshot = ingest.store.snapshot(11)
        expected = model.tile_system.build_graph(snapshot.history)
        assert graphs_equal(entry[0], expected)
        stats = ingest.stats()
        assert stats["graph_pushes"] == 1
        assert stats["push_caches"] == 1

    def test_drop_edge_ablation_opts_out_of_pushes(self, tiny_dataset):
        ablated = TSPNRA.from_dataset(
            tiny_dataset,
            TSPNRAConfig(drop_edge_type="road", **CFG),
            rng=spawn(1),
        )
        ablated.eval()
        assert ablated.stream_graph_maintainer() is None
        predictor = Predictor(ablated, graph_cache_size=16, compile=False)
        ingest = StreamIngest(UserStateStore(StoreConfig(num_shards=1)))
        ingest.register_predictor(predictor)
        ingest.ingest(CheckinEvent(user_id=1, poi_id=3, timestamp=0.0))
        result = ingest.ingest(CheckinEvent(user_id=1, poi_id=5, timestamp=100.0))
        assert result.session_rolled and result.graph_entry is None
        stats = ingest.stats()
        assert stats["push_caches"] == 0 and stats["graph_pushes"] == 0

    def test_replay_legs_identical_with_and_without_pushes(self, model, tiny_dataset):
        """Incremental replay (pushed graphs) ranks exactly as the
        serialised rebuild (every graph built from scratch)."""
        events = events_from_checkins(tiny_dataset.checkins)[:220]
        predictor = Predictor(model, graph_cache_size=256, compile=False)
        baseline = serialised_rebuild_baseline(predictor, events, keep_results=True)
        predictor.graph_cache.clear()
        incremental = prequential_replay(
            predictor,
            events,
            store_config=StoreConfig(max_sessions=4096, max_session_visits=4096),
            keep_results=True,
        )
        assert incremental.predictions == baseline.predictions > 0
        assert [r.result.ranked_pois for r in incremental.records] == [
            r.result.ranked_pois for r in baseline.records
        ]
        assert incremental.ingest_stats["graph_pushes"] > 0
        assert incremental.ingest_stats["graph_rebuilds"] == 0
