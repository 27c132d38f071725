"""Joining spans across processes and batches into reconciling request trees."""

import json
from pathlib import Path

import pytest

from frontdoor import traceview as tv
from frontdoor.metrics import END_TO_END, PER_LAYER


def _span(sid, name, start, end, parent=None, rid=None, batch=None, value=None, pid=1):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "rid": rid, "batch": batch, "value": value, "pid": pid}


def _two_requests_one_batch():
    """Two requests whose inference rode one micro-batch."""
    spans = []
    for rid, (t0, t1) in {"a": (0.0, 10.0), "b": (1.0, 11.0)}.items():
        spans += [
            _span(f"client:{rid}", "client.request", t0, t1, rid=rid),
            _span(f"queue:{rid}", "loadgen.queue", t0, t0 + 0.5, f"client:{rid}", rid),
            _span(f"h:{rid}", "http.handler", t0 + 1.0, 9.5, None, rid),
            _span(f"d:{rid}", "codec.decode", t0 + 1.0, t0 + 1.5, f"h:{rid}", rid),
            _span(f"i:{rid}", "server.inference", t0 + 1.5, 9.0, f"h:{rid}", rid),
            _span(f"w:{rid}", "scheduler.queue_wait", t0 + 2.0, 4.0, f"i:{rid}"),
        ]
    spans += [
        _span("pb", "predictor.batch", 4.0, 8.5, batch=7),
        _span("run", "plans.replay", 5.0, 7.0, "pb", batch=7),
    ]
    return spans, {7: ["i:a", "i:b"]}


def test_batch_work_is_copied_under_every_member_and_trees_reconcile():
    spans, batches = _two_requests_one_batch()
    tv.link_processes(spans)
    roots = [s for s in spans if s["name"] == "client.request"]
    trees = tv.request_trees(spans, batches, roots)
    assert [sum(s["name"] == "plans.replay" for s in tree) for tree in trees] == [1, 1]
    table = tv.layer_table(trees)
    assert table["reconcile_ratio"] == pytest.approx(1.0)
    assert table["end_to_end_ms"] == pytest.approx(10.0e3)
    # plans.replay: 2 s in each request's tree
    assert table["per_request_ms"]["plans.replay"] == pytest.approx(2.0e3)
    # the unique spans count the shared batch once
    calls = tv.per_call(tv.reachable(trees, spans))
    assert calls["plans.replay"]["calls"] == 1
    assert calls["predictor.batch"]["mean_self_ms"] == pytest.approx(2.5e3)


def test_overlapping_children_break_reconciliation():
    spans = [_span("client:x", "client.request", 0.0, 4.0, rid="x"),
             _span("q", "loadgen.queue", 0.0, 3.0, "client:x"),
             _span("h", "http.handler", 2.0, 4.0, rid="x")]
    tv.link_processes(spans)
    table = tv.layer_table(tv.request_trees(spans, {}, [spans[0]]))
    assert table["reconcile_ratio"] == pytest.approx(5.0 / 4.0)


def test_shard_ops_join_the_round_trip_that_contains_them():
    spans = [
        _span("rt1", "router.roundtrip", 0.0, 2.0, value=42),
        _span("rt2", "router.roundtrip", 3.0, 5.0, value=42),
        _span("rt3", "router.roundtrip", 3.0, 5.0, value=43),
        _span("op1", "shard.op", 0.5, 1.5, value="checkin", pid=42),
        _span("op2", "shard.op", 3.2, 4.0, value="predict", pid=42),
        _span("ping", "shard.op", 3.5, 3.6, value="ping", pid=42),  # control plane
    ]
    tv.link_processes(spans)
    parents = {s["id"]: s["parent"] for s in spans}
    assert parents["op1"] == "rt1" and parents["op2"] == "rt2" and parents["ping"] is None


def test_overhead_is_client_latency_minus_time_in_the_server():
    spans, batches = _two_requests_one_batch()
    tv.link_processes(spans)
    trees = tv.request_trees(spans, batches, [s for s in spans if s["name"] == "client.request"])
    assert tv.overhead_ms(trees, ("server.inference",)) == pytest.approx([2.5e3, 3.5e3])


def test_catalogue_matches_benchmark_json():
    manifest = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == PER_LAYER
