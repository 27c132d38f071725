"""Turn the traced run's spans into per-request trees and per-layer numbers.

Spans arrive from several places: the load generator (one
``client.request`` per request, with a ``loadgen.queue`` child for the
time it waited to be put on the wire), the HTTP frontend (joined to
its client request through the ``X-Request-Id`` header), the shard
workers (joined to the router round-trip that contains them: one
shard serves one data-pipe request at a time), and the worker
threads, whose micro-batch spans serve every request in the batch.

A request's tree holds everything its latency waited on, the shared
batch included, so each layer's self time summed over a request's
tree equals that request's end-to-end time when the spans nest; the
reconciliation ratio checks exactly that.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from .loadgen import PhaseReport
from .metrics import PER_LAYER
from .stats import self_times

DATA_OPS = ("checkin", "predict", "predict_raw")


def client_spans(phases: Sequence[PhaseReport]) -> List[Dict]:
    spans = []
    for phase in phases:
        for outcome in phase.outcomes:
            rid = outcome.op.request_id
            root = f"client:{rid}"
            spans.append({"id": root, "name": "client.request", "start": outcome.ready_at,
                          "end": outcome.done_at, "parent": None, "rid": rid,
                          "batch": None, "value": None})
            spans.append({"id": f"queue:{rid}", "name": "loadgen.queue",
                          "start": outcome.ready_at, "end": outcome.sent_at, "parent": root,
                          "rid": rid, "batch": None, "value": None})
    return spans


def link_processes(spans: List[Dict]) -> None:
    """Attach handler spans to client requests and shard ops to round-trips."""
    roots = {s["rid"]: s["id"] for s in spans if s["name"] == "client.request"}
    roundtrips: Dict[int, List[Dict]] = defaultdict(list)
    for s in spans:
        if s["name"] == "router.roundtrip":
            roundtrips[s["value"]].append(s)
    for group in roundtrips.values():
        group.sort(key=lambda s: s["start"])
    starts = {pid: [s["start"] for s in group] for pid, group in roundtrips.items()}
    for s in spans:
        if s["parent"] is not None:
            continue
        if s["name"] == "http.handler" and s["rid"] in roots:
            s["parent"] = roots[s["rid"]]
        elif s["name"] == "shard.op" and s["value"] in DATA_OPS and s["pid"] in roundtrips:
            group = roundtrips[s["pid"]]
            i = bisect.bisect_right(starts[s["pid"]], s["start"]) - 1
            if i >= 0 and group[i]["end"] >= s["end"]:
                s["parent"] = group[i]["id"]


def _children(spans: Iterable[Dict]) -> Dict:
    index: Dict = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            index[s["parent"]].append(s)
    return index


def _subtree(root: Dict, children: Dict) -> List[Dict]:
    out, frontier = [], [root]
    while frontier:
        node = frontier.pop()
        out.append(node)
        frontier.extend(children.get(node["id"], ()))
    return out


def request_trees(spans: List[Dict], batches: Dict[int, List], roots: List[Dict]) -> List[List[Dict]]:
    """One span list per root, with each micro-batch copied under every member."""
    children = _children(spans)
    batch_of = {isid: bid for bid, members in batches.items() for isid in members if isid is not None}
    batch_roots: Dict = defaultdict(list)
    for s in spans:
        if s["batch"] is not None and s["parent"] is None:
            batch_roots[s["batch"]].append(s)
    trees = []
    for root in roots:
        tree = _subtree(root, children)
        for node in list(tree):
            bid = batch_of.get(node["id"]) if node["name"] == "server.inference" else None
            for batch_root in batch_roots.get(bid, ()):
                for copy in _subtree(batch_root, children):
                    copy = dict(copy, id=("copy", node["id"], copy["id"]))
                    if copy["parent"] is None:
                        copy["parent"] = node["id"]
                    else:
                        copy["parent"] = ("copy", node["id"], copy["parent"])
                    tree.append(copy)
        trees.append(tree)
    return trees


def layer_table(trees: List[List[Dict]]) -> Dict:
    """Per-layer self time over the request trees, and its reconciliation.

    ``per_request_ms`` is each layer's mean self time per request;
    ``reconcile_ratio`` is the summed self time over the summed root
    durations (1.0 when every child nests inside its parent).
    """
    totals: Dict[str, float] = defaultdict(float)
    end_to_end = 0.0
    for tree in trees:
        root = next(s for s in tree if s["parent"] is None)
        end_to_end += root["end"] - root["start"]
        selfs = self_times(tree)
        for s in tree:
            totals[s["name"]] += selfs[s["id"]]
    n = max(len(trees), 1)
    accounted = sum(totals.values())
    return {
        "requests": len(trees),
        "end_to_end_ms": end_to_end / n * 1e3,
        "per_request_ms": {name: t / n * 1e3 for name, t in sorted(totals.items(), key=lambda kv: -kv[1])},
        "share": {name: t / end_to_end for name, t in totals.items()} if end_to_end else {},
        "reconcile_ratio": accounted / end_to_end if end_to_end else 0.0,
    }


def reachable(trees: List[List[Dict]], spans: List[Dict]) -> List[Dict]:
    """The unique (uncopied) spans the measured requests reached."""
    wanted = set()
    for tree in trees:
        for s in tree:
            sid = s["id"]
            wanted.add(sid[2] if isinstance(sid, tuple) else sid)
    return [s for s in spans if s["id"] in wanted]


def per_call(spans: List[Dict]) -> Dict[str, Dict]:
    """Calls, mean self/total time (ms) and summed value per span name."""
    selfs = self_times(spans)
    stats: Dict[str, Dict] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "value_sum": 0.0, "valued": 0})
    for s in spans:
        entry = stats[s["name"]]
        entry["calls"] += 1
        entry["self_ms"] += selfs[s["id"]] * 1e3
        entry["total_ms"] += (s["end"] - s["start"]) * 1e3
        if isinstance(s["value"], (int, float)):
            entry["value_sum"] += s["value"]
            entry["valued"] += 1
    for entry in stats.values():
        entry["mean_self_ms"] = entry["self_ms"] / entry["calls"]
        entry["mean_ms"] = entry["total_ms"] / entry["calls"]
    return dict(stats)


def mean_self(calls: Dict[str, Dict], name: str) -> float:
    entry = calls.get(name)
    return entry["mean_self_ms"] if entry else 0.0


def count(calls: Dict[str, Dict], name: str) -> float:
    entry = calls.get(name)
    return float(entry["calls"]) if entry else 0.0


def value_sum(calls: Dict[str, Dict], name: str) -> float:
    entry = calls.get(name)
    return entry["value_sum"] if entry else 0.0


def value_mean(calls: Dict[str, Dict], name: str) -> float:
    entry = calls.get(name)
    return entry["value_sum"] / entry["valued"] if entry and entry["valued"] else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def overhead_ms(trees: List[List[Dict]], inner: Sequence[str]) -> List[float]:
    """Per request: client latency minus the time inside the first ``inner`` span."""
    gaps = []
    for tree in trees:
        root = next(s for s in tree if s["parent"] is None)
        spans = [s for s in tree if s["name"] in inner and not isinstance(s["id"], tuple)]
        if spans:
            inside = max(s["end"] - s["start"] for s in spans)
            gaps.append(((root["end"] - root["start"]) - inside) * 1e3)
    return gaps


def layer_metrics(calls: Dict[str, Dict], table: Dict, fixed: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; layers the workload never reached read 0."""
    lookups = count(calls, "graphs.lookup")
    plan_lookups = count(calls, "plans.lookup")
    traces = count(calls, "plans.trace")
    values = {
        "codec.decode_ms": mean_self(calls, "codec.decode"),
        "codec.encode_ms": mean_self(calls, "codec.encode"),
        "scheduler.queue_wait_ms": mean_self(calls, "scheduler.queue_wait"),
        "predictor.batch_ms": mean_self(calls, "predictor.batch"),
        "graphs.cache_hit_ratio": 1.0 - ratio(count(calls, "graphs.build"), lookups) if lookups else 0.0,
        "plans.traces": traces,
        "plans.hit_ratio": 1.0 - ratio(traces, plan_lookups) if plan_lookups else 0.0,
        "plans.trace_ms": (calls["plans.trace"]["mean_ms"] if "plans.trace" in calls else 0.0),
        "plans.replay_ms": mean_self(calls, "plans.replay"),
        "model.encode_ms": mean_self(calls, "model.encode"),
        "model.hgat_ms": mean_self(calls, "model.hgat"),
        "model.fusion_ms": mean_self(calls, "model.fusion"),
        "rank.two_step_ms": mean_self(calls, "rank.two_step"),
        # rank_pois_batch records its mean candidate count, rank_tiles_batch none
        "rank.candidates_mean": value_mean(calls, "rank.two_step"),
        "graphs.build_ms": mean_self(calls, "graphs.build"),
        "graphs.incremental_updates": count(calls, "graphs.incremental"),
        "graphs.rebuilds": count(calls, "graphs.build"),
        "ingest.ingest_ms": mean_self(calls, "stream.ingest"),
        "store.sample_for_ms": mean_self(calls, "store.sample_for"),
        "ingest.rollovers": value_sum(calls, "stream.ingest"),
        "router.roundtrip_ms": mean_self(calls, "router.roundtrip"),
        "shard.op_ms": mean_self(calls, "shard.op"),
        "wal.append_ms": mean_self(calls, "wal.append"),
        "wal.bytes_appended": value_sum(calls, "wal.append"),
        "wal.snapshots": value_sum(calls, "wal.snapshot"),
        "wal.fsyncs": count(calls, "wal.fsync"),
        "train.embeddings_ms": mean_self(calls, "model.embeddings"),
        "train.forward_ms": mean_self(calls, "train.forward"),
        "train.backward_ms": mean_self(calls, "train.backward"),
        "train.optim_ms": mean_self(calls, "train.optim"),
        "trace.reconcile_ratio": table["reconcile_ratio"],
        "http.overhead_ms": 0.0,
        "http.bytes_in": 0.0,
        "http.bytes_out": 0.0,
        "scheduler.batch_size_mean": 0.0,
        "loadgen.send_lag_p99_ms": 0.0,
        "loadgen.backlog_max": 0.0,
        "trace.overhead_ms": 0.0,
    }
    values.update(fixed)
    return {name: float(values[name]) for name in PER_LAYER}
