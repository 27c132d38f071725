"""In-memory spans recorded around the program's public layer functions.

The traced run wraps, from the benchmark's side, the functions each
layer exposes (``sample_from_json``, ``InferenceServer.submit``,
``Predictor.predict_batch``, ``Plan.run``, ``EventLogWriter.append``,
``Adam.step`` ...) with a timer that appends one record per call to a
process-local list: id, layer name, start, end, parent (the innermost
wrapped call open on the same thread), the request id the HTTP handler
was serving, the micro-batch the worker thread was running, and an
optional value (bytes written, batch size, op name).  Nothing is
written until the process exits.  The program's own code is not
changed; the wrappers are installed at run time, in the server
processes by :mod:`frontdoor.traced_serve`.

Times are ``time.monotonic()`` (``CLOCK_MONOTONIC``), one clock for
every process on the host, so spans from the load generator, the
HTTP frontend and the shard workers line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# span record layout (a tuple per call keeps the hot path cheap)
FIELDS = ("id", "name", "start", "end", "parent", "rid", "batch", "value")


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.records: List[tuple] = []
        # batch id -> ids of the server.inference spans it served
        self.batches: Dict[int, List[Optional[int]]] = {}
        self._ids = itertools.count(1)
        self._prefix = os.getpid() << 32
        self._local = threading.local()
        self._inference: Dict[int, int] = {}  # id(future) -> inference span id

    def new_id(self) -> int:
        return self._prefix | next(self._ids)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    @property
    def batch(self) -> Optional[int]:
        return getattr(self._local, "batch", None)

    def add(self, sid, name, start, end, parent=None, rid=None, batch=None, value=None):
        self.records.append((sid, name, start, end, parent, rid, batch, value))

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None, value: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording ``name`` spans.

        ``value(args, result, before(args))`` computes the span's value.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            sid = recorder.new_id()
            parent = stack[-1] if stack else None
            pre = before(args) if before is not None else None
            stack.append(sid)
            start = time.monotonic()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                recorder.add(
                    sid, name, start, end, parent, recorder.rid, recorder.batch,
                    value(args, result, pre) if value is not None else None,
                )

        setattr(owner, attr, wrapper)

    def dump(self, path: Path) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": [dict(zip(FIELDS, r)) for r in self.records],
            "batches": {str(k): v for k, v in self.batches.items()},
        }
        path.write_text(json.dumps(payload))


def load_spans(directory: Path) -> Dict:
    """Merge every process's dump under ``directory``."""
    spans: List[Dict] = []
    batches: Dict[int, List] = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        for record in payload["spans"]:
            record["pid"] = payload["pid"]
            spans.append(record)
        batches.update({int(k): v for k, v in payload["batches"].items()})
    return {"spans": spans, "batches": batches}


# ----------------------------------------------------------------------
# instrumentation of the program's layers
# ----------------------------------------------------------------------
def instrument_model(rec: Recorder) -> None:
    """Model, graph, plan, predictor and stream layers (every workload)."""
    from repro.autograd.plan import Plan
    from repro.core import model as model_module
    from repro.core import tilesystem
    from repro.core.fusion import FusionModule
    from repro.core.hgat import HGATEncoder
    from repro.graphs.incremental import QRPGraphMaintainer
    from repro.serve.plans import PlanCache
    from repro.serve.predictor import Predictor
    from repro.stream.ingest import StreamIngest
    from repro.stream.state import UserStateStore

    TSPNRA = model_module.TSPNRA
    rec.wrap(Predictor, "predict_batch", "predictor.batch",
             value=lambda args, result, pre: len(args[1]))
    rec.wrap(PlanCache, "entry_for", "plans.lookup")
    rec.wrap(TSPNRA, "build_encode_plan", "plans.trace")
    rec.wrap(Plan, "run", "plans.replay")
    rec.wrap(TSPNRA, "compute_embeddings", "model.embeddings")
    rec.wrap(TSPNRA, "encode_batch", "model.encode")
    rec.wrap(TSPNRA, "_encode_plan_feeds", "model.encode")
    rec.wrap(HGATEncoder, "forward_packed", "model.hgat")
    rec.wrap(FusionModule, "forward_batch", "model.fusion")
    rec.wrap(model_module, "rank_tiles_batch", "rank.two_step")
    rec.wrap(model_module, "rank_pois_batch", "rank.two_step",
             value=lambda args, result, pre: (
                 sum(len(c) for c in args[2]) / len(args[2]) if len(args[2]) else 0.0))
    rec.wrap(TSPNRA, "_qrp_for", "graphs.lookup")
    rec.wrap(tilesystem, "build_qrp_graph", "graphs.build")
    rec.wrap(QRPGraphMaintainer, "append_session", "graphs.incremental")
    rec.wrap(QRPGraphMaintainer, "evict_session", "graphs.incremental")
    rec.wrap(StreamIngest, "ingest", "stream.ingest",
             value=lambda args, result, pre: int(bool(result and result.session_rolled)))
    rec.wrap(UserStateStore, "sample_for", "store.sample_for")


def instrument_training(rec: Recorder) -> None:
    """Trainer, autograd and optimiser layers (``train-epoch``)."""
    from repro.autograd.tensor import Tensor
    from repro.core.model import TSPNRA
    from repro.optim.adam import Adam
    from repro.train.trainer import Trainer

    rec.wrap(Trainer, "fit", "train.fit")
    rec.wrap(Trainer, "_train_batch", "train.step")
    rec.wrap(TSPNRA, "loss_batch", "train.forward")
    rec.wrap(Tensor, "backward", "train.backward")
    rec.wrap(Adam, "step", "train.optim")


def instrument_replay(rec: Recorder) -> None:
    from repro import stream

    rec.wrap(stream, "prequential_replay", "replay.pass")


def _instrument_handler(rec: Recorder, module) -> None:
    """Wrap ``do_POST`` of the handler class ``module._make_handler`` builds.

    The handler span carries the client's ``X-Request-Id`` so the
    server side of a request joins the load generator's record of it.
    """
    make_handler = module._make_handler

    def patched(*args, **kwargs):
        handler_cls = make_handler(*args, **kwargs)
        rec.wrap(handler_cls, "do_POST", "http.handler")
        timed = handler_cls.do_POST

        def do_POST(self):
            rec._local.rid = self.headers.get("X-Request-Id")
            try:
                return timed(self)
            finally:
                rec._local.rid = None

        handler_cls.do_POST = do_POST
        return handler_cls

    module._make_handler = patched


def instrument_serving(rec: Recorder) -> None:
    """HTTP, codec, scheduler, router, shard and WAL layers."""
    from repro.cluster import frontend, recovery, worker
    from repro.cluster.router import ClusterRouter
    from repro.cluster.wal import EventLogWriter
    from repro.serve import protocol, scheduler
    from repro.serve import server as server_module

    instrument_model(rec)
    _instrument_handler(rec, server_module)
    _instrument_handler(rec, frontend)
    for module in (server_module, protocol):
        rec.wrap(module, "sample_from_json", "codec.decode")
        rec.wrap(module, "result_to_json", "codec.encode")
    for module in (server_module, worker):
        rec.wrap(module, "event_from_json", "codec.decode")

    # server.inference: from submit() until the request's future resolves
    original_submit = server_module.InferenceServer.submit

    def submit(self, sample):
        stack = rec._stack()
        parent = stack[-1] if stack else None
        sid, rid, start = rec.new_id(), rec.rid, time.monotonic()
        future = original_submit(self, sample)
        rec._inference[id(future)] = sid
        future.add_done_callback(
            lambda _: rec.add(sid, "server.inference", start, time.monotonic(), parent, rid)
        )
        return future

    server_module.InferenceServer.submit = submit

    # scheduler.queue_wait: enqueue until the batch leaves next_batch;
    # the worker thread then runs the batch under a fresh batch id
    original_next_batch = scheduler.MicroBatchScheduler.next_batch

    def next_batch(self, *args, **kwargs):
        batch = original_next_batch(self, *args, **kwargs)
        if batch:
            now, bid = time.monotonic(), rec.new_id()
            members = []
            for request in batch:
                isid = rec._inference.pop(id(request.future), None)
                members.append(isid)
                rec.add(rec.new_id(), "scheduler.queue_wait", request.enqueued_at, now, isid)
            rec.batches[bid] = members
            rec._local.batch = bid
        return batch

    scheduler.MicroBatchScheduler.next_batch = next_batch

    for attr in ("checkin", "predict_user", "predict_raw"):
        rec.wrap(ClusterRouter, attr, "router.call")
    rec.wrap(worker.ShardHandle, "request", "router.roundtrip",
             value=lambda args, result, pre: args[0].pid)
    rec.wrap(worker._WorkerRuntime, "handle", "shard.op",
             value=lambda args, result, pre: args[1].get("op"))
    rec.wrap(recovery.DurableIngest, "ingest", "stream.durable")
    rec.wrap(recovery.DurableIngest, "maybe_snapshot", "wal.snapshot",
             value=lambda args, result, pre: int(result is not None))
    rec.wrap(EventLogWriter, "append", "wal.append",
             before=lambda args: args[0].bytes_appended,
             value=lambda args, result, pre: args[0].bytes_appended - pre)
    rec.wrap(os, "fsync", "wal.fsync")
