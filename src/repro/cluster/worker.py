"""Shard worker subprocesses: one durable ``InferenceServer`` each.

A :class:`ShardWorker` subprocess owns one consistent-hash shard of the
user space: its own :class:`~repro.stream.state.UserStateStore`, its
own event log + snapshots under ``<persist>/shard-NN/``, and a full
:class:`~repro.serve.server.InferenceServer` (micro-batch scheduler and
predictor pool) whose model weights are zero-copy views into the
parent's shared-memory block (:mod:`repro.cluster.sharedmem`).

Startup is recovery: the worker main rebuilds the dataset from the
checkpoint recipe (deterministic — every shard and every restart sees
the identical dataset), attaches the shared weights, folds its
persistence directory back into a store, and only then reports ready.
A SIGKILLed shard restarted by the supervisor therefore comes back
with the exact acknowledged ``state_version``s it died with.

Two pipes per worker keep supervision honest: data operations
(check-ins, predictions) travel the *data* pipe, while heartbeats and
stats travel the *control* pipe, serviced by a dedicated thread — a
shard grinding through a deep batch queue still answers pings.

Start method defaults to ``spawn``: forking a parent that already runs
scheduler/HTTP threads would snapshot locks in unknown states.  The
worker entry point and :class:`WorkerSpec` are module-level and
plain-data for exactly that reason.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..obs.tracing import Trace, activate, span
from ..stream.events import event_from_json
from ..stream.state import StoreConfig
from .recovery import DurableIngest, recover_store
from .sharedmem import SharedWeights, assign_shared_parameters
from .wal import EventLogWriter

logger = logging.getLogger("repro.cluster.worker")

DEFAULT_START_METHOD = "spawn"
READY_TIMEOUT_S = 60.0


class ShardError(RuntimeError):
    """A shard failed to start, died, or stopped answering."""


@dataclass
class WorkerSpec:
    """Everything a shard worker needs, shippable through ``spawn``.

    The checkpoint travels as ``meta`` (JSON-safe dict) plus the
    shared-memory ``manifest`` — never as weight arrays.  Store and
    server knobs are plain fields so the spec pickles under any start
    method.
    """

    shard_index: int
    persist_dir: str
    checkpoint_meta: Dict
    weights_manifest: Dict
    fsync: str = "rotate"
    snapshot_interval: int = 1000
    segment_max_records: int = 10000
    store_shards: int = 4
    max_sessions: int = 64
    max_session_visits: int = 512
    gap_hours: float = 72.0
    server_workers: int = 1
    max_batch_size: int = 16
    max_wait_ms: float = 2.0
    max_queue: int = 256
    request_timeout_s: float = 30.0
    compile: bool = True
    plan_dtype: str = "float64"
    trace_sample: float = 0.0
    quality_window: float = 3600.0
    quality_topk: int = 20

    def store_config(self) -> StoreConfig:
        return StoreConfig(
            num_shards=self.store_shards,
            max_sessions=self.max_sessions,
            max_session_visits=self.max_session_visits,
            gap_hours=self.gap_hours,
        )


def _error(code: int, error: Exception) -> Dict:
    return {"ok": False, "code": code, "error": str(error)}


def _reply(status: int, body: Dict) -> Dict:
    """A front-door ``(status, body)`` answer as a pipe reply."""
    if status == 200:
        return {"ok": True, "result": body}
    return {"ok": False, "code": status, "error": body["error"]}


class _WorkerRuntime:
    """The in-process half of a shard worker (also used by tests directly)."""

    def __init__(self, spec: WorkerSpec):
        from ..serve.checkpoint import build_dataset_from_meta, build_model_from_meta
        from ..serve.protocol import sample_from_json
        from ..serve.server import InferenceServer, ServerConfig

        self._sample_from_json = sample_from_json
        self.spec = spec
        self.weights = SharedWeights.attach(spec.weights_manifest)
        dataset = build_dataset_from_meta(spec.checkpoint_meta)
        model = build_model_from_meta(spec.checkpoint_meta, dataset)
        assign_shared_parameters(model, self.weights.arrays())
        model.eval()
        self.recovery = recover_store(spec.persist_dir, config=spec.store_config())
        self.log = EventLogWriter(
            spec.persist_dir,
            fsync=spec.fsync,
            segment_max_records=spec.segment_max_records,
            next_seq=self.recovery.last_seq + 1,
        )
        self.ingest = DurableIngest(
            store=self.recovery.store,
            log=self.log,
            snapshot_interval=spec.snapshot_interval,
        )
        self.server = InferenceServer(
            model,
            config=ServerConfig(
                workers=spec.server_workers,
                max_batch_size=spec.max_batch_size,
                max_wait_ms=spec.max_wait_ms,
                max_queue=spec.max_queue,
                request_timeout_s=spec.request_timeout_s,
                compile=spec.compile,
                plan_dtype=spec.plan_dtype,
                trace_sample=spec.trace_sample,
                quality_window=spec.quality_window,
                quality_topk=spec.quality_topk,
            ),
            dataset=dataset,
            ingest=self.ingest,
        )
        self.server.start()
        # First-prediction warmup: a fresh interpreter pays one-time
        # costs on its first batch (graph construction, numpy buffer
        # and cache allocation) that are ~10x a steady-state predict.
        # Paying them on a throwaway sample here moves that stall into
        # startup — before the ready ack, so a shard never joins the
        # ring cold.
        warmup = self._sample_from_json(
            {"prefix": [0]}, num_pois=self.server.num_pois
        )
        self.server.predict(warmup, timeout=spec.request_timeout_s)

    # ------------------------------------------------------------------
    # operations (each returns a JSON-safe reply dict)
    # ------------------------------------------------------------------
    def handle(self, request: Dict) -> Dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return _error(400, ValueError(f"unknown op {op!r}"))
        # Cross-process tracing: a sampled router request ships a
        # carrier dict; the shard joins the trace, records its spans
        # (op envelope, scheduler queue wait, model stages, WAL append)
        # and returns them in the reply for the router to graft under
        # its routing span.  Unsampled requests skip all of it.
        child = Trace.from_carrier(request.get("trace"))
        try:
            if child is None:
                return handler(request)
            with activate(child):
                with span(f"shard.{op}", shard=self.spec.shard_index):
                    reply = handler(request)
            reply["spans"] = child.export_spans()
            return reply
        except Exception as error:  # a bug in the op, not the transport
            logger.exception("shard %d op %r failed", self.spec.shard_index, op)
            return _error(500, error)

    def _op_checkin(self, request: Dict) -> Dict:
        try:
            event = event_from_json(request["event"], num_pois=self.server.num_pois)
        except ValueError as error:
            return _error(400, error)
        try:
            result = self.ingest.ingest(event)
        except ValueError as error:
            # out-of-order arrival: same conflict the single-process
            # tier maps to HTTP 409 — the router propagates it unchanged
            return _error(409, error)
        # keep the WAL bounded even when check-ins arrive one at a time
        # (streamed batches also compact at their tail)
        self.ingest.maybe_snapshot()
        return {"ok": True, "result": result.as_dict()}

    def _op_predict(self, request: Dict) -> Dict:
        user_id, k = request.get("user_id"), request.get("k", 10)
        return _reply(*self.server.http_predict_user(user_id, k))

    def _op_predict_raw(self, request: Dict) -> Dict:
        return _reply(*self.server.http_predict(request["payload"], request.get("k", 10)))

    def _await(self, future, k: int) -> Dict:
        return _reply(*self.server.http_result(future, k))

    def _op_stream(self, request: Dict) -> Dict:
        """Batched ingest with pipelined interleaved predictions.

        One pipe round-trip carries many events (the bench's unit of
        work): each event is acknowledged individually, and every
        ``predict_every``-th event is followed by a history-less
        prediction for its user.  Predictions are *submitted* inline —
        ``submit_user`` snapshots the store at submit time, so the
        result reflects exactly the state after that event — but
        resolved lazily through a bounded window, letting the
        micro-batch scheduler coalesce them across users while the
        ingest loop keeps running (the same pipelining the in-process
        prequential replay gets from ``predict_batch``).
        """
        from collections import deque

        from ..serve.scheduler import QueueFullError, SchedulerClosedError

        predict_every = request.get("predict_every", 0)
        k = request.get("k", 10)
        acks: List[Dict] = []
        predictions: List[Dict] = []
        pending: deque = deque()
        max_pending = max(4 * self.spec.max_batch_size, 8)

        def drain_one() -> None:
            user, future = pending.popleft()
            predictions.append({"user_id": user, **self._await(future, k)})

        for index, payload in enumerate(request["events"]):
            ack = self._op_checkin({"event": payload})
            acks.append(ack)
            if predict_every and ack["ok"] and (index + 1) % predict_every == 0:
                user = payload["user_id"]
                try:
                    future = self.server.submit_user(user)
                except (QueueFullError, SchedulerClosedError) as error:
                    predictions.append({"user_id": user, **_error(429, error)})
                    continue
                pending.append((user, future))
                if len(pending) >= max_pending:
                    drain_one()
        while pending:
            drain_one()
        self.ingest.maybe_snapshot()
        return {"ok": True, "acks": acks, "predictions": predictions}

    def _op_versions(self, request: Dict) -> Dict:
        store = self.ingest.store
        versions = {
            str(user): {
                "state_version": store.state_version(user),
                "history_version": store.snapshot(user).history_version,
            }
            for user in store.users()
        }
        return {"ok": True, "users": versions}

    def _op_snapshot(self, request: Dict) -> Dict:
        path = self.ingest.maybe_snapshot(force=True)
        return {"ok": True, "snapshot": path.name if path else None}

    def _op_stats(self, request: Dict) -> Dict:
        stats = self.server.stats()
        stats["shard"] = self.spec.shard_index
        stats["recovery"] = self.recovery.as_dict()
        return {"ok": True, "stats": stats}

    def _op_metrics(self, request: Dict) -> Dict:
        """Registry snapshot for the router's /metrics aggregation.

        JSON-safe instrument dumps travel the control pipe; the router
        stamps each with a ``shard`` label before rendering, so one
        scrape shows the whole ring side by side."""
        return {
            "ok": True,
            "shard": self.spec.shard_index,
            "metrics": self.server.registry.snapshot(),
        }

    def _op_quality(self, request: Dict) -> Dict:
        """The shard's prequential-quality/drift report (control pipe);
        the router sums shard reports with :func:`~repro.obs.merge_reports`."""
        return {
            "ok": True,
            "shard": self.spec.shard_index,
            "quality": self.server.quality_report(),
        }

    def _op_ping(self, request: Dict) -> Dict:
        return {"ok": True, "pong": request.get("nonce")}

    def close(self, final_snapshot: bool = True) -> None:
        self.server.stop()
        if final_snapshot:
            self.ingest.maybe_snapshot(force=True)
        self.log.close()
        self.weights.close()


def _control_loop(runtime: _WorkerRuntime, conn) -> None:
    """Service ping/stats on the control pipe until it closes."""
    try:
        while True:
            request = conn.recv()
            conn.send(runtime.handle(request))
    except (EOFError, OSError):
        return


def _shard_worker_main(spec: WorkerSpec, data_conn, ctl_conn) -> None:
    """Entry point of the shard subprocess (module-level for spawn)."""
    # A terminal Ctrl-C signals the whole foreground process group;
    # shards must not die on it mid-write or the parent's graceful
    # shutdown (drain + final snapshot) never reaches them.  The
    # parent coordinates shutdown over the control pipe — or SIGKILL,
    # which is what the recovery path is for.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    logging.basicConfig(level=logging.WARNING)
    try:
        runtime = _WorkerRuntime(spec)
    except Exception as error:
        payload = _error(500, error)
        payload["traceback"] = traceback.format_exc()
        try:
            ctl_conn.send(payload)
        except OSError:
            pass
        return
    ctl_conn.send({"ok": True, "ready": True, "recovery": runtime.recovery.as_dict()})
    control = threading.Thread(
        target=_control_loop,
        args=(runtime, ctl_conn),
        name=f"shard-{spec.shard_index}-control",
        daemon=True,
    )
    control.start()
    try:
        while True:
            try:
                request = data_conn.recv()
            except (EOFError, OSError):
                # parent went away: persist what we have and exit
                runtime.close(final_snapshot=True)
                return
            if request.get("op") == "shutdown":
                runtime.close(final_snapshot=True)
                try:
                    data_conn.send({"ok": True, "stopped": True})
                except OSError:
                    pass
                return
            data_conn.send(runtime.handle(request))
    finally:
        try:
            data_conn.close()
        except OSError:
            pass


class ShardHandle:
    """Parent-side proxy for one shard worker process.

    ``request`` serialises data-pipe round-trips under a lock (any
    router thread may call in); ``ping``/``control_stats`` use the
    control pipe so they bypass a busy data plane.  A transport error
    or timeout marks the shard dead — the supervisor decides whether
    to restart it.

    Connections are generation-tagged: each successful ``start`` bumps
    the generation, and a failure observed on a previous generation's
    conn (a request that was in flight across a restart) is ignored by
    ``_mark_dead`` — it says nothing about the freshly started process,
    and honouring it would stamp a healthy shard dead until the next
    heartbeat pass needlessly restarted it.
    """

    def __init__(self, spec: WorkerSpec, context=None):
        self.spec = spec
        self._ctx = context or mp.get_context(DEFAULT_START_METHOD)
        self._process = None
        self._data_conn = None
        self._ctl_conn = None
        self._data_lock = threading.Lock()
        self._ctl_lock = threading.Lock()
        self._state_lock = threading.Lock()  # conns + generation + dead_reason
        self._generation = 0
        self.dead_reason: Optional[str] = None
        self.restarts = 0
        self.last_recovery: Optional[Dict] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = READY_TIMEOUT_S) -> Dict:
        """Spawn the worker and block until it reports ready."""
        if self.alive:
            raise ShardError(f"shard {self.spec.shard_index} already running")
        parent_data, child_data = self._ctx.Pipe()
        parent_ctl, child_ctl = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(self.spec, child_data, child_ctl),
            name=f"repro-shard-{self.spec.shard_index}",
            daemon=True,
        )
        process.start()
        child_data.close()
        child_ctl.close()
        if not parent_ctl.poll(timeout):
            process.kill()
            raise ShardError(
                f"shard {self.spec.shard_index} not ready after {timeout}s"
            )
        ready = parent_ctl.recv()
        if not ready.get("ok"):
            process.join(5.0)
            raise ShardError(
                f"shard {self.spec.shard_index} failed to start: "
                f"{ready.get('error')}\n{ready.get('traceback', '')}"
            )
        with self._state_lock:
            self._process = process
            self._data_conn = parent_data
            self._ctl_conn = parent_ctl
            self._generation += 1
            self.dead_reason = None
        self.last_recovery = ready.get("recovery")
        return ready

    @property
    def alive(self) -> bool:
        return (
            self._process is not None
            and self._process.is_alive()
            and self.dead_reason is None
        )

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def _mark_dead(self, reason: str, generation: Optional[int] = None) -> None:
        """Stamp the shard dead — unless the failure was observed on a
        conn from a previous generation, i.e. a request that was in
        flight while the shard restarted underneath it."""
        with self._state_lock:
            if generation is not None and generation != self._generation:
                return
            self.dead_reason = reason

    def _roundtrip(self, plane: str, payload: Dict, timeout: float) -> Dict:
        # conn and generation must be read atomically: a restart between
        # the two reads would pair the old conn with the new generation,
        # letting its failure falsely kill the fresh process
        with self._state_lock:
            conn = self._data_conn if plane == "data" else self._ctl_conn
            generation = self._generation
            dead_reason = self.dead_reason
        if conn is None or dead_reason is not None:
            raise ShardError(
                f"shard {self.spec.shard_index} is down ({dead_reason})"
            )
        lock = self._data_lock if plane == "data" else self._ctl_lock
        with lock:
            try:
                conn.send(payload)
                if not conn.poll(timeout):
                    self._mark_dead(f"timeout on {payload.get('op')!r}", generation)
                    raise ShardError(
                        f"shard {self.spec.shard_index} timed out on "
                        f"{payload.get('op')!r} after {timeout}s"
                    )
                return conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
                self._mark_dead(f"{type(error).__name__}: {error}", generation)
                raise ShardError(
                    f"shard {self.spec.shard_index} transport failed: {error}"
                ) from error

    def request(self, payload: Dict, timeout: float = 60.0) -> Dict:
        """One data-plane round-trip (check-ins, predictions, streams)."""
        return self._roundtrip("data", payload, timeout)

    def ping(self, timeout: float = 5.0) -> bool:
        try:
            reply = self._roundtrip("control", {"op": "ping"}, timeout)
            return bool(reply.get("ok"))
        except ShardError:
            return False

    def control_stats(self, timeout: float = 30.0) -> Dict:
        return self._roundtrip("control", {"op": "stats"}, timeout)

    def control_metrics(self, timeout: float = 30.0) -> Dict:
        """Registry snapshot over the control pipe (/metrics aggregation)."""
        return self._roundtrip("control", {"op": "metrics"}, timeout)

    def control_quality(self, timeout: float = 30.0) -> Dict:
        """Quality/drift report over the control pipe (/quality merge)."""
        return self._roundtrip("control", {"op": "quality"}, timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: drain, final snapshot, exit."""
        if self._process is None:
            return
        try:
            if self.dead_reason is None:
                self.request({"op": "shutdown"}, timeout=timeout)
        except ShardError:
            pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)
        self._close_conns()
        self._mark_dead("shutdown")

    def kill(self) -> None:
        """SIGKILL, no warning — the crash the recovery path is for."""
        if self._process is not None:
            self._process.kill()
            self._process.join(10.0)
        self._close_conns()
        self._mark_dead("killed")

    def restart(self, timeout: float = READY_TIMEOUT_S) -> Dict:
        """Start a fresh process over the same persistence directory.

        Requests still blocked on the old conns fail with a transport
        error, but their ``_mark_dead`` carries the old generation and
        is ignored — the restarted shard stays healthy.
        """
        self._close_conns()
        with self._state_lock:
            self._process = None
            self.dead_reason = None
        ready = self.start(timeout=timeout)
        self.restarts += 1
        return ready

    def _close_conns(self) -> None:
        with self._state_lock:
            conns = (self._data_conn, self._ctl_conn)
            self._data_conn = None
            self._ctl_conn = None
        for conn in conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
