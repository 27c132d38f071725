"""The HTTP/JSON front door both serving tiers share.

One request handler serves a :class:`ServingBackend`, which both
:class:`~repro.serve.server.InferenceServer` and
:class:`~repro.cluster.router.ClusterRouter` implement; each tier's
``_make_handler`` binds it.  The handler owns what the tiers share:
GET/POST routing, the body reader, ``k`` and ``user_id`` checks, the
history-less classification of ``/predict`` and ``/recommend`` bodies,
an ``http_rejections{reason}`` counter in the backend's registry for
every refused request, and a 500 ``{"error": ...}`` on a connection
that stays usable when the backend raises unexpectedly.

Each response — status line, headers and body — goes out in one
``sendall`` on a ``TCP_NODELAY`` socket.  Written as two segments,
Nagle's algorithm holds the body until the client ACKs the headers,
and a client that delays that ACK stalls every keep-alive request by
~40 ms.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import ContextManager, Dict, List, Optional, Protocol, Tuple

from ..obs import MetricsRegistry, SlowRing, span
from ..obs.metrics import Counter
from .protocol import RequestBodyError, read_json_body

logger = logging.getLogger("repro.serve.httpd")

POST_PATHS = ("/predict", "/recommend", "/checkin", "/reload")
REJECTION_REASONS = (
    "bad_length", "too_large", "bad_json", "unknown_path", "bad_k", "bad_user_id", "internal"
)
Reply = Tuple[int, Dict]  # (HTTP status, JSON body)


class ServingBackend(Protocol):
    """What a serving tier provides to the shared HTTP handler.

    The ``http_*`` methods answer ``(status, body)``; the handler has
    already read the body and checked ``k`` and ``user_id``.
    """

    registry: MetricsRegistry  # receives the rejection counters
    slow_ring: SlowRing  # its capacity bounds /debug/slow?n=
    stateful: bool  # False: http_predict_user answers its own 400

    def health(self) -> Reply: ...
    def stats(self) -> Dict: ...
    def metrics_text(self) -> str: ...
    def quality_report(self) -> Dict: ...
    def slow_requests(self, n: int) -> List[Dict]: ...
    def traced(self) -> ContextManager: ...  # wraps each POST request
    def http_checkin(self, payload: Dict) -> Reply: ...
    def http_predict_user(self, user_id: Optional[int], k: int) -> Reply: ...
    def http_predict(self, payload: Dict, k: int) -> Reply: ...
    def http_reload(self, payload: Dict) -> Reply: ...


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class FrontDoorHandler(BaseHTTPRequestHandler):
    """Routes, checks and answers requests for ``self.backend``.

    Bound to one backend by :func:`make_handler`, which subclasses it.
    """

    server_version = "repro/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    backend: ServingBackend
    rejections: Dict[str, Counter]

    # the backends' registries cover observability; per-request access
    # logging on stderr would just add noise to benchmarks
    def log_message(self, format, *args):
        pass

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self._answered = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # end_headers() would flush the headers on their own; the body
        # joins the same buffer so the response is one sendall
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, status: int, payload: Dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _refuse(self, reason: str, status: int, message: str) -> Reply:
        self.rejections[reason].inc()
        return status, {"error": message}

    def _guarded(self, route) -> None:
        """Run one request; an unexpected exception answers 500."""
        self._answered = False
        try:
            route()
        except Exception as error:
            if self._answered:  # the write itself failed: nothing to answer on
                raise
            logger.exception("%s %s failed", self.command, self.path)
            self._send_json(*self._refuse("internal", 500, f"{type(error).__name__}: {error}"))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self):
        self._guarded(self._get)

    def do_POST(self):
        self._guarded(self._post)

    def _get(self) -> None:
        backend = self.backend
        if self.path == "/healthz":
            self._send_json(*backend.health())
        elif self.path == "/stats":
            self._send_json(200, backend.stats())
        elif self.path == "/metrics":
            self._send(
                200, backend.metrics_text().encode("utf-8"), "text/plain; version=0.0.4"
            )
        elif self.path == "/quality":
            self._send_json(200, backend.quality_report())
        elif self.path.startswith("/debug/slow"):
            self._send_json(200, {"slow": backend.slow_requests(self._slow_n())})
        else:
            self._send_json(*self._refuse("unknown_path", 404, f"unknown path {self.path!r}"))

    def _slow_n(self) -> int:
        # /debug/slow?n=25 — bad or absent n falls back to 10
        _, _, query = self.path.partition("?")
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "n" and value.isdigit():
                return max(1, min(int(value), self.backend.slow_ring.capacity))
        return 10

    def _post(self) -> None:
        if self.path not in POST_PATHS:
            self._send_json(*self._refuse("unknown_path", 404, f"unknown path {self.path!r}"))
            return
        # the request's trace is complete before its response leaves, so
        # a client that has the response finds the trace on /debug/slow
        with self.backend.traced():
            reply = self._post_reply()
        self._send_json(*reply)

    def _post_reply(self) -> Reply:
        with span("http.parse", path=self.path):
            try:
                payload = read_json_body(self.headers, self.rfile)
            except RequestBodyError as error:
                self.close_connection = not error.body_read
                return self._refuse(error.reason, error.status, str(error))
        if self.path == "/checkin":
            return self.backend.http_checkin(payload)
        if self.path == "/reload":
            return self.backend.http_reload(payload)
        return self._predict(payload, recommend=self.path == "/recommend")

    def _predict(self, payload: Dict, recommend: bool) -> Reply:
        k = payload.get("k", 10)
        if not _is_int(k) or k < 1:
            return self._refuse("bad_k", 400, "k must be a positive integer")
        # classify the *as-shipped* body before /recommend drops the
        # target, so both endpoints route a given body identically
        historyless = not any(key in payload for key in ("prefix", "history", "target"))
        if recommend:
            payload = dict(payload)
            payload.pop("target", None)  # recommendations carry no truth
        if historyless:
            # {"user_id": ...} with no shipped trajectory data: served
            # from the backend's stored state.  A body that ships
            # history or a target but no prefix is a broken stateless
            # request and keeps its 400 from the body decoder.  A
            # stateless backend answers its own 400 whatever the id.
            user_id = payload.get("user_id")
            if self.backend.stateful and not _is_int(user_id):
                return self._refuse("bad_user_id", 400, "user_id must be an integer")
            status, body = self.backend.http_predict_user(user_id, k)
        else:
            status, body = self.backend.http_predict(payload, k)
        if recommend and status == 200:
            # a shipped body without user_id is served as user -1
            body = {
                "user_id": payload.get("user_id", -1),
                "recommendations": body["top_pois"],
                "num_pois": body["num_pois"],
            }
        return status, body


def make_handler(backend: ServingBackend) -> type:
    """A fresh :class:`FrontDoorHandler` subclass bound to ``backend``.

    Every reason's rejection counter is registered up front, so
    ``/metrics`` shows each series from zero.
    """
    rejections = {
        reason: backend.registry.counter(
            "http_rejections", "Requests the HTTP front door refused, by reason",
            labels={"reason": reason},
        )
        for reason in REJECTION_REASONS
    }
    return type("Handler", (FrontDoorHandler,), {"backend": backend, "rejections": rejections})


class HttpFrontend:
    """Serve a serving tier over HTTP/JSON on a threading HTTP server.

    ``server`` is an :class:`~repro.serve.server.InferenceServer` or a
    :class:`~repro.cluster.router.ClusterRouter`; its ``http_handler()``
    builds the handler class.  Each connection gets its own thread,
    which blocks on its request while the tier batches or routes it.
    ``port=0`` binds an ephemeral port (tests).
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 8151):
        self.server = server
        self._httpd = ThreadingHTTPServer((host, port), server.http_handler())
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpFrontend":
        if self._thread is not None:
            raise RuntimeError("HTTP front-end already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run in the calling thread until interrupted (CLI mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "HttpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
