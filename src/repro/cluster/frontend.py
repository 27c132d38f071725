"""HTTP surface of the cluster: same endpoints, N processes behind.

:class:`ClusterHttpFrontend` mirrors the single-process
:class:`~repro.serve.server.HttpFrontend` contract — ``POST /checkin``
/ ``/predict`` / ``/recommend``, ``GET /healthz`` / ``/stats`` /
``/metrics`` / ``/quality`` / ``/debug/slow`` — so a client (or the
benchmark
harness) moves between tiers by changing a URL.  ``GET /metrics``
aggregates every shard's registry over the control pipe with
``shard=\"NN\"`` labels next to the router's own series.  Status codes
survive the extra hop: a shard's verdict travels back as
``{"ok": False, "code": ...}`` and is re-emitted verbatim, so an
out-of-order check-in is a 409 here exactly as it is single-process.

``POST /reload`` is a deliberate 501: hot weight swap would need a
new shared-memory generation plus a coordinated cut-over across
workers, and a half-switched cluster serving two weight versions is
worse than an honest "restart to reload".
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from ..serve.protocol import RequestBodyError, read_json_body
from .router import ClusterRouter
from .worker import ShardError


def _make_handler(router: ClusterRouter):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-cluster/1.0"
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):
            pass

        def _send_json(self, status: int, payload: Dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_reply(self, reply: Dict) -> None:
            """Re-emit a shard reply, preserving its status code."""
            if reply.get("ok"):
                self._send_json(200, reply.get("result", {}))
            else:
                self._send_json(
                    int(reply.get("code", 500)), {"error": reply.get("error", "")}
                )

        def do_GET(self):
            if self.path == "/healthz":
                health = router.healthz()
                status = 200 if health["status"] == "ok" else 503
                self._send_json(status, health)
            elif self.path == "/stats":
                self._send_json(200, router.stats())
            elif self.path == "/metrics":
                body = router.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/quality":
                self._send_json(200, router.quality())
            elif self.path.startswith("/debug/slow"):
                self._send_json(200, {"slow": router.slow_requests(self._slow_n())})
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})

        def _slow_n(self) -> int:
            query = self.path.partition("?")[2]
            for part in query.split("&"):
                key, _, value = part.partition("=")
                if key == "n" and value.isdigit():
                    return max(1, min(int(value), router.slow_ring.capacity))
            return 10

        def do_POST(self):
            if self.path not in ("/predict", "/recommend", "/checkin", "/reload"):
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
                return
            if self.path == "/reload":
                self._send_json(
                    501,
                    {"error": "cluster weight reload is not supported; "
                              "restart the cluster with the new checkpoint"},
                )
                return
            try:
                payload = read_json_body(self.headers, self.rfile)
            except RequestBodyError as error:
                self.close_connection = not error.body_read
                self._send_json(error.status, {"error": str(error)})
                return
            try:
                if self.path == "/checkin":
                    self._send_reply(router.checkin(payload))
                else:
                    self._infer(payload, recommend=self.path == "/recommend")
            except ShardError as error:
                self._send_json(503, {"error": str(error)})

        def _infer(self, payload: Dict, recommend: bool) -> None:
            k = payload.get("k", 10)
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                self._send_json(400, {"error": "k must be a positive integer"})
                return
            historyless = not any(
                key in payload for key in ("prefix", "history", "target")
            )
            if recommend:
                payload = dict(payload)
                payload.pop("target", None)
            if historyless:
                user_id = payload.get("user_id")
                if isinstance(user_id, bool) or not isinstance(user_id, int):
                    self._send_json(400, {"error": "user_id must be an integer"})
                    return
                reply = router.predict_user(user_id, k=k)
            else:
                reply = router.predict_raw(payload, k=k)
            if recommend and reply.get("ok"):
                body = reply["result"]
                self._send_json(
                    200,
                    {
                        "user_id": payload.get("user_id"),
                        "recommendations": body["top_pois"],
                        "num_pois": body["num_pois"],
                    },
                )
            else:
                self._send_reply(reply)

    return Handler


class ClusterHttpFrontend:
    """Serve a :class:`ClusterRouter` over HTTP (``port=0`` = ephemeral)."""

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1", port: int = 8151):
        self.router = router
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(router))
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusterHttpFrontend":
        if self._thread is not None:
            raise RuntimeError("cluster HTTP front-end already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="cluster-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "ClusterHttpFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
