"""The HTTP front-door contract every serving tier must meet.

:class:`FrontDoorContract` is mixed into each tier's HTTP test class
(``TestHttpFrontend`` in ``test_serve_async.py``, ``TestClusterHttp``
in ``test_cluster.py``), so one table of cases runs against both.  The
tier module provides a ``front_door`` fixture: a started
:class:`~repro.serve.HttpFrontend` over a *stateful* backend whose
``server`` is an ``InferenceServer`` or a ``ClusterRouter``.
"""

import errno
import http.client
import json
import socket
import statistics
import time

import pytest

from repro.obs import parse_prometheus
from repro.serve.protocol import MAX_BODY_BYTES

PREDICT_BODY = {"prefix": [1, 2], "k": 3}


def _exchange(front, method, path, body=None, declared=None):
    """One request on a fresh connection; the answer must come within 5 s."""
    connection = http.client.HTTPConnection(front.host, front.port, timeout=5)
    try:
        return _request(connection, method, path, body, declared)
    finally:
        connection.close()


def _request(connection, method, path, body=None, declared=None):
    raw = body if isinstance(body, bytes) or body is None else json.dumps(body).encode()
    connection.putrequest(method, path)
    if method == "POST":
        connection.putheader("Content-Type", "application/json")
        connection.putheader(
            "Content-Length", declared if declared is not None else str(len(raw))
        )
    connection.endheaders(raw)
    response = connection.getresponse()
    payload = response.read()
    if response.headers.get("Content-Type") == "application/json":
        payload = json.loads(payload)
    return response.status, payload


class _CountingSocket:
    """A connection proxy that records the size of every write."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _read_response(stream):
    """Status and body of one HTTP/1.1 response on a raw socket file."""
    status = int(stream.readline().split()[1])
    length = 0
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return status, stream.read(length)


class FrontDoorContract:
    RELOADS = True  # False: the tier answers every /reload with 501

    @pytest.mark.parametrize(
        "path, payload, expected_status, fragment",
        [
            ("/predict", {"prefix": []}, 400, "non-empty"),
            ("/predict", {"prefix": [10 ** 9]}, 400, "universe"),
            ("/predict", {"prefix": [1], "k": 0}, 400, "k must be"),
            ("/reload", {}, 400, "checkpoint"),
            ("/reload", {"checkpoint": "/nonexistent.npz"}, 400, "not found"),
            ("/nope", {"prefix": [1]}, 404, "unknown path"),
        ],
    )
    def test_error_statuses(self, front_door, path, payload, expected_status, fragment):
        if path == "/reload" and not self.RELOADS:
            expected_status, fragment = 501, "not supported"
        status, body = _exchange(front_door, "POST", path, payload)
        assert status == expected_status
        assert fragment in body["error"]

    @pytest.mark.parametrize(
        "declared, expected_status, fragment",
        [
            ("-1", 400, "non-negative"),
            ("ten", 400, "integer"),
            (str(MAX_BODY_BYTES + 1), 413, "exceeds"),
        ],
    )
    def test_bad_content_length_is_answered(
        self, front_door, declared, expected_status, fragment
    ):
        status, body = _exchange(front_door, "POST", "/predict", b"", declared=declared)
        assert status == expected_status
        assert fragment in body["error"]
        status, _ = _exchange(front_door, "GET", "/healthz")
        assert status == 200

    @pytest.mark.parametrize(
        "method, path, body", [("POST", "/predict", PREDICT_BODY), ("GET", "/metrics", None)]
    )
    def test_each_response_is_one_write(self, front_door, monkeypatch, method, path, body):
        """Headers and body leave in one write: with two, Nagle holds the
        body until the client's delayed ACK of the headers (~40 ms)."""
        writes = []
        handler_class = front_door._httpd.RequestHandlerClass
        setup = handler_class.setup

        def counting_setup(handler):
            handler.request = _CountingSocket(handler.request, writes)
            setup(handler)

        monkeypatch.setattr(handler_class, "setup", counting_setup)
        connection = http.client.HTTPConnection(front_door.host, front_door.port, timeout=10)
        try:
            for _ in range(2):  # a keep-alive connection: one write per response
                del writes[:]
                status, _ = _request(connection, method, path, body)
                assert status == 200
                assert len(writes) == 1, writes
        finally:
            connection.close()

    def test_keepalive_posts_do_not_stall(self, front_door):
        """Back-to-back POSTs on one connection from a raw client socket
        with default options: no delayed-ACK stall per request."""
        body = json.dumps(PREDICT_BODY).encode()
        request = (
            b"POST /predict HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        elapsed = []
        with socket.create_connection((front_door.host, front_door.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            for _ in range(20):
                start = time.perf_counter()
                sock.sendall(request)
                status, _ = _read_response(stream)
                elapsed.append(time.perf_counter() - start)
                assert status == 200
            stream.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    @pytest.mark.parametrize(
        "reason, method, path, body, declared",
        [
            ("bad_length", "POST", "/predict", b"", "-1"),
            ("too_large", "POST", "/predict", b"", str(MAX_BODY_BYTES + 1)),
            ("bad_json", "POST", "/checkin", b"{not json", None),
            ("unknown_path", "POST", "/nope", {"prefix": [1]}, None),
            ("unknown_path", "GET", "/nope", None, None),
            ("bad_k", "POST", "/recommend", {"prefix": [1], "k": True}, None),
            ("bad_user_id", "POST", "/predict", {"user_id": "three"}, None),
        ],
    )
    def test_rejections_are_counted_by_reason(
        self, front_door, reason, method, path, body, declared
    ):
        registry = front_door.server.registry

        def counts():
            return {
                instrument.labels["reason"]: instrument.value
                for instrument in registry.instruments()
                if instrument.name == "http_rejections"
            }

        before = counts()
        status, _ = _exchange(front_door, method, path, body, declared=declared)
        assert status in (400, 404, 413)
        after = counts()
        assert after[reason] == before[reason] + 1
        assert {r: v for r, v in after.items() if r != reason} == {
            r: v for r, v in before.items() if r != reason
        }
        _, scrape = _exchange(front_door, "GET", "/metrics")
        series = parse_prometheus(scrape.decode())
        assert series[("http_rejections_total", (("reason", reason),))] == after[reason]

    def test_unexpected_error_is_500_and_connection_survives(self, front_door, monkeypatch):
        """A disk-full WAL append under checkin: answered, not dropped."""

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(front_door.server, "checkin", disk_full)
        internal = front_door.server.registry.find("http_rejections", {"reason": "internal"})
        before = internal.value
        connection = http.client.HTTPConnection(front_door.host, front_door.port, timeout=10)
        try:
            status, body = _request(
                connection, "POST", "/checkin",
                {"user_id": 1, "poi_id": 1, "timestamp": 1e9},
            )
            assert status == 500
            assert "No space left on device" in body["error"]
            status, body = _request(connection, "POST", "/predict", PREDICT_BODY)
            assert status == 200 and len(body["top_pois"]) == 3
        finally:
            connection.close()
        assert internal.value == before + 1
