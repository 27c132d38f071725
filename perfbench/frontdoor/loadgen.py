"""Open-loop HTTP load generation over plain keep-alive sockets.

The generator thread releases each request at its scheduled time,
whether or not earlier ones have finished; at most ``connections``
sender threads (each owning one keep-alive socket) put them on the
wire.  A request's latency is measured from the time it was *due*, so
a server stall that backs requests up behind a busy connection counts
against every request it delays.

The client sockets are left with their default options and write
each request (headers and body) with one ``sendall``: no
``TCP_NODELAY``/``TCP_QUICKACK`` or other client-side setting that
would mask how the server writes its responses.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stats import percentile

REQUEST_TIMEOUT_S = 30.0


class HttpError(RuntimeError):
    """The connection failed or the server sent no parseable response."""


class HttpClient:
    """One HTTP/1.1 keep-alive connection on a plain socket."""

    def __init__(self, host: str, port: int, timeout: float = REQUEST_TIMEOUT_S):
        self.host, self.port, self.timeout = host, port, timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), self.timeout)
            self._buffer = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _read_until(self, sock: socket.socket, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise HttpError("connection closed mid-response")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(marker)
        return head

    def _read_exact(self, sock: socket.socket, n: int) -> bytes:
        while len(self._buffer) < n:
            chunk = sock.recv(max(65536, n - len(self._buffer)))
            if not chunk:
                raise HttpError("connection closed mid-body")
            self._buffer += chunk
        body, self._buffer = self._buffer[:n], self._buffer[n:]
        return body

    def request(self, method: str, path: str, body: bytes = b"",
                request_id: Optional[str] = None) -> Tuple[int, bytes, int, int]:
        """Send one request; returns ``(status, body, bytes_out, bytes_in)``.

        Any transport error closes the connection (the next request
        reconnects) and raises :class:`HttpError`.
        """
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if body:
            lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
        if request_id is not None:
            lines.append(f"X-Request-Id: {request_id}")
        wire = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        try:
            sock = self._connect()
            sock.sendall(wire)
            head = self._read_until(sock, b"\r\n\r\n")
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            status = int(status_line.split(" ", 2)[1])
            length = 0
            for line in header_lines:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            payload = self._read_exact(sock, length)
        except (OSError, ValueError, IndexError, HttpError) as error:
            self.close()
            raise HttpError(f"{method} {path}: {error}") from error
        return status, payload, len(wire), len(head) + 4 + length


@dataclass
class Op:
    """One request of an open-loop phase."""

    due: float  # seconds after the phase start
    path: str
    body: bytes
    lane: int = 0  # connection index when the phase pins lanes
    tag: Any = None  # the workload's own bookkeeping
    request_id: Optional[str] = None
    # sent only once the previous op on its lane has answered (a client
    # that issues this request in response to that one): its latency
    # runs from that answer, or from its due time if that is later
    chained: bool = False


@dataclass
class Outcome:
    op: Op
    due_at: float
    ready_at: float = 0.0  # when the client meant to send it
    sent_at: float = 0.0
    done_at: float = 0.0
    status: int = 0
    payload: bytes = b""
    bytes_out: int = 0
    bytes_in: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.done_at - self.ready_at) * 1e3


@dataclass
class PhaseReport:
    """What one phase sent, what came back, and how late the generator ran."""

    name: str
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0  # still waiting for a connection as the last op fell due

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def summary(self) -> Dict:
        late = self.lateness_ms
        return {
            "phase": self.name,
            "rate": self.rate,
            "sent": self.sent,
            "succeeded": self.sent - self.failed,
            "failed": self.failed,
            "send_lag_p99_ms": percentile(late, 99.0) if late else 0.0,
            "send_lag_max_ms": max(late) if late else 0.0,
            "backlog_max": self.backlog_max,
            "backlog_end": self.backlog_end,
        }


class OpenLoop:
    """Owns the connections; runs phases of scheduled requests over them.

    ``pinned=True`` gives every connection its own FIFO and sends each
    op on connection ``op.lane % connections`` (per-key ordering, e.g.
    one user's check-ins); otherwise all connections share one FIFO.
    """

    def __init__(self, host: str, port: int, connections: int, pinned: bool):
        if connections < 1:
            raise ValueError("need at least one connection")
        self.clients = [HttpClient(host, port) for _ in range(connections)]
        self.pinned = pinned

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def run(self, name: str, rate: float, ops: Sequence[Op]) -> PhaseReport:
        """Release ``ops`` at their due times and wait for every response."""
        report = PhaseReport(name=name, rate=rate)
        n = len(self.clients)
        queues = [queue.SimpleQueue() for _ in range(n if self.pinned else 1)]
        pending = [0]  # dispatched, not yet taken by a sender
        lock = threading.Lock()

        def sender(index: int) -> None:
            client = self.clients[index]
            inbox = queues[index if self.pinned else 0]
            answered = 0.0
            while True:
                outcome = inbox.get()
                if outcome is None:
                    return
                with lock:
                    pending[0] -= 1
                outcome.ready_at = (
                    max(outcome.due_at, answered) if outcome.op.chained else outcome.due_at
                )
                outcome.sent_at = time.monotonic()
                try:
                    status, payload, out_bytes, in_bytes = client.request(
                        "POST", outcome.op.path, outcome.op.body, outcome.op.request_id
                    )
                    outcome.status, outcome.payload = status, payload
                    outcome.bytes_out, outcome.bytes_in = out_bytes, in_bytes
                except HttpError as error:
                    outcome.error = str(error)
                outcome.done_at = answered = time.monotonic()

        threads = [
            threading.Thread(target=sender, args=(i,), name=f"loadgen-{i}", daemon=True)
            for i in range(n)
        ]
        for thread in threads:
            thread.start()
        start = time.monotonic() + 0.005
        for op in sorted(ops, key=lambda o: o.due):
            due_at = start + op.due
            delay = due_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(op=op, due_at=due_at)
            report.outcomes.append(outcome)
            report.lateness_ms.append((time.monotonic() - due_at) * 1e3)
            with lock:
                pending[0] += 1
                report.backlog_max = max(report.backlog_max, pending[0])
                report.backlog_end = pending[0]
            queues[op.lane % n if self.pinned else 0].put(outcome)
        for inbox in queues:
            for _ in range(n if not self.pinned else 1):
                inbox.put(None)
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S * 2)
        for outcome in report.outcomes:
            if outcome.done_at == 0.0 and outcome.error is None:
                outcome.error = "no response before the phase ended"
        return report
