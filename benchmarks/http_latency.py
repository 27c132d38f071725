"""Front-door latency gate shared by the serve smoke and the cluster bench.

One client, one keep-alive connection, requests sent back to back:
the HTTP p50 must stay within ``SLACK_MS`` of the same call made
in-process.  The slack covers JSON coding, the socket round trip and
handler dispatch (about 1 ms in a traced run); a response written as
two TCP segments, which stalls each request on the client's delayed
ACK (~40 ms), fails it.  In-process and HTTP calls alternate per
payload so both legs see the same load and warm caches.
"""

import http.client
import json
import statistics
import time

SLACK_MS = 5.0
WARMUP = 3


def keepalive_gate(front, cases, path="/predict"):
    """Time each ``(payload, in_process)`` case both ways.

    ``in_process()`` makes the call ``POST path`` with ``payload``
    makes over HTTP.
    """
    connection = http.client.HTTPConnection(front.host, front.port, timeout=30)
    local_ms, http_ms = [], []
    try:
        for index, (payload, in_process) in enumerate(cases):
            start = time.perf_counter()
            in_process()
            local = (time.perf_counter() - start) * 1e3
            body = json.dumps(payload).encode("utf-8")
            start = time.perf_counter()
            connection.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            response.read()
            remote = (time.perf_counter() - start) * 1e3
            assert response.status == 200, (path, response.status)
            if index >= WARMUP:
                local_ms.append(local)
                http_ms.append(remote)
    finally:
        connection.close()
    local_p50, http_p50 = statistics.median(local_ms), statistics.median(http_ms)
    return {
        "requests": len(http_ms),
        "in_process_p50_ms": round(local_p50, 3),
        "http_p50_ms": round(http_p50, 3),
        "slack_ms": SLACK_MS,
        "ok": http_p50 <= local_p50 + SLACK_MS,
    }
