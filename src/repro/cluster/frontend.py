"""HTTP surface of the cluster: same endpoints, N processes behind.

The cluster is served by the shared front door of
:mod:`repro.serve.httpd` — the same handler and the same
:class:`~repro.serve.httpd.HttpFrontend` as the single-process tier
(``ClusterHttpFrontend`` is that class), so a client (or the
benchmark harness) moves between tiers by changing a URL.  Routing,
input checks, rejection counters and the one-segment response writer
live there; :class:`~repro.cluster.router.ClusterRouter`'s ``http_*``
methods keep what only the cluster does:

* ``GET /metrics`` aggregates every shard's registry over the control
  pipe with ``shard="NN"`` labels next to the router's own series
  (the front door's ``http_rejections`` among them);
* status codes survive the extra hop: a shard's verdict travels back
  as ``{"ok": False, "code": ...}`` and is re-emitted verbatim, so an
  out-of-order check-in is a 409 here exactly as it is
  single-process, and a shard that cannot answer is a 503;
* ``POST /reload`` is a deliberate 501 until weight generations can
  be cut over across shards.
"""

from __future__ import annotations

from ..serve.httpd import HttpFrontend, make_handler
from .router import ClusterRouter

ClusterHttpFrontend = HttpFrontend


def _make_handler(router: ClusterRouter):
    """The HTTP handler class bound to one :class:`ClusterRouter`."""
    return make_handler(router)
