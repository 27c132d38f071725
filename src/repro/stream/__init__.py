"""``repro.stream`` — online check-in ingestion and streaming evaluation.

The serving runtime's stateful half: instead of every request shipping
the user's full check-in history over the wire, the server owns the
state.

Entry points
------------
* :class:`CheckinEvent` / :func:`event_from_json` /
  :func:`event_to_json` — the wire model of one streamed check-in
  (same validation conventions as the serving protocol);
  :func:`events_from_checkins` turns an offline dataset into a
  time-ordered arrival stream;
* :class:`UserStateStore` / :class:`StoreConfig` — the sharded,
  lock-striped per-user state: bounded completed-session history (the
  QR-P input) plus the open session (the prediction prefix), split at
  the paper's Δt gap rule, each append bumping a per-user monotonic
  ``state_version``;
* :class:`StreamIngest` — the ingestion pipeline: appends events,
  rolls sessions, and retires stale per-user QR-P graph cache entries
  from the serving layer exactly once per history change;
* :func:`prequential_replay` — test-then-train streaming evaluation
  of a replayed dataset (Recall@K / MRR under streaming arrival,
  sustained ingest+predict throughput);
  :func:`serialised_rebuild_baseline` is the stateless full-rebuild
  reference it must agree with, and :func:`offline_reference` the
  offline protocol's results keyed the way replay records are;
* :func:`stream_history_key` — the ``("stream", user, version)``
  graph-cache key that makes invalidation ride ``state_version`` the
  way shared embeddings ride ``weights_version``.

``repro serve --stateful`` wires a store into the HTTP runtime
(``POST /checkin``, history-less ``POST /predict {"user_id": ...}``);
``benchmarks/bench_stream_replay.py`` races the replay against the
rebuild baseline.
"""

from .events import (
    CheckinEvent,
    event_from_json,
    event_to_json,
    events_from_checkins,
)
from .ingest import StreamIngest
from .replay import (
    REPLAY_BATCH_SIZE,
    ReplayRecord,
    ReplayReport,
    offline_reference,
    prequential_replay,
    serialised_rebuild_baseline,
)
from .scenarios import ShiftScenario, popularity_shift_events
from .state import (
    AppendResult,
    StoreConfig,
    UserSnapshot,
    UserStateStore,
    stream_history_key,
)

__all__ = [
    "AppendResult",
    "CheckinEvent",
    "REPLAY_BATCH_SIZE",
    "ReplayRecord",
    "ReplayReport",
    "ShiftScenario",
    "StoreConfig",
    "StreamIngest",
    "UserSnapshot",
    "UserStateStore",
    "event_from_json",
    "event_to_json",
    "events_from_checkins",
    "offline_reference",
    "popularity_shift_events",
    "prequential_replay",
    "serialised_rebuild_baseline",
    "stream_history_key",
]
