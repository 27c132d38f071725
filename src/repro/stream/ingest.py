"""Ingestion pipeline: append events, roll sessions, retire stale graphs.

:class:`StreamIngest` is the thin layer between arriving
:class:`~repro.stream.events.CheckinEvent`\\ s and the serving stack:

* every event is appended to the :class:`~repro.stream.state.UserStateStore`
  (which rolls sessions at the Δt gap boundary);
* when an append changes a user's completed-session history, the now-
  stale QR-P graph entry is dropped from every registered serving cache
  — **exactly once per ``history_version`` bump**, because the store
  reports the retired key on precisely the append that moved the
  version.  This rides ``state_version`` the same way the shared
  embedding tables ride ``weights_version``: the version is baked into
  the cache key, so even a missed drop can only waste an LRU slot,
  never serve a stale graph.
* when the store maintains incremental QR-P graphs (a
  :class:`~repro.graphs.QRPGraphMaintainer` attached via
  :meth:`register_predictor`), the same append also carries the
  *replacement* entry — the O(session)-updated ``(qrp, masks)`` under
  the new ``history_version`` key — which is pushed into every
  graph-compatible cache.  Retire-then-push makes a rollover
  cache-neutral: the next predict for that user hits a fresh entry
  instead of paying an O(history) rebuild.

Registered caches are the per-worker QR-P graph LRUs of an
:class:`~repro.serve.InferenceServer` (or a single offline
:class:`~repro.serve.Predictor` during replay).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from ..obs import MetricsRegistry
from ..utils.cache import LRUCache
from .events import CheckinEvent
from .state import AppendResult, StoreConfig, UserStateStore


class StreamIngest:
    """Append check-ins and keep the serving caches coherent.

    Thread-safe: the store serialises per-user appends on shard locks,
    cache drops go through the locked :class:`LRUCache`, and the
    pipeline's counters are per-instrument-locked registry counters
    (a private :class:`~repro.obs.MetricsRegistry` when standalone;
    the server adopts it at wiring time so ``/metrics`` sees them).
    """

    def __init__(
        self,
        store: Optional[UserStateStore] = None,
        caches: Iterable[Optional[LRUCache]] = (),
        registry: Optional[MetricsRegistry] = None,
    ):
        self.store = store if store is not None else UserStateStore(StoreConfig())
        self._caches: List[LRUCache] = [c for c in caches if c is not None]
        self._push_caches: List[LRUCache] = []
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events = self.registry.counter(
            "ingest_events", "Check-in events ingested"
        )
        self._rollovers = self.registry.counter(
            "ingest_rollovers", "Session rollovers observed"
        )
        self._invalidations = self.registry.counter(
            "ingest_cache_invalidations", "Stale graph cache entries removed"
        )
        self._graph_pushes = self.registry.counter(
            "ingest_graph_pushes", "Fresh incremental graph entries installed"
        )
        self._observer_errors = self.registry.counter(
            "ingest_observer_errors", "Exceptions contained from ingest observers"
        )
        self._observers: List = []

    # -- historical counter surface ------------------------------------
    @property
    def events(self) -> int:
        return int(self._events.value)

    @property
    def rollovers(self) -> int:
        return int(self._rollovers.value)

    @property
    def invalidations(self) -> int:
        """Cache entries actually removed."""
        return int(self._invalidations.value)

    @property
    def graph_pushes(self) -> int:
        """Fresh incremental entries installed."""
        return int(self._graph_pushes.value)

    def register_cache(self, cache: Optional[LRUCache]) -> None:
        """Add a serving-layer graph cache to the invalidation set.

        ``None`` is accepted and ignored so callers can pass
        ``predictor.graph_cache`` unconditionally (models without a
        graph stage have no cache).
        """
        if cache is not None:
            self._caches.append(cache)

    def register_predictor(self, predictor) -> None:
        """Register a :class:`~repro.serve.Predictor`'s graph cache.

        When the predictor's model exposes a compatible incremental
        QR-P maintainer (``stream_graph_maintainer``) and the store
        accepts it, this cache also joins the *push* set: each session
        rollover installs the freshly updated graph entry right after
        retiring the stale one.  Otherwise only invalidation applies
        and a retired entry is rebuilt on the next miss.
        """
        cache = getattr(predictor, "graph_cache", None)
        self.register_cache(cache)
        if cache is None:
            return
        factory = getattr(predictor, "stream_graph_maintainer", None)
        maintainer = factory() if callable(factory) else None
        if maintainer is None:
            return
        if self.store.attach_graph_maintainer(maintainer):
            self._push_caches.append(cache)

    def add_observer(self, fn) -> None:
        """Subscribe ``fn(event, append_result)`` to every ingested event.

        Observers run *after* the append and cache maintenance, on the
        ingesting thread, in registration order — the quality monitor's
        prequential join and the drift detector's sketches both hang off
        this hook.  An observer exception is contained (counted in
        ``ingest_observer_errors``): observability must never be able to
        fail ingestion.
        """
        self._observers.append(fn)

    def remove_observer(self, fn) -> None:
        """Unsubscribe an observer added with :meth:`add_observer`."""
        self._observers.remove(fn)

    def ingest(self, event: CheckinEvent) -> AppendResult:
        """Append one event; retire the stale graph entry, push the new.

        The pop precedes the push and the keys differ (the history
        version moved), so each registered cache sees exactly one
        retirement per history change — pushes can only add the
        replacement entry, never resurrect the retired key.
        """
        result = self.store.append(event)
        dropped = pushed = 0
        if result.invalidated_key is not None:
            for cache in self._caches:
                if cache.pop(result.invalidated_key) is not None:
                    dropped += 1
            if result.graph_entry is not None:
                for cache in self._push_caches:
                    cache.put(result.history_key, result.graph_entry)
                    pushed += 1
        self._events.inc()
        if result.session_rolled:
            self._rollovers.inc()
        if dropped:
            self._invalidations.inc(dropped)
        if pushed:
            self._graph_pushes.inc(pushed)
        for observer in self._observers:
            try:
                observer(event, result)
            except Exception:
                self._observer_errors.inc()
        return result

    def ingest_many(self, events: Iterable[CheckinEvent]) -> List[AppendResult]:
        return [self.ingest(event) for event in events]

    def stats(self) -> Dict:
        """Pipeline counters merged with the store's roll-up."""
        counters = {
            "ingested": self.events,
            "rollovers": self.rollovers,
            "cache_invalidations": self.invalidations,
            "graph_pushes": self.graph_pushes,
            "registered_caches": len(self._caches),
            "push_caches": len(self._push_caches),
            "observers": len(self._observers),
            "observer_errors": int(self._observer_errors.value),
        }
        return {**self.store.stats(), **counters}
