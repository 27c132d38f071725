"""Serving facade: cached shared state, batched inference, stats.

:class:`Predictor` wraps any :class:`~repro.serve.protocol.PredictorProtocol`
model as a long-lived recommendation service:

* shared embedding tables are computed once and reused across requests,
  invalidated automatically when the model's ``weights_version`` moves
  (optimiser steps and ``load_state_dict`` both bump it);
* per-user QR-P graphs are bounded by an LRU cache instead of the
  model's default unbounded dict;
* request batches go through the model's vectorised ``predict_batch``
  (padded-and-masked batch encode for TSPN-RA, ``score_batch`` for the
  baselines) instead of a per-sample loop;
* every request batch is timed, so latency/throughput — including
  per-batch p50/p95/p99 — roll up in :class:`ServeStats`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import no_grad
from ..data.trajectory import PredictionSample, Trajectory, Visit
from ..obs import MetricsRegistry
from ..utils.cache import LRUCache
from .checkpoint import load_checkpoint
from .plans import PlanCache, supports_plans
from .protocol import PredictorResult, serve_history_key

LATENCY_PERCENTILES = (50, 95, 99)


class ServeStats:
    """Rolling counters for one predictor instance, registry-backed.

    Thread-safe: the serving worker pool records batches from several
    threads into one roll-up, and `/stats` reads concurrently.  Every
    quantity lives in a :class:`~repro.obs.MetricsRegistry` instrument
    — the counters are registry counters and the per-batch latency
    distribution is a fixed-bucket :class:`~repro.obs.Histogram`
    (O(buckets) memory under sustained load, unlike the unbounded list
    it replaced, and mergeable across workers/shards).  The historical
    attribute surface (``stats.requests`` …) is preserved as read-only
    properties over the instruments.

    ``namespace`` and ``labels`` keep instruments distinct when several
    ServeStats share one registry (per-worker ``labels={"worker": i}``,
    or the server's request-level roll-up under ``serve_request``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "serve",
        labels: Optional[Dict[str, str]] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            f"{namespace}_requests", "Requests served", labels
        )
        self._batches = self.registry.counter(
            f"{namespace}_batches", "Inference batches executed", labels
        )
        self._seconds = self.registry.counter(
            f"{namespace}_seconds", "Cumulative batch inference seconds", labels
        )
        self._embedding_refreshes = self.registry.counter(
            f"{namespace}_embedding_refreshes", "Shared-embedding recomputes", labels
        )
        self._embedding_cache_hits = self.registry.counter(
            f"{namespace}_embedding_cache_hits", "Shared-embedding cache hits", labels
        )
        self.latency = self.registry.histogram(
            f"{namespace}_batch_latency_seconds", "Per-batch latency", labels
        )

    # -- historical attribute surface ----------------------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def total_seconds(self) -> float:
        return self._seconds.value

    @property
    def embedding_refreshes(self) -> int:
        return int(self._embedding_refreshes.value)

    @property
    def embedding_cache_hits(self) -> int:
        return int(self._embedding_cache_hits.value)

    @property
    def mean_latency_ms(self) -> float:
        requests = self.requests
        return 1000.0 * self.total_seconds / requests if requests else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per second of inference time."""
        total = self.total_seconds
        return self.requests / total if total > 0 else 0.0

    # -- recording -----------------------------------------------------
    def record_batch(self, seconds: float, size: int) -> None:
        self._seconds.inc(seconds)
        self._requests.inc(size)
        self._batches.inc()
        self.latency.observe(seconds)

    def note_embedding_refresh(self) -> None:
        self._embedding_refreshes.inc()

    def note_embedding_cache_hit(self) -> None:
        self._embedding_cache_hits.inc()

    # -- reading -------------------------------------------------------
    def latency_percentiles(
        self, percentiles: Sequence[int] = LATENCY_PERCENTILES
    ) -> Dict[str, float]:
        """Per-batch latency percentiles in ms from the histogram.

        Bucket-resolution with within-bucket linear interpolation,
        clamped to the observed min/max — so the all-batches-equal case
        reports the exact latency, and any case is within one bucket
        width of the order-statistic answer.
        """
        seconds = self.latency.percentiles(percentiles)
        return {f"{k}_ms": 1000.0 * v for k, v in seconds.items()}

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "requests": self.requests,
            "batches": self.batches,
            "total_seconds": self.total_seconds,
            "embedding_refreshes": self.embedding_refreshes,
            "embedding_cache_hits": self.embedding_cache_hits,
        }
        requests, total = out["requests"], out["total_seconds"]
        out["mean_latency_ms"] = 1000.0 * total / requests if requests else 0.0
        out["throughput"] = requests / total if total > 0 else 0.0
        out.update(self.latency_percentiles())
        return out


class Predictor:
    """A trained model, served.

    Unless ``graph_cache_size=None``, the model's per-user graph cache
    is replaced by an LRU of that size (warm entries migrated) — a
    deliberate, lasting adoption for long-lived serving; pass ``None``
    for throwaway measurement facades.

    ``compile=True`` (the default) serves batches through captured
    inference plans when the model supports them (see
    :mod:`repro.serve.plans`): the first batch of each shape bucket is
    traced, later ones replay graph-free.  ``plan_dtype`` picks the
    replay precision (``float64`` is bit-identical to eager);
    ``plan_cache`` lets a worker pool share one cache across replicas.
    ``compile=False`` is the escape hatch — pure eager, no tracing.
    """

    def __init__(
        self,
        model,
        graph_cache_size: Optional[int] = 256,
        compile: bool = True,
        plan_dtype="float64",
        plan_cache: Optional[PlanCache] = None,
        registry: Optional[MetricsRegistry] = None,
        stats_labels: Optional[Dict[str, str]] = None,
    ):
        self.model = model
        self.dataset = None  # set by from_checkpoint
        # an attached QualityMonitor sees every served batch; None (the
        # default) costs one attribute check per batch
        self.quality = None
        self.stats = ServeStats(registry=registry, labels=stats_labels)
        self._shared: Optional[Tuple[Any, ...]] = None
        self._shared_version: Optional[int] = None
        self._shared_lock = threading.Lock()
        self.graph_cache: Optional[LRUCache] = None
        if graph_cache_size is not None:
            cache = LRUCache(graph_cache_size)
            if model.set_graph_cache(cache):
                self.graph_cache = cache
        self.plan_cache: Optional[PlanCache] = None
        if compile and supports_plans(model):
            self.plan_cache = (
                plan_cache if plan_cache is not None else PlanCache(dtype=plan_dtype)
            )

    @classmethod
    def from_checkpoint(cls, path, dataset=None, **kwargs) -> "Predictor":
        """Serve a checkpoint without retraining."""
        loaded = load_checkpoint(path, dataset=dataset)
        predictor = cls(loaded.model, **kwargs)
        predictor.dataset = loaded.dataset
        return predictor

    def stream_graph_maintainer(self):
        """The model's incremental QR-P maintainer, or ``None``.

        ``StreamIngest.register_predictor`` calls this to decide
        whether freshly rolled graph entries may be pushed into this
        predictor's cache (see ``TSPNRA.stream_graph_maintainer`` for
        the compatibility gate; baselines simply lack the hook).
        """
        factory = getattr(self.model, "stream_graph_maintainer", None)
        return factory() if callable(factory) else None

    # ------------------------------------------------------------------
    # shared-state cache
    # ------------------------------------------------------------------
    def shared_state(self) -> Tuple[Any, ...]:
        """Cached ``compute_embeddings()``, refreshed on weight updates.

        Serialised by a lock so concurrent requests on one predictor
        refresh the tables exactly once per ``weights_version`` instead
        of racing duplicate recomputes.
        """
        return self.shared_state_versioned()[1]

    def shared_state_versioned(self) -> Tuple[Optional[int], Tuple[Any, ...]]:
        """``(weights_version, shared_state)`` captured under one lock.

        The version is read under the same lock that refreshes the
        tables, so it names exactly the generation the returned tables
        were computed from.  The compiled path keys its plan cache on
        this captured version — keying on a *re-read* of
        ``weights_version()`` would let a hot reload landing in between
        cache a plan baked from pre-reload tables under the post-reload
        version, where the version-keyed invalidation never fires.
        """
        with self._shared_lock:
            version = self.model.weights_version()
            if self._shared is None or version != self._shared_version:
                self._shared = self.model.compute_embeddings()
                self._shared_version = version
                self.stats.note_embedding_refresh()
            else:
                self.stats.note_embedding_cache_hit()
            return version, self._shared

    def invalidate(self) -> None:
        """Drop cached shared state (forced refresh on the next request)."""
        with self._shared_lock:
            self._shared = None
            self._shared_version = None

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(self, sample: PredictionSample, k: Optional[int] = None) -> PredictorResult:
        return self.predict_batch([sample], k=k)[0]

    def predict_batch(
        self, samples: Sequence[PredictionSample], k: Optional[int] = None
    ) -> List[PredictorResult]:
        """Serve a batch through the model's vectorised batch path.

        Shared embeddings come from the cache; the model's
        ``predict_batch`` encodes the whole batch at once (results are
        identical to the per-sample loop).  With compilation on, the
        batch instead replays the cached plan for its shape bucket
        (tracing it first if cold) — ranked lists are bit-identical for
        float64 plans, and any bucket the tracer cannot capture falls
        back to eager automatically.  The model runs in eval mode for
        the batch and its prior train/eval mode is restored afterwards,
        so a mid-training evaluation hook can wrap the live model
        safely.
        """
        start = time.perf_counter()
        # the mode toggle walks every sub-module; a long-lived serving
        # predictor is already in eval, so skip the walk on the hot path
        was_training = getattr(self.model, "training", False)
        if was_training:
            self.model.eval()
        try:
            with no_grad():
                version, shared = self.shared_state_versioned()
                results = None
                if self.plan_cache is not None and samples:
                    entry = self.plan_cache.entry_for(
                        self.model, samples, *shared, version=version
                    )
                    if entry is not None:
                        results = self.model.predict_batch_compiled(
                            samples, entry, *shared, k=k
                        )
                if results is None:
                    results = self.model.predict_batch(samples, *shared, k=k)
        finally:
            if was_training:
                self.model.train(True)
        self.stats.record_batch(time.perf_counter() - start, len(results))
        if self.quality is not None:
            # record *before* the results leave the facade: by the time
            # a caller (or the HTTP layer above it) sees the ranked
            # list, the prediction is already pending its label
            self.quality.record_batch(samples, results)
        return results

    def target_rank(self, sample: PredictionSample) -> int:
        return self.predict(sample).poi_rank

    def recommend(
        self,
        visits: Sequence[Visit],
        history: Sequence[Trajectory] = (),
        user_id: int = -1,
        k: int = 10,
    ) -> List[int]:
        """Top-k next-POI recommendations for a live user history.

        ``visits`` is the in-progress trajectory; ``history`` the user's
        earlier trajectories (feeds QR-P graph construction).  There is
        no ground-truth target, so the sample is built with
        ``target=None``.
        """
        visits = list(visits)
        if not visits:
            raise ValueError("recommend() needs at least one visit")
        history = list(history)
        sample = PredictionSample(
            user_id=user_id,
            history=history,
            prefix=visits,
            target=None,
            history_key=serve_history_key(user_id, history),
        )
        return self.predict(sample).top_k(k)
