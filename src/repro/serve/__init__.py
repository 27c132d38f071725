"""``repro.serve`` — the unified inference and serving subsystem.

Entry points
------------
* :class:`PredictorResult` / :class:`PredictorProtocol` /
  :class:`PredictorBase` — the one inference contract TSPN-RA and all
  baselines conform to.  Rank semantics: an absent target ranks
  ``num_pois + 1`` (past the whole POI universe), never just past a
  restricted candidate list;
* :func:`save_checkpoint` / :func:`load_checkpoint` — persist a
  trained model (config + weights + dataset recipe) and reload it
  without retraining (:func:`read_checkpoint` is the weights-only
  read used by hot reload);
* :class:`Predictor` — the serving facade: cached shared embeddings,
  LRU-bounded per-user graph cache, and *vectorised* batched
  inference: every request batch is right-padded, masked, and encoded
  as one ``(batch, seq, dim)`` pass through the model's
  ``predict_batch`` (TSPN-RA's batched fusion/attention, the
  baselines' ``score_batch``), with per-batch p50/p95/p99 latency in
  :class:`ServeStats`;
* :class:`InferenceServer` / :class:`ServerConfig` — the async
  serving runtime: individual requests from many concurrent clients
  coalesce through a :class:`MicroBatchScheduler` (flush on
  ``max_batch_size`` or ``max_wait_ms``), execute on a worker-thread
  pool of Predictor replicas sharing one checkpoint's weights, with
  bounded-queue admission control (:class:`QueueFullError`), graceful
  draining shutdown, and hot weight reload;
* :class:`HttpFrontend` — the stdlib HTTP/JSON front door both tiers
  share: one handler over a :class:`ServingBackend` (``/predict``,
  ``/recommend``, ``/checkin``, ``/healthz``, ``/stats``,
  ``/reload``, ...); request/response codecs are
  :func:`sample_from_json` / :func:`result_to_json`;
* :class:`PlanCache` — compiled inference plans (trace-once, graph-free
  replay) keyed ``(weights_version, dtype, shape bucket)``, shared
  pool-wide; ``Predictor(compile=False)`` / ``ServerConfig(compile=
  False)`` are the eager escape hatches.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    LoadedCheckpoint,
    apply_extra_state,
    build_dataset_from_meta,
    build_model_from_meta,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from .plans import PlanCache, supports_plans
from .predictor import Predictor, ServeStats
from .protocol import (
    PredictorBase,
    PredictorProtocol,
    PredictorResult,
    rank_of_target,
    result_to_json,
    sample_from_json,
    serve_history_key,
)
from .scheduler import (
    MicroBatchScheduler,
    QueueFullError,
    SchedulerClosedError,
    ServeRequest,
)
from .httpd import HttpFrontend, ServingBackend
from .server import InferenceServer, ServerConfig

__all__ = [
    "CHECKPOINT_FORMAT",
    "HttpFrontend",
    "apply_extra_state",
    "InferenceServer",
    "LoadedCheckpoint",
    "MicroBatchScheduler",
    "PlanCache",
    "Predictor",
    "PredictorBase",
    "PredictorProtocol",
    "PredictorResult",
    "QueueFullError",
    "SchedulerClosedError",
    "ServeRequest",
    "ServingBackend",
    "ServeStats",
    "ServerConfig",
    "build_dataset_from_meta",
    "build_model_from_meta",
    "load_checkpoint",
    "rank_of_target",
    "read_checkpoint",
    "result_to_json",
    "sample_from_json",
    "save_checkpoint",
    "serve_history_key",
    "supports_plans",
]
