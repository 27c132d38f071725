"""Prequential streaming evaluation: test-then-train over a replay.

A held-out :class:`~repro.data.checkin.CheckinDataset` is replayed in
global time order through the ingest pipeline.  For every arrival that
*continues* a user's open session the model first predicts the next POI
from the state stored **before** the event (the test step), and only
then is the event ingested (the train step) — the classic prequential
order, so no prediction can ever see its own label or any later
check-in.  Arrivals that open a new session have no offline
prediction-sample counterpart (a session's first visit is never a
target) and are ingested without a test step, which makes the replayed
prediction set *identical* to the offline
:func:`~repro.data.trajectory.samples_from_trajectories` protocol over
the same prefixes.

Because each test sample is built from an immutable
:class:`~repro.stream.state.UserSnapshot`, prediction and ingestion
decouple: the replay ingests eagerly and flushes predictions through
the vectorised ``predict_batch`` in chunks — cross-user batching with
per-user prequential order intact.  The serialised baseline
(:func:`serialised_rebuild_baseline`) is what a stateless deployment
must do instead: rebuild the user's sessions from the raw log and
recompute the per-user QR-P graph on every single request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.trajectory import (
    DEFAULT_GAP_HOURS,
    PredictionSample,
    Visit,
    split_into_trajectories,
)
from ..eval.metrics import DEFAULT_KS, metric_table
from .events import CheckinEvent
from .ingest import StreamIngest
from .state import StoreConfig, UserStateStore

#: Prediction flush size of the streaming replay: large enough to
#: amortise the padded batch encode, small enough to bound the padded
#: tensors (mirrors the serving scheduler's max_batch_size scale).
REPLAY_BATCH_SIZE = 32


@dataclass
class ReplayRecord:
    """One prequential prediction: where it happened and how it ranked.

    ``(user_id, history_len, prefix_len)`` is the sample's identity in
    the offline protocol — ``history_len`` is the current trajectory's
    index, ``prefix_len`` the target position — which is what the
    replay-vs-offline identity test joins on.
    """

    user_id: int
    history_len: int
    prefix_len: int
    target_poi: int
    rank: int
    result: Optional[object] = None  # PredictorResult when keep_results

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.user_id, self.history_len, self.prefix_len)


@dataclass
class ReplayReport:
    """Outcome of one replay leg: accuracy under streaming arrival plus
    sustained ingest+predict throughput."""

    leg: str
    events: int
    predictions: int
    seconds: float
    metrics: Dict[str, float]
    records: List[ReplayRecord] = field(default_factory=list)
    ingest_stats: Dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else float("inf")

    @property
    def predictions_per_second(self) -> float:
        return self.predictions / self.seconds if self.seconds > 0 else float("inf")

    def as_dict(self) -> Dict:
        """JSON-ready summary (records elided; they can be huge)."""
        return {
            "leg": self.leg,
            "events": self.events,
            "predictions": self.predictions,
            "seconds": round(self.seconds, 4),
            "events_per_second": round(self.events_per_second, 2),
            "predictions_per_second": round(self.predictions_per_second, 2),
            "metrics": {k: round(v, 6) for k, v in self.metrics.items()},
            **(
                {"ingest": self.ingest_stats}
                if self.ingest_stats
                else {}
            ),
        }

    @property
    def ranks(self) -> List[int]:
        return [record.rank for record in self.records]


def prequential_replay(
    predictor,
    events: Sequence[CheckinEvent],
    *,
    ingest: Optional[StreamIngest] = None,
    store_config: Optional[StoreConfig] = None,
    batch_size: int = REPLAY_BATCH_SIZE,
    ks: Iterable[int] = DEFAULT_KS,
    keep_results: bool = False,
    drift=None,
) -> ReplayReport:
    """Replay ``events`` through ingest-then-predict, prequentially.

    ``predictor`` is a :class:`~repro.serve.Predictor` (its QR-P graph
    cache, when present, is registered with the ingest pipeline so
    session rollovers retire stale entries and — when the model has an
    incremental graph maintainer — receive the updated replacement
    graphs; a model without one rebuilds on the next miss).
    Passing an existing ``ingest`` continues a warm store — e.g. the
    one a live :class:`~repro.serve.InferenceServer` owns — with
    whatever registrations it already carries.

    Predictions go through ``predictor.predict_batch``, so a
    :class:`~repro.obs.QualityMonitor` attached as
    ``predictor.quality`` records each one exactly once, through its
    labelled-sample path: replay samples carry their prequential
    target, so each records and joins in one step.  ``drift`` (a
    :class:`~repro.obs.DriftDetector`) is fed every replayed event, in
    order, in one ``update_many`` once the tape is ingested; it is never
    attached to ``ingest``, so a caller-supplied ``ingest`` outlives the
    replay without it.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if ingest is None:
        ingest = StreamIngest(UserStateStore(store_config or StoreConfig()))
        ingest.register_predictor(predictor)
    events = list(events)
    ks = tuple(ks)

    records: List[ReplayRecord] = []
    pending: List[PredictionSample] = []

    def flush() -> None:
        if not pending:
            return
        for sample, result in zip(pending, predictor.predict_batch(pending)):
            records.append(
                ReplayRecord(
                    user_id=sample.user_id,
                    history_len=len(sample.history),
                    prefix_len=len(sample.prefix),
                    target_poi=result.target_poi,
                    rank=result.poi_rank,
                    result=result if keep_results else None,
                )
            )
        pending.clear()

    store = ingest.store
    start = time.perf_counter()
    for event in events:
        snapshot = store.get_snapshot(event.user_id)
        if snapshot is not None and snapshot.continues_session(event):
            # the test step: a sample built from the pre-ingest
            # snapshot is immune to everything ingested after it, so
            # flushing later in a batch cannot leak the label
            pending.append(
                snapshot.sample(target=Visit(poi_id=event.poi_id, timestamp=event.timestamp))
            )
        ingest.ingest(event)
        if len(pending) >= batch_size:
            flush()
    flush()
    if drift is not None:
        drift.update_many(events)
    seconds = time.perf_counter() - start

    return ReplayReport(
        leg="stream",
        events=len(events),
        predictions=len(records),
        seconds=seconds,
        metrics=metric_table([r.rank for r in records], ks=ks),
        records=records,
        ingest_stats=ingest.stats(),
    )


def serialised_rebuild_baseline(
    predictor,
    events: Sequence[CheckinEvent],
    *,
    gap_hours: float = DEFAULT_GAP_HOURS,
    ks: Iterable[int] = DEFAULT_KS,
    keep_results: bool = False,
) -> ReplayReport:
    """The stateless deployment's cost model, measured honestly.

    Per arrival: re-split the user's entire raw check-in log into
    sessions from scratch (the server holds no state, so every request
    rebuilds it), predict serially with a never-repeating graph-cache
    key (no per-user state means nothing to key graph reuse on), then
    append the event to the log.  Prediction decisions and inputs are
    identical to :func:`prequential_replay`, so the two legs' ranked
    lists must agree — only the throughput differs.
    """
    events = list(events)
    ks = tuple(ks)

    logs: Dict[int, List] = {}
    records: List[ReplayRecord] = []
    start = time.perf_counter()
    for index, event in enumerate(events):
        log = logs.setdefault(event.user_id, [])
        if log and event.timestamp < log[-1].timestamp:
            raise ValueError(
                f"out-of-order check-in for user {event.user_id}; "
                "per-user events must be time-ordered"
            )
        if log and event.timestamp - log[-1].timestamp < gap_hours:
            trajectories = split_into_trajectories(log, gap_hours=gap_hours)
            sample = PredictionSample(
                user_id=event.user_id,
                history=trajectories[:-1],
                prefix=trajectories[-1].visits,
                target=Visit(poi_id=event.poi_id, timestamp=event.timestamp),
                history_key=("replay-baseline", event.user_id, index),
            )
            result = predictor.predict_batch([sample])[0]
            records.append(
                ReplayRecord(
                    user_id=sample.user_id,
                    history_len=len(sample.history),
                    prefix_len=len(sample.prefix),
                    target_poi=result.target_poi,
                    rank=result.poi_rank,
                    result=result if keep_results else None,
                )
            )
        log.append(event.to_checkin())
    seconds = time.perf_counter() - start

    return ReplayReport(
        leg="baseline",
        events=len(events),
        predictions=len(records),
        seconds=seconds,
        metrics=metric_table([r.rank for r in records], ks=ks),
        records=records,
    )


def offline_reference(
    predictor, samples: Sequence[PredictionSample], batch_size: int = 128
) -> Dict[Tuple[int, int, int], object]:
    """Offline results keyed the way replay records key themselves.

    Feeds ``samples`` (e.g. ``make_samples(dataset)``) through the
    predictor in chunks and indexes each result by
    ``(user_id, history_len, prefix_len)`` — the join key for the
    replay-vs-offline identity check.
    """
    reference: Dict[Tuple[int, int, int], object] = {}
    samples = list(samples)
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo : lo + batch_size]
        for sample, result in zip(chunk, predictor.predict_batch(chunk)):
            reference[(sample.user_id, len(sample.history), len(sample.prefix))] = result
    return reference
