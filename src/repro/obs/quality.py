"""Live prequential model quality: the next check-in grades the last answer.

A next-POI recommender's ground truth arrives on its own ingest path: a
user we just served *will check in somewhere*, and that check-in is the
delayed label for the ranked list we returned.  :class:`QualityMonitor`
closes that loop on the serving path itself:

* :meth:`~QualityMonitor.record_batch` captures each served batch — per
  prediction the user, top-K POI ids and cold-start stratum.
  Unlabelled predictions enter a **bounded pending ring** (an ordered
  dict in serve order, FIFO-evicted at ``max_pending``).  Predictions
  that already carry a ground-truth target (prequential replay tapes,
  evaluation traffic) skip the ring and join immediately: the label is
  in hand, waiting for an ingest event that replay has already applied
  would join never or twice.  A batch costs one clock read, one
  windowed increment per (stratum, series), one counter increment per
  stratum and one ring lock, whatever its size.
* :meth:`~QualityMonitor.observe_checkin` runs as a
  :class:`~repro.stream.ingest.StreamIngest` observer.  The user's next
  check-in joins the pending entry **exactly once** (``pop``; a second
  check-in finds nothing), accounted as a batch of one.  If the store
  rolled the session (the 72h gap rule, or a forced roll), the
  prediction's context is stale — the entry *expires*, no join.  Each
  event also advances an event-time watermark that lazily sweeps
  pending entries whose serve-time context is older than ``gap_hours``,
  so unlabelled predictions cannot pin memory even if their users never
  return (the ring bound is the hard backstop).
* joins update sliding-window Recall@K / MRR / NDCG estimators at the
  fixed cut-offs :data:`KS`, stratified by **cold-start bucket** —
  ``"0"``, ``"1"``, ``"2+"`` prior sessions — as
  :class:`~repro.obs.metrics.WindowedCounter` instruments in a shared
  :class:`MetricsRegistry`, so the numbers ride the existing Prometheus
  exposition.  Every monitor reports the same cut-offs, so per-shard
  summaries merge by addition (:func:`merge_reports`).

Rank accounting (mirrored by the tests, exact by construction): the
label's rank is its 1-based position in the *stored top-K* list, a miss
otherwise.  Recall@k = joins with rank <= k / joins; MRR sums 1/rank
for ranks within top-K (0 for misses); NDCG@k sums 1/log2(rank+1) for
ranks <= k.  All ratios are windowed-sum quotients, so any scrape is a
consistent point-in-time estimate.

Durability: the pending ring is deliberately **ephemeral** — it is
serving-process state, not model state.  After a crash-and-recover the
store rebuilds from WAL+snapshot but pending predictions are gone:
joins/expiries restart from clean counters on the recovered shard, and
no stale pre-crash entry can ever mis-join post-recovery traffic.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .metrics import MetricsRegistry

__all__ = ["QualityMonitor", "cold_start_stratum", "merge_reports", "KS", "STRATA"]

STRATA: Tuple[str, ...] = ("0", "1", "2+")

#: Recall@k / NDCG@k cut-offs; every monitor, so every shard, reports these.
KS: Tuple[int, ...] = (5, 10, 20)

#: Cells per estimator window (the window slides in ``window / SLOTS`` steps).
SLOTS = 60

#: Windowed series per stratum, in accounting-row order: joins, the
#: reciprocal-rank sum, then hits and NDCG gain sums at each cut-off.
_SERIES: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("repro_quality_window_joins", "Joins in the window", None),
    ("repro_quality_window_mrr_sum", "Sum of reciprocal ranks in the window", None),
    *(("repro_quality_window_hits", "Joins whose label ranked within k", k) for k in KS),
    *(("repro_quality_window_ndcg_sum", "Sum of NDCG@k gains in the window", k) for k in KS),
)
_HITS = 2
_NDCG = _HITS + len(KS)


def cold_start_stratum(num_prior_sessions: int) -> str:
    """Cold-start bucket from the user's completed-session count."""
    if num_prior_sessions <= 0:
        return "0"
    if num_prior_sessions == 1:
        return "1"
    return "2+"


def _rank(ranked: List[int], label: int, top_k: int) -> int:
    """1-based position of ``label`` within the first ``top_k`` of ``ranked``; 0 on a miss."""
    try:
        return ranked.index(label, 0, top_k) + 1
    except ValueError:
        return 0


def _strata_report(rows: Dict[str, Sequence[float]]) -> Dict:
    """Per-stratum report blocks from raw window rows, plus their ``"all"`` sum.

    Each block carries the raw windowed sums beside the ratios, so
    reports merge by addition; ratios are always quotients of sums.
    """
    rows = {**rows, "all": [sum(col) for col in zip(*(rows[s] for s in STRATA))]}
    blocks: Dict[str, Dict] = {}
    for stratum, row in rows.items():
        joins = row[0]
        hits = {str(k): row[_HITS + i] for i, k in enumerate(KS)}
        ndcg_sum = {str(k): row[_NDCG + i] for i, k in enumerate(KS)}
        blocks[stratum] = {
            "window": {"joins": joins, "hits": hits, "mrr_sum": row[1], "ndcg_sum": ndcg_sum},
            "recall": {k: (v / joins if joins else 0.0) for k, v in hits.items()},
            "mrr": row[1] / joins if joins else 0.0,
            "ndcg": {k: (v / joins if joins else 0.0) for k, v in ndcg_sum.items()},
        }
    return blocks


def merge_reports(reports: Sequence[Dict]) -> Dict:
    """Sum :meth:`QualityMonitor.summary` reports (one per shard) into one.

    Counts and raw window sums add and the ratios are recomputed from
    the sums — a mean of per-shard ratios would weight an idle shard
    equal to a busy one.  Drift stays per shard (each sees a different
    event slice, so PSI does not merge); ``drift_alert`` is an any-of.
    """

    def summed(key: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for report in reports:
            for name, value in report.get(key, {}).items():
                out[name] = out.get(name, 0) + int(value)
        return out

    def row(window: Dict) -> List[float]:
        return [
            window["joins"],
            window["mrr_sum"],
            *(window["hits"][str(k)] for k in KS),
            *(window["ndcg_sum"][str(k)] for k in KS),
        ]

    merged: Dict = {
        key: sum(r[key] for r in reports)
        for key in ("pending", "expired", "replaced", "evicted")
    }
    merged["predictions"] = summed("predictions")
    merged["joins"] = summed("joins")
    merged["strata"] = _strata_report(
        {
            s: [sum(col) for col in zip(*(row(r["strata"][s]["window"]) for r in reports))]
            for s in STRATA
        }
    )
    store_strata = summed("store_strata")
    if store_strata:
        merged["store_strata"] = store_strata
    merged["drift_alert"] = any(r.get("drift", {}).get("alert", False) for r in reports)
    return merged


class _Pending(NamedTuple):
    """One unlabelled served prediction awaiting its user's next check-in."""

    stratum: str
    top_pois: List[int]
    last_timestamp: float


class QualityMonitor:
    """Prequential Recall@K/MRR/NDCG over a sliding window, by stratum.

    Thread-safe: server workers ``record_batch`` concurrently while the
    ingest thread joins.  All estimator state lives in registry
    instruments; the monitor itself only owns the pending ring.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        window_seconds: float = 3600.0,
        top_k: int = 20,
        max_pending: int = 4096,
        gap_hours: float = 72.0,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if gap_hours <= 0:
            raise ValueError("gap_hours must be positive")
        # storing fewer ids than the largest cut-off would silently
        # undercount hits@k; widen the stored list instead
        self.top_k = max(int(top_k), KS[-1])
        self.window_seconds = float(window_seconds)
        self.max_pending = int(max_pending)
        # event timestamps are in hours everywhere in this codebase
        # (StoreConfig.gap_hours is compared to raw timestamp deltas),
        # so the sweep horizon stays in the same units — converting to
        # seconds would make the sweep effectively never fire
        self.gap_hours = float(gap_hours)
        self.registry = registry if registry is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._pending: "OrderedDict[int, _Pending]" = OrderedDict()
        self._event_watermark = float("-inf")

        reg = self.registry
        self._predictions = {
            s: reg.counter(
                "repro_quality_predictions",
                "Served predictions recorded by the quality monitor",
                {"stratum": s},
            )
            for s in STRATA
        }
        self._joins_total = {
            s: reg.counter(
                "repro_quality_joins",
                "Check-ins joined against a served prediction",
                {"stratum": s},
            )
            for s in STRATA
        }
        self._expired = reg.counter(
            "repro_quality_expired",
            "Pending predictions expired by session roll or the gap rule",
        )
        self._replaced = reg.counter(
            "repro_quality_replaced",
            "Pending predictions superseded by a newer one (latest wins)",
        )
        self._evicted = reg.counter(
            "repro_quality_evicted",
            "Pending predictions dropped by the FIFO ring bound",
        )
        reg.gauge(
            "repro_quality_pending",
            "Served predictions awaiting their user's next check-in",
            fn=lambda: float(len(self._pending)),
        )
        reg.gauge(
            "repro_quality_window_seconds", "Quality estimator window"
        ).set(self.window_seconds)
        reg.gauge(
            "repro_quality_topk", "Ranked-list depth stored per prediction"
        ).set(float(self.top_k))

        # a join adds its rank's row (index 0: a miss) to the window
        self._rank_rows = [(1, 0.0) + (0,) * len(KS) + (0.0,) * len(KS)] + [
            (1, 1.0 / rank)
            + tuple(int(rank <= k) for k in KS)
            + tuple(1.0 / math.log2(rank + 1) if rank <= k else 0.0 for k in KS)
            for rank in range(1, self.top_k + 1)
        ]
        # one windowed instrument per (stratum, series), in row order
        self._window = {
            s: [
                reg.windowed(
                    name,
                    help,
                    {"stratum": s} if k is None else {"stratum": s, "k": str(k)},
                    window_seconds=self.window_seconds,
                    slots=SLOTS,
                )
                for name, help, k in _SERIES
            ]
            for s in STRATA
        }

        # ratio gauges are callbacks over the windowed sums: the hot
        # path pays nothing, and "all" is the strata sum at read time
        def ratio(series: int, group: Tuple[str, ...]):
            def read():
                joins = sum(self._window[s][0].value for s in group)
                if not joins:
                    return 0.0
                return sum(self._window[s][series].value for s in group) / joins

            return read

        for s in STRATA + ("all",):
            group = STRATA if s == "all" else (s,)
            reg.gauge(
                "repro_quality_mrr",
                "Windowed mean reciprocal rank",
                {"stratum": s},
                fn=ratio(1, group),
            )
            for i, k in enumerate(KS):
                labels = {"stratum": s, "k": str(k)}
                recall, ndcg = ratio(_HITS + i, group), ratio(_NDCG + i, group)
                reg.gauge("repro_quality_recall", "Windowed Recall@k", labels, fn=recall)
                reg.gauge("repro_quality_ndcg", "Windowed NDCG@k", labels, fn=ndcg)

    # ------------------------------------------------------------------
    # serve side
    # ------------------------------------------------------------------
    def record_batch(self, samples: Sequence, results: Sequence) -> List[Optional[str]]:
        """Record one served batch; returns the path each prediction took.

        ``samples`` duck-type :class:`PredictionSample` (``user_id``,
        ``history``, ``prefix``, ``target``); ``results`` need only
        ``ranked_pois``, a list.  Labelled samples join immediately
        (``"joined"``); unlabelled ones enter the pending ring
        (``"pending"``).  Anonymous traffic (negative user id) cannot
        ever be joined and is skipped (``None``).
        """
        paths: List[Optional[str]] = []
        predicted = dict.fromkeys(STRATA, 0)
        ranks: Dict[str, List[int]] = {s: [] for s in STRATA}
        unlabelled: List[Tuple[int, str, List[int], Optional[float]]] = []
        top_k = self.top_k
        for sample, result in zip(samples, results):
            user_id = sample.user_id
            if user_id is None or user_id < 0:
                paths.append(None)
                continue
            stratum = cold_start_stratum(len(sample.history))
            predicted[stratum] += 1
            target = sample.target
            if target is not None:
                ranks[stratum].append(_rank(result.ranked_pois, target.poi_id, top_k))
                paths.append("joined")
                continue
            prefix = sample.prefix
            context = float(prefix[-1].timestamp) if prefix else None
            # the slice is a copy: the ring never aliases a caller's list
            unlabelled.append((user_id, stratum, result.ranked_pois[:top_k], context))
            paths.append("pending")
        for stratum, count in predicted.items():
            if count:
                self._predictions[stratum].inc(count)
        if unlabelled:
            self._enqueue(unlabelled)
        self._account(ranks)
        return paths

    def _enqueue(self, unlabelled) -> None:
        replaced = evicted = 0
        with self._lock:
            for user_id, stratum, top_pois, context in unlabelled:
                # prefix-less predictions (user unknown to the store)
                # carry no event-time context; age them from the stream
                # watermark so the gap sweep still applies post-startup
                entry = _Pending(
                    stratum, top_pois, self._event_watermark if context is None else context
                )
                if self._pending.pop(user_id, None) is not None:
                    replaced += 1  # latest wins, re-enter at the tail
                self._pending[user_id] = entry
                while len(self._pending) > self.max_pending:
                    self._pending.popitem(last=False)
                    evicted += 1
        if replaced:
            self._replaced.inc(replaced)
        if evicted:
            self._evicted.inc(evicted)

    # ------------------------------------------------------------------
    # ingest side
    # ------------------------------------------------------------------
    def observe_checkin(self, event, append_result=None) -> Optional[str]:
        """Join ``event`` against its user's pending prediction, if any.

        ``append_result`` is the store's :class:`AppendResult`; when it
        reports ``session_rolled`` the prediction expired (its serving
        context belonged to the previous session).  Returns ``"joined"``,
        ``"expired"``, or ``None`` (nothing pending for this user).
        """
        timestamp = float(getattr(event, "timestamp", float("-inf")))
        swept = 0
        with self._lock:
            if timestamp > self._event_watermark:
                self._event_watermark = timestamp
            entry = self._pending.pop(int(event.user_id), None)
            # lazy gap-rule sweep from the FIFO head: entries served
            # against context older than the gap can never join
            horizon = self._event_watermark - self.gap_hours
            while self._pending:
                oldest = next(iter(self._pending.values()))
                # entries served before any stream event carry no
                # event-time context at all (-inf); only the ring bound
                # can reclaim them — never the gap sweep
                if (
                    oldest.last_timestamp == float("-inf")
                    or oldest.last_timestamp > horizon
                ):
                    break
                self._pending.popitem(last=False)
                swept += 1
        rolled = entry is not None and getattr(append_result, "session_rolled", False)
        if swept or rolled:
            self._expired.inc(swept + rolled)
        if entry is None:
            return None
        if rolled:
            return "expired"
        self._account({entry.stratum: [_rank(entry.top_pois, event.poi_id, self.top_k)]})
        return "joined"

    def _account(self, ranks: Dict[str, List[int]]) -> None:
        """Fold joins into the windows: one increment per (stratum, series)."""
        slot = None
        for stratum, stratum_ranks in ranks.items():
            if not stratum_ranks:
                continue
            if slot is None:
                # every windowed instrument shares one window shape, so
                # one clock read places the whole batch
                slot = self._window[STRATA[0]][0]._now_slot()
            self._joins_total[stratum].inc(len(stratum_ranks))
            rows = list(map(self._rank_rows.__getitem__, stratum_ranks))
            # column sums of the joins' rank rows, in join order
            row = rows[0] if len(rows) == 1 else map(sum, zip(*rows))
            for instrument, amount in zip(self._window[stratum], row):
                if amount:
                    instrument.inc_at(slot, amount)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def summary(self) -> Dict:
        """JSON-safe report: totals, per-stratum windows, and ratios.

        Each stratum carries its **raw windowed sums** alongside the
        ratios, so per-shard summaries merge by addition
        (:func:`merge_reports`).
        """
        return {
            "enabled": True,
            "window_seconds": self.window_seconds,
            "top_k": self.top_k,
            "ks": list(KS),
            "pending": len(self._pending),
            "max_pending": self.max_pending,
            "predictions": {s: int(c.value) for s, c in self._predictions.items()},
            "joins": {s: int(c.value) for s, c in self._joins_total.items()},
            "expired": int(self._expired.value),
            "replaced": int(self._replaced.value),
            "evicted": int(self._evicted.value),
            "strata": _strata_report(
                {s: [w.value for w in self._window[s]] for s in STRATA}
            ),
        }
