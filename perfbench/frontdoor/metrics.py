"""The benchmark's metric catalogue (``BENCHMARK.json`` lists the same).

Every workload reports every end-to-end metric, each measured on that
workload's own unit of work (see ``perfbench/README.md``):

========================  ===============  =======================  ==================  =================
metric                    http-predict     cluster-ingest-predict   replay-batch        train-epoch
========================  ===============  =======================  ==================  =================
``p50_ms``                POST /predict    POST /checkin            one replay pass     one training step
``throughput_per_s``      max_rps          max event rate           events/s            samples/s
``setup_s``               spawn to ready   spawn to ready           from_checkpoint     dataset + model
                                                                    + store
``peak_rss_mb``           server tree      frontend + shards        benchmark process   benchmark process
========================  ===============  =======================  ==================  =================

Failures are not a metric (a ratio that is 0 on every good run
cannot carry a relative bound); they are the ``attempted`` and
``failed`` counts of the result line, and any failure fails the run.

The tail latency (the highest percentile with at least ten samples
beyond it) is reported with its percentile and count in every run's
report and history line, but it is not bounded: on ``http-predict``
the reference phase queues behind the HTTP write stall on two
connections, and its p90/p95 vary by a fifth or more from seed to
seed, more than any usable bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
}

# name -> (unit, better); per-layer metrics have no bound
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "http.overhead_ms": ("ms", "lower"),
    "http.bytes_in": ("bytes", "lower"),
    "http.bytes_out": ("bytes", "lower"),
    "codec.decode_ms": ("ms", "lower"),
    "codec.encode_ms": ("ms", "lower"),
    "scheduler.queue_wait_ms": ("ms", "lower"),
    "scheduler.batch_size_mean": ("count", "higher"),
    "predictor.batch_ms": ("ms", "lower"),
    "graphs.cache_hit_ratio": ("ratio", "higher"),
    "plans.traces": ("count", "lower"),
    "plans.hit_ratio": ("ratio", "higher"),
    "plans.trace_ms": ("ms", "lower"),
    "plans.replay_ms": ("ms", "lower"),
    "model.encode_ms": ("ms", "lower"),
    "model.hgat_ms": ("ms", "lower"),
    "model.fusion_ms": ("ms", "lower"),
    "rank.two_step_ms": ("ms", "lower"),
    "rank.candidates_mean": ("count", "lower"),
    "graphs.build_ms": ("ms", "lower"),
    "graphs.incremental_updates": ("count", "lower"),
    "graphs.rebuilds": ("count", "lower"),
    "ingest.ingest_ms": ("ms", "lower"),
    "store.sample_for_ms": ("ms", "lower"),
    "ingest.rollovers": ("count", "lower"),
    "router.roundtrip_ms": ("ms", "lower"),
    "shard.op_ms": ("ms", "lower"),
    "wal.append_ms": ("ms", "lower"),
    "wal.bytes_appended": ("bytes", "lower"),
    "wal.snapshots": ("count", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "train.embeddings_ms": ("ms", "lower"),
    "train.forward_ms": ("ms", "lower"),
    "train.backward_ms": ("ms", "lower"),
    "train.optim_ms": ("ms", "lower"),
    "loadgen.send_lag_p99_ms": ("ms", "lower"),
    "loadgen.backlog_max": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.reconcile_ratio": ("ratio", "higher"),
}


@dataclass
class Run:
    """What a workload measured, checked and wants to report."""

    metrics: Dict[str, float]
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    report: Dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks) and self.failed == 0
