"""The two in-process workloads: ``replay-batch`` and ``train-epoch``.

Each repeats one unit of work from a cold set-up until the run's
time budget is spent (at least :data:`MIN_REPEATS` times), after one
warm-up repetition that is checked but not scored: the set-up is
timed as ``setup_s``, the work as the throughput, and the calls
inside it (one ``predict_batch`` flush, one training step) give
``p50_ms`` and the reported tail.  Medians over the repetitions are reported.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from . import traceview as tv
from .metrics import Run
from .serving import tape_events
from .spans import FIELDS, Recorder, instrument_model, instrument_replay, instrument_training
from .stats import summarize

MIN_REPEATS = 3
TRAIN_EPOCHS = 1


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(once: Callable[[], Dict]) -> Dict:
    # the last repetition's model, plans and caches are cyclic garbage;
    # free them so each repetition starts like a fresh job
    gc.collect()
    return once()


def _repeat(seconds: float, once: Callable[[], Dict]) -> Tuple[Dict, List[Dict]]:
    """One warm-up repetition, then the scored ones until ``seconds`` pass.

    The first repetition in a process also pays one-off costs (lazy
    imports, the allocator growing to the working set) that no later
    one does; it is kept for the correctness checks only.
    """
    warm = _fresh(once)
    reps: List[Dict] = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPEATS or time.monotonic() < deadline:
        reps.append(_fresh(once))
    return warm, reps


def _e2e(run: Run, reps: List[Dict], rate_key: str, latencies: List[float]) -> None:
    scored = summarize(latencies)
    run.metrics.update({
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
        "p50_ms": scored["p50"],
        "throughput_per_s": statistics.median(r[rate_key] for r in reps),
    })
    run.report["unit_latency"] = scored
    run.report["repeats"] = [{k: v for k, v in r.items() if not k.startswith("_")} for r in reps]


def _traced_layers(run: Run, recorder: Recorder, root: str, plain_p50: float, traced_p50: float) -> None:
    spans = [dict(zip(FIELDS, r)) for r in recorder.records]
    roots = [s for s in spans if s["name"] == root]
    trees = tv.request_trees(spans, {}, roots)
    table = tv.layer_table(trees)
    calls = tv.per_call(spans)
    run.metrics.update(tv.layer_metrics(calls, table, {"trace.overhead_ms": traced_p50 - plain_p50}))
    run.check("per-layer self times reconcile with the traced end-to-end time",
              abs(table["reconcile_ratio"] - 1.0) <= 0.02, f"ratio {table['reconcile_ratio']:.4f}")
    run.report.update({"layer_table": table, "per_call": calls,
                       "traced_p50_ms": traced_p50, "untraced_p50_ms": plain_p50})


# ----------------------------------------------------------------------
# replay-batch
# ----------------------------------------------------------------------
def replay_workload(checkpoint: Path, seed: int, seconds: float, trace: bool) -> Run:
    """Prequential replay of the seed's tape through a default ``Predictor``."""
    from repro import stream
    from repro.eval.metrics import metric_table
    from repro.serve import Predictor, load_checkpoint
    from repro.stream import StoreConfig, StreamIngest, UserStateStore, offline_reference

    class TimedPredictor(Predictor):
        """Times each ``predict_batch`` call: one flush of the replay."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.flush_ms: List[float] = []

        def predict_batch(self, samples, k=None):
            start = time.perf_counter()
            results = super().predict_batch(samples, k=k)
            self.flush_ms.append((time.perf_counter() - start) * 1e3)
            return results

    loaded = load_checkpoint(checkpoint)
    events = tape_events(loaded.dataset, seed)
    users = {e.user_id for e in events}

    def once() -> Dict:
        started = time.perf_counter()
        predictor = TimedPredictor.from_checkpoint(checkpoint)
        ingest = StreamIngest(UserStateStore(StoreConfig()))
        ingest.register_predictor(predictor)
        setup_s = time.perf_counter() - started
        report = stream.prequential_replay(predictor, events, ingest=ingest)
        return {"setup_s": setup_s, "events": report.events, "predictions": report.predictions,
                "seconds": report.seconds, "events_per_s": report.events / report.seconds,
                "_metrics": report.metrics, "_records": report.records, "_flush_ms": predictor.flush_ms}

    run = Run(metrics={})
    if trace:
        _fresh(once)  # warm the interpreter so the untraced pass is comparable
        plain = _fresh(once)
        recorder = Recorder()
        instrument_model(recorder)
        instrument_replay(recorder)
        traced = _fresh(once)
        reps = [plain, traced]
        _traced_layers(run, recorder, "replay.pass", plain["seconds"] * 1e3, traced["seconds"] * 1e3)
    else:
        warm, reps = _repeat(seconds, once)
        # a pass mixes flushes that trace a plan with flushes that replay
        # one, so the flush median straddles two modes; the unit scored
        # is the whole cold pass, the flushes are reported
        _e2e(run, reps, "events_per_s", [r["seconds"] * 1e3 for r in reps])
        run.report["flush_latency"] = summarize([ms for r in reps for ms in r["_flush_ms"]])
        reps = [warm] + reps

    # Recall/MRR of every repetition against the offline evaluation
    from repro.data import make_samples

    eager = Predictor(loaded.model, compile=False, graph_cache_size=None)
    samples = [s for s in make_samples(loaded.dataset) if s.user_id in users]
    reference = offline_reference(eager, samples)
    wrong = sum(
        rec.key not in reference or reference[rec.key].poi_rank != rec.rank
        for r in reps for rec in r["_records"]
    )
    expected = metric_table([reference[rec.key].poi_rank for rec in reps[0]["_records"]
                             if rec.key in reference])
    differing = sum(r["_metrics"] != expected for r in reps)
    run.check("replay Recall/MRR equal offline_reference", wrong == 0 and differing == 0,
              f"{wrong} predictions off the offline rank; {differing} of {len(reps)} "
              "repetitions' metrics differ")
    run.attempted = sum(r["predictions"] for r in reps)
    run.failed = wrong
    run.report["tape"] = {"events": len(events), "users": len(users), "predictions": reps[0]["predictions"]}
    run.report["metrics"] = expected
    return run


# ----------------------------------------------------------------------
# train-epoch
# ----------------------------------------------------------------------
def train_workload(seed: int, seconds: float, trace: bool) -> Run:
    """``Trainer.fit`` (batched) for one epoch on the quick profile's samples."""
    from repro.experiments import get_profile, prepare
    from repro.experiments.harness import build_model
    from repro.train import TrainConfig, Trainer
    from repro.utils.rng import set_seed

    profile = get_profile("quick")

    class TimedTrainer(Trainer):
        """Times each optimiser step (one mini-batch)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.step_ms: List[float] = []

        def _train_batch(self, batch):
            start = time.perf_counter()
            loss = super()._train_batch(batch)
            self.step_ms.append((time.perf_counter() - start) * 1e3)
            return loss

    def once() -> Dict:
        set_seed(seed)
        started = time.perf_counter()
        data = prepare("nyc", profile, seed=0)
        model = build_model("TSPN-RA", data, profile, seed=seed)
        setup_s = time.perf_counter() - started
        trainer = TimedTrainer(model, TrainConfig(
            epochs=TRAIN_EPOCHS, batch_size=profile.batch_size, lr=profile.lr,
            max_train_samples=profile.max_train_samples, seed=seed,
        ))
        started = time.perf_counter()
        history = trainer.fit(data.splits.train)
        fit_s = time.perf_counter() - started
        samples = min(len(data.splits.train), profile.max_train_samples) * TRAIN_EPOCHS
        return {"setup_s": setup_s, "samples": samples, "seconds": fit_s,
                "samples_per_s": samples / fit_s, "losses": history.epoch_losses,
                "_step_ms": trainer.step_ms}

    run = Run(metrics={})
    if trace:
        _fresh(once)  # warm the interpreter so the untraced pass is comparable
        plain = _fresh(once)
        recorder = Recorder()
        instrument_model(recorder)
        instrument_training(recorder)
        traced = _fresh(once)
        reps = [plain, traced]
        _traced_layers(run, recorder, "train.fit",
                       statistics.median(plain["_step_ms"]), statistics.median(traced["_step_ms"]))
    else:
        warm, reps = _repeat(seconds, once)
        _e2e(run, reps, "samples_per_s", [ms for r in reps for ms in r["_step_ms"]])
        reps = [warm] + reps

    losses = [r["losses"] for r in reps]
    finite = all(math.isfinite(x) for ls in losses for x in ls)
    identical = all(ls == losses[0] for ls in losses)
    run.check("training losses finite", finite, str(losses[0]))
    run.check("training losses bit-identical across repetitions with one seed", identical,
              f"{len(losses)} repetitions")
    run.attempted = sum(len(r["_step_ms"]) for r in reps)
    run.failed = 0 if finite and identical else run.attempted
    return run
