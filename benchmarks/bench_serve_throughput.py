"""Serving throughput and latency percentiles — the BENCH_serve harness.

Seeds the BENCH trajectory for the ``repro.serve`` subsystem.  Five
legs, slowest to fastest:

* **uncached** — the legacy research loop (``compute_embeddings()``
  recomputed per request);
* **cached** — shared embeddings computed once, per-sample ``predict``
  loop (the pre-vectorisation ``Predictor`` behaviour);
* **batched** — the vectorised ``predict_batch`` path: padded-and-
  masked batch encode plus single-matmul tile/POI ranking, measured
  per batch so p50/p95/p99 latencies are meaningful;
* **compiled** / **compiled_f32** — the batched facade replaying
  captured inference plans (trace-once, graph-free): float64 is
  bit-identical to eager (the correctness surface), float32 is the
  compiled *serving* configuration — plans run float32 end-to-end
  with dtype-specialised replay kernels.  Plan-cache counters
  (plans, hits, misses) ride along per leg.  The batched and compiled
  legs are interleaved round-robin, and each speedup is the median of
  per-round paired ratios, so shared-host clock drift cancels out.

The acceptance gate is ``compiled_speedup`` — the float32 compiled
leg vs the eager batched leg — asserted >= 1.5x; ``compiled_f64_speedup``
tracks the bit-identical replay against the same baseline.

Alongside the human-readable table the run emits
``benchmarks/results/BENCH_serve.json`` — the machine-readable BENCH
trajectory point (samples/sec per leg, batched-vs-per-sample and
compiled-vs-batched speedups, latency percentiles, dtype).  Run
standalone with ``PYTHONPATH=src python benchmarks/bench_serve_throughput.py``
(the CI ``serve-smoke`` job does exactly that and uploads the JSON).
"""

import json
import time
from pathlib import Path

import pytest
from paired import paired_rounds

from repro.autograd import get_default_dtype, no_grad
from repro.experiments import format_table, get_profile, prepare, run_one
from repro.serve import Predictor, supports_plans

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"
BATCH_SIZE = 16


def _per(numerator, denominator):
    return numerator / denominator if denominator > 0 else float("inf")


def serve_legs(model, samples, repeats=1, batch_size=BATCH_SIZE):
    """Race every leg over ``samples``; keys as ``BENCH_serve.json`` records them.

    ``uncached`` and ``cached`` are single timed loops over ``repeats``
    passes.  The batched and compiled legs each get one warm-up pass
    (``{leg}_warmup_seconds`` is the compiled legs' trace cost), then
    ``repeats`` interleaved paired rounds: each reports
    ``median(pass) * repeats`` seconds, and ``compiled_speedup``
    (float32, the gate) / ``compiled_f64_speedup`` are medians of the
    per-round ratios against ``batched``.  The model's train/eval mode
    is restored on exit.
    """
    samples = list(samples)
    was_training = getattr(model, "training", False)
    model.eval()
    try:
        with no_grad():
            start = time.perf_counter()
            for _ in range(repeats):
                for sample in samples:
                    model.predict(sample, *model.compute_embeddings())
            uncached_seconds = time.perf_counter() - start

            shared = model.compute_embeddings()
            start = time.perf_counter()
            for _ in range(repeats):
                for sample in samples:
                    model.predict(sample, *shared)
            cached_seconds = time.perf_counter() - start

        # graph_cache_size=None: a measurement facade must not swap the
        # caller's model cache out from under it
        runners = {"batched": Predictor(model, graph_cache_size=None, compile=False)}
        if supports_plans(model):
            for leg, dtype in (("compiled", "float64"), ("compiled_f32", "float32")):
                runners[leg] = Predictor(
                    model, graph_cache_size=None, compile=True, plan_dtype=dtype
                )

        def one_pass(runner):
            def run(_round):
                for lo in range(0, len(samples), batch_size):
                    runner.predict_batch(samples[lo : lo + batch_size])
            return run

        legs = {leg: one_pass(runner) for leg, runner in runners.items()}
        warmup = {}
        for leg, run in legs.items():  # traces plans, fills knowledge caches
            start = time.perf_counter()
            run(None)
            warmup[leg] = time.perf_counter() - start
        rounds = paired_rounds(legs, repeats)
    finally:
        model.train(was_training)

    count = len(samples) * repeats
    batched_seconds = rounds.median_seconds("batched") * repeats
    report = {
        "samples": float(count),
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "batched_seconds": batched_seconds,
        "uncached_sps": _per(count, uncached_seconds),
        "cached_sps": _per(count, cached_seconds),
        "batched_sps": _per(count, batched_seconds),
        "speedup": _per(uncached_seconds, cached_seconds),
        "batched_speedup": _per(cached_seconds, batched_seconds),
    }
    for leg, runner in runners.items():
        if leg == "batched":
            continue
        seconds = rounds.median_seconds(leg) * repeats
        cache = runner.plan_cache
        report.update({
            f"{leg}_warmup_seconds": warmup[leg],
            f"{leg}_seconds": seconds,
            f"{leg}_sps": _per(count, seconds),
            f"{leg}_plans": float(len(cache)),
            f"{leg}_plan_hits": float(cache.hits),
            f"{leg}_plan_misses": float(cache.misses),
        })
    if "compiled" in runners:
        report["compiled_f64_speedup"] = rounds.ratio("batched", "compiled")
        report["compiled_speedup"] = rounds.ratio("batched", "compiled_f32")
    report.update(runners["batched"].stats.latency_percentiles())
    return report


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)
    test = data.splits.test[:80]

    report = serve_legs(model, test, repeats=5)

    rows = [[key, f"{value:10.2f}"] for key, value in report.items()]
    table = format_table(
        ["Metric", "Value"],
        rows,
        title="Serving throughput — uncached vs cached vs batched vs compiled (NYC)",
    )
    if save_report is not None:
        save_report("serve_throughput", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "serve_throughput.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "serve",
        "dataset": "nyc",
        "batch_size": BATCH_SIZE,
        "dtype": str(get_default_dtype()),
        **{key: round(value, 4) for key, value in report.items()},
    }
    out = RESULTS_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    assert report["speedup"] > 1.0, report
    assert report["batched_speedup"] > 1.0, report
    # acceptance gate: compiled replay beats the eager batched leg
    assert report["compiled_speedup"] >= 1.5, report
    return trajectory_point


def bench_serve_throughput(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
