"""Training throughput of the batched loss path — BENCH_train.

Seeds the BENCH trajectory for differentiable batched training: one
:class:`repro.train.Trainer` leg over TSPN-RA's ``loss_batch`` (one
padded, fully differentiable forward/backward per mini-batch: batched
fusion attention, packed block-diagonal HGAT, vectorised ArcFace
heads).  The per-sample reference the batched loss is checked against
lives in the tests (``tests/oracle.py``), not here.

The leg warms the model's caches (QR-P graphs, imagery columns) with
one untimed epoch first, so the number reflects steady-state epochs
rather than first-touch graph construction.

Alongside the human-readable table the run emits
``benchmarks/results/BENCH_train.json`` — the machine-readable BENCH
trajectory point (samples/sec).  Run standalone with
``PYTHONPATH=src python benchmarks/bench_train_throughput.py``
(the CI workflow does exactly that and uploads the JSON artifact).
"""

import json
import time
from pathlib import Path

import pytest

from repro.experiments import format_table, get_profile, prepare, build_model
from repro.train import TrainConfig, Trainer

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).parent / "results"
BATCH_SIZE = 8  # the paper's training batch size
TRAIN_SAMPLES = 160
MEASURED_EPOCHS = 2


def _train_config(profile, epochs):
    return TrainConfig(
        epochs=epochs,
        batch_size=BATCH_SIZE,
        lr=profile.lr,
        max_train_samples=TRAIN_SAMPLES,
        seed=0,
    )


def _measure(data, profile):
    """Samples/sec over MEASURED_EPOCHS steady-state epochs."""
    model = build_model("TSPN-RA", data, profile, seed=0)
    Trainer(model, _train_config(profile, epochs=1)).fit(
        data.splits.train
    )  # untimed warm-up epoch: builds QR-P graphs / imagery columns
    trainer = Trainer(model, _train_config(profile, MEASURED_EPOCHS))
    start = time.perf_counter()
    trainer.fit(data.splits.train)
    elapsed = time.perf_counter() - start
    return TRAIN_SAMPLES * MEASURED_EPOCHS / elapsed


def run_bench(profile=None, save_report=None):
    profile = (profile or get_profile("quick")).smaller(0.5)
    data = prepare("nyc", profile, seed=0)

    report = {"batched_sps": _measure(data, profile)}

    rows = [["batched samples/s", f"{report['batched_sps']:10.2f}"]]
    table = format_table(
        ["Metric", "Value"],
        rows,
        title=f"Training throughput — batched loss (NYC, batch {BATCH_SIZE})",
    )
    if save_report is not None:
        save_report("train_throughput", table)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "train_throughput.txt").write_text(table + "\n")
        print(table)

    RESULTS_DIR.mkdir(exist_ok=True)
    trajectory_point = {
        "bench": "train",
        "dataset": "nyc",
        "batch_size": BATCH_SIZE,
        "train_samples": TRAIN_SAMPLES,
        "measured_epochs": MEASURED_EPOCHS,
        **{key: round(value, 6) for key, value in report.items()},
    }
    out = RESULTS_DIR / "BENCH_train.json"
    out.write_text(json.dumps(trajectory_point, indent=2) + "\n")
    print(f"[BENCH trajectory point saved to {out}]")

    return report


def bench_train_throughput(profile, save_report):
    run_bench(profile=profile, save_report=save_report)


if __name__ == "__main__":
    run_bench()
