"""Where the benchmark runs: paths, the checkpoint fixture, the host, history.

Everything the benchmark writes stays inside the checkout: the
checkpoint fixture and per-run scratch under ``perfbench/.work/``, and
the kept result history in ``perfbench/results/history.jsonl`` (one
JSON object appended per run, never rewritten).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
HISTORY = BENCH / "results" / "history.jsonl"

# The served model: ``repro train nyc --save`` at a fixed training
# seed.  The workload seed varies the traffic, never the model, so
# every run of every seed serves the same weights.
CHECKPOINT_ARGS = ["train", "nyc", "--seed", "0"]
FIXTURE_TIMEOUT_S = 850.0

# One BLAS thread in every process the benchmark runs.  On a host of a
# few shared cores a threaded GEMM waits for whichever core another
# process holds: with OpenBLAS's default threads a single busy process
# beside a training run doubled its time, with one thread it moved it
# by a tenth.  With nothing else running, one thread replayed and
# trained as fast as the default on a 2-core x86_64 host: the
# program's matrices are small.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The program under test cannot be built or started here."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_digest() -> str:
    """Digest of every file under ``src/``: names the program measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def checkpoint(digest: str) -> Path:
    """The checkpoint fixture for this source tree, trained on first use."""
    path = WORK / f"checkpoint-{digest}.npz"
    if path.is_file():
        return path
    WORK.mkdir(parents=True, exist_ok=True)
    partial = WORK / f"checkpoint-{digest}.partial.npz"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *CHECKPOINT_ARGS, "--save", str(partial)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=FIXTURE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise SetupError(f"checkpoint fixture timed out after {error.timeout}s") from error
    if done.returncode != 0 or not partial.is_file():
        raise SetupError(f"checkpoint fixture failed:\n{done.stdout}\n{done.stderr}")
    partial.replace(path)
    return path


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint(digest: str, seed: int) -> Dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "source_digest": digest,
        "seed": seed,
    }


def append_history(record: Dict) -> None:
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **record}
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
