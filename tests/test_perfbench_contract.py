"""The library surface the front-door benchmark (``perfbench/``) relies on.

``perfbench/`` lives outside ``src/`` and wraps or calls library names
at run time: its tracer patches layer functions by attribute name, and
its workloads call ``Predictor``, ``prequential_replay`` and the ingest
pipeline with fixed keyword shapes.  A ``src/`` refactor that renames
or drops one of them breaks the benchmark without failing any other
test, so these checks pin the contract from the library's side.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Runs in a fresh interpreter: the instrumentation monkeypatches library
# classes and modules process-wide.
CONTRACT_SCRIPT = r"""
import inspect
import sys

sys.path[:0] = sys.argv[1:3]

from frontdoor.spans import (
    Recorder,
    instrument_replay,
    instrument_serving,
    instrument_training,
)

recorder = Recorder()
instrument_serving(recorder)
instrument_training(recorder)
instrument_replay(recorder)

from repro import stream
from repro.cli import _build_parser
from repro.serve import Predictor
from repro.stream import StreamIngest, offline_reference

model, predictor, ingest, events, samples = object(), object(), object(), [], []
inspect.signature(Predictor).bind(model, compile=False, graph_cache_size=None)
inspect.signature(Predictor.from_checkpoint).bind("model.npz")
inspect.signature(stream.prequential_replay).bind(predictor, events, ingest=ingest)
inspect.signature(stream.prequential_replay).bind(predictor, events, keep_results=True)
inspect.signature(StreamIngest.register_predictor).bind(ingest, predictor)
inspect.signature(offline_reference).bind(predictor, samples)
_build_parser().parse_args(
    ["serve", "--checkpoint", "model.npz", "--port", "0",
     "--cluster", "2", "--persist", "state"]
)
print("contract ok")
"""


def test_instrumentation_installs_and_call_shapes_bind():
    done = subprocess.run(
        [sys.executable, "-c", CONTRACT_SCRIPT, str(PERFBENCH), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "contract ok" in done.stdout


def test_every_library_name_perfbench_imports_exists():
    imported = set()
    for path in PERFBENCH.rglob("*.py"):
        if "tests" in path.relative_to(PERFBENCH).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert imported, "perfbench imports nothing from the library?"
    missing = []
    for module, name in sorted(imported):
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:  # ``from repro.pkg import submodule``
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing, missing
