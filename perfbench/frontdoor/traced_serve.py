"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/frontdoor/traced_serve.py <serve args...>``
with ``FRONTDOOR_SPANS`` naming the directory that receives one
``spans-<pid>.json`` per process at exit.  The arguments go to
``repro.cli.main(["serve", ...])`` unchanged, so the server starts
exactly as ``python -m repro serve`` would.

Shard workers are started with the ``spawn`` method, which re-runs
this file as ``__mp_main__`` in every child before unpickling the
worker target; the block below therefore instruments the shard
processes too, and each writes its own spans when it exits.
"""

import atexit
import os
import sys
from pathlib import Path

if __name__ in ("__main__", "__mp_main__"):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from frontdoor.spans import Recorder, instrument_serving

    _recorder = Recorder()
    instrument_serving(_recorder)
    _out = Path(os.environ["FRONTDOOR_SPANS"])
    atexit.register(lambda: _recorder.dump(_out / f"spans-{os.getpid()}.json"))

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
