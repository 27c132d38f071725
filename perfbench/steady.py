"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload http-predict --seeds 10 [--seconds 15]

Each run is ``perfbench/run.py`` with ``--trace 0`` and its own seed.
For every end-to-end metric the tool prints the median over the runs
and the spread (inter-quartile distance over the median, by
``statistics.quantiles(values, n=4)``) next to the metric's bound from
``BENCHMARK.json``; a spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frontdoor.stats import spread  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000, dest="first_seed")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or manifest["run_seconds"]
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    worst = 0
    for metric in manifest["end_to_end"]:
        series = values[metric["name"]]
        s = spread(series)
        flag = "" if s <= metric["bound"] / 3 else ("  > bound/3" if s <= metric["bound"] else "  > BOUND")
        worst = max(worst, 2 if flag == "  > BOUND" else (1 if flag else 0))
        print(f"{metric['name']:<18} median {statistics.median(series):10.4g} {metric['unit']:<5} "
              f"spread {s:.4f}  bound {metric['bound']}{flag}")
    return 0 if worst < 2 else 1


if __name__ == "__main__":
    sys.exit(main())
