"""The front-door benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` runs the workload once untraced and once
with spans around every layer, and reports the per-layer metrics, the
self-time table and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run is
appended to ``perfbench/results/history.jsonl`` with a host
fingerprint.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frontdoor import env  # noqa: E402
from frontdoor.metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("http-predict", "cluster-ingest-predict", "replay-batch", "train-epoch")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, digest: str):
    sys.path.insert(0, str(env.SRC))
    if args.workload == "train-epoch":
        from frontdoor.inprocess import train_workload

        return train_workload(args.seed, args.seconds, bool(args.trace))
    checkpoint = env.checkpoint(digest)
    if args.workload == "replay-batch":
        from frontdoor.inprocess import replay_workload

        return replay_workload(checkpoint, args.seed, args.seconds, bool(args.trace))
    from frontdoor.serving import serving_workload

    return serving_workload(args.workload, checkpoint, args.seed, args.seconds, bool(args.trace))


def _print_report(args, run) -> None:
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for phase in run.report.get("phases", []):
        print("  phase {phase:<12} rate {rate:>6g}/s  sent {sent:>5}  ok {succeeded:>5}  "
              "failed {failed:>3}  send-lag p99 {send_lag_p99_ms:7.2f} ms  "
              "backlog max {backlog_max:>3} end {backlog_end:>3}".format(**phase))
    for rung in run.report.get("rungs", []):
        print(f"  rung {rung['rate']:>6g}/s  {'pass' if rung['passed'] else 'FAIL'}  {rung['why']}")
    for key in ("predict_latency", "checkin_latency", "unit_latency", "flush_latency"):
        if key in run.report:
            s = run.report[key]
            print(f"  {key:<16} n={s['n']}  p50 {s['p50']:.3f} ms  "
                  f"p{s['tail_p']} {s['tail']:.3f} ms" if s["n"] else f"  {key:<16} n=0")
    table = run.report.get("layer_table")
    if table:
        print(f"  self time per request ({table['requests']} requests, "
              f"end-to-end {table['end_to_end_ms']:.3f} ms, reconciled {table['reconcile_ratio']:.4f}):")
        for name, ms in table["per_request_ms"].items():
            print(f"    {name:<24} {ms:10.3f} ms  {100 * table['share'].get(name, 0.0):6.2f}%")
        print(f"  tracing overhead (traced - untraced p50): "
              f"{run.report['traced_p50_ms'] - run.report['untraced_p50_ms']:.3f} ms")
    for name, passed, detail in run.checks:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    failed_ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  attempted {run.attempted}  failed {run.failed}  failed_ratio {failed_ratio:.6f}")


def main(argv=None) -> int:
    args = _parse(argv)
    # before anything loads numpy; children inherit it
    os.environ.update(env.BLAS_THREADS)
    if not env.program_present():
        print(f"perfbench: the program's source is missing ({env.SRC}); nothing to measure",
              file=sys.stderr)
        return 2
    digest = env.source_digest()
    try:
        run = _run(args, digest)
    except env.SetupError as error:
        print(f"perfbench: set-up failed: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    catalogue = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in catalogue if run.metrics.get(name) is None]
    if missing:
        run.check("every metric measured", False, f"missing {missing}")
    correct = run.correct
    metrics = {name: {"value": float(run.metrics.get(name) or 0.0), "unit": spec[0]}
               for name, spec in catalogue.items()}
    _print_report(args, run)
    env.append_history({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": env.host_fingerprint(digest, args.seed),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "checks": run.checks,
        "report": run.report,
    })
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
