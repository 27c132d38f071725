"""The two serving workloads: ``http-predict`` and ``cluster-ingest-predict``.

Both start ``repro serve`` in its own process tree with the CLI's
default flags and drive it open-loop from this process over at most
``nproc`` keep-alive connections:

* a warm-up phase at the reference rate (reported, not scored);
* the reference phase, which gives ``p50_ms`` (and the reported tail);
* a rate ladder: rungs above the reference rate while they pass, below
  it while they fail; ``throughput_per_s`` is the highest rate met
  before the first failing rung.

Latencies run from each request's due time.  Plan traces and graph
builds that happen during the measured phases stay in the numbers:
users pay for them too.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import traceview as tv
from .env import WORK
from .metrics import Run
from .loadgen import Op, OpenLoop, PhaseReport
from .procs import ServerProcess, serve_args
from .stats import pick_max_rps, poisson_schedule, rung_verdict, summarize

LATENCY_LIMIT_MS = 100.0
SETUP_REPEATS = 3
RUNG_ARRIVALS = 40  # a rung scores a fixed number of arrivals
RUNG_ATTEMPTS = 2  # a failing rung is confirmed once (see _run_ladder)
TOP_K = 10


def phase_lengths(seconds: float) -> Tuple[float, float]:
    """(warm-up, reference) durations; the ladder gets the rest of the budget.

    The warm-up is long enough for the plan cache to reach its steady
    churn (more shape buckets than cached plans), so the reference
    phase measures steady-state traces rather than the cold fill.
    """
    return max(1.0, 0.2 * seconds), max(3.0, 0.6 * seconds)


def _run_dir() -> Path:
    path = WORK / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _start_servers(checkpoint: Path, run_dir: Path, cluster: bool, repeats: int,
                   spans_dir: Optional[Path] = None):
    """Start the server ``repeats`` times from cold; keep the last one up."""
    setups = []
    server = None
    for attempt in range(repeats):
        persist = run_dir / f"persist-{attempt}" if cluster else None
        server = ServerProcess(serve_args(checkpoint, persist),
                               spans_dir if attempt == repeats - 1 else None)
        setups.append(server.setup_s)
        if attempt < repeats - 1:
            server.stop()
    return server, setups


# ----------------------------------------------------------------------
# the load the two workloads offer
# ----------------------------------------------------------------------
class PredictTraffic:
    """``http-predict``: stateless bodies that ship prefix and history.

    Bodies are drawn with replacement, by seed, from every split's
    samples of the checkpoint's dataset, so prefix lengths span the
    plan buckets and histories come and go from the graph caches.
    """

    # Low enough that few requests reach a connection within the
    # client's delayed-ACK window of its previous answer, so the median
    # is the unstalled path whatever the host's speed; at 27/s about
    # two thirds stall and the median flips between ~9 and ~50 ms with
    # the host's speed.  The stall shows in the ladder instead.
    reference_rate = 9.0
    ladder = (3.0, 9.0, 27.0, 81.0, 243.0, 729.0)
    pinned = False

    def __init__(self, loaded, seed: int):
        from repro.data import make_samples

        self.samples = make_samples(loaded.dataset)
        self.seed = seed
        self._pick = random.Random(f"{seed}:bodies")
        self._bodies: Dict[int, bytes] = {}

    def body(self, index: int) -> bytes:
        if index not in self._bodies:
            sample = self.samples[index]

            def visits(vs):
                return [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in vs]

            self._bodies[index] = json.dumps({
                "user_id": sample.user_id,
                "prefix": visits(sample.prefix),
                "history": [visits(t.visits) for t in sample.history],
                "k": TOP_K,
            }).encode()
        return self._bodies[index]

    def ops(self, phase: str, rate: float, duration: float, count: Optional[int] = None) -> List[Op]:
        ops = []
        for n, due in enumerate(poisson_schedule(rate, duration, f"{self.seed}:{phase}", count)):
            index = self._pick.randrange(len(self.samples))
            ops.append(Op(due=due, path="/predict", body=self.body(index), request_id=f"{phase}-{n}",
                          tag=("predict", index)))
        return ops


class TapeTraffic:
    """``cluster-ingest-predict``: the time-ordered check-in tape, replayed.

    The seed picks most of the dataset's users (TAPE_USER_SHARE);
    their first TAPE_EVENTS check-ins, in dataset time order, are the
    tape.  Each event arrives at its Poisson time as a ``POST /checkin``.
    When the event continues a session, the client first asks for a
    prediction (history-less ``POST /predict``, timed from the
    arrival) and sends the check-in once it has the answer (timed from
    that answer), so every prediction sees exactly the state the
    prequential replay predicts from.  Each user is pinned to one
    connection, which keeps that order.
    """

    reference_rate = 10.0  # events/s (about 1.8 requests per event)
    ladder = (10 / 9, 10 / 3, 10.0, 30.0, 90.0, 270.0)
    pinned = True

    def __init__(self, loaded, seed: int):
        self.seed = seed
        self.events = tape_events(loaded.dataset, seed)
        self.continues = continuation_flags(self.events)
        self.cursor = 0
        self.predict_rids: List[str] = []  # one per continuing event, tape order

    def ops(self, phase: str, rate: float, duration: float, count: Optional[int] = None) -> List[Op]:
        from repro.stream.events import event_to_json

        ops: List[Op] = []
        for n, due in enumerate(poisson_schedule(rate, duration, f"{self.seed}:{phase}", count)):
            if self.cursor >= len(self.events):
                break
            event = self.events[self.cursor]
            user = event.user_id
            chained = self.continues[self.cursor]
            if chained:
                rid = f"{phase}-p{n}"
                self.predict_rids.append(rid)
                ops.append(Op(due=due, path="/predict",
                              body=json.dumps({"user_id": user, "k": TOP_K}).encode(),
                              lane=user, request_id=rid, tag=("predict", self.cursor)))
            ops.append(Op(due=due, path="/checkin", body=json.dumps(event_to_json(event)).encode(),
                          lane=user, request_id=f"{phase}-c{n}", tag=("checkin", self.cursor),
                          chained=chained))
            self.cursor += 1
        return ops


TAPE_USER_SHARE = 0.9
# Every seed's tape has this many events, so a replay pass does the
# same amount of work whichever users the seed chose; the quick NYC
# preset leaves at least 1594 events however the tenth left out falls.
TAPE_EVENTS = 1500


def tape_events(dataset, seed: int):
    """The first TAPE_EVENTS check-ins, in time order, of a seed-chosen
    TAPE_USER_SHARE of the users."""
    from repro.stream import events_from_checkins

    events = events_from_checkins(dataset.checkins)
    users = sorted({e.user_id for e in events})
    chosen = set(random.Random(f"{seed}:users").sample(users, round(TAPE_USER_SHARE * len(users))))
    return [e for e in events if e.user_id in chosen][:TAPE_EVENTS]


def continuation_flags(events) -> List[bool]:
    """Which events the prequential replay predicts (they continue a session)."""
    from repro.stream import StoreConfig, UserStateStore

    store = UserStateStore(StoreConfig())
    flags = []
    for event in events:
        snapshot = store.get_snapshot(event.user_id)
        flags.append(snapshot is not None and snapshot.continues_session(event))
        store.append(event)
    return flags


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _scored(phase: PhaseReport, kind: str) -> List[float]:
    return [o.latency_ms for o in phase.outcomes if o.ok and o.op.tag[0] == kind]


def _run_ladder(loop: OpenLoop, traffic) -> List[Dict]:
    """Rungs of RUNG_ARRIVALS arrivals each, starting at the reference rate:
    climb while they pass, descend while they fail.

    A rung that fails is run once more, and fails only if the repeat
    fails too: a rung near capacity lasts a second or two, and a
    hiccup of a shared host that long can lift its p75 past the limit.
    Rungs past capacity fail both times, with p75 several times the
    limit.
    """
    rates = list(traffic.ladder)
    position, step, rungs = rates.index(traffic.reference_rate), 0, []
    while 0 <= position < len(rates):
        rate = rates[position]
        reports = []
        for attempt in range(RUNG_ATTEMPTS):
            name = f"rung-{rate:.3g}" + (f"-{attempt + 1}" if attempt else "")
            phase = loop.run(name, rate, traffic.ops(name, rate, 0.0, count=RUNG_ARRIVALS))
            reports.append(phase)
            latencies = [o.latency_ms for o in phase.outcomes if o.ok]
            passed, why = rung_verdict(latencies, phase.failed, phase.backlog_end, LATENCY_LIMIT_MS)
            if passed:
                break
        rungs.append({"rate": rate, "passed": passed, "why": why, "attempts": len(reports),
                      "phase_reports": reports})
        step = step or (1 if passed else -1)
        if passed != (step == 1):
            break
        position += step
    return rungs


def _drive(server: ServerProcess, traffic, seconds: float, ladder: bool):
    warm_s, ref_s = phase_lengths(seconds)
    loop = OpenLoop(server.host, server.port, connections=os.cpu_count() or 1,
                    pinned=traffic.pinned)
    try:
        rate = traffic.reference_rate
        warm = loop.run("warmup", rate, traffic.ops("warmup", rate, warm_s))
        scrape_before = server.metrics_text()
        reference = loop.run("reference", rate, traffic.ops("reference", rate, ref_s))
        scrape_after = server.metrics_text()
        rungs = _run_ladder(loop, traffic) if ladder else []
    finally:
        loop.close()
    phases = [warm, reference] + [p for r in rungs for p in r.pop("phase_reports")]
    return phases, reference, rungs, (scrape_before, scrape_after)


def _program_counters(scrapes: Tuple[str, str]) -> Dict[str, float]:
    """The program's own counters over the reference phase (``/metrics`` diff)."""
    from repro.obs import diff_scrapes

    diff = diff_scrapes(*scrapes)
    wanted = ("plan_cache_traces", "plan_cache_hits", "plan_cache_misses",
              "ingest_rollovers", "ingest_events", "scheduler_batches",
              "scheduler_dispatched", "router_requests")
    out: Dict[str, float] = {}
    for row in diff.get("counters", []):
        name = row.get("name", "")
        base = name[:-len("_total")] if name.endswith("_total") else name
        if base in wanted:
            out[base] = out.get(base, 0.0) + row.get("delta", 0.0)
    return out


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _check_predict(run: Run, traffic: PredictTraffic, phases: Sequence[PhaseReport], loaded) -> None:
    """Served ranked lists against eager float64 ``predict_batch`` on the same bodies."""
    from repro.serve import Predictor
    from repro.serve.protocol import sample_from_json

    reference = Predictor(loaded.model, compile=False, graph_cache_size=None)
    num_pois = loaded.model.num_pois
    indices = sorted({o.op.tag[1] for p in phases for o in p.outcomes if o.ok})
    expected: Dict[int, List[int]] = {}
    for lo in range(0, len(indices), 64):
        chunk = indices[lo:lo + 64]
        samples = [sample_from_json(json.loads(traffic.body(i)), num_pois=num_pois) for i in chunk]
        for i, result in zip(chunk, reference.predict_batch(samples)):
            expected[i] = result.top_k(TOP_K)
    wrong = 0
    for phase in phases:
        for outcome in phase.outcomes:
            if outcome.ok and json.loads(outcome.payload)["top_pois"] != expected[outcome.op.tag[1]]:
                outcome.error = "ranked list differs from eager float64 predict_batch"
                wrong += 1
    run.check("ranked lists equal eager float64 predict_batch", wrong == 0,
              f"{wrong} of {len(indices)} distinct bodies wrong" if wrong else f"{len(indices)} distinct bodies")


def _check_tape(run: Run, traffic: TapeTraffic, phases: Sequence[PhaseReport], checkpoint: Path) -> None:
    """Cluster predictions against the in-process replay at the same tape position."""
    from repro.serve import Predictor
    from repro.stream import prequential_replay

    predictor = Predictor.from_checkpoint(checkpoint)
    replay = prequential_replay(predictor, traffic.events[:traffic.cursor], keep_results=True)
    expected = dict(zip(traffic.predict_rids, (r.result.top_k(TOP_K) for r in replay.records)))
    conflicts = wrong = 0
    for phase in phases:
        for outcome in phase.outcomes:
            kind = outcome.op.tag[0]
            if kind == "checkin" and outcome.status == 409:
                conflicts += 1
            if kind == "predict" and outcome.ok:
                if json.loads(outcome.payload)["top_pois"] != expected.get(outcome.op.request_id):
                    outcome.error = "ranked list differs from the replay reference"
                    wrong += 1
    run.check("cluster predictions equal replay-batch at the same tape position",
              wrong == 0 and len(replay.records) == len(traffic.predict_rids),
              f"{wrong} wrong of {len(traffic.predict_rids)}; replay made {len(replay.records)}")
    acks = [o for p in phases for o in p.outcomes if o.op.tag[0] == "checkin"]
    run.check("every check-in acked, no 409", all(o.ok for o in acks) and conflicts == 0,
              f"{sum(o.ok for o in acks)}/{len(acks)} acked, {conflicts} conflicts")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _e2e(run: Run, server: ServerProcess, setups, reference: PhaseReport, rungs, kind: str, rate: float,
         ref_s: float) -> None:
    scored = summarize(_scored(reference, kind), expected_n=rate * ref_s)
    run.metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": server.peak_rss_mb(),
        "p50_ms": scored["p50"],
        "throughput_per_s": pick_max_rps(rungs),
    })
    run.report[f"{kind}_latency"] = scored


def serving_workload(name: str, checkpoint: Path, seed: int, seconds: float, trace: bool) -> Run:
    from repro.serve import load_checkpoint

    cluster = name == "cluster-ingest-predict"
    loaded = load_checkpoint(checkpoint)
    make_traffic = (lambda: TapeTraffic(loaded, seed)) if cluster else (lambda: PredictTraffic(loaded, seed))
    kind = "checkin" if cluster else "predict"
    run_dir = _run_dir()
    run = Run(metrics={})
    try:
        if trace:
            _traced(run, checkpoint, loaded, make_traffic, kind, seconds, run_dir, cluster)
        else:
            traffic = make_traffic()
            server, setups = _start_servers(checkpoint, run_dir, cluster, SETUP_REPEATS)
            try:
                phases, reference, rungs, _ = _drive(server, traffic, seconds, ladder=True)
                _e2e(run, server, setups, reference, rungs, kind, traffic.reference_rate,
                     phase_lengths(seconds)[1])
            finally:
                server.stop()
            _finish(run, traffic, phases, loaded, checkpoint, cluster)
            run.report["setups_s"] = setups
            run.report["rungs"] = rungs
            if cluster:
                run.report["predict_latency"] = summarize(_scored(reference, "predict"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return run


def _finish(run: Run, traffic, phases, loaded, checkpoint, cluster: bool) -> None:
    if cluster:
        _check_tape(run, traffic, phases, checkpoint)
    else:
        _check_predict(run, traffic, phases, loaded)
    run.attempted = sum(p.sent for p in phases)
    run.failed = sum(p.failed for p in phases)
    run.report["phases"] = [p.summary() for p in phases]


def _traced(run: Run, checkpoint, loaded, make_traffic, kind, seconds, run_dir, cluster) -> None:
    """Untraced pass, then the same traffic against an instrumented server."""
    from .spans import load_spans

    plain_traffic = make_traffic()
    server, _ = _start_servers(checkpoint, run_dir / "plain", cluster, 1)
    try:
        plain_phases, plain_ref, _, _ = _drive(server, plain_traffic, seconds, ladder=False)
    finally:
        server.stop()
    _finish(run, plain_traffic, plain_phases, loaded, checkpoint, cluster)
    run.checks = [(f"{name} (untraced pass)", passed, detail) for name, passed, detail in run.checks]
    attempted, failed = run.attempted, run.failed

    traffic = make_traffic()
    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    server, _ = _start_servers(checkpoint, run_dir / "traced", cluster, 1, spans_dir=spans_dir)
    try:
        phases, reference, _, scrapes = _drive(server, traffic, seconds, ladder=False)
    finally:
        code = server.stop()
    _finish(run, traffic, phases, loaded, checkpoint, cluster)
    run.attempted += attempted
    run.failed += failed
    run.check("traced server exited cleanly", code == 0, f"exit code {code}")

    dumped = load_spans(spans_dir)
    spans = dumped["spans"] + tv.client_spans([reference])
    tv.link_processes(spans)
    roots = [s for s in spans if s["name"] == "client.request"]
    trees = tv.request_trees(spans, dumped["batches"], roots)
    table = tv.layer_table(trees)
    reached = tv.reachable(trees, spans)
    calls = tv.per_call(reached)
    traced_p50 = summarize(_scored(reference, kind))["p50"]
    plain_p50 = summarize(_scored(plain_ref, kind))["p50"]
    inner = ("router.call",) if cluster else ("server.inference",)
    served = [o for o in reference.outcomes if o.ok]
    batch_sizes = [len(dumped["batches"][b]) for b in {s["batch"] for s in reached} if b in dumped["batches"]]
    run.metrics.update(tv.layer_metrics(calls, table, {
        "http.overhead_ms": statistics.median(tv.overhead_ms(trees, inner) or [0.0]),
        "http.bytes_in": statistics.mean(o.bytes_in for o in served) if served else 0.0,
        "http.bytes_out": statistics.mean(o.bytes_out for o in served) if served else 0.0,
        "scheduler.batch_size_mean": statistics.mean(batch_sizes) if batch_sizes else 0.0,
        "loadgen.send_lag_p99_ms": reference.summary()["send_lag_p99_ms"],
        "loadgen.backlog_max": float(reference.backlog_max),
        "trace.overhead_ms": traced_p50 - plain_p50,
    }))
    # the program's own counters, where it exports them
    counters = _program_counters(scrapes)
    hits = counters.get("plan_cache_hits", 0.0)
    run.metrics["plans.traces"] = counters.get("plan_cache_traces", 0.0)
    run.metrics["plans.hit_ratio"] = tv.ratio(hits, hits + counters.get("plan_cache_misses", 0.0))
    if cluster:
        run.metrics["ingest.rollovers"] = counters.get("ingest_rollovers", 0.0)
    run.check("per-layer self times reconcile with the traced end-to-end time",
              abs(table["reconcile_ratio"] - 1.0) <= 0.02, f"ratio {table['reconcile_ratio']:.4f}")
    run.report.update({
        "layer_table": table,
        "per_call": calls,
        "program_counters": counters,
        "traced_p50_ms": traced_p50,
        "untraced_p50_ms": plain_p50,
        "in_server_ms": statistics.median(
            [(s["end"] - s["start"]) * 1e3 for s in reached if s["name"] in inner] or [0.0]),
    })
