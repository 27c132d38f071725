"""HTTP serving smoke: start the server, hit it concurrently, verify.

The CI ``serve-smoke`` job runs this standalone: it trains the quick
NYC profile (scaled down), starts the full serving stack —
:class:`~repro.serve.InferenceServer` worker pool behind the
:class:`~repro.serve.HttpFrontend` on an ephemeral port — then issues
a handful of concurrent ``/predict`` and ``/recommend`` requests plus
``/healthz`` and ``/stats`` reads, asserting every response is a 200
with well-formed JSON.  It exercises exactly the path a deployment
would: real sockets, real concurrent connections, real micro-batches.

The run serves with 100% trace sampling, then scrapes ``/metrics``,
validates the scrape with the stdlib Prometheus parser (counters match
the request totals the JSON ``/stats`` reports), checks ``/debug/slow``
returns a populated span tree, and archives the raw scrape to
``benchmarks/results/OBS_sample.prom`` for the CI artifact.

The server is *stateful*, so the smoke also closes the prequential
quality loop over real HTTP: check a user's prefix in, serve a
history-less prediction, check in where the user actually went next,
and assert ``GET /quality`` reports the join, the quality series show
up in the final ``/metrics`` scrape, and the ``/quality`` JSON lands
in ``benchmarks/results/QUALITY_sample.json`` as a second artifact.

Last, the front-door latency gate (:mod:`http_latency`): one client
sending back-to-back keep-alive ``POST /predict`` requests must see a
p50 no more than 5 ms above ``InferenceServer.predict`` in-process.

Run standalone with
``PYTHONPATH=src python benchmarks/smoke_serve_http.py``.
"""

import json
import threading
import urllib.request
from pathlib import Path

from http_latency import keepalive_gate

from repro.experiments import get_profile, prepare, run_one
from repro.obs import parse_prometheus
from repro.serve import HttpFrontend, InferenceServer, ServerConfig
from repro.stream import StoreConfig, UserStateStore

CONCURRENT_CLIENTS = 8
REQUESTS_PER_CLIENT = 4
RESULTS_DIR = Path(__file__).parent / "results"


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _payload(sample):
    return {
        "user_id": sample.user_id,
        "prefix": [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in sample.prefix],
        "history": [
            [{"poi_id": v.poi_id, "timestamp": v.timestamp} for v in trajectory.visits]
            for trajectory in sample.history
        ],
        "k": 5,
    }


def main() -> None:
    profile = get_profile("quick").smaller(0.5)
    data = prepare("nyc", profile)
    _, model = run_one("TSPN-RA", data, profile)
    samples = data.splits.test[:CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT]

    config = ServerConfig(
        workers=2, max_batch_size=8, max_wait_ms=4.0, trace_sample=1.0
    )
    store = UserStateStore(StoreConfig())
    with InferenceServer(
        model, config=config, dataset=data.dataset, state_store=store
    ) as server:
        with HttpFrontend(server, port=0) as front:
            status, health = _get(front.url + "/healthz")
            assert status == 200 and health["status"] == "ok", health

            failures = []

            def client(index):
                try:
                    for j in range(REQUESTS_PER_CLIENT):
                        sample = samples[(index * REQUESTS_PER_CLIENT + j) % len(samples)]
                        payload = _payload(sample)
                        endpoint = "/predict" if j % 2 == 0 else "/recommend"
                        status, body = _post(front.url + endpoint, payload)
                        assert status == 200, (endpoint, status, body)
                        key = "top_pois" if endpoint == "/predict" else "recommendations"
                        assert isinstance(body[key], list) and len(body[key]) == 5, body
                        assert all(isinstance(p, int) for p in body[key]), body
                except Exception as error:  # surface per-client failures
                    failures.append((index, repr(error)))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(CONCURRENT_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures

            status, stats = _get(front.url + "/stats")
            assert status == 200, stats
            expected = CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT
            assert stats["requests"]["completed"] == expected, stats
            assert stats["requests"]["failed"] == 0, stats
            assert stats["batches"]["count"] >= 1, stats
            # /metrics: a valid Prometheus scrape that agrees with /stats
            with urllib.request.urlopen(front.url + "/metrics", timeout=30) as response:
                assert response.status == 200, response.status
                content_type = response.headers.get("Content-Type", "")
                assert content_type.startswith("text/plain"), content_type
                scrape = response.read().decode("utf-8")
            parsed = parse_prometheus(scrape)
            assert parsed[("serve_request_requests_total", ())] == expected, parsed
            assert parsed[("serve_request_failed_total", ())] == 0.0
            assert parsed[("serve_traces_sampled_total", ())] >= expected
            bucket_names = {name for name, _ in parsed if name.endswith("_bucket")}
            assert "serve_request_batch_latency_seconds_bucket" in bucket_names
            assert "scheduler_batch_size_bucket" in bucket_names

            # /debug/slow: fully-sampled serving must leave span trees
            status, slow = _get(front.url + "/debug/slow?n=3")
            assert status == 200 and slow["slow"], slow
            stage_names = set()

            def walk(node):
                stage_names.add(node["name"])
                for child in node.get("children", ()):
                    walk(child)

            for root in slow["slow"][0]["spans"]:
                walk(root)
            assert {"queue.wait", "infer.batch"} <= stage_names, stage_names

            # the prequential quality loop over real HTTP: prefix
            # check-ins, a history-less prediction, then the true next
            # POI — the delayed label that joins the served top-K
            demo, seen_users = [], set()
            for sample in data.splits.test:
                if sample.user_id in seen_users or len(sample.prefix) < 2:
                    continue
                seen_users.add(sample.user_id)
                demo.append(sample)
                if len(demo) == 6:
                    break
            assert demo, "smoke needs at least one multi-visit test user"
            for sample in demo:
                for visit in sample.prefix:
                    status, _ = _post(front.url + "/checkin", {
                        "user_id": sample.user_id,
                        "poi_id": visit.poi_id,
                        "timestamp": visit.timestamp,
                    })
                    assert status == 200, status
                status, body = _post(
                    front.url + "/predict", {"user_id": sample.user_id, "k": 5}
                )
                assert status == 200, body
                status, _ = _post(front.url + "/checkin", {
                    "user_id": sample.user_id,
                    "poi_id": sample.target.poi_id,
                    "timestamp": sample.target.timestamp,
                })
                assert status == 200, status

            status, quality = _get(front.url + "/quality")
            assert status == 200, quality
            assert quality["enabled"] is True, quality
            joins = sum(quality["joins"].values())
            assert joins >= len(demo), quality
            assert set(quality["strata"]) == {"0", "1", "2+", "all"}, quality
            assert quality["strata"]["all"]["window"]["joins"] >= len(demo), quality
            assert quality["drift"]["enabled"] is True, quality
            assert quality["store_strata"], quality

            # quality series must ride the same Prometheus exposition
            with urllib.request.urlopen(front.url + "/metrics", timeout=30) as response:
                final_scrape = response.read().decode("utf-8")
            final_parsed = parse_prometheus(final_scrape)
            quality_joins = sum(
                value for (name, _), value in final_parsed.items()
                if name == "repro_quality_joins_total"
            )
            assert quality_joins == joins, (quality_joins, joins)
            quality_series = {
                name for name, _ in final_parsed
                if name.startswith(("repro_quality_", "repro_drift_"))
            }
            for required in ("repro_quality_recall", "repro_quality_mrr",
                             "repro_quality_pending", "repro_drift_psi",
                             "repro_drift_alert"):
                assert required in quality_series, quality_series

            # front-door latency: one keep-alive client must see the
            # in-process predict latency plus at most SLACK_MS
            gate = keepalive_gate(front, [
                (_payload(sample), lambda sample=sample: server.predict(sample))
                for sample in samples
            ])
            assert gate["ok"], gate

            RESULTS_DIR.mkdir(exist_ok=True)
            artifact = RESULTS_DIR / "OBS_sample.prom"
            artifact.write_text(final_scrape)
            quality_artifact = RESULTS_DIR / "QUALITY_sample.json"
            quality_artifact.write_text(json.dumps(quality, indent=2) + "\n")
            print(
                f"smoke OK: {expected} concurrent HTTP requests, "
                f"{stats['batches']['count']} micro-batches "
                f"(mean size {stats['batches']['mean_size']:.1f}), "
                f"request p99 {stats['requests']['p99_ms']:.2f} ms"
            )
            print(
                f"metrics OK: {len(parsed)} series scraped, "
                f"{len(slow['slow'])} slow traces "
                f"({len(stage_names)} distinct stages) "
                f"[scrape archived to {artifact}]"
            )
            print(
                f"quality OK: {joins} prequential joins over HTTP, "
                f"recall@5 {quality['strata']['all']['recall']['5']:.3f} "
                f"({len(quality_series)} quality/drift series) "
                f"[report archived to {quality_artifact}]"
            )
            print(
                f"front door OK: keep-alive HTTP p50 {gate['http_p50_ms']:.2f} ms vs "
                f"in-process {gate['in_process_p50_ms']:.2f} ms "
                f"(gate: within {gate['slack_ms']:.0f} ms, {gate['requests']} requests)"
            )


if __name__ == "__main__":
    main()
