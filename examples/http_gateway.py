"""HTTP gateway walkthrough: serve over the wire, promote over admin routes.

Walks the network front end to end, inside one process for reproducibility:

1. train two model versions and register both,
2. stand up an :class:`~repro.serving.http.gateway.HttpGateway` over an
   in-process prediction server (ephemeral port),
3. drive it with a :class:`~repro.serving.http.client.GatewayClient` — the
   same ``Predictor`` protocol as in-process, now over HTTP/1.1 JSON —
   and check the answers are bit-identical to the in-process path,
4. replay load through the gateway with the stock ``LoadGenerator``
   (identical open-loop semantics, latencies now include the wire),
5. hot-swap to version 2 and roll back through ``/v1/admin`` routes,
6. scrape ``/v1/telemetry`` — backend report + gateway transport counters.

Run with:  PYTHONPATH=src python examples/http_gateway.py
"""

from __future__ import annotations

from repro import (
    GatewayClient,
    GatewayConfig,
    HttpGateway,
    LearnedWMP,
    LoadGenerator,
    ModelRegistry,
    PredictionRequest,
    PredictionServer,
    generate_dataset,
    make_workloads,
)
from repro.api import CachePolicy
from repro.exceptions import DeadlineExceededError
from repro.workloads.replay import replay_requests_from_workloads

BENCHMARK = "tpcds"
N_QUERIES = 1_000
BATCH_SIZE = 10
N_REQUESTS = 200
TARGET_QPS = 200.0
SEED = 7


def main() -> None:
    print(f"Generating and executing {N_QUERIES} {BENCHMARK.upper()} queries ...")
    dataset = generate_dataset(BENCHMARK, N_QUERIES, seed=SEED)
    workloads = make_workloads(dataset.test_records, BATCH_SIZE, seed=SEED)

    print("\nTraining two model versions ...")
    v1 = LearnedWMP(
        regressor="ridge", n_templates=24, batch_size=BATCH_SIZE, random_state=SEED
    )
    v1.fit(dataset.train_records)
    v2 = LearnedWMP(
        regressor="xgb", n_templates=24, batch_size=BATCH_SIZE, random_state=SEED, fast=True
    )
    v2.fit(dataset.train_records)

    registry = ModelRegistry()
    registry.register("default", v1)  # version 1, auto-promoted
    registry.register("default", v2)  # version 2, passive until promoted

    with PredictionServer(registry, model_name="default") as server:
        with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
            print(f"\nGateway listening on {gateway.url}")
            with GatewayClient(gateway.url) as client:
                health = client.healthz()
                print(f"  /healthz: {health}")

                # -- one typed request over the wire --------------------------
                request = PredictionRequest.of(workloads[0], request_id="ex-1")
                over_wire = client.predict(request)
                in_process = server.predict(
                    PredictionRequest.of(workloads[0], request_id="ex-1")
                )
                print(
                    f"  prediction: {over_wire.memory_mb:.2f} MB from "
                    f"{over_wire.model_name} v{over_wire.model_version} "
                    f"(cache_hit={over_wire.cache_hit})"
                )
                assert over_wire.memory_mb == in_process.memory_mb  # bit-identical
                print("  parity: over-wire answer is bit-identical to in-process")

                # -- deadline propagation ------------------------------------
                try:
                    client.predict(
                        PredictionRequest.of(
                            workloads[1], deadline_s=1e-9, cache_policy=CachePolicy.BYPASS
                        )
                    )
                except DeadlineExceededError:
                    print("  deadline: expired request shed at the gateway with 504")

                # -- open-loop load over HTTP --------------------------------
                print(f"\nReplaying {N_REQUESTS} requests at {TARGET_QPS:.0f} req/s over HTTP ...")
                replay = replay_requests_from_workloads(
                    workloads, n_requests=N_REQUESTS, repeat_fraction=0.7, seed=SEED
                )
                report = LoadGenerator(
                    client, replay, qps=TARGET_QPS, benchmark=BENCHMARK, deadline_s=0.5
                ).run()
                print(report.render())

                # -- hot swap over the admin routes --------------------------
                print("\nPromoting v2 over POST /v1/admin/promote ...")
                client.promote("default", 2)
                swapped = client.predict(
                    PredictionRequest.of(workloads[2], cache_policy=CachePolicy.BYPASS)
                )
                print(f"  now answering from v{swapped.model_version}")
                client.rollback("default")
                print("  rolled back to v1")
                lineage = client.lineage("default")
                print(f"  lineage: {[(e['version'], e['active']) for e in lineage]}")

                # -- the full scrape -----------------------------------------
                scrape = client.telemetry()
                gateway_stats = scrape["gateway"]
                print("\n/v1/telemetry scrape:")
                print(f"  backend requests    : {scrape['n_requests']}")
                print(f"  deadline misses     : {scrape['deadline_misses']}")
                print(f"  shed requests       : {scrape['shed_requests']}")
                print(f"  http requests       : {gateway_stats['http_requests']}")
                print(f"  http connections    : {gateway_stats['connections']}")
                print(f"  last request id     : {gateway_stats['last_request_id']}")
                print(f"  responses by status : {gateway_stats['responses_by_status']}")

    print("\nDone: gateway and server closed cleanly.")


if __name__ == "__main__":
    main()
