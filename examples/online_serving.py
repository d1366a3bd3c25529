"""Online serving: registry, micro-batched server, cache, load test, hot swap.

Walks the full lifecycle of serving LearnedWMP predictions online:

1. train two model versions (a quick ridge model and a stronger XGBoost one),
2. register both in a :class:`~repro.registry.ModelRegistry`,
3. serve version 1 through a :class:`~repro.serving.server.PredictionServer`
   (micro-batching + LRU/TTL prediction cache + request coalescing),
4. load-test it with skewed replay traffic at a target request rate,
5. hot-swap to version 2 (and roll back) without restarting the server,
6. await the same server from an asyncio event loop
   (``predict_batch_async``).

Run with:  PYTHONPATH=src python examples/online_serving.py
"""

from __future__ import annotations

import asyncio

from repro import (
    LearnedWMP,
    LoadGenerator,
    ModelRegistry,
    PredictionRequest,
    PredictionServer,
    ServerConfig,
    generate_dataset,
    make_workloads,
)
from repro.workloads.replay import replay_requests_from_workloads

BENCHMARK = "tpcds"
N_QUERIES = 1_500
BATCH_SIZE = 10
N_REQUESTS = 300
TARGET_QPS = 250.0
SEED = 7


def main() -> None:
    print(f"Generating and executing {N_QUERIES} {BENCHMARK.upper()} queries ...")
    dataset = generate_dataset(BENCHMARK, N_QUERIES, seed=SEED)

    print("\nTraining two model versions ...")
    v1 = LearnedWMP(regressor="ridge", n_templates=24, batch_size=BATCH_SIZE, random_state=SEED)
    v1.fit(dataset.train_records)
    v2 = LearnedWMP(
        regressor="xgb", n_templates=24, batch_size=BATCH_SIZE, random_state=SEED, fast=True
    )
    v2.fit(dataset.train_records)

    registry = ModelRegistry()
    registry.register("tpcds", v1)  # version 1 auto-promoted
    registry.register("tpcds", v2)  # version 2 registered, still passive
    print(f"  registry: {registry.describe()['tpcds']['active_version']=}")

    config = ServerConfig(max_batch_size=32, cache_entries=1024)
    requests = replay_requests_from_workloads(
        make_workloads(dataset.all_records, BATCH_SIZE, seed=SEED),
        N_REQUESTS,
        repeat_fraction=0.7,
        seed=SEED,
    )

    with PredictionServer(registry, model_name="tpcds", config=config) as server:
        print(f"\nLoad-testing version 1 at {TARGET_QPS:.0f} req/s ...")
        report = LoadGenerator(server, requests, qps=TARGET_QPS, benchmark=BENCHMARK).run()
        print(report.render())

        # The typed API: a frozen PredictionRequest in, a PredictionResult
        # out, carrying the answering model's name+version and provenance.
        sample = make_workloads(dataset.test_records, BATCH_SIZE, seed=1)[0]
        before = server.predict(PredictionRequest.of(sample, request_id="swap-demo"))
        print(
            f"\n  typed result: {before.memory_mb:8.1f} MB "
            f"from {before.model_name} v{before.model_version} "
            f"(request {before.request_id}, cache_hit={before.cache_hit})"
        )

        print("\nHot-swapping to version 2 (no restart) ...")
        registry.promote("tpcds", 2)
        after = server.predict(PredictionRequest.of(sample))
        print(
            f"  same workload, v{before.model_version} -> v{after.model_version} : "
            f"{before.memory_mb:8.1f} MB -> {after.memory_mb:8.1f} MB"
        )

        print("Rolling back to version 1 ...")
        registry.rollback("tpcds")
        restored = server.predict(PredictionRequest.of(sample))
        print(
            f"  after rollback          : {restored.memory_mb:8.1f} MB "
            f"(v{restored.model_version})"
        )
        assert restored.model_version == 1

        print("\nFinal serving telemetry:")
        print(server.snapshot().render())

        feature_stats = server.feature_cache_stats()
        if feature_stats is not None:
            print(
                f"\nPlan-feature cache (v1 model): {feature_stats.hits} hits, "
                f"{feature_stats.misses} misses "
                f"({100.0 * feature_stats.hit_rate:.1f} % of rows served "
                f"without re-walking the plan)"
            )

    print("\nThe same server, awaited from an asyncio event loop ...")
    with PredictionServer(v1, config=config) as server:

        async def ask_all():
            # All requests are in flight before the first await, so the
            # server's micro-batcher still forms real batches.
            typed = [PredictionRequest.of(w) for w in requests[:32]]
            return await server.predict_batch_async(typed)

        answers = asyncio.run(ask_all())
        stats = server.batcher_stats()
        print(
            f"  predict_batch_async : {len(answers)} answers, "
            f"mean batch {stats.mean_batch_size:.1f}, "
            f"first {answers[0].memory_mb:.1f} MB"
        )


if __name__ == "__main__":
    main()
