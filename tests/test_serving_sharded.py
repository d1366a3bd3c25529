"""Tests for the sharded prediction front (consistent-hash request fan-out)."""

import threading

import numpy as np
import pytest
from oracle import CountingPredictor

from repro.api import CachePolicy, PredictionRequest, Predictor
from repro.core.workload import make_workloads
from repro.exceptions import DeadlineExceededError, InvalidParameterError, ServingError
from repro.integration.predictors import ConstantMemoryPredictor
from repro.registry import ShardedModelRegistry
from repro.serving import (
    LoadGenerator,
    ServerConfig,
    ShardedPredictionServer,
)


@pytest.fixture(scope="module")
def workload_pool(tpcds_small):
    return make_workloads(tpcds_small.test_records, 10, seed=3)


def _replicated_registry(model, n_shards=3) -> ShardedModelRegistry:
    registry = ShardedModelRegistry(n_shards=n_shards)
    registry.register_replicated("default", model)
    return registry


class TestConstructionAndRouting:
    def test_requires_sharded_registry_and_known_model(self):
        with pytest.raises(InvalidParameterError, match="ShardedModelRegistry"):
            ShardedPredictionServer(object())  # type: ignore[arg-type]
        with pytest.raises(ServingError, match="unknown model"):
            ShardedPredictionServer(ShardedModelRegistry(n_shards=2))

    def test_replicated_model_gets_a_server_per_shard(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        with ShardedPredictionServer(registry) as server:
            assert set(server.shard_servers) == set(registry.shard_ids())

    def test_shard_routed_model_gets_exactly_one_server(self, workload_pool):
        registry = ShardedModelRegistry(n_shards=3)
        registry.register("solo", ConstantMemoryPredictor(3.0))
        with ShardedPredictionServer(registry, model_name="solo") as server:
            assert set(server.shard_servers) == {registry.route("solo")}
            assert server.predict_workload(workload_pool[0]) == 3.0

    def test_request_routing_is_deterministic_and_spreads(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        with ShardedPredictionServer(registry) as server:
            routes = [server.route_request(w) for w in workload_pool[:30]]
            again = [server.route_request(w) for w in workload_pool[:30]]
        assert routes == again
        assert len(set(routes)) > 1  # fan-out actually happens

    def test_satisfies_the_predictor_protocol(self):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        with ShardedPredictionServer(registry) as server:
            assert isinstance(server, Predictor)


class TestPredictions:
    def test_matches_direct_model(self, tpcds_small, workload_pool):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:300])
        expected = model.predict(workload_pool[:12])
        registry = _replicated_registry(model, n_shards=2)
        with ShardedPredictionServer(registry) as server:
            served = server.predict(workload_pool[:12])
        np.testing.assert_allclose(served, expected, rtol=1e-9)

    def test_typed_batch_carries_provenance(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(9.0))
        with ShardedPredictionServer(registry) as server:
            requests = [PredictionRequest.of(w) for w in workload_pool[:6]]
            results = server.predict_batch(requests)
            repeat = server.predict(PredictionRequest.of(workload_pool[0]))
        assert [r.memory_mb for r in results] == [9.0] * 6
        assert all(r.model_name == "default" and r.model_version == 1 for r in results)
        assert repeat.cache_hit is True  # repeats land on the shard that cached them

    def test_repeats_stay_cache_local(self, workload_pool):
        """The signature ring sends a repeated workload to the same shard."""
        registry = _replicated_registry(ConstantMemoryPredictor(2.0))
        with ShardedPredictionServer(registry) as server:
            for _ in range(3):
                for workload in workload_pool[:9]:
                    server.predict_workload(workload)
            stats = server.cache_stats()
        # 27 requests over 9 distinct workloads: everything after the first
        # pass is a hit on exactly one shard's cache.
        assert stats.hits == 18
        assert stats.misses == 9

    def test_predict_stream_preserves_order(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(5.0))
        with ShardedPredictionServer(registry) as server:
            results = list(server.predict_stream(workload_pool[:12]))
        assert results == [5.0] * 12

    def test_hot_swap_reaches_every_shard(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(10.0))
        with ShardedPredictionServer(registry) as server:
            for workload in workload_pool[:6]:
                assert server.predict_workload(workload) == 10.0
            registry.register("default", ConstantMemoryPredictor(99.0), promote=True)
            for workload in workload_pool[:6]:
                assert server.predict_workload(workload) == 99.0

    def test_submit_after_close_raises(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        server = ShardedPredictionServer(registry)
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServingError):
            server.submit(workload_pool[0])


class TestAggregatedIntrospection:
    def test_snapshot_holds_the_whole_fleets_requests(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        with ShardedPredictionServer(registry) as server:
            server.predict(workload_pool[:15])
            report = server.snapshot()
        assert report.n_requests == 15
        assert report.latency_p50_ms <= report.latency_p99_ms

    def test_cache_and_batcher_stats_are_summed(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        config = ServerConfig(max_batch_size=16, max_wait_s=0.02)
        with ShardedPredictionServer(registry, config=config) as server:
            futures = [server.submit(w) for w in workload_pool[:15]]
            for future in futures:
                future.result(timeout=5.0)
            cache = server.cache_stats()
            batcher = server.batcher_stats()
            per_shard_requests = [
                s.batcher_stats().requests for s in server.shard_servers.values()
            ]
        assert cache.misses == 15
        assert batcher.requests == sum(per_shard_requests) == 15

    def test_stats_none_when_layers_disabled(self, workload_pool):
        registry = _replicated_registry(ConstantMemoryPredictor(1.0))
        config = ServerConfig(enable_cache=False, enable_batching=False)
        with ShardedPredictionServer(registry, config=config) as server:
            server.predict_workload(workload_pool[0])
            assert server.cache_stats() is None
            assert server.batcher_stats() is None

    def test_feature_cache_stats_come_from_the_shared_model(self, tpcds_small, workload_pool):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:300])
        registry = _replicated_registry(model, n_shards=2)
        with ShardedPredictionServer(registry) as server:
            server.predict(workload_pool[:8])
            stats = server.feature_cache_stats()
            report = server.snapshot()
        assert stats is not None and stats.requests > 0
        assert report.feature_cache_hits == stats.hits

    def test_load_generator_drives_the_sharded_front(self, workload_pool):
        from repro.workloads.replay import replay_requests_from_workloads

        requests = replay_requests_from_workloads(workload_pool, 60, repeat_fraction=0.6, seed=1)
        registry = _replicated_registry(ConstantMemoryPredictor(8.0))
        with ShardedPredictionServer(registry) as server:
            report = LoadGenerator(server, requests, qps=600.0, benchmark="tpcds").run()
        assert report.n_requests == 60
        assert report.n_errors == 0


class TestDeadlines:
    def test_expired_requests_shed_and_counted_fleet_wide(self, workload_pool):
        predictor = CountingPredictor()
        registry = _replicated_registry(predictor)
        with ShardedPredictionServer(registry) as server:
            live = [
                server.submit_request(PredictionRequest.of(w, deadline_s=30.0))
                for w in workload_pool[:6]
            ]
            doomed = [
                server.submit_request(
                    PredictionRequest.of(w, deadline_s=1e-9, cache_policy=CachePolicy.BYPASS)
                )
                for w in workload_pool[6:12]
            ]
            for future in live:
                assert future.result(timeout=5.0).memory_mb == predictor.value
            for future in doomed:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=5.0)
            report = server.snapshot()
        # Misses land in the one shared accumulator, so the fleet snapshot
        # counts them exactly, across all shard servers.
        assert report.shed_requests == 6
        assert report.deadline_misses == 6
        assert report.n_errors == 0

    def test_predict_batch_deadline_clock_starts_at_submission(self, workload_pool):
        import time as _time

        class SlowShardPredictor:
            value = 4.0

            def predict_workload(self, queries):
                _time.sleep(0.25)
                return self.value

            def predict(self, workloads):
                _time.sleep(0.25)
                return np.full(len(workloads), self.value)

        registry = _replicated_registry(SlowShardPredictor(), n_shards=2)
        config = ServerConfig(max_batch_size=1, max_wait_s=0.0, enable_cache=False)
        with ShardedPredictionServer(registry, config=config) as server:
            # Pick workloads routed to the SAME shard so their batches
            # serialize behind one model worker.
            target = server.route_request(workload_pool[0])
            same_shard = [
                w for w in workload_pool if server.route_request(w) == target
            ][:3]
            if len(same_shard) < 3:  # pragma: no cover - pool is large enough
                pytest.skip("not enough workloads routed to one shard")
            requests = [PredictionRequest.of(w, deadline_s=0.4) for w in same_shard]
            with pytest.raises(DeadlineExceededError):
                server.predict_batch(requests)

    def test_merged_batcher_stats_sum_shed_requests(self):
        from repro.serving.kernel import BatcherStats
        from repro.serving.sharded import _merge_batcher_stats

        merged = _merge_batcher_stats(
            [
                BatcherStats(10, 4, 1, 3, 0, 4, shed_requests=2),
                BatcherStats(7, 2, 0, 2, 0, 5, shed_requests=3),
            ]
        )
        assert merged.shed_requests == 5
        assert merged.requests == 17
        # Executed mean excludes the shed requests.
        assert merged.mean_batch_size == pytest.approx((17 - 5) / 6)
