"""Tests for the prediction server, load generator and telemetry."""

import threading
import time

import numpy as np
import pytest
from oracle import CountingPredictor, GatedLookupPredictor, make_lookup_pool

from repro.api import CachePolicy, PredictionRequest
from repro.core.workload import Workload
from repro.exceptions import DeadlineExceededError, InvalidParameterError, ServingError
from repro.integration.admission import AdmissionController
from repro.integration.predictors import ConstantMemoryPredictor
from repro.integration.scheduler import RoundScheduler
from repro.serving import (
    LoadGenerator,
    ModelRegistry,
    PredictionServer,
    ServerConfig,
    ServingTelemetry,
)


@pytest.fixture(scope="module")
def workload_pool(tpcds_small):
    from repro.core.workload import make_workloads

    return make_workloads(tpcds_small.test_records, 10, seed=3)


class TestPredict:
    def test_single_prediction(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(48.0)) as server:
            assert server.predict_workload(workload_pool[0]) == 48.0

    def test_accepts_plain_record_sequence(self, tpcds_small):
        with PredictionServer(ConstantMemoryPredictor(48.0)) as server:
            assert server.predict_workload(tpcds_small.test_records[:5]) == 48.0

    def test_batch_prediction_matches_model(self, tpcds_small, workload_pool):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:300])
        expected = model.predict(workload_pool[:8])
        with PredictionServer(model) as server:
            served = server.predict(workload_pool[:8])
        # Bit for bit: a served answer must not depend on its micro-batch.
        assert np.array_equal(served, expected)

    def test_predict_stream_preserves_order(self, workload_pool):
        predictor = CountingPredictor()
        with PredictionServer(predictor) as server:
            results = list(server.predict_stream(workload_pool[:12]))
        assert results == [predictor.value] * 12

    def test_submit_after_close_raises(self, workload_pool):
        server = PredictionServer(ConstantMemoryPredictor(1.0))
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServingError):
            server.submit(workload_pool[0])
        with pytest.raises(ServingError):
            server.submit_request(PredictionRequest.of(workload_pool[0]))

    def test_close_drains_pending_requests(self, workload_pool):
        predictor = CountingPredictor()
        model = GatedLookupPredictor(predictor)
        server = PredictionServer(model, config=ServerConfig(max_batch_size=100))
        blocker = server.submit(workload_pool[5])
        assert model.started.wait(5.0)
        # The blocker holds the model slot, so only close() can cut these.
        futures = [server.submit(w) for w in workload_pool[:5]]
        close_kernel = server._kernel.close

        def close_then_release(now):
            actions = close_kernel(now)
            model.release.set()
            return actions

        server._kernel.close = close_then_release
        server.close()
        assert blocker.result(timeout=1.0) == predictor.value
        assert [f.result(timeout=1.0) for f in futures] == [predictor.value] * 5
        assert server.batcher_stats().close_flushes == 1

    def test_failing_model_fails_every_request_in_the_batch(self, workload_pool):
        class FailingPredictor:
            def predict_workload(self, queries):
                raise RuntimeError("model fell over")

            def predict(self, workloads):
                raise RuntimeError("model fell over")

        model = GatedLookupPredictor(FailingPredictor())
        config = ServerConfig(enable_cache=False, max_batch_size=4)
        with PredictionServer(model, config=config) as server:
            blocker = server.submit(workload_pool[4])
            assert model.started.wait(5.0)
            futures = [server.submit(w) for w in workload_pool[:4]]  # one size flush
            model.release.set()
            for future in [blocker, *futures]:
                with pytest.raises(RuntimeError, match="model fell over"):
                    future.result(timeout=5.0)
            stats = server.batcher_stats()
            assert (stats.batches, stats.size_flushes) == (2, 1)
            assert server.snapshot().n_errors == 5


class TestCachingAndCoalescing:
    def test_repeated_workload_hits_cache(self, workload_pool):
        predictor = CountingPredictor()
        with PredictionServer(predictor) as server:
            server.predict_workload(workload_pool[0])
            first_calls = predictor.calls
            for _ in range(5):
                server.predict_workload(workload_pool[0])
            assert predictor.calls == first_calls
            stats = server.cache_stats()
        assert stats.hits == 5

    def test_burst_of_identical_requests_coalesces(self, workload_pool):
        predictor = CountingPredictor()
        model = GatedLookupPredictor(predictor)
        config = ServerConfig(max_batch_size=64)
        with PredictionServer(model, config=config) as server:
            blocker = server.submit(workload_pool[1])
            assert model.started.wait(5.0)
            futures = [server.submit(workload_pool[0]) for _ in range(20)]
            model.release.set()
            results = [f.result(timeout=5.0) for f in [blocker, *futures]]
            assert results == [predictor.value] * 21
            # One unique signature -> one model call on top of the blocker's.
            assert predictor.batch_sizes == [1, 1]
            assert server.coalesced_requests == 19

    def test_cache_disabled_calls_model_every_time(self, workload_pool):
        predictor = CountingPredictor()
        config = ServerConfig(enable_cache=False)
        with PredictionServer(predictor, config=config) as server:
            for _ in range(3):
                server.predict_workload(workload_pool[0])
            assert server.cache_stats() is None
        assert predictor.calls == 3

    def test_micro_batching_coalesces_distinct_workloads(self, workload_pool):
        model = GatedLookupPredictor(CountingPredictor())
        config = ServerConfig(max_batch_size=32)
        with PredictionServer(model, config=config) as server:
            blocker = server.submit(workload_pool[12])
            assert model.started.wait(5.0)
            futures = [server.submit(w) for w in workload_pool[:12]]
            model.release.set()
            for future in [blocker, *futures]:
                future.result(timeout=5.0)
            stats = server.batcher_stats()
        # The backlog behind the blocker ran as one batch.
        assert stats.requests == 13
        assert stats.batches == 2
        assert stats.max_batch_size_seen == 12

    def test_flush_on_size_splits_oversized_waves(self, workload_pool):
        model = GatedLookupPredictor(CountingPredictor())
        config = ServerConfig(max_batch_size=4)
        with PredictionServer(model, config=config) as server:
            blocker = server.submit(workload_pool[10])
            assert model.started.wait(5.0)
            futures = [server.submit(w) for w in workload_pool[:10]]
            model.release.set()
            for future in [blocker, *futures]:
                future.result(timeout=5.0)
            stats = server.batcher_stats()
        # A backlog of 10 is cut 4 + 4 + 2.
        assert stats.max_batch_size_seen <= 4
        assert stats.size_flushes == 2

    def test_inline_mode_without_batching(self, workload_pool):
        # max_batch_size=1 is unbatched serving, through the one worker.
        predictor = CountingPredictor()
        config = ServerConfig(max_batch_size=1)
        with PredictionServer(predictor, config=config) as server:
            assert server.predict_workload(workload_pool[1]) == predictor.value
            assert server.predict_workload(workload_pool[2]) == predictor.value
            assert server.batcher_stats().max_batch_size_seen == 1
        assert predictor.batch_sizes == [1, 1]


class SlowPredictor:
    """Constant predictor whose every model call takes ``delay_s`` seconds."""

    def __init__(self, value: float = 32.0, delay_s: float = 0.2) -> None:
        self.value = value
        self.delay_s = delay_s
        self.batches: list[int] = []
        self._lock = threading.Lock()

    def predict_workload(self, queries) -> float:
        time.sleep(self.delay_s)
        with self._lock:
            self.batches.append(1)
        return self.value

    def predict(self, workloads):
        time.sleep(self.delay_s)
        with self._lock:
            self.batches.append(len(workloads))
        return np.full(len(workloads), self.value)


class TestServerConfigValidation:
    """Every knob fails at construction, not deep in the batcher or cache."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_batch_size": -3},
            {"max_wait_s": -0.001},
            {"cache_entries": 0},
            {"cache_entries": -10},
            {"cache_ttl_s": 0.0},
            {"cache_ttl_s": -1.0},
            {"stream_window": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ServerConfig(**kwargs)

    def test_knobs_validated_even_when_feature_disabled(self):
        # A negative cache size is a bug in the caller's config whether or
        # not the cache is switched on for this server.
        with pytest.raises(InvalidParameterError):
            ServerConfig(cache_entries=-1, enable_cache=False)

    def test_valid_config_accepted(self):
        config = ServerConfig(max_batch_size=1, cache_entries=1, cache_ttl_s=0.5)
        assert config.cache_ttl_s == 0.5


class TestDeadlines:
    def test_expired_request_is_shed_before_the_model(self, workload_pool):
        predictor = CountingPredictor()
        with PredictionServer(predictor) as server:
            with pytest.raises(DeadlineExceededError):
                server.predict(
                    PredictionRequest.of(
                        workload_pool[0], deadline_s=1e-9, cache_policy=CachePolicy.BYPASS
                    )
                )
            report = server.snapshot()
        assert predictor.calls == 0  # never occupied a batch slot
        assert report.shed_requests == 1
        assert report.deadline_misses == 1
        assert report.n_errors == 0  # shedding is not a server failure

    def test_mixed_live_and_expired_requests_are_counted_exactly(self, workload_pool):
        predictor = CountingPredictor()
        with PredictionServer(predictor) as server:
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
        assert report.shed_requests == 6
        assert report.deadline_misses == 6
        assert report.n_errors == 0

    def test_generous_deadline_answers_normally(self, workload_pool):
        predictor = CountingPredictor()
        with PredictionServer(predictor) as server:
            result = server.predict(PredictionRequest.of(workload_pool[0], deadline_s=30.0))
            assert result.memory_mb == predictor.value
            report = server.snapshot()
        assert report.deadline_misses == 0
        assert report.shed_requests == 0

    def test_queued_request_expiring_behind_a_slow_batch_is_shed(self, workload_pool):
        predictor = SlowPredictor(delay_s=0.3)
        config = ServerConfig()
        with PredictionServer(predictor, config=config) as server:
            blocker = server.submit(workload_pool[0])
            time.sleep(0.05)  # let the first batch occupy the worker
            doomed = server.submit_request(
                PredictionRequest.of(workload_pool[1], deadline_s=0.1)
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0) == predictor.value
            assert server.batcher_stats().shed_requests == 1
            report = server.snapshot()
        # Only the blocker's batch reached the model.
        assert predictor.batches == [1]
        assert report.shed_requests == 1

    def test_predict_batch_deadline_clock_starts_at_submission(self, workload_pool):
        """Regression: request *i*'s budget must not grow by the time spent
        awaiting requests before it in the batch loop."""
        predictor = SlowPredictor(delay_s=0.25)
        config = ServerConfig(max_batch_size=1, enable_cache=False)
        with PredictionServer(predictor, config=config) as server:
            requests = [
                PredictionRequest.of(workload_pool[i], deadline_s=0.4) for i in range(3)
            ]
            # Three sequential 0.25 s batches: request 0 completes inside its
            # budget, requests 1/2 cannot — under the old per-turn clock all
            # three passed because each turn granted a fresh 0.4 s.
            with pytest.raises(DeadlineExceededError):
                server.predict_batch(requests)

    def test_late_completion_counts_as_miss_but_still_delivers(self, workload_pool):
        predictor = SlowPredictor(delay_s=0.4)
        config = ServerConfig(enable_cache=False)
        with PredictionServer(predictor, config=config) as server:
            # An idle slot starts the batch within budget; it finishes past
            # it.  The future is awaited unbounded, so the late answer lands.
            future = server.submit_request(
                PredictionRequest.of(workload_pool[0], deadline_s=0.2)
            )
            result = future.result(timeout=5.0)
            assert result.memory_mb == predictor.value
            report = server.snapshot()
        assert report.deadline_misses == 1
        assert report.shed_requests == 0


class TestPriorityExecution:
    def test_ready_batches_execute_priority_first(self):
        """A high-priority batch overtakes a queued low-priority backlog.

        The first batch blocks the worker; two more flush behind it — a
        priority-0 one first, then a priority-1 one.  On release the
        worker must pick the priority-1 batch before the older backlog.
        """
        model = GatedLookupPredictor()
        pool = make_lookup_pool(3)
        config = ServerConfig(max_batch_size=1, enable_cache=False)
        with PredictionServer(model, config=config) as server:
            first = server.submit_request(PredictionRequest.of(pool[0]))
            assert model.started.wait(5.0)
            low = server.submit_request(PredictionRequest.of(pool[1]))
            high = server.submit_request(PredictionRequest.of(pool[2], priority=1))
            model.release.set()
            for future in (first, low, high):
                future.result(timeout=5.0)
        assert model.order == [10.0, 30.0, 20.0]


class TestHotSwap:
    def test_promotion_changes_served_model_and_clears_cache(self, workload_pool):
        registry = ModelRegistry()
        registry.register("m", ConstantMemoryPredictor(10.0))
        with PredictionServer(registry, model_name="m") as server:
            assert server.predict_workload(workload_pool[0]) == 10.0
            registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
            # Same workload: the cache must not serve the old model's answer.
            assert server.predict_workload(workload_pool[0]) == 99.0

    def test_rollback_restores_old_answers(self, workload_pool):
        registry = ModelRegistry()
        registry.register("m", ConstantMemoryPredictor(10.0))
        registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
        with PredictionServer(registry, model_name="m") as server:
            assert server.predict_workload(workload_pool[0]) == 99.0
            registry.rollback("m")
            assert server.predict_workload(workload_pool[0]) == 10.0

    def test_unknown_model_name_fails_fast(self):
        with pytest.raises(ServingError):
            PredictionServer(ModelRegistry(), model_name="missing")

    def test_post_swap_request_does_not_coalesce_onto_pre_swap_computation(
        self, workload_pool
    ):
        """Regression: promotion cleared the cache but not the singleflight
        table, so a post-swap request could attach to a pre-swap computation
        and repopulate the fresh cache with the old model's value."""
        registry = ModelRegistry()
        registry.register("m", SlowPredictor(value=10.0, delay_s=0.3))
        config = ServerConfig()
        with PredictionServer(registry, model_name="m", config=config) as server:
            stale = server.submit(workload_pool[0])  # in-flight on the old model
            time.sleep(0.05)
            registry.register("m", ConstantMemoryPredictor(99.0), promote=True)
            fresh = server.submit(workload_pool[0])
            assert fresh.result(timeout=5.0) == 99.0
            assert stale.result(timeout=5.0) == 10.0  # admitted pre-swap
            # The pre-swap computation must not have repopulated the fresh
            # cache: a repeat still sees the promoted model's answer.
            assert server.predict_workload(workload_pool[0]) == 99.0
            assert server.coalesced_requests == 0


class TestServedPredictorPath:
    """The server satisfies the integration layer's predictor protocol."""

    def test_admission_controller_accepts_server(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(40.0)) as server:
            controller = AdmissionController(server, memory_pool_mb=100.0)
            report = controller.run(workload_pool[:6])
        assert report.n_rounds == 3  # 2 x 40 MB per 100 MB round

    def test_round_scheduler_accepts_server(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(40.0)) as server:
            scheduler = RoundScheduler(server, memory_pool_mb=100.0)
            report = scheduler.schedule(workload_pool[:6])
        assert report.n_rounds == 3


class TestTelemetry:
    def test_snapshot_counts_and_percentiles(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(5.0)) as server:
            server.predict(workload_pool[:10])
            report = server.snapshot()
        assert report.n_requests == 10
        assert report.throughput_qps > 0.0
        assert report.latency_p50_ms <= report.latency_p95_ms <= report.latency_p99_ms
        rendered = report.render()
        assert "throughput" in rendered and "latency p99" in rendered

    def test_error_and_reset(self):
        telemetry = ServingTelemetry()
        telemetry.record(0.010)
        telemetry.record(0.020, cache_hit=True)
        telemetry.record_error()
        report = telemetry.snapshot()
        assert report.n_requests == 2
        assert report.n_errors == 1
        assert report.cache_hit_rate == pytest.approx(0.5)
        telemetry.reset()
        assert telemetry.snapshot().n_requests == 0

    def test_empty_snapshot_is_all_zero(self):
        report = ServingTelemetry().snapshot()
        assert report.n_requests == 0
        assert report.throughput_qps == 0.0
        assert report.latency_p99_ms == 0.0


class TestFeatureCacheTelemetry:
    """The served model's plan-feature cache surfaces through telemetry."""

    @pytest.fixture(scope="class")
    def fitted_model(self, tpcds_small):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:300])
        return model

    def test_snapshot_carries_feature_cache_fields(self, fitted_model, workload_pool):
        with PredictionServer(fitted_model) as server:
            server.predict(workload_pool[:8])
            report = server.snapshot()
        stats = fitted_model.feature_cache_stats()
        assert report.feature_cache_hits == stats.hits
        assert report.feature_cache_misses == stats.misses
        assert report.feature_cache_evictions == stats.evictions
        assert report.feature_cache_hit_rate == pytest.approx(stats.hit_rate)
        assert report.feature_cache_hits + report.feature_cache_misses > 0

    def test_to_dict_and_render_include_feature_cache(self, fitted_model, workload_pool):
        with PredictionServer(fitted_model) as server:
            server.predict(workload_pool[:4])
            report = server.snapshot()
        payload = report.to_dict()
        assert {
            "feature_cache_hits",
            "feature_cache_misses",
            "feature_cache_evictions",
            "feature_cache_hit_rate",
        } <= set(payload)
        assert "feature cache hit %" in report.render()

    def test_fields_stay_zero_without_memoized_featurizer(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(8.0)) as server:
            server.predict(workload_pool[:4])
            report = server.snapshot()
            assert server.feature_cache_stats() is None
        assert report.feature_cache_hits == 0
        assert report.feature_cache_misses == 0
        assert "feature cache" not in report.render()

    def test_server_feature_cache_stats_shared_with_model(self, fitted_model, workload_pool):
        with PredictionServer(fitted_model) as server:
            server.predict_workload(workload_pool[0])
            served_stats = server.feature_cache_stats()
        # Same cache instance as the model's: direct calls advance it too.
        fitted_model.predict_workload(workload_pool[0])
        direct_stats = fitted_model.feature_cache_stats()
        assert direct_stats.requests > served_stats.requests


class TestLoadGenerator:
    def test_replay_reports_throughput_and_latency(self, workload_pool):
        from repro.workloads.replay import replay_requests_from_workloads

        requests = replay_requests_from_workloads(workload_pool, 60, repeat_fraction=0.6, seed=1)
        with PredictionServer(ConstantMemoryPredictor(8.0)) as server:
            report = LoadGenerator(server, requests, qps=600.0, benchmark="tpcds").run()
        assert report.n_requests == 60
        assert report.n_errors == 0
        assert report.achieved_qps > 0.0
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert report.latency_p50_ms <= report.latency_p99_ms
        rendered = report.render()
        assert "offered load" in rendered and "cache hit rate" in rendered

    def test_report_json_roundtrip(self, tmp_path, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(8.0)) as server:
            report = LoadGenerator(server, workload_pool[:10], qps=1000.0).run()
        path = report.write_json(tmp_path / "bench.json")
        import json

        payload = json.loads(path.read_text())
        assert payload["n_requests"] == 10
        assert "latency_p95_ms" in payload

    def test_rejects_bad_parameters(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(8.0)) as server:
            with pytest.raises(Exception):
                LoadGenerator(server, workload_pool[:5], qps=0.0)
            with pytest.raises(Exception):
                LoadGenerator(server, [], qps=10.0)
            with pytest.raises(Exception):
                LoadGenerator(server, workload_pool[:5], qps=10.0, deadline_s=0.0)

    def test_deadline_traffic_reports_misses_not_errors(self, workload_pool):
        # Every request carries an unmeetable budget: all are shed, none
        # count as errors, and the report carries the server-side counters.
        predictor = SlowPredictor(delay_s=0.2)
        config = ServerConfig(enable_cache=False)
        with PredictionServer(predictor, config=config) as server:
            report = LoadGenerator(
                server, workload_pool[:6], qps=1000.0, deadline_s=1e-9
            ).run()
        assert report.n_errors == 0
        assert report.shed_requests == 6
        assert report.deadline_misses == 6
        payload = report.to_dict()
        assert payload["deadline_misses"] == 6
        assert payload["shed_requests"] == 6
        assert "deadline misses" in report.render()

    def test_generous_deadline_traffic_reports_clean(self, workload_pool):
        with PredictionServer(ConstantMemoryPredictor(8.0)) as server:
            report = LoadGenerator(
                server, workload_pool[:10], qps=1000.0, deadline_s=30.0
            ).run()
        assert report.n_errors == 0
        assert report.deadline_misses == 0
        assert report.shed_requests == 0
        assert "deadline misses" not in report.render()
