"""Unit coverage for :mod:`repro.serving.front` — the shared facade layer.

The serving front was always exercised end-to-end, which leaves the
machinery it inherits — the :class:`~repro.serving.front.ServingFrontBase`
protocol facade, its coroutine surface, and the deadline-budget helpers —
covered only incidentally.  These tests pin that layer directly, against a
minimal synchronous front double, so a facade regression is attributed to
the facade rather than to the driver beneath it.  They also pin
:class:`~repro.serving.server.PredictionServer` construction, and run the
coroutine surface (``predict_async`` / ``predict_batch_async`` from a
caller-owned event loop) on the real server.
"""

import asyncio
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from oracle import CountingPredictor, GatedLookupPredictor, LookupPredictor, make_lookup_pool

from repro.api import PredictionRequest, PredictionResult
from repro.core.features import FeatureCacheStats
from repro.core.workload import Workload
from repro.exceptions import DeadlineExceededError, ServingError, UnknownModelError
from repro.registry import ModelRegistry
from repro.serving import PredictionServer
from repro.serving.front import (
    DEFAULT_MODEL_NAME,
    ServingFrontBase,
    await_within_budget,
    submission_deadline,
)
from repro.serving.kernel import ServerConfig
from repro.serving.telemetry import ServingTelemetry

POOL = make_lookup_pool(6)


# -- deadline helpers ------------------------------------------------------------------


class TestSubmissionDeadline:
    def test_no_deadline_maps_to_none(self):
        assert submission_deadline(PredictionRequest.of(POOL[0])) is None

    def test_deadline_is_absolute_from_now(self):
        before = time.monotonic()
        deadline_at = submission_deadline(PredictionRequest.of(POOL[0], deadline_s=5.0))
        after = time.monotonic()
        assert before + 5.0 <= deadline_at <= after + 5.0


class TestAwaitWithinBudget:
    def test_resolved_future_returned_even_with_spent_budget(self):
        """An answer that is already paid for is delivered, never timed out."""
        request = PredictionRequest.of(POOL[0], deadline_s=5.0)
        future: "Future[PredictionResult]" = Future()
        result = PredictionResult(memory_mb=1.0, request_id=request.request_id)
        future.set_result(result)
        assert await_within_budget(request, future, time.monotonic() - 1.0) is result

    def test_unresolved_future_raises_typed_error_at_expiry(self):
        request = PredictionRequest.of(POOL[0], deadline_s=0.01)
        future: "Future[PredictionResult]" = Future()
        with pytest.raises(DeadlineExceededError, match=request.request_id):
            await_within_budget(request, future, time.monotonic() + 0.01)
        # Only the wait is abandoned: the pipeline still owns the future.
        assert not future.cancelled()

    def test_missing_deadline_at_falls_back_to_fresh_budget(self):
        request = PredictionRequest.of(POOL[0], deadline_s=0.01)
        with pytest.raises(DeadlineExceededError):
            await_within_budget(request, Future(), None)

    def test_no_deadline_waits_indefinitely(self):
        request = PredictionRequest.of(POOL[0])
        future: "Future[PredictionResult]" = Future()
        result = PredictionResult(memory_mb=2.0, request_id=request.request_id)
        timer = threading.Timer(0.02, future.set_result, args=(result,))
        timer.start()
        try:
            assert await_within_budget(request, future, None) is result
        finally:
            timer.cancel()


# -- the protocol facade ---------------------------------------------------------------


class SyncFront(ServingFrontBase):
    """A minimal front: both submission primitives answer synchronously.

    Records every submitted workload so window/ordering behavior of the
    facade is observable without threads or a kernel.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.telemetry = ServingTelemetry()
        self.model = LookupPredictor()
        self.submitted: list[Workload] = []
        self.closed = False

    def submit(self, queries) -> "Future[float]":
        workload = self._as_workload(queries)
        self.submitted.append(workload)
        future: "Future[float]" = Future()
        future.set_result(self.model.predict_workload(workload))
        return future

    def submit_request(self, request) -> "Future[PredictionResult]":
        self.submitted.append(request.workload)
        future: "Future[PredictionResult]" = Future()
        future.set_result(
            PredictionResult(
                memory_mb=self.model.predict_workload(request.workload),
                request_id=request.request_id,
            )
        )
        return future

    def feature_cache_stats(self):
        return None

    def close(self) -> None:
        self.closed = True


class TestServingFrontBase:
    def test_as_workload_passes_workloads_through_and_wraps_queries(self):
        assert SyncFront._as_workload(POOL[0]) is POOL[0]
        wrapped = SyncFront._as_workload(POOL[1].queries)
        assert isinstance(wrapped, Workload)
        assert wrapped.queries == list(POOL[1].queries)

    def test_predict_workload_blocks_on_submit(self):
        assert SyncFront().predict_workload(POOL[2]) == 30.0

    def test_predict_legacy_vectorized_form(self):
        values = SyncFront().predict(POOL[:4])
        assert isinstance(values, np.ndarray)
        np.testing.assert_allclose(values, [10.0, 20.0, 30.0, 40.0])

    def test_predict_typed_form(self):
        request = PredictionRequest.of(POOL[3])
        result = SyncFront().predict(request)
        assert isinstance(result, PredictionResult)
        assert result.memory_mb == 40.0
        assert result.request_id == request.request_id

    def test_predict_batch_answers_in_request_order(self):
        requests = [PredictionRequest.of(w) for w in POOL[:3]]
        results = SyncFront().predict_batch(requests)
        assert [r.memory_mb for r in results] == [10.0, 20.0, 30.0]
        assert [r.request_id for r in results] == [r.request_id for r in requests]

    def test_predict_stream_keeps_a_bounded_window_in_flight(self):
        """The stream submits ahead of the consumer, but only window-deep."""
        front = SyncFront(ServerConfig(stream_window=3))
        stream = front.predict_stream(iter(POOL))
        assert front.submitted == []  # lazy until first pull
        assert next(stream) == 10.0
        # The window filled and yielded its oldest: never the whole input.
        assert len(front.submitted) == 3
        assert list(stream) == [20.0, 30.0, 40.0, 50.0, 60.0]
        assert len(front.submitted) == len(POOL)

    def test_snapshot_folds_feature_cache_counters(self):
        front = SyncFront()
        stats = FeatureCacheStats(hits=6, misses=2, evictions=1, size=4, max_entries=8)
        front.feature_cache_stats = lambda: stats
        report = front.snapshot()
        assert report.feature_cache_hits == 6
        assert report.feature_cache_misses == 2
        assert report.feature_cache_evictions == 1
        assert report.feature_cache_hit_rate == stats.hit_rate

    def test_snapshot_without_feature_cache_leaves_defaults(self):
        report = SyncFront().snapshot()
        assert report.feature_cache_hits == 0
        assert report.feature_cache_misses == 0

    def test_context_manager_closes_the_front(self):
        front = SyncFront()
        with front as entered:
            assert entered is front
            assert not front.closed
        assert front.closed


# -- PredictionServer construction ----------------------------------------------------


class ConstantModel:
    def __init__(self, value: float) -> None:
        self.value = value

    def predict(self, workloads):
        return [self.value] * len(workloads)

    def predict_workload(self, workload):
        return self.value


class TestPredictionServerConstruction:
    def test_bare_predictor_is_wrapped_in_a_fresh_registry(self):
        with PredictionServer(ConstantModel(1.0)) as server:
            assert server.model_name == DEFAULT_MODEL_NAME
            assert isinstance(server.registry, ModelRegistry)
            assert server.registry.active(DEFAULT_MODEL_NAME).value == 1.0

    def test_registry_source_is_used_as_is(self):
        registry = ModelRegistry()
        registry.register("wmp", ConstantModel(2.0))
        with PredictionServer(registry, model_name="wmp") as server:
            assert server.registry is registry

    def test_unknown_model_name_fails_fast_at_construction(self):
        registry = ModelRegistry()
        registry.register("wmp", ConstantModel(2.0))
        with pytest.raises(UnknownModelError):
            PredictionServer(registry, model_name="nope")

    def test_predict_batch_resolves_the_active_model_per_batch(self):
        """A promotion takes effect on the next batch, no restart needed."""
        registry = ModelRegistry()
        registry.register("default", ConstantModel(1.0))
        with PredictionServer(registry) as server:
            assert server._predict_batch(POOL[:2]) == [1.0, 1.0]
            registry.register("default", ConstantModel(9.0), promote=True)
            assert server._predict_batch(POOL[:2]) == [9.0, 9.0]

    def test_stats_follow_the_config(self):
        with PredictionServer(ConstantModel(1.0)) as on:
            assert on.cache_stats() is not None
            assert on.batcher_stats() is not None
            assert on.coalesced_requests == 0
        config = ServerConfig(enable_cache=False)
        with PredictionServer(ConstantModel(1.0), config=config) as off:
            assert off.cache_stats() is None
            assert off.batcher_stats().requests == 0  # batching is always on

    def test_feature_cache_surfaces_follow_the_model(self):
        with PredictionServer(ConstantModel(1.0)) as plain:
            assert plain.feature_cache_stats() is None
            assert plain._feature_cache_flag() is False


# -- the coroutine surface on the real server ------------------------------------------

FRONTS = ["single"]
ASYNC_POOL = make_lookup_pool(24)


def serve(model, config=None):
    """``(server, registry)``: one :class:`PredictionServer` serving ``model``."""
    registry = ModelRegistry()
    registry.register("default", model)
    return PredictionServer(registry, config=config), registry


@pytest.mark.parametrize("kind", FRONTS)
class TestCoroutineSurface:
    def test_predict_async_from_a_caller_loop(self, kind):
        async def drive():
            server, _ = serve(ConstantModel(42.0))
            with server:
                result = await server.predict_async(PredictionRequest.of(ASYNC_POOL[0]))
                repeat = await server.predict_async(PredictionRequest.of(ASYNC_POOL[0]))
                return result, repeat

        result, repeat = asyncio.run(drive())
        assert result.memory_mb == 42.0 and result.cache_hit is False
        assert repeat.cache_hit is True

    def test_predict_batch_async_submits_before_awaiting(self, kind):
        predictor = CountingPredictor()
        model = GatedLookupPredictor(predictor)
        config = ServerConfig(max_batch_size=32)

        async def drive():
            server, _ = serve(model, config)
            with server:
                blocker = asyncio.wrap_future(server.submit(ASYNC_POOL[8]))
                assert model.started.wait(5.0)
                requests = [PredictionRequest.of(w) for w in ASYNC_POOL[:8]]
                batch = asyncio.create_task(server.predict_batch_async(requests))
                await asyncio.sleep(0)  # the task submits all eight, then awaits
                model.release.set()
                await blocker
                return await batch

        results = asyncio.run(drive())
        assert [r.memory_mb for r in results] == [predictor.value] * 8
        # All eight were in flight together, so they formed one batch.
        assert predictor.batch_sizes == [1, 8]

    def test_concurrent_tasks_share_the_server(self, kind):
        async def drive():
            server, _ = serve(ConstantModel(7.0))
            with server:
                tasks = [
                    asyncio.create_task(server.predict_async(PredictionRequest.of(w)))
                    for w in ASYNC_POOL[:10]
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(drive())
        assert [r.memory_mb for r in results] == [7.0] * 10

    def test_cancelled_deadline_request_leaves_no_stale_inflight(self, kind):
        """A deadline-abandoned request must not pin its in-flight entry.

        Otherwise every later identical request attaches to the stale
        computation and keeps getting the old model's value — surviving
        even a hot swap (promotion clears the cache, not the in-flight
        table).
        """
        slow = CountingPredictor(value=16.0, delay_s=0.2)
        config = ServerConfig()

        async def drive():
            server, registry = serve(slow, config)
            with server:
                with pytest.raises(ServingError, match="deadline"):
                    await server.predict_async(
                        PredictionRequest.of(ASYNC_POOL[0], deadline_s=0.01)
                    )
                await asyncio.sleep(0.5)  # let the orphaned batch finish
                registry.register("default", ConstantModel(99.0), promote=True)
                result = await server.predict_async(PredictionRequest.of(ASYNC_POOL[0]))
                return result.memory_mb

        assert asyncio.run(drive()) == 99.0

    def test_async_deadline_miss_raises(self, kind):
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig(enable_cache=False)

        async def drive():
            server, _ = serve(predictor, config)
            with server:
                await server.predict_async(
                    PredictionRequest.of(ASYNC_POOL[0], deadline_s=0.01)
                )

        with pytest.raises(ServingError, match="deadline"):
            asyncio.run(drive())

    def test_async_native_deadline_miss_is_counted_in_telemetry(self, kind):
        """An expired ``predict_async`` wait is abandoned, not cancelled: the
        pipeline still sheds and counts the request, and the abandoned
        future never warns 'exception was never retrieved'."""
        predictor = CountingPredictor(delay_s=0.3)
        config = ServerConfig()
        server, _ = serve(predictor, config)
        blocker_workload, doomed_workload = ASYNC_POOL[:2]

        async def drive():
            blocker = asyncio.wrap_future(server.submit(blocker_workload))
            await asyncio.sleep(0.05)  # first batch occupies the model worker
            with pytest.raises(DeadlineExceededError):
                await server.predict_async(
                    PredictionRequest.of(doomed_workload, deadline_s=0.1)
                )
            await blocker

        with server:
            asyncio.run(drive())
            deadline = time.monotonic() + 5.0
            while server.snapshot().shed_requests == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            report = server.snapshot()
        assert report.shed_requests == 1
        assert report.deadline_misses == 1
        assert report.n_errors == 0

    def test_predict_batch_async_deadline_clock_starts_at_submission(self, kind):
        """Request *i*'s budget must not grow by the time spent awaiting
        requests before it in the batch loop."""
        predictor = CountingPredictor(delay_s=0.25)
        config = ServerConfig(max_batch_size=1, enable_cache=False)
        server, _ = serve(predictor, config)

        async def drive():
            requests = [PredictionRequest.of(w, deadline_s=0.4) for w in ASYNC_POOL[:3]]
            await server.predict_batch_async(requests)

        with server:
            with pytest.raises(DeadlineExceededError):
                asyncio.run(drive())
