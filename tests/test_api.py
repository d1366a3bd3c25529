"""Tests for the unified prediction API (repro.api).

Covers the typed request/result objects, the Predictor protocol and its
coercion, cache-policy/provenance semantics, and the acceptance criterion of
the redesign: admission control and the round scheduler make *identical*
decisions whether they are handed a direct model, a ``CachedPredictor`` or a
``PredictionServer``.
"""

import pytest

from repro.api import (
    CachePolicy,
    DirectPredictor,
    PredictionRequest,
    PredictionResult,
    Predictor,
    as_predictor,
    predict_values,
)
from repro.core.model import LearnedWMP
from repro.core.workload import Workload, make_workloads
from repro.exceptions import InvalidParameterError
from repro.integration.admission import AdmissionController
from repro.integration.capacity import CapacityPlanner
from repro.integration.predictors import CachedPredictor, ConstantMemoryPredictor
from repro.integration.scheduler import RoundScheduler
from repro.integration.simulation import ConcurrentExecutionSimulator
from repro.serving import PredictionServer, ServerConfig


@pytest.fixture(scope="module")
def fitted_model(tpcds_small):
    model = LearnedWMP(
        regressor="ridge", n_templates=16, batch_size=10, random_state=7, fast=True
    )
    model.fit(tpcds_small.train_records)
    return model


@pytest.fixture(scope="module")
def window(tpcds_small):
    return make_workloads(tpcds_small.test_records, 10, seed=7)


class TestPredictionRequest:
    def test_of_coerces_query_sequences(self, window):
        request = PredictionRequest.of(window[0].queries)
        assert isinstance(request.workload, Workload)
        assert request.workload.queries == list(window[0].queries)

    def test_of_passes_workloads_through(self, window):
        request = PredictionRequest.of(window[0])
        assert request.workload is window[0]

    def test_request_ids_are_generated_and_unique(self, window):
        a = PredictionRequest.of(window[0])
        b = PredictionRequest.of(window[0])
        assert a.request_id != b.request_id

    def test_explicit_request_id_is_kept(self, window):
        assert PredictionRequest.of(window[0], request_id="r-1").request_id == "r-1"

    def test_rejects_non_workload(self):
        with pytest.raises(InvalidParameterError):
            PredictionRequest(workload="not a workload")  # type: ignore[arg-type]

    def test_rejects_non_positive_deadline(self, window):
        with pytest.raises(InvalidParameterError):
            PredictionRequest.of(window[0], deadline_s=0.0)

    @pytest.mark.parametrize("deadline_s", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_deadline(self, window, deadline_s):
        # A nan budget never compares as expired, and an infinite one
        # overflows the deadline timestamp arithmetic when served.
        with pytest.raises(InvalidParameterError, match="finite"):
            PredictionRequest.of(window[0], deadline_s=deadline_s)

    def test_requests_are_frozen(self, window):
        request = PredictionRequest.of(window[0])
        with pytest.raises(AttributeError):
            request.deadline_s = 1.0  # type: ignore[misc]


class TestPredictionResult:
    def test_float_conversion(self):
        result = PredictionResult(memory_mb=42.5, request_id="r")
        assert float(result) == 42.5

    def test_with_provenance_replaces_fields(self):
        result = PredictionResult(memory_mb=1.0, request_id="r")
        updated = result.with_provenance(cache_hit=True, model_version=3)
        assert updated.cache_hit and updated.model_version == 3
        assert not result.cache_hit


class TestCoercion:
    def test_direct_model_is_wrapped(self, fitted_model):
        predictor = as_predictor(fitted_model)
        assert isinstance(predictor, DirectPredictor)
        assert isinstance(predictor, Predictor)

    def test_adapter_passes_through(self, fitted_model):
        predictor = as_predictor(fitted_model)
        assert as_predictor(predictor) is predictor

    def test_server_passes_through_uncoerced(self, fitted_model):
        with PredictionServer(fitted_model) as server:
            assert isinstance(server, Predictor)
            assert as_predictor(server) is server

    def test_rejects_non_predictors(self):
        with pytest.raises(InvalidParameterError):
            as_predictor(object())

    def test_adapter_keeps_legacy_surface(self, window):
        predictor = as_predictor(ConstantMemoryPredictor(64.0))
        assert predictor.predict_workload(window[0]) == 64.0
        assert predict_values(predictor, list(window[:3])) == [64.0, 64.0, 64.0]


class TestDirectPredictor:
    def test_result_carries_model_identity(self, fitted_model, window):
        result = as_predictor(fitted_model).predict(PredictionRequest.of(window[0]))
        assert result.model_name == "LearnedWMP"
        assert result.model_version is None
        assert result.memory_mb > 0.0
        assert result.feature_cache_active  # memoized featurizer is the default

    def test_explicit_identity_overrides(self, fitted_model, window):
        predictor = as_predictor(fitted_model, name="tpcds", version=4)
        result = predictor.predict(PredictionRequest.of(window[0]))
        assert (result.model_name, result.model_version) == ("tpcds", 4)

    def test_batch_matches_vectorized_model(self, fitted_model, window):
        results = as_predictor(fitted_model).predict_batch(
            [PredictionRequest.of(w) for w in window]
        )
        expected = fitted_model.predict(list(window))
        assert [r.memory_mb for r in results] == pytest.approx(list(expected))
        assert [r.request_id for r in results] == [
            r.request_id for r in results
        ]  # ids echo in order

    def test_empty_batch(self, fitted_model):
        assert as_predictor(fitted_model).predict_batch([]) == []


class TestCachedPredictorProvenance:
    def test_cache_hit_flag_tracks_cache_state(self, fitted_model, window):
        cached = CachedPredictor(fitted_model)
        predictor = as_predictor(cached)
        first = predictor.predict(PredictionRequest.of(window[0]))
        second = predictor.predict(PredictionRequest.of(window[0]))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.memory_mb == first.memory_mb

    def test_bypass_policy_reaches_the_model(self, fitted_model, window):
        cached = CachedPredictor(fitted_model)
        predictor = as_predictor(cached)
        predictor.predict(PredictionRequest.of(window[0]))
        hits_before = cached.cache_stats().hits
        result = predictor.predict(
            PredictionRequest.of(window[0], cache_policy=CachePolicy.BYPASS)
        )
        assert not result.cache_hit
        assert cached.cache_stats().hits == hits_before  # cache was not consulted

    def test_bypass_matches_cached_value(self, fitted_model, window):
        cached = CachedPredictor(fitted_model)
        predictor = as_predictor(cached)
        default = predictor.predict(PredictionRequest.of(window[0]))
        bypass = predictor.predict(
            PredictionRequest.of(window[0], cache_policy=CachePolicy.BYPASS)
        )
        assert bypass.memory_mb == pytest.approx(default.memory_mb)


class TestServedPredictions:
    def test_result_carries_registry_identity(self, fitted_model, window):
        from repro.registry import ModelRegistry

        registry = ModelRegistry()
        registry.register("tpcds", fitted_model)
        with PredictionServer(registry, model_name="tpcds") as server:
            result = server.predict(PredictionRequest.of(window[0]))
            assert isinstance(result, PredictionResult)
            assert result.model_name == "tpcds"
            assert result.model_version == 1
            assert result.feature_cache_active

    def test_cache_hit_provenance(self, fitted_model, window):
        with PredictionServer(fitted_model) as server:
            first = server.predict(PredictionRequest.of(window[0]))
            second = server.predict(PredictionRequest.of(window[0]))
            assert not first.cache_hit
            assert second.cache_hit
            assert second.memory_mb == first.memory_mb

    def test_bypass_policy_skips_the_prediction_cache(self, fitted_model, window):
        with PredictionServer(fitted_model) as server:
            server.predict(PredictionRequest.of(window[0]))
            bypass = server.predict(
                PredictionRequest.of(window[0], cache_policy=CachePolicy.BYPASS)
            )
            assert not bypass.cache_hit

    def test_missed_deadline_raises_serving_error(self, window):
        import threading

        from repro.exceptions import ServingError

        release = threading.Event()

        class SlowPredictor:
            def predict_workload(self, queries):
                release.wait(timeout=5.0)
                return 1.0

        config = ServerConfig(enable_cache=False)
        with PredictionServer(SlowPredictor(), config=config) as server:
            try:
                with pytest.raises(ServingError, match="deadline"):
                    server.predict(PredictionRequest.of(window[0], deadline_s=0.05))
            finally:
                release.set()

    def test_legacy_batch_convention_still_works(self, fitted_model, window):
        with PredictionServer(fitted_model) as server:
            values = server.predict(list(window[:5]))
            assert len(values) == 5

    def test_result_version_follows_promotion(self, fitted_model, window):
        from repro.registry import ModelRegistry

        registry = ModelRegistry()
        registry.register("m", fitted_model)
        registry.register("m", ConstantMemoryPredictor(7.0))
        with PredictionServer(registry, model_name="m") as server:
            before = server.predict(PredictionRequest.of(window[0]))
            registry.promote("m", 2)
            after = server.predict(PredictionRequest.of(window[0]))
            assert before.model_version == 1
            assert after.model_version == 2
            assert after.memory_mb == 7.0


class TestProtocolParity:
    """Acceptance criterion: admission/scheduler decisions are identical for a
    direct model, a CachedPredictor and a PredictionServer."""

    def _predictor_variants(self, model):
        yield "direct", model, None
        yield "cached", CachedPredictor(model), None
        server = PredictionServer(model, config=ServerConfig(max_batch_size=64))
        yield "served", server, server

    def test_admission_and_scheduler_decisions_identical(self, fitted_model, window):
        pool_mb = 3.0 * max(
            float(sum(w.actual_memory_mb or 0.0 for w in window)) / len(window), 1.0
        )
        admission_summaries = {}
        schedule_summaries = {}
        for label, predictor, server in self._predictor_variants(fitted_model):
            try:
                admission_summaries[label] = (
                    AdmissionController(predictor, pool_mb).run(window).summary()
                )
                schedule_summaries[label] = (
                    RoundScheduler(predictor, pool_mb).schedule(window).summary()
                )
            finally:
                if server is not None:
                    server.close()
        assert admission_summaries["cached"] == admission_summaries["direct"]
        assert admission_summaries["served"] == admission_summaries["direct"]
        assert schedule_summaries["cached"] == schedule_summaries["direct"]
        assert schedule_summaries["served"] == schedule_summaries["direct"]

    def test_simulation_accepts_any_predictor(self, fitted_model, window):
        pool_mb = 4.0 * max(
            float(sum(w.actual_memory_mb or 0.0 for w in window)) / len(window), 1.0
        )
        simulator = ConcurrentExecutionSimulator(pool_mb)
        direct = simulator.run(window[:8], fitted_model)
        with PredictionServer(fitted_model) as server:
            served = simulator.run(window[:8], server)
        assert served.summary() == direct.summary()

    def test_capacity_planner_accepts_any_predictor(self, fitted_model, window):
        direct_plan = CapacityPlanner(fitted_model).plan(window)
        with PredictionServer(fitted_model) as server:
            served_plan = CapacityPlanner(server).plan(window)
        assert served_plan.recommended_mb == pytest.approx(direct_plan.recommended_mb)

    def test_parity_compares_typed_results(self, fitted_model, window):
        """Server-vs-direct parity expressed over PredictionResult objects."""
        requests = [PredictionRequest.of(w) for w in window[:10]]
        direct_results = as_predictor(fitted_model).predict_batch(requests)
        with PredictionServer(fitted_model) as server:
            served_results = server.predict_batch(
                [
                    PredictionRequest.of(w, cache_policy=CachePolicy.BYPASS)
                    for w in window[:10]
                ]
            )
        for direct, served in zip(direct_results, served_results):
            assert served.memory_mb == pytest.approx(direct.memory_mb)
            assert served.model_version == 1
            assert direct.model_version is None
