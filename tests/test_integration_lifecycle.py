"""Tests for the pre-train / observe / retrain loop over the unified registry."""

import pytest

from repro.core.model import LearnedWMP
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.integration.lifecycle import ModelLifecycleManager
from repro.registry import ModelRegistry


def _factory():
    return LearnedWMP(
        regressor="xgb", n_templates=12, batch_size=10, random_state=0, fast=True
    )


def _manager(min_new_records=100, **kwargs):
    return ModelLifecycleManager(
        model_factory=_factory,
        min_new_records=min_new_records,
        batch_size=10,
        seed=0,
        **kwargs,
    )


class TestLineage:
    def test_empty_lineage_raises(self):
        manager = _manager()
        with pytest.raises(NotFittedError):
            _ = manager.current_version
        assert manager.n_versions == 0

    def test_versions_accumulate_with_provenance(self, tpcc_small):
        registry = ModelRegistry()
        manager = _manager(min_new_records=50, registry=registry, model_name="tpcc")
        manager.bootstrap(tpcc_small.train_records[:150])
        manager.observe(tpcc_small.train_records[150:320])
        manager.maybe_retrain()
        history = registry.history("tpcc")
        assert [v.version for v in history] == [1, 2]
        assert history[0].reason == "bootstrap"
        assert history[1].reason == "training corpus doubled"
        assert all(v.n_training_records is not None for v in history)
        assert manager.current_version is history[-1]


class TestBootstrap:
    def test_bootstrap_creates_version_one(self, tpcc_small):
        manager = _manager()
        version = manager.bootstrap(tpcc_small.train_records[:400])
        assert version.version == 1
        assert version.reason == "bootstrap"
        assert version.validation_mape is not None and version.validation_mape >= 0.0
        # The deployed model answers predictions immediately.
        assert manager.predict_workload(tpcc_small.test_records[:10]) > 0.0

    def test_double_bootstrap_rejected(self, tpcc_small):
        manager = _manager()
        manager.bootstrap(tpcc_small.train_records[:300])
        with pytest.raises(InvalidParameterError):
            manager.bootstrap(tpcc_small.train_records[:300])

    def test_bootstrap_requires_enough_records(self, tpcc_small):
        manager = _manager()
        with pytest.raises(InvalidParameterError):
            manager.bootstrap(tpcc_small.train_records[:5])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelLifecycleManager(model_factory=_factory, validation_fraction=1.0)
        with pytest.raises(InvalidParameterError):
            ModelLifecycleManager(model_factory=_factory, min_new_records=0)

    def test_predictor_exposes_typed_protocol(self, tpcc_small):
        from repro.api import PredictionRequest, Predictor

        manager = _manager(model_name="tpcc")
        manager.bootstrap(tpcc_small.train_records[:300])
        predictor = manager.predictor()
        assert isinstance(predictor, Predictor)
        result = predictor.predict(PredictionRequest.of(tpcc_small.test_records[:10]))
        assert result.memory_mb > 0.0
        assert result.model_name == "tpcc"
        assert result.model_version == 1


class TestRetrainDecisions:
    def test_no_model_means_no_retrain(self):
        decision = _manager().should_retrain()
        assert not decision.retrain
        assert "no bootstrapped model" in decision.reason

    def test_too_few_new_records(self, tpcc_small):
        manager = _manager(min_new_records=200)
        manager.bootstrap(tpcc_small.train_records[:300])
        manager.observe(tpcc_small.test_records[:50])
        decision = manager.should_retrain()
        assert not decision.retrain
        assert manager.n_new_records == 50

    def test_same_workload_does_not_trigger_drift_retrain(self, tpcc_small):
        manager = _manager(min_new_records=50)
        manager.bootstrap(tpcc_small.train_records[:300])
        manager.observe(tpcc_small.test_records[:60])
        decision = manager.should_retrain()
        # Same benchmark, same mix: only the "corpus doubled" rule could fire,
        # and 60 < 300 observed records keeps it off.
        assert not decision.retrain
        assert decision.histogram_drift is not None
        assert not decision.histogram_drift.drifted

    def test_corpus_growth_triggers_refresh(self, tpcc_small):
        manager = _manager(min_new_records=50)
        manager.bootstrap(tpcc_small.train_records[:150])
        manager.observe(tpcc_small.train_records[150:320])
        decision = manager.should_retrain()
        assert decision.retrain
        assert decision.reason == "training corpus doubled"

    def test_error_feedback_triggers_retrain(self, tpcc_small):
        manager = _manager(min_new_records=50)
        manager.bootstrap(tpcc_small.train_records[:300])
        manager.observe(tpcc_small.test_records[:60])
        for _ in range(20):
            manager.observe_feedback(predicted_mb=500.0, actual_mb=10.0)
        decision = manager.should_retrain()
        assert decision.retrain
        assert decision.reason == "prediction-error drift"


class TestMaybeRetrain:
    def test_retrain_promotes_new_version_and_resets_counters(self, tpcc_small):
        manager = _manager(min_new_records=50)
        manager.bootstrap(tpcc_small.train_records[:150])
        manager.observe(tpcc_small.train_records[150:320])
        version = manager.maybe_retrain()
        assert version is not None
        assert version.version == 2
        assert manager.n_new_records == 0
        assert manager.current_version is version
        # The new version trained on the combined corpus.
        assert version.n_training_records > 150 * (1.0 - manager.validation_fraction) - 1

    def test_no_retrain_returns_none(self, tpcc_small):
        manager = _manager(min_new_records=500)
        manager.bootstrap(tpcc_small.train_records[:300])
        assert manager.maybe_retrain() is None
        assert manager.n_versions == 1


class TestServingUnification:
    """Retrained versions hot-swap a server resolving from the same registry."""

    def test_bootstrap_promotes_in_shared_registry(self, tpcc_small):
        registry = ModelRegistry()
        manager = _manager(min_new_records=100, registry=registry, model_name="tpcc")
        version = manager.bootstrap(tpcc_small.train_records[:300])
        assert registry.active_version("tpcc") == 1
        assert registry.active("tpcc") is version.model

    def test_retrain_hot_swaps_served_model(self, tpcc_small):
        registry = ModelRegistry()
        manager = _manager(min_new_records=50, registry=registry)
        manager.bootstrap(tpcc_small.train_records[:200])
        # Corpus-doubling refresh: observe more records than the corpus.
        manager.observe(tpcc_small.train_records[:250])
        retrained = manager.maybe_retrain()
        assert retrained is not None
        assert registry.active_version("default") == 2
        assert registry.active("default") is retrained.model
        # The previous version is still there for rollback.
        assert registry.rollback("default") == 1
