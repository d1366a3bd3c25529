"""Tests for the unified model registry (repro.registry).

Exercises what the merge of the two old registries has to guarantee:
promotion/rollback interleaved with retrain lineage on the same storage,
explicit-version registration with duplicate rejection, and one class behind
every public import path.
"""

import pytest

from repro.exceptions import NotFittedError, ServingError
from repro.integration.predictors import ConstantMemoryPredictor
from repro.registry import ModelRegistry


def predictor(value: float = 64.0) -> ConstantMemoryPredictor:
    return ConstantMemoryPredictor(value)


class TestLineage:
    def test_history_records_provenance_in_order(self):
        registry = ModelRegistry()
        registry.register(
            "m", predictor(1.0), n_training_records=100, validation_mape=20.0, reason="bootstrap"
        )
        registry.register(
            "m", predictor(2.0), promote=True, n_training_records=250, reason="drift"
        )
        history = registry.history("m")
        assert [v.version for v in history] == [1, 2]
        assert [v.reason for v in history] == ["bootstrap", "drift"]
        assert history[0].n_training_records == 100
        assert history[0].validation_mape == 20.0
        assert history[1].validation_mape is None

    def test_history_of_unknown_name_is_empty(self):
        assert ModelRegistry().history("nope") == []

    def test_latest_returns_newest_registration(self):
        registry = ModelRegistry()
        registry.register("m", predictor(1.0))
        registry.register("m", predictor(2.0))  # registered, NOT promoted
        latest = registry.latest("m")
        assert latest.version == 2
        assert registry.active_version("m") == 1  # active and latest can differ

    def test_latest_on_empty_lineage_raises_not_fitted(self):
        with pytest.raises(NotFittedError):
            ModelRegistry().latest("m")

    def test_len_counts_all_versions_across_names(self):
        registry = ModelRegistry()
        assert len(registry) == 0
        registry.register("a", predictor())
        registry.register("a", predictor())
        registry.register("b", predictor())
        assert len(registry) == 3
        assert "a" in registry and "c" not in registry


class TestPromotionInterleavedWithLineage:
    def test_rollback_preserves_lineage(self):
        registry = ModelRegistry()
        registry.register("m", predictor(1.0), reason="bootstrap")
        registry.register("m", predictor(2.0), promote=True, reason="drift")
        registry.register("m", predictor(3.0), promote=True, reason="scheduled")
        assert registry.rollback("m") == 2
        # Rolling back the active pointer must not rewrite history.
        assert [v.version for v in registry.history("m")] == [1, 2, 3]
        assert registry.latest("m").version == 3
        assert registry.active_version("m") == 2

    def test_register_after_rollback_continues_numbering(self):
        registry = ModelRegistry()
        registry.register("m", predictor(1.0), promote=True)
        registry.register("m", predictor(2.0), promote=True)
        registry.rollback("m")
        version = registry.register("m", predictor(3.0), promote=True, reason="retrain")
        assert version == 3
        assert registry.active_version("m") == 3
        # Rollback now returns to the pre-retrain active version (1).
        assert registry.rollback("m") == 1
        assert [v.reason for v in registry.history("m")] == [None, None, "retrain"]

    def test_describe_includes_lineage_fields(self):
        registry = ModelRegistry()
        registry.register("m", predictor(), n_training_records=42, reason="bootstrap")
        info = registry.describe()["m"]["versions"][1]
        assert info["n_training_records"] == 42
        assert info["reason"] == "bootstrap"


class TestExplicitVersions:
    def test_explicit_version_is_honored(self):
        registry = ModelRegistry()
        assert registry.register("m", predictor(), version=5) == 5
        assert registry.versions("m") == [5]
        assert registry.register("m", predictor()) == 6

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.register("m", predictor(), version=3)
        with pytest.raises(ServingError, match="already has a version 3"):
            registry.register("m", predictor(), version=3)

    def test_version_numbers_only_grow(self):
        registry = ModelRegistry()
        registry.register("m", predictor(), version=3)
        with pytest.raises(ServingError, match="only grow"):
            registry.register("m", predictor(), version=2)


class TestImportPaths:
    def test_bare_name_resolves_to_the_unified_class_everywhere(self):
        import repro
        import repro.integration
        import repro.serving

        assert repro.ModelRegistry is ModelRegistry
        assert repro.serving.ModelRegistry is ModelRegistry
        assert repro.integration.ModelRegistry is ModelRegistry
