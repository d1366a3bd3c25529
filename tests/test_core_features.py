"""Tests for the memoized featurization pipeline (plan-fingerprint cache)."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.features import (
    FeatureCacheStats,
    MemoizedFeaturizer,
    feature_cache_stats,
    plan_fingerprint,
)
from repro.core.featurizer import PlanFeaturizer
from repro.dbms.plan.operators import OperatorType, PlanNode
from repro.exceptions import InvalidParameterError

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _plan(card_a: float = 1000.0) -> PlanNode:
    scan_a = PlanNode(OperatorType.TBSCAN, est_cardinality=card_a, table="a")
    scan_b = PlanNode(OperatorType.TBSCAN, est_cardinality=500.0, table="b")
    join = PlanNode(OperatorType.HSJOIN, est_cardinality=800.0, children=(scan_a, scan_b))
    sort = PlanNode(OperatorType.SORT, est_cardinality=800.0, children=(join,))
    return PlanNode(OperatorType.RETURN, est_cardinality=800.0, children=(sort,))


def _with_join(plan: PlanNode, join: PlanNode) -> PlanNode:
    """``plan`` (shaped like :func:`_plan`) with its join node replaced,
    rebuilding the path from the join up to the root."""
    sort = dataclasses.replace(plan.children[0], children=(join,))
    return dataclasses.replace(plan, children=(sort,))


@st.composite
def plan_trees(draw, depth: int = 3) -> PlanNode:
    """Random plan trees over the full operator vocabulary."""
    op = draw(st.sampled_from(list(OperatorType)))
    cardinality = draw(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
    )
    n_children = draw(st.integers(0, 2)) if depth > 0 else 0
    children = tuple(draw(plan_trees(depth=depth - 1)) for _ in range(n_children))
    return PlanNode(op, est_cardinality=cardinality, children=children)


class TestPlanFingerprint:
    def test_equal_plans_hash_equal(self):
        assert plan_fingerprint(_plan()) == plan_fingerprint(_plan())

    def test_deep_copy_hashes_equal(self):
        plan = _plan()
        assert plan_fingerprint(plan) == plan_fingerprint(copy.deepcopy(plan))

    def test_cardinality_change_changes_fingerprint(self):
        assert plan_fingerprint(_plan(1000.0)) != plan_fingerprint(_plan(1001.0))

    def test_operator_change_changes_fingerprint(self):
        plan = _plan()
        join = dataclasses.replace(plan.children[0].children[0], op_type=OperatorType.MSJOIN)
        assert plan_fingerprint(plan) != plan_fingerprint(_with_join(plan, join))

    def test_child_order_changes_fingerprint(self):
        plan = _plan()
        join = plan.children[0].children[0]
        swapped = dataclasses.replace(join, children=join.children[::-1])
        assert plan_fingerprint(plan) != plan_fingerprint(_with_join(plan, swapped))

    def test_extra_node_changes_fingerprint(self):
        plan = _plan()
        sort = plan.children[0]
        extra = PlanNode(OperatorType.FILTER, est_cardinality=10.0)
        extended = dataclasses.replace(
            plan,
            children=(dataclasses.replace(sort, children=sort.children + (extra,)),),
        )
        assert plan_fingerprint(plan) != plan_fingerprint(extended)

    def test_featurizer_irrelevant_fields_do_not_fragment(self):
        # Fields the featurizer never reads are excluded from the identity.
        plan = _plan()
        join = plan.children[0].children[0]
        scan = dataclasses.replace(join.children[0], table="other")
        renamed = dataclasses.replace(
            _with_join(plan, dataclasses.replace(join, children=(scan, join.children[1]))),
            row_width=64,
            true_cardinality=123.0,
        )
        assert plan_fingerprint(plan) == plan_fingerprint(renamed)

    @_SETTINGS
    @given(plan_trees())
    def test_fingerprint_stable_under_deep_copy(self, plan):
        assert plan_fingerprint(plan) == plan_fingerprint(copy.deepcopy(plan))

    @_SETTINGS
    @given(plan_trees())
    def test_cardinality_bump_changes_fingerprint(self, plan):
        bumped = dataclasses.replace(plan, est_cardinality=plan.est_cardinality + 1.0)
        assert plan_fingerprint(plan) != plan_fingerprint(bumped)


class TestImmutablePlans:
    """Plans are frozen, so a fingerprint memoized on a plan stays valid."""

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PlanNode)])
    def test_assigning_any_field_raises(self, name):
        plan = _plan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, getattr(plan, name))

    def test_children_are_tuples(self):
        for node in _plan().walk():
            assert isinstance(node.children, tuple)

    def test_repeated_fingerprint_is_memoized(self):
        plan = _plan()
        first = plan_fingerprint(plan)
        assert plan_fingerprint(plan) is first

    def test_replace_on_deep_node_matches_fresh_reference(self):
        plan = _plan()
        before = plan_fingerprint(plan)
        join = plan.children[0].children[0]
        scan = dataclasses.replace(join.children[0], est_cardinality=9999.0)
        changed = _with_join(plan, dataclasses.replace(join, children=(scan, join.children[1])))
        assert plan_fingerprint(changed) == plan_fingerprint(_plan(9999.0))
        assert plan_fingerprint(changed) != before
        assert plan_fingerprint(plan) == before  # the original is untouched

    def test_pickle_round_trip_keeps_fingerprint(self):
        plan = _plan()
        before = plan_fingerprint(plan)
        assert plan_fingerprint(pickle.loads(pickle.dumps(plan))) == before
        assert plan_fingerprint(pickle.loads(pickle.dumps(_plan()))) == before

    @_SETTINGS
    @given(plan_trees())
    def test_memoized_refingerprint_equals_fresh_copy(self, plan):
        first = plan_fingerprint(plan)
        assert plan_fingerprint(plan) == first
        assert plan_fingerprint(copy.deepcopy(plan)) == first
        assert plan_fingerprint(pickle.loads(pickle.dumps(plan))) == first


class TestMemoizedFeaturizer:
    def test_memoized_features_bit_identical_cold_and_warm(self, tpcds_small):
        records = tpcds_small.train_records[:120]
        plain = PlanFeaturizer()
        memoized = MemoizedFeaturizer(PlanFeaturizer())
        expected = plain.featurize_records(records)
        assert np.array_equal(memoized.featurize_records(records), expected)  # cold
        assert np.array_equal(memoized.featurize_records(records), expected)  # warm
        for record in records[:10]:  # single-plan path, warm
            assert np.array_equal(
                memoized.featurize_record(record), plain.featurize_record(record)
            )

    @_SETTINGS
    @given(plan_trees())
    def test_memoized_plan_features_bit_identical(self, plan):
        plain = PlanFeaturizer()
        memoized = MemoizedFeaturizer(PlanFeaturizer())
        expected = plain.featurize_plan(plan)
        assert np.array_equal(memoized.featurize_plan(plan), expected)
        assert np.array_equal(memoized.featurize_plan(plan), expected)

    def test_respects_base_configuration(self, tpcds_small):
        records = tpcds_small.train_records[:40]
        raw = PlanFeaturizer(log_cardinality=False)
        memoized = MemoizedFeaturizer(PlanFeaturizer(log_cardinality=False))
        assert memoized.log_cardinality is False
        assert np.array_equal(
            memoized.featurize_records(records), raw.featurize_records(records)
        )

    def test_delegates_layout_to_base(self):
        memoized = MemoizedFeaturizer()
        plain = PlanFeaturizer()
        assert memoized.n_features == plain.n_features
        assert memoized.feature_names() == plain.feature_names()

    def test_cached_rows_are_read_only(self):
        memoized = MemoizedFeaturizer()
        row = memoized.featurize_plan(_plan())
        with pytest.raises(ValueError):
            row[0] = 99.0

    def test_hit_miss_counters(self):
        memoized = MemoizedFeaturizer()
        memoized.featurize_plan(_plan())
        memoized.featurize_plan(_plan())
        memoized.featurize_plan(_plan(2000.0))
        stats = memoized.stats()
        assert isinstance(stats, FeatureCacheStats)
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.size == 2
        assert stats.requests == 3
        assert stats.hit_rate == pytest.approx(1.0 / 3.0)

    def test_eviction_respects_capacity(self):
        memoized = MemoizedFeaturizer(max_entries=4)
        for i in range(10):
            memoized.featurize_plan(_plan(float(100 + i)))
        stats = memoized.stats()
        assert stats.size == 4
        assert stats.evictions == 6
        assert stats.max_entries == 4

    def test_lru_order_keeps_hot_entries(self):
        memoized = MemoizedFeaturizer(max_entries=2)
        hot, cold, fresh = _plan(1.0), _plan(2.0), _plan(3.0)
        memoized.featurize_plan(hot)
        memoized.featurize_plan(cold)
        memoized.featurize_plan(hot)  # refresh recency
        memoized.featurize_plan(fresh)  # evicts `cold`
        before = memoized.stats().hits
        memoized.featurize_plan(hot)
        assert memoized.stats().hits == before + 1

    def test_resize_shrinks_and_disallows_zero(self):
        memoized = MemoizedFeaturizer(max_entries=8)
        for i in range(8):
            memoized.featurize_plan(_plan(float(i + 1)))
        memoized.resize(2)
        assert memoized.stats().size == 2
        assert memoized.stats().evictions == 6
        with pytest.raises(InvalidParameterError):
            memoized.resize(0)

    def test_clear_drops_entries_but_keeps_counters(self):
        memoized = MemoizedFeaturizer()
        memoized.featurize_plan(_plan())
        memoized.clear()
        stats = memoized.stats()
        assert stats.size == 0
        assert stats.misses == 1

    def test_rejects_double_memoization_and_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            MemoizedFeaturizer(MemoizedFeaturizer())
        with pytest.raises(InvalidParameterError):
            MemoizedFeaturizer(max_entries=0)

    def test_pickle_round_trip_drops_cache_keeps_config(self):
        memoized = MemoizedFeaturizer(
            PlanFeaturizer(log_cardinality=False), max_entries=17
        )
        expected = memoized.featurize_plan(_plan())
        restored = pickle.loads(pickle.dumps(memoized))
        stats = restored.stats()
        assert stats.size == 0 and stats.hits == 0 and stats.misses == 0
        assert restored.max_entries == 17
        assert restored.log_cardinality is False
        assert np.array_equal(restored.featurize_plan(_plan()), expected)

    def test_mixed_hits_and_misses_in_one_batch(self, tpcds_small):
        memoized = MemoizedFeaturizer(PlanFeaturizer())
        records = tpcds_small.train_records[:40]
        memoized.featurize_records(records[:20])  # warm half the batch
        expected = PlanFeaturizer().featurize_records(records)
        assert np.array_equal(memoized.featurize_records(records), expected)

    def test_batch_with_duplicate_plans_computes_once(self, tpcds_small):
        record = tpcds_small.train_records[0]
        memoized = MemoizedFeaturizer()
        matrix = memoized.featurize_records([record] * 5)
        assert matrix.shape[0] == 5
        assert np.array_equal(matrix, np.tile(matrix[0], (5, 1)))
        assert memoized.stats().size == 1

    def test_empty_batch(self):
        memoized = MemoizedFeaturizer()
        assert memoized.featurize_records([]).shape == (0, memoized.n_features)


class TestFeatureCacheStatsHelper:
    def test_extracts_from_learned_wmp(self, tpcds_small):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:200])
        stats = feature_cache_stats(model)
        assert isinstance(stats, FeatureCacheStats)
        assert stats.misses > 0  # fitting featurized the training plans

    def test_none_for_models_without_featurizer(self):
        from repro.integration.predictors import ConstantMemoryPredictor

        assert feature_cache_stats(ConstantMemoryPredictor(8.0)) is None

    def test_extracts_from_bare_featurizer_attribute(self):
        class WithFeaturizer:
            featurizer = MemoizedFeaturizer()

        assert isinstance(feature_cache_stats(WithFeaturizer()), FeatureCacheStats)


class TestModelIntegration:
    def test_learned_wmp_defaults_to_memoized_featurizer(self):
        from repro.core.model import LearnedWMP

        assert isinstance(LearnedWMP().featurizer, MemoizedFeaturizer)

    def test_predict_hits_cache_on_repeat(self, tpcds_small):
        from repro.core.model import LearnedWMP
        from repro.core.workload import make_workloads

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:200])
        workloads = make_workloads(tpcds_small.test_records[:100], 10, seed=0)
        first = model.predict(workloads)
        hits_before = model.feature_cache_stats().hits
        second = model.predict(workloads)
        assert np.array_equal(first, second)
        assert model.feature_cache_stats().hits >= hits_before + 100

    def test_memoized_and_plain_predictions_identical(self, tpcds_small):
        from repro.core.model import LearnedWMP
        from repro.core.workload import make_workloads

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:200])
        workloads = make_workloads(tpcds_small.test_records[:100], 10, seed=0)
        memoized_predictions = model.predict(workloads)
        memoized = model.featurizer
        model.featurizer = memoized.base
        try:
            plain_predictions = model.predict(workloads)
        finally:
            model.featurizer = memoized
        assert np.array_equal(memoized_predictions, plain_predictions)

    def test_configure_feature_cache_disable_resize_enable(self, tpcds_small):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.configure_feature_cache(0)
        assert isinstance(model.featurizer, PlanFeaturizer)
        assert model.feature_cache_stats() is None
        model.configure_feature_cache(64)
        assert isinstance(model.featurizer, MemoizedFeaturizer)
        assert model.featurizer.max_entries == 64
        model.configure_feature_cache(32)
        assert model.featurizer.max_entries == 32

    def test_configure_feature_cache_no_args_is_a_no_op(self):
        from repro.core.model import LearnedWMP

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.configure_feature_cache(0)  # memoization off
        plain = model.featurizer
        model.configure_feature_cache()  # nothing requested: must stay off
        assert model.featurizer is plain
        memoized = MemoizedFeaturizer(PlanFeaturizer())
        model.featurizer = memoized
        model.configure_feature_cache()  # and an existing cache is untouched
        assert model.featurizer is memoized

    def test_text_template_methods_have_no_plan_featurizer(self, tpcds_small):
        from repro.core.model import LearnedWMP
        from repro.exceptions import InvalidParameterError as IPE

        model = LearnedWMP(template_method="bag_of_words", random_state=0)
        assert model.featurizer is None
        model.configure_feature_cache(16)  # no-op, must not raise
        with pytest.raises(IPE):
            model.featurizer = PlanFeaturizer()

    def test_single_wmp_memoizes_raw_cardinalities(self, tpcds_small):
        from repro.core.single_wmp import SingleWMP

        model = SingleWMP(regressor="ridge", random_state=0, fast=True)
        assert isinstance(model.featurizer, MemoizedFeaturizer)
        assert model.featurizer.log_cardinality is False
        model.fit(tpcds_small.train_records[:150])
        assert model.feature_cache_stats().misses > 0
        model.configure_feature_cache(0)
        assert model.feature_cache_stats() is None
        assert model.featurizer.log_cardinality is False  # base config survives
        model.configure_feature_cache(64)
        assert model.featurizer.max_entries == 64

    def test_saved_model_restores_with_fresh_cache(self, tmp_path, tpcds_small):
        from repro.core.model import LearnedWMP
        from repro.core.serialization import load_model, save_model
        from repro.core.workload import make_workloads

        model = LearnedWMP(regressor="ridge", n_templates=8, batch_size=10, random_state=0)
        model.fit(tpcds_small.train_records[:200])
        workloads = make_workloads(tpcds_small.test_records[:60], 10, seed=0)
        expected = model.predict(workloads)
        save_model(model, tmp_path / "model.pkl")
        restored = load_model(tmp_path / "model.pkl")
        assert np.array_equal(restored.predict(workloads), expected)
        stats = restored.feature_cache_stats()
        assert stats.hits == 0 and stats.misses == 60  # cache started empty
