"""Tests for plan featurization."""

import numpy as np
import pytest

from repro.core.featurizer import OPERATOR_VOCABULARY, PlanFeaturizer
from repro.dbms.plan.operators import OperatorType, PlanNode


def _plan() -> PlanNode:
    scan_a = PlanNode(OperatorType.TBSCAN, est_cardinality=1000.0, table="a")
    scan_b = PlanNode(OperatorType.TBSCAN, est_cardinality=500.0, table="b")
    join = PlanNode(OperatorType.HSJOIN, est_cardinality=800.0, children=(scan_a, scan_b))
    sort = PlanNode(OperatorType.SORT, est_cardinality=800.0, children=(join,))
    return PlanNode(OperatorType.RETURN, est_cardinality=800.0, children=(sort,))


class TestPlanFeaturizer:
    def test_vector_length_is_two_per_operator(self):
        featurizer = PlanFeaturizer()
        assert featurizer.n_features == 2 * len(OPERATOR_VOCABULARY)
        assert featurizer.featurize_plan(_plan()).shape == (featurizer.n_features,)

    def test_counts_per_operator_type(self):
        featurizer = PlanFeaturizer(log_cardinality=False)
        features = featurizer.featurize_plan(_plan())
        names = featurizer.feature_names()
        by_name = dict(zip(names, features))
        assert by_name["tbscan_count"] == 2.0
        assert by_name["hsjoin_count"] == 1.0
        assert by_name["sort_count"] == 1.0
        assert by_name["ixscan_count"] == 0.0

    def test_cardinalities_aggregate_across_instances(self):
        featurizer = PlanFeaturizer(log_cardinality=False)
        by_name = dict(zip(featurizer.feature_names(), featurizer.featurize_plan(_plan())))
        assert by_name["tbscan_cardinality"] == pytest.approx(1500.0)
        assert by_name["sort_cardinality"] == pytest.approx(800.0)

    def test_log_scaling_applied(self):
        raw = PlanFeaturizer(log_cardinality=False).featurize_plan(_plan())
        logged = PlanFeaturizer(log_cardinality=True).featurize_plan(_plan())
        # Counts (even positions) are identical, cardinalities are compressed.
        assert np.allclose(raw[0::2], logged[0::2])
        assert np.all(logged[1::2] <= raw[1::2])

    def test_feature_names_align_with_vector(self):
        featurizer = PlanFeaturizer()
        assert len(featurizer.feature_names()) == featurizer.n_features
        assert featurizer.feature_names()[0] == "tbscan_count"

    def test_featurize_records_matrix(self, tpcds_small):
        featurizer = PlanFeaturizer()
        records = tpcds_small.train_records[:30]
        matrix = featurizer.featurize_records(records)
        assert matrix.shape == (30, featurizer.n_features)
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix >= 0.0)

    def test_empty_record_list_gives_empty_matrix(self):
        featurizer = PlanFeaturizer()
        assert featurizer.featurize_records([]).shape == (0, featurizer.n_features)

    def test_different_plans_have_different_features(self, tpcds_small):
        featurizer = PlanFeaturizer()
        matrix = featurizer.featurize_records(tpcds_small.train_records[:100])
        assert np.unique(matrix, axis=0).shape[0] > 10
