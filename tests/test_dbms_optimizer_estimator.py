"""Tests for the heuristic (state-of-practice) memory estimator."""

import pytest

from repro.dbms.memory import MemoryModelConfig, WorkingMemoryModel
from repro.dbms.optimizer_estimator import HeuristicEstimatorConfig, HeuristicMemoryEstimator
from repro.dbms.plan.operators import OperatorType, PlanNode
from repro.dbms.plan.planner import QueryPlanner


class TestHeuristicMemoryEstimator:
    def test_minimum_grant_enforced(self):
        estimator = HeuristicMemoryEstimator()
        trivial = PlanNode(OperatorType.RETURN, children=(PlanNode(OperatorType.TBSCAN),))
        assert estimator.estimate_mb(trivial) == pytest.approx(
            HeuristicEstimatorConfig().minimum_grant_mb
        )

    def test_grant_rounded_to_page_granule(self):
        estimator = HeuristicMemoryEstimator()
        sort = PlanNode(
            OperatorType.SORT,
            est_input_cardinality=400_000,
            est_cardinality=400_000,
            row_width=64,
        )
        estimate = estimator.estimate_mb(PlanNode(OperatorType.RETURN, children=(sort,)))
        assert estimate % 4.0 == pytest.approx(0.0)

    def test_estimate_grows_with_estimated_cardinality(self):
        estimator = HeuristicMemoryEstimator()

        def sort_plan(rows: float) -> PlanNode:
            return PlanNode(
                OperatorType.RETURN,
                children=(
                    PlanNode(
                        OperatorType.SORT,
                        est_input_cardinality=rows,
                        est_cardinality=rows,
                        row_width=64,
                    ),
                ),
            )

        assert estimator.estimate_mb(sort_plan(5_000_000)) > estimator.estimate_mb(
            sort_plan(50_000)
        )

    def test_wide_row_sorts_underestimated_vs_ground_truth(self):
        """The rules charge a flat per-row constant, so wide rows are undersized."""
        estimator = HeuristicMemoryEstimator()
        truth = WorkingMemoryModel(MemoryModelConfig(noise_sigma=0.0))
        wide_sort = PlanNode(
            OperatorType.SORT,
            est_input_cardinality=1_000_000,
            est_cardinality=1_000_000,
            true_input_cardinality=1_000_000,
            true_cardinality=1_000_000,
            row_width=400,
        )
        plan = PlanNode(OperatorType.RETURN, children=(wide_sort,))
        assert estimator.estimate_mb(plan) < truth.peak_memory_mb(plan)

    def test_uses_estimated_not_true_cardinality(self):
        estimator = HeuristicMemoryEstimator()
        sort = PlanNode(
            OperatorType.SORT,
            est_input_cardinality=1_000,
            true_input_cardinality=10_000_000,  # reality is much bigger
            row_width=64,
        )
        plan = PlanNode(OperatorType.RETURN, children=(sort,))
        # The estimate stays small because it only sees the estimated rows.
        assert estimator.estimate_mb(plan) <= 8.0

    def test_scan_only_operators_contribute_nothing(self):
        estimator = HeuristicMemoryEstimator()
        assert estimator.operator_estimate_mb(PlanNode(OperatorType.TBSCAN)) == 0.0
        assert estimator.operator_estimate_mb(PlanNode(OperatorType.FETCH)) == 0.0

    def test_estimates_positive_for_benchmark_plans(self, toy_catalog):
        planner = QueryPlanner(toy_catalog)
        estimator = HeuristicMemoryEstimator()
        plan = planner.plan_sql(
            "select category, sum(amount) from sales s, items i "
            "where s.item_id = i.item_id group by category"
        )
        assert estimator.estimate_mb(plan) >= 4.0
