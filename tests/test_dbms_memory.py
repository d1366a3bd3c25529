"""Tests for the ground-truth working-memory model."""

import pytest

from repro.dbms.memory import MemoryModelConfig, WorkingMemoryModel
from repro.dbms.plan.operators import OperatorType, PlanNode
from repro.dbms.plan.planner import QueryPlanner


def _sort_node(rows: float, width: int = 64) -> PlanNode:
    child = PlanNode(OperatorType.TBSCAN, true_cardinality=rows, true_input_cardinality=rows, row_width=width)
    return PlanNode(
        OperatorType.SORT,
        true_input_cardinality=rows,
        true_cardinality=rows,
        est_input_cardinality=rows,
        est_cardinality=rows,
        row_width=width,
        children=(child,),
    )


def _hash_join(build_rows: float, probe_rows: float, width: int = 32) -> PlanNode:
    build = PlanNode(
        OperatorType.TBSCAN,
        est_cardinality=build_rows,
        true_cardinality=build_rows,
        row_width=width,
    )
    probe = PlanNode(
        OperatorType.TBSCAN,
        est_cardinality=probe_rows,
        true_cardinality=probe_rows,
        row_width=width,
    )
    return PlanNode(
        OperatorType.HSJOIN,
        est_cardinality=probe_rows,
        true_cardinality=probe_rows,
        true_input_cardinality=build_rows + probe_rows,
        row_width=2 * width,
        children=(build, probe),
    )


class TestOperatorMemory:
    def test_sort_memory_proportional_to_input(self):
        model = WorkingMemoryModel()
        small = model.operator_memory(_sort_node(10_000)).memory_mb
        large = model.operator_memory(_sort_node(100_000)).memory_mb
        assert large == pytest.approx(10 * small, rel=0.01)

    def test_sort_memory_capped_by_sort_heap(self):
        config = MemoryModelConfig(sort_heap_mb=64.0)
        model = WorkingMemoryModel(config)
        result = model.operator_memory(_sort_node(100_000_000))
        assert result.memory_mb == pytest.approx(64.0)
        assert result.spilled

    def test_hash_join_uses_smaller_side_as_build(self):
        model = WorkingMemoryModel()
        join = _hash_join(build_rows=1_000, probe_rows=1_000_000)
        swapped = _hash_join(build_rows=1_000_000, probe_rows=1_000)
        assert model.operator_memory(join).memory_mb == pytest.approx(
            model.operator_memory(swapped).memory_mb
        )

    def test_groupby_memory_scales_with_groups(self):
        model = WorkingMemoryModel()
        small = PlanNode(OperatorType.GRPBY, true_cardinality=100, row_width=32)
        large = PlanNode(OperatorType.GRPBY, true_cardinality=100_000, row_width=32)
        assert model.operator_memory(large).memory_mb > model.operator_memory(small).memory_mb

    def test_scan_memory_is_small_constant(self):
        model = WorkingMemoryModel()
        scan = PlanNode(OperatorType.TBSCAN, true_cardinality=10_000_000)
        assert model.operator_memory(scan).memory_mb <= 1.0


class TestPeakMemory:
    def test_peak_includes_all_blocking_operators(self):
        model = WorkingMemoryModel(MemoryModelConfig(noise_sigma=0.0))
        sort = _sort_node(50_000)
        join = _hash_join(20_000, 500_000)
        combined = PlanNode(
            OperatorType.RETURN,
            children=(PlanNode(OperatorType.SORT, true_input_cardinality=50_000, row_width=64, children=(join,)),),
        )
        alone_join = model.peak_memory_mb(join)
        assert model.peak_memory_mb(combined) > alone_join
        assert model.peak_memory_mb(sort) > 0.0

    def test_noise_is_deterministic_per_key(self):
        model = WorkingMemoryModel()
        plan = _sort_node(10_000)
        a = model.peak_memory_mb(plan, execution_key="q1")
        b = model.peak_memory_mb(plan, execution_key="q1")
        c = model.peak_memory_mb(plan, execution_key="q2")
        assert a == b
        assert a != c

    def test_noise_bounded(self):
        config = MemoryModelConfig(noise_sigma=0.05)
        model = WorkingMemoryModel(config)
        plan = _sort_node(100_000)
        base = sum(item.memory_mb for item in model.plan_memory_breakdown(plan))
        for key in ("a", "b", "c", "d"):
            value = model.peak_memory_mb(plan, execution_key=key)
            assert 0.7 * base < value < 1.4 * base

    def test_real_plan_positive_memory(self, toy_catalog):
        planner = QueryPlanner(toy_catalog)
        model = WorkingMemoryModel()
        plan = planner.plan_sql(
            "select category, sum(amount) from sales s, items i "
            "where s.item_id = i.item_id group by category order by category"
        )
        assert model.peak_memory_mb(plan, execution_key="x") > 0.0

    def test_breakdown_covers_every_node(self):
        model = WorkingMemoryModel()
        join = _hash_join(10, 10)
        assert len(model.plan_memory_breakdown(join)) == join.node_count()
