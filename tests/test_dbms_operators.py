"""Tests for plan operator nodes."""

from repro.dbms.plan.operators import BLOCKING_OPERATORS, OperatorType, PlanNode


def _sample_plan() -> PlanNode:
    scan_left = PlanNode(OperatorType.TBSCAN, est_cardinality=1000.0, table="sales", row_width=32)
    scan_right = PlanNode(OperatorType.IXSCAN, est_cardinality=10.0, table="items", row_width=16)
    join = PlanNode(
        OperatorType.HSJOIN,
        est_cardinality=900.0,
        row_width=48,
        children=(scan_left, scan_right),
    )
    group = PlanNode(OperatorType.GRPBY, est_cardinality=20.0, children=(join,))
    return PlanNode(OperatorType.RETURN, est_cardinality=20.0, children=(group,))


class TestPlanNode:
    def test_walk_preorder(self):
        plan = _sample_plan()
        ops = [node.op_type for node in plan.walk()]
        assert ops == [
            OperatorType.RETURN,
            OperatorType.GRPBY,
            OperatorType.HSJOIN,
            OperatorType.TBSCAN,
            OperatorType.IXSCAN,
        ]

    def test_count_operator(self):
        plan = _sample_plan()
        assert plan.count_operator(OperatorType.TBSCAN) == 1
        assert plan.count_operator(OperatorType.SORT) == 0

    def test_node_count_and_depth(self):
        plan = _sample_plan()
        assert plan.node_count() == 5
        assert plan.depth() == 4

    def test_leaf_tables(self):
        assert _sample_plan().leaf_tables() == ["sales", "items"]

    def test_explain_contains_operator_names_and_indentation(self):
        text = _sample_plan().explain()
        assert "RETURN" in text
        assert "  GRPBY" in text
        assert "      IXSCAN items" in text

    def test_blocking_operator_set(self):
        assert OperatorType.SORT in BLOCKING_OPERATORS
        assert OperatorType.HSJOIN in BLOCKING_OPERATORS
        assert OperatorType.TBSCAN not in BLOCKING_OPERATORS

    def test_operator_type_str(self):
        assert str(OperatorType.NLJOIN) == "NLJOIN"
