"""Rule-based query planner producing annotated operator trees.

The planner follows the conventional System-R recipe in a deliberately
simplified form — the goal is realistic *plan shapes* (the input of the
LearnedWMP featurizer), not state-of-the-art optimization:

* access path: an index scan (IXSCAN + FETCH) is chosen when the table has an
  index whose leading column carries an equality or IN predicate and the
  estimated selectivity is below a threshold; otherwise a table scan,
* join order: left-deep, tables ordered by ascending estimated cardinality
  after local predicates,
* join method: nested-loop when the inner is an indexed base table and the
  outer is small, hash join otherwise (merge join when both inputs arrive
  sorted, which the simplified pipeline models for sorted index output),
* aggregation: a hash GROUP BY operator whenever grouping or aggregates are
  present,
* ordering: a SORT operator for ORDER BY and for DISTINCT,
* DML: scan + UPDATE/DELETE, or an INSERT leaf.

Every node carries both estimated and true cardinalities; see
:mod:`repro.dbms.plan.cardinality`.
"""

from __future__ import annotations

from repro.dbms.catalog import Catalog
from repro.dbms.plan.cardinality import CardinalityModel, TableCardinalities
from repro.dbms.plan.cost import CostModel
from repro.dbms.plan.operators import OperatorType, PlanNode
from repro.dbms.sql.ast_nodes import (
    Comparison,
    DeleteStatement,
    InPredicate,
    InsertStatement,
    JoinCondition,
    SelectStatement,
    Statement,
    TableRef,
    UpdateStatement,
)
from repro.dbms.sql.parser import parse
from repro.exceptions import PlanningError

__all__ = ["QueryPlanner"]

#: Below this estimated selectivity an available index is considered worthwhile.
_INDEX_SELECTIVITY_THRESHOLD = 0.2
#: Outer cardinality below which an indexed nested-loop join beats a hash join.
_NLJOIN_OUTER_THRESHOLD = 2_000.0


class QueryPlanner:
    """Builds :class:`PlanNode` trees from SQL text or parsed statements."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.cardinality = CardinalityModel(catalog)
        self.cost = CostModel()

    # -- public API ---------------------------------------------------------------

    def plan_sql(self, sql: str) -> PlanNode:
        """Parse and plan a SQL statement."""
        return self.plan(parse(sql))

    def plan(self, statement: Statement) -> PlanNode:
        """Plan a parsed statement."""
        if isinstance(statement, SelectStatement):
            return self._plan_select(statement)
        if isinstance(statement, InsertStatement):
            return self._plan_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._plan_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._plan_delete(statement)
        raise PlanningError(f"cannot plan statement of type {type(statement).__name__}")

    # -- SELECT -----------------------------------------------------------------------

    def _plan_select(self, statement: SelectStatement) -> PlanNode:
        if not statement.tables:
            raise PlanningError("SELECT statement has no tables in FROM clause")

        access_paths: dict[str, PlanNode] = {}
        cardinalities: dict[str, TableCardinalities] = {}
        for ref in statement.tables:
            cards = self.cardinality.table_cardinalities(ref, statement)
            cardinalities[ref.binding] = cards
            access_paths[ref.binding] = self._plan_access_path(ref, statement, cards)

        current = self._plan_joins(statement, access_paths, cardinalities)

        if statement.is_aggregate:
            current = self._add_group_by(statement, current)

        if statement.distinct and not statement.is_aggregate:
            current = self._add_sort(current, detail="distinct")

        if statement.order_by:
            keys = ", ".join(str(item.column) for item in statement.order_by)
            current = self._add_sort(current, detail=f"order by {keys}")

        root = PlanNode(
            op_type=OperatorType.RETURN,
            est_input_cardinality=current.est_cardinality,
            est_cardinality=(
                min(current.est_cardinality, statement.limit)
                if statement.limit
                else current.est_cardinality
            ),
            true_input_cardinality=current.true_cardinality,
            true_cardinality=(
                min(current.true_cardinality, statement.limit)
                if statement.limit
                else current.true_cardinality
            ),
            row_width=current.row_width,
            children=(current,),
        )
        return root

    def _plan_access_path(
        self,
        ref: TableRef,
        statement: SelectStatement,
        cards: TableCardinalities,
    ) -> PlanNode:
        table = self.catalog.table(ref.table)
        selectivity = cards.estimated / max(1.0, table.row_count)
        index_column = self._sargable_indexed_column(ref, statement)
        use_index = index_column is not None and selectivity <= _INDEX_SELECTIVITY_THRESHOLD

        if use_index:
            ixscan = PlanNode(
                op_type=OperatorType.IXSCAN,
                est_input_cardinality=float(table.row_count),
                est_cardinality=cards.estimated,
                true_input_cardinality=float(table.row_count),
                true_cardinality=cards.true,
                row_width=16,
                table=table.name,
                detail=f"index on {index_column}",
            )
            return PlanNode(
                op_type=OperatorType.FETCH,
                est_input_cardinality=cards.estimated,
                est_cardinality=cards.estimated,
                true_input_cardinality=cards.true,
                true_cardinality=cards.true,
                row_width=table.row_width,
                table=table.name,
                children=(ixscan,),
            )
        return PlanNode(
            op_type=OperatorType.TBSCAN,
            est_input_cardinality=float(table.row_count),
            est_cardinality=cards.estimated,
            true_input_cardinality=float(table.row_count),
            true_cardinality=cards.true,
            row_width=table.row_width,
            table=table.name,
        )

    def _sargable_indexed_column(
        self, ref: TableRef, statement: SelectStatement
    ) -> str | None:
        """Leading index column of ``ref`` restricted by an =/IN predicate, if any."""
        for predicate in statement.predicates:
            if not isinstance(predicate, (Comparison, InPredicate)):
                continue
            if isinstance(predicate, Comparison) and predicate.op != "=":
                continue
            column = predicate.column
            if column.table is not None and column.table not in (ref.binding, ref.table):
                continue
            resolved = self.cardinality.resolve_column(column, [ref])
            if resolved is None:
                continue
            if self.catalog.has_index_on(ref.table, resolved[1].name):
                return resolved[1].name
        # Join columns backed by an index also make the table NL-join friendly.
        for condition in statement.join_conditions:
            for side in (condition.left, condition.right):
                if side.table is not None and side.table not in (ref.binding, ref.table):
                    continue
                resolved = self.cardinality.resolve_column(side, [ref])
                if resolved is not None and self.catalog.has_index_on(
                    ref.table, resolved[1].name
                ):
                    return resolved[1].name
        return None

    def _plan_joins(
        self,
        statement: SelectStatement,
        access_paths: dict[str, PlanNode],
        cardinalities: dict[str, TableCardinalities],
    ) -> PlanNode:
        # Left-deep join order by ascending estimated cardinality.
        order = sorted(
            statement.tables, key=lambda ref: cardinalities[ref.binding].estimated
        )
        joined_bindings = [order[0].binding]
        current = access_paths[order[0].binding]

        for ref in order[1:]:
            condition = self._find_join_condition(
                statement.join_conditions, joined_bindings, ref, statement
            )
            right = access_paths[ref.binding]
            current = self._join_nodes(statement, current, right, ref, condition)
            joined_bindings.append(ref.binding)
        return current

    def _find_join_condition(
        self,
        conditions: list[JoinCondition],
        joined_bindings: list[str],
        ref: TableRef,
        statement: SelectStatement,
    ) -> JoinCondition | None:
        def binding_of(column_table: str | None) -> str | None:
            return column_table

        for condition in conditions:
            left_binding = binding_of(condition.left.table)
            right_binding = binding_of(condition.right.table)
            bindings = {left_binding, right_binding}
            if ref.binding in bindings or ref.table in bindings:
                other = bindings - {ref.binding, ref.table}
                if not other or any(b in joined_bindings for b in other if b):
                    return condition
        return None

    def _join_nodes(
        self,
        statement: SelectStatement,
        left: PlanNode,
        right: PlanNode,
        right_ref: TableRef,
        condition: JoinCondition | None,
    ) -> PlanNode:
        if condition is None:
            # Cartesian product — rare in the benchmarks, handled for safety.
            est = left.est_cardinality * right.est_cardinality
            true = left.true_cardinality * right.true_cardinality
            op = OperatorType.NLJOIN
            detail = "cartesian"
        else:
            est_selectivity = self.cardinality.join_selectivity(condition, statement)
            true_selectivity = self.cardinality.join_selectivity(
                condition, statement, true=True
            )
            est = left.est_cardinality * right.est_cardinality * est_selectivity
            true = left.true_cardinality * right.true_cardinality * true_selectivity
            detail = f"{condition.left} = {condition.right}"

            inner_indexed = (
                right.op_type is OperatorType.FETCH
                or right.op_type is OperatorType.IXSCAN
                or self._sargable_indexed_column(right_ref, statement) is not None
            )
            if inner_indexed and left.est_cardinality <= _NLJOIN_OUTER_THRESHOLD:
                nested = self.cost.nested_loop_cost(
                    left.est_cardinality, right.est_cardinality, inner_indexed=True
                )
                hashed = self.cost.hash_join_cost(
                    min(left.est_cardinality, right.est_cardinality),
                    max(left.est_cardinality, right.est_cardinality),
                )
                op = (
                    OperatorType.NLJOIN
                    if nested.total <= hashed.total
                    else OperatorType.HSJOIN
                )
            else:
                op = OperatorType.HSJOIN

        est = max(1.0, est)
        true = max(1.0, true)
        row_width = left.row_width + right.row_width
        return PlanNode(
            op_type=op,
            est_input_cardinality=left.est_cardinality + right.est_cardinality,
            est_cardinality=est,
            true_input_cardinality=left.true_cardinality + right.true_cardinality,
            true_cardinality=true,
            row_width=row_width,
            detail=detail,
            children=(left, right),
        )

    def _add_group_by(self, statement: SelectStatement, child: PlanNode) -> PlanNode:
        est_groups, true_groups = self.cardinality.group_count(
            statement, child.est_cardinality, child.true_cardinality
        )
        group_width = max(16, 8 * (len(statement.group_by) + len(statement.aggregates)))
        keys = ", ".join(str(c) for c in statement.group_by) or "<scalar>"
        return PlanNode(
            op_type=OperatorType.GRPBY,
            est_input_cardinality=child.est_cardinality,
            est_cardinality=est_groups,
            true_input_cardinality=child.true_cardinality,
            true_cardinality=true_groups,
            row_width=group_width,
            detail=f"group by {keys}",
            children=(child,),
        )

    def _add_sort(self, child: PlanNode, *, detail: str) -> PlanNode:
        return PlanNode(
            op_type=OperatorType.SORT,
            est_input_cardinality=child.est_cardinality,
            est_cardinality=child.est_cardinality,
            true_input_cardinality=child.true_cardinality,
            true_cardinality=child.true_cardinality,
            row_width=child.row_width,
            detail=detail,
            children=(child,),
        )

    # -- DML ---------------------------------------------------------------------------

    def _plan_insert(self, statement: InsertStatement) -> PlanNode:
        table = self.catalog.table(statement.table)
        rows = float(max(1, statement.n_rows))
        insert = PlanNode(
            op_type=OperatorType.INSERT,
            est_input_cardinality=rows,
            est_cardinality=rows,
            true_input_cardinality=rows,
            true_cardinality=rows,
            row_width=table.row_width,
            table=table.name,
        )
        return PlanNode(
            op_type=OperatorType.RETURN,
            est_input_cardinality=rows,
            est_cardinality=rows,
            true_input_cardinality=rows,
            true_cardinality=rows,
            row_width=8,
            children=(insert,),
        )

    def _dml_scan(self, table_name: str, statement: UpdateStatement | DeleteStatement) -> PlanNode:
        # Reuse the SELECT machinery by wrapping the DML predicates.
        wrapper = SelectStatement(
            tables=[TableRef(table=table_name)],
            predicates=list(statement.predicates),
        )
        ref = wrapper.tables[0]
        cards = self.cardinality.table_cardinalities(ref, wrapper)
        return self._plan_access_path(ref, wrapper, cards)

    def _plan_update(self, statement: UpdateStatement) -> PlanNode:
        table = self.catalog.table(statement.table)
        scan = self._dml_scan(statement.table, statement)
        update = PlanNode(
            op_type=OperatorType.UPDATE,
            est_input_cardinality=scan.est_cardinality,
            est_cardinality=scan.est_cardinality,
            true_input_cardinality=scan.true_cardinality,
            true_cardinality=scan.true_cardinality,
            row_width=table.row_width,
            table=table.name,
            detail=", ".join(statement.set_columns),
            children=(scan,),
        )
        return PlanNode(
            op_type=OperatorType.RETURN,
            est_input_cardinality=update.est_cardinality,
            est_cardinality=update.est_cardinality,
            true_input_cardinality=update.true_cardinality,
            true_cardinality=update.true_cardinality,
            row_width=8,
            children=(update,),
        )

    def _plan_delete(self, statement: DeleteStatement) -> PlanNode:
        table = self.catalog.table(statement.table)
        scan = self._dml_scan(statement.table, statement)
        delete = PlanNode(
            op_type=OperatorType.DELETE,
            est_input_cardinality=scan.est_cardinality,
            est_cardinality=scan.est_cardinality,
            true_input_cardinality=scan.true_cardinality,
            true_cardinality=scan.true_cardinality,
            row_width=table.row_width,
            table=table.name,
            children=(scan,),
        )
        return PlanNode(
            op_type=OperatorType.RETURN,
            est_input_cardinality=delete.est_cardinality,
            est_cardinality=delete.est_cardinality,
            true_input_cardinality=delete.true_cardinality,
            true_cardinality=delete.true_cardinality,
            row_width=8,
            children=(delete,),
        )
