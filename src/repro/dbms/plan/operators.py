"""Query-plan operator tree.

A plan is a tree of :class:`PlanNode` objects.  Each node records the operator
type plus the two cardinality views the rest of the system needs:

* ``est_input_cardinality`` / ``est_cardinality`` — what the optimizer
  *believes* flows into and out of the operator (uniformity + independence
  assumptions).  These are the "estimated pre-cardinality and
  post-cardinality" statistics the paper's featurizer reads off the plan.
* ``true_input_cardinality`` / ``true_cardinality`` — what actually flows
  through the operator when the query runs.  Only the ground-truth memory
  model looks at these.

Plans are immutable (frozen dataclasses with tuple ``children``): planners
build them bottom-up through the constructor, and a changed plan is a new
tree, built with ``dataclasses.replace`` on the changed node and on every
ancestor up to the root.  That is what lets
:func:`repro.core.features.plan_fingerprint` compute a tree's digest once and
keep it on the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

__all__ = ["OperatorType", "PlanNode", "BLOCKING_OPERATORS"]


class OperatorType(str, Enum):
    """Operator vocabulary of the simulated executor (Db2-style names)."""

    TBSCAN = "TBSCAN"
    IXSCAN = "IXSCAN"
    FETCH = "FETCH"
    HSJOIN = "HSJOIN"
    NLJOIN = "NLJOIN"
    MSJOIN = "MSJOIN"
    SORT = "SORT"
    GRPBY = "GRPBY"
    FILTER = "FILTER"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    RETURN = "RETURN"

    def __str__(self) -> str:
        return self.value


#: Operators that materialize their input and therefore consume working memory.
BLOCKING_OPERATORS: frozenset[OperatorType] = frozenset(
    {OperatorType.SORT, OperatorType.HSJOIN, OperatorType.GRPBY}
)


@dataclass(frozen=True)
class PlanNode:
    """One operator of a query execution plan (immutable, see module notes).

    Attributes
    ----------
    op_type:
        The operator type.
    est_input_cardinality / est_cardinality:
        Optimizer-estimated rows flowing in / out of the operator.
    true_input_cardinality / true_cardinality:
        Actual rows flowing in / out (only the memory simulator uses these).
    row_width:
        Average width in bytes of the rows produced by this operator.
    table:
        Base table name for scan/DML operators, ``None`` otherwise.
    detail:
        Free-form annotation (join columns, sort keys, ...) for explain output.
    children:
        Input operators; leaves are scans or DML value sources.  Must be a
        tuple: a list would be mutable in place, so the memoized
        fingerprint could go stale, and the node would not hash.
    """

    op_type: OperatorType
    est_input_cardinality: float = 0.0
    est_cardinality: float = 0.0
    true_input_cardinality: float = 0.0
    true_cardinality: float = 0.0
    row_width: int = 8
    table: str | None = None
    detail: str = ""
    children: tuple["PlanNode", ...] = ()

    # -- traversal ----------------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and every descendant in pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def operators(self) -> list[OperatorType]:
        """Operator types of the whole subtree, in pre-order."""
        return [node.op_type for node in self.walk()]

    def count_operator(self, op_type: OperatorType) -> int:
        """Number of nodes of ``op_type`` in the subtree."""
        return sum(1 for node in self.walk() if node.op_type is op_type)

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the subtree (a single node has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def leaf_tables(self) -> list[str]:
        """Base tables referenced by the scan leaves, in plan order."""
        return [node.table for node in self.walk() if node.table is not None]

    # -- presentation ----------------------------------------------------------------

    def explain(self, indent: int = 0) -> str:
        """Render an EXPLAIN-style text tree (useful in examples and debugging)."""
        pad = "  " * indent
        target = f" {self.table}" if self.table else ""
        note = f" [{self.detail}]" if self.detail else ""
        line = (
            f"{pad}{self.op_type.value}{target}"
            f" (est_rows={self.est_cardinality:.0f}, width={self.row_width}){note}"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanNode({self.op_type.value}, est={self.est_cardinality:.0f}, "
            f"children={len(self.children)})"
        )
