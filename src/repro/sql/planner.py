"""SQL planner: AST → relalg operator plan with scan-predicate pushdown.

The planner lowers a parsed statement onto the operators
:mod:`repro.analytics.relalg` provides, in a fixed pipeline per SELECT::

    scans → joins (left-deep, in FROM order) → residual filter →
    extends (computed group keys) → group/aggregate → having →
    extends + project (select list) → distinct → sort → limit

WHERE is split into conjuncts at the top-level ANDs. A conjunct whose
columns all come from **one** pushable base-table scan — the FROM table,
or an inner join's right side; semi/anti right sides and derived tables
are opaque — is pushed into that :class:`ScanNode`, where the executor
either evaluates it at scan time (device site, modelling the on-device
PSF kernel) or as one combined filter (host site). Everything else lands
in a single residual :class:`FilterNode` after the joins. Because relalg
joins are left-driven and order-preserving and filters are stable, the
split never changes row order, so results are byte-identical whichever
site each scan runs on.

Scalar subqueries are planned inner-first into ``PlannedStatement.scalars``;
the executor resolves them in that order before evaluating any expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analytics.schema import SCHEMA
from repro.errors import SqlError
from repro.sql.ast_nodes import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnionAll,
)
from repro.sql.exprs import column_refs, contains_aggregate, scalar_subqueries
from repro.sql.parser import AGGREGATE_FUNCS


# -- plan nodes ----------------------------------------------------------------


class PlanNode:
    """Base class for plan operators."""


@dataclass(eq=False)
class ScanNode(PlanNode):
    """Scan one base table, producing ``columns``; ``predicates`` are the
    pushed conjuncts (ANDed). The executor picks the site per scan."""

    table: str
    columns: Tuple[str, ...]
    predicates: List[Expr] = field(default_factory=list)


@dataclass(eq=False)
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    left_key: str
    right_key: str
    how: str  # 'inner' | 'semi' | 'anti'


@dataclass(eq=False)
class FilterNode(PlanNode):
    child: PlanNode
    predicate: Expr


@dataclass(eq=False)
class ExtendNode(PlanNode):
    child: PlanNode
    name: str
    expr: Expr


@dataclass(eq=False)
class GroupNode(PlanNode):
    child: PlanNode
    keys: List[str]
    #: (output name, op in sum/min/max/avg/count, argument expr or None)
    aggregates: List[Tuple[str, str, Optional[Expr]]]


@dataclass(eq=False)
class ProjectNode(PlanNode):
    """Normalise to the select list: ``items`` is (output name, expr) in
    select order; non-identity items extend first, then project."""

    child: PlanNode
    items: List[Tuple[str, Expr]]


@dataclass(eq=False)
class DistinctNode(PlanNode):
    child: PlanNode
    columns: Tuple[str, ...]


@dataclass(eq=False)
class SortNode(PlanNode):
    child: PlanNode
    keys: List[Tuple[str, bool]]  # (column, descending)


@dataclass(eq=False)
class LimitNode(PlanNode):
    child: PlanNode
    n: int


@dataclass(eq=False)
class UnionNode(PlanNode):
    children: List[PlanNode]


@dataclass
class PlannedStatement:
    """A lowered statement plus its scalar-subquery subplans (inner-first)."""

    root: PlanNode
    #: (id(ScalarSubquery AST node), subplan root) in resolution order.
    scalars: List[Tuple[int, PlanNode]]
    output_columns: Tuple[str, ...]


# -- helpers -------------------------------------------------------------------


def flatten_and(expr: Optional[Expr]) -> List[Expr]:
    """Split an expression on its top-level ANDs."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return flatten_and(expr.left) + flatten_and(expr.right)
    return [expr]


def and_fold(conjuncts: Sequence[Expr]) -> Expr:
    return reduce(lambda a, b: BinaryOp("and", a, b), conjuncts)


def scan_nodes(node: PlanNode) -> List[ScanNode]:
    """All base-table scans under ``node``, left-to-right."""
    if isinstance(node, ScanNode):
        return [node]
    if isinstance(node, JoinNode):
        return scan_nodes(node.left) + scan_nodes(node.right)
    if isinstance(node, UnionNode):
        return [s for child in node.children for s in scan_nodes(child)]
    child = getattr(node, "child", None)
    return scan_nodes(child) if child is not None else []


# -- the planner ---------------------------------------------------------------


class Planner:
    def __init__(self) -> None:
        self.scalars: List[Tuple[int, PlanNode]] = []

    def plan(self, stmt) -> PlannedStatement:
        root, out_cols = self._plan_stmt(stmt)
        return PlannedStatement(
            root=root, scalars=self.scalars, output_columns=tuple(out_cols)
        )

    def _plan_stmt(self, stmt) -> Tuple[PlanNode, List[str]]:
        if isinstance(stmt, UnionAll):
            parts = [self._plan_select(p) for p in stmt.parts]
            first_cols = parts[0][1]
            for node, cols in parts[1:]:
                if set(cols) != set(first_cols):
                    raise SqlError(
                        f"UNION ALL column mismatch: {first_cols} vs {cols}"
                    )
            return UnionNode([p[0] for p in parts]), first_cols
        if isinstance(stmt, Select):
            return self._plan_select(stmt)
        raise SqlError(f"cannot plan {stmt!r}")

    def _plan_select(self, sel: Select) -> Tuple[PlanNode, List[str]]:
        has_star = any(isinstance(item.expr, Star) for item in sel.items)

        # Every column the statement touches, for scan pruning.
        refs = set(sel.group_by)
        refs.update(o.column for o in sel.order_by)
        for join in sel.joins:
            refs.add(join.left_key)
            refs.add(join.right_key)
        scoped_exprs: List[Expr] = [
            item.expr for item in sel.items if not isinstance(item.expr, Star)
        ]
        if sel.where is not None:
            scoped_exprs.append(sel.where)
        if sel.having is not None:
            scoped_exprs.append(sel.having)
        for expr in scoped_exprs:
            refs.update(column_refs(expr))

        # FROM + JOIN sources, left-deep.
        node, scope = self._plan_source(sel.source, refs, has_star)
        pushable: Dict[str, ScanNode] = {}
        seen_tables: Dict[str, int] = {}

        def admit(scan_node: PlanNode) -> None:
            if not isinstance(scan_node, ScanNode):
                return
            seen_tables[scan_node.table] = seen_tables.get(scan_node.table, 0) + 1
            if seen_tables[scan_node.table] > 1:
                # ambiguous self-join: nothing from this table is pushable
                for col in SCHEMA[scan_node.table].columns:
                    pushable.pop(col, None)
                return
            for col in SCHEMA[scan_node.table].columns:
                pushable[col] = scan_node

        admit(node)
        for join in sel.joins:
            right, right_cols = self._plan_source(join.source, refs, has_star)
            if join.kind == "inner":
                admit(right)
                scope = scope + [c for c in right_cols if c not in scope]
            node = JoinNode(node, right, join.left_key, join.right_key, join.kind)

        # WHERE: push single-scan conjuncts, AND the rest into one residual.
        residual: List[Expr] = []
        for conjunct in flatten_and(sel.where):
            cols = column_refs(conjunct)
            owners = {pushable[c] for c in cols if c in pushable}
            if cols and len(owners) == 1 and all(c in pushable for c in cols):
                owners.pop().predicates.append(conjunct)
            else:
                residual.append(conjunct)
        if residual:
            node = FilterNode(node, and_fold(residual))

        # Register scalar subqueries (inner-first via recursion).
        for expr in scoped_exprs:
            for scalar in scalar_subqueries(expr):
                sub_root, sub_cols = self._plan_stmt(scalar.query)
                if len(sub_cols) != 1:
                    raise SqlError(
                        f"scalar subquery must produce one column, got {sub_cols}"
                    )
                self.scalars.append((id(scalar), sub_root))

        grouped = bool(sel.group_by) or any(
            contains_aggregate(item.expr) for item in sel.items
        )
        if sel.having is not None and not grouped:
            raise SqlError("HAVING without GROUP BY or aggregates")

        if grouped:
            node, out_names = self._plan_grouped(sel, node, has_star)
        else:
            out_items: List[Tuple[str, Expr]] = []
            for item in sel.items:
                if isinstance(item.expr, Star):
                    out_items.extend((c, Column(c)) for c in scope)
                else:
                    out_items.append((self._item_name(item), item.expr))
            node = ProjectNode(node, out_items)
            out_names = [name for name, _ in out_items]
        if len(set(out_names)) != len(out_names):
            raise SqlError(f"duplicate output columns: {out_names}")

        if sel.distinct:
            node = DistinctNode(node, tuple(out_names))
        if sel.order_by:
            node = SortNode(node, [(o.column, o.descending) for o in sel.order_by])
        if sel.limit is not None:
            node = LimitNode(node, sel.limit)
        return node, out_names

    def _plan_grouped(
        self, sel: Select, node: PlanNode, has_star: bool
    ) -> Tuple[PlanNode, List[str]]:
        if has_star:
            raise SqlError("'*' select item is not valid in a grouped query")
        aggregates: List[Tuple[str, str, Optional[Expr]]] = []
        key_items: Dict[str, Expr] = {}
        out_names: List[str] = []
        for item in sel.items:
            if contains_aggregate(item.expr):
                expr = item.expr
                if not (isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS):
                    raise SqlError(
                        "an aggregate must be the whole select item "
                        "(wrap arithmetic inside the aggregate or use a derived table)"
                    )
                if item.alias is None:
                    raise SqlError(f"aggregate {expr.name.upper()} needs an AS alias")
                arg = None if expr.name == "count" else expr.args[0]
                aggregates.append((item.alias, expr.name, arg))
                out_names.append(item.alias)
            else:
                name = self._item_name(item)
                if name not in sel.group_by:
                    raise SqlError(
                        f"non-aggregate select item {name!r} must appear in GROUP BY"
                    )
                key_items[name] = item.expr
                out_names.append(name)
        for key in sel.group_by:
            expr = key_items.get(key)
            if expr is None:
                continue  # bare existing column used only for grouping
            if isinstance(expr, Column) and expr.name == key:
                continue  # identity: the column already exists under this name
            node = ExtendNode(node, key, expr)
        node = GroupNode(node, keys=list(sel.group_by), aggregates=aggregates)
        if sel.having is not None:
            node = FilterNode(node, sel.having)
        node = ProjectNode(node, [(name, Column(name)) for name in out_names])
        return node, out_names

    def _plan_source(
        self, ref: TableRef, refs, has_star: bool
    ) -> Tuple[PlanNode, List[str]]:
        if ref.subquery is not None:
            return self._plan_stmt(ref.subquery)
        if ref.name not in SCHEMA:
            raise SqlError(
                f"unknown table {ref.name!r}; known: {tuple(SCHEMA)}"
            )
        schema = SCHEMA[ref.name]
        if has_star:
            cols = list(schema.columns)
        else:
            cols = [c for c in schema.columns if c in refs]
            if not cols:  # e.g. SELECT COUNT(*): keep one column to carry rows
                cols = [schema.columns[0]]
        return ScanNode(ref.name, tuple(cols)), cols

    @staticmethod
    def _item_name(item: SelectItem) -> str:
        if item.alias is not None:
            return item.alias
        if isinstance(item.expr, Column):
            return item.expr.name
        raise SqlError("computed select item needs an AS alias")


def plan_statement(stmt) -> PlannedStatement:
    """Lower a parsed statement to a relalg plan."""
    return Planner().plan(stmt)
