"""Plan executor: runs a :class:`PlannedStatement` against an in-memory
TPC-H database and records, per base-table scan, where it ran.

The executor is deliberately *functional*: it computes the exact result
rows using relalg whatever site each scan is assigned, and emits one
:class:`ScanExecution` trace per scan. The simulation layer
(:mod:`repro.sql.session`) turns those traces into device commands and
host-CPU time; the rows themselves never depend on the site, which is
what the differential suite pins down.

Site semantics:

* **host** — without pushed predicates the scan returns the shared
  database table itself (operators never mutate sources, and the final
  project normalises its width); pushed predicates are applied as one
  combined filter that keeps only the planned columns, as the device does.
* **device** — the scan builds a fresh table holding only the planned
  columns with pushed predicates already applied, modelling the PSF
  kernel emitting filtered, projected binary tuples. Its stats start at
  zero: the host CPU never touched those rows.

Every expression is compiled to ``(columns, fn)``
(:func:`repro.sql.exprs.compile_expr`) and bound to the table it runs on
before any row is evaluated: a column that table lacks is a
:class:`~repro.errors.SqlError` naming it. The relalg column-wise cores
then map ``fn`` over the referenced columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytics.relalg import Compiled, Table
from repro.errors import SqlError
from repro.sql.ast_nodes import Column, Expr
from repro.sql.exprs import compile_expr
from repro.sql.planner import (
    DistinctNode,
    ExtendNode,
    FilterNode,
    GroupNode,
    JoinNode,
    LimitNode,
    PlanNode,
    PlannedStatement,
    ProjectNode,
    ScanNode,
    SortNode,
    UnionNode,
    and_fold,
)

SITES = ("host", "device")


def bind_expr(table: Table, expr: Expr, scalars: Dict[int, object]) -> Compiled:
    """Compile ``expr`` for rows of ``table``; a column the table lacks is
    an :class:`SqlError` before any row is evaluated."""
    compiled = compile_expr(expr, scalars)
    for name in compiled[0]:
        if name not in table.columns:
            raise SqlError(
                f"unknown column {name!r}; the input has {', '.join(table.columns)}"
            )
    return compiled


@dataclass
class ScanExecution:
    """One base-table scan as it actually ran."""

    table: str
    site: str  # 'host' | 'device'
    kernel: str  # device kernel this scan maps to: 'psf' (filtered) | 'parse'
    rows_in: int
    rows_out: int
    columns: Tuple[str, ...]
    pushdown: bool  # True when predicates were evaluated at scan time

    @property
    def selectivity(self) -> float:
        return self.rows_out / self.rows_in if self.rows_in else 1.0


@dataclass
class SqlResult:
    """Result table plus the per-scan site trace."""

    table: Table
    scans: List[ScanExecution] = field(default_factory=list)

    @property
    def nrows(self) -> int:
        return self.table.nrows


#: Decides where one scan runs; returns 'host' or 'device'.
SiteChooser = Callable[[ScanNode], str]


class SqlExecutor:
    def __init__(
        self, db: Dict[str, Table], chooser: Optional[SiteChooser] = None
    ) -> None:
        self.db = db
        self.chooser = chooser

    def execute(self, planned: PlannedStatement) -> SqlResult:
        scalars: Dict[int, object] = {}
        scans: List[ScanExecution] = []
        for key, sub_root in planned.scalars:
            scalars[key] = self._resolve_scalar(sub_root, scalars, scans)
        table = self._exec(planned.root, scalars, scans)
        return SqlResult(table=table, scans=scans)

    def _resolve_scalar(self, root, scalars, scans):
        table = self._exec(root, scalars, scans)
        if len(table.columns) != 1:
            raise SqlError(
                f"scalar subquery produced {len(table.columns)} columns"
            )
        values = next(iter(table.columns.values()))
        if len(values) > 1:
            raise SqlError(f"scalar subquery produced {len(values)} rows")
        return values[0] if values else None  # empty → SQL NULL

    # -- node dispatch ---------------------------------------------------------

    def _exec(self, node: PlanNode, scalars, scans) -> Table:
        if isinstance(node, ScanNode):
            return self._exec_scan(node, scalars, scans)
        if isinstance(node, JoinNode):
            left = self._exec(node.left, scalars, scans)
            right = self._exec(node.right, scalars, scans)
            return left.join(right, node.left_key, node.right_key, how=node.how)
        if isinstance(node, FilterNode):
            child = self._exec(node.child, scalars, scans)
            return child.filter_by(*bind_expr(child, node.predicate, scalars))
        if isinstance(node, ExtendNode):
            child = self._exec(node.child, scalars, scans)
            return child.extend_by(node.name, *bind_expr(child, node.expr, scalars))
        if isinstance(node, GroupNode):
            child = self._exec(node.child, scalars, scans)
            aggs = {
                name: (op, bind_expr(child, arg, scalars) if arg is not None else None)
                for name, op, arg in node.aggregates
            }
            return child.aggregate(node.keys, aggs)
        if isinstance(node, ProjectNode):
            child = self._exec(node.child, scalars, scans)
            for name, expr in node.items:
                if isinstance(expr, Column) and expr.name == name:
                    continue
                child = child.extend_by(name, *bind_expr(child, expr, scalars))
            return child.project([name for name, _ in node.items])
        if isinstance(node, DistinctNode):
            child = self._exec(node.child, scalars, scans)
            return child.distinct(node.columns)
        if isinstance(node, SortNode):
            child = self._exec(node.child, scalars, scans)
            return child.order_by(node.keys)
        if isinstance(node, LimitNode):
            child = self._exec(node.child, scalars, scans)
            return child.limit(node.n)
        if isinstance(node, UnionNode):
            return self._exec_union(node, scalars, scans)
        raise SqlError(f"cannot execute plan node {node!r}")

    def _exec_scan(self, node: ScanNode, scalars, scans) -> Table:
        try:
            base = self.db[node.table]
        except KeyError:
            raise SqlError(
                f"table {node.table!r} not loaded; have {tuple(self.db)}"
            ) from None
        site = self.chooser(node) if self.chooser is not None else "host"
        if site not in SITES:
            raise SqlError(f"scan chooser returned {site!r}; want one of {SITES}")
        kernel = "psf" if node.predicates else "parse"
        predicate = (
            bind_expr(base, and_fold(node.predicates), scalars)
            if node.predicates
            else None
        )
        if site == "host":
            out = base.filter_by(*predicate, keep=node.columns) if predicate else base
        else:
            # The device streams raw pages through parse (+ filter when
            # predicates pushed) and emits only the planned columns.
            if predicate:
                flags = base.compute(*predicate)
                cols = {c: list(compress(base.column(c), flags)) for c in node.columns}
            else:
                cols = {c: list(base.column(c)) for c in node.columns}
            out = Table(f"{node.table}@dev", cols)
        scans.append(
            ScanExecution(
                table=node.table,
                site=site,
                kernel=kernel,
                rows_in=base.nrows,
                rows_out=out.nrows,
                columns=node.columns,
                pushdown=bool(node.predicates),
            )
        )
        return out

    def _exec_union(self, node: UnionNode, scalars, scans) -> Table:
        tables = [self._exec(child, scalars, scans) for child in node.children]
        first = tables[0]
        names = list(first.columns)
        cols: Dict[str, list] = {n: list(first.columns[n]) for n in names}
        for other in tables[1:]:
            if set(other.columns) != set(names):
                raise SqlError(
                    f"UNION ALL column mismatch: {names} vs {tuple(other.columns)}"
                )
            for n in names:
                cols[n].extend(other.columns[n])
        out = Table("union", cols)
        for table in tables:
            out.stats.merge(table.stats)
        return out
