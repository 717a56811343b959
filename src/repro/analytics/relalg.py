"""Mini relational-algebra engine: columnar tables + the operators the
22 TPC-H queries need (scan/filter/project/hash-join/group-aggregate/sort).

Computed values are evaluated column-wise: :meth:`Table.compute` maps a
function over the lists of the columns it reads, and the filter, extend
and group-by cores (:meth:`Table.filter_by`, :meth:`Table.extend_by`,
:meth:`Table.aggregate`) are built on it. The SQL executor feeds them
compiled expressions (:func:`repro.sql.exprs.compile_expr`). The
row-dict forms (:meth:`Table.filter`, :meth:`Table.extend`,
:meth:`Table.group_by`), which the hand-written TPC-H plans use, are thin
adapters over the same cores. Joins and the other row movers gather
output rows by index.

Every operator records how many rows and bytes it touched in a shared
:class:`ExecutionStats`, which is what the host cost model prices when
estimating query CPU time (Figure 15).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat, starmap
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalyticsError

#: Aggregate ops of :meth:`Table.aggregate`.
AGGREGATE_OPS = ("sum", "min", "max", "count", "avg")

#: A column-wise function: the columns it reads, and a function of one
#: row's values in them (what :func:`repro.sql.exprs.compile_expr` returns).
Compiled = Tuple[Tuple[str, ...], Callable[..., Any]]


@dataclass
class ExecutionStats:
    """Operator-level work counters for one query execution."""

    rows_scanned: int = 0
    rows_filtered_in: int = 0
    rows_joined: int = 0
    rows_aggregated: int = 0
    rows_sorted: int = 0
    build_rows: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_filtered_in += other.rows_filtered_in
        self.rows_joined += other.rows_joined
        self.rows_aggregated += other.rows_aggregated
        self.rows_sorted += other.rows_sorted
        self.build_rows += other.build_rows


class Table:
    """A columnar table: named columns of equal length."""

    def __init__(self, name: str, columns: Dict[str, List[Any]]) -> None:
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise AnalyticsError(f"table {name}: ragged columns {lengths}")
        self.name = name
        self.columns = columns
        self.nrows = lengths.pop() if lengths else 0
        self.stats = ExecutionStats()

    # -- basics ------------------------------------------------------------------

    def column(self, name: str) -> List[Any]:
        try:
            return self.columns[name]
        except KeyError:
            raise AnalyticsError(
                f"table {self.name} has no column {name!r}; has {tuple(self.columns)}"
            ) from None

    def iter_rows(self) -> Iterable[Dict[str, Any]]:
        names = list(self.columns)
        cols = [self.columns[n] for n in names]
        for values in zip(*cols):
            yield dict(zip(names, values))

    def _derive(self, name: str, columns: Dict[str, List[Any]]) -> "Table":
        out = Table(name, columns)
        out.stats.merge(self.stats)
        return out

    def _row_tuples(self, columns: Sequence[str]) -> Iterable[Tuple[Any, ...]]:
        """Each row's values in ``columns``, as a tuple, in row order."""
        if not columns:
            return repeat((), self.nrows)
        return zip(*[self.column(c) for c in columns])

    def take(
        self, indices: Iterable[int], columns: Optional[Sequence[str]] = None
    ) -> "Table":
        """The rows at ``indices``, in that order, of ``columns`` (default:
        all); the result's stats start at zero."""
        names = self.columns if columns is None else columns
        return Table(self.name, {n: _gather(self.column(n), indices) for n in names})

    # -- column-wise cores ---------------------------------------------------------

    def compute(self, columns: Sequence[str], fn: Callable[..., Any]) -> List[Any]:
        """``fn(*values)`` of every row, in row order, where ``values`` are
        the row's entries in ``columns``."""
        return list(starmap(fn, self._row_tuples(columns)))

    def filter_by(
        self, columns: Sequence[str], fn: Callable[..., Any], keep: Optional[Sequence[str]] = None
    ) -> "Table":
        """Keep the rows whose ``fn(*values of columns)`` is true, in order,
        with the columns in ``keep`` (default: all)."""
        flags = self.compute(columns, fn)
        names = self.columns if keep is None else keep
        out = self._derive(
            self.name, {n: list(compress(self.column(n), flags)) for n in names}
        )
        out.stats.rows_scanned += self.nrows
        out.stats.rows_filtered_in += out.nrows
        return out

    def extend_by(
        self, name: str, columns: Sequence[str], fn: Callable[..., Any]
    ) -> "Table":
        """Add the computed column ``name``: ``fn(*values of columns)`` per row."""
        values = self.compute(columns, fn)
        cols = {c: list(v) for c, v in self.columns.items()}
        cols[name] = values
        out = self._derive(self.name, cols)
        out.stats.rows_scanned += self.nrows
        return out

    def aggregate(
        self, keys: Sequence[str], aggregates: Dict[str, Tuple[str, Optional[Compiled]]]
    ) -> "Table":
        """Group by ``keys`` and aggregate.

        ``aggregates`` maps output column -> ``(op, (columns, fn))`` with op
        in :data:`AGGREGATE_OPS`; ``fn(*values of columns)`` is the
        aggregated value per row (``None`` instead of the pair for count).
        Groups appear in order of their first row; each aggregate folds its
        group's values in row order.
        """
        for out_name, (op, _) in aggregates.items():
            if op not in AGGREGATE_OPS:
                raise AnalyticsError(f"unknown aggregate op {op!r}")
            if out_name in keys:
                raise AnalyticsError(f"aggregate {out_name!r} shadows a group key")
        groups: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
        for i, key in enumerate(self._row_tuples(keys)):
            groups[key].append(i)
        members = list(groups.values())
        key_columns = list(zip(*groups)) or [()] * len(keys)
        out_cols: Dict[str, List[Any]] = {
            k: list(values) for k, values in zip(keys, key_columns)
        }
        for out_name, (op, compiled) in aggregates.items():
            if op == "count":
                out_cols[out_name] = [len(rows) for rows in members]
                continue
            get = self.compute(*compiled).__getitem__
            if op == "sum":
                out_cols[out_name] = [sum(map(get, rows)) for rows in members]
            elif op == "min":
                out_cols[out_name] = [min(map(get, rows)) for rows in members]
            elif op == "max":
                out_cols[out_name] = [max(map(get, rows)) for rows in members]
            else:
                out_cols[out_name] = [
                    sum(map(get, rows)) / len(rows) for rows in members
                ]
        out = self._derive(f"{self.name}#g", out_cols)
        out.stats.rows_aggregated += self.nrows
        return out

    # -- row-dict adapters -------------------------------------------------------------

    def _row_fn(self, fn: Callable[[Dict[str, Any]], Any]) -> Compiled:
        """``fn`` over a dict of the whole row, as a column-wise pair."""
        names = tuple(self.columns)
        return names, lambda *values: fn(dict(zip(names, values)))

    def filter(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Table":
        """Row-wise selection; predicate sees a dict of column values."""
        return self.filter_by(*self._row_fn(predicate))

    def filter_eq(self, column: str, value: Any) -> "Table":
        return self.filter_by((column,), lambda v: v == value)

    def extend(self, name: str, fn: Callable[[Dict[str, Any]], Any]) -> "Table":
        """Add a computed column; ``fn`` sees a dict of column values."""
        return self.extend_by(name, *self._row_fn(fn))

    def group_by(
        self,
        keys: Sequence[str],
        aggregates: Dict[str, Tuple[str, Optional[Callable[[Dict[str, Any]], Any]]]],
    ) -> "Table":
        """Group + aggregate.

        ``aggregates`` maps output column -> (op, row_fn) with op in
        {sum, min, max, count, avg}; ``row_fn`` computes the aggregated
        expression per row from a dict of its values (None means count).
        """
        return self.aggregate(
            keys,
            {
                name: (op, None if fn is None else self._row_fn(fn))
                for name, (op, fn) in aggregates.items()
            },
        )

    # -- operators -----------------------------------------------------------------

    def project(self, columns: Sequence[str]) -> "Table":
        out = self._derive(self.name, {c: list(self.column(c)) for c in columns})
        out.stats.rows_scanned += self.nrows
        return out

    def join(
        self,
        other: "Table",
        left_key: str,
        right_key: str,
        how: str = "inner",
    ) -> "Table":
        """Hash equi-join. Column name collisions keep the left value."""
        if how not in ("inner", "semi", "anti"):
            raise AnalyticsError(f"unsupported join type {how!r}")
        index: Dict[Any, List[int]] = defaultdict(list)
        for i, key in enumerate(other.column(right_key)):
            index[key].append(i)
        left_keys = self.column(left_key)
        right_rows: List[int] = []
        if how == "semi":
            left_rows = [i for i, key in enumerate(left_keys) if key in index]
            matched = len(left_rows)
        elif how == "anti":
            left_rows = [i for i, key in enumerate(left_keys) if key not in index]
            matched = 0
        else:
            left_rows = []
            get = index.get
            for i, key in enumerate(left_keys):
                hits = get(key)
                if hits:
                    left_rows += [i] * len(hits)
                    right_rows += hits
            matched = len(left_rows)
        out_cols = {n: _gather(col, left_rows) for n, col in self.columns.items()}
        if how == "inner":
            for n, col in other.columns.items():
                if n not in self.columns:
                    out_cols[n] = _gather(col, right_rows)
        out = Table(f"{self.name}*{other.name}", out_cols)
        out.stats.merge(self.stats)
        out.stats.merge(other.stats)
        out.stats.build_rows += other.nrows
        out.stats.rows_joined += self.nrows + matched
        return out

    def order_by(self, keys: Sequence[Tuple[str, bool]]) -> "Table":
        """Sort by [(column, descending)] pairs."""
        indices = list(range(self.nrows))
        for column, descending in reversed(list(keys)):
            col = self.column(column)
            indices.sort(key=lambda i: col[i], reverse=descending)
        out = self._derive(self.name, self.take(indices).columns)
        out.stats.rows_sorted += self.nrows
        return out

    def limit(self, n: int) -> "Table":
        return self._derive(self.name, {c: col[:n] for c, col in self.columns.items()})

    def distinct(self, columns: Sequence[str]) -> "Table":
        seen = set()
        keep: List[int] = []
        for i, key in enumerate(self._row_tuples(columns)):
            if key not in seen:
                seen.add(key)
                keep.append(i)
        out = self._derive(self.name, self.take(keep).columns)
        out.stats.rows_aggregated += self.nrows
        return out

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.nrows}, cols={tuple(self.columns)})"


def _gather(values: List[Any], indices: Iterable[int]) -> List[Any]:
    """``[values[i] for i in indices]``."""
    return list(map(values.__getitem__, indices))
