"""The closure-tree expression compiler, as the SQL layer ran it before
expressions compiled to positional code, and the row-dict filter.

:func:`compile_expr` turns an AST expression into a ``row -> value``
closure over a dict of the row's column values: one closure per node,
composed at compile time. :func:`filter_rows` is ``relalg.Table.filter``
as it was, building one dict per row. The production compiler
(:func:`repro.sql.exprs.compile_expr`) generates one positional function
per expression; ``tests/test_sql_exprs.py`` runs both on drawn expression
trees and rows and demands an equal ``repr`` of every value or the same
exception type, and ``benchmarks/test_sql_exec_speed.py`` times them on
the TPC-H plans' filters. Only tests and benchmarks use it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.analytics.relalg import Table
from repro.errors import SqlError
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseExpr,
    Column,
    Expr,
    FuncCall,
    InList,
    Like,
    Literal,
    ScalarSubquery,
    Star,
    TupleExpr,
    UnaryOp,
)
from repro.sql.exprs import like_matcher
from repro.sql.parser import AGGREGATE_FUNCS


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compile_expr(
    expr: Expr, scalars: Dict[int, object]
) -> Callable[[Dict[str, object]], object]:
    """Compile ``expr`` to a ``row -> value`` closure.

    ``scalars`` maps ``id(ScalarSubquery node) -> resolved value``; the
    closure reads it at call time, so the executor may fill it after
    compilation but before the first row is evaluated.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Column):
        name = expr.name
        return lambda row: row[name]
    if isinstance(expr, ScalarSubquery):
        key = id(expr)
        return lambda row: scalars[key]
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            left = compile_expr(expr.left, scalars)
            right = compile_expr(expr.right, scalars)
            return lambda row: bool(left(row)) and bool(right(row))
        if expr.op == "or":
            left = compile_expr(expr.left, scalars)
            right = compile_expr(expr.right, scalars)
            return lambda row: bool(left(row)) or bool(right(row))
        fn = _BINOPS[expr.op]
        left = compile_expr(expr.left, scalars)
        right = compile_expr(expr.right, scalars)
        return lambda row: fn(left(row), right(row))
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, scalars)
        if expr.op == "-":
            return lambda row: -operand(row)
        return lambda row: not operand(row)
    if isinstance(expr, TupleExpr):
        fns = [compile_expr(item, scalars) for item in expr.items]
        return lambda row: tuple(fn(row) for fn in fns)
    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, scalars)
        values = frozenset(compile_expr(v, scalars)({}) for v in expr.values)
        if expr.negated:
            return lambda row: operand(row) not in values
        return lambda row: operand(row) in values
    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, scalars)
        match = like_matcher(expr.pattern)
        return lambda row: match(operand(row))
    if isinstance(expr, CaseExpr):
        whens = [
            (compile_expr(cond, scalars), compile_expr(result, scalars))
            for cond, result in expr.whens
        ]
        default = (
            compile_expr(expr.default, scalars)
            if expr.default is not None
            else (lambda row: None)
        )

        def case(row):
            for cond, result in whens:
                if cond(row):
                    return result(row)
            return default(row)

        return case
    if isinstance(expr, FuncCall):
        return _compile_func(expr, scalars)
    if isinstance(expr, Star):
        raise SqlError("'*' is only valid in COUNT(*) or as a select item")
    raise SqlError(f"cannot compile expression {expr!r}")


def _compile_func(expr: FuncCall, scalars: Dict[int, object]):
    if expr.name in AGGREGATE_FUNCS:
        raise SqlError(
            f"aggregate {expr.name.upper()} outside a grouped select item"
        )
    if expr.name == "coalesce":
        fns = [compile_expr(arg, scalars) for arg in expr.args]

        def coalesce(row):
            for fn in fns:
                value = fn(row)
                if value is not None:
                    return value
            return None

        return coalesce
    if expr.name == "floor":
        if len(expr.args) != 1:
            raise SqlError("FLOOR takes one argument")
        operand = compile_expr(expr.args[0], scalars)
        return lambda row: math.floor(operand(row))
    if expr.name == "substring":
        if len(expr.args) != 3:
            raise SqlError("SUBSTRING takes (string, start, length)")
        base = compile_expr(expr.args[0], scalars)
        start = compile_expr(expr.args[1], scalars)
        length = compile_expr(expr.args[2], scalars)

        def substring(row):
            s = base(row)
            i = start(row) - 1  # SQL is 1-indexed
            return s[i : i + length(row)]

        return substring
    raise SqlError(f"unknown function {expr.name!r}")  # pragma: no cover


def filter_rows(table: Table, predicate: Callable[[Dict[str, object]], object]) -> Table:
    """Row-wise selection; predicate sees a dict of column values."""
    keep: List[int] = []
    names = list(table.columns)
    cols = [table.columns[n] for n in names]
    for i, values in enumerate(zip(*cols)):
        if predicate(dict(zip(names, values))):
            keep.append(i)
    out_cols = {n: [table.columns[n][i] for i in keep] for n in table.columns}
    out = Table(table.name, out_cols)
    out.stats.merge(table.stats)
    out.stats.rows_scanned += table.nrows
    out.stats.rows_filtered_in += len(keep)
    return out
