"""Expression analysis and compilation to positional Python functions.

The planner needs three static analyses (which columns an expression
touches, whether it contains an aggregate, which scalar subqueries it
embeds) and one code generator: :func:`compile_expr` turns an AST
expression into ``(columns, fn)``, one generated Python function whose
parameters are the columns the expression reads, so relalg can ``map`` it
over those column lists without building a row. Scalar subqueries compile
to lookups in a mutable ``scalars`` dict keyed by AST node identity, read
at call time — the executor resolves every subquery into that dict before
the functions run.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Set, Tuple

from repro.analytics.relalg import Compiled
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
from repro.sql.parser import AGGREGATE_FUNCS


def column_refs(expr: Expr) -> Set[str]:
    """Column names ``expr`` reads, excluding scalar-subquery interiors."""
    out: Set[str] = set()
    for node in walk(expr):
        if isinstance(node, Column):
            out.add(node.name)
    return out


def contains_aggregate(expr: Expr) -> bool:
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCS
        for node in walk(expr)
    )


def scalar_subqueries(expr: Expr) -> List[ScalarSubquery]:
    """Scalar subqueries at *this* scope (their interiors are not walked)."""
    return [node for node in walk(expr) if isinstance(node, ScalarSubquery)]


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order walk; does not descend into scalar-subquery bodies."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, TupleExpr):
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for value in expr.values:
            yield from walk(value)
    elif isinstance(expr, Like):
        yield from walk(expr.operand)
    elif isinstance(expr, CaseExpr):
        for cond, result in expr.whens:
            yield from walk(cond)
            yield from walk(result)
        if expr.default is not None:
            yield from walk(expr.default)


def like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a LIKE pattern (``%`` wildcards only) to a predicate.

    Segments between wildcards must appear left to right; leading/trailing
    segments are anchored. The common cases reduce to str builtins:
    ``'PROMO%'`` → startswith, ``'%green%'`` → contains, exact otherwise.
    """
    parts = pattern.split("%")
    if len(parts) == 1:
        return lambda s: s == pattern
    head, tail, middle = parts[0], parts[-1], [p for p in parts[1:-1] if p]
    if not middle:
        if head and tail:
            return lambda s: (
                len(s) >= len(head) + len(tail)
                and s.startswith(head)
                and s.endswith(tail)
            )
        if head:
            return lambda s: s.startswith(head)
        if tail:
            return lambda s: s.endswith(tail)
        return lambda s: True  # bare '%' / '%%'

    def match(s: str) -> bool:
        if head and not s.startswith(head):
            return False
        if tail and not s.endswith(tail):
            return False
        pos = len(head)
        end = len(s) - len(tail)
        for seg in middle:
            idx = s.find(seg, pos, end)
            if idx < 0:
                return False
            pos = idx + len(seg)
        return True

    return match


# Python binding levels of generated source, loosest first: ``x if c else
# y``, ``or``, ``and``, ``not``, comparisons and ``in``, ``+``/``-``,
# ``*``/``/``, unary minus, atoms (names, calls, subscripts, displays).
_COND, _OR, _AND, _NOT, _CMP, _ADD, _MUL, _NEG, _ATOM = range(9)

#: SQL binary operator -> (Python operator, its binding level).
_BINOPS = {
    "+": ("+", _ADD),
    "-": ("-", _ADD),
    "*": ("*", _MUL),
    "/": ("/", _MUL),
    "=": ("==", _CMP),
    "<>": ("!=", _CMP),
    "<": ("<", _CMP),
    "<=": ("<=", _CMP),
    ">": (">", _CMP),
    ">=": (">=", _CMP),
}

#: Operators whose result is already a bool for every value SQL produces
#: (int, float, str, None, bool and tuples of them), so AND/OR need no
#: ``bool()`` around them.
_BOOL_OPS = frozenset(("and", "or", "=", "<>", "<", "<=", ">", ">="))


def _level(op: str) -> int:
    if op == "and":
        return _AND
    if op == "or":
        return _OR
    return _BINOPS[op][1]


def compile_expr(expr: Expr, scalars: Dict[int, object]) -> Compiled:
    """Compile ``expr`` to ``(columns, fn)``: ``fn(*values)`` evaluates it on
    one row whose ``columns`` hold ``values``.

    The body is the expression's own operators, in its evaluation order:
    AND/OR short-circuit as ``bool(l) and bool(r)``; CASE, COALESCE, IN,
    LIKE, FLOOR and SUBSTRING keep their SQL-layer meaning. Literals,
    IN-sets and LIKE matchers are bound in the function's namespace, and
    column names only pick parameters, so no value reaches the source
    text. IN values are evaluated here, once; ``scalars`` maps
    ``id(ScalarSubquery node) -> resolved value`` and is read when ``fn``
    runs, so the executor may fill it after compilation but before the
    first row is evaluated.
    """
    codegen = _Codegen(scalars)
    try:
        source, _ = codegen.emit(expr)
        params = ", ".join(codegen.params.values())
        code = compile(
            f"def sql_expr({params}):\n    return {source}\n",
            "<sql expression>",
            "exec",
        )
    except (SyntaxError, RecursionError) as exc:
        raise SqlError(f"expression too deeply nested to compile ({exc})") from None
    exec(code, codegen.namespace)
    return tuple(codegen.params), codegen.namespace["sql_expr"]


class _Codegen:
    """Emits one expression as Python source over positional parameters."""

    def __init__(self, scalars: Dict[int, object]) -> None:
        self.scalars = scalars
        self.params: Dict[str, str] = {}  # column name -> parameter name
        self.namespace: Dict[str, object] = {"_S": scalars, "floor": math.floor}
        self.temps = 0

    def bind(self, value: object) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def operand(self, expr: Expr, level: int) -> str:
        """Source of ``expr``, parenthesised if it binds looser than ``level``."""
        source, own = self.emit(expr)
        return source if own >= level else f"({source})"

    def truth(self, expr: Expr, level: int) -> str:
        """Source of ``bool(expr)``; the call is left out where ``expr``
        already yields a bool."""
        yields_bool = isinstance(expr, (InList, Like)) or (
            isinstance(expr, UnaryOp) and expr.op != "-"
        ) or (isinstance(expr, BinaryOp) and expr.op in _BOOL_OPS)
        if yields_bool:
            return self.operand(expr, level)
        return f"bool({self.emit(expr)[0]})"

    def constant(self, expr: Expr) -> object:
        """Value of an IN-list item, which may read no column."""
        if isinstance(expr, Literal):
            return expr.value
        columns, fn = compile_expr(expr, self.scalars)
        if columns:
            raise SqlError(
                f"IN list item reads column {columns[0]!r}; IN takes constants"
            )
        return fn()

    def emit(self, expr: Expr) -> Tuple[str, int]:
        """``(source, binding level)`` of ``expr``."""
        if isinstance(expr, Literal):
            return self.bind(expr.value), _ATOM
        if isinstance(expr, Column):
            param = self.params.get(expr.name)
            if param is None:
                param = self.params[expr.name] = f"c{len(self.params)}"
            return param, _ATOM
        if isinstance(expr, ScalarSubquery):
            return f"_S[{self.bind(id(expr))}]", _ATOM
        if isinstance(expr, BinaryOp):
            return self.binary(expr)
        if isinstance(expr, UnaryOp):
            if expr.op == "-":
                return "-" + self.operand(expr.operand, _NEG), _NEG
            return "not " + self.operand(expr.operand, _NOT), _NOT
        if isinstance(expr, TupleExpr):
            items = [self.operand(item, _COND) for item in expr.items]
            if len(items) == 1:
                return f"({items[0]},)", _ATOM
            return f"({', '.join(items)})", _ATOM
        if isinstance(expr, InList):
            operand = self.operand(expr.operand, _CMP + 1)
            values = frozenset(self.constant(v) for v in expr.values)
            op = "not in" if expr.negated else "in"
            return f"{operand} {op} {self.bind(values)}", _CMP
        if isinstance(expr, Like):
            operand = self.operand(expr.operand, _COND)
            return f"{self.bind(like_matcher(expr.pattern))}({operand})", _ATOM
        if isinstance(expr, CaseExpr):
            whens = [
                (self.operand(cond, _OR), self.operand(result, _OR))
                for cond, result in expr.whens
            ]
            source = (
                self.operand(expr.default, _COND)
                if expr.default is not None
                else self.bind(None)
            )
            for cond, result in reversed(whens):
                source = f"{result} if {cond} else {source}"
            return source, _COND
        if isinstance(expr, FuncCall):
            return self.function(expr)
        if isinstance(expr, Star):
            raise SqlError("'*' is only valid in COUNT(*) or as a select item")
        raise SqlError(f"cannot compile expression {expr!r}")

    def binary(self, expr: BinaryOp) -> Tuple[str, int]:
        # The parser builds AND/OR/+/* chains left-deep; a run of one
        # binding level down the left spine is emitted in a loop, so a long
        # chain costs no recursion. Comparisons must not chain: both their
        # sides bind tighter.
        level = _level(expr.op)
        spine = [expr]
        if level != _CMP:
            while isinstance(spine[-1].left, BinaryOp) and _level(spine[-1].left.op) == level:
                spine.append(spine[-1].left)
        if level in (_AND, _OR):
            source = self.truth(spine[-1].left, level)
            for node in reversed(spine):
                source = f"{source} {node.op} {self.truth(node.right, level + 1)}"
        else:
            source = self.operand(spine[-1].left, level + (level == _CMP))
            for node in reversed(spine):
                op = _BINOPS[node.op][0]
                source = f"{source} {op} {self.operand(node.right, level + 1)}"
        return source, level

    def function(self, expr: FuncCall) -> Tuple[str, int]:
        if expr.name in AGGREGATE_FUNCS:
            raise SqlError(
                f"aggregate {expr.name.upper()} outside a grouped select item"
            )
        if expr.name == "coalesce":
            # The first non-NULL argument; later ones are not evaluated.
            args = [self.operand(arg, _COND) for arg in expr.args]
            source = self.bind(None)
            for arg in reversed(args):
                t = self.temp()
                source = f"{t} if ({t} := {arg}) is not None else {source}"
            return source, _COND
        if expr.name == "floor":
            if len(expr.args) != 1:
                raise SqlError("FLOOR takes one argument")
            return f"floor({self.operand(expr.args[0], _COND)})", _ATOM
        if expr.name == "substring":
            if len(expr.args) != 3:
                raise SqlError("SUBSTRING takes (string, start, length)")
            base = self.operand(expr.args[0], _ATOM)
            start = self.operand(expr.args[1], _ADD)
            length = self.operand(expr.args[2], _ADD + 1)
            t = self.temp()  # SQL is 1-indexed
            return f"{base}[({t} := {start} - 1):{t} + {length}]", _ATOM
        raise SqlError(f"unknown function {expr.name!r}")
