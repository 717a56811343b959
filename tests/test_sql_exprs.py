"""The SQL expression compiler against its closure-tree oracle.

:func:`repro.sql.exprs.compile_expr` generates one positional Python
function per expression; ``tests/sql_oracle.py`` holds the closure-tree
compiler it replaced. Both compile the same expression trees (drawn, and
hand-picked), scalar subqueries are filled after compiling, and both
evaluate the same rows: the values must have an equal ``repr`` and a
raising expression must raise the same exception type, at compile time or
at call time. The compile-time rejections stay :class:`SqlError`, and so
is a column the executor's input table lacks, before any row is evaluated.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics.relalg import Table
from repro.errors import SqlError
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseExpr,
    Column,
    FuncCall,
    InList,
    Like,
    Literal,
    ScalarSubquery,
    Star,
    TupleExpr,
    UnaryOp,
)
from repro.sql.executor import SqlExecutor
from repro.sql.exprs import compile_expr, walk
from repro.sql.parser import parse_sql
from repro.sql.planner import plan_statement

from tests import sql_oracle as oracle

COLUMNS = ("a", "b", "s", "t")
BINOPS = ("+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "and", "or")

# Numbers stay small so nested ``*`` of a string or tuple stays small too.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3.5, 3.5),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(alphabet="ab%'\"\\\n ", max_size=5),
)
PATTERNS = st.text(alphabet="ab%'\\", max_size=6)


def _scalar():
    return st.builds(ScalarSubquery, st.none())


#: IN-list items: constants (a scalar subquery is read at compile time).
CONSTANTS = st.recursive(
    VALUES.map(Literal) | _scalar(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2).map(TupleExpr),
        st.builds(UnaryOp, st.just("-"), inner),
        st.builds(BinaryOp, st.sampled_from(BINOPS), inner, inner),
    ),
    max_leaves=3,
)


def _nodes(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(BINOPS), children, children),
        st.builds(UnaryOp, st.sampled_from(["-", "not"]), children),
        st.lists(children, max_size=3).map(TupleExpr),
        st.builds(InList, children, st.lists(CONSTANTS, max_size=4), st.booleans()),
        st.builds(Like, children, PATTERNS),
        st.builds(
            CaseExpr,
            st.lists(st.tuples(children, children), min_size=1, max_size=3),
            st.none() | children,
        ),
        st.lists(children, max_size=3).map(lambda args: FuncCall("coalesce", args)),
        children.map(lambda arg: FuncCall("floor", [arg])),
        st.lists(children, min_size=3, max_size=3).map(
            lambda args: FuncCall("substring", args)
        ),
    )


#: Rejected at compile time, wherever they sit in a tree.
REJECTED = st.one_of(
    st.builds(Star),
    st.sampled_from(["sum", "min", "max", "avg", "count"]).map(
        lambda name: FuncCall(name, [Column("a")])
    ),
    st.just(FuncCall("nosuch", [Literal(1)])),
    st.just(FuncCall("floor", [])),
    st.just(FuncCall("substring", [Column("s"), Literal(1)])),
)

EXPRS = st.recursive(
    st.one_of(
        VALUES.map(Literal),
        st.sampled_from(COLUMNS).map(Column),
        _scalar(),
    ),
    _nodes,
    max_leaves=12,
)
ROWS = st.fixed_dictionaries({name: VALUES for name in COLUMNS})


def _outcome(thunk):
    try:
        return "value", repr(thunk())
    except Exception as exc:  # the exception type is the outcome
        return "raises", type(exc)


def assert_same_outcome(expr, row, scalar_values):
    """Compile ``expr`` with both compilers, fill the scalars, evaluate."""
    oracle_scalars, scalars = {}, {}
    compiled_oracle = _outcome(lambda: oracle.compile_expr(expr, oracle_scalars))
    compiled = _outcome(lambda: compile_expr(expr, scalars))
    if "raises" in (compiled_oracle[0], compiled[0]):
        assert compiled == compiled_oracle
        return
    oracle_fn = oracle.compile_expr(expr, oracle_scalars)
    columns, fn = compile_expr(expr, scalars)
    assert set(columns) <= set(COLUMNS)
    for node, value in zip(_scalar_nodes(expr), scalar_values):
        oracle_scalars[id(node)] = scalars[id(node)] = value
    expected = _outcome(lambda: oracle_fn(row))
    assert _outcome(lambda: fn(*[row[name] for name in columns])) == expected


def _scalar_nodes(expr):
    return [node for node in walk(expr) if isinstance(node, ScalarSubquery)]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    expr=st.one_of(
        EXPRS,
        st.builds(BinaryOp, st.sampled_from(BINOPS), EXPRS, REJECTED),
        st.builds(CaseExpr, st.lists(st.tuples(EXPRS, REJECTED), min_size=1, max_size=2)),
    ),
    row=ROWS,
    scalar_values=st.lists(VALUES, min_size=16, max_size=16),
)
def test_compiled_expressions_match_the_oracle(expr, row, scalar_values):
    assert_same_outcome(expr, row, scalar_values)


a, b, s, t = (Column(name) for name in COLUMNS)
ROW = {"a": 2, "b": 0, "s": "PROMO green box", "t": None}
RAISES = BinaryOp("/", Literal(1), b)  # b = 0
SCALAR = ScalarSubquery(None)

CASES = {
    "and short-circuits": BinaryOp("and", BinaryOp("<", a, Literal(0)), RAISES),
    "or short-circuits": BinaryOp("or", BinaryOp(">", a, Literal(0)), RAISES),
    "and reaches a raising right side": BinaryOp("and", a, RAISES),
    "or of non-bools": BinaryOp("or", t, s),
    "not of a column": UnaryOp("not", b),
    "comparisons do not chain": BinaryOp("<", BinaryOp("<", Literal(3), a), Literal(1)),
    "right-nested arithmetic": BinaryOp("-", a, BinaryOp("-", Literal(5), a)),
    "negated sum": UnaryOp("-", BinaryOp("+", a, Literal(1.5))),
    "case without else": CaseExpr([(BinaryOp("=", a, Literal(9)), Literal("x"))]),
    "case picks the first true": CaseExpr(
        [(b, Literal(1)), (a, Literal(2)), (a, RAISES)], Literal(3)
    ),
    "nested case": CaseExpr([(CaseExpr([(a, b)], a), Literal("y"))], Literal("z")),
    "in": InList(a, [Literal(1), Literal(2.0)]),
    "not in": InList(s, [Literal("x"), Literal("PROMO green box")], negated=True),
    "in tuples": InList(TupleExpr([a, b]), [TupleExpr([Literal(2), Literal(0)])]),
    "in with a null": InList(t, [Literal(None)]),
    "like prefix": Like(s, "PROMO%"),
    "like multi-%": Like(s, "%O%gr%n%"),
    "like out of order": Like(s, "%green%PROMO%"),
    "like on a non-string": Like(a, "%2%"),
    "coalesce": FuncCall("coalesce", [t, s, RAISES]),
    "coalesce of nulls": FuncCall("coalesce", [t, Literal(None)]),
    "coalesce of nothing": FuncCall("coalesce", []),
    "substring": FuncCall("substring", [s, a, Literal(4)]),
    "substring of a null": FuncCall("substring", [t, Literal(1), Literal(2)]),
    "floor": FuncCall("floor", [BinaryOp("/", Literal(-7), a)]),
    "floor of a string": FuncCall("floor", [s]),
    "scalar filled after compiling": BinaryOp(">", a, SCALAR),
    "scalar in coalesce": FuncCall("coalesce", [SCALAR, Literal(0.0)]),
    "constant": BinaryOp("*", Literal(6), Literal(7)),
    "constant case": CaseExpr([(Literal(0), Literal(1))]),
    "quotes and backslashes": BinaryOp("+", Literal("it's \\ \"q\"\n"), s),
    "source-like literal": Literal("') or __import__('os') #"),
    "tuple of one": TupleExpr([a]),
    "empty tuple": TupleExpr([]),
    "bool arithmetic": BinaryOp("+", BinaryOp("<", a, Literal(3)), Literal(1)),
    "null arithmetic": BinaryOp("+", t, Literal(1)),
    "string and number compare": BinaryOp("<", s, a),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_picked_expressions_match_the_oracle(name):
    assert_same_outcome(CASES[name], ROW, [1.25])


def test_scalar_subqueries_are_read_at_call_time():
    scalar = ScalarSubquery(None)
    scalars = {}
    columns, fn = compile_expr(BinaryOp("+", a, scalar), scalars)
    with pytest.raises(KeyError):
        fn(1)
    scalars[id(scalar)] = 10
    assert fn(1) == 11
    scalars[id(scalar)] = 20
    assert fn(1) == 21


def test_columns_become_parameters_and_values_stay_out_of_the_source():
    secret = "') or __import__('os') #"
    expr = BinaryOp(
        "and",
        BinaryOp("=", Column("l_comment"), Literal(secret)),
        BinaryOp("or", Column("select"), Column("l_comment")),
    )
    columns, fn = compile_expr(expr, {})
    assert columns == ("l_comment", "select")
    code = fn.__code__
    assert code.co_varnames[: code.co_argcount] == ("c0", "c1")
    assert secret not in repr(code.co_consts)
    assert all(name not in code.co_names for name in columns)
    assert fn(secret, 0) is True and fn("x", 1) is False


@pytest.mark.parametrize("op", ["or", "and", "+", "-", "*"])
def test_a_long_left_deep_chain_compiles(op):
    # The parser builds chains like these from long AND/OR/+ runs.
    expr = BinaryOp("=", a, Literal(-1))
    for i in range(400):
        right = BinaryOp("<>", a, Literal(i)) if op in ("and", "or") else Literal(i % 3 + 1)
        expr = BinaryOp(op, expr, right)
    for value in (-1, 7, 399, 400):
        assert_same_outcome(expr, dict(ROW, a=value), [])


@pytest.mark.parametrize(
    "expr",
    [
        Star(),
        FuncCall("sum", [Column("a")]),
        FuncCall("count", [Star()]),
        BinaryOp("+", Literal(1), FuncCall("avg", [Column("a")])),
        FuncCall("nosuch", [Column("a")]),
        FuncCall("floor", []),
        FuncCall("floor", [Column("a"), Column("b")]),
        FuncCall("substring", [Column("s"), Literal(1)]),
        CaseExpr([(Column("a"), FuncCall("max", [Column("b")]))]),
    ],
    ids=repr,
)
def test_compile_time_rejections_are_sql_errors(expr):
    with pytest.raises(SqlError):
        oracle.compile_expr(expr, {})
    with pytest.raises(SqlError):
        compile_expr(expr, {})


def test_an_in_list_item_reading_a_column_is_a_sql_error():
    expr = InList(Column("l_orderkey"), [Column("l_partkey"), Literal(3)])
    with pytest.raises(SqlError, match="l_partkey"):
        compile_expr(expr, {})


# -- binding to a table ----------------------------------------------------------

NAME_ERRORS = {
    "residual filter": ("SELECT l_orderkey FROM lineitem WHERE l_shipdate > nosuch", "nosuch"),
    "pushed IN list": (
        "SELECT l_orderkey FROM lineitem WHERE l_orderkey IN (l_partkey, 3)",
        "l_partkey",
    ),
    "select item": ("SELECT l_orderkey + nosuch AS x FROM lineitem", "nosuch"),
    "aggregate": (
        "SELECT l_orderkey, SUM(nosuch) AS x FROM lineitem GROUP BY l_orderkey",
        "nosuch",
    ),
    "having": (
        "SELECT l_orderkey, COUNT(*) AS n FROM lineitem GROUP BY l_orderkey "
        "HAVING nosuch > 1",
        "nosuch",
    ),
}


@pytest.mark.parametrize("rows", [2, 0])
@pytest.mark.parametrize("site", ["host", "device"])
@pytest.mark.parametrize("name", sorted(NAME_ERRORS))
def test_unknown_columns_are_sql_errors_before_any_row_runs(name, site, rows):
    sql, column = NAME_ERRORS[name]
    lineitem = Table(
        "lineitem",
        {
            "l_orderkey": [1, 2][:rows],
            "l_partkey": [3, 4][:rows],
            "l_shipdate": [5, 6][:rows],
        },
    )
    executor = SqlExecutor({"lineitem": lineitem}, chooser=lambda scan: site)
    with pytest.raises(SqlError, match=repr(column)):
        executor.execute(plan_statement(parse_sql(sql)))
