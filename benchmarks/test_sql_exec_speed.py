"""SQL executor speed: compiled column-wise filters vs the closure-tree oracle.

Every TPC-H query evaluates its pushed scan predicates and its residual
(and HAVING) filters over whole tables. The production path compiles each
predicate to one positional function (:func:`repro.sql.exprs.compile_expr`)
and keeps rows with the column-wise ``Table.filter_by``; the oracle in
``tests/sql_oracle.py`` compiles it to a closure tree and filters one
row dict at a time. This harness, at scale factor ``SF``:

* collects every scan and residual filter of the 22 planned statements
  (scalar subplans included), with the table each one reads and its
  resolved scalar subqueries;
* evaluates all of them through both paths, demands equal kept rows and
  stats, and gates the oracle/production wall ratio at ``MIN_SPEEDUP``x
  (relative to the oracle on the same machine, so it holds on slow CI
  boxes too);
* records, without a gate, the executor's wall per query for the 22
  statements with every scan on the host and with every scan on the
  device.

Emits ``BENCH_sql_exec.json`` before it asserts.
"""

import json
import time

from conftest import run_once

from repro.analytics.datagen import generate_database
from repro.sql.executor import SqlExecutor
from repro.sql.exprs import compile_expr
from repro.sql.parser import parse_sql
from repro.sql.planner import (
    FilterNode,
    PlannedStatement,
    ScanNode,
    and_fold,
    plan_statement,
)
from repro.sql.session import table_fingerprint
from repro.sql.tpch import TPCH_SQL

from tests import sql_oracle as oracle

SF = 0.004
SEED = 7
#: Each side keeps its best of ROUNDS walls.
ROUNDS = 5
MIN_SPEEDUP = 3.0


def _nodes(node):
    yield node
    for child in (getattr(node, "child", None), getattr(node, "left", None),
                  getattr(node, "right", None), *getattr(node, "children", ())):
        if child is not None:
            yield from _nodes(child)


def _run(db, root, scalar_plans):
    planned = PlannedStatement(root=root, scalars=scalar_plans, output_columns=())
    return SqlExecutor(db, chooser=lambda scan: "host").execute(planned).table


def _filters(db, planned):
    """(input table, predicate, resolved scalars) of every filter in a plan."""
    scalars = {}
    for i, (key, root) in enumerate(planned.scalars):
        (values,) = _run(db, root, planned.scalars[:i]).columns.values()
        scalars[key] = values[0] if values else None
    roots = [planned.root] + [root for _, root in planned.scalars]
    out = []
    for node in (n for root in roots for n in _nodes(root)):
        if isinstance(node, ScanNode) and node.predicates:
            out.append((db[node.table], and_fold(node.predicates), scalars))
        elif isinstance(node, FilterNode):
            out.append((_run(db, node.child, planned.scalars), node.predicate, scalars))
    return out


def _production(filters):
    return [table.filter_by(*compile_expr(expr, scalars)) for table, expr, scalars in filters]


def _oracle(filters):
    return [
        oracle.filter_rows(table, oracle.compile_expr(expr, scalars))
        for table, expr, scalars in filters
    ]


def _wall(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _executor(db, plans, site):
    executor = SqlExecutor(db, chooser=lambda scan: site)
    for planned in plans:
        executor.execute(planned)


def _measure():
    db = generate_database(SF, seed=SEED)
    plans = [plan_statement(parse_sql(TPCH_SQL[n])) for n in sorted(TPCH_SQL)]
    filters = [f for planned in plans for f in _filters(db, planned)]
    produced, expected = _production(filters), _oracle(filters)
    for got, want in zip(produced, expected):
        assert table_fingerprint(got) == table_fingerprint(want)
        assert got.stats == want.stats
    walls = {}
    for _ in range(ROUNDS):
        # The two sides alternate inside every round, so a slow window on a
        # shared machine does not land on one side of the ratio.
        for name, fn, args in (
            ("oracle", _oracle, (filters,)),
            ("production", _production, (filters,)),
            ("executor_host", _executor, (db, plans, "host")),
            ("executor_device", _executor, (db, plans, "device")),
        ):
            walls[name] = min(walls.get(name, float("inf")), _wall(fn, *args))
    rows = sum(table.nrows for table, _, _ in filters)
    kept = sum(table.nrows for table in produced)
    return walls, len(filters), rows, kept, len(plans)


def test_sql_filter_speed(benchmark):
    walls, filters, rows, kept, queries = run_once(benchmark, _measure)
    speedup = walls["oracle"] / walls["production"]
    payload = {
        "benchmark": "sql_exec_speed",
        "scale_factor": SF,
        "seed": SEED,
        "rounds": ROUNDS,
        "min_speedup": MIN_SPEEDUP,
        "filters": {
            "count": filters,
            "rows_in": rows,
            "rows_kept": kept,
            "oracle_ms": round(walls["oracle"] * 1e3, 2),
            "production_ms": round(walls["production"] * 1e3, 2),
            "speedup": round(speedup, 2),
        },
        "executor_ms_per_query": {
            site: round(walls[f"executor_{site}"] / queries * 1e3, 3)
            for site in ("host", "device")
        },
    }
    with open("BENCH_sql_exec.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\n{filters} filters over {rows} rows: oracle {walls['oracle'] * 1e3:.1f} ms, "
          f"production {walls['production'] * 1e3:.1f} ms, {speedup:.1f}x")
    print(f"executor per query: {payload['executor_ms_per_query']}")
    assert speedup >= MIN_SPEEDUP
