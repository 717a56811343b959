"""Pinned answers of the 22 TPC-H queries, on every execution path.

``tests/test_sql_differential.py`` compares the SQL pipeline against the
hand-written relalg plans, so a change to ``repro.analytics.relalg`` that
moves both sides at once (a join, a filter or a group-by core) passes it.
These digests hold the answers themselves: per database and query, the
result fingerprint, the column order and the ``ExecutionStats`` of the
hand-written plan and of the SQL plan with every scan on the host and
with every scan on the device, plus the SQL scans' traces. The stats
price the simulated host tail, so an equal digest also means equal
simulated latencies. They were recorded before expressions compiled to
positional code and must not move.
"""

import dataclasses
import hashlib

import pytest

from repro.analytics.datagen import generate_database
from repro.analytics.queries import query_numbers, run_query
from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse_sql
from repro.sql.planner import plan_statement
from repro.sql.session import table_fingerprint
from repro.sql.tpch import TPCH_SQL

#: sha256 of :func:`answers_digest` per (scale factor, seed).
DIGESTS = {
    (0.002, 1): "566a395c9fc3d94d404a3150966949ec0cbe1b455bf586450df9f7137fc3ea9d",
    (0.004, 7): "5a8cc45b9113623bfe8a7a40fac707531b3a38ca5166dc29c07bdad3337ed3b9",
}


def _answer(table) -> str:
    stats = dataclasses.astuple(table.stats)
    return repr((table_fingerprint(table), tuple(table.columns), stats))


def answers_digest(db) -> str:
    """Hash of all 22 queries' answers on the three execution paths."""
    digest = hashlib.sha256()
    for number in query_numbers():
        digest.update(repr(("relalg", number)).encode())
        digest.update(_answer(run_query(db, number)).encode())
        planned = plan_statement(parse_sql(TPCH_SQL[number]))
        for site in ("host", "device"):
            result = SqlExecutor(db, chooser=lambda scan, s=site: s).execute(planned)
            digest.update(repr(("sql", site, number)).encode())
            digest.update(_answer(result.table).encode())
            digest.update(repr(result.scans).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scale_factor, seed", sorted(DIGESTS))
def test_tpch_answers_match_their_pinned_digest(scale_factor, seed):
    db = generate_database(scale_factor, seed=seed)
    assert answers_digest(db) == DIGESTS[scale_factor, seed]
