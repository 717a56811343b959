"""TPC-H schema: the eight tables, their columns, and scaling rules.

Row widths are the serialized text widths ('|'-delimited, as dbgen emits
and as the PSF offload parses); they drive the bytes-scanned terms of the
cost model. Dates are day numbers since 1992-01-01 (the 7-year TPC-H
window), matching the kernels' tuple encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import AnalyticsError

#: Days covered by the TPC-H date domain (1992-01-01 .. 1998-12-31).
DATE_DAYS = 2556
EPOCH_YEAR = 1992


def date_to_day(year: int, month: int, day: int) -> int:
    """Days since 1992-01-01 (30-day months, 360-day years — the simplified
    calendar used consistently by the generator, queries, and kernels)."""
    if not (EPOCH_YEAR <= year <= 1998 and 1 <= month <= 12 and 1 <= day <= 30):
        raise AnalyticsError(f"date {year}-{month}-{day} outside simplified TPC-H domain")
    return (year - EPOCH_YEAR) * 360 + (month - 1) * 30 + (day - 1)


@dataclass(frozen=True)
class TableSchema:
    """One TPC-H table: column names and a rows-per-scale-factor rule."""

    name: str
    columns: Tuple[str, ...]
    rows_per_sf: int  # rows at SF=1 (0 means fixed-size table)
    fixed_rows: int = 0
    avg_row_text_bytes: int = 100

    def rows_at(self, scale_factor: float) -> int:
        if self.fixed_rows:
            return self.fixed_rows
        return max(1, int(self.rows_per_sf * scale_factor))

    def bytes_at(self, scale_factor: float) -> int:
        return self.rows_at(scale_factor) * self.avg_row_text_bytes


SCHEMA: Dict[str, TableSchema] = {
    "region": TableSchema(
        "region", ("r_regionkey", "r_name", "r_comment"), 0, fixed_rows=5, avg_row_text_bytes=80
    ),
    "nation": TableSchema(
        "nation",
        ("n_nationkey", "n_name", "n_regionkey", "n_comment"),
        0,
        fixed_rows=25,
        avg_row_text_bytes=90,
    ),
    "supplier": TableSchema(
        "supplier",
        (
            "s_suppkey",
            "s_name",
            "s_address",
            "s_nationkey",
            "s_phone",
            "s_acctbal",
            "s_comment",
        ),
        10_000,
        avg_row_text_bytes=140,
    ),
    "customer": TableSchema(
        "customer",
        (
            "c_custkey",
            "c_name",
            "c_address",
            "c_nationkey",
            "c_phone",
            "c_acctbal",
            "c_mktsegment",
            "c_comment",
        ),
        150_000,
        avg_row_text_bytes=160,
    ),
    "part": TableSchema(
        "part",
        (
            "p_partkey",
            "p_name",
            "p_mfgr",
            "p_brand",
            "p_type",
            "p_size",
            "p_container",
            "p_retailprice",
            "p_comment",
        ),
        200_000,
        avg_row_text_bytes=150,
    ),
    "partsupp": TableSchema(
        "partsupp",
        ("ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost", "ps_comment"),
        800_000,
        avg_row_text_bytes=140,
    ),
    "orders": TableSchema(
        "orders",
        (
            "o_orderkey",
            "o_custkey",
            "o_orderstatus",
            "o_totalprice",
            "o_orderdate",
            "o_orderpriority",
            "o_clerk",
            "o_shippriority",
            "o_comment",
        ),
        1_500_000,
        avg_row_text_bytes=120,
    ),
    "lineitem": TableSchema(
        "lineitem",
        (
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_linenumber",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
            "l_shipinstruct",
            "l_shipmode",
            "l_comment",
        ),
        6_000_000,
        avg_row_text_bytes=130,
    ),
}

TABLE_NAMES = tuple(SCHEMA)
