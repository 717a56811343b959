"""Tests for the mini relational-algebra engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.relalg import Table
from repro.errors import AnalyticsError


def people():
    return Table(
        "people",
        {
            "id": [1, 2, 3, 4],
            "city": ["NY", "SF", "NY", "LA"],
            "age": [30, 25, 40, 35],
        },
    )


def cities():
    return Table("cities", {"city": ["NY", "SF"], "pop": [8, 1]})


def test_ragged_columns_rejected():
    with pytest.raises(AnalyticsError):
        Table("bad", {"a": [1, 2], "b": [1]})


def test_filter_and_stats():
    t = people().filter(lambda r: r["age"] > 28)
    assert t.column("id") == [1, 3, 4]
    assert t.stats.rows_scanned == 4
    assert t.stats.rows_filtered_in == 3


def test_project_and_missing_column():
    t = people().project(["id", "age"])
    assert set(t.columns) == {"id", "age"}
    with pytest.raises(AnalyticsError):
        t.column("city")


def test_extend_computed_column():
    t = people().extend("age2", lambda r: r["age"] * 2)
    assert t.column("age2") == [60, 50, 80, 70]


def test_inner_join():
    j = people().join(cities(), "city", "city")
    assert j.nrows == 3  # LA has no match
    ny_pops = [r["pop"] for r in j.iter_rows() if r["city"] == "NY"]
    assert ny_pops == [8, 8]
    assert j.stats.build_rows == 2


def test_inner_join_keeps_left_order_then_right_order():
    left = Table("l", {"k": [2, 1, 2], "i": [0, 1, 2]})
    right = Table("r", {"k2": [2, 3, 2, 1], "j": [0, 1, 2, 3]})
    j = left.join(right, "k", "k2")
    assert list(zip(j.column("i"), j.column("j"))) == [(0, 0), (0, 2), (1, 3), (2, 0), (2, 2)]
    assert j.stats.rows_joined == 3 + 5


def test_groups_keep_first_row_order_and_fold_in_row_order():
    t = Table("t", {"k": ["b", "a", "b", "c", "a"], "v": [2, 1.0, 5, 3, 1]})
    g = t.group_by(["k"], {"low": ("min", lambda r: r["v"]), "n": ("count", None)})
    assert g.column("k") == ["b", "a", "c"]
    assert repr(g.column("low")) == "[2, 1.0, 3]"  # the first of equal values
    assert g.column("n") == [2, 2, 1]


def test_semi_and_anti_join():
    semi = people().join(cities(), "city", "city", how="semi")
    assert sorted(semi.column("id")) == [1, 2, 3]
    assert set(semi.columns) == {"id", "city", "age"}
    anti = people().join(cities(), "city", "city", how="anti")
    assert anti.column("id") == [4]


def test_join_rejects_unknown_kind():
    with pytest.raises(AnalyticsError):
        people().join(cities(), "city", "city", how="outer")


def test_group_by_aggregates():
    g = people().group_by(
        ["city"],
        {
            "n": ("count", None),
            "total_age": ("sum", lambda r: r["age"]),
            "oldest": ("max", lambda r: r["age"]),
            "youngest": ("min", lambda r: r["age"]),
            "mean_age": ("avg", lambda r: r["age"]),
        },
    )
    row = {r["city"]: r for r in g.iter_rows()}
    assert row["NY"]["n"] == 2 and row["NY"]["total_age"] == 70
    assert row["NY"]["oldest"] == 40 and row["NY"]["youngest"] == 30
    assert row["SF"]["mean_age"] == 25


def test_group_by_global():
    g = people().group_by([], {"total": ("sum", lambda r: r["age"])})
    assert g.nrows == 1 and g.column("total") == [130]


def test_order_by_multi_key():
    t = people().order_by([("city", False), ("age", True)])
    assert t.column("id") == [4, 3, 1, 2]


def test_limit_and_distinct():
    assert people().limit(2).nrows == 2
    d = people().project(["city"]).distinct(["city"])
    assert sorted(d.column("city")) == ["LA", "NY", "SF"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
def test_groupby_count_partitions_rows(values):
    t = Table("t", {"v": values})
    g = t.group_by(["v"], {"n": ("count", None)})
    assert sum(g.column("n")) == len(values)
    assert set(g.column("v")) == set(values)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=40),
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=40),
)
def test_join_cardinality_matches_bruteforce(left, right):
    lt = Table("l", {"k": left})
    rt = Table("r", {"k2": right})
    joined = lt.join(rt, "k", "k2")
    expected = sum(1 for a in left for b in right if a == b)
    assert joined.nrows == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=30),
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=30),
)
def test_join_cardinality_symmetric(left, right):
    lt = Table("l", {"k": left})
    rt = Table("r", {"k2": right})
    assert lt.join(rt, "k", "k2").nrows == rt.join(lt, "k2", "k").nrows


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=40))
def test_distinct_idempotent(values):
    t = Table("t", {"v": values})
    once = t.distinct(["v"])
    twice = once.distinct(["v"])
    assert once.column("v") == twice.column("v")
    assert once.nrows == len(set(values))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=40))
def test_order_by_is_a_sorted_permutation(values):
    t = Table("t", {"v": list(values)})
    ordered = t.order_by([("v", False)])
    assert ordered.column("v") == sorted(values)
    assert sorted(ordered.column("v")) == sorted(values)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), min_size=0, max_size=40))
def test_filter_project_commute(rows):
    t = Table("t", {"k": [a for a, _ in rows], "v": [b for _, b in rows]})
    pred = lambda r: r["k"] >= 3
    a = t.filter(pred).project(["k"])
    b = t.project(["k"]).filter(pred)
    assert a.column("k") == b.column("k")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=50))
def test_semi_plus_anti_partition(values):
    t = Table("t", {"k": values})
    other = Table("o", {"k2": [0, 2, 4]})
    semi = t.join(other, "k", "k2", how="semi")
    anti = t.join(other, "k", "k2", how="anti")
    assert semi.nrows + anti.nrows == t.nrows
    assert all(v in (0, 2, 4) for v in semi.column("k"))
    assert all(v not in (0, 2, 4) for v in anti.column("k"))
