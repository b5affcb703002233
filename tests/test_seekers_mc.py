"""Tests for the MC seeker (paper Listing 2 + app-level validation)."""
import pandas as pd
import pytest

from repro.core.seekers import MC
from repro.lake import sample_mc_query
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def mc_query(tiny_lake):
    q, src = sample_mc_query(tiny_lake, gid=0, n_rows=6, seed=20)
    return q, src


def test_mc_finds_source_table(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index)
    assert src in res.tables


def test_mc_source_score_is_all_rows(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index)
    # the source table contains every query tuple
    assert res.scores[src] == float(len(q.drop_duplicates()))


def test_mc_diagnostics_consistent(mc_query, tiny_index):
    q, _ = mc_query
    d = MC(q, k=10).run(tiny_index).diagnostics
    assert d["bloom_rows"] <= d["sql_rows"]
    assert d["tp_rows"] + d["fp_rows"] == d["bloom_rows"]
    assert d["tp_rows"] > 0


def test_mc_validation_catches_misaligned_rows(tiny_lake, tiny_index):
    """Tuples assembled from two different query rows must not count as TP
    unless a candidate row really contains one full query tuple."""
    q, _ = sample_mc_query(tiny_lake, gid=1, n_rows=5, seed=21)
    res = MC(q, k=10).run(tiny_index)
    for tid in res.tables:
        df = tiny_lake.tables[tid]
        from repro.core.values import norm_cell
        tuples = [
            frozenset(norm_cell(v) for v in row.tolist())
            for _, row in q.iterrows()
        ]
        found = False
        for _, row in df.iterrows():
            cells = {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            if any(t <= cells for t in tuples):
                found = True
                break
        assert found, f"table {tid} reported but contains no query tuple"


def test_mc_three_columns(tiny_lake, tiny_index):
    gid = 0
    tid = tiny_lake.meta["groups"][gid][0]
    df = tiny_lake.tables[tid]
    if len(df.columns) >= 3:
        q = df.iloc[:4, [0, 1, 2]].reset_index(drop=True)
    else:
        q = df.iloc[:4, [0, 1]].reset_index(drop=True)
    res = MC(q, k=10).run(tiny_index)
    assert tid in res.tables


def test_mc_tid_filter_in(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index, ("IN", [src]))
    assert res.tables == [src]


def test_mc_tid_filter_not_in(mc_query, tiny_index):
    q, src = mc_query
    res = MC(q, k=10).run(tiny_index, ("NOT IN", [src]))
    assert src not in res.tables


def test_mc_sql_oracle(mc_query, tiny_index):
    """Listing 2's join phase executed by Spark must match DuckDB."""
    q, _ = mc_query
    seeker = MC(q, k=10)
    spark_df = tiny_index.spark.sql(seeker.sql(tiny_index.view))
    assert_equivalent(spark_df, seeker.sql("idx"), idx=tiny_index.df)


def test_mc_sql_requires_same_row(tiny_index, tiny_lake):
    """Values from different rows of the same table must NOT join."""
    tid = tiny_lake.meta["groups"][0][0]
    df = tiny_lake.tables[tid]
    # build a query whose tuple mixes row 0's col-0 with row 1's col-1;
    # SQL phase requires both values in the same candidate row
    q = pd.DataFrame({"a": [df.iloc[0, 0]], "b": [df.iloc[1, 1]]})
    res = MC(q, k=10).run(tiny_index)
    for t in res.tables:
        # if reported, some row really contains both values
        from repro.core.values import norm_cell
        want = {norm_cell(df.iloc[0, 0]), norm_cell(df.iloc[1, 1])}
        tab = tiny_lake.tables[t]
        ok = any(
            want <= {c for c in (norm_cell(v) for v in row.tolist()) if c is not None}
            for _, row in tab.iterrows()
        )
        assert ok


def test_mc_empty_query(tiny_index):
    q = pd.DataFrame({"a": [], "b": []})
    res = MC(q, k=5).run(tiny_index)
    assert res.tables == []


def test_mc_features(mc_query, tiny_index):
    q, _ = mc_query
    s = MC(q, k=5)
    assert s.n_columns() == 2
    assert s.input_cardinality() == len(q)
    # product of per-column frequencies
    f = s.avg_frequency(tiny_index)
    assert f > 0


def test_mc_requires_all_columns(tiny_lake, tiny_index):
    """A query with one column full of absent values matches nothing."""
    q, _ = sample_mc_query(tiny_lake, gid=2, n_rows=4, seed=22)
    q = q.copy()
    q.iloc[:, 1] = [f"@@absent{i}@@" for i in range(len(q))]
    res = MC(q, k=10).run(tiny_index)
    assert res.tables == []
    assert res.diagnostics["sql_rows"] == 0
