"""Tests for the unified AllTables index (repro.core.index)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.index import build_alltables_pdf, build_index, table_long_frame
from repro.core.values import norm_cell
from repro.core.xash import super_key
from repro.lake import DataLake


@pytest.fixture(scope="module")
def mini_lake():
    lake = DataLake()
    lake.add("t0", pd.DataFrame({"name": ["a", "b", "c"], "val": [1.0, 2.0, 30.0]}))
    lake.add("t1", pd.DataFrame({"k": ["b", "x"], "s": ["yes", "no"]}))
    return lake


def test_long_frame_columns(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    assert list(pdf.columns) == [
        "CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant",
    ]


def test_long_frame_cell_count(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    assert len(pdf) == 6  # 3 rows x 2 cols, no NULLs


def test_long_frame_skips_nulls():
    df = pd.DataFrame({"a": ["x", None], "b": [1.0, float("nan")]})
    pdf = table_long_frame(5, df)
    assert len(pdf) == 2
    assert set(pdf["TableId"]) == {5}


def test_long_frame_quadrant_semantics(mini_lake):
    pdf = table_long_frame(0, mini_lake.tables[0])
    nums = pdf[pdf["ColumnId"] == 1].sort_values("RowId")
    # mean(1,2,30)=11 -> quadrants F,F,T
    assert list(nums["Quadrant"]) == [False, False, True]
    strs = pdf[pdf["ColumnId"] == 0]
    assert strs["Quadrant"].isna().all()


def test_long_frame_superkey_matches_row(mini_lake):
    df = mini_lake.tables[0]
    pdf = table_long_frame(0, df)
    row0 = pdf[pdf["RowId"] == 0]
    expected = super_key([norm_cell(df.iloc[0, 0]), norm_cell(df.iloc[0, 1])])
    assert set(row0["SuperKey"]) == {expected}


def test_long_frame_row_perm():
    df = pd.DataFrame({"a": ["x", "y"]})
    pdf = table_long_frame(0, df, row_perm=np.array([1, 0]))
    by_val = pdf.set_index("CellValue")["RowId"]
    assert by_val["x"] == 1 and by_val["y"] == 0


def test_long_frame_mixed_types_nan_column_and_perm():
    """Mixed-type object column, all-NaN numeric column and a row
    permutation; the exact frame is written out."""
    df = pd.DataFrame({
        "o": [1, "a", 2.5, None, True],
        "n": [float("nan")] * 5,
        "i": [3, 1, 2, 5, 4],
    })
    perm = np.array([2, 4, 0, 3, 1])
    got = table_long_frame(7, df, row_perm=perm)
    sk = [super_key([norm_cell(v) for v in row]) for row in df.itertuples(index=False)]
    expected = pd.DataFrame({
        "CellValue": ["1", "a", "2.5", "true", "3", "1", "2", "5", "4"],
        "TableId": [7] * 9,
        "ColumnId": [0, 0, 0, 0, 2, 2, 2, 2, 2],
        "RowId": [2, 4, 0, 1, 2, 4, 0, 3, 1],
        "SuperKey": [sk[0], sk[1], sk[2], sk[4], sk[0], sk[1], sk[2], sk[3], sk[4]],
        # mean(3,1,2,5,4) = 3: quadrant is cell >= mean; NULL off numeric columns
        "Quadrant": [None, None, None, None, True, False, False, True, True],
    })
    pd.testing.assert_frame_equal(got, expected)


def _cell_loop_melt(tid, df, row_perm=None):
    """Reference: the cell-by-cell melt table_long_frame vectorises."""
    row_ids = row_perm if row_perm is not None else np.arange(len(df))
    normed = [[norm_cell(v) for v in df.iloc[:, j].tolist()] for j in range(len(df.columns))]
    recs = []
    for j in range(len(df.columns)):
        s = df.iloc[:, j]
        numeric = pd.api.types.is_numeric_dtype(s) and s.notna().any()
        mean = float(s.astype(float).mean()) if numeric else None
        for i, v in enumerate(s.tolist()):
            if normed[j][i] is not None:
                quad = None if mean is None or pd.isna(v) else bool(float(v) >= mean)
                key = super_key(col[i] for col in normed)
                recs.append((normed[j][i], tid, j, int(row_ids[i]), key, quad))
    return pd.DataFrame(recs, columns=[
        "CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant",
    ])


@pytest.mark.parametrize("lake_name", ["tiny_lake", "u_lake", "c_lake"])
def test_long_frame_matches_cell_loop(request, lake_name):
    lake = request.getfixturevalue(lake_name)
    g = np.random.default_rng(0)
    for tid, df in lake.tables.items():
        for perm in (None, g.permutation(len(df))):
            pd.testing.assert_frame_equal(
                table_long_frame(tid, df, row_perm=perm), _cell_loop_melt(tid, df, perm)
            )


def test_build_alltables_pdf_rowmaps_identity(mini_lake):
    pdf, maps = build_alltables_pdf(mini_lake)
    assert list(maps[0]) == [0, 1, 2]
    assert list(maps[1]) == [0, 1]


def test_build_alltables_pdf_shuffle_roundtrip(mini_lake):
    pdf, maps = build_alltables_pdf(mini_lake, shuffle_rows=True, seed=1)
    # row_maps invert the permutation: index RowId r -> original position
    df = mini_lake.tables[0]
    sub = pdf[(pdf["TableId"] == 0) & (pdf["ColumnId"] == 0)]
    for _, rec in sub.iterrows():
        orig = maps[0][rec["RowId"]]
        assert norm_cell(df.iloc[orig, 0]) == rec["CellValue"]


def test_build_index_counts(sparks, mini_lake):
    idx = build_index(sparks, mini_lake, view="TestMini")
    assert idx.df.count() == idx.value_freq.sum() == 10


def test_build_index_registers_view(sparks, mini_lake):
    build_index(sparks, mini_lake, view="TestMini2")
    n = sparks.sql("SELECT COUNT(*) AS n FROM TestMini2").collect()[0].n
    assert n == 10


def _cells(index):
    return index.df.select("CellValue").toPandas()["CellValue"]


def test_value_freq(tiny_index):
    f = tiny_index.value_freq
    # frequencies must equal value counts of the index's cells
    cells = _cells(tiny_index)
    assert f.sum() == len(cells)
    some_val = cells.iloc[0]
    assert f[some_val] == (cells == some_val).sum()


def test_avg_frequency(tiny_index):
    v = _cells(tiny_index).iloc[0]
    assert tiny_index.avg_frequency([v]) == float(tiny_index.value_freq[v])
    assert tiny_index.avg_frequency([]) == 0.0
    assert tiny_index.avg_frequency(["@@absent@@"]) == 0.0


def test_original_row_identity(tiny_index):
    tid = next(iter(tiny_index.lake.tables))
    row = tiny_index.original_row(tid, 0)
    pd.testing.assert_series_equal(row, tiny_index.lake.tables[tid].iloc[0])


def test_original_row_shuffled(sparks, mini_lake):
    idx = build_index(sparks, mini_lake, view="TestMini3", shuffle_rows=True, seed=4)
    sub = idx.df.filter("TableId = 0 AND ColumnId = 0").toPandas()
    for _, rec in sub.iterrows():
        assert norm_cell(idx.original_row(0, rec["RowId"])["name"]) == rec["CellValue"]


def test_quadrant_nullable_boolean_in_spark(tiny_index):
    schema = dict(tiny_index.df.dtypes)
    assert schema["Quadrant"] == "boolean"
    assert schema["SuperKey"] == "bigint"
    assert schema["CellValue"] == "string"


def test_index_matches_duckdb_scan(tiny_index):
    """Oracle: Spark's view of the index equals the pandas long frame."""
    pdf, _ = build_alltables_pdf(tiny_index.lake)
    from repro.oracle import assert_equivalent

    got = tiny_index.spark.sql(
        f"SELECT CellValue, TableId, ColumnId, RowId FROM {tiny_index.view}"
    )
    assert_equivalent(
        got,
        "SELECT CellValue, TableId, ColumnId, RowId FROM idx",
        idx=pdf,
    )


def test_empty_lake_index(sparks):
    idx = build_index(sparks, DataLake(), view="TestEmpty")
    assert idx.df.count() == 0
