"""The unified BLEND index: one relation ``AllTables`` (paper §V, Fig. 3).

``AllTables(CellValue, TableId, ColumnId, RowId, SuperKey, Quadrant)``
unifies three structures:

- the DataXFormer inverted index (CellValue -> TableId/ColumnId/RowId),
- MATE's XASH *super key* per (table, row) — see :mod:`repro.core.xash`,
- BLEND's reformulated QCR quadrant: a boolean per numeric cell that is
  True iff the cell is >= its column's mean (NULL for non-numeric cells).
  Unlike the original QCR index, the sketch size ``h`` is chosen at query
  time, not baked in at index time.

The index is materialized as a single Spark DataFrame, cached and
registered as a temp view so every seeker is plain Spark SQL over it —
the Spark/Catalyst engine plays the paper's in-DB optimizer role.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from ..lake.base import DataLake
from .values import norm_cell
from .xash import super_key

INDEX_SCHEMA = T.StructType(
    [
        T.StructField("CellValue", T.StringType(), False),
        T.StructField("TableId", T.IntegerType(), False),
        T.StructField("ColumnId", T.IntegerType(), False),
        T.StructField("RowId", T.IntegerType(), False),
        T.StructField("SuperKey", T.LongType(), False),
        T.StructField("Quadrant", T.BooleanType(), True),
    ]
)


def table_long_frame(
    tid: int, df: pd.DataFrame, *, row_perm: np.ndarray | None = None
) -> pd.DataFrame:
    """Melt one lake table into AllTables rows (pandas, offline phase).

    Rows come column by column, top to bottom; NULL cells match nothing
    and are left out. ``row_perm`` (optional) maps original row position
    -> RowId, used by the shuffled index variant (BLEND (rand), Table VII).
    """
    n = len(df)
    row_ids = row_perm if row_perm is not None else np.arange(n)
    cells = np.empty((len(df.columns), n), dtype=object)  # [column, row]
    quads = np.full(cells.shape, None, dtype=object)
    for j in range(len(df.columns)):
        s = df.iloc[:, j]
        cells[j] = [norm_cell(v) for v in s.tolist()]
        if pd.api.types.is_numeric_dtype(s) and s.notna().any():
            mean = float(s.astype(float).mean())
            quads[j] = [bool(float(v) >= mean) if pd.notna(v) else None for v in s.tolist()]
    skeys = np.array([super_key(cells[:, i]) for i in range(n)], dtype=np.int64)
    cols, rows = np.nonzero(cells != None)  # noqa: E711 (elementwise)
    return pd.DataFrame(
        {
            "CellValue": cells[cols, rows],
            "TableId": np.full(len(cols), tid, dtype=np.int64),
            "ColumnId": cols.astype(np.int64),
            "RowId": row_ids[rows].astype(np.int64),
            "SuperKey": skeys[rows],
            "Quadrant": quads[cols, rows].tolist(),
        }
    )


def build_alltables_pdf(lake: DataLake, *, shuffle_rows: bool = False, seed: int = 0) -> tuple[pd.DataFrame, dict[int, np.ndarray]]:
    """Build the full AllTables relation in pandas.

    Returns (long frame, row map) where ``row_map[tid][RowId]`` is the
    original pandas row position — needed to validate candidate rows
    against the raw lake tables when RowIds are shuffled.
    """
    g = np.random.default_rng(seed)
    parts, row_maps = [], {}
    for tid, df in lake.tables.items():
        n = len(df)
        if shuffle_rows:
            perm = g.permutation(n)  # original position i -> RowId perm[i]
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            row_maps[tid] = inv
            parts.append(table_long_frame(tid, df, row_perm=perm))
        else:
            row_maps[tid] = np.arange(n)
            parts.append(table_long_frame(tid, df))
    pdf = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=[f.name for f in INDEX_SCHEMA.fields]
    )
    return pdf, row_maps


@dataclass
class BlendIndex:
    """Handle over the materialized index + the statistics BLEND's
    optimizer uses (value frequencies for the cost model, §VII-B)."""

    spark: SparkSession
    df: DataFrame
    view: str
    lake: DataLake
    row_maps: dict[int, np.ndarray]
    build_seconds: float
    value_freq: pd.Series = field(repr=False, default=None)

    def avg_frequency(self, values: list[str]) -> float:
        """Average #occurrences in the lake of the given (normalized)
        values — the optimizer's third cost feature."""
        if not values:
            return 0.0
        return float(np.mean([self.value_freq.get(v, 0) for v in values]))

    def original_row(self, tid: int, row_id: int) -> pd.Series:
        """The raw lake row behind an index RowId (handles shuffling)."""
        return self.lake.tables[tid].iloc[self.row_maps[tid][row_id]]


def build_index(
    spark: SparkSession,
    lake: DataLake,
    *,
    view: str = "AllTables",
    shuffle_rows: bool = False,
    seed: int = 0,
) -> BlendIndex:
    """Offline phase (paper Fig. 2e): build and register the unified index.
    The pandas melt is released once Spark holds the cached copy; only its
    value frequencies stay on the driver."""
    t0 = time.perf_counter()
    pdf, row_maps = build_alltables_pdf(lake, shuffle_rows=shuffle_rows, seed=seed)
    sdf = spark.createDataFrame(pdf, schema=INDEX_SCHEMA).cache()
    sdf.createOrReplaceTempView(view)
    n = sdf.count()  # materialize the cache
    assert n == len(pdf)
    freq = pdf["CellValue"].value_counts()
    return BlendIndex(
        spark=spark,
        df=sdf,
        view=view,
        lake=lake,
        row_maps=row_maps,
        build_seconds=time.perf_counter() - t0,
        value_freq=freq,
    )
