"""Seeker operators (paper §IV-A, §VI): SQL over the unified index.

Each seeker compiles to a Spark SQL statement over the ``AllTables`` view,
mirroring Listings 1–3 of the paper, with a rewrite hook (``tid_filter``)
where the optimizer injects combiner-dependent predicates
(``TableId IN (...)`` / ``NOT IN (...)``, §VII-B "Query rewriting").

Seekers return ranked table lists. Ordering is made deterministic with
(score DESC, TableId ASC) tie-breaks so the optimizer's Theorem-1 property
(output invariance) is testable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .index import BlendIndex
from .values import norm_cell, norm_values, sql_in_list
from .xash import super_key

TidFilter = tuple[str, list[int]] | None  # ("IN" | "NOT IN", table ids)


def _tid_predicate(tid_filter: TidFilter) -> str:
    """Render the rewrite placeholder. Empty string when no rewrite."""
    if tid_filter is None:
        return ""
    op, ids = tid_filter
    if not ids:
        # empty intermediate result: IN () matches nothing, NOT IN () everything
        return "AND 1=0 " if op == "IN" else ""
    return f"AND TableId {op} ({', '.join(str(int(t)) for t in ids)}) "


@dataclass
class SeekerResult:
    """Outcome of one seeker execution."""

    tables: list[int]
    scores: dict[int, float]
    sql: str
    seconds: float
    diagnostics: dict = field(default_factory=dict)


def _dedupe_topk(rows: list[tuple[int, float]], k: int) -> tuple[list[int], dict[int, float]]:
    """Collapse ranked (TableId, score) rows to distinct tables, keeping
    first-seen (= best) score, truncated to k tables."""
    tables, scores = [], {}
    for tid, s in rows:
        if tid not in scores:
            tables.append(tid)
            scores[tid] = float(s)
            if len(tables) >= k:
                break
    return tables, scores


class Seeker:
    """Base class: common cost-model features + execution template.

    ``run`` executes ``sql`` and keeps the first ``k`` distinct tables of
    the ranked ``(TableId, score)`` rows that reach ``min_score``. SC, KW
    and C use it as is; MC validates rows after its SQL and has its own."""

    type_name: str = "?"
    k: int = 10
    min_score: float = 0.0

    # --- features used by the optimizer (§VII-B Learning-based cost est.)
    def input_cardinality(self) -> int:
        raise NotImplementedError

    def n_columns(self) -> int:
        raise NotImplementedError

    def avg_frequency(self, index: BlendIndex) -> float:
        raise NotImplementedError

    # --- SQL generation
    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        raise NotImplementedError

    def inner_sql(self, view: str, tid_filter: TidFilter = None) -> str:
        """SQL emitting one ``TableId`` row per table ``run`` returns, for
        the Counter combiner's in-DB push-down (the executor pushes down
        SC and KW only). DISTINCT gives a table one vote however many of
        its columns match, as ``Counter.apply`` does."""
        return f"SELECT DISTINCT TableId FROM (\n{self.sql(view, tid_filter)}\n)"

    def run(self, index: BlendIndex, tid_filter: TidFilter = None) -> SeekerResult:
        t0 = time.perf_counter()
        sql = self.sql(index.view, tid_filter)
        rows = index.spark.sql(sql).collect()
        hits = [(r.TableId, r.score) for r in rows if r.score >= self.min_score]
        tables, scores = _dedupe_topk(hits, self.k)
        return SeekerResult(tables, scores, sql, time.perf_counter() - t0)


@dataclass
class SC(Seeker):
    """Single-column join seeker — paper Listing 1.

    Finds tables with a column overlapping the query column the most
    (COUNT(DISTINCT CellValue) per (TableId, ColumnId))."""

    values: list
    k: int = 10
    type_name: str = "SC"
    #: GROUP BY keys, also the ORDER BY tie-breaks: overlap per column
    keys = ("TableId", "ColumnId")

    def __post_init__(self):
        self.q = norm_values(self.values)

    def input_cardinality(self) -> int:
        return len(self.q)

    def n_columns(self) -> int:
        return 1

    def avg_frequency(self, index: BlendIndex) -> float:
        return index.avg_frequency(self.q)

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        keys = ", ".join(self.keys)
        return (
            f"SELECT {keys}, COUNT(DISTINCT CellValue) AS score\n"
            f"FROM {view}\n"
            f"WHERE CellValue IN ({sql_in_list(self.q)}) {_tid_predicate(tid_filter)}\n"
            f"GROUP BY {keys}\n"
            f"ORDER BY score DESC, {' ASC, '.join(self.keys)} ASC\n"
            f"LIMIT {self.k}"
        )


@dataclass
class KW(SC):
    """Keyword seeker — SC without ColumnId in the GROUP BY (§VI):
    overlap is counted over whole tables, not single columns."""

    type_name: str = "KW"
    keys = ("TableId",)


@dataclass
class MC(Seeker):
    """Multi-column join seeker — paper Listing 2 + app-level validation.

    Phase 1 (SQL): one subquery per query column, joined on
    (TableId, RowId) — candidate rows containing *some* value from every
    query column. Phase 2 (application level, as in MATE/the paper): the
    super key prunes rows whose value combination cannot match any query
    tuple, then exact row validation confirms containment of a full query
    tuple. Diagnostics expose the TP/FP counts behind Table V.
    """

    query: pd.DataFrame  # columns = composite key columns
    k: int = 10
    type_name: str = "MC"

    def __post_init__(self):
        self.col_values: list[list[str]] = [
            norm_values(self.query[c]) for c in self.query.columns
        ]
        # one normalized tuple per query row (drop rows with NULL cells)
        self.row_tuples: list[frozenset[str]] = []
        for _, row in self.query.iterrows():
            t = [norm_cell(v) for v in row.tolist()]
            if all(v is not None for v in t):
                self.row_tuples.append(frozenset(t))
        self.row_superkeys = [super_key(t) for t in self.row_tuples]

    def input_cardinality(self) -> int:
        return len(self.query)

    def n_columns(self) -> int:
        return len(self.query.columns)

    def avg_frequency(self, index: BlendIndex) -> float:
        # the MC SQL joins the per-column hit sets, hence the *product*
        # of per-column average frequencies (§VII-B)
        f = 1.0
        for vals in self.col_values:
            f *= max(index.avg_frequency(vals), 1e-9)
        return f

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        subs = []
        for j, vals in enumerate(self.col_values):
            filt = _tid_predicate(tid_filter) if j == 0 else ""  # Example 2: filter Q1
            cols = "TableId, RowId, SuperKey" if j == 0 else "TableId, RowId"
            subs.append(
                f"(SELECT DISTINCT {cols} FROM {view}\n"
                f"  WHERE CellValue IN ({sql_in_list(vals)}) {filt}) Q{j + 1}"
            )
        joins = subs[0]
        for j in range(1, len(subs)):
            joins += (
                f"\nJOIN {subs[j]}"
                f"\n  ON Q1.TableId = Q{j + 1}.TableId AND Q1.RowId = Q{j + 1}.RowId"
            )
        return (
            "SELECT Q1.TableId AS TableId, Q1.RowId AS RowId, Q1.SuperKey AS SuperKey\n"
            f"FROM {joins}"
        )

    def run(self, index: BlendIndex, tid_filter: TidFilter = None) -> SeekerResult:
        t0 = time.perf_counter()
        sql = self.sql(index.view, tid_filter)
        cand = index.spark.sql(sql).toPandas()
        n_sql = len(cand)
        # --- super-key Bloom filtering (application level)
        if n_sql and self.row_superkeys:
            sk = cand["SuperKey"].to_numpy(dtype=np.int64)
            keep = np.zeros(n_sql, dtype=bool)
            for rk in self.row_superkeys:
                keep |= (sk & rk) == rk
            cand = cand[keep]
        n_bloom = len(cand)
        # --- exact row validation against the raw lake tables
        tp_rows = 0
        matched: dict[int, set[int]] = {}  # tid -> matched query-row indices
        row_counts: dict[int, int] = {}
        for tid, row_id in zip(cand["TableId"].tolist(), cand["RowId"].tolist()):
            cells = {
                c
                for c in (norm_cell(v) for v in index.original_row(tid, row_id).tolist())
                if c is not None
            }
            hit = [i for i, t in enumerate(self.row_tuples) if t <= cells]
            if hit:
                tp_rows += 1
                matched.setdefault(tid, set()).update(hit)
                row_counts[tid] = row_counts.get(tid, 0) + 1
        ranked = sorted(
            matched, key=lambda t: (-len(matched[t]), -row_counts[t], t)
        )[: self.k]
        scores = {t: float(len(matched[t])) for t in ranked}
        return SeekerResult(
            ranked,
            scores,
            sql,
            time.perf_counter() - t0,
            diagnostics={
                "sql_rows": n_sql,
                "bloom_rows": n_bloom,
                "tp_rows": tp_rows,
                "fp_rows": n_bloom - tp_rows,
            },
        )


@dataclass
class C(Seeker):
    """Correlation seeker — paper Listing 3.

    Input: aligned (join key, numerical target) columns. Keys are split
    into k0 (target below its mean) and k1 (target >= mean) *before* the
    query. The SQL joins key hits with numeric cells of the same row and
    computes QCR = |2*(n_I + n_III) - N| / N in one pass. ``h`` rows are
    sampled at query time via ``RowId < h`` — *convenience* sampling on
    the vanilla index, true random sampling when the index was built with
    ``shuffle_rows=True`` (BLEND (rand), Table VII)."""

    join_values: list
    target_values: list
    k: int = 10
    h: int = 256
    #: minimum |QCR| for a triplet to count as "correlating". 0 = faithful
    #: to Listing 3 (pure top-k). The feature-discovery task sets it >0 as
    #: its multicollinearity cutoff: at paper scale top-k over millions of
    #: tables implicitly thresholds strength; at laptop scale an explicit
    #: cutoff is needed for the Difference chain to be meaningful.
    min_qcr: float = 0.0
    type_name: str = "C"

    def __post_init__(self):
        pairs = [
            (norm_cell(j), v)
            for j, v in zip(self.join_values, self.target_values)
            if norm_cell(j) is not None and v is not None and not pd.isna(v)
        ]
        # de-duplicate keys (keep first target observation per key)
        seen: dict[str, float] = {}
        for kk, v in pairs:
            seen.setdefault(kk, float(v))
        mean = float(np.mean(list(seen.values()))) if seen else 0.0
        self.k0 = [kk for kk, v in seen.items() if v < mean]
        self.k1 = [kk for kk, v in seen.items() if v >= mean]

    @property
    def q(self) -> list[str]:
        return self.k0 + self.k1

    @property
    def min_score(self) -> float:
        return self.min_qcr

    def input_cardinality(self) -> int:
        return len(self.k0) + len(self.k1)

    def n_columns(self) -> int:
        return 2

    def avg_frequency(self, index: BlendIndex) -> float:
        return index.avg_frequency(self.q)

    def sql(self, view: str, tid_filter: TidFilter = None) -> str:
        k0l, k1l = sql_in_list(self.k0), sql_in_list(self.k1)
        return (
            "SELECT jk.TableId AS TableId, jk.ColumnId AS KeyCol,\n"
            "       num.ColumnId AS NumCol,\n"
            "       ABS(CAST(2.0 AS DOUBLE) * SUM(CASE\n"
            f"             WHEN (jk.CellValue IN ({k1l}) AND num.Quadrant)\n"
            f"               OR (jk.CellValue IN ({k0l}) AND NOT num.Quadrant)\n"
            "             THEN 1 ELSE 0 END) - COUNT(*)) / COUNT(*) AS score\n"
            f"FROM (SELECT TableId, ColumnId, RowId, CellValue FROM {view}\n"
            f"      WHERE CellValue IN ({sql_in_list(self.q)})\n"
            f"        AND RowId < {self.h} {_tid_predicate(tid_filter)}) jk\n"
            f"JOIN (SELECT TableId, ColumnId, RowId, Quadrant FROM {view}\n"
            f"      WHERE Quadrant IS NOT NULL AND RowId < {self.h}) num\n"
            "  ON jk.TableId = num.TableId AND jk.RowId = num.RowId\n"
            " AND jk.ColumnId != num.ColumnId\n"
            "GROUP BY jk.TableId, jk.ColumnId, num.ColumnId\n"
            "ORDER BY score DESC, TableId ASC, KeyCol ASC, NumCol ASC\n"
            f"LIMIT {self.k}"
        )


#: rule-based ranking order (§VII-B Rules 1–3): KW first, MC last, SC over C
TYPE_RANK = {"KW": 0, "SC": 1, "C": 2, "MC": 3}
