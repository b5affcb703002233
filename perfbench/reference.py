"""Independent reference results, computed with pandas from the raw lake.

Nothing here uses the program's SQL, its index frame or its seeker and
combiner code: cell normalisation, the four seekers' rankings, the
combiners and the four Table III task plans are re-derived from the
paper's definitions (Listings 1-3, §IV-B, §VII-A/B, §VIII-B):

- SC/KW: overlap = distinct query values in a column (SC) or table (KW),
  ranked (overlap desc, TableId, ColumnId), LIMIT k rows, then the
  distinct tables of those rows.
- MC: a brute-force scan for rows that contain a full query tuple; tables
  ranked by (matched tuples desc, matching rows desc, TableId).
- C: QCR over (key column, numeric column) pairs of the rows with
  RowId < h, ranked (qcr desc, TableId, key col, num col), LIMIT k rows,
  then the rows with qcr >= min_qcr, then distinct tables.

Plans are checked against B-NO semantics (every seeker unfiltered, paper
combiners). BLEND must equal B-NO wherever no rewritten seeker's LIMIT
binds (Theorem 1). Where one binds, DESIGN.md § Semantics caveat allows
rewriting to promote tables into the result, so only the weaker
invariants are required: BLEND returns only tables the plan admits, at
least as many as B-NO, every B-NO table when it is not full, and the
common tables in B-NO's order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd


def norm(v) -> str | None:
    """Canonical cell string: integral numbers without a decimal point,
    other floats as %.6g, strings stripped, NULL/NaN/empty as None."""
    if v is None:
        return None
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return None
        return str(int(f)) if f.is_integer() else "%.6g" % f
    s = str(v).strip()
    return s or None


def norm_set(values) -> list[str]:
    """Distinct normalised non-NULL values, first-seen order."""
    return list(dict.fromkeys(n for n in map(norm, values) if n is not None))


@dataclass
class _Table:
    cells: list[list[str | None]]  # [column][row]
    quad: list[list[bool | None] | None]  # per column: >= mean, or None
    n_rows: int


class LakeReference:
    """The raw lake, normalised once, with inverted maps for the seekers."""

    def __init__(self, lake):
        self.tables: dict[int, _Table] = {}
        self.col_hits: dict[str, set[tuple[int, int]]] = {}  # value -> (tid, col)
        self.row_hits: dict[str, set[tuple[int, int]]] = {}  # value -> (tid, row)
        self.cells = 0
        self.numeric_cells = 0
        self.high_cells = 0
        for tid, df in lake.tables.items():
            cells, quad = [], []
            for j, col in enumerate(df.columns):
                s = df[col]
                vals = [norm(v) for v in s.tolist()]
                cells.append(vals)
                if pd.api.types.is_numeric_dtype(s) and s.notna().any():
                    mean = float(s.astype(float).mean())
                    q = [None if pd.isna(v) else bool(float(v) >= mean) for v in s.tolist()]
                    self.numeric_cells += sum(x is not None for x in q)
                    self.high_cells += sum(x is True for x in q)
                else:
                    q = None
                quad.append(q)
                for r, v in enumerate(vals):
                    if v is not None:
                        self.cells += 1
                        self.col_hits.setdefault(v, set()).add((tid, j))
                        self.row_hits.setdefault(v, set()).add((tid, r))
            self.tables[tid] = _Table(cells, quad, len(df))

    # --- seekers: each returns (ranked tables, binds) where ``binds``
    # tells whether the seeker's LIMIT truncated its candidate list
    def sc(self, values, k: int) -> tuple[list[int], bool]:
        overlap: dict[tuple[int, int], int] = {}
        for v in norm_set(values):
            for tc in self.col_hits.get(v, ()):
                overlap[tc] = overlap.get(tc, 0) + 1
        rows = sorted(overlap, key=lambda tc: (-overlap[tc], tc[0], tc[1]))
        return _distinct(t for t, _ in rows[:k]), len(rows) > k

    def kw(self, values, k: int) -> tuple[list[int], bool]:
        overlap: dict[int, int] = {}
        for v in norm_set(values):
            for t in {t for t, _ in self.col_hits.get(v, ())}:
                overlap[t] = overlap.get(t, 0) + 1
        rows = sorted(overlap, key=lambda t: (-overlap[t], t))
        return rows[:k], len(rows) > k

    def mc_rows(self, query: pd.DataFrame) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """Brute force: for every query tuple (rows without NULLs), the lake
        rows holding all its values. Returns (tid -> matched tuple indices,
        tid -> matching row ids)."""
        tuples = []
        for row in query.itertuples(index=False):
            t = [norm(v) for v in row]
            if all(v is not None for v in t):
                tuples.append(set(t))
        matched: dict[int, set[int]] = {}
        rows: dict[int, set[int]] = {}
        for i, t in enumerate(tuples):
            hit = set.intersection(*(self.row_hits.get(v, set()) for v in t))
            for tid, r in hit:
                matched.setdefault(tid, set()).add(i)
                rows.setdefault(tid, set()).add(r)
        return matched, rows

    def mc(self, query: pd.DataFrame, k: int) -> tuple[list[int], bool]:
        matched, rows = self.mc_rows(query)
        ranked = sorted(matched, key=lambda t: (-len(matched[t]), -len(rows[t]), t))
        return ranked[:k], len(ranked) > k

    def c(self, join_values, target_values, k: int, h: int = 256,
          min_qcr: float = 0.0) -> tuple[list[int], bool]:
        first: dict[str, float] = {}
        for j, v in zip(join_values, target_values):
            nj = norm(j)
            if nj is not None and v is not None and not pd.isna(v):
                first.setdefault(nj, float(v))
        if not first:
            return [], False
        mean = float(np.mean(list(first.values())))
        high = {kk for kk, v in first.items() if v >= mean}
        tids = {t for kk in first for t, _ in self.col_hits.get(kk, ())}
        triplets = []  # (qcr, tid, key col, num col)
        for tid in sorted(tids):
            tab = self.tables[tid]
            n = min(h, tab.n_rows)
            for j, keys in enumerate(tab.cells):
                for m, quad in enumerate(tab.quad):
                    if quad is None or m == j:
                        continue
                    hits = total = 0
                    for r in range(n):
                        kk = keys[r]
                        if kk is None or kk not in first or quad[r] is None:
                            continue
                        total += 1
                        hits += (kk in high) == quad[r]
                    if total:
                        triplets.append((abs(2.0 * hits - total) / total, tid, j, m))
        triplets.sort(key=lambda x: (-x[0], x[1], x[2], x[3]))
        kept = [tid for q, tid, _, _ in triplets[:k] if q >= min_qcr]
        return _distinct(kept)[:k], len(triplets) > k


def _distinct(tids) -> list[int]:
    return list(dict.fromkeys(tids))


# --- paper combiners (§IV-B) ---------------------------------------------

def intersect(inputs: list[list[int]], k: int) -> list[int]:
    keep = set(inputs[0]).intersection(*map(set, inputs[1:]))
    return [t for t in inputs[0] if t in keep][:k]


def union(inputs: list[list[int]], k: int) -> list[int]:
    return _distinct(t for ranked in inputs for t in ranked)[:k]


def difference(a: list[int], b: list[int], k: int) -> list[int]:
    drop = set(b)
    return [t for t in a if t not in drop][:k]


def counter(inputs: list[list[int]], k: int) -> list[int]:
    count: dict[int, int] = {}
    for ranked in inputs:
        for t in ranked:
            count[t] = count.get(t, 0) + 1
    return sorted(count, key=lambda t: (-count[t], t))[:k]


# --- Table III task plans under B-NO semantics ---------------------------

ALL = 10**9  # k that never binds: a seeker's full candidate ranking


def task_bno(ref: LakeReference, kind: str, x: dict, k: int) -> tuple[list[int], bool, set[int]]:
    """B-NO result of one Table III task; whether the LIMIT of a seeker the
    optimizer may rewrite (an Intersect member or a Difference minuend)
    binds; and the tables any valid rewrite may return (rewritten seekers
    untruncated, subtrahends as B-NO runs them). Plan shapes follow
    §VIII-B and Listing 4."""
    if kind == "neg":
        pos, binds = ref.mc(x["examples"], 5 * k)
        neg, _ = ref.mc(x["negatives"], 50 * k)
        allowed = set(ref.mc(x["examples"], ALL)[0]) - set(neg)
        return difference(pos, neg, k), binds, allowed
    if kind == "imp":
        ex, b1 = ref.mc(x["examples"], k)
        q, b2 = ref.sc(x["queries"], k)
        allowed = set(ref.mc(x["examples"], ALL)[0]) & set(ref.sc(x["queries"], ALL)[0])
        return intersect([ex, q], k), b1 or b2, allowed
    if kind == "feat":
        prev, binds = ref.c(x["join_values"], x["target"], 5 * k)
        allowed = set(ref.c(x["join_values"], x["target"], ALL)[0])
        for feat in x["features"]:
            f, _ = ref.c(x["join_values"], feat, 5 * k, min_qcr=0.5)
            prev = difference(prev, f, 5 * k)
            allowed -= set(f)
        mc, b2 = ref.mc(x["key_query"], 5 * k)
        allowed &= set(ref.mc(x["key_query"], ALL)[0])
        return intersect([prev, mc], k), binds or b2, allowed
    if kind == "multi":
        # no filter rewrite applies (Union members and a Counter over SC
        # seekers), so BLEND must equal B-NO whatever the LIMITs
        kw, _ = ref.kw(x["keywords"], k)
        scs = [ref.sc(x["examples"][c].tolist(), 100)[0] for c in x["examples"].columns]
        corr, _ = ref.c(x["join_values"], x["target"], k)
        out = union([kw, counter(scs, k), corr], 4 * k)
        return out, False, set(out)
    raise ValueError(kind)


def check_plan(blend: list[int], bno: list[int], binds: bool, allowed: set[int],
               k_root: int) -> str | None:
    """None when BLEND's result is acceptable, else the reason it is not."""
    if not binds:
        return None if blend == bno else f"Theorem 1: BLEND {blend} != B-NO {bno}"
    if len(set(blend)) != len(blend) or len(blend) > k_root:
        return f"malformed result {blend}"
    if not set(blend) <= allowed:
        return f"BLEND returned tables no rewrite admits: {sorted(set(blend) - allowed)}"
    if len(blend) < len(bno):
        return f"BLEND returned fewer tables than B-NO: {blend} vs {bno}"
    if len(blend) < k_root and not set(bno) <= set(blend):
        return f"BLEND (not full) misses B-NO tables: {blend} vs {bno}"
    common = set(blend) & set(bno)
    if [t for t in blend if t in common] != [t for t in bno if t in common]:
        return f"BLEND reorders B-NO tables: {blend} vs {bno}"
    return None


def check_seeker(ref: LakeReference, kind: str, x: dict, k: int, h: int,
                 got: list[int]) -> str | None:
    if kind == "sc":
        want, _ = ref.sc(x["values"], k)
    elif kind == "kw":
        want, _ = ref.kw(x["keywords"], k)
    elif kind == "mc":
        want, _ = ref.mc(x["query"], k)
    else:
        want, _ = ref.c(x["join_values"], x["target_values"], k, h)
    return None if got == want else f"{kind.upper()}: got {got}, reference {want}"


def check_index(lake_ref: LakeReference, stats: dict) -> str | None:
    """``stats`` = index row count, numeric (Quadrant) cells, cells at or
    above their column mean, distinct tables — read from the built index."""
    want = {
        "rows": lake_ref.cells,
        "numeric": lake_ref.numeric_cells,
        "high": lake_ref.high_cells,
        "tables": sum(1 for t in lake_ref.tables.values()
                      if any(v is not None for col in t.cells for v in col)),
    }
    return None if stats == want else f"index stats {stats} != reference {want}"
