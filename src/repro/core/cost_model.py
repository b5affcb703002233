"""Learning-based cost estimation (paper §VII-B).

One linear-regression model per seeker type predicts relative runtime from
three features: cardinality of Q, number of columns in Q, and the average
frequency of Q's values in the lake (for MC: the *product* of per-column
average frequencies, because the MC SQL joins the per-column hit sets).
Training samples random Qs from the lake, times real executions, and fits
with ordinary least squares — "training occurs offline during deployment".
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .index import BlendIndex
from .seekers import C, KW, MC, SC, Seeker, TYPE_RANK


def featurize(seeker: Seeker, index: BlendIndex) -> np.ndarray:
    """[1, card, n_cols, avg_freq, card*avg_freq] — the interaction term
    captures that runtime scales with the number of index hits."""
    card = float(seeker.input_cardinality())
    ncols = float(seeker.n_columns())
    freq = float(seeker.avg_frequency(index))
    return np.array([1.0, card, ncols, freq, card * freq])


@dataclass
class CostModel:
    """Per-seeker-type OLS runtime model with a frequency-based fallback
    for types never trained."""

    coef: dict[str, list[float]] = field(default_factory=dict)

    def predict(self, seeker: Seeker, index: BlendIndex) -> float:
        x = featurize(seeker, index)
        w = self.coef.get(seeker.type_name)
        if w is None:
            # heuristic fallback: expected index hits
            return x[1] * (1.0 + x[3])
        return float(np.dot(np.asarray(w), x))

    def fit(self, samples: list[tuple[str, np.ndarray, float]]) -> "CostModel":
        by_type: dict[str, list[tuple[np.ndarray, float]]] = {}
        for t, x, y in samples:
            by_type.setdefault(t, []).append((x, y))
        for t, rows in by_type.items():
            X = np.stack([x for x, _ in rows])
            y = np.array([s for _, s in rows])
            w, *_ = np.linalg.lstsq(X, y, rcond=None)
            self.coef[t] = [float(v) for v in w]
        return self

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.coef, f, indent=2)

    @classmethod
    def load(cls, path: str) -> "CostModel":
        with open(path) as f:
            return cls(coef=json.load(f))


# --- random training-query sampling (§VII-B: "randomly sample 1000 input
# Qs from the ... data lake") -- scaled down to laptop size. Each sampler
# draws from a big/small mixture so runtime genuinely varies with |Q| and
# value frequency; otherwise ranking would not matter (Table IV). ---------

def _rand_table(index: BlendIndex, g: np.random.Generator, min_cols: int = 1) -> pd.DataFrame:
    tids = [t for t, df in index.lake.tables.items() if len(df.columns) >= min_cols]
    return index.lake.tables[tids[int(g.integers(0, len(tids)))]]


def sample_sc_query(index: BlendIndex, g: np.random.Generator) -> SC:
    df = _rand_table(index, g)
    col = df.columns[int(g.integers(0, len(df.columns)))]
    big = g.random() < 0.5
    m = int(g.integers(200, 600)) if big else int(g.integers(4, 15))
    vals = [df[col].iloc[int(g.integers(0, len(df)))] for _ in range(m)]
    return SC(vals, k=10)


def sample_kw_query(index: BlendIndex, g: np.random.Generator) -> KW:
    pool = index.value_freq.index
    m = int(g.integers(2, 8))
    return KW([pool[int(i)] for i in g.integers(0, len(pool), m)], k=10)


def sample_mc_query(index: BlendIndex, g: np.random.Generator) -> MC:
    df = _rand_table(index, g, min_cols=2)
    cols = list(g.choice(len(df.columns), size=2, replace=False))
    big = g.random() < 0.5
    m = int(g.integers(40, 120)) if big else int(g.integers(3, 8))
    sub = df.iloc[:, cols].dropna()
    sub = sub.sample(n=min(m, len(sub)), replace=True,
                     random_state=int(g.integers(0, 2**31)))
    return MC(sub.reset_index(drop=True), k=10)


def sample_c_query(index: BlendIndex, g: np.random.Generator) -> C:
    cands = []
    for t, df in index.lake.tables.items():
        nums = [c for c in df.columns if pd.api.types.is_numeric_dtype(df[c])]
        if nums and len(df.columns) >= 2:
            cands.append((t, nums))
    t, nums = cands[int(g.integers(0, len(cands)))]
    df = index.lake.tables[t]
    num = nums[int(g.integers(0, len(nums)))]
    key = [c for c in df.columns if c != num][0]
    big = g.random() < 0.5
    m = int(g.integers(150, 400)) if big else int(g.integers(5, 15))
    sub = df[[key, num]].dropna().head(m)
    return C(list(sub[key]), list(sub[num]), k=10)


SAMPLERS = {"SC": sample_sc_query, "KW": sample_kw_query,
            "MC": sample_mc_query, "C": sample_c_query}


def train_cost_model(
    index: BlendIndex,
    *,
    n_per_type: int = 20,
    seed: int = 0,
    types: tuple[str, ...] = ("SC", "KW", "MC", "C"),
) -> CostModel:
    """Offline training: sample random Qs per type, execute them, fit OLS."""
    g = np.random.default_rng(seed)
    samples = []
    for t in types:
        for _ in range(n_per_type):
            seeker = SAMPLERS[t](index, g)
            res = seeker.run(index)
            samples.append((t, featurize(seeker, index), res.seconds))
    return CostModel().fit(samples)


def rank_seekers(
    named: list[tuple[str, Seeker]],
    index: BlendIndex,
    cost_model: CostModel | None,
) -> list[tuple[str, Seeker]]:
    """Two-step ranking (§VII-B): rule-based by type (Rules 1–3: KW first,
    MC last, SC before C), then the learned cost model within a type."""
    cm = cost_model or CostModel()
    return sorted(
        named,
        key=lambda ns: (TYPE_RANK[ns[1].type_name], cm.predict(ns[1], index), ns[0]),
    )
