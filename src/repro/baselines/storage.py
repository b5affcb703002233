"""Index storage measurement (paper §VIII-H, Table VIII).

BLEND's claim: the single unified ``AllTables`` relation is much smaller
than the *combination* of the stand-alone state-of-the-art indexes it
replaces (DataXFormer inverted index + Josie posting lists + MATE XASH
index + Starmie vectors + QCR sketches). We serialize each structure with
the same writer (pandas -> a single Parquet file with snappy compression;
numpy for the dense Starmie vectors) so the comparison measures index
content, not file-format overhead.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ..core.index import BlendIndex
from .josie import Josie
from .mate import Mate
from .qcr import QcrSketch
from .starmie import Starmie


def _parquet_bytes(pdf: pd.DataFrame, path: str) -> int:
    pdf.to_parquet(path, index=False)
    return os.path.getsize(path)


def blend_bytes(alltables: pd.DataFrame, outdir: str) -> int:
    """The unified index: one relation, six columns (Fig. 3)."""
    return _parquet_bytes(alltables, os.path.join(outdir, "blend_alltables.parquet"))


def dataxformer_bytes(alltables: pd.DataFrame, outdir: str) -> int:
    """DataXFormer [5]: the plain inverted index (value -> location)."""
    pdf = alltables[["CellValue", "TableId", "ColumnId", "RowId"]]
    return _parquet_bytes(pdf, os.path.join(outdir, "dataxformer.parquet"))


def josie_bytes(josie: Josie, outdir: str) -> int:
    """Josie [69]: value -> (table, column) posting lists + cardinalities."""
    rows = [
        (v, t, c) for v, locs in josie.postings.items() for (t, c) in locs
    ]
    pdf = pd.DataFrame(rows, columns=["Value", "TableId", "ColumnId"])
    return _parquet_bytes(pdf, os.path.join(outdir, "josie.parquet"))


def mate_bytes(mate: Mate, outdir: str) -> int:
    """MATE [24]: value -> (table, row) postings + per-row XASH keys."""
    rows = [(v, t, r) for v, locs in mate.postings.items() for (t, r) in locs]
    post = pd.DataFrame(rows, columns=["Value", "TableId", "RowId"])
    keys = pd.DataFrame(
        [(t, r, sk) for (t, r), sk in mate.superkeys.items()],
        columns=["TableId", "RowId", "SuperKey"],
    )
    return _parquet_bytes(post, os.path.join(outdir, "mate_postings.parquet")) + _parquet_bytes(
        keys, os.path.join(outdir, "mate_superkeys.parquet")
    )


def qcr_bytes(qcr: QcrSketch, outdir: str) -> int:
    """QCR [49]: one sketch row per (table, cat col, num col, hash)."""
    rows = [
        (t, cj, nj, h)
        for (t, cj, nj), sk in qcr.sketches.items()
        for h in sk
    ]
    pdf = pd.DataFrame(rows, columns=["TableId", "CatCol", "NumCol", "Hash"])
    # store Hash as unsigned to avoid overflow on 64-bit values
    pdf["Hash"] = pdf["Hash"].astype("uint64")
    return _parquet_bytes(pdf, os.path.join(outdir, "qcr.parquet"))


def starmie_bytes(starmie: Starmie, outdir: str) -> int:
    """Starmie [25]: dense column-embedding matrix (float32 .npy)."""
    mats = [m.astype(np.float32) for m in starmie.vectors.values()]
    path = os.path.join(outdir, "starmie.npy")
    np.save(path, np.concatenate(mats, axis=0))
    return os.path.getsize(path)


def storage_report(index: BlendIndex, outdir: str) -> dict[str, int]:
    """Build every stand-alone index over the lake and measure all sizes.
    Returns bytes per structure plus the BLEND-vs-combination totals."""
    os.makedirs(outdir, exist_ok=True)
    lake = index.lake
    alltables = index.df.toPandas()  # the cached index, pulled for measurement only
    sizes = {
        "blend": blend_bytes(alltables, outdir),
        "dataxformer": dataxformer_bytes(alltables, outdir),
        "josie": josie_bytes(Josie(lake), outdir),
        "mate": mate_bytes(Mate(lake), outdir),
        "qcr": qcr_bytes(QcrSketch(lake), outdir),
        "starmie": starmie_bytes(Starmie(lake), outdir),
    }
    sizes["combination"] = (
        sizes["dataxformer"] + sizes["josie"] + sizes["mate"]
        + sizes["qcr"] + sizes["starmie"]
    )
    return sizes
