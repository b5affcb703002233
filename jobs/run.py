"""Reproduce one evaluation table and print its rows. Usage:
``spark-submit jobs/run.py <table> [scale]`` (table: 3..8, scale:
test|bench, default bench)."""
import importlib
import sys

from _session import get_spark

from repro.harness.common import fmt_markdown

TITLES = {
    "3": "Table III — Complex discovery tasks",
    "4": "Table IV — Optimizer effectiveness",
    "5": "Table V — MC precision: BLEND vs MATE",
    "6": "Table VI — Union search quality: BLEND vs Starmie-sim",
    "7": "Table VII — Correlation-based discovery",
    "8": "Table VIII — Index storage",
}


def main(spark, table: str, scale: str = "bench") -> list[dict]:
    harness = importlib.import_module(f"repro.harness.table{table}")
    rows = getattr(harness, f"run_table{table}")(spark, scale=scale)
    print(f"\n## {TITLES[table]}\n")
    print(fmt_markdown(rows))
    return rows


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in TITLES:
        sys.exit(__doc__)
    table, scale = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "bench"
    spark = get_spark(f"table{table}")
    main(spark, table, scale)
    spark.stop()
