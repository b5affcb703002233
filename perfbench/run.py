"""BLEND benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload plans|seekers --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/`` and its Spark session comes from ``jobs/_session.get_spark``
(local mode, one task thread per core). The next operation starts when
the previous one returns. Every result is checked afterwards against an
independent pandas reference (``reference.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds of operations and prints the per-layer
metrics of the traced ones. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run's full record (that
object plus the environment, the failed checks, the printed-only metrics
and the sample counts) is written to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("plans", "seekers")
# Rounds (one operation per kind) run before timing. Catalyst's code paths
# keep getting faster for ~5 rounds; the first round is the slowest and two
# take most of the gain within the time budget.
WARMUP_ROUNDS = 2

# The end-to-end metrics of the JSON result. op_tail_ms, the per-kind
# medians (<kind>_p50_ms) and fail_frac are printed above it only. A run
# holds 12 ops, three or four rounds of one op per kind, so the tail is a p17
# and each median has three or four samples: they spread too widely across
# runs to gate on. And fail_frac is 0 on a correct program.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "driver_rss_mb": "MB",
    "index_bytes_per_cell": "B",
}
PER_LAYER = {
    "index.melt_ms": "ms", "index.create_df_ms": "ms", "index.materialize_ms": "ms",
    "index.self_ms": "ms", "index.rows": "count", "index.cached_bytes": "B",
    "seekers.prepare_ms": "ms", "seekers.analyze_ms": "ms", "seekers.plan_ms": "ms",
    "seekers.exec_ms": "ms", "seekers.post_ms": "ms", "seekers.rows_collected": "count",
    "seekers.statements": "count", "spark.jobs": "count", "spark.stages": "count",
    "spark.tasks": "count", "mc.sql_rows": "count", "mc.bloom_rows": "count",
    "mc.tp_rows": "count", "mc.row_reads": "count", "mc.bloom_precision": "ratio",
    "mc.sql_precision": "ratio", "executor.self_ms": "ms",
    "executor.statements_per_plan": "count", "cost_model.rank_ms": "ms",
    "combiners.apply_ms": "ms", "tasks.plan_build_ms": "ms", "bench.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}
INDEX_LAYERS = ("index.melt_ms", "index.create_df_ms", "index.materialize_ms",
                "index.self_ms", "index.rows")
SPARK_COUNTS = ("spark.jobs", "spark.stages", "spark.tasks")


def _bootstrap() -> None:
    """Make the checkout's program importable and keep every file Spark
    and Python write inside the checkout. Exits 2 without a program."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_session.py").is_file():
        sys.exit(f"perfbench: no program under {ROOT} (need src/repro and jobs/_session.py)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(Path(__file__).resolve().parent)]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # the session factory's own defaults, so session-tuning changes show
    for var in ("SPARK_SHUFFLE_PARTITIONS", "SPARK_MASTER", "SPARK_DRIVER_MEM",
                "PYSPARK_SUBMIT_ARGS"):
        os.environ.pop(var, None)


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, i.e. the 11th-largest latency."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def cached_index(spark) -> tuple[int, int]:
    """(bytes, partitions) of the cached RDDs Spark's storage reports."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(i.memSize() for i in infos), sum(i.numCachedPartitions() for i in infos)


def index_stats(spark, view: str) -> dict:
    """What the index check compares, read from the built index."""
    r = spark.sql(
        "SELECT COUNT(*) AS n, COUNT(Quadrant) AS q, "
        f"COUNT_IF(Quadrant) AS hi, COUNT(DISTINCT TableId) AS t FROM {view}"
    ).collect()[0]
    return {"rows": r.n, "numeric": r.q, "high": r.hi, "tables": r.t}


def non_null_cells(lake) -> int:
    return int(sum(df.notna().to_numpy().sum() for df in lake.tables.values()))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import numpy as np

        import workloads as W
        from spans import Tracer

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.kinds = W.PLAN_KINDS if workload == "plans" else W.SEEKER_KINDS
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.tracer = Tracer()
        self.records: list[dict] = []  # one per timed operation

    def _op(self, kind, g):
        import workloads as W

        make = W.plan_op if self.workload == "plans" else W.seeker_op
        return make(kind, self.index, self.lake, g)

    # --- set-up: session, lake, index, warm-up --------------------------
    def setup(self):
        import numpy as np
        import pandas as pd

        import workloads as W

        t0 = time.perf_counter()
        from jobs._session import get_spark

        self.spark = get_spark("perfbench")
        t1 = time.perf_counter()
        with ExitStack() as traced:
            if self.trace:
                traced.enter_context(self.tracer.installed())
                traced.enter_context(self.tracer.operation(-2, "setup"))
            self.lake = W.plans_lake() if self.workload == "plans" else W.seekers_lake()
            self.index = W.core.build_index(self.spark, self.lake, view="AllTables")
        t2 = time.perf_counter()
        warm = np.random.default_rng([self.seed, 99])
        for _ in range(WARMUP_ROUNDS):
            for kind in self.kinds:
                self._op(kind, warm).run()
        t3 = time.perf_counter()
        self.setup_s = t3 - t0
        self.setup_parts = {"session_s": t1 - t0, "lake_and_index_s": t2 - t1,
                            "warmup_s": t3 - t2}
        # untimed: what the index check and the size metrics need
        self.index_check = index_stats(self.spark, self.index.view)
        self.index_bytes, self.index_partitions = cached_index(self.spark)
        self.index_cells = non_null_cells(self.lake)
        conf = self.spark.sparkContext.getConf()
        self.env = {
            "cores": os.cpu_count(),
            "spark_master": self.spark.sparkContext.master,
            "spark": self.spark.version,
            "pandas": pd.__version__,
            "python": platform.python_version(),
            "shuffle_partitions": self.spark.conf.get("spark.sql.shuffle.partitions"),
            "driver_memory": conf.get("spark.driver.memory", "default (1g)"),
            "index_rows": self.index_check["rows"],
            "index_cached_bytes": self.index_bytes,
            "index_partitions": self.index_partitions,
            "lake_tables": self.lake.n_tables,
            "lake_rows": self.lake.n_rows,
            "lake_non_null_cells": self.index_cells,
        }

    # --- the closed loop -------------------------------------------------
    def measure(self):
        sc = self.spark.sparkContext
        deadline = time.perf_counter() + self.seconds
        n = 0
        # whole rounds (one op per kind), so every kind weighs the same in
        # ops_per_s; at least three rounds and 11 ops, so op_tail_ms has ten
        # samples beyond it
        least = max(3 * len(self.kinds), 11)
        while n < least or n % len(self.kinds) or time.perf_counter() < deadline:
            kind = self.kinds[n % len(self.kinds)]
            # a traced run alternates untraced and traced rounds
            traced = self.trace and (n // len(self.kinds)) % 2 == 1
            op = self._op(kind, self.rng)
            rec = {"id": n, "kind": kind, "inputs": op.inputs, "traced": traced}
            if traced:
                sc.setJobGroup(f"perfbench-{n}", kind)
                with self.tracer.installed():
                    t0 = time.perf_counter()
                    with self.tracer.operation(n, kind):
                        rec["out"] = op.run()
                    rec["ms"] = 1000.0 * (time.perf_counter() - t0)
                rec.update(self._spark_counts(sc, f"perfbench-{n}"))
            else:
                t0 = time.perf_counter()
                rec["out"] = op.run()
                rec["ms"] = 1000.0 * (time.perf_counter() - t0)
            self.records.append(rec)
            n += 1
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @staticmethod
    def _spark_counts(sc, group) -> dict:
        st = sc.statusTracker()
        jobs = list(st.getJobIdsForGroup(group))
        stages = [s for j in jobs if (info := st.getJobInfo(j)) for s in info.stageIds]
        tasks = sum(info.numTasks for s in stages if (info := st.getStageInfo(s)))
        return {"spark.jobs": len(jobs), "spark.stages": len(stages), "spark.tasks": tasks}

    # --- correctness -----------------------------------------------------
    def verify(self) -> list[str]:
        """Check the index and every result against the reference. Returns
        one cause per failed check and marks ``rec['ok']``."""
        import reference as R
        import workloads as W

        ref = R.LakeReference(self.lake)
        causes = []
        cause = R.check_index(ref, self.index_check)
        self.index_ok = cause is None
        if cause:
            causes.append(f"set-up index build: {cause}")
        for rec in self.records:
            kind, x = rec["kind"], rec["inputs"]
            try:
                if self.workload == "plans":
                    bno, binds, allowed = R.task_bno(ref, kind, x, W.K)
                    k_root = 4 * W.K if kind == "multi" else W.K
                    cause = R.check_plan(rec["out"], bno, binds, allowed, k_root)
                else:
                    cause = R.check_seeker(ref, kind, x, W.K, W.H, rec["out"])
            except Exception as e:  # a crashing check is a failed check, not a lost run
                cause = f"reference check raised {e!r}"
            rec["ok"] = cause is None
            if cause:
                causes.append(f"op {rec['id']} ({kind}): {cause}")
        return causes

    # --- metrics ---------------------------------------------------------
    def latencies(self, kind, traced=False) -> list[float]:
        return [r["ms"] for r in self.records if r["kind"] == kind and r["traced"] == traced]

    def end_to_end(self) -> dict:
        lat = [r["ms"] for r in self.records if not r["traced"]]
        self.tail_info = tail(lat) + (len(lat),)
        m = {
            "setup_s": self.setup_s,
            "ops_per_s": 1000.0 * len(lat) / sum(lat),
            "driver_rss_mb": self.rss_mb,
        }
        m["index_bytes_per_cell"] = self.index_bytes / self.index_cells
        return m

    def per_layer(self) -> dict:
        """Per-op means over the traced operations (means, unlike medians,
        add up: the ``_ms`` layers sum to the mean traced op time)."""
        from spans import op_breakdown

        by_op: dict[int, list] = {}
        for s in self.tracer.spans:
            by_op.setdefault(s.op, []).append(s)
        traced = [r for r in self.records if r["traced"]]
        parts = [op_breakdown(by_op[r["id"]]) for r in traced]
        for p, r in zip(parts, traced):
            p.update({k: r[k] for k in SPARK_COUNTS})
        m = {name: _mean([p.get(name, 0.0) for p in parts]) for name in PER_LAYER}
        build = op_breakdown(by_op.get(-2, []))  # index layers: the set-up build
        m.update({name: build.get(name, 0.0) for name in INDEX_LAYERS})
        m["index.cached_bytes"] = float(self.index_bytes)

        def total(key):
            return sum(p.get(key, 0.0) for p in parts)

        plans = total("executor.plans")
        m["executor.statements_per_plan"] = total("executor.statements") / plans if plans else 0.0
        sql, bloom, tp = total("mc.sql_rows"), total("mc.bloom_rows"), total("mc.tp_rows")
        m["mc.bloom_precision"] = tp / bloom if bloom else 0.0
        m["mc.sql_precision"] = tp / sql if sql else 0.0
        # per kind, so a partial last round does not tilt the comparison
        ratios = [_mean(self.latencies(k, True)) / _mean(self.latencies(k))
                  for k in self.kinds if self.latencies(k, True) and self.latencies(k)]
        m["trace.overhead_frac"] = _mean(ratios) - 1.0 if ratios else 0.0
        self.trace_info = {
            "traced_ops": len(traced),
            "untraced_ops": sum(not r["traced"] for r in self.records),
            "traced_op_ms": _mean([r["ms"] for r in traced]),
            "mc_bloom_rows": bloom,
            "mc_sql_rows": sql,
        }
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _bootstrap()

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.setup()
        bench.measure()
    finally:
        if hasattr(bench, "spark"):
            _stop(bench.spark)
    causes = bench.verify()
    attempted = len(bench.records) + 1  # + the set-up index build
    failed = sum(not r["ok"] for r in bench.records) + (not bench.index_ok)

    def p(line):
        print(line, flush=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": bench.env, "setup_parts": bench.setup_parts, "failures": causes}
    p(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
      f"timed ops {len(bench.records)}  kinds {', '.join(bench.kinds)}")
    p("env " + json.dumps(bench.env))
    p("set-up " + ", ".join(f"{k} {v:.3f}" for k, v in bench.setup_parts.items()))
    p(f"fail_frac {failed / attempted:.4f} ratio  ({failed} of {attempted} checked: "
      f"{len(bench.records)} ops + the set-up index build)")
    for c in causes:
        p(f"  FAILED {c}")
    printed = {"fail_frac": {"value": failed / attempted, "unit": "ratio"}}
    if args.trace:
        metrics, units = bench.per_layer(), PER_LAYER
        info = record["trace_info"] = bench.trace_info
        p(f"per-layer values are means over {info['traced_ops']} traced ops "
          f"({info['traced_op_ms']:.1f} ms each); index.* from the set-up build; "
          f"mc precision bases: {info['mc_bloom_rows']:.0f} bloom rows, "
          f"{info['mc_sql_rows']:.0f} sql rows")
        p(f"trace.overhead_frac compares {info['traced_ops']} traced with "
          f"{info['untraced_ops']} untraced ops of the same run")
        bench.tracer.dump(str(WORK / f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics, units = bench.end_to_end(), END_TO_END
        value, pct, beyond, n = bench.tail_info
        p(f"{'op_tail_ms':<30} {value:14.4f} ms  (p{pct:.1f} of {n} ops, {beyond} beyond it)")
        printed["op_tail_ms"] = {"value": value, "unit": "ms", "percentile": pct,
                                 "ops": n, "beyond": beyond}
        for kind in bench.kinds:
            lat = bench.latencies(kind)
            p(f"{kind + '_p50_ms':<30} {_median(lat):14.4f} ms  (over "
              + " ".join(f"{x:.0f}" for x in lat) + ")")
            printed[f"{kind}_p50_ms"] = {"value": _median(lat), "unit": "ms", "samples": lat}
    for name, v in metrics.items():
        p(f"{name:<30} {v:14.4f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result, printed=printed)
    out = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    p(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
