"""Run every workload once untraced and once traced, print their metrics,
and write the trajectory point ``perfbench/baseline.json``.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

Run from the root of a source checkout. ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``. The file records, per workload:
why it exists, the environment and index sizes, the end-to-end metrics and
per-kind medians, fail_frac with each failing check's cause, the traced
per-layer metrics, and the share of a traced operation spent in Catalyst
(analyse + plan), in Spark execution, in the program's Python code and in
the benchmark.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer self times grouped into the shares the breakdown reports
SHARES = {
    "catalyst_analyse_plan": ("seekers.analyze_ms", "seekers.plan_ms"),
    "spark_execution": ("seekers.exec_ms",),
    "python_post_processing": ("seekers.post_ms", "seekers.prepare_ms", "executor.self_ms",
                               "cost_model.rank_ms", "combiners.apply_ms",
                               "tasks.plan_build_ms"),
    "benchmark": ("bench.overhead_ms",),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the benchmark once and return the full record it writes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True)
    path = ROOT / ".perfbench" / f"result-{workload}-{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def shares(per_layer: dict) -> dict:
    parts = {k: sum(per_layer[m]["value"] for m in ms) for k, ms in SHARES.items()}
    total = sum(parts.values())
    return {k: {"ms_per_op": v, "share": v / total} for k, v in parts.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    out = {"command": bench["command"], "seed": args.seed, "seconds": args.seconds,
           "workloads": {}}
    for w in bench["workloads"]:
        plain = run_once(w["name"], args.seed, args.seconds, 0)
        traced = run_once(w["name"], args.seed, args.seconds, 1)
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "env": plain["env"],
            "setup_parts": plain["setup_parts"],
            "end_to_end": plain["metrics"],
            "printed_only": plain["printed"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": plain["failures"],
            "per_layer": traced["metrics"],
            "trace_info": traced["trace_info"],
            "traced_failures": traced["failures"],
            "time_shares": shares(traced["metrics"]),
        }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
