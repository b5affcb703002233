"""Plan optimization and execution (paper §VII-B).

Two execution modes share one topological node loop:

- **BLEND** (``optimize=True``): the optimizer identifies *execution
  groups* (EGs) — seekers feeding the same Intersection combiner — orders
  EGs topologically, ranks seekers inside each EG (rules + cost model),
  and rewrites each subsequent seeker's SQL with the intermediate results
  of the previous one (``TableId IN/NOT IN (…)``). Counter combiners over
  SC/KW seekers are pushed down into a single in-DB
  ``UNION ALL … GROUP BY TableId ORDER BY COUNT(*)`` query. Difference
  always executes its subtrahend first and rewrites the minuend with
  ``NOT IN``. Union members run independently (no rewriting) — exactly
  the paper's rewrite table.

- **B-NO** (``optimize=False``): every seeker runs independently at its
  own position in plan order, combiners are applied at the application
  level — the paper's unoptimized baseline in Table III.

Rewriting is only applied to seekers with a *single* consumer: a result
filtered for one combiner would be incorrect input for another. So BLEND
defers exactly those seekers to their combiner; every other seeker runs
plain at its own position, as under B-NO.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .combiners import Counter, Difference, Intersect
from .cost_model import CostModel, rank_seekers
from .index import BlendIndex
from .plan import Node, Plan
from .seekers import SC


@dataclass
class PlanResult:
    """Execution outcome: per-node ranked outputs + bookkeeping.

    Seekers folded into a Counter push-down never produce an output of
    their own, so they are absent from ``outputs`` (but listed in
    ``order``); the push-down's statement time is recorded under the
    Counter's name in ``seeker_seconds``."""

    outputs: dict[str, list[int]] = field(default_factory=dict)
    result: list[int] = field(default_factory=list)
    seconds: float = 0.0
    seeker_seconds: dict[str, float] = field(default_factory=dict)
    sqls: list[str] = field(default_factory=list)
    order: list[str] = field(default_factory=list)  # seeker execution order
    rewrites: dict[str, str] = field(default_factory=dict)  # node -> rewrite kind


def execute_plan(
    plan: Plan,
    index: BlendIndex,
    *,
    optimize: bool = True,
    cost_model: CostModel | None = None,
) -> PlanResult:
    """Execute ``plan`` against ``index``; see module docstring."""
    t0 = time.perf_counter()
    out = PlanResult()
    consumers = plan.consumers()

    def run(node: Node, tid_filter=None) -> list[int]:
        res = node.op.run(index, tid_filter)
        out.outputs[node.name] = res.tables
        out.seeker_seconds[node.name] = res.seconds
        out.sqls.append(res.sql)
        out.order.append(node.name)
        if tid_filter is not None:
            out.rewrites[node.name] = tid_filter[0]
        return res.tables

    for node in plan.topological():
        if node.is_seeker:
            # BLEND leaves a single-consumer seeker to its combiner's EG
            if not (optimize and len(consumers[node.name]) == 1):
                run(node)
            continue

        comb = node.op
        # seekers deferred to this combiner; empty under B-NO
        pending = [plan.nodes[i] for i in node.inputs if i not in out.outputs]
        if isinstance(comb, Intersect):
            # --- Execution Group: rank seekers, chain IN-rewrites
            ir: list[int] | None = None
            for name in node.inputs:
                if name in out.outputs:  # shared seekers and upstream combiners
                    tabs = out.outputs[name]
                    ir = tabs if ir is None else [t for t in ir if t in set(tabs)]
            for name, _ in rank_seekers([(p.name, p.op) for p in pending], index, cost_model):
                tabs = run(plan.nodes[name], None if ir is None else ("IN", ir))
                ir = tabs if ir is None else [t for t in tabs if t in set(ir)]
        elif isinstance(comb, Difference):
            a_name, b_name = node.inputs
            # subtrahend first (its tables become the NOT IN filter)
            if b_name not in out.outputs:
                run(plan.nodes[b_name])
            if a_name not in out.outputs:
                run(plan.nodes[a_name], ("NOT IN", out.outputs[b_name]))
        elif (
            isinstance(comb, Counter)
            and pending
            and len(pending) == len(node.inputs)
            and all(isinstance(p.op, SC) for p in pending)  # SC or KW
        ):
            inner = "\nUNION ALL\n".join(f"({p.op.inner_sql(index.view)})" for p in pending)
            sql = (
                "SELECT TableId, COUNT(*) AS cnt FROM (\n"
                f"{inner}\n) hits\n"
                "GROUP BY TableId\n"
                f"ORDER BY cnt DESC, TableId ASC\nLIMIT {comb.k}"
            )
            ts = time.perf_counter()
            rows = index.spark.sql(sql).collect()
            out.sqls.append(sql)
            out.rewrites[node.name] = "COUNT-pushdown"
            out.seeker_seconds[node.name] = time.perf_counter() - ts
            out.outputs[node.name] = [r.TableId for r in rows]
            out.order.extend(p.name for p in pending)
            continue
        else:  # Union, or a Counter that cannot be pushed down: no rewriting
            for p in pending:
                run(p)

        out.outputs[node.name] = comb.apply([out.outputs[i] for i in node.inputs])

    out.result = out.outputs[plan.result_node]
    out.seconds = time.perf_counter() - t0
    return out
