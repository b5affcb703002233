"""Outside-in span tracing of the program's layers.

While installed, :class:`Tracer` replaces functions and methods of the
program and of PySpark with thin wrappers that record a span around each
call. Nothing inside the program changes; the wrappers are removed again
on exit. Spans share the id of the operation they belong to, carry their
parent, and stay in memory until :meth:`Tracer.dump` writes them out.

A span's *self time* is its duration minus its children's durations
(calls nest strictly in the single driver thread), so the self times of
every span of an operation add up to the operation's wall time.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> per-layer metric its self time is reported under
LAYER_OF_SPAN = {
    "op": "bench.overhead_ms",
    "tasks.plan_build": "tasks.plan_build_ms",
    "seekers.prepare": "seekers.prepare_ms",
    "seekers.run": "seekers.post_ms",
    "spark.sql": "seekers.analyze_ms",
    "spark.plan": "seekers.plan_ms",
    "spark.exec": "seekers.exec_ms",
    "executor": "executor.self_ms",
    "cost_model.rank": "cost_model.rank_ms",
    "combiners.apply": "combiners.apply_ms",
    "index.build": "index.self_ms",
    "index.melt": "index.melt_ms",
    "index.create_df": "index.create_df_ms",
    "index.materialize": "index.materialize_ms",
}


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1000.0 * (self.t1 - self.t0)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(self._op, len(self.spans), self._stack[-1].id if self._stack else None,
                 name, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation."""
        self._op = op_id
        try:
            with self.span("op", kind=kind) as s:
                yield s
        finally:
            self._op = -1

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # --- installing wrappers ---------------------------------------------
    def _patch(self, owner, attr: str, make):
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def wrap(self, owner, attr: str, name: str, after=None):
        """Record span ``name`` around ``owner.attr``; ``after(span,
        result)`` may attach attributes from the call's result."""
        tracer = self

        def make(orig):
            def wrapper(*a, **kw):
                with tracer.span(name) as s:
                    out = orig(*a, **kw)
                    if after is not None:
                        after(s, out)
                    return out

            return wrapper

        self._patch(owner, attr, make)

    def wrap_function(self, func, name: str):
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (callers import it by name). A function
        the program no longer has is skipped."""
        import sys

        if func is None:
            return
        tracer = self

        def wrapper(*a, **kw):
            with tracer.span(name):
                return func(*a, **kw)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if val is func:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str):
        """Count calls of ``owner.attr`` on the enclosing span, no span."""
        tracer = self

        def make(orig):
            def wrapper(*a, **kw):
                s = tracer.current()
                if s is not None:
                    s.attrs[counter] = s.attrs.get(counter, 0) + 1
                return orig(*a, **kw)

            return wrapper

        self._patch(owner, attr, make)

    @contextmanager
    def installed(self):
        """Install every wrapper; remove them all on exit."""
        from pyspark.sql.classic.dataframe import DataFrame
        from pyspark.sql.session import SparkSession

        import repro.core.combiners as combiners
        import repro.core.cost_model as cost_model
        import repro.core.executor as executor
        import repro.core.index as index
        import repro.core.seekers as seekers
        import repro.tasks as tasks

        tracer = self
        for name in ("build_negative_examples_plan", "build_imputation_plan",
                     "build_feature_discovery_plan", "build_multi_objective_plan"):
            self.wrap_function(getattr(tasks, name), "tasks.plan_build")
        self.wrap_function(executor.execute_plan, "executor")
        self.wrap_function(index.build_index, "index.build")
        self.wrap_function(getattr(index, "build_alltables_pdf", None), "index.melt")
        self.wrap_function(getattr(cost_model, "rank_seekers", None), "cost_model.rank")
        self.wrap(SparkSession, "createDataFrame", "index.create_df")
        self.wrap(SparkSession, "sql", "spark.sql")

        def materialize(orig):
            def count(df, *a, **kw):
                if not tracer.inside("index.build"):
                    return orig(df, *a, **kw)
                with tracer.span("index.materialize") as s:
                    n = orig(df, *a, **kw)
                    s.attrs["rows"] = n
                    return n

            return count

        self._patch(DataFrame, "count", materialize)

        def collect(orig):
            def fetch(df, *a, **kw):
                if tracer.inside("spark.exec"):  # toPandas -> collect
                    return orig(df, *a, **kw)
                with tracer.span("spark.plan"):
                    df._jdf.queryExecution().executedPlan()
                with tracer.span("spark.exec") as s:
                    out = orig(df, *a, **kw)
                    s.attrs["rows"] = len(out)
                    return out

            return fetch

        self._patch(DataFrame, "collect", collect)
        self._patch(DataFrame, "toPandas", collect)

        def diagnostics(s, res):
            s.attrs.update(getattr(res, "diagnostics", None) or {})

        for cls in _subclasses(seekers.Seeker):
            if "__init__" in cls.__dict__:
                self.wrap(cls, "__init__", "seekers.prepare")
            if "run" in cls.__dict__:
                self.wrap(cls, "run", "seekers.run", after=diagnostics)
        for cls in _subclasses(combiners.Combiner):
            if "apply" in cls.__dict__:
                self.wrap(cls, "apply", "combiners.apply")
        if "original_row" in index.BlendIndex.__dict__:
            self.count_calls(index.BlendIndex, "original_row", "row_reads")
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent,
                                    "name": s.name, "t0": s.t0, "t1": s.t1,
                                    "attrs": s.attrs}, default=str) + "\n")


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> self time in ms (duration minus direct children)."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in child:
            child[s.parent] += s.ms
    return {s.id: s.ms - child[s.id] for s in spans}


def op_breakdown(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time (ms) and counts of the spans of one operation."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    for s in spans:
        add(LAYER_OF_SPAN[s.name], selfs[s.id])
        a = s.attrs
        if s.name == "spark.sql":
            add("seekers.statements", 1)
            p = by_id.get(s.parent)
            while p is not None and p.name != "executor":
                p = by_id.get(p.parent)
            if p is not None:
                add("executor.statements", 1)
        elif s.name == "spark.exec":
            add("seekers.rows_collected", a.get("rows", 0))
        elif s.name == "index.materialize":
            add("index.rows", a.get("rows", 0))
        elif s.name == "executor":
            add("executor.plans", 1)
        for key in ("sql_rows", "bloom_rows", "tp_rows", "row_reads"):
            if key in a:
                add("mc." + key, a[key])
    return out
