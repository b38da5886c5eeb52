"""Spans recorded from outside flashray.

The tracer wraps a few public entry points while a traced job runs:

- the driver-side ``Engine`` lifecycle (``__init__``, ``run``, ``step``,
  ``broadcast_event``, ``values_pandas``, ``close``), so an engine query
  breaks down into init, supersteps, collect and close;
- ``Dataset.materialize`` and ``Dataset.count``, so every Dataset a call
  executes has its per-operator ``Dataset.stats()`` folded into the
  innermost open span.

Nothing under ``flashray/`` is edited: the wrappers are installed on the
classes for the duration of :meth:`Tracer.instrument` and removed after.
Spans stay in memory; :meth:`Tracer.write` saves them once, at exit.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field

# Operator names Ray Data gives its all-to-all (shuffle) stages.
SHUFFLE_MARKERS = ("Sort", "Shuffle", "Repartition", "Aggregate", "Join")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    job: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # folded Dataset operator stats

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._seen_stats: list = []  # DatasetStats nodes already folded
        self.job: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), parent, name, self.job, time.perf_counter(),
                 attrs=dict(attrs))
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    # -- Dataset.stats() folding ---------------------------------------------

    def fold_dataset(self, ds) -> None:
        """Attach per-operator stats of an executed Dataset to the innermost
        open span. Stats nodes shared with an earlier fold (the input of a
        Dataset derived from a materialized one) are counted once."""
        if not self._stack:
            return
        try:
            root = ds._plan.stats()
        except AttributeError:
            return
        todo = [root]
        while todo:
            node = todo.pop()
            if any(node is s for s in self._seen_stats):
                continue
            self._seen_stats.append(node)
            for name, blocks in node.metadata.items():
                op = _op_stats(name, blocks)
                if op is not None:
                    self._stack[-1].ops.append(op)
            todo.extend(node.parents)

    # -- instrumentation -------------------------------------------------------

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the Engine lifecycle and Dataset execution while active."""
        import ray.data
        from ray.data.dataset import MaterializedDataset

        from flashray.engine import Engine

        tracer = self
        originals = []

        def patch(cls, attr, make):
            orig = getattr(cls, attr)
            originals.append((cls, attr, orig))
            setattr(cls, attr, make(orig))

        def engine_init(orig):
            def wrapper(eng, *a, **kw):
                with tracer.span("engine.init") as s:
                    orig(eng, *a, **kw)
                    s.attrs["actors"] = eng.A
                    s.attrs["actor_cpus"] = getattr(eng, "_actor_cpus", 1.0)
            return wrapper

        def engine_run(orig):
            def wrapper(eng, *a, **kw):
                before = len(eng.lineage)
                with tracer.span("engine.run") as s:
                    out = orig(eng, *a, **kw)
                    s.attrs["messages"] = sum(
                        r.get("messages", 0) for r in eng.lineage[before:]
                    )
                return out
            return wrapper

        def simple(name):
            def make(orig):
                def wrapper(*a, **kw):
                    with tracer.span(name):
                        return orig(*a, **kw)
                return wrapper
            return make

        def engine_close(orig):
            def wrapper(eng, *a, **kw):
                lin = list(eng.lineage)
                with tracer.span("engine.close") as s:
                    s.attrs.update(
                        supersteps=len(lin),
                        messages=sum(r.get("messages", 0) for r in lin),
                        exchanged=sum(r.get("exchanged", 0) for r in lin),
                    )
                    return orig(eng, *a, **kw)
            return wrapper

        def ds_materialize(orig):
            def wrapper(ds, *a, **kw):
                if isinstance(ds, MaterializedDataset):
                    return orig(ds, *a, **kw)
                out = orig(ds, *a, **kw)
                tracer.fold_dataset(out)
                return out
            return wrapper

        def ds_count(orig):
            def wrapper(ds, *a, **kw):
                if isinstance(ds, MaterializedDataset):
                    return orig(ds, *a, **kw)
                return orig(ds.materialize(), *a, **kw)
            return wrapper

        patch(Engine, "__init__", engine_init)
        patch(Engine, "run", engine_run)
        patch(Engine, "step", simple("engine.step"))
        patch(Engine, "broadcast_event", simple("engine.event"))
        patch(Engine, "values_pandas", simple("engine.collect"))
        patch(Engine, "close", engine_close)
        patch(ray.data.Dataset, "materialize", ds_materialize)
        patch(ray.data.Dataset, "count", ds_count)
        try:
            yield self
        finally:
            for cls, attr, orig in reversed(originals):
                setattr(cls, attr, orig)

    # -- queries over recorded spans --------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def self_time(self, span: Span) -> float:
        return span.dur - sum(c.dur for c in self.children(span))

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], [span]
        while todo:
            s = todo.pop()
            kids = self.children(s)
            out.extend(kids)
            todo.extend(kids)
        return out

    def write(self, path: str) -> None:
        """Save every span, with its self time, as one JSON document."""
        rows = [
            {
                "id": s.sid,
                "parent": s.parent,
                "job": s.job,
                "name": s.name,
                "start": s.start,
                "dur_s": s.dur,
                "self_s": self.self_time(s),
                "attrs": s.attrs,
                "ops": s.ops,
            }
            for s in self.spans
        ]
        self_by_name: dict[str, float] = {}
        for r in rows:
            self_by_name[r["name"]] = self_by_name.get(r["name"], 0.0) + r["self_s"]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "self_s_by_name": self_by_name}, fh)


def _op_stats(name: str, blocks) -> dict | None:
    execs = [b.exec_stats for b in blocks if b.exec_stats is not None]
    if not execs:
        return None
    per_task: dict = {}
    for i, e in enumerate(execs):
        key = e.task_idx if getattr(e, "task_idx", None) is not None else ("b", i)
        per_task[key] = per_task.get(key, 0.0) + e.wall_time_s
    tasks = list(per_task.values())
    med = statistics.median(tasks)
    return {
        "name": name,
        "kind": "shuffle" if any(m in name for m in SHUFFLE_MARKERS) else "map",
        "wall_s": max(e.end_time_s for e in execs) - min(e.start_time_s for e in execs),
        "udf_s": sum(e.udf_time_s or 0.0 for e in execs),
        "tasks": len(tasks),
        "task_skew": max(tasks) / med if med > 0 else 1.0,
        "rows": sum(b.num_rows or 0 for b in blocks),
    }


def op_summary(ops: list[dict]) -> dict:
    """Map and shuffle wall summed over operators; task skew (max ÷ median
    task wall) of the slowest operator."""
    if not ops:
        return {"map_s": 0.0, "shuffle_s": 0.0, "task_skew": 0.0}
    slowest = max(ops, key=lambda o: o["wall_s"])
    return {
        "map_s": sum(o["wall_s"] for o in ops if o["kind"] == "map"),
        "shuffle_s": sum(o["wall_s"] for o in ops if o["kind"] == "shuffle"),
        "task_skew": slowest["task_skew"],
    }
