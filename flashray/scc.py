"""Strongly connected components (A12, ``libgraph-algs/scc.cpp`` —
``compute_scc``) via Forward-Backward-Trim coloring on the superstep engine.

The reference's FW-BW + trimming structure (SURVEY.md §2.2 A12) maps to a
*bidirected* graph: every directed edge is materialized twice with an etype
channel (``fwd`` and ``bwd``), so one engine/actor pool serves both
propagation directions — the program masks the scatter per channel
(``VertexProgram.edge_mask``), switching phases via driver events:

1. **degree measure** (2 supersteps): every vertex scatters 1 on each
   channel; the aggregates are its alive fwd-in/out degrees. Doing this
   through the engine (instead of shard-local counting) is split-safe:
   a super-hub's spread-out adjacency still sums correctly.
2. **trim** loop: vertices with zero alive in- or out-degree are their own
   SCC; their deaths broadcast degree decrements on both channels until
   stable (the reference's trimming).
3. **color**: forward min-label propagation among alive vertices → F.
   F is monotone non-increasing along forward edges.
4. **backward**: roots (F(v) == v) flood "reached" along the bwd channel
   restricted to equal-F vertices. Max-combine of (reached ? F : -inf)
   is exact: all incoming F ≤ own F, so a max equal to own F ⟺ some
   same-color successor is reached.
5. **assign**: alive ∧ reached vertices form the roots' SCCs (label = F =
   the SCC's minimum member id); their deaths feed the next trim round.

Deterministic; label = min vertex id of the component (same convention as
WCC). Rounds needed grow with the DAG depth of the condensation — trimming
collapses the long acyclic tails fast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from flashray.build import Graph, build_graph
from flashray.csr import INT_IDENTITY
from flashray.engine import run_program
from flashray.programs import VertexProgram

NEG = np.iinfo(np.int64).min
FWD, BWD = 0, 1


def build_bidirected(graph: Graph, path: str, **build_kwargs) -> Graph:
    """Materialize the channel-tagged bidirected graph for SCC."""

    def tag(b: pa.Table) -> pa.Table:
        n = b.num_rows
        fwd = pa.table(
            {
                "src": b["src"],
                "dst": b["dst"],
                "etype": pa.array(["fwd"] * n, type=pa.string()),
                "weight": b["weight"],
                "ts": b["ts"],
            }
        )
        bwd = pa.table(
            {
                "src": b["dst"],
                "dst": b["src"],
                "etype": pa.array(["bwd"] * n, type=pa.string()),
                "weight": b["weight"],
                "ts": b["ts"],
            }
        )
        return pa.concat_tables([fwd, bwd]).combine_chunks()

    edges = graph.edges_dataset(
        columns=["src", "dst", "etype", "weight", "ts"]
    ).map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    build_kwargs.setdefault("num_partitions", graph.num_partitions)
    return build_graph(edges, path, **build_kwargs)


class SCCProgram(VertexProgram):
    dtype = np.int64
    frontier_only = True
    uses_channels = True
    channel_map = {"fwd": FWD, "bwd": BWD}

    # phase-dependent (mutated in lock-step on every actor copy via on_event)
    combine = "sum"
    identity = 0
    _channel = FWD

    def init_state(self, shard, N):
        return {
            "values": np.full(shard.nv, INT_IDENTITY, dtype=np.int64),  # scc
            "F": np.full(shard.nv, INT_IDENTITY, dtype=np.int64),
            "reached": np.zeros(shard.nv, dtype=bool),
            "alive": np.ones(shard.nv, dtype=bool),
            "in_alive": np.zeros(shard.nv, dtype=np.int64),
            "out_alive": np.zeros(shard.nv, dtype=np.int64),
            "active": np.ones(shard.nv, dtype=bool),
            "phase": "deg_fwd",
        }

    def edge_mask(self, shard, state):
        if shard.edge_channel is None:
            return None
        return shard.edge_channel == self._channel

    def signal(self, shard, state):
        ph = state["phase"]
        if ph in ("deg_fwd", "deg_bwd", "trim_fwd", "trim_bwd"):
            return np.ones(shard.nv, dtype=np.int64)
        if ph == "color":
            return state["F"]
        # backward: reached vertices emit their color
        return np.where(state["reached"], state["F"], NEG)

    def apply(self, shard, state, agg, N):
        ph = state["phase"]
        alive = state["alive"]
        if ph == "deg_fwd":
            state["in_alive"] = agg
            return {"changed": 1, "active": int(alive.sum())}
        if ph == "deg_bwd":
            state["out_alive"] = agg
            return {"changed": 1, "active": int(alive.sum())}
        if ph == "trim_fwd":
            state["in_alive"] = state["in_alive"] - np.where(alive, agg, 0)
            return {"changed": 1, "active": int(state["active"].sum())}
        if ph == "trim_bwd":
            state["out_alive"] = state["out_alive"] - np.where(alive, agg, 0)
            return {"changed": 1, "active": int(state["active"].sum())}
        if ph == "color":
            new = np.minimum(state["F"], agg)
            changed = alive & (new < state["F"])
            state["F"] = np.where(alive, new, state["F"])
            state["active"] = changed
            n = int(changed.sum())
            return {"changed": n, "active": n}
        # backward
        newly = alive & ~state["reached"] & (agg == state["F"]) & (agg != NEG)
        state["reached"] |= newly
        state["active"] = newly
        n = int(newly.sum())
        return {"changed": n, "active": n}

    def on_event(self, shard, state, payload):
        ph = payload["phase"]
        state["phase"] = ph
        alive = state["alive"]
        if ph in ("deg_fwd", "trim_fwd", "color"):
            self._channel = FWD
        else:
            self._channel = BWD
        if ph in ("deg_fwd", "deg_bwd", "trim_fwd", "trim_bwd"):
            self.combine, self.identity = "sum", 0
        elif ph == "color":
            self.combine, self.identity = "min", INT_IDENTITY
        elif ph == "backward":
            self.combine, self.identity = "max", NEG

        if ph in ("deg_fwd", "deg_bwd"):
            state["active"] = alive.copy()
            return {"alive": int(alive.sum())}
        if ph == "trim_eval":
            newly = alive & (
                (state["in_alive"] <= 0) | (state["out_alive"] <= 0)
            )
            state["values"][newly] = shard.vertex_ids[newly]
            state["alive"] = alive & ~newly
            state["active"] = newly  # pending decrement broadcast
            return {
                "changed": int(newly.sum()),
                "alive": int(state["alive"].sum()),
            }
        if ph == "color":
            state["F"] = np.where(alive, shard.vertex_ids, INT_IDENTITY)
            state["active"] = alive.copy()
            return {"alive": int(alive.sum())}
        if ph == "backward":
            roots = alive & (state["F"] == shard.vertex_ids)
            state["reached"] = roots
            state["active"] = roots.copy()
            return {"roots": int(roots.sum())}
        if ph == "assign":
            newly = alive & state["reached"]
            state["values"][newly] = state["F"][newly]
            state["alive"] = alive & ~newly
            state["active"] = newly  # pending decrement broadcast
            return {
                "changed": int(newly.sum()),
                "alive": int(state["alive"].sum()),
            }
        return {}

    def state_columns(self):
        return [
            "values", "F", "reached", "alive", "in_alive", "out_alive", "active",
        ]


def scc(
    graph: Graph,
    *,
    scratch_dir: str,
    max_rounds: int = 10_000,
    actor_cpus: float | None = None,
    out_dir: str | None = None,
):
    """SCC labels for a *directed* graph handle. Returns (vertex_id, value)
    with value = min member id of the vertex's SCC."""
    import os

    bi_path = os.path.join(scratch_dir, "bidirected")
    if not os.path.exists(os.path.join(bi_path, "meta.json")):
        build_bidirected(graph, bi_path)
    bi = Graph.load(bi_path)

    def drive(eng):
        def ev(phase):
            return eng.broadcast_event({"phase": phase})

        ev("deg_fwd"); eng.step()
        ev("deg_bwd"); eng.step()

        for _ in range(max_rounds):
            # trim until stable
            m = ev("trim_eval")
            while m["changed"] > 0:
                ev("trim_fwd"); eng.step()
                ev("trim_bwd"); eng.step()
                m = ev("trim_eval")
            if m["alive"] == 0:
                break
            # color the surviving subgraph
            ev("color")
            while eng.step()["changed"] > 0:
                pass
            # backward flood from color roots
            ev("backward")
            while eng.step()["changed"] > 0:
                pass
            m = ev("assign")
            if m["alive"] == 0:
                break
            # the assigned set's decrements feed the next trim round
            ev("trim_fwd"); eng.step()
            ev("trim_bwd"); eng.step()

    return run_program(
        bi, SCCProgram(), drive=drive, out_dir=out_dir, actor_cpus=actor_cpus
    )


def condensation(
    graph: Graph,
    *,
    scratch_dir: str,
    num_buckets: int = 16,
    actor_cpus: float | None = None,
) -> ray.data.Dataset:
    """Condensation DAG of a directed graph: one node per SCC (labeled
    by its min member id), one edge per DISTINCT cross-SCC (src-SCC,
    dst-SCC) pair — the acyclic quotient every dependency/flow analysis
    runs on after :func:`scc`. Returns a Dataset (src_scc, dst_scc);
    acyclicity is guaranteed by construction.

    Dataflow: SCC labels stream from the engine's partitioned value
    dump (``scc(out_dir=...)`` — never a driver vertex table), two hash
    joins attach both endpoint labels to the edge table, same-SCC edges
    filter out map-side, and one bucket dedup leaves the distinct
    quotient edges."""
    import os

    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join

    lab_dir = os.path.join(scratch_dir, "scc_labels")
    scc(graph, scratch_dir=scratch_dir, out_dir=lab_dir,
        actor_cpus=actor_cpus)
    labels = ray.data.read_parquet(lab_dir).map_batches(
        lambda b: pa.table(
            {
                "vertex_id": b["vertex_id"].cast(pa.int64()),
                "lab": b["value"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    I64 = pa.int64()
    edges = graph.edges_dataset(columns=["src", "dst"]).map_batches(
        lambda b: pa.table(
            {"src": b["src"].cast(I64), "dst": b["dst"].cast(I64)}
        ),
        batch_format="pyarrow",
    )
    lsch = pa.schema([("vertex_id", I64), ("lab", I64)])
    j = bucket_hash_join(
        edges, labels, ["src"], right_on=["vertex_id"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("src", I64), ("dst", I64)]),
        right_schema=lsch,
    ).map_batches(
        lambda df: df.rename(columns={"lab": "src_scc"})[
            ["dst", "src_scc"]
        ],
        batch_format="pandas",
    )
    j = bucket_hash_join(
        j, labels, ["dst"], right_on=["vertex_id"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("dst", I64), ("src_scc", I64)]),
        right_schema=lsch,
    )

    def cross(df):
        out = df[df["src_scc"] != df["lab"]][["src_scc", "lab"]].rename(
            columns={"lab": "dst_scc"}
        )
        return out.astype({"src_scc": np.int64, "dst_scc": np.int64})

    return bucket_group_agg(
        j.map_batches(cross, batch_format="pandas"),
        ["src_scc", "dst_scc"],
        None,
        num_buckets=num_buckets,
    )
