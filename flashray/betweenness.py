"""Betweenness centrality (A13, ``libgraph-algs/betweenness.cpp`` [U]) —
Brandes' algorithm from (sampled) sources on the superstep engine.

Per source s, over the channel-tagged bidirected graph
(flashray.scc.build_bidirected):

- **forward**: level-synchronous BFS on the fwd channel accumulating
  shortest-path counts σ: the level-ℓ frontier scatters σ, unvisited
  receivers join level ℓ+1 with σ = Σ incoming (sum combine). Because only
  the exact frontier scatters, every received contribution crosses a
  shortest-path DAG edge.
- **backward**: from the deepest level down, the level-ℓ set scatters
  (1+δ)/σ on the bwd channel; receivers *at level ℓ-1* accumulate
  δ += σ_u · Σ msgs (the dist check rejects non-DAG bwd edges).
- **accumulate**: bc += δ for every vertex except s.

``betweenness(graph, sources=K)`` samples K sources deterministically
(seeded) and scales by N/K for the standard estimator (Brandes & Pich
2007). Exact when sources >= N (all vertices).
"""

from __future__ import annotations

import os

import numpy as np

from flashray.build import Graph
from flashray.csr import INT_IDENTITY
from flashray.engine import run_program
from flashray.programs import VertexProgram
from flashray.scc import BWD, FWD, build_bidirected


class BrandesProgram(VertexProgram):
    dtype = np.float64
    combine = "sum"
    identity = 0.0
    frontier_only = True
    uses_channels = True
    channel_map = {"fwd": FWD, "bwd": BWD}
    _channel = FWD

    def init_state(self, shard, N):
        return {
            "values": np.zeros(shard.nv),  # bc accumulator
            "dist": np.full(shard.nv, INT_IDENTITY, dtype=np.int64),
            "sigma": np.zeros(shard.nv),
            "delta": np.zeros(shard.nv),
            "active": np.zeros(shard.nv, dtype=bool),
            "phase": "idle",
            "level": 0,
        }

    def edge_mask(self, shard, state):
        if shard.edge_channel is None:
            return None
        return shard.edge_channel == self._channel

    def signal(self, shard, state):
        if state["phase"] == "fwd":
            return state["sigma"]
        # backward: (1 + delta) / sigma for the current level set
        sig = np.zeros(shard.nv)
        m = state["sigma"] > 0
        sig[m] = (1.0 + state["delta"][m]) / state["sigma"][m]
        return sig

    def apply(self, shard, state, agg, N):
        if state["phase"] == "fwd":
            state["level"] += 1
            newly = (state["dist"] == INT_IDENTITY) & (agg > 0)
            state["dist"][newly] = state["level"]
            state["sigma"][newly] = agg[newly]
            state["active"] = newly
            n = int(newly.sum())
            return {"changed": n, "active": n}
        # backward: accept only at exactly one level up the DAG
        lvl = state["level"] - 1
        accept = state["dist"] == lvl
        state["delta"][accept] += state["sigma"][accept] * agg[accept]
        state["level"] = lvl
        state["active"] = accept
        return {"changed": int(lvl > 0), "active": int(accept.sum())}

    def on_event(self, shard, state, payload):
        ph = payload["phase"]
        state["phase"] = ph
        if ph == "fwd":
            self._channel = FWD
            s = payload["source"]
            state["dist"].fill(INT_IDENTITY)
            state["sigma"].fill(0.0)
            state["delta"].fill(0.0)
            state["active"] = np.zeros(shard.nv, dtype=bool)
            state["level"] = 0
            pos = np.searchsorted(shard.vertex_ids, s)
            if pos < shard.nv and shard.vertex_ids[pos] == s:
                state["dist"][pos] = 0
                state["sigma"][pos] = 1.0
                state["active"][pos] = True
            return {}
        if ph == "bwd":
            self._channel = BWD
            state["level"] = int(payload["level"])
            state["active"] = state["dist"] == state["level"]
            return {}
        if ph == "accumulate":
            s = payload["source"]
            add = state["delta"].copy()
            pos = np.searchsorted(shard.vertex_ids, s)
            if pos < shard.nv and shard.vertex_ids[pos] == s:
                add[pos] = 0.0
            state["values"] += add
            return {}
        return {}

    def state_columns(self):
        return ["values", "dist", "sigma", "delta", "active"]


class BrandesBatchProgram(VertexProgram):
    """Multi-source Brandes: B sources advance level-synchronously in ONE
    program — ``dist``/``sigma``/``delta`` are (nv, B) columns and every
    message is a length-B vector (``value_dim = B``), so K sampled sources
    cost ~2·diameter supersteps total instead of K × 2·diameter. Per-source
    math is column-independent and identical to :class:`BrandesProgram`;
    sources with shallower BFS trees simply carry empty frontiers (all-zero
    columns) during the deeper sources' extra levels."""

    dtype = np.float64
    combine = "sum"
    identity = 0.0
    frontier_only = True
    uses_channels = True
    channel_map = {"fwd": FWD, "bwd": BWD}
    _channel = FWD

    def __init__(self, batch: int):
        self.value_dim = int(batch)

    def init_state(self, shard, N):
        B = self.value_dim
        return {
            "values": np.zeros(shard.nv),  # bc accumulator
            "dist": np.full((shard.nv, B), INT_IDENTITY, dtype=np.int64),
            "sigma": np.zeros((shard.nv, B)),
            "delta": np.zeros((shard.nv, B)),
            "active": np.zeros(shard.nv, dtype=bool),
            "phase": "idle",
            "level": 0,
        }

    def edge_mask(self, shard, state):
        if shard.edge_channel is None:
            return None
        return shard.edge_channel == self._channel

    def _locate(self, shard, sources):
        """(row positions, column indices) of the owned sources."""
        srcs = np.asarray(sources, dtype=np.int64)
        cols = np.arange(len(srcs))
        if shard.nv == 0 or len(srcs) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        pos = np.searchsorted(shard.vertex_ids, srcs)
        m = (pos < shard.nv) & (
            shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == srcs
        )
        return pos[m], cols[m]

    def signal(self, shard, state):
        lvl = state["level"]
        if state["phase"] == "fwd":
            # per-column frontier mask: a vertex may sit at this level for
            # one source but an earlier level for another — the scalar
            # frontier bit can't express that
            return np.where(state["dist"] == lvl, state["sigma"], 0.0)
        sig = np.zeros_like(state["sigma"])
        m = (state["dist"] == lvl) & (state["sigma"] > 0)
        sig[m] = (1.0 + state["delta"][m]) / state["sigma"][m]
        return sig

    def apply(self, shard, state, agg, N):
        if state["phase"] == "fwd":
            state["level"] += 1
            newly = (state["dist"] == INT_IDENTITY) & (agg > 0)
            state["dist"][newly] = state["level"]
            state["sigma"][newly] = agg[newly]
            state["active"] = newly.any(axis=1)
            return {
                "changed": int(newly.sum()),
                "active": int(state["active"].sum()),
            }
        lvl = state["level"] - 1
        accept = state["dist"] == lvl
        state["delta"][accept] += state["sigma"][accept] * agg[accept]
        state["level"] = lvl
        state["active"] = accept.any(axis=1)
        return {"changed": int(lvl > 0), "active": int(state["active"].sum())}

    def on_event(self, shard, state, payload):
        ph = payload["phase"]
        state["phase"] = ph
        if ph == "fwd":
            self._channel = FWD
            state["dist"].fill(INT_IDENTITY)
            state["sigma"].fill(0.0)
            state["delta"].fill(0.0)
            state["active"] = np.zeros(shard.nv, dtype=bool)
            state["level"] = 0
            pos, cols = self._locate(shard, payload["sources"])
            state["dist"][pos, cols] = 0
            state["sigma"][pos, cols] = 1.0
            state["active"][pos] = True
            return {}
        if ph == "bwd":
            self._channel = BWD
            state["level"] = int(payload["level"])
            state["active"] = (state["dist"] == state["level"]).any(axis=1)
            return {}
        if ph == "accumulate":
            add = state["delta"].copy()
            pos, cols = self._locate(shard, payload["sources"])
            add[pos, cols] = 0.0  # a source never counts for itself
            state["values"] += add.sum(axis=1)
            return {}
        return {}

    def state_columns(self):
        return ["values", "dist", "sigma", "delta", "active"]


def _sample_sources(graph: Graph, k: int, seed: int) -> list[int]:
    """Deterministic distributed K-sample: each batch emits its K smallest
    hash priorities (splitmix64(id ^ seed)); the driver reduces the small
    union. Invariant under block layout / parallelism; never materializes
    the full vertex set."""
    import pyarrow as pa

    from flashray.ids import _splitmix64

    s = np.uint64(seed)

    def local_topk(b: pa.Table) -> pa.Table:
        v = b["vertex_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            pri = (_splitmix64(v.astype(np.uint64) ^ s) >> np.uint64(1)).astype(
                np.int64
            )
        if len(v) > k:
            idx = np.argpartition(pri, k - 1)[:k]
            v, pri = v[idx], pri[idx]
        return pa.table({"vertex_id": v, "pri": pri})

    small = (
        graph.vertices_dataset(columns=["vertex_id"])
        .map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    small = small.sort_values(["pri", "vertex_id"]).head(k)
    return sorted(int(v) for v in small["vertex_id"])


def betweenness(
    graph: Graph,
    *,
    scratch_dir: str,
    sources: int | list | None = 16,
    seed: int = 42,
    normalize: bool = True,
    batch: int | None = None,
):
    """Approximate (sampled) or exact betweenness. ``sources`` is a count
    (deterministic seeded sample of vertices) or an explicit vertex list;
    None = all vertices (exact).

    ``batch=B`` runs B sources per superstep wave via
    :class:`BrandesBatchProgram` (vector-valued messages): total supersteps
    drop from ``2·Σ depth_s`` to ``2·diameter × ⌈K/B⌉``, at B× the
    per-superstep message volume. Same values as sequential mode up to
    float summation order (per-source math is identical; only the final
    cross-source accumulation order differs)."""
    bi_path = os.path.join(scratch_dir, "bidirected")
    if not os.path.exists(os.path.join(bi_path, "meta.json")):
        build_bidirected(graph, bi_path)
    bi = Graph.load(bi_path)

    n_all = graph.meta.num_vertices
    if sources is None or (isinstance(sources, int) and sources >= n_all):
        # exact mode touches every vertex anyway; the id list is the
        # smallest part of that cost
        src_list = np.sort(
            graph.vertices_dataset(columns=["vertex_id"])
            .to_pandas()["vertex_id"]
            .to_numpy()
        ).tolist()
    elif isinstance(sources, int):
        src_list = _sample_sources(graph, sources, seed)
    else:
        src_list = sorted(int(v) for v in sources)

    def drive(eng):
        width = batch or 1
        for i in range(0, len(src_list), width):
            chunk = [int(s) for s in src_list[i : i + width]]
            srcs = {"sources": chunk} if batch else {"source": chunk[0]}
            eng.broadcast_event({"phase": "fwd", **srcs})
            max_dist = 0
            while eng.step()["changed"] > 0:
                max_dist += 1
            if max_dist > 0:
                # one backward sweep from the DEEPEST source's level:
                # shallower sources of a batch just carry empty frontiers
                # until the sweep reaches their depth
                eng.broadcast_event({"phase": "bwd", "level": max_dist})
                for _ in range(max_dist):
                    eng.step()
            eng.broadcast_event({"phase": "accumulate", **srcs})

    prog = BrandesBatchProgram(batch) if batch else BrandesProgram()
    df = run_program(bi, prog, drive=drive)
    if normalize and not isinstance(sources, list):
        df["value"] = df["value"] * (n_all / max(len(src_list), 1))
    return df
