"""Superstep engine: stateful shard actors + gather-scatter rounds.

Rebuild of ``flash-graph/graph_engine.h/.cpp`` — ``graph_engine`` +
``worker_thread`` (SURVEY.md §2.1 E1–E13, §3.1 steps 5–7). Mapping:

- reference worker threads pinned to NUMA-partitioned vertex ranges →
  A ``ShardActor``s, each owning P/A partitions (P fixed at graph build;
  partition ownership ``actor = part % A`` is explicit and stable across
  supersteps — SURVEY.md §7.3's core invariant. A adapts to the session
  size; P never does);
- per-thread message queues + superstep barrier → an all-to-all exchange
  of *pre-combined* per-(sender-partition → destination-partition) partial
  aggregates (map-side combine via reduceat == the reference's multicast
  E7 I/O dedup; a hot destination receives ≤ P partials regardless of
  in-degree);
- SAFS page cache → the Ray object store: each sender actor publishes ONE
  partials object per superstep; numpy arrays inside are zero-copy reads;
- ``wait4complete`` (E2) → the driver awaiting the fused round's metric
  objects.

Per superstep the engine runs ONE fused RPC round (``apply_scatter``):
apply superstep k, then immediately scatter for k+1 from the fresh state.
The driver only materializes the tiny metric/split-signal object; partial
aggregates flow actor→actor by reference. Measured on this machine, the
unfused 2-round × P²-object exchange cost ~35 ms/superstep at P=32 — the
fused single-round layout is what makes small supersteps cheap.

Graphs WITH split (skew) vertices route by program semantics:

- ``stale_mirror_safe`` programs (pull/push PageRank, WCC/label-prop, BFS —
  fixpoint, idempotent-min, or exactly-once commutative-sum semantics) keep
  the fused single wave; mirror edges scatter signals from the PREVIOUS
  round's metas (one superstep stale), termination requires the stop
  predicate to hold 2 consecutive supersteps, and checkpoint persists the
  in-flight mirror (``mirror.npy``) so resume replays it exactly.
- Programs where the arrival ROUND matters (Brandes sigma, k-core phase
  decrements, SCC floods) run a two-phase round (``apply_only`` →
  ``scatter_from``): the scatter for superstep k+1 consumes split-vertex
  signals produced by the SAME round's apply on every actor, so mirror
  edges never see stale values. The two phases still chain purely through
  object refs (2A tiny tasks/superstep instead of A; the partials — the
  big objects — are still published once), and the loop stays pipelined —
  but the critical path doubles, which is why stale-safe programs opt out.

Determinism: reduceat is order-stable and the reduce side combines partials
in fixed sender-partition order (p = 0..P-1) regardless of how partitions
are packed onto actors — results are bit-identical across parallelism
levels, actor counts, and checkpoint/resume.

Actor lifecycle: the reference starts its worker threads once, loads the
graph index into RAM once, and runs one vertex program after another on
them ([FAST15] §3). Here shard actors live as long as the Ray session. An
``Engine`` takes A idle actors from a per-session pool and ``load``s its
partitions and program onto each, spawning actors only when the pool is
short; ``close`` drains in-flight rounds, has each actor drop its per-run
state, and returns it to the pool, which hands it back to the same slot of
the next Engine. Each actor keeps the CSR shards it built, and the exchange
topology of its last handshake, resident between Engines: a partition is
read and built again only when its files changed (a file signature per
partition, taken by the driver), and the handshake runs again only when
some actor's topology was not resident. Resident graphs are evicted least
recently used first past a byte budget derived from the node's memory, and
their arrays are read-only, so a program writing into a shard raises
instead of corrupting the next query. So a session's first Engine on a
graph pays the actor start-up (a Ray worker process plus this module's
imports, ``ray.data`` included), the partition read, the CSR build and the
handshake; a repeat query on the same graph pays none of them. Pooled
actors reserve no logical CPU (``num_cpus=0``, SPREAD scheduling): they
outlive every Engine, and CPU shares held by idle actors would starve the
Dataset tasks that run between queries. The Engine sizes its actors from
what it observes, with no knob: the session's CPUs, or the bundles of a
caller's placement group. Placement-group actors, one per whole CPU of the
group, each request one CPU and are killed at close, because the caller
removes the group; they are the only actors never pooled.

Why raw actors and not ``Dataset.map_batches`` here: the inner loop mutates
per-partition vertex state across iterations and must route each
partition's aggregate back to the *owning* actor. ``map_batches`` actor
pools do not guarantee batch→actor affinity. Everything around the loop
(extraction, graph build, triangles, results, datapipe) stays in the
Dataset API.

Algorithms open, drive, collect and close their Engine through
:func:`run_program`; no other module of the package constructs one.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import OrderedDict, deque

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from flashray import csr
from flashray.build import Graph
from flashray.programs import VertexProgram
from flashray.routing import node_memory, node_resources


def _read_part(base: str, part: int, columns: list[str]) -> pa.Table:
    path = os.path.join(base, f"part={part}")
    if not os.path.isdir(path):
        return pa.table({c: pa.array([], type=pa.int64()) for c in columns})
    return pq.read_table(path, columns=columns)


def _part_signature(graph_path: str, part: int) -> tuple:
    """Sorted (name, size, mtime_ns) of every file under one partition's
    ``vertices/part=p`` and ``edges/part=p``. Every graph writer goes through
    ``write_parquet``, which names its files anew, so a rebuild or an
    ``add_edges`` rewrite changes exactly the signatures of the partitions
    it wrote."""
    sig = []
    for kind in ("vertices", "edges"):
        for root, _, files in os.walk(os.path.join(graph_path, kind, f"part={part}")):
            for f in files:
                path = os.path.join(root, f)
                st = os.stat(path)
                sig.append(
                    (os.path.relpath(path, graph_path), st.st_size, st.st_mtime_ns)
                )
    return tuple(sorted(sig))


def _shard_arrays(shard: csr.ShardData) -> list[np.ndarray]:
    return [
        v
        for v in (getattr(shard, f.name) for f in dataclasses.fields(shard))
        if isinstance(v, np.ndarray)
    ]


def _read_shard(
    graph_path: str, p: int, P: int, program: VertexProgram
) -> csr.ShardData:
    """Read partition ``p`` of the graph and build its CSR shard, with every
    array read-only: resident shards outlive the run, so a program that
    writes into one must raise rather than corrupt the next query."""
    vt = _read_part(
        os.path.join(graph_path, "vertices"),
        p,
        ["vertex_id", "out_degree", "in_degree", "w_out_degree"],
    )
    ecols = ["src", "dst", "weight"]
    uses_channels = getattr(program, "uses_channels", False)
    if uses_channels:
        ecols.append("etype")
    et = _read_part(os.path.join(graph_path, "edges"), p, ecols)
    channel = None
    if uses_channels and et.num_rows:
        cmap = program.channel_map
        ety = et["etype"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(ety, return_inverse=True)
        codes = np.asarray([cmap[u] for u in uniq], dtype=np.int8)
        channel = codes[inv]
    shard = csr.build_shard(
        p,
        P,
        vt["vertex_id"].to_numpy(zero_copy_only=False).astype(np.int64),
        vt["out_degree"].to_numpy(zero_copy_only=False).astype(np.int64),
        vt["in_degree"].to_numpy(zero_copy_only=False).astype(np.int64),
        et["src"].to_numpy(zero_copy_only=False).astype(np.int64),
        et["dst"].to_numpy(zero_copy_only=False).astype(np.int64),
        et["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
        if et.num_rows
        else None,
        w_out_degree=vt["w_out_degree"]
        .to_numpy(zero_copy_only=False)
        .astype(np.float64),
        channel=channel,
    )
    for a in _shard_arrays(shard):
        a.flags.writeable = False
    return shard


def _node_budget() -> int:
    """Bytes of resident graphs one shard actor may keep: a quarter of the
    node's memory per CPU on the node. The CPU count is the larger of the
    node's cores and the logical CPUs Ray schedules there (a session may
    declare more than the cores), so the node's pooled actors, about one
    per CPU, keep at most about a quarter of its memory between them."""
    logical = node_resources().get("CPU", 0)
    cpus = max(os.cpu_count() or 1, int(logical), 1)
    return node_memory() // (4 * cpus)


class _ResidentGraph:
    """The part of one graph a shard actor keeps between Engines: its CSR
    shards, each with the file signature it was built from, and the exchange
    topology of its last handshake, keyed by (whole-graph signature, A,
    the actor's partitions)."""

    def __init__(self):
        self.shards: dict[int, tuple[tuple, csr.ShardData]] = {}
        self.topology: tuple | None = None  # (key, incoming_idx, incoming_slice)

    def nbytes(self) -> int:
        n = sum(a.nbytes for _, sh in self.shards.values() for a in _shard_arrays(sh))
        if self.topology is not None:
            n += sum(i.nbytes for idx in self.topology[1].values() for i in idx)
        return n


class _Resident:
    """A shard actor's resident graphs, least recently used first. Their
    bytes stay within ``budget``: keeping one graph evicts the oldest others
    until the total fits, and a graph larger than the whole budget is not
    kept at all (it runs, and is dropped when its run releases it)."""

    def __init__(self, budget: int):
        self.budget = budget
        self._graphs: OrderedDict = OrderedDict()

    def get(self, key) -> _ResidentGraph | None:
        return self._graphs.get(key)

    def put(self, key, graph: _ResidentGraph) -> bool:
        """Keep ``graph`` under ``key`` as the most recently used entry;
        returns whether it fits the budget and was kept."""
        self._graphs.pop(key, None)
        size = graph.nbytes()
        if size > self.budget:
            return False
        total = size + sum(g.nbytes() for g in self._graphs.values())
        while total > self.budget:
            _, old = self._graphs.popitem(last=False)
            total -= old.nbytes()
        self._graphs[key] = graph
        return True


def _part_file(d: str, part: int) -> str:
    """One partition's file in a value dump or checkpoint directory."""
    return os.path.join(d, f"part-{part:05d}.parquet")


def _write_atomic(tbl: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def _mirror_array(program: VertexProgram, n: int, metas) -> np.ndarray:
    """The signals of all ``n`` split vertices, assembled from every
    actor's ``(split_pos, split_sig)`` meta; identity where none was sent."""
    d = program.value_dim
    full = np.full((n, d) if d else n, program.identity, dtype=program.dtype)
    for m in metas:
        if len(m["split_pos"]):
            full[m["split_pos"]] = m["split_sig"]
    return full


@ray.remote
class ShardActor:
    """Owns a set of partitions: CSR blocks + per-vertex program state.

    Reference analogue: one ``worker_thread`` + its slice of the
    ``NUMA_graph_index`` vertex-state array (flash-graph/graph_index.h).
    Like the reference thread, the actor outlives a single run: ``load``
    installs one Engine's partitions and program, ``release`` drops the
    per-run state before the actor goes back to the pool. The CSR shards and
    the exchange topology stay resident (:class:`_Resident`) for the next
    Engine on the same graph."""

    def __init__(self):
        self.pool = None
        self._resident = _Resident(_node_budget())
        self.release()

    def release(self) -> bool:
        """Drop every per-run field (program state, signal memo, thread pool
        and this run's references to shards and topology): what stays is
        the process and its resident graphs."""
        if self.pool is not None:
            self.pool.shutdown()
        self.pool = None
        self.parts: list[int] = []
        self.program: VertexProgram | None = None
        self.shards: dict[int, csr.ShardData] = {}
        self.states: dict[int, dict] = {}
        self.mirror_map: dict[int, np.ndarray] = {}
        self.split_pos: dict[int, np.ndarray] = {}
        self.split_idx: dict[int, np.ndarray] = {}
        # incoming_idx[q][p] = local positions in q's vertex array for the
        # dst ids announced by sender partition p; incoming_slice[q][p] =
        # (lo, hi) bounds into sender p's contiguous partial array
        # (static topology, exchanged at handshake)
        self.incoming_idx: dict[int, list[np.ndarray]] = {}
        self.incoming_slice: dict[int, list[tuple[int, int]]] = {}
        # this run's resident entry, its key and its topology key: the
        # handshake stores its topology there
        self._graph: _ResidentGraph | None = None
        self._graph_key = self._topology_key = None
        self.last_messages = 0
        self.last_exchanged = 0  # partial entries shipped by the last scatter
        # per-state-version memo of the frontier-masked signal: the scatter
        # and the split-meta extraction both need it each round — compute
        # it once per (partition, apply) instead of twice. Reset together
        # with the version: a stale entry at version 0 would hand the
        # previous program's signal to the next one
        self._state_version = 0
        self._sig_cache: dict[int, tuple[int, np.ndarray]] = {}
        return True

    def load(
        self,
        graph_path: str,
        parts: list[int],
        P: int,
        A: int,
        program: VertexProgram,
        N: int,
        split_ids: np.ndarray,
        sigs: list[tuple],
        num_threads: int = 1,
    ) -> tuple[int, bool]:
        """Install this actor's CSR shards and initial program state for one
        Engine run, replacing whatever the last run left. A partition whose
        files still match ``sigs[p]`` (see :func:`_part_signature`) reuses
        its resident shard; any other is read and built. ``graph_path`` is
        the graph's real path. Returns (partitions read, whether the
        exchange topology was resident)."""
        self.release()
        self.parts = list(parts)
        self.P = P
        self.A = A
        self.program = program
        self.N = N
        self.split_ids = np.asarray(split_ids, dtype=np.int64)
        # per-partition work (scatter / combine+apply) runs on a thread
        # pool: the hot numpy kernels (gather, reduceat, fancy-indexed
        # add/minimum) release the GIL, so one actor drives several cores —
        # fewer actors per node means fewer Ray tasks per superstep, which
        # is the dominant fixed cost (~0.5 ms/task measured)
        if num_threads > 1 and len(self.parts) > 1:
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(max_workers=num_threads)

        # edge channels are part of a shard: a program reading them gets
        # its own entry
        channels = (
            tuple(sorted(program.channel_map.items()))
            if getattr(program, "uses_channels", False)
            else None
        )
        key = (graph_path, P, channels)
        graph = self._resident.get(key) or _ResidentGraph()
        shards, read = {}, 0
        for p in self.parts:
            hit = graph.shards.get(p)
            if hit is None or hit[0] != sigs[p]:
                hit = (sigs[p], _read_shard(graph_path, p, P, program))
                read += 1
            shards[p] = hit
        graph.shards = shards
        topology_key = (tuple(sigs), A, tuple(self.parts))
        resident_topology = (
            graph.topology is not None and graph.topology[0] == topology_key
        )
        if resident_topology:
            _, self.incoming_idx, self.incoming_slice = graph.topology
        else:
            graph.topology = None
        self._resident.put(key, graph)
        self._graph, self._graph_key = graph, key
        self._topology_key = topology_key

        for p in self.parts:
            shard = shards[p][1]
            self.shards[p] = shard
            self.states[p] = program.init_state(shard, N)
            mm = np.searchsorted(self.split_ids, shard.mirror_ids)
            if len(shard.mirror_ids) and not (
                (mm < len(self.split_ids))
                & (
                    self.split_ids[np.minimum(mm, max(len(self.split_ids) - 1, 0))]
                    == shard.mirror_ids
                )
            ).all():
                raise AssertionError(f"shard {p}: mirror src not in split list")
            self.mirror_map[p] = mm
            owned_splits = self.split_ids[self.split_ids % P == p]
            self.split_pos[p] = np.searchsorted(self.split_ids, owned_splits)
            self.split_idx[p] = np.searchsorted(shard.vertex_ids, owned_splits)
        return read, resident_topology

    def ready(self) -> bool:
        return True

    # -- topology handshake -------------------------------------------------

    def outgoing_ids(self) -> dict[int, list[np.ndarray]]:
        return {p: self.shards[p].outgoing_dst_ids() for p in self.parts}

    def set_incoming(self, *actor_outgoing) -> bool:
        """actor_outgoing: A dicts {sender_part: [dst_ids per dest part]}.
        Also derives, per (sender part, own part), the slice bounds into the
        sender's contiguous partial array (= cumulative group counts). The
        result stays resident with this run's shards."""
        # new dicts: a resident topology from the last run may share the old
        self.incoming_idx, self.incoming_slice = {}, {}
        for q in self.parts:
            per_sender = []
            per_slice = []
            for p in range(self.P):
                out_p = actor_outgoing[p % self.A][p]
                arr = np.asarray(out_p[q], dtype=np.int64)
                sh = self.shards[q]
                idx = np.searchsorted(sh.vertex_ids, arr)
                if len(arr) and not (
                    sh.vertex_ids[np.minimum(idx, max(sh.nv - 1, 0))] == arr
                ).all():
                    raise AssertionError(f"part {q}: unknown incoming dst")
                # keep intp: numpy fancy indexing converts (and copies)
                # any other integer dtype on every use
                idx = idx.astype(np.intp)
                idx.flags.writeable = False
                per_sender.append(idx)
                lo = sum(len(out_p[qq]) for qq in range(q))
                per_slice.append((lo, lo + len(arr)))
            self.incoming_idx[q] = per_sender
            self.incoming_slice[q] = per_slice
        self._graph.topology = (
            self._topology_key, self.incoming_idx, self.incoming_slice
        )
        self._resident.put(self._graph_key, self._graph)
        return True

    # -- superstep ----------------------------------------------------------

    def _masked_signal(self, p: int) -> np.ndarray:
        hit = self._sig_cache.get(p)
        if hit is not None and hit[0] == self._state_version:
            return hit[1]
        sig = self.program.signal(self.shards[p], self.states[p])
        if self.program.frontier_only:
            act = self.states[p]["active"]
            sig = np.where(
                act[:, None] if sig.ndim == 2 else act,
                sig,
                self.program.identity,
            )
        self._sig_cache[p] = (self._state_version, sig)
        return sig

    def _scatter_part(self, p: int, mirror_signals):
        prog = self.program
        sh = self.shards[p]
        sig = self._masked_signal(p)
        nc = len(sh.src_list)
        signal_by_code = np.full(
            (nc, prog.value_dim) if prog.value_dim else nc,
            prog.identity,
            dtype=sig.dtype if sig.size else prog.dtype,
        )
        signal_by_code[sh.owned_codes] = sig[sh.owned_idx]
        if len(sh.mirror_codes):
            signal_by_code[sh.mirror_codes] = np.asarray(mirror_signals)[
                self.mirror_map[p]
            ]
        counts = np.diff(sh.src_code_starts)
        active_mask = signal_by_code != prog.identity
        if active_mask.ndim == 2:  # vector payloads: a code is active if
            active_mask = active_mask.any(axis=1)  # ANY component is set
        msgs = int(counts[active_mask].sum())
        emask = prog.edge_mask(sh, self.states[p])
        # sparse-frontier path: when few sources are active, touch only
        # their out-edges (A2/BFS late iterations) — exchange format is
        # identical, so receivers are oblivious. Thresholds are payload-
        # width-aware: for length-d vectors (HyperBall registers, batched
        # Brandes) the sparse path's per-edge sort overhead (8 B of keys)
        # is amortized by the d-byte payload, so it pays off at much
        # higher fill than for scalars
        G = len(sh.group_starts)
        wide = prog.value_dim >= 8
        if (
            prog.frontier_only
            and len(sh.src_list)
            and msgs * (2 if wide else 8) < sh.ne
        ):
            pos, vals = csr.scatter_partials_sparse(
                sh,
                signal_by_code,
                np.flatnonzero(active_mask),
                combine=prog.combine,
                identity=prog.identity,
                use_weights=prog.use_weights,
                weight_op=prog.weight_op,
                edge_mask=emask,
            )
            if len(pos) * 4 >= G * (3 if wide else 1):
                # dense is smaller/faster past ~25% fill for scalars;
                # for wide payloads the 8-B position overhead is noise
                # next to the d-byte values, so stay sparse until ~75%
                dense = np.full(
                    (G, prog.value_dim) if prog.value_dim else G,
                    prog.identity,
                    dtype=vals.dtype if vals.size else prog.dtype,
                )
                dense[pos] = vals
                return msgs, G, dense
            # sparse exchange: (positions, values) — O(frontier) bytes
            return msgs, len(pos), ("sp", pos, vals)
        partials = csr.scatter_partials(
            sh,
            signal_by_code,
            combine=prog.combine,
            identity=prog.identity,
            use_weights=prog.use_weights,
            weight_op=prog.weight_op,
            edge_mask=emask,
        )
        return msgs, G, partials

    def _scatter_all(self, mirror_signals) -> dict[int, list[np.ndarray]]:
        if self.pool is not None:
            results = list(
                self.pool.map(
                    lambda p: (p, self._scatter_part(p, mirror_signals)),
                    self.parts,
                )
            )
        else:
            results = [
                (p, self._scatter_part(p, mirror_signals)) for p in self.parts
            ]
        self.last_messages = sum(m for _, (m, _, _) in results)
        self.last_exchanged = sum(x for _, (_, x, _) in results)
        return {p: partials for p, (_, _, partials) in results}

    def _split_meta(self) -> tuple[np.ndarray, np.ndarray]:
        """(global positions, frontier-masked signals) of owned split
        vertices, for the driver's next mirror broadcast."""
        pos, sig = [], []
        for p in self.parts:
            if len(self.split_pos[p]):
                s = self._masked_signal(p)
                pos.append(self.split_pos[p])
                sig.append(s[self.split_idx[p]])
        if pos:
            return np.concatenate(pos), np.concatenate(sig)
        d = self.program.value_dim
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, d) if d else 0, dtype=self.program.dtype),
        )

    def scatter_only(self, mirror_signals=None):
        """Bootstrap round: scatter from the initial/restored state."""
        partials = self._scatter_all(mirror_signals)
        pos, sig = self._split_meta()
        return (
            {"metrics": None, "split_pos": pos, "split_sig": sig,
             "messages": self.last_messages},
            partials,
        )

    def _mirror_from_metas(self, metas) -> np.ndarray | None:
        if not len(self.split_ids):
            return None
        return _mirror_array(self.program, len(self.split_ids), metas)

    def _combine_apply_all(self, partials_objs) -> dict:
        """Combine incoming partials and run the vertex update (E5/E8) for
        every owned partition; returns summed metrics. Combine order is
        global sender-partition order (p = 0..P-1): deterministic for any
        actor count."""
        prog = self.program
        metrics: dict = {}
        sent_messages = self.last_messages
        sent_exchanged = self.last_exchanged

        def combine_apply(q: int) -> dict:
            sh = self.shards[q]
            agg = np.full(
                (sh.nv, prog.value_dim) if prog.value_dim else sh.nv,
                prog.identity,
                dtype=prog.dtype,
            )
            idx_by_sender = self.incoming_idx[q]
            slice_by_sender = self.incoming_slice[q]
            for p in range(self.P):
                lo, hi = slice_by_sender[p]
                if hi == lo:
                    continue
                obj = partials_objs[p % self.A][p]
                idx = idx_by_sender[p]
                if isinstance(obj, tuple):
                    # sparse exchange: sorted (positions, values) in the
                    # sender's dense group space; pick this receiver's
                    # [lo, hi) range with two searchsorteds. Skipped
                    # entries hold the identity — combining them is a
                    # no-op, so dense/sparse results are bit-identical.
                    pos, vals = obj[1], obj[2]
                    s = np.searchsorted(pos, lo)
                    e = np.searchsorted(pos, hi)
                    if e == s:
                        continue
                    idx = idx[pos[s:e] - lo]
                    partial = vals[s:e]
                else:
                    partial = obj[lo:hi]
                if prog.combine == "sum":
                    agg[idx] += partial
                elif prog.combine == "min":
                    agg[idx] = np.minimum(agg[idx], partial)
                else:
                    agg[idx] = np.maximum(agg[idx], partial)
            return prog.apply(sh, self.states[q], agg, self.N)

        if self.pool is not None:
            per_part = list(self.pool.map(combine_apply, self.parts))
        else:
            per_part = [combine_apply(q) for q in self.parts]
        self._state_version += 1  # applies mutated state: invalidate signals
        for m in per_part:
            for k, v in m.items():
                metrics[k] = metrics.get(k, 0) + v
        metrics["messages"] = sent_messages
        metrics["exchanged"] = sent_exchanged  # lineage: exchange volume
        return metrics

    def apply_scatter(self, *objs):
        """Fused round: apply superstep k, then immediately scatter for k+1
        from the new state — one actor wave per superstep, so the critical
        path is a single task and rounds chain purely through object
        dependencies (pipelined; the driver never sits in the loop).

        Two call shapes:
        - ``*partials`` (A objects) — graphs with NO split vertices.
        - ``*metas, *partials`` (2A objects) — split graphs running a
          ``stale_mirror_safe`` program: mirror edges scatter signals from
          the metas of the PREVIOUS round (one superstep stale). Safe only
          for fixpoint / idempotent-min / commutative-sum programs, and the
          engine then requires the stop predicate to hold for 2 consecutive
          supersteps so in-flight mirror deliveries land before
          termination (Engine.run). Non-idempotent programs (Brandes,
          k-core, SCC) use the two-phase ``apply_only``/``scatter_from``
          round instead."""
        if len(objs) > self.A:
            metas, partials_objs = objs[: self.A], objs[self.A :]
        else:
            metas, partials_objs = None, objs
        metrics = self._combine_apply_all(partials_objs)
        mirror = self._mirror_from_metas(metas) if metas is not None else None
        partials = self._scatter_all(mirror)
        if metas is not None:
            pos, sig = self._split_meta()
        else:
            d = self.program.value_dim
            pos = np.empty(0, dtype=np.int64)
            sig = np.empty((0, d) if d else 0, dtype=self.program.dtype)
        return (
            {"metrics": metrics, "split_pos": pos, "split_sig": sig,
             "messages": self.last_messages},
            partials,
        )

    def apply_only(self, *partials_objs):
        """Unfused phase 1 (graphs WITH split vertices): apply superstep k,
        return metrics + the split-vertex signals of the freshly-applied
        state. The scatter for k+1 runs in phase 2 (``scatter_from``) once
        every actor's fresh meta exists — so mirror edges and owned edges
        always scatter the SAME superstep's signal (a fused single round
        would broadcast one-superstep-stale mirror values, which breaks
        non-idempotent programs: Brandes sigma, k-core decrements, SCC
        floods)."""
        metrics = self._combine_apply_all(partials_objs)
        pos, sig = self._split_meta()
        return {"metrics": metrics, "split_pos": pos, "split_sig": sig,
                "messages": self.last_messages}

    def scatter_from(self, *metas):
        """Unfused phase 2: scatter for superstep k+1 using mirror signals
        assembled from the SAME round's apply metas."""
        mirror_signals = self._mirror_from_metas(metas)
        return self._scatter_all(mirror_signals)

    def initial_mirror(self) -> dict:
        pos, sig = self._split_meta()
        return {"split_pos": pos, "split_sig": sig}

    def on_event(self, payload: dict) -> dict:
        self._state_version += 1
        agg: dict = {}
        for p in self.parts:
            m = self.program.on_event(self.shards[p], self.states[p], payload)
            for k, v in m.items():
                agg[k] = agg.get(k, 0) + v
        return agg

    def reset_state(self) -> bool:
        """Re-initialize program state (used to measure steady-state
        superstep throughput after a warmup run)."""
        for p in self.parts:
            self.states[p] = self.program.init_state(self.shards[p], self.N)
        self.last_messages = 0
        self.last_exchanged = 0
        self._state_version += 1
        return True

    # -- results / checkpoints ----------------------------------------------

    def _values_part(self, p: int) -> pa.Table:
        def col(arr):
            if arr.ndim == 2:  # vector results (e.g. landmark distances)
                return pa.FixedSizeListArray.from_arrays(
                    pa.array(arr.reshape(-1)), arr.shape[1]
                )
            return pa.array(arr)

        cols = {
            "vertex_id": pa.array(self.shards[p].vertex_ids),
            "value": col(self.states[p]["values"]),
        }
        for name in self.program.output_columns:
            cols[name] = col(self.states[p][name])
        return pa.table(cols)

    def values_table(self) -> pa.Table:
        return pa.concat_tables([self._values_part(p) for p in self.parts])

    def write_values(self, out_dir: str) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for p in self.parts:
            path = _part_file(out_dir, p)
            _write_atomic(self._values_part(p), path)
            paths.append(path)
        return paths

    def checkpoint(self, ckpt_dir: str, iteration: int) -> bool:
        """Per-partition state snapshot (reference has none — SURVEY.md
        §3.3; rebuild addition per the north rule). Files are keyed by
        partition, so a run may resume with a different actor count."""
        import json

        d = os.path.join(ckpt_dir, f"iter_{iteration:06d}")
        os.makedirs(d, exist_ok=True)
        for p in self.parts:
            cols = {"vertex_id": pa.array(self.shards[p].vertex_ids)}
            for name in self.program.state_columns():
                arr = self.states[p][name]
                if arr.dtype == bool:
                    arr = arr.astype(np.uint8)
                if arr.ndim == 2:
                    # vector state (e.g. HLL registers): one fixed-size
                    # list per vertex
                    cols[name] = pa.FixedSizeListArray.from_arrays(
                        pa.array(arr.reshape(-1)), arr.shape[1]
                    )
                else:
                    cols[name] = pa.array(arr)
            tbl = pa.table(cols)
            scalars = {
                n: self.states[p][n]
                for n in self.program.scalar_state_keys()
            }
            if scalars:
                tbl = tbl.replace_schema_metadata(
                    {b"flashray_scalars": json.dumps(scalars).encode()}
                )
            _write_atomic(tbl, _part_file(d, p))
        return True

    def restore(self, ckpt_dir: str, iteration: int) -> bool:
        import json

        d = os.path.join(ckpt_dir, f"iter_{iteration:06d}")
        for p in self.parts:
            t = pq.read_table(_part_file(d, p))
            vids = t["vertex_id"].to_numpy(zero_copy_only=False)
            if not np.array_equal(vids, self.shards[p].vertex_ids):
                raise AssertionError(f"part {p}: checkpoint vertex mismatch")
            for name in self.program.state_columns():
                col = t[name].combine_chunks()
                cur = self.states[p][name]
                if pa.types.is_fixed_size_list(col.type):
                    arr = (
                        col.values.to_numpy(zero_copy_only=False)
                        .reshape(len(col), col.type.list_size)
                        .astype(cur.dtype)
                    )
                else:
                    arr = col.to_numpy(zero_copy_only=False)
                    arr = arr.astype(bool if cur.dtype == bool else cur.dtype)
                self.states[p][name] = arr
            meta = t.schema.metadata or {}
            if b"flashray_scalars" in meta:
                for n, v in json.loads(meta[b"flashray_scalars"]).items():
                    self.states[p][n] = v
        self._state_version += 1
        return True

    def get_scalars(self, names: list[str]) -> dict:
        """Read scalar state entries (from the first owned partition —
        scalars are phase-global and identical across partitions)."""
        p = self.parts[0]
        return {n: self.states[p].get(n) for n in names}


class _ActorPool:
    """Idle shard actors of the current Ray session, shared by every Engine
    the process opens.

    Actors come back out in the order they were given, the most recently
    given first: an Engine returns its actors in slot order, so the next
    Engine's slot ``a`` gets the actor that held partitions ``p % A == a``,
    with those partitions' shards resident.

    Keyed by the caller's (node id, job id): a local ``ray.init`` after
    ``ray.shutdown`` starts a new node but reuses job id ``01000000``, and a
    new connection to a long-running cluster gets a new job id. Either way
    the old session's actors are gone, so its handles are dropped."""

    def __init__(self):
        self._lock = threading.Lock()
        self._key = None
        self._idle: deque = deque()

    def _session(self) -> deque:
        ctx = ray.get_runtime_context()
        key = (ctx.get_node_id(), ctx.get_job_id())
        if key != self._key:
            self._key, self._idle = key, deque()
        return self._idle

    def take(self):
        """The next idle actor, or None when the pool is empty."""
        with self._lock:
            idle = self._session()
            return idle.popleft() if idle else None

    def give(self, actors: list) -> None:
        """Put ``actors`` in front of the idle ones, in their given order."""
        with self._lock:
            self._session().extendleft(reversed(actors))


_POOL = _ActorPool()


class Engine:
    """Driver-side superstep loop (E1/E2). Algorithms own the iteration
    policy; the engine owns actors, the fused exchange, metrics,
    checkpoints."""

    def __init__(self, graph: Graph, program: VertexProgram, *, placement_group=None):
        """Shard actors are laid out from what the Engine observes, with no
        knob. Without a ``placement_group`` they come from the session's pool
        (see :meth:`close`) and reserve no logical CPU, since idle actors
        holding CPU shares would starve every later Dataset task. There are
        ``max(1, min(P, CPUs // threads))`` of them, with 2 threads each
        from 16 session CPUs up, else 1: Ray-task overhead (~0.5 ms per task)
        grows with the actor count, and the in-actor thread pool loses ~20%
        to the GIL-held combine loop.

        With a ray ``placement_group`` the Engine starts one 1-CPU, 1-thread
        actor per whole CPU of its bundles, at most P, dealt round-robin
        (equal bundles: actor ``a`` on bundle ``a % len(bundles)``), and
        kills them at close. That is the multi-node layout, one bundle per
        node, each owning an equal slice of the CSR shards; the exchange is
        bundle-agnostic (object-store refs), so pinning only constrains
        scheduling (see tools/placement_scaling.py)."""
        self.graph = graph
        self.program = program
        P = graph.num_partitions
        self.P = P
        self.split_ids = np.asarray(
            sorted(graph.meta.split_vertices), dtype=np.int64
        )
        self._pg = placement_group
        if placement_group is None:
            total = int(ray.cluster_resources().get("CPU", P))
            self._threads_per_actor = 2 if total >= 16 else 1
            A = max(1, min(P, total // self._threads_per_actor))
            self._actor_cpus = 0.0
        else:
            # one slot per whole bundle CPU, dealt round-robin over bundles
            cpus = [int(b.get("CPU", 0)) for b in placement_group.bundle_specs]
            self._bundles = [
                i for c in range(max(cpus)) for i, n in enumerate(cpus) if n > c
            ]
            if not self._bundles:
                raise ValueError("placement group has no whole CPU")
            A = min(P, len(self._bundles))
            self._threads_per_actor = 1
            self._actor_cpus = 1.0
        self.A = A
        self._parts_of = [[p for p in range(P) if p % A == a] for a in range(A)]
        self._path = os.path.realpath(graph.path)
        self._sigs = [_part_signature(self._path, p) for p in range(P)]
        self.shards_read = 0  # partitions read and built by this Engine
        self.handshake = False  # whether this Engine ran a topology handshake
        self.actors: list = [None] * A
        if not self._acquire(range(A)):
            self._handshake()
        self.recoveries = 0  # actor losses recovered from (see recover)
        self.iteration = 0  # supersteps whose metrics have been collected
        self.submitted = 0  # supersteps submitted to the pipeline
        self.lineage: list[dict] = []
        self._meta_refs: list | None = None  # last round's meta refs
        self._partial_refs: list | None = None  # last round's partials refs
        self._pending: list = []  # queue of (meta_refs, t_submit)
        # split graphs: fused single-wave rounds with one-superstep-stale
        # mirrors when the program tolerates them, else two actor waves
        # per superstep with same-round mirrors
        self._two_phase = bool(len(self.split_ids)) and not getattr(
            program, "stale_mirror_safe", False
        )
        self._stale_mirrors = bool(len(self.split_ids)) and not self._two_phase
        self._prev_meta_refs: list | None = None  # metas#(k-1), for resume
        self._restore_mirror: np.ndarray | None = None

    # -- internals ----------------------------------------------------------

    def _spawn_actor(self, a: int):
        opts: dict = {"num_cpus": self._actor_cpus}
        if self._pg is not None:
            from ray.util.scheduling_strategies import (
                PlacementGroupSchedulingStrategy,
            )

            opts["scheduling_strategy"] = PlacementGroupSchedulingStrategy(
                placement_group=self._pg,
                placement_group_bundle_index=self._bundles[a],
            )
        else:
            # the default policy packs zero-CPU actors onto one node
            opts["scheduling_strategy"] = "SPREAD"
        return ShardActor.options(**opts).remote()

    def _load(self, a: int):
        return self.actors[a].load.remote(
            self._path,
            self._parts_of[a],
            self.P,
            self.A,
            self.program,
            self.graph.meta.num_vertices,
            self.split_ids,
            self._sigs,
            num_threads=self._threads_per_actor,
        )

    def _acquire(self, slots) -> bool:
        """Fill each actor slot with a loaded actor: an idle pooled one when
        there is one, else a new one. A pooled actor that died while idle
        fails its load with RayActorError and is replaced by a new actor.
        Adds the partitions read to :attr:`shards_read`; returns whether
        every slot's exchange topology was resident."""
        spawned = set()
        for a in slots:
            h = _POOL.take() if self._pg is None else None
            if h is None:
                h = self._spawn_actor(a)
                spawned.add(a)
            self.actors[a] = h
        loaded, dead = [], []
        for a, ref in [(a, self._load(a)) for a in slots]:
            try:
                loaded.append(ray.get(ref))
            except ray.exceptions.RayActorError:
                if a in spawned:
                    raise
                dead.append(a)
        for a in dead:
            self.actors[a] = self._spawn_actor(a)
        loaded += ray.get([self._load(a) for a in dead])
        self.shards_read += sum(read for read, _ in loaded)
        return all(resident for _, resident in loaded)

    def _handshake(self) -> None:
        out_refs = [a.outgoing_ids.remote() for a in self.actors]
        ray.get([a.set_incoming.remote(*out_refs) for a in self.actors])
        self.handshake = True

    def _probe_dead(self) -> list[int]:
        """Indices of actors that no longer answer (process died / node
        lost). A live-but-busy actor still queues the ping, so a generous
        timeout only fires on real unreachability."""
        dead = []
        for i, a in enumerate(self.actors):
            try:
                ray.get(a.ready.remote(), timeout=120)
            except Exception:
                dead.append(i)
        return dead

    def recover(self, checkpoint_dir: str | None = None) -> int:
        """Rebuild dead shard actors and roll the whole engine back to the
        last complete checkpoint (or to the initial state when none exists).

        The reference has no fault story beyond "rerun the job" (SURVEY.md
        §3.3); at cluster scale an actor loss must not discard hours of
        supersteps. Recovery is partition-grained: surviving actors keep
        their loaded CSR shards (the expensive part) and only re-load
        *state* from the checkpoint; dead actors rebuild both from the
        partitioned parquet graph, and the topology handshake always runs
        again. Because the combine order is
        deterministic, a recovered run is bit-identical to an
        uninterrupted one. Returns the iteration resumed from, and counts
        one more :attr:`recoveries`."""
        self._acquire(self._probe_dead())
        self._handshake()
        self.recoveries += 1
        # in-flight rounds chain through refs owned by the dead actor's
        # tasks — discard the whole pipeline and re-bootstrap
        return self._rollback(checkpoint_dir)

    def _rollback(self, checkpoint_dir: str | None = None) -> int:
        """Drop the pipeline and return every actor to the last complete
        checkpoint in ``checkpoint_dir``, or to the initial state when
        there is none. Returns the iteration resumed from."""
        from flashray.checkpoint import has_checkpoint

        self._pending = []
        self._meta_refs = self._partial_refs = self._prev_meta_refs = None
        self._restore_mirror = None
        if checkpoint_dir is not None and has_checkpoint(checkpoint_dir):
            return self.restore(checkpoint_dir)
        ray.get([a.reset_state.remote() for a in self.actors])
        self.iteration = 0
        self.submitted = 0
        self.lineage = []
        return 0

    def _bootstrap(self) -> None:
        mirror = None
        if len(self.split_ids):
            if self._restore_mirror is not None:
                # resume path (stale-mirror mode): replay the exact mirror
                # the lost in-flight scatter used — metas#(k-1), persisted
                # at checkpoint — so the resumed run is identical to the
                # uninterrupted one
                mirror = self._restore_mirror
                self._restore_mirror = None
            else:
                mirror = _mirror_array(
                    self.program,
                    len(self.split_ids),
                    ray.get([a.initial_mirror.remote() for a in self.actors]),
                )
        rounds = [
            a.scatter_only.options(num_returns=2).remote(mirror)
            for a in self.actors
        ]
        self._meta_refs = [r[0] for r in rounds]
        self._partial_refs = [r[1] for r in rounds]

    def _submit_round(self) -> None:
        if self._partial_refs is None:
            self._bootstrap()
        if self._two_phase:
            # two-phase round: every actor must see every other actor's
            # FRESH post-apply split signals before scattering, so mirror
            # edges and owned edges emit the same superstep's values
            # (non-idempotent programs: Brandes, k-core, SCC)
            meta_refs = [
                a.apply_only.remote(*self._partial_refs) for a in self.actors
            ]
            self._partial_refs = [
                a.scatter_from.remote(*meta_refs) for a in self.actors
            ]
            self._meta_refs = meta_refs
        else:
            # fused single wave; on split graphs the metas carry the
            # split-vertex signals (one superstep stale — program declared
            # stale_mirror_safe, and run() terminates only after the stop
            # predicate holds 2 consecutive supersteps)
            if self._stale_mirrors:
                args = (*self._meta_refs, *self._partial_refs)
                self._prev_meta_refs = self._meta_refs
            else:
                args = tuple(self._partial_refs)
            rounds = [
                a.apply_scatter.options(num_returns=2).remote(*args)
                for a in self.actors
            ]
            self._meta_refs = [r[0] for r in rounds]
            self._partial_refs = [r[1] for r in rounds]
        self._pending.append((self._meta_refs, time.perf_counter()))
        self.submitted += 1

    def _collect_one(self) -> dict:
        meta_refs, t_submit = self._pending.pop(0)
        metas = ray.get(meta_refs)
        agg: dict = {}
        for m in metas:
            for k, v in (m["metrics"] or {}).items():
                agg[k] = agg.get(k, 0) + v
        agg["iteration"] = self.iteration
        agg["wall_sec"] = time.perf_counter() - t_submit
        self.lineage.append(agg)
        self.iteration += 1
        return agg

    def step(self) -> dict:
        """Run one superstep synchronously (submit + collect); returns the
        summed per-partition metrics."""
        self._submit_round()
        return self._collect_one()

    def run(
        self,
        stop,
        *,
        max_iters: int = 10_000,
        depth: int = 4,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 0,
        on_checkpoint=None,
        max_recoveries: int = 2,
    ) -> dict | None:
        """Pipelined superstep loop: keep up to ``depth`` rounds in flight;
        rounds chain actor→actor through object dependencies, so per-round
        driver/scheduler latency overlaps with actor compute. ``stop`` is a
        predicate over collected metrics (which lag the pipeline head by up
        to ``depth`` supersteps — the extra supersteps are no-ops for
        frontier programs and extra convergence for PageRank; iteration
        counts and results stay deterministic because the stop decision is
        made on the same deterministic metric stream).

        If a shard actor dies mid-run (worker OOM, node loss), the loop
        recovers up to ``max_recoveries`` times: rebuild the lost actors
        from the parquet graph, restore every actor from the last complete
        checkpoint (or the initial state when none exists), and continue —
        see :meth:`recover`. A Ray error with all actors still alive is a
        program bug and re-raises."""
        first = self.recoveries
        while True:
            try:
                return self._run_once(
                    stop,
                    max_iters=max_iters,
                    depth=depth,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_interval=checkpoint_interval,
                )
            except ray.exceptions.RayError:
                if (
                    self.recoveries - first >= max_recoveries
                    or not self._probe_dead()
                ):
                    raise
                self.recover(checkpoint_dir)

    def _run_once(
        self,
        stop,
        *,
        max_iters: int,
        depth: int,
        checkpoint_dir: str | None,
        checkpoint_interval: int,
    ) -> dict | None:
        last = None
        # stale-mirror rounds deliver split-vertex signals one superstep
        # late: require the stop condition to hold twice in a row so every
        # in-flight mirror delivery has landed (a delivery that changes
        # anything resets the streak)
        need = 2 if self._stale_mirrors else 1
        streak = 0
        while self.submitted < max_iters:
            self._submit_round()
            if len(self._pending) >= depth:
                last = self._collect_one()
                streak = streak + 1 if stop(last) else 0
                if streak >= need:
                    break
                self.checkpoint_if_due(checkpoint_dir, checkpoint_interval)
        while self._pending:
            last = self._collect_one()
            self.checkpoint_if_due(checkpoint_dir, checkpoint_interval)
        return last

    def drain(self) -> None:
        while self._pending:
            self._collect_one()

    def reset(self) -> None:
        """Drain and reset program state / iteration counters (for
        warmup-then-measure benchmarking)."""
        self.drain()
        self._rollback()

    def _rescatter(self) -> None:
        """Refresh outstanding scatter output after a state mutation
        (broadcast event or restore)."""
        self.drain()
        self._partial_refs = None  # forces bootstrap scatter on next round

    def broadcast_event(self, payload: dict) -> dict:
        self.drain()
        results = ray.get([a.on_event.remote(payload) for a in self.actors])
        agg: dict = {}
        for m in results:
            for k, v in m.items():
                agg[k] = agg.get(k, 0) + v
        self._rescatter()
        return agg

    def checkpoint(self, ckpt_dir: str) -> None:
        from flashray.checkpoint import write_lineage

        self.drain()
        ray.get(
            [a.checkpoint.remote(ckpt_dir, self.iteration) for a in self.actors]
        )
        if self._stale_mirrors and self._prev_meta_refs is not None:
            # persist the mirror the in-flight (lost-on-restore) scatter
            # used — metas#(k-1) — so a resumed run replays it exactly
            full = _mirror_array(
                self.program,
                len(self.split_ids),
                ray.get(self._prev_meta_refs),
            )
            np.save(
                os.path.join(
                    ckpt_dir, f"iter_{self.iteration:06d}", "mirror.npy"
                ),
                full,
            )
        write_lineage(ckpt_dir, self.iteration, self.lineage)

    def checkpoint_if_due(self, ckpt_dir: str | None, interval: int) -> None:
        """Checkpoint when ``ckpt_dir`` is set and the collected superstep
        count is a multiple of ``interval`` (0 = never)."""
        if interval and ckpt_dir is not None and self.iteration % interval == 0:
            self.checkpoint(ckpt_dir)

    def restore(self, ckpt_dir: str) -> int:
        from flashray.checkpoint import read_lineage

        iteration, lineage = read_lineage(ckpt_dir)
        ray.get([a.restore.remote(ckpt_dir, iteration) for a in self.actors])
        self.iteration = iteration
        self.submitted = iteration  # max_iters counts total supersteps
        self.lineage = lineage
        self._partial_refs = None  # force re-scatter from restored state
        mirror_path = os.path.join(ckpt_dir, f"iter_{iteration:06d}", "mirror.npy")
        if self._stale_mirrors and os.path.exists(mirror_path):
            self._restore_mirror = np.load(mirror_path)
        return iteration

    def get_scalar(self, name: str, default=None):
        """Driver-side read of a restored/current scalar state entry."""
        if not self.actors:
            return default
        v = ray.get(self.actors[0].get_scalars.remote([name])).get(name)
        return default if v is None else v

    def values_pandas(self):
        tables = ray.get([a.values_table.remote() for a in self.actors])
        return pa.concat_tables(tables).to_pandas()

    def write_values(self, out_dir: str):
        ray.get([a.write_values.remote(out_dir) for a in self.actors])
        return out_dir

    def close(self):
        """Return pooled actors to the session's pool in slot order, once
        their in-flight rounds have finished and they have dropped their
        per-run state (their shards stay resident). A round that raised has
        already raised in :meth:`run`; the shards are read-only, so the
        actor stays sound and is pooled exactly when its own ``release``
        succeeds. An actor lost mid-round fails that call and is killed.
        Placement-group actors are killed."""
        actors, self.actors = self.actors, []
        pending = [r for refs, _ in self._pending for r in refs]
        self._pending = []
        self._meta_refs = self._partial_refs = self._prev_meta_refs = None
        if self._pg is not None:
            for a in actors:
                ray.kill(a)
            return
        ray.wait(pending, num_returns=len(pending), fetch_local=False)
        # release queues behind every round already submitted to the actor
        released = [a.release.remote() for a in actors]
        idle = []
        for a, ref in zip(actors, released):
            try:
                ray.get(ref)
            except ray.exceptions.RayError:
                ray.kill(a)
            else:
                idle.append(a)
        _POOL.give(idle)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@ray.remote
def _postprocess_part(path: str, postprocess) -> None:
    df = postprocess(pq.read_table(path).to_pandas())
    _write_atomic(pa.Table.from_pandas(df, preserve_index=False), path)


def run_program(
    graph: Graph,
    program: VertexProgram,
    stop=None,
    *,
    max_iters: int = 10_000,
    drive=None,
    postprocess=None,
    out_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
    resume: bool = False,
):
    """Run one vertex program over ``graph``: the lifecycle of an FGlib
    call (create ``graph_engine`` → ``start`` → ``wait4complete`` → read
    the ``FG_vector``; SURVEY.md §3 steps 5–8), shared by every superstep
    algorithm.

    Open an Engine → restore the last checkpoint in ``checkpoint_dir``
    when ``resume`` → drive → checkpoint once more when ``checkpoint_dir``
    is set → collect → close. The drive is either the ``stop`` predicate
    over each superstep's summed metrics, run pipelined for at most
    ``max_iters`` supersteps with a checkpoint every
    ``checkpoint_interval``, or ``drive(eng)`` for multi-phase programs
    that call ``eng.step``/``eng.broadcast_event`` themselves.

    Without ``out_dir`` the result is the (vertex_id, value, ...) frame
    sorted by vertex_id, passed through ``postprocess`` when given, with
    ``attrs`` ``lineage`` (per-superstep metrics), ``engine_init_sec``,
    ``shards_read`` (the partitions this run read and built; 0 when every
    shard was resident from an earlier run on the same graph files),
    ``handshake`` (whether this run exchanged the partition topology; False
    when every actor's was resident) and ``superstep_wall_sec`` (the
    drive's elapsed time; per-superstep ``wall_sec`` values overlap in the
    pipelined runner). With ``out_dir``
    each partition's values are written to ``out_dir/part-*.parquet``,
    ``postprocess`` rewrites each file after close (so it must be
    row-local), and the path is returned. The Engine takes its actors from
    the session's pool, laid out from the session's CPUs (see
    :class:`Engine`)."""
    from flashray.checkpoint import has_checkpoint

    t0 = time.perf_counter()
    with Engine(graph, program) as eng:
        t_init = time.perf_counter() - t0
        if resume and checkpoint_dir is not None and has_checkpoint(checkpoint_dir):
            eng.restore(checkpoint_dir)
        t1 = time.perf_counter()
        if drive is None:
            eng.run(
                stop,
                max_iters=max_iters,
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=checkpoint_interval,
            )
        else:
            drive(eng)
        t_steps = time.perf_counter() - t1
        if checkpoint_dir is not None:
            eng.checkpoint(checkpoint_dir)
        if out_dir is None:
            result = eng.values_pandas()
        else:
            eng.write_values(out_dir)
        lineage = list(eng.lineage)
        shards_read, handshake = eng.shards_read, eng.handshake
    if out_dir is not None:
        if postprocess is not None:
            ray.get(
                [
                    _postprocess_part.remote(_part_file(out_dir, p), postprocess)
                    for p in range(graph.num_partitions)
                ]
            )
        return out_dir
    result = result.sort_values("vertex_id").reset_index(drop=True)
    if postprocess is not None:
        result = postprocess(result)
    result.attrs.update(
        lineage=lineage,
        engine_init_sec=t_init,
        shards_read=shards_read,
        handshake=handshake,
        superstep_wall_sec=t_steps,
    )
    return result
