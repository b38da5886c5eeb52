"""Per-partition CSR-style shard layout (pure numpy; no Ray in this module).

Rebuild of the reference's in-memory adjacency access path
(``flash-graph/vertex.h`` — ``page_vertex`` / ``edge_seq_iterator``;
``flash-graph/vertex_index.h``; SURVEY.md §1.1). One ``ShardData`` per edge
partition, built once inside the owning shard actor and kept resident — the
"semi-external memory" split re-expressed: topology + vertex state in actor
RAM, rebuildable from the Parquet partition at any time.

Layout choice: edges are sorted by ``(dst_part, dst)`` at build time, so the
per-superstep map-side combine is a single ``np.add.reduceat`` /
``np.minimum.reduceat`` over static group offsets — deterministic, O(E),
no hashing in the hot loop. A super-hub destination receives at most P
partials regardless of in-degree (map-side combine == salting with S=P).
A src-sorted CSR (``indptr``/``order``) is kept alongside for
sparse-frontier scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT_IDENTITY = np.iinfo(np.int64).max


@dataclass
class ShardData:
    part: int
    P: int
    # owned vertices (vertex_id % P == part), sorted ascending
    vertex_ids: np.ndarray  # int64[nv]
    out_degree: np.ndarray  # int64[nv]
    in_degree: np.ndarray  # int64[nv]
    w_out_degree: np.ndarray  # float64[nv] — sum of out-edge weights
    # edges of this partition, sorted by (dst_part, dst)
    edge_src_code: np.ndarray  # int32[ne] — index into src_list
    edge_weight: np.ndarray  # float64[ne]
    src_list: np.ndarray  # int64[ns] — sorted unique srcs in this partition
    owned_codes: np.ndarray  # int32[k] — src codes whose home partition is `part`
    owned_idx: np.ndarray  # int64[k] — position of those srcs in vertex_ids
    mirror_codes: np.ndarray  # int32[m] — src codes owned elsewhere (split vertices)
    mirror_ids: np.ndarray  # int64[m]
    # destination grouping (reduceat offsets)
    group_starts: np.ndarray  # int64[G]
    group_dst: np.ndarray  # int64[G]
    qranges: np.ndarray  # int64[P+1] — group index range per destination partition
    # src-sorted view for sparse-frontier scatter
    src_code_starts: np.ndarray  # int64[ns+1] — CSR over codes in src-sorted order
    src_order: np.ndarray  # int64[ne] — edge indices sorted by src code
    # optional per-edge channel tag (e.g. 0=fwd / 1=bwd in a bidirected
    # graph; programs may mask scatter per channel)
    edge_channel: np.ndarray | None = None  # int8[ne], dst-sorted order
    # lazy: group id of each edge (for sparse-frontier scatter)
    _edge_group: np.ndarray | None = None

    def edge_group(self) -> np.ndarray:
        if self._edge_group is None:
            eg = np.zeros(self.ne, dtype=np.int64)
            if self.ne:
                eg[self.group_starts[1:]] = 1
                np.cumsum(eg, out=eg)
            eg.flags.writeable = False  # shared by every later run of the shard
            self._edge_group = eg
        return self._edge_group

    @property
    def nv(self) -> int:
        return len(self.vertex_ids)

    @property
    def ne(self) -> int:
        return len(self.edge_src_code)

    def outgoing_dst_ids(self) -> list[np.ndarray]:
        """Per destination partition q: the sorted dst vertex ids this shard
        sends partial aggregates to (static topology; exchanged once)."""
        out = []
        for q in range(self.P):
            lo, hi = self.qranges[q], self.qranges[q + 1]
            out.append(self.group_dst[lo:hi])
        return out


def build_shard(
    part: int,
    P: int,
    vertex_ids: np.ndarray,
    out_degree: np.ndarray,
    in_degree: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray | None = None,
    w_out_degree: np.ndarray | None = None,
    channel: np.ndarray | None = None,
) -> ShardData:
    """Construct a shard from its vertex-table partition + edge partition."""
    if w_out_degree is None:
        w_out_degree = out_degree.astype(np.float64)
    order = np.argsort(vertex_ids, kind="stable")
    vertex_ids = vertex_ids[order]
    out_degree = out_degree[order]
    in_degree = in_degree[order]
    w_out_degree = np.asarray(w_out_degree, dtype=np.float64)[order]

    ne = len(src)
    if weight is None:
        weight = np.ones(ne)
    dst_part = dst % P
    eorder = np.lexsort((dst, dst_part))
    src_s = src[eorder]
    dst_s = dst[eorder]
    dpart_s = dst_part[eorder]
    weight_s = weight[eorder].astype(np.float64)
    channel_s = channel[eorder].astype(np.int8) if channel is not None else None

    if ne:
        new_group = np.empty(ne, dtype=bool)
        new_group[0] = True
        new_group[1:] = (dst_s[1:] != dst_s[:-1]) | (dpart_s[1:] != dpart_s[:-1])
        group_starts = np.flatnonzero(new_group).astype(np.int64)
    else:
        group_starts = np.empty(0, dtype=np.int64)
    group_dst = dst_s[group_starts] if ne else np.empty(0, dtype=np.int64)
    group_part = dpart_s[group_starts] if ne else np.empty(0, dtype=np.int64)
    qranges = np.searchsorted(group_part, np.arange(P + 1)).astype(np.int64)

    src_list, edge_src_code = (
        np.unique(src_s, return_inverse=True)
        if ne
        else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    )
    edge_src_code = edge_src_code.astype(np.int32)

    home = src_list % P
    owned_mask = home == part
    owned_codes = np.flatnonzero(owned_mask).astype(np.int32)
    owned_idx = np.searchsorted(vertex_ids, src_list[owned_mask]).astype(np.int64)
    # sanity: every owned src must exist in the vertex partition
    if len(owned_idx) and not (
        (owned_idx < len(vertex_ids))
        & (vertex_ids[np.minimum(owned_idx, len(vertex_ids) - 1)] == src_list[owned_mask])
    ).all():
        raise AssertionError(f"shard {part}: src vertices missing from vertex table")
    mirror_codes = np.flatnonzero(~owned_mask).astype(np.int32)
    mirror_ids = src_list[~owned_mask]

    # src-sorted CSR over codes for sparse-frontier scatter
    src_order = np.argsort(edge_src_code, kind="stable").astype(np.int64)
    counts = np.bincount(edge_src_code, minlength=len(src_list))
    src_code_starts = np.zeros(len(src_list) + 1, dtype=np.int64)
    np.cumsum(counts, out=src_code_starts[1:])

    return ShardData(
        part=part,
        P=P,
        vertex_ids=vertex_ids,
        out_degree=out_degree,
        in_degree=in_degree,
        w_out_degree=w_out_degree,
        edge_src_code=edge_src_code,
        edge_weight=weight_s,
        src_list=src_list,
        owned_codes=owned_codes,
        owned_idx=owned_idx,
        mirror_codes=mirror_codes,
        mirror_ids=mirror_ids,
        group_starts=group_starts,
        group_dst=group_dst,
        qranges=qranges,
        src_code_starts=src_code_starts,
        src_order=src_order,
        edge_channel=channel_s,
    )


def scatter_partials(
    shard: ShardData,
    signal_by_code: np.ndarray,
    *,
    combine: str,
    identity,
    use_weights: bool = False,
    weight_op: str = "mul",
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Dense scatter: per-edge messages → per-(destination partition, dst)
    partial aggregates via reduceat. Returns ONE contiguous array with one
    entry per group, ordered by (dest partition, dst) — the slice for
    destination q is ``[qranges[q], qranges[q+1])`` (static offsets the
    receiver learned at handshake). One buffer per partition keeps the
    plasma store write O(1) objects (measured: 128 small buffers per
    return cost ~10 ms/actor/superstep in object-store writes).

    ``weight_op="add"`` applies weights in the tropical (min, +) semiring
    (SSSP relaxations: msg = dist + w); the identity must absorb the
    addition (np.inf does, 0.0 does not)."""
    msgs = signal_by_code[shard.edge_src_code]
    if use_weights:
        w = shard.edge_weight
        w = w[:, None] if msgs.ndim == 2 else w
        msgs = msgs + w if weight_op == "add" else msgs * w
    if edge_mask is not None:
        em = edge_mask[:, None] if msgs.ndim == 2 else edge_mask
        msgs = np.where(em, msgs, identity)
    if shard.ne == 0:
        shape = (0, signal_by_code.shape[1]) if signal_by_code.ndim == 2 else 0
        return np.empty(shape, dtype=msgs.dtype)
    if combine == "sum":
        return np.add.reduceat(msgs, shard.group_starts)
    if combine == "min":
        return np.minimum.reduceat(msgs, shard.group_starts)
    if combine == "max":
        return np.maximum.reduceat(msgs, shard.group_starts)
    raise ValueError(combine)


def scatter_partials_sparse(
    shard: ShardData,
    signal_by_code: np.ndarray,
    active_codes: np.ndarray,
    *,
    combine: str,
    identity,
    use_weights: bool = False,
    weight_op: str = "mul",
    edge_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse-frontier scatter: touch only the out-edges of active source
    codes (via the src-sorted CSR), aggregate per group. Returns
    ``(positions, values)`` — positions are SORTED group indices into the
    dense G-length layout, so a receiver can select its slice with two
    searchsorteds. Per-edge compute AND exchange volume are O(frontier),
    not O(G) (a dense identity-filled array kept late BFS supersteps
    O(graph); SURVEY.md §2.1 E6)."""
    vshape = (0, signal_by_code.shape[1]) if signal_by_code.ndim == 2 else 0
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(vshape, dtype=signal_by_code.dtype),
    )
    if shard.ne == 0 or len(active_codes) == 0:
        return empty
    # edge indices (dst-sorted order) of all active sources
    spans = [
        shard.src_order[shard.src_code_starts[c] : shard.src_code_starts[c + 1]]
        for c in active_codes
    ]
    eidx = np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
    if edge_mask is not None:
        eidx = eidx[edge_mask[eidx]]
    if len(eidx) == 0:
        return empty
    msgs = signal_by_code[shard.edge_src_code[eidx]]
    if use_weights:
        w = shard.edge_weight[eidx]
        w = w[:, None] if msgs.ndim == 2 else w
        msgs = msgs + w if weight_op == "add" else msgs * w
    groups = shard.edge_group()[eidx]
    order = np.argsort(groups, kind="stable")
    groups = groups[order]
    msgs = msgs[order]
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    if combine == "sum":
        red = np.add.reduceat(msgs, starts)
    elif combine == "min":
        red = np.minimum.reduceat(msgs, starts)
    elif combine == "max":
        red = np.maximum.reduceat(msgs, starts)
    else:
        raise ValueError(combine)
    return groups[starts], red
