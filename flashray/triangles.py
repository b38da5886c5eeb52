"""Triangle counting + scan statistics as a Ray Data wedge dataflow.

Reference: ``libgraph-algs/undirected_triangle_graph.cpp`` —
``compute_undirected_triangles`` (SURVEY.md §2.2 A5): the reference fetches
neighbors' adjacency lists via async SSD random access (E9
``request_vertices``); with no remote random access in Ray Data, the
neighborhood-intersection is restructured as a join (SURVEY.md §2.1 E9):

1. canonical undirected edges (one row per edge; for a symmetrized graph a
   plain ``src < dst`` filter — no shuffle),
2. degree-orient each edge low→high by (degree, id) (:func:`_orient`) —
   bounds each vertex's oriented out-degree by the graph degeneracy, so
   super-hubs do not explode the wedge count (the reference's
   degree-ordering trick),
3. one numpy wedge kernel over a sorted out-adjacency (CSR) in compact
   vertex codes (:func:`_wedge_state`, :func:`_wedges`): each oriented
   edge (a, b) pairs b with every LATER out-neighbor c of a, so each wedge
   is listed once, with b < c,
4. close every wedge against the canonical edge set; every closed wedge
   is one triangle, counted exactly once (the center is the
   (deg,id)-smallest member).

Three executors run that one kernel. The local one (below
``LOCAL_EDGE_THRESHOLD`` edges) calls it once over all edges in process;
the broadcast one (below ``BROADCAST_CSR_EDGE_LIMIT``) ``ray.put``s the
CSR once and maps the same call over the oriented blocks. Both close
wedges by a sorted-key probe (:func:`_lookup`). The bucket executor (above
the limit) runs the kernel per center bucket on that bucket's own CSR and
closes wedges by a bucketed hash join, since the closing edges are not in
the bucket. :func:`_closed_wedges` is the one broadcast/bucket choice.

Joins use flashray.joins.bucket_hash_join (single groupby shuffle per join,
vectorized pandas merge per bucket) — Ray 2.49's Dataset.join aggregator
pool starves small CPU sessions.

Scan statistics (A7/A8, ``libgraph-algs/local_scan_graph.cpp`` /
``topK_scan_graph.cpp``): scan1(v) = deg(v) + triangles(v) = edge count in
the closed 1-hop neighborhood; top-k = sort + limit over the scan vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.build import Graph
from flashray.joins import (
    bucket_group_agg,
    bucket_hash_join,
    bucket_map,
    coalesce,
    pairs_within_groups,
)

I64 = pa.int64()
_EDGES = pa.schema([("lo", I64), ("hi", I64)])
_DEG = pa.schema([("vertex_id", I64), ("deg", I64)])
_WEDGES = pa.schema([("w1", I64), ("w2", I64), ("center", I64)])
_CLOSING = pa.schema([("w1", I64), ("w2", I64)])
_TRIANGLES = pa.schema([("vertex_id", I64), ("triangles", I64)])
_SUPPORT = pa.schema([("lo", I64), ("hi", I64), ("support", I64)])
_CLIQUES = pa.schema([("vertex_id", I64), ("cliques4", I64)])


def _typed(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """``ds`` with a known schema even when it has no rows: a shuffle over
    zero rows yields no blocks and so no schema; one empty block fixes it."""
    return ds.union(ray.data.from_arrow(schema.empty_table()))


def _table_ds(schema: pa.Schema, *cols) -> ray.data.Dataset:
    """A Dataset of numpy columns, typed by ``schema`` (empty or not)."""
    return ray.data.from_arrow(
        pa.table(dict(zip(schema.names, cols)), schema=schema)
    )


def _frame_ds(df: pd.DataFrame, schema: pa.Schema) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.Table.from_pandas(df, schema=schema, preserve_index=False)
    )


def _columns(ds: ray.data.Dataset, names: list[str]) -> list[np.ndarray]:
    """Collect int64 columns on the driver. ``to_pandas`` of an empty
    Dataset has no columns at all, typed or not: read those as empty."""
    df = ds.to_pandas()
    return [
        df[c].to_numpy(dtype=np.int64) if len(df) else np.zeros(0, np.int64)
        for c in names
    ]


def _canonical_undirected(graph: Graph) -> ray.data.Dataset:
    """One row per undirected edge (lo, hi), self-loops dropped."""
    edges = graph.edges_dataset(columns=["src", "dst"])

    def canon(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        if graph.meta.symmetrized:
            # both directions present exactly once per etype -> src < dst
            m = src < dst
            return pa.table({"lo": src[m], "hi": dst[m]})
        m = src != dst
        return pa.table(
            {"lo": np.minimum(src[m], dst[m]), "hi": np.maximum(src[m], dst[m])}
        )

    out = edges.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
    # the build dedups on (src, dst, etype): a pair connected by TWO etypes
    # would yield a duplicate (lo, hi) row and double-count wedges — dedup
    # in both branches (symmetrized included). This is a full shuffle, so
    # callers that consume the result twice must materialize it (a lazy
    # Dataset re-executes its whole upstream per consumer).
    return bucket_group_agg(out, ["lo", "hi"], None)


def _deg_from_und(und: ray.data.Dataset) -> ray.data.Dataset:
    """(vertex_id, deg) counted directly from a canonical edge Dataset."""

    def expand(b: pa.Table) -> pa.Table:
        lo = b["lo"].to_numpy(zero_copy_only=False)
        hi = b["hi"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vertex_id": np.concatenate([lo, hi]),
                "deg": np.ones(2 * len(lo), dtype=np.int64),
            }
        )

    return bucket_group_agg(
        und.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True),
        ["vertex_id"],
        {"deg": ("deg", "sum")},
    )


def _degree_table(graph: Graph, und: ray.data.Dataset) -> ray.data.Dataset:
    """(vertex_id, deg) with deg = undirected degree."""
    if graph.meta.symmetrized:
        ds = graph.vertices_dataset(columns=["vertex_id", "out_degree"])
        return ds.map_batches(
            lambda b: b.rename_columns(
                ["deg" if c == "out_degree" else c for c in b.column_names]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return _deg_from_und(und)


BROADCAST_VERTEX_LIMIT = 20_000_000  # ~240 MB of (id, deg) arrays


def _degree_lookup(deg: ray.data.Dataset):
    """Broadcast the degree table once as sorted (ids, deg) arrays. The
    returned ``lookup(*id_arrays) -> degree arrays`` runs inside
    ``map_batches`` tasks."""
    vid, d = _columns(deg, ["vertex_id", "deg"])
    order = np.argsort(vid)
    ref = ray.put((vid[order], d[order]))

    def lookup(*cols: np.ndarray) -> list[np.ndarray]:
        ids, dg = ray.get(ref)
        return [dg[np.searchsorted(ids, c)] for c in cols]

    return lookup


def _orient(
    lo: np.ndarray, hi: np.ndarray, dlo: np.ndarray, dhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The orientation rule: edge {lo, hi} becomes a -> b with
    (deg(a), a) < (deg(b), b)."""
    lo_first = (dlo < dhi) | ((dlo == dhi) & (lo < hi))
    return np.where(lo_first, lo, hi), np.where(lo_first, hi, lo)


def _oriented_edges(graph: Graph, num_buckets: int) -> ray.data.Dataset:
    """Degree-oriented canonical edges (a, b), materialized: they feed
    both the wedge listing and the closing step, so the canonical-dedup
    shuffle (+ orientation joins on the huge-graph path) runs once, not
    once per consumer. Cost: E × 16 B of (a, b) int64 pairs in the object
    store (spillable) — far cheaper than re-running a full shuffle."""
    und = _canonical_undirected(graph)
    if not graph.meta.symmetrized:
        # the directed branch consumes und twice (degree count + orient):
        # pin the dedup-shuffle output so it executes once
        und = und.materialize()
    deg = _degree_table(graph, und)
    return _orient_und(
        und, deg, graph.meta.num_vertices, num_buckets
    ).materialize()


def _orient_und(
    und: ray.data.Dataset,
    deg: ray.data.Dataset,
    num_vertices: int,
    num_buckets: int,
) -> ray.data.Dataset:
    """Orientation core, graph-independent (k-truss re-runs it per peel
    round on a shrinking edge set).

    Small-side optimization: when the vertex table fits comfortably in the
    object store, broadcast (sorted ids, degrees) once and orient with a
    vectorized searchsorted per batch — no join shuffles. The partitioned
    hash-join path remains for vertex tables beyond the broadcast limit."""
    if num_vertices <= BROADCAST_VERTEX_LIMIT:
        degree = _degree_lookup(deg)

        def orient_bcast(b: pa.Table) -> pa.Table:
            lo = b["lo"].to_numpy(zero_copy_only=False)
            hi = b["hi"].to_numpy(zero_copy_only=False)
            a, bb = _orient(lo, hi, *degree(lo, hi))
            return pa.table({"a": a, "b": bb})

        return und.map_batches(
            orient_bcast, batch_format="pyarrow", zero_copy_batch=True
        )

    j = bucket_hash_join(
        und, deg, ["lo"], right_on=["vertex_id"], num_buckets=num_buckets,
        left_schema=_EDGES, right_schema=_DEG,
    )
    # columns now: lo, hi, deg  (deg of lo)
    j = j.map_batches(
        lambda b: b.rename_columns(
            ["deg_lo" if c == "deg" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    j = bucket_hash_join(
        j, deg, ["hi"], right_on=["vertex_id"], num_buckets=num_buckets,
        left_schema=pa.schema([("lo", I64), ("hi", I64), ("deg_lo", I64)]),
        right_schema=_DEG,
    )

    def orient(b: pa.Table) -> pa.Table:
        cols = [
            b[c].to_numpy(zero_copy_only=False)
            for c in ("lo", "hi", "deg_lo", "deg")
        ]
        a, bb = _orient(*cols)
        return pa.table({"a": a, "b": bb})

    return j.map_batches(orient, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# The wedge kernel (shared by the local, broadcast and bucket executors)
# ---------------------------------------------------------------------------


class _WedgeState(NamedTuple):
    """Sorted out-adjacency (CSR) of a set of oriented edges a -> b, in
    compact vertex codes so that a pair key ``x * nv + y`` stays inside
    int64 whatever the vertex ids are."""

    ids: np.ndarray  # code -> vertex id (sorted)
    indptr: np.ndarray  # out-edges of code x: adj[indptr[x]:indptr[x + 1]]
    adj: np.ndarray  # b codes, ascending within each a
    edge_keys: np.ndarray  # a * nv + b in CSR order (ascending)
    closing_keys: np.ndarray  # sorted min * nv + max of every edge
    nv: int


def _wedge_state(a: np.ndarray, b: np.ndarray) -> _WedgeState:
    ids = np.unique(np.concatenate([a, b]))
    nv = len(ids)
    ca = np.searchsorted(ids, a)
    cb = np.searchsorted(ids, b)
    order = np.lexsort((cb, ca))
    ca, cb = ca[order], cb[order]
    return _WedgeState(
        ids,
        np.searchsorted(ca, np.arange(nv + 1)),
        cb,
        ca * nv + cb,
        np.sort(np.minimum(ca, cb) * nv + np.maximum(ca, cb)),
        nv,
    )


def _wedges(
    a: np.ndarray, b: np.ndarray, st: _WedgeState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wedges of oriented edges (a, b) — original ids, any subset of the
    state's edges: each edge pairs b with every LATER out-neighbor c of a
    in the CSR, so every wedge of center a is listed exactly once over the
    whole edge set, with b < c. Returns codes (w1, w2, center)."""
    ca = np.searchsorted(st.ids, a)
    cb = np.searchsorted(st.ids, b)
    start = np.searchsorted(st.edge_keys, ca * st.nv + cb) + 1
    n = st.indptr[ca + 1] - start
    edge = np.repeat(np.arange(len(ca)), n)
    flat = np.arange(len(edge)) - (np.cumsum(n) - n)[edge] + start[edge]
    return cb[edge], st.adj[flat], ca[edge]


def _lookup(keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probe sorted int64 ``keys``: (insert position, present?) per query."""
    pos = np.searchsorted(keys, q)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == q[hit]
    return pos, hit


def _closed(
    a: np.ndarray, b: np.ndarray, st: _WedgeState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed wedges (w1, w2, center), original ids, of oriented edges
    (a, b): the kernel's wedges probed against the state's closing keys."""
    w1, w2, c = _wedges(a, b, st)
    _, hit = _lookup(st.closing_keys, w1 * st.nv + w2)
    return st.ids[w1[hit]], st.ids[w2[hit]], st.ids[c[hit]]


def _wedge_table(w1: np.ndarray, w2: np.ndarray, c: np.ndarray) -> pa.Table:
    return pa.table({"w1": w1, "w2": w2, "center": c}, schema=_WEDGES)


def _member_edges(
    w1: np.ndarray, w2: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The three canonical edges (lo, hi) of each closed wedge (w1 < w2)."""
    return (
        np.concatenate([w1, np.minimum(c, w1), np.minimum(c, w2)]),
        np.concatenate([w2, np.maximum(c, w1), np.maximum(c, w2)]),
    )


def _pair_keys(ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.searchsorted(ids, x) * len(ids) + np.searchsorted(ids, y)


# Hybrid routing (the duplicate_groups/broadcast-orientation pattern): the
# distributed executors cost a fixed 2–4 all-to-alls regardless of size,
# pure latency on small graphs; below this edge count the SAME kernel runs
# once over all edges in process (the local executor).
# graph.meta.num_edges (>= canonical rows) gates it without extra passes.
LOCAL_EDGE_THRESHOLD = 200_000


def _both_directions(b: pa.Table) -> pa.Table:
    """Canonical (lo, hi) edges as (center, nbr) rows in both directions:
    the full adjacency that wedges centred on each vertex are listed from."""
    lo = b["lo"].to_numpy(zero_copy_only=False)
    hi = b["hi"].to_numpy(zero_copy_only=False)
    return pa.table(
        {"center": np.concatenate([lo, hi]), "nbr": np.concatenate([hi, lo])}
    )


def _is_local(graph: Graph, local_threshold: int | None) -> bool:
    return bool(local_threshold) and graph.meta.num_edges <= local_threshold


def _local_closed_wedges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local executor: closed wedges of a deduped canonical edge set,
    in process — the orientation rule, then the wedge kernel once over all
    edges (the broadcast executor maps the same call over blocks).
    Returns (w1, w2, center) with w1 < w2, original vertex ids."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    ids, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    deg = np.bincount(inv)
    a, b = _orient(lo, hi, deg[inv[: len(lo)]], deg[inv[len(lo):]])
    return _closed(a, b, _wedge_state(a, b))


def _local_und(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = _columns(_canonical_undirected(graph), ["lo", "hi"])
    return lo, hi


def _local_deg(graph: Graph, lo: np.ndarray, hi: np.ndarray) -> pd.DataFrame:
    """Local mirror of _degree_table (same source columns)."""
    if graph.meta.symmetrized:
        vid, deg = _columns(
            graph.vertices_dataset(columns=["vertex_id", "out_degree"]),
            ["vertex_id", "out_degree"],
        )
    else:
        vid, deg = np.unique(np.concatenate([lo, hi]), return_counts=True)
    return pd.DataFrame({"vertex_id": vid, "deg": deg.astype(np.int64)})


def _vertex_counts(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vertex_id, occurrences) over the concatenated id columns."""
    vid, cnt = np.unique(np.concatenate(cols), return_counts=True)
    return vid.astype(np.int64), cnt.astype(np.int64)


def _local_tri_counts(lo: np.ndarray, hi: np.ndarray) -> pd.DataFrame:
    vid, cnt = _vertex_counts(*_local_closed_wedges(lo, hi))
    return pd.DataFrame({"vertex_id": vid, "triangles": cnt})


def _local_support(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Triangle support of every canonical edge (lo, hi), in process:
    the local kernel, the member-edge expansion, one count per edge."""
    mlo, mhi = _member_edges(*_local_closed_wedges(lo, hi))
    ids = np.unique(np.concatenate([lo, hi]))
    key = _pair_keys(ids, lo, hi)
    order = np.argsort(key)
    pos, _ = _lookup(key[order], _pair_keys(ids, mlo, mhi))
    support = np.empty(len(lo), dtype=np.int64)
    support[order] = np.bincount(pos, minlength=len(lo))
    return support


# Below this many EDGES the broadcast executor runs: the wedge state (ids,
# CSR offsets, adjacency, edge and closing keys — ~40 B/edge) goes out once
# via ray.put and the kernel maps over the oriented blocks SHUFFLE-FREE
# (the walks.py CSR-broadcast idiom), keeping the O(Σ deg²)-bounded wedge
# work distributed across the actor pool — unlike LOCAL_EDGE_THRESHOLD's
# single-threaded call. Above the limit the bucket executor runs the same
# kernel per center bucket and closes wedges by join (two all-to-alls).
BROADCAST_CSR_EDGE_LIMIT = 20_000_000


def _closed_wedges(
    oriented: ray.data.Dataset, num_edges: int, num_buckets: int
) -> ray.data.Dataset:
    """Closed wedges (w1, w2, center) of a materialized oriented edge set
    of ``num_edges`` edges: the broadcast executor up to
    BROADCAST_CSR_EDGE_LIMIT, the bucket executor above."""
    if num_edges <= BROADCAST_CSR_EDGE_LIMIT:
        return _closed_from_oriented_broadcast(oriented)
    return _closed_from_oriented(oriented, num_buckets)


def _closed_from_oriented_broadcast(
    oriented: ray.data.Dataset,
) -> ray.data.Dataset:
    """Shuffle-free closed-wedge pass: collect the oriented edge set once,
    ``ray.put`` its wedge state, then map the kernel over the SAME
    oriented blocks."""
    ref = ray.put(_wedge_state(*_columns(oriented, ["a", "b"])))

    def probe(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        return _wedge_table(*_closed(a, b, ray.get(ref)))

    return oriented.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True
    )


def _closing_keys(oriented: ray.data.Dataset) -> ray.data.Dataset:
    def okey(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table({"w1": np.minimum(a, bb), "w2": np.maximum(a, bb)})

    return oriented.map_batches(okey, batch_format="pyarrow")


def _closed_from_oriented(
    oriented: ray.data.Dataset, num_buckets: int
) -> ray.data.Dataset:
    """The bucket executor: each center bucket lists its wedges with the
    kernel over its own CSR (every out-edge of a center lands in the
    center's bucket); wedges close by one bucketed join against the
    closing keys."""

    def wedges_of_bucket(g: pd.DataFrame) -> pa.Table:
        a = g["a"].to_numpy(dtype=np.int64)
        b = g["b"].to_numpy(dtype=np.int64)
        st = _wedge_state(a, b)
        w1, w2, c = _wedges(a, b, st)
        return _wedge_table(st.ids[w1], st.ids[w2], st.ids[c])

    wedges = bucket_map(
        oriented, ["a"], wedges_of_bucket, num_buckets=num_buckets
    )
    return bucket_hash_join(
        wedges, _closing_keys(oriented), ["w1", "w2"],
        num_buckets=num_buckets, left_schema=_WEDGES, right_schema=_CLOSING,
    )


def triangles(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """Per-vertex triangle counts: Dataset (vertex_id, triangles). Vertices
    in no triangle are absent (left-join the vertex table for zeros).
    Below ``local_threshold`` edges the wedge pass runs in-process
    (see LOCAL_EDGE_THRESHOLD); 0/None forces the distributed dataflow."""
    if _is_local(graph, local_threshold):
        closed = _local_closed_wedges(*_local_und(graph))
        return _table_ds(_TRIANGLES, *_vertex_counts(*closed))
    B = num_buckets or max(16, graph.num_partitions)
    closed = _closed_wedges(_oriented_edges(graph, B), graph.meta.num_edges, B)

    def to_members(b: pa.Table) -> pa.Table:
        w1 = b["w1"].to_numpy(zero_copy_only=False)
        w2 = b["w2"].to_numpy(zero_copy_only=False)
        c = b["center"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vertex_id": np.concatenate([w1, w2, c]),
                "triangles": np.ones(3 * len(c), dtype=np.int64),
            }
        )

    return _typed(
        bucket_group_agg(
            closed.map_batches(
                to_members, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["vertex_id"],
            {"triangles": ("triangles", "sum")},
        ),
        _TRIANGLES,
    )


def edge_support(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    include_zero: bool = True,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """Per-EDGE triangle support (the k-truss quantity): for every
    undirected edge (lo, hi), the number of triangles containing it.
    Each closed wedge contributes its three member edges; one bucketed
    sum. ``include_zero`` left-joins the canonical edge set so
    triangle-free edges appear with support 0. Below ``local_threshold``
    edges the pass runs in-process (see LOCAL_EDGE_THRESHOLD)."""
    if _is_local(graph, local_threshold):
        lo, hi = _local_und(graph)
        sup = _local_support(lo, hi)
        keep = slice(None) if include_zero else sup > 0
        return _table_ds(_SUPPORT, lo[keep], hi[keep], sup[keep])
    B = num_buckets or max(16, graph.num_partitions)
    closed = _closed_wedges(_oriented_edges(graph, B), graph.meta.num_edges, B)
    sup = _support_from_closed(closed, B)
    if include_zero:
        sup = _support_with_zeros(_canonical_undirected(graph), sup, B)
    return _typed(sup, _SUPPORT)


def _support_from_closed(
    closed: ray.data.Dataset, num_buckets: int
) -> ray.data.Dataset:
    def to_edges(b: pa.Table) -> pa.Table:
        lo, hi = _member_edges(
            *(b[c].to_numpy(zero_copy_only=False) for c in _WEDGES.names)
        )
        return pa.table(
            {"lo": lo, "hi": hi, "support": np.ones(len(lo), dtype=np.int64)}
        )

    return bucket_group_agg(
        closed.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True),
        ["lo", "hi"],
        {"support": ("support", "sum")},
        num_buckets=num_buckets,
    )


def _support_with_zeros(
    und: ray.data.Dataset, sup: ray.data.Dataset, num_buckets: int
) -> ray.data.Dataset:
    j = bucket_hash_join(
        und, sup, ["lo", "hi"], how="left", num_buckets=num_buckets,
        left_schema=_EDGES, right_schema=_SUPPORT,
    )

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lo": df["lo"].to_numpy().astype(np.int64),
                "hi": df["hi"].to_numpy().astype(np.int64),
                "support": df["support"]
                .fillna(0)
                .to_numpy()
                .astype(np.int64),
            }
        )

    return j.map_batches(fill, batch_format="pandas")


def _k_truss_local(
    lo: np.ndarray, hi: np.ndarray, thr: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-process peel to the fixed point; each round is a distributed
    round's rule: the local kernel, the per-edge support count, then the
    support filter. Input: deduped canonical edges (lo < hi). Returns
    (lo, hi, support)."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    while True:
        support = _local_support(lo, hi)
        keep = support >= thr
        if keep.all():
            return lo, hi, support
        lo, hi = lo[keep], hi[keep]


def k_truss(
    graph: Graph,
    k: int,
    *,
    num_buckets: int | None = None,
    max_rounds: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """The k-truss: the maximal subgraph in which every edge participates
    in at least k−2 triangles (support counted WITHIN the subgraph).
    Returns the surviving canonical edges as (lo, hi, support) with the
    final in-truss support; k >= 3.

    Iterative peeling: each round recomputes per-edge support on the
    current edge set (degrees, orientation and wedges all re-derived from
    the shrunken set — one closed-wedge pass per round) and drops every
    edge below k−2, until a fixed point. Rounds are bounded by the peel
    depth of the graph, not |E|: each round removes all violating edges
    at once. ``max_rounds`` caps it for latency-sensitive callers (the
    result is then a truss SUPERSET, support values still exact for the
    returned edge set's last round).

    ``local_threshold``: peel-tail hybrid. Peeling is O(peel-depth)
    ROUNDS of multi-stage shuffles — pure round-trip latency once the
    survivor set is small — and at scale the set shrinks monotonically,
    so once the current edge count fits one worker the remaining rounds
    run as one vectorized in-process peel (:func:`_k_truss_local`, the
    exact same per-round rule) instead of paying
    O(stages × remaining_rounds) in shuffle latency. Set ``None`` (or 0)
    to force the distributed loop for every round."""
    if k < 3:
        raise ValueError("k-truss requires k >= 3")
    B = num_buckets or max(16, graph.num_partitions)
    nv = graph.meta.num_vertices
    thr = k - 2
    und = _canonical_undirected(graph).materialize()
    n = und.count()
    rounds = 0
    while True:
        if local_threshold and n <= local_threshold and max_rounds is None:
            return _table_ds(
                _SUPPORT, *_k_truss_local(*_columns(und, ["lo", "hi"]), thr)
            )
        oriented = _orient_und(und, _deg_from_und(und), nv, B).materialize()
        # NO zero-fill join here (unlike edge_support): thr = k-2 >= 1, so
        # an edge absent from the support table (support 0) is dropped by
        # the filter either way — skipping _support_with_zeros saves one
        # all-to-all per peel round
        supz = _support_from_closed(_closed_wedges(oriented, n, B), B)

        def keep(b: pa.Table) -> pa.Table:
            return b.filter(
                pa.array(b["support"].to_numpy(zero_copy_only=False) >= thr)
            )

        # coalesce per round (measured: 1,118 s for a 534-edge graph at 4
        # rounds without it)
        kept = coalesce(
            supz.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True),
            B,
        )
        m = kept.count()
        rounds += 1
        if m == n or m == 0 or (max_rounds is not None and rounds >= max_rounds):
            return _typed(kept, _SUPPORT)
        und = kept.select_columns(["lo", "hi"])
        n = m


def triangle_count(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> int:
    """Global triangle count (each triangle once). Below
    ``local_threshold`` edges the wedge pass runs in-process."""
    if _is_local(graph, local_threshold):
        return int(len(_local_closed_wedges(*_local_und(graph))[0]))
    B = num_buckets or max(16, graph.num_partitions)
    return _closed_wedges(
        _oriented_edges(graph, B), graph.meta.num_edges, B
    ).count()


def directed_triangle_count(
    graph: Graph, *, num_buckets: int | None = None
) -> int:
    """A6 (libgraph-algs/triangle_graph.cpp — compute_directed_triangles):
    directed 3-cycles u→v→w→u, each counted once (u = cyclic minimum).

    Dataflow: paths u→v→w from a self-join of the (deduped) directed edge
    set on v, then a closure join against edges on (w, u). Bucketed hash
    joins as in the undirected case."""
    B = num_buckets or max(16, graph.num_partitions)
    edges = graph.edges_dataset(columns=["src", "dst"])

    def dedup_dir(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        m = src != dst
        return pa.table({"src": src[m], "dst": dst[m]})

    from flashray.joins import bucket_group_agg

    e = bucket_group_agg(
        edges.map_batches(dedup_dir, batch_format="pyarrow", zero_copy_batch=True),
        ["src", "dst"],
        None,
    )
    I64 = pa.int64()
    esch = pa.schema([("src", I64), ("dst", I64)])

    # paths u→v→w: join e (as u→v) with e (as v→w) on v
    paths = bucket_hash_join(
        e,
        e,
        ["dst"],
        right_on=["src"],
        num_buckets=B,
        left_schema=esch,
        right_schema=esch,
        suffixes=("", "_2"),
    )

    def clean(b: pa.Table) -> pa.Table:
        u = b["src"].to_numpy(zero_copy_only=False)
        w = b["dst_2"].to_numpy(zero_copy_only=False)
        # u is the cyclic minimum -> each 3-cycle counted exactly once
        m = (u != w) & (u < b["dst"].to_numpy(zero_copy_only=False)) & (u < w)
        return pa.table({"w": w[m], "u": u[m]})

    paths = paths.map_batches(clean, batch_format="pyarrow")
    closed = bucket_hash_join(
        paths,
        e,
        ["w", "u"],
        right_on=["src", "dst"],
        num_buckets=B,
        left_schema=pa.schema([("w", I64), ("u", I64)]),
        right_schema=esch,
    )
    return closed.count()


def _with_triangles(
    graph: Graph,
    num_buckets: int | None,
    local_threshold: int | None,
    finish,
    schema: pa.Schema,
) -> ray.data.Dataset:
    """``finish`` applied to the (vertex_id, deg, triangles) frame — the
    degree table left-joined with the per-vertex triangle counts, NaN
    where a vertex is in no triangle — built on the chosen executor."""
    if _is_local(graph, local_threshold):
        lo, hi = _local_und(graph)
        vt = _local_deg(graph, lo, hi).merge(
            _local_tri_counts(lo, hi), on="vertex_id", how="left"
        )
        return _frame_ds(finish(vt), schema)
    B = num_buckets or max(16, graph.num_partitions)
    tri = triangles(graph, num_buckets=B, local_threshold=local_threshold)
    deg = _degree_table(graph, _canonical_undirected(graph))
    j = bucket_hash_join(
        deg, tri, ["vertex_id"], how="left", num_buckets=B,
        # triangles may be empty (triangle-free graph) -> schema unknowable
        left_schema=_DEG, right_schema=_TRIANGLES,
    )
    return _typed(j.map_batches(finish, batch_format="pandas"), schema)


def _deg_tri(vt: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        vt["vertex_id"].to_numpy(dtype=np.int64),
        vt["deg"].to_numpy(dtype=np.int64),
        vt["triangles"].fillna(0).to_numpy(dtype=np.int64),
    )


def _scan(vt: pd.DataFrame) -> pd.DataFrame:
    v, d, t = _deg_tri(vt)
    return pd.DataFrame({"vertex_id": v, "scan": d + t})


def _clustering(vt: pd.DataFrame) -> pd.DataFrame:
    v, d, t = _deg_tri(vt)
    denom = (d * (d - 1)).astype(np.float64)
    cc = np.where(denom > 0, 2.0 * t / np.maximum(denom, 1.0), 0.0)
    return pd.DataFrame({"vertex_id": v, "deg": d, "triangles": t, "cc": cc})


def scan_statistic(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """A7: scan1(v) = deg(v) + triangles(v). Returns (vertex_id, scan).
    Below ``local_threshold`` edges the pass runs in-process."""
    return _with_triangles(
        graph, num_buckets, local_threshold, _scan,
        pa.schema([("vertex_id", I64), ("scan", I64)]),
    )


def topk_scan(graph: Graph, k: int = 10, *, num_buckets: int | None = None):
    """A8: the K highest scan-statistic vertices."""
    return scan_statistic(graph, num_buckets=num_buckets).sort(
        ["scan", "vertex_id"], descending=[True, False]
    ).limit(k)


def clustering_coefficient(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """Local clustering coefficient per vertex:
    ``cc(v) = 2·triangles(v) / (deg(v)·(deg(v)−1))`` over the undirected
    (canonical, cross-etype-deduped) edge set; 0.0 for deg < 2.

    Derived from the same wedge-join dataflow as :func:`triangles` (A5) —
    no new shuffle shape; one extra left join of the degree table against
    the per-vertex triangle counts. Returns (vertex_id, deg, triangles,
    cc); every vertex with at least one undirected edge appears. Below
    ``local_threshold`` edges the pass runs in-process."""
    return _with_triangles(
        graph, num_buckets, local_threshold, _clustering,
        pa.schema(
            [("vertex_id", I64), ("deg", I64), ("triangles", I64),
             ("cc", pa.float64())]
        ),
    )


def _pair_common_neighbors(
    und: ray.data.Dataset, B: int, max_center_degree: int | None
) -> ray.data.Dataset:
    """(u, v, cn, adamic_adar) for every distance-2 pair: full-adjacency
    wedges bucketed by center — deg(center) is the group run-length, so
    no degree join is needed. Shared by link prediction and butterfly
    counting."""

    def wedge_scores(g: pd.DataFrame) -> pd.DataFrame:
        c = g["center"].to_numpy()
        n = g["nbr"].to_numpy()
        order = np.lexsort((n, c))
        c, n = c[order], n[order]
        uniq, counts = np.unique(c, return_counts=True)
        if max_center_degree is not None:
            keep = np.repeat(counts <= max_center_degree, counts)
            c, n = c[keep], n[keep]
            uniq, counts = np.unique(c, return_counts=True)
        u, v, center = pairs_within_groups(c, n)
        degc = counts[np.searchsorted(uniq, center)]
        return pd.DataFrame(
            {
                "u": u,
                "v": v,
                "cn1": np.ones(len(u), dtype=np.int64),
                "aa": 1.0 / np.log(degc),  # deg(center) >= 2 by construction
            }
        )

    return bucket_group_agg(
        bucket_map(
            und.map_batches(
                _both_directions, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["center"],
            wedge_scores,
            num_buckets=B,
        ),
        ["u", "v"],
        {"cn": ("cn1", "sum"), "adamic_adar": ("aa", "sum")},
        num_buckets=B,
    )


def butterfly_count(
    graph: Graph,
    *,
    max_center_degree: int | None = None,
    num_buckets: int | None = None,
) -> int:
    """Global butterfly (4-cycle) count: Σ over vertex pairs of
    C(common_neighbors, 2), halved — each 4-cycle has TWO diagonal pairs
    (u,w) and (x,y), so the pair sum counts every 4-cycle exactly twice.
    The standard bipartite-network cohesion metric (works on any graph; on
    a bipartite one every 4-cycle is a butterfly). Same wedge dataflow as
    link prediction; the final reduction streams one partial per block to
    the driver.

    With ``max_center_degree`` set the count is APPROXIMATE (a lower
    bound): wedges through pruned super-hub centers are skipped, and a
    4-cycle's two diagonal contributions can drop asymmetrically — the
    halved sum is then rounded half-up. With ``max_center_degree=None``
    the count is exact and the even-pair-sum invariant is asserted."""
    B = num_buckets or max(16, graph.num_partitions)
    und = _canonical_undirected(graph).materialize()
    pairs = _pair_common_neighbors(und, B, max_center_degree)

    def partial(b: pa.Table) -> pa.Table:
        cn = b["cn"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"bf": pa.array([int((cn * (cn - 1) // 2).sum())])})

    out = pairs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum("bf")
    total = int(out or 0)
    # Exact mode: the pair sum counts each 4-cycle exactly twice, so it is
    # always even — assert rather than let floor-division hide a bug.
    # With max_center_degree pruning, the two diagonal contributions of a
    # 4-cycle can be dropped asymmetrically (odd total is legitimate);
    # round half-up and document the approximate regime in the docstring.
    if max_center_degree is None:
        if total % 2 != 0:
            raise AssertionError(
                f"exact butterfly pair-sum {total} is odd — "
                "diagonal-pair double-count invariant violated"
            )
        return total // 2
    return (total + 1) // 2


def link_prediction(
    graph: Graph,
    *,
    include_edges: bool = False,
    max_center_degree: int | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Topological link-prediction scores for every vertex pair at
    distance 2: common neighbors, Jaccard, Adamic-Adar. Returns
    (u, v, cn, jaccard, adamic_adar, pref_attach) with u < v — the four
    classic Liben-Nowell/Kleinberg predictors (preferential attachment =
    deg(u)·deg(v), exact int64); by default pairs that are
    ALREADY edges are anti-joined away (set ``include_edges=True`` to
    score them too).

    Dataflow: full (unoriented) adjacency rows bucketed by center — a
    center's degree is its group run-length, so cn and aa =
    Σ 1/ln(deg(center)) need NO degree join; one bucketed sum per pair;
    Jaccard = cn/(deg_u+deg_v−cn) attaches the two endpoint degrees via
    the same broadcast-or-join split as the triangle orientation.

    A degree-d hub center emits d(d−1)/2 candidate pairs — quadratic and
    inherent to the definition. ``max_center_degree`` skips super-hub
    centers (their 1/ln(deg) contribution is near-noise for ranking);
    leave it None for exact semantics (the oracle queries do)."""
    B = num_buckets or max(16, graph.num_partitions)
    und = _canonical_undirected(graph).materialize()
    deg = _degree_table(graph, und)
    pairs = _pair_common_neighbors(und, B, max_center_degree)

    I64, F64 = pa.int64(), pa.float64()
    psch = [("u", I64), ("v", I64), ("cn", I64), ("adamic_adar", F64)]
    if not include_edges:
        marker = und.map_batches(
            lambda b: b.append_column(
                "is_edge", pa.array(np.ones(b.num_rows, dtype=np.int8))
            ),
            batch_format="pyarrow",
        )
        pairs = bucket_hash_join(
            pairs, marker, ["u", "v"], right_on=["lo", "hi"], how="left",
            num_buckets=B,
            left_schema=pa.schema(psch),
            right_schema=pa.schema([("lo", I64), ("hi", I64), ("is_edge", pa.int8())]),
        )

        def drop_edges(df: pd.DataFrame):
            out = df[df["is_edge"].isna()].drop(columns=["lo", "hi", "is_edge"])
            if not len(out):
                return pa.table(
                    {c: pa.array([], type=t) for c, t in psch}
                )
            for col in ("u", "v", "cn"):
                out[col] = out[col].astype(np.int64)
            return out

        pairs = pairs.map_batches(drop_edges, batch_format="pandas")

    if graph.meta.num_vertices <= BROADCAST_VERTEX_LIMIT:
        degree = _degree_lookup(deg)

        def jac_bcast(b: pa.Table) -> pa.Table:
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            cn = b["cn"].to_numpy(zero_copy_only=False)
            du, dv = degree(u, v)
            return b.append_column(
                "jaccard", pa.array(cn / (du + dv - cn).astype(np.float64))
            ).append_column(
                "pref_attach", pa.array((du * dv).astype(np.int64))
            ).select(["u", "v", "cn", "jaccard", "adamic_adar",
                      "pref_attach"])

        return pairs.map_batches(
            jac_bcast, batch_format="pyarrow", zero_copy_batch=True
        )

    dsch = pa.schema([("vertex_id", I64), ("deg", I64)])
    j = bucket_hash_join(
        pairs, deg, ["u"], right_on=["vertex_id"], num_buckets=B,
        left_schema=pa.schema(psch), right_schema=dsch,
    )
    j = j.map_batches(
        lambda b: b.rename_columns(
            ["deg_u" if c == "deg" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    j = bucket_hash_join(
        j, deg, ["v"], right_on=["vertex_id"], num_buckets=B,
        left_schema=pa.schema(psch + [("deg_u", I64)]), right_schema=dsch,
    )

    def jac(b: pa.Table) -> pa.Table:
        cn = b["cn"].to_numpy(zero_copy_only=False)
        du = b["deg_u"].to_numpy(zero_copy_only=False)
        dv = b["deg"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "jaccard", pa.array(cn / (du + dv - cn).astype(np.float64))
        ).append_column(
            "pref_attach", pa.array((du * dv).astype(np.int64))
        ).select(["u", "v", "cn", "jaccard", "adamic_adar", "pref_attach"])

    return j.map_batches(jac, batch_format="pyarrow")


def transitivity(graph: Graph, *, num_buckets: int | None = None) -> float:
    """Global transitivity (graph clustering coefficient):
    ``3·triangles / wedges`` with wedges = Σ_v deg(v)·(deg(v)−1)/2.
    0.0 for wedge-free graphs."""
    B = num_buckets or max(16, graph.num_partitions)
    und = _canonical_undirected(graph).materialize()
    deg = _degree_table(graph, und)

    def wedge_counts(b: pa.Table) -> pa.Table:
        d = b["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"wedges": pa.array([int(np.sum(d * (d - 1) // 2))])})

    wedges = (
        deg.map_batches(wedge_counts, batch_format="pyarrow", zero_copy_batch=True)
        .sum("wedges")
    )
    if not wedges:
        return 0.0
    tri3 = 3 * _closed_wedges(
        _oriented_edges(graph, B), graph.meta.num_edges, B
    ).count()
    return tri3 / wedges


def _local_two_hop(lo: np.ndarray, hi: np.ndarray) -> pd.DataFrame:
    """In-process mirror of the two_hop_sizes dataflow (identical rule):
    wedge pairs + direct edges, lexsort dedup, endpoint count fold."""
    center = np.concatenate([lo, hi])
    leaf = np.concatenate([hi, lo])
    order = np.lexsort((leaf, center))
    a, b, _ = pairs_within_groups(center[order], leaf[order])
    A = np.concatenate([a, lo])
    B_ = np.concatenate([b, hi])
    o2 = np.lexsort((B_, A))
    A, B_ = A[o2], B_[o2]
    keep = np.ones(len(A), dtype=bool)
    keep[1:] = (A[1:] != A[:-1]) | (B_[1:] != B_[:-1])
    A, B_ = A[keep], B_[keep]
    vid, n2 = np.unique(np.concatenate([A, B_]), return_counts=True)
    dvid, deg = np.unique(np.concatenate([lo, hi]), return_counts=True)
    # every edge is also a distinct pair, so vid == dvid elementwise
    return pd.DataFrame(
        {
            "vertex_id": vid.astype(np.int64),
            "n2": n2.astype(np.int64),
            "n1": deg.astype(np.int64),
        }
    )


def two_hop_sizes(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """Distinct 2-hop neighborhood size per vertex: ``n1`` = |N(v)| and
    ``n2`` = |{u ≠ v : dist(v,u) ≤ 2}| on the undirected (canonical,
    cross-etype-deduped) edge set. The local ball-size statistic behind
    friend-of-friend features and HyperBall's r=2 truth.

    Dataflow (wedge-shaped, same cost envelope as clustering_coefficient):
    adjacency grouped by CENTER vertex emits every in-group pair — all
    (a, b) with a common neighbor — vectorized via pairs_within_groups;
    direct edges union in; ONE bucket dedup on (lo, hi) makes pairs
    distinct; per-vertex counts fold both endpoints. Pair volume is
    Σ_m deg(m)², so super-hub centers dominate — the same split/salt
    limits as the wedge family apply (SURVEY §2.2 A7). Below
    ``local_threshold`` edges the identical wedge pass runs in-process
    (the wedge-family hybrid rule)."""
    schema = pa.schema([("vertex_id", I64), ("n2", I64), ("n1", I64)])
    if _is_local(graph, local_threshold):
        return _frame_ds(_local_two_hop(*_local_und(graph)), schema)
    B = num_buckets or max(16, graph.num_partitions)
    und = _canonical_undirected(graph).materialize()

    adj = und.map_batches(
        _both_directions, batch_format="pyarrow", zero_copy_batch=True
    )

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["center", "nbr"], kind="mergesort")
        a, b2, _ = pairs_within_groups(
            d["center"].to_numpy(), d["nbr"].to_numpy()
        )
        return pd.DataFrame({"lo": a, "hi": b2})

    pairs2 = bucket_map(adj, ["center"], wedge_pairs, num_buckets=B)
    allpairs = pairs2.union(und)
    distinct = bucket_group_agg(allpairs, ["lo", "hi"], None, num_buckets=B)

    def per_vertex(b: pa.Table) -> pa.Table:
        lo = b["lo"].to_numpy(zero_copy_only=False)
        hi = b["hi"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vertex_id": np.concatenate([lo, hi]),
                "n2": np.ones(2 * len(lo), dtype=np.int64),
            }
        )

    n2 = bucket_group_agg(
        distinct.map_batches(per_vertex, batch_format="pyarrow", zero_copy_batch=True),
        ["vertex_id"],
        {"n2": ("n2", "sum")},
        num_buckets=B,
    )
    deg = _deg_from_und(und)
    out = bucket_hash_join(
        n2, deg.map_batches(
            lambda b: b.rename_columns(
                ["vertex_id", "n1"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        on=["vertex_id"],
        num_buckets=B,
        left_schema=schema.remove(2), right_schema=schema.remove(1),
    )
    return _typed(out, schema)


def bipartite_project(
    edges: ray.data.Dataset,
    *,
    left_col: str,
    right_col: str,
    max_center_degree: int | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """One-mode projection of a bipartite edge table onto its LEFT side:
    for every pair of left vertices sharing ≥ 1 right neighbor, the
    co-occurrence count ``cn`` (= # distinct shared right vertices) plus
    the degree-normalized ``jaccard = cn/(du+dv−cn)`` and ``cosine =
    cn/√(du·dv)`` similarity weights (d = # distinct right neighbors).
    The standard co-occurrence-graph construction (user×item → item
    graph, doc×term → term graph). Returns (u, v, cn, jaccard, cosine)
    with u < v; u/v keep the left column's type (int64 or string).

    Dataflow: one bucket dedup of (left, right), wedges bucketed by the
    RIGHT vertex (the center) with fully vectorized in-bucket pair
    expansion (`pairs_within_groups` on factorized codes — no Python per
    center), one bucketed sum per pair, one degree aggregate + two hash
    joins for the normalized weights. A degree-d center emits d(d−1)/2
    pairs — quadratic and inherent to the definition; cap super-hub
    centers with ``max_center_degree`` (weights become lower bounds,
    the usual practice for web-scale co-occurrence)."""
    from flashray.joins import _arrow_schema

    proj = edges.map_batches(
        lambda b: b.select([left_col, right_col]).replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    dist = bucket_group_agg(
        proj, [left_col, right_col], None, num_buckets=num_buckets
    ).materialize()
    sch = _arrow_schema(dist)
    ltype = sch.field(left_col).type
    lt = pa.string() if pa.types.is_string(ltype) else pa.int64()
    B = num_buckets

    pair_empty = pa.table(
        {
            "u": pa.array([], lt),
            "v": pa.array([], lt),
            "cn1": pa.array([], pa.int64()),
        }
    ).to_pandas()

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        cvals = g[right_col].to_numpy()
        lvals = g[left_col].to_numpy()
        cu, ccodes = np.unique(cvals, return_inverse=True)
        lu, lcodes = np.unique(lvals, return_inverse=True)
        order = np.lexsort((lcodes, ccodes))
        ccodes, lcodes = ccodes[order], lcodes[order]
        if max_center_degree is not None:
            _, counts = np.unique(ccodes, return_counts=True)
            keep = np.repeat(counts <= max_center_degree, counts)
            ccodes, lcodes = ccodes[keep], lcodes[keep]
        u, v, _ = pairs_within_groups(ccodes, lcodes)
        if not len(u):
            return pair_empty  # typed empty: untyped object columns
            # poison the downstream block unify / key hash
        out = pd.DataFrame({"u": lu[u], "v": lu[v]})
        out["cn1"] = np.ones(len(out), dtype=np.int64)
        return out

    pairs = bucket_group_agg(
        bucket_map(dist, [right_col], wedge_pairs, num_buckets=B),
        ["u", "v"],
        {"cn": ("cn1", "sum")},
        num_buckets=B,
    )

    deg = bucket_group_agg(
        dist, [left_col], {"deg": (right_col, "size")}, num_buckets=B
    ).map_batches(
        lambda df: df.rename(columns={left_col: "vx"}), batch_format="pandas"
    )
    dsch = pa.schema([("vx", lt), ("deg", pa.int64())])
    psch = pa.schema([("u", lt), ("v", lt), ("cn", pa.int64())])
    j = bucket_hash_join(
        pairs, deg, ["u"], right_on=["vx"],
        num_buckets=B, left_schema=psch, right_schema=dsch,
        suffixes=("", "_u"),
    ).map_batches(
        lambda df: df.rename(columns={"deg": "du"}), batch_format="pandas"
    )
    jsch = pa.schema(
        [("u", lt), ("v", lt), ("cn", pa.int64()), ("du", pa.int64())]
    )
    j = bucket_hash_join(
        j, deg, ["v"], right_on=["vx"],
        num_buckets=B, left_schema=jsch, right_schema=dsch,
    )

    def weights(df: pd.DataFrame) -> pd.DataFrame:
        cn = df["cn"].to_numpy(dtype=np.int64)
        du = df["du"].to_numpy(dtype=np.int64)
        dv = df["deg"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "u": df["u"].to_numpy(),
                "v": df["v"].to_numpy(),
                "cn": cn,
                "jaccard": cn / (du + dv - cn),
                "cosine": cn / np.sqrt(du.astype(np.float64) * dv),
            }
        )

    return j.map_batches(weights, batch_format="pandas")


def triangle_count_sampled(
    graph: Graph,
    *,
    p: float = 0.1,
    salt: str = "tri",
    hash_mode: str = "sha",
    num_buckets: int | None = None,
) -> dict:
    """DOULION approximate triangle count (Tsourakakis et al., KDD 2009):
    keep each canonical undirected edge independently with probability
    ``p`` — here a DETERMINISTIC hash coin, ``sha64(salt|lo|hi) <
    ⌊p·2⁶⁴⌋`` (exact integer compare, the `hash_split` convention: no
    float boundary, bit-reproducible across runs/partitionings, and a
    SQL replay samples the identical edge set) — count triangles on the
    sample with the SAME degree-oriented wedge dataflow, and scale by
    1/p³ (each surviving triangle needs its 3 edges kept). The
    approximate scale path for the wedge family: expected wedge work
    drops ~p², variance per the paper. Returns ``{"estimate",
    "sampled_triangles", "p", "threshold"}``; ``threshold`` is the
    integer the SQL replay must reuse verbatim.

    ``hash_mode``: 'sha' (default) is the repo-wide SQL-parity coin but
    runs one hashlib call per edge — at 100-TB edge counts use
    'splitmix' (the `walks.py` dual-mode convention): the coin becomes
    the vectorized ``splitmix64(splitmix64(crc32(salt)^lo)^hi)``, same
    statistics, same determinism, no per-row Python."""
    from flashray.datapipe.sketches import _sha_u64
    from flashray.ids import _splitmix64

    B = num_buckets or max(16, graph.num_partitions)
    if not 0.0 < p <= 1.0:
        raise ValueError("need 0 < p <= 1")
    if hash_mode not in ("sha", "splitmix"):
        raise ValueError("hash_mode must be 'sha' or 'splitmix'")
    thr = np.uint64(int(p * float(1 << 64))) if p < 1.0 else np.uint64(
        (1 << 64) - 1
    )
    import zlib

    salt_u64 = np.uint64(zlib.crc32(salt.encode()))

    def samp(b: pa.Table) -> pa.Table:
        lo = b["lo"].to_numpy(zero_copy_only=False)
        hi = b["hi"].to_numpy(zero_copy_only=False)
        if hash_mode == "sha":
            h = _sha_u64([f"{salt}|{a}|{c}" for a, c in zip(lo, hi)])
        else:
            with np.errstate(over="ignore"):
                h = _splitmix64(
                    _splitmix64(salt_u64 ^ lo.astype(np.uint64))
                    ^ hi.astype(np.uint64)
                )
        m = h < thr if p < 1.0 else np.ones(len(h), dtype=bool)
        return pa.table({"lo": lo[m], "hi": hi[m]})

    und = _canonical_undirected(graph)
    s = und.map_batches(
        samp, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    oriented = _orient_und(
        s, _deg_from_und(s), graph.meta.num_vertices, B
    ).materialize()
    cnt = int(_closed_wedges(oriented, s.count(), B).count())
    return {
        "estimate": cnt / (p ** 3),
        "sampled_triangles": cnt,
        "p": float(p),
        "threshold": int(thr),
    }


# ---------------------------------------------------------------------------
# 4-clique counting (k-clique k=4 on the triangle machinery)
# ---------------------------------------------------------------------------
#
# A 4-clique {p,q,r,s} in (deg,id) orientation p<q<r<s contains exactly two
# triangles whose CLOSING edge is (r,s): (p;r,s) and (q;r,s) — their centers
# p,q are adjacent. No other closing edge of the clique carries two of its
# centers, so: 4-cliques == adjacent center pairs among triangles grouped by
# closing edge, each clique found EXACTLY once. This reuses the wedge
# dataflow wholesale: one extra groupby on the closing edge + one extra
# bucketed semi-join against the oriented edge set — no new shuffle shapes.


def _center_pair_codes(
    w1: np.ndarray, w2: np.ndarray, c: np.ndarray
) -> pd.DataFrame:
    """Pairs of triangle centers sharing a closing edge (vectorized).

    Input rows are closed wedges (w1, w2, center); output rows are
    candidate 4-cliques (lo, hi, e1, e2) where (lo, hi) = the center pair
    (id-canonical, pending the adjacency probe) and (e1, e2) = the shared
    closing edge. Centers are distinct per closing edge (triangles are
    unique), so pairs_within_groups emits each unordered pair once."""
    if len(w1) == 0:
        z = np.zeros(0, dtype=np.int64)
        return pd.DataFrame({"lo": z, "hi": z, "e1": z, "e2": z})
    order = np.lexsort((c, w2, w1))
    w1s, w2s, cs = w1[order], w2[order], c[order]
    change = np.empty(len(w1s), dtype=bool)
    change[0] = True
    change[1:] = (w1s[1:] != w1s[:-1]) | (w2s[1:] != w2s[:-1])
    code = np.cumsum(change) - 1
    c1, c2, codep = pairs_within_groups(code, cs)
    starts = np.flatnonzero(change)
    return pd.DataFrame(
        {
            "lo": c1,  # ascending within group -> already id-canonical
            "hi": c2,
            "e1": w1s[starts][codep],
            "e2": w2s[starts][codep],
        }
    )


def _local_four_clique_counts(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """In-process mirror of the distributed 4-clique dataflow (same
    kernel, same center-pair rule, same adjacency probe). Returns
    (vertex_id, cliques4)."""
    cand = _center_pair_codes(*_local_closed_wedges(lo, hi))
    ids = np.unique(np.concatenate([lo, hi]))
    _, adj = _lookup(
        np.sort(_pair_keys(ids, lo, hi)),
        _pair_keys(ids, cand["lo"].to_numpy(), cand["hi"].to_numpy()),
    )
    return _vertex_counts(
        *(cand[c].to_numpy()[adj] for c in ("lo", "hi", "e1", "e2"))
    )


def four_cliques(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    local_threshold: int | None = LOCAL_EDGE_THRESHOLD,
) -> ray.data.Dataset:
    """Per-vertex 4-clique participation counts: Dataset
    (vertex_id, cliques4); vertices in no 4-clique are absent.

    Distributed path (reference parity: SURVEY.md §2.2 A5's
    neighborhood-intersection family, extended one clique order up):
    oriented edges -> closed wedges (the triangle dataflow, reused) ->
    groupby closing edge -> vectorized center-pair expansion -> one
    bucketed hash-join against the oriented edge set. Each 4-clique
    survives exactly once (see module note above), so per-vertex counts
    are a flat member expansion + bucketed sum. Cost beyond triangles:
    one groupby shuffle of the triangle list + one bucket join — both
    O(#triangles), the standard k-clique-counting lower envelope."""
    if _is_local(graph, local_threshold):
        return _table_ds(
            _CLIQUES, *_local_four_clique_counts(*_local_und(graph))
        )
    B = num_buckets or max(16, graph.num_partitions)
    oriented = _oriented_edges(graph, B)
    closed = _closed_wedges(oriented, graph.meta.num_edges, B)

    def center_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return _center_pair_codes(
            g["w1"].to_numpy(dtype=np.int64),
            g["w2"].to_numpy(dtype=np.int64),
            g["center"].to_numpy(dtype=np.int64),
        )

    cand = bucket_map(closed, ["w1", "w2"], center_pairs, num_buckets=B)

    cliq = bucket_hash_join(
        cand, _closing_keys(oriented), ["lo", "hi"], right_on=["w1", "w2"],
        num_buckets=B,
        left_schema=pa.schema(
            [("lo", I64), ("hi", I64), ("e1", I64), ("e2", I64)]
        ),
        right_schema=_CLOSING,
    )

    def to_members(b: pa.Table) -> pa.Table:
        cols = [
            b[c].to_numpy(zero_copy_only=False) for c in ("lo", "hi", "e1", "e2")
        ]
        m = np.concatenate(cols)
        return pa.table(
            {
                "vertex_id": m,
                "cliques4": np.ones(len(m), dtype=np.int64),
            }
        )

    return _typed(
        bucket_group_agg(
            cliq.map_batches(
                to_members, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["vertex_id"],
            {"cliques4": ("cliques4", "sum")},
        ),
        _CLIQUES,
    )


def four_clique_count(graph: Graph, **kw) -> int:
    """Total number of 4-cliques (each clique has exactly 4 members)."""
    df = four_cliques(graph, **kw).to_pandas()
    return int(df["cliques4"].sum()) // 4 if len(df) else 0


def incremental_triangle_count(
    graph_new: Graph,
    delta_edges: ray.data.Dataset,
    *,
    num_buckets: int | None = None,
) -> int:
    """Triangles CREATED by an edge ingest — the incremental-analytics
    companion to the PageRank/WCC warm starts: after ``add_edges``
    merged ``delta_edges`` into ``graph_new``, the new-triangle count is
    the inclusion–exclusion  ``A − B + C``  over how many delta edges
    each new triangle uses (k ∈ {1,2,3}):

    - ``A`` = Σ over delta edges of their triangle support in the FULL
      graph (counts a k-delta triangle k times) — one
      :func:`edge_support` pass + a semi-join on the delta set;
    - ``B`` = wedge pairs of two delta edges sharing a vertex whose
      outer pair is a FULL-graph edge (counts C(k,2) times) — one
      delta-wedge expansion + a semi-join against the canonical edge
      set;
    - ``C`` = triangles entirely inside the delta (k=3) — the SAME
      wedge expansion semi-joined against the delta itself, /3.

    Then A − B + C = Σ N_k·(k − C(k,2)) + N₃ = N₁+N₂+N₃. Cost scales
    with the DELTA's wedges plus one support pass — not with the old
    graph's triangle count. ``delta_edges`` (src, dst rows, any
    direction) must be disjoint from the pre-ingest edge set; rows are
    canonicalized and deduped here."""
    from flashray.joins import bucket_semi_join

    B = num_buckets or 64

    def canon_batch(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        keep = lo < hi
        return pa.table(
            {"lo": pa.array(lo[keep]), "hi": pa.array(hi[keep])}
        )

    canon = bucket_group_agg(
        delta_edges.map_batches(canon_batch, batch_format="pyarrow"),
        ["lo", "hi"],
        None,
        num_buckets=B,
    ).materialize()

    # A: full-graph support of every delta edge
    sup = edge_support(graph_new, num_buckets=B, include_zero=False)
    a_rows = bucket_semi_join(
        sup, canon, ["lo", "hi"], num_buckets=B,
        left_schema=pa.schema(
            [("lo", I64), ("hi", I64), ("support", I64)]
        ),
    )
    a_parts = a_rows.map_batches(
        lambda df: pd.DataFrame(
            {"s": [int(df["support"].sum())]}
        ),
        batch_format="pandas",
    ).to_pandas()
    A = int(a_parts["s"].sum()) if len(a_parts) else 0

    # delta wedges: center c with two delta neighbors n1 < n2
    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["center", "nbr"])
        codes = pd.factorize(g["center"], sort=False)[0]
        n1, n2, _ = pairs_within_groups(
            codes.astype(np.int64), g["nbr"].to_numpy(dtype=np.int64)
        )
        return pd.DataFrame(
            {"lo": pd.Series(n1, dtype=np.int64),
             "hi": pd.Series(n2, dtype=np.int64)}
        )

    pairs = bucket_map(
        canon.map_batches(_both_directions, batch_format="pyarrow"),
        ["center"],
        wedge_pairs,
        num_buckets=B,
    ).materialize()

    B_count = bucket_semi_join(
        pairs, _canonical_undirected(graph_new), ["lo", "hi"],
        num_buckets=B, left_schema=_EDGES,
    ).count()
    # NOTE: semi join dedups left rows? It must NOT here — two distinct
    # wedge centers produce the same (n1, n2) pair and both must count.
    C3 = bucket_semi_join(
        pairs, canon, ["lo", "hi"], num_buckets=B, left_schema=_EDGES
    ).count()
    assert C3 % 3 == 0, C3
    return A - int(B_count) + C3 // 3
