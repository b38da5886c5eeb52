"""Connected components in logarithmic rounds (large-star / small-star).

Alternative WCC backend (SURVEY.md §2.2 A3; PAPERS.md — *Finding connected
components in MapReduce in logarithmic rounds*, ICDE 2013): a pure Ray Data
dataflow with no actor state, converging in O(log n) rounds regardless of
graph diameter — the right backend when the diameter is huge and the
superstep engine's min-label propagation (O(diameter) supersteps) would
crawl.

Per round over the undirected edge multiset:

- **large-star(u)**: m = min(Γ(u) ∪ {u}); for every neighbor v > u emit
  (v, m) — strictly-larger neighbors re-attach to the local minimum.
- **small-star(u)** (edges oriented larger→smaller): m = min(N(u) ∪ {u});
  emit (x, m) for x ∈ N(u) ∪ {u}, x ≠ m.

Both phases are bucketed ``groupby`` + fully vectorized in-group numpy
(sort + reduceat minima; no per-vertex Python). Each round materializes
through ``joins.coalesce`` — an unmaterialized round chain would re-execute
all prior rounds on every consumption. Convergence = 64-bit edge-multiset checksum stable.

The final edge set is a star forest: every surviving edge is
(child, component-min); roots label themselves.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Min, Sum

from flashray.build import Graph
from flashray.ids import _splitmix64
from flashray.joins import bucket_group_agg, bucket_map, coalesce


def _canonical_edges(graph: Graph) -> ray.data.Dataset:
    edges = graph.edges_dataset(columns=["src", "dst"])

    def canon(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        m = src != dst
        return pa.table(
            {"a": np.maximum(src[m], dst[m]), "b": np.minimum(src[m], dst[m])}
        )

    out = edges.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
    return bucket_group_agg(out, ["a", "b"], None)


def _star_round(
    edges: ray.data.Dataset, *, large: bool, num_buckets: int, dedup: bool = True
) -> ray.data.Dataset:
    """One large-star or small-star phase. Input/output: unordered edges
    as (a, b) with a > b, deduped."""

    def expand(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        if large:
            # both orientations: every endpoint sees its full neighborhood
            u = np.concatenate([a, b])
            v = np.concatenate([b, a])
        else:
            # larger-first orientation only
            u, v = a, b
        return pa.table({"u": u, "v": v})

    def star(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        # min neighbor per u (v sorted within group -> first element), then
        # m = min(min_v, u)
        m_per_group = np.minimum(v[starts], u[starts])
        gidx = np.cumsum(np.r_[False, u[1:] != u[:-1]])
        m = m_per_group[gidx]  # per-row local minimum of the row's u
        if large:
            keep = v > u
            out_a, out_b = v[keep], m[keep]
        else:
            # emit (x, m) for x in N(u) ∪ {u}, x != m
            xa = np.concatenate([v, u[starts]])
            xb = np.concatenate([m, m_per_group])
            keep = xa != xb
            out_a, out_b = xa[keep], xb[keep]
        return pd.DataFrame({"a": out_a, "b": out_b})

    out = bucket_map(
        edges.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True),
        ["u"],
        star,
        num_buckets=num_buckets,
    )
    if dedup:
        return bucket_group_agg(out, ["a", "b"], None)
    return out


def _checksum(edges: ray.data.Dataset) -> tuple[int, int, int]:
    """Order-insensitive multiset checksum. The per-row hash is split into
    32-bit halves so the Sum aggregate never overflows int64 (an int64
    overflow makes Ray mix numpy-wrapped partials with Python bigints
    depending on block layout — a NONdeterministic checksum). Exact up to
    ~2^31 edges; beyond that this backend's convergence check would need a
    modular tree-sum."""

    def h(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bb = b["b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            x = _splitmix64(a * np.uint64(0x9E3779B97F4A7C15) ^ bb)
        return pa.table(
            {
                "h_hi": (x >> np.uint64(32)).astype(np.int64),
                "h_lo": (x & np.uint64(0xFFFFFFFF)).astype(np.int64),
                "n": np.ones(len(a), dtype=np.int64),
            }
        )

    agg = edges.map_batches(h, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("h_hi", alias_name="h_hi"),
        Sum("h_lo", alias_name="h_lo"),
        Sum("n", alias_name="n"),
    )
    return (int(agg["h_hi"] or 0), int(agg["h_lo"] or 0), int(agg["n"] or 0))


def _local_star_forest(pdf: pd.DataFrame) -> pd.DataFrame:
    """In-process min-root union-find over a small edge set: returns the
    star forest (a = non-root member, b = component min) — exactly the
    large/small-star fixed point, so the distributed finish stage
    consumes it unchanged."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pdf["a"].astype(int), pdf["b"].astype(int)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = [(v, find(v)) for v in parent]
    out = pd.DataFrame(
        [(v, r) for v, r in rows if v != r], columns=["a", "b"]
    )
    return out.astype({"a": "int64", "b": "int64"})


def star_forest(
    edges: ray.data.Dataset,
    *,
    num_buckets: int = 16,
    max_rounds: int = 64,
    local_threshold: int | None = 500_000,
) -> ray.data.Dataset:
    """Large/small-star rounds to the fixed point over an (a, b) a>b
    deduped edge Dataset — the reusable core of :func:`wcc_mapreduce`
    (also consumed by ``algorithms.percolation_curve`` on filtered edge
    sets). Returns the star forest: (a = non-root member, b = its
    component's min id); roots label themselves implicitly."""
    prev = None
    for _ in range(max_rounds):
        if local_threshold and edges.count() <= local_threshold:
            pdf = edges.to_pandas()
            forest = _local_star_forest(pdf)
            if len(forest):
                return ray.data.from_pandas(forest)
            return ray.data.from_arrow(
                pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                    }
                )
            )
        # dedup only once per round (after small-star): duplicate edges do
        # not change star minima, and each skipped dedup saves a shuffle
        mid = _star_round(edges, large=True, num_buckets=num_buckets,
                          dedup=False)
        edges = coalesce(
            _star_round(mid, large=False, num_buckets=num_buckets),
            num_buckets,
        )
        sig = _checksum(edges)
        if sig == prev:
            break
        prev = sig
    return edges


def wcc_mapreduce(
    graph: Graph,
    *,
    num_buckets: int | None = None,
    max_rounds: int = 64,
    out_dir: str | None = None,
    local_threshold: int | None = 500_000,
):
    """WCC labels (min member id per component) in O(log n) rounds,
    matching ``algorithms.wcc`` semantics. The finish is a distributed
    min-merge (no driver-side vertex materialization): star-forest child
    labels unioned with self-labels, one bucketed aggregate — all int64
    end-to-end (a pandas left-join would float 63-bit labels through NaN).
    Returns a sorted pandas DataFrame by default; pass ``out_dir=`` to
    write partitioned parquet and get a Dataset back (the path for huge
    graphs).

    ``local_threshold``: hybrid tail (the duplicate_groups pattern).
    Each star round is ~4 all-to-alls of pure latency once the live edge
    set is small; when the current set fits one worker the remaining
    rounds collapse into an in-process min-root union-find producing the
    same star-forest fixed point, which the distributed finish stage
    consumes unchanged. 0/None forces star rounds all the way down."""
    B = num_buckets or max(16, graph.num_partitions)
    edges = star_forest(
        _canonical_edges(graph).materialize(),
        num_buckets=B,
        max_rounds=max_rounds,
        local_threshold=local_threshold,
    )

    labels = bucket_group_agg(edges, ["a"], {"value": ("b", "min")})

    def self_label(b: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex_id": b["vertex_id"], "value": b["vertex_id"]}
        )

    def child_label(b: pa.Table) -> pa.Table:
        return pa.table({"vertex_id": b["a"], "value": b["value"]})

    both = (
        graph.vertices_dataset(columns=["vertex_id"])
        .map_batches(self_label, batch_format="pyarrow", zero_copy_batch=True)
        .union(
            labels.map_batches(
                child_label, batch_format="pyarrow", zero_copy_batch=True
            )
        )
    )
    # child labels are component minima (≤ every member id), so a plain
    # per-vertex MIN yields the component label for children and the own
    # id for roots
    final = bucket_group_agg(both, ["vertex_id"], {"value": ("value", "min")})
    if out_dir is not None:
        from flashray.build import _strip_meta

        _strip_meta(final).write_parquet(out_dir, mode="overwrite")
        return ray.data.read_parquet(out_dir)
    return final.to_pandas().sort_values("vertex_id").reset_index(drop=True)
