"""Graph-level utility operators (FGlib.h surface beyond the algorithms).

- :func:`subgraph_edges` / :func:`induced_subgraph` — A16
  (FGlib.h — ``fetch_subgraph``): induced subgraph on a vertex set via a
  broadcast semi-join (``ray.put`` the set once, vectorized ``np.isin``
  per batch — no shuffle).
- :func:`window_edges` / :func:`window_graph` — A14 equivalence
  (libgraph-algs/sstsg.cpp consumes timestamped edges): the edge table
  carries ``ts``, so any algorithm over a time window is a pushed-down
  row-filter + rebuild, compositionally (SURVEY.md §2.2 A14).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from flashray.build import Graph, build_graph


def subgraph_edges(graph: Graph, vertex_ids) -> ray.data.Dataset:
    """Edges whose BOTH endpoints are in ``vertex_ids`` (induced subgraph).
    The vertex set is broadcast once through the object store."""
    vs = np.sort(np.asarray(list(vertex_ids), dtype=np.int64))
    ref = ray.put(vs)

    def keep(b: pa.Table) -> pa.Table:
        s = ray.get(ref)
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        m = np.isin(src, s) & np.isin(dst, s)
        return b.filter(pa.array(m))

    return graph.edges_dataset(
        columns=["src", "dst", "etype", "weight", "ts"]
    ).map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def induced_subgraph(
    graph: Graph, vertex_ids, path: str, **build_kwargs
) -> Graph:
    """Materialize the induced subgraph as a new partitioned graph."""
    build_kwargs.setdefault("num_partitions", graph.num_partitions)
    build_kwargs.setdefault("dedup", False)  # already deduped
    return build_graph(subgraph_edges(graph, vertex_ids), path, **build_kwargs)


def egonet_edges(
    graph: Graph, seeds, hops: int, *, actor_cpus=None
) -> ray.data.Dataset:
    """Induced subgraph on every vertex within ``hops`` out-steps of any
    seed (ego-net sampling — the neighborhood-extraction primitive for
    graph ML minibatching). One multi-source BFS sweep
    (:func:`algorithms.landmark_distances`: all seeds flood
    simultaneously as vector state) bounds the distance, then the
    reachable vertex set broadcasts through :func:`subgraph_edges`.
    The vertex set is ego-local by construction — the broadcast stays
    small even on huge graphs (raise ``hops`` with care)."""
    from flashray.csr import INT_IDENTITY
    from flashray.engine import run_program
    from flashray.programs import MultiSourceBFS

    seeds = [int(s) for s in seeds]
    prog = MultiSourceBFS(seeds)
    # hop-capped runs need SYNCHRONOUS supersteps: with stale mirrors a
    # distance crossing a split vertex's mirror edges arrives one superstep
    # late, so a vertex genuinely within ``hops`` could be missed when the
    # iteration cap cuts the run. Force the two-phase same-round mirror
    # path — exactness matters more than the fused-round saving on an
    # ego-local workload
    prog.stale_mirror_safe = False
    # each BFS superstep advances one hop: capping max_iters at ``hops``
    # bounds BOTH the work (O(ball), not O(graph)) and the distances —
    # every reached vertex is within ``hops`` by construction, so
    # "reached" is the whole membership test
    df = run_program(
        graph, prog, lambda m: m["changed"] == 0, max_iters=int(hops),
        actor_cpus=actor_cpus,
    )
    mat = np.stack(df["value"].to_numpy())
    verts = df.loc[(mat < INT_IDENTITY).any(axis=1), "vertex_id"].to_numpy()
    return subgraph_edges(graph, verts)


def window_edges(graph: Graph, t0, t1) -> ray.data.Dataset:
    """Edges with ``t0 <= ts < t1`` (row-group filter pushed to the read)."""
    lo = pa.scalar(np.datetime64(t0, "us"), type=pa.timestamp("us"))
    hi = pa.scalar(np.datetime64(t1, "us"), type=pa.timestamp("us"))
    return ray.data.read_parquet(
        f"{graph.path}/edges",
        columns=["src", "dst", "etype", "weight", "ts"],
        filter=(pc.field("ts") >= lo) & (pc.field("ts") < hi),
    )


def window_graph(graph: Graph, t0, t1, path: str, **build_kwargs) -> Graph:
    """Materialize the time-windowed edge set as a new partitioned graph —
    run any algorithm on it for the reference's time-series capability."""
    build_kwargs.setdefault("num_partitions", graph.num_partitions)
    build_kwargs.setdefault("dedup", False)
    return build_graph(window_edges(graph, t0, t1), path, **build_kwargs)


def neighbor_sample(
    graph: Graph,
    seeds,
    fanout,
    *,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """GraphSAGE-style fanout neighbor sampling (Hamilton et al. 2017,
    *Inductive Representation Learning on Large Graphs* — the minibatch
    neighborhood-prep operator graph-ML training pipelines run right
    after :func:`egonet_edges`): hop ``h`` keeps, for every frontier
    vertex, its ``fanout[h-1]`` DISTINCT out-neighbors with the
    smallest ``sha256('ns:' || src || ':' || dst)`` priorities (dst
    tiebreak) — the deterministic stand-in for uniform sampling,
    identical across runs, input partitionings, and the SQL replay
    (the repo-wide sha oracle convention, programs.MIS style). Returns
    a Dataset (hop, src, dst); the hop-h frontier is the distinct dst
    set sampled at hop h-1 (hop 0 = seeds). Vertices may re-enter
    later frontiers — standard GraphSAGE semantics.

    Partitioning assumption (documented per SURVEY §2.5): the frontier
    is minibatch-sized by design (≤ |seeds|·Πfanout vertices) and
    broadcasts once per hop via ``ray.put``; each hop is ONE
    column-pruned edge scan + vectorized ``np.isin`` filter — the edge
    table is never shuffled — plus a candidates-only distinct +
    top-k-per-src bucket pass (map-side pruned to k rows per src per
    batch by ``topk_per_group``)."""
    import pandas as pd

    from flashray.datapipe.sketches import _sha_u64
    from flashray.joins import bucket_group_agg, topk_per_group

    fanout = [int(k) for k in fanout]
    if not fanout or any(k < 1 for k in fanout):
        raise ValueError(f"fanout must be non-empty positive ints: {fanout}")
    edges = graph.edges_dataset(columns=["src", "dst"])

    def pri(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].to_numpy(dtype=np.int64)
        d = df["dst"].to_numpy(dtype=np.int64)
        h = _sha_u64(
            [f"ns:{int(a)}:{int(b)}" for a, b in zip(s, d)]
        )
        df = df.copy()
        df["pri"] = (h >> np.uint64(1)).astype(np.int64)
        return df

    frontier = np.unique(np.asarray(list(seeds), dtype=np.int64))
    hops = []
    for h, k in enumerate(fanout, start=1):
        ref = ray.put(frontier)

        def keep(b: pa.Table, _ref=ref) -> pa.Table:
            f = ray.get(_ref)
            s = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = np.isin(s, f)
            out = pa.table({"src": pa.array(s[m]), "dst": pa.array(d[m])})
            # map-side distinct: multi-etype edges collapse per batch
            return pa.Table.from_pandas(
                out.to_pandas().drop_duplicates(["src", "dst"]),
                preserve_index=False,
            )

        cand = bucket_group_agg(
            edges.map_batches(keep, batch_format="pyarrow"),
            ["src", "dst"],
            None,
            num_buckets=num_buckets,
        ).map_batches(pri, batch_format="pandas")
        sampled = topk_per_group(
            cand, ["src"], ["pri", "dst"], k,
            descending=False, num_buckets=num_buckets,
        ).map_batches(
            lambda df, _h=h: pd.DataFrame(
                {
                    "hop": np.full(len(df), _h, dtype=np.int64),
                    "src": df["src"].to_numpy(dtype=np.int64),
                    "dst": df["dst"].to_numpy(dtype=np.int64),
                }
            ),
            batch_format="pandas",
        ).materialize()
        hops.append(sampled)
        frontier = np.unique(
            sampled.select_columns(["dst"]).to_pandas()["dst"].to_numpy(
                dtype=np.int64
            )
        )
        if len(frontier) == 0:
            break
    out = hops[0]
    for s in hops[1:]:
        out = out.union(s)
    return out


def negative_edges(
    graph: Graph,
    n: int,
    *,
    seed: int = 0,
    oversample: int = 4,
    num_buckets: int = 64,
    vertices: np.ndarray | None = None,
):
    """Deterministic negative sampling for link-prediction training: up
    to ``n`` NON-edges (src, dst), src != dst, absent from the directed
    edge set. Candidate endpoints are hash-indexed into the sorted vertex
    list (the repo's sha256 convention — a DuckDB oracle replays every
    candidate), the edge set removes real edges with ONE anti-join bucket
    shuffle, and the first ``n`` survivors in candidate order are kept —
    the same sample on every run, process, and parallelism level.

    ``vertices=None`` collects the sorted vertex-id array to the driver
    (an EXPLICIT small collector, like ``walks.corpus_pandas``); at
    10^11 vertices pass a hash-sampled vertex subset instead — the
    candidate math only needs a stable indexable array. Returns a pandas
    DataFrame (i, src, dst) sorted by candidate index ``i``; fewer than
    ``n`` rows means the oversample budget hit too many real edges or
    self-pairs (raise ``oversample``)."""
    import pandas as pd

    from flashray.datapipe.sketches import _sha_u64
    from flashray.joins import bucket_semi_join

    if vertices is None:
        verts = np.sort(
            graph.vertices_dataset(columns=["vertex_id"])
            .to_pandas()["vertex_id"]
            .to_numpy(dtype=np.int64)
        )
    else:
        verts = np.sort(np.asarray(vertices, dtype=np.int64))
    nv = len(verts)
    if nv < 2:
        return pd.DataFrame(
            {"i": pd.Series(dtype=np.int64),
             "src": pd.Series(dtype=np.int64),
             "dst": pd.Series(dtype=np.int64)}
        )
    m = int(n) * int(oversample)
    h = _sha_u64([f"ne|{seed}|{j}" for j in range(2 * m)]).reshape(m, 2)
    src = verts[(h[:, 0] % np.uint64(nv)).astype(np.int64)]
    dst = verts[(h[:, 1] % np.uint64(nv)).astype(np.int64)]
    keep = src != dst
    cands = pd.DataFrame(
        {
            "i": np.arange(m, dtype=np.int64)[keep],
            "src": src[keep],
            "dst": dst[keep],
        }
    )
    neg = bucket_semi_join(
        ray.data.from_pandas(cands),
        graph.edges_dataset(columns=["src", "dst"]),
        ["src", "dst"],
        anti=True,
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("i", pa.int64()), ("src", pa.int64()), ("dst", pa.int64())]
        ),
    ).to_pandas()
    return (
        neg.sort_values("i").head(int(n)).reset_index(drop=True)
        .astype(np.int64)
    )


def quotient_edges(
    graph: Graph,
    labels,
    *,
    label_col: str = "label",
    num_buckets: int = 64,
    self_loops: bool = True,
) -> ray.data.Dataset:
    """Quotient (community super-) graph: contract every vertex to its
    label and sum edge weights between label pairs — the generic
    coarsening primitive (Louvain's contraction step and the SCC
    condensation are special cases; this exposes it for ANY labeling:
    communities, partitions, shards). ``labels`` is a Dataset or pandas
    DataFrame (vertex_id, <label_col>). Two bucketed hash joins attach
    endpoint labels (the label table shuffles — never broadcast), one
    near-unique-key aggregate sums the super-edge weights. Edges with an
    unlabeled endpoint are dropped (inner joins); ``self_loops=False``
    also drops intra-label edges. Returns (label_src, label_dst,
    weight); feed into :func:`flashray.build.build_graph` (via the edge
    schema) to iterate coarsening."""
    import pandas as pd

    from flashray.joins import bucket_group_agg, bucket_hash_join

    I64 = pa.int64()
    F64 = pa.float64()
    if isinstance(labels, pd.DataFrame):
        labels = ray.data.from_pandas(
            labels[["vertex_id", label_col]].astype(
                {"vertex_id": np.int64, label_col: np.int64}
            )
        )
    edges = graph.edges_dataset(columns=["src", "dst", "weight"])
    ls = labels.map_batches(
        lambda b: pa.table(
            {"src": b["vertex_id"].cast(I64),
             "label_src": b[label_col].cast(I64)}
        ),
        batch_format="pyarrow",
    )
    ld = labels.map_batches(
        lambda b: pa.table(
            {"dst": b["vertex_id"].cast(I64),
             "label_dst": b[label_col].cast(I64)}
        ),
        batch_format="pyarrow",
    )
    esch = pa.schema([("src", I64), ("dst", I64), ("weight", F64)])
    j = bucket_hash_join(
        edges, ls, ["src"], num_buckets=num_buckets,
        left_schema=esch,
        right_schema=pa.schema([("src", I64), ("label_src", I64)]),
    )
    j = bucket_hash_join(
        j, ld, ["dst"], num_buckets=num_buckets,
        left_schema=pa.schema(
            [("src", I64), ("dst", I64), ("weight", F64),
             ("label_src", I64)]
        ),
        right_schema=pa.schema([("dst", I64), ("label_dst", I64)]),
    )

    def project(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "label_src": b["label_src"],
                "label_dst": b["label_dst"],
                "weight": b["weight"],
            }
        )
        if not self_loops:
            ls_ = b["label_src"].to_numpy(zero_copy_only=False)
            ld_ = b["label_dst"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(ls_ != ld_))
        return t

    return bucket_group_agg(
        j.map_batches(project, batch_format="pyarrow"),
        ["label_src", "label_dst"],
        {"weight": ("weight", "sum")},
        num_buckets=num_buckets,
    )
