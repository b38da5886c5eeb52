"""Graph construction: edge Dataset → partitioned on-disk graph layout.

Rebuild of the reference's graph-image construction
(``flash-graph/utils.cpp`` — ``construct_graph``; ``utils/el2fg.cpp``,
SURVEY.md §2.3 S1) as a Ray Data pipeline that reads its input once:

    edges → [symmetrize] → exact dedup → materialized edge blocks
          → degree table (materialized) → split set
          → hive-partitioned vertex and edge writes + meta.json

The counts come from block metadata; no temp directory is written and no
output is read back.

Layout under ``<path>/``:

- ``edges/part=<p>/*.parquet``  — edge rows, partition ``p`` (see below)
- ``vertices/part=<q>/*.parquet`` — (vertex_id, out_degree, in_degree),
  ``q = vertex_id % P``
- ``meta.json`` — partition count, counts, split-vertex list, options

Partitioning rule: ``part = src % P`` (src is already a uniform 63-bit
hash). **Skew handling (reference E12, vertically-partitioned vertices,
FAST15 §3.6):** a vertex whose out-degree exceeds ``skew_threshold`` has its
out-edges *split across all partitions* (``part = (src + dst) % P``), so no
single shard owns a super-hub's entire adjacency. Its value still lives with
its home partition (``src % P``); the engine broadcasts the small set of
split-vertex values to all shards each superstep (SURVEY.md §4 "skew").

The partition count P is fixed at build time and independent of cluster
size — the partition→actor mapping must be stable across supersteps,
restarts, and the N vs 4N scaling runs (SURVEY.md §7.3).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray.data

from flashray.extract import dedup_edges
from flashray.joins import bucket_group_agg


@dataclass
class GraphMeta:
    path: str
    num_partitions: int
    num_vertices: int
    num_edges: int
    symmetrized: bool
    skew_threshold: int
    split_vertices: list = field(default_factory=list)

    def save(self) -> None:
        with open(os.path.join(self.path, "meta.json"), "w") as f:
            json.dump(
                {
                    "num_partitions": self.num_partitions,
                    "num_vertices": self.num_vertices,
                    "num_edges": self.num_edges,
                    "symmetrized": self.symmetrized,
                    "skew_threshold": self.skew_threshold,
                    "split_vertices": [int(v) for v in self.split_vertices],
                },
                f,
            )

    @staticmethod
    def load(path: str) -> "GraphMeta":
        with open(os.path.join(path, "meta.json")) as f:
            d = json.load(f)
        return GraphMeta(path=path, **d)


class Graph:
    """Handle over the on-disk partitioned graph (the reference's
    ``FG_graph``, flash-graph/FGlib.h — ``FG_graph::create``)."""

    def __init__(self, meta: GraphMeta):
        self.meta = meta

    @property
    def path(self) -> str:
        return self.meta.path

    @property
    def num_partitions(self) -> int:
        return self.meta.num_partitions

    @staticmethod
    def load(path: str) -> "Graph":
        return Graph(GraphMeta.load(path))

    def edges_dataset(self, columns=None) -> ray.data.Dataset:
        return ray.data.read_parquet(
            os.path.join(self.path, "edges"), columns=columns
        )

    def vertices_dataset(self, columns=None) -> ray.data.Dataset:
        return ray.data.read_parquet(
            os.path.join(self.path, "vertices"), columns=columns
        )


def _symmetrize_batch(batch: pa.Table) -> pa.Table:
    """Append the reversed copy of each edge (undirected view, S1 step 2)."""
    rev = pa.Table.from_arrays(
        [
            batch["dst"],
            batch["src"],
            batch["etype"],
            batch["weight"],
            batch["ts"],
        ],
        names=["src", "dst", "etype", "weight", "ts"],
    )
    return pa.concat_tables([batch, rev]).combine_chunks()


def _degree_rows(batch: pa.Table) -> pa.Table:
    """Map-side expansion for the degree table: each edge contributes one
    out-degree row for src (carrying its weight for the weighted degree)
    and one in-degree row for dst."""
    src = batch["src"].to_numpy(zero_copy_only=False)
    dst = batch["dst"].to_numpy(zero_copy_only=False)
    w = batch["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
    ones = np.ones(len(src), dtype=np.int64)
    zeros = np.zeros(len(src), dtype=np.int64)
    return pa.Table.from_arrays(
        [
            pa.array(np.concatenate([src, dst])),
            pa.array(np.concatenate([ones, zeros])),
            pa.array(np.concatenate([zeros, ones])),
            pa.array(np.concatenate([w, np.zeros(len(src))])),
        ],
        names=["vertex_id", "out_degree", "in_degree", "w_out_degree"],
    )


def _auto_partitions(num_edges: int) -> int:
    """Partition count scaled to data size: ~2M edges per partition,
    power-of-two, clamped to [16, 512]. P is fixed per graph (the
    partition→actor map must be stable), but must GROW with the input —
    a fixed P=16 makes each partition file unboundedly large at 100×."""
    target = max(1, num_edges // 2_000_000)
    p = 1 << int(np.ceil(np.log2(target))) if target > 1 else 1
    return int(min(512, max(16, p)))


def _strip_meta(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Drop pandas round-trip schema metadata before writing parquet:
    blocks that passed through a pandas ``map_groups`` carry a
    ``b'pandas'`` metadata dict, it lands in the FILE schema, and every
    later ``read_parquet`` then logs Ray's "Failed to hash the schemas
    (for deduplication)" warning on the unhashable dict (and loses
    schema-dedup). Stripping at the writer fixes all readers."""
    return ds.map_batches(
        lambda b: b.replace_schema_metadata(None),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _write_partitioned(ds: ray.data.Dataset, base: str, columns: list[str]):
    """Hive-partitioned parquet (``part=<p>/``), many files per partition
    (one per block×value): no stage ever holds a whole partition in one
    task — the previous one-file-per-partition ``map_groups`` writer
    required a full partition to fit a single task's memory, the first
    thing to die at 100×. The shard reader reads directories."""
    _strip_meta(ds.select_columns(columns + ["part"])).write_parquet(
        base, partition_cols=["part"], mode="overwrite"
    )


def build_graph(
    edges: ray.data.Dataset,
    path: str,
    *,
    num_partitions: int | None = None,
    symmetrize: bool = False,
    dedup: bool = True,
    skew_threshold: int | None = None,
) -> Graph:
    """Materialize the partitioned graph layout from an edge Dataset.

    ``edges`` must carry EDGE_SCHEMA columns. ``skew_threshold=None`` means
    "auto": 32 × the average out-degree, at least 512.
    ``num_partitions=None`` means "auto": ~2M edges per partition,
    power-of-two in [16, 512] (see _auto_partitions).

    Pass structure (the input is read once; every later step maps over
    materialized blocks, so nothing re-executes the upstream pipeline and
    nothing is read back from disk):

    1. [shuffle] symmetrize? → exact dedup → materialized edges; their
       count (block metadata) fixes auto-P
    2. [shuffle] degree table, materialized; its count is the vertex count
    3. split-vertex detection: a filter over the degree blocks
    4. hive-partitioned writes of the degree and edge blocks, both by
       ``_part_expr``

    Nothing under ``path`` changes before steps 1–3 finish, so ``edges``
    may read the graph being replaced (``add_edges`` does). An empty input
    raises ``ValueError`` and leaves ``path`` as it was.
    """
    if symmetrize:
        edges = edges.map_batches(
            _symmetrize_batch, batch_format="pyarrow", zero_copy_batch=True
        )
        dedup = True
    if dedup:
        edges = dedup_edges(edges)
    edges = edges.materialize()
    num_edges = edges.count()
    if num_edges == 0:
        raise ValueError(f"build_graph: the edge input for {path!r} is empty")
    P = num_partitions if num_partitions is not None else _auto_partitions(
        num_edges
    )

    # vertex/degree table — bucketed vectorized aggregate (vertex ids are
    # near-unique keys; see joins.bucket_group_agg)
    degrees = bucket_group_agg(
        edges.map_batches(_degree_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["vertex_id"],
        {
            "out_degree": ("out_degree", "sum"),
            "in_degree": ("in_degree", "sum"),
            "w_out_degree": ("w_out_degree", "sum"),
        },
        num_buckets=max(64, P),
    ).materialize()
    num_vertices = degrees.count()

    if skew_threshold is None:
        avg = max(1, num_edges // max(1, num_vertices))
        skew_threshold = max(512, 32 * avg)
    split_df = (
        degrees.filter(expr=f"out_degree > {int(skew_threshold)}")
        .select_columns(["vertex_id"])
        .to_pandas()
    )
    split_vertices = np.sort(
        split_df["vertex_id"].to_numpy(dtype=np.int64)
        if len(split_df)
        else np.empty(0, dtype=np.int64)
    )

    os.makedirs(path, exist_ok=True)
    for sub in ("edges", "vertices", "meta.json"):
        target = os.path.join(path, sub)
        if os.path.isdir(target):
            shutil.rmtree(target)
        elif os.path.exists(target):
            os.remove(target)
    _write_partitioned(
        degrees.map_batches(
            _part_expr(P, key="vertex_id"),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        os.path.join(path, "vertices"),
        ["vertex_id", "out_degree", "in_degree", "w_out_degree"],
    )
    _write_partitioned(
        edges.map_batches(
            _part_expr(P, split_vertices),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        os.path.join(path, "edges"),
        ["src", "dst", "etype", "weight", "ts"],
    )

    meta = GraphMeta(
        path=path,
        num_partitions=P,
        num_vertices=num_vertices,
        num_edges=num_edges,
        symmetrized=symmetrize,
        skew_threshold=int(skew_threshold),
        split_vertices=split_vertices.tolist(),
    )
    meta.save()
    return Graph(meta)


def _part_expr(P: int, split_vertices=(), key: str = "src"):
    """The one partition rule, as a pyarrow batch fn appending ``part``:
    ``part = key % P``, except that an edge whose ``key`` is a split
    (super-hub) vertex goes to ``(src + dst) % P``. Edges use
    ``key="src"``; the vertex table uses ``key="vertex_id"`` and no split
    set. Shared by the build and incremental ingest."""
    split_ref = ray.put(np.asarray(split_vertices, dtype=np.int64))

    def add_part(batch: pa.Table) -> pa.Table:
        splits = ray.get(split_ref)
        k = batch[key].to_numpy(zero_copy_only=False)
        part = (k % P).astype(np.int32)
        if len(splits):
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            part = np.where(np.isin(k, splits), ((k + dst) % P).astype(np.int32), part)
        return batch.append_column("part", pa.array(part))

    return add_part


def add_edges(graph: Graph, new_edges: ray.data.Dataset) -> Graph:
    """Incremental ingest: merge a new edge Dataset into an existing graph
    layout IN PLACE, touching only the edge/vertex partitions the new rows
    land in — the continuous-pipeline path (result ≡ a full rebuild over
    the union, same P / skew threshold / symmetrize setting).

    Dataflow: symmetrize+dedup the new batch; read ONLY the affected
    ``edges/part=p`` dirs tagged ``existing=1``; one bucketed merge on
    (src, dst, etype) accumulates weight-sum / ts-min AND the accounting
    columns (did the key exist? how much weight is new?) in the same
    shuffle; degree DELTAS (one row per touched vertex) outer-merge into
    only the affected ``vertices/part=q`` dirs. O(new + affected
    partitions) I/O, never a full-graph pass.

    Skew escape hatch: if the update pushes a previously-normal vertex
    over the split threshold, its existing adjacency would have to move
    partitions — that case falls back to a full rebuild over the union
    (logged via the returned meta): ``build_graph`` materializes the union
    before it replaces the graph the union reads."""
    meta = graph.meta
    P = meta.num_partitions
    path = meta.path
    splits = np.asarray(meta.split_vertices, dtype=np.int64)

    if meta.symmetrized:
        new_edges = new_edges.map_batches(
            _symmetrize_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    new = dedup_edges(new_edges)
    add_epart = _part_expr(P, splits)
    newp = new.map_batches(
        add_epart, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if newp.count() == 0:
        return graph

    def parts_of(b: pa.Table) -> pa.Table:
        return pa.table(
            {"part": np.unique(b["part"].to_numpy(zero_copy_only=False))}
        )

    affected = sorted(
        set(
            newp.map_batches(parts_of, batch_format="pyarrow")
            .to_pandas()["part"]
            .astype(int)
        )
    )
    def _files_in(dirs: list[str]) -> list[str]:
        # ray.data.read_parquet accepts one directory fine but chokes on a
        # LIST of directories; hand it the files
        return [
            os.path.join(d, f)
            for d in dirs
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        ]

    old_dirs = _files_in(
        [
            os.path.join(path, "edges", f"part={p}")
            for p in affected
            if os.path.isdir(os.path.join(path, "edges", f"part={p}"))
        ]
    )

    def tag(existing: int):
        def fn(b: pa.Table) -> pa.Table:
            b = b.select(["src", "dst", "etype", "weight", "ts"])
            n = b.num_rows
            w = b["weight"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "existing", pa.array(np.full(n, existing, dtype=np.int64))
            ).append_column(
                "new_w",
                pa.array(np.zeros(n) if existing else w.astype(np.float64)),
            )

        return fn

    old_rows = (
        ray.data.read_parquet(old_dirs).map_batches(
            tag(1), batch_format="pyarrow", zero_copy_batch=True
        )
        if old_dirs
        else None
    )
    new_rows = newp.map_batches(tag(0), batch_format="pyarrow")
    both = old_rows.union(new_rows) if old_rows is not None else new_rows
    merged = bucket_group_agg(
        both,
        ["src", "dst", "etype"],
        {
            "weight": ("weight", "sum"),
            "ts": ("ts", "min"),
            "existed": ("existing", "max"),
            "new_w": ("new_w", "sum"),
        },
        hash_keys=["src", "dst"],
        num_buckets=max(64, P),
    ).materialize()

    # degree deltas: +1 out/in per NEW key, w_out += all newly-added weight
    def delta_rows(b: pa.Table) -> pa.Table:
        src = b["src"].to_numpy(zero_copy_only=False)
        dst = b["dst"].to_numpy(zero_copy_only=False)
        is_new = b["existed"].to_numpy(zero_copy_only=False) == 0
        nw = b["new_w"].to_numpy(zero_copy_only=False).astype(np.float64)
        one = is_new.astype(np.int64)
        z = np.zeros(len(src), dtype=np.int64)
        keep = (nw != 0) | is_new  # weight-only bumps still carry w deltas
        return pa.table(
            {
                "vertex_id": np.concatenate([src[keep], dst[is_new]]),
                "out_degree": np.concatenate([one[keep], z[: int(is_new.sum())]]),
                "in_degree": np.concatenate([z[: int(keep.sum())], one[is_new]]),
                "w_out_degree": np.concatenate(
                    [nw[keep], np.zeros(int(is_new.sum()))]
                ),
            }
        )

    deltas = bucket_group_agg(
        merged.map_batches(delta_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["vertex_id"],
        {
            "out_degree": ("out_degree", "sum"),
            "in_degree": ("in_degree", "sum"),
            "w_out_degree": ("w_out_degree", "sum"),
        },
        num_buckets=max(64, P),
    ).materialize()

    # skew check BEFORE any rewrite: a vertex crossing the threshold must
    # repartition its whole adjacency -> full rebuild over the union
    dpd = deltas.to_pandas()  # O(touched vertices)
    touched_q = sorted(set((dpd["vertex_id"].to_numpy() % P).astype(int)))
    old_v_dirs = _files_in(
        [
            os.path.join(path, "vertices", f"part={q}")
            for q in touched_q
            if os.path.isdir(os.path.join(path, "vertices", f"part={q}"))
        ]
    )
    oldv = (
        ray.data.read_parquet(old_v_dirs).to_pandas()
        if old_v_dirs
        else None
    )
    import pandas as pd

    cols = ["vertex_id", "out_degree", "in_degree", "w_out_degree"]
    mergedv = (
        pd.concat([oldv[cols], dpd[cols]], ignore_index=True)
        if oldv is not None
        else dpd[cols]
    ).groupby("vertex_id", as_index=False).sum()
    new_splits = mergedv[
        (mergedv["out_degree"] > meta.skew_threshold)
        & ~mergedv["vertex_id"].isin(splits)
    ]
    if len(new_splits):
        union = graph.edges_dataset().union(
            newp.select_columns(["src", "dst", "etype", "weight", "ts"])
        )
        g = build_graph(
            union,
            path,
            num_partitions=P,
            symmetrize=False,  # rows already symmetrized; keep the flag:
            dedup=True,
            skew_threshold=meta.skew_threshold,
        )
        g.meta.symmetrized = meta.symmetrized
        g.meta.save()
        return g

    # rewrite affected edge partitions (helper cols dropped; part stays
    # identical for every merged key -> untouched dirs stay valid)
    to_write = _strip_meta(
        merged.map_batches(add_epart, batch_format="pyarrow").select_columns(
            ["src", "dst", "etype", "weight", "ts", "part"]
        )
    ).materialize()
    for p in affected:
        sub = to_write.filter(expr=f"part == {p}").drop_columns(["part"])
        sub.write_parquet(
            os.path.join(path, "edges", f"part={p}"), mode="overwrite"
        )

    # rewrite affected vertex partitions from the driver-merged frame
    # (touched vertices only — small by construction of an increment)
    n_vertices_added = 0
    for q in touched_q:
        vd = os.path.join(path, "vertices", f"part={q}")
        old_n = 0
        if os.path.isdir(vd):
            old_part = ray.data.read_parquet(vd).to_pandas()
            old_n = len(old_part)
            untouched = old_part[
                ~old_part["vertex_id"].isin(mergedv["vertex_id"])
            ]
        else:
            untouched = None
        mine = mergedv[(mergedv["vertex_id"] % P) == q]
        out = (
            pd.concat([untouched[cols], mine[cols]], ignore_index=True)
            if untouched is not None
            else mine[cols]
        ).sort_values("vertex_id")
        n_vertices_added += len(out) - old_n
        tbl = pa.table(
            {
                "vertex_id": out["vertex_id"].to_numpy(dtype=np.int64),
                "out_degree": out["out_degree"].to_numpy(dtype=np.int64),
                "in_degree": out["in_degree"].to_numpy(dtype=np.int64),
                "w_out_degree": out["w_out_degree"].to_numpy(dtype=np.float64),
            }
        )
        ray.data.from_arrow(tbl).write_parquet(vd, mode="overwrite")

    new_keys = merged.filter(expr="existed == 0").count()
    meta.num_edges += int(new_keys)
    meta.num_vertices += int(n_vertices_added)
    meta.save()
    return Graph(meta)


def build_graph_from_arrays(
    src: np.ndarray, dst: np.ndarray, path: str, weight=None, **kwargs
) -> Graph:
    """Convenience for fixtures/tests: numpy edge arrays → graph layout."""
    from flashray.fixtures import edges_table

    return build_graph(
        ray.data.from_arrow(edges_table(src, dst, weight)), path, **kwargs
    )


def partition_stats(graph: Graph) -> "pd.DataFrame":
    """Partition-quality report for the ``part = src % P`` layout: per
    partition, resident edges and CUT edges (destination homed elsewhere —
    ``dst % P != part``; exactly the messages that cross partitions every
    superstep), plus per-row cut fraction. The north-rule "partitioning /
    shuffle / skew handled explicitly" made measurable: balance =
    max(n_edges)/mean(n_edges) and the global cut fraction fall out of the
    rows. Map-side partial counts per batch, tiny driver fold — never a
    data block on the driver. Uses each edge's HOME partition (src % P);
    split super-hub sources physically spread as (src + dst) % P, but
    their messages still route home→dst, so src-home is the
    message-traffic view either way."""
    P = graph.num_partitions
    edges = graph.edges_dataset(columns=["src", "dst"])

    def partial(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        part = (s % P).astype(np.int64)
        cut = part != (d % P)
        n = np.bincount(part, minlength=P)
        c = np.bincount(part[cut], minlength=P)
        return pa.table(
            {
                "part": pa.array(np.arange(P, dtype=np.int64)),
                "n_edges": pa.array(n.astype(np.int64)),
                "n_cut": pa.array(c.astype(np.int64)),
            }
        )

    parts = edges.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby("part", as_index=False)[["n_edges", "n_cut"]]
        .sum()
        .sort_values("part")
        .reset_index(drop=True)
    )
    tot = out["n_edges"].to_numpy()
    out["cut_frac"] = np.where(
        tot > 0, out["n_cut"] / np.maximum(tot, 1), 0.0
    )
    return out
