"""Deterministic random walks over an edge Dataset — graph-structured
training-corpus generation (DeepWalk/node2vec-style: the walk corpus is the
input to skip-gram embedding training; Perozzi et al. KDD 2014).

RNG-free by construction: step t of walk w moves to the out-neighbor d
minimizing a hash of (salt, w, t, d). Deterministic across runs, block
layouts and parallelism; resumable (re-running a step recomputes the same
choice); and — with ``hash_fn="sha"`` — exactly reproducible in SQL (the
``random_walks_user`` driver oracle replays every step with a correlated
ORDER-BY-hash subquery inside a recursive CTE).

Dataflow per step (no per-walk Ray groups — one ``joins.bucket_map`` on
walk_id, each call choosing all its walks' next hops in one vectorized
pandas pass):

    frontier (walk_id, v) ⋈ edges on v = src   [one bucket-join shuffle]
      → candidates (walk_id, dst, priority)
      → per-bucket argmin (priority, dst) per walk_id
      → next frontier; rows (walk_id, step, vertex_id) appended

Walks that reach a vertex with no out-edges simply end (inner join drops
them) — matching the SQL oracle's EXISTS guard.

NOTHING is materialized on the driver: walk-id seeding is a distributed
distinct over the edge endpoints (walk_id = vertex × walks_per_vertex + j
derives from the vertex id, no global enumeration needed), each step's
rows stay in the object store as a materialized per-step Dataset (or go
straight to ``out_dir`` parquet, one directory per step — a resumable
layout), and the result is a Dataset. Collect with
:func:`corpus_pandas` ONLY on small graphs.

Scale notes: the per-step shuffle ships one row per (frontier walk ×
out-degree); ``hash_fn="splitmix"`` (default) keeps the priority pure
vectorized numpy. ``hash_fn="sha"`` pays one sha256 per candidate row and
exists for SQL-oracle parity — use splitmix at scale. Each step's
frontier goes through ``joins.coalesce``, which holds its block count to
its size (at most ``num_buckets`` blocks).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray import routing
from flashray.ids import _splitmix64
from flashray.joins import (
    bucket_group_agg,
    bucket_hash_join,
    bucket_map,
    coalesce,
)

_C_STEP = np.uint64(0x9E3779B97F4A7C15)
_I64 = pa.int64()


def _priority(walk_id, step: int, dst, salt: str, hash_fn: str) -> np.ndarray:
    if hash_fn == "sha":
        from flashray.datapipe.sketches import _sha_u64

        return _sha_u64(
            [
                f"{salt}{int(w)}:{step}:{int(d)}"
                for w, d in zip(walk_id, dst)
            ]
        )
    w = np.asarray(walk_id).astype(np.uint64)
    d = np.asarray(dst).astype(np.uint64)
    s = np.uint64(step)
    with np.errstate(over="ignore"):
        h = _splitmix64(w + _C_STEP * (s + np.uint64(1)))
        return _splitmix64(h ^ d)


def corpus_pandas(corpus) -> pd.DataFrame:
    """Collect a walk corpus to the driver, sorted by (walk_id, step) —
    EXPLICIT small-graph helper: corpus rows = vertices × walks_per_vertex
    × walk_len, so only call this when that product is driver-sized.
    Large corpora should stay Datasets (write_parquet / skipgram_pairs
    consume them distributed)."""
    df = corpus.to_pandas() if not isinstance(corpus, pd.DataFrame) else corpus
    df = df[["walk_id", "step", "vertex_id"]].copy()
    for c in df.columns:
        df[c] = df[c].astype(np.int64)
    return df.sort_values(["walk_id", "step"]).reset_index(drop=True)


def _edges_i64(edges, src_col: str, dst_col: str) -> ray.data.Dataset:
    return edges.map_batches(
        lambda b: pa.table(
            {"src": b[src_col].cast(_I64), "dst": b[dst_col].cast(_I64)}
        ),
        batch_format="pyarrow",
    ).materialize()


def _seed_frontier(
    e: ray.data.Dataset, wpv: int, num_buckets: int, with_prev: bool
) -> ray.data.Dataset:
    """Distributed walk seeding: distinct vertices over both endpoints
    (one bucket shuffle), then each vertex expands to walks_per_vertex
    rows with walk_id = v*wpv + j — derived from the vertex id itself, so
    no driver-side enumeration and no zip-with-index barrier."""

    def to_verts(b: pa.Table) -> pa.Table:
        v = np.concatenate(
            [
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table({"v": pa.array(v, type=_I64)})

    verts = bucket_group_agg(
        e.map_batches(to_verts, batch_format="pyarrow"),
        ["v"],
        None,
        num_buckets=num_buckets,
    )

    def expand(b: pa.Table) -> pa.Table:
        v = b["v"].to_numpy(zero_copy_only=False)
        vv = np.repeat(v, wpv)
        wid = vv * wpv + np.tile(np.arange(wpv, dtype=np.int64), len(v))
        cols = {
            "walk_id": pa.array(wid, type=_I64),
            "v": pa.array(vv, type=_I64),
        }
        if with_prev:
            cols["prev"] = pa.array(np.full(len(vv), -1), type=_I64)
            cols = {
                "walk_id": cols["walk_id"],
                "prev": cols["prev"],
                "v": cols["v"],
            }
        return pa.table(cols)

    return verts.map_batches(expand, batch_format="pyarrow").materialize()


def _frontier_rows(frontier: ray.data.Dataset, t: int) -> ray.data.Dataset:
    def rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "walk_id": b["walk_id"].cast(_I64),
                "step": pa.array(np.full(n, t, dtype=np.int64)),
                "vertex_id": b["v"].cast(_I64),
            }
        )

    return frontier.map_batches(rows, batch_format="pyarrow")


class _StepSink:
    """Per-step corpus rows: either materialized per-step Datasets unioned
    at the end (object-store resident, spillable), or — with ``out_dir`` —
    parquet directories ``step_t/`` (resumable, nothing held anywhere)."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.parts: list[ray.data.Dataset] = []
        self.step_dirs: list[str] = []
        if out_dir is not None and os.path.isdir(out_dir) and os.listdir(out_dir):
            # A prior run (possibly with a different walk_len/salt) would
            # silently mix its step_t/ files into result(); refuse instead.
            raise ValueError(
                f"out_dir {out_dir!r} is not empty — pass a fresh directory "
                "(stale step_t/ files from a previous run would be mixed in)"
            )

    def add(self, rows: ray.data.Dataset, t: int) -> None:
        if self.out_dir is not None:
            d = os.path.join(self.out_dir, f"step_{t}")
            os.makedirs(d, exist_ok=True)
            rows.write_parquet(d)
            self.step_dirs.append(d)
        else:
            self.parts.append(rows.materialize())

    def result(self) -> ray.data.Dataset:
        if self.out_dir is not None:
            # Read only the step dirs written by THIS run (read_parquet
            # accepts a list of FILES, not directories — expand each dir).
            files = [
                os.path.join(d, f)
                for d in self.step_dirs
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            ]
            return ray.data.read_parquet(files)
        first, *rest = self.parts
        return first.union(*rest) if rest else first


def _csr_arrays(e: ray.data.Dataset):
    """Collapse the edge table to CSR-style arrays (sorted unique srcs,
    per-src [start, end) into the (src, dst)-sorted dst array) for the
    broadcast walk path."""
    ep = e.to_pandas()
    s = ep["src"].to_numpy(dtype=np.int64)
    d = ep["dst"].to_numpy(dtype=np.int64)
    o = np.lexsort((d, s))
    s, d = s[o], d[o]
    srt = np.unique(s)
    return srt, np.searchsorted(s, srt, side="left"), np.searchsorted(
        s, srt, side="right"
    ), d


def random_walks(
    edges: ray.data.Dataset,
    *,
    walk_len: int,
    walks_per_vertex: int = 1,
    salt: str = "",
    num_buckets: int = 64,
    hash_fn: str = "splitmix",
    src_col: str = "src",
    dst_col: str = "dst",
    out_dir: str | None = None,
) -> ray.data.Dataset:
    """Generate ``walks_per_vertex`` deterministic walks of up to
    ``walk_len`` steps from every vertex. Returns a Dataset of rows
    (walk_id, step, vertex_id) with walk_id = start_vertex ×
    walks_per_vertex + j — unsorted (sort/collect via
    :func:`corpus_pandas` on small graphs; write to parquet for a
    training corpus otherwise). ``out_dir`` streams each step's rows to
    ``out_dir/step_t/`` parquet instead of holding them in the object
    store.

    On the broadcast route the adjacency goes out ONCE as CSR arrays via
    ``ray.put`` (workers read it zero-copy from the object store — the
    FlashGraph CSR-residency idea on the Dataset path) and every step is
    a single shuffle-free ``map_batches`` over the frontier: each walk's
    argmin-(priority, dst) choice is local to its row. On the
    distributed route each step pays the bucket join + the per-walk
    grouping shuffle. Both paths compute the IDENTICAL next vertex
    (agreement-tested)."""
    e = _edges_i64(edges, src_col, dst_col)
    wpv = int(walks_per_vertex)
    frontier = _seed_frontier(e, wpv, num_buckets, with_prev=False)
    sink = _StepSink(out_dir)
    sink.add(_frontier_rows(frontier, 0), 0)

    fr_schema = pa.schema([("walk_id", _I64), ("v", _I64)])
    e_schema = pa.schema([("src", _I64), ("dst", _I64)])

    if routing.choose("walks.random_walks", None, 16 * e.count()) == "broadcast":
        import ray as _ray

        ref = _ray.put(_csr_arrays(e))

        def _empty_frontier() -> pa.Table:
            return pa.table(
                {
                    "walk_id": pa.array([], type=_I64),
                    "v": pa.array([], type=_I64),
                }
            )

        for t in range(1, int(walk_len) + 1):

            def step(b: pa.Table, _t=t) -> pa.Table:
                srt_, st_, en_, dst_ = _ray.get(ref)
                w = b["walk_id"].to_numpy(zero_copy_only=False)
                v = b["v"].to_numpy(zero_copy_only=False)
                if not len(w) or not len(srt_):
                    return _empty_frontier()
                p = np.searchsorted(srt_, v)
                has = (p < len(srt_)) & (
                    srt_[np.minimum(p, len(srt_) - 1)] == v
                )
                w, p = w[has], p[has]  # dead-end walks end naturally
                if not len(w):
                    return _empty_frontier()
                deg = en_[p] - st_[p]
                tot = int(deg.sum())
                seg = np.repeat(np.arange(len(w), dtype=np.int64), deg)
                starts = np.concatenate(
                    [[0], np.cumsum(deg)[:-1]]
                ).astype(np.int64)
                idx = (
                    np.repeat(st_[p], deg)
                    + np.arange(tot, dtype=np.int64)
                    - np.repeat(starts, deg)
                )
                nb = dst_[idx]
                pri = _priority(w[seg], _t, nb, salt, hash_fn)
                order = np.lexsort((nb, pri, seg))
                first = np.r_[True, seg[order][1:] != seg[order][:-1]]
                win = order[first]
                return pa.table(
                    {
                        "walk_id": pa.array(w[seg[win]], type=_I64),
                        "v": pa.array(nb[win], type=_I64),
                    }
                )

            frontier = frontier.map_batches(
                step, batch_format="pyarrow"
            ).materialize()
            if frontier.count() == 0:
                break
            sink.add(_frontier_rows(frontier, t), t)

        return sink.result()

    for t in range(1, int(walk_len) + 1):
        cand = bucket_hash_join(
            frontier,
            e,
            ["v"],
            right_on=["src"],
            num_buckets=num_buckets,
            left_schema=fr_schema,
            right_schema=e_schema,
        )

        def choose(g: pd.DataFrame, _t=t) -> pd.DataFrame:
            # all candidates of a walk are in this bucket: argmin
            # (priority, dst) per walk, vectorized via one sort
            if not len(g):
                return pd.DataFrame(
                    {
                        "walk_id": pd.Series(dtype=np.int64),
                        "v": pd.Series(dtype=np.int64),
                    }
                )
            pri = _priority(
                g["walk_id"].to_numpy(), _t, g["dst"].to_numpy(), salt, hash_fn
            )
            g = g.assign(__pri=pri).sort_values(
                ["walk_id", "__pri", "dst"], kind="stable"
            )
            top = g.drop_duplicates("walk_id")
            return pd.DataFrame(
                {
                    "walk_id": top["walk_id"].to_numpy(),
                    "v": top["dst"].to_numpy(),
                }
            )

        frontier = coalesce(
            bucket_map(cand, ["walk_id"], choose, num_buckets=num_buckets),
            num_buckets,
        )
        if frontier.count() == 0:
            break
        sink.add(_frontier_rows(frontier, t), t)

    return sink.result()


def _alpha_weights(p: float, q: float, scale: int = 1_000_000) -> tuple[int, int, int]:
    """node2vec bias factors as exact integers (so the cumulative-sum
    inversion is integer math, bit-identical in numpy and SQL):
    return = round(scale/p), in-triangle = scale, outward = round(scale/q)."""
    return int(round(scale / float(p))), int(scale), int(round(scale / float(q)))


def _bias_u(walk_id: np.ndarray, step: int, salt: str, hash_fn: str) -> np.ndarray:
    """Per-(walk, step) uniform draw for the weighted choice, as uint64."""
    if hash_fn == "sha":
        from flashray.datapipe.sketches import _sha_u64

        return _sha_u64([f"{salt}{int(w)}:{step}" for w in walk_id])
    w = np.asarray(walk_id).astype(np.uint64)
    with np.errstate(over="ignore"):
        return _splitmix64(
            _splitmix64(w + _C_STEP * np.uint64(step + 1)) ^ _C_BIAS
        )


_C_BIAS = np.uint64(0xBF58476D1CE4E5B9)


def node2vec_walks(
    edges: ray.data.Dataset,
    *,
    walk_len: int,
    p: float = 1.0,
    q: float = 1.0,
    walks_per_vertex: int = 1,
    salt: str = "",
    num_buckets: int = 64,
    hash_fn: str = "splitmix",
    src_col: str = "src",
    dst_col: str = "dst",
    weight_scale: int = 1_000_000,
    out_dir: str | None = None,
) -> ray.data.Dataset:
    """node2vec biased second-order walks (Grover & Leskovec, KDD 2016):
    from ``v`` (arrived via ``prev``), candidate ``d`` is weighted
    1/p if d == prev, 1 if (prev, d) is an edge, else 1/q. Deterministic,
    RNG-free: the step-t draw for walk w is hash(salt, w, t) and the next
    hop is the first candidate (ascending d) whose integer cumulative
    weight exceeds draw % total — exactly reproducible in SQL with a
    windowed SUM over the same integer weights (driver oracle
    ``node2vec_walks_user``). Step 1 has no ``prev`` and is the uniform
    argmin-hash rule of :func:`random_walks`.

    The second-order flag needs "is d a neighbor of prev" — normally an
    edge-set join per step. This implementation avoids it: the PREVIOUS
    step's candidate set for walk w is exactly N(prev), so the flag is a
    per-walk merge of two consecutive candidate sets. Per step: one
    bucket-join shuffle (frontier x edges) + one ``bucket_map`` on walk_id
    over cand_t ∪ cand_{t-1}.

    ``edges`` must be duplicate-free — repeated (src, dst) rows would
    double that candidate's weight. Returns a Dataset of
    (walk_id, step, vertex_id) rows like :func:`random_walks`."""
    wp, wc, wq = _alpha_weights(p, q, weight_scale)
    e = _edges_i64(edges, src_col, dst_col)
    wpv = int(walks_per_vertex)
    frontier = _seed_frontier(e, wpv, num_buckets, with_prev=True)
    sink = _StepSink(out_dir)
    sink.add(_frontier_rows(frontier, 0), 0)

    fr_schema = pa.schema([("walk_id", _I64), ("prev", _I64), ("v", _I64)])
    e_schema = pa.schema([("src", _I64), ("dst", _I64)])
    prev_cand: ray.data.Dataset | None = None

    def tag_side(side: int):
        def fn(b: pa.Table) -> pa.Table:
            cols = {
                "walk_id": b["walk_id"].cast(_I64),
                "prev": (
                    b["prev"].cast(_I64)
                    if "prev" in b.column_names
                    else pa.array(np.zeros(b.num_rows, dtype=np.int64))
                ),
                "v": (
                    b["v"].cast(_I64)
                    if "v" in b.column_names
                    else pa.array(np.zeros(b.num_rows, dtype=np.int64))
                ),
                "dst": b["dst"].cast(_I64),
                "__side": pa.array(
                    np.full(b.num_rows, side, dtype=np.int64)
                ),
            }
            return pa.table(cols)

        return fn

    _empty = pd.DataFrame(
        {
            "walk_id": pd.Series(dtype=np.int64),
            "prev": pd.Series(dtype=np.int64),
            "v": pd.Series(dtype=np.int64),
        }
    )

    for t in range(1, int(walk_len) + 1):
        cand = bucket_hash_join(
            frontier,
            e,
            ["v"],
            right_on=["src"],
            num_buckets=num_buckets,
            left_schema=fr_schema,
            right_schema=e_schema,
        ).map_batches(tag_side(0), batch_format="pyarrow").materialize()

        if t == 1:

            def choose_first(g: pd.DataFrame, _t=t) -> pd.DataFrame:
                if not len(g):
                    return _empty.copy()
                pri = _priority(
                    g["walk_id"].to_numpy(), _t, g["dst"].to_numpy(),
                    salt, hash_fn,
                )
                g = g.assign(__pri=pri).sort_values(
                    ["walk_id", "__pri", "dst"], kind="stable"
                )
                top = g.drop_duplicates("walk_id")
                return pd.DataFrame(
                    {
                        "walk_id": top["walk_id"].to_numpy(),
                        "prev": top["v"].to_numpy(),
                        "v": top["dst"].to_numpy(),
                    }
                )

            frontier = coalesce(
                bucket_map(
                    cand, ["walk_id"], choose_first, num_buckets=num_buckets
                ),
                num_buckets,
            )
        else:

            def choose_biased(g: pd.DataFrame, _t=t) -> pd.DataFrame:
                cur = g[g["__side"] == 0]
                if not len(cur):
                    return _empty.copy()
                pcs = (
                    g[g["__side"] == 1][["walk_id", "dst"]]
                    .drop_duplicates()
                    .assign(__nbr=np.int64(1))
                )
                m = cur.merge(pcs, on=["walk_id", "dst"], how="left")
                w = np.full(len(m), wq, dtype=np.int64)
                w[m["__nbr"].notna().to_numpy()] = wc
                w[m["dst"].to_numpy() == m["prev"].to_numpy()] = wp
                m = m.assign(__w=w).sort_values(
                    ["walk_id", "dst"], kind="stable"
                )
                grp = m.groupby("walk_id", sort=False)["__w"]
                cum = grp.cumsum().to_numpy()
                tot = grp.transform("sum").to_numpy()
                u = (
                    _bias_u(m["walk_id"].to_numpy(), _t, salt, hash_fn)
                    % tot.astype(np.uint64)
                ).astype(np.int64)
                sel = m[cum > u].drop_duplicates("walk_id")
                return pd.DataFrame(
                    {
                        "walk_id": sel["walk_id"].to_numpy(),
                        "prev": sel["v"].to_numpy(),
                        "v": sel["dst"].to_numpy(),
                    }
                )

            frontier = coalesce(
                bucket_map(
                    cand.union(prev_cand),
                    ["walk_id"],
                    choose_biased,
                    num_buckets=num_buckets,
                ),
                num_buckets,
            )

        prev_cand = cand.map_batches(
            lambda b: pa.table(
                {
                    "walk_id": b["walk_id"],
                    "prev": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                    "v": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                    "dst": b["dst"],
                    "__side": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

        if frontier.count() == 0:
            break
        sink.add(_frontier_rows(frontier, t), t)

    return sink.result()


def skipgram_pairs(
    corpus,
    *,
    window: int,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """(center, context, n) co-occurrence pairs from a walk corpus — the
    skip-gram training set for DeepWalk/node2vec embeddings: every ordered
    pair of positions within ``window`` steps on the same walk, counted.
    Returns a Dataset (collect with ``.to_pandas()`` only when small).

    One ``bucket_map`` on walk_id (a walk's rows co-locate), pairs are
    ``window`` vectorized self-merges per bucket (never a Ray group per
    walk), then one bucketed count aggregate."""
    ds = (
        ray.data.from_pandas(corpus)
        if isinstance(corpus, pd.DataFrame)
        else corpus
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "walk_id": b["walk_id"].cast(pa.int64()),
                "step": b["step"].cast(pa.int64()),
                "vertex_id": b["vertex_id"].cast(pa.int64()),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        base = g[["walk_id", "step", "vertex_id"]]
        out = []
        for d in range(1, window + 1):
            shifted = base.assign(step=base["step"] + d)
            m = shifted.merge(
                base, on=["walk_id", "step"], suffixes=("_a", "_b")
            )
            if len(m):
                # a sits d steps BEFORE b: emit both directions
                out.append(
                    pd.DataFrame(
                        {
                            "center": m["vertex_id_a"].to_numpy(),
                            "context": m["vertex_id_b"].to_numpy(),
                        }
                    )
                )
                out.append(
                    pd.DataFrame(
                        {
                            "center": m["vertex_id_b"].to_numpy(),
                            "context": m["vertex_id_a"].to_numpy(),
                        }
                    )
                )
        if not out:
            return pd.DataFrame(
                {
                    "center": pd.Series(dtype=np.int64),
                    "context": pd.Series(dtype=np.int64),
                    "__one": pd.Series(dtype=np.int64),
                }
            )
        res = pd.concat(out, ignore_index=True)
        res["__one"] = np.ones(len(res), dtype=np.int64)
        return res

    prs = bucket_map(
        ds.map_batches(project, batch_format="pyarrow"),
        ["walk_id"],
        pairs,
        num_buckets=num_buckets,
    )
    agg = bucket_group_agg(
        prs,
        ["center", "context"],
        {"n": ("__one", "sum")},
        num_buckets=num_buckets,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "center": b["center"].cast(pa.int64()),
                "context": b["context"].cast(pa.int64()),
                "n": b["n"].cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")
