"""Similarity search over an embedding column (``list<float>``).

- :func:`knn_brute_force` — exact cosine top-k: each batch computes a numpy
  matmul against a broadcast query matrix (``ray.put`` once, read per task),
  emits its local top-k, and a tiny global reduce merges per-batch winners.
  This is the scale baseline: one streaming pass, no shuffle of the corpus.
- :func:`knn_ivf` — IVF-style scale path: seeded k-means coarse centroids
  (trained on a sample), corpus bucketed by nearest centroid; queries probe
  only the ``nprobe`` nearest buckets.
- :func:`embedding_near_dups` — near-duplicate pairs by cosine ≥ threshold,
  candidates from random-hyperplane LSH buckets (seeded), verified exactly
  by the shared LSH verify (``dedup._bucket_pairs``).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from flashray.datapipe.dedup import _band_rows, _bucket_pairs
from flashray.joins import bucket_map, topk_per_group


def _stack(col) -> np.ndarray:
    """list<float> column (Arrow or pandas) → (n, d) float32 matrix."""
    if isinstance(col, (pa.ChunkedArray, pa.Array)):
        arr = col.to_numpy(zero_copy_only=False)
    else:
        arr = np.asarray(col)
    return np.stack([np.asarray(v, dtype=np.float32) for v in arr])


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-12)


def _brute_force_topk(
    batch: pa.Table, *, queries_ref, k: int, vec_col: str, id_col: str
) -> pa.Table:
    """Local top-k (query_id, vec_id, score) rows of a batch against the
    broadcast normalized (nq, d) query matrix."""
    vecs = _normalize(_stack(batch[vec_col]))  # (n, d)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    scores = ray.get(queries_ref) @ vecs.T  # (nq, n)
    qid, vid, sc = _local_topk(scores, ids, min(k, scores.shape[1]))
    return pa.table({"query_id": qid, "vec_id": vid, "score": sc})


def _local_topk(scores: np.ndarray, ids: np.ndarray, k: int):
    """Per-query local top-k honoring the (score desc, vec_id asc) global
    tie-break: argpartition alone keeps an ARBITRARY subset of score-tied
    candidates at the k boundary, which can drop a tied smaller vec_id that
    the global reduce would have kept. Widen to every candidate tied with
    the k-th score, order by (-score, vec_id), cut at k."""
    nq = scores.shape[0]
    top = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(scores, top, axis=1).min(axis=1)  # (nq,)
    out_q, out_v, out_s = [], [], []
    for qi in range(nq):
        cand = np.flatnonzero(scores[qi] >= kth[qi])
        order = np.lexsort((ids[cand], -scores[qi][cand]))[:k]
        sel = cand[order]
        out_q.append(np.full(len(sel), qi, dtype=np.int64))
        out_v.append(ids[sel])
        out_s.append(scores[qi][sel].astype(np.float64))
    return (
        np.concatenate(out_q),
        np.concatenate(out_v),
        np.concatenate(out_s),
    )


def knn_brute_force(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    *,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    batch_size: int = 4096,
) -> pd.DataFrame:
    """Exact cosine top-k for each query row. Returns (query_id, vec_id,
    score) sorted by (query_id, -score, vec_id); deterministic tie-break."""
    local = ds.select_columns([id_col, vec_col]).map_batches(
        _brute_force_topk,
        fn_kwargs={
            "queries_ref": ray.put(
                _normalize(np.asarray(queries, dtype=np.float32))
            ),
            "k": k,
            "vec_col": vec_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    out = topk_per_group(
        local, ["query_id"], ["score", "vec_id"], k, descending=[True, False]
    )
    return (
        out.to_pandas()
        .sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )


def train_centroids(
    ds: ray.data.Dataset,
    *,
    num_centroids: int = 16,
    vec_col: str = "embedding",
    sample_frac: float | None = None,
    max_train_rows: int = 65536,
    iters: int = 10,
    seed: int = 42,
) -> np.ndarray:
    """Seeded Lloyd's k-means coarse quantizer, trained on a BOUNDED
    sample: at most ``max_train_rows`` rows reach the driver regardless of
    corpus size (an unbounded ``to_pandas`` of the corpus is the thing
    that dies at 100×). ``sample_frac`` overrides the auto fraction."""
    sample = ds.select_columns([vec_col])
    if sample_frac is None:
        n = ds.count()
        sample_frac = min(1.0, max_train_rows / max(n, 1))
    if sample_frac < 1.0:
        sample = sample.random_sample(sample_frac, seed=seed)
    X = _normalize(_stack(sample.to_pandas()[vec_col]))
    rng = np.random.default_rng(seed)
    cent = X[rng.choice(len(X), size=min(num_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ cent.T, axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = X[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


def build_ivf_index(
    ds: ray.data.Dataset,
    index_dir: str,
    *,
    num_centroids: int = 16,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_train_rows: int = 65536,
    seed: int = 42,
) -> np.ndarray:
    """Materialize a real IVF index: corpus hive-partitioned ON DISK by
    nearest-centroid bucket (``buckets/cent=<c>/``) + saved centroids.
    Queries then read ONLY their probed buckets — the point of IVF: probed
    bytes ∝ nprobe/num_centroids of the corpus, not a masked full scan."""
    import os

    cent = train_centroids(
        ds,
        num_centroids=num_centroids,
        vec_col=vec_col,
        max_train_rows=max_train_rows,
        seed=seed,
    )
    cent_ref = ray.put(cent)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        vecs = _normalize(_stack(b[vec_col]))
        cent_id = np.argmax(vecs @ c.T, axis=1).astype(np.int64)
        return pa.table(
            {id_col: b[id_col], vec_col: b[vec_col], "cent": cent_id}
        )

    os.makedirs(index_dir, exist_ok=True)
    ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(
        os.path.join(index_dir, "buckets"), partition_cols=["cent"],
        mode="overwrite",
    )
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    return cent


def _ivf_topk(
    batch: pa.Table, *, index_ref, k: int, vec_col: str, id_col: str
) -> pa.Table:
    """Local top-k of a batch of probed-bucket rows: each row's bucket is
    re-derived from the broadcast centroids, and a query scores only the
    rows of the buckets it probes."""
    cent, q, allowed = ray.get(index_ref)
    vecs = _normalize(_stack(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    bucket = np.argmax(vecs @ cent.T, axis=1)  # (n,)
    scores = np.where(allowed[:, bucket], q @ vecs.T, -np.inf)  # (nq, n)
    qid, vid, sc = _local_topk(scores, ids, min(k, scores.shape[1]))
    keep = np.isfinite(sc)
    return pa.table(
        {"query_id": qid[keep], "vec_id": vid[keep], "score": sc[keep]}
    )


def knn_ivf(
    ds: ray.data.Dataset | None,
    queries: np.ndarray,
    *,
    index_dir: str,
    k: int = 10,
    nprobe: int = 4,
    num_centroids: int = 16,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 42,
) -> pd.DataFrame:
    """IVF top-k over a disk-bucketed index (built from ``ds`` on first
    use; pass ``ds=None`` to require an existing index). Only the union of
    the queries' ``nprobe`` nearest buckets is READ — bucket membership is
    re-derived per batch from the saved centroids (cheap argmax) so each
    query scores only rows of its own probe set. Approximate; recall grows
    with nprobe (nprobe = num_centroids → exact)."""
    import os

    cpath = os.path.join(index_dir, "centroids.npy")
    if not os.path.exists(cpath):
        if ds is None:
            raise FileNotFoundError(f"no IVF index at {index_dir}")
        cent = build_ivf_index(
            ds, index_dir, num_centroids=num_centroids, vec_col=vec_col,
            id_col=id_col, seed=seed,
        )
    else:
        cent = np.load(cpath)
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    needed = np.unique(probe)
    dirs = []
    for c in needed:
        d = os.path.join(index_dir, "buckets", f"cent={int(c)}")
        if os.path.isdir(d):
            # expand to files: read_parquet takes a dir singly but not a
            # list of dirs
            dirs.extend(
                sorted(
                    os.path.join(d, f)
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
            )
    if not dirs:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype="int64"),
             "vec_id": pd.Series(dtype="int64"),
             "score": pd.Series(dtype="float64")}
        )
    sub = ray.data.read_parquet(dirs)

    # allowed[q, c]: query q probes bucket c
    allowed = np.zeros((len(q), len(cent)), dtype=bool)
    allowed[np.arange(len(q))[:, None], probe] = True
    local = sub.map_batches(
        _ivf_topk,
        fn_kwargs={
            "index_ref": ray.put((cent, q, allowed)),
            "k": k,
            "vec_col": vec_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
    )

    out = topk_per_group(
        local, ["query_id"], ["score", "vec_id"], k, descending=[True, False]
    )
    return (
        out.to_pandas()
        .sort_values(["query_id", "score", "vec_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )


def _carried_keys(sigs: np.ndarray, *, tables: int) -> np.ndarray:
    """The (n, tables) LSH bucket keys a cosine signature carries in its
    first ``tables`` values: sign bits come from float math, so the verify
    reads them back and never recomputes them."""
    return sigs[:, :tables].astype(np.int64)


def _cosine(x: np.ndarray, y: np.ndarray, *, tables: int, threshold: float):
    """Cosine compare, row by row: dot product of the unit vectors stored
    (as float64 bits) after the carried keys, and whether it reaches
    ``threshold``."""
    cos = np.einsum(
        "ij,ij->i", x[:, tables:].view(np.float64), y[:, tables:].view(np.float64)
    )
    return cos >= threshold, cos


@functools.lru_cache(maxsize=None)
def _cosine_planes(seed: int, num_tables: int, num_planes: int, width: int) -> np.ndarray:
    """The (tables, planes, width) random hyperplanes of
    :func:`embedding_near_dups`, drawn from ``seed`` once per worker
    process and vector width."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_tables, num_planes, width)).astype(np.float32)


def _cosine_band_rows(
    batch: pa.Table, *, seed: int, num_tables: int, num_planes: int,
    vec_col: str, id_col: str,
) -> pa.Table:
    """Random-hyperplane LSH band rows, one per (item, table) keyed by
    (table << planes) | the table's sign signature. Each row's signature
    carries the item's per-table keys, then its unit vector as float64
    bits, for :func:`_carried_keys` and :func:`_cosine`. The planes come
    from the width of the batch's own vectors; an empty batch yields no
    rows. The signature is a ``list<uint64>``, not a fixed-size list, so
    an empty batch (whose vector width is unknown) has the same schema as
    every other."""
    if batch.num_rows:
        vecs = _normalize(_stack(batch[vec_col]))
    else:
        vecs = np.empty((0, 0), dtype=np.float32)
    planes = _cosine_planes(seed, num_tables, num_planes, vecs.shape[1])
    # (T, n, P) sign bits -> per-table integer signature
    bits = np.einsum("tpd,nd->tnp", planes, vecs) > 0
    sig = (bits * (1 << np.arange(num_planes, dtype=np.int64))).sum(axis=2)
    table_id = np.arange(num_tables, dtype=np.int64)[:, None]
    sigs = np.column_stack(
        [((table_id << num_planes) | sig).T, vecs.astype(np.float64).view(np.int64)]
    ).view(np.uint64)
    offsets = np.arange(len(sigs) + 1, dtype=np.int32) * sigs.shape[1]
    sig_col = pa.ListArray.from_arrays(pa.array(offsets), pa.array(sigs.ravel()))
    return _band_rows(
        pa.table({"doc_id": batch[id_col], "signature": sig_col}),
        id_col="doc_id",
        keys=functools.partial(_carried_keys, tables=num_tables),
    )


def embedding_near_dups(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.95,
    num_planes: int = 8,
    num_tables: int = 16,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 42,
) -> ray.data.Dataset:
    """Cosine near-duplicate pairs (a < b, cosine ≥ threshold).

    Candidates come from MULTI-TABLE random-hyperplane LSH: ``num_tables``
    independent sign-signatures of ``num_planes`` planes each; a pair is a
    candidate if it collides in ANY table (OR-amplification). A single
    table misses a 0.95-cosine pair whenever one plane separates it
    (p ≈ 1-(1-acos(s)/π)^planes); with 16 tables of 8 planes the miss
    probability at s = 0.95 is < 1e-6. Candidates are verified exactly by
    ``dedup._bucket_pairs`` behind one bucket shuffle on the table key:
    each band row carries its item's per-table keys and unit vector, and
    a pair is emitted once, from the lowest table in which it collides.
    Exact duplicates (s = 1) collide in EVERY table — recall 1 by
    construction. The planes are a ``seed``-determined draw for the
    vectors' width, made inside each band-row task, so the input runs
    once."""
    keys = functools.partial(_carried_keys, tables=num_tables)
    verify = functools.partial(
        _bucket_pairs, keys=keys, value="cosine",
        compare=functools.partial(_cosine, tables=num_tables, threshold=threshold),
    )
    rows = ds.select_columns([id_col, vec_col]).map_batches(
        _cosine_band_rows,
        fn_kwargs={
            "seed": seed, "num_tables": num_tables, "num_planes": num_planes,
            "vec_col": vec_col, "id_col": id_col,
        },
        batch_format="pyarrow",
    )
    return bucket_map(rows, ["bucket"], verify, num_buckets=64)


def embedding_moments(
    ds: ray.data.Dataset, col: str = "embedding"
) -> tuple[int, np.ndarray, np.ndarray]:
    """Exact streaming first/second moments of an embedding column:
    per batch ONE partial row (count, Σx, ΣxxT flattened — O(d²) bytes),
    tiny driver reduce. Returns (n, mean, population covariance) — the
    sufficient statistics for whitening/PCA, computed in one pass with no
    shuffle."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack([np.asarray(v, dtype=np.float64) for v in b[col]])
        return pd.DataFrame(
            {
                "n": [len(X)],
                "s": [X.sum(axis=0)],
                "ss": [(X.T @ X).ravel()],
            }
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    if n == 0:
        raise ValueError("embedding_moments: empty dataset")
    s = np.sum(np.stack(parts["s"].to_numpy()), axis=0)
    ss = np.sum(np.stack(parts["ss"].to_numpy()), axis=0)
    d = len(s)
    mean = s / n
    cov = ss.reshape(d, d) / n - np.outer(mean, mean)
    return n, mean, cov


def pca_components(
    ds: ray.data.Dataset, k: int, col: str = "embedding"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k principal components from the streamed covariance (the d×d
    eigendecomposition runs on the driver — d is the embedding width, not
    the corpus). Sign-fixed deterministically (largest-|coord| entry
    positive). Returns (eigenvalues desc, components (k, d), mean)."""
    _, mean, cov = embedding_moments(ds, col)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    vals, comps = w[order], v[:, order].T
    for i in range(len(comps)):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return vals, comps, mean

def pca_project(
    ds: ray.data.Dataset,
    components: np.ndarray,
    mean: np.ndarray,
    *,
    col: str = "embedding",
    out_col: str = "pca",
) -> ray.data.Dataset:
    """Project embeddings onto broadcast components: one ray.put of the
    (k, d) matrix, a per-batch matmul — no shuffle."""
    comp_ref = ray.put(np.asarray(components, dtype=np.float64))
    mean_ref = ray.put(np.asarray(mean, dtype=np.float64))

    def project(b: pd.DataFrame) -> pd.DataFrame:
        C = ray.get(comp_ref)
        m = ray.get(mean_ref)
        X = np.stack([np.asarray(v, dtype=np.float64) for v in b[col]])
        P = (X - m) @ C.T
        out = b.copy()
        out[out_col] = list(P)
        return out

    return ds.map_batches(project, batch_format="pandas")


def silhouette(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    label_col: str = "label",
    sample_n: int | None = 10_000,
) -> float:
    """Mean silhouette coefficient (Rousseeuw 1987) of a labeled embedding
    set under Euclidean distance: a(i) = mean distance to i's own cluster
    (excluding i), b(i) = min over other clusters of the mean distance,
    s(i) = (b−a)/max(a,b); singleton-cluster points score 0 (sklearn
    convention). The cluster-quality check for any labeling — k-means
    output, LSH buckets, or a provided ground-truth column.

    Distributed shape: the REFERENCE side is a deterministic
    ``sample_n``-subset (default 10k — exact silhouette is inherently
    all-pairs, so the SAFE path is the default; pass an explicit
    ``sample_n=None`` to opt into the exact mode, which collects the
    whole table) chosen by the ``sample_n`` smallest splitmix64(id)
    keys. The subset is pruned DISTRIBUTEDLY — per-block top-k, an
    8-way fold, then the final driver top-k over ≤ 8·sample_n rows —
    so the driver never sees the full table. The reference is broadcast
    once via ``ray.put``; each batch computes its rows' per-cluster
    distance sums against it with one f64 matmul and emits a single
    partial (Σs, n) row. No shuffle; O(batch × reference) flops,
    O(d·reference) broadcast bytes."""
    import pandas as pd

    from flashray.ids import _splitmix64

    cols_ds = ds.select_columns([id_col, vec_col, label_col])
    if sample_n is not None:
        k = int(sample_n)

        def prune(df: pd.DataFrame) -> pd.DataFrame:
            # splitmix64 is a bijection on int64 ids -> no hash ties,
            # so per-block top-k composes to the exact global top-k
            if len(df) <= k:
                return df
            h = _splitmix64(
                df[id_col].to_numpy().astype(np.int64).view(np.uint64)
            )
            keep = np.argpartition(h, k)[:k]
            return df.iloc[np.sort(keep)]

        cols_ds = (
            cols_ds.map_batches(prune, batch_format="pandas")
            .repartition(8)
            .map_batches(prune, batch_format="pandas")
        )
    cols = cols_ds.to_pandas()
    ids_all = cols[id_col].to_numpy().astype(np.int64)
    if sample_n is not None and sample_n < len(cols):
        order = np.argsort(
            _splitmix64(ids_all.view(np.uint64)), kind="stable"
        )[: int(sample_n)]
        cols = cols.iloc[np.sort(order)]
        ids_all = cols[id_col].to_numpy().astype(np.int64)
    # sort the reference by id: the per-batch self-column lookup uses
    # searchsorted against this array
    srt = np.argsort(ids_all, kind="stable")
    cols = cols.iloc[srt]
    ids_all = ids_all[srt]
    R = np.stack(
        [np.asarray(v, dtype=np.float64) for v in cols[vec_col]]
    )  # (m, d) reference matrix
    rlab = cols[label_col].to_numpy().astype(np.int64)
    labs, rlab_codes = np.unique(rlab, return_inverse=True)
    onehot = np.zeros((len(R), len(labs)))
    onehot[np.arange(len(R)), rlab_codes] = 1.0
    csize = onehot.sum(axis=0)  # (k,)
    ref = ray.put((R, (R * R).sum(axis=1), onehot, csize, ids_all))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        Rm, rsq, oh, cs, rid = ray.get(ref)
        X = np.stack([np.asarray(v, dtype=np.float64) for v in b[vec_col]])
        xid = b[id_col].to_numpy().astype(np.int64)
        xlab = b[label_col].to_numpy().astype(np.int64)
        xcode = np.clip(np.searchsorted(labs, xlab), 0, len(labs) - 1)
        own_in_ref = labs[xcode] == xlab  # sampled ref may miss a cluster
        D = np.sqrt(
            np.maximum(
                (X * X).sum(axis=1)[:, None] + rsq[None, :] - 2.0 * (X @ Rm.T),
                0.0,
            )
        )  # (n, m)
        # zero the self column for rows present in the reference
        pos = np.searchsorted(rid, xid)
        pos_valid = (pos < len(rid)) & (rid[np.minimum(pos, len(rid) - 1)] == xid)
        D[np.flatnonzero(pos_valid), pos[pos_valid]] = 0.0
        sums = D @ oh  # (n, k) per-cluster distance sums
        own_n = cs[xcode] - pos_valid  # exclude self from own-cluster mean
        with np.errstate(invalid="ignore", divide="ignore"):
            a = sums[np.arange(len(X)), xcode] / own_n
            means = sums / cs[None, :]
            means[np.arange(len(X)), xcode] = np.inf
            means[:, cs == 0] = np.inf
            bmin = means.min(axis=1)
            s = np.where(
                (own_n <= 0) | ~own_in_ref | ~np.isfinite(bmin),
                0.0,
                (bmin - a) / np.maximum(np.maximum(a, bmin), 1e-300),
            )
        return pd.DataFrame({"s_sum": [float(s.sum())], "n": [len(X)]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    if n == 0:
        raise ValueError("silhouette: empty dataset")
    return float(parts["s_sum"].sum() / n)


def semdedup(
    ds: ray.data.Dataset,
    *,
    k: int = 64,
    threshold: float = 0.95,
    max_iters: int = 1,
    init: str = "hash",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_buckets: int | None = None,
    chunk_rows: int = 2048,
    round_dp: int = 6,
    centroids: np.ndarray | None = None,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication = k-means over the embedding space, then exact pairwise
    cosine INSIDE each cluster only — the clustering bounds the O(n²)
    pairwise stage to O(Σ n_c²) without an all-pairs shuffle.

    Keep rule: within a cluster, a vector is a duplicate iff some LOWER-id
    member has ``round(cosine, round_dp) ≥ threshold`` (the paper keeps the
    point farthest from the centroid; lowest-id is this repo's
    deterministic, SQL-replayable convention — same rule as
    ``dedup.exact_dedup``). Marking is independent per vector (EXISTS
    semantics, not transitive chaining), so the result is
    partition-invariant and exactly expressible in SQL.

    Distributed shape: clustering reuses :func:`flashray.datapipe.kmeans`
    (broadcast centroids, per-batch partial sums — no shuffle); one
    assignment pass tags each vector with its cluster; ONE ``bucket_map``
    on the cluster (millions of clusters never become millions of Ray
    groups); per bucket a C groupby walks its
    clusters, each pruned by a CHUNKED normalized matmul (``chunk_rows`` ×
    n_c slabs) so a hot cluster never materializes an n_c² float matrix.
    At 100 TB the knob that matters is k: SemDeDup runs with k ≈ √N or
    larger, keeping E[n_c²] bounded; pass ``centroids=`` to reuse a
    pre-trained quantizer (e.g. from :func:`train_centroids`).
    """
    from flashray.datapipe import kmeans as km

    if centroids is None:
        centroids, _ = km.kmeans(
            ds,
            k=k,
            max_iters=max_iters,
            tol=0.0,
            vec_col=vec_col,
            id_col=id_col,
            init=init,
        )
    cents = np.asarray(centroids, dtype=np.float64)
    nb = int(num_buckets) if num_buckets else min(len(cents), 64)
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "cluster": pa.array([], type=pa.int64()),
                    "vec": pa.array([], type=pa.list_(pa.float64())),
                }
            )
        x = _stack(batch[vec_col]).astype(np.float64)
        cl, _ = km._assign(x, ray.get(ref))
        xn = _normalize(x)
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "cluster": pa.array(cl),
                "vec": pa.array(list(xn)),
            }
        )

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for cl, sub in g.groupby("cluster", sort=False):
            sub = sub.sort_values(id_col)
            ids = sub[id_col].to_numpy()
            n = len(ids)
            dup = np.zeros(n, dtype=bool)
            if n > 1:
                X = np.stack([np.asarray(v) for v in sub["vec"]])
                cols = np.arange(n)[None, :]
                for a in range(0, n, chunk_rows):
                    b = min(a + chunk_rows, n)
                    S = np.round(X[a:b] @ X.T, round_dp)
                    hit = (S >= threshold) & (cols > np.arange(a, b)[:, None])
                    dup |= hit.any(axis=0)
            frames.append(
                pd.DataFrame(
                    {
                        id_col: ids,
                        "cluster": np.full(n, cl, dtype=np.int64),
                        "is_dup": dup,
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "cluster": pd.Series(dtype="int64"),
                    "is_dup": pd.Series(dtype="bool"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    return bucket_map(
        ds.select_columns([id_col, vec_col]).map_batches(
            assign, batch_format="pyarrow"
        ),
        ["cluster"],
        prune,
        num_buckets=nb,
    )


def kcenter_coreset(
    ds: ray.data.Dataset,
    k: int,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    batch_size: int = 4096,
) -> pd.DataFrame:
    """Greedy k-center (farthest-point) coreset selection — the classic
    2-approximation (Gonzalez 1985) used for training-data pruning /
    active-learning acquisition (Sener & Savarese 2018): seed with the
    LOWEST id, then k−1 times add the point farthest from the selected
    set. Returns pd.DataFrame (order, vec_id, radius) with ``radius`` =
    the selected point's min squared-euclidean distance to the prior
    centers (6-dp ROUNDED — a monotone nonincreasing covering-radius
    curve; k driver rows total). Stops early once the covering radius
    hits 0.0 (every remaining point duplicates a center).

    Determinism/SQL-parity: squared distance via the inner-product
    identity ``⟨x,x⟩ − 2⟨x,c⟩ + ⟨c,c⟩`` in float64, ROUNDED to 6 dp
    BEFORE min/argmax comparisons, ties → lowest id — DuckDB replays
    every round with ``list_inner_product`` + the same rounding (the
    repo-wide rounded-ranking convention; an unrounded argmax can flip
    on 1-ulp libm differences).

    Distributed shape: the working set (id, vec, mind) stays in the
    object store; each of the k rounds is ONE streaming map_batches pass
    that (a) folds the single new center (d floats, closure-shipped)
    into ``mind`` and (b) emits one candidate partial row per BATCH
    (its max-mind winner + vector), so the driver reduces O(blocks)
    rows per round and never sees the corpus. Inherently k sequential
    passes — the greedy rule is data-dependent; that is the algorithm,
    not an implementation shortcut."""
    base = ds.select_columns([id_col, vec_col])

    def prep(b: pa.Table) -> pa.Table:
        vecs = _stack(b[vec_col]).astype(np.float64)
        # fixed-size list keeps every later pass a zero-copy
        # flatten+reshape instead of a per-row Python rebuild
        v = pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.ravel()), vecs.shape[1] if len(vecs) else 1
        )
        return pa.table(
            {
                "vec_id": b[id_col].cast(pa.int64()),
                "v": v,
                "mind": pa.array(
                    np.full(b.num_rows, np.inf, dtype=np.float64)
                ),
            }
        )

    cur = base.map_batches(prep, batch_format="pyarrow").materialize()

    def _vecs(col, d: int) -> np.ndarray:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return np.asarray(arr.flatten(), dtype=np.float64).reshape(-1, d)

    def seed_partial(b: pa.Table) -> pa.Table:
        b = b.select(["vec_id", "v"])
        ids = b["vec_id"].to_numpy()
        if not len(ids):
            return b.slice(0, 0)  # zero-row slice keeps the exact types
        return b.slice(int(np.argmin(ids)), 1)

    seeds = cur.map_batches(seed_partial, batch_format="pyarrow").to_pandas()
    if not len(seeds):
        return pd.DataFrame(
            {"order": pd.Series([], dtype=np.int64),
             "vec_id": pd.Series([], dtype=np.int64),
             "radius": pd.Series([], dtype=np.float64)}
        )
    s0 = seeds.sort_values("vec_id").iloc[0]
    center = np.asarray(s0["v"], dtype=np.float64)
    out = [(0, int(s0["vec_id"]), 0.0)]

    for r in range(1, k):
        c = center  # rebind: closures capture the loop variable fresh
        cc = float(c @ c)

        def fold(b: pa.Table, c=c, cc=cc) -> pa.Table:
            vecs = (
                _vecs(b["v"], len(c)) if b.num_rows
                else np.zeros((0, len(c)))
            )
            d2 = np.round(
                np.einsum("ij,ij->i", vecs, vecs) - 2.0 * (vecs @ c) + cc, 6
            )
            # exact-zero clamp: the identity can go -1e-7 on a duplicate
            mind = np.minimum(
                b["mind"].to_numpy(), np.maximum(d2, 0.0)
            )
            return pa.table({"vec_id": b["vec_id"], "v": b["v"],
                             "mind": pa.array(mind)})

        cur = cur.map_batches(
            fold, batch_format="pyarrow", batch_size=batch_size
        ).materialize()

        def cand_partial(b: pa.Table) -> pa.Table:
            b = b.select(["vec_id", "v", "mind"])
            if not b.num_rows:
                return b.slice(0, 0)
            mind = b["mind"].to_numpy()
            best = mind.max()
            if best <= 0.0:
                return b.slice(0, 0)
            ids = b["vec_id"].to_numpy()
            tied = np.flatnonzero(mind == best)
            return b.slice(int(tied[np.argmin(ids[tied])]), 1)

        cands = cur.map_batches(
            cand_partial, batch_format="pyarrow"
        ).to_pandas()
        if not len(cands):
            break  # covering radius 0 — coreset complete
        w = cands.sort_values(
            ["mind", "vec_id"], ascending=[False, True]
        ).iloc[0]
        center = np.asarray(w["v"], dtype=np.float64)
        out.append((r, int(w["vec_id"]), float(w["mind"])))

    return pd.DataFrame(out, columns=["order", "vec_id", "radius"]).astype(
        {"order": np.int64, "vec_id": np.int64, "radius": np.float64}
    )


def centroid_outliers(
    ds: ray.data.Dataset,
    *,
    centroids: np.ndarray,
    pct: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    round_dp: int = 6,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Embedding outlier detection for corpus cleaning: each vector's
    distance to its NEAREST centroid (euclidean, ``round_dp``-rounded;
    tie → lowest cluster id, the repo's kmeans convention), flagged
    ``is_outlier`` when the distance exceeds the EXACT ``pct`` quantile
    of all distances (``sketches.exact_quantiles``, the
    quantile_disc-bit-matched rule — so the gate value is identical in
    a SQL replay). The standard prune-the-tail data-cleaning step after
    clustering (cf. SemDeDup's inverse: keep typical, drop anomalous).

    Distributed shape: centroids broadcast once (``ray.put``), one
    streaming assignment pass (direct Σ(a−b)² per centroid — the same
    expression tree as SQL ``list_distance``), one global sort for the
    exact quantile, one streaming flag pass. Returns a Dataset
    (vec_id, cluster, dist, is_outlier)."""
    from flashray.datapipe.sketches import exact_quantiles

    cents = np.asarray(centroids, dtype=np.float64)
    ref = ray.put(cents)

    def assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "dist": pa.array([], pa.float64()),
                }
            )
        X = _stack(b[vec_col]).astype(np.float64)
        C = ray.get(ref)
        # (n, k) squared distances, direct (a-b)^2 sums — same tree as
        # SQL list_distance (sqrt applied after the min, monotone-safe)
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=-1)
        cl = np.argmin(d2, axis=1)  # np.argmin keeps the FIRST (lowest) tie
        dist = np.round(np.sqrt(d2[np.arange(len(X)), cl]), round_dp)
        return pa.table(
            {
                "vec_id": b[id_col].cast(pa.int64()),
                "cluster": pa.array(cl.astype(np.int64)),
                "dist": pa.array(dist),
            }
        )

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow", batch_size=batch_size
    ).materialize()
    thr = exact_quantiles(assigned, "dist", [float(pct)])[float(pct)]

    def flag(b: pa.Table) -> pa.Table:
        d = b["dist"].to_numpy()
        return b.append_column(
            "is_outlier", pa.array((d > thr).astype(np.int64))
        )

    return assigned.map_batches(flag, batch_format="pyarrow")


def embedding_diversity(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    round_dp: int = 6,
) -> pd.DataFrame:
    """Corpus embedding-diversity summary: the MEAN PAIRWISE COSINE over
    all n(n−1)/2 unit-normalized vector pairs, computed WITHOUT any
    pairwise work via the sum-vector identity

        mean_cos = (‖Σ x̂‖² − n) / (n(n−1)),

    (Σ over unit vectors; ‖Σx̂‖² = Σ_ij x̂_i·x̂_j counts each pair twice
    plus the n self-pairs). Lower = more diverse — the data-curation
    dashboard number behind "is this corpus collapsing to near-dups".
    ONE streaming pass: each block ships a d-float partial sum + a
    count (the moments shape); the driver folds O(blocks) rows.
    Returns a one-row pd.DataFrame (n, mean_cos)."""

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {"s": pa.array([], pa.binary()),
                 "n": pa.array([], pa.int64())}
            )
        X = _stack(b[vec_col]).astype(np.float64)
        Xn = X / np.sqrt((X * X).sum(axis=1, keepdims=True))
        return pa.table(
            {"s": [Xn.sum(axis=0).tobytes()], "n": [len(X)]}
        )

    parts = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pyarrow"
    ).to_pandas()
    if not len(parts) or parts["n"].sum() < 2:
        raise ValueError("embedding_diversity needs at least 2 vectors")
    S = np.stack(
        [np.frombuffer(b, dtype=np.float64) for b in parts["s"].to_numpy()]
    ).sum(axis=0)
    n = int(parts["n"].sum())
    mean_cos = (float(S @ S) - n) / (n * (n - 1))
    return pd.DataFrame(
        {"n": np.array([n], dtype=np.int64),
         "mean_cos": [round(mean_cos, round_dp)]}
    )


@functools.lru_cache(maxsize=None)
def _sign_matrix(in_dim: int, out_dim: int, seed: int) -> np.ndarray:
    """The (in_dim, out_dim) ±1/√m Achlioptas matrix of
    :func:`random_projection`, rebuilt once per worker process from the
    sha256 convention (deterministic in (seed, j, k) — no RNG state to
    ship, SQL-replayable by hash parity)."""
    from flashray.datapipe.sketches import _sha_u64

    bits = _sha_u64(
        [f"rp|{seed}|{j}|{k}" for j in range(in_dim) for k in range(out_dim)]
    ) & np.uint64(1)
    return (
        bits.astype(np.float64).reshape(in_dim, out_dim) * 2.0 - 1.0
    ) / np.sqrt(out_dim)


def _sign_project(
    batch: pa.Table, *, in_dim: int, out_dim: int, seed: int, vec_col: str,
    id_col: str,
) -> pa.Table:
    """Long-form (vec_id, k, v) sign random projection of a batch: one
    matmul against :func:`_sign_matrix`."""
    R = _sign_matrix(in_dim, out_dim, seed)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    X = np.stack(
        [np.asarray(v, dtype=np.float64)
         for v in batch[vec_col].to_numpy(zero_copy_only=False)]
    ) if len(ids) else np.zeros((0, in_dim))
    Y = X @ R
    return pa.table(
        {
            "vec_id": pa.array(np.repeat(ids, out_dim).astype(np.int64)),
            "k": pa.array(np.tile(np.arange(out_dim, dtype=np.int64), len(ids))),
            "v": pa.array(Y.reshape(-1)),
        }
    )


def random_projection(
    ds,
    in_dim: int,
    out_dim: int,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 0,
):
    """Johnson–Lindenstrauss sign random projection (Achlioptas 2003,
    *Database-friendly random projections*): project ``in_dim`` vectors
    to ``out_dim`` with a ±1/√m matrix — pairwise distances preserved to
    (1±ε) w.h.p. at m = O(log n / ε²), with NO training pass (contrast
    :func:`pca_components`, which needs a moments pass). The projection
    completes in-batch (zero shuffles, one matmul per batch); the matrix
    is deterministic in (seed, j, k) via the repo's sha256 convention, so
    a DuckDB oracle replays every output value by hash parity. Returns
    LONG form (vec_id, k, v) — one row per output coordinate."""
    return ds.select_columns([id_col, vec_col]).map_batches(
        _sign_project,
        fn_kwargs={
            "in_dim": in_dim,
            "out_dim": out_dim,
            "seed": seed,
            "vec_col": vec_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _hard_negative_topk(
    batch: pa.Table, *, anchors_ref, k: int, vec_col: str, id_col: str,
    label_col: str,
) -> pa.Table:
    """Cosine scores of a batch against the broadcast (anchor ids,
    normalized anchor matrix, anchor labels), with same-label candidates
    (and the anchor itself) masked to -inf, then the deterministic local
    top-k."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    if not len(ids):
        return pa.table(
            {"anchor_id": pa.array([], pa.int64()),
             "vec_id": pa.array([], pa.int64()),
             "score": pa.array([], pa.float64())}
        )
    aid, q, albl = ray.get(anchors_ref)
    lbls = batch[label_col].to_numpy(zero_copy_only=False)
    vecs = _normalize(_stack(batch[vec_col]))
    scores = q @ vecs.T
    scores[albl[:, None] == lbls[None, :]] = -np.inf
    scores[aid[:, None] == ids[None, :]] = -np.inf
    qidx, vid, sc = _local_topk(scores, ids, min(k, scores.shape[1]))
    keep = np.isfinite(sc)  # batches dominated by one label can
    # yield fewer than k valid candidates — drop the -inf fill
    return pa.table(
        {
            "anchor_id": pa.array(aid[qidx[keep]].astype(np.int64)),
            "vec_id": pa.array(vid[keep].astype(np.int64)),
            "score": pa.array(sc[keep]),
        }
    )


def hard_negatives(
    ds,
    anchors: "pd.DataFrame",
    *,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    label_col: str = "label",
    batch_size: int = 4096,
) -> pd.DataFrame:
    """Hard-negative mining for contrastive training pairs: for each
    anchor, the exact cosine top-k candidates with a DIFFERENT label
    (the anchor itself excluded). Anchors (a DataFrame with id/vec/label
    columns, typically a per-class sample) broadcast once via
    ``ray.put``; candidates stream through scorer tasks — one pass,
    no shuffle except the tiny per-anchor reduce. Same deterministic
    (score desc, vec_id asc) tie-break as :func:`knn_brute_force`; at
    corpus scale swap the scorer's full pass for the IVF/PQ shortlist.
    Returns (anchor_id, vec_id, score) rows, k per anchor."""
    aref = ray.put(
        (
            anchors[id_col].to_numpy(dtype=np.int64),
            _normalize(
                np.stack(
                    [np.asarray(v, dtype=np.float32) for v in anchors[vec_col]]
                )
            ),
            anchors[label_col].to_numpy(),
        )
    )
    local = ds.select_columns([id_col, vec_col, label_col]).map_batches(
        _hard_negative_topk,
        fn_kwargs={
            "anchors_ref": aref,
            "k": k,
            "vec_col": vec_col,
            "id_col": id_col,
            "label_col": label_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    out = topk_per_group(
        local, ["anchor_id"], ["score", "vec_id"], k, descending=[True, False]
    )
    return (
        out.to_pandas()
        .sort_values(
            ["anchor_id", "score", "vec_id"], ascending=[True, False, True]
        )
        .reset_index(drop=True)
    )
