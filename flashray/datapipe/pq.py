"""Product quantization (PQ) — compressed embedding codes + ADC kNN.

Scale rationale (the reason this exists at 100 TB): a d=64 float32
embedding is 256 B/vector, so a 10^11-vector corpus is ~25 TB of raw
vectors — too hot to keep resident for repeated similarity passes. PQ
splits each vector into ``m`` subvectors and quantizes each subspace
against its own tiny codebook; a vector becomes ``m`` small integers
(packed into ONE int64 here), a 32–64× compression that turns the whole
index into something the object store holds comfortably. Approximate
distances (ADC: per-query lookup tables over codebook cells, Jégou et
al., "Product Quantization for Nearest Neighbor Search", TPAMI 2011 —
public knowledge) need only the codes, never the raw vectors.

Ray-Data-first shapes:

- training = the kmeans.py Lloyd protocol run over ALL subspaces in one
  streaming pass per round (broadcast (m,k,sub) codebooks, per-batch
  vectorized assign + partial sums, O(m·k·d/m · blocks) driver fold);
- encoding = one streaming pass against the broadcast codebooks;
- ADC kNN = one streaming pass over the CODES (8 B/row, not 256 B),
  per-batch table lookups + the same local-top-k / global-merge fold as
  similarity.knn_brute_force.

Determinism mirrors kmeans.py exactly (lowest-id / splitmix64-hash
seeds, argmin ties to the smaller cluster id), so fixed-round PQ codes
are SQL-replayable per subspace — the driver oracle
``embeddings_pq_codes`` replays every subspace's Lloyd round in DuckDB
with ``list_distance`` over list slices.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from flashray.datapipe.kmeans import _seed_rows
from flashray.datapipe.similarity import _local_topk, _stack
from flashray.joins import topk_per_group


def _subspace_view(x: np.ndarray, m: int) -> np.ndarray:
    """(n, d) → (n, m, d/m) without copying (d must divide by m)."""
    n, d = x.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    return x.reshape(n, m, d // m)


def _assign_sub(xs: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(n, m, sub) × (m, k, sub) → (n, m) int64 per-subspace argmin
    assignments; ties to the smaller cluster id (kmeans.py convention)."""
    # d2[n, m, k] = sum over sub of (xs - cb)²
    d2 = (
        (xs[:, :, None, :] - cb[None, :, :, :]) ** 2
    ).sum(axis=3)
    return np.argmin(d2, axis=2).astype(np.int64)


def _pq_partials(batch: pa.Table, *, cb_ref, vec_col: str) -> pa.Table:
    """(subspace, cluster, count, sumvec) partial rows of a batch assigned
    to the broadcast (m, k, sub) codebooks."""
    if len(batch) == 0:
        return pa.table(
            {
                "sspace": pa.array([], type=pa.int64()),
                "cluster": pa.array([], type=pa.int64()),
                "count": pa.array([], type=pa.int64()),
                "sumvec": pa.array([], type=pa.list_(pa.float64())),
            }
        )
    cb = ray.get(cb_ref)
    mm, kk, ss = cb.shape
    x = _stack(batch[vec_col]).astype(np.float64)
    xs = _subspace_view(x, mm)
    a = _assign_sub(xs, cb)  # (n, m)
    counts = np.zeros((mm, kk), dtype=np.int64)
    sums = np.zeros((mm, kk, ss))
    for s in range(mm):
        counts[s] = np.bincount(a[:, s], minlength=kk)
        np.add.at(sums[s], a[:, s], xs[:, s, :])
    si = np.repeat(np.arange(mm, dtype=np.int64), kk)
    ci = np.tile(np.arange(kk, dtype=np.int64), mm)
    return pa.table(
        {
            "sspace": pa.array(si),
            "cluster": pa.array(ci),
            "count": pa.array(counts.ravel()),
            "sumvec": pa.array(list(sums.reshape(mm * kk, ss))),
        }
    )


def _pq_encode_rows(
    batch: pa.Table, *, cb_ref, vec_col: str, id_col: str
) -> pa.Table:
    """(id_col, pq_code) of each row against the broadcast codebooks."""
    if len(batch) == 0:
        return pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "pq_code": pa.array([], type=pa.int64()),
            }
        )
    cb = ray.get(cb_ref)
    m, k, _ = cb.shape
    weights = (k ** np.arange(m)).astype(np.int64)
    x = _stack(batch[vec_col]).astype(np.float64)
    a = _assign_sub(_subspace_view(x, m), cb)
    return pa.table(
        {
            id_col: batch[id_col].cast(pa.int64()),
            "pq_code": pa.array(a @ weights),
        }
    )


def _adc_topk(
    batch: pa.Table, *, lut_ref, k_neighbors: int, id_col: str
) -> pa.Table:
    """Local top-k of a batch of codes by ADC against the broadcast
    (nq, m, k) lookup tables; scores are negated squared distances."""
    if len(batch) == 0:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
    lut = ray.get(lut_ref)
    nq, m, k = lut.shape
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    a = pq_decode_codes(batch["pq_code"].to_numpy(zero_copy_only=False), m, k)
    d2 = np.zeros((nq, len(ids)))
    for s in range(m):
        d2 += lut[:, s, :][:, a[:, s]]
    kk = min(k_neighbors, d2.shape[1])
    qid, vid, sc = _local_topk(-d2, ids, kk)
    return pa.table({"query_id": qid, id_col: vid, "score": sc})


def _exact_rows(
    batch: pa.Table, *, shortlist_ref, vec_col: str, id_col: str
) -> pa.Table:
    """Exact (query_id, id_col, dist) of the batch rows on the broadcast
    shortlist: (vec_id, query_id) pairs sorted by vec_id, and the (nq, d)
    query matrix."""
    cv, cq, q = ray.get(shortlist_ref)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.searchsorted(cv, ids, side="left")
    hi = np.searchsorted(cv, ids, side="right")
    n_pairs = hi - lo
    rows = np.repeat(np.arange(len(ids)), n_pairs)
    if not len(rows):
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=pa.int64()),
                "dist": pa.array([], type=pa.float64()),
            }
        )
    # flat indices into the sorted pair list for each (row, match)
    flat = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi) if b > a])
    qi = cq[flat]
    x = _stack(batch[vec_col]).astype(np.float64)[rows]
    d = np.sqrt(((x - q[qi]) ** 2).sum(axis=1))
    return pa.table(
        {
            "query_id": pa.array(qi),
            id_col: pa.array(ids[rows]),
            "dist": pa.array(d),
        }
    )


def pq_train(
    ds: ray.data.Dataset,
    *,
    m: int = 8,
    k: int = 16,
    iters: int = 1,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    init: str = "lowest_ids",
    batch_size: int = 4096,
) -> np.ndarray:
    """Train per-subspace codebooks: returns (m, k, d/m) float64.

    Seeds are the subvectors of the k lowest-id (or lowest splitmix64(id))
    rows — the same rows for every subspace, so the oracle replays seeds
    once and slices. Each Lloyd round is ONE streaming pass emitting
    (subspace, cluster, count, sumvec) partials; the driver fold is
    O(m·k·(d/m)·blocks) regardless of corpus size. Empty clusters keep
    their previous centroid (kmeans.py degeneracy rule)."""
    seeds = _seed_rows(ds, k, vec_col, id_col, init)  # (k, d)
    cb = np.ascontiguousarray(
        _subspace_view(seeds, m).transpose(1, 0, 2)
    )  # (m, k, sub)
    sub = cb.shape[2]
    for _ in range(iters):
        parts = ds.select_columns([id_col, vec_col]).map_batches(
            _pq_partials,
            fn_kwargs={"cb_ref": ray.put(cb), "vec_col": vec_col},
            batch_format="pyarrow",
            batch_size=batch_size,
        ).to_pandas()
        counts = np.zeros((m, k), dtype=np.int64)
        sums = np.zeros((m, k, sub))
        si = parts["sspace"].to_numpy()
        ci = parts["cluster"].to_numpy()
        np.add.at(counts, (si, ci), parts["count"].to_numpy())
        sv = np.stack(
            [np.asarray(v, dtype=np.float64) for v in parts["sumvec"]]
        )
        np.add.at(sums, (si, ci), sv)
        cb = np.where(
            (counts > 0)[:, :, None],
            sums / np.maximum(counts, 1)[:, :, None],
            cb,
        )
    return cb


def pq_encode(
    ds: ray.data.Dataset,
    codebooks: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Stream the corpus against broadcast codebooks → Dataset
    (id_col, pq_code) with pq_code = Σ_s assign_s · k^s packed into one
    int64 (requires k^m ≤ 2^62)."""
    cb = np.asarray(codebooks, dtype=np.float64)
    m, k, _ = cb.shape
    if k ** m > 2 ** 62:
        raise ValueError(f"k={k}, m={m}: packed code exceeds int64")
    return ds.select_columns([id_col, vec_col]).map_batches(
        _pq_encode_rows,
        fn_kwargs={
            "cb_ref": ray.put(cb), "vec_col": vec_col, "id_col": id_col
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def pq_decode_codes(packed: np.ndarray, m: int, k: int) -> np.ndarray:
    """(n,) packed int64 → (n, m) per-subspace assignments."""
    packed = np.asarray(packed, dtype=np.int64)
    out = np.empty((len(packed), m), dtype=np.int64)
    rem = packed.copy()
    for s in range(m):
        out[:, s] = rem % k
        rem //= k
    return out


def pq_knn(
    codes: ray.data.Dataset,
    queries: np.ndarray,
    codebooks: np.ndarray,
    *,
    k_neighbors: int = 10,
    id_col: str = "vec_id",
    batch_size: int = 65536,
) -> pd.DataFrame:
    """Approximate top-k by ADC over the COMPRESSED codes: per query,
    an (m, k) lookup table of subspace distances to every codebook cell;
    a row's approximate ||q − x||² is m table gathers + a sum — the raw
    vectors are never read. Returns (query_id, vec_id, approx_dist)
    sorted by (query_id, approx_dist, vec_id); ties to smaller vec_id
    (the similarity.knn_brute_force fold, distances negated into its
    score-descending convention)."""
    cb = np.asarray(codebooks, dtype=np.float64)
    m = cb.shape[0]
    q = np.asarray(queries, dtype=np.float64)
    qs = _subspace_view(q, m)  # (nq, m, sub)
    # lut[qi, s, j] = ||q_s − c_{s,j}||²
    lut = ((qs[:, :, None, :] - cb[None, :, :, :]) ** 2).sum(axis=3)
    local = codes.map_batches(
        _adc_topk,
        fn_kwargs={
            "lut_ref": ray.put(lut),
            "k_neighbors": k_neighbors,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    out = topk_per_group(
        local,
        ["query_id"],
        ["score", id_col],
        k_neighbors,
        descending=[True, False],
    ).to_pandas()
    out["approx_dist"] = np.sqrt(np.maximum(-out.pop("score"), 0.0))
    return (
        out.sort_values(
            ["query_id", "approx_dist", id_col],
            ascending=[True, True, True],
        )
        .reset_index(drop=True)
    )


def pq_knn_rerank(
    ds: ray.data.Dataset,
    codes: ray.data.Dataset,
    queries: np.ndarray,
    codebooks: np.ndarray,
    *,
    k_neighbors: int = 10,
    shortlist: int = 100,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """The production two-stage shape: ADC over the compressed codes
    generates a per-query ``shortlist`` (cheap, whole-corpus scan of
    8 B/row), then ONLY the shortlist rows are re-scored with exact
    distances against the raw vectors — a semi-join of ≤ nq·shortlist ids
    against the corpus, never a full raw-vector scan. Quantization error
    affects the CANDIDATE SET, not the final ranking: returns
    (query_id, vec_id, dist) exact over the shortlist. PQ recall@R
    controls result quality; pick shortlist ≫ k_neighbors."""
    cand = pq_knn(
        codes, queries, codebooks, k_neighbors=shortlist, id_col=id_col
    )
    # the shortlist is tiny BY CONSTRUCTION (nq × shortlist rows, already
    # on the driver as pq_knn's fold output) — broadcast it and stream
    # the raw corpus ONCE, scoring only member rows: no shuffle, and the
    # raw-vector pass is the same single scan a cold read costs anyway.
    # (pair list sorted by vec_id → searchsorted range per batch row)
    cv = cand[id_col].to_numpy().astype(np.int64)
    cq = cand["query_id"].to_numpy().astype(np.int64)
    order = np.argsort(cv, kind="stable")
    scored = ds.select_columns([id_col, vec_col]).map_batches(
        _exact_rows,
        fn_kwargs={
            "shortlist_ref": ray.put(
                (cv[order], cq[order], np.asarray(queries, dtype=np.float64))
            ),
            "vec_col": vec_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
    )

    return (
        topk_per_group(
            scored, ["query_id"], ["dist", id_col], k_neighbors, descending=False
        )
        .to_pandas()
        .sort_values(["query_id", "dist", id_col])
        .reset_index(drop=True)
    )
