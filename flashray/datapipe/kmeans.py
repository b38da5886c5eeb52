"""Distributed k-means (Lloyd) over an embedding column — the rebuild of
the reference lineage's semi-external-memory k-means (FlashX ships
``sem_kmeans`` in its libgraph-algs tree: vectors stream from storage,
only the k×d centroid state stays resident; SURVEY.md §2.2 scope note).

Ray-Data-first iteration shape (per Lloyd round):

    ray.put(centroids)                       [k×d broadcast, once per round]
      → map_batches: per batch, vectorized argmin distance, emit k partial
        rows (cluster, count, sum-vector)    [streaming pass, no shuffle]
      → driver combines the tiny (blocks × k) partial table and divides

The per-round reduction is O(k·d·num_blocks) — the only driver-side data
regardless of corpus size. Assignment output (:func:`kmeans_assign`)
streams the corpus once more against the broadcast final centroids.

Determinism: seeds are the ``k`` rows with the smallest ids (``init=
"lowest_ids"``, SQL-reproducible — driver oracle ``embeddings_kmeans``
replays two Lloyd rounds in DuckDB with ``list_distance``) or the k
smallest splitmix64(id) (``init="hash"``, an unbiased deterministic
sample). Distances are computed in float64 from the float32 input on
both sides; cross-block partial-sum order only perturbs centroid means
at the 1e-15 level (assignment flips would need a point equidistant to
two centroids at that scale).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from flashray.datapipe.similarity import _stack
from flashray.ids import _splitmix64


def _seed_rows(
    ds: ray.data.Dataset, k: int, vec_col: str, id_col: str, init: str
) -> np.ndarray:
    """(k, d) float64 seed matrix: per-block local bottom-k by the init
    priority, tiny global merge on the driver."""

    def local(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if init == "hash":
            # >> 1 keeps the priority in int63 so the driver-side int64
            # merge sorts identically to the local uint64 order
            pri = (
                _splitmix64(ids.astype(np.uint64)) >> np.uint64(1)
            ).astype(np.uint64)
        else:  # lowest_ids
            pri = ids.astype(np.uint64)
        take = min(k, len(ids))
        idx = np.argsort(pri, kind="stable")[:take]
        vecs = _stack(b[vec_col])[idx].astype(np.float64)
        return pa.table(
            {
                "pri": pa.array(pri[idx].astype(np.int64)),
                "vec": pa.array(list(vecs)),
            }
        )

    parts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        # an empty dataset yields a schema-less empty frame — fail with the
        # same message the k_eff<k check gives, not a KeyError on 'pri'
        raise ValueError(f"k={k} but only 0 rows")
    parts = parts.sort_values("pri", kind="stable").head(k)
    return np.stack([np.asarray(v, dtype=np.float64) for v in parts["vec"]])


def _assign(x: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cluster, squared distance) per row: vectorized argmin ||x−c||² with
    ties to the smaller cluster id (np.argmin takes the first minimum).
    Exact Σ(x−c)² — matches the SQL oracle's list_distance ordering
    bit-for-bit on equal centroids."""
    d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d2, axis=1).astype(np.int64)
    return a, d2[np.arange(len(a)), a]


def _partial_sums(batch: pa.Table, *, cents_ref, vec_col: str) -> pa.Table:
    """Assigns a batch to the broadcast (k, d) float64 centroids and emits
    k partial rows (cluster, count, sumvec)."""
    if len(batch) == 0:
        return pa.table(
            {
                "cluster": pa.array([], type=pa.int64()),
                "count": pa.array([], type=pa.int64()),
                "sumvec": pa.array([], type=pa.list_(pa.float64())),
            }
        )
    cents = ray.get(cents_ref)
    k, dim = cents.shape
    x = _stack(batch[vec_col]).astype(np.float64)
    assign, _ = _assign(x, cents)
    counts = np.bincount(assign, minlength=k)
    sums = np.zeros((k, dim))
    np.add.at(sums, assign, x)
    return pa.table(
        {
            "cluster": pa.array(np.arange(k, dtype=np.int64)),
            "count": pa.array(counts.astype(np.int64)),
            "sumvec": pa.array(list(sums)),
        }
    )


def _assign_rows(
    batch: pa.Table, *, cents_ref, vec_col: str, id_col: str
) -> pa.Table:
    """(id_col, cluster, dist) of each row against the broadcast centroids."""
    if len(batch) == 0:
        return pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "cluster": pa.array([], type=pa.int64()),
                "dist": pa.array([], type=pa.float64()),
            }
        )
    x = _stack(batch[vec_col]).astype(np.float64)
    a, d2 = _assign(x, ray.get(cents_ref))
    return pa.table(
        {
            id_col: batch[id_col].cast(pa.int64()),
            "cluster": pa.array(a),
            "dist": pa.array(np.sqrt(d2)),
        }
    )


def kmeans(
    ds: ray.data.Dataset,
    *,
    k: int,
    max_iters: int = 20,
    tol: float = 1e-6,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    init: str = "hash",
    batch_size: int = 4096,
):
    """Lloyd iterations until the max centroid shift < ``tol`` or
    ``max_iters``. Returns ``(centroids (k,d) float64, info dict)`` with
    per-round shifts and cluster counts. Empty clusters keep their
    previous centroid (the standard degeneracy rule)."""
    if init not in ("hash", "lowest_ids"):
        raise ValueError(f"unknown init {init!r}")
    cents = _seed_rows(ds, k, vec_col, id_col, init)
    k_eff, dim = cents.shape
    if k_eff < k:
        raise ValueError(f"k={k} but only {k_eff} rows")
    shifts, counts_hist = [], []
    for _ in range(max_iters):
        parts = ds.map_batches(
            _partial_sums,
            fn_kwargs={"cents_ref": ray.put(cents), "vec_col": vec_col},
            batch_format="pyarrow",
            batch_size=batch_size,
        ).to_pandas()
        # tiny: (num_blocks × k) rows — combine on the driver
        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, dim))
        cl = parts["cluster"].to_numpy()
        cn = parts["count"].to_numpy()
        np.add.at(counts, cl, cn)
        sv = np.stack([np.asarray(v, dtype=np.float64) for v in parts["sumvec"]])
        np.add.at(sums, cl, sv)
        new = np.where(
            (counts > 0)[:, None], sums / np.maximum(counts, 1)[:, None], cents
        )
        shift = float(np.sqrt(((new - cents) ** 2).sum(axis=1)).max())
        cents = new
        shifts.append(shift)
        counts_hist.append(counts.copy())
        if shift < tol:
            break
    return cents, {
        "iterations": len(shifts),
        "shifts": shifts,
        "counts": counts_hist[-1].tolist() if counts_hist else [],
    }


def kmeans_assign(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Stream the corpus against broadcast centroids → Dataset
    (id_col, cluster, dist)."""
    return ds.map_batches(
        _assign_rows,
        fn_kwargs={
            "cents_ref": ray.put(np.asarray(centroids, dtype=np.float64)),
            "vec_col": vec_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )
