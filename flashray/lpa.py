"""Community detection by synchronous most-frequent-label propagation
(Raghavan et al. 2007, "Near linear time algorithm to detect community
structures in large-scale networks") as an iterated Ray-Data dataflow.

Why not the superstep engine: the engine's message exchange is an
elementwise semiring combine (sum/min/max per destination), and the LPA
update — argmax over per-label neighbor COUNTS — is not expressible as a
scalar elementwise combine (a partial count map per label is not
fixed-width). The dataflow below gets the same hub-safety property the
engine's combiner provides: per-batch map-side partial counts bound a hub's
reduce fan-in to (#blocks × #distinct labels in block), never #neighbors.

Cost model (the round-2 Louvain lesson): O(1) bucket shuffles per SWEEP —
3 per sweep (join, count+argmax, label update), never per label/color/
community. A fixed ``sweeps`` budget makes the run deterministic and
exactly replayable in round-unrolled SQL (driver oracle
``lpa_communities_user``).

Deterministic semantics, per sweep (synchronous — all vertices update from
the PREVIOUS sweep's labels):

    label_t(v) = argmax_L |{u : (u, v) ∈ E, label_{t-1}(u) = L}|,
                 ties broken by the SMALLEST label;
    vertices with no in-edges keep their previous label.

Pass a symmetrized edge set for the usual undirected-community semantics.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.joins import (
    bucket_group_agg,
    bucket_hash_join,
    bucket_map,
    coalesce,
)

_I64 = pa.int64()


def _label_schema() -> pa.Schema:
    return pa.schema([("vertex_id", _I64), ("label", _I64)])


def lpa_communities(
    edges: ray.data.Dataset,
    *,
    sweeps: int,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
) -> ray.data.Dataset:
    """Run ``sweeps`` synchronous LPA rounds over an (src, dst) edge
    Dataset; returns a Dataset (vertex_id, label) — label is the most
    frequent in-neighbor label after the final sweep, initialised to
    label(v) = v. Feed the result to :func:`flashray.algorithms.modularity`
    to score the partition."""
    e = edges.map_batches(
        lambda b: pa.table(
            {"src": b[src_col].cast(_I64), "dst": b[dst_col].cast(_I64)}
        ),
        batch_format="pyarrow",
    ).materialize()

    def to_verts(b: pa.Table) -> pa.Table:
        v = np.concatenate(
            [
                b["src"].to_numpy(zero_copy_only=False),
                b["dst"].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table({"vertex_id": pa.array(v, type=_I64)})

    labels = (
        bucket_group_agg(
            e.map_batches(to_verts, batch_format="pyarrow"),
            ["vertex_id"],
            None,
            num_buckets=num_buckets,
        )
        .map_batches(
            lambda b: pa.table(
                {"vertex_id": b["vertex_id"], "label": b["vertex_id"]}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    e_schema = pa.schema([("src", _I64), ("dst", _I64)])

    def partial_counts(b: pd.DataFrame) -> pd.DataFrame:
        # map-side combine: per-batch (dst, label) counts before the
        # shuffle — a hub dst ships #blocks × #labels rows, not #in-edges
        if not len(b):
            return pd.DataFrame(
                {
                    "vertex_id": pd.Series(dtype=np.int64),
                    "label": pd.Series(dtype=np.int64),
                    "c": pd.Series(dtype=np.int64),
                }
            )
        g = (
            b.groupby(["dst", "label"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pd.DataFrame(
            {
                "vertex_id": g["dst"].to_numpy(dtype=np.int64),
                "label": g["label"].to_numpy(dtype=np.int64),
                "c": g["c"].to_numpy(dtype=np.int64),
            }
        )

    def update(g: pd.DataFrame) -> pd.DataFrame:
        """One pass per bucket: finish the counts, argmax (count desc,
        label asc) per vertex, coalesce with the previous labels (rows
        with c == -1). Fusing argmax + coalesce keeps the sweep at TWO
        shuffles (join, update) instead of three."""
        if not len(g):
            return pd.DataFrame(
                {
                    "vertex_id": pd.Series(dtype=np.int64),
                    "label": pd.Series(dtype=np.int64),
                }
            )
        cnt = g[g["c"] >= 0]
        winners = (
            cnt.groupby(["vertex_id", "label"], sort=False)["c"]
            .sum()
            .reset_index()
            .sort_values(
                ["vertex_id", "c", "label"],
                ascending=[True, False, True],
                kind="stable",
            )
            .drop_duplicates("vertex_id")
        )
        prev = g[g["c"] < 0][["vertex_id", "label"]]
        keep = prev[~prev["vertex_id"].isin(winners["vertex_id"])]
        out = pd.concat(
            [winners[["vertex_id", "label"]], keep], ignore_index=True
        )
        return pd.DataFrame(
            {
                "vertex_id": out["vertex_id"].to_numpy(dtype=np.int64),
                "label": out["label"].to_numpy(dtype=np.int64),
            }
        )

    def tag_old(b: pa.Table) -> pa.Table:
        b = b.replace_schema_metadata(None)
        return pa.table(
            {
                "vertex_id": b["vertex_id"].cast(_I64),
                "label": b["label"].cast(_I64),
                "c": pa.array(np.full(b.num_rows, -1, dtype=np.int64)),
            }
        )

    for _ in range(int(sweeps)):
        msgs = bucket_hash_join(
            e,
            labels,
            ["src"],
            right_on=["vertex_id"],
            num_buckets=num_buckets,
            left_schema=e_schema,
            right_schema=_label_schema(),
        ).map_batches(partial_counts, batch_format="pandas")

        labels = coalesce(
            bucket_map(
                msgs.union(labels.map_batches(tag_old, batch_format="pyarrow")),
                ["vertex_id"],
                update,
                num_buckets=num_buckets,
            ),
            num_buckets,
        )

    return labels
