"""HyperBall: approximate neighborhood function / harmonic centrality via
per-vertex HyperLogLog sketches (Boldi & Vigna, "In-Core Computation of
Geometric Centralities with HyperBall", 2013-14 — the algorithm built for
graphs too large for exact all-pairs BFS, i.e. exactly the 100-TB regime).

Pure iterated Ray-Data dataflow (like :mod:`flashray.cc_mapreduce`), no
superstep engine: per iteration t,

    B_t(v) = B_{t-1}(v) ∪ ⋃_{(v,w) ∈ E} B_{t-1}(w)

expressed as ONE bucket join (edges ⋈ sketches on the successor) + ONE
grouped max-merge of register blobs, with a map-side combiner in between:
contributions are pre-merged per source inside each batch before the
shuffle, so a 10^8-in-degree hub receives ≤ #blocks register blobs, not
#neighbors. Per-iteration shuffle volume is E × 2^p bytes (p=8 → 256 B per
sketch) regardless of ball sizes — the whole point of sketching the balls.

Harmonic centrality accumulates per iteration from the ball-size deltas:
``h(v) = Σ_t (|B_t(v)| − |B_{t-1}(v)|) / t`` — distances enter through the
iteration number, never through pairwise paths.

Determinism: sketch union is register-wise max (exact, order-free) and
hashes are sha256-derived (flashray.datapipe.sketches), so estimates are
bit-identical across runs, partitionings and parallelism — and exactly
recomputable in SQL over a recursive-CTE transitive closure (the
``hyperball_user_graph`` driver oracle does precisely that).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.datapipe.sketches import (
    _sha_u64,
    hll_estimate,
    hll_estimate_rows,
    hll_partial,
)
from flashray.joins import bucket_hash_join


def _init_sketches(vertices: np.ndarray, p: int) -> pd.DataFrame:
    """B_0(v) = {v}: one registered element per vertex."""
    regs = [
        hll_partial(_sha_u64([str(int(v))]), p).tobytes() for v in vertices
    ]
    ests = [hll_estimate(np.frombuffer(r, dtype=np.uint8)) for r in regs]
    return pd.DataFrame(
        {
            "vertex_id": vertices.astype(np.int64),
            "regs": regs,
            "est": np.asarray(ests, dtype=np.float64),
            "harmonic": np.zeros(len(vertices)),
            "changed": np.ones(len(vertices), dtype=np.int64),
        }
    )


def hyperball(
    edges: ray.data.Dataset,
    *,
    p: int = 8,
    max_iters: int = 256,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
) -> pd.DataFrame:
    """Run HyperBall over an (src, dst) edge Dataset; balls grow along OUT
    edges (B(v) = v ∪ successors ∪ ...). Returns a DataFrame
    (vertex_id, ball_est, harmonic, regs) at convergence.

    The per-iteration result is materialized (it is both the convergence
    test's input and the next iteration's) — each pass streams two
    shuffles of E × 2^p-byte rows. The result is collected driver-side as
    one row per vertex; for huge graphs pass the returned sketches straight
    to parquet instead (they arrive as a Dataset internally — this
    convenience wrapper targets the analysis path)."""
    m = 1 << p
    I64, BIN = pa.int64(), pa.binary()

    e = edges.map_batches(
        lambda b: pa.table(
            {
                "src": b[src_col].cast(I64),
                "dst": b[dst_col].cast(I64),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    # B_0 seeding stays distributed: per-batch endpoint dedup -> one
    # bucketed distinct -> per-batch sketch init. The O(V)×2^p sketch
    # table is born in the object store, never on the driver (the
    # driver previously pulled every vertex id through iter_batches and
    # built the whole table in a list comprehension — the one piece of
    # this fallback that broke first at 100×).
    from flashray.joins import bucket_group_agg

    def vpart(b: pa.Table) -> pa.Table:
        v = np.unique(
            np.concatenate(
                [
                    b["src"].to_numpy(zero_copy_only=False),
                    b["dst"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"vertex_id": pa.array(v.astype(np.int64), I64)})

    verts_ds = bucket_group_agg(
        e.map_batches(vpart, batch_format="pyarrow"),
        ["vertex_id"],
        None,
        num_buckets=num_buckets,
    )
    cur = verts_ds.map_batches(
        lambda df: _init_sketches(
            df["vertex_id"].to_numpy(dtype=np.int64), p
        ),
        batch_format="pandas",
    ).materialize()

    sketch_schema = pa.schema(
        [
            ("vertex_id", I64),
            ("regs", BIN),
            ("est", pa.float64()),
            ("harmonic", pa.float64()),
            ("changed", I64),
        ]
    )

    def _group_max(vid: np.ndarray, blobs) -> tuple[np.ndarray, np.ndarray]:
        """Register-wise max per vertex over sorted rows: one reduceat —
        no Python loop over groups."""
        order = np.argsort(vid, kind="stable")
        vid = vid[order]
        stacked = np.frombuffer(
            b"".join(blobs.iloc[i] for i in order), dtype=np.uint8
        ).reshape(len(vid), m)
        starts = np.flatnonzero(np.r_[True, vid[1:] != vid[:-1]])
        return vid[starts], np.maximum.reduceat(stacked, starts, axis=0)

    def combiner(b: pd.DataFrame) -> pd.DataFrame:
        """Map-side pre-merge of contributions per source within a batch —
        bounds any hub's reduce fan-in to the block count."""
        if not len(b):
            return pd.DataFrame(
                {
                    "vertex_id": pd.Series(dtype=np.int64),
                    "regs": pd.Series(dtype=object),
                }
            )
        vids, merged = _group_max(
            b["vertex_id"].to_numpy(dtype=np.int64), b["regs"]
        )
        return pd.DataFrame(
            {"vertex_id": vids, "regs": [r.tobytes() for r in merged]}
        )

    for t in range(1, max_iters + 1):
        # successors' sketches shipped to each edge's source
        contrib = bucket_hash_join(
            e,
            cur.map_batches(
                lambda b: b.select(["vertex_id", "regs"]),
                batch_format="pyarrow",
            ),
            ["dst"],
            right_on=["vertex_id"],
            num_buckets=num_buckets,
            left_schema=pa.schema([("src", I64), ("dst", I64)]),
            right_schema=pa.schema([("vertex_id", I64), ("regs", BIN)]),
        ).map_batches(
            lambda b: pd.DataFrame(
                {"vertex_id": b["src"].astype(np.int64), "regs": b["regs"]}
            ),
            batch_format="pandas",
        ).map_batches(combiner, batch_format="pandas")

        old = cur.map_batches(
            lambda b: b.append_column(
                "is_old", pa.array(np.ones(b.num_rows, dtype=np.int8))
            ),
            batch_format="pyarrow",
        )
        new = contrib.map_batches(
            lambda b: pa.table(
                {
                    "vertex_id": pa.array(
                        b["vertex_id"].to_numpy(), type=I64
                    ),
                    "regs": pa.array(list(b["regs"]), type=BIN),
                    "est": pa.array(
                        np.zeros(len(b)), type=pa.float64()
                    ),
                    "harmonic": pa.array(
                        np.zeros(len(b)), type=pa.float64()
                    ),
                    "changed": pa.array(
                        np.zeros(len(b), dtype=np.int64), type=I64
                    ),
                    "is_old": pa.array(
                        np.zeros(len(b), dtype=np.int8), type=pa.int8()
                    ),
                }
            ),
            batch_format="pandas",
        )

        def add_vbucket(b: pa.Table) -> pa.Table:
            b = b.replace_schema_metadata(None)
            v = b["vertex_id"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "__vbucket",
                pa.array((v % num_buckets).astype(np.int64)),
            )

        def merge_bucket(g: pd.DataFrame, _t=t) -> pd.DataFrame:
            """ALL vertices of a bucket merged in one vectorized pass —
            never a Ray group (or a Python merge) per vertex. Rows are
            sorted (vertex, old-first); every vertex has exactly one old
            row (``old`` carries the full sketch table), so group starts
            index the old rows directly."""
            if not len(g):
                return pd.DataFrame(
                    {
                        "vertex_id": pd.Series(dtype=np.int64),
                        "regs": pd.Series(dtype=object),
                        "est": pd.Series(dtype=np.float64),
                        "harmonic": pd.Series(dtype=np.float64),
                        "changed": pd.Series(dtype=np.int64),
                    }
                )
            vid = g["vertex_id"].to_numpy(dtype=np.int64)
            is_old = g["is_old"].to_numpy(dtype=np.int8)
            order = np.lexsort((-is_old.astype(np.int64), vid))
            vid = vid[order]
            stacked = np.frombuffer(
                b"".join(g["regs"].iloc[i] for i in order), dtype=np.uint8
            ).reshape(len(vid), m)
            starts = np.flatnonzero(np.r_[True, vid[1:] != vid[:-1]])
            merged = np.maximum.reduceat(stacked, starts, axis=0)
            old_regs = stacked[starts]
            changed = (merged != old_regs).any(axis=1)
            est_old = g["est"].to_numpy()[order][starts]
            harm_old = g["harmonic"].to_numpy()[order][starts]
            est_new = hll_estimate_rows(merged)
            est = np.where(changed, est_new, est_old)
            harm = np.where(
                changed,
                harm_old + np.maximum(est_new - est_old, 0.0) / _t,
                harm_old,
            )
            return pd.DataFrame(
                {
                    "vertex_id": vid[starts],
                    "regs": [r.tobytes() for r in merged],
                    "est": est,
                    "harmonic": harm,
                    "changed": changed.astype(np.int64),
                }
            )

        cur = (
            old.union(new)
            .map_batches(add_vbucket, batch_format="pyarrow")
            .groupby("__vbucket")
            .map_groups(merge_bucket, batch_format="pandas")
            # coalesce: each sort emits ~as many blocks as it receives, so
            # without this the block count compounds per iteration and
            # fixed per-block costs grow superlinearly (measured: iters
            # 5-8 cost 10x iters 1-4 at 150 vertices)
            .repartition(num_buckets)
            .materialize()
        )
        n_changed = sum(
            int(b["changed"].to_numpy(zero_copy_only=False).sum())
            for b in cur.iter_batches(batch_format="pyarrow", batch_size=65536)
        )
        if n_changed == 0:
            break

    df = cur.to_pandas()
    df = df.rename(columns={"est": "ball_est"})
    return df[["vertex_id", "ball_est", "harmonic", "regs"]].sort_values(
        "vertex_id"
    ).reset_index(drop=True)


def hyperball_engine(
    edges: ray.data.Dataset,
    scratch_dir: str,
    *,
    p: int = 8,
    max_iters: int = 256,
    num_partitions: int | None = None,
    src_col: str = "src",
    dst_col: str = "dst",
    return_nf: bool = False,
) -> pd.DataFrame:
    """:func:`hyperball` on the superstep engine: per-vertex HLL registers
    are vector-valued vertex state (``value_dim = 2^p``) max-merged through
    the engine's partial exchange instead of a per-iteration join + grouped
    merge. Same hashes and estimator → same results as :func:`hyperball`
    (to float rounding), at superstep cost: no per-vertex Ray groups, no
    per-iteration Dataset materialization, registers move as one numpy
    block per (sender, receiver) partition pair.

    Balls grow along OUT-edges of ``edges`` (B(v) ⊇ B(w) for (v, w) ∈ E),
    matching :func:`hyperball`: since the engine delivers src→dst, the
    graph is built from REVERSED edges under ``scratch_dir``.

    Runs synchronous supersteps (no pipelining): a pipelined run would
    speculatively execute past ``max_iters`` and grow bounded-radius balls
    beyond the requested radius."""
    from flashray.build import build_graph
    from flashray.convert import to_edge_schema
    from flashray.engine import run_program
    from flashray.programs import HyperBallProgram

    I64 = pa.int64()
    rev = edges.map_batches(
        lambda b: pa.table(
            {"src": b[dst_col].cast(I64), "dst": b[src_col].cast(I64)}
        ),
        batch_format="pyarrow",
    )
    g = build_graph(
        to_edge_schema(rev),
        scratch_dir,
        num_partitions=num_partitions,
    )
    nf = []

    def drive(eng):
        nf.append(eng.broadcast_event({"op": "ball_sum"})["ball_sum"])  # N(0)
        for _ in range(max_iters):
            m = eng.step()
            if m["changed"] == 0:
                break  # this step's ball_sum duplicates the previous one
            nf.append(m["ball_sum"])  # N(t) = Σ_v |B_t(v)|

    out = run_program(
        g, HyperBallProgram(p=p), drive=drive,
        postprocess=lambda df: df.rename(columns={"value": "ball_est"})[
            ["vertex_id", "ball_est", "harmonic"]
        ],
    )
    return (out, nf) if return_nf else out


def effective_diameter(nf, q: float = 0.9) -> float:
    """Effective diameter from a neighborhood-function curve ``nf`` (as
    returned by ``hyperball_engine(..., return_nf=True)``): the smallest
    (linearly interpolated) t such that N(t) ≥ q · N(∞) — the standard
    ANF/HyperBall summary (Palmer et al. KDD 2002; Boldi & Vigna)."""
    target = q * nf[-1]
    for t in range(len(nf)):
        if nf[t] >= target:
            if t == 0 or nf[t] == nf[t - 1]:
                return float(t)
            return t - 1 + (target - nf[t - 1]) / (nf[t] - nf[t - 1])
    return float(len(nf) - 1)
