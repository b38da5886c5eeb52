"""Sparse matrix-vector products over the edge table — the FlashMatrix
side of the reference lineage (FlashX couples FlashGraph with a
semi-external-memory matrix engine; SpMV is the kernel under its PageRank
/ eigensolver paths; SURVEY.md §2.3 S5 notes the fg2fm converter whose
whole purpose is feeding this kernel).

Ray-Data-first dataflow (no superstep engine needed — SpMV is one
gather-scatter round):

    edges (src, dst[, weight]) ⋈ x on the gather side   [one bucket join]
      → (out_vertex, w·x) contributions
      → bucket_group_agg sum                            [one bucket agg]
      → left join the vertex table (vertices with no contributing edge
        get 0.0)

Both shuffles are int64-keyed and partial-combined; the vector never
materializes on the driver. ``spmm`` is the kernel (k columns through
the same two shuffles — the building block for batched power iteration
/ Krylov steps); ``spmv`` is its one-column case. Iterated link analysis
(HITS, :func:`hits_engine`) runs on the superstep engine, one actor
exchange per half-step.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.build import Graph
from flashray.joins import bucket_group_agg, bucket_hash_join, coalesce

_I64 = pa.int64()
_F64 = pa.float64()


def _as_dataset(x, cols: list[str]) -> ray.data.Dataset:
    if isinstance(x, pd.DataFrame):
        return ray.data.from_pandas(x[cols])
    return x


def spmv(
    graph: Graph,
    x,
    *,
    x_col: str = "x",
    weighted: bool = False,
    direction: str = "out",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """y = Aᵀx (``direction="out"``: y[dst] = Σ_{(src,dst)∈E} w·x[src],
    messages flowing along edge direction like every vertex program) or
    y = Ax (``direction="in"``: y[src] = Σ w·x[dst], the pull gather).

    ``x`` is a Dataset or pandas DataFrame (vertex_id, x). Returns a
    Dataset (vertex_id, y) covering EVERY vertex (0.0 where no edge
    contributes). ``weighted=True`` multiplies by the edge weight
    column. This is :func:`spmm` with one column."""
    return spmm(
        graph, x, x_cols=[x_col], weighted=weighted, direction=direction,
        num_buckets=num_buckets,
    ).map_batches(
        lambda b: b.rename_columns(["vertex_id", "y"]), batch_format="pyarrow"
    )


def spmm(
    graph: Graph,
    x,
    *,
    x_cols: list[str],
    weighted: bool = False,
    direction: str = "out",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Multi-vector SpMV: k columns of ``x`` through ONE join + ONE
    aggregate (k-fold fewer shuffles than k spmv calls). Returns
    (vertex_id, y_<col>…) over every vertex."""
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    B = num_buckets or max(16, graph.num_partitions)
    gather, out = ("src", "dst") if direction == "out" else ("dst", "src")

    cols = ["src", "dst"] + (["weight"] if weighted else [])
    edges = graph.edges_dataset(columns=cols)
    xs = _as_dataset(x, ["vertex_id"] + list(x_cols))

    esch = pa.schema(
        [("src", _I64), ("dst", _I64)]
        + ([("weight", _F64)] if weighted else [])
    )
    j = bucket_hash_join(
        edges,
        xs,
        [gather],
        right_on=["vertex_id"],
        num_buckets=B,
        left_schema=esch,
        right_schema=pa.schema(
            [("vertex_id", _I64)] + [(c, _F64) for c in x_cols]
        ),
    )

    ycols = [f"y_{c}" for c in x_cols]

    def contrib(b: pa.Table) -> pa.Table:
        w = (
            b["weight"].to_numpy(zero_copy_only=False)
            if weighted
            else None
        )
        data = {"vertex_id": b[out].cast(_I64)}
        for c, yc in zip(x_cols, ycols):
            v = b[c].to_numpy(zero_copy_only=False).astype(np.float64)
            data[yc] = pa.array(v * w if w is not None else v, type=_F64)
        return pa.table(data)

    summed = bucket_group_agg(
        j.map_batches(contrib, batch_format="pyarrow"),
        ["vertex_id"],
        {yc: (yc, "sum") for yc in ycols},
        num_buckets=B,
    )

    verts = graph.vertices_dataset(columns=["vertex_id"])
    full = bucket_hash_join(
        verts,
        summed,
        ["vertex_id"],
        how="left",
        num_buckets=B,
        left_schema=pa.schema([("vertex_id", _I64)]),
        right_schema=pa.schema(
            [("vertex_id", _I64)] + [(yc, _F64) for yc in ycols]
        ),
    )

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        data = {"vertex_id": b["vertex_id"].astype(np.int64)}
        for yc in ycols:
            data[yc] = b[yc].fillna(0.0).astype(np.float64)
        return pd.DataFrame(data)

    return full.map_batches(fill, batch_format="pandas")


def hits_engine(
    graph: Graph,
    *,
    scratch_dir: str,
    iters: int = 3,
    weighted: bool = False,
    normalize: bool = True,
) -> pd.DataFrame:
    """HITS hubs & authorities (Kleinberg 1999, the link-analysis sibling
    of PageRank; SURVEY.md §2.2 A1/A2 family) by fixed-T alternating power
    iteration from h_0 = 1:

        a_t[v] = Σ_{(u,v)∈E} h_{t-1}[u]   (authority ← in-edge hubs)
        h_t[u] = Σ_{(u,v)∈E} a_t[v]       (hub ← out-edge authorities)

    Alternating supersteps over the channel-tagged bidirected graph (the
    Brandes/SCC channel pattern — scc.FWD carries the original edge
    direction, scc.BWD the reverse): superstep 2t-1 scatters h along FWD
    edges, sum-combining into the authority vector; superstep 2t scatters
    a along BWD edges into the hub vector. Each half-step is one fused
    actor exchange.

    Deliberately UNNORMALIZED inside the loop: fixed-T raw scores count
    alternating in/out paths — nonnegative integers on an unweighted
    graph, exact under the float64 sum-combine — so the driver's SQL
    oracle can replay the recurrence join-for-join. ``normalize=True``
    divides each vector by its max once at the END (exact-integer
    operands → one order-independent division per value). Per-step float
    normalization would make the result summation-order-dependent and
    break cross-system exactness.

    NOT ``stale_mirror_safe``: arrival round matters (a half-step must
    see exactly the previous half-step's vector), so split graphs take
    the two-phase mirror rounds, same as Katz ``exact_iterations``.

    ``graph`` is the DIRECTED graph; the channel-tagged bidirected copy
    is built under ``scratch_dir`` once and reused on later calls (keyed
    by meta.json presence, like :func:`flashray.betweenness.betweenness`).
    Returns a pandas DataFrame (vertex_id, authority, hub) over every
    vertex (0.0 where no path contributes)."""
    import os

    from flashray.engine import run_program
    from flashray.programs import VertexProgram
    from flashray.scc import BWD, FWD, build_bidirected

    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")

    class _Hits(VertexProgram):
        combine = "sum"
        identity = 0.0
        uses_channels = True
        channel_map = {"fwd": FWD, "bwd": BWD}
        output_columns = ["hub"]
        stale_mirror_safe = False
        use_weights = weighted

        def init_state(self, shard, N):
            return {
                "values": np.zeros(shard.nv),  # authority
                "hub": np.ones(shard.nv),  # h_0 = 1
                "active": np.ones(shard.nv, dtype=bool),
                "phase": 0,  # 0 -> next superstep computes authorities
            }

        def edge_mask(self, shard, state):
            if shard.edge_channel is None:
                return None
            want = FWD if state["phase"] == 0 else BWD
            return shard.edge_channel == want

        def signal(self, shard, state):
            return state["hub"] if state["phase"] == 0 else state["values"]

        def apply(self, shard, state, agg, N):
            if state["phase"] == 0:
                state["values"] = agg.astype(np.float64)
            else:
                state["hub"] = agg.astype(np.float64)
            state["phase"] ^= 1
            return {"changed": shard.nv, "active": shard.nv}

        def state_columns(self):
            return ["values", "hub", "active"]

        def scalar_state_keys(self):
            return ["phase"]

    bi_path = os.path.join(scratch_dir, "bidirected")
    if not os.path.exists(os.path.join(bi_path, "meta.json")):
        build_bidirected(graph, bi_path)
    from flashray.build import Graph as _G

    bi = _G.load(bi_path)

    def finish(df):
        df = df.rename(columns={"value": "authority"})
        if normalize:
            a_max = float(df["authority"].max() or 0.0)
            h_max = float(df["hub"].max() or 0.0)
            df["authority"] = df["authority"] / (a_max if a_max > 0 else 1.0)
            df["hub"] = df["hub"] / (h_max if h_max > 0 else 1.0)
        return df[["vertex_id", "authority", "hub"]]

    return run_program(
        bi, _Hits(), lambda m: False, max_iters=2 * int(iters),
        postprocess=finish,
    )


def _sha_unit(keys: list[str]) -> np.ndarray:
    """Deterministic uniforms in [0, 1): top 53 bits of sha256 over 2^53
    — exactly representable doubles, byte-identical in SQL as
    ``CAST(ub >> 11 AS DOUBLE) / 9007199254740992.0``."""
    from flashray.datapipe.sketches import _sha_u64

    return (_sha_u64(keys) >> np.uint64(11)).astype(np.float64) / float(
        1 << 53
    )


def nmf(
    graph: Graph,
    *,
    rank: int = 4,
    iters: int = 10,
    eps: float = 1e-9,
    weighted: bool = False,
    num_buckets: int | None = None,
    seed: int = 0,
    collect: bool = True,
    local_threshold: int = 200_000,
):
    """Nonnegative matrix factorization of the adjacency, A ≈ W·Hᵀ, by
    Lee & Seung's multiplicative updates (NIPS 2000) — the FlashMatrix-
    family factorization built on this module's SpMM kernels:

        W ← W ⊙ (A·H)  / (W·(HᵀH) + ε)      then
        H ← H ⊙ (Aᵀ·W) / (H·(WᵀW) + ε)

    per iteration. W and H live as Datasets (vertex_id, f0..f{r-1}) over
    EVERY vertex; A·H / Aᵀ·W are ONE :func:`spmm` each (one edge join +
    one aggregate, never a dense matrix); HᵀH / WᵀW are r×r Gram folds
    (map-side partial outer products, O(blocks·r²) driver bytes); the
    elementwise update is one bucket join with the tiny Gram broadcast
    in-closure. Init is sha-uniform in (seed, vertex, k) — deterministic
    across runs/parallelism and SQL-replayable, so fixed-iteration runs
    are oracle-checkable. Returns (W, H) as pandas DataFrames
    (vertex_id, f0..f{r-1}) sorted by vertex_id; objective is
    non-increasing per Lee–Seung (asserted in tests). ``collect=False``
    returns the factor DATASETS instead — the scale path: V×r factor
    tables stay in the object store / parquet, never on the driver.

    Hybrid routing (the repo idiom): below ``local_threshold`` edges the
    update loop runs in-process on numpy arrays (same formulas, same
    init — values agree with the distributed path to float round-off,
    allclose-tested); ``local_threshold=0`` forces the dataflow."""
    import pandas as pd

    B = num_buckets or max(16, graph.num_partitions)
    fcols = [f"f{k}" for k in range(rank)]

    def init_batch(b: pa.Table) -> pa.Table:
        v = b["vertex_id"].to_numpy(zero_copy_only=False)
        out = {"vertex_id": b["vertex_id"].cast(_I64)}
        for k in range(rank):
            out[fcols[k]] = pa.array(
                _sha_unit([f"nmf{seed}|{int(x)}|{k}" for x in v])
            )
        return pa.table(out)

    def gram(X) -> np.ndarray:
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            M = df[fcols].to_numpy(dtype=np.float64)
            return pd.DataFrame({"g": [(M.T @ M).reshape(-1)]})

        parts = X.map_batches(partial, batch_format="pandas").to_pandas()
        if not len(parts):
            return np.zeros((rank, rank))
        return np.sum(np.stack(parts["g"].to_numpy()), axis=0).reshape(
            rank, rank
        )

    def mult_update(X, prod, G: np.ndarray):
        """X ⊙ prod / (X·G + eps) — one bucket join, Gram in-closure."""
        xsch = pa.schema(
            [("vertex_id", _I64)] + [(c, _F64) for c in fcols]
        )
        psch = pa.schema(
            [("vertex_id", _I64)] + [(f"y_{c}", _F64) for c in fcols]
        )
        j = bucket_hash_join(
            X, prod, ["vertex_id"], how="left", num_buckets=B,
            left_schema=xsch, right_schema=psch,
        )

        def upd(df: pd.DataFrame) -> pd.DataFrame:
            M = df[fcols].to_numpy(dtype=np.float64)
            P = (
                df[[f"y_{c}" for c in fcols]]
                .fillna(0.0)
                .to_numpy(dtype=np.float64)
            )
            new = M * P / (M @ G + eps)
            out = {"vertex_id": df["vertex_id"].astype(np.int64)}
            for k in range(rank):
                out[fcols[k]] = new[:, k]
            return pd.DataFrame(out)

        return coalesce(j.map_batches(upd, batch_format="pandas"), B)

    verts = graph.vertices_dataset(columns=["vertex_id"])
    if local_threshold and graph.meta.num_edges <= local_threshold:
        cols = ["src", "dst"] + (["weight"] if weighted else [])
        e = graph.edges_dataset(columns=cols).to_pandas()
        vid = np.sort(
            verts.to_pandas()["vertex_id"].to_numpy(dtype=np.int64)
        )
        return _local_nmf(
            e["src"].to_numpy(np.int64), e["dst"].to_numpy(np.int64),
            e["weight"].to_numpy(np.float64) if weighted else None,
            vid, rank, iters, eps, seed, fcols,
        )
    W = verts.map_batches(init_batch, batch_format="pyarrow").materialize()
    H = verts.map_batches(init_batch, batch_format="pyarrow").materialize()
    for _ in range(iters):
        HtH = gram(H)
        AH = spmm(
            graph, H, x_cols=fcols, weighted=weighted, direction="in",
            num_buckets=B,
        )
        W = mult_update(W, AH, HtH)
        WtW = gram(W)
        AtW = spmm(
            graph, W, x_cols=fcols, weighted=weighted, direction="out",
            num_buckets=B,
        )
        H = mult_update(H, AtW, WtW)
    if not collect:
        return W, H
    Wp = W.to_pandas().sort_values("vertex_id").reset_index(drop=True)
    Hp = H.to_pandas().sort_values("vertex_id").reset_index(drop=True)
    return Wp, Hp


def _local_nmf(src, dst, weight, vid, rank, iters, eps, seed, fcols):
    """In-process Lee–Seung loop (identical formulas/init to the
    dataflow; float sum order differs, so agreement is allclose)."""
    import pandas as pd

    n = len(vid)
    pos = {int(v): i for i, v in enumerate(vid)}
    si = np.fromiter((pos[int(v)] for v in src), np.int64, len(src))
    di = np.fromiter((pos[int(v)] for v in dst), np.int64, len(dst))
    w = weight if weight is not None else np.ones(len(src))

    def init():
        M = np.empty((n, rank))
        for k in range(rank):
            M[:, k] = _sha_unit(
                [f"nmf{seed}|{int(v)}|{k}" for v in vid]
            )
        return M

    W, H = init(), init()
    for _ in range(iters):
        HtH = H.T @ H
        AH = np.zeros((n, rank))
        np.add.at(AH, si, H[di] * w[:, None])
        W = W * AH / (W @ HtH + eps)
        WtW = W.T @ W
        AtW = np.zeros((n, rank))
        np.add.at(AtW, di, W[si] * w[:, None])
        H = H * AtW / (H @ WtW + eps)

    def frame(M):
        out = {"vertex_id": vid}
        for k in range(rank):
            out[fcols[k]] = M[:, k]
        return pd.DataFrame(out)

    return frame(W), frame(H)
