"""Modularity-optimizing community detection: synchronous parallel
Louvain (Blondel et al. 2008, *Fast unfolding of communities in large
networks*, with the synchronous-update parallelization of Lu/Halappanavar
2015) as an iterated Ray-Data dataflow, multi-level via graph coarsening.

Why not the superstep engine (the lpa.py rationale): the local-move
update — argmax over per-neighbor-community modularity GAINS — needs a
variable-width per-community partial map, not an elementwise semiring
combine. Each level sorts its edges by source once (ONE sort shuffle;
every block then holds all the rows of its sources). Below
``broadcast_threshold`` vertices a sweep is one map over those blocks
against the broadcast O(V) vertex state — no shuffle per sweep; above
it a sweep pays 7 bucket shuffles (one edge-label join, four bounded
aggregates/joins, one candidate join, one argmax), never per community.
One numpy sweep kernel serves the in-process and broadcast executors,
one pick rule all three.

Deterministic semantics, per sweep (synchronous — every vertex evaluates
against the PREVIOUS sweep's labels; all arithmetic is int64, so the SQL
replay's argmax is bit-exact, the repo-wide integer-threshold
convention):

    gain'(v, C) = 2m·e_{v→C} − k_v·(Σtot_C − k_v·[C = lab(v)])

(the standard ΔQ numerator scaled by (2m)² with the v-removed own
community; e_{v→C} = Σ weight of v's non-self edges into C, k_v = v's
weighted degree incl. self-loops, Σtot_C = Σ k over members, 2m = total
row-weight of the symmetrized edge table). v adopts
argmax_C gain' over {neighbor communities} ∪ {lab(v)}, ranked
(gain' DESC, C = lab(v) DESC, C ASC) — a strictly-better new community
wins, ties prefer staying, then the smallest label. Isolated /
self-loop-only vertices keep their label via a synthesized own-community
candidate row (ew = 0), never a null-padded join.

Coarsening (``levels > 1``): communities contract to supervertices —
A'_{CD} = Σ_{u∈C, v∈D} A_{uv} over the symmetrized rows, so an internal
undirected edge lands twice in the self-loop A'_CC and every level
preserves Σtot / 2m exactly (integer weights stay integer); the same
sweep dataflow reruns on the weighted coarse graph and the final labels
compose back through one bucket join per level.

Overflow bound: |gain'| ≤ 2m·k_max — exact in int64 while
2m·k_max < 2^63 (holds for any graph whose weighted edge count and hub
degree product stays below ~9·10^18; raise ``levels`` cautiously past
that, the contraction multiplies weights).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.joins import bucket_group_agg, bucket_hash_join, bucket_semi_join

_I64 = pa.int64()


def _lab_schema() -> pa.Schema:
    return pa.schema([("vertex_id", _I64), ("label", _I64), ("kv", _I64)])


def _decide_by(ds, fn, key: str, num_buckets: int):
    """All rows of one ``key`` must reach one ``fn`` call (the ml.py
    _decide_bucketed shape, keyed generically)."""
    from flashray.joins import _key_hash

    def add_bucket(b: pa.Table) -> pa.Table:
        b = b.replace_schema_metadata(None)
        h = _key_hash(b, [key])
        return b.append_column(
            "__lbucket",
            pa.array((h % np.uint64(num_buckets)).astype(np.int64)),
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__lbucket")
        .map_groups(
            lambda g: fn(g.drop(columns=["__lbucket"])),
            batch_format="pandas",
        )
    )


def _edge_table(edges, src_col, dst_col, weight_col):
    def proj(b: pa.Table) -> pa.Table:
        w = (
            b[weight_col].cast(_I64)
            if weight_col is not None
            else pa.array(np.ones(b.num_rows, dtype=np.int64))
        )
        return pa.table(
            {"s": b[src_col].cast(_I64), "d": b[dst_col].cast(_I64), "w": w}
        )

    return edges.map_batches(proj, batch_format="pyarrow").materialize()


def _empty(*cols: str) -> pa.Table:
    return pa.table({c: pa.array([], type=_I64) for c in cols})


def _degrees(s, w):
    """(distinct sources ascending, each row's source index, each
    source's weighted out-degree — the degree, for symmetric input)."""
    src, si = np.unique(s, return_inverse=True)
    k = np.zeros(len(src), dtype=np.int64)
    np.add.at(k, si, w)  # int64-exact (bincount weights are float64)
    return src, si, k


def _block_degrees(b: pa.Table) -> pa.Table:
    """(vertex_id, kv) of one source-sorted block, complete because the
    block holds every row of its sources."""
    if not b.num_rows:  # the sort may emit empty, schemaless blocks
        return _empty("vertex_id", "kv")
    v, _, k = _degrees(
        b["s"].to_numpy(zero_copy_only=False),
        b["w"].to_numpy(zero_copy_only=False),
    )
    return pa.table({"vertex_id": v, "kv": k})


def _pick(v, cl, sc, is_own):
    """Row indices of the per-vertex argmax, ranked (gain' DESC,
    C = lab(v) DESC, C ASC): one winner per distinct ``v``, in ascending
    ``v`` order — the ONE pick rule of every sweep executor."""
    order = np.lexsort((cl, ~is_own, -sc, v))
    vo = v[order]
    first = np.ones(len(vo), dtype=bool)
    first[1:] = vo[1:] != vo[:-1]
    return order[first]


def _sweep_state(vs, lab, k, tm):
    """The vertex state one sweep reads: (vs sorted vertex ids, lab
    their labels, ulab sorted distinct labels, tot = Σtot per ulab,
    tm = 2m); the degrees ``k`` (aligned with vs) fold into tot."""
    ulab, linv = np.unique(lab, return_inverse=True)
    tot = np.zeros(len(ulab), dtype=np.int64)
    np.add.at(tot, linv, k)
    return vs, lab, ulab, tot, tm


def _sweep_kernel(s, d, w, state):
    """One synchronous local-move sweep for the distinct sources of
    ``(s, d, w)``, which must be ALL of those sources' rows (k_v and
    e_{v→C} come from them). ``state`` is :func:`_sweep_state`. Returns
    (the distinct sources ascending, their new labels). The local
    kernel runs it once over every edge, the broadcast path once per
    source-sorted block."""
    vs, lv, ulab, tot, tm = state
    src, si, k = _degrees(s, w)
    n = len(src)
    own = np.searchsorted(ulab, lv[np.searchsorted(vs, src)])
    ns = s != d
    L = np.int64(len(ulab))
    key = si[ns] * L + np.searchsorted(ulab, lv[np.searchsorted(vs, d[ns])])
    uk, kinv = np.unique(key, return_inverse=True)
    ew = np.zeros(len(uk), dtype=np.int64)
    np.add.at(ew, kinv, w[ns])
    # neighbor-community candidates + one synthesized own candidate
    # (ew = 0) per vertex, so isolated / self-loop-only vertices stay
    cav = np.concatenate([uk // L, np.arange(n, dtype=np.int64)])
    cac = np.concatenate([uk % L, own])
    cew = np.concatenate([ew, np.zeros(n, dtype=np.int64)])
    is_own = cac == own[cav]
    sc = tm * cew - k[cav] * (tot[cac] - k[cav] * is_own)
    # ulab is sorted, so ranking label indices ranks the labels
    win = _pick(cav, cac, sc, is_own)
    return src, ulab[cac[win]]


def _make_pick(tm):
    """The per-bucket argmax of the all-join sweep: gains from the
    joined candidate rows, then :func:`_pick`, the sweep kernel's rule."""
    TM = np.int64(tm)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _empty("vertex_id", "label", "kv").to_pandas()
        v = g["v"].to_numpy(dtype=np.int64)
        cl = g["cl"].to_numpy(dtype=np.int64)
        kv = g["kv"].to_numpy(dtype=np.int64)
        is_own = cl == g["own"].to_numpy(dtype=np.int64)
        sc = TM * g["ew"].to_numpy(dtype=np.int64) - kv * (
            g["tot_cl"].to_numpy(dtype=np.int64) - kv * is_own
        )
        win = _pick(v, cl, sc, is_own)
        return pd.DataFrame(
            {"vertex_id": v[win], "label": cl[win], "kv": kv[win]}
        )

    return pick


def _sweep_blocks(ref):
    """The per-block sweep of :func:`_broadcast_sweeps` (a factory, so
    each sweep's closure holds its own state ref)."""

    def sweep(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return _empty("vertex_id", "label")
        v, lab = _sweep_kernel(
            *(b[c].to_numpy(zero_copy_only=False) for c in ("s", "d", "w")),
            ray.get(ref),
        )
        return pa.table({"vertex_id": v, "label": lab})

    return sweep


def _broadcast_sweeps(e, deg, sweeps):
    """``sweeps`` synchronous local-move sweeps over the source-sorted
    edge table ``e`` with the O(V) vertex state BROADCAST via
    ``ray.put``: each sweep is ONE ``map_batches`` running
    :func:`_sweep_kernel` per block (every block holds all the rows of
    its sources) and no shuffle; the driver gathers the (vertex_id,
    label) rows between sweeps. Returns (labels Dataset, tm)."""
    dpdf = deg.to_pandas()
    vs = dpdf["vertex_id"].to_numpy(dtype=np.int64)
    order = np.argsort(vs, kind="stable")
    vs = vs[order]
    k = dpdf["kv"].to_numpy(dtype=np.int64)[order]
    # a source split across two sorted blocks would appear twice
    assert bool(np.all(vs[1:] > vs[:-1])), "a source spans two blocks"
    tm = int(k.sum())
    lab = vs
    labels = ray.data.from_arrow(pa.table({"vertex_id": vs, "label": vs}))
    for _ in range(int(sweeps)):
        ref = ray.put(_sweep_state(vs, lab, k, tm))
        labels = e.map_batches(
            _sweep_blocks(ref), batch_format="pyarrow", batch_size=None
        ).materialize()
        out = labels.to_pandas()
        v = out["vertex_id"].to_numpy(dtype=np.int64)
        lab = out["label"].to_numpy(dtype=np.int64)[
            np.argsort(v, kind="stable")
        ]
    return labels, tm


def _one_sweep(e, labels, tm, num_buckets):
    """One synchronous local-move sweep; returns the new labels table."""
    esch = pa.schema([("s", _I64), ("d", _I64), ("w", _I64)])

    def noself(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        d = b["d"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(s != d))

    # (1) v's weighted affinity to each neighboring community
    msgs = bucket_hash_join(
        e.map_batches(noself, batch_format="pyarrow"),
        labels.map_batches(
            lambda b: b.select(["vertex_id", "label"]),
            batch_format="pyarrow",
        ),
        ["d"],
        right_on=["vertex_id"],
        num_buckets=num_buckets,
        left_schema=esch,
        right_schema=pa.schema([("vertex_id", _I64), ("label", _I64)]),
    )

    def aff_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "v": pd.Series(dtype=np.int64),
                    "cl": pd.Series(dtype=np.int64),
                    "ew": pd.Series(dtype=np.int64),
                }
            )
        g = (
            df.groupby(["s", "label"], sort=False)["w"]
            .sum()
            .reset_index()
        )
        return pd.DataFrame(
            {
                "v": g["s"].to_numpy(dtype=np.int64),
                "cl": g["label"].to_numpy(dtype=np.int64),
                "ew": g["w"].to_numpy(dtype=np.int64),
            }
        )

    ew = bucket_group_agg(
        msgs.map_batches(aff_partial, batch_format="pandas"),
        ["v", "cl"],
        {"ew": ("ew", "sum")},
        num_buckets=num_buckets,
    )

    # (2) community degree totals (map-side partial per batch)
    tot = bucket_group_agg(
        labels.map_batches(
            lambda df: df.groupby("label", as_index=False).agg(
                tot=("kv", "sum")
            ),
            batch_format="pandas",
        ),
        ["label"],
        {"tot": ("tot", "sum")},
        num_buckets=num_buckets,
    )
    tsch = pa.schema([("label", _I64), ("tot", _I64)])

    # (3) per-vertex own-community context (own label, kv, tot_own)
    ownt = bucket_hash_join(
        labels, tot, ["label"],
        num_buckets=num_buckets,
        left_schema=_lab_schema(),
        right_schema=tsch,
    ).map_batches(
        lambda b: b.rename_columns(
            [
                {"label": "own", "tot": "tot_own"}.get(c, c)
                for c in b.column_names
            ]
        ),
        batch_format="pyarrow",
    )

    # (4) candidate rows with their community totals
    ewt = bucket_hash_join(
        ew, tot, ["cl"], right_on=["label"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("v", _I64), ("cl", _I64), ("ew", _I64)]),
        right_schema=tsch,
    ).map_batches(
        lambda b: b.rename_columns(
            ["tot_cl" if c == "tot" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    cand = bucket_hash_join(
        ewt, ownt, ["v"], right_on=["vertex_id"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("v", _I64), ("cl", _I64), ("ew", _I64), ("tot_cl", _I64)]
        ),
        right_schema=pa.schema(
            [("vertex_id", _I64), ("own", _I64), ("kv", _I64),
             ("tot_own", _I64)]
        ),
    )
    # synthesized own-community candidates: cover vertices with no
    # non-self edges AND vertices whose own community is absent from
    # their neighbor set — all int64, never a null-padded outer join
    own_syn = ownt.map_batches(
        lambda b: pa.table(
            {
                "v": b["vertex_id"],
                "cl": b["own"],
                "ew": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "tot_cl": b["tot_own"],
                "own": b["own"],
                "kv": b["kv"],
                "tot_own": b["tot_own"],
            }
        ),
        batch_format="pyarrow",
    )
    cand = cand.map_batches(
        lambda b: b.select(
            ["v", "cl", "ew", "tot_cl", "own", "kv", "tot_own"]
        ),
        batch_format="pyarrow",
    ).union(own_syn)

    return (
        _decide_by(cand, _make_pick(tm), "v", num_buckets)
        .repartition(num_buckets)
        .materialize()
    )


def _contract(e, labels, num_buckets):
    """Coarsen: A'_{CD} = Σ_{u∈C, v∈D} A_{uv} (both directions of every
    internal edge fold into the C self-loop — Σtot and 2m preserved)."""
    esch = pa.schema([("s", _I64), ("d", _I64), ("w", _I64)])
    lmap = labels.map_batches(
        lambda b: b.select(["vertex_id", "label"]), batch_format="pyarrow"
    )
    lsch = pa.schema([("vertex_id", _I64), ("label", _I64)])
    j1 = bucket_hash_join(
        e, lmap, ["s"], right_on=["vertex_id"],
        num_buckets=num_buckets, left_schema=esch, right_schema=lsch,
    ).map_batches(
        lambda b: pa.table(
            {"s": b["label"], "d": b["d"], "w": b["w"]}
        ),
        batch_format="pyarrow",
    )
    j2 = bucket_hash_join(
        j1, lmap, ["d"], right_on=["vertex_id"],
        num_buckets=num_buckets, left_schema=esch, right_schema=lsch,
    ).map_batches(
        lambda b: pa.table(
            {"s": b["s"], "d": b["label"], "w": b["w"]}
        ),
        batch_format="pyarrow",
    )
    return bucket_group_agg(
        j2, ["s", "d"], {"w": ("w", "sum")}, num_buckets=num_buckets,
    ).materialize()


def _local_louvain(
    pdf: pd.DataFrame, sweeps: int, levels: int
) -> pd.DataFrame:
    """In-process vectorized mirror of the distributed sweep rule
    (IDENTICAL integer gains, tie order, synthetic own candidate, and
    contraction) — the repo-wide hybrid policy's local kernel."""
    s = pdf["s"].to_numpy(dtype=np.int64)
    d = pdf["d"].to_numpy(dtype=np.int64)
    w = pdf["w"].to_numpy(dtype=np.int64)
    tm = int(w.sum())

    def run_level(s, d, w):
        verts, _, k = _degrees(s, w)  # symmetric: every vertex a src
        lab = verts
        for _ in range(int(sweeps)):
            lab = _sweep_kernel(s, d, w, _sweep_state(verts, lab, k, tm))[1]
        return verts, lab

    verts, lab = run_level(s, d, w)
    vmap = dict(zip(verts.tolist(), lab.tolist()))
    for _ in range(int(levels) - 1):
        li = np.searchsorted(verts, s)
        ri = np.searchsorted(verts, d)
        cs, cd = lab[li], lab[ri]
        key_order = np.lexsort((cd, cs))
        cs, cd, cw = cs[key_order], cd[key_order], w[key_order]
        brk = np.r_[True, (cs[1:] != cs[:-1]) | (cd[1:] != cd[:-1])]
        gid = np.cumsum(brk) - 1
        s = cs[brk]
        d = cd[brk]
        w = np.zeros(int(gid[-1]) + 1 if len(gid) else 0, dtype=np.int64)
        np.add.at(w, gid, cw)
        verts2, lab2 = run_level(s, d, w)
        m2 = dict(zip(verts2.tolist(), lab2.tolist()))
        vmap = {v: m2[c] for v, c in vmap.items()}
        verts, lab = verts2, lab2
    items = sorted(vmap.items())
    return pd.DataFrame(
        {
            "vertex_id": np.array([a for a, _ in items], dtype=np.int64),
            "label": np.array([b for _, b in items], dtype=np.int64),
        }
    )


def louvain_communities(
    edges: ray.data.Dataset,
    *,
    sweeps: int = 3,
    levels: int = 1,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    local_threshold: int | None = 200_000,
    broadcast_threshold: int | None = 5_000_000,
    refine: bool = False,
) -> ray.data.Dataset:
    """Run ``levels`` Louvain levels of ``sweeps`` synchronous local-move
    rounds each over a SYMMETRIZED (src, dst[, weight]) edge Dataset;
    between levels communities contract to weighted supervertices.
    Returns a Dataset (vertex_id, label) over the ORIGINAL vertices —
    feed it to :func:`flashray.algorithms.modularity` to score. Fixed
    (sweeps, levels) budgets make the run deterministic and exactly
    replayable in round-unrolled SQL (driver oracle ``louvain_user``,
    levels=1). Below ``local_threshold`` edge rows the IDENTICAL rule
    runs as one in-process vectorized kernel (the repo-wide hybrid
    policy); 0/None forces the distributed dataflow. There each level
    sorts its edges by source once (one sort shuffle). While the level
    has <= ``broadcast_threshold`` vertices, each sweep broadcasts the
    O(V) vertex state via ``ray.put`` and runs the same kernel as one
    map over the sorted blocks (no shuffle per sweep); above it the
    sweep switches to the all-join dataflow (7 shuffles per sweep, no
    driver-resident state) — the same rule, agreement-tested. An
    empty edge Dataset yields an empty (vertex_id, label) Dataset.
    ``refine=True`` applies the
    Leiden connectivity refinement (:func:`leiden_refine`) to the final
    labels: each community is split into its intra-community connected
    components, so every returned community is internally connected."""
    e = _edge_table(edges, src_col, dst_col, weight_col)
    e0 = e  # level-0 projection (refine targets the input graph)
    n_rows = e.count()
    if not n_rows:
        return ray.data.from_arrow(_empty("vertex_id", "label"))
    if local_threshold and n_rows <= local_threshold:
        out = ray.data.from_pandas(
            _local_louvain(e.to_pandas(), sweeps, levels)
        )
        if refine:
            out = _refine_labels(e, out, num_buckets, local_threshold)
        return out
    tm = None
    mapping = None  # original vertex -> current-level community
    lsch = pa.schema([("vertex_id", _I64), ("label", _I64)])
    for lvl in range(int(levels)):
        # the level's one sort shuffle: each block now holds all the
        # rows of its sources, so the degrees are a per-block map
        e = e.sort("s").materialize()
        deg = e.map_batches(
            _block_degrees, batch_format="pyarrow", batch_size=None
        ).materialize()
        if broadcast_threshold and deg.count() <= broadcast_threshold:
            # broadcast the O(V) vertex state: no shuffle per sweep
            labels, tm_lvl = _broadcast_sweeps(e, deg, sweeps)
        else:
            # join it (7 shuffles per sweep, no driver-resident state)
            tm_lvl = int(deg.sum("kv"))
            labels = deg.map_batches(
                lambda b: pa.table(
                    {
                        "vertex_id": b["vertex_id"],
                        "label": b["vertex_id"],
                        "kv": b["kv"],
                    }
                ),
                batch_format="pyarrow",
            ).materialize()
            for _ in range(int(sweeps)):
                labels = _one_sweep(e, labels, tm_lvl, num_buckets)
        tm = tm_lvl if tm is None else tm
        assert tm_lvl == tm, "contraction must preserve 2m exactly"
        flat = labels.map_batches(
            lambda b: b.select(["vertex_id", "label"]),
            batch_format="pyarrow",
        ).materialize()
        if mapping is None:
            mapping = flat
        else:
            # compose: original -> old community -> new community
            mapping = bucket_hash_join(
                mapping.map_batches(
                    lambda b: b.rename_columns(["vertex_id", "__mid"]),
                    batch_format="pyarrow",
                ),
                flat,
                ["__mid"],
                right_on=["vertex_id"],
                num_buckets=num_buckets,
                left_schema=pa.schema(
                    [("vertex_id", _I64), ("__mid", _I64)]
                ),
                right_schema=lsch,
            ).map_batches(
                lambda b: b.select(["vertex_id", "label"]),
                batch_format="pyarrow",
            ).materialize()
        if lvl + 1 < int(levels):
            e = _contract(e, labels, num_buckets)
    if refine:
        # refine over the ORIGINAL (level-0) edges: the guarantee is
        # about connectivity in the input graph, not the coarse one
        mapping = _refine_labels(e0, mapping, num_buckets, local_threshold)
    return mapping


def _local_refine(epdf: pd.DataFrame, lpdf: pd.DataFrame) -> pd.DataFrame:
    """In-process mirror of :func:`leiden_refine`'s rule (identical
    intra-edge selection, min-vertex component labels) — the hybrid
    policy's local kernel."""
    from flashray.cc_mapreduce import _local_star_forest

    verts = lpdf["vertex_id"].to_numpy(dtype=np.int64)
    if not len(verts):
        return pd.DataFrame(
            {
                "vertex_id": np.array([], dtype=np.int64),
                "label": np.array([], dtype=np.int64),
            }
        )
    labv = lpdf["label"].to_numpy(dtype=np.int64)
    order = np.argsort(verts, kind="stable")
    vs, ls = verts[order], labv[order]
    s = epdf["s"].to_numpy(dtype=np.int64)
    d = epdf["d"].to_numpy(dtype=np.int64)
    ps = np.searchsorted(vs, s)
    pd_ = np.searchsorted(vs, d)
    ok = (
        (ps < len(vs)) & (pd_ < len(vs))
        & (vs[np.minimum(ps, len(vs) - 1)] == s)
        & (vs[np.minimum(pd_, len(vs) - 1)] == d)
    )
    intra = ok & (s != d)
    intra[intra] &= ls[ps[intra]] == ls[pd_[intra]]
    a = np.maximum(s[intra], d[intra])
    b = np.minimum(s[intra], d[intra])
    pairs = np.unique(np.stack([a, b], axis=1), axis=0) if len(a) else \
        np.empty((0, 2), dtype=np.int64)
    forest = _local_star_forest(
        pd.DataFrame({"a": pairs[:, 0], "b": pairs[:, 1]})
    )
    out = np.sort(verts).astype(np.int64)
    lab = out.copy()
    if len(forest):
        fa = forest["a"].to_numpy(dtype=np.int64)
        fb = forest["b"].to_numpy(dtype=np.int64)
        fo = np.argsort(fa, kind="stable")
        fa, fb = fa[fo], fb[fo]
        pos = np.searchsorted(fa, out)
        hit = (pos < len(fa)) & (fa[np.minimum(pos, len(fa) - 1)] == out)
        lab[hit] = fb[pos[hit]]
    return pd.DataFrame({"vertex_id": out, "label": lab})


def _refine_labels(e, labels, num_buckets, local_threshold):
    """Core of :func:`leiden_refine` over an already-projected symmetric
    (s, d[, w]) edge table."""
    lsch = pa.schema([("vertex_id", _I64), ("label", _I64)])

    def lproj(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vertex_id": b["vertex_id"].cast(_I64),
                "label": b["label"].cast(_I64),
            }
        )

    lab = labels.map_batches(lproj, batch_format="pyarrow").materialize()
    if local_threshold and e.count() <= local_threshold:
        return ray.data.from_pandas(
            _local_refine(e.to_pandas(), lab.to_pandas())
        )
    from flashray.cc_mapreduce import star_forest

    esch = pa.schema([("s", _I64), ("d", _I64)])
    ed = e.map_batches(
        lambda b: b.select(["s", "d"]), batch_format="pyarrow"
    )
    j1 = bucket_hash_join(
        ed, lab, ["s"], right_on=["vertex_id"], num_buckets=num_buckets,
        left_schema=esch, right_schema=lsch,
    ).map_batches(
        lambda b: pa.table({"s": b["s"], "d": b["d"], "ls": b["label"]}),
        batch_format="pyarrow",
    )
    j2 = bucket_hash_join(
        j1, lab, ["d"], right_on=["vertex_id"], num_buckets=num_buckets,
        left_schema=pa.schema([("s", _I64), ("d", _I64), ("ls", _I64)]),
        right_schema=lsch,
    )

    def intra(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        d = b["d"].to_numpy(zero_copy_only=False)
        m = (b["ls"].to_numpy(zero_copy_only=False)
             == b["label"].to_numpy(zero_copy_only=False)) & (s != d)
        return pa.table(
            {
                "a": pa.array(np.maximum(s[m], d[m]).astype(np.int64)),
                "b": pa.array(np.minimum(s[m], d[m]).astype(np.int64)),
            }
        )

    ie = bucket_group_agg(
        j2.map_batches(intra, batch_format="pyarrow"),
        ["a", "b"], None, num_buckets=num_buckets,
    )
    forest = star_forest(
        ie, num_buckets=num_buckets, local_threshold=local_threshold
    )

    # int64-exact finish (no null-padded left join): forest rows are the
    # non-roots; every other labeled vertex is its component's min.
    nonroot = forest.map_batches(
        lambda b: pa.table({"vertex_id": b["a"], "label": b["b"]}),
        batch_format="pyarrow",
    )
    roots = bucket_semi_join(
        lab.map_batches(
            lambda b: b.select(["vertex_id"]), batch_format="pyarrow"
        ),
        forest, ["vertex_id"], right_on=["a"], anti=True,
        num_buckets=num_buckets,
        left_schema=pa.schema([("vertex_id", _I64)]),
    ).map_batches(
        lambda b: pa.table(
            {"vertex_id": b["vertex_id"], "label": b["vertex_id"]}
        ),
        batch_format="pyarrow",
    )
    return nonroot.union(roots)


def leiden_refine(
    edges: ray.data.Dataset,
    labels: ray.data.Dataset,
    *,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
    local_threshold: int | None = 200_000,
) -> ray.data.Dataset:
    """Leiden-style connectivity refinement (the refinement-phase
    guarantee of Traag/Waltman/van Eck 2019, *From Louvain to Leiden*):
    Louvain local moves can leave a community internally DISCONNECTED
    (§3 of the paper — the central defect Leiden fixes); this pass
    splits every community of ``labels`` into its connected components
    over the intra-community edges, so each returned community is
    guaranteed internally connected. Deterministic label = the smallest
    vertex id in the component (the repo-wide hash-min WCC convention),
    which is SQL-replayable as a recursive min-root closure restricted
    to equal-label edges (driver oracle ``leiden_user``).

    Dataflow: two bounded label-attach joins + one (a, b) distinct +
    the :func:`flashray.cc_mapreduce.star_forest` large/small-star
    rounds + one left join back — O(edges) rows per stage, never a
    per-community task. Edges with an endpoint missing from ``labels``
    cannot be intra-community and are excluded. Below
    ``local_threshold`` edge rows the IDENTICAL rule runs in-process
    (the repo-wide hybrid policy). Returns (vertex_id, label), one row
    per ``labels`` row."""
    e = _edge_table(edges, src_col, dst_col, None)
    return _refine_labels(e, labels, num_buckets, local_threshold)
