"""One-call algorithm API — the rebuild of ``flash-graph/FGlib.h``
(``compute_pagerank``, ``compute_wcc``, … each returning an ``FG_vector``;
SURVEY.md §2.2). Each function owns its iteration policy and drives the
superstep engine through :func:`flashray.engine.run_program`; results come
back as a pandas DataFrame ``(vertex_id, value)`` (small) or a partitioned
parquet dir (large, via ``out_dir=``) — the FG_vector analogue (SURVEY.md
§2.3 S4).

``pagerank``, ``personalized_pagerank``, ``wcc``, ``label_propagation``,
``bfs``, ``sssp``, ``dag_levels`` and ``kcore`` accept
``checkpoint_dir``/``checkpoint_interval``/``resume`` for mid-algorithm
resumability (north-rule addition; the reference reruns from scratch on
failure).
"""

from __future__ import annotations

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from flashray import routing
from flashray.build import Graph
from flashray.csr import INT_IDENTITY
from flashray.engine import _part_file, _postprocess_part, run_program
from flashray.programs import (
    BFS,
    DeltaPageRank,
    GreedyColor,
    Katz,
    KCorePeel,
    MaxIndependentSet,
    MinLabel,
    PageRank,
    PersonalizedPageRank,
    PowerIteration,
)


def _no_change(m) -> bool:
    return m["changed"] == 0


def _unreached_to_minus1(df):
    df["value"] = np.where(df["value"] == INT_IDENTITY, -1, df["value"])
    return df


def _warm_start_ref(warm_start, dtype):
    """Object ref of a prior (vertex_id, value) frame as sorted arrays —
    a program's ``init_values`` — or None without a warm start."""
    if warm_start is None:
        return None
    ws = warm_start.sort_values("vertex_id")
    return ray.put(
        (
            ws["vertex_id"].to_numpy(dtype=np.int64),
            ws["value"].to_numpy(dtype=dtype),
        )
    )


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    eps: float = 1e-6,
    max_iters: int = 200,
    mode: str = "pull",
    weighted: bool = False,
    out_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 5,
    resume: bool = False,
    warm_start=None,
):
    """A1/A2. ``mode='pull'`` = dense power iteration (compute_pagerank);
    ``mode='push'`` = delta/frontier PageRank (compute_pagerank2).
    ``weighted=True`` distributes rank proportionally to edge weights.

    ``warm_start``: a prior (vertex_id, value) DataFrame — e.g. the
    converged scores of the graph BEFORE an :func:`build.add_edges`
    ingest. Iteration starts from those scores (new vertices at 1/N), so
    a small edge delta converges in a few supersteps instead of a cold
    power iteration; the fixed point is identical (power iteration is
    contraction-convergent from any start). Same-layout restarts should
    use ``checkpoint_dir``/``resume`` instead — warm_start is the
    CROSS-layout path (partition count or vertex set changed)."""
    if warm_start is not None and mode != "pull":
        raise ValueError("warm_start requires mode='pull'")
    iv = _warm_start_ref(warm_start, np.float64)
    prog = (
        PageRank(damping, weighted=weighted, init_values=iv)
        if mode == "pull"
        else DeltaPageRank(damping, tol=eps * 1e-3)
    )
    return run_program(
        graph, prog, lambda m: m["delta"] < eps, max_iters=max_iters,
        out_dir=out_dir, checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def personalized_pagerank(
    graph: Graph,
    seeds,
    *,
    damping: float = 0.85,
    eps: float = 1e-6,
    max_iters: int = 200,
    out_dir: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 5,
    resume: bool = False,
):
    """A1 variant: PageRank with the teleport restricted to ``seeds``
    (random-walk-with-restart relevance to the seed set)."""
    return run_program(
        graph, PersonalizedPageRank(seeds, damping),
        lambda m: m["delta"] < eps, max_iters=max_iters, out_dir=out_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def katz(
    graph: Graph,
    *,
    alpha: float = 0.1,
    beta: float = 1.0,
    weighted: bool = False,
    eps: float = 1e-9,
    max_iters: int = 100,
    out_dir: str | None = None,
):
    """Katz centrality (prestige) by power iteration on the superstep
    engine: ``x = beta + alpha * A^T x``. Fixed-iteration runs (``eps=0.0``,
    ``max_iters=T``) equal the level-T path-count recurrence exactly —
    the driver oracle replays it in SQL. Exactness at fixed T requires the
    two-phase mirror path on split graphs, so eps=0.0 turns it on (the
    convergence path keeps the cheaper stale-mirror fused rounds — at the
    fixpoint the one-superstep mirror lag is harmless)."""
    prog = Katz(alpha, beta, weighted=weighted, exact_iterations=(eps == 0.0))
    return run_program(
        graph, prog, lambda m: m["delta"] < eps, max_iters=max_iters,
        out_dir=out_dir,
    )


def eigenvector_centrality(
    graph: Graph,
    *,
    iters: int = 20,
    weighted: bool = False,
    normalize: bool = True,
    out_dir: str | None = None,
):
    """Eigenvector centrality by fixed-T unnormalized power iteration on
    the superstep engine (``x = Aᵀx`` from x=1; see
    programs.PowerIteration), divided by the max once at the end. Fixed-T
    raw values are exact length-T path counts on an unweighted graph, so
    the driver oracle replays them in SQL level-by-level; the single end
    division is order-independent (exact-integer operands). T must stay
    modest (path counts grow like λ_max^T in float64). With ``out_dir``
    the max is read from the written parts, and a row-local pass divides
    each part by it."""
    prog = PowerIteration(weighted=weighted, exact_iterations=True)
    result = run_program(
        graph, prog, lambda m: False, max_iters=int(iters), out_dir=out_dir,
    )
    if not normalize:
        return result
    if out_dir is None:
        mx = float(result["value"].max() or 0.0)
        if mx > 0:
            result["value"] = result["value"] / mx
        return result
    parts = [_part_file(out_dir, p) for p in range(graph.num_partitions)]
    mx = max(
        (pc.max(pq.read_table(f, columns=["value"])["value"]).as_py() or 0.0)
        for f in parts
    )
    if mx > 0:
        ray.get(
            [
                _postprocess_part.remote(f, lambda df: df.assign(value=df["value"] / mx))
                for f in parts
            ]
        )
    return result


def mis(
    graph: Graph,
    *,
    salt: int = 0,
    hash_fn: str = "splitmix",
    max_iters: int = 400,
    out_dir: str | None = None,
):
    """Deterministic Luby maximal independent set (see
    programs.MaxIndependentSet). Requires a symmetrized graph (scatter
    must reach every neighbor). Result value: 1 = in MIS, 2 = out."""
    if not graph.meta.symmetrized:
        raise ValueError("mis() needs a symmetrized graph (build with "
                         "symmetrize=True)")
    return run_program(
        graph, MaxIndependentSet(salt, hash_fn),
        lambda m: m["undecided"] == 0, max_iters=max_iters, out_dir=out_dir,
    )


def greedy_color(
    graph: Graph,
    *,
    salt: int = 0,
    hash_fn: str = "splitmix",
    max_iters: int = 2000,
    out_dir: str | None = None,
):
    """Deterministic greedy coloring (see programs.GreedyColor): color =
    peel depth under hash-priority order; adjacent vertices always differ
    (two adjacent minima over the same uncolored set are impossible).
    Requires a symmetrized graph. Result value = color >= 0."""
    if not graph.meta.symmetrized:
        raise ValueError("greedy_color() needs a symmetrized graph")
    return run_program(
        graph, GreedyColor(salt, hash_fn), lambda m: m["uncolored"] == 0,
        max_iters=max_iters, out_dir=out_dir,
    )


def wcc(graph: Graph, *, max_iters: int = 200, out_dir=None, checkpoint_dir=None,
        checkpoint_interval: int = 5, resume: bool = False, warm_start=None):
    """A3: weakly connected components (hash-min label propagation);
    ``value`` = min vertex id of the component. Expects a symmetrized graph
    for the undirected-WCC semantics (libgraph-algs/wcc.cpp).

    ``warm_start``: a prior (vertex_id, value) DataFrame — the converged
    components of the graph BEFORE an :func:`build.add_edges` ingest.
    Labels start at min(own id, prior label) so the min flood only has to
    cross the NEW edges between pre-flooded components; the fixpoint is
    identical (prior labels are min-ids of subsets of the merged
    components). Same-layout restarts should use ``checkpoint_dir`` /
    ``resume``; warm_start is the CROSS-layout path."""
    prog = MinLabel(None, init_values=_warm_start_ref(warm_start, np.int64))
    return run_program(
        graph, prog, _no_change, max_iters=max_iters, out_dir=out_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def label_propagation(graph: Graph, seeds: dict, *, max_iters: int = 200,
                      out_dir=None, checkpoint_dir=None, checkpoint_interval: int = 5,
                      resume: bool = False):
    """A4: min-semiring label propagation from seed labels; unreached
    vertices keep the INT_IDENTITY sentinel (mapped to -1 in the output)."""
    return run_program(
        graph, MinLabel(seeds), _no_change, max_iters=max_iters,
        out_dir=out_dir, postprocess=_unreached_to_minus1,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def bfs(graph: Graph, seeds, *, max_iters: int = 10_000, out_dir=None,
        checkpoint_dir=None, checkpoint_interval: int = 10, resume: bool = False):
    """A10: hop distance from the seed set (-1 = unreachable)."""
    return run_program(
        graph, BFS(seeds), _no_change, max_iters=max_iters, out_dir=out_dir,
        postprocess=_unreached_to_minus1, checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def sssp(graph: Graph, seeds, *, max_iters: int = 10_000, out_dir=None,
         checkpoint_dir=None, checkpoint_interval: int = 10,
         resume: bool = False):
    """Weighted shortest distance from the seed set (frontier Bellman-Ford
    in the (min, +) semiring; non-negative weights; -1 = unreachable)."""
    from flashray.programs import SSSP

    def clean(df):
        df["value"] = np.where(np.isinf(df["value"]), -1.0, df["value"])
        return df

    return run_program(
        graph, SSSP(seeds), _no_change, max_iters=max_iters, out_dir=out_dir,
        postprocess=clean, checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval, resume=resume,
    )


def landmark_distances(graph: Graph, landmarks, *, weighted: bool = False,
                       max_iters: int = 10_000):
    """Per-landmark distances in ONE sweep: K simultaneous BFS floods
    as vector-valued vertex state (:class:`programs.MultiSourceBFS`,
    ``value_dim = K``) — the standard landmark/pivot distance
    featurization for graph ML, at 1 graph pass instead of K.
    ``weighted=True`` floods weighted distances instead of hop counts
    (K simultaneous tropical-semiring SSSPs). Returns
    (vertex_id, dist_<landmark>...) with -1 for unreachable."""
    import pandas as pd

    from flashray.programs import MultiSourceBFS

    prog = MultiSourceBFS(landmarks, weighted=weighted)

    def widen(df):
        mat = np.stack(df["value"].to_numpy())  # (nv, K) from fixed-size lists
        out = pd.DataFrame({"vertex_id": df["vertex_id"].astype(np.int64)})
        for i, s in enumerate(prog.seeds):
            col = mat[:, i]
            unreached = np.isinf(col) if weighted else col >= INT_IDENTITY
            out[f"dist_{int(s)}"] = np.where(unreached, -1, col)
        return out

    return run_program(
        graph, prog, _no_change, max_iters=max_iters, postprocess=widen,
    )


def multi_ppr(graph: Graph, seeds, *, damping: float = 0.85,
              eps: float = 1e-6, max_iters: int = 200):
    """K personalized PageRanks in ONE sweep
    (:class:`programs.MultiSourcePPR`, ``value_dim = K``): per-seed
    random-walk-with-restart proximity — the PPR feature/embedding
    primitive for recsys and graph ML, at 1 graph pass instead of K
    separate runs. Each column equals ``personalized_pagerank(graph,
    [seed])`` exactly (asserted in tests). Returns LONG form
    (vertex_id, seed, rank) with exact-zero rows (vertices the seed's
    walk cannot reach) dropped — both the engine and the SQL recurrence
    produce literal 0.0 there, so the filter is replay-safe."""
    import pandas as pd

    from flashray.programs import MultiSourcePPR

    prog = MultiSourcePPR(seeds, damping)

    def to_long(df):
        mat = np.stack(df["value"].to_numpy())  # (nv, K) fixed-size lists
        vids = df["vertex_id"].to_numpy().astype(np.int64)
        K = len(prog.seeds)
        out = pd.DataFrame(
            {
                "vertex_id": np.repeat(vids, K),
                "seed": np.tile(prog.seeds, len(vids)),
                "rank": mat.reshape(-1),
            }
        )
        out = out[out["rank"] > 0.0]
        return out.sort_values(["seed", "vertex_id"]).reset_index(drop=True)

    return run_program(
        graph, prog, lambda m: m["delta"] < eps, max_iters=max_iters,
        postprocess=to_long,
    )


def closeness_centrality(graph: Graph, *, landmarks=None, k: int = 8,
                         weighted: bool = False, out_dir: str | None = None,
                         max_iters: int = 10_000):
    """Sampled closeness + harmonic centrality (Eppstein–Wang style
    estimation over a landmark sample, Boldi–Vigna's harmonic variant
    included): ONE :class:`programs.MultiSourceBFS` sweep floods hop (or
    weighted) distances from the K landmarks, then a pure per-vertex fold —
    no extra shuffle.

    Definitions over the sample S (exact, SQL-replayable, well-defined on
    directed/disconnected graphs):

    - ``reached``   = #{s ∈ S : s reaches v}           (includes d = 0)
    - ``closeness`` = r⁺ / Σ_{s: d(s,v)>0} d(s,v)      (0.0 if r⁺ = 0)
      with r⁺ = #{s : d(s,v) > 0} — the mean-inverse-distance estimator;
      multiply by (n−1)·K/n for the classic asymptotic scale.
    - ``harmonic``  = Σ_{s: d(s,v)>0} 1/d(s,v)

    ``landmarks=None`` samples the K smallest vertex ids (deterministic);
    at 100 TB pass hash-sampled ids instead. ``out_dir=`` folds each
    partition's value dump in place and returns the dump as a Dataset
    (scale path); default returns pandas (V × 4 driver rows — explicit
    small-output collector, same contract as :func:`landmark_distances`)."""
    import pandas as pd

    from flashray.programs import MultiSourceBFS

    if landmarks is None:
        landmarks = (
            graph.vertices_dataset(columns=["vertex_id"])
            .sort("vertex_id")
            .limit(k)
            .to_pandas()["vertex_id"]
            .astype(np.int64)
            .tolist()
        )
    prog = MultiSourceBFS(sorted(landmarks), weighted=weighted)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vertex_id"].to_numpy()
        mat = (
            np.stack(df["value"].to_numpy())
            if len(df)
            else np.empty((0, len(prog.seeds)))
        )
        unre = np.isinf(mat) if weighted else mat >= INT_IDENTITY
        d = mat.astype(np.float64)
        pos = (~unre) & (d > 0)
        reached = (~unre).sum(axis=1).astype(np.int64)
        rpos = pos.sum(axis=1).astype(np.int64)
        sumd = np.where(pos, d, 0.0).sum(axis=1)
        clo = np.divide(rpos, sumd, out=np.zeros(len(ids)), where=sumd > 0)
        har = np.where(pos, np.divide(1.0, d, out=np.zeros_like(d),
                                      where=pos), 0.0).sum(axis=1)
        return pd.DataFrame(
            {
                "vertex_id": ids.astype(np.int64),
                "reached": reached,
                "closeness": clo,
                "harmonic": har,
            }
        )

    result = run_program(
        graph, prog, _no_change, max_iters=max_iters, out_dir=out_dir,
        postprocess=fold,
    )
    if out_dir is None:
        return result
    import ray.data

    return ray.data.read_parquet(result)


def _peel(eng, max_supersteps: int, checkpoint_dir=None,
          checkpoint_interval: int = 0) -> None:
    """The k-core peel schedule (compute_kcore's per-k loop) shared by
    :func:`kcore` and :func:`onion_layers`: step until the phase
    stabilizes, then raise k by broadcast event until some vertex peels;
    stop once nothing is alive anywhere. k is scalar program state, so a
    run resumed mid-decomposition continues its phase (restarting at k=1
    against already-decremented residual degrees would corrupt
    coreness)."""
    k = int(eng.get_scalar("k", 1))
    for _ in range(max_supersteps):
        m = eng.step()
        eng.checkpoint_if_due(checkpoint_dir, checkpoint_interval)
        if m["changed"] == 0:
            alive = m.get("alive", 0)
            while alive > 0:
                k += 1
                ev = eng.broadcast_event({"k": k})
                alive = ev.get("alive", 0)
                if ev.get("changed", 0) > 0:
                    break  # new removals must propagate decrements
            else:
                break  # nothing alive anywhere: done


def kcore(graph: Graph, *, out_dir=None, checkpoint_dir=None,
          checkpoint_interval: int = 10, resume: bool = False,
          max_supersteps: int = 100_000):
    """A9: full k-core decomposition (coreness per vertex) by iterative
    peeling on a symmetrized graph. The driver raises k when a phase
    stabilizes (broadcast event), mirroring compute_kcore's per-k loop."""
    return run_program(
        graph, KCorePeel(),
        drive=lambda eng: _peel(
            eng, max_supersteps, checkpoint_dir, checkpoint_interval
        ),
        out_dir=out_dir, checkpoint_dir=checkpoint_dir, resume=resume,
    )


def onion_layers(graph: Graph, *, max_supersteps: int = 100_000):
    """Onion decomposition (Hébert-Dufresne, Grochow & Allard 2016): the
    k-core peel of :func:`kcore` with the synchronous removal ROUND of
    each vertex recorded — layer 1 peels first, the innermost layer last.
    Returns (vertex_id, coreness, layer); coreness matches :func:`kcore`
    exactly (identical peel schedule), layer is the dense rank of the
    vertex's removal wave over all waves that removed anything anywhere
    (driver-side rank over the tiny distinct-wave set). Symmetrized
    graphs only, like kcore."""
    import pandas as pd

    from flashray.programs import OnionPeel

    def decode(df):
        enc = df["value"].to_numpy().astype(np.int64)
        wave = enc & np.int64(0xFFFF_FFFF)
        uniq, inv = np.unique(wave, return_inverse=True)
        return pd.DataFrame(
            {
                "vertex_id": df["vertex_id"].to_numpy().astype(np.int64),
                "coreness": (enc >> np.int64(32)).astype(np.int64),
                "layer": (inv + 1).astype(np.int64),
            }
        )

    return run_program(
        graph, OnionPeel(), drive=lambda eng: _peel(eng, max_supersteps),
        postprocess=decode,
    )


def attribute_mixing(graph: Graph, attrs, *, attr_col: str = "attr",
                     num_buckets: int = 64):
    """Nominal mixing matrix over edge endpoint attributes (Newman 2003,
    *Mixing patterns in networks*, §II): for every directed edge, attach
    the source and destination vertex attributes and count the (x, y)
    cells. ``attrs`` is a Dataset of (vertex_id, <attr_col>). A15-family
    graph statistic.

    Dataflow: two bucketed hash joins attach the endpoint attributes (the
    attribute table shuffles — never broadcast, so a 10^11-vertex label
    table costs two exchanges, not driver memory), then per-batch partial
    counts fold into the tiny |attrs|² matrix on the driver. Edges with an
    unlabeled endpoint are dropped (inner joins). Returns a pandas
    DataFrame (attr_src, attr_dst, n_edges, frac) sorted by cell."""
    import pandas as pd

    from flashray.joins import bucket_hash_join

    I64 = np.int64
    edges = graph.edges_dataset(columns=["src", "dst"])
    import pyarrow as pa

    a_src = attrs.map_batches(
        lambda b: pa.table(
            {"src": b["vertex_id"].cast(pa.int64()),
             "attr_src": b[attr_col].cast(pa.string())}
        ),
        batch_format="pyarrow",
    )
    a_dst = attrs.map_batches(
        lambda b: pa.table(
            {"dst": b["vertex_id"].cast(pa.int64()),
             "attr_dst": b[attr_col].cast(pa.string())}
        ),
        batch_format="pyarrow",
    )
    es = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    j1 = bucket_hash_join(
        edges, a_src, ["src"], num_buckets=num_buckets,
        left_schema=es,
        right_schema=pa.schema([("src", pa.int64()),
                                ("attr_src", pa.string())]),
    )
    j2 = bucket_hash_join(
        j1, a_dst, ["dst"], num_buckets=num_buckets,
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                               ("attr_src", pa.string())]),
        right_schema=pa.schema([("dst", pa.int64()),
                                ("attr_dst", pa.string())]),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["attr_src", "attr_dst"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n_edges"})
        )

    parts = j2.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(parts):
        return pd.DataFrame(
            {"attr_src": pd.Series(dtype=str),
             "attr_dst": pd.Series(dtype=str),
             "n_edges": pd.Series(dtype=I64),
             "frac": pd.Series(dtype=np.float64)}
        )
    m = (
        parts.groupby(["attr_src", "attr_dst"], as_index=False)["n_edges"]
        .sum()
        .sort_values(["attr_src", "attr_dst"])
        .reset_index(drop=True)
    )
    m["n_edges"] = m["n_edges"].astype(I64)
    m["frac"] = m["n_edges"] / m["n_edges"].sum()
    return m


def attribute_assortativity(mixing: "pd.DataFrame") -> float:
    """Nominal assortativity coefficient from an :func:`attribute_mixing`
    matrix (Newman 2003 eq. 2): r = (Σᵢ eᵢᵢ − Σᵢ aᵢ·bᵢ) / (1 − Σᵢ aᵢ·bᵢ)
    with a = row sums, b = column sums of the edge-fraction matrix.
    1 = perfectly assortative, 0 = random mixing, negative =
    disassortative (bounded below by the marginals)."""
    e = mixing.pivot_table(
        index="attr_src", columns="attr_dst", values="frac",
        aggfunc="sum", fill_value=0.0,
    )
    labels = sorted(set(e.index) | set(e.columns))
    e = e.reindex(index=labels, columns=labels, fill_value=0.0).to_numpy()
    tr = float(np.trace(e))
    ab = float(e.sum(axis=1) @ e.sum(axis=0))
    if ab >= 1.0:
        return 0.0  # single attribute value: mixing is degenerate
    return (tr - ab) / (1.0 - ab)


def pseudo_diameter(graph: Graph, *, sweeps: int = 4, start_vertex=None) -> int:
    """A11 (libgraph-algs/diameter_graph.cpp — estimate_diameter): repeated
    BFS sweeps, restarting from the farthest vertex found."""
    if start_vertex is None:
        start_vertex = int(
            graph.vertices_dataset(columns=["vertex_id"]).take(1)[0]["vertex_id"]
        )
    best = 0
    seed = start_vertex
    for _ in range(sweeps):
        df = bfs(graph, [seed])
        reached = df[df["value"] >= 0]
        far = reached.loc[reached["value"].idxmax()]
        if far["value"] <= best and int(far["vertex_id"]) == seed:
            break
        best = max(best, int(far["value"]))
        seed = int(far["vertex_id"])
    return best


def degrees(graph: Graph):
    """A15 (FGlib.h — get_degree): the vertex/degree table as a Dataset."""
    return graph.vertices_dataset()


def _prep_partition_labels(und, labels, allow_partial: bool):
    """Shared label-input normalization + coverage validation for the
    partition-quality metrics (:func:`modularity`, :func:`conductance`):
    pandas→Dataset with strict int/string dtype rules, reject duplicate
    vertex_id rows, and (unless ``allow_partial``) require every
    non-isolated vertex of the undirected edge set to carry a label.
    Returns ``(labels_dataset, label_arrow_type, label_schema)``."""
    import pandas as pd
    import pyarrow as pa

    from flashray.joins import _arrow_schema, bucket_group_agg, bucket_hash_join
    from flashray.triangles import _deg_from_und

    if isinstance(labels, pd.DataFrame):
        import ray.data as rd

        lpd = labels[["vertex_id", "label"]].copy()
        if lpd["label"].dtype == object:
            pass  # string labels flow through as-is
        elif np.issubdtype(lpd["label"].dtype, np.integer):
            lpd["label"] = lpd["label"].astype(np.int64)
        else:
            # mirror the Dataset path: no silent float/NaN truncation
            raise ValueError(
                f"label column must be integer or string, got "
                f"{lpd['label'].dtype}"
            )
        lpd["vertex_id"] = lpd["vertex_id"].astype(np.int64)
        labels = rd.from_pandas(lpd)
    I64 = pa.int64()
    lab_f = _arrow_schema(labels).field("label")
    lab_t = pa.string() if pa.types.is_string(lab_f.type) else I64
    if not (pa.types.is_string(lab_f.type) or pa.types.is_integer(lab_f.type)):
        raise ValueError(
            f"label column must be integer or string, got {lab_f.type}"
        )
    if lab_t == I64 and lab_f.type != I64:
        labels = labels.map_batches(
            lambda b: pa.table(
                {
                    "vertex_id": b["vertex_id"].cast(I64),
                    "label": b["label"].cast(I64),
                }
            ),
            batch_format="pyarrow",
        )
    labels = labels.materialize()
    lsch = pa.schema([("vertex_id", I64), ("label", lab_t)])
    if not allow_partial:
        # Raw row counts mask duplicates and labels for vertices outside
        # the graph (duplicates also double-count rows in e_c/deg_c):
        # count DISTINCT labeled vertices, then semi-join against the
        # degree table so only in-graph vertices count as covered.
        deg_full = _deg_from_und(und)
        n_vertices = deg_full.count()
        n_rows = labels.count()
        lab_ids = bucket_group_agg(
            labels.map_batches(
                lambda b: b.select(["vertex_id"]), batch_format="pyarrow"
            ),
            ["vertex_id"],
            None,
        ).materialize()
        if lab_ids.count() < n_rows:
            raise ValueError(
                "labels contain duplicate vertex_id rows — each vertex "
                "must carry exactly one label (duplicates would "
                "double-count rows in the per-community sums)"
            )
        n_covered = bucket_hash_join(
            deg_full.map_batches(
                lambda b: b.select(["vertex_id"]), batch_format="pyarrow"
            ),
            lab_ids,
            ["vertex_id"],
            left_schema=pa.schema([("vertex_id", I64)]),
            right_schema=pa.schema([("vertex_id", I64)]),
        ).count()
        if n_covered < n_vertices:
            raise ValueError(
                f"labels cover {n_covered} of {n_vertices} non-isolated "
                "vertices — pass allow_partial=True to score anyway "
                "(edges at unlabeled vertices count as cut)"
            )
    return labels, lab_t, lsch


def _edge_labels(und, labels, lab_t, lsch):
    """Attach BOTH endpoint labels to each canonical undirected edge:
    two bucket hash joins → (lo, hi, label_lo, label)."""
    import pyarrow as pa

    from flashray.joins import bucket_hash_join

    I64 = pa.int64()
    j = bucket_hash_join(
        und, labels, ["lo"], right_on=["vertex_id"],
        left_schema=pa.schema([("lo", I64), ("hi", I64)]),
        right_schema=lsch,
    ).map_batches(
        lambda b: b.rename_columns(
            ["label_lo" if c == "label" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )
    return bucket_hash_join(
        j, labels, ["hi"], right_on=["vertex_id"],
        left_schema=pa.schema([("lo", I64), ("hi", I64), ("label_lo", lab_t)]),
        right_schema=lsch,
    )


def _local_partition_prep(und_pdf, labels, allow_partial: bool):
    """In-process mirror of :func:`_prep_partition_labels` (identical
    dtype rules, duplicate rejection, coverage check and error texts)
    plus the two inner endpoint-label joins. Returns
    ``(edge_labels_df (lo, hi, label_lo, label), labeled_degrees_df
    (vertex_id, deg, label))`` — the exact inputs the distributed
    modularity/conductance folds consume."""
    import pandas as pd

    lpd = labels if isinstance(labels, pd.DataFrame) else labels.to_pandas()
    lpd = lpd[["vertex_id", "label"]].copy()
    if lpd["label"].dtype == object:
        pass
    elif np.issubdtype(lpd["label"].dtype, np.integer):
        lpd["label"] = lpd["label"].astype(np.int64)
    else:
        raise ValueError(
            f"label column must be integer or string, got "
            f"{lpd['label'].dtype}"
        )
    lpd["vertex_id"] = lpd["vertex_id"].astype(np.int64)
    lo = und_pdf["lo"].to_numpy(dtype=np.int64)
    hi = und_pdf["hi"].to_numpy(dtype=np.int64)
    vid, cnt = np.unique(np.concatenate([lo, hi]), return_counts=True)
    if lpd["vertex_id"].duplicated().any():
        raise ValueError(
            "labels contain duplicate vertex_id rows — each vertex "
            "must carry exactly one label (duplicates would "
            "double-count rows in the per-community sums)"
        )
    if not allow_partial:
        n_covered = int(np.isin(vid, lpd["vertex_id"].to_numpy()).sum())
        if n_covered < len(vid):
            raise ValueError(
                f"labels cover {n_covered} of {len(vid)} non-isolated "
                "vertices — pass allow_partial=True to score anyway "
                "(edges at unlabeled vertices count as cut)"
            )
    deg = pd.DataFrame({"vertex_id": vid, "deg": cnt.astype(np.int64)})
    j = (
        und_pdf.merge(
            lpd.rename(columns={"vertex_id": "lo", "label": "label_lo"}),
            on="lo",
        ).merge(
            lpd.rename(columns={"vertex_id": "hi"}), on="hi"
        )
    )
    dl = deg.merge(lpd, on="vertex_id")
    return j, dl


def modularity(
    graph: Graph,
    labels,
    *,
    allow_partial: bool = False,
) -> float:
    """Newman modularity Q of ANY vertex labeling over the undirected
    (canonical, cross-etype-deduped) edge set:
    ``Q = Σ_c e_c/m − Σ_c (deg_c / 2m)²`` with e_c = within-community
    edges, deg_c = total degree of community c, m = undirected edges.

    ``labels`` is a Dataset or pandas DataFrame (vertex_id, label); the
    label column may be any int type or string (the label only enters
    through equality and grouping). Labels must cover every NON-ISOLATED
    graph vertex — a vertex missing from ``labels`` drops out of both
    e_c and Σdeg_c² while m still counts its edges, silently skewing Q;
    by default a coverage mismatch raises. ``allow_partial=True`` skips
    the check and scores edges at unlabeled vertices as cut (documented
    partial-labeling semantics).

    Distributed shape: two bucket joins attach both endpoint labels to
    each edge; e_c and deg_c reduce through bucketed sums; the final fold
    over communities streams one partial row per block (the local route
    runs it in-process). The quality metric for any community detection
    / partitioning output."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join
    from flashray.triangles import _canonical_undirected, _deg_from_und

    und = _canonical_undirected(graph).materialize()
    m = und.count()
    if m == 0:
        return 0.0
    if routing.choose("algorithms.modularity", 400 * m) == "local":
        jl, dl = _local_partition_prep(und.to_pandas(), labels,
                                       allow_partial)
        e_in = int(
            (jl["label_lo"].to_numpy() == jl["label"].to_numpy()).sum()
        )
        dc = dl.groupby("label")["deg"].sum().to_numpy(dtype=np.float64)
        return float(e_in) / m - float((dc * dc).sum()) / (4.0 * m * m)
    I64 = pa.int64()
    labels, lab_t, lsch = _prep_partition_labels(und, labels, allow_partial)
    j = _edge_labels(und, labels, lab_t, lsch)

    def within(b: pa.Table) -> pa.Table:
        # elementwise equality holds for int64 and (object) string arrays
        same = (
            b["label_lo"].to_numpy(zero_copy_only=False)
            == b["label"].to_numpy(zero_copy_only=False)
        )
        return pa.table({"e_in": pa.array([int(same.sum())])})

    e_in = j.map_batches(within, batch_format="pyarrow").sum("e_in") or 0

    deg = _deg_from_und(und)
    dl = bucket_hash_join(
        deg, labels, ["vertex_id"],
        left_schema=pa.schema([("vertex_id", I64), ("deg", I64)]),
        right_schema=lsch,
    )
    deg_c = bucket_group_agg(dl, ["label"], {"deg_c": ("deg", "sum")})

    def fold(b: pa.Table) -> pa.Table:
        d = b["deg_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"sq": pa.array([float((d * d).sum())])})

    sq = deg_c.map_batches(fold, batch_format="pyarrow").sum("sq") or 0.0
    return float(e_in) / m - sq / (4.0 * m * m)


def conductance(
    graph: Graph,
    labels,
    *,
    allow_partial: bool = False,
):
    """Per-community conductance over the canonical undirected edge set:
    ``φ(c) = cut_c / min(vol_c, 2m − vol_c)`` with cut_c = edges with
    exactly one endpoint labeled c, vol_c = Σ degree over c, m =
    undirected edges — the standard cluster-quality score (lower =
    better-separated). φ is 0.0 when the denominator is 0 (a community
    that IS the whole graph, or — under ``allow_partial`` — an empty one).

    Same label contract and coverage validation as :func:`modularity`
    (shared ``_prep_partition_labels``). Under ``allow_partial`` an edge
    with an unlabeled endpoint counts toward the labeled endpoint's cut.

    Distributed shape: cut is computed through the incidence identity
    ``cut_c = vol_c − 2·within_c`` — a within edge carries BOTH labels,
    so the two inner label joins see every within edge even when the
    labeling is partial, and an edge at an unlabeled vertex contributes
    to vol (via the degree join) but never to within, landing in the
    labeled endpoint's cut exactly as documented. Per-batch pandas
    ``value_counts`` pre-aggregates within partials map-side, one bucket
    aggregate per (within, vol) table, one bucket join aligns them —
    never a driver-side community table (the local route runs it
    in-process). Returns a Dataset (label, cut_edges, volume,
    conductance)."""
    import pandas as pd
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join
    from flashray.triangles import _canonical_undirected, _deg_from_und

    und = _canonical_undirected(graph).materialize()
    m = und.count()
    if m and routing.choose("algorithms.conductance", 400 * m) == "local":
        import ray.data as rd

        jl, dl = _local_partition_prep(und.to_pandas(), labels,
                                       allow_partial)
        same = jl["label_lo"].to_numpy() == jl["label"].to_numpy()
        win = (
            pd.Series(jl["label"].to_numpy()[same]).value_counts()
        )
        vols = dl.groupby("label")["deg"].sum()
        vol = vols.to_numpy(dtype=np.int64)
        within_v = (
            win.reindex(vols.index, fill_value=0).to_numpy(dtype=np.int64)
        )
        cut = vol - 2 * within_v
        den = np.minimum(vol, 2 * m - vol)
        out = pd.DataFrame(
            {
                "label": vols.index.to_numpy(),
                "cut_edges": cut,
                "volume": vol,
                "conductance": np.divide(
                    cut, den, out=np.zeros(len(vol)), where=den > 0
                ),
            }
        )
        if np.issubdtype(out["label"].dtype, np.integer):
            out["label"] = out["label"].astype(np.int64)
        return rd.from_pandas(out)
    I64 = pa.int64()
    labels, lab_t, lsch = _prep_partition_labels(und, labels, allow_partial)
    j = _edge_labels(und, labels, lab_t, lsch)

    def within_partials(b: pd.DataFrame) -> pd.DataFrame:
        same = b["label_lo"] == b["label"]
        vc = b.loc[same, "label"].value_counts()
        out = pd.DataFrame(
            {"label": vc.index.to_numpy(), "within": vc.to_numpy()}
        )
        if lab_t == pa.int64():
            out["label"] = out["label"].astype(np.int64)
        out["within"] = out["within"].astype(np.int64)
        return out

    wins = bucket_group_agg(
        j.map_batches(within_partials, batch_format="pandas"),
        ["label"],
        {"within": ("within", "sum")},
    )

    deg = _deg_from_und(und)
    dl = bucket_hash_join(
        deg, labels, ["vertex_id"],
        left_schema=pa.schema([("vertex_id", I64), ("deg", I64)]),
        right_schema=lsch,
    )
    vols = bucket_group_agg(dl, ["label"], {"volume": ("deg", "sum")})

    vsch = pa.schema([("label", lab_t), ("volume", I64)])
    csch = pa.schema([("label", lab_t), ("within", I64)])
    joined = bucket_hash_join(
        vols, wins, ["label"], left_schema=vsch, right_schema=csch,
        how="left",
    )

    def phi(b: pd.DataFrame) -> pd.DataFrame:
        within = b["within"].fillna(0).to_numpy(dtype=np.int64)
        vol = b["volume"].to_numpy(dtype=np.int64)
        cut = vol - 2 * within
        den = np.minimum(vol, 2 * m - vol)
        out = pd.DataFrame(
            {
                "label": b["label"].to_numpy(),
                "cut_edges": cut,
                "volume": vol,
                "conductance": np.divide(
                    cut, den, out=np.zeros(len(b)), where=den > 0
                ),
            }
        )
        return out

    return joined.map_batches(phi, batch_format="pandas")


def reciprocity(
    edges,
    *,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
) -> float:
    """Edge reciprocity of a directed graph: the fraction of distinct
    directed edges (u,v), u != v, whose reverse (v,u) also exists —
    the standard directed-network statistic (A15 family).

    Dataflow: each edge maps to its unordered pair (lo, hi) carrying
    has_fwd/has_bwd flags; ONE bucket aggregate ORs the flags per pair
    (duplicates collapse map-side); a streaming partial-sum pass folds
    (reciprocated, total) — two numbers on the driver, never the edge
    set."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg

    def tag(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = s != d
        s, d = s[m], d[m]
        fwd = s < d
        return pa.table(
            {
                "lo": np.where(fwd, s, d),
                "hi": np.where(fwd, d, s),
                "has_fwd": fwd.astype(np.int64),
                "has_bwd": (~fwd).astype(np.int64),
            }
        )

    pairs = bucket_group_agg(
        edges.map_batches(tag, batch_format="pyarrow"),
        ["lo", "hi"],
        {"has_fwd": ("has_fwd", "max"), "has_bwd": ("has_bwd", "max")},
        num_buckets=num_buckets,
    )

    def partial(b: pa.Table) -> pa.Table:
        f = b["has_fwd"].to_numpy(zero_copy_only=False)
        w = b["has_bwd"].to_numpy(zero_copy_only=False)
        both = int(((f == 1) & (w == 1)).sum())
        return pa.table(
            {
                "recip": pa.array([2 * both], pa.int64()),
                "total": pa.array([int(f.sum() + w.sum())], pa.int64()),
            }
        )

    agg = pairs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["recip", "total"])
    total = int(agg["sum(total)"] or 0)
    if total == 0:
        return 0.0
    return float(int(agg["sum(recip)"] or 0)) / total


def degree_assortativity(
    edges,
    *,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
) -> float:
    """Degree assortativity (Newman, PRL 2002): Pearson correlation of
    (out-degree(src), in-degree(dst)) over the directed edge set —
    positive when high-degree vertices link to each other. Runs as two
    bucket joins (edges × src-degree, × dst-degree) followed by a
    streaming sufficient-statistics pass (n, Σx, Σy, Σx², Σy², Σxy as
    one partial row per batch; tiny driver reduce) — never materializes
    the joined edge table. For the undirected measure, pass a
    symmetrized edge set (each edge in both directions); out- and
    in-degree then both equal the total degree."""
    import pandas as pd
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join

    I64 = pa.int64()
    e = edges.map_batches(
        lambda b: pa.table(
            {"src": b[src_col].cast(I64), "dst": b[dst_col].cast(I64)}
        ),
        batch_format="pyarrow",
    ).materialize()
    e_schema = pa.schema([("src", I64), ("dst", I64)])
    dout = bucket_group_agg(
        e, ["src"], {"xd": ("dst", "size")}, num_buckets=num_buckets
    )
    din = bucket_group_agg(
        e, ["dst"], {"yd": ("src", "size")}, num_buckets=num_buckets
    )
    j1 = bucket_hash_join(
        e,
        dout,
        ["src"],
        num_buckets=num_buckets,
        left_schema=e_schema,
        right_schema=pa.schema([("src", I64), ("xd", I64)]),
    )
    j2 = bucket_hash_join(
        j1,
        din,
        ["dst"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("src", I64), ("dst", I64), ("xd", I64)]),
        right_schema=pa.schema([("dst", I64), ("yd", I64)]),
    )

    def suff(df: pd.DataFrame) -> pd.DataFrame:
        x = df["xd"].to_numpy(dtype=np.float64)
        y = df["yd"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "n": [float(len(x))],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxx": [(x * x).sum()],
                "syy": [(y * y).sum()],
                "sxy": [(x * y).sum()],
            }
        )

    s = j2.map_batches(suff, batch_format="pandas").to_pandas().sum()
    num = s.n * s.sxy - s.sx * s.sy
    den = np.sqrt(
        (s.n * s.sxx - s.sx * s.sx) * (s.n * s.syy - s.sy * s.sy)
    )
    return float(num / den) if den > 0 else float("nan")


def powerlaw_alpha(
    edges,
    *,
    d_min: int = 2,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
) -> tuple[float, int]:
    """Power-law exponent of the undirected degree distribution by the
    continuous MLE with the standard discrete correction (Clauset,
    Shalizi & Newman 2009, eq. 3.7):

        alpha = 1 + n / Σ_i ln( d_i / (d_min − 1/2) )

    over the tail degrees d_i ≥ d_min (A15-family statistic). Returns
    (alpha, n_tail); alpha is NaN when the tail is empty.

    Dataflow: ONE bucket aggregate builds the degree table from the
    distinct edge list (each edge contributes both endpoints map-side,
    pre-combined per batch), then a streaming partial-sum pass folds
    (n, Σ ln) — two scalars reach the driver, never the degree table."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg

    def endpoints(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v, c = np.unique(np.concatenate([s, d]), return_counts=True)
        return pa.table({"v": v, "deg": c.astype(np.int64)})

    degs = bucket_group_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        ["v"],
        {"deg": ("deg", "sum")},
        num_buckets=num_buckets,
    )

    return mle_tail_alpha(degs, "deg", x_min=d_min)


def mle_tail_alpha(values, col: str, *, x_min: int = 2) -> tuple[float, int]:
    """CSN09 continuous-MLE tail exponent over any integer-valued column
    (degree, term frequency, …): alpha = 1 + n / Σ ln(x_i / (x_min−½))
    for x_i ≥ x_min. One streaming (n, Σ ln) fold — two scalars reach
    the driver. Returns (alpha, n_tail); alpha is NaN on an empty tail."""
    import pyarrow as pa

    lo = x_min - 0.5

    def partial(b: pa.Table) -> pa.Table:
        d = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = d[d >= x_min]
        # division inside the ln — matches a SQL ln(x / lo) replay
        return pa.table(
            {
                "n": pa.array([int(d.size)], pa.int64()),
                "s": pa.array([float(np.log(d / lo).sum())], pa.float64()),
            }
        )

    agg = values.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["n", "s"])
    n = int(agg["sum(n)"] or 0)
    if n == 0:
        return float("nan"), 0
    return 1.0 + n / float(agg["sum(s)"]), n


def rich_club(
    edges,
    ks: list[int],
    *,
    num_buckets: int = 64,
    src_col: str = "src",
    dst_col: str = "dst",
):
    """Rich-club coefficients φ(k) = 2·E_k / (N_k·(N_k−1)) of an
    undirected distinct edge list (Zhou & Mondragón 2004): N_k = nodes
    of degree > k, E_k = edges with BOTH endpoints of degree > k; φ = 0
    when N_k < 2. Returns pd.DataFrame (k, n_rich, e_rich, phi) —
    exact-integer counts, φ rounded to 6 dp.

    Dataflow: one bucket aggregate builds the degree table, two
    hash-partitioned joins attach endpoint degrees to edges, then ONE
    per-batch partial emits len(ks) counter rows — the driver folds
    O(ks) scalars, never nodes or edges."""
    import pandas as pd
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join

    def endpoints(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v, c = np.unique(np.concatenate([s, d]), return_counts=True)
        return pa.table({"v": v, "deg": c.astype(np.int64)})

    degs = bucket_group_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        ["v"],
        {"deg": ("deg", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    karr = np.asarray(sorted(ks), dtype=np.int64)

    def n_partial(b: pa.Table) -> pa.Table:
        d = b["deg"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": karr,
                "n_rich": np.array(
                    [(d > k).sum() for k in karr], dtype=np.int64
                ),
            }
        )

    n_tab = (
        bucket_group_agg(
            degs.map_batches(
                n_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["k"],
            {"n_rich": ("n_rich", "sum")},
            num_buckets=1,
        )
        .to_pandas()
        .set_index("k")["n_rich"]
    )

    pairs = edges.map_batches(
        lambda b: pa.table(
            {
                "src": b[src_col].cast(pa.int64()),
                "dst": b[dst_col].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    sdeg = degs.map_batches(
        lambda b: pa.table({"src": b["v"], "sdeg": b["deg"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    ddeg = degs.map_batches(
        lambda b: pa.table({"dst": b["v"], "ddeg": b["deg"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j1 = bucket_hash_join(
        pairs,
        sdeg,
        ["src"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("src", pa.int64()), ("sdeg", pa.int64())]),
    )
    j2 = bucket_hash_join(
        j1,
        ddeg,
        ["dst"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("src", pa.int64()), ("dst", pa.int64()), ("sdeg", pa.int64())]
        ),
        right_schema=pa.schema([("dst", pa.int64()), ("ddeg", pa.int64())]),
    )

    def e_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df["sdeg"].to_numpy(dtype=np.int64)
        d = df["ddeg"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "k": karr,
                "e_rich": np.array(
                    [int(((s > k) & (d > k)).sum()) for k in karr],
                    dtype=np.int64,
                ),
            }
        )

    e_tab = (
        bucket_group_agg(
            j2.map_batches(e_partial, batch_format="pandas"),
            ["k"],
            {"e_rich": ("e_rich", "sum")},
            num_buckets=1,
        )
        .to_pandas()
        .set_index("k")["e_rich"]
    )

    n = n_tab.reindex(karr, fill_value=0).to_numpy(dtype=np.int64)
    e = e_tab.reindex(karr, fill_value=0).to_numpy(dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(
            n >= 2, np.round(2.0 * e / (n * (n - 1.0)), 6), 0.0
        )
    return pd.DataFrame(
        {"k": karr, "n_rich": n, "e_rich": e, "phi": phi}
    )


def percolation_curve(
    graph,
    fractions=(0.0, 0.05, 0.1, 0.2),
    *,
    num_buckets: int | None = None,
):
    """Targeted-attack robustness curve (Albert–Barabási attack
    tolerance): for each fraction f, remove the highest-degree hubs and
    report the giant connected-component size of what remains. The
    removal rule is tie-free and SQL-exact: threshold = the (1−f)
    order-statistic of the degree multiset (`sketches.exact_quantiles`,
    quantile_disc-bit-matched), removed = vertices with degree STRICTLY
    above it. Returns pd.DataFrame (fraction, deg_thr, n_removed,
    n_remaining, giant_size) — len(fractions) driver rows.

    Distributed shape: ONE degree aggregate + ONE global sort serve
    every fraction (all order statistics read from the same sorted
    degree table); per fraction two anti-joins drop edges at removed
    endpoints and the log-rounds star-forest dataflow
    (`cc_mapreduce.star_forest` — no per-fraction graph rebuild) labels
    components; the giant size is a streaming MAX over the per-root
    child counts. Isolated survivors count as size-1 components."""
    import pandas as pd
    import pyarrow as pa

    from flashray.cc_mapreduce import _local_star_forest, star_forest
    from flashray.datapipe.sketches import exact_quantiles
    from flashray.joins import bucket_group_agg, bucket_semi_join
    from flashray.triangles import _canonical_undirected, _deg_from_und

    B = num_buckets or max(16, graph.num_partitions)
    und = _canonical_undirected(graph).materialize()
    if routing.choose("algorithms.percolation_curve", 160 * und.count()) == "local":
        # full in-process mirror (identical quantile_disc threshold rule,
        # strict-above removal, union-find giant)
        import math

        upd = und.to_pandas()
        lo = upd["lo"].to_numpy(dtype=np.int64)
        hi = upd["hi"].to_numpy(dtype=np.int64)
        vid, cnt = np.unique(np.concatenate([lo, hi]), return_counts=True)
        nv = len(vid)
        sorted_deg = np.sort(cnt)
        li = np.searchsorted(vid, lo)
        hi_i = np.searchsorted(vid, hi)
        rows = []
        for f in fractions:
            q = 1.0 - float(f)
            idx = min(nv - 1, max(0, math.ceil(q * nv) - 1))
            thr = int(sorted_deg[idx])
            alive = cnt <= thr
            n_removed = int(nv - alive.sum())
            n_rem = nv - n_removed
            em = alive[li] & alive[hi_i]
            # one row per non-root member, labelled with its root
            forest = _local_star_forest(
                pd.DataFrame({"a": hi_i[em], "b": li[em]})
            )
            giant = (
                int(np.bincount(forest["b"]).max()) + 1 if len(forest)
                else int(n_rem > 0)
            )
            rows.append((float(f), thr, n_removed, int(n_rem), giant))
        return pd.DataFrame(
            rows,
            columns=[
                "fraction", "deg_thr", "n_removed", "n_remaining",
                "giant_size",
            ],
        )
    deg = _deg_from_und(und).materialize()
    n_verts = deg.count()
    qs = sorted({1.0 - float(f) for f in fractions})
    thr_of = exact_quantiles(deg, "deg", qs)

    I64 = pa.int64()
    usch = pa.schema([("lo", I64), ("hi", I64)])
    rows = []
    for f in fractions:
        thr = int(thr_of[1.0 - float(f)])

        def above(b: pa.Table, thr=thr) -> pa.Table:
            keep = b["deg"].to_numpy() > thr
            return pa.table({"vertex_id": b["vertex_id"].filter(pa.array(keep))})

        removed = deg.map_batches(
            above, batch_format="pyarrow"
        ).materialize()
        n_removed = removed.count()
        filt = bucket_semi_join(
            und, removed, ["lo"], right_on=["vertex_id"], anti=True,
            num_buckets=B, left_schema=usch,
        )
        filt = bucket_semi_join(
            filt, removed, ["hi"], right_on=["vertex_id"], anti=True,
            num_buckets=B, left_schema=usch,
        ).map_batches(
            lambda b: pa.table({"a": b["hi"], "b": b["lo"]}),  # a > b
            batch_format="pyarrow",
        ).materialize()
        n_rem = n_verts - n_removed
        if filt.count() == 0:
            giant = 1 if n_rem > 0 else 0
        else:
            forest = star_forest(filt, num_buckets=B)
            counts = bucket_group_agg(
                forest, ["b"], {"c": ("a", "size")}, num_buckets=B,
            )
            mx = counts.max("c")
            giant = int(mx or 0) + 1
        rows.append((float(f), thr, int(n_removed), int(n_rem), int(giant)))
    return pd.DataFrame(
        rows,
        columns=[
            "fraction", "deg_thr", "n_removed", "n_remaining", "giant_size",
        ],
    ).astype(
        {
            "fraction": np.float64, "deg_thr": np.int64,
            "n_removed": np.int64, "n_remaining": np.int64,
            "giant_size": np.int64,
        }
    )


def dag_levels(graph: Graph, *, max_iters: int = 10_000, out_dir=None,
               checkpoint_dir=None, checkpoint_interval: int = 10,
               resume: bool = False):
    """Topological level (longest-path depth from the sources) per
    vertex of a DAG: (vertex_id, value). Raises ValueError when the
    iteration cap is hit without convergence — the monotone max-combine
    only fails to reach a fixpoint on cyclic input (or a path longer
    than ``max_iters``); condense SCCs first for general graphs."""
    from flashray.programs import DAGLevels

    def drive(eng):
        eng.run(
            _no_change,
            max_iters=max_iters,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
        )
        if eng.lineage and eng.lineage[-1].get("changed", 0) > 0:
            raise ValueError(
                f"dag_levels did not converge in {max_iters} supersteps — "
                "the graph has a cycle (or a longer path); run "
                "scc.condensation first"
            )

    return run_program(
        graph, DAGLevels(), drive=drive, out_dir=out_dir,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )


def local_cluster(graph: Graph, seed: int, *, damping: float = 0.85,
                  iters: int = 12, max_size: int | None = None,
                  key_decimals: int | None = None):
    """PageRank-Nibble local clustering (Andersen, Chung & Lang, FOCS
    2006 — the sweep-cut formulation): run personalized PageRank from
    ``seed`` (the engine's A1-variant kernel, fixed supersteps so the
    trajectory is SQL-replayable), order touched vertices by rank/degree
    (ties by vertex id), and return the prefix with minimum conductance
    φ = cut / min(vol, 2m − vol). Symmetrized graphs only (conductance
    semantics). The candidate set is the PPR support — O(touched)
    vertices, NOT O(V): the sweep runs on the driver over that small
    set (the explicit small-output collector contract; at 10^12 edges
    pass ``max_size`` to cap the sweep prefix). Returns a dict with
    ``members`` (sorted vertex ids), ``conductance``, ``size``,
    ``sweep_position``."""
    import pandas as pd

    ppr = personalized_pagerank(
        graph, [int(seed)], damping=damping, eps=0.0, max_iters=iters,
    )
    touched = ppr[ppr["value"] > 0.0].copy()
    if not len(touched):
        return {"members": [int(seed)], "conductance": 1.0, "size": 1,
                "sweep_position": 0}
    deg = (
        graph.vertices_dataset(columns=["vertex_id", "out_degree"])
        .to_pandas()
    )
    t = touched.merge(deg, on="vertex_id", how="left")
    t["out_degree"] = t["out_degree"].fillna(0).astype(np.int64)
    t["key"] = t["value"] / np.maximum(t["out_degree"].to_numpy(), 1)
    if key_decimals is not None:
        # oracle-parity mode: cross-system float noise in the PPR sums
        # could flip the order of near-equal keys; round (with the +1e-9
        # half-boundary nudge) so both systems sort identical keys
        t["key"] = (t["key"] + 1e-9).round(key_decimals)
    t = t.sort_values(
        ["key", "vertex_id"], ascending=[False, True]
    ).reset_index(drop=True)
    if max_size is not None:
        t = t.head(int(max_size))
    order = t["vertex_id"].to_numpy(dtype=np.int64)
    pos = {int(v): i for i, v in enumerate(order)}
    # edges among/out of the candidate set: one filtered pass over the
    # edge table (candidate set broadcast)
    import ray as _ray

    cand_ref = _ray.put(np.sort(order))

    def per_batch(b) -> "pd.DataFrame":
        cand = _ray.get(cand_ref)
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        ks = np.searchsorted(cand, s)
        in_s = (ks < len(cand)) & (cand[np.minimum(ks, len(cand) - 1)] == s)
        return pd.DataFrame({"src": s[in_s], "dst": d[in_s]})

    e = (
        graph.edges_dataset(columns=["src", "dst"])
        .map_batches(per_batch, batch_format="pyarrow")
        .to_pandas()
    )
    # canonical undirected edges touching the candidate set, each ONCE:
    # the src-filter kept both rows of candidate-internal edges but only
    # one row of candidate↔outside edges — drop the duplicate direction
    # (dst also a candidate AND src > dst) so every edge counts once,
    # matching the repo's conductance convention (cut = undirected edges
    # with exactly one endpoint inside; vol = Σ undirected degree)
    two_m = int(deg["out_degree"].sum())
    src_pos = e["src"].map(pos).to_numpy(dtype=np.int64)
    dst_pos = e["dst"].map(lambda v: pos.get(int(v), -1)).to_numpy(
        dtype=np.int64
    )
    dup = (dst_pos >= 0) & (
        e["src"].to_numpy(dtype=np.int64) > e["dst"].to_numpy(dtype=np.int64)
    )
    src_pos, dst_pos = src_pos[~dup], dst_pos[~dup]
    n = len(order)
    # edge (positions i, j; j = ∞ outside) crosses prefix k iff
    # min ≤ k < max; accumulate via a difference array
    diff = np.zeros(n + 1, dtype=np.int64)
    inside = dst_pos >= 0
    lo = np.minimum(src_pos, np.where(inside, dst_pos, src_pos))
    hi = np.where(inside, np.maximum(src_pos, dst_pos), n)
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi, -1)
    cut = np.cumsum(diff[:-1])
    degs = t["out_degree"].to_numpy(dtype=np.int64)
    vol = np.cumsum(degs)
    denom = np.minimum(vol, np.maximum(two_m - vol, 1))
    phi = cut / np.maximum(denom, 1)
    # the standard sweep restriction: only prefixes with vol(S) <= m —
    # without it a candidate set covering the whole graph "wins" with
    # the trivial zero-cut full set
    valid = vol * 2 <= two_m
    if not valid.any():
        valid = np.zeros_like(valid)
        valid[0] = True
    phi = np.where(valid, phi, np.inf)
    k = int(np.argmin(phi))
    members = np.sort(order[: k + 1])
    return {
        "members": [int(v) for v in members],
        "conductance": float(phi[k]),
        "size": int(k + 1),
        "sweep_position": k,
    }
