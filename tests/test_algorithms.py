"""Algorithm correctness on closed-form fixtures (FIXTURES.md §4)."""

import os

import numpy as np
import pandas as pd
import pytest

from flashray import algorithms, betweenness, fixtures, hyperball, matrix, scc
from flashray.build import build_graph_from_arrays

import oracles


@pytest.fixture(scope="module")
def tmp_graphs(tmp_path_factory):
    base = tmp_path_factory.mktemp("graphs")
    cache = {}

    def get(name, edges_fn, **kwargs):
        if name not in cache:
            src, dst = edges_fn()
            cache[name] = (
                build_graph_from_arrays(src, dst, str(base / name), num_partitions=4, **kwargs),
                (src, dst),
            )
        return cache[name]

    return get


FIXES = {
    "k3": fixtures.k3_edges,
    "cycle3": fixtures.cycle3_edges,
    "star8": fixtures.star_edges,
    "two_components": fixtures.two_components_edges,
    "path5": fixtures.path_edges,
    "er100": fixtures.er_edges,
}


@pytest.mark.parametrize("name", list(FIXES))
def test_pagerank_matches_dense_oracle(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.pagerank(graph, eps=1e-10)
    want = oracles.pagerank_dense(src, dst, eps=1e-10)
    got = dict(zip(df["vertex_id"], df["value"]))
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-6, (name, v)


def test_pagerank_k3_uniform(tmp_graphs):
    graph, _ = tmp_graphs("k3", FIXES["k3"])
    df = algorithms.pagerank(graph, eps=1e-10)
    assert np.allclose(df["value"], 1 / 3, atol=1e-6)


def test_pagerank_push_matches_pull(tmp_graphs):
    graph, _ = tmp_graphs("er100", FIXES["er100"])
    pull = algorithms.pagerank(graph, eps=1e-10)
    push = algorithms.pagerank(graph, eps=1e-10, mode="push")
    assert np.allclose(pull["value"], push["value"], atol=1e-6)


@pytest.mark.parametrize("name", ["k3", "two_components", "path5", "er100"])
def test_wcc_matches_union_find(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.wcc(graph)
    want = oracles.wcc_minlabel(src, dst)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == want


def test_wcc_two_components_exact(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    df = algorithms.wcc(graph)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == {0: 0, 1: 0, 2: 0, 10: 10, 11: 10}


def test_label_propagation_seeds(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    df = algorithms.label_propagation(graph, {0: 7, 10: 9})
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == {0: 7, 1: 7, 2: 7, 10: 9, 11: 9}


@pytest.mark.parametrize("to_disk", [False, True], ids=["memory", "out_dir"])
def test_label_propagation_unreached(tmp_graphs, tmp_path, to_disk):
    """Unreached vertices read -1, in memory and in an ``out_dir`` dump."""
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    if to_disk:
        out = algorithms.label_propagation(
            graph, {10: 3}, out_dir=str(tmp_path / "lp")
        )
        df = pd.read_parquet(out)
    else:
        df = algorithms.label_propagation(graph, {10: 3})
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == {0: -1, 1: -1, 2: -1, 10: 3, 11: 3}


@pytest.mark.parametrize("name,seeds", [("path5", [0]), ("er100", [0]), ("two_components", [0])])
def test_bfs_matches_oracle(tmp_graphs, name, seeds):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.bfs(graph, seeds)
    want = oracles.bfs_dist(src, dst, seeds)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == want


@pytest.mark.parametrize("name", ["k3", "star8", "path5", "er100"])
def test_kcore_matches_peeling(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.kcore(graph)
    want = oracles.kcore_peel(src, dst)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert got == want


def test_pseudo_diameter_path(tmp_graphs):
    graph, _ = tmp_graphs("path5", FIXES["path5"])
    assert algorithms.pseudo_diameter(graph) == 4


def test_skew_split_matches_unsplit(tmp_graphs, tmp_path):
    """Vertical partitioning of the hub (E12) must not change results."""
    src, dst = fixtures.star_edges(32)
    g_split = build_graph_from_arrays(
        src, dst, str(tmp_path / "star_split"), num_partitions=4, skew_threshold=8
    )
    assert len(g_split.meta.split_vertices) == 1  # the hub
    g_plain, _ = tmp_graphs("star8", FIXES["star8"])
    df = algorithms.pagerank(g_split, eps=1e-10)
    want = oracles.pagerank_dense(src, dst, eps=1e-10)
    got = dict(zip(df["vertex_id"], df["value"]))
    for v in want:
        assert abs(got[v] - want[v]) < 1e-6
    # frontier programs over the split hub too
    wdf = algorithms.wcc(g_split)
    assert set(wdf["value"].astype(int)) == {0}


def test_lineage_metrics_present(tmp_graphs):
    graph, _ = tmp_graphs("er100", FIXES["er100"])
    df = algorithms.pagerank(graph, eps=1e-8)
    lin = df.attrs["lineage"]
    assert len(lin) >= 2
    for rec in lin:
        assert {"delta", "messages", "active", "iteration", "wall_sec"} <= set(rec)
    assert lin[0]["messages"] == graph.meta.num_edges


def _er_dag():
    src, dst = fixtures.er_edges()
    return src[src < dst], dst[src < dst]


@pytest.fixture(scope="module")
def engine_inputs(tmp_graphs, tmp_path_factory):
    return {
        "g": tmp_graphs("er100", FIXES["er100"])[0],
        "sym": tmp_graphs("er100_sym", FIXES["er100"], symmetrize=True)[0],
        "dag": tmp_graphs("er100_dag", _er_dag)[0],
        "scratch": str(tmp_path_factory.mktemp("engine_scratch")),
    }


ENGINE_FRAMES = {
    "pagerank": lambda x: algorithms.pagerank(x["g"]),
    "personalized_pagerank": lambda x: algorithms.personalized_pagerank(
        x["g"], [0]
    ),
    "katz": lambda x: algorithms.katz(x["g"]),
    "eigenvector_centrality": lambda x: algorithms.eigenvector_centrality(
        x["g"], iters=5
    ),
    "mis": lambda x: algorithms.mis(x["sym"]),
    "greedy_color": lambda x: algorithms.greedy_color(x["sym"]),
    "wcc": lambda x: algorithms.wcc(x["g"]),
    "label_propagation": lambda x: algorithms.label_propagation(
        x["g"], {0: 1}
    ),
    "bfs": lambda x: algorithms.bfs(x["g"], [0]),
    "sssp": lambda x: algorithms.sssp(x["g"], [0]),
    "dag_levels": lambda x: algorithms.dag_levels(x["dag"]),
    "landmark_distances": lambda x: algorithms.landmark_distances(
        x["g"], [0, 7]
    ),
    "multi_ppr": lambda x: algorithms.multi_ppr(x["g"], [0, 7]),
    "closeness_centrality": lambda x: algorithms.closeness_centrality(
        x["g"], landmarks=[0, 7]
    ),
    "kcore": lambda x: algorithms.kcore(x["sym"]),
    "onion_layers": lambda x: algorithms.onion_layers(x["sym"]),
    "hits_engine": lambda x: matrix.hits_engine(
        x["g"], scratch_dir=x["scratch"]
    ),
    "scc": lambda x: scc.scc(x["g"], scratch_dir=x["scratch"]),
    "betweenness": lambda x: betweenness.betweenness(
        x["g"], scratch_dir=x["scratch"], sources=4
    ),
    "hyperball_engine": lambda x: hyperball.hyperball_engine(
        x["g"].edges_dataset(columns=["src", "dst"]),
        os.path.join(x["scratch"], "hyperball"),
    ),
}


@pytest.mark.parametrize("name", list(ENGINE_FRAMES))
def test_engine_frames_carry_lineage_and_timings(engine_inputs, name):
    """Every engine algorithm returning a DataFrame reports its run: a
    non-empty lineage with contiguous iterations, plus the engine init
    and superstep wall times."""
    df = ENGINE_FRAMES[name](engine_inputs)
    lin = df.attrs["lineage"]
    assert len(lin) > 0
    assert [r["iteration"] for r in lin] == list(range(len(lin)))
    assert df.attrs["engine_init_sec"] > 0
    assert df.attrs["superstep_wall_sec"] > 0


def test_skew_tier_pipeline(tmp_path):
    """FIXTURES.md skew variant: one super-hot tool vertex; the symmetrized
    graph splits it vertically and results still match the dense oracle."""
    import ray.data as rd

    from flashray import extract
    from flashray.build import build_graph

    t = fixtures.transcripts_for_tier("small", skew=True)
    g = build_graph(
        extract.extract_edges(rd.from_arrow(t)),
        str(tmp_path / "skewg"),
        num_partitions=8,
        symmetrize=True,
        skew_threshold=100,
    )
    assert len(g.meta.split_vertices) >= 1  # the hot tool and/or role hubs
    df = algorithms.pagerank(g, eps=1e-10)
    edges = g.edges_dataset(columns=["src", "dst"]).to_pandas()
    want = oracles.pagerank_dense(
        edges["src"].to_numpy(), edges["dst"].to_numpy(), eps=1e-10
    )
    got = dict(zip(df["vertex_id"], df["value"]))
    for v in want:
        assert abs(got[v] - want[v]) < 1e-6
    w = algorithms.wcc(g)
    assert w["value"].nunique() == 1


def test_personalized_pagerank_matches_dense(tmp_path):
    from flashray import fixtures
    from flashray.build import build_graph_from_arrays

    src, dst = fixtures.er_edges()
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "ppr"), num_partitions=4
    )
    seeds = [int(src[0]), int(dst[1]), int(src[5])]
    df = algorithms.personalized_pagerank(g, seeds, eps=1e-12)
    want = oracles.personalized_pagerank_dense(src, dst, seeds, eps=1e-12)
    df = df.sort_values("vertex_id")
    got = df["value"].to_numpy()
    expect = np.array([want[int(v)] for v in df["vertex_id"]])
    np.testing.assert_allclose(got, expect, atol=1e-9)
    # teleport mass conservation: ranks sum to ~1 on a dangling-free graph
    # (er fixture may have dangling vertices, so allow leakage <= 1)
    assert 0 < got.sum() <= 1 + 1e-9


def test_landmark_distances_match_per_source_bfs(tmp_graphs):
    """K simultaneous BFS floods (vector state) == K sequential BFS runs,
    per landmark, including unreachable (-1)."""
    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    landmarks = [0, 7, 23]
    out = algorithms.landmark_distances(graph, landmarks)
    for s in landmarks:
        want = oracles.bfs_dist(src, dst, [s])
        got = dict(zip(out["vertex_id"].astype(int), out[f"dist_{s}"].astype(int)))
        assert got == want, s


def test_landmark_distances_disconnected(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    out = algorithms.landmark_distances(graph, [0, 10])
    got = out.set_index("vertex_id")
    assert got.loc[10, "dist_0"] == -1 and got.loc[0, "dist_10"] == -1
    assert got.loc[11, "dist_10"] == 1 and got.loc[1, "dist_0"] == 1


def test_sssp_matches_dijkstra(tmp_path):
    """Weighted SSSP (tropical min-plus relaxations) vs Dijkstra oracle,
    including a case where fewer hops != shorter distance."""
    rng = np.random.default_rng(17)
    n = 60
    src, dst, w = [], [], []
    seen = set()  # unique pairs: the builder SUMS duplicate-edge weights
    for _ in range(240):
        a, b = rng.integers(0, n, 2)
        if a != b and (int(a), int(b)) not in seen:
            seen.add((int(a), int(b)))
            src.append(int(a)); dst.append(int(b))
            w.append(float(rng.integers(1, 10)))
    g = build_graph_from_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        str(tmp_path / "wg"), weight=np.asarray(w), num_partitions=4,
    )
    df = algorithms.sssp(g, [0])
    want = oracles.sssp_dijkstra(src, dst, w, [0])
    got = dict(zip(df["vertex_id"].astype(int), df["value"]))
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) < 1e-9, (v, got[v], want[v])


def test_sssp_hops_vs_distance(tmp_path):
    # 0->2 direct costs 10; 0->1->2 costs 2+3=5: SSSP must prefer the
    # longer-hop cheaper path (BFS would not)
    src = np.asarray([0, 0, 1], dtype=np.int64)
    dst = np.asarray([2, 1, 2], dtype=np.int64)
    w = np.asarray([10.0, 2.0, 3.0])
    g = build_graph_from_arrays(src, dst, str(tmp_path / "t"), weight=w,
                                num_partitions=2)
    df = algorithms.sssp(g, [0])
    got = dict(zip(df["vertex_id"].astype(int), df["value"]))
    assert got == {0: 0.0, 1: 2.0, 2: 5.0}


def test_sssp_unreachable(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    df = algorithms.sssp(graph, [0])
    got = dict(zip(df["vertex_id"].astype(int), df["value"]))
    assert got[10] == -1.0 and got[11] == -1.0 and got[0] == 0.0


def test_landmark_distances_weighted_matches_dijkstra(tmp_path):
    """weighted=True landmark distances (multi-source tropical min-plus:
    value_dim × weight_op compose) vs per-source Dijkstra."""
    rng = np.random.default_rng(41)
    n = 50
    src, dst, w = [], [], []
    seen = set()
    for _ in range(200):
        a, b = rng.integers(0, n, 2)
        if a != b and (int(a), int(b)) not in seen:
            seen.add((int(a), int(b)))
            src.append(int(a)); dst.append(int(b))
            w.append(float(rng.integers(1, 9)))
    g = build_graph_from_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        str(tmp_path / "wl"), weight=np.asarray(w), num_partitions=4,
    )
    landmarks = [0, 11, 29]
    out = algorithms.landmark_distances(g, landmarks, weighted=True)
    for s in landmarks:
        want = oracles.sssp_dijkstra(src, dst, w, [s])
        got = dict(zip(out["vertex_id"].astype(int), out[f"dist_{s}"]))
        assert set(got) == set(want)
        for v in want:
            assert abs(got[v] - want[v]) < 1e-9, (s, v, got[v], want[v])


@pytest.mark.parametrize("name", ["k3", "star8", "path5", "er100"])
def test_katz_matches_dense_oracle(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.katz(graph, alpha=0.05, eps=0.0, max_iters=6)
    want = oracles.katz_dense(src, dst, alpha=0.05, iters=6)
    got = dict(zip(df["vertex_id"].astype(int), df["value"]))
    assert got.keys() == want.keys()
    for v, x in want.items():
        assert abs(got[v] - x) < 1e-9, v


@pytest.mark.parametrize("name", ["k3", "path5", "er100"])
def test_eigenvector_matches_dense_power_iteration(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.eigenvector_centrality(graph, iters=5, normalize=True)
    vids = sorted(set(map(int, src)) | set(map(int, dst)))
    pos = {v: i for i, v in enumerate(vids)}
    x = np.ones(len(vids))
    for _ in range(5):
        nxt = np.zeros(len(vids))
        for s, d in zip(src, dst):
            nxt[pos[int(d)]] += x[pos[int(s)]]
        x = nxt
    mx = x.max()
    want = x / mx if mx > 0 else x
    got = dict(zip(df["vertex_id"].astype(int), df["value"]))
    assert got.keys() == set(vids)
    for v in vids:
        assert abs(got[v] - want[pos[v]]) < 1e-12, v


def test_eigenvector_out_dir_matches_in_memory(tmp_graphs, tmp_path):
    graph, _ = tmp_graphs("er100", FIXES["er100"])
    want = algorithms.eigenvector_centrality(graph, iters=5, normalize=True)
    out = algorithms.eigenvector_centrality(
        graph, iters=5, normalize=True, out_dir=str(tmp_path / "eig")
    )
    got = pd.read_parquet(out).sort_values("vertex_id").reset_index(drop=True)
    assert got["value"].max() == 1.0
    pd.testing.assert_frame_equal(got, pd.DataFrame(want[list(got.columns)]))


def test_katz_converges_below_spectral_bound(tmp_graphs):
    # cycle3: lambda_max = 1, alpha = 0.5 converges to x = beta/(1-alpha)
    graph, _ = tmp_graphs("cycle3", FIXES["cycle3"])
    df = algorithms.katz(graph, alpha=0.5, eps=1e-12, max_iters=200)
    assert np.allclose(df["value"].to_numpy(), 2.0, atol=1e-9)


def _mis_replay(src, dst, prios):
    """Exact python replay of the two-wave deterministic Luby rounds."""
    from collections import defaultdict

    adj = defaultdict(set)
    verts = set()
    for a, b in zip(src, dst):
        a, b = int(a), int(b)
        verts |= {a, b}
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    status = {v: 0 for v in verts}
    while any(s == 0 for s in status.values()):
        newly = [
            v
            for v, s in status.items()
            if s == 0
            and all(
                prios[v] < prios[u] for u in adj[v] if status[u] == 0
            )
        ]
        for v in newly:
            status[v] = 1
        for v in newly:
            for u in adj[v]:
                if status[u] == 0:
                    status[u] = 2
    return status


@pytest.mark.parametrize("name", ["star8", "path5", "er100", "two_components"])
@pytest.mark.parametrize("hash_fn", ["splitmix", "sha"])
def test_mis_exact_replay_and_properties(tmp_path, name, hash_fn):
    from flashray.build import build_graph_from_arrays
    from flashray.programs import MaxIndependentSet

    src, dst = FIXES[name]()
    graph = build_graph_from_arrays(
        src, dst, str(tmp_path / f"mis_{name}_{hash_fn}"),
        num_partitions=4, symmetrize=True,
    )
    df = algorithms.mis(graph, hash_fn=hash_fn)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert set(got.values()) <= {1, 2}  # everyone decided

    ids = np.array(sorted(got), dtype=np.int64)
    prios = dict(
        zip(ids.tolist(), MaxIndependentSet(hash_fn=hash_fn)._priorities(ids))
    )
    want = _mis_replay(src, dst, prios)
    assert got == want

    # independence + maximality against the raw adjacency
    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in zip(src, dst):
        if a != b:
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
    members = {v for v, s in got.items() if s == 1}
    for v in members:
        assert not (adj[v] & members), "MIS not independent"
    for v, s in got.items():
        if s == 2:
            assert adj[v] & members, "OUT vertex with no MIS neighbor"


def _color_replay(src, dst, prios):
    """Exact replay: round r colors the priority-minima among uncolored."""
    from collections import defaultdict

    adj = defaultdict(set)
    verts = set()
    for a, b in zip(src, dst):
        a, b = int(a), int(b)
        verts |= {a, b}
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    color = {v: -1 for v in verts}
    r = 0
    while any(c < 0 for c in color.values()):
        hit = [
            v
            for v, c in color.items()
            if c < 0
            and all(prios[v] < prios[u] for u in adj[v] if color[u] < 0)
        ]
        for v in hit:
            color[v] = r
        r += 1
    return color


@pytest.mark.parametrize("name", ["star8", "path5", "er100", "two_components"])
def test_greedy_color_replay_and_proper(tmp_path, name):
    from flashray.build import build_graph_from_arrays
    from flashray.programs import GreedyColor

    src, dst = FIXES[name]()
    graph = build_graph_from_arrays(
        src, dst, str(tmp_path / f"col_{name}"), num_partitions=4,
        symmetrize=True,
    )
    df = algorithms.greedy_color(graph)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    assert min(got.values()) >= 0

    ids = np.array(sorted(got), dtype=np.int64)
    prios = dict(zip(ids.tolist(), GreedyColor()._priorities(ids)))
    assert got == _color_replay(src, dst, prios)

    # proper coloring: endpoints always differ
    for a, b in zip(src, dst):
        if a != b:
            assert got[int(a)] != got[int(b)]


def _brute_modularity(src, dst, labels):
    edges = {
        (min(int(a), int(b)), max(int(a), int(b)))
        for a, b in zip(src, dst)
        if a != b
    }
    m = len(edges)
    from collections import Counter

    deg = Counter()
    e_in = 0
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        if labels[a] == labels[b]:
            e_in += 1
    deg_c = Counter()
    for v, d in deg.items():
        deg_c[labels[v]] += d
    return e_in / m - sum(d * d for d in deg_c.values()) / (4.0 * m * m)


def test_modularity_matches_bruteforce(tmp_graphs):
    import pandas as pd

    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    verts = sorted({int(v) for v in np.concatenate([src, dst])})
    labels = {v: v % 7 for v in verts}
    ldf = pd.DataFrame(
        {
            "vertex_id": np.array(verts, dtype=np.int64),
            "label": np.array([labels[v] for v in verts], dtype=np.int64),
        }
    )
    got = algorithms.modularity(graph, ldf)
    want = _brute_modularity(src, dst, labels)
    assert abs(got - want) < 1e-12
    # perfect partition on two components: Q = 1/2 - sum((deg_c/2m)^2)
    g2, (s2, d2) = tmp_graphs("two_components", FIXES["two_components"])
    import oracles

    comp = oracles.wcc_minlabel(s2, d2)
    verts2 = sorted(comp)
    ldf2 = pd.DataFrame(
        {
            "vertex_id": np.array(verts2, dtype=np.int64),
            "label": np.array([comp[v] for v in verts2], dtype=np.int64),
        }
    )
    got2 = algorithms.modularity(g2, ldf2)
    want2 = _brute_modularity(s2, d2, comp)
    assert abs(got2 - want2) < 1e-12
    assert got2 > 0.3  # components are a genuinely modular partition


def test_reciprocity_matches_python():
    import ray.data as rd
    import pandas as pd

    rng = np.random.default_rng(9)
    n, m = 40, 300
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    df = pd.DataFrame({"src": src, "dst": dst})
    got = algorithms.reciprocity(rd.from_pandas(df))
    E = {(int(s), int(d)) for s, d in zip(src, dst) if s != d}
    recip = sum(1 for (s, d) in E if (d, s) in E)
    assert got == pytest.approx(recip / len(E), abs=1e-12)
    # pure DAG -> 0; fully symmetric -> 1
    dag = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    assert algorithms.reciprocity(rd.from_pandas(dag)) == 0.0
    sym = pd.DataFrame({"src": [0, 1, 1, 2], "dst": [1, 0, 2, 1]})
    assert algorithms.reciprocity(rd.from_pandas(sym)) == 1.0


def test_powerlaw_alpha_matches_numpy():
    import pandas as pd
    import ray.data as rd

    from flashray.algorithms import powerlaw_alpha

    rng = np.random.default_rng(5)
    # Zipf-ish multigraph flattened to distinct edges
    src = rng.zipf(2.0, size=800) % 60
    dst = (src + 1 + (rng.zipf(2.0, size=800) % 40)).astype(np.int64)
    e = pd.DataFrame({"src": src.astype(np.int64), "dst": dst})
    e = e.drop_duplicates().reset_index(drop=True)
    got_a, got_n = powerlaw_alpha(rd.from_pandas(e), d_min=2, num_buckets=8)
    deg = pd.concat([e["src"], e["dst"]]).value_counts().to_numpy()
    tail = deg[deg >= 2].astype(np.float64)
    want = 1.0 + tail.size / np.log(tail / 1.5).sum()
    assert got_n == tail.size
    assert got_a == pytest.approx(want, rel=1e-12)
    # empty tail: every vertex degree 1
    iso = pd.DataFrame({"src": [1, 3], "dst": [2, 4]})
    a, n = powerlaw_alpha(rd.from_pandas(iso), d_min=2, num_buckets=4)
    assert n == 0 and np.isnan(a)


def test_rich_club_matches_numpy():
    import pandas as pd
    import ray.data as rd

    from flashray.algorithms import rich_club

    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, size=300).astype(np.int64)
    dst = rng.integers(0, 40, size=300).astype(np.int64)
    e = pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)})
    e = e[e.src != e.dst].drop_duplicates().reset_index(drop=True)
    ks = [1, 3, 6]
    got = rich_club(rd.from_pandas(e), ks, num_buckets=8)
    deg = pd.concat([e["src"], e["dst"]]).value_counts()
    for _, row in got.iterrows():
        k = row["k"]
        rich = set(deg[deg > k].index)
        ek = int(((e["src"].isin(rich)) & (e["dst"].isin(rich))).sum())
        nk = len(rich)
        phi = round(2.0 * ek / (nk * (nk - 1.0)), 6) if nk >= 2 else 0.0
        assert (row["n_rich"], row["e_rich"]) == (nk, ek)
        assert row["phi"] == pytest.approx(phi, abs=1e-12)


def test_closeness_matches_bfs_fold(tmp_graphs):
    """closeness/harmonic over a 3-landmark sample == per-source BFS +
    python fold, including unreachable handling and the reached count."""
    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    landmarks = [0, 7, 23]
    out = algorithms.closeness_centrality(graph, landmarks=landmarks)
    dist = {s: oracles.bfs_dist(src, dst, [s]) for s in landmarks}
    for _, row in out.iterrows():
        v = int(row["vertex_id"])
        ds = [dist[s][v] for s in landmarks]
        reach = [d for d in ds if d >= 0]
        pos = [d for d in reach if d > 0]
        assert int(row["reached"]) == len(reach)
        want_clo = len(pos) / sum(pos) if pos else 0.0
        want_har = sum(1.0 / d for d in pos)
        assert abs(row["closeness"] - want_clo) < 1e-12
        assert abs(row["harmonic"] - want_har) < 1e-12


def test_closeness_default_landmarks_and_dataset_path(tmp_path, tmp_graphs):
    """landmarks=None -> k smallest ids; out_dir= returns the same values
    as the pandas path, as a streamed Dataset."""
    graph, _ = tmp_graphs("er100", FIXES["er100"])
    base = algorithms.closeness_centrality(graph, k=4)
    via_ds = (
        algorithms.closeness_centrality(
            graph, k=4, out_dir=str(tmp_path / "vals")
        )
        .to_pandas()
        .sort_values("vertex_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, via_ds)


def test_closeness_disconnected(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    out = algorithms.closeness_centrality(graph, landmarks=[0, 10])
    got = out.set_index("vertex_id")
    # vertex 1 is reached only by landmark 0 at distance 1
    assert got.loc[1, "reached"] == 1
    assert got.loc[1, "closeness"] == 1.0 and got.loc[1, "harmonic"] == 1.0
    # each landmark reaches itself at d=0: counted in reached, not in sums
    assert got.loc[0, "reached"] >= 1


def test_conductance_matches_bruteforce(tmp_graphs):
    """Per-community conductance vs a python fold over the canonical
    undirected edge set, arbitrary 3-way labeling of er100."""
    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    und = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    verts = sorted({v for e in und for v in e})
    lab = {v: v % 3 for v in verts}
    labels = pd.DataFrame(
        {"vertex_id": np.array(verts, dtype=np.int64),
         "label": np.array([lab[v] for v in verts], dtype=np.int64)}
    )
    got = (
        algorithms.conductance(graph, labels)
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )
    m = len(und)
    deg = {v: 0 for v in verts}
    for a, b in und:
        deg[a] += 1
        deg[b] += 1
    for c in (0, 1, 2):
        cut = sum(1 for a, b in und if (lab[a] == c) != (lab[b] == c))
        vol = sum(d for v, d in deg.items() if lab[v] == c)
        den = min(vol, 2 * m - vol)
        want = cut / den if den > 0 else 0.0
        row = got[got["label"] == c].iloc[0]
        assert int(row["cut_edges"]) == cut
        assert int(row["volume"]) == vol
        assert abs(row["conductance"] - want) < 1e-12


def test_conductance_whole_graph_and_perfect_split(tmp_graphs):
    graph, _ = tmp_graphs("two_components", FIXES["two_components"])
    und = algorithms  # noqa: F841  (readability)
    # one community per connected component: zero cut, conductance 0
    out = algorithms.conductance(
        graph,
        pd.DataFrame(
            {
                "vertex_id": np.arange(20, dtype=np.int64),
                "label": (np.arange(20) >= 10).astype(np.int64),
            }
        ),
    ).to_pandas()
    assert (out["cut_edges"] == 0).all()
    assert (out["conductance"] == 0.0).all()
    # everything in ONE community: denominator 0 -> defined as 0.0
    one = algorithms.conductance(
        graph,
        pd.DataFrame(
            {
                "vertex_id": np.arange(20, dtype=np.int64),
                "label": np.zeros(20, dtype=np.int64),
            }
        ),
    ).to_pandas()
    assert len(one) == 1 and one["conductance"].iloc[0] == 0.0
    # modularity still works after the shared-helper refactor
    q = algorithms.modularity(
        graph,
        pd.DataFrame(
            {
                "vertex_id": np.arange(20, dtype=np.int64),
                "label": (np.arange(20) >= 10).astype(np.int64),
            }
        ),
    )
    assert q > 0.4


def test_conductance_allow_partial_counts_unlabeled_as_cut(tmp_graphs):
    """Partial labeling: an edge with an unlabeled endpoint must count
    toward the labeled endpoint's cut (the documented allow_partial
    semantics — cut_c = vol_c − 2·within_c)."""
    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    und = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
    verts = sorted({v for e in und for v in e})
    # label only ~60% of vertices, 3 communities
    lab = {v: v % 3 for v in verts if v % 5 < 3}
    labels = pd.DataFrame(
        {
            "vertex_id": np.array(sorted(lab), dtype=np.int64),
            "label": np.array([lab[v] for v in sorted(lab)],
                              dtype=np.int64),
        }
    )
    got = (
        algorithms.conductance(graph, labels, allow_partial=True)
        .to_pandas().sort_values("label").reset_index(drop=True)
    )
    m = len(und)
    deg = {v: 0 for v in verts}
    for a, b in und:
        deg[a] += 1
        deg[b] += 1
    for c in (0, 1, 2):
        # exactly one endpoint labeled c — the other endpoint may carry
        # a DIFFERENT label or none at all, both count as cut
        cut = sum(
            1 for a, b in und if (lab.get(a) == c) != (lab.get(b) == c)
        )
        vol = sum(d for v, d in deg.items() if lab.get(v) == c)
        den = min(vol, 2 * m - vol)
        want = cut / den if den > 0 else 0.0
        row = got[got["label"] == c].iloc[0]
        assert int(row["cut_edges"]) == cut, c
        assert int(row["volume"]) == vol, c
        assert abs(row["conductance"] - want) < 1e-12, c


def test_partition_metrics_local_distributed_agree(tmp_graphs):
    """modularity/conductance hybrid: the in-process kernel and the
    distributed dataflow produce identical scores and identical
    validation errors."""
    import pytest

    graph, (src, dst) = tmp_graphs("er100", FIXES["er100"])
    verts = sorted({int(v) for v in np.concatenate([src, dst])})
    labels = pd.DataFrame(
        {
            "vertex_id": np.array(verts, dtype=np.int64),
            "label": np.array([v % 3 for v in verts], dtype=np.int64),
        }
    )
    q_loc = algorithms.modularity(graph, labels)
    q_dist = algorithms.modularity(graph, labels, local_threshold=0)
    assert abs(q_loc - q_dist) < 1e-12
    c_loc = (
        algorithms.conductance(graph, labels)
        .to_pandas().sort_values("label").reset_index(drop=True)
    )
    c_dist = (
        algorithms.conductance(graph, labels, local_threshold=0)
        .to_pandas().sort_values("label").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(c_loc, c_dist)
    # identical validation on both paths: duplicates and partial coverage
    dup = pd.concat([labels, labels.head(1)], ignore_index=True)
    for thr in (200_000, 0):
        with pytest.raises(ValueError, match="duplicate vertex_id"):
            algorithms.modularity(graph, dup, local_threshold=thr)
        with pytest.raises(ValueError, match="labels cover"):
            algorithms.conductance(
                graph, labels.head(10), local_threshold=thr
            )


def test_percolation_curve_matches_bruteforce(tmp_path):
    """Hub removal by quantile-threshold rule vs a python union-find."""
    import math

    rng = np.random.default_rng(83)
    src = rng.integers(0, 60, 500).astype(np.int64)
    dst = rng.integers(0, 60, 500).astype(np.int64)
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "perc"), num_partitions=4
    )
    fracs = (0.0, 0.1, 0.3)
    got = algorithms.percolation_curve(g, fracs, num_buckets=8)

    pairs = set()
    for s, d in zip(src, dst):
        if s != d:
            pairs.add((min(int(s), int(d)), max(int(s), int(d))))
    degc = {}
    for a, b in pairs:
        degc[a] = degc.get(a, 0) + 1
        degc[b] = degc.get(b, 0) + 1
    degs = sorted(degc.values())
    n = len(degs)
    for i, f in enumerate(fracs):
        q = 1.0 - f
        thr = degs[min(n - 1, max(0, math.ceil(q * n) - 1))]
        removed = {v for v, d in degc.items() if d > thr}
        keep = {
            (a, b) for a, b in pairs if a not in removed and b not in removed
        }
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        remaining = set(degc) - removed
        for v in remaining:
            parent.setdefault(v, v)
        for a, b in keep:
            parent[find(a)] = find(b)
        sizes = {}
        for v in remaining:
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        giant = max(sizes.values()) if sizes else 0
        row = got.iloc[i]
        assert row["deg_thr"] == thr, (f, row["deg_thr"], thr)
        assert row["n_removed"] == len(removed)
        assert row["n_remaining"] == len(remaining)
        assert row["giant_size"] == giant, (f, row["giant_size"], giant)
    # the curve actually bites: removing 30% of hub-degree mass shrinks
    assert got.iloc[2]["giant_size"] < got.iloc[0]["giant_size"]
    # distributed dataflow (hybrid local path disabled) agrees exactly
    dist = algorithms.percolation_curve(
        g, fracs, num_buckets=8, local_threshold=0
    )
    pd.testing.assert_frame_equal(got, dist)


def test_dag_levels_matches_longest_path_and_rejects_cycles(tmp_path):
    # random DAG: edges only go low -> high
    rng = np.random.default_rng(37)
    src = rng.integers(0, 50, 300).astype(np.int64)
    off = rng.integers(1, 8, 300).astype(np.int64)
    dst = np.minimum(src + off, 59)
    m = src != dst
    src, dst = src[m], dst[m]
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "dag"), num_partitions=4
    )
    got = algorithms.dag_levels(g)
    lev = dict(zip(got["vertex_id"].astype(int), got["value"].astype(int)))
    # python longest-path via repeated relaxation
    verts = sorted({int(v) for v in np.concatenate([src, dst])})
    want = {v: 0 for v in verts}
    for _ in range(len(verts)):
        changed = False
        for a, b in zip(src.tolist(), dst.tolist()):
            if want[a] + 1 > want[b]:
                want[b] = want[a] + 1
                changed = True
        if not changed:
            break
    assert lev == want
    assert max(want.values()) > 2  # nontrivial depth
    # a cycle must raise at the iteration cap
    c_src = np.array([0, 1, 2], dtype=np.int64)
    c_dst = np.array([1, 2, 0], dtype=np.int64)
    gc = build_graph_from_arrays(
        c_src, c_dst, str(tmp_path / "cyc"), num_partitions=2
    )
    with pytest.raises(ValueError, match="cycle"):
        algorithms.dag_levels(gc, max_iters=20)
    with pytest.raises(ValueError, match="cycle"):
        algorithms.dag_levels(gc, max_iters=20, out_dir=str(tmp_path / "lv"))


def _onion_ref(src, dst):
    """Synchronous-wave onion decomposition reference (Hébert-Dufresne et
    al. 2016): each round applies the decrements of the previous round's
    removals, then removes every now-underdegree vertex — one layer per
    nonempty round; k bumps (no round consumed) when a core stabilizes.
    Mirrors the engine's apply/on_event schedule exactly."""
    import collections

    adj = collections.defaultdict(set)
    for a, b in zip(src, dst):
        if a != b:
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
    alive = set(adj)
    deg = {v: len(adj[v]) for v in alive}
    k, layer, out = 1, 0, {}

    def remove(newly):
        nonlocal layer
        layer += 1
        for v in newly:
            out[v] = (k - 1, layer)
        alive.difference_update(newly)
        return newly

    pend = set()
    while alive:
        for v in pend:
            for u in adj[v]:
                if u in alive:
                    deg[u] -= 1
        newly = {v for v in alive if deg[v] < k}
        if newly:
            pend = remove(newly)
            continue
        pend = set()
        while alive:
            k += 1
            newly = {v for v in alive if deg[v] < k}
            if newly:
                pend = remove(newly)
                break
    return out


@pytest.mark.parametrize("name", ["k3", "star8", "path5", "er100"])
def test_onion_layers_matches_sync_peel(tmp_graphs, name):
    graph, (src, dst) = tmp_graphs(name, FIXES[name])
    df = algorithms.onion_layers(graph)
    want = _onion_ref(src, dst)
    got = {
        int(r.vertex_id): (int(r.coreness), int(r.layer))
        for r in df.itertuples()
    }
    assert got == want
    # coreness must agree with the kcore peel (schedule-independent)
    kc = oracles.kcore_peel(src, dst)
    assert {v: c for v, (c, _) in got.items()} == kc


def test_onion_layers_path_closed_form(tmp_graphs):
    """On a path, layers peel inward from both ends: layer(v) =
    min(v, n-1-v) + 1, coreness 1 everywhere."""
    graph, _ = tmp_graphs("path7", lambda: fixtures.path_edges(7))
    df = algorithms.onion_layers(graph)
    got = {int(r.vertex_id): (int(r.coreness), int(r.layer))
           for r in df.itertuples()}
    assert got == {v: (1, min(v, 6 - v) + 1) for v in range(7)}


def test_attribute_mixing_and_assortativity(tmp_path):
    """Two same-attribute cliques joined by one cross edge: strongly
    assortative; matrix and r match the closed-form Newman eq. 2."""
    import ray.data as rd

    from flashray.build import build_graph_from_arrays

    # K3 on {0,1,2} (attr 'x'), K3 on {3,4,5} (attr 'y'), one bridge 2->3
    src = np.array([0, 1, 2, 3, 4, 5, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 4, 5, 3, 3], dtype=np.int64)
    g = build_graph_from_arrays(src, dst, str(tmp_path / "mix"),
                                num_partitions=2)
    attrs = rd.from_pandas(pd.DataFrame(
        {"vertex_id": np.arange(6, dtype=np.int64),
         "attr": ["x"] * 3 + ["y"] * 3}
    ))
    m = algorithms.attribute_mixing(g, attrs)
    cells = {(r.attr_src, r.attr_dst): int(r.n_edges) for r in m.itertuples()}
    assert cells == {("x", "x"): 3, ("y", "y"): 3, ("x", "y"): 1}
    assert abs(m["frac"].sum() - 1.0) < 1e-12
    # closed form: e = [[3/7, 1/7], [0, 3/7]]; a=(4/7,3/7), b=(3/7,4/7)
    r = algorithms.attribute_assortativity(m)
    ab = (4 / 7) * (3 / 7) + (3 / 7) * (4 / 7)
    want = (6 / 7 - ab) / (1 - ab)
    assert abs(r - want) < 1e-12

    # single-attribute degenerate case
    attrs1 = rd.from_pandas(pd.DataFrame(
        {"vertex_id": np.arange(6, dtype=np.int64), "attr": ["z"] * 6}
    ))
    m1 = algorithms.attribute_mixing(g, attrs1)
    assert algorithms.attribute_assortativity(m1) == 0.0


def test_multi_ppr_matches_single_seed_runs(tmp_graphs):
    """Each multi_ppr column equals the single-seed personalized PageRank
    on the same graph (same damping, same convergence)."""
    graph, _ = tmp_graphs("er100", FIXES["er100"])
    seeds = [0, 3, 7]
    multi = algorithms.multi_ppr(graph, seeds, eps=1e-12, max_iters=300)
    for s in seeds:
        single = algorithms.personalized_pagerank(
            graph, [s], eps=1e-12, max_iters=300
        )
        single = single[single["value"] > 0.0].sort_values("vertex_id")
        col = multi[multi["seed"] == s].sort_values("vertex_id")
        assert list(col["vertex_id"]) == list(single["vertex_id"])
        assert np.allclose(
            col["rank"].to_numpy(), single["value"].to_numpy(), atol=1e-9
        )


def test_local_cluster_two_cliques(tmp_path):
    """PageRank-Nibble from inside a clique returns that clique (one
    bridge edge → conductance 1/vol), and the sweep arithmetic matches a
    dense numpy replication on a random graph."""
    from flashray.build import build_graph_from_arrays

    # two K5s bridged by a single edge 4-5
    def k5(base):
        e = [(base + i, base + j) for i in range(5) for j in range(5)
             if i != j]
        return e

    edges = k5(0) + k5(5) + [(4, 5), (5, 4)]
    src = np.array([a for a, b in edges], dtype=np.int64)
    dst = np.array([b for a, b in edges], dtype=np.int64)
    g = build_graph_from_arrays(src, dst, str(tmp_path / "lc"),
                                num_partitions=2)
    res = algorithms.local_cluster(g, 0, iters=20)
    assert res["members"] == [0, 1, 2, 3, 4]
    # cut = 1 bridge, vol = 4*4 + 5 = 21
    assert abs(res["conductance"] - 1 / 21) < 1e-12

    # dense replication of the sweep on a random graph
    src, dst = fixtures.er_edges(50, 0.1, seed=11)
    g2 = build_graph_from_arrays(src, dst, str(tmp_path / "lc2"),
                                 num_partitions=4)
    res2 = algorithms.local_cluster(g2, 3, iters=8)
    ppr = algorithms.personalized_pagerank(g2, [3], eps=0.0, max_iters=8)
    touched = ppr[ppr["value"] > 0.0]
    n = 50
    A = np.zeros((n, n), dtype=bool)
    for a, b in zip(src, dst):
        A[a, b] = True
    degv = A.sum(1)
    t = touched.copy()
    t["deg"] = degv[t["vertex_id"].to_numpy()]
    t["key"] = t["value"] / np.maximum(t["deg"], 1)
    t = t.sort_values(["key", "vertex_id"], ascending=[False, True])
    order = t["vertex_id"].to_numpy()
    best = (2.0, None)
    for k in range(len(order)):
        S = set(order[: k + 1].tolist())
        cut = sum(
            1 for a in range(n) for b in range(a + 1, n)
            if A[a, b] and ((a in S) != (b in S))
        )
        vol = int(degv[list(S)].sum())
        if vol * 2 > int(degv.sum()):
            continue  # the sweep's vol <= m restriction
        phi = cut / max(min(vol, int(degv.sum()) - vol), 1)
        if phi < best[0]:
            best = (phi, k)
    assert res2["sweep_position"] == best[1]
    assert abs(res2["conductance"] - best[0]) < 1e-12
