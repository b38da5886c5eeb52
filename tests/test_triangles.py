"""Triangle counting + scan statistics vs brute-force oracles."""

import numpy as np
import pyarrow as pa
import pytest

from flashray import fixtures, triangles
from flashray.build import build_graph_from_arrays

import oracles


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    base = tmp_path_factory.mktemp("tri")
    cache = {}

    def get(name, edges_fn):
        if name not in cache:
            src, dst = edges_fn()
            cache[name] = (
                build_graph_from_arrays(src, dst, str(base / name), num_partitions=4),
                (src, dst),
            )
        return cache[name]

    return get


@pytest.mark.parametrize(
    "name,fn",
    [
        ("k3", fixtures.k3_edges),
        ("star8", fixtures.star_edges),
        ("path5", fixtures.path_edges),
        ("er100", fixtures.er_edges),
    ],
)
def test_per_vertex_triangles(graphs, name, fn):
    graph, (src, dst) = graphs(name, fn)
    got_df = triangles.triangles(graph).to_pandas()
    got = (
        dict(zip(got_df["vertex_id"].astype(int), got_df["triangles"].astype(int)))
        if len(got_df)
        else {}
    )
    want = oracles.triangles_per_vertex(src, dst)
    want_nonzero = {v: c for v, c in want.items() if c > 0}
    assert got == want_nonzero


def test_global_count(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    want = sum(oracles.triangles_per_vertex(src, dst).values()) // 3
    assert triangles.triangle_count(graph) == want


def test_k3_exact(graphs):
    graph, _ = graphs("k3", fixtures.k3_edges)
    assert triangles.triangle_count(graph) == 1
    df = triangles.triangles(graph).to_pandas()
    assert sorted(df["triangles"]) == [1, 1, 1]


def test_scan_statistic(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    tri = oracles.triangles_per_vertex(src, dst)
    # degree on symmetrized-free build: vertices table out_degree counts
    # directed rows; fixture lists both directions so out_degree == degree
    deg = {}
    for s in src:
        deg[int(s)] = deg.get(int(s), 0) + 1
    got = triangles.scan_statistic(graph).to_pandas()
    gmap = dict(zip(got["vertex_id"].astype(int), got["scan"].astype(int)))
    for v in deg:
        assert gmap[v] == deg[v] + tri.get(v, 0), v


def test_topk_scan(graphs):
    graph, _ = graphs("er100", fixtures.er_edges)
    full = triangles.scan_statistic(graph).to_pandas()
    want = full.sort_values(["scan", "vertex_id"], ascending=[False, True]).head(5)
    got = triangles.topk_scan(graph, 5).to_pandas()
    assert got["vertex_id"].tolist() == want["vertex_id"].tolist()
    assert got["scan"].tolist() == want["scan"].tolist()


def test_directed_cycle3(tmp_path):
    src, dst = fixtures.cycle3_edges()
    g = build_graph_from_arrays(src, dst, str(tmp_path / "c3"), num_partitions=4)
    assert triangles.directed_triangle_count(g) == 1
    # the undirected K3 (both directions) has 2 directed 3-cycles
    s2, d2 = fixtures.k3_edges()
    g2 = build_graph_from_arrays(s2, d2, str(tmp_path / "k3d"), num_partitions=4)
    assert triangles.directed_triangle_count(g2) == 2


def test_directed_triangles_er(tmp_path):
    import numpy as np

    rng = np.random.default_rng(5)
    n = 40
    adj = (rng.random((n, n)) < 0.1) & ~np.eye(n, dtype=bool)
    src, dst = np.nonzero(adj)
    g = build_graph_from_arrays(
        src.astype(np.int64), dst.astype(np.int64), str(tmp_path / "erd"), num_partitions=4
    )
    want = 0
    for u in range(n):
        for v in range(n):
            if adj[u, v]:
                for w in range(n):
                    if adj[v, w] and adj[w, u] and u < v and u < w and u != w:
                        want += 1
    assert triangles.directed_triangle_count(g) == want


def test_clustering_coefficient(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    tri = oracles.triangles_per_vertex(src, dst)
    deg = {}
    seen = set()
    for s, d in zip(src, dst):
        lo, hi = min(int(s), int(d)), max(int(s), int(d))
        if lo != hi and (lo, hi) not in seen:
            seen.add((lo, hi))
            deg[lo] = deg.get(lo, 0) + 1
            deg[hi] = deg.get(hi, 0) + 1
    got = triangles.clustering_coefficient(graph).to_pandas()
    gmap = {
        int(r.vertex_id): (int(r.deg), int(r.triangles), float(r.cc))
        for r in got.itertuples()
    }
    for v, dv in deg.items():
        gd, gt, gcc = gmap[v]
        assert gd == dv
        assert gt == tri.get(v, 0)
        want_cc = 2.0 * tri.get(v, 0) / (dv * (dv - 1)) if dv >= 2 else 0.0
        assert abs(gcc - want_cc) < 1e-12, v


def test_clustering_k3_star(graphs):
    g3, _ = graphs("k3", fixtures.k3_edges)
    cc = triangles.clustering_coefficient(g3).to_pandas()
    assert np.allclose(cc["cc"], 1.0)
    assert triangles.transitivity(g3) == 1.0
    gs, _ = graphs("star8", fixtures.star_edges)
    ccs = triangles.clustering_coefficient(gs).to_pandas()
    assert np.allclose(ccs["cc"], 0.0)
    assert triangles.transitivity(gs) == 0.0


def test_transitivity_er(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    tri = oracles.triangles_per_vertex(src, dst)
    n_tri = sum(tri.values()) // 3
    deg = {}
    seen = set()
    for s, d in zip(src, dst):
        lo, hi = min(int(s), int(d)), max(int(s), int(d))
        if lo != hi and (lo, hi) not in seen:
            seen.add((lo, hi))
            deg[lo] = deg.get(lo, 0) + 1
            deg[hi] = deg.get(hi, 0) + 1
    wedges = sum(d * (d - 1) // 2 for d in deg.values())
    got = triangles.transitivity(graph)
    assert abs(got - 3.0 * n_tri / wedges) < 1e-12


def test_edge_support_er(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    got = triangles.edge_support(graph).to_pandas()
    # brute-force oracle over the undirected simple graph
    und = set()
    for s, d in zip(src, dst):
        if s != d:
            und.add((min(int(s), int(d)), max(int(s), int(d))))
    adj = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {
        (a, b): len(adj[a] & adj[b]) for a, b in und
    }
    assert len(got) == len(und)
    gm = {
        (int(r.lo), int(r.hi)): int(r.support)
        for r in got.itertuples()
    }
    assert gm == want
    assert sum(want.values()) > 0  # fixture actually has triangles


def test_edge_support_k3(graphs):
    graph, _ = graphs("k3", fixtures.k3_edges)
    got = triangles.edge_support(graph).to_pandas()
    assert len(got) == 3 and (got["support"] == 1).all()


def _brute_link_pred(src, dst, include_edges=False):
    """Python oracle: adjacency sets, scores for every distance-2 pair."""
    import math
    from collections import defaultdict

    adj = defaultdict(set)
    for s, d in zip(src, dst):
        if s != d:
            adj[int(s)].add(int(d))
            adj[int(d)].add(int(s))
    out = {}
    verts = sorted(adj)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            common = adj[u] & adj[v]
            if not common:
                continue
            if not include_edges and v in adj[u]:
                continue
            cn = len(common)
            jac = cn / len(adj[u] | adj[v])
            aa = sum(1.0 / math.log(len(adj[w])) for w in common)
            out[(u, v)] = (cn, jac, aa, len(adj[u]) * len(adj[v]))
    return out


@pytest.mark.parametrize("include_edges", [False, True])
def test_link_prediction_er(graphs, include_edges):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    got = triangles.link_prediction(graph, include_edges=include_edges).to_pandas()
    want = _brute_link_pred(src, dst, include_edges)
    assert len(got) == len(want)
    for row in got.itertuples():
        cn, jac, aa, pa_ = want[(int(row.u), int(row.v))]
        assert int(row.cn) == cn
        assert abs(row.jaccard - jac) < 1e-9
        assert abs(row.adamic_adar - aa) < 1e-9
        assert int(row.pref_attach) == pa_


def test_link_prediction_center_cap(graphs):
    # star: the hub is the only center; capping below its degree removes
    # every candidate pair
    graph, (src, dst) = graphs("star8", fixtures.star_edges)
    full = triangles.link_prediction(graph).to_pandas()
    want = _brute_link_pred(src, dst)
    assert len(full) == len(want) > 0
    capped = triangles.link_prediction(graph, max_center_degree=2).to_pandas()
    assert len(capped) == 0


def _brute_ktruss(src, dst, k):
    from collections import defaultdict

    edges = {
        (min(int(a), int(b)), max(int(a), int(b)))
        for a, b in zip(src, dst)
        if a != b
    }
    while True:
        adj = defaultdict(set)
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        sup = {(a, b): len(adj[a] & adj[b]) for a, b in edges}
        bad = {e for e in edges if sup[e] < k - 2}
        if not bad:
            return sup
        edges -= bad
        if not edges:
            return {}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_ktruss_er(graphs, k):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    got = triangles.k_truss(graph, k).to_pandas()
    want = _brute_ktruss(src, dst, k)
    assert len(got) == len(want)
    for row in got.itertuples():
        assert want[(int(row.lo), int(row.hi))] == int(row.support)


def test_ktruss_distributed_matches_local_tail(graphs, pin_route):
    # the default route takes the vectorized local tail; pinning the
    # broadcast route keeps every round off it (the pure-distributed
    # peel) — identical results required
    graph, _ = graphs("er100", fixtures.er_edges)
    loc = (
        triangles.k_truss(graph, 3)
        .to_pandas()
        .sort_values(["lo", "hi"])
        .reset_index(drop=True)
    )
    pin_route("broadcast")
    dist = (
        triangles.k_truss(graph, 3)
        .to_pandas()
        .sort_values(["lo", "hi"])
        .reset_index(drop=True)
    )
    import pandas as pd

    assert len(dist) > 0  # er100 3-truss is non-empty
    pd.testing.assert_frame_equal(dist, loc, check_dtype=False)


def test_wedge_family_distributed_matches_local(graphs, pin_route):
    """A pinned broadcast route runs the distributed wedge dataflow; the
    default routes small graphs through the vectorized in-process kernel
    — identical outputs required across the whole family."""
    import pandas as pd

    graph, _ = graphs("er100", fixtures.er_edges)

    def norm(ds, cols):
        return (
            ds.to_pandas()
            .sort_values(cols)
            .reset_index(drop=True)
            .astype({c: "int64" for c in cols})
        )

    family = [
        (triangles.triangles, ["vertex_id"]),
        (triangles.edge_support, ["lo", "hi"]),
        (triangles.scan_statistic, ["vertex_id"]),
        (triangles.clustering_coefficient, ["vertex_id"]),
    ]
    loc = [norm(fn(graph), cols) for fn, cols in family]
    loc_count = triangles.triangle_count(graph)
    pin_route("broadcast")
    for (fn, cols), want in zip(family, loc):
        dist = norm(fn(graph), cols)
        pd.testing.assert_frame_equal(dist, want, check_dtype=False)
    assert triangles.triangle_count(graph) == loc_count


def test_ktruss_k3_and_star(graphs):
    graph, _ = graphs("k3", fixtures.k3_edges)
    df = triangles.k_truss(graph, 3).to_pandas()
    assert len(df) == 3 and (df["support"] == 1).all()
    assert len(triangles.k_truss(graph, 4).to_pandas()) == 0
    star, _ = graphs("star8", fixtures.star_edges)
    assert len(triangles.k_truss(star, 3).to_pandas()) == 0


def _brute_butterflies(src, dst):
    from collections import defaultdict
    from itertools import combinations

    adj = defaultdict(set)
    for a, b in zip(src, dst):
        if a != b:
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
    total = 0
    for u, v in combinations(sorted(adj), 2):
        cn = len(adj[u] & adj[v])
        total += cn * (cn - 1) // 2
    # the diagonal-pair sum counts each 4-cycle twice (once per diagonal)
    assert total % 2 == 0
    return total // 2


def _brute_4cycles(src, dst):
    """Literal 4-cycle enumeration — independent of the C(cn,2) identity,
    so it catches a doubled (or halved) diagonal-pair formula."""
    from itertools import combinations

    adj = {}
    for a, b in zip(src, dst):
        if a != b:
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))
    verts = sorted(adj)
    count = 0
    # a 4-cycle u-x-w-y: canonical form = (min vertex u, its two cycle
    # neighbors x < y, opposite w) — enumerate u < x,y and w > u
    for u in verts:
        for x, y in combinations(sorted(n for n in adj[u] if n > u), 2):
            count += sum(1 for w in adj[x] & adj[y] if w > u and w != u)
    return count


def test_butterfly_count(graphs):
    graph, (src, dst) = graphs("er100", fixtures.er_edges)
    got = triangles.butterfly_count(graph)
    assert got == _brute_butterflies(src, dst)
    assert got == _brute_4cycles(src, dst)
    k3, _ = graphs("k3", fixtures.k3_edges)
    assert triangles.butterfly_count(k3) == 0  # a triangle has no 4-cycle
    star, (s2, d2) = graphs("star8", fixtures.star_edges)
    assert triangles.butterfly_count(star) == 0  # star: all cn pairs share 1


@pytest.mark.parametrize(
    "name,fn",
    [
        ("k3", fixtures.k3_edges),
        ("star8", fixtures.star_edges),
        ("path5", fixtures.path_edges),
        ("er100", fixtures.er_edges),
    ],
)
def test_two_hop_sizes(graphs, pin_route, name, fn):
    graph, (src, dst) = graphs(name, fn)
    got_df = triangles.two_hop_sizes(graph).to_pandas()
    got = {
        int(r.vertex_id): (int(r.n1), int(r.n2)) for r in got_df.itertuples()
    }

    # brute force: undirected adjacency, ball of radius 2 minus self
    adj = {}
    for s, d in zip(src, dst):
        if s == d:
            continue
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    want = {}
    for v, nb in adj.items():
        ball = set(nb)
        for m in nb:
            ball |= adj[m]
        ball.discard(v)
        want[v] = (len(nb), len(ball))
    assert got == want
    # the distributed dataflow (hybrid local path disabled) agrees
    pin_route("distributed")
    dist_df = triangles.two_hop_sizes(graph).to_pandas()
    dist = {
        int(r.vertex_id): (int(r.n1), int(r.n2))
        for r in dist_df.itertuples()
    }
    assert dist == want


def _bipartite_oracle(df, max_center_degree=None):
    import pandas as pd

    d = df.drop_duplicates(["l", "r"])
    deg = d.groupby("l")["r"].nunique()
    if max_center_degree is not None:
        cdeg = d.groupby("r")["l"].nunique()
        d = d[d["r"].map(cdeg) <= max_center_degree]
    rows = {}
    for _, grp in d.groupby("r"):
        ls = sorted(grp["l"])
        for i in range(len(ls)):
            for j in range(i + 1, len(ls)):
                rows[(ls[i], ls[j])] = rows.get((ls[i], ls[j]), 0) + 1
    out = pd.DataFrame(
        [(u, v, c) for (u, v), c in rows.items()], columns=["u", "v", "cn"]
    )
    out["jaccard"] = out["cn"] / (
        out["u"].map(deg) + out["v"].map(deg) - out["cn"]
    )
    out["cosine"] = out["cn"] / np.sqrt(
        out["u"].map(deg) * out["v"].map(deg)
    )
    return out.sort_values(["u", "v"]).reset_index(drop=True)


def _rand_bipartite(seed, n=500, nl=40, nr=25):
    import pandas as pd

    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "l": rng.integers(0, nl, n).astype("int64"),
            "r": rng.integers(0, nr, n).astype("int64"),
        }
    )


def _run_project(df, **kw):
    import ray.data as rd

    return (
        triangles.bipartite_project(
            rd.from_pandas(df), left_col="l", right_col="r", **kw
        )
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )


def test_bipartite_project_matches_oracle():
    import pandas as pd

    df = _rand_bipartite(3)
    got = _run_project(df, num_buckets=8)
    want = _bipartite_oracle(df)
    pd.testing.assert_frame_equal(
        got, want, check_exact=False, rtol=1e-12
    )


def test_bipartite_project_string_left_and_cap():
    import pandas as pd

    df = _rand_bipartite(7, n=300, nl=8, nr=12)
    df["l"] = df["l"].map(lambda x: f"t{x:02d}")
    # fixture has centers at degree 7 (kept) AND 8 (pruned) under cap=7
    degs = df.drop_duplicates().groupby("r")["l"].nunique()
    assert (degs > 7).any() and (degs <= 7).any()
    got = _run_project(df, num_buckets=4, max_center_degree=7)
    want = _bipartite_oracle(df, max_center_degree=7)
    assert len(want) > 0
    pd.testing.assert_frame_equal(
        got, want, check_exact=False, rtol=1e-12
    )


def test_bipartite_project_partition_invariant():
    import pandas as pd
    import ray.data as rd

    df = _rand_bipartite(11)
    a = _run_project(df, num_buckets=4)
    b = (
        triangles.bipartite_project(
            rd.from_pandas(df).repartition(9),
            left_col="l", right_col="r", num_buckets=16,
        )
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def _und_pairs(src, dst):
    s = np.minimum(src, dst); d = np.maximum(src, dst)
    keep = s != d
    return set(zip(s[keep].tolist(), d[keep].tolist()))


def _tri_brute(pairs):
    import itertools

    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    n = 0
    for a, b in pairs:
        n += len(adj[a] & adj[b])
    return n // 3


def test_triangle_count_sampled_p1_exact_and_replay(tmp_path, pin_route):
    import hashlib

    rng = np.random.default_rng(19)
    src = rng.integers(0, 60, 900).astype(np.int64)
    dst = rng.integers(0, 60, 900).astype(np.int64)
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "doulion"), num_partitions=4
    )
    pin_route("broadcast")
    exact = triangles.triangle_count(g)
    full = triangles.triangle_count_sampled(g, p=1.0)
    assert full["sampled_triangles"] == exact
    assert full["estimate"] == float(exact)

    out = triangles.triangle_count_sampled(g, p=0.5, salt="t5")
    pairs = _und_pairs(src, dst)
    thr = out["threshold"]
    kept = {
        (a, b) for a, b in pairs
        if int.from_bytes(
            hashlib.sha256(f"t5|{a}|{b}".encode()).digest()[:8], "big"
        ) < thr
    }
    want = _tri_brute(kept)
    assert out["sampled_triangles"] == want
    assert abs(out["estimate"] - want / 0.125) < 1e-9
    # the estimator should land in the right ballpark on a dense fixture
    assert exact > 50
    assert 0.3 * exact < out["estimate"] < 3.0 * exact


def test_triangle_count_sampled_splitmix_mode(tmp_path):
    from flashray.ids import _splitmix64
    import zlib

    rng = np.random.default_rng(23)
    src = rng.integers(0, 50, 700).astype(np.int64)
    dst = rng.integers(0, 50, 700).astype(np.int64)
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "dsm"), num_partitions=4
    )
    out = triangles.triangle_count_sampled(
        g, p=0.5, salt="sm", hash_mode="splitmix"
    )
    pairs = _und_pairs(src, dst)
    saltu = np.uint64(zlib.crc32(b"sm"))
    with np.errstate(over="ignore"):
        kept = {
            (a, b) for a, b in pairs
            if int(_splitmix64(
                _splitmix64(saltu ^ np.uint64(a)) ^ np.uint64(b)
            )) < out["threshold"]
        }
    assert out["sampled_triangles"] == _tri_brute(kept)


def _brute_four_cliques(src, dst):
    """O(V^4)-free brute force: enumerate 4-subsets of each vertex's
    neighborhood via itertools over the (small) fixture graphs."""
    from itertools import combinations

    adj = {}
    for s, d in zip(src, dst):
        if s == d:
            continue
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    verts = sorted(adj)
    counts = {}
    for quad in combinations(verts, 4):
        if all(
            b in adj[a] for a, b in combinations(quad, 2)
        ):
            for v in quad:
                counts[v] = counts.get(v, 0) + 1
    return counts


def _dense_er_edges(n: int = 40, p: float = 0.25, seed: int = 7):
    """Dense enough that 4-cliques actually occur (er100 has none)."""
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, k=1)
    m = rng.random(len(a)) < p
    lo, hi = a[m].astype(np.int64), b[m].astype(np.int64)
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def test_four_cliques_er(graphs):
    graph, (src, dst) = graphs("er40dense", _dense_er_edges)
    want = _brute_four_cliques(src, dst)
    assert sum(want.values()) > 0  # fixture must actually contain 4-cliques
    got_df = triangles.four_cliques(graph).to_pandas()
    got = (
        dict(
            zip(got_df["vertex_id"].astype(int), got_df["cliques4"].astype(int))
        )
        if len(got_df)
        else {}
    )
    assert got == want
    assert triangles.four_clique_count(graph) == sum(want.values()) // 4


def test_four_cliques_k5_planted(graphs):
    def k5_plus_tail():
        src, dst = [], []
        for a in range(5):
            for b in range(a + 1, 5):
                src += [a, b]
                dst += [b, a]
        # a tail that is in triangles but no 4-clique
        src += [4, 10, 10, 11, 11, 4]
        dst += [10, 4, 11, 10, 4, 11]
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    graph, (src, dst) = graphs("k5tail", k5_plus_tail)
    df = triangles.four_cliques(graph).to_pandas()
    got = dict(zip(df["vertex_id"].astype(int), df["cliques4"].astype(int)))
    # K5: C(4,3)=4 cliques through each member, 5 total
    assert got == {0: 4, 1: 4, 2: 4, 3: 4, 4: 4}
    assert triangles.four_clique_count(graph) == 5


def test_four_cliques_distributed_matches_local(graphs, pin_route):
    graph, _ = graphs("er40dense", _dense_er_edges)

    def norm(ds):
        df = ds.to_pandas()
        if not len(df):
            return {}
        return dict(
            zip(df["vertex_id"].astype(int), df["cliques4"].astype(int))
        )

    loc = norm(triangles.four_cliques(graph))
    pin_route("broadcast")
    assert norm(triangles.four_cliques(graph)) == loc


def _dense_er_big_ids():
    """er40dense relabelled to ids near 2^62: a pair key built from raw
    ids would overflow int64, so every executor must use compact codes."""
    src, dst = _dense_er_edges()
    return src + (1 << 62), dst + (1 << 62)


def test_closed_wedges_broadcast_matches_join_path(graphs, pin_route):
    """Three-way agreement: local kernel == broadcast shuffle-free pass ==
    bucket join dataflow, across the whole wedge family."""
    for name, fn in [
        ("er40dense", _dense_er_edges),
        ("er40big", _dense_er_big_ids),
    ]:
        _check_three_executors(graphs(name, fn)[0], pin_route)


def _rows(ds):
    df = ds.to_pandas()
    return sorted(map(tuple, df.itertuples(index=False))) if len(df) else []


def _check_three_executors(graph, pin_route):
    def family():
        return {
            "tri": _rows(triangles.triangles(graph)),
            "sup": _rows(triangles.edge_support(graph)),
            "fc": _rows(triangles.four_cliques(graph)),
            # the 4-truss peel takes 11 rounds (195 -> 73 edges); the first
            # three (195, 136, 103 edges) run on the executor under test,
            # the rest in the local tail (at most 100 edges of 400 B), which
            # keeps the test short
            "kt4": _rows(triangles.k_truss(graph, 4)),
            "scan": _rows(triangles.scan_statistic(graph)),
            "cc": _rows(triangles.clustering_coefficient(graph)),
        }

    results = {}
    for mode, route in [("broadcast", "broadcast"), ("join", "distributed")]:
        pin_route(route, local_bytes=400 * 100)
        results[mode] = family()
        sampled = triangles.triangle_count_sampled(graph, p=1.0)
        results[mode]["sampled"] = sampled["sampled_triangles"]
    pin_route("local")
    local = family()
    local["sampled"] = triangles.triangle_count(graph)
    assert local["fc"] and local["kt4"]  # the fixture has 4-cliques
    assert len(local["sup"]) > 100  # so k_truss runs distributed rounds
    assert results["broadcast"] == results["join"] == local


def _self_loops_only():
    loops = np.array([1, 2, 3], dtype=np.int64)
    return loops, loops.copy()


def _one_edge():
    return np.array([1, 2], dtype=np.int64), np.array([2, 1], dtype=np.int64)


@pytest.mark.parametrize("mode", ["local", "broadcast", "bucket"])
@pytest.mark.parametrize(
    "name,fn", [("self_loops", _self_loops_only), ("one_edge", _one_edge)]
)
def test_degenerate_graphs_typed_on_every_executor(
    graphs, pin_route, name, fn, mode
):
    """A graph with no canonical edge (only self-loops) or no triangle
    (one edge): every executor returns the same typed schema and rows."""
    graph, _ = graphs(name, fn)
    pin_route("distributed" if mode == "bucket" else mode)
    one = name == "one_edge"
    want = [
        (triangles.triangles(graph), "vertex_id triangles", []),
        (
            triangles.edge_support(graph),
            "lo hi support",
            [(1, 2, 0)] if one else [],
        ),
        (
            triangles.scan_statistic(graph),
            "vertex_id scan",
            [(1, 1), (2, 1)] if one else [],
        ),
        (
            triangles.clustering_coefficient(graph),
            "vertex_id deg triangles cc:double",
            [(1, 1, 0, 0.0), (2, 1, 0, 0.0)] if one else [],
        ),
        (triangles.four_cliques(graph), "vertex_id cliques4", []),
        (triangles.k_truss(graph, 3), "lo hi support", []),
        (
            triangles.two_hop_sizes(graph),
            "vertex_id n2 n1",
            [(1, 1, 1), (2, 1, 1)] if one else [],
        ),
    ]
    for ds, cols, want_rows in want:
        ds = ds.materialize()  # one execution for schema() and rows
        sch = ds.schema()
        assert sch is not None, cols
        types = [
            t if isinstance(t, pa.DataType) else pa.from_numpy_dtype(t)
            for t in sch.types
        ]
        want_cols = [c if ":" in c else c + ":int64" for c in cols.split()]
        assert [f"{n}:{t}" for n, t in zip(sch.names, types)] == want_cols
        assert _rows(ds) == want_rows, cols
    assert triangles.triangle_count(graph) == 0


def test_incremental_triangle_count(tmp_path):
    """A - B + C over the delta == full recount minus old count, for a
    random 75/25 split (delta triangles span all k in {1,2,3})."""
    import ray.data as rd

    from flashray.build import add_edges, build_graph_from_arrays
    from flashray.fixtures import edges_table

    src, dst = fixtures.er_edges(60, 0.12, seed=5)
    keep_old = (src + dst) % 4 != 0
    g_old = build_graph_from_arrays(
        src[keep_old], dst[keep_old], str(tmp_path / "old"),
        num_partitions=4, symmetrize=True,
    )
    t_old = triangles.triangle_count(g_old)
    delta = edges_table(src[~keep_old], dst[~keep_old])
    g_new = add_edges(
        build_graph_from_arrays(
            src[keep_old], dst[keep_old], str(tmp_path / "new"),
            num_partitions=4, symmetrize=True,
        ),
        rd.from_arrow(delta),
    )
    t_new = triangles.triangle_count(g_new)
    assert t_new > t_old  # the split actually creates triangles
    got = triangles.incremental_triangle_count(
        g_new, rd.from_arrow(delta)
    )
    assert got == t_new - t_old
