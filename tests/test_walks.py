"""Deterministic random walks (training-corpus generation)."""

import hashlib

import numpy as np
import pandas as pd
import ray.data as rd

from flashray import walks


def _replay_sha(src, dst, walk_len, salt=""):
    """Independent replay of the documented rule with hashlib directly."""
    adj = {}
    for s, d in zip(src, dst):
        adj.setdefault(int(s), []).append(int(d))
    verts = sorted(set(map(int, src)) | set(map(int, dst)))
    rows = []
    for w in verts:
        cur = w
        rows.append((w, 0, w))
        for t in range(1, walk_len + 1):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            cur = min(
                nbrs,
                key=lambda d: (
                    int.from_bytes(
                        hashlib.sha256(
                            f"{salt}{w}:{t}:{d}".encode()
                        ).digest()[:8],
                        "big",
                    ),
                    d,
                ),
            )
            rows.append((w, t, cur))
    return pd.DataFrame(rows, columns=["walk_id", "step", "vertex_id"])


def test_walks_match_independent_replay():
    rng = np.random.default_rng(13)
    n = 30
    src, dst = [], []
    seen = set()
    for _ in range(120):
        a, b = rng.integers(0, n, 2)
        if a != b and (int(a), int(b)) not in seen:
            seen.add((int(a), int(b)))
            src.append(int(a)); dst.append(int(b))
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    got = walks.corpus_pandas(
        walks.random_walks(edges, walk_len=5, hash_fn="sha", num_buckets=8)
    )
    want = _replay_sha(src, dst, 5)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


def test_walks_dead_end_terminates():
    # path 0->1->2: every walk runs to vertex 2 then stops
    edges = rd.from_pandas(pd.DataFrame({"src": [0, 1], "dst": [1, 2]}))
    out = walks.corpus_pandas(walks.random_walks(edges, walk_len=10))
    got = {
        w: list(g.sort_values("step")["vertex_id"])
        for w, g in out.groupby("walk_id")
    }
    assert got == {0: [0, 1, 2], 1: [1, 2], 2: [2]}


def test_walks_partition_invariant_and_multiwalk(pin_route):
    df = pd.DataFrame({"src": [0, 0, 1, 2, 2], "dst": [1, 2, 2, 0, 1]})
    a = walks.corpus_pandas(walks.random_walks(
        rd.from_pandas(df).repartition(1), walk_len=6, walks_per_vertex=3
    ))
    b = walks.corpus_pandas(walks.random_walks(
        rd.from_pandas(df).repartition(5), walk_len=6, walks_per_vertex=3
    ))
    pd.testing.assert_frame_equal(a, b)
    assert a["walk_id"].nunique() == 9  # 3 vertices x 3 walks
    # different walk ids from one start may diverge (independent hashes)
    w0 = list(a[a["walk_id"] == 0]["vertex_id"])
    w1 = list(a[a["walk_id"] == 1]["vertex_id"])
    assert w0[0] == w1[0] == 0
    # the per-step join dataflow (broadcast-CSR path disabled) agrees
    pin_route("distributed")
    c = walks.corpus_pandas(walks.random_walks(
        rd.from_pandas(df), walk_len=6, walks_per_vertex=3,
    ))
    pd.testing.assert_frame_equal(a, c)


def _replay_node2vec(src, dst, walk_len, p, q, salt=""):
    """Independent replay of the node2vec rule with hashlib directly:
    step 1 = uniform argmin-hash; step t>=2 = integer cumulative-sum
    inversion over (1/p, 1, 1/q)-scaled weights, draw = sha256(w:t)."""
    from flashray.walks import _alpha_weights

    wp, wc, wq = _alpha_weights(p, q)
    adj = {}
    for s, d in zip(src, dst):
        adj.setdefault(int(s), []).append(int(d))
    for v in adj:
        adj[v] = sorted(set(adj[v]))
    verts = sorted(set(map(int, src)) | set(map(int, dst)))

    def h(s):
        return int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "big")

    rows = []
    for w in verts:
        prev, cur = None, w
        rows.append((w, 0, w))
        for t in range(1, walk_len + 1):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            if prev is None:
                nxt = min(nbrs, key=lambda d: (h(f"{salt}{w}:{t}:{d}"), d))
            else:
                pn = set(adj.get(prev, []))
                ws = [
                    wp if d == prev else (wc if d in pn else wq)
                    for d in nbrs
                ]
                u = h(f"{salt}{w}:{t}") % sum(ws)
                cum = 0
                for d, wt in zip(nbrs, ws):
                    cum += wt
                    if cum > u:
                        nxt = d
                        break
            rows.append((w, t, nxt))
            prev, cur = cur, nxt
    return pd.DataFrame(rows, columns=["walk_id", "step", "vertex_id"])


def _sym_test_graph(seed=17, n=24, m=80):
    """Random digraph with every edge ALSO reversed — guarantees the
    1/p return branch and triangle branch are both reachable."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(m):
        a, b = rng.integers(0, n, 2)
        if a != b:
            seen.add((int(a), int(b)))
            seen.add((int(b), int(a)))
    src = [a for a, _ in sorted(seen)]
    dst = [b for _, b in sorted(seen)]
    return src, dst


def test_node2vec_matches_independent_replay():
    src, dst = _sym_test_graph()
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    got = walks.corpus_pandas(walks.node2vec_walks(
        edges, walk_len=5, p=4.0, q=0.25, hash_fn="sha", num_buckets=8
    ))
    want = _replay_node2vec(src, dst, 5, 4.0, 0.25)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True),
        check_dtype=False,
    )


def test_node2vec_bias_branches_fire():
    # p tiny => returning to prev dominates; on a symmetric path the walk
    # must oscillate 0,1,0,1...
    edges = rd.from_pandas(
        pd.DataFrame({"src": [0, 1, 1, 2], "dst": [1, 0, 2, 1]})
    )
    out = walks.corpus_pandas(walks.node2vec_walks(edges, walk_len=4, p=1e-6, q=1.0))
    w0 = list(out[out["walk_id"] == 0].sort_values("step")["vertex_id"])
    assert w0 == [0, 1, 0, 1, 0]
    # q tiny with p huge => never return, always move outward
    out2 = walks.corpus_pandas(walks.node2vec_walks(edges, walk_len=2, p=1e6, q=1e-6))
    w02 = list(out2[out2["walk_id"] == 0].sort_values("step")["vertex_id"])
    assert w02 == [0, 1, 2]


def test_node2vec_partition_invariant():
    src, dst = _sym_test_graph(seed=5)
    df = pd.DataFrame({"src": src, "dst": dst})
    a = walks.corpus_pandas(walks.node2vec_walks(
        rd.from_pandas(df).repartition(1), walk_len=4, p=2.0, q=0.5,
        num_buckets=4,
    ))
    b = walks.corpus_pandas(walks.node2vec_walks(
        rd.from_pandas(df).repartition(7), walk_len=4, p=2.0, q=0.5,
        num_buckets=16,
    ))
    pd.testing.assert_frame_equal(a, b)


def _replay_pairs(corpus, window):
    rows = {}
    for w, g in corpus.groupby("walk_id"):
        seq = list(g.sort_values("step")["vertex_id"])
        for i in range(len(seq)):
            for j in range(len(seq)):
                if i != j and abs(i - j) <= window:
                    k = (int(seq[i]), int(seq[j]))
                    rows[k] = rows.get(k, 0) + 1
    return rows


def test_skipgram_pairs_match_replay():
    rng = np.random.default_rng(19)
    n = 25
    src, dst = [], []
    seen = set()
    for _ in range(90):
        a, b = rng.integers(0, n, 2)
        if a != b and (int(a), int(b)) not in seen:
            seen.add((int(a), int(b)))
            src.append(int(a)); dst.append(int(b))
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    corpus = walks.corpus_pandas(
        walks.random_walks(edges, walk_len=5, walks_per_vertex=2)
    )
    got_df = (
        walks.skipgram_pairs(corpus, window=2, num_buckets=8)
        .to_pandas()
        .sort_values(["center", "context"])
        .reset_index(drop=True)
    )
    got = {
        (int(r["center"]), int(r["context"])): int(r["n"])
        for _, r in got_df.iterrows()
    }
    assert got == _replay_pairs(corpus, 2)


def test_walks_out_dir_parquet_roundtrip(tmp_path):
    # the streaming sink (per-step parquet) must produce the same corpus
    # as the object-store path — and nothing of it lives on the driver
    df = pd.DataFrame({"src": [0, 0, 1, 2, 2], "dst": [1, 2, 2, 0, 1]})
    edges = rd.from_pandas(df)
    in_store = walks.corpus_pandas(
        walks.random_walks(edges, walk_len=5, walks_per_vertex=2)
    )
    on_disk = walks.corpus_pandas(
        walks.random_walks(
            edges, walk_len=5, walks_per_vertex=2,
            out_dir=str(tmp_path / "corpus"),
        )
    )
    pd.testing.assert_frame_equal(in_store, on_disk)
    # one directory per step on disk (resumable layout)
    steps = sorted(p.name for p in (tmp_path / "corpus").iterdir())
    assert steps[0] == "step_0" and len(steps) >= 2
