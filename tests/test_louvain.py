"""Synchronous parallel Louvain: python replay, fixtures, invariance."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from flashray.louvain import louvain_communities


def _replay(rows, sweeps, levels=1):
    """Python replay of the exact sweep rule (int math throughout)."""
    from collections import Counter, defaultdict

    def run_level(rows, sweeps, lab0=None):
        k = defaultdict(int)
        adj = defaultdict(Counter)
        tm = 0
        for s, d, w in rows:
            k[s] += w
            tm += w
            if s != d:
                adj[s][d] += w
        verts = sorted(k)
        lab = dict(lab0) if lab0 else {v: v for v in verts}
        for _ in range(sweeps):
            tot = defaultdict(int)
            for v in verts:
                tot[lab[v]] += k[v]
            new = {}
            for v in verts:
                aff = Counter()
                for u, w in adj[v].items():
                    aff[lab[u]] += w
                cands = dict(aff)
                cands.setdefault(lab[v], 0)
                best = None
                for c, ew in cands.items():
                    sc = tm * ew - k[v] * (tot[c] - k[v] * (c == lab[v]))
                    key = (sc, c == lab[v], -c)
                    if best is None or key > best[0]:
                        best = (key, c)
                new[v] = best[1]
            lab = new
        return lab

    lab = run_level(rows, sweeps)
    mapping = dict(lab)
    for _ in range(levels - 1):
        # contract
        from collections import defaultdict as dd

        cw = dd(int)
        for s, d, w in rows:
            cw[(lab[s], lab[d])] += w
        rows = [(s, d, w) for (s, d), w in cw.items()]
        lab = run_level(rows, sweeps)
        mapping = {v: lab[c] for v, c in mapping.items()}
    return mapping


def _sym_rows(src, dst):
    rows = []
    for a, b in zip(src.tolist(), dst.tolist()):
        rows.append((a, b, 1))
        rows.append((b, a, 1))
    return rows


def _sym_ds(src, dst):
    return rd.from_pandas(
        pd.DataFrame(
            {
                "src": np.concatenate([src, dst]).astype(np.int64),
                "dst": np.concatenate([dst, src]).astype(np.int64),
            }
        )
    )


def _two_cliques():
    """Two K5s (0-4, 10-14) joined by one bridge edge 4-10."""
    src, dst = [], []
    for base in (0, 10):
        for i in range(5):
            for j in range(i + 1, 5):
                src.append(base + i)
                dst.append(base + j)
    src.append(4)
    dst.append(10)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def test_louvain_two_cliques_finds_communities_and_beats_lpa(tmp_path):
    from flashray import algorithms
    from flashray.build import build_graph_from_arrays
    from flashray.lpa import lpa_communities

    src, dst = _two_cliques()
    got = (
        louvain_communities(_sym_ds(src, dst), sweeps=4, num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    lab = dict(zip(got["vertex_id"].astype(int), got["label"].astype(int)))
    # the two cliques are separated
    assert len({lab[v] for v in range(5)}) == 1
    assert len({lab[v] for v in range(10, 15)}) == 1
    assert lab[0] != lab[10]
    # matches the python replay exactly
    want = _replay(_sym_rows(src, dst), sweeps=4)
    assert lab == want
    # modularity >= LPA's partition on the same fixture
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "tc"), num_partitions=2
    )
    q_louvain = algorithms.modularity(g, got[["vertex_id", "label"]])
    lpa = (
        lpa_communities(_sym_ds(src, dst), sweeps=4, num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    q_lpa = algorithms.modularity(g, lpa[["vertex_id", "label"]])
    assert q_louvain >= q_lpa - 1e-12
    assert q_louvain > 0.3


def test_louvain_random_matches_replay_and_partition_invariant():
    rng = np.random.default_rng(29)
    src = rng.integers(0, 40, 160).astype(np.int64)
    dst = rng.integers(0, 40, 160).astype(np.int64)
    m = src != dst
    src, dst = src[m], dst[m]
    want = _replay(_sym_rows(src, dst), sweeps=3)
    a = (
        louvain_communities(_sym_ds(src, dst), sweeps=3, num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    got = dict(zip(a["vertex_id"].astype(int), a["label"].astype(int)))
    assert got == want
    # the distributed BROADCAST sweep path (hybrid local path disabled)
    # agrees bit-exactly, under a different input partitioning
    b = (
        louvain_communities(
            _sym_ds(src, dst).repartition(7), sweeps=3, num_buckets=16,
            local_threshold=0,
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # and the all-JOIN sweep path (broadcast also disabled) agrees too
    c = (
        louvain_communities(
            _sym_ds(src, dst), sweeps=3, num_buckets=4,
            local_threshold=0, broadcast_threshold=0,
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, c)


def test_louvain_two_levels_contraction_matches_replay():
    rng = np.random.default_rng(31)
    # planted partition: 3 dense blocks of 8, sparse cross edges
    src, dst = [], []
    for blk in range(3):
        base = blk * 8
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.8:
                    src.append(base + i)
                    dst.append(base + j)
    for _ in range(6):
        a, b = rng.integers(0, 24, 2)
        if a != b:
            src.append(int(a))
            dst.append(int(b))
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    want = _replay(_sym_rows(src, dst), sweeps=2, levels=2)
    got_df = (
        louvain_communities(
            _sym_ds(src, dst), sweeps=2, levels=2, num_buckets=4
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    got = dict(
        zip(got_df["vertex_id"].astype(int), got_df["label"].astype(int))
    )
    assert got == want
    # distributed contraction path agrees with the local kernel
    dist = (
        louvain_communities(
            _sym_ds(src, dst), sweeps=2, levels=2, num_buckets=4,
            local_threshold=0,
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_df, dist)


def _refine_replay(edges_sym, labels):
    """Python replay of leiden_refine: per community, connected
    components over intra-community edges; label = component min."""
    from collections import defaultdict

    adj = defaultdict(set)
    for s, d in edges_sym:
        if s == d or s not in labels or d not in labels:
            continue
        if labels[s] == labels[d]:
            adj[s].add(d)
            adj[d].add(s)
    out = {}
    for v in labels:
        if v in out:
            continue
        comp, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        m = min(comp)
        for u in comp:
            out[u] = m
    return out


def test_leiden_refine_splits_disconnected_community():
    from flashray.louvain import leiden_refine

    # one "community" (label 7) whose induced subgraph has two
    # components {1,2} and {3,4} — the exact defect Leiden fixes
    src = np.array([1, 3], dtype=np.int64)
    dst = np.array([2, 4], dtype=np.int64)
    labels = rd.from_pandas(
        pd.DataFrame(
            {
                "vertex_id": np.array([1, 2, 3, 4], dtype=np.int64),
                "label": np.array([7, 7, 7, 7], dtype=np.int64),
            }
        )
    )
    got = (
        leiden_refine(_sym_ds(src, dst), labels)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert got["vertex_id"].tolist() == [1, 2, 3, 4]
    assert got["label"].tolist() == [1, 1, 3, 3]


def test_leiden_refine_distributed_matches_local_and_replay():
    from flashray.louvain import leiden_refine

    rng = np.random.RandomState(11)
    src = rng.randint(0, 40, size=150).astype(np.int64)
    dst = rng.randint(0, 40, size=150).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    ds = _sym_ds(src, dst)
    labels = louvain_communities(ds, sweeps=2, num_buckets=4)
    lab_pdf = labels.to_pandas()
    lmap = dict(zip(lab_pdf["vertex_id"].astype(int),
                    lab_pdf["label"].astype(int)))
    want = _refine_replay(
        list(zip(src.tolist(), dst.tolist()))
        + list(zip(dst.tolist(), src.tolist())),
        lmap,
    )
    for thr in (200_000, None):  # local kernel vs distributed dataflow
        got = (
            leiden_refine(
                ds,
                rd.from_pandas(lab_pdf),
                num_buckets=4,
                local_threshold=thr,
            )
            .to_pandas().sort_values("vertex_id").reset_index(drop=True)
        )
        assert dict(
            zip(got["vertex_id"].astype(int), got["label"].astype(int))
        ) == want


def test_louvain_refine_kwarg_yields_connected_communities():
    from flashray.louvain import leiden_refine

    src, dst = _two_cliques()
    got = (
        louvain_communities(_sym_ds(src, dst), sweeps=4, num_buckets=4,
                            refine=True)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    lab = dict(zip(got["vertex_id"].astype(int), got["label"].astype(int)))
    # refinement preserves the clean two-clique answer
    assert len({lab[v] for v in range(5)}) == 1
    assert len({lab[v] for v in range(10, 15)}) == 1
    assert lab[0] != lab[10]
    # labels follow the component-min convention
    assert lab[0] == 0 and lab[10] == 10
    # idempotent: refining an already-connected partition is a no-op
    again = (
        leiden_refine(_sym_ds(src, dst), rd.from_pandas(got),
                      num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert again["label"].tolist() == got["label"].tolist()


def test_leiden_refine_ignores_unlabeled_endpoints():
    from flashray.louvain import leiden_refine

    # edge 2-5 has an unlabeled endpoint (5): it cannot be
    # intra-community; output covers exactly the labeled vertices
    src = np.array([1, 2], dtype=np.int64)
    dst = np.array([2, 5], dtype=np.int64)
    labels = rd.from_pandas(
        pd.DataFrame(
            {
                "vertex_id": np.array([1, 2], dtype=np.int64),
                "label": np.array([3, 3], dtype=np.int64),
            }
        )
    )
    got = (
        leiden_refine(_sym_ds(src, dst), labels)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert got["vertex_id"].tolist() == [1, 2]
    assert got["label"].tolist() == [1, 1]


_PATHS = {
    "local": {},
    "broadcast": {"local_threshold": 0},
    "join": {"local_threshold": 0, "broadcast_threshold": 0},
}


@pytest.mark.parametrize("path", list(_PATHS))
def test_louvain_empty_and_self_loop_only_inputs(path):
    kw = _PATHS[path]
    empty = rd.from_pandas(
        pd.DataFrame(
            {
                "src": np.array([], dtype=np.int64),
                "dst": np.array([], dtype=np.int64),
            }
        )
    )
    out = louvain_communities(empty, sweeps=2, num_buckets=4, **kw)
    sch = out.schema()
    assert list(sch.names) == ["vertex_id", "label"]
    assert [str(t) for t in sch.types] == ["int64", "int64"]
    assert out.count() == 0
    # self-loops only: no neighbor community, every vertex stays put
    loops = np.array([3, 5, 9, 12], dtype=np.int64)
    got = (
        louvain_communities(
            rd.from_pandas(pd.DataFrame({"src": loops, "dst": loops})),
            sweeps=2, num_buckets=4, **kw,
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert got["vertex_id"].tolist() == loops.tolist()
    assert got["label"].tolist() == loops.tolist()


def test_louvain_broadcast_path_sorts_once_and_never_groups(monkeypatch):
    calls = {"sort": 0, "groupby": 0}

    def counted(name):
        orig = getattr(rd.Dataset, name)

        def wrapper(self, *a, **kw):
            calls[name] += 1
            return orig(self, *a, **kw)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rd.Dataset, name, counted(name))
    rng = np.random.default_rng(37)
    src = rng.integers(0, 30, 120).astype(np.int64)
    dst = rng.integers(0, 30, 120).astype(np.int64)
    got = (
        louvain_communities(
            _sym_ds(src, dst), sweeps=3, num_buckets=4, local_threshold=0
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert calls == {"sort": 1, "groupby": 0}
    want = _replay(_sym_rows(src, dst), sweeps=3)
    assert dict(
        zip(got["vertex_id"].astype(int), got["label"].astype(int))
    ) == want


def test_louvain_broadcast_hub_larger_than_a_block():
    from ray.data import DataContext

    rng = np.random.default_rng(41)
    # hub 0 joined to 1..600, plus a sparse random graph over 1..600
    src = np.concatenate(
        [np.zeros(600, dtype=np.int64), rng.integers(1, 601, 300)]
    ).astype(np.int64)
    dst = np.concatenate(
        [np.arange(1, 601, dtype=np.int64), rng.integers(1, 601, 300)]
    ).astype(np.int64)
    m = src != dst
    src, dst = src[m], dst[m]
    local = (
        louvain_communities(_sym_ds(src, dst), sweeps=3, num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    ctx = DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 4096  # the hub's 600 rows span ~4 blocks
    try:
        def block_sources(b: pd.DataFrame) -> pd.DataFrame:
            if not len(b):
                return pd.DataFrame({"src": [], "blk": []}, dtype=np.int64)
            u = np.unique(b["src"].to_numpy(dtype=np.int64))
            return pd.DataFrame({"src": u, "blk": np.full(len(u), u[0])})

        blocks = (
            _sym_ds(src, dst)
            .map_batches(lambda b: b, batch_format="pandas")
            .sort("src")
            .map_batches(block_sources, batch_format="pandas",
                         batch_size=None)
            .to_pandas()
        )
        # the premise: many blocks, and no source split across two
        assert blocks["blk"].nunique() > 4
        assert not blocks["src"].duplicated().any()
        got = (
            louvain_communities(
                _sym_ds(src, dst), sweeps=3, num_buckets=4,
                local_threshold=0,
            )
            .to_pandas().sort_values("vertex_id").reset_index(drop=True)
        )
    finally:
        ctx.target_max_block_size = saved
    pd.testing.assert_frame_equal(got, local)
    want = _replay(_sym_rows(src, dst), sweeps=3)
    assert dict(
        zip(got["vertex_id"].astype(int), got["label"].astype(int))
    ) == want
