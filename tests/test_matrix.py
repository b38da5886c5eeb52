"""SpMV / SpMM vs dense numpy oracles (FlashMatrix-parity kernel)."""

import numpy as np
import pandas as pd
import pytest

from flashray import fixtures, matrix
from flashray.build import build_graph_from_arrays


@pytest.fixture(scope="module")
def er(tmp_path_factory):
    src, dst = fixtures.er_edges()
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, size=len(src))
    base = tmp_path_factory.mktemp("spmv")
    g = build_graph_from_arrays(
        src, dst, str(base / "er"), weight=w, num_partitions=4
    )
    return g, src, dst, w


def _x_for(g):
    vids = np.sort(
        g.vertices_dataset(columns=["vertex_id"]).to_pandas()["vertex_id"].to_numpy()
    )
    x = (vids % 7 + 1).astype(np.float64)
    return vids, x


@pytest.mark.parametrize("direction", ["out", "in"])
def test_spmv_unweighted(er, direction):
    g, src, dst, _ = er
    vids, x = _x_for(g)
    pos = {int(v): i for i, v in enumerate(vids)}
    want = np.zeros(len(vids))
    for s, d in zip(src, dst):
        if direction == "out":
            want[pos[int(d)]] += x[pos[int(s)]]
        else:
            want[pos[int(s)]] += x[pos[int(d)]]
    got = (
        matrix.spmv(
            g,
            pd.DataFrame({"vertex_id": vids, "x": x}),
            direction=direction,
        )
        .to_pandas()
        .sort_values("vertex_id")
        .reset_index(drop=True)
    )
    assert (got["vertex_id"].to_numpy() == vids).all()
    assert np.allclose(got["y"].to_numpy(), want, atol=1e-12)


def test_spmv_weighted(er):
    g, src, dst, w = er
    vids, x = _x_for(g)
    pos = {int(v): i for i, v in enumerate(vids)}
    want = np.zeros(len(vids))
    for s, d, ww in zip(src, dst, w):
        want[pos[int(d)]] += ww * x[pos[int(s)]]
    got = (
        matrix.spmv(
            g, pd.DataFrame({"vertex_id": vids, "x": x}), weighted=True
        )
        .to_pandas()
        .sort_values("vertex_id")
        .reset_index(drop=True)
    )
    assert np.allclose(got["y"].to_numpy(), want, atol=1e-9)


def test_spmm_matches_spmv(er):
    g, _, _, _ = er
    vids, x = _x_for(g)
    x2 = ((vids % 3) - 1).astype(np.float64)
    xdf = pd.DataFrame({"vertex_id": vids, "a": x, "b": x2})
    got = (
        matrix.spmm(g, xdf, x_cols=["a", "b"])
        .to_pandas()
        .sort_values("vertex_id")
        .reset_index(drop=True)
    )
    for col, vec in (("a", x), ("b", x2)):
        single = (
            matrix.spmv(g, pd.DataFrame({"vertex_id": vids, "x": vec}))
            .to_pandas()
            .sort_values("vertex_id")
            .reset_index(drop=True)
        )
        assert np.allclose(got[f"y_{col}"].to_numpy(), single["y"].to_numpy())


def test_spmv_power_iteration_matches_pagerank_step(er):
    """One damped SpMV over rank/outdeg == one PageRank pull superstep —
    the FlashMatrix equivalence that motivates the kernel."""
    g, src, dst, _ = er
    vids, _ = _x_for(g)
    n = len(vids)
    pos = {int(v): i for i, v in enumerate(vids)}
    outdeg = np.zeros(n)
    for s in src:
        outdeg[pos[int(s)]] += 1
    r0 = np.full(n, 1.0 / n)
    contrib = np.where(outdeg > 0, r0 / np.maximum(outdeg, 1), 0.0)
    got = (
        matrix.spmv(g, pd.DataFrame({"vertex_id": vids, "x": contrib}))
        .to_pandas()
        .sort_values("vertex_id")
        .reset_index(drop=True)
    )
    r1 = 0.15 / n + 0.85 * got["y"].to_numpy()
    want = np.zeros(n)
    for s, d in zip(src, dst):
        want[pos[int(d)]] += contrib[pos[int(s)]]
    assert np.allclose(r1, 0.15 / n + 0.85 * want, atol=1e-12)


def _hits_replay(src, dst, vids, iters, weight=None):
    """Dense numpy replay of the fixed-T alternating recurrence."""
    pos = {int(v): i for i, v in enumerate(vids)}
    n = len(vids)
    w = np.ones(len(src)) if weight is None else weight
    h = np.ones(n)
    a = np.zeros(n)
    for _ in range(iters):
        a = np.zeros(n)
        for s, d, ww in zip(src, dst, w):
            a[pos[int(d)]] += ww * h[pos[int(s)]]
        h = np.zeros(n)
        for s, d, ww in zip(src, dst, w):
            h[pos[int(s)]] += ww * a[pos[int(d)]]
    return a, h


def test_hits_unnormalized_exact(er, tmp_path):
    """Fixed-T unnormalized HITS counts alternating paths — integers on an
    unweighted graph, so the comparison is EXACT (the property the SQL
    oracle relies on)."""
    g, src, dst, _ = er
    vids, _ = _x_for(g)
    a, h = _hits_replay(src, dst, vids, iters=3)
    got = matrix.hits_engine(
        g, scratch_dir=str(tmp_path / "hits_bi"), iters=3, normalize=False
    )
    assert (got["vertex_id"].to_numpy() == vids).all()
    assert np.array_equal(got["authority"].to_numpy(), a)
    assert np.array_equal(got["hub"].to_numpy(), h)


def test_hits_normalized(er, tmp_path):
    g, src, dst, _ = er
    vids, _ = _x_for(g)
    a, h = _hits_replay(src, dst, vids, iters=2)
    got = matrix.hits_engine(
        g, scratch_dir=str(tmp_path / "hits_bi"), iters=2, normalize=True
    )
    assert np.array_equal(got["authority"].to_numpy(), a / a.max())
    assert np.array_equal(got["hub"].to_numpy(), h / h.max())
    assert got["authority"].max() == 1.0


def test_hits_engine_normalized_exact_and_scratch_reuse(er, tmp_path):
    g, src, dst, _ = er
    vids, _ = _x_for(g)
    a, h = _hits_replay(src, dst, vids, iters=3)
    got = matrix.hits_engine(
        g, scratch_dir=str(tmp_path / "hits_bi"), iters=3, normalize=True
    )
    assert (got["vertex_id"].to_numpy() == vids).all()
    assert np.array_equal(got["authority"].to_numpy(), a / a.max())
    assert np.array_equal(got["hub"].to_numpy(), h / h.max())
    # scratch reuse: second call loads the existing bidirected build
    again = matrix.hits_engine(
        g, scratch_dir=str(tmp_path / "hits_bi"), iters=3, normalize=True
    )
    pd.testing.assert_frame_equal(got, again)


def test_hits_engine_weighted_agrees(er, tmp_path):
    g, src, dst, w = er
    vids, _ = _x_for(g)
    a, h = _hits_replay(src, dst, vids, iters=2, weight=w)
    got = matrix.hits_engine(
        g, scratch_dir=str(tmp_path / "hits_biw"), iters=2, weighted=True,
        normalize=False,
    )
    want = pd.DataFrame({"vertex_id": vids, "authority": a, "hub": h})
    pd.testing.assert_frame_equal(
        want, got, check_exact=False, rtol=1e-12, atol=1e-9
    )


def test_nmf_objective_decreases_and_deterministic(tmp_path):
    """Lee-Seung updates never increase ||A - W.H^T||_F^2; runs are
    bit-identical; factors are nonnegative; collect=False returns
    Datasets with the same rows."""
    import numpy as np
    import pandas as pd

    from flashray import fixtures, matrix
    from flashray.build import build_graph_from_arrays

    src, dst = fixtures.er_edges(40, 0.12, seed=7)
    g = build_graph_from_arrays(src, dst, str(tmp_path / "nmf"),
                                num_partitions=4)
    n = 40
    A = np.zeros((n, n))
    for a, b in zip(src, dst):
        A[a, b] = 1.0

    def err(W, H):
        vids = W["vertex_id"].to_numpy()
        fc = [c for c in W.columns if c.startswith("f")]
        Wm = np.zeros((n, len(fc)))
        Hm = np.zeros((n, len(fc)))
        Wm[vids] = W[fc].to_numpy()
        Hm[vids] = H[fc].to_numpy()
        return float(((A - Wm @ Hm.T) ** 2).sum())

    errs = []
    for it in (0, 2, 6):
        W, H = matrix.nmf(g, rank=3, iters=it)  # local path (tiny graph)
        assert (W[[c for c in W.columns if c.startswith("f")]]
                .to_numpy() >= 0).all()
        errs.append(err(W, H))
    assert errs[1] <= errs[0] + 1e-9
    assert errs[2] <= errs[1] + 1e-9
    W1, H1 = matrix.nmf(g, rank=3, iters=4)
    W2, H2 = matrix.nmf(g, rank=3, iters=4)
    pd.testing.assert_frame_equal(W1, W2)  # deterministic
    # distributed dataflow agrees with the local loop to float round-off
    Wd, Hd = matrix.nmf(g, rank=3, iters=2, local_threshold=0)
    Wl, Hl = matrix.nmf(g, rank=3, iters=2)
    fc = [c for c in Wl.columns if c.startswith("f")]
    assert np.allclose(Wd[fc].to_numpy(), Wl[fc].to_numpy(), atol=1e-9)
    assert np.allclose(Hd[fc].to_numpy(), Hl[fc].to_numpy(), atol=1e-9)
