"""HyperBall approximate neighborhood function / harmonic centrality on
the superstep engine."""

import numpy as np
import pandas as pd
import ray.data as rd

from flashray import hyperball


def _exact_balls(src, dst):
    """Exact reachable-set sizes (incl. self) + harmonic centrality."""
    verts = sorted(set(src) | set(dst))
    adj = {v: [] for v in verts}
    for s, d in zip(src, dst):
        adj[s].append(d)
    sizes, harm = {}, {}
    for v in verts:
        dist = {v: 0}
        frontier = [v]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        sizes[v] = len(dist)
        harm[v] = sum(1.0 / dd for dd in dist.values() if dd > 0)
    return sizes, harm


def _dag(seed, n, draws):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for _ in range(draws):
        a, b = rng.integers(0, n, 2)
        if a < b:
            src.append(int(a))
            dst.append(int(b))
    return src, dst


def _sketched_balls(src, dst, p):
    """Reference HyperBall: for each radius t, the HLL of the EXACT ball
    B_t(v) (register-wise max of one-element sketches over the BFS ball),
    its estimate, and harmonic = Σ_t (est_t − est_{t−1}) / t."""
    from flashray.datapipe.sketches import _sha_u64, hll_estimate, hll_partial

    verts = sorted(set(src) | set(dst))
    adj = {v: [] for v in verts}
    for s, d in zip(src, dst):
        adj[s].append(d)
    one = {v: hll_partial(_sha_u64([str(v)]), p) for v in verts}
    est, harm = {}, {}
    for v in verts:
        seen, frontier = {v}, [v]
        regs = one[v].copy()
        prev = hll_estimate(regs)
        h, t = 0.0, 0
        while frontier:
            t += 1
            frontier = list(
                dict.fromkeys(w for u in frontier for w in adj[u] if w not in seen)
            )
            seen.update(frontier)
            for w in frontier:
                regs = np.maximum(regs, one[w])
            cur = hll_estimate(regs)
            h += (cur - prev) / t
            prev = cur
        est[v], harm[v] = prev, h
    return verts, est, harm


def test_hyperball_chain_nearly_exact(tmp_path):
    n = 6
    src = list(range(n - 1))
    dst = list(range(1, n))
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    out = hyperball.hyperball_engine(
        edges, str(tmp_path / "g"), p=12, num_partitions=2
    )  # m=4096: tiny sets ~ exact
    sizes, harm = _exact_balls(src, dst)
    assert len(out) == n
    for _, row in out.iterrows():
        v = int(row["vertex_id"])
        assert abs(row["ball_est"] - sizes[v]) < 0.1, (v, row["ball_est"])
        assert abs(row["harmonic"] - harm[v]) < 0.2, (v, row["harmonic"])


def test_hyperball_dag_error_bounds(tmp_path):
    src, dst = _dag(5, 80, 260)
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    out = hyperball.hyperball_engine(
        edges, str(tmp_path / "g"), p=8, num_partitions=4
    )
    sizes, _ = _exact_balls(src, dst)
    assert len(out) == len(sizes)
    rel = []
    for _, row in out.iterrows():
        t = sizes[int(row["vertex_id"])]
        rel.append(abs(row["ball_est"] - t) / max(t, 1))
    # p=8 -> ~6.5% rel std error; mean err must be well inside, max < 5 sigma
    assert float(np.mean(rel)) < 0.1, np.mean(rel)
    assert float(np.max(rel)) < 0.35, np.max(rel)


def test_hyperball_engine_matches_exact_ball_sketches(tmp_path):
    """Vector-valued state on the superstep engine: at every radius the
    registers are the HLL of the exact BFS ball, so the final estimate and
    the harmonic accumulation match the reference on a directed DAG."""
    src, dst = _dag(11, 60, 180)
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    verts, est, harm = _sketched_balls(src, dst, p=8)
    got = hyperball.hyperball_engine(
        edges, str(tmp_path / "hb_g"), p=8, num_partitions=4
    )
    assert got["vertex_id"].tolist() == verts
    np.testing.assert_allclose(
        got["ball_est"].values, [est[v] for v in verts], rtol=1e-12
    )
    np.testing.assert_allclose(
        got["harmonic"].values, [harm[v] for v in verts], rtol=1e-12
    )


def test_hyperball_engine_bounded_radius(tmp_path):
    """max_iters bounds the ball radius exactly (no pipeline overshoot):
    on a directed 8-chain, B_2(v) = min(3, n - v) vertices."""
    n = 8
    edges = rd.from_pandas(
        pd.DataFrame({"src": list(range(n - 1)), "dst": list(range(1, n))})
    )
    out = hyperball.hyperball_engine(
        edges, str(tmp_path / "hb_r"), p=12, max_iters=2, num_partitions=2
    )
    for _, row in out.iterrows():
        want = min(3, n - int(row["vertex_id"]))
        assert abs(row["ball_est"] - want) < 0.1, (row["vertex_id"], row["ball_est"])


def test_hyperball_engine_checkpoint_resume(tmp_path):
    """Vector (2-D) state columns and the round counter survive
    checkpoint/restore bit-identically."""
    import ray

    from flashray.build import build_graph
    from flashray.convert import to_edge_schema
    from flashray.engine import Engine
    from flashray.programs import HyperBallProgram

    rng = np.random.default_rng(3)
    n = 40
    src, dst = [], []
    for _ in range(120):
        a, b = rng.integers(0, n, 2)
        if a != b:
            src.append(int(a))
            dst.append(int(b))
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    g = build_graph(
        to_edge_schema(edges), str(tmp_path / "g"), num_partitions=4
    )
    with Engine(g, HyperBallProgram(p=8)) as eng:
        for _ in range(6):
            if eng.step()["changed"] == 0:
                break
        full = eng.values_pandas().sort_values("vertex_id")

    ckpt = str(tmp_path / "ck")
    with Engine(g, HyperBallProgram(p=8)) as eng:
        eng.step()
        eng.step()
        eng.checkpoint(ckpt)

    with Engine(g, HyperBallProgram(p=8)) as eng:
        assert eng.restore(ckpt) == 2
        assert eng.get_scalar("t") == 3  # round counter restored
        for _ in range(4):
            if eng.step()["changed"] == 0:
                break
        resumed = eng.values_pandas().sort_values("vertex_id")

    assert (full["value"].values == resumed["value"].values).all()
    assert (full["harmonic"].values == resumed["harmonic"].values).all()


def test_hyperball_partition_invariant(tmp_path):
    src = [0, 1, 2, 0]
    dst = [1, 2, 3, 2]
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    a = hyperball.hyperball_engine(
        edges, str(tmp_path / "p1"), p=8, num_partitions=1
    )
    b = hyperball.hyperball_engine(
        edges, str(tmp_path / "p4"), p=8, num_partitions=4
    )
    assert (a["vertex_id"].values == b["vertex_id"].values).all()
    assert (a["ball_est"].values == b["ball_est"].values).all()
    assert (a["harmonic"].values == b["harmonic"].values).all()


def test_neighborhood_function_and_effective_diameter(tmp_path):
    """N(t) = Σ_v min(t+1, n-v) on a directed n-chain; effective diameter
    interpolates the 90% point of that curve (p=12 → near-exact)."""
    n = 10
    edges = rd.from_pandas(
        pd.DataFrame({"src": list(range(n - 1)), "dst": list(range(1, n))})
    )
    out, nf = hyperball.hyperball_engine(
        edges, str(tmp_path / "nf"), p=12, num_partitions=2, return_nf=True
    )
    want_nf = [
        sum(min(t + 1, n - v) for v in range(n)) for t in range(n)
    ]
    assert len(nf) == len(want_nf)
    np.testing.assert_allclose(nf, want_nf, rtol=0.02)
    got_ed = hyperball.effective_diameter(nf)
    # exact-curve effective diameter with the same interpolation
    tgt = 0.9 * want_nf[-1]
    t = next(i for i, v in enumerate(want_nf) if v >= tgt)
    want_ed = t - 1 + (tgt - want_nf[t - 1]) / (want_nf[t] - want_nf[t - 1])
    assert abs(got_ed - want_ed) < 0.2, (got_ed, want_ed)
