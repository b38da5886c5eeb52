"""Parallelism-invariance (FIXTURES.md §5): identical results from fresh
processes at different num_cpus (different actor/thread layouts)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys, json, ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from flashray import algorithms, extract, fixtures
from flashray.build import build_graph
import shutil
out = sys.argv[2]
path = fixtures.write_transcripts("/tmp/flashray/par_test/transcripts.parquet", "small")
shutil.rmtree(out, ignore_errors=True)
g = build_graph(extract.extract_edges(rd.read_parquet(path)), out,
                num_partitions=8, symmetrize=True)
pr = algorithms.pagerank(g, eps=1e-10).sort_values("vertex_id")
wc = algorithms.wcc(g).sort_values("vertex_id")
vids = pr["vertex_id"].astype(int).tolist()
ss = algorithms.sssp(g, [vids[0]]).sort_values("vertex_id")
ld = algorithms.landmark_distances(g, vids[:2])
from flashray.engine import Engine
from flashray.programs import HyperBallProgram
with Engine(g, HyperBallProgram(p=8)) as eng:
    for _ in range(64):
        if eng.step()["changed"] == 0:
            break
    hb = eng.values_pandas().sort_values("vertex_id")
print(json.dumps({
    "pr": pr["value"].tolist(),
    "wcc": wc["value"].astype(int).tolist(),
    "vids": vids,
    "sssp": ss["value"].tolist(),
    "ld": ld.drop(columns=["vertex_id"]).to_numpy().ravel().tolist(),
    "hb_est": hb["value"].tolist(),
    "hb_harm": hb["harmonic"].tolist(),
}))
ray.shutdown()
"""


@pytest.mark.slow
def test_results_identical_across_num_cpus(tmp_path):
    results = {}
    for ncpu in (2, 8):
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(ncpu), str(tmp_path / f"g{ncpu}")],
            capture_output=True, text=True, cwd=REPO, timeout=600,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
    a, b = results[2], results[8]
    assert a["vids"] == b["vids"]
    assert a["wcc"] == b["wcc"]  # exact
    assert np.array_equal(np.asarray(a["pr"]), np.asarray(b["pr"]))  # bit-identical
    assert a["sssp"] == b["sssp"]  # min-plus relaxation: exact
    assert a["ld"] == b["ld"]  # multi-source BFS: exact
    assert np.array_equal(np.asarray(a["hb_est"]), np.asarray(b["hb_est"]))
    assert np.array_equal(np.asarray(a["hb_harm"]), np.asarray(b["hb_harm"]))


def test_placement_group_pinning_bit_identical(tmp_path):
    """Shard actors pinned round-robin to 2 placement-group bundles (the
    one-bundle-per-node cluster layout) must produce bit-identical
    PageRank — the exchange path may assume nothing about co-residency."""
    import ray
    import ray.data as rd
    from ray.util.placement_group import placement_group

    from flashray import algorithms, extract, fixtures
    from flashray.build import build_graph
    from flashray.engine import Engine
    from flashray.programs import PageRank

    path = fixtures.write_transcripts(
        "/tmp/flashray/par_test/transcripts.parquet", "small"
    )
    g = build_graph(
        extract.extract_edges(rd.read_parquet(path)),
        str(tmp_path / "g"),
        num_partitions=4,
        symmetrize=True,
    )
    base = algorithms.pagerank(g, eps=1e-10).sort_values("vertex_id")

    pg = placement_group([{"CPU": 1}] * 2, strategy="STRICT_PACK")
    ray.get(pg.ready())
    try:
        with Engine(g, PageRank(), placement_group=pg) as eng:
            eng.run(lambda m: m["delta"] < 1e-10)
            pinned = eng.values_pandas().sort_values("vertex_id")
    finally:
        from ray.util.placement_group import remove_placement_group

        remove_placement_group(pg)
    assert np.array_equal(
        base["vertex_id"].to_numpy(), pinned["vertex_id"].to_numpy()
    )
    assert np.array_equal(
        base["value"].to_numpy(), pinned["value"].to_numpy()
    )


def test_placement_group_layout(tmp_path):
    """A placement group sizes the Engine: one 1-CPU actor per whole bundle
    CPU, dealt round-robin over the bundles, killed at close rather than
    pooled."""
    import ray
    from ray.util.placement_group import placement_group, remove_placement_group

    from flashray import engine, fixtures
    from flashray.build import build_graph_from_arrays
    from flashray.programs import PageRank

    src, dst = fixtures.er_edges()
    g = build_graph_from_arrays(src, dst, str(tmp_path / "er"), num_partitions=4)
    layouts = [([{"CPU": 1}] * 2, [0, 1]), ([{"CPU": 2}, {"CPU": 1}], [0, 1, 0])]
    for bundles, want in layouts:
        pg = placement_group(bundles, strategy="STRICT_PACK")
        ray.get(pg.ready())
        try:
            with engine.Engine(g, PageRank(), placement_group=pg) as eng:
                assert eng.A == len(want)
                assert eng._actor_cpus == 1.0
                assert eng._bundles == want
                ids = {a._actor_id for a in eng.actors}
                eng.step()
        finally:
            remove_placement_group(pg)
        assert ids.isdisjoint(a._actor_id for a in engine._POOL._idle)


SCRIPT_R5 = """
import sys, json, ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import numpy as np
import ray.data as rd
import pandas as pd
from flashray import fixtures, matching
from flashray.api import negative_edges
from flashray.build import build_graph_from_arrays
from flashray.datapipe.textstats import winnow_overlap
import shutil
out = sys.argv[2]
shutil.rmtree(out, ignore_errors=True)
src, dst = fixtures.er_edges(80, 0.07, seed=3)
g = build_graph_from_arrays(src, dst, out, num_partitions=8)
from flashray import routing
sys.path.insert(0, "tests")
from conftest import pinned_choose
routing.choose = pinned_choose("distributed")  # force distributed
m = matching.maximal_matching(g)
ne = negative_edges(g, 30, seed=1)
rng = np.random.default_rng(4)
vocab = ["aa", "bb", "cc", "dd"]
docs = pd.DataFrame({
    "doc_id": np.arange(50, dtype=np.int64),
    "text": [" ".join(rng.choice(vocab, size=rng.integers(6, 30)))
             for _ in range(50)],
})
wo = (winnow_overlap(rd.from_pandas(docs), n=3, w=3)
      .to_pandas().sort_values(["doc_id_a", "doc_id_b"]))
print(json.dumps({
    "match": m.to_numpy().ravel().tolist(),
    "neg": ne.to_numpy().ravel().tolist(),
    "winnow": wo.to_numpy().ravel().tolist(),
}))
ray.shutdown()
"""


@pytest.mark.slow
def test_round5_ops_identical_across_num_cpus(tmp_path):
    """Distributed matching, negative sampling and winnowing overlap are
    bit-identical from fresh processes at num_cpus 2 vs 8."""
    results = {}
    for ncpu in (2, 8):
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT_R5, str(ncpu),
             str(tmp_path / f"r5g{ncpu}")],
            capture_output=True, text=True, cwd=REPO, timeout=600,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
    assert results[2] == results[8]
