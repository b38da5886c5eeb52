"""Resume fixture (FIXTURES.md §5): kill after iteration k, resume from
checkpoint, final vectors bit-identical to the uninterrupted run."""

import numpy as np
import pytest

from flashray import algorithms, checkpoint, fixtures
from flashray.build import build_graph_from_arrays
from flashray.engine import Engine
from flashray.programs import MinLabel, PageRank


@pytest.fixture(scope="module")
def er_graph(tmp_path_factory):
    src, dst = fixtures.er_edges()
    return build_graph_from_arrays(
        src, dst, str(tmp_path_factory.mktemp("g") / "er"), num_partitions=4
    )


def _run_pagerank(graph, *, iters=None, eps=0.0, ckpt_dir=None, resume=False):
    with Engine(graph, PageRank()) as eng:
        if resume:
            eng.restore(ckpt_dir)
        while True:
            m = eng.step()
            if ckpt_dir is not None:
                eng.checkpoint(ckpt_dir)
            if iters is not None and eng.iteration >= iters:
                break
            if eps and m["delta"] < eps:
                break
        df = eng.values_pandas().sort_values("vertex_id").reset_index(drop=True)
        lin = list(eng.lineage)
    return df, lin


def test_resume_bit_identical(er_graph, tmp_path):
    ckpt_dir = str(tmp_path / "ckpt")
    # uninterrupted: 10 iterations
    full, full_lin = _run_pagerank(er_graph, iters=10)
    # interrupted at 3 (checkpointing every iteration), then resumed to 10
    _run_pagerank(er_graph, iters=3, ckpt_dir=ckpt_dir)
    it, lin = checkpoint.read_lineage(ckpt_dir)
    assert it == 3 and len(lin) == 3
    resumed, res_lin = _run_pagerank(er_graph, iters=10, ckpt_dir=ckpt_dir, resume=True)
    # bit-identical, not merely close
    assert (full["value"].to_numpy() == resumed["value"].to_numpy()).all()
    assert (full["vertex_id"].to_numpy() == resumed["vertex_id"].to_numpy()).all()
    # lineage iteration sequence contiguous across the resume
    assert [r["iteration"] for r in res_lin] == list(range(10))


def test_resume_frontier_program(er_graph, tmp_path):
    """Frontier state (active mask) must survive the checkpoint too."""
    ckpt_dir = str(tmp_path / "ckpt_wcc")
    with Engine(er_graph, MinLabel(None)) as eng:
        for _ in range(2):
            eng.step()
        eng.checkpoint(ckpt_dir)
        while eng.step()["changed"]:
            pass
        full = eng.values_pandas().sort_values("vertex_id").reset_index(drop=True)
    with Engine(er_graph, MinLabel(None)) as eng:
        eng.restore(ckpt_dir)
        assert eng.iteration == 2
        while eng.step()["changed"]:
            pass
        resumed = eng.values_pandas().sort_values("vertex_id").reset_index(drop=True)
    assert (full["value"].to_numpy() == resumed["value"].to_numpy()).all()


RESUMABLE = {
    "pagerank": lambda g, **kw: algorithms.pagerank(g, eps=1e-10, **kw),
    "wcc": algorithms.wcc,
    "bfs": lambda g, **kw: algorithms.bfs(g, [0], **kw),
}


@pytest.mark.parametrize("name", list(RESUMABLE))
def test_algorithms_api_resume(er_graph, tmp_path, name):
    """A run cut after 4 supersteps and resumed from its checkpoints ends
    where the uninterrupted run ends, with one contiguous lineage."""
    run = RESUMABLE[name]
    ckpt_dir = str(tmp_path / "api_ckpt")
    full = run(er_graph)
    assert len(full.attrs["lineage"]) > 4  # the cut lands mid-run
    run(er_graph, max_iters=4, checkpoint_dir=ckpt_dir, checkpoint_interval=1)
    resumed = run(er_graph, checkpoint_dir=ckpt_dir, resume=True)
    assert (full["vertex_id"].to_numpy() == resumed["vertex_id"].to_numpy()).all()
    if name == "pagerank":
        assert np.allclose(full["value"], resumed["value"], atol=1e-12)
    else:
        assert (full["value"].to_numpy() == resumed["value"].to_numpy()).all()
    lin = resumed.attrs["lineage"]
    assert [r["iteration"] for r in lin] == list(range(len(lin)))
