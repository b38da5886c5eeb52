"""Actor-failure recovery (FIXTURES.md §5): kill a shard actor mid-run;
the engine rebuilds it, rolls back to the last complete checkpoint (or the
initial state), and the final vectors are bit-identical to an
uninterrupted run."""

import numpy as np
import pytest
import ray

from flashray import fixtures
from flashray.build import build_graph_from_arrays
from flashray.engine import Engine
from flashray.programs import MinLabel, PageRank

EPS = 1e-10


@pytest.fixture(scope="module")
def er_graph(tmp_path_factory):
    src, dst = fixtures.er_edges()
    return build_graph_from_arrays(
        src, dst, str(tmp_path_factory.mktemp("g") / "er_ft"), num_partitions=4
    )


def _finish(eng, ckpt=None):
    eng.run(lambda m: m["delta"] < EPS, checkpoint_dir=ckpt)
    return (
        eng.values_pandas().sort_values("vertex_id").reset_index(drop=True),
        eng.iteration,
    )


def test_recovery_from_checkpoint_bit_identical(er_graph, tmp_path):
    with Engine(er_graph, PageRank()) as eng:
        for _ in range(4):
            eng.step()
        full, full_iters = _finish(eng)

    ckpt = str(tmp_path / "ft_ckpt")
    with Engine(er_graph, PageRank()) as eng:
        for _ in range(4):
            eng.step()
        eng.checkpoint(ckpt)
        ray.kill(eng.actors[1])  # simulate a lost worker/node
        recovered, rec_iters = _finish(eng, ckpt=ckpt)

    assert rec_iters == full_iters
    assert (full["vertex_id"].to_numpy() == recovered["vertex_id"].to_numpy()).all()
    assert (full["value"].to_numpy() == recovered["value"].to_numpy()).all()


def test_recovery_without_checkpoint_restarts(er_graph):
    """No checkpoint yet: recovery deterministically restarts from the
    initial state instead of failing the job."""
    with Engine(er_graph, MinLabel(None)) as eng:
        eng.run(lambda m: m["changed"] == 0)
        full = eng.values_pandas().sort_values("vertex_id").reset_index(drop=True)

    with Engine(er_graph, MinLabel(None)) as eng:
        eng.step()
        ray.kill(eng.actors[0])
        eng.run(lambda m: m["changed"] == 0)
        assert eng.recoveries == 1
        recovered = (
            eng.values_pandas().sort_values("vertex_id").reset_index(drop=True)
        )

    assert (full["value"].to_numpy() == recovered["value"].to_numpy()).all()


def test_dead_actor_probe_and_manual_recover(er_graph, tmp_path):
    ckpt = str(tmp_path / "ft_ckpt2")
    with Engine(er_graph, PageRank()) as eng:
        eng.step()
        eng.step()
        eng.checkpoint(ckpt)
        ray.kill(eng.actors[0])
        # ray.kill is async: wait until the kill has actually landed
        # before asserting the probe sees it
        import time

        deadline = time.time() + 60
        while eng._probe_dead() != [0] and time.time() < deadline:
            time.sleep(0.5)
        assert eng._probe_dead() == [0]
        assert eng.recover(ckpt) == 2
        assert eng._probe_dead() == []
        assert eng.iteration == 2
