"""Shard actors are pooled per Ray session: later Engines reuse the actors
an earlier Engine closed, with results bit-identical to fresh actors."""

import itertools
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import ray

from flashray import algorithms, engine, fixtures
from flashray.build import build_graph_from_arrays
from flashray.programs import PageRank

from test_split_vertices import hub_edges

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pool")
    src, dst = fixtures.er_edges()
    directed = build_graph_from_arrays(src, dst, str(base / "er"), num_partitions=4)
    sym = build_graph_from_arrays(
        src, dst, str(base / "er_sym"), num_partitions=4, symmetrize=True
    )
    hsrc, hdst = hub_edges()
    hub = build_graph_from_arrays(
        hsrc, hdst, str(base / "hub"), num_partitions=6, skew_threshold=8
    )
    assert hub.meta.split_vertices
    return directed, sym, hub


def _queries(graphs):
    directed, sym, hub = graphs
    return [
        ("pagerank", lambda: algorithms.pagerank(directed, eps=1e-10)),
        ("wcc", lambda: algorithms.wcc(sym)),
        ("kcore", lambda: algorithms.kcore(sym)),
        ("pagerank_again", lambda: algorithms.pagerank(directed, eps=1e-10)),
        ("bfs_split", lambda: algorithms.bfs(hub, [0])),
    ]


def _empty_pool():
    while (a := engine._POOL.take()) is not None:
        ray.kill(a)


def _arrays(df):
    return df["vertex_id"].to_numpy(), df["value"].to_numpy()


def _assert_identical(got, want):
    for g, w in zip(_arrays(got), _arrays(want)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.fixture
def closed_actor_ids(monkeypatch):
    """Actor ids of every Engine, recorded as it closes."""
    seen = []
    close = engine.Engine.close

    def recording_close(eng):
        seen.append({a._actor_id.hex() for a in eng.actors})
        close(eng)

    monkeypatch.setattr(engine.Engine, "close", recording_close)
    return seen


def test_reused_actors_bit_identical_to_fresh(graphs, closed_actor_ids):
    fresh = {}
    for name, fn in _queries(graphs):
        _empty_pool()
        fresh[name] = fn()
    closed_actor_ids.clear()
    for name, fn in _queries(graphs):
        _assert_identical(fn(), fresh[name])
    assert len(closed_actor_ids) == 5
    # the P=6 split graph also runs on 4 actors (4 CPUs): every Engine
    # got the actors the first one returned
    assert all(ids == closed_actor_ids[0] for ids in closed_actor_ids)


def _kill(actor):
    """ray.kill returns before the kill lands: wait until it has."""
    ray.kill(actor)
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            ray.get(actor.ready.remote(), timeout=10)
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.2)
    pytest.fail("killed actor still answers")


def test_dead_idle_actor_replaced(graphs, closed_actor_ids):
    directed = graphs[0]
    want = algorithms.pagerank(directed, eps=1e-10)
    victim = engine._POOL._idle[-1]  # the next one taken
    _kill(victim)
    _assert_identical(algorithms.pagerank(directed, eps=1e-10), want)
    first, second = closed_actor_ids
    assert victim._actor_id.hex() in first
    assert victim._actor_id.hex() not in second
    assert len(first & second) == len(first) - 1


def test_close_does_not_pool_actor_lost_mid_round(graphs):
    directed = graphs[0]
    want = algorithms.pagerank(directed, eps=1e-10)
    eng = engine.Engine(directed, PageRank())
    eng._submit_round()
    eng._submit_round()
    victim = eng.actors[0]
    _kill(victim)
    eng.close()
    assert victim._actor_id not in {a._actor_id for a in engine._POOL._idle}
    _assert_identical(algorithms.pagerank(directed, eps=1e-10), want)


def test_pool_take_give_from_many_threads():
    """No handle is handed to two takers, and every one given back is kept."""
    pool = engine._ActorPool()
    tokens = itertools.count()  # stand-ins for actor handles
    held, lock, doubles = set(), threading.Lock(), []

    def worker():
        for _ in range(300):
            h = pool.take()
            if h is None:
                h = next(tokens)
            with lock:
                if h in held:
                    doubles.append(h)
                held.add(h)
            time.sleep(0)
            with lock:
                held.discard(h)
            pool.give([h])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not doubles
    idle = pool.take(), *pool._session()
    assert sorted(idle) == list(range(next(tokens)))


SESSIONS = """
import json, sys, ray
from flashray import algorithms, engine, fixtures
from flashray.build import build_graph_from_arrays
src, dst = fixtures.er_edges()
out = []
for i in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    assert engine._POOL.take() is None, "pool holds another session's actor"
    g = build_graph_from_arrays(src, dst, f"{sys.argv[1]}/g{i}", num_partitions=4)
    out.append(algorithms.pagerank(g, eps=1e-10)["value"].tolist())
    ray.shutdown()
print(json.dumps(out))
"""


def test_pool_follows_ray_session(tmp_path):
    """Job ids restart in every local session: the second session must not
    be handed the first session's dead actors."""
    proc = subprocess.run(
        [sys.executable, "-c", SESSIONS, str(tmp_path)],
        capture_output=True, text=True, cwd=REPO, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    first, second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert first == second
