"""Resident shards: pooled shard actors keep their CSR shards and exchange
topology between Engines. A repeat query reads and builds nothing and skips
the handshake; a query on rewritten graph files reads exactly the
partitions that changed; every result equals a fresh-pool run bit for bit."""

import os

import numpy as np
import pytest
import ray.data as rd

from flashray import algorithms, betweenness, csr, engine, fixtures, scc
from flashray.build import add_edges, build_graph, build_graph_from_arrays
from flashray.engine import Engine, run_program
from flashray.programs import MinLabel, PageRank

from test_actor_pool import _assert_identical, _empty_pool, _kill
from test_split_vertices import hub_edges


def _pagerank(g):
    return algorithms.pagerank(g, eps=1e-10)


def _signatures(g):
    path = os.path.realpath(g.path)
    return [engine._part_signature(path, p) for p in range(g.num_partitions)]


@pytest.fixture
def er(tmp_path):
    src, dst = fixtures.er_edges()
    return build_graph_from_arrays(src, dst, str(tmp_path / "er"), num_partitions=4)


@pytest.fixture(scope="module")
def hub_sym(tmp_path_factory):
    """The split hub graph, symmetrized, at P=6 over 4 actors."""
    src, dst = hub_edges()
    g = build_graph_from_arrays(
        src, dst, str(tmp_path_factory.mktemp("resident") / "hub_sym"),
        num_partitions=6, symmetrize=True, skew_threshold=8,
    )
    assert g.meta.split_vertices
    return g


@pytest.fixture
def closed(monkeypatch):
    """Every Engine as it closes: its slot actor ids, partitions per slot,
    partitions read and whether it ran a handshake."""
    seen = []
    close = Engine.close

    def recording_close(eng):
        seen.append(
            {
                "ids": [a._actor_id.hex() for a in eng.actors],
                "parts_of": eng._parts_of,
                "shards_read": eng.shards_read,
                "handshake": eng.handshake,
            }
        )
        close(eng)

    monkeypatch.setattr(Engine, "close", recording_close)
    return seen


def test_repeat_query_reads_nothing(er):
    _empty_pool()
    fresh = _pagerank(er)
    assert fresh.attrs["shards_read"] == er.num_partitions
    assert fresh.attrs["handshake"] is True
    again = _pagerank(er)
    assert again.attrs["shards_read"] == 0
    assert again.attrs["handshake"] is False
    _assert_identical(again, fresh)


def test_actors_return_to_their_slots(er, closed):
    """Each slot of an Engine gets back the actor that held it in the last
    Engine, so the actor finds its own partitions resident."""
    for _ in range(3):
        _pagerank(er)
    slots = [c["ids"] for c in closed]
    assert len(slots) == 3 and len(set(slots[0])) == len(slots[0])
    assert slots[0] == slots[1] == slots[2]
    assert closed[1]["shards_read"] == closed[2]["shards_read"] == 0


def test_add_edges_reads_only_rewritten_partitions(tmp_path):
    src, dst = fixtures.er_edges()
    g = build_graph(
        rd.from_arrow(fixtures.edges_table(src, dst)),
        str(tmp_path / "inc"), num_partitions=4,
    )
    _pagerank(g)
    before = _signatures(g)
    # both ends in partition 1: add_edges rewrites only edges/part=1 and
    # vertices/part=1
    have = set(zip(src.tolist(), dst.tolist()))
    new = [(s, d) for s in range(1, 100, 4) for d in range(5, 100, 4)
           if s != d and (s, d) not in have][:6]
    assert len(new) == 6
    g = add_edges(
        g, rd.from_arrow(fixtures.edges_table(
            np.array([s for s, _ in new]), np.array([d for _, d in new])
        )),
    )
    changed = [p for p, (a, b) in enumerate(zip(before, _signatures(g))) if a != b]
    assert changed == [1]
    got = _pagerank(g)
    assert got.attrs["shards_read"] == 1
    assert got.attrs["handshake"] is True
    _empty_pool()
    _assert_identical(got, _pagerank(g))


def test_rebuild_with_other_partition_count(tmp_path):
    src, dst = fixtures.er_edges()
    path = str(tmp_path / "g")
    _pagerank(build_graph_from_arrays(src, dst, path, num_partitions=4))
    g = build_graph_from_arrays(src, dst, path, num_partitions=3)
    got = _pagerank(g)
    assert got.attrs["shards_read"] == 3
    assert got.attrs["handshake"] is True
    _empty_pool()
    _assert_identical(got, _pagerank(g))


def test_channel_program_after_plain_program(tmp_path):
    """Betweenness reads edge channels; the shards WCC left resident on the
    same bidirected graph carry none, so it must build its own."""
    src, dst = hub_edges()
    g = build_graph_from_arrays(src, dst, str(tmp_path / "hub"), num_partitions=4)
    scratch = str(tmp_path / "bw")
    bi = scc.build_bidirected(g, os.path.join(scratch, "bidirected"))
    _empty_pool()
    fresh = betweenness.betweenness(g, scratch_dir=scratch, sources=None)
    _empty_pool()
    algorithms.wcc(bi)
    got = betweenness.betweenness(g, scratch_dir=scratch, sources=None)
    assert got.attrs["shards_read"] == bi.num_partitions
    _assert_identical(got, fresh)
    again = betweenness.betweenness(g, scratch_dir=scratch, sources=None)
    assert again.attrs["shards_read"] == 0
    _assert_identical(again, fresh)


def test_write_into_resident_shard_raises(er):
    class WritesShard(PageRank):  # local: pickled by value to the actors
        def apply(self, shard, state, agg, N):
            shard.edge_weight[:] = 2.0
            return super().apply(shard, state, agg, N)

    _empty_pool()
    fresh = algorithms.pagerank(er, eps=1e-10, weighted=True)
    with pytest.raises(ValueError, match="read-only"):
        run_program(er, WritesShard(weighted=True), drive=lambda eng: eng.step())
    got = algorithms.pagerank(er, eps=1e-10, weighted=True)
    assert got.attrs["shards_read"] == 0
    _assert_identical(got, fresh)


def _resident_graph(n: int) -> engine._ResidentGraph:
    """An entry holding one CSR shard of an n-vertex ring."""
    v = np.arange(n, dtype=np.int64)
    one = np.ones(n, dtype=np.int64)
    g = engine._ResidentGraph()
    g.shards[0] = ((), csr.build_shard(0, 1, v, one, one, v, np.roll(v, 1)))
    return g


def test_lru_keeps_the_newest_graph():
    size = _resident_graph(100).nbytes()
    lru = engine._Resident(budget=2 * size + size // 2)  # room for two
    graphs = {k: _resident_graph(100) for k in "abcd"}
    for k in "abc":
        assert lru.put(k, graphs[k])
    assert lru.get("a") is None  # the oldest went first
    assert lru.get("b") is graphs["b"] and lru.get("c") is graphs["c"]
    assert lru.put("b", graphs["b"])  # b is now the newest
    assert lru.put("d", graphs["d"])
    assert lru.get("c") is None
    assert lru.get("b") is graphs["b"] and lru.get("d") is graphs["d"]
    # a graph larger than the whole budget is not kept, and evicts nothing
    assert not lru.put("huge", _resident_graph(1000))
    assert lru.get("huge") is None
    assert lru.get("b") is graphs["b"] and lru.get("d") is graphs["d"]


# -- recovery with resident state ---------------------------------------------


@pytest.mark.parametrize("algo", ["wcc", "kcore"])
def test_idle_actor_lost_between_queries(hub_sym, closed, algo):
    """wcc runs stale-mirror rounds on the split graph, kcore two-phase
    rounds. An idle pooled actor killed between two queries is replaced;
    the replacement reads its partitions and the handshake runs."""
    fn = getattr(algorithms, algo)
    _empty_pool()
    want = fn(hub_sym)
    _assert_identical(fn(hub_sym), want)
    assert closed[-1]["shards_read"] == 0 and not closed[-1]["handshake"]
    victim = engine._POOL._idle[0]  # the next one taken, into slot 0
    _kill(victim)
    got = fn(hub_sym)
    _assert_identical(got, want)
    rec = closed[-1]
    assert victim._actor_id.hex() not in rec["ids"]
    assert rec["ids"][1:] == closed[-2]["ids"][1:]
    assert rec["shards_read"] == len(rec["parts_of"][0]) > 0
    assert rec["handshake"]
    assert got.attrs["shards_read"] == rec["shards_read"]
    assert got.attrs["handshake"] is True


def test_actor_lost_mid_run_stale_mirrors(hub_sym):
    def run(kill: bool):
        with Engine(hub_sym, MinLabel(None)) as eng:
            assert eng._stale_mirrors
            if kill:
                assert eng.shards_read == 0 and not eng.handshake
                eng.step()
                _kill(eng.actors[0])
            eng.run(lambda m: m["changed"] == 0)
            values = eng.values_pandas().sort_values("vertex_id")
            return values.reset_index(drop=True), eng

    want, _ = run(kill=False)
    got, eng = run(kill=True)
    assert eng.recoveries == 1
    assert eng.shards_read == len(eng._parts_of[0]) > 0
    assert eng.handshake
    _assert_identical(got, want)
