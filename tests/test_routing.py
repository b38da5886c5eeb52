"""The one routing rule (``flashray.routing``): local at or below a fixed
byte limit, broadcast within a budget read from the session, distributed
otherwise, and one log line per decision."""

import logging
from types import SimpleNamespace

import numpy as np
import pandas as pd
import ray.data as rd

from flashray import routing, triangles
from flashray.datapipe import dedup


def test_local_refused_above_the_limit():
    assert routing.choose("t.local", routing.LOCAL_BYTES) == "local"
    assert routing.choose("t.local", routing.LOCAL_BYTES + 1) == "distributed"
    assert routing.choose("t.local", None) == "distributed"


def test_broadcast_budget_from_the_session():
    store = routing.node_resources()["object_store_memory"]
    assert routing.broadcast_budget() == min(
        2 * store, routing.node_memory() // 8
    )
    assert 0 < routing.broadcast_budget()


def test_broadcast_refused_over_a_small_object_store(monkeypatch):
    """A broadcast whose state exceeds twice a 1 MiB object store is
    refused; the same state fits the test session's store."""
    big = routing.LOCAL_BYTES + 1  # over the local limit too
    assert routing.choose("t.bcast", big, 4 << 20) == "broadcast"
    monkeypatch.setattr(
        routing, "node_resources", lambda: {"object_store_memory": 1 << 20}
    )
    assert routing.broadcast_budget() == 2 << 20
    assert routing.choose("t.bcast", big, 2 << 20) == "broadcast"
    assert routing.choose("t.bcast", big, (2 << 20) + 1) == "distributed"
    assert routing.choose("t.bcast", None, 4 << 20) == "distributed"


def _graph(num_edges, num_vertices):
    meta = SimpleNamespace(num_edges=num_edges, num_vertices=num_vertices)
    return SimpleNamespace(meta=meta)


def test_wedge_family_local_limit_stays_at_200k_edges():
    """The wedge-family kernels work in Σdeg², not in edges: a graph over
    200k edges, such as a hub-heavy one of 200k + 1 edges on few
    vertices, stays off the driver; 200k edges still run there."""
    hubs = _graph(200_001, 1_000)
    assert triangles._route("triangle_count", hubs) != "local"
    assert triangles._route("k_truss", hubs, routing.AUTO, 200_001) != "local"
    assert triangles._route("triangle_count", _graph(200_000, 1_000)) == "local"


def test_local_pin():
    assert routing.local_pin(routing.AUTO, 10, 160) == 160
    assert routing.local_pin(10, 10, 160) == 0
    assert routing.local_pin(9, 10, 160) is None
    for pin in (0, None):
        assert routing.local_pin(pin, 10, 160) is None


def test_every_decision_is_logged(caplog):
    caplog.set_level(logging.INFO, logger="flashray.routing")
    routes = [
        routing.choose("t.a", 1),
        routing.choose("t.b", routing.LOCAL_BYTES + 1, 8),
        routing.choose("t.c", None),
    ]
    # an operator logs its own decision
    pairs = rd.from_pandas(
        pd.DataFrame({"a": np.array([2, 3]), "b": np.array([1, 2])})
    )
    dedup.duplicate_groups(pairs)
    recs = [r for r in caplog.records if r.name == "flashray.routing"]
    assert routes == ["local", "broadcast", "distributed"]
    assert [r.getMessage().split(":")[0] for r in recs] == [
        "t.a", "t.b", "t.c", "dedup.duplicate_groups"
    ]
    assert [r.getMessage().rsplit("-> ", 1)[1] for r in recs] == [
        "local", "broadcast", "distributed", "local"
    ]
    assert "budget=None" in recs[0].getMessage()
    assert f"limit={routing.LOCAL_BYTES}" in recs[1].getMessage()
