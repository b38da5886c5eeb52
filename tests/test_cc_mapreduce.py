"""Log-rounds large-star/small-star WCC backend vs union-find oracle."""

import numpy as np
import pytest

from flashray import cc_mapreduce, fixtures
from flashray.build import build_graph_from_arrays

import oracles


@pytest.mark.parametrize(
    "name,fn",
    [
        ("k3", fixtures.k3_edges),
        ("two_components", fixtures.two_components_edges),
        ("er100", fixtures.er_edges),
        ("long_path", lambda: fixtures.path_edges(200)),
    ],
)
def test_wcc_mapreduce_matches_union_find(tmp_path, name, fn):
    src, dst = fn()
    g = build_graph_from_arrays(src, dst, str(tmp_path / name), num_partitions=4)
    df = cc_mapreduce.wcc_mapreduce(g)
    got = dict(zip(df["vertex_id"].astype(int), df["value"].astype(int)))
    want = oracles.wcc_minlabel(src, dst)
    assert got == want


def test_wcc_backends_agree(tmp_path):
    from flashray import algorithms

    src, dst = fixtures.er_edges(80, 0.04, seed=9)
    g = build_graph_from_arrays(src, dst, str(tmp_path / "agree"), num_partitions=4)
    a = cc_mapreduce.wcc_mapreduce(g)
    b = algorithms.wcc(g).sort_values("vertex_id").reset_index(drop=True)
    assert (a["value"].values == b["value"].values).all()


def test_wcc_mapreduce_distributed_matches_local_tail(tmp_path, pin_route):
    # the pinned distributed route runs star rounds to the fixed point;
    # the default finishes small forests with the in-process union-find —
    # same labels
    src, dst = fixtures.er_edges(120, 0.03, seed=4)
    g = build_graph_from_arrays(
        src, dst, str(tmp_path / "tail"), num_partitions=4
    )
    loc = cc_mapreduce.wcc_mapreduce(g)
    pin_route("distributed")
    dist = cc_mapreduce.wcc_mapreduce(g)
    assert (dist["vertex_id"].values == loc["vertex_id"].values).all()
    assert (dist["value"].values == loc["value"].values).all()


def _counted(ds, tmp_path):
    """``ds`` behind a map that leaves one file per batch it sees, named by
    the batch's row count: the files show how often the plan ran."""
    seen = str(tmp_path)

    def count(b):
        import os
        import uuid

        open(os.path.join(seen, f"{uuid.uuid4().hex}.{b.num_rows}"), "w").close()
        return b

    return ds.map_batches(count, batch_format="pyarrow", batch_size=None)


def _rows_seen(tmp_path):
    return sorted(int(p.suffix[1:]) for p in tmp_path.iterdir())


@pytest.mark.parametrize(
    "op", ["star_forest", "temporal_reachability", "duplicate_groups"]
)
def test_lazy_input_runs_once(tmp_path, op):
    """A lazy input's plan runs once: the operator sizes its route from the
    materialized input, not from a count that runs the plan again."""
    import pandas as pd
    import ray.data as rd

    from flashray.datapipe.dedup import duplicate_groups
    from flashray.datapipe.temporal import temporal_reachability

    src, dst = fixtures.er_edges(60, 0.05, seed=2)
    keep = src > dst
    df = pd.DataFrame({"a": src[keep], "b": dst[keep], "t": src[keep] % 5})
    if op != "temporal_reachability":
        df = df[["a", "b"]]
    lazy = _counted(rd.from_pandas(df).repartition(3), tmp_path)
    if op == "star_forest":
        cc_mapreduce.star_forest(lazy, num_buckets=4).materialize()
    elif op == "duplicate_groups":
        duplicate_groups(lazy)
    else:
        temporal_reachability(
            lazy, [int(df["a"].iloc[0])], t0=0, src_col="a", dst_col="b"
        ).materialize()
    seen = _rows_seen(tmp_path)
    assert sum(seen) == len(df) and len(seen) == 3, seen
