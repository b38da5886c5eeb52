"""build_graph's on-disk layout against an in-test reference of the
partition rule and the degree table, and the build's failure contract."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from flashray.build import Graph, build_graph, build_graph_from_arrays
from flashray.schema import EDGE_SCHEMA

P = 4
SKEW = 8
HUB = 40  # out-degree 12 > SKEW: its out-edges are split


def raw_edges() -> pd.DataFrame:
    """Edges with duplicate keys (weights to sum, timestamps to take the
    minimum of), two etypes on one (src, dst), self-loops and a hub."""
    rng = np.random.default_rng(5)
    src = rng.integers(0, 30, 80)
    dst = rng.integers(0, 30, 80)
    src = np.concatenate([src, [7, 7, 7, 9, 11, 11], np.full(12, HUB)])
    dst = np.concatenate([dst, [8, 8, 8, 9, 11, 11], np.arange(12) * 3 + 1])
    n = len(src)
    return pd.DataFrame(
        {
            "src": src.astype(np.int64),
            "dst": dst.astype(np.int64),
            "etype": np.where(np.arange(n) % 5 == 0, "tool", "reply"),
            "weight": rng.integers(1, 4, n).astype(np.float64) / 2,
            "ts": rng.integers(0, 10**6, n).astype("datetime64[us]"),
        }
    )


def reference(df: pd.DataFrame, symmetrize: bool):
    """(edges with part, vertices with part, split set) by the layout rule."""
    if symmetrize:
        df = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])
    e = df.groupby(["src", "dst", "etype"], as_index=False).agg(
        weight=("weight", "sum"), ts=("ts", "min")
    )
    src, dst = e["src"].to_numpy(), e["dst"].to_numpy()
    vid, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(vid)
    out_deg = np.bincount(inv[: len(e)], minlength=n)
    in_deg = np.bincount(inv[len(e):], minlength=n)
    w_out = np.bincount(inv[: len(e)], weights=e["weight"].to_numpy(), minlength=n)
    splits = vid[out_deg > SKEW]
    e["part"] = np.where(np.isin(src, splits), (src + dst) % P, src % P)
    v = pd.DataFrame(
        {
            "vertex_id": vid,
            "out_degree": out_deg.astype(np.int64),
            "in_degree": in_deg.astype(np.int64),
            "w_out_degree": w_out,
            "part": vid % P,
        }
    )
    return e, v, splits


def rows(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("symmetrize", [False, True])
def test_layout_matches_reference(tmp_path, symmetrize):
    df = raw_edges()
    path = str(tmp_path / "g")
    build_graph(
        rd.from_arrow(pa.Table.from_pandas(df, EDGE_SCHEMA, preserve_index=False)),
        path,
        num_partitions=P,
        symmetrize=symmetrize,
        skew_threshold=SKEW,
    )
    e, v, splits = reference(df, symmetrize)
    assert HUB in splits

    with open(os.path.join(path, "meta.json")) as f:
        assert json.load(f) == {
            "num_partitions": P,
            "num_vertices": len(v),
            "num_edges": len(e),
            "symmetrized": symmetrize,
            "skew_threshold": SKEW,
            "split_vertices": sorted(int(x) for x in splits),
        }
    for sub, ref, cols in (
        ("edges", e, ["src", "dst", "etype", "weight", "ts"]),
        ("vertices", v, ["vertex_id", "out_degree", "in_degree", "w_out_degree"]),
    ):
        assert sorted(os.listdir(os.path.join(path, sub))) == [
            f"part={p}" for p in sorted(ref["part"].unique())
        ]
        for p, want in ref.groupby("part"):
            got = pq.read_table(os.path.join(path, sub, f"part={p}")).to_pandas()
            pd.testing.assert_frame_equal(rows(got, cols), rows(want, cols))


def test_build_reads_no_parquet(tmp_path, monkeypatch):
    """The build materializes its edges once: no temp directory, and none
    of its own output read back."""

    def refuse(*args, **kwargs):
        raise AssertionError("build_graph read parquet")

    monkeypatch.setattr(rd, "read_parquet", refuse)
    path = str(tmp_path / "g")
    g = build_graph_from_arrays(
        np.array([1, 2, 2, 3]), np.array([2, 3, 3, 1]), path, num_partitions=P
    )
    assert (g.meta.num_edges, g.meta.num_vertices) == (3, 3)
    assert sorted(os.listdir(path)) == ["edges", "meta.json", "vertices"]


def test_empty_input_keeps_existing_graph(tmp_path):
    path = str(tmp_path / "g")
    build_graph_from_arrays(np.array([1, 2]), np.array([2, 3]), path, num_partitions=P)
    empty = np.array([], dtype=np.int64)
    for symmetrize in (False, True):
        with pytest.raises(ValueError, match="edge input .* is empty"):
            build_graph_from_arrays(
                empty, empty, path, num_partitions=P, symmetrize=symmetrize
            )
    g = Graph.load(path)
    assert (g.meta.num_edges, g.meta.num_vertices) == (2, 3)
    assert g.edges_dataset().count() == 2
