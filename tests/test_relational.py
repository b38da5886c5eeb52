"""bucket_map, topk_per_group and semi/anti join vs pandas / DuckDB oracles."""

import functools

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from flashray.joins import bucket_map, bucket_semi_join, topk_per_group

DOCS = "/root/testdata/sf0.001/documents.parquet"
EVENTS = "/root/testdata/sf0.001/events.parquet"


@pytest.mark.parametrize(
    "keys",
    [["big"], ["name"], ["big", "name"]],
    ids=["int64_near_2_63", "string", "two_columns"],
)
def test_bucket_map_keys_reach_one_call(keys):
    rng = np.random.default_rng(11)
    n = 300
    big = np.iinfo(np.int64).max - rng.integers(0, 9, n)
    df = pd.DataFrame(
        {
            "big": big.astype(np.int64),
            "name": [f"k{i}" for i in rng.integers(0, 13, n)],
            "rid": np.arange(n, dtype=np.int64),
        }
    )

    def per_call(g: pd.DataFrame) -> pd.DataFrame:
        assert "__bucket" not in g.columns
        # tag each row with its call: the smallest row id the call saw
        return g.assign(call=np.int64(g["rid"].min()))

    outs = []
    for b in (1, 7):
        got = bucket_map(
            rd.from_pandas(df).repartition(5), keys, per_call, num_buckets=b
        ).to_pandas()
        assert "__bucket" not in got.columns
        calls = got.groupby(keys)["call"].nunique()
        assert (calls == 1).all(), "a key's rows were split over calls"
        outs.append(
            got[["big", "name", "rid"]].sort_values("rid").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], df)


def test_bucket_map_operator_named_after_fn():
    # Dataset.stats() names the per-bucket operator after fn, not the
    # wrapper that drops the bucket column
    def _scaled(g: pd.DataFrame, *, by: int = 3) -> pd.DataFrame:
        return g.assign(id=g["id"] * by)

    for fn in (_scaled, functools.partial(_scaled, by=3)):
        out = bucket_map(rd.range(20), ["id"], fn, num_buckets=4).materialize()
        assert "MapBatches(_scaled)" in out.stats()
        assert sorted(out.to_pandas()["id"]) == list(range(0, 60, 3))


def test_topk_per_group_matches_pandas():
    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 11, 500),
            "score": rng.integers(0, 40, 500).astype("int64"),
            "rid": np.arange(500, dtype="int64"),
        }
    )
    got = topk_per_group(
        rd.from_pandas(df).repartition(7),
        ["k"],
        ["score", "rid"],
        3,
        descending=[True, False],
        num_buckets=4,
    ).to_pandas()
    want = (
        df.sort_values(["score", "rid"], ascending=[False, True])
        .groupby("k", sort=False)
        .head(3)
    )
    cols = ["k", "score", "rid"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
    )


def test_topk_per_group_vs_duckdb():
    got = topk_per_group(
        rd.read_parquet(DOCS, columns=["doc_id", "lang", "n_chars"]),
        ["lang"],
        ["n_chars", "doc_id"],
        3,
        descending=[True, False],
        num_buckets=4,
    ).to_pandas()
    want = duckdb.sql(
        f"""
        SELECT doc_id, lang, n_chars
        FROM read_parquet('{DOCS}')
        QUALIFY ROW_NUMBER() OVER
          (PARTITION BY lang ORDER BY n_chars DESC, doc_id) <= 3
        """
    ).df()
    cols = ["lang", "n_chars", "doc_id"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
    )


@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_matches_pandas(anti):
    rng = np.random.default_rng(9)
    left = pd.DataFrame(
        {
            "a": rng.integers(0, 30, 300),
            "b": rng.integers(0, 4, 300),
            "payload": rng.normal(size=300),
        }
    )
    right = pd.DataFrame(
        {
            "a": rng.integers(0, 30, 800),  # heavy key duplication
            "b": rng.integers(0, 4, 800),
        }
    )
    got = bucket_semi_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right).repartition(3),
        ["a", "b"],
        anti=anti,
        num_buckets=8,
    ).to_pandas()
    mask = pd.MultiIndex.from_frame(left[["a", "b"]]).isin(
        pd.MultiIndex.from_frame(right[["a", "b"]].drop_duplicates())
    )
    want = left[~mask] if anti else left[mask]
    cols = ["a", "b", "payload"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
    )


def test_anti_join_vs_duckdb_different_key_names():
    ev = rd.read_parquet(EVENTS)
    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"]
    )
    purchasers = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["user_id"]
    )
    got = bucket_semi_join(
        clicks, purchasers, ["user_id"], anti=True, num_buckets=8
    ).to_pandas()
    want = duckdb.sql(
        f"""
        SELECT event_id, user_id, ts FROM read_parquet('{EVENTS}')
        WHERE event_type = 'click' AND user_id NOT IN
          (SELECT user_id FROM read_parquet('{EVENTS}')
           WHERE event_type = 'purchase')
        """
    ).df()
    cols = ["event_id", "user_id", "ts"]
    assert len(got) == len(want)
    if len(want):
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols).reset_index(drop=True),
            want[cols].sort_values(cols).reset_index(drop=True),
        )


def test_semi_join_empty_right():
    left = pd.DataFrame({"a": np.arange(10, dtype="int64")})
    right = pd.DataFrame({"a": np.array([], dtype="int64")})
    semi = bucket_semi_join(
        rd.from_pandas(left), rd.from_pandas(right), ["a"], num_buckets=2
    ).to_pandas()
    assert len(semi) == 0
    anti = bucket_semi_join(
        rd.from_pandas(left), rd.from_pandas(right), ["a"], anti=True,
        num_buckets=2,
    ).to_pandas()
    assert sorted(anti["a"]) == list(range(10))
