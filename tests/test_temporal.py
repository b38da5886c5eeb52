"""As-of join and range join vs pandas / brute-force / DuckDB oracles."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from flashray.datapipe.temporal import asof_join, range_join

EVENTS = "/root/testdata/sf0.001/events.parquet"


def _rand_frames(seed, n_left=400, n_right=300, n_keys=17):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, n_left),
            "t": rng.integers(0, 10_000, n_left).astype("int64"),
            "lid": np.arange(n_left, dtype="int64"),
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(0, n_keys, n_right),
            "t": rng.integers(0, 10_000, n_right).astype("int64"),
            "rid": np.arange(n_right, dtype="int64"),
            "v": rng.normal(size=n_right).round(6),
        }
    )
    # dedupe right (k, t) so the asof match is value-deterministic
    right = right.drop_duplicates(["k", "t"]).reset_index(drop=True)
    return left, right


def _sorted(df, cols):
    return (
        df[cols].sort_values(cols).reset_index(drop=True).astype("float64")
    )


@pytest.mark.parametrize("direction", ["backward", "forward", "nearest"])
def test_asof_matches_pandas(direction):
    left, right = _rand_frames(7)
    got = asof_join(
        rd.from_pandas(left),
        rd.from_pandas(right),
        on=["k"],
        left_ts="t",
        direction=direction,
        how="left",
        num_buckets=8,
    ).to_pandas()
    want = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("t", kind="mergesort").rename(columns={"t": "t_r"}),
        left_on="t",
        right_on="t_r",
        by="k",
        direction=direction,
    )
    cols = ["k", "t", "lid", "t_r", "rid", "v"]
    assert len(got) == len(left)
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols))


def test_asof_inner_drops_unmatched():
    left, right = _rand_frames(11)
    right = right[right["k"] != 3]  # key 3 has no right rows at all
    got = asof_join(
        rd.from_pandas(left),
        rd.from_pandas(right),
        on=["k"],
        left_ts="t",
        how="inner",
        num_buckets=8,
    ).to_pandas()
    want = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("t", kind="mergesort").rename(columns={"t": "t_r"}),
        left_on="t",
        right_on="t_r",
        by="k",
    ).dropna(subset=["rid"])
    assert not (got["k"] == 3).any()
    cols = ["k", "t", "lid", "t_r", "rid", "v"]
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols))
    # int64 ids survive exactly when every row matched in its bucket group
    assert got["lid"].notna().all()


def test_asof_tolerance():
    left, right = _rand_frames(13)
    got = asof_join(
        rd.from_pandas(left),
        rd.from_pandas(right),
        on=["k"],
        left_ts="t",
        how="inner",
        tolerance=250,
        num_buckets=8,
    ).to_pandas()
    want = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("t", kind="mergesort").rename(columns={"t": "t_r"}),
        left_on="t",
        right_on="t_r",
        by="k",
        tolerance=250,
    ).dropna(subset=["rid"])
    assert (got["t"] - got["t_r"] <= 250).all()
    cols = ["k", "t", "lid", "t_r", "rid", "v"]
    pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols))


def test_asof_timestamps_vs_duckdb():
    con = duckdb.connect()
    got = asof_join(
        rd.read_parquet(EVENTS).filter(expr="event_type == 'click'"),
        rd.read_parquet(EVENTS)
        .filter(expr="event_type == 'purchase'")
        .groupby(["user_id", "ts"])
        .max("value"),
        on=["user_id"],
        left_ts="ts",
        how="inner",
        num_buckets=8,
    ).to_pandas()
    want = con.execute(
        f"""
        WITH l AS (SELECT event_id, user_id, ts FROM
                   read_parquet('{EVENTS}') WHERE event_type = 'click'),
             r AS (SELECT user_id, ts, max(value) AS vmax
                   FROM read_parquet('{EVENTS}')
                   WHERE event_type = 'purchase' GROUP BY 1, 2)
        SELECT l.event_id, l.user_id, l.ts, r.ts AS ts_r, r.vmax
        FROM l ASOF JOIN r
          ON l.user_id = r.user_id AND l.ts >= r.ts
        """
    ).df()
    cols = ["event_id", "user_id", "ts", "ts_r"]
    got = got.rename(columns={"max(value)": "vmax"})
    g = got.sort_values(cols).reset_index(drop=True)
    w = want.sort_values(cols).reset_index(drop=True)
    assert len(g) == len(w)
    for c in cols + ["vmax"]:
        assert (g[c].to_numpy() == w[c].to_numpy()).all(), c


def _brute_range(left, right, closed):
    out = []
    lo_op = {"left": np.greater_equal, "both": np.greater_equal,
             "right": np.greater, "neither": np.greater}[closed]
    hi_op = {"left": np.less, "both": np.less_equal,
             "right": np.less_equal, "neither": np.less}[closed]
    for _, lrow in left.iterrows():
        m = (
            (right["k"] == lrow["k"])
            & lo_op(right["t"], lrow["s"])
            & hi_op(right["t"], lrow["e"])
        )
        for _, rrow in right[m].iterrows():
            out.append((lrow["k"], lrow["s"], lrow["e"], lrow["lid"],
                        rrow["t"], rrow["rid"], rrow["v"]))
    return pd.DataFrame(
        out, columns=["k", "s", "e", "lid", "t", "rid", "v"]
    )


@pytest.mark.parametrize("closed", ["left", "both", "right", "neither"])
def test_range_join_matches_bruteforce(closed):
    rng = np.random.default_rng(29)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 9, 120),
            "s": rng.integers(0, 900, 120).astype("int64"),
            "lid": np.arange(120, dtype="int64"),
        }
    )
    left["e"] = left["s"] + rng.integers(0, 200, 120)
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 9, 150),
            "t": rng.integers(-50, 1200, 150).astype("int64"),
            "rid": np.arange(150, dtype="int64"),
            "v": rng.normal(size=150).round(6),
        }
    )
    got = range_join(
        rd.from_pandas(left),
        rd.from_pandas(right),
        on=["k"],
        left_start="s",
        left_end="e",
        right_ts="t",
        closed=closed,
        num_buckets=4,
    ).to_pandas()
    want = _brute_range(left, right, closed)
    cols = ["k", "s", "e", "lid", "t", "rid", "v"]
    assert len(got) == len(want)
    if len(want):
        pd.testing.assert_frame_equal(_sorted(got, cols), _sorted(want, cols))


def test_range_join_partition_invariant_and_empty():
    rng = np.random.default_rng(31)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 60),
            "s": rng.integers(0, 500, 60).astype("int64"),
            "lid": np.arange(60, dtype="int64"),
        }
    )
    left["e"] = left["s"] + 80
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 80),
            "t": rng.integers(0, 600, 80).astype("int64"),
            "rid": np.arange(80, dtype="int64"),
            "v": np.ones(80),
        }
    )
    kw = dict(on=["k"], left_start="s", left_end="e", right_ts="t")
    a = range_join(rd.from_pandas(left), rd.from_pandas(right),
                   num_buckets=1, **kw).to_pandas()
    b = range_join(
        rd.from_pandas(left).repartition(7),
        rd.from_pandas(right).repartition(3),
        num_buckets=16,
        **kw,
    ).to_pandas()
    cols = ["k", "s", "e", "lid", "t", "rid", "v"]
    pd.testing.assert_frame_equal(_sorted(a, cols), _sorted(b, cols))
    # disjoint time ranges -> typed empty result
    far = right.assign(t=right["t"] + 10_000_000)
    empty = range_join(rd.from_pandas(left), rd.from_pandas(far),
                       num_buckets=4, **kw).to_pandas()
    assert len(empty) == 0


def test_range_join_timestamps_vs_duckdb():
    con = duckdb.connect()
    ev = rd.read_parquet(EVENTS)
    clicks = ev.filter(expr="event_type == 'click'").map_batches(
        lambda b: b.rename_columns(
            [
                {"event_id": "click_id", "ts": "start_ts"}.get(c, c)
                for c in b.column_names
            ]
        ).select(["click_id", "user_id", "start_ts"]),
        batch_format="pyarrow",
    )
    clicks = clicks.add_column(
        "end_ts",
        lambda df: df["start_ts"] + pd.Timedelta(minutes=30),
        batch_format="pandas",
    )
    purchases = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "user_id", "ts", "value"]
    )
    got = range_join(
        clicks,
        purchases,
        on=["user_id"],
        left_start="start_ts",
        left_end="end_ts",
        right_ts="ts",
        num_buckets=8,
    ).to_pandas()
    want = con.execute(
        f"""
        WITH a AS (SELECT event_id AS click_id, user_id, ts AS start_ts,
                          ts + INTERVAL 30 MINUTE AS end_ts
                   FROM read_parquet('{EVENTS}') WHERE event_type='click'),
             b AS (SELECT event_id, user_id, ts, value
                   FROM read_parquet('{EVENTS}') WHERE event_type='purchase')
        SELECT a.click_id, a.user_id, a.start_ts, a.end_ts,
               b.event_id, b.ts, b.value
        FROM a JOIN b ON a.user_id = b.user_id
         AND b.ts >= a.start_ts AND b.ts < a.end_ts
        """
    ).df()
    cols = ["click_id", "user_id", "event_id", "ts"]
    g = got.sort_values(cols).reset_index(drop=True)
    w = want.sort_values(cols).reset_index(drop=True)
    assert len(g) == len(w) > 0
    for c in cols + ["value"]:
        assert (g[c].to_numpy() == w[c].to_numpy()).all(), c


def test_funnel_counts_greedy_earliest():
    from flashray.datapipe.temporal import funnel_counts

    # u1 completes all 3; u2 has purchase BEFORE click (stops at 2);
    # u3 view only; u4 click-first (never enters step 1... no view)
    rows = [
        (1, "view", "2024-01-01 00:00"),
        (1, "click", "2024-01-01 01:00"),
        (1, "purchase", "2024-01-01 02:00"),
        (2, "view", "2024-01-01 00:00"),
        (2, "purchase", "2024-01-01 00:30"),
        (2, "click", "2024-01-01 01:00"),
        (3, "view", "2024-01-01 00:00"),
        (4, "click", "2024-01-01 00:00"),
        # u5: click tie with view ts (strict > excludes it)
        (5, "view", "2024-01-01 00:00"),
        (5, "click", "2024-01-01 00:00"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"])
    got = funnel_counts(
        rd.from_pandas(df), ["view", "click", "purchase"], num_buckets=4
    )
    assert list(got["step"]) == [1, 2, 3]
    assert list(got["users"]) == [4, 2, 1]


def test_cohort_retention_matrix():
    from flashray.datapipe.temporal import cohort_retention

    wk = 7 * 24 * 3600 * 1_000_000
    base = pd.Timestamp("2024-01-01").value // 1000  # us
    # u1 first in wk0, active wk0+wk2; u2 first wk0 only; u3 first wk1,
    # active wk1+wk2 (two events same week dedupe)
    rows = [
        (1, base + 100),
        (1, base + 2 * wk + 5),
        (2, base + 50),
        (3, base + wk + 1),
        (3, base + wk + 2),
        (3, base + 2 * wk + 9),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["ts"] = pd.to_datetime(df["ts"], unit="us")
    got = (
        cohort_retention(rd.from_pandas(df), num_buckets=4)
        .to_pandas()
        .sort_values(["cohort", "week_offset"])
        .reset_index(drop=True)
    )
    c0 = base // wk
    want = pd.DataFrame(
        {
            "cohort": [c0, c0, c0 + 1, c0 + 1],
            "week_offset": [0, 2, 0, 1],
            "users": [2, 1, 1, 1],
        }
    )
    assert got.astype("int64").values.tolist() == want.values.tolist()


def _transitions_oracle(df: pd.DataFrame) -> pd.DataFrame:
    g = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    rows = []
    for _, grp in g.groupby("user_id"):
        ts = list(grp["event_type"])
        rows += list(zip(ts[:-1], ts[1:]))
    pairs = pd.DataFrame(rows, columns=["from_type", "to_type"])
    n = pairs.value_counts().rename("n").reset_index()
    n["n"] = n["n"].astype("int64")
    tot = n.groupby("from_type")["n"].transform("sum")
    n["prob"] = n["n"] / tot
    return n.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def _rand_events(seed, n=600, users=23, types=5):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype="int64"),
            "user_id": rng.integers(0, users, n).astype("int64"),
            "event_type": np.array(list("abcdefgh"))[
                rng.integers(0, types, n)
            ],
            # coarse timestamps force plenty of (user, ts) ties — the
            # event_id tiebreak must decide those deterministically
            "ts": pd.to_datetime(
                rng.integers(0, 50, n) * 1_000_000, unit="us"
            ),
        }
    )
    return df


def test_event_transitions_matches_oracle():
    from flashray.datapipe.temporal import event_transitions

    df = _rand_events(3)
    got = (
        event_transitions(rd.from_pandas(df), num_buckets=8)
        .to_pandas()
        .sort_values(["from_type", "to_type"])
        .reset_index(drop=True)
    )
    want = _transitions_oracle(df)
    pd.testing.assert_frame_equal(got, want, check_exact=False, rtol=1e-12)
    # probabilities row-normalize
    assert np.allclose(got.groupby("from_type")["prob"].sum(), 1.0)


def test_event_transitions_partition_invariant():
    from flashray.datapipe.temporal import event_transitions

    df = _rand_events(11)
    a = (
        event_transitions(rd.from_pandas(df), num_buckets=4)
        .to_pandas()
        .sort_values(["from_type", "to_type"])
        .reset_index(drop=True)
    )
    b = (
        event_transitions(rd.from_pandas(df).repartition(9), num_buckets=16)
        .to_pandas()
        .sort_values(["from_type", "to_type"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_event_transitions_single_event_users():
    from flashray.datapipe.temporal import event_transitions

    # every user has exactly one event -> no pairs at all
    df = _rand_events(5, n=20, users=20)
    df["user_id"] = np.arange(20, dtype="int64")
    out = event_transitions(rd.from_pandas(df), num_buckets=4).to_pandas()
    assert len(out) == 0


def _session_paths_oracle(df, gap_us, max_len, k):
    g = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    paths = {}
    for _, grp in g.groupby("user_id"):
        ts = grp["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        et = grp["event_type"].to_numpy()
        cur = []
        prev = None
        for i in range(len(grp)):
            if prev is not None and ts[i] - prev > gap_us:
                p = ">".join(cur[:max_len])
                paths[p] = paths.get(p, 0) + 1
                cur = []
            cur.append(et[i])
            prev = ts[i]
        p = ">".join(cur[:max_len])
        paths[p] = paths.get(p, 0) + 1
    out = pd.DataFrame(sorted(paths.items()), columns=["path", "n"])
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(["n", "path"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def test_session_paths_matches_oracle():
    from flashray.datapipe.temporal import session_paths

    df = _rand_events(21, n=500, users=17, types=4)
    got = session_paths(
        rd.from_pandas(df), gap_us=8_000_000, max_len=5, k=15, num_buckets=8
    )
    want = _session_paths_oracle(df, 8_000_000, 5, 15)
    pd.testing.assert_frame_equal(got, want)


def test_session_paths_partition_invariant():
    from flashray.datapipe.temporal import session_paths

    df = _rand_events(23, n=400, users=11, types=4)
    a = session_paths(rd.from_pandas(df), gap_us=5_000_000, k=10,
                      num_buckets=4)
    b = session_paths(rd.from_pandas(df).repartition(9),
                      gap_us=5_000_000, k=10, num_buckets=16)
    pd.testing.assert_frame_equal(a, b)


def test_decayed_user_scores_replay_and_invariance():
    from flashray.datapipe.temporal import decayed_user_scores

    df = _rand_events(43, n=400, users=19)
    df["value"] = np.random.default_rng(43).uniform(0.5, 30, len(df)).round(2)
    ref = "2024-01-02 00:00:00"
    kw = dict(ref_ts=ref, half_life_us=3600 * 1_000_000)
    a = (
        decayed_user_scores(rd.from_pandas(df), num_buckets=4, **kw)
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    b = (
        decayed_user_scores(
            rd.from_pandas(df).repartition(11), num_buckets=16, **kw
        )
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)  # bit-identical (integer nanounits)
    ref_us = pd.Timestamp(ref).value // 1000
    t = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    nano = np.rint(
        df["value"].to_numpy()
        * np.power(2.0, -((ref_us - t) / 3.6e9)) * 1e9
    ).astype(np.int64)
    want = (
        pd.DataFrame({"user_id": df["user_id"], "nano": nano})
        .groupby("user_id", as_index=False)["nano"].sum()
    )
    want["score"] = want["nano"] / 1e9
    got = a.set_index("user_id")["score"]
    assert np.allclose(
        got.loc[want["user_id"]].to_numpy(), want["score"], atol=0
    )


def _reach_oracle(edges, seeds, t0):
    """Label-correcting python replay of foremost arrivals."""
    arr = {int(s): int(t0) for s in seeds}
    changed = True
    while changed:
        changed = False
        for s, d, t in edges:
            if s in arr and t >= arr[s] and (d not in arr or t < arr[d]):
                arr[d] = int(t)
                changed = True
    return arr


def test_temporal_reachability_respects_time():
    from flashray.datapipe.temporal import temporal_reachability

    # 1->2 fires at t=5; 2->3 fired at t=3 (BEFORE you can be at 2):
    # static reach says 3, temporal says no. 2->4 at t=7 works.
    edges = pd.DataFrame(
        {
            "src": np.array([1, 2, 2], dtype=np.int64),
            "dst": np.array([2, 3, 4], dtype=np.int64),
            "t": np.array([5, 3, 7], dtype=np.int64),
        }
    )
    got = (
        temporal_reachability(rd.from_pandas(edges), [1], t0=0,
                              num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    assert dict(zip(got["vertex_id"], got["arrival"])) == {1: 0, 2: 5, 4: 7}


def test_temporal_reachability_matches_replay_and_invariance():
    from flashray.datapipe.temporal import temporal_reachability

    rng = np.random.default_rng(47)
    n = 90
    edges = pd.DataFrame(
        {
            "src": rng.integers(0, 15, n).astype(np.int64),
            "dst": rng.integers(0, 15, n).astype(np.int64),
            "t": rng.integers(0, 8, n).astype(np.int64),
        }
    )
    edges = edges[edges["src"] != edges["dst"]].reset_index(drop=True)
    seeds = [0, 7]
    got = (
        temporal_reachability(rd.from_pandas(edges), seeds, t0=4,
                              num_buckets=8)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    want = _reach_oracle(
        list(edges[["src", "dst", "t"]].itertuples(index=False)), seeds, 4
    )
    assert dict(zip(got["vertex_id"], got["arrival"])) == want
    got2 = (
        temporal_reachability(
            rd.from_pandas(edges).repartition(5), seeds, t0=4,
            num_buckets=4,
        )
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)


def test_temporal_reachability_local_distributed_agree(pin_route):
    from flashray.datapipe.temporal import temporal_reachability

    rng = np.random.default_rng(53)
    edges = pd.DataFrame(
        {
            "src": rng.integers(0, 12, 70).astype(np.int64),
            "dst": rng.integers(0, 12, 70).astype(np.int64),
            "t": rng.integers(0, 6, 70).astype(np.int64),
        }
    )
    edges = edges[edges["src"] != edges["dst"]].reset_index(drop=True)
    loc = (
        temporal_reachability(rd.from_pandas(edges), [3], t0=1)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pin_route("distributed")
    dist = (
        temporal_reachability(rd.from_pandas(edges), [3], t0=1, num_buckets=4)
        .to_pandas().sort_values("vertex_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(loc, dist)


def test_temporal_reachability_int64_exact_above_2_53(pin_route):
    """Arrival times above 2^53 must survive the distributed merge
    bit-exactly (a float64 round-trip would corrupt them)."""
    from flashray.datapipe.temporal import temporal_reachability

    base = np.int64(2**62)
    # 1 -> 2 at base+3, 2 -> 3 at base+5, 1 -> 3 at base+9 (worse)
    edges = pd.DataFrame(
        {
            "src": np.array([1, 2, 1], dtype=np.int64),
            "dst": np.array([2, 3, 3], dtype=np.int64),
            "t": base + np.array([3, 5, 9], dtype=np.int64),
        }
    )
    want = {1: int(base), 2: int(base) + 3, 3: int(base) + 5}
    for route, kw in (("local", {}), ("distributed", {"num_buckets": 3})):
        pin_route(route)
        out = (
            temporal_reachability(
                rd.from_pandas(edges), [1], t0=int(base), **kw
            )
            .to_pandas().sort_values("vertex_id").reset_index(drop=True)
        )
        got = dict(zip(out["vertex_id"], out["arrival"]))
        assert {int(k): int(v) for k, v in got.items()} == want, kw


def test_rate_anomalies_spike_detection_and_invariance():
    from flashray.datapipe.temporal import rate_anomalies

    rng = np.random.default_rng(59)
    # steady background: ~5 click events per hour over 48 hours,
    # one planted 60-event spike in hour 20
    rows = []
    base = pd.Timestamp("2024-01-01").value // 1000
    for h in range(48):
        k = 60 if h == 20 else int(rng.integers(3, 8))
        for i in range(k):
            rows.append(("click", base + h * 3_600_000_000 + i * 1000))
    for h in range(48):  # a steady second type, no spikes
        rows.append(("view", base + h * 3_600_000_000 + 5))
    df = pd.DataFrame(rows, columns=["event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"], unit="us")
    got = (
        rate_anomalies(rd.from_pandas(df), z_thresh=3.0, num_buckets=4)
        .to_pandas()
        .sort_values(["event_type", "window"])
        .reset_index(drop=True)
    )
    spikes = got[got["is_anomaly"] == 1]
    assert len(spikes) == 1
    assert spikes.iloc[0]["event_type"] == "click"
    assert spikes.iloc[0]["n"] == 60
    # constant-rate type: sigma=0 -> z=0 everywhere
    assert (got[got["event_type"] == "view"]["z"] == 0).all()
    # exact python replay
    cc = (
        df.assign(w=df["ts"].astype("datetime64[us]").astype("int64")
                  // 3_600_000_000)
        .groupby(["event_type", "w"]).size().rename("n").reset_index()
    )
    for et, grp in cc.groupby("event_type"):
        n = grp["n"].to_numpy(np.int64)
        mu = n.sum() / len(n)
        var = (n * n).sum() / len(n) - mu * mu
        sig = np.sqrt(max(var, 0.0))
        z = np.round((n - mu) / sig, 6) if sig > 0 else np.zeros(len(n))
        sub = got[got["event_type"] == et].sort_values("window")
        assert np.allclose(sub["z"].to_numpy(), z, atol=0)
    got2 = (
        rate_anomalies(rd.from_pandas(df).repartition(9), z_thresh=3.0,
                       num_buckets=16)
        .to_pandas()
        .sort_values(["event_type", "window"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)


def test_per_user_ops_hot_user_skew():
    """One user owns half the stream: the per-user bucket partitioning
    assumption (a key's rows fit one task) must still produce exact
    results — the documented skew regime of every per-key operator."""
    from flashray.datapipe.temporal import event_transitions, session_paths

    rng = np.random.default_rng(73)
    n = 800
    users = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 40, n))
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": users.astype(np.int64),
            "event_type": np.array(list("abcd"))[rng.integers(0, 4, n)],
            "ts": pd.to_datetime(
                rng.integers(0, 100, n) * 1_000_000, unit="us"
            ),
        }
    )
    got = (
        event_transitions(rd.from_pandas(df), num_buckets=8)
        .to_pandas()
        .sort_values(["from_type", "to_type"])
        .reset_index(drop=True)
    )
    want = _transitions_oracle(df)
    pd.testing.assert_frame_equal(got, want, check_exact=False, rtol=1e-12)

    a = session_paths(rd.from_pandas(df), gap_us=10_000_000, k=12,
                      num_buckets=4)
    b = session_paths(rd.from_pandas(df).repartition(11),
                      gap_us=10_000_000, k=12, num_buckets=16)
    pd.testing.assert_frame_equal(a, b)


def test_session_cooccurrence_matches_bruteforce():
    from flashray.datapipe.temporal import session_cooccurrence

    df = _rand_events(79, n=500, users=15, types=5)
    got = (
        session_cooccurrence(rd.from_pandas(df), gap_us=8_000_000,
                             num_buckets=8)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    # brute force: sessionize per user, distinct types per session
    g = df.sort_values(["user_id", "ts", "event_id"])
    sessions = []
    for _, grp in g.groupby("user_id"):
        ts = grp["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cur = set()
        prev = None
        for i in range(len(grp)):
            if prev is not None and ts[i] - prev > 8_000_000:
                sessions.append(cur); cur = set()
            cur.add(grp["event_type"].iloc[i]); prev = ts[i]
        sessions.append(cur)
    N = len(sessions)
    from collections import Counter
    na = Counter(); nab = Counter()
    for s in sessions:
        for t in s:
            na[t] += 1
        ss = sorted(s)
        for i in range(len(ss)):
            for jx in range(i + 1, len(ss)):
                nab[(ss[i], ss[jx])] += 1
    assert len(got) == len(nab)
    for _, r in got.iterrows():
        key = (r["a"], r["b"])
        assert r["n_ab"] == nab[key]
        assert r["n_a"] == na[r["a"]] and r["n_b"] == na[r["b"]]
        assert abs(r["support"] - round(nab[key] * 1.0 / N, 6)) < 1e-12
        assert abs(
            r["lift"]
            - round(nab[key] * 1.0 * N / (na[r["a"]] * 1.0 * na[r["b"]]), 6)
        ) < 1e-12


def test_session_cooccurrence_partition_invariant():
    from flashray.datapipe.temporal import session_cooccurrence

    df = _rand_events(97, n=300, users=9, types=4)
    a = (
        session_cooccurrence(rd.from_pandas(df), gap_us=5_000_000,
                             num_buckets=4)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    b = (
        session_cooccurrence(rd.from_pandas(df).repartition(7),
                             gap_us=5_000_000, num_buckets=16)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_interevent_stats_matches_replay():
    from flashray.datapipe.temporal import interevent_stats

    df = _rand_events(101, n=600, users=13, types=4)
    got = (
        interevent_stats(rd.from_pandas(df), num_buckets=8)
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    g = df.sort_values(["user_id", "event_type", "ts", "event_id"])
    t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    u = g["user_id"].to_numpy()
    e = g["event_type"].to_numpy()
    same = (u[1:] == u[:-1]) & (e[1:] == e[:-1])
    gaps = pd.DataFrame(
        {"et": e[1:][same], "gap": ((t[1:] - t[:-1]) // 1_000_000)[same]}
    )
    for et, grp in gaps.groupby("et"):
        x = grp["gap"].to_numpy(np.int64)
        mu = x.sum() / len(x)
        sig = np.sqrt(max((x * x).sum() / len(x) - mu * mu, 0.0))
        row = got[got["event_type"] == et].iloc[0]
        assert row["n_gaps"] == len(x)
        assert abs(row["mean_gap_s"] - round(mu, 6)) < 1e-9
        assert abs(row["std_gap_s"] - round(sig, 6)) < 1e-9
        b = (sig - mu) / (sig + mu) if sig + mu > 0 else 0.0
        assert abs(row["burstiness"] - round(b, 6)) < 1e-9
    got2 = (
        interevent_stats(rd.from_pandas(df).repartition(9), num_buckets=16)
        .to_pandas().sort_values("event_type").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got2)
