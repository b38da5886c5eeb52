"""Temporal joins Ray Data lacks natively: as-of join and range join.

Both reuse the bucketed co-partitioning plumbing from
``flashray.joins._tagged_union``: ONE hash shuffle of the tagged union on
the equality keys, then a vectorized per-bucket merge. Partitioning
assumption (same as every per-key operator here): all rows of one
equality key land in one bucket, so a single key's rows must fit one
task — raise ``num_buckets`` with key cardinality and salt upstream only
if a single key itself outgrows a task.

- ``asof_join``: for each left row, the single right row with the same
  key and the nearest timestamp at or before it (``direction=
  "backward"``, the DuckDB/pandas default), at or after it
  (``"forward"``), or closest either way (``"nearest"``); per-bucket
  ``pandas.merge_asof`` (C mergesort scan, no cartesian blow-up).
- ``range_join``: left rows carry an interval ``[start, end)``; emit
  every (left, right) pair of the same key with the right timestamp
  inside the interval. Per-bucket composite-key ``searchsorted`` —
  output-linear, never a per-key cartesian product — with a per-key
  sliced fallback when the composite would overflow int64.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.joins import _map_buckets, _tagged_union, bucket_map


def _typed_empty(cols: list[tuple[str, pa.DataType]]) -> pd.DataFrame:
    """Empty pandas frame with the union schema's dtypes, so empty buckets
    emit typed blocks (untyped empties trigger Ray schema-drift warnings
    and can poison a later unify)."""
    return pa.table(
        {c: pa.array([], type=t) for c, t in cols}
    ).to_pandas()


def _restore_int_dtypes(
    df: pd.DataFrame, all_cols: list[tuple[str, pa.DataType]]
) -> pd.DataFrame:
    # a left/outer merge nulls missing right columns, which floats int64 in
    # pandas; restore exact dtypes wherever no nulls survived (63-bit ids
    # corrupt beyond 2^53 as float64)
    for c, typ in all_cols:
        if c in df.columns and pa.types.is_integer(typ):
            col = df[c]
            if col.dtype != np.int64 and not col.isna().any():
                df[c] = col.astype(np.int64)
    return df


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: list[str],
    left_ts: str,
    right_ts: str | None = None,
    direction: str = "backward",
    tolerance=None,
    how: str = "inner",
    num_buckets: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed as-of join (DuckDB ``ASOF JOIN`` / pandas
    ``merge_asof`` semantics), keyed on ``on`` equality.

    ``how="inner"`` (DuckDB's ASOF default) drops unmatched left rows;
    ``how="left"`` keeps them with nulls. ``tolerance`` (a
    ``pd.Timedelta`` or numeric) filters the matched row — it never falls
    back to a farther one, matching pandas. Ties on equal right
    timestamps resolve to the row latest in ``(key, ts)`` sort order;
    pre-aggregate the right side to one row per (key, ts) when you need a
    value-deterministic answer (the oracle queries do).
    """
    on = list(on)
    rts_in = right_ts if right_ts is not None else left_ts
    both, ctx = _tagged_union(
        left,
        right,
        on,
        on,
        num_buckets=num_buckets,
        suffixes=suffixes,
        left_schema=left_schema,
        right_schema=right_schema,
    )
    rkeys, lout, rout = ctx["rkeys"], ctx["lout"], ctx["rout"]
    all_cols = ctx["all_cols"]
    rts = ctx["ren"].get(rts_in, rts_in)
    if rts not in rout:
        raise ValueError(
            f"right_ts column {rts_in!r} not found on the right side"
        )
    out_cols = lout + rout

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["__side"] == 0, lout]
        rg = g.loc[g["__side"] == 1, rout + [k for k in rkeys if k not in rout]]
        if lg.empty:
            return _typed_empty(all_cols)[out_cols]
        if rg.empty:
            if how == "inner":
                return _typed_empty(all_cols)[out_cols]
            # all-null right columns, typed the same way merge_asof types
            # unmatched rows in non-empty buckets (NaT / NaN / None)
            out = lg.copy()
            for c, t in all_cols:
                if c in rout:
                    if pa.types.is_timestamp(t):
                        out[c] = np.full(len(out), np.datetime64("NaT"), "M8[us]")
                    elif pa.types.is_string(t) or pa.types.is_binary(t):
                        out[c] = pd.Series([None] * len(out), index=out.index,
                                           dtype=object)
                    else:
                        out[c] = np.full(len(out), np.nan)
            return out[out_cols]
        # merge_asof requires both frames sorted on the time key
        lg = lg.sort_values(left_ts, kind="mergesort")
        rg = rg.sort_values(rts, kind="mergesort")
        rg = rg.assign(__matched=np.int8(1))
        out = pd.merge_asof(
            lg,
            rg,
            left_on=left_ts,
            right_on=rts,
            left_by=on,
            right_by=rkeys,
            direction=direction,
            tolerance=tolerance,
        )
        if how == "inner":
            out = out[out["__matched"].notna()]
        out = out.drop(columns="__matched")
        return _restore_int_dtypes(out, all_cols)[out_cols]

    return _map_buckets(both, merge)


def _ts_int64(col: pd.Series) -> np.ndarray:
    """Timestamps/numerics as comparable int64. datetime64 columns are
    normalized to ONE unit (ns) first: the two sides of a join routinely
    arrive with different resolutions (parquet us vs pandas-derived ns),
    and raw .astype(int64) would compare epoch-us against epoch-ns."""
    v = col.to_numpy()
    if np.issubdtype(v.dtype, np.datetime64):
        return v.astype("datetime64[ns]").astype("int64")
    return v.astype("int64", copy=False)


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: list[str],
    left_start: str,
    left_end: str,
    right_ts: str,
    closed: str = "left",
    num_buckets: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Distributed interval×point range join: inner-join every left row
    whose ``[left_start, left_end)`` interval (``closed`` = "left",
    "both", "right" or "neither") contains a same-key right row's
    ``right_ts``.

    Per bucket: jointly code the key tuples (C groupby), sort the right
    side by (key code, ts), and binary-search both interval bounds for
    ALL left rows at once on a composite ``code*span + (ts-min)`` int64
    key — two ``np.searchsorted`` calls per bucket, output-linear pair
    expansion via repeat/cumsum, no per-key cartesian product. When
    ``codes*span`` would overflow int64 (astronomical key-cardinality ×
    time-span products), falls back to a per-key sliced search that is
    still row-vectorized inside each key.
    """
    on = list(on)
    both, ctx = _tagged_union(
        left,
        right,
        on,
        on,
        num_buckets=num_buckets,
        suffixes=suffixes,
        left_schema=left_schema,
        right_schema=right_schema,
    )
    rkeys, lout, rout = ctx["rkeys"], ctx["lout"], ctx["rout"]
    all_cols = ctx["all_cols"]
    rts = ctx["ren"].get(right_ts, right_ts)
    if rts not in rout:
        raise ValueError(f"right_ts column {right_ts!r} not found on the right side")
    if closed not in ("left", "both", "right", "neither"):
        raise ValueError(f"closed must be left|both|right|neither, got {closed!r}")
    out_cols = lout + rout
    lo_side = "left" if closed in ("left", "both") else "right"
    hi_side = "right" if closed in ("both", "right") else "left"

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g.loc[g["__side"] == 0, lout].reset_index(drop=True)
        rg = g.loc[g["__side"] == 1, rout + [k for k in rkeys if k not in rout]]
        rg = rg.reset_index(drop=True)
        if lg.empty or rg.empty:
            return _typed_empty(all_cols)[out_cols]
        # joint key coding across both sides (same tuple -> same code)
        combined = pd.concat(
            [lg[on], rg[rkeys].set_axis(on, axis=1)], ignore_index=True
        )
        codes = combined.groupby(on, sort=False).ngroup().to_numpy()
        lcode, rcode = codes[: len(lg)], codes[len(lg):]

        r_ts = _ts_int64(rg[rts])
        order = np.lexsort((r_ts, rcode))
        rcode_s, rts_s = rcode[order], r_ts[order]

        start = _ts_int64(lg[left_start])
        end = _ts_int64(lg[left_end])
        tmin = int(rts_s.min())
        span = int(rts_s.max()) - tmin + 2  # +2: headroom for clipped bounds
        ncodes = int(codes.max()) + 1
        if ncodes * span < np.iinfo(np.int64).max // 2:
            comp = rcode_s * span + (rts_s - tmin)
            # right offsets live in [0, span-2]; clipping bounds into
            # [-1, span-1] keeps out-of-range bounds semantically exact for
            # EITHER searchsorted side: code*span - 1 sits strictly between
            # adjacent code slices, code*span + span-1 strictly after the
            # slice's last value
            s_off = np.clip(start - tmin, -1, span - 1)
            e_off = np.clip(end - tmin, -1, span - 1)
            lo = np.searchsorted(comp, lcode * span + s_off, side=lo_side)
            hi = np.searchsorted(comp, lcode * span + e_off, side=hi_side)
        else:  # pragma: no cover - astronomical span fallback
            gstart = np.searchsorted(rcode_s, lcode, side="left")
            gend = np.searchsorted(rcode_s, lcode, side="right")
            lo = np.empty(len(lg), dtype=np.int64)
            hi = np.empty(len(lg), dtype=np.int64)
            for c in np.unique(lcode):
                m = lcode == c
                gs, ge = int(gstart[np.argmax(m)]), int(gend[np.argmax(m)])
                sl = rts_s[gs:ge]
                lo[m] = gs + np.searchsorted(sl, start[m], side=lo_side)
                hi[m] = gs + np.searchsorted(sl, end[m], side=hi_side)
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return _typed_empty(all_cols)[out_cols]
        lidx = np.repeat(np.arange(len(lg)), counts)
        offsets = np.r_[0, np.cumsum(counts)[:-1]]
        ridx = np.arange(total) - offsets[lidx] + lo[lidx]
        out = pd.concat(
            [
                lg.iloc[lidx].reset_index(drop=True),
                rg.iloc[order[ridx]][rout].reset_index(drop=True),
            ],
            axis=1,
        )
        return _restore_int_dtypes(out, all_cols)[out_cols]

    return _map_buckets(both, merge)


def funnel_counts(
    events: ray.data.Dataset,
    steps: list[str],
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Ordered-funnel completion counts over an event stream: a user
    completes step i when an event of type ``steps[i]`` exists STRICTLY
    after their step-(i−1) completion time, completion time being the
    EARLIEST such event — the greedy earliest-completion rule (the
    standard product-analytics funnel semantics, and deterministic:
    ties on the completion time itself don't matter because only the
    min timestamp survives). Returns pd.DataFrame (step 1..K int64,
    users int64) — K driver scalars.

    Dataflow: per step, ONE hash-partitioned join of that step's
    single-type event subset against the previous completion table
    (one row per surviving user) + ONE bucket min-aggregate with
    map-side partial mins — O(K) shuffles, each over a type-filtered
    slice; nothing user-level ever reaches the driver."""
    import pyarrow.compute as pc

    from flashray.joins import bucket_group_agg, bucket_hash_join

    comp_schema = pa.schema(
        [(user_col, pa.int64()), ("t_prev", pa.timestamp("us"))]
    )

    def type_slice(step: str) -> ray.data.Dataset:
        def f(b: pa.Table) -> pa.Table:
            out = b.filter(pc.equal(b[type_col], step))
            return pa.table(
                {
                    user_col: out[user_col].cast(pa.int64()),
                    ts_col: out[ts_col].cast(pa.timestamp("us")),
                }
            )

        return events.map_batches(f, batch_format="pyarrow")

    def premin(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(user_col, as_index=False).agg(
            t_prev=(ts_col, "min")
        )

    counts: list[int] = []
    cur = None
    for step in steps:
        sl = type_slice(step)
        if cur is None:
            nxt = bucket_group_agg(
                sl.map_batches(premin, batch_format="pandas"),
                [user_col],
                {"t_prev": ("t_prev", "min")},
                num_buckets=num_buckets,
            )
        else:
            j = bucket_hash_join(
                sl,
                cur,
                [user_col],
                num_buckets=num_buckets,
                left_schema=pa.schema(
                    [(user_col, pa.int64()), (ts_col, pa.timestamp("us"))]
                ),
                right_schema=comp_schema,
            )

            def after_prev(df: pd.DataFrame) -> pd.DataFrame:
                out = df[df[ts_col] > df["t_prev"]]
                if not len(out):
                    return _typed_empty(
                        [(user_col, pa.int64()),
                         ("t_prev", pa.timestamp("us"))]
                    )
                return (
                    out.groupby(user_col, as_index=False)
                    .agg(t_new=(ts_col, "min"))
                    .rename(columns={"t_new": "t_prev"})
                )

            nxt = bucket_group_agg(
                j.map_batches(after_prev, batch_format="pandas"),
                [user_col],
                {"t_prev": ("t_prev", "min")},
                num_buckets=num_buckets,
            )
        cur = nxt.materialize()
        counts.append(cur.count())

    return pd.DataFrame(
        {
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "users": np.array(counts, dtype=np.int64),
        }
    )


def cohort_retention(
    events: ray.data.Dataset,
    *,
    period_us: int = 7 * 24 * 3600 * 1_000_000,
    ts_col: str = "ts",
    user_col: str = "user_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Cohort retention matrix: users are cohorted by the period (week by
    default) of their FIRST event; for every (cohort, week_offset ≥ 0)
    cell, the number of cohort members active in that later period.
    Returns Dataset (cohort, week_offset, users) — cells, not users.

    Period ids are integer-microsecond floor divisions
    (``epoch_us // period_us``), so a SQL replay using ``epoch_us`` is
    bit-identical — float ``epoch()`` seconds can flip a user across a
    period boundary at the 100 ns scale.

    Dataflow: one bucket min-aggregate for first-events (map-side
    per-batch mins), one bucket dedup of (user, active-period) pairs
    (map-side distinct per batch), one hash join + a final (cohort,
    offset) bucket aggregate over map-side partial counts — the output
    is O(periods²) cells regardless of user count."""
    from flashray.joins import bucket_group_agg, bucket_hash_join

    def first_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                user_col: df[user_col].to_numpy().astype(np.int64),
                # unit-explicit: a datetime64[ns] input (e.g. from_pandas)
                # must land on the same microsecond ids as parquet's [us]
                "first_us": df[ts_col]
                .to_numpy(dtype="datetime64[us]")
                .astype(np.int64),
            }
        )
        return d.groupby(user_col, as_index=False).agg(
            first_us=("first_us", "min")
        )

    firsts = bucket_group_agg(
        events.map_batches(first_partial, batch_format="pandas"),
        [user_col],
        {"first_us": ("first_us", "min")},
        num_buckets=num_buckets,
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                user_col: df[user_col].to_numpy(dtype=np.int64),
                "cohort": df["first_us"].to_numpy(dtype=np.int64)
                // period_us,
            }
        ),
        batch_format="pandas",
    )

    def active_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                user_col: df[user_col].to_numpy().astype(np.int64),
                "wk": df[ts_col]
                .to_numpy(dtype="datetime64[us]")
                .astype(np.int64)
                // period_us,
            }
        )
        return d.drop_duplicates()

    active = bucket_group_agg(
        events.map_batches(active_partial, batch_format="pandas"),
        [user_col, "wk"],
        {"n": ("wk", "size")},
        num_buckets=num_buckets,
    )

    j = bucket_hash_join(
        active,
        firsts,
        [user_col],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [(user_col, pa.int64()), ("wk", pa.int64()), ("n", pa.int64())]
        ),
        right_schema=pa.schema(
            [(user_col, pa.int64()), ("cohort", pa.int64())]
        ),
    )

    def cell_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "cohort": df["cohort"].to_numpy(dtype=np.int64),
                "week_offset": df["wk"].to_numpy(dtype=np.int64)
                - df["cohort"].to_numpy(dtype=np.int64),
                "users": np.ones(len(df), dtype=np.int64),
            }
        )
        return d.groupby(["cohort", "week_offset"], as_index=False).agg(
            users=("users", "sum")
        )

    return bucket_group_agg(
        j.map_batches(cell_partial, batch_format="pandas"),
        ["cohort", "week_offset"],
        {"users": ("users", "sum")},
        num_buckets=num_buckets,
    )


def _event_projection(ts_col, user_col, type_col, id_col):
    """Batch fn projecting events to (user int64, ``__ts_us`` int64 µs,
    id int64, type string), the per-user sequence input."""

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                user_col: b[user_col].cast(pa.int64()),
                "__ts_us": b[ts_col].cast(pa.timestamp("us")).cast(pa.int64()),
                id_col: b[id_col].cast(pa.int64()),
                type_col: b[type_col].cast(pa.string()),
            }
        )

    return project


def event_transitions(
    events: ray.data.Dataset,
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    id_col: str = "event_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """First-order Markov transition counts/probabilities between event
    types: for every user, order their events by ``(ts, id)`` (the id
    column makes equal-timestamp ordering deterministic — SQL's
    ``LEAD() OVER (PARTITION BY user ORDER BY ts, id)`` replays it
    exactly), take each consecutive pair, and aggregate globally to one
    row per observed ``(from_type, to_type)`` with the transition count
    and row-normalized probability ``n / Σ_to n``. Returns a Dataset
    (from_type, to_type, n int64, prob float64) — O(|types|²) rows
    regardless of event count (the standard behavioral "what happens
    next" matrix / Markov-chain estimate).

    Dataflow: ONE hash shuffle on ``user_col`` (the per-key partitioning
    assumption shared with every per-key operator here: one user's
    events fit one task), per-bucket vectorized sort + shift forms the
    pairs and pre-counts them (one partial row per distinct pair per
    bucket — hub users never ship raw pairs), then one tiny bucket
    aggregate over the partials and one row-sum join compute the
    probabilities. Nothing user-level reaches the driver."""
    from flashray.joins import bucket_group_agg, bucket_hash_join

    project = _event_projection(ts_col, user_col, type_col, id_col)

    pair_cols = [
        ("from_type", pa.string()),
        ("to_type", pa.string()),
        ("n", pa.int64()),
    ]

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, "__ts_us", id_col], kind="mergesort")
        u = g[user_col].to_numpy()
        t = g[type_col].to_numpy()
        same = u[:-1] == u[1:]
        if not same.any():
            return _typed_empty(pair_cols)
        d = pd.DataFrame(
            {"from_type": t[:-1][same], "to_type": t[1:][same]}
        )
        vc = d.value_counts()
        out = vc.index.to_frame(index=False)
        out["n"] = vc.to_numpy().astype(np.int64)
        return out

    partials = bucket_map(
        events.map_batches(project, batch_format="pyarrow"),
        [user_col],
        pairs_of_bucket,
        num_buckets=num_buckets,
    )
    counts = bucket_group_agg(
        partials, ["from_type", "to_type"], {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )
    totals = bucket_group_agg(
        counts, ["from_type"], {"s": ("n", "sum")}, num_buckets=num_buckets,
    )
    sch = pa.schema(pair_cols)
    tot_sch = pa.schema([("from_type", pa.string()), ("s", pa.int64())])
    j = bucket_hash_join(
        counts, totals, ["from_type"],
        num_buckets=num_buckets, left_schema=sch, right_schema=tot_sch,
    )

    def prob(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "from_type": df["from_type"].to_numpy(),
                "to_type": df["to_type"].to_numpy(),
                "n": n,
                "prob": n / df["s"].to_numpy(dtype=np.int64),
            }
        )

    return j.map_batches(prob, batch_format="pandas")


def session_paths(
    events: ray.data.Dataset,
    *,
    gap_us: int = 30 * 60 * 1_000_000,
    max_len: int = 10,
    k: int = 20,
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    id_col: str = "event_id",
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Top-k session paths: per user, events split into sessions at idle
    gaps > ``gap_us``; each session's path is the ``'>'``-joined sequence
    of its first ``max_len`` event types in (ts, id) order; paths are
    counted globally and the k most frequent returned (count desc, path
    asc tie-break — SQL-replayable with windowed session ids +
    ``string_agg``). The standard clickstream / product-analytics
    "what do sessions look like" mining step. Returns pd.DataFrame
    (path, n) — k driver rows.

    Dataflow: ONE hash shuffle on the user (per-key partitioning
    assumption as everywhere), per-bucket vectorized sessionization
    (sorted diff → break flags → cumsum session ids → cumcount trim)
    with map-side per-bucket path pre-counts (one row per distinct path
    per bucket), one tiny bucket aggregate, one sort+limit. The
    per-session string join is O(sessions) like any tokenize step."""
    from flashray.joins import bucket_group_agg

    project = _event_projection(ts_col, user_col, type_col, id_col)

    path_cols = [("path", pa.string()), ("n", pa.int64())]

    def paths_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _typed_empty(path_cols)
        g = g.sort_values([user_col, "__ts_us", id_col], kind="mergesort")
        u = g[user_col].to_numpy()
        t = g["__ts_us"].to_numpy()
        brk = np.ones(len(g), dtype=np.int64)
        same = u[1:] == u[:-1]
        brk[1:] = np.where(same & (t[1:] - t[:-1] <= gap_us), 0, 1)
        sid = np.cumsum(brk)  # global session id within the bucket
        d = pd.DataFrame({"sid": sid, "et": g[type_col].to_numpy()})
        d = d[d.groupby("sid").cumcount() < max_len]
        paths = d.groupby("sid")["et"].agg(">".join)
        vc = paths.value_counts()
        return pd.DataFrame(
            {"path": vc.index.to_numpy(), "n": vc.to_numpy().astype(np.int64)}
        )

    partials = bucket_map(
        events.map_batches(project, batch_format="pyarrow"),
        [user_col],
        paths_of_bucket,
        num_buckets=num_buckets,
    )
    counts = bucket_group_agg(
        partials, ["path"], {"n": ("n", "sum")}, num_buckets=num_buckets
    )

    def neg(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__negn"] = -df["n"].to_numpy(dtype=np.int64)
        return df

    out = (
        counts.map_batches(neg, batch_format="pandas")
        .sort(["__negn", "path"])
        .limit(k)
        .to_pandas()
    )
    out = out.drop(columns=["__negn"])
    out["n"] = out["n"].astype(np.int64)
    return out.reset_index(drop=True)


def decayed_user_scores(
    events: ray.data.Dataset,
    *,
    ref_ts,
    half_life_us: int = 24 * 3600 * 1_000_000,
    ts_col: str = "ts",
    user_col: str = "user_id",
    value_col: str = "value",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Exponentially time-decayed per-user activity score anchored at
    ``ref_ts``: ``score(u) = Σ_i value_i · 2^(−(ref − t_i)/half_life)``
    — the standard recency-weighted engagement / freshness signal.
    Because every term is independent, the whole operator is ONE
    streaming pass of map-side per-user partial sums + one tiny bucket
    aggregate — no sort, no sessionization, O(users) output.

    Determinism: each term is quantized to integer NANOUNITS
    (``rint(term·1e9)``) and summed in int64, so the result is
    bit-identical under ANY partitioning/batching (float partial sums
    would re-associate), and a SQL replay summing the same rounded
    terms agrees; the 2^x itself is libm pow on both engines (the
    repo-wide accepted 1-ulp surface, buried three decimal digits below
    the nanounit quantum in practice). Returns (user_id, score) with
    score = nanounits/1e9."""
    from flashray.joins import bucket_group_agg

    ref_us = int(pd.Timestamp(ref_ts).value // 1000)
    hl = float(half_life_us)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        v = df[value_col].to_numpy(dtype=np.float64)
        w = np.power(2.0, -((ref_us - t) / hl))
        nano = np.rint(v * w * 1e9).astype(np.int64)
        d = pd.DataFrame(
            {user_col: df[user_col].to_numpy().astype(np.int64),
             "nano": nano}
        )
        return d.groupby(user_col, as_index=False).agg(nano=("nano", "sum"))

    agg = bucket_group_agg(
        events.map_batches(partial, batch_format="pandas"),
        [user_col],
        {"nano": ("nano", "sum")},
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                user_col: df[user_col].to_numpy(dtype=np.int64),
                "score": df["nano"].to_numpy(dtype=np.int64) / 1e9,
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def temporal_reachability(
    edges: ray.data.Dataset,
    seeds: list[int],
    *,
    t0: int,
    src_col: str = "src",
    dst_col: str = "dst",
    t_col: str = "t",
    max_rounds: int = 50,
    num_buckets: int = 64,
    local_threshold: int | None = 2_000_000,
) -> ray.data.Dataset:
    """Time-respecting reachability (foremost-journey arrival times) over
    a TEMPORAL edge table (src, dst, t): starting from ``seeds`` at time
    ``t0``, an edge is traversable only at ``t ≥ arrival(src)`` and
    delivers you at time ``t``; ``arrival(v)`` is the EARLIEST such
    time. The temporal-graph primitive behind information-diffusion /
    contact-tracing questions that static reachability gets wrong (a
    path through an edge that fired too early does not exist). Returns
    a Dataset (vertex_id, arrival int64) over reached vertices
    (seeds at t0).

    Dataflow: frontier-based label-correcting rounds — per round ONE
    hash join (frontier ⋈ edges on src, the time filter applied
    in-join) + one per-dst bucket min + one OUTER state merge; work is
    O(frontier-adjacent edges) per round and rounds ≤ the temporal
    diameter (capped by ``max_rounds``). Arrivals are exact integer
    mins — deterministic under any partitioning, recursive-CTE
    SQL-replayable. Label correction can take many short rounds, each
    paying fixed shuffle setup — below ``local_threshold`` edges the
    loop runs in-process on the collected (src, dst, t) arrays with the
    IDENTICAL rule (the repo-wide hybrid routing policy; 0/None forces
    the distributed loop; an agreement test covers both)."""
    from flashray.joins import bucket_group_agg, bucket_hash_join

    I64_ = pa.int64()
    if local_threshold and edges.count() <= local_threshold:
        epd = edges.map_batches(
            lambda b: pa.table(
                {
                    "src": b[src_col].cast(I64_),
                    "dst": b[dst_col].cast(I64_),
                    "t": b[t_col].cast(I64_),
                }
            ),
            batch_format="pyarrow",
        ).to_pandas()
        s = epd["src"].to_numpy()
        d = epd["dst"].to_numpy()
        t = epd["t"].to_numpy()
        verts = np.unique(np.concatenate([s, d, np.asarray(seeds, np.int64)]))
        idx = {int(v): i for i, v in enumerate(verts)}
        si = np.searchsorted(verts, s)
        di = np.searchsorted(verts, d)
        arr = np.full(len(verts), np.iinfo(np.int64).max, dtype=np.int64)
        for sd in set(seeds):
            arr[idx[int(sd)]] = int(t0)
        while True:  # arr strictly decreases per round -> terminates
            ok = t >= arr[si]
            if not ok.any():
                break
            new = arr.copy()
            np.minimum.at(new, di[ok], t[ok])
            if (new == arr).all():
                break
            arr = new
        m = arr < np.iinfo(np.int64).max
        return ray.data.from_pandas(
            pd.DataFrame({"vertex_id": verts[m], "arrival": arr[m]})
        )

    I64 = pa.int64()
    e_proj = edges.map_batches(
        lambda b: pa.table(
            {
                "src": b[src_col].cast(I64),
                "dst": b[dst_col].cast(I64),
                "t": b[t_col].cast(I64),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    esch = pa.schema([("src", I64), ("dst", I64), ("t", I64)])
    ssch = pa.schema([("vertex_id", I64), ("arrival", I64)])

    init = pd.DataFrame(
        {
            "vertex_id": np.asarray(sorted(set(seeds)), dtype=np.int64),
            "arrival": np.full(len(set(seeds)), int(t0), dtype=np.int64),
        }
    )
    state = ray.data.from_pandas(init).materialize()
    frontier = state

    for _ in range(max_rounds):
        j = bucket_hash_join(
            frontier, e_proj, ["vertex_id"], right_on=["src"],
            num_buckets=num_buckets, left_schema=ssch, right_schema=esch,
        )

        def reach(df: pd.DataFrame) -> pd.DataFrame:
            ok = df[df["t"] >= df["arrival"]]
            if not len(ok):
                return _typed_empty([("vertex_id", I64), ("arrival", I64)])
            d = pd.DataFrame(
                {
                    "vertex_id": ok["dst"].to_numpy(dtype=np.int64),
                    "arrival": ok["t"].to_numpy(dtype=np.int64),
                }
            )
            return d.groupby("vertex_id", as_index=False).agg(
                arrival=("arrival", "min")
            )

        cand = bucket_group_agg(
            j.map_batches(reach, batch_format="pandas"),
            ["vertex_id"],
            {"arrival": ("arrival", "min")},
            num_buckets=num_buckets,
        ).map_batches(
            lambda df: df.rename(columns={"arrival": "cand"}),
            batch_format="pandas",
        )
        # state merge + improvement test in ONE bucket shuffle, int64
        # end-to-end: a tagged union (never a null-padded outer join,
        # whose pandas merge would float int64 arrivals and round values
        # above 2^53) is folded per vertex — new state = min(state,
        # cand), frontier = rows where the candidate strictly improves.
        both = state.map_batches(
            lambda b: b.append_column(
                "__side", pa.array(np.zeros(len(b), dtype=np.int8))
            ),
            batch_format="pyarrow",
        ).union(
            cand.map_batches(
                lambda b: pa.table(
                    {
                        "vertex_id": b["vertex_id"],
                        "arrival": b["cand"],
                        "__side": pa.array(np.ones(len(b), dtype=np.int8)),
                    }
                ),
                batch_format="pyarrow",
            )
        )

        BIG = np.iinfo(np.int64).max

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            old = (
                g.loc[g["__side"] == 0].groupby("vertex_id")["arrival"].min()
            )
            new = (
                g.loc[g["__side"] == 1].groupby("vertex_id")["arrival"].min()
            )
            idx = old.index.union(new.index)
            # reindex with an int64 sentinel keeps the dtype integral
            ov = old.reindex(idx, fill_value=BIG).to_numpy(dtype=np.int64)
            nv = new.reindex(idx, fill_value=BIG).to_numpy(dtype=np.int64)
            return pd.DataFrame(
                {
                    "vertex_id": idx.to_numpy(dtype=np.int64),
                    "arrival": np.minimum(ov, nv),
                    "__imp": (nv < ov).astype(np.int8),
                }
            )

        state = bucket_map(
            both, ["vertex_id"], fold, num_buckets=num_buckets
        ).materialize()
        frontier = state.map_batches(
            lambda df: df.loc[df["__imp"] == 1, ["vertex_id", "arrival"]]
            .astype({"vertex_id": np.int64, "arrival": np.int64}),
            batch_format="pandas",
        ).materialize()
        state = state.map_batches(
            lambda df: df[["vertex_id", "arrival"]], batch_format="pandas"
        ).materialize()
        if frontier.count() == 0:
            break

    return state


def rate_anomalies(
    events: ray.data.Dataset,
    *,
    window_us: int = 3600 * 1_000_000,
    z_thresh: float = 3.0,
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_buckets: int = 64,
    round_dp: int = 6,
) -> ray.data.Dataset:
    """Event-rate anomaly detection: per (event_type, tumbling window)
    counts, z-scored against THAT TYPE's own rate distribution over all
    its windows — the standard traffic-spike / outage monitor. Returns
    a Dataset (event_type, window, n, z, is_anomaly) with z =
    (n − μ_type)/σ_type rounded to ``round_dp`` (population σ; a type
    with a single window or constant rate has σ = 0 and z = 0).

    Exactness: window counts are integers (map-side per-batch partial
    counts + one bucket aggregate — never raw event rows through the
    shuffle), and μ/σ derive from the integer sufficient statistics
    (Σn, Σn², #windows) per type with the same float64 expression tree
    a SQL replay uses (no var_pop — accumulation order differs), so
    results are partition-invariant and oracle-exact. Only OBSERVED
    windows enter the distribution (a type absent from a window
    contributes no zero row — document accordingly)."""
    from flashray.joins import bucket_group_agg, bucket_hash_join

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                type_col: df[type_col].astype(str),
                "window": df[ts_col]
                .to_numpy(dtype="datetime64[us]")
                .astype(np.int64)
                // window_us,
            }
        )
        return d.groupby([type_col, "window"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    counts = bucket_group_agg(
        events.map_batches(partial, batch_format="pandas"),
        [type_col, "window"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        d = pd.DataFrame(
            {
                type_col: df[type_col],
                "s1": n,
                "s2": n * n,
                "c": np.ones(len(n), dtype=np.int64),
            }
        )
        return d.groupby(type_col, as_index=False).agg(
            s1=("s1", "sum"), s2=("s2", "sum"), c=("c", "sum")
        )

    stats = bucket_group_agg(
        counts.map_batches(stat_partial, batch_format="pandas"),
        [type_col],
        {"s1": ("s1", "sum"), "s2": ("s2", "sum"), "c": ("c", "sum")},
        num_buckets=num_buckets,
    )

    tsch = pa.schema(
        [(type_col, pa.string()), ("window", pa.int64()), ("n", pa.int64())]
    )
    ssch = pa.schema(
        [(type_col, pa.string()), ("s1", pa.int64()), ("s2", pa.int64()),
         ("c", pa.int64())]
    )
    j = bucket_hash_join(
        counts, stats, [type_col],
        num_buckets=num_buckets, left_schema=tsch, right_schema=ssch,
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        s1 = df["s1"].to_numpy(dtype=np.int64)
        s2 = df["s2"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        mu = s1 / c
        var = s2 / c - mu * mu
        sig = np.sqrt(np.maximum(var, 0.0))
        z = np.round(
            np.divide(n - mu, sig, out=np.zeros(len(n)), where=sig > 0),
            round_dp,
        )
        return pd.DataFrame(
            {
                type_col: df[type_col].to_numpy(),
                "window": df["window"].to_numpy(dtype=np.int64),
                "n": n,
                "z": z,
                "is_anomaly": (np.abs(z) > z_thresh).astype(np.int64),
            }
        )

    return j.map_batches(score, batch_format="pandas")


def session_cooccurrence(
    events: ray.data.Dataset,
    *,
    gap_us: int = 30 * 60 * 1_000_000,
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    id_col: str = "event_id",
    num_buckets: int = 64,
    round_dp: int = 6,
) -> ray.data.Dataset:
    """Market-basket association metrics over sessions (baskets =
    gap-based sessions, items = distinct event types): for every type
    pair a < b, the number of sessions containing both (``n_ab``), each
    (``n_a``, ``n_b``), plus ``support = n_ab/N`` and ``lift =
    n_ab·N/(n_a·n_b)`` (> 1 ⇒ the types co-occur more than chance — the
    classic association-rule screen). Returns a Dataset
    (a, b, n_ab, n_a, n_b, support, lift) — O(|types|²) rows.

    Dataflow: ONE per-user hash shuffle sessionizes in-bucket (sessions
    never span buckets — a user's rows are co-located), distinct
    (session, type) rows pair through the vectorized
    ``pairs_within_groups`` expansion with MAP-SIDE pre-counts, and
    pair/type/total partials ride ONE tagged union into a single bucket
    aggregate; the final metrics attach the (tiny) per-type counts with
    two hash joins. Exact integer counts ⇒ partition-invariant;
    support/lift are one rounded division each."""
    from flashray.joins import (
        bucket_group_agg,
        bucket_hash_join,
        pairs_within_groups,
    )

    project = _event_projection(ts_col, user_col, type_col, id_col)

    part_cols = [
        ("kind", pa.string()), ("a", pa.string()), ("b", pa.string()),
        ("n", pa.int64()),
    ]

    def partials_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _typed_empty(part_cols)
        g = g.sort_values([user_col, "__ts_us", id_col], kind="mergesort")
        u = g[user_col].to_numpy()
        t = g["__ts_us"].to_numpy()
        brk = np.ones(len(g), dtype=np.int64)
        same = u[1:] == u[:-1]
        brk[1:] = np.where(same & (t[1:] - t[:-1] <= gap_us), 0, 1)
        sid = np.cumsum(brk)
        d = pd.DataFrame(
            {"sid": sid, "et": g[type_col].to_numpy()}
        ).drop_duplicates()
        n_sessions = int(d["sid"].nunique())
        tu, tcodes = np.unique(d["et"].to_numpy(), return_inverse=True)
        order = np.lexsort((tcodes, d["sid"].to_numpy()))
        scodes = d["sid"].to_numpy()[order]
        tcodes = tcodes[order]
        pa_, pb_, _ = pairs_within_groups(scodes, tcodes)
        out = [
            pd.DataFrame(
                {"kind": "n", "a": [""], "b": [""],
                 "n": np.array([n_sessions], dtype=np.int64)}
            )
        ]
        tvc = d["et"].value_counts()
        out.append(
            pd.DataFrame(
                {"kind": "t", "a": tvc.index.to_numpy(), "b": "",
                 "n": tvc.to_numpy().astype(np.int64)}
            )
        )
        if len(pa_):
            pvc = pd.DataFrame(
                {"a": tu[pa_], "b": tu[pb_]}
            ).value_counts()
            pf = pvc.index.to_frame(index=False)
            pf.insert(0, "kind", "p")
            pf["n"] = pvc.to_numpy().astype(np.int64)
            out.append(pf)
        return pd.concat(out, ignore_index=True)

    agg = bucket_group_agg(
        bucket_map(
            events.map_batches(project, batch_format="pyarrow"),
            [user_col],
            partials_of_bucket,
            num_buckets=num_buckets,
        ),
        ["kind", "a", "b"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    N = int(
        agg.map_batches(
            lambda df: df[df["kind"] == "n"][["n"]], batch_format="pandas"
        ).sum("n")
        or 0
    )
    types = agg.map_batches(
        lambda df: df[df["kind"] == "t"][["a", "n"]].rename(
            columns={"n": "cnt"}
        ),
        batch_format="pandas",
    )
    pairs = agg.map_batches(
        lambda df: df[df["kind"] == "p"][["a", "b", "n"]].rename(
            columns={"n": "n_ab"}
        ),
        batch_format="pandas",
    )
    S = pa.string()
    psch = pa.schema([("a", S), ("b", S), ("n_ab", pa.int64())])
    tsch = pa.schema([("a", S), ("cnt", pa.int64())])
    j = bucket_hash_join(
        pairs, types, ["a"], num_buckets=num_buckets,
        left_schema=psch, right_schema=tsch,
    ).map_batches(
        lambda df: df.rename(columns={"cnt": "n_a"}), batch_format="pandas"
    )
    jsch = pa.schema(
        [("a", S), ("b", S), ("n_ab", pa.int64()), ("n_a", pa.int64())]
    )
    j = bucket_hash_join(
        j, types, ["b"], right_on=["a"], num_buckets=num_buckets,
        left_schema=jsch, right_schema=tsch, suffixes=("", "_rt"),
    )

    def metrics(df: pd.DataFrame) -> pd.DataFrame:
        n_ab = df["n_ab"].to_numpy(dtype=np.int64)
        n_a = df["n_a"].to_numpy(dtype=np.int64)
        n_b = df["cnt"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "a": df["a"].to_numpy(),
                "b": df["b"].to_numpy(),
                "n_ab": n_ab,
                "n_a": n_a,
                "n_b": n_b,
                # float-first products: BIGINT n_ab*N can overflow both
                # engines at extreme session counts; the SQL replay uses
                # the same (x * 1.0 * y) expression tree
                "support": np.round(n_ab * 1.0 / N, round_dp),
                "lift": np.round(
                    (n_ab * 1.0 * N) / (n_a * 1.0 * n_b), round_dp
                ),
            }
        )

    return j.map_batches(metrics, batch_format="pandas")


def interevent_stats(
    events: ray.data.Dataset,
    *,
    ts_col: str = "ts",
    user_col: str = "user_id",
    type_col: str = "event_type",
    id_col: str = "event_id",
    num_buckets: int = 64,
    round_dp: int = 6,
) -> ray.data.Dataset:
    """Inter-event time statistics per event type: gaps = consecutive
    deltas in integer FLOOR-SECONDS (µs // 1e6 — µs² would overflow
    int64 at month-scale gaps) within each (user, type) stream ordered
    by (ts, id), aggregated per type into n_gaps, mean/std (population),
    and the Goh–Barabási burstiness ``B = (σ−μ)/(σ+μ)`` (−1 = periodic,
    0 = Poisson, →1 = bursty) — the standard temporal-pattern signal.
    Returns a Dataset (event_type, n_gaps, mean_gap_s, std_gap_s,
    burstiness), O(types) rows.

    Exactness: μ/σ derive from integer sufficient statistics (Σg, Σg²,
    count; Σg² must stay < 2⁶³ — comfortable for realistic streams,
    e.g. 10⁹ hour-scale gaps) with the same float64 expression tree a
    SQL replay (windowed LAG) uses — partition-invariant, oracle-exact.
    ONE per-user hash shuffle forms the gaps; map-side per-type
    partials bound the second aggregate."""
    from flashray.joins import bucket_group_agg

    project = _event_projection(ts_col, user_col, type_col, id_col)

    part_cols = [
        (type_col, pa.string()), ("s1", pa.int64()), ("s2", pa.int64()),
        ("c", pa.int64()),
    ]

    def gaps_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _typed_empty(part_cols)
        g = g.sort_values(
            [user_col, type_col, "__ts_us", id_col], kind="mergesort"
        )
        u = g[user_col].to_numpy()
        e = g[type_col].to_numpy()
        t = g["__ts_us"].to_numpy()
        same = (u[1:] == u[:-1]) & (e[1:] == e[:-1])
        gap = ((t[1:] - t[:-1]) // 1_000_000)[same]  # floor seconds
        et = e[1:][same]
        if not len(gap):
            return _typed_empty(part_cols)
        d = pd.DataFrame(
            {type_col: et, "s1": gap, "s2": gap * gap,
             "c": np.ones(len(gap), dtype=np.int64)}
        )
        return d.groupby(type_col, as_index=False).agg(
            s1=("s1", "sum"), s2=("s2", "sum"), c=("c", "sum")
        )

    stats = bucket_group_agg(
        bucket_map(
            events.map_batches(project, batch_format="pyarrow"),
            [user_col],
            gaps_of_bucket,
            num_buckets=num_buckets,
        ),
        [type_col],
        {"s1": ("s1", "sum"), "s2": ("s2", "sum"), "c": ("c", "sum")},
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        s1 = df["s1"].to_numpy(dtype=np.int64)
        s2 = df["s2"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        mu = s1 / c
        sig = np.sqrt(np.maximum(s2 / c - mu * mu, 0.0))
        return pd.DataFrame(
            {
                type_col: df[type_col].to_numpy(),
                "n_gaps": c,
                "mean_gap_s": np.round(mu, round_dp),
                "std_gap_s": np.round(sig, round_dp),
                "burstiness": np.round(
                    np.divide(sig - mu, sig + mu,
                              out=np.zeros(len(c)), where=(sig + mu) > 0),
                    round_dp,
                ),
            }
        )

    return stats.map_batches(finish, batch_format="pandas")
