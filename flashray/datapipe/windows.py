"""Windowed aggregates over an ordered event log (stream-shaped workloads).

Ray Data is a batch engine with no event-time watermarks; windows are
expressed as one-shuffle groupby/map_groups dataflows
(https://docs.ray.io/en/latest/data/transforming-data.html):

- **tumbling** windows are stateless: bucket = floor(ts / size) computed
  vectorized in ``map_batches``, then a grouped aggregate — one shuffle.
- **sliding** windows emit each row into size/slide buckets (vectorized row
  replication), then aggregate — one shuffle, amplification = size/slide.
- **session** windows need per-key ordering: ``groupby(key)`` then a
  vectorized gap-split inside the group (sort by ts, new session where
  gap > timeout).

Ordering assumption: within one (key, window) group, aggregates used here
are order-insensitive (count/sum/min/max). The reference's time-series scan
statistic (SURVEY.md §2.2 A14, libgraph-algs/sstsg.cpp) is covered
compositionally: a ts-window filter before any graph algorithm
(flashray.api.window_graph).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

US_PER_SEC = 1_000_000


def _ts_us(batch: pa.Table, ts_col: str) -> np.ndarray:
    return batch[ts_col].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype("int64")


def tumbling_window(
    events: ray.data.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_sec: int = 3600,
    origin_us: int = 0,
) -> ray.data.Dataset:
    """Per (key, window) aggregate: n_events, sum/min/max of value.
    ``window_start`` is emitted in epoch seconds."""

    def bucket(b: pa.Table) -> pa.Table:
        ts = _ts_us(b, ts_col)
        w = (ts - origin_us) // (window_sec * US_PER_SEC)
        return pa.table(
            {
                key_col: b[key_col],
                "window_start": w * window_sec + origin_us // US_PER_SEC,
                value_col: b[value_col],
            }
        )

    return (
        events.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([key_col, "window_start"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum(value_col, alias_name="sum_value"),
            Min(value_col, alias_name="min_value"),
            Max(value_col, alias_name="max_value"),
        )
    )


def sliding_window(
    events: ray.data.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_sec: int = 3600,
    slide_sec: int = 900,
    origin_us: int = 0,
) -> ray.data.Dataset:
    """Sliding windows [start, start+window) every ``slide_sec``; each event
    lands in window/slide buckets (vectorized replication, then one grouped
    aggregate)."""
    k = window_sec // slide_sec
    if window_sec % slide_sec:
        raise ValueError("window_sec must be a multiple of slide_sec")

    def explode(b: pa.Table) -> pa.Table:
        ts = _ts_us(b, ts_col)
        last = (ts - origin_us) // (slide_sec * US_PER_SEC)  # newest window idx
        key = b[key_col].to_numpy(zero_copy_only=False)
        val = b[value_col].to_numpy(zero_copy_only=False)
        n = len(ts)
        wi = (
            np.repeat(last, k) - np.tile(np.arange(k, dtype=np.int64), n)
        )
        keep = wi >= 0
        return pa.table(
            {
                key_col: np.repeat(key, k)[keep],
                "window_start": (
                    wi[keep] * slide_sec + origin_us // US_PER_SEC
                ),
                value_col: np.repeat(val, k)[keep],
            }
        )

    return (
        events.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([key_col, "window_start"])
        .aggregate(
            Count(alias_name="n_events"),
            Sum(value_col, alias_name="sum_value"),
        )
    )


def session_window(
    events: ray.data.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    gap_sec: int = 1800,
) -> ray.data.Dataset:
    """Gap-based sessions per key: a new session starts when the time since
    the previous event of the same key exceeds ``gap_sec``. Returns one row
    per session: (key, session_start_s, session_end_s, n_events, sum_value)."""
    gap_us = gap_sec * US_PER_SEC

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col)
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype("int64")
        new = np.ones(len(ts), dtype=bool)
        new[1:] = (ts[1:] - ts[:-1]) > gap_us
        sid = np.cumsum(new) - 1
        val = g[value_col].to_numpy()
        out = {
            key_col: [],
            "session_start": [],
            "session_end": [],
            "n_events": [],
            "sum_value": [],
        }
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ts)] - 1
        key = g[key_col].iloc[0]
        sums = np.add.reduceat(val, starts)
        for s, e, sv in zip(starts, ends, sums):
            out[key_col].append(key)
            out["session_start"].append(ts[s] // US_PER_SEC)
            out["session_end"].append(ts[e] // US_PER_SEC)
            out["n_events"].append(int(e - s + 1))
            out["sum_value"].append(float(sv))
        return pd.DataFrame(out)

    # natural key: `sessions` splits one key's own event stream per call
    return events.groupby(key_col).map_groups(sessions, batch_format="pandas")


def transition_counts(
    events: ray.data.Dataset,
    *,
    key_col: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    id_col: str = "event_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """First-order Markov transition counts over per-key event streams:
    order each key's events by ``(ts, id)`` (a TOTAL order — the id column
    breaks timestamp ties deterministically), pair each event with its
    successor, and count ``(prev_state, next_state)`` over the whole log.
    Divide by the per-prev_state row sums for transition probabilities.

    Distributed shape: one ``joins.bucket_map`` shuffle on the key (int64
    or string) co-locates each key's events; inside a bucket the sort +
    shift + boundary mask is fully vectorized, and each bucket emits
    PARTIAL (prev,next,n) counts — the final aggregate moves at most
    ``B × |states|²`` rows."""
    from flashray.joins import bucket_group_agg, bucket_map

    B = int(num_buckets)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        k = g[key_col].to_numpy()
        s = g[state_col].to_numpy()
        same = np.empty(len(g), dtype=bool)
        if len(g):
            same[:-1] = k[:-1] == k[1:]
            same[-1] = False
        prev = s[:-1][same[:-1]] if len(g) else s[:0]
        nxt = s[1:][same[:-1]] if len(g) else s[:0]
        out = pd.DataFrame({"prev_state": prev, "next_state": nxt})
        return out.groupby(
            ["prev_state", "next_state"], as_index=False, sort=False
        ).agg(n=("prev_state", "size"))

    parts = bucket_map(
        events.select_columns([key_col, ts_col, state_col, id_col]),
        [key_col],
        pairs,
        num_buckets=B,
    )
    return bucket_group_agg(
        parts, ["prev_state", "next_state"], {"n": ("n", "sum")},
        num_buckets=min(B, 16),
    )
