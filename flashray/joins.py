"""Bucketed shuffles for Ray Data: the one place that decides which task
sees which key.

``bucket_map(ds, keys, fn, num_buckets=B)`` is the one bucketed shuffle.
It tags every row with ``__bucket = _key_hash(keys) % B`` (splitmix64 over
the int64 key values, or over the CRC32 of string values, chained column
by column), runs ``groupby("__bucket").map_groups`` with Ray's sort
shuffle, and hands ``fn`` one pandas frame per bucket with ``__bucket``
dropped. Every row of a key reaches the same ``fn`` call, so ``fn`` does
its per-key work with vectorized pandas/numpy over the whole bucket.

The two-sided operators (hash, semi, as-of and range joins) tag each side
with the same rule on its own key names, union the sides and reuse
``bucket_map``'s group-and-apply step. Ray 2.49 ships ``Dataset.join``,
but its hash-shuffle aggregator actors reserve CPUs and starve small
sessions (observed: a 4-CPU session makes a 4-partition join crawl); this
is the portable pattern from
https://docs.ray.io/en/latest/data/joining-data.html. One shuffle, no
extra actor pool, works at any session size; B bounds the per-task memory
(raise B for bigger data; salt hot keys upstream).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data import DataContext

from flashray.ids import _splitmix64


def _key_hash(batch: pa.Table, on: list[str]) -> np.ndarray:
    """Stable 64-bit hash of the join key columns (int64 or string)."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in on:
            arr = batch[col]
            if pa.types.is_integer(arr.type):
                v = arr.to_numpy(zero_copy_only=False).astype(np.uint64)
            else:
                strs = arr.to_numpy(zero_copy_only=False)
                uniq, inv = np.unique(strs.astype("U"), return_inverse=True)
                import zlib

                codes = np.fromiter(
                    (zlib.crc32(u.encode()) for u in uniq),
                    dtype=np.uint64,
                    count=len(uniq),
                )
                v = codes[inv]
            h = _splitmix64(h ^ v)
    return h


BUCKET = "__bucket"


def _tag(keys: list[str], num_buckets: int):
    """A pyarrow batch fn appending ``__bucket = _key_hash(keys) %
    num_buckets``. It strips the pandas round-trip metadata first: a schema
    carrying the b'pandas' metadata dict is UNHASHABLE, which defeats Ray's
    shuffle-reduce schema deduplication (warning + slow unify)."""

    def fn(b: pa.Table) -> pa.Table:
        b = b.replace_schema_metadata(None)
        bucket = _key_hash(b, keys) % np.uint64(num_buckets)
        return b.append_column(BUCKET, pa.array(bucket.astype(np.int64)))

    return fn


def _map_buckets(tagged: ray.data.Dataset, fn) -> ray.data.Dataset:
    """Group a ``__bucket``-tagged Dataset and run ``fn`` on each bucket's
    pandas frame (``__bucket`` included: the joins select their columns)."""
    return tagged.groupby(BUCKET).map_groups(fn, batch_format="pandas")


def bucket_map(
    ds: ray.data.Dataset, keys: list[str], fn, *, num_buckets: int
) -> ray.data.Dataset:
    """Run ``fn`` once per hash bucket of ``keys``: every row of a key
    reaches one ``fn(pandas.DataFrame)`` call, which returns a pandas
    DataFrame or a pyarrow Table. A bucket holds many keys. The operator
    carries ``fn``'s name (a ``functools.partial``'s function name) in
    ``Dataset.stats()``."""
    tagged = ds.map_batches(
        _tag(list(keys), num_buckets), batch_format="pyarrow", zero_copy_batch=True
    )

    def per_bucket(g: pd.DataFrame):
        return fn(g.drop(columns=[BUCKET]))

    named = fn.func if isinstance(fn, functools.partial) else fn
    per_bucket.__name__ = getattr(named, "__name__", type(named).__name__)
    return _map_buckets(tagged, per_bucket)


def coalesce(ds: ray.data.Dataset, max_blocks: int) -> ray.data.Dataset:
    """Materialize ``ds`` in ``max_blocks`` blocks, or fewer when it is too
    small to fill them: no block under Ray's ``target_min_block_size``.
    Iterative dataflows call this on each round's result: a sort emits as
    many blocks as it receives and ships blocks² pieces, so an uncoalesced
    block count compounds round over round, and ``max_blocks`` blocks of a
    small table cost every round (measured: a 6-vertex HyperBall took 107 s
    at 64 blocks, 12 s at 4)."""
    ds = ds.materialize()
    floor = DataContext.get_current().target_min_block_size
    n = max(1, min(max_blocks, -(-ds.size_bytes() // floor)))
    return ds.repartition(n).materialize()


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """Arrow schema of a Dataset regardless of block format (pandas-block
    object columns are assumed to be strings)."""
    sch = ds.schema()
    if sch is None:
        raise ValueError(
            "Dataset has no schema (empty?) — pass an explicit schema to "
            "bucket_hash_join"
        )
    bs = sch.base_schema
    if isinstance(bs, pa.Schema):
        return bs
    fields = []
    for n, t in zip(bs.names, bs.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(n, t))
        else:
            try:
                fields.append(pa.field(n, pa.from_numpy_dtype(t)))
            except (pa.ArrowNotImplementedError, ValueError, TypeError):
                fields.append(pa.field(n, pa.string()))
    return pa.schema(fields)


def _tagged_union(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    right_on: list[str],
    *,
    num_buckets: int = 64,
    suffixes: tuple[str, str] = ("", "_r"),
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> tuple[ray.data.Dataset, dict]:
    """Shared co-partitioning plumbing for every bucketed two-sided
    operator (hash join, as-of join, range join): tag each side, pad both
    to one union schema (typed zero sentinels, suffix-renamed right
    columns), tag each side's key columns with ``bucket_map``'s rule, and
    union. The caller runs its per-bucket merge with ``_map_buckets``; the
    merge splits the sides apart on ``__side``.

    Returns ``(both, ctx)`` where ctx carries ``on``/``rkeys`` (left/right
    key names post-rename), ``lout``/``rout`` (non-overlapping output
    column lists), ``ren`` (right-side rename map) and ``all_cols``
    (``(name, arrow type)`` of the union schema)."""

    def tag(side: int, keys: list[str]):
        tag_bucket = _tag(keys, num_buckets)

        def fn(b: pa.Table) -> pa.Table:
            return tag_bucket(b).append_column(
                "__side", pa.array(np.full(b.num_rows, side, dtype=np.int8))
            )

        return fn

    lt = left.map_batches(tag(0, on), batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(
        tag(1, right_on), batch_format="pyarrow", zero_copy_batch=True
    )

    # union needs one schema: suffix right-side columns, pad both sides
    lsch = left_schema if left_schema is not None else _arrow_schema(left)
    rsch = right_schema if right_schema is not None else _arrow_schema(right)
    lcols = [f.name for f in lsch]
    rcols = [f.name for f in rsch]
    ren = {}
    for c in rcols:
        if c in right_on:
            # a right key keeps its name only when it IS the matching left
            # key; otherwise a collision with a left column must be suffixed
            o = on[right_on.index(c)]
            ren[c] = c if c == o or c not in lcols else c + suffixes[1]
        else:
            ren[c] = c + suffixes[1] if c in lcols else c
    rkeys = [ren[c] for c in right_on]

    def pad(cols_here, all_cols, rename=None):
        # pad with typed ZERO sentinels, never nulls: an int64 column with
        # nulls becomes float64 in pandas, silently corrupting 63-bit ids
        # (> 2^53). The padded values are never read — merge() splits the
        # sides apart before joining.
        def fn(b: pa.Table) -> pa.Table:
            if rename:
                b = b.rename_columns(
                    [rename.get(c, c) for c in b.column_names]
                )
            for c, typ in all_cols:
                if c not in b.column_names:
                    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                        filler = pa.array([""] * b.num_rows, type=typ)
                    elif pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
                        filler = pa.array([b""] * b.num_rows, type=typ)
                    elif pa.types.is_timestamp(typ):
                        filler = pa.array(
                            np.zeros(b.num_rows, dtype="int64"), type=pa.int64()
                        ).cast(typ)
                    else:
                        filler = pa.array(
                            np.zeros(b.num_rows, dtype=typ.to_pandas_dtype())
                        ).cast(typ)
                    b = b.append_column(c, filler)
            return b.select([c for c, _ in all_cols] + [BUCKET, "__side"])

        return fn

    lschema = [(f.name, f.type) for f in lsch]
    rschema = [
        (ren[f.name], f.type) for f in rsch if ren[f.name] not in dict(lschema)
    ]
    all_cols = lschema + rschema
    lt = lt.map_batches(pad(lcols, all_cols), batch_format="pyarrow")
    rt = rt.map_batches(pad(rcols, all_cols, ren), batch_format="pyarrow")
    both = lt.union(rt)

    lout = [c for c, _ in lschema]
    rout = [c for c, _ in rschema]
    return both, {
        "on": on,
        "rkeys": rkeys,
        "lout": lout,
        "rout": rout,
        "ren": ren,
        "all_cols": all_cols,
    }


def bucket_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    *,
    how: str = "inner",
    num_buckets: int = 64,
    right_on: list[str] | None = None,
    suffixes: tuple[str, str] = ("", "_r"),
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Hash-partitioned join; both sides shuffled once on the bucket key.

    Pass ``left_schema``/``right_schema`` when a side may be empty (an
    empty Dataset reports no schema) or to skip the schema-peek execution."""
    on = list(on)
    right_on = list(right_on) if right_on is not None else on
    both, ctx = _tagged_union(
        left,
        right,
        on,
        right_on,
        num_buckets=num_buckets,
        suffixes=suffixes,
        left_schema=left_schema,
        right_schema=right_schema,
    )
    rkeys, lout, rout = ctx["rkeys"], ctx["lout"], ctx["rout"]
    all_cols = ctx["all_cols"]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"] == 0]
        rg = g[g["__side"] == 1]
        lv = lg[lout]
        rv = rg[rout + [k for k in rkeys if k not in rout]]
        merged = lv.merge(
            rv, left_on=on, right_on=rkeys, how="inner" if how == "inner" else how
        )
        drop = [k for k in rkeys if k not in on and k not in rout]
        merged = merged.drop(columns=drop, errors="ignore")
        # the tagged union nulls the other side's columns, which floats
        # int64 dtypes in pandas; restore them where no nulls survived
        for c, typ in all_cols:
            if c in merged.columns and pa.types.is_integer(typ):
                col = merged[c]
                if col.dtype != np.int64 and not col.isna().any():
                    merged[c] = col.astype(np.int64)
        return merged

    return _map_buckets(both, merge)


def bucket_group_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    agg: dict | None,
    *,
    hash_keys: list[str] | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Grouped aggregate for NEAR-UNIQUE keys: one bucket shuffle + a
    vectorized pandas groupby per bucket.

    Ray Data's ``groupby().aggregate()`` pays per-GROUP overhead in the
    reduce; with millions of tiny groups (exact dedup, degree tables) that
    is pathological — measured 63 s vs 6 s for a 2.4M-row dedup with 1.8M
    groups. ``agg`` is a pandas named-agg dict (e.g. ``{"weight":
    ("weight", "sum")}``); ``None`` = distinct rows over ``keys``.
    ``hash_keys`` are int64 columns used for bucketing (default: all
    ``keys`` — pass the int64 subset when keys include strings)."""
    hk = hash_keys if hash_keys is not None else keys

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if agg is None:
            return g.drop_duplicates(keys)
        return g.groupby(keys, as_index=False, sort=False).agg(**agg)

    return bucket_map(ds, hk, per_bucket, num_buckets=num_buckets)


def topk_per_group(
    ds: ray.data.Dataset,
    keys: list[str],
    order_by: list[str],
    k: int,
    *,
    descending: bool | list[bool] = True,
    hash_keys: list[str] | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Top-k rows per group, ordered by ``order_by`` with the ORDER
    COLUMNS THEMSELVES as the only tie-break — append a unique id column
    to ``order_by`` for a total order (the SQL-parity queries do).

    Two-stage: a map-side per-batch prune keeps at most k rows per key
    per batch (bounds the shuffle to k·batches per key — a hot key never
    ships its full history), then ONE bucket shuffle and a vectorized
    per-bucket groupby head."""
    desc = (
        [descending] * len(order_by) if isinstance(descending, bool)
        else list(descending)
    )
    ascending = [not d for d in desc]
    hk = hash_keys if hash_keys is not None else keys

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(order_by, ascending=ascending, kind="mergesort")
            .groupby(keys, sort=False)
            .head(k)
        )

    return bucket_map(
        ds.map_batches(prune, batch_format="pandas"),
        hk,
        prune,
        num_buckets=num_buckets,
    )


def bucket_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    *,
    anti: bool = False,
    right_on: list[str] | None = None,
    num_buckets: int = 64,
    left_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Semi join (left rows whose key EXISTS on the right) or anti join
    (``anti=True``: key absent) — the blocklist/allowlist filter shape of
    C4-style corpus cleaning. Output columns = left columns, each row at
    most once.

    The right side is projected to its key columns and deduped map-side
    per batch BEFORE the one bucket shuffle, so a right side with massive
    key duplication ships at most (distinct keys x batches) rows."""
    on = list(on)
    right_on = list(right_on) if right_on is not None else on
    lsch = left_schema if left_schema is not None else _arrow_schema(left)
    lcols = [f.name for f in lsch]

    tag_bucket = _tag(on, num_buckets)

    def tag_left(b: pa.Table) -> pa.Table:
        return tag_bucket(b).append_column(
            "__sside", pa.array(np.zeros(b.num_rows, dtype=np.int8))
        )

    def tag_right(b: pa.Table) -> pa.Table:
        b = b.replace_schema_metadata(None)
        b = b.select(right_on).rename_columns(on)
        # map-side distinct: a blocklist key repeated millions of times
        # ships once per batch
        df = b.to_pandas().drop_duplicates(on)
        b = pa.Table.from_pandas(df, preserve_index=False)
        # pad the non-key left columns so the union has one schema
        for f in lsch:
            if f.name not in on:
                if pa.types.is_string(f.type) or pa.types.is_large_string(f.type):
                    filler = pa.array([""] * b.num_rows, type=f.type)
                elif pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type):
                    filler = pa.array([b""] * b.num_rows, type=f.type)
                elif pa.types.is_timestamp(f.type):
                    filler = pa.array(
                        np.zeros(b.num_rows, dtype="int64"), type=pa.int64()
                    ).cast(f.type)
                else:
                    filler = pa.array(
                        np.zeros(b.num_rows, dtype=f.type.to_pandas_dtype())
                    ).cast(f.type)
                b = b.append_column(f.name, filler)
        return tag_bucket(b.select(lcols)).append_column(
            "__sside", pa.array(np.ones(b.num_rows, dtype=np.int8))
        )

    lt = left.map_batches(tag_left, batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(tag_right, batch_format="pyarrow")

    def filt(g: pd.DataFrame):
        lg = g[g["__sside"] == 0]
        rkeys = g.loc[g["__sside"] == 1, on]
        if len(on) == 1:
            m = lg[on[0]].isin(set(rkeys[on[0]]))
        else:
            m = pd.MultiIndex.from_frame(lg[on]).isin(
                pd.MultiIndex.from_frame(rkeys.drop_duplicates())
            )
        out = lg[~m] if anti else lg[m]
        if not len(out):
            # typed empty (an empty object-dtype pandas block trips Ray's
            # size estimator and schema unify)
            return pa.table({f.name: pa.array([], type=f.type) for f in lsch})
        return out[lcols]

    return _map_buckets(lt.union(rt), filt)


def pairs_within_groups(
    group_codes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fully vectorized unordered-pair expansion: for each group (sorted,
    contiguous ``group_codes``), emit every pair (values[i], values[j]) with
    i < j in-group. Returns (v1, v2, group_code_per_pair) with v1 < v2 when
    ``values`` is sorted ascending within each group.

    Used for wedge generation: millions of tiny adjacency groups with zero
    Python-per-group overhead (triangular-index inversion)."""
    if len(group_codes) == 0:
        e = np.empty(0, dtype=values.dtype)
        return e, e, np.empty(0, dtype=group_codes.dtype)
    change = np.empty(len(group_codes), dtype=bool)
    change[0] = True
    change[1:] = group_codes[1:] != group_codes[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.r_[starts, len(group_codes)])
    pc = counts * (counts - 1) // 2
    total = int(pc.sum())
    if total == 0:
        e = np.empty(0, dtype=values.dtype)
        return e, e, np.empty(0, dtype=group_codes.dtype)
    gidx = np.repeat(np.arange(len(starts)), pc)
    pair_start = np.r_[0, np.cumsum(pc)[:-1]]
    r = np.arange(total) - pair_start[gidx]  # pair rank within group
    c = counts[gidx].astype(np.float64)
    # triangular inversion: row i such that  i*(2c-i-1)/2 <= r
    i = np.floor((2 * c - 1 - np.sqrt((2 * c - 1) ** 2 - 8 * r)) / 2).astype(np.int64)
    off = (i * (2 * counts[gidx] - i - 1)) // 2
    j = (r - off + i + 1).astype(np.int64)
    s = starts[gidx]
    return values[s + i], values[s + j], group_codes[s]
