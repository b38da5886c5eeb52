"""Approximate sketches over Datasets: HyperLogLog distinct counting and
deterministic bottom-k uniform sampling.

Design for 100-TB scale: every sketch is a tiny fixed-size partial computed
inside ``map_batches`` (vectorized numpy), merged associatively — the
shuffle moves kilobytes of registers / priorities, never rows. The global
merge is O(blocks × 2^p) bytes on the driver (a few MB at thousands of
blocks), the by-key merge is one bucketed group-merge.

Determinism: hashes are SHA-256-derived (no RNG, no seeds to thread), so
estimates are bit-reproducible across runs, partitionings and parallelism
levels — and exactly recomputable in SQL (the ``docs_distinct_hll`` driver
oracle recomputes the full estimator in DuckDB).

HLL estimator: Flajolet et al., "HyperLogLog: the analysis of a
near-optimal cardinality estimation algorithm" (AofA 2007), with the
standard small-range (linear counting) correction.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


# --------------------------------------------------------------------------
# hashing
# --------------------------------------------------------------------------


def _sha_u64(values: list[str] | np.ndarray) -> np.ndarray:
    """First 8 bytes of sha256(str(v)) as uint64 — matches the SQL side
    ``CAST(concat('0x', substr(sha256(v), 1, 16)) AS UBIGINT)``."""
    return np.fromiter(
        (
            int.from_bytes(hashlib.sha256(str(v).encode()).digest()[:8], "big")
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for any uint64 (numpy has no clz; frexp
    is exact only below 2^53, so split into 32-bit halves)."""
    w = w.astype(np.uint64, copy=False)
    hi = (w >> np.uint64(32)).astype(np.float64)
    lo = (w & np.uint64(0xFFFF_FFFF)).astype(np.float64)
    bl = np.zeros(len(w), dtype=np.int64)
    m_hi = hi > 0
    bl[m_hi] = 32 + np.frexp(hi[m_hi])[1]
    m_lo = ~m_hi & (lo > 0)
    bl[m_lo] = np.frexp(lo[m_lo])[1]
    return bl


# --------------------------------------------------------------------------
# HyperLogLog
# --------------------------------------------------------------------------


def hll_partial(hashes: np.ndarray, p: int) -> np.ndarray:
    """Register array (uint8, length 2^p) from uint64 hashes."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(hashes) == 0:
        return regs
    q = 64 - p
    idx = (hashes >> np.uint64(q)).astype(np.int64)
    rem = hashes & np.uint64((1 << q) - 1)
    rank = (q + 1 - _bit_length_u64(rem)).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimate with small-range linear-counting correction.

    Implemented EXACTLY like the SQL oracle (same alpha, same correction
    thresholds) so both sides agree to rounding error."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    s = np.power(2.0, -regs.astype(np.float64)).sum()
    raw = alpha * m * m / s
    zeros = int((regs == 0).sum())
    if raw <= 2.5 * m and zeros > 0:
        return float(m * np.log(m / zeros))
    return float(raw)


def hll_estimate_rows(regs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hll_estimate` over a (n, 2^p) register matrix —
    one estimate per row. Same alpha / small-range correction, row sums
    evaluated with the same pairwise reduction, so a row estimate equals
    the scalar estimate of that row."""
    n, m = regs.shape
    alpha = 0.7213 / (1 + 1.079 / m)
    s = np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
    raw = alpha * m * m / s
    zeros = (regs == 0).sum(axis=1)
    with np.errstate(divide="ignore"):
        lin = m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
    return np.where((raw <= 2.5 * m) & (zeros > 0), lin, raw)


def _hll_words_fn(column: str, p: int):
    """Per-batch partial: distinct whitespace tokens of a text column →
    one register-blob row (stateless — a plain fn avoids an actor pool)."""

    def fn(batch: pa.Table) -> pa.Table:
        words: set[str] = set()
        for t in batch[column].to_pylist():
            if t:
                words.update(t.split())
        regs = hll_partial(_sha_u64(sorted(words)), p)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    return fn


def _hll_values_fn(column: str, p: int):
    def fn(batch: pa.Table) -> pa.Table:
        vals = batch[column].to_pylist()
        uniq = sorted({str(v) for v in vals if v is not None})
        regs = hll_partial(_sha_u64(uniq), p)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    return fn


def _merge_register_rows(ds: ray.data.Dataset, p: int) -> np.ndarray:
    """Driver-side max-merge of per-block register blobs. O(blocks × 2^p)
    bytes — the ONLY data that ever reaches the driver."""
    m = 1 << p
    merged = np.zeros(m, dtype=np.uint8)
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=1024):
        for blob in batch["regs"].to_pylist():
            merged = np.maximum(merged, np.frombuffer(blob, dtype=np.uint8))
    return merged


def approx_distinct_words(
    ds: ray.data.Dataset, column: str = "text", *, p: int = 12
) -> float:
    """Approximate number of distinct whitespace tokens across a text
    column (~1.04/sqrt(2^p) relative standard error; p=12 → ~1.6%)."""
    partials = ds.map_batches(
        _hll_words_fn(column, p), batch_format="pyarrow", zero_copy_batch=True
    )
    return hll_estimate(_merge_register_rows(partials, p))


def approx_distinct(
    ds: ray.data.Dataset, column: str, *, p: int = 12
) -> float:
    """Approximate distinct count of a column (values hashed as strings —
    deterministic, SQL-reproducible)."""
    partials = ds.map_batches(
        _hll_values_fn(column, p), batch_format="pyarrow", zero_copy_batch=True
    )
    return hll_estimate(_merge_register_rows(partials, p))


def _hll_by_key_fn(key: str, column: str, p: int):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out_keys, out_regs = [], []
        for k, grp in batch.groupby(key, sort=False):
            uniq = sorted({str(v) for v in grp[column] if v is not None})
            out_keys.append(k)
            out_regs.append(hll_partial(_sha_u64(uniq), p).tobytes())
        return pd.DataFrame({key: out_keys, "regs": out_regs})

    return fn


def approx_distinct_by_key(
    ds: ray.data.Dataset, key: str, column: str, *, p: int = 12
) -> ray.data.Dataset:
    """Per-key approximate distinct: map-side partial registers per key
    (the combiner — each batch contributes ≤ one blob per key it contains),
    one groupby merge, vectorized estimate. Output (key, approx_distinct).

    The shuffle ships 2^p-byte blobs per (block, key), never the values —
    at 100 TB with a million keys this is the difference between a
    register merge and a full-data distinct shuffle."""
    m = 1 << p
    partials = ds.map_batches(
        _hll_by_key_fn(key, column, p), batch_format="pandas"
    )

    def merge(grp: pd.DataFrame) -> pd.DataFrame:
        stacked = np.frombuffer(
            b"".join(grp["regs"]), dtype=np.uint8
        ).reshape(len(grp), m)
        est = hll_estimate(stacked.max(axis=0))
        return pd.DataFrame(
            {key: [grp[key].iloc[0]], "approx_distinct": [est]}
        )

    # natural key: `merge` folds one key's register rows into one estimate
    return partials.groupby(key).map_groups(merge, batch_format="pandas")


# --------------------------------------------------------------------------
# Deterministic bottom-k uniform sample
# --------------------------------------------------------------------------


def bottomk_sample(
    ds: ray.data.Dataset, k: int, on: str, *, salt: str = ""
) -> pa.Table:
    """Uniform k-sample without RNG state: keep the k rows whose
    sha256-derived priority ``h(salt || on)`` is smallest. Per-block
    local top-k (vectorized argpartition) then a tiny driver merge of
    ≤ k rows per block — deterministic across runs and parallelism,
    resumable, and different ``salt`` values give independent samples."""

    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        pri = _sha_u64(
            [salt + str(v) for v in batch[on].to_pylist()]
        )
        take = min(k, len(pri))
        sel = np.argpartition(pri, take - 1)[:take]
        sel = sel[np.argsort(pri[sel], kind="stable")]
        out = batch.take(pa.array(sel))
        return out.append_column(
            "__pri", pa.array(pri[sel].astype(np.uint64))
        )

    cand = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
    df = cand.sort("__pri").limit(k).to_pandas()  # ≤ k rows reach the driver
    return pa.Table.from_pandas(
        df.drop(columns=["__pri"]), preserve_index=False
    )


# ---------------------------------------------------------------------------
# Deterministic hash split (train/val/test assignment)


def split_thresholds(fractions: dict[str, float]) -> list[tuple[str, int]]:
    """(label, upper-bound) pairs partitioning the uint64 hash space by
    cumulative fraction. Computed once so the Ray side and a SQL replay
    use the IDENTICAL integer boundaries (floats never compared)."""
    total = float(sum(fractions.values()))
    cum = 0.0
    out = []
    labels = list(fractions)
    for i, lab in enumerate(labels):
        cum += fractions[lab] / total
        bound = (1 << 64) if i == len(labels) - 1 else int(cum * (1 << 64))
        out.append((lab, bound))
    return out


def hash_split(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    fractions: dict[str, float] | None = None,
    salt: str = "",
    hash_fn: str = "sha",
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment: row → split label by
    which cumulative-fraction band sha256(salt || key) falls in. Pure
    per-batch map (no shuffle, no RNG state); the same key lands in the
    same split across runs, machines and dataset versions — the
    leakage-safe way to split corpora keyed by document/user id.
    ``hash_fn="splitmix"`` is the vectorized scale path for int64 keys
    (not SQL-replayable)."""
    from flashray.ids import _splitmix64

    fr = fractions or {"train": 0.98, "val": 0.01, "test": 0.01}
    bands = split_thresholds(fr)
    labels = np.array([lab for lab, _ in bands])

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("split", pa.array([], type=pa.string()))
        if hash_fn == "sha":
            h = _sha_u64([salt + str(v) for v in batch[key_col].to_pylist()])
        else:
            k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = _splitmix64(k ^ _sha_u64([salt or "hash_split"])[0])
        # EXACT uint64 band comparison — float64 would misplace hashes
        # within 2^11 of a boundary relative to a SQL integer replay
        idx = np.full(len(h), len(labels) - 1, dtype=np.int64)
        taken = np.zeros(len(h), dtype=bool)
        for i, (_, bound) in enumerate(bands[:-1]):
            m = (~taken) & (h < np.uint64(bound))
            idx[m] = i
            taken |= m
        return batch.append_column("split", pa.array(labels[idx]))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def exact_quantiles(
    ds: ray.data.Dataset, col: str, qs: list[float]
) -> dict[float, float]:
    """EXACT distributed quantiles of a numeric column: one global
    range-partitioned sort (Ray Data's sample-split shuffle), then each
    requested order statistic is read as the FIRST row of a
    ``split_at_indices`` cut — no block ever reaches the driver. Index
    rule matches DuckDB ``quantile_disc``: element ceil(q·n)−1
    (0-based, clamped), computed in float64 exactly as the SQL side
    computes it. For approximate quantiles at extreme scale prefer a
    sketch; this is the exact oracle-grade path."""
    import math

    n = ds.count()
    if n == 0:
        return {float(q): float("nan") for q in qs}
    idx_of = {
        float(q): min(n - 1, max(0, math.ceil(float(q) * n) - 1))
        for q in qs
    }
    uniq = sorted(set(idx_of.values()))
    s = ds.select_columns([col]).sort(col).materialize()
    splits = s.split_at_indices(uniq)
    val_at = {}
    for j, k in enumerate(uniq):
        row = splits[j + 1].take(1)
        val_at[k] = float(row[0][col])
    return {q: val_at[i] for q, i in idx_of.items()}


def global_rank(
    ds: ray.data.Dataset,
    order_by: list[str],
    *,
    descending: bool | list[bool] = False,
    rank_col: str = "rank",
    ntile: int | None = None,
) -> ray.data.Dataset:
    """Exact global ROW_NUMBER over a total order (``order_by`` MUST be a
    total order — include a unique id column; ranks of tied rows would
    otherwise depend on shuffle arrival). Optionally adds an ``ntile``
    column = 1 + (rank-1)·n // count (SQL NTILE semantics for a total
    order). Distributed shape: one range-partitioned sort, then a
    per-block summary pass ((first key, rows) per block — O(blocks)
    driver data, never row data), then a second pass over the SAME
    materialized blocks that assigns rank = block offset + local index.
    Block identity across the two passes is guaranteed by materializing
    the sorted Dataset once and keying offsets by each block's first
    (unique) key tuple."""
    s = ds.sort(order_by, descending=descending).materialize()
    n = s.count()
    if n == 0:
        return s

    def summary(b: pd.DataFrame) -> pd.DataFrame:
        # a range-partitioned sort can emit EMPTY blocks (tiny datasets,
        # partitions > rows): skip them — they carry no rank offset
        if not len(b):
            return pd.DataFrame({"__first": [], "__rows": []})
        return pd.DataFrame(
            {
                "__first": [tuple(b.iloc[0][c] for c in order_by)],
                "__rows": [len(b)],
            }
        )

    parts = s.map_batches(
        summary, batch_size=None, batch_format="pandas"
    ).to_pandas()
    desc = (
        [descending] * len(order_by) if isinstance(descending, bool)
        else list(descending)
    )
    # driver-side: order the per-block summaries the way the sort ordered
    # the blocks (first keys are unique under a total order)
    keys = list(parts["__first"])
    order = sorted(range(len(keys)), key=_DescKey(keys, desc))
    rows = parts["__rows"].to_numpy()
    offsets = {}
    acc = 0
    for i in order:
        offsets[keys[i]] = acc
        acc += int(rows[i])

    import ray as _ray

    off_ref = _ray.put(offsets)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        if not len(b):
            # keep the output schema stable on empty blocks
            b[rank_col] = pd.Series(dtype=np.int64)
            if ntile is not None:
                b["ntile"] = pd.Series(dtype=np.int64)
            return b
        off = _ray.get(off_ref)[tuple(b.iloc[0][c] for c in order_by)]
        r = off + np.arange(1, len(b) + 1, dtype=np.int64)
        b[rank_col] = r
        if ntile is not None:
            b["ntile"] = 1 + (r - 1) * np.int64(ntile) // np.int64(n)
        return b

    return s.map_batches(assign, batch_size=None, batch_format="pandas")


class _DescKey:
    """functools.cmp_to_key-style total order for mixed asc/desc tuples
    (strings can't be negated; compare fieldwise)."""

    def __init__(self, keys, desc):
        self.keys = keys
        self.desc = desc

    def __call__(self, i):
        import functools

        return functools.cmp_to_key(self._cmp)(i)

    def _cmp(self, i, j):
        a, b = self.keys[i], self.keys[j]
        for v, w, d in zip(a, b, self.desc):
            if v == w:
                continue
            lt = v < w
            return (1 if lt else -1) if d else (-1 if lt else 1)
        return 0


def stratified_sample(
    ds: ray.data.Dataset,
    keys: list[str],
    n_per_key: int,
    id_col: str,
    *,
    salt: str = "",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Deterministic stratified sample: the ``n_per_key`` rows of each key
    group with the smallest ``sha256(salt || id)`` (bottom-k per stratum —
    uniform within the group, reproducible, SQL-replayable with the
    repo-wide hash convention). One pass adds the hash rank; selection is
    ``joins.topk_per_group`` (map-side pruned, one shuffle)."""
    from flashray.joins import topk_per_group

    def add_rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        # keep uint64: an int64 reinterpretation would wrap hashes >= 2^63
        # negative and disagree with the SQL side's UBIGINT ordering
        df["__hrank"] = _sha_u64([salt + str(v) for v in df[id_col].tolist()])
        return df

    ranked = ds.map_batches(add_rank, batch_format="pandas")
    out = topk_per_group(
        ranked, keys, ["__hrank", id_col], n_per_key,
        descending=False, num_buckets=num_buckets,
    )

    def drop(b: pa.Table) -> pa.Table:
        return b.drop_columns(["__hrank"])

    return out.map_batches(drop, batch_format="pyarrow", zero_copy_batch=True)


def global_cumsum(
    ds: ray.data.Dataset,
    order_by: list[str],
    val_col: str,
    *,
    out_col: str = "cumsum_before",
) -> ray.data.Dataset:
    """Exact distributed EXCLUSIVE prefix sum of ``val_col`` under a total
    order (``order_by`` must be unique per row): the same
    sort + per-block-summary + offset-assign shape as :func:`global_rank`
    with per-block SUMS carried instead of row counts."""
    s = ds.sort(order_by).materialize()
    if s.count() == 0:
        return s

    def summary(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "__first": [tuple(b.iloc[0][c] for c in order_by)],
                "__sum": [int(b[val_col].sum())],
            }
        ) if len(b) else pd.DataFrame({"__first": [], "__sum": []})

    parts = s.map_batches(
        summary, batch_size=None, batch_format="pandas"
    ).to_pandas()
    keys = list(parts["__first"])
    order = sorted(range(len(keys)), key=_DescKey(keys, [False] * len(order_by)))
    sums = parts["__sum"].to_numpy()
    offsets = {}
    acc = 0
    for i in order:
        offsets[keys[i]] = acc
        acc += int(sums[i])

    import ray as _ray

    off_ref = _ray.put(offsets)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        if not len(b):
            b[out_col] = pd.Series(dtype=np.int64)
            return b
        off = _ray.get(off_ref)[tuple(b.iloc[0][c] for c in order_by)]
        v = b[val_col].to_numpy(dtype=np.int64)
        b[out_col] = off + np.concatenate(([0], np.cumsum(v)[:-1]))
        return b

    return s.map_batches(assign, batch_size=None, batch_format="pandas")


def pack_sequences(
    ds: ray.data.Dataset,
    order_by: list[str],
    token_col: str,
    seq_len: int,
    *,
    pack_col: str = "pack_id",
    offset_col: str = "pack_offset",
) -> ray.data.Dataset:
    """Token-contiguous sequence packing (LLM training prep): lay the
    rows out in ``order_by`` order as one token stream and cut it into
    fixed ``seq_len`` packs — ``pack_id = tokens_before // seq_len``,
    ``pack_offset = tokens_before % seq_len`` (a row whose tokens cross a
    boundary starts in its pack and overflows, the usual
    pack-then-truncate layout; use chunking upstream to bound row
    length). Exact and deterministic: one global prefix sum, replayed in
    SQL as a window SUM."""
    out = global_cumsum(ds, order_by, token_col, out_col="__before")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        before = b["__before"].to_numpy(dtype=np.int64)
        b[pack_col] = before // np.int64(seq_len)
        b[offset_col] = before % np.int64(seq_len)
        return b.drop(columns="__before")

    return out.map_batches(finish, batch_format="pandas")


def frequent_terms(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.01,
    k: int | None = None,
    text_col: str = "text",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT corpus heavy hitters via a Misra–Gries candidate pass plus an
    exactness-restoring recount: every term whose corpus count is
    ≥ ceil(threshold · total_tokens), with its exact count — the
    two-pass frequent-items scheme (Misra & Gries 1982; Cormode &
    Hadjieleftheriou, VLDB 2008 survey §2).

    Pass 1 computes exact per-batch term counts map-side and keeps only
    each batch's top ``k`` (k defaults to ceil(2/threshold)); a dropped
    term's in-batch count is at most N_b/(k+1), so summing kept counts
    undercounts any term by < N/(k+1) ≤ threshold·N/2 globally. One
    bucket aggregate then yields lower bounds; terms with
    lb ≥ required − floor(N/(k+1)) form a GUARANTEED superset of the
    answer with at most ~2/threshold members (each carries ≥
    threshold·N/2 of the N-token mass) — small enough to broadcast.
    Pass 2 recounts exactly the candidate set (broadcast membership
    filter inside map_batches, one bucket aggregate) and applies the
    exact integer cutoff. The shuffles carry per-batch summaries (≤ k
    rows each) and candidate counts — never raw token rows.

    Returns Dataset (term, cnt). Deterministic: exact integer counts,
    an integer cutoff, no hashing, no RNG. Consumer note: when NO term
    reaches the cutoff, Ray's ``to_pandas()`` on the (fully-empty)
    result drops the column labels — check ``len`` before column
    access."""
    import math

    import ray

    from flashray.joins import bucket_group_agg

    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    kk = int(k) if k is not None else math.ceil(2.0 / threshold)

    def summary(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        d = pd.DataFrame({"term": toks}).explode("term").dropna()
        d = d[d["term"] != ""]
        n_b = len(d)
        c = d.groupby("term").size().sort_values(
            ascending=False, kind="stable"
        )
        kept = c.iloc[:kk]
        out = pd.DataFrame(
            {
                "term": kept.index.astype(str),
                "cnt": kept.to_numpy(dtype=np.int64),
                "is_total": np.zeros(len(kept), dtype=np.int64),
            }
        )
        total_row = pd.DataFrame(
            {"term": [""], "cnt": [np.int64(n_b)], "is_total": [np.int64(1)]}
        )
        return pd.concat([out, total_row], ignore_index=True)

    summ = bucket_group_agg(
        docs.map_batches(summary, batch_format="pandas"),
        ["term", "is_total"],
        {"cnt": ("cnt", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    ntot = summ.map_batches(
        lambda df: pd.DataFrame(
            {"n": [df.loc[df["is_total"] == 1, "cnt"].sum()]}
        ),
        batch_format="pandas",
    ).sum("n")
    n_total = int(ntot or 0)
    if n_total == 0:
        import pyarrow as _pa

        return ray.data.from_arrow(
            pa.table({"term": _pa.array([], pa.string()),
                      "cnt": _pa.array([], pa.int64())})
        )
    required = math.ceil(threshold * n_total)
    cut = required - n_total // (kk + 1)
    if cut < 1:
        # a term below the cut can have been dropped from EVERY batch
        # summary, so cut < 1 voids the superset guarantee — the k the
        # caller picked is too small for this threshold at this corpus
        # size (need k+1 > total_tokens / required, default k = 2/θ
        # always satisfies it)
        raise ValueError(
            f"frequent_terms: k={kk} is too small for "
            f"threshold={threshold} at {n_total} tokens "
            f"(need k+1 > {n_total}/{required}); use k >= "
            f"{math.ceil(n_total / required)}"
        )

    cand = (
        summ.map_batches(
            lambda df: df[(df["is_total"] == 0) & (df["cnt"] >= cut)][
                ["term"]
            ],
            batch_format="pandas",
        )
        .to_pandas()["term"]
        .tolist()
    )
    if not cand:
        return ray.data.from_arrow(
            pa.table({"term": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})
        )
    cand_ref = ray.put(frozenset(cand))

    def recount(df: pd.DataFrame) -> pd.DataFrame:
        members = ray.get(cand_ref)
        toks = df[text_col].astype(str).str.split()
        d = pd.DataFrame({"term": toks}).explode("term").dropna()
        d = d[d["term"].isin(members)]
        if not len(d):
            return pd.DataFrame(
                {"term": pd.Series(dtype=str),
                 "cnt": pd.Series(dtype=np.int64)}
            )
        return d.groupby("term", as_index=False).agg(cnt=("term", "size"))

    exact = bucket_group_agg(
        docs.map_batches(recount, batch_format="pandas"),
        ["term"],
        {"cnt": ("cnt", "sum")},
        num_buckets=num_buckets,
    )
    def cutoff(df: pd.DataFrame) -> pd.DataFrame:
        # typed construction so an all-filtered block still carries the
        # (term, cnt) schema — a bare boolean mask would return a
        # schema-less empty frame and the Dataset would lose its schema
        # when every block filters out
        out = df[df["cnt"] >= required]
        return pd.DataFrame(
            {
                "term": out["term"].astype(str),
                "cnt": out["cnt"].to_numpy(dtype=np.int64),
            }
        )

    return exact.map_batches(cutoff, batch_format="pandas")


def cms_term_estimates(
    docs: ray.data.Dataset,
    probes: list[str],
    *,
    w: int = 1024,
    d: int = 4,
    text_col: str = "text",
) -> pd.DataFrame:
    """Count-Min sketch over corpus whitespace tokens, with point
    estimates for a fixed probe set (Cormode & Muthukrishnan 2005):
    estimate(p) = min_j M[j, h_j(p)], an upper bound on p's true count
    with overcount ≤ e/w · total_tokens at confidence 1 − e^-d.

    Hashes are SHA-256-derived (``h_j(t) = first-8-bytes of
    sha256(f"{j}|{t}") mod w``) — no RNG, bit-reproducible across runs
    and partitionings, and exactly recomputable in SQL (the
    ``docs_cms_counts`` oracle rebuilds every register cell in DuckDB
    and takes the same min — the HLL-oracle pattern).

    Per-batch partial: exact in-batch term counts, each distinct term
    adding its count to d cells; the d×w int64 matrix (32 KB at the
    defaults) is the ONLY thing shipped per block, partials merge by
    elementwise SUM on the driver — O(blocks · d · w) bytes, like the
    HLL register merge, never token rows. Returns pd.DataFrame
    (term, est) over the probes (est is int64; absent probes estimate
    to their cells' collision mass, possibly 0)."""
    m = np.zeros((d, w), dtype=np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {"term": df[text_col].astype(str).str.split()}
        ).explode("term")
        t = t[t["term"].notna() & (t["term"] != "")]
        mb = np.zeros((d, w), dtype=np.int64)
        if len(t):
            c = t.groupby("term").size()
            terms = c.index.to_numpy(dtype=object)
            cnts = c.to_numpy(dtype=np.int64)
            for j in range(d):
                idx = (
                    _sha_u64([f"{j}|{s}" for s in terms]) % np.uint64(w)
                ).astype(np.int64)
                np.add.at(mb[j], idx, cnts)
        return pd.DataFrame({"regs": [mb.tobytes()]})

    parts = docs.map_batches(partial, batch_format="pandas")
    for batch in parts.iter_batches(batch_format="pyarrow", batch_size=256):
        for blob in batch["regs"].to_pylist():
            m += np.frombuffer(blob, dtype=np.int64).reshape(d, w)

    out = []
    for p in probes:
        cells = [
            int(m[j, int(_sha_u64([f"{j}|{p}"])[0] % np.uint64(w))])
            for j in range(d)
        ]
        out.append((p, min(cells)))
    res = pd.DataFrame(out, columns=["term", "est"]).sort_values("term")
    res["est"] = res["est"].astype(np.int64)
    return res.reset_index(drop=True)


def histogram_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    bins: int = 4096,
    min_max: tuple[float, float] | None = None,
) -> pd.DataFrame:
    """Approximate quantiles from a MERGEABLE fixed-width histogram — the
    100-TB scale path beside :func:`exact_quantiles` (whose global
    range-partitioned sort is the one all-to-all this sketch avoids):
    one streaming (min, max) pass (skipped when ``min_max`` is given,
    e.g. a known value domain), one streaming bin-count pass shipping a
    single ``bins``-long int64 vector per BLOCK (32 KB at the default,
    the CMS/HLL register-merge shape), driver estimates by linear
    interpolation inside the covering bin. Error ≤ one bin width
    ``(hi−lo)/bins`` per estimate, counts exact integers ⇒ estimates
    identical under any partitioning.

    Determinism/SQL-parity: bin = ``min(floor(((x−lo)·bins)/(hi−lo)),
    bins−1)`` and estimate = ``lo + (bin + (t−cum_before)/c)·width``
    with target rank ``t = q·(n−1)`` — every arithmetic step is the
    same float64 expression tree DuckDB evaluates, so the oracle
    replays bit-identically. Returns pd.DataFrame (q, est)."""
    if not qs:
        return pd.DataFrame({"q": pd.Series([], dtype=np.float64),
                             "est": pd.Series([], dtype=np.float64)})
    base = ds.select_columns([col])
    if min_max is None:
        def mm(b: pa.Table) -> pa.Table:
            x = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
            if not len(x):
                return pa.table({"lo": pa.array([], pa.float64()),
                                 "hi": pa.array([], pa.float64())})
            return pa.table({"lo": [float(x.min())], "hi": [float(x.max())]})

        parts = base.map_batches(mm, batch_format="pyarrow").to_pandas()
        if not len(parts):
            raise ValueError("histogram_quantiles over an empty dataset")
        lo, hi = float(parts["lo"].min()), float(parts["hi"].max())
    else:
        lo, hi = float(min_max[0]), float(min_max[1])

    n_total = 0
    counts = np.zeros(bins, dtype=np.int64)
    span = hi - lo

    def binned(b: pa.Table) -> pa.Table:
        x = b[col].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = np.zeros(bins, dtype=np.int64)
        if len(x) and span > 0:
            # same float64 expression tree as the SQL replay:
            # multiply-before-divide, floor, clamp at the top edge
            idx = np.floor(((x - lo) * float(bins)) / span)
            idx = np.minimum(idx, bins - 1).astype(np.int64)
            np.add.at(cb, idx, 1)
        elif len(x):
            cb[0] = len(x)  # degenerate domain: everything in bin 0
        return pa.table({"regs": [cb.tobytes()], "n": [len(x)]})

    for batch in base.map_batches(
        binned, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=256):
        n_total += int(np.sum(batch["n"].to_numpy()))
        for blob in batch["regs"].to_pylist():
            counts += np.frombuffer(blob, dtype=np.int64)

    if n_total == 0:
        raise ValueError("histogram_quantiles over an empty dataset")
    cum_before = np.cumsum(counts) - counts
    width = span / float(bins)
    out = []
    for q in qs:
        if span == 0:
            out.append((float(q), lo))
            continue
        t = float(q) * float(n_total - 1)
        # first bin whose cumulative count exceeds t
        b = int(np.searchsorted(cum_before + counts, t, side="right"))
        b = min(b, bins - 1)
        while counts[b] == 0:  # guard: land on an occupied bin
            b -= 1
        est = lo + (b + (t - float(cum_before[b])) / float(counts[b])) * width
        out.append((float(q), float(est)))
    return pd.DataFrame(out, columns=["q", "est"]).astype(
        {"q": np.float64, "est": np.float64}
    )


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    *,
    weight_col: str,
    id_col: str,
    salt: str = "ws",
) -> pa.Table:
    """Weighted sampling WITHOUT replacement, RNG-free (Efraimidis &
    Spirakis 2006 exponential-key form): row i gets key
    ``round(−ln(u_i)/w_i, 6)`` with ``u_i = (sha63(salt|id) + 0.5)/2⁶³``
    a deterministic hash-uniform; the k SMALLEST keys are the sample —
    inclusion probability ∝ weight, identical under any partitioning /
    re-run, and independent samples per ``salt``. Rows with weight ≤ 0
    are excluded. Ties (6-dp keys) break to the lower id, so a SQL
    replay (`ORDER BY key, id LIMIT k`) selects the same rows.

    Dataflow: per-block vectorized keys + local (key, id) bottom-k, so
    ≤ k rows per block reach the ONE tiny sort+limit reduce — the
    :func:`bottomk_sample` shape with exponential keys."""

    def local(batch: pa.Table) -> pa.Table:
        batch = batch.replace_schema_metadata(None)
        if batch.num_rows == 0:
            return batch.append_column("__key", pa.array([], pa.float64()))
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ids = batch[id_col].to_pylist()
        h63 = _sha_u64([f"{salt}|{v}" for v in ids]) >> np.uint64(1)
        u = (h63.astype(np.float64) + 0.5) / 9223372036854775808.0
        key = np.round(-np.log(u) / w, 6)
        keep = w > 0
        idx = np.flatnonzero(keep)
        order = np.lexsort(
            (batch[id_col].to_numpy(zero_copy_only=False)[idx], key[idx])
        )[: min(k, len(idx))]
        sel = idx[order]
        out = batch.take(pa.array(sel))
        return out.append_column("__key", pa.array(key[sel]))

    cand = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
    df = cand.sort(["__key", id_col]).limit(k).to_pandas()
    return pa.Table.from_pandas(df, preserve_index=False)


def exact_group_quantile(
    ds: ray.data.Dataset, group_col: str, col: str, q: float
) -> "pd.DataFrame":
    """EXACT per-group ``quantile_disc(col, q)`` — the generalization of
    :func:`exact_quantiles` to a PARTITION BY: one tiny per-group count
    fold, ONE global (group, value) range-partitioned sort, and each
    group's order statistic read via ``split_at_indices`` at its global
    position (group offset + ceil(q·n_g)−1, the DuckDB quantile_disc
    index rule) — O(groups) driver rows, never a data block. Hot groups
    are range-split by the sort like any other key run, so a group 1000×
    larger than the rest costs wider sort output, not a hot reducer.
    Returns (group_col, cut) sorted by group. Group values must sort the
    same way in Arrow (binary) and Python (codepoint) — true for ASCII
    keys; the in-place assertion catches violations."""
    import math

    parts = (
        ds.select_columns([group_col])
        .map_batches(
            lambda df: df.groupby(group_col, as_index=False).size(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    if not len(parts):
        return pd.DataFrame({group_col: pd.Series(dtype=object),
                             "cut": pd.Series(dtype=np.float64)})
    counts = parts.groupby(group_col)["size"].sum().sort_index()
    starts = counts.cumsum().shift(fill_value=0)
    idx_of = {
        g: int(starts[g])
        + min(int(n_g) - 1, max(0, math.ceil(float(q) * int(n_g)) - 1))
        for g, n_g in counts.items()
    }
    s = ds.select_columns([group_col, col]).sort([group_col, col]).materialize()
    uniq = sorted(set(idx_of.values()))
    splits = s.split_at_indices(uniq)
    val_at = {}
    for j, k in enumerate(uniq):
        row = splits[j + 1].take(1)[0]
        val_at[k] = (row[group_col], float(row[col]))
    rows = []
    for g in counts.index:
        rg, v = val_at[idx_of[g]]
        assert rg == g, (
            f"group offset arithmetic landed in {rg!r} instead of {g!r} — "
            "Arrow vs Python sort-order mismatch on the group keys"
        )
        rows.append(v)
    return pd.DataFrame({group_col: list(counts.index), "cut": rows})
