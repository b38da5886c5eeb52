"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Ray-Data-first shapes (https://docs.ray.io/en/latest/data/transforming-data.html):
signatures are computed by stateless ``map_batches`` tasks on Ray's pooled
workers (a derived table such as the MinHash permutations is cached per
worker process), candidates come from a shuffle on LSH bucket keys,
verification happens inside the shuffle bucket, and duplicate *groups* are
the connected components of the verified pair graph — computed with this
repo's own WCC engine when the pair set is large, or driver-side
union-find when it is small.

Hot-bucket safety (MinHash): one vectorized verify per shuffle bucket
covers many LSH buckets. It collapses identical signatures per LSH bucket
first (members of one signature class are pairwise duplicates by
construction), so the O(u²)·num_perm compare runs over the u *distinct*
signatures only, in fixed-size chunks — an LSH bucket holding k copies of
one document costs O(k) compare work plus the (irreducible) O(k²) pair
output. A pair is emitted once, from the lowest band in which its two
signatures collide, so no pair-dedup shuffle follows.

Determinism: all hashing is seeded/stable (splitmix64 over stable word ids);
results are identical across runs and parallelism levels.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray.datapipe import _util
from flashray.ids import _splitmix64
from flashray.joins import (
    bucket_group_agg,
    bucket_hash_join,
    bucket_map,
    bucket_semi_join,
    pairs_within_groups,
)

_MERSENNE61 = np.uint64((1 << 61) - 1)


def _mod_m61(x: np.ndarray) -> np.ndarray:
    """x mod 2^61-1 for x < 2^64 (uses 2^61 ≡ 1 (mod M) folding)."""
    with np.errstate(over="ignore"):
        r = (x >> np.uint64(61)) + (x & _MERSENNE61)
    return np.where(r >= _MERSENNE61, r - _MERSENNE61, r)


def _perm_hash(a: np.ndarray, b: np.ndarray, x31: np.ndarray) -> np.ndarray:
    """Exact universal hash (a·x + b) mod 2^61-1 with a,b < 2^61 and
    x < 2^31, computed WITHOUT wrapping mod 2^64 (a plain ``(a*x+b) % M``
    in uint64 silently reduces mod 2^64 first, which is not the universal
    family and weakens min-wise independence). Split a = ah·2^32 + al;
    ah·x·2^32 is folded via 2^61 ≡ 1 (mod M). Broadcasts."""
    with np.errstate(over="ignore"):
        ah = a >> np.uint64(32)  # < 2^29
        al = a & np.uint64(0xFFFF_FFFF)
        t = ah * x31  # < 2^60, exact
        hi = t >> np.uint64(29)
        lo = t & np.uint64((1 << 29) - 1)
        part = hi + (lo << np.uint64(32))  # ≡ t·2^32 (mod M), < 2^61+2^31
        total = _mod_m61(part + al * x31)  # al·x31 < 2^63: sum exact
        return _mod_m61(total + b)


def _word_hash64(token: str) -> int:
    """Full 64-bit token hash: first 8 bytes (big-endian) of
    sha256("w:" + token) — chosen to be reproducible in DuckDB SQL
    (``CAST('0x' || substr(sha256('w:' || w), 1, 16) AS UBIGINT)``) so the
    driver's SimHash oracle can recompute signatures independently."""
    import hashlib

    return int.from_bytes(
        hashlib.sha256(("w:" + token).encode("utf-8")).digest()[:8], "big"
    )


def _word_codes(tokens: list[str]) -> np.ndarray:
    """Stable 64-bit code per token (unique tokens hashed once)."""
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    uniq, inv = np.unique(np.asarray(tokens, dtype=object), return_inverse=True)
    codes = np.fromiter(
        (_word_hash64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
    )
    return codes[inv]


def _shingle_hashes(codes: np.ndarray, n: int) -> np.ndarray:
    """Hashes of word n-grams: splitmix-combine of n consecutive word codes
    (vectorized sliding window). The FIRST code is hashed before any XOR
    combine — seeding the chain with the raw code made the first two
    positions order-insensitive (``sm(a^b) == sm(b^a)``), a structural
    collision between shingles like "data stream data" / "stream data
    data" observed in the wild at sf0.001. The recurrence
    ``h_0 = sm(c_0); h_i = sm(h_{i-1} ^ c_i)`` is shared with the
    degenerate short-doc path below (identical for len == n)."""
    if len(codes) < n:
        # degenerate doc: hash the whole token sequence as one shingle
        if len(codes) == 0:
            return np.asarray([_splitmix64(np.zeros(1, dtype=np.uint64))[0]])
        h = _splitmix64(codes[:1])
        with np.errstate(over="ignore"):
            for c in codes[1:]:
                h = _splitmix64(h ^ c)
        return h.astype(np.uint64)
    with np.errstate(over="ignore"):
        acc = _splitmix64(codes[: len(codes) - n + 1])
        for i in range(1, n):
            acc = _splitmix64(acc ^ codes[i : len(codes) - n + 1 + i])
    return np.unique(acc)


@functools.lru_cache(maxsize=None)
def _minhash_perms(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) permutation table of ``num_perm`` universal hashes, drawn
    from ``seed`` once per worker process."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE61, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE61, size=num_perm, dtype=np.uint64)
    return a, b


def _minhash_sig(text: str, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    sh = _shingle_hashes(_word_codes((text or "").split()), n)
    if len(sh) == 0:
        return np.zeros(len(a), dtype=np.uint64)
    # mix the 64-bit shingle hash down to the 31-bit universe the exact
    # universal hash requires (see _perm_hash)
    with np.errstate(over="ignore"):
        x31 = (sh ^ (sh >> np.uint64(31)) ^ (sh >> np.uint64(53))) & np.uint64(
            0x7FFF_FFFF
        )
    vals = _perm_hash(a[:, None], b[:, None], x31[None, :])
    return vals.min(axis=1).astype(np.uint64)


def _minhash_signatures(
    batch: pa.Table, *, text_col="text", num_perm=128, shingle_n=3, seed=42
) -> pa.Table:
    """Adds a ``signature`` column (fixed_size_list<uint64>) of MinHash
    values over word n-gram shingles; a stateless ``map_batches`` task.
    Arrow in/out keeps the exchange zero-copy and the block schema
    Arrow-native (pandas object-array columns confuse downstream schema
    unification)."""
    a, b = _minhash_perms(num_perm, seed)
    texts = batch[text_col].to_pylist()
    sigs = [_minhash_sig(t, a, b, shingle_n) for t in texts]
    sigs = np.concatenate(sigs) if sigs else np.empty(0, dtype=np.uint64)
    col = pa.FixedSizeListArray.from_arrays(pa.array(sigs, type=pa.uint64()), num_perm)
    return batch.append_column("signature", col)


class MinHashSignatures:
    """Callable-class form of :func:`_minhash_signatures`, for callers
    that run it in their own actor pool."""

    def __init__(self, *, text_col="text", num_perm=128, shingle_n=3, seed=42):
        self.kwargs = dict(
            text_col=text_col, num_perm=num_perm, shingle_n=shingle_n, seed=seed
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _minhash_signatures(batch, **self.kwargs)


def _band_keys(sigs: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """(n, bands) LSH bucket keys of (n, perm) signatures: each band's
    rows_per_band values folded with splitmix64 from the band index —
    rows_per_band vectorized calls over (n, bands), no Python per row."""
    n = len(sigs)
    S = sigs[:, : bands * rows_per_band].reshape(n, bands, rows_per_band)
    with np.errstate(over="ignore"):
        h = np.broadcast_to(np.arange(bands, dtype=np.uint64), (n, bands)).copy()
        for r in range(rows_per_band):
            h = _splitmix64(h ^ S[:, :, r])
    return (h & np.uint64(0x7FFF_FFFF_FFFF_FFFF)).astype(np.int64)


def _band_rows(
    batch: pa.Table, *, id_col: str, bands: int, rows_per_band: int
) -> pa.Table:
    """Explode signatures to (bucket, doc_id, signature) LSH-band rows.

    Fully vectorized over Arrow: the fixed_size_list signature column is
    viewed zero-copy as (n, perm) and keyed by :func:`_band_keys`. Output
    rows are row-major (row, band) order."""
    n = batch.num_rows
    num_perm = bands * rows_per_band
    if n == 0:
        return pa.table(
            {
                "bucket": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "signature": pa.array(
                    [], type=pa.list_(pa.uint64(), num_perm)
                ),
            }
        )
    sig_col = batch["signature"].combine_chunks()
    sigs = (
        sig_col.values.to_numpy(zero_copy_only=False)
        .astype(np.uint64, copy=False)
        .reshape(n, -1)
    )
    buckets = _band_keys(sigs, bands, rows_per_band).ravel()
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
    return pa.table(
        {
            "bucket": pa.array(buckets),
            "doc_id": pa.array(np.repeat(ids, bands)),
            "signature": sig_col.take(rep),
        }
    )


def _empty_pairs(value_col: str, dtype: str) -> pd.DataFrame:
    return pd.DataFrame(
        {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
         value_col: pd.Series(dtype=dtype)}
    )


# representative pairs compared per vectorized step of the MinHash verify
_VERIFY_CHUNK = 8192


def _anchor_pairs(end: np.ndarray, chunk: int):
    """Yield every (i, j) with i < j < end[i] as index arrays of about
    ``chunk`` pairs each (one anchor's partners are never split), so the
    enumeration holds O(chunk) pairs however large one group is."""
    cnt = end - np.arange(len(end)) - 1
    cum = np.cumsum(cnt)
    lo = 0
    while lo < len(end):
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - cnt[lo] + chunk, "right")))
        c = cnt[lo:hi]
        i = np.repeat(np.arange(lo, hi), c)
        if len(i):
            yield i, i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(c) - c, c)
        lo = hi


def _bucket_pairs(
    group: pd.DataFrame, *, threshold: float, bands: int, rows_per_band: int
) -> pd.DataFrame:
    """Verify every LSH bucket of one shuffle bucket by estimated Jaccard
    (signature agreement rate) in one vectorized pass.

    Rows collapse to signature classes, one per distinct (LSH bucket,
    signature): compare cost is O(u²·perm) over the u DISTINCT signatures
    of an LSH bucket (k exact copies cost one class, not O(k²) compares).
    Representative pairs are compared ``_VERIFY_CHUNK`` at a time and the
    hits expand to member products — agreement between members equals
    agreement between representatives by construction; within-class pairs
    expand at similarity 1.0. A pair is emitted only from the lowest band
    in which its two signatures collide (recomputed from the signatures),
    so each pair leaves exactly one call (doc ids are unique)."""
    if len(group) < 2:
        return _empty_pairs("similarity", "float64")
    key = group["bucket"].to_numpy(dtype=np.int64)
    ids = group["doc_id"].to_numpy(dtype=np.int64)
    sigs = np.stack(group["signature"].to_numpy()).astype(np.uint64, copy=False)
    # classes sorted by LSH bucket key (keys are non-negative int64)
    cls, inv = np.unique(
        np.column_stack([key.astype(np.uint64), sigs]), axis=0, return_inverse=True
    )
    inv = inv.reshape(-1)
    rep_key = cls[:, 0].astype(np.int64)
    rep_sig = cls[:, 1:]
    band = _band_keys(rep_sig, bands, rows_per_band)
    order = np.lexsort((ids, inv))
    members = ids[order]  # ascending ids within each class
    size = np.bincount(inv, minlength=len(cls))
    start = np.cumsum(size) - size
    out = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    # members of one class collide in every band: emit them from band 0
    own = (size > 1) & (rep_key == band[:, 0])
    keep = own[inv[order]]
    a, b, _ = pairs_within_groups(inv[order][keep], members[keep])
    out.append((a, b, np.ones(len(a))))
    end = np.searchsorted(rep_key, rep_key, side="right")
    for i, j in _anchor_pairs(end, _VERIFY_CHUNK):
        agree = (rep_sig[i] == rep_sig[j]).mean(axis=1)
        hit = agree >= threshold
        i, j, agree = i[hit], j[hit], agree[hit]
        same = band[i] == band[j]
        first = same.argmax(axis=1)
        low = same[np.arange(len(i)), first] & (band[i, first] == rep_key[i])
        i, j, agree = i[low], j[low], agree[low]
        n = size[i] * size[j]
        r = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        nj = np.repeat(size[j], n)
        A = members[np.repeat(start[i], n) + r // nj]
        B = members[np.repeat(start[j], n) + r % nj]
        out.append((np.minimum(A, B), np.maximum(A, B), np.repeat(agree, n)))
    a, b, sim = (np.concatenate(c) for c in zip(*out))
    return pd.DataFrame({"a": a, "b": b, "similarity": sim})


def _auto_bands(num_perm: int, threshold: float) -> int:
    """Pick the LSH band count whose S-curve threshold (1/b)^(1/r) sits at
    or below the requested Jaccard threshold (maximal rows-per-band =
    fewest buckets given that recall constraint)."""
    best = num_perm  # r=1: recalls everything, most candidate noise
    for r in range(num_perm, 0, -1):
        if num_perm % r:
            continue
        b = num_perm // r
        if b >= 2 and (1.0 / b) ** (1.0 / r) <= threshold:
            return b
    return best


def candidate_pairs_minhash(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int | None = None,
    shingle_n: int = 3,
    threshold: float = 0.7,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """MinHash+LSH near-duplicate pairs (a < b, estimated Jaccard ≥
    threshold), each pair once. ``bands=None`` derives the banding from
    the threshold so recall at the stated threshold stays high (128
    perms: threshold 0.5 or 0.7 → 32 bands of 4, 0.8 → 16 bands of 8,
    0.9 → 8 bands of 16). Signatures are stateless tasks (at most
    ``concurrency`` at a time); one bucket shuffle on the LSH key feeds
    :func:`_bucket_pairs`."""
    if bands is None:
        bands = _auto_bands(num_perm, threshold)
    rows_per_band = num_perm // bands
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        _minhash_signatures,
        fn_kwargs={
            "text_col": text_col,
            "num_perm": num_perm,
            "shingle_n": shingle_n,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )
    bands_ds = sigs.map_batches(
        _band_rows,
        fn_kwargs={"id_col": id_col, "bands": bands, "rows_per_band": rows_per_band},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    verify = functools.partial(
        _bucket_pairs, threshold=threshold, bands=bands, rows_per_band=rows_per_band
    )
    return bucket_map(bands_ds, ["bucket"], verify, num_buckets=64)


def duplicate_groups(
    pairs: ray.data.Dataset,
    *,
    scratch_dir: str | None = None,
    engine_pair_threshold: int = 5_000_000,
) -> pd.DataFrame:
    """Connected components of the verified pair graph → (doc_id, group)
    with group = min doc_id of the component. Driver union-find for small
    pair sets; above ``engine_pair_threshold`` pairs the repo's own WCC
    engine runs over the pair edges AUTOMATICALLY (under a temp dir unless
    ``scratch_dir`` names one) — at 100-TB dedup the pair set can itself be
    huge, so the driver path must not be the silent default there."""
    pairs = pairs.materialize()
    own_scratch = False
    if scratch_dir is None and pairs.count() > engine_pair_threshold:
        import tempfile

        scratch_dir = tempfile.mkdtemp(prefix="flashray_dupgroups_")
        own_scratch = True
    if scratch_dir is not None:
        from flashray import algorithms
        from flashray.build import build_graph
        from flashray.fixtures import edges_table

        def to_edges(b: pa.Table) -> pa.Table:
            a = b["a"].to_numpy(zero_copy_only=False)
            bb = b["b"].to_numpy(zero_copy_only=False)
            return edges_table(
                np.concatenate([a, bb]), np.concatenate([bb, a])
            )

        try:
            g = build_graph(
                pairs.map_batches(
                    to_edges, batch_format="pyarrow", zero_copy_batch=True
                ),
                scratch_dir,
                num_partitions=8,
            )
            df = algorithms.wcc(g)
        finally:
            if own_scratch:
                # auto-created temp dir: don't leak graph-build artifacts
                import shutil

                shutil.rmtree(scratch_dir, ignore_errors=True)
        return df.rename(columns={"vertex_id": "doc_id", "value": "group"})

    pdf = pairs.to_pandas()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pdf["a"].astype(int), pdf["b"].astype(int)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    rows = sorted((doc, find(doc)) for doc in parent)
    return pd.DataFrame(rows, columns=["doc_id", "group"]).astype("int64")


def exact_dedup(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id",
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Exact dedup: one surviving row id per distinct text (min id), via a
    content-hash groupby — (text_hash, keep_id, n_copies).

    Fingerprints are near-unique keys, so the aggregate goes through
    joins.bucket_group_agg (one bucket shuffle + a vectorized pandas
    groupby per bucket) — measured 6-17× faster than Ray's per-group
    aggregate on near-unique keys."""
    from flashray.datapipe.textstats import fingerprint_batch
    hashed = ds.select_columns([id_col, text_col]).map_batches(
        fingerprint_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        concurrency=concurrency,
    )
    agg = bucket_group_agg(
        hashed.select_columns(["fingerprint", id_col]),
        ["fingerprint"],
        {"keep_id": (id_col, "min"), "n_copies": (id_col, "size")},
    )
    return agg.map_batches(
        lambda b: b.rename_columns(
            ["text_hash" if c == "fingerprint" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


_BITS64 = np.arange(64, dtype=np.uint64)


def _simhash_sigs(texts: list[str]) -> np.ndarray:
    """64-bit SimHash over word hashes: bit b of the signature is the sign
    of the sum of ±1 votes from each token's hash bit b (token multiplicity
    counts). Batch-vectorized: all words of the batch flattened, bit matrix
    built once, per-doc vote sums via reduceat. Bit 63 is masked (Arrow
    int64)."""
    words_per = [(t or "").split() for t in texts]
    counts = np.asarray([len(w) for w in words_per], dtype=np.int64)
    sig = np.zeros(len(texts), dtype=np.int64)
    nz = counts > 0
    if nz.any():
        flat = [w for ws, ok in zip(words_per, nz) if ok for w in ws]
        codes = _word_codes(flat)
        bits = ((codes[:, None] >> _BITS64[None, :]) & np.uint64(1)).astype(np.int16)
        offs = np.r_[0, np.cumsum(counts[nz])[:-1]]
        votes = np.add.reduceat(2 * bits - 1, offs, axis=0)
        s64 = (
            ((votes > 0).astype(np.uint64) << _BITS64[None, :])
            .sum(axis=1, dtype=np.uint64)
        )
        sig[nz] = (s64 & np.uint64(0x7FFF_FFFF_FFFF_FFFF)).astype(np.int64)
    return sig


def _simhash_signatures(batch: pd.DataFrame, *, text_col: str = "text") -> pd.DataFrame:
    """Adds a ``simhash`` column; a stateless ``map_batches`` task."""
    batch["simhash"] = _simhash_sigs(batch[text_col].tolist())
    return batch


class SimHashSignatures:
    """Callable-class form of :func:`_simhash_signatures`."""

    def __init__(self, *, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return _simhash_signatures(batch, text_col=self.text_col)


def candidate_pairs_simhash(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """SimHash near-dup pairs: bucket by each of 4 16-bit chunks (any pair
    within hamming ≤ 3 of 64 bits agrees on ≥ 1 chunk), verify hamming."""
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        _simhash_signatures,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        concurrency=concurrency,
    )

    def bands(batch: pd.DataFrame) -> pd.DataFrame:
        sig = batch["simhash"].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy()
        out = []
        for c in range(4):
            chunk = (sig >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            bucket = (np.int64(c) << np.int64(16)) | chunk.astype(np.int64)
            out.append(pd.DataFrame({"bucket": bucket, "doc_id": ids, "simhash": sig.astype(np.int64)}))
        return pd.concat(out, ignore_index=True)

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            return _empty_pairs("hamming", "int64")
        ids = group["doc_id"].to_numpy()
        sig = group["simhash"].to_numpy().astype(np.uint64)
        order = np.argsort(ids)
        ids, sig = ids[order], sig[order]
        uniq, inv = np.unique(sig, return_inverse=True)
        u = len(uniq)
        out = []
        order2 = np.argsort(inv, kind="stable")
        if u < n:
            # identical signatures: pairwise hamming 0
            a, b, _ = pairs_within_groups(inv[order2], ids[order2])
            if len(a):
                out.append(
                    pd.DataFrame(
                        {"a": a, "b": b,
                         "hamming": np.zeros(len(a), dtype=np.int64)}
                    )
                )
        if u >= 2:
            counts = np.bincount(inv, minlength=u)
            bounds = np.r_[0, np.cumsum(counts)]
            members_sorted = ids[order2]
            for i in range(u - 1):
                x = uniq[i + 1 :] ^ uniq[i]
                # vectorized popcount via byte view + unpackbits
                ham = (
                    np.unpackbits(x[:, None].view(np.uint8), axis=1)
                    .sum(axis=1)
                    .astype(np.int64)
                )
                hits = np.flatnonzero(ham <= max_hamming)
                if not len(hits):
                    continue
                mi = members_sorted[bounds[i] : bounds[i + 1]]
                for j in hits:
                    gj = i + 1 + j
                    mj = members_sorted[bounds[gj] : bounds[gj + 1]]
                    A = np.repeat(mi, len(mj))
                    B = np.tile(mj, len(mi))
                    out.append(
                        pd.DataFrame(
                            {"a": np.minimum(A, B), "b": np.maximum(A, B),
                             "hamming": np.full(len(A), ham[j], dtype=np.int64)}
                        )
                    )
        if not out:
            return _empty_pairs("hamming", "int64")
        return pd.concat(out, ignore_index=True)

    # natural key: `verify` compares the pairs within one LSH band bucket
    pairs = (
        sigs.map_batches(bands, batch_format="pandas")
        .groupby("bucket")
        .map_groups(verify, batch_format="pandas")
    )
    return bucket_group_agg(pairs, ["a", "b"], {"hamming": ("hamming", "min")})


def candidate_pairs_ngram_jaccard(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_n: int = 3,
    threshold: float = 0.5,
    num_perm: int = 128,
    bands: int = 32,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Exact n-gram Jaccard pairs: MinHash-LSH proposes candidates (loose
    bands), then the true Jaccard over shingle sets is computed inside the
    bucket (texts travel with the bucket rows)."""
    rows_per_band = num_perm // bands
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        _minhash_signatures,
        fn_kwargs={
            "text_col": text_col,
            "num_perm": num_perm,
            "shingle_n": shingle_n,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        out = _band_rows(
            batch, id_col=id_col, bands=bands, rows_per_band=rows_per_band
        )
        # _band_rows emits (row, band)-major rows: texts repeat in step
        texts = np.repeat(
            np.asarray(batch[text_col].to_pylist(), dtype=object), bands
        )
        return out.drop_columns(["signature"]).append_column(
            "text", pa.array(texts, type=pa.string())
        )

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        n = len(group)
        if n < 2:
            return _empty_pairs("jaccard", "float64")
        g = group.drop_duplicates("doc_id").sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        shingles = [
            set(_shingle_hashes(_word_codes((t or "").split()), shingle_n).tolist())
            for t in g["text"]
        ]
        out_a, out_b, out_j = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                inter = len(shingles[i] & shingles[j])
                union = len(shingles[i] | shingles[j])
                jac = inter / union if union else 0.0
                if jac >= threshold:
                    out_a.append(ids[i]); out_b.append(ids[j]); out_j.append(jac)
        return pd.DataFrame({"a": out_a, "b": out_b, "jaccard": out_j})

    # natural key: `verify` compares the pairs within one LSH band bucket
    pairs = (
        sigs.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(verify, batch_format="pandas")
    )
    return bucket_group_agg(pairs, ["a", "b"], {"jaccard": ("jaccard", "max")})


def exact_jaccard_pairs(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_n: int = 3,
    threshold: float = 0.5,
    max_df: int | None = None,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """EXACT n-gram Jaccard near-duplicate pairs via a shingle inverted
    index — no LSH, hence no false negatives (contrast with
    :func:`candidate_pairs_ngram_jaccard`, whose MinHash bands are
    probabilistic). Jaccard is computed over each document's set of
    DISTINCT word ``shingle_n``-gram hashes; a hash collision among
    distinct shingles is the only approximation (negligible at 64 bits).

    Dataflow (two bucket shuffles, both O(total postings)):
      1. explode each doc into its distinct shingle hashes, each posting
         row carrying the doc's shingle-set size ``ns``;
      2. bucket shuffle on the shingle hash groups postings per shingle;
         every posting list of size c emits its C(c,2) doc pairs fully
         vectorized (:func:`flashray.joins.pairs_within_groups`);
      3. a second bucket aggregate counts each pair's shared shingles
         = |A∩B|; |A∪B| = nsA + nsB − |A∩B| needs no further join.

    ``max_df`` is the scale knob: drop shingles appearing in more than
    ``max_df`` documents. Boilerplate shingles generate O(df²) pair rows
    while contributing the same +1 to every true near-dup's intersection
    AND union; with the cap set, the reported Jaccard is exact over the
    restricted shingle vocabulary (documented approximation). ``None`` =
    fully exact (safe when the corpus has been boilerplate-stripped or
    when near-dup groups are known to be small)."""
    B = int(num_buckets)

    def postings(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col].to_pylist()
        sh_parts: list[np.ndarray] = []
        counts = np.empty(len(ids), dtype=np.int64)
        for k, t in enumerate(texts):
            sh = _shingle_hashes(_word_codes((t or "").split()), shingle_n)
            sh_parts.append(sh)
            counts[k] = len(sh)
        sh_all = (
            np.concatenate(sh_parts) if sh_parts else np.empty(0, np.uint64)
        )
        return pa.table(
            {
                "shingle": pa.array(sh_all.view(np.int64)),
                "doc": pa.array(np.repeat(ids, counts)),
                "ns": pa.array(np.repeat(counts, counts)),
            }
        )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["shingle", "doc"], kind="mergesort")
        sh = d["shingle"].to_numpy()
        if max_df is not None:
            _, inv, cnt = np.unique(sh, return_inverse=True, return_counts=True)
            keep = cnt[inv] <= int(max_df)
            d = d.iloc[keep]
            sh = sh[keep]
        idx = np.arange(len(d))
        i, j, _ = pairs_within_groups(sh, idx)
        doc = d["doc"].to_numpy()
        ns = d["ns"].to_numpy()
        return pd.DataFrame(
            {"a": doc[i], "b": doc[j], "nsa": ns[i], "nsb": ns[j]}
        )

    posts = ds.select_columns([id_col, text_col]).map_batches(
        postings, batch_format="pyarrow", zero_copy_batch=True
    )
    pair_rows = bucket_map(posts, ["shingle"], emit_pairs, num_buckets=B)
    counted = bucket_group_agg(
        pair_rows,
        ["a", "b"],
        {"inter": ("a", "size"), "nsa": ("nsa", "first"), "nsb": ("nsb", "first")},
        num_buckets=B,
    )

    thr = float(threshold)

    def score(b: pa.Table) -> pa.Table:
        inter = b["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = (
            b["nsa"].to_numpy(zero_copy_only=False)
            + b["nsb"].to_numpy(zero_copy_only=False)
            - inter
        ).astype(np.float64)
        jac = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
        keep = jac >= thr
        return pa.table(
            {
                "a": b["a"].filter(pa.array(keep)),
                "b": b["b"].filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return counted.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def line_dedup(
    docs: ray.data.Dataset,
    *,
    min_count: int = 2,
    sep: str = "\n",
    num_buckets: int = 64,
    salt_buckets: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """C4-style cross-corpus record-unit dedup (Raffel et al., JMLR 2020
    §2.2 removed all but one of any repeated three-sentence span): split
    every document on ``sep``, count each non-empty unit's occurrences
    across the WHOLE corpus, and drop every occurrence of a unit seen
    >= ``min_count`` times except the globally-first one (smallest
    (doc_id, position)). Returns one row per input document:
    (doc_id, text_dedup, lines_total, lines_kept); empty units never
    count and are never emitted.

    Dataflow (3 shuffles, skew-armored):
      1. explode -> per-batch PARTIAL (n, first) per unit, so a unit
         repeated across the corpus contributes one row per batch, not
         per occurrence, to the stats shuffle;
      2. bucket_group_agg of partials -> (unit, n, first);
      3. occurrences LEFT-join stats on (unit, doc_id % salt_buckets)
         with the stats side replicated ``salt_buckets`` times — a unit
         duplicated into millions of documents spreads over
         ``salt_buckets`` buckets instead of melting one task;
      4. reassemble per document (bucket by doc_id, vectorized groupby).

    Positions are packed as doc_id*1e6 + position for the global-first
    min — documents are assumed to have < 1e6 units (and ids < 2^43)."""
    S = int(salt_buckets)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy().astype(np.int64),
                "text": df[text_col].astype(str),
            }
        )
        s = d.assign(line=d["text"].str.split(sep, regex=False))[
            ["doc_id", "line"]
        ].explode("line")
        s["line_idx"] = s.groupby("doc_id").cumcount().to_numpy() + 1
        s = s[s["line"].astype(str) != ""]
        # one sentinel row per doc so all-empty documents still appear
        # in the reassembly stage (never counted, never kept)
        sent = pd.DataFrame(
            {
                "doc_id": d["doc_id"],
                "line": "",
                "line_idx": np.zeros(len(d), dtype=np.int64),
            }
        )
        out = pd.concat([s, sent], ignore_index=True)
        out["line_idx"] = out["line_idx"].astype(np.int64)
        out["packed"] = out["doc_id"] * 1_000_000 + out["line_idx"]
        return out

    occ = docs.map_batches(explode, batch_format="pandas").materialize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nz = df[df["line"] != ""]
        if not len(nz):
            return pd.DataFrame(
                {
                    "line": pd.Series(dtype=str),
                    "n": pd.Series(dtype=np.int64),
                    "first": pd.Series(dtype=np.int64),
                }
            )
        return nz.groupby("line", as_index=False).agg(
            n=("packed", "size"), first=("packed", "min")
        )

    stats = bucket_group_agg(
        occ.map_batches(partial, batch_format="pandas"),
        ["line"],
        {"n": ("n", "sum"), "first": ("first", "min")},
        num_buckets=num_buckets,
    )

    def rep_stats(df: pd.DataFrame) -> pd.DataFrame:
        k = len(df)
        out = df.loc[df.index.repeat(S)].reset_index(drop=True)
        out["__jsalt"] = np.tile(np.arange(S, dtype=np.int64), k)
        return out

    def salt_occ(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__jsalt"] = (df["doc_id"].to_numpy() % S).astype(np.int64)
        return df

    flagged = bucket_hash_join(
        occ.map_batches(salt_occ, batch_format="pandas"),
        stats.map_batches(rep_stats, batch_format="pandas"),
        ["line", "__jsalt"],
        how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("doc_id", pa.int64()),
                ("line", pa.string()),
                ("line_idx", pa.int64()),
                ("packed", pa.int64()),
                ("__jsalt", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [
                ("line", pa.string()),
                ("n", pa.int64()),
                ("first", pa.int64()),
                ("__jsalt", pa.int64()),
            ]
        ),
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.float64, na_value=np.inf)
        first = df["first"].to_numpy(dtype=np.float64, na_value=-1.0)
        kept = (df["line"].to_numpy() != "") & (
            (n < min_count) | (df["packed"].to_numpy() == first)
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "line": df["line"],
                "line_idx": df["line_idx"].to_numpy().astype(np.int64),
                "kept": kept,
            }
        )

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "line_idx"], kind="stable")
        base = g[["doc_id"]].drop_duplicates().set_index("doc_id")
        nz = g[g["line"] != ""]
        total = nz.groupby("doc_id").size()
        kept = nz[nz["kept"]]
        keptn = kept.groupby("doc_id").size()
        txt = kept.groupby("doc_id")["line"].agg(sep.join)
        res = base.assign(
            text_dedup=txt, lines_total=total, lines_kept=keptn
        ).reset_index()
        res["text_dedup"] = res["text_dedup"].fillna("")
        res["lines_total"] = res["lines_total"].fillna(0).astype(np.int64)
        res["lines_kept"] = res["lines_kept"].fillna(0).astype(np.int64)
        return res[["doc_id", "text_dedup", "lines_total", "lines_kept"]]

    return bucket_map(
        flagged.map_batches(flag, batch_format="pandas"),
        ["doc_id"],
        assemble,
        num_buckets=num_buckets,
    )


def decontaminate(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Benchmark decontamination (the Dolma/Llama training-data step):
    count, per candidate document, how many of its distinct word n-grams
    appear ANYWHERE in the benchmark corpus. Returns (doc_id, n_hits) for
    every candidate doc — filter ``n_hits == 0`` to keep, or threshold for
    a softer policy; docs shorter than n words have no n-grams (0 hits).

    Dataflow (100-TB shape): both sides explode to DISTINCT n-grams
    map-side (one row per distinct (doc, ngram) — repeated n-grams inside
    a doc never leave the batch), the benchmark set dedupes through one
    bucket aggregate, one hash-partitioned join on the n-gram string
    scores hits, one bucket aggregate counts per doc, and a left join
    restores zero-hit docs. No broadcast assumption: a huge benchmark
    set costs one extra shuffle, never driver memory."""
    I64 = pa.int64()

    def doc_ngrams(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        ids = df[id_col].to_numpy()
        out_id, out_ng = [], []
        for d, ws in zip(ids, toks):
            if len(ws) < n:
                continue
            grams = {
                " ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)
            }
            out_id.extend([int(d)] * len(grams))
            out_ng.extend(sorted(grams))
        return pd.DataFrame(
            {"doc_id": pd.Series(out_id, dtype=np.int64),
             "ngram": pd.Series(out_ng, dtype=str)}
        )

    bench_ng = bucket_group_agg(
        benchmark.map_batches(doc_ngrams, batch_format="pandas").map_batches(
            lambda b: b.select(["ngram"]), batch_format="pyarrow"
        ),
        ["ngram"],
        None,
        num_buckets=num_buckets,
    )
    cand_ng = docs.map_batches(doc_ngrams, batch_format="pandas")
    hits = bucket_hash_join(
        cand_ng,
        bench_ng,
        ["ngram"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("doc_id", I64), ("ngram", pa.string())]),
        right_schema=pa.schema([("ngram", pa.string())]),
    )
    per_doc = bucket_group_agg(
        hits.map_batches(
            lambda b: b.select(["doc_id"]).append_column(
                "n_hits", pa.array(np.ones(b.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        ),
        ["doc_id"],
        {"n_hits": ("n_hits", "sum")},
        num_buckets=num_buckets,
    )
    all_ids = docs.map_batches(
        lambda b: pa.table({"doc_id": b[id_col].cast(I64)}),
        batch_format="pyarrow",
    )
    j = bucket_hash_join(
        all_ids,
        per_doc,
        ["doc_id"],
        how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema([("doc_id", I64)]),
        right_schema=pa.schema([("doc_id", I64), ("n_hits", I64)]),
    )

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "n_hits": df["n_hits"].fillna(0).to_numpy().astype(np.int64),
            }
        )

    return j.map_batches(fill, batch_format="pandas")


def _window_hashes(codes: np.ndarray, n: int) -> np.ndarray:
    """Positional n-gram hashes (the :func:`_shingle_hashes` recurrence
    WITHOUT the trailing distinct): entry i hashes ``codes[i : i + n]``,
    so a flagged window maps straight back to its gram string."""
    with np.errstate(over="ignore"):
        acc = _splitmix64(codes[: len(codes) - n + 1])
        for i in range(1, n):
            acc = _splitmix64(acc ^ codes[i : len(codes) - n + 1 + i])
    return acc


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """k Bloom bit positions per hash via double hashing
    (h1 + i·h2 mod m, m a power of two); shape (k, len(h))."""
    h1 = h & np.uint64(0xFFFF_FFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)  # odd → full-period stride
    mask = np.uint64(m_bits - 1)
    out = np.empty((k, len(h)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(k):
            out[i] = (h1 + np.uint64(i) * h2) & mask
    return out


class _BloomCandidateGrams:
    """Actor-pool stage: tests every document n-gram against a broadcast
    Bloom bitset (fetched from the object store ONCE per actor — a
    zero-copy shared-memory numpy view, never re-shipped per batch) and
    emits only the flagged DISTINCT (doc_id, ngram) rows."""

    def __init__(self, bits_ref, *, n, k, m_bits, id_col, text_col):
        self.bits = ray.get(bits_ref)
        self.n, self.k, self.m_bits = n, k, m_bits
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = self.n
        out_id, out_ng = [], []
        for d, text in zip(
            df[self.id_col].to_numpy(), df[self.text_col].astype(str)
        ):
            ws = text.split()
            if len(ws) < n:
                continue
            h = _window_hashes(_word_codes(ws), n)
            pos = _bloom_positions(h, self.m_bits, self.k)
            member = np.ones(len(h), dtype=bool)
            for i in range(self.k):
                p = pos[i]
                member &= (
                    self.bits[(p >> np.uint64(3)).astype(np.int64)]
                    >> (p & np.uint64(7)).astype(np.uint8)
                ) & np.uint8(1) == 1
            if not member.any():
                continue
            grams = sorted(
                {" ".join(ws[j : j + n]) for j in np.flatnonzero(member)}
            )
            out_id.extend([int(d)] * len(grams))
            out_ng.extend(grams)
        return pd.DataFrame(
            {"doc_id": pd.Series(out_id, dtype=np.int64),
             "ngram": pd.Series(out_ng, dtype=str)}
        )


def bloom_decontaminate(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    m_bits: int = 1 << 23,
    k: int = 4,
    num_buckets: int = 64,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Benchmark decontamination behind a broadcast Bloom prefilter —
    same contract and EXACT same output as :func:`decontaminate`
    ((doc_id, n_hits) per candidate doc), different 100-TB shape.

    :func:`decontaminate` ships every distinct corpus n-gram through the
    hash-partitioned join — correct, but the shuffled volume scales with
    the CORPUS (the 100-TB side). Here the benchmark's n-grams are folded
    into an m_bits Bloom bitset (one streaming pass, one ~m_bits/8-byte
    partial per block, OR-fold on the driver — 1 MiB at the default), the
    bitset is broadcast once via ``ray.put``, and an actor pool tests
    corpus grams in-batch: only Bloom-flagged grams (true hits + the
    ~(1-e^{-kN/m})^k false-positive sliver) enter the exact string join
    that removes false positives. The shuffle volume now scales with the
    CONTAMINATION, not the corpus. No false negatives: a Bloom filter
    never misses an inserted key, so exactness vs ``decontaminate`` holds
    for any (m_bits, k) — undersized filters only cost verify traffic.

    m_bits must be a power of two (bit positions are masked, not mod'd)."""
    if m_bits & (m_bits - 1):
        raise ValueError("m_bits must be a power of two")
    I64 = pa.int64()

    def partial_bits(df: pd.DataFrame) -> pd.DataFrame:
        buf = np.zeros(m_bits // 8, dtype=np.uint8)
        for text in df[text_col].astype(str):
            ws = text.split()
            if len(ws) < n:
                continue
            h = _window_hashes(_word_codes(ws), n)
            pos = _bloom_positions(h, m_bits, k).reshape(-1)
            np.bitwise_or.at(
                buf,
                (pos >> np.uint64(3)).astype(np.int64),
                np.left_shift(
                    np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)
                ),
            )
        return pd.DataFrame({"bits": [buf.tobytes()]})

    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in (
        benchmark.select_columns([text_col])
        .map_batches(partial_bits, batch_format="pandas")
        .iter_batches(batch_format="pandas")
    ):
        for raw in b["bits"]:
            bits |= np.frombuffer(raw, dtype=np.uint8)
    bits_ref = ray.put(bits)

    cand_ng = docs.select_columns([id_col, text_col]).map_batches(
        _BloomCandidateGrams,
        fn_constructor_kwargs={
            "bits_ref": bits_ref,
            "n": n,
            "k": k,
            "m_bits": m_bits,
            "id_col": id_col,
            "text_col": text_col,
        },
        batch_format="pandas",
        concurrency=_util.pool_size(concurrency),
    )

    def bench_ngrams(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        out = set()
        for ws in toks:
            if len(ws) < n:
                continue
            out.update(" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1))
        return pd.DataFrame({"ngram": pd.Series(sorted(out), dtype=str)})

    bench_ng = bucket_group_agg(
        benchmark.select_columns([text_col]).map_batches(
            bench_ngrams, batch_format="pandas"
        ),
        ["ngram"],
        None,
        num_buckets=num_buckets,
    )
    hits = bucket_hash_join(
        cand_ng,
        bench_ng,
        ["ngram"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("doc_id", I64), ("ngram", pa.string())]),
        right_schema=pa.schema([("ngram", pa.string())]),
    )
    per_doc = bucket_group_agg(
        hits.map_batches(
            lambda b: b.select(["doc_id"]).append_column(
                "n_hits", pa.array(np.ones(b.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        ),
        ["doc_id"],
        {"n_hits": ("n_hits", "sum")},
        num_buckets=num_buckets,
    )
    all_ids = docs.map_batches(
        lambda b: pa.table({"doc_id": b[id_col].cast(I64)}),
        batch_format="pyarrow",
    )
    j = bucket_hash_join(
        all_ids,
        per_doc,
        ["doc_id"],
        how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema([("doc_id", I64)]),
        right_schema=pa.schema([("doc_id", I64), ("n_hits", I64)]),
    )

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "n_hits": df["n_hits"].fillna(0).to_numpy().astype(np.int64),
            }
        )

    return j.map_batches(fill, batch_format="pandas")


def _bucket_cross_pairs(group: pd.DataFrame, *, threshold: float) -> pd.DataFrame:
    """Cross-side verification within one LSH bucket: estimated Jaccard
    (signature agreement) between every train-side and eval-side row.
    Chunked over train rows so a hot bucket never builds an
    O(train × eval × perm) boolean tensor in one piece."""
    t = group[group["side"] == 0]
    e = group[group["side"] == 1]
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    if len(t) and len(e):
        tids = t["doc_id"].to_numpy(dtype=np.int64)
        eids = e["doc_id"].to_numpy(dtype=np.int64)
        tsig = np.stack(t["signature"].to_numpy()).astype(np.uint64)
        esig = np.stack(e["signature"].to_numpy()).astype(np.uint64)
        CHUNK = 256
        for s in range(0, len(tids), CHUNK):
            agree = (tsig[s : s + CHUNK, None, :] == esig[None, :, :]).mean(axis=2)
            ti, ej = np.nonzero(agree >= threshold)
            parts.append((tids[s + ti], eids[ej], agree[ti, ej]))
    d, ev, sim = (np.concatenate(c) for c in zip(*parts))
    return pd.DataFrame({"doc_id": d, "eval_id": ev, "similarity": sim})


def minhash_decontaminate(
    docs: ray.data.Dataset,
    benchmark: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int | None = None,
    shingle_n: int = 3,
    threshold: float = 0.7,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """NEAR-duplicate cross-corpus decontamination: flag candidate docs
    whose MinHash signature collides with any benchmark/eval doc in an LSH
    band AND whose estimated Jaccard ≥ threshold. Complements
    :func:`decontaminate` (exact n-gram hits): paraphrased or lightly
    edited benchmark leakage shares high Jaccard without sharing long
    exact n-grams. Returns one row per flagged (doc_id, eval_id) pair with
    the max estimated similarity across colliding bands.

    100-TB shape: both corpora stream through the signature tasks,
    band rows hash-partition by bucket (ONE shuffle of 16-byte rows ×
    bands), verification is per-bucket vectorized agreement, and the pair
    table collapses through one bucketed aggregate — the benchmark side is
    never broadcast or collected, so an arbitrarily large eval suite costs
    the same shuffle as the train side."""
    if bands is None:
        bands = _auto_bands(num_perm, threshold)
    rows_per_band = num_perm // bands

    def sig_pipeline(ds: ray.data.Dataset, side: int) -> ray.data.Dataset:
        sigs = ds.select_columns([id_col, text_col]).map_batches(
            _minhash_signatures,
            fn_kwargs={
                "text_col": text_col,
                "num_perm": num_perm,
                "shingle_n": shingle_n,
            },
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=concurrency,
        )
        banded = sigs.map_batches(
            _band_rows,
            fn_kwargs={
                "id_col": id_col,
                "bands": bands,
                "rows_per_band": rows_per_band,
            },
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return banded.map_batches(
            lambda b, s=side: b.append_column(
                "side", pa.array(np.full(b.num_rows, s, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )

    both = sig_pipeline(docs, 0).union(sig_pipeline(benchmark, 1))
    # natural key: `_bucket_cross_pairs` crosses one LSH band bucket per call
    pairs = both.groupby("bucket").map_groups(
        _bucket_cross_pairs,
        fn_kwargs={"threshold": threshold},
        batch_format="pandas",
    )
    return bucket_group_agg(
        pairs, ["doc_id", "eval_id"], {"similarity": ("similarity", "max")}
    )


def dedup_keep_best(
    ds: ray.data.Dataset,
    *,
    quality_col: str = "n_chars",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Quality-aware dedup representative selection: rows are grouped by
    NORMALIZED text (lowercased, runs of ASCII whitespace collapsed to
    one space — catches the trivial reformat copies exact_dedup's raw
    hash misses) and each group keeps the row maximizing
    (quality_col, then LOWEST id) — the "keep best, not first" policy
    training pipelines apply after clustering. Returns Dataset
    (doc_id, n_dups), one row per group.

    Dataflow: per-batch normalize, then pack (quality, id) into ONE
    int64 whose numeric max realizes the lexicographic (max quality,
    min id) rule — so the whole selection is a single bucket aggregate
    keyed on the normalized string (map-side pre-combined), never an
    argmax-by-self-join. Packing bound: quality and id must each fit
    31/32 bits (checked); web-scale ids beyond that should pre-shard.

    The whitespace class is explicitly ASCII ([ \\t\\n\\f\\r]) so a SQL
    RE2 replay ('\\s' in RE2 is ASCII-only) normalizes identically —
    Python's unicode \\s would silently diverge on NBSP et al."""
    _WS = "[ \t\n\f\r]+"

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        norm = (
            df[text_col]
            .astype(str)
            .str.replace(_WS, " ", regex=True)
            .str.lower()
        )
        q = df[quality_col].to_numpy().astype(np.int64)
        i = df[id_col].to_numpy().astype(np.int64)
        if len(q) and (
            q.min() < 0 or q.max() >= 2**31 or i.min() < 0 or i.max() >= 2**32
        ):
            raise ValueError(
                "dedup_keep_best packing needs 0 <= quality < 2^31 and "
                "0 <= id < 2^32"
            )
        d = pd.DataFrame(
            {
                "norm": norm,
                "packed": q * 2**32 + (2**32 - 1 - i),
                "n_dups": np.ones(len(q), dtype=np.int64),
            }
        )
        return d.groupby("norm", as_index=False).agg(
            packed=("packed", "max"), n_dups=("n_dups", "sum")
        )

    agg = bucket_group_agg(
        ds.select_columns([id_col, text_col, quality_col]).map_batches(
            pack, batch_format="pandas"
        ),
        ["norm"],
        {"packed": ("packed", "max"), "n_dups": ("n_dups", "sum")},
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        packed = df["packed"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                id_col: (2**32 - 1) - (packed & (2**32 - 1)),
                "n_dups": df["n_dups"].to_numpy(dtype=np.int64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def exact_substr(
    docs: ray.data.Dataset,
    *,
    span_tokens: int = 20,
    min_count: int = 2,
    num_buckets: int = 64,
    concurrency: int = 4,
    broadcast_threshold: int | None = 2_000_000,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Substring-level exact dedup (fixed-window mode of Lee et al. 2022,
    *Deduplicating Training Data Makes Language Models Better*, §ExactSubstr):
    every ``span_tokens``-token window whose token sequence occurs
    >= ``min_count`` times ANYWHERE in the corpus (other documents or the
    same one) is removed from EVERY occurrence; surviving tokens are
    re-joined with single spaces. Catches templated boilerplate *inside*
    otherwise-distinct documents — the spans exact-/line-dedup's fixed
    units miss. Returns one row per input document:
    (doc_id, n_tokens, n_removed, text_clean).

    No suffix array is materialized. Below ``broadcast_threshold`` rows
    the duplicated-key set and the merged-run table are BROADCAST via
    ``ray.put`` (they are O(repeated spans) / O(boilerplate regions),
    tiny next to the corpus), cutting the dataflow to 2 bucket shuffles
    (span-stats aggregate + per-doc run grouping) with a shuffle-free
    streaming rewrite; above it the full join dataflow runs (4 bucket
    shuffles, all O(total tokens) rows):
      1. span hashes: per-batch flat token array + doc index, window
         hash = the MinHash shingle chain (``sm(...sm(sm(c_0)^c_1)...``)
         over sha-derived word codes — L vectorized passes, never a
         per-window string build;
      2. per-batch (ghash, n) partials -> one bucket aggregate -> the
         duplicated-span keys (a span repeated across the corpus ships
         one stats row per batch, not per occurrence);
      3. semi-join of span occurrences against the duplicated keys;
      4. per-doc interval union (vectorized cummax run-merge: overlapping
         windows collapse BEFORE the text join, so a fully-duplicated
         document carries ONE run, not O(n_tokens) rows) -> one left
         join to re-attach text -> bucketed per-doc rewrite.

    Tokens are whitespace runs (``str.split()``), so ``text_clean`` is
    whitespace-normalized for every doc — the SQL replay
    (``docs_exact_substr``) groups the literal L-token gram strings and
    rebuilds with ``string_agg(tok, ' ')``. Hash-vs-string grouping is
    the exact_dedup fingerprint convention (collisions negligible,
    2^-63-scale)."""
    L = int(span_tokens)
    if L < 1:
        raise ValueError("span_tokens must be >= 1")
    MASK63 = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
    I64 = pa.int64()

    def _empty_spans() -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: pd.Series(dtype=np.int64),
                "pos": pd.Series(dtype=np.int64),
                "ghash": pd.Series(dtype=np.int64),
            }
        )

    def span_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy().astype(np.int64)
        toks = [str(t).split() for t in df[text_col].fillna("")]
        n = np.array([len(t) for t in toks], dtype=np.int64)
        total = int(n.sum())
        if total < L:
            return _empty_spans()
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in toks if t]
        )
        codes = _word_codes(list(flat))
        docix = np.repeat(np.arange(len(df), dtype=np.int64), n)
        m = total - L + 1
        valid = docix[:m] == docix[L - 1 : L - 1 + m]
        if not valid.any():
            return _empty_spans()
        with np.errstate(over="ignore"):
            acc = _splitmix64(codes[:m])
            for k in range(1, L):
                acc = _splitmix64(acc ^ codes[k : k + m])
        cum = np.concatenate([[0], np.cumsum(n)])
        gpos = np.flatnonzero(valid)
        di = docix[gpos]
        return pd.DataFrame(
            {
                id_col: ids[di],
                "pos": (gpos - cum[di]).astype(np.int64),
                "ghash": (acc[gpos] & MASK63).astype(np.int64),
            }
        )

    spans = (
        docs.select_columns([id_col, text_col])
        .map_batches(
            span_rows,
            batch_format="pandas",
            concurrency=concurrency,
        )
        .materialize()
    )

    stats_part = spans.map_batches(
        lambda df: df.groupby("ghash", as_index=False)
        .size()
        .rename(columns={"size": "n"}),
        batch_format="pandas",
    )
    dup = bucket_group_agg(
        stats_part, ["ghash"], {"n": ("n", "sum")}, num_buckets=num_buckets,
    ).map_batches(
        lambda b: b.filter(
            pa.compute.greater_equal(b["n"], min_count)
        ).select(["ghash"]),
        batch_format="pyarrow",
    )

    # the duplicated-span key set is usually TINY relative to the corpus
    # (only spans repeated >= min_count ship a key): below the threshold,
    # broadcast it via ray.put and filter map-side — one shuffle saved;
    # above it, the bucketed semi-join (boilerplate-saturated corpora)
    dup = dup.materialize()
    if broadcast_threshold and dup.count() <= broadcast_threshold:
        dk = np.sort(dup.to_pandas()["ghash"].to_numpy(dtype=np.int64))
        dref = ray.put(dk)

        def occ_filter(df: pd.DataFrame) -> pd.DataFrame:
            keys = ray.get(dref)
            g = df["ghash"].to_numpy(dtype=np.int64)
            p = np.searchsorted(keys, g)
            hit = (p < len(keys)) & (
                keys[np.minimum(p, max(len(keys) - 1, 0))] == g
            ) if len(keys) else np.zeros(len(g), dtype=bool)
            return df[hit]

        occ = spans.map_batches(occ_filter, batch_format="pandas")
    else:
        occ = bucket_semi_join(
            spans, dup, ["ghash"],
            num_buckets=num_buckets,
            left_schema=pa.schema(
                [(id_col, I64), ("pos", I64), ("ghash", I64)]
            ),
        )

    def to_runs(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=np.int64),
                    "run_s": pd.Series(dtype=np.int64),
                    "run_e": pd.Series(dtype=np.int64),
                }
            )
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        e = g["pos"].to_numpy(dtype=np.int64) + L
        # run break = new doc OR gap past the running max end (cummax is
        # per-doc: the global shift(1) lands on the same doc's previous
        # row everywhere `first` doesn't already force a break)
        cme = (
            pd.Series(e).groupby(g[id_col].to_numpy()).cummax().shift(1)
        )
        first = g[id_col].ne(g[id_col].shift(1)).to_numpy()
        brk = first | (
            g["pos"].to_numpy(dtype=np.int64) > cme.to_numpy()
        )
        rid = np.cumsum(brk)
        out = pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(dtype=np.int64),
                "run_s": g["pos"].to_numpy(dtype=np.int64),
                "run_e": e,
                "__rid": rid,
            }
        )
        return out.groupby("__rid", as_index=False).agg(
            **{
                id_col: (id_col, "first"),
                "run_s": ("run_s", "min"),
                "run_e": ("run_e", "max"),
            }
        )[[id_col, "run_s", "run_e"]]

    runs = bucket_map(
        occ, [id_col], to_runs, num_buckets=num_buckets
    ).materialize()

    base = docs.select_columns([id_col, text_col])
    # the merged-run table is O(distinct boilerplate regions), usually
    # far smaller than the corpus: below the threshold broadcast it and
    # rewrite docs in ONE shuffle-free streaming pass (saves the text
    # re-attach join + the per-doc grouping shuffle)
    if broadcast_threshold and runs.count() <= broadcast_threshold:
        rp = runs.to_pandas().sort_values(
            [id_col, "run_s"], kind="mergesort"
        )
        rref = ray.put(
            (
                rp[id_col].to_numpy(dtype=np.int64),
                rp["run_s"].to_numpy(dtype=np.int64),
                rp["run_e"].to_numpy(dtype=np.int64),
            )
        )

        def rebuild_bcast(df: pd.DataFrame) -> pd.DataFrame:
            rid_, rs_, re_ = ray.get(rref)
            ids_, nts, nrs, cleans = [], [], [], []
            for did, text in zip(
                df[id_col].to_numpy(dtype=np.int64),
                df[text_col].fillna(""),
            ):
                toks = str(text).split()
                nt = len(toks)
                lo = np.searchsorted(rid_, did, side="left")
                hi = np.searchsorted(rid_, did, side="right")
                if lo == hi:
                    ids_.append(did); nts.append(nt); nrs.append(0)
                    cleans.append(" ".join(toks))
                    continue
                keep = np.ones(nt, dtype=bool)
                for a, b in zip(rs_[lo:hi], re_[lo:hi]):
                    keep[a:b] = False
                ids_.append(did); nts.append(nt)
                nrs.append(int((~keep).sum()))
                cleans.append(" ".join(t for t, k in zip(toks, keep) if k))
            return pd.DataFrame(
                {
                    id_col: np.asarray(ids_, dtype=np.int64),
                    "n_tokens": np.asarray(nts, dtype=np.int64),
                    "n_removed": np.asarray(nrs, dtype=np.int64),
                    "text_clean": pd.Series(cleans, dtype=object),
                }
            )

        return base.map_batches(rebuild_bcast, batch_format="pandas")

    j = bucket_hash_join(
        base, runs, [id_col],
        how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema([(id_col, I64), (text_col, pa.string())]),
        right_schema=pa.schema(
            [(id_col, I64), ("run_s", I64), ("run_e", I64)]
        ),
    )

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        ids_, nts, nrs, cleans = [], [], [], []
        for did, sub in g.groupby(id_col, sort=False):
            toks = str(sub[text_col].iloc[0]).split()
            nt = len(toks)
            has = sub["run_s"].notna()
            if not has.any():
                ids_.append(did); nts.append(nt); nrs.append(0)
                cleans.append(" ".join(toks))
                continue
            keep = np.ones(nt, dtype=bool)
            for a, b in zip(
                sub.loc[has, "run_s"].to_numpy(dtype=np.int64),
                sub.loc[has, "run_e"].to_numpy(dtype=np.int64),
            ):
                keep[a:b] = False
            ids_.append(did); nts.append(nt)
            nrs.append(int((~keep).sum()))
            cleans.append(" ".join(t for t, k in zip(toks, keep) if k))
        return pd.DataFrame(
            {
                id_col: np.asarray(ids_, dtype=np.int64),
                "n_tokens": np.asarray(nts, dtype=np.int64),
                "n_removed": np.asarray(nrs, dtype=np.int64),
                "text_clean": pd.Series(cleans, dtype=object),
            }
        )

    return bucket_map(j, [id_col], rebuild, num_buckets=num_buckets)


def sorted_neighborhood_pairs(
    docs: ray.data.Dataset,
    *,
    key_col: str,
    window: int = 5,
    id_col: str = "doc_id",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Sorted-neighborhood blocking (Hernández & Stolfo, SIGMOD 1995 —
    the merge/purge method): candidate record pairs = records within
    ``window`` positions of each other in the GLOBAL (key_col, id_col)
    sort order. The classic record-linkage blocker for fuzzy keys where
    hash blocking (exact dedup) is too strict and all-pairs too big:
    O(n·w) candidates instead of O(n²), with the usual caveat that
    matches whose keys sort far apart are missed (run multiple passes
    with different keys).

    Distributed shape: one exact :func:`~flashray.datapipe.sketches.
    global_rank` (range-partitioned sort + O(blocks) driver offsets),
    then each row lands in rank-stripe ``rank // window`` and a CARRY
    copy in the stripe below, so every qualifying pair (rank diff <
    window) co-locates in exactly the earlier row's stripe — ONE bucket
    shuffle, in-stripe vectorized expansion, no cross-stripe seam
    misses and no duplicate pairs. Returns (id_a, id_b, rank_gap) with
    id_a the earlier row in sort order."""
    import pyarrow.compute as pc

    from flashray.datapipe.sketches import global_rank

    if window < 2:
        raise ValueError("window must be >= 2")
    ranked = global_rank(
        docs.select_columns([id_col, key_col]), [key_col, id_col]
    )
    w = int(window)

    def stripes(df: pd.DataFrame) -> pd.DataFrame:
        r = df["rank"].to_numpy(dtype=np.int64)
        ids = df[id_col].to_numpy(dtype=np.int64)
        own = (r - 1) // w
        out = pd.DataFrame(
            {
                "stripe": np.concatenate([own, own - 1]),
                "rank": np.concatenate([r, r]),
                id_col: np.concatenate([ids, ids]),
                "carry": np.concatenate(
                    [np.zeros(len(r), bool), np.ones(len(r), bool)]
                ),
            }
        )
        return out[out["stripe"] >= 0]

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank")
        r = g["rank"].to_numpy(dtype=np.int64)
        ids = g[id_col].to_numpy(dtype=np.int64)
        own = ~g["carry"].to_numpy(dtype=bool)
        a_idx, b_idx = [], []
        # anchors are the stripe's OWN rows; partners = any later row
        # (own or carried) within the window — searchsorted bounds per
        # anchor, tiny stripes (≤ 2w rows) so the loop is over anchors
        hi = np.searchsorted(r, r + w, side="left")
        for i in np.flatnonzero(own):
            for j in range(i + 1, hi[i]):
                a_idx.append(i)
                b_idx.append(j)
        if not a_idx:
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype=np.int64),
                    "id_b": pd.Series(dtype=np.int64),
                    "rank_gap": pd.Series(dtype=np.int64),
                }
            )
        a = np.asarray(a_idx)
        b = np.asarray(b_idx)
        return pd.DataFrame(
            {
                "id_a": ids[a],
                "id_b": ids[b],
                "rank_gap": (r[b] - r[a]).astype(np.int64),
            }
        )

    # natural key: `expand` slides the window over one whole rank stripe
    return (
        ranked.map_batches(stripes, batch_format="pandas")
        .groupby("stripe")
        .map_groups(expand, batch_format="pandas")
    )
