"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Ray-Data-first shapes (https://docs.ray.io/en/latest/data/transforming-data.html):
signatures are computed by stateless ``map_batches`` tasks on Ray's pooled
workers (a derived table such as the MinHash permutations is cached per
worker process), candidates come from a shuffle on LSH bucket keys,
verification happens inside the shuffle bucket, and duplicate *groups* are
the connected components of the verified pair graph — computed with this
repo's own WCC engine when the pair set is large, or driver-side
union-find when it is small.

One LSH verify: every near-duplicate family — MinHash, SimHash,
cross-corpus MinHash and cosine (``similarity.embedding_near_dups``) —
explodes its signatures into band rows with :func:`_band_rows` and runs
:func:`_bucket_pairs` behind ONE ``bucket_map`` shuffle on the LSH key. A
family supplies only its signature, its band keys and its row-wise
compare; each pair is emitted once, from the lowest band in which its two
items collide, so no pair-dedup shuffle follows.

Hot-bucket safety: one vectorized verify per shuffle bucket covers many
LSH buckets. It collapses identical signatures per LSH bucket first
(members of one signature class compare exactly as their representative
does), so the O(u²) compare runs over the u *distinct* signatures only,
in fixed-size chunks — an LSH bucket holding k copies of one document
costs O(k) compare work plus the (irreducible) O(k²) pair output.

Determinism: all hashing is seeded/stable (splitmix64 over stable word ids);
results are identical across runs and parallelism levels.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

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


def _band_keys(sigs: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """(n, bands) LSH bucket keys of (n, perm) MinHash signatures: each
    band's rows_per_band values folded with splitmix64 from the band index
    — rows_per_band vectorized calls over (n, bands), no Python per row."""
    n = len(sigs)
    S = sigs[:, : bands * rows_per_band].reshape(n, bands, rows_per_band)
    with np.errstate(over="ignore"):
        h = np.broadcast_to(np.arange(bands, dtype=np.uint64), (n, bands)).copy()
        for r in range(rows_per_band):
            h = _splitmix64(h ^ S[:, :, r])
    return (h & np.uint64(0x7FFF_FFFF_FFFF_FFFF)).astype(np.int64)


def _agreement(x: np.ndarray, y: np.ndarray, *, threshold: float):
    """MinHash compare, row by row: signature agreement rate (estimated
    Jaccard) and whether it reaches ``threshold``."""
    agree = (x == y).mean(axis=1)
    return agree >= threshold, agree


def _band_rows(batch: pa.Table, *, id_col: str, keys) -> pa.Table:
    """Explode signatures to (bucket, doc_id, signature) LSH-band rows.

    Fully vectorized over Arrow: the signature column (a list of one
    width) is viewed zero-copy as (n, width) and ``keys`` maps it to its
    (n, bands) LSH bucket keys. A fixed-size list gives its width even
    on an empty batch, so ``keys`` always sees the width it expects.
    Output rows are row-major (row, band) order."""
    n = batch.num_rows
    sig_col = batch["signature"].combine_chunks()
    flat = sig_col.flatten().to_numpy(zero_copy_only=False)
    width = getattr(sig_col.type, "list_size", len(flat) // max(n, 1))
    sigs = flat.astype(np.uint64, copy=False).reshape(n, width)
    buckets = keys(sigs)
    bands = buckets.shape[1]
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
    return pa.table(
        {
            "bucket": pa.array(buckets.ravel()),
            "doc_id": pa.array(np.repeat(ids, bands)),
            "signature": sig_col.take(rep),
        }
    )


def _lsh_band_rows(
    ds: ray.data.Dataset, signatures, *, text_col: str, id_col: str, keys,
    **sig_kwargs,
) -> ray.data.Dataset:
    """Signature tasks followed by the :func:`_band_rows` explode (Ray
    fuses the two into one task) — the input of :func:`_bucket_pairs`."""
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        signatures,
        fn_kwargs={"text_col": text_col, **sig_kwargs},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return sigs.map_batches(
        _band_rows,
        fn_kwargs={"id_col": id_col, "keys": keys},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# representative pairs compared per vectorized step of the LSH verify
_VERIFY_CHUNK = 8192


def _anchor_pairs(lo: np.ndarray, hi: np.ndarray, chunk: int):
    """Yield every (i, j) with lo[i] <= j < hi[i] as index arrays of about
    ``chunk`` pairs each (one anchor's partners are never split), so the
    enumeration holds O(chunk) pairs however large one group is."""
    cnt = hi - lo
    cum = np.cumsum(cnt)
    a = 0
    while a < len(cnt):
        b = max(a + 1, int(np.searchsorted(cum, cum[a] - cnt[a] + chunk, "right")))
        c = cnt[a:b]
        i = np.repeat(np.arange(a, b), c)
        if len(i):
            yield i, np.repeat(lo[a:b], c) + np.arange(len(i)) - np.repeat(np.cumsum(c) - c, c)
        a = b


def _bucket_pairs(
    group: pd.DataFrame, *, keys, compare, value: str = "similarity",
    cross: bool = False,
) -> pd.DataFrame:
    """The LSH verify of every near-duplicate family: all LSH buckets of
    one shuffle bucket in one vectorized pass.

    ``group`` holds :func:`_band_rows` rows (plus ``side`` when ``cross``).
    The family supplies ``keys(sigs)``, the (n, bands) LSH bucket keys of
    n signatures, and ``compare(x, y)``, the (hit mask, ``value``) of two
    signature arrays row by row.

    Rows collapse to classes, one per distinct (LSH bucket, side,
    signature): the compare runs over the DISTINCT signatures of an LSH
    bucket (k exact copies cost one class, not O(k²) compares).
    Representative pairs are compared ``_VERIFY_CHUNK`` at a time and the
    hits expand to member products — members compare exactly as their
    representatives do. Members of one class pair at ``compare(rep,
    rep)``. A pair is emitted only from the lowest band in which its two
    signatures collide (read back through ``keys``), so each pair leaves
    exactly one call (doc ids are unique per side) and no pair-dedup
    aggregate follows.

    Without ``cross`` the result is (a < b, value). With ``cross`` only
    side-0 × side-1 pairs are enumerated — each side-0 class's partners
    are its bucket's side-1 classes — and the result is (doc_id, eval_id,
    value)."""
    key = group["bucket"].to_numpy(dtype=np.int64)
    ids = group["doc_id"].to_numpy(dtype=np.int64)
    side = group["side"].to_numpy(dtype=np.int64) if cross else np.zeros_like(key)
    sigs = np.stack(group["signature"].to_numpy()).astype(np.uint64, copy=False)
    # classes sorted by (LSH bucket key, side); keys are non-negative int64
    cls, inv = np.unique(
        np.column_stack([key.astype(np.uint64), side.astype(np.uint64), sigs]),
        axis=0,
        return_inverse=True,
    )
    inv = inv.reshape(-1)
    rep_key, rep_side = cls[:, 0].astype(np.int64), cls[:, 1].astype(np.int64)
    rep_sig = cls[:, 2:]
    band = keys(rep_sig)
    order = np.lexsort((ids, inv))
    members = ids[order]  # ascending ids within each class
    size = np.bincount(inv, minlength=len(cls))
    first_member = np.cumsum(size) - size
    end = np.searchsorted(rep_key, rep_key, side="right")
    hit, val = compare(rep_sig, rep_sig)
    out = [(np.empty(0, np.int64), np.empty(0, np.int64), val[:0])]
    if cross:
        ones = np.r_[0, np.cumsum(rep_side)]
        lo = end - (ones[end] - ones[np.searchsorted(rep_key, rep_key)])
        hi = np.where(rep_side == 0, end, lo)
    else:
        lo, hi = np.arange(1, len(cls) + 1), end
        # members of one class collide in every band: emit them from band 0
        own = (size > 1) & (rep_key == band[:, 0]) & hit
        keep = own[inv[order]]
        a, b, c = pairs_within_groups(inv[order][keep], members[keep])
        out.append((a, b, val[c]))
    for i, j in _anchor_pairs(lo, hi, _VERIFY_CHUNK):
        hit, val = compare(rep_sig[i], rep_sig[j])
        i, j, val = i[hit], j[hit], val[hit]
        same = band[i] == band[j]
        first = same.argmax(axis=1)
        low = same[np.arange(len(i)), first] & (band[i, first] == rep_key[i])
        i, j, val = i[low], j[low], val[low]
        n = size[i] * size[j]
        r = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        nj = np.repeat(size[j], n)
        A = members[np.repeat(first_member[i], n) + r // nj]
        B = members[np.repeat(first_member[j], n) + r % nj]
        if not cross:
            A, B = np.minimum(A, B), np.maximum(A, B)
        out.append((A, B, np.repeat(val, n)))
    a, b, v = (np.concatenate(c) for c in zip(*out))
    names = ("doc_id", "eval_id") if cross else ("a", "b")
    return pd.DataFrame({names[0]: a, names[1]: b, value: v})


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


def _minhash_keys(num_perm: int, bands: int | None, threshold: float):
    """The LSH band-key function of one MinHash banding (``bands=None``:
    :func:`_auto_bands`)."""
    if bands is None:
        bands = _auto_bands(num_perm, threshold)
    return functools.partial(_band_keys, bands=bands, rows_per_band=num_perm // bands)


def candidate_pairs_minhash(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int | None = None,
    shingle_n: int = 3,
    threshold: float = 0.7,
) -> ray.data.Dataset:
    """MinHash+LSH near-duplicate pairs (a < b, estimated Jaccard ≥
    threshold), each pair once. ``bands=None`` derives the banding from
    the threshold so recall at the stated threshold stays high (128
    perms: threshold 0.5 or 0.7 → 32 bands of 4, 0.8 → 16 bands of 8,
    0.9 → 8 bands of 16). Signatures are stateless tasks; one bucket
    shuffle on the LSH key feeds :func:`_bucket_pairs`."""
    keys = _minhash_keys(num_perm, bands, threshold)
    rows = _lsh_band_rows(
        ds, _minhash_signatures, text_col=text_col, id_col=id_col, keys=keys,
        num_perm=num_perm, shingle_n=shingle_n,
    )
    verify = functools.partial(
        _bucket_pairs, keys=keys,
        compare=functools.partial(_agreement, threshold=threshold),
    )
    return bucket_map(rows, ["bucket"], verify, num_buckets=64)


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


def _simhash_signatures(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Adds a one-value ``signature`` column (fixed_size_list<uint64>)
    holding the SimHash; a stateless ``map_batches`` task."""
    sig = _simhash_sigs(batch[text_col].to_pylist()).astype(np.uint64)
    return batch.append_column(
        "signature", pa.FixedSizeListArray.from_arrays(pa.array(sig), 1)
    )


_CHUNKS16 = np.arange(4, dtype=np.uint64)


def _simhash_keys(sigs: np.ndarray) -> np.ndarray:
    """(n, 4) LSH bucket keys of (n, 1) SimHashes: each 16-bit chunk,
    tagged with its index."""
    chunk = (sigs >> (np.uint64(16) * _CHUNKS16)) & np.uint64(0xFFFF)
    return ((_CHUNKS16 << np.uint64(16)) | chunk).astype(np.int64)


def _hamming(x: np.ndarray, y: np.ndarray, *, max_hamming: int):
    """SimHash compare, row by row: popcount of ``x ^ y`` (vectorized via
    a byte view + unpackbits) and whether it is at most ``max_hamming``."""
    ham = np.unpackbits((x ^ y).view(np.uint8), axis=1).sum(axis=1).astype(np.int64)
    return ham <= max_hamming, ham


def candidate_pairs_simhash(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """SimHash near-dup pairs (a < b, hamming ≤ ``max_hamming``), each
    pair once: bucket by each of 4 16-bit chunks (any pair within hamming
    ≤ 3 of 64 bits agrees on ≥ 1 chunk), verify hamming in
    :func:`_bucket_pairs` behind one bucket shuffle on the chunk key."""
    rows = _lsh_band_rows(
        ds, _simhash_signatures, text_col=text_col, id_col=id_col,
        keys=_simhash_keys,
    )
    verify = functools.partial(
        _bucket_pairs, keys=_simhash_keys, value="hamming",
        compare=functools.partial(_hamming, max_hamming=max_hamming),
    )
    return bucket_map(rows, ["bucket"], verify, num_buckets=64)


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
    index — no LSH, hence no false negatives (an LSH candidate step such
    as :func:`candidate_pairs_minhash`'s bands is probabilistic). Jaccard is computed over each document's set of
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


def _bloom_candidate_grams(
    df: pd.DataFrame, *, bits_ref, n: int, k: int, m_bits: int, id_col: str,
    text_col: str,
) -> pd.DataFrame:
    """Tests every document n-gram against the broadcast Bloom bitset (a
    zero-copy shared-memory numpy view of the object-store copy, never
    re-shipped per batch) and emits only the flagged DISTINCT
    (doc_id, ngram) rows."""
    bits = ray.get(bits_ref)
    out_id, out_ng = [], []
    for d, text in zip(df[id_col].to_numpy(), df[text_col].astype(str)):
        ws = text.split()
        if len(ws) < n:
            continue
        h = _window_hashes(_word_codes(ws), n)
        pos = _bloom_positions(h, m_bits, k)
        member = np.ones(len(h), dtype=bool)
        for i in range(k):
            p = pos[i]
            member &= (
                bits[(p >> np.uint64(3)).astype(np.int64)]
                >> (p & np.uint64(7)).astype(np.uint8)
            ) & np.uint8(1) == 1
        if not member.any():
            continue
        grams = sorted({" ".join(ws[j : j + n]) for j in np.flatnonzero(member)})
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
) -> ray.data.Dataset:
    """Benchmark decontamination behind a broadcast Bloom prefilter —
    same contract and EXACT same output as :func:`decontaminate`
    ((doc_id, n_hits) per candidate doc), different 100-TB shape.

    :func:`decontaminate` ships every distinct corpus n-gram through the
    hash-partitioned join — correct, but the shuffled volume scales with
    the CORPUS (the 100-TB side). Here the benchmark's n-grams are folded
    into an m_bits Bloom bitset (one streaming pass, one ~m_bits/8-byte
    partial per block, OR-fold on the driver — 1 MiB at the default), the
    bitset is broadcast once via ``ray.put``, and plain tasks test
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
    cand_ng = docs.select_columns([id_col, text_col]).map_batches(
        _bloom_candidate_grams,
        fn_kwargs={
            "bits_ref": ray.put(bits),
            "n": n,
            "k": k,
            "m_bits": m_bits,
            "id_col": id_col,
            "text_col": text_col,
        },
        batch_format="pandas",
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
) -> ray.data.Dataset:
    """NEAR-duplicate cross-corpus decontamination: flag candidate docs
    whose MinHash signature collides with any benchmark/eval doc in an LSH
    band AND whose estimated Jaccard ≥ threshold. Complements
    :func:`decontaminate` (exact n-gram hits): paraphrased or lightly
    edited benchmark leakage shares high Jaccard without sharing long
    exact n-grams. Returns one row per flagged (doc_id, eval_id) pair with
    its estimated similarity (signature agreement).

    100-TB shape: both corpora stream through the signature tasks, band
    rows tagged with their ``side`` hash-partition by bucket (ONE shuffle
    of 16-byte rows × bands), and :func:`_bucket_pairs` compares only
    train × eval classes, emitting each pair once from its lowest
    colliding band — no pair-dedup aggregate follows. The benchmark side
    is never broadcast or collected, so an arbitrarily large eval suite
    costs the same shuffle as the train side."""
    keys = _minhash_keys(num_perm, bands, threshold)

    def sided(ds: ray.data.Dataset, side: int) -> ray.data.Dataset:
        rows = _lsh_band_rows(
            ds, _minhash_signatures, text_col=text_col, id_col=id_col,
            keys=keys, num_perm=num_perm, shingle_n=shingle_n,
        )
        return rows.map_batches(
            lambda b: b.append_column(
                "side", pa.array(np.full(b.num_rows, side, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )

    verify = functools.partial(
        _bucket_pairs, keys=keys, cross=True,
        compare=functools.partial(_agreement, threshold=threshold),
    )
    both = sided(docs, 0).union(sided(benchmark, 1))
    return bucket_map(both, ["bucket"], verify, num_buckets=64)


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
        .map_batches(span_rows, batch_format="pandas")
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
