"""Corpus-trained byte-pair encoding (Sennrich et al. 2016, *Neural
Machine Translation of Rare Words with Subword Units*) — the token unit
pretraining-mixture decisions are budgeted in, trained as iterated
pair-count bucket aggregates (the ngram_lm count-table shape).

Scale shape: the corpus collapses ONCE into a (word, count) vocabulary
(one bucket shuffle — the Sennrich trick: merges are word-internal, so
training never re-reads documents); each merge round is a vectorized
pair-count partial + one bucket aggregate over the VOCAB table + a
vectorized rewrite pass, all O(distinct words). The model is a
``num_merges``-row merge table — never a broadcast vocabulary.

Determinism / SQL parity: tokens are unicode CODEPOINTS (``ord`` ==
DuckDB ``unicode(substr(w, i, 1))`` — character-based on both engines,
unlike UTF-8 bytes vs char ``substr``), counts are exact integers, the
round's winning pair is argmax by (count DESC, left ASC, right ASC),
and greedy non-overlapping application merges the ODD positions of each
consecutive-hit run (leftmost-first: in a run "aaaa" the merges land at
offsets 0 and 2) — a ROW_NUMBER-parity window rule, so a fixed-round SQL
replay (driver oracle ``docs_bpe_merges``) reproduces the merge table
and every word's final token count bit-exactly. Merge ``rank`` r (from
0) creates token id ``NEW_ID_BASE + r`` (above any codepoint).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray import routing
from flashray.joins import bucket_group_agg, bucket_hash_join

NEW_ID_BASE = 2_000_000  # > 0x10FFFF, the top unicode codepoint


def _flatten(toks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat token array, per-word lengths, word index per position)."""
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                       count=len(toks))
    flat = (
        np.concatenate([np.asarray(t, dtype=np.int64) for t in toks])
        if int(lens.sum())
        else np.empty(0, dtype=np.int64)
    )
    wix = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
    return flat, lens, wix


def _greedy_merge_flat(
    flat: np.ndarray, wix: np.ndarray, a: int, b: int, nid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one merge over a flattened multi-word token array; returns
    (new flat array, new word index array). Vectorized: hit mask →
    consecutive-run parity → drop the consumed right halves."""
    if len(flat) < 2:
        return flat, wix
    hit = (flat[:-1] == a) & (flat[1:] == b) & (wix[:-1] == wix[1:])
    hp = np.flatnonzero(hit)
    if not len(hp):
        return flat, wix
    grp = hp - np.arange(len(hp))
    first = np.r_[True, grp[1:] != grp[:-1]]
    run_start = np.maximum.accumulate(
        np.where(first, np.arange(len(hp)), 0)
    )
    take = ((np.arange(len(hp)) - run_start) % 2) == 0
    mpos = hp[take]
    out = flat.copy()
    out[mpos] = nid
    keep = np.ones(len(flat), dtype=bool)
    keep[mpos + 1] = False
    return out[keep], wix[keep]


def _rebuild_lists(flat: np.ndarray, wix: np.ndarray, n_words: int):
    lens = np.bincount(wix, minlength=n_words).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    return [flat[offsets[i]:offsets[i + 1]].tolist()
            for i in range(n_words)]


def encode_word(word: str, merges: pd.DataFrame) -> list[int]:
    """Reference single-word encoder: apply the merge table in rank
    order with the same greedy rule (tests / ad-hoc use)."""
    flat = np.array([ord(c) for c in word], dtype=np.int64)
    wix = np.zeros(len(flat), dtype=np.int64)
    for _, m in merges.sort_values("rank").iterrows():
        flat, wix = _greedy_merge_flat(
            flat, wix, int(m["left_id"]), int(m["right_id"]),
            int(m["new_id"]),
        )
    return flat.tolist()


def _bpe_train_local(vdf: pd.DataFrame, num_merges: int) -> dict:
    """In-process merge loop over the collapsed (word, wcount, toks)
    vocabulary — the SAME ``_flatten``/``_greedy_merge_flat`` kernels the
    distributed rounds run per batch, applied to the whole vocab at once
    (batch boundaries never affect pair counts or the rewrite, so the
    result is bit-identical — agreement-tested)."""
    merges = []
    for r in range(int(num_merges)):
        flat, _, wix = _flatten(vdf["toks"])
        if len(flat) < 2:
            break
        m = wix[:-1] == wix[1:]
        wc = vdf["wcount"].to_numpy(dtype=np.int64)
        g = (
            pd.DataFrame(
                {
                    "a": flat[:-1][m],
                    "b": flat[1:][m],
                    "c": wc[wix[:-1][m]],
                }
            )
            .groupby(["a", "b"], as_index=False)["c"]
            .sum()
        )
        if not len(g):
            break
        best = g.sort_values(
            ["c", "a", "b"], ascending=[False, True, True]
        ).iloc[0]
        a, b, c = int(best["a"]), int(best["b"]), int(best["c"])
        if c < 2:
            break
        nid = NEW_ID_BASE + r
        merges.append((r, a, b, nid, c))
        flat, wix = _greedy_merge_flat(flat, wix, a, b, nid)
        vdf = vdf.assign(toks=_rebuild_lists(flat, wix, len(vdf)))
    word_tokens = ray.data.from_pandas(
        pd.DataFrame(
            {
                "word": vdf["word"].to_numpy(dtype=object),
                "wcount": vdf["wcount"].to_numpy(dtype=np.int64),
                "n_bpe": vdf["toks"].str.len().to_numpy(dtype=np.int64),
            }
        )
    )
    return {
        "merges": pd.DataFrame(
            merges,
            columns=["rank", "left_id", "right_id", "new_id", "count"],
        ).astype(np.int64),
        "word_tokens": word_tokens,
    }


def bpe_train(
    docs: ray.data.Dataset,
    *,
    num_merges: int = 8,
    text_col: str = "text",
    num_buckets: int = 64,
) -> dict:
    """Train codepoint-level BPE on the whitespace-token vocabulary of
    ``docs``. Returns ``{"merges": pd.DataFrame(rank, left_id, right_id,
    new_id, count) — the model, driver-small; "word_tokens": Dataset
    (word, wcount, n_bpe) — every distinct corpus word with its
    occurrence count and final BPE token count}``. Training may stop
    early when no pair occurs twice.

    The corpus collapses ONCE (distributed) to the (word, wcount)
    vocabulary; on the local route the merge rounds run in-process on
    the driver (the vocab of even a web-scale corpus is millions of rows, not
    billions, and each distributed round otherwise pays a fixed bucket
    shuffle), bit-identical to the distributed rounds."""

    def word_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").astype(str).str.split()
        flat = (
            np.concatenate([np.asarray(t, dtype=object) for t in toks])
            if int(toks.str.len().sum())
            else np.array([], dtype=object)
        )
        d = pd.DataFrame({"word": flat})
        return d.groupby("word", as_index=False).size().rename(
            columns={"size": "wcount"}
        )

    vocab = bucket_group_agg(
        docs.map_batches(word_partial, batch_format="pandas"),
        ["word"],
        {"wcount": ("wcount", "sum")},
        num_buckets=num_buckets,
    ).map_batches(
        lambda df: df.assign(
            toks=[[ord(c) for c in w] for w in df["word"]]
        ),
        batch_format="pandas",
    ).materialize()

    if routing.choose("bpe.bpe_train", 40 * vocab.count()) == "local":
        return _bpe_train_local(vocab.to_pandas(), num_merges)

    merges = []
    for r in range(int(num_merges)):

        def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
            flat, _, wix = _flatten(df["toks"])
            if len(flat) < 2:
                return pd.DataFrame(
                    {
                        "a": pd.Series(dtype=np.int64),
                        "b": pd.Series(dtype=np.int64),
                        "c": pd.Series(dtype=np.int64),
                    }
                )
            m = wix[:-1] == wix[1:]
            wc = df["wcount"].to_numpy(dtype=np.int64)
            d = pd.DataFrame(
                {
                    "a": flat[:-1][m],
                    "b": flat[1:][m],
                    "c": wc[wix[:-1][m]],
                }
            )
            return d.groupby(["a", "b"], as_index=False)["c"].sum()

        pc = bucket_group_agg(
            vocab.map_batches(pair_partial, batch_format="pandas"),
            ["a", "b"],
            {"c": ("c", "sum")},
            num_buckets=num_buckets,
        )

        def local_top(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return df
            return df.sort_values(
                ["c", "a", "b"], ascending=[False, True, True]
            ).head(1)

        tops = pc.map_batches(local_top, batch_format="pandas").to_pandas()
        if not len(tops):
            break
        best = tops.sort_values(
            ["c", "a", "b"], ascending=[False, True, True]
        ).iloc[0]
        a, b, c = int(best["a"]), int(best["b"]), int(best["c"])
        if c < 2:
            break
        nid = NEW_ID_BASE + r
        merges.append((r, a, b, nid, c))

        def rewrite(df: pd.DataFrame, _a=a, _b=b, _nid=nid) -> pd.DataFrame:
            flat, _, wix = _flatten(df["toks"])
            flat, wix = _greedy_merge_flat(flat, wix, _a, _b, _nid)
            return df.assign(toks=_rebuild_lists(flat, wix, len(df)))

        vocab = vocab.map_batches(
            rewrite, batch_format="pandas"
        ).materialize()

    word_tokens = vocab.map_batches(
        lambda df: pd.DataFrame(
            {
                "word": df["word"].to_numpy(dtype=object),
                "wcount": df["wcount"].to_numpy(dtype=np.int64),
                "n_bpe": df["toks"].str.len().to_numpy(dtype=np.int64),
            }
        ),
        batch_format="pandas",
    ).materialize()
    return {
        "merges": pd.DataFrame(
            merges,
            columns=["rank", "left_id", "right_id", "new_id", "count"],
        ).astype(np.int64),
        "word_tokens": word_tokens,
    }


def bpe_token_stats(
    docs: ray.data.Dataset,
    model: dict,
    *,
    by: str = "source",
    text_col: str = "text",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-``by``-group token budget in TRAINED BPE units vs whitespace
    words: Dataset (by, n_words, n_bpe_tokens) — the unit conversion
    mixture decisions need. One word-explode pass (map-side
    pre-aggregated per (group, word)) + one hash join against the
    trained word-length table + one bucket aggregate."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").astype(str).str.split()
        n = toks.str.len().to_numpy(dtype=np.int64)
        flat = (
            np.concatenate([np.asarray(t, dtype=object) for t in toks])
            if int(n.sum())
            else np.array([], dtype=object)
        )
        d = pd.DataFrame(
            {
                by: np.repeat(df[by].to_numpy(dtype=object), n),
                "word": flat,
            }
        )
        return d.groupby([by, "word"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    gw = bucket_group_agg(
        docs.map_batches(explode, batch_format="pandas"),
        [by, "word"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )
    S = pa.string()
    j = bucket_hash_join(
        gw,
        model["word_tokens"].map_batches(
            lambda b: b.select(["word", "n_bpe"]), batch_format="pyarrow"
        ),
        ["word"],
        num_buckets=num_buckets,
        left_schema=pa.schema([(by, S), ("word", S), ("n", pa.int64())]),
        right_schema=pa.schema([("word", S), ("n_bpe", pa.int64())]),
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(dtype=np.int64)
        d = pd.DataFrame(
            {
                by: df[by].to_numpy(dtype=object),
                "n_words": n,
                "n_bpe_tokens": n * df["n_bpe"].to_numpy(dtype=np.int64),
            }
        )
        return d.groupby(by, as_index=False).sum()

    return bucket_group_agg(
        j.map_batches(fold, batch_format="pandas"),
        [by],
        {"n_words": ("n_words", "sum"),
         "n_bpe_tokens": ("n_bpe_tokens", "sum")},
        num_buckets=num_buckets,
    )


def bpe_doc_tokens(
    docs: ray.data.Dataset,
    model: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-document token count in TRAINED BPE units: Dataset
    (id_col, n_bpe_tokens) — one row per input doc, zero-token docs
    included with 0. Feed to ``sketches.pack_sequences`` to pack
    training sequences in the unit the token budget is written in.
    Same dataflow as :func:`bpe_token_stats` keyed by the int64 doc id
    (per-(doc, word) map-side pre-aggregation, one join against the
    trained word-length table, one bucket aggregate), plus a zero-fill
    union so empty docs keep their row."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").astype(str).str.split()
        n = toks.str.len().to_numpy(dtype=np.int64)
        flat = (
            np.concatenate([np.asarray(t, dtype=object) for t in toks])
            if int(n.sum())
            else np.array([], dtype=object)
        )
        d = pd.DataFrame(
            {
                id_col: np.repeat(df[id_col].to_numpy(np.int64), n),
                "word": flat,
            }
        )
        return d.groupby([id_col, "word"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    gw = bucket_group_agg(
        docs.map_batches(explode, batch_format="pandas"),
        [id_col, "word"],
        {"n": ("n", "sum")},
        hash_keys=[id_col],
        num_buckets=num_buckets,
    )
    S = pa.string()
    j = bucket_hash_join(
        gw,
        model["word_tokens"].map_batches(
            lambda b: b.select(["word", "n_bpe"]), batch_format="pyarrow"
        ),
        ["word"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [(id_col, pa.int64()), ("word", S), ("n", pa.int64())]
        ),
        right_schema=pa.schema([("word", S), ("n_bpe", pa.int64())]),
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(dtype=np.int64),
                "n_bpe_tokens": df["n"].to_numpy(dtype=np.int64)
                * df["n_bpe"].to_numpy(dtype=np.int64),
            }
        )
        return d.groupby(id_col, as_index=False).sum()

    counted = bucket_group_agg(
        j.map_batches(fold, batch_format="pandas"),
        [id_col],
        {"n_bpe_tokens": ("n_bpe_tokens", "sum")},
        num_buckets=num_buckets,
    )
    # zero-token docs never reach the join: anti-join the doc-id table
    # and union zero rows so every input doc keeps exactly one row
    from flashray.joins import bucket_semi_join

    ids = docs.map_batches(
        lambda b: pa.table({id_col: b[id_col].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    missing = bucket_semi_join(
        ids,
        counted.map_batches(
            lambda b: b.select([id_col]), batch_format="pyarrow"
        ),
        [id_col],
        anti=True,
        num_buckets=num_buckets,
        left_schema=pa.schema([(id_col, pa.int64())]),
    ).map_batches(
        lambda b: pa.table(
            {
                id_col: b[id_col],
                "n_bpe_tokens": pa.array(
                    np.zeros(b.num_rows, dtype=np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return counted.union(missing)
