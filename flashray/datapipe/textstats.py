"""Text analysis over a document table: token counts, quality scores,
language ID, fingerprints, chunking and redaction.

Every stage is a plain ``map_batches`` function run as a Ray task. What a
stage needs beyond its batch (compiled regexes, stopword profiles,
redaction patterns) is a module constant, built once per worker process
at import; work is vectorized per batch. Apply with::

    docs.map_batches(text_stats_batch, batch_format="pandas",
                     batch_size=4096)

Token counting is intentionally SQL-reproducible (DuckDB oracle):
``token_count`` = number of ``\\S+`` runs; ``word_chars`` = total length of
those runs.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

# tiny public stopword seeds per language (language-ID heuristic only)
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "ich"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "de", "que", "por"},
    "it": {"il", "la", "e", "che", "un", "una", "di", "per", "non", "sono"},
    "pt": {"o", "a", "os", "e", "que", "um", "uma", "de", "para", "por"},
}
_LANGS = np.array(list(_LANG_STOPWORDS), dtype=object)

_TOKEN = re.compile(r"\S+")
_PUNCT = re.compile(r"[^\w\s]")
_DIGIT = re.compile(r"\d")
_WORD = re.compile(r"[a-zA-ZÀ-ÿ]+")

# (pattern, replacement) pairs applied in order by `redact_batch`; each is
# plain-regex (no lookarounds) so a DuckDB regexp_replace(..., 'g') oracle
# replays it exactly
REDACT_PATTERNS = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"[0-9][0-9 ()+.-]{7,}[0-9]", "<PHONE>"),
]
_REDACT = [(re.compile(p), r) for p, r in REDACT_PATTERNS]


def text_stats_batch(batch: pd.DataFrame, *, text_col: str = "text") -> pd.DataFrame:
    """Quality metrics per document: token_count, word_chars, avg_token_len,
    punct_ratio, digit_ratio, stopword_ratio (en)."""
    stop = _LANG_STOPWORDS["en"]
    s = batch[text_col].fillna("")
    toks = s.str.findall(_TOKEN)
    n_tok = toks.str.len().astype("int64")
    n_char = s.str.len().astype("int64")
    word_chars = toks.map(lambda ws: sum(len(w) for w in ws)).astype("int64")
    batch["token_count"] = n_tok
    batch["word_chars"] = word_chars
    batch["avg_token_len"] = (word_chars / n_tok.clip(lower=1)).astype("float64")
    batch["punct_ratio"] = (
        s.str.count(_PUNCT) / n_char.clip(lower=1)
    ).astype("float64")
    batch["digit_ratio"] = (
        s.str.count(_DIGIT) / n_char.clip(lower=1)
    ).astype("float64")
    batch["stopword_ratio"] = toks.map(
        lambda ws: sum(1 for w in ws if w.lower() in stop) / max(1, len(ws))
    ).astype("float64")
    return batch


def lang_id_batch(batch: pd.DataFrame, *, text_col: str = "text") -> pd.DataFrame:
    """Stopword-profile language ID (n-gram-free heuristic): argmax language
    by stopword count; ties break to profile order (np.argmax = first max,
    exactly the old per-row rule and the SQL oracle's CASE order); 'und'
    (undetermined) when no stopword matches.

    Vectorized across the batch: all words flatten into one array with a
    doc index, each language scores via one C-level ``isin`` + bincount —
    never a per-document Python loop."""
    s = batch[text_col].fillna("")
    toks = s.str.findall(_WORD)
    n = toks.str.len().to_numpy(dtype=np.int64)
    nrows = len(s)
    if int(n.sum()) == 0:
        batch["lang_pred"] = np.full(nrows, "und", dtype=object)
        return batch
    flat = pd.Series(
        np.concatenate([np.asarray(t, dtype=object) for t in toks])
    ).str.lower()
    doc = np.repeat(np.arange(nrows, dtype=np.int64), n)
    scores = np.zeros((nrows, len(_LANGS)), dtype=np.int64)
    for j, words in enumerate(_LANG_STOPWORDS.values()):
        hit = flat.isin(words).to_numpy()
        scores[:, j] = np.bincount(doc[hit], minlength=nrows)
    best_j = np.argmax(scores, axis=1)
    best_score = scores[np.arange(nrows), best_j]
    batch["lang_pred"] = np.where(best_score > 0, _LANGS[best_j], "und")
    return batch


_FP_BASE = np.uint64(1099511628211)
_FP_MASK = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def fingerprint_batch(batch: pd.DataFrame, *, text_col: str = "text") -> pd.DataFrame:
    """Adds a deterministic 63-bit ``fingerprint`` column: polynomial
    rolling hash ``h = Σ byte_i · B^(n-1-i) (mod 2^64)`` over UTF-8 bytes
    (content-defined; identical text → identical print). A stateless
    ``map_batches`` task: nothing is built that a task would have to keep.

    All documents' bytes flatten into ONE array; per-byte powers come from
    a shared B^k table indexed by distance-from-doc-end, and each
    document's sum is one reduceat segment — the hash math never loops per
    document (encode/join remain C-level per row)."""
    texts = batch[text_col].fillna("")
    bts = [t.encode("utf-8") for t in texts]
    lens = np.array([len(b) for b in bts], dtype=np.int64)
    out = np.zeros(len(lens), dtype=np.uint64)
    nz = lens > 0
    if nz.any():
        flat = np.frombuffer(b"".join(bts), dtype=np.uint8)
        ends = np.cumsum(lens)
        starts = ends - lens
        with np.errstate(over="ignore"):
            pows = np.full(int(lens.max()), _FP_BASE, dtype=np.uint64)
            pows[0] = np.uint64(1)
            pows = np.cumprod(pows)  # B^0..B^(max-1), wrapping mod 2^64
            rev = np.repeat(ends, lens) - 1 - np.arange(len(flat), dtype=np.int64)
            terms = flat.astype(np.uint64) * pows[rev]
            # reduceat misbehaves on zero-length segments: reduce only
            # the non-empty documents' start offsets
            out[nz] = np.add.reduceat(terms, starts[nz])
    batch["fingerprint"] = (out & _FP_MASK).astype(np.int64)
    return batch


def repetition_stats_batch(
    batch: pd.DataFrame, *, text_col: str = "text"
) -> pd.DataFrame:
    """Gopher-style repetition signals per document (Rae et al. 2021,
    *Scaling Language Models* — the duplicate-text quality filters used by
    large-scale LLM data pipelines): fraction of duplicated words and the
    share of the most frequent word / adjacent 2-gram / 3-gram.

    Tokens are ``\\S+`` runs (SQL-reproducible: DuckDB
    ``regexp_extract_all`` + ``list_zip`` n-grams — driver oracle
    ``docs_repetition``). Vectorized across the whole batch: all tokens
    flatten into one array with a doc index, counts come from pandas
    C-level groupbys — never a per-document Python loop."""
    s = batch[text_col].fillna("")
    toks = s.str.findall(_TOKEN)
    n = toks.str.len().to_numpy(dtype=np.int64)
    flat = (
        np.concatenate([np.asarray(t, dtype=object) for t in toks])
        if int(n.sum())
        else np.empty(0, dtype=object)
    )
    doc = np.repeat(np.arange(len(s), dtype=np.int64), n)

    def top_and_distinct(keys, docs, nrows):
        """(max multiplicity per doc, distinct count per doc) of the
        tuple keys — one pandas C-level groupby."""
        if not len(docs):
            z = np.zeros(nrows, dtype=np.int64)
            return z, z.copy()
        df = pd.DataFrame({"d": docs})
        for i, k in enumerate(keys):
            df[f"k{i}"] = k
        c = df.groupby(["d"] + [f"k{i}" for i in range(len(keys))],
                       sort=False).size()
        per_doc = c.groupby(level=0).agg(["max", "count"])
        top = np.zeros(nrows, dtype=np.int64)
        nd = np.zeros(nrows, dtype=np.int64)
        idx = per_doc.index.to_numpy()
        top[idx] = per_doc["max"].to_numpy()
        nd[idx] = per_doc["count"].to_numpy()
        return top, nd

    nrows = len(s)
    topw, ndist = top_and_distinct([flat], doc, nrows)
    # adjacent n-grams: consecutive positions whose doc index matches
    same2 = doc[:-1] == doc[1:] if len(doc) else np.zeros(0, dtype=bool)
    top2, _ = top_and_distinct(
        [flat[:-1][same2], flat[1:][same2]], doc[:-1][same2], nrows
    )
    same3 = (
        (doc[:-2] == doc[1:-1]) & (doc[1:-1] == doc[2:])
        if len(doc) > 1
        else np.zeros(0, dtype=bool)
    )
    top3, _ = top_and_distinct(
        [flat[:-2][same3], flat[1:-1][same3], flat[2:][same3]],
        doc[:-2][same3],
        nrows,
    )

    nf = n.astype(np.float64)
    batch["dup_word_frac"] = np.where(n > 0, (n - ndist) / np.maximum(nf, 1), 0.0)
    batch["top_word_frac"] = np.where(n > 0, topw / np.maximum(nf, 1), 0.0)
    batch["top_2gram_frac"] = np.where(
        n > 1, top2 / np.maximum(nf - 1, 1), 0.0
    )
    batch["top_3gram_frac"] = np.where(
        n > 2, top3 / np.maximum(nf - 2, 1), 0.0
    )
    return batch


def add_repetition_stats(ds, *, text_col: str = "text", batch_size: int = 4096):
    return ds.map_batches(
        repetition_stats_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=batch_size,
    )


def add_text_stats(ds, *, text_col: str = "text", batch_size: int = 4096):
    return ds.map_batches(
        text_stats_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=batch_size,
    )


def add_lang_id(ds, *, text_col: str = "text", batch_size: int = 4096):
    return ds.map_batches(
        lang_id_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=batch_size,
    )


def add_fingerprint(ds, *, text_col: str = "text", batch_size: int = 4096):
    return ds.map_batches(
        fingerprint_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=batch_size,
    )


def tfidf_top_terms(
    docs,
    *,
    k: int = 3,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Top-k TF-IDF terms per document: tfidf = tf · ln(N / df) with tf =
    in-doc term count, df = number of documents containing the term, N =
    corpus size. Ranking uses the 6-dp-ROUNDED score with a term-name
    tie-break, so 1-ulp libm differences between numpy and a SQL replay
    can never flip the selection (e.g. 2·ln 5 vs ln 25 collapse to the
    same rounded value and fall through to the lexicographic tie-break).

    Dataflow: one explode pass emits EXACT per-doc term counts (a doc is
    one row, so its counts complete inside its batch — no tf shuffle);
    df aggregates per-batch partials through one bucket shuffle; tf ⋈ df
    on term; top-k per doc through ``joins.topk_per_group``. Returns a
    Dataset of (doc_id, term, tfidf)."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join, topk_per_group

    N = docs.count()

    def tf_batch(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy().astype(np.int64),
                "term": df[text_col].astype(str).str.split(),
            }
        ).explode("term")
        d = d[d["term"].notna() & (d["term"] != "")]
        return d.groupby(["doc_id", "term"], as_index=False).agg(
            tf=("term", "size")
        )

    tf = docs.map_batches(tf_batch, batch_format="pandas").materialize()

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        # tf rows are (doc, term)-distinct: size == docs-in-batch per term
        return df.groupby("term", as_index=False).agg(df=("doc_id", "size"))

    dfreq = bucket_group_agg(
        tf.map_batches(df_partial, batch_format="pandas"),
        ["term"],
        {"df": ("df", "sum")},
        num_buckets=num_buckets,
    )

    joined = bucket_hash_join(
        tf,
        dfreq,
        ["term"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
        ),
        right_schema=pa.schema([("term", pa.string()), ("df", pa.int64())]),
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "term": df["term"],
                "tfidf": np.round(
                    df["tf"].to_numpy(dtype=np.float64)
                    * np.log(N / df["df"].to_numpy(dtype=np.float64)),
                    6,
                ),
            }
        )

    # (tfidf desc, term asc) is a total order within a doc
    return topk_per_group(
        joined.map_batches(score, batch_format="pandas"),
        ["doc_id"],
        ["tfidf", "term"],
        k,
        descending=[True, False],
        num_buckets=num_buckets,
    )


def quality_filter(
    docs,
    *,
    min_tokens: int = 10,
    max_tokens: int = 100_000,
    max_dup_word_frac: float = 0.6,
    max_top_2gram_frac: float = 0.35,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Composed Gopher/C4-style document quality filter (Rae et al. 2021
    table A1 shape): token-count band, duplicate-word fraction cap, and
    top-2-gram share cap, evaluated in a fixed order — ``reason`` names
    the FIRST failing rule ('' = kept). One pass chaining the
    `text_stats_batch` and `repetition_stats_batch` tasks (Ray fuses the
    chain into one task); decisions compare 6-dp-ROUNDED fractions so a
    SQL replay agrees bit-for-bit. Returns a Dataset of (doc_id, keep 0/1,
    reason)."""
    kw = {"text_col": text_col}
    stats = docs.map_batches(
        text_stats_batch, fn_kwargs=kw, batch_format="pandas"
    ).map_batches(repetition_stats_batch, fn_kwargs=kw, batch_format="pandas")

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        n = df["token_count"].to_numpy(dtype=np.int64)
        dup = np.round(df["dup_word_frac"].to_numpy(dtype=np.float64), 6)
        top2 = np.round(df["top_2gram_frac"].to_numpy(dtype=np.float64), 6)
        reason = np.full(len(df), "", dtype=object)
        undecided = np.ones(len(df), dtype=bool)
        for mask, name in [
            (n < min_tokens, "too_few_tokens"),
            (n > max_tokens, "too_many_tokens"),
            (dup > max_dup_word_frac, "dup_words"),
            (top2 > max_top_2gram_frac, "top_2gram"),
        ]:
            hit = undecided & mask
            reason[hit] = name
            undecided &= ~hit
        return pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy().astype(np.int64),
                "keep": undecided.astype(np.int64),
                "reason": reason,
            }
        )

    return stats.map_batches(decide, batch_format="pandas")


def chunk_batch(
    df: pd.DataFrame,
    *,
    chunk_tokens: int,
    overlap: int,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Token-window document chunking — the context-window prep step of an
    LLM training pipeline. Splits each document's \\S+ token stream into
    windows of ``chunk_tokens`` advancing by ``chunk_tokens - overlap``;
    chunk text = tokens joined by single spaces (token-chunk semantics:
    original whitespace is NOT preserved, which is what makes the output
    SQL-reproducible). The final window may be shorter; empty documents
    emit no chunks. 1→N rows: (doc_id, chunk_idx, n_tokens, text).

    Per batch the token streams are flattened once and chunk assembly is
    one pandas groupby-join over (doc, chunk) codes — work is O(total
    tokens), never a Python loop over raw rows."""
    stride = chunk_tokens - overlap
    toks = [_TOKEN.findall(t) for t in df[text_col]]
    counts = np.fromiter((len(t) for t in toks), dtype=np.int64,
                         count=len(toks))
    if counts.sum() == 0:
        return pd.DataFrame(
            {
                "doc_id": np.array([], dtype=np.int64),
                "chunk_idx": np.array([], dtype=np.int64),
                "n_tokens": np.array([], dtype=np.int64),
                "text": np.array([], dtype=object),
            }
        )
    ids = df[id_col].to_numpy()
    # flat token table with per-token (doc, position)
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    doc_of = np.repeat(np.arange(len(toks)), counts)
    pos = np.arange(len(flat)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    # overlap duplicates a token into ceil((pos+1 - chunk)/stride)+1
    # windows; expand token -> (window, token) pairs vectorized
    first_w = np.maximum(
        0, (pos - chunk_tokens + stride) // stride
    )
    last_w = pos // stride
    reps = last_w - first_w + 1
    tok_rep = np.repeat(flat, reps)
    doc_rep = np.repeat(doc_of, reps)
    off = np.arange(len(tok_rep)) - np.repeat(
        np.cumsum(reps) - reps, reps
    )
    win = np.repeat(first_w, reps) + off
    # windows starting past the last token of a doc are phantoms
    # (overlap tails); keep only windows whose start < doc length
    valid = win * stride < np.repeat(counts[doc_of], reps)
    tok_rep, doc_rep, win = tok_rep[valid], doc_rep[valid], win[valid]
    t = pd.DataFrame({"d": doc_rep, "w": win, "tok": tok_rep})
    g = t.groupby(["d", "w"], sort=True)
    joined = g["tok"].agg(" ".join)
    ntok = g.size()
    d_idx = joined.index.get_level_values(0).to_numpy()
    return pd.DataFrame(
        {
            "doc_id": ids[d_idx].astype(np.int64),
            "chunk_idx": joined.index.get_level_values(1).to_numpy(
                dtype=np.int64
            ),
            "n_tokens": ntok.to_numpy(dtype=np.int64),
            "text": joined.to_numpy(dtype=object),
        }
    )


def chunk_documents(ds, *, chunk_tokens: int = 64, overlap: int = 0,
                    text_col: str = "text", id_col: str = "doc_id",
                    batch_size: int = 1024):
    """Token-window chunking task (see `chunk_batch`)."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    return ds.map_batches(
        chunk_batch,
        fn_kwargs={
            "chunk_tokens": chunk_tokens,
            "overlap": overlap,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pandas",
        batch_size=batch_size,
    )


def redact_batch(df: pd.DataFrame, *, text_col: str = "text") -> pd.DataFrame:
    """Regex PII-style redaction (emails, long digit runs): the
    `REDACT_PATTERNS` in order, applied with vectorized pandas
    str.replace, plus a per-document ``n_redactions`` count."""
    out = df.copy()
    s = out[text_col]
    n_hits = np.zeros(len(df), dtype=np.int64)
    for pat, rep in _REDACT:
        n_hits += s.str.count(pat).to_numpy(dtype=np.int64)
        s = s.str.replace(pat, rep, regex=True)
    out[text_col] = s
    out["n_redactions"] = n_hits
    return out


def redact(ds, *, text_col: str = "text", batch_size: int = 4096):
    """PII-style redaction task (see `redact_batch`)."""
    return ds.map_batches(
        redact_batch,
        fn_kwargs={"text_col": text_col},
        batch_format="pandas",
        batch_size=batch_size,
    )


def bm25_topk(
    docs,
    query_terms: list[str],
    *,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """BM25 retrieval: score every document against a fixed bag of query
    terms, return the top-k as a Dataset of (doc_id, score), score
    rounded to 6 dp, ties broken by doc_id (deterministic cross-system
    ranking, same contract as tfidf_top_terms). Lucene's always-positive
    idf variant: ``idf = ln(1 + (N - df + 0.5)/(df + 0.5))``; term
    component ``tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))`` with dl =
    whitespace word count. Docs containing no query term (score 0) are
    not returned.

    Dataflow (100-TB shape): pass A streams one O(|Q|+2) partial row per
    batch (per-term df counts + Σdl) — a driver-side fold over blocks, no
    shuffle; the tiny (df, N, avgdl) vector broadcasts into pass B, which
    scores each doc entirely inside its batch (a doc is one row — tf and
    dl complete locally). The only wide step is the final
    sort-desc + limit(k)."""
    import ray

    terms = sorted(set(query_terms))
    N = docs.count()

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        dl = toks.str.len().fillna(0).astype(np.int64)
        row = {"__sum_dl": [int(dl.sum())]}
        sets = toks.map(set)
        for t in terms:
            row[f"__df_{t}"] = [int(sets.map(lambda s: t in s).sum())]
        return pd.DataFrame(row)

    agg = (
        docs.map_batches(partials, batch_format="pandas")
        .sum(["__sum_dl"] + [f"__df_{t}" for t in terms])
    )
    sum_dl = int(agg["sum(__sum_dl)"] or 0)
    dfreq = {t: int(agg[f"sum(__df_{t})"] or 0) for t in terms}
    avgdl = sum_dl / N if N else 1.0
    idf = {
        t: float(np.log(1.0 + (N - dfreq[t] + 0.5) / (dfreq[t] + 0.5)))
        for t in terms
        if dfreq[t] > 0
    }
    idf_ref = ray.put(idf)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        idf_l = ray.get(idf_ref)
        toks = df[text_col].astype(str).str.split()
        dl = toks.str.len().fillna(0).to_numpy(dtype=np.float64)
        denom_norm = k1 * (1.0 - b + b * dl / avgdl)
        total = np.zeros(len(df))
        for t, w in idf_l.items():
            tf = toks.map(lambda ws: ws.count(t)).to_numpy(
                dtype=np.float64
            )
            total += w * (tf * (k1 + 1.0)) / np.maximum(tf + denom_norm, 1e-300)
        out = pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy().astype(np.int64),
                "score": np.round(total, 6),
            }
        )
        return out[out["score"] > 0]

    return (
        docs.map_batches(score, batch_format="pandas")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


def top_ngrams(
    docs,
    *,
    n: int = 2,
    k: int = 20,
    num_buckets: int = 64,
    text_col: str = "text",
):
    """Corpus-wide top-k word n-grams: Dataset (ngram, count) ordered by
    (count desc, ngram asc — exact-integer counts, lexicographic
    tie-break, so the ranking is deterministic cross-system).

    Dataflow: per-batch n-gram counting (map-side combine — each batch
    emits its local (ngram, count) partials, never raw token rows), one
    bucket-hashed aggregate over the partials, then sort + limit(k). The
    shuffle carries one row per DISTINCT (batch, ngram), not per token —
    the standard heavy-hitters pre-aggregation shape at corpus scale."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        grams = toks.map(
            lambda ws: [
                " ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)
            ]
        )
        d = pd.DataFrame({"ngram": grams}).explode("ngram").dropna()
        if not len(d):
            return pd.DataFrame(
                {"ngram": pd.Series(dtype=str),
                 "count": pd.Series(dtype=np.int64)}
            )
        return (
            d.groupby("ngram").size().rename("count").reset_index()
        )

    from flashray.joins import bucket_group_agg

    counts = bucket_group_agg(
        docs.map_batches(partial, batch_format="pandas"),
        ["ngram"],
        {"count": ("count", "sum")},
        num_buckets=num_buckets,
    )
    return counts.sort(["count", "ngram"], descending=[True, False]).limit(k)


def ngram_lm_logprob(
    docs,
    *,
    n: int = 2,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Per-document mean log-likelihood under an order-``n`` word MLE
    language model trained on the SAME corpus — the CCNet-style in-domain
    LM quality signal (Wenzek et al. 2020 §4.3), self-trained so no
    smoothing is needed: every scored n-gram occurs in training, hence
    P > 0 by construction.

        lm_logprob(doc) = ROUND( (1/B) · Σ ln( C(ctx,w) / C(ctx,·) ), 4 )

    over the doc's B n-grams, where ``ctx`` is the n−1 preceding
    whitespace tokens joined by one space and C are corpus-wide counts;
    ``n_ngrams`` = B is the exact-integer anchor column. Docs with fewer
    than n tokens have no n-grams and are dropped. 4-dp rounding (not
    the house 6) because the per-doc sum accumulates hundreds of libm
    ``ln`` terms whose reassociation noise (~1e-12 abs) would land
    inside a 6-dp rounding boundary often enough to flake a bit-exact
    SQL replay; at 4 dp the boundary window is 100× wider than the
    noise.

    Dataflow — ~5 bucket shuffles, each O(distinct corpus n-grams); no
    broadcast (the model IS the two count tables, which can exceed any
    single heap at web scale): one map-side explode emits EXACT per-doc
    n-gram counts (a doc is one row, so its counts complete inside its
    batch — no tf shuffle, same shape as tfidf_top_terms); corpus n-gram
    counts and context counts reduce via joins.bucket_group_agg; scoring
    is two hash-partitioned joins (n-gram count, then context count)
    plus one per-doc bucket aggregate. Intermediates are materialized
    only where reused twice (object-store blocks, spillable — never the
    driver heap). Returns Dataset (doc_id, n_ngrams, lm_logprob)."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_hash_join

    def doc_grams(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        if n == 2:
            ctx = toks.map(lambda ws: ws[:-1])
            nxt = toks.map(lambda ws: ws[1:])
        else:
            ctx = toks.map(
                lambda ws: [
                    " ".join(ws[i : i + n - 1])
                    for i in range(len(ws) - n + 1)
                ]
            )
            nxt = toks.map(lambda ws: ws[n - 1 :])
        d = pd.DataFrame(
            {
                "doc_id": df[id_col].to_numpy().astype(np.int64),
                "ctx": ctx,
                "w": nxt,
            }
        ).explode(["ctx", "w"])
        d = d[d["ctx"].notna()]
        if not len(d):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "ctx": pd.Series(dtype=str),
                    "w": pd.Series(dtype=str),
                    "k": pd.Series(dtype=np.int64),
                }
            )
        return d.groupby(["doc_id", "ctx", "w"], as_index=False).agg(
            k=("w", "size")
        )

    perdoc = docs.map_batches(doc_grams, batch_format="pandas").materialize()

    gram_schema = pa.schema(
        [("ctx", pa.string()), ("w", pa.string()), ("cgram", pa.int64())]
    )
    cgram = bucket_group_agg(
        perdoc.map_batches(
            lambda df: df.groupby(["ctx", "w"], as_index=False).agg(
                cgram=("k", "sum")
            ),
            batch_format="pandas",
        ),
        ["ctx", "w"],
        {"cgram": ("cgram", "sum")},
        num_buckets=num_buckets,
    ).materialize()
    cctx = bucket_group_agg(
        cgram.map_batches(
            lambda df: df.groupby("ctx", as_index=False).agg(
                cctx=("cgram", "sum")
            ),
            batch_format="pandas",
        ),
        ["ctx"],
        {"cctx": ("cctx", "sum")},
        num_buckets=num_buckets,
    )

    perdoc_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("ctx", pa.string()),
            ("w", pa.string()),
            ("k", pa.int64()),
        ]
    )
    j1 = bucket_hash_join(
        perdoc,
        cgram,
        ["ctx", "w"],
        num_buckets=num_buckets,
        left_schema=perdoc_schema,
        right_schema=gram_schema,
    )
    j2 = bucket_hash_join(
        j1,
        cctx,
        ["ctx"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [
                ("doc_id", pa.int64()),
                ("ctx", pa.string()),
                ("w", pa.string()),
                ("k", pa.int64()),
                ("cgram", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("ctx", pa.string()), ("cctx", pa.int64())]),
    )

    def partial_doc(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "sum_lp": pd.Series(dtype=np.float64),
                    "n_ngrams": pd.Series(dtype=np.int64),
                }
            )
        k = df["k"].to_numpy(dtype=np.float64)
        # ln(cgram/cctx), division first — matches a SQL ln(a/b) replay
        lp = k * np.log(
            df["cgram"].to_numpy(dtype=np.float64)
            / df["cctx"].to_numpy(dtype=np.float64)
        )
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "sum_lp": lp,
                "n_ngrams": df["k"].to_numpy(dtype=np.int64),
            }
        )
        return out.groupby("doc_id", as_index=False).agg(
            sum_lp=("sum_lp", "sum"), n_ngrams=("n_ngrams", "sum")
        )

    agg = bucket_group_agg(
        j2.map_batches(partial_doc, batch_format="pandas"),
        ["doc_id"],
        {"sum_lp": ("sum_lp", "sum"), "n_ngrams": ("n_ngrams", "sum")},
        num_buckets=num_buckets,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_ngrams": df["n_ngrams"].to_numpy(dtype=np.int64),
                "lm_logprob": np.round(
                    df["sum_lp"].to_numpy(dtype=np.float64)
                    / df["n_ngrams"].to_numpy(dtype=np.float64),
                    4,
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def zipf_alpha(
    docs,
    *,
    c_min: int = 2,
    num_buckets: int = 64,
    text_col: str = "text",
):
    """Zipf exponent of the corpus unigram frequency distribution — the
    CSN09 continuous-MLE tail fit applied to term counts ≥ ``c_min``
    (the vocabulary analogue of the degree power-law fit; a healthy
    natural-language corpus sits near alpha ≈ 2, so a drifting fit is a
    cheap whole-corpus quality alarm). Returns (alpha, n_tail).

    Dataflow: per-batch term-count partials (map-side combine, one row
    per distinct (batch, term) — the top_ngrams shape at n=1), one
    bucket aggregate, then algorithms.mle_tail_alpha's streaming
    (n, Σ ln) fold — two scalars reach the driver."""
    from flashray.algorithms import mle_tail_alpha
    from flashray.joins import bucket_group_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"term": df[text_col].astype(str).str.split()}
        ).explode("term")
        d = d[d["term"].notna() & (d["term"] != "")]
        if not len(d):
            return pd.DataFrame(
                {"term": pd.Series(dtype=str),
                 "cnt": pd.Series(dtype=np.int64)}
            )
        return d.groupby("term", as_index=False).agg(cnt=("term", "size"))

    counts = bucket_group_agg(
        docs.map_batches(partial, batch_format="pandas"),
        ["term"],
        {"cnt": ("cnt", "sum")},
        num_buckets=num_buckets,
    )
    return mle_tail_alpha(counts, "cnt", x_min=c_min)


def source_overlap(
    docs,
    *,
    n: int = 3,
    group_col: str = "source",
    text_col: str = "text",
    num_buckets: int = 64,
    max_center_degree: int | None = None,
):
    """Pairwise content overlap between document GROUPS (sources /
    domains / dataset splits): for every group pair, the number of
    shared DISTINCT word n-grams plus jaccard/cosine overlap scores —
    the cross-source contamination / diversity diagnostic (which crawls
    duplicate each other, is a split leaking into another). Returns a
    Dataset (u, v, cn, jaccard, cosine) with u < v, O(groups²) rows.

    Composition: per-batch DISTINCT (group, n-gram) partials (map-side
    dedup bounds shuffle traffic to distinct pairs per batch, never
    token rows) feed :func:`flashray.triangles.bipartite_project` with
    the N-GRAM as the center side — a center's degree is bounded by the
    number of groups, so the projection's quadratic-hub concern is
    structurally absent here."""
    from flashray.triangles import bipartite_project

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split()
        g = toks.map(
            lambda ws: [
                " ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)
            ]
        )
        d = pd.DataFrame(
            {group_col: df[group_col].astype(str), "ngram": g}
        ).explode("ngram")
        d = d[d["ngram"].notna()]
        return d.drop_duplicates()

    exploded = docs.map_batches(grams, batch_format="pandas")
    return bipartite_project(
        exploded,
        left_col=group_col,
        right_col="ngram",
        num_buckets=num_buckets,
        max_center_degree=max_center_degree,
    )


def mixture_report(
    docs,
    *,
    group_cols: tuple[str, ...] = ("source", "lang"),
    text_col: str = "text",
    num_buckets: int = 64,
    round_dp: int = 6,
):
    """Corpus-composition report ("data mixture card"): per group (e.g.
    source × lang) the document count, exact whitespace-token count,
    and each group's share of all tokens — the table every pretraining
    mixture decision starts from. Returns a Dataset
    (*group_cols, n_docs, n_tokens, token_share) with O(groups) rows.

    ONE map-side pass pre-aggregates (docs, tokens) per group per batch
    (never raw rows through the shuffle), one tiny bucket aggregate,
    and the grand total folds back in a streaming map (integer counts ⇒
    partition-invariant; the share is one rounded division)."""
    from flashray.joins import bucket_group_agg

    gcols = list(group_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[gcols].copy()
        for c in gcols:
            d[c] = d[c].astype(str)
        d["n_docs"] = np.ones(len(df), dtype=np.int64)
        d["n_tokens"] = (
            df[text_col].astype(str).str.findall(r"\S+").str.len()
            .to_numpy(dtype=np.int64)
        )
        return d.groupby(gcols, as_index=False).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")
        )

    agg = bucket_group_agg(
        docs.map_batches(partial, batch_format="pandas"),
        gcols,
        {"n_docs": ("n_docs", "sum"), "n_tokens": ("n_tokens", "sum")},
        num_buckets=num_buckets,
    ).materialize()
    total = int(agg.sum("n_tokens") or 0)

    def share(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["token_share"] = np.round(
            df["n_tokens"].to_numpy(dtype=np.int64) * 1.0 / max(total, 1),
            round_dp,
        )
        return df

    return agg.map_batches(share, batch_format="pandas")


def resample_mixture(
    docs,
    weights: dict[str, int],
    *,
    group_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    salt: str = "mix",
    num_buckets: int = 64,
):
    """Deterministic downsample of a corpus to TARGET token-share ratios
    (the mixture-adjustment step between `mixture_report` and training:
    "resample so en:de:es:fr:zh token shares are 2:1:1:1:1"). Groups
    absent from ``weights`` (or weighted 0) are dropped.

    All arithmetic is EXACT INTEGER so the SQL replay is bit-identical
    (the repo-wide integer-threshold convention; the oracle runs it in
    HUGEINT):

      W      = Σ weights
      N      = min_g floor(T_g · W / w_g)   (largest feasible total
               token budget given per-group supplies T_g — the binding
               group is kept whole, every other group downsamples)
      thr_g  = floor(w_g · N · 2⁶⁴ / (W · T_g))

    and a document survives iff ``sha_u64(salt|doc_id) < thr_g`` — the
    deterministic hash-Bernoulli acceptance used across the repo (no
    RNG, identical under any partitioning). Expected surviving tokens
    per group ≈ w_g·N/W, i.e. shares ∝ weights.

    Dataflow: one map-side token-count partial + one O(groups) bucket
    aggregate to the driver (thresholds are O(groups) ints), then one
    streaming vectorized filter pass — the corpus itself never
    collects. Returns a Dataset (id_col, group_col, n_tokens) of the
    surviving documents."""
    from flashray.datapipe.sketches import _sha_u64
    from flashray.joins import bucket_group_agg

    for g, w in weights.items():
        if int(w) < 0:
            raise ValueError(f"negative mixture weight for group {g!r}")
    wpos = {str(g): int(w) for g, w in weights.items() if int(w) > 0}
    if not wpos:
        raise ValueError("resample_mixture needs at least one positive weight")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "g": df[group_col].astype(str),
                "t": df[text_col].astype(str).str.findall(r"\S+").str.len()
                .to_numpy(dtype=np.int64),
            }
        )
        return d.groupby("g", as_index=False).agg(t=("t", "sum"))

    totals = bucket_group_agg(
        docs.select_columns([group_col, text_col]).map_batches(
            partial, batch_format="pandas"
        ),
        ["g"], {"t": ("t", "sum")}, num_buckets=num_buckets,
    ).to_pandas()
    T = {str(g): int(t) for g, t in zip(totals["g"], totals["t"])}
    empty = [g for g in wpos if T.get(g, 0) <= 0]
    if empty:
        raise ValueError(
            f"mixture groups with no corpus tokens: {sorted(empty)}"
        )
    W = sum(wpos.values())
    N = min((T[g] * W) // w for g, w in wpos.items())
    thr = {g: (w * N * (1 << 64)) // (W * T[g]) for g, w in wpos.items()}
    # thresholds that reach 2^64 mean p=1 (the binding group): split into
    # a uint64-safe compare value + an accept-all flag so the filter pass
    # stays fully vectorized
    thr_u = {g: np.uint64(min(t, (1 << 64) - 1)) for g, t in thr.items()}
    all_g = {g: t >= (1 << 64) for g, t in thr.items()}

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        g = df[group_col].astype(str)
        t = (
            df[text_col].astype(str).str.findall(r"\S+").str.len()
            .to_numpy(dtype=np.int64)
        )
        h = _sha_u64([f"{salt}|{v}" for v in df[id_col].tolist()])
        tv = g.map(thr_u).fillna(np.uint64(0)).to_numpy(dtype=np.uint64)
        av = g.map(all_g).fillna(False).to_numpy(dtype=bool)
        keep = av | (h < tv)
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(dtype=np.int64)[keep],
                group_col: g.to_numpy(dtype=object)[keep],
                "n_tokens": t[keep],
            }
        )

    return docs.select_columns([id_col, group_col, text_col]).map_batches(
        filt, batch_format="pandas"
    )


_MASK63 = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def winnow_fingerprints(
    docs,
    *,
    n: int = 4,
    w: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """MOSS winnowing (Schleimer, Wilkerson & Aiken, SIGMOD 2003): from
    each document's sequence of word n-gram hashes, every window of w
    consecutive hashes contributes its minimum — rightmost occurrence on
    ties, the paper's rule. The guarantee: any shared token run of length
    >= w + n - 1 between two documents produces at least one shared
    selected fingerprint, at an expected density of only 2/(w+1) of the
    grams — the local-window structure makes the fingerprint set robust
    to insertions far from the match, unlike a global bottom-k sketch.

    Gram hashes are the repo's SQL-replayable convention (first 8 bytes
    of sha256 of the gram string, masked to 63 bits), so a DuckDB oracle
    replays the full selection with window functions. Completes in-batch
    (zero shuffles); unique grams are hashed once per batch. Returns one
    row per selected (doc_id, pos, fp) with pos the gram index."""
    from flashray.datapipe.sketches import _sha_u64

    tok = re.compile(r"\S+")

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        from numpy.lib.stride_tricks import sliding_window_view

        ids = df[id_col].to_numpy()
        toks = df[text_col].fillna("").astype(str).str.findall(tok)
        gram_lists = []
        for ws_ in toks:
            m = len(ws_)
            gram_lists.append(
                [" ".join(ws_[i : i + n]) for i in range(m - n + 1)]
                if m >= n
                else []
            )
        out_id, out_pos, out_fp = [], [], []
        flat = np.asarray(
            [g for gl in gram_lists for g in gl], dtype=object
        )
        if len(flat):
            uniq, inv = np.unique(flat, return_inverse=True)
            uh = (_sha_u64(list(uniq)) & _MASK63).astype(np.int64)
            hflat = uh[inv]
            ofs = 0
            for d, gl in zip(ids, gram_lists):
                g = len(gl)
                if g == 0:
                    continue
                h = hflat[ofs : ofs + g]
                ofs += g
                if g <= w:
                    # fewer grams than a window: one window, whole doc
                    pos = np.asarray(
                        [g - 1 - int(np.argmin(h[::-1]))], dtype=np.int64
                    )
                else:
                    M = sliding_window_view(h, w)
                    # argmin of the reversed window = FIRST min from the
                    # right = the paper's rightmost-tie rule
                    off = w - 1 - np.argmin(M[:, ::-1], axis=1)
                    pos = np.unique(
                        np.arange(g - w + 1, dtype=np.int64) + off
                    )
                out_id.extend([int(d)] * len(pos))
                out_pos.extend(pos.tolist())
                out_fp.extend(h[pos].tolist())
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_id, dtype=np.int64),
                "pos": pd.Series(out_pos, dtype=np.int64),
                "fp": pd.Series(out_fp, dtype=np.int64),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pandas"
    )


def winnow_overlap(
    docs,
    *,
    n: int = 4,
    w: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_shared: int = 1,
    max_df: int | None = None,
    num_buckets: int = 64,
):
    """Candidate copy pairs à la MOSS: unordered document pairs sharing
    >= min_shared distinct winnowing fingerprints, with the shared count.
    Dataflow: fingerprints complete in-batch, ONE hash-partition by fp
    co-locates each fingerprint's posting list (distinct + pair expansion
    via the vectorized triangular-index kernel, pre-counted map-side),
    one small (a, b) aggregate sums the shares. ``max_df`` drops
    fingerprints present in more than max_df documents before expansion —
    the hot-key cap for boilerplate phrases at corpus scale (a fingerprint
    shared by D documents expands to D² pairs); exact output needs
    max_df=None. Returns (doc_id_a, doc_id_b, n_shared), a < b."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg, bucket_map, pairs_within_groups

    fps = winnow_fingerprints(
        docs, n=n, w=w, id_col=id_col, text_col=text_col
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["fp", "doc_id"])
        if max_df is not None:
            sizes = g.groupby("fp")["doc_id"].transform("size")
            g = g[sizes <= max_df]
        g = g.sort_values(["fp", "doc_id"])
        codes = pd.factorize(g["fp"], sort=False)[0]
        a, b, _ = pairs_within_groups(
            codes.astype(np.int64), g["doc_id"].to_numpy(dtype=np.int64)
        )
        if not len(a):
            return pd.DataFrame(
                {
                    "doc_id_a": pd.Series(dtype=np.int64),
                    "doc_id_b": pd.Series(dtype=np.int64),
                    "n_shared": pd.Series(dtype=np.int64),
                }
            )
        out = (
            pd.DataFrame({"doc_id_a": a, "doc_id_b": b})
            .groupby(["doc_id_a", "doc_id_b"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n_shared"})
        )
        return out.astype(np.int64)

    pairs = bucket_map(
        fps.select_columns(["fp", "doc_id"]),
        ["fp"],
        per_bucket,
        num_buckets=num_buckets,
    )
    agg = bucket_group_agg(
        pairs,
        ["doc_id_a", "doc_id_b"],
        {"n_shared": ("n_shared", "sum")},
        num_buckets=num_buckets,
    )

    def final(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.greater_equal(b["n_shared"], min_shared))

    return agg.map_batches(final, batch_format="pyarrow")


def percentile_gate_by_group(
    ds,
    group_col: str,
    value_col: str,
    *,
    q: float = 0.25,
    keep: str = "ge",
):
    """Per-group percentile gate (the per-domain / per-language quality
    threshold real pretraining pipelines apply — a single global cut lets
    one verbose source push every short-form source below the bar): keep
    rows whose ``value_col`` is >= (``keep='ge'``) or < (``keep='lt'``)
    their OWN group's exact quantile_disc(q) cut. Cuts come from ONE
    global sort (:func:`flashray.datapipe.sketches.exact_group_quantile`);
    the tiny (group, cut) table broadcasts via ``ray.put`` and the filter
    completes in-batch — no second shuffle. Exact-value semantics match
    SQL: ``value >= quantile_disc(value, q) OVER (PARTITION BY group)``."""
    import ray as _ray

    from flashray.datapipe.sketches import exact_group_quantile

    if keep not in ("ge", "lt"):
        raise ValueError("keep must be 'ge' or 'lt'")
    cuts = exact_group_quantile(ds, group_col, value_col, q)
    cut_ref = _ray.put(dict(zip(cuts[group_col], cuts["cut"])))

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        c = df[group_col].map(_ray.get(cut_ref)).to_numpy(dtype=np.float64)
        v = df[value_col].to_numpy(dtype=np.float64)
        m = (v >= c) if keep == "ge" else (v < c)
        # rows whose group never produced a cut (absent from the
        # count fold ⇒ impossible here, but NaN-safe) are dropped
        m &= ~np.isnan(c)
        return df[m]

    return ds.map_batches(gate, batch_format="pandas")
