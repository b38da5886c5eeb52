"""Distributed text classification: multinomial Naive Bayes.

The quality/language classifiers of real corpus pipelines (CCNet,
RefinedWeb) are linear models over token counts; multinomial NB is the
count-table instance that fits this repo's exactness conventions: the
MODEL IS two distributed count tables (never a broadcast vocabulary —
the `ngram_lm_logprob` shape), training is pure integer aggregation,
and scoring folds ``ln`` terms whose 4-dp-rounded per-doc sums a SQL
replay reproduces (the LM-logprob rounding rationale).

With add-1 smoothing the per-doc class score factors so that ONLY
tokens the class has seen need the join:

    score(d, c) = ln n_c − ln N − tf_d · ln(T_c + V)
                  + Σ_{t ∈ d, C(c,t) > 0} tf(d,t) · ln(C(c,t) + 1)

(from Σ_t tf·ln((C+1)/(T_c+V)); the missing-token mass collapses into
the −tf_d·ln(T_c+V) term). So classify = ONE hash join on the token +
one per-(doc, label) bucket aggregate + a vectorized per-doc argmax
over the (small, broadcast) per-class constants."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_TOK = r"\S+"


def _doc_tokens(df: pd.DataFrame, id_col: str, text_col: str,
                label_col: str | None) -> pd.DataFrame:
    """Exact per-doc token counts, completed in-batch (a doc is one row)."""
    toks = df[text_col].astype(str).str.findall(_TOK)
    n = toks.str.len().to_numpy(dtype=np.int64)
    cols = {
        id_col: np.repeat(df[id_col].to_numpy().astype(np.int64), n),
        "token": np.concatenate(
            [np.asarray(t, dtype=object) for t in toks]
        ) if n.sum() else np.array([], dtype=object),
    }
    if label_col is not None:
        cols[label_col] = np.repeat(
            df[label_col].to_numpy().astype(object), n
        )
    d = pd.DataFrame(cols)
    keys = [c for c in (id_col, label_col, "token") if c is not None]
    out = d.groupby(keys, as_index=False).size().rename(columns={"size": "tf"})
    out["tf"] = out["tf"].astype(np.int64)
    return out


def nb_train(
    docs: ray.data.Dataset,
    *,
    label_col: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
) -> dict:
    """Train multinomial NB. Returns the model as
    ``{"token_counts": Dataset (label, token, count),
    "class_stats": pd.DataFrame (label, n_docs, total_tokens) — one row
    per class, driver-small, "vocab_size": int, "n_docs": int}``.
    Training = two bucket aggregates + one distinct count; every number
    is an exact integer (bit-identical under any partitioning)."""
    from flashray.joins import bucket_group_agg

    tok = docs.map_batches(
        lambda df: _doc_tokens(df, id_col, text_col, label_col)[
            [label_col, "token", "tf"]
        ],
        batch_format="pandas",
    )
    token_counts = bucket_group_agg(
        tok, [label_col, "token"], {"count": ("tf", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    cstats = token_counts.map_batches(
        lambda df: df.groupby(label_col, as_index=False).agg(
            total_tokens=("count", "sum")
        ),
        batch_format="pandas",
    ).to_pandas()
    cstats = cstats.groupby(label_col, as_index=False).agg(
        total_tokens=("total_tokens", "sum")
    )

    def doc_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[[label_col]].groupby(label_col, as_index=False).size()

    ndocs = docs.map_batches(doc_partial, batch_format="pandas").to_pandas()
    ndocs = ndocs.groupby(label_col, as_index=False)["size"].sum().rename(
        columns={"size": "n_docs"}
    )
    # classes with zero tokens (all-empty docs) still carry a prior
    stats = ndocs.merge(cstats, on=label_col, how="left")
    stats["total_tokens"] = (
        stats["total_tokens"].fillna(0).astype(np.int64)
    )
    stats["n_docs"] = stats["n_docs"].astype(np.int64)

    vocab = bucket_group_agg(
        token_counts.map_batches(
            lambda df: df[["token"]].drop_duplicates(), batch_format="pandas"
        ),
        ["token"], None, num_buckets=num_buckets,
    ).count()
    return {
        "token_counts": token_counts,
        "class_stats": stats.sort_values(label_col).reset_index(drop=True),
        "vocab_size": int(vocab),
        "n_docs": int(stats["n_docs"].sum()),
        "label_col": label_col,
    }


def nb_classify(
    docs: ray.data.Dataset,
    model: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int = 64,
    round_dp: int = 4,
) -> ray.data.Dataset:
    """Classify with a trained NB model: Dataset (doc_id, pred,
    score) — score = the winning class's ``round_dp``-rounded
    log-posterior (up to the constant evidence term); argmax compares
    ROUNDED scores with label-ascending ties, so a SQL replay picks the
    same class. Every input doc gets exactly one output row — a doc
    with no tokens is scored on the class priors alone. One token hash
    join + one (doc, label) bucket aggregate + a per-doc vectorized
    fold over the broadcast per-class constants."""
    from flashray.joins import bucket_group_agg, bucket_hash_join, bucket_map

    label_col = model["label_col"]
    stats = model["class_stats"]
    labels = stats[label_col].to_numpy(dtype=object)
    V = model["vocab_size"]
    lnN = float(np.log(model["n_docs"]))
    ln_prior = np.log(stats["n_docs"].to_numpy(dtype=np.float64)) - lnN
    ln_denom = np.log(stats["total_tokens"].to_numpy(np.float64) + V)

    dt = docs.map_batches(
        lambda df: _doc_tokens(df, id_col, text_col, None),
        batch_format="pandas",
    ).materialize()

    # totals come from the DOC table, not the token rows: a zero-token
    # doc still gets a row (tf_total=0), so classify scores it on the
    # class priors alone instead of silently dropping it
    def tot_part(df: pd.DataFrame) -> pd.DataFrame:
        n = df[text_col].astype(str).str.count(_TOK).to_numpy(np.int64)
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(dtype=np.int64),
                "tf_total": n,
            }
        )

    totals = docs.map_batches(tot_part, batch_format="pandas")

    I64 = pa.int64()
    j = bucket_hash_join(
        dt, model["token_counts"], ["token"],
        num_buckets=num_buckets,
        left_schema=pa.schema(
            [(id_col, I64), ("token", pa.string()), ("tf", I64)]
        ),
        right_schema=pa.schema(
            [(label_col, pa.string()), ("token", pa.string()),
             ("count", I64)]
        ),
    )

    def seen_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(dtype=np.int64),
                label_col: df[label_col].to_numpy(dtype=object),
                "s": df["tf"].to_numpy(dtype=np.float64)
                * np.log(df["count"].to_numpy(dtype=np.float64) + 1.0),
            }
        )
        return d.groupby([id_col, label_col], as_index=False).agg(
            s=("s", "sum")
        )

    seen = bucket_group_agg(
        j.map_batches(seen_partial, batch_format="pandas"),
        [id_col, label_col],
        {"s": ("s", "sum")},
        hash_keys=[id_col],
        num_buckets=num_buckets,
    )

    merged = bucket_hash_join(
        totals, seen, [id_col],
        how="left",
        num_buckets=num_buckets,
        left_schema=pa.schema([(id_col, I64), ("tf_total", I64)]),
        right_schema=pa.schema(
            [(id_col, I64), (label_col, pa.string()), ("s", pa.float64())]
        ),
    )

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pa.table(
                {id_col: pa.array([], I64),
                 "pred": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64())}
            ).to_pandas()
        ids, inv = np.unique(
            df[id_col].to_numpy(dtype=np.int64), return_inverse=True
        )
        tf = np.zeros(len(ids), dtype=np.float64)
        tf[inv] = df["tf_total"].to_numpy(dtype=np.float64)
        S = np.zeros((len(ids), len(labels)), dtype=np.float64)
        lab_idx = {l: i for i, l in enumerate(labels)}
        has = df[label_col].notna().to_numpy()
        li = np.fromiter(
            (lab_idx[l] for l in df[label_col].to_numpy(object)[has]),
            dtype=np.int64, count=int(has.sum()),
        )
        S[inv[has], li] = df["s"].to_numpy(dtype=np.float64)[has]
        scores = np.round(
            ln_prior[None, :] - tf[:, None] * ln_denom[None, :] + S,
            round_dp,
        )
        best = np.argmax(scores, axis=1)  # first max = lowest label (sorted)
        return pd.DataFrame(
            {
                id_col: ids,
                "pred": labels[best],
                "score": scores[np.arange(len(ids)), best],
            }
        )

    return bucket_map(merged, [id_col], decide, num_buckets=num_buckets)


def prototype_classify(
    ds: ray.data.Dataset,
    *,
    label_col: str = "label",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    batch_size: int = 4096,
    round_dp: int = 6,
) -> ray.data.Dataset:
    """Nearest-class-mean (prototype / Rocchio) classifier over an
    embedding column: class prototypes = per-label element-wise mean
    vectors (ONE streaming pass of per-batch partial sums — the kmeans
    partial shape, O(labels·d) driver data), then one broadcast
    assignment pass: pred = argmin_c ‖x − μ_c‖ (euclidean, lowest label
    on ties), dist = the winning distance ``round_dp``-rounded. The
    supervised counterpart of `similarity.centroid_outliers`; the
    standard embedding-space few-parameter classifier. Returns a
    Dataset (vec_id, pred, dist)."""
    import ray as _ray

    from flashray.datapipe.similarity import _stack

    def partial(b: pa.Table) -> pa.Table:
        X = _stack(b[vec_col]).astype(np.float64)
        lab = b[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), X.shape[1] if len(X) else 0))
        np.add.at(sums, inv, X)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "lab": pa.array(uniq),
                "n": pa.array(cnts),
                "sums": pa.array([row.tobytes() for row in sums]),
            }
        )

    parts = ds.select_columns([label_col, vec_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    if not len(parts):
        raise ValueError("prototype_classify over an empty dataset")
    mats = np.stack(
        [np.frombuffer(b, dtype=np.float64) for b in parts["sums"].to_numpy()]
    )
    labs = parts["lab"].to_numpy().astype(np.int64)
    labels, inv = np.unique(labs, return_inverse=True)
    sums = np.zeros((len(labels), mats.shape[1]))
    np.add.at(sums, inv, mats)
    cnts = np.bincount(
        inv, weights=parts["n"].to_numpy().astype(np.float64)
    )
    protos = sums / cnts[:, None]
    ref = _ray.put(protos)

    def assign(b: pa.Table) -> pa.Table:
        X = _stack(b[vec_col]).astype(np.float64)
        P = _ray.get(ref)
        d2 = ((X[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1)
        best = np.argmin(d2, axis=1)  # first min = lowest label
        return pa.table(
            {
                id_col: b[id_col].cast(pa.int64()),
                "pred": pa.array(labels[best]),
                "dist": pa.array(
                    np.round(
                        np.sqrt(d2[np.arange(len(X)), best]), round_dp
                    )
                ),
            }
        )

    return ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow", batch_size=batch_size
    )


def confusion(
    ds: ray.data.Dataset,
    *,
    truth_col: str,
    pred_col: str,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Classification evaluation: the confusion matrix as a Dataset
    (truth, pred, n) — O(classes²) rows from map-side per-batch cell
    partials + one tiny bucket aggregate (the evaluation stage every
    classifier pipeline ends with; accuracy/precision/recall are one
    driver fold over these cells)."""
    from flashray.joins import bucket_group_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "truth": df[truth_col].astype(str),
                "pred": df[pred_col].astype(str),
            }
        )
        out = d.groupby(["truth", "pred"], as_index=False).size().rename(
            columns={"size": "n"}
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    return bucket_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["truth", "pred"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )


def hashed_features(
    docs: ray.data.Dataset,
    *,
    d: int = 256,
    signed: bool = True,
    salt: str = "fh",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Feature hashing (Weinberger et al. 2009, the "hashing trick"):
    sparse bag-of-words features in a FIXED d-dimensional space with no
    vocabulary state — token t maps to cell ``h % d`` with sign
    ``(h // d) % 2 ? −1 : +1`` (the unbiasing signed variant;
    ``signed=False`` for raw counts), h = sha64(salt|t). The standard
    input encoding for linear classifiers/regressors at corpus scale:
    NO shuffle at all — every document's features complete inside its
    batch (exact per-doc token counts are in-batch), the output stays
    distributed as (doc_id, feature, value) sparse rows, and the
    sha-derived cells are bit-reproducible and SQL-replayable (the CMS
    register convention)."""
    from flashray.datapipe.sketches import _sha_u64

    dd = np.uint64(d)

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        t = _doc_tokens(df, id_col, text_col, None)
        if not len(t):
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype=np.int64),
                    "feature": pd.Series(dtype=np.int64),
                    "value": pd.Series(dtype=np.int64),
                }
            )
        uniq, inv = np.unique(t["token"].to_numpy(object),
                              return_inverse=True)
        h = _sha_u64([f"{salt}|{s}" for s in uniq])
        feat = (h % dd).astype(np.int64)[inv]
        if signed:
            sign = np.where(
                ((h // dd) % np.uint64(2)) == 0, 1, -1
            ).astype(np.int64)[inv]
        else:
            sign = np.ones(len(inv), dtype=np.int64)
        out = pd.DataFrame(
            {
                id_col: t[id_col].to_numpy(dtype=np.int64),
                "feature": feat,
                "value": sign * t["tf"].to_numpy(dtype=np.int64),
            }
        )
        out = out.groupby([id_col, "feature"], as_index=False).agg(
            value=("value", "sum")
        )
        return out[out["value"] != 0]

    return docs.map_batches(feats, batch_format="pandas")


def _doc_ngram_cells(
    df: pd.DataFrame,
    *,
    id_col: str,
    text_col: str,
    n: int,
    d: int,
    salt: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc hashed word-n-gram cell counts, completed in-batch:
    returns (doc_ids_per_row, cell, count) sparse arrays. Cell =
    sha64(salt|gram) % d — the hashed_features/CMS register convention,
    SQL-replayable."""
    from flashray.datapipe.sketches import _sha_u64

    toks = df[text_col].astype(str).str.findall(_TOK)
    ids = df[id_col].to_numpy().astype(np.int64)
    out_id, out_cell, out_cnt = [], [], []
    grams_all, gram_doc = [], []
    for did, ws in zip(ids, toks):
        if len(ws) < n:
            continue
        gs = [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]
        grams_all.extend(gs)
        gram_doc.extend([did] * len(gs))
    if not grams_all:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    uniq, inv = np.unique(np.asarray(grams_all, dtype=object),
                          return_inverse=True)
    cells = (_sha_u64([f"{salt}|{g}" for g in uniq]) % np.uint64(d)).astype(
        np.int64
    )[inv]
    pdf = pd.DataFrame(
        {"doc": np.asarray(gram_doc, dtype=np.int64), "cell": cells}
    )
    agg = pdf.groupby(["doc", "cell"], as_index=False).size()
    return (
        agg["doc"].to_numpy(dtype=np.int64),
        agg["cell"].to_numpy(dtype=np.int64),
        agg["size"].to_numpy(dtype=np.int64),
    )


def _corpus_cell_counts(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    text_col: str,
    n: int,
    d: int,
    salt: str,
) -> np.ndarray:
    """Global hashed-cell count vector (length d) for a corpus: per-batch
    in-batch counts (one length-d partial per batch, never a per-gram
    row shuffle), folded on the driver — O(d · blocks) driver data, d is
    a CONFIG constant, so this is scale-free in corpus size."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        _, cell, cnt = _doc_ngram_cells(
            df, id_col=id_col, text_col=text_col, n=n, d=d, salt=salt
        )
        vec = np.bincount(cell, weights=cnt, minlength=d).astype(np.int64)
        nz = np.flatnonzero(vec)
        return pd.DataFrame({"cell": nz.astype(np.int64),
                             "cnt": vec[nz]})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    vec = np.zeros(d, dtype=np.int64)
    if len(parts):
        np.add.at(vec, parts["cell"].to_numpy(), parts["cnt"].to_numpy())
    return vec


def dsir_weights(
    raw: ray.data.Dataset,
    target: ray.data.Dataset,
    *,
    n: int = 2,
    d: int = 10_000,
    salt: str = "dsir",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """DSIR-style importance weights (Xie et al., "Data Selection for
    Language Models via Importance Resampling", NeurIPS 2023 — public
    knowledge): score every raw document by the log-likelihood ratio of
    a hashed word-n-gram unigram model fit on the TARGET corpus vs one
    fit on the RAW corpus,

        logweight(doc) = Σ_cells tf(doc, c) · [ln p̂_target(c) − ln p̂_raw(c)]

    with add-one smoothing over the d hash cells. High-weight docs look
    like the target distribution; resample/threshold on the weights to
    select pretraining data.

    100-TB shape: hashed cells make the feature space a FIXED d — both
    corpus models are one streaming pass each emitting length-d partial
    vectors (no vocabulary shuffle, no per-gram rows leaving the batch),
    the log-ratio vector broadcasts once via ray.put (d·8 bytes,
    config-bounded), and scoring is a third streaming pass whose per-doc
    sums complete in-batch — ZERO shuffles end-to-end. Docs with fewer
    than n tokens score 0.0 (no cells)."""
    tvec = _corpus_cell_counts(
        target, id_col=id_col, text_col=text_col, n=n, d=d, salt=salt
    )
    rvec = _corpus_cell_counts(
        raw, id_col=id_col, text_col=text_col, n=n, d=d, salt=salt
    )
    T, R = int(tvec.sum()), int(rvec.sum())
    lr = np.log((tvec + 1.0) / (T + d)) - np.log((rvec + 1.0) / (R + d))
    lref = ray.put(lr)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy().astype(np.int64)
        rid, cell, cnt = _doc_ngram_cells(
            df, id_col=id_col, text_col=text_col, n=n, d=d, salt=salt
        )
        w = np.zeros(len(ids))
        if len(rid):
            pos = {int(v): i for i, v in enumerate(ids)}
            idx = np.fromiter(
                (pos[int(v)] for v in rid), dtype=np.int64, count=len(rid)
            )
            np.add.at(w, idx, cnt * ray.get(lref)[cell])
        return pd.DataFrame({id_col: ids, "logweight": w})

    return raw.map_batches(score, batch_format="pandas")


def rrf_fuse(
    rankings,
    *,
    k_rrf: int = 60,
    id_col: str = "doc_id",
    rank_col: str = "rank",
    num_buckets: int = 64,
):
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher, SIGIR 2009):
    fused score = Σ over rank lists of 1/(k + rank(d)), docs absent from
    a list contributing nothing — the standard zero-training way to
    combine lexical (BM25) and embedding retrieval. One tagged union +
    one bucket aggregate; the fused table is as small as the union of
    the input top-lists, so the final sort is a driver sort by design.
    Returns (fused_rank, <id_col>, score), ranked by (score desc, id).
    With exactly two lists the score is an order-free two-term float sum
    (bit-identical to a SQL replay); at three or more lists summation
    order can differ across systems by ulps — round before comparing."""
    import pyarrow as pa

    from flashray.joins import bucket_group_agg

    if not rankings:
        raise ValueError("rrf_fuse needs at least one ranking")

    def contrib(b: pa.Table) -> pa.Table:
        r = b[rank_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                id_col: b[id_col].cast(pa.int64()),
                "score": pa.array(1.0 / (k_rrf + r)),
            }
        )

    u = rankings[0].map_batches(contrib, batch_format="pyarrow")
    for r in rankings[1:]:
        u = u.union(r.map_batches(contrib, batch_format="pyarrow"))
    agg = bucket_group_agg(
        u, [id_col], {"score": ("score", "sum")}, num_buckets=num_buckets
    ).to_pandas()
    agg = agg.sort_values(
        ["score", id_col], ascending=[False, True]
    ).reset_index(drop=True)
    agg["fused_rank"] = np.arange(1, len(agg) + 1, dtype=np.int64)
    return agg[["fused_rank", id_col, "score"]]
