"""Composed end-to-end pipelines: the one-call recipes a user of the
engine runs over a whole corpus, chaining the individually-tested
operators without any new shuffle machinery.

`pretrain_corpus` is the flagship: the standard pretraining-data
cleaning recipe (exact dedup → Gopher-style quality filter → language
gate) expressed as three INDEPENDENT per-document predicates evaluated
over the ORIGINAL corpus and intersected — predicate independence is
what makes the composition order-free, fully parallel, and exactly
SQL-replayable (the `docs_pretrain_corpus` oracle chains the three
stage oracles' CTEs verbatim)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def pretrain_corpus(
    docs: ray.data.Dataset,
    *,
    langs: tuple[str, ...] = ("en",),
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    max_dup_word_frac: float = 0.55,
    max_top_2gram_frac: float = 0.1,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
    materialize_threshold: int | None = 2_000_000,
) -> ray.data.Dataset:
    """Pretraining-corpus cleaning: a document survives iff it is
    (1) the lowest-id copy of its exact text (`dedup.exact_dedup`'s keep
    rule), (2) quality-kept (`textstats.quality_filter`: token band +
    duplicate-word + top-2-gram caps, 6-dp-rounded comparisons), and
    (3) language-identified into ``langs`` (`textstats.lang_id_batch` stopword
    profiles). Returns a Dataset (doc_id, lang_pred) of survivors.

    All three predicates are defined over the ORIGINAL corpus (the
    dedup winner is the global lowest id among copies, kept or not), so
    the three passes run independently — one content-hash bucket
    shuffle (dedup), two stateless task passes (quality, langid)
    — and intersect through two id semi-joins (streamed corpora) or a
    broadcast map-side id intersection (pinned-size corpora — the id
    sets are O(docs) int64s, so below ``materialize_threshold`` they
    ship once via ray.put and the two shuffles disappear). Nothing
    re-reads text after its pass and no stage depends on another's
    output order.

    The (id, text) projection is pinned in the object store ONLY below
    ``materialize_threshold`` rows (the repo-wide hybrid idiom): small
    corpora reuse one materialized copy across the three passes; above
    the threshold each pass streams its own column-pruned scan instead
    of forcing the full corpus through the object store + spill —
    pass ``None`` to always stream, ``sys.maxsize`` to always pin."""
    from flashray.datapipe.dedup import exact_dedup
    from flashray.datapipe.textstats import lang_id_batch, quality_filter
    from flashray.joins import bucket_semi_join

    base = docs.select_columns([id_col, text_col])
    small = (
        materialize_threshold is not None
        and base.count() <= materialize_threshold
    )
    if small:
        base = base.materialize()

    keep_ids = exact_dedup(base, text_col=text_col, id_col=id_col).map_batches(
        lambda b: pa.table({id_col: b["keep_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )

    q_ids = quality_filter(
        base,
        min_tokens=min_tokens,
        max_tokens=max_tokens,
        max_dup_word_frac=max_dup_word_frac,
        max_top_2gram_frac=max_top_2gram_frac,
        id_col=id_col,
        text_col=text_col,
    ).map_batches(
        lambda b: b.filter(b["keep"].to_numpy() == 1).select([id_col]),
        batch_format="pyarrow",
    )

    lang_set = frozenset(langs)

    def lang_gate(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["lang_pred"].isin(lang_set)]
        return pd.DataFrame(
            {
                id_col: out[id_col].to_numpy().astype(np.int64),
                "lang_pred": out["lang_pred"].to_numpy().astype(object),
            }
        )

    lang = base.map_batches(
        lang_id_batch, fn_kwargs={"text_col": text_col}, batch_format="pandas"
    ).map_batches(lang_gate, batch_format="pandas")

    if small:
        # the survivor id sets are O(docs) int64s: on a pinned-size corpus
        # broadcast them via ray.put and intersect map-side — the two
        # bucket semi-joins disappear (same keep rule, agreement via the
        # docs_pretrain_corpus oracle + pipeline tests)
        import ray as _ray

        kset = np.sort(keep_ids.to_pandas()[id_col].to_numpy(np.int64))
        qset = np.sort(q_ids.to_pandas()[id_col].to_numpy(np.int64))
        ref = _ray.put((kset, qset))

        def _in_sorted(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
            if not len(keys):
                return np.zeros(len(ids), dtype=bool)
            p = np.searchsorted(keys, ids)
            return (p < len(keys)) & (
                keys[np.minimum(p, len(keys) - 1)] == ids
            )

        def gate_ids(df: pd.DataFrame) -> pd.DataFrame:
            ks, qs = _ray.get(ref)
            ids = df[id_col].to_numpy(dtype=np.int64)
            return df[_in_sorted(ks, ids) & _in_sorted(qs, ids)]

        return lang.map_batches(gate_ids, batch_format="pandas")

    lsch = pa.schema([(id_col, pa.int64()), ("lang_pred", pa.string())])
    out = bucket_semi_join(
        lang, q_ids, [id_col], num_buckets=num_buckets, left_schema=lsch,
    )
    return bucket_semi_join(
        out, keep_ids, [id_col], num_buckets=num_buckets, left_schema=lsch,
    )
