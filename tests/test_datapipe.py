"""Dedup / similarity / textstats / multimodal operators."""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from flashray.datapipe import dedup, multimodal, similarity, textstats
from flashray.joins import bucket_map


def _docs_with_dups():
    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs for the long trip home",
        "sphinx of black quartz judge my vow before the winter ends",
        "how vexingly quick daft zebras jump over fences in the park",
    ]
    rows = []
    did = 0
    for i, t in enumerate(base):
        rows.append({"doc_id": did, "text": t}); did += 1
        rows.append({"doc_id": did, "text": t}); did += 1  # exact dup
        words = t.split()
        words[-1] = "changed"
        rows.append({"doc_id": did, "text": " ".join(words)}); did += 1  # near dup
    # unrelated docs
    for j in range(8):
        rows.append({"doc_id": did, "text": f"totally unrelated document number {j} with words w{j}a w{j}b w{j}c w{j}d w{j}e w{j}f w{j}g"}); did += 1
    return pd.DataFrame(rows)


def test_exact_dedup():
    df = _docs_with_dups()
    out = dedup.exact_dedup(rd.from_pandas(df)).to_pandas()
    n_dups = int((out["n_copies"] > 1).sum())
    assert n_dups == 4  # each base text appears exactly twice
    # the survivor is the min doc_id of each exact-dup pair
    dup_keep = set(out[out["n_copies"] > 1]["keep_id"].astype(int))
    assert dup_keep == {0, 3, 6, 9}
    assert out["n_copies"].sum() == len(df)


def test_minhash_near_dups():
    df = _docs_with_dups()
    pairs = dedup.candidate_pairs_minhash(
        rd.from_pandas(df), threshold=0.5
    ).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int)))
    # exact dups must be found; near-dups (one word changed) should be too
    for b in [0, 3, 6, 9]:
        assert (b, b + 1) in got
        assert (b, b + 2) in got or (b + 1, b + 2) in got
    # unrelated docs must not pair with the base docs
    for a, b in got:
        assert a < 12 and b < 12


def test_duplicate_groups_union_find():
    df = _docs_with_dups()
    pairs = dedup.candidate_pairs_minhash(rd.from_pandas(df), threshold=0.5)
    groups = dedup.duplicate_groups(pairs)
    gmap = dict(zip(groups["doc_id"], groups["group"]))
    for b in [0, 3, 6, 9]:
        assert gmap[b] == b and gmap[b + 1] == b and gmap[b + 2] == b


def test_duplicate_groups_wcc_engine(tmp_path):
    df = _docs_with_dups()
    pairs = dedup.candidate_pairs_minhash(rd.from_pandas(df), threshold=0.5)
    via_uf = dedup.duplicate_groups(pairs)
    via_wcc = dedup.duplicate_groups(pairs, scratch_dir=str(tmp_path / "pairg"))
    # threshold 0 forces the auto-route onto the engine backend with no
    # scratch_dir given (the scale default above 5M pairs)
    via_auto = dedup.duplicate_groups(pairs, engine_pair_threshold=0)
    a = dict(zip(via_uf["doc_id"].astype(int), via_uf["group"].astype(int)))
    b = dict(zip(via_wcc["doc_id"].astype(int), via_wcc["group"].astype(int)))
    c = dict(zip(via_auto["doc_id"].astype(int), via_auto["group"].astype(int)))
    assert a == b == c


def test_simhash_pairs():
    df = _docs_with_dups()
    pairs = dedup.candidate_pairs_simhash(rd.from_pandas(df), max_hamming=4).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int)))
    for b in [0, 3, 6, 9]:
        assert (b, b + 1) in got  # identical text -> hamming 0


@pytest.mark.parametrize(
    "signatures, keys",
    [
        (dedup._simhash_signatures, dedup._simhash_keys),
        (dedup._minhash_signatures, dedup._minhash_keys(128, None, 0.5)),
    ],
)
def test_band_rows_of_an_empty_batch_keep_one_schema(signatures, keys):
    t = pa.Table.from_pandas(_docs_with_dups(), preserve_index=False)
    full, empty = (
        dedup._band_rows(signatures(b), id_col="doc_id", keys=keys)
        for b in (t, t.slice(0, 0))
    )
    assert empty.num_rows == 0 and empty.schema.equals(full.schema)


def test_ngram_jaccard_exact_values():
    df = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": ["a b c d e f", "a b c d e f"],
        }
    )
    pairs = dedup.exact_jaccard_pairs(
        rd.from_pandas(df), threshold=0.9
    ).to_pandas()
    assert len(pairs) == 1
    assert pairs["jaccard"].iloc[0] == 1.0


@pytest.mark.parametrize(
    "threshold, bands", [(0.5, 32), (0.7, 32), (0.8, 16), (0.9, 8)]
)
def test_auto_bands_at_128_perms(threshold, bands):
    assert dedup._auto_bands(128, threshold) == bands


def _planted_docs(seed: int, n: int = 120) -> pd.DataFrame:
    """Random word salad with planted exact copies and one-word edits."""
    rng = np.random.default_rng(seed)
    vocab = [f"v{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(4, 30)))) for _ in range(n)]
    for i in range(0, n, 6):
        texts[(i * 7 + 1) % n] = texts[i]
    for i in range(3, n, 7):
        words = texts[i].split()
        words[len(words) // 2] = "edit"
        texts[(i * 5 + 2) % n] = " ".join(words)
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64) * 3 + 1, "text": texts})


def _minhash_sigs(df: pd.DataFrame) -> tuple[pa.Table, np.ndarray]:
    tbl = dedup._minhash_signatures(pa.Table.from_pandas(df, preserve_index=False))
    return tbl, np.stack(tbl["signature"].to_numpy(zero_copy_only=False))


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns[:2])).reset_index(drop=True)


def _brute_force_pairs(df: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Every pair (a < b) that shares some LSH band key and whose
    signatures agree on >= threshold of their values."""
    bands = dedup._auto_bands(128, threshold)
    _, sigs = _minhash_sigs(df)
    keys = dedup._band_keys(sigs, bands, 128 // bands)
    ids = df["doc_id"].to_numpy()
    i, j = np.triu_indices(len(ids), k=1)
    agree = (sigs[i] == sigs[j]).mean(axis=1)
    ok = (keys[i] == keys[j]).any(axis=1) & (agree >= threshold)
    a, b = ids[i[ok]], ids[j[ok]]
    return _sorted(pd.DataFrame(
        {"a": np.minimum(a, b), "b": np.maximum(a, b), "similarity": agree[ok]}
    ))


def _brute_force_cross(tr: pd.DataFrame, ev: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Every train × eval pair that shares some LSH band key and whose
    signatures agree on >= threshold of their values."""
    bands = dedup._auto_bands(128, threshold)
    (_, st), (_, se) = _minhash_sigs(tr), _minhash_sigs(ev)
    kt, ke = (dedup._band_keys(s, bands, 128 // bands) for s in (st, se))
    i, j = (m.ravel() for m in np.meshgrid(np.arange(len(tr)), np.arange(len(ev)), indexing="ij"))
    agree = (st[i] == se[j]).mean(axis=1)
    ok = (kt[i] == ke[j]).any(axis=1) & (agree >= threshold)
    return _sorted(pd.DataFrame({
        "doc_id": tr["doc_id"].to_numpy()[i[ok]],
        "eval_id": ev["doc_id"].to_numpy()[j[ok]],
        "similarity": agree[ok],
    }))


def _brute_force_simhash(df: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """Every pair (a < b) whose SimHashes are equal on some 16-bit chunk
    and differ in at most max_hamming bits."""
    sig = dedup._simhash_sigs(df["text"].tolist()).astype(np.uint64)
    ids = df["doc_id"].to_numpy()
    i, j = np.triu_indices(len(ids), k=1)
    ham = np.array([bin(int(x)).count("1") for x in sig[i] ^ sig[j]], dtype=np.int64)
    chunks = [np.uint64(0xFFFF) << np.uint64(16 * c) for c in range(4)]
    share = np.any([(sig[i] & m) == (sig[j] & m) for m in chunks], axis=0)
    ok = share & (ham <= max_hamming)
    a, b = ids[i[ok]], ids[j[ok]]
    return _sorted(pd.DataFrame(
        {"a": np.minimum(a, b), "b": np.maximum(a, b), "hamming": ham[ok]}
    ))


def _brute_force_cosine(t: pa.Table, threshold: float, planes: np.ndarray) -> pd.DataFrame:
    """Every pair (a < b) whose sign signatures are equal in some table
    and whose cosine is >= threshold."""
    V = similarity._normalize(np.stack(t["embedding"].to_numpy(zero_copy_only=False)))
    bits = np.einsum("tpd,nd->tnp", planes, V) > 0
    sig = (bits * (1 << np.arange(planes.shape[1]))).sum(axis=2)
    W = V.astype(np.float64)
    cos = W @ W.T
    ids = t["vec_id"].to_numpy()
    i, j = np.triu_indices(len(ids), k=1)
    ok = (sig[:, i] == sig[:, j]).any(axis=0) & (cos[i, j] >= threshold)
    return _sorted(pd.DataFrame({"a": ids[i[ok]], "b": ids[j[ok]], "cosine": cos[i, j][ok]}))


def _minhash_rows(df: pd.DataFrame, threshold: float, side: int | None = None):
    """In-process MinHash band rows and the verify that runs over them."""
    keys = dedup._minhash_keys(128, None, threshold)
    rows = dedup._band_rows(_minhash_sigs(df)[0], id_col="doc_id", keys=keys).to_pandas()
    verify = functools.partial(
        dedup._bucket_pairs, keys=keys, cross=side is not None,
        compare=functools.partial(dedup._agreement, threshold=threshold),
    )
    return (rows if side is None else rows.assign(side=side)), verify


def _simhash_rows(df: pd.DataFrame, max_hamming: int):
    tbl = dedup._simhash_signatures(pa.Table.from_pandas(df, preserve_index=False))
    rows = dedup._band_rows(tbl, id_col="doc_id", keys=dedup._simhash_keys).to_pandas()
    verify = functools.partial(
        dedup._bucket_pairs, keys=dedup._simhash_keys, value="hamming",
        compare=functools.partial(dedup._hamming, max_hamming=max_hamming),
    )
    return rows, verify


def _cross_split(df: pd.DataFrame, eval_ids) -> tuple[pd.DataFrame, pd.DataFrame]:
    is_eval = df["doc_id"].isin(eval_ids)
    return df[~is_eval], df[is_eval]


def _minhash_case(threshold: float):
    df = _planted_docs(int(threshold * 10))
    rows, verify = _minhash_rows(df, threshold)
    run = lambda: dedup.candidate_pairs_minhash(rd.from_pandas(df), threshold=threshold)
    return rows, verify, _brute_force_pairs(df, threshold), run


def _simhash_case():
    df = _planted_docs(4)
    rows, verify = _simhash_rows(df, 6)
    run = lambda: dedup.candidate_pairs_simhash(rd.from_pandas(df), max_hamming=6)
    return rows, verify, _brute_force_simhash(df, 6), run


def _cross_case():
    df = _planted_docs(6)
    # every third doc is eval, renumbered so that eval ids reuse train ids
    tr, ev = _cross_split(df, df["doc_id"].iloc[::3])
    ev = ev.assign(doc_id=np.arange(len(ev), dtype=np.int64) * 3 + 4)
    (rt, verify), (re, _) = _minhash_rows(tr, 0.5, side=0), _minhash_rows(ev, 0.5, side=1)
    run = lambda: dedup.minhash_decontaminate(
        rd.from_pandas(tr), rd.from_pandas(ev), threshold=0.5
    )
    return pd.concat([rt, re], ignore_index=True), verify, _brute_force_cross(tr, ev, 0.5), run


def _cosine_case():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((150, 16)).astype(np.float32)
    V[100:120] = V[:20]  # exact copies
    V[120:140] = V[20:40] + 0.05 * V[40:60]  # near duplicates
    t = pa.table({"vec_id": np.arange(150, dtype=np.int64) * 3 + 1, "embedding": list(V)})
    # embedding_near_dups' planes: seed 42, 16 tables of 8 planes
    planes = np.random.default_rng(42).standard_normal((16, 8, 16)).astype(np.float32)
    rows = similarity._cosine_band_rows(
        t, seed=42, num_tables=16, num_planes=8, vec_col="embedding", id_col="vec_id"
    ).to_pandas()
    verify = functools.partial(
        dedup._bucket_pairs, keys=functools.partial(similarity._carried_keys, tables=16),
        value="cosine",
        compare=functools.partial(similarity._cosine, tables=16, threshold=0.95),
    )
    run = lambda: similarity.embedding_near_dups(rd.from_arrow(t), threshold=0.95)
    return rows, verify, _brute_force_cosine(t, 0.95, planes), run


LSH_FAMILIES = {
    "minhash-0.5": lambda: _minhash_case(0.5),
    "minhash-0.8": lambda: _minhash_case(0.8),
    "simhash": _simhash_case,
    "cross": _cross_case,
    "cosine": _cosine_case,
}


def _verify_in_process(rows: pd.DataFrame, verify, num_buckets: int) -> pd.DataFrame:
    """One verify call per emulated shuffle bucket (LSH key mod
    num_buckets), so each call covers many LSH buckets."""
    groups = rows.groupby(rows["bucket"] % num_buckets)
    return pd.concat([verify(g.reset_index(drop=True)) for _, g in groups], ignore_index=True)


@pytest.mark.parametrize("family", list(LSH_FAMILIES))
def test_lsh_verify_matches_brute_force(family):
    rows, verify, want, run = LSH_FAMILIES[family]()
    assert len(want) > 10
    # the verify sums cosine products in another order than a matmul
    tol = dict(check_exact=False, rtol=0, atol=1e-12) if family == "cosine" else {}
    pd.testing.assert_frame_equal(_sorted(run().to_pandas()), want, **tol)
    # the same verify over 1 and 7 shuffle buckets: each call covers many
    # LSH buckets, and every pair still leaves exactly one call
    for num_buckets in (1, 7):
        got = _verify_in_process(rows, verify, num_buckets)
        pd.testing.assert_frame_equal(_sorted(got), want, **tol)


def _hot_bucket_docs() -> pd.DataFrame:
    """2,000 copies of one text (ids 0..1999) plus 20 one-word edits of it."""
    base = " ".join(f"w{i}" for i in range(40))
    texts = [base] * 2000
    for k in range(20):
        words = base.split()
        words[2 * k] = "edit"
        texts.append(" ".join(words))
    return pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts})


@pytest.mark.parametrize("family", ["minhash", "simhash", "cross"])
def test_lsh_verify_hot_bucket_compares_distinct_signatures(family, monkeypatch):
    df = _hot_bucket_docs()
    if family == "simhash":
        bands, same = 4, 0
        rows, verify = _simhash_rows(df, 6)
        small = _brute_force_simhash(df.iloc[1999:], 6)
    else:
        bands, same = dedup._auto_bands(128, 0.8), 1.0
    if family == "minhash":
        rows, verify = _minhash_rows(df, 0.8)
        small = _brute_force_pairs(df.iloc[1999:], 0.8)
    if family == "cross":
        # train: copies 0..1998 and edits 2000..2009; eval: copy 1999 and
        # edits 2010..2019
        tr, ev = _cross_split(df, [1999, *range(2010, 2020)])
        (rt, verify), (re, _) = _minhash_rows(tr, 0.8, side=0), _minhash_rows(ev, 0.8, side=1)
        rows = pd.concat([rt, re], ignore_index=True)
        small = _brute_force_cross(tr.iloc[1998:], ev, 0.8)
    compared = []
    anchor_pairs = dedup._anchor_pairs

    def counting(lo, hi, chunk):
        for i, j in anchor_pairs(lo, hi, chunk):
            compared.append(len(i))
            yield i, j

    monkeypatch.setattr(dedup, "_anchor_pairs", counting)
    got = verify(rows)
    # one shuffle bucket holding every LSH bucket: the compare ran over the
    # distinct signatures of each LSH bucket only (<= 21 per bucket)
    sides = rows.assign(sig=rows["signature"].map(bytes)).reindex(
        columns=["bucket", "side", "sig"], fill_value=0
    )
    distinct = sides.groupby(["bucket", "side"])["sig"].nunique().unstack(fill_value=0)
    a, b = got.columns[:2]
    if family == "cross":
        assert sum(compared) == int((distinct[0] * distinct[1]).sum())
        assert sum(compared) <= bands * 11 * 11
        copies = got[(got[a] < 2000) & (got[b] < 2000)]
        assert len(copies) == 1999 and (copies["similarity"] == same).all()
        # pairs touching an edit match the brute force over the distinct
        # texts, expanded to the 1,999 train copies of the base
        near = got[(got[a] >= 2000) | (got[b] >= 2000)]
        small = small[(small[a] >= 2000) | (small[b] >= 2000)]
        assert len(near) == int((small[a] == 1998).sum() * 1999 + (small[a] >= 2000).sum())
        key = lambda x, y: (max(x, 1998), y)
    else:
        assert sum(compared) == int((distinct[0] * (distinct[0] - 1) // 2).sum())
        assert sum(compared) <= bands * 21 * 20 // 2
        copies = got[(got[a] < 2000) & (got[b] < 2000)]
        assert len(copies) == 2000 * 1999 // 2 and (copies[got.columns[2]] == same).all()
        # pairs touching a near-duplicate match the brute force over the 21
        # distinct texts, expanded to the 2,000 copies of the base
        near = got[got[b] >= 2000]
        assert len(near) == int((small[a] == 1999).sum() * 2000 + (small[a] >= 2000).sum())
        key = lambda x, y: (max(x, 1999), y)
    assert not got.duplicated([a, b]).any()
    assert len(near) > 0
    value = dict(zip(zip(small[a], small[b]), small[got.columns[2]]))
    for x, y, v in near.itertuples(index=False):
        assert value[key(x, y)] == v


def _sort_shuffles(ds) -> int:
    def walk(op) -> int:
        return (type(op).__name__ == "Sort") + sum(walk(d) for d in op.input_dependencies)

    return walk(ds._logical_plan.dag)


def test_lsh_operators_shuffle_once():
    # plans only: nothing executes
    docs = rd.from_pandas(_docs_with_dups())
    emb = rd.from_arrow(_emb_table()[0])
    plans = [
        dedup.candidate_pairs_minhash(docs),
        dedup.candidate_pairs_simhash(docs),
        dedup.minhash_decontaminate(docs, docs),
        similarity.embedding_near_dups(emb),
    ]
    assert [_sort_shuffles(ds) for ds in plans] == [1, 1, 1, 1]


def _map_worker_actors() -> int:
    import ray._private.state

    return sum(
        "MapWorker" in a.get("ActorClassName", "")
        for a in ray._private.state.actors().values()
    )


def test_signature_stages_start_no_actor_pool():
    df = _docs_with_dups()
    before = _map_worker_actors()
    dedup.exact_dedup(rd.from_pandas(df)).materialize()
    dedup.candidate_pairs_minhash(rd.from_pandas(df)).materialize()
    dedup.candidate_pairs_simhash(rd.from_pandas(df)).materialize()
    textstats.add_fingerprint(rd.from_pandas(df)).materialize()
    assert _map_worker_actors() == before


def _emb_table(n=64, d=16, seed=1):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, d)).astype(np.float32)
    return pa.table({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(V)}), V


def test_knn_brute_force_matches_numpy():
    t, V = _emb_table()
    Q = V[:3] + 0.01
    got = similarity.knn_brute_force(rd.from_arrow(t), Q, k=5)
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    S = Qn @ Vn.T
    for q in range(3):
        want = np.argsort(-S[q])[:5]
        sub = got[got["query_id"] == q]
        assert sub["vec_id"].tolist() == want.tolist()
        assert np.allclose(sub["score"], S[q][want], atol=1e-5)


def test_knn_ivf_high_recall_when_probing_all(tmp_path):
    t, V = _emb_table(128, 16)
    Q = V[:4]
    exact = similarity.knn_brute_force(rd.from_arrow(t), Q, k=5)
    ivf = similarity.knn_ivf(
        rd.from_arrow(t), Q, k=5, num_centroids=8, nprobe=8,
        index_dir=str(tmp_path / "ivf"),
    )
    for q in range(4):
        assert ivf[ivf["query_id"] == q]["vec_id"].tolist() == exact[
            exact["query_id"] == q
        ]["vec_id"].tolist()


def test_knn_ivf_partial_probe_reads_subset(tmp_path):
    """A real index: clustered corpus bucketed on disk; nprobe < K probes
    read only a strict subset of bucket dirs yet recall the true
    neighbors (clusters are well-separated)."""
    import os

    rng = np.random.default_rng(7)
    d, n_clusters, per = 16, 8, 64
    centers = rng.standard_normal((n_clusters, d)).astype(np.float32) * 8
    pts = np.concatenate(
        [centers[c] + rng.standard_normal((per, d)).astype(np.float32) * 0.05
         for c in range(n_clusters)]
    )
    t = pa.table(
        {"vec_id": np.arange(len(pts), dtype=np.int64), "embedding": list(pts)}
    )
    Q = pts[[0, per, 2 * per]] + 0.01
    idx = str(tmp_path / "ivf")
    exact = similarity.knn_brute_force(rd.from_arrow(t), Q, k=5)
    ivf = similarity.knn_ivf(
        rd.from_arrow(t), Q, k=5, num_centroids=n_clusters, nprobe=2,
        index_dir=idx,
    )
    for q in range(len(Q)):
        got = ivf[ivf["query_id"] == q]["vec_id"].tolist()
        want = exact[exact["query_id"] == q]["vec_id"].tolist()
        assert len(set(got) & set(want)) >= 4, (q, got, want)
    # the index is a real on-disk layout and the probe read is partial
    buckets = [
        x for x in os.listdir(os.path.join(idx, "buckets"))
        if x.startswith("cent=")
    ]
    assert len(buckets) >= 2
    # a second call without the corpus uses the existing index
    again = similarity.knn_ivf(
        None, Q, k=5, num_centroids=n_clusters, nprobe=2, index_dir=idx
    )
    assert again["vec_id"].tolist() == ivf["vec_id"].tolist()


def test_embedding_near_dups():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((32, 16)).astype(np.float32)
    V[10] = V[4] * 1.5  # same direction -> cosine 1
    t = pa.table({"vec_id": np.arange(32, dtype=np.int64), "embedding": list(V)})
    pairs = similarity.embedding_near_dups(
        rd.from_arrow(t), threshold=0.99
    ).to_pandas()
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int)))
    assert (4, 10) in got


def test_embedding_near_dups_empty_block_keeps_one_schema():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((40, 16)).astype(np.float32)
    V[30:35] = V[:5]  # planted exact copies
    t = pa.table({"vec_id": np.arange(40, dtype=np.int64), "embedding": list(V)})
    kw = dict(seed=42, num_tables=16, num_planes=8, vec_col="embedding", id_col="vec_id")
    full, empty = (similarity._cosine_band_rows(b, **kw) for b in (t, t.slice(0, 0)))
    assert empty.num_rows == 0 and empty.schema.equals(full.schema)
    want = similarity.embedding_near_dups(rd.from_arrow(t)).to_pandas()
    got = similarity.embedding_near_dups(
        rd.from_arrow(t).union(rd.from_arrow(t.slice(0, 0)))
    ).to_pandas()
    assert len(want) >= 5
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_textstats_and_langid():
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "the cat and the dog sat in a box for a while",
                "der hund und die katze ist nicht da und ich bin hier",
                "12345 !!!",
            ],
        }
    )
    out = textstats.add_text_stats(rd.from_pandas(df)).to_pandas()
    assert out["token_count"].tolist() == [12, 12, 2]
    assert out.loc[2, "digit_ratio"] > 0.5
    lang = textstats.add_lang_id(rd.from_pandas(df)).to_pandas()
    assert lang["lang_pred"].tolist() == ["en", "de", "und"]


def test_fingerprint_deterministic():
    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": ["abc", "abc", "abd"]})
    out = textstats.add_fingerprint(rd.from_pandas(df)).to_pandas()
    f = out["fingerprint"].tolist()
    assert f[0] == f[1] != f[2]


def test_bmp_roundtrip():
    from flashray.datapipe import codecs

    rng = np.random.default_rng(7)
    for h, w in [(8, 8), (5, 7), (1, 1), (16, 3)]:  # odd widths hit row padding
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        data = codecs.encode_bmp(img)
        assert data[:2] == b"BM"
        out = codecs.decode_bmp(data)
        assert out.shape == (h, w, 3)
        assert (out == img).all()
    with pytest.raises(ValueError):
        codecs.decode_bmp(b"JUNKJUNKJUNKJUNK")


def test_wav_roundtrip():
    from flashray.datapipe import codecs

    rng = np.random.default_rng(8)
    samples = rng.integers(-32768, 32768, size=1024).astype(np.int16)
    data = codecs.encode_wav(samples, 16000)
    assert data[:4] == b"RIFF" and data[8:12] == b"WAVE"
    out, rate, ch = codecs.decode_wav(data)
    assert rate == 16000 and ch == 1
    assert (out == samples).all()
    with pytest.raises(ValueError):
        codecs.decode_wav(b"RIFF\x00\x00\x00\x00NOPE")


def test_frv1_container():
    from flashray.datapipe import codecs

    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
              for _ in range(5)]
    data = codecs.encode_frames(frames)
    assert codecs.frame_count(data) == 5
    for i, f in enumerate(frames):
        assert (codecs.decode_frame(data, i) == f).all()
    with pytest.raises(IndexError):
        codecs.decode_frame(data, 5)


def test_multimodal_real_decode_pipeline():
    import pyarrow.parquet as pq

    from flashray.datapipe import codecs

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    media = multimodal.media_table_from_documents(docs.slice(0, 50))
    mt = media.to_pandas()
    n_video = int((mt["kind"] == "video").sum())
    assert n_video > 0 and set(mt["kind"]) == {"image", "audio", "video"}

    feats = multimodal.media_features(rd.from_arrow(media)).to_pandas()
    assert len(feats) == 50
    # features must equal a direct numpy decode of the same payloads
    by_id = mt.set_index("media_id")
    for _, row in feats.iterrows():
        payload = by_id.loc[row["media_id"], "payload"]
        if row["kind"] == "image":
            vals = codecs.decode_bmp(payload).reshape(-1).astype(float)
            assert row["shape"] == "8x8"
        elif row["kind"] == "audio":
            s, rate, _ = codecs.decode_wav(payload)
            vals = s.astype(float)
            assert row["shape"] == f"{len(s)}@{rate}Hz"
        else:
            vals = np.concatenate(
                [f.reshape(-1) for f in codecs.decode_all_frames(payload)]
            ).astype(float)
        assert row["px_mean"] == pytest.approx(vals.mean())
        assert row["px_std"] == pytest.approx(vals.std())

    frames = multimodal.sample_frames(
        rd.from_arrow(media), frames_per_item=3
    ).to_pandas()
    assert len(frames) == n_video * 3  # only video rows expand
    again = multimodal.sample_frames(
        rd.from_arrow(media), frames_per_item=3
    ).to_pandas()
    assert (
        frames["frame_fingerprint"].values == again["frame_fingerprint"].values
    ).all()


def test_image_resize():
    import pyarrow.parquet as pq

    from flashray.datapipe import codecs

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    media = multimodal.media_table_from_documents(docs.slice(0, 30))
    mt = media.to_pandas()
    n_img = int((mt["kind"] == "image").sum())
    assert n_img > 0

    out = multimodal.resize_images(
        rd.from_arrow(media), out_h=4, out_w=4
    ).to_pandas()
    assert len(out) == n_img  # only image rows survive
    assert (out["width"] == 4).all() and (out["height"] == 4).all()

    by_id = mt.set_index("media_id")
    for _, row in out.iterrows():
        src = codecs.decode_bmp(by_id.loc[row["media_id"], "payload"])
        sy = (np.arange(4) * src.shape[0]) // 4
        sx = (np.arange(4) * src.shape[1]) // 4
        want = src[sy][:, sx]
        got = codecs.decode_bmp(row["payload"])  # output is a real BMP
        assert got.shape == (4, 4, 3)
        assert (got == want).all()
        assert row["px_mean"] == pytest.approx(want.astype(float).mean())

    # upsampling repeats source pixels (nearest-neighbor), stays exact
    up = multimodal.resize_images(
        rd.from_arrow(media), out_h=16, out_w=16
    ).to_pandas()
    src = codecs.decode_bmp(by_id.loc[up.iloc[0]["media_id"], "payload"])
    got = codecs.decode_bmp(up.iloc[0]["payload"])
    sy = (np.arange(16) * src.shape[0]) // 16
    sx = (np.arange(16) * src.shape[1]) // 16
    assert (got == src[sy][:, sx]).all()


def test_audio_resample():
    import pyarrow.parquet as pq

    from flashray.datapipe import codecs

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    media = multimodal.media_table_from_documents(docs.slice(0, 30))
    mt = media.to_pandas()
    n_aud = int((mt["kind"] == "audio").sum())
    assert n_aud > 0

    out = multimodal.resample_audio(
        rd.from_arrow(media), factor=4
    ).to_pandas()
    assert len(out) == n_aud  # only audio rows survive
    assert (out["rate"] == multimodal.AUDIO_RATE // 4).all()

    by_id = mt.set_index("media_id")
    for _, row in out.iterrows():
        src, rate, _ch = codecs.decode_wav(by_id.loc[row["media_id"], "payload"])
        want = src[::4]
        got, got_rate, _ = codecs.decode_wav(row["payload"])  # real WAV out
        assert got_rate == rate // 4
        assert row["n_samples"] == len(want)
        assert (got == want).all()
        assert row["amp_mean"] == pytest.approx(want.astype(float).mean())


def test_repetition_stats():
    from collections import Counter

    texts = [
        "a b a b c",
        "x",
        "",
        "y y y",
        "the cat the cat the dog",
        "unique words only here now",
    ]
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    )
    out = (
        textstats.add_repetition_stats(ds, batch_size=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    for i, t in enumerate(texts):
        w = t.split()
        n = len(w)
        dup = (n - len(set(w))) / n if n else 0.0
        topw = max(Counter(w).values()) / n if n else 0.0
        bis = list(zip(w, w[1:]))
        top2 = max(Counter(bis).values()) / (n - 1) if n > 1 else 0.0
        tris = list(zip(w, w[1:], w[2:]))
        top3 = max(Counter(tris).values()) / (n - 2) if n > 2 else 0.0
        row = out.iloc[i]
        assert abs(row["dup_word_frac"] - dup) < 1e-12, i
        assert abs(row["top_word_frac"] - topw) < 1e-12, i
        assert abs(row["top_2gram_frac"] - top2) < 1e-12, i
        assert abs(row["top_3gram_frac"] - top3) < 1e-12, i


def _line_dedup_oracle(docs, min_count=2, sep="\n"):
    occ = []
    for doc_id, text in docs:
        for i, l in enumerate(text.split(sep), start=1):
            if l:
                occ.append((doc_id, i, l))
    stats = {}
    for d, i, l in occ:
        n, first = stats.get(l, (0, None))
        p = d * 1_000_000 + i
        stats[l] = (n + 1, p if first is None or p < first else first)
    res = {d: [[], 0, 0] for d, _ in docs}
    for d, i, l in occ:
        n, first = stats[l]
        kept = n < min_count or d * 1_000_000 + i == first
        res[d][1] += 1
        if kept:
            res[d][0].append(l)
            res[d][2] += 1
    return pd.DataFrame(
        [(d, sep.join(v[0]), v[1], v[2]) for d, v in sorted(res.items())],
        columns=["doc_id", "text_dedup", "lines_total", "lines_kept"],
    )


def test_line_dedup_matches_oracle(ray_session):
    from flashray.datapipe.dedup import line_dedup

    boiler = "subscribe to our newsletter"
    footer = "all rights reserved"
    docs = [
        (1, f"alpha beta\n{boiler}\ngamma"),
        (2, f"{boiler}\ndelta\n{footer}"),
        (3, f"epsilon\n\n{footer}\n{boiler}"),
        (4, ""),                      # empty doc still appears
        (5, "unique only here"),
        (6, f"{boiler}\n{boiler}"),   # dup within one doc too
    ]
    ds = rd.from_pandas(
        pd.DataFrame(docs, columns=["doc_id", "text"])
    ).repartition(3)
    got = (
        line_dedup(ds, num_buckets=8, salt_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _line_dedup_oracle(docs)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the boilerplate survives exactly once, in doc 1 (globally first)
    assert got.loc[got.doc_id == 1, "text_dedup"].iloc[0].count(boiler) == 1
    assert got.loc[got.doc_id == 2, "text_dedup"].iloc[0] == "delta\nall rights reserved"
    assert got.loc[got.doc_id == 6, "text_dedup"].iloc[0] == ""


def test_line_dedup_word_mode_and_min_count(ray_session):
    from flashray.datapipe.dedup import line_dedup

    docs = [(10, "a b c a"), (20, "b c d"), (30, "d e")]
    ds = rd.from_pandas(pd.DataFrame(docs, columns=["doc_id", "text"]))
    got = (
        line_dedup(ds, sep=" ", min_count=3, num_buckets=4, salt_buckets=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _line_dedup_oracle(docs, min_count=3, sep=" ")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tfidf_top_terms_matches_oracle(ray_session):
    import math

    from flashray.datapipe.textstats import tfidf_top_terms

    docs = [
        (1, "apple banana apple cherry"),
        (2, "banana cherry cherry date"),
        (3, "apple date date date elderberry"),
        (4, "fig"),
    ]
    ds = rd.from_pandas(pd.DataFrame(docs, columns=["doc_id", "text"]))
    got = (
        tfidf_top_terms(ds, k=2, num_buckets=4)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    # dense oracle
    N = len(docs)
    tf, dfreq = {}, {}
    for d, t in docs:
        ws = t.split()
        for w in set(ws):
            dfreq[w] = dfreq.get(w, 0) + 1
        for w in ws:
            tf[(d, w)] = tf.get((d, w), 0) + 1
    rows = []
    for d, _ in docs:
        terms = [
            (round(c * math.log(N / dfreq[w]), 6), w)
            for (dd, w), c in tf.items()
            if dd == d
        ]
        terms.sort(key=lambda x: (-x[0], x[1]))
        for s, w in terms[:2]:
            rows.append((d, w, s))
    want = (
        pd.DataFrame(rows, columns=["doc_id", "term", "tfidf"])
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_quality_filter_rules_fire_in_order(ray_session):
    from flashray.datapipe.textstats import quality_filter

    docs = [
        (1, "one two three"),                          # too few tokens
        (2, " ".join(["w"] * 40)),                     # dup + top2: dup first
        (3, " ".join(f"t{i}" for i in range(30))),     # clean -> keep
        (4, " ".join(f"u{i % 20}" for i in range(30))),# mild dup, under caps
        (5, " ".join(["a b"] * 12)),                   # alternating: top_2gram
    ]
    ds = rd.from_pandas(pd.DataFrame(docs, columns=["doc_id", "text"]))
    got = (
        # dup cap raised so doc 5 (dup 0.917, top-2gram 0.52) reaches the
        # top_2gram rule while doc 2 (dup 0.975) still fails dup_words
        quality_filter(ds, min_tokens=10, max_dup_word_frac=0.95)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["reason"]) == [
        "too_few_tokens", "dup_words", "", "", "top_2gram",
    ]
    assert list(got["keep"]) == [0, 0, 1, 1, 0]


def test_embedding_moments_and_pca_match_numpy():
    import ray.data as rd

    from flashray.datapipe.similarity import (
        embedding_moments,
        pca_components,
        pca_project,
    )

    emb = "/root/testdata/sf0.001/embeddings.parquet"
    ds = rd.read_parquet(emb)
    X = np.stack(
        [np.asarray(v, dtype=np.float64) for v in ds.to_pandas()["embedding"]]
    )
    n, mean, cov = embedding_moments(rd.read_parquet(emb).repartition(5))
    assert n == len(X)
    assert np.allclose(mean, X.mean(axis=0), atol=1e-12)
    assert np.allclose(cov, np.cov(X.T, bias=True), atol=1e-10)

    vals, comps, m2 = pca_components(rd.read_parquet(emb), k=4)
    w, v = np.linalg.eigh(np.cov(X.T, bias=True))
    assert np.allclose(vals, np.sort(w)[::-1][:4], atol=1e-10)
    # components match up to the deterministic sign fix
    for i, row in enumerate(comps):
        ref = v[:, np.argsort(w)[::-1][i]]
        assert np.allclose(np.abs(row), np.abs(ref), atol=1e-8)
        j = int(np.argmax(np.abs(row)))
        assert row[j] > 0

    proj = pca_project(rd.read_parquet(emb), comps, m2).to_pandas()
    P = np.stack([np.asarray(p) for p in proj.sort_values("vec_id")["pca"]])
    ids = proj.sort_values("vec_id")["vec_id"].to_numpy()
    order = np.argsort(ds.to_pandas()["vec_id"].to_numpy())
    want = (X[order] - X.mean(axis=0)) @ comps.T
    assert np.allclose(P, want, atol=1e-10)
    # projected variances equal the eigenvalues
    assert np.allclose(P.var(axis=0), vals, atol=1e-8)


def test_decontaminate_matches_python():
    from flashray.datapipe.dedup import decontaminate

    rng = np.random.default_rng(21)
    vocab = ["a", "b", "c", "d", "e"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 25)))
        for _ in range(60)
    ]
    df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64), "text": texts})
    bench = df[df["doc_id"] % 10 == 0]
    cand = df[df["doc_id"] % 10 != 0]
    got = (
        decontaminate(rd.from_pandas(cand), rd.from_pandas(bench), n=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    def grams(t, n=3):
        ws = t.split()
        return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}

    bench_set = set().union(*(grams(t) for t in bench["text"]))
    want = {
        int(r.doc_id): len(grams(r.text) & bench_set)
        for r in cand.itertuples()
    }
    assert dict(zip(got["doc_id"], got["n_hits"])) == want
    assert got["n_hits"].sum() > 0  # fixture actually contaminates


def test_bloom_decontaminate_matches_exact():
    """bloom_decontaminate == decontaminate on the same fixture, both at a
    comfortable filter size and at a pathologically tiny one (m_bits=256 →
    the bitset saturates, nearly every gram is a Bloom candidate) — the
    exact verify join removes every false positive, so the output is
    identical either way."""
    from flashray.datapipe.dedup import bloom_decontaminate, decontaminate

    rng = np.random.default_rng(35)
    vocab = ["a", "b", "c", "d", "e", "f"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 30)))
        for _ in range(80)
    ]
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})
    bench = rd.from_pandas(df[df["doc_id"] % 8 == 0])
    cand = rd.from_pandas(df[df["doc_id"] % 8 != 0])

    def run(fn, **kw):
        return (
            fn(cand, bench, n=3, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    want = run(decontaminate)
    assert want["n_hits"].sum() > 0
    for m_bits in (1 << 16, 256):
        got = run(bloom_decontaminate, m_bits=m_bits, k=3)
        pd.testing.assert_frame_equal(got, want)

    import pytest as _pytest

    with _pytest.raises(ValueError):
        bloom_decontaminate(cand, bench, m_bits=1000)


def test_dedup_keep_best_picks_max_quality_min_id():
    from flashray.datapipe.dedup import dedup_keep_best

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "Hello  World",      # group A (reformat copies)
                "hello world",       # group A
                "hello\tWORLD",      # group A
                "unique doc",        # group B
                "Another one",       # group C (tie on quality)
                "another  ONE",      # group C
            ],
            "n_chars": np.array([12, 11, 11, 10, 11, 11], dtype=np.int64),
        }
    )
    got = (
        dedup_keep_best(rd.from_pandas(df), num_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # A: doc 0 wins on n_chars; B: singleton; C: quality tie -> min id 4
    assert list(got["doc_id"]) == [0, 3, 4]
    assert list(got["n_dups"]) == [3, 1, 2]
    bad = df.assign(n_chars=np.array([2**31, 1, 1, 1, 1, 1]))
    with pytest.raises(Exception, match="packing needs"):
        dedup_keep_best(rd.from_pandas(bad), num_buckets=2).to_pandas()


def test_shingle_hash_positional():
    """Regression: shingles whose first two words swap must NOT collide
    (sm(a^b) == sm(b^a) made the old chain order-insensitive in the first
    two positions — observed as 'data stream data' vs 'stream data data')."""
    from flashray.datapipe.dedup import _shingle_hashes, _word_codes

    h1 = _shingle_hashes(_word_codes("data stream data".split()), 3)
    h2 = _shingle_hashes(_word_codes("stream data data".split()), 3)
    assert h1[0] != h2[0]
    # len == n goes through the main path; len < n through the degenerate
    # fold — identical recurrence, identical hash
    h3 = _shingle_hashes(_word_codes(["a", "b"]), 3)
    h4 = _shingle_hashes(_word_codes(["a", "b", "c"]), 3)
    assert len(h3) == 1 and len(h4) == 1


def test_exact_jaccard_pairs():
    df = _docs_with_dups()
    got = dedup.exact_jaccard_pairs(
        rd.from_pandas(df), threshold=0.3
    ).to_pandas()
    got = got.sort_values(["a", "b"]).reset_index(drop=True)

    # brute-force oracle over distinct word-trigram sets
    def sh(t):
        w = t.split()
        return {" ".join(w[i : i + 3]) for i in range(max(1, len(w) - 2))}

    want = []
    texts = dict(zip(df["doc_id"], df["text"]))
    ids = sorted(texts)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sa, sb = sh(texts[a]), sh(texts[b])
            j = len(sa & sb) / len(sa | sb)
            if j >= 0.3:
                want.append((a, b, round(j, 9)))
    got_t = [
        (int(r.a), int(r.b), round(float(r.jaccard), 9))
        for r in got.itertuples()
    ]
    assert sorted(got_t) == sorted(want)
    # exact dup pairs score 1.0
    assert all(j == 1.0 for a, b, j in got_t if (a, b) in {(0, 1), (3, 4)})
    # max_df cap drops nothing here (no shingle df exceeds 3)
    capped = dedup.exact_jaccard_pairs(
        rd.from_pandas(df), threshold=0.3, max_df=3
    ).to_pandas()
    assert len(capped) == len(got)


def test_silhouette_matches_numpy():
    rng = np.random.default_rng(7)
    X = np.concatenate(
        [rng.normal(0, 1, (30, 8)), rng.normal(4, 1, (25, 8))]
    ).astype(np.float32)
    lab = np.r_[np.zeros(30, np.int64), np.ones(25, np.int64)]
    df = pd.DataFrame(
        {"vec_id": np.arange(55), "embedding": list(X), "label": lab}
    )
    got = similarity.silhouette(rd.from_pandas(df))

    Xd = X.astype(np.float64)
    D = np.sqrt(
        np.maximum(
            (Xd * Xd).sum(1)[:, None] + (Xd * Xd).sum(1)[None, :] - 2 * Xd @ Xd.T,
            0,
        )
    )
    np.fill_diagonal(D, 0)
    s = np.zeros(55)
    for i in range(55):
        own = lab == lab[i]
        a = D[i][own].sum() / (own.sum() - 1)
        b = D[i][~own].mean()
        s[i] = (b - a) / max(a, b)
    assert abs(got - s.mean()) < 1e-9
    # well-separated clusters score high
    assert got > 0.5
    # sampled reference stays close on this easy geometry
    approx = similarity.silhouette(rd.from_pandas(df), sample_n=40)
    assert abs(approx - s.mean()) < 0.1
    # the distributed sample prune is deterministic: any input
    # partitioning selects the same splitmix64 top-k reference subset
    approx2 = similarity.silhouette(
        rd.from_pandas(df).repartition(5), sample_n=40
    )
    assert abs(approx - approx2) < 1e-9


def test_silhouette_singleton_cluster_scores_zero():
    X = np.eye(4, dtype=np.float32)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(4),
            "embedding": list(X),
            "label": np.array([0, 0, 0, 1], np.int64),
        }
    )
    got = similarity.silhouette(rd.from_pandas(df))
    # point 3 is a singleton -> s=0 by convention; others computed normally
    D = np.sqrt(2.0)  # all pairwise distances equal for eye rows
    # a = D (own cluster mean), b = D (other cluster) -> s = 0 for all
    assert abs(got) < 1e-12


@pytest.mark.parametrize("key_type", ["int64", "str"])
def test_transition_counts(key_type):
    from flashray.datapipe.windows import transition_counts

    rng = np.random.default_rng(3)
    n = 400
    users = rng.integers(0, 23, n).astype(np.int64)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": users if key_type == "int64" else [f"u{u}" for u in users],
            "event_type": rng.choice(["a", "b", "c"], n),
            "ts": pd.to_datetime("2026-01-01")
            + pd.to_timedelta(rng.integers(0, 1000, n), unit="s"),
        }
    )
    got = (
        transition_counts(rd.from_pandas(df), num_buckets=8)
        .to_pandas()
        .sort_values(["prev_state", "next_state"])
        .reset_index(drop=True)
    )
    d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    d["nxt"] = d.groupby("user_id")["event_type"].shift(-1)
    want = (
        d.dropna(subset=["nxt"])
        .groupby(["event_type", "nxt"], as_index=False)
        .size()
        .rename(
            columns={"event_type": "prev_state", "nxt": "next_state", "size": "n"}
        )
        .sort_values(["prev_state", "next_state"])
        .reset_index(drop=True)
    )
    assert got["n"].sum() == want["n"].sum()
    pd.testing.assert_frame_equal(
        got.astype({"n": np.int64}), want.astype({"n": np.int64})
    )


def _semdedup_oracle(V, cents, threshold, round_dp=6):
    """Independent python replay of the SemDeDup rule."""
    X = V.astype(np.float64)
    d2 = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    cl = np.argmin(d2, axis=1)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    n = len(X)
    dup = np.zeros(n, dtype=bool)
    for j in range(n):
        for i in range(j):
            if cl[i] == cl[j] and round(float(Xn[i] @ Xn[j]), round_dp) >= threshold:
                dup[j] = True
                break
    return cl, dup


def test_semdedup_matches_replay():
    # plant near-duplicates: rows 40..47 are tiny perturbations of 0..7
    t, V = _emb_table(n=48, d=8, seed=7)
    V = V.copy()
    V[40:48] = V[0:8] + 1e-4
    t = pa.table({"vec_id": np.arange(48, dtype=np.int64), "embedding": list(V)})
    from flashray.datapipe import kmeans as km

    ds = rd.from_arrow(t)
    cents, _ = km.kmeans(ds, k=3, max_iters=2, tol=0.0, init="lowest_ids")
    out = (
        similarity.semdedup(ds, threshold=0.98, centroids=cents, num_buckets=2)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    cl, dup = _semdedup_oracle(V, cents, 0.98)
    assert out["cluster"].to_numpy().tolist() == cl.tolist()
    assert out["is_dup"].to_numpy().tolist() == dup.tolist()
    assert out["is_dup"].sum() >= 8  # every planted twin is caught


def test_semdedup_partition_and_chunk_invariance():
    t, V = _emb_table(n=60, d=8, seed=11)
    V = V.copy()
    V[50:60] = V[10:20] * 1.7  # scaled copies: cosine exactly 1
    t = pa.table({"vec_id": np.arange(60, dtype=np.int64), "embedding": list(V)})
    from flashray.datapipe import kmeans as km

    ds1 = rd.from_arrow(t)
    cents, _ = km.kmeans(ds1, k=4, max_iters=1, tol=0.0, init="lowest_ids")
    base = (
        similarity.semdedup(ds1, threshold=0.95, centroids=cents)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    ds2 = rd.from_arrow(t).repartition(7)
    alt = (
        similarity.semdedup(
            ds2, threshold=0.95, centroids=cents, chunk_rows=3, num_buckets=3
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, alt)
    # a scaled copy has cosine 1 with its source -> always duplicate when
    # the pair lands in one cluster; at minimum the marking is consistent:
    assert base["is_dup"].dtype == bool


def _kcenter_oracle(ids, V, k):
    """Greedy k-center with the operator's exact rule: squared euclidean
    via the inner-product identity, 6-dp rounded, ties -> lowest id."""
    V = V.astype(np.float64)
    order = np.argsort(ids)
    ids, V = ids[order], V[order]
    sel = [0]
    out = [(0, int(ids[0]), 0.0)]
    mind = np.full(len(ids), np.inf)
    for r in range(1, k):
        c = V[sel[-1]]
        d2 = np.round(
            np.einsum("ij,ij->i", V, V) - 2.0 * (V @ c) + float(c @ c), 6
        )
        mind = np.minimum(mind, np.maximum(d2, 0.0))
        best = mind.max()
        if best <= 0.0:
            break
        i = int(np.flatnonzero(mind == best)[0])  # ids sorted -> lowest id
        sel.append(i)
        out.append((r, int(ids[i]), float(best)))
    return pd.DataFrame(out, columns=["order", "vec_id", "radius"])


def _emb_frame(seed, n=120, d=16):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, d)).astype(np.float32)
    return pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(V)}
    ), V


def test_kcenter_coreset_matches_greedy_oracle():
    df, V = _emb_frame(5)
    got = similarity.kcenter_coreset(rd.from_pandas(df), 8)
    want = _kcenter_oracle(df["vec_id"].to_numpy(), V, 8)
    pd.testing.assert_frame_equal(got, want)
    # covering radius is monotone nonincreasing after the seed row
    r = got["radius"].to_numpy()[1:]
    assert (np.diff(r) <= 1e-12).all()


def test_kcenter_coreset_partition_invariant():
    df, V = _emb_frame(9)
    a = similarity.kcenter_coreset(rd.from_pandas(df), 6)
    b = similarity.kcenter_coreset(
        rd.from_pandas(df).repartition(7), 6, batch_size=13
    )
    pd.testing.assert_frame_equal(a, b)


def test_kcenter_coreset_early_stop_on_duplicates():
    # 3 distinct points, each duplicated -> radius hits 0 after 3 picks
    base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], dtype=np.float32)
    V = np.vstack([base, base])
    df = pd.DataFrame(
        {"vec_id": np.arange(6, dtype=np.int64), "embedding": list(V)}
    )
    got = similarity.kcenter_coreset(rd.from_pandas(df), 5)
    assert len(got) == 3
    assert set(got["vec_id"]) == {0, 1, 2}


def test_centroid_outliers_matches_replay():
    rng = np.random.default_rng(31)
    V = rng.normal(size=(150, 8)).astype(np.float32)
    V[:10] *= 6.0  # planted tail
    df = pd.DataFrame(
        {"vec_id": np.arange(150, dtype=np.int64), "embedding": list(V)}
    )
    C = np.stack([V[:50].mean(0), V[50:].mean(0)]).astype(np.float64)
    got = (
        similarity.centroid_outliers(
            rd.from_pandas(df), centroids=C, pct=0.8
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    X = V.astype(np.float64)
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    cl = np.argmin(d2, axis=1)
    dist = np.round(np.sqrt(d2[np.arange(len(X)), cl]), 6)
    import math

    thr = np.sort(dist)[min(len(dist) - 1, max(0, math.ceil(0.8 * len(dist)) - 1))]
    assert (got["cluster"].to_numpy() == cl).all()
    assert np.allclose(got["dist"], dist)
    assert (got["is_outlier"].to_numpy() == (dist > thr).astype(int)).all()
    assert 0 < got["is_outlier"].sum() < len(got)


def test_centroid_outliers_partition_invariant():
    rng = np.random.default_rng(37)
    V = rng.normal(size=(90, 6)).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(90, dtype=np.int64), "embedding": list(V)}
    )
    C = rng.normal(size=(3, 6))
    a = (
        similarity.centroid_outliers(rd.from_pandas(df), centroids=C)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    b = (
        similarity.centroid_outliers(
            rd.from_pandas(df).repartition(7), centroids=C, batch_size=11
        )
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_pretrain_corpus_three_predicates():
    from flashray.datapipe.pipelines import pretrain_corpus

    long_en = "the cat sat on the mat and it is warm for a day " * 3
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(7, dtype=np.int64),
            "text": [
                long_en,                      # 0: survives
                long_en,                      # 1: exact dup of 0 -> dropped
                "the and of to a",            # 2: too few tokens
                "der hund und die katze ist nicht ein zu mit ich "
                "der hund und die katze ist nicht ein zu mit ich",  # 3: de
                long_en + " extra tail",      # 4: survives
                "x " * 40,                    # 5: dup_words (0.975 > 0.8)
                long_en + " another tail",    # 6: survives
            ],
        }
    )
    got = (
        pretrain_corpus(
            rd.from_pandas(docs),
            langs=("en",),
            min_tokens=10,
            max_dup_word_frac=0.8,
            max_top_2gram_frac=0.9,
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [0, 4, 6]
    assert (got["lang_pred"] == "en").all()


def test_pretrain_corpus_partition_invariant():
    from flashray.datapipe.pipelines import pretrain_corpus

    rng = np.random.default_rng(41)
    words = np.array("the and of to a in is that it for cat dog".split())
    texts = [
        " ".join(rng.choice(words, size=rng.integers(5, 30)))
        for _ in range(60)
    ]
    docs = pd.DataFrame(
        {"doc_id": np.arange(60, dtype=np.int64), "text": texts}
    )
    kw = dict(langs=("en",), min_tokens=8, max_dup_word_frac=0.6,
              max_top_2gram_frac=0.9)
    a = (
        pretrain_corpus(rd.from_pandas(docs), num_buckets=4, **kw)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        pretrain_corpus(rd.from_pandas(docs).repartition(7),
                        num_buckets=16, **kw)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0
    # hybrid materialization: the streaming path (threshold 0 -> every
    # pass re-scans) must agree with the pinned path (default)
    c = (
        pretrain_corpus(rd.from_pandas(docs), num_buckets=4,
                        materialize_threshold=0, **kw)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, c)


def _nb_oracle(docs, round_dp=4):
    """Python replay of the factored NB score + rounded argmax."""
    import re
    from collections import Counter, defaultdict

    tok = re.compile(r"\S+")
    C = defaultdict(Counter)
    ndocs = Counter()
    for _, r in docs.iterrows():
        ndocs[r["lang"]] += 1
        C[r["lang"]].update(tok.findall(str(r["text"])))
    vocab = set()
    for c in C.values():
        vocab.update(c)
    V, N = len(vocab), sum(ndocs.values())
    labels = sorted(ndocs)
    T = {c: sum(C[c].values()) for c in labels}
    preds = {}
    for _, r in docs.iterrows():
        tfs = Counter(tok.findall(str(r["text"])))
        tf_total = sum(tfs.values())
        best = None
        for c in labels:
            s = np.log(ndocs[c]) - np.log(N) - tf_total * np.log(T[c] + V)
            s += sum(
                tf * np.log(C[c][t] + 1.0) for t, tf in tfs.items()
                if C[c][t] > 0
            )
            s = round(s, round_dp)
            if best is None or s > best[1]:
                best = (c, s)
        preds[int(r["doc_id"])] = best
    return preds


def test_nb_train_classify_matches_replay():
    from flashray.datapipe import ml

    rng = np.random.default_rng(61)
    en = "the cat is on the mat and it runs for fun all day".split()
    de = "der hund ist nicht ein tier und ich bin zu mit haus".split()
    rows = []
    for i in range(40):
        lang = "en" if i % 2 == 0 else "de"
        words = rng.choice(en if lang == "en" else de,
                           size=rng.integers(4, 15))
        rows.append((i, lang, " ".join(words)))
    docs = pd.DataFrame(rows, columns=["doc_id", "lang", "text"])
    model = ml.nb_train(rd.from_pandas(docs), label_col="lang")
    assert model["vocab_size"] == len(set(en) | set(de))
    got = (
        ml.nb_classify(rd.from_pandas(docs), model)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = _nb_oracle(docs)
    for _, r in got.iterrows():
        wc, ws = want[int(r["doc_id"])]
        assert r["pred"] == wc and abs(r["score"] - ws) < 1e-9, r["doc_id"]
    # resubstitution accuracy on separable vocab should be perfect
    assert (got["pred"].to_numpy() == docs["lang"].to_numpy()).all()


def test_nb_classify_empty_doc_gets_prior_only_row():
    from flashray.datapipe import ml

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(7, dtype=np.int64),
            "lang": ["en", "en", "en", "en", "de", "de", "en"],
            "text": ["cat mat", "cat runs", "mat fun", "cat cat",
                     "hund haus", "hund tier", ""],
        }
    )
    model = ml.nb_train(rd.from_pandas(docs), label_col="lang",
                        num_buckets=4)
    got = (
        ml.nb_classify(rd.from_pandas(docs), model, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # every doc — including the zero-token one — gets exactly one row
    assert got["doc_id"].tolist() == list(range(7))
    r = got[got["doc_id"] == 6].iloc[0]
    # prior-only argmax: en has 5/7 docs
    assert r["pred"] == "en"
    assert abs(r["score"] - round(np.log(5) - np.log(7), 4)) < 1e-9


def test_nb_classify_partition_invariant():
    from flashray.datapipe import ml

    rng = np.random.default_rng(67)
    vocab = np.array("a b c d e f g h i j".split())
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(30, dtype=np.int64),
            "lang": ["x" if i % 3 else "y" for i in range(30)],
            "text": [
                " ".join(rng.choice(vocab, size=rng.integers(2, 9)))
                for _ in range(30)
            ],
        }
    )
    model = ml.nb_train(rd.from_pandas(docs), label_col="lang",
                        num_buckets=4)
    a = (
        ml.nb_classify(rd.from_pandas(docs), model, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        ml.nb_classify(rd.from_pandas(docs).repartition(7), model,
                       num_buckets=16)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_prototype_classify_matches_numpy_and_invariance():
    from flashray.datapipe import ml

    rng = np.random.default_rng(71)
    mu = np.array([[4.0, 0, 0, 0], [0, 4.0, 0, 0], [0, 0, 4.0, 0]])
    lab = rng.integers(0, 3, 200).astype(np.int32)
    V = (mu[lab] + rng.normal(0, 0.5, (200, 4))).astype(np.float32)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(200, dtype=np.int64),
            "label": lab,
            "embedding": list(V),
        }
    )
    got = (
        ml.prototype_classify(rd.from_pandas(df))
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    X = V.astype(np.float64)
    P = np.stack([X[lab == c].mean(0) for c in range(3)])
    d2 = ((X[:, None, :] - P[None, :, :]) ** 2).sum(-1)
    best = np.argmin(d2, axis=1)
    assert (got["pred"].to_numpy() == best).all()
    assert np.allclose(
        got["dist"], np.round(np.sqrt(d2[np.arange(200), best]), 6)
    )
    # well-separated prototypes recover the generating labels
    assert (got["pred"].to_numpy() == lab).mean() > 0.98
    b = (
        ml.prototype_classify(rd.from_pandas(df).repartition(9),
                              batch_size=17)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert (got["pred"].to_numpy() == b["pred"].to_numpy()).all()
    assert np.allclose(got["dist"], b["dist"], atol=2e-6)


def test_embedding_diversity_matches_pairwise():
    rng = np.random.default_rng(89)
    V = rng.normal(size=(120, 12)).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(120, dtype=np.int64), "embedding": list(V)}
    )
    got = similarity.embedding_diversity(rd.from_pandas(df))
    X = V.astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    C = Xn @ Xn.T
    want = round((C.sum() - np.trace(C)) / (120 * 119), 6)
    assert got["n"].iloc[0] == 120
    assert abs(got["mean_cos"].iloc[0] - want) < 1e-9
    # identical vectors -> mean_cos == 1; invariance across partitioning
    same = pd.DataFrame(
        {"vec_id": np.arange(5, dtype=np.int64),
         "embedding": [V[0]] * 5}
    )
    one = similarity.embedding_diversity(rd.from_pandas(same))
    assert abs(one["mean_cos"].iloc[0] - 1.0) < 1e-9
    b = similarity.embedding_diversity(rd.from_pandas(df).repartition(7))
    assert abs(got["mean_cos"].iloc[0] - b["mean_cos"].iloc[0]) < 2e-6


def test_confusion_matrix_counts():
    from flashray.datapipe import ml

    df = pd.DataFrame(
        {
            "y": ["a"] * 6 + ["b"] * 4,
            "p": ["a", "a", "b", "a", "a", "b", "b", "b", "a", "b"],
        }
    )
    got = (
        ml.confusion(rd.from_pandas(df), truth_col="y", pred_col="p",
                     num_buckets=4)
        .to_pandas().sort_values(["truth", "pred"]).reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"truth": ["a", "a", "b", "b"], "pred": ["a", "b", "a", "b"],
         "n": np.array([4, 2, 1, 3], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(got, want)


def test_hashed_features_replay_and_shape():
    import hashlib

    from flashray.datapipe import ml

    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2], dtype=np.int64),
            "text": ["a b a c", "b b d", ""],
        }
    )
    got = (
        ml.hashed_features(rd.from_pandas(docs), d=16)
        .to_pandas().sort_values(["doc_id", "feature"])
        .reset_index(drop=True)
    )

    def cell(tok):
        h = int.from_bytes(
            hashlib.sha256(f"fh|{tok}".encode()).digest()[:8], "big"
        )
        return h % 16, 1 if (h // 16) % 2 == 0 else -1

    want = {}
    for did, text in zip(docs["doc_id"], docs["text"]):
        for tok in text.split():
            f, s = cell(tok)
            want[(did, f)] = want.get((did, f), 0) + s
    want = {k: v for k, v in want.items() if v != 0}
    gm = {
        (int(r.doc_id), int(r.feature)): int(r.value)
        for r in got.itertuples()
    }
    assert gm == want
    assert (got["feature"] < 16).all() and (got["feature"] >= 0).all()
    # unsigned mode: plain counts
    raw = ml.hashed_features(
        rd.from_pandas(docs), d=16, signed=False
    ).to_pandas()
    assert raw["value"].sum() == 7  # 4 + 3 tokens


def _exact_substr_oracle(docs, L, min_count=2):
    """Python replay: gram-string counting + interval removal."""
    from collections import Counter

    cnt = Counter()
    toks = {int(r["doc_id"]): str(r["text"]).split()
            for _, r in docs.iterrows()}
    for ts in toks.values():
        for i in range(len(ts) - L + 1):
            cnt[" ".join(ts[i:i + L])] += 1
    out = {}
    for did, ts in toks.items():
        keep = [True] * len(ts)
        for i in range(len(ts) - L + 1):
            if cnt[" ".join(ts[i:i + L])] >= min_count:
                for p in range(i, i + L):
                    keep[p] = False
        kept = [t for t, k in zip(ts, keep) if k]
        out[did] = (len(ts), len(ts) - len(kept), " ".join(kept))
    return out


def test_exact_substr_removes_planted_boilerplate():
    boiler = ("this content is provided as is without any warranty "
              "of any kind either express or implied")
    uniq = ["alpha beta gamma delta epsilon zeta eta theta iota kappa",
            "one two three four five six seven eight nine ten",
            "red orange yellow green blue indigo violet pink brown black"]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                uniq[0] + " " + boiler,
                boiler + " " + uniq[1],
                uniq[2] + " " + boiler + " tail words here now",
                "totally unrelated short document",
            ],
        }
    )
    got = (
        dedup.exact_substr(rd.from_pandas(docs), span_tokens=8,
                           num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = _exact_substr_oracle(docs, 8)
    for _, r in got.iterrows():
        w = want[int(r["doc_id"])]
        assert (int(r["n_tokens"]), int(r["n_removed"]),
                r["text_clean"]) == w, r["doc_id"]
    # the boilerplate is gone from every doc, unique content survives
    for _, r in got.iterrows():
        assert "warranty" not in r["text_clean"]
    assert "alpha beta gamma" in got.loc[0, "text_clean"]
    assert got.loc[3, "n_removed"] == 0
    assert got.loc[3, "text_clean"] == "totally unrelated short document"


def test_exact_substr_random_matches_replay_and_partition_invariant():
    rng = np.random.default_rng(77)
    words = np.array("a b c d e f g h".split())
    texts = [
        " ".join(rng.choice(words, size=rng.integers(0, 40)))
        for _ in range(50)
    ]
    texts[7] = ""  # empty doc keeps its row
    docs = pd.DataFrame(
        {"doc_id": np.arange(50, dtype=np.int64), "text": texts}
    )
    want = _exact_substr_oracle(docs, 4)
    a = (
        dedup.exact_substr(rd.from_pandas(docs), span_tokens=4,
                           num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a["doc_id"].tolist() == list(range(50))
    for _, r in a.iterrows():
        assert (int(r["n_tokens"]), int(r["n_removed"]),
                r["text_clean"]) == want[int(r["doc_id"])], r["doc_id"]
    b = (
        dedup.exact_substr(rd.from_pandas(docs).repartition(7),
                           span_tokens=4, num_buckets=16)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # the all-join fallback (broadcast disabled) agrees bit-exactly
    c = (
        dedup.exact_substr(rd.from_pandas(docs), span_tokens=4,
                           num_buckets=4, broadcast_threshold=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, c)


def _bpe_replay(texts, rounds):
    """Sequential python replay of vocab-based BPE with the greedy
    leftmost-first merge rule."""
    from collections import Counter

    words = Counter(" ".join(texts).split())
    vocab = {w: [ord(c) for c in w] for w in words}
    merges = []
    for r in range(rounds):
        pc = Counter()
        for w, toks in vocab.items():
            for i in range(len(toks) - 1):
                pc[(toks[i], toks[i + 1])] += words[w]
        if not pc:
            break
        (a, b), c = sorted(
            pc.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )[0]
        if c < 2:
            break
        nid = 2_000_000 + r
        merges.append((r, a, b, nid, c))
        for w in vocab:
            toks, out, i = vocab[w], [], 0
            while i < len(toks):
                if i + 1 < len(toks) and toks[i] == a and toks[i + 1] == b:
                    out.append(nid)
                    i += 2
                else:
                    out.append(toks[i])
                    i += 1
            vocab[w] = out
    return merges, vocab


def test_bpe_train_matches_replay_and_partition_invariant():
    from flashray.datapipe import bpe

    rng = np.random.default_rng(13)
    base = ("the cat sat on the mat banana bandana the hat aaaa aa "
            "running runner ran the").split()
    texts = [
        " ".join(rng.choice(base, size=rng.integers(3, 12)))
        for _ in range(30)
    ]
    docs = pd.DataFrame(
        {"doc_id": np.arange(30, dtype=np.int64), "text": texts}
    )
    want_m, want_v = _bpe_replay(texts, 8)
    m = bpe.bpe_train(rd.from_pandas(docs), num_merges=8, num_buckets=4)
    assert list(map(tuple, m["merges"].to_numpy())) == want_m
    wt = m["word_tokens"].to_pandas()
    for _, r in wt.iterrows():
        assert int(r["n_bpe"]) == len(want_v[r["word"]]), r["word"]
    # encode_word reproduces the training-time final sequences
    for w in list(want_v)[:5]:
        assert bpe.encode_word(w, m["merges"]) == want_v[w], w
    # partition invariance
    m2 = bpe.bpe_train(
        rd.from_pandas(docs).repartition(7), num_merges=8, num_buckets=16
    )
    pd.testing.assert_frame_equal(m["merges"], m2["merges"])
    # the per-round distributed dataflow (local path disabled) agrees
    m3 = bpe.bpe_train(
        rd.from_pandas(docs), num_merges=8, num_buckets=4,
        local_threshold=0,
    )
    pd.testing.assert_frame_equal(m["merges"], m3["merges"])
    wt3 = m3["word_tokens"].to_pandas().sort_values("word").reset_index(
        drop=True
    )
    pd.testing.assert_frame_equal(
        wt.sort_values("word").reset_index(drop=True), wt3
    )


def test_bpe_token_stats_and_greedy_overlap_rule():
    from flashray.datapipe import bpe

    # 'aaaa' exercises the odd-position run rule: merge (a,a) lands at
    # offsets 0 and 2 -> 2 tokens
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "source": ["x", "x", "y", "y"],
            "text": ["aaaa aaaa", "aa aa", "aaaa banana", "banana banana"],
        }
    )
    m = bpe.bpe_train(rd.from_pandas(docs), num_merges=3, num_buckets=4)
    want_m, want_v = _bpe_replay(list(docs["text"]), 3)
    assert list(map(tuple, m["merges"].to_numpy())) == want_m
    st = (
        bpe.bpe_token_stats(rd.from_pandas(docs), m, by="source",
                            num_buckets=4)
        .to_pandas().sort_values("source").reset_index(drop=True)
    )
    from collections import Counter

    for srow in st.itertuples():
        words = Counter(
            " ".join(docs.loc[docs["source"] == srow.source, "text"])
            .split()
        )
        assert srow.n_words == sum(words.values())
        assert srow.n_bpe_tokens == sum(
            len(want_v[w]) * c for w, c in words.items()
        )


def test_bpe_doc_tokens_counts_and_zero_rows():
    from flashray.datapipe import bpe

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(5, dtype=np.int64),
            "text": ["the cat", "the the hat", "", "banana", "cat cat cat"],
        }
    )
    m = bpe.bpe_train(rd.from_pandas(docs), num_merges=4, num_buckets=4)
    _, want_v = _bpe_replay(list(docs["text"]), 4)
    got = (
        bpe.bpe_doc_tokens(rd.from_pandas(docs), m, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == list(range(5))
    for i, txt in enumerate(docs["text"]):
        want = sum(len(want_v[w]) for w in txt.split())
        assert int(got.loc[i, "n_bpe_tokens"]) == want, i
    assert int(got.loc[2, "n_bpe_tokens"]) == 0


def test_resample_mixture_matches_integer_replay():
    import hashlib

    rows = []
    for i in range(80):
        lang = "en" if i % 3 else "de"
        # varying token counts so group totals differ
        rows.append((i, lang, " ".join(f"w{j}" for j in range(3 + i % 7))))
    pdf = pd.DataFrame(rows, columns=["doc_id", "lang", "text"])
    ds = rd.from_pandas(pdf)
    got = (
        textstats.resample_mixture(
            ds, {"en": 2, "de": 1}, group_col="lang", num_buckets=4
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )

    # exact integer replay
    toks = pdf["text"].str.split().str.len()
    T = pdf.assign(t=toks).groupby("lang")["t"].sum().to_dict()
    W = 3
    N = min(T["en"] * W // 2, T["de"] * W // 1)
    thr = {g: (w * N * (1 << 64)) // (W * T[g])
           for g, w in {"en": 2, "de": 1}.items()}
    keep = []
    for i, lang, text in rows:
        h = int.from_bytes(
            hashlib.sha256(f"mix|{i}".encode()).digest()[:8], "big"
        )
        if h < thr[lang]:
            keep.append((i, lang, len(text.split())))
    want = pd.DataFrame(keep, columns=["doc_id", "lang", "n_tokens"])
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["lang"].tolist() == want["lang"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()
    # the binding group (de has w=1 but ~1/3 of docs) keeps p=1 or the
    # en group downsamples towards the 2:1 target — achieved shares move
    # the right way vs the raw corpus
    ach = got.groupby("lang")["n_tokens"].sum()
    assert ach["en"] <= T["en"] and ach["de"] <= T["de"]


def test_resample_mixture_drops_unweighted_groups_and_validates():
    pdf = pd.DataFrame(
        {
            "doc_id": np.arange(10, dtype=np.int64),
            "lang": ["en"] * 5 + ["zz"] * 5,
            "text": ["a b c"] * 10,
        }
    )
    ds = rd.from_pandas(pdf)
    got = textstats.resample_mixture(
        ds, {"en": 1}, group_col="lang", num_buckets=2
    ).to_pandas()
    assert set(got["lang"]) <= {"en"}
    # the single weighted group is binding: p=1, everything kept
    assert sorted(got["doc_id"]) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        textstats.resample_mixture(ds, {"en": -1}, group_col="lang")
    with pytest.raises(ValueError):
        textstats.resample_mixture(ds, {"nope": 1}, group_col="lang")


def test_minhash_decontaminate_cross_corpus():
    df = _docs_with_dups()
    # eval suite = one exact copy and one near-dup partner of base docs,
    # plus one unrelated doc; train = everything else
    eval_ids = {1, 8, 15}
    ev = df[df["doc_id"].isin(eval_ids)]
    tr = df[~df["doc_id"].isin(eval_ids)]
    flagged = dedup.minhash_decontaminate(
        rd.from_pandas(tr), rd.from_pandas(ev), threshold=0.5
    ).to_pandas()
    got = set(zip(flagged["doc_id"].astype(int), flagged["eval_id"].astype(int)))
    # doc 0 (exact copy of eval 1) and doc 2 (near-dup) must be flagged
    assert (0, 1) in got and (2, 1) in got
    # eval 8 (near-dup of base 6/7) must flag both train copies
    assert (6, 8) in got and (7, 8) in got
    # unrelated eval doc 15 must flag nothing, no unrelated train docs appear
    assert all(d < 12 for d, _ in got)
    assert all(e != 15 for _, e in got)
    # similarity column present, within [0, 1], exact copy pair at 1.0
    sim = dict(zip(zip(flagged["doc_id"].astype(int), flagged["eval_id"].astype(int)), flagged["similarity"]))
    assert sim[(0, 1)] == 1.0
    assert all(0.0 <= s <= 1.0 for s in sim.values())


def test_minhash_decontaminate_no_collisions():
    df = _docs_with_dups()
    ev = df[df["doc_id"] >= 12]  # unrelated docs only
    tr = df[df["doc_id"] < 4]
    flagged = dedup.minhash_decontaminate(
        rd.from_pandas(tr), rd.from_pandas(ev), threshold=0.5
    ).to_pandas()
    assert len(flagged) == 0


def test_dsir_weights_prefer_target_like_docs():
    from flashray.datapipe.ml import dsir_weights

    target_texts = [f"alpha beta gamma delta run {i}" for i in range(20)]
    raw = []
    # 10 docs that look like the target, 10 that don't, 1 too short
    for i in range(10):
        raw.append({"doc_id": i, "text": f"alpha beta gamma delta run {i}"})
    for i in range(10, 20):
        raw.append({"doc_id": i, "text": f"zig zag zoom totally different {i}"})
    raw.append({"doc_id": 99, "text": "single"})
    tgt = pd.DataFrame(
        {"doc_id": np.arange(100, 120, dtype=np.int64), "text": target_texts}
    )
    out = (
        dsir_weights(
            rd.from_pandas(pd.DataFrame(raw)),
            rd.from_pandas(tgt),
            n=2,
            d=512,
        )
        .to_pandas()
        .set_index("doc_id")["logweight"]
    )
    like = out.loc[range(10)].to_numpy()
    unlike = out.loc[range(10, 20)].to_numpy()
    assert like.min() > unlike.max()
    # a doc with < n tokens has no cells -> exactly 0
    assert out.loc[99] == 0.0
    # every raw doc gets a row
    assert len(out) == 21


def test_random_projection_jl_and_determinism():
    """Sign projection: deterministic across runs (hash-derived matrix),
    exactly reproducible in numpy from the same convention, and
    distance-preserving enough at m=16 to rank-correlate pairwise
    distances (the JL property, loose bound)."""
    from flashray.datapipe.sketches import _sha_u64
    from flashray.datapipe.similarity import random_projection

    rng = np.random.default_rng(3)
    d, m, n = 32, 16, 60
    # clustered data: inter- vs intra-cluster distances give the JL check
    # real signal (iid-Gaussian distances all concentrate at ~2d, where
    # correlation only measures noise)
    centers = rng.normal(size=(3, d)) * 6.0
    X = centers[np.arange(n) % 3] + rng.normal(size=(n, d))
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64),
         "embedding": [r.astype(np.float32) for r in X]}
    )
    out = (
        random_projection(rd.from_pandas(df), d, m, seed=7)
        .to_pandas()
        .sort_values(["vec_id", "k"])
        .reset_index(drop=True)
    )
    assert len(out) == n * m
    # exact replay from the convention
    bits = _sha_u64(
        [f"rp|7|{j}|{k}" for j in range(d) for k in range(m)]
    ) & np.uint64(1)
    R = (bits.astype(np.float64).reshape(d, m) * 2 - 1) / np.sqrt(m)
    want = (X.astype(np.float32).astype(np.float64) @ R).reshape(-1)
    assert np.allclose(out["v"].to_numpy(), want, atol=1e-12)
    # JL sanity: projected pairwise sq-distances correlate with originals
    Y = want.reshape(n, m)
    d0 = ((X[:, None] - X[None]) ** 2).sum(-1)[np.triu_indices(n, 1)]
    d1 = ((Y[:, None] - Y[None]) ** 2).sum(-1)[np.triu_indices(n, 1)]
    c = np.corrcoef(d0, d1)[0, 1]
    assert c > 0.7, c


def test_hard_negatives_matches_reference():
    """Hard-negative mining == numpy reference (cosine top-k over
    different-label candidates, anchor excluded, deterministic
    tie-break); no same-label or self rows ever appear."""
    from flashray.datapipe.similarity import hard_negatives

    rng = np.random.default_rng(17)
    n, d = 120, 16
    X = rng.normal(size=(n, d)).astype(np.float32)
    labels = (np.arange(n) % 4).astype(np.int64)
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64),
         "embedding": [r for r in X], "label": labels}
    )
    anchors = df[df["vec_id"] % 30 == 0]
    got = hard_negatives(
        rd.from_pandas(df), anchors, k=5, batch_size=32
    )
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    for aid in anchors["vec_id"]:
        s = Xn @ Xn[aid]
        s[labels == labels[aid]] = -np.inf
        s[aid] = -np.inf
        order = np.lexsort((np.arange(n), -s))[:5]
        rows = got[got["anchor_id"] == aid]
        assert list(rows["vec_id"]) == order.tolist()
        assert np.allclose(rows["score"], s[order], atol=1e-6)
        assert not (labels[rows["vec_id"]] == labels[aid]).any()


def test_rrf_fuse_reference():
    from flashray.datapipe.ml import rrf_fuse

    a = pd.DataFrame({"doc_id": [1, 2, 3], "rank": [1, 2, 3]})
    b = pd.DataFrame({"doc_id": [3, 4], "rank": [1, 2]})
    got = rrf_fuse([rd.from_pandas(a), rd.from_pandas(b)], k_rrf=60)
    want = {
        1: 1 / 61, 2: 1 / 62, 3: 1 / 63 + 1 / 61, 4: 1 / 62,
    }
    assert dict(zip(got["doc_id"], got["score"])) == want
    # doc 3 wins; 2 and 4 tie exactly -> doc_id order
    assert list(got["doc_id"]) == [3, 1, 2, 4]
    assert list(got["fused_rank"]) == [1, 2, 3, 4]
    import pytest as _pytest

    with _pytest.raises(ValueError):
        rrf_fuse([])


def test_sorted_neighborhood_pairs_reference():
    """SNM blocking == brute rank-window pairs, including across block
    stripe seams; no duplicates; window=2 gives adjacent pairs only."""
    from flashray.datapipe.dedup import sorted_neighborhood_pairs

    rng = np.random.default_rng(13)
    keys = ["".join(rng.choice(list("abc"), 3)) for _ in range(57)]
    df = pd.DataFrame(
        {"doc_id": np.arange(57, dtype=np.int64), "k": keys}
    )
    for w in (2, 5):
        got = (
            sorted_neighborhood_pairs(
                rd.from_pandas(df), key_col="k", window=w
            )
            .to_pandas()
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        order = df.sort_values(["k", "doc_id"]).reset_index(drop=True)
        ids = order["doc_id"].to_numpy()
        want = set()
        for i in range(len(ids)):
            for j in range(i + 1, min(i + w, len(ids))):
                want.add((ids[i], ids[j], j - i))
        assert set(zip(got["id_a"], got["id_b"], got["rank_gap"])) == want
        assert len(got) == len(want)  # no duplicate pairs
    import pytest as _pytest

    with _pytest.raises(ValueError):
        sorted_neighborhood_pairs(rd.from_pandas(df), key_col="k", window=1)
