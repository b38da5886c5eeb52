"""Document chunking and redaction vs python / DuckDB oracles."""

import re

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from flashray.datapipe.textstats import REDACT_PATTERNS, chunk_documents, redact

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _chunk_oracle(texts, ids, chunk, overlap):
    stride = chunk - overlap
    rows = []
    for doc_id, t in zip(ids, texts):
        toks = re.findall(r"\S+", t)
        w = 0
        for s in range(0, len(toks), stride):
            piece = toks[s : s + chunk]
            rows.append((doc_id, w, len(piece), " ".join(piece)))
            w += 1
    return pd.DataFrame(rows, columns=["doc_id", "chunk_idx", "n_tokens", "text"])


@pytest.mark.parametrize("chunk,overlap", [(8, 0), (8, 3), (5, 4)])
def test_chunker_matches_python(chunk, overlap):
    rng = np.random.default_rng(3)
    texts = [
        " ".join(f"w{rng.integers(0, 50)}" for _ in range(int(n)))
        for n in rng.integers(0, 30, 40)
    ]
    df = pd.DataFrame({"doc_id": np.arange(40, dtype="int64"), "text": texts})
    got = chunk_documents(
        rd.from_pandas(df).repartition(5), chunk_tokens=chunk, overlap=overlap,
    ).to_pandas()
    want = _chunk_oracle(texts, df["doc_id"], chunk, overlap)
    cols = ["doc_id", "chunk_idx", "n_tokens", "text"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True),
        want[cols].sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True),
    )


def test_chunker_vs_duckdb():
    got = chunk_documents(
        rd.read_parquet(DOCS, columns=["doc_id", "text"]),
        chunk_tokens=16, overlap=0,
    ).to_pandas()
    want = duckdb.sql(
        f"""
        WITH base AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks
                      FROM read_parquet('{DOCS}')),
        nz AS (SELECT * FROM base WHERE len(toks) > 0),
        st AS (SELECT doc_id, toks,
                      unnest(range(1, len(toks) + 1, 16)) AS s FROM nz)
        SELECT doc_id, CAST((s - 1) / 16 AS BIGINT) AS chunk_idx,
               CAST(least(16, len(toks) - s + 1) AS BIGINT) AS n_tokens,
               array_to_string(toks[s : least(s + 15, len(toks))], ' ') AS text
        FROM st
        """
    ).df()
    cols = ["doc_id", "chunk_idx", "n_tokens", "text"]
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(
        got[cols].sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True),
        want[cols].sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True),
    )


def test_redactor_matches_duckdb():
    texts = [
        "mail me at a.b-c%d@sub.example.org today",
        "call +1 (555) 010-0042 or 555 0100 99 now",
        "two: x@y.io and z@w.co end",
        "no pii here",
        "",
    ]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype="int64"), "text": texts})
    got = redact(rd.from_pandas(df)).to_pandas()
    p1, r1 = REDACT_PATTERNS[0]
    p2, r2 = REDACT_PATTERNS[1]
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute(
        f"""
        SELECT doc_id,
               regexp_replace(regexp_replace(text, '{p1}', '{r1}', 'g'),
                              '{p2}', '{r2}', 'g') AS text,
               CAST(len(regexp_extract_all(text, '{p1}'))
                    + len(regexp_extract_all(
                          regexp_replace(text, '{p1}', '{r1}', 'g'), '{p2}'))
                    AS BIGINT) AS n_redactions
        FROM t
        """
    ).df()
    cols = ["doc_id", "text", "n_redactions"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values("doc_id").reset_index(drop=True),
        want[cols].sort_values("doc_id").reset_index(drop=True),
    )
    assert got["n_redactions"].sum() >= 5
    assert not got["text"].str.contains("@").any()


def test_bm25_topk_matches_python():
    from flashray.datapipe.textstats import bm25_topk

    rng = np.random.default_rng(11)
    vocab = ["join", "scan", "window", "hash", "row", "agg"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(3, 20)))
        for _ in range(80)
    ]
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})
    q = ["join", "window"]
    got = bm25_topk(rd.from_pandas(df), q, k=10).to_pandas()

    # brute-force python replay
    toks = [t.split() for t in texts]
    N = len(toks)
    avgdl = sum(len(w) for w in toks) / N
    dfreq = {t: sum(t in set(w) for w in toks) for t in q}
    scores = {}
    for i, ws in enumerate(toks):
        s = 0.0
        for t in q:
            if dfreq[t] == 0:
                continue
            tf = ws.count(t)
            idf = np.log(1 + (N - dfreq[t] + 0.5) / (dfreq[t] + 0.5))
            s += idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * len(ws) / avgdl))
        if round(s, 6) > 0:
            scores[i] = round(s, 6)
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["doc_id"], got["score"])) == [
        (d, pytest.approx(s, abs=1e-9)) for d, s in want
    ]


def test_top_ngrams_matches_python():
    from collections import Counter

    from flashray.datapipe.textstats import top_ngrams

    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c", "d"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 12)))
        for _ in range(60)
    ]
    df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64), "text": texts})
    got = top_ngrams(rd.from_pandas(df), n=2, k=5).to_pandas()
    cnt = Counter()
    for t in texts:
        ws = t.split()
        cnt.update(" ".join(ws[i : i + 2]) for i in range(len(ws) - 1))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(got["ngram"], got["count"])) == want


def test_ngram_lm_logprob_matches_python():
    from collections import Counter

    from flashray.datapipe.textstats import ngram_lm_logprob

    rng = np.random.default_rng(11)
    vocab = ["x", "y", "z", "w", "v"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 15))))
        for _ in range(50)
    ]
    texts[7] = "solo"  # < n tokens at every n tested: must be dropped
    df = pd.DataFrame({"doc_id": np.arange(50, dtype=np.int64), "text": texts})
    for n in (2, 3):
        got = (
            ngram_lm_logprob(rd.from_pandas(df), n=n, num_buckets=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        cg: Counter = Counter()
        cc: Counter = Counter()
        grams = {}
        for d, t in zip(df["doc_id"], texts):
            ws = t.split()
            gs = [
                (" ".join(ws[i : i + n - 1]), ws[i + n - 1])
                for i in range(len(ws) - n + 1)
            ]
            if gs:
                grams[d] = gs
                cg.update(gs)
                cc.update(g[0] for g in gs)
        assert list(got["doc_id"]) == sorted(grams)
        for _, row in got.iterrows():
            gs = grams[row["doc_id"]]
            want = sum(np.log(cg[g] / cc[g[0]]) for g in gs) / len(gs)
            assert row["n_ngrams"] == len(gs)
            assert row["lm_logprob"] == pytest.approx(
                round(want, 4), abs=1e-9
            )


def test_zipf_alpha_matches_python():
    from collections import Counter

    from flashray.datapipe.textstats import zipf_alpha

    rng = np.random.default_rng(13)
    vocab = [f"v{i}" for i in range(30)]
    probs = 1.0 / np.arange(1, 31)
    probs /= probs.sum()
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(2, 20)), p=probs))
        for _ in range(80)
    ]
    df = pd.DataFrame({"doc_id": np.arange(80, dtype=np.int64), "text": texts})
    alpha, n_tail = zipf_alpha(rd.from_pandas(df), c_min=2, num_buckets=8)
    cnt = Counter(w for t in texts for w in t.split())
    tail = np.array([c for c in cnt.values() if c >= 2], dtype=np.float64)
    want = 1.0 + tail.size / np.log(tail / 1.5).sum()
    assert n_tail == tail.size
    assert alpha == pytest.approx(want, rel=1e-12)


def test_source_overlap_matches_bruteforce():
    import ray.data as rd

    from flashray.datapipe.textstats import source_overlap

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "source": ["a", "a", "b", "b", "c", "c"],
            "text": [
                "the quick brown fox jumps",
                "lazy dogs sleep all day",
                "the quick brown fox runs",   # shares 'the quick brown'+... with a
                "completely unrelated words here",
                "the quick brown fox jumps",  # c duplicates a doc of a
                "novel content only in c",
            ],
        }
    )
    got = (
        source_overlap(rd.from_pandas(docs), n=3, num_buckets=4)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )

    def ngrams(s):
        w = s.split()
        return {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}

    sets = {}
    for _, r in docs.iterrows():
        sets.setdefault(r["source"], set()).update(ngrams(r["text"]))
    rows = []
    ks = sorted(sets)
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            cn = len(sets[ks[i]] & sets[ks[j]])
            if cn:
                du, dv = len(sets[ks[i]]), len(sets[ks[j]])
                rows.append(
                    (ks[i], ks[j], cn, cn / (du + dv - cn),
                     cn / np.sqrt(du * dv))
                )
    want = pd.DataFrame(
        rows, columns=["u", "v", "cn", "jaccard", "cosine"]
    )
    want["cn"] = want["cn"].astype(np.int64)
    pd.testing.assert_frame_equal(got, want, check_exact=False, rtol=1e-12)


def test_mixture_report_counts_and_shares():
    import ray.data as rd

    from flashray.datapipe.textstats import mixture_report

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "source": ["s1", "s1", "s2", "s2", "s2", "s1"],
            "lang": ["en", "en", "en", "de", "de", "de"],
            "text": ["a b c", "d e", "f", "g h i j", "k", "l m"],
        }
    )
    got = (
        mixture_report(rd.from_pandas(docs), num_buckets=4)
        .to_pandas().sort_values(["source", "lang"]).reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "source": ["s1", "s1", "s2", "s2"],
            "lang": ["de", "en", "de", "en"],
            "n_docs": np.array([1, 2, 2, 1], dtype=np.int64),
            "n_tokens": np.array([2, 5, 5, 1], dtype=np.int64),
        }
    )
    want["token_share"] = (want["n_tokens"] / 13).round(6)
    pd.testing.assert_frame_equal(got, want)
    b = (
        mixture_report(rd.from_pandas(docs).repartition(5), num_buckets=16)
        .to_pandas().sort_values(["source", "lang"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, b)


def _winnow_ref(text, n, w):
    """Brute-force winnowing reference: explicit windows, min hash,
    rightmost tie — straight from the MOSS paper's definition."""
    import hashlib

    ws = text.split()
    grams = [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]
    if not grams:
        return set()
    h = [
        int.from_bytes(hashlib.sha256(g.encode()).digest()[:8], "big")
        & 0x7FFF_FFFF_FFFF_FFFF
        for g in grams
    ]
    sel = set()
    if len(h) <= w:
        windows = [(0, len(h))]
    else:
        windows = [(s, s + w) for s in range(len(h) - w + 1)]
    for s, e in windows:
        mn = min(h[s:e])
        rightmost = max(j for j in range(s, e) if h[j] == mn)
        sel.add((rightmost, h[rightmost]))
    return sel


def test_winnow_fingerprints_matches_reference():
    from flashray.datapipe.textstats import winnow_fingerprints

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 40)))
        for _ in range(40)
    ]
    df = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64), "text": texts})
    got = winnow_fingerprints(rd.from_pandas(df), n=3, w=4).to_pandas()
    by_doc = {
        int(d): {(int(r.pos), int(r.fp)) for r in g.itertuples()}
        for d, g in got.groupby("doc_id")
    }
    for d, t in zip(df["doc_id"], df["text"]):
        assert by_doc.get(int(d), set()) == _winnow_ref(t, 3, 4), d
    # density sanity: some docs fingerprinted, none empty with >= n tokens
    assert sum(len(s) for s in by_doc.values()) > 0


def test_winnow_overlap_guarantee_and_maxdf():
    """A >= w+n-1 token run shared between two docs MUST share a selected
    fingerprint (the winnowing guarantee); unrelated docs share none; the
    max_df hot-fingerprint cap drops boilerplate shared by every doc."""
    from flashray.datapipe.textstats import winnow_overlap

    run = "one two three four five six seven eight nine ten"  # 10 tokens
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                "prefix words here " + run,
                run + " suffix tail words",
                "completely different content with no shared phrases at all",
                "another unrelated document talking about other things",
            ],
        }
    )
    got = (
        winnow_overlap(rd.from_pandas(docs), n=4, w=4)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
    )
    pairs = set(zip(got["doc_id_a"], got["doc_id_b"]))
    assert (0, 1) in pairs  # the guarantee: 10 >= w + n - 1 = 7
    assert not any(2 in p or 3 in p for p in pairs)

    # boilerplate shared by EVERY doc is dropped by max_df
    bp = " std boiler plate footer text here"
    docs2 = docs.assign(text=docs["text"] + bp)
    full = winnow_overlap(rd.from_pandas(docs2), n=4, w=4).to_pandas()
    assert len(full) == 6  # all pairs share the footer
    capped = winnow_overlap(
        rd.from_pandas(docs2), n=4, w=4, max_df=3
    ).to_pandas()
    capped_pairs = set(zip(capped["doc_id_a"], capped["doc_id_b"]))
    assert (0, 1) in capped_pairs and len(capped_pairs) < 6


def test_percentile_gate_by_group_matches_sql():
    """Per-group exact quantile gate == DuckDB window quantile_disc,
    including a hot group 20x larger than the rest and a singleton."""
    from flashray.datapipe.textstats import percentile_gate_by_group

    rng = np.random.default_rng(11)
    groups = (["web"] * 400 + ["wiki"] * 20 + ["arxiv"] * 20 + ["lone"])
    df = pd.DataFrame(
        {
            "doc_id": np.arange(len(groups), dtype=np.int64),
            "source": groups,
            "v": np.round(rng.random(len(groups)) * 10, 3),
        }
    )
    got = (
        percentile_gate_by_group(rd.from_pandas(df), "source", "v", q=0.25)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("d", df)
    want = con.execute(
        """
        WITH c AS (SELECT source, quantile_disc(v, 0.25) AS cut
                   FROM d GROUP BY 1)
        SELECT d.doc_id, d.source, d.v
        FROM d JOIN c USING (source) WHERE d.v >= c.cut ORDER BY 1
        """
    ).df()
    assert list(got["doc_id"]) == list(want["doc_id"])
    # a singleton group's cut is its own value — it always survives 'ge'
    assert (got["source"] == "lone").sum() == 1
    import pytest as _pytest

    with _pytest.raises(ValueError):
        percentile_gate_by_group(rd.from_pandas(df), "source", "v", keep="x")


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(2, 6))
def test_winnow_guarantee_property(seed, n, w):
    """The winnowing guarantee, fuzzed: ANY two docs sharing a token run
    of length >= w + n - 1 share at least one selected fingerprint
    (positions may differ; hashes must intersect)."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(12)]
    run = " ".join(rng.choice(vocab, size=w + n - 1 + rng.integers(0, 4)))
    pre_a = " ".join(rng.choice(vocab, size=rng.integers(0, 8)))
    post_b = " ".join(rng.choice(vocab, size=rng.integers(0, 8)))
    doc_a = (pre_a + " " + run).strip()
    doc_b = (run + " " + post_b).strip()
    fa = {h for _, h in _winnow_ref(doc_a, n, w)}
    fb = {h for _, h in _winnow_ref(doc_b, n, w)}
    assert fa & fb, (doc_a, doc_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(8, 12), st.integers(1, 5))
def test_bloom_no_false_negatives_property(seed, log_m, k):
    """A Bloom bitset never misses an inserted key — the property
    bloom_decontaminate's exactness argument rests on — for ANY
    (m_bits, k) and any insertion set, including saturating ones."""
    from flashray.datapipe.dedup import _bloom_positions

    rng = np.random.default_rng(seed)
    m_bits = 1 << log_m
    keys = rng.integers(0, 2**63, size=rng.integers(1, 200)).astype(
        np.uint64
    )
    buf = np.zeros(m_bits // 8, dtype=np.uint8)
    pos = _bloom_positions(keys, m_bits, k).reshape(-1)
    np.bitwise_or.at(
        buf,
        (pos >> np.uint64(3)).astype(np.int64),
        np.left_shift(np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)),
    )
    q = _bloom_positions(keys, m_bits, k)
    member = np.ones(len(keys), dtype=bool)
    for i in range(k):
        p = q[i]
        member &= (
            buf[(p >> np.uint64(3)).astype(np.int64)]
            >> (p & np.uint64(7)).astype(np.uint8)
        ) & np.uint8(1) == 1
    assert member.all()
