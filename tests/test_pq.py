"""Product quantization: codes, ADC distances, recall vs brute force."""

import numpy as np
import pandas as pd
import ray.data as rd

from flashray.datapipe import pq, similarity


def _clustered(n_per=50, centers=4, d=16, seed=3, spread=0.05):
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(centers, d)).astype(np.float64)
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    rows, vecs = [], []
    vid = 0
    for c in range(centers):
        for _ in range(n_per):
            v = protos[c] + rng.normal(scale=spread, size=d)
            rows.append({"vec_id": vid, "embedding": v.astype(np.float32)})
            vecs.append(v)
            vid += 1
    return pd.DataFrame(rows), np.asarray(vecs), protos


def test_pq_encode_exact_on_prototype_data():
    # vectors EXACTLY at 4 prototypes -> after 2 Lloyd rounds each subspace
    # codebook contains the prototype subvectors; ADC distance to a
    # prototype query is exactly the true distance
    rng = np.random.default_rng(11)
    protos = rng.normal(size=(4, 8)).astype(np.float64)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(40, dtype=np.int64),
            "embedding": [protos[i % 4].astype(np.float32) for i in range(40)],
        }
    )
    ds = rd.from_pandas(df)
    cb = pq.pq_train(ds, m=2, k=4, iters=2)
    codes = pq.pq_encode(ds, cb).to_pandas()
    assert len(codes) == 40
    # all copies of the same prototype share one code
    code_of = {}
    for vid, code in zip(codes["vec_id"], codes["pq_code"]):
        code_of.setdefault(int(vid) % 4, set()).add(int(code))
    assert all(len(s) == 1 for s in code_of.values())
    assert len({next(iter(s)) for s in code_of.values()}) == 4
    # ADC distance from a prototype query to its own copies is ~0
    out = pq.pq_knn(
        pq.pq_encode(ds, cb),
        protos[0:1].astype(np.float32),
        cb,
        k_neighbors=10,
    )
    assert len(out) == 10
    assert np.allclose(out["approx_dist"], 0.0, atol=1e-6)
    # the 10 nearest are exactly the 10 copies of prototype 0
    assert set(out["vec_id"].astype(int)) == set(range(0, 40, 4))


def test_pq_knn_recall_at_r_vs_brute_force():
    # the standard PQ metric is recall@R with R >> k: quantization
    # collapses within-cell distances, so the approx top-10 ORDER among
    # same-cell members is tie-arbitrary, but the shortlist must contain
    # the true neighbors
    df, vecs, protos = _clustered()
    ds = rd.from_pandas(df)
    cb = pq.pq_train(ds, m=4, k=8, iters=3, init="hash")
    codes = pq.pq_encode(ds, cb)
    queries = protos.astype(np.float32)
    approx = pq.pq_knn(codes, queries, cb, k_neighbors=50)
    exact = similarity.knn_brute_force(ds, queries, k=10)
    recalls = []
    for qi in range(len(queries)):
        a = set(approx[approx["query_id"] == qi]["vec_id"].astype(int))
        e = set(exact[exact["query_id"] == qi]["vec_id"].astype(int))
        recalls.append(len(a & e) / 10.0)
    assert np.mean(recalls) >= 0.9, recalls


def test_pq_knn_rerank_matches_exact_l2():
    # ADC shortlist -> exact re-rank: top-10 must equal exact L2 top-10
    # whenever the shortlist contains it (verified recall above)
    df, vecs, protos = _clustered()
    ds = rd.from_pandas(df)
    cb = pq.pq_train(ds, m=4, k=8, iters=3, init="hash")
    codes = pq.pq_encode(ds, cb).materialize()
    queries = protos.astype(np.float32)
    out = pq.pq_knn_rerank(
        ds, codes, queries, cb, k_neighbors=10, shortlist=60
    )
    # exact L2 oracle in numpy over the raw vectors
    q64 = queries.astype(np.float64)
    x = np.stack([np.asarray(v, dtype=np.float32) for v in df["embedding"]]).astype(np.float64)
    for qi in range(len(queries)):
        d = np.sqrt(((x - q64[qi]) ** 2).sum(axis=1))
        want = set(np.lexsort((df["vec_id"].to_numpy(), d))[:10])
        got_ids = out[out["query_id"] == qi]["vec_id"].astype(int).to_numpy()
        got_d = out[out["query_id"] == qi]["dist"].to_numpy()
        assert len(got_ids) == 10
        # distances are the exact ones
        assert np.allclose(got_d, np.sort(d)[:10], atol=1e-5)
        assert set(df["vec_id"].to_numpy()[sorted(want)]) == set(got_ids)


def test_pq_code_packing_roundtrip():
    rng = np.random.default_rng(5)
    m, k = 6, 7
    a = rng.integers(0, k, size=(100, m)).astype(np.int64)
    weights = (k ** np.arange(m)).astype(np.int64)
    packed = a @ weights
    assert (pq.pq_decode_codes(packed, m, k) == a).all()


def test_pq_train_seed_protocol_matches_kmeans():
    # with m=1 subspace, pq_train IS kmeans: same seeds, same round
    from flashray.datapipe import kmeans

    df, vecs, _ = _clustered(n_per=25, centers=3, d=8, seed=9)
    ds = rd.from_pandas(df)
    cb = pq.pq_train(ds, m=1, k=3, iters=1, init="lowest_ids")
    cents, _info = kmeans.kmeans(
        ds, k=3, max_iters=1, tol=0.0, init="lowest_ids"
    )
    assert np.allclose(cb[0], cents, atol=1e-9)
