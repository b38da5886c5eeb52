"""Maximal matching: validity, maximality, determinism, path agreement."""

import numpy as np
import pandas as pd
import pytest

from flashray import fixtures, matching
from flashray.build import build_graph_from_arrays


def _check(pairs: pd.DataFrame, src, dst):
    eset = set()
    for a, b in zip(src, dst):
        if a != b:
            eset.add((int(a), int(b)))
            eset.add((int(b), int(a)))
    used = []
    for r in pairs.itertuples():
        assert (r.u, r.v) in eset  # matched pairs are real edges
        used.extend([r.u, r.v])
    assert len(used) == len(set(used))  # each vertex matched at most once
    # maximality: no edge with both endpoints unmatched
    unmatched = {v for e in eset for v in e} - set(used)
    for a, b in eset:
        assert not (a in unmatched and b in unmatched), (a, b)


@pytest.mark.parametrize("name,fn", [
    ("path5", fixtures.path_edges),
    ("star8", fixtures.star_edges),
    ("er100", fixtures.er_edges),
])
def test_maximal_matching_valid(tmp_path, name, fn):
    src, dst = fn()
    g = build_graph_from_arrays(src, dst, str(tmp_path / name),
                                num_partitions=4)
    pairs = matching.maximal_matching(g)
    _check(pairs, src, dst)
    again = matching.maximal_matching(g)
    assert pairs.equals(again)  # deterministic


def test_maximal_matching_paths_agree(tmp_path, pin_route):
    """Distributed rounds == local numpy rounds (same proposals, same
    priorities) on a graph forced down both routes."""
    src, dst = fixtures.er_edges(60, 0.08, seed=9)
    g = build_graph_from_arrays(src, dst, str(tmp_path / "agree"),
                                num_partitions=4)
    local = matching.maximal_matching(g)
    pin_route("distributed")
    dist = matching.maximal_matching(g)
    pd.testing.assert_frame_equal(local, dist)
    _check(local, src, dst)


def test_weighted_matching_prefers_heavy_edges(tmp_path):
    """Path a-b-c with w(ab) >> w(bc): b pairs with a; a triangle of
    equal weights still matches one edge (consistent tie order — no
    proposal cycles); weighted result >= half the optimum on a fixture
    with known optimum."""
    src = np.array([0, 1, 1, 2], dtype=np.int64)
    dst = np.array([1, 0, 2, 1], dtype=np.int64)
    w = np.array([9.0, 9.0, 1.0, 1.0])
    g = build_graph_from_arrays(src, dst, str(tmp_path / "wm"),
                                num_partitions=2, weight=w)
    pairs = matching.maximal_matching(g, weighted=True)
    assert list(zip(pairs["u"], pairs["v"])) == [(0, 1)]

    # equal-weight triangle: exactly one edge matches, deterministically
    src = np.array([0, 1, 2, 1, 2, 0], dtype=np.int64)
    dst = np.array([1, 2, 0, 0, 1, 2], dtype=np.int64)
    g2 = build_graph_from_arrays(src, dst, str(tmp_path / "wt"),
                                 num_partitions=2,
                                 weight=np.ones(6))
    p2 = matching.maximal_matching(g2, weighted=True)
    assert list(zip(p2["u"], p2["v"])) == [(0, 1)]  # global edge order


from hypothesis import given, settings, strategies as st


@st.composite
def sym_edges(draw):
    n = draw(st.integers(2, 24))
    ne = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a = rng.integers(0, n, ne).astype(np.int64)
    b = rng.integers(0, n, ne).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    return np.concatenate([a, b]), np.concatenate([b, a])


@settings(max_examples=60, deadline=None)
@given(sym_edges(), st.integers(0, 2**31 - 1))
def test_local_match_properties(edges, perm_seed):
    """For ANY symmetrized edge list: the kernel yields a valid matching
    (real edges, each vertex at most once), a MAXIMAL one (no edge
    between two unmatched vertices), and the result is invariant to the
    order the edges arrive in — the partition/shuffle-arrival invariance
    the distributed path relies on."""
    src, dst = edges
    if not len(src):
        return
    pairs = matching._local_match(src, dst, 256)
    eset = set(zip(src.tolist(), dst.tolist()))
    used = []
    for r in pairs.itertuples():
        assert (r.u, r.v) in eset
        used.extend([r.u, r.v])
    assert len(used) == len(set(used))
    unmatched = {int(v) for v in np.concatenate([src, dst])} - set(used)
    for a, b in eset:
        assert not (a in unmatched and b in unmatched)
    # edge-order invariance
    rng = np.random.default_rng(perm_seed)
    p = rng.permutation(len(src))
    again = matching._local_match(src[p], dst[p], 256)
    assert pairs.equals(again)


def test_weighted_matching_paths_agree(tmp_path, pin_route):
    """Weighted distributed rounds == weighted local kernel (same
    proposal order: weight desc, global edge tie-break)."""
    rng = np.random.default_rng(31)
    a = rng.integers(0, 40, 150).astype(np.int64)
    b = rng.integers(0, 40, 150).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    w = rng.integers(1, 5, keep.sum()).astype(np.float64)
    g = build_graph_from_arrays(
        np.concatenate([a, b]), np.concatenate([b, a]),
        str(tmp_path / "wagree"), num_partitions=4,
        weight=np.concatenate([w, w]),
    )
    local = matching.maximal_matching(g, weighted=True)
    pin_route("distributed")
    dist = matching.maximal_matching(g, weighted=True)
    pd.testing.assert_frame_equal(local, dist)
