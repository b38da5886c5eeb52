"""Independent in-process references for the output checks.

Each reference reads the built graph's parquet files directly and
recomputes the answer with plain numpy, sharing no code with flashray.
"""

from __future__ import annotations

import heapq
import os

import numpy as np
import pyarrow.parquet as pq


def read_graph(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted vertex ids, src index, dst index) of a built graph."""
    vt = pq.read_table(os.path.join(path, "vertices"), columns=["vertex_id"])
    et = pq.read_table(os.path.join(path, "edges"), columns=["src", "dst"])
    vids = np.sort(vt["vertex_id"].to_numpy())
    src = np.searchsorted(vids, et["src"].to_numpy())
    dst = np.searchsorted(vids, et["dst"].to_numpy())
    return vids, src, dst


def pagerank(path: str, damping: float = 0.85, tol: float = 1e-13) -> tuple:
    """Power iteration of rank = (1-d)/N + d·Σ_in rank(u)/outdeg(u), with no
    dangling redistribution, to an L1 change below ``tol``."""
    vids, src, dst = read_graph(path)
    n = len(vids)
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(10_000):
        share = np.divide(rank, outdeg, out=np.zeros(n), where=outdeg > 0)
        new = (1.0 - damping) / n + damping * np.bincount(
            dst, weights=share[src], minlength=n
        )
        delta = np.abs(new - rank).sum()
        rank = new
        if delta < tol:
            break
    return vids, rank


def wcc(path: str) -> tuple:
    """Component label = min vertex id, by min-label hooking plus pointer
    jumping until nothing changes."""
    vids, src, dst = read_graph(path)
    label = np.arange(len(vids))
    while True:
        prev = label.copy()
        np.minimum.at(label, dst, label[src])
        np.minimum.at(label, src, label[dst])
        label = label[label]
        if np.array_equal(label, prev):
            break
    return vids, vids[label]


def kcore(path: str) -> tuple:
    """Coreness by min-degree peeling; a vertex's degree counts its
    out-edge rows (self loops included), as the symmetrized layout stores
    them."""
    vids, src, dst = read_graph(path)
    n = len(vids)
    order = np.argsort(src, kind="stable")
    nbr = dst[order]
    starts = np.r_[0, np.cumsum(np.bincount(src, minlength=n))]
    deg = np.bincount(src, minlength=n).tolist()
    core = [0] * n
    removed = [False] * n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        k = max(k, d)
        core[v] = k
        removed[v] = True
        for w in nbr[starts[v] : starts[v + 1]].tolist():
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return vids, np.asarray(core, dtype=np.int64)
