"""Deterministic maximal matching by symmetric proposals (the
Israeli–Itai shape with hash priorities; SURVEY.md §2.2 A-family
extension, same determinism conventions as the MIS/coloring programs).

Round r over the alive subgraph: every alive vertex PROPOSES to its
(priority, id)-minimal alive neighbor; an edge whose endpoints propose to
each other is matched and both endpoints leave. Progress argument: the
globally minimal alive vertex's proposal is always reciprocated (it is
its target's minimum too), and so is every priority-local minimum — the
alive set shrinks every round, with hash priorities giving the usual
O(log n)-ish expected round count instead of id-order chains.

Priorities are ``sha256('mat:' + id) >> 1`` (the repo's SQL-replayable
convention), so a round-unrolled DuckDB oracle replays every proposal,
every match, and the final matching exactly. On the local route the
rounds run in-process on numpy arrays; otherwise each round is two
bucket shuffles (per-vertex
lexicographic-min proposal, mutual-proposal join) plus a broadcast
newly-matched filter — agreement-tested against the local path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from flashray import routing
from flashray.build import Graph


def _prio(ids: np.ndarray) -> np.ndarray:
    from flashray.datapipe.sketches import _sha_u64

    h = _sha_u64(["mat:" + str(int(v)) for v in ids])
    return (h >> np.uint64(1)).astype(np.int64)


def _local_match(src: np.ndarray, dst: np.ndarray,
                 max_rounds: int, weight: np.ndarray | None = None
                 ) -> pd.DataFrame:
    verts = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(verts)}
    nv = len(verts)
    pr = _prio(verts)
    s = np.fromiter((idx[int(v)] for v in src), np.int64, len(src))
    d = np.fromiter((idx[int(v)] for v in dst), np.int64, len(dst))
    alive = np.ones(nv, dtype=bool)
    out_u, out_v = [], []
    for _ in range(max_rounds):
        m = alive[s] & alive[d] & (s != d)
        if not m.any():
            break
        es, ed = s[m], d[m]
        # per-source best partner first, then unique picks it; weighted
        # mode prefers the HEAVIEST incident edge (Preis's locally-
        # dominant-edge 1/2-approximation). Weight ties break by the
        # GLOBAL edge order (min id, max id) — a per-partner tie-break
        # would not be consistent between the two endpoints and could
        # leave tied edges proposing in circles forever; under a total
        # edge order the globally best alive edge always reciprocates
        if weight is not None:
            u_ids = verts[es]
            p_ids = verts[ed]
            mink = np.minimum(u_ids, p_ids)
            maxk = np.maximum(u_ids, p_ids)
            order = np.lexsort((maxk, mink, -weight[m], es))
        else:
            order = np.lexsort((verts[ed], pr[ed], es))
        es_o, ed_o = es[order], ed[order]
        first = np.unique(es_o, return_index=True)[1]
        prop = np.full(nv, -1, dtype=np.int64)
        prop[es_o[first]] = ed_o[first]
        u = es_o[first]
        t = ed_o[first]
        mutual = (prop[t] == u) & (u < t)
        if not mutual.any():
            break  # cannot happen with symmetric alive edges; guard
        mu, mt = u[mutual], t[mutual]
        out_u.extend(verts[mu].tolist())
        out_v.extend(verts[mt].tolist())
        alive[mu] = False
        alive[mt] = False
    return (
        pd.DataFrame({"u": pd.Series(out_u, dtype=np.int64),
                      "v": pd.Series(out_v, dtype=np.int64)})
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )


def maximal_matching(
    graph: Graph,
    *,
    weighted: bool = False,
    max_rounds: int = 64,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Maximal matching of the SYMMETRIZED graph; returns matched edges
    (u, v) with u < v, sorted. Every vertex appears at most once
    (asserted in tests) and no alive edge survives (maximality).

    ``weighted=True`` proposes to the HEAVIEST incident alive edge
    instead of the minimal hash priority — Preis's locally-dominant-edge
    rule, a 1/2-approximation of maximum weight matching. Weight ties
    break by the GLOBAL (min id, max id) edge order in both paths, so
    the globally best alive edge always reciprocates and results are
    deterministic and path-identical (agreement-tested)."""
    cols = ["src", "dst", "weight"] if weighted else ["src", "dst"]
    edges = graph.edges_dataset(columns=cols)
    local = 160 * graph.meta.num_edges
    if routing.choose("matching.maximal_matching", local) == "local":
        return _collected_match(edges, max_rounds, weighted)
    return _distributed_match(edges, max_rounds, num_buckets, weighted)


def _collected_match(edges: ray.data.Dataset, max_rounds: int,
                     weighted: bool) -> pd.DataFrame:
    """:func:`_local_match` over the collected (src, dst[, weight]) rows."""
    e = edges.to_pandas()
    return _local_match(
        e["src"].to_numpy(np.int64), e["dst"].to_numpy(np.int64), max_rounds,
        weight=e["weight"].to_numpy(np.float64) if weighted else None,
    )


def _distributed_match(edges: ray.data.Dataset, max_rounds: int,
                       num_buckets: int, weighted: bool) -> pd.DataFrame:
    from flashray.joins import bucket_hash_join, bucket_map

    I64 = pa.int64()

    def with_prio(b: pa.Table) -> pa.Table:
        if weighted:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            return b.append_column(
                "mink_", pa.array(np.minimum(s, d))
            ).append_column("maxk_", pa.array(np.maximum(s, d)))
        d = b["dst"].to_numpy(zero_copy_only=False)
        return b.append_column("pd_", pa.array(_prio(d)))

    keep_cols = ["src", "dst", "weight"] if weighted else ["src", "dst"]
    cur = edges.map_batches(
        lambda b: b.select(keep_cols), batch_format="pyarrow"
    ).materialize()
    matched = []
    rounds_done = 0
    for _ in range(max_rounds):
        n_alive = cur.count()
        if n_alive == 0:
            break
        if rounds_done > 0 and routing.choose(
            "matching.tail", 160 * n_alive
        ) == "local":
            # hybrid tail (the peel-family idiom): most vertices match in
            # the first rounds; once the alive edge set routes local,
            # finish the remaining rounds in-process — the
            # rule is identical, so the result is path-identical, and the
            # long shrinking tail stops paying per-round shuffle latency
            matched.append(
                _collected_match(cur, max_rounds - rounds_done, weighted)
            )
            break
        # proposal: per src, the best partner — (prio, id)-minimal, or
        # in weighted mode (weight desc, global edge order) — bucket by
        # src, in-bucket lexicographic first
        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            if weighted:
                g = g.sort_values(
                    ["src", "weight", "mink_", "maxk_"],
                    ascending=[True, False, True, True],
                )
            else:
                g = g.sort_values(["src", "pd_", "dst"])
            return g.drop_duplicates("src")[["src", "dst"]].rename(
                columns={"dst": "t"}
            )

        prop = bucket_map(
            cur.map_batches(with_prio, batch_format="pyarrow"),
            ["src"],
            per_bucket,
            num_buckets=num_buckets,
        )
        # mutual proposals: (u, t) whose reverse (t, u) also proposed
        mut = bucket_hash_join(
            prop, prop, ["src", "t"], right_on=["t", "src"],
            num_buckets=num_buckets,
            left_schema=pa.schema([("src", I64), ("t", I64)]),
            right_schema=pa.schema([("src", I64), ("t", I64)]),
            suffixes=("", "_r"),
        )
        pairs = mut.map_batches(
            lambda b: b.filter(
                pa.array(
                    b["src"].to_numpy(zero_copy_only=False)
                    < b["t"].to_numpy(zero_copy_only=False)
                )
            ).select(["src", "t"]),
            batch_format="pyarrow",
        ).to_pandas()
        if not len(pairs):
            break
        matched.append(pairs.rename(columns={"src": "u", "t": "v"}))
        gone = ray.put(
            np.unique(
                np.concatenate(
                    [pairs["src"].to_numpy(), pairs["t"].to_numpy()]
                )
            ).astype(np.int64)
        )

        def drop_dead(b: pa.Table) -> pa.Table:
            dead = ray.get(gone)
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            keep = ~(np.isin(s, dead) | np.isin(d, dead))
            return b.filter(pa.array(keep))

        cur = cur.map_batches(
            drop_dead, batch_format="pyarrow"
        ).materialize()
        rounds_done += 1
    if not matched:
        return pd.DataFrame(
            {"u": pd.Series(dtype=np.int64),
             "v": pd.Series(dtype=np.int64)}
        )
    return (
        pd.concat(matched, ignore_index=True)
        .astype(np.int64)
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
