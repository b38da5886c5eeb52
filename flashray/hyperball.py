"""HyperBall: approximate neighborhood function / harmonic centrality via
per-vertex HyperLogLog sketches (Boldi & Vigna, "In-Core Computation of
Geometric Centralities with HyperBall", 2013-14 — the algorithm built for
graphs too large for exact all-pairs BFS, i.e. exactly the 100-TB regime).

Runs on the superstep engine (:class:`flashray.programs.HyperBallProgram`):
each vertex's 2^p HLL registers are its state, and superstep t computes

    B_t(v) = B_{t-1}(v) ∪ ⋃_{(v,w) ∈ E} B_{t-1}(w)

as one register-wise max-merge through the engine's partial exchange —
registers move as one numpy block per (sender, receiver) partition pair,
and only vertices whose registers changed scatter again.

Harmonic centrality accumulates per superstep from the ball-size deltas:
``h(v) = Σ_t (|B_t(v)| − |B_{t-1}(v)|) / t`` — distances enter through the
superstep number, never through pairwise paths.

Determinism: sketch union is register-wise max (exact, order-free) and
hashes are sha256-derived (flashray.datapipe.sketches), so estimates are
bit-identical across runs, partitionings and parallelism — and exactly
recomputable in SQL over a recursive-CTE transitive closure (the
``hyperball_user_graph`` driver oracle does precisely that).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data


def hyperball_engine(
    edges: ray.data.Dataset,
    scratch_dir: str,
    *,
    p: int = 8,
    max_iters: int = 256,
    num_partitions: int | None = None,
    src_col: str = "src",
    dst_col: str = "dst",
    return_nf: bool = False,
) -> pd.DataFrame:
    """Run HyperBall over an (src, dst) edge Dataset; balls grow along OUT
    edges (B(v) = v ∪ successors ∪ ...). Returns a DataFrame
    (vertex_id, ball_est, harmonic) at convergence, or after
    ``max_iters`` supersteps (balls of radius ``max_iters``), plus the
    neighborhood function N(0), N(1), ... with ``return_nf=True``.

    The engine delivers src→dst, so the graph is built from REVERSED
    edges under ``scratch_dir``, without the build's duplicate-edge
    shuffle: register max-merge is idempotent, so a repeated edge
    changes nothing.

    Runs synchronous supersteps (no pipelining): a pipelined run would
    speculatively execute past ``max_iters`` and grow bounded-radius balls
    beyond the requested radius."""
    from flashray.build import build_graph
    from flashray.convert import to_edge_schema
    from flashray.engine import run_program
    from flashray.programs import HyperBallProgram

    I64 = pa.int64()
    rev = edges.map_batches(
        lambda b: pa.table(
            {"src": b[dst_col].cast(I64), "dst": b[src_col].cast(I64)}
        ),
        batch_format="pyarrow",
    )
    g = build_graph(
        to_edge_schema(rev),
        scratch_dir,
        num_partitions=num_partitions,
        dedup=False,
    )
    nf = []

    def drive(eng):
        nf.append(eng.broadcast_event({"op": "ball_sum"})["ball_sum"])  # N(0)
        for _ in range(max_iters):
            m = eng.step()
            if m["changed"] == 0:
                break  # this step's ball_sum duplicates the previous one
            nf.append(m["ball_sum"])  # N(t) = Σ_v |B_t(v)|

    out = run_program(
        g, HyperBallProgram(p=p), drive=drive,
        postprocess=lambda df: df.rename(columns={"value": "ball_est"})[
            ["vertex_id", "ball_est", "harmonic"]
        ],
    )
    return (out, nf) if return_nf else out


def effective_diameter(nf, q: float = 0.9) -> float:
    """Effective diameter from a neighborhood-function curve ``nf`` (as
    returned by ``hyperball_engine(..., return_nf=True)``): the smallest
    (linearly interpolated) t such that N(t) ≥ q · N(∞) — the standard
    ANF/HyperBall summary (Palmer et al. KDD 2002; Boldi & Vigna)."""
    target = q * nf[-1]
    for t in range(len(nf)):
        if nf[t] >= target:
            if t == 0 or nf[t] == nf[t - 1]:
                return float(t)
            return t - 1 + (target - nf[t - 1]) / (nf[t] - nf[t - 1])
    return float(len(nf) - 1)
