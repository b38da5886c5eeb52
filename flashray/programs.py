"""Vertex programs — the rebuild's ``compute_vertex``/``vertex_program``
subclass surface (flash-graph/graph_engine.h, vertex_program.h; SURVEY.md
§2.5). Each program is a small vectorized strategy object consumed by the
superstep engine:

- ``signal(shard, state)`` — per-owned-vertex scatter value (the reference's
  per-vertex ``run()`` + ``send_msg`` collapsed into one vectorized array op);
- ``combine``/``identity`` — the message semiring (Sum for PageRank, Min for
  hash-min label propagation / BFS), applied map-side via reduceat and
  reduce-side via fancy-indexed updates;
- ``apply(shard, state, agg, N)`` — the reference's ``run_on_message`` +
  activation (E5/E8): mutate state, set the next frontier, return metrics.

All combiners are associative + commutative, so shuffle order never affects
results (SURVEY.md §4 "Ordering").
"""

from __future__ import annotations

import numpy as np

from flashray.csr import INT_IDENTITY, ShardData


class VertexProgram:
    combine: str = "sum"
    identity = 0.0
    dtype = np.float64
    # 0 = scalar messages; d > 0 = each vertex scatters a length-d vector
    # (signal returns (nv, d); combine applies elementwise — e.g. HyperBall
    # ships whole HLL register arrays through the same exchange)
    value_dim: int = 0
    # extra 1-D state columns emitted by values_table()/write_values()
    # alongside "values" (e.g. HyperBall's harmonic centrality)
    output_columns: list[str] = []
    frontier_only: bool = False  # inactive sources send the identity
    use_weights: bool = False
    # how edge weights enter the message: "mul" (rank · w — probability
    # semiring) or "add" (dist + w — tropical min-plus semiring; identity
    # must absorb the add, i.e. np.inf)
    weight_op: str = "mul"
    uses_channels: bool = False  # shards load per-edge etype channels
    channel_map: dict = {}  # etype string -> int8 channel code
    # On split (skew) graphs: True lets the engine run fused single-wave
    # supersteps whose mirror-edge signals are one superstep stale (the
    # engine then requires the stop predicate to hold 2 supersteps in a
    # row). Safe ONLY for programs whose result is invariant under
    # uniformly-delayed delivery: fixpoint iterations (pull PageRank),
    # idempotent-min floods (WCC/label-prop/BFS), and exactly-once
    # commutative sums (push PageRank). Programs where arrival ROUND
    # matters (Brandes first-arrival sigma, k-core phase decrements, SCC
    # color floods) must leave this False and pay the two-phase round.
    stale_mirror_safe: bool = False

    def edge_mask(self, shard: "ShardData", state: dict):
        """Optional per-edge scatter mask (e.g. restrict to one channel
        of a bidirected graph); None = all edges."""
        return None

    def init_state(self, shard: ShardData, N: int) -> dict:
        raise NotImplementedError

    def signal(self, shard: ShardData, state: dict) -> np.ndarray:
        raise NotImplementedError

    def apply(self, shard: ShardData, state: dict, agg: np.ndarray, N: int) -> dict:
        raise NotImplementedError

    def on_event(self, shard: ShardData, state: dict, payload: dict) -> dict:
        return {}

    # columns persisted by checkpoint/restore (all per-vertex arrays)
    def state_columns(self) -> list[str]:
        return ["values", "active"]

    # scalar state entries persisted by checkpoint/restore (JSON-encodable;
    # e.g. a phase counter) — arrays go in state_columns, scalars here
    def scalar_state_keys(self) -> list[str]:
        return []


class PageRank(VertexProgram):
    """A1 (libgraph-algs/page_rank.cpp — compute_pagerank):
    ``rank = (1-d)/N + d * Σ_in rank(u)/outdeg(u)``, no dangling-mass
    redistribution; L1 convergence."""

    combine = "sum"
    identity = 0.0
    stale_mirror_safe = True  # fixpoint iteration; converges to the same
    # fixpoint under uniformly-delayed mirror delivery

    def __init__(
        self,
        damping: float = 0.85,
        weighted: bool = False,
        init_values=None,
    ):
        self.damping = damping
        self.weighted = weighted
        self.use_weights = weighted
        # warm start: (sorted ids, values) tuple or a ray.ObjectRef to one
        # (pass a ref so the O(V) prior ships through the object store
        # once, not inside every actor's pickled program)
        self.init_values = init_values

    def init_state(self, shard, N):
        v = np.full(shard.nv, 1.0 / max(N, 1))
        if self.init_values is not None:
            import ray as _ray

            iv = self.init_values
            ids, vals = _ray.get(iv) if isinstance(iv, _ray.ObjectRef) else iv
            pos = np.searchsorted(ids, shard.vertex_ids)
            hit = (pos < len(ids)) & (
                ids[np.minimum(pos, len(ids) - 1)] == shard.vertex_ids
            )
            v[hit] = vals[pos[hit]]
        return {
            "values": v,
            "active": np.ones(shard.nv, dtype=bool),
        }

    def signal(self, shard, state):
        if self.weighted:
            # per-edge message = rank * w(e) / W(u); the engine multiplies
            # by w(e) (use_weights), the signal carries rank / W(u)
            wd = shard.w_out_degree
            return np.where(wd > 0, state["values"] / np.maximum(wd, 1e-300), 0.0)
        outd = shard.out_degree
        return np.where(outd > 0, state["values"] / np.maximum(outd, 1), 0.0)

    def apply(self, shard, state, agg, N):
        d = self.damping
        new = (1.0 - d) / max(N, 1) + d * agg
        delta = float(np.abs(new - state["values"]).sum())
        state["values"] = new
        return {"delta": delta, "changed": shard.nv, "active": shard.nv}


class Katz(VertexProgram):
    """Katz centrality: ``x = β·1 + α·Aᵀx`` by power iteration from
    ``x = β`` (converges for α < 1/λ_max). After T supersteps
    ``x_T(v) = Σ_{l<=T} α^l · |paths of length l ending at v|``, which a
    SQL level-unrolled path-count recurrence replays exactly — so
    fixed-iteration runs are oracle-checkable like PersonalizedPageRank.
    Unlike PageRank the scatter is NOT degree-normalized (prestige flows
    whole along every edge); ``weighted=True`` scales per-edge by the
    weight column."""

    combine = "sum"
    identity = 0.0
    stale_mirror_safe = True  # fixpoint iteration (see exact_iterations)

    def __init__(self, alpha: float = 0.1, beta: float = 1.0,
                 weighted: bool = False, exact_iterations: bool = False):
        self.alpha = alpha
        self.beta = beta
        self.use_weights = weighted
        # fixed-iteration runs (eps=0, max_iters=T) promise EXACT equality
        # with the synchronous level-T path-count recurrence (the SQL
        # oracle). On graphs with split (skew) vertices the stale-mirror
        # fused round serves mirror signals one superstep late, which is
        # fine at the fixpoint but deviates from the recurrence at fixed T
        # — so exact_iterations forces the two-phase same-round mirror path
        self.stale_mirror_safe = not exact_iterations

    def init_state(self, shard, N):
        return {
            "values": np.full(shard.nv, self.beta),
            "active": np.ones(shard.nv, dtype=bool),
        }

    def signal(self, shard, state):
        return state["values"]

    def apply(self, shard, state, agg, N):
        new = self.beta + self.alpha * agg
        delta = float(np.abs(new - state["values"]).sum())
        state["values"] = new
        return {"delta": delta, "changed": shard.nv, "active": shard.nv}


class PowerIteration(VertexProgram):
    """Unnormalized power iteration ``x_t = Aᵀ x_{t-1}`` from ``x_0 = 1``
    — the eigenvector-centrality kernel (same A1-family engine shape as
    PageRank/Katz, SURVEY.md §2.2). Fixed-T raw values are length-T path
    counts ending at each vertex (exact integers in float64 on an
    unweighted graph), so a SQL level-unrolled recurrence replays them
    exactly; :func:`flashray.algorithms.eigenvector_centrality` divides
    by the max once at the end (exact-integer operands → one
    order-independent division), mirroring the HITS normalization
    contract. Raw counts grow like λ_max^T — keep T modest (≲ 30 on a
    dense graph) or the float64 integer range saturates; convergence-mode
    per-step normalization would break cross-system exactness."""

    combine = "sum"
    identity = 0.0

    def __init__(self, weighted: bool = False,
                 exact_iterations: bool = False):
        self.use_weights = weighted
        # same contract as Katz: fixed-T equality with the synchronous
        # recurrence needs same-round mirror delivery on split graphs
        self.stale_mirror_safe = not exact_iterations

    def init_state(self, shard, N):
        return {
            "values": np.ones(shard.nv),
            "active": np.ones(shard.nv, dtype=bool),
        }

    def signal(self, shard, state):
        return state["values"]

    def apply(self, shard, state, agg, N):
        delta = float(np.abs(agg - state["values"]).sum())
        state["values"] = agg.astype(np.float64)
        return {"delta": delta, "changed": shard.nv, "active": shard.nv}


class MaxIndependentSet(VertexProgram):
    """Deterministic Luby maximal independent set on a SYMMETRIZED graph.

    Each peel round is two supersteps: a PRIORITY wave (undecided vertices
    scatter their 63-bit hash priority, min-combine; an undecided vertex
    strictly below every undecided neighbor — or with none left — joins
    the MIS) and a NOTIFY wave (new MIS members scatter 0; undecided
    receivers drop out). Priorities are hashes, not ids: id-priorities
    degenerate to O(n) rounds on id-sorted chains, hash priorities give
    the Luby O(log n) expected rounds. ``hash_fn="sha"`` makes the
    priority SQL-replayable (``sha256('mis:' || id)`` first 8 bytes >> 1,
    exactly the repo-wide oracle hash convention); ``"splitmix"`` is the
    vectorized scale path. A 63-bit priority TIE between neighbors would
    stall both (statuses stay decidable only via other neighbors) —
    negligible below ~10^9 vertices, and ``max_iters`` bounds the loop.

    Status encoding in ``values``: 0 undecided, 1 in MIS, 2 out."""

    combine = "min"
    identity = INT_IDENTITY
    dtype = np.int64
    stale_mirror_safe = False  # arrival ROUND matters (two-wave rounds)

    def __init__(self, salt: int = 0, hash_fn: str = "splitmix"):
        if hash_fn not in ("splitmix", "sha"):
            raise ValueError(f"hash_fn must be splitmix|sha, got {hash_fn!r}")
        self.salt = salt
        self.hash_fn = hash_fn

    def _priorities(self, ids: np.ndarray) -> np.ndarray:
        if self.hash_fn == "sha":
            from flashray.datapipe.sketches import _sha_u64

            pref = f"mis{self.salt}:" if self.salt else "mis:"
            h = _sha_u64([pref + str(int(v)) for v in ids])
        else:
            from flashray.ids import _splitmix64

            h = _splitmix64(
                ids.astype(np.uint64) ^ np.uint64(0x9E3779B97F4A7C15 + self.salt)
            )
        return (h >> np.uint64(1)).astype(np.int64)

    def init_state(self, shard, N):
        return {
            "values": np.zeros(shard.nv, dtype=np.int64),
            "prio": self._priorities(shard.vertex_ids),
            "active": np.ones(shard.nv, dtype=bool),
            "phase": 0,
        }

    def signal(self, shard, state):
        v = state["values"]
        if state["phase"] % 2 == 0:  # priority wave
            return np.where(v == 0, state["prio"], INT_IDENTITY)
        # notify wave: MIS members broadcast 0
        return np.where(v == 1, np.int64(0), INT_IDENTITY)

    def apply(self, shard, state, agg, N):
        v = state["values"]
        if state["phase"] % 2 == 0:
            hit = (v == 0) & (state["prio"] < agg)
            v[hit] = 1
        else:
            hit = (v == 0) & (agg == 0)
            v[hit] = 2
        state["phase"] += 1
        n = int(hit.sum())
        undecided = int((v == 0).sum())
        return {
            "delta": float(n),
            "changed": n,
            "active": undecided,
            "undecided": undecided,
        }

    def state_columns(self):
        return ["values", "prio", "active"]

    def scalar_state_keys(self):
        return ["phase"]


class GreedyColor(MaxIndependentSet):
    """Deterministic greedy (Jones-Plassmann-style) coloring on a
    SYMMETRIZED graph: superstep r colors every uncolored vertex whose
    hash priority is strictly below all uncolored neighbors' — that set
    is independent (distinct priorities), so each superstep is one color
    class and the color equals the vertex's peel depth in priority
    order. One wave per color (no notify wave: the next superstep's
    minima recompute over the shrunken uncolored set). Hash priorities
    (splitmix / sha — inherited) keep the expected round count
    logarithmic where id-order chains would peel one vertex per round.

    ``values`` = color (>= 0) or -1 while uncolored."""

    def init_state(self, shard, N):
        return {
            "values": np.full(shard.nv, -1, dtype=np.int64),
            "prio": self._priorities(shard.vertex_ids),
            "active": np.ones(shard.nv, dtype=bool),
            "round": 0,
        }

    def signal(self, shard, state):
        return np.where(
            state["values"] < 0, state["prio"], INT_IDENTITY
        )

    def apply(self, shard, state, agg, N):
        v = state["values"]
        hit = (v < 0) & (state["prio"] < agg)
        v[hit] = state["round"]
        state["round"] += 1
        n = int(hit.sum())
        uncolored = int((v < 0).sum())
        return {
            "delta": float(n),
            "changed": n,
            "active": uncolored,
            "uncolored": uncolored,
        }

    def scalar_state_keys(self):
        return ["round"]


class PersonalizedPageRank(PageRank):
    """A1 variant (libgraph-algs/page_rank.cpp parameterized by a restart
    vector): teleport mass returns only to a seed set S —
    ``rank = (1-d)·p + d·Σ_in rank(u)/outdeg(u)`` with p = 1/|S| on seeds,
    0 elsewhere; init rank = p. Fixpoint iteration, so stale mirrors are
    safe (inherited). Fixed-iteration runs match the SQL oracle exactly."""

    def __init__(self, seeds, damping: float = 0.85):
        super().__init__(damping)
        self.seeds = np.asarray(
            sorted(set(int(s) for s in seeds)), dtype=np.int64
        )
        if not len(self.seeds):
            raise ValueError("personalized PageRank needs a non-empty seed set")

    def _restart_vec(self, shard) -> np.ndarray:
        pvec = np.zeros(shard.nv)
        if shard.nv:
            pos = np.searchsorted(shard.vertex_ids, self.seeds)
            m = (pos < shard.nv) & (
                shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == self.seeds
            )
            pvec[pos[m]] = 1.0 / len(self.seeds)
        return pvec

    def init_state(self, shard, N):
        pvec = self._restart_vec(shard)
        return {
            "values": pvec.copy(),
            "active": np.ones(shard.nv, dtype=bool),
            "restart": pvec,
        }

    def apply(self, shard, state, agg, N):
        d = self.damping
        new = (1.0 - d) * state["restart"] + d * agg
        delta = float(np.abs(new - state["values"]).sum())
        state["values"] = new
        return {"delta": delta, "changed": shard.nv, "active": shard.nv}

    def state_columns(self):
        return ["values", "active", "restart"]


class MultiSourcePPR(PageRank):
    """K single-seed personalized PageRank columns in ONE sweep
    (``value_dim = K``, same vector-state machinery as
    :class:`MultiSourceBFS`): column k is random-walk-with-restart
    relevance to seed k — restart mass 1.0 at its own seed, so each
    column is exactly :class:`PersonalizedPageRank` with |S| = 1. The
    PPR-feature featurization (per-seed proximity embeddings, the dense
    analogue of landmark distances) at 1 graph pass instead of K.
    Fixpoint iteration per column → stale mirrors safe (inherited);
    fixed-iteration runs replay exactly in a seed-indexed SQL
    recurrence."""

    def __init__(self, seeds, damping: float = 0.85):
        super().__init__(damping)
        self.seeds = np.asarray(
            sorted(set(int(s) for s in seeds)), dtype=np.int64
        )
        if not len(self.seeds):
            raise ValueError("multi-source PPR needs a non-empty seed list")
        self.value_dim = len(self.seeds)

    def init_state(self, shard, N):
        K = self.value_dim
        restart = np.zeros((shard.nv, K))
        if shard.nv:
            pos = np.searchsorted(shard.vertex_ids, self.seeds)
            m = (pos < shard.nv) & (
                shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == self.seeds
            )
            cols = np.arange(K)
            restart[pos[m], cols[m]] = 1.0
        return {
            "values": restart.copy(),
            "active": np.ones(shard.nv, dtype=bool),
            "restart": restart,
        }

    def signal(self, shard, state):
        outd = shard.out_degree
        inv = np.where(outd > 0, 1.0 / np.maximum(outd, 1), 0.0)
        return state["values"] * inv[:, None]

    def apply(self, shard, state, agg, N):
        d = self.damping
        new = (1.0 - d) * state["restart"] + d * agg
        delta = float(np.abs(new - state["values"]).sum())
        state["values"] = new
        return {"delta": delta, "changed": shard.nv, "active": shard.nv}

    def state_columns(self):
        return ["values", "active", "restart"]


class MinLabel(VertexProgram):
    """A3/A4 (libgraph-algs/wcc.cpp — compute_wcc): hash-min label
    propagation. With default labels (= vertex id) this is WCC; with seed
    labels it is generic min-semiring label propagation. Frontier: only
    vertices whose label changed propagate next superstep (E8)."""

    combine = "min"
    identity = INT_IDENTITY
    dtype = np.int64
    frontier_only = True
    stale_mirror_safe = True  # idempotent min flood: a delayed min never
    # changes the fixpoint, and messages carry values (not rounds)

    def __init__(self, seeds: dict | None = None, init_values=None):
        # seeds: vertex_id -> int label; None = WCC (label = own id).
        # init_values (WCC mode only): (sorted ids, labels) tuple or a
        # ray.ObjectRef to one — the converged labels of the graph BEFORE
        # an add_edges ingest. Hash-min converges to min(initial labels
        # over the component); prior labels are min-ids of prior
        # components (subsets of the merged ones), so the fixpoint is
        # identical to a cold run — reached in fewer supersteps because
        # labels are already flooded within every pre-ingest component.
        self.seeds = seeds
        self.init_values = init_values

    def init_state(self, shard, N):
        if self.seeds is None:
            values = shard.vertex_ids.copy()
            active = np.ones(shard.nv, dtype=bool)
            if self.init_values is not None:
                import ray as _ray

                iv = self.init_values
                ids, labs = (
                    _ray.get(iv) if isinstance(iv, _ray.ObjectRef) else iv
                )
                pos = np.searchsorted(ids, shard.vertex_ids)
                hit = (pos < len(ids)) & (
                    ids[np.minimum(pos, len(ids) - 1)] == shard.vertex_ids
                )
                values[hit] = np.minimum(
                    values[hit], labs[pos[hit]].astype(np.int64)
                )
        else:
            values = np.full(shard.nv, INT_IDENTITY, dtype=np.int64)
            active = np.zeros(shard.nv, dtype=bool)
            if self.seeds and shard.nv:
                sid = np.asarray(sorted(self.seeds), dtype=np.int64)
                lab = np.asarray([self.seeds[int(v)] for v in sid], dtype=np.int64)
                pos = np.searchsorted(shard.vertex_ids, sid)
                m = (pos < shard.nv) & (
                    shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == sid
                )
                values[pos[m]] = lab[m]
                active[pos[m]] = True
        return {"values": values, "active": active}

    def signal(self, shard, state):
        return state["values"]

    def apply(self, shard, state, agg, N):
        new = np.minimum(state["values"], agg)
        changed = new < state["values"]
        state["values"] = new
        state["active"] = changed
        n = int(changed.sum())
        return {"delta": float(n), "changed": n, "active": n}


class BFS(VertexProgram):
    """A10: hop distance from a seed set; min-combine of dist+1."""

    combine = "min"
    identity = INT_IDENTITY
    dtype = np.int64
    frontier_only = True
    stale_mirror_safe = True  # messages carry dist+1 values, min-combine:
    # late delivery cannot corrupt depths, only delay convergence

    def __init__(self, seeds):
        self.seeds = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)

    def init_state(self, shard, N):
        values = np.full(shard.nv, INT_IDENTITY, dtype=np.int64)
        active = np.zeros(shard.nv, dtype=bool)
        if shard.nv and len(self.seeds):
            pos = np.searchsorted(shard.vertex_ids, self.seeds)
            m = (pos < shard.nv) & (
                shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == self.seeds
            )
            values[pos[m]] = 0
            active[pos[m]] = True
        return {"values": values, "active": active}

    def signal(self, shard, state):
        v = state["values"]
        return np.where(v < INT_IDENTITY, v + 1, INT_IDENTITY)

    def apply(self, shard, state, agg, N):
        new = np.minimum(state["values"], agg)
        changed = new < state["values"]
        state["values"] = new
        state["active"] = changed
        n = int(changed.sum())
        return {"delta": float(n), "changed": n, "active": n}


class SSSP(VertexProgram):
    """Weighted single-source shortest paths in the tropical (min, +)
    semiring: each superstep relaxes every out-edge of the frontier with
    msg = dist(u) + w(e), min-combined at the receiver (frontier
    Bellman-Ford — the standard label-correcting distributed SSSP).
    Non-negative weights only. identity = +inf absorbs both the frontier
    mask and the per-edge add."""

    combine = "min"
    identity = np.inf
    dtype = np.float64
    frontier_only = True
    use_weights = True
    weight_op = "add"
    stale_mirror_safe = True  # label-correcting min relaxation: messages
    # carry candidate distances, so a delayed delivery can only delay
    # convergence (and the 2-consecutive-quiet stop waits it out)

    def __init__(self, seeds):
        self.seeds = np.asarray(
            sorted(set(int(s) for s in seeds)), dtype=np.int64
        )
        if not len(self.seeds):
            raise ValueError("SSSP needs a non-empty seed set")

    def init_state(self, shard, N):
        values = np.full(shard.nv, np.inf)
        active = np.zeros(shard.nv, dtype=bool)
        if shard.nv and len(self.seeds):
            pos = np.searchsorted(shard.vertex_ids, self.seeds)
            m = (pos < shard.nv) & (
                shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == self.seeds
            )
            values[pos[m]] = 0.0
            active[pos[m]] = True
        return {"values": values, "active": active}

    def signal(self, shard, state):
        return state["values"]  # the engine adds w(e) per edge

    def apply(self, shard, state, agg, N):
        new = np.minimum(state["values"], agg)
        changed = new < state["values"]
        state["values"] = new
        state["active"] = changed
        n = int(changed.sum())
        return {"delta": float(n), "changed": n, "active": n}


class MultiSourceBFS(VertexProgram):
    """K simultaneous BFS floods (one per landmark/seed) — ``dist`` is an
    (nv, K) column and messages are length-K vectors of dist+1 candidates
    under elementwise min (``value_dim = K``). One graph sweep computes
    every per-landmark hop distance: the standard landmark-distance
    featurization, and the primitive behind K-sweep pseudo-diameter.
    Per-column math is identical to :class:`BFS`; columns whose flood
    finished simply stop contributing (identity).

    ``weighted=True`` composes with the tropical semiring: floods carry
    weighted distances (per-edge msg = dist + w, identity +inf) — K
    simultaneous SSSPs, i.e. weighted landmark distances."""

    combine = "min"
    identity = INT_IDENTITY
    dtype = np.int64
    frontier_only = True
    stale_mirror_safe = True  # same value-carrying min flood as BFS

    def __init__(self, seeds, weighted: bool = False):
        self.seeds = np.asarray(
            sorted(set(int(s) for s in seeds)), dtype=np.int64
        )
        if not len(self.seeds):
            raise ValueError("multi-source BFS needs a non-empty seed list")
        self.value_dim = len(self.seeds)
        self.weighted = weighted
        if weighted:
            self.dtype = np.float64
            self.identity = np.inf
            self.use_weights = True
            self.weight_op = "add"

    def init_state(self, shard, N):
        K = self.value_dim
        dist = np.full((shard.nv, K), self.identity, dtype=self.dtype)
        changed = np.zeros((shard.nv, K), dtype=bool)
        if shard.nv:
            pos = np.searchsorted(shard.vertex_ids, self.seeds)
            m = (pos < shard.nv) & (
                shard.vertex_ids[np.minimum(pos, shard.nv - 1)] == self.seeds
            )
            cols = np.arange(K)
            dist[pos[m], cols[m]] = 0
            changed[pos[m], cols[m]] = True
        return {
            "values": dist,
            "changed_cols": changed,
            "active": changed.any(axis=1),
        }

    def signal(self, shard, state):
        # only columns that improved last round scatter (per-column
        # frontier — the scalar active bit can't distinguish which of a
        # vertex's K floods moved)
        v = state["values"]
        if self.weighted:
            # the engine adds w(e) per edge; inf marks inactive columns
            return np.where(state["changed_cols"], v, np.inf)
        return np.where(
            state["changed_cols"] & (v < INT_IDENTITY), v + 1, INT_IDENTITY
        )

    def apply(self, shard, state, agg, N):
        new = np.minimum(state["values"], agg)
        changed = new < state["values"]
        state["values"] = new
        state["changed_cols"] = changed
        state["active"] = changed.any(axis=1)
        n = int(changed.sum())
        return {"delta": float(n), "changed": n, "active": n}

    def state_columns(self):
        return ["values", "changed_cols", "active"]


class KCorePeel(VertexProgram):
    """A9 (libgraph-algs/k_core.cpp — compute_kcore): iterative peeling on
    the symmetrized graph. Phase k removes vertices with residual degree
    < k until stable; removed vertices get coreness k-1. The driver bumps
    ``k`` via ``on_event`` when a phase stabilizes (E11's scheduling need is
    expressed as iteration structure, SURVEY.md §2.1)."""

    combine = "sum"
    identity = 0.0
    frontier_only = True

    def init_state(self, shard, N):
        deg = shard.out_degree.astype(np.float64)  # symmetrized: out == degree
        k = 1
        removing = deg < k
        core = np.zeros(shard.nv, dtype=np.int64)
        core[removing] = k - 1
        return {
            "values": core,  # coreness (final output)
            "deg": deg,
            "alive": ~removing,
            "active": removing,  # the set scattering -1s this superstep
            "k": k,
        }

    def signal(self, shard, state):
        return np.ones(shard.nv)

    def apply(self, shard, state, agg, N):
        k = state["k"]
        alive = state["alive"]
        state["deg"] = state["deg"] - np.where(alive, agg, 0.0)
        newly = alive & (state["deg"] < k)
        state["values"][newly] = k - 1
        alive &= ~newly
        state["active"] = newly
        n = int(newly.sum())
        return {
            "delta": float(n),
            "changed": n,
            "active": n,
            "alive": int(alive.sum()),
        }

    def on_event(self, shard, state, payload):
        """Phase transition: raise k, immediately peel now-underdegree
        vertices (no messages needed for the first wave)."""
        k = int(payload["k"])
        state["k"] = k
        alive = state["alive"]
        newly = alive & (state["deg"] < k)
        state["values"][newly] = k - 1
        alive &= ~newly
        state["active"] = newly
        return {"changed": int(newly.sum()), "alive": int(alive.sum())}

    def state_columns(self):
        return ["values", "deg", "alive", "active"]

    def scalar_state_keys(self):
        # the phase counter must survive resume: re-peeling with k=1
        # against already-decremented residual degrees assigns wrong
        # coreness values
        return ["k"]


class OnionPeel(KCorePeel):
    """Onion decomposition (Hébert-Dufresne, Grochow & Allard 2016) on the
    A9 peeling engine: identical peel schedule to :class:`KCorePeel`, but
    each vertex also records the REMOVAL WAVE it was peeled in — the
    synchronous rounds of the peel are exactly the onion layers, a
    strictly finer structural signature than coreness (core = which shell,
    layer = how deep inside it). Wave counters live per shard and stay in
    lockstep because the engine invokes ``apply`` on EVERY shard each
    superstep and ``on_event`` broadcasts to every shard — both bump the
    counter unconditionally, removals or not; waves that removed nothing
    anywhere are simply absent from the output and collapse under the
    dense-rank in :func:`flashray.algorithms.onion_layers`. (coreness,
    wave) pack into one int64 value (core << 32 | wave; both < 2^31)."""

    def init_state(self, shard, N):
        st = super().init_state(shard, N)
        st["wave"] = 1
        enc = np.zeros(shard.nv, dtype=np.int64)
        removed = ~st["alive"]
        enc[removed] = np.int64(1)  # core 0 << 32 | wave 1
        st["values"] = enc
        return st

    def apply(self, shard, state, agg, N):
        state["wave"] += 1
        k = state["k"]
        alive = state["alive"]
        state["deg"] = state["deg"] - np.where(alive, agg, 0.0)
        newly = alive & (state["deg"] < k)
        state["values"][newly] = (np.int64(k - 1) << np.int64(32)) | np.int64(
            state["wave"]
        )
        alive &= ~newly
        state["active"] = newly
        n = int(newly.sum())
        return {
            "delta": float(n),
            "changed": n,
            "active": n,
            "alive": int(alive.sum()),
        }

    def on_event(self, shard, state, payload):
        state["wave"] += 1
        k = int(payload["k"])
        state["k"] = k
        alive = state["alive"]
        newly = alive & (state["deg"] < k)
        state["values"][newly] = (np.int64(k - 1) << np.int64(32)) | np.int64(
            state["wave"]
        )
        alive &= ~newly
        state["active"] = newly
        return {"changed": int(newly.sum()), "alive": int(alive.sum())}

    def scalar_state_keys(self):
        return ["k", "wave"]


class HyperBallProgram(VertexProgram):
    """HyperBall (Boldi & Vigna 2013-14) on the superstep engine: each
    vertex's state is a 2^p-register HyperLogLog sketch of its ball
    B_t(v); one superstep max-merges every in-neighbor's registers
    (``value_dim = 2^p``, elementwise-max combine — vector-valued state
    through the standard exchange, SURVEY.md §2.1 E6).

    Direction: the engine scatters src→dst, so balls grow along IN-edges
    of the loaded graph. Build the graph from REVERSED edges for
    out-ball semantics, or use a symmetrized graph (where both agree) —
    :func:`flashray.hyperball.hyperball_engine` handles this.

    Registers are the HLL sketch of the exact ball (same sha256 hashes
    and estimator as :mod:`flashray.datapipe.sketches` and the SQL
    oracle), so estimates match a sketch of the BFS ball to float
    rounding.

    NOT ``stale_mirror_safe``: harmonic centrality divides each ball
    increment by its arrival round, so a one-superstep-late mirror
    delivery changes the result — split graphs take two-phase rounds.
    """

    combine = "max"
    identity = 0
    dtype = np.uint8
    frontier_only = True
    output_columns = ["harmonic"]

    def __init__(self, p: int = 8):
        self.p = p
        self.value_dim = 1 << p

    def init_state(self, shard, N):
        from flashray.datapipe.sketches import (
            _bit_length_u64,
            _sha_u64,
            hll_estimate_rows,
        )

        m = self.value_dim
        regs = np.zeros((shard.nv, m), dtype=np.uint8)
        if shard.nv:
            # B_0(v) = {v}: one registered element per vertex, hashed
            # exactly like sketches.hll_partial / the SQL oracle
            h = _sha_u64([str(int(v)) for v in shard.vertex_ids])
            q = 64 - self.p
            idx = (h >> np.uint64(q)).astype(np.int64)
            rem = h & np.uint64((1 << q) - 1)
            rank = (q + 1 - _bit_length_u64(rem)).astype(np.uint8)
            regs[np.arange(shard.nv), idx] = rank
        return {
            "values": hll_estimate_rows(regs) if shard.nv else np.zeros(0),
            "regs": regs,
            "harmonic": np.zeros(shard.nv),
            "active": np.ones(shard.nv, dtype=bool),
            "t": 1,
        }

    def signal(self, shard, state):
        return state["regs"]

    def apply(self, shard, state, agg, N):
        from flashray.datapipe.sketches import hll_estimate_rows

        t = state["t"]
        merged = np.maximum(state["regs"], agg)
        changed = (merged != state["regs"]).any(axis=1)
        n = int(changed.sum())
        if n:
            state["regs"] = merged
            est_new = state["values"].copy()
            est_new[changed] = hll_estimate_rows(merged[changed])
            inc = np.maximum(est_new - state["values"], 0.0) / t
            state["harmonic"] = state["harmonic"] + np.where(changed, inc, 0.0)
            state["values"] = est_new
        state["active"] = changed
        state["t"] = t + 1
        return {
            "delta": float(n),
            "changed": n,
            "active": n,
            # Σ_v |B_t(v)| partial — summed across partitions this is the
            # neighborhood function N(t) (ANF / HyperBall's output curve)
            "ball_sum": float(state["values"].sum()),
        }

    def on_event(self, shard, state, payload):
        if payload.get("op") == "ball_sum":
            return {"ball_sum": float(state["values"].sum())}
        return {}

    def state_columns(self):
        return ["values", "regs", "harmonic", "active"]

    def scalar_state_keys(self):
        # the round counter weights harmonic increments (1/t): a resume
        # that restarted at t=1 would overweight late arrivals
        return ["t"]


class DeltaPageRank(VertexProgram):
    """A2 (libgraph-algs/page_rank.cpp — compute_pagerank2): push/delta
    PageRank. Vertices accumulate incoming delta-mass; only vertices whose
    pending delta exceeds ``tol`` push ``d * delta / outdeg`` onward.
    Converges to the same fixpoint as :class:`PageRank`; the late-iteration
    frontier shrinks, so edges processed per superstep drops (sparse mode)."""

    combine = "sum"
    identity = 0.0
    frontier_only = True
    stale_mirror_safe = True  # each pending delta is scattered exactly once
    # (mirror edges one superstep later); sums are commutative, and the
    # engine's 2-consecutive-quiet stop guarantees final delivery. Resume
    # replays the exact in-flight mirror (Engine.checkpoint mirror.npy)

    def __init__(self, damping: float = 0.85, tol: float = 1e-9):
        self.damping = damping
        self.tol = tol

    def init_state(self, shard, N):
        base = (1.0 - self.damping) / max(N, 1)
        return {
            "values": np.full(shard.nv, base),
            "pending": np.full(shard.nv, base),  # mass not yet pushed
            "active": np.ones(shard.nv, dtype=bool),
        }

    def signal(self, shard, state):
        outd = np.maximum(shard.out_degree, 1)
        return np.where(
            shard.out_degree > 0,
            self.damping * state["pending"] / outd,
            0.0,
        )

    def apply(self, shard, state, agg, N):
        # pushed mass is now reflected downstream; absorb incoming deltas
        pushed = state["active"]
        state["pending"] = np.where(pushed, 0.0, state["pending"]) + agg
        state["values"] = state["values"] + agg
        # dangling vertices absorb mass terminally (matches pull-PR's
        # no-dangling-redistribution semantics)
        state["pending"][shard.out_degree == 0] = 0.0
        nxt = np.abs(state["pending"]) > self.tol
        state["active"] = nxt
        n = int(nxt.sum())
        return {
            "delta": float(np.abs(state["pending"]).sum()),
            "changed": n,
            "active": n,
        }

    def state_columns(self):
        return ["values", "pending", "active"]


class DAGLevels(VertexProgram):
    """Topological level / longest-path depth on a DAG (SURVEY §2.2
    A-series complement — the critical-path stage index dependency and
    curriculum schedulers run on after :mod:`flashray.scc`'s
    condensation): ``level(v) = 0`` for in-degree-0 vertices, else
    ``1 + max over in-neighbors`` — the length of the longest path
    ending at v. Max-combine of ``level + 1`` along out-edges; on a DAG
    the fixpoint arrives within longest-path-length supersteps (every
    vertex seeds at 0 and levels only grow). Cyclic input never
    converges — the :func:`flashray.algorithms.dag_levels` wrapper
    raises at the iteration cap; run SCC condensation first for
    general graphs.

    ``stale_mirror_safe``: levels are monotone under max — a
    one-superstep-late mirror delivery only delays convergence."""

    combine = "max"
    identity = 0  # real messages are level+1 >= 1; max(level, 0) = level
    dtype = np.int64
    frontier_only = True
    stale_mirror_safe = True

    def init_state(self, shard, N):
        return {
            "values": np.zeros(shard.nv, dtype=np.int64),
            "active": np.ones(shard.nv, dtype=bool),
        }

    def signal(self, shard, state):
        return state["values"] + 1

    def apply(self, shard, state, agg, N):
        new = np.maximum(state["values"], agg)
        changed = new > state["values"]
        state["values"] = new
        state["active"] = changed
        n = int(changed.sum())
        return {"delta": float(n), "changed": n, "active": n}
