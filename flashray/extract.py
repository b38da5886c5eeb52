"""Transcript → edge-table extraction (the rebuild's ``el2fg``).

Reference analogue: ``flash-graph/utils.cpp`` — ``construct_graph`` /
``utils/el2fg.cpp`` (SURVEY.md §2.3 S1): parse raw input, emit edges, sort &
dedup, build the partitioned graph image. Here the raw input is the
transcript table (BASELINE.json input_hint) and all stages are Ray Data.

Edge rules (FIXTURES.md §2):

- **reply**: turn (conv, t-1) → (conv, t) for consecutive turns. Because
  turn-vertex ids are *computed* from (conv_id, turn_idx) (flashray.ids) and
  turn_idx is dense per conversation (schema invariant), the edge is derived
  from the *later* row alone — extraction is stateless per batch: no sort,
  no groupby, no cross-batch state. (A transcript source with sparse
  turn_idx would need a per-conv sort + shift first; see
  :func:`extract_edges_sorted` note.)
- **tool**: turn → tool vertex for rows with tool IS NOT NULL.
- **role**: turn → role vertex for every turn.

Exact dedup of (src, dst, etype) into ``weight`` (count) + min-ts is a
separate grouped aggregate — SURVEY.md §2.4.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Min, Sum

from flashray import ids
from flashray.schema import EDGE_SCHEMA, TRANSCRIPT_SCHEMA, cast_to

ETYPES = ("reply", "tool", "role")


def extract_edges_batch(batch: pa.Table) -> pa.Table:
    """Vectorized per-batch extractor: transcript rows → raw directed edges
    (int64 stable-hash vertex ids, weight=1 rows, pre-dedup)."""
    conv = batch["conv_id"].to_numpy(zero_copy_only=False)
    t = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    role = batch["role"].to_numpy(zero_copy_only=False)
    tool = batch["tool"].to_numpy(zero_copy_only=False)
    ts = batch["ts"].to_numpy(zero_copy_only=False)

    ch = ids.conv_hashes(conv)
    turn_v = ids.turn_vertex_ids_from_hashes(ch, t)

    srcs, dsts, etypes, tss = [], [], [], []

    # reply edges: from the later turn's row (t > 0)
    m = t > 0
    if m.any():
        srcs.append(ids.turn_vertex_ids_from_hashes(ch[m], t[m] - 1))
        dsts.append(turn_v[m])
        etypes.append(np.full(int(m.sum()), "reply", dtype=object))
        tss.append(ts[m])

    # tool edges
    m = np.asarray([x is not None for x in tool], dtype=bool)
    if m.any():
        srcs.append(turn_v[m])
        dsts.append(ids.id64_array(np.char.add("tool:", tool[m].astype("U32"))))
        etypes.append(np.full(int(m.sum()), "tool", dtype=object))
        tss.append(ts[m])

    # role edges (every turn)
    srcs.append(turn_v)
    dsts.append(ids.id64_array(np.char.add("role:", role.astype("U32"))))
    etypes.append(np.full(len(role), "role", dtype=object))
    tss.append(ts)

    src = np.concatenate(srcs)
    out = pa.Table.from_arrays(
        [
            pa.array(src),
            pa.array(np.concatenate(dsts)),
            pa.array(np.concatenate(etypes), type=pa.string()),
            pa.array(np.ones(len(src))),
            pa.array(np.concatenate(tss), type=pa.timestamp("us")),
        ],
        schema=EDGE_SCHEMA,
    )
    return out


def extract_edges_keys_batch(batch: pa.Table) -> pa.Table:
    """Oracle-friendly variant: string vertex keys instead of int64 hashes
    (``turn:<conv>:<t>`` / ``tool:<name>`` / ``role:<name>``), so the DuckDB
    oracle can reproduce them with string concatenation."""
    conv = batch["conv_id"].to_numpy(zero_copy_only=False).astype("U32")
    t = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    role = batch["role"].to_numpy(zero_copy_only=False)
    tool = batch["tool"].to_numpy(zero_copy_only=False)

    turn_key = np.char.add(
        np.char.add(np.char.add("turn:", conv), ":"), t.astype("U10")
    )

    srcs, dsts, etypes = [], [], []
    m = t > 0
    if m.any():
        prev_key = np.char.add(
            np.char.add(np.char.add("turn:", conv[m]), ":"), (t[m] - 1).astype("U10")
        )
        srcs.append(prev_key.astype(object))
        dsts.append(turn_key[m].astype(object))
        etypes.append(np.full(int(m.sum()), "reply", dtype=object))
    m = np.asarray([x is not None for x in tool], dtype=bool)
    if m.any():
        srcs.append(turn_key[m].astype(object))
        dsts.append(np.char.add("tool:", tool[m].astype("U32")).astype(object))
        etypes.append(np.full(int(m.sum()), "tool", dtype=object))
    srcs.append(turn_key.astype(object))
    dsts.append(np.char.add("role:", role.astype("U32")).astype(object))
    etypes.append(np.full(len(role), "role", dtype=object))

    return pa.Table.from_arrays(
        [
            pa.array(np.concatenate(srcs), type=pa.string()),
            pa.array(np.concatenate(dsts), type=pa.string()),
            pa.array(np.concatenate(etypes), type=pa.string()),
        ],
        names=["src_key", "dst_key", "etype"],
    )


def extract_edges(
    transcripts: ray.data.Dataset,
    *,
    etypes: tuple[str, ...] = ETYPES,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Raw (pre-dedup) edge Dataset from a transcript Dataset."""
    ds = transcripts.map_batches(
        extract_edges_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    if set(etypes) != set(ETYPES):
        keep = set(etypes)
        ds = ds.map_batches(
            lambda b: b.filter(pc.is_in(b["etype"], pa.array(sorted(keep)))),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return ds


def extract_conv_edges(
    transcripts: ray.data.Dataset, *, batch_size: int = 65536
) -> ray.data.Dataset:
    """Conversation-membership edges: turn → conv vertex (``conv:<id>``,
    id = the conversation hash that also seeds turn-vertex ids). Unioned
    with reply edges this yields a graph with one triangle per adjacent
    turn pair — used by the driver's closed-form triangle oracle."""

    def batch_fn(batch: pa.Table) -> pa.Table:
        conv = batch["conv_id"].to_numpy(zero_copy_only=False)
        t = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        ch = ids.conv_hashes(conv)
        turn_v = ids.turn_vertex_ids_from_hashes(ch, t)
        return pa.Table.from_arrays(
            [
                pa.array(turn_v),
                pa.array(ch.astype(np.int64)),
                pa.array(np.full(len(t), "conv", dtype=object), type=pa.string()),
                pa.array(np.ones(len(t))),
                pa.array(ts, type=pa.timestamp("us")),
            ],
            schema=EDGE_SCHEMA,
        )

    return transcripts.map_batches(
        batch_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def extract_edges_sorted(
    transcripts: ray.data.Dataset,
    *,
    etypes: tuple[str, ...] = ETYPES,
) -> ray.data.Dataset:
    """Reply-edge extraction for transcripts with SPARSE / gapped turn_idx
    (general sources; the dense-index arithmetic of :func:`extract_edges`
    does not apply). Per-conversation sort + shift inside a ``groupby`` —
    conversations are small, so a group always fits one task (stated
    ordering assumption, https://docs.ray.io/en/latest/data/transforming-data.html)."""
    import pandas as pd

    def per_conv(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        conv = g["conv_id"].iloc[0]
        ch = ids.conv_hashes([conv])[0]
        tv = ids.turn_vertex_ids_from_hashes(
            np.full(len(g), ch), g["turn_idx"].to_numpy()
        )
        rows = []
        if "reply" in etypes and len(g) > 1:
            rows.append(
                pd.DataFrame(
                    {
                        "src": tv[:-1],
                        "dst": tv[1:],
                        "etype": "reply",
                        "weight": 1.0,
                        "ts": g["ts"].to_numpy()[1:],
                    }
                )
            )
        if "tool" in etypes:
            m = g["tool"].notna().to_numpy()
            if m.any():
                rows.append(
                    pd.DataFrame(
                        {
                            "src": tv[m],
                            "dst": ids.id64_array(
                                np.char.add(
                                    "tool:", g["tool"].to_numpy()[m].astype("U32")
                                )
                            ),
                            "etype": "tool",
                            "weight": 1.0,
                            "ts": g["ts"].to_numpy()[m],
                        }
                    )
                )
        if "role" in etypes:
            rows.append(
                pd.DataFrame(
                    {
                        "src": tv,
                        "dst": ids.id64_array(
                            np.char.add("role:", g["role"].to_numpy().astype("U32"))
                        ),
                        "etype": "role",
                        "weight": 1.0,
                        "ts": g["ts"].to_numpy(),
                    }
                )
            )
        if not rows:
            return pd.DataFrame(
                {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64"),
                 "etype": pd.Series(dtype="str"), "weight": pd.Series(dtype="float64"),
                 "ts": pd.Series(dtype="datetime64[us]")}
            )
        return pd.concat(rows, ignore_index=True)

    # natural key: `per_conv` walks one conversation's turns in order
    return transcripts.groupby("conv_id").map_groups(
        per_conv, batch_format="pandas"
    )


def dedup_edges(raw_edges: ray.data.Dataset) -> ray.data.Dataset:
    """Exact dedup: (src, dst, etype) → weight = sum, ts = min(ts).

    One bucket shuffle keyed on hash(src, dst) + a vectorized pandas
    aggregate per bucket (joins.bucket_group_agg): edge keys are
    near-unique, where Ray's per-group aggregate overhead is pathological
    (measured 10x slower). Map-side combine (SURVEY.md §2.1 E7) is
    inherent: each bucket holds every copy of its keys."""
    from flashray.joins import bucket_group_agg

    out = bucket_group_agg(
        raw_edges,
        ["src", "dst", "etype"],
        {"weight": ("weight", "sum"), "ts": ("ts", "min")},
        hash_keys=["src", "dst"],
    )
    return out.map_batches(
        lambda b: cast_to(b, EDGE_SCHEMA),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def normalize_transcripts(transcripts: ray.data.Dataset) -> ray.data.Dataset:
    """Normalized transcript view: schema-validated, stable
    (conv_id, turn_idx) ordering, rows otherwise untouched.

    This is the per-row invariant surface (BASELINE.json input_hint):
    per-turn text equality under stable turn ordering — the extraction stage
    reads and re-emits turns unmodified."""

    def validate(batch: pa.Table) -> pa.Table:
        return cast_to(batch, TRANSCRIPT_SCHEMA)

    return transcripts.map_batches(
        validate, batch_format="pyarrow", zero_copy_batch=True
    ).sort(["conv_id", "turn_idx"])
