"""Format converters — SURVEY.md §2.3 S5 (the reference's ``el2fg`` /
``fg2el`` edge-list ↔ graph-image utilities, re-expressed as distributed
Ray Data text pipelines; no driver-side row loops).

Supported formats:

- **Edge-list text** (SNAP-style): one ``src dst [weight]`` per line,
  whitespace- or custom-delimited, ``#`` comments — the interchange format
  the reference's converters consumed.
- **Matrix Market coordinate** (``.mtx``, 1-based indices).
- **JSON-Lines / CSV transcripts** matching ``schema.TRANSCRIPT_SCHEMA``.

Everything streams: ``ray.data.read_text`` / ``read_json`` / ``read_csv``
produce block-parallel Datasets, parsing happens vectorized (pandas string
kernels) inside ``map_batches``, and writers emit one file per block so
output is resumable and never a single giant file.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from flashray import schema

# --------------------------------------------------------------------------
# Edge-list text
# --------------------------------------------------------------------------


def _parse_edge_lines(
    batch: pd.DataFrame, *, delimiter: str | None, comment: str, weighted: bool
) -> pd.DataFrame:
    """Vectorized edge-line parser: (src, dst[, weight]) of every
    non-blank, non-comment line that parses."""
    lines = batch["text"].astype(str).str.strip()
    keep = (lines.str.len() > 0) & ~lines.str.startswith(comment)
    lines = lines[keep]
    parts = lines.str.split(delimiter, expand=True)
    if parts.shape[1] < 2:
        parts = pd.DataFrame({0: pd.Series(dtype=str), 1: pd.Series(dtype=str)})
    out = pd.DataFrame(
        {
            "src": pd.to_numeric(parts[0], errors="coerce"),
            "dst": pd.to_numeric(parts[1], errors="coerce"),
        }
    )
    if weighted:
        w = (
            parts[2]
            if parts.shape[1] > 2
            else pd.Series(np.nan, index=parts.index)
        )
        out["weight"] = pd.to_numeric(w, errors="coerce").astype(np.float64)
    out = out.dropna(subset=["src", "dst"])
    out["src"] = out["src"].astype(np.int64)
    out["dst"] = out["dst"].astype(np.int64)
    if weighted:
        out["weight"] = out["weight"].fillna(1.0)
    return out


def read_edge_list(
    paths: str | list[str],
    *,
    delimiter: str | None = None,
    comment: str = "#",
    weighted: bool = False,
) -> ray.data.Dataset:
    """Distributed SNAP-style edge-list reader → Dataset of
    ``src:int64, dst:int64[, weight:float64]``.

    ``delimiter=None`` splits on any whitespace run (pandas semantics).
    Malformed lines are dropped (same tolerance as the reference's
    line-oriented converters)."""
    ds = ray.data.read_text(paths, file_extensions=None)
    return ds.map_batches(
        _parse_edge_lines,
        fn_kwargs={"delimiter": delimiter, "comment": comment, "weighted": weighted},
        batch_format="pandas",
    )


def to_edge_schema(
    ds: ray.data.Dataset, *, etype: str = "edge"
) -> ray.data.Dataset:
    """Lift a bare (src, dst[, weight]) Dataset to full EDGE_SCHEMA so it
    can feed :func:`flashray.build.build_graph` (el2fg parity)."""

    def lift(batch: pa.Table) -> pa.Table:
        n = len(batch)
        w = (
            batch["weight"].cast(pa.float64())
            if "weight" in batch.column_names
            else pa.array(np.ones(n), type=pa.float64())
        )
        return pa.Table.from_arrays(
            [
                batch["src"].cast(pa.int64()),
                batch["dst"].cast(pa.int64()),
                pa.array([etype] * n, type=pa.string()),
                w,
                pa.array(np.zeros(n, dtype="datetime64[us]")),
            ],
            schema=schema.EDGE_SCHEMA,
        )

    return ds.map_batches(lift, batch_format="pyarrow")


def write_edge_list(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    delimiter: str = " ",
    weighted: bool = False,
) -> None:
    """Write a (src, dst[, weight]) Dataset as delimiter-separated text,
    one file per block (fg2el parity; resumable, never one giant file)."""
    import pyarrow.csv as pacsv

    cols = ["src", "dst"] + (["weight"] if weighted else [])
    ds.select_columns(cols).write_csv(
        out_dir,
        arrow_csv_args_fn=lambda: {
            "write_options": pacsv.WriteOptions(
                include_header=False, delimiter=delimiter
            )
        },
    )


def edge_list_to_graph(paths, graph_path: str, *, delimiter=None,
                       comment="#", weighted=False, **build_kwargs):
    """el2fg in one call: text edge list → partitioned CSR graph layout."""
    from flashray.build import build_graph

    edges = to_edge_schema(
        read_edge_list(paths, delimiter=delimiter, comment=comment,
                       weighted=weighted)
    )
    return build_graph(edges, graph_path, **build_kwargs)


# --------------------------------------------------------------------------
# Matrix Market coordinate format
# --------------------------------------------------------------------------


def read_matrix_market(path: str) -> tuple[ray.data.Dataset, tuple[int, int, int]]:
    """Read a Matrix Market coordinate file → (edge Dataset 0-based,
    (nrows, ncols, nnz)).

    The header (``%`` comments + the dims line) is parsed driver-side from
    the file head; the body is read distributed. A data line textually
    identical to the dims line would also be dropped — irrelevant in
    practice (entries are 1-based coordinates bounded by the dims)."""
    with open(path, "rb") as f:
        head = f.read(65536).decode("utf-8", "replace")
    dims_line = None
    for line in head.splitlines():
        s = line.strip()
        if s and not s.startswith("%"):
            dims_line = s
            break
    if dims_line is None:
        raise ValueError(f"{path}: no Matrix Market size line in header")
    fields = dims_line.split()
    if len(fields) < 3:
        raise ValueError(f"{path}: bad size line {dims_line!r}")
    nrows, ncols, nnz = int(fields[0]), int(fields[1]), int(fields[2])

    def parse(batch: pd.DataFrame) -> pd.DataFrame:
        lines = batch["text"].astype(str).str.strip()
        keep = (
            (lines.str.len() > 0)
            & ~lines.str.startswith("%")
            & (lines != dims_line)
        )
        parts = lines[keep].str.split(expand=True)
        if len(parts) == 0 or parts.shape[1] < 2:
            return pd.DataFrame(
                {
                    "src": pd.Series(dtype=np.int64),
                    "dst": pd.Series(dtype=np.int64),
                    "weight": pd.Series(dtype=np.float64),
                }
            )
        w = (
            pd.to_numeric(parts[2], errors="coerce")
            if parts.shape[1] > 2
            else pd.Series(1.0, index=parts.index)
        )
        out = pd.DataFrame(
            {
                "src": pd.to_numeric(parts[0], errors="coerce"),
                "dst": pd.to_numeric(parts[1], errors="coerce"),
                "weight": w.fillna(1.0).astype(np.float64),
            }
        ).dropna(subset=["src", "dst"])
        out["src"] = out["src"].astype(np.int64) - 1
        out["dst"] = out["dst"].astype(np.int64) - 1
        return out

    ds = ray.data.read_text(path, file_extensions=None).map_batches(
        parse, batch_format="pandas"
    )
    return ds, (nrows, ncols, nnz)


# --------------------------------------------------------------------------
# Transcript JSONL / CSV
# --------------------------------------------------------------------------

_TS_FMT = "%Y-%m-%dT%H:%M:%S.%f"


def _cast_transcripts(batch: pa.Table) -> pa.Table:
    cols = []
    for f in schema.TRANSCRIPT_SCHEMA:
        col = batch[f.name]
        if f.name == "ts" and not pa.types.is_timestamp(col.type):
            ts = pd.to_datetime(col.to_pandas(), format="ISO8601", utc=False)
            col = pa.Array.from_pandas(ts).cast(pa.timestamp("us"))
        else:
            col = col.cast(f.type)
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=schema.TRANSCRIPT_SCHEMA)


def read_transcripts_jsonl(paths: str | list[str]) -> ray.data.Dataset:
    """JSON-Lines transcripts (ts as ISO-8601 string) → TRANSCRIPT_SCHEMA
    Dataset (per-turn text preserved byte-for-byte)."""
    ds = ray.data.read_json(paths, file_extensions=None, lines=True)
    return ds.map_batches(_cast_transcripts, batch_format="pyarrow")


def write_transcripts_jsonl(ds: ray.data.Dataset, out_dir: str) -> None:
    """TRANSCRIPT Dataset → JSON-Lines, ts serialized as ISO-8601 with
    microseconds (lossless round-trip; one file per block)."""

    def stringify_ts(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["ts"] = batch["ts"].dt.strftime(_TS_FMT)
        return batch

    ds.map_batches(stringify_ts, batch_format="pandas").write_json(out_dir)


def read_transcripts_csv(paths: str | list[str]) -> ray.data.Dataset:
    """CSV transcripts (header row, ts as ISO-8601) → TRANSCRIPT_SCHEMA
    Dataset. Empty strings for tool are read as nulls (CSV has no null
    literal — documented lossy corner of the format, matching the
    reference's text converters)."""
    import pyarrow.csv as pacsv

    ds = ray.data.read_csv(
        paths,
        file_extensions=None,
        convert_options=pacsv.ConvertOptions(
            column_types={
                "conv_id": pa.string(),
                "turn_idx": pa.int32(),
                "role": pa.string(),
                "text": pa.string(),
                "tool": pa.string(),
                "ts": pa.string(),
            },
            strings_can_be_null=True,
        ),
    )
    return ds.map_batches(_cast_transcripts, batch_format="pyarrow")


def write_transcripts_csv(ds: ray.data.Dataset, out_dir: str) -> None:
    def stringify_ts(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["ts"] = batch["ts"].dt.strftime(_TS_FMT)
        return batch

    ds.map_batches(stringify_ts, batch_format="pandas").write_csv(out_dir)


def rmat_edges(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 42,
) -> ray.data.Dataset:
    """Deterministic distributed R-MAT graph generator (Chakrabarti et
    al., SDM 2004; the Graph500 / FAST15-benchmark synthetic): 2^scale
    vertices, edge_factor·2^scale directed edges, recursive quadrant
    probabilities (a, b, c, d=1−a−b−c) giving the power-law skew real
    web/social graphs show. RNG-FREE: edge i's ``scale`` quadrant
    choices derive from ``splitmix64(seed, i, level)``, so the SAME
    (scale, seed) yields the SAME graph under any parallelism, block
    size, or resume — the property a cluster benchmark needs. Returns a
    lazy Dataset (src, dst int64); feed to ``build.build_graph``.

    Dataflow: ``ray.data.range(E)`` streams edge indices; per batch one
    vectorized loop over the ``scale`` recursion levels (each level ONE
    hash + compare over the whole batch — no per-edge Python). Self-loops
    and duplicates are kept (standard R-MAT; build_graph dedups)."""
    from flashray.ids import _splitmix64

    if not 0 < a + b + c < 1:
        raise ValueError("need a+b+c in (0,1); d = 1-a-b-c")
    n_edges = edge_factor << scale
    t_ab, t_abc = a + b, a + b + c
    seed_u = np.uint64(seed)
    C1 = np.uint64(0x9E3779B97F4A7C15)

    def gen(b_: pa.Table) -> pa.Table:
        i = b_["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        src = np.zeros(len(i), dtype=np.int64)
        dst = np.zeros(len(i), dtype=np.int64)
        with np.errstate(over="ignore"):
            base = _splitmix64(seed_u + C1 * (i + np.uint64(1)))
            for lvl in range(scale):
                h = _splitmix64(base ^ np.uint64(lvl + 1))
                u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
                right = u >= t_ab          # quadrants c, d -> src bit 1
                bottom = (u >= a) & (u < t_ab) | (u >= t_abc)  # b, d -> dst bit
                src = (src << 1) | right.astype(np.int64)
                dst = (dst << 1) | bottom.astype(np.int64)
        return pa.table({"src": src, "dst": dst})

    return ray.data.range(n_edges).map_batches(gen, batch_format="pyarrow")
