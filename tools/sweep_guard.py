"""CI-style budget guard for the driver's correctness sweep.

Round 2's CORRECTNESS json came back EMPTY because one oracle
(``ktruss_user``) blew the driver's time budget (~17 min of DuckDB for a
534-edge graph on the driver's build).  This script replicates the driver
protocol — run every ``queries()`` entry at sf0.01 AND its ``oracle_sql()``
in DuckDB, compare rows/schema/values — while timing the Ray side and the
oracle side SEPARATELY, and exits non-zero if

  * any single oracle takes      > --oracle-limit  (default 15 s)
  * any single Ray query takes   > --query-limit   (default 60 s)
  * the whole sweep takes        > --total-limit   (default 600 s)
  * any query is red (rows/schema/value mismatch or exception)

Usage:  python tools/sweep_guard.py [--sf /root/testdata/sf0.01]
                                    [--only name1,name2] [--skip-ray]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--oracle-limit", type=float, default=15.0)
    ap.add_argument("--query-limit", type=float, default=60.0)
    ap.add_argument("--total-limit", type=float, default=600.0)
    ap.add_argument("--only", default="")
    ap.add_argument(
        "--skip-ray", action="store_true",
        help="time the oracles only (no Ray session, no query execution)",
    )
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    import duckdb

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(args.sf, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    if not args.skip_ray:
        import ray
        from ray.data import DataContext

        if not ray.is_initialized():
            # the host's CPUs, at least the 4 every query family is tested at
            ray.init(
                address="local", num_cpus=max(4, os.cpu_count() or 1),
                include_dashboard=False, logging_level="ERROR",
            )
        DataContext.get_current().enable_progress_bars = False

    qs = entry.queries()
    oracles = entry.oracle_sql()
    only = {s for s in args.only.split(",") if s}
    t_all = time.time()
    rows = []
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        rec = {"name": name, "ray_sec": None, "oracle_sec": None,
               "match": None, "err": None}
        df = None
        if not args.skip_ray:
            t0 = time.time()
            try:
                res = fn(args.sf)
                df = res.to_pandas() if hasattr(res, "to_pandas") else res
                if not isinstance(df, pd.DataFrame):
                    df = pd.DataFrame(df)
                rec["ray_sec"] = round(time.time() - t0, 2)
            except Exception:
                rec["err"] = "ray: " + traceback.format_exc()[-400:]
                failures.append(name)
        if name in oracles:
            t0 = time.time()
            try:
                want = con.execute(oracles[name]).df()
                rec["oracle_sec"] = round(time.time() - t0, 2)
            except Exception:
                want = None
                rec["err"] = (rec["err"] or "") + " oracle: " + (
                    traceback.format_exc()[-400:]
                )
                failures.append(name)
            if df is not None and want is not None:
                a, b = _norm(df), _norm(want)
                ok = len(a) == len(b) and list(a.columns) == list(b.columns)
                if ok:
                    try:
                        pd.testing.assert_frame_equal(
                            a, b, check_dtype=False, check_exact=False,
                            rtol=0, atol=1e-9,
                        )
                    except AssertionError as ex:
                        ok = False
                        rec["err"] = "values: " + str(ex)[:200]
                else:
                    rec["err"] = (
                        f"rows {len(a)} vs {len(b)} / cols "
                        f"{list(a.columns)} vs {list(b.columns)}"[:300]
                    )
                rec["match"] = ok
                if not ok:
                    failures.append(name)
        over = []
        if rec["oracle_sec"] is not None and rec["oracle_sec"] > args.oracle_limit:
            over.append(f"ORACLE {rec['oracle_sec']}s > {args.oracle_limit}s")
        if rec["ray_sec"] is not None and rec["ray_sec"] > args.query_limit:
            over.append(f"RAY {rec['ray_sec']}s > {args.query_limit}s")
        if over:
            failures.append(name)
            rec["err"] = ((rec["err"] or "") + " " + "; ".join(over)).strip()
        rows.append(rec)
        print(
            f"{name:36s} ray={rec['ray_sec']} oracle={rec['oracle_sec']} "
            f"match={rec['match']}" + (f"  !! {rec['err']}" if rec["err"] else ""),
            flush=True,
        )

    total = time.time() - t_all
    n_green = sum(1 for r in rows if r["match"] is True)
    n_oracle = sum(1 for r in rows if r["oracle_sec"] is not None)
    summary = {
        "total_sec": round(total, 1),
        "queries": len(rows),
        "with_oracle": n_oracle,
        "green": n_green,
        "failures": sorted(set(failures)),
        "slowest_oracles": sorted(
            [(r["name"], r["oracle_sec"]) for r in rows if r["oracle_sec"]],
            key=lambda x: -x[1],
        )[:8],
        "slowest_ray": sorted(
            [(r["name"], r["ray_sec"]) for r in rows if r["ray_sec"]],
            key=lambda x: -x[1],
        )[:8],
    }
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"rows": rows, "summary": summary}, f, indent=1)
    if total > args.total_limit and not only:
        print(f"FAIL: total {total:.0f}s > {args.total_limit:.0f}s budget")
        return 1
    if failures:
        print(f"FAIL: {sorted(set(failures))}")
        return 1
    print("OK: sweep fits the budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
