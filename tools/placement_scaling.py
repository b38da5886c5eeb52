"""Two-"node" placement-group scaling evidence.

The sandbox is one machine, so the north rule's N vs 4N CLUSTER criterion
is proxied two ways: bench.py --scaling varies num_cpus in fresh sessions;
THIS script additionally pins the engine's shard actors to placement-group
bundles — the exact layout a multi-node cluster would use (one bundle per
node, each owning an equal slice of the CSR shards) — and measures
throughput with the same per-"node" CPU budget at 1 vs 4 bundle-nodes.

What it demonstrates that --scaling can't: the superstep exchange runs
correctly and at full speed when every actor pair is FORCED into separate
scheduling domains (no co-residency assumptions anywhere in the exchange
path), and adding bundle-"nodes" with their own CPU budget scales
throughput, not just adding cores to one pool.

The measurement is ``bench._measure_placement_scaling``; this script builds
(or reuses) the graph and prints its result.

Usage: python tools/placement_scaling.py [--cpus-per-node 2] [--iters 12]
(``FLASHRAY_SCALE_TIER`` picks the transcript tier, default xxl).
Prints one JSON line: throughput at 1 node and 4 nodes + efficiency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus-per-node", type=int, default=2)
    ap.add_argument("--iters", type=int, default=12)
    args = ap.parse_args()

    import ray

    import bench

    # build (or reuse) the 61M-edge xxl graph via bench's cache
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    gpath = bench._xxl_graph_path(sym=True)
    ray.shutdown()

    scaling = bench._measure_placement_scaling(
        gpath, 1, 4, cpus_per_node=args.cpus_per_node, fixed_iters=args.iters
    )
    tier = os.environ.get("FLASHRAY_SCALE_TIER", "xxl")
    print(json.dumps({
        "metric": (
            "placement-pinned scaling: PageRank throughput, 1 vs 4 "
            f"placement-group bundle-nodes x {args.cpus_per_node} CPUs, "
            f"{args.iters} fixed supersteps, symmetrized {tier} graph"
        ),
        **scaling,
        "graph": gpath,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
