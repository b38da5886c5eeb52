"""flashray benchmark: CPU time and latency per query on two workloads,
with a traced run that breaks each query down into flashray's layers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run starts a fresh single-tenant Ray session (4 CPUs), builds the
workload's inputs from the seed (``setup_s``), makes one untimed warm-up
pass, then runs jobs (every query of the workload once, in order) until
``--seconds`` have passed and at least two jobs are done, and checks every
output against an independent reference. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer metrics. The metric names and units are those of
``BENCHMARK.json``. The last line of standard output is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20  # the largest workload holds well under this
# A raylet that stalls while mapping its object store fails ray.init after
# ~30 s; a fresh session usually starts.
RAY_INIT_ATTEMPTS = 3
MIN_JOBS = 2  # timed jobs per run, however long they take
IDLE_WINDOW_S = 1.0  # before each job, to measure the idle CPU rate
# Ray puts a unix socket at <temp>/session_<time>_<pid>/sockets/plasma_store,
# and a socket path may not exceed 107 bytes.
RAY_SOCKET_SUFFIX = 64


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class RssSampler:
    """Peak RSS of this driver and of the Ray worker processes (``ray::*``)
    it started, sampled on one background thread. ``take`` ends a window
    (one job) and records its peaks."""

    def __init__(self, interval: float = 0.25):
        import psutil

        self._me = psutil.Process()
        self._interval = interval
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._peak = (0, 0, 0)  # (driver + workers, driver, workers)
        self.windows: list[tuple[int, int, int]] = []

    def _sample(self) -> None:
        import psutil

        driver = self._me.memory_info().rss
        workers = 0
        for p in self._me.children(recursive=True):
            try:
                if p.cmdline()[0].startswith("ray::"):
                    workers += p.memory_info().rss
            except (psutil.NoSuchProcess, psutil.AccessDenied, IndexError):
                continue
        with self._lock:
            self._peak = tuple(
                max(a, b) for a, b in zip(self._peak, (driver + workers, driver, workers))
            )

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def take(self) -> None:
        self._sample()
        with self._lock:
            self.windows.append(self._peak)
            self._peak = (0, 0, 0)

    def median_mb(self, i: int) -> float:
        """Median over windows of peak ``i`` (0 total, 1 driver, 2 workers)."""
        return statistics.median(w[i] for w in self.windows) / 2**20

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def environment(workload, seed: int) -> dict:
    def sh(*cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=30, cwd=ROOT).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    import ray

    src = hashlib.sha256()
    for f in sorted((ROOT / "flashray").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode())
        src.update(f.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "num_cpus": ray.cluster_resources().get("CPU"),
        "nproc": sh("nproc"),
        "nproc_all": sh("nproc", "--all"),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "partitions": 32,
        "commit": sh("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "flashray_sha256": src.hexdigest(),
        "inputs": workload.inputs,
    }


class CpuClock:
    """CPU seconds of the whole machine from ``/proc/stat``: busy (user,
    nice, system, irq, softirq), stolen by the hypervisor, and all. Unlike
    per-process times it keeps the CPU of workers that have already exited;
    it also counts every other process on the machine, which the idle rate
    (:func:`idle_cpu_rate`) takes out."""

    TICK = os.sysconf("SC_CLK_TCK")

    @classmethod
    def read(cls) -> tuple[float, float, float]:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
        busy = f[0] + f[1] + f[2] + f[5] + f[6]
        return busy / cls.TICK, f[7] / cls.TICK, sum(f) / cls.TICK

    @classmethod
    def busy_s(cls) -> float:
        return cls.read()[0]


def idle_cpu_rate(window: float = IDLE_WINDOW_S) -> float:
    """Busy CPU seconds per second while no query runs: Ray's daemons, idle
    workers, the RSS sampler and whatever else the machine runs."""
    c0 = CpuClock.busy_s()
    time.sleep(window)
    return (CpuClock.busy_s() - c0) / window


def reap_children(timeout: float = 20.0) -> None:
    """Kill every process this one started that is still alive (what a
    failed ``ray.init`` or ``ray.shutdown`` leaves) and wait for each."""
    import psutil

    procs = psutil.Process().children(recursive=True)
    for p in procs:
        with contextlib.suppress(psutil.Error):
            p.kill()
    _, alive = psutil.wait_procs(procs, timeout=timeout)
    if alive:
        log(f"processes still alive after kill: {[p.pid for p in alive]}")


def start_ray() -> None:
    import logging

    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p
    )
    temp = ROOT / ".perfbench" / "ray"  # session logs; removed at exit
    kw = {}
    if len(str(temp)) + RAY_SOCKET_SUFFIX <= 107:
        temp.mkdir(parents=True, exist_ok=True)
        kw["_temp_dir"] = str(temp)
    else:
        log("checkout path too long for Ray sockets; Ray uses its default temp dir")
    for attempt in range(1, RAY_INIT_ATTEMPTS + 1):
        try:
            ray.init(
                address="local",
                num_cpus=NUM_CPUS,
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                log_to_driver=False,
                logging_level="ERROR",
                _system_config={
                    "idle_worker_killing_time_threshold_ms": 60_000,
                    # the memory monitor reads the shared host's memory and
                    # may kill a worker for another tenant's use of it
                    "memory_monitor_refresh_ms": 0,
                },
                **kw,
            )
            break
        except Exception:
            log(f"ray.init attempt {attempt} failed:\n{traceback.format_exc()}")
            ray.shutdown()
            reap_children()
            if attempt == RAY_INIT_ATTEMPTS:
                raise
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class Run:
    """Timed jobs of one workload; every query call is checked."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        # untraced jobs only: wall and net CPU seconds per query and per job
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.job_cpu: list[float] = []
        self.steal: list[float] = []  # stolen share of CPU time per job
        self.idle_rates: list[float] = []  # idle CPU s/s before each job
        self.job_walls = {False: [], True: []}  # traced? -> walls
        self.outputs: list[tuple[str, object]] = []
        self.attempted = self.failed = 0

    def job(self, traced: bool, index: int) -> None:
        """One job. An untraced job's CPU time is net of the idle rate
        measured just before it, so that Ray's background use, which grows
        with wall time on a slow or contended host, is not counted."""
        tr = self.tracer if traced else None
        if tr is not None:
            tr.job = index
        idle = 0.0
        if not traced:
            idle = idle_cpu_rate()
            self.idle_rates.append(idle)
        clock0 = CpuClock.read()
        t_job = time.perf_counter()
        for query, fn in self.w.job(tr):
            self.attempted += 1
            c0 = CpuClock.busy_s()
            t0 = time.perf_counter()
            try:
                if tr is not None:
                    with tr.span(f"query.{query}"):
                        out = fn()
                else:
                    out = fn()
            except Exception:
                self.failed += 1
                log(f"{query} raised:\n{traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t0
            cpu = CpuClock.busy_s() - c0 - idle * dt
            log(f"job {index} {query} {dt:.3f}s {cpu:.3f} cpu-s"
                f"{' traced' if traced else ''}")
            if not traced:
                self.latency[query].append(dt)
                self.cpu[query].append(cpu)
            self.outputs.append((query, out))
        wall = time.perf_counter() - t_job
        self.job_walls[traced].append(wall)
        if not traced:
            clock1 = CpuClock.read()
            self.job_cpu.append(clock1[0] - clock0[0] - idle * wall)
            self.steal.append(
                (clock1[1] - clock0[1]) / max(clock1[2] - clock0[2], 1e-9)
            )

    def check(self) -> None:
        """Check every collected output, then the set-up's own calls (one
        more attempted call, when the workload checks them)."""
        for query, out in self.outputs:
            if not self._passes(query, lambda: self.w.check(query, out)):
                self.failed += 1
        self.outputs = []
        ok = self._passes("set-up", self.w.check_setup)
        if ok is not None:
            self.attempted += 1
            self.failed += not ok

    @staticmethod
    def _passes(what: str, fn):
        try:
            ok = fn()
        except Exception:
            log(f"{what} check raised:\n{traceback.format_exc()}")
            return False
        if ok is False:
            log(f"{what}: output check failed")
        return ok


def gmean(values) -> float:
    # a net CPU time can only reach 0 through the idle-rate correction
    logs = [math.log(max(v, 1e-3)) for v in values]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def medians(samples: dict, queries) -> dict:
    return {q: statistics.median(samples[q]) for q in queries if samples[q]}


def end_to_end(run: Run, setup: tuple[float, float], rss: RssSampler) -> dict:
    """Every time is busy CPU seconds net of the idle rate; set-up's is net
    of the rate measured before the first job, when Ray has settled."""
    cpu, wall = setup
    return {
        "job_cpu_s": statistics.median(run.job_cpu),
        "query_cpu_gmean_s": gmean(medians(run.cpu, run.w.queries).values()),
        "setup_s": cpu - run.idle_rates[0] * wall,
        "peak_rss_mb": rss.median_mb(0),
        "pass_frac": (run.attempted - run.failed) / max(run.attempted, 1),
    }


def _sum(spans, attr=None) -> float:
    return sum(s.dur if attr is None else s.attrs.get(attr, 0) for s in spans)


def group_layers(tr, spans) -> dict:
    """Per-layer values from the spans of one traced job (or of set-up, or
    of the probes)."""
    from perfbench.trace import op_summary

    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def ops_under(name):
        ops = []
        for s in by[name]:
            ops += s.ops
            for d in tr.descendants(s):
                ops += d.ops
        return ops

    m: dict = {}
    if by["engine.init"]:
        m["engine.init_s"] = _sum(by["engine.init"])
        m["engine.actors"] = max(s.attrs["actors"] for s in by["engine.init"])
        m["engine.events"] = len(by["engine.event"])
    if by["engine.run"]:
        run_s = _sum(by["engine.run"])
        m["engine.run_s"] = run_s
        m["engine.edges_per_step_s"] = _sum(by["engine.run"], "messages") / run_s
    if by["engine.close"]:
        msgs = _sum(by["engine.close"], "messages")
        m["engine.supersteps"] = _sum(by["engine.close"], "supersteps")
        m["engine.messages"] = msgs
        m["engine.exchanged"] = _sum(by["engine.close"], "exchanged")
        m["engine.combine_ratio"] = m["engine.exchanged"] / msgs if msgs else 0.0
        m["engine.close_s"] = _sum(by["engine.close"])
    if by["engine.collect"]:
        m["engine.collect_s"] = _sum(by["engine.collect"])
    steps = sorted(s.dur for s in by["engine.step"])
    if len(steps) >= 2:
        m["engine.step_p50_s"] = statistics.median(steps)
        m["engine.step_p90_s"] = statistics.quantiles(steps, n=10)[-1]
    for s in by["engine.spawn_floor"]:
        m["engine.spawn_s"] = s.attrs["spawn_s"]
    for s in by["csr.probe"]:
        for k in ("read_s", "read_bytes", "build_s", "scatter_s", "scatter_bytes"):
            m[f"csr.{k}"] = s.attrs[k]
        m["programs.apply_s"] = s.attrs["apply_s"]

    for layer, name in (("triangles", "triangles.triangle_count"),
                        ("louvain", "louvain.louvain_communities")):
        if by[name]:
            for k, v in op_summary(ops_under(name)).items():
                m[f"{layer}.{k}"] = v
    if by["triangles.triangle_count"]:
        m["triangles.count"] = by["triangles.triangle_count"][-1].attrs["count"]
    if by["louvain.louvain_communities"]:
        m["louvain.communities"] = by["louvain.louvain_communities"][-1].attrs["communities"]
    if by["joins.bucket_group_agg"]:
        m["joins.group_agg_s"] = _sum(by["joins.bucket_group_agg"])
        m["joins.task_skew"] = op_summary(ops_under("joins.bucket_group_agg"))["task_skew"]
    if by["extract.extract_edges"]:
        m["extract.s"] = _sum(by["extract.extract_edges"])
        m["extract.rows"] = _sum(by["extract.extract_edges"], "rows")
    if by["build.build_graph"]:
        m["build.graph_s"] = _sum(by["build.build_graph"])
        for k in ("files", "bytes_written", "edges", "vertices", "split_vertices"):
            m[f"build.{k}"] = _sum(by["build.build_graph"], k)

    pairs = "dedup.candidate_pairs_minhash"
    if by[pairs]:
        ops = ops_under(pairs)
        band_rows = sum(o["rows"] for o in ops if "_band_rows" in o["name"])
        m["dedup.pairs_s"] = _sum(by[pairs])
        m["dedup.verify_udf_s"] = sum(o["udf_s"] for o in ops if "_bucket_pairs" in o["name"])
        m["dedup.task_skew"] = op_summary(ops)["task_skew"]
        m["dedup.pairs"] = _sum(by[pairs], "pairs")
        m["dedup.pairs_per_band_row"] = m["dedup.pairs"] / band_rows if band_rows else 0.0
    if by["dedup.duplicate_groups"]:
        m["dedup.groups_s"] = _sum(by["dedup.duplicate_groups"])
    if by["dedup.exact_dedup"]:
        m["dedup.exact_rows"] = _sum(by["dedup.exact_dedup"], "rows")

    cover = []
    for s in spans:
        if not s.name.startswith("query."):
            continue
        inner = [d for d in tr.descendants(s) if d.name.startswith("engine.")]
        covered = _sum(inner) if inner else _sum(tr.children(s))
        cover.append(covered / s.dur)
    if cover:
        m["trace.coverage_frac"] = min(cover)
    return m


def per_layer(run: Run, names: list[str], rss: RssSampler, setup_wall_s: float) -> dict:
    tr = run.tracer
    groups = defaultdict(list)
    for s in tr.spans:
        groups[s.job].append(s)
    values = defaultdict(list)
    for spans in groups.values():
        for k, v in group_layers(tr, spans).items():
            values[k].append(v)
    out = {k: statistics.median(v) for k, v in values.items()}
    latency = medians(run.latency, run.w.queries)
    for q, v in latency.items():
        out[f"query.{q}_s"] = v
    for q, v in medians(run.cpu, run.w.queries).items():
        out[f"query.{q}_cpu_s"] = v
    out["job_s"] = statistics.median(run.job_walls[False])
    out["setup_wall_s"] = setup_wall_s
    out["query_gmean_s"] = gmean(latency.values())
    out["host.steal_frac"] = statistics.median(run.steal)
    out["proc.driver_rss_mb"] = rss.median_mb(1)
    out["proc.workers_rss_mb"] = rss.median_mb(2)
    out["trace_overhead_frac"] = (
        statistics.median(run.job_walls[True]) / statistics.median(run.job_walls[False]) - 1
    )
    # a layer the workload does not touch measures 0
    return {n: float(out.get(n, 0.0)) for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "flashray" / "__init__.py").is_file():
        log(f"flashray sources not found under {ROOT}")
        return 2
    cpus = len(os.sched_getaffinity(0))
    if cpus < NUM_CPUS:
        log(f"needs {NUM_CPUS} CPUs, {cpus} available")
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    sys.path.insert(0, str(ROOT))
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    import ray

    phases = {}  # wall seconds of each phase of the run, for the report
    t_phase = time.perf_counter()

    def phase(name):
        nonlocal t_phase
        now = time.perf_counter()
        phases[name] = now - t_phase
        t_phase = now

    try:
        start_ray()
        phase("ray_start")
        w = WORKLOADS[args.workload](str(workdir), args.seed)
        tracer = Tracer() if args.trace else None
        run = Run(w, tracer)
        c0, t0 = CpuClock.busy_s(), time.perf_counter()
        if tracer is not None:
            tracer.job = "setup"
            with tracer.instrument():
                w.setup(tracer)
        else:
            w.setup()
        setup = (CpuClock.busy_s() - c0, time.perf_counter() - t0)  # (cpu, wall)
        phase("setup")
        w.warmup()
        phase("warmup")
        with RssSampler() as rss:
            t_end = time.perf_counter() + args.seconds
            i = 0
            while True:
                traced = bool(args.trace) and i % 2 == 1
                if traced:
                    with tracer.instrument():
                        run.job(True, i)
                else:
                    run.job(False, i)
                rss.take()
                i += 1
                if time.perf_counter() >= t_end and i >= MIN_JOBS:
                    break
            if tracer is not None:
                tracer.job = "probe"
                with tracer.instrument():
                    w.probe(tracer)
        phase("jobs")
        run.check()
        phase("check")
        e2e = end_to_end(run, setup, rss)
        env = environment(w, args.seed)
        if tracer is not None:
            metrics = per_layer(run, list(metric_units), rss, setup[1])
            tracer.write(str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = e2e
    finally:
        ray.shutdown()
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(out_dir / "ray", ignore_errors=True)
        phase("shutdown")

    samples = {q: len(v) for q, v in run.latency.items()}
    report = {
        "env": env,
        "samples": {"jobs": len(run.job_walls[False]),
                    "traced_jobs": len(run.job_walls[True]), "queries": samples},
        "job_s": run.job_walls[False],
        "latency_s": {f"{q}_s": v for q, v in medians(run.latency, w.queries).items()},
        "cpu_s": {f"{q}_cpu_s": v for q, v in medians(run.cpu, w.queries).items()},
        "steal_frac": run.steal,
        "idle_cpu_per_s": run.idle_rates,
        "setup_wall_s": setup[1],
        **e2e,
        "setup_parts_s": getattr(w, "setup_parts", None),
        "fail_frac": run.failed / max(run.attempted, 1),
        "phases_s": phases,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in metric_units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
