"""``wd-pool``: planning pooled workspaces (WD) from an offline benchmark DB.

The set-up writes a benchmark file DB for the set's networks (paper
section III-D) before anything is timed, and each process loads it.  One
operation WD-plans every (network, pool) pair of a fixed set on fresh
``UcudnnHandle`` objects over that DB, so every benchmark lookup hits, and
then runs steady iterations under the plans.  Pareto pruning and the ILP
do almost all the work; benchmarking none.  AlexNet's two pools are
pruning-bound; DenseNet-40's is ILP-bound (about 1 300 branch-and-bound
nodes).
"""

from __future__ import annotations

import random
import time

from common import (GPU, MIB, Rounds, RunResult, import_ms, lifecycle_argv,
                    median, peak_rss_mib, put_lifecycles)
from reference import (REL_TOL, check_configuration, close, kernel_front,
                       measure_table, merge_optimum, wr_optimum)

POLICY = "powerOfTwo"
#: ``(label, builder name, mini-batch, pool MiB)``.
PAIRS = (
    ("alexnet-b256@32MiB", "build_alexnet", 256, 32),
    ("alexnet-b256@64MiB", "build_alexnet", 256, 64),
    ("densenet40-b32@192MiB", "build_densenet40", 32, 192),
)
#: Pairs whose WD answer is checked against the exact Pareto merge.
MERGE_CHECKED = ("build_alexnet",)
#: Steady iterations of the whole set after each planning.
STEADY = 8


#: What a training process imports before it loads the benchmark DB.
IMPORTS = ("repro.core", "repro.frameworks.model_zoo")


def process_setup(args: list[str]) -> None:
    """Load the shared benchmark DB."""
    from repro.core import BenchmarkCache

    BenchmarkCache(args[args.index("--db") + 1])


def _geometries(builder: str, batch: int) -> dict:
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode
    from repro.frameworks import model_zoo

    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    net = getattr(model_zoo, builder)(batch=batch).setup(handle)
    return {g.cache_key(): g for g in net.conv_geometries().values()}


def write_db(path) -> None:
    """Benchmark every kernel of the set into a fresh file DB."""
    from repro.core import BatchSizePolicy, BenchmarkCache, benchmark_kernel
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode

    if path.exists():
        path.unlink()
    cache = BenchmarkCache(path)
    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    for _, builder, batch, _ in PAIRS:
        for g in _geometries(builder, batch).values():
            benchmark_kernel(handle, g, BatchSizePolicy.parse(POLICY), cache=cache)
    cache.save()


def _references() -> dict[str, dict[str, float]]:
    """Per pair: the exact WD optimum (merge-checked networks) and WR under
    the pool split evenly over the kernels."""
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode

    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    refs: dict[str, dict[str, float]] = {}
    tables: dict[str, dict] = {}
    for label, builder, batch, pool_mib in PAIRS:
        pool = pool_mib * MIB
        geoms = _geometries(builder, batch)
        for key, g in geoms.items():
            if key not in tables:
                tables[key] = measure_table(handle, g, POLICY)
        share = pool // len(geoms)
        refs[label] = {"even_wr": sum(
            wr_optimum(tables[k], g.n, share) for k, g in geoms.items())}
        if builder in MERGE_CHECKED:
            fronts = [kernel_front(tables[k], g.n, pool)
                      for k, g in geoms.items()]
            refs[label]["optimum"] = merge_optimum(fronts, pool)
    return refs


def _plan(pair, cache):
    from repro.core import BatchSizePolicy, Options, UcudnnHandle
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import ExecMode
    from repro.frameworks import model_zoo

    _, builder, batch, pool_mib = pair
    handle = UcudnnHandle(
        gpu=Gpu.create(GPU), mode=ExecMode.TIMING, cache=cache,
        options=Options(policy=BatchSizePolicy.parse(POLICY),
                        total_workspace=pool_mib * MIB),
    )
    net = getattr(model_zoo, builder)(batch=batch).setup(handle)
    # The first kernel's configuration triggers WD over every kernel the
    # net registered, exactly as its first convolution call would.
    handle.configuration_for(next(iter(net.conv_geometries().values())))
    return handle, net


def _check(result: RunResult, planned, pairs, refs) -> None:
    totals = {}
    for (handle, _), (label, builder, batch, pool_mib) in zip(planned, pairs):
        wd = handle.wd_result
        pool = pool_mib * MIB
        totals[label] = wd.total_time
        problems = [check_configuration(c, batch, pool)
                    for c in wd.assignments.values()]
        problems = [p for p in problems if p]
        if wd.total_workspace > pool:
            problems.append(f"total workspace {wd.total_workspace} over {pool}")
        ref = refs[label]
        if "optimum" in ref and not close(wd.total_time, ref["optimum"]):
            problems.append(f"WD time {wd.total_time!r} != merge optimum "
                            f"{ref['optimum']!r}")
        if wd.total_time > ref["even_wr"] * (1 + REL_TOL):
            problems.append("WD slower than WR with the pool split evenly")
        if problems:
            result.fail(f"{label}: {problems[0]}", wrong_output=True)
    small, large = totals[PAIRS[0][0]], totals[PAIRS[1][0]]
    if large > small * (1 + REL_TOL):
        result.fail("WD time rose as the AlexNet pool grew", wrong_output=True)


def run(seed: int, seconds: float, traced: bool, out) -> RunResult:
    result = RunResult()
    db = out / "wd-pool-bench-db.json"
    from layers import layer_metrics, wrap_program
    from tracer import Tracer

    write_db(db)
    from repro.core import BenchmarkCache

    pairs = list(PAIRS)
    random.Random(seed).shuffle(pairs)
    refs = _references()
    tracer = Tracer()
    if traced:
        wrap_program(tracer)
    with tracer.active(traced):
        t0 = time.perf_counter()
        cache = BenchmarkCache(db)
        load_s = time.perf_counter() - t0

    plan_s: dict[bool, list[float]] = {False: [], True: []}
    iter_s: list[float] = []
    busy = 0.0
    sim_ms = None
    rounds = Rounds(result, seconds, traced,
                    lifecycle_argv("wd-pool", ["--db", str(db)]))
    # Round 0 warms lazy imports and is neither timed nor traced.
    for number, tracing in rounds:
        result.attempted += 1
        try:
            with tracer.active(tracing):
                tracer.phase = "plan"
                t0 = time.perf_counter()
                with tracer.span("op"):
                    planned = [_plan(pair, cache) for pair in pairs]
                plan = time.perf_counter() - t0
                for _, net in planned:  # allocates the workspaces
                    net.forward()
                    net.backward()
                tracer.phase = "iter"
                clocks = [h.inner.gpu.clock for h, _ in planned]
                steady = []
                for _ in range(STEADY):
                    t1 = time.perf_counter()
                    with tracer.span("op"):
                        for _, net in planned:
                            net.forward()
                            net.backward()
                    steady.append(time.perf_counter() - t1)
        except Exception as exc:  # noqa: BLE001 -- a failed plan is counted
            result.fail(f"round {number}: {exc!r}")
            continue
        sim = sum(h.inner.gpu.clock - c for (h, _), c in zip(planned, clocks))
        sim = sim / STEADY * 1e3
        if sim_ms is None:
            sim_ms = sim
        elif sim != sim_ms:
            result.fail(f"simulated iteration {sim} != {sim_ms}", wrong_output=True)
        _check(result, planned, pairs, refs)
        if number > 0:
            plan_s[tracing].append(plan)
            if not tracing:
                iter_s.extend(steady)
                busy += plan + sum(steady)

    untimed = plan_s[False]
    if not (put_lifecycles(result, rounds.lives) and untimed and iter_s):
        result.fail("no complete measurement")
        return result
    result.put("peak_rss_mb", peak_rss_mib(), "MiB")
    result.show("peak_rss_mb", peak_rss_mib(), "MiB", 1)
    result.put("ops_per_s", len(untimed) / busy, "1/s")
    result.show("plans_per_s", len(untimed) / busy, "1/s", len(untimed))
    result.put_latencies(untimed, iter_s, ("plan_ms", "plan_tail_ms",
                                           "iter_ms", "iter_tail_ms"))
    result.show("sim_iter_ms", sim_ms, "ms", 1)
    result.report.update({"db_load_ms": load_s * 1e3,
                          "pairs": [p[0] for p in pairs]})
    if traced:
        ops = len(plan_s[True])
        iters = ops * STEADY
        per_op = lambda layer: tracer.total("plan", layer) * 1e3 / ops
        lookups = tracer.counted("plan", "cache.lookups")
        values = {
            "import.ms": median(import_ms(rounds.lives)),
            "frameworks.setup_ms": per_op("frameworks.setup"),
            "frameworks.pass_ms": tracer.total("iter", "frameworks.pass") * 1e3 / iters,
            "exec.iter_ms": tracer.total("iter", "exec") * 1e3 / iters,
            "exec.micro_batches": tracer.counted("iter", "exec.micro_batches") / iters,
            "cudnn.find_ms": per_op("cudnn.find"),
            "benchmarker.ms": per_op("benchmarker"),
            "benchmarker.units": tracer.counted("plan", "benchmarker.units") / ops,
            "cache.bench_hit_ratio": tracer.counted("plan", "cache.hits") / lookups,
            "cache.bench_lookups": lookups / ops,
            "cache.load_ms": tracer.total("setup", "cache.load") * 1e3,
            "pareto.ms": per_op("pareto"),
            "pareto.points": tracer.counted("plan", "pareto.points") / ops,
            "wd.solve_ms": per_op("wd"),
            "wd.ilp_nodes": tracer.counted("plan", "wd.ilp_nodes") / ops,
            "wd.variables": tracer.counted("plan", "wd.variables") / ops,
            "trace.overhead_pct": (median(plan_s[True]) / median(untimed) - 1) * 100,
            "trace.unattributed_pct":
                tracer.total("plan", "op") / sum(plan_s[True]) * 100,
        }
        result.metrics = layer_metrics(values)
        result.report["layers_ms_per_plan"] = {
            layer: s * 1e3 / ops for layer, s in tracer.layers("plan").items()}
    return result
