"""``train-cold``: training processes starting up under per-layer limits (WR).

One operation cold-starts a fixed set of networks, each on a fresh
``UcudnnHandle`` with an empty ``BenchmarkCache`` (P100, TIMING mode,
64 MiB per layer): ``Net.setup``, then the first forward and backward pass,
which benchmarks every kernel and solves WR for it.  A few steady
iterations of the whole set follow.  Benchmarking and the simulated cuDNN
do most of the work; WR a little; Pareto pruning, WD, the service, the wire
and persistence none.
"""

from __future__ import annotations

import random
import time

from common import (GPU, MIB, Rounds, RunResult, import_ms, lifecycle_argv,
                    median, peak_rss_mib, put_lifecycles)
from reference import check_wr, measure_table, wr_reference

LIMIT = 64 * MIB
#: ``(label, builder name, mini-batch, policy)``: AlexNet's 15 unshared
#: shapes, ResNet-50's 159 kernels over 60 shapes, GoogLeNet's 147 small
#: kernels, and AlexNet again under the costly ``all`` policy.
NETWORKS = (
    ("alexnet-b256", "build_alexnet", 256, "powerOfTwo"),
    ("resnet50-b32", "build_resnet50", 32, "powerOfTwo"),
    ("googlenet-b32", "build_googlenet", 32, "powerOfTwo"),
    ("alexnet-b256-all", "build_alexnet", 256, "all"),
)
#: Steady iterations of the whole set after each cold start.
STEADY = 3


#: What a training process imports before its first network.
IMPORTS = ("repro.core", "repro.cudnn.device", "repro.frameworks.model_zoo")


def process_setup(args: list[str]) -> None:
    """Nothing beyond the imports: every start is cold."""


def _start(spec):
    from repro.core import BatchSizePolicy, BenchmarkCache, Options, UcudnnHandle
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import ExecMode
    from repro.frameworks import model_zoo

    _, builder, batch, policy = spec
    handle = UcudnnHandle(
        gpu=Gpu.create(GPU), mode=ExecMode.TIMING, cache=BenchmarkCache(),
        options=Options(policy=BatchSizePolicy.parse(policy),
                        workspace_limit=LIMIT),
    )
    net = getattr(model_zoo, builder)(batch=batch).setup(
        handle, workspace_limit=LIMIT)
    net.forward()
    net.backward()
    return handle, net


def _references(specs) -> dict[tuple[str, str], tuple[float, float]]:
    """Reference WR answers for every kernel of the set, by (kernel, policy)."""
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode
    from repro.frameworks import model_zoo

    refs = {}
    for _, builder, batch, policy in specs:
        handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
        net = getattr(model_zoo, builder)(batch=batch).setup(handle)
        for g in net.conv_geometries().values():
            key = (g.cache_key(), policy)
            if key not in refs:
                table = measure_table(handle, g, policy)
                refs[key] = wr_reference(table, g.n, LIMIT)
    return refs


def _check(result: RunResult, started, specs, refs) -> None:
    for (handle, _), spec in zip(started, specs):
        configs = handle.configurations()
        expected = {k for k, p in refs if p == spec[3]}
        if not configs:
            result.fail(f"{spec[0]}: no kernel planned", wrong_output=True)
        for g, config in configs.items():
            key = (g.cache_key(), spec[3])
            problem = (check_wr(config, g.n, LIMIT, refs[key])
                       if key[0] in expected else "kernel not in the network")
            if problem:
                result.fail(f"{spec[0]} {key[0]}: {problem}", wrong_output=True)
                return


def run(seed: int, seconds: float, traced: bool, out) -> RunResult:
    result = RunResult()
    from layers import layer_metrics, wrap_program
    from tracer import Tracer

    specs = list(NETWORKS)
    random.Random(seed).shuffle(specs)
    refs = _references(specs)
    tracer = Tracer()
    if traced:
        wrap_program(tracer)

    plan_s: dict[bool, list[float]] = {False: [], True: []}
    iter_s: list[float] = []
    busy = 0.0
    sim_ms = None
    rounds = Rounds(result, seconds, traced, lifecycle_argv("train-cold", []))
    # Round 0 warms lazy imports and is neither timed nor traced.
    for number, tracing in rounds:
        result.attempted += 1
        try:
            with tracer.active(tracing):
                tracer.phase = "start"
                t0 = time.perf_counter()
                with tracer.span("op"):
                    started = [_start(spec) for spec in specs]
                cold = time.perf_counter() - t0
                tracer.phase = "iter"
                clocks = [h.inner.gpu.clock for h, _ in started]
                steady = []
                for _ in range(STEADY):
                    t1 = time.perf_counter()
                    with tracer.span("op"):
                        for _, net in started:
                            net.forward()
                            net.backward()
                    steady.append(time.perf_counter() - t1)
        except Exception as exc:  # noqa: BLE001 -- a failed start is counted
            result.fail(f"round {number}: {exc!r}")
            continue
        sim = sum(h.inner.gpu.clock - c for (h, _), c in zip(started, clocks))
        sim = sim / STEADY * 1e3
        if sim_ms is None:
            sim_ms = sim
        elif sim != sim_ms:
            result.fail(f"simulated iteration {sim} != {sim_ms}", wrong_output=True)
        _check(result, started, specs, refs)
        if number > 0:
            plan_s[tracing].append(cold)
            if not tracing:
                iter_s.extend(steady)
                busy += cold + sum(steady)

    untimed = plan_s[False]
    if not (put_lifecycles(result, rounds.lives) and untimed and iter_s):
        result.fail("no complete measurement")
        return result
    result.put("peak_rss_mb", peak_rss_mib(), "MiB")
    result.show("peak_rss_mb", peak_rss_mib(), "MiB", 1)
    result.put("ops_per_s", len(untimed) / busy, "1/s")
    result.show("starts_per_s", len(untimed) / busy, "1/s", len(untimed))
    result.put_latencies(untimed, iter_s, ("startup_ms", "startup_tail_ms",
                                           "iter_ms", "iter_tail_ms"))
    result.show("sim_iter_ms", sim_ms, "ms", 1)
    result.report["networks"] = [s[0] for s in specs]
    if traced:
        starts = len(plan_s[True])
        iters = starts * STEADY
        per_start = lambda layer: tracer.total("start", layer) * 1e3 / starts
        lookups = tracer.counted("start", "cache.lookups")
        op_wall = sum(plan_s[True])
        values = {
            "import.ms": median(import_ms(rounds.lives)),
            "frameworks.setup_ms": per_start("frameworks.setup"),
            "frameworks.pass_ms": tracer.total("iter", "frameworks.pass") * 1e3 / iters,
            "exec.iter_ms": tracer.total("iter", "exec") * 1e3 / iters,
            "exec.micro_batches": tracer.counted("iter", "exec.micro_batches") / iters,
            "cudnn.find_ms": per_start("cudnn.find"),
            "benchmarker.ms": per_start("benchmarker"),
            "benchmarker.units": tracer.counted("start", "benchmarker.units") / starts,
            "cache.bench_hit_ratio": tracer.counted("start", "cache.hits") / lookups,
            "cache.bench_lookups": lookups / starts,
            "wr.ms": per_start("wr"),
            "wr.solves": tracer.counted("start", "wr.solves") / starts,
            "trace.overhead_pct": (median(plan_s[True]) / median(untimed) - 1) * 100,
            "trace.unattributed_pct": tracer.total("start", "op") / op_wall * 100,
        }
        result.metrics = layer_metrics(values)
        result.report["layers_ms_per_start"] = {
            layer: s * 1e3 / starts for layer, s in tracer.layers("start").items()}
    return result
