"""``plan-serve``: plan serving as deployed.

The traffic is training processes starting up: each job start asks one
plan per distinct kernel of its network at its workspace limit, one after
another on its connection, as ``runner client`` asks its network's kernels
in turn.  A key asked before (a kernel a new job shares with a known one)
is a hit.

The set-up solves nine known jobs (AlexNet b256, ResNet-50 b32 and
GoogLeNet b32, each under three limits) into a plan snapshot (648 keys),
then starts ``python -m repro.harness.runner serve --listen 127.0.0.1:0
--store <copy>`` (``LIFECYCLES`` times, on as many copies; the last one
serves the traffic) and waits for each serving line.  Two ``PlanClient``
connections, two threads, then send the requests in rounds of two phases,
each of which ends when both connections are done with it.  In a round's
write phase connection A starts one job new to the store (another network
at another batch size: per kernel a benchmark, a WR solve and a
write-through save of the whole snapshot) while B waits; in its read phase
both connections restart the nine known jobs ``FLEET_RESTARTS`` times each
(hits).  A warm-up phase, one restart of the fleet on each connection,
comes first; it is checked but not timed.  The seed shuffles the order of
the restarts; the new jobs are the same in every run, and their number
follows from ``--seconds`` alone, so every run does the same work and
grows the store by the same keys.  The run ends with SIGTERM and waits for
the server to exit.

How many known jobs restart per new one is assumed, not measured: no
deployment of the service has been observed.  ``ops_per_s`` depends on it.
Reads and writes run in phases of their own: interleaved, a hit that
arrived during a save waited for the server's interpreter lock, and the
misses, the hit tail and ``ops_per_s`` then moved by 27-40 % between runs
of the same code on a shared host.  They still share one server and one
store, so a gain for one that costs the other shows.

The load process, the servers it starts and the threads of both stay on
one CPU (:func:`common.pin_to_one_cpu`): each hit is a hand-over between
two processes, and on the shared host a hand-over to an idle CPU made the
hit tail move by a factor of up to five within one run.

The traced run assembles the same stack in-process (``PersistentPlanStore``
+ ``PlanService`` + ``PlanServer``, as ``serve --store`` does), so the
server's layers can be wrapped too.
"""

from __future__ import annotations

import gc
import random
import shutil
import sys
import threading
import time

from common import (GPU, LIFECYCLES, MIB, RunResult, import_ms,
                    lifecycle_argv, lifecycles, median, pin_to_one_cpu,
                    proc_peak_rss_mib,
                    put_lifecycles, stop)
from reference import check_wr, measure_table, wr_reference

LIMITS_MIB = (16, 64, 256)
#: Networks whose plans the snapshot holds, each a known job at every limit
#: of ``LIMITS_MIB``: nine jobs, whose starts are hits.
SNAPSHOT_NETS = (("build_alexnet", 256), ("build_resnet50", 32),
                 ("build_googlenet", 32))
#: Jobs new to the snapshot (other networks at other batch sizes), one per
#: round in this order: their starts are misses.
NEW_JOBS = tuple((builder, batch, mib) for mib in (64, 16, 256)
                 for builder, batch in (
                     ("build_alexnet", 128), ("build_vgg16", 32),
                     ("build_resnet18", 64), ("build_alexnet", 64),
                     ("build_resnet18", 32)))
#: Restarts of the whole known fleet per round on each connection, in the
#: round's read phase.  An assumed churn, not a measured one: ``ops_per_s``
#: depends on it.  Both connections restart it equally often, so that they
#: end the phase about together: a connection left alone on an idle server
#: answered its hits 10-20 % faster or slower from run to run.
FLEET_RESTARTS = 5
#: Seconds of ``--seconds`` per round; a round holds one new job.
ROUND_SECONDS = 5.5
#: Keys whose plans are also checked against the reference WR solver.
REFERENCE_SAMPLE = 24


#: What ``runner serve --store`` imports before it loads the store.
IMPORTS = ("repro.harness.runner", "repro.persistence", "repro.service",
           "repro.wire")


def process_setup(args: list[str]) -> None:
    """Nothing beyond the imports (the traced run loads the store itself)."""


def _job_requests(jobs) -> dict[tuple, list]:
    """``job -> requests`` of each ``(builder, batch, limit MiB)`` job: one
    request per distinct kernel of the network, in the network's order, at
    the job's limit -- what a training process asks at its start, as
    ``runner client`` does."""
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode
    from repro.frameworks import model_zoo
    from repro.service import PlanRequest

    kernels: dict[tuple[str, int], dict] = {}
    requests = {}
    for builder, batch, mib in jobs:
        if (builder, batch) not in kernels:
            handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
            net = getattr(model_zoo, builder)(batch=batch).setup(handle)
            distinct: dict = {}
            for name, g in net.conv_geometries().items():
                distinct.setdefault(g.cache_key(),
                                    (f"{builder}-b{batch}/{name}", g))
            kernels[builder, batch] = distinct
        requests[builder, batch, mib] = [
            PlanRequest(kernel=name, geometry=g, workspace_limit=mib * MIB)
            for name, g in kernels[builder, batch].values()]
    return requests


def _answers(requests, store=None) -> dict[str, object]:
    """In-process answers (and, with ``store``, the snapshot of them)."""
    from repro.core import BenchmarkCache
    from repro.service import PlanService

    bench = BenchmarkCache()
    if store is not None:
        from repro.persistence import PersistentPlanStore

        store = PersistentPlanStore(store, gpu=GPU, bench_cache=bench,
                                    sync_every=len(requests) + 1)
    with PlanService(GPU, store=store, bench_cache=bench) as service:
        answers = {str(r.key(GPU)): service.request(r).configuration
                   for r in requests}
    if store is not None:
        store.save()
    return answers


def _plan(seed: int, seconds: float, pristine) -> tuple[list, dict, int]:
    """The request phases, every key's expected plan, and the number of
    sampled plans that differ from the reference solver.

    Each round is a write phase, in which connection A starts one new job,
    and a read phase, in which both connections restart every known job
    ``FLEET_RESTARTS`` times, in orders the seed shuffles.  A request is a
    miss the first time its key is asked and a hit after that.  The new
    jobs are the same in the same order for every seed, and their number
    follows from ``seconds`` alone, so every run does the same work and
    grows the store by the same keys.
    """
    import dataclasses

    known = _job_requests([(builder, batch, mib) for builder, batch
                           in SNAPSHOT_NETS for mib in LIMITS_MIB])
    hits = list({str(r.key(GPU)): r for reqs in known.values()
                 for r in reqs}.values())
    expected = _answers(hits, store=pristine)
    # Two rounds at least: the traced run traces every second round.
    rounds = max(2, round(seconds / ROUND_SECONDS))
    if rounds > len(NEW_JOBS):
        raise ValueError(f"{rounds} rounds need more than {len(NEW_JOBS)} "
                         "new jobs")
    new = _job_requests(NEW_JOBS[:rounds])
    first: dict[str, object] = {}
    for job in NEW_JOBS[:rounds]:
        for req in new[job]:
            key = str(req.key(GPU))
            if key not in expected and key not in first:
                first[key] = req
    misses = list(first.values())
    missed = set(map(id, misses))
    expected.update(_answers(misses))
    rng = random.Random(seed)
    jobs = list(known)
    # First a warm-up phase, one restart of the fleet on each connection:
    # checked, but neither timed nor reported.
    phases = [[[("warm", req) for restart in rng.sample(jobs, len(jobs))
                for req in known[restart]] for _ in (0, 1)]]
    for job in NEW_JOBS[:rounds]:
        start = [("miss" if id(req) in missed else "hit", req)
                 for req in new[job]]
        phases.append([start, []])
        phases.append([[("hit", req) for _ in range(FLEET_RESTARTS)
                        for restart in rng.sample(jobs, len(jobs))
                        for req in known[restart]] for _ in (0, 1)])
    phases = [[[(kind, dataclasses.replace(req, client=f"{c}:{p}:{i}"))
                for i, (kind, req) in enumerate(reqs)]
               for c, reqs in enumerate(phase)]
              for p, phase in enumerate(phases)]
    sample = rng.sample(hits, REFERENCE_SAMPLE // 2) + rng.sample(
        misses, min(len(misses), REFERENCE_SAMPLE // 2))
    return phases, expected, _reference_problems(sample, expected)


def _reference_problems(sample, expected) -> int:
    """Reference-check a sample of the in-process answers (the served plans
    are then checked against these answers)."""
    from repro.cudnn.device import Gpu
    from repro.cudnn.handle import CudnnHandle, ExecMode

    handle = CudnnHandle(gpu=Gpu.create(GPU), mode=ExecMode.TIMING)
    problems = 0
    for req in sample:
        table = measure_table(handle, req.geometry, req.policy.value)
        ref = wr_reference(table, req.geometry.n, req.workspace_limit)
        config = expected[str(req.key(GPU))]
        if check_wr(config, req.geometry.n, req.workspace_limit, ref):
            problems += 1
    return problems


class Traffic:
    """Two connections replaying the phases; each phase ends at a barrier."""

    def __init__(self, phases, expected, result: RunResult, tracer,
                 traced: bool) -> None:
        self.phases = phases
        self.expected = expected
        self.result = result
        self.tracer = tracer
        self.traced = traced
        self.lock = threading.Lock()
        #: ``(kind, seconds, traced round, tag)`` per answered request.
        self.samples: list[tuple[str, float, bool, str]] = []
        self.barrier = threading.Barrier(2, action=self._next_phase)
        #: When each phase ended.
        self.ends: list[float] = []

    def _next_phase(self) -> None:
        self.ends.append(time.perf_counter())
        # In a traced run the rounds (a write and a read phase each, after
        # the warm-up) with an odd number are traced, the others are not.
        if self.traced and (len(self.ends) - 1) // 2 % 2 == 1:
            self.tracer.install()
        elif self.tracer.installed:
            self.tracer.uninstall()

    def _failed(self, what: str, wrong: bool = False) -> None:
        with self.lock:
            self.result.fail(what, wrong_output=wrong)

    def _connection(self, host: str, port: int, conn: int) -> None:
        from repro.errors import ReproError
        from repro.wire import PlanClient

        try:
            client = PlanClient(host, port, timeout_s=60.0)
        except ReproError as exc:
            self._failed(f"connect: {exc!r}")
            self.barrier.abort()
            return
        try:
            for phase in self.phases:
                for kind, req in phase[conn]:
                    traced = self.tracer.installed
                    start = time.perf_counter()
                    try:
                        with self.tracer.span("op"):
                            response = client.plan(req)
                    except (ReproError, OSError) as exc:
                        self._failed(f"{req.client}: {exc!r}")
                        continue
                    seconds = time.perf_counter() - start
                    want = "fresh" if kind == "miss" else "cached"
                    if response.fallback_reason:
                        self._failed(f"{req.client}: fallback plan "
                                     f"({response.fallback_reason})")
                    elif response.source != want:
                        self._failed(f"{req.client}: source {response.source}, "
                                     f"expected {want}", wrong=True)
                    elif response.configuration != self.expected[str(req.key(GPU))]:
                        self._failed(f"{req.client}: plan differs from the "
                                     "in-process answer", wrong=True)
                    else:
                        with self.lock:
                            self.samples.append((kind, seconds, traced, req.client))
                self.barrier.wait(timeout=120.0)
        except threading.BrokenBarrierError:
            self._failed(f"connection {conn}: the other connection stopped")
        finally:
            client.close()

    def run(self, host: str, port: int) -> None:
        self.result.attempted += sum(len(c) for p in self.phases for c in p)
        threads = [threading.Thread(target=self._connection,
                                    args=(host, port, c), name=f"client-{c}")
                   for c in (0, 1)]
        # The requests and expected plans are built; keep the collector
        # from scanning them over and over while the connections run.
        gc.collect()
        gc.freeze()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gc.unfreeze()
        if self.tracer.installed:
            self.tracer.uninstall()

    def times(self, kind: str, traced: bool = False) -> list[float]:
        return [s for k, s, t, _ in self.samples if k == kind and t == traced]


def _put_latencies(result: RunResult, traffic: Traffic) -> None:
    phases = [end - start for start, end
              in zip(traffic.ends, traffic.ends[1:])]
    timed = sum(1 for kind, _, _, _ in traffic.samples if kind != "warm")
    ops = timed / sum(phases)
    result.report["requests"] = timed
    result.put("ops_per_s", ops, "1/s")
    result.show("ops_per_s", ops, "1/s", len(phases))
    result.put_latencies(traffic.times("miss"), traffic.times("hit"),
                         ("miss_p50_ms", "miss_tail_ms",
                          "hit_p50_ms", "hit_tail_ms"))
    result.report["phase_ms"] = [s * 1e3 for s in phases]


def run(seed: int, seconds: float, traced: bool, out) -> RunResult:
    from tracer import Tracer

    result = RunResult()
    pristine = out / "plan-serve-snapshot.json"
    if pristine.exists():
        pristine.unlink()
    phases, expected, problems = _plan(seed, seconds, pristine)
    if problems:
        result.fail(f"{problems} sampled plans differ from the reference WR "
                    "optimum", wrong_output=True)
    result.report["cpu"] = pin_to_one_cpu()
    tracer = Tracer()
    if traced:
        return _traced(result, phases, expected, pristine, tracer, out)

    stores = [out / f"plan-serve-store-{i}.json" for i in range(LIFECYCLES)]
    for store in stores:
        shutil.copyfile(pristine, store)
    argvs = [([sys.executable, "-m", "repro.harness.runner", "serve", "--listen",
               "127.0.0.1:0", "--store", str(store)], "[serving")
             for store in stores]
    lives = lifecycles(result, argvs, keep_last=True, stop_together=True)
    server = lives[-1]
    try:
        if not server.ready_line:
            return result
        address = server.ready_line.split(" on ")[1].split(";")[0]
        host, port = address.rsplit(":", 1)
        traffic = Traffic(phases, expected, result, tracer, traced=False)
        traffic.run(host, int(port))
        rss = proc_peak_rss_mib(server.proc.pid)
        server.terminate()
        stop(result, server)
    finally:
        server.reap()
    # The idle servers stop together, to save time; only the serving
    # server's stop, taken alone, is reported.
    if not (put_lifecycles(result, lives, stopped=[server])
            and traffic.times("hit")
            and traffic.times("miss")):
        result.fail("no complete measurement")
        return result
    result.put("peak_rss_mb", rss, "MiB")
    result.show("peak_rss_mb", rss, "MiB", 1)
    _put_latencies(result, traffic)
    result.report["snapshot_mb"] = stores[-1].stat().st_size / MIB
    return result


def _traced(result, phases, expected, pristine, tracer, out) -> RunResult:
    from layers import layer_metrics, wrap_program

    lives = lifecycles(result, [(lifecycle_argv("plan-serve", []), "ready")]
                       * LIFECYCLES)
    from repro.core import BenchmarkCache
    from repro.persistence import PersistentPlanStore
    from repro.service import PlanService
    from repro.wire import PlanServer

    wrap_program(tracer)
    path = out / "plan-serve-store-traced.json"
    shutil.copyfile(pristine, path)
    bench = BenchmarkCache()
    with tracer.active():
        store = PersistentPlanStore(path, gpu=GPU, bench_cache=bench)
    service = PlanService(GPU, store=store, bench_cache=bench)
    server = PlanServer(service, "127.0.0.1", 0, snapshot_path=str(path))
    try:
        server.start()
        tracer.phase = "op"
        traffic = Traffic(phases, expected, result, tracer, traced=True)
        traffic.run(server.host, server.port)
        tracer.phase = "stop"
        with tracer.active():
            store.save()
            server.close()
    finally:
        server.close()
        service.close()

    notes = {tag: (source, seconds)
             for tag, source, seconds in tracer.notes["service.request"]}
    requests = [s for s in traffic.samples if s[2]]
    hit_rt = [(s, tag) for kind, s, _, tag in requests if kind == "hit"]
    misses = max(1, sum(1 for s in requests if s[0] == "miss"))
    worker = tracer.rooted("op", "plan-service")
    solve = tracer.counted("op", "service.solve_s")
    miss_service = sum(sec for src, sec in notes.values() if src != "cached")
    frames = max(1.0, tracer.counted("op", "wire.frames"))
    lookups = tracer.counted("op", "cache.lookups")
    op_wall = sum(s for _, s, _, _ in requests)
    spans = sum(s for layer, s in tracer.layers("op").items() if layer != "op")
    per_miss = lambda layer: tracer.total("op", layer) * 1e3 / misses
    per_req = lambda layer: tracer.total("op", layer) * 1e6 / len(requests)
    saves = max(1.0, tracer.counted("op", "persistence.saves"))
    values = {
        "import.ms": median(import_ms(lives)),
        "cudnn.find_ms": per_miss("cudnn.find"),
        "benchmarker.ms": per_miss("benchmarker"),
        "benchmarker.units": tracer.counted("op", "benchmarker.units") / misses,
        "cache.bench_hit_ratio": tracer.counted("op", "cache.hits") / lookups
        if lookups else 0.0,
        "cache.bench_lookups": lookups / misses,
        "cache.load_ms": tracer.total("setup", "cache.load") * 1e3,
        "wr.ms": per_miss("wr"),
        "wr.solves": tracer.counted("op", "wr.solves") / misses,
        "service.ms": (tracer.total("op", "service") - worker) * 1e3
        / len(requests),
        "service.hit_us": median([sec for src, sec in notes.values()
                                  if src == "cached"]) * 1e6,
        "service.store_hit_ratio": sum(1 for src, _ in notes.values()
                                       if src == "cached") / len(notes),
        "service.queue_ms": (miss_service - solve) * 1e3 / misses,
        "service.solve_ms": solve * 1e3 / misses,
        "persistence.save_ms": tracer.total("op", "persistence.save") * 1e3 / saves,
        "persistence.saves": tracer.counted("op", "persistence.saves") / misses,
        "persistence.snapshot_mb": path.stat().st_size / MIB,
        "persistence.load_ms": tracer.total("setup", "persistence.load") * 1e3,
        "wire.codec_us": per_req("wire.codec"),
        "wire.send_us": per_req("wire.send"),
        "wire.frame_bytes": tracer.counted("op", "wire.bytes") / frames,
        "wire.overhead_us": median([s - notes[tag][1] for s, tag in hit_rt]) * 1e6,
        "wire.close_ms": tracer.total("stop", "wire.close") * 1e3,
        "trace.overhead_pct": (median(traffic.times("hit", True))
                               / median(traffic.times("hit")) - 1) * 100,
        "trace.unattributed_pct": (op_wall - (spans - worker)) / op_wall * 100,
    }
    result.metrics = layer_metrics(values)
    result.report["layers_us_per_request"] = {
        layer: s * 1e6 / len(requests)
        for layer, s in tracer.layers("op").items()}
    result.report["worker_us_per_request"] = worker * 1e6 / len(requests)
    return result
