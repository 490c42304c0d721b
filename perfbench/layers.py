"""The program's layers as the traced run sees them.

:func:`wrap_program` registers the entry point of every layer with a
:class:`~tracer.Tracer`; :data:`PER_LAYER` holds the per-layer metrics of
``BENCHMARK.json``, which every workload reports (a layer a workload does
not reach reports 0).
"""

from __future__ import annotations

import json

from common import ROOT
from tracer import Tracer

#: ``(name, unit)`` of every per-layer metric, in report order, as
#: ``BENCHMARK.json`` declares them.
PER_LAYER: list[tuple[str, str]] = [
    (entry["name"], entry["unit"]) for entry in
    json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

UNITS = dict(PER_LAYER)


def layer_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where ``values`` has none."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


def _count(name: str, amount=lambda args, result: 1):
    def hook(tracer: Tracer, args, kwargs, result, seconds) -> None:
        tracer.count(name, amount(args, result))
    return hook


def wrap_program(tracer: Tracer) -> None:
    """Register each layer's entry points (importing them first)."""
    from repro.core import benchmarker, convolution, pareto, wd, wr
    from repro.core.cache import BenchmarkCache
    from repro.cudnn import api
    from repro.frameworks.net import Net
    from repro.persistence import store as pstore
    from repro.service.plan_service import PlanService
    from repro.wire import client, protocol, server

    tracer.wrap_function(api.find_algorithms_batched, "cudnn.find",
                         _count("benchmarker.units", lambda a, r: len(a[2])))
    tracer.wrap_function(api.find_algorithms, "cudnn.find",
                         _count("benchmarker.units"))
    tracer.wrap_function(benchmarker.benchmark_kernel, "benchmarker")

    def lookup(tracer, args, kwargs, result, seconds):
        tracer.count("cache.lookups")
        if result is not None:
            tracer.count("cache.hits")

    tracer.wrap_method(BenchmarkCache, "get_benchmark", "cache", lookup)
    tracer.wrap_method(BenchmarkCache, "load", "cache.load")
    tracer.wrap_method(BenchmarkCache, "import_payload", "cache.load")
    tracer.wrap_function(wr.optimize_from_benchmark, "wr",
                         _count("wr.solves"))
    tracer.wrap_function(pareto.desirable_set, "pareto",
                         _count("pareto.points", lambda a, r: len(r)))

    def wd_counts(tracer, args, kwargs, result, seconds):
        tracer.count("wd.variables", result.num_variables)
        if result.ilp is not None:
            tracer.count("wd.ilp_nodes", result.ilp.nodes_explored)

    tracer.wrap_function(wd.solve_from_kernels, "wd", wd_counts)
    tracer.wrap_method(Net, "setup", "frameworks.setup")
    tracer.wrap_method(Net, "forward", "frameworks.pass")
    tracer.wrap_method(Net, "backward", "frameworks.pass")
    micro = _count("exec.micro_batches", lambda a, r: len(a[1].micros))
    for op in (convolution.forward, convolution.backward_data,
               convolution.backward_filter):
        tracer.wrap_function(op, "exec", micro)

    def served(tracer, args, kwargs, result, seconds):
        # args: (service, request); the request's client field carries the
        # benchmark's per-request tag, so client and server sides pair up.
        tracer.note("service.request", (args[1].client, result.source, seconds))

    tracer.wrap_method(PlanService, "request", "service", served)

    def solved(tracer, args, kwargs, result, seconds):
        tracer.count("service.solve_s", seconds)

    # One solve on a plan-service worker thread, wall time: benchmark, WR,
    # storing the plan (with its write-through save) and the epoch checks.
    tracer.wrap_method(PlanService, "_execute", "service.solve", solved)
    tracer.wrap_function(pstore.save_snapshot, "persistence.save",
                         _count("persistence.saves"),
                         modules=("repro.persistence.store",))
    # Building the snapshot document is half of every write-through save.
    tracer.wrap_function(pstore.snapshot_store, "persistence.save",
                         modules=("repro.persistence.store",))
    tracer.wrap_function(pstore.load_snapshot, "persistence.load",
                         modules=("repro.persistence.store",))
    codecs = (protocol.encode_envelope, protocol.decode_envelope,
              protocol.request_to_wire, protocol.request_from_wire,
              protocol.response_to_wire, protocol.response_from_wire)

    def sent(tracer, args, kwargs, result, seconds):
        tracer.count("wire.frames")
        tracer.count("wire.bytes", result)

    for module in (client, server):
        bound = set(map(id, vars(module).values()))
        for func in codecs:
            if id(func) in bound:
                tracer.wrap_function(func, "wire.codec",
                                     modules=(module.__name__,))
        tracer.wrap_function(protocol.write_frame, "wire.send", sent,
                             modules=(module.__name__,))
    tracer.wrap_method(server.PlanServer, "close", "wire.close")
