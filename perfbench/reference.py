"""Reference answers computed apart from the optimizers under test.

Benchmark tables come from the simulated cuDNN's per-size ``Find`` call
(``repro.cudnn.api.find_algorithms``), not from the benchmarker, its
batched path or its cache.  The solvers are written from the paper's
definitions:

* WR (section III-B): the fastest division of a mini-batch into measured
  micro-batch sizes, each micro-batch using its fastest algorithm within
  the per-kernel workspace limit -- an unbounded partition DP.
* WD (section III-C): pick one configuration per kernel so the summed
  workspace fits the pool and the summed time is least.  Each kernel's
  (time, workspace) front is derived from WR answers at every distinct
  workspace value (a configuration's workspace is its largest micro-batch
  workspace, so the least time using at most ``w`` bytes is WR under limit
  ``w``); the fronts are then merged pairwise, keeping Pareto points only.
"""

from __future__ import annotations

import math

#: Relative tolerance for comparing sums of the same float terms added in a
#: different order.
REL_TOL = 1e-9

Table = dict[int, list[tuple[float, int]]]


def candidate_sizes(policy: str, batch: int) -> list[int]:
    """Micro-batch sizes a policy measures (paper section III-D)."""
    if policy == "all":
        return list(range(1, batch + 1))
    if policy == "powerOfTwo":
        sizes = {batch}
        size = 1
        while size <= batch:
            sizes.add(size)
            size *= 2
        return sorted(sizes)
    if policy == "undivided":
        return [batch]
    raise ValueError(f"unknown policy {policy!r}")


def measure_table(handle, geometry, policy: str) -> Table:
    """``size -> [(time, workspace)]`` of every algorithm that runs."""
    from repro.cudnn import api

    table: Table = {}
    for size in candidate_sizes(policy, geometry.n):
        rows = api.find_algorithms(handle, geometry.with_batch(size))
        table[size] = [(r.time, r.workspace) for r in rows if r.ok]
    return table


def _fastest(table: Table, limit: int) -> dict[int, float]:
    best: dict[int, float] = {}
    for size, rows in table.items():
        times = [t for t, w in rows if w <= limit]
        if times:
            best[size] = min(times)
    return best


def wr_optimum(table: Table, batch: int, limit: int) -> float:
    """Least time to run ``batch`` samples under a per-kernel ``limit``."""
    fastest = _fastest(table, limit)
    best = [0.0] + [math.inf] * batch
    for i in range(1, batch + 1):
        for size, time in fastest.items():
            if size <= i and best[i - size] + time < best[i]:
                best[i] = best[i - size] + time
    return best[batch]


def undivided_time(table: Table, batch: int, limit: int) -> float:
    """The plain-cuDNN time: fastest algorithm at the full batch."""
    return _fastest(table, limit).get(batch, math.inf)


def pareto(points: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Points not dominated in (time, workspace), by ascending workspace."""
    front: list[tuple[float, int]] = []
    for time, ws in sorted(points, key=lambda p: (p[1], p[0])):
        if not front or time < front[-1][0]:
            front.append((time, ws))
    return front


def kernel_front(table: Table, batch: int, cap: int) -> list[tuple[float, int]]:
    """Every Pareto-optimal (time, workspace) of one kernel within ``cap``."""
    steps = sorted({w for rows in table.values() for _, w in rows if w <= cap})
    points = [(wr_optimum(table, batch, w), w) for w in steps]
    return pareto([(t, w) for t, w in points if math.isfinite(t)])


def merge_optimum(fronts: list[list[tuple[float, int]]], pool: int) -> float:
    """Least summed time choosing one point per front within ``pool``."""
    merged: list[tuple[float, int]] = [(0.0, 0)]
    for front in fronts:
        merged = pareto([(t0 + t1, w0 + w1) for t0, w0 in merged
                         for t1, w1 in front if w0 + w1 <= pool])
        if not merged:
            return math.inf
    return min(t for t, _ in merged)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_configuration(config, batch: int, limit: int) -> str | None:
    """Micro-batches cover the mini-batch and each fits the limit."""
    covered = sum(m.micro_batch for m in config.micros)
    if covered != batch:
        return f"micro-batches sum to {covered}, not {batch}"
    worst = max((m.workspace for m in config.micros), default=0)
    if worst > limit:
        return f"workspace {worst} over limit {limit}"
    return None


def wr_reference(table: Table, batch: int, limit: int) -> tuple[float, float]:
    """``(optimum, undivided)`` WR times of one kernel under ``limit``."""
    return wr_optimum(table, batch, limit), undivided_time(table, batch, limit)


def check_wr(config, batch: int, limit: int,
             reference: tuple[float, float]) -> str | None:
    """A WR plan is valid, optimal, and no slower than undivided."""
    problem = check_configuration(config, batch, limit)
    if problem:
        return problem
    optimum, undivided = reference
    if not close(config.time, optimum):
        return f"WR time {config.time!r} != reference optimum {optimum!r}"
    if config.time > undivided * (1 + REL_TOL):
        return "WR plan slower than undivided under the same limit"
    return None
