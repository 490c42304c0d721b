"""Benchmark of the whole system: training cold start, pooled-workspace
planning, and plan serving, end to end and layer by layer.

Run one workload (the last line of standard output is the JSON result)::

    python3 perfbench/run.py --workload train-cold --seed 1 --seconds 20 --trace 0

``--trace 1`` runs the workload again with every layer's entry points
wrapped and reports the per-layer metrics instead.  ``--workload all`` runs
the three workloads and prints every metric per workload;
``--steady WORKLOAD`` runs one workload ``--repeats`` times on successive
seeds and prints each metric's median and quartile spread.  Everything a
run writes goes to ``--out`` (default ``.perfbench-out`` in the current
directory).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # until use_out() points caches into --out

from common import SRC, child_env, median, spread, use_out  # noqa: E402

WORKLOADS = ("train-cold", "wd-pool", "plan-serve")


def _module(workload: str):
    if workload == "train-cold":
        import train_cold as module
    elif workload == "wd-pool":
        import wd_pool as module
    else:
        import plan_serve as module
    return module


def _program_present() -> bool:
    """Put the program's sources on the path (without importing them)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are not at {SRC}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def lifecycle_child(workload: str, args: list[str]) -> int:
    """A workload's process: import, set up, say so, wait for SIGTERM."""
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    module = _module(workload)
    started = time.perf_counter()
    for name in module.IMPORTS:
        importlib.import_module(name)
    imported = time.perf_counter()
    module.process_setup(args)
    print(f"ready import_ms={(imported - started) * 1e3}", flush=True)
    stop.wait()
    return 0


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    result = _module(workload).run(seed, seconds, traced, out)
    summary = result.summary()
    name = f"{workload}-seed{seed}-trace{int(traced)}.json"
    (out / name).write_text(json.dumps(
        {**summary, "named": result.named, "report": result.report,
         "errors": result.errors},
        indent=2, sort_keys=True) + "\n")
    for line in result.errors:
        print(f"[{workload}] FAILED: {line}")
    if traced:
        for metric, (value, unit) in result.metrics.items():
            print(f"[{workload}] {metric} = {value:.6g} {unit}")
    for metric, (value, unit, samples) in result.named.items():
        print(f"[{workload}] {metric} = {value:.6g} {unit} "
              f"({samples} sample{'s' if samples != 1 else ''})")
    print(f"[{workload}] attempted {result.attempted}, failed {result.failed}, "
          f"correct {result.correct}")
    return summary


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              out: Path) -> subprocess.CompletedProcess[str]:
    """One workload run in a process of its own (as peak memory needs)."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced)), "--out", str(out)],
        env=child_env(), capture_output=True, text=True, timeout=900,
    )


def run_all(seed: int, seconds: float, traced: bool, out: Path) -> int:
    """Every workload in turn; the last line holds every JSON result."""
    summaries = {}
    for workload in WORKLOADS:
        proc = run_child(workload, seed, seconds, traced, out)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        summaries[workload] = json.loads(lines[-1])
    print(json.dumps(summaries, sort_keys=True))
    return 0


def steady(workload: str, repeats: int, first_seed: int, seconds: float,
           traced: bool, out: Path) -> int:
    """Run ``workload`` on ``repeats`` seeds; print medians and spreads."""
    runs = []
    for seed in range(first_seed, first_seed + repeats):
        proc = run_child(workload, seed, seconds, traced, out)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        runs.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    report = {"workload": workload, "runs": len(runs), "metrics": {}}
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{workload}: {len(runs)} runs, failed share(s) {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        row = {"median": median(values), "spread": spread(values),
               "min": min(values), "max": max(values), "unit": unit}
        report["metrics"][name] = row
        print(f"  {name:24s} median {row['median']:.6g} {unit:6s} "
              f"spread {row['spread'] * 100:6.2f} %  "
              f"[{row['min']:.6g} .. {row['max']:.6g}]")
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{workload}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".perfbench-out"))
    parser.add_argument("--steady", choices=WORKLOADS,
                        help="run one workload on --repeats successive seeds")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--lifecycle", choices=WORKLOADS, help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args(argv)
    if not _program_present():
        return 2
    if args.lifecycle:
        return lifecycle_child(args.lifecycle, rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    use_out(args.out)
    if args.steady:
        return steady(args.steady, args.repeats, args.seed, args.seconds,
                      bool(args.trace), args.out)
    if not args.workload:
        parser.error("--workload or --steady is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    summary = run_one(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.out)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
