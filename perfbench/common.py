"""Shared helpers: statistics, process lifecycles, memory and run results.

Everything here is standard library only, so the command line can report
a missing program before anything of ``repro`` is imported.
"""

from __future__ import annotations

import math
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

GPU = "p100-sxm2"
MIB = 1 << 20
#: Cold process starts measured per run for ``setup_s`` and ``stop_s``:
#: of ``plan-serve``'s servers, and of the stand-in processes spread over
#: the rounds of ``train-cold`` and ``wd-pool`` (a stop there takes about
#: 0.1 s and moves by a tenth from one to the next, so it takes more).
LIFECYCLES = 5
ROUND_LIFECYCLES = 9
#: Longest a started process may take to become ready or to exit.
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
#: Everything a workload's processes import.
WARM_MODULES = ("repro.harness.runner", "repro.core",
                "repro.frameworks.model_zoo", "repro.persistence",
                "repro.service", "repro.wire")


def child_env() -> dict[str, str]:
    """Environment for child processes: the program's sources on the path,
    and bytecode cached where this process caches it (see :func:`use_out`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if sys.pycache_prefix:
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_out(out: Path) -> None:
    """Write everything under ``out``, bytecode caches included.

    Every process of the run caches bytecode under ``out/pycache``, so
    nothing lands in the checkout and a process start costs the same
    whether or not the environment disables bytecode writing.  The caches
    are filled before anything is timed.
    """
    out.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str((out / "pycache").resolve())
    sys.dont_write_bytecode = False
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(WARM_MODULES)],
        cwd=ROOT, env=child_env(), check=True, timeout=READY_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )


# -- statistics -----------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it.

    ``None`` below forty samples: such a percentile would be no tail.
    """
    if count < 40:
        return None
    return (100 * (count - 10)) // count


def tail(values: list[float]) -> tuple[int, float] | None:
    """``(percentile, value)`` of the tail of ``values``, or ``None``."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None
    return pct, nearest_rank(values, pct / 100)


def median(values: list[float]) -> float:
    return statistics.median(values)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def pin_to_one_cpu() -> int:
    """Keep this thread, and every thread and process it starts from now
    on, on one CPU (the highest this process may use); returns that CPU.

    A client and a server that hand the interpreter lock and the socket
    back and forth then switch on one CPU instead of waking an idle one,
    which on a shared host costs whatever the host's load makes it cost.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mib() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- process lifecycles -----------------------------------------------------------


class Lifecycle:
    """One child process measured from spawn to ready and from SIGTERM to exit.

    ``ready_prefix`` is the start of the line the child prints once it is
    set up; the rest of that line is kept in :attr:`ready_line`.
    """

    def __init__(self, argv: list[str], ready_prefix: str) -> None:
        self.argv = argv
        self.ready_prefix = ready_prefix
        self.proc: subprocess.Popen[str] | None = None
        self.ready_line = ""
        self.setup_s = math.nan
        self.stop_s = math.nan
        self._term_at = 0.0
        self._exit_at = 0.0
        self._exited = threading.Event()
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self) -> float:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._reader = threading.Thread(
            target=self._drain, name="perfbench-reader", daemon=True
        )
        self._reader.start()
        deadline = started + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith(self.ready_prefix):
                self.setup_s = time.perf_counter() - started
                self.ready_line = line.strip()
                return self.setup_s
        raise RuntimeError(f"{self.argv[1:3]} never became ready")

    def _drain(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def terminate(self) -> None:
        """Send SIGTERM; :meth:`wait_exit` measures the stop.

        A thread blocks in ``wait`` and notes the exit instant:
        ``Popen.wait`` with a timeout polls, in steps of up to 50 ms.
        """
        assert self.proc is not None
        proc = self.proc
        self._exited = threading.Event()

        def waiter() -> None:
            proc.wait()
            self._exit_at = time.perf_counter()
            self._exited.set()

        self._term_at = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        threading.Thread(target=waiter, name="perfbench-wait",
                         daemon=True).start()

    def wait_exit(self) -> float:
        assert self.proc is not None
        remaining = self._term_at + EXIT_TIMEOUT_S - time.perf_counter()
        if not self._exited.wait(timeout=max(0.1, remaining)):
            raise RuntimeError(f"{self.argv[1:3]} did not exit after SIGTERM")
        self.stop_s = self._exit_at - self._term_at
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"{self.argv[1:3]} exited with code {self.proc.returncode}"
            )
        return self.stop_s

    def reap(self) -> None:
        """Kill and wait whatever is still running (failure paths)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=EXIT_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def lifecycle_argv(workload: str, extra: list[str]) -> list[str]:
    """A child that sets up ``workload``'s process and waits for SIGTERM."""
    return [sys.executable, str(BENCH_DIR / "run.py"), "--lifecycle",
            workload, *extra]


# -- run results ----------------------------------------------------------------


@dataclass
class RunResult:
    """What one run reports: operation accounting plus named metrics."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The end-to-end metrics under the workload's own names, as
    #: ``(value, unit, samples)`` (printed for people; the JSON result
    #: carries them under the names all workloads share).
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Further figures kept in the run's output file.
    report: dict[str, object] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, wrong_output: bool = False) -> None:
        self.failed += 1
        if wrong_output:
            self.correct = False
        if len(self.errors) < 20:
            self.errors.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def show(self, name: str, value: float, unit: str, samples: int) -> None:
        self.named[name] = (float(value), unit, samples)

    def put_latencies(self, cold: list[float], warm: list[float],
                      names: tuple[str, str, str, str]) -> None:
        """``cold_ms``/``warm_ms`` and their tails from samples in seconds.

        ``names`` are the workload's own names for the four metrics.  A
        tail is the highest percentile with at least ten samples beyond it;
        with fewer than forty samples the median stands in for it.
        """
        for (shared, own), samples in zip(
                (("cold", names[:2]), ("warm", names[2:])), (cold, warm)):
            mid = median(samples) * 1e3
            self.put(f"{shared}_ms", mid, "ms")
            self.show(own[0], mid, "ms", len(samples))
            found = tail(samples)
            self.put(f"{shared}_tail_ms", found[1] * 1e3 if found else mid, "ms")
            if found:
                self.show(f"{own[1]} (p{found[0]})", found[1] * 1e3, "ms",
                          len(samples))

    def summary(self) -> dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def lifecycles(result: RunResult, argvs: list[tuple[list[str], str]],
               keep_last: bool = False, stop_together: bool = False,
               ) -> list[Lifecycle]:
    """Start each child in turn, then stop the idle ones.

    Idle children stop one after another, or all at once with
    ``stop_together`` (for children whose stop mostly waits).  With
    ``keep_last`` the last child is left running for the caller, who stops
    it.  Each child is one attempted operation; one that does not start,
    stop or exit cleanly is a failed one.  Every child but the kept one is
    reaped before this returns.
    """
    started: list[Lifecycle] = []
    idle: list[Lifecycle] = []
    try:
        for argv, prefix in argvs:
            life = Lifecycle(argv, prefix)
            started.append(life)
            result.attempted += 1
            try:
                life.start()
            except RuntimeError as exc:
                result.fail(f"lifecycle start: {exc}")
        idle = [life for life in (started[:-1] if keep_last else started)
                if life.ready_line]
        for life in idle:
            life.terminate()
            if not stop_together:
                stop(result, life)
        if stop_together:
            for life in idle:
                stop(result, life)
    finally:
        for life in (started[:-1] if keep_last else started):
            life.reap()
    return started


class Rounds:
    """Closed-loop rounds: an untimed first round, then rounds until
    ``seconds`` have passed, with ``ROUND_LIFECYCLES`` process lifecycles spread
    evenly over that time (so set-up and stop samples see the same machine
    as the rounds do; the run is lengthened by the time they take).

    Iterating yields ``(round number, traced)``: in a traced run the timed
    rounds alternate untraced and traced.
    """

    def __init__(self, result: RunResult, seconds: float, traced: bool,
                 argv: list[str]) -> None:
        self.result = result
        self.seconds = seconds
        self.traced = traced
        self.argv = argv
        self.lives: list[Lifecycle] = []
        self._start = 0.0
        self._paused = 0.0

    def __iter__(self) -> Iterator[tuple[int, bool]]:
        count = 0
        while count == 0 or self._elapsed() < self.seconds:
            yield count, self.traced and count > 0 and count % 2 == 0
            if count == 0:
                self._start = time.perf_counter()
            count += 1
            gap = self.seconds / (ROUND_LIFECYCLES - 1)
            self._lifecycles(min(ROUND_LIFECYCLES,
                                 1 + int(self._elapsed() / gap)))
        self._lifecycles(ROUND_LIFECYCLES)

    def _elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    def _lifecycles(self, due: int) -> None:
        while len(self.lives) < due:
            t0 = time.perf_counter()
            self.lives += lifecycles(self.result, [(self.argv, "ready")])
            self._paused += time.perf_counter() - t0


def import_ms(lives: list[Lifecycle]) -> list[float]:
    """The package-import times the children reported when ready."""
    return [float(life.ready_line.split("import_ms=")[1])
            for life in lives if life.ready_line]


def put_lifecycles(result: RunResult, lives: list[Lifecycle],
                   stopped: list[Lifecycle] | None = None) -> bool:
    """Report ``setup_s`` as the median over ``lives`` and ``stop_s`` as the
    median over ``stopped`` (by default ``lives`` too)."""
    setups = [life.setup_s for life in lives if life.ready_line]
    stops = [life.stop_s for life in (lives if stopped is None else stopped)
             if not math.isnan(life.stop_s)]
    if not (setups and stops):
        return False
    result.put("setup_s", median(setups), "s")
    result.put("stop_s", median(stops), "s")
    result.show("setup_s", median(setups), "s", len(setups))
    result.show("stop_s", median(stops), "s", len(stops))
    result.report["setup_samples_s"] = setups
    result.report["stop_samples_s"] = stops
    return True


def stop(result: RunResult, life: Lifecycle) -> None:
    """Wait for a terminated child; a slow or unclean exit is a failure."""
    try:
        life.wait_exit()
    except RuntimeError as exc:
        result.fail(f"lifecycle stop: {exc}")
