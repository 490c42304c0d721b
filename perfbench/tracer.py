"""Per-layer spans recorded from outside the program.

The traced run wraps the entry points of each layer (a function or method
of the program) in place, in every ``repro`` module that holds a reference
to it, and restores the originals afterwards.  A span is the time one call
takes; its self time is that minus the time of the wrapped calls it made
on the same thread.  Each thread keeps its own totals per ``(phase,
layer)``, so recording takes no lock; the totals are merged when read.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``hook(tracer, args, kwargs, result, seconds)`` runs after a wrapped call
#: returns; ``seconds`` is the call's wall time.
Hook = Callable[["Tracer", tuple, dict, Any, float], None]


class _Thread:
    """One thread's stack and totals; merged only when read."""

    def __init__(self, name: str) -> None:
        self.family = name.split("_")[0]
        self.stack: list[list] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.root_s: dict[tuple[str, str], float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        #: Free-form samples a hook keeps (per-request pairs and the like).
        self.notes: dict[str, list] = defaultdict(list)
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sites: list[tuple[object, str, object, object]] = []
        self.installed = False

    # -- recording -------------------------------------------------------------

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
        return state

    def _enter(self, layer: str) -> tuple[_Thread, list]:
        state = self._thread()
        frame = [layer, time.perf_counter(), 0.0]
        state.stack.append(frame)
        return state, frame

    def _exit(self, state: _Thread, frame: list) -> None:
        end = time.perf_counter()
        stack = state.stack
        stack.pop()
        duration = end - frame[1]
        key = (self.phase, frame[0])
        state.self_s[key] += duration - frame[2]
        state.calls[key] += 1
        if stack:
            stack[-1][2] += duration
        else:
            state.root_s[(self.phase, state.family)] += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span; nothing while the wrappers are not installed."""
        if not self.installed:
            yield
            return
        state, frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(state, frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        self._thread().counts[(self.phase, name)] += amount

    def note(self, name: str, value: object) -> None:
        with self._lock:
            self.notes[name].append(value)

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, original, layer: str, hook: Hook | None):
        """``original`` recorded as a span of ``layer``, then ``hook``."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state, frame = tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(state, frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, time.perf_counter() - frame[1])
            return result

        return traced

    def wrap_function(self, func, layer: str, hook: Hook | None = None,
                      modules: tuple[str, ...] = ()) -> None:
        """Wrap ``func`` wherever a ``repro`` module (or only ``modules``)
        binds it to a name."""
        wrapper = self._wrapper(func, layer, hook)
        found = False
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            if modules and name not in modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._sites.append((module, attr, func, wrapper))
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {func!r}")

    def wrap_method(self, cls: type, name: str, layer: str,
                    hook: Hook | None = None) -> None:
        original = cls.__dict__[name]
        self._sites.append((cls, name, original,
                            self._wrapper(original, layer, hook)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self.installed = False

    @contextmanager
    def active(self, on: bool = True) -> Iterator[None]:
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- reading ------------------------------------------------------------------

    def _merged(self, field: str) -> dict:
        merged: dict = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, value in getattr(state, field).items():
                merged[key] += value
        return merged

    def total(self, phase: str, layer: str) -> float:
        return self._merged("self_s").get((phase, layer), 0.0)

    def counted(self, phase: str, name: str) -> float:
        return self._merged("counts").get((phase, name), 0.0)

    def layers(self, phase: str) -> dict[str, float]:
        return {layer: s for (p, layer), s in self._merged("self_s").items()
                if p == phase}

    def rooted(self, phase: str, family: str) -> float:
        return self._merged("root_s").get((phase, family), 0.0)
