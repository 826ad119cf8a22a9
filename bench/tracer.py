"""In-memory span tracer that times calls into a package from outside it.

A span records name, start, end, the span that was open when it started
(its parent) and the run id it belongs to. Spans and counts stay in memory
until ``dump`` writes them out. A span's self time is its duration minus the
time its child spans cover; the benchmark is single-threaded, so children
never overlap and that is a plain subtraction.

Wrapping replaces a module attribute, so it catches every caller that looks
the name up at call time, including modules that imported the name (wrap
each binding separately, e.g. both ``noisyrec.model.init_params`` and
``noisyrec.trainer.init_params``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run")

    def __init__(self, id, name, start, parent, run):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts for calls made while ``active`` is true."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[tuple, float] = defaultdict(float)  # (run, name) -> total
        self.active = False
        self.run = None
        self._stack: List[Span] = []
        self._patches: List[tuple] = []

    def begin_run(self, run_id: str, active: bool = True) -> None:
        self.run = run_id
        self.active = active

    def end_run(self) -> None:
        self.active = False

    def count(self, name: str, value: float = 1.0) -> None:
        if self.active:
            self.counts[(self.run, name)] += value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named `name` (a plain call when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; `after(result, *args, **kwargs)` runs outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if self.active:
                self.count(name + ".calls")
                if after is not None:
                    after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, module, attr: str, make: Callable) -> None:
        """Replace module.attr with make(original); ``unwrap_all`` restores it."""
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patches.append((module, attr, original))

    def wrap(self, module, attr: str, name: str, after: Optional[Callable] = None) -> None:
        self.patch(module, attr, lambda fn: self.traced(name, fn, after))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def per_run(self, names: Iterable[str], runs: Iterable[str], self_time: bool = False) -> List[float]:
        """Total (or self) seconds of spans named in `names`, one value per run."""
        names = set(names)
        totals = {r: 0.0 for r in runs}
        own = self.self_times() if self_time else None
        for s in self.spans:
            if s.name in names and s.run in totals:
                totals[s.run] += own[s.id] if self_time else s.duration
        return list(totals.values())

    def counts_per_run(self, name: str, runs: Iterable[str]) -> List[float]:
        return [self.counts.get((r, name), 0.0) for r in runs]

    def durations(self, names: Iterable[str], runs: Iterable[str]) -> List[float]:
        names, runs = set(names), set(runs)
        return [s.duration for s in self.spans if s.name in names and s.run in runs]

    def dump(self, path: str) -> None:
        """One JSON object per span, then one per (run, counter)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run,
                }) + "\n")
            for (run, name), value in sorted(self.counts.items()):
                fh.write(json.dumps({"run": run, "count": name, "value": value}) + "\n")
