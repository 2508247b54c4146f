"""In-memory tracing for the benchmark's traced run.

Spans are recorded from outside the program: ``Probe`` replaces a public
function (or a store's ``__contains__``) on the module or class it is looked
up from at call time, and puts the original back on ``uninstall``.  The
end-to-end run never installs a probe.

Every wrapped call is a frame on one stack.  When a frame closes, its
duration is added to the child time of the frame below it, so
``self time = duration - time covered by child frames``.  Step-level calls
(``span=True``: losses, optimizer steps, eval passes, epochs) are kept as
individual spans with name, start, end and parent; per-example leaf calls
are only aggregated as count plus total and self time, keyed by name.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float


@dataclass
class Agg:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Stack of open frames, kept spans, leaf aggregates and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.aggs: dict[str, Agg] = {}
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self.quiet = False
        # frame: [name, start, child_s, span index or None]
        self._stack: list[list] = []

    @property
    def depth(self) -> int:
        """Number of open frames."""
        return len(self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str, span: bool) -> None:
        index = None
        if span:
            index = len(self.spans)
            self.spans.append(None)
        self._stack.append([name, self.clock(), 0.0, index])

    def close(self) -> float:
        end = self.clock()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Agg()
        agg.count += 1
        agg.total_s += duration
        agg.self_s += self_s
        if index is not None:
            self.spans[index] = Span(name, start, end, self._parent_span(), self_s)
        return duration

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextmanager
    def silenced(self):
        """Calls made inside run unrecorded (used by hooks that probe)."""
        self.quiet, before = True, self.quiet
        try:
            yield
        finally:
            self.quiet = before

    def agg(self, name: str) -> Agg:
        return self.aggs.get(name, Agg())

    def total(self, prefix: str) -> Agg:
        """Sum of the aggregates whose name is ``prefix`` or ``prefix.*``."""
        out = Agg()
        for name, a in self.aggs.items():
            if name == prefix or name.startswith(prefix + "."):
                out.count += a.count
                out.total_s += a.total_s
                out.self_s += a.self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent,
                                         "self_s": s.self_s}) + "\n")


@dataclass
class Target:
    """One public function to wrap.

    ``owner`` is the module or class the caller looks the name up on;
    ``key`` may return a suffix such as ``d300`` from the call arguments;
    ``hook(tracer, args, result)`` records counters after the call.  A hook
    that no longer fits the program's signature marks ``group`` missing.
    """

    owner: object
    attr: str
    name: str
    group: str
    span: bool = False
    key: Callable | None = None
    hook: Callable | None = None


class Probe:
    """Installs and removes wrappers for a list of targets."""

    def __init__(self, tracer: Tracer, targets: list[Target]):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for t in self.targets:
            original = t.owner.__dict__.get(t.attr, _MISSING) \
                if isinstance(t.owner, type) else getattr(t.owner, t.attr, _MISSING)
            if original is _MISSING or not callable(original):
                self.tracer.missing.add(t.group)
                continue
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, t: Target, original):
        tracer = self.tracer
        open_, close = tracer.open, tracer.close
        name, key, hook, span = t.name, t.key, t.hook, t.span

        def wrapper(*args, **kwargs):
            if tracer.quiet:
                return original(*args, **kwargs)
            full = name
            if key is not None:
                try:
                    full = f"{name}.{key(args)}"
                except (AttributeError, IndexError, TypeError):
                    tracer.missing.add(t.group)
            open_(full, span)
            try:
                result = original(*args, **kwargs)
            finally:
                close()
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except (AttributeError, IndexError, TypeError, KeyError):
                    tracer.missing.add(t.group)
            return result

        wrapper.__wrapped__ = original
        return wrapper
