"""In-memory span tracing around calls into twisim's modules.

Spans are recorded from the benchmark's side by replacing a module function
with a wrapper wherever it is looked up: ``twisim.mc`` imports ``sample``
and ``chunk_rng`` by name, so patching ``twisim.core`` alone would miss its
calls.  A function that no longer exists is reported as absent, and so is a
counter whose callback fails on a changed signature.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str


_INHERIT = object()


class Tracer:
    """Collects spans and counters for one traced pass.

    Each thread keeps its own stack of open spans; work handed to a pool
    thread names its parent explicitly.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.broken: set[str] = set()  # probe keys whose counter callback failed
        self.memo: dict = {}  # lets a counter callback reuse work within the pass
        self.run = ""  # id shared by the spans of one command
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable, args, kwargs, parent=_INHERIT):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        if parent is _INHERIT:
            parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.run))

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that child spans
    cover.  Children running in parallel threads may overlap; the union of
    their intervals, clipped to the parent, is what is subtracted."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass(frozen=True)
class Probe:
    """A twisim function to wrap.

    ``span`` names the span recorded around each call; None records no span
    and only applies ``count``.  ``count(args, kwargs, result, memo)``
    returns counter increments; memo is the tracer's per-pass scratch dict.
    ``span_first_arg`` names a span recorded around every call of the
    callable passed as first argument, in whatever thread runs it, with the
    probe's own span as parent.
    """

    module: str
    attr: str
    span: Optional[str] = None
    count: Optional[Callable] = None
    span_first_arg: Optional[str] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    def counted(args, kwargs, result):
        try:
            increments = probe.count(args, kwargs, result, tracer.memo)
        except Exception:  # a changed signature: report the counter absent
            tracer.broken.add(probe.key)
        else:
            tracer.add(increments)

    if probe.span is None:

        @functools.wraps(original)
        def count_only(*args, **kwargs):
            result = original(*args, **kwargs)
            counted(args, kwargs, result)
            return result

        return count_only

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if probe.span_first_arg is not None and args:
            fn = args[0]

            def run(*rest, **kw):
                parent = tracer.current()  # this probe's own span

                def traced_fn(*a, **akw):
                    return tracer.call(probe.span_first_arg, fn, a, akw, parent=parent)

                return original(traced_fn, *rest, **kw)

            result = tracer.call(probe.span, run, args[1:], kwargs)
        else:
            result = tracer.call(probe.span, original, args, kwargs)
        if probe.count is not None:
            # Counting runs in a span of its own so that its cost is not
            # charged to the self time of the caller.
            tracer.call("trace.count", counted, (args, kwargs, result), {})
        return result

    return wrapper


class Installed:
    """Probes patched into every loaded twisim module; undo with restore()."""

    def __init__(self, tracer: Tracer, probes: tuple[Probe, ...]) -> None:
        self.absent: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "twisim" or n.startswith("twisim."))
        ]
        for probe in probes:
            original = getattr(sys.modules.get(probe.module), probe.attr, None)
            if not callable(original):
                self.absent.add(probe.key)
                continue
            wrapper = _wrap(tracer, probe, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
