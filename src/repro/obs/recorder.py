"""Span-tree recorder with counters and gauges.

A :class:`Recorder` is handed to a miner (or engine) for one run and
collects:

* a tree of :class:`Span` records — nested timed scopes opened with
  ``with recorder.span(name, **attrs):`` — timed through the
  :mod:`repro.obs.clock` seam;
* flat integer ``counters`` (monotone accumulators: candidates counted,
  trie nodes, shards dispatched) and float ``gauges`` (last-write-wins
  readings: selected thread count, kernel milliseconds);

Spans balance under exceptions (the context manager closes the span in
``__exit__`` and marks it errored), so a faulted run still yields a
well-formed tree.  Span retention is bounded by ``max_spans``; beyond
the cap new spans are timed but dropped from the tree (counted in
``dropped_spans``) so a long stream cannot grow memory without bound,
while counters keep accumulating exactly.

:class:`NullRecorder` is the zero-cost default: every method is a
no-op, ``span`` returns one shared inert context manager, and the
``telemetry_overhead`` bench series gates that instrumented-but-disabled
code stays within 1% of its pre-instrumentation timing.  Instrumented
call sites guard any non-trivial attribute computation behind
``recorder.enabled``.

Thread/process rules: a recorder belongs to the parent process and is
single-threaded — worker processes are never instrumented (shard work
is observed from the parent side of the pool), and anything recorded
from a pool completion callback is aggregated into plain lists first
and folded into the recorder on the owning thread.
"""

from __future__ import annotations

from typing import Any

from repro.obs import clock

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "resolve_recorder",
]


class Span:
    """One timed scope: name, attributes, children, relative timings.

    ``start_s`` is seconds since the owning recorder's epoch (the
    recorder's construction instant), ``duration_s`` is filled at scope
    exit (-1.0 while open), and ``error`` marks scopes closed by an
    exception.  ``attrs`` is a plain mutable dict, so instrumentation
    may annotate a span after the scope closed (e.g. per-shard timing
    aggregated once a dispatch completes).
    """

    __slots__ = ("name", "attrs", "start_s", "duration_s", "children", "error")

    def __init__(self, name: str, attrs: "dict[str, Any]", start_s: float) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.duration_s = -1.0
        self.children: "list[Span]" = []
        self.error = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration_s:.6f}s" if self.duration_s >= 0 else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


class _SpanScope:
    """Context manager returned by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        rec = self._recorder
        span = self._span
        if rec._n_spans < rec.max_spans:
            parent = rec._stack[-1] if rec._stack else None
            (parent.children if parent is not None else rec.roots).append(span)
            rec._n_spans += 1
        else:
            # over budget: the span still times and balances, but stays
            # off the tree (its children land on it and are discarded
            # with it) — bounded retention for unbounded streams
            rec.dropped_spans += 1
        rec._stack.append(span)
        span.start_s = clock.now() - rec._epoch
        return span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        rec = self._recorder
        span = rec._stack.pop()
        span.duration_s = clock.now() - rec._epoch - span.start_s
        if exc_type is not None:
            span.error = True
        return False


class Recorder:
    """Collects one run's span tree, counters, and gauges.

    One recorder observes one logical run (a ``mine()`` call, a
    consumed stream); hand a fresh instance to each
    run whose trace should stand alone.  ``balanced`` is True whenever
    no span is currently open — after any completed run, including runs
    that raised, the tree must be balanced (tested under injected
    faults).
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self.roots: "list[Span]" = []
        self.counters: "dict[str, int]" = {}
        self.gauges: "dict[str, float]" = {}
        self.dropped_spans = 0
        self._stack: "list[Span]" = []
        self._n_spans = 0
        self._epoch = clock.now()

    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """Open a nested timed scope: ``with rec.span("level", level=2):``."""
        return _SpanScope(self, Span(name, attrs, 0.0))

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the integer counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the last-write-wins gauge ``name``."""
        self.gauges[name] = float(value)

    def annotate(self, **attrs: Any) -> None:
        """Merge ``attrs`` into the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    @property
    def balanced(self) -> bool:
        """True when every opened span has been closed."""
        return not self._stack

    @property
    def n_spans(self) -> int:
        """Spans retained on the tree (dropped spans excluded)."""
        return self._n_spans

    def walk(self) -> "list[Span]":
        """Every retained span, preorder."""
        out: "list[Span]" = []
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(span.children))
        return out


class _NullSpanScope:
    """Shared inert span scope — allocation-free on the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanScope":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    # inert stand-ins for the Span surface instrumentation touches;
    # attrs hands out a throwaway dict so stray writes cannot leak
    # into shared state
    @property
    def attrs(self) -> "dict[str, Any]":
        return {}

    @property
    def duration_s(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpanScope()


class NullRecorder:
    """The zero-cost disabled recorder (shared default).

    Every method no-ops; ``span`` hands back one shared inert scope.
    Instrumented code may call it unconditionally — the bench gate
    holds the disabled path to <1% overhead — but should guard any
    expensive attribute computation behind ``recorder.enabled``.
    """

    enabled = False
    # class-level empty views so report-building code can read the same
    # surface off either recorder type without isinstance checks
    roots: "tuple[Span, ...]" = ()
    counters: "dict[str, int]" = {}
    gauges: "dict[str, float]" = {}
    dropped_spans = 0
    balanced = True
    n_spans = 0

    def span(self, name: str, **attrs: Any) -> _NullSpanScope:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass

    def walk(self) -> "list[Span]":
        return []


#: the shared disabled recorder every uninstrumented run records into
NULL_RECORDER = NullRecorder()


def resolve_recorder(recorder: "Recorder | NullRecorder | None") -> "Recorder | NullRecorder":
    """``None`` -> the shared :data:`NULL_RECORDER`; else the recorder."""
    return NULL_RECORDER if recorder is None else recorder
