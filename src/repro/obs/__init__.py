"""Run-scoped observability: spans, counters, and structured reports.

The telemetry substrate the multi-dimensional characterization needs at
*runtime* (ROADMAP items 2 and 4): a :class:`Recorder` collects a span
tree with monotonic timings plus structural counters/gauges while a
mining or streaming run executes, and a :class:`RunReport` serializes
the result — spans, counters, degradation events — through the atomic
artifact layer with a versioned schema.

Design rules (see CONTRACTS.md · Observability contract):

* every timing read goes through :mod:`repro.obs.clock`, the single
  sanctioned seam (REP006 recognizes it; nothing else in the counting
  paths may touch the clock);
* telemetry is disabled by default: the shared :data:`NULL_RECORDER`
  no-ops every call, so uninstrumented behavior — and performance,
  gated by the ``telemetry_overhead`` bench series — is unchanged;
* recorders never cross a process boundary: worker processes are not
  instrumented, the parent observes shards from its side of the pool;
* counters and gauges are structural (candidate counts, trie nodes,
  selector choices — pure functions of the seeded input); wallclock
  lives only in span timings, so two seeded runs produce identical
  counters even though their spans time differently.
"""

from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    resolve_recorder,
)
from repro.obs.report import REPORT_SCHEMA, RunReport

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "REPORT_SCHEMA",
    "RunReport",
    "Span",
    "resolve_recorder",
]
