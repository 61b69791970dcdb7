"""Structured run reports: the serialized form of one run's telemetry.

A :class:`RunReport` snapshots a :class:`~repro.obs.recorder.Recorder`
plus the run's structural context — degradation events from the
supervised fleet, the ``calibration`` entry (``{"source": "none"}``
from the miners, whose dispatch is a fixed rule) and a ``cache`` entry
(``null``: no miner caches counts; both fields stay so schema-1 reports
keep loading) — into one JSON payload
with a versioned schema (:data:`REPORT_SCHEMA`).
Writes are atomic through :func:`repro.resilience.artifacts.
write_json_artifact`; reads route through ``read_json_artifact`` so a
truncated or wrong-schema file fails as a structured
:class:`~repro.errors.ArtifactError`, never as garbage.

Schema versioning: ``schema`` is bumped whenever a field changes
meaning or shape; readers reject other versions with a regeneration
hint rather than guessing (the checkpoint-schema precedent).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ArtifactError
from repro.obs import clock
from repro.obs.recorder import NullRecorder, Recorder, Span
from repro.resilience.artifacts import read_json_artifact, write_json_artifact

__all__ = ["REPORT_SCHEMA", "REPORT_KIND", "RunReport"]

#: current report schema; see module docstring for the bump policy
REPORT_SCHEMA = 1
#: artifact discriminator, so a report is never confused for a
#: checkpoint or a bench payload by key coincidence
REPORT_KIND = "repro-run-report"


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/containers to plain JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _span_payload(span: Span) -> "dict[str, Any]":
    return {
        "name": span.name,
        "start_s": round(span.start_s, 9),
        "duration_s": round(max(span.duration_s, 0.0), 9),
        "attrs": _jsonable(span.attrs),
        **({"error": True} if span.error else {}),
        "children": [_span_payload(c) for c in span.children],
    }


def _event_payload(event: Any) -> "dict[str, Any]":
    """Serialize a DegradationEvent (or an already-plain dict)."""
    if isinstance(event, Mapping):
        return dict(event)
    return {
        "kind": event.kind,
        "detail": event.detail,
        "shards": list(event.shards),
        "attempt": int(event.attempt),
    }


class RunReport:
    """One run's serialized telemetry (see module docstring)."""

    def __init__(
        self,
        command: str,
        wall_s: float,
        spans: "list[dict[str, Any]]",
        counters: "dict[str, int]",
        gauges: "dict[str, float]",
        degradation_events: "list[dict[str, Any]]",
        cache: "dict[str, int] | None" = None,
        calibration: "dict[str, Any] | None" = None,
        meta: "dict[str, Any] | None" = None,
        created_at: "str | None" = None,
        dropped_spans: int = 0,
    ) -> None:
        self.command = command
        self.wall_s = float(wall_s)
        self.spans = spans
        self.counters = counters
        self.gauges = gauges
        self.degradation_events = degradation_events
        self.cache = cache
        self.calibration = calibration
        self.meta = meta or {}
        self.created_at = created_at if created_at is not None else clock.utc_stamp()
        self.dropped_spans = int(dropped_spans)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_recorder(
        cls,
        recorder: "Recorder | NullRecorder",
        command: str,
        degradation_events: "Iterable[Any]" = (),
        calibration: "Mapping[str, Any] | None" = None,
        meta: "Mapping[str, Any] | None" = None,
    ) -> "RunReport":
        """Snapshot ``recorder`` (plus run context) into a report.

        ``wall_s`` is the summed duration of the root spans — for the
        instrumented miners there is exactly one root (the run scope),
        so it is the run's wall time.
        """
        roots = list(recorder.roots)
        wall_s = sum(max(s.duration_s, 0.0) for s in roots)
        return cls(
            command=command,
            wall_s=wall_s,
            spans=[_span_payload(s) for s in roots],
            counters=dict(recorder.counters),
            gauges={k: float(v) for k, v in recorder.gauges.items()},
            degradation_events=[_event_payload(e) for e in degradation_events],
            calibration=dict(calibration) if calibration is not None else None,
            meta=dict(meta) if meta is not None else None,
            dropped_spans=recorder.dropped_spans,
        )

    # -- (de)serialization ----------------------------------------------

    def to_payload(self) -> "dict[str, Any]":
        return {
            "schema": REPORT_SCHEMA,
            "kind": REPORT_KIND,
            "command": self.command,
            "created_at": self.created_at,
            "wall_s": round(self.wall_s, 9),
            "spans": self.spans,
            "counters": _jsonable(self.counters),
            "gauges": _jsonable(self.gauges),
            "degradation_events": [_jsonable(e) for e in self.degradation_events],
            "cache": _jsonable(self.cache),
            "calibration": _jsonable(self.calibration),
            "meta": _jsonable(self.meta),
            "dropped_spans": self.dropped_spans,
        }

    @classmethod
    def from_payload(cls, payload: "Mapping[str, Any]") -> "RunReport":
        kind = payload.get("kind")
        if kind != REPORT_KIND:
            raise ArtifactError(
                f"not a run report (kind={kind!r}, expected {REPORT_KIND!r})"
            )
        schema = payload.get("schema")
        if schema != REPORT_SCHEMA:
            raise ArtifactError(
                f"run report schema {schema!r} is not supported (this "
                f"build reads schema {REPORT_SCHEMA}); re-run the "
                "traced command to regenerate it"
            )
        return cls(
            command=str(payload.get("command", "")),
            wall_s=float(payload.get("wall_s", 0.0)),
            spans=list(payload.get("spans", [])),
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            degradation_events=list(payload.get("degradation_events", [])),
            cache=payload.get("cache"),
            calibration=payload.get("calibration"),
            meta=dict(payload.get("meta", {})),
            created_at=payload.get("created_at"),
            dropped_spans=int(payload.get("dropped_spans", 0)),
        )

    def write(self, path: "str | Path") -> Path:
        """Atomically write the report to ``path`` (REP002)."""
        return write_json_artifact(path, self.to_payload())

    @classmethod
    def read(cls, path: "str | Path") -> "RunReport":
        """Load and schema-validate a report written by :meth:`write`."""
        payload = read_json_artifact(
            path,
            expect_keys=("schema", "kind", "spans", "counters"),
            regenerate_hint="re-run the command with --trace to regenerate it",
        )
        return cls.from_payload(payload)

    # -- analysis --------------------------------------------------------

    def iter_spans(self) -> "Iterable[dict[str, Any]]":
        """Every span payload, preorder."""
        stack = list(reversed(self.spans))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.get("children", [])))

    def phase_rows(self) -> "list[tuple[str, int, float, float]]":
        """Aggregate spans by name: ``(phase, calls, total_s, pct_of_wall)``.

        Sorted by total duration, descending.  Nested spans both count
        (a ``level`` span's time is also inside its ``mine`` parent) —
        the table reads as "time attributable to each phase", not a
        partition.
        """
        totals: "dict[str, tuple[int, float]]" = {}
        for span in self.iter_spans():
            name = str(span.get("name", "?"))
            calls, total = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, total + float(span.get("duration_s", 0.0)))
        wall = self.wall_s
        rows = [
            (name, calls, total, (100.0 * total / wall) if wall > 0 else 0.0)
            for name, (calls, total) in totals.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows
