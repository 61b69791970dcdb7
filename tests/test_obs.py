"""Tests for the run-telemetry layer (:mod:`repro.obs`).

The observability contract (CONTRACTS.md): recorders balance their span
tree under any exit path — including injected pool faults — reports
round-trip through the schema-checked artifact loader, counters are
purely structural (identical across repeated seeded runs), and the
:class:`~repro.obs.recorder.NullRecorder` default records nothing and
allocates nothing per call.
"""

import numpy as np
import pytest

from repro.errors import ArtifactError
from repro.mining.alphabet import Alphabet
from repro.mining.engines import ShardedEngine
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy
from repro.mining.trie import CandidateTrie
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    resolve_recorder,
)
from repro.obs.report import REPORT_KIND, REPORT_SCHEMA, RunReport
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, ShardFault
from repro.resilience.supervisor import BackoffPolicy
from repro.streaming import StreamingMiner

ALPHA = Alphabet.of_size(6)

#: six root subtrees: three subtree shards on three workers
TRIE = CandidateTrie.from_matrix(np.array(
    [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]], dtype=np.uint8
))


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def make_db(n=1500, seed=9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, ALPHA.size, size=n).astype(np.uint8)


class TestRecorder:
    def test_span_tree_nesting_and_balance(self):
        rec = Recorder()
        with rec.span("mine", events=10):
            with rec.span("level", level=1) as sp:
                sp.attrs["frequent"] = 3
            with rec.span("level", level=2):
                pass
        assert rec.balanced
        (root,) = rec.roots
        assert root.name == "mine" and root.attrs == {"events": 10}
        assert [c.name for c in root.children] == ["level", "level"]
        assert root.children[0].attrs["frequent"] == 3
        assert all(s.duration_s >= 0.0 for s in rec.walk())
        # children are timed inside the parent scope
        assert root.duration_s >= sum(c.duration_s for c in root.children)

    def test_spans_balance_and_mark_error_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("mine"):
                with rec.span("level"):
                    raise RuntimeError("boom")
        assert rec.balanced
        (root,) = rec.roots
        assert root.error and root.children[0].error
        assert root.duration_s >= 0.0  # closed despite the raise

    def test_counters_and_gauges(self):
        rec = Recorder()
        rec.count("cache.hits")
        rec.count("cache.hits", 4)
        rec.gauge("threads", 128)
        rec.gauge("threads", 256)
        assert rec.counters == {"cache.hits": 5}
        assert rec.gauges == {"threads": 256.0}

    def test_annotate_targets_innermost_open_span(self):
        rec = Recorder()
        rec.annotate(ignored=True)  # no open span: silently dropped
        with rec.span("outer"):
            with rec.span("inner"):
                rec.annotate(path="incremental")
        outer, inner = rec.walk()
        assert "path" not in outer.attrs and inner.attrs["path"] == "incremental"

    def test_bounded_retention_drops_but_still_balances(self):
        rec = Recorder(max_spans=2)
        for i in range(5):
            with rec.span("chunk", index=i):
                pass
        assert rec.balanced
        assert rec.n_spans == 2 and rec.dropped_spans == 3
        assert len(rec.roots) == 2
        # counters are exempt from the span budget
        rec.count("stream.chunks", 5)
        assert rec.counters["stream.chunks"] == 5

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            Recorder(max_spans=0)


class TestNullRecorder:
    def test_records_nothing(self):
        rec = NullRecorder()
        with rec.span("mine", events=10) as sp:
            sp.attrs["leak"] = True  # lands in a throwaway dict
            rec.count("cache.hits", 3)
            rec.gauge("threads", 64)
            rec.annotate(path="x")
        assert not rec.enabled
        assert rec.counters == {} and rec.gauges == {}
        assert rec.walk() == [] and list(rec.roots) == []
        assert rec.balanced and rec.dropped_spans == 0
        # the throwaway attrs dict must not be shared between scopes
        assert "leak" not in rec.span("again").attrs

    def test_span_scope_is_shared_and_allocation_free(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b", attrs=1)

    def test_resolve_recorder(self):
        assert resolve_recorder(None) is NULL_RECORDER
        live = Recorder()
        assert resolve_recorder(live) is live
        assert resolve_recorder(NULL_RECORDER) is NULL_RECORDER


class TestMinerTelemetry:
    def mine(self, recorder, db=None, **kw):
        kw.setdefault("policy", MatchPolicy.SUBSEQUENCE)
        kw.setdefault("engine", "position-hop")
        kw.setdefault("max_level", 3)
        miner = FrequentEpisodeMiner(ALPHA, 0.01, recorder=recorder, **kw)
        miner.mine(make_db() if db is None else db)
        return miner

    def test_recorded_run_builds_report(self):
        rec = Recorder()
        miner = self.mine(rec)
        assert rec.balanced
        report = miner.last_report
        assert report is not None and report.command == "mine"
        (root,) = report.spans
        assert root["name"] == "mine"
        levels = [s for s in report.iter_spans() if s["name"] == "level"]
        assert len(levels) == report.counters["mine.levels"] >= 1
        assert report.counters["mine.candidates"] > 0
        # per-level durations nest inside the root's wall time
        assert sum(s["duration_s"] for s in levels) <= report.wall_s
        assert report.calibration is not None
        # batch mining counts without a count cache: nothing to report
        assert report.cache is None
        assert not any(k.startswith("cache.") for k in report.counters)
        phases = dict(
            (name, pct) for name, _, _, pct in report.phase_rows()
        )
        assert phases["mine"] == pytest.approx(100.0)

    def test_unrecorded_run_has_no_report(self):
        miner = self.mine(None)
        assert miner.last_report is None

    def test_engine_recorder_reset_after_run(self):
        rec = Recorder()
        miner = self.mine(rec)
        # registry engines are shared singletons: a finished run must
        # never leave its recorder attached
        assert miner._engine.engine.recorder is NULL_RECORDER

    def test_counters_are_deterministic_across_runs(self):
        db = make_db(seed=21)
        reports = []
        for _ in range(2):
            rec = Recorder()
            reports.append(self.mine(rec, db=db).last_report)
        a, b = reports
        assert a.counters == b.counters
        assert a.meta["levels"] == b.meta["levels"]

    def test_spans_balance_under_injected_shard_faults(self):
        rec = Recorder()
        engine = ShardedEngine(
            inner="scalar-oracle", workers=3, min_shard_work=0,
            backoff=BackoffPolicy(base_s=0.0),
        )
        engine.set_recorder(rec)
        db = make_db(seed=27)
        with faults.inject(FaultPlan(shard_faults={1: ShardFault("crash")})):
            with engine:
                engine.count_batch(
                    db, TRIE, ALPHA.size, MatchPolicy.SUBSEQUENCE
                )
        assert rec.balanced
        dispatches = [s for s in rec.walk() if s.name == "shard-dispatch"]
        assert dispatches
        folded = [
            k for s in dispatches
            for k in s.attrs.get("degradation_events", ())
        ]
        assert "pool-respawn" in folded
        assert rec.counters["sharded.events.pool-respawn"] >= 1
        assert rec.counters["sharded.jobs"] >= 1

    def test_spans_balance_when_mapper_fault_propagates(self):
        rec = Recorder()
        engine = ShardedEngine(
            inner="scalar-oracle", workers=3, min_shard_work=0,
            backoff=BackoffPolicy(base_s=0.0),
        )
        engine.set_recorder(rec)
        db = make_db(seed=29)
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("raise")})):
            with engine:
                with pytest.raises(RuntimeError, match="injected mapper fault"):
                    engine.count_batch(
                        db, TRIE, ALPHA.size, MatchPolicy.SUBSEQUENCE
                    )
        assert rec.balanced
        assert any(s.error for s in rec.walk() if s.name == "shard-dispatch")


class TestStreamingTelemetry:
    def test_chunk_spans_and_counters(self):
        rng = np.random.default_rng(31)
        db = rng.integers(0, ALPHA.size, 600).astype(np.uint8)
        rec = Recorder()
        miner = StreamingMiner(
            ALPHA, 0.01, policy=MatchPolicy.SUBSEQUENCE, engine="auto",
            max_level=2, recorder=rec,
        )
        for chunk in np.array_split(db, 4):
            miner.update(chunk)
        assert rec.balanced
        report = miner.last_report
        assert report is not None and report.command == "stream"
        chunks = [s for s in report.iter_spans() if s["name"] == "chunk"]
        assert len(chunks) == 4 == report.counters["stream.chunks"]
        assert report.counters["stream.events_ingested"] == db.size
        assert all("path" in s["attrs"] for s in chunks)
        # every chunk took a recorded update path
        path_total = sum(
            v for k, v in report.counters.items()
            if k.startswith("stream.path.")
        )
        assert path_total == 4
        assert report.meta["total_events"] == db.size
        # streams count without a count cache: nothing to report
        assert report.cache is None

    def test_unrecorded_stream_has_no_report(self):
        miner = StreamingMiner(ALPHA, 0.1, max_level=2)
        miner.update(np.zeros(8, dtype=np.uint8))
        assert miner.last_report is None


class TestRunReportSerialization:
    def _report(self) -> RunReport:
        rec = Recorder()
        miner = FrequentEpisodeMiner(
            ALPHA, 0.01, policy=MatchPolicy.SUBSEQUENCE,
            engine="position-hop", max_level=2, recorder=rec,
        )
        miner.mine(make_db(seed=33))
        return miner.last_report

    def test_round_trip_through_artifact_loader(self, tmp_path):
        report = self._report()
        path = tmp_path / "trace.json"
        report.write(path)
        back = RunReport.read(path)
        assert back.to_payload() == report.to_payload()
        # wall_s is serialized at 9 dp, so percentages match to rounding
        for got, want in zip(back.phase_rows(), report.phase_rows()):
            assert got[:2] == want[:2]
            assert got[2] == pytest.approx(want[2])
            assert got[3] == pytest.approx(want[3])

    def test_truncated_file_is_structured_error(self, tmp_path):
        report = self._report()
        path = tmp_path / "trace.json"
        report.write(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactError):
            RunReport.read(path)

    def test_wrong_kind_rejected(self):
        payload = self._report().to_payload()
        payload["kind"] = "checkpoint"
        with pytest.raises(ArtifactError, match="not a run report"):
            RunReport.from_payload(payload)

    def test_future_schema_rejected_with_hint(self):
        payload = self._report().to_payload()
        payload["schema"] = REPORT_SCHEMA + 1
        with pytest.raises(ArtifactError, match="regenerate"):
            RunReport.from_payload(payload)

    def test_payload_is_pure_json(self, tmp_path):
        import json

        payload = self._report().to_payload()
        assert payload["kind"] == REPORT_KIND
        # numpy scalars must have been coerced on the way in
        json.dumps(payload)
