"""Fault-injection enforcement suite for the resilience layer.

Every test here injects a deterministic failure through
:mod:`repro.resilience.faults` — a worker crash on a chosen shard
submission, a hung shard, a refused pool spawn, a torn or corrupted
checkpoint — and asserts the recovery is *exact*: counts identical to
the scalar oracle, resumed streams bit-identical to uninterrupted ones,
and every recovery decision surfaced as a structured
:class:`~repro.resilience.supervisor.DegradationEvent`.  This is the
enforcement suite for ROADMAP's failure-semantics contract; CI runs it
under a hard ``pytest-timeout`` ceiling so a supervision deadlock fails
instead of wedging the job.
"""

import json

import numpy as np
import pytest

from repro.data.io import save_database
from repro.errors import CheckpointError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.engines import ShardedEngine, get_engine
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy
from repro.mining.trie import CandidateTrie
from repro.resilience import faults
from repro.resilience.atomic import atomic_open, atomic_write_text
from repro.resilience.faults import FaultPlan, ShardFault
from repro.resilience.supervisor import BackoffPolicy
from repro.streaming import StreamingMiner, read_checkpoint, write_checkpoint
from repro.streaming.sources import FileStreamSource

ALPHA = Alphabet.of_size(6)

#: six length-2 episodes with six distinct first symbols — six root
#: subtrees, so three workers get three subtree shards on the episode
#: axis (n_eps >= workers keeps the batch on the episode split)
MATRIX = np.array(
    [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]], dtype=np.uint8
)
TRIE = CandidateTrie.from_matrix(MATRIX)

POLICIES = [
    (MatchPolicy.RESET, None),
    (MatchPolicy.SUBSEQUENCE, None),
    (MatchPolicy.EXPIRING, 4),
]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """A test bailing mid-injection must not poison its neighbors."""
    faults.clear_plan()
    yield
    faults.clear_plan()


def make_db(n=1200, seed=7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, ALPHA.size, size=n).astype(np.uint8)


def fresh_engine(**kw) -> ShardedEngine:
    kw.setdefault("inner", "scalar-oracle")
    kw.setdefault("workers", 3)
    kw.setdefault("min_shard_work", 0)
    # base_s=0 keeps the seeded-backoff path exercised without sleeping
    kw.setdefault("backoff", BackoffPolicy(base_s=0.0))
    return ShardedEngine(**kw)


def oracle(db, policy, window=None) -> np.ndarray:
    return get_engine("scalar-oracle").count_batch(
        db, TRIE, ALPHA.size, policy, window
    )


def kinds(events) -> list:
    return [e.kind for e in events]


class TestSupervisedShards:
    """Injected pool failures recover exactly; events tell the story."""

    def test_worker_crash_episode_axis_exact(self):
        db = make_db()
        engine = fresh_engine()
        expected = oracle(db, MatchPolicy.SUBSEQUENCE)
        with faults.inject(FaultPlan(shard_faults={1: ShardFault("crash")})) as plan:
            with engine:
                got = engine.count_batch(db, TRIE, ALPHA.size,
                                   MatchPolicy.SUBSEQUENCE)
        np.testing.assert_array_equal(got, expected)
        assert plan.fired == [("crash", 1)]
        respawns = [e for e in engine.events if e.kind == "pool-respawn"]
        assert len(respawns) == 1 and respawns[0].attempt == 1

    def test_worker_crash_reset_database_axis_exact(self):
        db = make_db(seed=11)
        engine = fresh_engine()
        expected = oracle(db, MatchPolicy.RESET)
        with faults.inject(FaultPlan(shard_faults={2: ShardFault("crash")})):
            with engine:
                got = engine.count_batch(
                    db, TRIE, ALPHA.size, MatchPolicy.RESET
                )
        np.testing.assert_array_equal(got, expected)
        assert "pool-respawn" in kinds(engine.events)

    def test_worker_crash_database_carry_exact(self):
        # two episodes for three workers: narrower than the pool, so the
        # batch takes the database axis (one summary shard per segment)
        db = make_db(seed=13)
        engine = fresh_engine()
        narrow = CandidateTrie.from_matrix(MATRIX[:2])
        expected = get_engine("scalar-oracle").count_batch(
            db, narrow, ALPHA.size, MatchPolicy.EXPIRING, 4
        )
        with faults.inject(FaultPlan(shard_faults={1: ShardFault("crash")})):
            with engine:
                got = engine.count_batch(db, narrow, ALPHA.size,
                                   MatchPolicy.EXPIRING, window=4)
        np.testing.assert_array_equal(got, expected)
        assert "pool-respawn" in kinds(engine.events)

    def test_only_unfinished_shards_redispatched(self):
        db = make_db(seed=17)
        engine = fresh_engine()
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("crash")})) as plan:
            with engine:
                got = engine.count_batch(db, TRIE, ALPHA.size,
                                   MatchPolicy.SUBSEQUENCE)
        np.testing.assert_array_equal(got, oracle(db, MatchPolicy.SUBSEQUENCE))
        # episode axis with 3 workers = 3 first-wave submissions; the
        # respawn re-dispatches exactly the shards the event records
        (respawn,) = [e for e in engine.events if e.kind == "pool-respawn"]
        assert 1 <= len(respawn.shards) <= 3
        assert plan.submissions == 3 + len(respawn.shards)

    def test_hung_shard_reclaimed_exact(self):
        db = make_db(seed=19)
        engine = fresh_engine(shard_deadline_s=0.25)
        with faults.inject(
            FaultPlan(shard_faults={1: ShardFault("hang", hang_s=3.0)})
        ):
            with engine:
                got = engine.count_batch(db, TRIE, ALPHA.size,
                                   MatchPolicy.SUBSEQUENCE)
        np.testing.assert_array_equal(got, oracle(db, MatchPolicy.SUBSEQUENCE))
        (reclaim,) = [e for e in engine.events if e.kind == "shard-reclaimed"]
        assert len(reclaim.shards) >= 1
        # the poisoned pool was abandoned, not kept for the scope
        assert not engine.pool_active

    def test_pool_spawn_failure_degrades_exact(self):
        db = make_db(seed=23)
        engine = fresh_engine()
        with faults.inject(FaultPlan(pool_spawn_failures=1)) as plan:
            with engine:
                got = engine.count_batch(db, TRIE, ALPHA.size,
                                   MatchPolicy.SUBSEQUENCE)
                # the scope is pinned to the single-process chain now;
                # later calls stay exact without retrying the spawn
                again = engine.count_batch(db, TRIE, ALPHA.size,
                                     MatchPolicy.RESET)
        np.testing.assert_array_equal(got, oracle(db, MatchPolicy.SUBSEQUENCE))
        np.testing.assert_array_equal(again, oracle(db, MatchPolicy.RESET))
        assert kinds(engine.events) == ["pool-spawn-failed", "degraded"]
        assert plan.fired == [("pool-spawn", -1)]

    def test_repeated_crashes_exhaust_budget_and_degrade(self):
        db = make_db(seed=29)
        engine = fresh_engine()  # max_pool_respawns=1
        crash = {k: ShardFault("crash") for k in (0, 3, 4, 5)}
        with faults.inject(FaultPlan(shard_faults=crash)):
            with engine:
                got = engine.count_batch(db, TRIE, ALPHA.size,
                                   MatchPolicy.SUBSEQUENCE)
        np.testing.assert_array_equal(got, oracle(db, MatchPolicy.SUBSEQUENCE))
        ks = kinds(engine.events)
        assert "pool-respawn" in ks
        (degraded,) = [e for e in engine.events if e.kind == "degraded"]
        assert degraded.attempt == 2  # second failure broke the budget

    def test_mapper_exception_propagates_unretried(self):
        db = make_db(seed=31)
        engine = fresh_engine()
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("raise")})):
            with engine:
                with pytest.raises(RuntimeError, match="injected mapper fault"):
                    engine.count_batch(db, TRIE, ALPHA.size,
                                 MatchPolicy.SUBSEQUENCE)
        # a mapper bug is not infrastructure failure: nothing respawned
        assert "pool-respawn" not in kinds(engine.events)

    def test_unscoped_call_recovers_from_crash(self):
        db = make_db(seed=37)
        engine = fresh_engine()
        with faults.inject(FaultPlan(shard_faults={1: ShardFault("crash")})):
            got = engine.count_batch(
                db, TRIE, ALPHA.size, MatchPolicy.SUBSEQUENCE
            )
        np.testing.assert_array_equal(got, oracle(db, MatchPolicy.SUBSEQUENCE))
        assert "pool-respawn" in kinds(engine.events)

    def test_events_reset_when_new_scope_opens(self):
        db = make_db(200, seed=41)
        engine = fresh_engine()
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("crash")})):
            with engine:
                engine.count_batch(
                    db, TRIE, ALPHA.size, MatchPolicy.SUBSEQUENCE
                )
        assert engine.events
        with engine:
            pass
        assert engine.events == []

    def test_miner_surfaces_degradation_events(self):
        db = make_db(seed=43)
        engine = fresh_engine()
        miner = FrequentEpisodeMiner(
            ALPHA, 0.01, policy=MatchPolicy.SUBSEQUENCE, engine=engine,
            max_level=2,
        )
        reference = FrequentEpisodeMiner(
            ALPHA, 0.01, policy=MatchPolicy.SUBSEQUENCE,
            engine="scalar-oracle", max_level=2,
        ).mine(db)
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("crash")})):
            result = miner.mine(db)
        assert result.levels == reference.levels
        assert "pool-respawn" in kinds(miner.degradation_events)

    def test_stream_update_surfaces_events(self):
        db = make_db(600, seed=47)
        engine = fresh_engine()
        miner = StreamingMiner(ALPHA, 0.02, policy=MatchPolicy.RESET,
                               engine=engine, max_level=2)
        reference = StreamingMiner(ALPHA, 0.02, policy=MatchPolicy.RESET,
                                   engine="scalar-oracle", max_level=2)
        reference.update(db)
        with faults.inject(FaultPlan(shard_faults={0: ShardFault("crash")})):
            update = miner.update(db)
        assert miner.result().levels == reference.result().levels
        assert "pool-respawn" in kinds(update.events)


class TestCheckpointResume:
    """Kill-then-resume is bit-identical at any chunk boundary."""

    CHUNK = 150  # 6 chunks over the 900-event feed

    def chunks(self, db):
        return [db[lo: lo + self.CHUNK]
                for lo in range(0, db.size, self.CHUNK)]

    def run_config(self, policy, window, mode="landmark", horizon=None):
        return dict(policy=policy, window=window, engine="scalar-oracle",
                    mode=mode, horizon=horizon, max_level=3)

    @pytest.mark.parametrize("policy,window", POLICIES)
    @pytest.mark.parametrize("kill_after", [0, 1, 3])
    def test_resume_matches_uninterrupted(self, tmp_path, policy, window,
                                          kill_after):
        db = make_db(900, seed=53)
        chunks = self.chunks(db)
        cfg = self.run_config(policy, window)
        full = StreamingMiner(ALPHA, 0.03, **cfg)
        for chunk in chunks:
            full.update(chunk)
        killed = StreamingMiner(ALPHA, 0.03, **cfg)
        for chunk in chunks[:kill_after]:
            killed.update(chunk)
        path = killed.checkpoint(tmp_path / "ck.npz")
        resumed = StreamingMiner.resume(path)
        assert resumed.chunk_index == kill_after
        for chunk in chunks[kill_after:]:
            resumed.update(chunk)
        assert resumed.result().levels == full.result().levels
        assert resumed.total_events == full.total_events
        assert resumed.chunk_index == full.chunk_index

    def test_windowed_mode_roundtrip(self, tmp_path):
        db = make_db(900, seed=59)
        chunks = self.chunks(db)
        cfg = self.run_config(MatchPolicy.SUBSEQUENCE, None,
                              mode="windowed", horizon=300)
        full = StreamingMiner(ALPHA, 0.03, **cfg)
        killed = StreamingMiner(ALPHA, 0.03, **cfg)
        for chunk in chunks:
            full.update(chunk)
        for chunk in chunks[:2]:
            killed.update(chunk)
        resumed = StreamingMiner.resume(killed.checkpoint(tmp_path / "w.npz"))
        for chunk in chunks[2:]:
            resumed.update(chunk)
        assert resumed.result().levels == full.result().levels
        assert resumed.total_events == full.total_events

    def test_resumed_checkpoint_is_byte_stable(self, tmp_path):
        """checkpoint -> resume -> checkpoint reproduces the state."""
        db = make_db(600, seed=61)
        miner = StreamingMiner(
            ALPHA, 0.03, **self.run_config(MatchPolicy.RESET, None)
        )
        for chunk in self.chunks(db):
            miner.update(chunk)
        first = miner.checkpoint(tmp_path / "a.npz")
        resumed = StreamingMiner.resume(first)
        second = resumed.checkpoint(tmp_path / "b.npz")
        meta_a, arrays_a = read_checkpoint(first)
        meta_b, arrays_b = read_checkpoint(second)
        assert meta_a == meta_b
        assert sorted(arrays_a) == sorted(arrays_b)
        for name in arrays_a:
            np.testing.assert_array_equal(arrays_a[name], arrays_b[name])

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            StreamingMiner.resume(tmp_path / "nope.npz")

    @pytest.mark.parametrize("damage", ["torn", "corrupt"])
    def test_damaged_checkpoint_raises(self, tmp_path, damage):
        miner = StreamingMiner(
            ALPHA, 0.03, **self.run_config(MatchPolicy.RESET, None)
        )
        miner.update(make_db(300, seed=67))
        path = tmp_path / f"{damage}.npz"
        with faults.inject(FaultPlan(checkpoint_fault=damage)) as plan:
            miner.checkpoint(path)
        assert plan.fired == [(f"checkpoint-{damage}", -1)]
        with pytest.raises(CheckpointError):
            StreamingMiner.resume(path)

    def _rewrite_raw(self, path, meta, arrays):
        """Re-serialize a checkpoint bypassing the digest stamping."""
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)

    def test_digest_mismatch_raises(self, tmp_path):
        miner = StreamingMiner(
            ALPHA, 0.03, **self.run_config(MatchPolicy.RESET, None)
        )
        miner.update(make_db(300, seed=71))
        path = miner.checkpoint(tmp_path / "tamper.npz")
        meta, arrays = read_checkpoint(path)
        meta["progress"]["total_events"] += 1  # stale digest now lies
        self._rewrite_raw(path, meta, arrays)
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_schema_mismatch_raises(self, tmp_path):
        path = write_checkpoint(
            tmp_path / "schema.npz", {"kind": "stream-miner"},
            {"prefix": np.zeros(3, dtype=np.uint8)},
        )
        meta, arrays = read_checkpoint(path)
        meta["schema"] = 99
        self._rewrite_raw(path, meta, arrays)
        with pytest.raises(CheckpointError, match="schema"):
            read_checkpoint(path)

    def test_schema_1_rejected_with_migration_hint(self, tmp_path):
        """Pre-position-hop checkpoints (schema 1) must fail loudly
        with a re-run hint — their retained prefix was unconditionally
        the whole stream, so resuming them under the schema-2 retention
        semantics could silently mis-count."""
        miner = StreamingMiner(
            ALPHA, 0.03, **self.run_config(MatchPolicy.RESET, None)
        )
        miner.update(make_db(300, seed=73))
        path = miner.checkpoint(tmp_path / "old.npz")
        meta, arrays = read_checkpoint(path)
        meta["schema"] = 1
        self._rewrite_raw(path, meta, arrays)
        with pytest.raises(CheckpointError, match="re-run the stream"):
            StreamingMiner.resume(path)

    def test_wrong_kind_raises(self, tmp_path):
        path = write_checkpoint(tmp_path / "kind.npz", {"kind": "other"}, {})
        with pytest.raises(CheckpointError, match="not a stream-miner"):
            StreamingMiner.resume(path)

    def test_meta_member_name_reserved(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            write_checkpoint(
                tmp_path / "r.npz", {}, {"meta": np.zeros(1)}
            )


class TestAtomicWrites:
    """Interrupted writes leave the previous file byte-intact."""

    def test_failed_write_leaves_target_intact(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("old and complete")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_open(path) as fh:
                fh.write("new but torn")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old and complete"
        assert list(tmp_path.glob("*.tmp")) == []  # temp cleaned up

    def test_atomic_write_text_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_append_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="atomic_open"):
            with atomic_open(tmp_path / "x", "a"):
                pass  # pragma: no cover - context never entered


class TestFileStreamSourceErrors:
    """Mid-feed I/O failures name the file (and where it died)."""

    def test_missing_file_raises_validation_error(self, tmp_path):
        source = FileStreamSource(tmp_path / "missing.npy")
        with pytest.raises(ValidationError, match="missing.npy"):
            list(source.chunks())

    def test_truncated_npy_raises_validation_error(self, tmp_path):
        path = save_database(tmp_path / "feed.npy", make_db(500, seed=73))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        source = FileStreamSource(path, chunk_size=100)
        with pytest.raises(ValidationError,
                           match="unreadable or truncated"):
            list(source.chunks())
