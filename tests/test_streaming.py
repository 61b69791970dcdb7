"""Tests for the streaming episode-mining subsystem.

The acceptance criterion is *chunking invariance*: a
:class:`~repro.streaming.StreamingMiner` fed any chunking of an event
stream — randomized boundaries, size-0 and size-1 chunks included —
must produce exactly the result the batch miner computes over the
concatenated stream with the ``scalar-oracle`` engine, under all three
matching policies.  The property suite here asserts that, plus the
stream-source adapters, the state store's tracking lifecycle, windowed
mode, the ``mine_stream`` API, and the ``repro stream`` CLI.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.data.io import save_database
from repro.errors import ConfigError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.engines import PositionHopEngine, get_engine
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy
from repro.streaming import (
    ArrayStreamSource,
    EpisodeStateStore,
    FileStreamSource,
    IterableStreamSource,
    StreamingMiner,
    SyntheticStreamSource,
    as_stream_source,
)

POLICIES = [
    (MatchPolicy.RESET, None),
    (MatchPolicy.SUBSEQUENCE, None),
    (MatchPolicy.EXPIRING, 3),
]


def batch_mine(alphabet, db, threshold, policy, window, max_level=3,
               engine="scalar-oracle"):
    return FrequentEpisodeMiner(
        alphabet, threshold, policy=policy, window=window, engine=engine,
        max_level=max_level,
    ).mine(db)


def chunked(db, bounds):
    edges = [0] + sorted(bounds) + [db.size]
    return [db[a:b] for a, b in zip(edges[:-1], edges[1:])]


@st.composite
def stream_case(draw):
    alphabet_size = draw(st.integers(3, 6))
    events = draw(
        st.lists(st.integers(0, alphabet_size - 1), min_size=1, max_size=120)
    )
    db = np.array(events, dtype=np.uint8)
    n_cuts = draw(st.integers(0, 8))
    cuts = draw(
        st.lists(st.integers(0, db.size), min_size=n_cuts, max_size=n_cuts)
    )
    threshold = draw(st.sampled_from([0.0, 0.02, 0.08]))
    return alphabet_size, db, cuts, threshold


class TestChunkingInvariance:
    """Streaming == batch scalar-oracle, for any chunk boundaries."""

    @pytest.mark.parametrize("policy,window", POLICIES)
    @settings(max_examples=20, deadline=None)
    @given(case=stream_case())
    def test_final_result_matches_batch(self, policy, window, case):
        alphabet_size, db, cuts, threshold = case
        alphabet = Alphabet.of_size(alphabet_size)
        reference = batch_mine(alphabet, db, threshold, policy, window)
        miner = StreamingMiner(
            alphabet, threshold, policy=policy, window=window,
            engine="auto", max_level=3,
        )
        for chunk in chunked(db, cuts):
            miner.update(chunk)
        result = miner.result()
        assert result.threshold == reference.threshold
        assert result.levels == reference.levels

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_every_prefix_matches_batch(self, policy, window):
        """Not just the final answer: after *each* chunk the result is
        the batch result over the concatenated prefix."""
        rng = np.random.default_rng(13)
        alphabet = Alphabet.of_size(5)
        db = rng.integers(0, 5, 400).astype(np.uint8)
        bounds = [0, 60, 60, 61, 200, 399]  # empty + size-1 chunks
        miner = StreamingMiner(
            alphabet, 0.01, policy=policy, window=window,
            engine="auto", max_level=3,
        )
        seen = 0
        for chunk in chunked(db, bounds):
            miner.update(chunk)
            seen += chunk.size
            if seen == 0:
                assert miner.result().levels == ()  # nothing to mine yet
                continue
            reference = batch_mine(alphabet, db[:seen], 0.01, policy, window)
            assert miner.result().levels == reference.levels

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_single_event_chunks(self, policy, window):
        rng = np.random.default_rng(3)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 60).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.0, policy=policy, window=window,
            engine="auto", max_level=3,
        )
        for event in db:
            miner.update(np.array([event], dtype=np.uint8))
        reference = batch_mine(alphabet, db, 0.0, policy, window)
        assert miner.result().levels == reference.levels

    @pytest.mark.parametrize(
        "engine", ["scalar-oracle", "vector-sweep", "position-hop", "gpu-sim"]
    )
    def test_engine_choice_never_changes_results(self, engine):
        rng = np.random.default_rng(9)
        alphabet = Alphabet.of_size(5)
        db = rng.integers(0, 5, 300).astype(np.uint8)
        reference = batch_mine(
            alphabet, db, 0.01, MatchPolicy.RESET, None
        )
        miner = StreamingMiner(
            alphabet, 0.01, engine=engine, max_level=3
        )
        miner.consume(ArrayStreamSource(db, 70))
        assert miner.result().levels == reference.levels

    def test_sharded_engine_pool_leased_once_per_stream(self):
        """``consume()`` opens ONE engine run scope for the whole
        stream: the worker pool is leased per stream, not re-spawned
        per chunk (the PR 9 pool-churn fix)."""
        rng = np.random.default_rng(11)
        alphabet = Alphabet.of_size(5)
        db = rng.integers(0, 5, 240).astype(np.uint8)
        from repro.mining.engines import ShardedEngine

        class SpyEngine(ShardedEngine):
            def __init__(self):
                super().__init__(workers=2, min_shard_work=0)
                self.scopes_opened = 0

            def __enter__(self):
                if self._depth == 0:
                    self.scopes_opened += 1
                return super().__enter__()

        engine = SpyEngine()
        miner = StreamingMiner(alphabet, 0.01, engine=engine, max_level=2)
        miner.consume(ArrayStreamSource(db, 40))  # 6 chunks
        assert engine.scopes_opened == 1
        # at most one pool spawn for the whole stream (0 where the
        # sandbox forbids worker processes and the serial path runs)
        assert engine.pools_spawned <= 1
        reference = batch_mine(alphabet, db, 0.01, MatchPolicy.RESET, None,
                               max_level=2)
        assert miner.result().levels == reference.levels

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_resumed_stream_matches_batch_any_boundary(
        self, tmp_path, policy, window
    ):
        """Chunking invariance survives checkpoint/resume: randomized
        boundaries (size-0 and size-1 chunks forced in), kill at a
        random chunk, resume from disk, feed the rest — the final
        result is bit-identical to the batch scalar-oracle."""
        rng = np.random.default_rng(29)
        alphabet = Alphabet.of_size(4)
        for trial in range(4):
            db = rng.integers(0, 4, 160).astype(np.uint8)
            cuts = sorted(
                int(c) for c in rng.integers(0, db.size + 1, 5)
            )
            cuts += [cuts[0]]  # a size-0 chunk
            cuts += [min(cuts[-1] + 1, db.size)]  # and a size-1 chunk
            chunks = chunked(db, cuts)
            miner = StreamingMiner(
                alphabet, 0.02, policy=policy, window=window,
                engine="auto", max_level=3,
            )
            kill = int(rng.integers(0, len(chunks) + 1))
            for chunk in chunks[:kill]:
                miner.update(chunk)
            path = miner.checkpoint(
                tmp_path / f"{policy.value}-{trial}.npz"
            )
            resumed = StreamingMiner.resume(path)
            for chunk in chunks[kill:]:
                resumed.update(chunk)
            reference = batch_mine(alphabet, db, 0.02, policy, window)
            assert resumed.result().levels == reference.levels
            assert resumed.total_events == db.size


class TestStreamingMinerBehaviour:
    def test_empty_stream_yields_empty_result(self):
        miner = StreamingMiner(Alphabet.of_size(4), 0.1)
        assert miner.result().levels == ()
        update = miner.update(np.zeros(0, dtype=np.uint8))
        assert update.total_events == 0
        assert miner.result().levels == ()

    def test_update_reports_promotion_and_demotion(self):
        alphabet = Alphabet.of_size(3)
        miner = StreamingMiner(
            alphabet, 0.2, policy=MatchPolicy.SUBSEQUENCE, max_level=2
        )
        # first chunk: A and B frequent, pairs among them promoted
        first = miner.update(np.array([0, 1] * 10, dtype=np.uint8))
        assert Episode((0, 1)) in first.promoted
        assert first.n_tracked > 0
        # flood with C: pair support collapses, extensions demote
        second = miner.update(np.array([2] * 200, dtype=np.uint8))
        assert second.demoted  # tracking shrank as support crossed down
        reference = batch_mine(
            alphabet,
            np.array([0, 1] * 10 + [2] * 200, dtype=np.uint8),
            0.2, MatchPolicy.SUBSEQUENCE, None, max_level=2,
        )
        assert miner.result().levels == reference.levels

    def test_repromotion_backfills_exact_counts(self):
        """An episode demoted and later re-promoted is re-counted over
        the full retained prefix, not just the recent chunks."""
        alphabet = Alphabet.of_size(3)
        db = np.concatenate([
            np.array([0, 1] * 12, dtype=np.uint8),   # AB frequent
            np.array([2] * 120, dtype=np.uint8),     # AB demoted
            np.array([0, 1] * 150, dtype=np.uint8),  # AB back above alpha
        ])
        miner = StreamingMiner(
            alphabet, 0.2, policy=MatchPolicy.SUBSEQUENCE, max_level=2
        )
        miner.consume(ArrayStreamSource(db[: 24], 24))
        miner.update(db[24:144])
        miner.update(db[144:])
        reference = batch_mine(
            alphabet, db, 0.2, MatchPolicy.SUBSEQUENCE, None, max_level=2
        )
        assert miner.result().levels == reference.levels

    def test_total_events_and_chunk_indices(self):
        miner = StreamingMiner(Alphabet.of_size(4), 0.5)
        u0 = miner.update(np.array([1, 2], dtype=np.uint8))
        u1 = miner.update(np.zeros(0, dtype=np.uint8))
        u2 = miner.update(np.array([3], dtype=np.uint8))
        assert (u0.chunk_index, u1.chunk_index, u2.chunk_index) == (0, 1, 2)
        assert u2.total_events == miner.total_events == 3

    def test_chunk_symbols_validated(self):
        miner = StreamingMiner(Alphabet.of_size(3), 0.1)
        with pytest.raises(ValidationError):
            miner.update(np.array([7], dtype=np.uint8))

    def test_chunk_shape_validated_even_when_empty(self):
        miner = StreamingMiner(Alphabet.of_size(3), 0.1)
        with pytest.raises(ValidationError):
            miner.update(np.zeros((0, 5), dtype=np.uint8))
        with pytest.raises(ValidationError):
            miner.update(np.zeros((2, 2), dtype=np.uint8))

    def test_constructor_validation(self):
        alphabet = Alphabet.of_size(4)
        with pytest.raises(ValidationError):
            StreamingMiner(alphabet, 1.5)
        with pytest.raises(ValidationError):
            StreamingMiner(alphabet, 0.1, max_level=0)
        with pytest.raises(ConfigError):
            StreamingMiner(alphabet, 0.1, mode="sliding")
        with pytest.raises(ConfigError):
            StreamingMiner(alphabet, 0.1, mode="windowed")  # no horizon
        with pytest.raises(ConfigError):
            StreamingMiner(alphabet, 0.1, mode="windowed", horizon=0)
        with pytest.raises(ConfigError):
            StreamingMiner(alphabet, 0.1, horizon=10)  # landmark + horizon
        with pytest.raises(ValidationError):
            StreamingMiner(alphabet, 0.1, engine=lambda db, eps: None)

    def test_exhaustive_candidates_mode(self):
        rng = np.random.default_rng(5)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 150).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.01, max_level=2, exhaustive_candidates=True
        )
        miner.consume(ArrayStreamSource(db, 40))
        reference = FrequentEpisodeMiner(
            alphabet, 0.01, engine="scalar-oracle", max_level=2,
            exhaustive_candidates=True,
        ).mine(db)
        assert miner.result().levels == reference.levels


class TestWindowedMode:
    @pytest.mark.parametrize("policy,window", POLICIES)
    @pytest.mark.parametrize("horizon", [50, 200, 10_000])
    def test_windowed_equals_batch_over_trailing_window(
        self, policy, window, horizon
    ):
        rng = np.random.default_rng(21)
        alphabet = Alphabet.of_size(5)
        db = rng.integers(0, 5, 500).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.01, policy=policy, window=window,
            mode="windowed", horizon=horizon, max_level=2,
        )
        miner.consume(ArrayStreamSource(db, 80))
        reference = batch_mine(
            alphabet, db[-min(horizon, db.size):], 0.01, policy, window,
            max_level=2,
        )
        assert miner.result().levels == reference.levels
        # total_events still counts the full feed, not just the window
        assert miner.total_events == db.size

    def test_windowed_buffer_is_bounded(self):
        miner = StreamingMiner(
            Alphabet.of_size(4), 0.1, mode="windowed", horizon=64
        )
        for _ in range(20):
            miner.update(np.ones(100, dtype=np.uint8))
        # expired segments are retired: at most one chunk sticks out of
        # the horizon, and the materialized window is exactly the horizon
        assert sum(s.data.size for s in miner._segments) <= 64 + 100
        assert miner._window_contents().size == 64

    @pytest.mark.parametrize("policy,window", POLICIES)
    @settings(max_examples=15, deadline=None)
    @given(case=stream_case(), horizon=st.sampled_from([16, 64, 250]))
    def test_windowed_matches_batch_any_boundary(
        self, policy, window, case, horizon
    ):
        """The decremental slide is chunking-invariant too: any
        randomized boundaries (size-0/size-1 chunks included) yield the
        batch scalar-oracle result over the trailing window."""
        alphabet_size, db, cuts, threshold = case
        alphabet = Alphabet.of_size(alphabet_size)
        miner = StreamingMiner(
            alphabet, threshold, policy=policy, window=window,
            mode="windowed", horizon=horizon, engine="auto", max_level=3,
        )
        for chunk in chunked(db, cuts):
            miner.update(chunk)
        tail = db[-min(horizon, db.size):]
        reference = batch_mine(alphabet, tail, threshold, policy, window)
        assert miner.result().levels == reference.levels

    def test_reset_window_is_one_engine_count_per_level(self):
        """A windowed RESET update counts the window buffer itself: one
        ``count_batch`` per counted level, never piece by piece."""

        class SpyEngine(PositionHopEngine):
            def __init__(self):
                super().__init__()
                self.calls = []

            def count_batch(self, db, batch, *args, **kwargs):
                self.calls.append((np.array(db), args))
                return super().count_batch(db, batch, *args, **kwargs)

            def resume_batch(self, *args, **kwargs):
                raise AssertionError("RESET windows never resume")

        rng = np.random.default_rng(17)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 900).astype(np.uint8)
        engine = SpyEngine()
        miner = StreamingMiner(
            alphabet, 0.02, engine=engine, mode="windowed", horizon=250,
            max_level=3,
        )
        for chunk in np.array_split(db, 9):  # 100-event chunks
            engine.calls.clear()
            miner.update(chunk)
            window = miner._window_contents()
            assert len(engine.calls) == len(miner.result().levels)
            for counted, args in engine.calls:
                np.testing.assert_array_equal(counted, window)
                assert args == (alphabet.size, MatchPolicy.RESET, None)
        reference = batch_mine(
            alphabet, db[-250:], 0.02, MatchPolicy.RESET, None
        )
        assert miner.result().levels == reference.levels

    @pytest.mark.parametrize("policy,window", POLICIES[1:])
    def test_partial_front_segment_drops_its_summary(self, policy, window):
        """Once the window starts inside a segment, that segment's
        cached summary is never read again, so the fold drops it; full
        segments keep theirs."""
        rng = np.random.default_rng(23)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 1_000).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.02, policy=policy, window=window,
            mode="windowed", horizon=250, max_level=3,
        )
        for chunk in np.array_split(db, 10):  # 100-event chunks
            miner.update(chunk)
        front, *full = miner._segments
        assert front.start < miner._window_lo()  # the front is partial
        assert miner._win_cache
        for cache in miner._win_cache.values():
            assert set(cache["summaries"]) == {seg.sid for seg in full}
        reference = batch_mine(alphabet, db[-250:], 0.02, policy, window)
        assert miner.result().levels == reference.levels

    def test_unchanged_window_short_circuits(self):
        """Size-0 chunks and slides that leave the window contents
        event-for-event identical return the previous counts without
        recounting anything."""
        miner = StreamingMiner(
            Alphabet.of_size(3), 0.1, mode="windowed", horizon=8,
            max_level=2,
        )
        pattern = np.array([0, 1] * 4, dtype=np.uint8)
        miner.update(pattern)
        before = miner.result()

        def explode(n):
            raise AssertionError("unchanged window was recounted")

        miner._reconcile_windowed = explode
        update = miner.update(np.zeros(0, dtype=np.uint8))  # empty chunk
        assert update.total_events == 8
        # a full-period slide: new contents == old contents
        update = miner.update(pattern)
        assert update.total_events == 16
        assert miner.result().levels == before.levels


class TestRetention:
    """Bounded-memory landmark mode: ``retention=N`` caps the retained
    backfill prefix at the trailing N events.  Carried counts stay
    exact; promotion backfill over the capped prefix yields exact
    lower bounds (never overcounts, never promotes a false positive)."""

    def test_constructor_validation(self):
        alphabet = Alphabet.of_size(4)
        with pytest.raises(ConfigError):
            StreamingMiner(alphabet, 0.1, retention=0)
        with pytest.raises(ConfigError):
            StreamingMiner(
                alphabet, 0.1, mode="windowed", horizon=10, retention=5
            )

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_exact_when_cap_never_binds(self, policy, window):
        rng = np.random.default_rng(51)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 300).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.02, policy=policy, window=window,
            retention=10_000, max_level=3,
        )
        miner.consume(ArrayStreamSource(db, 70))
        reference = batch_mine(alphabet, db, 0.02, policy, window)
        assert miner.result().levels == reference.levels

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_exact_while_continuously_tracked(self, policy, window):
        """Episodes tracked from the start never touch the capped
        prefix: their carried counts stay exact even once the cap
        binds.  Threshold 0 keeps every candidate tracked, so the
        whole result equals the batch oracle despite retention."""
        rng = np.random.default_rng(57)
        alphabet = Alphabet.of_size(3)
        db = rng.integers(0, 3, 300).astype(np.uint8)
        miner = StreamingMiner(
            alphabet, 0.0, policy=policy, window=window,
            retention=64, max_level=2,
        )
        miner.consume(ArrayStreamSource(db, 50))
        reference = batch_mine(
            alphabet, db, 0.0, policy, window, max_level=2
        )
        assert miner.result().levels == reference.levels

    def test_binding_cap_is_sound_lower_bound(self):
        """Demote-then-repromote under a binding cap: the backfill only
        sees the retained tail, so counts are lower bounds — the
        frequent set is a subset of the batch one, never a superset,
        and no reported count exceeds the true count."""
        alphabet = Alphabet.of_size(3)
        db = np.concatenate([
            np.array([0, 1] * 12, dtype=np.uint8),   # AB frequent
            np.array([2] * 120, dtype=np.uint8),     # AB demoted
            np.array([0, 1] * 150, dtype=np.uint8),  # AB repromoted
        ])
        miner = StreamingMiner(
            alphabet, 0.2, policy=MatchPolicy.SUBSEQUENCE,
            retention=100, max_level=2,
        )
        miner.consume(ArrayStreamSource(db, 48))
        reference = batch_mine(
            alphabet, db, 0.2, MatchPolicy.SUBSEQUENCE, None, max_level=2
        )
        ref_levels = {lvl.level: lvl for lvl in reference.levels}
        for lvl in miner.result().levels:
            ref = ref_levels[lvl.level]
            assert set(lvl.frequent) <= set(ref.frequent)
            exact = ref.as_dict()
            for episode, count in lvl.as_dict().items():
                assert count <= exact[episode]

    def test_memory_stays_bounded(self):
        miner = StreamingMiner(
            Alphabet.of_size(4), 0.1, retention=200, max_level=2
        )
        rng = np.random.default_rng(61)
        for _ in range(40):
            miner.update(rng.integers(0, 4, 500).astype(np.uint8))
        assert miner.total_events == 20_000
        # the retained view is exactly the cap; the backing buffer is
        # recycled in place, never proportional to the stream
        assert miner._buf.size == 200
        assert miner._buf._buf.size <= 2048

    def test_checkpoint_roundtrip_preserves_retention(self, tmp_path):
        rng = np.random.default_rng(67)
        alphabet = Alphabet.of_size(4)
        db = rng.integers(0, 4, 600).astype(np.uint8)
        chunks = [db[lo: lo + 100] for lo in range(0, 600, 100)]
        cfg = dict(policy=MatchPolicy.SUBSEQUENCE, retention=150,
                   max_level=2)
        full = StreamingMiner(alphabet, 0.02, **cfg)
        killed = StreamingMiner(alphabet, 0.02, **cfg)
        for chunk in chunks:
            full.update(chunk)
        for chunk in chunks[:3]:
            killed.update(chunk)
        path = killed.checkpoint(tmp_path / "ret.npz")
        resumed = StreamingMiner.resume(path)
        assert resumed.retention == 150
        for chunk in chunks[3:]:
            resumed.update(chunk)
        assert resumed.result().levels == full.result().levels
        assert resumed.total_events == full.total_events


class TestMineStreamAPI:
    def test_mine_stream_equals_mine(self):
        rng = np.random.default_rng(17)
        alphabet = Alphabet.of_size(5)
        db = rng.integers(0, 5, 350).astype(np.uint8)
        miner = FrequentEpisodeMiner(
            alphabet, 0.01, policy=MatchPolicy.SUBSEQUENCE, engine="auto",
            max_level=3,
        )
        batch = miner.mine(db)
        streamed = miner.mine_stream(ArrayStreamSource(db, 64))
        assert streamed.levels == batch.levels
        # arrays and chunk iterables coerce through as_stream_source
        assert miner.mine_stream(db).levels == batch.levels
        assert miner.mine_stream(chunked(db, [100, 101])).levels == batch.levels

    def test_mine_stream_rejects_plain_callables(self):
        # the miner's constructor rejects a plain callable, so no miner
        # can carry one into mine_stream
        def fake_engine(db, episodes):
            return np.zeros(len(episodes), dtype=np.int64)

        with pytest.raises(ValidationError, match="CountingEngine"):
            FrequentEpisodeMiner(Alphabet.of_size(4), 0.1, engine=fake_engine)


class TestStateStore:
    def make_store(self, policy=MatchPolicy.SUBSEQUENCE, window=None):
        return EpisodeStateStore(
            4, policy, window, max_length=3, engine=get_engine("auto")
        )

    def test_retrack_rejects_wrong_history_length(self):
        store = self.make_store()
        store.advance(np.array([0, 1, 2], dtype=np.uint8))
        with pytest.raises(ValidationError):
            store.retrack(1, [Episode((0,))], np.zeros(1, dtype=np.uint8))

    def test_retrack_rejects_overlong_episodes(self):
        store = self.make_store()
        with pytest.raises(ValidationError):
            store.retrack(
                4, [Episode((0, 1, 2, 3))], np.zeros(0, dtype=np.uint8)
            )

    def test_untrack_returns_demoted(self):
        store = self.make_store()
        eps = [Episode((0,)), Episode((1,))]
        store.retrack(1, eps, np.zeros(0, dtype=np.uint8))
        assert store.n_tracked == 2
        assert store.untrack(1) == tuple(eps)
        assert store.n_tracked == 0
        assert store.untrack(1) == ()

    def test_retrack_empty_set_untracks(self):
        store = self.make_store()
        store.retrack(1, [Episode((0,))], np.zeros(0, dtype=np.uint8))
        promoted, demoted = store.retrack(1, [], np.zeros(0, dtype=np.uint8))
        assert promoted == ()
        assert demoted == (Episode((0,)),)

    def test_lazy_history_not_materialized_without_promotion(self):
        store = self.make_store()
        eps = [Episode((0,)), Episode((1,))]
        store.retrack(1, eps, np.zeros(0, dtype=np.uint8))
        store.advance(np.array([0, 1, 0], dtype=np.uint8))

        def explode():
            raise AssertionError("steady-state retrack touched history")

        promoted, demoted = store.retrack(1, eps, explode)
        assert promoted == demoted == ()


class TestStreamSources:
    def test_array_source_chunks_and_remainder(self):
        db = np.arange(10).astype(np.uint8)
        source = ArrayStreamSource(db, chunk_size=4)
        parts = list(source.chunks())
        assert [p.size for p in parts] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(parts), db)
        # re-iterable
        assert [p.size for p in source.chunks()] == [4, 4, 2]

    def test_array_source_validation(self):
        with pytest.raises(ConfigError):
            ArrayStreamSource(np.zeros(4, dtype=np.uint8), chunk_size=0)
        with pytest.raises(ValidationError):
            ArrayStreamSource(np.zeros((2, 2), dtype=np.uint8))

    def test_empty_array_source_yields_nothing(self):
        assert list(ArrayStreamSource(np.zeros(0, dtype=np.uint8)).chunks()) == []

    @pytest.mark.parametrize("suffix", [".npy", ".txt"])
    def test_file_source_round_trips(self, tmp_path, suffix):
        alphabet = Alphabet.of_size(6)
        db = np.random.default_rng(2).integers(0, 6, 33).astype(np.uint8)
        path = save_database(tmp_path / f"stream{suffix}", db,
                             alphabet=alphabet)
        source = FileStreamSource(path, chunk_size=10, alphabet=alphabet)
        np.testing.assert_array_equal(
            np.concatenate(list(source.chunks())), db
        )

    def test_synthetic_source_replays_identically(self):
        source = SyntheticStreamSource(4, 50, seed=7, drift=0.3)
        first = list(source.chunks())
        second = list(source.chunks())
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_iterable_source_consumes_once(self):
        gen = (np.full(2, i, dtype=np.uint8) for i in range(3))
        source = IterableStreamSource(gen)
        assert len(list(source.chunks())) == 3
        assert list(source.chunks()) == []  # generator exhausted

    def test_as_stream_source_coercions(self):
        source = ArrayStreamSource(np.zeros(4, dtype=np.uint8))
        assert as_stream_source(source) is source
        from_array = as_stream_source(np.zeros(8, dtype=np.uint8), chunk_size=3)
        assert isinstance(from_array, ArrayStreamSource)
        from_list = as_stream_source([np.zeros(2, dtype=np.uint8)])
        assert isinstance(from_list, IterableStreamSource)
        with pytest.raises(ValidationError):
            as_stream_source(42)


class TestStreamCli:
    def test_stream_command_runs(self, capsys):
        assert cli.main([
            "stream", "--chunks", "3", "--chunk-size", "400",
            "--alphabet-size", "6", "--threshold", "0.05",
            "--max-level", "2", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "consumed 1,200 events" in out
        assert "chunk   0" in out

    def test_stream_command_windowed(self, capsys):
        assert cli.main([
            "stream", "--chunks", "3", "--chunk-size", "300",
            "--alphabet-size", "5", "--mode", "windowed",
            "--horizon", "500", "--max-level", "2",
        ]) == 0
        assert "mode=windowed" in capsys.readouterr().out

    def test_stream_command_replays_saved_database(self, tmp_path, capsys):
        alphabet = Alphabet.of_size(26)
        db = np.random.default_rng(5).integers(0, 26, 900).astype(np.uint8)
        path = save_database(tmp_path / "feed.npy", db, alphabet=alphabet)
        assert cli.main([
            "stream", "--input", str(path), "--chunk-size", "250",
            "--max-level", "2",
        ]) == 0
        assert "consumed 900 events" in capsys.readouterr().out

    def test_stream_command_rejects_codes_that_would_wrap(
        self, tmp_path, capsys
    ):
        """An int64 260 used to load as code 4 ('E') and stream exit 0."""
        path = tmp_path / "wrap.npy"
        np.save(path, np.full(100, 260, dtype=np.int64))
        assert cli.main([
            "stream", "--input", str(path), "--alphabet-size", "26",
        ]) == 2
        err = capsys.readouterr().err
        assert "database code 260 is outside the alphabet [0, 26)" in err

    def test_stream_command_rejects_bad_flags(self, capsys):
        assert cli.main(["stream", "--engine", "nope"]) == 2
        assert cli.main(["stream", "--min-shard-work", "4"]) == 2
        assert cli.main(["stream", "--mode", "windowed"]) == 2
        assert cli.main([
            "stream", "--policy", "expiring",  # missing --window
        ]) == 2

    def test_stream_command_rejects_synthetic_flags_with_input(
        self, tmp_path, capsys
    ):
        alphabet = Alphabet.of_size(26)
        db = np.zeros(50, dtype=np.uint8)
        path = save_database(tmp_path / "feed.npy", db, alphabet=alphabet)
        for flag in (["--chunks", "3"], ["--drift", "0.5"], ["--seed", "1"]):
            assert cli.main(["stream", "--input", str(path), *flag]) == 2

    def test_stream_command_sharded_reports_running_instance(self, capsys):
        assert cli.main([
            "stream", "--engine", "sharded", "--min-shard-work", "0",
            "--chunks", "2", "--chunk-size", "600", "--alphabet-size", "5",
            "--max-level", "2",
        ]) == 0
        assert "sharded over" in capsys.readouterr().out
