"""Tests for the counting-engine subsystem.

Every registered engine must produce *identical* counts — they differ
only in speed.  The property tests here assert engine-vs-oracle
equivalence across all three policies, including window edge cases
(window=1, window >= n) and raw matrices with repeated symbols, which
the :class:`~repro.mining.episode.Episode` type cannot express.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import count_candidates, generate_level
from repro.mining.counting import (
    DatabaseIndex,
    count_batch,
    count_batch_reference,
    count_episode,
    count_matrix_reference,
    db_fingerprint,
)
from repro.mining.engines import (
    AutoEngine,
    BoundEngine,
    CountingEngine,
    EngineRegistry,
    GpuSimEngine,
    ShardedEngine,
    get_engine,
    list_engines,
    register_engine,
    spawn_probed_pool,
    _BoundaryShard,
    _run_shard,
    _SegmentShard,
    _SubtreeShard,
    _SummaryShard,
)
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy
from repro.mining.spanning import (
    compose_expiring,
    compose_subsequence,
    iter_boundary_windows,
    segment_bounds,
)
from repro.mining.trie import CandidateTrie, as_trie
from repro.resilience.faults import ShardFault

ENGINE_NAMES = (
    "scalar-oracle", "vector-sweep", "position-hop", "auto", "gpu-sim",
    "sharded",
)

POLICIES = [
    (MatchPolicy.RESET, None),
    (MatchPolicy.SUBSEQUENCE, None),
    (MatchPolicy.EXPIRING, 4),
]

small_alphabet = st.integers(min_value=3, max_value=8)


def db_strategy(alphabet_size, max_len=300):
    return st.lists(
        st.integers(0, alphabet_size - 1), min_size=0, max_size=max_len
    ).map(lambda xs: np.array(xs, dtype=np.uint8))


def episode_strategy(alphabet_size, max_len=3):
    return st.lists(
        st.integers(0, alphabet_size - 1),
        min_size=1,
        max_size=max_len,
        unique=True,
    ).map(lambda xs: Episode(tuple(xs)))


def matrix_strategy(alphabet_size, max_eps=5, max_len=4):
    """Raw (E, L) matrices — repeated symbols within a row allowed."""
    return st.integers(1, max_len).flatmap(
        lambda length: st.lists(
            st.lists(
                st.integers(0, alphabet_size - 1),
                min_size=length,
                max_size=length,
            ),
            min_size=1,
            max_size=max_eps,
        ).map(lambda rows: np.array(rows, dtype=np.uint8))
    )


class TestRegistry:
    def test_builtin_engines_registered(self):
        for name in ENGINE_NAMES:
            assert name in list_engines()
            assert isinstance(get_engine(name), CountingEngine)

    def test_instances_cached(self):
        assert get_engine("position-hop") is get_engine("position-hop")

    def test_engine_passthrough(self):
        engine = get_engine("auto")
        assert get_engine(engine) is engine

    def test_unknown_engine(self):
        with pytest.raises(ValidationError, match="unknown counting engine"):
            get_engine("warp-speed")

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register("x", AutoEngine)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("x", AutoEngine)
        registry.register("x", AutoEngine, replace=True)  # explicit ok
        assert "x" in registry

    def test_custom_engine_registration(self):
        class Doubler(CountingEngine):
            name = "test-doubler"

            def count_batch(self, db, batch, alphabet_size,
                            policy=MatchPolicy.RESET, window=None, index=None):
                return 2 * get_engine("auto").count_batch(
                    db, batch, alphabet_size, policy, window, index=index
                )

        from repro.mining.engines import REGISTRY

        register_engine("test-doubler", Doubler, replace=True)
        try:
            db = np.array([0, 1, 0, 1], dtype=np.uint8)
            got = count_batch(db, [Episode((0, 1))], 4, engine="test-doubler")
            assert got[0] == 4
        finally:
            REGISTRY.unregister("test-doubler")
        assert "test-doubler" not in REGISTRY


class TestEngineEquivalence:
    """All engines agree with the scalar oracle on every policy."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_small_exhaustive(self, name, policy, window):
        alpha = Alphabet.of_size(4)
        db = np.random.default_rng(11).integers(0, 4, 200).astype(np.uint8)
        for level in (1, 2, 3):
            eps = generate_level(alpha, level)
            got = get_engine(name).count_batch(
                db, as_trie(eps), 4, policy, window
            )
            ref = count_batch_reference(db, eps, 4, policy, window)
            assert np.array_equal(got, ref), (name, policy, level)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=25, deadline=None)
    def test_property_all_policies(self, name, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        for policy, window in POLICIES:
            got = int(engine.count_batch(
                db, as_trie([ep]), n, policy, window
            )[0])
            ref = int(count_batch_reference(db, [ep], n, policy, window)[0])
            assert got == ref, (name, policy)

    @pytest.mark.parametrize(
        "name", ("vector-sweep", "position-hop", "auto", "gpu-sim")
    )
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_property_repeated_symbol_matrices(self, name, data, n):
        """Raw matrices (repeated symbols allowed) against the matrix oracle."""
        db = data.draw(db_strategy(n, max_len=200))
        matrix = data.draw(matrix_strategy(n))
        window = data.draw(st.integers(1, 8))
        engine = get_engine(name)
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, window),
        ]:
            got = engine.count_batch(db, as_trie(matrix), n, policy, w)
            ref = count_matrix_reference(db, matrix, policy, w)
            assert np.array_equal(got, ref), (name, policy, matrix.tolist())

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=25, deadline=None)
    def test_property_window_edges(self, name, data, n):
        """window=1 (tightest legal) and window >= n (loosest)."""
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        for window in (1, max(int(db.size), 1), int(db.size) + 10):
            got = int(engine.count_batch(
                db, as_trie([ep]), n, MatchPolicy.EXPIRING, window
            )[0])
            ref = int(
                count_batch_reference(db, [ep], n, MatchPolicy.EXPIRING, window)[0]
            )
            assert got == ref, (name, window)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=15, deadline=None)
    def test_huge_window_equals_subsequence(self, name, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        loose = int(engine.count_batch(
            db, as_trie([ep]), n, MatchPolicy.EXPIRING, int(db.size) + 1
        )[0])
        subseq = int(engine.count_batch(
            db, as_trie([ep]), n, MatchPolicy.SUBSEQUENCE
        )[0])
        assert loose == subseq

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=30, deadline=None)
    def test_matrix_oracle_matches_fsm_oracle_on_distinct(self, data, n):
        """The two scalar oracles coincide where both are defined."""
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        matrix = np.array([ep.items], dtype=np.uint8)
        for policy, window in POLICIES:
            assert int(count_matrix_reference(db, matrix, policy, window)[0]) == int(
                count_batch_reference(db, [ep], n, policy, window)[0]
            )


class TestDatabaseIndex:
    def test_positions_match_flatnonzero(self):
        db = np.random.default_rng(3).integers(0, 6, 500).astype(np.uint8)
        index = DatabaseIndex(db)
        for symbol in range(6):
            assert np.array_equal(
                index.positions(symbol), np.flatnonzero(db == symbol)
            )

    def test_positions_cached(self):
        index = DatabaseIndex(np.array([1, 0, 1], dtype=np.uint8))
        assert index.positions(1) is index.positions(1)

    def test_absent_symbol_empty(self):
        index = DatabaseIndex(np.array([0, 0], dtype=np.uint8))
        assert index.positions(7).size == 0

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            DatabaseIndex(np.zeros((2, 2), dtype=np.uint8))

    def test_hopping_accepts_shared_index(self):
        db = np.random.default_rng(5).integers(0, 4, 300).astype(np.uint8)
        index = DatabaseIndex(db)
        for ep in generate_level(Alphabet.of_size(4), 2):
            with_index = count_episode(db, ep, 4, MatchPolicy.SUBSEQUENCE,
                                       index=index)
            fresh = count_episode(db, ep, 4, MatchPolicy.SUBSEQUENCE)
            assert with_index == fresh

    def test_bound_engine_reuses_index_per_db(self):
        bound = get_engine("position-hop").bind(4, MatchPolicy.SUBSEQUENCE)
        db = np.random.default_rng(9).integers(0, 4, 100).astype(np.uint8)
        first = bound.index_for(db)
        assert bound.index_for(db) is first
        other = np.random.default_rng(10).integers(0, 4, 100).astype(np.uint8)
        assert bound.index_for(other) is not first

    def test_bound_engine_frozen_array_skips_hash_but_stays_exact(self):
        """Mutating and *then* freezing must still be caught (the
        read-only fast path only applies to arrays frozen since they
        were indexed); an always-frozen array reuses its index."""
        bound = get_engine("position-hop").bind(3, MatchPolicy.SUBSEQUENCE)
        eps = [Episode((0, 1))]
        db = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert int(bound(db, eps)[0]) == 2  # indexed while writeable
        db[:] = 2
        db.flags.writeable = False  # freeze AFTER mutating: no fast path
        assert int(bound(db, eps)[0]) == 0
        frozen = np.array([0, 1, 0, 1], dtype=np.uint8)
        frozen.flags.writeable = False
        first = bound.index_for(frozen)
        assert bound.index_for(frozen) is first  # fast path engaged

    def test_bound_engine_detects_inplace_mutation(self):
        """Regression: the index cache was keyed by object identity, so
        mutating the database array in place silently returned counts
        from the stale index."""
        bound = get_engine("position-hop").bind(3, MatchPolicy.SUBSEQUENCE)
        db = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
        eps = [Episode((0, 1))]
        assert int(bound(db, eps)[0]) == 3
        db[:] = 2  # same object, new content
        assert int(bound(db, eps)[0]) == 0


class TestCountEpisodeDirect:
    """count_episode must not materialize the N**L gram table (satellite)."""

    def test_reset_single_no_gram_table(self):
        # alphabet_size**level = 8e13 entries: the old batch path would
        # try to allocate that bincount table and die
        rng = np.random.default_rng(17)
        alphabet_size = 200_000
        db = rng.integers(0, alphabet_size, 50_000).astype(np.int64)
        episode = Episode((int(db[10]), int(db[11]), int(db[12])))
        got = count_episode(db, episode, alphabet_size)
        fsm_ref = int(
            count_batch_reference(db, [episode], alphabet_size)[0]
        )
        assert got == fsm_ref
        assert got >= 1

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_reset_single_matches_oracle(self, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        assert count_episode(db, ep, n) == int(
            count_batch_reference(db, [ep], n)[0]
        )

    @given(data=st.data(), n=small_alphabet, window=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_expiring_single_matches_oracle(self, data, n, window):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        got = count_episode(db, ep, n, MatchPolicy.EXPIRING, window)
        assert got == int(
            count_batch_reference(db, [ep], n, MatchPolicy.EXPIRING, window)[0]
        )


class TestShardedEngine:
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_sharding_engaged_matches_oracle(self, policy, window):
        """min_shard_work=0 forces the shard split even on small data."""
        engine = ShardedEngine(inner="auto", workers=3, min_shard_work=0)
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(23).integers(0, 5, 400).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count_batch(db, as_trie(eps), 5, policy, window)
        ref = count_batch_reference(db, eps, 5, policy, window)
        assert np.array_equal(got, ref), policy

    def test_unset_settings_take_fixed_defaults(self):
        engine = ShardedEngine()
        assert engine.workers == min(os.cpu_count() or 1, 8)
        assert engine.min_shard_work == ShardedEngine.DEFAULT_MIN_SHARD_WORK
        assert ShardedEngine.DEFAULT_MIN_SHARD_WORK == 1 << 21

    def test_explicit_settings_honored_verbatim(self):
        engine = ShardedEngine(workers=2, min_shard_work=123)
        assert (engine.workers, engine.min_shard_work) == (2, 123)

    def test_small_problems_run_inline(self):
        engine = ShardedEngine(workers=4)  # default threshold: stays inline
        db = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert engine.count_batch(db, as_trie([Episode((0, 1))]), 3)[0] == 2

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_empty_database_with_forced_sharding(self, policy, window):
        """Regression: n=0 with min_shard_work=0 left the RESET job with
        zero shards (all segments zero-width) and a KeyError."""
        engine = ShardedEngine(workers=4, min_shard_work=0)
        got = engine.count_batch(
            np.array([], dtype=np.uint8), as_trie([Episode((0, 1))]), 3,
            policy, window,
        )
        assert np.array_equal(got, np.zeros(1, dtype=np.int64)), policy

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_more_workers_than_characters(self, policy, window):
        """Degenerate splits (workers > n) must skip the zero-width
        segment/boundary shards and still count exactly."""
        engine = ShardedEngine(workers=8, min_shard_work=0)
        db = np.array([0, 1, 2, 0, 1], dtype=np.uint8)
        eps = [Episode((0, 1)), Episode((1, 2))]
        got = engine.count_batch(db, as_trie(eps), 3, policy, window)
        ref = count_batch_reference(db, eps, 3, policy, window)
        assert np.array_equal(got, ref), policy

    def test_episode_axis_preserves_order(self):
        """More episodes than one subtree shard: the scatter back must
        keep trie order."""
        engine = ShardedEngine(workers=2, min_shard_work=0)
        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(29).integers(0, 6, 300).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count_batch(db, as_trie(eps), 6, MatchPolicy.SUBSEQUENCE)
        ref = count_batch(db, eps, 6, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_gpu_sim_inner_matches_oracle(self, policy, window):
        """The simulated-GPU engine composes under the sharded wrapper."""
        engine = ShardedEngine(inner="gpu-sim", workers=3, min_shard_work=0)
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(31).integers(0, 5, 400).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count_batch(db, as_trie(eps), 5, policy, window)
        ref = count_batch_reference(db, eps, 5, policy, window)
        assert np.array_equal(got, ref), policy

    @pytest.mark.parametrize("workers", (0, -2))
    def test_bad_workers(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            ShardedEngine(workers=workers)

    def test_nested_sharding_rejected(self):
        with pytest.raises(ConfigError, match="wrap itself"):
            ShardedEngine(inner="sharded")

    def test_unregistered_inner_instance_rejected(self):
        """Workers resolve the inner engine by name; an instance that is
        not the registered one would silently diverge, so it is refused."""

        class Custom(CountingEngine):
            name = "never-registered"

            def count_batch(self, db, batch, alphabet_size,
                            policy=MatchPolicy.RESET, window=None, index=None):
                raise AssertionError("unreachable")

        with pytest.raises(ConfigError, match="register_engine"):
            ShardedEngine(inner=Custom())


def _pools_available() -> bool:
    """True where this platform can spawn process-pool workers."""
    try:
        spawn_probed_pool(2).shutdown()
        return True
    except (OSError, RuntimeError):
        return False


class TestShardedDatabaseAxisCarry:
    """The SUBSEQUENCE/EXPIRING database-axis split (two-pass state
    carry) must match the scalar oracle — the paper's §3.3.3 spanning
    problem solved for the non-decomposable policies."""

    @pytest.mark.parametrize("workers", (3, 8))
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=20, deadline=None)
    def test_property_database_axis_vs_oracle(self, workers, data, n):
        engine = ShardedEngine(workers=workers, min_shard_work=0)
        db = data.draw(db_strategy(n, max_len=200))
        ep = data.draw(episode_strategy(n))
        window = data.draw(st.integers(1, 8))
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, window),
        ]:
            got = int(engine.count_batch(db, as_trie([ep]), n, policy, w)[0])
            ref = int(count_batch_reference(db, [ep], n, policy, w)[0])
            assert got == ref, (policy, w, workers)

    def test_occurrence_straddles_three_plus_segments(self):
        """One symbol per worker segment: the occurrence spans them all."""
        alpha = Alphabet.of_size(6)
        db = alpha.encode("ADBECF")
        ep = Episode.from_symbols("ABC", alpha)
        engine = ShardedEngine(workers=6, min_shard_work=0)
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 2),
        ]:
            assert int(engine.count_batch(
                db, as_trie([ep]), 6, policy, w
            )[0]) == 1, policy

    def test_window_edge_at_segment_boundary(self):
        """EXPIRING gaps that exactly equal / exceed the window right at
        a segment boundary (workers=2 splits this db at index 3)."""
        alpha = Alphabet.of_size(4)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        # A at 2, B at 3 (boundary): gap 1 <= window 1 -> counts
        db = alpha.encode("DDABDD")
        ep = Episode.from_symbols("AB", alpha)
        assert int(engine.count_batch(
            db, as_trie([ep]), 4, MatchPolicy.EXPIRING, 1
        )[0]) == 1
        # A at 1, B at 3: gap 2 > window 1 -> expires across the boundary
        db = alpha.encode("DADBDD")
        assert int(engine.count_batch(
            db, as_trie([ep]), 4, MatchPolicy.EXPIRING, 1
        )[0]) == 0
        ref = count_batch_reference(db, [ep], 4, MatchPolicy.EXPIRING, 1)
        assert int(ref[0]) == 0

    def test_repeated_symbol_matrices_database_axis(self):
        """Raw matrices (repeated symbols) through the carry split."""
        engine = ShardedEngine(workers=4, min_shard_work=0)
        rng = np.random.default_rng(43)
        db = rng.integers(0, 4, 300).astype(np.uint8)
        matrix = np.array([[0, 0, 1], [2, 2, 2]], dtype=np.uint8)
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 3),
        ]:
            got = engine.count_batch(db, as_trie(matrix), 4, policy, w)
            ref = count_matrix_reference(db, matrix, policy, w)
            assert np.array_equal(got, ref), policy

    def test_axis_prefers_database_for_narrow_batches(self):
        engine = ShardedEngine(workers=4)
        assert engine._pick_axis(n_eps=2) == "database"
        assert engine._pick_axis(n_eps=4) == "episode"
        assert engine._pick_axis(n_eps=100) == "episode"


class TestShardedRunScope:
    """Run-scoped pool lifecycle: one pool per `with` scope, shared by
    every counting call inside (the tentpole's amortization claim)."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(47).integers(0, 5, 600).astype(np.uint8)
        return alpha, db

    def test_one_pool_across_many_counts(self, workload):
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        refs = {}
        with engine:
            assert not engine.pool_active  # lazy: nothing sharded yet
            for policy, w in POLICIES:
                refs[policy] = engine.count_batch(
                    db, as_trie(eps), 5, policy, w
                )
                assert engine.pool_active  # first sharding call spawned it
            assert engine.pools_spawned == 1  # one pool, many calls
        assert not engine.pool_active
        for policy, w in POLICIES:
            assert np.array_equal(
                refs[policy], count_batch_reference(db, eps, 5, policy, w)
            ), policy

    def test_one_executor_per_scope(self, workload):
        """Every sharding call of a scope submits to the same executor,
        and the scope's exit shuts it down."""
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        trie = as_trie(generate_level(alpha, 2))
        engine = ShardedEngine(workers=2, min_shard_work=0)
        with engine:
            engine.count_batch(db, trie, 5, MatchPolicy.SUBSEQUENCE)
            executor = engine._pool
            engine.count_batch(db, trie, 5, MatchPolicy.RESET)
            assert engine._pool is executor
        assert engine.pools_spawned == 1
        assert not engine.pool_active
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(int)

    def test_scope_is_reentrant_and_reusable(self, workload):
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        with engine:
            with engine:  # nested scope must not spawn a second pool
                engine.count_batch(
                    db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE
                )
            assert engine.pool_active  # outer scope still open
            assert engine.pools_spawned == 1
        with engine:  # a second run acquires a fresh pool
            engine.count_batch(db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE)
        assert engine.pools_spawned == 2

    def test_unscoped_counts_stay_correct(self, workload):
        """Outside a scope every call pools (or serial-falls-back) alone."""
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        got = engine.count_batch(db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE)
        ref = count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)
        assert not engine.pool_active

    def test_inline_only_run_spawns_no_pool(self, workload):
        """A scope whose every call stays below min_shard_work must not
        pay worker spawns (the pool is acquired lazily)."""
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2)  # default threshold: all inline
        with engine:
            got = engine.count_batch(
                db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE
            )
        assert engine.pools_spawned == 0
        assert np.array_equal(
            got, count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        )

    def test_miner_run_spawns_one_pool(self, workload):
        """FrequentEpisodeMiner brackets the whole level loop in the
        engine's run scope: one pool serves every level."""
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        engine = ShardedEngine(workers=2, min_shard_work=0)
        baseline = FrequentEpisodeMiner(alpha, 0.01, max_level=3).mine(db)
        mined = FrequentEpisodeMiner(
            alpha, 0.01, max_level=3, engine=engine
        ).mine(db)
        assert mined.all_frequent == baseline.all_frequent
        assert engine.pools_spawned == 1
        assert not engine.pool_active  # released when mine() returned

    def test_inplace_mutation_between_scoped_calls(self, workload):
        """Worker-side index caches are keyed by content fingerprint, so
        mutating the database in place between calls of one run must
        re-derive, never serve stale counts."""
        alpha, _ = workload
        db = np.zeros(400, dtype=np.uint8)
        db[::2] = 1
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        with engine:
            first = engine.count_batch(
                db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE
            )
            db[:] = 2  # same array object, new content
            second = engine.count_batch(
                db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE
            )
        assert np.array_equal(
            first,
            count_batch_reference(
                np.where(np.arange(400) % 2 == 0, 1, 0).astype(np.uint8),
                eps, 5, MatchPolicy.SUBSEQUENCE,
            ),
        )
        assert np.array_equal(
            second,
            count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE),
        )


class TestShardTasks:
    """The typed shard tasks and their module-level runner, exercised
    directly: each task's piece of the count must recompose to the
    whole, in-process or on a pool."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(53).integers(0, 5, 500).astype(np.uint8)
        return alpha, db, as_trie(generate_level(alpha, 2))

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_subtree_shards_cover_the_trie(self, workload, policy, window):
        _, db, trie = workload
        key = db_fingerprint(db)
        out = np.zeros(len(trie), dtype=np.int64)
        for rows in trie.subtree_index_groups(3):
            task = _SubtreeShard(db, trie.matrix[rows], 5, policy, window,
                                 "position-hop", key)
            out[rows] = _run_shard(task)
        ref = count_matrix_reference(db, trie.matrix, policy, window)
        assert np.array_equal(out, ref), policy

    def test_subtree_shard_unknown_engine_falls_back_to_auto(self, workload):
        """A spawn-start child loses parent-side registrations; the
        shard then counts on auto, which is exact."""
        _, db, trie = workload
        task = _SubtreeShard(db, trie.matrix, 5, MatchPolicy.SUBSEQUENCE,
                             None, "never-registered", db_fingerprint(db))
        ref = count_matrix_reference(db, trie.matrix, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(_run_shard(task), ref)

    def test_segment_and_boundary_shards_sum_to_reset_count(self, workload):
        _, db, trie = workload
        matrix = trie.matrix
        bounds = segment_bounds(db.size, 3)
        tasks = [_SegmentShard(db[lo:hi], matrix, 5) for lo, hi in bounds]
        tasks += [
            _BoundaryShard(db[start_lo:hi], matrix, 5, start_hi)
            for _, start_lo, hi, start_hi in iter_boundary_windows(
                bounds, int(db.size), matrix.shape[1]
            )
        ]
        assert len(tasks) == 5  # three segments, two spannable boundaries
        got = np.sum([_run_shard(t) for t in tasks], axis=0)
        ref = count_matrix_reference(db, matrix, MatchPolicy.RESET)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("policy,window", [
        (MatchPolicy.SUBSEQUENCE, None),
        (MatchPolicy.EXPIRING, 4),
    ])
    @pytest.mark.parametrize("rows", [
        None,  # the level-2 grid of the workload
        # repeated symbols and duplicate rows: the worker's trie rebuild
        # shares terminals, and every slot must still come back in order
        [[2, 2, 0], [0, 1, 0], [2, 2, 0], [4, 4, 4], [0, 1, 0], [1, 3, 3]],
    ])
    def test_summary_shards_compose_to_whole_count(
        self, workload, policy, window, rows
    ):
        _, db, trie = workload
        matrix = trie.matrix if rows is None else np.array(rows, np.uint8)
        bounds = segment_bounds(db.size, 4)
        summaries = [
            _run_shard(_SummaryShard(db[lo:hi], matrix, policy, window, lo))
            for lo, hi in bounds
        ]
        if policy is MatchPolicy.SUBSEQUENCE:
            seg_counts, _ = compose_subsequence(summaries, matrix.shape[0])
        else:
            seg_counts = compose_expiring(db, matrix, window, bounds, summaries)
        ref = count_matrix_reference(db, matrix, policy, window)
        assert np.array_equal(seg_counts.sum(axis=0), ref), policy

    def test_raise_fault_propagates_and_leaves_task_clean(self, workload):
        """The fault travels beside the task, never inside it: the same
        task recounted without one is exact."""
        _, db, trie = workload
        task = _SegmentShard(db, trie.matrix, 5)
        with pytest.raises(RuntimeError, match="injected mapper fault"):
            _run_shard(task, ShardFault("raise"))
        ref = count_matrix_reference(db, trie.matrix, MatchPolicy.RESET)
        assert np.array_equal(_run_shard(task), ref)

    def test_pooled_shards_match_inline(self, workload):
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        _, db, trie = workload
        bounds = segment_bounds(db.size, 2)
        tasks = [_SegmentShard(db[lo:hi], trie.matrix, 5) for lo, hi in bounds]
        pool = spawn_probed_pool(2)
        try:
            pooled = [f.result() for f in
                      [pool.submit(_run_shard, t) for t in tasks]]
        finally:
            pool.shutdown()
        for got, task in zip(pooled, tasks):
            assert np.array_equal(got, _run_shard(task))

    def test_single_worker_scope_spawns_no_pool(self, workload):
        """workers=1 has nothing to spread work over: even with sharding
        forced, the scope stays pool-free and counts inline."""
        _, db, trie = workload
        engine = ShardedEngine(workers=1, min_shard_work=0)
        with engine:
            got = engine.count_batch(db, trie, 5, MatchPolicy.SUBSEQUENCE)
            assert not engine.pool_active
        assert engine.pools_spawned == 0
        ref = count_matrix_reference(db, trie.matrix, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)


class TestMapperExceptionPropagation:
    """A bug raised inside a worker must propagate, not be silently
    swallowed into a serial re-execution (old behaviour caught every
    RuntimeError around the whole job)."""

    def test_worker_exception_propagates(self):
        import multiprocessing

        from repro.mining.engines import REGISTRY

        class WorkerOnlyExploder(CountingEngine):
            name = "test-worker-exploder"

            def count_batch(self, db, batch, alphabet_size,
                            policy=MatchPolicy.RESET, window=None, index=None):
                if multiprocessing.parent_process() is not None:
                    # only inside a pool worker: the old blanket except
                    # would swallow this and quietly re-run serially
                    raise RuntimeError("mapper bug")
                return get_engine("auto").count_batch(
                    db, batch, alphabet_size, policy, window, index=index
                )

        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        register_engine("test-worker-exploder", WorkerOnlyExploder)
        try:
            engine = ShardedEngine(
                inner="test-worker-exploder", workers=2, min_shard_work=0,
            )
            db = np.random.default_rng(51).integers(0, 5, 300).astype(np.uint8)
            eps = generate_level(Alphabet.of_size(5), 2)
            with pytest.raises(RuntimeError, match="mapper bug"):
                engine.count_batch(
                    db, as_trie(eps), 5, MatchPolicy.SUBSEQUENCE
                )
        finally:
            REGISTRY.unregister("test-worker-exploder")


class TestMinerIntegration:
    @pytest.fixture(scope="class")
    def workload(self):
        alpha = Alphabet.of_size(6)
        rng = np.random.default_rng(41)
        pattern = alpha.encode("ABC" * 80)
        noise = rng.integers(0, 6, 1500).astype(np.uint8)
        return alpha, np.concatenate([pattern, noise])

    @pytest.mark.parametrize(
        "name", ("vector-sweep", "position-hop", "auto", "gpu-sim")
    )
    @pytest.mark.parametrize(
        "policy,window",
        [(MatchPolicy.SUBSEQUENCE, None), (MatchPolicy.EXPIRING, 5)],
    )
    def test_engine_name_threads_through_miner(self, workload, name, policy, window):
        alpha, db = workload
        baseline = FrequentEpisodeMiner(
            alpha, 0.05, policy=policy, window=window, max_level=3,
            engine="scalar-oracle",
        ).mine(db)
        mined = FrequentEpisodeMiner(
            alpha, 0.05, policy=policy, window=window, max_level=3, engine=name
        ).mine(db)
        assert mined.all_frequent == baseline.all_frequent

    def test_engine_instance_accepted(self, workload):
        alpha, db = workload
        engine = ShardedEngine(workers=2, min_shard_work=0)
        mined = FrequentEpisodeMiner(alpha, 0.05, max_level=2, engine=engine).mine(db)
        default = FrequentEpisodeMiner(alpha, 0.05, max_level=2).mine(db)
        assert mined.all_frequent == default.all_frequent

    def test_legacy_callable_engine_still_works(self, workload):
        alpha, db = workload
        calls = []

        def engine(database, episodes):
            calls.append(len(episodes))
            return count_batch(database, episodes, alpha.size)

        FrequentEpisodeMiner(alpha, 0.05, max_level=2, engine=engine).mine(db)
        assert calls  # the callable protocol was exercised


class TestGpuSimEngine:
    """The simulated-GPU registry tier: validation, reports, caching."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(53).integers(0, 6, 600).astype(np.uint8)
        return alpha, db

    def test_registered_and_resolvable(self):
        assert "gpu-sim" in list_engines()
        assert isinstance(get_engine("gpu-sim"), GpuSimEngine)

    def test_card_configurable_factory(self, workload):
        """register_engine() can bind the tier to a different card."""
        from repro.mining.engines import REGISTRY

        register_engine(
            "gpu-sim-8800", lambda: GpuSimEngine(device="8800GTS512")
        )
        try:
            alpha, db = workload
            eps = generate_level(alpha, 2)
            a = get_engine("gpu-sim-8800").count_batch(db, as_trie(eps), 6)
            b = get_engine("gpu-sim").count_batch(db, as_trie(eps), 6)
            assert np.array_equal(a, b)  # cards differ in time, never counts
        finally:
            REGISTRY.unregister("gpu-sim-8800")

    def test_reports_accumulate_and_flow_through_bind(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        bound = engine.bind(alpha.size, MatchPolicy.SUBSEQUENCE)
        bound(db, generate_level(alpha, 1))
        bound(db, generate_level(alpha, 2))
        assert len(bound.reports) == 2
        assert bound.total_kernel_ms > 0
        assert bound.total_kernel_ms == pytest.approx(engine.total_kernel_ms)

    def test_host_bound_engine_reports_empty(self, workload):
        alpha, db = workload
        bound = get_engine("position-hop").bind(alpha.size)
        bound(db, generate_level(alpha, 1))
        assert list(bound.reports) == []
        assert bound.total_kernel_ms == 0.0

    def test_symbols_beyond_uint8_rejected(self, workload):
        """Regression: symbols >= 256 used to wrap modulo 256 silently."""
        engine = GpuSimEngine()
        db = np.array([0, 1, 300], dtype=np.int64)
        with pytest.raises(ValidationError, match="refusing to truncate"):
            engine.count_batch(
                db, as_trie([Episode((0, 1))]), alphabet_size=256
            )

    def test_out_of_alphabet_codes_rejected(self, workload):
        engine = GpuSimEngine()
        db = np.array([0, 1, 9], dtype=np.uint8)
        with pytest.raises(ValidationError, match="outside the alphabet"):
            engine.count_batch(db, as_trie([Episode((0, 1))]), alphabet_size=4)

    def test_episode_codes_beyond_alphabet_rejected(self):
        """Regression: episode codes >= 256 must raise ValidationError,
        never overflow (numpy OverflowError) or wrap modulo 256 in the
        uint8 matrix form."""
        db = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValidationError, match="episode code 300"):
            get_engine("gpu-sim").count_batch(
                db, CandidateTrie.from_episodes([Episode((0, 300))]), 256
            )
        with pytest.raises(ValidationError, match="episode code 300"):
            GpuSimEngine().count_batch(
                db, as_trie(np.array([[0, 300]], dtype=np.int64)),
                alphabet_size=256,
            )

    def test_oversized_alphabet_rejected(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        with pytest.raises(ValidationError, match="256"):
            engine.count_batch(
                db, as_trie([Episode((0, 1))]), alphabet_size=1000
            )

    def test_float_database_rejected(self, workload):
        engine = GpuSimEngine()
        with pytest.raises(ValidationError, match="integer-coded"):
            engine.count_batch(
                np.array([0.5, 1.0]), as_trie([Episode((0, 1))]),
                alphabet_size=4,
            )

    def test_fixed_algorithm_mode(self, workload):
        alpha, db = workload
        eps = generate_level(alpha, 2)
        fixed = GpuSimEngine(algorithm=1, threads_per_block=64)
        got = fixed.count_batch(
            db, as_trie(eps), alpha.size, MatchPolicy.SUBSEQUENCE
        )
        ref = count_batch_reference(db, eps, alpha.size, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)
        assert fixed.selector is None

    def test_bad_config_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            GpuSimEngine(algorithm=9)
        with pytest.raises(ConfigError):
            GpuSimEngine(threads_per_block=0)

    @pytest.mark.parametrize("algorithm", [1, 2, 3, 4])
    def test_kernels_count_the_engine_trie_without_rebuilding(
        self, workload, monkeypatch, algorithm
    ):
        """The engine's trie reaches the kernels as given: no launch
        rebuilds it from its matrix, and RESET segments (algorithms 3
        and 4) count on the n-gram table without any trie."""
        alpha, db = workload
        trie = as_trie(generate_level(alpha, 2))
        ref = count_batch_reference(db, list(trie), alpha.size)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("batch rebuilt as a trie")

        monkeypatch.setattr(CandidateTrie, "from_matrix", no_rebuild)
        monkeypatch.setattr(CandidateTrie, "from_episodes", no_rebuild)
        engine = GpuSimEngine(algorithm=algorithm, threads_per_block=64)
        assert np.array_equal(engine.count_batch(db, trie, alpha.size), ref)

    def test_empty_batch_returns_empty(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        out = engine.count_batch(
            db, as_trie(np.zeros((0, 2), dtype=np.uint8)), alpha.size
        )
        assert out.shape == (0,)


class TestGpuSimEngineDrivesMiner:
    """``GpuSimEngine`` passed to the miner as its engine: exact counts,
    launch reports, and policy passthrough through the bound path."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(17).integers(0, 6, 2000).astype(np.uint8)
        return alpha, db

    @staticmethod
    def _mine(alpha, db, engine, policy=MatchPolicy.RESET):
        # threshold 0 keeps every episode that occurs, so the result
        # compares exact counts for the whole candidate space
        return FrequentEpisodeMiner(
            alpha, 0.0, policy=policy, engine=engine, max_level=2
        ).mine(db).all_frequent

    @pytest.mark.parametrize("algorithm", [3, "auto"])
    def test_counts_match_host(self, workload, algorithm):
        alpha, db = workload
        engine = GpuSimEngine(algorithm=algorithm, threads_per_block=64)
        assert self._mine(alpha, db, engine) == self._mine(
            alpha, db, "position-hop"
        )
        assert engine.reports

    def test_reports_accumulate(self, workload):
        alpha, db = workload
        engine = GpuSimEngine(algorithm=1, threads_per_block=64)
        self._mine(alpha, db, engine)
        per_run = len(engine.reports)
        self._mine(alpha, db, engine)  # a fresh miner: no count-cache hits
        assert per_run == 2  # one launch per level
        assert len(engine.reports) == 2 * per_run
        assert engine.total_kernel_ms > 0

    def test_policy_passthrough(self, workload):
        alpha, db = workload
        engine = GpuSimEngine(algorithm=2, threads_per_block=64)
        got = self._mine(alpha, db, engine, MatchPolicy.SUBSEQUENCE)
        assert got == self._mine(alpha, db, "position-hop",
                                 MatchPolicy.SUBSEQUENCE)
        assert got != self._mine(alpha, db, "position-hop")

    def test_symbols_beyond_uint8_rejected(self, workload):
        """Symbols >= 256 must raise, never wrap modulo 256 into
        silently wrong counts."""
        alpha, _ = workload
        miner = FrequentEpisodeMiner(alpha, 0.0, engine=GpuSimEngine())
        with pytest.raises(ValidationError):
            miner.mine(np.array([0, 1, 258], dtype=np.int64))


class TestSelectionCache:
    """Memoized adaptive selection must be invisible except in speed."""

    def test_cached_config_identical_to_fresh_sweep(self):
        from repro.algos import AdaptiveSelector, MiningProblem
        from repro.gpu.specs import GEFORCE_GTX_280

        alpha = Alphabet.of_size(8)
        db = np.random.default_rng(61).integers(0, 8, 2000).astype(np.uint8)
        cached = AdaptiveSelector(GEFORCE_GTX_280)
        fresh = AdaptiveSelector(GEFORCE_GTX_280)
        for level in (1, 2, 3):
            for policy, window in POLICIES:
                eps = tuple(generate_level(alpha, level)[:20])
                problem = MiningProblem(db, eps, 8, policy, window)
                a = cached.select_cached(problem)
                b = fresh.select(problem)
                assert (a.algorithm_id, a.threads_per_block) == (
                    b.algorithm_id, b.threads_per_block,
                ), (level, policy)

    def test_cache_hit_skips_resweep(self):
        from repro.algos import AdaptiveSelector, MiningProblem
        from repro.gpu.specs import GEFORCE_GTX_280

        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(67).integers(0, 6, 500).astype(np.uint8)
        selector = AdaptiveSelector(GEFORCE_GTX_280)
        eps = tuple(generate_level(alpha, 2)[:10])
        problem = MiningProblem(db, eps, 6)
        first = selector.select_cached(problem)
        assert selector.cache_size == 1
        # same shape bucket -> same object, no second sweep
        again = MiningProblem(db, tuple(generate_level(alpha, 2)[:12]), 6)
        assert selector.select_cached(again) is first
        assert selector.cache_size == 1
        selector.cache_clear()
        assert selector.cache_size == 0


#: (n, E, engine auto must pick) for SUBSEQUENCE and EXPIRING: sweep iff
#: n < 4096 and n < 8 * E
AUTO_BOUNDARY = [
    (4095, 1000, "vector-sweep"),  # just under the absolute cap
    (4096, 1000, "position-hop"),  # at the cap
    (799, 100, "vector-sweep"),  # n = 8E - 1
    (800, 100, "position-hop"),  # n = 8E
    (0, 1, "vector-sweep"),
    (300, 650, "vector-sweep"),
    (100_000, 500, "position-hop"),
]


class TestAutoSelection:
    def test_fixed_constants(self):
        assert AutoEngine.SWEEP_MAX_N == 4096
        assert AutoEngine.SWEEP_CHARS_PER_EPISODE == 8

    @pytest.mark.parametrize("policy", [MatchPolicy.SUBSEQUENCE,
                                        MatchPolicy.EXPIRING])
    @pytest.mark.parametrize("n,n_eps,expected", AUTO_BOUNDARY)
    def test_boundary(self, policy, n, n_eps, expected):
        assert AutoEngine().select(n, n_eps, policy).name == expected

    @pytest.mark.parametrize("n,n_eps", [(n, e) for n, e, _ in AUTO_BOUNDARY])
    def test_reset_always_position_hop(self, n, n_eps):
        chosen = AutoEngine().select(n, n_eps, MatchPolicy.RESET)
        assert chosen.name == "position-hop"

    def test_count_candidates_guard(self):
        # sanity for the pipeline cap logic
        assert count_candidates(26, 3) == 15_600


class TestFixedDispatchSurface:
    """What is left of the retired per-host calibration: the names the
    perfbench harness calls, and the run-report entry they fill."""

    def test_set_active_profile_none_is_a_no_op(self):
        from repro.mining.calibration import set_active_profile

        assert set_active_profile(None) is None
        chosen = AutoEngine().select(799, 100, MatchPolicy.SUBSEQUENCE)
        assert chosen.name == "vector-sweep"

    def test_set_active_profile_rejects_a_profile(self):
        from repro.mining.calibration import set_active_profile

        with pytest.raises(ConfigError):
            set_active_profile({"thresholds": {}})

    def test_calibration_provenance_is_none(self):
        from repro.mining.miner import calibration_provenance

        assert calibration_provenance(None) == {"source": "none"}

    def test_batch_report_records_no_calibration(self):
        from repro.obs import Recorder

        alpha = Alphabet.of_size(4)
        db = np.random.default_rng(5).integers(0, 4, 600).astype(np.uint8)
        miner = FrequentEpisodeMiner(alpha, 0.01, max_level=2,
                                     recorder=Recorder())
        miner.mine(db)
        assert miner.last_report.calibration == {"source": "none"}

    def test_stream_report_records_no_calibration(self):
        from repro.obs import Recorder
        from repro.streaming import StreamingMiner

        alpha = Alphabet.of_size(4)
        db = np.random.default_rng(6).integers(0, 4, 600).astype(np.uint8)
        miner = StreamingMiner(alpha, 0.01, max_level=2, recorder=Recorder())
        miner.update(db[:300])
        miner.update(db[300:])
        assert miner.last_report.calibration == {"source": "none"}
