"""Cross-engine conformance: every registry engine is exchangeable.

One differential matrix runs **every** engine in the registry against
the ``scalar-oracle`` ground truth across all three policies, raw
repeated-symbol matrices, and degenerate shapes — so a future engine
(numba, per-card gpu-sim) registered in ``REGISTRY`` inherits its
correctness checks for free: the parametrization enumerates
``list_engines()`` at collection time.

The same applies to the *lifecycle* contract from the run-scope work:
every engine is a reusable, re-entrant context manager, and counting
must work inside a scope, outside any scope, and after a scope closed.
Engines differ only in speed — never in counts, validation behaviour,
or scope semantics.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import generate_level
from repro.mining.counting import count_batch_reference, count_matrix_reference
from repro.mining.engines import REGISTRY, get_engine, list_engines
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy
from repro.mining.trie import CandidateTrie, as_trie

#: enumerated at collection time: a newly registered engine joins the
#: conformance matrix without touching this file
ENGINE_NAMES = sorted(list_engines())

POLICIES = [
    (MatchPolicy.RESET, None),
    (MatchPolicy.SUBSEQUENCE, None),
    (MatchPolicy.EXPIRING, 4),
]

ALPHA = Alphabet.of_size(5)


def fresh_engine(name):
    """Resolve an engine the way callers do (uncached tiers are fresh)."""
    return get_engine(name)


def test_registry_covers_all_builtin_tiers():
    """The matrix below actually runs every tier this PR knows about."""
    for expected in ("scalar-oracle", "vector-sweep", "position-hop",
                     "auto", "gpu-sim", "sharded"):
        assert expected in ENGINE_NAMES


class TestDifferentialMatrix:
    """Every engine vs the scalar oracle, every policy."""

    @pytest.fixture(scope="class")
    def db(self):
        return np.random.default_rng(77).integers(0, 5, 350).astype(np.uint8)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_episode_batches(self, name, policy, window, db):
        engine = fresh_engine(name)
        for level in (1, 2, 3):
            eps = generate_level(ALPHA, level)
            got = engine.count_batch(
                db, as_trie(eps), ALPHA.size, policy, window
            )
            ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
            assert np.array_equal(got, ref), (name, policy, level)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize(
        "policy,window",
        [(MatchPolicy.SUBSEQUENCE, None), (MatchPolicy.EXPIRING, 3)],
    )
    def test_repeated_symbol_matrices(self, name, policy, window, db):
        """Raw (E, L) matrices the Episode type cannot express."""
        matrix = np.array(
            [[0, 0, 1], [2, 2, 2], [1, 0, 1], [4, 4, 0]], dtype=np.uint8
        )
        got = fresh_engine(name).count_batch(
            db, as_trie(matrix), ALPHA.size, policy, window
        )
        ref = count_matrix_reference(db, matrix, policy, window)
        assert np.array_equal(got, ref), (name, policy)


class TestDegenerateShapes:
    """Empty/minimal inputs must be uniform across engines, not crash."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_empty_database(self, name, policy, window):
        db = np.array([], dtype=np.uint8)
        eps = [Episode((0, 1))]
        got = fresh_engine(name).count_batch(
            db, as_trie(eps), ALPHA.size, policy, window
        )
        assert np.array_equal(got, np.zeros(1, dtype=np.int64)), (name, policy)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_single_event_database(self, name, policy, window):
        db = np.array([2], dtype=np.uint8)
        engine = fresh_engine(name)
        singles = [Episode((2,)), Episode((0,))]
        got = engine.count_batch(
            db, as_trie(singles), ALPHA.size, policy, window
        )
        ref = count_batch_reference(db, singles, ALPHA.size, policy, window)
        assert np.array_equal(got, ref), (name, policy)
        assert got[0] == 1 and got[1] == 0
        pair = [Episode((2, 3))]  # longer than the database: never matches
        assert int(engine.count_batch(
            db, as_trie(pair), ALPHA.size, policy, window
        )[0]) == 0

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_single_episode_batch(self, name, policy, window):
        """E=1: the narrowest batch every axis/chunk heuristic must survive."""
        db = np.random.default_rng(78).integers(0, 5, 120).astype(np.uint8)
        eps = [Episode((1, 3))]
        got = fresh_engine(name).count_batch(
            db, as_trie(eps), ALPHA.size, policy, window
        )
        ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
        assert np.array_equal(got, ref), (name, policy)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_empty_episode_batch(self, name):
        db = np.random.default_rng(79).integers(0, 5, 50).astype(np.uint8)
        matrix = np.zeros((0, 2), dtype=np.uint8)
        got = fresh_engine(name).count_batch(db, as_trie(matrix), ALPHA.size)
        assert got.shape == (0,), name

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_tightest_and_loosest_windows(self, name):
        db = np.random.default_rng(80).integers(0, 5, 200).astype(np.uint8)
        eps = generate_level(ALPHA, 2)
        engine = fresh_engine(name)
        for window in (1, int(db.size), int(db.size) + 7):
            got = engine.count_batch(
                db, as_trie(eps), ALPHA.size, MatchPolicy.EXPIRING, window
            )
            ref = count_batch_reference(db, eps, ALPHA.size,
                                        MatchPolicy.EXPIRING, window)
            assert np.array_equal(got, ref), (name, window)


class TestTrieBatchConformance:
    """Every engine's ``count_batch`` over tries vs the scalar oracle.

    The trie refactor (PR 8) must be pure representation: batching a
    :class:`CandidateTrie` through any registry engine returns exactly
    the per-episode counts the ``scalar-oracle`` produces, in the trie's
    stable episode-index order, for all three policies — including the
    shapes the Episode type cannot express (repeated-symbol matrices)
    and the degenerate ones (single-node and empty tries).
    """

    @pytest.fixture(scope="class")
    def db(self):
        return np.random.default_rng(83).integers(0, 5, 300).astype(np.uint8)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_trie_batches_match_oracle(self, name, policy, window, db):
        engine = fresh_engine(name)
        for level in (1, 2, 3):
            eps = generate_level(ALPHA, level)
            trie = CandidateTrie.from_episodes(eps)
            with engine:
                got = engine.count_batch(db, trie, ALPHA.size, policy, window)
            ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
            assert np.array_equal(got, ref), (name, policy, level)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize(
        "policy,window",
        [(MatchPolicy.RESET, None), (MatchPolicy.SUBSEQUENCE, None),
         (MatchPolicy.EXPIRING, 3)],
    )
    def test_repeated_symbol_tries(self, name, policy, window, db):
        """Tries built from raw matrices, duplicate rows included."""
        matrix = np.array(
            [[0, 0, 1], [2, 2, 2], [1, 0, 1], [4, 4, 0], [0, 0, 1]],
            dtype=np.uint8,
        )
        trie = CandidateTrie.from_matrix(matrix)
        with fresh_engine(name) as engine:
            got = engine.count_batch(db, trie, ALPHA.size, policy, window)
        ref = count_matrix_reference(db, matrix, policy, window)
        assert np.array_equal(got, ref), (name, policy)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_single_node_trie(self, name, policy, window, db):
        trie = CandidateTrie.from_episodes([Episode((3,))])
        with fresh_engine(name) as engine:
            got = engine.count_batch(db, trie, ALPHA.size, policy, window)
        ref = count_batch_reference(db, [Episode((3,))], ALPHA.size,
                                    policy, window)
        assert np.array_equal(got, ref), (name, policy)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_empty_level_trie(self, name, policy, window, db):
        """An empty level's trie counts to shape (0,), never crashes."""
        with fresh_engine(name) as engine:
            got = engine.count_batch(
                db, CandidateTrie(), ALPHA.size, policy, window
            )
        assert got.shape == (0,), (name, policy)
        assert got.dtype == np.int64, (name, policy)

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_forced_sharding_trie_batch(self, policy, window, db):
        """Subtree sharding engaged (min_shard_work=0) stays exact."""
        from repro.mining.engines import ShardedEngine

        eps = generate_level(ALPHA, 3)
        trie = CandidateTrie.from_episodes(eps)
        engine = ShardedEngine(workers=3, min_shard_work=0)
        with engine:
            got = engine.count_batch(db, trie, ALPHA.size, policy, window)
        ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
        assert np.array_equal(got, ref), policy


class TestUniformValidation:
    """Window misuse raises the same error type from every engine."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_window_zero_rejected(self, name):
        db = np.array([0, 1], dtype=np.uint8)
        with pytest.raises(ValidationError, match="window"):
            fresh_engine(name).count_batch(
                db, as_trie([Episode((0, 1))]), ALPHA.size,
                MatchPolicy.EXPIRING, 0,
            )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_missing_window_rejected(self, name):
        db = np.array([0, 1], dtype=np.uint8)
        with pytest.raises(ValidationError, match="window"):
            fresh_engine(name).count_batch(
                db, as_trie([Episode((0, 1))]), ALPHA.size,
                MatchPolicy.EXPIRING, None,
            )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize(
        "policy", (MatchPolicy.RESET, MatchPolicy.SUBSEQUENCE)
    )
    def test_spurious_window_rejected(self, name, policy):
        db = np.array([0, 1], dtype=np.uint8)
        with pytest.raises(ValidationError, match="window"):
            fresh_engine(name).count_batch(
                db, as_trie([Episode((0, 1))]), ALPHA.size, policy, 5
            )


class TestRunScopeContract:
    """The PR 3 lifecycle contract, asserted for *every* registry engine.

    ``with engine:`` brackets one run; the scope must be re-entrant
    (nesting never double-acquires), reusable (a second run after exit
    works), and optional (counting outside any scope stays correct).
    """

    @pytest.fixture(scope="class")
    def workload(self):
        db = np.random.default_rng(81).integers(0, 5, 300).astype(np.uint8)
        eps = generate_level(ALPHA, 2)
        ref = count_batch_reference(db, eps, ALPHA.size,
                                    MatchPolicy.SUBSEQUENCE, None)
        return db, eps, ref

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_enter_returns_engine(self, name):
        engine = fresh_engine(name)
        with engine as scoped:
            assert scoped is engine

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_counting_inside_scope(self, name, workload):
        db, eps, ref = workload
        engine = fresh_engine(name)
        with engine:
            got = engine.count_batch(
                db, as_trie(eps), ALPHA.size, MatchPolicy.SUBSEQUENCE
            )
        assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_counting_outside_any_scope(self, name, workload):
        db, eps, ref = workload
        got = fresh_engine(name).count_batch(db, as_trie(eps), ALPHA.size,
                                       MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_scope_reusable_after_exit(self, name, workload):
        """A run scope is not one-shot: exit, then run again."""
        db, eps, ref = workload
        engine = fresh_engine(name)
        with engine:
            first = engine.count_batch(
                db, as_trie(eps), ALPHA.size, MatchPolicy.SUBSEQUENCE
            )
        second = engine.count_batch(
            db, as_trie(eps), ALPHA.size, MatchPolicy.SUBSEQUENCE
        )
        with engine:
            third = engine.count_batch(
                db, as_trie(eps), ALPHA.size, MatchPolicy.SUBSEQUENCE
            )
        for got in (first, second, third):
            assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_scope_reentrant(self, name, workload):
        """Nested scopes balance: the inner exit must not close the run."""
        db, eps, ref = workload
        engine = fresh_engine(name)
        with engine:
            with engine:
                inner = engine.count_batch(db, as_trie(eps), ALPHA.size,
                                     MatchPolicy.SUBSEQUENCE)
            outer = engine.count_batch(
                db, as_trie(eps), ALPHA.size, MatchPolicy.SUBSEQUENCE
            )
        assert np.array_equal(inner, ref), name
        assert np.array_equal(outer, ref), name

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_exit_swallows_nothing(self, name):
        """__exit__ returns falsy: exceptions inside a scope propagate."""
        engine = fresh_engine(name)
        with pytest.raises(RuntimeError, match="boom"):
            with engine:
                raise RuntimeError("boom")

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_bound_engine_scope_delegates(self, name, workload):
        """bind() preserves the scope contract around the miner protocol."""
        db, eps, ref = workload
        bound = fresh_engine(name).bind(ALPHA.size, MatchPolicy.SUBSEQUENCE)
        with bound:
            got = bound(db, eps)
        assert np.array_equal(got, ref), name


class TestForcedShardingConformance:
    """The sharded tier re-checked with sharding actually engaged
    (min_shard_work=0), over every registered inner engine — the
    composition surface a future engine lands on."""

    INNER = sorted(n for n in ENGINE_NAMES if n != "sharded")

    @pytest.fixture(scope="class")
    def db(self):
        return np.random.default_rng(82).integers(0, 5, 250).astype(np.uint8)

    @pytest.mark.parametrize("inner", INNER)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_sharded_over_every_inner(self, inner, policy, window, db):
        from repro.mining.engines import ShardedEngine

        engine = ShardedEngine(inner=inner, workers=3, min_shard_work=0)
        eps = generate_level(ALPHA, 2)
        with engine:
            got = engine.count_batch(
                db, as_trie(eps), ALPHA.size, policy, window
            )
        ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
        assert np.array_equal(got, ref), (inner, policy)
