"""Tests for the level-wise mining driver (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.errors import MiningError, ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner, MiningResult
from repro.mining.policies import MatchPolicy


@pytest.fixture()
def simple_db():
    """'ABC' repeated 50 times plus noise: ABC and its prefixes frequent."""
    alpha = Alphabet.of_size(5)
    pattern = alpha.encode("ABC" * 50)
    noise = np.random.default_rng(1).integers(3, 5, 100).astype(np.uint8)
    return np.concatenate([pattern, noise]), alpha


class TestMiningLoop:
    def test_finds_planted_pattern(self, simple_db):
        db, alpha = simple_db
        miner = FrequentEpisodeMiner(alpha, threshold=0.1)
        result = miner.mine(db)
        frequent = result.all_frequent
        assert Episode(tuple(alpha.encode("AB"))) in frequent
        assert Episode(tuple(alpha.encode("ABC"))) in frequent
        # the reversed pair is not frequent
        assert Episode(tuple(alpha.encode("BA"))) not in frequent

    def test_level_results_structure(self, simple_db):
        db, alpha = simple_db
        result = FrequentEpisodeMiner(alpha, threshold=0.1).mine(db)
        lvl1 = result.level(1)
        assert lvl1.n_candidates == 5
        assert lvl1.n_frequent >= 3  # A, B, C all appear 50 times in 350 chars
        assert len(lvl1.frequent) == len(lvl1.counts)

    def test_counts_are_accurate(self, simple_db):
        db, alpha = simple_db
        result = FrequentEpisodeMiner(alpha, threshold=0.1).mine(db)
        abc = Episode(tuple(alpha.encode("ABC")))
        assert result.all_frequent[abc] == 50

    def test_threshold_monotonicity(self, simple_db):
        """A higher threshold can only shrink the frequent set."""
        db, alpha = simple_db
        loose = FrequentEpisodeMiner(alpha, threshold=0.01).mine(db)
        tight = FrequentEpisodeMiner(alpha, threshold=0.2).mine(db)
        assert set(tight.all_frequent) <= set(loose.all_frequent)

    def test_max_level_cap(self, simple_db):
        db, alpha = simple_db
        result = FrequentEpisodeMiner(alpha, threshold=0.01, max_level=2).mine(db)
        assert result.max_level <= 2

    @pytest.mark.parametrize("mode", [None, "landmark", "windowed"])
    def test_no_generation_past_max_level(self, simple_db, monkeypatch, mode):
        """Level ``max_level`` is the last one counted, so its frequent
        set is never extended into candidates that would be discarded."""
        import repro.mining.miner as batch_module
        import repro.streaming.miner as stream_module
        from repro.streaming import StreamingMiner

        db, alpha = simple_db
        extended = []
        for module in (batch_module, stream_module):
            original = module.generate_next_level

            def spy(frequent, *args, _original=original, **kwargs):
                extended.append(frequent[0].length)
                return _original(frequent, *args, **kwargs)

            monkeypatch.setattr(module, "generate_next_level", spy)
        if mode is None:
            result = FrequentEpisodeMiner(
                alpha, threshold=0.1, max_level=2
            ).mine(db)
        else:
            miner = StreamingMiner(
                alpha, 0.1, mode=mode, max_level=2,
                horizon=200 if mode == "windowed" else None,
            )
            for start in range(0, db.size, 70):
                miner.update(db[start:start + 70])
            result = miner.result()
        assert result.level(2).n_frequent > 0  # level 2 had a set to extend
        assert set(extended) == {1}

    def test_stops_when_nothing_frequent(self):
        alpha = Alphabet.of_size(4)
        db = np.zeros(100, dtype=np.uint8)  # only 'A' repeated
        result = FrequentEpisodeMiner(alpha, threshold=0.5).mine(db)
        # level 1: only A frequent; level 2 candidates from [A] alone are
        # A->x, none frequent; loop ends
        assert result.max_level <= 2
        assert len(result.level(1).frequent) == 1

    def test_exhaustive_mode_counts_full_space(self, simple_db):
        db, alpha = simple_db
        counted = []

        def engine(d, eps):
            counted.append(len(eps))
            from repro.mining.counting import count_batch

            return count_batch(d, eps, alpha.size)

        FrequentEpisodeMiner(
            alpha, threshold=0.1, engine=engine, exhaustive_candidates=True,
            max_level=2,
        ).mine(db)
        assert counted[0] == 5
        assert counted[1] == 20  # P(5,2), the full Table-1 space

    def test_apriori_mode_counts_fewer(self, simple_db):
        db, alpha = simple_db
        counted = []

        def engine(d, eps):
            counted.append(len(eps))
            from repro.mining.counting import count_batch

            return count_batch(d, eps, alpha.size)

        FrequentEpisodeMiner(
            alpha, threshold=0.1, engine=engine, max_level=3
        ).mine(db)
        # level 2: suffix pruning cannot bite (every singleton suffix is
        # frequent), so the full P(5,2)=20 space is counted; level 3 is
        # where the contiguous prune pays off vs P(5,3)=60
        assert counted[1] == 20
        assert counted[2] < 60


class TestValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValidationError):
            FrequentEpisodeMiner(UPPERCASE, threshold=1.0)
        with pytest.raises(ValidationError):
            FrequentEpisodeMiner(UPPERCASE, threshold=-0.1)

    def test_bad_max_level(self):
        with pytest.raises(ValidationError):
            FrequentEpisodeMiner(UPPERCASE, threshold=0.1, max_level=0)

    def test_empty_db_rejected(self):
        miner = FrequentEpisodeMiner(UPPERCASE, threshold=0.1)
        with pytest.raises(ValidationError, match="empty"):
            miner.mine(np.array([], dtype=np.uint8))

    def test_engine_shape_checked(self, simple_db):
        db, alpha = simple_db
        miner = FrequentEpisodeMiner(
            alpha, threshold=0.1, engine=lambda d, e: np.zeros(1)
        )
        with pytest.raises(MiningError, match="shape"):
            miner.mine(db)

    def test_level_lookup_missing(self, simple_db):
        db, alpha = simple_db
        result = FrequentEpisodeMiner(alpha, threshold=0.1, max_level=1).mine(db)
        with pytest.raises(MiningError):
            result.level(5)


class TestPolicies:
    def test_subsequence_policy_mines_gapped_patterns(self):
        alpha = Alphabet.of_size(6)
        # A x B pairs with random single-char gaps
        rng = np.random.default_rng(9)
        parts = []
        for _ in range(60):
            parts.extend([0, int(rng.integers(2, 6)), 1])
        db = np.asarray(parts, dtype=np.uint8)
        reset_result = FrequentEpisodeMiner(alpha, 0.2, MatchPolicy.RESET).mine(db)
        subseq_result = FrequentEpisodeMiner(
            alpha, 0.2, MatchPolicy.SUBSEQUENCE
        ).mine(db)
        ab = Episode((0, 1))
        assert ab not in reset_result.all_frequent  # gapped: no contiguity
        assert ab in subseq_result.all_frequent
