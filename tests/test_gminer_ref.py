"""Tests for the serial reference miner (GMiner-like baseline)."""

import numpy as np
import pytest

from repro.mining.alphabet import Alphabet
from repro.mining.gminer_ref import SerialMiner
from repro.mining.miner import FrequentEpisodeMiner


@pytest.fixture()
def workload():
    alpha = Alphabet.of_size(5)
    rng = np.random.default_rng(21)
    db = rng.integers(0, 5, 600).astype(np.uint8)
    return alpha, db


class TestSerialMiner:
    def test_agrees_with_vectorized_miner(self, workload):
        alpha, db = workload
        fast = FrequentEpisodeMiner(alpha, threshold=0.02).mine(db)
        slow = SerialMiner(alpha, threshold=0.02).mine(db)
        assert fast.all_frequent == slow.all_frequent

    def test_timing_recorded(self, workload):
        alpha, db = workload
        miner = SerialMiner(alpha, threshold=0.05)
        miner.mine(db)
        assert miner.last_timing is not None
        assert miner.last_timing.seconds >= 0
        assert miner.last_timing.db_length == 600
        assert miner.last_timing.chars_per_second > 0

    def test_repeat_mine_counts_and_times_again(self, workload):
        """The CPU baseline re-counts on every mine: a repeat over the
        same database calls the engine again and replaces the timing."""
        alpha, db = workload
        miner = SerialMiner(alpha, threshold=0.05)
        first_result = miner.mine(db)
        first = miner.last_timing
        calls = []
        engine = miner._engine
        original = engine.count_batch

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        engine.count_batch = spy
        assert miner.mine(db).all_frequent == first_result.all_frequent
        assert calls and calls[0] == alpha.size
        assert miner.last_timing is not first

    def test_raw_count_exposed(self, workload):
        alpha, db = workload
        from repro.mining.candidates import generate_level
        from repro.mining.counting import count_batch

        miner = SerialMiner(alpha, threshold=0.05)
        eps = generate_level(alpha, 2)[:10]
        counts = miner.count(db, eps)
        assert np.array_equal(counts, count_batch(db, eps, alpha.size))
