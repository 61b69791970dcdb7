"""Tests for the workload generators and persistence."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import UPPERCASE
from repro.mining.counting import count_batch, count_episode
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy
from repro.data import (
    MarketConfig,
    PAPER_DB_LENGTH,
    PlantedEpisode,
    SpikeTrainConfig,
    generate_market_stream,
    generate_spike_stream,
    load_database,
    paper_database,
    random_database,
    save_database,
    stream_chunks,
)


class TestSyntheticDatabase:
    def test_paper_length(self):
        db = paper_database()
        assert db.size == PAPER_DB_LENGTH == 393_019
        assert db.dtype == np.uint8
        assert int(db.max()) < 26

    def test_deterministic(self):
        assert np.array_equal(paper_database(seed=5), paper_database(seed=5))
        assert not np.array_equal(paper_database(seed=5), paper_database(seed=6))

    def test_roughly_uniform(self):
        db = paper_database()
        counts = np.bincount(db, minlength=26)
        expected = PAPER_DB_LENGTH / 26
        assert np.all(np.abs(counts - expected) < expected * 0.1)

    def test_weighted_distribution(self):
        w = np.zeros(26)
        w[0] = 3.0
        w[1] = 1.0
        db = random_database(10_000, weights=w, seed=1)
        counts = np.bincount(db, minlength=26)
        assert counts[2:].sum() == 0
        assert counts[0] > 2 * counts[1]

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            random_database(10, weights=np.ones(5))
        with pytest.raises(ValidationError):
            random_database(10, weights=-np.ones(26))

    def test_negative_length(self):
        with pytest.raises(ValidationError):
            random_database(-1)

    def test_zero_length(self):
        assert random_database(0).size == 0


class TestSpikeStreams:
    def test_planted_cascades_recoverable(self):
        planted = PlantedEpisode(neurons=(1, 5, 9), occurrences=40, max_lag=2)
        config = SpikeTrainConfig(
            n_neurons=12, background_events=3000, planted=(planted,), seed=3
        )
        stream = generate_spike_stream(config)
        count = count_episode(
            stream, Episode((1, 5, 9)), 12, MatchPolicy.SUBSEQUENCE
        )
        assert count >= 40

    def test_stream_length_grows_with_plants(self):
        base = SpikeTrainConfig(n_neurons=8, background_events=1000, seed=1)
        planted = SpikeTrainConfig(
            n_neurons=8,
            background_events=1000,
            planted=(PlantedEpisode((0, 1), 50, max_lag=1),),
            seed=1,
        )
        assert generate_spike_stream(planted).size > generate_spike_stream(base).size

    def test_no_plants_pure_background(self):
        config = SpikeTrainConfig(n_neurons=8, background_events=500, seed=2)
        stream = generate_spike_stream(config)
        assert stream.size == 500
        assert int(stream.max()) < 8

    def test_validation(self):
        with pytest.raises(ValidationError):
            PlantedEpisode(neurons=(), occurrences=1)
        with pytest.raises(ValidationError):
            PlantedEpisode(neurons=(1, 1), occurrences=1)
        with pytest.raises(ValidationError):
            SpikeTrainConfig(n_neurons=4, planted=(PlantedEpisode((9,), 1),))
        with pytest.raises(ValidationError):
            SpikeTrainConfig(n_neurons=0)

    def test_alphabet_matches_neurons(self):
        config = SpikeTrainConfig(n_neurons=10)
        assert config.alphabet().size == 10

    def test_deterministic(self):
        cfg = SpikeTrainConfig(
            n_neurons=6,
            background_events=400,
            planted=(PlantedEpisode((0, 2), 10, max_lag=2),),
            seed=9,
        )
        assert np.array_equal(generate_spike_stream(cfg), generate_spike_stream(cfg))


class TestMarketStreams:
    def test_rule_dominates_reversal(self):
        config = MarketConfig(
            n_products=8,
            n_events=8000,
            rules=(((0, 1), 0.1),),
            seed=4,
        )
        stream = generate_market_stream(config)
        fwd = count_episode(stream, Episode((0, 1)), 8)
        rev = count_episode(stream, Episode((1, 0)), 8)
        # reversals occur from back-to-back rule firings and background
        # noise, but the planted direction must dominate clearly
        assert fwd > 2 * max(1, rev)

    def test_length_respected(self):
        config = MarketConfig(n_products=5, n_events=1234, seed=1)
        assert generate_market_stream(config).size == 1234

    def test_validation(self):
        with pytest.raises(ValidationError):
            MarketConfig(n_products=1)
        with pytest.raises(ValidationError):
            MarketConfig(rules=(((0, 0), 0.1),))
        with pytest.raises(ValidationError):
            MarketConfig(rules=(((0, 9), 0.1),), n_products=5)
        with pytest.raises(ValidationError):
            MarketConfig(rules=(((0, 1), 1.5),))

    def test_rule_probability_budget(self):
        with pytest.raises(ValidationError, match="> 1"):
            generate_market_stream(
                MarketConfig(
                    n_products=6,
                    n_events=100,
                    rules=(((0, 1), 0.6), ((2, 3), 0.6)),
                )
            )


class TestPersistence:
    def test_npy_roundtrip(self, tmp_path):
        db = random_database(500, seed=8)
        path = save_database(tmp_path / "db.npy", db)
        assert np.array_equal(load_database(path), db)

    def test_txt_roundtrip(self, tmp_path):
        db = random_database(300, seed=9)
        path = save_database(tmp_path / "db.txt", db, UPPERCASE)
        assert np.array_equal(load_database(path, UPPERCASE), db)

    def test_txt_requires_alphabet(self, tmp_path):
        db = random_database(10)
        with pytest.raises(ValidationError):
            save_database(tmp_path / "db.txt", db)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no database"):
            load_database(tmp_path / "nope.npy")

    def test_bad_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_database(tmp_path / "x.npy", np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("alphabet", [None, UPPERCASE], ids=["bare", "A-Z"])
    @pytest.mark.parametrize(
        "codes", [[0, 260, 1], [0, -1, 1], [0.0, 1.0]],
        ids=["260", "minus-1", "float"],
    )
    def test_npy_outside_uint8_rejected_not_wrapped(self, tmp_path, codes, alphabet):
        """An int64 260 used to load as code 4 and -1 as 255."""
        path = tmp_path / "wide.npy"
        np.save(path, np.array(codes))
        with pytest.raises(ValidationError, match="database"):
            load_database(path, alphabet)

    def test_npy_out_of_alphabet_rejected(self, tmp_path):
        path = tmp_path / "db.npy"
        np.save(path, np.array([0, 26], dtype=np.uint8))
        assert load_database(path).tolist() == [0, 26]
        with pytest.raises(ValidationError, match="outside the alphabet"):
            load_database(path, UPPERCASE)

    def test_npy_in_range_int64_loads_as_uint8(self, tmp_path):
        db = random_database(200, seed=4)
        path = tmp_path / "wide.npy"
        np.save(path, db.astype(np.int64))
        loaded = load_database(path, UPPERCASE)
        assert loaded.dtype == np.uint8
        assert np.array_equal(loaded, db)


class TestStreamChunks:
    """The chunked/drifting synthetic feed (streaming bench + tests)."""

    def test_yields_requested_chunks(self):
        parts = list(stream_chunks(5, 40, seed=1))
        assert [p.size for p in parts] == [40] * 5
        assert all(p.dtype == np.uint8 for p in parts)
        assert max(int(p.max()) for p in parts) < UPPERCASE.size

    def test_seeded_determinism(self):
        for a, b in zip(stream_chunks(4, 30, seed=7, drift=0.4),
                        stream_chunks(4, 30, seed=7, drift=0.4)):
            assert np.array_equal(a, b)

    def test_generator_seed_continues_state(self):
        rng = np.random.default_rng(3)
        first = list(stream_chunks(2, 25, seed=rng))
        second = list(stream_chunks(2, 25, seed=rng))
        assert not all(
            np.array_equal(a, b) for a, b in zip(first, second)
        )

    def test_drift_skews_symbol_frequencies(self):
        """With heavy drift, late chunks concentrate on few symbols;
        without drift the distribution stays flat."""
        flat = list(stream_chunks(12, 2_000, seed=11, drift=0.0))
        drifted = list(stream_chunks(12, 2_000, seed=11, drift=1.0))

        def top_share(chunk):
            counts = np.bincount(chunk, minlength=UPPERCASE.size)
            return counts.max() / chunk.size

        assert top_share(drifted[-1]) > 2 * top_share(flat[-1])

    def test_zero_drift_matches_uniform_stream(self):
        """drift=0 must stay byte-identical to random_database drawn
        from the same generator (the stationary baseline)."""
        chunks = list(stream_chunks(3, 50, seed=5, drift=0.0))
        reference = [
            random_database(50, seed=rng)
            for rng in [np.random.default_rng(5)]
            for _ in range(3)
        ]
        for a, b in zip(chunks, reference):
            assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            list(stream_chunks(-1, 10))
        with pytest.raises(ValidationError):
            list(stream_chunks(1, -5))
        with pytest.raises(ValidationError):
            list(stream_chunks(1, 10, drift=-0.1))

    def test_empty_feed(self):
        assert list(stream_chunks(0, 100, seed=2)) == []
