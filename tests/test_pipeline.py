"""Tests for the pipelined miner (paper §6 pipelining, implemented)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.gpu.specs import GEFORCE_GTX_280
from repro.mining.alphabet import Alphabet
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.pipeline import PipelinedMiner


@pytest.fixture(scope="module")
def workload():
    alpha = Alphabet.of_size(6)
    rng = np.random.default_rng(71)
    pattern = alpha.encode("ABC" * 120)
    noise = rng.integers(0, 6, 2000).astype(np.uint8)
    return alpha, np.concatenate([pattern, noise])


class TestCorrectness:
    def test_matches_classic_miner(self, workload):
        """Speculative dispatch + reconciliation must equal Algorithm 1
        run level-by-level with exhaustive candidates."""
        alpha, db = workload
        classic = FrequentEpisodeMiner(
            alpha, threshold=0.05, exhaustive_candidates=True, max_level=3
        ).mine(db)
        piped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3
        ).mine(db)
        # reconciliation additionally enforces the prefix rule, which can
        # only shrink the frequent set vs the exhaustive count
        classic_sets = {
            lvl.level: dict(lvl.as_dict()) for lvl in classic.levels
        }
        for lvl in piped.result.levels:
            for ep, count in lvl.as_dict().items():
                assert classic_sets[lvl.level][ep] == count

    def test_matches_apriori_miner_on_planted_data(self, workload):
        alpha, db = workload
        classic = FrequentEpisodeMiner(alpha, threshold=0.05, max_level=3).mine(db)
        piped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3
        ).mine(db)
        assert piped.result.all_frequent == classic.all_frequent

    def test_empty_db_rejected(self, workload):
        alpha, _ = workload
        miner = PipelinedMiner(GEFORCE_GTX_280, alpha, threshold=0.1)
        with pytest.raises(ValidationError):
            miner.mine(np.array([], dtype=np.uint8))

    def test_bad_threshold(self, workload):
        alpha, _ = workload
        with pytest.raises(ValidationError):
            PipelinedMiner(GEFORCE_GTX_280, alpha, threshold=1.5)


class TestPipelineTiming:
    def test_reports_both_bounds(self, workload):
        alpha, db = workload
        report = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3
        ).mine(db)
        assert report.kernels_launched == 3
        assert 0 < report.overlapped_ms <= report.serialized_ms
        assert report.overlap_speedup >= 1.0

    def test_host_work_hidden_grows_with_candidates(self, workload):
        alpha, db = workload
        small = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=2,
            host_ms_per_candidate=0.01,
        ).mine(db)
        big = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3,
            host_ms_per_candidate=0.01,
        ).mine(db)
        assert big.host_ms_hidden > small.host_ms_hidden

    def test_concurrent_kernels_bound_tighter(self, workload):
        alpha, db = workload
        serial = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3,
            concurrent_kernels=False,
        ).mine(db)
        conc = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3,
            concurrent_kernels=True,
        ).mine(db)
        assert conc.overlapped_ms <= serial.serialized_ms


class TestSpeculativeCap:
    """max_speculative bounds the Table-1 space one level may materialize."""

    def test_capped_levels_fall_back_sequentially(self, workload):
        alpha, db = workload
        uncapped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3
        ).mine(db)
        # count_candidates(6, 3) == 120 > 40: level 3 must not be
        # speculated, yet the mined frequent set is unchanged
        capped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3,
            max_speculative=40,
        ).mine(db)
        assert capped.kernels_launched == 2
        assert capped.result.all_frequent == uncapped.result.all_frequent

    def test_cap_with_named_engine(self, workload):
        alpha, db = workload
        uncapped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3
        ).mine(db)
        capped = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=3,
            max_speculative=40, engine="position-hop",
        ).mine(db)
        assert capped.result.all_frequent == uncapped.result.all_frequent

    def test_level_one_never_capped(self, workload):
        alpha, db = workload
        report = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=2,
            max_speculative=1,
        ).mine(db)
        assert report.kernels_launched == 1
        assert report.result.levels[0].n_candidates == alpha.size
        assert report.result.max_level == 2  # level 2 counted sequentially

    def test_bad_cap_rejected(self, workload):
        alpha, _ = workload
        with pytest.raises(ValidationError):
            PipelinedMiner(
                GEFORCE_GTX_280, alpha, threshold=0.05, max_speculative=0
            )


class TestHostCost:
    """host_ms_per_candidate: the caller's value, else the fixed default."""

    def test_explicit_value_wins(self, workload):
        alpha, _ = workload
        miner = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, host_ms_per_candidate=0.25,
        )
        assert miner.host_ms_per_candidate == 0.25

    def test_unset_uses_default(self, workload):
        alpha, _ = workload
        miner = PipelinedMiner(GEFORCE_GTX_280, alpha, threshold=0.05)
        assert (
            miner.host_ms_per_candidate
            == PipelinedMiner.DEFAULT_HOST_MS_PER_CANDIDATE
        )

    def test_host_cost_shapes_hidden_host_work(self, workload):
        alpha, db = workload
        cheap = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=2,
            host_ms_per_candidate=0.1,
        ).mine(db)
        costly = PipelinedMiner(
            GEFORCE_GTX_280, alpha, threshold=0.05, max_level=2,
            host_ms_per_candidate=100.0,
        ).mine(db)
        assert costly.host_ms_hidden > cheap.host_ms_hidden
        assert costly.result.all_frequent == cheap.result.all_frequent
