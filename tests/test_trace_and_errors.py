"""Coverage for the trace contract, error hierarchy, and failure injection."""

import numpy as np
import pytest

from repro import errors
from repro.errors import ConfigError, ExperimentError
from repro.gpu.trace import KernelTrace, Pattern, Phase, Space
from repro.experiments.config import SweepConfig
from repro.experiments.harness import Harness


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigError,
            errors.LaunchError,
            errors.DeviceMemoryError,
            errors.ValidationError,
            errors.ExperimentError,
            errors.MiningError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise exc("boom")


class TestTraceValidation:
    def test_offchip_space_requires_pattern(self):
        with pytest.raises(ConfigError, match="pattern"):
            Phase(
                name="bad",
                elements_per_thread=10,
                space=Space.TEXTURE,
                pattern=Pattern.NONE,
            )

    def test_negative_work_rejected(self):
        with pytest.raises(ConfigError):
            Phase(name="bad", elements_per_thread=-1)
        with pytest.raises(ConfigError):
            Phase(name="bad", repeats=-1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError, match="no phases"):
            KernelTrace(kernel_name="k", phases=())

    def test_phase_lookup(self):
        trace = KernelTrace(
            kernel_name="k", phases=(Phase(name="a"), Phase(name="b"))
        )
        assert trace.phase("b").name == "b"
        with pytest.raises(ConfigError):
            trace.phase("c")
        assert trace.phase_names == ("a", "b")

    def test_total_elements(self):
        p = Phase(name="x", elements_per_thread=10, repeats=3)
        assert p.total_elements_per_thread == 30

    def test_space_offchip_flags(self):
        assert Space.TEXTURE.off_chip and Space.GLOBAL.off_chip
        assert not Space.SHARED.off_chip and not Space.CONSTANT.off_chip


class TestFailureInjection:
    def test_corrupted_device_buffer_detected(self):
        """If a device buffer is silently corrupted between upload and
        execute, verify_functional must catch the divergence — the
        end-to-end integrity check a downstream user relies on."""
        config = SweepConfig(threads=(64,), db_length=2003, levels=(2,))
        harness = Harness(config)
        assert harness.verify_functional(level=2)
        # corrupt the staged texture buffer behind the simulator's back
        sim = harness._sims[config.cards[0]]
        problem = harness.problem(2)
        key = "algo1-thread-tex/db"
        buf = sim.memory.texture_mem.get(key)
        buf.setflags(write=True)
        buf[: problem.n // 2] = (buf[: problem.n // 2] + 1) % 26
        buf.setflags(write=False)
        # the staging layer detects content drift and re-uploads, so
        # verification still passes — corruption cannot leak into counts
        assert harness.verify_functional(level=2)

    def test_engine_returning_garbage_is_caught(self):
        from repro.mining.alphabet import Alphabet
        from repro.mining.engines import CountingEngine
        from repro.mining.miner import FrequentEpisodeMiner
        from repro.errors import MiningError

        alpha = Alphabet.of_size(4)
        db = np.zeros(50, dtype=np.uint8)

        class BadEngine(CountingEngine):
            name = "bad"

            def count_batch(self, db, batch, *args, **kwargs):
                return np.zeros(len(batch) + 1)  # wrong shape

        with pytest.raises(MiningError):
            FrequentEpisodeMiner(alpha, 0.1, engine=BadEngine()).mine(db)


class TestSweepRowIntegrity:
    def test_dominant_bound_vocabulary(self):
        """Every sweep row's dominant bound names a modeled mechanism."""
        config = SweepConfig(threads=(64, 512), db_length=5003, levels=(1, 2))
        rows = Harness(config).run()
        allowed = {"issue", "latency", "bandwidth", "texture-pipe", "serial", "fixed"}
        assert {r.dominant_bound for r in rows} <= allowed

    def test_episode_counts_recorded(self):
        config = SweepConfig(threads=(64,), db_length=1009, levels=(1, 2))
        rows = Harness(config).run()
        assert {r.episodes for r in rows} == {26, 650}
