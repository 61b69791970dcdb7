"""Serial reference miner — the "GMiner-like" single-CPU baseline.

The paper motivates GPU mining by contrast with GMiner, "limited to a
single CPU running a Java virtual machine, forcing output to be
processed post-mortem" (§1).  :class:`SerialMiner` plays that role: one
scalar pass per candidate (the ``scalar-oracle`` engine), no
vectorization, no parallelism.  It is
deliberately naive — it is both the correctness oracle for integration
tests and the CPU baseline the benchmark harness compares simulated-GPU
configurations against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mining.alphabet import Alphabet
from repro.mining.engines import ScalarOracleEngine
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner, MiningResult
from repro.mining.policies import MatchPolicy
from repro.mining.trie import CandidateTrie, as_trie
from repro.obs import clock


@dataclass(frozen=True)
class SerialTiming:
    """Wall-clock record of a serial counting pass."""

    episodes: int
    db_length: int
    seconds: float

    @property
    def chars_per_second(self) -> float:
        total = self.episodes * self.db_length
        return total / self.seconds if self.seconds > 0 else float("inf")


class _TimedOracle(ScalarOracleEngine):
    """The scalar oracle, recording the wall time of each counting pass."""

    def __init__(self) -> None:
        self.last_timing: SerialTiming | None = None

    def count_batch(
        self, db: np.ndarray, batch: CandidateTrie, *args, **kwargs
    ) -> np.ndarray:
        start = clock.now()
        counts = super().count_batch(db, batch, *args, **kwargs)
        self.last_timing = SerialTiming(
            episodes=len(batch),
            db_length=int(db.size),
            seconds=clock.now() - start,
        )
        return counts


class SerialMiner:
    """Single-threaded scalar miner."""

    def __init__(
        self,
        alphabet: Alphabet,
        threshold: float,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        max_level: int = 8,
    ) -> None:
        self.alphabet = alphabet
        self.policy = policy
        self.window = window
        self._engine = _TimedOracle()
        self._miner = FrequentEpisodeMiner(
            alphabet,
            threshold,
            policy=policy,
            window=window,
            engine=self._engine,
            max_level=max_level,
        )

    @property
    def last_timing(self) -> SerialTiming | None:
        """Timing of the most recent counting pass."""
        return self._engine.last_timing

    def mine(self, db: np.ndarray) -> MiningResult:
        return self._miner.mine(db)

    def count(self, db: np.ndarray, episodes: list[Episode]) -> np.ndarray:
        """Expose the raw counting pass for baseline benchmarks."""
        return self._engine.count_batch(
            np.asarray(db), as_trie(episodes), self.alphabet.size,
            self.policy, self.window,
        )
