"""Adaptive algorithm selection.

The paper's conclusion: "a MapReduce-based implementation must
dynamically adapt the type and level of parallelism in order to obtain
the best performance" — episodes of length 1 want block-level buffered
parallelism, length 2 wants block-level unbuffered at small blocks,
length 3 wants thread-level.  :class:`AdaptiveSelector` operationalizes
that: given a problem and a card, it sweeps the (algorithm x thread
count) space with the timing model and returns the fastest
configuration.  This is the paper's future-work auto-tuner, implemented.

Selection cost is amortized two ways:

* infeasible configurations are rejected at *construction* time — a
  sweep in which every thread count exceeds the card's per-block limit
  raises :class:`~repro.errors.ConfigError` naming the card and sweep
  instead of failing deep inside a counting call;
* :meth:`AdaptiveSelector.select_cached` memoizes the full sweep per
  problem *shape* (level, episode/database-size buckets, policy,
  window), so a
  driver that counts many same-shaped batches (the level-wise miner,
  property-test loops) pays the ~64-point sweep once per shape instead
  of once per counting call.  Every cached configuration is exact —
  only the modeled speed of the choice depends on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.gpu.report import TimingReport
from repro.gpu.simulator import GpuSimulator
from repro.gpu.specs import DeviceSpecs
from repro.mining.policies import MatchPolicy
from repro.algos.base import MiningProblem
from repro.algos.registry import ALGORITHMS

#: The paper sweeps thread counts in this range (Figs. 6-9 x-axes).
DEFAULT_THREAD_SWEEP: tuple[int, ...] = tuple(range(32, 513, 32))


@dataclass(frozen=True)
class SelectionResult:
    """Winner of a selection sweep plus the full ranking."""

    algorithm_id: int
    threads_per_block: int
    report: TimingReport
    ranking: tuple[tuple[int, int, float], ...]  # (algo, threads, ms) sorted

    @property
    def best_ms(self) -> float:
        return self.report.total_ms

    def best_for_algorithm(self, algorithm_id: int) -> tuple[int, float]:
        """Best (threads, ms) for one algorithm within the sweep."""
        entries = [r for r in self.ranking if r[0] == algorithm_id]
        if not entries:
            raise ConfigError(f"algorithm {algorithm_id} not in sweep")
        _, threads, ms = min(entries, key=lambda r: r[2])
        return threads, ms


class AdaptiveSelector:
    """Model-driven (algorithm, thread-count) auto-tuner for one device."""

    def __init__(
        self,
        device: DeviceSpecs,
        thread_sweep: Sequence[int] = DEFAULT_THREAD_SWEEP,
        algorithms: Iterable[int] = (1, 2, 3, 4),
    ) -> None:
        if not thread_sweep:
            raise ConfigError("thread sweep must not be empty")
        self.device = device
        self.thread_sweep = tuple(thread_sweep)
        self.algorithms = tuple(algorithms)
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a}")
        if all(t > device.max_threads_per_block for t in self.thread_sweep):
            raise ConfigError(
                f"no thread count in sweep {self.thread_sweep} fits "
                f"{device.name} (max_threads_per_block="
                f"{device.max_threads_per_block}); nothing to select from"
            )
        self._sim = GpuSimulator(device)
        self._cache: dict[tuple, SelectionResult] = {}

    def _feasible(self, algo_id: int, problem: MiningProblem) -> bool:
        """Block-level kernels decompose the database into segments, which
        is exact only for contiguous (RESET) matching."""
        return not (
            ALGORITHMS[algo_id].block_level
            and problem.policy is not MatchPolicy.RESET
        )

    def select(self, problem: MiningProblem) -> SelectionResult:
        """Sweep and return the fastest configuration for ``problem``."""
        ranking: list[tuple[int, int, float]] = []
        best: tuple[float, int, int, TimingReport] | None = None
        for algo_id in self.algorithms:
            if not self._feasible(algo_id, problem):
                continue
            cls = ALGORITHMS[algo_id]
            for t in self.thread_sweep:
                if t > self.device.max_threads_per_block:
                    continue
                kernel = cls(problem, threads_per_block=t)
                report = self._sim.time_only(kernel)
                ms = report.total_ms
                ranking.append((algo_id, t, ms))
                if best is None or ms < best[0]:
                    best = (ms, algo_id, t, report)
        if best is None:
            raise ConfigError(
                f"no algorithm in {self.algorithms} supports policy "
                f"{problem.policy.value!r}: block-level kernels (3, 4) "
                "require RESET (segment decomposition exactness)"
            )
        ranking.sort(key=lambda r: r[2])
        _, algo_id, threads, report = best
        return SelectionResult(
            algorithm_id=algo_id,
            threads_per_block=threads,
            report=report,
            ranking=tuple(ranking),
        )

    @staticmethod
    def shape_key(problem: MiningProblem) -> tuple:
        """Memoization key: (level, episode bucket, db bucket, policy, window).

        Episode counts and database length are bucketed by bit length
        (powers of two): the sweep's winner is stable within a bucket,
        and any residual mismatch costs only modeled speed, never
        exactness.  The database bucket matters — the thread- vs
        block-level crossover moves with ``n``, so a selection tuned on
        a short database must not be reused for a long one.
        """
        return (
            problem.level,
            problem.n_episodes.bit_length(),
            problem.n.bit_length(),
            problem.policy,
            problem.window,
        )

    def select_cached(self, problem: MiningProblem) -> SelectionResult:
        """Memoized :meth:`select`, keyed by :meth:`shape_key`."""
        key = self.shape_key(problem)
        hit = self._cache.get(key)
        if hit is None:
            hit = self.select(problem)
            self._cache[key] = hit
        return hit

    def cache_clear(self) -> None:
        """Drop all memoized selections."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)
