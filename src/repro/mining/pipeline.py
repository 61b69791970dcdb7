"""Pipelined level-wise mining (paper §6 future work, implemented).

The classic mining loop serializes: count level k -> eliminate ->
generate level k+1 -> count level k+1.  The paper observes the counting
of consecutive levels is independent once candidates exist, so level
k+1's counting can be *queued* behind level k's without host
round-trips, and host-side generation/elimination overlaps device work.

:class:`PipelinedMiner` implements that on the stream model: counting
kernels are dispatched on alternating streams while the host runs
generation one level ahead using *speculative candidates* (the full
Table-1 space), then reconciles against the real frequent set when
counts arrive.  Speculation is bounded by ``max_speculative``: a level
whose full Table-1 space exceeds the cap (N!/(N-L)! explodes with the
alphabet) is never materialized speculatively — the pipeline drains,
and remaining levels run sequentially from the reconciled survivors
via A-priori generation, counted host-side on a registry engine
(:mod:`repro.mining.engines`).  On 2009-class hardware (no concurrent
kernels) the win is the hidden host work; the report also carries the
idealized overlapped bound (see :mod:`repro.gpu.streams`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MiningError, ValidationError
from repro.gpu.simulator import GpuSimulator
from repro.gpu.specs import DeviceSpecs
from repro.gpu.streams import StreamTimeline
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import (
    count_candidates,
    generate_level,
    generate_next_level,
)
from repro.mining.engines import CountingEngine, get_engine
from repro.mining.miner import LevelResult, MiningResult, eliminate_level
from repro.mining.policies import MatchPolicy
from repro.algos.base import MiningProblem
from repro.algos.registry import get_algorithm
from repro.algos.selector import AdaptiveSelector


@dataclass(frozen=True)
class PipelineReport:
    """Timing outcome of a pipelined mining run."""

    result: MiningResult
    serialized_ms: float
    overlapped_ms: float
    host_ms_hidden: float
    kernels_launched: int
    #: supervision records from the sequential continuation's engine
    #: scope (see :mod:`repro.resilience.supervisor`); empty when no
    #: capped levels ran or the engine is unsupervised
    degradation_events: tuple = ()

    @property
    def overlap_speedup(self) -> float:
        """Idealized concurrent-kernel speedup ceiling."""
        return (
            self.serialized_ms / self.overlapped_ms if self.overlapped_ms else 1.0
        )


class PipelinedMiner:
    """Level-pipelined miner over a simulated device.

    Parameters mirror :class:`~repro.mining.miner.FrequentEpisodeMiner`;
    ``host_ms_per_candidate`` models the host-side generation cost the
    pipeline hides (``DEFAULT_HOST_MS_PER_CANDIDATE`` when ``None``).
    ``max_speculative`` caps how many candidates one speculative level
    may materialize; levels beyond the cap run sequentially on
    ``engine`` (a counting-engine registry name or instance).
    """

    #: host-side cost per candidate (ms) when the caller passes none
    DEFAULT_HOST_MS_PER_CANDIDATE = 0.001

    def __init__(
        self,
        device: DeviceSpecs,
        alphabet: Alphabet,
        threshold: float,
        max_level: int = 3,
        host_ms_per_candidate: "float | None" = None,
        concurrent_kernels: bool = False,
        max_speculative: int = 200_000,
        engine: "str | CountingEngine" = "auto",
    ) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValidationError(f"threshold must be in [0, 1), got {threshold}")
        if max_level < 1:
            raise ValidationError("max_level must be >= 1")
        if max_speculative < 1:
            raise ValidationError(
                f"max_speculative must be >= 1, got {max_speculative}"
            )
        self.device = device
        self.alphabet = alphabet
        self.threshold = threshold
        self.max_level = max_level
        self.host_ms_per_candidate = (
            host_ms_per_candidate if host_ms_per_candidate is not None
            else self.DEFAULT_HOST_MS_PER_CANDIDATE
        )
        self.concurrent_kernels = concurrent_kernels
        self.max_speculative = max_speculative
        self._engine = get_engine(engine)
        self._sim = GpuSimulator(device)
        self._selector = AdaptiveSelector(device)

    def mine(self, db: np.ndarray) -> PipelineReport:
        db = self.alphabet.validate_database(np.asarray(db))
        if db.size == 0:
            raise ValidationError("cannot mine an empty database")
        timeline = StreamTimeline(concurrent_kernels=self.concurrent_kernels)
        # an idealized concurrent-kernel replica gives the speedup ceiling
        ceiling = StreamTimeline(concurrent_kernels=True)
        levels: list[LevelResult] = []
        host_hidden = 0.0
        n = db.size

        # Speculative dispatch: the level-(k+1) candidate space (full
        # Table-1 space) does not depend on level k's counts, so its
        # kernel is queued while level k's counts are still "in flight";
        # elimination filters the returned counts on the host.
        pending: list[tuple[int, list, np.ndarray | None]] = []
        first_capped_level: int | None = None
        for level in range(1, self.max_level + 1):
            # level 1 is only N candidates — the factorial blowup the cap
            # guards against starts at level 2
            if level > 1 and (
                count_candidates(self.alphabet.size, level) > self.max_speculative
            ):
                # Table-1 space too large to materialize speculatively
                # (N!/(N-L)! would OOM before reconciliation); this and
                # deeper levels run sequentially from the survivors.
                first_capped_level = level
                break
            candidates = generate_level(self.alphabet, level)
            if not candidates:
                break
            stream = level % 2
            problem = MiningProblem(
                db, tuple(candidates), self.alphabet.size, MatchPolicy.RESET
            )
            choice = self._selector.select_cached(problem)
            kernel = get_algorithm(choice.algorithm_id)(
                problem, threads_per_block=choice.threads_per_block
            )
            result = self._sim.launch(kernel)
            timeline.launch(stream, result.report)
            ceiling.launch(stream, result.report)
            # host-side generation for the *next* level overlaps this
            # kernel: it is charged to the other stream's timeline
            host_cost = len(candidates) * self.host_ms_per_candidate
            timeline.host_work(1 - stream, host_cost)
            ceiling.host_work(1 - stream, host_cost)
            host_hidden += host_cost
            pending.append((level, candidates, result.output))

        prev_frequent: set[tuple[int, ...]] | None = None
        last_frequent: list = []
        exhausted = False
        for level, candidates, counts in pending:
            assert counts is not None
            # reconcile speculation: a level-k candidate also needs its
            # prefix frequent at level k-1 (Algorithm 1's generation rule)
            if prev_frequent is not None:
                prefix_ok = np.fromiter(
                    (c.items[:-1] in prev_frequent for c in candidates),
                    dtype=bool,
                    count=len(candidates),
                )
            else:
                prefix_ok = None
            result, frequent = eliminate_level(
                level, candidates, np.asarray(counts), n, self.threshold,
                extra_keep=prefix_ok,
            )
            levels.append(result)
            prev_frequent = {c.items for c in frequent}
            last_frequent = frequent
            if not frequent:
                exhausted = True
                break

        # Sequential continuation for capped levels: A-priori generation
        # from the reconciled survivors, counted host-side on the engine.
        # The engine's run scope brackets the whole continuation so a
        # run-scoped engine (sharded) spawns its pool once, not per level.
        degradation_events: tuple = ()
        if first_capped_level is not None and not exhausted:
            level = first_capped_level
            with self._engine:
                while last_frequent and level <= self.max_level:
                    candidates = generate_next_level(
                        last_frequent, self.alphabet, contiguous=True
                    )
                    if not candidates:
                        break
                    # one batched engine call per level (the engine's
                    # run scope is held by the with block)
                    counts = self._engine.count_batch(
                        db, candidates, self.alphabet.size, MatchPolicy.RESET
                    )
                    result, frequent = eliminate_level(
                        level, candidates, counts, n, self.threshold
                    )
                    levels.append(result)
                    last_frequent = frequent
                    level += 1
                degradation_events = tuple(
                    getattr(self._engine, "events", ())
                )

        return PipelineReport(
            result=MiningResult(threshold=self.threshold, levels=tuple(levels)),
            serialized_ms=max(timeline.serialized_ms, timeline.overlapped_ms),
            overlapped_ms=ceiling.overlapped_ms,
            host_ms_hidden=host_hidden,
            kernels_launched=len(timeline.events),
            degradation_events=degradation_events,
        )
