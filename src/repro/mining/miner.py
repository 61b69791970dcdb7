"""The level-wise frequent-episode mining driver (paper Algorithm 1).

``generate candidates -> count -> eliminate -> generate next level``,
with the counting step delegated to a pluggable engine (scalar,
vectorized or sharded CPU, or a simulated-GPU algorithm) — the paper's
whole point being that the counting step dominates and parallelizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import MiningError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import generate_level, generate_next_level
from repro.mining.engines import CountingEngine, get_engine
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy, validate_window
from repro.mining.trie import CandidateTrie
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    resolve_recorder,
)
from repro.obs.report import RunReport


@dataclass(frozen=True)
class LevelResult:
    """Outcome of one level of the mining loop."""

    level: int
    n_candidates: int
    n_frequent: int
    frequent: tuple[Episode, ...]
    counts: tuple[int, ...]

    def as_dict(self) -> dict[Episode, int]:
        return dict(zip(self.frequent, self.counts))


def eliminate_level(
    level: int,
    candidates: "Sequence[Episode]",
    counts: np.ndarray,
    n: int,
    threshold: float,
    extra_keep: "np.ndarray | None" = None,
) -> "tuple[LevelResult, list[Episode]]":
    """Apply the support threshold to one level's counts.

    The single home of the elimination rule (``count / n > threshold``,
    paper §3.1) and the :class:`LevelResult` shape.  The batch miner,
    the pipelined miner, and the streaming miner all eliminate through
    here — the streaming batch-equivalence contract
    (:mod:`repro.streaming`) requires them to agree bit-for-bit, so the
    rule must never be re-implemented per driver.  ``extra_keep``
    optionally ANDs in a further mask (the pipelined miner's
    speculative-prefix reconciliation).  Returns ``(level_result,
    frequent_episodes)``.
    """
    keep = counts / n > threshold
    if extra_keep is not None:
        keep = keep & extra_keep
    frequent = [c for c, k in zip(candidates, keep) if k]
    kept_counts = [int(c) for c, k in zip(counts, keep) if k]
    result = LevelResult(
        level=level,
        n_candidates=len(candidates),
        n_frequent=len(frequent),
        frequent=tuple(frequent),
        counts=tuple(kept_counts),
    )
    return result, frequent


def calibration_provenance(profile: None = None) -> "dict[str, object]":
    """The ``calibration`` entry of a run report: always ``{"source":
    "none"}``, because dispatch is a fixed rule with no profile (see
    :mod:`repro.mining.engines`).  Kept so reports keep their schema
    and for the ``perfbench`` harness, which records it per run."""
    return {"source": "none"}


@dataclass(frozen=True)
class MiningResult:
    """Full mining outcome: per-level results plus the union set S_A."""

    threshold: float
    levels: tuple[LevelResult, ...]

    @property
    def all_frequent(self) -> dict[Episode, int]:
        out: dict[Episode, int] = {}
        for lvl in self.levels:
            out.update(lvl.as_dict())
        return out

    @property
    def max_level(self) -> int:
        return self.levels[-1].level if self.levels else 0

    def level(self, k: int) -> LevelResult:
        for lvl in self.levels:
            if lvl.level == k:
                return lvl
        raise MiningError(f"mining stopped before level {k}")


class FrequentEpisodeMiner:
    """Level-wise miner with a pluggable counting engine.

    Parameters
    ----------
    alphabet:
        The item alphabet.
    threshold:
        The support threshold alpha: an episode is frequent when
        ``count / n > alpha`` (paper §3.1).
    policy, window:
        Matching semantics (see :mod:`repro.mining.policies`).
    engine:
        Counting engine: a registry name (``"auto"``, ``"position-hop"``,
        ``"vector-sweep"``, ``"sharded"``, ...) or a
        :class:`~repro.mining.engines.CountingEngine` instance.
        Defaults to ``"auto"``.  The engine is bound once
        (:meth:`~repro.mining.engines.CountingEngine.bind`), so every
        level of a run shares one
        :class:`~repro.mining.counting.DatabaseIndex`.
    max_level:
        Safety cap on the level loop (the paper's evaluation stops at
        L=3; mining real data can run deeper).
    exhaustive_candidates:
        If True, each level counts the *full* Table-1 candidate space —
        the paper's characterization workload.  If False (default), the
        A-priori generation step builds level L+1 only from level-L
        survivors — Algorithm 1 as written.
    recorder:
        A :class:`~repro.obs.recorder.Recorder` to trace runs into.
        Each ``mine()`` call opens a root ``mine`` span with one
        ``level`` span per level, records structural counters
        (candidates, frequent survivors, trie nodes, count-cache
        hits/misses) and, for instrumented engines, shard-dispatch and
        gpu-sim telemetry.  ``None`` (default) records nothing at zero
        cost; after a recorded run :attr:`last_report` holds the
        structured :class:`~repro.obs.report.RunReport`.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        threshold: float,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        engine: "CountingEngine | str | None" = None,
        max_level: int = 8,
        exhaustive_candidates: bool = False,
        recorder: "Recorder | NullRecorder | None" = None,
    ) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValidationError(
                f"threshold alpha must be in [0, 1), got {threshold}"
            )
        if max_level < 1:
            raise ValidationError(f"max_level must be >= 1, got {max_level}")
        validate_window(policy, window)
        self.alphabet = alphabet
        self.threshold = threshold
        self.policy = policy
        self.window = window
        self.max_level = max_level
        self.exhaustive_candidates = exhaustive_candidates
        self.recorder = recorder
        self._last_report: "RunReport | None" = None
        self._engine = get_engine(engine or "auto").bind(
            alphabet.size, policy, window
        )

    @property
    def degradation_events(self) -> tuple:
        """Supervision events from the most recent mining run.

        :class:`~repro.resilience.supervisor.DegradationEvent` records
        surfaced by a supervised engine (the ``sharded`` tier) — pool
        respawns, reclaimed shards, degradations to the single-process
        chain.  Empty for unsupervised engines, and reset when a new run
        opens its engine scope.  Results are exact either way; this is
        how callers *see* that recovery happened.
        """
        return self._engine.events

    @property
    def last_report(self) -> "RunReport | None":
        """The :class:`~repro.obs.report.RunReport` from the most recent
        recorded run (``None`` until a ``mine()`` call runs with a real
        recorder; unrecorded runs leave the previous report in place)."""
        return self._last_report

    def mine(self, db: np.ndarray) -> MiningResult:
        """Run Algorithm 1 over ``db`` and return all frequent episodes.

        The counting engine's run scope brackets the whole level loop,
        so run-scoped engines (``sharded``) amortize their worker pool
        across every level of this call.

        When the miner carries a recorder, the whole call runs under a
        root ``mine`` span with one ``level`` span per level (covering
        counting, elimination, and next-level candidate generation, so
        level spans account for the run's wall time), and the engine
        records through the same recorder for the duration of the call
        — then is reset to the null recorder, because registry engines
        may be shared singletons.
        """
        db = self.alphabet.validate_database(np.asarray(db))
        n = db.size
        if n == 0:
            raise ValidationError("cannot mine an empty database")
        rec = resolve_recorder(self.recorder)
        engine = self._engine
        cache = engine.cache
        levels: list[LevelResult] = []
        # every level counts through the trie batch representation:
        # generate_next_level emits tries directly, and the exhaustive /
        # level-1 lists are wrapped so registry engines take the shared
        # count_batch path (index-stable, so results are unchanged)
        candidates = CandidateTrie.from_episodes(generate_level(self.alphabet, 1))
        level = 1
        engine.set_recorder(rec)
        try:
            with rec.span("mine", events=int(n), threshold=self.threshold):
                with engine:
                    while candidates:
                        with rec.span(
                            "level", level=level, candidates=len(candidates)
                        ) as sp:
                            before = cache.stats() if rec.enabled else None
                            counts = engine(db, candidates)
                            result, frequent = eliminate_level(
                                level, candidates, counts, n, self.threshold
                            )
                            levels.append(result)
                            if rec.enabled:
                                rec.count("mine.levels")
                                rec.count("mine.candidates", result.n_candidates)
                                rec.count("mine.frequent", result.n_frequent)
                                rec.count("mine.trie_nodes", candidates.n_nodes)
                                sp.attrs["frequent"] = result.n_frequent
                                if before is not None:
                                    after = cache.stats()
                                    d_hits = after["hits"] - before["hits"]
                                    d_miss = after["misses"] - before["misses"]
                                    rec.count("cache.hits", d_hits)
                                    rec.count("cache.misses", d_miss)
                                    sp.attrs.update(
                                        cache_hits=d_hits, cache_misses=d_miss
                                    )
                            if not frequent or level == self.max_level:
                                break
                            level += 1
                            if self.exhaustive_candidates:
                                candidates = CandidateTrie.from_episodes(
                                    generate_level(self.alphabet, level)
                                )
                            else:
                                candidates = generate_next_level(
                                    frequent,
                                    self.alphabet,
                                    contiguous=self.policy.is_contiguous,
                                )
        finally:
            engine.set_recorder(NULL_RECORDER)
        if rec.enabled:
            self._last_report = RunReport.from_recorder(
                rec,
                command="mine",
                degradation_events=self.degradation_events,
                cache=cache.stats(),
                calibration=calibration_provenance(),
                meta={
                    "engine": engine.engine.name,
                    "policy": self.policy.value,
                    "threshold": self.threshold,
                    "n_events": int(n),
                    "levels": len(levels),
                },
            )
        return MiningResult(threshold=self.threshold, levels=tuple(levels))

    def mine_stream(
        self,
        source,
        mode: str = "landmark",
        horizon: "int | None" = None,
    ) -> MiningResult:
        """Mine a chunked event feed instead of one in-memory database.

        ``source`` is anything :func:`repro.streaming.as_stream_source`
        accepts (a :class:`~repro.streaming.StreamSource`, a 1-D array,
        or an iterable of chunk arrays).  In landmark mode the result
        is exactly ``mine(concatenated_stream)`` — counting is carried
        incrementally across chunks by a
        :class:`~repro.streaming.StreamingMiner` configured like this
        miner (same alphabet/threshold/policy/engine);
        windowed mode mines the trailing ``horizon`` events.
        """
        from repro.streaming import StreamingMiner

        streaming = StreamingMiner(
            self.alphabet,
            self.threshold,
            policy=self.policy,
            window=self.window,
            engine=self._engine.engine,
            mode=mode,
            horizon=horizon,
            max_level=self.max_level,
            exhaustive_candidates=self.exhaustive_candidates,
            recorder=self.recorder,
        )
        result = streaming.mine_stream(source)
        if self.recorder is not None:
            self._last_report = streaming.last_report
        return result
