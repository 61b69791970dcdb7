"""Incremental level-wise mining over an unbounded chunk feed.

:class:`StreamingMiner` maintains, after every arriving chunk, exactly
the mining result the batch :class:`~repro.mining.miner.
FrequentEpisodeMiner` would produce over the concatenated prefix (the
batch-equivalence contract of :mod:`repro.streaming`) — without
recounting the prefix.  Per chunk it:

1. *advances* every tracked candidate's carried FSM state through the
   :class:`~repro.streaming.store.EpisodeStateStore` (position-hop
   chunk resume: interpreter work proportional to tracked candidates,
   never to chunk or prefix length);
2. *reconciles* the tracked candidate sets against what level-wise
   A-priori generation now yields: candidates whose support crossed the
   threshold promote their extensions into tracking (backfilled over
   the retained prefix), candidates that fell below demote theirs —
   the lazy promotion/demotion that keeps the tracked set equal to the
   batch miner's candidate sets at all times.

Windowed mode is an *exact sliding window* over the trailing
``horizon`` events, kept as the arriving chunk segments.  RESET counts
the window buffer with one engine ``count_batch`` per level (one
data-parallel n-gram pass, cheaper than any seam bookkeeping).
SUBSEQUENCE/EXPIRING fold it decrementally: each full segment's
behaviour is summarized once (trie-walk segment summaries, cached per
segment per level) and the window count is the left-to-right
composition of the partial front segment plus the cached summaries —
so an update costs work proportional to the chunk, not the horizon.
Both stay bit-identical to batch-mining the window buffer.

Landmark mode optionally bounds memory: with ``retention`` set, only
the trailing ``retention`` events of the prefix are kept for promotion
backfill.  Carried counts stay exact forever (state carry never needs
history); counts backfilled for episodes *promoted after* the cap
binds are exact lower bounds over the discarded prefix (see
:meth:`~repro.streaming.store.EpisodeStateStore.retrack`).

Counting dispatch goes through the engine registry: a
``consume``/``mine_stream`` call leases the engine's run scope once for
the whole stream, so a ``sharded`` engine spawns its worker pool once
per stream — not once per chunk — and the ``auto`` tier applies the
same fixed dispatch rule as in batch mining.  A bare ``update`` call
still scopes itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, ConfigError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import generate_level, generate_next_level
from repro.mining.counting import _NEG
from repro.mining.engines import (
    CountingEngine,
    get_engine,
)
from repro.mining.episode import Episode
from repro.mining.miner import (
    LevelResult,
    MiningResult,
    calibration_provenance,
    eliminate_level,
)
from repro.mining.policies import MatchPolicy, validate_window
from repro.mining.spanning import (
    ExpiringSummary,
    advance_expiring,
    advance_subsequence,
)
# uncalled: perfbench/layers.py SITES pins it (install() reads vars(module)[attr]); ROADMAP item 2 drops it
from repro.mining.spanning import count_starts_in
# uncalled: perfbench/layers.py SITES pins it (install() reads vars(module)[attr]); ROADMAP item 2 drops it
from repro.mining.trie import cached_count_batch
from repro.mining.trie import (
    CandidateTrie,
    expiring_summary_trie,
    subsequence_summary_trie,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    resolve_recorder,
)
from repro.obs.report import RunReport
from repro.streaming.checkpoint import read_checkpoint, write_checkpoint
from repro.streaming.sources import StreamSource, as_stream_source
from repro.streaming.store import EpisodeStateStore

__all__ = ["StreamingMiner", "StreamUpdate"]

#: window-mode names accepted by :class:`StreamingMiner`
MODES = ("landmark", "windowed")


class _EventBuffer:
    """Growable event buffer with O(1) amortized append and front drop.

    Replaces the chunk-list + per-promotion ``np.concatenate`` prefix:
    events live in one ``uint8`` array, appends double the capacity as
    needed (compaction copies into a *fresh* array, never an
    overlapping in-place move), and dropping from the front just
    advances the low watermark — so bounded-retention landmark streams
    hold at most ~2x the retained events plus one chunk.
    """

    def __init__(self) -> None:
        self._buf = np.zeros(1024, dtype=np.uint8)
        self._lo = 0
        self._hi = 0

    @property
    def size(self) -> int:
        return self._hi - self._lo

    def append(self, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk, dtype=np.uint8)
        if chunk.size == 0:
            return
        if self._hi + int(chunk.size) > self._buf.size:
            live = self._hi - self._lo
            cap = max(1024, int(self._buf.size))
            while cap < (live + int(chunk.size)) * 2:
                cap *= 2
            fresh = np.zeros(cap, dtype=np.uint8)
            fresh[:live] = self._buf[self._lo:self._hi]
            self._buf = fresh
            self._lo = 0
            self._hi = live
        self._buf[self._hi:self._hi + int(chunk.size)] = chunk
        self._hi += int(chunk.size)

    def drop_front(self, n: int) -> None:
        self._lo = min(self._lo + int(n), self._hi)

    def view(self) -> np.ndarray:
        """The live events as a zero-copy view (do not hold across appends)."""
        return self._buf[self._lo:self._hi]


class _Segment:
    """One window-resident chunk: identity, absolute start, events."""

    __slots__ = ("sid", "start", "data")

    def __init__(self, sid: int, start: int, data: np.ndarray) -> None:
        self.sid = sid
        self.start = start
        self.data = data


@dataclass(frozen=True)
class StreamUpdate:
    """Outcome of folding one chunk into the stream state."""

    chunk_index: int
    chunk_events: int
    total_events: int
    #: candidates currently tracked across all levels (after reconcile)
    n_tracked: int
    #: episodes promoted into / demoted out of tracking by this chunk
    promoted: "tuple[Episode, ...]"
    demoted: "tuple[Episode, ...]"
    #: frequent episodes across all levels, as of this chunk
    n_frequent: int
    #: supervision records from this chunk's engine work (see
    #: :mod:`repro.resilience.supervisor`); empty on clean updates
    events: tuple = ()


class StreamingMiner:
    """Level-wise frequent-episode mining over a live chunk feed.

    Parameters mirror :class:`~repro.mining.miner.FrequentEpisodeMiner`
    where they overlap; ``engine`` must be a registry name or
    :class:`~repro.mining.engines.CountingEngine` instance (plain
    callables cannot be dispatched per-chunk).

    ``mode`` selects the window semantics (documented in
    :mod:`repro.streaming`): ``"landmark"`` counts over the entire
    stream since the first chunk, carrying state incrementally;
    ``"windowed"`` counts over the trailing ``horizon`` events (RESET
    recounts the window buffer; SUBSEQUENCE/EXPIRING fold cached
    segment summaries).  ``retention`` (landmark only)
    caps the retained backfill prefix at the trailing ``retention``
    events; carried counts stay exact, promotion backfill over the
    capped prefix yields exact lower bounds.

    ``recorder`` (a :class:`~repro.obs.recorder.Recorder`) traces the
    stream: one ``chunk`` span per update carrying the
    incremental-vs-recount path decision, counters for events ingested,
    promotions/demotions, and backfill cost, plus whatever the engine
    records (shard dispatch, gpu-sim launches).  :attr:`last_report`
    snapshots the accumulated telemetry into a
    :class:`~repro.obs.report.RunReport` on demand.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        threshold: float,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: "int | None" = None,
        engine: "str | CountingEngine | None" = None,
        mode: str = "landmark",
        horizon: "int | None" = None,
        max_level: int = 8,
        exhaustive_candidates: bool = False,
        retention: "int | None" = None,
        recorder: "Recorder | NullRecorder | None" = None,
    ) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValidationError(
                f"threshold alpha must be in [0, 1), got {threshold}"
            )
        if max_level < 1:
            raise ValidationError(f"max_level must be >= 1, got {max_level}")
        validate_window(policy, window)
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "windowed":
            if horizon is None or horizon < 1:
                raise ConfigError(
                    f"windowed mode requires horizon >= 1, got {horizon}"
                )
            if retention is not None:
                raise ConfigError(
                    "retention only applies to landmark mode (windowed "
                    "streams are bounded by the horizon already)"
                )
        elif horizon is not None:
            raise ConfigError("horizon only applies to windowed mode")
        if retention is not None and retention < 1:
            raise ConfigError(
                f"retention must be >= 1 events, got {retention}"
            )
        self.alphabet = alphabet
        self.threshold = threshold
        self.policy = policy
        self.window = window
        self.mode = mode
        self.horizon = horizon
        self.max_level = max_level
        self.exhaustive_candidates = exhaustive_candidates
        self.retention = retention
        self._engine = get_engine(engine or "auto")
        self._store = EpisodeStateStore(
            alphabet.size, policy, window, max_level, self._engine
        )
        #: landmark mode: retained prefix (trailing `retention` events
        #: once the cap binds, the whole prefix otherwise)
        self._buf = _EventBuffer()
        #: windowed mode: window-resident chunk segments, oldest first
        self._segments: "list[_Segment]" = []
        self._next_sid = 0
        #: per-level cached segment summaries for the SUBSEQUENCE /
        #: EXPIRING decremental fold
        self._win_cache: "dict[int, dict]" = {}
        #: window contents after the last recompute (no-op short-circuit)
        self._win_prev: "np.ndarray | None" = None
        #: per-level memo of (frequent-set key, generated candidates):
        #: A-priori generation is deterministic in the frequent set, so
        #: steady-state chunks reuse it instead of regenerating
        self._cand_cache: "dict[int, tuple[tuple, CandidateTrie]]" = {}
        self._total = 0
        self._chunk_index = 0
        self._levels: "tuple[LevelResult, ...]" = ()
        #: run telemetry (None -> the zero-cost null recorder)
        self.recorder = recorder
        #: which update path the last chunk took, for the chunk span:
        #: "incremental" (landmark carry), "short-circuit" (windowed
        #: no-op slide), or "recount" (windowed window count)
        self._last_path = ""
        #: supervision events accumulated across the whole stream (the
        #: engine's list resets per run scope; reports want all of them)
        self._sup_events: "list" = []

    # -- public surface ------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events consumed so far (landmark and windowed alike)."""
        return self._total

    @property
    def n_tracked(self) -> int:
        """Candidates currently tracked (landmark mode; 0 in windowed)."""
        return self._store.n_tracked

    @property
    def chunk_index(self) -> int:
        """Chunks consumed so far (== the next chunk's index)."""
        return self._chunk_index

    @property
    def last_report(self) -> "RunReport | None":
        """Snapshot the stream's telemetry into a
        :class:`~repro.obs.report.RunReport` (``None`` without a real
        recorder).

        Built on access rather than per chunk, so long streams pay
        nothing between reads; each access reflects every chunk
        consumed so far.
        """
        rec = self.recorder
        if rec is None or not rec.enabled:
            return None
        return RunReport.from_recorder(
            rec,
            command="stream",
            degradation_events=tuple(self._sup_events),
            calibration=calibration_provenance(),
            meta={
                "engine": self._engine.name,
                "mode": self.mode,
                "horizon": self.horizon,
                "retention": self.retention,
                "policy": self.policy.value,
                "threshold": self.threshold,
                "chunks": int(self._chunk_index),
                "total_events": int(self._total),
            },
        )

    def update(self, chunk: np.ndarray) -> StreamUpdate:
        """Fold one arriving chunk into the mining state.

        A bare ``update`` call brackets itself in the engine's run
        scope; under :meth:`consume` / :meth:`mine_stream` the scope is
        already held for the whole stream and this nests as a no-op
        (engine scopes are re-entrant), so run-scoped engines
        (``sharded``) spawn at most one worker pool per stream.
        """
        chunk = self.alphabet.validate_database(chunk)
        rec = resolve_recorder(self.recorder)
        self._engine.set_recorder(rec)
        try:
            with rec.span(
                "chunk", index=self._chunk_index, events=int(chunk.size)
            ) as sp:
                with self._engine:
                    seen = len(getattr(self._engine, "events", ()))
                    if self.mode == "landmark":
                        promoted, demoted = self._update_landmark(chunk)
                    else:
                        promoted, demoted = self._update_windowed(chunk)
                    events = tuple(getattr(self._engine, "events", ()))[seen:]
                if rec.enabled:
                    rec.count("stream.chunks")
                    rec.count("stream.events_ingested", int(chunk.size))
                    rec.count("stream.promoted", len(promoted))
                    rec.count("stream.demoted", len(demoted))
                    rec.count(f"stream.path.{self._last_path}")
                    sp.attrs.update(
                        path=self._last_path,
                        promoted=len(promoted),
                        demoted=len(demoted),
                        n_tracked=self._store.n_tracked,
                    )
        finally:
            self._engine.set_recorder(NULL_RECORDER)
        self._sup_events.extend(events)
        self._chunk_index += 1
        return StreamUpdate(
            chunk_index=self._chunk_index - 1,
            chunk_events=int(chunk.size),
            total_events=self._total,
            n_tracked=self._store.n_tracked,
            promoted=promoted,
            demoted=demoted,
            n_frequent=sum(lvl.n_frequent for lvl in self._levels),
            events=events,
        )

    def consume(
        self, source: "StreamSource | np.ndarray | Iterable[np.ndarray]"
    ) -> "list[StreamUpdate]":
        """Drain a stream source (or array / iterable of chunks).

        Leases the engine's run scope once for the whole stream (one
        worker-pool spawn per ``consume``, not per chunk).
        """
        with self._engine:
            return [self.update(c) for c in as_stream_source(source).chunks()]

    def result(self) -> MiningResult:
        """The mining result as of the last consumed chunk.

        In landmark mode this equals
        ``FrequentEpisodeMiner(...).mine(prefix)`` for the concatenated
        prefix; in windowed mode, the same over the trailing
        ``horizon`` events.  Before any events arrive the result is
        empty (a batch miner has nothing to mine yet).
        """
        return MiningResult(threshold=self.threshold, levels=self._levels)

    def mine_stream(
        self, source: "StreamSource | np.ndarray | Iterable[np.ndarray]"
    ) -> MiningResult:
        """Drain ``source`` and return the final result."""
        self.consume(source)
        return self.result()

    # -- checkpoint / resume -------------------------------------------

    def checkpoint(self, path: "str | Path") -> "Path":
        """Write this miner's exact state to ``path`` (atomic; see
        :mod:`repro.streaming.checkpoint` for format and versioning).

        Callable at any chunk boundary.  A miner resumed from the file
        produces, for every subsequent chunk, results bit-identical to
        this miner continuing uninterrupted — the retained prefix
        (landmark) or trailing window buffer (windowed), the state
        store's carried counts and FSM state, the per-level results,
        and the chunk/event clocks are all captured.
        """
        store_meta, arrays = self._store.export_state()
        if "prefix" in arrays:  # impossible today; guard the layout
            raise ConfigError("store arrays may not use the 'prefix' key")
        arrays = dict(arrays)
        arrays["prefix"] = np.array(self._retained(), dtype=np.uint8)
        meta = {
            "kind": "stream-miner",
            "config": {
                "alphabet": list(self.alphabet.symbols),
                "threshold": float(self.threshold),
                "policy": self.policy.value,
                "window": self.window,
                "mode": self.mode,
                "horizon": self.horizon,
                "max_level": int(self.max_level),
                "exhaustive_candidates": bool(self.exhaustive_candidates),
                "retention": self.retention,
            },
            "progress": {
                "chunk_index": int(self._chunk_index),
                "total_events": int(self._total),
            },
            "store": store_meta,
            "results": [
                {
                    "level": int(lvl.level),
                    "n_candidates": int(lvl.n_candidates),
                    "frequent": [list(map(int, ep.items))
                                 for ep in lvl.frequent],
                    "counts": [int(c) for c in lvl.counts],
                }
                for lvl in self._levels
            ],
        }
        return write_checkpoint(path, meta, arrays)

    @classmethod
    def resume(
        cls,
        path: "str | Path",
        engine: "str | CountingEngine | None" = None,
    ) -> "StreamingMiner":
        """Rebuild a miner from a :meth:`checkpoint` file.

        Mining configuration (alphabet, threshold, policy, window,
        mode, horizon, retention, level cap) comes from the checkpoint;
        ``engine`` may differ from the writer's —
        every registry engine is exact, so the choice moves speed,
        never counts.  Feeding the resumed miner the chunks the writer
        had not yet consumed yields results bit-identical to an
        uninterrupted run (``tests/test_resilience.py`` asserts this at
        randomized kill points under all three policies).  Raises
        :class:`~repro.errors.CheckpointError` for torn, corrupt, or
        schema-mismatched files.
        """
        meta, arrays = read_checkpoint(path)
        if meta.get("kind") != "stream-miner":
            raise CheckpointError(
                f"checkpoint {path} is not a stream-miner checkpoint "
                f"(kind={meta.get('kind')!r})"
            )
        cfg = meta["config"]
        try:
            miner = cls(
                Alphabet(tuple(cfg["alphabet"])),
                cfg["threshold"],
                policy=MatchPolicy(cfg["policy"]),
                window=cfg["window"],
                engine=engine,
                mode=cfg["mode"],
                horizon=cfg["horizon"],
                max_level=cfg["max_level"],
                exhaustive_candidates=cfg["exhaustive_candidates"],
                retention=cfg["retention"],
            )
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint {path} has an incomplete config: {exc}"
            ) from exc
        prefix = np.array(arrays["prefix"], dtype=np.uint8)
        store_arrays = {k: v for k, v in arrays.items() if k != "prefix"}
        miner._store.restore_state(meta["store"], store_arrays)
        progress = meta["progress"]
        miner._chunk_index = int(progress["chunk_index"])
        miner._total = int(progress["total_events"])
        if miner.mode == "landmark":
            expected = miner._store.events
            if miner.retention is not None:
                expected = min(expected, miner.retention)
            if int(prefix.size) != expected:
                raise CheckpointError(
                    f"checkpoint {path} is inconsistent: prefix has "
                    f"{prefix.size} events, the retained prefix should "
                    f"hold {expected}"
                )
            miner._buf.append(prefix)
        else:
            expected = min(miner._total, int(miner.horizon))
            if int(prefix.size) != expected:
                raise CheckpointError(
                    f"checkpoint {path} is inconsistent: window buffer "
                    f"has {prefix.size} events, the trailing window "
                    f"should hold {expected}"
                )
            if prefix.size:
                miner._segments = [
                    _Segment(0, miner._total - int(prefix.size), prefix)
                ]
                miner._next_sid = 1
            miner._win_prev = prefix
        levels = []
        for entry in meta["results"]:
            frequent = tuple(
                Episode(tuple(int(i) for i in items))
                for items in entry["frequent"]
            )
            levels.append(
                LevelResult(
                    level=int(entry["level"]),
                    n_candidates=int(entry["n_candidates"]),
                    n_frequent=len(frequent),
                    frequent=frequent,
                    counts=tuple(int(c) for c in entry["counts"]),
                )
            )
        miner._levels = tuple(levels)
        return miner

    # -- internals -----------------------------------------------------

    def _next_candidates(
        self, level: int, frequent: "tuple[Episode, ...]"
    ) -> CandidateTrie:
        """Level-``level`` candidates given the frequent set one level
        down, memoized per level.

        :func:`~repro.mining.candidates.generate_next_level` (and the
        exhaustive :func:`~repro.mining.candidates.generate_level`) is
        a pure function of the frequent set, so when a chunk leaves a
        level's frequent episodes unchanged — the steady state — the
        candidates are reused instead of regenerated.  This keeps the
        per-chunk interpreter work of the A-priori loop proportional to
        *changes* in the frequent sets, which is what lets the
        incremental path beat the naive recount even on tiny feeds.
        The trie is handed on as is, so retracking reuses its matrix
        and node structure instead of rebuilding them.
        """
        static = level == 1 or self.exhaustive_candidates
        key = ("static",) if static else tuple(frequent)
        cached = self._cand_cache.get(level)
        if cached is not None and cached[0] == key:
            return cached[1]
        if static:
            candidates = CandidateTrie.from_episodes(
                generate_level(self.alphabet, level)
            )
        else:
            candidates = generate_next_level(
                frequent, self.alphabet, contiguous=self.policy.is_contiguous
            )
        self._cand_cache[level] = (key, candidates)
        return candidates

    def _retained(self) -> np.ndarray:
        """The events a checkpoint must carry: the retained landmark
        prefix, or the trailing window contents."""
        if self.mode == "landmark":
            return self._buf.view()
        return self._window_contents()

    # -- landmark mode -------------------------------------------------

    def _update_landmark(
        self, chunk: np.ndarray
    ) -> "tuple[tuple[Episode, ...], tuple[Episode, ...]]":
        self._last_path = "incremental"
        self._store.advance(chunk)
        self._buf.append(chunk)
        self._total += int(chunk.size)
        if self.retention is not None and self._buf.size > self.retention:
            self._buf.drop_front(self._buf.size - self.retention)
        return self._reconcile()

    def _reconcile(
        self,
    ) -> "tuple[tuple[Episode, ...], tuple[Episode, ...]]":
        """Re-derive the level-wise candidate sets and their supports.

        Mirrors the batch miner's level loop exactly — including
        recording the first level with zero survivors and stopping
        there — but counts come from the state store: carried for
        episodes that stayed tracked, backfilled over the retained
        prefix for episodes promoted by this chunk (a suffix of the
        stream when ``retention`` has started dropping history; the
        store then backfills exact lower bounds).
        """
        n = self._total
        promoted: "list[Episode]" = []
        demoted: "list[Episode]" = []
        levels: "list[LevelResult]" = []
        if n == 0:
            self._levels = ()
            return (), ()
        history_start = self._total - self._buf.size
        used_levels: "set[int]" = set()
        candidates = self._next_candidates(1, ())
        level = 1
        while candidates:
            pro, dem = self._store.retrack(
                level, candidates, self._buf.view,
                history_start=history_start,
            )
            if pro:
                # promotion backfill cost: each promoted episode was
                # re-counted over the retained prefix (the expensive
                # part of a landmark reconcile)
                resolve_recorder(self.recorder).count(
                    "stream.backfill_episodes", len(pro)
                )
            promoted.extend(pro)
            demoted.extend(dem)
            used_levels.add(level)
            counts = self._store.levels[level].counts
            result, frequent = eliminate_level(
                level, candidates, counts, n, self.threshold
            )
            levels.append(result)
            if not frequent or level == self.max_level:
                break
            level += 1
            candidates = self._next_candidates(level, frequent)
        for lvl in [k for k in self._store.levels if k not in used_levels]:
            demoted.extend(self._store.untrack(lvl))
        self._levels = tuple(levels)
        return tuple(promoted), tuple(demoted)

    # -- windowed mode -------------------------------------------------

    def _window_lo(self) -> int:
        return max(0, self._total - int(self.horizon))

    def _window_contents(self) -> np.ndarray:
        """Materialize the trailing window (checkpoints, the no-op
        check, the RESET count)."""
        if not self._segments:
            return np.zeros(0, dtype=np.uint8)
        lo = self._window_lo()
        first = self._segments[0]
        parts = [first.data[lo - first.start:]]
        parts.extend(seg.data for seg in self._segments[1:])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _update_windowed(
        self, chunk: np.ndarray
    ) -> "tuple[tuple[Episode, ...], tuple[Episode, ...]]":
        """Slide: admit the chunk, retire expired segments, recount
        only if the window contents actually changed.

        RESET counts ``window`` directly.  Under SUBSEQUENCE/EXPIRING
        full segments keep their trie-walk summaries (cached per level
        in ``_win_cache``), so the recount folds cached summaries and
        only does fresh per-event work on the partial front segment and
        the new chunk — work proportional to the chunk, never the
        horizon.
        """
        if chunk.size:
            self._segments.append(
                _Segment(self._next_sid, self._total, chunk)
            )
            self._next_sid += 1
            self._total += int(chunk.size)
        lo = self._window_lo()
        while self._segments and (
            self._segments[0].start + int(self._segments[0].data.size) <= lo
        ):
            dropped = self._segments.pop(0)
            for cache in self._win_cache.values():
                cache["summaries"].pop(dropped.sid, None)
        window = self._window_contents()
        if self._win_prev is not None and np.array_equal(
            window, self._win_prev
        ):
            # size-0 chunk, or a slide that shifted identical content in
            # and out: the window is event-for-event what it was, so the
            # previous level results are already the answer
            self._last_path = "short-circuit"
            return (), ()
        self._win_prev = window
        if window.size == 0:
            self._last_path = "short-circuit"
            self._levels = ()
            return (), ()
        self._last_path = "recount"
        self._reconcile_windowed(window)
        return (), ()

    def _reconcile_windowed(self, window: np.ndarray) -> None:
        """The batch miner's level loop over the trailing window.

        RESET counts ``window`` (the window buffer) with one engine
        ``count_batch`` per level; SUBSEQUENCE/EXPIRING counts come from
        the decremental segment fold.  The caller holds the engine's
        run scope.
        """
        levels: "list[LevelResult]" = []
        candidates = self._next_candidates(1, ())
        level = 1
        while candidates:
            if self.policy is MatchPolicy.RESET:
                counts = self._engine.count_batch(
                    window, candidates, self.alphabet.size,
                    MatchPolicy.RESET, None,
                )
            else:
                counts = self._windowed_counts(level, candidates)
            result, frequent = eliminate_level(
                level, candidates, counts, int(window.size), self.threshold
            )
            levels.append(result)
            if not frequent or level == self.max_level:
                break
            level += 1
            candidates = self._next_candidates(level, frequent)
        self._levels = tuple(levels)

    def _windowed_counts(
        self, level: int, candidates: CandidateTrie
    ) -> np.ndarray:
        """Exact SUBSEQUENCE/EXPIRING counts of ``candidates`` over the
        trailing window.

        Left-to-right composition over the window's segments: the
        partial front segment resumes fresh through the engine's
        ``resume_batch`` (it shrinks as the window slides), every full
        segment contributes its cached trie summary
        (:func:`~repro.mining.trie.subsequence_summary_trie` /
        :func:`~repro.mining.trie.expiring_summary_trie`) via the exact
        advance composition of :mod:`repro.mining.spanning` —
        bit-identical to counting the concatenated window (EXPIRING
        composes on the absolute event clock; counts only depend on
        index differences, so they equal the batch count of the window
        buffer).  A partial front segment's cached summary is dropped:
        it is never read again.
        """
        episodes = tuple(candidates)
        matrix = candidates.matrix
        cache = self._win_cache.get(level)
        if cache is None or cache["episodes"] != episodes:
            cache = {"episodes": episodes, "summaries": {}}
            self._win_cache[level] = cache
        summaries = cache["summaries"]
        lo = self._window_lo()
        total = np.zeros(len(episodes), dtype=np.int64)
        subsequence = self.policy is MatchPolicy.SUBSEQUENCE
        if subsequence:
            state = np.zeros(len(episodes), dtype=np.int64)
        else:
            state = np.full(
                (len(episodes), matrix.shape[1] + 1), _NEG, dtype=np.int64
            )
        for seg, data, offset in self._window_pieces(lo):
            t0 = seg.start + offset
            summary = summaries.get(seg.sid)
            if offset:
                summaries.pop(seg.sid, None)
                inc, state = self._engine.resume_batch(
                    data, candidates, self.policy, self.window, state, t0=t0
                )
            elif subsequence:
                if summary is None:
                    summary = summaries[seg.sid] = subsequence_summary_trie(
                        data, candidates
                    )
                inc, state = advance_subsequence(summary, state)
            else:
                w = int(self.window)  # type: ignore[arg-type]
                if summary is None:
                    summary = summaries[seg.sid] = ExpiringSummary(
                        *expiring_summary_trie(data, candidates, w, t0)
                    )
                inc, state = advance_expiring(
                    data, matrix, w, state, t0, summary
                )
            total += inc
        return total

    def _window_pieces(
        self, lo: int
    ) -> "Iterator[tuple[_Segment, np.ndarray, int]]":
        """Yield ``(segment, window-resident events, front offset)``."""
        for i, seg in enumerate(self._segments):
            offset = lo - seg.start if i == 0 and lo > seg.start else 0
            data = seg.data[offset:] if offset else seg.data
            yield seg, data, offset
