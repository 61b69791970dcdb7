"""Counting-engine registry: named, swappable episode-counting backends.

The counting step is the paper's hot path, and different problem shapes
want different exact implementations (see the tier descriptions in
:mod:`repro.mining.counting`).  This module names each tier, registers
it in an :class:`EngineRegistry`, and layers composition on top:

* ``scalar-oracle`` — per-character scalar recurrences; the
  property-test ground truth.
* ``vector-sweep`` — the per-character NumPy FSM sweeps (one
  interpreter step per database character).
* ``position-hop`` — vectorized position-list counting (interpreter
  work independent of database length).
* ``auto`` — picks ``position-hop`` unless the database is short
  relative to the episode batch, where the sweep's lower per-episode
  setup cost wins.
* ``gpu-sim`` — the simulated-GPU path: each counting call becomes one
  kernel launch on a simulated card (:mod:`repro.algos` kernels), with
  the (algorithm x thread-count) configuration chosen by the
  :class:`~repro.algos.selector.AdaptiveSelector` and memoized per
  problem shape.  Functionally exact like every other tier; uniquely,
  it also records a per-launch :class:`~repro.gpu.report.TimingReport`
  so drivers can report the simulated kernel time the paper measures.
* ``sharded`` — a wrapper that decomposes one counting call into small
  typed shard tasks run on a supervised process pool.  RESET batches
  split along the *database* axis, one shard per segment reading the
  ``L-1`` events past the segment's end, so each shard counts exactly
  the occurrences that start inside it and no span fix is needed.
  SUBSEQUENCE/EXPIRING batches split along the *episode* axis by whole
  trie subtrees when the batch is wide enough, and otherwise along the
  *database* axis via the two-pass state-summarization carry of
  :mod:`repro.mining.spanning` (Patnaik et al.'s accelerator-oriented
  transformation): workers walk the trie for per-segment state
  summaries in parallel (pass 1), and a cheap sequential compose
  threads the true entry states through them — exact for occurrences
  straddling any number of segments.

Counting
--------
Every engine has exactly one counting method,
``count_batch(db, batch, alphabet_size, policy, window, index=None)``,
over a :class:`~repro.mining.trie.CandidateTrie` — the shared-prefix
batch representation :func:`~repro.mining.candidates.generate_next_level`
emits.  Flat inputs (episode lists, ``(E, L)`` matrices) become a trie
once, at the public edges: :func:`repro.mining.counting.count_batch`,
:func:`~repro.mining.trie.cached_count_batch` and
:meth:`CountingEngine.resume_batch`.  The contract (details in
``CONTRACTS.md``):

* **index stability** — output slot ``i`` is the ``i``-th episode
  inserted into the trie, so result/bench schemas are unchanged;
* **scalar-oracle ground truth** — every engine returns exactly the
  per-episode :func:`~repro.mining.counting.count_matrix_reference`
  counts; engines differ only in speed (``tests/test_engines.py`` and
  the cross-engine conformance matrix of ``tests/test_conformance.py``
  assert this over all policies, repeated-symbol matrices, and
  degenerate tries);
* **where sharing happens** — ``position-hop`` hops each trie edge
  once, reusing the parent node's position-list frontier for all
  children (exact because the frontier depends only on the consumed
  prefix — see :func:`repro.mining.trie.count_positions_trie`); wide
  SUBSEQUENCE batches share the database's next-occurrence table
  instead, cached on the ``DatabaseIndex`` so every level and every
  shard a worker counts against it builds it once;
  ``sharded`` ships whole root subtrees per shard (prefix sharing
  survives inside every shard; explicit index arrays scatter results
  back exactly); ``vector-sweep`` flattens — its per-character sweep
  already advances all episodes through one vectorized state table,
  and the greedy non-overlap reset makes cross-episode FSM state
  diverge after any completion, so there is no exact per-prefix state
  to share; RESET always flattens to the single O(n) n-gram pass
  (:func:`~repro.mining.counting.count_reset_batch`: a gram table
  while it is small next to n, a sorted episode-code lookup past
  that, so memory stays O(n + E) at any alphabet and level);
* **one call per level** — ``bind(...)`` adapts an engine to the
  miner's ``(db, episodes) -> counts`` callable: each batch is one
  engine ``count_batch`` through
  :func:`~repro.mining.trie.cached_count_batch`, which checks that the
  engine returned one count per candidate.  It reuses one
  :class:`DatabaseIndex` per database, staleness-checked by content
  fingerprint on every call, so in-place mutation of a database array
  rebuilds the index instead of silently serving stale counts.  The
  name ``cached_count_batch`` is kept only because the benchmark's
  layer tracing binds it; nothing is cached.  The pipelined and
  streaming miners call ``count_batch`` directly.

Engine lifecycle
----------------
Every engine is a reusable, re-entrant *context manager*: ``with
engine:`` brackets one mining run.  For the stateless host tiers the
scope is a no-op; :class:`ShardedEngine` acquires its process pool at
the first sharding call of the scope and releases it on exit, so all
counting calls of a run — every level of the miner — share one pool
instead of spawning workers per call, and pooled workers keep a
:class:`DatabaseIndex` cache keyed by a database content fingerprint,
so subtree shards stop re-deriving position lists every call.
:class:`~repro.mining.miner.FrequentEpisodeMiner`,
:class:`~repro.mining.pipeline.PipelinedMiner`, and the CLI all enter
the engine scope around the level loop.  Counting *outside* a scope
stays correct and spawns a pool per sharding call.

Failure semantics
-----------------
Pooled execution is *supervised* (:mod:`repro.resilience.supervisor`):
every shard of a sharding call is a tracked future, and the contract on
failure is explicit rather than a silent whole-call recompute:

* **worker death** (``BrokenProcessPool``): the run-scoped pool is
  respawned once with seeded exponential backoff and only *unfinished*
  shards are re-dispatched — completed shard results are kept;
* **hang**: shards pending past ``shard_deadline_s`` (when set) are
  reclaimed and recounted in-process, their late results ignored, and
  the poisoned pool is dropped without waiting on the hung worker;
* **repeated failure** (respawn budget exhausted, or the pool cannot
  spawn at all): the run degrades down the explicit chain *sharded ->
  single-process inner engine* for the rest of the scope;
* **shard exceptions are never retried**: a shard task raising is a
  programming error, not an infrastructure failure, and propagates as
  itself (directly testable through fault injection).

Every decision lands as a structured
:class:`~repro.resilience.supervisor.DegradationEvent` on
``ShardedEngine.events`` (cleared when a new run scope opens), so
drivers surface degradation instead of discovering it from timing.
Recovery moves *where* counting happens, never what is counted — the
resilience property suite (``tests/test_resilience.py``) asserts exact
result equality under every injected fault.

Dispatch rule
-------------
Dispatch is a fixed function of each call's inputs — no profile file,
no environment variable, no host fingerprint, no wall-clock state.
:class:`AutoEngine` always sends RESET to the ``position-hop`` n-gram
pass; for SUBSEQUENCE/EXPIRING it picks ``vector-sweep`` iff
``n < AutoEngine.SWEEP_MAX_N`` (4096) *and*
``n < AutoEngine.SWEEP_CHARS_PER_EPISODE * E`` (8 characters per
episode), else ``position-hop``.  :class:`ShardedEngine` defaults to
``min(cpu, 8)`` workers and ``min_shard_work = 1 << 21``; explicitly
passed values are honored verbatim.  Dispatch moves where and how
counting runs, never the counts.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Union

if TYPE_CHECKING:  # imported lazily at runtime to keep import cycles cut
    from types import TracebackType

    from repro.algos.selector import AdaptiveSelector
    from repro.gpu.report import TimingReport
    from repro.resilience.faults import ShardFault

import numpy as np

from repro.errors import ConfigError, ValidationError
from repro.obs import clock as _clock
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder
from repro.resilience import faults as _faults
from repro.resilience.supervisor import (
    BackoffPolicy,
    DegradationEvent,
    ShardSupervisor,
)
from repro.mining.counting import (
    DatabaseIndex,
    count_matrix_reference,
    count_reset_batch,
    db_fingerprint,
    _count_expiring_batch,
    _count_subsequence_batch,
)
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy, validate_window
from repro.mining.trie import (
    CandidateTrie,
    as_trie,
    cached_count_batch,
    count_positions_trie,
    expiring_summary_trie,
    resume_positions_trie,
    subsequence_summary_trie,
)
from repro.mining.spanning import (
    ExpiringSummary,
    compose_expiring,
    compose_subsequence,
    segment_bounds,
)

__all__ = [
    "CountingEngine",
    "BoundEngine",
    "EngineRegistry",
    "ScalarOracleEngine",
    "VectorSweepEngine",
    "PositionHopEngine",
    "AutoEngine",
    "GpuSimEngine",
    "ShardedEngine",
    "REGISTRY",
    "register_engine",
    "get_engine",
    "list_engines",
    "spawn_probed_pool",
]


class CountingEngine:
    """Base class: a named, exact batch-counting strategy."""

    #: registry name; subclasses override
    name: str = "abstract"

    #: run telemetry sink (see :mod:`repro.obs`); the shared
    #: :data:`~repro.obs.recorder.NULL_RECORDER` by default, so
    #: uninstrumented runs record nothing and pay nothing.  Recorders
    #: are parent-side only — they never cross into worker processes.
    recorder: "Recorder | NullRecorder" = NULL_RECORDER

    def set_recorder(self, recorder: "Recorder | NullRecorder") -> None:
        """Attach a run's telemetry recorder.

        Miners set this for the duration of a run (and restore the
        null recorder after).  Stateless tiers have nothing run-scoped
        to record — the miner-level spans already time their counting
        calls — but accept the recorder uniformly; the supervised
        (``sharded``) and simulated (``gpu-sim``) tiers record shard
        dispatch and selector choices through it.
        """
        self.recorder = recorder

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        index: DatabaseIndex | None = None,
    ) -> np.ndarray:
        """Exact occurrence counts for every episode of ``batch``.

        Slot ``i`` of the result is the ``i``-th episode inserted into
        the trie.  ``index`` optionally carries a prebuilt
        :class:`DatabaseIndex` of ``db`` so repeated batches share
        position lists.  Every tier overrides this; it is run-scoped
        (REP003) — call it inside ``with engine:``.
        """
        raise NotImplementedError

    def resume_batch(
        self,
        db: np.ndarray,
        episodes: "CandidateTrie | list[Episode] | np.ndarray",
        policy: MatchPolicy,
        window: "int | None",
        state: np.ndarray,
        t0: int = 0,
        index: "DatabaseIndex | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batched position-hop chunk resume — the streaming advance
        entry point.

        Advances each episode's carried FSM state (``SUBSEQUENCE``
        entry-state vector, ``EXPIRING`` absolute timestamp snapshot)
        through ``db`` treated as the next segment of an unbounded
        database, returning ``(counts, exit_state)`` bit-identical to
        the resumable sweeps of :mod:`repro.mining.counting`.  All
        tiers share the one exact implementation
        (:func:`repro.mining.trie.resume_positions_trie` — interpreter
        work independent of segment length, sibling episodes sharing
        prefix hop chains), so there is nothing for a tier to
        specialize; the method lives on the engine so streaming
        dispatch stays an engine concern like ``count_batch``.  Not
        run-scoped: the resume path holds no pooled resources.
        """
        return resume_positions_trie(
            db, as_trie(episodes), policy, window, state, t0=t0, index=index
        )

    def bind(
        self,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
    ) -> "BoundEngine":
        """Adapt to the miner's ``(db, episodes) -> counts`` callable."""
        return BoundEngine(self, alphabet_size, policy, window)

    def __enter__(self) -> "CountingEngine":
        """Open a run scope (no-op for stateless tiers; see module docs)."""
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class BoundEngine:
    """A counting engine bound to (alphabet, policy, window).

    The miner's counting callable: caches a :class:`DatabaseIndex` per
    database, so every level of a mining run shares one position
    extraction.  The index is keyed by a content fingerprint, checked
    on every call, rather than by object identity: mutating the
    database array in place between calls — writeable or thawed and
    re-frozen alike — rebuilds the index instead of silently returning
    counts from the stale one (the hash is memory-bandwidth cheap next
    to any counting pass).  Entering a bound engine opens the
    underlying engine's run scope.

    Each call is one engine ``count_batch``: a mining run counts
    different candidates at every level, so nothing is memoized.
    """

    def __init__(
        self,
        engine: CountingEngine,
        alphabet_size: int,
        policy: MatchPolicy,
        window: int | None,
    ) -> None:
        validate_window(policy, window)
        self.engine = engine
        self.alphabet_size = alphabet_size
        self.policy = policy
        self.window = window
        self._fingerprint: str | None = None
        self._index: DatabaseIndex | None = None

    def index_for(self, db: np.ndarray) -> DatabaseIndex:
        fingerprint = db_fingerprint(db)
        if self._index is None or fingerprint != self._fingerprint:
            self._fingerprint = fingerprint
            # seed the fingerprint so downstream consumers (the sharded
            # engine's worker cache key) never re-hash the database
            self._index = DatabaseIndex(db, fingerprint=fingerprint)
        return self._index

    def set_recorder(self, recorder: "Recorder | NullRecorder") -> None:
        """Forward the run's telemetry recorder to the bound engine."""
        self.engine.set_recorder(recorder)

    def __enter__(self) -> "BoundEngine":
        self.engine.__enter__()
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> bool:
        return self.engine.__exit__(exc_type, exc, tb)

    def __call__(
        self, db: np.ndarray, episodes: "CandidateTrie | list[Episode] | np.ndarray"
    ) -> np.ndarray:
        return self.count_batch(db, episodes)

    def count_batch(
        self, db: np.ndarray, episodes: "CandidateTrie | list[Episode] | np.ndarray"
    ) -> np.ndarray:
        """One shape-checked engine ``count_batch`` over ``episodes``."""
        return cached_count_batch(
            self.engine,
            db,
            episodes,
            self.alphabet_size,
            self.policy,
            self.window,
            index=self.index_for(db),
        )

    @property
    def reports(self) -> "list[TimingReport]":
        """Per-launch timing reports, for engines that record them
        (the gpu-sim tier); empty for host engines."""
        return getattr(self.engine, "reports", [])

    @property
    def total_kernel_ms(self) -> float:
        """Accumulated simulated kernel time (0.0 for host engines)."""
        return float(getattr(self.engine, "total_kernel_ms", 0.0))

    @property
    def events(self) -> tuple:
        """Supervision :class:`~repro.resilience.supervisor.
        DegradationEvent` records from the underlying engine's current
        run scope (empty for engines without supervised pooling)."""
        return tuple(getattr(self.engine, "events", ()))


class ScalarOracleEngine(CountingEngine):
    """Per-character scalar counting; the ground truth, never the fast path."""

    name = "scalar-oracle"

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: "int | None" = None,
        index: "DatabaseIndex | None" = None,
    ) -> np.ndarray:
        return count_matrix_reference(db, batch.matrix, policy, window)


class VectorSweepEngine(CountingEngine):
    """Per-character NumPy FSM sweeps (the seed implementation).

    Counts the trie's flat matrix: the sweep already advances every
    episode through one vectorized state table per character, so there
    is no per-prefix work to share.
    """

    name = "vector-sweep"

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: "int | None" = None,
        index: "DatabaseIndex | None" = None,
    ) -> np.ndarray:
        validate_window(policy, window)
        if len(batch) == 0:
            return np.zeros(0, dtype=np.int64)
        matrix = batch.matrix
        if policy is MatchPolicy.RESET:
            return count_reset_batch(db, matrix, alphabet_size)
        if policy is MatchPolicy.SUBSEQUENCE:
            return _count_subsequence_batch(db, matrix)
        return _count_expiring_batch(db, matrix, int(window))  # type: ignore[arg-type]


class PositionHopEngine(CountingEngine):
    """Vectorized position-list counting (see :mod:`repro.mining.counting`)."""

    name = "position-hop"

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        index: DatabaseIndex | None = None,
    ) -> np.ndarray:
        """Trie-shared position-list counting
        (:func:`repro.mining.trie.count_positions_trie`).

        Wide SUBSEQUENCE batches run every episode's FSM together over
        the database's next-occurrence table, one gather per matched
        symbol.  Narrow SUBSEQUENCE batches and EXPIRING hop each trie
        *edge* once, reusing the parent node's completion frontier for
        all children — O(trie edges) hops instead of O(E·L).  RESET
        keeps the single O(n) n-gram pass (already batch-optimal).
        """
        validate_window(policy, window)
        if len(batch) == 0:
            return np.zeros(0, dtype=np.int64)
        if policy is MatchPolicy.RESET:
            return count_reset_batch(db, batch.matrix, alphabet_size)
        hop_window = None if policy is MatchPolicy.SUBSEQUENCE else int(window)  # type: ignore[arg-type]
        return count_positions_trie(db, batch, hop_window, index=index)


class AutoEngine(CountingEngine):
    """Problem-shape dispatch between the exact tiers.

    RESET always takes the O(n) n-gram path.  For SUBSEQUENCE/EXPIRING
    the sweep costs O(n) interpreter steps while position-hopping costs
    O(E·(L + log m)); the sweep only wins when the database is short on
    *both* absolute and per-episode scales.

    The boundary is the fixed rule below (see "Dispatch rule" in the
    module docstring); it depends only on the call's inputs.
    """

    name = "auto"

    #: below this database length the per-character sweep is considered
    SWEEP_MAX_N = 4096
    #: sweep also requires fewer than this many characters per episode
    SWEEP_CHARS_PER_EPISODE = 8

    def select(
        self, n: int, n_episodes: int, policy: MatchPolicy
    ) -> CountingEngine:
        """The concrete engine ``count_batch`` will delegate to."""
        if policy is MatchPolicy.RESET:
            return get_engine("position-hop")  # n-gram path either way
        if (n < self.SWEEP_MAX_N
                and n < self.SWEEP_CHARS_PER_EPISODE * n_episodes):
            return get_engine("vector-sweep")
        return get_engine("position-hop")

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        index: DatabaseIndex | None = None,
    ) -> np.ndarray:
        """Delegate the trie to the selected tier (so a trie reaching
        position-hop keeps its shared structure)."""
        chosen = self.select(int(np.asarray(db).size), len(batch), policy)
        return chosen.count_batch(db, batch, alphabet_size, policy,
                                  window, index=index)


class GpuSimEngine(CountingEngine):
    """Counting on a simulated CUDA card — the paper's device-side path.

    Each ``count_batch`` call builds a
    :class:`~repro.algos.base.MiningProblem` over the trie (kept as
    given, so the kernels' host counting reuses it) and launches one
    mining kernel on a
    :class:`~repro.gpu.simulator.GpuSimulator`.  ``algorithm="auto"``
    (the default) delegates the (algorithm, thread-count) choice to the
    :class:`~repro.algos.selector.AdaptiveSelector` — the paper's
    dynamic-adaptation conclusion — with the sweep memoized per problem
    shape, so a mining run pays one sweep per (level, episode/db-size
    bucket, policy) instead of one per counting call.

    The functional output is exact (the kernels' execution path shares
    the host counting routines), so this engine passes the same
    engine-vs-oracle property tests as every host tier.  Per-launch
    :class:`~repro.gpu.report.TimingReport` objects accumulate on
    ``reports`` and through ``total_kernel_ms`` so drivers can print
    the simulated kernel time the paper measures.

    Parameters
    ----------
    device:
        A card name (see :func:`repro.gpu.specs.get_card`) or a
        :class:`~repro.gpu.specs.DeviceSpecs`; the registry default is
        the GTX 280.  Register a differently-carded factory with
        ``register_engine("gpu-sim-8800", lambda: GpuSimEngine("8800GTS512"))``.
    algorithm:
        ``"auto"`` or a fixed paper algorithm (number 1-4 or kernel
        name); fixed algorithms use ``threads_per_block``.
    """

    name = "gpu-sim"

    def __init__(
        self,
        device: "str | object" = "GTX280",
        algorithm: "int | str" = "auto",
        threads_per_block: int = 128,
    ) -> None:
        # gpu/algos machinery is imported lazily so importing the engine
        # registry does not drag in the whole simulator stack
        from repro.algos.registry import get_algorithm
        from repro.algos.selector import AdaptiveSelector
        from repro.gpu.simulator import GpuSimulator
        from repro.gpu.specs import get_card

        self.device = get_card(device) if isinstance(device, str) else device
        self.algorithm = algorithm
        if threads_per_block < 1:
            raise ConfigError(
                f"threads_per_block must be >= 1, got {threads_per_block}"
            )
        self.threads_per_block = threads_per_block
        self._sim = GpuSimulator(self.device)
        if algorithm == "auto":
            self._selector: "AdaptiveSelector | None" = AdaptiveSelector(self.device)
        else:
            self._selector = None
            get_algorithm(algorithm)  # validate eagerly
        self.reports: list = []

    @property
    def selector(self) -> "AdaptiveSelector | None":
        """The memoizing :class:`AdaptiveSelector` (None for fixed algos)."""
        return self._selector

    @property
    def total_kernel_ms(self) -> float:
        """Accumulated simulated kernel time across counting calls."""
        return float(sum(r.total_ms for r in self.reports))

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: "int | None" = None,
        index: "DatabaseIndex | None" = None,
    ) -> np.ndarray:
        from repro.algos.base import MiningProblem
        from repro.algos.registry import get_algorithm

        validate_window(policy, window)
        if len(batch) == 0:
            return np.zeros(0, dtype=np.int64)
        # the problem checks the database and episode codes and bounds
        # alphabet_size by the kernels' uint8 staging
        problem = MiningProblem(db, batch, alphabet_size, policy, window)
        choice = None
        if self._selector is not None:
            choice = self._selector.select_cached(problem)
            kernel = get_algorithm(choice.algorithm_id)(
                problem, threads_per_block=choice.threads_per_block
            )
        else:
            kernel = get_algorithm(self.algorithm)(
                problem, threads_per_block=self.threads_per_block
            )
        result = self._sim.launch(kernel)
        self.reports.append(result.report)
        rec = self.recorder
        if rec.enabled:
            # selector choices are structural (the sweep is memoized and
            # the analytic model deterministic), so these counters stay
            # identical across seeded runs
            rec.count("gpu_sim.launches")
            if choice is not None:
                rec.count(f"gpu_sim.algo_{choice.algorithm_id}")
                rec.gauge(
                    "gpu_sim.threads_per_block",
                    float(choice.threads_per_block),
                )
            rec.gauge("gpu_sim.last_kernel_ms", float(result.report.total_ms))
        return np.asarray(result.output, dtype=np.int64)


# ---------------------------------------------------------------------------
# Sharded execution: typed shard tasks on a supervised process pool
# ---------------------------------------------------------------------------

#: per-process DatabaseIndex cache keyed by database content fingerprint.
#: Lives in each pooled *worker*: with a run-scoped pool the workers
#: persist across counting calls (and mining levels), so subtree shards
#: against one database pay the position extraction once per worker
#: instead of once per shard per call.  Content keying makes a
#: mutated-in-place database a miss, never a stale hit.
_WORKER_INDEX_CACHE: "dict[str, DatabaseIndex]" = {}
_WORKER_INDEX_CACHE_MAX = 4


def _cached_worker_index(db: np.ndarray, key: str) -> DatabaseIndex:
    index = _WORKER_INDEX_CACHE.get(key)
    if index is None:
        index = DatabaseIndex(db)
        while len(_WORKER_INDEX_CACHE) >= _WORKER_INDEX_CACHE_MAX:
            _WORKER_INDEX_CACHE.pop(next(iter(_WORKER_INDEX_CACHE)))
        _WORKER_INDEX_CACHE[key] = index
    return index


@dataclass(frozen=True, eq=False)
class _SubtreeShard:
    """Episode axis: whole root subtrees, counted by the inner engine.

    The rows are the wire format (tries are not shipped); the worker
    rebuilds the sub-trie so the inner engine keeps prefix sharing.
    """

    db: np.ndarray
    matrix: np.ndarray
    alphabet_size: int
    policy: MatchPolicy
    window: "int | None"
    engine: str
    db_key: str

    def run(self) -> np.ndarray:
        try:
            engine = get_engine(self.engine)
        except ValidationError:
            # spawn-start platforms re-import the registry in the child,
            # losing parent-side register_engine() calls; every engine is
            # exact, so auto is a correct stand-in
            engine = get_engine("auto")
        # repro: noqa REP003 worker-side shard count; the parent ShardedEngine scope owns the run lifecycle
        return engine.count_batch(
            self.db,
            CandidateTrie.from_matrix(self.matrix),
            self.alphabet_size,
            self.policy,
            self.window,
            index=_cached_worker_index(self.db, self.db_key),
        )


@dataclass(frozen=True, eq=False)
class _SegmentShard:
    """RESET database axis: one segment plus the ``L-1`` events past its
    end, so every occurrence starting in the segment is counted."""

    db: np.ndarray
    matrix: np.ndarray
    alphabet_size: int

    def run(self) -> np.ndarray:
        return count_reset_batch(self.db, self.matrix, self.alphabet_size)


@dataclass(frozen=True, eq=False)
class _SummaryShard:
    """Pass 1 of the database-axis state carry: one segment's FSM
    summary by one trie walk; the parent composes the entry states.
    The rows are the wire format, as for :class:`_SubtreeShard`."""

    db: np.ndarray
    matrix: np.ndarray
    policy: MatchPolicy
    window: "int | None"
    t0: int

    def run(self) -> object:
        trie = CandidateTrie.from_matrix(self.matrix)
        if self.policy is MatchPolicy.SUBSEQUENCE:
            return subsequence_summary_trie(self.db, trie)
        counts, exit_times = expiring_summary_trie(
            self.db, trie, int(self.window), self.t0  # type: ignore[arg-type]
        )
        return ExpiringSummary(counts=counts, exit_times=exit_times)


_Shard = Union[_SubtreeShard, _SegmentShard, _SummaryShard]


def _run_shard(task: _Shard, fault: "ShardFault | None" = None) -> object:
    """Run one shard task (module-level so process pools can pickle it).

    ``fault`` is deterministic fault injection (tests only): the parent
    draws it per *submission*, so the task itself stays clean for exact
    in-process recounts.  ``"crash"`` simulates a worker death (no
    cleanup, no exception — the pool breaks); ``"hang"`` sleeps past
    any parent-side deadline and then computes normally (the late
    result must be ignored); ``"raise"`` exercises the
    shard-exceptions-propagate contract.
    """
    if fault is not None:
        if fault.kind == "crash":
            os._exit(86)
        elif fault.kind == "hang":
            time.sleep(fault.hang_s)
        elif fault.kind == "raise":
            raise RuntimeError(
                f"injected mapper fault ({type(task).__name__})"
            )
    return task.run()


def _probe_worker() -> int:
    """No-op task forcing worker spawn (module-level: pools pickle it)."""
    return 0


def spawn_probed_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are already running.

    Prefers the ``fork`` start method (workers inherit NumPy state
    cheaply), falling back to the platform default where ``fork`` is
    unavailable.  A no-op probe task forces worker spawn eagerly:
    platforms that cannot spawn processes fail right here (``OSError``
    / ``BrokenProcessPool``) instead of poisoning the first real shard,
    which is what lets :class:`ShardedEngine` tell "no pool available"
    from a shard bug.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    try:
        pool.submit(_probe_worker).result()
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    return pool


class _ShardJobHost:
    """:class:`~repro.resilience.supervisor.PoolHost` for one job run.

    The supervisor owns the tracked-future mechanics; this host owns
    recovery *policy* on behalf of its :class:`ShardedEngine`:

    * ``submit`` draws the active fault plan's fault for this
      submission and ships it beside the task — the task itself stays
      clean, so ``inline`` recounts are exact by construction;
    * ``respawn`` is budgeted (per-job attempts against
      ``max_pool_respawns``, and for the run-scoped pool also against
      the scope's total spawn budget) and slept through the engine's
      seeded backoff; an exhausted budget pins the scope to the
      single-process chain (``_pool_failed``) — the supervisor records
      the ``"degraded"`` event;
    * ``abandon`` drops a poisoned pool without waiting on hung
      workers; a scope pool is detached so the next sharding call can
      lazily respawn while budget remains.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        pool: ProcessPoolExecutor,
        owned: bool,
        turnaround: "list[float] | None" = None,
    ) -> None:
        self.engine = engine
        self.pool = pool
        self.owned = owned
        #: telemetry sink for per-shard submit->done latency (queue +
        #: exec, observed parent-side: workers are never instrumented).
        #: None when recording is off — the hot submit path then takes
        #: no callback at all.  Completion callbacks run on executor
        #: threads, so they only append to this plain list; the engine
        #: folds it into the recorder afterwards, on the owning thread.
        self.turnaround = turnaround

    def submit(self, task: _Shard) -> "Future[object]":
        plan = _faults.active_plan()
        fault = plan.take_shard_fault() if plan is not None else None
        fut = self.pool.submit(_run_shard, task, fault)
        sink = self.turnaround
        if sink is not None:
            t0 = _clock.now()
            fut.add_done_callback(
                lambda _f, _t0=t0, _sink=sink: _sink.append(_clock.now() - _t0)
            )
        return fut

    def inline(self, task: _Shard) -> object:
        return _run_shard(task)

    def respawn(self, attempt: int) -> bool:
        engine = self.engine
        self.abandon()
        if attempt <= engine.max_pool_respawns and (
            self.owned or engine._scope_spawn_budget > 0
        ):
            engine.backoff.sleep(attempt - 1)
            pool = engine._make_pool()
            if pool is not None:
                if not self.owned:
                    engine._pool = pool
                    engine._scope_spawn_budget -= 1
                self.pool = pool
                return True
        if not self.owned:
            # budget spent (or the respawn itself failed): the rest of
            # the scope counts on the single-process chain; the
            # supervisor records the "degraded" event
            engine._pool_failed = True
        return False

    def abandon(self) -> None:
        self.pool.shutdown(wait=False, cancel_futures=True)
        if not self.owned:
            self.engine._pool = None


class ShardedEngine(CountingEngine):
    """Split one counting call into shard tasks run on worker processes.

    RESET shards the *database* axis: each segment's shard reads the
    ``L-1`` events past the segment's end and counts the occurrences
    that start inside it, so the shard counts sum to the exact
    whole-database answer.  SUBSEQUENCE/EXPIRING shard the
    *episode* axis by whole trie subtrees when the batch offers enough
    of them, and the *database* axis otherwise (few episodes, long
    database) via the two-pass state carry: workers return per-segment
    FSM summaries (pass 1), the parent composes entry states
    sequentially — exact for occurrences straddling any number of
    segments (paper §3.3.3 made parallel).  The axis is a fixed rule
    of the batch width (:meth:`_pick_axis`).

    Subtree shards receive whole root-child subtrees
    (:meth:`~repro.mining.trie.CandidateTrie.subtree_index_groups`),
    so prefix sharing survives inside every shard; results scatter back
    through the explicit per-shard episode-index arrays, which is exact
    regardless of how insertion order interleaved the subtrees.

    ``with engine:`` scopes one mining run: the first ``count_batch``
    that actually shards acquires the process pool (spawned *and
    probed* by :func:`spawn_probed_pool`, so unavailable platforms are
    detected right there and the rest of the scope runs inline on the
    inner engine) and every later call of the scope shares it; runs
    whose calls all stay below ``min_shard_work`` never spawn workers
    at all.  Outside a scope each sharding call builds and tears down
    its own pool — correct, but paying the spawn cost the
    ``sharded_scaling`` benchmark series quantifies.

    Pooled shards run *supervised* (see the module's "Failure
    semantics"): every shard is a tracked future with an optional
    ``shard_deadline_s`` deadline; a pool broken mid-job (a killed
    worker) is respawned up to ``max_pool_respawns`` times with seeded
    exponential ``backoff`` and only unfinished shards re-dispatched;
    hung shards are reclaimed and recounted in-process; once the spawn
    budget for the scope is spent, the run degrades to the
    single-process inner engine, recording a structured
    :class:`~repro.resilience.supervisor.DegradationEvent` on
    ``events`` (cleared when a new run scope opens).  Shard exceptions
    always propagate — they are never confused with infrastructure
    failure.

    Small problems (``db chars x episodes < min_shard_work``) run
    inline on the inner engine.

    ``workers`` and ``min_shard_work`` left unset default to
    ``min(cpu, 8)`` and ``1 << 21``; explicitly passed values are
    honored verbatim.
    """

    name = "sharded"

    #: ``min_shard_work`` when the caller passes none
    DEFAULT_MIN_SHARD_WORK = 1 << 21

    def __init__(
        self,
        inner: "str | CountingEngine" = "auto",
        workers: int | None = None,
        min_shard_work: int | None = None,
        shard_deadline_s: float | None = None,
        backoff: "BackoffPolicy | None" = None,
        max_pool_respawns: int = 1,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if min_shard_work is not None and min_shard_work < 0:
            raise ConfigError("min_shard_work must be >= 0")
        if shard_deadline_s is not None and shard_deadline_s <= 0:
            raise ConfigError(
                f"shard_deadline_s must be > 0, got {shard_deadline_s}"
            )
        if max_pool_respawns < 0:
            raise ConfigError("max_pool_respawns must be >= 0")
        self.inner = get_engine(inner)
        if isinstance(self.inner, ShardedEngine):
            raise ConfigError("sharded engine cannot wrap itself")
        # workers receive the inner engine by *name* (the instance is not
        # shipped), so it must be resolvable from the registry over there;
        # for uncached names (gpu-sim) the registry yields an equivalent
        # fresh instance, which is fine — every engine is exact, so only
        # timing state (not counts) can differ between instances.  The
        # type is checked against the factory without instantiating one.
        name = self.inner.name
        mismatch = name not in REGISTRY
        if not mismatch:
            if REGISTRY.is_cached(name):
                mismatch = REGISTRY.get(name) is not self.inner
            else:
                factory = REGISTRY.factory(name)
                mismatch = isinstance(factory, type) and not isinstance(
                    self.inner, factory
                )
        if mismatch:
            raise ConfigError(
                f"inner engine {name!r} is not the registered "
                "instance; register_engine() it before sharding over it"
            )
        self.workers = (
            workers if workers is not None else min(os.cpu_count() or 1, 8)
        )
        self.min_shard_work = (
            min_shard_work if min_shard_work is not None
            else self.DEFAULT_MIN_SHARD_WORK
        )
        self.shard_deadline_s = shard_deadline_s
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_pool_respawns = max_pool_respawns
        #: structured supervision record for the current/most recent run
        #: scope (see :mod:`repro.resilience.supervisor`); cleared when
        #: a new scope opens
        self.events: "list[DegradationEvent]" = []
        #: process pools spawned by this engine (lifecycle accounting:
        #: one per run scope plus respawns, or one per call outside a
        #: scope)
        self.pools_spawned = 0
        self._pool: "ProcessPoolExecutor | None" = None  # run-scoped pool
        self._pool_failed = False  # pool unavailable for this scope
        # total spawns a scope may consume: the initial pool plus the
        # respawn budget ("respawned once" at the default of 1)
        self._scope_spawn_budget = 1 + max_pool_respawns
        self._depth = 0

    # -- run-scoped pool lifecycle ------------------------------------

    @property
    def pool_active(self) -> bool:
        """True inside a run scope holding a live process pool."""
        return self._pool is not None

    def __enter__(self) -> "ShardedEngine":
        # the pool itself is acquired lazily by the first count that
        # actually shards — a run whose every call stays inline (below
        # min_shard_work) must not pay worker spawns for nothing
        if self._depth == 0:
            self.events = []
            self._scope_spawn_budget = 1 + self.max_pool_respawns
        self._depth += 1
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> bool:
        self._depth -= 1
        if self._depth == 0:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            self._pool_failed = False
        return False

    def _record(
        self, kind: str, detail: str, shards: "Iterable[int]" = (),
        attempt: int = 0,
    ) -> None:
        self.events.append(
            DegradationEvent(kind=kind, detail=detail,
                             shards=tuple(sorted(shards)), attempt=attempt)
        )

    def _make_pool(self) -> "ProcessPoolExecutor | None":
        """Spawn+probe a pool; None where pools cannot spawn."""
        plan = _faults.active_plan()
        if plan is not None and plan.take_pool_spawn_failure():
            self._record("pool-spawn-failed", "injected pool-spawn failure")
            return None
        try:
            pool = spawn_probed_pool(self.workers)
        except (OSError, RuntimeError) as exc:
            # the probe raised: this platform cannot spawn worker
            # processes (sandbox); stay exact on the serial path
            self._record(
                "pool-spawn-failed",
                f"pool spawn failed: {type(exc).__name__}: {exc}",
            )
            return None
        self.pools_spawned += 1
        return pool

    def count_batch(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy = MatchPolicy.RESET,
        window: int | None = None,
        index: DatabaseIndex | None = None,
    ) -> np.ndarray:
        """Shard the trie's count (see the class docstring for the axes).

        Inline on the inner engine when sharding cannot pay: one
        worker, an empty database or batch, a degraded scope, work
        below ``min_shard_work``, or a trie with a single root subtree
        on the episode axis.
        """
        validate_window(policy, window)
        db = np.asarray(db)
        n, n_eps = int(db.size), len(batch)
        if n_eps == 0:
            return np.zeros(0, dtype=np.int64)
        # n == 0 must stay inline even at min_shard_work=0: every
        # segment would be zero-width and skipped, leaving no shards.
        # A scope whose pool could not spawn also stays inline: the
        # decomposition costs strictly more than the inner count
        # without workers to spread it over.
        if (self.workers <= 1 or n == 0 or self._pool_failed
                or n * n_eps < self.min_shard_work):
            return self.inner.count_batch(
                db, batch, alphabet_size, policy, window, index=index
            )
        if policy is MatchPolicy.RESET:
            return self._count_reset(db, batch.matrix, alphabet_size)
        if self._pick_axis(n_eps) == "database":
            return self._count_database_axis_carry(
                db, batch, alphabet_size, policy, window, index=index
            )
        groups = batch.subtree_index_groups(self.workers)
        if len(groups) <= 1:
            return self.inner.count_batch(
                db, batch, alphabet_size, policy, window, index=index
            )
        matrix = batch.matrix
        # workers cache their index under this key; a caller-supplied
        # index for this very database already carries the hash
        if index is not None and index.db is db:
            db_key = index.fingerprint
        else:
            db_key = db_fingerprint(db)
        tasks: "list[_Shard]" = [
            _SubtreeShard(db, matrix[rows], alphabet_size, policy, window,
                          self.inner.name, db_key)
            for rows in groups
        ]
        out = np.zeros(n_eps, dtype=np.int64)
        for rows, counts in zip(groups, self._run(tasks)):
            out[rows] = counts
        return out

    def _pick_axis(self, n_eps: int) -> str:
        """SUBSEQUENCE/EXPIRING axis choice.

        The episode axis whenever the batch fills every worker with at
        least one episode; narrower batches cannot use the workers at
        all without splitting the database, which is exactly when the
        state carry earns its keep.
        """
        return "episode" if n_eps >= self.workers else "database"

    def _count_reset(
        self, db: np.ndarray, matrix: np.ndarray, alphabet_size: int
    ) -> np.ndarray:
        """RESET along the database axis: one shard per nonempty
        segment, each overhanging its end by ``L-1`` events, summed."""
        overhang = matrix.shape[1] - 1
        tasks: "list[_Shard]" = [
            _SegmentShard(db[lo:hi + overhang], matrix, alphabet_size)
            for lo, hi in segment_bounds(db.size, self.workers)
            if hi > lo  # degenerate splits: skip zero-width segments
        ]
        return np.sum(self._run(tasks), axis=0)

    def _count_database_axis_carry(
        self,
        db: np.ndarray,
        batch: CandidateTrie,
        alphabet_size: int,
        policy: MatchPolicy,
        window: "int | None",
        index: "DatabaseIndex | None" = None,
    ) -> np.ndarray:
        """Two-pass state-summarization split along the database axis.

        Pass 1 (workers): one summary shard per nonempty segment.
        Pass 2 (here): sequential compose of entry states — table
        lookups for SUBSEQUENCE, bounded lockstep fix-up for EXPIRING.
        The pool is acquired *before* committing to the decomposition:
        pass 1 is pure overhead without workers to spread it over, so
        a pool-less platform counts inline on the inner engine instead.
        A pool failing mid-job is the supervisor's problem: completed summary shards are kept and
        unfinished ones recomputed (re-dispatched or in-process), so
        the compose below always sees a full summary set.
        """
        bounds = [
            (lo, hi)
            for lo, hi in segment_bounds(db.size, self.workers)
            if hi > lo
        ]
        if len(bounds) <= 1:
            return self.inner.count_batch(db, batch, alphabet_size, policy,
                                          window, index=index)
        pool, owned = self._acquire_run_pool()
        if pool is None:
            return self.inner.count_batch(db, batch, alphabet_size, policy,
                                          window, index=index)
        matrix = batch.matrix
        tasks: "list[_Shard]" = [
            _SummaryShard(db[lo:hi], matrix, policy, window, lo)
            for lo, hi in bounds
        ]
        summaries: list = self._run_supervised(tasks, pool, owned)
        if policy is MatchPolicy.SUBSEQUENCE:
            seg_counts, _ = compose_subsequence(summaries, matrix.shape[0])
        else:
            seg_counts = compose_expiring(
                db, matrix, int(window), bounds, summaries  # type: ignore[arg-type]
            )
        return seg_counts.sum(axis=0)

    def _acquire_run_pool(self) -> "tuple[ProcessPoolExecutor | None, bool]":
        """``(pool, owned)``: the scope's pool (lazily spawned on the
        first sharding call, and lazily *re*-spawned while the scope's
        spawn budget lasts), or a caller-owned per-call pool outside a
        scope, or ``(None, ...)`` once the scope has degraded."""
        if self._depth > 0:
            if self._pool is None and not self._pool_failed:
                if self._scope_spawn_budget > 0:
                    self._pool = self._make_pool()
                    if self._pool is not None:
                        self._scope_spawn_budget -= 1
                if self._pool is None:
                    self._mark_degraded()
            return self._pool, False
        pool = self._make_pool()
        if pool is None:
            self._record(
                "degraded",
                "no process pool; counting falls back to the "
                f"single-process {self.inner.name!r} engine",
            )
        return pool, True

    def _mark_degraded(self) -> None:
        """Pin the rest of the scope to the single-process chain."""
        if not self._pool_failed:
            self._pool_failed = True
            self._record(
                "degraded",
                "pool unavailable for the rest of this run scope; "
                "degrading to the single-process "
                f"{self.inner.name!r} engine",
            )

    def _run(self, tasks: "list[_Shard]") -> list:
        """Each task's result, in task order."""
        pool, owned = self._acquire_run_pool()
        if pool is None:
            # serial decomposition: the same per-shard work the pool
            # would do, so exactness is free and overhead negligible
            return [task.run() for task in tasks]
        return self._run_supervised(tasks, pool, owned)

    def _run_supervised(
        self, tasks: "list[_Shard]", pool: ProcessPoolExecutor, owned: bool
    ) -> list:
        """Run ``tasks`` under supervision; results in task order.

        The host below owns recovery policy (fault draws at submit,
        budgeted respawns with backoff, degrading the scope); the
        supervisor owns the tracked-future mechanics.

        Telemetry: dispatch runs under a ``shard-dispatch`` span.  Shard
        timing is the submit->done turnaround observed from the parent
        (queue + exec together; workers are never instrumented), fed
        through a plain-list sink the host's completion callbacks append
        to and folded here, on the owning thread.  DegradationEvents
        raised during the job are counted per kind and mirrored onto the
        span.
        """
        rec = self.recorder
        turnaround: "list[float] | None" = [] if rec.enabled else None
        events_before = len(self.events)
        host = _ShardJobHost(self, pool, owned, turnaround=turnaround)
        with rec.span("shard-dispatch", shards=len(tasks)) as sp:
            try:
                results = ShardSupervisor(
                    host,
                    deadline_s=self.shard_deadline_s,
                    events=self.events,
                ).map(list(tasks))
            finally:
                if owned:
                    host.pool.shutdown()
        if rec.enabled:
            rec.count("sharded.jobs")
            rec.count("sharded.shards", len(tasks))
            new_events = self.events[events_before:]
            for ev in new_events:
                rec.count(f"sharded.events.{ev.kind}")
            if turnaround:
                sp.attrs.update(
                    shards_timed=len(turnaround),
                    shard_turnaround_total_s=round(sum(turnaround), 9),
                    shard_turnaround_max_s=round(max(turnaround), 9),
                )
            if new_events:
                sp.attrs["degradation_events"] = [ev.kind for ev in new_events]
        return results


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class EngineRegistry:
    """Name -> engine-factory mapping with instance caching.

    Stateless engines are cached: one instance serves every ``get``.
    Engines registered with ``cached=False`` (the gpu-sim tier, which
    accumulates per-launch timing reports and a selection cache) yield a
    *fresh* instance per resolution, so two mining runs never share
    launch accounting through the registry.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], CountingEngine]] = {}
        self._instances: dict[str, CountingEngine] = {}
        self._uncached: set[str] = set()

    def register(
        self,
        name: str,
        factory: Callable[[], CountingEngine],
        replace: bool = False,
        cached: bool = True,
    ) -> None:
        if not name:
            raise ConfigError("engine name must be non-empty")
        if name in self._factories and not replace:
            raise ConfigError(f"engine {name!r} already registered")
        self._factories[name] = factory
        self._instances.pop(name, None)
        self._uncached.discard(name)
        if not cached:
            self._uncached.add(name)

    def unregister(self, name: str) -> None:
        if name not in self._factories:
            raise ValidationError(f"unknown counting engine {name!r}")
        del self._factories[name]
        self._instances.pop(name, None)
        self._uncached.discard(name)

    def is_cached(self, name: str) -> bool:
        return name in self._factories and name not in self._uncached

    def factory(self, name: str) -> Callable[[], CountingEngine]:
        if name not in self._factories:
            raise ValidationError(f"unknown counting engine {name!r}")
        return self._factories[name]

    def get(self, name: "str | CountingEngine") -> CountingEngine:
        if isinstance(name, CountingEngine):
            return name
        if not isinstance(name, str):
            raise ValidationError(
                "a counting engine is a registered name or a "
                f"CountingEngine instance, not {type(name).__name__}"
            )
        engine = self._instances.get(name)
        if engine is None:
            factory = self._factories.get(name)
            if factory is None:
                raise ValidationError(
                    f"unknown counting engine {name!r}; "
                    f"registered: {', '.join(self.names())}"
                )
            engine = factory()
            if name not in self._uncached:
                self._instances[name] = engine
        return engine

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def __iter__(self) -> Iterable[str]:
        return iter(self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._factories


REGISTRY = EngineRegistry()
REGISTRY.register("scalar-oracle", ScalarOracleEngine)
REGISTRY.register("vector-sweep", VectorSweepEngine)
REGISTRY.register("position-hop", PositionHopEngine)
REGISTRY.register("auto", AutoEngine)
# uncached: the gpu-sim tier carries per-launch reports and a selection
# cache, and the sharded tier carries run-scope state (its pool, depth,
# and spawn accounting), so every resolution gets a fresh instance —
# two concurrent mining runs must never share a pool through the registry
REGISTRY.register("gpu-sim", GpuSimEngine, cached=False)
REGISTRY.register("sharded", ShardedEngine, cached=False)


def register_engine(
    name: str, factory: Callable[[], CountingEngine], replace: bool = False
) -> None:
    """Register a counting engine in the default registry."""
    REGISTRY.register(name, factory, replace=replace)


def get_engine(name: "str | CountingEngine") -> CountingEngine:
    """Resolve an engine by name (engine instances pass through)."""
    return REGISTRY.get(name)


def list_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return REGISTRY.names()
