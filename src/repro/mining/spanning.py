"""Segmented counting with boundary-span correction (paper Fig. 5).

The block-level algorithms split the database into per-thread segments.
An occurrence that *spans* a segment boundary is seen by neither thread;
the paper inserts "an intermediate step to check for this possibility
... between the map and reduce functions" (§3.3.3).

Under the ``RESET`` policy an occurrence is a contiguous match of
length L, so it spans a boundary at offset ``b`` iff it starts in
``[b-L+1, b-1]``.  :func:`count_segmented` therefore counts each
segment independently (the map), counts matches that *start* inside
each boundary window (the span fix), and sums (the reduce) — provably
equal to the whole-database count, which ``tests/test_spanning.py``
asserts exhaustively and property-based.  This Fig. 5 form serves the
gpu-sim block kernels and the span-fix ablation, which need the
per-boundary counts.  Host pieces have no reason to split the work
that way: a host shard or stream chunk that reads the ``L-1`` events
past its end counts exactly the occurrences starting inside it, which
is how the sharded engine (:mod:`repro.mining.engines`) and the
streaming store (:mod:`repro.streaming.store`) count RESET.

For ``SUBSEQUENCE``/``EXPIRING`` policies a partial match can straddle
any number of segments, so the per-segment counts are stitched by FSM
*state carry* instead — here in the two-pass state-summarization form
of Patnaik et al.'s accelerator-oriented transformation (PAPERS.md):

* **Pass 1 (parallel over segments)** computes a per-segment summary.
  SUBSEQUENCE state is one integer in ``0..L-1``, so the summary is the
  full entry-state table — ``(exit state, completions)`` for *every*
  possible entry.  EXPIRING state is a timestamp vector (not
  enumerable), so the summary is the segment's run from the *empty*
  state plus its exit snapshot.  Each summary is built two ways,
  bit-identically: by a per-character sweep here
  (:func:`subsequence_segment_summary`, one ``E*L``-lane pass;
  :func:`expiring_segment_summary`), which serves
  :func:`count_segmented`, and by one position-hop walk of the
  candidate trie (:func:`repro.mining.trie.subsequence_summary_trie`,
  :func:`repro.mining.trie.expiring_summary_trie`), which serves every
  position-hop path: the sharded summary shards, the windowed stream
  fold and the landmark chunk resume.
* **Pass 2 (cheap sequential compose)** threads the true entry state
  through the summaries.  SUBSEQUENCE composes by pure table lookup
  (:func:`compose_subsequence` — a parallel-prefix function
  composition, O(1) per boundary).  EXPIRING re-runs each segment from
  its true entry *in lockstep with* a run from the empty entry, only
  until the two timestamp vectors converge; from that point the
  segment's speculative pass-1 result is exact up to the accumulated
  count delta (:func:`compose_expiring`).  Divergence typically dies
  within a few window-lengths — partials either expire or are
  re-anchored identically — and if a segment never converges the
  lockstep has simply computed the exact run, so the decomposition is
  exact for occurrences straddling any number of segments.

:func:`count_segmented` uses the same machinery serially; the sharded
counting engine (:mod:`repro.mining.engines`) dispatches the trie-walk
pass 1 across process-pool workers; the streaming subsystem
(:mod:`repro.streaming`) treats each arriving chunk as the next
segment of an unbounded database and carries the composed exit state
between chunks via
:func:`advance_subsequence` / :func:`advance_expiring`.
Characterization 3's cost-of-spanning trend is precisely the growth of
this carry work with segment count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.mining.alphabet import check_database, check_episode_codes
from repro.mining.counting import (
    _NEG,
    _expiring_step,
    count_reset_batch,
    resume_expiring_batch,
    resume_subsequence_batch,
)
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy, validate_window


@dataclass(frozen=True)
class SegmentedCount:
    """Decomposed counting result for one episode batch."""

    segment_counts: np.ndarray  # (n_segments, n_episodes)
    boundary_counts: np.ndarray  # (n_boundaries, n_episodes)

    @property
    def totals(self) -> np.ndarray:
        return self.segment_counts.sum(axis=0) + self.boundary_counts.sum(axis=0)

    @property
    def spanning_total(self) -> int:
        return int(self.boundary_counts.sum())


def segment_bounds(n: int, n_segments: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into ``n_segments`` near-equal contiguous ranges.

    Mirrors how the block-level kernels assign offsets: thread ``i``
    owns ``[i*ceil(n/t), ...)`` with the final thread taking the tail.
    Degenerate splits (``n_segments > n``) yield zero-width trailing
    ranges; counting callers skip those (nothing can occur in them).
    """
    if n_segments < 1:
        raise ValidationError(f"need >= 1 segment, got {n_segments}")
    if n < 0:
        raise ValidationError(f"database length must be >= 0, got {n}")
    size = -(-n // n_segments) if n else 0
    bounds = []
    for i in range(n_segments):
        lo = min(n, i * size)
        hi = min(n, (i + 1) * size)
        bounds.append((lo, hi))
    return bounds


def count_segmented(
    db: np.ndarray,
    episodes: "list[Episode] | np.ndarray",
    alphabet_size: int,
    n_segments: int,
    policy: MatchPolicy = MatchPolicy.RESET,
    window: int | None = None,
    fix_spanning: bool = True,
) -> SegmentedCount:
    """Count episodes over per-segment scans plus boundary fix-up.

    ``episodes`` is an :class:`Episode` list or, under RESET, a raw
    ``(E, L)`` matrix (repeated symbols allowed).  ``fix_spanning=False``
    reproduces Fig. 5(a)'s *wrong* answer — the ablation benchmarks use
    it to quantify how many occurrences the span check recovers.
    """
    db = check_database(db, alphabet_size)
    if isinstance(episodes, np.ndarray) and episodes.ndim != 2:
        raise ValidationError(
            f"episode matrix must be 2-D (E, L), got shape {episodes.shape}"
        )
    if len(episodes) == 0:
        raise ValidationError("need at least one episode")
    check_episode_codes(
        episodes if isinstance(episodes, np.ndarray)
        else [i for ep in episodes for i in ep.items],
        alphabet_size,
    )
    validate_window(policy, window)
    bounds = segment_bounds(db.size, n_segments)

    if policy is not MatchPolicy.RESET:
        if isinstance(episodes, np.ndarray):
            raise ValidationError(
                "segmented carry mode needs Episode batches; raw matrices "
                "are supported only under RESET"
            )
        # Two-pass state carry supports mixed-length batches (grouped).
        return _count_segmented_two_pass(
            db, episodes, alphabet_size, bounds, policy, window
        )

    matrix = (
        episodes
        if isinstance(episodes, np.ndarray)
        else episodes_to_matrix(episodes)
    )
    length = matrix.shape[1]
    n_eps = matrix.shape[0]

    seg_counts = np.zeros((len(bounds), n_eps), dtype=np.int64)
    for i, (lo, hi) in enumerate(bounds):
        if hi > lo:  # zero-width segments (degenerate splits) stay 0
            seg_counts[i] = count_reset_batch(db[lo:hi], matrix, alphabet_size)

    bnd_counts = np.zeros((max(0, len(bounds) - 1), n_eps), dtype=np.int64)
    if fix_spanning:
        for i, start_lo, hi, start_hi in iter_boundary_windows(
            bounds, int(db.size), length
        ):
            bnd_counts[i] = count_starts_in(db[start_lo:hi], matrix, start_hi)
    return SegmentedCount(segment_counts=seg_counts, boundary_counts=bnd_counts)


def iter_boundary_windows(
    bounds: "list[tuple[int, int]]", n: int, length: int
) -> "Iterator[tuple[int, int, int, int]]":
    """Yield ``(i, start_lo, hi, start_hi)`` for each *spannable* boundary.

    ``db[start_lo:hi]`` holds every length-``length`` occurrence that
    crosses the boundary ending segment ``i``, and ``[0, start_hi)`` is
    the in-slice start range attributed to it.  Each spanning
    occurrence is attributed to the FIRST boundary it crosses: its
    start must lie inside the segment ending there (otherwise an
    occurrence spanning several short segments would be counted once
    per boundary).  Boundaries whose window is zero-width are skipped —
    length-1 episodes never span, and degenerate splits (zero-width
    segments) produce windows no occurrence can start in.
    """
    if length <= 1:
        return
    for i, (seg_lo, b) in enumerate(bounds[:-1]):
        start_lo = max(seg_lo, b - length + 1)
        hi = min(n, b + length - 1)
        start_hi = b - start_lo
        if start_hi <= 0 or hi - start_lo < length:
            continue  # zero-width window: nothing can span here
        yield i, start_lo, hi, start_hi


def count_starts_in(
    window_db: np.ndarray, matrix: np.ndarray, start_hi: int
) -> np.ndarray:
    """Matches of each episode starting in ``[0, start_hi)`` of the window.

    The window is at most ``2L-2`` characters, so a direct vectorized
    comparison is cheap.  :func:`count_segmented`'s span fix.
    """
    length = matrix.shape[1]
    n = window_db.size
    counts = np.zeros(matrix.shape[0], dtype=np.int64)
    for start in range(min(start_hi, n - length + 1)):
        seg = window_db[start : start + length]
        counts += (matrix == seg[np.newaxis, :]).all(axis=1)
    return counts


# ---------------------------------------------------------------------------
# Two-pass state-summarization carry for SUBSEQUENCE / EXPIRING
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsequenceSummary:
    """Pass-1 summary of one segment under SUBSEQUENCE.

    Row ``s`` describes the segment entered in FSM state ``s``:
    ``counts[s, e]`` completions of episode ``e`` inside the segment and
    ``exits[s, e]`` the state at segment end.  Function composition over
    this finite table is what makes the compose pass O(1) per boundary.
    Picklable (plain arrays): sharded workers return these.
    """

    counts: np.ndarray  # (L, E)
    exits: np.ndarray  # (L, E)


@dataclass(frozen=True)
class ExpiringSummary:
    """Pass-1 summary of one segment under EXPIRING: the run from the
    *empty* entry state.  ``exit_times`` is the absolute ``(E, L+1)``
    timestamp snapshot at segment end; the compose pass promotes it to
    the true exit once the entry influence has provably died out."""

    counts: np.ndarray  # (E,)
    exit_times: np.ndarray  # (E, L+1)


def subsequence_segment_summary(
    db_seg: np.ndarray, matrix: np.ndarray
) -> SubsequenceSummary:
    """Tabulate a segment's behaviour from every SUBSEQUENCE entry state.

    One ``E*L``-lane resumable sweep: lane ``(s, e)`` runs episode ``e``
    entered in state ``s``, so the whole table costs a single pass over
    the segment regardless of L.
    """
    n_eps, length = matrix.shape
    tiled = np.tile(matrix, (length, 1))
    entry = np.repeat(np.arange(length, dtype=np.int64), n_eps)
    counts, exits = resume_subsequence_batch(db_seg, tiled, entry)
    return SubsequenceSummary(
        counts=counts.reshape(length, n_eps), exits=exits.reshape(length, n_eps)
    )


def expiring_segment_summary(
    db_seg: np.ndarray, matrix: np.ndarray, window: int, t0: int
) -> ExpiringSummary:
    """Run one segment from the empty EXPIRING state (speculative pass 1).

    ``t0`` is the absolute index of ``db_seg[0]`` so the exit snapshot
    composes with neighbouring segments without rebasing.
    """
    n_eps, length = matrix.shape
    times = np.full((n_eps, length + 1), _NEG, dtype=np.int64)
    counts, exit_times = resume_expiring_batch(db_seg, matrix, window, times, t0)
    return ExpiringSummary(counts=counts, exit_times=exit_times)


def advance_subsequence(
    summary: SubsequenceSummary, entry: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """One compose step: ``(counts, exit_states)`` for a segment entered
    in states ``entry``.  Pure table lookup into the pass-1 summary —
    O(E) regardless of segment length.  Shared by
    :func:`compose_subsequence` and the streaming state store
    (:mod:`repro.streaming`), which must never drift apart.
    """
    lane = np.arange(entry.size)
    return summary.counts[entry, lane], summary.exits[entry, lane]


def compose_subsequence(
    summaries: "list[SubsequenceSummary]", n_episodes: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Thread the true entry state through pass-1 tables.

    Returns ``(per_segment_counts, exit_states)``; pure table lookups,
    no database access — the parallel-prefix compose.
    """
    seg_counts = np.zeros((len(summaries), n_episodes), dtype=np.int64)
    entry = np.zeros(n_episodes, dtype=np.int64)
    for i, summary in enumerate(summaries):
        seg_counts[i], entry = advance_subsequence(summary, entry)
    return seg_counts, entry


def _normalized_live(times: np.ndarray, cutoff: int, length: int) -> np.ndarray:
    """Carry-relevant columns (1..L-1) with expired entries canonicalized.

    A prefix timestamp below ``cutoff`` can never satisfy the window
    check again, so all such values are equivalent; mapping them to the
    dead sentinel makes state comparison exact.  Columns 0 and L carry
    no information (state 1 re-anchors unconditionally; a completion is
    only read at its own write step).
    """
    live = times[:, 1:length]
    return np.where(live < cutoff, _NEG, live)


def _expiring_fix(
    db_seg: np.ndarray,
    matrix: np.ndarray,
    window: int,
    entry_times: np.ndarray,
    t0: int,
    summary: ExpiringSummary,
) -> "tuple[np.ndarray, np.ndarray]":
    """Correct one segment's speculative run for a live entry state.

    Runs the segment from the true entry (``a``) in lockstep with a run
    from the empty entry (``b``) until their normalized timestamp
    vectors converge; from there both evolve identically, so the true
    result is the pass-1 speculation shifted by the accumulated count
    delta.  Early convergence returns immediately; a segment that never
    converges has simply been recounted exactly (``b`` then equals the
    pass-1 run, making the delta formula collapse to the true count).
    Returns ``(counts, exit_times)``.
    """
    n_eps, length = matrix.shape
    mat = matrix.astype(np.int64)
    state_cols = np.arange(1, length + 1)
    a = np.array(entry_times, dtype=np.int64, copy=True)
    b = np.full((n_eps, length + 1), _NEG, dtype=np.int64)
    counts_a = np.zeros(n_eps, dtype=np.int64)
    counts_b = np.zeros(n_eps, dtype=np.int64)
    for i, c in enumerate(np.asarray(db_seg, dtype=np.int64)):
        t = t0 + i
        _expiring_step(a, counts_a, mat, c, t, window, length, state_cols)
        _expiring_step(b, counts_b, mat, c, t, window, length, state_cols)
        cutoff = t + 1 - window
        if np.array_equal(
            _normalized_live(a, cutoff, length),
            _normalized_live(b, cutoff, length),
        ):
            return summary.counts + (counts_a - counts_b), summary.exit_times
    return summary.counts + (counts_a - counts_b), a


def advance_expiring(
    db_seg: np.ndarray,
    matrix: np.ndarray,
    window: int,
    entry_times: np.ndarray,
    t0: int,
    summary: ExpiringSummary,
) -> "tuple[np.ndarray, np.ndarray]":
    """One compose step: ``(counts, exit_times)`` for a segment entered
    in the absolute timestamp snapshot ``entry_times``.

    A provably-dead entry (every carried prefix already outside the
    window at segment start) accepts the speculative pass-1 result O(1);
    a live entry pays the bounded lockstep fix-up.  Shared by
    :func:`compose_expiring` and the streaming state store
    (:mod:`repro.streaming`), which must never drift apart.
    """
    length = matrix.shape[1]
    if length == 1 or bool(np.all(entry_times[:, 1:length] < t0 - window)):
        return summary.counts, summary.exit_times
    return _expiring_fix(db_seg, matrix, window, entry_times, t0, summary)


def compose_expiring(
    db: np.ndarray,
    matrix: np.ndarray,
    window: int,
    bounds: "list[tuple[int, int]]",
    summaries: "list[ExpiringSummary]",
) -> np.ndarray:
    """Thread the true EXPIRING entry state through pass-1 summaries.

    Per segment one :func:`advance_expiring` step.  Returns per-segment
    counts ``(n_segments, E)``.
    """
    n_eps, length = matrix.shape
    db = np.asarray(db)
    seg_counts = np.zeros((len(bounds), n_eps), dtype=np.int64)
    entry = np.full((n_eps, length + 1), _NEG, dtype=np.int64)
    for i, ((lo, hi), summary) in enumerate(zip(bounds, summaries)):
        if hi <= lo:
            continue  # zero-width segment: state passes through
        seg_counts[i], entry = advance_expiring(
            db[lo:hi], matrix, window, entry, lo, summary
        )
    return seg_counts


def _count_segmented_two_pass(
    db: np.ndarray,
    episodes: "list[Episode]",
    alphabet_size: int,
    bounds: "list[tuple[int, int]]",
    policy: MatchPolicy,
    window: int | None,
) -> SegmentedCount:
    """Exact segmented counting via the two-pass state carry (host-serial).

    The sharded engine runs pass 1 across workers; this reference path
    runs it in-process and shares the compose code, so the two can never
    drift.  Mixed-length batches are grouped by length (each group gets
    its own matrix) and scattered back in input order.
    """
    seg_counts = np.zeros((len(bounds), len(episodes)), dtype=np.int64)
    groups: dict[int, list[int]] = {}
    for j, ep in enumerate(episodes):
        groups.setdefault(ep.length, []).append(j)
    for length, idxs in groups.items():
        matrix = episodes_to_matrix([episodes[j] for j in idxs])
        if policy is MatchPolicy.SUBSEQUENCE:
            summaries = [
                subsequence_segment_summary(db[lo:hi], matrix) for lo, hi in bounds
            ]
            counts, _ = compose_subsequence(summaries, len(idxs))
        else:
            summaries = [
                expiring_segment_summary(db[lo:hi], matrix, int(window), lo)
                for lo, hi in bounds
            ]
            counts = compose_expiring(db, matrix, int(window), bounds, summaries)
        seg_counts[:, idxs] = counts
    boundary = np.zeros((max(0, len(bounds) - 1), len(episodes)), dtype=np.int64)
    return SegmentedCount(segment_counts=seg_counts, boundary_counts=boundary)
