"""Episode occurrence counting — the paper's "counting step".

This module is the computational heart of the reproduction.  Counting
is organized in *engine tiers* (see :mod:`repro.mining.engines` for the
registry that names and selects them):

* ``scalar-oracle`` — per-character scalar FSM counting
  (:func:`count_batch_reference` / :func:`count_matrix_reference`), the
  semantic ground truth every other tier is property-tested against.
  O(n·E) interpreter steps; used only for verification.
* ``vector-sweep`` — one Python-level pass over the database advancing
  all episodes' FSM states as NumPy vectors
  (:func:`_count_subsequence_batch`, :func:`_count_expiring_batch`).
  O(n) interpreter steps regardless of E; wins on short databases where
  per-episode setup would dominate.
* ``position-hop`` — vectorized position-list counting: per-symbol
  occurrence arrays are extracted once per database (cached on a
  :class:`DatabaseIndex`), and match structure is derived by
  ``np.searchsorted`` hops between position lists — one hop per edge
  of the candidate trie, with every leaf's greedy non-overlapped count
  resolved in one vectorized chase, handed to binary lifting when a
  few long chains would keep it going
  (:func:`repro.mining.trie.count_positions_trie`).  Interpreter work
  is independent of n, which is what kills the per-character sweeps on
  realistic databases.  :func:`count_episode` hops one episode as a
  single chain (:func:`_chain_positions`) and resolves its count in
  O(log m) binary-lifting rounds (:func:`_walk_jump_chain`), without a
  trie's per-batch set-up.
* ``RESET`` has its own closed form: a single O(n) pass base-N encodes
  every length-L gram of the database and matches the batch against
  them (:func:`count_reset_batch`: a ``bincount`` table while the
  N**L gram space is small next to n, a sorted lookup of the batch's
  episode codes past that; RESET counting equals substring counting,
  see :mod:`repro.mining.policies`), and :func:`count_episode` uses a
  direct O(n·L) sliding-window comparison for single episodes so the
  N**L gram table is never materialized for one count.

The ``auto`` engine picks ``vector-sweep`` only when the database is
short on both scales (``n < 4096`` *and* ``n < 8·E``) and
``position-hop`` otherwise; RESET always takes the n-gram/sliding-window
path.  Batch entry points accept an optional ``index`` so callers that
count many batches against one database (the level-wise miner, the
sharded engine) pay the position-extraction cost once.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.mining.alphabet import check_database, check_episode_codes
from repro.mining.episode import Episode
from repro.mining.fsm import EpisodeFSM
from repro.mining.policies import MatchPolicy, validate_window

if TYPE_CHECKING:  # runtime import would cycle: trie imports this module
    from repro.mining.trie import CandidateTrie

#: n-gram encoding uses int64; N**L must stay below 2**62.
_MAX_ENCODED = 2**62

#: times[] sentinel for "prefix never completed" in the expiring sweeps.
_NEG = -(1 << 60)


# ---------------------------------------------------------------------------
# Database position index
# ---------------------------------------------------------------------------

class DatabaseIndex:
    """Per-database cache of per-symbol occurrence position lists.

    ``positions(symbol)`` returns the sorted int64 array of indices where
    ``symbol`` occurs.  All lists are derived from one stable argsort of
    the database (O(n log n), done lazily on first use), so indexing a
    database for an E-episode batch costs one pass, not E·L scans.

    Instances are cheap to construct (no work until first lookup) and
    are meant to be built once per database and threaded through every
    counting call against it — the level-wise miner does exactly that.
    """

    def __init__(self, db: np.ndarray, fingerprint: "str | None" = None) -> None:
        self.db = db
        self._order: np.ndarray | None = None
        self._sorted: np.ndarray | None = None
        self._cache: dict[int, np.ndarray] = {}
        self._fingerprint = fingerprint

    @property
    def n(self) -> int:
        return int(self.db.size)

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the indexed database (see
        :func:`db_fingerprint`), computed lazily and cached — callers
        that already hashed the database pass it to the constructor.
        Valid as long as the database is not mutated in place (the same
        contract under which the index itself is valid)."""
        if self._fingerprint is None:
            self._fingerprint = db_fingerprint(self.db)
        return self._fingerprint

    def _ensure_sorted(self) -> None:
        if self._order is None:
            self._order = np.argsort(self.db, kind="stable").astype(np.int64)
            self._sorted = self.db[self._order]

    def positions(self, symbol: int) -> np.ndarray:
        """Sorted indices of ``symbol`` in the database."""
        symbol = int(symbol)
        hit = self._cache.get(symbol)
        if hit is not None:
            return hit
        self._ensure_sorted()
        lo = int(np.searchsorted(self._sorted, symbol, side="left"))
        hi = int(np.searchsorted(self._sorted, symbol, side="right"))
        pos = self._order[lo:hi]
        self._cache[symbol] = pos
        return pos


def db_fingerprint(db: np.ndarray) -> str:
    """Cheap content fingerprint of a database array.

    Hashes the raw bytes plus dtype/shape (blake2b runs at memory
    bandwidth, so this is negligible next to any counting pass).  Used
    wherever a :class:`DatabaseIndex` is cached across calls — object
    identity alone cannot detect in-place mutation, and a stale index
    silently returns wrong counts.
    """
    db = np.ascontiguousarray(db)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((db.dtype.str, db.shape)).encode())
    digest.update(db.tobytes())
    return digest.hexdigest()


def ngram_counts(db: np.ndarray, level: int, alphabet_size: int) -> np.ndarray:
    """Counts of every length-``level`` gram, indexed by base-N encoding.

    Returns an array of length ``alphabet_size ** level`` where entry
    ``sum(code[j] * N**(L-1-j))`` is the number of (possibly not
    distinct-item) contiguous occurrences of that gram.  ``db`` is
    trusted: the public counting entry points check it.
    """
    codes = _gram_codes(db, level, alphabet_size)
    return np.bincount(codes, minlength=alphabet_size**level)


def _gram_codes(db: np.ndarray, level: int, alphabet_size: int) -> np.ndarray:
    """Base-N code of the length-``level`` gram starting at each event."""
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    if alphabet_size < 1:
        raise ValidationError("alphabet_size must be >= 1")
    if alphabet_size**level >= _MAX_ENCODED:
        raise ValidationError(
            f"alphabet {alphabet_size} at level {level} overflows n-gram encoding"
        )
    n = db.size
    if n < level:
        return np.zeros(0, dtype=np.int64)
    # in place: one int64 temporary per call, however long the gram.
    # A fresh array per step puts two database-sized temporaries on the
    # heap at once, and whether their frees trim the heap (to refault it
    # on the next call) then hangs on where earlier allocations landed
    code = db[: n - level + 1].astype(np.int64)
    for j in range(1, level):
        code *= alphabet_size
        code += db[j : n - level + 1 + j]
    return code


def encode_episodes(matrix: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Base-N encode an (E, L) episode matrix to gram indices."""
    enc = matrix[:, 0].astype(np.int64)
    for j in range(1, matrix.shape[1]):
        enc = enc * alphabet_size + matrix[:, j]
    return enc


def count_batch(
    db: np.ndarray,
    episodes: "CandidateTrie | list[Episode] | np.ndarray",
    alphabet_size: int,
    policy: MatchPolicy = MatchPolicy.RESET,
    window: int | None = None,
    *,
    engine: "str | None" = None,
    index: DatabaseIndex | None = None,
) -> np.ndarray:
    """Occurrence counts for a batch of same-length episodes.

    Dispatches through the engine registry: ``engine`` names a
    registered counting engine (default ``"auto"``, which picks the
    fastest exact implementation for the policy and problem shape).
    ``index`` optionally carries a prebuilt :class:`DatabaseIndex` so
    repeated batches against one database share position lists.
    Episode lists and ``(E, L)`` matrices become a
    :class:`~repro.mining.trie.CandidateTrie` here, in input order;
    tries pass through with their shared structure.
    """
    # lazy: both modules import this one
    from repro.mining.engines import get_engine
    from repro.mining.trie import as_trie

    batch = as_trie(episodes)
    db = check_database(db, alphabet_size)
    check_episode_codes(batch.codes(), alphabet_size)
    validate_window(policy, window)
    resolved = get_engine(engine or "auto")
    with resolved:
        # one call = one run scope (REP003); a no-op for the stateless
        # tiers, pool acquire/release for engines that hold resources
        return resolved.count_batch(
            db, batch, alphabet_size, policy, window, index=index
        )


#: the RESET gram table is used while it has at most this many entries
#: per database event.  Measured crossover (2-core Xeon, NumPy 2.4,
#: n = 1,000 to 100,000, 500 episodes): the table wins up to about 64n
#: entries (0.57 ms against 1.1 ms for the O(n log E) episode lookup
#: at n = 16,384) and loses from about 256n (5.5 ms against 1.2 ms;
#: 21 ms against 1.1 ms at 1,024n), where allocating and zeroing it
#: outgrows the lookup.
_TABLE_PER_EVENT = 64


def count_reset_batch(
    db: np.ndarray, matrix: np.ndarray, alphabet_size: int
) -> np.ndarray:
    """RESET counts for a batch: contiguous gram matches, in O(n) memory.

    Small gram spaces bincount every gram (:func:`ngram_counts`).  Past
    ``_TABLE_PER_EVENT`` table entries per event the table would cost
    O(N**L) memory however short the database, so each gram is instead
    looked up in the batch's sorted distinct episode codes: O(n log E)
    time, O(n + E) memory; duplicate rows share one code.
    """
    length = matrix.shape[1]
    episodes = encode_episodes(matrix, alphabet_size)
    if alphabet_size**length <= _TABLE_PER_EVENT * db.size:
        return ngram_counts(db, length, alphabet_size)[episodes]
    codes = _gram_codes(db, length, alphabet_size)
    wanted, slot = np.unique(episodes, return_inverse=True)
    if wanted.size == 0:
        return np.zeros(0, dtype=np.int64)
    at = np.minimum(np.searchsorted(wanted, codes), wanted.size - 1)
    hit = wanted[at] == codes
    return np.bincount(at[hit], minlength=wanted.size)[slot]


def count_episode(
    db: np.ndarray,
    episode: Episode,
    alphabet_size: int,
    policy: MatchPolicy = MatchPolicy.RESET,
    window: int | None = None,
    *,
    index: DatabaseIndex | None = None,
) -> int:
    """Occurrence count for one episode.

    Single-episode counting never goes through the batch RESET path:
    materializing the ``alphabet_size ** level`` gram table for one
    episode is O(N^L) memory, so RESET uses a direct O(n·L) vectorized
    sliding-window comparison instead, and SUBSEQUENCE/EXPIRING use
    position-list hopping.
    """
    db = check_database(db, alphabet_size)
    check_episode_codes(list(episode.items), alphabet_size)
    validate_window(policy, window)
    if policy is MatchPolicy.RESET:
        # episode.items, not episode.array: the uint8 matrix form cannot
        # hold item codes on alphabets wider than 256
        return _count_single_reset(db, np.asarray(episode.items, dtype=np.int64))
    index = index if index is not None else DatabaseIndex(db)
    hop_window = None if policy is MatchPolicy.SUBSEQUENCE else int(window)  # type: ignore[arg-type]
    return _count_positions_single(index, episode.items, hop_window)


def _count_single_reset(db: np.ndarray, items: np.ndarray) -> int:
    """Contiguous occurrence count of one episode, O(n·L) time, O(n) memory.

    Episode items are distinct, so matches cannot overlap and the
    window-match count equals the FSM's non-overlapped RESET count.
    """
    n = db.size
    length = len(items)
    if n < length:
        return 0
    mask = db[: n - length + 1] == items[0]
    for j in range(1, length):
        mask &= db[j : n - length + 1 + j] == items[j]
    return int(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# SUBSEQUENCE / EXPIRING vector sweeps (the ``vector-sweep`` engine tier)
# ---------------------------------------------------------------------------

def resume_subsequence_batch(
    db: np.ndarray, matrix: np.ndarray, states: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """SUBSEQUENCE sweep from arbitrary entry states.

    Runs the greedy non-overlapped recurrence over ``db`` with episode
    ``e`` starting in FSM state ``states[e]`` (0..L-1), returning
    ``(counts, exit_states)``.  This is the resumable primitive behind
    the segmented two-pass decomposition in :mod:`repro.mining.spanning`:
    because the SUBSEQUENCE state is one small integer, a segment's
    behaviour from *every* entry state can be tabulated in a single
    sweep and segments composed exactly.
    """
    n_eps, length = matrix.shape
    state = np.array(states, dtype=np.int64, copy=True)
    counts = np.zeros(n_eps, dtype=np.int64)
    # needed[e] = matrix[e, state[e]]; gather once per character
    rows = np.arange(n_eps)
    mat = matrix.astype(np.int64)
    for c in np.asarray(db, dtype=np.int64):
        advance = mat[rows, state] == c
        state[advance] += 1
        done = state == length
        if done.any():
            counts[done] += 1
            state[done] = 0
    return counts, state


def _count_subsequence_batch(db: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Greedy non-overlapped counting, all episodes advanced per character."""
    counts, _ = resume_subsequence_batch(
        db, matrix, np.zeros(matrix.shape[0], dtype=np.int64)
    )
    return counts


def _expiring_step(
    times: np.ndarray,
    counts: np.ndarray,
    mat: np.ndarray,
    c: int,
    t: int,
    window: int,
    length: int,
    state_cols: np.ndarray,
) -> None:
    """One EXPIRING character step, updating ``times``/``counts`` in place.

    ``ok[:, s-1]`` means state ``s``'s symbol fired; state ``s >= 2``
    additionally requires its predecessor prefix alive within the
    window.  All states read the *previous* character's snapshot, so one
    symbol can both extend an existing prefix and re-anchor a fresher
    one — matching :class:`~repro.mining.fsm.EpisodeFSM`'s EXPIRING
    semantics exactly.
    """
    ok = mat == c
    if length > 1:
        ok[:, 1:] &= (t - times[:, 1:length]) <= window
    np.copyto(times[:, 1:], t, where=ok)
    done = times[:, length] == t
    if done.any():
        counts[done] += 1
        times[np.ix_(done, state_cols)] = _NEG  # non-overlap


def resume_expiring_batch(
    db: np.ndarray,
    matrix: np.ndarray,
    window: int,
    times: np.ndarray,
    t0: int = 0,
) -> "tuple[np.ndarray, np.ndarray]":
    """EXPIRING sweep resumed from a ``(E, L+1)`` timestamp snapshot.

    ``times[e, s]`` holds the latest *absolute* database index at which
    episode ``e``'s length-``s`` prefix completed (``-infinity``
    sentinel: never); characters of ``db`` are indexed ``t0, t0+1, ...``
    so a snapshot taken at a segment boundary resumes exactly.  Returns
    ``(counts, exit_times)``; the input snapshot is not mutated.  Column
    0 (the empty prefix) carries no information — state 1 re-anchors
    unconditionally.
    """
    n_eps, length = matrix.shape
    times = np.array(times, dtype=np.int64, copy=True)
    counts = np.zeros(n_eps, dtype=np.int64)
    mat = matrix.astype(np.int64)
    state_cols = np.arange(1, length + 1)
    for i, c in enumerate(np.asarray(db, dtype=np.int64)):
        _expiring_step(times, counts, mat, c, t0 + i, window, length, state_cols)
    return counts, times


def _count_expiring_batch(
    db: np.ndarray, matrix: np.ndarray, window: int
) -> np.ndarray:
    """Windowed counting with per-state latest-timestamp tracking
    (property-tested against the scalar FSM in ``tests/test_counting.py``)."""
    n_eps, length = matrix.shape
    times = np.full((n_eps, length + 1), _NEG, dtype=np.int64)
    counts, _ = resume_expiring_batch(db, matrix, window, times)
    return counts


# ---------------------------------------------------------------------------
# Position-list counting (the ``position-hop`` engine tier)
# ---------------------------------------------------------------------------

def _hop_positions(
    index: DatabaseIndex,
    ends: np.ndarray,
    starts: np.ndarray,
    item: int,
    window: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a completion frontier ``(ends, starts)`` by one symbol.

    One searchsorted hop: for every occurrence of ``item``, find the
    latest prefix completion strictly before it (gap bounded by
    ``window`` when set) and extend that chain.  This is the single-edge
    step both the single-episode chain (:func:`_chain_positions`) and the
    trie-shared walk (:func:`repro.mining.trie.count_positions_trie`)
    are built from — the frontier depends only on the prefix consumed
    so far, never on any suffix, which is what makes sharing a parent
    frontier across all trie children exact.
    """
    empty = np.empty(0, dtype=np.int64)
    pos = index.positions(item)
    if ends.size == 0 or pos.size == 0:
        return empty, empty
    # latest completed prefix strictly before each candidate position
    idx = np.searchsorted(ends, pos, side="left") - 1
    ok = idx >= 0
    idx0 = np.maximum(idx, 0)
    if window is not None:
        ok &= (pos - ends[idx0]) <= window
    return pos[ok], starts[idx0][ok]


def _chain_positions(
    index: DatabaseIndex, items: "tuple[int, ...]", window: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Completion positions and latest chain starts for one episode.

    Returns ``(ends, starts)``: ``ends`` holds every database position
    at which some valid occurrence chain ``p_1 < ... < p_L`` ends
    (``window`` bounds each consecutive gap; ``None`` means unbounded),
    and ``starts[i]`` is the *latest possible* ``p_1`` over all chains
    ending at ``ends[i]``.  Both arrays are sorted ascending; ``starts``
    is non-decreasing (taking the latest feasible predecessor at every
    hop maximizes the start, by induction over prefix length).
    """
    reach = index.positions(items[0])
    starts = reach
    for item in items[1:]:
        reach, starts = _hop_positions(index, reach, starts, item, window)
        if reach.size == 0:
            return reach, starts
    return reach, starts


def _jump_tables(ends: np.ndarray, starts: np.ndarray) -> "list[np.ndarray]":
    """Binary-lifting tables of the greedy completion chain.

    ``tables[k][i]`` is the completion ``2**k`` greedy steps after
    completion ``i`` (``m`` once the chain has left the frontier; ``m``
    maps to itself).  Step one is ``jump[i] = first k with starts[k] >
    ends[i]`` — ``starts`` is non-decreasing, so the set of chains lying
    wholly after ``ends[i]`` is a suffix of indices.
    """
    m = int(ends.size)
    jump = np.searchsorted(starts, ends, side="right")
    tables = [np.append(jump, m).astype(np.int64)]
    while (1 << len(tables)) < m:
        prev = tables[-1]
        tables.append(prev[prev])
    return tables


def _walk_jump_chain(
    ends: np.ndarray,
    starts: np.ndarray,
    first: int,
    tables: "list[np.ndarray] | None" = None,
) -> tuple[int, int]:
    """Walk the greedy completion chain starting at completion ``first``.

    Returns ``(count, last)`` — the number of completions on the chain
    ``first -> jump[first] -> ...`` and the index of the final one —
    resolved with O(log m) binary-lifting rounds over
    :func:`_jump_tables` (built here unless the caller shares them)
    instead of a per-occurrence loop.  ``first >= m`` means no
    completion remains: ``(0, -1)``.
    """
    m = int(ends.size)
    if first >= m:
        return 0, -1
    if tables is None:
        tables = _jump_tables(ends, starts)
    count = 1
    cur = int(first)
    for k in range(len(tables) - 1, -1, -1):
        nxt = int(tables[k][cur])
        if nxt < m:
            count += 1 << k
            cur = nxt
    return count, cur


def _greedy_nonoverlap_count(ends: np.ndarray, starts: np.ndarray) -> int:
    """Greedy non-overlapped occurrence count from chain completions.

    The scalar FSMs count by taking the earliest completion whose whole
    chain lies after the previous completion; index 0 is always the
    first completion (starts >= 0), and the rest follow the
    :func:`_walk_jump_chain` pointer chain.
    """
    count, _ = _walk_jump_chain(ends, starts, 0)
    return count


def _count_positions_single(
    index: DatabaseIndex, items: "tuple[int, ...]", window: int | None
) -> int:
    if len(items) == 1:
        # every occurrence of the symbol is a (trivially non-overlapped)
        # completion under both policies
        return int(index.positions(items[0]).size)
    ends, starts = _chain_positions(index, items, window)
    return _greedy_nonoverlap_count(ends, starts)


# ---------------------------------------------------------------------------
# Position-hop resume and summary steps (driven by the trie walks of
# repro.mining.trie; see repro.mining.spanning for the carry)
# ---------------------------------------------------------------------------

def _hop_partial_match(
    index: DatabaseIndex, items: "tuple[int, ...]", after: int
) -> tuple[int, int]:
    """Greedy earliest-occurrence match of ``items`` strictly after ``after``.

    Hops each symbol to its first occurrence strictly after the
    previous hop — exactly the scalar FSM's advance rule — and returns
    ``(n_matched, last_pos)``.  ``n_matched == len(items)`` means the
    whole sequence completed at ``last_pos``; otherwise ``last_pos`` is
    the position of the final matched symbol (``after`` if none).
    """
    pos = int(after)
    matched = 0
    for item in items:
        occ = index.positions(item)
        j = int(np.searchsorted(occ, pos, side="right"))
        if j >= occ.size:
            return matched, pos
        pos = int(occ[j])
        matched += 1
    return matched, pos


def _resume_subsequence_hopping(
    index: DatabaseIndex,
    items: "tuple[int, ...]",
    states: "list[int]",
    chain: "tuple[np.ndarray, np.ndarray]",
) -> "list[tuple[int, int]]":
    """``(count, exit_state)`` of the greedy SUBSEQUENCE FSM resumed in
    each of ``states`` over the indexed database segment.

    Bit-identical to the matching lanes of
    :func:`resume_subsequence_batch`, in O(L + log m) searchsorted hops
    per entry instead of a per-character sweep:

    1. the carried partial completes greedily (``items[state:]`` hopped
       to earliest occurrences — the FSM's exact advance rule);
    2. every later completion follows the full-episode jump chain
       (:func:`_walk_jump_chain` over ``chain``, the episode's
       completion frontier, which the trie walks of
       :mod:`repro.mining.trie` share across a subtree);
    3. the exit state is the greedy partial progress strictly after the
       final completion (it can never re-complete — a full chain there
       would itself have been on the jump chain).

    The entries share the chain's lifting tables, built on first use.
    """
    length = len(items)
    ends, starts = chain
    tables: "list[np.ndarray] | None" = None
    out = []
    for state in states:
        matched, p1 = _hop_partial_match(index, items[state:], -1)
        if state + matched < length:
            out.append((0, state + matched))
            continue
        k = int(np.searchsorted(starts, p1, side="right"))
        if tables is None and k < ends.size:
            tables = _jump_tables(ends, starts)
        extra, last = _walk_jump_chain(ends, starts, k, tables)
        q = int(ends[last]) if extra else p1
        exit_state, _ = _hop_partial_match(index, items, q)
        out.append((1 + extra, exit_state))
    return out


def _expiring_exit_row(
    length: int,
    tails: "list[tuple[int, int] | None]",
    ends: np.ndarray,
    starts: np.ndarray,
    t0: int,
) -> "tuple[int, np.ndarray]":
    """``(count, exit_times_row)`` of the empty-entry EXPIRING sweep.

    Bit-identical to one row of :func:`resume_expiring_batch` from the
    all-``_NEG`` snapshot: the count is the greedy jump chain over the
    full-episode frontier, and the sweep's exit value for column ``s``
    is the latest valid ``s``-prefix completion built entirely after
    the final full completion ``q`` (the sweep wipes columns at every
    completion).  Because ``starts`` is non-decreasing per depth, that
    set is a suffix of the depth-``s`` frontier, so it is non-empty iff
    the frontier's final chain starts after ``q`` — and its latest end
    is the frontier's final end.  Columns 0 and L are always ``_NEG``
    at a sweep exit (column 0 is never written; column L is wiped at
    the completion that wrote it).
    """
    count, last = _walk_jump_chain(ends, starts, 0)
    q = int(ends[last]) if count else -1
    row = np.full(length + 1, _NEG, dtype=np.int64)
    for s in range(1, length):
        tail = tails[s - 1]
        if tail is not None and tail[1] > q:
            row[s] = t0 + tail[0]
    return count, row


# ---------------------------------------------------------------------------
# Scalar oracles
# ---------------------------------------------------------------------------

def count_batch_reference(
    db: np.ndarray,
    episodes: list[Episode],
    alphabet_size: int,
    policy: MatchPolicy = MatchPolicy.RESET,
    window: int | None = None,
) -> np.ndarray:
    """Per-character scalar FSM counting — the ground-truth oracle."""
    out = np.zeros(len(episodes), dtype=np.int64)
    for i, ep in enumerate(episodes):
        fsm = EpisodeFSM(ep, alphabet_size, policy, window)
        out[i] = fsm.run(db)
    return out


def count_matrix_reference(
    db: np.ndarray,
    matrix: np.ndarray,
    policy: MatchPolicy = MatchPolicy.RESET,
    window: int | None = None,
) -> np.ndarray:
    """Scalar oracle over raw (E, L) matrices, repeated symbols allowed.

    :class:`~repro.mining.episode.Episode` enforces distinct items
    (Table 1 semantics), but the matrix entry points do not; this oracle
    pins down the batch counters' semantics on that wider input space:

    * ``RESET`` — contiguous (substring) occurrence count, matching the
      n-gram path.  (For distinct items this equals the FSM's RESET
      count; for repeated symbols substring counting is the contract.)
    * ``SUBSEQUENCE`` / ``EXPIRING`` — the scalar FSM recurrences of
      :class:`~repro.mining.fsm.EpisodeFSM`, applied to the raw item
      row.
    """
    db = np.asarray(db, dtype=np.int64)
    if db.ndim != 1:
        raise ValidationError(f"database must be 1-D, got shape {db.shape}")
    validate_window(policy, window)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValidationError(f"episode matrix must be 2-D, got {matrix.shape}")
    out = np.zeros(matrix.shape[0], dtype=np.int64)
    for i in range(matrix.shape[0]):
        items = [int(x) for x in matrix[i]]
        if policy is MatchPolicy.RESET:
            out[i] = _scalar_substring_count(db, items)
        elif policy is MatchPolicy.SUBSEQUENCE:
            out[i] = _scalar_subsequence_count(db, items)
        else:
            out[i] = _scalar_expiring_count(db, items, int(window))  # type: ignore[arg-type]
    return out


def _scalar_substring_count(db: np.ndarray, items: list[int]) -> int:
    length = len(items)
    return sum(
        1
        for start in range(db.size - length + 1)
        if all(db[start + j] == items[j] for j in range(length))
    )


def _scalar_subsequence_count(db: np.ndarray, items: list[int]) -> int:
    state = count = 0
    for c in db:
        if int(c) == items[state]:
            state += 1
            if state == len(items):
                count += 1
                state = 0
    return count


def _scalar_expiring_count(db: np.ndarray, items: list[int], window: int) -> int:
    length = len(items)
    times = [_NEG] * (length + 1)
    times[0] = 0
    count = 0
    for t in range(db.size):
        c = int(db[t])
        for s in range(length, 0, -1):
            if c != items[s - 1]:
                continue
            if s == 1 or t - times[s - 1] <= window:
                times[s] = t
        if times[length] == t:
            count += 1
            for s in range(1, length + 1):
                times[s] = _NEG
    return count
