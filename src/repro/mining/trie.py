"""Shared-prefix candidate tries and the content-addressed count cache.

At every mining level thousands of candidates share prefixes over the
*same* database (Table 1: N!/(N-L)! episodes per level, N-1 extensions
per surviving base).  A flat ``list[Episode]`` forgets that structure,
so every engine re-advances each episode from scratch — O(E·L)
position-list hops per batch.  :class:`CandidateTrie` keeps it: a batch
of same-length episodes stored as a prefix tree, so counting can hop
each trie *edge* once and reuse the parent node's position-list
frontier for all children — O(trie nodes) hops, which on the level-3
characterization grid (N=26, 15,600 candidates) is 16,276 edges instead
of 46,800 per-episode hops.

Contract (relied on across engines/miner/streaming — see
``CONTRACTS.md``):

* **Index stability** — episode index ``i`` in every engine's
  ``count_batch`` output refers to the ``i``-th episode *inserted*
  into the trie.  ``from_episodes``/``from_matrix`` preserve input
  order; :func:`repro.mining.candidates.generate_next_level` inserts
  in deterministic lexicographic order, so existing result/bench
  schemas are unchanged.  Duplicate rows are legal and each keeps its
  own index (they share one terminal node).
* **Deterministic child ordering** — traversal visits children in
  ascending symbol order regardless of insertion order.
* **Exactness of prefix sharing** — the position-hop chain
  ``(ends, starts)`` of a prefix is independent of any suffix
  (:func:`repro.mining.counting._chain_positions` is a left fold), so
  handing a parent frontier to every child edge is exact, not an
  approximation.

The same walk, carrying each node's frontier down the trie, also
resumes carried FSM state (:func:`resume_positions_trie`) and builds
the segment summaries of the two-pass state carry
(:func:`subsequence_summary_trie`, :func:`expiring_summary_trie`):
every position-hop summary and resume in the program goes through
these walks.

:class:`CountCache` is the content-addressed count cache: keyed by
``(db_fingerprint, episode items, policy, window)`` — the PR 3
fingerprint machinery — so a count is a pure function of its key and
cached values can never go stale.  :func:`cached_count_batch` is the
shared entry point (``BoundEngine``, the pipelined continuation, and
the streaming backfill all route through it): cache hits are served
without touching the engine, misses are batched into *one* engine
``count_batch`` call (rebuilt as a trie to keep prefix sharing), and a
fully-hit repeat of a ``(db, episode set)`` count makes zero engine
calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.mining.counting import (
    _NEG,
    DatabaseIndex,
    db_fingerprint,
    _expiring_exit_row,
    _hop_positions,
    _resume_subsequence_hopping,
)
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy
from repro.mining.spanning import (
    ExpiringSummary,
    SubsequenceSummary,
    advance_expiring,
)

if TYPE_CHECKING:  # runtime import would cycle through engines
    from repro.mining.engines import CountingEngine

__all__ = [
    "CandidateTrie",
    "CountCache",
    "as_trie",
    "cached_count_batch",
    "count_positions_trie",
    "expiring_summary_trie",
    "resume_positions_trie",
    "subsequence_summary_trie",
]


class CandidateTrie(Sequence):
    """A batch of same-length episodes stored as a shared-prefix trie.

    Behaves as a ``Sequence[Episode]`` (``len``/iteration/indexing/
    ``in``/``==`` against episode lists), so every consumer of the old
    flat ``list[Episode]`` batches keeps working, while engines that
    understand the trie (``count_batch``) exploit the shared structure.

    Built either from :class:`Episode` objects (:meth:`from_episodes`,
    or incrementally via :meth:`insert` — the A-priori extension step
    inserts each candidate directly) or from a raw ``(E, L)`` matrix
    (:meth:`from_matrix`; repeated symbols allowed, matching the matrix
    counting entry points).  Matrix-built tries carry no ``Episode``
    view — they exist for worker-side rebuilds and raw-matrix batches —
    but count identically: counting walks node structure, never episode
    objects.
    """

    __slots__ = (
        "_level",
        "_children",
        "_terminals",
        "_n",
        "_episodes",
        "_matrix",
        "_episode_set",
    )

    def __init__(self, level: int = 0) -> None:
        if level < 0:
            raise ValidationError(f"trie level must be >= 0, got {level}")
        #: episode length L; 0 until the first insert fixes it
        self._level = int(level)
        #: per-node {symbol: child node id}; node 0 is the root
        self._children: "list[dict[int, int]]" = [{}]
        #: per-node episode indices terminating there (duplicates share)
        self._terminals: "list[list[int]]" = [[]]
        self._n = 0
        self._episodes: "list[Episode] | None" = []
        self._matrix: "np.ndarray | None" = None
        self._episode_set: "set[Episode] | None" = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_episodes(cls, episodes: "Iterable[Episode]") -> "CandidateTrie":
        """Trie over ``episodes`` in input order (index stability)."""
        trie = cls()
        for episode in episodes:
            trie.insert(episode)
        return trie

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "CandidateTrie":
        """Trie over the rows of an ``(E, L)`` matrix, in row order.

        Repeated symbols within a row are allowed (the raw-matrix
        counting contract); the result has no ``Episode`` view.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValidationError(
                f"episode matrix must be 2-D, got {matrix.shape}"
            )
        trie = cls(level=int(matrix.shape[1]))
        trie._episodes = None
        for row in matrix.tolist():
            trie._insert_items(tuple(row))
        trie._matrix = matrix
        return trie

    def insert(self, episode: Episode) -> int:
        """Insert ``episode``, returning its (stable) episode index.

        The A-priori extension step calls this directly: extending a
        surviving base walks the base's existing path and adds one
        node, instead of materializing a flat concatenated list.
        """
        if self._episodes is None:
            raise ValidationError(
                "matrix-built tries are fixed batches; build Episode "
                "tries via from_episodes/insert"
            )
        idx = self._insert_items(episode.items)
        self._episodes.append(episode)
        if self._episode_set is not None:
            self._episode_set.add(episode)
        return idx

    def _insert_items(self, items: "tuple[int, ...]") -> int:
        if self._level == 0:
            if not items:
                raise ValidationError("episode must contain at least one item")
            self._level = len(items)
        elif len(items) != self._level:
            raise ValidationError(
                f"candidate trie requires uniform length; got {len(items)} "
                f"!= {self._level}"
            )
        children = self._children
        node = 0
        for item in items:
            nxt = children[node].get(item)
            if nxt is None:
                nxt = len(children)
                children[node][item] = nxt
                children.append({})
                self._terminals.append([])
            node = nxt
        idx = self._n
        self._terminals[node].append(idx)
        self._n += 1
        self._matrix = None
        return idx

    # -- structure -----------------------------------------------------

    @property
    def level(self) -> int:
        """Episode length L (0 for an empty trie with no fixed level)."""
        return self._level

    @property
    def n_nodes(self) -> int:
        """Node count including the root."""
        return len(self._children)

    @property
    def n_edges(self) -> int:
        """Edge count — the number of position-list hops a trie-batched
        count performs (vs ``len(trie) * level`` counting each episode alone)."""
        return len(self._children) - 1

    @property
    def matrix(self) -> np.ndarray:
        """The equivalent flat ``(E, L)`` uint8 matrix, cached."""
        if self._matrix is None:
            if self._episodes:
                self._matrix = episodes_to_matrix(self._episodes)
            else:
                self._matrix = np.zeros((0, self._level), dtype=np.uint8)
        return self._matrix

    def children_of(self, node: int) -> "list[tuple[int, int]]":
        """``(symbol, child id)`` pairs in ascending symbol order."""
        return sorted(self._children[node].items())

    def terminals_of(self, node: int) -> "tuple[int, ...]":
        """Episode indices terminating at ``node``."""
        return tuple(self._terminals[node])

    def subtree_index_groups(self, max_groups: int) -> "list[np.ndarray]":
        """Episode indices partitioned into ≤ ``max_groups`` groups of
        whole root-child subtrees, balanced by episode count.

        The sharded engine's episode-axis decomposition: shipping whole
        subtrees keeps prefix sharing intact inside every shard, and
        the explicit index arrays scatter shard results back exactly
        (episodes are grouped by leading symbol, not by contiguous row
        ranges).  Deterministic: subtrees are packed in ascending
        root-symbol order.
        """
        if max_groups < 1:
            raise ValidationError(
                f"max_groups must be >= 1, got {max_groups}"
            )
        subtrees: "list[list[int]]" = []
        for _, child in self.children_of(0):
            idxs: "list[int]" = []
            stack = [child]
            while stack:
                node = stack.pop()
                idxs.extend(self._terminals[node])
                stack.extend(self._children[node].values())
            subtrees.append(idxs)
        total = sum(len(s) for s in subtrees)
        if total == 0:
            return []
        target = -(-total // max_groups)  # ceil
        groups: "list[list[int]]" = []
        current: "list[int]" = []
        for idxs in subtrees:
            if current and len(current) + len(idxs) > target and (
                len(groups) + 1 < max_groups
            ):
                groups.append(current)
                current = []
            current.extend(idxs)
        if current:
            groups.append(current)
        return [np.array(sorted(g), dtype=np.intp) for g in groups]

    # -- Sequence protocol over episodes -------------------------------

    def _episode_view(self) -> "list[Episode]":
        if self._episodes is None:
            raise ValidationError(
                "matrix-built trie has no Episode view (rows may repeat "
                "symbols); use .matrix"
            )
        return self._episodes

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> "Iterator[Episode]":
        return iter(self._episode_view())

    def __getitem__(self, i: "int | slice"):  # type: ignore[override]
        return self._episode_view()[i]

    def __contains__(self, episode: object) -> bool:
        if not isinstance(episode, Episode):
            return False
        if self._episode_set is None:
            self._episode_set = set(self._episode_view())
        return episode in self._episode_set

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateTrie):
            if self._episodes is not None and other._episodes is not None:
                return self._episodes == other._episodes
            return bool(
                self.matrix.shape == other.matrix.shape
                and np.array_equal(self.matrix, other.matrix)
            )
        if isinstance(other, (list, tuple)):
            episodes = self._episodes
            return episodes is not None and episodes == list(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("CandidateTrie is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CandidateTrie level={self._level} episodes={self._n} "
            f"nodes={self.n_nodes}>"
        )


def as_trie(
    batch: "CandidateTrie | Iterable[Episode] | np.ndarray",
) -> CandidateTrie:
    """The trie form of an episode batch, for the public counting edges.

    Tries pass through unchanged; an ``(E, L)`` matrix becomes
    :meth:`CandidateTrie.from_matrix`, anything else an episode iterable
    for :meth:`CandidateTrie.from_episodes` — input order preserved, so
    output slot ``i`` is still input episode ``i``.
    """
    if isinstance(batch, CandidateTrie):
        return batch
    if isinstance(batch, np.ndarray):
        return CandidateTrie.from_matrix(batch)
    return CandidateTrie.from_episodes(batch)


def count_positions_trie(
    db: np.ndarray,
    trie: CandidateTrie,
    window: "int | None" = None,
    index: "DatabaseIndex | None" = None,
) -> np.ndarray:
    """Position-list counts for a trie batch: SUBSEQUENCE
    (``window=None``) or EXPIRING (``window`` set).

    The trie-shared analogue of the single-episode chain
    (:func:`repro.mining.counting._chain_positions`): a depth-first
    walk carries each node's completion frontier ``(ends, starts)`` and
    hops it across every child edge exactly once, so episodes sharing a
    prefix share the prefix's entire chain computation.  The leaf level
    — the bulk of the trie (e.g. 15,600 of the level-3 grid's 16,276
    edges) — is additionally processed *sibling-batched* per parent
    node and resolved in one global chase (:class:`_LeafBatch`): the
    final hop and the greedy jump pointers are derived with linear
    indicator prefix sums instead of per-episode binary searches, and
    every leaf's greedy chain is walked simultaneously, one vectorized
    gather per chain step (long chains finish by binary lifting).  The
    chains are the same latest-start jump chains the single-episode
    :func:`repro.mining.counting._greedy_nonoverlap_count` resolves,
    so counts are bit-identical.
    """
    out = np.zeros(len(trie), dtype=np.int64)
    if len(trie) == 0:
        return out
    index = index if index is not None else DatabaseIndex(db)
    level = trie.level
    if level == 1:
        # every occurrence of a single symbol is a (trivially
        # non-overlapped) completion under both policies
        for symbol, child in trie.children_of(0):
            count = int(index.positions(symbol).size)
            for i in trie.terminals_of(child):
                out[i] = count
        return out
    # stack of (node, ends, starts, depth); children pushed in reverse
    # symbol order so traversal pops ascending (determinism only —
    # results are order-independent).  Uniform length means terminals
    # live only at depth == level, i.e. on children of depth level-1
    # nodes — exactly the sibling-batched leaf step.
    batch = _LeafBatch(index.n)
    stack: "list[tuple[int, np.ndarray, np.ndarray, int]]" = []
    for symbol, child in reversed(trie.children_of(0)):
        pos = index.positions(symbol)
        stack.append((child, pos, pos, 1))
    while stack:
        node, ends, starts, depth = stack.pop()
        if ends.size == 0:
            continue  # all descendants count zero; out already zeroed
        if depth == level - 1:
            batch.add_parent(trie, index, node, ends, starts, window)
            continue
        for symbol, child in reversed(trie.children_of(node)):
            child_ends, child_starts = _hop_positions(
                index, ends, starts, symbol, window
            )
            stack.append((child, child_ends, child_starts, depth + 1))
    batch.resolve(out)
    return out


def resume_positions_trie(
    db: np.ndarray,
    trie: CandidateTrie,
    policy: MatchPolicy,
    window: "int | None",
    state: np.ndarray,
    t0: int = 0,
    index: "DatabaseIndex | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched position-hop chunk resume over a candidate trie.

    The streaming advance analogue of :func:`count_positions_trie`:
    episodes sharing a prefix share one position-list hop chain while
    each episode's carried state is advanced through the new segment.
    Returns ``(counts, exit_state)``, positionally aligned with the
    trie (index stability):

    * ``SUBSEQUENCE`` — ``state`` is the ``(E,)`` entry-state vector;
      bit-identical to :func:`~repro.mining.counting.
      resume_subsequence_batch` (one row of the entry table
      :func:`subsequence_summary_trie` tabulates in full).
    * ``EXPIRING`` — ``state`` is the ``(E, L+1)`` absolute timestamp
      snapshot; the trie walk produces the empty-entry summary
      (:func:`expiring_summary_trie`) and the carried snapshot
      composes through :func:`repro.mining.spanning.advance_expiring`
      (O(1) for dead entries, bounded lockstep for live ones).

    ``RESET`` is rejected: contiguous occurrences resume by boundary
    replay (:func:`repro.mining.spanning.count_starts_in`), not by
    state carry.  Engines expose this as
    :meth:`repro.mining.engines.CountingEngine.resume_batch`.
    """
    db = np.asarray(db)
    index = index if index is not None else DatabaseIndex(db)
    if policy is MatchPolicy.SUBSEQUENCE:
        entry = np.asarray(state, dtype=np.int64)
        counts, exits = _trie_subsequence_resume(index, trie, entry[None])
        return counts[0], exits[0]
    if policy is MatchPolicy.EXPIRING:
        counts, exit_times = expiring_summary_trie(
            db, trie, int(window), int(t0), index=index  # type: ignore[arg-type]
        )
        summary = ExpiringSummary(counts=counts, exit_times=exit_times)
        return advance_expiring(
            db,
            trie.matrix,
            int(window),  # type: ignore[arg-type]
            np.asarray(state, dtype=np.int64),
            int(t0),
            summary,
        )
    raise ValidationError(
        "resume_positions_trie advances SUBSEQUENCE/EXPIRING state; "
        "RESET resumes by boundary replay, not state carry"
    )


def subsequence_summary_trie(
    db: np.ndarray,
    trie: CandidateTrie,
    index: "DatabaseIndex | None" = None,
) -> SubsequenceSummary:
    """The full ``(L, E)`` SUBSEQUENCE entry table of a segment.

    Bit-identical to the ``E*L``-lane sweep
    :func:`repro.mining.spanning.subsequence_segment_summary`: row ``s``
    resumes every episode in state ``s``, and all L rows come from the
    same trie walk, so each terminal's chain is hopped once for all of
    them.  The decremental sliding window caches these per segment and
    the sharded database axis returns them from its summary shards.
    """
    index = index if index is not None else DatabaseIndex(np.asarray(db))
    length, n_eps = trie.matrix.shape[1], len(trie)
    entry = np.repeat(np.arange(length, dtype=np.int64)[:, None], n_eps, 1)
    counts, exits = _trie_subsequence_resume(index, trie, entry)
    return SubsequenceSummary(counts=counts, exits=exits)


def _trie_subsequence_resume(
    index: "DatabaseIndex", trie: CandidateTrie, entry: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """SUBSEQUENCE resume from an ``(R, E)`` entry table in one trie DFS.

    Returns ``(counts, exits)`` of the same shape: row ``r`` is the
    segment entered in states ``entry[r]``.  Each terminal resumes from
    all R of its entries against the one full-episode chain the DFS
    hands it.  Subtrees with an empty frontier are still visited: an
    episode whose full chain never completes can still make partial
    greedy progress (phase 1 of :func:`repro.mining.counting.
    _resume_subsequence_hopping`), which the exit state must reflect.
    """
    matrix = trie.matrix
    counts = np.zeros(entry.shape, dtype=np.int64)
    exits = np.zeros(entry.shape, dtype=np.int64)
    stack: "list[tuple[int, np.ndarray, np.ndarray]]" = []
    for symbol, child in reversed(trie.children_of(0)):
        pos = index.positions(symbol)
        stack.append((child, pos, pos))
    while stack:
        node, ends, starts = stack.pop()
        for term in trie.terminals_of(node):
            counts[:, term], exits[:, term] = np.array(
                _resume_subsequence_hopping(
                    index, tuple(matrix[term].tolist()),
                    entry[:, term].tolist(), (ends, starts),
                )
            ).T
        for symbol, child in reversed(trie.children_of(node)):
            child_ends, child_starts = _hop_positions(
                index, ends, starts, symbol, None
            )
            stack.append((child, child_ends, child_starts))
    return counts, exits


def expiring_summary_trie(
    db: np.ndarray,
    trie: CandidateTrie,
    window: int,
    t0: int,
    index: "DatabaseIndex | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Empty-entry EXPIRING summary ``(counts, exit_times)`` via the trie.

    Bit-identical to the per-character sweep
    :func:`repro.mining.spanning.expiring_segment_summary`: the DFS
    carries each path's windowed frontier plus the per-depth frontier
    tails (the last completion of each prefix depth) that
    :func:`repro.mining.counting._expiring_exit_row` turns into the
    sweep's exit snapshot.
    """
    index = index if index is not None else DatabaseIndex(np.asarray(db))
    matrix = trie.matrix
    length = int(matrix.shape[1])
    counts = np.zeros(len(trie), dtype=np.int64)
    exit_times = np.full((len(trie), length + 1), _NEG, dtype=np.int64)
    stack: "list[tuple[int, np.ndarray, np.ndarray, tuple]]" = []
    for symbol, child in reversed(trie.children_of(0)):
        pos = index.positions(symbol)
        stack.append((child, pos, pos, ()))
    while stack:
        node, ends, starts, tails = stack.pop()
        for term in trie.terminals_of(node):
            counts[term], exit_times[term] = _expiring_exit_row(
                length, list(tails), ends, starts, int(t0)
            )
        children = trie.children_of(node)
        if children:
            tail = (int(ends[-1]), int(starts[-1])) if ends.size else None
            child_tails = tails + (tail,)
            for symbol, child in reversed(children):
                child_ends, child_starts = _hop_positions(
                    index, ends, starts, symbol, window
                )
                stack.append((child, child_ends, child_starts, child_tails))
    return counts, exit_times


#: a leaf parent whose positions (leaf occurrences + parent
#: completions) number fewer than ``n / _SPARSE_RATIO`` reads its ranks
#: by binary search instead of O(n) prefix sums
_SPARSE_RATIO = 4
#: a chase round's fixed interpreter cost, in gathered elements
_CHASE_ROUND_OVERHEAD = 4096
#: the chase first weighs binary lifting after this many rounds, then
#: at every doubling of the round count
_CHASE_PROBE_ROUNDS = 16
#: positions per binary-lifting group (bounds the doubling tables)
_LIFT_GROUP = 1 << 15


def _index_dtype(top: int) -> "type[np.signedinteger]":
    """Narrowest index dtype holding ``0..top``: int32 while it fits
    (half the memory of int64 on the leaf pass), int64 beyond."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


class _LeafBatch:
    """Deferred, fully vectorized resolution of a trie's leaf level.

    ``add_parent`` consumes one depth-``L-1`` node: a single
    indicator-prefix-sum pass replaces the per-leaf ``searchsorted``
    hop (``# ends < p`` read off a cumulative indicator of the parent's
    completion positions), and the greedy jump pointers — ``jump[j] =
    first k in the segment with start > end_j`` — come from a second
    pair of prefix sums (rank of each end among the parent's chain
    starts, then rank of that rank among the segment's predecessor
    indices, segments kept disjoint by a per-segment offset).  Both are
    O(n + sum of leaf positions) with no log factors; a parent with
    few positions relative to ``n`` reads the same two ranks by binary
    search instead (``_SPARSE_RATIO``).

    ``resolve`` then walks *every* leaf's greedy chain at once: one
    global jump array (strictly increasing, with an absorbing sentinel)
    and one gather per chain step, counting steps that stay inside each
    leaf's segment.  While chains are short (wide batches) the gathered
    work is the counts themselves, below the O(completions x log) of
    binary lifting; when a few long chains would keep the loop going
    (narrow batches on long databases) the chase hands them to binary
    lifting instead (:func:`_lifting_pays`).  Each chain is exactly the
    one :func:`repro.mining.counting._greedy_nonoverlap_count` walks,
    so counts are bit-identical to per-episode counting.
    """

    __slots__ = ("n", "base", "jumps", "lo", "hi", "terminals")

    def __init__(self, n: int) -> None:
        self.n = int(n)
        #: global completion-index base of the next parent's segment
        self.base = 0
        #: per-parent jump fragments, already in global coordinates
        self.jumps: "list[np.ndarray]" = []
        self.lo: "list[int]" = []
        self.hi: "list[int]" = []
        self.terminals: "list[tuple[int, ...]]" = []

    def add_parent(
        self,
        trie: CandidateTrie,
        index: DatabaseIndex,
        node: int,
        ends: np.ndarray,
        starts: np.ndarray,
        window: "int | None",
    ) -> None:
        children = trie.children_of(node)
        pos_arrays = [index.positions(symbol) for symbol, _ in children]
        sizes = np.array([p.size for p in pos_arrays], dtype=np.int64)
        if int(sizes.sum()) == 0:
            return  # no leaf has occurrences; out stays zero
        n = self.n
        allpos = np.concatenate(pos_arrays)
        seg = np.repeat(np.arange(len(children), dtype=np.int64), sizes)
        # the prefix-sum reads below cost O(n) per parent whatever the
        # parent's size; a sparse parent (narrow batch, long database)
        # reads the same ranks with binary searches instead
        sparse = (allpos.size + ends.size) * _SPARSE_RATIO < n
        # shared final hop (cf. counting._hop_positions): idx = number
        # of parent completions strictly before p, minus one — read off
        # a cumulative indicator instead of a per-leaf binary search
        if sparse:
            idx = np.searchsorted(ends, allpos, side="left") - 1
        else:
            before = np.zeros(n + 1, dtype=np.int64)
            before[ends + 1] = 1
            np.cumsum(before, out=before)
            idx = before[allpos] - 1
        ok = idx >= 0
        idx0 = np.maximum(idx, 0)
        if window is not None:
            ok &= (allpos - ends[idx0]) <= window
        leaf_ends = allpos[ok]
        pred = idx0[ok]  # predecessor index into the parent's frontier
        seg = seg[ok]
        m = int(leaf_ends.size)
        if m == 0:
            return
        per_leaf = np.bincount(seg, minlength=len(children))
        offsets = np.concatenate(([0], np.cumsum(per_leaf)))
        # greedy jump pointers, segment-local then made global:
        # jump[j] = #{k in segment: start_k <= end_j}.  start_k =
        # starts[pred_k] with pred non-decreasing per segment, so
        # start_k <= e  <=>  pred_k < rank(e) where rank(e) = number of
        # parent chain starts <= e — two more prefix-sum reads.
        if sparse:
            rv = np.searchsorted(starts, leaf_ends, side="right")
        else:
            rank = np.bincount(starts, minlength=n)
            np.cumsum(rank, out=rank)
            rv = rank[leaf_ends]
        span = int(ends.size) + 1  # > any pred value and any rank value
        shifted_pred = pred + seg * span
        shifted_rank = rv + seg * span
        cnt = np.bincount(shifted_pred, minlength=len(children) * span + 1)
        below = np.concatenate(([0], np.cumsum(cnt)))
        jump = below[shifted_rank]  # parent-local completion index
        self.jumps.append(
            (jump + self.base).astype(_index_dtype(self.base + m))
        )
        for c, (_, child) in enumerate(children):
            self.lo.append(self.base + int(offsets[c]))
            self.hi.append(self.base + int(offsets[c + 1]))
            self.terminals.append(trie.terminals_of(child))
        self.base += m

    def resolve(self, out: np.ndarray) -> None:
        total = self.base
        if total == 0:
            return
        jump = np.empty(total + 1, dtype=_index_dtype(total))
        pos = 0
        for frag in self.jumps:
            jump[pos:pos + frag.size] = frag
            pos += frag.size
        jump[total] = total  # absorbing sentinel for escaped chains
        lo = np.array(self.lo, dtype=np.int64)
        hi = np.array(self.hi, dtype=np.int64)
        nonempty = lo < hi
        counts = nonempty.astype(np.int64)  # first completion, when any
        # walk all chains at once; jump is strictly increasing below the
        # sentinel, so dead chains drift monotonically and never revive.
        # The chase pays one round per step of the longest chain, which
        # a few long chains (narrow batch, long database) make dear; at
        # doubling round counts it projects the remaining rounds from
        # each live chain's progress so far and hands the live chains to
        # binary lifting once that is the cheaper bill.
        cur = np.where(nonempty, lo, total)
        rounds, probe = 0, _CHASE_PROBE_ROUNDS
        while True:
            cur = jump[cur].astype(np.int64)
            alive = cur < hi
            if not alive.any():
                break
            counts += alive
            rounds += 1
            if rounds == probe:
                probe *= 2
                live = np.flatnonzero(alive)
                if _lifting_pays(cur[live], lo[live], hi[live], rounds,
                                 lo.size):
                    _finish_chains(jump, cur, hi, counts, live)
                    break
        for terms, count in zip(self.terminals, counts.tolist()):
            for i in terms:
                out[i] = count


def _lifting_pays(
    cur: np.ndarray, lo: np.ndarray, hi: np.ndarray, rounds: int, width: int
) -> bool:
    """Whether binary lifting over live chains' unvisited ranges
    ``[cur, hi)`` costs less than chasing them to the end.

    Each chain has advanced ``cur - lo`` positions in ``rounds`` rounds;
    at that pace the slowest needs ``max((hi - cur) * rounds / (cur -
    lo))`` more, each round gathering over all ``width`` chains plus
    the interpreter's fixed cost.  Lifting gathers every unvisited
    position once per table, ``bit_length`` of the longest range
    tables, and pays about a round's fixed cost per table.
    """
    left = hi - cur
    more = int((left * rounds // (cur - lo)).max())
    chase = more * (width + _CHASE_ROUND_OVERHEAD)
    levels = int(left.max()).bit_length()
    lift = (int(left.sum()) + _CHASE_ROUND_OVERHEAD) * levels
    return chase > lift


def _finish_chains(
    jump: np.ndarray,
    cur: np.ndarray,
    hi: np.ndarray,
    counts: np.ndarray,
    live: np.ndarray,
) -> None:
    """Add to ``counts[c]`` (``c`` in ``live``) the steps chain ``c``
    still takes from ``cur[c]`` before leaving its segment ``[., hi[c])``.

    Binary lifting, as single-episode counting does it
    (:func:`repro.mining.counting._walk_jump_chain`), over the chains'
    unvisited ranges ``[cur, hi)`` laid end to end.  Chains go in
    groups of about ``_LIFT_GROUP`` positions (a longer chain alone),
    so the doubling tables stay bounded and every group reuses them.
    """
    sizes = hi[live] - cur[live]
    reach = np.cumsum(sizes)
    longest = int(sizes.max())
    # intp tables (NumPy gathers through int32 indices cast them
    # first); row k jumps 2**k steps
    tables = np.empty(
        (max(1, (longest - 1).bit_length()),
         min(max(_LIFT_GROUP, longest), int(reach[-1])) + 1),
        dtype=np.int64,
    )
    g0 = 0
    while g0 < live.size:
        cap = int(reach[g0] - sizes[g0]) + _LIFT_GROUP
        g1 = max(g0 + 1, int(np.searchsorted(reach, cap, side="right")))
        group = live[g0:g1]
        counts[group] += _lift_steps(jump, cur[group], hi[group], tables)
        g0 = g1


def _lift_steps(
    jump: np.ndarray, start: np.ndarray, stop: np.ndarray, tables: np.ndarray
) -> np.ndarray:
    """Steps each chain takes from ``start`` while staying below
    ``stop``, building its doubling tables in ``tables``."""
    sizes = stop - start
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    size = int(offsets[-1])
    shift = np.repeat(offsets[:-1] - start, sizes)  # global -> local
    target = jump[np.arange(size, dtype=np.int64) - shift]
    inside = target < np.repeat(stop, sizes)
    levels = max(1, (int(sizes.max()) - 1).bit_length())
    tables = tables[:levels, :size + 1]
    tables[0, :size] = np.where(inside, target + shift, size)
    tables[0, size] = size  # the sentinel maps to itself
    for k in range(1, levels):
        np.take(tables[k - 1], tables[k - 1], out=tables[k])
    pos = offsets[:-1]
    steps = np.zeros(sizes.size, dtype=np.int64)
    for k in range(levels - 1, -1, -1):
        nxt = tables[k][pos]
        ok = nxt < size
        steps += ok.astype(np.int64) << k
        pos = np.where(ok, nxt, pos)
    return steps


class CountCache:
    """Bounded LRU cache of episode counts, content-addressed.

    Keys are ``(db_fingerprint, items, policy value, window)`` — every
    input the count is a function of, nothing it is not — so entries
    can never go stale: a mutated database changes its fingerprint and
    simply misses.  ``hits``/``misses``/``evictions`` expose
    effectiveness; :meth:`stats` bundles them (plus the current size)
    for the telemetry recorder (:mod:`repro.obs`) and run reports.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_data")

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValidationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "dict[tuple, int]" = {}

    def get(self, key: tuple) -> "int | None":
        value = self._data.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self._data[key] = value  # re-insert: most-recently-used
        self.hits += 1
        return value

    def put(self, key: tuple, value: int) -> None:
        self._data.pop(key, None)
        while len(self._data) >= self.max_entries:
            self._data.pop(next(iter(self._data)))
            self.evictions += 1
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> "dict[str, int]":
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
        }


def cached_count_batch(
    engine: "CountingEngine",
    db: np.ndarray,
    batch: "CandidateTrie | list[Episode] | np.ndarray",
    alphabet_size: int,
    policy: MatchPolicy,
    window: "int | None" = None,
    *,
    cache: CountCache,
    index: "DatabaseIndex | None" = None,
) -> np.ndarray:
    """Count ``batch`` through ``cache``, dispatching only the misses.

    Hits are served straight from the cache; misses are gathered into
    one ``engine.count_batch`` call — rebuilt as a :class:`CandidateTrie`
    so prefix sharing survives partial hits — then stored.  A repeated
    ``(db, episode set, policy, window)`` count therefore makes *zero*
    engine calls.  Exact by construction: the key captures every input
    the count depends on.  Caller owns the engine's run scope.
    """
    if isinstance(batch, CandidateTrie):
        matrix = batch.matrix
    elif isinstance(batch, np.ndarray):
        matrix = batch
    else:
        matrix = episodes_to_matrix(list(batch))
    n_eps = int(matrix.shape[0])
    if n_eps == 0:
        return np.zeros(0, dtype=np.int64)
    if index is not None and index.db is db:
        fingerprint = index.fingerprint
    else:
        fingerprint = db_fingerprint(db)
    win = None if window is None else int(window)
    keys = [
        (fingerprint, tuple(row), policy.value, win)
        for row in matrix.tolist()
    ]
    out = np.zeros(n_eps, dtype=np.int64)
    missing: "list[int]" = []
    for i, key in enumerate(keys):
        hit = cache.get(key)
        if hit is None:
            missing.append(i)
        else:
            out[i] = hit
    if missing:
        if len(missing) == n_eps and isinstance(batch, CandidateTrie):
            sub: "CandidateTrie | np.ndarray" = batch
        else:
            sub = CandidateTrie.from_matrix(matrix[missing])
        counts = engine.count_batch(
            db, sub, alphabet_size, policy, window, index=index
        )
        for j, i in enumerate(missing):
            value = int(counts[j])
            out[i] = value
            cache.put(keys[i], value)
    return out
