"""Candidate episode generation (paper Algorithm 1, Table 1).

Two generators are provided:

* :func:`generate_level` — the *exhaustive* level-L candidate space the
  paper's evaluation sweeps: all ordered arrangements of L distinct
  items, N!/(N-L)! of them (Table 1).  Level 1 -> 26 episodes, level 2
  -> 650, level 3 -> 15,600 for N=26, matching §5.
* :func:`generate_next_level` — the A-priori-style *generation step*
  (Algorithm 1 line 8): extend the surviving frequent episodes of level
  L-1, pruning candidates that contain a non-frequent sub-episode.  The
  mining driver uses this between levels so the counting load matches
  what survives elimination.  It works on the uint8 episode matrix in
  one array pass per level (extend by a bases x alphabet mask, prune
  by ``searchsorted`` of the drop-one sub-rows) and emits the
  candidates in lexicographic order.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, perm

import numpy as np

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.episode import Episode
from repro.mining.trie import CandidateTrie

#: the uint8 episode matrix's code range
_CODES = 256


def count_candidates(alphabet_size: int, level: int) -> int:
    """Table 1's formula: number of length-``level`` episodes = N!/(N-L)!."""
    if alphabet_size < 1:
        raise ValidationError(f"alphabet size must be >= 1, got {alphabet_size}")
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    if level > alphabet_size:
        return 0
    return perm(alphabet_size, level)


def generate_level(alphabet: Alphabet, level: int) -> list[Episode]:
    """All ordered arrangements of ``level`` distinct alphabet items.

    Enumeration order is lexicographic over item codes, so the episode
    index space is deterministic — experiments and tests rely on that.
    """
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    if level > alphabet.size:
        return []
    return [Episode(p) for p in permutations(range(alphabet.size), level)]


def generate_next_level(
    frequent: list[Episode],
    alphabet: Alphabet,
    prune: bool = True,
    contiguous: bool = True,
) -> CandidateTrie:
    """A-priori generation step: level L frequent -> level L+1 candidates.

    A candidate ``<i1..iL, x>`` is emitted when its L-prefix is frequent;
    with ``prune=True`` (Algorithm 1's useful-subset care, §3.1) the
    candidate is additionally pruned by anti-monotonicity.

    Which sub-episodes anti-monotonicity covers depends on the matching
    semantics: a *contiguous* (RESET) occurrence of ``<a,b,c>`` implies
    contiguous occurrences of ``<a,b>`` and ``<b,c>`` but *not* of
    ``<a,c>``, so with ``contiguous=True`` only the prefix and suffix
    are checked.  Under subsequence semantics every order-preserving
    sub-episode is implied, so ``contiguous=False`` checks them all —
    the stronger, classic A-priori prune.

    The step is one array pass per level, not a loop per candidate:

    1. the frequent set is stacked into the ``(F, L)`` uint8 episode
       matrix, then sorted and deduplicated row-wise (as byte keys);
    2. every (base, item not in base) pair comes from a boolean
       bases x alphabet mask, read in row-major order;
    3. each pruned drop position is one ``searchsorted`` of the
       candidates' drop-one sub-rows against the sorted bases.  The
       sub-rows are compared as fixed-width byte keys, which hold any
       level (base-A integer codes would overflow ``int64`` at
       256**8).  The prefix is a base by construction, so it is never
       looked up.

    ``Episode`` objects are built once, for the survivors only, and the
    survivor matrix becomes the trie's ``matrix`` as is.

    Returns a :class:`~repro.mining.trie.CandidateTrie` (a drop-in
    ``Sequence[Episode]``) that trie-aware engines count batched.

    **Order invariant** (the trie's episode-index mapping relies on
    this): the surviving ``frequent`` list is deduplicated and the
    candidates are emitted in lexicographic order over item tuples,
    regardless of the order (or duplication) of ``frequent``.  The
    bases are sorted and, since all bases share length L, reading the
    mask row by row (base, then ascending item) keeps the emitted
    sequence globally lexicographic.  Result/bench schemas index
    episodes by this order.

    Item codes above 255, in ``frequent`` or in the alphabet, raise
    :class:`~repro.errors.ValidationError`: the episode matrix is uint8.
    """
    if not frequent:
        return CandidateTrie()
    level = frequent[0].length
    for e in frequent:
        if e.length != level:
            raise ValidationError(
                "generate_next_level requires uniform-length frequent set"
            )
    # stacked from the item tuples, not ``Episode.array``, which would
    # cache one array on every frequent episode the caller keeps
    bases = np.array([e.items for e in frequent], dtype=np.int64)
    top = max(alphabet.size - 1, int(bases.max()))
    if top >= _CODES:
        raise ValidationError(
            f"episode code {top} does not fit the uint8 episode matrix "
            "(codes must be < 256)"
        )
    # sort + dedupe by hand: np.unique imports numpy.ma (about 1.4 MB)
    keys = np.sort(_row_keys(bases.astype(np.uint8)))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    bases = keys.view(np.uint8).reshape(len(keys), level)
    free = np.ones((len(bases), top + 1), dtype=bool)
    free[np.arange(len(bases))[:, None], bases] = False
    # row-major: base by base, ascending item — lexicographic order
    base_of, item = np.nonzero(free[:, : alphabet.size])
    matrix = np.empty((len(base_of), level + 1), dtype=np.uint8)
    matrix[:, :level] = bases[base_of]
    matrix[:, level] = item
    if prune:
        # drop-last is the base itself; contiguity implies the suffix only
        for drop in (0,) if contiguous else range(level):
            sub = _row_keys(np.delete(matrix, drop, axis=1))
            at = np.searchsorted(keys, sub)
            at[at == len(keys)] = 0  # past the end: the key test fails
            matrix = matrix[keys[at] == sub]
    trie = CandidateTrie(level=level + 1)
    for row in matrix.tolist():
        trie.insert(Episode(tuple(row)))
    # the stacked survivors are the trie's matrix; nothing restacks them
    trie._matrix = matrix
    return trie


def _row_keys(matrix: np.ndarray) -> np.ndarray:
    """The rows of a uint8 matrix as fixed-width byte keys.

    Byte order compares like the rows' lexicographic order, so keys of
    sorted rows are sorted and ``searchsorted`` finds rows exactly.
    """
    matrix = np.ascontiguousarray(matrix)
    return matrix.view(np.dtype((np.void, matrix.shape[1]))).ravel()


def level_sizes_table(alphabet_size: int, max_level: int) -> list[tuple[int, int]]:
    """Rows of the paper's Table 1: (level, candidate count)."""
    return [
        (level, count_candidates(alphabet_size, level))
        for level in range(1, max_level + 1)
    ]
