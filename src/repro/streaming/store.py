"""Per-episode FSM state persisted between stream chunks.

The :class:`EpisodeStateStore` is the streaming subsystem's exactness
core: it holds, for every tracked candidate episode, the running
occurrence count over the stream prefix *and* the FSM summary needed to
resume counting when the next chunk arrives — so streaming counts are
exactly the batch counts over the concatenated prefix, for any chunking
(the contract :mod:`repro.streaming` documents and the
chunking-invariance property suite asserts).

Each arriving chunk is treated as the next *segment* of an unbounded
database and advanced with the segment/state-carry machinery of
:mod:`repro.mining.spanning` (paper §3.3.3 / Fig. 5, made incremental):

* ``RESET`` — the chunk is counted standalone through the configured
  counting engine (contiguous occurrences decompose cleanly), plus a
  *boundary-window replay*: the store keeps the last ``L-1`` events of
  the prefix and counts occurrences that start in that tail and finish
  inside the new chunk (:func:`~repro.mining.spanning.count_starts_in`,
  the Fig. 5 span fix applied at the chunk seam).
* ``SUBSEQUENCE`` / ``EXPIRING`` — *position-hop chunk resume*: the
  chunk's own :class:`~repro.mining.counting.DatabaseIndex` is built
  once and shared across every tracked level, and each episode's
  carried state (entry-state vector / absolute timestamp snapshot) is
  advanced by searchsorted-hopping only the symbols that episode
  needs, batched across sibling episodes through the candidate trie so
  shared prefixes share hop chains
  (:func:`~repro.mining.trie.resume_positions_trie`, dispatched
  through the engine's ``resume_batch``).  Interpreter work per chunk
  is proportional to tracked trie nodes, not chunk length — the fix
  for the schema-5 bench regression where per-character segment
  summaries lost to naive recount.

Tracking is mutable: :meth:`EpisodeStateStore.retrack` promotes newly
needed candidates (backfilling count and entry state over the retained
prefix with the resumable sweeps of :mod:`repro.mining.counting`) and
demotes candidates no longer generated, preserving the carried state of
every episode that stays tracked.  Under bounded retention the caller
may pass a *suffix* of the stream as backfill history
(``history_start > 0``); promoted counts are then exact lower bounds
(see :meth:`EpisodeStateStore.retrack`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.mining.counting import _NEG, DatabaseIndex
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy, validate_window
from repro.mining.spanning import count_starts_in
from repro.mining.trie import CandidateTrie, resume_positions_trie

__all__ = ["EpisodeStateStore", "TrackedLevel"]


class TrackedLevel:
    """Carried state for one level's tracked candidate batch.

    ``counts[e]`` is the exact occurrence count of ``episodes[e]`` over
    the whole stream prefix.  ``sub_states`` (SUBSEQUENCE, shape ``E``)
    and ``exp_times`` (EXPIRING, shape ``(E, L+1)``, absolute indices)
    hold the FSM summaries the next chunk resumes from; RESET carries
    nothing per-episode (the store's tail buffer covers the seam).
    ``trie`` is the level's candidate trie, fixed at retrack/restore
    so every chunk advance shares prefix hop chains; ``matrix`` is its
    flat form.
    """

    def __init__(
        self,
        episodes: "tuple[Episode, ...]",
        trie: CandidateTrie,
        counts: np.ndarray,
        sub_states: "np.ndarray | None" = None,
        exp_times: "np.ndarray | None" = None,
    ) -> None:
        self.episodes = episodes
        self.trie = trie
        self.matrix = trie.matrix
        self.counts = counts
        self.sub_states = sub_states
        self.exp_times = exp_times

    @property
    def length(self) -> int:
        return int(self.matrix.shape[1])


class EpisodeStateStore:
    """Exact per-episode state carry across an unbounded chunk feed.

    Parameters
    ----------
    alphabet_size, policy, window:
        Counting semantics, fixed for the store's lifetime.
    max_length:
        Upper bound on tracked episode length (the miner's
        ``max_level``); sizes the RESET tail buffer (``max_length - 1``
        events).
    count_chunk:
        ``(db, batch) -> counts`` callable (``batch`` an episode matrix
        or a :class:`~repro.mining.trie.CandidateTrie`) used for
        standalone chunk and backfill counting under RESET — the hook
        through which the configured counting engine (any REGISTRY
        engine) does the chunk's pass-1 work.
    resume_chunk:
        ``(db, trie, policy, window, state, t0, index) -> (counts,
        exit_state)`` callable advancing carried SUBSEQUENCE/EXPIRING
        state through one chunk.  Defaults to
        :func:`repro.mining.trie.resume_positions_trie`; the miner
        passes the engine's ``resume_batch`` so dispatch stays an
        engine concern.
    """

    def __init__(
        self,
        alphabet_size: int,
        policy: MatchPolicy,
        window: "int | None",
        max_length: int,
        count_chunk: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
        resume_chunk: "Callable[..., tuple[np.ndarray, np.ndarray]] | None" = None,
    ) -> None:
        validate_window(policy, window)
        if max_length < 1:
            raise ValidationError(
                f"max_length must be >= 1, got {max_length}"
            )
        self.alphabet_size = alphabet_size
        self.policy = policy
        self.window = window
        self.max_length = max_length
        self._count_chunk = count_chunk
        self._resume_chunk = (
            resume_chunk if resume_chunk is not None else resume_positions_trie
        )
        self.levels: "dict[int, TrackedLevel]" = {}
        #: absolute index of the next arriving event
        self.events = 0
        #: last ``max_length - 1`` events seen (RESET boundary replay)
        self._tail = np.zeros(0, dtype=np.uint8)

    @property
    def n_tracked(self) -> int:
        return sum(len(lvl.episodes) for lvl in self.levels.values())

    def tracked_episodes(self, level: int) -> "tuple[Episode, ...]":
        lvl = self.levels.get(level)
        return lvl.episodes if lvl is not None else ()

    # -- chunk arrival -------------------------------------------------

    def advance(self, chunk: np.ndarray) -> None:
        """Fold one arriving chunk into every tracked level's state.

        The chunk's :class:`~repro.mining.counting.DatabaseIndex` is
        built once here and shared by every tracked level's hop
        resume, so the per-chunk sort cost is paid a single time
        regardless of how many levels are tracked.  Empty chunks are a
        no-op for every policy (counts and carried state are
        unchanged, and the event clock does not move).
        """
        chunk = np.asarray(chunk)
        if chunk.size == 0:
            return
        t0 = self.events
        index = (
            DatabaseIndex(chunk)
            if self.levels and self.policy is not MatchPolicy.RESET
            else None
        )
        for lvl in self.levels.values():
            if self.policy is MatchPolicy.RESET:
                inc = self._advance_reset(lvl, chunk)
            elif self.policy is MatchPolicy.SUBSEQUENCE:
                inc, lvl.sub_states = self._resume_chunk(
                    chunk, lvl.trie, self.policy, None, lvl.sub_states,
                    t0=t0, index=index,
                )
            else:
                inc, lvl.exp_times = self._resume_chunk(
                    chunk, lvl.trie, self.policy, int(self.window),
                    lvl.exp_times, t0=t0, index=index,
                )
            lvl.counts = lvl.counts + inc
        self.events = t0 + int(chunk.size)
        keep = self.max_length - 1
        if keep > 0:
            self._tail = np.concatenate([self._tail, chunk])[-keep:]

    def _advance_reset(self, lvl: TrackedLevel, chunk: np.ndarray) -> np.ndarray:
        """Engine count of the chunk alone + boundary-window replay.

        A contiguous occurrence lies wholly inside the chunk, wholly in
        the past (already counted), or spans the seam; spanning ones
        start in the retained tail, so replaying ``tail + head`` with
        starts restricted to the tail recovers exactly them (the tail
        is at most ``L-1`` events, so no occurrence fits inside it).
        """
        # the hook accepts the level's cached trie so prefix sharing and
        # the content-addressed count cache skip a per-chunk trie build
        inc = np.asarray(self._count_chunk(chunk, lvl.trie), dtype=np.int64)
        length = lvl.length
        if length > 1 and self._tail.size and chunk.size:
            tail = self._tail[-(length - 1):]
            seam = np.concatenate([tail, chunk[: length - 1]])
            inc = inc + count_starts_in(
                seam, lvl.matrix, self.alphabet_size,
                start_lo=0, start_hi=int(tail.size),
            )
        return inc

    # -- tracking lifecycle --------------------------------------------

    def retrack(
        self,
        level: int,
        episodes: "CandidateTrie | list[Episode] | tuple[Episode, ...]",
        history: np.ndarray,
        history_start: int = 0,
    ) -> "tuple[tuple[Episode, ...], tuple[Episode, ...]]":
        """Make ``level`` track exactly ``episodes`` (in that order).

        A :class:`~repro.mining.trie.CandidateTrie` is kept as the
        level's trie; an episode list is built into one.

        Episodes already tracked keep their carried count and state;
        new ones are backfilled over ``history`` — the retained prefix
        as an array, or a zero-argument callable returning it (only
        invoked when a backfill actually happens, so steady-state
        updates never materialize the prefix).  ``history_start`` is
        the absolute stream index of ``history[0]``; the history must
        cover the stream through the ``self.events`` events seen so
        far (``history_start + history.size == self.events``).

        With ``history_start == 0`` backfill is exact.  With a
        positive start (bounded landmark retention) promoted counts
        are exact *lower bounds*: occurrences lying wholly before
        ``history_start`` are unseen, and the resumable sweeps start
        from the empty state at the suffix boundary (EXPIRING resumes
        with ``t0 = history_start`` so carried timestamps stay on the
        absolute clock).  Returns ``(promoted, demoted)``.
        """
        trie = episodes if isinstance(episodes, CandidateTrie) else None
        episodes = tuple(episodes)
        if not episodes:
            demoted = self.untrack(level)
            return (), demoted
        old = self.levels.get(level)
        if old is not None and old.episodes == episodes:
            return (), ()  # steady state: nothing to rebuild
        old_index = (
            {ep: i for i, ep in enumerate(old.episodes)} if old else {}
        )
        if trie is None:
            trie = CandidateTrie.from_episodes(episodes)
        matrix = trie.matrix
        if matrix.shape[1] > self.max_length:
            raise ValidationError(
                f"episode length {matrix.shape[1]} exceeds the store's "
                f"max_length {self.max_length}"
            )
        new_rows = [
            j for j, ep in enumerate(episodes) if ep not in old_index
        ]
        counts = np.zeros(len(episodes), dtype=np.int64)
        sub_states = exp_times = None
        if self.policy is MatchPolicy.SUBSEQUENCE:
            sub_states = np.zeros(len(episodes), dtype=np.int64)
        elif self.policy is MatchPolicy.EXPIRING:
            exp_times = np.full(
                (len(episodes), matrix.shape[1] + 1), _NEG, dtype=np.int64
            )
        for j, ep in enumerate(episodes):
            i = old_index.get(ep)
            if i is None:
                continue
            counts[j] = old.counts[i]
            if sub_states is not None:
                sub_states[j] = old.sub_states[i]
            if exp_times is not None:
                exp_times[j] = old.exp_times[i]
        if new_rows:
            prefix = np.asarray(history() if callable(history) else history)
            if int(history_start) + int(prefix.size) != self.events:
                raise ValidationError(
                    f"history covers [{int(history_start)}, "
                    f"{int(history_start) + int(prefix.size)}) but the store "
                    f"has seen {self.events} events; backfill would be "
                    "inconsistent"
                )
            sub = matrix[new_rows]
            b_counts, b_state = self._backfill(
                sub, prefix, int(history_start)
            )
            counts[new_rows] = b_counts
            if sub_states is not None:
                sub_states[new_rows] = b_state
            if exp_times is not None:
                exp_times[new_rows] = b_state
        self.levels[level] = TrackedLevel(
            episodes, trie, counts, sub_states, exp_times
        )
        promoted = tuple(episodes[j] for j in new_rows)
        new_set = set(episodes)
        demoted = tuple(
            ep for ep in (old.episodes if old else ()) if ep not in new_set
        )
        return promoted, demoted

    def untrack(self, level: int) -> "tuple[Episode, ...]":
        """Drop a level's tracking entirely; returns the demoted episodes."""
        old = self.levels.pop(level, None)
        return old.episodes if old is not None else ()

    # -- checkpoint serialization --------------------------------------

    def export_state(self) -> "tuple[dict, dict[str, np.ndarray]]":
        """``(meta, arrays)`` snapshot of every carried exactness input.

        ``meta`` is JSON-serializable (event clock plus per-level
        episode item tuples, in tracked order); ``arrays`` carries the
        RESET tail buffer and each level's counts / FSM state under
        ``lvl{k}_*`` keys.  :meth:`restore_state` on an identically
        configured store rebuilds a store whose every subsequent
        ``advance``/``retrack`` is bit-identical — the foundation of
        the checkpoint/resume exactness contract
        (:mod:`repro.streaming.checkpoint`).
        """
        meta = {
            "events": int(self.events),
            "levels": [
                {
                    "level": int(k),
                    "episodes": [list(map(int, ep.items))
                                 for ep in lvl.episodes],
                }
                for k, lvl in sorted(self.levels.items())
            ],
        }
        arrays: "dict[str, np.ndarray]" = {"tail": self._tail}
        for k, lvl in sorted(self.levels.items()):
            arrays[f"lvl{k}_counts"] = lvl.counts
            if lvl.sub_states is not None:
                arrays[f"lvl{k}_sub"] = lvl.sub_states
            if lvl.exp_times is not None:
                arrays[f"lvl{k}_exp"] = lvl.exp_times
        return meta, arrays

    def restore_state(
        self, meta: dict, arrays: "dict[str, np.ndarray]"
    ) -> None:
        """Rebuild the carried state captured by :meth:`export_state`.

        Replaces this store's state wholesale; the store must be
        configured (alphabet size / policy / window / max_length) as
        the exporting one was — the checkpoint layer validates that
        before calling here.
        """
        levels: "dict[int, TrackedLevel]" = {}
        for entry in meta["levels"]:
            k = int(entry["level"])
            episodes = tuple(
                Episode(tuple(int(i) for i in items))
                for items in entry["episodes"]
            )
            counts = np.array(arrays[f"lvl{k}_counts"], dtype=np.int64)
            sub = arrays.get(f"lvl{k}_sub")
            exp = arrays.get(f"lvl{k}_exp")
            levels[k] = TrackedLevel(
                episodes,
                CandidateTrie.from_episodes(episodes),
                counts,
                None if sub is None else np.array(sub, dtype=np.int64),
                None if exp is None else np.array(exp, dtype=np.int64),
            )
        self.levels = levels
        self.events = int(meta["events"])
        self._tail = np.array(arrays["tail"], dtype=np.uint8)

    def _backfill(
        self, matrix: np.ndarray, history: np.ndarray, history_start: int = 0
    ) -> "tuple[np.ndarray, np.ndarray | None]":
        """``(counts, carry_state)`` of fresh episodes over the retained prefix.

        RESET counts go through the configured engine (no per-episode
        state to rebuild); SUBSEQUENCE/EXPIRING hop-resume from the
        empty state at ``history_start`` so the exit state lands
        exactly where the carried episodes already are.  Exact when
        ``history_start == 0``; an exact lower bound otherwise (see
        :meth:`retrack`).
        """
        if self.policy is MatchPolicy.RESET:
            counts = np.asarray(
                self._count_chunk(history, matrix), dtype=np.int64
            )
            return counts, None
        trie = CandidateTrie.from_matrix(matrix)
        if self.policy is MatchPolicy.SUBSEQUENCE:
            return self._resume_chunk(
                history, trie, self.policy, None,
                np.zeros(matrix.shape[0], dtype=np.int64),
                t0=int(history_start), index=None,
            )
        times = np.full(
            (matrix.shape[0], matrix.shape[1] + 1), _NEG, dtype=np.int64
        )
        return self._resume_chunk(
            history, trie, self.policy, int(self.window), times,
            t0=int(history_start), index=None,
        )
