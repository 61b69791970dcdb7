"""Differential tests of the SUBSEQUENCE next-occurrence chase.

The first slice of a differential fuzzer over the exact counting paths:
seeded, derandomized Hypothesis draws of a database, an episode batch
and every entry state, each checked against the per-character scalar
FSM.  The draws cover episode symbols absent from the database,
repeated symbols, databases of 0, 1 and 2 events, batches on both sides
of the chase's width rule, and alphabets up to 256 symbols, whose
tables outgrow the per-event budget and fall back to the frontier walk.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mining.trie as trie_mod
from repro.mining.counting import _TABLE_PER_EVENT, DatabaseIndex, _table_dtype
from repro.mining.episode import Episode
from repro.mining.trie import (
    CandidateTrie,
    count_positions_trie,
    resume_positions_trie,
    subsequence_summary_trie,
)

WIDTH_RULE = trie_mod._CHASE_MIN_LANES


def scalar_resume(db: np.ndarray, items: "list[int]", state: int):
    """``(count, exit_state)`` of the scalar greedy SUBSEQUENCE FSM."""
    count = 0
    for c in db.tolist():
        if c == items[state]:
            state += 1
            if state == len(items):
                count += 1
                state = 0
    return count, state


@st.composite
def batches(draw):
    """A database, an ``(E, L)`` episode matrix and its trie."""
    # database codes stay below ``present``; episode codes above it are
    # absent from the database.  One draw in four spans more symbols
    # than the table budget holds.
    if draw(st.integers(0, 3)) == 0:
        alphabet = draw(st.integers(_TABLE_PER_EVENT, 256))
        present = draw(st.integers(_TABLE_PER_EVENT, alphabet))
    else:
        alphabet = draw(st.integers(1, 16))
        present = draw(st.integers(1, alphabet))
    tiny = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(0, 2) if tiny else st.integers(3, 200))
    length = draw(st.integers(1, 4))
    wide = draw(st.booleans())
    n_eps = draw(
        st.integers(WIDTH_RULE - 2, WIDTH_RULE + 8) if wide
        else st.integers(1, 8)
    )
    # a small symbol pool makes repeated symbols within a row common
    pool = draw(st.integers(1, min(alphabet, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    db = rng.integers(0, present, n).astype(np.uint8)
    symbols = rng.choice(alphabet, size=pool, replace=False)
    matrix = rng.choice(symbols, size=(n_eps, length)).astype(np.uint8)
    return db, matrix, CandidateTrie.from_matrix(matrix)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(batches())
def test_counts_and_resume_match_scalar_fsm(drawn):
    db, matrix, trie = drawn
    n_eps, length = matrix.shape
    rows = [[int(c) for c in row] for row in matrix]
    want = np.array([
        [scalar_resume(db, rows[e], s) for e in range(n_eps)]
        for s in range(length)
    ])  # (L, E, 2)
    index = DatabaseIndex(db)
    # the dispatch: the width rule, then the alphabet budget
    chased = trie_mod._chase_table(index, n_eps) is not None
    assert chased == (
        n_eps >= WIDTH_RULE and index.table_width <= _TABLE_PER_EVENT
    )
    assert count_positions_trie(db, trie).tolist() == want[0, :, 0].tolist()
    summary = subsequence_summary_trie(db, trie)
    assert summary.counts.tolist() == want[:, :, 0].tolist()
    assert summary.exits.tolist() == want[:, :, 1].tolist()
    entry = np.arange(n_eps) % length
    counts, exits = resume_positions_trie(
        db, trie, trie_mod.MatchPolicy.SUBSEQUENCE, None, entry
    )
    picked = want[entry, np.arange(n_eps)]
    assert counts.tolist() == picked[:, 0].tolist()
    assert exits.tolist() == picked[:, 1].tolist()
    if index.table_width > _TABLE_PER_EVENT:
        return
    # the chase itself at any width, on its int32 table and widened
    table = index.next_table()
    assert table.dtype == np.int32
    states = np.repeat(np.arange(length), n_eps)
    for t in (table, table.astype(np.int64)):
        got, none = trie_mod._chase(
            t, trie_mod._lane_codes(trie, index.table_width)
        )
        assert none is None
        assert got.tolist() == want[0, :, 0].tolist()
        got, out = trie_mod._chase(
            t, trie_mod._lane_codes(trie, index.table_width, length), states
        )
        assert got.reshape(length, n_eps).tolist() == want[:, :, 0].tolist()
        assert out.reshape(length, n_eps).tolist() == want[:, :, 1].tolist()


def test_table_dtype_boundary():
    """int32 while the ``(n+2)*(A+1)`` entries stay below 2**31 — checked
    at 2**31 - 1 (prime: one column) and 2**31 + 1 (= 3 x 715,827,883),
    without allocating either table."""
    assert _table_dtype(2**31 - 3, 1) is np.int32
    assert _table_dtype(715_827_883 - 2, 3) is np.int64
    assert (715_827_883 - 2 + 2) * 3 == 2**31 + 1


def test_absent_codes_take_the_never_matching_column():
    """Episode codes past the database's largest clip to the last
    column instead of reading into the next row, codes past the uint8
    episode matrix included."""
    db = np.array([0, 1, 0, 1, 2], dtype=np.uint8)
    matrix = np.array([[0, 1]] * WIDTH_RULE + [[0, 5], [9, 1]], np.uint8)
    counts = count_positions_trie(db, CandidateTrie.from_matrix(matrix))
    assert counts.tolist() == [2] * WIDTH_RULE + [0, 0]
    episodes = [Episode((0, 1))] * WIDTH_RULE + [Episode((0, 300))]
    counts = count_positions_trie(db, CandidateTrie.from_episodes(episodes))
    assert counts.tolist() == [2] * WIDTH_RULE + [0]
