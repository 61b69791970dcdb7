"""Tests for segmented counting and the Fig. 5 boundary-span fix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.candidates import generate_level
from repro.mining.counting import (
    _NEG,
    count_batch,
    count_batch_reference,
    resume_expiring_batch,
    resume_subsequence_batch,
)
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy
from repro.mining.spanning import (
    ExpiringSummary,
    advance_expiring,
    advance_subsequence,
    compose_expiring,
    compose_subsequence,
    count_segmented,
    expiring_segment_summary,
    segment_bounds,
    subsequence_segment_summary,
)
from repro.mining.trie import (
    CandidateTrie,
    expiring_summary_trie,
    resume_positions_trie,
    subsequence_summary_trie,
)


class TestSegmentBounds:
    def test_even_split(self):
        assert segment_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_ragged_split(self):
        bounds = segment_bounds(10, 3)
        assert bounds[0] == (0, 4)
        assert bounds[-1][1] == 10
        # contiguous cover
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_more_segments_than_elements(self):
        bounds = segment_bounds(3, 8)
        assert bounds[0] == (0, 1)
        assert all(lo <= hi for lo, hi in bounds)
        assert bounds[-1] == (3, 3)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            segment_bounds(10, 0)
        with pytest.raises(ValidationError):
            segment_bounds(-1, 2)


class TestFig5Example:
    """The paper's worked example: B->C over 'ABCBCA' split in half."""

    def test_without_span_fix_undercounts(self):
        db = UPPERCASE.encode("ABCBCA")
        ep = Episode.from_symbols("BC", UPPERCASE)
        seg = count_segmented(db, [ep], 26, n_segments=2, fix_spanning=False)
        # split 'ABC' | 'BCA': each half has one BC... the 3-char split is
        # ABC/BCA -> 1 + 1 = 2; force the paper's split after 'ABCB'
        # by using an explicit uneven database instead:
        db2 = UPPERCASE.encode("ABCB" + "CA")  # boundary between B and C
        seg2 = count_segmented(db2, [ep], 26, n_segments=3, fix_spanning=False)
        exact = int(count_batch(db2, [ep], 26)[0])
        assert exact == 2
        # segments of 2: AB|CB|CA -> both occurrences span boundaries
        assert int(seg2.totals[0]) < exact

    def test_with_span_fix_is_exact(self):
        db = UPPERCASE.encode("ABCBCA")
        ep = Episode.from_symbols("BC", UPPERCASE)
        for n_seg in (2, 3, 6):
            seg = count_segmented(db, [ep], 26, n_segments=n_seg, fix_spanning=True)
            assert int(seg.totals[0]) == 2, n_seg


class TestExactness:
    def test_matches_whole_db_count_level2(self, small_db):
        eps = generate_level(UPPERCASE, 2)[:30]
        exact = count_batch(small_db, eps, 26)
        for n_seg in (2, 7, 64, striking := 500):
            seg = count_segmented(small_db, eps, 26, n_segments=n_seg)
            assert np.array_equal(seg.totals, exact), n_seg

    def test_matches_whole_db_count_level3(self, small_db):
        eps = generate_level(UPPERCASE, 3)[:20]
        exact = count_batch(small_db, eps, 26)
        seg = count_segmented(small_db, eps, 26, n_segments=128)
        assert np.array_equal(seg.totals, exact)

    def test_reset_segments_count_without_tries(self, small_db, monkeypatch):
        """RESET segments read the n-gram table directly: a launch with
        thousands of segments never converts the batch per segment."""
        from repro.mining.trie import CandidateTrie

        eps = generate_level(UPPERCASE, 2)[:40]
        exact = count_batch(small_db, eps, 26)

        def no_trie(*args, **kwargs):
            raise AssertionError("segment batch rebuilt as a trie")

        monkeypatch.setattr(CandidateTrie, "from_matrix", no_trie)
        monkeypatch.setattr(CandidateTrie, "from_episodes", no_trie)
        seg = count_segmented(small_db, eps, 26, n_segments=256)
        assert np.array_equal(seg.totals, exact)

    def test_single_segment_no_boundaries(self, small_db):
        eps = generate_level(UPPERCASE, 2)[:5]
        seg = count_segmented(small_db, eps, 26, n_segments=1)
        assert seg.boundary_counts.shape[0] == 0
        assert np.array_equal(seg.totals, count_batch(small_db, eps, 26))

    def test_level1_never_spans(self, small_db):
        eps = generate_level(UPPERCASE, 1)
        seg = count_segmented(small_db, eps, 26, n_segments=64)
        assert seg.spanning_total == 0

    def test_carry_mode_for_subsequence_is_exact(self):
        rng = np.random.default_rng(11)
        db = rng.integers(0, 5, 400).astype(np.uint8)
        # carry mode additionally supports mixed-length batches
        eps = [Episode((0, 1)), Episode((2, 3, 4))]
        exact = count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        seg = count_segmented(
            db, eps, 5, n_segments=7, policy=MatchPolicy.SUBSEQUENCE
        )
        assert np.array_equal(seg.totals, exact)

    def test_carry_mode_for_expiring_is_exact(self):
        rng = np.random.default_rng(13)
        db = rng.integers(0, 5, 400).astype(np.uint8)
        eps = [Episode((0, 1)), Episode((2, 3, 4))]
        exact = count_batch_reference(db, eps, 5, MatchPolicy.EXPIRING, 4)
        seg = count_segmented(
            db, eps, 5, n_segments=7, policy=MatchPolicy.EXPIRING, window=4
        )
        assert np.array_equal(seg.totals, exact)

    def test_empty_episode_list_rejected(self, small_db):
        with pytest.raises(ValidationError):
            count_segmented(small_db, [], 26, n_segments=4)

    def test_carry_mode_rejects_oversized_codes(self, small_db):
        with pytest.raises(ValidationError, match="alphabet"):
            count_segmented(
                small_db, [Episode((0, 30))], 26, n_segments=4,
                policy=MatchPolicy.SUBSEQUENCE,
            )


class TestTwoPassCarry:
    """The parallel-prefix state-summarization decomposition: pass-1
    segment summaries composed sequentially must equal the scalar FSM
    on the whole database — including occurrences straddling 3+
    segments and degenerate (zero-width) splits."""

    def test_occurrence_straddling_many_segments(self):
        """A single occurrence spread one symbol per segment."""
        alpha = Alphabet.of_size(6)
        db = alpha.encode("ADBECF")  # A..B..C spread across 6 segments of 1
        ep = Episode.from_symbols("ABC", alpha)
        for policy, window in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 2),
        ]:
            exact = count_batch_reference(db, [ep], 6, policy, window)
            seg = count_segmented(
                db, [ep], 6, n_segments=6, policy=policy, window=window
            )
            assert np.array_equal(seg.totals, exact), policy
            assert int(seg.totals[0]) == 1

    def test_more_segments_than_characters(self):
        db = np.array([0, 1, 2], dtype=np.uint8)
        ep = Episode((0, 1, 2))
        for policy, window in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 1),
        ]:
            seg = count_segmented(
                db, [ep], 3, n_segments=11, policy=policy, window=window
            )
            assert int(seg.totals[0]) == 1, policy

    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_subsequence_segmented_equals_whole(self, data, n, n_segments):
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = count_batch_reference(db, [ep], n, MatchPolicy.SUBSEQUENCE)
        seg = count_segmented(
            db, [ep], n, n_segments=n_segments, policy=MatchPolicy.SUBSEQUENCE
        )
        assert int(seg.totals[0]) == int(exact[0])

    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
        window=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_expiring_segmented_equals_whole(self, data, n, n_segments, window):
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = count_batch_reference(
            db, [ep], n, MatchPolicy.EXPIRING, window
        )
        seg = count_segmented(
            db, [ep], n, n_segments=n_segments, policy=MatchPolicy.EXPIRING,
            window=window,
        )
        assert int(seg.totals[0]) == int(exact[0])

    def test_subsequence_summary_tables_compose(self):
        """Direct pass-1/pass-2 API: summaries from segment slices
        composed by table lookup equal the whole-database count."""
        rng = np.random.default_rng(17)
        db = rng.integers(0, 4, 200).astype(np.uint8)
        matrix = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.uint8)
        bounds = segment_bounds(db.size, 9)
        summaries = [
            subsequence_segment_summary(db[lo:hi], matrix) for lo, hi in bounds
        ]
        seg_counts, exit_states = compose_subsequence(summaries, 2)
        from repro.mining.counting import count_matrix_reference

        ref = count_matrix_reference(db, matrix, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(seg_counts.sum(axis=0), ref)
        assert exit_states.shape == (2,)

    def test_expiring_summaries_compose(self):
        rng = np.random.default_rng(19)
        db = rng.integers(0, 4, 200).astype(np.uint8)
        matrix = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.uint8)
        bounds = segment_bounds(db.size, 9)
        summaries = [
            expiring_segment_summary(db[lo:hi], matrix, 3, lo)
            for lo, hi in bounds
        ]
        seg_counts = compose_expiring(db, matrix, 3, bounds, summaries)
        from repro.mining.counting import count_matrix_reference

        ref = count_matrix_reference(db, matrix, MatchPolicy.EXPIRING, 3)
        assert np.array_equal(seg_counts.sum(axis=0), ref)


class TestPropertyBased:
    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmented_equals_whole(self, data, n, n_segments):
        """The map + span-fix + reduce decomposition is exact for RESET —
        the correctness claim behind the paper's block-level kernels."""
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = int(count_batch(db, [ep], n)[0])
        seg = count_segmented(db, [ep], n, n_segments=n_segments)
        assert int(seg.totals[0]) == exact

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_unfixed_never_overcounts(self, data, n):
        """Dropping the span fix can only lose occurrences (Fig. 5a)."""
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        n_segments = data.draw(st.integers(1, 30))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = int(count_batch(db, [ep], n)[0])
        unfixed = count_segmented(
            db, [ep], n, n_segments=n_segments, fix_spanning=False
        )
        assert int(unfixed.totals[0]) <= exact


def _trie_case(data, n):
    """Random (db, trie) pair for trie-walk-vs-sweep parity checks.

    Covers the inputs the windowed fold and the summary shards see:
    empty segments (the db length may be 0), single-symbol episodes
    (L = 1), repeated symbols within an episode and duplicate matrix
    rows, which share one trie terminal but keep their own slots.
    """
    length = data.draw(st.integers(0, 200))
    seed = data.draw(st.integers(0, 10_000))
    db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
    ep_len = data.draw(st.integers(1, 4))
    eps = data.draw(
        st.lists(
            st.lists(
                st.integers(0, n - 1), min_size=ep_len, max_size=ep_len
            ).map(tuple),
            min_size=1, max_size=6,
        )
    )
    dups = data.draw(st.lists(st.sampled_from(eps), max_size=3))
    rows = data.draw(st.permutations(eps + dups))
    matrix = np.array(rows, dtype=np.uint8)
    return db, matrix, CandidateTrie.from_matrix(matrix)


class TestTrieWalkParity:
    """The trie walks that serve every position-hop summary and resume
    (landmark chunk advance, windowed fold, sharded summary shards) are
    bit-identical to the per-character sweeps — counts AND carried exit
    state, for any entry state."""

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_resume_matches_subsequence_sweep(self, data, n):
        db, matrix, trie = _trie_case(data, n)
        n_eps, length = matrix.shape
        entry = np.array(
            data.draw(st.lists(st.integers(0, length - 1),
                               min_size=n_eps, max_size=n_eps)),
            dtype=np.int64,
        )
        ref_counts, ref_exits = resume_subsequence_batch(db, matrix, entry)
        counts, exits = resume_positions_trie(
            db, trie, MatchPolicy.SUBSEQUENCE, None, entry
        )
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(exits, ref_exits)

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_subsequence_sweep(self, data, n):
        db, matrix, trie = _trie_case(data, n)
        ref = subsequence_segment_summary(db, matrix)
        got = subsequence_summary_trie(db, trie)
        np.testing.assert_array_equal(got.counts, ref.counts)
        np.testing.assert_array_equal(got.exits, ref.exits)

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_summary_matches_expiring_sweep(self, data, n):
        db, matrix, trie = _trie_case(data, n)
        window = data.draw(st.integers(1, 8))
        t0 = data.draw(st.integers(0, 1000))
        ref = expiring_segment_summary(db, matrix, window, t0)
        counts, exit_times = expiring_summary_trie(db, trie, window, t0)
        np.testing.assert_array_equal(counts, ref.counts)
        np.testing.assert_array_equal(exit_times, ref.exit_times)

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_subsequence_composes_across_a_split(self, data, n):
        """The windowed fold's two shapes chained over one cut: a trie
        resume of the front piece, then the trie summary of the rest
        advanced from its exits, equal the whole-database count."""
        db, matrix, trie = _trie_case(data, n)
        cut = data.draw(st.integers(0, db.size))
        zero = np.zeros(matrix.shape[0], dtype=np.int64)
        c1, exits = resume_positions_trie(
            db[:cut], trie, MatchPolicy.SUBSEQUENCE, None, zero
        )
        c2, _ = advance_subsequence(
            subsequence_summary_trie(db[cut:], trie), exits
        )
        whole, _ = resume_subsequence_batch(db, matrix, zero)
        np.testing.assert_array_equal(c1 + c2, whole)

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_expiring_composes_across_a_split(self, data, n):
        db, matrix, trie = _trie_case(data, n)
        window = data.draw(st.integers(1, 8))
        cut = data.draw(st.integers(0, db.size))
        empty = np.full((matrix.shape[0], matrix.shape[1] + 1), _NEG,
                        dtype=np.int64)
        c1, times = resume_positions_trie(
            db[:cut], trie, MatchPolicy.EXPIRING, window, empty
        )
        counts, exit_times = expiring_summary_trie(db[cut:], trie, window, cut)
        c2, _ = advance_expiring(
            db[cut:], matrix, window, times, cut,
            ExpiringSummary(counts=counts, exit_times=exit_times),
        )
        whole, _ = resume_expiring_batch(db, matrix, window, empty)
        np.testing.assert_array_equal(c1 + c2, whole)

    @pytest.mark.parametrize("db,rows", [
        ([], [[0, 1], [1, 0]]),  # empty segment
        ([0, 1, 0, 0, 1, 1], [[0], [1], [0]]),  # L = 1, duplicate row
        ([0, 0, 1, 0, 0, 0, 1], [[0, 0, 1], [0, 0, 1], [0, 0, 0]]),
    ])
    def test_edge_cases_match_the_sweeps(self, db, rows):
        db = np.array(db, dtype=np.uint8)
        matrix = np.array(rows, dtype=np.uint8)
        trie = CandidateTrie.from_matrix(matrix)
        ref = subsequence_segment_summary(db, matrix)
        got = subsequence_summary_trie(db, trie)
        np.testing.assert_array_equal(got.counts, ref.counts)
        np.testing.assert_array_equal(got.exits, ref.exits)
        ref_e = expiring_segment_summary(db, matrix, 2, 5)
        counts, exit_times = expiring_summary_trie(db, trie, 2, 5)
        np.testing.assert_array_equal(counts, ref_e.counts)
        np.testing.assert_array_equal(exit_times, ref_e.exit_times)
