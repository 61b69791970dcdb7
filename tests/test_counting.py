"""Tests for vectorized counting against the scalar FSM oracle,
including hypothesis property tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.candidates import generate_level
from repro.mining.counting import (
    count_batch,
    count_batch_reference,
    count_episode,
    count_matrix_reference,
    count_reset_batch,
    encode_episodes,
    ngram_counts,
)
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy

# hypothesis strategy: a small database and alphabet
small_alphabet = st.integers(min_value=3, max_value=8)


def db_strategy(alphabet_size, max_len=400):
    return st.lists(
        st.integers(0, alphabet_size - 1), min_size=0, max_size=max_len
    ).map(lambda xs: np.array(xs, dtype=np.uint8))


def episode_strategy(alphabet_size, max_len=3):
    return st.lists(
        st.integers(0, alphabet_size - 1),
        min_size=1,
        max_size=max_len,
        unique=True,
    ).map(lambda xs: Episode(tuple(xs)))


class TestNgramCounts:
    def test_level1_is_histogram(self):
        db = np.array([0, 1, 1, 2, 2, 2], dtype=np.uint8)
        grams = ngram_counts(db, 1, 3)
        assert list(grams) == [1, 2, 3]

    def test_level2_pairs(self):
        db = UPPERCASE.encode("ABAB")
        grams = ngram_counts(db, 2, 26)
        ab = 0 * 26 + 1
        ba = 1 * 26 + 0
        assert grams[ab] == 2
        assert grams[ba] == 1

    def test_short_db(self):
        grams = ngram_counts(np.array([1], dtype=np.uint8), 2, 4)
        assert grams.sum() == 0

    def test_total_grams(self):
        db = np.zeros(100, dtype=np.uint8)
        assert ngram_counts(db, 3, 2).sum() == 98

    def test_overflow_guard(self):
        with pytest.raises(ValidationError, match="overflow"):
            ngram_counts(np.zeros(10, dtype=np.uint8), 50, 26)

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            ngram_counts(np.zeros(10, dtype=np.uint8), 0, 26)

    def test_2d_db_rejected(self):
        # ngram_counts trusts its database; the RESET entry point that
        # counts through it rejects the 2-D array first
        with pytest.raises(ValidationError, match="1-D"):
            count_batch(np.zeros((2, 5), dtype=np.uint8), [Episode((0,))], 26)


class TestResetBatchMemory:
    """RESET batches past ``_TABLE_PER_EVENT`` table entries per event
    look each gram up in the batch's episode codes instead of
    allocating the ``alphabet_size ** L`` table."""

    @pytest.mark.parametrize(
        "alphabet_size,length,n",
        [(4, 3, 400), (16, 4, 1024), (4, 6, 60), (256, 3, 1000), (26, 5, 700)],
    )
    def test_matches_oracle_on_both_sides_of_the_switch(
        self, alphabet_size, length, n
    ):
        rng = np.random.default_rng(alphabet_size * 31 + length)
        # a tiny alphabet inside a wide one, so long grams recur
        db = rng.integers(0, 3, n).astype(np.uint8)
        matrix = rng.integers(0, 3, (40, length))
        matrix[1] = matrix[0]  # duplicate rows
        matrix[2, :] = 1  # repeated symbols
        matrix[3] = db[:length]  # one gram that is certainly present
        matrix[4, 0] = alphabet_size - 1  # one gram that is not
        got = count_reset_batch(db, matrix, alphabet_size)
        ref = count_matrix_reference(db, matrix, MatchPolicy.RESET)
        assert np.array_equal(got, ref)
        assert got[3] >= 1

    def test_table_path_is_taken_only_while_small(self, monkeypatch):
        import repro.mining.counting as counting

        tables = []
        real = counting.ngram_counts
        monkeypatch.setattr(
            counting, "ngram_counts",
            lambda *a: tables.append(a[1]) or real(*a),
        )
        db = np.zeros(1024, dtype=np.uint8)
        matrix = np.zeros((2, 4), dtype=np.int64)
        count_reset_batch(db, matrix, 16)  # 16**4 = 64n: the table
        count_reset_batch(db, np.zeros((2, 5), dtype=np.int64), 16)
        assert tables == [4]

    def test_wide_alphabet_peak_stays_small(self):
        rng = np.random.default_rng(3)
        db = rng.integers(0, 256, 1000).astype(np.uint8)
        matrix = rng.integers(0, 256, (10, 3))
        tracemalloc.start()
        try:
            count_reset_batch(db, matrix, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the 256**3 table alone is 128 MiB

    def test_empty_and_short_inputs(self):
        db = np.array([1, 2], dtype=np.uint8)
        assert count_reset_batch(db, np.zeros((0, 3), np.int64), 200).size == 0
        assert list(count_reset_batch(db, np.ones((2, 3), np.int64), 200)) == [0, 0]


class TestEncodeEpisodes:
    def test_base_n(self):
        m = episodes_to_matrix([Episode((1, 2, 3))])
        assert encode_episodes(m, 10)[0] == 123


class TestBatchVsOracle:
    """Vectorized counting must equal the scalar FSM on every policy."""

    @pytest.mark.parametrize(
        "policy,window",
        [
            (MatchPolicy.RESET, None),
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 3),
        ],
    )
    def test_small_exhaustive(self, policy, window):
        alpha = Alphabet.of_size(4)
        rng = np.random.default_rng(7)
        db = rng.integers(0, 4, 300).astype(np.uint8)
        for level in (1, 2, 3):
            eps = generate_level(alpha, level)
            fast = count_batch(db, eps, 4, policy, window)
            slow = count_batch_reference(db, eps, 4, policy, window)
            assert np.array_equal(fast, slow), (policy, level)

    def test_paper_alphabet_level2(self, small_db):
        eps = generate_level(UPPERCASE, 2)[:50]
        fast = count_batch(small_db, eps, 26)
        slow = count_batch_reference(small_db, eps, 26)
        assert np.array_equal(fast, slow)

    def test_count_episode_scalar(self):
        db = UPPERCASE.encode("ABCABC")
        ep = Episode.from_symbols("ABC", UPPERCASE)
        assert count_episode(db, ep, 26) == 2
        assert count_episode(db, ep, 26, MatchPolicy.SUBSEQUENCE) == 2

    def test_hopping_counter_on_gappy_data(self):
        db = UPPERCASE.encode("AXBXAXB")
        ep = Episode.from_symbols("AB", UPPERCASE)
        assert count_episode(db, ep, 26, MatchPolicy.SUBSEQUENCE) == 2

    def test_empty_db(self):
        eps = [Episode((0, 1))]
        assert count_batch(np.array([], dtype=np.uint8), eps, 26)[0] == 0

    def test_matrix_input_accepted(self):
        db = UPPERCASE.encode("ABAB")
        matrix = episodes_to_matrix([Episode((0, 1))])
        assert count_batch(db, matrix, 26)[0] == 2

    def test_wide_alphabet_batch_not_narrowed(self):
        """The entry checks keep host alphabets wider than uint8: the
        int64 database and the codes above 255 are counted as given."""
        db = np.array([300, 7, 300, 7, 7], dtype=np.int64)
        eps = [Episode((300, 7))]
        got = count_batch(db, eps, 1000, MatchPolicy.SUBSEQUENCE,
                          engine="position-hop")
        assert got.tolist() == [2]

    def test_bad_matrix_rejected(self):
        db = UPPERCASE.encode("ABAB")
        with pytest.raises(ValidationError):
            count_batch(db, np.zeros((2, 2, 2), dtype=np.uint8), 26)


class TestPropertyBased:
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=60, deadline=None)
    def test_reset_matches_oracle(self, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        fast = int(count_batch(db, [ep], n)[0])
        slow = int(count_batch_reference(db, [ep], n)[0])
        assert fast == slow

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=60, deadline=None)
    def test_subsequence_matches_oracle(self, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        fast = int(count_batch(db, [ep], n, MatchPolicy.SUBSEQUENCE)[0])
        slow = int(count_batch_reference(db, [ep], n, MatchPolicy.SUBSEQUENCE)[0])
        assert fast == slow

    @given(data=st.data(), n=small_alphabet, window=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_expiring_matches_oracle(self, data, n, window):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        fast = int(count_batch(db, [ep], n, MatchPolicy.EXPIRING, window)[0])
        slow = int(
            count_batch_reference(db, [ep], n, MatchPolicy.EXPIRING, window)[0]
        )
        assert fast == slow

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_hopping_matches_vector_subsequence(self, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        hop = count_episode(db, ep, n, MatchPolicy.SUBSEQUENCE)
        vec = int(count_batch(db, [ep], n, MatchPolicy.SUBSEQUENCE)[0])
        assert hop == vec

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_policy_ordering_invariant(self, data, n):
        """RESET (contiguous) <= EXPIRING <= SUBSEQUENCE counts: loosening
        the temporal constraint can only find more occurrences."""
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        reset = int(count_batch(db, [ep], n)[0])
        expiring = int(count_batch(db, [ep], n, MatchPolicy.EXPIRING, 4)[0])
        subseq = int(count_batch(db, [ep], n, MatchPolicy.SUBSEQUENCE)[0])
        assert reset <= expiring <= subseq

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_concatenation_superadditive_for_reset(self, data, n):
        """count(a) + count(b) <= count(a+b): concatenation can only add
        boundary-spanning occurrences (never remove any, since RESET
        occurrences are local)."""
        a = data.draw(db_strategy(n, max_len=150))
        b = data.draw(db_strategy(n, max_len=150))
        ep = data.draw(episode_strategy(n))
        ca = int(count_batch(a, [ep], n)[0])
        cb = int(count_batch(b, [ep], n)[0])
        cab = int(count_batch(np.concatenate([a, b]), [ep], n)[0])
        assert cab >= ca + cb

    @given(n=small_alphabet, length=st.integers(0, 300), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_total_level1_counts_equal_db_length(self, n, length, seed):
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        eps = generate_level(Alphabet.of_size(n), 1)
        assert int(count_batch(db, eps, n).sum()) == length
