"""Tests for candidate generation (paper Table 1 and Algorithm 1 line 8)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.candidates import (
    count_candidates,
    generate_level,
    generate_next_level,
    level_sizes_table,
)
from repro.mining.episode import Episode, episodes_to_matrix


class TestTable1:
    """The paper's §5 numbers: 26 / 650 / 15,600 episodes at L=1/2/3."""

    @pytest.mark.parametrize(
        "level,expected", [(1, 26), (2, 650), (3, 15_600), (4, 358_800)]
    )
    def test_paper_counts(self, level, expected):
        assert count_candidates(26, level) == expected

    def test_formula_n_factorial_over_n_minus_l(self):
        # N!/(N-L)! for N=10, L=4 = 10*9*8*7
        assert count_candidates(10, 4) == 5040

    def test_level_beyond_alphabet_is_zero(self):
        assert count_candidates(3, 4) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            count_candidates(0, 1)
        with pytest.raises(ValidationError):
            count_candidates(5, 0)

    def test_table_rows(self):
        rows = level_sizes_table(26, 3)
        assert rows == [(1, 26), (2, 650), (3, 15_600)]


class TestGenerateLevel:
    def test_matches_formula(self):
        for n, lvl in ((4, 1), (4, 2), (5, 3)):
            eps = generate_level(Alphabet.of_size(n), lvl)
            assert len(eps) == count_candidates(n, lvl)

    def test_all_distinct(self):
        eps = generate_level(Alphabet.of_size(5), 2)
        assert len(set(e.items for e in eps)) == len(eps)

    def test_deterministic_lexicographic_order(self):
        eps = generate_level(Alphabet.of_size(3), 2)
        assert [e.items for e in eps] == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        ]

    def test_level_over_alphabet_empty(self):
        assert generate_level(Alphabet.of_size(2), 3) == []

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            generate_level(UPPERCASE, 0)


class TestGenerateNextLevel:
    def test_empty_input(self):
        assert generate_next_level([], UPPERCASE) == []

    def test_full_frequent_set_yields_full_next_level(self):
        """If every level-L episode is frequent, generation covers the
        entire level-L+1 space (with pruning a no-op)."""
        alpha = Alphabet.of_size(4)
        freq = generate_level(alpha, 1)
        nxt = generate_next_level(freq, alpha)
        assert len(nxt) == count_candidates(4, 2)

    def test_subsequence_prune_checks_all_subepisodes(self):
        alpha = Alphabet.of_size(3)
        # frequent pairs: (0,1) and (1,2) but NOT (0,2)
        freq = [Episode((0, 1)), Episode((1, 2))]
        pruned = generate_next_level(freq, alpha, prune=True, contiguous=False)
        # (0,1,2) needs sub-episode (0,2) which is not frequent -> pruned
        assert Episode((0, 1, 2)) not in pruned
        unpruned = generate_next_level(freq, alpha, prune=False)
        assert Episode((0, 1, 2)) in unpruned

    def test_contiguous_prune_checks_only_prefix_and_suffix(self):
        """A contiguous ABC implies contiguous AB and BC but not AC, so
        RESET-mode pruning must keep (0,1,2) when (0,2) is infrequent."""
        alpha = Alphabet.of_size(3)
        freq = [Episode((0, 1)), Episode((1, 2))]
        pruned = generate_next_level(freq, alpha, prune=True, contiguous=True)
        assert Episode((0, 1, 2)) in pruned
        # but a candidate whose suffix is infrequent is still dropped
        assert Episode((1, 2, 0)) not in pruned  # suffix (2,0) infrequent

    def test_extension_never_duplicates_items(self):
        alpha = Alphabet.of_size(4)
        freq = generate_level(alpha, 2)
        for cand in generate_next_level(freq, alpha):
            assert len(set(cand.items)) == cand.length

    def test_mixed_length_input_rejected(self):
        with pytest.raises(ValidationError, match="uniform"):
            generate_next_level([Episode((0,)), Episode((1, 2))], UPPERCASE)


class TestPropertyBased:
    @given(n=st.integers(2, 8), lvl=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_generate_level_count_matches_formula(self, n, lvl):
        eps = generate_level(Alphabet.of_size(n), lvl)
        assert len(eps) == count_candidates(n, lvl)

    @given(n=st.integers(3, 7))
    @settings(max_examples=20, deadline=None)
    def test_pruned_generation_is_subset_of_unpruned(self, n):
        alpha = Alphabet.of_size(n)
        freq = generate_level(alpha, 2)[:: 2]  # arbitrary half of pairs
        for contiguous in (True, False):
            pruned = set(
                e.items
                for e in generate_next_level(
                    freq, alpha, prune=True, contiguous=contiguous
                )
            )
            unpruned = set(
                e.items for e in generate_next_level(freq, alpha, prune=False)
            )
            assert pruned <= unpruned

    @given(n=st.integers(3, 7))
    @settings(max_examples=20, deadline=None)
    def test_candidates_have_frequent_prefix(self, n):
        alpha = Alphabet.of_size(n)
        freq = generate_level(alpha, 2)[::3]
        freq_set = {e.items for e in freq}
        for cand in generate_next_level(freq, alpha, prune=False):
            assert cand.prefix().items in freq_set


def _reference_next_level(frequent, alphabet, prune, contiguous):
    """The per-candidate A-priori loop the array pass replaced."""
    frequent_set = {e.items for e in frequent}
    out = []
    for base_items in sorted(frequent_set):
        base = Episode(base_items)
        for item in range(alphabet.size):
            if item in base_items:
                continue
            cand = base.extend(item)
            if prune:
                subs = [cand.suffix()] if contiguous else cand.subepisodes()
                if not all(sub.items in frequent_set for sub in subs):
                    continue
            out.append(cand)
    return out


def _alphabet(size):
    # generation reads only ``alphabet.size``; Alphabet itself stops at
    # 255 symbols, so a stand-in reaches the full uint8 code range
    if size > 255:
        return SimpleNamespace(size=size)
    return Alphabet(tuple(chr(0x100 + i) for i in range(size)))


@st.composite
def _frequent_sets(draw):
    """(alphabet, frequent) with shuffled, duplicated rows.

    Besides random rows, the drop-one sub-rows of a few random
    level-L+1 targets are added (minus a few), so pruning both keeps
    and rejects candidates at every level.
    """
    size = draw(st.integers(1, 256))
    level = draw(st.integers(1, min(7, size)))

    def rows(length, max_size):
        return st.lists(
            st.lists(
                st.integers(0, size - 1), min_size=length, max_size=length,
                unique=True,
            ).map(tuple),
            max_size=max_size,
        )

    items = draw(rows(level, 20))
    if level < size:
        for target in draw(rows(level + 1, 6)):
            items += [target[:d] + target[d + 1:] for d in range(level + 1)]
    if items:
        dropped = draw(st.sets(st.sampled_from(items), max_size=3))
        items = [r for r in items if r not in dropped]
    if items:
        items += draw(st.lists(st.sampled_from(items), max_size=5))
    items = draw(st.permutations(items))
    return _alphabet(size), [Episode(r) for r in items]


def _assert_matches_reference(frequent, alphabet, prune, contiguous):
    trie = generate_next_level(
        frequent, alphabet, prune=prune, contiguous=contiguous
    )
    expected = _reference_next_level(frequent, alphabet, prune, contiguous)
    assert list(trie) == expected
    if expected:
        assert trie.level == expected[0].length
        assert trie.matrix.dtype == np.uint8
        assert np.array_equal(trie.matrix, episodes_to_matrix(list(trie)))
    return trie


class TestArrayPassMatchesLoop:
    """Differential test: the array pass against the per-candidate loop,
    episode order included."""

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("contiguous", [True, False])
    @given(case=_frequent_sets())
    @settings(max_examples=60, deadline=None)
    def test_same_episodes_in_same_order(self, case, prune, contiguous):
        alphabet, frequent = case
        _assert_matches_reference(frequent, alphabet, prune, contiguous)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_full_code_range_at_level_8(self, contiguous):
        """256**8 overflows int64: keys must be byte rows, not codes."""
        alphabet = _alphabet(256)
        rng = np.random.default_rng(8)
        high = np.arange(246, 256)
        targets = [
            tuple(int(c) for c in rng.choice(high, 9, replace=False))
            for _ in range(12)
        ] + [(255, 254, 0, 1, 128, 127, 200, 3, 4)]
        frequent = [
            Episode(t[:d] + t[d + 1:]) for t in targets for d in range(9)
        ]
        trie = _assert_matches_reference(frequent, alphabet, True, contiguous)
        assert trie.level == 9
        assert Episode((255, 254, 0, 1, 128, 127, 200, 3, 4)) in trie

    def test_code_above_255_rejected(self):
        with pytest.raises(ValidationError, match="256"):
            generate_next_level([Episode((3, 300))], _alphabet(62))
        with pytest.raises(ValidationError, match="256"):
            generate_next_level([Episode((3, 4))], _alphabet(257))
