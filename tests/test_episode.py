"""Tests for the Episode type."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import UPPERCASE
from repro.mining.episode import Episode, episodes_to_matrix


class TestConstruction:
    def test_basic(self):
        e = Episode((0, 1, 2))
        assert e.length == 3
        assert e.items == (0, 1, 2)

    def test_from_symbols(self):
        e = Episode.from_symbols("ABC", UPPERCASE)
        assert e.items == (0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Episode(())

    def test_duplicate_items_rejected(self):
        """Table 1 counts arrangements of distinct items."""
        with pytest.raises(ValidationError, match="distinct"):
            Episode((1, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Episode((-1, 2))

    def test_order_matters(self):
        """{peanut butter, bread} -> jelly differs from the reversal (§3.1)."""
        assert Episode((0, 1)) != Episode((1, 0))

    def test_array_readonly(self):
        e = Episode((3, 4))
        with pytest.raises(ValueError):
            e.array[0] = 9

    def test_str(self):
        assert str(Episode((1, 2))) == "<1,2>"

    def test_to_symbols(self):
        assert Episode((7, 4, 11)).to_symbols(UPPERCASE) == "HEL"


class TestDerivedEpisodes:
    def test_prefix_suffix(self):
        e = Episode((5, 6, 7))
        assert e.prefix() == Episode((5, 6))
        assert e.suffix() == Episode((6, 7))

    def test_prefix_of_singleton_rejected(self):
        with pytest.raises(ValidationError):
            Episode((5,)).prefix()

    def test_subepisodes(self):
        subs = Episode((1, 2, 3)).subepisodes()
        assert set(s.items for s in subs) == {(2, 3), (1, 3), (1, 2)}

    def test_subepisodes_of_singleton_empty(self):
        assert Episode((1,)).subepisodes() == []

    def test_extend(self):
        assert Episode((1, 2)).extend(3) == Episode((1, 2, 3))

    def test_extend_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Episode((1, 2)).extend(1)


class TestMatrix:
    def test_stacks_uniform_length(self):
        eps = [Episode((0, 1)), Episode((2, 3)), Episode((4, 5))]
        m = episodes_to_matrix(eps)
        assert m.shape == (3, 2)
        assert m.dtype == np.uint8
        assert m[1, 0] == 2

    def test_mixed_length_rejected(self):
        with pytest.raises(ValidationError, match="uniform"):
            episodes_to_matrix([Episode((0, 1)), Episode((2,))])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            episodes_to_matrix([])

    def test_codes_beyond_uint8_rejected(self):
        """Regression: numpy's OverflowError leaked out of the uint8
        matrix form instead of a ValidationError."""
        with pytest.raises(ValidationError, match="episode code 300"):
            episodes_to_matrix([Episode((0, 1)), Episode((0, 300))])
