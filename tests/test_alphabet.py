"""Tests for alphabets and symbol coding."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE


class TestConstruction:
    def test_uppercase_has_26(self):
        assert UPPERCASE.size == 26
        assert UPPERCASE.symbols[0] == "A"
        assert UPPERCASE.symbols[-1] == "Z"

    def test_from_string(self):
        a = Alphabet.from_string("xyz")
        assert a.size == 3

    def test_of_size(self):
        assert Alphabet.of_size(5).symbols == ("A", "B", "C", "D", "E")

    def test_of_size_beyond_uppercase(self):
        a = Alphabet.of_size(30)
        assert a.size == 30
        assert a.symbols[26] == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet.from_string("AAB")

    def test_oversized_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet.of_size(300)

    def test_of_size_zero_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet.of_size(0)


class TestCoding:
    def test_code_symbol_roundtrip(self):
        for i, s in enumerate(UPPERCASE.symbols):
            assert UPPERCASE.code(s) == i
            assert UPPERCASE.symbol(i) == s

    def test_unknown_symbol(self):
        with pytest.raises(ValidationError):
            UPPERCASE.code("a")

    def test_code_out_of_range(self):
        with pytest.raises(ValidationError):
            UPPERCASE.symbol(26)

    def test_encode_decode_roundtrip(self):
        text = "HELLOWORLD"
        codes = UPPERCASE.encode(text)
        assert codes.dtype == np.uint8
        assert UPPERCASE.decode(codes) == text


class TestDatabaseValidation:
    def test_valid(self):
        db = np.array([0, 25, 13], dtype=np.uint8)
        assert UPPERCASE.validate_database(db) is db

    def test_wrong_dtype(self):
        with pytest.raises(ValidationError, match="uint8"):
            UPPERCASE.validate_database(np.array([0, 1], dtype=np.int64))

    def test_wrong_ndim(self):
        with pytest.raises(ValidationError, match="1-D"):
            UPPERCASE.validate_database(np.zeros((2, 2), dtype=np.uint8))

    def test_out_of_alphabet_code(self):
        with pytest.raises(ValidationError, match="outside the alphabet"):
            UPPERCASE.validate_database(np.array([26], dtype=np.uint8))

    def test_empty_ok(self):
        db = np.array([], dtype=np.uint8)
        assert UPPERCASE.validate_database(db) is db
