"""Item alphabets.

The paper's evaluation uses the 26 uppercase English letters (§5); the
neuroscience motivation maps neuron identifiers onto such symbols.  An
:class:`Alphabet` provides the bidirectional symbol <-> code mapping the
vectorized counting kernels need (databases are stored as ``uint8``
code arrays).

The module also holds the two input rules every entry point shares —
:func:`check_database` and :func:`check_episode_codes` — so a bad
database or episode code is rejected once, with one message, where it
enters (the "Validation boundary" section of ``CONTRACTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct single-token symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValidationError("alphabet must not be empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")
        if len(self.symbols) > 256:
            raise ValidationError(
                f"alphabet of {len(self.symbols)} symbols exceeds uint8 coding"
            )

    @classmethod
    def from_string(cls, s: str) -> "Alphabet":
        return cls(tuple(s))

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        """First ``n`` uppercase letters, then printable extensions."""
        if n < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {n}")
        base = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
        if n > len(base):
            raise ValidationError(f"alphabet size {n} exceeds {len(base)} symbols")
        return cls(tuple(base[:n]))

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def code(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(
                f"symbol {symbol!r} not in alphabet of size {self.size}"
            ) from None

    def symbol(self, code: int) -> str:
        if not 0 <= code < self.size:
            raise ValidationError(f"code {code} out of range for alphabet")
        return self.symbols[code]

    def encode(self, text: "str | list[str]") -> np.ndarray:
        """Encode a symbol sequence to a uint8 code array."""
        return np.fromiter(
            (self.code(ch) for ch in text), dtype=np.uint8, count=len(text)
        )

    def decode(self, codes: np.ndarray) -> str:
        """Decode a code array back to a symbol string."""
        return "".join(self.symbol(int(c)) for c in np.asarray(codes).ravel())

    def validate_database(self, db: np.ndarray) -> np.ndarray:
        """Check a database (or stream chunk) is uint8 codes within this
        alphabet: :func:`check_database` plus the stricter uint8 rule.
        An empty 1-D array of any dtype is an empty poll and comes back
        as an empty uint8 array."""
        db = np.asarray(db)
        if db.ndim == 1 and db.dtype != np.uint8:
            if db.size == 0:
                return db.astype(np.uint8)
            raise ValidationError(f"database must be uint8, got {db.dtype}")
        return check_database(db, self.size)


def _outside(codes: np.ndarray, alphabet_size: int) -> "int | None":
    """A code of ``codes`` outside ``[0, alphabet_size)``, or None.

    Unsigned arrays cannot hold a negative code, so they skip the
    ``min()`` pass.
    """
    if codes.size == 0:
        return None
    top = int(codes.max())
    if top >= alphabet_size:
        return top
    if codes.dtype.kind == "i":
        low = int(codes.min())
        if low < 0:
            return low
    return None


def check_database(db: np.ndarray, alphabet_size: int) -> np.ndarray:
    """The database rule, checked once where a database enters.

    A database is a 1-D integer array with every code in
    ``[0, alphabet_size)``.  The positional base-N encodings of the
    counting paths (the paper's 1-byte symbol database, §5) would alias
    any code outside that range onto a valid gram, so it is an error,
    never wrapped or clipped.  The array is returned as given, never
    narrowed, so host alphabets wider than uint8 keep working.
    """
    if alphabet_size < 1:
        raise ValidationError(f"alphabet_size must be >= 1, got {alphabet_size}")
    db = np.asarray(db)
    if db.ndim != 1:
        raise ValidationError(f"database must be 1-D, got shape {db.shape}")
    if not np.issubdtype(db.dtype, np.integer):
        raise ValidationError(
            f"database must be integer-coded, got dtype {db.dtype}"
        )
    bad = _outside(db, alphabet_size)
    if bad is not None:
        raise ValidationError(
            f"database code {bad} is outside the alphabet [0, {alphabet_size})"
        )
    return db


def check_episode_codes(codes: "np.ndarray | list[int]", alphabet_size: int) -> None:
    """The episode-code rule: every code of a batch (its ``(E, L)``
    matrix, or any array of its item codes) lies in
    ``[0, alphabet_size)``, for the same aliasing reason as
    :func:`check_database`."""
    codes = np.asarray(codes)
    if codes.size and not np.issubdtype(codes.dtype, np.integer):
        raise ValidationError(
            f"episode codes must be integer-coded, got dtype {codes.dtype}"
        )
    bad = _outside(codes, alphabet_size)
    if bad is not None:
        raise ValidationError(
            f"episode code {bad} is outside the alphabet [0, {alphabet_size})"
        )


#: The paper's alphabet: uppercase A-Z (§5).
UPPERCASE = Alphabet.from_string("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
