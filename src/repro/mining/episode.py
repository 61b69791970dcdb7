"""Episodes: ordered item sequences (paper §3.1).

An episode ``A = <i1, i2, ..., iL>`` is an *ordered* sequence — the
paper stresses that temporal mining distinguishes
``{peanut butter, bread} -> {jelly}`` from
``{bread, peanut butter} -> {jelly}``.  Items within one episode are
distinct, consistent with Table 1's count N!/(N-L)! of length-L
episodes over an N-symbol alphabet.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet


class Episode:
    """An ordered sequence of distinct item codes.

    Immutable value object.  Uses ``__slots__`` with the hash
    precomputed at construction: trie insertion
    (:mod:`repro.mining.trie`) and the content-addressed count cache
    key episodes by hash in hot loops, so ``hash()`` must be a slot
    read, not a tuple re-hash per probe.
    """

    __slots__ = ("items", "_hash", "_array")

    items: tuple[int, ...]

    def __init__(self, items: "tuple[int, ...]") -> None:
        items = tuple(items)
        if not items:
            raise ValidationError("episode must contain at least one item")
        if len(set(items)) != len(items):
            raise ValidationError(
                f"episode items must be distinct (Table 1 semantics), got {items}"
            )
        if any(i < 0 for i in items):
            raise ValidationError(f"episode items must be non-negative: {items}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_array", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Episode is immutable; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Episode):
            return self.items == other.items
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash  # type: ignore[no-any-return]

    def __repr__(self) -> str:
        return f"Episode(items={self.items!r})"

    def __reduce__(self) -> "tuple[type[Episode], tuple[tuple[int, ...]]]":
        # reconstruct through __init__: the immutability guard blocks
        # the default slot-state restore, and re-validating is cheap
        return (Episode, (self.items,))

    @classmethod
    def from_symbols(cls, symbols: str, alphabet: Alphabet) -> "Episode":
        return cls(tuple(alphabet.code(s) for s in symbols))

    @property
    def length(self) -> int:
        """The episode's level L."""
        return len(self.items)

    @property
    def array(self) -> np.ndarray:
        """The items as a read-only uint8 row (the episode-matrix form).

        Raises :class:`~repro.errors.ValidationError` for item codes
        above 255, which that form cannot hold.
        """
        cached = self._array
        if cached is None:
            top = max(self.items)
            if top > 255:
                raise ValidationError(
                    f"episode code {top} does not fit the uint8 episode "
                    "matrix (codes must be < 256)"
                )
            cached = np.array(self.items, dtype=np.uint8)
            cached.setflags(write=False)
            object.__setattr__(self, "_array", cached)
        return cached

    def to_symbols(self, alphabet: Alphabet) -> str:
        return alphabet.decode(self.array)

    def prefix(self) -> "Episode":
        """The length L-1 prefix (used by A-priori candidate generation)."""
        if self.length == 1:
            raise ValidationError("a length-1 episode has no prefix episode")
        return Episode(self.items[:-1])

    def suffix(self) -> "Episode":
        """The length L-1 suffix."""
        if self.length == 1:
            raise ValidationError("a length-1 episode has no suffix episode")
        return Episode(self.items[1:])

    def subepisodes(self) -> list["Episode"]:
        """All length L-1 order-preserving sub-episodes."""
        if self.length == 1:
            return []
        out = []
        for drop in range(self.length):
            items = self.items[:drop] + self.items[drop + 1 :]
            out.append(Episode(items))
        return out

    def extend(self, item: int) -> "Episode":
        """Append a (distinct) item, producing a level L+1 candidate."""
        if item in self.items:
            raise ValidationError(
                f"cannot extend {self.items} with duplicate item {item}"
            )
        return Episode(self.items + (item,))

    def __str__(self) -> str:
        return "<" + ",".join(map(str, self.items)) + ">"


def episodes_to_matrix(episodes: list[Episode]) -> np.ndarray:
    """Stack same-length episodes into an (E, L) uint8 matrix.

    The vectorized counting kernels operate on this matrix form; item
    codes above 255 raise :class:`~repro.errors.ValidationError`.
    """
    if not episodes:
        raise ValidationError("need at least one episode")
    length = episodes[0].length
    for e in episodes:
        if e.length != length:
            raise ValidationError(
                f"episodes_to_matrix requires uniform length; got {e.length} != {length}"
            )
    return np.stack([e.array for e in episodes]).astype(np.uint8)
