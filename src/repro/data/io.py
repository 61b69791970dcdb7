"""Database persistence: symbol streams round-trip as text or npy."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, check_database
from repro.resilience.atomic import atomic_open, atomic_write_text


def save_database(
    path: "str | Path", db: np.ndarray, alphabet: Alphabet | None = None
) -> Path:
    """Save a database; ``.txt`` writes symbols, anything else ``.npy``.

    Writes are atomic (REP002): an interrupted save leaves any previous
    database file intact rather than a torn one.
    """
    path = Path(path)
    db = np.asarray(db)
    if db.ndim != 1 or db.dtype != np.uint8:
        raise ValidationError("database must be a 1-D uint8 array")
    if path.suffix == ".txt":
        if alphabet is None:
            raise ValidationError("saving .txt requires an alphabet")
        atomic_write_text(path, alphabet.decode(db))
    else:
        path = path.with_suffix(".npy")
        with atomic_open(path, "wb") as fh:
            np.save(fh, db)
    return path


def load_database(
    path: "str | Path", alphabet: Alphabet | None = None
) -> np.ndarray:
    """Load a database saved by :func:`save_database`.

    A ``.npy`` file may hold any integer dtype; its codes are checked
    against ``alphabet`` (or the uint8 range without one) before the
    array is narrowed to uint8, so no code wraps onto another symbol.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no database file at {path}")
    if path.suffix == ".txt":
        if alphabet is None:
            raise ValidationError("loading .txt requires an alphabet")
        return alphabet.encode(path.read_text().strip())
    size = alphabet.size if alphabet is not None else 256
    db = check_database(np.load(path), size)
    return db.astype(np.uint8, copy=False)
