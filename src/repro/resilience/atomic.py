"""Atomic file writes: temp file in the target directory + ``os.replace``.

A reader racing an interrupted writer must observe either the old
complete file or the new complete file — never a prefix of the new one.
``os.replace`` gives exactly that on every platform the repo targets,
provided the temp file lives on the same filesystem as the target
(hence: same directory).  Run reports and the benchmark
trajectory (through :mod:`repro.resilience.artifacts`) and the streaming
checkpoint writer (:mod:`repro.streaming.checkpoint`) all write through
here, which is what makes their corrupt-file warning/error paths
reachable only by genuine disk corruption, not by an untimely ^C.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def atomic_open(path: "str | Path", mode: str = "w") -> "Iterator":
    """Open a temp file that replaces ``path`` on a clean exit.

    The handle yielded is a regular (seekable) file object in ``mode``
    (``"w"`` text/UTF-8 or ``"wb"`` binary).  On normal exit the temp
    file is fsynced and atomically renamed over ``path``; on any
    exception it is unlinked and ``path`` is left untouched.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open supports 'w' and 'wb', got {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(
            fd, mode, encoding=None if mode == "wb" else "utf-8"
        ) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: "str | Path", text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    path = Path(path)
    with atomic_open(path, "w") as fh:
        fh.write(text)
    return path


def atomic_write_bytes(path: "str | Path", data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``."""
    path = Path(path)
    with atomic_open(path, "wb") as fh:
        fh.write(data)
    return path
