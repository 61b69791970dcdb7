"""Schema-checked JSON artifact IO: read loudly, write atomically.

The repo's JSON artifacts — the benchmark trajectory
(``benchmarks/BENCH_engines.json``), run reports, the lint baseline — share two failure modes: a *missing* file (never generated,
wrong path) and a *truncated or mangled* file (disk corruption; atomic
writes make an untimely ^C impossible, see
:mod:`repro.resilience.atomic`).  :func:`read_json_artifact` turns both
into :class:`~repro.errors.ArtifactError` with a message naming the
file and the regeneration hint, so every consumer fails the same way
instead of each growing its own traceback.  :func:`write_json_artifact`
is the matching atomic writer (REP002's fix hint points here).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import ArtifactError
from repro.resilience.atomic import atomic_write_text

__all__ = ["read_json_artifact", "write_json_artifact"]


def read_json_artifact(
    path: "str | Path",
    *,
    expect_keys: "Sequence[str]" = (),
    regenerate_hint: str = "",
) -> "dict[str, object]":
    """Load ``path`` as a JSON object, failing as :class:`ArtifactError`.

    Every failure mode — missing file, unreadable file, truncated or
    otherwise invalid JSON, a JSON value that is not an object, an
    object missing one of ``expect_keys`` — raises
    :class:`~repro.errors.ArtifactError` naming the file (and, when
    given, ``regenerate_hint`` telling the caller how to rebuild it).
    """
    path = Path(path)
    hint = f"; {regenerate_hint}" if regenerate_hint else ""
    if not path.exists():
        raise ArtifactError(f"artifact {path} not found{hint}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactError(
            f"artifact {path} is unreadable: {exc}{hint}"
        ) from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(
            f"artifact {path} is truncated or not valid JSON "
            f"({exc}){hint}"
        ) from exc
    if not isinstance(payload, dict):
        raise ArtifactError(
            f"artifact {path} holds a JSON "
            f"{type(payload).__name__}, expected an object{hint}"
        )
    missing = [key for key in expect_keys if key not in payload]
    if missing:
        raise ArtifactError(
            f"artifact {path} is missing required key(s) "
            f"{', '.join(missing)} (truncated or wrong file?){hint}"
        )
    return payload


def write_json_artifact(
    path: "str | Path", payload: "Mapping[str, object]", *, indent: int = 2
) -> Path:
    """Atomically write ``payload`` as JSON to ``path``.

    The REP002-sanctioned way to produce a ``.json`` artifact: the file
    appears whole or not at all, so :func:`read_json_artifact`'s
    truncation error is reachable only through genuine disk corruption.
    """
    return atomic_write_text(
        Path(path), json.dumps(dict(payload), indent=indent) + "\n"
    )
