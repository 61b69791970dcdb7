"""Supervised shard execution: tracked futures, deadlines, degradation.

:class:`ShardSupervisor` runs one job's shards on a process pool with
explicit failure semantics, instead of the fire-and-forget ``map`` that
forces a whole-call in-process recompute the moment anything breaks:

* every shard is submitted as its own tracked future, optionally with a
  per-shard deadline;
* a broken pool (a worker *died* — ``BrokenProcessPool``) triggers one
  respawn, after a seeded exponential backoff, and **only unfinished
  shards are re-dispatched** — completed shard results are kept;
* shards still pending past their deadline are *reclaimed*: recounted
  in-process from the clean record, their eventual pool result ignored,
  and the poisoned pool abandoned without waiting on the hung worker;
* when the pool cannot be recovered (respawn budget exhausted, or the
  respawn itself fails), the remaining shards run in-process and a
  ``"degraded"`` event records the fall down the chain;
* shard *exceptions* are never retried — they are programming errors,
  not infrastructure failures, and propagate as themselves (the
  contract the sharded engine has honored since it narrowed its
  fallback to pool-death).

Every decision is recorded as a :class:`DegradationEvent` so callers
(the run scope of :class:`~repro.mining.engines.ShardedEngine`, and
through it the miners and the CLI) surface degradation structurally
instead of silently changing execution strategy.

The supervisor is deliberately ignorant of *what* a shard computes and
of fault injection; it talks to the pool owner through a small host
protocol (``submit`` / ``inline`` / ``respawn`` / ``abandon``) and only
reasons about futures, deadlines, and retries.  Exactness is the
host's invariant: ``inline(record)`` must compute exactly what the
pool would have, which every counting shard task satisfies.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import CancelledError, FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Protocol

__all__ = ["DegradationEvent", "BackoffPolicy", "ShardSupervisor", "PoolHost"]

#: event kinds, in roughly increasing severity
EVENT_KINDS = (
    "pool-respawn",     # pool died; respawned, unfinished shards re-dispatched
    "shard-reclaimed",  # shards past deadline recounted in-process
    "pool-spawn-failed",  # a spawn attempt failed (real or injected)
    "degraded",         # fell down the chain to in-process execution
)


@dataclass(frozen=True)
class DegradationEvent:
    """One structured record of a supervision decision.

    ``shards`` are the input indices affected (empty when the event is
    about the pool rather than specific shards); ``attempt`` counts
    recovery attempts within one job (0 for first-failure events).
    """

    kind: str
    detail: str
    shards: "tuple[int, ...]" = ()
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"event kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )


class BackoffPolicy:
    """Seeded exponential backoff for pool respawns.

    ``delay(attempt)`` grows as ``base_s * factor**attempt`` capped at
    ``max_s``, with a multiplicative jitter in ``[1, 1+jitter]`` drawn
    from a seeded PRNG — deterministic for a fixed seed, so tests can
    pin the whole recovery timeline (``base_s=0`` sleeps not at all).
    """

    def __init__(
        self,
        base_s: float = 0.05,
        factor: float = 2.0,
        max_s: float = 1.0,
        jitter: float = 0.25,
        seed: int = 2009,
    ) -> None:
        if base_s < 0 or max_s < 0 or factor < 1 or jitter < 0:
            raise ValueError(
                "backoff needs base_s >= 0, max_s >= 0, factor >= 1, "
                "jitter >= 0"
            )
        self.base_s = float(base_s)
        self.factor = float(factor)
        self.max_s = float(max_s)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The (jittered) delay before recovery ``attempt`` (0-based)."""
        raw = min(self.max_s, self.base_s * self.factor ** max(0, attempt))
        if raw <= 0:
            return 0.0
        return raw * (1.0 + self.jitter * self._rng.random())

    def sleep(self, attempt: int) -> float:
        """Sleep the delay for ``attempt``; returns the slept seconds."""
        d = self.delay(attempt)
        if d > 0:
            time.sleep(d)
        return d


class PoolHost(Protocol):
    """What the supervisor needs from the pool's owner."""

    def submit(self, record: object) -> "object": ...  # -> concurrent Future
    def inline(self, record: object) -> object: ...     # exact in-process compute
    def respawn(self, attempt: int) -> bool: ...  # replace a dead pool
    def abandon(self) -> None: ...              # drop a poisoned pool


class ShardSupervisor:
    """Run one job's shards under supervision (see module docs).

    ``map(records)`` returns one output per record, in input order —
    exactly what running every record in-process would return — no
    matter which failure path was taken to get there.
    """

    def __init__(
        self,
        host: PoolHost,
        deadline_s: "float | None" = None,
        events: "list[DegradationEvent] | None" = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.host = host
        self.deadline_s = deadline_s
        self.events = events if events is not None else []

    def _record(
        self, kind: str, detail: str, shards: "Iterable[int]" = (),
        attempt: int = 0,
    ) -> None:
        self.events.append(
            DegradationEvent(
                kind=kind, detail=detail,
                shards=tuple(sorted(shards)), attempt=attempt,
            )
        )

    def map(self, records: list) -> list:
        outputs: "list[object]" = [None] * len(records)
        unfinished = set(range(len(records)))
        pending: dict = {}    # future -> record index
        deadlines: dict = {}  # future -> absolute monotonic deadline
        attempt = 0
        poisoned = False  # a hang was reclaimed: the pool has a stuck worker

        def dispatch(indices: "Iterable[int]") -> None:
            for i in sorted(indices):
                fut = self.host.submit(records[i])
                pending[fut] = i
                if self.deadline_s is not None:
                    deadlines[fut] = time.monotonic() + self.deadline_s

        def reclaim_inline(
            indices: "Iterable[int]", kind: str, detail: str
        ) -> None:
            self._record(kind, detail, shards=indices, attempt=attempt)
            for i in sorted(indices):
                outputs[i] = self.host.inline(records[i])
                unfinished.discard(i)

        dispatch(unfinished)
        while pending:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            done, _ = wait(
                set(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            broken = False
            for fut in done:
                i = pending.pop(fut)
                deadlines.pop(fut, None)
                try:
                    outputs[i] = fut.result()
                    unfinished.discard(i)
                except (BrokenProcessPool, CancelledError):
                    broken = True
                except BaseException:
                    # a shard exception: cancel what we can and let it
                    # propagate as itself — never retried (see module docs)
                    for other in pending:
                        other.cancel()
                    raise
            if broken:
                # every future still pending rode the same dead pool
                stale = list(pending)
                for fut in stale:
                    pending.pop(fut)
                    deadlines.pop(fut, None)
                attempt += 1
                if self.host.respawn(attempt):
                    self._record(
                        "pool-respawn",
                        "worker death broke the pool; respawned and "
                        "re-dispatching unfinished shards",
                        shards=unfinished,
                        attempt=attempt,
                    )
                    dispatch(unfinished)
                else:
                    reclaim_inline(
                        set(unfinished),
                        "degraded",
                        "pool unrecoverable; remaining shards recounted "
                        "in-process",
                    )
                continue
            if deadlines:
                now = time.monotonic()
                overdue = {
                    pending[f]
                    for f, t in deadlines.items()
                    if t <= now and not f.done()
                }
                if overdue:
                    # the hung worker poisons its pool slot: recount the
                    # overdue shards in-process (their late results are
                    # ignored — we already dropped the futures); shards
                    # still live on healthy workers keep running, and
                    # the poisoned pool is abandoned — without waiting
                    # on the hang — once the job drains
                    poisoned = True
                    for fut in [f for f, i in pending.items() if i in overdue]:
                        pending.pop(fut)
                        deadlines.pop(fut, None)
                    reclaim_inline(
                        overdue,
                        "shard-reclaimed",
                        f"shards exceeded the {self.deadline_s:g}s "
                        "deadline; reclaimed and recounted in-process",
                    )
        if poisoned:
            self.host.abandon()
        return outputs
