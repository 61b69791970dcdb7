"""Deterministic fault injection the engines and stores honor under test.

Real failure modes — a worker process dying mid-shard, a worker hanging,
a platform refusing to spawn pools, a checkpoint torn by a crash — are
timing accidents, which makes asserting *exact recovery* flaky by
construction.  A :class:`FaultPlan` turns each of them into a named,
seeded event: it says which shard *submission* (a deterministic
sequence number: shards are submitted in input order, and re-dispatch
after a respawn is ordered too) crashes, hangs, or raises, how many
upcoming pool-spawn attempts fail, and whether the next checkpoint
write is torn or corrupted.

The hooks are consulted only in the parent process, at well-defined
points:

* :meth:`FaultPlan.take_shard_fault` — by the sharded engine as it
  submits each shard; a drawn fault travels beside the submitted shard
  task (the task itself stays clean for any in-process recount), and
  the worker honors it (``os._exit`` for ``crash``, a sleep for
  ``hang``, ``RuntimeError`` for ``raise``).
* :meth:`FaultPlan.take_pool_spawn_failure` — by
  ``ShardedEngine._make_pool`` before a real spawn attempt.
* :meth:`FaultPlan.take_checkpoint_fault` — by the streaming
  checkpoint writer after a successful atomic write, to truncate
  (``"torn"``) or bit-flip (``"corrupt"``) the file on disk.

Each fault fires exactly once (plans are consumed), so a respawned pool
re-running the same logical shard does not crash again — matching the
real-world "transient failure" the supervisor is designed to survive.
With no plan installed every hook is a cheap ``None`` check.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "ShardFault",
    "FaultPlan",
    "install_plan",
    "clear_plan",
    "active_plan",
    "inject",
]

#: shard fault kinds a worker honors (see ``engines._run_shard``)
SHARD_FAULT_KINDS = ("crash", "hang", "raise")
#: checkpoint fault kinds the checkpoint writer honors
CHECKPOINT_FAULT_KINDS = ("torn", "corrupt")


@dataclass(frozen=True)
class ShardFault:
    """One injected shard failure: what happens to that submission."""

    kind: str  # "crash" | "hang" | "raise"
    #: how long a "hang" sleeps in the worker (parent deadlines are
    #: meant to expire well before this)
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in SHARD_FAULT_KINDS:
            raise ValueError(
                f"shard fault kind must be one of {SHARD_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )


@dataclass
class FaultPlan:
    """A consumable schedule of failures for one test scenario.

    ``shard_faults`` maps global shard *submission* sequence numbers
    (0-based, counted across every submit the plan observes) to the
    fault injected into that submission.  ``pool_spawn_failures`` fails
    that many upcoming pool-spawn attempts.  ``checkpoint_fault``
    damages the next checkpoint write (``"torn"`` truncates the file,
    ``"corrupt"`` flips one byte).  ``fired`` records what actually
    triggered, in order — tests assert against it.
    """

    shard_faults: "dict[int, ShardFault]" = field(default_factory=dict)
    pool_spawn_failures: int = 0
    checkpoint_fault: "str | None" = None
    #: submissions observed so far (the sequence-number clock)
    submissions: int = 0
    #: (kind, submission-or--1) tuples, in firing order
    fired: "list[tuple[int | str, ...]]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if (
            self.checkpoint_fault is not None
            and self.checkpoint_fault not in CHECKPOINT_FAULT_KINDS
        ):
            raise ValueError(
                f"checkpoint fault must be one of {CHECKPOINT_FAULT_KINDS}, "
                f"got {self.checkpoint_fault!r}"
            )

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_submissions: int,
        kind: str = "crash",
        hang_s: float = 5.0,
    ) -> "FaultPlan":
        """A plan hitting one seeded-random submission in ``[0, n)``."""
        if n_submissions < 1:
            raise ValueError("n_submissions must be >= 1")
        k = random.Random(seed).randrange(n_submissions)
        return cls(shard_faults={k: ShardFault(kind, hang_s=hang_s)})

    # -- consumption hooks --------------------------------------------

    def take_shard_fault(self) -> "ShardFault | None":
        """Draw the fault (if any) for the next shard submission."""
        seq = self.submissions
        self.submissions = seq + 1
        fault = self.shard_faults.pop(seq, None)
        if fault is not None:
            self.fired.append((fault.kind, seq))
        return fault

    def take_pool_spawn_failure(self) -> bool:
        """True if the upcoming pool-spawn attempt must fail."""
        if self.pool_spawn_failures > 0:
            self.pool_spawn_failures -= 1
            self.fired.append(("pool-spawn", -1))
            return True
        return False

    def take_checkpoint_fault(self) -> "str | None":
        """The damage (if any) to apply to the next checkpoint write."""
        fault, self.checkpoint_fault = self.checkpoint_fault, None
        if fault is not None:
            self.fired.append((f"checkpoint-{fault}", -1))
        return fault


_lock = threading.Lock()
_active: "FaultPlan | None" = None


def install_plan(plan: "FaultPlan | None") -> None:
    """Install ``plan`` as the process-wide active fault plan."""
    global _active
    with _lock:
        _active = plan


def clear_plan() -> None:
    """Remove any active fault plan."""
    install_plan(None)


def active_plan() -> "FaultPlan | None":
    """The installed plan, or ``None`` (the production state)."""
    return _active


@contextmanager
def inject(plan: FaultPlan) -> "Iterator[FaultPlan]":
    """Install ``plan`` for the duration of a ``with`` block."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()
