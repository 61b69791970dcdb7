"""Fault tolerance for long-running mining: supervision, faults, atomicity.

The paper's engines are exact but assume a healthy host: a worker death
used to silently recompute the whole counting call in-process, a killed
stream run lost all carried state, and an interrupted artifact write
could leave a torn JSON file behind.  This package gives the counting
engines and the streaming subsystem explicit *failure semantics*:

* :mod:`repro.resilience.supervisor` — supervised shard execution:
  every shard of a pooled counting call is a tracked future with an
  optional per-shard deadline; a broken pool is respawned once with
  seeded exponential backoff and only *unfinished* shards are
  re-dispatched; hung shards past their deadline are reclaimed and
  recounted in-process; repeated failure degrades down an explicit
  chain (sharded -> single-process inner engine) with a structured
  :class:`~repro.resilience.supervisor.DegradationEvent` recorded on
  the run scope.  :class:`~repro.mining.engines.ShardedEngine` runs
  every pooled job through this supervisor.
* :mod:`repro.resilience.faults` — deterministic fault injection: a
  seeded :class:`~repro.resilience.faults.FaultPlan` names exactly
  which shard submission crashes its worker, hangs, or raises, how many
  pool spawns fail, and whether a checkpoint write is torn or
  corrupted.  The engines and the streaming checkpoint writer honor the
  installed plan, which is what lets ``tests/test_resilience.py``
  assert *exact result equality* under every failure mode instead of
  hoping a real worker dies at the right moment.  No plan installed
  (production) means zero overhead and zero behaviour change.
* :mod:`repro.resilience.atomic` — write-temp + ``os.replace`` file
  updates, so an interrupted writer can never leave a torn
  ``BENCH_engines.json``, run report, or stream checkpoint:
  readers observe either the old complete file or the new complete
  file, never a prefix.
* :mod:`repro.resilience.artifacts` — schema-checked JSON artifact IO:
  :func:`~repro.resilience.artifacts.read_json_artifact` turns missing
  and truncated files into :class:`~repro.errors.ArtifactError` with a
  regeneration hint, and
  :func:`~repro.resilience.artifacts.write_json_artifact` is the
  matching atomic writer (the fix the REP002 lint rule points at; see
  ``CONTRACTS.md``).

Everything here is advisory-to-exactness: supervision and fault
recovery move *where* counting happens (pool, respawned pool, or
in-process), never what is counted — the same invariant engine
dispatch obeys.
"""

from repro.resilience.artifacts import read_json_artifact, write_json_artifact
from repro.resilience.atomic import atomic_open, atomic_write_bytes, atomic_write_text
from repro.resilience.faults import FaultPlan, ShardFault, active_plan, clear_plan, inject, install_plan
from repro.resilience.supervisor import BackoffPolicy, DegradationEvent, ShardSupervisor

__all__ = [
    "read_json_artifact",
    "write_json_artifact",
    "atomic_open",
    "atomic_write_bytes",
    "atomic_write_text",
    "FaultPlan",
    "ShardFault",
    "active_plan",
    "clear_plan",
    "inject",
    "install_plan",
    "BackoffPolicy",
    "DegradationEvent",
    "ShardSupervisor",
]
