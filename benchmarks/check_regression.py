"""Throughput-regression gate over the committed engine trajectory.

Compares a fresh engine benchmark against the committed
``benchmarks/BENCH_engines.json`` and fails (exit 1) when any
policy x engine x size cell lost more than ``--tolerance`` (default
30%) of its recorded throughput.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # quick fresh run
    PYTHONPATH=src python benchmarks/check_regression.py --full
    PYTHONPATH=src python benchmarks/check_regression.py --fresh FILE
    PYTHONPATH=src python benchmarks/check_regression.py --warn-only

Absolute throughput is hardware-dependent, so CI on different machines
should either maintain its own reference file or run with
``--warn-only`` (which is how the tier-1 ``bench_smoke`` test wires
this in: a non-blocking warning).  Relative invariants are checked
unconditionally: ``position-hop`` must still beat ``vector-sweep`` on
the SUBSEQUENCE/EXPIRING cells the rewrite targeted.

``gpu-sim`` cells are *simulated* kernel times from the deterministic
analytic model, so they are gated exactly (any drift means the timing
model or a kernel trace changed — regenerate the snapshot
deliberately).  Reference snapshots that predate the gpu-sim series
(schema 1) are tolerated: the series is reported but not gated.

The ``sharded_scaling`` series (schema 3) gates the run-scoped pool
lifecycle: inside ``with engine:`` exactly one pool may be spawned for
the whole call sequence, and the run-scoped per-call time must not
exceed the pool-per-call time.  Both invariants are machine-independent
(the first is a deterministic counter), so they are checked on the
fresh payload alone — snapshots that predate the series need nothing.

The ``streaming_throughput`` series (schema 5; hardened in schema 7)
gates the streaming subsystem's batch-equivalence contract: the
incremental state-carry run and the per-chunk prefix recount must
finish with identical frequent sets and counts (checksummed —
machine-independent, checked on the fresh payload alone, so snapshots
that predate the series need nothing), the incremental run must be at
least ``STREAMING_MIN_SPEEDUP`` (1.0x) as fast as the recount on every
policy (within-machine, fresh payload alone — a hard failure, since an
incremental carry that loses to naive recounting is a pessimization),
and each mode's events/sec is additionally compared against the
committed trajectory when the reference carries the series.

The ``trie_batch`` series (schema 9) gates shared-prefix trie
counting: position-hop's trie counts and vector-sweep's counts of the
same candidate grid must be bit-identical (checksummed —
machine-independent, checked on the fresh payload alone).

The ``telemetry_overhead`` series (schema 8) gates the run-telemetry
layer's cost: the same counting loop timed with no recorder, the
default ``NULL_RECORDER``, and a live ``Recorder`` must produce
identical counts (checksummed — machine-independent), and the overhead
ceilings (null <= 1%, recording <= 5%, with an absolute jitter floor)
are within-machine, so the whole check runs on the fresh payload alone
and pre-series snapshots need nothing.

The ``windowed_fold`` series (schema 10) is gated on exactness only:
each windowed stream must end on the batch result over its trailing
horizon.  Its timings are reported, not gated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.errors import ArtifactError
from repro.resilience.artifacts import read_json_artifact

REFERENCE = HERE / "BENCH_engines.json"
DEFAULT_TOLERANCE = 0.30
#: the rewrite's acceptance floor on its target cells (n=100k, E=500);
#: smaller (quick-run) databases amortize less setup, so they only need
#: to clear the relaxed floor
MIN_HOP_SPEEDUP = 5.0
MIN_HOP_SPEEDUP_SMALL = 2.0
FULL_SIZE_FLOOR = 100_000


def _key(row: dict) -> tuple:
    return (row["policy"], row["engine"], row["n"], row["episodes"])


def compare(
    reference: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE
) -> "list[str]":
    """Human-readable regression messages; empty means clean."""
    problems = []
    ref_rows = {_key(r): r for r in reference["results"]}
    for row in fresh["results"]:
        ref = ref_rows.get(_key(row))
        if ref is None:
            continue  # new cell: no reference to regress against
        if row.get("simulated"):
            continue  # gated exactly by check_gpu_sim, not by tolerance
        floor = ref["ops_per_sec"] * (1.0 - tolerance)
        if row["ops_per_sec"] < floor:
            problems.append(
                f"{row['policy']} x {row['engine']} @ n={row['n']:,}: "
                f"{row['ops_per_sec']:,.0f} ops/s < "
                f"{floor:,.0f} (reference {ref['ops_per_sec']:,.0f} "
                f"- {tolerance:.0%})"
            )
        if ref.get("checksum") is not None and row.get("checksum") is not None:
            if ref["checksum"] != row["checksum"]:
                problems.append(
                    f"{row['policy']} x {row['engine']} @ n={row['n']:,}: "
                    f"checksum {row['checksum']} != reference "
                    f"{ref['checksum']} (counting bug, not a perf issue)"
                )
    return problems


def check_invariants(payload: dict, min_speedup: float | None = None) -> "list[str]":
    """Machine-independent floors: position-hop vs the seed sweeps."""
    problems = []
    target_n = max(
        (r["n"] for r in payload["results"]), default=0
    )
    if min_speedup is None:
        min_speedup = (
            MIN_HOP_SPEEDUP if target_n >= FULL_SIZE_FLOOR
            else MIN_HOP_SPEEDUP_SMALL
        )
    for row in payload["results"]:
        if not (
            row["engine"] == "position-hop"
            and row["policy"] in ("subsequence", "expiring")
            and row["n"] == target_n
        ):
            continue
        speedup = row.get("speedup_vs_sweep")
        if speedup is None:
            # a payload without the sweep baseline cannot be gated; say
            # so rather than silently passing the floor
            problems.append(
                f"{row['policy']} position-hop @ n={row['n']:,}: no "
                "vector-sweep baseline in payload; speedup floor unchecked"
            )
        elif speedup < min_speedup:
            problems.append(
                f"{row['policy']} position-hop @ n={row['n']:,}: "
                f"{speedup:.1f}x vs vector-sweep (floor {min_speedup:.0f}x)"
            )
    return problems


def check_gpu_sim(reference: dict, fresh: dict) -> "list[str]":
    """Gate the simulated-vs-host crossover series.

    Simulated kernel time comes from the deterministic analytic model,
    so matching cells must agree (to rounding) — a drift is a deliberate
    timing-model change and the snapshot should be regenerated with it.
    Reference snapshots that predate the series carry no gpu-sim rows;
    those are tolerated (reported, never failed) so older baselines keep
    working across the schema bump.
    """
    fresh_rows = [r for r in fresh.get("results", ()) if r.get("simulated")]
    if not fresh_rows:
        return []
    ref_rows = {
        _key(r): r for r in reference.get("results", ()) if r.get("simulated")
    }
    if not ref_rows:
        print(
            "note: reference snapshot predates the gpu-sim series "
            "(schema "
            f"{reference.get('schema', '?')}); crossover reported, not gated"
        )
        return []
    problems = []
    for row in fresh_rows:
        ref = ref_rows.get(_key(row))
        if ref is None:
            continue
        if ref.get("checksum") != row.get("checksum"):
            problems.append(
                f"{row['policy']} x gpu-sim @ n={row['n']:,}: checksum "
                f"{row['checksum']} != reference {ref['checksum']} "
                "(simulated kernel counting bug)"
            )
        ref_s, fresh_s = ref.get("seconds"), row.get("seconds")
        if ref_s is None or fresh_s is None:
            continue
        # compare at snapshot precision (bench rounds to 6 dp), with an
        # absolute floor so sub-millisecond cells aren't failed (or the
        # gate silently skipped) by rounding alone
        drift = abs(round(fresh_s, 6) - ref_s)
        if drift > max(1e-3 * ref_s, 2e-6):
            problems.append(
                f"{row['policy']} x gpu-sim @ n={row['n']:,}: simulated "
                f"{fresh_s * 1e3:.3f} ms != reference {ref_s * 1e3:.3f} ms "
                "(timing model changed; regenerate the snapshot if intended)"
            )
    return problems


def check_sharded_scaling(fresh: dict) -> "list[str]":
    """Gate the run-scoped pool lifecycle (schema 3's series).

    Checked on the fresh payload only — the pool-spawn counter is
    deterministic and the per-call comparison is within-machine, so no
    reference cells are needed and pre-series snapshots pass untouched.
    Environments whose process pools cannot spawn (serial fallback on
    both modes) are reported, never failed.
    """
    rows = {r.get("mode"): r for r in fresh.get("sharded_scaling", ())}
    per_call, scoped = rows.get("per-call-pool"), rows.get("run-scoped")
    if per_call is None or scoped is None:
        return []
    problems = []
    # more than one pool inside a run scope is a lifecycle regression
    # wherever pools work at all; fewer can only mean spawn failure
    if scoped["pools_spawned"] > 1:
        problems.append(
            f"sharded_scaling run-scoped: {scoped['pools_spawned']} pools "
            f"spawned across {scoped['calls']} calls (lifecycle contract: "
            "at most 1 per run scope)"
        )
    if (per_call["pools_spawned"] != per_call["calls"]
            or scoped["pools_spawned"] != 1):
        # any shortfall is the environment refusing spawns (transient
        # EAGAIN, sandbox), which the engine answers with its serial
        # fallback — by design, so never failed; timing is meaningless
        print(
            "note: sharded_scaling spawned "
            f"{per_call['pools_spawned']}/{per_call['calls']} per-call and "
            f"{scoped['pools_spawned']}/1 run-scoped pools (spawn-limited "
            "environment); timing comparison not gated"
        )
        return problems
    # 10% slack: the run-scoped mode eliminates the spawn cost, so it
    # must never be meaningfully slower than spawning per call
    if scoped["seconds_per_call"] > per_call["seconds_per_call"] * 1.10:
        problems.append(
            "sharded_scaling: run-scoped "
            f"{scoped['seconds_per_call'] * 1e3:.2f} ms/call slower than "
            f"per-call pools {per_call['seconds_per_call'] * 1e3:.2f} ms/call "
            "(pool reuse regressed)"
        )
    return problems


#: the incremental carry must never lose to naively re-mining the whole
#: prefix after every chunk — on any policy (this was the schema-5
#: regression: SUBSEQUENCE 0.74x, EXPIRING 0.39x before the
#: position-hop chunk resume)
STREAMING_MIN_SPEEDUP = 1.0


def check_streaming(
    reference: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE
) -> "list[str]":
    """Gate the streaming subsystem (schema 5's series).

    Exactness first: within the fresh payload, the ``incremental``
    (state-carry) and ``recount`` (batch-over-prefix) modes replayed
    the same seeded feed, so any checksum or frequent-count divergence
    is a streaming counting bug — failed hard, on any machine.  The
    incremental mode must then beat the recount on **every** policy
    (``STREAMING_MIN_SPEEDUP``): both runs were timed moments apart in
    the same process, so the floor is within-machine and needs no
    reference cells — a hard failure, not a warning (losing to the
    naive recount means the whole subsystem is a pessimization).
    Throughput is finally compared per (policy, mode, total_events)
    cell against the reference; snapshots that predate the series (or
    used different feed sizes) carry no matching cells and pass
    untouched.
    """
    series = fresh.get("streaming_throughput") or {}
    rows = series.get("rows", ())
    if not rows:
        return []
    problems = []
    by_key = {(r["policy"], r["total_events"], r["mode"]): r for r in rows}
    for policy, total in sorted({(r["policy"], r["total_events"]) for r in rows}):
        inc = by_key.get((policy, total, "incremental"))
        rec = by_key.get((policy, total, "recount"))
        if inc is None or rec is None:
            continue
        if (inc["checksum"] != rec["checksum"]
                or inc["n_frequent"] != rec["n_frequent"]):
            problems.append(
                f"streaming_throughput {policy}: incremental checksum "
                f"{inc['checksum']} ({inc['n_frequent']} frequent) != "
                f"recount {rec['checksum']} ({rec['n_frequent']} frequent) "
                "— streaming state carry diverged from batch counting"
            )
            continue
        speedup = inc.get("speedup_vs_recount")
        if speedup is None:
            problems.append(
                f"streaming_throughput {policy}: incremental row carries "
                "no speedup_vs_recount; the incremental-vs-recount floor "
                "went unchecked"
            )
        elif speedup < STREAMING_MIN_SPEEDUP:
            problems.append(
                f"streaming_throughput {policy}: incremental "
                f"{speedup:.2f}x vs per-chunk recount (floor "
                f"{STREAMING_MIN_SPEEDUP:.1f}x — the state carry is a "
                "pessimization on this policy)"
            )
    ref_series = reference.get("streaming_throughput") or {}
    ref_rows = {
        (r["policy"], r["mode"], r["total_events"]): r
        for r in ref_series.get("rows", ())
    }
    if not ref_rows:
        print(
            "note: reference snapshot predates the streaming_throughput "
            f"series (schema {reference.get('schema', '?')}); streaming "
            "throughput reported, not gated"
        )
        return problems
    for row in rows:
        ref = ref_rows.get((row["policy"], row["mode"], row["total_events"]))
        if ref is None:
            continue
        floor = ref["events_per_sec"] * (1.0 - tolerance)
        if row["events_per_sec"] < floor:
            problems.append(
                f"streaming_throughput {row['policy']} {row['mode']}: "
                f"{row['events_per_sec']:,.0f} events/s < "
                f"{floor:,.0f} (reference {ref['events_per_sec']:,.0f} "
                f"- {tolerance:.0%})"
            )
    return problems


def check_trie_batch(fresh: dict) -> "list[str]":
    """Gate shared-prefix trie counting (the ``trie_batch`` series).

    Position-hop's trie walk and the vector sweep counted the same
    candidate grid on the same database, so any checksum divergence is
    a counting bug — failed hard, on any machine.  Payloads without the
    series (pre-series snapshots, engine subsets) pass untouched.
    """
    problems = []
    for row in fresh.get("trie_batch") or ():
        if (not row.get("counts_identical", True)
                or row.get("sweep_checksum") != row.get("trie_checksum")):
            problems.append(
                f"trie_batch {row['policy']} @ n={row['n']:,} "
                f"L={row['level']}: trie checksum {row.get('trie_checksum')} "
                f"!= vector-sweep checksum {row.get('sweep_checksum')} "
                "(trie counting bug, not a perf issue)"
            )
    return problems


#: ceilings on the repro.obs recorder's cost around the counting loop:
#: the default NullRecorder must be free in any practical sense, and a
#: live --trace Recorder must stay cheap
TELEMETRY_NULL_MAX_PCT = 1.0
TELEMETRY_RECORDING_MAX_PCT = 5.0
#: absolute noise floor: interleaved best-of timing still jitters by a
#: few milliseconds on a loaded host, so a percentage breach smaller
#: than this is noise, not recorder cost.  The recorder ops under test
#: cost microseconds per loop, so any *real* breach (a NullRecorder
#: that allocates, an enabled-path attr computation leaking into the
#: disabled path) lands far above both the ceiling and this floor.
TELEMETRY_ABS_SLACK_S = 5e-3


def check_telemetry(fresh: dict) -> "list[str]":
    """Gate recorder overhead (schema 8's ``telemetry_overhead`` series).

    Exactness first: all three recorder modes counted the same batch on
    the same database, so any checksum divergence means telemetry
    perturbed counting — failed hard, on any machine.  The overhead
    ceilings (NullRecorder <= ``TELEMETRY_NULL_MAX_PCT``%, live
    recording <= ``TELEMETRY_RECORDING_MAX_PCT``%) are within-machine —
    all three loops were timed moments apart in the same process — so
    they too are checked on the fresh payload alone, with an absolute
    slack floor against timer jitter; snapshots that predate the series
    pass untouched.
    """
    series = fresh.get("telemetry_overhead") or {}
    rows = {r.get("mode"): r for r in series.get("rows", ())}
    if rows.get("baseline") is None:
        return []
    problems = []
    if not series.get("counts_identical", True):
        problems.append(
            "telemetry_overhead: counts diverged across recorder modes "
            f"(checksums {series.get('checksum')}) — telemetry perturbed "
            "counting, not a perf issue"
        )
    for mode, ceiling in (
        ("null", TELEMETRY_NULL_MAX_PCT),
        ("recording", TELEMETRY_RECORDING_MAX_PCT),
    ):
        row = rows.get(mode)
        if row is None or row.get("overhead_pct") is None:
            problems.append(
                f"telemetry_overhead: no {mode} overhead row in payload; "
                "the recorder-cost ceiling went unchecked"
            )
            continue
        pct = row["overhead_pct"]
        overhead_s = row.get("overhead_s") or 0.0
        if pct > ceiling and overhead_s > TELEMETRY_ABS_SLACK_S:
            problems.append(
                f"telemetry_overhead {mode}: {pct:+.2f}% vs the "
                f"uninstrumented baseline ({overhead_s * 1e3:.2f} ms; "
                f"ceiling {ceiling:.0f}%) — the recorder got too "
                "expensive for the counting path"
            )
    return problems


def check_windowed_fold(fresh: dict) -> "list[str]":
    """Gate the ``windowed_fold`` series (schema 10) on exactness only.

    Each row's windowed stream must end on the result of batch-mining
    the trailing horizon; a divergence is a counting bug in the segment
    fold, failed on any machine.  The timings are advisory.  Payloads
    without the series pass untouched.
    """
    return [
        f"windowed_fold {row['policy']}: windowed result (checksum "
        f"{row.get('checksum')}) != batch over the trailing horizon "
        f"(checksum {row.get('batch_checksum')}) — a fold bug, not a "
        "perf issue"
        for row in fresh.get("windowed_fold") or ()
        if not row.get("counts_identical", True)
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument(
        "--fresh", type=Path, default=None,
        help="pre-computed fresh BENCH_engines.json (default: run the bench)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the full size sweep instead of the quick one",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (cross-machine CI)",
    )
    args = parser.parse_args(argv)

    try:
        # the schema-checked loader (see repro.resilience.artifacts)
        # turns a missing or truncated trajectory into one clear
        # message + exit 2 instead of a traceback
        reference = read_json_artifact(
            args.reference,
            expect_keys=("results",),
            regenerate_hint="generate it with benchmarks/bench_engines.py",
        )
        if args.fresh is not None:
            fresh = read_json_artifact(
                args.fresh,
                expect_keys=("results",),
                regenerate_hint="generate it with benchmarks/bench_engines.py",
            )
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fresh is None:
        import bench_engines

        fresh = bench_engines.run_bench(
            sizes=bench_engines.FULL_SIZES if args.full
            else bench_engines.QUICK_SIZES
        )

    problems = compare(reference, fresh, tolerance=args.tolerance)
    problems += check_invariants(fresh)
    problems += check_gpu_sim(reference, fresh)
    problems += check_sharded_scaling(fresh)
    problems += check_streaming(reference, fresh, tolerance=args.tolerance)
    problems += check_trie_batch(fresh)
    problems += check_telemetry(fresh)
    problems += check_windowed_fold(fresh)
    if not problems:
        print("engine throughput: no regression vs committed trajectory")
        return 0
    for p in problems:
        print(f"REGRESSION: {p}", file=sys.stderr)
    return 0 if args.warn_only else 1


if __name__ == "__main__":
    raise SystemExit(main())
