"""Counting-engine perf trajectory: emits ``BENCH_engines.json``.

Measures counting throughput (episode-chars/sec, i.e. ``n * E /
seconds``) per policy x engine x database size — each engine's
``count_batch`` over a :class:`~repro.mining.trie.CandidateTrie`, the
path the miners take — so every future PR can be checked against the
committed trajectory (``benchmarks/BENCH_engines.json``) with
``benchmarks/check_regression.py``.

The ``gpu-sim`` engine is benchmarked on its *simulated* kernel time
(the analytic timing model — deterministic, so its cells double as a
timing-model change detector), and each policy x size point gets a
``gpu_sim_crossover`` summary row comparing the simulated card against
the measured host engines (vector-sweep and position-hop) — the
simulated-vs-host crossover the paper's Fig. 10 discussion motivates.

The ``sharded_scaling`` series (schema 3) times the same counting
sequence on a sharded engine with a pool per call (the legacy
behaviour) vs inside one ``with engine:`` run scope, recording the
deterministic pool-spawn counters — evidence that the run-scoped
lifecycle eliminates per-call pool spawn overhead
(``check_regression.check_sharded_scaling`` gates it).

The ``trie_batch`` series (schema 9) times ``position-hop`` counting
the full Table-1 level-3 candidate grid batched over the shared-prefix
:class:`~repro.mining.trie.CandidateTrie` (one hop per trie *edge*,
reusing the parent frontier for all children), and counts the same
trie once on ``vector-sweep``, an independent exact tier.  Counts must
be bit-identical (checksummed; ``check_regression.check_trie_batch``
gates the equality hard).

The ``streaming_throughput`` series (schema 5) replays one seeded
drifting event feed (:func:`repro.data.synthetic.stream_chunks`)
through the streaming subsystem twice per policy: ``incremental`` (the
:class:`~repro.streaming.StreamingMiner` landmark state carry) and
``recount`` (batch-mining the concatenated prefix after every chunk —
what serving this workload costs *without* the subsystem).  Both modes
must finish with identical frequent sets and counts (checksummed;
``check_regression.check_streaming`` gates the equality hard), and the
events/sec columns quantify the carry's win.

The ``windowed_fold`` series (schema 10) streams seeded SUBSEQUENCE
and EXPIRING feeds through the windowed
:class:`~repro.streaming.StreamingMiner` (alphabet 8, horizon 8,192,
1,024-event chunks, levels <= 3): the decremental fold over cached
per-segment trie summaries.  Each row checks its final result against
batch-mining the trailing horizon (``counts_identical``); its timings
are advisory and no gate reads them.  ``sharded_scaling`` rows record
the host's ``nproc`` beside the pinned ``workers``.

The ``telemetry_overhead`` series (schema 8) times the same auto-engine
counting loop with no recorder, the default
:data:`~repro.obs.recorder.NULL_RECORDER`, and a live
:class:`~repro.obs.recorder.Recorder` — evidence that the PR-10
observability layer is free when off and cheap when on
(``check_regression.check_telemetry`` gates null <= 1%, recording
<= 5%).

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py            # full run
    PYTHONPATH=src python benchmarks/bench_engines.py --quick    # smoke sizes
    PYTHONPATH=src python benchmarks/bench_engines.py --out FILE

The full run covers the acceptance point of the position-list rewrite:
n=100k, E=500 SUBSEQUENCE/EXPIRING batches, where ``position-hop`` must
hold a >= 5x speedup over the seed ``vector-sweep`` per-character
sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SCHEMA = 10  # 10: windowed_fold series; sharded_scaling rows record
# nproc (9: every series counts tries; trie_batch checks against
# vector-sweep; 8: telemetry_overhead series gates the repro.obs
# recorder cost; 7: streaming position-hop chunk resume; 6: trie_batch)
DEFAULT_OUT = Path(__file__).parent / "BENCH_engines.json"

#: engines timed on the policy-sensitive paths; "gpu-sim" rows use the
#: simulated kernel time rather than host wall time
ENGINES = ("vector-sweep", "position-hop", "sharded", "gpu-sim")
#: the card the gpu-sim series simulates
GPU_SIM_CARD = "GTX280"
#: (policy value, window) pairs benchmarked
POLICIES = (("subsequence", None), ("expiring", 6), ("reset", None))

FULL_SIZES = (10_000, 100_000)
QUICK_SIZES = (10_000,)
N_EPISODES = 500
LEVEL = 2
SEED = 20_090_525  # IPDPS 2009


def _time_call(fn, min_seconds: float = 0.2, max_repeats: int = 5) -> float:
    """Best-of timing: repeat until ``min_seconds`` accumulated."""
    best = float("inf")
    spent = 0.0
    for _ in range(max_repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        if spent >= min_seconds:
            break
    return best


def run_bench(
    sizes: "tuple[int, ...]" = FULL_SIZES,
    n_episodes: int = N_EPISODES,
    level: int = LEVEL,
    engines: "tuple[str, ...]" = ENGINES,
    seed: int = SEED,
    streaming: "dict | None" = None,
    trie_batch: "dict | None" = None,
    telemetry: "dict | None" = None,
    windowed_fold: "dict | None" = None,
) -> dict:
    """Measure every policy x engine x size cell; returns the JSON payload."""
    from repro.mining.alphabet import UPPERCASE
    from repro.mining.candidates import generate_level
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import get_engine
    from repro.mining.policies import MatchPolicy
    from repro.mining.trie import CandidateTrie

    rng = np.random.default_rng(seed)
    episodes = generate_level(UPPERCASE, level)[:n_episodes]
    trie = CandidateTrie.from_episodes(episodes)
    results = []
    crossover = []
    for n in sizes:
        db = rng.integers(0, UPPERCASE.size, n).astype(np.uint8)
        for policy_value, window in POLICIES:
            policy = MatchPolicy(policy_value)
            host_seconds: dict[str, float] = {}
            # the sweep baseline must be timed before any speedup row,
            # whatever order the caller passed
            ordered = sorted(engines, key=lambda s: s != "vector-sweep")
            for name in ordered:
                if policy_value == "reset" and name == "position-hop":
                    # identical to vector-sweep under RESET (both take the
                    # n-gram path); sharded stays in: its database-axis
                    # split + boundary fix is RESET-only code worth gating
                    continue
                simulated = name == "gpu-sim"
                if name == "sharded":
                    # pin workers: the registry default is cpu_count, which
                    # is 1 on constrained hosts and would silently bench
                    # the inline path instead of the shard split
                    from repro.mining.engines import ShardedEngine

                    engine = ShardedEngine(workers=4, min_shard_work=0)
                elif simulated:
                    # fresh instance: a clean report list per cell, and no
                    # stale selection cache from other benchmark shapes
                    from repro.mining.engines import GpuSimEngine

                    engine = GpuSimEngine(device=GPU_SIM_CARD)
                else:
                    engine = get_engine(name)
                index = DatabaseIndex(db)

                def measure_cell(engine=engine, index=index):
                    # one run scope per cell — the intended usage
                    # (REP003): a no-op for the stateless tiers; for
                    # sharded, the pool is acquired once for the cell,
                    # not per timed call, and released even if a count
                    # raises
                    with engine:
                        counts = engine.count_batch(
                            db, trie, UPPERCASE.size, policy, window,
                            index=index,
                        )
                        if simulated:
                            # the metric is the *simulated* kernel time:
                            # the analytic model is deterministic, so this
                            # cell also pins the timing model against
                            # silent drift
                            return counts, engine.reports[-1].total_ms / 1e3
                        return counts, _time_call(
                            lambda: engine.count_batch(
                                db, trie, UPPERCASE.size, policy, window,
                                index=index,
                            )
                        )

                counts, seconds = measure_cell()
                if not simulated:
                    host_seconds[name] = seconds
                ops = n * len(episodes) / seconds
                sweep_seconds = host_seconds.get("vector-sweep")
                speedup = (
                    round(sweep_seconds / seconds, 2) if sweep_seconds else None
                )
                results.append(
                    {
                        "policy": policy_value,
                        "engine": name,
                        "n": n,
                        "episodes": len(episodes),
                        "level": level,
                        "window": window,
                        "seconds": round(seconds, 6),
                        "ops_per_sec": round(ops, 1),
                        "speedup_vs_sweep": speedup,
                        "checksum": int(counts.sum()),
                        **({"simulated": True, "card": GPU_SIM_CARD} if simulated else {}),
                    }
                )
                print(
                    f"{policy_value:12s} {name:13s} n={n:>7,} "
                    f"E={len(episodes)} {seconds * 1e3:9.2f} ms "
                    f"({ops:,.0f} episode-chars/s"
                    + (f", {speedup:.1f}x vs sweep)" if speedup else ")")
                )
                if simulated:
                    sim_ms = seconds * 1e3
                    row = {
                        "policy": policy_value,
                        "n": n,
                        "episodes": len(episodes),
                        "card": GPU_SIM_CARD,
                        "simulated_ms": round(sim_ms, 6),
                    }
                    for host, key in (
                        ("vector-sweep", "sim_speedup_vs_sweep"),
                        ("position-hop", "sim_speedup_vs_hop"),
                    ):
                        if host in host_seconds:
                            row[key] = round(host_seconds[host] * 1e3 / sim_ms, 2)
                    crossover.append(row)
    scaling = run_sharded_scaling() if "sharded" in engines else []
    stream_tp = run_streaming_throughput(**(streaming or {}))
    trie_rows = run_trie_batch(**(trie_batch or {}))
    telemetry_rows = run_telemetry_overhead(**(telemetry or {}))
    windowed_rows = run_windowed_fold(**(windowed_fold or {}))
    return {
        "schema": SCHEMA,
        "params": {
            "alphabet": 26,
            "level": level,
            "episodes": n_episodes,
            "sizes": list(sizes),
            "seed": seed,
            "metric": "ops_per_sec = database chars x episodes / seconds",
            "gpu_sim_card": GPU_SIM_CARD,
        },
        "results": results,
        "gpu_sim_crossover": crossover,
        "sharded_scaling": scaling,
        "streaming_throughput": stream_tp,
        "trie_batch": trie_rows,
        "telemetry_overhead": telemetry_rows,
        "windowed_fold": windowed_rows,
    }


#: sharded_scaling series parameters: a mid-size SUBSEQUENCE batch,
#: repeated enough times that per-call pool spawns dominate the legacy mode
SCALING_N = 20_000
SCALING_EPISODES = 200
SCALING_CALLS = 5
SCALING_WORKERS = 4


def run_sharded_scaling(
    n: int = SCALING_N,
    n_episodes: int = SCALING_EPISODES,
    calls: int = SCALING_CALLS,
    workers: int = SCALING_WORKERS,
    seed: int = SEED,
) -> "list[dict]":
    """Per-call pool-spawn overhead: legacy (pool per call) vs run scope.

    Runs the same ``calls``-long counting sequence twice on a sharded
    engine — once outside any run scope (the pre-lifecycle behaviour:
    spawn a pool, count, tear it down, every call) and once inside
    ``with engine:`` (one pool for the run).  ``pools_spawned`` is
    deterministic (calls vs 1) and gated exactly by
    ``check_regression.check_sharded_scaling``; the per-call seconds
    quantify the spawn overhead the run scope eliminates.
    """
    import time

    from repro.mining.alphabet import UPPERCASE
    from repro.mining.candidates import generate_level
    from repro.mining.engines import ShardedEngine
    from repro.mining.policies import MatchPolicy
    from repro.mining.trie import CandidateTrie

    rng = np.random.default_rng(seed)
    db = rng.integers(0, UPPERCASE.size, n).astype(np.uint8)
    trie = CandidateTrie.from_episodes(
        generate_level(UPPERCASE, LEVEL)[:n_episodes]
    )

    def timed_calls(engine) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            engine.count_batch(db, trie, UPPERCASE.size,
                               MatchPolicy.SUBSEQUENCE)
        return (time.perf_counter() - t0) / calls

    import os

    nproc = os.cpu_count()
    rows = []
    per_call_engine = ShardedEngine(workers=workers, min_shard_work=0)
    per_call_s = timed_calls(per_call_engine)
    rows.append(
        {
            "mode": "per-call-pool",
            "policy": "subsequence",
            "n": n,
            "episodes": n_episodes,
            "calls": calls,
            "workers": workers,
            "nproc": nproc,
            "seconds_per_call": round(per_call_s, 6),
            "pools_spawned": per_call_engine.pools_spawned,
        }
    )
    scoped_engine = ShardedEngine(workers=workers, min_shard_work=0)
    with scoped_engine:
        scoped_s = timed_calls(scoped_engine)
    rows.append(
        {
            "mode": "run-scoped",
            "policy": "subsequence",
            "n": n,
            "episodes": n_episodes,
            "calls": calls,
            "workers": workers,
            "nproc": nproc,
            "seconds_per_call": round(scoped_s, 6),
            "pools_spawned": scoped_engine.pools_spawned,
            "speedup_vs_per_call": round(per_call_s / scoped_s, 2),
        }
    )
    for row in rows:
        print(
            f"sharded_scaling {row['mode']:13s} n={row['n']:>7,} "
            f"E={row['episodes']} calls={row['calls']} "
            f"{row['seconds_per_call'] * 1e3:9.2f} ms/call "
            f"({row['pools_spawned']} pool spawns)"
        )
    return rows


#: trie_batch series parameters: the paper's full level-3 grid (N=26 ->
#: 15,600 candidates, Table 1) where prefix sharing collapses 46,800
#: per-episode hops to 16,276 trie edges; smoke runs shrink the alphabet
TRIE_BATCH_N = 30_000
TRIE_BATCH_ALPHABET = 26
TRIE_BATCH_LEVEL = 3
#: RESET is excluded: it takes the n-gram bincount kernel, which never
#: walks the trie
TRIE_BATCH_POLICIES = (("subsequence", None), ("expiring", 6))


def run_trie_batch(
    n: int = TRIE_BATCH_N,
    alphabet_size: int = TRIE_BATCH_ALPHABET,
    level: int = TRIE_BATCH_LEVEL,
    seed: int = SEED,
) -> "list[dict]":
    """Shared-prefix trie counting, checked against the vector sweep.

    Builds the full Table-1 level-``level`` candidate space as a
    :class:`~repro.mining.trie.CandidateTrie`, times ``position-hop``
    counting it, and counts the same trie once (untimed) on
    ``vector-sweep`` — an independent exact tier that shares no hop
    code.  Counts must be bit-identical;
    ``check_regression.check_trie_batch`` gates the checksum equality
    hard.
    """
    from repro.mining.alphabet import Alphabet
    from repro.mining.candidates import generate_level
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import get_engine
    from repro.mining.policies import MatchPolicy
    from repro.mining.trie import CandidateTrie

    alphabet = Alphabet.of_size(alphabet_size)
    rng = np.random.default_rng(seed)
    db = rng.integers(0, alphabet.size, n).astype(np.uint8)
    trie = CandidateTrie.from_episodes(generate_level(alphabet, level))
    hop = get_engine("position-hop")
    sweep = get_engine("vector-sweep")
    index = DatabaseIndex(db)
    rows = []
    for policy_value, window in TRIE_BATCH_POLICIES:
        policy = MatchPolicy(policy_value)
        with sweep:
            swept = sweep.count_batch(db, trie, alphabet.size, policy, window)
        with hop:
            batched = hop.count_batch(
                db, trie, alphabet.size, policy, window, index=index
            )
            trie_s = _time_call(
                lambda: hop.count_batch(
                    db, trie, alphabet.size, policy, window, index=index
                )
            )
        row = {
            "policy": policy_value,
            "engine": "position-hop",
            "n": n,
            "episodes": len(trie),
            "level": level,
            "alphabet": alphabet_size,
            "window": window,
            "trie_nodes": trie.n_nodes,
            "trie_edges": trie.n_edges,
            "trie_seconds": round(trie_s, 6),
            "sweep_checksum": int(swept.sum()),
            "trie_checksum": int(batched.sum()),
            "counts_identical": bool(np.array_equal(swept, batched)),
        }
        rows.append(row)
        print(
            f"trie_batch   {policy_value:12s} n={n:>7,} "
            f"E={len(trie)} L={level} trie {trie_s * 1e3:9.2f} ms "
            f"(identical to vector-sweep={row['counts_identical']})"
        )
    return rows


#: streaming_throughput series parameters: a small drifting alphabet so
#: mining reaches level 3 with real promotion/demotion dynamics, and
#: enough chunks that the recount mode's quadratic prefix work shows
STREAM_ALPHABET = 8
STREAM_CHUNKS = 8
STREAM_CHUNK_EVENTS = 4000
STREAM_THRESHOLD = 0.02
STREAM_MAX_LEVEL = 3
STREAM_DRIFT = 0.2
#: incremental/recount pairs continue past ``repeats`` until this much
#: was timed, so a fast policy (a small RESET feed runs in about 5 ms)
#: still gets enough pairs for a steady median ratio
STREAM_MIN_TIMED_S = 0.5


def run_streaming_throughput(
    n_chunks: int = STREAM_CHUNKS,
    chunk_events: int = STREAM_CHUNK_EVENTS,
    threshold: float = STREAM_THRESHOLD,
    max_level: int = STREAM_MAX_LEVEL,
    drift: float = STREAM_DRIFT,
    seed: int = SEED,
    repeats: int = 1,
) -> dict:
    """Incremental state-carry streaming vs per-chunk prefix recount.

    One seeded drifting feed per policy, consumed twice: through the
    streaming subsystem (``incremental``) and by batch-mining the
    concatenated prefix after every chunk (``recount`` — a stream
    served without the subsystem).  Both must land on identical
    frequent sets/counts; ``check_regression.check_streaming`` gates
    the checksums hard, requires incremental >= 1.0x recount on every
    policy (hard), and compares throughput against the committed
    trajectory.  The two modes are timed in ``repeats`` pairs (more
    while less than ``STREAM_MIN_TIMED_S`` was timed), each pair in
    the opposite order to the last (incremental then recount, recount
    then incremental, ...; the feed replays identically).  ``seconds``
    is each mode's best time, and ``speedup_vs_recount`` is the median
    of the per-pair ratios: a slow moment of the host then taxes one
    pair of the median, not whichever mode happened to be running, and
    a drift in host speed favours neither mode, which keeps the tier-1
    smoke's hard speedup floor off the noise floor.
    """
    import gc
    import statistics
    import time

    from repro.mining.alphabet import Alphabet
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy
    from repro.streaming import StreamingMiner, SyntheticStreamSource

    alphabet = Alphabet.of_size(STREAM_ALPHABET)
    rows = []
    if n_chunks < 1 or chunk_events < 1:
        return {"params": {}, "rows": rows}
    # the incremental-vs-recount ratio is a hard gate, and the fast
    # RESET runs are short enough that a single gen-2 GC pause landing
    # inside one timed section (but not the other) flips the verdict;
    # collect up front and keep the collector out of the timings
    gc_was_enabled = gc.isenabled()

    def timed(fn):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = fn()
            return time.perf_counter() - t0, out
        finally:
            if gc_was_enabled:
                gc.enable()

    for policy_value, window in POLICIES:
        policy = MatchPolicy(policy_value)
        source = SyntheticStreamSource(
            n_chunks, chunk_events, alphabet=alphabet, seed=seed, drift=drift
        )

        def incremental():
            miner = StreamingMiner(
                alphabet, threshold=threshold, policy=policy,
                window=window, engine="auto", max_level=max_level,
            )
            miner.consume(source)
            return miner

        def recount():
            parts: "list[np.ndarray]" = []
            batch = FrequentEpisodeMiner(
                alphabet, threshold=threshold, policy=policy,
                window=window, engine="auto", max_level=max_level,
            )
            for chunk in source.chunks():
                parts.append(chunk)
                result = batch.mine(np.concatenate(parts))
            return result

        inc_times: "list[float]" = []
        rec_times: "list[float]" = []
        pair = 0
        while pair < max(1, int(repeats)) or (
            sum(inc_times) + sum(rec_times) < STREAM_MIN_TIMED_S
        ):
            if pair % 2:
                seconds, rec_result = timed(recount)
                rec_times.append(seconds)
            seconds, miner = timed(incremental)
            inc_times.append(seconds)
            if not pair % 2:
                seconds, rec_result = timed(recount)
                rec_times.append(seconds)
            pair += 1
        inc_result = miner.result()
        inc_s, rec_s = min(inc_times), min(rec_times)

        total = miner.total_events
        for mode, seconds, result in (
            ("incremental", inc_s, inc_result),
            ("recount", rec_s, rec_result),
        ):
            frequent = result.all_frequent
            row = {
                "policy": policy_value,
                "mode": mode,
                "chunks": n_chunks,
                "chunk_events": chunk_events,
                "total_events": total,
                "alphabet": STREAM_ALPHABET,
                "threshold": threshold,
                "max_level": max_level,
                "drift": drift,
                "window": window,
                "seconds": round(seconds, 6),
                "events_per_sec": round(total / seconds, 1) if seconds else 0.0,
                "n_frequent": len(frequent),
                "checksum": int(sum(frequent.values())),
            }
            if mode == "incremental":
                row["speedup_vs_recount"] = (
                    round(statistics.median(
                        r / i for i, r in zip(inc_times, rec_times)
                    ), 2) if inc_s > 0 else None
                )
            rows.append(row)
            print(
                f"streaming    {policy_value:12s} {mode:11s} "
                f"{n_chunks} x {chunk_events:,} events "
                f"{seconds * 1e3:9.2f} ms ({row['events_per_sec']:,.0f} "
                f"events/s, {row['n_frequent']} frequent)"
            )
    return {
        "params": {
            "alphabet": STREAM_ALPHABET,
            "chunks": n_chunks,
            "chunk_events": chunk_events,
            "threshold": threshold,
            "max_level": max_level,
            "drift": drift,
            "seed": seed,
            "engine": "auto",
        },
        "rows": rows,
    }


#: windowed_fold series parameters: the decremental sliding-window fold
#: over SUBSEQUENCE/EXPIRING, a window of eight chunk segments slid
#: eight times
WINDOWED_ALPHABET = 8
WINDOWED_HORIZON = 8_192
WINDOWED_CHUNK_EVENTS = 1_024
WINDOWED_CHUNKS = 16
WINDOWED_MAX_LEVEL = 3
WINDOWED_POLICIES = (("subsequence", None), ("expiring", 6))


def run_windowed_fold(
    n_chunks: int = WINDOWED_CHUNKS,
    chunk_events: int = WINDOWED_CHUNK_EVENTS,
    horizon: int = WINDOWED_HORIZON,
    threshold: float = STREAM_THRESHOLD,
    max_level: int = WINDOWED_MAX_LEVEL,
    drift: float = STREAM_DRIFT,
    seed: int = SEED,
    repeats: int = 3,
) -> "list[dict]":
    """Windowed SUBSEQUENCE/EXPIRING streams through the segment fold.

    One seeded drifting feed per policy, consumed by a windowed
    :class:`~repro.streaming.StreamingMiner`: each chunk caches the
    trie summaries of its new segment and composes the window from
    them.  ``seconds`` is the best of ``repeats`` whole streams.  The
    final result is checked against batch-mining the trailing horizon
    (``checksum`` vs ``batch_checksum``); the timings are advisory
    (no gate reads them), the row exists to time this path.
    """
    import time

    from repro.mining.alphabet import Alphabet
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy
    from repro.streaming import StreamingMiner, SyntheticStreamSource

    alphabet = Alphabet.of_size(WINDOWED_ALPHABET)
    rows: "list[dict]" = []
    if n_chunks < 1:
        return rows
    for policy_value, window in WINDOWED_POLICIES:
        policy = MatchPolicy(policy_value)
        source = SyntheticStreamSource(
            n_chunks, chunk_events, alphabet=alphabet, seed=seed, drift=drift
        )
        best = float("inf")
        for _ in range(max(1, int(repeats))):
            miner = StreamingMiner(
                alphabet, threshold=threshold, policy=policy, window=window,
                engine="auto", mode="windowed", horizon=horizon,
                max_level=max_level,
            )
            t0 = time.perf_counter()
            miner.consume(source)
            best = min(best, time.perf_counter() - t0)
        trailing = np.concatenate(list(source.chunks()))[-horizon:]
        batch = FrequentEpisodeMiner(
            alphabet, threshold=threshold, policy=policy, window=window,
            engine="auto", max_level=max_level,
        ).mine(trailing)
        frequent = miner.result().all_frequent
        row = {
            "policy": policy_value,
            "window": window,
            "alphabet": WINDOWED_ALPHABET,
            "horizon": horizon,
            "chunks": n_chunks,
            "chunk_events": chunk_events,
            "max_level": max_level,
            "threshold": threshold,
            "seconds": round(best, 6),
            "chunk_ms": round(best * 1e3 / n_chunks, 3),
            "n_frequent": len(frequent),
            "checksum": int(sum(frequent.values())),
            "batch_checksum": int(sum(batch.all_frequent.values())),
            "counts_identical": frequent == batch.all_frequent,
        }
        rows.append(row)
        print(
            f"windowed_fold {policy_value:12s} {n_chunks} x "
            f"{chunk_events:,} events, horizon {horizon:,}: "
            f"{row['chunk_ms']:8.2f} ms/chunk ({row['n_frequent']} "
            f"frequent, identical to batch={row['counts_identical']})"
        )
    return rows


#: telemetry_overhead series parameters: a SUBSEQUENCE batch on the
#: auto engine, repeated enough passes per timed call that the 1%
#: NullRecorder ceiling sits well above timer jitter
TELEMETRY_N = 40_000
TELEMETRY_EPISODES = 300
TELEMETRY_PASSES = 3
TELEMETRY_REPEATS = 5


def run_telemetry_overhead(
    n: int = TELEMETRY_N,
    n_episodes: int = TELEMETRY_EPISODES,
    passes: int = TELEMETRY_PASSES,
    repeats: int = TELEMETRY_REPEATS,
    seed: int = SEED,
) -> dict:
    """Cost of the :mod:`repro.obs` recorder around real counting.

    Times the same auto-engine counting loop three ways: ``baseline``
    (no recorder calls at all), ``null`` (the default
    :data:`~repro.obs.recorder.NULL_RECORDER` — what every
    un-traced run pays for the instrumentation), and ``recording`` (a
    live :class:`~repro.obs.recorder.Recorder`, i.e. ``--trace``).  The
    recorder ops per pass mirror what ``FrequentEpisodeMiner.mine``
    records per level — one span plus a handful of counter bumps and
    attrs — so the measured deltas bound the real per-run cost.  Counts
    must be identical across all three modes (telemetry must never
    perturb counting) and ``check_regression.check_telemetry`` gates
    the overhead columns hard: null <= 1%, recording <= 5%.  Each
    round runs the modes forward and then backward (baseline, null,
    recording, recording, null, baseline), so a drift in host speed
    within the round cancels; each overhead column is the median over
    rounds of the round's delta to the baseline, and ``seconds`` is
    each mode's best single time.
    """
    import gc
    import statistics

    from repro.mining.alphabet import UPPERCASE
    from repro.mining.candidates import generate_level
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import get_engine
    from repro.mining.policies import MatchPolicy
    from repro.mining.trie import CandidateTrie
    from repro.obs.recorder import NULL_RECORDER, Recorder

    rng = np.random.default_rng(seed)
    db = rng.integers(0, UPPERCASE.size, n).astype(np.uint8)
    episodes = generate_level(UPPERCASE, LEVEL)[:n_episodes]
    trie = CandidateTrie.from_episodes(episodes)
    index = DatabaseIndex(db)
    engine = get_engine("auto")
    policy = MatchPolicy.SUBSEQUENCE
    checksums: "set[int]" = set()

    def loop_plain():
        # run scope per timed call, uniformly across all three modes
        # (REP003; a no-op lease for the single-process tiers)
        with engine:
            for _ in range(passes):
                counts = engine.count_batch(
                    db, trie, UPPERCASE.size, policy, None, index=index
                )
        checksums.add(int(counts.sum()))

    def make_instrumented(rec):
        # same recording density as one mine() level per pass
        def loop():
            with engine:
                with rec.span("mine", events=n, threshold=0):
                    for level_i in range(passes):
                        with rec.span(
                            "level", level=level_i, candidates=len(episodes)
                        ) as sp:
                            counts = engine.count_batch(
                                db, trie, UPPERCASE.size, policy, None,
                                index=index,
                            )
                            frequent = int((counts >= 1).sum())
                            rec.count("mine.levels")
                            rec.count("mine.candidates", len(episodes))
                            rec.count("mine.frequent", frequent)
                            rec.count("cache.hits")
                            rec.count("cache.misses", len(episodes))
                            sp.attrs["frequent"] = frequent
            checksums.add(int(counts.sum()))

        return loop

    def recording():
        # fresh recorder per repeat: no span accumulation across calls
        make_instrumented(Recorder())()

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        loop_plain()  # untimed warm-up: caches, lazy imports, numpy
        # one-time setup — the baseline must not eat the cold-start
        # cost the instrumented loops then amortize
        # a fixed number of mirrored rounds: a frequency ramp inside a
        # round taxes every mode equally, and a background stall taxes
        # one round of the median instead of whichever mode happened
        # to run during it
        timed = (
            ("baseline", loop_plain),
            ("null", make_instrumented(NULL_RECORDER)),
            ("recording", recording),
        )
        best = {mode: float("inf") for mode, _ in timed}
        rounds: "list[dict[str, float]]" = []
        for _ in range(max(repeats, 1)):
            spent = {mode: 0.0 for mode, _ in timed}
            for mode, fn in timed + timed[::-1]:
                t0 = time.perf_counter()
                fn()
                seconds = time.perf_counter() - t0
                spent[mode] += seconds
                best[mode] = min(best[mode], seconds)
            rounds.append(spent)
    finally:
        if gc_was_enabled:
            gc.enable()

    rows: "list[dict]" = [
        {"mode": "baseline", "seconds": round(best["baseline"], 6)}
    ]
    for mode in ("null", "recording"):
        # each round ran every mode twice: halve to per-call seconds
        deltas = [(r[mode] - r["baseline"]) / 2 for r in rounds]
        rows.append({
            "mode": mode,
            "seconds": round(best[mode], 6),
            "overhead_s": round(statistics.median(deltas), 6),
            "overhead_pct": round(statistics.median(
                (r[mode] / r["baseline"] - 1.0) * 100.0 for r in rounds
            ), 2),
        })
    for row in rows:
        extra = (
            f" ({row['overhead_pct']:+.2f}% vs baseline)"
            if "overhead_pct" in row else ""
        )
        print(
            f"telemetry    {row['mode']:11s} n={n:>7,} E={n_episodes} "
            f"x{passes} passes {row['seconds'] * 1e3:9.2f} ms{extra}"
        )
    return {
        "params": {
            "engine": "auto",
            "policy": "subsequence",
            "n": n,
            "episodes": n_episodes,
            "passes": passes,
            "repeats": repeats,
            "seed": seed,
        },
        "rows": rows,
        "counts_identical": len(checksums) == 1,
        "checksum": (
            next(iter(checksums)) if len(checksums) == 1
            else sorted(checksums)
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes only (used by the bench-smoke tier-1 check)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(
        sizes=QUICK_SIZES if args.quick else FULL_SIZES,
        # quick mode shrinks the streaming feed too (the scaled-down
        # rows never match full-run reference cells, so only the
        # machine-independent checksum equality is gated on them)
        streaming=(
            dict(n_chunks=6, chunk_events=2000, repeats=2)
            if args.quick else None
        ),
        # quick mode shrinks the trie grid the same way (N=12 -> 1,320
        # level-3 candidates); checksum equality is still gated on it
        trie_batch=(
            dict(n=10_000, alphabet_size=12) if args.quick else None
        ),
        # quick mode shrinks the telemetry workload; the overhead
        # ceilings are relative, so they gate at any size
        telemetry=(
            dict(n=20_000, n_episodes=200, repeats=3)
            if args.quick else None
        ),
        # quick mode times the windowed feed once instead of best-of-3
        windowed_fold=dict(repeats=1) if args.quick else None,
    )
    # atomic: an interrupted benchmark run must not tear the committed
    # trajectory file the conformance harness diffs against
    from repro.resilience.atomic import atomic_write_text

    atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
