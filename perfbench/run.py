"""End-to-end mining benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload mine-deep --seed 5 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

A run is a closed loop with one client: operations run one at a time,
each in a fresh interpreter (``child.py``) that imports the program,
builds the workload's miner, mines the seeded input once and reports.
The loop starts operations until ``--seconds`` have passed.  Inputs come
from ``--seed`` alone (``workloads.py``); every operation's result is
checked, outside the timed region, against a reference computed by
another path (``workloads.reference_result``) or a digest pinned for the
seed (``digests.json``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (``layers.py``), the tracing overhead, and writes the trace
artifact (self-time table and layer shares) to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every result was correct, 1 on any missing or mismatched result,
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import quantiles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch inputs and trace artifacts (inside the checkout, git-ignored)
WORK = ROOT / ".perfbench"

#: dedicated set-up samples per run, on top of one per operation
SETUP_PROBES = 5
#: a single operation that takes longer than this has hung
OP_TIMEOUT_S = 150.0

#: end-to-end metrics and their units (the ``--trace 0`` output).  The
#: p90 chunk latency is printed with its sample count but is not one of
#: them: it tracks how fast the host was during its slowest tenth, and
#: on a shared host that moved it by 30% between runs of one workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "chunk_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "shard.skew":
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    """A child interpreter crashed, hung, or printed no result."""


@dataclass
class Op:
    """One operation: its mode, set-up time, and result (or error)."""

    mode: str
    setup_s: float = 0.0
    result: "dict | None" = None
    error: "str | None" = None


def spawn(spec: dict, err_path: Path) -> Op:
    """Run one child to completion; set-up is timed to its ``ready``."""
    env = dict(os.environ)
    env.pop("REPRO_CALIBRATION", None)
    env["PYTHONHASHSEED"] = "0"
    op = Op(spec["mode"])
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
            text=True, start_new_session=True,
        )
        try:
            ready = proc.stdout.readline()
            op.setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, ready = "", ""
        finally:
            if proc.poll() is None:
                # the child's own pool workers share its session
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            err.seek(0)
            raise ChildFailed(
                f"{spec['mode']} child exited {proc.returncode}: "
                f"{err.read()[-2000:]}"
            )
    results = [ln for ln in out.splitlines() if ln.startswith("result ")]
    if spec["mode"] != "setup":
        if not results:
            raise ChildFailed(f"{spec['mode']} child printed no result")
        op.result = json.loads(results[-1][len("result "):])
    return op


def judge(ops: "list[Op]", reference: str) -> "list[str | None]":
    """Why each operation failed, or ``None`` for a good one.

    A crash or a result that differs from the reference is a failure.
    So is a run that measured a different program: one whose engine
    degraded (``DegradationEvent``) or that picked up a calibration
    profile.
    """
    reasons: "list[str | None]" = []
    for op in ops:
        res = op.result
        if op.error is not None or res is None:
            reasons.append(f"error: {op.error}")
        elif res["digest"] != reference:
            reasons.append(f"mismatch: {res['digest']} != {reference}")
        elif res["degradations"]:
            reasons.append(f"degraded: {res['degradations']}")
        elif res["calibration"].get("source") != "none":
            reasons.append(f"calibration profile used: {res['calibration']}")
        else:
            reasons.append(None)
    return reasons


def fail_frac(reasons: "list[str | None]") -> float:
    return sum(r is not None for r in reasons) / len(reasons)


def wrong(reasons: "list[str | None]") -> bool:
    """True when some result was missing or differed from the reference."""
    return any(r is not None and r.startswith(("error", "mismatch"))
               for r in reasons)


def pinned_digest(workload: str, seed: int) -> "str | None":
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def reference_digest(workload: str, seed: int, events, spec: dict,
                     err: Path) -> "tuple[str, str]":
    """``(digest, source)`` of the result every operation must match.

    A pinned digest first; else one recomputed by the reference path,
    kept under ``.perfbench/`` keyed by the input bytes (a cached digest
    always belongs to exactly these events), so a repeated seed does not
    pay the slower reference engine again.
    """
    pinned = pinned_digest(workload, seed)
    if pinned is not None:
        return pinned, "pinned"
    key = hashlib.sha256(events.tobytes()).hexdigest()[:32]
    cached = WORK / f"reference-{workload}-{key}.txt"
    if cached.is_file():
        return cached.read_text().strip(), "cached"
    digest = spawn({**spec, "mode": "reference"}, err).result["digest"]
    cached.write_text(digest + "\n")
    return digest, "recomputed"


def best_chunks(ops: "list[Op]") -> "list[float]":
    """Per chunk position, the lowest latency any operation measured.

    Every operation feeds the same chunks in the same order, so chunk
    ``i`` does the same work in each; its minimum over the run is the
    latency least disturbed by other tenants of a shared host, whose
    slow phases last from a fraction of an operation to whole runs.
    """
    return [min(col) for col in zip(*(op.result["chunk_ms"] for op in ops))]


def end_to_end(ops: "list[Op]", setups: "list[float]") -> "dict[str, float]":
    best = best_chunks(ops)
    wall = sum(best) / 1e3
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "events_per_s": ops[0].result["events"] / wall,
        "chunk_p50_ms": quantiles.percentile(best, 50.0),
        "peak_rss_mb": statistics.median(op.result["rss_mb"] for op in ops),
    }


def per_layer(traced: "list[Op]", plain: "list[Op]") -> "dict[str, float]":
    names = traced[0].result["layers"]
    metrics = {
        k: statistics.median(op.result["layers"][k] for op in traced)
        for k in names
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(op.result["wall_s"] for op in traced)
        / statistics.median(op.result["wall_s"] for op in plain) - 1.0
    )
    return metrics


#: time metrics whose share of the traced wall the artifact reports
SHARE_OF = (
    "candidates.generate_s", "trie.count_s", "trie.resume_s",
    "cache.lookup_s", "engine.count_s", "shard.dispatch_s",
    "shard.parent_s", "index.build_s", "counting.fingerprint_s",
    "counting.reset_s", "spanning.summary_s", "spanning.advance_s",
    "spanning.seam_s", "stream.advance_s", "stream.retrack_s",
    "stream.validate_s", "miner.eliminate_s",
)


def bench(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; print its report; return the result object."""
    import numpy as np

    wl = workloads.WORKLOADS[name]
    work = WORK / f"run-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    err = work / "child.err"
    try:
        events = workloads.make_events(wl, seed)
        spec = {"workload": name, "input": str(work / "events.npy")}
        np.save(spec["input"], events)
        spawn({**spec, "mode": "setup"}, err)  # warm-up: byte-compile, cache
        setups = [spawn({**spec, "mode": "setup"}, err).setup_s
                  for _ in range(SETUP_PROBES)]
        modes = ("measure", "trace") if traced else ("measure",)
        ops: "list[Op]" = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            for mode in modes:
                try:
                    ops.append(spawn({**spec, "mode": mode}, err))
                except ChildFailed as exc:
                    ops.append(Op(mode, error=str(exc)))
        loop_s = time.perf_counter() - start
        reference, source = reference_digest(name, seed, events, spec, err)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reasons = judge(ops, reference)
    good = [op for op, r in zip(ops, reasons) if r is None]
    setups += [op.setup_s for op in ops if op.error is None]
    print(f"workload {name} seed {seed}: {len(ops)} operations in "
          f"{loop_s:.1f} s (closed loop, 1 client, fresh interpreter each)")
    for op, reason in zip(ops, reasons):
        if reason is not None:
            print(f"  FAILED {op.mode}: {reason}")
    out = {"correct": not wrong(reasons), "attempted": len(ops),
           "failed": sum(r is not None for r in reasons), "metrics": {}}
    plain = [op for op in good if op.mode == "measure"]
    traced_ops = [op for op in good if op.mode == "trace"]
    if not plain or (traced and not traced_ops):
        out["correct"] = False
        return out
    first = plain[0].result
    print(f"  result: levels {first['shape']} digest {first['digest'][:16]} "
          f"= {source} reference")
    for mode, group in (("untraced", plain), ("traced", traced_ops)):
        if group:
            walls = " ".join(f"{op.result['wall_s']:.3f}" for op in group)
            print(f"  {mode} walls (s): {walls}")
    print(f"  dispatch: nproc={first['nproc']} workers={first['workers']} "
          f"python={first['python']} numpy={first['numpy']} "
          f"calibration={first['calibration'].get('source')} "
          f"fail_frac={fail_frac(reasons):.3f}")
    if traced:
        metrics = per_layer(traced_ops, plain)
        units = {k: layer_unit(k) for k in metrics}
        _write_artifact(wl, seed, traced_ops[0].result, metrics)
        wall = metrics["trace.wall_s"]
        for key in SHARE_OF:
            if metrics[key]:
                print(f"  share {key:<24} {metrics[key] / wall:7.1%}")
    else:
        metrics = end_to_end(plain, setups)
        units = END_TO_END
        chunks = [ms for op in plain for ms in op.result["chunk_ms"]]
        top = quantiles.highest_supported(len(chunks))
        print(f"  chunk latency: {len(chunks)} samples; p90 "
              f"{quantiles.percentile(chunks, 90.0):.6g} ms with "
              f"{quantiles.beyond(len(chunks), 90.0)} beyond it; highest "
              f"supported percentile: {'none' if top is None else f'p{top:g}'}")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")
    out["metrics"] = {k: {"value": v, "unit": units[k]}
                      for k, v in metrics.items()}
    return out


def _write_artifact(wl, seed: int, traced: dict, metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    artifact = {
        "workload": wl.name,
        "seed": seed,
        "params": wl.params,
        "metrics": metrics,
        "layer_shares": {k: metrics[k] / wall for k in SHARE_OF},
        "self_times": traced["self_times"],
        "counters": traced["counters"],
        "env": {k: traced[k] for k in ("nproc", "workers", "python", "numpy",
                                       "calibration")},
    }
    path = WORK / f"trace-{wl.name}-{seed}.json"
    path.write_text(json.dumps(artifact, indent=1) + "\n")
    print(f"  trace artifact: {path.relative_to(ROOT)}")


def pin(seeds: "list[int]") -> None:
    """Write the reference digests of the batch workloads for ``seeds``."""
    import numpy as np

    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work = WORK / f"pin-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for wl in workloads.WORKLOADS.values():
            if wl.kind != "batch":
                continue
            for seed in seeds:
                spec = {"workload": wl.name, "mode": "reference",
                        "input": str(work / "events.npy")}
                np.save(spec["input"], workloads.make_events(wl, seed))
                digest = spawn(spec, work / "child.err").result["digest"]
                table.setdefault(wl.name, {})[str(seed)] = digest
                print(f"{wl.name} seed {seed}: {digest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", metavar="FIRST-LAST", default=None,
                        help="write reference digests for a seed range")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin_digests is not None:
        first, _, last = args.pin_digests.partition("-")
        pin(list(range(int(first), int(last or first) + 1)))
        return 0
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        seed = (args.seed if args.seed is not None
                else workloads.WORKLOADS[name].default_seed)
        results[name] = bench(name, seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
