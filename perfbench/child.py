"""One benchmark operation, in a fresh interpreter.

Usage (by ``run.py``, never by hand)::

    python3 perfbench/child.py '{"workload": ..., "mode": ..., "input": ...}'

The child imports the program from the checkout's ``src/``, builds the
workload's miner and prints ``ready`` — the parent times set-up from
spawn to that line.  Modes:

* ``setup``: stop there;
* ``measure``: load the input, mine it (one ``mine`` call, or one
  ``update`` per chunk), time it, and print one ``result`` JSON line;
* ``trace``: as ``measure``, with a :class:`repro.obs.Recorder` on the
  miner and every layer wrapped (``layers.py``); the wrappers are
  restored, and checked restored, before the result is printed;
* ``reference``: compute the reference result by another path.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: "list[str]") -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import repro
    from repro.mining import calibration

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         "not from this checkout")
    # dispatch inputs are pinned: no ambient calibration profile, so
    # auto/sharded tiers take their built-in thresholds on every host
    calibration.set_active_profile(None)

    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    miner, engine = workloads.build_miner(wl)
    print("ready", flush=True)
    mode = spec["mode"]
    if mode == "setup":
        return 0
    events = np.load(spec["input"])
    if mode == "reference":
        result = workloads.reference_result(wl, events)
        _emit({"digest": workloads.result_digest(result),
               "shape": workloads.result_shape(result)})
        return 0

    chunks = (workloads.chunks_of(wl, events) if wl.kind == "stream"
              else [events])
    rec = patches = None
    if mode == "trace":
        import layers
        from repro.obs import Recorder

        rec = Recorder(max_spans=10_000_000)
        miner.recorder = rec
        patches = layers.install(rec)
    chunk_ms: "list[float]" = []
    degradations: "list[str]" = []
    try:
        with rec.span("run") if rec is not None else nullcontext():
            t0 = time.perf_counter()
            if wl.kind == "batch":
                result = miner.mine(events)
                degradations = [ev.kind for ev in miner.degradation_events]
            else:
                for chunk in chunks:
                    c0 = time.perf_counter()
                    update = miner.update(chunk)
                    chunk_ms.append((time.perf_counter() - c0) * 1e3)
                    degradations.extend(ev.kind for ev in update.events)
                result = miner.result()
            wall_s = time.perf_counter() - t0
    finally:
        if patches is not None:
            layers.restore(patches)
    if wl.kind == "batch":
        chunk_ms = [wall_s * 1e3]

    from repro.mining.miner import calibration_provenance

    out = {
        "wall_s": wall_s,
        "events": int(events.size),
        "chunk_ms": chunk_ms,
        "digest": workloads.result_digest(result),
        "shape": workloads.result_shape(result),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "degradations": degradations,
        "calibration": calibration_provenance(None),
        "nproc": workloads.nproc(),
        "workers": getattr(engine, "workers", 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if rec is not None:
        layers.assert_restored(patches)
        if rec.dropped_spans or not rec.balanced:
            raise RuntimeError(
                f"trace incomplete: {rec.dropped_spans} spans dropped, "
                f"balanced={rec.balanced}")
        from repro.obs.report import RunReport

        spans = RunReport.from_recorder(rec, command="perfbench").spans
        report = miner.last_report
        out["layers"] = layers.layer_metrics(
            spans, dict(rec.counters), report.cache,
            pool_spawns=getattr(engine, "pools_spawned", 0),
            degradations=len(degradations), levels=len(result.levels),
        )
        out["self_times"] = layers.self_time_rows(spans)
        out["counters"] = dict(rec.counters)
        out["calibration"] = report.calibration
    _emit(out)
    return 0


def _emit(payload: dict) -> None:
    print("result " + json.dumps(payload), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
