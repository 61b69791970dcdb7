#!/usr/bin/env python
"""Observability tour: trace a mining run and read its report.

Runs the level-wise miner with a live :class:`repro.obs.Recorder`
attached, then walks the structured :class:`~repro.obs.report.RunReport`
it produced: the span tree (one ``mine`` root, one ``level`` span per
level), the structural counters (candidates, survivors, trie nodes),
and the phase table the ``repro report`` command renders.

The CLI equivalent::

    repro mine --events 100000 --threshold 0.004 --policy subsequence \\
        --engine auto --trace trace.json
    repro report trace.json

Run:  python examples/observability_tour.py
"""

import numpy as np

from repro.mining.alphabet import UPPERCASE
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy
from repro.obs.recorder import Recorder


def main() -> None:
    rng = np.random.default_rng(2009)
    db = rng.integers(0, UPPERCASE.size, 100_000).astype(np.uint8)
    print(f"database: {db.size:,} symbols over A-Z")

    recorder = Recorder()
    miner = FrequentEpisodeMiner(
        UPPERCASE,
        threshold=0.004,
        policy=MatchPolicy.SUBSEQUENCE,
        engine="auto",
        max_level=3,
        recorder=recorder,
    )
    result = miner.mine(db)
    print(f"frequent episodes: {len(result.all_frequent)}")

    report = miner.last_report
    assert report is not None and recorder.balanced

    print(f"\nrun report ({report.command}, wall {report.wall_s * 1e3:.1f} ms)")
    print("span tree:")
    for span in report.iter_spans():
        depth = 0 if span["name"] == "mine" else 1
        label = ", ".join(
            f"{k}={v}" for k, v in sorted(span["attrs"].items())
        )
        print(
            f"  {'  ' * depth}{span['name']:6s} "
            f"{span['duration_s'] * 1e3:8.2f} ms  {label}"
        )

    print("\nphases (nested spans count toward their parents):")
    for phase, calls, total_s, pct in report.phase_rows():
        print(f"  {phase:8s} x{calls}  {total_s * 1e3:8.2f} ms  {pct:5.1f}%")

    print("\ncounters:")
    for name, value in sorted(report.counters.items()):
        print(f"  {name:20s} {value:,}")

    # the report is a versioned artifact: write it atomically, read it
    # back through the schema-checked loader (what `repro report` does)
    path = report.write("observability_tour_trace.json")
    print(f"\nwrote {path} (inspect with `repro report {path}`)")


if __name__ == "__main__":
    main()
