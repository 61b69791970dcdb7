"""Tests of the benchmark's own logic (run with pytest from the repo root).

They cover the rules the benchmark's numbers rest on: the percentile
sample-count rule, self-time subtraction in the span tree, a wrong or
missing result counting as a failed operation, the trace wrappers being
restored, and ``BENCHMARK.json`` naming exactly the metrics the code
reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import quantiles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule -------------------------------------------------------


def test_percentile_is_nearest_rank_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantiles.percentile(samples, 50) == 3.0
    assert quantiles.percentile(samples, 90) == 5.0
    assert quantiles.percentile(samples, 20) == 1.0
    with pytest.raises(ValueError):
        quantiles.percentile([], 50)


@pytest.mark.parametrize("n, q, ok", [
    (100, 90.0, True),     # 10 samples beyond p90
    (99, 90.0, False),     # 9
    (20, 50.0, True),
    (19, 50.0, False),
    (1000, 99.0, True),
    (1000, 99.9, False),
])
def test_tail_percentile_needs_ten_samples_beyond(n, q, ok):
    assert quantiles.supported(n, q) is ok


def test_highest_supported_percentile():
    assert quantiles.highest_supported(10_000) == 99.9
    assert quantiles.highest_supported(1000) == 99.0
    assert quantiles.highest_supported(120) == 90.0
    assert quantiles.highest_supported(25) == 50.0
    assert quantiles.highest_supported(5) is None


# -- self time -------------------------------------------------------------


def _span(name, duration, *children, **attrs):
    return {"name": name, "duration_s": duration, "attrs": attrs,
            "children": list(children)}


def test_self_time_subtracts_child_spans():
    tree = [_span("run", 10.0,
                  _span("candidates.generate", 6.0,
                        _span("trie.count", 2.0), _span("miner.eliminate", 1.0)),
                  _span("stream.advance", 3.0))]
    table = layers.self_times(tree)
    assert table["run"]["self_s"] == pytest.approx(1.0)
    assert table["candidates.generate"]["self_s"] == pytest.approx(3.0)
    assert table["trie.count"]["self_s"] == pytest.approx(2.0)
    assert table["stream.advance"]["self_s"] == pytest.approx(3.0)
    rows = layers.self_time_rows(tree)
    assert sum(r["self_share"] for r in rows) == pytest.approx(1.0)


def test_reentered_layer_counts_once():
    tree = [_span("run", 5.0,
                  _span("engine.count", 4.0, _span("engine.count", 3.0)))]
    row = layers.self_times(tree)["engine.count"]
    assert row["calls"] == 2
    assert row["total_s"] == pytest.approx(7.0)
    assert row["outer_s"] == pytest.approx(4.0)
    assert row["self_s"] == pytest.approx(4.0)


def test_unattributed_share_is_structural_self_time():
    tree = [_span("run", 10.0,
                  _span("mine", 9.0,
                        _span("level", 8.0,
                              _span("candidates.generate", 5.0,
                                    generated=12))))]
    metrics = layers.layer_metrics(tree, {}, None, pool_spawns=0,
                                   degradations=0, levels=1)
    # run 1 s + mine 1 s + level 3 s are not any layer's
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)
    assert metrics["candidates.generate_s"] == pytest.approx(5.0)
    assert metrics["candidates.generated"] == 12


# -- correctness gate ------------------------------------------------------


def _result(digest, **extra):
    return {"digest": digest, "degradations": [],
            "calibration": {"source": "none"}, **extra}


def test_digest_mismatch_and_errors_count_as_failed():
    ops = [run.Op("measure", result=_result("good")),
           run.Op("measure", result=_result("bad")),
           run.Op("measure", error="child exited 1")]
    reasons = run.judge(ops, "good")
    assert reasons[0] is None
    assert reasons[1].startswith("mismatch")
    assert reasons[2].startswith("error")
    assert run.fail_frac(reasons) == pytest.approx(2 / 3)
    assert run.wrong(reasons)


def test_degraded_run_fails_but_is_not_wrong():
    ops = [run.Op("measure", result=_result("good")),
           run.Op("measure", result=_result("good", degradations=["respawn"])),
           run.Op("measure", result=_result(
               "good", calibration={"source": "ambient"}))]
    reasons = run.judge(ops, "good")
    assert reasons[0] is None
    assert reasons[1].startswith("degraded")
    assert reasons[2].startswith("calibration")
    assert run.fail_frac(reasons) == pytest.approx(2 / 3)
    assert not run.wrong(reasons)


# -- trace wrappers --------------------------------------------------------


def _mine(recorder=None):
    from repro.mining.alphabet import Alphabet
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy

    db = np.random.default_rng(7).integers(0, 6, 5000).astype(np.uint8)
    miner = FrequentEpisodeMiner(Alphabet.of_size(6), 0.01,
                                 policy=MatchPolicy.SUBSEQUENCE,
                                 engine="position-hop", max_level=3,
                                 recorder=recorder)
    return workloads.result_digest(miner.mine(db))


def test_wrappers_record_layers_and_are_restored():
    from repro.mining import miner as miner_module
    from repro.obs import Recorder
    from repro.obs.report import RunReport

    original = miner_module.generate_next_level
    untraced = _mine()
    rec = Recorder()
    patches = layers.install(rec)
    try:
        assert miner_module.generate_next_level is not original
        traced = _mine(recorder=rec)
    finally:
        layers.restore(patches)
    layers.assert_restored(patches)
    assert miner_module.generate_next_level is original
    assert traced == untraced
    names = {row["span"] for row in layers.self_time_rows(
        RunReport.from_recorder(rec, command="test").spans)}
    assert {"mine", "level", "candidates.generate", "cache.lookup",
            "engine.count", "trie.count", "miner.eliminate"} <= names


def test_assert_restored_catches_a_leftover_wrapper():
    from repro.mining import miner as miner_module
    from repro.obs import Recorder

    patches = layers.install(Recorder())
    try:
        layers.restore(patches)
        miner_module.generate_next_level = lambda *a, **k: None
        with pytest.raises(RuntimeError, match="generate_next_level"):
            layers.assert_restored(patches)
    finally:
        layers.restore(patches)
    layers.assert_restored(patches)


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = set(layers.layer_metrics([], {}, None, 0, 0, 0))
    layer_names.add("trace.overhead_frac")
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]
