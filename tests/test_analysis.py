"""Tests for the contract linter (:mod:`repro.analysis`).

Three layers:

* rule precision — every REP rule fires on its seeded bad fixture
  under ``tests/fixtures/analysis/`` (exactly the expected findings)
  and stays silent on the matching good fixture;
* machinery — noqa suppression, the fingerprint baseline, the rule
  registry, file discovery;
* the gate itself — ``repro lint --format json`` over the real source
  tree must report zero unbaselined findings, i.e. the committed code
  honors its own contracts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    BASELINE_SCHEMA,
    DEFAULT_BASELINE,
    DEFAULT_REGISTRY,
    Rule,
    RuleRegistry,
    baseline_payload,
    iter_source_files,
    load_baseline,
    render_json,
    render_text,
)
from repro.cli import main as cli_main
from repro.errors import ArtifactError, ConfigError, ValidationError
from repro.resilience.artifacts import read_json_artifact, write_json_artifact

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

#: fixture file -> (module path it is linted under, expected rule ids)
#: Bad fixtures list every expected finding; good fixtures expect none.
#: The rel paths matter: REP003 skips test modules and REP006 only
#: patrols repro.mining/repro.streaming, so fixtures are linted as if
#: they lived at production paths.
FIXTURE_CASES = {
    "rep001_bad.py": ("src/repro/data/fixture_mod.py", ["REP001"] * 5),
    "rep001_good.py": ("src/repro/data/fixture_mod.py", []),
    "rep002_bad.py": ("src/repro/streaming/fixture_mod.py", ["REP002"] * 4),
    "rep002_good.py": ("src/repro/streaming/fixture_mod.py", []),
    "rep003_bad.py": ("src/repro/mining/fixture_mod.py", ["REP003"] * 3),
    "rep003_good.py": ("src/repro/mining/fixture_mod.py", []),
    "rep004_bad.py": ("src/repro/resilience/fixture_mod.py", ["REP004"]),
    "rep004_good.py": ("src/repro/resilience/fixture_mod.py", []),
    "rep005_bad.py": ("src/repro/resilience/fixture_mod.py", ["REP005"] * 3),
    "rep005_good.py": ("src/repro/resilience/fixture_mod.py", []),
    "rep006_bad.py": ("src/repro/streaming/fixture_mod.py", ["REP006"] * 5),
    "rep006_good.py": ("src/repro/streaming/fixture_mod.py", []),
}


def check(source: str, rel: str = "src/repro/mining/mod.py") -> list:
    return Analyzer().check_source(source, rel)


# ---------------------------------------------------------------------------
# Rule precision: seeded fixtures caught exactly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURE_CASES))
def test_fixture_caught_exactly(name):
    rel, expected = FIXTURE_CASES[name]
    source = (FIXTURES / name).read_text()
    findings = check(source, rel)
    assert [f.rule_id for f in findings] == expected, [
        f"{f.location()}: {f.rule_id}: {f.message}" for f in findings
    ]


def test_every_rule_has_a_fixture_pair():
    covered = {ids[0] for _, ids in FIXTURE_CASES.values() if ids}
    assert covered == set(DEFAULT_REGISTRY.ids())
    for rule_id in DEFAULT_REGISTRY.ids():
        n = rule_id[3:].lstrip("0")
        assert (FIXTURES / f"rep00{n}_bad.py").exists()
        assert (FIXTURES / f"rep00{n}_good.py").exists()


def test_rep001_exempts_the_rng_module():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert check(source, "src/repro/util/rng.py") == []
    assert [f.rule_id for f in check(source, "src/repro/util/other.py")] == [
        "REP001"
    ]


def test_rep002_artifact_extension_gates_open():
    flagged = 'fh = open("out.json", "w")\n'
    plain = 'fh = open("out.log", "w")\n'
    assert [f.rule_id for f in check(flagged)] == ["REP002"]
    assert check(plain) == []


def test_rep003_skips_test_modules():
    source = (FIXTURES / "rep003_bad.py").read_text()
    assert check(source, "tests/test_fixture_mod.py") == []


def test_rep003_with_scope_covers_nested_calls():
    source = (
        "from repro.mining.engines import get_engine\n"
        "def run(db, eps, a):\n"
        "    engine = get_engine('auto')\n"
        "    with engine:\n"
        "        first = engine.count(db, eps, a)\n"
        "    second = engine.count(db, eps, a)\n"
    )
    findings = check(source)
    assert [(f.rule_id, f.line) for f in findings] == [("REP003", 6)]


def test_rep006_only_patrols_counting_packages():
    source = "import time\nstart = time.perf_counter()\n"
    assert [f.rule_id for f in check(source, "src/repro/mining/x.py")] == [
        "REP006"
    ]
    # no module-level exemptions since PR 10: measurement code times
    # through the repro.obs.clock seam instead
    assert [
        f.rule_id for f in check(source, "src/repro/mining/calibration.py")
    ] == ["REP006"]
    assert check(source, "src/repro/resilience/backoff.py") == []


def test_rep006_clock_seam_is_sanctioned():
    source = (
        "from repro.obs import clock\n"
        "start = clock.now()\n"
        "stamp = clock.utc_stamp()\n"
    )
    assert check(source, "src/repro/mining/x.py") == []


def test_rep006_catches_bare_name_imports():
    source = (
        "from time import perf_counter as tick\n"
        "def f(db):\n"
        "    t0 = tick()\n"
        "    return len(db), tick() - t0\n"
    )
    findings = check(source, "src/repro/streaming/x.py")
    assert [f.rule_id for f in findings] == ["REP006"] * 3
    assert [f.line for f in findings] == [1, 3, 4]


# ---------------------------------------------------------------------------
# Suppression machinery
# ---------------------------------------------------------------------------

_RNG_LINE = "import numpy as np\nx = np.random.rand(3)"


def test_noqa_inline_suppresses():
    assert check(_RNG_LINE + "  # repro: noqa REP001 seeded upstream\n") == []


def test_noqa_bare_suppresses_all_rules():
    assert check(_RNG_LINE + "  # repro: noqa\n") == []


def test_noqa_wrong_rule_does_not_suppress():
    findings = check(_RNG_LINE + "  # repro: noqa REP004\n")
    assert [f.rule_id for f in findings] == ["REP001"]


def test_noqa_standalone_comment_above_suppresses():
    source = (
        "import numpy as np\n"
        "# repro: noqa REP001 fixture exercises the ambient path\n"
        "x = np.random.rand(3)\n"
    )
    assert check(source) == []


def test_noqa_on_nonadjacent_line_does_not_suppress():
    source = (
        "import numpy as np\n"
        "# repro: noqa REP001\n"
        "y = 1\n"
        "x = np.random.rand(3)\n"
    )
    assert [f.rule_id for f in check(source)] == ["REP001"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = check(_RNG_LINE + "\n")
    assert findings, "precondition: fixture source must produce findings"
    payload = baseline_payload(findings)
    assert payload["schema"] == BASELINE_SCHEMA
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    fingerprints = load_baseline(path)
    assert {f.fingerprint() for f in findings} == fingerprints


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        '{"schema": 99, "findings": []}',
        '{"schema": 1, "findings": "nope"}',
        '{"schema": 1, "findings": [{"rule": "REP001"}]}',
    ],
)
def test_baseline_malformed_raises(tmp_path, content):
    path = tmp_path / "baseline.json"
    path.write_text(content)
    with pytest.raises(ValidationError):
        load_baseline(path)


def test_baselined_findings_partition(tmp_path):
    src = tmp_path / "src" / "repro" / "data"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(_RNG_LINE + "\n")
    analyzer = Analyzer(root=tmp_path)
    report = analyzer.run([src])
    assert not report.ok and len(report.findings) == 1
    baseline = {f.fingerprint() for f in report.findings}
    report2 = Analyzer(root=tmp_path, baseline=baseline).run([src])
    assert report2.ok
    assert len(report2.baselined) == 1 and not report2.findings


def test_committed_baseline_is_empty():
    committed = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    assert committed == set(), (
        "lint-baseline.json must stay empty; use inline "
        "'# repro: noqa REPxxx <reason>' for intentional departures"
    )


# ---------------------------------------------------------------------------
# Registry / discovery / reporting
# ---------------------------------------------------------------------------


def test_registry_rejects_bad_and_duplicate_ids():
    registry = RuleRegistry()

    class Bad(Rule):
        id = "XYZ9"

    with pytest.raises(ConfigError):
        registry.register(Bad())

    class Ok(Rule):
        id = "REP101"

    registry.register(Ok())
    with pytest.raises(ConfigError):
        registry.register(Ok())
    with pytest.raises(ValidationError):
        registry.get("REP999")
    assert "REP101" in registry


def test_rule_selection_subset():
    source = (FIXTURES / "rep001_bad.py").read_text()
    only_002 = Analyzer(rules=["REP002"]).check_source(
        source, "src/repro/data/mod.py"
    )
    assert only_002 == []


def test_iter_source_files_sorted_and_skips_caches(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("")
    (tmp_path / "pkg" / "a.py").write_text("")
    (tmp_path / "pkg" / "__pycache__" / "c.py").write_text("")
    rels = [rel for _, rel in iter_source_files([tmp_path / "pkg"], root=tmp_path)]
    assert rels == ["pkg/a.py", "pkg/b.py"]
    with pytest.raises(ValidationError):
        list(iter_source_files([tmp_path / "nope.txt"], root=tmp_path))


def test_reporters_render_findings(tmp_path):
    src = tmp_path / "src" / "repro" / "data"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(_RNG_LINE + "\n")
    report = Analyzer(root=tmp_path).run([src])
    text = render_text(report)
    assert "REP001" in text and "1 finding(s)" in text
    payload = json.loads(render_json(report))
    assert payload["ok"] is False
    assert payload["summary"]["by_rule"] == {"REP001": 1}
    assert payload["findings"][0]["rule"] == "REP001"


# ---------------------------------------------------------------------------
# The gate: the repo passes its own linter
# ---------------------------------------------------------------------------


def test_repo_lint_is_clean_e2e(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    exit_code = cli_main(["lint", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert payload["ok"] is True
    assert payload["findings"] == [], payload["findings"]
    assert payload["parse_errors"] == []
    assert payload["files_checked"] > 50


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in DEFAULT_REGISTRY.ids():
        assert rule_id in out


def test_cli_lint_nonzero_on_findings(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "src" / "repro" / "data"
    bad.mkdir(parents=True)
    (bad / "mod.py").write_text(_RNG_LINE + "\n")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["lint", "src"]) == 1
    assert "REP001" in capsys.readouterr().out


def test_cli_write_baseline_round_trip(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "src" / "repro" / "data"
    bad.mkdir(parents=True)
    (bad / "mod.py").write_text(_RNG_LINE + "\n")
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert cli_main(
        ["lint", "src", "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    capsys.readouterr()
    assert cli_main(["lint", "src", "--baseline", str(baseline)]) == 0


# ---------------------------------------------------------------------------
# Artifact loader (REP002's read-side companion)
# ---------------------------------------------------------------------------


def test_read_json_artifact_round_trip(tmp_path):
    path = tmp_path / "artifact.json"
    write_json_artifact(path, {"results": [1, 2]})
    assert read_json_artifact(path, expect_keys=("results",)) == {
        "results": [1, 2]
    }


@pytest.mark.parametrize(
    "prepare, fragment",
    [
        (lambda p: None, "not found"),
        (lambda p: p.write_text('{"results": [1, 2'), "truncated"),
        (lambda p: p.write_text('[1, 2]'), "expected an object"),
        (lambda p: p.write_text('{"other": 1}'), "missing required key"),
    ],
)
def test_read_json_artifact_failures(tmp_path, prepare, fragment):
    path = tmp_path / "artifact.json"
    prepare(path)
    with pytest.raises(ArtifactError) as excinfo:
        read_json_artifact(
            path, expect_keys=("results",), regenerate_hint="regenerate me"
        )
    assert fragment in str(excinfo.value)
    assert "regenerate me" in str(excinfo.value)


def test_check_regression_exits_cleanly_on_missing_reference(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "check_regression.py"),
            "--reference",
            str(tmp_path / "absent.json"),
            "--fresh",
            str(tmp_path / "also_absent.json"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 2
    assert "error:" in result.stderr


# ---------------------------------------------------------------------------
# Typed-core gate (only when mypy is installed, as in CI)
# ---------------------------------------------------------------------------


def test_mypy_strict_packages():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "src/repro/mining/engines.py",
            "src/repro/streaming",
            "src/repro/resilience",
            "src/repro/obs",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
