"""No test or benchmark compares a literal date with the clock.

A check like ``date.today() < date(2026, 10, 17)`` passes on the day
it is written and fails on a later one, with no change to the code.
This guard parses every ``.py`` under ``tests/``, ``benchmarks/`` and
``perfbench/`` and fails when a clock read (one of the calls the
REP006 lint rule knows) and a literal date meet in one comparison or
subtraction.  A literal date is a ``date(...)``/``datetime(...)`` call
with constant arguments, or a ``YYYY-MM-DD`` string.
"""

import ast
import re
from pathlib import Path

from repro.analysis.rules import _CLOCK_CALLS

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("tests", "benchmarks", "perfbench")
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "date_guard"
DATE_STRING = re.compile(r"\d{4}-\d{2}-\d{2}")


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _tail2(name):
    return ".".join(name.split(".")[-2:])


def _clock_aliases(tree):
    """Bare names bound to a clock call by ``from time import ...``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if _tail2(f"{node.module}.{alias.name}") in _CLOCK_CALLS:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _is_clock_read(node, aliases):
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func)
    return name is not None and (
        _tail2(name) in _CLOCK_CALLS or name in aliases
    )


def _is_literal_date(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return DATE_STRING.match(node.value) is not None
    if isinstance(node, ast.Call) and (node.args or node.keywords):
        name = _dotted(node.func)
        return (
            name is not None
            and name.split(".")[-1] in ("date", "datetime")
            and all(isinstance(a, ast.Constant) for a in node.args)
            and all(isinstance(k.value, ast.Constant) for k in node.keywords)
        )
    return False


def find_clock_date_checks(source):
    """Line numbers where a clock read meets a literal date."""
    tree = ast.parse(source)
    aliases = _clock_aliases(tree)
    lines = set()
    for node in ast.walk(tree):
        is_sub = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        if not (is_sub or isinstance(node, ast.Compare)):
            continue
        inner = list(ast.walk(node))
        if any(_is_clock_read(n, aliases) for n in inner) and any(
            _is_literal_date(n) for n in inner
        ):
            lines.add(node.lineno)
    return lines


def test_fixture_fires_on_every_flagged_line_only():
    source = (FIXTURES / "date_guard_bad.py").read_text()
    flagged = {
        i for i, line in enumerate(source.splitlines(), 1)
        if line.rstrip().endswith("# flagged")
    }
    assert len(flagged) == 4
    assert find_clock_date_checks(source) == flagged


def test_no_test_or_benchmark_compares_a_literal_date_with_the_clock():
    offenders = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if FIXTURES in path.parents:
                continue
            for line in sorted(find_clock_date_checks(path.read_text())):
                offenders.append(f"{path.relative_to(ROOT)}:{line}")
    assert not offenders, offenders
