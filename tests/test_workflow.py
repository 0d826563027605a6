"""The CI workflow parses, and its tier1 job keeps the steps that check atlab.

A step name holding ': ' once left .github/workflows/test.yml unparseable,
so no check in it ran; this reads the file the way the CI runner does.
"""

from __future__ import annotations

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "test.yml"
PYPROJECT = ROOT / "pyproject.toml"


def _tier1_runs() -> list[str]:
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert all(isinstance(step, dict) for step in steps)
    return [step.get("run", "") for step in steps]


def _index(runs: list[str], *fragments: str) -> int:
    found = [i for i, run in enumerate(runs) if all(f in run for f in fragments)]
    assert len(found) == 1, fragments
    return found[0]


def test_tier1_job_keeps_its_checks_in_order():
    runs = _tier1_runs()
    # Without numpy and scipy, before the test extra installs them: the console
    # script, its exit 2 with one error: line on a domain error, on help text
    # it cannot write and on a closed standard output (each captured with ||
    # under bash -e), and the numpy-free test files at a narrow terminal under
    # two hash seeds.
    smoke = _index(runs, "find_spec(m) for m in ('numpy', 'scipy')", "atlab bound",
                   "atlab torus-det", "atlab elliptic --tau 0,2000 2> err.txt || code=$?",
                   "code=0\natlab --help > /dev/full 2> err.txt || code=$?\n"
                   'test "$code" -eq 2\ntest "$(wc -l < err.txt)" -eq 1',
                   "code=0\natlab bound --genus 2 >&- 2> err.txt || code=$?\n"
                   'test "$code" -eq 2\ntest "$(wc -l < err.txt)" -eq 1', "for seed in 1 2",
                   "PYTHONHASHSEED=$seed COLUMNS=40 python -m pytest -q "
                   "tests/test_cli.py tests/test_claims.py tests/test_domain_errors.py")
    extra = _index(runs, 'pip install -e ".[test]"')
    assert smoke < extra
    tier1 = _index(runs, "python -m pytest -q --continue-on-collection-errors")
    # A numpy overflow, invalid-value or divide warning fails this run and a
    # bare `pytest` alike; pyproject.toml is read as text, as Python 3.10 has
    # no tomllib.
    assert 'filterwarnings = ["error::RuntimeWarning"]' in PYPROJECT.read_text()
    bench = _index(runs, "for w in audit genus_table torus_sweep",
                   "benchmarks/run.py --workload", "['correct'] is not True")
    assert extra < tier1 and extra < bench
