"""Smoke tests for the benchmark scripts.

Every ``benchmarks/bench_*.py`` is runnable standalone via its ``main()``
(see ``benchmarks/_util.bench_main``); here each one is imported and run
with ``--smoke`` (tiny graphs, restricted sweeps) so the scripts cannot
silently rot when the library underneath them changes.  The pass/fail
*assertions* of each bench live in its pytest wrapper and are not
exercised here — smoke mode only proves the scripts still run end to end.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(autouse=True)
def _bench_path(monkeypatch, tmp_path):
    """Import benches from their directory; write result tables to tmp."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    util = importlib.import_module("_util")
    monkeypatch.setattr(util, "RESULTS_DIR", str(tmp_path))


def test_all_bench_scripts_discovered():
    # The repo ships 16 bench scripts; a disappearing file should fail
    # loudly here rather than silently shrinking coverage.
    assert len(BENCH_MODULES) >= 16
    assert "bench_streaming" in BENCH_MODULES
    assert "bench_store" in BENCH_MODULES
    assert "bench_net" in BENCH_MODULES


@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_bench_main_smoke(module_name, capsys, tmp_path):
    module = importlib.import_module(module_name)
    assert hasattr(module, "main"), f"{module_name} lost its standalone main()"
    assert module.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "----" in out, f"{module_name} --smoke printed no table"
    # Every emitted table has a machine-readable twin for perf tracking.
    json_files = list(tmp_path.glob("*.json"))
    assert json_files, f"{module_name} wrote no results JSON"
    import json

    for path in json_files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["bench"] == path.stem
        assert payload["headers"] and payload["rows"]
        assert all(len(row) == len(payload["headers"]) for row in payload["rows"])


def test_unknown_flag_rejected():
    module = importlib.import_module("bench_table2_datasets")
    with pytest.raises(SystemExit) as excinfo:
        module.main(["--bogus-flag"])
    assert excinfo.value.code != 0
