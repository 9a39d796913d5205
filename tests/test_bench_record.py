"""Schema of the perf trajectory ``BENCH_record.json`` and its appender.

Every row is one pair set of benchmark-of-record runs: commits, workload
and seeds, per end-to-end metric the parent's and the change's median
and IQR and the pairs the change won, ``nproc``, the numpy version and
the host-probe medians.  Rows transcribed from older prose are marked
``backfilled`` and may hold ``null`` where the prose gave no number;
measured rows may not.
"""

from __future__ import annotations

import importlib.util
import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
WORKLOADS = {"summarize-sparse", "stream-mixed", "serve-open"}
SIDES = ("parent", "change")


def _record_pairs():
    spec = importlib.util.spec_from_file_location(
        "record_pairs", ROOT / "benchmarks" / "record_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _number_or_none(value, *, measured):
    if measured:
        return isinstance(value, Real) and not isinstance(value, bool)
    return value is None or (isinstance(value, Real) and not isinstance(value, bool))


def check_row(row):
    """Raise AssertionError unless *row* is a well-formed trajectory row."""
    measured = row["backfilled"] is False
    assert isinstance(row["backfilled"], bool)
    assert row["commit"] is None or isinstance(row["commit"], str)
    assert isinstance(row["parent"], str) and row["parent"]
    assert row["workload"] in WORKLOADS
    seeds = row["seeds"]
    assert all(isinstance(seed, int) for seed in seeds)
    assert len(set(seeds)) == len(seeds) == row["pairs"] > 0
    assert isinstance(row["nproc"], int) and row["nproc"] > 0
    assert isinstance(row["numpy"], str) and row["numpy"]
    for field in ("failed", "attempted", "host_probe_ms"):
        assert set(row[field]) == set(SIDES), field
        for side in SIDES:
            assert _number_or_none(row[field][side], measured=measured), (field, side)
    if measured:
        assert all(isinstance(row["src_sha256"][side], str) for side in SIDES)
        for side in SIDES:
            assert 0 <= row["failed"][side] <= row["attempted"][side]
    assert set(row["metrics"]) == set(END_TO_END)
    for name, metric in row["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"], name
        assert metric["better"] == END_TO_END[name]["better"], name
        for side in SIDES:
            assert set(metric[side]) == {"median", "iqr"}, (name, side)
            assert _number_or_none(metric[side]["median"], measured=measured), (name, side)
            iqr = metric[side]["iqr"]
            assert _number_or_none(iqr, measured=measured), (name, side)
            assert iqr is None or iqr >= 0
        wins = metric["wins"]
        if measured or wins is not None:
            assert isinstance(wins, int) and 0 <= wins <= row["pairs"], name
    assert isinstance(row["note"], str)


def test_every_row_of_the_record_is_well_formed():
    data = json.loads((ROOT / "BENCH_record.json").read_text(encoding="utf-8"))
    assert isinstance(data["about"], str) and data["rows"]
    for row in data["rows"]:
        check_row(row)
    backfilled = [row["backfilled"] for row in data["rows"]]
    assert backfilled == sorted(backfilled, reverse=True), "measured rows follow backfilled ones"


def test_the_record_is_written_one_row_per_line():
    module = _record_pairs()
    text = (ROOT / "BENCH_record.json").read_text(encoding="utf-8")
    assert module.dump_record(json.loads(text)) == text


def _run(seed, *, latency_ms, commit, sha, failed=0, probe=0.005):
    metrics = {name: {"value": 1.0, "unit": entry["unit"]} for name, entry in END_TO_END.items()}
    metrics["latency_ms"]["value"] = latency_ms
    metrics["goodput_qps"]["value"] = 20.0
    return {
        "stamp": {
            "nproc": 2,
            "numpy": "2.4.6",
            "git_commit": commit,
            "src_sha256": sha,
            "seed": seed,
        },
        "probes": [[0.0, probe], [1.0, probe * 2]],
        "correct": True,
        "attempted": 100,
        "failed": failed,
        "metrics": metrics,
    }


def test_appending_a_pair_set(tmp_path):
    module = _record_pairs()
    parent_out, change_out = tmp_path / "parent", tmp_path / "change"
    parent_out.mkdir()
    change_out.mkdir()
    parent_ms, change_ms = [5.0, 6.0, 4.0], [4.5, 6.5, 3.0]
    for seed, before, after in zip((7, 8, 9), parent_ms, change_ms):
        run = _run(seed, latency_ms=before, commit="aaa", sha="p", failed=1)
        (parent_out / f"result-stream-mixed-{seed}-0.json").write_text(json.dumps(run))
        run = _run(seed, latency_ms=after, commit="aaa", sha="c")
        (change_out / f"result-stream-mixed-{seed}-0.json").write_text(json.dumps(run))
    record = tmp_path / "record.json"
    record.write_text(module.dump_record({"about": "test", "rows": []}))
    code = module.main(
        [
            "--workload", "stream-mixed", "--seeds", "7-9",
            "--parent-out", str(parent_out), "--change-out", str(change_out),
            "--record", str(record),
        ]
    )
    assert code == 0
    (row,) = json.loads(record.read_text())["rows"]
    check_row(row)
    # Measured from an uncommitted tree: the change stamps the parent's commit.
    assert row["commit"] is None and row["parent"] == "aaa"
    assert row["seeds"] == [7, 8, 9] and row["src_sha256"] == {"parent": "p", "change": "c"}
    latency = row["metrics"]["latency_ms"]
    assert latency["parent"] == {"median": 5.0, "iqr": 1.0}
    assert latency["change"] == {"median": 4.5, "iqr": 1.75}
    assert latency["wins"] == 2
    assert row["metrics"]["goodput_qps"]["wins"] == 0  # ties are not wins
    assert row["failed"] == {"parent": 3, "change": 0}
    assert row["host_probe_ms"]["parent"] == pytest.approx(7.5)


def test_a_committed_change_names_its_commit():
    module = _record_pairs()
    parent = [_run(7, latency_ms=5.0, commit="aaa", sha="p")]
    change = [_run(7, latency_ms=4.0, commit="bbb", sha="c")]
    row = module.pair_row("stream-mixed", [7], parent, change)
    check_row(row)
    assert row["commit"] == "bbb" and row["parent"] == "aaa"


def test_seed_ranges_parse():
    assert _record_pairs().parse_seeds("3-5,9") == [3, 4, 5, 9]
