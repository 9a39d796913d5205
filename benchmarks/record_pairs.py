"""Append one pair set of benchmark-of-record runs to ``BENCH_record.json``.

``perfbench/run.py`` writes each run's record to
``<checkout>/.perfbench_out/result-<workload>-<seed>-<trace>.json``, a
directory git ignores.  Run the parent and the change on the same seeds
(alternating which goes first), each from its own checkout, then fold the
pairs into the committed trajectory::

    python benchmarks/record_pairs.py --workload stream-mixed --seeds 21001-21010 \\
        --parent-out ../parent/.perfbench_out --change-out .perfbench_out

The row holds, for every end-to-end metric of ``BENCHMARK.json``, the
median and interquartile range on each side and the number of pairs the
change won (better in the metric's direction; ties are not wins), plus
the seeds, the commits (read from the run stamps), failed
and attempted operations, ``nproc``, the numpy version, and the median
host-speed probe of each side.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_record.json"
SPEC = ROOT / "BENCHMARK.json"


def parse_seeds(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _load_runs(out_dir: Path, workload: str, seeds: Sequence[int]) -> List[Dict[str, Any]]:
    runs = []
    for seed in seeds:
        path = Path(out_dir) / f"result-{workload}-{seed}-0.json"
        run = json.loads(path.read_text(encoding="utf-8"))
        if not run.get("correct"):
            raise ValueError(f"{path}: the run's checks failed")
        runs.append(run)
    return runs


def _summary(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1)}


def _one(runs: Sequence[Dict[str, Any]], key: str) -> Any:
    values = {json.dumps(run["stamp"].get(key)) for run in runs}
    if len(values) != 1:
        raise ValueError(f"runs disagree on {key}: {sorted(values)}")
    return json.loads(values.pop())


def _probe_ms(runs: Sequence[Dict[str, Any]]) -> float:
    samples = [seconds for run in runs for _, seconds in run["probes"]]
    return 1000.0 * float(np.median(samples))


def pair_row(
    workload: str,
    seeds: Sequence[int],
    parent_runs: Sequence[Dict[str, Any]],
    change_runs: Sequence[Dict[str, Any]],
    *,
    note: str = "",
) -> Dict[str, Any]:
    """One trajectory row from runs paired by position (same seed)."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {}
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        before = [run["metrics"][name]["value"] for run in parent_runs]
        after = [run["metrics"][name]["value"] for run in change_runs]
        wins = sum(1 for b, a in zip(before, after) if (a < b if lower else a > b))
        metrics[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            "parent": _summary(before),
            "change": _summary(after),
            "wins": wins,
        }
    parent_commit = _one(parent_runs, "git_commit")
    change_commit = _one(change_runs, "git_commit")
    return {
        # A change measured from an uncommitted tree stamps its parent's
        # commit; src_sha256 names the measured tree either way.
        "commit": None if change_commit == parent_commit else change_commit,
        "parent": parent_commit,
        "workload": workload,
        "seeds": list(seeds),
        "pairs": len(seeds),
        "backfilled": False,
        "nproc": _one(change_runs + parent_runs, "nproc"),
        "numpy": _one(change_runs + parent_runs, "numpy"),
        "src_sha256": {
            "parent": _one(parent_runs, "src_sha256"),
            "change": _one(change_runs, "src_sha256"),
        },
        "failed": {
            "parent": sum(run["failed"] for run in parent_runs),
            "change": sum(run["failed"] for run in change_runs),
        },
        "attempted": {
            "parent": sum(run["attempted"] for run in parent_runs),
            "change": sum(run["attempted"] for run in change_runs),
        },
        "host_probe_ms": {"parent": _probe_ms(parent_runs), "change": _probe_ms(change_runs)},
        "metrics": metrics,
        "note": note,
    }


def dump_record(data: Dict[str, Any]) -> str:
    """The record's text: one row per line, so a new pair set is a one-line diff."""
    rows = ",\n".join("  " + json.dumps(row) for row in data["rows"])
    return '{\n "about": %s,\n "rows": [\n%s\n ]\n}\n' % (json.dumps(data["about"]), rows)


def append_row(row: Dict[str, Any], record: Path = RECORD) -> None:
    data = json.loads(record.read_text(encoding="utf-8"))
    data["rows"].append(row)
    record.write_text(dump_record(data), encoding="utf-8")


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 21001-21010 or 1,4,9")
    parser.add_argument("--parent-out", required=True, type=Path)
    parser.add_argument("--change-out", required=True, type=Path)
    parser.add_argument("--note", default="")
    parser.add_argument("--record", type=Path, default=RECORD)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    row = pair_row(
        args.workload,
        seeds,
        _load_runs(args.parent_out, args.workload, seeds),
        _load_runs(args.change_out, args.workload, seeds),
        note=args.note,
    )
    append_row(row, args.record)
    for name, metric in row["metrics"].items():
        print(
            f"{name:14s} {metric['parent']['median']:.6g} -> {metric['change']['median']:.6g} "
            f"[parent IQR {metric['parent']['iqr']:.3g}] wins {metric['wins']}/{row['pairs']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
