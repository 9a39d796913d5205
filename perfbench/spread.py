"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload stream-mixed --seeds 1-10 --seconds 20 [--trace 1]

For every metric it prints the median over the runs and the spread used
to set its bound in ``BENCHMARK.json``: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  Untraced runs also show the spread of the unscaled
wall-clock medians, which the host's drift widens.  The raw results go to
``.perfbench_out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-metric spread over seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
            return 1
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        record = ROOT / ".perfbench_out" / f"result-{args.workload}-{seed}-{args.trace}.json"
        raw = json.loads(record.read_text(encoding="utf-8")).get("raw", {})
        runs.append({"seed": seed, "wall_s": wall, "result": result, "raw": raw,
                     "stdout": proc.stdout})
        shown = values if args.trace == "0" else {}
        print(f"seed {seed} ({wall:.1f} s): "
              + ", ".join(f"{k}={v:.4g}" for k, v in shown.items()), flush=True)

    names = list(runs[0]["result"]["metrics"])
    print(f"\n{args.workload}: {len(runs)} runs, mean wall "
          f"{statistics.mean(r['wall_s'] for r in runs):.1f} s")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        print(f"  {name:32s} median {statistics.median(values):12.5g}  "
              f"spread {spread(values) if len(values) > 1 else 0.0:7.3f}")
    for name in runs[0]["raw"]:
        values = [r["raw"][name] for r in runs]
        print(f"  unscaled {name:23s} median {statistics.median(values):12.5g}  "
              f"spread {spread(values) if len(values) > 1 else 0.0:7.3f}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-{args.trace}-{int(time.time())}.json").write_text(
        json.dumps(runs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
