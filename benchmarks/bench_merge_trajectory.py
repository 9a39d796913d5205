"""Kernel-perf trajectory: scalar oracle vs fused-batch across the paper datasets.

Measures the fig8 summarize phase end to end — per-dataset wall-clock
of ``summarize`` on the scalar Alg. 2 oracle (``tests/_merge_oracle.py``,
swapped in with ``scalar_engine()``; this script puts ``tests/`` on
``sys.path`` to import it) vs on the production merge engine (the
two replay byte-identical merges, so the comparison is pure kernel
speed) — plus the group-level micro pairs/s and per-window numpy-call
counts from ``bench_merge_micro``, and writes the whole trajectory as
machine-readable JSON.

What the numbers mean (measured on a 2-vCPU host with numpy 2.4; the
JSON records ``nproc`` and the numpy version of each run):

* at **group level** the fused kernel prices pairs ~3–4× faster than
  the per-pair ``evaluate_merge`` pass at every density, and one warm
  ``evaluate_scores`` over a whole window's pairs costs single-digit
  numpy-API calls — the ``micro_pairs_per_second`` /
  ``window_numpy_calls`` tables;
* **end to end**, the dense stand-in (``synthetic_dense``, long rows)
  reads 1.3–1.8× and the sparse laptop stand-ins at default scale
  0.87–1.12× across back-to-back recordings.  Sparse runs are bound by
  one tiny pricing batch per merge-commit epoch, where no batching can
  amortize numpy's fixed dispatch cost, and by speculative attempts a
  commit rewinds.  These are best-of-3 sub-second timings on a host
  whose speed wanders: recordings of the same code minutes apart have
  differed by up to 0.5 in one ratio.

At full/default scale the JSON lands at the repo root as
``BENCH_merge.json`` (committed, so the perf trajectory across PRs is
diffable); in ``--smoke`` mode it stays under ``benchmarks/results/``.
``--check`` turns the trajectory floors into an exit code for the CI
perf-smoke job: the micro (group-level) tables must show the fused
kernel ahead of the per-pair pass everywhere, windows must stay inside
the 10-numpy-call budget, the dense stand-in must not regress end to
end, and no sparse stand-in may fall below 0.45× (the guard against a
pathological slowdown creeping back in).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from _util import RESULTS_DIR, bench_main, emit_table, fmt

SPARSE_DATASETS = ("lastfm_asia", "caida", "dblp", "synthetic_ba")
ALL_DATASETS = SPARSE_DATASETS + ("synthetic_dense",)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS_DIR = os.path.join(REPO_ROOT, "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)
from _merge_oracle import scalar_engine


def run_fig8_rows(datasets, *, repeats: int = 3):
    """Best-of-*repeats* summarize wall-clock, scalar oracle vs batch, per dataset."""
    from repro.eval import sample_query_nodes
    from repro.experiments.common import ExperimentScale, build_summary_for_method
    from repro.graph import load_dataset

    scale = ExperimentScale.from_env()
    rows = []
    for name in datasets:
        graph = load_dataset(name, scale=scale.dataset_scale, seed=scale.seed).graph
        queries = sample_query_nodes(graph, scale.num_queries, seed=scale.seed)
        best = {}
        for engine, context in (("scalar", scalar_engine), ("batch", contextlib.nullcontext)):
            with context():
                best[engine] = min(
                    build_summary_for_method(
                        "pegasus",
                        graph,
                        0.5,
                        targets=queries,
                        t_max=scale.t_max,
                        seed=scale.seed,
                    )[2]
                    for _ in range(repeats)
                )
        rows.append(
            {
                "dataset": name,
                "sparse": name in SPARSE_DATASETS,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "scalar_seconds": best["scalar"],
                "batch_seconds": best["batch"],
                "speedup": best["scalar"] / best["batch"],
            }
        )
    return rows


def run_trajectory(*, smoke: bool = False):
    """The full trajectory payload: fig8 sweep + micro tables."""
    from bench_merge_micro import (
        SCENARIOS,
        SMOKE_SCENARIOS,
        WINDOW_SHAPES,
        run_rows,
        run_window_calls,
    )

    import numpy

    repeats = 1 if smoke else 3
    fig8 = run_fig8_rows(ALL_DATASETS, repeats=repeats)
    micro = run_rows(SMOKE_SCENARIOS if smoke else SCENARIOS, repeats=repeats)
    calls = run_window_calls(
        WINDOW_SHAPES[:2] if smoke else WINDOW_SHAPES,
        num_nodes=200 if smoke else 600,
    )
    return {
        "bench": "merge_trajectory",
        # The emit_table headers/rows convention (tests/test_benchmarks_smoke)
        # mirrors the fig8 sweep so trajectory JSONs stay table-shaped.
        "headers": ["Dataset", "Sparse", "Scalar (s)", "Batch (s)", "Speedup"],
        "rows": [
            [
                row["dataset"],
                "yes" if row["sparse"] else "no",
                row["scalar_seconds"],
                row["batch_seconds"],
                row["speedup"],
            ]
            for row in fig8
        ],
        "scale": os.environ.get("REPRO_SCALE", "default").lower(),
        "repeats": repeats,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "sparse_datasets": list(SPARSE_DATASETS),
        "fig8_summarize": fig8,
        "micro_pairs_per_second": [
            {
                "scenario": label,
                "pairs": pairs,
                "elements_per_pair": elems,
                "scalar_pairs_per_second": scalar,
                "batch_pairs_per_second": batch,
                "speedup": speedup,
            }
            for label, pairs, elems, scalar, batch, speedup in micro
        ],
        "window_numpy_calls": [
            {"window": label, "samples": samples, "pairs": pairs, "numpy_calls": count}
            for label, samples, pairs, count in calls
        ],
    }


def check_trajectory(payload) -> list:
    """The CI perf floors (see the module docstring for the rationale).

    Group-level: the fused kernel must beat the per-pair pass on every
    micro scenario and stay inside the per-window numpy-call budget.
    End to end: the dense stand-in must not regress, and the sparse
    stand-ins must stay above the pathological-slowdown guard (their
    summarize phase is bound by one tiny pricing batch per merge epoch
    at bench scale, so parity — not speedup — is the realistic ceiling
    there, and one stand-in's single smoke run read 1.28× and then
    0.57× on identical code).
    """
    failures = []
    for row in payload["micro_pairs_per_second"]:
        if row["speedup"] < 1.0:
            failures.append(
                f"micro {row['scenario']}: fused kernel slower than the per-pair "
                f"pass ({row['speedup']:.2f}x)"
            )
    for row in payload["window_numpy_calls"]:
        if row["numpy_calls"] > 10:
            failures.append(
                f"{row['window']}: {row['numpy_calls']} numpy calls per window (> 10)"
            )
    for row in payload["fig8_summarize"]:
        floor = 0.45 if row["sparse"] else 1.0
        if row["speedup"] < floor:
            failures.append(
                f"{row['dataset']}: fused-batch at {row['speedup']:.2f}x of "
                f"the scalar oracle (floor {floor:.2f}x; "
                f"{row['batch_seconds']:.3f}s vs {row['scalar_seconds']:.3f}s)"
            )
    return failures


def emit_trajectory(payload, *, title_suffix: str = "") -> None:
    emit_table(
        "merge_fig8",
        "Fig. 8 summarize phase, scalar oracle vs fused-batch engine "
        f"(best of {payload['repeats']}, REPRO_SCALE={payload['scale']})"
        + title_suffix,
        ["Dataset", "Sparse", "Scalar (s)", "Batch (s)", "Speedup"],
        [
            (
                row["dataset"],
                "yes" if row["sparse"] else "no",
                fmt(row["scalar_seconds"]),
                fmt(row["batch_seconds"]),
                f"{row['speedup']:.2f}x",
            )
            for row in payload["fig8_summarize"]
        ],
    )


def write_payload(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"\n  trajectory written to {path}")


def _run_table(args) -> None:
    payload = run_trajectory(smoke=args.smoke)
    emit_trajectory(payload, title_suffix=" [smoke]" if args.smoke else "")
    if args.output:
        target = args.output
    elif args.smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        target = os.path.join(RESULTS_DIR, "merge_trajectory.json")
    else:
        target = os.path.join(REPO_ROOT, "BENCH_merge.json")
    write_payload(payload, target)
    if args.check:
        failures = check_trajectory(payload)
        if failures:
            raise SystemExit("perf check failed:\n  " + "\n  ".join(failures))
        print("  perf check OK: fused kernel ahead at group level, windows in "
              "call budget, end-to-end floors held")


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the fused kernel trails the per-pair pass at "
        "group level, a window exceeds the 10-numpy-call budget, or an "
        "end-to-end floor is broken",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON trajectory (default: BENCH_merge.json "
        "at the repo root, or benchmarks/results/ in smoke mode)",
    )


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Scalar-oracle vs fused-batch kernel-perf trajectory (BENCH_merge.json).",
        parser_hook=_bench_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
