"""Persistent-store microbenchmark: text format vs binary container.

Saves the same personalized summary through both persistence paths —
the line-oriented v1 text format (``save_summary``) and the checksummed
binary container (``save_summary_binary``) — and times save, load, and
first-query-after-load at increasing graph sizes, alongside the on-disk
footprint of each.  The binary column is the whole point of the store:
``load_summary_binary`` memory-maps the columnar sections and answers
queries straight off the mapping, so its "load" is metadata validation
plus page faults on demand, while the text path re-parses every line and
re-materializes the arrays.  The `Load speedup` column is the headline
number; footprint is usually comparable (the text format is compact),
so the win is latency, not bytes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from _util import bench_main, emit_table, fmt

from repro.core import PegasusConfig, summarize
from repro.core.summary_io import load_summary, save_summary
from repro.graph import barabasi_albert
from repro.queries import rwr_scores

#: (label, num_nodes, ba_m) — increasing summary size.
SCENARIOS = [
    ("small (n=2k)", 2000, 4),
    ("medium (n=8k)", 8000, 4),
    ("large (n=20k)", 20000, 4),
]

SMOKE_SCENARIOS = [("tiny (n=300)", 300, 3)]


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_rows(scenarios, *, repeats: int = 3):
    from repro.store import load_summary_binary, save_summary_binary

    rows = []
    workdir = tempfile.mkdtemp(prefix="bench_store_")
    try:
        for label, num_nodes, m in scenarios:
            graph = barabasi_albert(num_nodes, m, seed=0)
            result = summarize(
                graph,
                budget_bits=0.5 * graph.size_in_bits(),
                config=PegasusConfig(seed=0),
            )
            summary = result.summary
            text_path = os.path.join(workdir, "summary.txt")
            bin_path = os.path.join(workdir, "summary.store")

            text_save = _time_best(lambda: save_summary(summary, text_path), repeats)
            # include_graph=False for a like-for-like footprint: the text
            # format also stores only the partition + superedges, with the
            # graph supplied separately at load time.
            bin_save = _time_best(
                lambda: save_summary_binary(summary, bin_path, include_graph=False),
                repeats,
            )

            def _text_load():
                loaded = load_summary(text_path, graph)
                rwr_scores(loaded, 0)

            def _bin_load():
                mapped = load_summary_binary(bin_path, graph)
                rwr_scores(mapped, 0)

            text_load = _time_best(_text_load, repeats)
            bin_load = _time_best(_bin_load, repeats)

            rows.append(
                (
                    label,
                    summary.num_supernodes,
                    os.path.getsize(text_path) // 1024,
                    os.path.getsize(bin_path) // 1024,
                    fmt(text_save * 1e3),
                    fmt(bin_save * 1e3),
                    fmt(text_load * 1e3),
                    fmt(bin_load * 1e3),
                    f"{text_load / bin_load:.1f}x",
                )
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rows


def _emit(rows, title_suffix=""):
    return emit_table(
        "store",
        "Summary persistence: v1 text format vs memory-mapped binary store"
        + title_suffix,
        [
            "Scenario",
            "|S|",
            "Text KiB",
            "Binary KiB",
            "Text save ms",
            "Bin save ms",
            "Text load+q ms",
            "Bin load+q ms",
            "Load speedup",
        ],
        rows,
    )


def test_store_bench(benchmark):
    rows = benchmark.pedantic(run_rows, args=(SCENARIOS,), rounds=1, iterations=1)
    _emit(rows)
    # Memory-mapped open must beat a full text re-parse on every scenario.
    for row in rows:
        assert float(row[-1][:-1]) >= 1.0


def _run_table(args) -> None:
    scenarios = SMOKE_SCENARIOS if args.smoke else SCENARIOS
    rows = run_rows(scenarios, repeats=1 if args.smoke else 3)
    _emit(rows, title_suffix=" [smoke]" if args.smoke else "")


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Summary save/load microbenchmark: text format vs binary store.",
    )


if __name__ == "__main__":
    raise SystemExit(main())
