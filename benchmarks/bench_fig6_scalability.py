"""Fig. 6 (and Fig. 2b) — linear scalability of PeGaSus.

Shape to reproduce: on node-sampled subgraphs spanning the edge-count
range, log(runtime) against log(|E|) has slope ≈ 1, regardless of whether
|T| = 100 or |T| = |V|/2.

Standalone, this bench exposes the worker axis (``--workers``).
"""

from __future__ import annotations

from _util import bench_main, emit_table, fmt, run_with_speedup, worker_arguments

from repro.experiments import fig6_scalability


def _emit(rows, title_suffix=""):
    return emit_table(
        "fig6_scalability",
        "Fig. 6: PeGaSus runtime vs edge count (log-log slope ~ 1)" + title_suffix,
        ["Graph", "|T|", "# Nodes", "# Edges", "Seconds"],
        [
            (r.graph_name, r.target_mode, r.num_nodes, r.num_edges, fmt(r.elapsed_seconds))
            for r in rows
        ],
    )


def _print_slopes(rows, *, check: bool) -> None:
    for graph_name in {r.graph_name for r in rows}:
        for mode in {r.target_mode for r in rows}:
            series = [r for r in rows if r.graph_name == graph_name and r.target_mode == mode]
            if len(series) < 3:
                continue
            slope = fig6_scalability.fit_loglog_slope(series)
            print(f"  slope({graph_name}, |T|={mode}) = {slope:.2f}")
            if check:
                # Linear scalability: slope near 1, with slack for Python
                # noise and fixed per-run overhead at small sizes.
                assert 0.4 < slope < 1.8, f"non-linear scaling: slope={slope:.2f}"


def test_fig6_scalability(benchmark):
    rows = benchmark.pedantic(fig6_scalability.run, rounds=1, iterations=1)
    _emit(rows)
    _print_slopes(rows, check=True)


def _run_table(args) -> None:
    kwargs = {}
    if args.smoke:
        kwargs.update(node_fractions=(0.6, 1.0), target_modes=("100",))
    rows = run_with_speedup(fig6_scalability.run, args.workers, **kwargs)
    _emit(rows, title_suffix=" [smoke]" if args.smoke else "")
    _print_slopes(rows, check=False)


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Fig. 6 scalability bench with a worker axis.",
        parser_hook=worker_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
