"""Fig. 8 — summarization time and query time per method.

Shape to reproduce: PeGaSus is among the fastest summarizers and, because
it adds superedges selectively, its summaries are *sparse* and queries on
them run much faster than on the dense weighted summaries of SAAGs (and
of k-Grass / S2L where those finish at all).

Standalone, this bench exposes the worker axis (``--workers``).
"""

from __future__ import annotations

import numpy as np
from _util import bench_main, emit_table, fmt, run_with_speedup, worker_arguments

from repro.experiments import fig8_runtime


def _emit(rows, name="fig8_runtime", title_suffix=""):
    return emit_table(
        name,
        "Fig. 8: summarization and query times (seconds; o.o.t = over budget)" + title_suffix,
        ["Dataset", "Method", "Summarize (s)", "BFS queries (s)", "RWR queries (s)", "|P|"],
        [
            (
                r.dataset,
                r.method,
                fmt(r.summarize_seconds),
                fmt(r.bfs_query_seconds),
                fmt(r.rwr_query_seconds),
                r.superedges,
            )
            for r in rows
        ],
    )


def test_fig8_runtime(benchmark):
    rows = benchmark.pedantic(fig8_runtime.run, rounds=1, iterations=1)
    _emit(rows)

    def mean(method, field):
        values = [getattr(r, field) for r in rows if r.method == method and not r.skipped]
        return float(np.mean(values)) if values else float("nan")

    # Sparse summaries: queries processed by neighborhood expansion
    # (Alg. 4/5, what Fig. 8(b) times) are faster on PeGaSus' output than
    # on the dense weighted SAAGs output.
    assert mean("pegasus", "bfs_query_seconds") <= mean("saags", "bfs_query_seconds") * 1.2
    # PeGaSus summarization stays in the same league as the sampled greedy
    # baselines (the paper's "one of the most scalable" claim).
    assert mean("pegasus", "summarize_seconds") <= 5 * mean("saags", "summarize_seconds") + 5.0


def _run_table(args) -> None:
    methods = ("pegasus", "ssumm") if args.smoke else None
    kwargs = {"methods": methods} if methods else {}
    rows = run_with_speedup(fig8_runtime.run, args.workers, **kwargs)
    _emit(rows, title_suffix=" [smoke]" if args.smoke else "")


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Fig. 8 runtime bench with a worker axis.",
        parser_hook=worker_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
