"""Fig. 8 — summarization time and query time per method.

Shape to reproduce: PeGaSus is among the fastest summarizers and, because
it adds superedges selectively, its summaries are *sparse* and queries on
them run much faster than on the dense weighted summaries of SAAGs (and
of k-Grass / S2L where those finish at all).

Standalone, this bench exposes the merge-evaluation engine axis
(``--engine``) and, when run with the default batch engine, emits a
second table comparing the summarize phase of the two engines per
dataset: the scalar pair loop and the batched engine (vectorized
speculative windows).  Summaries are bit-identical across engines, so
the two columns time the same merge trajectory.
"""

from __future__ import annotations

import os

import numpy as np
from _util import bench_main, emit_table, engine_arguments, fmt, run_with_speedup, worker_arguments

from repro.experiments import fig8_runtime


def _bench_arguments(parser) -> None:
    engine_arguments(parser)
    worker_arguments(parser)
    parser.add_argument(
        "--speedup-only",
        action="store_true",
        help="emit only the engine speedup table (skips the slow "
        "weighted-baseline sweep; useful with --scale full)",
    )


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


def _engine_speedup_table(datasets, *, repeats: int = 3) -> None:
    """Best-of-*repeats* summarization timing of the two merge engines.

    Timed in isolation (not inside the full Fig. 8 sweep) because the
    sub-second summarize phases are otherwise dominated by the cache/CPU
    state the slow weighted baselines leave behind.
    """
    from repro.eval import sample_query_nodes
    from repro.experiments.common import ExperimentScale, build_summary_for_method
    from repro.graph import load_dataset

    scale = ExperimentScale.from_env()
    rows = []
    for name in datasets:
        graph = load_dataset(name, scale=scale.dataset_scale, seed=scale.seed).graph
        queries = sample_query_nodes(graph, scale.num_queries, seed=scale.seed)
        for method in ("pegasus", "ssumm"):
            best = {}
            for engine in ("scalar", "batch"):
                best[engine] = min(
                    build_summary_for_method(
                        method,
                        graph,
                        0.5,
                        targets=queries,
                        t_max=scale.t_max,
                        seed=scale.seed,
                        engine=engine,
                    )[2]
                    for _ in range(repeats)
                )
            rows.append(
                (name, method, best["scalar"], best["batch"], best["scalar"] / best["batch"])
            )
    preset = os.environ.get("REPRO_SCALE", "default").lower()
    emit_table(
        "fig8_runtime_speedup" + ("" if preset == "default" else f"_{preset}"),
        f"Summarization phase (best of {repeats}, REPRO_SCALE={preset}): scalar"
        " pair loop vs batch engine",
        ["Dataset", "Method", "Scalar (s)", "Batch (s)", "Batch vs scalar"],
        [(d, m, fmt(a), fmt(b), f"{sb:.2f}x") for d, m, a, b, sb in rows],
    )


def _run_table(args) -> None:
    if getattr(args, "speedup_only", False):
        from repro.graph import dataset_names

        datasets = [
            name
            for name in ("lastfm_asia", "caida", "dblp", "synthetic_ba", "synthetic_dense")
            if name in dataset_names()
        ]
        _engine_speedup_table(datasets, repeats=1 if args.smoke else 3)
        return
    methods = ("pegasus", "ssumm") if args.smoke else None
    kwargs = {"methods": methods} if methods else {}
    rows = run_with_speedup(fig8_runtime.run, args.workers, engine=args.engine, **kwargs)
    _emit(rows, title_suffix=f" [engine={args.engine}]")
    if args.engine == "batch":
        datasets = sorted({r.dataset for r in rows})
        if not args.smoke and "synthetic_dense" not in datasets:
            # The dense stand-in is where the engines differentiate most.
            datasets.append("synthetic_dense")
        _engine_speedup_table(datasets, repeats=1 if args.smoke else 3)


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Fig. 8 runtime bench with engine and worker axes.",
        parser_hook=_bench_arguments,
    )


if __name__ == "__main__":
    raise SystemExit(main())
