"""Shared helpers for the benchmark suite.

Every bench regenerates one table/figure of the paper: it runs the
corresponding :mod:`repro.experiments` driver inside the pytest-benchmark
fixture (one round — these are experiments, not microbenchmarks), prints
the rows in the paper's format, and writes them to
``benchmarks/results/<name>.txt`` so the output survives pytest's capture.

Every bench module is also runnable standalone
(``python benchmarks/bench_<name>.py``) through :func:`bench_main`, which
adds a ``--smoke`` flag (tiny graphs; exercised by
``tests/test_benchmarks_smoke.py`` so the scripts cannot silently rot) and
whatever axes the bench adds, such as ``--workers``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Callable, Sequence

from repro._util import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Environment overrides for ``--smoke`` runs: small preset, tiny graphs.
SMOKE_ENV = {"REPRO_SCALE": "small", "REPRO_DATASET_SCALE": "0.08", "REPRO_QUERIES": "2"}


def bench_main(
    argv: "Sequence[str] | None",
    run_table: Callable[[argparse.Namespace], object],
    *,
    description: str = "Run this benchmark standalone.",
    parser_hook: "Callable[[argparse.ArgumentParser], None] | None" = None,
) -> int:
    """Shared ``main()`` plumbing for running a bench module as a script.

    Parses ``--smoke`` / ``--scale`` (plus whatever *parser_hook* adds,
    e.g. ``--workers``), applies the matching ``REPRO_*`` environment
    overrides for the duration of the run, and calls *run_table* with the
    parsed namespace.  Bench ``main()``s print tables only; the pass/fail
    assertions live in the pytest wrappers.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny-graph smoke run (used by tests/test_benchmarks_smoke.py)",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "default", "full"),
        default=None,
        help="REPRO_SCALE preset for this run",
    )
    if parser_hook is not None:
        parser_hook(parser)
    args = parser.parse_args(argv)
    if args.smoke and args.scale:
        parser.error("--smoke and --scale are mutually exclusive (smoke pins its own tiny scale)")

    overrides = {}
    if args.scale:
        overrides["REPRO_SCALE"] = args.scale
    if args.smoke:
        overrides.update(SMOKE_ENV)
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        run_table(args)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return 0


def worker_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the parallel-execution axis (``--workers``)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for the experiment sweep (1 = sequential, "
        "0 = all cores); with more than one worker the bench also reports "
        "the sequential-vs-parallel wall-clock speedup",
    )


def run_with_speedup(run, workers: int, **kwargs):
    """Run an experiment driver, reporting parallel speedup when asked.

    With ``workers`` in {0, >1}, times the sequential reference first and
    the *workers*-process run second and prints the wall-clock speedup.
    Returns the **sequential** rows: both runs produce identical rows by
    the executor's determinism contract except for per-point timing
    fields, which on a saturated pool measure core contention — the
    emitted tables must keep the uncontended timings.
    """
    from repro.parallel import resolve_workers

    pool_size = resolve_workers(workers)
    if pool_size <= 1:
        return run(workers=1, **kwargs)
    started = time.perf_counter()
    rows = run(workers=1, **kwargs)
    sequential = time.perf_counter() - started
    started = time.perf_counter()
    run(workers=pool_size, **kwargs)
    parallel = time.perf_counter() - started
    print(
        f"\n  wall clock: sequential {sequential:.2f}s, "
        f"{pool_size} workers {parallel:.2f}s, speedup {sequential / parallel:.2f}x"
    )
    return rows


def _json_value(value: object) -> object:
    """A JSON-serializable mirror of one table cell."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)  # NumPy scalars
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def emit_table(name: str, title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Print a table and persist it under ``benchmarks/results/``.

    Writes both the human-readable ``<name>.txt`` and a machine-readable
    ``<name>.json`` (``{"bench", "title", "headers", "rows"}``), so the
    perf trajectory across PRs can be diffed/plotted without re-parsing
    aligned-column text.
    """
    table = f"{title}\n{format_table(headers, rows)}\n"
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(table)
    payload = {
        "bench": name,
        "title": title,
        "headers": list(headers),
        "rows": [[_json_value(value) for value in row] for row in rows],
    }
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return table


def fmt(value: float, digits: int = 3) -> str:
    """Format a float; NaN renders as the paper's ``o.o.t`` marker."""
    if value != value:  # NaN
        return "o.o.t"
    return f"{value:.{digits}f}"
