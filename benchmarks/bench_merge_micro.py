"""Merge-evaluation microbenchmark: per-pair pricing vs the fused kernel.

Times the inner kernel of the whole summarizer — evaluating candidate
merge pairs (Eq. 10/11) — at group level, isolated from sampling,
thresholds, and shingles: the same drawn pairs are priced once through
``CostModel.evaluate_merge`` (one fused Python pass per pair, what the
scalar Alg. 2 oracle in ``tests/_merge_oracle.py`` calls) and once
through ``BatchCostEvaluator.evaluate_scores`` (the fused join/reduce
kernel the merge loop calls), on identity summaries of graphs with
increasing density.  The per-pair pass costs ~0.3–0.5 µs per gathered
element in Python; the fused kernel prices a whole window in
single-digit numpy calls, so it wins at *every* row length.

The second table backs the call-floor claim with a measurement instead
of an assertion: a counting shim proxies the ``np`` module binding
inside ``repro.core.batch`` / ``repro.core.pricing`` and counts every
numpy-API call (functions, ufuncs, and ufunc methods; ndarray
methods/operators dispatch through C slots the shim cannot see and carry
no Python-level dispatch overhead) issued by one warm ``evaluate_scores``
call over a speculative window's pairs, deduplicated as
``repro.core.merge.merge_groups`` deduplicates them.  The budget is ≤ 10
calls per window.

The pair draws come from the oracle's ``_sample_pairs``; this script
puts ``tests/`` on ``sys.path`` to import it.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

import numpy as np
from _util import bench_main, emit_table

from repro.core import BatchCostEvaluator, CostModel, PersonalizedWeights, SummaryGraph
from repro.core import batch as batch_module
from repro.core import pricing as pricing_module
from repro.graph import barabasi_albert

TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)
from _merge_oracle import _sample_pairs

#: (label, num_nodes, ba_m) — increasing density, hence row length.
SCENARIOS = [
    ("sparse (m=3)", 1500, 3),
    ("medium (m=8)", 1500, 8),
    ("dense (m=20)", 1500, 20),
    ("very dense (m=40)", 1500, 40),
]

SMOKE_SCENARIOS = [("sparse (m=3)", 120, 3), ("dense (m=8)", 120, 8)]

#: (label, num_groups, group_size) window shapes for the call counter:
#: one attempt per group, drawn over that group's members.
WINDOW_SHAPES = [
    ("1 attempt × 24", 1, 24),
    ("8 attempts × 24", 8, 24),
    ("32 attempts × 12", 32, 12),
]


class _CountingUfuncMethod:
    """Wraps one ufunc method (or the ufunc itself), bumping the counter."""

    def __init__(self, target, shim):
        self._target = target
        self._shim = shim

    def __call__(self, *args, **kwargs):
        self._shim.calls += 1
        return self._target(*args, **kwargs)


class _CountingUfunc:
    """A ufunc proxy: ``np.fmax(...)`` and ``np.fmax.reduceat(...)`` count."""

    def __init__(self, ufunc, shim):
        self._ufunc = ufunc
        self._shim = shim

    def __call__(self, *args, **kwargs):
        self._shim.calls += 1
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        value = getattr(self._ufunc, name)
        if callable(value):  # reduce / reduceat / accumulate / outer / at
            return _CountingUfuncMethod(value, self._shim)
        return value


class NumpyCallCounter:
    """Counts numpy-API calls made through a module's ``np`` binding.

    Functions, ufuncs, and ufunc methods count; plain attributes and
    scalar/dtype types (``np.int64`` et al. must stay usable as ``dtype=``
    arguments) do not, and neither does anything dispatched via ndarray
    methods/operators — those run through C slots with no numpy
    Python-API dispatch.
    """

    calls = 0

    def __getattr__(self, name):
        value = getattr(np, name)
        if isinstance(value, np.ufunc):
            return _CountingUfunc(value, self)
        if callable(value) and not isinstance(value, type):
            return _CountingUfuncMethod(value, self)
        return value


@contextlib.contextmanager
def counting_numpy():
    """Swap the fused kernel's ``np`` binding for a counting shim."""
    shim = NumpyCallCounter()
    saved = (batch_module.np, pricing_module.np)
    batch_module.np = pricing_module.np = shim  # type: ignore[assignment]
    try:
        yield shim
    finally:
        batch_module.np, pricing_module.np = saved


def _window_pairs(attempts):
    """A window's distinct ordered pairs, deduplicated as ``merge_groups`` does.

    Per attempt, the first occurrence of each unordered index pair keeps
    its orientation; across the window, each ordered supernode pair is
    priced once.
    """
    priced = set()
    a_ids, b_ids = [], []
    for members, first, second in attempts:
        seen = set()
        for i, j in zip(first.tolist(), second.tolist()):
            key = (i, j) if i < j else (j, i)
            if key in seen:
                continue
            seen.add(key)
            pair = (int(members[i]), int(members[j]))
            if pair not in priced:
                priced.add(pair)
                a_ids.append(pair[0])
                b_ids.append(pair[1])
    return np.asarray(a_ids, dtype=np.int64), np.asarray(b_ids, dtype=np.int64)


def run_window_calls(shapes=WINDOW_SHAPES, *, num_nodes: int = 600, m: int = 4):
    """Numpy-API calls issued by one warm ``evaluate_scores`` per window shape."""
    graph = barabasi_albert(num_nodes, m, seed=0)
    rows = []
    for label, num_groups, group_size in shapes:
        summary = SummaryGraph(graph)
        model = CostModel(summary, PersonalizedWeights.uniform(graph))
        evaluator = BatchCostEvaluator(model)
        rng = np.random.default_rng(7)
        attempts = []
        for g in range(num_groups):
            members = np.arange(
                g * group_size, (g + 1) * group_size, dtype=np.int64
            )
            first, second = _sample_pairs(group_size, group_size, rng)
            attempts.append((members, first, second))
        a_ids, b_ids = _window_pairs(attempts)
        evaluator.evaluate_scores(a_ids, b_ids)  # warm: row exports + scratch
        with counting_numpy() as shim:
            evaluator.evaluate_scores(a_ids, b_ids)
        rows.append((label, num_groups * group_size, int(a_ids.size), shim.calls))
    return rows


def _draw_pairs(count: int, rounds: int, rng: np.random.Generator):
    """Deduplicated sampled pairs over a group of the first *count* nodes."""
    members = np.arange(count, dtype=np.int64)
    firsts, seconds = [], []
    for _ in range(rounds):
        first, second = _sample_pairs(count, count, rng)
        firsts.append(first)
        seconds.append(second)
    first = np.concatenate(firsts)
    second = np.concatenate(seconds)
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    _, keep = np.unique(lo * np.int64(count) + hi, return_index=True)
    keep = np.sort(keep)
    return members[first[keep]], members[second[keep]]


def run_rows(scenarios, *, group_size: int = 64, repeats: int = 3):
    rows = []
    for label, num_nodes, m in scenarios:
        graph = barabasi_albert(num_nodes, m, seed=0)
        summary = SummaryGraph(graph)
        weights = PersonalizedWeights.uniform(graph)
        model = CostModel(summary, weights)
        evaluator = BatchCostEvaluator(model)
        rng = np.random.default_rng(1)
        a_ids, b_ids = _draw_pairs(min(group_size, num_nodes), 4, rng)
        elements = int(
            sum(len(model.block_edge_weights(int(s))) for s in a_ids)
            + sum(len(model.block_edge_weights(int(s))) for s in b_ids)
        )

        best_scalar = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for a, b in zip(a_ids.tolist(), b_ids.tolist()):
                model.evaluate_merge(a, b)
            best_scalar = min(best_scalar, time.perf_counter() - started)

        evaluator.evaluate_scores(a_ids, b_ids)  # warm the row store
        best_batch = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            delta, relative = evaluator.evaluate_scores(a_ids, b_ids)
            best_batch = min(best_batch, time.perf_counter() - started)

        # The two paths must agree bit for bit — a microbenchmark that
        # compares diverging pricings measures nothing.
        probe = model.evaluate_merge(int(a_ids[0]), int(b_ids[0]))
        assert probe.delta == delta[0] and probe.relative_delta == relative[0]

        pairs = int(a_ids.size)
        rows.append(
            (
                label,
                pairs,
                elements // max(pairs, 1),
                int(pairs / best_scalar),
                int(pairs / best_batch),
                best_scalar / best_batch,
            )
        )
    return rows


def _emit(rows, title_suffix=""):
    return emit_table(
        "merge_micro",
        "Merge-pair evaluation: per-pair evaluate_merge vs fused evaluate_scores"
        + title_suffix,
        ["Scenario", "Pairs", "Elems/pair", "Scalar pairs/s", "Batch pairs/s", "Speedup"],
        [
            (label, pairs, elems, scalar, batch, f"{speedup:.2f}x")
            for label, pairs, elems, scalar, batch, speedup in rows
        ],
    )


def _emit_calls(rows, title_suffix=""):
    return emit_table(
        "merge_micro_calls",
        "Numpy-API calls per warm evaluate_scores over a window's pairs "
        "(counting shim over the fused kernel's np binding)" + title_suffix,
        ["Window", "Samples", "Pairs priced", "Numpy calls"],
        rows,
    )


def test_merge_micro(benchmark):
    rows = benchmark.pedantic(run_rows, args=(SCENARIOS,), rounds=1, iterations=1)
    _emit(rows)
    by_label = {label: speedup for label, _, _, _, _, speedup in rows}
    # The fused kernel must win across the whole density range, the
    # sparse end included.
    assert by_label["very dense (m=40)"] >= 1.5
    assert by_label["dense (m=20)"] >= 1.2
    assert by_label["sparse (m=3)"] >= 1.1


def test_window_call_budget():
    rows = run_window_calls()
    _emit_calls(rows)
    # The call floor: a whole window prices in single-digit numpy calls
    # (a per-attempt evaluator issued ~100).
    for label, _samples, _pairs, calls in rows:
        assert calls <= 10, f"{label}: {calls} numpy calls per window"


def _run_table(args) -> None:
    scenarios = SMOKE_SCENARIOS if args.smoke else SCENARIOS
    rows = run_rows(scenarios, repeats=1 if args.smoke else 3)
    _emit(rows, title_suffix=" [smoke]" if args.smoke else "")
    shapes = WINDOW_SHAPES[:2] if args.smoke else WINDOW_SHAPES
    calls = run_window_calls(shapes, num_nodes=200 if args.smoke else 600)
    _emit_calls(calls, title_suffix=" [smoke]" if args.smoke else "")


def main(argv: "list[str] | None" = None) -> int:
    return bench_main(
        argv,
        _run_table,
        description="Group-level merge-evaluation microbenchmark (per-pair vs fused).",
    )


if __name__ == "__main__":
    raise SystemExit(main())
