"""The scalar Alg. 2 loop: the reference the production merge engine replays.

Production merges through one function,
:func:`repro.core.merge.merge_groups`, which resolves speculative windows
of attempts against an epoch-scoped cache of fused pair pricings
(:class:`~repro.core.batch.BatchCostEvaluator`).  This module keeps the
paper's loop as written — one :func:`_sample_pairs` draw per attempt and
one ``CostModel.evaluate_merge`` call per distinct sampled pair, through
the same :func:`repro.core.merge._scalar_attempt` the engine falls back
to on unclean rows — so the equivalence suites and the merge benches
can hold the engine to it bit for bit:

* :func:`merge_within_group` runs Alg. 2 on one candidate group;
* :func:`merge_groups` runs it over one iteration's groups, in order;
* :func:`scalar_engine` swaps :func:`merge_groups` in for
  ``repro.core.pegasus.merge_groups``, so ``summarize`` and
  ``ssumm_summarize`` run on the oracle without a knob.

Under pytest, ``tests/`` is on ``sys.path`` (its ``conftest.py`` puts it
there), so suites import this as ``from _merge_oracle import ...``; the
merge benches in ``benchmarks/`` put ``tests/`` on ``sys.path``
themselves.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.core import pegasus
from repro.core.costs import CostModel
from repro.core.merge import OBJECTIVES, GroupMergeStats, _scalar_attempt
from repro.core.threshold import ThresholdPolicy


def _sample_pairs(
    size: int, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """*count* uniform pairs of distinct indices below *size* (with repeats).

    Two generator calls per attempt is the repo's pinned draw pattern:
    a single flat draw over the ordered-pair space would be ~2.5×
    cheaper and equally uniform, but it changes the random stream —
    and with it every downstream merge — which the integration suite's
    absolute quality pins (fig7) do not allow.  The engine's window
    sampler (``repro.core.merge._draw_window``) draws this exact stream
    for a whole window of attempts in one ``integers`` call.
    """
    first = rng.integers(0, size, size=count)
    second = rng.integers(0, size - 1, size=count)
    second = second + (second >= first)
    return first, second


def merge_within_group(
    cost_model: CostModel,
    group: "np.ndarray | List[int]",
    threshold: ThresholdPolicy,
    rng: np.random.Generator,
    *,
    objective: str = "relative",
) -> GroupMergeStats:
    """Run Alg. 2 on one candidate group; mutates the summary via *cost_model*.

    Until one supernode remains or ``log2|C_i|`` attempts fail in a row:
    draw ``|C_i|`` pairs, price each distinct index pair with
    ``evaluate_merge`` (first occurrence wins the ``seen`` set), and
    merge the first-wins best pair if its score clears ``threshold.value``;
    otherwise record the score on the threshold.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    use_relative = objective == "relative"
    members: List[int] = [int(x) for x in group]
    stats = GroupMergeStats()
    failures = 0
    while len(members) > 1 and failures <= math.log2(len(members)):
        stats.attempts += 1
        count = len(members)
        first, second = _sample_pairs(count, count, rng)
        evaluated = _scalar_attempt(cost_model, members, first, second, use_relative, stats)
        if evaluated is None:
            break
        best_plan, best_score = evaluated
        if best_score >= threshold.value:
            union = cost_model.apply_merge(best_plan)
            dead = best_plan.b if union == best_plan.a else best_plan.a
            members.remove(dead)
            stats.merges += 1
            failures = 0
        else:
            threshold.record(best_score)
            failures += 1
    return stats


def merge_groups(
    cost_model: CostModel,
    groups: "Iterable[np.ndarray | List[int]]",
    threshold: ThresholdPolicy,
    rng: np.random.Generator,
    *,
    objective: str = "relative",
) -> GroupMergeStats:
    """Run Alg. 2 over one iteration's candidate groups, one after another."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    stats = GroupMergeStats()
    for group in groups:
        one = merge_within_group(cost_model, group, threshold, rng, objective=objective)
        stats.merges += one.merges
        stats.attempts += one.attempts
        stats.evaluations += one.evaluations
    return stats


def _swapped_merge_groups(cost_model, groups, threshold, rng, *, evaluator, objective="relative"):
    """``repro.core.merge.merge_groups``'s signature over the oracle.

    The evaluator ``summarize`` built is left unused: the oracle merges
    through the cost model directly, and nothing reads the evaluator
    after the merge phase.
    """
    return merge_groups(cost_model, groups, threshold, rng, objective=objective)


@contextlib.contextmanager
def scalar_engine() -> Iterator[None]:
    """Run ``summarize`` (and everything built on it) on the scalar oracle."""
    saved = pegasus.merge_groups
    pegasus.merge_groups = _swapped_merge_groups
    try:
        yield
    finally:
        pegasus.merge_groups = saved
