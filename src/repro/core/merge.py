"""The merging-and-addition step (Alg. 2 of the paper).

Within one candidate group, PeGaSus repeatedly

1. samples ``|C_i|`` random supernode pairs from the group,
2. evaluates the relative cost reduction (Eq. 11) of each and keeps the
   best pair,
3. merges the best pair if its reduction clears the threshold ``θ``
   (with the union's superedges chosen to minimize its cost, line 9),
   otherwise records the rejected value for adaptive thresholding,

until one supernode remains or ``log2|C_i|`` merge attempts fail in a row.

The ablation of Sect. III-B (relative Eq. 11 vs absolute Eq. 10 criterion)
is exposed via ``objective=``.

This loop is storage-backend-agnostic: it talks to the summary only
through the :class:`~repro.core.costs.CostModel`, and it consumes the RNG
in a fixed pattern (one :func:`_sample_pairs` draw per attempt).  Given
the same seed, the same candidate groups, and the same cost arithmetic,
it therefore replays the same merges on the dict and flat backends —
the property the cross-backend equivalence and determinism suites pin
down (``tests/core/test_backend_equivalence.py``).

Two evaluation engines drive step 2:

* the **scalar** engine (:func:`merge_within_group` without an
  evaluator) — one ``evaluate_merge`` call per sampled pair, with a
  ``seen``-set skipping duplicate index pairs; and
* the **batch** engine (:func:`merge_groups` with a
  :class:`~repro.core.batch.BatchCostEvaluator`) — *speculative windows
  over an epoch-scoped score cache*.  A failed merge attempt mutates
  nothing: the block rows, the superedge bit price ``2·log2|S|``, and
  hence every candidate pair's score are frozen between two committed
  merges (one *epoch*).  The batch loop therefore draws a window of up
  to :data:`WINDOW_MAX_ATTEMPTS` attempts ahead (in bulk, see below),
  prices the window's **not-yet-cached ordered pairs in one pass**
  through the fused columnar kernel
  (:meth:`~repro.core.batch.BatchCostEvaluator.evaluate_scores`) into a
  pair→score dictionary, and then resolves the attempts sequentially
  against the threshold as pure dictionary lookups — the scalar
  ``seen``-set / first-wins scan with ``evaluate_merge`` replaced by a
  cached double.  A committed merge ends the epoch (``|S|`` shrinks, so
  the bit price changes globally): the cache is dropped and the RNG is
  rewound to just after the committing attempt's draw, so the
  not-yet-consumed speculative draws never happened as far as the
  random stream is concerned.

The batch window's pairs come from a **bulk sampler**
(:func:`_draw_window`): one ``rng.integers`` call with an array of
bounds draws every attempt's firsts and seconds.  numpy draws an array
bound element by element with the same bounded routine, over the same
32-bit stream, as the per-attempt ``integers(0, bound, size=count)``
calls of :func:`_sample_pairs` (a bound of 1 consumes nothing, a
rejected draw is redrawn in place), so the window is exactly their
stream on every bit generator.  A rewind restores the one window-start
state and redraws the window's bounds up to the deciding attempt — one
snapshot per window instead of one per attempt.

Both engines replay byte-identical merges for the same seed: the batch
path consumes the RNG identically (the stream of one
:func:`_sample_pairs` draw per resolved attempt, in attempt order, with
dict-equal generator state after every window — speculation is always
rewound), dedups index pairs with the same first-occurrence ``seen``-set
semantics, evaluates with bit-identical arithmetic (the cache holds the
same doubles the scalar pass computes, priced once per ordered pair per
epoch), selects per attempt with the same first-wins maximum, and
records the same rejected scores on the threshold
(``tests/core/test_engine_equivalence.py``,
``tests/core/test_window_sampler.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.core.batch import BatchCostEvaluator
from repro.core.costs import CostModel, MergePlan
from repro.core.threshold import ThresholdPolicy
from repro.obs.profile import count as _obs_count, probe

OBJECTIVES = ("relative", "absolute")

#: Speculative-window ramp (in attempts): each window that resolves
#: without a merge doubles the next one, a committed merge halves it.
#: Stalled phases (no merges for many attempts) thereby amortize one
#: fused pricing pass over up to :data:`WINDOW_MAX_ATTEMPTS` attempts,
#: while merge-dense phases shrink back to the floor so little
#: speculative drawing is wasted.  The sample cap bounds a single
#: window's memory.  The ramp is pure performance policy: the engines
#: replay bit-identical merges for *any* window sizing, because
#: un-consumed speculative draws are always rewound.
WINDOW_MIN_ATTEMPTS = 1
WINDOW_MAX_ATTEMPTS = 64
WINDOW_MAX_SAMPLES = 16384

#: Miss batches of at most this many pairs are priced through the shared
#: pricing core's Python entry point (:meth:`CostModel.evaluate_merge`)
#: instead of its numpy entry point — below it, numpy's fixed dispatch
#: cost exceeds the whole batch's arithmetic.  Both entry points compute
#: the same IEEE-754 doubles (the bit-identity contract of
#: :mod:`repro.core.pricing`), so the cutoff is pure dispatch-cost
#: policy, invisible in every output.
SMALL_MISS_PAIRS = 32


@dataclass
class GroupMergeStats:
    """Counters from processing one candidate group (or one iteration)."""

    merges: int = 0
    attempts: int = 0
    evaluations: int = 0


def _sample_pairs(
    size: int, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """*count* uniform pairs of distinct indices below *size* (with repeats).

    Two generator calls per attempt is the repo's pinned draw pattern:
    a single flat draw over the ordered-pair space would be ~2.5×
    cheaper and equally uniform, but it changes the random stream —
    and with it every downstream merge — which the integration suite's
    absolute quality pins (fig7) do not allow.  The batch engine's
    window sampler (:func:`_draw_window`) draws this exact stream for a
    whole window of attempts in one ``integers`` call.
    """
    first = rng.integers(0, size, size=count)
    second = rng.integers(0, size - 1, size=count)
    second = second + (second >= first)
    return first, second


#: One speculative window's draws: per attempt, the ``(first, second)``
#: index lists :func:`_sample_pairs` would return, plus a rewinder that
#: puts the generator just after attempt ``k``'s draw (from anywhere).
_WindowDraws = Tuple[List[Tuple[List[int], List[int]]], Callable[[int], None]]


def _draw_window(rng: np.random.Generator, sizes: List[int]) -> _WindowDraws:
    """Draw one attempt of ``(size, size)`` pairs per entry of *sizes*.

    The draws, and the generator state after the window or any rewind,
    are those of one :func:`_sample_pairs` call per attempt.  The whole
    window is one ``integers`` call over an array of bounds in the
    per-call order (per attempt, ``size`` draws under ``size``, then
    ``size`` under ``size - 1``), which numpy draws element by element
    with the bounded routine and 32-bit stream of the per-call draws: a
    bound of 1 consumes nothing and a rejected draw is redrawn in place.
    A rewind restores the window-start state and redraws the bounds up
    to the attempt.
    """
    bit_generator = rng.bit_generator
    start = bit_generator.state
    block = np.repeat(sizes, 2)  # per attempt: `size` firsts, `size` seconds
    bounds = np.repeat(block - [0, 1] * len(sizes), block)
    values: List[int] = rng.integers(0, bounds).tolist()
    draws: List[Tuple[List[int], List[int]]] = []
    ends: List[int] = []  # draws from the window start through each attempt
    at = 0
    for size in sizes:
        first = values[at:at + size]
        second = values[at + size:at + 2 * size]
        at += 2 * size
        ends.append(at)
        draws.append((first, [j + (j >= i) for i, j in zip(first, second)]))

    def rewind(k: int) -> None:
        bit_generator.state = start
        rng.integers(0, bounds[:ends[k]])

    return draws, rewind


def _scalar_attempt(
    cost_model: CostModel,
    members: List[int],
    first: np.ndarray,
    second: np.ndarray,
    use_relative: bool,
    stats: GroupMergeStats,
) -> "Tuple[MergePlan, float] | None":
    """One attempt's scalar evaluation: dedup, evaluate, first-wins max."""
    with probe("merge.scalar_attempt"):
        best_plan: "MergePlan | None" = None
        best_score = -math.inf
        seen = set()
        for i, j in zip(first.tolist(), second.tolist()):
            key = (i, j) if i < j else (j, i)
            if key in seen:
                continue
            seen.add(key)
            plan = cost_model.evaluate_merge(members[i], members[j])
            stats.evaluations += 1
            score = plan.relative_delta if use_relative else plan.delta
            if score > best_score:
                best_score = score
                best_plan = plan
        if best_plan is None:  # all scores NaN: impossible, but guard
            return None
        return best_plan, best_score


def _resolve_scalar_attempt(
    cost_model: CostModel,
    evaluator: "BatchCostEvaluator",
    members: List[int],
    first: np.ndarray,
    second: np.ndarray,
    use_relative: bool,
    threshold: ThresholdPolicy,
    stats: GroupMergeStats,
) -> str:
    """Evaluate one drawn attempt with the scalar loop and resolve it.

    The batch engine's commit-or-record protocol for the unclean-row
    fallback (baseline-made summaries whose superedges span edgeless
    blocks): returns ``"merged"``, ``"failed"``, or ``"abort"`` (the NaN
    guard, mirroring the scalar engine's group break).  Merges flow
    through the evaluator so its mirrors stay coherent.
    """
    evaluated = _scalar_attempt(cost_model, members, first, second, use_relative, stats)
    if evaluated is None:
        return "abort"
    best_plan, best_score = evaluated
    if best_score >= threshold.value:
        union = evaluator.apply_merge(best_plan)
        dead = best_plan.b if union == best_plan.a else best_plan.a
        members.remove(dead)
        stats.merges += 1
        return "merged"
    threshold.record(best_score)
    return "failed"


def merge_within_group(
    cost_model: CostModel,
    group: "np.ndarray | List[int]",
    threshold: ThresholdPolicy,
    rng: np.random.Generator,
    *,
    objective: str = "relative",
    evaluator: "BatchCostEvaluator | None" = None,
) -> GroupMergeStats:
    """Run Alg. 2 on one candidate group; mutates the summary via *cost_model*.

    Parameters
    ----------
    cost_model:
        The live :class:`~repro.core.costs.CostModel` (owns the summary).
    group:
        Supernode ids forming the candidate group ``C_i``.
    threshold:
        Threshold policy; its current ``value`` gates merges and failed
        best-candidates are ``record``-ed on it (line 12).
    rng:
        Random generator for pair sampling.
    objective:
        ``"relative"`` (Eq. 11, the paper's choice) or ``"absolute"``
        (Eq. 10, the ablation).
    evaluator:
        Optional :class:`~repro.core.batch.BatchCostEvaluator` built on
        *cost_model*; when given, delegates to :func:`merge_groups` for
        fused vectorized evaluation (byte-identical to the scalar loop).
    """
    if evaluator is not None:
        return merge_groups(
            cost_model, [group], threshold, rng, objective=objective, evaluator=evaluator
        )
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
    evaluator: "BatchCostEvaluator | None" = None,
) -> GroupMergeStats:
    """Run Alg. 2 over one iteration's candidate groups.

    Without an *evaluator* this is exactly the sequential
    ``for group: merge_within_group(...)`` loop.  With one, speculative
    windows of attempts resolve against an epoch-scoped cache of fused
    pair pricings (see the module docstring) — byte-identical outputs,
    vectorized throughput.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    stats = GroupMergeStats()
    if evaluator is None:
        for group in groups:
            one = merge_within_group(
                cost_model, group, threshold, rng, objective=objective
            )
            stats.merges += one.merges
            stats.attempts += one.attempts
            stats.evaluations += one.evaluations
        return stats

    use_relative = objective == "relative"
    glists: List[List[int]] = [[int(x) for x in group] for group in groups]
    num_groups = len(glists)
    gpos = 0  # current group index
    failures = 0  # current group's consecutive-failure count
    window_attempts = WINDOW_MIN_ATTEMPTS
    #: The epoch cache: ordered pair (a, b) of supernode ids -> the score
    #: CostModel.evaluate_merge(a, b) would report.  Every entry is
    #: frozen until the next committed merge, which drops the whole cache
    #: (the merge shrinks |S|, repricing every superedge bit globally).
    pair_scores: Dict[Tuple[int, int], float] = {}

    while gpos < num_groups:
        count = len(glists[gpos])
        # `failures > log2(count)` without the float round-trip.
        if count < 2 or (1 << failures) > count:
            gpos += 1
            failures = 0
            continue

        # ---- plan one speculative window of attempts and draw it, so
        # that any attempt invalidated by an earlier commit can be
        # rewound (= never drawn).  The walk mirrors the sequential
        # loop's group advancement under the assumption that every
        # attempt fails — the common case; a commit discards the rest of
        # the window.
        window_groups: List[int] = []  # group index of each attempt
        sizes: List[int] = []
        p, fail = gpos, failures
        drawn = 0
        while p < num_groups:
            p_count = len(glists[p])
            if p_count < 2 or (1 << fail) > p_count:
                p += 1
                fail = 0
                continue
            if len(window_groups) >= window_attempts or drawn >= WINDOW_MAX_SAMPLES:
                break
            window_groups.append(p)
            sizes.append(p_count)
            drawn += p_count
            fail += 1
        end_state = (p, fail)
        with probe("merge.sample"):
            draws, rewind = _draw_window(rng, sizes)
        _obs_count("repro_merge_attempts_total", len(window_groups), kind="drawn")

        # ---- dedup each attempt to the scalar seen-set semantics and
        # collect the window's not-yet-priced ordered pairs (the cache
        # key is the ordered supernode-id pair: orientation decides the
        # scalar accumulation order, and a commit clears the cache, so
        # entries never go stale).
        py_specs: List[Tuple[int, List[Tuple[int, int]]]] = []
        miss_a: List[int] = []
        miss_b: List[int] = []
        window_miss: set = set()
        for spec_p, (first, second) in zip(window_groups, draws):
            ids = glists[spec_p]
            seen = set()
            pairs: List[Tuple[int, int]] = []
            for i, j in zip(first, second):
                key = (i, j) if i < j else (j, i)
                if key in seen:
                    continue
                seen.add(key)
                pairs.append((i, j))
                pkey = (ids[i], ids[j])
                if pkey in pair_scores or pkey in window_miss:
                    continue
                window_miss.add(pkey)
                miss_a.append(pkey[0])
                miss_b.append(pkey[1])
            py_specs.append((spec_p, pairs))

        # ---- price every miss in one fused pass (tiny batches through
        # the pricing core's Python entry point — same bits, no numpy
        # dispatch floor).
        if miss_a and len(miss_a) <= SMALL_MISS_PAIRS:
            if use_relative:
                for k in range(len(miss_a)):
                    pair_scores[(miss_a[k], miss_b[k])] = cost_model.evaluate_merge(
                        miss_a[k], miss_b[k]
                    ).relative_delta
            else:
                for k in range(len(miss_a)):
                    pair_scores[(miss_a[k], miss_b[k])] = cost_model.evaluate_merge(
                        miss_a[k], miss_b[k]
                    ).delta
        elif miss_a:
            scored = evaluator.evaluate_scores(
                np.asarray(miss_a, dtype=np.int64), np.asarray(miss_b, dtype=np.int64)
            )
            if scored is None:
                # Unclean rows (baseline-made summary): rewind the
                # speculation and price the first attempt with the
                # scalar loop instead.
                if len(window_groups) > 1:
                    with probe("merge.sample"):
                        rewind(0)
                window_attempts = WINDOW_MIN_ATTEMPTS
                first, second = draws[0]
                outcome = _resolve_scalar_attempt(
                    cost_model, evaluator, glists[window_groups[0]],
                    np.asarray(first), np.asarray(second),
                    use_relative, threshold, stats,
                )
                _obs_count("repro_merge_attempts_total", 1, kind="resolved")
                if outcome == "abort":
                    gpos += 1
                    failures = 0
                elif outcome == "merged":
                    pair_scores.clear()
                    failures = 0
                else:
                    failures += 1
                continue
            delta, relative = scored
            col = (relative if use_relative else delta).tolist()
            for k in range(len(miss_a)):
                pair_scores[(miss_a[k], miss_b[k])] = col[k]

        # ---- resolve the attempts sequentially against the threshold:
        # the scalar first-wins scan over each attempt's deduplicated
        # pairs, with evaluate_merge replaced by a cache lookup.
        committed = -1
        aborted = -1
        for k, (spec_p, pairs) in enumerate(py_specs):
            stats.attempts += 1
            stats.evaluations += len(pairs)
            ids = glists[spec_p]
            best_score = -math.inf
            best_i = -1
            best_j = 0
            for i, j in pairs:
                score = pair_scores[(ids[i], ids[j])]
                if score > best_score:
                    best_score = score
                    best_i = i
                    best_j = j
            if best_i < 0:  # all scores NaN: impossible, but guard
                aborted = k
                break
            if best_score >= threshold.value:
                # Only a committing merge needs the full plan (chosen
                # superedges); rebuild it with one scalar evaluation —
                # bit-identical by the shared-arithmetic contract.
                plan = cost_model.evaluate_merge(ids[best_i], ids[best_j])
                union = evaluator.apply_merge(plan)
                dead = plan.b if union == plan.a else plan.a
                ids.remove(dead)
                pair_scores.clear()  # the epoch ended
                stats.merges += 1
                committed = k
                break
            threshold.record(best_score)

        if committed < 0 and aborted < 0:
            # The whole window failed: the construction walk's end state
            # is exactly where sequential processing stands; speculate
            # further next time (AIMD increase).
            _obs_count("repro_merge_attempts_total", len(window_groups), kind="resolved")
            gpos, failures = end_state
            window_attempts = min(window_attempts * 2, WINDOW_MAX_ATTEMPTS)
            continue
        # A commit (or the NaN guard) invalidates the un-resolved tail of
        # the window: rewind the RNG to just after the deciding attempt's
        # draw, so the speculative draws never happened.
        k = committed if committed >= 0 else aborted
        _obs_count("repro_merge_attempts_total", k + 1, kind="resolved")
        if k + 1 < len(window_groups):
            with probe("merge.sample"):
                rewind(k)
        if committed >= 0:
            gpos = py_specs[k][0]
            failures = 0
            window_attempts = max(window_attempts // 2, WINDOW_MIN_ATTEMPTS)
        else:
            gpos = py_specs[k][0] + 1
            failures = 0
    return stats
