"""The batch engine's window sampler is the per-call stream, exactly.

A speculative window draws every attempt's ``(first, second)`` pairs
with one ``rng.integers`` call over an array of bounds, and rewinds to
an attempt boundary by restoring the window-start state and redrawing
the bounds up to it.  Both must reproduce per-attempt
:func:`_sample_pairs` calls bit for bit and leave
``bit_generator.state`` dict-equal to theirs (PCG64's ``has_uint32``
and dead ``uinteger`` fields included), on every bit generator, whether
the window starts on a buffered 32-bit half or not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveThreshold,
    BatchCostEvaluator,
    CostModel,
    PersonalizedWeights,
    SummaryGraph,
)
from repro.core.merge import _draw_window, _sample_pairs, merge_groups
from repro.graph import barabasi_albert

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SIZES = st.lists(st.integers(2, 500), min_size=1, max_size=20)
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def generator(bit_generator, seed: int, lead: int) -> np.random.Generator:
    """A generator *lead* 32-bit draws in (odd: PCG64 buffers a half)."""
    rng = np.random.Generator(bit_generator(seed))
    # A power-of-two bound takes exactly one 32-bit draw and never rejects.
    rng.integers(0, 1 << 31, size=lead)
    return rng


def plain(state):
    """A generator state with its arrays (MT19937 key, Philox counter) as lists."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def per_call(rng: np.random.Generator, sizes):
    """Per-attempt ``_sample_pairs`` draws and the state after each attempt."""
    draws, states = [], []
    for size in sizes:
        first, second = _sample_pairs(size, size, rng)
        draws.append((first.tolist(), second.tolist()))
        states.append(plain(rng.bit_generator.state))
    return draws, states


class TestWindow:
    @SETTINGS
    @given(
        bit_generator=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32 - 1),
        lead=st.integers(0, 9),
        sizes=SIZES,
    )
    def test_draws_and_state_match_per_call(self, bit_generator, seed, lead, sizes):
        expected, states = per_call(generator(bit_generator, seed, lead), sizes)
        rng = generator(bit_generator, seed, lead)
        if bit_generator is np.random.PCG64:
            assert rng.bit_generator.state["has_uint32"] == lead % 2
        draws, _ = _draw_window(rng, sizes)
        assert draws == expected
        assert plain(rng.bit_generator.state) == states[-1]

    @SETTINGS
    @given(
        bit_generator=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(0, 2**32 - 1),
        lead=st.integers(0, 9),
        sizes=SIZES,
    )
    def test_rewind_to_every_attempt_boundary(self, bit_generator, seed, lead, sizes):
        _, states = per_call(generator(bit_generator, seed, lead), sizes)
        rng = generator(bit_generator, seed, lead)
        _, rewind = _draw_window(rng, sizes)
        for k in reversed(range(len(sizes))):
            rewind(k)
            assert plain(rng.bit_generator.state) == states[k]
        rewind(len(sizes) - 1)
        assert plain(rng.bit_generator.state) == states[-1]

    @pytest.mark.parametrize("lead", [0, 1])
    def test_rejections_redraw_like_per_call_draws(self, lead):
        """The property the window relies on, at a bound just above 2³¹
        where about half of all 32-bit draws hit a Lemire rejection: an
        array of bounds draws what per-bound calls draw, and ends in the
        same state."""
        bound = (1 << 31) + 1
        calls = generator(np.random.PCG64, 8, lead)
        expected = [calls.integers(0, bound, size=n).tolist() for n in (3, 1, 5, 7)]
        window = generator(np.random.PCG64, 8, lead)
        values = window.integers(0, np.full(16, bound)).tolist()
        assert values == [v for chunk in expected for v in chunk]
        assert window.bit_generator.state == calls.bit_generator.state
        # Rejections did happen: 16 draws used more than 16 halves.
        unrejected = generator(np.random.PCG64, 8, lead)
        unrejected.integers(0, 1 << 31, size=16)
        assert window.bit_generator.state != unrejected.bit_generator.state


def run_merges(rng, engine):
    graph = barabasi_albert(160, 4, seed=6)
    summary = SummaryGraph(graph, backend="flat")
    model = CostModel(summary, PersonalizedWeights.uniform(graph))
    threshold = AdaptiveThreshold(beta=0.1, initial=0.2)
    evaluator = BatchCostEvaluator(model) if engine == "batch" else None
    groups = [np.arange(0, 40), np.arange(40, 44), np.arange(44, 90), np.arange(90, 92)]
    stats = merge_groups(model, groups, threshold, rng, evaluator=evaluator)
    return (
        summary.supernode_of.tolist(),
        sorted(summary.superedges()),
        stats,
        threshold.rejected_count,
        plain(rng.bit_generator.state),
    )


class TestMergeGroups:
    @pytest.mark.parametrize("lead", [0, 1, 4, 7])
    def test_batch_matches_scalar_on_advanced_pcg64(self, lead):
        scalar = run_merges(generator(np.random.PCG64, 17, lead), "scalar")
        batch = run_merges(generator(np.random.PCG64, 17, lead), "batch")
        assert batch == scalar
        assert batch[2].merges > 0

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_batch_matches_scalar_on_other_generators(self, bit_generator):
        scalar = run_merges(generator(bit_generator, 23, 3), "scalar")
        batch = run_merges(generator(bit_generator, 23, 3), "batch")
        assert batch == scalar
