"""The fused Eq. 9/10 pricing core shared by every merge-evaluation path.

PeGaSus prices one thing, everywhere: the cost of a supernode block
``{A, X}`` (Eq. 9) and the cost change of replacing two supernodes with
their union under the optimal superedge choice (Eq. 10/11).  Before this
module, that arithmetic lived in three separate implementations — the
scalar ``CostModel.evaluate_merge`` pass, the columnar window kernel in
:mod:`repro.core.batch`, and the vectorized ``superedge_drop_order`` —
and keeping them bit-identical meant auditing three copies of the same
IEEE-754 expressions.  Now there is one core:

* :func:`evaluate_pair` — the scalar reference pass (one fused loop over
  the two endpoints' block-edge-weight rows), consumed by
  :meth:`CostModel.evaluate_merge`.  This *defines* the bit pattern
  every other implementation must reproduce.
* :func:`block_cost_masked` — the columnar Eq. 9 block cost, consumed by
  the batch window kernel for every before-merge term (row elements and
  the ``{a,a}``/``{b,b}``/``{a,b}`` tails alike).
* :func:`merged_cost_masked` — the columnar post-merge cost with the
  optimal superedge choice (Alg. 2 line 9), consumed by the batch window
  kernel for every merged-side term including the self loop.
* :func:`superedge_cost_columns` — the superedge-present branch alone,
  consumed by :meth:`CostModel.superedge_drop_order` (every priced block
  there carries a superedge by construction).

Bitwise-equality contract
-------------------------

The columnar helpers are *branch-free*: instead of ``np.where`` they
select with mask multiplication, ``flag * A + ~flag * B``.  That is
bitwise-equal to the branched scalar expressions because every masked-out
product lands on ``±0.0`` and the kept operand can never be ``-0.0``:

* all inputs are non-negative (``pi``, ``ew``, ``price``, ``se_bits`` are
  weights/bit prices), so products and the kept sums are ``>= +0.0``;
* a finite IEEE-754 subtraction ``x - y`` only produces ``-0.0`` for
  ``(-0.0) - (+0.0)``, which non-negative inputs rule out — in
  round-to-nearest, ``x - x == +0.0``;
* adding ``±0.0`` to any non-``-0.0`` value is the identity, and
  ``+0.0 + -0.0 == +0.0``, so the masked-out terms vanish without
  flipping a single result bit (also the reason the batch kernel may
  feed these outputs to ``np.bincount`` as padding for terms the scalar
  loop never adds).

``tests/core/test_fused_pricing.py`` pins the equality element-for-element
on adversarial inputs; ``tests/core/test_engine_equivalence.py`` pins the
end-to-end consequence (summaries byte-identical to the scalar Alg. 2
oracle's).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (costs imports us)
    from repro.core.costs import CostModel

__all__ = [
    "MergePlan",
    "block_cost_masked",
    "evaluate_pair",
    "merged_cost_masked",
    "superedge_cost_columns",
]


@dataclass
class MergePlan:
    """The outcome of evaluating a candidate merge ``{A, B}`` (Eq. 10/11).

    Attributes
    ----------
    a, b:
        The candidate supernodes.
    delta:
        Absolute cost reduction ``ΔCost`` (Eq. 10), in bits.
    relative_delta:
        Relative reduction ``ΔCost / (Cost_A + Cost_B − Cost_AB)`` (Eq. 11).
    superedges:
        Supernodes ``X`` that should receive a superedge ``{A∪B, X}``.
    self_loop:
        Whether ``A∪B`` should receive a self-loop.
    merged_cost:
        ``Cost_{A∪B}`` after the optimal superedge additions.
    """

    a: int
    b: int
    delta: float
    relative_delta: float
    superedges: List[int] = field(default_factory=list)
    self_loop: bool = False
    merged_cost: float = 0.0


# ----------------------------------------------------------------------
# columnar primitives (the batch kernel's and drop order's element math)
# ----------------------------------------------------------------------
def superedge_cost_columns(
    pi: np.ndarray, ew: np.ndarray, se_bits: float, price: float
) -> np.ndarray:
    """Eq. 9 block cost of superedge-carrying blocks, columnwise.

    ``2·log2|S| + 2·log2|V| · (Π − ew)``: the superedge's own bits plus
    the false-positive corrections on the block's non-edges.
    """
    return se_bits + price * (pi - ew)


def block_cost_masked(
    flag: np.ndarray,
    pi: np.ndarray,
    ew: np.ndarray,
    se_bits: float,
    price: float,
) -> np.ndarray:
    """Eq. 9 block cost, columnwise and branch-free.

    Where ``flag`` (the block carries a superedge) the cost is
    ``se_bits + price·(pi − ew)``; elsewhere it is ``price·ew`` (every
    block edge becomes a false-negative correction).  Bitwise-equal to
    the branched scalar expressions — see the module docstring for why
    the mask products cannot perturb the kept branch.
    """
    keep = ~flag
    return flag * se_bits + price * (flag * (pi - ew) + keep * ew)


def merged_cost_masked(
    pi: np.ndarray, ew: np.ndarray, se_bits: float, price: float
) -> np.ndarray:
    """Post-merge block cost under the optimal superedge choice (line 9).

    Per column: ``min(se_bits + price·(pi − ew), price·ew)`` with the
    scalar pass's strict ``<`` preference for the sparser summary on
    ties, evaluated branch-free (same bitwise argument as
    :func:`block_cost_masked`; the comparison itself is exact).
    """
    with_edge = se_bits + price * (pi - ew)
    without_edge = price * ew
    keep = with_edge < without_edge
    return keep * with_edge + ~keep * without_edge


# ----------------------------------------------------------------------
# the scalar reference pass
# ----------------------------------------------------------------------
def evaluate_pair(cm: "CostModel", a: int, b: int) -> MergePlan:
    """Evaluate merging supernodes *a* and *b* (Eq. 10 and Eq. 11).

    The scalar reference implementation of the pricing core: one fused
    pass over the two endpoints' maintained block-edge-weight rows,
    accumulating the pre-merge cost of every affected block (``before``,
    which is all of ``Cost_A + Cost_B − Cost_AB``) and the post-merge
    cost under the optimal superedge choice (line 9 of Alg. 2; ties
    prefer the sparser summary).  Self blocks ``{a,a}``, ``{b,b}`` and
    the cross block ``{a,b}`` are priced after the loops.

    Every other implementation — the columnar helpers above, hence the
    batch window kernel — must reproduce these accumulation orders and
    expressions bit for bit.
    """
    summary = cm.summary
    se_bits = cm._se_bits
    price = cm._error_bit_price
    sw, sq = cm._sw, cm._sq
    blocks = cm._blocks
    try:
        acc_a = blocks[a]
        acc_b = blocks[b]
    except KeyError as exc:
        raise GraphFormatError(f"supernode {exc.args[0]} does not exist") from None
    adj_a = summary.superedge_neighbors(a)
    adj_b = summary.superedge_neighbors(b)
    s_a = sw[a]
    s_b = sw[b]
    s_m = s_a + s_b
    q_m = sq[a] + sq[b]

    before = 0.0
    merged_cost = 0.0
    chosen: List[int] = []
    ew_aa = 0.0
    ew_bb = 0.0
    ew_ab = 0.0
    get_b = acc_b.get

    for x, ew in acc_a.items():
        if x == a:
            ew_aa = ew
            continue
        if x == b:
            ew_ab = ew
            continue
        sx = sw[x]
        if x in adj_a:
            before += se_bits + price * (s_a * sx - ew)
        else:
            before += price * ew
        ew_b_x = get_b(x, 0.0)
        if ew_b_x:
            if x in adj_b:
                before += se_bits + price * (s_b * sx - ew_b_x)
            else:
                before += price * ew_b_x
            ew = ew + ew_b_x
        elif x in adj_b:
            before += se_bits + price * (s_b * sx)
        with_edge = se_bits + price * (s_m * sx - ew)
        without_edge = price * ew
        if with_edge < without_edge:
            merged_cost += with_edge
            chosen.append(x)
        else:
            merged_cost += without_edge

    in_a = acc_a.__contains__
    for x, ew in acc_b.items():
        if x == b:
            ew_bb = ew
            continue
        if x == a or in_a(x):
            continue
        sx = sw[x]
        if x in adj_b:
            before += se_bits + price * (s_b * sx - ew)
        else:
            before += price * ew
        with_edge = se_bits + price * (s_m * sx - ew)
        without_edge = price * ew
        if with_edge < without_edge:
            merged_cost += with_edge
            chosen.append(x)
        else:
            merged_cost += without_edge

    # Superedges over edgeless blocks (only baseline-made summaries
    # have these; a summarize() run never does).
    for x in adj_a:
        if x != a and x != b and x not in acc_a:
            before += se_bits + price * (s_a * sw[x])
    for x in adj_b:
        if x != a and x != b and x not in acc_b and x not in acc_a:
            before += se_bits + price * (s_b * sw[x])

    if ew_aa or a in adj_a:
        pi = (s_a * s_a - sq[a]) * 0.5
        if a in adj_a:
            before += se_bits + price * (pi - ew_aa)
        else:
            before += price * ew_aa
    if ew_bb or b in adj_b:
        pi = (s_b * s_b - sq[b]) * 0.5
        if b in adj_b:
            before += se_bits + price * (pi - ew_bb)
        else:
            before += price * ew_bb
    if ew_ab or b in adj_a:
        if b in adj_a:
            before += se_bits + price * (s_a * s_b - ew_ab)
        else:
            before += price * ew_ab

    ew_self = ew_aa + ew_bb + ew_ab
    pi_self = (s_m * s_m - q_m) * 0.5
    with_loop = se_bits + price * (pi_self - ew_self)
    without_loop = price * ew_self
    self_loop = with_loop < without_loop
    merged_cost += with_loop if self_loop else without_loop

    delta = before - merged_cost
    relative = delta / before if before > 0.0 else 0.0
    return MergePlan(
        a=a,
        b=b,
        delta=delta,
        relative_delta=relative,
        superedges=chosen,
        self_loop=self_loop,
        merged_cost=merged_cost,
    )

