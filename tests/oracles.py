"""Reference implementations the tests compare the engines against.

:func:`norm_slow` is the norm of a norming-set engine by explicit
pairings, one functional at a time.  The coding-function engines (``zmr``,
``zrud``) evaluate their norms in closed form.  Their reference here
enumerates each tuple family on the support (``mr.zmr_functionals``,
``mr.zrud_functionals``) and pairs every member with the vector in
:func:`norm_slow`.  Nothing here uses the engines' closed-form rows.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from rudlab.coeffs import Coeffs, NormingFunctional, pair
from rudlab.exactnum import QSum, Scalar, sqrt_exact
from rudlab.mr import MrContext, zmr_functionals, zrud_functionals
from rudlab.spaces import NormingSetSpace

_ENUMERATORS = {"zmr": zmr_functionals, "zrud": zrud_functionals}


@functools.lru_cache(maxsize=256)
def family(space: NormingSetSpace, support: tuple[int, ...]) -> list[NormingFunctional]:
    """The family of a norming-set engine restricted to ``support``, listed
    once per engine and support."""
    return space._family(tuple(support))


def norm_slow(space: NormingSetSpace, a: Coeffs) -> Scalar:
    """The norm of ``a`` on a norming-set engine by explicit pairings: the
    largest |<phi, a>| over the family on its support, no batching."""
    best: Scalar = 0
    for phi in family(space, a.support):
        v = abs(pair(phi, a))
        if isinstance(v, QSum) or isinstance(best, QSum):
            if (QSum.of(v) - QSum.of(best)).sign() > 0:
                best = v
        elif v > best:
            best = v
    return best


@functools.lru_cache(maxsize=None)
def coding_reference(ctx: MrContext, name: str) -> NormingSetSpace:
    """The norming-set engine over the enumerated ``zmr`` or ``zrud``
    family of ``ctx``, one per context and name, so that each support's
    family is listed once."""
    enumerate_family = _ENUMERATORS[name]
    return NormingSetSpace(f"{name}:reference", lambda sup: enumerate_family(ctx, sup))


def reference(factory, spec: str):
    """The engine whose :func:`norm_slow` and :func:`family` are the oracle
    for ``factory.space(spec)``: the enumerated family for ``zmr`` and
    ``zrud``, the engine itself for a norming-set spec."""
    if spec in _ENUMERATORS:
        return coding_reference(factory.mr_context, spec)
    space = factory.space(spec)
    assert isinstance(space, NormingSetSpace), spec
    return space


def _weight(card: int) -> QSum:
    return QSum({1: Fraction(1)}) / sqrt_exact(card)


def _greedy_fill(block_units: list[tuple[Scalar, int]], budget: int) -> Scalar:
    """Largest sum of at most ``budget`` unit slots with positive values;
    ``block_units`` holds (slot value, slot count) per block, exact."""

    def cmp(x, y):
        return (QSum.of(x[0]) - QSum.of(y[0])).sign()

    total: Scalar = 0
    left = budget
    for val, count in sorted(block_units, key=functools.cmp_to_key(cmp), reverse=True):
        if left <= 0 or QSum.of(val).sign() <= 0:
            break
        take = min(left, count)
        total = total + val * take
        left -= take
    return total


def zrud_block_norm(ctx: MrContext, a_blocks: list) -> Scalar:
    """Exact divergence-side norm of sum_j a_j x_j over the canonical
    blocks, in closed form: the oracle for the zrud engine on the block
    support, where the enumerated family is refused.

    Entries are constant on each block, so the supremum over each tail
    family reduces to a slot-allocation problem across blocks; balanced
    decorations pair to zero against full blocks and only the capped tails
    contribute.  Cross-checked against the explicit family enumeration at
    small scale.  It assumes width 0 (``ctx.width``): balanced decorations
    and tails capped at ``tail_card // 2`` entries of each sign.
    """
    n = len(a_blocks)
    blocks = ctx.canonical_blocks(n)
    entry: dict[int, Scalar] = {}
    values: list[Scalar] = []
    for a, s in zip(a_blocks, blocks):
        e = _weight(len(s)) * Fraction(a)
        values.append(e)
        for i in s:
            entry[i] = e
    cands: list[Scalar] = [abs(QSum.of(e)) for e in values]  # coordinate functionals
    for fam in ctx.families:
        a_fixed = QSum()
        for s in fam.fixed:
            w = _weight(len(s))
            for i in s:
                if i in entry:
                    a_fixed = a_fixed + w * entry[i]
        avail = [
            (values[j], sum(1 for i in s if i > fam.tail_min))
            for j, s in enumerate(blocks)
        ]
        avail = [(v, c) for v, c in avail if c]
        w = _weight(fam.tail_card)
        pos = _greedy_fill(avail, fam.tail_card)
        neg = _greedy_fill([(QSum.of(v) * -1, c) for v, c in avail], fam.tail_card)
        # undecorated: best tail aligned with either orientation of the prefix
        cands.append(abs(a_fixed + w * pos))
        cands.append(abs(a_fixed - w * neg))
        # decorated: full prefix sets pair to zero, tails capped per sign
        half = fam.tail_card // 2
        dec = _greedy_fill(avail, half) + _greedy_fill(
            [(QSum.of(v) * -1, c) for v, c in avail], half
        )
        cands.append(abs(w * QSum.of(dec)))
    best = max(cands, key=QSum.of)  # the first of equal maxima
    return best.as_fraction() if isinstance(best, QSum) and best.is_rational() else best
