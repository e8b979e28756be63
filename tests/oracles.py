"""Reference implementations the tests compare the engines against.

:func:`norm_slow` is the norm of a norming-set engine by explicit
pairings, one functional at a time.  The coding-function engines (``zmr``,
``zrud``) evaluate their norms in closed form.  Their reference here
enumerates each tuple family on the support (``mr.zmr_functionals``,
``mr.zrud_functionals``) and pairs every member with the vector in
:func:`norm_slow`.  Nothing here uses the engines' closed-form rows.

:func:`pairs_dp_loop` is the disjoint-pairs DP one node pair at a time, and
:func:`renorm_batch_reference` the renorm batch built from each column's
inner sign mean as a ``Fraction`` scaled to the common denominator.
:func:`definition_norm` is the norm of the linear and root engines from
their definitions, in ``Fraction`` and :func:`~rudlab.exactnum.sqrt_exact`,
with no engine code: the chain and pair norms run over every index of the
zero-padded sequence, not over the engines' node layout.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

import numpy as np

from rudlab.batches import ExactBatch, _peak, int_dtype
from rudlab.coeffs import Coeffs, NormingFunctional, pair
from rudlab.exactnum import QSum, Scalar, sqrt_exact
from rudlab.mr import MrContext, zmr_functionals, zrud_functionals
from rudlab.rademacher import sign_stats
from rudlab.spaces import NormingSetSpace, RenormSpace, _gain

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


def pairs_dp_loop(nv: np.ndarray, power) -> np.ndarray:
    """Best accumulated |difference|^power over disjoint increasing pairs
    of the rows of ``nv``, per column, one pair (i, j) at a time."""
    k = nv.shape[0]
    zero = np.zeros(nv.shape[1], dtype=nv.dtype)
    best = [zero]  # best[j+1] = optimum using nodes 0..j
    for j in range(k):
        cur = best[j] if j else zero
        for i in range(j):
            cur = np.maximum(cur, best[i] + _gain(np.abs(nv[i] - nv[j]), power))
        best.append(cur)
    return best[-1]


def renorm_batch_reference(space: RenormSpace, a: Coeffs, mult: np.ndarray) -> ExactBatch:
    """``space.mult_batch(a, mult)`` built per distinct |column|: the inner
    mean is ``sign_stats`` of the masked vector, its terms are scaled as
    ``Fraction``s to the lcm of their denominators and ``q`` times the base
    scale, and the classes are in ascending core order."""
    base = space.base.mult_batch(a, mult)
    cols, which = np.unique(np.abs(mult), axis=1, return_inverse=True)
    terms = []
    for col in cols.T:
        masked = Coeffs.from_pairs((i, v * int(c)) for (i, v), c in zip(a.entries, col))
        terms.append(QSum.of(sign_stats(space.base, masked).mean() if masked else 0).terms)
    p, q = space.delta.numerator, space.delta.denominator
    scale = lcm(q * base.scale, *(x.denominator for t in terms for x in t.values()))
    mul = scale // (q * base.scale) * p
    base_classes = base.classes or {}
    inner: dict[int, list[int]] = {}
    for g, t in enumerate(terms):
        for core, x in t.items():
            inner.setdefault(core, [0] * len(terms))[g] = int(x * scale)
    classes = {}
    for core in sorted({*base_classes, *inner}):
        arr, nums = base_classes.get(core), inner.get(core, [0] * len(terms))
        peak = _peak(arr) * mul if arr is not None else 0
        dtype = int_dtype(peak + max(map(abs, nums)))
        col = arr.astype(dtype) * mul if arr is not None else 0
        classes[core] = col + np.array(nums, dtype=dtype)[which.ravel()]
    if base.roots is None:
        return ExactBatch.from_classes(classes, scale)
    roots = base.roots.astype(int_dtype(_peak(base.roots) * p * p)) * (p * p)
    return ExactBatch(scale=scale, classes=classes or None,
                      roots=roots, roots_scale=base.roots_scale * q)


def _padded(entries: list[tuple[int, Fraction]]) -> list[Fraction]:
    """The zero-padded sequence of a vector: its value at every index from
    0 to one past the last entry, 0 where it has none."""
    dense = dict(entries)
    return [dense.get(i, Fraction(0)) for i in range(entries[-1][0] + 2)]


def _best_steps(x: list[Fraction], power: int, pairs: bool) -> Fraction:
    """The largest sum of |x_j - x_i|^power over the steps i < j of an
    increasing chain of nodes, or over disjoint increasing pairs."""
    if pairs:
        best = [Fraction(0)]  # best[j]: pairs within the first j nodes
        for j in range(len(x)):
            best.append(max([best[j]] + [best[i] + abs(x[j] - x[i]) ** power
                                         for i in range(j)]))
        return best[-1]
    ends: list[Fraction] = []  # ends[j]: chains ending at node j
    for j in range(len(x)):
        ends.append(max([Fraction(0)] + [ends[i] + abs(x[j] - x[i]) ** power
                                         for i in range(j)]))
    return max(ends)


def _larger(x: Scalar, y: Scalar) -> Scalar:
    return x if (QSum.of(x) - QSum.of(y)).sign() >= 0 else y


def definition_norm(spec: str, entries: list[tuple[int, Fraction]]) -> Scalar:
    """The norm on ``spec`` of the vector with ``entries``, (index, value)
    in index order, zero values allowed, from the engine's definition: the
    chain and pair norms over the zero-padded sequence, where a zero entry
    is a zero like any missing index."""
    vals = [v for _, v in entries]
    l2 = sqrt_exact(sum(v * v for v in vals))
    tails = max(abs(sum(vals[k:])) for k in range(len(vals)))
    if spec == "lp:1":
        return sum(map(abs, vals))
    if spec == "lp:2":
        return l2
    if spec == "linf":
        return max(map(abs, vals))
    if spec == "summing":
        return tails
    if spec == "smax:2":
        return _larger(tails, l2)
    if spec == "bmo":
        return l2 + max(abs(sum(vals[:k + 1])) for k in range(len(vals)))
    if spec == "summing_dual":
        dense = dict(entries)
        lo, hi = entries[0][0] - 1, entries[-1][0] + 1
        x = [dense.get(i, Fraction(0)) for i in range(lo, hi + 1)]
        return sum(abs(x[i + 1] - x[i]) for i in range(len(x) - 1))
    power, pairs = {"james:chain": (2, False), "james:pairs": (2, True),
                    "james_x:1": (1, False), "james_x:2": (2, False)}[spec]
    best = _best_steps(_padded(entries), power, pairs)
    return best if power == 1 else sqrt_exact(best)
