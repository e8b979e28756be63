"""Vectorised exact norm batches.

A norm engine evaluating one coefficient vector under thousands of sign
patterns produces values of a very constrained shape:

* ``classes``: sum_c X[c][i] * sqrt(c) / scale over a small fixed set of
  radicand classes c (c = 1 is the rational part); summing, dyadic, and
  functional-sup norms land here.
* ``roots``: sqrt(R[i]) / roots_scale with the radicand varying per pattern
  (Euclidean and chain-difference norms).  The two parts may coexist
  (square function plus partial-sum supremum, branchwise maxima).

Every exact batch is these integer arrays, each in the narrowest of int8,
int16, int32 and int64 that a Python-int bound shows no entry can leave
(:func:`int_dtype`) and in Python ints past int64; a batch refuses to hold
a value or scale past 2^1000, the float range its float approximations
read (:func:`check_float_range`).  The one
other kind, ``scalars``, holds the floats of a float chunk: a vector with
float entries, or an engine without an exact batch.

The min/max/mean/second-moment reductions stay exact throughout.  Every
near-tie in rudlab is settled by :func:`first_extreme`: a float pass locates
the extreme, and the candidates within ``_TIE_RTOL`` of it are compared
exactly, one per distinct integer key (equal keys are equal values).  Every
exact value, mean and second moment is one :func:`_fold` of integer sums
into one total per square-free core: means sum numerators per
piece, second moments take the class-pair sums from one Gram product of the
class arrays and the class-root sums from one grouped sum per radicand, in
the narrowest integer dtype a bound shows that no sum can leave
(:func:`int_dtype`) and in Python ints past int64.  Each value is built
once, its cores ascending, so a value has one form however its sums were
gathered: several batches' sums gather as
integers per denominator and radicand (:class:`BatchSums`), and their
extremes are compared as :class:`Pick` values, by integers or floats where
those decide, so a walk of many chunks builds its values as one batch does.
Float batches reduce by numpy argmax and left-to-right float sums.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .coeffs import NoIntegerForm
from .exactnum import QSum, Scalar, split_square

_TIE_RTOL = 1e-9
#: the fixed-width integer dtypes, narrowest first, with their largest values
_INT_WIDTHS = ((np.int8, (1 << 7) - 1), (np.int16, (1 << 15) - 1),
               (np.int32, (1 << 31) - 1), (np.int64, (1 << 63) - 1))


def _ints(arr: np.ndarray) -> list[int]:
    return [int(x) for x in arr.tolist()]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude in ``arr``, as a Python int."""
    return max(int(arr.max()), -int(arr.min())) if len(arr) else 0


def int_dtype(bound: int) -> type:
    """The narrowest of int8, int16, int32 and int64 whose largest value is
    at least ``bound``, a Python int that bounds every magnitude an integer
    array will hold; Python-int object arrays past int64.  numpy wraps a
    fixed-width result silently, so ``bound`` must cover every
    intermediate the array's arithmetic forms, not only its entries."""
    for dtype, top in _INT_WIDTHS:
        if bound <= top:
            return dtype
    return object


def check_float_range(magnitude: int) -> None:
    """Refuse a value or denominator past 2^1000 (:class:`NoIntegerForm`):
    exact tie location reads float approximations of the integers."""
    if magnitude > 1 << 1000:
        raise NoIntegerForm("values or their common denominator past 2^1000, "
                            "the float range that exact tie location reads")


def _float_group_means(values: Sequence[float], starts: Sequence[int],
                       overs: Sequence[int]) -> list[float]:
    """Float means of consecutive pieces of ``values`` (as in
    :meth:`ExactBatch.group_means`), each summed left to right."""
    bounds = list(starts) + [len(values)]
    out = []
    for lo, hi, over in zip(bounds, bounds[1:], overs):
        total = 0
        for v in values[lo:hi]:
            total = total + v
        out.append(total / over)
    return out


def _fold(blocks: Sequence[tuple[int, Iterable[tuple[int, int]]]], over: int = 1) -> Scalar:
    """Exact sum, divided by ``over``, of ``x * sqrt(r) / d`` over the
    ``(d, [(r, x), ...])`` blocks of integers; a zero ``r`` or ``x`` adds
    nothing.

    Each square-free core keeps one integer total over the common
    denominator, and the cores whose totals are 0 are dropped.  One value
    is built at the end, a ``Fraction`` when it is rational."""
    den = lcm(*[d for d, _ in blocks])
    totals: dict[int, int] = {}
    for d, block in blocks:
        mul = den // d
        for r, x in block:
            if r and x:
                outer, core = split_square(r)
                totals[core] = totals.get(core, 0) + x * outer * mul
    return _scalar(totals, den * over)


def _scalar(totals: dict[int, int], den: int) -> Scalar:
    """The exact value of ``sum_core totals[core] * sqrt(core) / den``: a
    ``Fraction`` when it is rational, else a :class:`QSum` of the cores
    whose totals are not 0, in ascending core order, so that a value has
    one form however its sums were gathered."""
    totals = {core: t for core, t in sorted(totals.items()) if t}
    if totals.keys() <= {1}:
        return Fraction(totals.get(1, 0), den)
    return QSum({core: Fraction(t, den) for core, t in totals.items()})


def _scalar_gt(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, QSum) or isinstance(b, QSum):
        return QSum.of(a) > b
    return a > b


class BatchSums:
    """The sums of the values and of the squared values of exact batches,
    held as integers: per denominator, one Python-int total per radicand,
    from each batch's :meth:`ExactBatch.sum_blocks` and
    :meth:`ExactBatch.square_blocks`.  :meth:`mean` and :meth:`mean_sq`
    fold the totals once (:func:`_fold`), so batches added one by one
    reduce as one batch of all their columns does."""

    def __init__(self):
        self._sums: dict[int, dict[int, int]] = {}
        self._squares: dict[int, dict[int, int]] = {}

    def add(self, batch: "ExactBatch") -> None:
        for r, _, x, d in batch._runs([0]):
            acc = self._sums.setdefault(d, {})
            acc[r] = acc.get(r, 0) + x
        for d, block in batch.square_blocks():
            acc = self._squares.setdefault(d, {})
            for r, x in block:
                acc[r] = acc.get(r, 0) + x

    def mean(self, over: int) -> Scalar:
        return _fold([(d, acc.items()) for d, acc in self._sums.items()], over)

    def mean_sq(self, over: int) -> Scalar:
        return _fold([(d, acc.items()) for d, acc in self._squares.items()], over)


class Pick:
    """Value ``index`` of ``batch``, compared with another pick without
    building either value where their integers or floats decide.

    Two exact picks of equal integers under equal scales are equal.  Apart
    from that, their floats decide where they differ by more than twice the
    sum of their error bounds: each float is the sum of its k terms
    ``x / scale * sqrt(c)`` and ``sqrt(R) / roots_scale``, each within 3
    ulp of its term, so within ``(k + 4) * 2^-52`` of the terms' magnitude
    sum.  Otherwise, and for a float batch's pick, the values are compared
    exactly."""

    __slots__ = ("batch", "index", "_key", "_approx", "_err")

    def __init__(self, batch: "ExactBatch", index: int):
        self.batch, self.index = batch, index
        if batch.scalars is not None:
            self._key = None
            return
        items = [(c, int(arr[index])) for c, arr in (batch.classes or {}).items()]
        root = None if batch.roots is None else int(batch.roots[index])
        self._key = (batch.scale, batch.roots_scale, tuple(items), root)
        terms = [x / batch.scale * c**0.5 for c, x in items]
        if root is not None:
            terms.append(math.sqrt(root) / batch.roots_scale)
        self._approx = math.fsum(terms)
        self._err = (len(terms) + 4) * 2.0**-52 * math.fsum(map(abs, terms)) + 2.0**-1020

    def value(self) -> Scalar:
        return self.batch.value(self.index)

    def gt(self, other: "Pick") -> bool:
        """Whether this value exceeds ``other``'s, exactly."""
        if self._key is not None and other._key is not None:
            if self._key == other._key:
                return False
            gap = self._approx - other._approx
            if abs(gap) > 2 * (self._err + other._err):
                return gap > 0
        return _scalar_gt(self.value(), other.value())


def first_extreme(
    approx: np.ndarray,
    keys: Sequence[np.ndarray],
    value: Callable[[int], Scalar],
    want_max: bool,
    slack: float = 0.0,
) -> tuple[Scalar, int]:
    """(value, index) of the first exact extreme of ``value(i)`` over the
    items ``i`` whose float approximations are ``approx``, each within
    ``slack`` of its value: the first of :func:`_extreme_candidates`
    compared exactly."""
    return _first_of(_extreme_candidates(approx, keys, want_max, slack), value, want_max)


def _extreme_candidates(approx: np.ndarray, keys: Sequence[np.ndarray], want_max: bool,
                        slack: float = 0.0) -> list[int]:
    """The items within ``_TIE_RTOL`` (plus twice ``slack``) of the float
    extreme, one per distinct key, ascending.

    Each item's integer key is its entry in every array of ``keys``; equal
    keys must mean equal values, so each key is represented by its first
    index."""
    target = approx.max() if want_max else approx.min()
    tol = _TIE_RTOL * (1.0 + abs(target)) + 2 * slack
    cand = np.nonzero(np.abs(approx - target) <= tol)[0]
    k = np.stack([key[cand] for key in keys])
    order = np.lexsort(k)  # stable: equal keys stay in index order
    k = k[:, order]
    first = np.ones(len(cand), dtype=bool)
    first[1:] = (k[:, 1:] != k[:, :-1]).any(axis=0)
    return np.sort(cand[order[first]]).tolist()


def _first_of(cand: list[int], value: Callable[[int], Scalar],
              want_max: bool) -> tuple[Scalar, int]:
    """(value, index) of the first exact extreme of the candidates, compared
    exactly in index order."""
    best, vb = cand[0], value(cand[0])
    for i in cand[1:]:
        vi = value(i)
        if _scalar_gt(vi, vb) if want_max else _scalar_gt(vb, vi):
            best, vb = i, vi
    return vb, best


@dataclass
class ExactBatch:
    """Exact values of one norm under a batch of coefficient multipliers."""

    scale: int = 1
    classes: dict[int, np.ndarray] | None = None
    roots: np.ndarray | None = None
    roots_scale: int | None = None
    scalars: list[float] | None = None
    _floats: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # fixed-width integer arrays are inside the float range; Python-int
        # ones are checked
        arrays = [*(self.classes or {}).values(), *(() if self.roots is None else (self.roots,))]
        check_float_range(max(self.scale, self.roots_scale or 1,
                              *(_peak(arr) for arr in arrays if arr.dtype == object)))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(nums: np.ndarray, scale: int) -> "ExactBatch":
        return ExactBatch(scale=scale, classes={1: nums})

    @staticmethod
    def from_roots(radicands: np.ndarray, scale: int) -> "ExactBatch":
        return ExactBatch(roots=radicands, roots_scale=scale)

    @staticmethod
    def from_classes(classes: dict[int, np.ndarray], scale: int) -> "ExactBatch":
        return ExactBatch(scale=scale, classes=classes)

    @staticmethod
    def from_scalars(values: Sequence[float]) -> "ExactBatch":
        """A float batch."""
        return ExactBatch(scalars=np.asarray(values, dtype=np.float64).tolist())

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        if self.scalars is not None:
            return len(self.scalars)
        if self.classes is not None:
            return len(next(iter(self.classes.values())))
        return len(self.roots)

    def value(self, i: int) -> Scalar:
        if self.scalars is not None:
            return self.scalars[i]
        blocks = [(self.scale, [(c, int(arr[i])) for c, arr in (self.classes or {}).items()])]
        if self.roots is not None:
            blocks.append((self.roots_scale, [(int(self.roots[i]), 1)]))
        return _fold(blocks)

    def float_values(self) -> np.ndarray:
        if self._floats is None:
            if self.scalars is not None:
                self._floats = np.array(self.scalars, dtype=np.float64)
            else:
                acc = np.zeros(len(self), dtype=np.float64)
                if self.classes is not None:
                    for core, arr in self.classes.items():
                        acc += arr.astype(np.float64) * (core**0.5) / self.scale
                if self.roots is not None:
                    acc += np.sqrt(self.roots.astype(np.float64)) / self.roots_scale
                self._floats = acc
        return self._floats

    # -- exact reductions -------------------------------------------------------

    def _extreme_index(self, want_max: bool) -> int:
        """The first index of the largest value (the smallest unless
        ``want_max``)."""
        if self.scalars is not None:
            f = self.float_values()
            return int(np.argmax(f) if want_max else np.argmin(f))
        if self.classes is None and self.roots is not None:
            return int(np.argmax(self.roots) if want_max else np.argmin(self.roots))
        if self.roots is None and len(self.classes) == 1:
            ((_, arr),) = self.classes.items()
            return int(np.argmax(arr) if want_max else np.argmin(arr))
        keys = list((self.classes or {}).values())
        if self.roots is not None:
            keys.append(self.roots)
        # one batch shares one scale, so equal keys are equal values; a
        # single key near the float extreme needs no exact value
        cand = _extreme_candidates(self.float_values(), keys, want_max)
        return cand[0] if len(cand) == 1 else _first_of(cand, self.value, want_max)[1]

    def _extreme(self, want_max: bool) -> tuple[Scalar, int]:
        i = self._extreme_index(want_max)
        return self.value(i), i

    def max(self) -> Scalar:
        return self._extreme(True)[0]

    def min(self) -> Scalar:
        return self._extreme(False)[0]

    def argmax(self) -> int:
        return self._extreme_index(True)

    def argmin(self) -> int:
        return self._extreme_index(False)

    def mean(self, over: int | None = None, counts: np.ndarray | None = None) -> Scalar:
        """Exact mean of the values.  With ``over``, their sum is divided by
        ``over`` instead of by their count: one chunk's share of the mean of
        a longer walk.  With ``counts``, a distribution: column j of this
        classes-only batch is taken ``counts[j]`` times."""
        n = len(self) if over is None else over
        if self.scalars is not None:
            return _float_group_means(self.scalars, [0], [n])[0]
        return _fold(self.sum_blocks(counts), n)

    def sum_blocks(self, counts: np.ndarray | None = None) -> list[tuple[int, list[tuple[int, int]]]]:
        """The sum of the values as :func:`_fold` blocks of Python ints, its
        radicands not yet split: the one-piece :meth:`_runs`, a block per
        denominator; with ``counts`` (as in :meth:`mean`), the classes'
        count-weighted sums in Python ints."""
        if counts is not None:
            w = _ints(counts)
            return [(self.scale, [(c, _dot(w, _ints(arr))) for c, arr in self.classes.items()])]
        blocks: dict[int, list[tuple[int, int]]] = {}
        for r, _, x, d in self._runs([0]):
            blocks.setdefault(d, []).append((r, x))
        return list(blocks.items())

    def group_means(self, starts: Sequence[int], overs: Sequence[int]) -> list[Scalar]:
        """Exact means of consecutive pieces of the batch: piece ``p`` holds
        the values from ``starts[p]`` (``starts[0] == 0``) up to the next
        start, none of them empty, and its sum is divided by ``overs[p]``.
        Each is one value of its piece's :meth:`core_sums`."""
        if self.scalars is not None:
            return _float_group_means(self.scalars, starts, overs)
        den, sums = self.core_sums(starts)
        return [_scalar({core: s[p] for core, s in sums.items()}, den * over)
                for p, over in enumerate(overs)]

    def core_sums(self, starts: Sequence[int]) -> tuple[int, dict[int, list[int]]]:
        """The sums of the pieces of :meth:`group_means` as integers over one
        denominator, ``lcm(scale, roots_scale)``: per square-free core, one
        Python-int numerator per piece, each of :meth:`_runs` split once
        into its square part and core (:func:`split_square`)."""
        den = lcm(self.scale, self.roots_scale or 1)
        sums: dict[int, list[int]] = {}
        for r, p, x, d in self._runs(starts):
            if r and x:
                outer, core = split_square(r)
                col = sums.get(core)
                if col is None:
                    col = sums[core] = [0] * len(starts)
                col[p] += x * (den // d) * outer
        return den, sums

    def _runs(self, starts: Sequence[int]) -> list[tuple[int, int, int, int]]:
        """(radicand, piece, integer, denominator) of the pieces' sums (see
        :meth:`group_means`): each class's sum per piece over ``scale``, in
        the narrowest dtype no sum can leave (:func:`int_dtype`), and each
        distinct radicand of the roots part in a piece, ascending, times
        its count over ``roots_scale``."""
        n = len(self)
        runs: list[tuple[int, int, int, int]] = []
        for r, arr in (self.classes or {}).items():
            piece = np.add.reduceat(arr, starts, dtype=int_dtype(_peak(arr) * n)).tolist()
            runs += [(r, p, int(x), self.scale) for p, x in enumerate(piece)]
        if self.roots is not None and n:
            if len(starts) == 1:  # a sort, several times faster than lexsort
                r, pc = np.sort(self.roots), np.zeros(n, dtype=np.intp)
            else:
                piece = np.repeat(np.arange(len(starts)), np.diff(list(starts) + [n]))
                order = np.lexsort((self.roots, piece))
                r, pc = self.roots[order], piece[order]
            at = np.flatnonzero(np.append(True, (r[1:] != r[:-1]) | (pc[1:] != pc[:-1])))
            counts = np.diff(np.append(at, n))
            runs += zip(_ints(r[at]), pc[at].tolist(), counts.tolist(),
                        itertools.repeat(self.roots_scale))
        return runs

    def columns(self, lo: int, hi: int) -> "ExactBatch":
        """The batch of columns ``lo`` up to ``hi``: views of the same
        arrays over the same scales, so every value and reduction is the
        one a batch of those columns alone gives."""
        if self.scalars is not None:
            return ExactBatch(scalars=self.scalars[lo:hi])
        return ExactBatch(
            self.scale,
            None if self.classes is None else {c: arr[lo:hi] for c, arr in self.classes.items()},
            None if self.roots is None else self.roots[lo:hi], self.roots_scale)

    def mean_sq(self, over: int | None = None, counts: np.ndarray | None = None) -> Scalar:
        """Exact mean of the squared values (``over`` and ``counts`` as in
        :meth:`mean`): one :func:`_fold` of :meth:`square_blocks`."""
        n = len(self) if over is None else over
        if self.scalars is not None:
            return _float_group_means([v * v for v in self.scalars], [0], [n])[0]
        return _fold(self.square_blocks(counts), n)

    def square_blocks(self, counts: np.ndarray | None = None
                      ) -> list[tuple[int, list[tuple[int, int]]]]:
        """The sum of the squared values as :func:`_fold` blocks of Python
        ints (see the module docstring): the class-pair sums over
        ``scale**2`` from one Gram product of the class arrays, the
        radicands' sum over ``roots_scale**2``, and each class's sums over
        the distinct radicands of the columns where the root and some class
        are nonzero, over ``scale * roots_scale``.  With ``counts`` (as in
        :meth:`mean`), the Gram product of the count-weighted classes with
        the classes, in Python ints."""
        count = len(self)
        cores = list(self.classes or {})
        blocks: list[tuple[int, list[tuple[int, int]]]] = []
        if counts is not None:
            xs = [_ints(arr) for arr in self.classes.values()]
            wx = [[w * v for w, v in zip(_ints(counts), col)] for col in xs]
            gram = [[_dot(row, col) for col in xs] for row in wx]
        elif cores:
            x = np.stack(list(self.classes.values()))
            x = x.astype(int_dtype(_peak(x) ** 2 * count), copy=False)
            gram = (x @ x.T).tolist()
        if cores:
            blocks.append((self.scale**2, [
                (1, cj * gram[j][j]) if j == k else (cj * ck, 2 * gram[j][k])
                for j, cj in enumerate(cores) for k, ck in enumerate(cores) if j <= k]))
        if self.roots is not None:
            rr = self.roots
            blocks.append((self.roots_scale**2,
                           [(1, int(np.add.reduce(rr, dtype=int_dtype(_peak(rr) * count))))]))
            at = np.flatnonzero((rr != 0) & (x != 0).any(axis=0)) if cores else []
            if len(at):
                at = at[np.argsort(rr[at])]
                heads = np.flatnonzero(np.append(True, rr[at][1:] != rr[at][:-1]))
                sums = np.add.reduceat(x[:, at], heads, axis=1)
                c, g = np.nonzero(sums)
                blocks.append((self.scale * self.roots_scale, [
                    (cores[j] * r, 2 * v) for j, r, v in
                    zip(c.tolist(), _ints(rr[at[heads[g]]]), sums[c, g].tolist())]))
        return blocks
