"""Vectorised exact norm batches.

A norm engine evaluating one coefficient vector under thousands of sign
patterns produces values of a very constrained shape:

* ``classes``: sum_c X[c][i] * sqrt(c) / scale over a small fixed set of
  radicand classes c (c = 1 is the rational part); summing, dyadic, and
  functional-sup norms land here.
* ``roots``: sqrt(R[i]) / roots_scale with the radicand varying per pattern
  (Euclidean and chain-difference norms).  The two parts may coexist
  (square function plus partial-sum supremum, branchwise maxima).

Every exact batch is these integer arrays, int64 where a Python-int bound
shows that no entry can leave it (:func:`int_dtype`) and Python ints
otherwise; a batch refuses to hold a value or scale past 2^1000, the float
range its float approximations read (:func:`check_float_range`).  The one
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
int64 where a bound shows that no sum can leave it and in Python ints
otherwise.  Float batches reduce by numpy argmax and left-to-right float sums.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .coeffs import NoIntegerForm
from .exactnum import QSum, Scalar, split_square

_TIE_RTOL = 1e-9
_INT64_MAX = (1 << 63) - 1


def _ints(arr: np.ndarray) -> list[int]:
    return [int(x) for x in arr.tolist()]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude in ``arr``, as a Python int."""
    return max(int(arr.max()), -int(arr.min())) if len(arr) else 0


def int_dtype(bound: int) -> type:
    """int64 when ``bound``, a Python int, bounds every magnitude an integer
    array will hold; Python-int object arrays otherwise."""
    return np.int64 if bound <= _INT64_MAX else object


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


def _fold(blocks: Sequence[tuple[int, Iterable[tuple[int, int]]]]) -> Scalar:
    """Exact sum of ``x * sqrt(r) / d`` over the ``(d, [(r, x), ...])``
    blocks of integers; a zero ``r`` or ``x`` adds nothing.

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
    totals = {core: t for core, t in totals.items() if t}
    if totals.keys() <= {1}:
        return Fraction(totals.get(1, 0), den)
    return QSum({core: Fraction(t, den) for core, t in totals.items()})


def _scalar_gt(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, QSum) or isinstance(b, QSum):
        return QSum.of(a) > b
    return a > b


def first_extreme(
    approx: np.ndarray,
    keys: Sequence[np.ndarray],
    value: Callable[[int], Scalar],
    want_max: bool,
) -> tuple[Scalar, int]:
    """(value, index) of the first exact extreme of ``value(i)`` over the
    items ``i`` whose float approximations are ``approx``.

    The candidates are the items within ``_TIE_RTOL`` of the float extreme.
    Each item's integer key is its entry in every array of ``keys``; equal
    keys must mean equal values, so each key is represented by its first
    index, and the distinct keys are compared exactly in first-index order.
    """
    target = approx.max() if want_max else approx.min()
    tol = _TIE_RTOL * (1.0 + abs(target))
    cand = np.nonzero(np.abs(approx - target) <= tol)[0]
    k = np.stack([key[cand] for key in keys])
    order = np.lexsort(k)  # stable: equal keys stay in index order
    k = k[:, order]
    first = np.ones(len(cand), dtype=bool)
    first[1:] = (k[:, 1:] != k[:, :-1]).any(axis=0)
    cand = np.sort(cand[order[first]]).tolist()
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
        # int64 arrays are inside the float range; Python-int ones are checked
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

    def _extreme(self, want_max: bool) -> tuple[Scalar, int]:
        if self.scalars is not None:
            f = self.float_values()
            i = int(np.argmax(f) if want_max else np.argmin(f))
            return self.scalars[i], i
        if self.classes is None and self.roots is not None:
            i = int(np.argmax(self.roots) if want_max else np.argmin(self.roots))
            return self.value(i), i
        if self.roots is None and len(self.classes) == 1:
            ((_, arr),) = self.classes.items()
            i = int(np.argmax(arr) if want_max else np.argmin(arr))
            return self.value(i), i
        keys = list((self.classes or {}).values())
        if self.roots is not None:
            keys.append(self.roots)
        # one batch shares one scale, so equal keys are equal values
        return first_extreme(self.float_values(), keys, self.value, want_max)

    def max(self) -> Scalar:
        return self._extreme(True)[0]

    def min(self) -> Scalar:
        return self._extreme(False)[0]

    def argmax(self) -> int:
        return self._extreme(True)[1]

    def mean(self, over: int | None = None) -> Scalar:
        """Exact mean of the values.  With ``over``, their sum is divided by
        ``over`` instead of by their count: one chunk's share of the mean of
        a longer walk."""
        return self.group_means([0], [len(self) if over is None else over])[0]

    def group_means(self, starts: Sequence[int], overs: Sequence[int]) -> list[Scalar]:
        """Exact means of consecutive pieces of the batch: piece ``p`` holds
        the values from ``starts[p]`` (``starts[0] == 0``) up to the next
        start, none of them empty, and its sum is divided by ``overs[p]``.

        Numerators are summed as integers, in int64 where no sum can leave
        it, and each piece's value is one :func:`_fold` of its class sums
        and its roots part, each distinct radicand with its count."""
        if self.scalars is not None:
            return _float_group_means(self.scalars, starts, overs)
        n = len(self)
        bounds = list(starts) + [n]
        class_sums = [
            (core, np.add.reduceat(arr, starts, dtype=int_dtype(_peak(arr) * n)).tolist())
            for core, arr in (self.classes or {}).items()
        ]
        runs: list[list[tuple[int, int]]] = [[] for _ in overs]
        if self.roots is not None:
            # distinct radicands of each piece, ascending, with their counts
            piece = np.repeat(np.arange(len(overs)), np.diff(bounds))
            order = np.lexsort((self.roots, piece))
            r, pc = self.roots[order], piece[order]
            at = np.flatnonzero(np.append(True, (r[1:] != r[:-1]) | (pc[1:] != pc[:-1])))
            counts = np.diff(np.append(at, n))
            for p, rad, c in zip(pc[at].tolist(), _ints(r[at]), counts.tolist()):
                runs[p].append((rad, c))
        return [_fold([(over * self.scale, [(core, sums[p]) for core, sums in class_sums]),
                       (over * (self.roots_scale or 1), runs[p])])
                for p, over in enumerate(overs)]

    def counted_means(self, counts: np.ndarray, over: int) -> tuple[Scalar, Scalar]:
        """Exact mean and mean square of a distribution: each column of
        this classes-only batch taken ``counts[j]`` times, the sums divided
        by ``over``.  Each is one :func:`_fold` of Python-int sums."""
        cores = list(self.classes)
        xs = [_ints(arr) for arr in self.classes.values()]
        wx = [[w * x for w, x in zip(_ints(counts), col)] for col in xs]
        mean = _fold([(over * self.scale, [(c, sum(col)) for c, col in zip(cores, wx)])])
        square = _fold([(over * self.scale**2, [
            (1, cj * _dot(wx[j], xs[j])) if j == k else (cj * ck, 2 * _dot(wx[j], xs[k]))
            for j, cj in enumerate(cores) for k, ck in enumerate(cores) if j <= k])])
        return mean, square

    def mean_sq(self, over: int | None = None) -> Scalar:
        """Exact mean of the squared values (``over`` as in :meth:`mean`):
        one :func:`_fold` of integer sums (see the module docstring)."""
        n = len(self) if over is None else over
        if self.scalars is not None:
            return _float_group_means([v * v for v in self.scalars], [0], [n])[0]
        count = len(self)
        cores = list(self.classes or {})
        blocks: list[tuple[int, list[tuple[int, int]]]] = []
        if cores:
            x = np.stack(list(self.classes.values()))
            x = x.astype(int_dtype(_peak(x) ** 2 * count), copy=False)
            gram = (x @ x.T).tolist()
            blocks.append((n * self.scale**2, [
                (1, cj * gram[j][j]) if j == k else (cj * ck, 2 * gram[j][k])
                for j, cj in enumerate(cores) for k, ck in enumerate(cores) if j <= k]))
        if self.roots is not None:
            rr = self.roots
            blocks.append((n * self.roots_scale**2,
                           [(1, int(np.add.reduce(rr, dtype=int_dtype(_peak(rr) * count))))]))
            at = np.flatnonzero((rr != 0) & (x != 0).any(axis=0)) if cores else []
            if len(at):
                # each class's sums over the distinct radicands of the
                # columns where the root and some class are nonzero
                at = at[np.argsort(rr[at])]
                heads = np.flatnonzero(np.append(True, rr[at][1:] != rr[at][:-1]))
                sums = np.add.reduceat(x[:, at], heads, axis=1)
                c, g = np.nonzero(sums)
                blocks.append((n * self.scale * self.roots_scale, [
                    (cores[j] * r, 2 * v) for j, r, v in
                    zip(c.tolist(), _ints(rr[at[heads[g]]]), sums[c, g].tolist())]))
        return _fold(blocks)
