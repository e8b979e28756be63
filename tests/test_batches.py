"""Exact batches never wrap int64: they hold int64 only where a Python-int
bound shows no entry or sum can leave it, and Python ints otherwise."""

from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest

from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum, split_square
from rudlab.rademacher import expect_exact, sign_stats


def test_renorm_batch_refuses_int64_wrap():
    """A renorm batch whose entries would leave int64 holds Python ints
    instead of wrapping, and stays exact: with delta 9 the chain radicand
    near 2^57 times 81 passes 2^63; with delta 1/p, p a prime near 2^40,
    the inner means' numerators over the common scale do."""
    a = Coeffs.from_values([(1 << 26) * (-1) ** k for k in range(12)])
    one = np.ones((12, 1), dtype=np.int8)
    fac = SpaceFactory(RunConfig())
    chain = fac.space("renorm:james:chain:9")
    assert 81 * int(chain.base.mult_batch(a, one).roots[0]) >= 1 << 63
    batch = chain.mult_batch(a, one)
    assert batch.roots.dtype == object and batch.scalars is None
    assert QSum.of(batch.value(0)) == QSum.of(chain.norm(a))
    summing = fac.space(f"renorm:summing:1/{(1 << 40) + 15}")
    batch = summing.mult_batch(a, one)
    assert batch.classes[1].dtype == object and batch.scalars is None
    assert batch.value(0) == summing.norm(a)


def test_mean_past_int64_headroom():
    """peak * len one past 2^63 - 1 takes the Python-int sum: the class sum
    2^63 would wrap in int64."""
    top = np.array([1 << 62, 1 << 62], dtype=np.int64)
    batch = ExactBatch.from_classes({1: top, 2: np.array([1, 3], dtype=np.int64)}, 3)
    assert batch.mean() == QSum.of(F(1 << 63, 6)) + QSum.root(2, F(4, 6))
    below = ExactBatch.from_rational(np.array([(1 << 62) - 1, 1 << 62], dtype=np.int64), 1)
    assert below.mean(5) == F((1 << 63) - 1, 5)


def test_group_means_match_sliced_means():
    """Each piece's mean is the mean of that slice of the batch, of the
    same type, and converts to the same float."""
    rng = np.random.default_rng(8)
    n = 40
    roots = rng.integers(0, 30, size=n) ** 2 * rng.choice([1, 2, 3, 8, 12], size=n)
    batch = ExactBatch(
        scale=6,
        classes={1: rng.integers(0, 50, size=n), 3: rng.integers(-5, 50, size=n)},
        roots=roots,
        roots_scale=4,
    )
    starts, overs = [0, 7, 8, 25], [7, 2, 20, 64]
    bounds = starts + [n]
    got = batch.group_means(starts, overs)
    for p, over in enumerate(overs):
        lo, hi = bounds[p], bounds[p + 1]
        piece = ExactBatch(scale=6, classes={c: x[lo:hi] for c, x in batch.classes.items()},
                           roots=roots[lo:hi], roots_scale=4)
        want = piece.mean(over)
        assert type(got[p]) is type(want)
        assert QSum.of(got[p]) == QSum.of(want)
        assert float(got[p]) == float(want)
        slow = sum(QSum.of(batch.value(i)) for i in range(lo, hi)) * F(1, over)
        assert QSum.of(got[p]) == slow
    floats = ExactBatch.from_scalars([0.1 * k for k in range(n)])
    total = 0.0
    for k in range(8, 25):  # left to right, as the walk folds a float chunk
        total += 0.1 * k
    assert floats.group_means(starts, overs)[2] == total / 20


def test_core_sums_are_the_pieces_sums_over_one_denominator():
    """Each piece's numerators over ``lcm(scale, roots_scale)``, one per
    square-free core (class keys and radicands with square factors move to
    their cores), sum to the piece's values."""
    rng = np.random.default_rng(11)
    n = 50
    batch = ExactBatch(
        scale=6,
        classes={1: rng.integers(-40, 50, size=n), 8: rng.integers(-5, 50, size=n)},
        roots=rng.integers(0, 30, size=n) ** 2 * rng.choice([1, 2, 3, 8, 12], size=n),
        roots_scale=4,
    )
    starts = [0, 3, 4, 30]
    den, sums = batch.core_sums(starts)
    assert den == 12 and all(split_square(core) == (1, core) for core in sums)
    assert all(len(piece) == len(starts) for piece in sums.values())
    for p, (lo, hi) in enumerate(zip(starts, starts[1:] + [n])):
        got = QSum({core: F(piece[p], den) for core, piece in sums.items() if piece[p]})
        assert got == sum(QSum.of(batch.value(i)) for i in range(lo, hi))


def test_columns_is_the_batch_of_those_columns():
    """A column view holds the same arrays' slices over the same scales, so
    its values and reductions are those of a batch of those columns; a
    float batch's view is its slice of floats."""
    rng = np.random.default_rng(12)
    n = 30
    classes = {1: rng.integers(-9, 9, size=n), 2: rng.integers(0, 5, size=n)}
    roots = rng.integers(0, 40, size=n)
    batch = ExactBatch(scale=5, classes=classes, roots=roots, roots_scale=3)
    for lo, hi in ((0, n), (4, 17), (29, 30)):
        view = batch.columns(lo, hi)
        alone = ExactBatch(scale=5, classes={c: x[lo:hi].copy() for c, x in classes.items()},
                           roots=roots[lo:hi].copy(), roots_scale=3)
        assert len(view) == hi - lo
        for q in ("mean", "mean_sq", "min", "max"):
            assert QSum.of(getattr(view, q)()) == QSum.of(getattr(alone, q)())
        assert view.argmax() == alone.argmax()
        assert [QSum.of(view.value(i)) for i in range(hi - lo)] == \
            [QSum.of(batch.value(i)) for i in range(lo, hi)]
    floats = ExactBatch.from_scalars([0.5 * k for k in range(n)])
    assert floats.columns(3, 6).scalars == [1.5, 2.0, 2.5]


def _mean_sq_oracle(batch: ExactBatch, n: int):
    """The second moment summed term by term over Python ints."""
    total = QSum()
    items = [(c, [int(x) for x in arr.tolist()]) for c, arr in (batch.classes or {}).items()]
    for j, (cj, xj) in enumerate(items):
        total = total + F(cj * sum(x * x for x in xj), n * batch.scale**2)
        for ck, xk in items[j + 1 :]:
            cross = sum(a * b for a, b in zip(xj, xk))
            outer, core = split_square(cj * ck)
            total = total + QSum.root(core, F(2 * cross * outer, n * batch.scale**2))
    if batch.roots is not None:
        rr = [int(r) for r in batch.roots.tolist()]
        total = total + F(sum(rr), n * batch.roots_scale**2)
        acc: dict[int, dict[int, int]] = {}
        for cj, xj in items:
            for i, r in enumerate(rr):
                if r and xj[i]:
                    acc.setdefault(r, {}).setdefault(cj, 0)
                    acc[r][cj] += xj[i]
        for r, per_class in acc.items():
            for cj, s in per_class.items():
                outer, core = split_square(cj * r)
                total = total + QSum.root(
                    core, F(2 * s * outer, n * batch.scale * batch.roots_scale))
    return total.as_fraction() if total.is_rational() else total


@pytest.mark.parametrize("width", ["int64", "wide_int64", "object"])
def test_mean_sq_matches_term_by_term_oracle(width):
    """Batches with classes and roots: int64 ones, int64 ones near 2^40
    whose squares and products leave int64, and Python-int ones near 2^62.
    The vectorised second moment equals the term-by-term one, of the same
    type and with the same float."""
    rng = np.random.default_rng(11)
    big, dtype = {"int64": (1, np.int64), "wide_int64": (1 << 40, np.int64),
                  "object": (1 << 62, object)}[width]
    for trial in range(20):
        n = int(rng.integers(1, 60))
        classes = {c: (rng.integers(-40, 40, size=n).astype(object) * big).astype(dtype)
                   for c in [1, 2, 3, 6, 12][: int(rng.integers(1, 5))]}
        roots = rng.integers(0, 9, size=n) ** 2 * rng.choice([0, 1, 2, 3, 5, 8, 18], size=n)
        roots = (roots.astype(object) * big).astype(dtype)
        for batch in (
            ExactBatch(scale=6, classes=classes, roots=roots, roots_scale=4),
            ExactBatch(scale=5, classes=classes),
            ExactBatch(roots=roots, roots_scale=3),
        ):
            for over in (None, 3 * n):
                got = batch.mean_sq(over)
                want = _mean_sq_oracle(batch, len(batch) if over is None else over)
                assert type(got) is type(want), trial
                assert QSum.of(got) == QSum.of(want), trial
                assert float(got) == float(want), trial



def test_mean_sq_beside_an_all_zero_class():
    """One bound covers every class-pair sum: a class of zeros beside a
    Python-int class past int64 does not cast that class to int64."""
    wide = np.array([1 << 62, 3 << 62, -(1 << 63)], dtype=object)
    for classes in ({1: np.zeros(3, dtype=np.int64), 2: wide},
                    {2: wide, 3: np.zeros(3, dtype=np.int64)}):
        batch = ExactBatch(scale=5, classes=classes, roots=np.array([2, 0, 8]), roots_scale=3)
        got, want = batch.mean_sq(), _mean_sq_oracle(batch, 3)
        assert type(got) is type(want)
        assert QSum.of(got) == QSum.of(want)
        assert float(got) == float(want)


_MANY = [1, F(-1, 2), 3, 2, F(5, 3), -4, 1, 2, F(-7, 2), 1, -1, 6]


@cache
def _many_class_walk():
    """The one-chunk sign batch of a 12-entry vector under
    ``renorm:james:chain:1/2``: 156 classes (the inner mean's cores) and the
    chain roots."""
    space = SpaceFactory(RunConfig()).space("renorm:james:chain:1/2")
    a = Coeffs.from_values(_MANY)
    batch = sign_stats(space, a)
    assert isinstance(batch, ExactBatch) and len(batch.classes) == 156
    return space, a, batch


def test_many_class_mean_sq_matches_the_renorm_identity():
    """Every column of a renorm sign batch is E + delta*b_i, E the base's
    sign mean and b_i the base norm, so the second moment is
    (1 + 2*delta)*E^2 + delta^2 * mean(b^2); E and mean(b^2) come from the
    base engine alone."""
    space, a, batch = _many_class_walk()
    e = QSum.of(expect_exact(space.base, a).value)
    d = space.delta
    want = (1 + 2 * d) * e * e + d * d * QSum.of(sign_stats(space.base, a).mean_sq())
    got = batch.mean_sq()
    assert len(QSum.of(got).terms) == 11194
    assert QSum.of(got) == want


def test_many_class_mean_sq_adds_no_qsum_per_term(monkeypatch):
    """The second moment builds one value at the end: its QSum additions do
    not grow with the class count (it took one per class pair and per
    class and radicand)."""
    _, _, batch = _many_class_walk()
    merges = []
    merge = QSum._merge
    monkeypatch.setattr(QSum, "_merge",
                        lambda self, *args, **kw: merges.append(1) or merge(self, *args, **kw))
    batch.mean_sq()
    assert len(merges) <= 2


def test_picks_compare_exactly_below_float_resolution(monkeypatch):
    """Picks of two batches whose values round to one float (x and
    y sqrt(2) for a Pell pair near 4.5e9, 2.5e-20 apart relatively) are
    compared exactly; equal integers under equal scales are equal, and
    floats further apart than their error bounds decide, neither building
    a value."""
    from rudlab import batches
    from rudlab.batches import Pick

    x, y = 4478554083, 3166815962
    assert x * x - 2 * y * y == 1 and float(x) == float(y * 2**0.5)
    radical = ExactBatch.from_classes({1: np.array([0, 1]), 2: np.array([y, 0])}, 1)
    rational = ExactBatch.from_rational(np.array([x, 1]), 1)
    assert Pick(rational, 0).gt(Pick(radical, 0))
    assert not Pick(radical, 0).gt(Pick(rational, 0))
    built = []
    scalar = batches._scalar
    monkeypatch.setattr(batches, "_scalar", lambda t, d: built.append(1) or scalar(t, d))
    again = ExactBatch.from_rational(np.array([7, x]), 1)
    assert not Pick(rational, 0).gt(Pick(again, 1)) and not Pick(again, 1).gt(Pick(rational, 0))
    assert Pick(rational, 0).gt(Pick(rational, 1)) and not Pick(radical, 1).gt(Pick(radical, 0))
    assert built == []
