"""Exact batches never wrap int64: they hold int64 only where a Python-int
bound shows no entry or sum can leave it, and Python ints otherwise."""

from fractions import Fraction as F

import numpy as np

from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum


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
    """Each piece's mean is the mean of that slice of the batch, with the
    same terms in the same order, so it converts to the same float."""
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
        assert QSum.of(got[p]) == QSum.of(want)
        assert list(QSum.of(got[p]).terms) == list(QSum.of(want).terms)
        assert float(got[p]) == float(want)
        slow = sum(QSum.of(batch.value(i)) for i in range(lo, hi)) * F(1, over)
        assert QSum.of(got[p]) == slow
    floats = ExactBatch.from_scalars([0.1 * k for k in range(n)])
    total = 0.0
    for k in range(8, 25):  # left to right, as the walk folds a float chunk
        total += 0.1 * k
    assert floats.group_means(starts, overs)[2] == total / 20
