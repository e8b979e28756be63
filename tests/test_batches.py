"""Affine adjustments of exact batches refuse results that leave int64."""

from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs, NoIntegerForm
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum, sqrt_exact


def _chain_batch():
    """james:chain on 12 alternating entries of 2^26: one radicand near 2^57."""
    space = SpaceFactory(RunConfig()).space("james:chain")
    a = Coeffs.from_values([(1 << 26) * (-1) ** k for k in range(12)])
    return space.mult_batch(a, np.ones((12, 1), dtype=np.int8), 1)


def test_scale_rational_refuses_int64_wrap():
    batch = _chain_batch()
    r = int(batch.roots[0])
    assert 81 * r >= 1 << 63  # scaled by 9 the radicand no longer fits
    with pytest.raises(NoIntegerForm, match="int64"):
        batch.scale_rational(F(9))
    scaled = batch.scale_rational(F(1, 9))  # the denominator goes to the scale
    assert (QSum.of(scaled.value(0)) - sqrt_exact(r) / 9).sign() == 0
    assert (QSum.of(batch.scale_rational(F(3)).value(0)) - 3 * sqrt_exact(r)).sign() == 0


def test_shift_rational_refuses_int64_wrap():
    big = np.array([1 << 61, -(1 << 61)], dtype=np.int64)
    batch = ExactBatch.from_classes({1: big, 2: np.array([1, 1], dtype=np.int64)}, 1)
    with pytest.raises(NoIntegerForm, match="int64"):
        batch.shift_rational(F(1, 5))  # rescales every class by 5
    with pytest.raises(NoIntegerForm, match="int64"):
        batch.shift_rational(F(3 << 61))  # 2^63 at index 0
    with pytest.raises(NoIntegerForm, match="int64"):
        batch.scale_rational(F(4))
    # near the int64 limit the results stay exact, one step past it they are refused
    thirds = batch.shift_rational(F(1, 3))  # class-1 entries 3 * 2^61 + 1
    assert thirds.value(0) == QSum.of((1 << 61) + F(1, 3)) + QSum.root(2)
    with pytest.raises(NoIntegerForm, match="int64"):
        thirds.shift_rational(F(1 << 61, 3))
    shifted = batch.shift_rational(F(5))
    assert shifted.value(1) == QSum.of(5 - (1 << 61)) + QSum.root(2)
    assert batch.scale_rational(F(3, 7)).value(1) == (QSum.root(2) - (1 << 61)) * F(3, 7)


def test_renorm_batch_refuses_int64_wrap():
    """A renorm batch whose scaled base batch leaves int64 has no integer
    form: the NoIntegerForm that the exact walk falls back on, not a
    wrapped radicand."""
    space = SpaceFactory(RunConfig()).space("renorm:james:chain:9")
    a = Coeffs.from_values([(1 << 26) * (-1) ** k for k in range(12)])
    with pytest.raises(NoIntegerForm, match="int64"):
        space.mult_batch(a, np.ones((12, 1), dtype=np.int8), 1)


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
