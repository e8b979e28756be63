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
