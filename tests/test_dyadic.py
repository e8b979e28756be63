"""Dyadic-grid L1 engines against direct pointwise oracles."""

from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.coeffs import Coeffs, DomainError
from rudlab.dyadic import HaarL1Space, WalshL1Space, haar_level

walsh = WalshL1Space()
haar = HaarL1Space()


def _rademacher(j: int, t: F) -> int:
    """r_j on [0,1): +1 on the first half of each dyadic piece of size 2^-j+1."""
    scaled = t * (1 << j)
    return 1 if int(scaled) % 2 == 0 else -1


def _walsh_value(k: int, t: F) -> int:
    v = 1
    j = 1
    while k:
        if k & 1:
            v *= _rademacher(j, t)
        k >>= 1
        j += 1
    return v


def _walsh_oracle(a: Coeffs) -> F:
    levels = max(int(i).bit_length() for i in a.support)
    n = 1 << levels
    total = F(0)
    for atom in range(n):
        t = F(2 * atom + 1, 2 * n)  # midpoint of the atom
        total += abs(sum(F(v) * _walsh_value(i, t) for i, v in a.entries))
    return total / n


def _haar_value(j: int, t: F) -> int:
    if j == 1:
        return 1
    k, l = haar_level(j)
    lo = F(2 * l - 2, 1 << (k + 1))
    mid = F(2 * l - 1, 1 << (k + 1))
    hi = F(2 * l, 1 << (k + 1))
    if lo <= t < mid:
        return 1
    if mid <= t < hi:
        return -1
    return 0


def _haar_oracle(a: Coeffs) -> F:
    deepest = max((haar_level(j)[0] + 1 for j in a.support if j >= 2), default=0)
    n = 1 << deepest
    total = F(0)
    for atom in range(n):
        t = F(2 * atom + 1, 2 * n)
        total += abs(sum(F(v) * _haar_value(j, t) for j, v in a.entries))
    return total / n


def test_walsh_examples():
    assert walsh.norm(Coeffs.from_pairs([(0, 1)])) == 1
    assert walsh.norm(Coeffs.from_pairs([(1, 1)])) == 1
    assert walsh.norm(Coeffs.from_pairs([(0, 1), (1, 1)])) == 1


def test_haar_examples():
    assert haar.norm(Coeffs.from_pairs([(2, 1)])) == 1
    assert haar.norm(Coeffs.from_pairs([(1, 1)])) == 1
    assert haar.norm(Coeffs.from_pairs([(3, 1), (4, 1)])) == 1


def test_haar_index_convention():
    assert haar_level(2) == (0, 1)
    assert haar_level(3) == (1, 1)
    assert haar_level(4) == (1, 2)
    assert haar_level(5) == (2, 1)
    with pytest.raises(DomainError):
        haar_level(1)


def test_walsh_vs_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        sup = sorted(int(x) for x in rng.choice(32, size=m, replace=False))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs([(i, int(v)) for i, v in zip(sup, vals) if v])
        if not a:
            continue
        assert walsh.norm(a) == _walsh_oracle(a)


def test_haar_vs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        sup = sorted(int(x) for x in rng.choice(np.arange(1, 32), size=m, replace=False))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs([(i, int(v)) for i, v in zip(sup, vals) if v])
        if not a:
            continue
        assert haar.norm(a) == _haar_oracle(a)


def test_haar_refuses_index_zero_on_both_paths():
    """The exact and the float batch refuse tree index 0 with one message."""
    one = np.ones((2, 1), dtype=np.int8)
    cases = ((haar.mult_batch, Coeffs.from_pairs([(0, 1), (2, 1)]), one),
             (haar.mult_batch_float, Coeffs.from_pairs([(0, 0.5), (2, 1.0)]), one * 1.0))
    messages = []
    for run, a, mult in cases:
        with pytest.raises(DomainError) as err:
            run(a, mult)
        messages.append(str(err.value))
    assert messages == ["tree indices start at 1"] * 2


def test_grid_caps():
    """Indices whose dyadic grid passes DEFAULT_GRID_CAP levels are refused."""
    from rudlab.dyadic import DEFAULT_GRID_CAP

    with pytest.raises(DomainError, match="grid cap"):
        WalshL1Space().norm(Coeffs.from_pairs([(1 << DEFAULT_GRID_CAP, 1)]))
    with pytest.raises(DomainError, match="grid cap"):
        HaarL1Space().norm(Coeffs.from_pairs([((1 << DEFAULT_GRID_CAP) + 1, 1)]))


def test_walsh_l2_domination():
    # orthonormality: L1 norm never exceeds the coefficient l2 norm
    from rudlab.exactnum import QSum, sqrt_exact

    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        sup = sorted(int(x) for x in rng.choice(64, size=m, replace=False))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs([(i, int(v)) for i, v in zip(sup, vals) if v])
        if not a:
            continue
        ssq = sum(F(v) ** 2 for _, v in a.entries)
        assert (sqrt_exact(ssq) - QSum.of(walsh.norm(a))).sign() >= 0
