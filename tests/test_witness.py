from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.coeffs import Coeffs, DomainError, SignPattern
from rudlab.rademacher import sign_stats
from rudlab.spaces import LpSpace, RenormSpace, SummingDualSpace, SummingSpace
from rudlab.witness import partition_rud_bound, ratio_ruc, ratio_rud, ratio_unc

l1, l2 = LpSpace(1), LpSpace(2)
s, sd = SummingSpace(), SummingDualSpace()


def test_ratio_examples():
    assert ratio_ruc(l2, Coeffs.from_values([3, 4])) == pytest.approx(1)
    assert ratio_ruc(s, Coeffs.from_values([1, 1])) == pytest.approx(0.75)
    assert ratio_rud(l1, Coeffs.from_values([2, -5])) == pytest.approx(1)
    assert ratio_rud(sd, Coeffs.from_values([1, -1])) == pytest.approx(4 / 3)
    ones = Coeffs.from_values([1, 1, 1, 1])
    alt = SignPattern.from_mask((0, 1, 2, 3), 0b1010)
    assert ratio_unc(s, ones, alt) == pytest.approx(0.25)
    assert ratio_unc(s, ones, SignPattern.constant((0, 1, 2, 3))) == pytest.approx(1)


def test_ratio_zero_vector_errors():
    with pytest.raises(DomainError, match="zero vector"):
        ratio_ruc(l2, Coeffs.zero())
    with pytest.raises(DomainError, match="zero vector"):
        ratio_rud(s, Coeffs.zero())


def test_growth_of_summing_witnesses():
    """Convergence-side ratio of alternating vectors grows with the length."""
    prev = 0.0
    for k in (2, 4, 8):
        a = Coeffs.from_values([(-1) ** i for i in range(2 * k)])
        r = ratio_ruc(s, a)
        assert r > prev
        prev = r
    assert prev > 2  # at length 16 the ratio certifies constant >= 2


def test_partition_bound():
    samples = [Coeffs.from_values([1, 2, -1, 3]), Coeffs.from_values([1, -1, 1, -1])]
    rep = partition_rud_bound(l1, [(0, 2), (1, 3)], samples)
    assert rep.all_ok
    assert all(c == pytest.approx(1) for c in rep.class_constants)
    rep = partition_rud_bound(s, [(0,), (1,), (2,), (3,)],
                              [Coeffs.from_values([1, 1, 1, 1])])
    assert rep.all_ok and rep.sum_bound <= 4 + 1e-12
    with pytest.raises(DomainError, match="cover"):
        partition_rud_bound(l1, [(0,)], [Coeffs.from_values([1, 1])])


def test_renormed_ratio_cap():
    for delta in (F(1), F(1, 2)):
        space = RenormSpace(s, delta)
        rng = np.random.default_rng(2)
        for _ in range(8):
            m = int(rng.integers(1, 7))
            vals = rng.integers(-3, 4, size=m)
            a = Coeffs.from_pairs([(i, int(v)) for i, v in enumerate(vals) if v])
            if not a:
                continue
            assert ratio_ruc(space, a) <= float(1 + delta) + 1e-12


def test_ratios_past_the_cap_refuse_instead_of_sampling(monkeypatch):
    """Past its cap a ratio raises EnumerationCapError and draws no
    Monte-Carlo sample: at the default cap on 25 entries, and at a cap of 4
    on 5 entries, where the same ratio at cap 5 is exact."""
    import rudlab.rademacher as rad
    from rudlab.coeffs import EnumerationCapError

    monkeypatch.setattr(rad, "expect_mc", lambda *args, **kw: pytest.fail("sampled"))
    ones = Coeffs.from_values([1] * 5)
    for ratio in (ratio_ruc, ratio_rud):
        with pytest.raises(EnumerationCapError, match="enumeration cap 24"):
            ratio(s, Coeffs.from_values([1] * 25))
        with pytest.raises(EnumerationCapError, match="enumeration cap 4"):
            ratio(s, ones, 4)
    # the sign average of the five ones is 19/8
    assert ratio_rud(s, ones, 5) == 5 / 2.375


def test_renorm_nested_cross_check():
    """Fully nested inner/outer enumeration agrees with the shared-inner
    shortcut on a small instance."""
    space = RenormSpace(s, F(1))
    a = Coeffs.from_values([1, -2, 1, 3])
    fast = sign_stats(space, a).mean()
    from rudlab.coeffs import apply_signs, enumerate_sign_patterns
    from rudlab.rademacher import expect_exact

    total = F(0)
    count = 0
    for e in enumerate_sign_patterns(a.support):
        ea = apply_signs(a, e)
        total += F(expect_exact(s, ea).value) + F(s.norm(ea))
        count += 1
    assert F(fast) == total / count


def test_summing_dual_is_two_rud_on_samples():
    rng = np.random.default_rng(6)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs([(i, int(v)) for i, v in enumerate(vals) if v])
        if not a:
            continue
        assert ratio_rud(sd, a) <= 2 + 1e-12


def test_unc_identity_grid():
    """Where the sign-flip ratio is identically one, both defining ratios
    are one too (exact for the unconditional coordinate engines)."""
    rng = np.random.default_rng(7)
    for space in (l1, l2):
        for _ in range(5):
            m = int(rng.integers(1, 6))
            vals = rng.integers(-3, 4, size=m)
            a = Coeffs.from_pairs([(i, int(v)) for i, v in enumerate(vals) if v])
            if not a:
                continue
            st = sign_stats(space, a)
            assert float(st.max()) == pytest.approx(float(st.min()), abs=1e-12)
            assert ratio_ruc(space, a) == pytest.approx(1, abs=1e-12)
            assert ratio_rud(space, a) == pytest.approx(1, abs=1e-12)
