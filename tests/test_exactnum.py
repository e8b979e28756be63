import math
import struct
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import rudlab.exactnum as exactnum
from rudlab.exactnum import (
    QSum,
    SQRT2,
    le_times_square,
    split_square,
    sqrt_exact,
)


def test_split_square():
    assert split_square(1) == (1, 1)
    assert split_square(8) == (2, 2)
    assert split_square(12) == (2, 3)
    assert split_square(49) == (7, 1)
    # a square cofactor past the small primes joins the outer factor
    assert split_square(153015) == (101, 15)  # 101^2 * 3 * 5
    assert split_square(2 * 101 * 101) == (101, 2)
    assert split_square(101 * 103) == (1, 101 * 103)
    # a square of a large prime times another large prime stays in the core
    # (semi-canonical), but the value-level comparison still detects the
    # collision
    assert split_square(101 * 101 * 103) == (1, 101 * 101 * 103)
    assert (QSum.root(101 * 101 * 103) - QSum.root(103, F(101))).sign() == 0


def test_sqrt_identities():
    assert (SQRT2 * SQRT2).as_fraction() == 2
    assert (sqrt_exact(8) - 2 * SQRT2).sign() == 0
    assert (sqrt_exact(F(9, 4)) - F(3, 2)).sign() == 0
    r = sqrt_exact(F(2, 3))
    assert ((r * r) - F(2, 3)).sign() == 0


def test_ordering():
    assert SQRT2 + 1 > F(12, 5)
    assert SQRT2 + 1 < F(5, 2)
    # sqrt(2) + sqrt(3) vs sqrt(5 + 2*sqrt(6)): equal after squaring
    s = SQRT2 + QSum.root(3)
    assert (s * s - (5 + 2 * QSum.root(6))).sign() == 0
    assert abs(QSum.root(3) - QSum.root(2)) > 0


def test_division():
    x = QSum.root(2, F(3))  # 3*sqrt(2)
    assert ((x / SQRT2) - 3).sign() == 0
    assert ((1 / SQRT2) - QSum({2: F(1, 2)})).sign() == 0
    with pytest.raises(TypeError):
        (SQRT2 + 1) / (SQRT2 + QSum.root(3))


def test_interval_and_square_compare():
    assert le_times_square(F(2), F(2), 1)          # 2 <= 2*1
    assert not le_times_square(F(3), F(2), 1)      # 3 > 2
    assert le_times_square(4, F(2), SQRT2)         # 4 <= 2*2


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_square_compare_with_many_radicals(n):
    """y with 9 to 12 terms: x on the bound c * y^2, and 1e-30 * sqrt(2)
    below and above it, is decided exactly, and so is the rational x
    nearest below and above the bound's float."""
    y = QSum({k: F(1, k) for k in (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17)[:n]})
    assert len(y.terms) == n
    c = F(3, 2)
    bound = QSum.of(c) * y * y
    tiny = QSum.root(2, F(1, 10**30))
    assert le_times_square(bound, c, y)
    assert le_times_square(bound - tiny, c, y)
    assert not le_times_square(bound + tiny, c, y)
    f = F(float(bound))
    for x in (f - F(1, 10**40), f + F(1, 10**40)):
        assert le_times_square(x, c, y) == ((bound - x).sign() >= 0)


def test_square_compare_far_from_the_bound_forms_no_product(monkeypatch):
    """A y of 120 radical terms, with x far below or above c * y^2: one
    64-bit bracket of each decides, and no symbolic product is formed."""
    cores = [k for k in range(1, 400) if split_square(k)[0] == 1][:120]
    y = QSum({k: F(1, i + 1) for i, k in enumerate(cores)})
    assert len(y.terms) == 120
    c, y2 = F(3, 2), float(y) ** 2
    products = []
    product = exactnum._product
    monkeypatch.setattr(exactnum, "_product",
                        lambda t1, t2: products.append(1) or product(t1, t2))
    assert le_times_square(F(int(y2)), c, y)
    assert le_times_square(QSum.root(3, F(int(y2) // 2)), c, y)
    assert not le_times_square(F(2 * int(y2)), c, y)
    assert not le_times_square(QSum.root(3, F(int(y2))), c, y)
    assert products == []


def test_float_and_repr():
    assert abs(float(SQRT2) - 2**0.5) < 1e-15
    assert not QSum()
    assert QSum.of(F(3, 2)).as_fraction() == F(3, 2)


@given(st.integers(1, 400), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_sqrt_multiplicative(a, b):
    assert (sqrt_exact(a) * sqrt_exact(b) - sqrt_exact(a * b)).sign() == 0


@given(st.fractions(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_sqrt_square_roundtrip(q):
    r = sqrt_exact(q)
    assert (r * r - q).sign() == 0
    assert r.sign() >= 0


def test_float_mixing_rejected():
    """Exact scalars refuse silent mixing with binary floats."""
    with pytest.raises(TypeError):
        SQRT2 + 0.1
    with pytest.raises(TypeError):
        SQRT2 < 1.5
    # explicit conversion is the supported route
    assert float(SQRT2) < 1.5


def _bracket_loop_sign(terms):
    """The exact sign loop on its own, without the float filter: integer
    square-root brackets doubled in precision until they exclude zero, with
    the full factorisation at 1024 bits.  The oracle for the filter."""
    from rudlab.exactnum import _bracket, _canonicalise

    t = dict(terms)
    bits = 32
    while bits <= 1 << 16:
        if not t:
            return 0
        if len(t) == 1:
            return 1 if next(iter(t.values())) > 0 else -1
        lo, hi = _bracket(t, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
        if bits == 1024:
            t = _canonicalise(t)
    raise AssertionError("oracle undecided")


def _check_sign(terms):
    assert QSum(dict(terms)).sign() == _bracket_loop_sign(terms), terms


_CORES = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 101, 20402, 9999991])


@given(st.dictionaries(_CORES, st.fractions(max_denominator=10**6).filter(bool),
                       min_size=2, max_size=8))
@settings(max_examples=300, deadline=None)
def test_float_filter_matches_bracket_loop(terms):
    _check_sign(terms)


@given(st.integers(2, 10**6).filter(lambda d: split_square(d)[1] == d),
       st.integers(1, 10**12), st.integers(-1, 1), st.fractions(max_denominator=50).filter(bool))
@settings(max_examples=300, deadline=None)
def test_float_filter_near_zero_pairs(d, q, off, scale):
    """p - q*sqrt(d) with p the nearest integer to q*sqrt(d): within about
    1/q of zero, under the float filter's bound, so the exact loop decides."""
    p = isqrt(d * q * q) + off
    _check_sign({1: scale * p, d: -scale * q})
    _check_sign({1: scale * p, d: -scale * q, 2: F(1, 10**30)})


def test_float_filter_edge_cases():
    from rudlab.exactnum import _float_sign

    # near-zero Pell pairs (7.5e-7 and 1.1e-10 from zero); the filter
    # decides the first and leaves the second to the exact loop
    assert _float_sign({1: F(665857), 2: F(-470832)}.items()) == 1
    assert _float_sign({1: F(4478554083), 2: F(-3166815962)}.items()) == 0
    for p, q in ((665857, 470832), (4478554083, 3166815962)):
        _check_sign({1: F(p), 2: F(-q)})
        _check_sign({1: F(-p), 2: F(q)})
    assert (QSum.of(665857) - QSum.root(2, F(470832))).sign() == 1
    # a semi-canonical collision is exactly zero
    zero = {20402: F(1), 2: F(-101)}
    assert _float_sign(zero.items()) == 0 and QSum(zero).sign() == 0
    _check_sign({20402: F(1), 2: F(-101), 3: F(1, 10**40)})
    # numerators past the float range overflow the filter, not the sign
    big = 1 << 1100
    assert _float_sign({1: F(big + 1), 2: F(-isqrt(2 * big * big))}.items()) == 0
    _check_sign({1: F(big + 1), 2: F(-isqrt(2 * big * big))})
    _check_sign({1: F(big, 3), 5: F(-big, 7)})
    # values under 1e-300: subnormal terms and tiny magnitude sums defer
    tiny = 10**310
    assert _float_sign({1: F(1, tiny), 2: F(-1, tiny)}.items()) == 0
    assert _float_sign({1: F(1, 10**300), 2: F(-1, 10**300)}.items()) == 0
    _check_sign({1: F(1, tiny), 2: F(-1, tiny)})
    _check_sign({3: F(7, 10**301), 2: F(-8, 10**301)})
    # ordinary sums are decided by the filter alone
    assert _float_sign({1: F(3, 2), 2: F(-1)}.items()) == 1
    assert _float_sign({5: F(1), 6: F(-1), 1: F(1, 1000)}.items()) == -1
    # a second list is subtracted, its cores shared with the first or not
    assert _float_sign({1: F(3, 2)}.items(), {2: F(1)}.items()) == 1
    assert _float_sign({2: F(1)}.items(), {2: F(1), 1: F(1, 10**6)}.items()) == -1
    assert _float_sign({1: F(665857)}.items(), {2: F(470832)}.items()) == 1


_QSUMS = st.dictionaries(_CORES, st.fractions(max_denominator=10**6).filter(bool),
                         max_size=6).map(QSum)
# x^2 - 2 y^2 = 1: x and y*sqrt(2) differ by about 1/(2x)
_PELL = [(665857, 470832), (4478554083, 3166815962)]


def _check_order(x, y):
    """Every comparison of x with y agrees with the oracle's sign of x - y."""
    s = _bracket_loop_sign((QSum.of(x) - QSum.of(y)).terms)
    X = QSum.of(x)
    assert (X < y, X <= y, X > y, X >= y, X == y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0), (x, y)


@given(_QSUMS, _QSUMS, st.fractions(max_denominator=10**9))
@settings(max_examples=300, deadline=None)
def test_comparisons_match_the_difference_sign(x, y, r):
    shared = QSum({c: q + F(1, 10**12) for c, q in x.terms.items()})  # every core shared
    for a, b in ((x, y), (y, x), (x, x), (x, -x), (x, shared), (shared, x),
                 (x, x + r), (x + r, x), (r, x), (x, r), (r, r)):
        _check_order(a, b)


def test_comparisons_on_pell_pairs_and_ties():
    for p, q in _PELL:
        hi, lo = QSum.of(p), QSum.root(2, F(q))
        for a, b in ((hi, lo), (lo, hi), (-hi, -lo), (hi + lo, lo + hi)):
            _check_order(a, b)
        assert hi > lo and not lo >= hi
    # the same value under a semi-canonical radicand: an exact tie
    assert QSum({20402: F(1)}) == QSum.root(2, F(101))
    _check_order(QSum({20402: F(1)}), QSum.root(2, F(101)))
    assert QSum.of(F(3, 2)) >= 1 and not QSum.of(1) >= F(3, 2) and QSum.of(0) >= QSum()


def _items(x):
    return [(c, type(q), q) for c, q in x.terms.items()]


def test_rational_product_moves_square_radicands_to_their_cores():
    """A radicand with a square factor moves to its core, cores keep their
    first-appearance order, and terms that meet on one core merge."""
    assert _items(QSum({8: 1}) * 2) == [(2, F, F(4))]
    assert _items(2 * QSum({8: 1})) == [(2, F, F(4))]
    x = QSum({8: F(1), 2: F(1), 3: F(1)})
    assert _items(x * F(-3, 7)) == [(2, F, F(-9, 7)), (3, F, F(-3, 7))]
    assert _items(QSum({8: F(1), 2: F(-2)}) * 5) == []
    assert _items(x * 0) == []


def test_rational_factor_scales_the_terms_as_the_product_does():
    """A rational factor, on either side, gives the terms of the general
    product (``exactnum._product``) with the factor as a one-term value,
    in order and of the same types; a zero factor gives no terms."""
    values = [
        QSum({5: F(1, 3), 1: F(-2), 2: F(7, 4)}),
        QSum.root(12, F(3, 4)) + QSum.of(F(7, 5)) + QSum.root(20402),
        QSum({2 * 101 * 103: F(-9, 8)}),
        QSum.of(F(11, 6)),
        QSum(),
    ]
    for x in values:
        for r in (2, -3, F(7, 9), F(-1, 2), 0, F(0)):
            want = _items(QSum(exactnum._product(x.terms, QSum.of(r).terms)))
            assert _items(x * r) == want and _items(r * x) == want, (x, r)
            assert not (r == 0 and want)


# cores with and without square factors, and scales near the ends of the
# range where values stay normal floats
_ROUND_CORES = st.sampled_from([1, 2, 3, 4, 5, 8, 12, 18, 20, 27, 50, 72, 98, 20402])
_ROUND_SCALES = st.sampled_from([-502, -500, -499, -1, 0, 1, 499, 500, 502])


@st.composite
def _scaled_terms(draw):
    e = draw(_ROUND_SCALES)
    terms = draw(st.dictionaries(_ROUND_CORES, st.fractions(max_denominator=1000).filter(bool),
                                 min_size=1, max_size=4))
    return {c: q * F(2) ** e for c, q in terms.items()}


def _is_even(f: float) -> bool:
    return struct.unpack("<q", struct.pack("<d", f))[0] & 1 == 0


@given(_scaled_terms(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_float_is_correctly_rounded(terms, rnd):
    """float(x) lies within half an ulp of x, decided by exact comparison
    with the midpoints to its neighbours, and does not depend on the order
    of the terms or on how their radicands are written."""
    x = QSum(dict(terms))
    f = float(x)
    below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
    assert (F(below) + F(f)) / 2 <= x <= (F(f) + F(above)) / 2
    items = list(terms.items())
    rnd.shuffle(items)
    assert float(QSum(dict(items))) == f
    assert float(QSum({4 * c: q / 2 for c, q in items})) == f
    assert float(QSum({8: F(1)})) == float(QSum({2: F(2)})) == float(2 * SQRT2)


@given(st.floats(min_value=2.0**-600, max_value=2.0**600), st.booleans(),
       st.fractions(max_denominator=1000).filter(bool), _ROUND_SCALES)
@settings(max_examples=200, deadline=None)
def test_cancelling_midpoint_rounds_to_even(f, negative, q, e):
    """Radical terms that cancel, beside a rational midpoint of two floats,
    round to the even one, as float(Fraction) does."""
    f = -f if negative else f
    mid = (F(f) + F(math.nextafter(f, math.inf))) / 2
    q *= F(2) ** e
    for terms in ({1: mid, 2: q, 8: -q / 2}, {8: -q / 2, 1: mid, 2: q}, {18: q, 1: mid, 2: -3 * q}):
        g = float(QSum(terms))
        assert g == float(mid) and _is_even(g), terms
