from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rudlab.coeffs import (
    Coeffs,
    DomainError,
    EnumerationCapError,
    NoIntegerForm,
    SignPattern,
    apply_signs,
    enumerate_sign_patterns,
    mask_matrix_full,
    pair,
    sign_matrix_full,
    sign_matrix_range,
)
from rudlab.batches import int_dtype
from rudlab.exactnum import QSum, SQRT2
from rudlab.rng import counter_u64, sign_codes, sign_matrix
from rudlab.spaces import LpSpace, _int_mult_values


def test_apply_signs_examples():
    a = Coeffs.from_values([1, -2])
    e = SignPattern(((0, 1), (1, -1)))
    assert apply_signs(a, e).entries == ((0, 1), (1, 2))
    a = Coeffs.from_values([3])
    assert apply_signs(a, SignPattern(((0, 1),))) == a
    a = Coeffs.from_values([1, 1, 1])
    flipped = apply_signs(a, SignPattern.constant((0, 1, 2), -1))
    assert [v for _, v in flipped.entries] == [-1, -1, -1]


def test_apply_signs_cover_error():
    a = Coeffs.from_values([1, 2])
    with pytest.raises(DomainError, match="sign pattern does not cover support"):
        apply_signs(a, SignPattern(((0, 1),)))


def test_pair_examples():
    phi = Coeffs.from_pairs([(1, 1)])
    assert pair(phi, Coeffs.from_pairs([(1, 5), (2, 7)])) == 5
    w = QSum({2: F(1, 2)})  # 1/sqrt(2)
    phi = Coeffs.from_pairs([(1, w), (2, w)])
    got = pair(phi, Coeffs.from_pairs([(1, 1), (2, 1)]))
    assert (QSum.of(got) - SQRT2).sign() == 0
    assert pair(Coeffs.zero(), Coeffs.from_values([1, 2])) == 0


def test_enumeration():
    pats = list(enumerate_sign_patterns({3}))
    assert [p.signs for p in pats] == [((3, 1),), ((3, -1),)]
    pats = list(enumerate_sign_patterns({1, 2}))
    assert len(pats) == 4 and len({p.signs for p in pats}) == 4
    assert len(list(enumerate_sign_patterns(range(10)))) == 1024
    with pytest.raises(EnumerationCapError,
                       match="^support of size 30 exceeds the enumeration cap 24$"):
        list(enumerate_sign_patterns(range(30)))
    with pytest.raises(EnumerationCapError) as err:
        list(enumerate_sign_patterns(range(5), cap=4))
    assert str(err.value) == "support of size 5 exceeds the enumeration cap 4"
    assert "Monte-Carlo" not in str(err.value)


def test_sign_mask_matrices():
    s = sign_matrix_full(3)
    assert s.shape == (3, 8)
    assert sorted(map(tuple, s.T.tolist())) == sorted(
        [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    )
    m = mask_matrix_full(2)
    assert sorted(map(tuple, m.T.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


coeff_values = st.lists(
    st.integers(-4, 4).filter(lambda x: x != 0), min_size=1, max_size=8
)


@given(coeff_values, st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_involution(values, mask):
    a = Coeffs.from_values(values)
    e = SignPattern.from_mask(a.support, mask & ((1 << len(a)) - 1))
    assert apply_signs(apply_signs(a, e), e) == a


@given(coeff_values, coeff_values, coeff_values)
@settings(max_examples=60, deadline=None)
def test_pair_bilinear(ws, xs, ys):
    phi = Coeffs.from_values(ws)
    a, b = Coeffs.from_values(xs), Coeffs.from_values(ys)
    assert pair(phi, a + b) == pair(phi, a) + pair(phi, b)


@given(coeff_values)
@settings(max_examples=40, deadline=None)
def test_enumeration_symmetry(values):
    a = Coeffs.from_values(values)
    total = Coeffs.zero()
    for e in enumerate_sign_patterns(a.support):
        total = total + apply_signs(a, e)
    assert total == Coeffs.zero()


def sign_vector(seed, m, index):
    """Scalar twin of :func:`sign_matrix` for a single sample: bit b of
    counter word w is the sign of row 64 w + b (1 for a minus sign)."""
    out = []
    for word in range((m + 63) // 64):
        h = counter_u64(seed, index, word)
        out.extend(1 - 2 * ((h >> b) & 1) for b in range(min(64, m - 64 * word)))
    return out


def test_counter_rng_scalar_matches_numpy():
    for seed in (0, 1, 0xC0FFEE):
        mat = sign_matrix(seed, 70, 5, start=3)
        for j in range(5):
            assert sign_vector(seed, 70, 3 + j) == mat[:, j].tolist()


@pytest.mark.parametrize("m", [1, 7, 40, 63, 64, 65, 130])
@pytest.mark.parametrize("start", [0, 3, 4095, 1 << 40])
def test_sign_matrix_unpacks_the_scalar_draws(m, start):
    """Every column of the unpacked sign matrix is the scalar draw, across
    word boundaries (63, 64, 65 and 130 rows) and at far starts."""
    for seed in (0, 1, 0xC0FFEE):
        mat = sign_matrix(seed, m, 5, start=start)
        assert mat.dtype == np.int8 and mat.shape == (m, 5) and mat.flags.c_contiguous
        for j in range(5):
            assert sign_vector(seed, m, start + j) == mat[:, j].tolist()


def test_counter_rng_chunk_invariance():
    a = np.concatenate(
        [sign_matrix(7, 10, 4, start=0), sign_matrix(7, 10, 6, start=4)], axis=1
    )
    b = sign_matrix(7, 10, 10, start=0)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [1, 13, 14, 16])
@pytest.mark.parametrize("start", [0, 4095])
def test_sign_codes_index_the_canonical_patterns(m, start):
    """Sample i's code picks its sign column out of the 2^m patterns in
    bitmask order, so a table over those patterns replays the draw stream."""
    codes = sign_codes(0xC0FFEE, m, 5000, start)
    assert codes.dtype == np.uint64 and int(codes.max()) < 1 << m
    full = sign_matrix_range(m, 0, 1 << m)
    assert np.array_equal(sign_matrix(0xC0FFEE, m, 5000, start), full[:, codes])


def test_sign_codes_refuse_past_one_word():
    for m in (0, 65):
        with pytest.raises(ValueError, match="0 < m <= 64"):
            sign_codes(1, m, 3)


def test_int_values_magnitude_guard():
    """Integer values take the narrowest of int8, int16, int32 and int64
    that holds the kernel bound, S * max(S, 4M) for [3, -14] is 17 * 56,
    and Python ints past int64; each width holds its largest value and
    passes the next one up.  Only the float range that tie location reads
    bounds them, and the batch refuses by what it holds: lp:1 holds 2^600
    itself, lp:2 its square."""
    ones = np.ones((2, 1), dtype=np.int8)
    v, den = _int_mult_values(Coeffs.from_values([F(3, 2), -7]), ones)
    assert v.dtype == np.int16 and v[:, 0].tolist() == [3, -14] and den == 2
    for bits, dtype, wider in ((15, np.int16, np.int32), (31, np.int32, np.int64),
                               (63, np.int64, object)):
        assert int_dtype((1 << bits) - 1) is dtype and int_dtype(1 << bits) is wider
    assert int_dtype(0) is np.int8 and int_dtype(127) is np.int8
    # denominators count toward the scaled magnitude
    v, den = _int_mult_values(Coeffs.from_values([F(1, 1 << 40), F(1 << 10)]), ones)
    assert v.dtype == object and v[:, 0].tolist() == [1, 1 << 50] and den == 1 << 40
    wide = Coeffs.from_values([1 << 600])
    assert LpSpace(1).mult_batch(wide, ones[:1]).value(0) == 1 << 600
    with pytest.raises(NoIntegerForm, match="float range"):
        LpSpace(2).mult_batch(wide, ones[:1])
    with pytest.raises(NoIntegerForm, match="float range"):
        LpSpace(1).mult_batch(Coeffs.from_values([F(1, 3**700)]), ones[:1])


def test_int_values_no_integer_form():
    """Float or radical entries raise the named no-integer-form signal (a
    DomainError: the CLI exits with 2)."""
    one = np.ones((2, 1), dtype=np.int8)
    with pytest.raises(NoIntegerForm, match="radical"):
        _int_mult_values(Coeffs.from_values([1, SQRT2]), one)
    with pytest.raises(NoIntegerForm, match="rational"):
        _int_mult_values(Coeffs.from_values([1, 0.5]), one)
    v, den = _int_mult_values(Coeffs.from_values([QSum.of(F(5, 2))]), one[:1])
    assert v[:, 0].tolist() == [5] and den == 2


def test_int_values_common_denominator_never_wraps():
    """The common denominator is a Python int: a product of denominators
    beyond 64 bits gives exact Python-int values instead of wrapping, and
    one large denominator normalises exactly."""
    one = np.ones((2, 1), dtype=np.int8)
    v, den = _int_mult_values(Coeffs.from_values([F(1, 4294967297), F(1, 4294967295)]), one)
    assert den == 4294967297 * 4294967295 and v[:, 0].tolist() == [4294967295, 4294967297]
    v, den = _int_mult_values(Coeffs.from_values([F(1, 18446744073709551619)]), one[:1])
    assert v[:, 0].tolist() == [1] and den == 18446744073709551619
    assert isinstance(den, int)
