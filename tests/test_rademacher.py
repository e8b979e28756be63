from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.coeffs import Coeffs, EnumerationCapError
from rudlab.exactnum import QSum, le_times_square
from rudlab.experiments import SWEEP_SPECS
from rudlab.rademacher import (
    expect_exact,
    expect_mc,
    expect_perm,
    expect_second_moment,
    expect_subsets,
    sign_stats,
)
from rudlab.spaces import LpSpace, SummingDualSpace, SummingSpace

l1, l2 = LpSpace(1), LpSpace(2)
s, sd = SummingSpace(), SummingDualSpace()


def test_expect_exact_examples():
    assert expect_exact(l2, Coeffs.from_values([3, 4])).value == 5
    assert expect_exact(s, Coeffs.from_values([1, 1])).value == F(3, 2)
    assert expect_exact(sd, Coeffs.from_values([1, 1])).value == 3
    est = expect_exact(l2, Coeffs.zero())
    assert est.value == 0 and est.bracket == (0, 0)


def test_second_moment_examples():
    assert expect_second_moment(l2, Coeffs.from_values([3, 4])).value == 25
    assert expect_second_moment(l2, Coeffs.from_values([1])).value == 1
    assert expect_second_moment(s, Coeffs.from_values([1, 1])).value == F(5, 2)


def test_subsets_examples():
    assert expect_subsets(l1, Coeffs.from_values([1, 1])).value == 1
    assert expect_subsets(l2, Coeffs.from_values([1])).value == F(1, 2)
    assert expect_subsets(s, Coeffs.zero()).value == 0


def test_perm_examples():
    # both placements of one coefficient across two slots give norm 1
    one = Coeffs.from_pairs([(0, 1)])
    assert expect_perm(l1, one, span=(0, 1)).value == 1
    assert expect_perm(s, one, span=(0, 1)).value == 1
    # both placements of (1,2) have maximal tail 3
    assert expect_perm(s, Coeffs.from_pairs([(0, 1), (1, 2)])).value == 3
    # l1 is permutation-invariant
    assert expect_perm(l1, Coeffs.from_values([1, -2, 3])).value == 6
    a = Coeffs.from_pairs([(0, 1), (2, 1)])  # zero in the middle is permuted too
    est = expect_perm(s, a)
    assert est.method == "permutation"
    single = Coeffs.from_pairs([(5, F(7, 2))])
    assert expect_perm(sd, single).value == sd.norm(single)


def test_cap_errors():
    big = Coeffs.from_values([1] * 30)
    with pytest.raises(EnumerationCapError, match="expect_mc"):
        expect_exact(s, big)


def test_mc_constant_statistic():
    est = expect_mc(l2, Coeffs.from_values([3, 4]), samples=200, seed=9)
    assert est.value == 5.0 and est.bracket == (5.0, 5.0)


def test_mc_bracket_contains_exact():
    est = expect_mc(s, Coeffs.from_values([1, 1]), samples=100_000, seed=42)
    assert 1.45 <= est.value <= 1.55
    assert est.bracket[0] <= 1.5 <= est.bracket[1]


def test_mc_bit_identical():
    a = Coeffs.from_values([1, -2, 3, -1, 2])
    e1 = expect_mc(s, a, samples=5000, seed=123)
    e2 = expect_mc(s, a, samples=5000, seed=123)
    assert e1.value == e2.value and e1.bracket == e2.bracket
    e3 = expect_mc(s, a, samples=5000, seed=124)
    assert e3.value != e1.value


def test_mc_constant_sample_has_zero_variance():
    """lp:2 is sign-invariant, so every sample has the same norm and the
    bracket has width 0; the naive ``sum_sq - n*mean^2`` variance cancelled
    catastrophically here and gave a half-width of about 0.057."""
    a = Coeffs.from_values([1 << 26, 3, -7] * 13 + [1])
    est = expect_mc(l2, a, samples=100_000, seed=3)
    half = (est.bracket[1] - est.bracket[0]) / 2
    assert half <= 1e-12 * est.value


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, float("nan")])
def test_mc_refuses_confidence_outside_unit_interval(confidence):
    from rudlab.coeffs import DomainError

    with pytest.raises(DomainError, match="confidence"):
        expect_mc(s, Coeffs.from_values([1, 1]), samples=1000, seed=1,
                  confidence=confidence)


def test_mc_requires_samples():
    from rudlab.coeffs import DomainError

    with pytest.raises(DomainError):
        expect_mc(s, Coeffs.from_values([1]), samples=10)


def test_sandwich_subsets_kk_small():
    rng = np.random.default_rng(0)
    for space in (l1, l2, s, sd):
        for _ in range(10):
            m = int(rng.integers(1, 7))
            vals = rng.integers(-3, 4, size=m)
            a = Coeffs.from_pairs([(i, int(v)) for i, v in enumerate(vals) if v])
            if not a:
                continue
            st = sign_stats(space, a)
            mean = st.mean()
            assert (QSum.of(mean) - QSum.of(st.min())).sign() >= 0
            assert (QSum.of(st.max()) - QSum.of(mean)).sign() >= 0
            assert le_times_square(st.mean_sq(), F(2), mean)


def test_summing_dual_mean_closed_form():
    """Independent oracle: termwise averaged difference formula."""
    rng = np.random.default_rng(1)
    for _ in range(15):
        m = int(rng.integers(1, 8))
        vals = [int(v) for v in rng.integers(-3, 4, size=m)]
        if not any(vals):
            continue
        a = Coeffs.from_values([v for v in vals])
        a = Coeffs.from_pairs([(i, v) for i, v in enumerate(vals) if v])
        if len(a) != m:
            continue  # keep the contiguous-support closed form applicable
        got = expect_exact(sd, a).value
        want = abs(F(vals[0])) + abs(F(vals[-1]))
        for x, y in zip(vals, vals[1:]):
            want += F(1, 2) * (abs(F(x + y)) + abs(F(x - y)))
        assert got == want


def _same(x, y) -> bool:
    return (QSum.of(x) - QSum.of(y)).sign() == 0


def _reductions(st):
    return st.mean(), st.mean_sq(), st.min(), st.max(), st.argmax()


class _ExactReductions:
    """The reductions of a list of exact values, one value at a time: the
    oracle for the walk's batched and folded reductions."""

    def __init__(self, values):
        self.values = [QSum.of(v) for v in values]

    def mean(self):
        return sum(self.values, QSum()) * F(1, len(self.values))

    def mean_sq(self):
        return sum((v * v for v in self.values), QSum()) * F(1, len(self.values))

    def min(self):
        return min(self.values)

    def max(self):
        return max(self.values)

    def argmax(self):  # the first of equal maxima
        return max(range(len(self.values)), key=self.values.__getitem__)


def _assert_same_reductions(got, want, label):
    *gv, garg = _reductions(got)
    *wv, warg = _reductions(want)
    for name, x, y in zip(("mean", "mean_sq", "min", "max"), gv, wv):
        assert _same(x, y), (label, name, x, y)
    assert garg == warg, (label, "argmax", garg, warg)


def test_chunked_enumeration_matches_full(monkeypatch):
    """Splitting the bitmask range into chunks cannot change exact results."""
    import rudlab.rademacher as rad
    from rudlab.config import RunConfig, SpaceFactory

    fac = SpaceFactory(RunConfig())
    default = rad._CHUNK
    for spec in ("summing", "bmo", "smax:2", "norming_set", "james:chain", "zmr"):
        space = fac.space(spec)
        universe = space.sweep_indices or tuple(range(8))
        a = Coeffs.from_pairs(zip(universe[:8], [1, -2, 3, -1, 2, 1, F(1, 2), -3]))
        monkeypatch.setattr(rad, "_CHUNK", default)
        want = sign_stats(space, a)  # one chunk: 128 sign patterns, 256 masks
        want_sq = expect_second_moment(space, a).value
        want_sub = expect_subsets(space, a).value
        for chunk in (4, 16, 64):
            monkeypatch.setattr(rad, "_CHUNK", chunk)
            got = sign_stats(space, a)
            assert isinstance(got, rad.FoldedStats)
            _assert_same_reductions(got, want, (spec, chunk))
            assert _same(expect_exact(space, a).value, want.mean())
            assert _same(expect_second_moment(space, a).value, want_sq)
            assert _same(expect_subsets(space, a).value, want_sub)


def _full_range_oracle(space, a):
    """Reductions over all 2^m sign patterns, evaluated in one batch."""
    from rudlab.coeffs import sign_matrix_full

    return space.mult_batch(a, sign_matrix_full(len(a)))


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_half_enumeration_matches_full_range(spec, monkeypatch):
    """Walking only the top-bit-clear sign patterns gives the full range's
    mean, mean square, extremes and first maximiser, folded or not."""
    import rudlab.rademacher as rad
    from rudlab.config import RunConfig, SpaceFactory
    from rudlab.experiments import sample_vector

    space = SpaceFactory(RunConfig()).space(spec)
    vectors = [a for a in (sample_vector(space, 17, i) for i in range(6)) if a]
    oracles = [_full_range_oracle(space, a) for a in vectors]
    for chunk in (rad._CHUNK, 16):
        monkeypatch.setattr(rad, "_CHUNK", chunk)
        for a, want in zip(vectors, oracles):
            _assert_same_reductions(sign_stats(space, a), want, (spec, chunk, a))


def test_half_enumeration_scalar_fallback(monkeypatch):
    """A radical-valued vector on a norming-set engine walks the same half
    range in integer batches (no float batch), and the reductions agree
    with the pairing oracle on every pattern."""
    import rudlab.rademacher as rad
    from rudlab.coeffs import apply_signs, enumerate_sign_patterns
    from rudlab.config import RunConfig, SpaceFactory
    from rudlab.exactnum import SQRT2

    space = SpaceFactory(RunConfig()).space("norming_set")
    a = Coeffs.from_values([1, SQRT2, F(-1, 2), 2 * SQRT2, 3])
    want = _ExactReductions(
        [space.norm_slow(apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
    )
    for chunk in (rad._CHUNK, 4):
        monkeypatch.setattr(rad, "_CHUNK", chunk)
        got = sign_stats(space, a)
        assert got.scalars is None
        _assert_same_reductions(got, want, chunk)


def test_scalar_fallback_beyond_the_coefficient_cap():
    """Entries past 26 bits, the cap the other engines once had: a
    norming-set engine returns an integer batch, and it stays exact."""
    from rudlab.coeffs import apply_signs, enumerate_sign_patterns
    from rudlab.config import RunConfig, SpaceFactory

    space = SpaceFactory(RunConfig()).space("norming_set")
    a = Coeffs.from_values([1 << 27, 1, -3, 5])
    want = _ExactReductions(
        [space.norm_slow(apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
    )
    got = sign_stats(space, a)
    assert got.scalars is None
    _assert_same_reductions(got, want, a)


def test_walk_takes_object_batches_past_int64():
    """Delta 99 takes the scaled chain radicands past int64: the renorm
    batch holds them as Python ints, and the walk's reductions are exact."""
    from rudlab.coeffs import apply_signs, enumerate_sign_patterns, sign_matrix_range
    from rudlab.config import RunConfig, SpaceFactory

    space = SpaceFactory(RunConfig()).space("renorm:james:chain:99")
    a = Coeffs.from_values([1 << 26, -(1 << 26), 1 << 26, -(1 << 26)])
    batch = space.mult_batch(a, sign_matrix_range(4, 0, 8))
    assert batch.roots.dtype == object and batch.scalars is None
    want = _ExactReductions(
        [space.norm(apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
    )
    got = sign_stats(space, a)
    assert got.scalars is None
    _assert_same_reductions(got, want, a)


class _NegatingL1(LpSpace):
    """l1 whose batch path raises an unrelated ValueError."""

    def __init__(self):
        super().__init__(1)

    def mult_batch(self, a, mult):
        raise ValueError("norm batches cannot be negated")


def test_unrelated_value_error_surfaces():
    """A ValueError from a batch path propagates out of the walk."""
    with pytest.raises(ValueError, match="negated"):
        sign_stats(_NegatingL1(), Coeffs.from_values([1, 2, 3]))


def test_memory_bounded_by_chunk():
    """Peak traced allocation of m = 18 sweeps stays far below one
    materialised 2^18-column batch."""
    import tracemalloc

    a = Coeffs.from_values([(-1) ** k * (1 + k % 5) for k in range(18)])
    tracemalloc.start()
    try:
        st = sign_stats(s, a)
        sub = expect_subsets(s, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert QSum.of(st.max()).sign() > 0 and QSum.of(sub.value).sign() > 0
    assert peak < 16 << 20, peak


def test_mc_zero_vector():
    est = expect_mc(s, Coeffs.zero(), samples=500, seed=1)
    assert est.value == 0.0 and est.bracket == (0.0, 0.0)


def test_float_vector_walks_float_batches(monkeypatch):
    """A float-valued vector takes one float batch per chunk: its sign mean
    equals the per-pattern float mean bit for bit, folded chunk by chunk as
    before, and no per-pattern norm is evaluated."""
    import rudlab.rademacher as rad
    from rudlab.coeffs import SignPattern, apply_signs
    from rudlab.spaces import SmaxSpace

    space = SmaxSpace(2)
    a = Coeffs.from_values([0.1 * (k + 1) * (-1) ** k + 0.37 for k in range(12)])
    half = 1 << (len(a) - 1)
    vals = [space.norm(apply_signs(a, SignPattern.from_mask(a.support, mask)))
            for mask in range(half)]
    calls = []
    norm = space.norm
    monkeypatch.setattr(space, "norm", lambda b: calls.append(b) or norm(b))
    for chunk in (rad._CHUNK, 16):
        monkeypatch.setattr(rad, "_CHUNK", chunk)
        want = 0
        for start in range(0, half, chunk):
            want = want + sum(vals[start:start + chunk]) / half
        assert sign_stats(space, a).mean() == want
    assert calls == []
