import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rudlab.rademacher as rad
from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs, EnumerationCapError, mask_matrix_range, sign_matrix_range
from rudlab.config import RunConfig, SpaceFactory
from rudlab.dual import SmaxDualSpace
from rudlab.exactnum import SQRT2 as RT2, QSum, le_times_square
from rudlab.experiments import SWEEP_SPECS
from rudlab.rademacher import (
    expect_exact,
    expect_mc,
    expect_perm,
    expect_second_moment,
    expect_subsets,
    sign_stats,
    subset_stats,
)
from rudlab.rng import counter_u64, sign_matrix
from rudlab.spaces import LpSpace, SummingDualSpace, SummingSpace

from oracles import norm_slow

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
    with pytest.raises(EnumerationCapError,
                       match="^support of size 30 exceeds the enumeration cap 24$"):
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


def test_estimate_refuses_a_bracketless_sample_and_an_unknown_method():
    """A Monte-Carlo estimate must carry its bracket and a method tag must
    be one of the four; an exact estimate defaults to the point bracket."""
    from rudlab import DomainError, ExpectationEstimate

    with pytest.raises(DomainError, match="bracket"):
        ExpectationEstimate(1.0, "monte_carlo")
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        ExpectationEstimate(1.0, "bogus")
    with pytest.raises(DomainError, match="contain"):
        ExpectationEstimate(2.0, "monte_carlo", 100, 1, (0.0, 1.0))
    assert ExpectationEstimate(F(3, 2), "exact").bracket == (F(3, 2), F(3, 2))
    for method in ("subsets", "permutation"):
        assert ExpectationEstimate(1, method).to_json()["bracket"] == [1.0, 1.0]


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


def _same_form(x, y) -> bool:
    """Equal values of one type, a ``QSum``'s cores in one order."""
    if isinstance(x, QSum) or isinstance(y, QSum):
        return type(x) is type(y) and list(x.terms.items()) == list(y.terms.items())
    return type(x) is type(y) and x == y


#: entries of the folded walks: rational, past int64 (Python-int batches)
#: and, on the norming-set engine, radical
_FOLD_VECTORS = {
    "rational": [1, -2, 3, -1, 2, 1, F(1, 2), -3],
    "python-int": [v * (1 << 62) for v in (1, -2, 3, -1, 2, 1, F(1, 2), -3)],
    "radical": [1, -2 * RT2, 3, -1, RT2, 1, F(1, 2), -3],
}


def test_chunked_enumeration_matches_full(monkeypatch):
    """Splitting the bitmask range into chunks cannot change exact results.

    On every sweep engine with an exact batch, with its law switched off
    so that the chunks fold, on rational entries and on entries past 2^62
    (Python-int batches), and on radical entries on the norming-set
    engine: the folded mean, mean square, extremes and first maximiser,
    the second moment and the subset average are those of the one-chunk
    batch, as values of one type with their cores in one order.  Engines
    whose sweep draws from fewer than 8 indices fold 6 entries."""
    fac = SpaceFactory(RunConfig())
    default = rad._CHUNK
    cases = [(spec, kind) for spec in SWEEP_SPECS for kind in ("rational", "python-int")]
    for spec, kind in cases + [("norming_set", "radical")]:
        space = fac.space(spec)
        monkeypatch.setattr(space, "law_walks", ())
        universe = space.sweep_indices or tuple(range(8))
        a = Coeffs.from_pairs(zip(universe[:8], _FOLD_VECTORS[kind]))
        assert space.mult_batch(a, np.ones((len(a), 1), dtype=np.int8)) is not None, spec
        monkeypatch.setattr(rad, "_CHUNK", default)
        want = sign_stats(space, a)  # one chunk: 128 sign patterns, 256 masks
        assert isinstance(want, ExactBatch) and want.scalars is None
        want_sq = expect_second_moment(space, a).value
        want_sub = expect_subsets(space, a).value
        for chunk in (4, 8, 16):
            monkeypatch.setattr(rad, "_CHUNK", chunk)
            got = sign_stats(space, a)
            label = (spec, kind, chunk)
            assert isinstance(got, rad.FoldedStats) and got.scalars is None, label
            _assert_same_reductions(got, want, label)
            for x, y in zip(_reductions(got), _reductions(want)):
                assert _same_form(x, y), (label, x, y)
            assert _same_form(expect_exact(space, a).value, want.mean()), label
            assert _same_form(expect_second_moment(space, a).value, want_sq), label
            assert _same_form(expect_subsets(space, a).value, want_sub), label


class _FloatFrom(SummingSpace):
    """The summing norm, walked, whose exact batches stop after ``exact``
    calls: every later chunk is a float batch."""

    law_walks = ()

    def __init__(self, exact: int):
        self.left = exact

    def mult_batch(self, a, mult):
        self.left -= 1
        return super().mult_batch(a, mult) if self.left >= 0 else None


@pytest.mark.parametrize("exact", [0, 2])
def test_walk_with_float_chunks_keeps_the_float_sum(exact, monkeypatch):
    """A walk with float chunks sums as before the integer fold: the exact
    means of the chunks before the first float one, summed exactly, then
    each later chunk's mean added left to right; the extremes are compared
    exactly and the float columns counted."""
    monkeypatch.setattr(rad, "_CHUNK", 16)
    a = Coeffs.from_values([3, -1, F(1, 2), 2, -2, 1, F(5, 3)])
    total = rad._walk_length(len(a), masks=False)
    plain = SummingSpace()
    mean = mean_sq = 0
    values = []
    for k, start in enumerate(range(0, total, 16)):
        mult = sign_matrix_range(len(a), start, start + 16)
        batch = (plain.mult_batch(a, mult) if k < exact else
                 ExactBatch.from_scalars(plain.mult_batch_float(a, mult.astype(np.float64))))
        mean, mean_sq = mean + batch.mean(total), mean_sq + batch.mean_sq(total)
        values += [batch.value(i) for i in range(len(batch))]
    got = sign_stats(_FloatFrom(exact), a)
    assert type(got.mean()) is float and got.mean() == mean
    assert type(got.mean_sq()) is float and got.mean_sq() == mean_sq
    assert got.scalars == total - 16 * exact
    order = sorted(range(total), key=lambda i: (QSum.of(values[i]), -i))
    assert got.max() == values[order[-1]] and got.argmax() == order[-1]
    assert got.min() == min(values, key=QSum.of)


def test_fold_builds_each_value_once_per_walk(monkeypatch):
    """A folded walk builds its mean, mean square, min and max once each,
    however many chunks it spans: the batches build four exact values
    (``batches._scalar``) at 2, 4 and 8 chunks alike, where a fold of exact
    chunk means and chunk extremes built several per chunk."""
    from rudlab import batches

    built = []
    scalar = batches._scalar
    monkeypatch.setattr(batches, "_scalar", lambda t, d: built.append(1) or scalar(t, d))
    fac = SpaceFactory(RunConfig())
    for spec in ("summing", "james:chain", "norming_set", "smax:2"):
        space = fac.space(spec)
        monkeypatch.setattr(space, "law_walks", ())
        a = Coeffs.from_values([1, -2, 3, -1, 2, 1, F(1, 2), -3])
        counts = []
        for chunk in (64, 32, 16):
            monkeypatch.setattr(rad, "_CHUNK", chunk)
            built.clear()
            st = sign_stats(space, a)
            assert isinstance(st, rad.FoldedStats)
            st.mean(), st.mean_sq(), st.min(), st.max()
            counts.append(len(built))
        assert counts == [4] * 3, (spec, counts)


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
        [norm_slow(space, apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
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
        [norm_slow(space, apply_signs(a, e)) for e in enumerate_sign_patterns(a.support)]
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


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_norming_set_memory_bounded_by_column_blocks():
    """The norming-set engine's family-sup reduction and float batch run
    over column blocks, so a split walk keeps only its float image and its
    per-core low integer images (F x 2^13 entries each, the integers in the
    narrowest dtype their bound allows) and a Monte-Carlo batch no
    (F x 4096) float temporaries: sign_stats at m = 18 peaked at 31 MB and
    expect_mc at m = 40 at 10 MB when they were whole-chunk arrays, and the
    split walk at 9.4 MB with int64 images and no float image.  It peaks at
    6.9 MB: the 3.5 MB float image, two int16 images of 0.9 MB and one
    column block's temporaries; the bound leaves 1.1 MB of room."""
    space = SpaceFactory.shared(RunConfig()).space("norming_set")
    palette = (1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2))
    st, peak = _traced_peak(lambda: sign_stats(
        space, Coeffs.from_values([palette[k % 8] for k in range(18)])))
    assert QSum.of(st.max()).sign() > 0
    assert peak < 8 << 20, peak
    est, peak = _traced_peak(lambda: expect_mc(
        space, Coeffs.from_values([palette[k * 5 % 8] for k in range(40)]), 100_000, seed=1))
    assert est.lower <= est.value <= est.upper
    assert peak < 8 << 20, peak


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


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_stats_of_the_zero_vector(spec):
    """The zero vector's sign and subset stats are those of its one
    pattern, of norm 0, as its exact mean and its norm are."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    zero = Coeffs.zero()
    for stats in (sign_stats(space, zero), subset_stats(space, zero)):
        assert stats.scalars is None and len(stats) == 1
        assert [stats.mean(), stats.mean_sq(), stats.min(), stats.max(), stats.argmax()] == [0] * 5
    assert expect_exact(space, zero).value == 0 == space.norm(zero)


#: the engines whose exact walks split (``Space.split_batches``)
_SPLIT_SPECS = ("norming_set", "james:chain", "james_x:1", "james_x:2")


def _assert_same_batch(got, want, label):
    assert (got.scale, got.roots_scale, got.scalars) == (want.scale, want.roots_scale, None), label
    assert list(got.classes or {}) == list(want.classes or {}), label
    arrays = [(got.classes[c], want.classes[c]) for c in want.classes or {}]
    assert (got.roots is None) == (want.roots is None), label
    if want.roots is not None:
        arrays.append((got.roots, want.roots))
    for x, y in arrays:
        assert x.dtype == y.dtype and np.array_equal(x, y), label


@pytest.mark.parametrize("spec", _SPLIT_SPECS)
@settings(max_examples=15, deadline=None)
@given(
    chunk=st.sampled_from([4, 8, 16]),
    masks=st.booleans(),
    slots=st.lists(st.integers(0, 15), min_size=7, max_size=9, unique=True),
    values=st.lists(st.fractions(-5, 5, max_denominator=4).filter(bool), min_size=9, max_size=9),
    wide=st.sampled_from([1, 1 << 41, 1 << 62]),
)
@example(chunk=4, masks=False, slots=list(range(7)), values=[1] * 9, wide=1)
@example(chunk=16, masks=True, slots=[1, 2, 5, 6, 7, 9, 12], values=[F(-1, 3), 2] * 4 + [1],
         wide=1 << 62)
def test_split_walk_batches_equal_chunk_batches(spec, chunk, masks, slots, values, wide):
    """A walk of several chunks on a splitting engine yields, chunk for
    chunk, the batch ``mult_batch`` gives on that chunk's multipliers:
    equal arrays, dtypes, scales and class order.  Supports start at 0 or
    above it and have gaps (the chain engines' zero nodes), and entries
    past 2^40 and 2^62 take Python-int batches."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    universe = space.sweep_indices or range(16)
    a = Coeffs.from_pairs((universe[i], v * wide) for i, v in zip(slots, values))
    m, build = len(a), mask_matrix_range if masks else sign_matrix_range
    total = rad._walk_length(m, masks)
    want = [space.mult_batch(a, build(m, start, start + chunk))
            for start in range(0, total, chunk)]
    b = chunk.bit_length() - 1
    split = space.split_batches(a, build(b, 0, chunk), build(m - b, 0, total >> b))
    assert split is not None
    split = list(split)
    assert len(split) == len(want) > 1
    for k, (got, w) in enumerate(zip(split, want)):
        _assert_same_batch(got, w, (spec, chunk, masks, k))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rad, "_CHUNK", chunk)
        walked = list(rad._walk(space, a, masks))
    assert [start for start, _ in walked] == list(range(0, total, chunk))
    for k, ((_, got), w) in enumerate(zip(walked, want)):
        _assert_same_batch(got, w, (spec, chunk, masks, k, "walk"))


@pytest.mark.parametrize("spec", ["norming_set", "james:chain"])
def test_split_walks_call_no_mult_batch(spec, monkeypatch):
    """Sign and subset walks of several chunks on a splitting engine never
    evaluate a chunk through ``mult_batch``."""
    space = SpaceFactory(RunConfig()).space(spec)
    a = Coeffs.from_values([1, -2, 3, F(1, 2), 2, -1, 3])

    def refuse(self, a, mult):
        raise AssertionError("mult_batch called on a split walk")

    monkeypatch.setattr(rad, "_CHUNK", 16)  # 4 sign chunks, 8 mask chunks
    monkeypatch.setattr(type(space), "mult_batch", refuse)
    stats = sign_stats(space, a)
    assert isinstance(stats, rad.FoldedStats) and stats.mean() > 0
    assert subset_stats(space, a).max() > 0
    assert expect_exact(space, a).value == stats.mean()


def test_split_hook_declines_where_mult_batch_has_no_exact_batch():
    """Off the exact exponents, on disjoint pairs, on the closed-form
    coding engines and on engines without a split (``bd``, whose walks
    stay within one chunk), the hook returns None."""
    fac = SpaceFactory.shared(RunConfig())
    a = Coeffs.from_values([1, -2, 3, F(1, 2), 2])
    low, highs = sign_matrix_range(2, 0, 4), sign_matrix_range(3, 0, 4)
    for spec in ("james_x:3", "james:pairs", "zmr", "zruc", "zrud", "summing", "lp:2",
                 "renorm:summing:1", "bd"):
        assert fac.space(spec).split_batches(a, low, highs) is None, spec


def _split(space, a, masks, chunk):
    """The split batches of each chunk of a's walk at ``chunk`` columns."""
    m, build = len(a), mask_matrix_range if masks else sign_matrix_range
    total = rad._walk_length(m, masks)
    b = chunk.bit_length() - 1
    split = space.split_batches(a, build(b, 0, chunk), build(m - b, 0, total >> b))
    assert split is not None
    return list(split)


def _chunks(space, a, masks, chunk):
    """``mult_batch`` on the multipliers of each chunk of a's walk."""
    m, build = len(a), mask_matrix_range if masks else sign_matrix_range
    return [space.mult_batch(a, build(m, start, start + chunk))
            for start in range(0, rad._walk_length(m, masks), chunk)]


def _spy_winners(monkeypatch):
    """Records, per call of the norming-set winners routine, the number of
    exact pairings it reads, and the columns ``first_extreme`` decides."""
    from rudlab import spaces

    reads, decided = [], []
    winners, first = spaces._normingset_winners, spaces.first_extreme

    def spy(approx, pairing, slack=0.0):
        reads.append([approx.shape[1]])
        return winners(approx, lambda f, j: reads[-1].append(len(f)) or pairing(f, j), slack)

    monkeypatch.setattr(spaces, "_normingset_winners", spy)
    monkeypatch.setattr(spaces, "first_extreme", lambda *args: decided.append(1) or first(*args))
    return reads, decided


@pytest.mark.parametrize("kind", ["palette", "python-int"])
@pytest.mark.parametrize("masks", [False, True])
def test_norming_set_split_reads_pairings_at_winners_and_rivals(kind, masks, monkeypatch):
    """The demo family ties structurally: on a 12-entry vector many columns
    hold functionals whose pairings are the winner's or all negated, which
    tie with it exactly and are decided without first_extreme.  The split
    batches read exact pairings only at each column's winner and at those
    rivals, 1.3 to 2.3 per column, and are array-equal to ``mult_batch``
    chunk by chunk; entries past 2^63 make Python-int images."""
    space = SpaceFactory.shared(RunConfig()).space("norming_set")
    palette = (1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2))
    wide = (1 << 64) + 1 if kind == "python-int" else 1
    a = Coeffs.from_values([palette[k % 8] * wide for k in range(12)])
    reads, decided = _spy_winners(monkeypatch)
    split = _split(space, a, masks, 256)
    monkeypatch.undo()
    want = _chunks(space, a, masks, 256)
    assert len(split) == len(want) == (16 if masks else 8)
    for k, (got, w) in enumerate(zip(split, want)):
        _assert_same_batch(got, w, (kind, masks, k))
    dtype = object if kind == "python-int" else np.int64
    assert all(arr.dtype == dtype for batch in split for arr in batch.classes.values())
    columns = sum(r[0] for r in reads)
    rivals = sum(sum(r[2:]) for r in reads)
    assert [r[1] for r in reads] == [r[0] for r in reads]  # every winner, once
    # far from the 53 functionals per column a whole integer image holds
    assert 0 < rivals < 2 * columns and not decided


#: Pell pairs x^2 - 2 y^2 = 1 near 6.7e5 (x - y sqrt(2) about 7.5e-7, a
#: relative gap about 1e-12, inside the float tie tolerance) and near 8.9e11
#: (about 4e-13, below 1e-12)
_PELL_NEAR = (665857, 470832)
_PELL_TINY = (886731088897, 627013566048)


def _pell_space(weights):
    from rudlab.spaces import NormingSetSpace

    family = [Coeffs.from_pairs(list(enumerate(w))) for w in weights]
    return NormingSetSpace("pell", lambda sup: family)


def test_norming_set_split_decides_near_ties_exactly(monkeypatch):
    """Two functionals whose pairings x and y sqrt(2) are near-tied in every
    column, with distinct keys: first_extreme decides each column on the
    split walk, and its batches equal ``mult_batch`` chunk by chunk, the
    rational functional winning by about 7.5e-7."""
    x, y = _PELL_NEAR
    assert x * x - 2 * y * y == 1
    space = _pell_space([[x, 0, 0, 0], [y * RT2, 0, 0, 0]])
    a = Coeffs.from_values([1, 2, -3, 5])
    reads, decided = _spy_winners(monkeypatch)
    split = _split(space, a, False, 2)
    monkeypatch.undo()
    want = _chunks(space, a, False, 2)
    for k, (got, w) in enumerate(zip(split, want)):
        _assert_same_batch(got, w, k)
        assert [got.value(j) for j in range(2)] == [x, x]
    assert len(decided) == 8  # every column of the 8 sign patterns


@pytest.mark.parametrize("pair", [_PELL_TINY, (6369051672525781, 2**52 + 6),
                                  (34761632124320657, 24580185800219268)])
def test_norming_set_split_orients_a_tiny_winner_exactly(pair):
    """A winner whose float image is below 1e-12, or within the image's
    error bound of 0, takes its exact orientation: the pairing x - y sqrt(2)
    of 4e-13 (x near 8.9e11); one whose float image is 0.0 (x - y sqrt(2) <
    0 for y = 2^52 + 6, int64 images past 2^53); and a Pell pair near 2^55,
    x - y sqrt(2) = 1.4e-17, whose float image is -4.0 (float(x) rounds),
    which ``mult_batch`` and the norm oriented by that float, to a negative
    norm, before the bound.  The split batches equal ``mult_batch`` chunk by
    chunk, and every value is the exact |x +- y sqrt(2)|."""
    x, y = pair
    space = _pell_space([[1, RT2, 0]])
    a = Coeffs.from_values([x, -y, 1])
    tiny = QSum({1: F(x), 2: F(-y)})
    assert abs(float(tiny)) < 1e-12 or float(x) - float(y) * 2**0.5 == 0.0
    split = _split(space, a, False, 2)
    for k, (got, w) in enumerate(zip(split, _chunks(space, a, False, 2))):
        _assert_same_batch(got, w, (pair, k))
    values = [QSum.of(batch.value(j)) for batch in split for j in range(2)]
    # sign patterns 0..3 of (x, -y, 1): the first and last pair to +-(x - y sqrt(2))
    assert values[0] == values[3] == abs(tiny) and abs(tiny).sign() > 0
    assert values[1] == values[2] == QSum({1: F(x), 2: F(y)})
    assert QSum.of(space.norm(Coeffs.from_values([x, -y]))) == abs(tiny)


def test_renorm_sign_walk_takes_its_inner_mean_once(monkeypatch):
    """A renorm sign walk past one chunk walks the vector's own inner sign
    average once (it took one walk per chunk); its batches are array-equal
    to ``mult_batch`` chunk by chunk, over a base that splits and one that
    does not, and its reductions are those of the walk chunk by chunk.  A
    mask walk keeps ``mult_batch`` chunk by chunk."""
    from rudlab.spaces import RenormSpace

    monkeypatch.setattr(rad, "_CHUNK", 16)
    fac = SpaceFactory(RunConfig())
    a = Coeffs.from_values([3, -1, F(1, 2), 2, -2, 1, F(5, 3)])  # 64 patterns, 4 chunks
    walks = []
    walk = rad.sign_stats
    monkeypatch.setattr(rad, "sign_stats", lambda space, b, cap=24: walks.append(b) or walk(
        space, b, cap))
    for spec in ("renorm:summing:1", "renorm:james:chain:3/2"):
        space = fac.space(spec)
        walks.clear()
        got = rad._stats(space, a, 24, (False,))[0]
        assert walks == [a], spec
        split = _split(space, a, False, 16)
        assert len(split) == 4
        for k, (g, w) in enumerate(zip(split, _chunks(space, a, False, 16))):
            _assert_same_batch(g, w, (spec, k))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RenormSpace, "split_batches", lambda self, a, low, highs: None)
            walks.clear()
            chunked = rad._stats(space, a, 24, (False,))[0]
            assert len(walks) == 4
        _assert_same_reductions(got, chunked, spec)
        low, highs = mask_matrix_range(4, 0, 16), mask_matrix_range(3, 0, 8)
        assert space.split_batches(a, low, highs) is None


def _loop_mc(space, a, samples, seed, confidence=0.95, widen=False):
    """(value, bracket) of the per-sample Monte-Carlo loop: each chunk's
    signs drawn and evaluated in one float batch, with no pattern table.
    With ``widen``, a one-column chunk is evaluated as the first column of
    a two-column batch."""
    m = len(a)
    total = mu = m2 = 0.0
    done = 0
    while done < samples:
        n = min(rad._MC_CHUNK, samples - done)
        signs = sign_matrix(seed, m, n, start=done).astype(np.float64)
        if widen and n == 1:
            vals = space.mult_batch_float(a, np.repeat(signs, 2, axis=1))[:1]
        else:
            vals = space.mult_batch_float(a, signs)
        total += float(vals.sum())
        mu_b = float(vals.mean())
        delta = mu_b - mu
        m2 += float(((vals - mu_b) ** 2).sum()) + delta * delta * done * n / (done + n)
        mu += delta * n / (done + n)
        done += n
    mean = total / samples
    half = rad._t_quantile(samples - 1, confidence) * math.sqrt(m2 / (samples - 1) / samples)
    return mean, (mean - half, mean + half)


_MC_EXACT = [1, -2, 3, F(1, 2), -1, 2, F(-3, 4), 5]
_MC_FLOAT = [1.5, -0.3, 2.25, 0.7, -1.1, 3.0, 0.2, -2.5]


def _mc_vectors(space):
    universe = space.sweep_indices or range(8)
    return [Coeffs.from_pairs(zip(universe, values)) for values in (_MC_EXACT, _MC_FLOAT)]


def _count_columns(monkeypatch, space):
    """The column counts of the engine's ``mult_batch_float`` calls, as a
    list that grows with every call."""
    seen = []
    inner = space.mult_batch_float

    def counted(a, mult):
        seen.append(mult.shape[1])
        return inner(a, mult)

    monkeypatch.setattr(space, "mult_batch_float", counted)
    return seen


@pytest.mark.parametrize("spec", [*SWEEP_SPECS, "lp:3", "james_x:3", "smax:1.5", "smax_dual:6"])
def test_float_batches_are_sign_symmetric(spec):
    """Negating every column leaves each float norm the same float: the
    Monte-Carlo table and the float walks evaluate only the patterns whose
    top bit is clear and read the others' norms from them.  On exact and
    float vectors, over sign and 0/1 columns."""
    if spec == "smax_dual:6":
        space, universe = SmaxDualSpace(6), range(6)
    else:
        space = SpaceFactory.shared(RunConfig()).space(spec)
        universe = space.sweep_indices or range(8)
    for values in (_MC_EXACT, _MC_FLOAT):
        a = Coeffs.from_pairs(zip(universe, values))
        m = len(a)
        for mult in (sign_matrix_range(m, 0, 1 << m), mask_matrix_range(m, 0, 1 << m)):
            mult = mult.astype(np.float64)
            got = space.mult_batch_float(a, -mult)
            assert np.array_equal(got, space.mult_batch_float(a, mult)), (spec, a)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_mc_table_matches_the_per_sample_loop(spec):
    """A support with at most ``samples`` sign patterns reads each sample's
    norm from a table of the 2^(m-1) patterns whose top bit is clear (a
    pattern's complement has the same norm); value and bracket are the
    per-sample loop's bit for bit, on exact and float vectors and their
    first one to three entries (a table of one to four columns), at sample
    counts that end on a full chunk and on tails of 2, 100 and 600, and
    the engine evaluates each table pattern once.  (zruc and zrud have 6
    indices: their smallest count is the 100 samples ``expect_mc`` needs.)"""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    vectors = _mc_vectors(space)
    for a in vectors + [Coeffs(v.entries[:m]) for v in vectors for m in (1, 2, 3)]:
        full = 1 << len(a)
        for samples in (max(full, 100), 2 * rad._MC_CHUNK, rad._MC_CHUNK + 2, rad._MC_CHUNK + 100,
                        rad._MC_CHUNK + 600):
            with pytest.MonkeyPatch.context() as mp:
                columns = _count_columns(mp, space)
                est = expect_mc(space, a, samples, seed=5)
            assert sum(columns) == full // 2, (spec, samples)
            assert (est.value, est.bracket) == _loop_mc(space, a, samples, 5), (spec, a, samples)


@pytest.mark.parametrize("m, table", [(16, True), (17, False)])
def test_mc_table_stops_at_two_to_the_sixteen(m, table):
    """Of 2^16 patterns, the 2^15 whose top bit is clear are evaluated
    once, in slices of ``_MC_CHUNK`` columns; 2^17 go through the
    per-sample loop, one chunk of samples at a time.  Either way the
    estimate is the loop's bit for bit."""
    space = SummingSpace()
    samples = 1 << 17
    for values in (_MC_EXACT, _MC_FLOAT):
        a = Coeffs.from_values((values * 3)[:m])
        with pytest.MonkeyPatch.context() as mp:
            columns = _count_columns(mp, space)
            est = expect_mc(space, a, samples, seed=11)
        assert sum(columns) == (1 << (m - 1) if table else samples)
        assert set(columns) == {rad._MC_CHUNK}
        assert (est.value, est.bracket) == _loop_mc(space, a, samples, 11)


def test_mc_table_needs_no_fewer_samples_than_patterns(monkeypatch):
    """A support with more patterns than samples draws its signs."""
    a = Coeffs.from_values(_MC_EXACT)
    columns = _count_columns(monkeypatch, s)
    est = expect_mc(s, a, 255, seed=2)
    assert columns == [255]
    assert (est.value, est.bracket) == _loop_mc(s, a, 255, 2)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_mc_table_one_column_tail_reads_the_wide_batch(spec):
    """A one-column tail chunk reads its norm from the table, which was
    evaluated in a wide batch.  Some engines sum a one-column float batch
    in another order (numpy's pairwise sum or BLAS gemv: ``lp:1`` on 14
    normal floats differs in the last bits on every column), so the table
    path is the loop with that chunk widened to two columns, bit for bit,
    and the plain loop only up to the last bits."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    samples = 2 * rad._MC_CHUNK + 1
    for a in _mc_vectors(space):
        est = expect_mc(space, a, samples, seed=7)
        assert (est.value, est.bracket) == _loop_mc(space, a, samples, 7, widen=True)
        value, bracket = _loop_mc(space, a, samples, 7)
        assert est.value == pytest.approx(value, rel=1e-14, abs=0)
        assert est.bracket == pytest.approx(bracket, rel=1e-14, abs=0)


class _OneColumnOff(LpSpace):
    """lp:1 whose one-column float batches are off by 1: a stand-in for an
    engine whose one-column sums round differently, with the gap made large
    enough to see through the estimate's own rounding."""

    def mult_batch_float(self, a, mult):
        return super().mult_batch_float(a, mult) + (mult.shape[1] == 1)


def test_mc_table_never_evaluates_a_one_column_tail():
    """The table path's tail sample has the wide-batch norm; the per-sample
    loop evaluates it alone."""
    a = Coeffs.from_values(_MC_FLOAT)
    samples = rad._MC_CHUNK + 1
    est = expect_mc(_OneColumnOff(1), a, samples, seed=4)
    assert (est.value, est.bracket) == _loop_mc(l1, a, samples, 4)
    value, _ = _loop_mc(_OneColumnOff(1), a, samples, 4)
    assert value == pytest.approx(est.value + 1 / samples, rel=1e-12)


class _CastSigns:
    """An engine's float batch, its multipliers cast to ``dtype`` first."""

    def __init__(self, space, dtype):
        self.space, self.dtype = space, dtype

    def mult_batch_float(self, a, mult):
        return self.space.mult_batch_float(a, mult.astype(self.dtype))


_PALETTE = (1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2))


def _palette_vector(seed, tag, m=40):
    """The benchmark's Monte-Carlo vector: the palette repeated to length
    m, in a seeded order."""
    order = sorted(range(m), key=lambda k: counter_u64(seed, tag, k))
    return Coeffs.from_values([_PALETTE[k % len(_PALETTE)] for k in order])


@pytest.mark.parametrize("spec", ["lp:2", "summing", "james:chain", "smax:2", "bmo"])
def test_mc_on_palette_vectors_equals_the_float_kernel_loop(spec):
    """On m = 40 palette vectors (denominator 2: their float batches run
    the integer kernels), ``expect_mc`` gives the value and bracket of the
    per-sample loop bit for bit, with the loop's signs as float64 (the
    float kernel) and as int8 (the integer kernel)."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    samples = 4 * rad._MC_CHUNK + 100
    for seed, tag in ((0, 300), (7, 302)):
        a = _palette_vector(seed, tag)
        est = expect_mc(space, a, samples, seed=seed)
        for dtype in (np.float64, np.int8):
            want = _loop_mc(_CastSigns(space, dtype), a, samples, seed)
            assert (est.value, est.bracket) == want, (spec, seed, dtype)


def _pin_vector(m):
    return Coeffs.from_values([F((-1) ** i * (i % 7 + 1), i % 3 + 1) for i in range(m)])


#: (spec, m, samples, confidence) -> (value, lower, upper) of ``expect_mc``
#: at seed 3, recorded while the quantile came from ``scipy.special.stdtrit``.
#: m = 14 with 100,000 samples reads the pattern table; every other case
#: draws its signs.
_MC_PINS = {
    ('summing', 14, 100, 0.5): (13.360000000000003, 12.970717848485718, 13.749282151514288),
    ('summing', 14, 100, 0.95): (13.360000000000003, 12.219013819579551, 14.500986180420455),
    ('summing', 14, 100, 0.99): (13.360000000000003, 11.849735546033731, 14.870264453966275),
    ('summing', 14, 4097, 0.5): (13.516882271580831, 13.458250637310245, 13.575513905851418),
    ('summing', 14, 4097, 0.95): (13.516882271580831, 13.346472489665489, 13.687292053496174),
    ('summing', 14, 4097, 0.99): (13.516882271580831, 13.292887655992992, 13.740876887168671),
    ('summing', 14, 100000, 0.5): (13.686936666666664, 13.674946356405368, 13.698926976927961),
    ('summing', 14, 100000, 0.95): (13.686936666666664, 13.652094365154722, 13.721778968178606),
    ('summing', 14, 100000, 0.99): (13.686936666666664, 13.641145800750557, 13.732727532582771),
    ('summing', 30, 100, 0.5): (19.304999999999996, 18.696532482882315, 19.913467517117677),
    ('summing', 30, 100, 0.95): (19.304999999999996, 17.52158140357728, 21.088418596422713),
    ('summing', 30, 100, 0.99): (19.304999999999996, 16.944380950497468, 21.665619049502524),
    ('summing', 30, 4097, 0.5): (19.24798633146204, 19.163217768570615, 19.332754894353467),
    ('summing', 30, 4097, 0.95): (19.24798633146204, 19.001610931981634, 19.494361730942448),
    ('summing', 30, 4097, 0.99): (19.24798633146204, 18.92413894267581, 19.57183372024827),
    ('summing', 30, 100000, 0.5): (19.215750000000003, 19.19870082933952, 19.23279917066049),
    ('summing', 30, 100000, 0.95): (19.215750000000003, 19.166207299958398, 19.26529270004161),
    ('summing', 30, 100000, 0.99): (19.215750000000003, 19.150639400634187, 19.28086059936582),
    ('james:chain', 14, 100, 0.5): (19.436533431225254, 19.34624001586072, 19.52682684658979),
    ('james:chain', 14, 100, 0.95): (19.436533431225254, 19.17188338571676, 19.701183476733746),
    ('james:chain', 14, 100, 0.99): (19.436533431225254, 19.08622984005928, 19.78683702239123),
    ('james:chain', 14, 4097, 0.5): (19.45246773688398, 19.438125491415473, 19.466809982352483),
    ('james:chain', 14, 4097, 0.95): (19.45246773688398, 19.410782749711615, 19.49415272405634),
    ('james:chain', 14, 4097, 0.99): (19.45246773688398, 19.397675033246248, 19.50726044052171),
    ('james:chain', 14, 100000, 0.5): (19.42157975630966, 19.418660810697272, 19.42449870192205),
    ('james:chain', 14, 100000, 0.95): (19.42157975630966, 19.413097675286945, 19.430061837332378),
    ('james:chain', 14, 100000, 0.99): (19.42157975630966, 19.410432334413102, 19.43272717820622),
    ('james:chain', 30, 100, 0.5): (26.882707071152428, 26.798561529126893, 26.966852613177963),
    ('james:chain', 30, 100, 0.95): (26.882707071152428, 26.636076445469605, 27.12933769683525),
    ('james:chain', 30, 100, 0.99): (26.882707071152428, 26.556254854973115, 27.20915928733174),
    ('james:chain', 30, 4097, 0.5): (26.85237063875067, 26.839987835890557, 26.864753441610784),
    ('james:chain', 30, 4097, 0.95): (26.85237063875067, 26.816380669152444, 26.888360608348897),
    ('james:chain', 30, 4097, 0.99): (26.85237063875067, 26.805063733509883, 26.89967754399146),
    ('norming_set', 14, 100, 0.5): (13.50166666666667, 13.124689531361476, 13.878643801971865),
    ('norming_set', 14, 100, 0.95): (13.50166666666667, 12.396746494897801, 14.60658683843554),
    ('norming_set', 14, 100, 0.99): (13.50166666666667, 12.039140924875555, 14.964192408457786),
    ('norming_set', 14, 4097, 0.5): (13.624155886420958, 13.56702465979571, 13.681287113046206),
    ('norming_set', 14, 4097, 0.95): (13.624155886420958, 13.458106960941, 13.790204811900916),
    ('norming_set', 14, 4097, 0.99): (13.624155886420958, 13.405893385209996, 13.84241838763192),
    ('norming_set', 14, 100000, 0.5): (13.79339666666667, 13.781712501707364, 13.805080831625975),
    ('norming_set', 14, 100000, 0.95): (13.79339666666667, 13.759443984079176, 13.827349349254163),
    ('norming_set', 14, 100000, 0.99): (13.79339666666667, 13.748774966365866, 13.838018366967473),
    ('norming_set', 30, 100, 0.5): (19.304999999999996, 18.696532482882315, 19.913467517117677),
    ('norming_set', 30, 100, 0.95): (19.304999999999996, 17.52158140357728, 21.088418596422713),
    ('norming_set', 30, 100, 0.99): (19.304999999999996, 16.944380950497468, 21.665619049502524),
    ('norming_set', 30, 4097, 0.5): (19.24981693922382, 19.16507858858073, 19.33455528986691),
    ('norming_set', 30, 4097, 0.95): (19.24981693922382, 19.003529350064824, 19.496104528382816),
    ('norming_set', 30, 4097, 0.99): (19.24981693922382, 18.92608497244546, 19.57354890600218),
}


@pytest.mark.parametrize("spec", ["summing", "james:chain", "norming_set"])
def test_mc_estimates_and_brackets_pinned(spec):
    """The estimate is the recorded float bit for bit; each bracket endpoint
    is within one ulp of the recorded one (the quantile is correctly
    rounded, and ``stdtrit`` was one or two ulp off at these points)."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    for (name, m, samples, confidence), (value, lo, hi) in _MC_PINS.items():
        if name != spec:
            continue
        est = expect_mc(space, _pin_vector(m), samples, seed=3, confidence=confidence)
        assert est.value == value, (m, samples, confidence)
        assert abs(est.lower - lo) <= math.ulp(lo), (m, samples, confidence)
        assert abs(est.upper - hi) <= math.ulp(hi), (m, samples, confidence)


_QUANTILE_DFS = [99, 100, 101, 1000, 4095, 99999, 999999, 10**7, 10**8, 10**9]
_QUANTILE_CONFIDENCES = [1e-9, 1e-6, 1e-3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9]


def _t_root_400(df, confidence):
    """The two-sided Student-t quantile as a 400-bit root, rounded once to
    a float: I_x(1/2, df/2) = 2p - 1 at x = t^2 / (df + t^2)."""
    import mpmath
    from statistics import NormalDist

    p = 0.5 + confidence / 2.0
    with mpmath.workprec(400):
        nu = mpmath.mpf(df)
        mass = 2 * mpmath.mpf(p) - 1
        t = mpmath.findroot(
            lambda t: mpmath.betainc(0.5, nu / 2, 0, t * t / (nu + t * t), regularized=True) - mass,
            NormalDist().inv_cdf(p))
    return float(abs(t))


def test_t_quantile_is_the_correctly_rounded_root():
    """Stopping once two working precisions round alike gives the float
    nearest the 400-bit root at every grid point, including the tails
    (confidence 1e-9 and 1 - 1e-9) and df = 10^9."""
    for df in _QUANTILE_DFS:
        for confidence in _QUANTILE_CONFIDENCES:
            assert rad._t_quantile(df, confidence) == _t_root_400(df, confidence), (df, confidence)


def test_t_quantile_stays_near_stdtrit():
    """For confidence >= 0.5 and df <= 10^8, ``stdtrit`` is within 4 ulp
    of the correctly rounded quantile (it is hundreds of ulp off at
    confidence 1e-3 and millions at df = 10^9, so those points are left
    out)."""
    from scipy.special import stdtrit

    for df in _QUANTILE_DFS:
        if df > 10**8:
            continue
        for confidence in _QUANTILE_CONFIDENCES:
            if confidence < 0.5:
                continue
            t = rad._t_quantile(df, confidence)
            ref = float(stdtrit(df, 0.5 + confidence / 2.0))
            assert abs(t - ref) <= 4 * math.ulp(t), (df, confidence)


def test_t_quantile_edges():
    """p = 0.5 + confidence / 2.0 rounds to 0.5 (quantile 0) for tiny
    confidences and to 1 (quantile infinite) just below confidence 1."""
    assert rad._t_quantile(99, 1e-300) == 0.0
    assert rad._t_quantile(99, 1 - 2**-53) == math.inf
    assert rad._t_quantile(99, 1 - 2**-52) > rad._t_quantile(99, 1 - 1e-9)


def test_t_quantile_evaluates_each_pair_once(monkeypatch):
    import mpmath

    calls = []
    inner = mpmath.findroot

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mpmath, "findroot", counted)
    first = rad._t_quantile(12345, 0.875)
    assert len(calls) >= 2  # at least two precisions
    done = len(calls)
    assert rad._t_quantile(12345, 0.875) == first
    assert len(calls) == done


_NO_SCIPY = """
import sys
from fractions import Fraction as F
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.dual import SmaxDualSpace
from rudlab.rademacher import expect_mc
space = SpaceFactory.shared(RunConfig()).space("summing")
for m, samples in ((40, 1000), (14, 1 << 14)):
    a = Coeffs.from_values([F(i % 5 + 1, i % 3 + 1) for i in range(m)])
    expect_mc(space, a, samples, seed=1)
print("scipy" in sys.modules)
"""


_NO_NUMPY_MA = """
import sys
import numpy as np
from rudlab import spaces
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.dual import SmaxDualSpace
from rudlab.rademacher import sign_stats
calls = []
first_extreme = spaces.first_extreme
spaces.first_extreme = lambda *args: calls.append(1) or first_extreme(*args)
# 665857 and 470832 sqrt(2) = 665856.99999925 are near-tied with distinct keys
pairs = {1: np.array([[665857, 3], [0, 1]]), 2: np.array([[0, 0], [470832, 1]])}
batch = spaces._normingset_reduce_blocks(
    lambda sl: {c: p[:, sl] for c, p in pairs.items()}, 2, 2, 1)
sign_stats(SpaceFactory.shared(RunConfig()).space("norming_set"),
           Coeffs.from_values([3, -1, 2, 5, -2, 1])).mean()
print(len(calls), batch.classes[1].tolist(), "numpy.ma" in sys.modules)
"""


def test_norming_set_batches_import_no_numpy_ma():
    """The family-sup reduction, through a near-tied column that reaches
    first_extreme and through a norming-set sign average, runs in a fresh
    process without importing numpy.ma (a 1-D np.unique imports it)."""
    import os
    import pathlib
    import subprocess
    import sys

    import rudlab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pathlib.Path(rudlab.__file__).parent.parent),
                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[0] == "1 [665857, 3] False"


def test_monte_carlo_imports_no_scipy():
    """Monte-Carlo brackets, on the per-sample path (40 entries) and the
    pattern-table path (14 entries), run in a fresh process without
    importing scipy, and no module of the package names it."""
    import os
    import pathlib
    import subprocess
    import sys

    import rudlab

    pkg = pathlib.Path(rudlab.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pkg.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]
    assert [p.name for p in sorted(pkg.glob("*.py")) if "scipy" in p.read_text()] == []
