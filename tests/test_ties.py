"""Tie certification: near-tied extremes are decided exactly, candidates
with equal integer keys are compared once, and the first exact extreme
wins."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rudlab.rademacher as rad
from rudlab import exactnum
from rudlab.batches import ExactBatch, _peak, _scalar_gt
from rudlab.coeffs import (Coeffs, mask_matrix_full, mask_matrix_range, sign_matrix_full,
                           sign_matrix_range)
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.experiments import sample_vector
from rudlab.rademacher import sign_stats, subset_stats
from rudlab.rng import derive_seed
from rudlab.spaces import NormingSetSpace, _core_forms

from oracles import norm_slow, reference

RT2 = QSum({2: F(1)})

# Pell pairs x^2 - 2 y^2 = 1, so x exceeds y*sqrt(2) by about 1/(2x):
# relative gap about 1e-12 (inside the float tie tolerance), and about
# 2.5e-20 (below float resolution: the float argmax cannot tell them apart).
NEAR = (665857, 470832)
FAR_BELOW_FLOAT = (4478554083, 3166815962)


def _same(x, y) -> bool:
    return (QSum.of(x) - QSum.of(y)).sign() == 0


def _two_functional_space(rational: list, radical: list, radical_first: bool):
    """Norming set of two functionals: ``rational . a`` and
    ``sqrt(2) * (radical . a)``."""
    phi_q = Coeffs.from_pairs(list(enumerate(rational)))
    phi_r = Coeffs.from_pairs([(i, w * RT2) for i, w in enumerate(radical)])
    family = [phi_r, phi_q] if radical_first else [phi_q, phi_r]
    return NormingSetSpace("pell", lambda sup: family)


@pytest.mark.parametrize("radical_first", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_norming_set_distinct_near_tie(sign, radical_first):
    x, y = NEAR
    assert x * x - 2 * y * y == 1
    space = _two_functional_space([x], [y], radical_first)
    got = space.norm(Coeffs.from_values([sign]))
    assert got == x  # the rational functional is the larger, by about 7.5e-7
    assert (QSum.of(got) - y * RT2).sign() > 0
    assert _same(got, norm_slow(space, Coeffs.from_values([sign])))


@pytest.mark.parametrize("radical_first", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_norming_set_tie_below_float_resolution(sign, radical_first):
    """With a = (2^16, 1) the two pairings are x and y*sqrt(2) for a Pell
    pair near 4.5e9, which round to the same float; the exact path must
    still take the rational one, whichever functional comes first."""
    x, y = FAR_BELOW_FLOAT
    assert x * x - 2 * y * y == 1
    hi = 1 << 16
    space = _two_functional_space(
        [x // hi, x % hi], [y // hi, y % hi], radical_first
    )
    a = Coeffs.from_values([sign * hi, sign])
    assert float(x) == float(y * 2**0.5)
    assert space.norm(a) == x
    assert norm_slow(space, a) == x


def _first_extreme(batch: ExactBatch, want_max: bool) -> int:
    """Oracle: first index of the exact extreme, by pairwise comparison."""
    best = 0
    for i in range(1, len(batch)):
        vi, vb = batch.value(i), batch.value(best)
        if _scalar_gt(vi, vb) if want_max else _scalar_gt(vb, vi):
            best = i
    return best


def _check_extremes(batch: ExactBatch, want_max_idx: int, want_min_idx: int):
    for want_max, idx in ((True, want_max_idx), (False, want_min_idx)):
        value, got = batch._extreme(want_max)
        assert got == idx == _first_extreme(batch, want_max)
        assert _same(value, batch.value(idx))
    assert batch.argmax() == want_max_idx


def test_extreme_repeated_keys():
    """Keys repeat and two distinct keys are near-tied: the first index of
    the larger key wins, not the first near-tied index nor a later copy."""
    x, y = NEAR
    batch = ExactBatch.from_classes(
        {
            1: np.array([0, x, 0, x, 5, x], dtype=np.int64),
            2: np.array([y, 0, y, 0, 0, 0], dtype=np.int64),
        },
        3,
    )
    _check_extremes(batch, 1, 4)
    assert batch.max() == F(x, 3)
    # the same keys with the larger value first
    batch = ExactBatch.from_classes(
        {
            1: np.array([x, 0, x, 0], dtype=np.int64),
            2: np.array([0, y, 0, y], dtype=np.int64),
        },
        1,
    )
    _check_extremes(batch, 0, 1)


def test_extreme_equal_values_under_different_keys():
    """sqrt(8) as a root radicand, 2*sqrt(2) as a class-2 entry and
    sqrt(2) + sqrt(2) split between both are one value under three keys;
    the first index holding it wins, although its key sorts last."""
    classes = {
        1: np.array([0, 0, 0, 0, 1], dtype=np.int64),
        2: np.array([2, 0, 1, 0, 0], dtype=np.int64),
    }
    roots = np.array([0, 8, 2, 8, 0], dtype=np.int64)
    batch = ExactBatch(scale=1, classes=classes, roots=roots, roots_scale=1)
    assert all(_same(batch.value(i), 2 * RT2) for i in range(4))
    _check_extremes(batch, 0, 4)
    # a smaller value first: the first maximiser is the root-radicand one
    classes = {1: np.array([2, 0, 0, 0], dtype=np.int64),
               2: np.array([0, 0, 2, 1], dtype=np.int64)}
    batch = ExactBatch(
        scale=1, classes=classes, roots=np.array([0, 8, 0, 2], dtype=np.int64),
        roots_scale=1,
    )
    _check_extremes(batch, 1, 0)


ORACLE_SPECS = ["norming_set", "zmr", "zrud"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_batches_match_norm_slow(spec):
    """Every sign and every mask column of sweep vectors against the
    explicit pairing oracle ``oracles.norm_slow``, over the
    enumerated family for the coding engines."""
    cfg = RunConfig()
    fac = SpaceFactory(cfg)
    space = fac.space(spec)
    oracle = reference(fac, spec)
    seed = derive_seed(cfg.seed, len(spec), sum(map(ord, spec)))
    checked = 0
    for i in range(40):
        a = sample_vector(space, seed, i)
        if not a or len(a) > 4:
            continue
        m = len(a)
        for mult in (sign_matrix_full(m), mask_matrix_full(m)):
            batch = space.mult_batch(a, mult)
            for col in range(mult.shape[1]):
                masked = Coeffs.from_pairs(
                    (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, col])
                )
                want = norm_slow(oracle, masked) if masked else 0
                assert _same(batch.value(col), want), (spec, a, col)
        checked += 1
        if checked == 6:
            break
    assert checked == 6


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@pytest.mark.parametrize("past", [False, True])
def test_pairing_bound_at_the_int64_edge(spec, past):
    """Integer entries summing to S in magnitude, under sign and mask
    multipliers, have the pairing bound S times the largest weight
    numerators summed over the functional classes (each at least 1).  With
    that bound just below 2^63 the core forms and the batches are int64,
    just past it Python ints, in ``mult_batch`` and, on ``norming_set``,
    in ``split_batches``; every column equals the Python-int reference."""
    fac = SpaceFactory.shared(RunConfig())
    space = fac.space(spec)
    support = tuple((space.sweep_indices or range(16))[:3])
    weights = (space.class_mats(support)[0] if isinstance(space, NormingSetSpace)
               else space._layout(support).weights)
    peaks = sum(max(_peak(w), 1) for w in weights.values())
    s = ((1 << 63) - 1) // peaks + past
    a = Coeffs.from_pairs(zip(support, [s - 2, -1, 1]))
    forms, _, bound = _core_forms(a, weights, 1)
    dtype = object if past else np.int64
    assert bound == s * peaks and (bound >= 1 << 63) == past
    assert abs(bound - (1 << 63)) <= peaks
    assert [w.dtype for w in forms.values()] == [dtype] * len(forms)
    batches = [(space.mult_batch(a, mult), mult)
               for mult in (sign_matrix_full(3), mask_matrix_full(3))]
    if spec == "norming_set":
        for masks, build in ((False, sign_matrix_range), (True, mask_matrix_range)):
            total = rad._walk_length(3, masks)
            split = list(space.split_batches(a, build(1, 0, 2), build(2, 0, total >> 1)))
            assert len(split) == total >> 1
            batches += [(batch, build(3, 2 * k, 2 * k + 2)) for k, batch in enumerate(split)]
    oracle = reference(fac, spec)
    for batch, mult in batches:
        assert [c.dtype for c in batch.classes.values()] == [dtype] * len(batch.classes)
        for col in range(mult.shape[1]):
            masked = Coeffs.from_pairs(
                (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, col]))
            want = norm_slow(oracle, masked) if masked else 0
            assert _same(batch.value(col), want), (spec, past, col)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_sweep_qsum_sign_count(spec, monkeypatch):
    """Near-ties whose key equals the winner's up to sign are certified
    without QSum: the first 20 sweep vectors need at most 200 exact signs
    (about 19,000 to 60,000 when every near-tie was compared in QSum)."""
    calls = 0
    sign = QSum.sign

    def counting(self):
        nonlocal calls
        calls += 1
        return sign(self)

    cfg = RunConfig()
    space = SpaceFactory(cfg).space(spec)
    seed = derive_seed(cfg.seed, len(spec), sum(map(ord, spec)))
    monkeypatch.setattr(exactnum.QSum, "sign", counting)
    for i in range(20):
        a = sample_vector(space, seed, i)
        if not a:
            continue
        st = sign_stats(space, a, cfg.cap)
        st.mean(), st.min(), st.max()
        subset_stats(space, a, cfg.cap).mean()
    assert calls <= 200, calls


def test_radical_path_matches_norm_slow():
    """Vectors that ``NormingSetSpace.mult_batch`` pairs in Python ints
    (entries near 2^62, radical-valued entries) agree with the
    pairing oracle.  With int64 pairings, norm([2^62]*3) on norming_set
    wrapped to 2^62*sqrt(2) instead of 3*2^62."""
    fac = SpaceFactory(RunConfig())
    ctx = fac.mr_context
    big3 = Coeffs.from_values([1 << 62] * 3)
    x, y = FAR_BELOW_FLOAT
    pell = Coeffs.from_pairs([(0, y * RT2), (1, -x)])
    # mr block vectors: entries 1/sqrt(#s) on the canonical blocks
    blocks = [ctx.block_vector(1), ctx.block_vector(2),
              ctx.single_block(1) + ctx.single_block(2).scale(-3)]
    cases = [(spec, big3) for spec in ORACLE_SPECS]
    cases.append(("norming_set", Coeffs.from_values([1 << 61] * 4)))
    cases += [("norming_set", a) for a in blocks + [ctx.block_vector(3), pell]]
    cases += [("zmr", a) for a in blocks]
    cases += [("zrud", a) for a in blocks[:2]]
    for spec, a in cases:
        space = fac.space(spec)
        assert _same(space.norm(a), norm_slow(reference(fac, spec), a)), (spec, a)
    norming_set = fac.space("norming_set")
    assert norming_set.norm(big3) == 3 << 62
    # the two coordinate functionals tie below float resolution
    assert norming_set.norm(pell) == x


_RATIONAL = st.builds(F, st.integers(-(1 << 40), 1 << 40), st.integers(1, 1 << 30))
_CORE = st.sampled_from([2, 3, 6])
_ENTRY = st.one_of(
    _RATIONAL,
    st.builds(lambda q, r, c: QSum.root(c, r) + q, _RATIONAL, _RATIONAL, _CORE),
)
# weights with denominators far past 2^26, some of them radical
_WEIGHT = st.one_of(
    st.builds(F, st.integers(-(1 << 20), 1 << 20), st.integers(1, 1 << 50)),
    st.builds(lambda q, c: QSum.root(c, q), _RATIONAL, _CORE),
)
_FAMILY = st.lists(
    st.dictionaries(st.integers(0, 3), _WEIGHT, min_size=1, max_size=4)
    .map(lambda w: Coeffs.from_pairs(w.items())),
    min_size=1, max_size=3,
)


@given(
    family=_FAMILY,
    a=st.dictionaries(st.integers(0, 3), _ENTRY, min_size=1, max_size=4)
    .map(lambda e: Coeffs.from_pairs(e.items())),
)
# int64 pairings wrapped here: 2^40 * 2^25 leaves int64, and the norm read
# 1/2^40 instead of (2^65 + 1)/2^40
@example(
    family=[Coeffs.from_pairs([(0, 1), (1, F(1, 2**40))])],
    a=Coeffs.from_values([2**25, 1]),
)
# weights whose numerators over their common denominator leave int64
@example(family=[Coeffs.from_pairs([(0, F(1, 3 << 61)), (1, 2)])],
         a=Coeffs.from_values([1, 1]))
# no functional meets the support: the norm is 0
@example(family=[Coeffs.from_pairs([(3, 1)])], a=Coeffs.from_values([2]))
@settings(max_examples=60, deadline=None)
def test_norming_set_batches_at_the_integer_limits(family, a):
    """Rational and radical-valued entries past 2^26 against functionals
    with large denominators: every sign and mask column of ``mult_batch``
    equals ``norm_slow`` of that pattern."""
    if not a:
        return
    space = NormingSetSpace("limits", lambda sup: family)
    m = len(a)
    for mult in (sign_matrix_full(m), mask_matrix_full(m)):
        batch = space.mult_batch(a, mult)
        for col in range(mult.shape[1]):
            masked = Coeffs.from_pairs(
                (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, col])
            )
            want = norm_slow(space, masked) if masked else 0
            assert _same(batch.value(col), want), (a, col)
