"""Family norms and family sign means against their one-vector forms."""

from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.coeffs import (Coeffs, DomainError, EnumerationCapError, NoIntegerForm,
                           family_form, family_packs)
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum, SQRT2, sqrt_exact
from rudlab.experiments import SWEEP_SPECS, _ge, _vectors, exp_zruc, exp_zrud
from rudlab.rademacher import family_means, sign_stats
from rudlab.rng import derive_seed

CFG = RunConfig()


def _space(spec):
    return SpaceFactory.shared(CFG).space(spec)


def _one_by_one(space, a):
    """The norm as one batch of the vector alone over a column of ones."""
    return 0 if not a else space.batch(a, np.ones((len(a), 1), dtype=np.int8),
                                       a.is_exact()).value(0)


def _same(x, y):
    if isinstance(x, float) or isinstance(y, float):
        return type(x) is type(y) and x == y
    return QSum.of(x) == y


def _dense(space, count=24):
    """Vectors on a few neighbouring indices of the engine's universe, so
    that supports are disjoint, overlapping and identical in turn."""
    universe = space.sweep_indices if space.sweep_indices is not None else range(48)
    universe = [i for i in universe if i >= 1][:9]  # haar starts at index 1
    out = []
    for t in range(count):
        lo = t % 5
        idx = universe[lo:lo + 2 + t % 3]
        out.append(Coeffs.from_pairs((i, [1, -2, F(1, 2), 3][(i + t) % 4]) for i in idx))
    out += [out[0], out[0].scale(-3), Coeffs.zero()]
    return out


@pytest.mark.parametrize("spec", SWEEP_SPECS + ["lp:3", "james_x:3", "renorm:james:pairs:1"])
def test_norms_equal_one_batch_per_vector(spec):
    space = _space(spec)
    vectors = _vectors(space, derive_seed(CFG.seed, 37, len(spec)), 20) + _dense(space)
    got = space.norms(vectors)
    assert len(got) == len(vectors)
    for a, n in zip(vectors, got):
        want = _one_by_one(space, a)
        assert _same(n, want), (spec, a, n, want)
        assert _same(space.norm(a), want)


@pytest.mark.parametrize("spec", ["lp:1", "summing", "james:chain", "norming_set", "zrud"])
def test_norms_of_small_families(spec):
    space = _space(spec)
    a = _vectors(space, 5, 1)[0]
    assert space.norms([]) == []
    assert space.norms([Coeffs.zero()]) == [0]
    assert _same(space.norms([a])[0], _one_by_one(space, a))


def test_norms_of_float_entry_vectors():
    for spec in ("lp:2", "summing", "norming_set", "zmr", "bd"):
        space = _space(spec)
        vectors = [Coeffs.from_values([0.5, -1.25, 3.0]), Coeffs.from_values([1, F(1, 3)]),
                   Coeffs.from_values([2.0, 1.0], start=1)]
        for a, n in zip(vectors, space.norms(vectors)):
            assert _same(n, _one_by_one(space, a)), (spec, a)


def test_norms_of_radical_vectors():
    ctx = SpaceFactory.shared(CFG).mr_context
    from rudlab.mr import _weight
    blocks = ctx.canonical_blocks(3)
    zrud = [Coeffs.from_pairs((i, _weight(len(s)) * F(c)) for c, s in zip(coeffs, blocks) for i in s)
            for coeffs in ([1, -1, 2], [F(1, 2), 0, 3], [0, 4, -1], [1, 1, 1])]
    ns = _space("norming_set")
    radical = [Coeffs.from_values([SQRT2, 1, F(1, 3)]), Coeffs.from_values([SQRT2 / 2, -2]),
               Coeffs.from_values([1, SQRT2 * 3, 1]), Coeffs.from_values([SQRT2 + 1, 1])]
    for space, vectors in ((ctx.zrud, zrud), (ctx.zmr, zrud), (ns, radical)):
        for a, n in zip(vectors, space.norms(vectors)):
            assert _same(n, _one_by_one(space, a)), (space.name, a)


def test_norms_raise_what_the_one_vector_norm_raises():
    rational = Coeffs.from_values([1, 2])
    with pytest.raises(NoIntegerForm):
        _space("lp:1").norms([rational, Coeffs.from_values([SQRT2, 1])])
    with pytest.raises(DomainError):
        _space("haar").norms([Coeffs.from_values([1, 2], start=1), Coeffs.from_values([1, 1])])
    bd = _space("bd")
    with pytest.raises(DomainError, match="outside the tree"):
        bd.norms([rational, Coeffs.from_pairs([(bd.gamma.size, 1)])])
    renorm = _space("renorm:summing:1")
    with pytest.raises(EnumerationCapError):
        renorm.norms([rational, Coeffs.from_values([1] * 25)])


def test_family_form_rebuilds_every_vector():
    vectors = [Coeffs.from_values([2, F(-4, 3), SQRT2 * 3]), Coeffs.from_values([F(1, 2)], start=1),
               Coeffs.from_values([6, 0, SQRT2 / 5], start=0)]
    base, mult = family_form(vectors)
    for j, a in enumerate(vectors):
        rebuilt = Coeffs.from_pairs((i, v * int(k)) for (i, v), k in zip(base, mult[:, j]))
        assert rebuilt == a or all(QSum.of(x) == y for (_, x), (_, y) in zip(rebuilt, a))
    base, mult = family_form(vectors[:1])
    assert base == vectors[0] and mult.tolist() == [[1], [1], [1]]
    assert family_form([Coeffs.from_values([1, 2]), Coeffs.from_values([SQRT2])]) is None
    assert family_form([Coeffs.from_values([0.5])]) is None
    huge = [Coeffs.from_values([1 << 70, 1]), Coeffs.from_values([1, 3])]
    assert family_form(huge) is None
    for spec in ("lp:1", "norming_set", "zmr"):
        space = _space(spec)
        assert [QSum.of(n) for n in space.norms(huge)] == [_one_by_one(space, a) for a in huge]


def test_family_packs_keep_order_and_budget():
    small = [Coeffs.from_values([1, 2], start=3 * k) for k in range(12)]
    packs = family_packs(small, [1] * 12, 12)
    assert sum(packs, []) == list(range(12))
    assert all(len({i for k in p for i in small[k].support}) <= 16 for p in packs)
    wide = Coeffs.from_values([1] * 30)
    assert family_packs([wide, wide.scale(2)], [1, 1], 2) == [[0, 1]]
    assert family_packs(small[:3], [4, 4, 4], 8) == [[0, 1], [2]]


@pytest.mark.parametrize("spec", SWEEP_SPECS + ["lp:3", "renorm:james:pairs:1"])
def test_family_means_equal_sign_stats(spec):
    space = _space(spec)
    vectors = _vectors(space, derive_seed(CFG.seed, 38, len(spec)), 12, max_m=8) + _dense(space, 12)
    for a, mean in zip(vectors, family_means(space, vectors)):
        assert _same(mean, sign_stats(space, a).mean()), (spec, a)


def test_family_means_refuse_at_the_cap_and_walk_long_vectors():
    s = _space("summing")
    five = Coeffs.from_values([1] * 5)
    with pytest.raises(EnumerationCapError, match="enumeration cap 4"):
        family_means(s, [Coeffs.from_values([1]), five], cap=4)
    long = Coeffs.from_values([1, -1] * 8)
    got = family_means(s, [five, long, Coeffs.zero()], cap=16)
    assert got == [sign_stats(s, five).mean(), sign_stats(s, long, 16).mean(), 0]


def test_values_float_is_cached_and_read_only():
    a = Coeffs.from_values([F(1, 3), SQRT2, -2])
    first = a.values_float()
    assert first is a.values_float()
    assert first.tolist() == [float(v) for _, v in a.entries]
    with pytest.raises(ValueError):
        first[0] = 0.0


def test_ge_compares_rationals_and_radicals_exactly():
    assert _ge(F(1, 3), F(1, 3)) and not _ge(F(1, 3), F(1, 2)) and _ge(2, F(3, 2))
    assert _ge(SQRT2, F(141, 100)) and not _ge(F(141, 100), SQRT2)
    assert _ge(QSum.of(F(1, 2)), F(1, 2))


def _count_engine_calls(monkeypatch, spaces):
    calls = []
    for space in spaces:
        for name in ("mult_batch", "mult_batch_float"):
            real = getattr(space, name)

            def spy(a, mult, real=real, tag=(space.name, name)):
                calls.append(tag)
                return real(a, mult)
            monkeypatch.setattr(space, name, spy)
    return calls


def test_codings_reports_batch_their_vector_families(monkeypatch):
    """At bd.levels=5 the zrud report evaluates 130 vectors and the zruc
    report 30, each with a norm and (for 60 of them) a sign mean; the
    family batches take a handful of engine calls, not one per vector."""
    cfg = RunConfig().with_overrides({"bd.levels": "5"})
    fac = SpaceFactory.shared(cfg)
    calls = _count_engine_calls(monkeypatch, [fac.space("zrud")])
    exp_zrud(cfg)
    assert 0 < len(calls) <= 10, calls
    calls = _count_engine_calls(monkeypatch, [fac.space("zruc"), fac.space("zmr")])
    exp_zruc(cfg)
    assert 0 < len(calls) <= 16, calls


def test_pairs_engine_takes_families_of_one():
    """A zero entry is one more node a james:pairs pair may end at, so a
    union batch would not restrict: {0: 3, 4: 1, 5: 1} has norm sqrt(10),
    but its batch over {0, 1, 3, 4, 5} with zeros at 1 and 3 gives sqrt(11)."""
    pairs = _space("james:pairs")
    a = Coeffs.from_pairs([(0, 3), (4, 1), (5, 1)])
    b = Coeffs.from_pairs([(0, 3), (1, 3), (3, 2), (4, 1), (5, 1)])
    assert not pairs.zeros_restrict
    assert QSum.of(pairs.mult_batch(b, np.array([[1], [0], [0], [1], [1]])).value(0)) == \
        sqrt_exact(11)
    assert [QSum.of(n) for n in pairs.norms([a, b])] == [sqrt_exact(10), pairs.norm(b)]
