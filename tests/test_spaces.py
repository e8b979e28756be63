"""Norm engines against the worked examples and brute-force oracles."""

import itertools
import zlib
from fractions import Fraction as F
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rudlab.coeffs import Coeffs, mask_matrix_range, sign_matrix_range
from rudlab.config import SpaceFactory, RunConfig
from rudlab.exactnum import QSum, SQRT2, sqrt_exact
from rudlab.spaces import (
    BmoRademacherSpace,
    LpSpace,
    NormingSetSpace,
    RenormSpace,
    SmaxSpace,
    SummingDualSpace,
    SummingSpace,
    _int_mult_values,
)

l1, l2, li = LpSpace(1), LpSpace(2), LpSpace(inf)
s, sd = SummingSpace(), SummingDualSpace()


def q(x):
    return QSum.of(x)


def renorm_reference(space, x):
    """The renorming of ``x`` from its definition, independent of the
    renorm batch: the base engine's exact sign average plus delta times the
    base norm (0 on the zero vector)."""
    from rudlab.rademacher import expect_exact

    if not x:
        return 0
    return expect_exact(space.base, x).value + space.delta * space.base.norm(x)


def test_lp_examples():
    assert l2.norm(Coeffs.from_values([3, 4])) == 5
    assert l1.norm(Coeffs.from_values([1, -1, 1])) == 3
    assert li.norm(Coeffs.from_values([2, -7])) == 7


def test_summing_examples():
    assert s.norm(Coeffs.from_values([1, 1])) == 2
    assert s.norm(Coeffs.from_values([1, -1])) == 1
    assert s.norm(Coeffs.from_values([F(-7, 2)])) == F(7, 2)


def test_summing_dual_examples():
    assert sd.norm(Coeffs.from_values([1, 1])) == 2
    assert sd.norm(Coeffs.from_values([1, -1])) == 4
    assert sd.norm(Coeffs.from_values([5])) == 10
    # gapped support agrees with the l1 norm of the difference image
    assert sd.norm(Coeffs.from_pairs([(0, 1), (2, -2)])) == 6


def test_james_examples():
    fac = SpaceFactory(RunConfig())
    j = fac.space("james:chain")
    assert j.norm(Coeffs.from_values([1])) == 1
    assert (q(j.norm(Coeffs.from_values([1, -1]))) - sqrt_exact(5)).sign() == 0
    assert j.norm(Coeffs.from_values([2, 2, 2, 2])) == 2
    jx1 = fac.space("james_x:1")
    assert jx1.norm(Coeffs.from_values([1, -1])) == 3
    assert jx1.norm(Coeffs.from_values([-6])) == 6


def _engine_classes():
    """Every engine class, the coding and tree engines included."""
    import rudlab.bd, rudlab.dyadic, rudlab.mr  # noqa: F401  (register their engines)
    from rudlab.spaces import Space

    todo, seen = [Space], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def test_engine_batch_contract():
    """Every batch method of every engine takes exactly ``(self, a, mult)``:
    ``mult``'s column count is the third positional argument."""
    import inspect

    classes = _engine_classes()
    assert len(classes) > 10
    for cls in classes:
        for name in ("mult_batch", "mult_batch_float"):
            params = list(inspect.signature(getattr(cls, name)).parameters)
            assert params == ["self", "a", "mult"], (cls.__name__, name, params)


def test_james_chain_is_james_x_2():
    """``james:chain`` and ``james_x:2`` are one norm: equal exact batches
    and bitwise-equal float batches on a 12-entry sign chunk."""
    fac = SpaceFactory(RunConfig())
    chain, jx2 = fac.space("james:chain"), fac.space("james_x:2")
    assert (chain.name, jx2.name) == ("james:chain", "james_x:2")
    a = Coeffs.from_pairs(zip([0, 1, 2, 4, 5, 7, 8, 9, 12, 13, 14, 17],
                              [1, F(-1, 2), 3, 2, F(5, 3), -4, 1, 2, F(-7, 2), 1, -1, 6]))
    mult = sign_matrix_range(12, 0, 1 << 11)
    want, got = chain.mult_batch(a, mult), jx2.mult_batch(a, mult)
    assert (got.scale, got.roots_scale) == (want.scale, want.roots_scale)
    assert got.classes is None and want.classes is None
    assert np.array_equal(got.roots, want.roots) and got.roots.dtype == want.roots.dtype
    floats = mult.astype(np.float64)
    assert chain.mult_batch_float(a, floats).tobytes() == jx2.mult_batch_float(a, floats).tobytes()


def _james_oracle(a: Coeffs, convention: str) -> F:
    """Brute force over all chains on support plus gap and boundary zeros."""
    nodes = []
    sup = a.support
    if sup and sup[0] >= 1:
        nodes.append(F(0))
    for k, i in enumerate(sup):
        if k and i - sup[k - 1] >= 2:
            nodes.append(F(0))
        nodes.append(F(a.value(i)))
    nodes.append(F(0))
    best = F(0)
    n = len(nodes)
    for size in range(2, n + 1):
        for chain in itertools.combinations(range(n), size):
            if convention == "chain":
                val = sum(
                    (nodes[i] - nodes[j]) ** 2 for i, j in zip(chain, chain[1:])
                )
            else:
                if size % 2:
                    continue
                val = sum(
                    (nodes[chain[2 * k]] - nodes[chain[2 * k + 1]]) ** 2
                    for k in range(size // 2)
                )
            best = max(best, val)
    return best


@pytest.mark.parametrize("convention", ["chain", "pairs"])
def test_james_dp_vs_bruteforce(convention):
    space = SpaceFactory(RunConfig()).space(f"james:{convention}")
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        support = np.sort(rng.choice(np.arange(8), size=m, replace=False))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs(
            [(int(i), int(v)) for i, v in zip(support, vals) if v]
        )
        if not a:
            continue
        got = q(space.norm(a))
        want = sqrt_exact(_james_oracle(a, convention))
        assert (got - want).sign() == 0, (a.entries, float(got), float(want))


def test_bmo_examples():
    b = BmoRademacherSpace()
    assert b.norm(Coeffs.from_values([1])) == 2
    assert (q(b.norm(Coeffs.from_values([1, -1]))) - (SQRT2 + 1)).sign() == 0
    assert b.norm(Coeffs.zero()) == 0


def test_smax_examples():
    sm = SmaxSpace(2)
    assert sm.norm(Coeffs.from_values([1, 1])) == 2
    assert (q(sm.norm(Coeffs.from_values([1, -1]))) - SQRT2).sign() == 0
    assert sm.norm(Coeffs.from_values([F(5, 2)])) == F(5, 2)
    with pytest.raises(Exception):
        SmaxSpace(3)


def test_norming_set_examples():
    inner = [Coeffs.from_pairs([(0, 1)]), Coeffs.from_pairs([(1, 1)])]
    ns = NormingSetSpace("ns", lambda sup: inner)
    assert ns.norm(Coeffs.from_values([2, -3])) == 3
    ns2 = NormingSetSpace("ns2", lambda sup: [Coeffs.from_values([1, 1])])
    assert ns2.norm(Coeffs.from_values([1, 1])) == 2
    ns3 = NormingSetSpace(
        "ns3", lambda sup: [Coeffs.from_values([F(1, 2), F(-1, 2)])]
    )
    assert ns3.norm(Coeffs.from_values([1, -1])) == 1
    from rudlab.coeffs import DomainError

    empty = NormingSetSpace("ns4", lambda sup: [])
    with pytest.raises(DomainError, match="empty norming set"):
        empty.norm(Coeffs.from_values([1]))


def test_renorm_examples():
    r2 = RenormSpace(l2, F(1))
    assert r2.norm(Coeffs.from_values([1])) == 2
    assert r2.norm(Coeffs.zero()) == 0
    rs = RenormSpace(s, F(1))
    assert rs.norm(Coeffs.from_values([1, 1])) == F(7, 2)


def test_renorm_inner_average_once_per_abs_column(monkeypatch):
    """The inner sign average is sign-invariant, so columns that differ
    only in sign share one group of patterns, and all groups go to the base
    engine in one grouped batch, in the exact and the float path."""
    space = SpaceFactory(RunConfig()).space("renorm:summing:1")
    base = space.base
    calls = []
    for name in ("mult_batch", "mult_batch_float"):
        method = getattr(base, name)
        monkeypatch.setattr(base, name, lambda a, mult, *rest, method=method, name=name:
                            calls.append((name, mult.shape[1])) or method(a, mult, *rest))
    a = Coeffs.from_values([1, F(-1, 2), 2])
    mult = np.array([[1, -1, 1, -1], [-1, 1, 1, 1], [0, 0, 1, -1]], dtype=np.int8)
    batch = space.mult_batch(a, mult)
    # the outer batch, then 4 + 2 patterns for |columns| (1,1,0) and (1,1,1)
    assert calls == [("mult_batch", 4), ("mult_batch", 6)]
    floats = space.mult_batch_float(a, mult.astype(np.float64))
    assert calls[2:] == [("mult_batch_float", 4), ("mult_batch_float", 6)]
    for j in range(4):
        masked = Coeffs.from_pairs(
            (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, j])
        )
        want = renorm_reference(space, masked)
        assert batch.value(j) == want
        assert floats[j] == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("spec", ["renorm:summing:1", "zruc", "lp2_half"])
def test_renorm_grouped_walk_across_chunks(monkeypatch, spec):
    """With 16-column chunks the inner walks of up to 5 entries are packed
    whole into several base batches, none wider than a chunk, and each
    distinct longer |column| is one ``sign_stats`` walk; every mask and sign
    column still equals the norm of its masked vector (``lp2_half``, the
    renorming of lp:2 with delta 1/2, has radical inner averages).  The edge
    batch holds an empty column, a 5-entry one (16 patterns, packed) and a
    6-entry one (32 patterns, walked)."""
    import rudlab.rademacher as rad

    monkeypatch.setattr(rad, "_CHUNK", 16)
    if spec == "lp2_half":
        space = RenormSpace(LpSpace(2), F(1, 2))
        a = Coeffs.from_values([1, F(-1, 2), 2, 3, F(1, 3), -1, 2])
    else:
        space = SpaceFactory(RunConfig()).space(spec)
        universe = space.sweep_indices or tuple(range(12))
        vals = [1, F(-1, 2), 2, -3, F(3, 2), 1]
        a = Coeffs.from_pairs(zip(universe, vals))
    m = len(a)
    base_calls, walks = [], []
    method, walk = space.base.mult_batch, rad.sign_stats
    monkeypatch.setattr(space.base, "mult_batch",
                        lambda b, mult: base_calls.append(mult.shape[1])
                        or method(b, mult))
    monkeypatch.setattr(rad, "sign_stats",
                        lambda base, b: walks.append(b) or walk(base, b))
    masks = mask_matrix_range(m, 0, 1 << m)[:, ::3]
    signs = sign_matrix_range(m, 0, 1 << m)[:, ::5]
    edge = np.zeros((m, 3), dtype=np.int8)
    edge[:5, 1] = [1, -1, 1, 1, -1]
    edge[:6, 2] = [-1, 1, 1, -1, 1, 1]
    for mult in (masks, signs, edge):
        long = {tuple(np.abs(col)) for col in mult.T if np.count_nonzero(col) > 5}
        base_calls.clear()
        walks.clear()
        batch = space.mult_batch(a, mult)
        assert max(base_calls[1:], default=0) <= 16 and len(walks) == len(long)
        base_calls.clear()
        walks.clear()
        floats = space.mult_batch_float(a, mult.astype(np.float64))
        assert max(base_calls, default=0) <= 16 and len(walks) == len(long)
        for j in range(mult.shape[1]):
            masked = Coeffs.from_pairs(
                (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, j])
            )
            want = renorm_reference(space, masked)
            assert QSum.of(batch.value(j)) == QSum.of(want), (spec, j)
            assert floats[j] == pytest.approx(float(want), rel=1e-12)


def test_renorm_batch_is_the_same_at_every_chunk_size(monkeypatch):
    """The sign batch of ``renorm:james:chain:3/2`` on a 6-entry vector is
    array-equal (values, dtypes, scales and class order, ascending by core)
    whether its 32-pattern inner walk is packed whole, at the default chunk,
    or folded over two 16-column chunks."""
    import rudlab.rademacher as rad

    space = SpaceFactory(RunConfig()).space("renorm:james:chain:3/2")
    a = Coeffs.from_values([1, F(-1, 2), 2, -3, F(3, 2), 1])
    signs = sign_matrix_range(6, 0, 64)
    batches = [space.mult_batch(a, signs)]
    monkeypatch.setattr(rad, "_CHUNK", 16)
    batches.append(space.mult_batch(a, signs))
    whole, folded = batches
    assert len(whole.classes) > 2 and list(whole.classes) == sorted(whole.classes)
    assert list(folded.classes) == list(whole.classes)
    assert (folded.scale, folded.roots_scale) == (whole.scale, whole.roots_scale)
    for got, want in [*zip(folded.classes.values(), whole.classes.values()),
                      (folded.roots, whole.roots)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)


EXACT_SPECS = [
    "lp:1", "lp:2", "linf", "summing", "summing_dual", "james:chain",
    "james:pairs", "james_x:1", "james_x:2", "bmo", "smax:2", "walsh",
    "haar", "norming_set", "renorm:summing:1", "zmr", "zrud",
]


@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_batch_matches_per_pattern_loop(spec):
    """The vectorised batch path must agree with plain per-pattern norms."""
    space = SpaceFactory(RunConfig()).space(spec)
    _check_batch_against_norm(space, np.random.default_rng(zlib.crc32(spec.encode())))


def _check_batch_against_norm(space, rng):
    """Random sign-and-mask columns of ``mult_batch`` against ``norm`` of
    each masked vector."""
    universe = space.sweep_indices or tuple(range(12))
    for trial in range(4):
        m = int(rng.integers(1, 5))
        support = sorted(
            int(universe[k]) for k in rng.choice(len(universe), size=m, replace=False)
        )
        vals = [F(int(x), int(d)) for x, d in zip(
            rng.integers(-3, 4, size=m), rng.integers(1, 3, size=m))]
        a = Coeffs.from_pairs([(i, v) for i, v in zip(support, vals) if v])
        if not a:
            continue
        mult = np.array(
            [[1, -1, 0, 1][rng.integers(0, 4)] for _ in range(len(a) * 3)],
            dtype=np.int8,
        ).reshape(len(a), 3)
        batch = space.mult_batch(a, mult)
        for col in range(3):
            masked = Coeffs.from_pairs(
                (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, col])
            )
            want = space.norm(masked) if masked else 0
            got = batch.value(col)
            assert (QSum.of(got) - QSum.of(want)).sign() == 0, (space.name, a, col)


def test_norming_set_masked_columns_match_norm():
    """The demo norming family restricts consistently: a masked column of
    the full support's batch has the norm of the masked vector.  A family
    that does not restrict consistently fails here for about one seed in a
    hundred, so one seed alone would not show it."""
    space = SpaceFactory(RunConfig()).space("norming_set")
    for seed in range(1000):
        _check_batch_against_norm(space, np.random.default_rng(seed))


def test_norm_axioms_on_random_pairs():
    fac = SpaceFactory(RunConfig())
    rng = np.random.default_rng(5)
    for spec in EXACT_SPECS:
        space = fac.space(spec)
        universe = space.sweep_indices or tuple(range(12))
        for _ in range(3):
            m = int(rng.integers(1, 5))
            idx = sorted(int(universe[k]) for k in rng.choice(len(universe), m, replace=False))
            va = rng.integers(-3, 4, size=m)
            vb = rng.integers(-3, 4, size=m)
            a = Coeffs.from_pairs([(i, int(x)) for i, x in zip(idx, va) if x])
            b = Coeffs.from_pairs([(i, int(x)) for i, x in zip(idx, vb) if x])
            if not a or not b:
                continue
            na, nb = q(space.norm(a)), q(space.norm(b))
            assert na.sign() > 0  # definiteness on nonzero vectors
            # absolute homogeneity
            assert (q(space.norm(a.scale(F(-3, 2)))) - F(3, 2) * na).sign() == 0
            # triangle inequality
            assert (na + nb - q(space.norm(a + b))).sign() >= 0, spec


def test_renorm_refuses_columns_past_the_cap(monkeypatch):
    """A column with more entries than the enumeration cap has no exact
    inner sign average: the integer batch, the float batch and the norm
    refuse it with an error naming the renorm inner average and the cap,
    before any call of the base engine, also beside columns under the cap."""
    from rudlab.coeffs import DEFAULT_ENUM_CAP, EnumerationCapError

    space = RenormSpace(SummingSpace(), F(1))
    for name in ("mult_batch", "mult_batch_float"):
        monkeypatch.setattr(space.base, name, lambda *args: pytest.fail("base engine called"))
    m = DEFAULT_ENUM_CAP + 1
    a = Coeffs.from_values([1, -1, 2] * 8 + [F(1, 2)])
    mult = np.ones((m, 3), dtype=np.int8)
    mult[:2, :2] = 0  # two columns under the cap, one past it
    msg = (f"renorm inner sign average of a column with {m} entries "
           f"exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
    with pytest.raises(EnumerationCapError, match=msg):
        space.mult_batch(a, mult)
    with pytest.raises(EnumerationCapError, match=msg):
        space.mult_batch_float(a, mult.astype(np.float64))
    for x in (a, Coeffs.from_values([float(v) for _, v in a.entries])):
        with pytest.raises(EnumerationCapError, match=msg):
            space.norm(x)


@pytest.mark.parametrize("spec", ["renorm:lp:2:1", "renorm:bmo:1", "renorm:james:chain:3/2",
                                  "zruc"])
def test_renorm_batch_means_add_like_their_columns(spec):
    """A renorm batch's mean is the column-by-column sum of the masked
    vectors' norms (from the definition) over the count, term for term, so
    it converts to the same float; the root bases' inner-only cores must
    keep their order of first column for that."""
    from rudlab.experiments import sample_vector

    space = SpaceFactory(RunConfig()).space(spec)
    for i in range(8):
        a = sample_vector(space, 99 + i, i)
        if not a or len(a) > 6:
            continue
        m = len(a)
        for mult in (mask_matrix_range(m, 0, 1 << m), sign_matrix_range(m, 0, 1 << (m - 1))):
            total = 0
            for j in range(mult.shape[1]):
                masked = Coeffs.from_pairs(
                    (k, v * int(c)) for (k, v), c in zip(a.entries, mult[:, j]))
                total = total + renorm_reference(space, masked)
            want = QSum.of(total * F(1, mult.shape[1]))
            got = QSum.of(space.mult_batch(a, mult).mean())
            assert got == want and float(got) == float(want), (spec, i)


_RENORM_FAC = SpaceFactory(RunConfig())


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(["summing", "james:chain", "zmr"]),
    delta=st.one_of(
        st.sampled_from([F(1), F(1, 2), F(3)]),
        st.builds(F, st.integers(1, 1 << 40), st.integers(1, 1 << 40)),
    ),
    values=st.lists(
        st.fractions(-4, 4, max_denominator=3).filter(bool), min_size=1, max_size=4
    ),
)
@example(base="james:chain", delta=F(99), values=[1 << 26, -(1 << 26), 1 << 26, -(1 << 26)])
def test_renorm_integer_batches_match_norms(base, delta, values):
    """Every sign and mask column of a renorm batch is an integer batch
    entry equal to the renorming of its masked vector, for rational
    and radical base classes (zmr) and for any rational delta, also where
    the entries pass int64 (delta 99 on the chain example)."""
    space = RenormSpace(_RENORM_FAC.space(base), delta)
    a = Coeffs.from_values(values)
    m = len(a)
    for mult in (sign_matrix_range(m, 0, 1 << m), mask_matrix_range(m, 0, 1 << m)):
        batch = space.mult_batch(a, mult)
        assert batch.scalars is None
        for j in range(mult.shape[1]):
            masked = Coeffs.from_pairs(
                (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, j])
            )
            want = renorm_reference(space, masked)
            assert QSum.of(batch.value(j)) == QSum.of(want), (j, mult[:, j])


def test_renorm_radicands_are_canonical():
    """A delta numerator with a prime factor past the small primes leaves no
    square in the renorm batch's radicands: the sign mean of
    renorm:lp:2:101 on [1, 2, -1, 3] is 102*sqrt(15), its renorming."""
    from rudlab.rademacher import sign_stats

    space = _RENORM_FAC.space("renorm:lp:2:101")
    a = Coeffs.from_values([1, 2, -1, 3])
    mean = QSum.of(sign_stats(space, a).mean())
    assert mean.terms == {15: F(102)}
    assert mean == QSum.of(renorm_reference(space, a))


def test_zruc_past_the_old_private_cap_is_exact():
    """zruc once sampled the inner average of a column past 16 entries; on
    17 entries its norm is now the exact renorming of the vector."""
    space = _RENORM_FAC.space("zruc")
    a = Coeffs.from_values([1, -1, 2, F(1, 2), -3, 1, 1, -2, F(3, 2), 1, -1, 2, 1, 1, -1, 3, 1])
    got = space.norm(a)
    assert not isinstance(got, float)
    assert QSum.of(got) == QSum.of(renorm_reference(space, a))


def test_renorm_long_inner_walk_takes_the_base_distribution(monkeypatch):
    """The inner average of 24 ones is the summing engine's sign walk, so it
    reads ``SummingSpace.sign_distribution`` instead of walking 2^23
    patterns through base batches; no base batch is wider than a chunk."""
    from rudlab.rademacher import _CHUNK

    base = SummingSpace()
    space = RenormSpace(base, F(1))
    dists, widths = [], []
    dist, method = base.sign_distribution, base.mult_batch
    monkeypatch.setattr(base, "sign_distribution",
                        lambda b, masks: dists.append(len(b)) or dist(b, masks))
    monkeypatch.setattr(base, "mult_batch",
                        lambda b, mult: widths.append(mult.shape[1]) or method(b, mult))
    assert space.norm(Coeffs.from_values([1] * 24)) == F(248994781, 8388608)
    assert dists == [24] and max(widths) <= _CHUNK


# ---------------------------------------------------------------------------
# integer width: fixed-width integers under the bound, Python ints past it
# ---------------------------------------------------------------------------

_WIDE_SPECS = [
    "lp:1", "lp:2", "linf", "summing", "summing_dual", "james:chain", "james:pairs",
    "james_x:1", "james_x:2", "bmo", "walsh", "haar", "smax:2", "bd", "renorm:summing:1",
]
_D64 = (1 << 64) + 3
_WIDE_ENTRY = st.one_of(
    st.integers(-3, 3).filter(bool).map(lambda k: k << 26),  # at the old 26-bit cap
    st.builds(lambda x, s: s * x, st.integers((1 << 31) + 1, 1 << 40), st.sampled_from([1, -1])),
    st.integers(-7, 7).filter(bool).map(lambda k: F(k, _D64)),
    st.sampled_from([1, -2, F(1, 3)]),
)
#: closed forms of the column vector x, a list of Fractions
_WIDE_ORACLES = {
    "lp:1": lambda x: sum(map(abs, x)),
    "linf": lambda x: max(map(abs, x)),
    "summing": lambda x: max(abs(sum(x[k:])) for k in range(len(x))),
}


@settings(max_examples=20, deadline=None)
@given(
    spec=st.sampled_from(_WIDE_SPECS),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
    values=st.lists(_WIDE_ENTRY, min_size=5, max_size=5),
)
@example(spec="lp:2", picks=[0, 1, 2], values=[(1 << 40) - 1, -(1 << 26), F(5, _D64), 1, 1])
def test_exact_batches_past_the_old_cap(spec, picks, values):
    """Entries at 2^26, past 2^31 and over the denominator 2^64 + 3: every
    sign and mask column of an integer engine's exact batch matches its
    float batch, and the closed forms of lp:1, linf, lp:2 and summing."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    universe = space.sweep_indices or tuple(range(48))
    a = Coeffs.from_pairs((universe[k], v) for k, v in zip(picks, values))
    m = len(a)
    for mult in (sign_matrix_range(m, 0, 1 << m), mask_matrix_range(m, 0, 1 << m)):
        batch = space.mult_batch(a, mult)
        floats = space.mult_batch_float(a, mult.astype(np.float64))
        for j in range(mult.shape[1]):
            got = QSum.of(batch.value(j))
            assert float(got) == pytest.approx(floats[j], rel=1e-12), (spec, j)
            x = [F(v) * int(c) for (_, v), c in zip(a.entries, mult[:, j])]
            if spec in _WIDE_ORACLES:
                assert got == _WIDE_ORACLES[spec](x), (spec, j)
            elif spec == "lp:2":
                assert got * got == sum(v * v for v in x), (spec, j)


def test_wide_walk_is_chunk_invariant():
    """A 16-entry vector past 2^31 walks four chunks of Python-int batches;
    their folded mean and maximum equal those of one batch of all 2^15
    patterns whose top bit is clear."""
    from rudlab.rademacher import FoldedStats, _CHUNK, sign_stats

    a = Coeffs.from_values([((1 << 33) + 7 * k) * (-1) ** (k // 3) for k in range(16)])
    assert (1 << 15) == 4 * _CHUNK
    for spec in ("summing", "lp:2"):
        space = SpaceFactory.shared(RunConfig()).space(spec)
        stats = sign_stats(space, a)
        assert isinstance(stats, FoldedStats) and stats.scalars is None
        whole = space.mult_batch(a, sign_matrix_range(16, 0, 1 << 15))
        arr = whole.roots if whole.roots is not None else whole.classes[1]
        assert arr.dtype == object
        assert stats.mean() == whole.mean() and stats.max() == whole.max()


@pytest.mark.parametrize("spec", _WIDE_SPECS)
def test_sweep_vectors_take_int64_batches(spec):
    """The sweep's default vectors stay on fixed-width integer batches on
    every integer engine, from int8 or int16 working matrices: the width
    rule moves only wider vectors to Python ints."""
    from rudlab.experiments import _vectors, derive_seed

    cfg = RunConfig()
    space = SpaceFactory.shared(cfg).space(spec)
    for a in _vectors(space, derive_seed(cfg.seed, len(spec), sum(map(ord, spec))), 40):
        m = len(a)
        batch = space.mult_batch(a, sign_matrix_range(m, 0, 1 << (m - 1)))
        arrays = [*(batch.classes or {}).values()]
        if batch.roots is not None:
            arrays.append(batch.roots)
        assert all(arr.dtype.kind == "i" for arr in arrays), (spec, a)
        assert _int_mult_values(a, np.ones((m, 1), dtype=np.int8))[0].dtype in (np.int8, np.int16)


@pytest.mark.parametrize("spec", ["lp:1", "lp:2", "summing", "james:chain", "bmo",
                                  "walsh", "bd", "smax:2"])
def test_sign_means_over_a_denominator_past_int64(spec):
    """The sign mean of [1/(2^64+3), 1/3, 1] is exact on every integer
    engine; a radical entry still has no integer form there."""
    from rudlab.coeffs import NoIntegerForm
    from rudlab.rademacher import sign_stats

    space = SpaceFactory.shared(RunConfig()).space(spec)
    a = Coeffs.from_values([F(1, _D64), F(1, 3), 1])
    mean = sign_stats(space, a).mean()
    assert isinstance(mean, (F, QSum))
    floats = space.mult_batch_float(a, sign_matrix_range(3, 0, 4).astype(np.float64))
    assert float(mean) == pytest.approx(floats.mean(), rel=1e-12)
    with pytest.raises(NoIntegerForm, match="radical"):
        sign_stats(space, Coeffs.from_values([SQRT2, 1, F(1, 3)]))
