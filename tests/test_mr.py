"""Coding-function spaces: coder audit, tuples, norms, witnesses, blocks."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rudlab import mr
from rudlab.coeffs import Coeffs, DomainError, mask_matrix_full, pair, sign_matrix_full
from rudlab.exactnum import QSum, sqrt_exact
from rudlab.mr import (
    AdmissibleTuple,
    LevelSequence,
    MrContext,
    SigmaCoder,
    k_m,
    mr_witness,
    zrud_block_sandwich,
)
from rudlab.rademacher import sign_stats, subset_stats
from rudlab.rng import sign_matrix
from rudlab.spaces import NormingSetSpace

from oracles import coding_reference, family, norm_slow, single_block, zrud_block_norm


@pytest.fixture(scope="module")
def ctx():
    return MrContext()


def test_k_m():
    assert k_m(2) == 2
    assert k_m(4) == 6
    assert k_m(6) == 20
    with pytest.raises(DomainError):
        k_m(3)


def equi_sign_vectors(c, width=0):
    """Sign vectors on c slots with |sum| <= width * sqrt(c) (width 0: balanced)."""
    return [sv for sv in itertools.product((-1, 1), repeat=c) if sum(sv) ** 2 <= width * width * c]


def test_equi_sign_vectors():
    vs = equi_sign_vectors(4)
    assert len(vs) == 6 and all(sum(v) == 0 for v in vs)
    # width w admits |sum| <= w*sqrt(c): w=1 on c=4 allows sums +-2
    assert len(equi_sign_vectors(4, width=1)) == 6 + 4 + 4
    assert len(equi_sign_vectors(2, width=1)) == 2
    assert len(equi_sign_vectors(2, width=2)) == 4


def test_restricted_sign_patterns_are_restrictions():
    """The k-slot patterns are the sorted k-slot restrictions of the sign
    vectors on ``card`` slots, for every k, card <= 10 and width 0-2."""
    for card in range(1, 11):
        for width in range(3):
            full = equi_sign_vectors(card, width)
            for k in range(card + 1):
                want = tuple(sorted({sv[:k] for sv in full}))
                assert mr._restricted_sign_patterns(k, card, width) == want, (k, card, width)


def test_level_sequence():
    lev = LevelSequence((2, 4, 8))
    assert float(lev.delta_hat) == pytest.approx(1 + 2 * 2**0.5)
    assert lev.rho_used(lev.prefix) == F(2, 4) * F(6, 16) * F(70, 256)
    assert lev.virtual(3) == 16 and lev.virtual(4) == 32
    with pytest.raises(DomainError):
        LevelSequence((2, 3))
    with pytest.raises(DomainError):
        LevelSequence((4, 2))


def assignments(cod):
    """(subset, level index, value) triples of every subset the coder's
    table assigns."""
    for mask in np.flatnonzero(cod._table >= 0).tolist():
        k = int(cod._table[mask])
        s = frozenset(i for i in range(cod.universe) if mask >> i & 1)
        yield s, k, cod.levels.virtual(k)


def test_coder_assignments(ctx):
    cod = ctx.coder

    def sigma(s):
        return cod.levels.virtual(cod.sigma_index(frozenset(s)))

    assert sigma({0, 1}) == 4
    assert sigma(range(6)) == 8
    assert sigma(range(14)) == 16
    assert cod.sigma_index(frozenset({0, 1, 2})) is None  # odd cardinality: never queried
    # injectivity and growth over the whole memo
    seen = set()
    for s, k, value in assignments(cod):
        assert k not in seen
        seen.add(k)
        assert value > len(s)
    # determinism: a rebuild reproduces every assignment, the oracle's
    want = _union_find_coder(ctx.levels, ctx.universe)
    again = SigmaCoder(ctx.levels, ctx.universe)
    assert {s: k for s, k, _ in assignments(again)} == want
    assert {s: k for s, k, _ in assignments(cod)} == want


def _union_find_coder(levels, universe):
    """The coder's assignment as a dict subset -> level index: every domain
    subset in the order (-cardinality, max, lex) takes the smallest unused
    level index above its cardinality's threshold, found by a union-find
    "next unused index".  The oracle for the coder's table."""
    threshold = {}
    for card in range(2, universe + 1, 2):
        k = 1
        while levels.virtual(k) <= card:
            k += 1
        threshold[card] = k
    skip = {}

    def take(k):
        path = []
        while k in skip:
            path.append(k)
            k = skip[k]
        for p in path:
            skip[p] = k
        skip[k] = k + 1
        return k

    subsets = []
    for card in range(2, universe + 1, 2):
        subsets.extend(itertools.combinations(range(universe), card))
    subsets.sort(key=lambda s: (-len(s), max(s), s))
    return {frozenset(s): take(threshold[len(s)]) for s in subsets}


@pytest.mark.parametrize("levels", [(2, 4), (2, 4, 8), (2, 4, 8, 16)])
def test_coder_table_equals_the_union_find_assignment(levels):
    """At every universe from 2 to 14 the table assigns each subset the
    oracle's level index, lookups read it, and subsets off the domain (odd,
    empty, or with an element outside the universe) read None."""
    lev = LevelSequence(levels)
    for universe in range(2, 15):
        want = _union_find_coder(lev, universe)
        cod = SigmaCoder(lev, universe)
        assert {s: k for s, k, _ in assignments(cod)} == want, universe
        assert all(cod.sigma_index(s) == k for s, k in want.items()), universe
        for off in (frozenset(), frozenset({0}), frozenset(range(3)),
                    frozenset({0, universe}), frozenset({-1, 0})):
            assert cod.sigma_index(off) is None, (universe, off)


def test_context_memory_is_small():
    """The coder table keeps the context small: it holds under 0.5 MB and
    peaks under 2 MB traced (6.4 MB kept, 6.9 MB peak with one Python
    object per coded subset)."""
    tracemalloc.start()
    try:
        ctx = MrContext()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.families
    assert kept < 2**19 and peak < 2 * 2**20, (kept, peak)


@pytest.mark.parametrize("kwargs, match", [
    ({"universe": -1}, r"coded universe -1 is outside \[0, 24\]"),
    ({"universe": 25}, r"coded universe 25 is outside \[0, 24\]"),
    ({"universe": 40}, r"coded universe 40 is outside \[0, 24\]"),
    ({"max_n": 0}, "maximal tuple length 0 is below 1"),
    ({"max_n": -2}, "maximal tuple length -2 is below 1"),
])
def test_context_refuses_universe_and_depth_out_of_range(kwargs, match):
    """A negative universe once raised a ValueError from the coder's shift,
    universe 40 asked for a 4 TiB table, and max_n 0 left the witnesses
    empty; each is refused before the coder is built."""
    with pytest.raises(DomainError, match=match):
        MrContext(**kwargs)


def test_context_builds_at_the_smallest_universe_and_depth():
    for kwargs in ({"universe": 0}, {"universe": 1}, {"max_n": 1}):
        ctx = MrContext(**kwargs)
        assert ctx.families and ctx.zmr.norm(Coeffs.from_pairs([(0, 3)])) == 3


def test_tuple_validation():
    with pytest.raises(DomainError):
        AdmissibleTuple((frozenset({0, 3}), frozenset({2, 5})))


def test_zmr_examples(ctx):
    assert ctx.zmr.norm(Coeffs.from_pairs([(0, 1)])) == 1
    x1 = ctx.block_vector(1)
    assert QSum.of(ctx.zmr.norm(x1)) == 1
    for n in (2, 3):
        xn = ctx.block_vector(n)
        assert (QSum.of(ctx.zmr.norm(xn)) - n).sign() >= 0


def test_zmr_float_batch_matches_exact_norms(ctx):
    support = tuple(range(8))
    signs = sign_matrix(3, len(support), 40)
    base = Coeffs.from_pairs((i, 1) for i in support)
    batch = ctx.zmr.mult_batch(base, signs)
    fast = ctx.zmr.mult_batch_float(base, signs.astype(np.float64))
    for j in range(40):
        assert fast[j] == pytest.approx(float(batch.value(j)), abs=1e-12)
    # radical-valued entries through the float path
    x = ctx.block_vector(2)
    vals = ctx.zmr.mult_batch_float(x, np.ones((len(x), 1)))
    assert vals[0] == pytest.approx(float(QSum.of(ctx.zmr.norm(x))), abs=1e-12)


def test_zmr_float_batch_matches_exact_batch(ctx):
    """The engine's float batch (the Monte-Carlo path) agrees with the float
    values of its exact batch on random sign columns."""
    rng = np.random.default_rng(11)
    support = tuple(sorted(rng.choice(ctx.universe, size=8, replace=False).tolist()))
    a = Coeffs.from_pairs(
        (i, F(int(rng.integers(-4, 5)) or 1, int(rng.integers(1, 4)))) for i in support
    )
    signs = sign_matrix(7, len(a), 64)
    exact = ctx.zmr.mult_batch(a, signs)
    fast = ctx.zmr.mult_batch_float(a, signs.astype(np.float64))
    for j in range(64):
        assert fast[j] == pytest.approx(float(QSum.of(exact.value(j))), rel=1e-12)


def _zmr_fast_norms_per_family(ctx, support, values):
    """The base-space norms of the columns of ``values`` on ``support`` in
    floats, family by family: each family's best free tail read off its
    tail entries sorted afresh.  An oracle for ``ctx.zmr.mult_batch_float``
    that shares no code with the engine's family rows."""
    sup = sorted(set(support))
    pos = {i: k for k, i in enumerate(sup)}
    n = values.shape[1]
    best = np.abs(values).max(axis=0)
    for fam in ctx.families:
        fixed = np.zeros(n)
        for s in fam.fixed:
            rows = [pos[i] for i in s if i in pos]
            if rows:
                fixed += values[rows].sum(axis=0) / len(s) ** 0.5
        rows = [pos[i] for i in sup if i > fam.tail_min]
        w = 1.0 / fam.tail_card**0.5
        if rows:
            sub = np.sort(values[rows], axis=0)
            gains = np.maximum(sub[::-1], 0.0)[: fam.tail_card]
            losses = np.minimum(sub, 0.0)[: fam.tail_card]
            tail_hi = gains.cumsum(axis=0).max(axis=0)
            tail_lo = losses.cumsum(axis=0).min(axis=0)
        else:
            tail_hi = tail_lo = 0.0
        best = np.maximum(best, np.maximum(fixed + w * tail_hi, -(fixed + w * tail_lo)))
    return best


def test_zmr_float_batch_matches_per_family_loop(ctx):
    """The engine's float batch is the per-family loop's floats up to
    rounding, on random supports (some past the coded universe) with
    normal entries and sign columns with zeros."""
    rng = np.random.default_rng(12)
    for trial in range(60):
        m = int(rng.integers(1, 15))
        support = tuple(sorted(rng.choice(16, size=m, replace=False).tolist()))
        a = Coeffs.from_pairs(zip(support, rng.normal(size=m).tolist()))
        mult = sign_matrix(trial, m, 32) * rng.integers(0, 2, size=(m, 32))
        got = ctx.zmr.mult_batch_float(a, mult.astype(np.float64))
        want = _zmr_fast_norms_per_family(ctx, support, a.values_float()[:, None] * mult)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=str(trial))


def test_zmr_float_batch_at_the_monte_carlo_shape(ctx):
    """The depth-3 witness (14 entries) over one Monte-Carlo chunk of 4,096
    sign columns: the per-family loop's floats up to rounding."""
    x = ctx.block_vector(3)
    assert len(x) == 14
    signs = sign_matrix(1, len(x), 4096).astype(np.float64)
    got = ctx.zmr.mult_batch_float(x, signs)
    want = _zmr_fast_norms_per_family(ctx, x.support, x.values_float()[:, None] * signs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


_CTX_BY_WIDTH = {0: MrContext(), 1: MrContext(width=1)}
_ENTRY = st.builds(
    lambda q, r: q if r == 1 else q * sqrt_exact(r),
    st.fractions(-3, 3, max_denominator=3).filter(bool),
    st.sampled_from([1, 1, 2, 3]),
)


@settings(max_examples=15, deadline=None)
@given(
    width=st.sampled_from([0, 1]),
    name=st.sampled_from(["zmr", "zrud"]),
    # a whole level set ({0, 1} or {2, ..., 5}) is seen with its full
    # cardinality, other indices only partly
    full=st.sampled_from([(), (0, 1), (2, 3, 4, 5)]),
    extra=st.sets(st.integers(0, 11), max_size=1),
    values=st.lists(_ENTRY, min_size=5, max_size=5),
    big=st.lists(st.integers(-3, 3), min_size=15, max_size=15),
)
@example(width=0, name="zrud", full=(2, 3, 4, 5), extra={7},
         values=[F(1), F(-2), F(3, 2), F(-1, 2), 2 * sqrt_exact(2)], big=[2] * 15)
@example(width=1, name="zrud", full=(0, 1), extra={3},
         values=[F(1), F(-3), F(2), F(1), F(1)], big=[-3, 1, 2] * 5)
@example(width=1, name="zrud", full=(2, 3, 4, 5), extra={7},
         values=[F(1), F(-1), F(1), F(-1), F(1)], big=[2, -1, 0] * 5)
def test_coding_batches_match_norm_slow(width, name, full, extra, values, big):
    """Every sign and mask column of a zmr or zrud batch, and a batch with
    multipliers up to 3 in magnitude, equals the supremum of the enumerated
    family over the column's vector, for rational and radical entries,
    widths 0 and 1, and fully and partly visible levels: the family of the
    column's own support (smaller than the batch's when the column has a
    zero, as every mask column but the full one).  Each family's products
    with the entries are formed once per support and summed per column."""
    ctx = _CTX_BY_WIDTH[width]
    space = getattr(ctx, name)
    support = sorted(set(full) | extra) or [7]
    a = Coeffs.from_pairs(zip(support, values))
    m = len(a)
    big = np.array(big[:3 * m], dtype=np.int64).reshape(m, 3)
    products = {}  # per column support: its family's products with the entries
    slow = {}  # per column, up to a global sign
    for mult in (sign_matrix_full(m), mask_matrix_full(m), big):
        batch = space.mult_batch(a, mult)
        floats = space.mult_batch_float(a, mult.astype(np.float64))
        for j in range(mult.shape[1]):
            c = mult[:, j].tolist()
            lead = next((x for x in c if x), 1)
            key = tuple(x if lead > 0 else -x for x in c)
            if key not in slow:
                keep = tuple(k for k, x in enumerate(key) if x)
                if keep not in products:
                    sub = Coeffs(tuple(a.entries[k] for k in keep))
                    oracle = coding_reference(ctx, name)
                    products[keep] = _family_products(family(oracle, sub.support), sub) \
                        if keep else ({}, 1)
                slow[key] = _family_sup(*products[keep], [key[k] for k in keep])
            want = slow[key]
            assert QSum.of(batch.value(j)) == want, (c, batch.value(j), want)
            assert floats[j] == pytest.approx(float(want), rel=1e-12, abs=1e-12)
    assert QSum.of(space.norm(a)) == slow[(1,) * m]


def _family_products(family, a):
    """Each functional's products with the entries of ``a``: per square-free
    core, an (F, m) matrix of integer numerators over one common
    denominator, with that denominator.  The functionals share a few
    weights, so each product is formed once per weight and entry."""
    cells = {}
    terms = {}  # (weight, entry slot) -> the product's terms
    for f, phi in enumerate(family):
        w = dict(phi.entries)
        for k, (i, v) in enumerate(a.entries):
            if i in w:
                wk = (tuple(w[i].terms.items()) if isinstance(w[i], QSum) else w[i], k)
                if wk not in terms:
                    terms[wk] = QSum.of(w[i] * v).terms.items()
                for core, q in terms[wk]:
                    cells.setdefault(core, []).append((f, k, q))
    den = math.lcm(1, *(q.denominator for fkq in cells.values() for _, _, q in fkq))
    mats = {}
    for core, fkq in cells.items():
        mats[core] = np.zeros((len(family), len(a)), dtype=object)
        for f, k, q in fkq:
            mats[core][f, k] = q.numerator * (den // q.denominator)
    return mats, den


def _family_sup(mats, den, x):
    """max over the functionals of |<phi, diag(x) a>| from their products:
    the float pairings shortlist the functionals within 1e-9 of the
    largest, and those are compared exactly."""
    if not mats:
        return QSum()
    sums = {c: mat.dot(np.array(x, dtype=object)) for c, mat in mats.items()}
    approx = np.abs(sum(s.astype(np.float64) * c**0.5 for c, s in sums.items()))
    top = approx.max()
    return max(abs(sum((QSum.root(c, F(int(s[f]), den)) for c, s in sums.items()), QSum()))
               for f in np.flatnonzero(approx >= top - 1e-9 * (1 + top)).tolist())


def test_zrud_mask_column_matches_masked_norm_at_width_1():
    """A mask column that zeroes an entry of a fully seen level set is the
    norm of the masked vector: a partly seen level allows the plus counts of
    the restrictions of its width-rule sign vectors, not the half-caps."""
    ctx = _CTX_BY_WIDTH[1]
    a = Coeffs.from_pairs([(0, 3), (2, -1), (3, -2), (4, 1), (5, -1)])
    mask = np.array([[1], [1], [1], [0], [1]], dtype=np.int8)
    masked = Coeffs.from_pairs([(0, 3), (2, -1), (3, -2), (5, -1)])
    want = QSum.of(norm_slow(coding_reference(ctx, "zrud"), masked))
    assert want == QSum.of(2) + QSum.of(F(3, 2)) * sqrt_exact(2)
    assert QSum.of(ctx.zrud.mult_batch(a, mask).value(0)) == want
    assert QSum.of(ctx.zrud.norm(masked)) == want


def test_zrud_on_the_block_support_matches_block_norm(ctx):
    """On the 14-index block support, where the enumerated family is
    refused, the zrud batch equals the closed-form block norm of
    sum a_j x_j for 100 seeded block coefficient vectors."""
    rng = np.random.default_rng(14)
    blocks = ctx.canonical_blocks(3)
    for _ in range(100):
        coeffs = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 3))) for _ in blocks]
        if not any(coeffs):
            coeffs[0] = F(1)
        x = Coeffs.from_pairs(
            (i, mr._weight(len(s)) * a) for a, s in zip(coeffs, blocks) for i in s)
        got = QSum.of(ctx.zrud.norm(x))
        assert got == QSum.of(zrud_block_norm(ctx, coeffs)), coeffs


def test_coding_engines_enumerate_no_family(monkeypatch):
    """The zmr, zruc and zrud walks of the sweep's vectors and of a
    6-entry vector in 4-column chunks, and the witness at depth 3, never
    list a tuple-functional family nor build its class matrices."""
    from rudlab.config import RunConfig, SpaceFactory
    from rudlab.experiments import _vectors, derive_seed

    calls = {"class_mats": 0, "zmr_functionals": 0, "zrud_functionals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(NormingSetSpace, "class_mats",
                        counted("class_mats", NormingSetSpace.class_mats))
    monkeypatch.setattr(mr, "zmr_functionals", counted("zmr_functionals", mr.zmr_functionals))
    monkeypatch.setattr(mr, "zrud_functionals", counted("zrud_functionals", mr.zrud_functionals))
    cfg = RunConfig()
    fac = SpaceFactory(cfg)
    for spec in ("zmr", "zruc", "zrud"):
        space = fac.space(spec)
        for a in _vectors(space, derive_seed(cfg.seed, len(spec), sum(map(ord, spec))), 200):
            sign_stats(space, a, cfg.cap).mean()
            subset_stats(space, a, cfg.cap).mean()
    mr_witness(3, fac.mr_context, mc_samples=4096)
    # walks of several chunks, which the norming-set engine would split
    import rudlab.rademacher as rad

    monkeypatch.setattr(rad, "_CHUNK", 4)
    for spec in ("zmr", "zruc", "zrud"):
        space = fac.space(spec)
        a = Coeffs.from_pairs(zip(space.sweep_indices, [1, -2, F(1, 2), 3, -1, 2]))
        assert len(a) == 6  # 8 sign chunks, 16 mask chunks
        sign_stats(space, a).mean()
        subset_stats(space, a).mean()
    assert calls == {"class_mats": 0, "zmr_functionals": 0, "zrud_functionals": 0}


def test_equi_decorations_kill_constants(ctx):
    """Balanced decorations pair to zero against constant-on-level vectors."""
    sup = tuple(range(6))
    x = Coeffs.from_pairs((i, 1) for i in range(2, 6))  # constant on a 4-set
    for phi in family(coding_reference(ctx, "zrud"), sup):
        # decorated members restricted to exactly that 4-set
        w = {i: v for i, v in phi.entries}
        if set(w) == set(range(2, 6)) and all(
            isinstance(v, QSum) and set(v.terms) == {1} for v in w.values()
        ):
            vals = sorted(float(v) for v in w.values())
            if vals[0] < 0 < vals[-1] and abs(sum(vals)) < 1e-12:
                assert abs(float(pair(phi, x))) < 1e-12


def test_zrud_examples(ctx):
    assert ctx.zrud.norm(Coeffs.from_pairs([(0, 1)])) == 1
    x1 = ctx.block_vector(1)
    assert QSum.of(ctx.zrud.norm(x1)) == 1
    # ones over n blocks: norm at least n through the prefix functional
    got = zrud_block_norm(ctx, [1, 1, 1])
    assert (QSum.of(got) - 3).sign() >= 0


def test_zrud_block_norm_vs_enumeration():
    """Slot-allocation block norm equals the explicit decorated family
    enumeration on a small universe."""
    small = MrContext(levels=(2, 4), universe=6, max_n=2)
    for coeffs in ([1], [1, -1], [F(1, 2), 1], [2, -3], [1, 1]):
        if len(coeffs) > 2:
            continue
        got = QSum.of(zrud_block_norm(small, coeffs))
        pairs = []
        for a, s in zip(coeffs, small.canonical_blocks(len(coeffs))):
            w = (QSum({1: F(1)}) / sqrt_exact(len(s))) * F(a)
            pairs.extend((i, w) for i in s)
        x = Coeffs.from_pairs(pairs)
        want = QSum.of(small.zrud.norm(x))
        assert (got - want).sign() == 0, (coeffs, float(got), float(want))


def test_zrud_family_cap_refuses_quickly(ctx):
    """On the block vector's 14-index support a zrud family would have
    hundreds of thousands of members; counted before any is built, it is
    refused within a second."""
    start = time.perf_counter()
    with pytest.raises(DomainError, match="past the cap"):
        family(coding_reference(ctx, "zrud"), ctx.block_vector(3).support)
    assert time.perf_counter() - start < 1.0


def test_zrud_block_sandwich(ctx):
    (sup, norm, const), = zrud_block_sandwich(ctx, [[1, -1]])
    assert sup == 1
    assert (QSum.of(norm) - 1).sign() >= 0
    assert (QSum.of(const) * 1 - QSum.of(norm)).sign() >= 0
    assert (QSum.of(const) - (3 + 4 * ctx.levels.delta_hat)).sign() == 0


def test_zrud_block_sandwich_takes_the_engine_norm_at_width_1():
    """At width 1 the block sandwich reads the zrud engine, not the width-0
    closed form: on [1/2, -1, 1] the engine gives 1/2 + 5/8*sqrt(2), about
    1.3839, where the closed form gives 1/2 + sqrt(2)/2, about 1.2071."""
    wide = _CTX_BY_WIDTH[1]
    coeffs = [F(1, 2), -1, 1]
    x = Coeffs.from_pairs((i, mr._weight(len(s)) * F(a))
                          for a, s in zip(coeffs, wide.canonical_blocks(3)) for i in s)
    (_, norm, _), = zrud_block_sandwich(wide, [coeffs])
    assert QSum.of(norm) == QSum.of(wide.zrud.norm(x))
    assert QSum.of(norm) == F(1, 2) + F(5, 8) * sqrt_exact(2)
    assert float(zrud_block_norm(wide, coeffs)) == pytest.approx(1.2071, abs=1e-4)


def test_zruc_norm(ctx):
    # single coordinate: base norm 1, sign average 1, total 2
    assert ctx.zruc.norm(Coeffs.from_pairs([(0, 1)])) == 2
    assert ctx.zruc.norm(Coeffs.zero()) == 0


def test_witness_reports(ctx):
    w1 = mr_witness(1, ctx)
    assert QSum.of(w1.norm) == 1
    assert w1.expectation.method == "exact"
    assert (QSum.of(w1.analytic_bound) - QSum.of(w1.expectation.value)).sign() >= 0
    w2 = mr_witness(2, ctx)
    assert (QSum.of(w2.norm) - 2).sign() >= 0
    r1 = float(QSum.of(w1.norm)) / float(w1.expectation.value)
    r2 = float(QSum.of(w2.norm)) / float(w2.expectation.value)
    assert r2 > r1
    w3 = mr_witness(3, ctx, mc_samples=50_000, seed=5)
    assert w3.expectation.method == "monte_carlo"
    assert w3.expectation.bracket[0] < w3.expectation.bracket[1]


def test_witness_depth_guard(ctx):
    with pytest.raises(DomainError):
        ctx.canonical_blocks(4)


def test_zrud_ratio_bound(ctx):
    """Divergence ratio on the first two levels never exceeds 1/rho_used."""
    inv_rho = 1 / ctx.levels.rho_used(ctx.levels.prefix[:2])
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        sup = sorted(int(i) for i in rng.choice(6, size=m, replace=False))
        vals = rng.integers(-3, 4, size=m)
        a = Coeffs.from_pairs([(i, int(v)) for i, v in zip(sup, vals) if v])
        if not a:
            continue
        e = QSum.of(sign_stats(ctx.zrud, a).mean())
        n = QSum.of(ctx.zrud.norm(a))
        assert (F(inv_rho) * e - n).sign() >= 0


def test_zrud_block_builder(ctx):
    x1 = single_block(ctx, 1)
    assert x1.support == (0, 1)
    x3 = single_block(ctx, 3)
    assert x3.support == tuple(range(6, 14))
    assert QSum.of(ctx.zrud.norm(x1)) == 1
