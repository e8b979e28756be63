"""Norm engines against the worked examples and brute-force oracles."""

import itertools
import zlib
from fractions import Fraction as F
from math import inf

import numpy as np
import pytest

from rudlab.coeffs import Coeffs
from rudlab.config import SpaceFactory, RunConfig
from rudlab.exactnum import QSum, SQRT2, sqrt_exact
from rudlab.spaces import (
    BmoRademacherSpace,
    JamesSpace,
    JamesXSpace,
    LpSpace,
    NormingSetSpace,
    RenormSpace,
    SmaxSpace,
    SummingDualSpace,
    SummingSpace,
)

l1, l2, li = LpSpace(1), LpSpace(2), LpSpace(inf)
s, sd = SummingSpace(), SummingDualSpace()


def q(x):
    return QSum.of(x)


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
    j = JamesSpace("chain")
    assert j.norm(Coeffs.from_values([1])) == 1
    assert (q(j.norm(Coeffs.from_values([1, -1]))) - sqrt_exact(5)).sign() == 0
    assert j.norm(Coeffs.from_values([2, 2, 2, 2])) == 2
    jx1 = JamesXSpace(1)
    assert jx1.norm(Coeffs.from_values([1, -1])) == 3
    assert jx1.norm(Coeffs.from_values([-6])) == 6
    jx2 = JamesXSpace(2)
    a = Coeffs.from_values([1, -1])
    assert (q(jx2.norm(a)) - q(JamesSpace("chain").norm(a))).sign() == 0


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
    space = JamesSpace(convention)
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
    only in sign share one evaluation, in the exact and the float batch."""
    space = SpaceFactory(RunConfig()).space("renorm:summing:1")
    calls = []
    inner = space._inner_expectation
    monkeypatch.setattr(space, "_inner_expectation",
                        lambda a: calls.append(a) or inner(a))
    a = Coeffs.from_values([1, F(-1, 2), 2])
    mult = np.array([[1, -1, 1, -1], [-1, 1, 1, 1], [0, 0, 1, -1]], dtype=np.int8)
    batch = space.mult_batch(a, mult, 1)
    assert len(calls) == 2
    floats = space.mult_batch_float(a, mult.astype(np.float64))
    assert len(calls) == 4
    for j in range(4):
        masked = Coeffs.from_pairs(
            (i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, j])
        )
        assert batch.value(j) == space.norm(masked)
        assert floats[j] == pytest.approx(float(space.norm(masked)), rel=1e-12)


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
        batch = space.mult_batch(a, mult, 1)
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


def test_renorm_monte_carlo_fallback():
    """Past the enumeration cap the sign average switches to Monte-Carlo
    and the norm carries its bracket."""
    space = RenormSpace(SummingSpace(), F(1), enum_cap=4, mc_samples=2000, mc_seed=5)
    small = Coeffs.from_values([1, -1, 2])
    v, (lo, hi) = space.norm_with_bracket(small)
    assert lo == v == hi  # exact below the cap
    big = Coeffs.from_values([1, -1, 2, 1, -2, 1])
    v, (lo, hi) = space.norm_with_bracket(big)
    assert isinstance(v, float) and lo < hi
    assert lo <= v <= hi
    assert space.norm(big) == v
