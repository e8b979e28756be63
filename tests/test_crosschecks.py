"""Cross-route checks: float batches against exact batches, closed forms
against engine output, and engineered radical collisions."""

from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum, SQRT2, sqrt_exact
from rudlab.experiments import SWEEP_SPECS, sample_vector
from rudlab.mr import MrContext, mr_witness
from rudlab.rng import derive_seed, sign_matrix


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_float_batch_tracks_exact_batch(spec):
    fac = SpaceFactory.shared(RunConfig())
    space = fac.space(spec)
    seed = derive_seed(99, sum(map(ord, spec)))
    for i in range(3):
        a = sample_vector(space, seed, i, max_m=5)
        if not a:
            continue
        signs = sign_matrix(seed, len(a), 8)
        exact = space.mult_batch(a, signs)
        if exact is None:
            continue
        floaty = space.mult_batch_float(a, signs.astype(np.float64))
        want = exact.float_values()
        assert np.allclose(floaty, want, rtol=1e-9, atol=1e-12), spec


def test_witness_expectation_closed_form():
    """Depth-1 witness: the four sign patterns give norms 1, 1/sqrt2,
    1/sqrt2, 1, so the average is (2 + sqrt2)/4 exactly."""
    ctx = MrContext()
    w = mr_witness(1, ctx)
    want = (2 + SQRT2) * F(1, 4)
    assert (QSum.of(w.expectation.value) - want).sign() == 0


def test_witness_depth2_vs_bruteforce():
    """Depth-2 sign average against a from-scratch family maximisation."""
    ctx = MrContext()
    w = mr_witness(2, ctx)
    vals = [F(1, 2) * x for x in (SQRT2, SQRT2)] + [F(1, 2)] * 4  # entries
    # from scratch: norm(v) = max over the five family shapes
    import itertools

    def from_scratch(signed):
        best = max(abs(QSum.of(x)) for x in signed)
        # free tails of cardinality c anywhere, undecorated, with |t| <= c
        for c in (2, 4, 8, 16):
            w_ = 1 / sqrt_exact(c)
            for j in range(1, min(c, 6) + 1):
                for t in itertools.combinations(range(6), j):
                    val = abs(sum((QSum.of(signed[i]) for i in t), QSum()))
                    cand = w_ * val
                    if (cand - best).sign() > 0:
                        best = cand
        # prefix {0,1} with a free 4-tail above index 1
        a_fix = (QSum.of(signed[0]) + QSum.of(signed[1])) / sqrt_exact(2)
        for j in range(0, 5):
            for t in itertools.combinations(range(2, 6), j):
                val = a_fix + F(1, 2) * sum((QSum.of(signed[i]) for i in t), QSum())
                if (abs(val) - best).sign() > 0:
                    best = abs(val)
        # full two-level prefix (empty tail region inside this support)
        b_fix = a_fix + F(1, 2) * sum((QSum.of(signed[i]) for i in range(2, 6)), QSum())
        if (abs(b_fix) - best).sign() > 0:
            best = abs(b_fix)
        return best

    total = QSum()
    for mask in range(64):
        signed = [v if not (mask >> k) & 1 else -1 * QSum.of(v)
                  for k, v in enumerate(vals)]
        total = total + from_scratch(signed)
    want = total * F(1, 64)
    assert (QSum.of(w.expectation.value) - want).sign() == 0


def test_engineered_radical_collision():
    """Semi-canonical radicands with hidden square factors must still
    compare correctly through the factorisation fallback."""
    x = QSum.root(2 * 101 * 101) - QSum.root(2, F(101))
    assert x.sign() == 0
    y = QSum.root(3 * 103 * 103) - QSum.root(3, F(103)) + QSum.root(2, F(1, 10**6))
    assert y.sign() > 0
    z = QSum.root(5 * 107 * 107) + QSum.root(5, F(-107)) - F(1, 10**9)
    assert z.sign() < 0


def test_walsh_full_size_sample():
    """One full-size sample: finest index level 10, support size 12."""
    from rudlab.dyadic import WalshL1Space
    from rudlab.rademacher import sign_stats

    w = WalshL1Space()
    sup = [1, 3, 17, 64, 129, 200, 341, 512, 600, 777, 900, 1023]
    a = Coeffs.from_pairs((i, v) for i, v in zip(sup, [1, -2, 1, 3, -1, 2, 1, -1, 2, 1, -3, 1]))
    st = sign_stats(w, a)
    ssq = sum(F(v) ** 2 for _, v in a.entries)
    # max over signs <= l2, and l2 <= sqrt2 * mean, both exact
    assert (sqrt_exact(ssq) - QSum.of(st.max())).sign() >= 0
    mean = QSum.of(st.mean())
    assert (2 * mean * mean - ssq).sign() >= 0


def test_bd_lower_coordinates_vanish():
    """Basis vectors have no coordinates below their own level."""
    from rudlab.bd import BDParams, build_gamma

    g = build_gamma(BDParams(levels=3, cap=30, seed=2))
    for m in range(1, len(g.levels)):
        below = g.gamma_size(m - 1)
        for j in g.level_indices(m):
            assert not g.D[:below, j].any()


def test_bd_nondefault_parameters():
    """lambda = 3, b = 1/3 is tight in the standing constraint; scales are
    no longer powers of four, exercising the gcd reduction."""
    from rudlab.bd import BDParams, build_gamma, chain_replay_value, chain_vector, chain_witness

    g = build_gamma(BDParams(lam=F(3), b=F(1, 3), levels=3, cap=40, seed=4))
    assert g.biorthogonality_defect() == 0
    assert all(x <= 3 for x in g.basis_sup_norms())
    for l in (1, 2):
        levels = tuple(range(l + 1))
        chain = chain_witness(g, levels)
        v = chain_vector(g, levels)
        assert g.coordinate(chain[-1], v) == 1 + F(1, 3) * l


def test_bd_depth_five():
    from rudlab.bd import BDParams, build_gamma, chain_vector, chain_witness

    g = build_gamma(BDParams(levels=5, cap=60, seed=1))
    assert g.biorthogonality_defect() == 0
    chain = chain_witness(g, (0, 1, 2, 3, 4))
    v = chain_vector(g, (0, 1, 2, 3, 4))
    assert g.coordinate(chain[-1], v) == 2  # 1 + 4b at b = 1/4


def test_mr_width_parameter():
    ctx = MrContext(levels=(2, 4), universe=6, width=1)
    assert ctx.zrud.norm(Coeffs.from_pairs([(0, 1)])) == 1
    x1 = ctx.block_vector(1)
    n = QSum.of(ctx.zrud.norm(x1))
    assert (n - 1).sign() >= 0  # wider decorations can only grow the sup


def test_smax_and_zmr_branch_domination():
    fac = SpaceFactory.shared(RunConfig())
    sm = fac.space("smax:2")
    zmr = fac.space("zmr")
    s = fac.space("summing")
    l2 = fac.space("lp:2")
    seed = derive_seed(7, 7)
    for i in range(8):
        a = sample_vector(sm, seed, i, max_m=6)
        if not a:
            continue
        n = QSum.of(sm.norm(a))
        assert (n - QSum.of(s.norm(a))).sign() >= 0
        assert (n - QSum.of(l2.norm(a))).sign() >= 0
    for i in range(8):
        a = sample_vector(zmr, seed + 1, i, max_m=5)
        if not a:
            continue
        n = QSum.of(zmr.norm(a))
        sup = max(abs(QSum.of(v)) for _, v in a.entries)
        assert (n - sup).sign() >= 0


def test_config_constraint_errors_exit_2(capsys):
    from rudlab.cli import main

    code = main(["norm", "--space", "bd", "--coeffs", "1", "--set", "bd.b=1/3"])
    err = capsys.readouterr().err
    assert code == 2 and "lambda" in err
