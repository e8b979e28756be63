"""Biorthogonal systems, dual norms, duality reports, exact simplex."""

from fractions import Fraction as F
from math import inf

import numpy as np
import pytest

from rudlab.coeffs import Coeffs, DomainError, pair
from rudlab.dual import (
    FiniteBasis,
    biorthogonals,
    dual_norm,
    dual_norm_lp_polytope,
    dual_norm_with_maximizer,
    duality_report,
    summing_basis,
    _smax_dual,
)
from rudlab.simplex import UnboundedError, simplex_max
from rudlab.spaces import LpSpace, SmaxSpace, SummingDualSpace, SummingSpace


def test_biorthogonals_identity():
    basis = FiniteBasis.from_vectors(
        [Coeffs.from_pairs([(i, 1)]) for i in range(3)], 3
    )
    duals = biorthogonals(basis)
    for k, d in enumerate(duals):
        assert d.entries == ((k, F(1)),)


def test_biorthogonals_summing():
    duals = biorthogonals(summing_basis(4))
    for k in range(3):
        assert duals[k].entries == ((k, F(1)), (k + 1, F(-1)))
    assert duals[3].entries == ((3, F(1)),)


def test_biorthogonals_2x2():
    basis = FiniteBasis.from_vectors(
        [Coeffs.from_values([1, 1]), Coeffs.from_values([0, 1])], 2
    )
    duals = biorthogonals(basis)
    for i in range(2):
        for j in range(2):
            assert pair(duals[i], basis.vectors[j]) == (1 if i == j else 0)


def test_biorthogonals_dependent_error():
    basis = FiniteBasis.from_vectors(
        [Coeffs.from_values([1, 1]), Coeffs.from_values([2, 2])], 2
    )
    with pytest.raises(DomainError, match="dependent"):
        biorthogonals(basis)


def test_dual_norm_examples():
    assert dual_norm(Coeffs.from_pairs([(0, 1)]), LpSpace(2), 1) == 1
    assert dual_norm(Coeffs.from_values([1, 1]), LpSpace(1), 2) == 1
    assert dual_norm(Coeffs.from_values([1, 1]), LpSpace(inf), 2) == 2
    assert dual_norm(Coeffs.from_values([1, -1]), SummingSpace(), 2) == 4


def test_dual_norm_summing_matches_formula():
    sd = SummingDualSpace()
    rng = np.random.default_rng(1)
    for _ in range(15):
        m = int(rng.integers(1, 7))
        vals = rng.integers(-3, 4, size=m)
        f = Coeffs.from_pairs([(i, int(v)) for i, v in enumerate(vals) if v])
        if not f:
            continue
        val, x = dual_norm_with_maximizer(f, SummingSpace(), m)
        assert val == sd.norm(f)
        # the returned norming vector attains the value at norm one
        assert SummingSpace().norm(x) == 1
        assert pair(f, x) == val


def test_simplex_against_analytic():
    # l1 image against the coordinate cube equals the l1 norm
    coords = [Coeffs.from_pairs([(i, 1)]) for i in range(4)]
    f = Coeffs.from_pairs([(0, 1), (1, -2), (3, F(3, 2))])
    val, x = dual_norm_lp_polytope(f, coords, 4)
    assert val == F(9, 2)
    assert pair(f, x) == val
    # simplex detects escape from a non-norming family
    with pytest.raises(UnboundedError, match="escapes"):
        dual_norm_lp_polytope(Coeffs.from_values([1, 1]), [coords[0]], 2)


def test_simplex_basic():
    val, x = simplex_max(
        [F(1), F(1)],
        [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
        [F(1), F(1), F(3, 2)],
    )
    assert val == F(3, 2)


def test_smax_dual_properties():
    sm = SmaxSpace(2)
    rng = np.random.default_rng(3)
    for _ in range(8):
        f = Coeffs.from_pairs(
            [(i, float(x)) for i, x in enumerate(rng.normal(size=5))]
        )
        v, xs = _smax_dual(f, 5)
        assert sm.norm(xs) <= 1 + 1e-9
        attained = sum(float(f.value(i)) * float(xs.value(i)) for i in range(5))
        assert attained == pytest.approx(v, abs=1e-9)
        # never exceeds either branch dual (smaller ball, smaller support fn)
        l2_dual = float(np.sqrt(sum(float(x) ** 2 for _, x in f.entries)))
        assert v <= l2_dual + 1e-9


def test_pairing_vs_dualnorm():
    rng = np.random.default_rng(4)
    s = SummingSpace()
    for _ in range(10):
        m = 5
        f = Coeffs.from_pairs(
            [(i, int(v)) for i, v in enumerate(rng.integers(-3, 4, size=m)) if v]
        )
        x = Coeffs.from_pairs(
            [(i, int(v)) for i, v in enumerate(rng.integers(-3, 4, size=m)) if v]
        )
        if not f or not x:
            continue
        dn = dual_norm(f, s, m)
        assert abs(float(pair(f, x))) <= float(dn) * float(s.norm(x)) + 1e-12


def test_duality_reports():
    for spec, dim in ((LpSpace(1), 6), (LpSpace(2), 6), (LpSpace(inf), 6)):
        rep = duality_report(spec, dim, 6, seed=3)
        assert rep.bound_ok(1e-9)
        assert rep.max_dual_ratio == pytest.approx(1.0, abs=1e-9)
    rep = duality_report(SummingSpace(), 6, 6, seed=3)
    assert rep.bound_ok(1e-9)
    # the biorthogonal system of the summing basis is divergence-bounded by 2
    assert rep.max_dual_ratio <= 2 + 1e-9


def test_reverse_duality_summing():
    from rudlab.dual import reverse_duality_summing

    ok, rows = reverse_duality_summing(5, 5, seed=13)
    assert ok and rows
    for _, primal, cstar in rows:
        assert primal <= 2 * cstar + 1e-9


def test_subspace_dual_vs_ambient():
    """The subspace-restricted dual norm never exceeds the ambient one and
    differs where the ambient image uses room outside the span."""
    from rudlab.dual import _subspace_dual_norm_summing
    from rudlab.spaces import SummingDualSpace

    sd = SummingDualSpace()
    f = Coeffs.from_values([1, -1])
    assert _subspace_dual_norm_summing(f, 2) == 3  # ambient formula gives 4
    assert sd.norm(f) == 4
    g = Coeffs.from_values([1, 1])
    assert _subspace_dual_norm_summing(g, 2) <= sd.norm(g)


def test_lp_polytope_is_exact_above_twelve_dimensions():
    """Every dimension goes through the exact simplex: against the
    coordinate functionals in dimension 13 the value is the exact l1 norm."""
    rng = np.random.default_rng(9)
    dim = 13
    coords = [Coeffs.from_pairs([(i, 1)]) for i in range(dim)]
    f = Coeffs.from_pairs(
        [(i, F(int(v), 2)) for i, v in enumerate(rng.integers(-3, 4, size=dim)) if v]
    )
    val, x = dual_norm_lp_polytope(f, coords, dim)
    assert isinstance(val, F)
    assert val == sum(abs(F(v)) for _, v in f.entries)
    assert pair(f, x) == val
