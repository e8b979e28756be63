"""Biorthogonal systems, dual norms, duality reports, the closed-form
subspace dual norm."""

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from math import inf

import numpy as np
import pytest

from rudlab.coeffs import Coeffs, DomainError, apply_signs, enumerate_sign_patterns, pair
from rudlab.dual import (
    duality_report,
    _dual_pair,
    _smax_dual,
    _smax_slices,
    _solve_exact,
    _subspace_dual_norm_summing,
)
from rudlab.exactnum import QSum, sqrt_exact
from rudlab.spaces import LpSpace, SmaxSpace, SummingDualSpace, SummingSpace


@dataclass(frozen=True)
class FiniteBasis:
    """n exactly independent vectors over an n-dimensional coordinate space."""

    vectors: tuple[Coeffs, ...]
    dim: int

    @staticmethod
    def from_vectors(vectors: list[Coeffs], dim: int) -> "FiniteBasis":
        if len(vectors) != dim:
            raise DomainError("square systems only: need as many vectors as dimensions")
        return FiniteBasis(tuple(vectors), dim)

    def matrix(self) -> list[list[F]]:
        return [[F(v.value(i)) for i in range(self.dim)] for v in self.vectors]


def biorthogonals(basis: FiniteBasis) -> list[Coeffs]:
    """The exact dual system: <x_i*, x_j> = delta_ij."""
    n = basis.dim
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    inv_t = _solve_exact(basis.matrix(), eye)  # solves M X = I; columns of X are duals
    return [Coeffs.from_pairs((i, inv_t[i][k]) for i in range(n)) for k in range(n)]


def summing_basis(dim: int) -> FiniteBasis:
    """Partial-sum vectors (1..1, 0..) in the coordinate space."""
    return FiniteBasis.from_vectors(
        [Coeffs.from_pairs((i, 1) for i in range(k + 1)) for k in range(dim)], dim
    )


def dual_norm(f, space, dim):
    """Norm of the functional with coefficients f against the space on
    R^dim: its dual engine's norm of f."""
    return _dual_pair(space, dim)[0].norm(f)


def dual_norm_with_maximizer(f, space, dim):
    """(norm, norming vector) of a coefficient functional: <f, x> = norm *
    space-norm(x), exactly for lp:1, lp:2, linf and summing (x has norm 1,
    except lp:2's, which is f itself)."""
    engine, norming, _ = _dual_pair(space, dim)
    return engine.norm(f), norming(f, dim)


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


def test_dual_norm_without_branch_refuses():
    with pytest.raises(DomainError, match="no dual-norm branch"):
        dual_norm(Coeffs.from_values([1, 1]), LpSpace(3), 2)
    with pytest.raises(DomainError, match="no dual-norm branch"):
        dual_norm(Coeffs.from_values([1, 1]), SummingDualSpace(), 2)


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
    """The engine pairs decide their rows exactly: on lp the signs never
    change a dual norm, so every dual ratio is exactly 1."""
    for spec, dim in ((LpSpace(1), 6), (LpSpace(2), 6), (LpSpace(inf), 6)):
        rep = duality_report(spec, dim, 6, seed=3)
        assert rep.exact and rep.bound_ok
        assert rep.max_dual_ratio == 1.0
    rep = duality_report(SummingSpace(), 6, 6, seed=3)
    assert rep.exact and rep.bound_ok
    # the biorthogonal system of the summing basis is divergence-bounded by 2
    assert rep.max_dual_ratio <= 2
    rep = duality_report(SmaxSpace(2), 4, 3, seed=3)
    assert not rep.exact and rep.bound_ok


def test_reverse_duality_summing():
    from rudlab.dual import reverse_duality_summing

    ok, rows = reverse_duality_summing(5, 5, seed=13)
    assert ok and rows
    for vals, primal, cstar in rows:
        assert primal <= 2 * cstar
        # the norming functional's convergence ratio, enumerated over every
        # sign pattern of the closed-form subspace dual
        tails = [sum(vals[m:]) for m in range(5)]
        m = max(range(5), key=lambda k: (abs(tails[k]), -k))
        sgn = 1 if tails[m] >= 0 else -1
        b = Coeffs.from_pairs((k, sgn * (k - m + 1)) for k in range(m, 5))
        norms = [_subspace_dual_norm_summing(apply_signs(b, e), 5)
                 for e in enumerate_sign_patterns(b.support)]
        assert cstar == float(sum(norms, F(0)) / len(norms) / _subspace_dual_norm_summing(b, 5))


def _closed_form_dual(f, space, dim):
    """The classical dual norms, written out: max |f_i| for lp:1, sum |f_i|
    for linf, sqrt(sum f_i^2) for lp:2, and for summing the l1 norm of
    f's image sum f_i (u_i - u_{i+1}) in l1(dim + 1)."""
    vals = [F(f.value(i)) for i in range(dim)]
    if space.name == "lp:1":
        return max(map(abs, vals))
    if space.name == "linf":
        return sum(map(abs, vals))
    if space.name == "lp:2":
        return sqrt_exact(sum(v * v for v in vals))
    return sum(abs(x - y) for x, y in zip(vals + [0], [0] + vals))


_EXACT_PAIRS = (LpSpace(1), LpSpace(inf), LpSpace(2), SummingSpace())


def _seeded_functionals(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 9))
        vals = [F(int(n), int(d)) for n, d in
                zip(rng.integers(-5, 6, size=dim), rng.integers(1, 5, size=dim))]
        yield Coeffs.from_values(vals), dim


def test_dual_engines_match_the_closed_forms():
    """Each exact primal engine's dual engine gives the closed-form dual
    norm exactly, in dims 1-8."""
    for f, dim in _seeded_functionals(21, 200):
        for space in _EXACT_PAIRS:
            want = _closed_form_dual(f, space, dim)
            got = dual_norm(f, space, dim)
            assert got == want, (space.name, f, got, want)


def test_norming_vectors_attain_the_dual_norm_exactly():
    """<f, x> = ||f||* ||x|| exactly for the norming vector x of every
    exact engine pair (x has norm 1, except on lp:2, where x is f)."""
    for f, dim in _seeded_functionals(22, 120):
        for space in _EXACT_PAIRS:
            value, x = dual_norm_with_maximizer(f, space, dim)
            assert QSum.of(pair(f, x)) == QSum.of(value) * space.norm(x), (space.name, f)
            if f and space.name != "lp:2":
                assert space.norm(x) == 1


def test_smax_pseudo_inverses_are_exact():
    """R pinv(R) = I exactly, and pinv(R) = R^T (R R^T)^-1 has the shape
    dim x r, for every active set of tail rows in dims 1-6."""
    for dim in range(1, 7):
        sets = _smax_slices(dim)[0]
        assert len(sets) == 2 ** dim
        for rows, pinv in sets:
            assert len(pinv) == dim and all(len(col) == len(rows) for col in pinv)
            for i, row in enumerate(rows):
                assert [sum(row[k] * pinv[k][j] for k in range(dim))
                        for j in range(len(rows))] == [int(i == j) for j in range(len(rows))]


def test_subspace_dual_vs_ambient():
    """The subspace-restricted dual norm never exceeds the ambient one and
    differs where the ambient image uses room outside the span."""
    sd = SummingDualSpace()
    f = Coeffs.from_values([1, -1])
    assert _subspace_dual_norm_summing(f, 2) == 3  # ambient formula gives 4
    assert sd.norm(f) == 4
    g = Coeffs.from_values([1, 1])
    assert _subspace_dual_norm_summing(g, 2) <= sd.norm(g)


def test_subspace_dual_closed_form_vs_vertices():
    """The closed form equals the maximum of b.x over the vertices of the
    polytope |x_k + ... + x_{dim-1}| <= 1: x_i = t_i - t_{i+1} for t in
    {-1, 1}^dim and t_dim = 0."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        dim = int(rng.integers(1, 9))
        vals = [F(int(n), int(d)) for n, d in
                zip(rng.integers(-9, 10, size=dim), rng.integers(1, 8, size=dim))]
        best = None
        for t in itertools.product((-1, 1), repeat=dim):
            t = t + (0,)
            val = sum(v * (t[i] - t[i + 1]) for i, v in enumerate(vals))
            best = val if best is None else max(best, val)
        got = _subspace_dual_norm_summing(Coeffs.from_values(vals), dim)
        assert isinstance(got, F)
        assert got == best
