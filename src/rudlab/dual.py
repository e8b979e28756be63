"""Biorthogonal systems, dual norms, and the convergence/divergence duality
check.

``biorthogonals`` solves the biorthogonality linear system exactly.
``dual_norm`` evaluates the norm of a coefficient functional against a
concrete engine: closed forms where the dual is classical (lp for p in
{1, 2, inf} and the summing norm), and a small active-set enumeration for
the max-of-summing-and-l2 ball (polyhedron intersected with the Euclidean
ball, so the optimum sits on a face-sphere intersection that linear algebra
finds directly).  The summing norm's dual restricted to the span of the
first partial-sum vectors also has a closed form, which the reverse duality
check uses.

``duality_report`` measures, sample by sample, the convergence-side ratio of
the norming vector produced by the dual optimiser and checks that the
divergence-side ratio of the biorthogonal system never exceeds twice it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf

import numpy as np

from .coeffs import Coeffs, DomainError
from .exactnum import Scalar, sqrt_exact
from .rademacher import sign_stats
from .spaces import LpSpace, SmaxSpace, Space, SummingSpace


@dataclass(frozen=True)
class FiniteBasis:
    """n exactly independent vectors over an n-dimensional coordinate space."""

    vectors: tuple[Coeffs, ...]
    dim: int

    @staticmethod
    def from_vectors(vectors: list[Coeffs], dim: int | None = None) -> "FiniteBasis":
        if dim is None:
            dim = max((max(v.support, default=-1) for v in vectors), default=-1) + 1
        if len(vectors) != dim:
            raise DomainError("square systems only: need as many vectors as dimensions")
        return FiniteBasis(tuple(vectors), dim)

    def matrix(self) -> list[list[Fraction]]:
        return [
            [Fraction(v.value(i)) for i in range(self.dim)] for v in self.vectors
        ]


def _solve_exact(mat: list[list[Fraction]], rhs: list[list[Fraction]]):
    """Gauss-Jordan with exact pivoting; raises on dependent input."""
    n = len(mat)
    a = [row[:] + r[:] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise DomainError("linearly dependent input")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def biorthogonals(basis: FiniteBasis) -> list[Coeffs]:
    """The exact dual system: <x_i*, x_j> = delta_ij."""
    n = basis.dim
    mat = basis.matrix()  # rows are the basis vectors
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    inv_t = _solve_exact(mat, eye)  # solves M X = I; columns of X are duals
    return [
        Coeffs.from_pairs((i, inv_t[i][k]) for i in range(n)) for k in range(n)
    ]


def summing_basis(dim: int) -> FiniteBasis:
    """Partial-sum vectors (1..1, 0..) in the coordinate space."""
    return FiniteBasis.from_vectors(
        [Coeffs.from_pairs((i, 1) for i in range(k + 1)) for k in range(dim)], dim
    )


# ---------------------------------------------------------------------------
# dual norms
# ---------------------------------------------------------------------------


def _summing_image(f: Coeffs, dim: int) -> list[Fraction]:
    """Coordinates of sum f_i (u_i - u_{i+1}) in the ambient l1(dim+1)."""
    img = [Fraction(0)] * (dim + 1)
    for i, v in f.entries:
        img[i] += Fraction(v)
        img[i + 1] -= Fraction(v)
    return img


def dual_norm(f: Coeffs, space: Space, dim: int) -> Scalar:
    """Norm of the functional with coefficients f against the space."""
    value, _ = dual_norm_with_maximizer(f, space, dim)
    return value


def dual_norm_with_maximizer(f: Coeffs, space: Space, dim: int):
    """(norm, norming vector) of a coefficient functional.

    The norming vector x satisfies <f, x> = norm and space-norm(x) = 1
    (exactly on the closed-form branches, numerically for the mixed ball;
    the lp:2 vector is f itself, unnormalised).  Spaces without a branch
    raise DomainError.
    """
    if isinstance(space, LpSpace):
        p = space.p
        if p == 1:
            if not f:
                return 0, Coeffs.zero()
            best_i, best_v = max(
                f.entries, key=lambda iv: abs(Fraction(iv[1]))
            )
            x = Coeffs.from_pairs([(best_i, 1 if Fraction(best_v) >= 0 else -1)])
            return abs(Fraction(best_v)), x
        if p == inf:
            total = Fraction(0)
            pairs = []
            for i, v in f.entries:
                total += abs(Fraction(v))
                pairs.append((i, 1 if Fraction(v) >= 0 else -1))
            return total, Coeffs.from_pairs(pairs)
        if p == 2:
            sq = sum((Fraction(v) ** 2 for _, v in f.entries), Fraction(0))
            if sq == 0:
                return 0, Coeffs.zero()
            # the norming direction is f itself; ratio measurements are
            # scale-invariant, so the unnormalised vector is returned
            return sqrt_exact(sq), f
    if isinstance(space, SummingSpace):
        # ambient identification: the functional acts through its image in
        # l1, whose dual ball is the coordinate cube
        img = _summing_image(f, dim)
        value = sum((abs(v) for v in img), Fraction(0))
        # report the norming vector in basis coefficients: a_i = y_i - y_{i+1}
        y = [1 if v >= 0 else -1 for v in img] + [0]
        coeff = Coeffs.from_pairs(
            (i, y[i] - y[i + 1]) for i in range(dim + 1) if y[i] != y[i + 1]
        )
        return value, coeff
    if isinstance(space, SmaxSpace) and space.p == 2:
        return _smax_dual(f, dim)
    raise DomainError(f"no dual-norm branch for space {space.name}")


_SMAX_CACHE: dict[int, list] = {}


def _smax_active_sets(dim: int) -> list:
    """Precomputed (active rows, pseudoinverse, projector) per active set."""
    if dim not in _SMAX_CACHE:
        T = np.triu(np.ones((dim, dim)))
        out = []
        for r in range(dim + 1):
            for active in itertools.combinations(range(dim), r):
                rows = T[list(active)] if active else np.zeros((0, dim))
                pinv = np.linalg.pinv(rows) if r else np.zeros((dim, 0))
                out.append((rows, pinv))
        _SMAX_CACHE[dim] = out
    return _SMAX_CACHE[dim]


def _smax_dual(f: Coeffs, dim: int) -> tuple[float, Coeffs]:
    """sup f.x over the intersection of the summing polytope with the
    Euclidean ball, by enumerating active tail constraints.

    Each candidate fixes a set of tails at +-1; on the affine slice the
    objective is maximised either at the Euclidean boundary (Lagrange step)
    or deeper inside another face, which a larger active set covers.
    """
    fv = np.zeros(dim)
    for i, v in f.entries:
        if i >= dim:
            raise DomainError("functional exceeds the declared dimension")
        fv[i] = float(v)
    T = np.triu(np.ones((dim, dim)))
    best = -np.inf
    best_x = np.zeros(dim)
    for rows, pinv in _smax_active_sets(dim):
        r = rows.shape[0]
        proj_f = fv - pinv @ (rows @ fv) if r else fv
        npf = float(proj_f @ proj_f)
        for signs in itertools.product((1.0, -1.0), repeat=r):
            x0 = pinv @ np.array(signs) if r else np.zeros(dim)
            nx0 = float(x0 @ x0)
            if nx0 > 1.0 + 1e-12:
                continue
            if npf > 1e-24:
                cand = x0 + np.sqrt(max(0.0, (1.0 - nx0) / npf)) * proj_f
            else:
                cand = x0
            if np.abs(T @ cand).max() > 1.0 + 1e-9:
                continue
            val = float(fv @ cand)
            if val > best:
                best = val
                best_x = cand
    x = Coeffs.from_pairs((i, float(v)) for i, v in enumerate(best_x) if abs(v) > 1e-15)
    return best, x


# ---------------------------------------------------------------------------
# duality report
# ---------------------------------------------------------------------------


@dataclass
class DualityRow:
    coeffs: tuple
    dual_norm: float
    dual_expect: float
    dual_ratio: float
    primal_ruc_of_norming: float


@dataclass
class DualityReport:
    space: str
    dim: int
    rows: list[DualityRow]
    max_primal_ruc: float
    max_dual_ratio: float

    def bound_ok(self, tol: float = 1e-9) -> bool:
        return self.max_dual_ratio <= 2 * self.max_primal_ruc + tol


def _ratio_ruc_float(space: Space, a: Coeffs) -> float:
    st = sign_stats(space, a)
    return float(st.mean()) / float(space.norm(a))


def duality_report(
    space: Space,
    dim: int,
    samples: int,
    seed: int,
) -> DualityReport:
    """Sampled check that the biorthogonal system of the coordinate basis is
    divergence-side bounded by twice the measured convergence-side constant.

    For each dual sample the norming vector returned by the dual optimiser
    enters the primal measurement, which is exactly the vector the duality
    argument evaluates, so the inequality is sound per sample.
    """
    from .rng import counter_u64

    rows: list[DualityRow] = []
    max_c = 0.0
    max_ratio = 0.0
    for t in range(samples):
        vals = []
        for i in range(dim):
            u = counter_u64(seed, t, i)
            vals.append(((u >> 8) % 7) - 3)
        if not any(vals):
            vals[0] = 1
        b = Coeffs.from_pairs((i, v) for i, v in enumerate(vals) if v)
        dn, norming = dual_norm_with_maximizer(b, space, dim)
        total = 0.0
        m = len(b)
        for mask in range(1 << m):
            flipped = Coeffs.from_pairs(
                (i, v if not (mask >> k) & 1 else -v)
                for k, (i, v) in enumerate(b.entries)
            )
            total += float(dual_norm(flipped, space, dim))
        de = total / (1 << m)
        ratio = float(dn) / de if de else 0.0
        cval = _ratio_ruc_float(space, norming) if norming else 0.0
        rows.append(DualityRow(tuple(vals), float(dn), de, ratio, cval))
        max_c = max(max_c, cval)
        max_ratio = max(max_ratio, ratio)
    # also measure the primal constant on raw samples and canonical witnesses
    primal: list[Coeffs] = list(space.paper_witnesses("RUC", dim))
    for t in range(samples):
        vals = [((counter_u64(seed + 1, t, i) >> 8) % 7) - 3 for i in range(dim)]
        a = Coeffs.from_pairs((i, v) for i, v in enumerate(vals) if v)
        if a:
            primal.append(a)
    for a in primal:
        max_c = max(max_c, _ratio_ruc_float(space, a))
    return DualityReport(space.name, dim, rows, max_c, max_ratio)


def _subspace_dual_norm_summing(b: Coeffs, dim: int) -> Fraction:
    """Norm of the coefficient functional b on the span of the first dim
    partial-sum vectors: max b.a subject to |a_k + ... + a_{dim-1}| <= 1.

    With the tails t_k as variables the feasible set is the cube |t_k| <= 1
    and b.a = sum_k t_k (b_k - b_{k-1}) (b_{-1} = 0), so the maximum is
    sum_{k<dim} |b_k - b_{k-1}|.
    """
    vals = [Fraction(b.value(k)) for k in range(dim)]
    return sum((abs(x - y) for x, y in zip(vals, [Fraction(0)] + vals)), Fraction(0))


def reverse_duality_summing(dim: int, samples: int, seed: int):
    """Second duality direction on the summing pair, sample by sample.

    For each primal sample the norming functional is a tail indicator in
    the subspace-dual norm (value = norm, dual norm <= 1), so the argument
    gives primal divergence ratio <= 2 x (that functional's measured
    convergence ratio in the subspace-dual norm); both sides are exact
    rational computations (closed form for the dual, enumeration for the
    averages).  Returns (worst slack, rows).
    """
    from .coeffs import apply_signs, enumerate_sign_patterns
    from .rng import counter_u64

    s = SummingSpace()
    rows = []
    ok = True
    for t in range(samples):
        vals = [((counter_u64(seed, t, i) >> 4) % 7) - 3 for i in range(dim)]
        a = Coeffs.from_pairs((i, v) for i, v in enumerate(vals) if v)
        if not a:
            continue
        nrm = Fraction(s.norm(a))
        # norming tail functional: the argmax tail, oriented positively
        best_m, best_tv = 0, Fraction(0)
        for m in range(dim):
            tv = sum(Fraction(a.value(i)) for i in range(m, dim))
            if abs(tv) > abs(best_tv):
                best_m, best_tv = m, tv
        sgn = 1 if best_tv >= 0 else -1
        b = Coeffs.from_pairs((k, sgn * (k - best_m + 1)) for k in range(best_m, dim))
        bn = _subspace_dual_norm_summing(b, dim)
        total = Fraction(0)
        count = 0
        for e in enumerate_sign_patterns(b.support):
            total += _subspace_dual_norm_summing(apply_signs(b, e), dim)
            count += 1
        cstar = (total / count) / bn
        st = sign_stats(s, a)
        primal_rud = nrm / Fraction(st.mean())
        rows.append((tuple(vals), float(primal_rud), float(cstar)))
        if primal_rud > 2 * cstar + Fraction(1, 10**9):
            ok = False
    return ok, rows
