"""Dual norms and the convergence/divergence duality check.

Dual norms come from engine pairs: ``_DUALS`` gives each primal engine its
dual engine (``lp:1`` and ``linf`` are dual to each other, ``lp:2`` to
itself, ``summing`` to ``summing_dual``, ``smax:2`` to the float engine
:class:`SmaxDualSpace`), its norming vectors and its convergence-side
witness (all ones, or alternating signs).  ``duality_report`` takes
each dual sign average in one ``sign_stats`` walk of the dual engine and
decides its rows exactly by cross-multiplication, except the float
``smax:2`` row.  The summing norm's dual restricted to the span of the
first partial-sum vectors has a closed form, which the reverse duality
check uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import inf
from typing import Callable

import numpy as np

from .coeffs import Coeffs, DomainError
from .exactnum import Scalar, is_exact
from .rademacher import sign_stats
from .rng import counter_u64
from .spaces import LpSpace, Space, SummingDualSpace, SummingSpace


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


# ---------------------------------------------------------------------------
# dual norms: engine pairs
# ---------------------------------------------------------------------------


def _norming_lp1(f: Coeffs, dim: int) -> Coeffs:
    """The signed unit coordinate vector at the first largest |f_i|."""
    i, v = max(f.entries, key=lambda iv: abs(iv[1]), default=(0, 0))
    return Coeffs.from_pairs([(i, (v > 0) - (v < 0))])


def _norming_linf(f: Coeffs, dim: int) -> Coeffs:
    """The signs of f."""
    return Coeffs.from_pairs((i, 1 if v >= 0 else -1) for i, v in f.entries)


def _norming_summing(f: Coeffs, dim: int) -> Coeffs:
    """The functional acts through its image f_j - f_{j-1} in l1(dim+1)
    (f_{-1} = f_dim = 0), whose dual ball is the coordinate cube: the
    norming vector is the image's sign vector y, in basis coefficients
    a_i = y_i - y_{i+1}."""
    v = [f.value(i) for i in range(dim)]
    y = [1 if x >= w else -1 for x, w in zip(v + [0], [0] + v)] + [0]
    return Coeffs.from_pairs(
        (i, y[i] - y[i + 1]) for i in range(dim + 1) if y[i] != y[i + 1]
    )


@cache
def _smax_slices(dim: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The candidates of the ``smax:2`` dual on R^dim.

    Each set of active rows R of the tail-sum matrix, by size and then
    lexicographically, comes with its exact pseudo-inverse
    pinv(R) = R^T (R R^T)^-1 and the projector I - pinv(R) R onto its
    slice's directions; its candidates hold the tails at each sign vector s
    (``itertools.product`` order) and start at x0 = pinv(R) s.  Returns
    ([(R, pinv(R))], the projectors rounded once to floats, each
    candidate's set, the x0 as float columns).
    """
    sets, proj, which, base = [], [], [], []
    for r in range(dim + 1):
        for act in itertools.combinations(range(dim), r):
            rows = [[Fraction(int(j >= k)) for j in range(dim)] for k in act]
            gram = [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
            pinv = [list(c) for c in zip(*_solve_exact(gram, rows))] if r else [[]] * dim
            proj.append([[int(i == j) - sum(p * row[j] for p, row in zip(pinv[i], rows))
                          for j in range(dim)] for i in range(dim)])
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=r))).reshape(1 << r, r)
            pf = np.array(pinv, dtype=np.float64).reshape(dim, r)
            base.append((pf[:, :, None] * signs.T).sum(axis=1))
            which += [len(sets)] * (1 << r)
            sets.append((rows, pinv))
    return sets, np.array(proj, dtype=np.float64), np.array(which), np.concatenate(base, axis=1)


def _smax_best(fv: np.ndarray) -> tuple[float, np.ndarray]:
    """(sup f.x, a maximiser x) over the ``smax:2`` unit ball of R^dim, the
    summing polytope intersected with the Euclidean ball, for the float
    functional ``fv`` of length dim.

    Each candidate fixes a set of tails at +-1; on the affine slice the
    objective is maximised either at the Euclidean boundary (a Lagrange
    step along f's projection onto the slice) or deeper inside another
    face, which a larger active set covers.  The products are elementwise
    sums: a BLAS product's last bits change with the BLAS kernel."""
    _, proj, which, base = _smax_slices(len(fv))
    pf = (proj * fv).sum(axis=2)[which].T
    npf = (pf * pf).sum(axis=0)
    base_sq = (base * base).sum(axis=0)
    step = np.zeros_like(npf)
    np.divide(np.maximum(0.0, 1.0 - base_sq), npf, out=step, where=npf > 1e-24)
    cand = base + np.sqrt(step) * pf
    tails = np.cumsum(cand[::-1], axis=0)[::-1]
    ok = (base_sq <= 1.0 + 1e-12) & (np.abs(tails).max(axis=0) <= 1.0 + 1e-9)
    vals = np.where(ok, (fv[:, None] * cand).sum(axis=0), -np.inf)
    j = int(np.argmax(vals))
    return float(vals[j]), cand[:, j]


class SmaxDualSpace(Space):
    """The norm dual to ``smax:2`` on R^dim: a float engine, one
    :func:`_smax_best` search per column."""

    def __init__(self, dim: int):
        self.dim = dim
        self.name = f"smax_dual:{dim}"

    def dense(self, a: Coeffs, mult: np.ndarray) -> np.ndarray:
        """The columns of ``diag(a) @ mult`` as (dim, N) float vectors."""
        if a and a.support[-1] >= self.dim:
            raise DomainError("functional exceeds the declared dimension")
        out = np.zeros((self.dim, mult.shape[1]))
        out[list(a.support)] = a.values_float()[:, None] * mult
        return out

    def mult_batch_float(self, a, mult):
        return np.array([_smax_best(col)[0] for col in self.dense(a, mult).T])


def _smax_dual(f: Coeffs, dim: int) -> tuple[float, Coeffs]:
    """(``smax:2`` dual norm, norming vector) of the functional f on R^dim."""
    value, x = _smax_best(SmaxDualSpace(dim).dense(f, np.ones((len(f), 1)))[:, 0])
    return value, Coeffs.from_pairs((i, float(v)) for i, v in enumerate(x) if abs(v) > 1e-15)


#: primal engine name -> (its dual engine on R^dim, the norming vector x of a
#: functional f on R^dim: <f, x> = ||f||* ||x||, the ratio r of the primal's
#: convergence-side witness (r^0, ..., r^(dim-1)): all ones or alternating)
_DUALS: dict[str, tuple[Callable[[int], Space], Callable[[Coeffs, int], Coeffs], int]] = {
    "lp:1": (lambda dim: LpSpace(inf), _norming_lp1, 1),
    "linf": (lambda dim: LpSpace(1), _norming_linf, 1),
    "lp:2": (lambda dim: LpSpace(2), lambda f, dim: f, 1),
    "summing": (lambda dim: SummingDualSpace(), _norming_summing, -1),
    "smax:2": (SmaxDualSpace, lambda f, dim: _smax_dual(f, dim)[1], -1),
}


def _dual_pair(space: Space, dim: int
               ) -> tuple[Space, Callable[[Coeffs, int], Coeffs], Coeffs]:
    """The dual engine of ``space`` on R^dim, its norming-vector builder and
    the primal's convergence-side witness on R^dim."""
    if space.name not in _DUALS:
        raise DomainError(f"no dual-norm branch for space {space.name}")
    make, norming, r = _DUALS[space.name]
    return make(dim), norming, Coeffs.from_values([r ** i for i in range(dim)])


# ---------------------------------------------------------------------------
# duality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    """The largest dual ratio and convergence constant, as floats; whether
    every compared value was exact; whether the first is at most twice the
    second."""

    space: str
    dim: int
    max_dual_ratio: float
    max_primal_ruc: float
    exact: bool
    bound_ok: bool


def _sample(seed: int, t: int, dim: int) -> Coeffs:
    """Vector t of a seeded stream with entries in -3..3."""
    return Coeffs.from_values(((counter_u64(seed, t, i) >> 8) % 7) - 3 for i in range(dim))


def _largest(ratios: list[tuple[Scalar, Scalar]], exact: bool) -> tuple[Scalar, Scalar]:
    """The first of the largest (num, den) ratios, den > 0, compared by
    cross-multiplying, so that no quotient divides by a multi-term QSum;
    in floats unless ``exact``."""
    if not exact:
        ratios = [(float(num), float(den)) for num, den in ratios]
    best = ratios[0]
    for num, den in ratios[1:]:
        if num * best[1] > best[0] * den:
            best = (num, den)
    return best


def duality_report(
    space: Space,
    dim: int,
    samples: int,
    seed: int,
) -> DualityReport:
    """Sampled check that the biorthogonal system of the coordinate basis is
    divergence-side bounded by twice the measured convergence-side constant.

    Each dual sample b has the ratio ||b||* / E ||sum eps_i b_i||*, both
    from the dual engine (the mean is one :func:`sign_stats` walk).  Its
    norming vector enters the primal measurement, which is exactly the
    vector the duality argument evaluates, so the inequality is sound per
    sample; the constant E ||sum eps_i a_i|| / ||a|| is also measured on
    the engine's convergence-side witness (``_DUALS``) and on raw samples.
    A row with a float value compares its ratios in floats, any other row
    exactly.
    """
    dual, norming, witness = _dual_pair(space, dim)
    dual_ratios, primal = [], [witness]
    for t in range(samples):
        b = _sample(seed, t, dim) or Coeffs.from_values([1])
        dual_ratios.append((dual.norm(b), sign_stats(dual, b).mean()))
        primal += [norming(b, dim), _sample(seed + 1, t, dim)]
    primal_ratios = [(sign_stats(space, a).mean(), space.norm(a)) for a in primal if a]
    exact = all(map(is_exact, itertools.chain(*dual_ratios, *primal_ratios)))
    (rn, rd), (cn, cd) = _largest(dual_ratios, exact), _largest(primal_ratios, exact)
    return DualityReport(space.name, dim, float(rn) / float(rd), float(cn) / float(cd),
                         exact, rn * cd <= 2 * cn * rd)


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
    rational computations (closed form for the dual, exact sign walks for
    the averages).  Returns (whether every sample holds, rows).
    """
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
        # the subspace dual is the summing_dual norm less its last edge term
        # |b_{dim-1}|, which no sign flip changes
        edge = abs(b.value(dim - 1))
        mean = sign_stats(SummingDualSpace(), b).mean() - edge
        cstar = mean / _subspace_dual_norm_summing(b, dim)
        st = sign_stats(s, a)
        primal_rud = nrm / Fraction(st.mean())
        rows.append((tuple(vals), float(primal_rud), float(cstar)))
        if primal_rud > 2 * cstar:
            ok = False
    return ok, rows
