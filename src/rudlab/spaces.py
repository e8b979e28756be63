"""Norm engines.

Every engine maps a :class:`~rudlab.coeffs.Coeffs` to a scalar and, for the
sign-average machinery, evaluates whole batches of entrywise multiplier
columns at once (``mult_batch`` exact over integers, ``mult_batch_float``
for Monte-Carlo).  The exact batch path and the scalar ``norm`` must agree;
the test suite cross-checks them against independent brute-force oracles.

Engines here: lp / linf, the summing norm and its dual, the chain-difference
supremum norms (two conventions, plus the lp-accumulating generalisation),
the square-function-plus-partial-sup norm, the summing/lp maximum, generic
norming-set suprema, and the sign-average renorming.  Dyadic grid norms live
in :mod:`rudlab.dyadic`; the coding-function and tree constructions register
their engines from their own modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import Callable, Sequence

import numpy as np

from .batches import _TIE_RTOL, ExactBatch, first_extreme
from .coeffs import Coeffs, DomainError, NoIntegerForm, NormingFunctional, pair
from .exactnum import QSum, Scalar, split_square


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _int_mult_values(a: Coeffs, mult: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Exact (m, N) int64 value matrix and its common denominator."""
    ints, d = a.int_values()
    v = ints[:, None].astype(np.int64) * mult.astype(np.int64)
    return v, d * den


def _float_values(a: Coeffs, mult: np.ndarray) -> np.ndarray:
    return a.values_float()[:, None] * mult


class Space:
    """Base class for norm engines."""

    name: str = "?"
    #: indices random sweeps may draw support from (None: any small index)
    sweep_indices: Sequence[int] | None = None
    #: largest support size the exact sweeps should use for this engine
    sweep_max_m: int = 12

    # -- single-vector norm -------------------------------------------------

    def norm(self, a: Coeffs) -> Scalar:
        if not a:
            return 0
        one = np.ones((len(a), 1), dtype=np.int8)
        if a.is_exact():
            batch = self.mult_batch(a, one, 1)
            if batch is not None:
                return batch.value(0)
            raise NotImplementedError(f"{self.name}: no exact norm path")
        return float(self.mult_batch_float(a, one.astype(np.float64))[0])

    # -- batched norms ------------------------------------------------------

    def mult_batch(self, a: Coeffs, mult: np.ndarray, den: int = 1) -> ExactBatch | None:
        """Exact norms of the columns of ``diag(a) @ mult / den``.

        ``mult`` rows follow the sorted support of ``a``.  Returns None when
        the engine has no exact batch path.
        """
        return None

    def mult_batch_float(self, a: Coeffs, mult: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no float batch path")

    # -- hooks ---------------------------------------------------------------

    def paper_witnesses(self, kind: str, dim: int) -> list[Coeffs]:
        """Engine-specific extremal candidates for constant searches."""
        return []

    def __repr__(self) -> str:
        return f"<space {self.name}>"


# ---------------------------------------------------------------------------
# lp / linf
# ---------------------------------------------------------------------------


class LpSpace(Space):
    def __init__(self, p):
        self.p = p
        self.name = "linf" if p == inf else f"lp:{p}"

    def norm(self, a: Coeffs) -> Scalar:
        if not a:
            return 0
        if a.is_exact() and self.p not in (1, 2, inf):
            vals = a.values_float()
            return float((np.abs(vals) ** self.p).sum() ** (1 / self.p))
        return super().norm(a)

    def mult_batch(self, a, mult, den=1):
        if self.p not in (1, 2, inf):
            return None
        v, scale = _int_mult_values(a, mult, den)
        if self.p == 1:
            return ExactBatch.from_rational(np.abs(v).sum(axis=0), scale)
        if self.p == inf:
            return ExactBatch.from_rational(np.abs(v).max(axis=0), scale)
        return ExactBatch.from_roots((v.astype(np.int64) ** 2).sum(axis=0), scale)

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        if self.p == inf:
            return np.abs(v).max(axis=0)
        return (np.abs(v) ** self.p).sum(axis=0) ** (1.0 / self.p)

    def paper_witnesses(self, kind, dim):
        return [Coeffs.from_values([1] * dim)]


# ---------------------------------------------------------------------------
# summing norm and its dual
# ---------------------------------------------------------------------------


def _tail_maxabs(v: np.ndarray) -> np.ndarray:
    tails = np.cumsum(v[::-1], axis=0)[::-1]
    return np.abs(tails).max(axis=0)


class SummingSpace(Space):
    """max over support points of the absolute tail sum from that point."""

    name = "summing"

    def mult_batch(self, a, mult, den=1):
        v, scale = _int_mult_values(a, mult, den)
        return ExactBatch.from_rational(_tail_maxabs(v), scale)

    def mult_batch_float(self, a, mult):
        return _tail_maxabs(_float_values(a, mult))

    def paper_witnesses(self, kind, dim):
        ones = Coeffs.from_values([1] * dim)
        alt = Coeffs.from_values([(-1) ** i for i in range(dim)])
        if kind == "RUC":
            return [alt]
        if kind == "RUD":
            return [ones]
        return [ones, alt]


def _dual_edge_terms(support: tuple[int, ...]) -> list[tuple[int, int]]:
    """Index pairs (k, j) meaning |v_k - v_j| terms; j = -1 encodes zero."""
    terms: list[tuple[int, int]] = []
    for k, idx in enumerate(support):
        if k == 0 or support[k - 1] != idx - 1:
            terms.append((k, -1))          # left edge against an implicit zero
        else:
            terms.append((k, k - 1))       # difference with the adjacent entry
    for k, idx in enumerate(support):
        if k == len(support) - 1 or support[k + 1] != idx + 1:
            terms.append((k, -1))          # right edge against an implicit zero
    return terms


class SummingDualSpace(Space):
    """l1 norm of the image under the difference substitution.

    On a contiguous support this is |a_1| + sum |a_i - a_{i+1}| + |a_n|; the
    same substitution extends it to supports with gaps, which keeps the 0/1
    coefficient masks inside the engine's domain.
    """

    name = "summing_dual"

    def _reduce(self, v: np.ndarray, support) -> np.ndarray:
        total = np.zeros(v.shape[1], dtype=v.dtype)
        for k, j in _dual_edge_terms(support):
            total = total + (np.abs(v[k]) if j < 0 else np.abs(v[k] - v[j]))
        return total

    def mult_batch(self, a, mult, den=1):
        v, scale = _int_mult_values(a, mult, den)
        return ExactBatch.from_rational(self._reduce(v, a.support), scale)

    def mult_batch_float(self, a, mult):
        return self._reduce(_float_values(a, mult), a.support)

    def paper_witnesses(self, kind, dim):
        return [Coeffs.from_values([(-1) ** i for i in range(dim)])]


# ---------------------------------------------------------------------------
# chain-difference supremum norms
# ---------------------------------------------------------------------------


def _chain_nodes(support: tuple[int, ...]) -> list[int]:
    """Node slots for the difference DP: -1 is a zero-valued node.

    A zero node is available before the first support index (when there is
    room below it), in every gap of length >= 2, and always after the last
    index (coefficients vanish eventually).
    """
    nodes: list[int] = []
    if support and support[0] >= 1:
        nodes.append(-1)
    for k, idx in enumerate(support):
        if k > 0 and idx - support[k - 1] >= 2:
            nodes.append(-1)
        nodes.append(k)
    nodes.append(-1)
    return nodes


def _node_matrix(v: np.ndarray, nodes: list[int]) -> np.ndarray:
    out = np.zeros((len(nodes), v.shape[1]), dtype=v.dtype)
    for r, slot in enumerate(nodes):
        if slot >= 0:
            out[r] = v[slot]
    return out


def _chain_dp(nv: np.ndarray, power: int) -> np.ndarray:
    """Best accumulated |difference|^power along increasing node chains."""
    k = nv.shape[0]
    zero = np.zeros(nv.shape[1], dtype=nv.dtype)
    best = [zero]
    for j in range(1, k):
        d = np.abs(nv[:j] - nv[j][None, :])
        gain = d**2 if power == 2 else d if power == 1 else d.astype(np.float64) ** power
        cand = (np.stack(best) + gain).max(axis=0)
        best.append(np.maximum(cand, 0))
    return best[-1]


def _pairs_dp(nv: np.ndarray, power: int) -> np.ndarray:
    """Best accumulated |difference|^power over disjoint increasing pairs."""
    k = nv.shape[0]
    zero = np.zeros(nv.shape[1], dtype=nv.dtype)
    best = [zero]  # best[j+1] = optimum using nodes 0..j
    for j in range(k):
        cur = best[j] if j else zero
        for i in range(j):
            d = np.abs(nv[i] - nv[j])
            gain = d**2 if power == 2 else d if power == 1 else d.astype(np.float64) ** power
            cur = np.maximum(cur, best[i] + gain)
        best.append(cur)
    return best[-1]


class JamesSpace(Space):
    """Supremum of square-summed consecutive differences along index chains."""

    def __init__(self, convention: str = "chain"):
        if convention not in ("chain", "pairs"):
            raise DomainError(f"unknown convention {convention!r}")
        self.convention = convention
        self.name = f"james:{convention}"

    def _dp(self, v, support):
        nv = _node_matrix(v, _chain_nodes(support))
        return (_chain_dp if self.convention == "chain" else _pairs_dp)(nv, 2)

    def mult_batch(self, a, mult, den=1):
        v, scale = _int_mult_values(a, mult, den)
        return ExactBatch.from_roots(self._dp(v, a.support), scale)

    def mult_batch_float(self, a, mult):
        return np.sqrt(self._dp(_float_values(a, mult), a.support))

    def paper_witnesses(self, kind, dim):
        return [
            Coeffs.from_values([1] * dim),
            Coeffs.from_values([(-1) ** i for i in range(dim)]),
        ]


class JamesXSpace(Space):
    """Chain-difference norm accumulating in lp instead of l2."""

    def __init__(self, p):
        self.p = p
        self.name = f"james_x:{p}"

    def _dp(self, v, support):
        nv = _node_matrix(v, _chain_nodes(support))
        return _chain_dp(nv, 2 if self.p == 2 else 1 if self.p == 1 else self.p)

    def mult_batch(self, a, mult, den=1):
        if self.p not in (1, 2):
            return None
        v, scale = _int_mult_values(a, mult, den)
        dp = self._dp(v, a.support)
        if self.p == 1:
            return ExactBatch.from_rational(dp, scale)
        return ExactBatch.from_roots(dp, scale)

    def mult_batch_float(self, a, mult):
        return self._dp(_float_values(a, mult), a.support) ** (1.0 / self.p)


# ---------------------------------------------------------------------------
# square function + partial-sum supremum
# ---------------------------------------------------------------------------


def _prefix_maxabs(v: np.ndarray) -> np.ndarray:
    return np.abs(np.cumsum(v, axis=0)).max(axis=0)


class BmoRademacherSpace(Space):
    """(sum a_i^2)^(1/2) + sup_n |sum_{k<=n} a_k|."""

    name = "bmo_rademacher"

    def mult_batch(self, a, mult, den=1):
        v, scale = _int_mult_values(a, mult, den)
        pref = _prefix_maxabs(v)
        rad = (v.astype(np.int64) ** 2).sum(axis=0)
        return ExactBatch(scale=scale, classes={1: pref}, roots=rad, roots_scale=scale)

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        return _prefix_maxabs(v) + np.sqrt((v**2).sum(axis=0))


class SmaxSpace(Space):
    """max of the summing norm and the lp norm of the coefficients."""

    def __init__(self, p):
        if not (1 < float(p) <= 2):
            raise DomainError("smax requires 1 < p <= 2")
        self.p = p
        self.name = f"smax:{p}"

    def mult_batch(self, a, mult, den=1):
        if self.p != 2:
            return None
        v, scale = _int_mult_values(a, mult, den)
        s = _tail_maxabs(v)
        rad = (v.astype(np.int64) ** 2).sum(axis=0)
        # per column the max is the summing branch iff s^2 >= rad
        use_s = s.astype(np.int64) ** 2 >= rad
        return ExactBatch(
            scale=scale,
            classes={1: np.where(use_s, s, 0)},
            roots=np.where(use_s, 0, rad),
            roots_scale=scale,
        )

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        return np.maximum(_tail_maxabs(v), (np.abs(v) ** self.p).sum(axis=0) ** (1 / self.p))

    def paper_witnesses(self, kind, dim):
        return SummingSpace().paper_witnesses(kind, dim)


# ---------------------------------------------------------------------------
# norming-set suprema
# ---------------------------------------------------------------------------


def functional_class_matrices(
    functionals: Sequence[NormingFunctional], support: Sequence[int]
) -> tuple[dict[int, np.ndarray], int]:
    """Weights of the functionals on ``support`` as per-radicand-class
    integer matrices with one common denominator."""
    pos = {idx: k for k, idx in enumerate(support)}
    rows: list[dict[int, dict[int, Fraction]]] = []
    scale = 1
    for phi in functionals:
        row: dict[int, dict[int, Fraction]] = {}
        for i, w in phi.entries:
            k = pos.get(i)
            if k is None:
                continue
            terms = w.terms if isinstance(w, QSum) else {1: Fraction(w)}
            for core, q in terms.items():
                row.setdefault(core, {})[k] = q
                scale = _lcm(scale, q.denominator)
        rows.append(row)
    cores = sorted({c for row in rows for c in row})
    mats = {
        c: np.zeros((len(functionals), len(support)), dtype=np.int64) for c in cores
    }
    for f, row in enumerate(rows):
        for core, entries in row.items():
            for k, q in entries.items():
                mats[core][f, k] = int(q * scale)
    return mats, scale


def _normingset_reduce_exact(pairs: dict[int, np.ndarray], scale: int) -> ExactBatch:
    """max over functionals of |sum_c P_c sqrt(c)| / scale as an exact batch,
    from the (functional, column) pairings ``P_c`` of each radicand class."""
    approx = sum(p.astype(np.float64) * (c**0.5) for c, p in pairs.items())
    gap = np.abs(approx)
    best = gap.argmax(axis=0)
    n = gap.shape[1]
    cols = np.arange(n)
    fv = gap[best, cols]
    # Certify the float argmax on near-tied columns.  A candidate whose
    # per-class entries equal the winner's, or are all negated, has exactly
    # the winner's absolute value and cannot beat it; only columns holding a
    # candidate with another key go to first_extreme.
    np.subtract(fv[None, :], gap, out=gap)
    fi, ji = np.nonzero(gap <= _TIE_RTOL * (1.0 + fv)[None, :])
    win = best[ji]
    same = np.ones(len(fi), dtype=bool)
    flip = np.ones(len(fi), dtype=bool)
    for p in pairs.values():
        cv, bv = p[fi, ji], p[win, ji]
        same &= cv == bv
        flip &= cv == -bv
    for j in np.unique(ji[~(same | flip)]).tolist():
        # key: the pairings up to sign, normalised by the first non-zero
        # entry (a float sign is unusable: a pairing can round to 0.0)
        key = np.stack([p[:, j] for p in pairs.values()])
        lead = key[(key != 0).argmax(axis=0), np.arange(key.shape[1])]
        key = key * np.where(lead < 0, -1, 1)
        best[j] = first_extreme(
            np.abs(approx[:, j]), key, lambda f: abs(_qval(pairs, f, j)), True
        )[1]
    # orient so the stored class entries add up to a non-negative value
    signs = np.sign(approx[best, cols])
    signs[signs == 0] = 1
    neg = np.nonzero(np.abs(approx[best, cols]) < 1e-12)[0]
    for j in neg:  # exact orientation for numerically tiny pairings
        s = _qval(pairs, int(best[j]), int(j)).sign()
        signs[j] = s if s else 1
    classes = {c: (p[best, cols] * signs.astype(np.int64)) for c, p in pairs.items()}
    return ExactBatch.from_classes(classes, scale)


def _qval(pairs: dict[int, np.ndarray], f: int, j: int) -> QSum:
    total = QSum()
    for c, p in pairs.items():
        total = total + QSum.root(c, Fraction(int(p[f, j])))
    return total


class NormingSetSpace(Space):
    """sup over a norming family of |<phi, a>|, optionally joined with
    the coordinate supremum.

    The provider returns, for a finite support, the restriction of the
    family to that support; the owning construction guarantees that this
    restriction is complete.
    """

    def __init__(
        self,
        name: str,
        provider: Callable[[tuple[int, ...]], list[NormingFunctional]],
        include_coord_sup: bool = False,
    ):
        self.name = name
        self._provider = provider
        self.include_coord_sup = include_coord_sup
        self.cache_limit = 256
        self._cache: dict[tuple[int, ...], list[NormingFunctional]] = {}
        self._mats_cache: dict[tuple[int, ...], tuple[dict[int, np.ndarray], int]] = {}

    def functionals(self, support: tuple[int, ...]) -> list[NormingFunctional]:
        key = tuple(support)
        if key not in self._cache:
            fams = list(self._provider(key))
            if self.include_coord_sup:
                fams.extend(Coeffs.from_pairs([(i, 1)]) for i in key)
            if not fams:
                raise DomainError("empty norming set")
            if len(self._cache) > self.cache_limit:
                self._cache.clear()
                self._mats_cache.clear()
            self._cache[key] = fams
        return self._cache[key]

    def class_mats(self, support: tuple[int, ...]) -> tuple[dict[int, np.ndarray], int]:
        key = tuple(support)
        if key not in self._mats_cache:
            self._mats_cache[key] = functional_class_matrices(
                self.functionals(key), key
            )
        return self._mats_cache[key]

    def norm_slow(self, a: Coeffs) -> Scalar:
        """Reference implementation: explicit pairings, no batching."""
        best: Scalar = 0
        for phi in self.functionals(a.support):
            v = pair(phi, a)
            v = abs(v) if isinstance(v, QSum) else abs(v)
            if isinstance(v, QSum) or isinstance(best, QSum):
                if (QSum.of(v) - QSum.of(best)).sign() > 0:
                    best = v
            elif v > best:
                best = v
        return best

    def norm(self, a: Coeffs) -> Scalar:
        if not a:
            return 0
        if a.is_exact():
            try:
                return super().norm(a)
            except NoIntegerForm:
                return self._norm_radical(a)
        return super().norm(a)

    def _norm_radical(self, a: Coeffs) -> Scalar:
        """Exact norm for vectors with no integer form (radical-valued
        entries, or magnitudes beyond the integer path), in Python ints."""
        mats, fscale = self.class_mats(a.support)
        vclasses: dict[int, list[Fraction]] = {}
        vden = 1
        for k, (_, w) in enumerate(a.entries):
            terms = w.terms if isinstance(w, QSum) else {1: Fraction(w)}
            for core, q in terms.items():
                vclasses.setdefault(core, [Fraction(0)] * len(a))[k] = q
                vden = _lcm(vden, q.denominator)
        vmats = {
            c: np.array([int(q * vden) for q in col], dtype=object)
            for c, col in vclasses.items()
        }
        pairs: dict[int, np.ndarray] = {}
        for fc, m in mats.items():
            for vc, col in vmats.items():
                outer, core = split_square(fc * vc)
                pairs[core] = pairs.get(core, 0) + (m @ col) * outer
        one_col = {c: p[:, None] for c, p in pairs.items()}
        return _normingset_reduce_exact(one_col, fscale * vden).value(0)

    def mult_batch(self, a, mult, den=1):
        v, vscale = _int_mult_values(a, mult, den)
        mats, fscale = self.class_mats(a.support)
        pairs = {c: m @ v for c, m in mats.items()}  # (F, N) per class
        return _normingset_reduce_exact(pairs, fscale * vscale)

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        mats, fscale = self.class_mats(a.support)
        acc = np.zeros((next(iter(mats.values())).shape[0], v.shape[1]))
        for c, m in mats.items():
            acc += (m @ v) * (c**0.5)
        return np.abs(acc).max(axis=0) / fscale


# ---------------------------------------------------------------------------
# sign-average renorming
# ---------------------------------------------------------------------------


class RenormSpace(Space):
    """norm_delta(a) = E ||sum eps_i a_i x_i||_base + delta * ||a||_base.

    While the support fits under the enumeration cap the sign average is
    exact; beyond it a seeded Monte-Carlo estimate is used and
    ``norm_with_bracket`` carries its confidence bracket (the plain norm
    then returns the statistical point value as a float).
    """

    def __init__(self, base: Space, delta: Fraction, enum_cap: int = 20,
                 mc_samples: int = 100_000, mc_seed: int | None = None):
        if delta <= 0:
            raise DomainError("renorm requires delta > 0")
        self.base = base
        self.delta = Fraction(delta)
        self.enum_cap = enum_cap
        self.mc_samples = mc_samples
        self.mc_seed = mc_seed
        self.name = f"renorm:{base.name}:{delta}"
        self.sweep_max_m = 8

    def _inner_estimate(self, a: Coeffs):
        from .rademacher import expect_auto
        from .rng import DEFAULT_SEED

        return expect_auto(
            self.base, a, cap=self.enum_cap,
            samples=self.mc_samples,
            seed=DEFAULT_SEED if self.mc_seed is None else self.mc_seed,
        )

    def _inner_expectation(self, a: Coeffs) -> Scalar:
        return self._inner_estimate(a).value

    def norm_with_bracket(self, a: Coeffs):
        """(value, (lower, upper)) with the sign-average bracket carried
        through the affine combination."""
        if not a:
            return 0, (0, 0)
        est = self._inner_estimate(a)
        tail = self.delta * self.base.norm(a)
        lo, hi = est.bracket
        if est.method == "exact":
            value = est.value + tail
            return value, (value, value)
        return est.value + float(tail), (lo + float(tail), hi + float(tail))

    def norm(self, a: Coeffs) -> Scalar:
        return self.norm_with_bracket(a)[0]

    def _inner_columns(self, a: Coeffs, mult: np.ndarray, unit, entry) -> tuple[list, np.ndarray]:
        """Inner sign averages of the columns' masked vectors: one per
        distinct |column|, since the average is sign-invariant, and each
        column's index into them.

        A column of units masks nothing and averages ``a`` itself;
        ``entry(v, c)`` builds a masked coefficient."""
        cols, which = np.unique(np.abs(mult), axis=1, return_inverse=True)
        inner = []
        for col in cols.T:
            masked = a if np.all(col == unit) else Coeffs.from_pairs(
                (i, entry(v, c)) for (i, v), c in zip(a.entries, col)
            )
            inner.append(self._inner_expectation(masked) if masked else 0)
        return inner, which

    def mult_batch(self, a, mult, den=1):
        base_batch = self.base.mult_batch(a, mult, den)
        if base_batch is None:
            return None
        scaled = base_batch.scale_rational(self.delta)
        inner, which = self._inner_columns(
            a, mult, den, lambda v, c: v * Fraction(int(c), den)
        )
        if len(inner) == 1 and isinstance(inner[0], (int, Fraction)):
            return scaled.shift_rational(Fraction(inner[0]))
        return ExactBatch.from_scalars(
            [inner[k] + scaled.value(j) for j, k in enumerate(which)]
        )

    def mult_batch_float(self, a, mult):
        base = self.base.mult_batch_float(a, mult)
        inner, which = self._inner_columns(
            a, mult, 1.0, lambda v, c: float(v) * float(c)
        )
        return np.array([float(x) for x in inner])[which] + float(self.delta) * base
