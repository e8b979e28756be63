"""Norm engines.

Every engine evaluates whole batches of entrywise multiplier columns of a
:class:`~rudlab.coeffs.Coeffs` at once (``mult_batch`` exact over
integers, ``mult_batch_float`` for Monte-Carlo and float vectors), and its
``norm`` is the one-column batch: exact where the batch has an exact form,
float otherwise.  An exact batch is integer arrays only; an engine or
batch without one (``lp:P``, ``james_x:P`` and ``smax:P`` off their exact
exponents, a renorm column past the enumeration cap, whose sign average is
the base engine's seeded Monte-Carlo mean) returns None and is evaluated
in floats.  Its arrays are int64 where a Python-int bound shows that no
value can leave it and Python ints otherwise; a value or denominator that a
batch would hold past the float range, and radical-valued entries outside
the norming-set engines, are refused (``NoIntegerForm``).  The test suite
cross-checks the batches against independent brute-force oracles.

Engines here: lp / linf, the summing norm and its dual, the chain-difference
supremum norms (one class: lp-accumulating chains, and l2 disjoint pairs),
the square-function-plus-partial-sup norm, the summing/lp maximum, generic
norming-set suprema, and the sign-average renorming.  Dyadic grid norms live
in :mod:`rudlab.dyadic`; the coding-function and tree constructions register
their engines from their own modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from typing import Callable, Sequence

import numpy as np

from .batches import (_TIE_RTOL, ExactBatch, _peak, check_float_range,
                      first_extreme, float_group_means, int_dtype)
from .coeffs import Coeffs, DomainError, NoIntegerForm, NormingFunctional, pair
from .exactnum import QSum, Scalar, split_square
from .rng import DEFAULT_SEED


def _int_mult_values(a: Coeffs, mult: np.ndarray,
                     gain: int = 1) -> tuple[np.ndarray, int]:
    """Exact (m, N) integer matrix of ``diag(a) @ mult`` for rational ``a``
    and its common denominator.  With S the numerators' magnitudes summed
    times the multipliers' peak, ``gain * (2S)^2`` bounds every sum,
    difference and square a linear or root engine reduces, when ``gain``
    bounds the weight a reduction puts on its inputs (2^levels dyadic
    atoms, a matrix's row sums); the matrix is int64 under that bound and
    Python ints past it.  The batch an engine builds from it refuses what
    it would hold past the float range (:class:`ExactBatch`)."""
    cols, d = _class_columns(a)
    ints = cols.pop(1, [])
    if cols:
        raise NoIntegerForm("radical-valued entry: no integer form")
    dtype = int_dtype(gain * (2 * sum(map(abs, ints)) * _peak(mult)) ** 2)
    return np.array(ints, dtype=dtype)[:, None] * mult.astype(dtype), d


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
        batch = self.mult_batch(a, one) if a.is_exact() else None
        if batch is not None:
            return batch.value(0)
        return float(self.mult_batch_float(a, one.astype(np.float64))[0])

    # -- batched norms ------------------------------------------------------

    def mult_batch(self, a: Coeffs, mult: np.ndarray) -> ExactBatch | None:
        """Exact norms of the columns of ``diag(a) @ mult``.

        ``mult`` rows follow the sorted support of ``a``.  Returns None when
        the batch has no exact form; its columns are then evaluated by
        :meth:`mult_batch_float`.
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

    def mult_batch(self, a, mult):
        if self.p not in (1, 2, inf):
            return None
        v, scale = _int_mult_values(a, mult)
        if self.p == 1:
            return ExactBatch.from_rational(np.abs(v).sum(axis=0), scale)
        if self.p == inf:
            return ExactBatch.from_rational(np.abs(v).max(axis=0), scale)
        return ExactBatch.from_roots((v**2).sum(axis=0), scale)

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

    def mult_batch(self, a, mult):
        v, scale = _int_mult_values(a, mult)
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

    def mult_batch(self, a, mult):
        v, scale = _int_mult_values(a, mult)
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


def _gain(d: np.ndarray, power) -> np.ndarray:
    return d**2 if power == 2 else d if power == 1 else d.astype(np.float64) ** power


def _chain_dp(nv: np.ndarray, power) -> np.ndarray:
    """Best accumulated |difference|^power along increasing node chains:
    row j of the table is the best chain ending at node j."""
    k, n = nv.shape
    best = np.zeros((k, n), dtype=nv.dtype if power in (1, 2) else np.float64)
    for j in range(1, k):
        best[j] = (best[:j] + _gain(np.abs(nv[:j] - nv[j]), power)).max(axis=0)
    return best[-1]


def _pairs_dp(nv: np.ndarray, power) -> np.ndarray:
    """Best accumulated |difference|^power over disjoint increasing pairs."""
    k = nv.shape[0]
    zero = np.zeros(nv.shape[1], dtype=nv.dtype)
    best = [zero]  # best[j+1] = optimum using nodes 0..j
    for j in range(k):
        cur = best[j] if j else zero
        for i in range(j):
            cur = np.maximum(cur, best[i] + _gain(np.abs(nv[i] - nv[j]), power))
        best.append(cur)
    return best[-1]


class JamesSpace(Space):
    """Supremum over increasing index chains of the lp sum of consecutive
    differences (``james:chain`` at p = 2, ``james_x:P``), or at p = 2 over
    disjoint increasing pairs (``james:pairs``).  Exact for p in {1, 2}."""

    def __init__(self, name: str, p=2, pairs: bool = False):
        self.name = name
        self.p = p
        self._dp = _pairs_dp if pairs else _chain_dp

    def _reduce(self, v, support):
        return self._dp(_node_matrix(v, _chain_nodes(support)), self.p)

    def mult_batch(self, a, mult):
        if self.p not in (1, 2):
            return None
        v, scale = _int_mult_values(a, mult)
        dp = self._reduce(v, a.support)
        if self.p == 1:
            return ExactBatch.from_rational(dp, scale)
        return ExactBatch.from_roots(dp, scale)

    def mult_batch_float(self, a, mult):
        dp = self._reduce(_float_values(a, mult), a.support)
        return np.sqrt(dp) if self.p == 2 else dp ** (1.0 / self.p)

    def paper_witnesses(self, kind, dim):
        if self.p != 2:
            return []
        return [
            Coeffs.from_values([1] * dim),
            Coeffs.from_values([(-1) ** i for i in range(dim)]),
        ]


# ---------------------------------------------------------------------------
# square function + partial-sum supremum
# ---------------------------------------------------------------------------


def _prefix_maxabs(v: np.ndarray) -> np.ndarray:
    return np.abs(np.cumsum(v, axis=0)).max(axis=0)


class BmoRademacherSpace(Space):
    """(sum a_i^2)^(1/2) + sup_n |sum_{k<=n} a_k|."""

    name = "bmo_rademacher"

    def mult_batch(self, a, mult):
        v, scale = _int_mult_values(a, mult)
        pref = _prefix_maxabs(v)
        rad = (v**2).sum(axis=0)
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

    def mult_batch(self, a, mult):
        if self.p != 2:
            return None
        v, scale = _int_mult_values(a, mult)
        s = _tail_maxabs(v)
        rad = (v**2).sum(axis=0)
        # per column the max is the summing branch iff s^2 >= rad
        use_s = s**2 >= rad
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

#: supports whose families or class matrices a norming-set engine keeps
#: before it drops them all
_CACHE_LIMIT = 256
#: a support's functional class matrices, their common denominator and peaks
_ClassMats = tuple[dict[int, np.ndarray], int, dict[int, int]]


def _cached(cache: dict, key, build: Callable[[], object]):
    """``cache[key]``, built by ``build()`` on a miss; a cache holding more
    than ``_CACHE_LIMIT`` entries is emptied before it takes another."""
    if key not in cache:
        if len(cache) > _CACHE_LIMIT:
            cache.clear()
        cache[key] = build()
    return cache[key]


def functional_class_matrices(
    functionals: Sequence[NormingFunctional], support: Sequence[int]
) -> _ClassMats:
    """Weights of the functionals on ``support`` as per-radicand-class
    integer matrices with one common denominator, and each matrix's largest
    magnitude.  A matrix is int64 when that peak fits, Python ints
    otherwise; functionals that all vanish on the support give one zero
    matrix."""
    pos = {idx: k for k, idx in enumerate(support)}
    cells: dict[int, list[tuple[int, int, Fraction]]] = {}  # (functional, slot, weight)
    scale = 1
    for f, phi in enumerate(functionals):
        for i, w in phi.entries:
            k = pos.get(i)
            if k is None:
                continue
            for core, q in (w.terms if isinstance(w, QSum) else {1: Fraction(w)}).items():
                cells.setdefault(core, []).append((f, k, q))
                scale = lcm(scale, q.denominator)
    mats, peaks = {}, {}
    for c in sorted(cells) or [1]:
        fkq = cells.get(c, [])
        nums = [int(q * scale) for _, _, q in fkq]
        peaks[c] = max(map(abs, nums), default=0)
        mats[c] = np.zeros((len(functionals), len(support)),
                           dtype=int_dtype(peaks[c]))
        mats[c][[f for f, _, _ in fkq], [k for _, k, _ in fkq]] = nums
    return mats, scale, peaks


def _class_columns(a: Coeffs) -> tuple[dict[int, list[int]], int]:
    """Entries of ``a`` split by square-free class: per class, integer
    numerators over one common denominator, in the order of first use.
    Float entries raise :class:`NoIntegerForm`."""
    cols: dict[int, list[int | Fraction]] = {}
    for k, (_, w) in enumerate(a.entries):
        if isinstance(w, float):
            raise NoIntegerForm("exact path requires rational coefficients")
        for core, q in (w.terms.items() if isinstance(w, QSum) else ((1, w),)):
            cols.setdefault(core, [0] * len(a))[k] = q
    den = lcm(*(q.denominator for col in cols.values() for q in col))
    return {c: [q.numerator * (den // q.denominator) for q in col]
            for c, col in cols.items()}, den


def _class_values(a: Coeffs, mult: np.ndarray,
                  peaks: dict[int, int]) -> tuple[dict[int, np.ndarray], int, type]:
    """The columns of ``diag(a) @ mult`` split by the entries' square-free
    classes, as integer numerators over the entries' common denominator,
    with that denominator and their dtype: int64 when a Python-int bound
    shows that no pairing sum with functional weights up to ``peaks[c]``
    (per functional class c) can leave it, Python ints otherwise.  A bound
    or denominator past the float range is refused: the reduction's float
    pass reads the pairings before any batch is built."""
    vcols, vden = _class_columns(a)
    # a bound on every partial pairing sum and, its factors being at
    # least 1, on every weight, numerator and multiplier
    reach = max(_peak(mult), 1)
    bound = sum(
        max(peak, 1) * split_square(fc * vc)[0] * reach * sum(map(abs, col))
        for fc, peak in peaks.items() for vc, col in vcols.items()
    )
    check_float_range(max(bound, vden))
    dtype = int_dtype(bound)
    mult = mult.astype(dtype)
    return ({vc: np.array(col, dtype=dtype)[:, None] * mult for vc, col in vcols.items()},
            vden, dtype)


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

    ``mult_batch`` is the one exact path, for rational and radical-valued
    vectors: each functional class is paired with each class of the
    vector's entries, in int64 when a Python-int bound shows that no sum
    can leave it, and in Python-int object arrays otherwise.
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
        self._cache: dict[tuple[int, ...], list[NormingFunctional]] = {}
        self._mats_cache: dict[tuple[int, ...], _ClassMats] = {}

    def _family(self, key: tuple[int, ...]) -> list[NormingFunctional]:
        """The family restricted to ``key``, built afresh (not cached)."""
        fams = list(self._provider(key))
        if self.include_coord_sup:
            fams.extend(Coeffs.from_pairs([(i, 1)]) for i in key)
        if not fams:
            raise DomainError("empty norming set")
        return fams

    def functionals(self, support: tuple[int, ...]) -> list[NormingFunctional]:
        """The family on a support, cached for :meth:`norm_slow`; the batch
        paths keep only its class matrices."""
        key = tuple(support)
        return _cached(self._cache, key, lambda: self._family(key))

    def class_mats(self, support: tuple[int, ...]) -> _ClassMats:
        key = tuple(support)
        return _cached(self._mats_cache, key,
                       lambda: functional_class_matrices(self._family(key), key))

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

    def mult_batch(self, a, mult):
        mats, fscale, peaks = self.class_mats(a.support)
        vals, vden, dtype = _class_values(a, mult, peaks)
        pairs: dict[int, np.ndarray] = {}  # (F, N) per class
        for fc, m in mats.items():
            m = m.astype(dtype, copy=False)
            for vc, v in vals.items():
                outer, core = split_square(fc * vc)
                p = m @ v if outer == 1 else (m @ v) * outer
                pairs[core] = pairs[core] + p if core in pairs else p
        return _normingset_reduce_exact(pairs, fscale * vden)

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        mats, fscale, _ = self.class_mats(a.support)
        acc = np.zeros((next(iter(mats.values())).shape[0], v.shape[1]))
        for c, m in mats.items():
            acc += (m.astype(np.float64) @ v) * (c**0.5)
        return np.abs(acc).max(axis=0) / fscale


# ---------------------------------------------------------------------------
# sign-average renorming
# ---------------------------------------------------------------------------


class RenormSpace(Space):
    """norm_delta(a) = E ||sum eps_i a_i x_i||_base + delta * ||a||_base.

    The norm is the one-column batch.  While a column's support fits under
    the enumeration cap its sign average is exact and the batch is an
    integer batch; a column past the cap takes the base engine's seeded
    Monte-Carlo mean (``expect_mc``) and the batch is a float batch.
    """

    def __init__(self, base: Space, delta: Fraction, enum_cap: int = 20,
                 mc_samples: int = 100_000, mc_seed: int = DEFAULT_SEED):
        if delta <= 0:
            raise DomainError("renorm requires delta > 0")
        self.base = base
        self.delta = Fraction(delta)
        self.enum_cap = enum_cap
        self.mc_samples = mc_samples
        self.mc_seed = mc_seed
        self.name = f"renorm:{base.name}:{delta}"
        self.sweep_max_m = 8

    def _inner_columns(self, a: Coeffs, mult: np.ndarray, means) -> tuple[list, np.ndarray]:
        """Inner sign averages of the columns' masked vectors: one per
        distinct |column|, since the average is sign-invariant, and each
        column's index into them.

        Under the enumeration cap they come from one grouped walk: each
        distinct |column| contributes its top-bit-clear sign patterns scaled
        by the column, in pieces of at most ``_CHUNK`` patterns; the pieces
        are concatenated and handed to ``means(pats, starts, overs)`` in
        slices of at most ``_CHUNK`` columns, which returns each piece's
        share of its group's mean (as :meth:`ExactBatch.group_means`), and
        each group's shares are folded in walk order, as the sign walk
        folds its chunks.  A masked full-support column is the norm of the
        masked vector, so this is the sign average of each masked vector.
        Past the cap, which only float batches reach, the masked vector
        takes the base engine's Monte-Carlo mean (``expect_mc``)."""
        from .rademacher import _CHUNK, expect_mc

        cols, which = np.unique(np.abs(mult), axis=1, return_inverse=True)
        inner: list = [0] * cols.shape[1]
        slices: list[list[tuple[int, int, int, int]]] = []
        width = _CHUNK  # of the open slice; a full one makes the first piece open one
        for g, k in enumerate(np.count_nonzero(cols, axis=0).tolist()):
            if k > self.enum_cap:
                inner[g] = expect_mc(self.base, Coeffs.from_pairs(
                    (i, float(v) * float(c)) for (i, v), c in zip(a.entries, cols[:, g])
                ), self.mc_samples, self.mc_seed).value
                continue
            total = (1 << k) >> 1
            for start in range(0, total, _CHUNK):  # the chunks of the group's walk
                stop = min(start + _CHUNK, total)
                if width + stop - start > _CHUNK:
                    slices.append([])
                    width = 0
                slices[-1].append((g, start, stop, total))
                width += stop - start
        for part in slices:
            widths = [stop - start for _, start, stop, _ in part]
            starts = np.cumsum([0] + widths[:-1])
            group = np.repeat([p[0] for p in part], widths)
            masks = np.arange(sum(widths)) + np.repeat([p[1] for p in part] - starts, widths)
            c = cols[:, group]
            # bit j of a pattern's mask flips the j-th row of its group's support
            place = np.maximum(np.cumsum(c != 0, axis=0) - 1, 0)
            pats = np.where((masks >> place) & 1, -c, c)
            shares = means(pats, starts.tolist(), [p[3] for p in part])
            for (g, *_), mu in zip(part, shares):
                inner[g] = inner[g] + mu
        return inner, which

    def mult_batch(self, a, mult):
        """delta * base + inner[which] as one integer batch: the base
        classes and the inner means' numerators over one common scale, the
        base roots times p^2 over ``roots_scale * q`` for delta = p/q.  The
        classes keep the base batch's order, then the inner-only cores in
        order of first column, so a mean adds its terms in the order a
        column-by-column sum gives them.  A column past the enumeration cap
        has a Monte-Carlo inner mean and no exact form: None."""
        if np.count_nonzero(mult, axis=0).max() > self.enum_cap:
            return None
        base = self.base.mult_batch(a, mult)
        if base is None:
            return None
        inner, which = self._inner_columns(
            a, mult,
            lambda pats, starts, overs:
                self.base.mult_batch(a, pats).group_means(starts, overs),
        )
        p, q = self.delta.numerator, self.delta.denominator
        terms = [QSum.of(v).terms for v in inner]
        scale = lcm(q * base.scale, *(x.denominator for t in terms for x in t.values()))
        mul = scale // (q * base.scale) * p
        base_classes = base.classes or {}
        inner_nums: dict[int, list[int]] = {}
        for g in dict.fromkeys(which.tolist()):  # groups in order of first column
            for core, x in terms[g].items():
                inner_nums.setdefault(core, [0] * len(terms))[g] = int(x * scale)
        classes = {}
        for core in dict.fromkeys([*base_classes, *inner_nums]):
            arr, nums = base_classes.get(core), inner_nums.get(core, [0])
            peak = _peak(arr) * mul if arr is not None else 0
            dtype = int_dtype(peak + max(map(abs, nums)))
            col = arr.astype(dtype) * mul if arr is not None else np.zeros(len(which), dtype)
            if core in inner_nums:
                col = col + np.array(nums, dtype=dtype)[which]
            classes[core] = col
        if base.roots is None:
            return ExactBatch.from_classes(classes, scale)
        # delta * sqrt(R) / rs = sqrt(R * p^2) / (rs * q)
        roots = base.roots.astype(int_dtype(_peak(base.roots) * p * p)) * (p * p)
        return ExactBatch(scale=scale, classes=classes or None,
                          roots=roots, roots_scale=base.roots_scale * q)

    def mult_batch_float(self, a, mult):
        base = self.base.mult_batch_float(a, mult)
        inner, which = self._inner_columns(
            a, mult,
            lambda pats, starts, overs:
                float_group_means(self.base.mult_batch_float(a, pats).tolist(), starts, overs),
        )
        return np.array([float(x) for x in inner])[which] + float(self.delta) * base
