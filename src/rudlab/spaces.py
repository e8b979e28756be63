"""Norm engines.

Every engine evaluates whole batches of entrywise multiplier columns of a
:class:`~rudlab.coeffs.Coeffs` at once (``mult_batch`` exact over
integers, ``mult_batch_float`` for Monte-Carlo and float vectors), and its
``batch`` chooses between the two by one rule: exact where asked and the
batch has an exact form, float otherwise.  Every sign walk's chunks are
``batch`` calls.  ``norms`` evaluates a family of vectors as one exact
batch of their base vector over the union support
(:func:`~rudlab.coeffs.family_form`), and ``norm`` is ``norms`` of one
vector, its one-column batch.  No sign
walk lives here: the renorming's inner averages are
:func:`rudlab.rademacher.sign_means`.  An exact batch is integer arrays
only; an engine without one (``lp:P``, ``james_x:P`` and ``smax:P`` off
their exact exponents) returns None and is evaluated in floats.  Its
arrays are int64 where a Python-int bound shows that no value can leave it
and Python ints otherwise; a value or denominator that a batch would hold
past the float range, and radical-valued entries outside the norming-set
engines, are refused (``NoIntegerForm``), and so is a renorm column past
the enumeration cap (``EnumerationCapError``).  The test suite
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
from typing import Callable, Iterator, Sequence

import numpy as np

from .batches import (_TIE_RTOL, ExactBatch, _fold, _peak, check_float_range,
                      first_extreme, int_dtype)
from .coeffs import (Coeffs, DomainError, NoIntegerForm, NormingFunctional, check_cap,
                     family_form, family_packs)
from .exactnum import QSum, Scalar, split_square
from .rademacher import sign_means


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
    ints, d = _int_entries(a, _peak(mult), gain)
    return ints[:, None] * mult.astype(ints.dtype), d


def _int_entries(a: Coeffs, peak: int = 1, gain: int = 1) -> tuple[np.ndarray, int]:
    """The entries of rational ``a`` as integer numerators over their common
    denominator, with that denominator, in the dtype
    :func:`_int_mult_values` gives multipliers of magnitude up to ``peak``."""
    cols, d = _class_columns(a)
    ints = cols.pop(1, [])
    if cols:
        raise NoIntegerForm("radical-valued entry: no integer form")
    return np.array(ints, dtype=int_dtype(gain * (2 * sum(map(abs, ints)) * peak) ** 2)), d


#: float64 holds every integer of magnitude below this exactly
_FLOAT_EXACT = 1 << 53
#: entries of the float image one block of :func:`_int_product` builds, and
#: of any temporary a column-blocked reduction (:func:`_column_blocks`) holds
_PRODUCT_BLOCK = 1 << 16
#: cells of an exact law's count table (:func:`_running_max_counts`, the
#: ``summing_dual`` convolution): past it the engine declines its law
_LAW_CELLS = 1 << 16
#: the narrowest batch :func:`_cumsum_rows` scans row by row
_ROW_SCAN_COLS = 512
#: columns per block of a float BLAS product are a multiple of this; see
#: :func:`_column_blocks`
_BLAS_ALIGN = 64


def _column_blocks(rows: int, n: int, align: int = 1) -> list[slice]:
    """The column slices a column-local reduction of a (``rows``, ``n``)
    batch walks, so that no temporary holds more than ``_PRODUCT_BLOCK``
    entries: ``[slice(None)]``, the whole batch, when it fits in one block,
    else blocks of ``_PRODUCT_BLOCK // rows`` columns (at least one).

    A float BLAS product's last bits depend on how the library tiles the
    product's columns, so ``align > 1`` rounds the block width down to a
    multiple of ``align`` (at least ``align``) and keeps a batch whose
    width is not such a multiple whole: its aligned blocks are then tiled
    as the whole batch is, and the blocked product equals the whole one
    bit for bit (checked against OpenBLAS in the tests).  Exact integer
    reductions need no alignment."""
    step = max(align, _PRODUCT_BLOCK // max(rows, 1) // align * align)
    if n <= step or n % align:
        return [slice(None)]
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _int_product(w: np.ndarray, v: np.ndarray, bound: int) -> np.ndarray:
    """``w @ v`` for integer arrays, array-equal to the integer product and
    in its dtype.  ``bound``, a Python int, must bound every row-by-column
    sum of magnitudes ``sum_k |w_ik * v_kj|``.  Below 2^53 every partial
    sum a BLAS product forms, in whatever order and with or without fused
    multiply-adds, is an integer of at most that magnitude, which float64
    holds exactly, so the product runs in float64 BLAS, a block of rows at
    a time so that its float image stays small beside the integer one.
    Otherwise, and for Python-int arrays, it is the integer ``@``."""
    if bound >= _FLOAT_EXACT or w.dtype == object or v.dtype == object:
        return w @ v
    out = np.empty((w.shape[0], v.shape[1]), dtype=np.result_type(w, v))
    vf = v.astype(np.float64)
    step = max(1, _PRODUCT_BLOCK // max(v.shape[1], 1))
    for r in range(0, len(w), step):
        out[r:r + step] = w[r:r + step].astype(np.float64) @ vf
    return out


def _cumsum_rows(v: np.ndarray) -> np.ndarray:
    """``np.cumsum(v, axis=0)``, array-equal (the same top-to-bottom sums
    in the same dtype), for int64, float64 and Python-int arrays, the
    dtypes that ``cumsum`` keeps.  On batches of at least
    ``_ROW_SCAN_COLS`` columns it is one vectorised add per row, several
    times faster than numpy's accumulate down the rows; narrower batches,
    where the per-row call costs more, keep ``cumsum``."""
    if v.shape[1] < _ROW_SCAN_COLS:
        return np.cumsum(v, axis=0)
    out = np.empty(v.shape, dtype=v.dtype)
    if len(v):
        out[0] = v[0]
    for i in range(1, len(v)):
        np.add(out[i - 1], v[i], out=out[i])
    return out


def _split_terms(forms: np.ndarray, low: np.ndarray, highs: np.ndarray,
                 bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of ``forms @ mult`` on a split walk (see
    :meth:`Space.split_batches`), in ``forms``' dtype: the low columns'
    image, built once, and the high columns' image, whose column k chunk k
    adds to every column of the low one.  ``bound``, a Python int, bounds
    every row-by-column sum of magnitudes of ``forms @ mult`` (see
    :func:`_int_product`)."""
    b = low.shape[0]
    return (_int_product(forms[:, :b], low.astype(forms.dtype), bound),
            _int_product(forms[:, b:], highs.astype(forms.dtype), bound))


def _float_values(a: Coeffs, mult: np.ndarray) -> np.ndarray:
    return a.values_float()[:, None] * mult


class Space:
    """Base class for norm engines.

    An engine overrides ``mult_batch`` and ``mult_batch_float``, each taking
    ``(self, a, mult)``; :meth:`batch` and :meth:`norm` are built on them.
    A walk of several chunks asks :meth:`sign_distribution` first and
    :meth:`split_batches` next: the one reads the norm's exact law over all
    patterns, the other gives one batch per chunk, each array-equal to
    ``mult_batch`` on the chunk; either may give None.  An engine with an
    exact law names the walks it has one for in ``law_walks`` and
    implements ``_law``; ``sign_distribution`` itself is never overridden.
    """

    name: str = "?"
    #: indices random sweeps may draw support from (None: any small index)
    sweep_indices: Sequence[int] | None = None
    #: largest support size the exact sweeps should use for this engine
    sweep_max_m: int = 12
    #: the walks :meth:`_law` answers: False for sign patterns, True for
    #: 0/1 masks
    law_walks: tuple[bool, ...] = ()
    #: whether a zero multiplier gives the norm of the vector without that
    #: entry, which a family's batch over its union support needs
    #: (:meth:`norms`, :func:`~rudlab.rademacher.family_means`)
    zeros_restrict: bool = True

    # -- norms ----------------------------------------------------------------

    def norm(self, a: Coeffs) -> Scalar:
        return self.norms([a])[0]

    def norms(self, vectors: Sequence[Coeffs]) -> list[Scalar]:
        """The norms of ``vectors`` (0 for an empty one), as :meth:`norm`
        gives them one by one, from few engine calls: the vectors are cut
        into packs (:func:`~rudlab.coeffs.family_packs`) and each pack is
        one :meth:`mult_batch` of its family's base vector over the union
        support, one multiplier column per vector
        (:func:`~rudlab.coeffs.family_form`; a family of one is its vector
        over a column of ones).  An engine whose zero multipliers do not
        restrict (``zeros_restrict``) takes families of one.  Float
        vectors, indices of mixed classes, an engine without an exact
        batch, and a union refused as having no integer form fall back to
        one :meth:`batch` per vector, which gives that vector's own value
        or refusal."""
        out: list[Scalar] = [0] * len(vectors)
        live = [j for j, a in enumerate(vectors) if a]
        packs = (family_packs([vectors[j] for j in live], [1] * len(live), len(live))
                 if self.zeros_restrict else [[k] for k in range(len(live))])
        for pack in packs:
            pack = [live[k] for k in pack]
            family = family_form([vectors[j] for j in pack])
            try:
                batch = None if family is None else self.mult_batch(*family)
            except NoIntegerForm:
                batch = None
            for k, j in enumerate(pack):
                a = vectors[j]
                out[j] = (batch.value(k) if batch is not None else self.batch(
                    a, np.ones((len(a), 1), dtype=np.int8), a.is_exact()).value(0))
        return out

    # -- batched norms ------------------------------------------------------

    def batch(self, a: Coeffs, mult: np.ndarray, exact: bool) -> ExactBatch:
        """The norms of the columns of ``diag(a) @ mult``: :meth:`mult_batch`
        when ``exact`` and it gives an exact batch, else
        :meth:`mult_batch_float` as a float batch.  The norm and every sign
        walk choose by this one rule."""
        batch = self.mult_batch(a, mult) if exact else None
        if batch is None:
            batch = ExactBatch.from_scalars(self.mult_batch_float(a, mult.astype(np.float64)))
        return batch

    def mult_batch(self, a: Coeffs, mult: np.ndarray) -> ExactBatch | None:
        """Exact norms of the columns of ``diag(a) @ mult``.

        ``mult`` rows follow the sorted support of ``a``.  Returns None when
        the batch has no exact form; its columns are then evaluated by
        :meth:`mult_batch_float`.
        """
        return None

    def mult_batch_float(self, a: Coeffs, mult: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no float batch path")

    def split_batches(self, a: Coeffs, low: np.ndarray,
                      highs: np.ndarray) -> Iterator[ExactBatch] | None:
        """Exact batches of a walk's chunks whose multiplier rows split into
        low rows that vary within a chunk and high rows that do not.

        Chunk k's multipliers are ``low`` (the first b rows, all chunks
        alike) over ``highs[:, k]`` repeated across the columns (the other
        rows).  An engine that can build its low part once per vector
        returns an iterator of one batch per column of ``highs``, each
        array-equal to :meth:`mult_batch` on the chunk's multipliers
        (values, dtypes, scales and class order), and raises what that
        would raise: the norming-set engine keeps the low image of each
        core's integer form, the chain engines the low nodes' DP table.
        None, the default and the answer wherever :meth:`mult_batch` has
        no exact batch, makes the walk call :meth:`batch` chunk by chunk.
        """
        return None

    def sign_distribution(self, a: Coeffs, masks: bool) -> tuple[ExactBatch, np.ndarray] | None:
        """The exact distribution of the norm of ``a`` over all 2^m sign
        patterns (0/1 masks when ``masks``): a classes-only batch whose
        columns are the values the norm takes, and the int64 count of the
        patterns that take each.  A walk of several chunks asks this first,
        and reduces the distribution instead of walking (see
        :mod:`rudlab.rademacher`).

        This is the one gate of every engine's law.  None, which makes the
        walk run, is the answer, before any entry is read, for a walk not
        in ``law_walks``, the empty support, more than 62 entries (the
        counts would leave int64) and float entries; and then for entries
        whose batches would leave int64 (:func:`_int_entries` gives them a
        Python-int dtype) and wherever ``_law`` declines.  Radical entries
        are refused as :meth:`mult_batch` refuses them
        (``NoIntegerForm``).  The values are those :meth:`mult_batch`
        gives."""
        if masks not in self.law_walks or not 0 < len(a) <= 62 or not a.is_exact():
            return None
        ints, d = _int_entries(a)
        if ints.dtype == object:
            return None
        law = self._law(a, ints.tolist(), masks)
        if law is None:
            return None
        classes, counts = law
        keep = np.flatnonzero(counts)
        return (ExactBatch.from_classes({c: arr[keep] for c, arr in classes.items()}, d),
                counts[keep])

    def _law(self, a: Coeffs, v: list[int], masks: bool
             ) -> tuple[dict[int, np.ndarray], np.ndarray] | None:
        """The law of the norm on the walk ``masks`` (one of ``law_walks``)
        of ``a``, whose entries are the integer numerators ``v`` over a
        common denominator: per square-free class the numerators of each
        value the norm may take, and the int64 count of the patterns that
        take it (zero counts are dropped), or None past ``_LAW_CELLS``."""
        raise NotImplementedError(f"{self.name}: no exact law")

    # -- hooks ---------------------------------------------------------------

    def paper_witnesses(self, kind: str, dim: int) -> list[Coeffs]:
        """Engine-specific extremal candidates for constant searches."""
        return []

    def __repr__(self) -> str:
        return f"<space {self.name}>"


# ---------------------------------------------------------------------------
# exact sign distributions of the path engines
# ---------------------------------------------------------------------------


def _running_max_counts(v: Sequence[int], masks: bool) -> np.ndarray | None:
    """``counts[n]``: how many of the 2^m sign patterns (0/1 masks when
    ``masks``) x give ``max_k |x_0 v_0 + ... + x_k v_k| == n``, or None when
    the table over (running maximum, running sum) would pass
    ``_LAW_CELLS`` cells.

    One row per entry moves every cell's running sum by both of its steps
    and lifts the maximum of the cells it carries past their row; this is
    the barrier count of the ballot and reflection problems (Feller, *An
    Introduction to Probability Theory*, vol. 1, ch. III), for every
    barrier at once."""
    top = sum(map(abs, v))
    width = 2 * top + 1
    if (top + 1) * width > _LAW_CELLS:
        return None
    table = np.zeros((top + 1, width), dtype=np.int64)  # [max, sum + top]
    table[0, top] = 1
    reach = np.abs(np.arange(-top, top + 1))
    above = np.arange(top + 1)[:, None] < reach  # cells whose sum passes their max
    cols = np.arange(width)
    for x in v:
        moved = np.zeros_like(table)
        for step in ((0, x) if masks else (x, -x)):
            if step >= 0:
                moved[:, step:] += table[:, :width - step]
            else:
                moved[:, :step] += table[:, -step:]
        lifted = np.where(above, moved, 0).sum(axis=0)
        moved[above] = 0
        moved[reach, cols] += lifted
        table = moved
    return table.sum(axis=1)


# ---------------------------------------------------------------------------
# lp / linf
# ---------------------------------------------------------------------------


class LpSpace(Space):
    def __init__(self, p):
        self.p = p
        self.name = "linf" if p == inf else f"lp:{p}"
        self.law_walks = (False,) if p in (1, 2, inf) else ()

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

    def _law(self, a, v, masks):
        """Signs do not change the norm: one value, taken 2^m times."""
        if self.p == 2:
            num, core = split_square(sum(x * x for x in v))
        else:
            num, core = (sum if self.p == 1 else max)(map(abs, v)), 1
        return {core: np.array([num], dtype=np.int64)}, np.array([1 << len(v)], dtype=np.int64)

    def paper_witnesses(self, kind, dim):
        return [Coeffs.from_values([1] * dim)]


# ---------------------------------------------------------------------------
# summing norm and its dual
# ---------------------------------------------------------------------------


def _tail_maxabs(v: np.ndarray) -> np.ndarray:
    tails = _cumsum_rows(v[::-1])[::-1]
    return np.abs(tails).max(axis=0)


class SummingSpace(Space):
    """max over support points of the absolute tail sum from that point."""

    name = "summing"
    law_walks = (False, True)

    def mult_batch(self, a, mult):
        v, scale = _int_mult_values(a, mult)
        return ExactBatch.from_rational(_tail_maxabs(v), scale)

    def mult_batch_float(self, a, mult):
        return _tail_maxabs(_float_values(a, mult))

    def _law(self, a, v, masks):
        """The running-maximum DP over the tail sums, sign or mask steps."""
        counts = _running_max_counts(v[::-1], masks)
        return None if counts is None else ({1: np.arange(len(counts))}, counts)

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
    law_walks = (False,)

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

    def _law(self, a, v, masks):
        """An edge term |e_k v_k - e_j v_j| = |v_k - e_k e_j v_j| depends
        on e_k e_j alone, and the products of the adjacent pairs are
        independent fair signs: the norm is a constant plus independent
        two-point terms, and its counts are their convolution, times the
        2^(m - pairs) patterns that give each choice of products."""
        base, gaps = 0, []
        for k, j in _dual_edge_terms(a.support):
            if j < 0:
                base += abs(v[k])
            else:
                lo, hi = sorted((abs(v[k] - v[j]), abs(v[k] + v[j])))
                base += lo
                gaps.append(hi - lo)
        width = sum(gaps) + 1
        if width > _LAW_CELLS:
            return None
        counts = np.zeros(width, dtype=np.int64)
        counts[0] = 1 << (len(v) - len(gaps))
        for g in gaps:
            counts[g:] = counts[g:] + counts[:width - g]
        return {1: base + np.arange(width)}, counts

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


def _chain_table(nv: np.ndarray, power) -> np.ndarray:
    """Best accumulated |difference|^power along increasing node chains:
    row j of the table is the best chain ending at node j."""
    k, n = nv.shape
    exact = power in (1, 2)
    best = np.zeros((k, n), dtype=nv.dtype if exact else np.float64)
    # one buffer per dtype for every node's differences and gains
    diff = np.empty((k, n), dtype=nv.dtype)
    gain = diff if exact else np.empty((k, n))
    for j in range(1, k):
        d, g = diff[:j], gain[:j]
        np.subtract(nv[:j], nv[j], out=d)
        if power == 2:
            np.multiply(d, d, out=d)  # (-d)^2 is d^2 exactly, so no abs
        else:
            np.abs(d, out=d)
            if not exact:
                g[...] = d
                np.power(g, power, out=g)
        np.add(best[:j], g, out=g)
        np.max(g, axis=0, out=best[j])
    return best


def _chain_dp(nv: np.ndarray, power) -> np.ndarray:
    """The best chain ending at the last node, per column.  The columns'
    DPs are independent, so they run over column blocks
    (:func:`_column_blocks`) and the table and its temporaries stay within
    ``_PRODUCT_BLOCK`` entries; a batch that fits in one block is tabled
    whole."""
    blocks = _column_blocks(*nv.shape)
    if len(blocks) == 1:
        return _chain_table(nv, power)[-1]
    return np.concatenate([_chain_table(nv[:, sl], power)[-1] for sl in blocks])


def _split_chain_dp(ints: np.ndarray, nodes: list[int], low: np.ndarray,
                    highs: np.ndarray, power) -> Iterator[np.ndarray]:
    """:func:`_chain_dp` of each chunk of a split walk (see
    :meth:`Space.split_batches`) of the entries ``ints``, exact powers only.

    The nodes up to the last low slot take the low rows' values and are
    tabled once.  Every later node holds one value c per chunk (0 on a
    zero node), and a chain reaching it from the low nodes is worth
    ``max_i(best_i + |v_i - c|^power)`` over them, which is memoised on c;
    each chunk then runs the DP over its later nodes alone."""
    b = low.shape[0]
    cut = nodes.index(b - 1) + 1
    low_nv = _node_matrix(ints[:b, None] * low.astype(ints.dtype), nodes[:cut])
    best = _chain_table(low_nv, power)
    reach: dict[int, np.ndarray] = {}
    high = [slot - b if slot >= 0 else -1 for slot in nodes[cut:]]
    consts = _node_matrix(ints[b:, None] * highs.astype(ints.dtype), high)
    for col in consts.T.tolist():
        rows = []
        for j, c in enumerate(col):
            if c not in reach:
                reach[c] = (best + _gain(np.abs(low_nv - c), power)).max(axis=0)
            row = reach[c]
            for i in range(j):
                row = np.maximum(row, rows[i] + _gain(abs(col[i] - c), power))
            rows.append(row)
        yield rows[-1]


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
        # a zero entry is one more node a pair may end at
        self.zeros_restrict = not pairs

    def _reduce(self, v, support):
        return self._dp(_node_matrix(v, _chain_nodes(support)), self.p)

    def _batch(self, dp, scale):
        if self.p == 1:
            return ExactBatch.from_rational(dp, scale)
        return ExactBatch.from_roots(dp, scale)

    def mult_batch(self, a, mult):
        if self.p not in (1, 2):
            return None
        v, scale = _int_mult_values(a, mult)
        return self._batch(self._reduce(v, a.support), scale)

    def split_batches(self, a, low, highs):
        if self.p not in (1, 2) or self._dp is not _chain_dp:
            return None
        ints, scale = _int_entries(a)
        return (self._batch(dp, scale)
                for dp in _split_chain_dp(ints, _chain_nodes(a.support), low, highs, self.p))

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
    return np.abs(_cumsum_rows(v)).max(axis=0)


class BmoRademacherSpace(Space):
    """(sum a_i^2)^(1/2) + sup_n |sum_{k<=n} a_k|."""

    name = "bmo_rademacher"
    law_walks = (False,)

    def mult_batch(self, a, mult):
        v, scale = _int_mult_values(a, mult)
        pref = _prefix_maxabs(v)
        rad = (v**2).sum(axis=0)
        return ExactBatch(scale=scale, classes={1: pref}, roots=rad, roots_scale=scale)

    def _law(self, a, v, masks):
        """The running-maximum DP over the prefix sums, plus the l2 norm,
        which signs do not change (masks do: no law for them)."""
        counts = _running_max_counts(v, False)
        if counts is None:
            return None
        outer, core = split_square(sum(x * x for x in v))
        n = np.arange(len(counts))
        return ({1: n + outer} if core == 1 else {1: n, core: np.full(len(n), outer)}), counts

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
        self.law_walks = (False,) if p == 2 else ()

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

    def _law(self, a, v, masks):
        """The summing DP, each value n with n^2 below the constant
        rad = sum v^2 replaced by sqrt(rad)."""
        counts = _running_max_counts(v[::-1], False)
        if counts is None:
            return None
        rad = sum(x * x for x in v)
        outer, core = split_square(rad)
        n = np.arange(len(counts))
        l2 = n * n < rad
        if not counts[l2].any():
            return {1: n}, counts
        if core == 1:
            return {1: np.where(l2, outer, n)}, counts
        return {1: np.where(l2, 0, n), core: np.where(l2, outer, 0)}, counts

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        return np.maximum(_tail_maxabs(v), (np.abs(v) ** self.p).sum(axis=0) ** (1 / self.p))

    def paper_witnesses(self, kind, dim):
        return SummingSpace().paper_witnesses(kind, dim)


# ---------------------------------------------------------------------------
# norming-set suprema
# ---------------------------------------------------------------------------

#: supports whose class matrices (a norming-set engine) or family layouts
#: (a coding engine) an engine keeps before it drops them all
_CACHE_LIMIT = 256
#: a support's functional class matrices and their common denominator
_ClassMats = tuple[dict[int, np.ndarray], int]


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
    integer matrices, ascending by class, with one common denominator.  A
    matrix is int64 when its largest magnitude fits, Python ints otherwise;
    functionals that all vanish on the support give one zero matrix."""
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
    mats = {}
    for c in sorted(cells) or [1]:
        fkq = cells.get(c, [])
        nums = [int(q * scale) for _, _, q in fkq]
        mats[c] = np.zeros((len(functionals), len(support)),
                           dtype=int_dtype(max(map(abs, nums), default=0)))
        mats[c][[f for f, _, _ in fkq], [k for _, k, _ in fkq]] = nums
    return mats, scale


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


def _core_forms(a: Coeffs, weights: dict[int, np.ndarray],
                reach: int) -> tuple[dict[int, np.ndarray], int, int]:
    """One integer form per square-free core for pairing functionals with
    the entries of ``a``: a weight of class fc (the rows of ``weights[fc]``,
    numerators over the functionals' common denominator) times an entry of
    class vc lands on core(fc * vc) with an outer factor, so core c's form
    is the sum of ``outer * W_fc * diag(a_vc)`` over the class pairs that
    land on c, in the order first met (fc ascending, vc in order of use).

    Returns the forms, the entries' common denominator and a Python-int
    bound on every pairing sum with multipliers up to ``reach`` in
    magnitude: the forms are int64 (``int_dtype`` of the bound) when it
    shows that no such sum can leave it, Python ints otherwise.  A bound or
    denominator past the float range is refused: the reduction's float pass
    reads the pairings before any batch is built."""
    vcols, vden = _class_columns(a)
    # a bound on every partial pairing sum and, its factors being at
    # least 1, on every weight, numerator and multiplier
    peaks = {fc: int(np.abs(w).max(initial=1)) for fc, w in weights.items()}
    bound = max(reach, 1) * sum(peak * split_square(fc * vc)[0] * sum(map(abs, col))
                                for fc, peak in peaks.items() for vc, col in vcols.items())
    check_float_range(max(bound, vden))
    dtype = int_dtype(bound)
    ints = {vc: np.array(col, dtype=dtype) for vc, col in vcols.items()}
    forms: dict[int, np.ndarray] = {}
    for fc, w in weights.items():
        w = w.astype(dtype, copy=False)
        for vc, col in ints.items():
            outer, core = split_square(fc * vc)
            f = w * col
            if outer != 1:
                f *= outer
            forms[core] = forms[core] + f if core in forms else f
    return forms, vden, bound


def _normingset_reduce_blocks(block: Callable[[slice], dict[int, np.ndarray]],
                              rows: int, n: int, scale: int) -> ExactBatch:
    """max over functionals of |sum_c P_c sqrt(c)| / scale as an exact batch
    of ``n`` columns, from the (functional, column) pairings ``P_c`` of each
    radicand class that ``block(sl)`` builds for each column slice ``sl`` of
    :func:`_column_blocks`.

    Every step (the float argmax, the near-tie candidates and
    :func:`first_extreme`, the exact orientation) is column-local, so the
    blocks give the whole-array values.  ``rows`` bounds the entries per
    column of every array ``block`` builds, the pairings' functionals
    included: no such array and no temporary of the reduction holds more
    than ``_PRODUCT_BLOCK`` entries, and a batch that fits in one block is
    reduced whole."""
    parts = [_normingset_winners(block(sl)) for sl in _column_blocks(rows, n)]
    if len(parts) == 1:
        return ExactBatch.from_classes(parts[0], scale)
    return ExactBatch.from_classes(
        {c: np.concatenate([part[c] for part in parts]) for c in parts[0]}, scale)


def _normingset_winners(pairs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Per class, the pairing of each column's winning functional, oriented
    so that the classes add up to a non-negative value."""
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
    # the sorted distinct columns; np.unique would import numpy.ma
    for j in np.flatnonzero(np.bincount(ji[~(same | flip)], minlength=n)).tolist():
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
    return {c: (p[best, cols] * signs.astype(np.int64)) for c, p in pairs.items()}


def _qval(pairs: dict[int, np.ndarray], f: int, j: int) -> QSum:
    return QSum.of(_fold([(1, [(c, int(p[f, j])) for c, p in pairs.items()])]))


class NormingSetSpace(Space):
    """sup over a norming family of |<phi, a>|.

    The provider returns, for a finite support, the restriction of the
    family to that support; the owning construction guarantees that this
    restriction is complete.  A family that should include the coordinate
    supremum lists the coordinate functionals itself.

    ``mult_batch`` is the one exact path, for rational and radical-valued
    vectors: the functionals' class matrices and the entries' classes make
    one integer form per square-free core (:func:`_core_forms`), and each
    core's pairings are that form times the multipliers, in int64 when a
    Python-int bound shows that no sum can leave it, and in Python-int
    object arrays otherwise.

    The pairings of a batch are built and reduced one column block at a
    time (:func:`_column_blocks`), so memory grows with family size times
    ``_PRODUCT_BLOCK // F`` columns, not times the chunk: no pairing block
    or reduction temporary holds more than ``_PRODUCT_BLOCK`` entries.  A
    split walk keeps its per-core low images (F x chunk) for the whole
    walk.  The float batch is blocked likewise at widths that are
    multiples of ``_BLAS_ALIGN`` (every Monte-Carlo chunk of 4,096 columns)
    and evaluated whole at other widths.
    """

    def __init__(
        self,
        name: str,
        provider: Callable[[tuple[int, ...]], list[NormingFunctional]],
    ):
        self.name = name
        self._provider = provider
        self._mats_cache: dict[tuple[int, ...], _ClassMats] = {}

    def _family(self, key: tuple[int, ...]) -> list[NormingFunctional]:
        """The family restricted to ``key``, built afresh (not cached)."""
        fams = list(self._provider(key))
        if not fams:
            raise DomainError("empty norming set")
        return fams

    def class_mats(self, support: tuple[int, ...]) -> _ClassMats:
        key = tuple(support)
        return _cached(self._mats_cache, key,
                       lambda: functional_class_matrices(self._family(key), key))

    def mult_batch(self, a, mult):
        mats, fscale = self.class_mats(a.support)
        forms, vden, bound = _core_forms(a, mats, _peak(mult))
        rows = next(iter(mats.values())).shape[0]
        return _normingset_reduce_blocks(
            lambda sl: {c: _int_product(w, mult[:, sl], bound) for c, w in forms.items()},
            rows, mult.shape[1], fscale * vden)

    def split_batches(self, a, low, highs):
        """Each core's form has its low image built once per vector; each
        chunk adds its high column to it one column block at a time, as the
        exact reduction walks the blocks."""
        mats, fscale = self.class_mats(a.support)
        forms, vden, bound = _core_forms(a, mats, max(_peak(low), _peak(highs)))
        terms = {c: _split_terms(w, low, highs, bound) for c, w in forms.items()}
        rows, n = next(iter(mats.values())).shape[0], low.shape[1]
        return (_normingset_reduce_blocks(
                    lambda sl: {c: t_low[:, sl] + t_high[:, k, None]
                                for c, (t_low, t_high) in terms.items()},
                    rows, n, fscale * vden)
                for k in range(highs.shape[1]))

    def mult_batch_float(self, a, mult):
        """One float BLAS product ``M_c @ v`` per class and column block,
        accumulated per block (:func:`_column_blocks`, aligned so that the
        blocked products equal the whole-batch ones bit for bit)."""
        v = _float_values(a, mult)
        mats, fscale = self.class_mats(a.support)
        rows = next(iter(mats.values())).shape[0]
        mats = {c: m.astype(np.float64) for c, m in mats.items()}
        out = np.empty(v.shape[1])
        for sl in _column_blocks(rows, v.shape[1], _BLAS_ALIGN):
            block = v[:, sl]
            acc = np.zeros((rows, block.shape[1]))
            for c, m in mats.items():
                acc += (m @ block) * (c**0.5)
            out[sl] = np.abs(acc).max(axis=0)
        return out / fscale


# ---------------------------------------------------------------------------
# sign-average renorming
# ---------------------------------------------------------------------------


class RenormSpace(Space):
    """norm_delta(a) = E ||sum eps_i a_i x_i||_base + delta * ||a||_base.

    The norm is the one-column batch.  The columns' inner sign averages are
    the base's sign walks of their masked vectors
    (:func:`~rudlab.rademacher.sign_means`), so the batch is exact exactly
    when the base's is; a column past the enumeration cap
    (``DEFAULT_ENUM_CAP``) is refused with ``EnumerationCapError`` before
    any base call.
    """

    def __init__(self, base: Space, delta: Fraction):
        if delta <= 0:
            raise DomainError("renorm requires delta > 0")
        self.base = base
        self.delta = Fraction(delta)
        self.name = f"renorm:{base.name}:{delta}"
        self.zeros_restrict = base.zeros_restrict
        self.sweep_max_m = 8

    @staticmethod
    def _check_cap(mult: np.ndarray) -> None:
        check_cap(int(np.count_nonzero(mult, axis=0).max(initial=0)),
                  what="the renorm inner sign average of a column with {} entries")

    def mult_batch(self, a, mult):
        """delta * base + inner[which] as one integer batch: the base
        classes and the inner means' numerators over one common scale, the
        base roots times p^2 over ``roots_scale * q`` for delta = p/q, the
        classes in ascending core order."""
        self._check_cap(mult)
        base = self.base.mult_batch(a, mult)
        packed = None if base is None else sign_means(self.base, a, mult, exact=True)
        if packed is None:
            return None
        inner, which = packed
        p, q = self.delta.numerator, self.delta.denominator
        terms = [QSum.of(v).terms for v in inner]
        scale = lcm(q * base.scale, *(x.denominator for t in terms for x in t.values()))
        mul = scale // (q * base.scale) * p
        base_classes = base.classes or {}
        inner_nums: dict[int, list[int]] = {}
        for g, t in enumerate(terms):
            for core, x in t.items():
                inner_nums.setdefault(core, [0] * len(terms))[g] = int(x * scale)
        classes = {}
        for core in sorted({*base_classes, *inner_nums}):
            arr, nums = base_classes.get(core), inner_nums.get(core, [0] * len(terms))
            peak = _peak(arr) * mul if arr is not None else 0
            dtype = int_dtype(peak + max(map(abs, nums)))
            col = arr.astype(dtype) * mul if arr is not None else 0
            classes[core] = col + np.array(nums, dtype=dtype)[which]
        if base.roots is None:
            return ExactBatch.from_classes(classes, scale)
        # delta * sqrt(R) / rs = sqrt(R * p^2) / (rs * q)
        roots = base.roots.astype(int_dtype(_peak(base.roots) * p * p)) * (p * p)
        return ExactBatch(scale=scale, classes=classes or None,
                          roots=roots, roots_scale=base.roots_scale * q)

    def mult_batch_float(self, a, mult):
        self._check_cap(mult)
        base = self.base.mult_batch_float(a, mult)
        inner, which = sign_means(self.base, a, mult, exact=False)
        return np.array([float(x) for x in inner])[which] + float(self.delta) * base
