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
arrays are in the narrowest of int8, int16, int32 and int64 that a
Python-int bound shows no value can leave (:func:`~rudlab.batches.int_dtype`)
and in Python ints past int64; a value or denominator that a batch would
hold past the float range, and radical-valued entries outside the
norming-set engines, are refused (``NoIntegerForm``), and so is a renorm
column past the enumeration cap (``EnumerationCapError``).  The test suite
cross-checks the batches against independent brute-force oracles.

The linear and root engines (``lp:1``, ``lp:2``, ``linf``, ``summing``,
``summing_dual``, the ``james`` chains and pairs at p in {1, 2}, ``bmo``
and ``smax:2``) are one integer kernel each, whose working arrays take the
dtype of :func:`_kernel_bound`, and a float kernel that is the same
arithmetic on floats (:class:`_KernelSpace`).  Their float batch of a
rational vector over a power-of-two denominator with integer multipliers,
every Monte-Carlo chunk on such a vector included, is the float image of
the integer kernel where the kernel bound is below 2^53
(:func:`_dyadic_values`): the float kernel's floats bit for bit, from
int16 arrays at the benchmark's m = 40.  The norming-set and coding
engines keep their float batches.

Engines here: lp / linf, the summing norm and its dual, the chain-difference
supremum norms (one class: lp-accumulating chains, and l2 disjoint pairs),
the square-function-plus-partial-sup norm, the summing/lp maximum, generic
norming-set suprema, and the sign-average renorming.  Dyadic grid norms live
in :mod:`rudlab.dyadic`; the coding-function and tree constructions register
their engines from their own modules.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import inf, lcm
from typing import Callable, Iterable, Iterator, Sequence

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
    and its common denominator, in the dtype of :func:`_int_entries` for
    the multipliers' peak.  The batch an engine builds from it refuses what
    it would hold past the float range (:class:`ExactBatch`)."""
    ints, d = _int_entries(a, _peak(mult), gain)
    return ints[:, None] * mult.astype(ints.dtype), d


def _int_entries(a: Coeffs, peak: int = 1, gain: int = 1) -> tuple[np.ndarray, int]:
    """The entries of rational ``a`` as integer numerators over their common
    denominator, with that denominator, in the narrowest dtype that
    :func:`_kernel_bound` allows for multipliers of magnitude up to
    ``peak``."""
    cols, d = a.class_columns()
    if cols.keys() - {1}:
        raise NoIntegerForm("radical-valued entry: no integer form")
    ints = cols.get(1, ())
    return np.array(ints, dtype=int_dtype(_kernel_bound(ints, peak, gain))), d


def _kernel_bound(ints: Sequence[int], peak: int, gain: int) -> int:
    """``gain * S * max(S, 4M)``, with S the numerators' magnitudes summed
    and M their largest magnitude, each times the multipliers' ``peak``: a
    bound on every magnitude the integer kernels of the linear and root
    engines form on ``diag(ints) @ mult`` when ``gain`` bounds the weight
    a reduction puts on its inputs (2^levels dyadic atoms, a matrix's row
    sums).  Every linear form is at most S; every squared entry, and the
    sum of squares, at most S * M; a chain's or pair set's squared steps,
    each at most 2M, sum to at most 2M * 2S; the summing branch squared
    (``smax:2``) is at most S^2.  A peak below 1 counts as 1: the
    numerators themselves are held."""
    peak = max(peak, 1)
    s = sum(map(abs, ints)) * peak
    return gain * s * max(s, 4 * max(map(abs, ints), default=0) * peak)


def _dyadic_values(a: Coeffs, mult: np.ndarray) -> tuple[np.ndarray, int] | None:
    """:func:`_int_mult_values` of ``a`` and ``mult`` where the float kernel
    of a linear or root engine on them is exact: integer multipliers, and
    rational entries over a power-of-two denominator of at most
    ``_DYADIC_DEN`` whose :func:`_kernel_bound` is below 2^53.  Every float
    the kernel forms is then an integer below 2^53 over a power of two
    whose nonzero magnitudes stay normal, so each float operation is exact
    and sqrt commutes with the power-of-two scale: the integer kernel's
    float image equals the float kernel's bit for bit.  None otherwise,
    and for the empty vector.  The checks read the vector's integer form,
    built once per vector (:meth:`~rudlab.coeffs.Coeffs.class_columns`)."""
    if mult.dtype.kind not in "iu" or not a.is_exact():
        return None
    cols, d = a.class_columns()
    if cols.keys() != {1} or d & (d - 1) or d > _DYADIC_DEN \
            or _kernel_bound(cols[1], _peak(mult), 1) >= _FLOAT_EXACT:
        return None
    return _int_mult_values(a, mult)


#: float64 holds every integer of magnitude below this exactly
_FLOAT_EXACT = 1 << 53
#: largest common denominator :func:`_dyadic_values` takes: a nonzero
#: float the float kernels form on such entries, an integer over at most
#: its square, stays above 2^-1022, the smallest normal float
_DYADIC_DEN = 1 << 511
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
    """``np.cumsum(v, axis=0, dtype=v.dtype)``, array-equal (the same
    top-to-bottom sums in the same dtype).  On batches of at least
    ``_ROW_SCAN_COLS`` columns it is one vectorised add per row, several
    times faster than numpy's accumulate down the rows; narrower batches,
    where the per-row call costs more, keep ``cumsum``."""
    if v.shape[1] < _ROW_SCAN_COLS:
        return np.cumsum(v, axis=0, dtype=v.dtype)
    out = np.empty(v.shape, dtype=v.dtype)
    if len(v):
        out[0] = v[0]
    for i in range(1, len(v)):
        np.add(out[i - 1], v[i], out=out[i])
    return out


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
        over a column of ones).  On every engine a zero multiplier gives the
        norm of the vector without that entry, so each column is its
        vector's norm.  Float vectors, indices of mixed classes, an engine
        without an exact batch, and a union refused as having no integer
        form fall back to one :meth:`batch` per vector, which gives that
        vector's own value or refusal."""
        out: list[Scalar] = [0] * len(vectors)
        live = [j for j, a in enumerate(vectors) if a]
        for pack in family_packs([vectors[j] for j in live], [1] * len(live), len(live)):
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
            batch = ExactBatch.from_scalars(self.mult_batch_float(a, mult))
        return batch

    def mult_batch(self, a: Coeffs, mult: np.ndarray) -> ExactBatch | None:
        """Exact norms of the columns of ``diag(a) @ mult``.

        ``mult`` rows follow the sorted support of ``a``.  Returns None when
        the batch has no exact form; its columns are then evaluated by
        :meth:`mult_batch_float`.
        """
        return None

    def mult_batch_float(self, a: Coeffs, mult: np.ndarray) -> np.ndarray:
        """Float norms of the columns of ``diag(a) @ mult``, whose integer
        (sign and mask matrices come as int8) or float multipliers it
        takes alike."""
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
        would raise: the norming-set engine keeps the low columns' float
        image and each core's integer one, the chain engines the low nodes'
        DP table, the renorm engine the vector's inner sign average.
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


class _KernelSpace(Space):
    """An engine whose exact batch is one integer kernel, :meth:`_kernel`,
    over the matrix ``diag(a) @ mult`` (:func:`_int_mult_values`), and whose
    float batch is :meth:`_float_kernel`, the same arithmetic on floats.
    ``_exact`` is False for an exponent with no exact batch.

    The float batch of a vector that :func:`_dyadic_values` takes, such as
    every Monte-Carlo chunk of the sign matrix on a rational vector over a
    power-of-two denominator, is the float image of the integer kernel:
    the same floats bit for bit, from integer arrays in the narrowest dtype
    the kernel bound allows.  Every other float batch runs the float
    kernel."""

    _exact = True

    def _kernel(self, v: np.ndarray, support: tuple[int, ...], scale: int) -> ExactBatch:
        raise NotImplementedError

    def _float_kernel(self, v: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    def mult_batch(self, a, mult):
        if not self._exact:
            return None
        v, scale = _int_mult_values(a, mult)
        return self._kernel(v, a.support, scale)

    def mult_batch_float(self, a, mult):
        dyadic = _dyadic_values(a, mult) if self._exact else None
        if dyadic is not None:
            v, scale = dyadic
            return self._kernel(v, a.support, scale).float_values()
        return self._float_kernel(_float_values(a, mult), a.support)


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


class LpSpace(_KernelSpace):
    def __init__(self, p):
        self.p = p
        self.name = "linf" if p == inf else f"lp:{p}"
        self.law_walks = (False,) if p in (1, 2, inf) else ()
        self._exact = p in (1, 2, inf)

    def _kernel(self, v, support, scale):
        """Sums and maxima of |v|, at most S, and the sum of squares, at
        most S * M (:func:`_kernel_bound`)."""
        if self.p == 1:
            return ExactBatch.from_rational(np.abs(v).sum(axis=0), scale)
        if self.p == inf:
            return ExactBatch.from_rational(np.abs(v).max(axis=0), scale)
        return ExactBatch.from_roots((v**2).sum(axis=0), scale)

    def _float_kernel(self, v, support):
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


class SummingSpace(_KernelSpace):
    """max over support points of the absolute tail sum from that point."""

    name = "summing"
    law_walks = (False, True)

    def _kernel(self, v, support, scale):
        """Tail sums, at most S (:func:`_kernel_bound`)."""
        return ExactBatch.from_rational(_tail_maxabs(v), scale)

    def _float_kernel(self, v, support):
        return _tail_maxabs(v)

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


class SummingDualSpace(_KernelSpace):
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

    def _kernel(self, v, support, scale):
        """Edge terms, each entry in at most two: at most 2S
        (:func:`_kernel_bound`)."""
        return ExactBatch.from_rational(self._reduce(v, support), scale)

    def _float_kernel(self, v, support):
        return self._reduce(v, support)

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


def _chain_nodes(support: tuple[int, ...], pairs: bool = False) -> list[int]:
    """Node slots for the difference DP: -1 is a zero-valued node.

    The norm is a supremum over the zero-padded sequence, every index from
    0 to one past the last a node; the slots keep each support index and,
    of each run of zeros, the nodes a chain or pair set can use.  A chain
    gains nothing from a second zero in a row, so every run keeps one: the
    one before the first index (when there is room below it), each gap's
    and the one after the last index (coefficients vanish eventually).
    With ``pairs`` a gap of two or more missing indices keeps two, since
    one pair may end at the first and the next start at the second.  A
    zero multiplier then gives the norm of the vector without that entry:
    its zero node stands in for the padded zero it becomes.
    """
    nodes: list[int] = []
    for k, idx in enumerate(support):
        missing = idx - (support[k - 1] if k else -1) - 1
        if missing:
            nodes += [-1] * (2 if pairs and k and missing >= 2 else 1)
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


def _chain_table(nv: np.ndarray, power, pairs: bool = False) -> np.ndarray:
    """Best accumulated |difference|^power along increasing node chains:
    row j of the table is the best chain ending at node j.

    With ``pairs``, over disjoint increasing pairs instead: row j + 1 is
    the best using nodes 0..j, the better of leaving node j out (row j)
    and pairing it with an earlier node i after the best over the nodes
    before i (row i), so the table has one more row."""
    k, n = nv.shape
    exact = power in (1, 2)
    best = np.zeros((k + pairs, n), dtype=nv.dtype if exact else np.float64)
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
        np.max(g, axis=0, out=best[j + pairs])
        if pairs:
            np.maximum(best[j + 1], best[j], out=best[j + 1])
    return best


def _by_column_blocks(dp: Callable[[np.ndarray], np.ndarray], nv: np.ndarray) -> np.ndarray:
    """``dp(nv)`` for a DP whose columns are independent, run over column
    blocks (:func:`_column_blocks`) so that its table and temporaries stay
    within the bytes of ``_PRODUCT_BLOCK`` 8-byte entries, so more entries
    of a narrower integer dtype (one block of 4,096 int16 columns at
    m = 40, where each block's per-node calls cost more than its
    arithmetic); a batch that fits in one block runs whole."""
    blocks = _column_blocks(-(-nv.shape[0] * nv.itemsize // 8), nv.shape[1])
    if len(blocks) == 1:
        return dp(nv)
    return np.concatenate([dp(nv[:, sl]) for sl in blocks])


def _chain_dp(nv: np.ndarray, power) -> np.ndarray:
    """The best chain ending at the last node, per column, by column
    blocks.  At power 1 the best chain takes every node (triangle
    inequality), so on integers it is the total variation, the sum of
    |difference| down the nodes, exactly; floats keep the table, whose
    sums it would round in another order."""
    if power == 1 and nv.dtype != np.float64:
        return _by_column_blocks(
            lambda v: np.abs(np.diff(v, axis=0)).sum(axis=0, dtype=v.dtype), nv)
    return _by_column_blocks(lambda v: _chain_table(v, power)[-1], nv)


def _split_chain_dp(ints: np.ndarray, nodes: list[int], low: np.ndarray,
                    highs: np.ndarray, power) -> Iterator[np.ndarray]:
    """:func:`_chain_dp` of each chunk of a split walk (see
    :meth:`Space.split_batches`) of the entries ``ints``, exact powers only.

    The nodes up to the last low slot take the low rows' values and are
    tabled once.  Every later node holds one value c per chunk (0 on a
    zero node), and a chain reaching it from the low nodes is worth
    ``max_i(best_i + |v_i - c|^power)`` over them, which is memoised on c.
    A chain then runs on over the later nodes alone, whose values are the
    chunk's constants, so the best chain is ``max_i(reach[c_i] + D_i)``
    with ``D_i`` the best integer sum along later nodes from node i to the
    last (max and + distribute: the chunk's DP over its later nodes, taken
    on scalars)."""
    b = low.shape[0]
    cut = nodes.index(b - 1) + 1
    low_nv = _node_matrix(ints[:b, None] * low.astype(ints.dtype), nodes[:cut])
    best = _chain_table(low_nv, power)
    reach: dict[int, np.ndarray] = {}
    high = [slot - b if slot >= 0 else -1 for slot in nodes[cut:]]
    consts = _node_matrix(ints[b:, None] * highs.astype(ints.dtype), high)
    for col in consts.T.tolist():
        tail = [0] * len(col)
        for i in range(len(col) - 2, -1, -1):
            tail[i] = max(_gain(abs(col[j] - col[i]), power) + tail[j]
                          for j in range(i + 1, len(col)))
        out = None
        for c, d in zip(col, tail):
            if c not in reach:
                reach[c] = (best + _gain(np.abs(low_nv - c), power)).max(axis=0)
            row = reach[c] + d
            out = row if out is None else np.maximum(out, row, out=out)
        yield out


def _pairs_dp(nv: np.ndarray, power) -> np.ndarray:
    """The best over disjoint increasing pairs of all the nodes
    (:func:`_chain_table` with ``pairs``), per column, by column blocks."""
    return _by_column_blocks(lambda v: _chain_table(v, power, pairs=True)[-1], nv)


class JamesSpace(_KernelSpace):
    """Supremum over increasing index chains of the lp sum of consecutive
    differences (``james:chain`` at p = 2, ``james_x:P``), or at p = 2 over
    disjoint increasing pairs (``james:pairs``), of the zero-padded
    sequence of the entries (:func:`_chain_nodes`), so that a zero
    multiplier restricts, as on every engine.  Exact for p in {1, 2}."""

    def __init__(self, name: str, p=2, pairs: bool = False):
        self.name = name
        self.p = p
        self.pairs = pairs
        self._dp = _pairs_dp if pairs else _chain_dp
        self._exact = p in (1, 2)

    def _reduce(self, v, support):
        return self._dp(_node_matrix(v, _chain_nodes(support, self.pairs)), self.p)

    def _batch(self, dp, scale):
        if self.p == 1:
            return ExactBatch.from_rational(dp, scale)
        return ExactBatch.from_roots(dp, scale)

    def _kernel(self, v, support, scale):
        """The DP table: node differences, at most 2M, their squares, and
        sums of steps along a chain or pair set, at most 2M * 2S
        (:func:`_kernel_bound`)."""
        return self._batch(self._reduce(v, support), scale)

    def _float_kernel(self, v, support):
        dp = self._reduce(v, support)
        return np.sqrt(dp) if self.p == 2 else dp ** (1.0 / self.p)

    def split_batches(self, a, low, highs):
        if not self._exact or self.pairs:
            return None
        ints, scale = _int_entries(a)
        return (self._batch(dp, scale)
                for dp in _split_chain_dp(ints, _chain_nodes(a.support), low, highs, self.p))

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


class BmoRademacherSpace(_KernelSpace):
    """(sum a_i^2)^(1/2) + sup_n |sum_{k<=n} a_k|."""

    name = "bmo_rademacher"
    law_walks = (False,)

    def _kernel(self, v, support, scale):
        """Prefix sums, at most S, and the sum of squares, at most S * M
        (:func:`_kernel_bound`)."""
        pref = _prefix_maxabs(v)
        rad = (v**2).sum(axis=0)
        return ExactBatch(scale=scale, classes={1: pref}, roots=rad, roots_scale=scale)

    def _float_kernel(self, v, support):
        return _prefix_maxabs(v) + np.sqrt((v**2).sum(axis=0))

    def _law(self, a, v, masks):
        """The running-maximum DP over the prefix sums, plus the l2 norm,
        which signs do not change (masks do: no law for them)."""
        counts = _running_max_counts(v, False)
        if counts is None:
            return None
        outer, core = split_square(sum(x * x for x in v))
        n = np.arange(len(counts))
        return ({1: n + outer} if core == 1 else {1: n, core: np.full(len(n), outer)}), counts


class SmaxSpace(_KernelSpace):
    """max of the summing norm and the lp norm of the coefficients."""

    def __init__(self, p):
        if not (1 < float(p) <= 2):
            raise DomainError("smax requires 1 < p <= 2")
        self.p = p
        self.name = f"smax:{p}"
        self.law_walks = (False,) if p == 2 else ()
        self._exact = p == 2

    def _kernel(self, v, support, scale):
        """Tail sums s, at most S, s^2, at most S^2, and the sum of
        squares, at most S * M (:func:`_kernel_bound`)."""
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

    def _float_kernel(self, v, support):
        return np.maximum(_tail_maxabs(v), (np.abs(v) ** self.p).sum(axis=0) ** (1 / self.p))

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
    matrix is in the narrowest integer dtype its largest magnitude fits
    (:func:`int_dtype`), Python ints past int64;
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
    magnitude: the forms are in ``int_dtype`` of the bound, the narrowest
    integer dtype no such sum can leave, and Python ints past int64.  A
    bound or denominator past the float range is refused: the reduction's
    float pass reads the pairings before any batch is built."""
    vcols, vden = a.class_columns()
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


def _image_slack(bound: int, cores: Iterable[int], m: int) -> float:
    """How far a float image of pairings ``sum_c P_c sqrt(c)`` over ``m``
    entries may be from their exact value, when ``bound``, a Python int,
    bounds every sum of magnitudes over the entries and all cores
    (:func:`_core_forms`).  Each core's float is its exact integer rounded,
    or a float product within ``(m + 1) * eps`` of the magnitude sum; its
    scaling by sqrt(c), each core added and a low image added to a high
    one round once more, so ``(m + 2 * cores + 4) * 2^-52 * bound * max
    sqrt(c)`` bounds the error with room."""
    cores = list(cores)
    return (m + 2 * len(cores) + 4) * 2.0**-52 * float(bound) * max(cores)**0.5


def _normingset_reduce_blocks(block: Callable[[slice], dict[int, np.ndarray]],
                              rows: int, n: int, scale: int, slack: float = 0.0) -> ExactBatch:
    """max over functionals of |sum_c P_c sqrt(c)| / scale as an exact batch
    of ``n`` columns, from the (functional, column) pairings ``P_c`` of each
    radicand class that ``block(sl)`` builds for each column slice ``sl`` of
    :func:`_column_blocks`: :func:`_normingset_winners` of each block's
    float image, read exactly from the pairings, its entries within
    ``slack`` of them (:func:`_image_slack`).

    Every step is column-local, so the blocks give the whole-array values.
    ``rows`` bounds the entries per column of every array ``block`` builds,
    the pairings' functionals included: no such array and no temporary of
    the reduction holds more than ``_PRODUCT_BLOCK`` entries, and a batch
    that fits in one block is reduced whole."""
    parts = []
    for sl in _column_blocks(rows, n):
        pairs = block(sl)
        approx = sum(p.astype(np.float64) * (c**0.5) for c, p in pairs.items())
        parts.append(_normingset_winners(
            approx, lambda f, j: {c: p[f, j] for c, p in pairs.items()}, slack))
    return _sup_batch(parts, scale)


def _sup_batch(parts: list[dict[int, np.ndarray]], scale: int) -> ExactBatch:
    """The batch of the winners' pairings of consecutive column blocks."""
    if len(parts) == 1:
        return ExactBatch.from_classes(parts[0], scale)
    return ExactBatch.from_classes(
        {c: np.concatenate([part[c] for part in parts]) for c in parts[0]}, scale)


def _split_images(lows: dict[int, np.ndarray], low: np.ndarray, high: dict[int, np.ndarray],
                  bound: int, m: int
                  ) -> tuple[dict[int, np.ndarray], np.ndarray, np.ndarray, float]:
    """The images of a split walk's pairings (see
    :meth:`Space.split_batches`), each (columns, functionals): per core the
    low columns' exact integer image, in the narrowest integer dtype that
    ``bound`` allows; the float image ``sum_c P_c sqrt(c)`` of the low
    columns, and that of the high columns (chunks, functionals) from the
    exact high pairings ``high``; and how far the float images' sum may be
    from the exact pairing sum (:func:`_image_slack`)."""
    rows = next(iter(lows.values())).shape[0]
    n = low.shape[1]
    ints = {c: np.empty((n, rows), dtype=int_dtype(bound)) for c in lows}
    image = np.zeros((n, rows))
    for sl in _column_blocks(rows, n):
        at = low[:, sl].T
        for c, w in lows.items():
            p = _int_product(at, w.T, bound)
            ints[c][sl] = p
            image[sl] += p.astype(np.float64) * (c**0.5)
    high_image = sum(h.T.astype(np.float64) * (c**0.5) for c, h in high.items())
    return ints, image, high_image, _image_slack(bound, lows, m)


def _normingset_winners(approx: np.ndarray,
                        pairing: Callable[[np.ndarray, np.ndarray], dict[int, np.ndarray]],
                        slack: float = 0.0) -> dict[int, np.ndarray]:
    """Per class, the pairing of each column's winning functional, oriented
    so that the classes add up to a non-negative value.

    ``approx`` is a (functional, column) float image of the pairings
    ``sum_c P_c sqrt(c)``, each within ``slack`` of its exact value, in
    either memory layout; ``pairing(f, j)`` gives the exact ``P_c[f, j]``
    of each class at index arrays ``f`` and ``j``.  The float image picks
    each column's winner and its rivals, the functionals within
    ``_TIE_RTOL`` (plus twice ``slack``) of it; exact pairings are read
    only at the winners and the rivals, and the whole column only where a
    rival's pairings are neither the winner's nor all negated
    (:func:`first_extreme` decides those).  A winner whose float image is
    within 1e-12 (or twice ``slack``) of 0 takes its exact orientation.

    ``approx`` is overwritten by its absolute values: every caller passes
    a temporary, and no block then allocates a second image-sized array,
    whose paging-in cost would depend on the allocator's state."""
    neg = approx < 0  # the image's signs, read at the winners
    gap = np.abs(approx, out=approx)
    best = gap.argmax(axis=0)
    n = gap.shape[1]
    cols = np.arange(n)
    fv = gap[best, cols]
    near = gap >= (fv - _TIE_RTOL * (1.0 + fv) - 2 * slack)[None, :]
    near[best, cols] = False
    # the rivals, in the columns that hold any
    held = np.flatnonzero(near.any(axis=0))
    if near.flags.c_contiguous:
        fi, ji = np.nonzero(near[:, held])
    else:  # a column-major image: scan it in memory order
        ji, fi = np.nonzero(near.T[held])
    ji = held[ji]
    won = pairing(best, cols)
    # A rival whose per-class entries equal the winner's, or are all
    # negated, has exactly the winner's absolute value and cannot beat it;
    # only columns holding a rival with another key go to first_extreme.
    same = np.ones(len(fi), dtype=bool)
    flip = np.ones(len(fi), dtype=bool)
    for c, cv in pairing(fi, ji).items():
        bv = won[c][ji]
        same &= cv == bv
        flip &= cv == -bv
    # the sorted distinct columns; np.unique would import numpy.ma
    ties = np.flatnonzero(np.bincount(ji[~(same | flip)], minlength=n))
    funcs = np.arange(gap.shape[0])
    for j in ties.tolist():
        col = pairing(funcs, np.full(len(funcs), j))
        # key: the pairings up to sign, normalised by the first non-zero
        # entry (a float sign is unusable: a pairing can round to 0.0)
        key = np.stack(list(col.values()))
        lead = key[(key != 0).argmax(axis=0), funcs]
        key = key * np.where(lead < 0, -1, 1)
        best[j] = first_extreme(gap[:, j], key, lambda f: abs(_qval(col, f)), True, slack)[1]
    if len(ties):
        for c, v in pairing(best[ties], ties).items():
            won[c][ties] = v
    # orient so the stored class entries add up to a non-negative value
    signs = np.where(neg[best, cols], -1, 1)
    for j in np.flatnonzero(gap[best, cols] < max(1e-12, 2 * slack)).tolist():
        s = _qval(won, j).sign()  # exact orientation for tiny pairings
        signs[j] = s if s else 1
    return {c: v * signs for c, v in won.items()}


def _qval(pairs: dict[int, np.ndarray], *at: int) -> QSum:
    """The exact pairing ``sum_c pairs[c][at] sqrt(c)``."""
    return QSum.of(_fold([(1, [(c, int(p[at])) for c, p in pairs.items()])]))


class NormingSetSpace(Space):
    """sup over a norming family of |<phi, a>|.

    The provider returns, for a finite support, the restriction of the
    family to that support; the owning construction guarantees that this
    restriction is complete.  A family that should include the coordinate
    supremum lists the coordinate functionals itself.

    ``mult_batch`` is the one exact path, for rational and radical-valued
    vectors: the functionals' class matrices and the entries' classes make
    one integer form per square-free core (:func:`_core_forms`), and each
    core's pairings are that form times the multipliers, in the narrowest
    integer dtype a Python-int bound shows that no sum can leave, and in
    Python-int object arrays past int64.

    The pairings of a batch are built and reduced one column block at a
    time (:func:`_column_blocks`), so memory grows with family size times
    ``_PRODUCT_BLOCK // F`` columns, not times the chunk: no pairing block
    or reduction temporary holds more than ``_PRODUCT_BLOCK`` entries.
    Every reduction is :func:`_normingset_winners`, which picks each
    column's winning functional from a float image and reads exact
    pairings only at the winners and their near rivals.  A split walk
    keeps, for the whole walk, one float image of its low columns (F x
    chunk float64) and per-core low integer images in the narrowest
    integer dtype their bound allows (int16 at the benchmark's m = 18);
    each chunk adds its high column to the float image and reads its
    exact pairings from the integer ones (:meth:`split_batches`).  The
    float batch is blocked likewise at widths that are multiples of
    ``_BLAS_ALIGN`` (every Monte-Carlo chunk of 4,096 columns) and
    evaluated whole at other widths.
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
            rows, mult.shape[1], fscale * vden, _image_slack(bound, forms, len(a)))

    def split_batches(self, a, low, highs):
        """Each chunk's winners come from a float image: the low columns'
        image, built once per vector, plus the chunk's high column, one
        column block at a time (:func:`_split_images`).  The exact pairings
        are read only where :func:`_normingset_winners` asks: each core's
        low integer image, kept in the narrowest integer dtype its bound
        allows, plus the chunk's exact high pairing."""
        mats, fscale = self.class_mats(a.support)
        forms, vden, bound = _core_forms(a, mats, max(_peak(low), _peak(highs)))
        rows, n = next(iter(mats.values())).shape[0], low.shape[1]
        b = low.shape[0]
        high = {c: _int_product(w[:, b:], highs.astype(w.dtype), bound) for c, w in forms.items()}
        ints, image, high_image, slack = _split_images(
            {c: w[:, :b] for c, w in forms.items()}, low, high, bound, len(a))

        blocks = _column_blocks(rows, n)
        # each block's float image is summed into one buffer of the walk
        buf = np.empty(image[blocks[0]].shape)

        def chunk(k: int) -> ExactBatch:
            parts = []
            for sl in blocks:
                def pairing(f, j, sl=sl):
                    at = j * rows + f
                    return {c: p[sl].take(at) + high[c][f, k] for c, p in ints.items()}

                approx = np.add(image[sl], high_image[k], out=buf[:len(image[sl])])
                parts.append(_normingset_winners(approx.T, pairing, slack))
            return _sup_batch(parts, fscale * vden)

        return (chunk(k) for k in range(highs.shape[1]))

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


def _wide_dtype(bound: int) -> type:
    """int64, or Python ints past it: :func:`int_dtype` no narrower than
    int64."""
    return np.int64 if int_dtype(bound) is not object else object


class RenormSpace(Space):
    """norm_delta(a) = E ||sum eps_i a_i x_i||_base + delta * ||a||_base.

    The norm is the one-column batch.  The columns' inner sign averages are
    the base's sign walks of their masked vectors
    (:func:`~rudlab.rademacher.sign_means`), one integer batch with one
    column per distinct |column|, so the batch is exact exactly when the
    base's is, and its two terms add as integer arrays; a column past the
    enumeration cap (``DEFAULT_ENUM_CAP``) is refused with
    ``EnumerationCapError`` before any base call.
    """

    def __init__(self, base: Space, delta: Fraction):
        if delta <= 0:
            raise DomainError("renorm requires delta > 0")
        self.base = base
        self.delta = Fraction(delta)
        self.name = f"renorm:{base.name}:{delta}"
        self.sweep_max_m = 8

    @staticmethod
    def _check_cap(mult: np.ndarray) -> int:
        """The most entries of a column, refused past the cap."""
        return check_cap(int(np.count_nonzero(mult, axis=0).max(initial=0)),
                         what="the renorm inner sign average of a column with {} entries")

    def mult_batch(self, a, mult):
        """delta * base + inner[which] as one integer batch: the base
        classes and the inner means' numerators over one common scale, the
        base roots times p^2 over ``roots_scale * q`` for delta = p/q, the
        classes in ascending core order.  The inner means come as integer
        numerators (:func:`~rudlab.rademacher.sign_means`), so both terms
        are integer arrays.

        The scale is ``q`` times the base scale and the inner walks' common
        denominator, the base batch's denominator times 2^(k-1) for the
        longest column's k entries (and the inner means' own scale where
        that does not divide it): a function of ``a`` and the columns, not
        of the means, so a column's entries are the same in every batch of
        columns as long, however its inner walks are packed or chunked."""
        k = self._check_cap(mult)
        base = self.base.mult_batch(a, mult)
        packed = None if base is None else sign_means(self.base, a, mult, exact=True)
        if packed is None:
            return None
        return self._renormed(base, *packed, k)

    def split_batches(self, a, low, highs):
        """A sign walk's chunks all have the all-ones |column|, so the
        vector's own inner sign average is walked once and serves every
        chunk; each chunk's base batch is the base's split batch, or its
        ``mult_batch`` on the chunk.  A mask walk, whose chunks hold
        |columns| of their own, and a vector whose inner walk fits in one
        chunk (each chunk packs it into one base batch, and no walk past
        one chunk asks for it) take ``mult_batch`` chunk by chunk."""
        from .rademacher import _CHUNK, _walk_length

        m = len(a)
        if not (low.all() and highs.all()) or _walk_length(m, masks=False) <= _CHUNK:
            return None
        ones = np.ones((m, 1), dtype=np.int8)
        k = self._check_cap(ones)
        n = low.shape[1]
        bases = self.base.split_batches(a, low, highs) or (
            self.base.mult_batch(a, np.vstack([low, np.repeat(highs[:, j:j + 1], n, axis=1)]))
            for j in range(highs.shape[1]))
        first = next(bases)
        packed = None if first is None else sign_means(self.base, a, ones, exact=True)
        if packed is None:
            return None
        inner = packed[0]
        which = np.zeros(n, dtype=np.intp)
        return (self._renormed(base, inner, which, k) for base in itertools.chain([first], bases))

    def _renormed(self, base: ExactBatch, inner: ExactBatch, which: np.ndarray,
                  k: int) -> ExactBatch:
        """The batch of :meth:`mult_batch` from the base batch, the inner
        averages and each column's index into them, for columns of at most
        ``k`` entries.  Its arrays are int64 at least (:func:`_wide_dtype`):
        their bounds are the peaks of the columns at hand, so a narrower
        dtype would depend on which columns a batch holds."""
        p, q = self.delta.numerator, self.delta.denominator
        walks = lcm(base.scale, base.roots_scale or 1) << max(k - 1, 0)
        scale = lcm(q * base.scale, walks, inner.scale)
        mul = scale // (q * base.scale) * p
        imul = scale // inner.scale
        base_classes = base.classes or {}
        inner_classes = {core: arr for core, arr in inner.classes.items() if arr.any()}
        classes = {}
        for core in sorted({*base_classes, *inner_classes}):
            arr, nums = base_classes.get(core), inner_classes.get(core)
            peak = _peak(arr) * mul if arr is not None else 0
            ipeak = _peak(nums) * imul if nums is not None else 0
            dtype = _wide_dtype(peak + ipeak)
            col = arr.astype(dtype) * mul if arr is not None else 0
            classes[core] = col if nums is None else col + (nums.astype(dtype) * imul)[which]
        if base.roots is None:
            return ExactBatch.from_classes(classes, scale)
        # delta * sqrt(R) / rs = sqrt(R * p^2) / (rs * q)
        roots = base.roots.astype(_wide_dtype(_peak(base.roots) * p * p)) * (p * p)
        return ExactBatch(scale=scale, classes=classes or None,
                          roots=roots, roots_scale=base.roots_scale * q)

    def mult_batch_float(self, a, mult):
        self._check_cap(mult)
        base = self.base.mult_batch_float(a, mult)
        inner, which = sign_means(self.base, a, mult, exact=False)
        return inner.float_values()[which] + float(self.delta) * base
