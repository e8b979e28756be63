"""Sign-average engines.

Exact expectation over all sign patterns, exact subset (0/1 mask) and
permutation averages, second moments, and seeded Monte-Carlo estimation
with Student-t confidence brackets.

Exact enumeration is one walk over the canonical bitmask range in chunks
of ``_CHUNK`` columns.  Each chunk is one exact batch.  Its sums are folded
as integers, one Python-int total per denominator and radicand, and the
walk's mean and mean square are each built once from those totals, as one
batch of the whole walk would build them (:class:`_Fold`).  Its extremes
are compared with the walk's by their integers, or their floats where
those decide, and exactly otherwise, the earlier index winning ties.  So
results, and the form of each exact value, do not depend on the chunking,
and memory is bounded by the chunk, not by 2^m.  Within a chunk only the low
log2(``_CHUNK``) mask bits vary, so an engine may build the part of its
batches that the low bits decide once per vector and add each chunk's
constant high part (:meth:`~rudlab.spaces.Space.split_batches`, the
split-half idea of Horowitz & Sahni, JACM 1974); its batches are
array-equal to the ones ``mult_batch`` gives chunk by chunk: the
norming-set engine picks each column's winner from one float image and
reads exact pairings only where the floats cannot decide, and the renorm
engine walks a sign walk's inner average once.  The walks of
one vector are ``_stats`` over a tuple of walk kinds: :func:`sign_stats`
and :func:`subset_stats` are its one-walk cases, and :func:`pair_stats`
takes both.  Where the 2^(m-1) sign patterns and the 2^m masks of an exact
vector fit in one chunk together (m <= 12, every sweep vector), the pair
walk is one engine batch over both pattern sets side by side, and each
walk's statistics are its column view of it
(:meth:`~rudlab.batches.ExactBatch.columns`); otherwise it is the two
walks.

There is no sign walk outside this module: the renorm engine's inner
averages are :func:`sign_means`, which packs whole one-chunk walks into
shared batches and hands each longer one to :func:`sign_stats`, and
returns the averages as one exact batch, one column per distinct
|column|: integer numerators over one scale, summed from the packed
batches' pieces (:meth:`~rudlab.batches.ExactBatch.core_sums`), never a
``Fraction`` per average.  :func:`family_means` packs the one-chunk walks
of a family of vectors the same way, over the family's base vector
(:func:`~rudlab.coeffs.family_form`), and reads that batch.  Every chunk
that is not split, and every packed float batch, is
:meth:`~rudlab.spaces.Space.batch`: exact or float by the engine's one
rule.

Before it walks several chunks, a walk asks the engine for the exact
distribution of the norm over all its patterns
(:meth:`~rudlab.spaces.Space.sign_distribution`, the one gate of every
engine's law), and folds the mean, mean square and extremes from the
distinct values and their counts instead.  The sign walks of ``lp:1``,
``lp:2``, ``linf`` (one value), ``summing``, ``bmo``, ``smax:2`` (a DP
over the running sum and its running maximum) and ``summing_dual`` (a
convolution of independent two-point terms) and the subset walks of
``summing`` take it while their entries are exact, their integer form
keeps every sum in int64 and the count table stays within 2^16 cells
(``spaces._LAW_CELLS``).  The reductions equal the walk's; the first
maximiser is walked for on first use.  One-chunk walks, and everything
else, walk.  The empty support is the one pattern of norm 0.

Sign averages walk only the 2^(m-1) patterns whose top bit is clear: a
pattern and its complement give the same norm, so the mean, mean square
and extremes are those of all 2^m patterns.  So is the first maximiser: had it its top bit set, its
complement would be a smaller maximiser.  Subset averages walk all 2^m
masks.  A vector with float entries, and a chunk whose engine returns no
exact batch, walk the same chunks through the engine's float batch, and
their reductions are float: a walk's means are the exact sums of the chunks
before its first float chunk plus each later chunk's float mean, added
left to right.

Monte-Carlo sample i is a pure function of (seed, i) via the counter-based
generator, so for a fixed seed and sample count an estimate is the same in
every run; its int8 signs go to the engine's float batch uncast.  Its
last bits depend on ``_MC_CHUNK``, which sets the order of the float
summation.  A support with no more sign patterns than samples (up
to 2^16) is evaluated once per pattern whose top bit is clear, a table of
at most 2^15 floats, and each sample reads its pattern's norm or its
complement's.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

import numpy as np

from .batches import BatchSums, ExactBatch, Pick, int_dtype
from .coeffs import (
    Coeffs,
    DomainError,
    DEFAULT_ENUM_CAP,
    check_cap,
    family_form,
    family_packs,
    mask_matrix_range,
    sign_matrix_range,
)
from .exactnum import QSum, Scalar
from .rng import DEFAULT_SEED, sign_codes, sign_matrix

if TYPE_CHECKING:
    from .spaces import Space

#: exact-enumeration chunk width, a power of two of at least 2 (results are
#: chunk-invariant)
_CHUNK = 1 << 13
_MC_CHUNK = 4096
#: most sign patterns of a support whose Monte-Carlo norms are tabled: the
#: top-bit-clear half, 2^15 float64 values, 256 KiB
_MC_TABLE = 1 << 16


#: the method tags of an :class:`ExpectationEstimate`
_METHODS = ("exact", "monte_carlo", "subsets", "permutation")


@dataclass(frozen=True)
class ExpectationEstimate:
    """Value of a sign average with its method tag (one of ``_METHODS``) and
    rigor bracket, which a Monte-Carlo estimate must give and an exact one
    may leave to default to (value, value)."""

    value: Scalar
    method: str
    samples: int = 0
    seed: int | None = None
    bracket: tuple[Scalar, Scalar] | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if self.bracket is None:
            if self.method == "monte_carlo":
                raise DomainError("a Monte-Carlo estimate needs a bracket")
            object.__setattr__(self, "bracket", (self.value, self.value))
            return
        lo, hi = self.bracket
        if not float(lo) <= float(self.value) <= float(hi):
            raise DomainError("bracket must contain the estimate")

    @property
    def upper(self) -> Scalar:
        return self.bracket[1]

    @property
    def lower(self) -> Scalar:
        return self.bracket[0]

    def to_json(self) -> dict:
        lo, hi = self.bracket
        return {
            "value": float(self.value),
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "bracket": [float(lo), float(hi)],
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class FoldedStats:
    """Exact reductions of a walk longer than one chunk, folded chunk by
    chunk in one pass (:class:`_Fold`: integer sums, each exact value built
    once per walk) or reduced from the engine's distribution; answers the
    same queries as an :class:`ExactBatch`, with the values and value forms
    one batch of the whole walk gives."""

    _mean: Scalar
    _mean_sq: Scalar
    _min: Scalar
    _max: Scalar
    #: the first maximiser, or the walk that finds it on first use
    _argmax: int | Callable[[], int]
    #: as on ExactBatch: None unless some chunk was a float batch (then the
    #: number of float columns)
    scalars: int | None = None

    def mean(self) -> Scalar:
        return self._mean

    def mean_sq(self) -> Scalar:
        return self._mean_sq

    def min(self) -> Scalar:
        return self._min

    def max(self) -> Scalar:
        return self._max

    def argmax(self) -> int:
        if callable(self._argmax):
            object.__setattr__(self, "_argmax", self._argmax())
        return self._argmax


class _Fold:
    """The chunk-by-chunk fold of one walk of ``total`` patterns into its
    :class:`FoldedStats`.

    While every chunk is exact, its sums stay integers
    (:class:`~rudlab.batches.BatchSums`), and the mean and mean square are
    each built once, at the end, as one batch over the whole walk would
    build them.  From the first float chunk on, the means are floats: the
    exact sums so far, then each later chunk's mean added left to right.
    The extremes are picks (:class:`~rudlab.batches.Pick`), each chunk's
    first extreme against the walk's so far, the earlier index winning
    ties, so only the walk's two extremes are built."""

    def __init__(self, total: int):
        self.total = total
        self.sums = BatchSums()
        self.means: tuple[Scalar, Scalar] | None = None  # from the first float chunk on
        self.lo: Pick | None = None
        self.hi: Pick | None = None
        self.hi_at = 0
        self.scalars: int | None = None

    def add(self, start: int, batch: ExactBatch) -> None:
        if batch.scalars is None and self.means is None:
            self.sums.add(batch)
        else:
            mean, mean_sq = self.means or self._exact_means()
            self.means = (mean + batch.mean(self.total), mean_sq + batch.mean_sq(self.total))
            self.scalars = (self.scalars or 0) + len(batch)
        lo = Pick(batch, batch.argmin())
        if self.lo is None or self.lo.gt(lo):
            self.lo = lo
        hi = Pick(batch, batch.argmax())
        if self.hi is None or hi.gt(self.hi):  # ties keep the earlier index
            self.hi, self.hi_at = hi, start + hi.index

    def _exact_means(self) -> tuple[Scalar, Scalar]:
        return self.sums.mean(self.total), self.sums.mean_sq(self.total)

    def stats(self) -> FoldedStats:
        return FoldedStats(*(self.means or self._exact_means()), self.lo.value(),
                           self.hi.value(), self.hi_at, self.scalars)


def _walk_length(m: int, masks: bool) -> int:
    """All 2^m masks, or the 2^(m-1) sign patterns whose top bit is clear."""
    return 1 << m if masks else 1 << max(m - 1, 0)


def _walk(space: Space, a: Coeffs, masks: bool) -> Iterator[tuple[int, ExactBatch]]:
    """(first bitmask, batch) for each chunk of the walk, in order.

    An exact vector whose walk spans several chunks is offered to the
    engine's :meth:`~rudlab.spaces.Space.split_batches`: chunk k's masks are
    the b = log2(``_CHUNK``) low bits of 0..``_CHUNK``-1 over the high bits
    of k.  Otherwise, and where that returns None, each chunk is one
    :meth:`~rudlab.spaces.Space.batch`, exact for an exact vector where the
    engine gives an exact batch and float otherwise."""
    m = len(a)
    build = mask_matrix_range if masks else sign_matrix_range
    total = _walk_length(m, masks)
    exact = a.is_exact()
    if exact and total > _CHUNK:
        b = _CHUNK.bit_length() - 1
        split = space.split_batches(a, build(b, 0, _CHUNK), build(m - b, 0, total >> b))
        if split is not None:
            yield from zip(range(0, total, _CHUNK), split)
            return
    for start in range(0, total, _CHUNK):
        yield start, space.batch(a, build(m, start, min(start + _CHUNK, total)), exact)


def _first_argmax(space: Space, a: Coeffs, masks: bool, top: Scalar) -> int:
    """The walk's first index whose norm is the maximum ``top``."""
    for start, batch in _walk(space, a, masks):
        i = batch.argmax()
        if not top > batch.value(i):
            return start + i
    raise AssertionError("the maximum is the norm of some pattern")


def _stats(space: Space, a: Coeffs, cap: int,
           kinds: tuple[bool, ...]) -> tuple[ExactBatch | FoldedStats, ...]:
    """The statistics of each walk of ``kinds`` (False for the sign
    patterns, True for the 0/1 masks) over a.

    Walks of an exact vector that fit in one chunk together are one
    :meth:`~rudlab.spaces.Space.batch` over their patterns side by side,
    and each walk's statistics are its columns of it
    (:meth:`~rudlab.batches.ExactBatch.columns`); a single walk of any
    vector that fits is its one chunk.  Otherwise each walk runs on its
    own: several chunks take the engine's law or fold chunk by chunk."""
    if not a:  # the one pattern of the empty support has norm 0
        return (ExactBatch.from_rational(np.zeros(1, dtype=np.int64), 1),) * len(kinds)
    m = check_cap(len(a), cap)
    totals = [_walk_length(m, masks) for masks in kinds]
    if sum(totals) <= _CHUNK and (len(kinds) == 1 or a.is_exact()):
        if len(kinds) == 1:
            return (next(_walk(space, a, kinds[0]))[1],)
        mult = np.concatenate([(mask_matrix_range if masks else sign_matrix_range)(m, 0, total)
                               for masks, total in zip(kinds, totals)], axis=1)
        batch = space.batch(a, mult, True)
        ends = np.cumsum(totals).tolist()
        return tuple(batch.columns(hi - total, hi) for total, hi in zip(totals, ends))
    if len(kinds) > 1:
        return tuple(_stats(space, a, cap, (masks,))[0] for masks in kinds)
    masks, = kinds
    total, = totals
    dist = space.sign_distribution(a, masks)
    if dist is not None:
        values, counts = dist
        top = values.max()
        return (FoldedStats(values.mean(1 << m, counts), values.mean_sq(1 << m, counts),
                            values.min(), top, lambda: _first_argmax(space, a, masks, top)),)
    fold = _Fold(total)
    for start, batch in _walk(space, a, masks):
        fold.add(start, batch)
    return (fold.stats(),)


def sign_stats(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExactBatch | FoldedStats:
    """Exact mean, mean square, min, max and first argmax of the norms of a
    under all 2^m sign patterns (canonical bitmask order).

    Only the patterns with the top bit clear are evaluated, in chunks of
    ``_CHUNK`` columns.  A walk that fits in one chunk returns that chunk's
    ExactBatch; a longer one returns the reductions folded exactly over its
    chunks, so memory is bounded by the chunk, not by 2^m, or reduced from
    the engine's exact distribution where it has one (see the module
    docstring).
    """
    return _stats(space, a, cap, (False,))[0]


def subset_stats(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExactBatch | FoldedStats:
    """Exact reductions of the norms of a under all 2^m coordinate masks,
    walked and folded as in :func:`sign_stats`."""
    return _stats(space, a, cap, (True,))[0]


def pair_stats(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP
               ) -> tuple[ExactBatch | FoldedStats, ExactBatch | FoldedStats]:
    """``(sign_stats(space, a, cap), subset_stats(space, a, cap))`` from one
    engine batch where the 2^(m-1) sign patterns and the 2^m masks of an
    exact vector fit in one chunk together (m <= 12 at the default chunk):
    each is a column view of that batch, with the values, reductions and
    first argmax of its own walk.  Otherwise, and for a float vector, the
    two walks run one after the other."""
    return _stats(space, a, cap, (False, True))


def sign_means(space: Space, a: Coeffs, mult: np.ndarray,
               exact: bool) -> tuple[ExactBatch, np.ndarray] | None:
    """Sign averages of the masked vectors ``a * |mult[:, j]|`` as one batch
    with one column per distinct |column| (the average is sign-invariant;
    an empty one is 0), and each column's index into it: the renorm
    engine's inner averages and, over a family's base vector,
    :func:`family_means`.

    Each is the sign walk of its masked vector.  A walk of at most
    ``_CHUNK`` patterns is packed whole with others into one batch of at
    most ``_CHUNK`` columns (the engine's ``mult_batch`` when ``exact``,
    else its float :meth:`~rudlab.spaces.Space.batch`), and its piece of
    the batch gives its sum (:meth:`~rudlab.batches.ExactBatch.core_sums`);
    a longer one is :func:`sign_stats` of the masked vector, so it takes
    the engine's exact law, split walk or chunk fold.

    When ``exact`` the batch is classes only, in ascending core order:
    integer numerators over one scale, the lcm of the averages' reduced
    denominators.  The scale is a function of the averages alone, so the
    batch is array-equal however the walks are packed or chunked.
    Otherwise it is a float batch.  None when ``exact`` and the engine has
    no exact batch for a pack."""
    cols, which = np.unique(np.abs(mult), axis=1, return_inverse=True)
    n = cols.shape[1]
    means: list[float] = [0.0] * n
    # exact: per core the numerator of each average over its denominator
    nums: dict[int, list[int]] = {}
    dens = [1] * n
    batches: list[list[tuple[int, int]]] = []
    width = _CHUNK  # of the open batch; a full one makes the next walk open one
    for g, k in enumerate(np.count_nonzero(cols, axis=0).tolist()):
        if not k:
            continue
        total = _walk_length(k, masks=False)
        if total > _CHUNK:
            masked = Coeffs.from_pairs((i, v * int(c)) for (i, v), c in zip(a, cols[:, g]))
            mu = sign_stats(space, masked).mean()
            if not exact:
                means[g] = float(mu)
                continue
            terms = QSum.of(mu).terms
            dens[g] = lcm(*(x.denominator for x in terms.values()))
            for core, x in terms.items():
                nums.setdefault(core, [0] * n)[g] = x.numerator * (dens[g] // x.denominator)
            continue
        if width + total > _CHUNK:
            batches.append([])
            width = 0
        batches[-1].append((g, total))
        width += total
    for part in batches:
        group, widths = zip(*part)
        starts = np.cumsum((0,) + widths[:-1])
        masks = np.arange(sum(widths)) - np.repeat(starts, widths)
        c = cols[:, np.repeat(group, widths)]
        # bit j of a pattern's mask flips the j-th row of its group's support
        place = np.maximum(np.cumsum(c != 0, axis=0) - 1, 0)
        signed = np.where((masks >> place) & 1, -c, c)
        if not exact:
            for g, mu in zip(group, space.batch(a, signed, False).group_means(
                    starts.tolist(), widths)):
                means[g] = mu
            continue
        batch = space.mult_batch(a, signed)
        if batch is None:
            return None
        den, sums = batch.core_sums(starts.tolist())
        for g, w in part:
            dens[g] = den * w
        for core, piece in sums.items():
            col = nums.setdefault(core, [0] * n)
            for g, x in zip(group, piece):
                col[g] = x
    if not exact:
        return ExactBatch.from_scalars(means), which
    scale = lcm(*(d // gcd(x, d) for col in nums.values() for x, d in zip(col, dens) if x))
    classes = {}
    for core in sorted(nums):
        col = [x * scale // d for x, d in zip(nums[core], dens)]
        classes[core] = np.array(col, dtype=int_dtype(max(map(abs, col))))
    return ExactBatch.from_classes(classes or {1: np.zeros(n, dtype=np.int64)}, scale), which


def family_means(space: Space, vectors: Sequence[Coeffs],
                 cap: int = DEFAULT_ENUM_CAP) -> list[Scalar]:
    """``sign_stats(space, a, cap).mean()`` for each of ``vectors``, each
    refused past ``cap`` (:func:`~rudlab.coeffs.check_cap`) before any
    walk.

    The exact vectors whose walks fit in one chunk are cut, in order, into
    packs of at most ``_CHUNK`` patterns within the family budget
    (:func:`~rudlab.coeffs.family_packs`), and each pack is one
    :func:`sign_means` of its family's base vector
    (:func:`~rudlab.coeffs.family_form`): a zero multiplier gives the norm
    of the vector without that entry on every engine, so each masked walk
    is its vector's.  A longer walk, a float vector, and a pack with no
    family form or no exact batch walk on their own, through
    :func:`sign_stats`."""
    for a in vectors:
        check_cap(len(a), cap)
    means: list[Scalar] = [0] * len(vectors)
    short = []
    for j, a in enumerate(vectors):
        if a and _walk_length(len(a), masks=False) <= _CHUNK and a.is_exact():
            short.append(j)
        else:
            means[j] = _stats(space, a, cap, (False,))[0].mean()
    for pack in family_packs([vectors[j] for j in short],
                             [_walk_length(len(vectors[j]), masks=False) for j in short], _CHUNK):
        pack = [short[k] for k in pack]
        family = family_form([vectors[j] for j in pack])
        packed = None if family is None else sign_means(space, *family, exact=True)
        if packed is None:
            for j in pack:
                means[j] = _stats(space, vectors[j], cap, (False,))[0].mean()
            continue
        values, which = packed
        for j, g in zip(pack, which.ravel().tolist()):
            means[j] = values.value(g)
    return means


def expect_exact(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    return ExpectationEstimate(_stats(space, a, cap, (False,))[0].mean(), "exact")


def expect_second_moment(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    return ExpectationEstimate(_stats(space, a, cap, (False,))[0].mean_sq(), "exact")


def expect_subsets(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    return ExpectationEstimate(_stats(space, a, cap, (True,))[0].mean(), "subsets")


def expect_perm(
    space: Space,
    a: Coeffs,
    perm_cap: int = 8,
    span: tuple[int, int] | None = None,
) -> ExpectationEstimate:
    """Exact average over all placements of the coefficients along a
    contiguous index range (default: the span of the support); positions
    without a coefficient carry zeros and are permuted too."""
    if not a:
        return ExpectationEstimate(0, "permutation")
    lo, hi = span if span is not None else (a.support[0], a.support[-1])
    if lo > a.support[0] or hi < a.support[-1]:
        raise DomainError("span must cover the support")
    positions = list(range(lo, hi + 1))
    if len(positions) > perm_cap:
        raise DomainError(
            f"span of size {len(positions)} exceeds the permutation cap {perm_cap}"
        )
    values = [a.value(i) for i in positions]
    total: Scalar = 0
    count = 0
    for perm in itertools.permutations(values):
        total = total + space.norm(Coeffs.from_pairs(zip(positions, perm)))
        count += 1
    return ExpectationEstimate(total * Fraction(1, count), "permutation")


@functools.cache
def _t_quantile(df: int, confidence: float) -> float:
    """Two-sided Student-t quantile: the t >= 0 with P(T <= t) = p for
    p = 0.5 + confidence / 2.0 (a float), correctly rounded to a float.

    t is the root of I_x(1/2, df/2) = 2p - 1 at x = t^2 / (df + t^2), the
    two-sided form of I_{df/(df+t^2)}(df/2, 1/2) / 2 = 1 - p; its x is small,
    so the incomplete beta series is several times cheaper.
    ``mpmath.findroot`` solves it from the normal quantile at 128 bits, then
    at twice the precision, doubling until two precisions round to the same
    float (Ziv's strategy, TOMS 17(3), 1991).  The ``stdtrit`` routine this
    replaces was one or two ulp off at the repo's points, so bracket
    endpoints moved by at most one ulp.  Each (df, confidence) pair is
    evaluated once per process."""
    import mpmath
    from statistics import NormalDist

    p = 0.5 + confidence / 2.0
    if p == 1.0:  # confidence within an ulp of 1
        return math.inf
    start = NormalDist().inv_cdf(p)
    prec, last = 128, None
    while True:
        with mpmath.workprec(prec):
            nu = mpmath.mpf(df)
            mass = 2 * mpmath.mpf(p) - 1  # exact: p is a float
            t = float(abs(mpmath.findroot(
                lambda t: mpmath.betainc(0.5, nu / 2, 0, t * t / (nu + t * t), regularized=True)
                - mass,
                start)))
        if t == last:
            return t
        prec, last = 2 * prec, t

def samples_ok(samples: int) -> bool:
    """Whether :func:`expect_mc` takes this many samples: at least 100."""
    return samples >= 100


def confidence_ok(confidence: float) -> bool:
    """Whether :func:`expect_mc` takes this confidence: strictly between 0
    and 1."""
    return 0 < confidence < 1


def expect_mc(
    space: Space,
    a: Coeffs,
    samples: int,
    seed: int = DEFAULT_SEED,
    confidence: float = 0.95,
) -> ExpectationEstimate:
    """Seeded Monte-Carlo mean of norms over i.i.d. uniform sign patterns.

    The bracket is a two-sided Student-t confidence interval from the
    sample mean and sample variance; it is statistical, not rigorous.  Its
    quantile (:func:`_t_quantile`, an mpmath root refined until two
    precisions agree) is correctly rounded; endpoints recorded while it came
    from ``stdtrit`` may differ from today's by one ulp.  The
    variance merges each chunk's mean and sum of squared deviations as in
    Chan, Golub & LeVeque (1983), so a constant sample has variance 0.

    Each chunk's signs reach the engine's float batch as the int8 sign
    matrix, never cast to floats.  The linear and root engines run that
    batch through their integer kernel for a rational vector over a
    power-of-two denominator whose kernel bound is below 2^53, such as the
    benchmark's m = 40 palette vectors, with the float kernel's floats bit
    for bit (:class:`~rudlab.spaces._KernelSpace`), so the estimate and
    bracket do not depend on which kernel ran.

    A support with at most ``min(samples, _MC_TABLE)`` sign patterns is
    evaluated once per pattern whose top bit is clear: the engine's float
    batch over those 2^(m-1) patterns in bitmask order, in slices of
    ``_MC_CHUNK`` columns, is a table that each chunk reads at its samples'
    codes (:func:`rudlab.rng.sign_codes`), a code with its top bit set at
    its complement, the negated pattern, whose norm is the same float (an
    engine's float batch is sign-symmetric, as the float walks assume).
    The chunks, their sums and the merge are those of the per-sample path, and
    so are the norms wherever the engine gives a column the same float in any
    batch of two or more columns.  A one-column batch may sum in another order,
    so a one-column tail chunk (``samples`` one past a multiple of
    ``_MC_CHUNK``) can differ in its last bits from that path's.
    """
    if not confidence_ok(confidence):
        raise DomainError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if not samples_ok(samples):
        raise DomainError("Monte-Carlo estimation requires at least 100 samples")
    if not a:
        return ExpectationEstimate(
            0.0, "monte_carlo", samples, seed, (0.0, 0.0), confidence
        )
    m = len(a)
    full = 1 << m
    table = None
    if full <= min(samples, _MC_TABLE):
        half = full // 2  # the top-bit-clear patterns; a code's complement negates it
        table = np.concatenate([
            space.mult_batch_float(a, sign_matrix_range(m, start, min(start + _MC_CHUNK, half)))
            for start in range(0, half, _MC_CHUNK)
        ])
    total = 0.0
    mu = 0.0  # running mean and sum of squared deviations of the done samples
    m2 = 0.0
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        if table is not None:
            codes = sign_codes(seed, m, n, start=done)
            vals = table[np.minimum(codes, codes ^ np.uint64(full - 1))]
        else:
            vals = space.mult_batch_float(a, sign_matrix(seed, m, n, start=done))
        total += float(vals.sum())
        mu_b = float(vals.mean())
        delta = mu_b - mu
        m2 += float(((vals - mu_b) ** 2).sum()) + delta * delta * done * n / (done + n)
        mu += delta * n / (done + n)
        done += n
    mean = total / samples
    half = _t_quantile(samples - 1, confidence) * math.sqrt(m2 / (samples - 1) / samples)
    return ExpectationEstimate(
        mean, "monte_carlo", samples, seed, (mean - half, mean + half), confidence
    )

