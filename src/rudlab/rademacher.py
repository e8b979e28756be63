"""Sign-average engines.

Exact expectation over all sign patterns, exact subset (0/1 mask) and
permutation averages, second moments, and seeded Monte-Carlo estimation
with Student-t confidence brackets.

Exact enumeration is one walk over the canonical bitmask range in chunks
of ``_CHUNK`` columns.  Each chunk is one exact batch; its sums are folded
by exact addition and its extremes by exact comparison, the earlier index
winning ties, so results do not depend on the chunking and memory is
bounded by the chunk, not by 2^m.  Sign averages walk only the 2^(m-1)
patterns whose top bit is clear: a pattern and its complement give the
same norm, so the mean, mean square and extremes are those of all 2^m
patterns.  So is the first maximiser: had it its top bit set, its
complement would be a smaller maximiser.  Subset averages walk all 2^m
masks.  A vector with float entries, and a chunk whose engine returns no
exact batch, walk the same chunks through the engine's float batch, and
their reductions are float.

Monte-Carlo sample i is a pure function of (seed, i) via the counter-based
generator, so for a fixed seed and sample count an estimate is the same in
every run.  Its last bits depend on ``_MC_CHUNK``, which sets the order of
the float summation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .batches import ExactBatch, _scalar_gt
from .coeffs import (
    Coeffs,
    DomainError,
    EnumerationCapError,
    DEFAULT_ENUM_CAP,
    mask_matrix_range,
    sign_matrix_range,
)
from .exactnum import Scalar
from .rng import DEFAULT_SEED, sign_matrix
from .spaces import Space

_CHUNK = 1 << 13  # exact-enumeration chunk width (results are chunk-invariant)
_MC_CHUNK = 4096


@dataclass(frozen=True)
class ExpectationEstimate:
    """Value of a sign average with its method tag and rigor bracket."""

    value: Scalar
    method: str  # exact | monte_carlo | subsets | permutation
    samples: int = 0
    seed: int | None = None
    bracket: tuple[Scalar, Scalar] | None = None
    confidence: float | None = None

    def __post_init__(self):
        if self.method != "monte_carlo" and self.bracket is None:
            object.__setattr__(self, "bracket", (self.value, self.value))
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


def _check_cap(a: Coeffs, cap: int) -> int:
    m = len(a)
    if m > cap:
        raise EnumerationCapError(
            f"support of size {m} exceeds the enumeration cap {cap}; use expect_mc"
        )
    return m


@dataclass(frozen=True)
class FoldedStats:
    """Exact reductions of a walk longer than one chunk, folded chunk by
    chunk in one pass; answers the same queries as an :class:`ExactBatch`."""

    _mean: Scalar
    _mean_sq: Scalar
    _min: Scalar
    _max: Scalar
    _argmax: int
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
        return self._argmax


def _walk_length(m: int, masks: bool) -> int:
    """All 2^m masks, or the 2^(m-1) sign patterns whose top bit is clear."""
    return 1 << m if masks else 1 << max(m - 1, 0)


def _walk(space: Space, a: Coeffs, masks: bool) -> Iterator[tuple[int, ExactBatch]]:
    """(first bitmask, batch) for each chunk of the walk, in order.

    A vector with float entries, and a chunk for which the engine returns no
    exact batch, take the engine's float batch."""
    m = len(a)
    build = mask_matrix_range if masks else sign_matrix_range
    total = _walk_length(m, masks)
    exact = a.is_exact()
    for start in range(0, total, _CHUNK):
        mult = build(m, start, min(start + _CHUNK, total))
        batch = space.mult_batch(a, mult) if exact else None
        if batch is None:
            batch = ExactBatch.from_scalars(space.mult_batch_float(a, mult.astype(np.float64)))
        yield start, batch


def _stats(space: Space, a: Coeffs, cap: int, masks: bool) -> ExactBatch | FoldedStats:
    m = _check_cap(a, cap)
    total = _walk_length(m, masks)
    if total <= _CHUNK:
        return next(_walk(space, a, masks))[1]
    mean: Scalar = 0
    mean_sq: Scalar = 0
    lo = hi = None
    scalars = None
    for start, batch in _walk(space, a, masks):
        mean = mean + batch.mean(total)
        mean_sq = mean_sq + batch.mean_sq(total)
        v = batch.min()
        if lo is None or _scalar_gt(lo, v):
            lo = v
        i = batch.argmax()
        v = batch.value(i)
        if hi is None or _scalar_gt(v, hi[0]):  # ties keep the earlier index
            hi = (v, start + i)
        if batch.scalars is not None:
            scalars = (scalars or 0) + len(batch)
    return FoldedStats(mean, mean_sq, lo, hi[0], hi[1], scalars)


def _fold_mean(space: Space, a: Coeffs, cap: int, masks: bool, squared: bool) -> Scalar:
    total = _walk_length(_check_cap(a, cap), masks)
    acc: Scalar = 0
    for _, batch in _walk(space, a, masks):
        acc = acc + (batch.mean_sq(total) if squared else batch.mean(total))
    return acc


def sign_stats(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExactBatch | FoldedStats:
    """Exact mean, mean square, min, max and first argmax of the norms of a
    under all 2^m sign patterns (canonical bitmask order).

    Only the patterns with the top bit clear are evaluated, in chunks of
    ``_CHUNK`` columns.  A walk that fits in one chunk returns that chunk's
    ExactBatch; a longer one returns the reductions folded exactly over its
    chunks, so memory is bounded by the chunk, not by 2^m.
    """
    return _stats(space, a, cap, masks=False)


def subset_stats(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExactBatch | FoldedStats:
    """Exact reductions of the norms of a under all 2^m coordinate masks,
    walked and folded as in :func:`sign_stats`."""
    return _stats(space, a, cap, masks=True)


def expect_exact(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    if not a:
        return ExpectationEstimate(0, "exact")
    return ExpectationEstimate(_fold_mean(space, a, cap, masks=False, squared=False), "exact")


def expect_second_moment(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    if not a:
        return ExpectationEstimate(0, "exact")
    return ExpectationEstimate(_fold_mean(space, a, cap, masks=False, squared=True), "exact")


def expect_subsets(space: Space, a: Coeffs, cap: int = DEFAULT_ENUM_CAP) -> ExpectationEstimate:
    if not a:
        return ExpectationEstimate(0, "subsets")
    return ExpectationEstimate(_fold_mean(space, a, cap, masks=True, squared=False), "subsets")


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


def _t_quantile(df: int, confidence: float) -> float:
    """Two-sided Student-t quantile; ``stdtrit`` is what ``scipy.stats.t.ppf``
    evaluates, without the cost of importing ``scipy.stats``."""
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


def expect_mc(
    space: Space,
    a: Coeffs,
    samples: int,
    seed: int = DEFAULT_SEED,
    confidence: float = 0.95,
) -> ExpectationEstimate:
    """Seeded Monte-Carlo mean of norms over i.i.d. uniform sign patterns.

    The bracket is a two-sided Student-t confidence interval from the
    sample mean and sample variance; it is statistical, not rigorous.  The
    variance merges each chunk's mean and sum of squared deviations as in
    Chan, Golub & LeVeque (1983), so a constant sample has variance 0.
    """
    if not 0 < confidence < 1:
        raise DomainError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    if samples < 100:
        raise DomainError("Monte-Carlo estimation requires at least 100 samples")
    if not a:
        return ExpectationEstimate(
            0.0, "monte_carlo", samples, seed, (0.0, 0.0), confidence
        )
    m = len(a)
    total = 0.0
    mu = 0.0  # running mean and sum of squared deviations of the done samples
    m2 = 0.0
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        signs = sign_matrix(seed, m, n, start=done).astype(np.float64)
        vals = space.mult_batch_float(a, signs)
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


def expect_auto(
    space: Space,
    a: Coeffs,
    cap: int = DEFAULT_ENUM_CAP,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
    confidence: float = 0.95,
) -> ExpectationEstimate:
    """Exact when the support fits under the cap, Monte-Carlo otherwise."""
    try:
        return expect_exact(space, a, cap)
    except EnumerationCapError:
        return expect_mc(space, a, samples, seed, confidence)
