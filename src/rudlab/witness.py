"""The defining ratios of the basis constants, and the partition bound.

The ratios compare a vector's norm with its exact sign average:
convergence side E/norm, divergence side norm/E, plus the plain sign-flip
distortion.  Each is the float quotient of two exact values; the constant is
the supremum of its ratio over all vectors.  :func:`partition_rud_bound`
compares a vector's divergence-side ratio with the sum of the ratios of its
restrictions to the classes of a partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import DEFAULT_ENUM_CAP, Coeffs, DomainError, apply_signs, SignPattern
from .exactnum import Scalar
from .rademacher import expect_exact, family_means
from .spaces import Space


def _norm_positive(space: Space, a: Coeffs) -> Scalar:
    if not a:
        raise DomainError("zero vector")
    n = space.norm(a)
    if not float(n) > 0:
        raise DomainError("zero vector")
    return n


def ratio_ruc(space: Space, a: Coeffs, enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact sign average over the norm (convergence-side ratio)."""
    n = _norm_positive(space, a)
    return float(expect_exact(space, a, cap=enum_cap).value) / float(n)


def ratio_rud(space: Space, a: Coeffs, enum_cap: int = DEFAULT_ENUM_CAP) -> float:
    """Norm over the exact sign average (divergence-side ratio)."""
    return ratios_rud(space, [a], enum_cap)[0]


def ratios_rud(space: Space, vectors: list[Coeffs],
               enum_cap: int = DEFAULT_ENUM_CAP) -> list[float]:
    """:func:`ratio_rud` of each vector, from one family of norms
    (:meth:`~rudlab.spaces.Space.norms`) and of sign means
    (:func:`~rudlab.rademacher.family_means`)."""
    if not all(vectors):
        raise DomainError("zero vector")
    norms = space.norms(vectors)
    if not all(float(n) > 0 for n in norms):
        raise DomainError("zero vector")
    means = family_means(space, vectors, enum_cap)
    if not all(float(e) > 0 for e in means):
        raise DomainError("vanishing sign average")
    return [float(n) / float(e) for n, e in zip(norms, means)]


def ratio_unc(space: Space, a: Coeffs, e: SignPattern) -> float:
    """Norm distortion of one sign flip."""
    n = _norm_positive(space, a)
    return float(space.norm(apply_signs(a, e))) / float(n)


# ---------------------------------------------------------------------------
# partition bound
# ---------------------------------------------------------------------------


@dataclass
class PartitionRow:
    sample: tuple
    full_ratio: float
    class_ratios: list[float]
    bound: float

    @property
    def ok(self) -> bool:
        return self.full_ratio <= self.bound + 1e-12


@dataclass
class PartitionReport:
    space: str
    classes: list[tuple[int, ...]]
    rows: list[PartitionRow]
    class_constants: list[float]

    @property
    def sum_bound(self) -> float:
        return sum(self.class_constants)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def partition_rud_bound(
    space: Space,
    partition: list[tuple[int, ...]],
    samples: list[Coeffs],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> PartitionReport:
    """Divergence-side ratio of each full sample against the sum of its
    per-class ratios (restriction = 0/1 multiplier, so the comparison is
    the finite contraction argument made exact sample by sample)."""
    covered = set().union(*map(set, partition)) if partition else set()
    if not all(set(a.support) <= covered for a in samples):
        raise DomainError("partition does not cover the sample support")
    # each sample, then its non-empty class restrictions, as (class, vector)
    parts = [[(None, a)] + [(k, r) for k, cls in enumerate(partition) if (r := a.restrict(cls))]
             for a in samples]
    ratios = iter(ratios_rud(space, [v for part in parts for _, v in part], enum_cap))
    rows = []
    class_constants = [0.0] * len(partition)
    for a, part in zip(samples, parts):
        full = next(ratios)
        per = []
        bound = 0.0
        for k, _ in part[1:]:
            c = next(ratios)
            per.append(c)
            bound += c
            class_constants[k] = max(class_constants[k], c)
        rows.append(PartitionRow(tuple(a.support), full, per, bound))
    return PartitionReport(space.name, partition, rows, class_constants)
