"""Finitely supported coefficient vectors, sign patterns, and pairings.

Indices are global non-negative integers; each norm engine interprets them
(dyadic atoms, Walsh sets and tree nodes are bijected to integers by the
canonical enumeration owned by the engine).  Explicit zero entries are never
stored, so the support is always the set of nonzero indices.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

import numpy as np

from .exactnum import QSum, Scalar, is_exact


class DomainError(ValueError):
    """A precondition of an operation was violated (CLI exit code 2)."""


class EnumerationCapError(DomainError):
    """Exhaustive sign enumeration refused; use the Monte-Carlo path."""


class NoIntegerForm(DomainError):
    """Values with no int64 matrix form: float or radical-valued entries,
    or magnitudes beyond the integer path.  Callers with a per-vector norm
    fall back to it."""


DEFAULT_ENUM_CAP = 24


def _is_zero(v: Scalar) -> bool:
    if isinstance(v, QSum):
        return not v.terms
    return v == 0


@dataclass(frozen=True)
class Coeffs:
    """Immutable sparse scalar vector, sorted by index, without zeros."""

    entries: tuple[tuple[int, Scalar], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Scalar]]) -> "Coeffs":
        seen: dict[int, Scalar] = {}
        for i, v in pairs:
            if i < 0:
                raise DomainError(f"negative index {i}")
            if i in seen:
                raise DomainError(f"duplicate index {i}")
            if not _is_zero(v):
                seen[i] = v
        return Coeffs(tuple(sorted(seen.items())))

    @staticmethod
    def from_values(values: Iterable[Scalar], start: int = 0) -> "Coeffs":
        return Coeffs.from_pairs((start + i, v) for i, v in enumerate(values))

    @staticmethod
    def zero() -> "Coeffs":
        return Coeffs(())

    # -- queries ----------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[tuple[int, Scalar]]:
        return iter(self.entries)

    def value(self, i: int) -> Scalar:
        for j, v in self.entries:
            if j == i:
                return v
        return 0

    def is_exact(self) -> bool:
        return all(is_exact(v) for _, v in self.entries)

    def values_float(self) -> np.ndarray:
        return np.array([float(v) for _, v in self.entries], dtype=np.float64)

    def int_values(self) -> tuple[np.ndarray, int]:
        """Values as an int64 array with a common denominator ``den``.

        Only valid for rational entries (others raise
        :class:`NoIntegerForm`); the true value at slot ``j`` is
        ``ints[j] / den``.  Magnitudes are capped so that every downstream
        integer reduction (atom sums, squared tails, chain squares) stays
        inside 64 bits.
        """
        fracs = []
        for _, v in self.entries:
            if isinstance(v, QSum):
                if not v.is_rational():
                    raise NoIntegerForm("radical-valued entry: no integer form")
                fracs.append(v.as_fraction())
            elif isinstance(v, float):
                raise NoIntegerForm("exact path requires rational coefficients")
            else:
                fracs.append(Fraction(v))
        den = lcm(*(f.denominator for f in fracs))
        scaled = [int(f * den) for f in fracs]
        if any(abs(x) > (1 << 26) for x in scaled):
            raise NoIntegerForm(
                "coefficient magnitudes too large for the exact integer path "
                "(scaled entries must fit in 26 bits)"
            )
        return np.array(scaled, dtype=np.int64), den

    # -- algebra ------------------------------------------------------------

    def scale(self, c: Scalar) -> "Coeffs":
        if _is_zero(c):
            return Coeffs.zero()
        return Coeffs.from_pairs((i, c * v) for i, v in self.entries)

    def __add__(self, other: "Coeffs") -> "Coeffs":
        acc: dict[int, Scalar] = dict(self.entries)
        for i, v in other.entries:
            acc[i] = acc.get(i, 0) + v
        return Coeffs.from_pairs(acc.items())

    def __sub__(self, other: "Coeffs") -> "Coeffs":
        return self + other.scale(-1)

    def restrict(self, keep: Iterable[int]) -> "Coeffs":
        ks = set(keep)
        return Coeffs(tuple((i, v) for i, v in self.entries if i in ks))


#: A norming functional is just a sparse weight vector paired against Coeffs.
NormingFunctional = Coeffs


@dataclass(frozen=True)
class SignPattern:
    """An element of {-1,+1}^s over a declared finite support."""

    signs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for _, s in self.signs:
            if s not in (-1, 1):
                raise DomainError("signs must be +1 or -1")

    @staticmethod
    def from_mask(support: tuple[int, ...], mask: int) -> "SignPattern":
        # bit 0 of the mask flips the smallest index: set bit means -1
        return SignPattern(
            tuple(
                (idx, -1 if (mask >> pos) & 1 else 1)
                for pos, idx in enumerate(sorted(support))
            )
        )

    @staticmethod
    def constant(support: tuple[int, ...], sign: int = 1) -> "SignPattern":
        return SignPattern(tuple((i, sign) for i in sorted(support)))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.signs)

    def sign(self, i: int) -> int:
        for j, s in self.signs:
            if j == i:
                return s
        raise KeyError(i)


def apply_signs(a: Coeffs, e: SignPattern) -> Coeffs:
    """Entrywise product e(i) * a(i); the support is unchanged."""
    cover = e.support
    if not cover.issuperset(a.support):
        raise DomainError("sign pattern does not cover support")
    table = dict(e.signs)
    return Coeffs(tuple((i, v if table[i] == 1 else -v) for i, v in a.entries))


def pair(phi: NormingFunctional, a: Coeffs) -> Scalar:
    """The pairing <phi, a> = sum_i phi(i) * a(i) over the common support."""
    small, big = (phi, dict(a.entries)) if len(phi) <= len(a) else (a, dict(phi.entries))
    total: Scalar = 0
    for i, v in small.entries:
        w = big.get(i)
        if w is not None:
            total = total + v * w
    return total


def enumerate_sign_patterns(
    support: Iterable[int], cap: int = DEFAULT_ENUM_CAP
) -> Iterator[SignPattern]:
    """All 2^m sign patterns on the support, in canonical bitmask order."""
    sup = tuple(sorted(set(support)))
    m = len(sup)
    if m > cap:
        raise EnumerationCapError(
            f"support of size {m} exceeds the enumeration cap {cap}; "
            "use the Monte-Carlo path"
        )
    for mask in range(1 << m):
        yield SignPattern.from_mask(sup, mask)


def sign_matrix_range(m: int, start: int, stop: int) -> np.ndarray:
    """(m, stop-start) int8 columns for bitmask patterns start..stop-1."""
    masks = np.arange(start, stop, dtype=np.uint32)
    bits = (masks[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1
    return (1 - 2 * bits).astype(np.int8)


def mask_matrix_range(m: int, start: int, stop: int) -> np.ndarray:
    """(m, stop-start) int8 columns of 0/1 coefficient masks start..stop-1."""
    masks = np.arange(start, stop, dtype=np.uint32)
    bits = (masks[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1
    return bits.astype(np.int8)


def sign_matrix_full(m: int) -> np.ndarray:
    """(m, 2^m) int8 matrix whose columns are the canonical sign patterns."""
    return sign_matrix_range(m, 0, 1 << m)


def mask_matrix_full(m: int) -> np.ndarray:
    """(m, 2^m) int8 matrix whose columns are all 0/1 coefficient masks."""
    return mask_matrix_range(m, 0, 1 << m)
