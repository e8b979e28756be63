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
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .exactnum import QSum, Scalar, is_exact


class DomainError(ValueError):
    """A precondition of an operation was violated (CLI exit code 2)."""


class EnumerationCapError(DomainError):
    """Exhaustive sign enumeration refused: more entries than the cap
    (:func:`check_cap`)."""


class NoIntegerForm(DomainError):
    """Values with no exact integer batch: float entries, radical-valued
    entries on an engine that pairs only rationals, or magnitudes past the
    float range that exact tie location reads.  The refusal propagates."""


DEFAULT_ENUM_CAP = 24


def check_cap(m: int, cap: int = DEFAULT_ENUM_CAP, what: str = "support of size {}") -> int:
    """``m`` when at most ``cap``; past it, :class:`EnumerationCapError`
    naming ``m`` by ``what``.  Every exhaustive enumeration refuses here."""
    if m > cap:
        raise EnumerationCapError(f"{what.format(m)} exceeds the enumeration cap {cap}")
    return m


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
        """The entries as floats, a read-only array computed once per
        vector; an entry past the float range, or one so small that its
        float is 0.0, is refused (no entry is zero)."""
        out = self.__dict__.get("_floats")
        if out is None:
            try:
                out = np.array([float(v) for _, v in self.entries], dtype=np.float64)
            except OverflowError:
                raise DomainError("an entry past the float range has no float value") from None
            if not out.all():
                raise DomainError("an entry below the float range underflows to 0.0")
            out.flags.writeable = False
            object.__setattr__(self, "_floats", out)
        return out

    def class_columns(self) -> tuple[Mapping[int, tuple[int, ...]], int]:
        """The entries split by square-free class: per class, in order of
        first use, the integer numerators over one common denominator (0
        where an entry has no term of that class), and that denominator.
        Computed once per vector, as :meth:`values_float` is, and
        read-only.  Float entries raise :class:`NoIntegerForm`."""
        out = self.__dict__.get("_classes")
        if out is None:
            cols: dict[int, list[Fraction | int]] = {}
            for k, (_, w) in enumerate(self.entries):
                if isinstance(w, float):
                    raise NoIntegerForm("exact path requires rational coefficients")
                for core, q in (w.terms.items() if isinstance(w, QSum) else ((1, w),)):
                    cols.setdefault(core, [0] * len(self))[k] = q
            den = lcm(*(q.denominator for col in cols.values() for q in col))
            out = (MappingProxyType({c: tuple(q.numerator * (den // q.denominator) for q in col)
                                     for c, col in cols.items()}), den)
            object.__setattr__(self, "_classes", out)
        return out

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

#: largest magnitude of a :func:`family_form` multiplier (int64 columns)
_FAMILY_PEAK = 1 << 62
#: indices a pack's union support may reach (:func:`family_packs`); past
#: it, only a vector at least as wide as the union joins
_PACK_ROWS = 16
#: most union indices times columns of a pack's batch
_PACK_CELLS = 1 << 10


def family_packs(vectors: Sequence[Coeffs], widths: Sequence[int],
                 max_width: int) -> list[list[int]]:
    """The positions of ``vectors`` cut, in order, into packs, each for one
    family batch (:func:`family_form`).  A pack takes the next vector
    while its columns (the packed ``widths`` summed) stay within
    ``max_width`` and, times its union support, within ``_PACK_CELLS``,
    and while that union stays within ``_PACK_ROWS`` indices or within the
    larger of the pack's and the vector's own support.  Engines build
    temporaries of union rows times columns, and some (the bd engine's
    block of D) of the union's rows alone, so a pack costs about what its
    widest member would."""
    packs: list[list[int]] = []
    rows: set[int] = set()
    width = 0
    for j, (a, w) in enumerate(zip(vectors, widths)):
        union = rows.union(a.support)
        if (not packs or width + w > max_width or len(union) * (width + w) > _PACK_CELLS
                or len(union) > max(_PACK_ROWS, len(rows), len(a))):
            packs.append([])
            union, width = set(a.support), 0
        packs[-1].append(j)
        rows, width = union, width + w
    return packs


def family_form(vectors: Sequence[Coeffs]) -> tuple[Coeffs, np.ndarray] | None:
    """One base vector over the union support of the non-empty exact
    ``vectors`` and an int64 (union, len(vectors)) multiplier matrix whose
    column j times the base is ``vectors[j]``: zero multipliers restrict the
    base to each vector's support, and on every engine a zero multiplier
    gives the norm of the vector without that entry, so column j of the
    base's batch is the norm of ``vectors[j]``.

    Each index holds one unit, the rational gcd of the family's entries
    there (times sqrt(core) when every entry there is a single radical term
    of that core), with the sign and type of the first vector's entry, so
    that a family of one is its vector over a column of ones.  None for a
    float entry, an index whose entries are of two classes (or of several
    terms), and a multiplier past ``_FAMILY_PEAK``."""
    cells: dict[int, list[tuple[int, int, int, int]]] = {}  # (column, core, num, den)
    first: dict[int, Scalar] = {}
    for j, a in enumerate(vectors):
        for i, w in a.entries:
            if isinstance(w, float):
                return None
            if isinstance(w, QSum):
                if len(w.terms) != 1:
                    return None
                ((core, q),) = w.terms.items()
            else:
                core, q = 1, w
            cells.setdefault(i, []).append((j, core, int(q.numerator), int(q.denominator)))
            first.setdefault(i, w)
    support = sorted(cells)
    mult = np.zeros((len(support), len(vectors)), dtype=np.int64)
    base = []
    for r, i in enumerate(support):
        col = cells[i]
        core = col[0][1]
        if any(c != core for _, c, _, _ in col):
            return None
        g, den = gcd(*(n for _, _, n, _ in col)), lcm(*(d for _, _, _, d in col))
        units = [n * (den // d) // g for _, _, n, d in col]  # entries over g / den
        if max(map(abs, units)) > _FAMILY_PEAK:
            return None
        sign = 1 if units[0] > 0 else -1
        w = first[i]
        if abs(units[0]) != 1:
            q = Fraction(sign * g, den)
            w = QSum({core: q}) if isinstance(w, QSum) else q
        base.append((i, w))
        mult[r, [j for j, _, _, _ in col]] = [sign * u for u in units]
    return Coeffs(tuple(base)), mult


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
    for mask in range(1 << check_cap(len(sup), cap)):
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
