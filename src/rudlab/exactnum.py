"""Exact scalar arithmetic over the rationals extended by square roots.

Values are finite sums ``sum_i q_i * sqrt(k_i)`` with rational ``q_i`` and
positive integer radicands ``k_i``.  This is exactly the number field needed
by the norm engines: Euclidean norms of rational vectors, the ``1/sqrt(k)``
functional weights, and their averages all live here.

Comparisons are exact.  A sign is first read from a float evaluation with
an a-priori error bound (a float filter, as in Shewchuk's adaptive
predicates): integer division, int-to-float conversion and ``math.sqrt``
are correctly rounded, so when the float sum is larger than the bound its
sign is the exact sign.  Otherwise, as for near-zero sums, the sign is
decided exactly: a nonzero combination of square roots of distinct
squarefree integers is never zero (linear independence over Q), so
interval arithmetic with integer-square-root brackets, tightened until the
interval excludes zero, terminates.  Radicands are kept only semi-canonical
(small primes divided out, a square cofactor extracted); if an undetected
square factor ever makes two terms collide, the slow full factorisation
path merges them before the loop continues.

Conversion to float is correctly rounded, by the same loop: the brackets
are refined until both ends round to the same float.  So a value has one
float, whatever the order or form of its terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt, lcm, sqrt
from typing import Callable, Iterable, TypeVar, Union

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

#: Precision at which the refinement loop re-canonicalises via full factorisation.
_FACTOR_FALLBACK_BITS = 512
_MAX_BITS = 1 << 16
#: the float filter defers to the exact loop below this magnitude sum, so
#: that its error bound is computed without underflow
_FILTER_FLOOR = 2.0**-900
_UNIT_ROUNDOFF = 2.0**-53
_MIN_NORMAL = 2.0**-1022

_R = TypeVar("_R")


@lru_cache(maxsize=1 << 16)
def split_square(k: int) -> tuple[int, int]:
    """Write ``k = outer**2 * core`` with no square of a small prime
    dividing core, and no square left once the small primes are divided out.

    Each small prime is divided out in full, its odd exponents going to the
    core; a cofactor that is a perfect square joins ``outer``.  Cached: the
    norm engines see few distinct radicands, many times over."""
    if k <= 0:
        raise ValueError("radicand must be positive")
    outer = core = 1
    for p in _SMALL_PRIMES:
        if p * p > k:
            break
        if k % p:
            continue
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        outer *= p ** (e >> 1)
        if e & 1:
            core *= p
    r = isqrt(k)
    if r * r == k:
        return outer * r, core
    return outer, core * k


def _bracket(terms: dict[int, Fraction], bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket lo <= sum q sqrt(core) <= hi, each root to 2**-bits
    (``r = isqrt(core * 4**bits)``, so sqrt(core) lies in [r, r + 1] / 2**bits),
    summed as integers over the common denominator."""
    den = lcm(*(q.denominator for q in terms.values()))
    lo = hi = 0
    for core, q in terms.items():
        n = q.numerator * (den // q.denominator)
        if core == 1:
            lo += n << bits
            hi += n << bits
            continue
        r = isqrt(core << (2 * bits))
        lo += n * (r if n > 0 else r + 1)
        hi += n * (r + 1 if n > 0 else r)
    return Fraction(lo, den << bits), Fraction(hi, den << bits)


def _float_sign(items: Iterable[tuple[int, Fraction]],
                minus: Iterable[tuple[int, Fraction]] = ()) -> int:
    """Sign of ``sum q sqrt(core)`` over the ``(core, q)`` terms of
    ``items`` less those of ``minus``, read from floats, or 0 when
    undecided.  The cores need not be distinct, within or across the lists.

    Each term ``q*sqrt(core)`` is computed with relative error at most
    about 3.5 units of roundoff (three correctly rounded operations and the
    rounding of ``core``, halved by the square root), provided ``q`` does
    not round into the subnormal range; a recursive float sum of n such
    terms is off by at most (n+3) units times the sum of their magnitudes.
    ``2*(n+4)`` units of the computed magnitude sum bound both with room to
    spare.  Subtracting a term is adding its exact float negation.
    Overflow, a subnormal ``q`` and magnitude sums under ``_FILTER_FLOOR``
    return 0 (undecided).
    """
    total = 0.0
    mag = 0.0
    n = 0
    try:
        for terms, sub in ((items, False), (minus, True)):
            for core, q in terms:
                x = q.numerator / q.denominator
                if -_MIN_NORMAL < x < _MIN_NORMAL:
                    return 0
                if core != 1:
                    x *= sqrt(core)
                total = total - x if sub else total + x
                mag += abs(x)
                n += 1
    except OverflowError:
        return 0
    if not _FILTER_FLOOR <= mag < inf:
        return 0
    bound = 2 * (n + 4) * _UNIT_ROUNDOFF * mag
    if total > bound:
        return 1
    if total < -bound:
        return -1
    return 0


def _canonicalise(terms: dict[int, Fraction]) -> dict[int, Fraction]:
    """Fully squarefree-reduce all radicands (slow path, rarely needed)."""
    from sympy import factorint

    out: dict[int, Fraction] = {}
    for core, q in terms.items():
        outer = 1
        rem = 1
        for p, e in factorint(core).items():
            outer *= p ** (e // 2)
            if e % 2:
                rem *= p
        q2 = q * outer
        acc = out.get(rem, Fraction(0)) + q2
        if acc:
            out[rem] = acc
        elif rem in out:
            del out[rem]
    return out


def _refine(terms: dict[int, Fraction], settle: Callable[[Fraction, Fraction], _R | None],
            exact: Callable[[Fraction], _R]) -> _R:
    """The first answer ``settle(lo, hi)`` gives on the brackets of
    ``sum q sqrt(core)`` (:func:`_bracket`) at 64, 128, ... bits per root:
    Ziv's strategy (TOMS 17(3), 1991) of refining until the answer is the
    same at both ends.  Past ``_FACTOR_FALLBACK_BITS`` the radicands are
    fully factorised once, so that terms which cancel still terminate: a
    value that is then rational is answered by ``exact``."""
    bits = 64
    while bits <= _MAX_BITS:
        if bits == 2 * _FACTOR_FALLBACK_BITS:
            terms = _canonicalise(terms)
            if terms.keys() <= {1}:
                return exact(terms.get(1, Fraction(0)))
        answer = settle(*_bracket(terms, bits))
        if answer is not None:
            return answer
        bits *= 2
    raise ArithmeticError(f"undecided at {_MAX_BITS} bits: {QSum(terms)!r}")


def _product(t1: dict[int, Fraction], t2: dict[int, Fraction]) -> dict[int, Fraction]:
    """Terms of the product of two term dicts, cores in first-appearance order."""
    out: dict[int, Fraction] = {}
    for c1, q1 in t1.items():
        for c2, q2 in t2.items():
            if c1 == c2:
                core, mult = 1, c1
            else:
                mult, core = split_square(c1 * c2)
            v = q1 * q2 if mult == 1 else q1 * q2 * mult
            if core in out:
                v += out[core]
            if v:
                out[core] = v
            elif core in out:
                del out[core]
    return out


class QSum:
    """A finite rational combination of square roots of positive integers."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self._t = terms or {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(x: "ExactScalar") -> "QSum":
        if isinstance(x, QSum):
            return x
        q = Fraction(x)
        return QSum({1: q} if q else {})

    @staticmethod
    def root(radicand: int, coeff: Fraction = Fraction(1)) -> "QSum":
        if radicand == 0 or coeff == 0:
            return QSum()
        outer, core = split_square(radicand)
        return QSum({core: coeff * outer})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return self._t

    def is_rational(self) -> bool:
        return all(c == 1 for c in self._t)

    def as_fraction(self) -> Fraction:
        t = self._t
        if not t:
            return Fraction(0)
        if set(t) == {1}:
            return t[1]
        canon = _canonicalise(t)
        if set(canon) <= {1}:
            return canon.get(1, Fraction(0))
        raise ValueError(f"not a rational value: {self!r}")

    def __float__(self) -> float:
        """The float nearest to the value, ties to even, whatever the terms'
        order or form (``{8: 1}`` and ``{2: 2}`` give the same float)."""
        t = self._t
        if t.keys() <= {1}:
            return float(t.get(1, Fraction(0)))
        return _refine(t, lambda lo, hi: f if (f := float(lo)) == float(hi) else None, float)

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __repr__(self) -> str:
        if not self._t:
            return "QSum(0)"
        parts = [
            f"{q}" if core == 1 else f"{q}*sqrt({core})"
            for core, q in sorted(self._t.items())
        ]
        return "QSum(" + " + ".join(parts) + ")"

    # -- arithmetic ----------------------------------------------------------

    def _merge(self, other: dict[int, Fraction], flip: bool) -> "QSum":
        out = dict(self._t)
        for core, q in other.items():
            acc = out.get(core, Fraction(0)) + (-q if flip else q)
            if acc:
                out[core] = acc
            elif core in out:
                del out[core]
        return QSum(out)

    def __add__(self, other):
        if isinstance(other, float):
            return NotImplemented
        return self._merge(QSum.of(other)._t, flip=False)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, float):
            return NotImplemented
        return self._merge(QSum.of(other)._t, flip=True)

    def __neg__(self):
        return QSum({c: -q for c, q in self._t.items()})

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        if isinstance(other, float):
            return NotImplemented
        return QSum(_product(self._t, QSum.of(other)._t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, float):
            return NotImplemented
        o = QSum.of(other)._t
        if not o:
            raise ZeroDivisionError("division by zero")
        if len(o) == 1:
            ((core, q),) = o.items()
            if core == 1:
                return self * Fraction(1, 1) * (1 / q)
            # 1/(q*sqrt(c)) = sqrt(c)/(q*c)
            return self * QSum({core: Fraction(1) / (q * core)})
        raise TypeError("division by a multi-term radical sum is not supported")

    def __rtruediv__(self, other):
        return QSum.of(other) / self

    # -- exact ordering ------------------------------------------------------

    def sign(self) -> int:
        t = self._t
        if not t:
            return 0
        if len(t) == 1:
            ((_, q),) = t.items()
            return 1 if q > 0 else -1
        return _float_sign(t.items()) or _refine(
            t, lambda lo, hi: 1 if lo > 0 else -1 if hi < 0 else None,
            lambda q: (q > 0) - (q < 0))

    def _cmp(self, other) -> int:
        """Sign of ``self - other``: the float filter over the two term
        lists, and the exact difference only when it cannot decide."""
        if isinstance(other, float):
            raise TypeError("exact values are not compared with floats")
        o = QSum.of(other)._t
        return _float_sign(self._t.items(), o.items()) or self._merge(o, flip=True).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, float):
            return NotImplemented
        if not isinstance(other, (QSum, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    __hash__ = None  # exact values are compared, never hashed


ExactScalar = Union[int, Fraction, QSum]
Scalar = Union[ExactScalar, float]

SQRT2 = QSum({2: Fraction(1)})


def sqrt_exact(x: ExactScalar) -> QSum:
    """Exact square root of a non-negative rational."""
    q = x.as_fraction() if isinstance(x, QSum) else Fraction(x)
    if q < 0:
        raise ValueError("square root of a negative value")
    if q == 0:
        return QSum()
    # sqrt(n/d) = sqrt(n*d)/d
    return QSum.root(q.numerator * q.denominator, Fraction(1, q.denominator))


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction, QSum))


def le_times_square(x: Scalar, c: Fraction, y: Scalar) -> bool:
    """Decide x <= c * y**2 exactly for exact scalars with y >= 0.  One
    64-bit bracket of each (:func:`_bracket`) decides it where they do not
    overlap: true if ``c * ylo**2 >= xhi``, false if ``c * yhi**2 < xlo``.
    Otherwise, and for c < 0 or ylo < 0, it is the sign of
    ``c * y**2 - x`` (:meth:`QSum.sign`, refined until decided), whose
    product has up to the square of y's term count."""
    X, Y = QSum.of(x), QSum.of(y)
    xlo, xhi = _bracket(X.terms, 64)
    ylo, yhi = _bracket(Y.terms, 64)
    if ylo >= 0 and c >= 0:
        if c * ylo * ylo >= xhi:
            return True
        if c * yhi * yhi < xlo:
            return False
    return (QSum.of(c) * Y * Y - X).sign() >= 0


def scalar_repr(x: Scalar) -> str:
    """Human-readable rendering: exact rationals stay exact."""
    if isinstance(x, QSum):
        if x.is_rational():
            return str(x.as_fraction())
        return repr(float(x))
    if isinstance(x, (int, Fraction)):
        return str(x)
    return repr(x)
