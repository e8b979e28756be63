"""Coding-function sequence spaces and their witness vectors.

The construction lives on a strictly increasing sequence of even level
cardinalities, an injective coding function sigma from finite index sets
into the level sequence, and families of admissible set tuples whose
cardinalities are forced by sigma.  Three norms are built on top:

* the base space: supremum of undecorated tuple-functional pairings joined
  with the coordinate supremum;
* the convergence-side space: base norm plus its own sign average;
* the divergence-side space: supremum over tuple functionals decorated with
  equi-distributed signs per level, plus undecorated and coordinate
  functionals.

Desk-scale soundness notes.  The classical smallness condition on the level
sequence cannot hold with small numbers, so the pair-interaction sum
``delta_hat`` is computed from the declared prefix and carried through every
bound.  Likewise the product of equi-distributed fractions
(``LevelSequence.rho_used``) is measured, never assumed close to 1, and the
divergence-side ratio bound is stated against its inverse.

Norming families are restricted to a finite support by enumerating, for
every sigma-consistent tuple prefix, all intersections a free final set can
have with the support ("tail closure"); this is what makes the finite
restriction complete.  The engines never list these members: per family
and column the supremum is attained by a few members read off the entries
sorted by magnitude (the best tails, and for the divergence side the best
decorations), the top-k structure of Ogryczak & Tamir, "Minimizing the sum
of the k largest functions in linear time" (IPL 2003); the exact and the
float batches of both engines pair these same rows.  The engines are
plain :class:`~rudlab.spaces.Space` subclasses; the family enumerators
:func:`zmr_functionals` and :func:`zrud_functionals` list the members for a
reference norming-set engine outside the package and no engine calls them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

import numpy as np

from .batches import _peak, int_dtype
from .coeffs import Coeffs, DomainError, NormingFunctional
from .exactnum import QSum, Scalar, split_square, sqrt_exact
from .spaces import (RenormSpace, Space, _cached, _column_blocks, _core_forms,
                     _image_slack, _normingset_reduce_blocks)

DEFAULT_LEVELS = (2, 4, 8)
DEFAULT_UNIVERSE = 14
DEFAULT_MAX_N = 3
#: largest coded universe: the sigma coder's table holds 2^universe int32
#: entries (64 MiB at 24) and its build a few such arrays
MAX_UNIVERSE = 24
#: most members a zrud family may have on one support when
#: :func:`zrud_functionals` enumerates it (the engines never do)
ZRUD_FAMILY_CAP = 20_000
#: most entries whose sign average :func:`mr_witness` enumerates exactly
WITNESS_CAP = 12


def k_m(m: int) -> int:
    """Number of balanced sign vectors on a set of even cardinality m."""
    if m < 2 or m % 2:
        raise DomainError(f"equi-distributed signs need an even cardinality, got {m}")
    return comb(m, m // 2)


def _plus_counts(c: int, width: int) -> list[int]:
    """Plus counts P of the sign vectors on c slots that the width rule
    allows: |2P - c| <= width * sqrt(c)."""
    return [p for p in range(c + 1) if (2 * p - c) ** 2 <= width * width * c]


def levels_ok(p: tuple[int, ...]) -> bool:
    """Whether :class:`LevelSequence` takes this prefix."""
    return bool(p) and all(m >= 2 and not m % 2 for m in p) and all(x < y for x, y in zip(p, p[1:]))


@dataclass(frozen=True)
class LevelSequence:
    """A finite prefix of the even level-cardinality sequence."""

    prefix: tuple[int, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        if not levels_ok(self.prefix):
            raise DomainError("levels must be strictly increasing even integers >= 2")

    def virtual(self, k: int) -> int:
        """The k-th level (0-based), doubling past the declared prefix."""
        if k < len(self.prefix):
            return self.prefix[k]
        return self.prefix[-1] << (k - len(self.prefix) + 1)

    @property
    def delta_hat(self) -> QSum:
        """sum over ordered pairs j != k of sqrt(min(m_j/m_k, m_k/m_j))."""
        total = QSum()
        for j, mj in enumerate(self.prefix):
            for k, mk in enumerate(self.prefix):
                if j != k:
                    r = Fraction(min(mj, mk), max(mj, mk))
                    total = total + sqrt_exact(r)
        return total

    def rho_used(self, cards: tuple[int, ...]) -> Fraction:
        """The same product over the level cardinalities actually present."""
        rho = Fraction(1)
        for c in cards:
            rho *= Fraction(k_m(c), 1 << c)
        return rho


class SigmaCoder:
    """Deterministic injective assignment s -> sigma(s) with sigma(s) > #s.

    The domain is every nonempty even-cardinality subset of the index
    universe (unions of admissible tuples always have even cardinality).
    Subsets are processed in a fixed global order -- decreasing cardinality,
    then increasing maximum, then lexicographic -- and each receives the
    smallest still-unused element of the level sequence (second level
    onward, virtually extended past the prefix) exceeding its cardinality.
    Processing large subsets first is what lets small prefix levels reach
    the consecutive-block unions that the witness vectors are built from;
    the assignment never depends on query order.  It is one int32 table of
    2^universe entries indexed by the subset's bitmask, -1 off the domain.
    """

    def __init__(self, levels: LevelSequence, universe: int = DEFAULT_UNIVERSE):
        self.levels = levels
        self.universe = universe
        masks = np.arange(1 << universe, dtype=np.int32)
        card, top, rev = (np.zeros_like(masks) for _ in range(3))
        for i in range(universe):
            bit = (masks >> i) & 1
            card += bit
            top[bit == 1] = i  # the maximum element
            rev |= bit << (universe - 1 - i)  # element i at bit universe - 1 - i
        # within a cardinality, lexicographic order is decreasing order of rev
        domain = np.flatnonzero((card >= 2) & (card % 2 == 0))
        order = domain[np.lexsort((-rev[domain], top[domain], -card[domain]))]
        self._table = np.full(1 << universe, -1, dtype=np.int32)
        # level indices in use; every threshold is below len(prefix) + log2(2 * universe)
        used = np.zeros(len(levels.prefix) + universe.bit_length() + len(order), dtype=bool)
        for c in range(universe - universe % 2, 1, -2):
            # c takes the next unused indices from the first level (second on) above c
            k = next(k for k in itertools.count(1) if levels.virtual(k) > c)
            subsets = order[card[order] == c]
            taken = k + np.flatnonzero(~used[k:])[:len(subsets)]
            self._table[subsets] = taken
            used[taken] = True

    def sigma_index(self, s: frozenset[int]) -> int | None:
        """Position of sigma(s) in the level sequence, or None off-domain."""
        k = -1
        if all(0 <= i < self.universe for i in s):
            k = int(self._table[sum(1 << i for i in frozenset(s))])
        return k if k >= 0 else None

    def sigma_capped(self, s: frozenset[int], cap: int) -> int | None:
        """sigma(s) when s is in the domain and sigma(s) <= cap, else None."""
        k = self.sigma_index(s)
        if k is None or k >= len(self.levels.prefix) + max(cap, 2).bit_length():
            return None
        v = self.levels.virtual(k)
        return v if v <= cap else None


@dataclass(frozen=True)
class AdmissibleTuple:
    """Successive sets s_1 < ... < s_n with sigma-forced cardinalities."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        prev_max = -1
        for s in self.sets:
            if min(s) <= prev_max:
                raise DomainError("tuple sets must be successive")
            prev_max = max(s)


# ---------------------------------------------------------------------------
# norming families over a finite support (tail closure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleFamily:
    """A sigma-consistent tuple prefix plus one free final set.

    ``fixed`` are the fully determined sets (inside the coded universe);
    the final set is only constrained by its cardinality ``tail_card`` and
    by living strictly above ``tail_min``.
    """

    fixed: tuple[frozenset[int], ...]
    tail_card: int
    tail_min: int


def closure_families(coder: SigmaCoder, levels: LevelSequence, max_n: int) -> list[TupleFamily]:
    """Every family of admissible tuples seen from a finite support.

    Length-1 tuples are free sets of any level cardinality; cardinalities
    past the first one covering the universe are dominated (same tails at a
    smaller weight) and pruned.  Longer tuples must have sigma-consistent
    prefixes inside the coded universe; prefixes whose forced next
    cardinality exceeds twice the universe are pruned too -- their fixed
    parts are restrictions already produced by shorter families and the
    pruned free tail carries weight below 1/sqrt(2 * universe) of it.
    """
    free_cards: list[int] = []
    k = 0
    while True:
        v = levels.virtual(k)
        free_cards.append(v)
        if v >= coder.universe:
            break
        k += 1
    families: list[TupleFamily] = [TupleFamily((), c, -1) for c in free_cards]
    cap = 2 * coder.universe

    def extend(prefix: list[frozenset[int]], union: frozenset[int], depth: int):
        if depth >= max_n:
            return
        card = coder.sigma_capped(union, cap)
        if card is None or card <= len(prefix[-1]):
            return
        lo = max(union)
        families.append(TupleFamily(tuple(prefix), card, lo))
        avail = [i for i in range(coder.universe) if i > lo]
        if card > len(avail):
            return
        for combo in itertools.combinations(avail, card):
            s = frozenset(combo)
            extend(prefix + [s], union | s, depth + 1)

    for c in levels.prefix:
        if c > coder.universe:
            continue
        for combo in itertools.combinations(range(coder.universe), c):
            s = frozenset(combo)
            extend([s], s, 1)
    return families


@lru_cache(maxsize=None)
def _weight(card: int) -> QSum:
    """1/sqrt(card), shared per cardinality (no QSum is mutated in place)."""
    return QSum({1: Fraction(1)}) / sqrt_exact(card)


def _subsets_upto(items: list[int], cap: int):
    for j in range(0, min(cap, len(items)) + 1):
        yield from itertools.combinations(items, j)


def zmr_functionals(
    ctx: "MrContext", support: tuple[int, ...]
) -> list[NormingFunctional]:
    """Undecorated tuple functionals of the base family, restricted to the
    support, tails enumerated over every admissible intersection, then the
    coordinate functionals in support order."""
    sup = sorted(set(support))
    out: list[NormingFunctional] = []
    for fam in ctx.families:
        fixed_pairs: list[tuple[int, Scalar]] = []
        for s in fam.fixed:
            w = _weight(len(s))
            fixed_pairs.extend((i, w) for i in s if i in set(sup))
        tail_avail = [i for i in sup if i > fam.tail_min]
        wt = _weight(fam.tail_card)
        for t in _subsets_upto(tail_avail, fam.tail_card):
            pairs = fixed_pairs + [(i, wt) for i in t]
            if pairs:
                out.append(Coeffs.from_pairs(pairs))
    out.extend(Coeffs.from_pairs([(i, 1)]) for i in sup)
    return out


@lru_cache(maxsize=None)
def _restricted_sign_patterns(k: int, card: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Sign patterns on k visible slots of a decorated set of ``card``
    slots, sorted: the restrictions of its sign vectors, those with a plus
    count P of ``_plus_counts(card, width)`` (the slots are
    interchangeable, so the first k stand for any), which are the k-slot
    patterns whose plus count p has max(0, P - card + k) <= p <= min(k, P)
    for an allowed P."""
    plus = {p for big in _plus_counts(card, width)
            for p in range(max(0, big - card + k), min(k, big) + 1)}
    # product over (-1, 1) yields the patterns in sorted order
    return tuple(sv for sv in itertools.product((-1, 1), repeat=k) if sv.count(1) in plus)


def zrud_functionals(
    ctx: "MrContext", support: tuple[int, ...]
) -> list[NormingFunctional]:
    """Decorated, undecorated, and coordinate functionals restricted to the
    support (both global signs are covered by the absolute pairing)."""
    sup = sorted(set(support))
    sup_set = set(sup)
    out: list[NormingFunctional] = [Coeffs.from_pairs([(i, 1)]) for i in sup]
    for fam in ctx.families:
        level_slots: list[tuple[list[int], int]] = []
        # decorated members: per-level balanced signs, tails capped
        options: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        for s in fam.fixed:
            visible = sorted(s & sup_set)
            level_slots.append((visible, len(s)))
            pats = _restricted_sign_patterns(len(visible), len(s), ctx.width)
            options.append([(tuple(visible), sv) for sv in pats])
        tails = list(_subsets_upto([i for i in sup if i > fam.tail_min], fam.tail_card))
        tpats = {k: _restricted_sign_patterns(k, fam.tail_card, ctx.width)
                 for k in {len(t) for t in tails}}
        levels = prod(map(len, options))
        members = sum(1 + levels * len(tpats[len(t)]) for t in tails)
        if members > ZRUD_FAMILY_CAP:
            raise DomainError(
                f"a zrud family has {members} members on this {len(sup)}-index "
                f"support, past the cap {ZRUD_FAMILY_CAP}")
        wt = _weight(fam.tail_card)
        cards = [len(s) for s in fam.fixed] + [fam.tail_card]
        for t in tails:
            # undecorated member of the family
            pairs = [(i, wt) for i in t]
            for visible, card in level_slots:
                w = _weight(card)
                pairs.extend((i, w) for i in visible)
            if pairs:
                out.append(Coeffs.from_pairs(pairs))
            for chosen in itertools.product(
                    *options, [(tuple(t), sv) for sv in tpats[len(t)]]):
                pairs = []
                for (slots, sv), card in zip(chosen, cards):
                    w = _weight(card)
                    pairs.extend((i, e * w) for i, e in zip(slots, sv))
                if pairs:
                    out.append(Coeffs.from_pairs(pairs))
    return out


# ---------------------------------------------------------------------------
# context and spaces
# ---------------------------------------------------------------------------


def universe_ok(universe: int) -> bool:
    """Whether :class:`MrContext` takes this coded universe."""
    return 0 <= universe <= MAX_UNIVERSE


def max_n_ok(max_n: int) -> bool:
    """Whether :class:`MrContext` takes this maximal tuple length."""
    return max_n >= 1


def width_ok(width: int) -> bool:
    """Whether :class:`MrContext` takes this sign-balance width."""
    return width >= 0


class MrContext:
    """Levels, coder, and the three norm engines built on them."""

    def __init__(
        self,
        levels: tuple[int, ...] = DEFAULT_LEVELS,
        universe: int = DEFAULT_UNIVERSE,
        max_n: int = DEFAULT_MAX_N,
        width: int = 0,
    ):
        if not universe_ok(universe):
            raise DomainError(f"coded universe {universe} is outside [0, {MAX_UNIVERSE}]")
        if not max_n_ok(max_n):
            raise DomainError(f"maximal tuple length {max_n} is below 1")
        if not width_ok(width):
            raise DomainError(f"sign-balance width {width} (config key mr.width) is below 0")
        self.levels = LevelSequence(tuple(levels))
        self.universe = universe
        self.max_n = max_n
        self.width = width
        self.coder = SigmaCoder(self.levels, universe)
        self.families = closure_families(self.coder, self.levels, max_n)
        self.zmr = ZmrSpace(self)
        self.zrud = ZrudSpace(self)
        self.zruc = RenormSpace(self.zmr, Fraction(1))
        self.zruc.name = "zruc"
        self.zruc.sweep_max_m = 6
        self.zruc.sweep_indices = tuple(range(min(6, universe)))

    def canonical_blocks(self, n: int) -> list[frozenset[int]]:
        """Consecutive index blocks with the prefix cardinalities."""
        if n > len(self.levels.prefix):
            raise DomainError(f"only {len(self.levels.prefix)} levels are configured")
        blocks = []
        start = 0
        for c in self.levels.prefix[:n]:
            blocks.append(frozenset(range(start, start + c)))
            start += c
        if start > self.universe:
            raise DomainError("coded universe too small for the requested depth")
        return blocks

    def block_vector(self, n: int) -> Coeffs:
        """x = sum over the first n blocks of (#s)^(-1/2) * indicator."""
        pairs: list[tuple[int, Scalar]] = []
        for s in self.canonical_blocks(n):
            w = _weight(len(s))
            pairs.extend((i, w) for i in s)
        return Coeffs.from_pairs(pairs)


def _plus_range(k: int, card: int, width: int) -> tuple[int, int]:
    """Least and most plus signs that the sign vectors of a decorated set of
    ``card`` slots put on ``k`` of its slots, the counts that
    ``_restricted_sign_patterns`` lists.  The width rule allows P plus signs
    when |2P - card| <= width * sqrt(card), a range symmetric about card/2,
    so its most plus signs are also its most minus signs."""
    most = max(_plus_counts(card, width))
    return max(0, k - most), min(k, most)


@dataclass(frozen=True)
class _Layout:
    """Where the tuple families sit on one support (m entries), whatever
    the columns: F families, G distinct ``tail_min``, L decorated levels
    (one per family and fixed set seen on the support) and R rows, the
    families' high rows, then their low rows, then, if decorated, their
    decorated rows."""

    decorated: bool
    cards: np.ndarray  # (R, m) cardinality whose 1/sqrt weights an entry (0: none)
    #: per functional core, ascending, (R + m, m) integer weight numerators
    #: over ``fscale``: 1/sqrt(c) = sqrt(core)/(outer*core), c = outer^2*core,
    #: on the R family rows, then the coordinate functionals, ``fscale``
    #: times the identity under core 1
    weights: dict[int, np.ndarray]
    fscale: int
    fixed: np.ndarray  # (F, m, 1) int8: 1 on the entries of the fixed sets
    tail_card: np.ndarray  # (F, 1, 1)
    tail_signs: np.ndarray  # (F, 1, 1) most entries of one sign a decorated tail takes
    group: np.ndarray  # (F,) each family's row of ``avail``
    avail: np.ndarray  # (G, m, 1) entries a free tail may take
    level_family: np.ndarray  # (L,)
    inside: np.ndarray  # (L, m, 1) the level's visible entries
    visible: np.ndarray  # (L, 1, 1) their count
    plus_lo: np.ndarray  # (L, 1, 1) least and most plus signs the level allows
    plus_hi: np.ndarray


def _layout(ctx: MrContext, support: tuple[int, ...], decorated: bool) -> _Layout:
    sup = np.array(support, dtype=np.int64)
    fams = ctx.families
    cards = np.zeros((len(fams), len(sup)), dtype=np.int64)
    groups = {t: g for g, t in enumerate(dict.fromkeys(fam.tail_min for fam in fams))}
    levels: list[tuple[int, np.ndarray, int, int, int]] = []
    for f, fam in enumerate(fams):
        for s in fam.fixed:
            inside = np.isin(sup, list(s))
            cards[f, inside] = len(s)
            k = int(inside.sum())
            if k:
                levels.append((f, inside, k, *_plus_range(k, len(s), ctx.width)))
    fixed = (cards > 0).astype(np.int8)[:, :, None]
    for f, fam in enumerate(fams):
        cards[f, sup > fam.tail_min] = fam.tail_card
    cards = np.tile(cards, (3 if decorated else 2, 1))
    split = {c: split_square(c) for c in set(cards[cards > 0].tolist())}
    fscale = lcm(1, *(o * c for o, c in split.values()))
    shape = (len(cards) + len(sup), len(sup))
    weights = {1: np.zeros(shape, dtype=np.int64)}
    weights[1][len(cards):] = fscale * np.eye(len(sup), dtype=np.int64)
    for c, (o, core) in sorted(split.items(), key=lambda kv: kv[1][1]):
        weights.setdefault(core, np.zeros(shape, dtype=np.int64))[:len(cards)][cards == c] = \
            fscale // (o * core)

    def col(xs: list[int]) -> np.ndarray:
        return np.array(xs, dtype=np.int64).reshape(-1, 1, 1)

    return _Layout(
        decorated=decorated,
        cards=cards,
        weights=weights,
        fscale=fscale,
        fixed=fixed,
        tail_card=col([fam.tail_card for fam in fams]),
        tail_signs=col([_plus_range(f.tail_card, f.tail_card, ctx.width)[1] for f in fams]),
        group=np.array([groups[fam.tail_min] for fam in fams], dtype=np.intp),
        avail=np.array([sup > t for t in groups], dtype=bool).reshape(len(groups), len(sup), 1),
        level_family=np.array([lv[0] for lv in levels], dtype=np.intp),
        inside=np.array([lv[1] for lv in levels], dtype=bool).reshape(len(levels), len(sup), 1),
        visible=col([lv[2] for lv in levels]),
        plus_lo=col([lv[3] for lv in levels]),
        plus_hi=col([lv[4] for lv in levels]),
    )


def _family_rows(lay: _Layout, signs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per tuple family, the members that attain its supremum on each column.

    ``signs`` (m, N) are the signs of the column entries and ``order`` (m, N)
    lists each column's rows by decreasing magnitude.  Returns the signs
    (R, m, N) that each row's functional puts on each entry of each column;
    ``lay.cards`` gives the weights.  Per family there is a high row (the
    fixed part plus the largest positive entries the tail may take, at most
    ``tail_card``) and a low row (the fixed part plus the most negative
    ones): the best tails, read off counts in magnitude order, so one of
    the two pairs to the family's supremum of |<phi, a>|.  A decorated
    family adds one row, the sum of its parts' maxima (the family is
    closed under a global sign flip, so this is its supremum): on each
    fixed level the p largest entries take plus signs, p the count of
    positive entries clamped to the level's allowed range, and the tail
    takes the largest entries, each with its own sign, greedily in
    magnitude order under three caps: at most ``tail_signs`` plus signs,
    as many minus signs and ``tail_card`` entries.  These caps form a
    laminar matroid, so the greedy choice is optimal.
    """
    pos, neg = signs > 0, signs < 0
    g = len(lay.avail)
    parts = [pos & lay.avail, neg & lay.avail]
    if lay.decorated:
        parts += [pos & lay.inside, neg & lay.inside]
    masks = np.concatenate(parts)
    # at each entry, the count of its mask's entries up to it in its
    # column's magnitude order (at most m, so in the narrowest unsigned type)
    cols = np.arange(order.shape[1])
    counts = np.empty(masks.shape, dtype=np.min_scalar_type(masks.shape[1]))
    counts[:, order, cols] = masks[:, order, cols].cumsum(axis=1, dtype=counts.dtype)
    tp, tn = masks[:g][lay.group], masks[g:2 * g][lay.group]
    cp, cn = counts[:g][lay.group], counts[g:2 * g][lay.group]
    rows = [lay.fixed + (tp & (cp <= lay.tail_card)), lay.fixed + (tn & (cn <= lay.tail_card))]
    if lay.decorated:
        # an entry is taken while its sign's cap and the total cap hold
        # after it: cp (cn) at an entry counts the positive (negative) tail
        # entries up to it in magnitude order
        cap = lay.tail_signs
        fits = np.minimum(cp, cap) + np.minimum(cn, cap) <= lay.tail_card
        dec = (tp & (cp <= cap) & fits).astype(np.int8) - (tn & (cn <= cap) & fits)
        nl = len(lay.inside)
        vp, vn = masks[2 * g:2 * g + nl], masks[2 * g + nl:]
        cvp, cvn = counts[2 * g:2 * g + nl], counts[2 * g + nl:]
        p = np.clip(vp.sum(axis=1, keepdims=True), lay.plus_lo, lay.plus_hi)
        # plus signs on the p largest entries: the first p positive ones,
        # then zeros, then the least negative ones
        level = (np.where(vp, np.where(cvp <= p, 1, -1), 0)
                 + np.where(vn, np.where(cvn <= lay.visible - p, -1, 1), 0))
        np.add.at(dec, lay.level_family, level.astype(np.int8))
        rows.append(dec)
    return np.concatenate(rows).astype(np.int8)


def _magnitude_order(a: Coeffs, mult: np.ndarray) -> np.ndarray:
    """(m, N) row indices: each column's entries ``a_i * mult_ij`` by
    decreasing magnitude, compared exactly.  One sort serves every column
    with multipliers in {-1, 0, 1}; a column with a larger multiplier is
    sorted by its |column|, once per distinct |column|."""
    mags = [abs(v) for _, v in a.entries]
    rows = range(len(mags))
    out = np.empty(mult.shape, dtype=np.intp)
    out[:] = np.array(sorted(rows, key=mags.__getitem__, reverse=True), dtype=np.intp)[:, None]
    big = np.flatnonzero(np.abs(mult).max(axis=0) > 1) if _peak(mult) > 1 else ()
    if len(big):
        cols, which = np.unique(np.abs(mult[:, big]), axis=1, return_inverse=True)
        orders = [sorted(rows, key=lambda i: mags[i] * c[i], reverse=True)
                  for c in cols.T.tolist()]
        out[:, big] = np.array(orders, dtype=np.intp).T[:, which.ravel()]
    return out


class _CodingSpace(Space):
    """A coding-function space: the supremum over its tuple families and
    the coordinate functionals, evaluated in closed form.

    The exact batch never lists a family.  The layout's weights, the R
    family rows' and the coordinate functionals', make one integer form per
    square-free core with the entries (:func:`~rudlab.spaces._core_forms`);
    per column block, one einsum pairs the signs that the few rows of
    :func:`_family_rows` put on the entries, times the multipliers, with
    each core's form, the coordinate rows pair each entry alone, and the
    norming-set reduction takes the supremum.  The float batch pairs the
    same family rows with the float entries.
    """

    decorated = False

    def __init__(self, name: str, ctx: MrContext):
        self.name = name
        self.ctx = ctx
        self._layouts: dict[tuple[int, ...], _Layout] = {}

    def _layout(self, support: tuple[int, ...]) -> _Layout:
        return _cached(self._layouts, support,
                       lambda: _layout(self.ctx, support, self.decorated))

    def mult_batch(self, a, mult):
        lay = self._layout(a.support)
        entry_signs = np.array([1 if v > 0 else -1 for _, v in a.entries], dtype=np.int8)
        forms, vden, bound = _core_forms(a, lay.weights, _peak(mult))
        dtype = int_dtype(bound)
        rows, m = lay.cards.shape
        # the coordinate rows of a form are diagonal: each pairs one entry
        coords = {c: np.diagonal(w[rows:])[:, None] for c, w in forms.items()}

        def block(sl):
            # the family rows' signs are column-local
            cols = mult[:, sl]
            phi = _family_rows(lay, entry_signs[:, None] * np.sign(cols), _magnitude_order(a, cols))
            pm = np.multiply(phi, cols, dtype=dtype)
            return {c: np.concatenate([np.einsum("ri,rij->rj", w[:rows], pm), coords[c] * cols])
                    for c, w in forms.items()}

        # per column, the family rows' signs (and their products with the
        # multipliers) hold R x m entries, the pairings R + m
        return _normingset_reduce_blocks(block, (rows + 1) * m, mult.shape[1],
                                         lay.fscale * vden, _image_slack(bound, forms, m))

    def mult_batch_float(self, a, mult):
        """The family rows and their pairings one column block at a time
        (:func:`_column_blocks`, at the exact batch's (R + 1) x m entries
        per column); each column's einsum sums in the whole batch's order."""
        v = a.values_float()[:, None] * mult
        lay = self._layout(a.support)
        weights = np.where(lay.cards > 0, 1.0 / np.sqrt(np.maximum(lay.cards, 1)), 0.0)
        rows, m = lay.cards.shape
        out = np.abs(v).max(axis=0, initial=0.0)
        for sl in _column_blocks((rows + 1) * m, v.shape[1]):
            block = v[:, sl]
            order = np.argsort(-np.abs(block), axis=0, kind="stable")
            phi = _family_rows(lay, np.sign(block), order)
            fams = np.abs(np.einsum("rij,ri,ij->rj", phi, weights, block))
            np.maximum(out[sl], fams.max(axis=0, initial=0.0), out=out[sl])
        return out


class ZmrSpace(_CodingSpace):
    def __init__(self, ctx: MrContext):
        super().__init__("zmr", ctx)
        self.sweep_indices = tuple(range(min(8, ctx.universe)))
        self.sweep_max_m = 8


class ZrudSpace(_CodingSpace):
    decorated = True

    def __init__(self, ctx: MrContext):
        super().__init__("zrud", ctx)
        self.sweep_indices = tuple(range(min(6, ctx.universe)))
        self.sweep_max_m = 6


# ---------------------------------------------------------------------------
# witnesses and reports
# ---------------------------------------------------------------------------


@dataclass
class WitnessReport:
    vector: Coeffs
    tuple_sets: AdmissibleTuple
    norm: Scalar
    expectation: "object"  # ExpectationEstimate
    analytic_bound: Scalar


def mr_witness(
    n: int,
    ctx: MrContext,
    mc_samples: int = 1_000_000,
    seed: int | None = None,
) -> WitnessReport:
    """The depth-n block vector with its norm and sign average.

    The norm is certified >= n by the matching tuple functional; the sign
    average is exact on at most ``WITNESS_CAP`` entries and a Monte-Carlo
    bracket beyond them.  The analytic upper bound carried along
    is 1 + 2*delta_hat + 2*sqrt(sum 1/#s_i) with the measured delta_hat.
    """
    from .rademacher import expect_exact, expect_mc
    from .rng import DEFAULT_SEED

    blocks = ctx.canonical_blocks(n)
    x = ctx.block_vector(n)
    norm = ctx.zmr.norm(x)
    if len(x) <= WITNESS_CAP:
        est = expect_exact(ctx.zmr, x)
    else:
        est = expect_mc(ctx.zmr, x, mc_samples, DEFAULT_SEED if seed is None else seed)
    inv = Fraction(0)
    for s in blocks:
        inv += Fraction(1, len(s))
    bound = 1 + 2 * ctx.levels.delta_hat + 2 * sqrt_exact(inv)
    return WitnessReport(x, AdmissibleTuple(tuple(blocks)), norm, est, bound)


def zrud_block_sandwich(ctx: MrContext, families: list[list]) -> list[tuple[Scalar, Scalar, Scalar]]:
    """(sup of partial sums, exact norm, upper constant) for each
    ``sum a_j x_j`` of the block coefficient lists ``families``, the norms
    from one zrud engine batch (:meth:`~rudlab.spaces.Space.norms`, at any
    ``ctx.width``)."""
    vectors = []
    for a_blocks in families:
        blocks = ctx.canonical_blocks(len(a_blocks))
        vectors.append(Coeffs.from_pairs(
            (i, _weight(len(s)) * Fraction(a)) for a, s in zip(a_blocks, blocks) for i in s))
    const = 3 + 4 * ctx.levels.delta_hat
    out = []
    for a_blocks, norm in zip(families, ctx.zrud.norms(vectors)):
        sup: Scalar = 0
        acc = Fraction(0)
        for a in a_blocks:
            acc += Fraction(a)
            if abs(acc) > sup:
                sup = abs(acc)
        out.append((sup, norm, const))
    return out
