"""Inductive biorthogonal tree construction inside l1/linf coordinate spaces.

Level sets Delta_n of index elements are built inductively; each element
sigma carries a dual vector d_sigma* = u_sigma* - c_sigma* in l1 of the
previously built indices and a basis vector d_sigma in linf whose lower
coordinates never change afterwards.  The auxiliary functional of a
quintuple (m, e0, e1, s0, s1) is

    c_sigma* = e0 u_{s0}* + e1 * b * (u_{s1}* - P_m* u_{s1}*)

with P_m* the basis projection onto the first m levels.  Two deliberate
readings make the desk-scale object closed (see the level-1 bootstrap and
the s0 bound in ``_CandidateStream``); both preserve every quantitative
estimate checked by the suite.

All arithmetic is exact: coordinates are rationals held as integer matrices
with one common denominator, reduced after every level.  The matrices are
row-compressed (``SparseRows``): each basis and dual vector has a few
nonzero coordinates, so the build and every query keep memory proportional
to the nonzeros.  A level's new rows are Gustavson row products (ACM TOMS
4(3), 1978) summed in one dense accumulator over the old index set.  Caps
keep each level polynomial; a deterministic seeded sample is retained
together with the full chain lattice over the per-level designated extremal
coordinates, so every chain witness the estimates need stays representable.

Candidates are integer index keys (m, e0, e1, index(s0), index(s1)); an
element object is built only for the keys a level keeps.  Elements are
canonical and compare by identity (see ``GammaElement``).

The candidates of a level form a stream with a closed-form index: one block
per m, of known size, in (i0, i1, e0, e1) order, so a position decodes to
its key by ``divmod`` and the chain keys become a sorted list of skipped
positions (``_CandidateStream``).  The non-chain candidates are sampled by
reservoir sampling (Vitter's algorithm R, TOMS 1985) whose draws are
``random.Random(derive_seed(seed, lvl)).randrange`` calls.  The build
replays those draws exactly from the Mersenne Twister's 32-bit outputs,
fetched in batches through ``getrandbits`` (``_reservoir``): a draw below
2^k takes the top k bits of one output and rejects them when they reach
the range, and the rejections of a batch are the fixed point of that rule
(``_replay_draws``).  Only each slot's last writer is kept, and only the
kept positions are decoded, so the tree is the one that one ``randrange``
call per streamed candidate would sample.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .batches import ExactBatch, _peak
from .coeffs import DEFAULT_ENUM_CAP, Coeffs, DomainError
from .rng import derive_seed
from .spaces import Space, _column_blocks, _float_values, _int_mult_values, _int_product

DEFAULT_LAMBDA = Fraction(2)
DEFAULT_B = Fraction(1, 4)
DEFAULT_LEVELS = 4
DEFAULT_CAP = 200
_WORDS = 1 << 14  # generator outputs fetched per getrandbits call


@dataclass
class SparseRows:
    """An int64 matrix in row-compressed form: row i holds the columns
    ``cols[ptr[i]:ptr[i + 1]]``, ascending, with the values
    ``vals[ptr[i]:ptr[i + 1]]``; every other entry is 0."""

    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    ncols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ptr) - 1, self.ncols

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi]


def _segments(ptr: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The storage positions of the rows ``which`` of a compressed matrix
    with row pointers ``ptr``, concatenated in order, and each row's length."""
    starts = ptr[which]
    lens = ptr[which + 1] - starts
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum()), lens


def _accumulate(acc: np.ndarray, mat: SparseRows, which: np.ndarray, coefs: np.ndarray):
    """``acc += coefs @ mat[which]``: Gustavson's row product, each row of
    ``mat`` scaled by its coefficient and scattered into the dense
    accumulator ``acc``.  Integer sums do not depend on their order."""
    at, lens = _segments(mat.ptr, which)
    np.add.at(acc, mat.cols[at], np.repeat(coefs, lens) * mat.vals[at])


def _drain(acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero columns of ``acc``, ascending, and their values; leaves
    ``acc`` zero for the next row."""
    cols = np.flatnonzero(acc)
    vals = acc[cols]
    acc[cols] = 0
    return cols, vals


def _stack(head: SparseRows, factor: int, rows: list[tuple[np.ndarray, np.ndarray]],
           diag: int) -> SparseRows:
    """``head`` times ``factor`` with ``rows`` appended below it, new row k
    closed by ``diag`` in column ``head.shape[0] + k``, past its columns."""
    old = head.shape[0]
    lens = np.array([len(c) for c, _ in rows], dtype=np.int64)
    ends = np.cumsum(lens)
    cols = np.insert(np.concatenate([c for c, _ in rows]), ends, np.arange(old, old + len(rows)))
    vals = np.insert(np.concatenate([v for _, v in rows]), ends, diag)
    return SparseRows(
        np.concatenate((head.ptr, head.ptr[-1] + ends + np.arange(1, len(rows) + 1))),
        np.concatenate((head.cols, cols)),
        np.concatenate((head.vals * factor, vals)),
        old + len(rows),
    )


def _reduce(mat: SparseRows, scale: int) -> tuple[SparseRows, int]:
    """``mat / scale`` with the common factor of the nonzeros and the scale
    divided out."""
    g = gcd(int(np.gcd.reduce(np.abs(mat.vals))), scale)
    return SparseRows(mat.ptr, mat.cols, mat.vals // g, mat.ncols), scale // g


def _column_view(mat: SparseRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column pointers, row indices and storage positions of ``mat`` read
    by columns: column j holds the rows ``rows[ptr[j]:ptr[j + 1]]``,
    ascending, with the values ``mat.vals[pos[ptr[j]:ptr[j + 1]]]``."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.ptr))
    pos = np.argsort(mat.cols, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(mat.cols, minlength=mat.ncols))))
    return ptr, rows[pos], pos


def _unit() -> SparseRows:
    """The 1 x 1 identity, the matrices of the root alone."""
    return SparseRows(np.array([0, 1]), np.array([0]), np.array([1], dtype=np.int64), 1)


def _check_headroom(*bounds: int) -> None:
    """Refuse integer magnitudes that int64 arithmetic could not hold."""
    if max(bounds) >= 1 << 62:
        raise DomainError("integer coordinate magnitudes too large")


#: the tree parameters :class:`BDParams` takes
TREE_PARAMS = "lambda > 1, 0 < b < 1/2 and 1 + 2*b*lambda <= lambda"


def tree_params_ok(lam: Fraction, b: Fraction) -> bool:
    """Whether :class:`BDParams` takes these lambda and b (``TREE_PARAMS``)."""
    return lam > 1 and 0 < b < Fraction(1, 2) and 1 + 2 * b * lam <= lam


@dataclass(frozen=True)
class BDParams:
    lam: Fraction = DEFAULT_LAMBDA
    b: Fraction = DEFAULT_B
    levels: int = DEFAULT_LEVELS
    cap: int = DEFAULT_CAP
    seed: int = 0

    def __post_init__(self):
        lam, b = Fraction(self.lam), Fraction(self.b)
        object.__setattr__(self, "lam", lam)  # the build needs exact values
        object.__setattr__(self, "b", b)
        if not tree_params_ok(lam, b):
            raise DomainError(f"need {TREE_PARAMS}")
        if self.cap < 2 or self.levels < 0:
            raise DomainError("need cap >= 2 and levels >= 0")


@dataclass(frozen=True, eq=False)
class GammaElement:
    """Root, a level-1 bootstrap pair, or a full quintuple.

    Elements are canonical: each is built exactly once, when its level is
    built, and its children are the already built elements of lower levels.
    They therefore hash and compare by identity, which makes membership in
    ``Gamma.index`` and the chain set O(1) instead of a walk of the subtree.
    """

    level: int
    kind: str  # "root" | "boot" | "quin"
    m: int = 0
    eps0: int = 1
    eps1: int = 0
    sigma0: "GammaElement | None" = None
    sigma1: "GammaElement | None" = None


class _CandidateStream:
    """Closed-form index of the candidate stream of Delta_lvl: one block of
    hi0 * (hi1 - lo1) * 4 index keys (m, e0, e1, index(s0), index(s1)) per
    m < lvl - 1, in (i0, i1, e0, e1) order with the signs running 1, -1.

    s0 may live anywhere in the union up to level m+1 (the chain recursion
    requires reaching the elements born at level m+1), s1 anywhere strictly
    above level m.
    """

    def __init__(self, gamma: Gamma, lvl: int):
        n_prev = lvl - 1
        hi1 = gamma.gamma_size(n_prev)
        self.blocks: list[tuple[int, int, int]] = []  # (start, lo1, hi1 - lo1)
        start = 0
        for m in range(n_prev):
            lo1 = gamma.gamma_size(m)
            self.blocks.append((start, lo1, hi1 - lo1))
            start += gamma.gamma_size(min(m + 1, n_prev)) * (hi1 - lo1) * 4
        self.starts = [b[0] for b in self.blocks]
        self.length = start

    def key(self, pos: int) -> tuple:
        m = bisect_right(self.starts, pos) - 1
        start, lo1, width = self.blocks[m]
        i0, rest = divmod(pos - start, 4 * width)
        i1, e = divmod(rest, 4)
        return m, 1 - 2 * (e >> 1), 1 - 2 * (e & 1), i0, lo1 + i1

    def position(self, key: tuple) -> int:
        m, e0, e1, i0, i1 = key
        start, lo1, width = self.blocks[m]
        return start + 4 * (i0 * width + i1 - lo1) + (1 - e0) + (1 - e1) // 2


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The generator's next ``count`` 32-bit outputs, in order: CPython's
    ``getrandbits`` fills its result one output per 32-bit word, from the
    least significant word up."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
                         dtype="<u4")


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, replayed from 32-bit outputs: CPython draws
    ``getrandbits(n.bit_length())`` until the draw is below n, and
    ``getrandbits(k)`` takes ceil(k / 32) outputs, least significant word
    first, keeping the top bits of the last one."""
    k = n.bit_length()
    while True:
        r = 0
        for low in range(0, k, 32):
            r |= rng.getrandbits(32) >> max(0, low + 32 - k) << low
        if r < n:
            return r


def _replay_draws(r: np.ndarray, n0: int, budget: int, slots: list[int]) -> int:
    """Replay the draws ``randrange(n0)``, ``randrange(n0 + 1)``, ... that
    consume the outputs whose top k bits are ``r``, where every range is
    below 2^k: output q is a draw from range n0 + q - R_q, with R_q the
    rejected outputs before q, and is rejected when r_q reaches that range.
    R_q depends only on the outputs before q, so the rule has one fixed
    point, and iterating it from R = 0 climbs to it: a larger R lowers the
    ranges and so rejects more, and each round fixes at least one more
    leading entry.  Since R_q <= q, no range falls below n0, so only the
    outputs r_q >= n0 can be rejected and the rounds run over those alone.
    Once a round leaves R unchanged before some output, R is fixed up to and
    including it, so the next round rescans only from the first output whose
    R changed.  Draws below ``budget`` overwrite their slot with the
    candidate's ordinal (range - 1); ``_reservoir`` keeps n0 > budget, so
    those draws are never rejected.  Returns the range of the next draw."""
    at = np.flatnonzero(r >= n0)
    need = n0 + at - r[at]  # output at[i] is rejected when R reaches need[i]
    rejected_before = np.zeros(len(at), dtype=np.int64)
    rejected = need <= 0
    lo = 0  # R is fixed on [0, lo]
    while lo < len(at):
        tail = rejected[lo:]
        again = np.cumsum(tail) - tail + rejected_before[lo]
        changed = again != rejected_before[lo:]
        if not changed.any():
            break
        first = int(changed.argmax())
        lo += first
        rejected_before[lo:] = again[first:]
        rejected[lo:] = rejected_before[lo:] >= need[lo:]
    hit = np.flatnonzero(r < budget)
    ranges = n0 + hit - np.searchsorted(at[rejected], hit)
    for j, n in zip(r[hit].tolist(), ranges.tolist()):
        slots[j] = n - 1
    return n0 + len(r) - int(rejected.sum())


def _reservoir(rng: random.Random, budget: int, total: int) -> list[int]:
    """Ordinals of the candidates that reservoir sampling (Vitter's
    algorithm R) keeps out of ``total``: the first ``budget`` fill the
    slots, then candidate c replaces slot ``rng.randrange(c + 1)`` when that
    is below ``budget``.  The draws are replayed from the generator's
    outputs in batches of at most ``_WORDS``, and only each slot's last
    writer is recorded."""
    slots = list(range(min(budget, total)))
    n = budget + 1  # the range of the next draw
    while n <= total:
        k = n.bit_length()
        if k > 32:  # past 2^32 candidates a try takes ceil(k / 32) outputs
            j = _randbelow(rng, n)
            if j < budget:
                slots[j] = n - 1
            n += 1
            continue
        # every draw fed by this batch has its range below min(total + 1, 2^k)
        count = min(total + 1, 1 << k) - n
        r = _words(rng, min(count, _WORDS)).astype(np.int64) >> (32 - k)
        n = _replay_draws(r, n, budget, slots)
    return slots


def _level_order(item) -> tuple:
    """Within a level, elements sort by (m, index(s0), index(s1), -e0, -e1)."""
    (m, e0, e1, i0, i1), _ = item
    return m, i0, i1, -e0, -e1


class Gamma:
    """The built structure: elements in order, with exact coordinate data."""

    def __init__(self, params: BDParams):
        self.params = params
        self.levels: list[list[GammaElement]] = []
        self.index: dict[GammaElement, int] = {}
        self.designated: list[GammaElement] = []
        self.chains: dict[tuple, GammaElement] = {}
        # D[i, j] / d_scale = coordinate i of the j-th basis vector
        self.D = _unit()
        self.d_scale = 1
        # Dstar[i, j] / s_scale = coordinate j of the i-th dual vector
        self.Dstar = _unit()
        self.s_scale = 1
        self._columns = _column_view(self.D)
        root = GammaElement(0, "root")
        self.levels.append([root])
        self.index[root] = 0
        self.designated.append(root)
        for lvl in range(1, params.levels + 1):
            self._build_level(lvl)

    # -- element bookkeeping ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.index)

    def elements(self) -> list[GammaElement]:
        return [e for lvl in self.levels for e in lvl]

    def level_indices(self, m: int) -> list[int]:
        return [self.index[e] for e in self.levels[m]]

    def gamma_size(self, m: int) -> int:
        """Number of elements in the union of levels 0..m."""
        return sum(len(self.levels[k]) for k in range(m + 1))

    # -- construction ---------------------------------------------------------

    def _chain_elements(self, lvl: int) -> list[GammaElement]:
        """Chain-lattice members of Delta_lvl over designated coordinates.

        A chain over levels m_0 < ... < m_k with per-level signs has its
        i-th element in Delta_{m_i + 1}; members of Delta_lvl are those
        with m_k = lvl - 1.
        """
        out = []
        top = lvl - 1
        d_top = self.designated[top]
        for m0 in range(0, top):
            for e0 in (1, -1):
                for e1 in (1, -1):
                    elem = GammaElement(
                        lvl, "quin", m0, e0, e1, self.designated[m0], d_top
                    )
                    self.chains[((m0, top), (e0, e1))] = elem
                    out.append(elem)
        for (lvls, signs), prev in list(self.chains.items()):
            m_prev = lvls[-1]
            if m_prev >= top or prev.level != m_prev + 1:
                continue
            for e in (1, -1):
                elem = GammaElement(lvl, "quin", m_prev, 1, e, prev, d_top)
                self.chains[(lvls + (top,), signs + (e,))] = elem
                out.append(elem)
        return out

    def _build_level(self, lvl: int):
        params = self.params
        if lvl == 1:
            new = [
                GammaElement(1, "boot", 0, e0, 0, self.designated[0], None)
                for e0 in (1, -1)
            ]
        else:
            index = self.index
            mandatory = [
                ((e.m, e.eps0, e.eps1, index[e.sigma0], index[e.sigma1]), e)
                for e in self._chain_elements(lvl)
            ]
            # the chain lattice is always kept in full, and at least one
            # further element is sampled so a non-chain designated extremal
            # coordinate exists (the cap is a soft target)
            budget = max(1, params.cap - len(mandatory))
            stream = _CandidateStream(self, lvl)
            # the sample skips the chain keys' positions; position minus
            # rank counts the sampled candidates before each of them
            skip = sorted({stream.position(k) for k, _ in mandatory})
            before = np.array(skip, dtype=np.int64) - np.arange(len(skip))
            rng = random.Random(derive_seed(params.seed, lvl))
            ords = np.array(_reservoir(rng, budget, stream.length - len(skip)),
                            dtype=np.int64)
            positions = ords + np.searchsorted(before, ords, side="right")
            # only the kept keys become elements
            flat = self.elements()
            kept = mandatory + [
                ((m, e0, e1, i0, i1),
                 GammaElement(lvl, "quin", m, e0, e1, flat[i0], flat[i1]))
                for m, e0, e1, i0, i1 in map(stream.key, positions.tolist())
            ]
            kept.sort(key=_level_order)
            new = [e for _, e in kept]
        old = self.size
        for k, e in enumerate(new):
            self.index[e] = old + k
        self.levels.append(new)
        # The designated extremal coordinate must not itself be a chain
        # element: chain replay evaluates coordinates at chain elements, and
        # a coefficient sitting there would contaminate the recursion.
        chain_set = set(self.chains.values())
        designated = next((e for e in new if e not in chain_set), None)
        if designated is None:
            raise DomainError("cap too small to retain a non-chain coordinate")
        self.designated.append(designated)
        self._extend_matrices(new)

    def _extend_matrices(self, new: list[GammaElement]):
        params = self.params
        D, Dstar = self.D, self.Dstar
        old = D.shape[0]
        b_num, b_den = params.b.numerator, params.b.denominator
        sc = b_den * self.d_scale * self.s_scale
        d_scale_new = sc * self.d_scale
        # Bounds, as Python ints, on every int64 entry filled below, so the
        # arrays cannot wrap silently: c_max bounds the c rows and their
        # projection terms, and the c row sums bound the new rows of D.
        m_d = int(np.abs(D.vals).max())
        m_s = int(np.abs(Dstar.vals).max())
        c_max = sc + b_num * (self.d_scale * self.s_scale + m_d * m_s * old)
        _check_headroom(
            d_scale_new, m_d * sc, m_s * (sc // self.s_scale), c_max * old
        )
        sizes = [self.gamma_size(m) for m in range(len(self.levels))]
        acc = np.zeros(old, dtype=np.int64)
        tails = {}

        def tail(i1: int, m: int):
            """u_{s1}* - P_m* u_{s1}* times d_scale * s_scale, and its product
            with D, once per (s1, m): P_m* u_{s1} sums (d_rho)_{s1} d_rho*
            over the first gamma_size(m) duals."""
            if (i1, m) not in tails:
                acc[i1] = self.d_scale * self.s_scale
                cols, vals = D.row(i1)
                gm = np.searchsorted(cols, sizes[m])
                _accumulate(acc, Dstar, cols[:gm], -vals[:gm])
                q = _drain(acc)
                _accumulate(acc, D, *q)
                tails[i1, m] = q, _drain(acc)
            return tails[i1, m]

        # c_sigma* = e0 u_{s0}* + e1 * b * (u_{s1}* - P_m* u_{s1}*), times sc,
        # over the old index set; the dual row d* = u - c* keeps -c, and the
        # basis vectors gain the coordinates <c_sigma*, d_tau>, the row c @ D
        star_rows, dd_rows = [], []
        for e in new:
            i0 = self.index[e.sigma0]
            if e.kind == "quin":
                (qc, qv), (qdc, qdv) = tail(self.index[e.sigma1], e.m)
                acc[qc] = -e.eps1 * b_num * qv
            acc[i0] -= e.eps0 * sc
            star_rows.append(_drain(acc))
            if e.kind == "quin":
                acc[qdc] = e.eps1 * b_num * qdv
            cols, vals = D.row(i0)
            acc[cols] += e.eps0 * sc * vals
            dd_rows.append(_drain(acc))
        _check_headroom(max(int(np.abs(v).sum()) for _, v in star_rows) * m_d)
        # dual vectors at common scale sc, basis vectors at d_scale_new
        star = _stack(Dstar, sc // self.s_scale, star_rows, sc)
        dd = _stack(D, d_scale_new // self.d_scale, dd_rows, d_scale_new)
        # reduce common factors to keep entries small
        self.D, self.d_scale = _reduce(dd, d_scale_new)
        self.Dstar, self.s_scale = _reduce(star, sc)
        self._columns = _column_view(self.D)
        # Python ints, so the bound itself cannot wrap
        _check_headroom(
            int(np.abs(self.D.vals).max()) * int(np.abs(self.Dstar.vals).max()) * self.size
        )

    # -- exact queries ----------------------------------------------------------

    def biorthogonality_defect(self) -> int:
        """max |<d_sigma*, d_tau> - delta| over all built pairs, times scales.

        One row of ``Dstar @ D`` at a time, as a Gustavson row product in a
        dense accumulator, so a diagonal pairing that no stored entry
        reaches still counts, in int64, which the build's headroom checks
        keep from wrapping."""
        target = self.s_scale * self.d_scale
        acc = np.zeros(self.size, dtype=np.int64)
        worst = 0
        for i in range(self.size):
            _accumulate(acc, self.D, *self.Dstar.row(i))
            acc[i] -= target
            worst = max(worst, int(np.abs(acc).max()))
            acc[:] = 0
        return worst

    def dual_l1_norms(self) -> list[Fraction]:
        return [
            Fraction(int(np.abs(self.Dstar.row(i)[1]).sum()), self.s_scale)
            for i in range(self.size)
        ]

    def basis_sup_norms(self) -> list[Fraction]:
        ptr, _, pos = self._columns
        peaks = np.maximum.reduceat(np.abs(self.D.vals[pos]), ptr[:-1])
        return [Fraction(p, self.d_scale) for p in peaks.tolist()]

    def basis_block(self, cols) -> np.ndarray:
        """``D[:, cols]`` restricted to the rows where some of its columns
        is nonzero, ascending, as a dense int64 block; the other rows are
        0.  Every column holds ``d_scale`` on its diagonal, so no column
        is empty.  An index outside the tree raises :class:`DomainError`."""
        ptr, rows, pos = self._columns
        cols = np.asarray(cols, dtype=np.int64)
        bad = cols[(cols < 0) | (cols >= self.size)]
        if len(bad):
            raise DomainError(f"bd index {bad[0]} is outside the tree of {self.size} elements")
        at, lens = _segments(ptr, cols)
        keep, slot = np.unique(rows[at], return_inverse=True)
        block = np.zeros((len(keep), len(lens)), dtype=np.int64)
        block[slot, np.repeat(np.arange(len(lens)), lens)] = self.D.vals[pos[at]]
        return block

    def coordinate(self, element: GammaElement, combo: Coeffs) -> Fraction:
        """Exact coordinate of sum a_sigma d_sigma at the given element."""
        row = dict(zip(*(x.tolist() for x in self.D.row(self.index[element]))))
        total = Fraction(0)
        for j, v in combo.entries:
            total += Fraction(v) * Fraction(row.get(j, 0), self.d_scale)
        return total


def build_gamma(params: BDParams) -> Gamma:
    return Gamma(params)


class BdBasisSpace(Space):
    """sup-norm of coordinate combinations of the built basis vectors."""

    def __init__(self, gamma: Gamma):
        self.gamma = gamma
        self.name = "bd"
        self.sweep_indices = tuple(range(gamma.size))
        self.sweep_max_m = 10

    # Each engine call pairs the support's columns of D over their nonzero
    # rows only; the zero rows add nothing to a row sum or a maximum.

    def mult_batch(self, a, mult):
        """The image under the support's block of D, one column block at a
        time (:func:`~rudlab.spaces._column_blocks`), so that no image
        holds more than ``_PRODUCT_BLOCK`` entries however wide the batch."""
        d = self.gamma.basis_block(a.support)
        gain = int(np.abs(d).sum(axis=1).max())
        v, scale = _int_mult_values(a, mult, gain)
        bound = gain * _peak(v)
        peaks = np.empty(v.shape[1], dtype=v.dtype)
        for sl in _column_blocks(len(d), v.shape[1]):
            peaks[sl] = np.abs(_int_product(d, v[:, sl], bound)).max(axis=0)
        return ExactBatch.from_rational(peaks, scale * self.gamma.d_scale)

    def mult_batch_float(self, a, mult):
        v = _float_values(a, mult)
        d = self.gamma.basis_block(a.support)
        image = (d.astype(np.float64) / self.gamma.d_scale) @ v
        return np.abs(image).max(axis=0)

    def paper_witnesses(self, kind, dim):
        g = self.gamma
        out = []
        for l in range(1, len(g.levels)):
            pairs = [(g.index[g.designated[i]], 1) for i in range(l + 1)]
            out.append(Coeffs.from_pairs(pairs))
        return out


def chain_witness(
    gamma: Gamma, levels: tuple[int, ...], signs: tuple[int, ...] | None = None
) -> list[GammaElement]:
    """The retained chain elements tau_1..tau_l over the designated
    extremal coordinates of the given levels."""
    if signs is None:
        signs = (1,) * len(levels)
    if len(signs) != len(levels):
        raise DomainError("one sign per level is required")
    if len(levels) < 2:
        return []
    out = []
    for k in range(1, len(levels)):
        key = (tuple(levels[: k + 1]), tuple(signs[: k + 1]))
        elem = gamma.chains.get(key)
        if elem is None:
            raise DomainError(f"chain {key} was not retained (cap policy violated)")
        out.append(elem)
    return out


def chain_vector(gamma: Gamma, levels: tuple[int, ...], signs: tuple[int, ...] | None = None) -> Coeffs:
    """Unit-coefficient vector on the designated coordinates of the levels,
    signed so that the chain replay accumulates |a| + b * sum |a|."""
    if signs is None:
        signs = (1,) * len(levels)
    pairs = [
        (gamma.index[gamma.designated[m]], s) for m, s in zip(levels, signs)
    ]
    return Coeffs.from_pairs(pairs)


def chain_replay_value(gamma: Gamma, levels: tuple[int, ...]) -> Fraction:
    """1 + b*l, rebuilt step by step through the recursion (independent of
    the stored matrices), for the unit chain vector."""
    b = Fraction(gamma.params.b)
    val = Fraction(1)
    for _ in range(len(levels) - 1):
        val += b
    return val


def level_classes(gamma: Gamma) -> list[tuple[int, ...]]:
    """Classes A (even levels below the top), B (odd ones) and C (the top)."""
    top = len(gamma.levels) - 1
    return [
        tuple(i for m in range(0, top, 2) for i in gamma.level_indices(m)),
        tuple(i for m in range(1, top, 2) for i in gamma.level_indices(m)),
        tuple(gamma.level_indices(top)),
    ]


def rud_ratio_bound(gamma: Gamma) -> float:
    """lambda(2/b + 1), the stated bound on the divergence-side ratio."""
    return float(gamma.params.lam * (2 / gamma.params.b + 1))


def bd_rud_report(gamma: Gamma, samples: int, seed: int, enum_cap: int = DEFAULT_ENUM_CAP):
    """Even/odd/top level partition with per-class behavior, global
    divergence ratios against lambda(2/b + 1), and the growth certificate.

    Classes (:func:`level_classes`): A = even levels below the top, B = odd
    levels below the top, C = the top level.  A and B carry the two-sided
    multilevel estimate with constants 1/lambda and 1/b (checked on
    full-level sign vectors over gap-2 level sets and on chain vectors), C
    is lambda-equivalent to the coordinate supremum.  The certificate rows replay the chain
    coordinates 1 + b*l, which grow without bound while coordinate vectors
    keep norm one -- the non-equivalence direction.
    """
    from .rng import counter_u64
    from .witness import partition_rud_bound

    space = BdBasisSpace(gamma)
    top = len(gamma.levels) - 1
    classes = level_classes(gamma)
    vectors = []
    all_idx = list(range(gamma.size))
    for t in range(samples):
        m = 2 + counter_u64(seed, t, 0) % 8
        order = sorted(all_idx, key=lambda ix: counter_u64(seed, t, 100 + ix % 251) ^ ix)
        vals = [((counter_u64(seed, t, 300 + k) % 7) - 3) for k in range(m)]
        a = Coeffs.from_pairs((i, v) for i, v in zip(sorted(order[:m]), vals) if v)
        if a:
            vectors.append(a)
    partition = partition_rud_bound(space, classes, vectors, enum_cap=enum_cap)
    growth = [
        (l, float(chain_replay_value(gamma, tuple(range(l + 1)))))
        for l in range(1, top)
    ]
    return {
        "classes": classes,
        "partition": partition,
        "rud_bound": rud_ratio_bound(gamma),
        "max_ratio": max((r.full_ratio for r in partition.rows), default=0.0),
        "growth": growth,
    }
