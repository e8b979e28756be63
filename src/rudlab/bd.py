"""Inductive biorthogonal tree construction inside l1/linf coordinate spaces.

Level sets Delta_n of index elements are built inductively; each element
sigma carries a dual vector d_sigma* = u_sigma* - c_sigma* in l1 of the
previously built indices and a basis vector d_sigma in linf whose lower
coordinates never change afterwards.  The auxiliary functional of a
quintuple (m, e0, e1, s0, s1) is

    c_sigma* = e0 u_{s0}* + e1 * b * (u_{s1}* - P_m* u_{s1}*)

with P_m* the basis projection onto the first m levels.  Two deliberate
readings make the desk-scale object closed (see the level-1 bootstrap and
the s0 bound in ``_candidates``); both preserve every quantitative estimate
checked by the suite.

All arithmetic is exact: coordinates are rationals held as integer matrices
with one common denominator, reduced after every level.  Caps keep each
level polynomial; a deterministic seeded sample is retained together with
the full chain lattice over the per-level designated extremal coordinates,
so every chain witness the estimates need stays representable.

Candidates are streamed as integer index keys (m, e0, e1, index(s0),
index(s1)); an element object is built only for the keys a level keeps.
Elements are canonical and compare by identity (see ``GammaElement``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .coeffs import Coeffs, DomainError
from .rng import derive_seed
from .spaces import Space

DEFAULT_LAMBDA = Fraction(2)
DEFAULT_B = Fraction(1, 4)
DEFAULT_LEVELS = 4
DEFAULT_CAP = 200


def _check_headroom(*bounds: int) -> None:
    """Refuse integer magnitudes that int64 arithmetic could not hold."""
    if max(bounds) >= 1 << 62:
        raise DomainError("integer coordinate magnitudes too large")


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
        if not (lam > 1 and 0 < b < Fraction(1, 2)):
            raise DomainError("need lambda > 1 and 0 < b < 1/2")
        if 1 + 2 * b * lam > lam:
            raise DomainError("parameters must satisfy 1 + 2*b*lambda <= lambda")
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
        self.D = np.array([[1]], dtype=np.int64)
        self.d_scale = 1
        # Dstar[i, j] / s_scale = coordinate j of the i-th dual vector
        self.Dstar = np.array([[1]], dtype=np.int64)
        self.s_scale = 1
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

    def _candidates(self, lvl: int):
        """Canonical stream of admissible new elements for Delta_lvl, as
        index keys (m, e0, e1, index(s0), index(s1)).

        s0 may live anywhere in the union up to level m+1 (the chain
        recursion requires reaching the elements born at level m+1), s1
        anywhere strictly above level m.
        """
        n_prev = lvl - 1
        for m in range(0, n_prev):
            hi0 = self.gamma_size(min(m + 1, n_prev))
            lo1 = self.gamma_size(m)
            hi1 = self.gamma_size(n_prev)
            for i0 in range(hi0):
                for i1 in range(lo1, hi1):
                    for e0 in (1, -1):
                        for e1 in (1, -1):
                            yield (m, e0, e1, i0, i1)

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
            seen = {k for k, _ in mandatory}
            # the chain lattice is always kept in full, and at least one
            # further element is sampled so a non-chain designated extremal
            # coordinate exists (the cap is a soft target)
            budget = max(1, params.cap - len(mandatory))
            rng = random.Random(derive_seed(params.seed, lvl))
            reservoir: list[tuple] = []
            n_seen = 0
            for cand in self._candidates(lvl):
                if cand in seen:
                    continue
                n_seen += 1
                if len(reservoir) < budget:
                    reservoir.append(cand)
                else:
                    j = rng.randrange(n_seen)
                    if j < budget:
                        reservoir[j] = cand
            # only the kept keys become elements
            flat = self.elements()
            kept = mandatory + [
                ((m, e0, e1, i0, i1),
                 GammaElement(lvl, "quin", m, e0, e1, flat[i0], flat[i1]))
                for m, e0, e1, i0, i1 in reservoir
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
        old = self.D.shape[0]
        total = old + len(new)
        b_num, b_den = params.b.numerator, params.b.denominator
        sc = b_den * self.d_scale * self.s_scale
        d_scale_new = sc * self.d_scale
        # Bounds, as Python ints, on every int64 entry filled below, so the
        # arrays cannot wrap silently: c_max bounds the c rows and their
        # projection terms, and the c row sums bound the new rows of D.
        m_d = int(np.abs(self.D).max())
        m_s = int(np.abs(self.Dstar).max())
        c_max = sc + b_num * (self.d_scale * self.s_scale + m_d * m_s * old)
        _check_headroom(
            d_scale_new, m_d * sc, m_s * (sc // self.s_scale), c_max * old
        )
        # c rows: coordinates of c_sigma* over the old index set, times sc
        c_rows = np.zeros((len(new), old), dtype=np.int64)
        for r, e in enumerate(new):
            if e.kind == "boot":
                c_rows[r, self.index[e.sigma0]] += e.eps0 * sc
                continue
            c_rows[r, self.index[e.sigma0]] += e.eps0 * sc
            i1 = self.index[e.sigma1]
            c_rows[r, i1] += e.eps1 * b_num * self.d_scale * self.s_scale
            gm = self.gamma_size(e.m)
            # P_m* u_{s1} = sum over the first gm duals of (d_rho)_{s1} d_rho*
            proj = self.D[i1, :gm] @ self.Dstar[:gm, :old]
            c_rows[r, :] -= e.eps1 * b_num * proj
        _check_headroom(int(np.abs(c_rows).sum(axis=1).max()) * m_d)
        # dual vectors: d* = u - c*, common scale sc
        star = np.zeros((total, total), dtype=np.int64)
        star[:old, :old] = self.Dstar * (sc // self.s_scale)
        star[old:, :old] = -c_rows
        star[old:, old:] = sc * np.eye(len(new), dtype=np.int64)
        # basis vectors gain coordinates <c_sigma*, d_tau> at the new slots
        dd = np.zeros((total, total), dtype=np.int64)
        dd[:old, :old] = self.D * (d_scale_new // self.d_scale)
        dd[old:, :old] = c_rows @ self.D
        dd[old:, old:] = d_scale_new * np.eye(len(new), dtype=np.int64)
        # reduce common factors to keep entries small
        g = int(np.gcd.reduce(np.abs(dd).ravel()) or 1)
        g = gcd(g, d_scale_new)
        self.D, self.d_scale = dd // g, d_scale_new // g
        g = int(np.gcd.reduce(np.abs(star).ravel()) or 1)
        g = gcd(g, sc)
        self.Dstar, self.s_scale = star // g, sc // g
        # Python ints, so the bound itself cannot wrap
        _check_headroom(
            int(np.abs(self.D).max()) * int(np.abs(self.Dstar).max()) * self.size
        )

    # -- exact queries ----------------------------------------------------------

    def biorthogonality_defect(self) -> int:
        """max |<d_sigma*, d_tau> - delta| over all built pairs, times scales."""
        prod = self.Dstar @ self.D
        expected = self.s_scale * self.d_scale * np.eye(self.size, dtype=np.int64)
        return int(np.abs(prod - expected).max())

    def dual_l1_norms(self) -> list[Fraction]:
        return [
            Fraction(int(np.abs(self.Dstar[i]).sum()), self.s_scale)
            for i in range(self.size)
        ]

    def basis_sup_norms(self) -> list[Fraction]:
        return [
            Fraction(int(np.abs(self.D[:, j]).max()), self.d_scale)
            for j in range(self.size)
        ]

    def coordinate(self, element: GammaElement, combo: Coeffs) -> Fraction:
        """Exact coordinate of sum a_sigma d_sigma at the given element."""
        i = self.index[element]
        total = Fraction(0)
        for j, v in combo.entries:
            total += Fraction(v) * Fraction(int(self.D[i, j]), self.d_scale)
        return total


def build_gamma(params: BDParams) -> Gamma:
    return Gamma(params)


def projection_matrix(gamma: Gamma, m: int) -> tuple[np.ndarray, int]:
    """The projection onto the first m levels, acting on l1 coordinates.

    Returns (M, scale) with the true matrix M / scale; exact.
    """
    if m > len(gamma.levels) - 1:
        raise DomainError("projection level exceeds the built structure")
    gm = gamma.gamma_size(m)
    mat = (gamma.D[:, :gm] @ gamma.Dstar[:gm, :]).T
    return mat, gamma.d_scale * gamma.s_scale


class BdBasisSpace(Space):
    """sup-norm of coordinate combinations of the built basis vectors."""

    def __init__(self, gamma: Gamma):
        self.gamma = gamma
        self.name = "bd"
        self.sweep_indices = tuple(range(gamma.size))
        self.sweep_max_m = 10

    def mult_batch(self, a, mult):
        from .spaces import _int_mult_values
        from .batches import ExactBatch

        d = self.gamma.D[:, list(a.support)]
        v, scale = _int_mult_values(a, mult, int(np.abs(d).sum(axis=1).max()))
        image = d @ v
        return ExactBatch.from_rational(
            np.abs(image).max(axis=0), scale * self.gamma.d_scale
        )

    def mult_batch_float(self, a, mult):
        from .spaces import _float_values

        v = _float_values(a, mult)
        cols = list(a.support)
        image = (self.gamma.D[:, cols].astype(np.float64) / self.gamma.d_scale) @ v
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


def chain_replay_value(gamma: Gamma, levels: tuple[int, ...], signs: tuple[int, ...] | None = None) -> Fraction:
    """1 + b*l, rebuilt step by step through the recursion (independent of
    the stored matrices), for the unit chain vector."""
    b = Fraction(gamma.params.b)
    val = Fraction(1)
    for _ in range(len(levels) - 1):
        val += b
    return val


def bd_rud_report(gamma: Gamma, samples: int, seed: int, enum_cap: int = 16):
    """Even/odd/top level partition with per-class behavior, global
    divergence ratios against lambda(2/b + 1), and the growth certificate.

    Classes: A = even levels below the top, B = odd levels below the top,
    C = the top level.  A and B carry the two-sided multilevel estimate
    with constants 1/lambda and 1/b (checked on full-level sign vectors
    over gap-2 level sets and on chain vectors), C is lambda-equivalent to
    the coordinate supremum.  The certificate rows replay the chain
    coordinates 1 + b*l, which grow without bound while coordinate vectors
    keep norm one -- the non-equivalence direction.
    """
    from .rng import counter_u64
    from .witness import partition_rud_bound

    space = BdBasisSpace(gamma)
    top = len(gamma.levels) - 1
    classes = [
        tuple(i for m in range(0, top, 2) for i in gamma.level_indices(m)),
        tuple(i for m in range(1, top, 2) for i in gamma.level_indices(m)),
        tuple(gamma.level_indices(top)),
    ]
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
    lam, b = Fraction(gamma.params.lam), Fraction(gamma.params.b)
    growth = [
        (l, float(chain_replay_value(gamma, tuple(range(l + 1)))))
        for l in range(1, top)
    ]
    return {
        "classes": classes,
        "partition": partition,
        "rud_bound": float(lam * (2 / b + 1)),
        "max_ratio": max((r.full_ratio for r in partition.rows), default=0.0),
        "growth": growth,
        "coordinate_norms": [float(x) for x in gamma.basis_sup_norms()[:4]],
    }
