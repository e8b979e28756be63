"""Ratio computations, constant-lower-bound searches, and certificates.

The defining ratios compare a vector's norm with its sign average:
convergence side E/norm, divergence side norm/E, plus the plain sign-flip
distortion.  Searches only ever report *lower-bound* certificates -- the
true constants are suprema over all dimensions -- and every certificate
stores its witness so the value can be replayed.

Search strategies: seeded Gaussian draws, cyclic coordinate ascent over a
multiplicative move grid, and engine-supplied extremal candidates.  Sample
i of a search stream is a pure function of (seed, i), so a search replays
exactly from its seed and budget; ties between equal values go to the
lexicographically smaller witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coeffs import DEFAULT_ENUM_CAP, Coeffs, DomainError, apply_signs, SignPattern
from .exactnum import Scalar
from .rademacher import expect_exact, family_means, sign_stats
from .rng import DEFAULT_SEED, counter_u64
from .spaces import LpSpace, Space


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


@dataclass(frozen=True)
class ConstantCertificate:
    """A certified lower bound for one of the basis constants."""

    kind: str  # RUC | RUD | UNC | BESSELIAN | HILBERTIAN
    value: float
    witness_coeffs: Coeffs
    witness_signs: SignPattern | None
    space: str
    method: str  # paper_witness | random_search | coordinate_ascent
    seed: int

    def replay(self, space: Space, enum_cap: int = DEFAULT_ENUM_CAP) -> float:
        """Recompute the certified value from the stored witness."""
        return _objective(space, self.kind, self.witness_coeffs, self.witness_signs, enum_cap)


def _objective(
    space: Space, kind: str, a: Coeffs, signs: SignPattern | None, enum_cap: int
) -> float:
    if kind == "RUC":
        return ratio_ruc(space, a, enum_cap)
    if kind == "RUD":
        return ratio_rud(space, a, enum_cap)
    if kind == "UNC":
        if signs is not None:
            return ratio_unc(space, a, signs)
        st = sign_stats(space, a, cap=enum_cap)
        return float(st.max()) / float(space.norm(a))
    l2 = LpSpace(2)
    if kind == "BESSELIAN":
        return float(l2.norm(a)) / float(_norm_positive(space, a))
    if kind == "HILBERTIAN":
        return float(_norm_positive(space, a)) / float(l2.norm(a))
    raise DomainError(f"unknown constant kind {kind!r}")


def _unc_best_signs(space: Space, a: Coeffs, enum_cap: int) -> SignPattern:
    st = sign_stats(space, a, cap=enum_cap)
    return SignPattern.from_mask(a.support, st.argmax())


def _gaussian_vector(seed: int, index: int, dim: int) -> Coeffs:
    rng = random.Random(counter_u64(seed, index))
    vals = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    return Coeffs.from_pairs((i, v) for i, v in enumerate(vals) if v)


def _ascent(space, kind, a, enum_cap, sweeps=3):
    """Cyclic single-coordinate line search over {x1/2, x2, sign flip}."""
    best = _objective(space, kind, a, None, enum_cap)
    cur = a
    for _ in range(sweeps):
        improved = False
        for i in cur.support:
            for factor in (0.5, 2.0, -1.0):
                cand = Coeffs.from_pairs(
                    (j, v * factor if j == i else v) for j, v in cur.entries
                )
                if not cand:
                    continue
                try:
                    val = _objective(space, kind, cand, None, enum_cap)
                except DomainError:
                    continue
                if val > best * (1 + 1e-12):
                    best, cur, improved = val, cand, True
        if not improved:
            break
    return best, cur


def search_constant(
    space: Space,
    kind: str,
    dim: int,
    budget: int = 64,
    seed: int = DEFAULT_SEED,
    strategy: str = "random_search",
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> ConstantCertificate:
    """Best ratio found over the budget; a reproducible lower bound."""
    if dim > enum_cap:
        raise DomainError("dimension exceeds the exact-ratio enumeration cap")
    if strategy not in ("random_search", "coordinate_ascent", "paper_witness"):
        raise DomainError(f"unknown strategy {strategy!r}")
    candidates: list[tuple[Coeffs, str]] = []
    if strategy == "paper_witness":
        witnesses = space.paper_witnesses(kind, dim)
        if not witnesses:
            raise DomainError(f"{space.name} has no built-in witnesses")
        candidates = [(w, "paper_witness") for w in witnesses]
    else:
        candidates = [
            (_gaussian_vector(seed, i, dim), strategy) for i in range(budget)
        ]
        candidates = [(c, m) for c, m in candidates if c]
    best_val = -1.0
    best_wit: Coeffs | None = None
    best_method = strategy
    for cand, method in candidates:
        try:
            if method == "coordinate_ascent":
                val, cand = _ascent(space, kind, cand, enum_cap)
            else:
                val = _objective(space, kind, cand, None, enum_cap)
        except DomainError:
            continue
        key_new = tuple((i, float(v)) for i, v in cand.entries)
        key_old = (
            tuple((i, float(v)) for i, v in best_wit.entries) if best_wit else None
        )
        if val > best_val + 1e-15 or (
            abs(val - best_val) <= 1e-15 and key_old is not None and key_new < key_old
        ):
            best_val, best_wit, best_method = val, cand, method
    if best_wit is None:
        raise DomainError("search produced no admissible witness")
    signs = None
    if kind == "UNC":
        signs = _unc_best_signs(space, best_wit, enum_cap)
        best_val = ratio_unc(space, best_wit, signs)
    return ConstantCertificate(
        kind, best_val, best_wit, signs, space.name, best_method, seed
    )


def besselian_hilbertian_ratios(
    space: Space, dim: int, budget: int = 64, seed: int = DEFAULT_SEED
) -> tuple[ConstantCertificate, ConstantCertificate]:
    """Lower bounds for sup ||a||_2 / norm(a) and sup norm(a) / ||a||_2."""
    certs = []
    for kind in ("BESSELIAN", "HILBERTIAN"):
        best = None
        for strategy in ("paper_witness", "random_search"):
            try:
                c = search_constant(space, kind, dim, budget, seed, strategy)
            except DomainError:
                continue
            if best is None or c.value > best.value:
                best = c
        if best is None:
            raise DomainError("no witness found")
        certs.append(best)
    return certs[0], certs[1]


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
