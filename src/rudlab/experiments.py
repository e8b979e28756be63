"""Certification experiments.

Each experiment measures concrete inequalities on seeded samples and emits
one row per assertion with a PASS / FAIL / WARN verdict.  Exact-mode rows
compare exact scalars (zero tolerance); statistical rows say so and carry
their confidence brackets.  The acceptance test suite and the command-line
``certify`` command both run these functions, so a report file is exactly
reproducible from its embedded config and seed.

Sampled checks share one driver: :func:`_vectors` draws an engine's seeded
coefficient vectors, :func:`_tally` counts the vectors failing each boolean
a check returns, :func:`_worst` also keeps the largest ratio, and
:meth:`Report.count` turns a failure count into a row.  :func:`_sweep` runs
one check over every engine in ``SWEEP_SPECS`` and memoises each vector's
sign mean for the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coeffs import Coeffs, DomainError, sign_matrix_range
from .config import RunConfig, SpaceFactory
from .exactnum import QSum, Scalar, le_times_square, scalar_repr, sqrt_exact
from .rademacher import family_means, sign_stats, subset_stats
from .rng import counter_u64, counter_words_np, derive_seed
from .spaces import LpSpace, Space
from .witness import partition_rud_bound

SWEEP_SPECS = [
    "lp:1", "lp:2", "linf", "summing", "summing_dual",
    "james:chain", "james:pairs", "james_x:1", "james_x:2",
    "bmo", "walsh", "haar", "smax:2", "renorm:summing:1",
    "norming_set", "zmr", "zruc", "zrud", "bd",
]

CONTRACTION_SPECS = [
    "lp:1", "lp:2", "linf", "summing", "summing_dual",
    "james:chain", "bmo", "smax:2", "walsh", "zmr", "bd",
]


@dataclass
class Row:
    rid: str
    statement: str
    measured: float
    bound: float | None
    verdict: str  # PASS | FAIL | WARN
    exact: str | None = None

    def line(self) -> str:
        b = "" if self.bound is None else f" bound={self.bound:.6g}"
        return f"{self.verdict:4s} {self.rid}: {self.statement} measured={self.measured:.6g}{b}"


@dataclass
class Report:
    name: str
    rows: list[Row] = field(default_factory=list)
    curves: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def add(self, rid, statement, measured, bound, ok, exact=None, warn_only=False):
        verdict = "PASS" if ok else ("WARN" if warn_only else "FAIL")
        self.rows.append(Row(rid, statement, float(measured), bound, verdict, exact))

    def count(self, rid, statement, bad):
        """A row that passes when no sample failed."""
        self.add(rid, statement, bad, 0, bad == 0)

    @property
    def passed(self) -> bool:
        return all(r.verdict != "FAIL" for r in self.rows)

    @property
    def warned(self) -> bool:
        return any(r.verdict == "WARN" for r in self.rows)


# ---------------------------------------------------------------------------
# seeded exact samples
# ---------------------------------------------------------------------------

_PALETTE = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))


def sample_vector(space: Space, seed: int, i: int, max_m: int = 12) -> Coeffs:
    """A seeded random coefficient vector inside the engine's index universe."""
    universe = space.sweep_indices if space.sweep_indices is not None else tuple(range(48))
    mm = min(max_m, space.sweep_max_m, len(universe))
    m = 1 + counter_u64(seed, i, 0) % mm
    # the universe in the order of the keys counter_u64(seed, i, 100 + k),
    # ties by position
    keys = counter_words_np(seed, i, np.arange(100, 100 + len(universe), dtype=np.uint64))
    order = np.argsort(keys, kind="stable")
    support = sorted(universe[k] for k in order[:m].tolist())
    pairs = []
    for slot, idx in enumerate(support):
        v = _PALETTE[counter_u64(seed, i, 200 + slot) % len(_PALETTE)]
        pairs.append((idx, v))
    return Coeffs.from_pairs(pairs)


def _ge(x: Scalar, y: Scalar) -> bool:
    """Exact x >= y for exact scalars: rationals compared as they are, a
    radical through :class:`QSum`."""
    if isinstance(x, QSum) or isinstance(y, QSum):
        return QSum.of(x) >= y
    return x >= y


def _ssq(a: Coeffs) -> Fraction:
    """Exact square sum of the coefficients."""
    return sum((Fraction(v) ** 2 for _, v in a.entries), Fraction(0))


# ---------------------------------------------------------------------------
# the sampled-check driver
# ---------------------------------------------------------------------------


def _vectors(space: Space, seed: int, count: int, max_m: int = 12) -> list[Coeffs]:
    """The seeded samples 0 .. count-1, in index order (none is zero)."""
    return [sample_vector(space, seed, i, max_m) for i in range(count)]


def _means_norms(space: Space, vectors: list[Coeffs], cap: int) -> list[tuple[Scalar, Scalar]]:
    """(sign mean, norm) of each vector, from family batches
    (:func:`~rudlab.rademacher.family_means`, :meth:`Space.norms`)."""
    return list(zip(family_means(space, vectors, cap), space.norms(vectors)))


def _tally(vectors, check) -> list[int]:
    """For each boolean in the tuples ``check(a)`` returns, how many of the
    vectors fail it."""
    return [sum(not ok for ok in col) for col in zip(*map(check, vectors))]


def _worst(vectors, check) -> tuple:
    """(largest ratio, failure count, ...) over the tuples ``(ratio, ok, ...)``
    that ``check(a)`` returns."""
    worst = 0.0

    def oks(a):
        nonlocal worst
        ratio, *rest = check(a)
        worst = max(worst, ratio)
        return rest

    bad = _tally(vectors, oks)  # fills in ``worst``
    return (worst, *bad)


# ---------------------------------------------------------------------------
# criteria 1, 2, 4: sandwich, subset average, square-mean step
# ---------------------------------------------------------------------------


class _SignView:
    """One sweep vector's sign-walk statistics, for the length of a check.

    ``mean()`` reads or fills ``memo`` under the vector's index; ``min``,
    ``max`` and ``mean_sq`` come from the walk's batch, taken on first use
    and dropped with the view."""

    __slots__ = ("_space", "_a", "_cap", "_memo", "_i", "_stats")

    def __init__(self, space: Space, a: Coeffs, cap: int, memo: dict[int, Scalar], i: int):
        self._space, self._a, self._cap, self._memo, self._i = space, a, cap, memo, i
        self._stats = None

    def _walk(self):
        if self._stats is None:
            self._stats = sign_stats(self._space, self._a, self._cap)
        return self._stats

    def mean(self) -> Scalar:
        if self._i not in self._memo:
            self._memo[self._i] = self._walk().mean()
        return self._memo[self._i]

    def mean_sq(self) -> Scalar:
        return self._walk().mean_sq()

    def min(self) -> Scalar:
        return self._walk().min()

    def max(self) -> Scalar:
        return self._walk().max()


def _sweep(cfg, name, rows, check) -> Report:
    """Per engine of ``SWEEP_SPECS`` and per ``(rid, statement)`` of ``rows``,
    a row counting the engine's 200 seeded vectors that fail the matching
    boolean of ``check(space, a, st)``, where ``st`` is the vector's
    :class:`_SignView`.

    The sign means are memoised on the config's shared factory, keyed on
    (spec, vector index), so the sweep experiments of one run walk each
    vector's signs once for its mean.  The key is sound because vector i
    of an engine is a pure function of ``(cfg.seed, spec, i)`` and the
    factory is one per config."""
    rep = Report(name)
    fac = SpaceFactory.shared(cfg)
    for spec in SWEEP_SPECS:
        space = fac.space(spec)
        memo = fac.sweep_means.setdefault(spec, {})
        vectors = _vectors(space, derive_seed(cfg.seed, len(spec), sum(map(ord, spec))), 200)
        bad = _tally(range(len(vectors)), lambda i: check(
            space, vectors[i], _SignView(space, vectors[i], cfg.cap, memo, i)))
        for (rid, statement), b in zip(rows, bad):
            rep.count(f"{rid}.{spec}", f"{statement} [{len(vectors)} vectors]", b)
    return rep


def exp_sandwich(cfg: RunConfig) -> Report:
    def check(space, a, st):
        mean = st.mean()
        return (_ge(mean, st.min()) and _ge(st.max(), mean),)

    return _sweep(cfg, "sandwich",
                  [("sandwich", "min over signs <= mean <= max over signs, exact")], check)


def exp_subsets(cfg: RunConfig) -> Report:
    """Both halves of the subset-average comparison, reported separately.

    The upper half (sign average <= twice the subset average) is a theorem
    for every norm.  The lower half as displayed fails for conditional
    engines -- constant coefficients on the summing basis at m >= 6 give a
    subset average strictly above the sign average -- so those rows fail
    honestly; see the decisions ledger.
    """
    def check(space, a, st):
        mean = st.mean()
        e0 = subset_stats(space, a, cfg.cap).mean()
        return _ge(2 * QSum.of(e0), mean), _ge(mean, e0)

    return _sweep(cfg, "subsets", [
        ("subsets.upper", "sign average <= twice the subset average, exact"),
        ("subsets.lower", "subset average <= sign average, exact as displayed"),
    ], check)


def exp_khintchine_kahane(cfg: RunConfig) -> Report:
    def check(space, a, st):
        return (le_times_square(st.mean_sq(), Fraction(2), st.mean()),)

    return _sweep(cfg, "khintchine-kahane",
                  [("khintchine-kahane", "second moment <= 2 * (first moment)^2, exact")],
                  check)


# ---------------------------------------------------------------------------
# criterion 5: contraction principle, finite form
# ---------------------------------------------------------------------------


def exp_contraction(cfg: RunConfig) -> Report:
    rep = Report("contraction")
    fac = SpaceFactory.shared(cfg)
    grid = (0, 0, Fraction(1, 2), Fraction(-1, 2), 1, -1)
    for spec in CONTRACTION_SPECS:
        space = fac.space(spec)
        seed = derive_seed(cfg.seed, 5, sum(map(ord, spec)))
        bad = 0
        trials = 0
        for i, a in enumerate(_vectors(space, seed, 12, max_m=10)):
            ea = sign_stats(space, a, cfg.cap).mean()
            for j in range(8):
                mults = [
                    grid[counter_u64(seed, 1000 + i, 50 * j + k) % len(grid)]
                    for k in range(len(a))
                ]
                ba = Coeffs.from_pairs(
                    (idx, m * v) for (idx, v), m in zip(a.entries, mults)
                )
                if not ba:
                    continue
                trials += 1
                if not _ge(ea, sign_stats(space, ba, cfg.cap).mean()):
                    bad += 1
        rep.count(f"contraction.{spec}",
                  f"mean norm never grows under multipliers in {{0,+-1/2,+-1}} [{trials} pairs]",
                  bad)
    return rep


# ---------------------------------------------------------------------------
# criterion 3: square-mean identity in the Euclidean engine
# ---------------------------------------------------------------------------


def exp_parallelogram(cfg: RunConfig) -> Report:
    rep = Report("parallelogram")
    l2 = LpSpace(2)
    a0 = Coeffs.from_values([3, 4])
    got = sign_stats(l2, a0, cfg.cap).mean_sq()
    rep.add("parallelogram.3-4", "mean squared norm of (3,4) equals 25",
            got, 25.0, QSum.of(got) == 25, exact=scalar_repr(got))
    bad, = _tally(_vectors(l2, derive_seed(cfg.seed, 3), 60),
                  lambda a: (QSum.of(sign_stats(l2, a, cfg.cap).mean_sq()) == _ssq(a),))
    rep.count("parallelogram.random",
              "mean squared norm equals the coefficient square sum [60 vectors]", bad)
    return rep


# ---------------------------------------------------------------------------
# criterion 6 + 7: summing norm and its dual system
# ---------------------------------------------------------------------------


def exp_summing(cfg: RunConfig) -> Report:
    rep = Report("summing")
    fac = SpaceFactory.shared(cfg)
    s = fac.space("summing")
    sd = fac.space("summing_dual")
    seed = derive_seed(cfg.seed, 6)

    def sandwich(a):
        e = QSum.of(sign_stats(s, a, cfg.cap).mean())
        e2 = e * e
        return _ge(e2 * 2, _ssq(a)), _ge(4 * _ssq(a), e2)

    bad_lo, bad_hi = _tally(_vectors(s, seed, 200), sandwich)
    rep.count("summing.lower", "l2 norm over root-two <= sign average [200 vectors]", bad_lo)
    rep.count("summing.upper", "sign average <= twice the l2 norm [200 vectors]", bad_hi)

    alt = Coeffs.from_values([(-1) ** i for i in range(16)])
    ratio = sign_stats(s, alt, cap=16).mean() / s.norm(alt)
    rep.add("summing.ruc_witness", "alternating length-16 witness: mean over norm >= 2",
            float(ratio), 2.0, ratio >= 2, exact=scalar_repr(ratio))

    ones = Coeffs.from_values([1] * 16)
    e = sign_stats(s, ones, cap=16).mean()
    ratio = Fraction(16) / e
    rep.add("summing.rud_witness", "constant-ones length-16 witness: norm over mean >= 2",
            float(ratio), 2.0, ratio >= 2, exact=scalar_repr(ratio))

    def dual(a):
        e = sign_stats(sd, a, cfg.cap).mean()
        return e >= sum(abs(Fraction(v)) for _, v in a.entries), 2 * e >= Fraction(sd.norm(a))

    bad_l1, bad_2e = _tally(_vectors(sd, seed + 7, 150), dual)
    rep.count("summing.dual_lower", "coefficient l1 norm <= dual sign average [150 vectors]",
              bad_l1)
    rep.count("summing.dual_upper", "dual norm <= twice its sign average [150 vectors]", bad_2e)
    return rep


# ---------------------------------------------------------------------------
# criterion 8: chain-difference norms
# ---------------------------------------------------------------------------


def _gapped_vector(seed: int, i: int, max_m: int = 8) -> Coeffs:
    m = 1 + counter_u64(seed, i, 0) % max_m
    pairs = []
    idx = counter_u64(seed, i, 1) % 3
    for slot in range(m):
        v = _PALETTE[counter_u64(seed, i, 10 + slot) % len(_PALETTE)]
        pairs.append((idx, v))
        idx += 2 + counter_u64(seed, i, 40 + slot) % 3
    return Coeffs.from_pairs(pairs)


def exp_james(cfg: RunConfig) -> Report:
    rep = Report("james")
    fac = SpaceFactory.shared(cfg)
    chain = fac.space("james:chain")
    seed = derive_seed(cfg.seed, 8)

    def norm_sq(a):
        n = QSum.of(chain.norm(a))
        return n * n

    bad, = _tally(_vectors(chain, seed, 500),
                  lambda a: (le_times_square(norm_sq(a), Fraction(4), sqrt_exact(_ssq(a))),))
    rep.count("james.upper", "chain norm <= twice the l2 norm [500 vectors]", bad)
    bad, = _tally([_gapped_vector(seed + 1, i) for i in range(120)],
                  lambda a: (_ge(norm_sq(a), _ssq(a)),))
    rep.count("james.skipped", "gap-2 supports: chain norm >= l2 norm [120 vectors]", bad)

    def rud(space, a):
        e = sign_stats(space, a, cfg.cap).mean()
        n = space.norm(a)
        return float(n) / float(e), _ge(4 * QSum.of(e), n)

    for spec, bound in (("james:chain", 4.0), ("james:pairs", 4.0),
                        ("james_x:1", 4.0), ("james_x:2", 4.0)):
        space = fac.space(spec)
        worst, bad = _worst(_vectors(space, seed + 2, 100), lambda a: rud(space, a))
        rep.add(f"james.rud.{spec}",
                f"divergence-side ratio <= {bound} [100 vectors]",
                worst, bound, bad == 0)
    return rep


# ---------------------------------------------------------------------------
# criterion 9: product-sign system in L1
# ---------------------------------------------------------------------------


def _walsh_vector(seed: int, i: int) -> Coeffs:
    """2 to 10 seeded palette entries on Walsh sets below 1024."""
    m = 2 + counter_u64(seed, i, 0) % 9
    order = sorted(range(1024), key=lambda k: counter_u64(seed, i, 1000 + k % 97) ^ k)
    return Coeffs.from_pairs(
        (idx, _PALETTE[counter_u64(seed, i, 300 + slot) % len(_PALETTE)])
        for slot, idx in enumerate(sorted(order[:m]))
    )


def exp_walsh(cfg: RunConfig) -> Report:
    rep = Report("walsh")
    fac = SpaceFactory.shared(cfg)
    w = fac.space("walsh")
    seed = derive_seed(cfg.seed, 9)

    def check(a):
        st = sign_stats(w, a, cfg.cap)
        e = st.mean()
        n = Fraction(w.norm(a))
        ssq = _ssq(a)
        return (float(n) / float(e), _ge(sqrt_exact(ssq), st.max()),
                le_times_square(ssq, Fraction(2), e), le_times_square(n * n, Fraction(2), e))

    worst_ratio, bad_max, bad_kh, bad_ratio = _worst(
        [_walsh_vector(seed, i) for i in range(200)], check)
    rep.count("walsh.max", "max over signs <= l2 norm of the coefficients [200 samples]",
              bad_max)
    rep.count("walsh.lower", "l2 norm <= root-two times the sign average", bad_kh)
    rep.add("walsh.rud", "divergence-side ratio <= sqrt(2)",
            worst_ratio, float(sqrt_exact(2)), bad_ratio == 0)
    return rep


# ---------------------------------------------------------------------------
# criterion 10
# ---------------------------------------------------------------------------


def exp_bmo(cfg: RunConfig) -> Report:
    rep = Report("bmo")
    fac = SpaceFactory.shared(cfg)
    b = fac.space("bmo")

    def check(a):
        e = QSum.of(sign_stats(b, a, cfg.cap).mean())
        l2 = sqrt_exact(_ssq(a))
        return le_times_square(e * e, Fraction(9), l2), _ge(b.norm(a), l2)

    bad_e, bad_n = _tally(_vectors(b, derive_seed(cfg.seed, 10), 200), check)
    rep.count("bmo.mean", "sign average <= three times the l2 norm [200 vectors]", bad_e)
    rep.count("bmo.norm", "l2 norm <= the full norm", bad_n)
    return rep


# ---------------------------------------------------------------------------
# criterion 11
# ---------------------------------------------------------------------------


def exp_renorm(cfg: RunConfig) -> Report:
    rep = Report("renorm")
    fac = SpaceFactory.shared(cfg)
    seed = derive_seed(cfg.seed, 11)
    for delta in (Fraction(1), Fraction(1, 2)):
        space = fac.space(f"renorm:summing:{delta}")

        def check(a):
            e = sign_stats(space, a, cfg.cap).mean()
            n = space.norm(a)
            return float(e) / float(n), _ge((1 + delta) * QSum.of(n), e)

        worst, bad = _worst(_vectors(space, seed, 100, max_m=10), check)
        rep.add(f"renorm.delta={delta}",
                f"convergence-side ratio <= 1 + {delta} after renorming [100 vectors]",
                worst, float(1 + delta), bad == 0)
    return rep


# ---------------------------------------------------------------------------
# criterion 12
# ---------------------------------------------------------------------------


def exp_partition(cfg: RunConfig) -> Report:
    from .bd import level_classes, rud_ratio_bound

    rep = Report("partition")
    fac = SpaceFactory.shared(cfg)
    seed = derive_seed(cfg.seed, 12)

    l1 = fac.space("lp:1")
    classes = [tuple(range(0, 48, 2)), tuple(range(1, 48, 2))]
    pr = partition_rud_bound(l1, classes, _vectors(l1, seed, 20, max_m=8), enum_cap=cfg.cap)
    rep.add("partition.l1", "class-ratio sum bounds the full ratio on every sample",
            max(r.full_ratio for r in pr.rows), pr.sum_bound, pr.all_ok)

    s = fac.space("summing")
    ones = Coeffs.from_values([1, 1, 1, 1])
    more = [a for a in _vectors(s, seed + 1, 10, max_m=4) if max(a.support) <= 3]
    pr = partition_rud_bound(s, [(0,), (1,), (2,), (3,)], [ones] + more, enum_cap=cfg.cap)
    rep.add("partition.summing", "singleton classes on four points bound the full ratio",
            max(r.full_ratio for r in pr.rows), pr.sum_bound, pr.all_ok)

    bd = fac.space("bd")
    pr = partition_rud_bound(bd, level_classes(fac.gamma), _vectors(bd, seed + 2, 12, max_m=9),
                             enum_cap=cfg.cap)
    stated_bound = rud_ratio_bound(fac.gamma)
    ok = pr.all_ok and all(r.full_ratio <= stated_bound for r in pr.rows)
    rep.add("partition.bd",
            f"even/odd/top classes: class sum and {stated_bound:g} both bound the ratio",
            max(r.full_ratio for r in pr.rows), stated_bound, ok)
    return rep


# ---------------------------------------------------------------------------
# criterion 13
# ---------------------------------------------------------------------------


def exp_duality(cfg: RunConfig) -> Report:
    from .dual import duality_report, reverse_duality_summing

    rep = Report("duality")
    fac = SpaceFactory.shared(cfg)
    seed = derive_seed(cfg.seed, 13)
    for spec, dim, n in (("lp:1", 8, 12), ("lp:2", 8, 12), ("linf", 8, 12),
                         ("summing", 8, 12), ("smax:2", 6, 8)):
        drep = duality_report(fac.space(spec), dim, n, seed)
        kind = "exact" if drep.exact else "a float row: the dual engine has no exact form"
        rep.add(f"duality.{spec}",
                f"dual divergence ratios <= twice the measured convergence constant, "
                f"{kind} (dim {dim}, {n} samples)",
                drep.max_dual_ratio, 2 * drep.max_primal_ruc, drep.bound_ok)
    ok, rows = reverse_duality_summing(6, 6, derive_seed(cfg.seed, 132))
    rep.add("duality.reverse.summing",
            "primal divergence ratio <= twice the norming functional's dual "
            "convergence ratio, exact closed-form subspace dual (dim 6, 6 samples)",
            max((r[1] for r in rows), default=0.0), None, ok)
    return rep


# ---------------------------------------------------------------------------
# criterion 14
# ---------------------------------------------------------------------------


def exp_bd(cfg: RunConfig) -> Report:
    from .bd import (bd_rud_report, chain_replay_value, chain_vector, chain_witness,
                     rud_ratio_bound)

    if cfg.bd_levels < 2:
        raise DomainError("the bd experiment's chain growth needs config key 'bd.levels' "
                          f"of at least 2, not {cfg.bd_levels}")
    rep = Report("bd")
    fac = SpaceFactory.shared(cfg)
    g = fac.gamma
    space = fac.space("bd")
    lam, b = Fraction(g.params.lam), Fraction(g.params.b)
    seed = derive_seed(cfg.seed, 14)

    defect = g.biorthogonality_defect()
    rep.add("bd.biorthogonality", "dual-basis pairings equal the identity, exact",
            defect, 0, defect == 0)
    duals = g.dual_l1_norms()
    rep.add("bd.dual_lower", "every dual vector has l1 norm >= 1",
            float(min(duals)), 1.0, all(n >= 1 for n in duals))
    sups = g.basis_sup_norms()
    rep.add("bd.basis_sup", "every basis vector has sup norm <= lambda",
            float(max(sups)), float(lam), all(n <= lam for n in sups))

    level_vectors = []
    rng_seed = seed + 1
    for m in range(len(g.levels)):
        idxs = g.level_indices(m)
        for t in range(6):
            pick = sorted(
                idxs,
                key=lambda ix: counter_u64(rng_seed, 31 * m + t, ix % 251),
            )[: min(6, len(idxs))]
            vals = [
                ((counter_u64(rng_seed, 97 * m + t, 300 + k) % 7) - 3)
                for k in range(len(pick))
            ]
            a = Coeffs.from_pairs(
                (i, v) for i, v in zip(pick, vals) if v
            )
            if a:
                level_vectors.append(a)
    bad = 0
    for a, n in zip(level_vectors, space.norms(level_vectors)):
        mx = max(abs(Fraction(v)) for _, v in a.entries)
        if not (mx <= Fraction(n) <= lam * mx):
            bad += 1
    rep.count("bd.level_sandwich",
              "single-level combinations sit between max|a| and lambda max|a|, exact", bad)

    top = len(g.levels) - 1
    gap_sets = [ms for ms in [(0, 2), (0, 3), (1, 3)] if ms[-1] < top + 1 and ms[-1] <= top]
    combos = []  # (vector, sum of the level maxima)
    for ms in gap_sets:
        for t in range(5):
            pairs = []
            for m in ms:
                for i in g.level_indices(m):
                    pairs.append((i, 1 if counter_u64(seed, 7 * t + m, i % 509) & 1 else -1))
            combos.append((Coeffs.from_pairs(pairs), len(ms)))
    combos += [(chain_vector(g, tuple(range(l + 1))), l + 1) for l in range(1, top)]
    bad = 0
    for (_, summax), n in zip(combos, space.norms([a for a, _ in combos])):
        n = Fraction(n)
        if not (n / lam <= summax <= n / b):
            bad += 1
    rep.count("bd.multilevel",
              "multilevel combinations: 1/lambda and 1/b two-sided bounds, exact", bad)

    growth = []
    ok_replay = True
    for l in range(1, top):
        levels = tuple(range(l + 1))
        chain = chain_witness(g, levels)
        v = chain_vector(g, levels)
        coord = g.coordinate(chain[-1], v)
        expected = chain_replay_value(g, levels)
        growth.append((l, float(coord)))
        if coord != expected or coord != 1 + b * l:
            ok_replay = False
    increasing = all(y2 > y1 for (_, y1), (_, y2) in zip(growth, growth[1:]))
    rep.add("bd.chain_growth",
            "chain coordinate replays 1 + b*l exactly and grows strictly",
            growth[-1][1], None, ok_replay and increasing,
            exact=",".join(f"{l}:{y:g}" for l, y in growth))
    rep.curves["bd_chain_growth"] = growth

    bound = rud_ratio_bound(g)

    def rud(en):
        r = float(en[1]) / float(en[0])
        return r, r <= bound

    worst, bad = _worst(_means_norms(space, _vectors(space, seed + 3, 30, max_m=10), cfg.cap),
                        rud)
    rep.add("bd.rud", f"divergence-side ratio <= lambda(2/b + 1) = {bound:g} [30 vectors]",
            worst, bound, bad == 0)

    summary = bd_rud_report(g, samples=10, seed=seed + 4, enum_cap=cfg.cap)
    ok = summary["partition"].all_ok and summary["max_ratio"] <= summary["rud_bound"]
    rep.add("bd.report",
            "even/odd/top class report: class sums and the global bound hold "
            "and the growth certificate increases",
            summary["max_ratio"], summary["rud_bound"],
            ok and [y for _, y in summary["growth"]] ==
            sorted({y for _, y in summary["growth"]}))
    return rep


# ---------------------------------------------------------------------------
# criteria 15-17
# ---------------------------------------------------------------------------


def exp_zmr(cfg: RunConfig) -> Report:
    from .mr import mr_witness

    rep = Report("zmr")
    fac = SpaceFactory.shared(cfg)
    ctx = fac.mr_context
    seed = derive_seed(cfg.seed, 15)
    ratios = []
    curve = []
    depth = min(3, ctx.max_n, len(ctx.levels.prefix))
    for n in range(1, depth + 1):
        w = mr_witness(n, ctx, mc_samples=min(cfg.samples * 10, 1_000_000), seed=seed)
        norm_ok = _ge(w.norm, n)
        rep.add(f"zmr.norm.n={n}", f"witness norm >= {n}, exact",
                float(QSum.of(w.norm)), float(n), norm_ok,
                exact=scalar_repr(w.norm))
        upper = w.expectation.upper
        ratio = float(QSum.of(w.norm)) / float(upper)
        ratios.append(ratio)
        curve.append((n, ratio))
        # a Monte-Carlo bracket end is a float, compared as the rational it is
        bound_ok = _ge(w.analytic_bound, Fraction(upper) if isinstance(upper, float) else upper)
        rep.add(f"zmr.bound.n={n}",
                f"sign average (upper bracket, method {w.expectation.method}) "
                "stays under the carried analytic bound",
                float(upper), float(QSum.of(w.analytic_bound)), bound_ok)
    increasing = all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    rep.add("zmr.gap_monotone", "gap ratios strictly increase with the depth",
            ratios[-1], None, increasing,
            exact=",".join(f"{r:.4f}" for r in ratios))
    if depth >= 3:
        rep.add("zmr.gap_growth", "depth-3 ratio exceeds 1.5x the depth-1 ratio",
                ratios[2], 1.5 * ratios[0], ratios[2] > 1.5 * ratios[0])
    rep.curves["zmr_gap_ratio"] = curve
    return rep


def exp_zruc(cfg: RunConfig) -> Report:
    rep = Report("zruc")
    fac = SpaceFactory.shared(cfg)
    space = fac.space("zruc")

    def check(en):
        e, n = en
        return float(e) / float(n), _ge(2 * QSum.of(n), e)

    worst, bad = _worst(
        _means_norms(space, _vectors(space, derive_seed(cfg.seed, 16), 30, max_m=6), cfg.cap),
        check)
    rep.add("zruc.two_ruc",
            "sign average of the convergence-side norm <= twice the norm, "
            "exact on the first two levels [30 vectors]",
            worst, 2.0, bad == 0)
    return rep


def exp_zrud(cfg: RunConfig) -> Report:
    from .mr import zrud_block_sandwich

    rep = Report("zrud")
    fac = SpaceFactory.shared(cfg)
    ctx = fac.mr_context
    space = fac.space("zrud")
    seed = derive_seed(cfg.seed, 17)

    nblocks = min(3, len(ctx.levels.prefix))

    def blocks(i):
        coeffs = [
            Fraction((counter_u64(seed, i, k) % 9) - 4, 1 + counter_u64(seed, i, 20 + k) % 2)
            for k in range(nblocks)
        ]
        return coeffs if any(coeffs) else [Fraction(1)] + coeffs[1:]

    def sandwich(row):
        sup, norm, const = row
        return (_ge(norm, sup) and _ge(QSum.of(const) * QSum.of(sup), norm),)

    bad, = _tally(zrud_block_sandwich(ctx, [blocks(i) for i in range(100)]), sandwich)
    dh = float(QSum.of(3 + 4 * ctx.levels.delta_hat))
    rep.count("zrud.block_sandwich",
              f"block combinations sit between the partial-sum sup and "
              f"(3 + 4*delta_hat) = {dh:.4f} times it, exact [100 vectors]", bad)

    first_two = tuple(range(sum(ctx.levels.prefix[:2])))
    rho_used = ctx.levels.rho_used(ctx.levels.prefix[:2])
    inv_rho = Fraction(1) / rho_used

    def ratio(en):
        e, n = en
        return float(n) / float(e), _ge(inv_rho * QSum.of(e), n)

    restricted = [a.restrict(first_two) for a in _vectors(space, seed + 1, 30, max_m=6)]
    worst, bad = _worst(_means_norms(space, [a for a in restricted if a], cfg.cap), ratio)
    rep.add("zrud.ratio",
            f"divergence-side ratio <= 1/rho_hat_used = {float(inv_rho):.4f} "
            "on the first two levels [30 vectors]",
            worst, float(inv_rho), bad == 0)
    return rep


# ---------------------------------------------------------------------------
# criterion 18 (WARN-only)
# ---------------------------------------------------------------------------


def exp_haar_blocks(cfg: RunConfig) -> Report:
    rep = Report("haar-blocks")
    fac = SpaceFactory.shared(cfg)
    haar = fac.space("haar")
    seed = derive_seed(cfg.seed, 18)
    worst = 0.0
    count = 0
    over = 0
    for i in range(200):
        nblocks = 2 + counter_u64(seed, i, 0) % 5
        start = 1
        pairs = []
        block_rows: list[list[int]] = []
        for k in range(nblocks):
            width = 1 + counter_u64(seed, i, 10 + k) % 4
            stop = min(start + width, 255)
            rows = []
            for j in range(start, stop):
                v = _PALETTE[counter_u64(seed, i, 100 + j) % len(_PALETTE)]
                pairs.append((j, v))
                rows.append(len(pairs) - 1)
            block_rows.append(rows)
            start = stop + counter_u64(seed, i, 60 + k) % 3
            if start >= 255:
                break
        block_rows = [r for r in block_rows if r]
        if len(block_rows) < 2:
            continue
        a = Coeffs.from_pairs(pairs)
        scale = [
            _PALETTE[counter_u64(seed, i, 400 + k) % len(_PALETTE)]
            for k in range(len(block_rows))
        ]
        combo = Coeffs.from_pairs(
            (idx, v * scale[k])
            for k, rows in enumerate(block_rows)
            for idx, v in (a.entries[r] for r in rows)
        )
        if not combo:
            continue
        # block-level signs: one epsilon per block, copied to its rows
        nb = len(block_rows)
        bsigns = sign_matrix_range(nb, 0, 1 << nb)
        order = {idx: slot for slot, (idx, _) in enumerate(combo.entries)}
        mult = np.zeros((len(combo), 1 << nb), dtype=np.int8)
        for k, rows in enumerate(block_rows):
            for r in rows:
                idx = a.entries[r][0]
                if idx in order:
                    mult[order[idx]] = bsigns[k]
        batch = haar.mult_batch(combo, mult)
        e = batch.mean()
        n = haar.norm(combo)
        if float(e) <= 0:
            continue
        ratio = float(n) / float(e)
        worst = max(worst, ratio)
        count += 1
        if ratio > 10:
            over += 1
    rep.add("haar-blocks.rud",
            f"block divergence ratios reported over {count} seeded blocks; "
            "exploratory threshold 10",
            worst, 10.0, over == 0, warn_only=True)
    return rep


# ---------------------------------------------------------------------------
# criterion 19
# ---------------------------------------------------------------------------


def exp_smax(cfg: RunConfig) -> Report:
    rep = Report("smax")
    fac = SpaceFactory.shared(cfg)
    space = fac.space("smax:2")

    def check(a):
        e = QSum.of(sign_stats(space, a, cfg.cap).mean())
        l2 = sqrt_exact(_ssq(a))
        n = space.norm(a)
        return (float(e) / float(n), _ge(3 * QSum.of(n), e), _ge(e + l2, l2),
                _ge(e, Fraction(1, 2) * l2), _ge(3 * l2, e))

    worst_ruc, bad_ruc, bad_triv, bad_lo, bad_hi = _worst(
        _vectors(space, derive_seed(cfg.seed, 19), 200), check)
    rep.count("smax.trivial", "lp part <= mean + lp part [200 vectors]", bad_triv)
    rep.add("smax.bracket", "mean within [l2/2, 3*l2], exact",
            bad_lo + bad_hi, 0, bad_lo == 0 and bad_hi == 0)
    rep.add("smax.ruc", "convergence-side ratio <= 3",
            worst_ruc, 3.0, bad_ruc == 0)
    return rep


EXPERIMENTS = {
    "sandwich": exp_sandwich,
    "subsets": exp_subsets,
    "parallelogram": exp_parallelogram,
    "khintchine-kahane": exp_khintchine_kahane,
    "contraction": exp_contraction,
    "summing": exp_summing,
    "james": exp_james,
    "walsh": exp_walsh,
    "bmo": exp_bmo,
    "renorm": exp_renorm,
    "partition": exp_partition,
    "duality": exp_duality,
    "bd": exp_bd,
    "zmr": exp_zmr,
    "zruc": exp_zruc,
    "zrud": exp_zrud,
    "haar-blocks": exp_haar_blocks,
    "smax": exp_smax,
}


def run_experiment(name: str, cfg: RunConfig) -> Report:
    fn = EXPERIMENTS.get(name)
    if fn is None:
        raise DomainError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return fn(cfg)
