"""Tree construction: biorthogonality, sandwiches, chains, projections."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.bd import (
    BDParams,
    BdBasisSpace,
    _CandidateStream,
    _randbelow,
    _reservoir,
    build_gamma,
    chain_replay_value,
    chain_vector,
    chain_witness,
)
from rudlab.coeffs import Coeffs, DomainError, sign_matrix_range
from rudlab.rademacher import sign_stats
from rudlab.rng import derive_seed


@pytest.fixture(scope="module")
def gamma():
    return build_gamma(BDParams())


# -- the tests read the row-compressed matrices through these --------------

def _dense(mat):
    """A ``SparseRows`` matrix as a dense int64 array."""
    out = np.zeros(mat.shape, dtype=np.int64)
    out[np.repeat(np.arange(mat.shape[0]), np.diff(mat.ptr)), mat.cols] = mat.vals
    return out


def _set(mat, i, j, value):
    """Entry (i, j) of a ``SparseRows`` matrix set to ``value`` in place:
    inserted where it was 0 and removed when ``value`` is 0, so that only
    nonzeros stay stored."""
    lo, hi = int(mat.ptr[i]), int(mat.ptr[i + 1])
    at = lo + int(np.searchsorted(mat.cols[lo:hi], j))
    if at < hi and mat.cols[at] == j:
        mat.cols, mat.vals = np.delete(mat.cols, at), np.delete(mat.vals, at)
        mat.ptr[i + 1:] -= 1
    if value:
        mat.cols, mat.vals = np.insert(mat.cols, at, j), np.insert(mat.vals, at, value)
        mat.ptr[i + 1:] += 1


def projection_matrix(g, m):
    """The projection onto the first m levels, acting on l1 coordinates.

    Returns (M, scale) with the true matrix M / scale; exact.  M is the
    transpose of ``D[:, :gm] @ Dstar[:gm, :]``, one row at a time over the
    stored entries of each ``D`` row.
    """
    if m > len(g.levels) - 1:
        raise DomainError("projection level exceeds the built structure")
    gm = g.gamma_size(m)
    duals = _dense(g.Dstar)
    mat = np.zeros((g.size, g.size), dtype=np.int64)
    for i in range(g.size):
        cols, vals = g.D.row(i)
        keep = cols < gm
        mat[i] = vals[keep] @ duals[cols[keep]]
    return mat.T, g.d_scale * g.s_scale


def test_params_validation():
    with pytest.raises(DomainError):
        BDParams(lam=F(2), b=F(1, 3))  # 1 + 2bl = 7/3 > 2
    with pytest.raises(DomainError):
        BDParams(lam=F(1))
    with pytest.raises(DomainError):
        BDParams(b=F(1, 2))
    BDParams(lam=F(2), b=F(1, 4))  # tight instance is admissible


def test_float_params_build_the_fraction_tree():
    params = BDParams(b=0.25, levels=2)
    assert params.b == F(1, 4) and isinstance(params.b, F)
    assert isinstance(params.lam, F)
    want = build_gamma(BDParams(b=F(1, 4), levels=2))
    assert _tree_digest(build_gamma(params)) == _tree_digest(want)


def test_level_zero():
    g = build_gamma(BDParams(levels=0))
    assert g.size == 1
    assert _dense(g.D).tolist() == [[1]] and _dense(g.Dstar).tolist() == [[1]]


def test_biorthogonality_exact(gamma):
    assert gamma.biorthogonality_defect() == 0


def _dense_defect(g):
    """max |Dstar @ D - s_scale * d_scale * I| from the dense int64 product."""
    expected = g.s_scale * g.d_scale * np.eye(g.size, dtype=np.int64)
    return int(np.abs(_dense(g.Dstar) @ _dense(g.D) - expected).max())


def test_biorthogonality_defect_matches_the_subtraction():
    """The sparse-row defect is the dense product's on a built tree, after
    a change of Dstar where it held 0 (a walk that kept the nonzeros it
    first saw would miss it), and after changes off and on the diagonal of
    D."""
    g = build_gamma(BDParams(levels=3, cap=12, seed=1))
    assert g.biorthogonality_defect() == _dense_defect(g) == 0
    i, j = (int(k) for k in np.argwhere(_dense(g.Dstar) == 0)[-1])
    _set(g.Dstar, i, j, 3)
    assert g.biorthogonality_defect() == _dense_defect(g) > 0
    _set(g.Dstar, i, j, 0)
    assert g.biorthogonality_defect() == 0
    for i, j, delta in ((2, 3, 5), (4, 4, -7)):
        _set(g.D, i, j, _dense(g.D)[i, j] + delta)
        assert g.biorthogonality_defect() == _dense_defect(g) > 0


def test_defect_counts_a_diagonal_pairing_no_entry_reaches():
    """The root's dual vector is its coordinate functional, a row with one
    entry; removed, it leaves a product row with no entry at all, and the
    diagonal pairing 0 where it should be 1 must still count."""
    g = build_gamma(BDParams(levels=3, cap=12, seed=1))
    assert g.Dstar.row(0)[0].tolist() == [0]
    _set(g.Dstar, 0, 0, 0)
    assert g.biorthogonality_defect() == _dense_defect(g) == g.s_scale * g.d_scale


def test_default_config_defect_matches_the_dense_product():
    from rudlab.config import RunConfig, SpaceFactory

    g = SpaceFactory.shared(RunConfig()).space("bd").gamma
    assert g.biorthogonality_defect() == _dense_defect(g) == 0


def test_biorthogonality_small_vs_fraction_oracle():
    """Independent check: exact Fraction dot products on a small build."""
    g = build_gamma(BDParams(levels=3, cap=12, seed=1))
    n = g.size
    D = [[F(int(x), g.d_scale) for x in row] for row in _dense(g.D)]
    Ds = [[F(int(x), g.s_scale) for x in row] for row in _dense(g.Dstar)]
    for i in range(n):
        for j in range(n):
            dot = sum(Ds[i][k] * D[k][j] for k in range(n))
            assert dot == (1 if i == j else 0)


def test_norm_ranges(gamma):
    lam = gamma.params.lam
    assert all(x >= 1 for x in gamma.dual_l1_norms())
    assert all(x <= lam for x in gamma.basis_sup_norms())
    assert all(x >= 1 for x in gamma.basis_sup_norms())


def test_restriction_identity(gamma):
    for m in range(len(gamma.levels)):
        idxs = gamma.level_indices(m)
        sub = _dense(gamma.D)[np.ix_(idxs, idxs)]
        assert np.array_equal(sub, gamma.d_scale * np.eye(len(idxs), dtype=np.int64))


def test_projections(gamma):
    for m in (0, 1, 2):
        P, s = projection_matrix(gamma, m)
        # idempotent, exact: row i of P @ P sums P[i, k] * P[k] over P's
        # nonzero rows k, and is zero where row i of P is
        rows = np.flatnonzero(P.any(axis=1))
        square = np.zeros_like(P)
        square[rows] = P[np.ix_(rows, rows)] @ P[rows]
        assert np.array_equal(square, s * P)
    P, s = projection_matrix(gamma, len(gamma.levels) - 1)
    assert np.array_equal(P, s * np.eye(gamma.size, dtype=np.int64))
    P0, _ = projection_matrix(gamma, 0)
    # zero rows add nothing to the rank, and the SVD of the full 427 x 427
    # matrix is most of the test's time
    assert np.linalg.matrix_rank(P0[P0.any(axis=1)].astype(np.float64)) == 1
    with pytest.raises(DomainError):
        projection_matrix(gamma, 99)


def test_level_sandwich(gamma):
    space = BdBasisSpace(gamma)
    lam = gamma.params.lam
    rng = np.random.default_rng(0)
    for m in range(len(gamma.levels)):
        idxs = gamma.level_indices(m)
        for _ in range(4):
            pick = rng.choice(idxs, size=min(5, len(idxs)), replace=False)
            vals = rng.integers(-3, 4, size=len(pick))
            a = Coeffs.from_pairs(
                [(int(i), int(v)) for i, v in zip(pick, vals) if v]
            )
            if not a:
                continue
            n = F(space.norm(a))
            mx = max(abs(F(v)) for _, v in a.entries)
            assert mx <= n <= lam * mx


def test_top_level_basis_vectors_are_coordinates(gamma):
    top = len(gamma.levels) - 1
    D = _dense(gamma.D)
    for i in gamma.level_indices(top)[:10]:
        col = D[:, i]
        assert col[i] == gamma.d_scale and np.abs(col).sum() == gamma.d_scale


def test_chain_replay(gamma):
    b = F(gamma.params.b)
    for l in (1, 2, 3):
        levels = tuple(range(l + 1))
        chain = chain_witness(gamma, levels)
        assert len(chain) == l
        v = chain_vector(gamma, levels)
        coord = gamma.coordinate(chain[-1], v)
        assert coord == chain_replay_value(gamma, levels) == 1 + b * l
    # signed decorations replay identically
    for signs in [(1, -1), (-1, 1, -1), (1, 1, -1, 1)]:
        levels = tuple(range(len(signs)))
        chain = chain_witness(gamma, levels, signs)
        v = chain_vector(gamma, levels, signs)
        assert gamma.coordinate(chain[-1], v) == chain_replay_value(gamma, levels)
    with pytest.raises(DomainError, match="chain"):
        chain_witness(gamma, (0, 1, 2, 3, 4))


def test_multilevel_two_sided(gamma):
    space = BdBasisSpace(gamma)
    lam, b = gamma.params.lam, gamma.params.b
    rng = np.random.default_rng(7)
    for mset in [(0, 2), (0, 3), (1, 3)]:
        for _ in range(3):
            pairs = []
            for m in mset:
                for i in gamma.level_indices(m):
                    pairs.append((i, int(rng.choice([-1, 1]))))
            a = Coeffs.from_pairs(pairs)
            n = F(space.norm(a))
            summax = len(mset)
            assert n / lam <= summax <= n / b
    for l in (1, 2, 3):
        v = chain_vector(gamma, tuple(range(l + 1)))
        n = F(space.norm(v))
        assert n / lam <= l + 1 <= n / b


def test_rud_ratio_bound(gamma):
    space = BdBasisSpace(gamma)
    bound = float(gamma.params.lam * (2 / gamma.params.b + 1))
    rng = np.random.default_rng(9)
    for _ in range(10):
        size = int(rng.integers(2, 9))
        pick = rng.choice(np.arange(gamma.size), size=size, replace=False)
        vals = rng.integers(-3, 4, size=size)
        a = Coeffs.from_pairs([(int(i), int(v)) for i, v in zip(pick, vals) if v])
        if not a:
            continue
        st = sign_stats(space, a)
        assert float(space.norm(a)) / float(st.mean()) <= bound


def test_cap_policy_determinism():
    g1 = build_gamma(BDParams(levels=3, cap=40, seed=5))
    g2 = build_gamma(BDParams(levels=3, cap=40, seed=5))
    assert [len(l) for l in g1.levels] == [len(l) for l in g2.levels]
    assert np.array_equal(_dense(g1.D), _dense(g2.D))
    assert np.array_equal(_dense(g1.Dstar), _dense(g2.Dstar))
    g3 = build_gamma(BDParams(levels=3, cap=40, seed=6))
    assert not np.array_equal(_dense(g1.D), _dense(g3.D))


def test_uncapped_small_build():
    g = build_gamma(BDParams(levels=2, cap=10**6))
    assert [len(l) for l in g.levels] == [1, 2, 24]
    assert g.biorthogonality_defect() == 0


def test_bd_rud_report(gamma):
    from rudlab.bd import bd_rud_report

    rep = bd_rud_report(gamma, samples=6, seed=4)
    assert rep["partition"].all_ok
    assert rep["max_ratio"] <= rep["rud_bound"] == 18.0
    ys = [y for _, y in rep["growth"]]
    assert ys == sorted(ys) and len(set(ys)) == len(ys)
    assert len(rep["classes"]) == 3


def test_chain_witness_trivial(gamma):
    from rudlab.bd import chain_witness

    assert chain_witness(gamma, (0,)) == []
    with pytest.raises(DomainError, match="one sign per level"):
        chain_witness(gamma, (0, 1), (1,))


def _tree_digest(g):
    """SHA-256 over the matrices, scales, level sizes, element descriptors,
    designated coordinates and chains of a build, all as indices."""
    import hashlib

    h = hashlib.sha256()

    def put(x):
        h.update(repr(x).encode())
        h.update(b"\n")

    idx = lambda e: -1 if e is None else g.index[e]
    D, Dstar = _dense(g.D), _dense(g.Dstar)
    put((D.shape, D.tolist(), Dstar.tolist(), int(g.d_scale), int(g.s_scale)))
    put([len(l) for l in g.levels])
    put([(e.level, e.kind, e.m, e.eps0, e.eps1, idx(e.sigma0), idx(e.sigma1))
         for e in g.elements()])
    put([g.index[e] for e in g.designated])
    put(sorted((k, g.index[e]) for k, e in g.chains.items()))
    return h.hexdigest()


# pinned digests: the sampled tree must not depend on how candidates and
# elements are represented, since every bd report is derived from it
_GOLDEN_TREES = [
    (BDParams(), "d962052350450a106b8ca89bfa13d94bca8214e5eaa809c92a6ebd852e53f5cf"),
    (BDParams(levels=5, cap=60, seed=1),
     "d8949591364b2477e9e4ba76d4cdec8352ea6e5a691e6a6ae75eb97e16f21f8d"),
    (BDParams(lam=F(3), b=F(1, 3), levels=3, cap=40, seed=4),
     "8978f129013251cc5328035ffbeddf34789e91c8a37b79b9e3de61e31e7d77f1"),
    (BDParams(levels=5),
     "c13096d0738eeb62f51285e6026e67b042f6f069a870061b69bc281a8a773bc3"),
    (BDParams(levels=6, cap=50, seed=3),
     "62e14aad5d6b21699d02eb9db07a1e9dcb2285fc5f9fb2861644b3e91d504622"),
]


@pytest.mark.parametrize("params,digest", _GOLDEN_TREES)
def test_golden_tree(params, digest):
    assert _tree_digest(build_gamma(params)) == digest


def test_level_keys_unique_and_children_below():
    g = build_gamma(BDParams(levels=5, cap=60, seed=1))
    assert len(g.index) == len(g.elements())
    for level in g.levels[1:]:
        keys = set()
        for e in level:
            i = g.index[e]
            kids = [c for c in (e.sigma0, e.sigma1) if c is not None]
            assert all(g.index[c] < i for c in kids)
            keys.add((e.kind, e.m, e.eps0, e.eps1) + tuple(g.index[c] for c in kids))
        assert len(keys) == len(level)


def test_large_scales_raise_domain_error(capsys):
    from rudlab.cli import main

    params = BDParams(lam=F(97, 11), b=F(11, 97), levels=5, cap=30)
    with pytest.raises(DomainError, match="magnitudes too large"):
        build_gamma(params)
    code = main(["norm", "--space", "bd", "--coeffs", "1",
                 "--set", "bd.lambda=97/11", "--set", "bd.b=11/97",
                 "--set", "bd.levels=5", "--set", "bd.cap=30"])
    assert code == 2 and "magnitudes too large" in capsys.readouterr().err


def test_indices_outside_the_tree_raise_domain_error(gamma, capsys):
    """An index at or past the tree's size is refused by name in every
    batch path and exits 2 on the command line, instead of an IndexError
    from the column lookup."""
    from rudlab.cli import main

    space = BdBasisSpace(gamma)
    size = gamma.size
    for a in (Coeffs.from_pairs([(size, 1)]), Coeffs.from_pairs([(0, 1), (499, F(1, 2))])):
        bad = a.support[-1]
        match = f"bd index {bad} is outside the tree of {size} elements"
        mult = sign_matrix_range(len(a), 0, 1 << len(a))
        with pytest.raises(DomainError, match=match):
            space.mult_batch(a, mult)
        with pytest.raises(DomainError, match=match):
            space.mult_batch_float(a, mult.astype(np.float64))
        with pytest.raises(DomainError, match=match):
            sign_stats(space, a)
    code = main(["norm", "--space", "bd", "--coeffs", ",".join(["0"] * 499 + ["1"])])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert f"bd index 499 is outside the tree of {size} elements" in out.err
    # the last element is inside
    assert space.norm(Coeffs.from_pairs([(size - 1, 1)])) == 1


# -- the sampled candidate stream against the generator-plus-randrange oracle --

def _old_candidates(g, lvl):
    """The candidate stream of Delta_lvl as nested loops over the levels of
    ``g`` below lvl."""
    n_prev = lvl - 1
    for m in range(n_prev):
        hi0 = g.gamma_size(min(m + 1, n_prev))
        lo1 = g.gamma_size(m)
        hi1 = g.gamma_size(n_prev)
        for i0 in range(hi0):
            for i1 in range(lo1, hi1):
                for e0 in (1, -1):
                    for e1 in (1, -1):
                        yield (m, e0, e1, i0, i1)


def _old_reservoir(rng, budget, stream):
    """Reservoir sampling with one ``randrange`` call per candidate."""
    reservoir, n_seen = [], 0
    for cand in stream:
        n_seen += 1
        if len(reservoir) < budget:
            reservoir.append(cand)
        else:
            j = rng.randrange(n_seen)
            if j < budget:
                reservoir[j] = cand
    return reservoir


def _key(g, e):
    return (e.m, e.eps0, e.eps1, g.index[e.sigma0], g.index[e.sigma1])


def _old_level_keys(g, lvl):
    """Keys of Delta_lvl as the generator-plus-randrange build keeps them,
    given the levels of ``g`` below lvl and its chain elements of lvl."""
    mandatory = [_key(g, e) for e in g.chains.values() if e.level == lvl]
    seen = set(mandatory)
    budget = max(1, g.params.cap - len(mandatory))
    rng = random.Random(derive_seed(g.params.seed, lvl))
    stream = (c for c in _old_candidates(g, lvl) if c not in seen)
    return sorted(mandatory + _old_reservoir(rng, budget, stream))


_REPLAY_TREES = [
    BDParams(),
    BDParams(levels=5),
    BDParams(levels=5, cap=60, seed=1),
    BDParams(lam=F(3), b=F(1, 3), levels=3, cap=40, seed=4),
    BDParams(levels=4, cap=2, seed=7),  # a budget of 1 at every level
    BDParams(levels=2, cap=24),  # the whole level-2 stream fits: no draws
    BDParams(levels=2, cap=23),  # one draw
]


@pytest.mark.parametrize("params", _REPLAY_TREES, ids=repr)
def test_replayed_reservoir_keeps_the_randrange_keys(params):
    """Level by level, the kept keys are those of the reservoir fed by the
    generator and one ``randrange`` call per candidate; each level's oracle
    sees the levels below as built, so agreement on all levels is agreement
    on the tree."""
    g = build_gamma(params)
    for lvl in range(2, len(g.levels)):
        assert sorted(_key(g, e) for e in g.levels[lvl]) == _old_level_keys(g, lvl)


def test_budget_one_and_no_draw_cases_are_reached():
    g = build_gamma(BDParams(levels=4, cap=2, seed=7))
    for lvl in (2, 3, 4):
        chain = sum(e.level == lvl for e in g.chains.values())
        assert chain >= 2 and len(g.levels[lvl]) == chain + 1
    assert _CandidateStream(build_gamma(BDParams(levels=1)), 2).length == 24


def test_stream_index_lists_the_old_candidate_order():
    g = build_gamma(BDParams(levels=4, cap=12, seed=2))
    for lvl in range(2, 5):
        stream = _CandidateStream(g, lvl)
        old = list(_old_candidates(g, lvl))
        assert [stream.key(p) for p in range(stream.length)] == old
        assert [stream.position(k) for k in old] == list(range(stream.length))
        # the chain keys the sample skips are stream keys
        for e in g.chains.values():
            if e.level == lvl:
                assert stream.key(stream.position(_key(g, e))) == _key(g, e)


@pytest.mark.parametrize("budget,total", [
    (1, 0), (1, 1), (1, 2), (3, 3), (3, 4), (5, 1000), (2, 2**12), (2, 2**12 + 1),
    (200, 199), (200, 201), (200, 70_000), (20, 140_000),
])
def test_reservoir_replays_randrange(budget, total):
    for seed in (0, 1, 99):
        want = _old_reservoir(random.Random(seed), budget, range(total))
        assert _reservoir(random.Random(seed), budget, total) == want


@pytest.mark.parametrize("n", [2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
                               2**33 + 5])
def test_randbelow_replays_randrange_past_32_bits(n):
    for seed in range(20):
        want, got = random.Random(seed), random.Random(seed)
        assert [_randbelow(got, n) for _ in range(4)] == [want.randrange(n) for _ in range(4)]
        assert got.getstate() == want.getstate()


def test_build_calls_no_randrange(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    params, digest = _GOLDEN_TREES[1]
    assert _tree_digest(build_gamma(params)) == digest


def _nonzero_product(a, b):
    """``a @ b`` for int64 matrices, exactly: row i sums a[i, k] * b[k] over
    the nonzero entries a[i, k] (numpy has no BLAS loop for int64, and the
    tree's matrices hold a few nonzeros per row)."""
    i, k = np.nonzero(a)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    rows, starts = np.unique(i, return_index=True)
    if len(rows):
        out[rows] = np.add.reduceat(a[i, k, None] * b[k], starts)
    return out


def test_projection_matrix_equals_the_dense_product(gamma):
    D, Dstar = _dense(gamma.D), _dense(gamma.Dstar)
    for m in range(len(gamma.levels)):
        gm = gamma.gamma_size(m)
        P, s = projection_matrix(gamma, m)
        assert np.array_equal(P, _nonzero_product(D[:, :gm], Dstar[:gm, :]).T)
        assert s == gamma.d_scale * gamma.s_scale


# -- the row-compressed storage ------------------------------------------------

def test_rows_store_only_nonzeros_in_ascending_columns(gamma):
    for mat in (gamma.D, gamma.Dstar):
        assert mat.shape == (gamma.size, gamma.size)
        assert mat.ptr[0] == 0 and mat.ptr[-1] == len(mat.cols) == len(mat.vals)
        assert mat.vals.dtype == np.int64 and mat.vals.all()
        for i in range(gamma.size):
            assert np.all(np.diff(mat.row(i)[0]) > 0)
    # a few nonzeros per row, nowhere near size x size
    assert len(gamma.D.vals) + len(gamma.Dstar.vals) < 12 * gamma.size


def test_queries_match_the_dense_matrices(gamma):
    D, Dstar = _dense(gamma.D), _dense(gamma.Dstar)
    assert gamma.dual_l1_norms() == [F(int(x), gamma.s_scale) for x in np.abs(Dstar).sum(axis=1)]
    assert gamma.basis_sup_norms() == [F(int(x), gamma.d_scale) for x in np.abs(D).max(axis=0)]
    rng = np.random.default_rng(3)
    for _ in range(20):
        cols = sorted(rng.choice(gamma.size, size=int(rng.integers(1, 9)), replace=False).tolist())
        full = D[:, cols]
        assert np.array_equal(gamma.basis_block(cols), full[np.abs(full).sum(axis=1) > 0])
        a = Coeffs.from_pairs((j, F(int(rng.integers(1, 7)), int(rng.integers(1, 5))))
                              for j in cols)
        for i in rng.choice(gamma.size, size=5).tolist():
            want = sum((F(v) * F(int(D[i, j]), gamma.d_scale) for j, v in a.entries), F(0))
            assert gamma.coordinate(gamma.elements()[i], a) == want


def test_engine_pairs_the_nonzero_rows_like_the_full_columns(gamma):
    """The engine's batches over the nonzero rows of the support's columns
    are array-equal to the same products over the full columns."""
    from rudlab.spaces import _float_values, _int_mult_values

    space = BdBasisSpace(gamma)
    D = _dense(gamma.D)
    rng = np.random.default_rng(11)
    for m in (1, 3, 7, 10):
        cols = sorted(rng.choice(gamma.size, size=m, replace=False).tolist())
        vals = [F(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 6))) for _ in cols]
        a = Coeffs.from_pairs(zip(cols, vals))
        mult = sign_matrix_range(m, 0, 1 << m)
        full = D[:, cols]
        gain = int(np.abs(full).sum(axis=1).max())
        v, scale = _int_mult_values(a, mult, gain)
        got = space.mult_batch(a, mult)
        assert got.scale == scale * gamma.d_scale
        want = np.abs(full @ v).max(axis=0)
        assert got.classes[1].dtype == want.dtype and np.array_equal(got.classes[1], want)
        want = np.abs((full.astype(np.float64) / gamma.d_scale) @ _float_values(a, mult)).max(axis=0)
        assert space.mult_batch_float(a, mult).tobytes() == want.tobytes()


def test_deep_build_memory_stays_proportional_to_the_nonzeros():
    """levels 7, cap 20: 2,199 elements, where one dense size x size int64
    matrix alone would be 38.7 MB; the traced build peak stays below 16 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        g = build_gamma(BDParams(levels=7, cap=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.size == 2199 and len(g.D.vals) == 22358
    assert peak < 16 * 2**20
