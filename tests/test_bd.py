"""Tree construction: biorthogonality, sandwiches, chains, projections."""

from fractions import Fraction as F

import numpy as np
import pytest

from rudlab.bd import (
    BDParams,
    BdBasisSpace,
    build_gamma,
    chain_replay_value,
    chain_vector,
    chain_witness,
    projection_matrix,
)
from rudlab.coeffs import Coeffs, DomainError
from rudlab.rademacher import sign_stats


@pytest.fixture(scope="module")
def gamma():
    return build_gamma(BDParams())


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
    assert g.D.tolist() == [[1]] and g.Dstar.tolist() == [[1]]


def test_biorthogonality_exact(gamma):
    assert gamma.biorthogonality_defect() == 0


def _dense_defect(g):
    """max |Dstar @ D - s_scale * d_scale * I| from the dense int64 product."""
    expected = g.s_scale * g.d_scale * np.eye(g.size, dtype=np.int64)
    return int(np.abs(g.Dstar @ g.D - expected).max())


def test_biorthogonality_defect_matches_the_subtraction():
    """The sparse-row defect is the dense product's on a built tree, after
    a change of Dstar where it held 0 (a walk that kept the nonzeros it
    first saw would miss it), and after changes off and on the diagonal of
    D."""
    g = build_gamma(BDParams(levels=3, cap=12, seed=1))
    assert g.biorthogonality_defect() == _dense_defect(g) == 0
    i, j = (int(k) for k in np.argwhere(g.Dstar == 0)[-1])
    g.Dstar[i, j] = 3
    assert g.biorthogonality_defect() == _dense_defect(g) > 0
    g.Dstar[i, j] = 0
    assert g.biorthogonality_defect() == 0
    for i, j, delta in ((2, 3, 5), (4, 4, -7)):
        g.D[i, j] += delta
        assert g.biorthogonality_defect() == _dense_defect(g) > 0


def test_default_config_defect_matches_the_dense_product():
    from rudlab.config import RunConfig, SpaceFactory

    g = SpaceFactory.shared(RunConfig()).space("bd").gamma
    assert g.biorthogonality_defect() == _dense_defect(g) == 0


def test_biorthogonality_small_vs_fraction_oracle():
    """Independent check: exact Fraction dot products on a small build."""
    g = build_gamma(BDParams(levels=3, cap=12, seed=1))
    n = g.size
    D = [[F(int(g.D[i, j]), g.d_scale) for j in range(n)] for i in range(n)]
    Ds = [[F(int(g.Dstar[i, j]), g.s_scale) for j in range(n)] for i in range(n)]
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
        sub = gamma.D[np.ix_(idxs, idxs)]
        assert np.array_equal(sub, gamma.d_scale * np.eye(len(idxs), dtype=np.int64))


def test_projections(gamma):
    for m in (0, 1, 2):
        P, s = projection_matrix(gamma, m)
        assert np.array_equal(P @ P, s * P)  # idempotent, exact
    P, s = projection_matrix(gamma, len(gamma.levels) - 1)
    assert np.array_equal(P, s * np.eye(gamma.size, dtype=np.int64))
    P0, _ = projection_matrix(gamma, 0)
    assert np.linalg.matrix_rank(P0.astype(np.float64)) == 1
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
    for i in gamma.level_indices(top)[:10]:
        col = gamma.D[:, i]
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
    assert np.array_equal(g1.D, g2.D) and np.array_equal(g1.Dstar, g2.Dstar)
    g3 = build_gamma(BDParams(levels=3, cap=40, seed=6))
    assert not np.array_equal(g1.D, g3.D)


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
    put((g.D.shape, g.D.tolist(), g.Dstar.tolist(), int(g.d_scale), int(g.s_scale)))
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
