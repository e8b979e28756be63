"""One engine batch per sweep vector: the pair walk, and the integer inner
means of the renorm engine."""

from fractions import Fraction as F
from math import gcd, lcm

import numpy as np
import pytest

import rudlab.rademacher as rad
from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs, mask_matrix_range, sign_matrix_range
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.experiments import SWEEP_SPECS, _vectors, run_experiment
from rudlab.rademacher import pair_stats, sign_means, sign_stats, subset_stats
from rudlab.rng import derive_seed
from rudlab.spaces import LpSpace, RenormSpace, Space

from oracles import renorm_batch_reference

_FAC = SpaceFactory(RunConfig())


def _same_scalar(x, y):
    if isinstance(x, float) or isinstance(y, float):
        return type(x) is type(y) and x == y
    return type(x) is type(y) and (QSum.of(x) - QSum.of(y)).sign() == 0


def _same_batch(x: ExactBatch, y: ExactBatch):
    """Array-equal: scales, class order, values and dtypes."""
    assert (x.scale, x.roots_scale) == (y.scale, y.roots_scale)
    assert x.scalars == y.scalars
    assert list(x.classes or {}) == list(y.classes or {})
    arrays = [*zip((x.classes or {}).values(), (y.classes or {}).values())]
    assert (x.roots is None) == (y.roots is None)
    if x.roots is not None:
        arrays.append((x.roots, y.roots))
    for got, want in arrays:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _same_stats(got, want):
    for q in ("mean", "mean_sq", "min", "max"):
        assert _same_scalar(getattr(got, q)(), getattr(want, q)()), q
    assert got.argmax() == want.argmax()


def _sweep_vectors(spec, count):
    space = _FAC.space(spec)
    seed = derive_seed(RunConfig().seed, len(spec), sum(map(ord, spec)))
    return space, _vectors(space, seed, count)


def _count_batches(monkeypatch):
    """Count ``Space.batch`` calls per engine object."""
    calls: dict[int, int] = {}
    batch = Space.batch

    def counting(self, a, mult, exact):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return batch(self, a, mult, exact)

    counting.__wrapped__ = batch

    monkeypatch.setattr(Space, "batch", counting)
    return calls


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_pair_views_equal_the_two_walks(spec, monkeypatch):
    """On every sweep engine each view of the pair batch is array-equal to
    its own walk's batch and has its mean, mean square, min, max and first
    argmax, from one engine batch per vector."""
    space, vectors = _sweep_vectors(spec, 40)
    top = space.sweep_max_m if space.sweep_indices is None else min(
        space.sweep_max_m, len(space.sweep_indices))
    universe = space.sweep_indices or tuple(range(48))
    vectors.append(Coeffs.from_pairs(zip(universe[:top], [3, -1, F(1, 2), 2, -2] * 4)))
    for a in vectors:
        calls = _count_batches(monkeypatch)
        signs, subsets = pair_stats(space, a)
        assert sum(calls.values()) == 1
        monkeypatch.undo()
        for got, want in ((signs, sign_stats(space, a)), (subsets, subset_stats(space, a))):
            _same_batch(got, want)
            _same_stats(got, want)


@pytest.mark.parametrize("spec", ["lp:2", "summing", "james:chain", "norming_set"])
def test_pair_walk_fallbacks(spec, monkeypatch):
    """The empty vector gives the one pattern of norm 0 twice.  A float
    vector, and a 13-entry vector whose 4,096 sign patterns and 8,192
    masks do not fit in one chunk together, walk twice, one batch each;
    past a small chunk the walks fold or take the engine's law.  Each walk
    is the one it is on its own."""
    space = _FAC.space(spec)
    universe = space.sweep_indices or tuple(range(48))
    for got in pair_stats(space, Coeffs.zero()):
        _same_batch(got, sign_stats(space, Coeffs.zero()))
    floats = Coeffs.from_pairs(zip(universe, [0.5, -1.25, 2.0, 3.0]))
    long = Coeffs.from_pairs(zip(universe, [1, -2, 3, F(1, 2), -1, 2, 2, 1, -3, 1, 1, -1, 2]))
    for a, chunk in ((floats, rad._CHUNK), (long, rad._CHUNK), (long, 1 << 9)):
        monkeypatch.setattr(rad, "_CHUNK", chunk)
        calls = _count_batches(monkeypatch)
        signs, subsets = pair_stats(space, a)
        made = sum(calls.values())
        monkeypatch.setattr(Space, "batch", Space.batch.__wrapped__)
        for got, want in ((signs, sign_stats(space, a)), (subsets, subset_stats(space, a))):
            if isinstance(want, ExactBatch):
                _same_batch(got, want)
            _same_stats(got, want)
        if chunk == 1 << 13:
            assert made == 2, a
        monkeypatch.undo()


def test_sweep_makes_one_engine_batch_per_vector(monkeypatch):
    """``sandwich`` and ``subsets`` make one outer engine batch per (sweep
    engine, vector): 19 x 200 = 3,800 (two walks each made 7,600).  The
    renorm engine's inner batches are ``mult_batch`` calls on its base and
    are not counted."""
    monkeypatch.setattr(SpaceFactory, "_shared", {})
    cfg = RunConfig()
    fac = SpaceFactory.shared(cfg)
    spec_of = {id(fac.space(spec)): spec for spec in SWEEP_SPECS}
    calls = _count_batches(monkeypatch)
    run_experiment("sandwich", cfg)
    run_experiment("subsets", cfg)
    assert {spec_of.get(k, k): n for k, n in calls.items()} == {spec: 200 for spec in SWEEP_SPECS}


@pytest.mark.parametrize("spec", ["summing", "lp:2", "james:chain", "norming_set", "zmr", "bmo"])
def test_sign_means_is_one_integer_batch(spec, monkeypatch):
    """``sign_means`` gives one column per distinct |column|, each the sign
    mean of its masked vector (an empty one 0), as integer numerators in
    ascending core order over the lcm of the means' reduced denominators,
    array-equal whether its walks are packed whole or walked past a small
    chunk."""
    space = _FAC.space(spec)
    universe = space.sweep_indices or tuple(range(48))
    a = Coeffs.from_pairs(zip(universe, [1, F(-1, 2), 2, -3, F(3, 2), 1, F(2, 3)]))
    m = len(a)
    mult = np.concatenate([mask_matrix_range(m, 0, 1 << m)[:, ::5],
                           sign_matrix_range(m, 0, 1 << m)[:, ::17],
                           np.zeros((m, 1), dtype=np.int8)], axis=1)
    got, which = sign_means(space, a, mult, exact=True)
    assert list(got.classes) == sorted(got.classes) and got.roots is None
    cols = np.unique(np.abs(mult), axis=1)
    want = []
    for col in cols.T:
        masked = Coeffs.from_pairs((i, v * int(c)) for (i, v), c in zip(a.entries, col))
        want.append(sign_stats(space, masked).mean() if masked else F(0))
    assert len(got) == cols.shape[1]
    for g, w in enumerate(want):
        assert _same_scalar(got.value(g), w if isinstance(w, QSum) else F(w)), g
    dens = [x.denominator for w in want for x in QSum.of(w).terms.values()]
    assert got.scale == lcm(*dens)
    nums = [int(x) for arr in got.classes.values() for x in arr.tolist()]
    assert gcd(got.scale, *nums) == 1
    for j, g in enumerate(which.ravel().tolist()):
        assert (np.abs(mult[:, j]) == cols[:, g]).all()
    floats, fwhich = sign_means(space, a, mult, exact=False)
    assert np.array_equal(fwhich, which)
    assert floats.float_values().tolist() == pytest.approx([float(w) for w in want], rel=1e-12)
    monkeypatch.setattr(rad, "_CHUNK", 16)
    small, _ = sign_means(space, a, mult, exact=True)
    _same_batch(small, got)


_RENORMS = {
    "renorm:summing:1": lambda: _FAC.space("renorm:summing:1"),
    "zruc": lambda: _FAC.space("zruc"),
    "renorm:lp:2:1/2": lambda: RenormSpace(LpSpace(2), F(1, 2)),
    "renorm:james:chain:3/2": lambda: _FAC.space("renorm:james:chain:3/2"),
}


def _same_values(got: ExactBatch, want: ExactBatch):
    """The same values: ``got`` holds ``want``'s numerators times one
    integer factor, in the same class order, with the same roots."""
    factor, rest = divmod(got.scale, want.scale)
    assert not rest and list(got.classes or {}) == list(want.classes or {})
    for core, arr in (want.classes or {}).items():
        assert got.classes[core].tolist() == [x * factor for x in arr.tolist()]
    assert got.roots_scale == want.roots_scale
    assert (got.roots is None and want.roots is None) or np.array_equal(got.roots, want.roots)


def _same_entries(got: ExactBatch, want: ExactBatch):
    """The same integers over the same scales, a class missing from one
    batch counting as zeros there."""
    assert (got.scale, got.roots_scale) == (want.scale, want.roots_scale)
    n = len(want)
    for core in {*(got.classes or {}), *(want.classes or {})}:
        x = (got.classes or {}).get(core, np.zeros(n, dtype=np.int64))
        y = (want.classes or {}).get(core, np.zeros(n, dtype=np.int64))
        assert x.tolist() == y.tolist(), core
    assert (got.roots is None and want.roots is None) or np.array_equal(got.roots, want.roots)


@pytest.mark.parametrize("name", _RENORMS)
def test_renorm_batch_equals_the_fraction_route(name):
    """The renorm batch from integer inner means holds the values of the
    one built from each inner mean as ``Fraction`` terms, on sign and mask
    columns of seeded vectors, including roots-valued bases; its scale is
    fixed by the columns, so a batch of sign columns and mask columns side
    by side holds each part's integers over its scale (over a roots-valued
    base the wider batch may add a class that is 0 on a part's columns)."""
    space = _RENORMS[name]()
    seed = derive_seed(7, len(name))
    for a in _vectors(space, seed, 8, max_m=6):
        m = len(a)
        signs, masks = sign_matrix_range(m, 0, 1 << m), mask_matrix_range(m, 0, 1 << m)
        for mult in (signs, masks):
            _same_values(space.mult_batch(a, mult), renorm_batch_reference(space, a, mult))
        both = space.mult_batch(a, np.concatenate([signs, masks], axis=1))
        _same_entries(both.columns(0, 1 << m), space.mult_batch(a, signs))
        _same_entries(both.columns(1 << m, 2 << m), space.mult_batch(a, masks))


def test_pairs_renorm_columns_on_each_side_of_the_chunk_boundary():
    """``renorm:james:pairs:1`` columns of a 17-entry vector that mask two
    neighbouring entries into a two-index gap: with 14 entries left the
    inner walk is packed into one batch of the whole vector, its masked
    zeros as nodes, and with 15 it is the masked vector's own walk past one
    chunk.  Both equal the reference from each masked vector's own sign
    walk, since a zero multiplier restricts on the pairs engine too."""
    space = _FAC.space("renorm:james:pairs:1")
    a = Coeffs.from_values([3, -1, 2, F(1, 2), -2, 1, 3, -3, 1, 2, -1, F(3, 2), 2, -1, 1, 2, 1])
    mult = np.ones((len(a), 2), dtype=np.int8)
    mult[[5, 6]] = 0
    mult[12, 0] = 0
    mult[[0, 9], 1] = -1
    assert np.count_nonzero(mult, axis=0).tolist() == [14, 15]
    assert rad._walk_length(14, masks=False) <= rad._CHUNK < rad._walk_length(15, masks=False)
    _same_values(space.mult_batch(a, mult), renorm_batch_reference(space, a, mult))


def test_renorm_inner_batch_with_only_empty_columns():
    """Columns that are all zero give inner means 0 and leave a roots-only
    base batch without classes."""
    space = RenormSpace(LpSpace(2), F(1, 2))
    a = Coeffs.from_values([3, 4])
    mult = np.zeros((2, 3), dtype=np.int8)
    got = space.mult_batch(a, mult)
    assert got.classes is None
    _same_values(got, renorm_batch_reference(space, a, mult))
    assert all(got.value(j) == 0 for j in range(3))
