"""Column-blocked reductions against their whole-array forms.

The family-sup reduction of the norming-set and coding engines, the
coding engines' family rows, the norming-set and coding float batches and
the chain DP walk column blocks of at most
``spaces._PRODUCT_BLOCK`` entries.  Each is compared here, array for array
and bit for bit, with the whole-array code it replaced, at widths on both
sides of a block boundary."""

import functools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from rudlab import mr, spaces
from rudlab.batches import _TIE_RTOL, ExactBatch, _peak, first_extreme, int_dtype
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import SQRT2, split_square
from rudlab.mr import MrContext, ZmrSpace, ZrudSpace, _family_rows, _magnitude_order
from rudlab.rng import sign_matrix
from rudlab.spaces import (_BLAS_ALIGN, _PRODUCT_BLOCK, _chain_dp, _chain_table,
                           _normingset_reduce_blocks, _qval)


def _whole_reduce(pairs, scale):
    """The family-sup reduction over the whole (F, N) pairings at once, as
    it was before the column blocks."""
    approx = sum(p.astype(np.float64) * (c**0.5) for c, p in pairs.items())
    gap = np.abs(approx)
    best = gap.argmax(axis=0)
    n = gap.shape[1]
    cols = np.arange(n)
    fv = gap[best, cols]
    np.subtract(fv[None, :], gap, out=gap)
    fi, ji = np.nonzero(gap <= _TIE_RTOL * (1.0 + fv)[None, :])
    win = best[ji]
    same = np.ones(len(fi), dtype=bool)
    flip = np.ones(len(fi), dtype=bool)
    for p in pairs.values():
        cv, bv = p[fi, ji], p[win, ji]
        same &= cv == bv
        flip &= cv == -bv
    for j in np.unique(ji[~(same | flip)]).tolist():
        key = np.stack([p[:, j] for p in pairs.values()])
        lead = key[(key != 0).argmax(axis=0), np.arange(key.shape[1])]
        key = key * np.where(lead < 0, -1, 1)
        best[j] = first_extreme(
            np.abs(approx[:, j]), key, lambda f: abs(_qval(pairs, f, j)), True
        )[1]
    signs = np.sign(approx[best, cols])
    signs[signs == 0] = 1
    neg = np.nonzero(np.abs(approx[best, cols]) < 1e-12)[0]
    for j in neg:
        s = _qval(pairs, int(best[j]), int(j)).sign()
        signs[j] = s if s else 1
    classes = {c: (p[best, cols] * signs.astype(np.int64)) for c, p in pairs.items()}
    return ExactBatch.from_classes(classes, scale)


def _blocked_reduce(pairs, scale):
    """The blocked reduction of pairings built whole, sliced per block."""
    rows, n = next(iter(pairs.values())).shape
    return _normingset_reduce_blocks(
        lambda sl: {c: p[:, sl] for c, p in pairs.items()}, rows, n, scale)


def _whole_coding_batch(space, a, mult):
    """A coding engine's exact batch with its family rows and pairings built
    for the whole batch, one class pair at a time, and reduced whole, as
    before the column blocks and the per-core forms: the family rows take
    the first R rows of the layout's weights, and the coordinate rows pair
    each entry at ``fscale`` under core 1."""
    lay = space._layout(a.support)
    rows = lay.cards.shape[0]
    entry_signs = np.array([1 if v > 0 else -1 for _, v in a.entries], dtype=np.int8)
    order = _magnitude_order(a, mult)
    vcols, vden = a.class_columns()
    # the largest weight numerator per class, the coordinates' included
    peaks = {fc: max(_peak(w[:rows]), lay.fscale if fc == 1 else 1)
             for fc, w in lay.weights.items()}
    bound = sum(peak * split_square(fc * vc)[0] * max(_peak(mult), 1) * sum(map(abs, col))
                for fc, peak in peaks.items() for vc, col in vcols.items())
    dtype = int_dtype(bound)
    vals = {vc: np.array(col, dtype=dtype)[:, None] * mult.astype(dtype)
            for vc, col in vcols.items()}
    phi = _family_rows(lay, entry_signs[:, None] * np.sign(mult), order).astype(dtype)
    pairs = {}
    for fc, weights in lay.weights.items():
        signed = phi * weights[:rows].astype(dtype)[:, :, None]
        for vc, v in vals.items():
            outer, core = split_square(fc * vc)
            p = np.concatenate([np.einsum("rij,ij->rj", signed, v),
                                v * lay.fscale if fc == 1 else np.zeros_like(v)])
            if outer != 1:
                p *= outer
            pairs[core] = pairs[core] + p if core in pairs else p
    return _whole_reduce(pairs, lay.fscale * vden)


def _whole_float(space, a, mult):
    """The norming-set float batch as one (F, N) product per class."""
    v = a.values_float()[:, None] * mult
    mats, fscale = space.class_mats(a.support)
    acc = np.zeros((next(iter(mats.values())).shape[0], v.shape[1]))
    for c, m in mats.items():
        acc += (m.astype(np.float64) @ v) * (c**0.5)
    return np.abs(acc).max(axis=0) / fscale


def _whole_coding_float(space, a, mult):
    """A coding engine's float batch with its family rows and einsum built
    for the whole batch, as before the column blocks."""
    v = a.values_float()[:, None] * mult
    order = np.argsort(-np.abs(v), axis=0, kind="stable")
    lay = space._layout(a.support)
    phi = _family_rows(lay, np.sign(v), order)
    weights = np.where(lay.cards > 0, 1.0 / np.sqrt(np.maximum(lay.cards, 1)), 0.0)
    fams = np.abs(np.einsum("rij,ri,ij->rj", phi, weights, v))
    return np.maximum(fams.max(axis=0, initial=0.0), np.abs(v).max(axis=0, initial=0.0))


def _assert_same(got, want):
    """Equal exact batches: scale, class order, dtypes and values."""
    assert got.scale == want.scale and got.roots is None and want.roots is None
    assert list(got.classes) == list(want.classes)
    for c, w in want.classes.items():
        assert got.classes[c].dtype == w.dtype
        assert np.array_equal(got.classes[c], w), c


#: a block budget small enough that Python-int batches cross several
#: block boundaries quickly; the boundaries are the same code at any budget
_SMALL = 1 << 10


def _widths(rows, align=1):
    """block - 1, block, block + 1 and 2 block + 3 columns, for the block
    width :func:`spaces._column_blocks` gives ``rows`` rows."""
    block = max(align, spaces._PRODUCT_BLOCK // rows // align * align)
    return block, (block - 1, block, block + 1, 2 * block + 3)


def _whole_engines(monkeypatch):
    """Makes the engines reduce their whole pairings with
    :func:`_whole_reduce`, as they did before the column blocks."""
    for module in (spaces, mr):
        monkeypatch.setattr(module, "_normingset_reduce_blocks",
                            lambda block, rows, n, scale, slack: _whole_reduce(
                                block(slice(None)), scale))


#: (x, -y) with x = fl(y sqrt(2)) for y = 2^52 + 6: x - y sqrt(2) < 0, and
#: its float image x * 1.0 - y * sqrt(2) is 0.0
_CANCEL = (6369051672525781, -(2**52 + 6))


def _tie_pairs(rng, rows, n, big):
    """Random (rows, n) pairings of the classes 1 and 2, entries near 2^70
    (Python ints) if ``big``, with planted columns on both sides of the
    middle and at both ends: near-ties of distinct keys, which
    first_extreme decides; ties up to sign, decided without it; and a
    pairing x - y sqrt(2) < 0 whose float image is 0.0, which takes the
    exact orientation."""
    p1 = rng.integers(-50, 51, size=(rows, n))
    p2 = rng.integers(-50, 51, size=(rows, n))
    if big:
        p1, p2 = p1.astype(object) + (1 << 70), p2.astype(object)
    plant = sorted({0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1})
    for k, j in enumerate(plant):
        p1[:, j] = p2[:, j] = 0
        if k % 3 == 0 and big:  # one float, two Python ints
            p1[1, j], p1[3, j] = (1 << 70) + 5, (1 << 70) + 6
        elif k % 3 == 0:  # 470832 sqrt(2) = 665857.00000075
            p1[1, j], p2[3, j] = 665857, 470832
        elif k % 3 == 1:
            p1[2, j], p1[4, j] = 97, -97
        else:
            p1[0, j], p2[0, j] = _CANCEL
    return {1: p1, 2: p2}


@pytest.mark.parametrize("big, budget", [(False, _PRODUCT_BLOCK), (False, _SMALL), (True, _SMALL)])
def test_reduction_blocks_equal_the_whole_reduction(big, budget, monkeypatch):
    monkeypatch.setattr(spaces, "_PRODUCT_BLOCK", budget)
    rng = np.random.default_rng(7 + big)
    rows = 5
    calls = []
    monkeypatch.setattr(spaces, "first_extreme",
                        lambda *args: calls.append(1) or first_extreme(*args))
    for n in _widths(rows)[1]:
        pairs = _tie_pairs(rng, rows, n, big)
        _assert_same(_blocked_reduce(pairs, 3), _whole_reduce(pairs, 3))
    assert calls, "no column reached first_extreme"
    assert (float(_CANCEL[0]) + float(_CANCEL[1]) * 2**0.5 == 0.0
            and _CANCEL[0] ** 2 < 2 * _CANCEL[1] ** 2)


@functools.cache
def _engine(spec):
    if spec == "norming_set":
        return SpaceFactory.shared(RunConfig()).space(spec)
    return (ZmrSpace if spec == "zmr" else ZrudSpace)(_ctx())


@functools.cache
def _ctx():
    return MrContext()


_VECTORS = {
    "rational": [3, -1, F(2, 3), 5, -2, F(1, 2)],
    "radical": [3, -1, SQRT2, 5, -2 * SQRT2, F(1, 2)],
    "python-int": [(1 << 70) + 1, -3, (1 << 69) - 5, 7, -(1 << 70), 2],
}


def _rows(space, a, monkeypatch):
    """The rows per column the engine blocks its batches by on ``a``'s
    support."""
    seen = []
    with monkeypatch.context() as patch:
        for module in (spaces, mr):
            patch.setattr(module, "_normingset_reduce_blocks",
                          lambda block, rows, n, scale, slack: seen.append(rows))
        space.mult_batch(a, np.ones((len(a), 1), dtype=np.int8))
    return seen[0]


@pytest.mark.parametrize("spec", ["norming_set", "zmr", "zrud"])
@pytest.mark.parametrize("kind", list(_VECTORS))
def test_engine_batches_across_block_boundaries(spec, kind, monkeypatch):
    monkeypatch.setattr(spaces, "_PRODUCT_BLOCK", _SMALL)
    space = _engine(spec)
    a = Coeffs.from_pairs(enumerate(_VECTORS[kind]))
    rng = np.random.default_rng(len(spec) + len(kind))
    mults = [rng.integers(-2, 3, size=(len(a), n)).astype(np.int8)
             for n in _widths(_rows(space, a, monkeypatch))[1]]
    got = [space.mult_batch(a, mult) for mult in mults]
    _whole_engines(monkeypatch)
    for mult, batch in zip(mults, got):
        _assert_same(batch, space.mult_batch(a, mult))


@pytest.mark.parametrize("spec", ["zmr", "zrud"])
@pytest.mark.parametrize("kind, budget", [
    ("rational", _PRODUCT_BLOCK), ("rational", _SMALL), ("radical", _SMALL),
    ("python-int", _SMALL),
])
def test_coding_batches_equal_the_whole_batch(spec, kind, budget, monkeypatch):
    """The coding engines build their family rows and pairings per column
    block; sign, mask and multiplier batches equal the batch built and
    reduced whole."""
    monkeypatch.setattr(spaces, "_PRODUCT_BLOCK", budget)
    space = _engine(spec)
    a = Coeffs.from_pairs(enumerate(_VECTORS[kind]))
    rng = np.random.default_rng(len(spec) * len(kind))
    rows = _rows(space, a, monkeypatch)
    widths = _widths(rows)[1]
    assert len(spaces._column_blocks(rows, widths[-1])) == 3
    for n in widths:
        for mult in (rng.choice([-1, 1], size=(len(a), n)), rng.integers(0, 2, size=(len(a), n)),
                     rng.integers(-2, 3, size=(len(a), n))):
            mult = mult.astype(np.int8)
            _assert_same(space.mult_batch(a, mult), _whole_coding_batch(space, a, mult))


@pytest.mark.parametrize("spec, m", [("zmr", 8), ("zrud", 6)])
def test_coding_batch_memory_bounded_by_column_blocks(spec, m):
    """A traced batch of 8,192 sign columns peaks below 8 MB (20.3 MB on
    zmr and 22.5 MB on zrud with the family rows built for the whole
    batch)."""
    space = _engine(spec)
    a = Coeffs.from_pairs((i, F((-1) ** i * (i + 2), i % 3 + 1)) for i in range(m))
    signs = sign_matrix(1, m, 8192)
    space.mult_batch(a, signs[:, :16])  # layout and caches
    tracemalloc.start()
    try:
        space.mult_batch(a, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def _block_vector_rows(name):
    """The depth-3 block vector (14 entries) and the rows per column the
    coding engine's float batch blocks by on its support, (R + 1) x m."""
    a = _ctx().block_vector(3)
    rows, m = _engine(name)._layout(a.support).cards.shape
    assert (m, rows) == (14, {"zmr": 12, "zrud": 18}[name])
    return a, (rows + 1) * m


@pytest.mark.parametrize("name", ["zmr", "zrud"])
@pytest.mark.parametrize("kind", ["signs", "gaussian"])
def test_coding_float_batch_equals_the_whole_batch(name, kind):
    """The coding engines' float batch builds its family rows and einsum
    per column block; at block - 1, block, block + 1, 2 block + 3 and 4,096
    columns it equals the batch built whole, bit for bit."""
    space = _engine(name)
    a, rows = _block_vector_rows(name)
    rng = np.random.default_rng(len(kind))
    widths = (*_widths(rows)[1], 4096)
    assert len(spaces._column_blocks(rows, widths[-1])) > 3
    for n in widths:
        mult = rng.standard_normal((len(a), n))
        if kind == "signs":
            mult = np.sign(mult)
        got, want = space.mult_batch_float(a, mult), _whole_coding_float(space, a, mult)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


@pytest.mark.parametrize("name", ["zmr", "zrud"])
def test_coding_float_batch_memory_bounded_by_column_blocks(name):
    """A traced Monte-Carlo chunk of 4,096 sign columns on the depth-3 block
    vector peaks below 4 MB (about 20 MB for zrud with the family rows built
    for the whole batch)."""
    space = _engine(name)
    a, _ = _block_vector_rows(name)
    signs = sign_matrix(2, len(a), 4096).astype(np.float64)
    space.mult_batch_float(a, signs[:, :16])  # layout and caches
    tracemalloc.start()
    try:
        space.mult_batch_float(a, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("kind", list(_VECTORS))
def test_norming_set_split_walk_across_block_boundaries(kind, monkeypatch):
    """A split walk's chunks, reduced one column block at a time from the
    float image, equal ``mult_batch`` on each chunk's multipliers reduced
    whole."""
    monkeypatch.setattr(spaces, "_PRODUCT_BLOCK", _SMALL)
    space = _engine("norming_set")
    a = Coeffs.from_pairs(enumerate(_VECTORS[kind]))
    rng = np.random.default_rng(len(kind))
    highs = rng.choice([-1, 1], size=(2, 3)).astype(np.int8)
    lows = [rng.choice([-1, 1], size=(4, n)).astype(np.int8)
            for n in _widths(_rows(space, a, monkeypatch))[1]]
    got = [list(space.split_batches(a, low, highs)) for low in lows]
    _whole_engines(monkeypatch)
    for low, batches in zip(lows, got):
        n = low.shape[1]
        want = [space.mult_batch(a, np.vstack([low, np.repeat(highs[:, k:k + 1], n, axis=1)]))
                for k in range(highs.shape[1])]
        assert len(batches) == len(want) == highs.shape[1]
        for g, w in zip(batches, want):
            _assert_same(g, w)


@pytest.mark.parametrize("kind", ["rational", "radical", "float"])
def test_norming_set_float_batches_are_bit_equal(kind):
    space = _engine("norming_set")
    # 18 entries: a 53-functional family, whose unaligned blocks of 1,236
    # columns would round differently from the whole product
    values = {"float": [0.1 * (k + 1) * (-1) ** k + 0.37 for k in range(18)]}
    a = Coeffs.from_pairs(enumerate(values.get(kind) or _VECTORS[kind] * 3))
    rng = np.random.default_rng(11)
    rows = next(iter(space.class_mats(a.support)[0].values())).shape[0]
    block, widths = _widths(rows, _BLAS_ALIGN)
    for n in (*widths, 2 * block, 3 * block + _BLAS_ALIGN, 4096, 6 * 4096):
        mult = rng.standard_normal((len(a), n))
        if kind == "float":
            mult = np.sign(mult)
        got, want = space.mult_batch_float(a, mult), _whole_float(space, a, mult)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


@pytest.mark.parametrize("dtype, power", [
    (np.int64, 1), (np.int64, 2), (object, 1), (object, 2),
    (np.float64, 1), (np.float64, 2), (np.float64, 1.5),
])
def test_chain_dp_blocks_equal_the_whole_table(dtype, power, monkeypatch):
    if dtype is object:
        monkeypatch.setattr(spaces, "_PRODUCT_BLOCK", _SMALL)
    rng = np.random.default_rng(5)
    rows = 9
    for n in _widths(rows)[1]:
        if dtype is np.float64:
            nv = rng.standard_normal((rows, n))
        else:
            nv = rng.integers(-1000, 1001, size=(rows, n)).astype(dtype)
            if dtype is object:
                nv = nv * (1 << 40)
        got, want = _chain_dp(nv, power), _chain_table(nv, power)[-1]
        assert got.dtype == want.dtype and np.array_equal(got, want), n
