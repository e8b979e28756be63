"""Engine kernels: exact integer products through float64 BLAS, and row
scans, against Python-int products and numpy's ``cumsum``; the integer
kernels at the edges of each dtype, against the engines' definitions; and
the float batches of dyadic vectors, which run the integer kernels, against
the float kernels bit for bit."""

from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rudlab import bd, dyadic, spaces
from rudlab.batches import int_dtype
from rudlab.coeffs import Coeffs, mask_matrix_range, sign_matrix_range
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.rng import sign_matrix
from rudlab.spaces import (_ROW_SCAN_COLS, _cumsum_rows, _float_values, _int_entries,
                           _int_mult_values, _int_product)

from oracles import definition_norm, norm_slow, pairs_dp_loop

_EXACT = 1 << 53


def _python_product(w, v):
    return w.astype(object) @ v.astype(object)


def test_int_product_float_path_up_to_two_to_the_53():
    """A true bound of 2^53 - 1 takes the float path and is exact there; a
    false bound shows the path: (2^31 + 1)^2 loses its last bit in float64
    under a bound below 2^53 and keeps it from 2^53 on."""
    w = np.array([[3, -5], [1, 1]], dtype=np.int64)
    y = (_EXACT - 1 - 3 * (1 << 50)) // 5
    v = np.array([[1 << 50, -(1 << 50)], [y, 1]], dtype=np.int64)
    bound = max(sum(abs(int(a) * int(b)) for a, b in zip(row, col))
                for row in w for col in v.T)
    assert bound <= _EXACT - 1
    got = _int_product(w, v, _EXACT - 1)
    assert got.dtype == np.int64
    assert got.astype(object).tolist() == _python_product(w, v).tolist()

    big = np.array([[(1 << 31) + 1]], dtype=np.int64)
    exact = ((1 << 31) + 1) ** 2
    assert int(_int_product(big, big, _EXACT - 1)[0, 0]) == exact - 1
    assert int(_int_product(big, big, _EXACT)[0, 0]) == exact


def test_int_product_python_ints_take_the_integer_path():
    big = (1 << 31) + 1
    for w, v in ((np.array([[big]], dtype=object), np.array([[big]], dtype=np.int64)),
                 (np.array([[big]], dtype=np.int64), np.array([[big]], dtype=object))):
        got = _int_product(w, v, 1)  # a false bound: the float path would round
        assert got.dtype == object and got[0, 0] == big * big


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(0, 6), st.integers(1, 5)),
       data=st.data())
def test_int_product_matches_python_ints(shape, data):
    """int64 entries up to 2^40 times entries up to 2^12: the tight bound
    falls on both sides of 2^53, and either path gives the Python-int
    product in int64."""
    r, k, n = shape
    w = np.array(data.draw(st.lists(st.integers(-(1 << 40), 1 << 40),
                                    min_size=r * k, max_size=r * k)),
                 dtype=np.int64).reshape(r, k)
    v = np.array(data.draw(st.lists(st.integers(-(1 << 12), 1 << 12),
                                    min_size=k * n, max_size=k * n)),
                 dtype=np.int64).reshape(k, n)
    bound = max(sum(abs(int(a) * int(b)) for a, b in zip(row, col))
                for row in w.tolist() for col in v.T.tolist())
    got = _int_product(w, v, bound)
    assert got.dtype == np.int64 and got.shape == (r, n)
    assert got.astype(object).tolist() == _python_product(w, v).tolist()


def _reference(space, x):
    """The norm of ``x`` in Fractions: ``norm_slow`` on norming-set engines,
    else the engine's matrix (the tree's coordinates, the dyadic atoms)
    applied in Python ints."""
    if not x:
        return 0
    if isinstance(space, spaces.NormingSetSpace):
        return norm_slow(space, x)
    vals = [F(v) for _, v in x.entries]
    if isinstance(space, bd.BdBasisSpace):
        g = space.gamma
        rows = [dict(zip(*(part.tolist() for part in g.D.row(i)))) for i in range(g.size)]
        return max(abs(sum(r.get(j, 0) * v for j, v in zip(x.support, vals)))
                   for r in rows) / g.d_scale
    rows = space._atoms(x.support).tolist()
    return sum(abs(sum(c * v for c, v in zip(r, vals))) for r in rows) / len(rows)


@pytest.mark.parametrize("side", ["below", "past"])
@pytest.mark.parametrize("spec", ["norming_set", "bd", "walsh", "haar"])
def test_engine_batches_at_the_float_width(monkeypatch, spec, side):
    """Numerators scaled so that the product bound lies just below 2^53 or
    just past it: every sign and mask column equals the reference norm."""
    space = SpaceFactory.shared(RunConfig()).space(spec)
    universe = space.sweep_indices or tuple(range(12))
    support = [universe[k] for k in (0, 1, 3, 5, 8)]
    base = [3, -5, 7, 2, -4]
    bounds = []

    def recording(w, v, bound):
        bounds.append(bound)
        return _int_product(w, v, bound)

    for module in (spaces, bd, dyadic):
        monkeypatch.setattr(module, "_int_product", recording, raising=False)
    mults = (sign_matrix_range(5, 0, 16), mask_matrix_range(5, 0, 32))
    for mult in mults:
        space.mult_batch(Coeffs.from_pairs(zip(support, base)), mult)
    unit = max(bounds)
    t = -(-_EXACT // unit) if side == "past" else (_EXACT - 1) // unit
    a = Coeffs.from_pairs((i, t * v) for i, v in zip(support, base))
    for mult in mults:
        bounds.clear()
        batch = space.mult_batch(a, mult)
        assert max(bounds) == t * unit
        assert (max(bounds) >= _EXACT) == (side == "past")
        for j in range(mult.shape[1]):
            x = Coeffs.from_pairs((i, v * int(c)) for (i, v), c in zip(a.entries, mult[:, j]))
            assert QSum.of(batch.value(j)) == QSum.of(_reference(space, x)), (spec, j)


@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
def test_cumsum_rows_is_numpy_cumsum(dtype):
    """Equal values and dtype, floats bit for bit, on 0, 1, 2 and 40 rows,
    widths on both sides of the row-scan cut-over, and reversed views."""
    rng = np.random.default_rng(7)
    for rows in (0, 1, 2, 40):
        for cols in (1, _ROW_SCAN_COLS - 1, _ROW_SCAN_COLS, 4096):
            if dtype is np.float64:
                v = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-9, 9, (rows, cols))
            elif dtype is object:
                v = rng.integers(-9, 10, (rows, cols)).astype(object) * (1 << 70)
            else:
                v = rng.integers(-(1 << 40), 1 << 40, (rows, cols))
            for x in (v, v[::-1]):
                got, want = _cumsum_rows(x), np.cumsum(x, axis=0)
                assert got.dtype == want.dtype and got.shape == want.shape
                if dtype is np.float64:
                    assert got.tobytes() == want.tobytes(), (rows, cols)
                else:
                    assert np.array_equal(got, want), (rows, cols)


def _old_tail_maxabs(v):
    return np.abs(np.cumsum(v[::-1], axis=0)[::-1]).max(axis=0)


def _old_prefix_maxabs(v):
    return np.abs(np.cumsum(v, axis=0)).max(axis=0)


def test_scan_batches_at_the_monte_carlo_shape():
    """The summing, bmo and smax:2 float batches at m = 40, N = 4096, and
    their exact batches on a 14-entry sign chunk, equal the ``cumsum``
    formulas they had before the row scans."""
    fac = SpaceFactory.shared(RunConfig())
    rng = np.random.default_rng(3)
    a = Coeffs.from_values([F(int(x) or 1, int(d)) for x, d in
                            zip(rng.integers(-9, 10, 40), rng.integers(1, 6, 40))])
    signs = sign_matrix(5, len(a), 4096).astype(np.float64)
    v = a.values_float()[:, None] * signs
    old = {
        "summing": _old_tail_maxabs(v),
        "bmo": _old_prefix_maxabs(v) + np.sqrt((v**2).sum(axis=0)),
        "smax:2": np.maximum(_old_tail_maxabs(v), (np.abs(v) ** 2).sum(axis=0) ** (1 / 2)),
    }
    for spec, want in old.items():
        got = fac.space(spec).mult_batch_float(a, signs)
        assert got.tobytes() == want.tobytes(), spec

    b = Coeffs.from_pairs(a.entries[:14])
    chunk = sign_matrix_range(14, 0, 1 << 13)
    iv, _ = _int_mult_values(b, chunk)
    tails = _old_tail_maxabs(iv)
    assert np.array_equal(fac.space("summing").mult_batch(b, chunk).classes[1], tails)
    assert np.array_equal(fac.space("bmo").mult_batch(b, chunk).classes[1],
                          _old_prefix_maxabs(iv))
    smax = fac.space("smax:2").mult_batch(b, chunk)
    use_s = tails**2 >= (iv**2).sum(axis=0)
    assert np.array_equal(smax.classes[1], np.where(use_s, tails, 0))


def _old_chain_table(nv, power):
    """The chain DP table with fresh temporaries per node, as before the
    in-place kernel."""
    k, n = nv.shape
    best = np.zeros((k, n), dtype=nv.dtype if power in (1, 2) else np.float64)
    for j in range(1, k):
        best[j] = (best[:j] + spaces._gain(np.abs(nv[:j] - nv[j]), power)).max(axis=0)
    return best


@pytest.mark.parametrize("power", [1, 2, 3, 1.5])
@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
def test_chain_table_matches_the_fresh_temporaries(dtype, power):
    """The in-place chain DP equals the table built with fresh temporaries,
    in value, dtype and element type, floats bit for bit, on 0, 1, 2 and
    30 nodes, at integer, Python-int (near 2^70) and Gaussian entries."""
    rng = np.random.default_rng(9)
    for k in (0, 1, 2, 30):
        for n in (1, 7, 600):
            if dtype is np.float64:
                nv = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-6, 6, (k, n))
            elif dtype is object:
                nv = rng.integers(-9, 10, (k, n)).astype(object) * ((1 << 70) + 1)
            else:
                nv = rng.integers(-(1 << 20), 1 << 20, (k, n))
            got, want = spaces._chain_table(nv, power), _old_chain_table(nv, power)
            assert got.dtype == want.dtype and got.shape == want.shape
            if got.dtype == object:
                assert [type(x) for x in got.flat] == [type(x) for x in want.flat]
                assert got.tolist() == want.tolist(), (k, n)
            else:
                assert got.tobytes() == want.tobytes(), (k, n)


@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
def test_chain_dp_at_power_1_is_the_total_variation(dtype):
    """At power 1 the best chain takes every node, so ``_chain_dp`` on
    integers is the sum of |difference| down the nodes and equals the
    table's last row in value, dtype and element type; floats keep the
    table, and the total variation agrees with it to rounding."""
    rng = np.random.default_rng(21)
    for k in range(1, 15):
        for n in (1, 7, 600):
            if dtype is np.float64:
                nv = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-6, 6, (k, n))
            elif dtype is object:
                nv = rng.integers(-9, 10, (k, n)).astype(object) * ((1 << 70) + 1)
            else:
                nv = rng.integers(-(1 << 40), 1 << 40, (k, n))
            got, want = spaces._chain_dp(nv, 1), spaces._chain_table(nv, 1)[-1]
            assert got.dtype == want.dtype
            if dtype is object:
                assert [type(x) for x in got] == [int] * n and got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes(), (k, n)
            assert np.abs(np.diff(nv, axis=0)).sum(axis=0).astype(np.float64) == \
                pytest.approx(want.astype(np.float64), rel=1e-12)


@pytest.mark.parametrize("dtype, power", [
    (np.int64, 1), (np.int64, 2), (object, 1), (object, 2),
    (np.float64, 1), (np.float64, 2), (np.float64, 1.5),
])
def test_pairs_dp_matches_the_pair_loop(dtype, power):
    """The disjoint-pairs DP, one vectorised step per node, equals the loop
    over node pairs in value, dtype and element type, floats bit for bit,
    on 0 to 20 nodes."""
    rng = np.random.default_rng(22)
    for k in (0, 1, 2, 3, 9, 20):
        for n in (1, 7, 300):
            if dtype is np.float64:
                nv = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-6, 6, (k, n))
            elif dtype is object:
                nv = rng.integers(-9, 10, (k, n)).astype(object) * ((1 << 70) + 1)
            else:
                nv = rng.integers(-(1 << 20), 1 << 20, (k, n))
            got, want = spaces._pairs_dp(nv, power), pairs_dp_loop(nv, power)
            assert got.dtype == want.dtype and got.shape == want.shape
            if got.dtype == object:
                assert [type(x) for x in got] == [type(x) for x in want]
                assert got.tolist() == want.tolist(), (k, n)
            else:
                assert got.tobytes() == want.tobytes(), (k, n)


#: the engines whose float batch runs the integer kernel on dyadic vectors
_ROUTED = ["lp:1", "lp:2", "linf", "summing", "summing_dual", "james:chain", "james:pairs",
           "james_x:1", "james_x:2", "bmo", "smax:2"]
_FAC = SpaceFactory.shared(RunConfig())


def _spread_vector(total: int) -> Coeffs:
    """Five entries of alternating sign on a gapped support, their
    magnitudes summing to ``total`` and none past a quarter of it, so that
    the kernel bound S * max(S, 4M) is total^2; the sign pattern that
    aligns them takes every tail sum and s^2 (``smax:2``) to the bound."""
    q = total // 5
    mags = [q, q, q, q, total - 4 * q]
    return Coeffs.from_pairs(zip((1, 2, 4, 7, 8), [(-1) ** k * x for k, x in enumerate(mags)]))


def _dominant_vector(n: int) -> Coeffs:
    """One entry n beside four of magnitude 1, on the gapped support: the
    kernel bound is 4 * n * (n + 4), and a chain's squared steps (0 to n
    and n to -1 and on) pass (n + 4)^2."""
    return Coeffs.from_pairs(zip((1, 2, 4, 7, 8), [1, -1, n, -1, 1]))


def _edge_pair(shape, bound_of, limit: int) -> tuple[Coeffs, Coeffs]:
    """The vectors of ``shape`` whose bounds sit just below and just above
    ``limit``: the largest parameter k with ``bound_of(k) < limit`` (by
    bisection; ``bound_of`` increases), and k + 1."""
    lo, hi = 5, isqrt(limit) + 1  # bound_of(lo) < limit <= bound_of(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound_of(mid) < limit else (lo, mid)
    return shape(lo), shape(hi)


@pytest.mark.parametrize("bits", [15, 31, 63])
@pytest.mark.parametrize("spec", _ROUTED)
def test_integer_kernels_at_the_dtype_edges(spec, bits):
    """Vectors whose kernel bound sits just inside the signed ``bits``-bit
    range take that dtype, and the next ones the next dtype up (Python
    ints past int64); on all of them, spread and with one dominant entry,
    every sign and mask column of the exact batch is the definition's norm
    (numpy would wrap silently).  Below 2^53 the float batch of the signs
    is the float kernel's, bit for bit."""
    space = _FAC.space(spec)
    limit = 1 << bits
    signs, masks = sign_matrix_range(5, 0, 32), mask_matrix_range(5, 0, 32)
    for shape, bound_of in ((_spread_vector, lambda t: t * t),
                            (_dominant_vector, lambda n: 4 * n * (n + 4))):
        for a, bound in zip(_edge_pair(shape, bound_of, limit), (limit - 1, limit)):
            assert _int_entries(a)[0].dtype == int_dtype(bound), a
            for mult in (signs, masks):
                batch = space.mult_batch(a, mult)
                for j in range(mult.shape[1]):
                    x = [(i, F(v) * int(c)) for (i, v), c in zip(a.entries, mult[:, j])]
                    assert QSum.of(batch.value(j)) == QSum.of(definition_norm(spec, x)), (a, j)
            if bits < 53:
                want = space._float_kernel(_float_values(a, signs), a.support)
                assert space.mult_batch_float(a, signs).tobytes() == want.tobytes()


def _float_kernel_of(space, a, mult):
    return space._float_kernel(_float_values(a, mult), a.support)


@settings(max_examples=25, deadline=None)
@given(
    spec=st.sampled_from(_ROUTED),
    data=st.data(),
    m=st.integers(1, 40),
    width=st.sampled_from([1, 2, 7, 64, 600, 4096]),
    masks=st.booleans(),
    shift=st.integers(0, 14),
)
def test_dyadic_float_batches_equal_the_float_kernel(spec, data, m, width, masks, shift):
    """On a rational vector over a power-of-two denominator, on a gapped
    support of up to 40 entries, its numerators shifted by up to 14 bits
    (the kernel bound stays below 2^53), the float batch of
    integer sign or mask columns runs the integer kernel and gives the
    float kernel's floats bit for bit; float64 multipliers run the float
    kernel."""
    space = _FAC.space(spec)
    support = sorted(data.draw(st.sets(st.integers(0, 3 * m), min_size=m, max_size=m)))
    nums = data.draw(st.lists(st.integers(-9, 9).filter(bool), min_size=m, max_size=m))
    dens = data.draw(st.lists(st.sampled_from([1, 2, 4, 8]), min_size=m, max_size=m))
    a = Coeffs.from_pairs((i, F(x << shift, d)) for i, x, d in zip(support, nums, dens))
    build = mask_matrix_range if masks else sign_matrix_range
    mult = build(m, 0, min(1 << m, width)) if m < 20 else sign_matrix(shift, m, width)
    if masks and m >= 20:
        mult = (mult + 1) // 2
    calls = []
    kernel = space._kernel
    try:
        space._kernel = lambda *args: calls.append(1) or kernel(*args)
        got = space.mult_batch_float(a, mult)
        assert calls, (spec, a)
        calls.clear()
        assert space.mult_batch_float(a, mult.astype(np.float64)).tobytes() == got.tobytes()
        assert not calls
    finally:
        del space._kernel
    assert got.tobytes() == _float_kernel_of(space, a, mult).tobytes(), (spec, a)


@pytest.mark.parametrize("spec", _ROUTED)
def test_other_vectors_reach_the_float_kernel(spec, monkeypatch):
    """An odd denominator, a bound of 2^53 or more, a denominator past
    2^511 (squares of its entries would be subnormal floats), a radical or
    float entry, and float multipliers keep the float kernel; a bound just
    below 2^53 and a denominator of 2^511 take the integer one, with the
    float kernel's floats."""
    space = _FAC.space(spec)
    below, past = _edge_pair(_spread_vector, lambda t: t * t, 1 << 53)
    signs = sign_matrix_range(5, 0, 16)
    tiny = [3, -5, 7, 2, -4]
    routed = [below, Coeffs.from_values([1, F(-3, 4), 2, F(1, 2), -5]),
              Coeffs.from_values([F(x, 1 << 511) for x in tiny])]
    others = [past, Coeffs.from_values([1, F(-3, 4), 2, F(1, 3), -5]),
              Coeffs.from_values([F(x, 1 << 512) for x in tiny]),
              Coeffs.from_values([1, 0.75, 2, 0.5, -5])]
    calls = []
    kernel = type(space)._kernel
    monkeypatch.setattr(type(space), "_kernel",
                        lambda self, *args: calls.append(1) or kernel(self, *args))
    for a in routed + others:
        calls.clear()
        got = space.mult_batch_float(a, signs)
        assert bool(calls) == (a in routed), (spec, a)
        assert got.tobytes() == _float_kernel_of(space, a, signs).tobytes(), (spec, a)
    calls.clear()
    space.mult_batch_float(routed[1], signs.astype(np.float64))
    assert not calls


@pytest.mark.parametrize("dtype, top", [(np.int8, 1), (np.int16, 9), (np.int32, 1000)])
def test_chain_dp_blocks_of_narrow_dtypes_equal_the_whole_table(dtype, top):
    """A narrower integer table takes wider column blocks, as many bytes as
    ``_PRODUCT_BLOCK`` 8-byte entries: at widths on both sides of a block
    boundary the chain and pair DPs, at powers 1 and 2, equal the whole
    table in value and dtype (node values up to ``top``, whose chains stay
    inside the dtype)."""
    rng = np.random.default_rng(8)
    rows = 9
    block = spaces._PRODUCT_BLOCK // -(-rows * np.dtype(dtype).itemsize // 8)
    for n in (block - 1, block, block + 1, 2 * block + 3):
        nv = rng.integers(-top, top + 1, size=(rows, n)).astype(dtype)
        for power in (1, 2):
            for dp, pairs in ((spaces._chain_dp, False), (spaces._pairs_dp, True)):
                got, want = dp(nv, power), spaces._chain_table(nv, power, pairs)[-1]
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, power, pairs)
