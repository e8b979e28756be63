"""Engine kernels: exact integer products through float64 BLAS, and row
scans, against Python-int products and numpy's ``cumsum``."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rudlab import bd, dyadic, spaces
from rudlab.coeffs import Coeffs, mask_matrix_range, sign_matrix_range
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.rng import sign_matrix
from rudlab.spaces import _ROW_SCAN_COLS, _cumsum_rows, _int_mult_values, _int_product

from oracles import norm_slow

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
