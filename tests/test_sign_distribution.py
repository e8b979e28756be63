"""Exact sign distributions of the path engines against the chunked walk.

A walk of several chunks on ``lp:1``, ``lp:2``, ``linf``, ``summing``,
``summing_dual``, ``bmo`` and ``smax:2`` reduces the engine's exact norm
distribution (``Space.sign_distribution``) instead of walking.  Its
reductions must equal the walk's: the same values of the same types,
converting to the same floats, and the same first maximiser.
"""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rudlab.rademacher as rad
from rudlab.batches import ExactBatch
from rudlab.coeffs import Coeffs, NoIntegerForm
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import SQRT2
from rudlab.rng import counter_u64

#: the engines with an exact law (``law_walks``), and the walks each takes it for
_HOOKED = ("lp:1", "lp:2", "linf", "summing", "summing_dual", "bmo", "smax:2")
_SUBSET_HOOKED = ("summing",)


def _space(spec):
    return SpaceFactory.shared(RunConfig()).space(spec)


def _walked(fn, space, *args):
    """``fn(space, *args)`` with the engine's law switched off: the walk.
    The law is switched off on the instance, which is where engines whose
    law depends on p set ``law_walks``, and the walk must evaluate at least
    one batch."""
    batches = []
    walk = rad._walk

    def counted(*walk_args):
        for item in walk(*walk_args):
            batches.append(len(item[1]))
            yield item

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "law_walks", ())
        mp.setattr(rad, "_walk", counted)
        out = fn(space, *args)
    assert batches, "the walk evaluated no batch"
    return out


def _identical(x, y) -> bool:
    """Equal exact values of the same type, which convert to the same float."""
    return type(x) is type(y) and x == y and float(x) == float(y)


def _reductions(stats):
    return stats.mean(), stats.mean_sq(), stats.min(), stats.max()


def _assert_same_walk(space, a, masks, label):
    stats_fn = rad.subset_stats if masks else rad.sign_stats
    got, want = stats_fn(space, a), _walked(stats_fn, space, a)
    assert isinstance(got, rad.FoldedStats) and got.scalars is None, label
    for name, x, y in zip(("mean", "mean_sq", "min", "max"), _reductions(got), _reductions(want)):
        assert _identical(x, y), (label, name, x, y)
    assert got.argmax() == want.argmax(), label
    mean_fn = rad.expect_subsets if masks else rad.expect_exact
    assert _identical(mean_fn(space, a).value, _walked(mean_fn, space, a).value), label
    if not masks:
        assert _identical(rad.expect_second_moment(space, a).value,
                          _walked(rad.expect_second_moment, space, a).value), label


_VALUES = st.one_of(st.integers(-3, 3).filter(bool),
                    st.integers(-5, 5).filter(bool).map(lambda k: F(k, 2)))


@pytest.mark.parametrize("spec", _HOOKED)
@settings(max_examples=20, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=16),
       steps=st.lists(st.integers(1, 2), min_size=16, max_size=16),
       chunk_bits=st.integers(1, 8), masks=st.booleans())
@example(values=[1, 1, 5, 5, 5], steps=[1] * 16, chunk_bits=2, masks=False)
@example(values=[1] * 4 + [10, -10], steps=[1] * 16, chunk_bits=1, masks=False)
@example(values=[3, F(-1, 2)] * 8, steps=[1, 2] * 8, chunk_bits=1, masks=True)
@example(values=[1, -1, 1, 1, -1, 1, 1, 1, -1], steps=[1] * 16, chunk_bits=2, masks=False)
def test_distribution_reductions_equal_the_walk(spec, values, steps, chunk_bits, masks):
    """With chunks small enough that the walk spans several (at most 64),
    every hooked engine's reductions from its distribution equal the
    walk's.  Supports have gaps (``summing_dual``'s edge terms).
    ``[1, 1, 5, 5, 5]`` in chunks of 4 has a first chunk whose columns are
    all ``smax:2``'s l2 branch.  Nine entries of magnitude 1 have the
    rational l2 norm 3."""
    space = _space(spec)
    a = Coeffs.from_pairs(zip(itertools.accumulate(steps), values))
    m = len(a)
    total = rad._walk_length(m, masks)
    chunk = max(1 << chunk_bits, total >> 6, 2)
    dist = space.sign_distribution(a, masks)
    assert (dist is not None) == (not masks or spec in _SUBSET_HOOKED)
    if dist is not None:
        batch, counts = dist
        assert batch.roots is None and counts.dtype == np.int64
        assert int(counts.sum()) == 1 << m and (counts > 0).all()
    if total > chunk:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rad, "_CHUNK", chunk)
            _assert_same_walk(space, a, masks, (spec, values, chunk, masks))


def test_smax_mean_float_is_chunk_invariant(monkeypatch):
    """The ``smax:2`` sign mean meets its rational and radical terms in an
    order that depends on the chunk, and the distribution in another; at
    every chunk from 2 to 32, walked or reduced from the distribution, it
    is one value and converts to one float."""
    space = _space("smax:2")
    orders = set()
    for values in ([1, 1, 5, 5, 5], [3, 1, 2, -1, 2, 1]):
        a = Coeffs.from_values(values)
        means = []
        for bits in range(1, 6):
            monkeypatch.setattr(rad, "_CHUNK", 1 << bits)
            means += [rad.sign_stats(space, a).mean(), _walked(rad.sign_stats, space, a).mean()]
        orders |= {tuple(x.terms) for x in means}
        assert all(x == means[0] for x in means), values
        assert len({float(x) for x in means}) == 1, values
    assert any(o[::-1] in orders for o in orders)  # one vector meets both orders


def _bigm_vector(seed, tag, m):
    """A benchmark vector: the palette repeated to length m in a seeded
    order, as the benchmark's ``bigm`` workload builds them."""
    palette = (1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2))
    order = sorted(range(m), key=lambda k: counter_u64(seed, tag, k))
    return Coeffs.from_values([palette[k % len(palette)] for k in order])


_SEED = RunConfig().seed


@pytest.mark.parametrize("spec", ["lp:2", "summing", "summing_dual", "bmo", "smax:2"])
def test_bigm_sign_stats_equal_the_walk(spec):
    """The benchmark's m = 18 sign statistics, at the default chunk."""
    _assert_same_walk(_space(spec), _bigm_vector(_SEED, 1, 18), False, spec)


@pytest.mark.parametrize("spec", ["summing", "bmo"])
def test_bigm_m20_means_equal_the_walk(spec):
    space, a = _space(spec), _bigm_vector(_SEED, 100, 20)
    assert _identical(rad.expect_exact(space, a).value, _walked(rad.expect_exact, space, a).value)


def test_bigm_subset_mean_equals_the_walk():
    space, a = _space("summing"), _bigm_vector(_SEED, 200, 18)
    assert _identical(rad.expect_subsets(space, a).value,
                      _walked(rad.expect_subsets, space, a).value)


@pytest.mark.parametrize("spec", _HOOKED)
@pytest.mark.parametrize("tiny", [F(1, 10007), F(1, (1 << 40) + 3)])
def test_past_the_table_bound_the_walk_runs(spec, tiny, monkeypatch):
    """An entry 1/10007 makes the common denominator, and with it the DP
    table, too large: every DP engine declines and the walk gives the
    stats, while the sign-invariant engines need no table.  At
    1/(2^40 + 3) the batches leave int64 and every engine declines."""
    a = Coeffs.from_values([1, -2, tiny, 3, -1, 2, 1])
    space = _space(spec)
    monkeypatch.setattr(rad, "_CHUNK", 8)
    dist = space.sign_distribution(a, False)
    assert (dist is None) == (tiny.denominator > 10007 or spec not in ("lp:1", "lp:2", "linf"))
    _assert_same_walk(space, a, False, spec)


@pytest.mark.parametrize("spec", ["summing", "bmo", "smax:2"])
def test_running_max_table_bound(spec):
    """The (running maximum, running sum) table of entries summing to S in
    magnitude has (S + 1)(2S + 1) cells: S = 180 fits in 2^16, S = 181
    does not."""
    space = _space(spec)
    assert space.sign_distribution(Coeffs.from_values([90, -90]), False) is not None
    assert space.sign_distribution(Coeffs.from_values([90, -91]), False) is None


@pytest.mark.parametrize("spec", _HOOKED)
def test_radical_entries_take_the_walk(spec, monkeypatch):
    """A radical entry has no integer form: the gate refuses it as the
    walk it would take does, on sign patterns and, where the engine has a
    mask law, on masks."""
    a = Coeffs.from_values([1, SQRT2, -2, 3, F(1, 3), 2])
    space = _space(spec)
    with pytest.raises(NoIntegerForm):
        space.sign_distribution(a, False)
    if spec == "summing":
        with pytest.raises(NoIntegerForm):
            space.sign_distribution(a, True)
    else:
        assert space.sign_distribution(a, True) is None
    monkeypatch.setattr(rad, "_CHUNK", 4)
    with pytest.raises(NoIntegerForm):
        _walked(rad.sign_stats, space, a).mean()
    with pytest.raises(NoIntegerForm):
        rad.sign_stats(space, a).mean()


@pytest.mark.parametrize("spec", _HOOKED)
def test_empty_support_declines_at_the_gate(spec):
    """The empty support has no law to read: every hooked engine declines,
    on sign patterns and on masks, and the walk gives the one pattern's
    norm 0."""
    space = _space(spec)
    for masks in (False, True):
        assert space.sign_distribution(Coeffs.zero(), masks) is None
    for fn in (rad.expect_exact, rad.expect_second_moment, rad.expect_subsets):
        assert _identical(fn(space, Coeffs.zero()).value, F(0))


def test_wide_entries_and_unhooked_engines_decline():
    """Entries whose batches leave int64, and engines without the hook,
    return None; subset walks have a hook on ``summing`` only."""
    wide = Coeffs.from_values([1 << 40, -3, 5])
    small = Coeffs.from_values([1, -2, 3])
    for spec in _HOOKED:
        assert _space(spec).sign_distribution(wide, False) is None
        assert (_space(spec).sign_distribution(small, True) is None) == (spec != "summing")
    for spec in ("james:chain", "norming_set", "walsh", "lp:3", "smax:1.5",
                 "renorm:summing:1"):
        assert _space(spec).sign_distribution(small, False) is None


def test_summing_distribution_counts():
    """[1, 1]: the sign patterns' tail sums (2, 1), (0, -1), (0, 1) and
    (-2, -1) give the summing values 2, 1, 1, 2; the masks of [1, -1] give
    0, 1, 1, 1."""
    batch, counts = _space("summing").sign_distribution(Coeffs.from_values([1, 1]), False)
    assert batch.classes[1].tolist() == [1, 2] and counts.tolist() == [2, 2]
    batch, counts = _space("summing").sign_distribution(Coeffs.from_values([1, -1]), True)
    assert batch.classes[1].tolist() == [0, 1] and counts.tolist() == [1, 3]


#: the engines whose multi-chunk walks must take their distribution
_SPY_CASES = [
    ("sign_stats", "lp:2", 18), ("sign_stats", "summing", 18),
    ("sign_stats", "summing_dual", 18), ("sign_stats", "bmo", 18),
    ("sign_stats", "smax:2", 18), ("expect_exact", "summing", 20),
    ("expect_exact", "bmo", 20), ("expect_subsets", "summing", 18),
]


@pytest.mark.parametrize("op,spec,m", _SPY_CASES)
def test_multi_chunk_walks_call_no_mult_batch(op, spec, m, monkeypatch):
    """A multi-chunk walk of a benchmark vector on a hooked engine never
    evaluates a batch: a silent fallback to the walk would call
    ``mult_batch`` once per chunk.  A one-chunk walk still returns the
    chunk's ExactBatch."""
    space = _space(spec)
    calls = []
    method = type(space).mult_batch
    monkeypatch.setattr(type(space), "mult_batch",
                        lambda self, a, mult: calls.append(mult.shape[1]) or method(self, a, mult))
    a = _bigm_vector(_SEED, 7, m)
    if op == "sign_stats":
        stats = rad.sign_stats(space, a)
        assert isinstance(stats, rad.FoldedStats)
        _ = stats.mean(), stats.mean_sq(), stats.min(), stats.max()
    else:
        getattr(rad, op)(space, a)
    assert calls == []
    small = _bigm_vector(_SEED, 7, 10)
    assert isinstance(rad.sign_stats(space, small), ExactBatch) and calls == [1 << 9]
