"""The sweep driver: seeded samples and the per-run sign-mean memo."""

from fractions import Fraction as F

import pytest

from rudlab import experiments
from rudlab.cli import _report_payload
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.experiments import SWEEP_SPECS, _PALETTE, _SignView, run_experiment, sample_vector
from rudlab.rademacher import sign_stats
from rudlab.rng import counter_u64, derive_seed


def _sample_vector_sorted(space, seed, i, max_m=12):
    """``sample_vector`` with its support order taken by a Python sort on
    one ``counter_u64`` key per index."""
    universe = space.sweep_indices if space.sweep_indices is not None else tuple(range(48))
    mm = min(max_m, space.sweep_max_m, len(universe))
    m = 1 + counter_u64(seed, i, 0) % mm
    order = sorted(range(len(universe)), key=lambda k: counter_u64(seed, i, 100 + k))
    support = sorted(universe[k] for k in order[:m])
    return Coeffs.from_pairs(
        (idx, _PALETTE[counter_u64(seed, i, 200 + slot) % len(_PALETTE)])
        for slot, idx in enumerate(support))


def test_sample_vector_matches_the_scalar_sort():
    fac = SpaceFactory(RunConfig())
    for spec in SWEEP_SPECS:
        space = fac.space(spec)
        for seed in (1, (1 << 63) + 5, (1 << 64) - 1, 0xC0FFEE):
            for i in range(60):
                got = sample_vector(space, seed, i)
                want = _sample_vector_sorted(space, seed, i)
                assert got.entries == want.entries, (spec, seed, i)
                assert all(type(idx) is int for idx, _ in got.entries)


def _same(x, y):
    return type(x) is type(y) and (QSum.of(x) - QSum.of(y)).sign() == 0


@pytest.mark.parametrize("spec", ["lp:2", "summing", "renorm:summing:1", "zmr", "zrud"])
def test_sign_view_matches_the_batch(spec):
    cfg = RunConfig()
    space = SpaceFactory(cfg).space(spec)
    seed = derive_seed(cfg.seed, len(spec), sum(map(ord, spec)))
    memo = {}
    for i in range(6):
        a = sample_vector(space, seed, i)
        want = sign_stats(space, a, cfg.cap)
        view = _SignView(space, a, cfg.cap, memo, i)
        assert _same(view.mean(), want.mean())
        assert _same(view.min(), want.min())
        assert _same(view.max(), want.max())
        assert _same(view.mean_sq(), want.mean_sq())
        # a second view reads the memo and agrees
        assert _same(_SignView(space, a, cfg.cap, memo, i).mean(), want.mean())
    assert sorted(memo) == list(range(6))
    assert all(type(k) is int and isinstance(v, (int, F, QSum)) for k, v in memo.items())


def test_memoised_sweeps_give_the_same_reports(monkeypatch):
    """Run on one factory after ``sandwich`` and ``subsets``, ``subsets``
    walks no sign pattern and ``khintchine-kahane`` reports exactly what it
    reports alone on a fresh factory."""
    specs = ["lp:1", "summing", "renorm:summing:1", "zmr"]
    monkeypatch.setattr(experiments, "SWEEP_SPECS", specs)
    monkeypatch.setattr(SpaceFactory, "_shared", {})
    cfg = RunConfig().with_overrides({"seed": "4242"})
    walks = 0
    walk = experiments.sign_stats

    def counting(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(experiments, "sign_stats", counting)
    run_experiment("sandwich", cfg)
    assert walks == 4 * 200
    run_experiment("subsets", cfg)
    assert walks == 4 * 200
    after = run_experiment("khintchine-kahane", cfg)
    memo = SpaceFactory.shared(cfg).sweep_means
    assert sorted(memo) == sorted(specs)
    assert all(sorted(m) == list(range(200)) for m in memo.values())

    monkeypatch.setattr(SpaceFactory, "_shared", {})
    alone = run_experiment("khintchine-kahane", cfg)
    name = "khintchine-kahane"
    assert _report_payload(name, cfg, after) == _report_payload(name, cfg, alone)
