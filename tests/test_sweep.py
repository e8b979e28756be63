"""The sweep driver: seeded samples and the per-run sign-mean memo."""

import json
from fractions import Fraction as F

import pytest

from rudlab import experiments
from rudlab.cli import _report_payload, main
from rudlab.coeffs import Coeffs
from rudlab.config import RunConfig, SpaceFactory
from rudlab.exactnum import QSum
from rudlab.experiments import SWEEP_SPECS, _PALETTE, _SignView, run_experiment, sample_vector
from rudlab.rademacher import sign_stats, subset_stats
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


def test_vectors_are_the_samples_drawn_one_by_one():
    """``_vectors`` draws all its samples in one pass, and each is the
    ``sample_vector`` of its index and the scalar sort's vector: the same
    indices and values, of the same types."""
    fac = SpaceFactory(RunConfig())
    for spec in SWEEP_SPECS:
        space = fac.space(spec)
        for seed in (1, (1 << 63) + 5, (1 << 64) - 1, 0xC0FFEE):
            for max_m in (12, 5):
                got = experiments._vectors(space, seed, 60, max_m)
                for i, a in enumerate(got):
                    want = _sample_vector_sorted(space, seed, i, max_m)
                    one = sample_vector(space, seed, i, max_m)
                    assert a.entries == one.entries == want.entries, (spec, seed, i)
                    assert [tuple(map(type, e)) for e in a.entries] == \
                        [tuple(map(type, e)) for e in want.entries]


def _same(x, y):
    return type(x) is type(y) and (QSum.of(x) - QSum.of(y)).sign() == 0


@pytest.mark.parametrize("spec", ["lp:2", "summing", "renorm:summing:1", "zmr", "zrud"])
def test_sign_view_matches_the_batch(spec):
    cfg = RunConfig()
    space = SpaceFactory(cfg).space(spec)
    seed = derive_seed(cfg.seed, len(spec), sum(map(ord, spec)))
    memo, subset_memo = {}, {}
    for i in range(6):
        a = sample_vector(space, seed, i)
        want = sign_stats(space, a, cfg.cap)
        view = _SignView(space, a, cfg.cap, memo, subset_memo, i, True)
        assert _same(view.mean(), want.mean())
        assert _same(view.min(), want.min())
        assert _same(view.max(), want.max())
        assert _same(view.mean_sq(), want.mean_sq())
        assert _same(view.subset_mean(), subset_stats(space, a, cfg.cap).mean())
        # a second view reads the memos and agrees
        again = _SignView(space, a, cfg.cap, memo, subset_memo, i, True)
        assert _same(again.mean(), want.mean())
        assert _same(again.subset_mean(), view.subset_mean())
    for m in (memo, subset_memo):
        assert sorted(m) == list(range(6))
        assert all(type(k) is int and isinstance(v, (int, F, QSum)) for k, v in m.items())


def _spy_walks(monkeypatch) -> dict[str, int]:
    """Counts of the sweep driver's calls of each walk, kept up to date."""
    walks = {"pair_stats": 0, "sign_stats": 0, "subset_stats": 0}
    for name in walks:
        def counting(*args, name=name, walk=getattr(experiments, name)):
            walks[name] += 1
            return walk(*args)

        monkeypatch.setattr(experiments, name, counting)
    return walks


def test_sign_view_walks_only_what_the_run_reads(monkeypatch):
    """Without ``pair`` a view walks the signs alone for the sign
    statistics and the masks alone for the subset mean; with it, a subset
    mean wanted after the sign mean is memoised is the mask walk alone."""
    cfg = RunConfig()
    space = SpaceFactory(cfg).space("summing")
    seed = derive_seed(cfg.seed, 7, 7)
    a, b = sample_vector(space, seed, 0), sample_vector(space, seed, 1)
    walks = _spy_walks(monkeypatch)
    memo, subset_memo = {}, {}
    view = _SignView(space, a, cfg.cap, memo, subset_memo, 0, False)
    assert _same(view.max(), sign_stats(space, a, cfg.cap).max())
    assert _same(view.mean(), sign_stats(space, a, cfg.cap).mean())
    assert _same(view.subset_mean(), subset_stats(space, a, cfg.cap).mean())
    assert walks == {"pair_stats": 0, "sign_stats": 1, "subset_stats": 1}
    memo[1] = sign_stats(space, b, cfg.cap).mean()
    view = _SignView(space, b, cfg.cap, memo, subset_memo, 1, True)
    assert _same(view.subset_mean(), subset_stats(space, b, cfg.cap).mean())
    assert walks == {"pair_stats": 0, "sign_stats": 1, "subset_stats": 2}
    assert sorted(subset_memo) == [0, 1]


def test_certify_takes_the_pair_walk_only_when_subsets_runs(tmp_path, monkeypatch, capsys):
    """``rudlab certify`` tells the factory whether ``subsets`` is among its
    experiments: ``sandwich`` or ``khintchine-kahane`` alone walks the
    signs alone, ``subsets`` takes one pair walk per vector, and the
    reports are those of the library runs, which take the pair walks."""
    specs = ["lp:1", "summing", "renorm:summing:1"]
    monkeypatch.setattr(experiments, "SWEEP_SPECS", specs)
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig()
    for name, want in [("sandwich", (0, 3 * 200)), ("khintchine-kahane", (0, 3 * 200)),
                       ("subsets", (3 * 200, 0))]:
        monkeypatch.setattr(SpaceFactory, "_shared", {})
        walks = _spy_walks(monkeypatch)
        assert main(["certify", name]) in (0, 1)
        capsys.readouterr()
        assert (walks["pair_stats"], walks["sign_stats"], walks["subset_stats"]) == (*want, 0)
        with open(f"report-{name}.json") as fh:
            got = json.load(fh)
        monkeypatch.setattr(SpaceFactory, "_shared", {})
        assert SpaceFactory.shared(cfg).subsets_pending is None
        assert json.loads(json.dumps(_report_payload(name, cfg, run_experiment(name, cfg)))) == got


def test_memoised_sweeps_give_the_same_reports(monkeypatch):
    """Run on one factory, ``sandwich`` takes one pair walk per vector,
    ``subsets`` then walks nothing, and ``khintchine-kahane`` reports
    exactly what it reports alone on a fresh factory."""
    specs = ["lp:1", "summing", "renorm:summing:1", "zmr"]
    monkeypatch.setattr(experiments, "SWEEP_SPECS", specs)
    monkeypatch.setattr(SpaceFactory, "_shared", {})
    cfg = RunConfig().with_overrides({"seed": "4242"})
    walks = _spy_walks(monkeypatch)
    run_experiment("sandwich", cfg)
    assert walks == {"pair_stats": 4 * 200, "sign_stats": 0, "subset_stats": 0}
    run_experiment("subsets", cfg)
    assert walks == {"pair_stats": 4 * 200, "sign_stats": 0, "subset_stats": 0}
    after = run_experiment("khintchine-kahane", cfg)
    fac = SpaceFactory.shared(cfg)
    for memo in (fac.sweep_means, fac.sweep_subset_means):
        assert sorted(memo) == sorted(specs)
        assert all(sorted(m) == list(range(200)) for m in memo.values())

    monkeypatch.setattr(SpaceFactory, "_shared", {})
    alone = run_experiment("khintchine-kahane", cfg)
    name = "khintchine-kahane"
    assert _report_payload(name, cfg, after) == _report_payload(name, cfg, alone)
