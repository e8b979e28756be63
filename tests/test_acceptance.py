"""Acceptance suite: one test per criterion, one verdict line each.

Every criterion runs at its stated tolerance through the same experiment
functions the ``certify`` command uses, so a CLI run reproduces exactly
these checks.  Criterion 2's displayed lower inequality is provably false
for conditional engines (see the decisions ledger for the brute-force
counterexample); it is implemented faithfully and marked as a strict
expected failure, while its true upper half is asserted for every engine
and the lower half for the unconditional ones.
"""

import pytest

from rudlab.config import RunConfig
from rudlab.experiments import EXPERIMENTS, run_experiment

CFG = RunConfig()
_CACHE: dict[str, object] = {}


def _report(name: str):
    if name not in _CACHE:
        _CACHE[name] = run_experiment(name, CFG)
    return _CACHE[name]


def _check(num: int, title: str, report, rows=None) -> None:
    picked = [r for r in report.rows if rows is None or any(r.rid.startswith(p) for p in rows)]
    assert picked, f"no rows matched {rows}"
    failed = [r for r in picked if r.verdict == "FAIL"]
    warned = [r for r in picked if r.verdict == "WARN"]
    verdict = "FAIL" if failed else ("WARN" if warned else "PASS")
    print(f"\nACCEPTANCE {num:02d} {verdict}: {title}")
    for r in picked:
        print("   ", r.line())
    assert not failed, f"criterion {num} failed rows: {[r.rid for r in failed]}"


def test_c01_sandwich():
    _check(1, "sign-average sandwich on every engine, exact, zero tolerance",
           _report("sandwich"))


def test_c02_subsets_upper_half_and_unconditional_lower():
    rep = _report("subsets")
    _check(2, "subset-average comparison: provable parts",
           rep, rows=["subsets.upper"])
    unconditional = [
        f"subsets.lower.{s}" for s in
        ("lp:1", "lp:2", "linf", "walsh", "haar")
    ]
    _check(2, "subset average below sign average on unconditional engines",
           rep, rows=unconditional)


@pytest.mark.xfail(
    strict=True,
    reason="the displayed lower inequality E0 <= E is false for conditional "
    "engines: summing basis, constant coefficients, m = 6 gives E0 = 3 > "
    "E = 85/32 (see the decisions ledger); implemented faithfully, fails honestly",
)
def test_c02_subsets_as_displayed():
    rep = _report("subsets")
    _check(2, "subset-average two-sided comparison exactly as displayed", rep)


def test_c03_parallelogram():
    _check(3, "mean squared Euclidean norm equals the coefficient square sum",
           _report("parallelogram"))


def test_c04_khintchine_kahane():
    _check(4, "second moment bounded by twice the squared mean, every engine",
           _report("khintchine-kahane"))


def test_c05_contraction():
    _check(5, "contraction under {0,+-1/2,+-1} multipliers, exact",
           _report("contraction"))


def test_c06_summing():
    _check(6, "summing norm: root-two/2 sandwich plus both length-16 witnesses",
           _report("summing"),
           rows=["summing.lower", "summing.upper",
                 "summing.ruc_witness", "summing.rud_witness"])


def test_c07_summing_duals():
    _check(7, "dual system: l1 lower bound and twice-mean upper bound, exact",
           _report("summing"), rows=["summing.dual_lower", "summing.dual_upper"])


def test_c08_james():
    _check(8, "chain norms: 2x l2 bound, skipped lower bound, ratio <= 4",
           _report("james"))


def test_c09_walsh():
    _check(9, "product-sign system in L1: max/sign-average/ratio bounds",
           _report("walsh"))


def test_c10_bmo():
    _check(10, "square-function norm: mean <= 3 l2 <= 3 norm, exact",
           _report("bmo"))


def test_c11_renorm():
    _check(11, "renormed convergence ratios <= 1 + delta, exact",
           _report("renorm"))


def test_c12_partition():
    _check(12, "partition bound on l1, tree, and summing instances",
           _report("partition"))


def test_c13_duality():
    _check(13, "dual divergence ratios <= twice the measured primal constant",
           _report("duality"))


# (measured, bound, verdict) of the duality rows that no LAPACK call
# touches; duality.smax:2 goes through np.linalg.pinv and stays unpinned
_DUALITY_ROWS = {
    "duality.lp:1": (1.0, 2.000000001, "PASS"),
    "duality.lp:2": (1.0000000000000044, 2.000000001, "PASS"),
    "duality.linf": (1.0, 2.000000001, "PASS"),
    "duality.summing": (1.2727272727272727, 12.687500001, "PASS"),
    "duality.reverse.summing": (2.0317460317460316, None, "PASS"),
}


def test_duality_rows_pinned():
    got = {r.rid: (r.measured, r.bound, r.verdict)
           for r in _report("duality").rows if r.rid in _DUALITY_ROWS}
    assert got == _DUALITY_ROWS


def test_c14_bd():
    _check(14, "tree construction: biorthogonality, sandwiches, chains, ratio <= 18",
           _report("bd"))


def test_c15_zmr():
    _check(15, "witness gap ratios: norms >= n, strictly increasing, 1.5x growth",
           _report("zmr"))


# (measured, bound, verdict) of the zmr rows whose sign averages are exact
# walks over radical-valued witnesses; zmr has no pinned report digest
_ZMR_BOUND_ROWS = {
    "zmr.bound.n=1": (0.8535533905932737, 10.071067811865476, "PASS"),
    "zmr.bound.n=2": (1.254901695296637, 10.388905057061256, "PASS"),
}


def test_zmr_bound_rows_pinned():
    got = {r.rid: (r.measured, r.bound, r.verdict)
           for r in _report("zmr").rows if r.rid in _ZMR_BOUND_ROWS}
    assert got == _ZMR_BOUND_ROWS


# The Monte-Carlo rows at the default config: the depth-3 zmr bracket (a
# 1,000,000-sample mean on a 14-entry witness), the gap string built from it,
# and the summing ruc witness (100,000 samples on 16 entries)
_MC_ROWS = {
    ("zmr", "zmr.bound.n=3"): (1.577764075482746, 10.52768294287935, "PASS"),
    ("zmr", "zmr.gap_monotone"): "1.1716,1.5938,1.9014",
    ("summing", "summing.ruc_witness"): 4.554792404157647,
}


def test_monte_carlo_rows_pinned():
    got = {}
    for name, rid in _MC_ROWS:
        (r,) = [r for r in _report(name).rows if r.rid == rid]
        got[name, rid] = {
            "zmr.bound.n=3": (r.measured, r.bound, r.verdict),
            "zmr.gap_monotone": r.exact,
            "summing.ruc_witness": r.measured,
        }[rid]
    assert got == _MC_ROWS


def test_c16_zruc():
    _check(16, "convergence-side construction is 2-bounded on the first two levels",
           _report("zruc"))


def test_c17_zrud():
    _check(17, "block sandwich and the 1/rho ratio bound, exact",
           _report("zrud"))


def test_c18_haar_blocks():
    rep = _report("haar-blocks")
    _check(18, "tree-system blocks: divergence ratios reported (warn-only)", rep)


def test_c19_smax():
    _check(19, "summing/l2 maximum: bracket and convergence ratio <= 3",
           _report("smax"))


def test_every_experiment_registered():
    assert set(EXPERIMENTS) >= {
        "summing", "james", "walsh", "bmo", "smax", "renorm", "partition",
        "duality", "zmr", "zruc", "zrud", "bd", "haar-blocks",
        "khintchine-kahane", "contraction", "parallelogram",
    }


# SHA-256 of the ``certify`` report file at the default config, as
# ``rudlab certify <name> --out FILE`` writes it.  Reports carrying
# Monte-Carlo float sums or LAPACK floats are left out: numpy's summation
# order and LAPACK's kernels may differ across CPUs.  zmr is one of them;
# its exact norm strings are pinned.
_REPORT_DIGESTS = {
    "sandwich": "26b65e0f689ed96b3d3611af57113e37b0103717d3cc3d65f3397ef6faa2cc2c",
    "subsets": "6f4ab4be3bb157b3f14e311fa123ac57ab61df0c9846d8fe45fdd669c5680009",
    "parallelogram": "4dd8678dbcf5fac5f986e35db5ed1cdf27577222ee313cd6b2b1706fd5493dda",
    "khintchine-kahane": "7cd1b1c25f37130d4208a249e4c573209f6165e4edadda27a710705cfa76fa35",
    "contraction": "6db442e862ce7673d2797951532448ea83e12955633358719cdc3829c5a73616",
    "james": "3ceaa4ce9bec39ff6ef644c722252a87d9f8ce55f4a8abddcecdb1aadb872ac7",
    "walsh": "0888fe1420cded47a09374e225b9cc06c1351cdb12edf6536c17a32dc022f461",
    "bmo": "3461f906e46163d75aeb975ff54b5acec8dc4072542a4dc27512b9b0ff99e262",
    "renorm": "7cf4279b4dfb15361cd8fdffb47e92f9be15b7df77c45be8ba33db2287425a98",
    "partition": "40b6b2796429b35a33a6279043c56888530f856bb3890ecfa2beda6575353567",
    "bd": "d1103dd94bc2a563b6fda27a123b7135144716db080792099c555e5e02605cd6",
    "zruc": "8e69369f4c20e487b30fe802f869781e0301ce9c91e7e614eb35b13154285350",
    "zrud": "6ac7a6268a0c42a9ca60e6ea8f756e65d929f9746f8113c970d5f6e9810d4161",
    "haar-blocks": "7f715b9e24a38c4dfd479de74bd41e5e98a971c825c02ee556bd67e743542a4f",
    "smax": "3fab54bfefec3810c8b37bf4bc560b2764e4b3cc6a2178a4c8465aff7dae2216",
}
# summing and zmr carry Monte-Carlo sums, duality LAPACK floats
_UNPINNED = {"summing", "zmr", "duality"}


def test_every_report_pinned_or_listed_unpinned():
    assert not _UNPINNED & set(_REPORT_DIGESTS)
    assert set(EXPERIMENTS) == set(_REPORT_DIGESTS) | _UNPINNED


def test_report_bytes_pinned(tmp_path):
    import hashlib

    from rudlab.cli import _report_payload, _write_report

    for name, digest in _REPORT_DIGESTS.items():
        path = tmp_path / f"{name}.json"
        _write_report(str(path), _report_payload(name, CFG, _report(name)), CFG.format)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name
    exact = {r.rid: r.exact for r in _report("zmr").rows if r.rid.startswith("zmr.norm.")}
    assert exact == {"zmr.norm.n=1": "1", "zmr.norm.n=2": "2", "zmr.norm.n=3": "3"}


# The same reports at ``bd.levels=5``, the benchmark's codings config: the
# two reports read from the bd tree, so they pin its deeper build as well.
_LEVELS5_DIGESTS = {
    "bd": "624a6656a7b915bf6280129d1cc45fc130e8851dac22732d88851c7921f9f93c",
    "partition": "5840fe4648a39a11627a63a6417197e0894ef4c1a216af2011c39ef3767a8933",
}


def test_levels5_tree_reports_pinned(tmp_path):
    import hashlib

    from rudlab.cli import _report_payload, _write_report

    cfg = RunConfig().with_overrides({"bd.levels": "5"})
    for name, digest in _LEVELS5_DIGESTS.items():
        path = tmp_path / f"{name}.json"
        _write_report(str(path), _report_payload(name, cfg, run_experiment(name, cfg)), cfg.format)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


_REPLAY = """
import hashlib, sys
from rudlab.cli import _report_payload, _write_report
from rudlab.config import RunConfig
from rudlab.experiments import run_experiment
cfg = RunConfig()
for name in sys.argv[2:]:
    path = f"{sys.argv[1]}/{name}.json"
    _write_report(path, _report_payload(name, cfg, run_experiment(name, cfg)), cfg.format)
    with open(path, "rb") as fh:
        print(name, hashlib.sha256(fh.read()).hexdigest())
"""


def test_pinned_reports_replay_under_another_hash_seed(tmp_path):
    """The cheapest pinned reports, written by a fresh process under
    another PYTHONHASHSEED (which reorders sets and dicts of strings), hash
    to their pinned digests."""
    import os
    import subprocess
    import sys

    import rudlab

    names = ["parallelogram", "renorm", "zrud", "smax"]
    src = os.path.dirname(os.path.dirname(rudlab.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _REPLAY, str(tmp_path), *names], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert dict(line.split() for line in out.splitlines()) == {
        name: _REPORT_DIGESTS[name] for name in names}
