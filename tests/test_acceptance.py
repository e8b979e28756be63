"""Acceptance suite: one test per criterion, one verdict line each.

Every criterion runs at its stated tolerance through the same experiment
functions the ``certify`` command uses, so a CLI run reproduces exactly
these checks.  Criterion 2's displayed lower inequality is provably false
for conditional engines (see the decisions ledger for the brute-force
counterexample); it is implemented faithfully and marked as a strict
expected failure, while its true upper half is asserted for every engine
and the lower half for the unconditional ones.
"""

import sys
from contextlib import ExitStack
from fractions import Fraction as F
from unittest import mock

import pytest

import rudlab.rademacher as rademacher
from rudlab.config import RunConfig
from rudlab.exactnum import QSum
from rudlab.experiments import EXPERIMENTS, run_experiment

CFG = RunConfig()
_CACHE: dict[str, object] = {}
#: experiment -> calls of ``rademacher.expect_mc`` in its first run
_MC_CALLS: dict[str, int] = {}


def _report(name: str):
    if name not in _CACHE:
        real = rademacher.expect_mc
        spy = mock.Mock(wraps=real)
        with ExitStack() as stack:
            # every package module that binds the function, so that a call
            # through a name imported from rademacher is counted as well
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "rudlab"]:
                if getattr(mod, "expect_mc", None) is real:
                    stack.enter_context(mock.patch.object(mod, "expect_mc", spy))
            _CACHE[name] = run_experiment(name, CFG)
        _MC_CALLS[name] = spy.call_count
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


# (measured, bound, verdict) of the duality rows decided exactly: the lp
# ratios are exactly 1 and the bounds carry no slack
_DUALITY_ROWS = {
    "duality.lp:1": (1.0, 2.0, "PASS"),
    "duality.lp:2": (1.0, 2.0, "PASS"),
    "duality.linf": (1.0, 2.0, "PASS"),
    "duality.summing": (1.2727272727272727, 12.6875, "PASS"),
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
    "zmr.bound.n=2": (1.254901695296637, 10.388905057061258, "PASS"),
}


def test_zmr_bound_rows_pinned():
    got = {r.rid: (r.measured, r.bound, r.verdict)
           for r in _report("zmr").rows if r.rid in _ZMR_BOUND_ROWS}
    assert got == _ZMR_BOUND_ROWS


def test_zmr_bound_decided_exactly(monkeypatch):
    """An analytic bound 10^-30 below the exact depth-1 sign average fails
    its row: the comparison is exact, with no float slack."""
    import rudlab.mr as mr

    witness = mr.mr_witness

    def tight(n, *args, **kw):
        w = witness(n, *args, **kw)
        if n == 1:
            w.analytic_bound = QSum.of(w.expectation.value) - F(1, 10**30)
        return w

    monkeypatch.setattr(mr, "mr_witness", tight)
    rows = {r.rid: r for r in run_experiment("zmr", CFG).rows}
    assert rows["zmr.bound.n=1"].verdict == "FAIL"
    assert rows["zmr.bound.n=2"].verdict == "PASS"


# The Monte-Carlo rows at the default config: the depth-3 zmr bracket (a
# 1,000,000-sample mean on a 14-entry witness) and the gap string built from it
_MC_ROWS = {
    ("zmr", "zmr.bound.n=3"): (1.577764075482746, 10.52768294287935, "PASS"),
    ("zmr", "zmr.gap_monotone"): "1.1716,1.5938,1.9014",
}


def test_monte_carlo_rows_pinned():
    got = {}
    for name, rid in _MC_ROWS:
        (r,) = [r for r in _report(name).rows if r.rid == rid]
        got[name, rid] = {
            "zmr.bound.n=3": (r.measured, r.bound, r.verdict),
            "zmr.gap_monotone": r.exact,
        }[rid]
    assert got == _MC_ROWS


def test_only_zmr_reaches_monte_carlo():
    """Every experiment's first run goes through ``_report``, which counts
    its calls of ``expect_mc``: only zmr's depth-3 witness samples, so a
    Monte-Carlo row cannot come back elsewhere unnoticed."""
    for name in EXPERIMENTS:
        _report(name)
    assert set(_MC_CALLS) == set(EXPERIMENTS)
    assert {name for name, calls in _MC_CALLS.items() if calls} == {"zmr"}


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
# Monte-Carlo float sums are left out: numpy's summation order may differ
# across CPUs.  zmr is the one left; its exact norm strings are pinned.
_REPORT_DIGESTS = {
    "sandwich": "872d3b2234a51ca55412135286b94b3a9ab735c285afd6d5e5b3b812042be625",
    "subsets": "32c7e53a1676e2dee850c599f4412985088b853e2b2723177672dd8dbeb47a45",
    "parallelogram": "cef2c7b59e5b9afcff3d1d23683edba0495f3983b8b02ae7e5b30aa47a492be1",
    "khintchine-kahane": "2eb5c34edadda34cff5f657e7d88af79866ada17c13e30fe2ab653c6ece2d6a0",
    "contraction": "837a1ba05209d327d03410ebb18b20269b42727dc73fc6c1013a0d852566d55e",
    "summing": "0f88cea6e70ce03513dfa6995a35ac7b39eab251b3bc097be31d47796dc41389",
    "james": "56b8edd448c3d20eaea140732d03d859e774b06eee1ec97c12127c1b07f6cbd9",
    "walsh": "753f97b1e387ba8c7a9517d0f6852392da47bb7ee26761b41afdbd58b587a091",
    "bmo": "69363fa9cd2ff0db0aac1f6bca1da454aedb9bfcf63f07d1706f5d7aa24d2b2b",
    "renorm": "342eec67250e56ce3dd22f73154b491bfe478c45cca33dd9762575cbd9be5aa9",
    "partition": "3f4d12439293233f5b8c278060b794567667b2f14ec42edf12228db8f445d24f",
    "duality": "ea6ada1b70ba3e5d024e42964b3224c30b19a6ac9c843d47167147fcd92ef038",
    "bd": "78674a62b61b16e99dc05a516f99a248f04c211d6722e3efe09e8a3761b3d9b9",
    "zruc": "f660f0a184d6fc66bd7df8ea277c76d86962e88cd520bcf5c782a08a13c89a4f",
    "zrud": "a34c5bcf8bdfedb8e50ec2199bee824331d6583c9d0a8d6dd346f79f1f6fd1f1",
    "haar-blocks": "753fa4c1c690f1106fd72d91ad8b79a301edd19476ae7a29c17008999fd602ef",
    "smax": "d1c201bcab66e0185642f19cd4dba02a3a950366ee871d9b3464cbdf8b70cc6f",
}
# zmr carries a Monte-Carlo sum
_UNPINNED = {"zmr"}


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
    "bd": "6110ef951f98249d46df783c20c602a32477107025073f3c02664c8079985599",
    "partition": "2fbb85d9aa6373998bfbdd7e447fe39695a15a79a4de10a874dab52693e2934b",
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
    another PYTHONHASHSEED (which reorders sets and dicts of strings) and
    another one-threaded OpenBLAS kernel (numpy's OpenBLAS picks its kernel
    per process from OPENBLAS_CORETYPE), hash to their pinned digests.
    duality is among them: its float row once moved with the kernel."""
    import os
    import subprocess
    import sys

    import rudlab

    names = ["parallelogram", "summing", "renorm", "zrud", "smax", "duality"]
    src = os.path.dirname(os.path.dirname(rudlab.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345", OPENBLAS_CORETYPE="Prescott",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _REPLAY, str(tmp_path), *names], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert dict(line.split() for line in out.splitlines()) == {
        name: _REPORT_DIGESTS[name] for name in names}


def test_no_module_calls_numpy_linalg():
    """No module of the package reaches LAPACK through numpy.linalg, whose
    results change in the last bits with the BLAS kernel, so that every
    report replays bit for bit on another kernel."""
    import ast
    import pathlib

    import rudlab

    found = []
    for path in sorted(pathlib.Path(rudlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and (node.module.startswith("numpy.linalg")
                         or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.Import) \
                    and any(a.name.startswith("numpy.linalg") for a in node.names):
                found.append((path.name, node.lineno))
    assert found == []
