"""The three workloads, as run inside one fresh benchmark process.

Each workload is driven through rudlab's public entry points only
(``run_experiment``, ``sign_stats``/``subset_stats``,
``expect_exact``/``expect_subsets``/``expect_mc`` and ``SpaceFactory``).
Entry points are looked up on their modules at call time, so a traced
process sees the tracer's wrappers.

* ``sweep``: the ``sandwich`` and ``subsets`` experiments at the default
  config, as ``rudlab certify`` runs them.  Thousands of small exact
  batches (m <= 12) over all 19 sweep engines: per-call overhead, tie
  certification and ``QSum.sign`` dominate; no Monte-Carlo runs.  Both experiments draw identical vectors, so reuse
  across experiments shows here.  (``khintchine-kahane``, which draws the
  same vectors again, is left out to keep a run short enough.)
* ``bigm``: few huge batches.  An exact phase (full sign batches at m = 18,
  chunked sign and subset averages at m = 20 and m = 18) and a Monte-Carlo
  phase at m = 40, which bypasses ``ExactBatch`` and ``QSum`` entirely.
* ``codings``: ``bd.levels=5``; set-up builds the Gamma tree and the coding
  spaces, and the run is the ``bd``, ``zmr``, ``zruc`` and ``zrud``
  experiments, so the construction layers do most of the work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

#: ``rudlab.experiments.SWEEP_SPECS``, copied so that the metric catalogue
#: can name the engines without importing rudlab; set-up builds the sweep's
#: engines from rudlab's own list, and the self-test checks that the two
#: are equal
SWEEP_SPECS = (
    "lp:1", "lp:2", "linf", "summing", "summing_dual",
    "james:chain", "james:pairs", "james_x:1", "james_x:2",
    "bmo", "walsh", "haar", "smax:2", "renorm:summing:1",
    "norming_set", "zmr", "zruc", "zrud", "bd",
)
SWEEP_EXPERIMENTS = ("sandwich", "subsets")
CODINGS_SPECS = ("bd", "zmr", "zruc", "zrud")
CODINGS_EXPERIMENTS = ("bd", "zmr", "zruc", "zrud")

BIGM_STATS_M = 18
BIGM_STATS_SPECS = ("lp:2", "summing", "summing_dual", "james:chain", "bmo",
                    "smax:2", "norming_set")
BIGM_CHUNKED_M = 20
BIGM_CHUNKED_SPECS = ("summing", "james:chain", "bmo")
BIGM_SUBSETS_M = 18
BIGM_SUBSETS_SPECS = ("summing", "james:chain")
BIGM_MC_M = 40
BIGM_MC_SAMPLES = 100_000
BIGM_MC_SPECS = ("lp:2", "summing", "james:chain", "smax:2", "norming_set", "bmo")
BIGM_SPECS = tuple(dict.fromkeys(BIGM_STATS_SPECS + BIGM_CHUNKED_SPECS
                                 + BIGM_SUBSETS_SPECS + BIGM_MC_SPECS))

#: logical sign/mask patterns the bigm exact phase resolves
BIGM_PATTERNS = (len(BIGM_STATS_SPECS) * 2**BIGM_STATS_M
                 + len(BIGM_CHUNKED_SPECS) * 2**BIGM_CHUNKED_M
                 + len(BIGM_SUBSETS_SPECS) * 2**BIGM_SUBSETS_M)

#: ``seeded``: whether the benchmark seed picks ``RunConfig.seed``.  The
#: sweep keeps the default config, seed included: its cost moves by about
#: +-10% from one config seed to the next, more than a comparison of two
#: commits can tolerate, while bigm's and codings' costs barely move.
WORKLOADS = {
    "sweep": {"overrides": {}, "specs": None, "seeded": False},
    "bigm": {"overrides": {}, "specs": BIGM_SPECS, "seeded": True},
    "codings": {"overrides": {"bd.levels": "5"}, "specs": CODINGS_SPECS, "seeded": True},
}

#: the config seeds a benchmark seed picks from, by ``seed % 10``: the
#: default, a held-out one and eight more.  ``expected.json`` holds the
#: outputs of each, so every benchmark seed's outputs are compared.
CONFIG_SEEDS = (0xC0FFEE, 271828, 1, 2, 3, 4, 5, 6, 7, 8)

#: report rows that fail by design: the displayed lower half of the
#: subset-average comparison is provably false for conditional engines
EXPECTED_FAIL_PREFIX = "subsets.lower."

_PALETTE = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))
_MC_RTOL = 1e-9


def setup(workload: str, seed: int):
    """Config, factory and every engine the workload uses, by spec.  The
    caller times this from before the first ``import rudlab``."""
    import rudlab
    from rudlab.config import RunConfig, SpaceFactory

    if workload != "bigm":
        import rudlab.experiments
    spec = WORKLOADS[workload]
    overrides = dict(spec["overrides"])
    if spec["seeded"]:
        overrides["seed"] = str(CONFIG_SEEDS[seed % len(CONFIG_SEEDS)])
    cfg = RunConfig().with_overrides(overrides)
    fac = SpaceFactory.shared(cfg)
    specs = rudlab.experiments.SWEEP_SPECS if workload == "sweep" else spec["specs"]
    return cfg, fac, {s: fac.space(s) for s in specs}


def run(workload: str, cfg, fac) -> dict:
    """The timed phase.  Returns phase timings, the raw outputs and the
    logical work counts; nothing is checked here."""
    if workload == "bigm":
        return _run_bigm(cfg, fac)
    names = SWEEP_EXPERIMENTS if workload == "sweep" else CODINGS_EXPERIMENTS
    return _run_reports(names, cfg)


def _run_reports(names, cfg) -> dict:
    from rudlab import experiments

    reports = []
    t0 = perf_counter()
    for name in names:
        try:
            reports.append((name, experiments.run_experiment(name, cfg), None))
        except Exception as exc:  # an operation that raised is a failure
            reports.append((name, None, f"{type(exc).__name__}: {exc}"))
    t1 = perf_counter()
    return {"phases": {"run_s": t1 - t0}, "reports": reports}


def bigm_vector(seed: int, tag: int, m: int):
    """The palette repeated to length m, in a seeded order.  Every seed
    gets the same multiset of values, so the work (how many near-ties need
    exact certification) varies little from seed to seed."""
    from rudlab import Coeffs
    from rudlab.rng import counter_u64

    order = sorted(range(m), key=lambda k: counter_u64(seed, tag, k))
    return Coeffs.from_values([_PALETTE[k % len(_PALETTE)] for k in order])


def _attempt(fn):
    try:
        return fn(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_bigm(cfg, fac) -> dict:
    from rudlab import rademacher

    seed = cfg.seed
    stats = [(s, bigm_vector(seed, j, BIGM_STATS_M))
             for j, s in enumerate(BIGM_STATS_SPECS)]
    chunked = [(s, bigm_vector(seed, 100 + j, BIGM_CHUNKED_M))
               for j, s in enumerate(BIGM_CHUNKED_SPECS)]
    subsets = [(s, bigm_vector(seed, 200 + j, BIGM_SUBSETS_M))
               for j, s in enumerate(BIGM_SUBSETS_SPECS)]
    mc = [(s, bigm_vector(seed, 300 + j, BIGM_MC_M))
          for j, s in enumerate(BIGM_MC_SPECS)]

    def full_stats(space, a):
        st = rademacher.sign_stats(space, a, cfg.cap)
        return st.mean(), st.mean_sq(), st.min(), st.max()

    out = []
    t0 = perf_counter()
    for s, a in stats:
        out.append((f"sign_stats.{s}", a, _attempt(lambda: full_stats(fac.space(s), a))))
    for s, a in chunked:
        out.append((f"expect_exact.{s}", a, _attempt(
            lambda: rademacher.expect_exact(fac.space(s), a, cfg.cap))))
    for s, a in subsets:
        out.append((f"expect_subsets.{s}", a, _attempt(
            lambda: rademacher.expect_subsets(fac.space(s), a, cfg.cap))))
    t1 = perf_counter()
    for s, a in mc:
        out.append((f"expect_mc.{s}", a, _attempt(
            lambda: rademacher.expect_mc(fac.space(s), a, BIGM_MC_SAMPLES,
                                         seed=cfg.seed, confidence=cfg.confidence))))
    t2 = perf_counter()
    return {
        "phases": {"run_s": t2 - t0, "exact_s": t1 - t0, "mc_s": t2 - t1},
        "bigm": out,
        "patterns": BIGM_PATTERNS,
        "mc_samples": len(mc) * BIGM_MC_SAMPLES,
    }


# ---------------------------------------------------------------------------
# outputs in canonical form, with the checks that need no recorded values
# ---------------------------------------------------------------------------


def report_payload(name: str, cfg, report) -> dict:
    """The payload ``rudlab certify --out`` writes for a report."""
    return {
        "schema": "rudlab/1",
        "experiment": name,
        "config": cfg.to_dict(),
        "passed": report.passed,
        "warned": report.warned,
        "rows": [
            {"id": r.rid, "statement": r.statement, "measured": r.measured,
             "bound": r.bound, "verdict": r.verdict, "exact": r.exact}
            for r in report.rows
        ],
        "curves": report.curves,
    }


def outputs(workload: str, cfg, result: dict) -> tuple[list[dict], dict]:
    """One record per operation, and a SHA-256 per report payload.

    An operation is one report row on ``sweep``/``codings`` and one
    enumeration or Monte-Carlo estimate on ``bigm``.  ``ok`` holds the
    checks that need no recorded expectation.
    """
    import hashlib
    import json

    if workload == "bigm":
        return [_bigm_record(op, a, value, err) for op, a, (value, err) in result["bigm"]], {}
    ops, digests = [], {}
    for name, report, err in result["reports"]:
        if err is not None:
            ops.append({"id": f"{name}.*", "error": err, "ok": False})
            continue
        text = json.dumps(report_payload(name, cfg, report), sort_keys=True, indent=1)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        for r in report.rows:
            ops.append({
                "id": r.rid,
                "value": [r.verdict, r.exact],
                "ok": r.verdict == "PASS" or r.rid.startswith(EXPECTED_FAIL_PREFIX),
            })
    return ops, digests


def exact_repr(x) -> str:
    """Canonical exact form of a value in Q extended by square roots: every
    radicand square-free, so equal values give equal strings.  Forms longer
    than 200 characters are replaced by their SHA-256."""
    import hashlib

    from rudlab.exactnum import QSum
    from sympy import factorint

    terms: dict[int, Fraction] = {}
    for core, q in QSum.of(x).terms.items():
        outer = rem = 1
        for p, e in factorint(core).items():
            outer *= p ** (e // 2)
            rem *= p ** (e % 2)
        terms[rem] = terms.get(rem, Fraction(0)) + q * outer
    text = " + ".join(f"{q}" if c == 1 else f"{q}*sqrt({c})"
                      for c, q in sorted(terms.items()) if q) or "0"
    if len(text) > 200:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def _bigm_record(op: str, a, value, err) -> dict:
    from rudlab.exactnum import QSum, sqrt_exact

    if err is not None:
        return {"id": op, "error": err, "ok": False}
    ssq = sum((Fraction(v) ** 2 for _, v in a.entries), Fraction(0))
    kind, spec = op.split(".", 1)
    if kind == "sign_stats":
        mean, mean_sq, lo, hi = (QSum.of(x) for x in value)
        ok = (lo <= mean <= hi) and mean_sq >= mean * mean
        if spec == "lp:2":  # sign-invariant: every pattern has the l2 norm
            l2 = sqrt_exact(ssq)
            ok = ok and lo == l2 and hi == l2 and mean_sq == ssq
        return {"id": op, "value": "|".join(exact_repr(x) for x in value), "ok": ok}
    if kind in ("expect_exact", "expect_subsets"):
        return {"id": op, "value": exact_repr(value.value), "ok": QSum.of(value.value).sign() > 0}
    lo, hi = (float(x) for x in value.bracket)
    v = float(value.value)
    ok = math.isfinite(v) and v > 0 and lo <= v <= hi
    if spec == "lp:2":
        ok = ok and abs(v - float(sqrt_exact(ssq))) <= _MC_RTOL * v
    return {"id": op, "value": repr(v), "bracket": [lo, hi], "ok": ok}


def matches(op: dict, expected) -> bool:
    """Compare an operation with its recorded expectation: exact values
    and report rows must match exactly; a Monte-Carlo estimate must fall in
    the recorded bracket, widened by a relative 1e-9 for float rounding."""
    if op.get("error") is not None:
        return False
    if "bracket" in op:
        lo, hi = expected["bracket"]
        v = float(op["value"])
        slack = _MC_RTOL * abs(v)
        return lo - slack <= v <= hi + slack
    return op["value"] == expected["value"]
