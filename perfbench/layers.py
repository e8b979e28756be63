"""Per-layer metrics of a traced run, and the workloads each should move.

``CATALOGUE`` is the single list of per-layer metrics: ``BENCHMARK.json``'s
``per_layer`` section must name exactly these, and the self-test checks that
each one is non-zero on every workload in its ``on`` set.  ``.calls`` is a
span count and ``.self_s`` a span's self time; ``engine.<spec>`` writes the
spec with ``:`` turned into ``_``.
"""

from __future__ import annotations

from spans import metric_name
from workloads import BIGM_MC_SPECS, CODINGS_EXPERIMENTS, SWEEP_EXPERIMENTS, SWEEP_SPECS

ALL = ("sweep", "bigm", "codings")
SC = ("sweep", "codings")


def _entry(name, unit, better, on, moves):
    return {"name": name, "unit": unit, "better": better, "on": on, "moves": moves}


def _catalogue() -> list[dict]:
    out = [
        _entry("config.space.calls", "count", "lower", ALL, "setup_s, all workloads"),
        _entry("config.space.self_s", "s", "lower", ALL, "setup_s, all workloads"),
        _entry("bd.build_gamma.self_s", "s", "lower", SC,
               "setup_s on codings (most) and sweep (levels 4)"),
        _entry("bd.bd_rud_report.self_s", "s", "lower", ("codings",), "run_s on codings"),
        _entry("bd.chain_witness.self_s", "s", "lower", ("codings",), "run_s on codings"),
        _entry("mr.MrContext.self_s", "s", "lower", SC, "setup_s on codings and sweep"),
        _entry("mr.zmr_functionals.self_s", "s", "lower", SC, "run_s on codings and sweep"),
        _entry("mr.zrud_functionals.self_s", "s", "lower", SC, "run_s on codings and sweep"),
        _entry("mr.mr_witness.self_s", "s", "lower", ("codings",), "run_s on codings"),
        _entry("spaces.class_mats.calls", "count", "lower", ALL, "run_s on sweep and codings"),
        _entry("spaces.functional_class_matrices.self_s", "s", "lower", ALL,
               "run_s on sweep and codings"),
        _entry("spaces.class_mats.hit_ratio", "ratio", "higher", SC,
               "run_s on sweep and codings"),
    ]
    for spec in SWEEP_SPECS:
        e = f"engine.{metric_name(spec)}.mult_batch"
        out.append(_entry(e + ".self_s", "s", "lower", ("sweep",),
                          "run_s on sweep; patterns_per_s on bigm"))
        out.append(_entry(e + ".cols", "count", "lower", ("sweep",),
                          "run_s on sweep; patterns_per_s on bigm"))
    for spec in BIGM_MC_SPECS:
        out.append(_entry(f"engine.{metric_name(spec)}.mult_batch_float.self_s", "s",
                          "lower", ("bigm",), "mc_samples_per_s on bigm"))
    out += [
        _entry("coeffs.pattern_matrix.self_s", "s", "lower", ALL,
               "peak_rss_mb and patterns_per_s on bigm"),
        _entry("coeffs.pattern_matrix.bytes", "B", "lower", ALL,
               "peak_rss_mb and patterns_per_s on bigm"),
        _entry("batches.mean.self_s", "s", "lower", ALL, "run_s on sweep; patterns_per_s on bigm"),
        _entry("batches.mean_sq.self_s", "s", "lower", ("bigm",), "patterns_per_s on bigm"),
        _entry("batches.extreme.calls", "count", "lower", ("sweep", "bigm"),
               "run_s on sweep; patterns_per_s on bigm"),
        _entry("batches.extreme.self_s", "s", "lower", ("sweep", "bigm"),
               "run_s on sweep; patterns_per_s on bigm"),
        _entry("batches.scalar_path_ratio", "ratio", "lower", ("sweep",),
               "run_s on sweep; patterns_per_s on bigm"),
        _entry("exactnum.QSum.sign.calls", "count", "lower", ALL,
               "run_s on sweep; patterns_per_s on bigm"),
        _entry("exactnum.QSum.sign.self_s", "s", "lower", ALL,
               "run_s on sweep; patterns_per_s on bigm"),
        _entry("rademacher.sign_stats.calls", "count", "lower", ALL,
               "run_s on sweep; both throughputs on bigm"),
        _entry("rademacher.sign_stats.self_s", "s", "lower", ALL,
               "run_s on sweep; both throughputs on bigm"),
        _entry("rademacher.subset_stats.calls", "count", "lower", ("sweep",), "run_s on sweep"),
        _entry("rademacher.subset_stats.self_s", "s", "lower", ("sweep",), "run_s on sweep"),
        _entry("rademacher.expect_exact.self_s", "s", "lower", ("bigm", "codings"),
               "patterns_per_s on bigm"),
        _entry("rademacher.expect_subsets.self_s", "s", "lower", ("bigm",),
               "patterns_per_s on bigm"),
        _entry("rademacher.expect_mc.self_s", "s", "lower", ("bigm",),
               "mc_samples_per_s on bigm"),
        _entry("rng.sign_matrix.self_s", "s", "lower", ("bigm", "codings"),
               "mc_samples_per_s on bigm; run_s on codings"),
    ]
    for name in SWEEP_EXPERIMENTS:
        out.append(_entry(f"experiments.{name}.s", "s", "lower", ("sweep",), "run_s on sweep"))
    for name in CODINGS_EXPERIMENTS:
        out.append(_entry(f"experiments.{name}.s", "s", "lower", ("codings",),
                          "run_s on codings"))
    out.append(_entry("trace.run_s", "s", "lower", ALL,
                      "run_s of the traced process, for the tracing overhead"))
    return out


CATALOGUE = _catalogue()


def layer_metrics(tracer) -> dict[str, float]:
    """Every catalogue metric that the trace itself yields (all but
    ``trace.run_s``); a span that never fired reads 0."""
    counts = tracer.counts
    fields = {"calls": 0, "total_s": 1, "self_s": 2}

    def span(name, key):
        rec = tracer.spans.get(name)
        return rec[fields[key]] if rec else 0

    out: dict[str, float] = {}
    for entry in CATALOGUE:
        name = entry["name"]
        if name == "trace.run_s":
            continue
        head, _, field = name.rpartition(".")
        if name == "spaces.class_mats.hit_ratio":
            calls = span("spaces.class_mats", "calls")
            builds = span("spaces.functional_class_matrices", "calls")
            out[name] = 1 - builds / calls if calls else 0.0
        elif name == "batches.scalar_path_ratio":
            total = counts.get("batches.returned", 0)
            out[name] = counts.get("batches.returned_scalars", 0) / total if total else 0.0
        elif field in ("cols", "bytes"):
            out[name] = counts.get(name, 0)
        elif field == "calls":
            out[name] = span(head, "calls")
        elif field == "self_s":
            out[name] = span(head, "self_s")
        else:  # experiments.<name>.s: the experiment's whole span
            out[name] = span(head, "total_s")
    return out
