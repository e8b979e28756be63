"""One fresh benchmark process: set up, run the timed phase, report as JSON.

Usage: python3 perfbench/child.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (set-up only), ``run`` (set-up and timed phase) or
``trace`` (the same with spans recorded).  ROOT is the checkout whose
``src/`` holds the rudlab under test.  The JSON object goes to stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    tracer = None
    engine_specs: dict[int, str] = {}
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, engine_specs)

    t0 = perf_counter()
    cfg, fac, engines = workloads.setup(workload, seed)
    setup_s = perf_counter() - t0
    engine_specs.update((id(engine), spec) for spec, engine in engines.items())

    import rudlab

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(rudlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported rudlab from {rudlab.__file__}, not from {src}")
    out = {"setup_s": setup_s, "config_seed": cfg.seed}
    if mode != "setup":
        result = workloads.run(workload, cfg, fac)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(result["phases"])
        out["patterns"] = result.get("patterns")
        out["mc_samples"] = result.get("mc_samples")
        out["ops"], out["digests"] = workloads.outputs(workload, cfg, result)
        if tracer is not None:
            from layers import layer_metrics

            out["layers"] = layer_metrics(tracer)
    import numpy

    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
