"""Measure a baseline: every workload on seeds 1-10, twice, plus one traced run.

    python3 perfbench/baseline.py

For each workload, ``run.py --trace 0`` runs each of the seeds 1-10 twice,
the two sets alternating (set 1 then set 2 on seed 1, then on seed 2, ...),
one run at a time, with ``BENCHMARK.json``'s ``run_seconds``.  For each set
it writes the median, quartiles and spread (quartile distance over median)
of every end-to-end figure, with each run's values, and how far set 2's
median moved from set 1's.  Then a traced run on the default seed, between
two untraced ones, gives the per-layer metrics, the tracing overhead (traced
``run_s`` over the untraced mean, minus one) and whether tracing left every
output unchanged.  Everything goes to ``perfbench/baseline.json``; comparing
two commits means running this on both, on the same machine.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0xC0FFEE
SEEDS = range(1, 11)
SETS = 2
RUN_SECONDS = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

sys.path.insert(0, str(HERE))
from layers import CATALOGUE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", RUN_SECONDS, "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def same_outputs(a: dict, b: dict) -> bool:
    """Whether two full records hold the same outputs, value for value."""
    def outputs(record):
        run = record["runs"][0]
        return [(op["id"], op.get("value")) for op in run["ops"]], run["digests"]
    return outputs(a) == outputs(b)


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    out = {"seeds": list(SEEDS), "sets": SETS, "run_seconds": RUN_SECONDS, "workloads": {},
           "layers": [{k: e[k] for k in ("name", "unit", "on", "moves")} for e in CATALOGUE]}
    for w in WORKLOADS:
        figures: list[dict[str, list[float]]] = [{} for _ in range(SETS)]
        runs = []
        for seed in SEEDS:
            for k in range(SETS):
                t0 = time.monotonic()
                r = _run(w, seed, 0)
                wall = time.monotonic() - t0
                for name, fig in r["record"]["figures"].items():
                    figures[k].setdefault(name, []).append(fig["value"])
                runs.append({"set": k + 1, "seed": seed, "wall_s": wall,
                             "attempted": r["result"]["attempted"],
                             "failed": r["result"]["failed"]})
                print(w, f"set {k + 1} seed {seed}", f"{wall:.1f}s",
                      {n: round(v[-1], 4) for n, v in figures[k].items()}, flush=True)
        sets = [{n: summary(v) for n, v in f.items()} for f in figures]
        moved = {n: sets[1][n]["median"] / sets[0][n]["median"] - 1
                 for n in sets[0] if sets[0][n]["median"]}
        # untraced runs on both sides of the traced one, so that a machine
        # whose speed drifts over minutes biases the overhead less
        before = _run(w, DEFAULT_SEED, 0)
        traced = _run(w, DEFAULT_SEED, 1)
        after = _run(w, DEFAULT_SEED, 0)
        untraced_s = statistics.mean(r["result"]["metrics"]["run_s"]["value"]
                                     for r in (before, after))
        traced_s = traced["result"]["metrics"]["trace.run_s"]["value"]
        out["workloads"][w] = {
            "sets": sets,
            "median_moved": moved,
            "runs": runs,
            "traced": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "tracing": {"seed": DEFAULT_SEED, "untraced_run_s": untraced_s,
                        "traced_run_s": traced_s, "overhead_frac": traced_s / untraced_s - 1,
                        "same_outputs": same_outputs(before["record"], traced["record"])},
            "environment": traced["record"]["environment"],
        }
        for k, s in enumerate(sets):
            for n, v in s.items():
                print(f"{w} set {k + 1} {n} median {v['median']:.6g} spread {v['spread']:.4f}",
                      flush=True)
        print(w, "median moved", {n: round(v, 4) for n, v in moved.items()}, flush=True)
        print(w, "tracing", out["workloads"][w]["tracing"], flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
