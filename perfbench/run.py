"""rudlab's benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,bigm,codings} --seed N \\
        --seconds S --trace {0,1} [--record]

Every timed repetition runs in a fresh process (``perfbench/child.py``):
engines, the ``bd`` Gamma tree, ``MrContext``, the norming-set caches and
``SpaceFactory.shared`` all live for one process, and warm caches are what a
``rudlab certify`` user never gets.  Processes run one at a time.

``--trace 0`` runs the workload in fresh processes until their timed phases
add up to ``--seconds`` (at least once), adds set-up-only processes until
there are at least three set-up samples and, where set-up is cheap, until
they add up to three seconds (at most fifteen samples), and reports medians
of the end-to-end metrics.  ``--trace 1`` runs the workload once, traced, and reports the
per-layer metrics and the traced ``run_s``; ``perfbench/baseline.py`` and the
self-test compare it with an untraced run for the tracing overhead and for
equal outputs.

``--seed`` is the workloads' only source of randomness: on ``bigm`` and
``codings`` it picks ``RunConfig.seed`` from ``workloads.CONFIG_SEEDS``,
which also seeds the ``bigm`` vectors (the sweep keeps the default config;
see ``workloads.py``).  Outputs are checked against seed-independent
invariants and against ``perfbench/expected.json``, which holds a record for
every config seed the workloads use; an operation without a recorded
expectation counts as failed.  ``--record`` writes the record for one seed
from one untraced process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
end-to-end metric with its unit, the environment, and where the full record
was written (``perfbench/out/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: a run must end within this many seconds of its start
DEADLINE_S = 170.0
#: set-up samples per run: at least SETUP_SAMPLES, and more, up to
#: MAX_SETUP_SAMPLES, until they add up to SETUP_SECONDS, so that a set-up
#: of a fraction of a second is not the median of three noisy samples;
#: set-up-only processes make up the ones the timed processes do not give
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 15
SETUP_SECONDS = 3.0
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")

sys.path.insert(0, str(HERE))
from layers import CATALOGUE  # noqa: E402
from workloads import WORKLOADS, matches  # noqa: E402


class BenchError(Exception):
    pass


def _child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RUDLAB_SEED"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed), mode],
            capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{workload} {mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rudlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "generator_processes_at_once": 1,
    }


def _check(runs: list[dict], record: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every run."""
    attempted = failed = 0
    notes = []
    for r in runs:
        for op in r["ops"]:
            attempted += 1
            bad = op.get("error") or (not op["ok"] and "invariant violated")
            if not bad:
                want = (record or {"ops": {}})["ops"].get(op["id"])
                if want is None:
                    bad = "no recorded expectation"
                elif not matches(op, want):
                    bad = f"differs from the record ({want})"
            if bad:
                failed += 1
                notes.append(f"FAILED {op['id']}: {bad} [got {op.get('value')}]")
        if record is not None:
            missing = set(record["ops"]) - {op["id"] for op in r["ops"]}
            attempted += len(missing)
            failed += len(missing)
            notes.extend(f"FAILED {rid}: recorded but not produced" for rid in sorted(missing))
    return attempted, failed, notes


def _record_entry(run: dict) -> dict:
    ops = {}
    for op in run["ops"]:
        if op.get("error") or not op["ok"]:
            raise BenchError(f"refusing to record a failing operation: {op}")
        ops[op["id"]] = ({"bracket": op["bracket"]} if "bracket" in op
                         else {"value": op["value"]})
    return {"ops": ops, "digests": run["digests"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record this seed's expected outputs and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rudlab" / "__init__.py").is_file():
        print(f"error: no rudlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    w, seed = args.workload, args.seed
    try:
        return _measure(args, w, seed, start, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _measure(args, w: str, seed: int, start: float, deadline: float) -> int:
    # records are keyed by RunConfig.seed
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.record:
        run = _child(w, seed, "run", deadline)
        expected.setdefault(str(run["config_seed"]), {})[w] = _record_entry(run)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(run['ops'])} operations of {w} for config seed {run['config_seed']}")
        return 0

    runs: list[dict] = []
    setups: list[float] = []
    metrics: dict[str, dict] = {}
    if args.trace == 0:
        # timed phases until they add up to --seconds; each process costs
        # about what the last one took
        while True:
            t0 = time.monotonic()
            runs.append(_child(w, seed, "run", deadline))
            took = time.monotonic() - t0
            if (sum(r["run_s"] for r in runs) >= args.seconds
                    or time.monotonic() + took > deadline - 10):
                break
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES or (
                sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUP_SAMPLES):
            setups.append(_child(w, seed, "setup", deadline)["setup_s"])
    else:
        traced = _child(w, seed, "trace", deadline)
        runs = [traced]
        layers = dict(traced["layers"], **{"trace.run_s": traced["run_s"]})
        units = {e["name"]: e["unit"] for e in CATALOGUE}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}

    record = expected.get(str(runs[0]["config_seed"]), {}).get(w)
    attempted, failed, notes = _check(runs, record)
    # a traced process's figures carry its tracing overhead
    figures = _figures(runs, setups or [r["setup_s"] for r in runs], attempted, failed)
    if args.trace == 0:
        metrics = {k: figures[k] for k in END_TO_END}
    lines = [f"workload {w} seed {seed} trace {args.trace}: {len(runs)} process(es) "
             f"with the timed phase, {len(setups)} set-up sample(s)"]
    for name, fig in figures.items():
        lines.append(f"{name} {fig['value']:.6g} {fig['unit']}  {fig['detail']}")
    cs = runs[0]["config_seed"]
    lines.append(f"expectations: recorded for config seed {cs}, compared" if record else
                 f"expectations: none recorded for config seed {cs}; nothing compared, "
                 "every operation counts as failed")
    for name, digest in sorted(runs[0]["digests"].items()):
        want = (record or {}).get("digests", {}).get(name)
        state = ("no recorded digest" if want is None
                 else "matches the recorded digest" if want == digest
                 else "differs from the recorded digest")
        lines.append(f"report {name} sha256 {digest} ({state})")
    env = _environment()
    env.update(runs[0]["versions"])
    lines.append("environment " + json.dumps(env, sort_keys=True))
    lines.extend(notes)

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{w}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {"workload": w, "seed": seed, "trace": args.trace, "environment": env,
         "setup_samples": setups, "runs": runs, "figures": figures, "metrics": metrics,
         "notes": notes},
        indent=1, sort_keys=True) + "\n")
    lines.append(f"full record: {out_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


def _figures(runs: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    """Every end-to-end figure that applies, as the median over processes."""
    def fig(value, unit, detail=""):
        return {"value": value, "unit": unit, "detail": detail}

    def samples(values):
        return "(median of " + ", ".join(f"{v:.4f}" for v in values) + ")"

    run_s = [r["run_s"] for r in runs]
    out = {"setup_s": fig(statistics.median(setups), "s", samples(setups)),
           "run_s": fig(statistics.median(run_s), "s", samples(run_s))}
    if runs[0].get("patterns"):
        exact = statistics.median(r["exact_s"] for r in runs)
        mc = statistics.median(r["mc_s"] for r in runs)
        out["patterns_per_s"] = fig(runs[0]["patterns"] / exact, "1/s",
                                    f"({runs[0]['patterns']} patterns in {exact:.4f} s)")
        out["mc_samples_per_s"] = fig(runs[0]["mc_samples"] / mc, "1/s",
                                      f"({runs[0]['mc_samples']} samples in {mc:.4f} s)")
    out["peak_rss_mb"] = fig(statistics.median(r["peak_rss_mb"] for r in runs), "MB")
    out["failed_frac"] = fig(failed / attempted, "ratio", f"({failed} of {attempted})")
    return out


if __name__ == "__main__":
    sys.exit(main())
