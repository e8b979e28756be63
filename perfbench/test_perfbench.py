"""The benchmark's own checks (a few minutes: each workload runs twice).

    python3 -m pytest -q perfbench/test_perfbench.py

* ``BENCHMARK.json`` names exactly the metrics the code reports.
* The sweep's engine list is rudlab's own, and ``expected.json`` holds a
  record for every config seed a workload can use.
* A traced run on each workload fires every span the layer table expects on
  it (each such metric is non-zero), and its outputs equal an untraced
  run's, value for value.
* Outside a full checkout the benchmark refuses to run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from baseline import same_outputs  # noqa: E402
from layers import CATALOGUE  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import CONFIG_SEEDS, SWEEP_SPECS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0xC0FFEE
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert bench["per_layer"] == [
        {"name": e["name"], "unit": e["unit"], "better": e["better"]} for e in CATALOGUE
    ]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + [w["name"] for w in bench["workloads"]])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_sweep_specs_and_recorded_seeds():
    sys.path.insert(0, str(ROOT / "src"))
    from rudlab.config import RunConfig
    from rudlab.experiments import SWEEP_SPECS as rudlab_sweep_specs

    assert list(SWEEP_SPECS) == list(rudlab_sweep_specs)
    expected = json.loads((HERE / "expected.json").read_text())
    for w, spec in WORKLOADS.items():
        for seed in CONFIG_SEEDS if spec["seeded"] else [RunConfig().seed]:
            assert w in expected.get(str(seed), {}), (w, seed)


def _result(workload, trace):
    proc = _run(["--workload", workload, "--seed", str(DEFAULT_SEED),
                 "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    record = json.loads((HERE / "out" / f"{workload}-seed{DEFAULT_SEED}-trace{trace}.json")
                        .read_text())
    return result, record


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_fires_every_expected_span_and_changes_no_output(workload):
    _, plain = _result(workload, 0)
    result, traced = _result(workload, 1)
    metrics = result["metrics"]
    assert set(metrics) == {e["name"] for e in CATALOGUE}
    silent = [e["name"] for e in CATALOGUE
              if workload in e["on"] and not metrics[e["name"]]["value"]]
    assert not silent, f"spans that never fired on {workload}: {silent}"
    assert same_outputs(plain, traced)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
