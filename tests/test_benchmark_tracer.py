"""The benchmark's span tracer still installs on the package.

``perfbench/spans.py`` wraps functions and methods of ``rudlab`` by name
and refuses to run when one is missing or is still bound unwrapped
somewhere; a rename or move under ``src/`` would break
``perfbench/run.py --trace 1`` without failing any other test."""

import os
import pathlib
import subprocess
import sys

import rudlab

_INSTALL = """
import spans
spans.install(spans.Tracer(), {})
print("installed")
"""


def test_span_tracer_installs_in_a_fresh_process():
    perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    src = pathlib.Path(rudlab.__file__).resolve().parent.parent
    # no bytecode is written into the benchmark's directory
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _INSTALL], cwd=perfbench, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["installed"]
