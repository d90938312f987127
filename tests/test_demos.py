"""The demos run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import inls_lab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# demo 05 (about 4.5 s) is left out: the collapse_virial benchmark workload
# runs its library calls through the CLI
@pytest.mark.parametrize("name", ["01_ground_states", "02_inequalities",
                                  "03_exponent_tables", "04_evolution_dichotomy"])
def test_demo_exits_0(name, tmp_path):
    src = str(Path(inls_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
