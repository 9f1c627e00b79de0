"""The example scripts under ``scripts/`` run and print what they always printed."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mzpovm

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(mzpovm.__file__).parents[1])

ERASURE_DEMO_OUTPUT = """\
joint outcome probabilities (detector, probe):
  11: 0.500000
  21: 0.000000
  12: 0.000000
  22: 0.500000

marginal contrasts:
  detector: 0.000000
  probe: 0.000000
  coincidence: 1.000000

detector statistics conditional on each probe outcome:
  probe 1: D1 -> 1.000000, D2 -> -0.000000
  probe 2: D1 -> -0.000000, D2 -> 1.000000

total output state entanglement weight: 0.500000 (1/2 = maximal)
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )


def test_erasure_demo_prints_its_walkthrough():
    done = _run("scripts/erasure_demo.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == ERASURE_DEMO_OUTPUT


def test_duality_sweep_prints_the_cli_sweep():
    done = _run("scripts/duality_sweep.py", "--steps", "7")
    assert done.returncode == 0, done.stderr
    cli = _run(
        "-m", "mzpovm", "sweep", "--experiment", "quantitative", "--delta", repr(-math.pi / 2),
        "--param", "theta", "--from", "0", "--to", repr(math.pi / 2), "--steps", "7",
    )
    assert cli.returncode == 0, cli.stderr
    assert done.stdout == cli.stdout
    assert len(done.stdout.splitlines()) == 8
