"""The benchmark's output gates hold against this checkout.

``perfbench/workloads.py`` reads the library directly: it calls
``cli.main`` and, in its sweep gate, ``extraction.closed_form``. A rename
of anything it reads would pass every other test and still fail every
benchmark run. ``gates_selftest`` feeds each gate a real output and
tampered copies, so running it here keeps the benchmark's reads in step
with the library. The benchmark's files are imported as they are.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_gates_pass_real_output_and_catch_tampered_copies(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        workloads = importlib.import_module("workloads")
        caught, problems = workloads.gates_selftest(7, tmp_path)
    finally:
        for name in ("workloads", "tracer"):
            if name not in loaded:
                sys.modules.pop(name, None)
    assert problems == []
    assert caught
