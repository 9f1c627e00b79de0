"""The benchmark's output gates hold against this checkout.

``perfbench/workloads.py`` reads the library directly: it calls
``cli.main`` and, in its sweep gate, ``extraction.closed_form``. A rename
of anything it reads would pass every other test and still fail every
benchmark run. ``gates_selftest`` feeds each gate a real output and
tampered copies, so running it here keeps the benchmark's reads in step
with the library. The run gate also reads a hundred seeded requests of
the benchmark's own ``run`` workload, so a report the gate would refuse
fails here rather than in a benchmark run. The benchmark's files are
imported as they are.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_REQUESTS = 100


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "tracer"):
            if name not in loaded:
                sys.modules.pop(name, None)


def test_gates_pass_real_output_and_catch_tampered_copies(workloads, tmp_path):
    caught, problems = workloads.gates_selftest(7, tmp_path)
    assert problems == []
    assert caught


def test_run_gate_passes_seeded_run_requests(workloads, tmp_path):
    run = workloads.RunWorkload(7, tmp_path)
    ops = [run.request(i) for i in range(RUN_REQUESTS)]
    failures = {" ".join(op.argv): workloads.check_run(op, workloads.execute(op.argv)) for op in ops}
    assert {argv: reasons for argv, reasons in failures.items() if reasons} == {}
    # Both kinds of request: flags, and fields read from a --config file.
    assert {op.argv[1].startswith("--config=") for op in ops} == {True, False}
    assert {op.expect["fields"]["experiment"] for op in ops} == set(workloads.interferometer.EXPERIMENTS)
