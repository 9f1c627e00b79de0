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

The ``verify`` estimator sums, per code path between two ticks of
``tracer.Ticker``, the path's count times its fastest segment. A change
that moves the ticks of the ``verify`` route changes what that metric
measures, so the tick structure of one warm suite is pinned here; a change
that moves it must update the pin and say so.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mzpovm import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_REQUESTS = 100
# Ticks of one warm verify.run_all(42), by traced function; every check
# function ticks once.
VERIFY_TICKS = {
    "complementarity.fourier_partner": 35,
    "complementarity.is_mutually_unbiased": 35,
    "complementarity.probabilistically_complementary": 33,
    "linalg.density_from_bloch": 33,
    "linalg.state_vector": 103,
    "oracle.haar_state": 100,
    "oracle.direct_probabilities": 2,
}


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


def test_verify_route_tick_structure(workloads):
    tracer = importlib.import_module("tracer")
    # A tick's tag is the position of its function among the functions found.
    names = [name for name, *_ in tracer.Ticker()._targets()]
    verify.run_all(42)  # warm: the cached states and lattice are built
    ticker = tracer.Ticker()
    ticker.install()
    try:
        verify.run_all(42)
    finally:
        ticker.uninstall()
    tags, _ = ticker.take()
    tags = np.frombuffer(tags, dtype=np.uint16)
    paths = set(zip(tags[:-1].tolist(), tags[1:].tolist()))
    assert len(tags) == 366
    assert len(paths) == 36
    want = {**VERIFY_TICKS, **{f"verify.{fn}": 1 for fn in tracer.VERIFY_FUNCTIONS}}
    assert Counter(names[tag] for tag in tags.tolist()) == want
