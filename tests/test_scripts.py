"""The example scripts under ``scripts/`` run and print what they always printed,
and the benchmark recorder summarizes runs as documented."""

import importlib.util
import math
import os
import py_compile
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


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _run_record(**metrics):
    return {"result": {"metrics": {name: {"value": value} for name, value in metrics.items()}}}


class TestBenchSummary:
    bench = _load_bench()

    def synthetic(self, sides):
        # Three pairs per workload: the checkout reads 0.5x, 1.2x and 0.9x of the baseline call_ms.
        runs = {}
        for side in sides:
            scale = (0.5, 1.2, 0.9) if side == "checkout" else (1.0, 1.0, 1.0)
            runs[side] = {
                workload: [_run_record(call_ms=10.0 * (k + 1) * s, setup_s=0.25, peak_rss_mb=40.0)
                           for k, s in enumerate(scale)]
                for workload in self.bench.WORKLOADS
            }
        traced = {
            "baseline": _run_record(**{
                "oracle.grid_maximize.calls": 150.0, "oracle.grid_maximize.self_us": 300.0,
                "oracle.grid_maximize.objective_evals": 106724.0, "oracle.grid_maximize.accept_ratio": 0.1,
                "linalg.schmidt.calls": 1.0, "extraction.schemes_for.distinct_ratio": 1.0,
                "verify.check_contrast_oracle.s": 0.030, "verify.extraction_grid_checks.s": 0.010,
                "verify.self_s": 0.2, "trace.overhead_ratio": 1.1,
            }),
            "checkout": _run_record(**{
                "oracle.grid_maximize.calls": 0.0, "oracle.grid_maximize.self_us": 0.0,
                "oracle.grid_maximize.objective_evals": 0.0, "oracle.grid_maximize.accept_ratio": 0.0,
                "linalg.schmidt.calls": 1.0, "extraction.schemes_for.distinct_ratio": 1.0,
                "verify.check_contrast_oracle.s": 0.015, "verify.extraction_grid_checks.s": 0.010,
                "verify.self_s": 0.1, "trace.overhead_ratio": 1.2,
            }),
        }
        lines = {"baseline": 3419, "checkout": 3347}
        return runs, {side: traced[side] for side in sides}, {side: lines[side] for side in sides}

    def test_pairs_ratios_and_quartiles(self):
        summary = self.bench.summarize(*self.synthetic(("baseline", "checkout")))
        entry = summary["verify.call_ms"]
        # Baseline 10, 20, 30; checkout 5, 24, 27.
        assert entry["baseline"] == {"median": 20.0, "q1": 15.0, "q3": 25.0}
        assert entry["checkout"] == {"median": 24.0, "q1": 14.5, "q3": 25.5}
        assert entry["ratio"] == 24.0 / 20.0
        assert (entry["checkout_better"], entry["pairs"]) == (2, 3)
        # Ties count for neither side.
        assert summary["run.setup_s"]["checkout_better"] == 0

    def test_every_differing_count_is_diffed(self):
        summary = self.bench.summarize(*self.synthetic(("baseline", "checkout")))
        assert summary["verify_trace_counts"] == {
            "oracle.grid_maximize.accept_ratio": {"baseline": 0.1, "checkout": 0.0},
            "oracle.grid_maximize.calls": {"baseline": 150.0, "checkout": 0.0},
            "oracle.grid_maximize.objective_evals": {"baseline": 106724.0, "checkout": 0.0},
        }

    def test_check_seconds_of_both_sides_are_listed(self):
        summary = self.bench.summarize(*self.synthetic(("baseline", "checkout")))
        assert summary["verify_trace_check_s"] == {
            "verify.check_contrast_oracle.s": {"baseline": 0.030, "checkout": 0.015},
            "verify.extraction_grid_checks.s": {"baseline": 0.010, "checkout": 0.010},
        }

    def test_checkout_alone(self):
        summary = self.bench.summarize(*self.synthetic(("checkout",)))
        assert "ratio" not in summary["verify.call_ms"] and "verify_trace_counts" not in summary
        assert summary["verify_trace_check_s"]["verify.check_contrast_oracle.s"] == {"checkout": 0.015}
        assert summary["src_lines"] == {"checkout": 3347}

    def claim(self, baseline, checkout):
        # call_ms of every workload from two lists of per-pair values.
        runs = {
            side: {workload: [_run_record(call_ms=v, setup_s=0.25, peak_rss_mb=40.0) for v in values]
                   for workload in self.bench.WORKLOADS}
            for side, values in (("baseline", baseline), ("checkout", checkout))
        }
        traced = {side: _run_record() for side in runs}
        return self.bench.summarize(runs, traced, {"baseline": 100, "checkout": 100})["run.call_ms"]

    def test_claim_met_when_nine_in_ten_pairs_win_beyond_the_spread(self):
        baseline = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        checkout = [0.60, 0.61, 0.59, 0.62, 0.60, 0.58, 0.61, 0.60, 0.59, 1.10]
        entry = self.claim(baseline, checkout)
        assert (entry["checkout_better"], entry["pairs"]) == (9, 10)
        assert entry["claim_met"] is True

    def test_eight_wins_in_ten_pairs_is_no_claim(self):
        baseline = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        checkout = [0.60, 0.61, 0.59, 0.62, 0.60, 0.58, 0.61, 0.60, 1.10, 1.10]
        entry = self.claim(baseline, checkout)
        assert entry["checkout_better"] == 8
        assert entry["claim_met"] is False

    def test_gap_inside_the_baseline_spread_is_no_claim(self):
        baseline = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        checkout = [v - 0.5 for v in baseline]
        entry = self.claim(baseline, checkout)
        assert entry["checkout_better"] == 10
        assert entry["baseline"]["q3"] - entry["baseline"]["q1"] == 4.5
        assert entry["claim_met"] is False

    def test_net_source_lines(self):
        summary = self.bench.summarize(*self.synthetic(("baseline", "checkout")))
        assert summary["src_lines"] == {"baseline": 3419, "checkout": 3347, "net": -72}


def _suite(total, **checks):
    return {"run_all_s": total, "check_s": checks}


class TestInprocessSummary:
    bench = TestBenchSummary.bench

    def test_best_suite_and_check_minimums_with_ratios(self):
        timings = {
            "baseline": [_suite(0.20, check_a=0.040, extraction_grid_checks=0.018),
                         _suite(0.19, check_a=0.042, extraction_grid_checks=0.017),
                         _suite(0.14, check_a=0.043, extraction_grid_checks=0.019)],
            "checkout": [_suite(0.16, check_a=0.014, extraction_grid_checks=0.006),
                         _suite(0.15, check_a=0.012, extraction_grid_checks=0.009),
                         _suite(0.17, check_a=0.015, extraction_grid_checks=0.007)],
        }
        summary = self.bench.summarize_inprocess(timings)
        assert summary["inprocess.run_all_s"] == {"baseline": 0.14, "checkout": 0.15, "ratio": 0.15 / 0.14}
        # One fast baseline run moves the best, not the median.
        assert summary["inprocess.run_all_median_s"] == {"baseline": 0.19, "checkout": 0.16, "ratio": 0.16 / 0.19}
        # Each check's minimum comes from whichever run was fastest for it.
        assert summary["inprocess.check_min_s"] == {
            "check_a": {"baseline": 0.040, "checkout": 0.012, "ratio": 0.012 / 0.040},
            "extraction_grid_checks": {"baseline": 0.017, "checkout": 0.006, "ratio": 0.006 / 0.017},
        }

    def test_checkout_alone(self):
        summary = self.bench.summarize_inprocess({"checkout": [_suite(0.2, check_a=0.01), _suite(0.3, check_a=0.02)]})
        assert summary == {
            "inprocess.run_all_s": {"checkout": 0.2},
            "inprocess.run_all_median_s": {"checkout": 0.25},
            "inprocess.check_min_s": {"check_a": {"checkout": 0.01}},
        }

    def test_child_times_every_check_of_the_suite(self):
        runs = self.bench.inprocess(ROOT)
        assert len(runs) == self.bench.INPROCESS_REPEATS
        from mzpovm import verify

        names = {name for name in dir(verify) if name.startswith("check_")} | {"extraction_grid_checks"}
        for run in runs:
            assert set(run["check_s"]) == names
            assert 0.0 < sum(run["check_s"].values()) <= run["run_all_s"]


def test_src_lines_counts_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "mzpovm"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no final newline: wc -l counts 1
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not = 'counted'\n")
    assert TestBenchSummary.bench.src_lines(tmp_path) == 4


def test_compile_sources_replaces_a_stale_cache(tmp_path):
    package = tmp_path / "src" / "mzpovm"
    package.mkdir(parents=True)
    source = package / "core.py"
    source.write_text("VALUE = 1\n")
    cached = Path(importlib.util.cache_from_source(str(source)))
    py_compile.compile(str(source), cfile=str(cached))
    stale = cached.read_bytes()
    # A baseline whose source changed after its cache was written.
    source.write_text("VALUE = 22\n")
    os.utime(source, (source.stat().st_atime, source.stat().st_mtime + 10.0))
    TestBenchSummary.bench.compile_sources(tmp_path)
    fresh = tmp_path / "fresh.pyc"
    py_compile.compile(str(source), cfile=str(fresh))
    assert cached.read_bytes() == fresh.read_bytes() != stale


def test_both_sides_compile_before_the_first_run(tmp_path, monkeypatch):
    bench = _load_bench()
    checkout, baseline = tmp_path / "checkout", tmp_path / "baseline"
    (baseline / "perfbench").mkdir(parents=True)
    (baseline / "perfbench" / "run.py").write_text("")
    checkout.mkdir()
    events = []
    monkeypatch.setattr(bench, "ROOT", checkout)
    monkeypatch.setattr(bench, "compile_sources", lambda root: events.append(("compile", root)))
    monkeypatch.setattr(bench, "perfbench", lambda root, *args: events.append(("perfbench", root)) or {})
    monkeypatch.setattr(bench, "wall_seconds", lambda root, command: 0.0)
    monkeypatch.setattr(bench, "inprocess", lambda root: [])
    monkeypatch.setattr(bench, "summarize", lambda *args: {})
    monkeypatch.setattr(bench, "summarize_inprocess", lambda timings: {})
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "0", "--baseline", str(baseline)])
    assert bench.main() == 0
    assert sorted(events[:2]) == [("compile", baseline.resolve()), ("compile", checkout)]
    assert all(kind == "perfbench" for kind, _ in events[2:])
