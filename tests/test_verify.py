import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mzpovm
from mzpovm import extraction, verify


class TestCheckResults:
    def test_representative_checks_pass(self):
        assert verify.check_pauli_algebra().passed
        assert verify.check_mz_unitarity(1).passed
        assert verify.check_limit_complementarity().passed
        results = verify.extraction_grid_checks(verify.grid_schemes(), 1e-10)
        assert all(r.passed for r in results)

    def test_limit_complementarity_counts_each_wrong_limit(self, monkeypatch):
        # Swapping F and G makes each limit report the wrong marginal sharp.
        original = extraction.closed_form_stack

        def swapped(configs):
            joint, detector, probe, coincidence = original(configs)
            return joint, probe, detector, coincidence

        monkeypatch.setattr(extraction, "closed_form_stack", swapped)
        result = verify.check_limit_complementarity()
        assert not result.passed and result.deviation == 2.0

    def test_injected_perturbation_detected(self, monkeypatch):
        # Corrupt one extracted effect by the smallest shift the contract
        # promises to flag; the oracle cross-check must catch it. The
        # stacked kernel extract_effects is patched, so every scheme of
        # every stack has its first effect shifted.
        original = extraction.extract_effects

        def corrupted(schemes):
            effects = original(schemes).copy()
            effects[:, 0] += 1e-6 * np.eye(2)
            return effects

        monkeypatch.setattr(extraction, "extract_effects", corrupted)
        result = verify.check_probability_reproduction(verify.grid_schemes(), seed=3, samples=5, tol=1e-10)
        assert not result.passed
        assert result.deviation >= 1e-7

    def test_single_corrupted_member_detected(self, monkeypatch):
        # The same shift on one scheme out of the 138 grid configurations:
        # a stacked maximum must not let it hide among the others.
        original = extraction.extract_effects
        target = 100
        seen = [0]

        def corrupted(schemes):
            effects = original(schemes).copy()
            local = target - seen[0]
            if 0 <= local < len(schemes):
                effects[local, 0] += 1e-6 * np.eye(2)
            seen[0] += len(schemes)
            return effects

        monkeypatch.setattr(extraction, "extract_effects", corrupted)
        result = verify.check_probability_reproduction(verify.grid_schemes(), seed=3, samples=5, tol=1e-10)
        assert seen[0] == len(verify.distinct_grid_configs()) == 138
        assert not result.passed
        assert result.deviation >= 1e-7

    def test_noise_floor_tolerance_fails(self):
        results = verify.extraction_grid_checks(verify.grid_schemes(), 1e-16)
        by_name = {r.name: r for r in results}
        assert not by_name["closed-form-agreement"].passed

    def test_a_suite_builds_each_grid_stack_once(self, monkeypatch):
        # The two readout groups of the grid, shared by the grid checks, and
        # determinism's one-config stack; no stack is kept across suites.
        calls = []
        original = extraction.schemes_for

        def counting(configs):
            calls.append(len(configs))
            return original(configs)

        monkeypatch.setattr(extraction, "schemes_for", counting)
        verify.run_all(42)
        assert len(calls) == 3
        verify.run_all(42)
        assert len(calls) == 6

    def test_a_suite_extracts_each_grid_group_once(self, monkeypatch):
        # The two grid groups, shared by the grid checks and the probability
        # check, then completion-independence's two stacks and pointer-freedom's.
        calls = []
        original = extraction.extract_effects

        def counting(schemes):
            calls.append(len(schemes))
            return original(schemes)

        monkeypatch.setattr(extraction, "extract_effects", counting)
        verify.run_all(42)
        assert calls == [2, 136, 40, 40, 50]
        verify.run_all(42)
        assert len(calls) == 10

    def test_distinct_grid_configs_cover_all_experiments(self):
        configs = verify.distinct_grid_configs()
        experiments = {c.experiment for c in configs}
        assert experiments == {"path", "interference", "marking", "erasure", "quantitative"}
        # 1 + 1 + 8 deltas + 64 (delta, gamma) + 64 (delta, theta)
        assert len(configs) == 138

    def test_distinct_grid_configs_are_one_tuple_per_process(self):
        # A constant of ANGLE_GRID: every grid check of a suite reads the same tuple.
        configs = verify.distinct_grid_configs()
        assert type(configs) is tuple and len(configs) == 138
        assert verify.distinct_grid_configs() is configs


@functools.cache
def _grid():
    # Built once, so that the build stays out of each traced peak below.
    return verify.grid_schemes()


class TestLargeSamples:
    """Memory of the sample-driven checks stays bounded as ``samples`` grows."""

    @staticmethod
    def traced_peak(check, samples: int) -> int:
        check(samples)  # warm caches, so only the check's own temporaries count
        tracemalloc.start()
        try:
            check(samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("check", [
        lambda samples: verify.check_probability_reproduction(_grid(), 42, samples, 1e-10),
        lambda samples: verify.check_state_relations(42, samples),
        lambda samples: verify.check_entropic_bound(42, samples),
    ], ids=["probability-reproduction", "state-relations", "entropic-bound"])
    def test_traced_peak_at_2000_samples_within_3x_of_100(self, check):
        assert self.traced_peak(check, 2000) <= 3 * self.traced_peak(check, 100)


class TestTableFormat:
    def test_format_is_deterministic(self):
        results = [
            verify.CheckResult("alpha-check", True, 1.25e-13),
            verify.CheckResult("beta-check", False, 2.0, "note"),
        ]
        first = verify.format_table(results, seed=42, samples=10, tol=1e-10)
        second = verify.format_table(results, seed=42, samples=10, tol=1e-10)
        assert first == second
        assert "alpha-check" in first and "PASS" in first and "FAIL" in first
        assert first.endswith("2 checks: 1 passed, 1 failed")


class TestLazyImport:
    def test_package_and_cli_run_leave_verify_unloaded(self):
        # Neither the suite nor complementarity, which only the suite calls,
        # loads for a run; each loads on first attribute access.
        code = (
            "import contextlib, io, sys, mzpovm\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert mzpovm.cli.main(['run', '--experiment', 'path']) == 0\n"
            "for name, attribute in (('complementarity', 'probabilistically_complementary'), ('verify', 'run_all')):\n"
            "    assert 'mzpovm.' + name not in sys.modules, name\n"
            "    assert callable(getattr(getattr(mzpovm, name), attribute))\n"
            "    assert 'mzpovm.' + name in sys.modules, name\n"
        )
        src = str(Path(mzpovm.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
