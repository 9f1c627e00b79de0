"""Self-test of the mzpovm benchmark itself.

    python3 perfbench/selftest.py

1. Gate self-test: feeds every output gate a real output and tampered
   copies (a sweep row with a dropped field, shifted probabilities or a
   duality slack; a run report with a wrong probability, an invalid POVM
   or broken JSON; a verify table with a FAIL line, a missing check or
   another header; outputs that differ from an earlier repeat) and checks
   that each tampered one is failed.
2. Count determinism: for every workload, two traced runs with the same
   seed must report identical ``.calls``, ``objective_evals``,
   ``accept_ratio`` and ``distinct_ratio`` values, so that later changes
   can claim counts.

Exits 0 when both hold, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on sys.path
from workloads import WORKLOADS, gates_selftest

SEED = 7
COUNT_SUFFIXES = (".calls", ".objective_evals", ".accept_ratio", ".distinct_ratio")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items() if name.endswith(COUNT_SUFFIXES)}


def main() -> int:
    ok = True

    work_root = run.BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        caught, problems = gates_selftest(SEED, Path(workdir))
    for label, failures in caught.items():
        print(f"gate caught {label}: {'; '.join(failures)}")
    for problem in problems:
        print(f"GATE PROBLEM: {problem}")
    ok &= not problems

    for workload in WORKLOADS:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        differing = sorted(name for name in first if first[name] != second.get(name))
        print(f"{workload}: {len(first)} counts, {len(differing)} differ between two traced runs")
        for name in differing:
            print(f"  {name}: {first[name]!r} vs {second.get(name)!r}")
        ok &= not differing and bool(first)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
