"""mzpovm benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload {sweep,run,verify} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from ``src/``;
there is nothing to build. ``--trace 0`` measures the end-to-end metrics
for ``--seconds`` seconds; ``--trace 1`` runs a fixed op list once
untraced and once traced and reports the per-layer metrics, so that every
count repeats exactly for a fixed seed. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads: the 2x2 and 4x4 kernels gain nothing from BLAS
# threads, and a stray pool on a small machine would measure the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The package is built from source in place: importing it from src/ is the build.
if not (SRC / "mzpovm" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC / 'mzpovm'}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import mzpovm  # noqa: E402
from tracer import Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS, execute, gates_selftest  # noqa: E402

if Path(mzpovm.__file__).resolve().parent != (SRC / "mzpovm").resolve():
    sys.exit(f"error: imported mzpovm from {mzpovm.__file__}, not from {SRC}")

SETUP_REPEATS = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_import() -> float:
    """Wall time of a fresh interpreter running ``import mzpovm``, as every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import mzpovm"], env=env, cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = probe.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class Runner:
    """Executes ops, checks each one outside the timed region, and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op, instrument=None):
        """Execute one op (with ``instrument`` installed, if given) and check it."""
        if instrument is not None:
            instrument.install()
        try:
            outcome = execute(op.argv)
        finally:
            if instrument is not None:
                instrument.uninstall()
        failures = self.workload.check(op, outcome)
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)[:120]}: {'; '.join(failures[:3])}")
        return outcome

    def timed(self, ops, seconds: float, between):
        """Whole rounds until the next round would end past the deadline, and at
        least the workload's ``min_rounds``.

        Each op's time goes to the workload's summary; ``between(elapsed)``
        runs after each round, outside the op timings. Returns the op count.
        """
        start = perf_counter()
        last_round = 0.0
        count = 0
        rounds = 0
        while rounds < self.workload.min_rounds or perf_counter() - start + last_round <= seconds:
            round_start = perf_counter()
            for _ in range(self.workload.round_size):
                op = next(ops)
                outcome = self.run(op, self.workload.instrument)
                self.workload.record(op, outcome.seconds)
                count += 1
            rounds += 1
            last_round = perf_counter() - round_start
            between(perf_counter() - start)
        return count


def untraced(args, workload, runner, lines):
    # No warm-up: each workload's estimator keeps the fastest comparable work,
    # so first-call costs do not reach the metric.
    # Child imports are spread over the run, so their median does not hang on
    # whichever load the machine had in one moment.
    setup = []

    def between(elapsed):
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / args.seconds):
            setup.append(time_import())

    timed_ops = runner.timed(workload.ops(), args.seconds, between)
    between(args.seconds)
    call_s, named = workload.summarize(timed_ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "call_ms": (1e3 * call_s, "ms", timed_ops),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    named.update(metrics)
    named["ops_failed_ratio"] = (runner.failed / runner.attempted, "1", runner.attempted)
    for name, (value, unit, count) in named.items():
        lines.append(f"metric {name} = {value!r} {unit} (n={count})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def traced(args, workload, runner, lines):
    ops = workload.traced_ops()
    # The untraced pass also fills lazy caches, so the traced pass counts steady state.
    untraced_s = sum(runner.run(op).seconds for op in ops)
    tracer = Tracer()
    traced_s = sum(runner.run(op, tracer).seconds for op in ops)
    values = tracer.metrics(len(ops), traced_s, untraced_s)
    if tracer.missing:
        lines.append(f"note: not found, reported as zero: {', '.join(tracer.missing)}")
    lines.append(f"traced ops {len(ops)}: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s")
    units = {name: unit for name, unit, _ in metric_specs()}
    for name, value in values.items():
        lines.append(f"metric {name} = {value!r} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    lines = [f"env {json.dumps(environment(args.seed), sort_keys=True)}"]
    seed = args.seed % 2**32
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        _, problems = gates_selftest(seed, Path(workdir))
        if problems:
            print("error: output gates failed their self-test:", *problems, sep="\n  ", file=sys.stderr)
            return 1
        workload = WORKLOADS[args.workload](seed, Path(workdir))
        runner = Runner(workload)
        measure = traced if args.trace else untraced
        metrics = measure(args, workload, runner, lines)
    lines.append(f"ops attempted {runner.attempted}, failed {runner.failed}")
    lines += [f"failure: {reason}" for reason in runner.reasons]
    print("\n".join(lines))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
