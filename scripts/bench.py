#!/usr/bin/env python3
"""Record the benchmark numbers of a checkout, and optionally its baseline, in BENCH_<pr>.json.

For each checkout this runs ``perfbench/run.py`` on the ``run``, ``verify``
and ``sweep`` workloads with ``--trace 0`` for 30 s each (``--pairs``
times, seeds 1 to ``--pairs``), then once on ``verify`` with ``--trace 1``
at seed 1, and keeps each run's ``env`` line and final JSON line. It also times fresh
processes, median of 5 after one untimed warm-up, of ``import mzpovm``,
``mzpovm run``, ``mzpovm verify --seed 42`` and ``mzpovm sweep --steps
2000``. With ``--baseline`` the two checkouts alternate run by run, the
first of each pair alternating too, so a slow phase of a shared host falls
on both sides; ``summary`` then gives, per workload and end-to-end metric,
the median and quartiles of each side, their ratio, the pairs the
checkout won and ``claim_met``, whether that is a gain by the rule for
claiming one (better in at least 90% of the pairs, and a gap between the
medians wider than the baseline's interquartile range); then the
per-layer counts of the traced ``verify`` suite that differ (calls,
objective evaluations and the ratios) and the traced seconds of every
``verify`` check on each side. Each checkout runs its
own ``perfbench`` on its own ``src``. ``src_lines`` gives the line count
of each side's ``src/mzpovm/*.py``, and in ``summary`` the net change.
``inprocess`` times the suite without perfbench's ticks: in each of
``INPROCESS_ROUNDS`` rounds, the two sides alternating, a fresh child on
the side's ``src`` runs ``verify.run_all(42)`` once untimed and then
``INPROCESS_REPEATS`` times, each check of ``verify`` timing itself;
``summary`` keeps each side's best and median suite time and each
check's minimum, with their ratios.

Before the first pair, each side's ``src/mzpovm`` is compiled afresh with
``compileall``, so both import bytecode that matches their source. A side
whose ``__pycache__`` is stale or missing would otherwise compile on every
import under ``PYTHONDONTWRITEBYTECODE=1`` while the other imports its
cache, and ``setup_s`` would time that difference rather than the code.

    python scripts/bench.py --pr <number> --baseline <parent checkout> --pairs 10
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 30.0
WORKLOADS = ("run", "verify", "sweep")
END_TO_END = ("call_ms", "setup_s", "peak_rss_mb")
# Per-layer metrics that count work rather than time it.
COUNT_SUFFIXES = (".calls", ".objective_evals", ".accept_ratio", ".distinct_ratio")
COMMANDS = {
    "import": ["-c", "import mzpovm"],
    "run": ["-m", "mzpovm", "run", "--experiment", "erasure", "--delta", "-1.5707963267948966",
            "--gamma", "0", "--input", "0.7071067811865476,0,0.7071067811865476,0"],
    "verify": ["-m", "mzpovm", "verify", "--seed", "42"],
    "sweep": ["-m", "mzpovm", "sweep", "--experiment", "quantitative", "--delta", "-1.5707963267948966",
              "--param", "theta", "--from", "0", "--to", "1.5", "--steps", "2000"],
}


INPROCESS_ROUNDS = 8
INPROCESS_REPEATS = 3
# Run by a fresh interpreter on one checkout's src; prints one JSON line with
# the seconds of each timed run_all(42) and of each check in it.
INPROCESS_CHILD = """
import json, sys, time
from mzpovm import verify

runs = []


def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        runs[-1]["check_s"][name] = time.perf_counter() - start
        return result
    return wrapper


verify.run_all(42)
for name in dir(verify):
    if name.startswith("check_") or name == "extraction_grid_checks":
        setattr(verify, name, timed(name, getattr(verify, name)))
for _ in range(int(sys.argv[1])):
    runs.append({"check_s": {}})
    start = time.perf_counter()
    verify.run_all(42)
    runs[-1]["run_all_s"] = time.perf_counter() - start
print(json.dumps(runs))
"""


def inprocess(root: Path) -> list[dict]:
    """The timed ``run_all(42)`` runs of one fresh child on ``root``'s src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-c", INPROCESS_CHILD, str(INPROCESS_REPEATS)]
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def summarize_inprocess(timings: dict) -> dict:
    """Best and median ``run_all(42)`` seconds and each check's minimum seconds per side, with ratios to the baseline.

    The median sits beside the best because one child that happens to run
    in a fast phase of a shared host sets its side's best alone.
    """
    best = {side: min(run["run_all_s"] for run in runs) for side, runs in timings.items()}
    median = {side: statistics.median(run["run_all_s"] for run in runs) for side, runs in timings.items()}
    names = sorted({name for runs in timings.values() for run in runs for name in run["check_s"]})
    checks = {
        name: {side: min(run["check_s"][name] for run in runs) for side, runs in timings.items()}
        for name in names
    }
    if "baseline" in timings:
        for entry in (best, median, *checks.values()):
            entry["ratio"] = entry["checkout"] / entry["baseline"]
    return {"inprocess.run_all_s": best, "inprocess.run_all_median_s": median, "inprocess.check_min_s": checks}


def perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    env = next(line for line in out if line.startswith("env "))
    return {"env": json.loads(env[4:]), "result": json.loads(out[-1])}


def wall_seconds(root: Path, command: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, *COMMANDS[command]], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def compile_sources(root: Path) -> None:
    """Write fresh bytecode for every module under ``root``'s ``src/mzpovm``, stale or not."""
    if not compileall.compile_dir(root / "src" / "mzpovm", quiet=1, force=True):
        raise RuntimeError(f"{root / 'src' / 'mzpovm'} does not compile")


def src_lines(root: Path) -> int:
    """Lines of the package source ``src/mzpovm/*.py``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "mzpovm").glob("*.py"))


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, traced: dict, lines: dict) -> dict:
    summary = {"src_lines": dict(lines)}
    if "baseline" in lines:
        summary["src_lines"]["net"] = lines["checkout"] - lines["baseline"]
    for workload in WORKLOADS:
        for metric in END_TO_END:
            sides = {
                side: [r["result"]["metrics"][metric]["value"] for r in runs[side][workload]]
                for side in runs
            }
            entry = {side: quartiles(values) for side, values in sides.items()}
            if "baseline" in sides:
                base, change = sides["baseline"], sides["checkout"]
                entry["ratio"] = entry["checkout"]["median"] / entry["baseline"]["median"]
                entry["checkout_better"] = sum(c < b for b, c in zip(base, change))
                entry["pairs"] = len(base)
                # Every end-to-end metric here is better lower. A gain counts when the
                # checkout wins at least 90% of the pairs and the medians differ by
                # more than the baseline's interquartile range.
                gap = entry["baseline"]["median"] - entry["checkout"]["median"]
                spread = entry["baseline"]["q3"] - entry["baseline"]["q1"]
                entry["claim_met"] = 10 * entry["checkout_better"] >= 9 * len(base) and gap > spread
            summary[f"{workload}.{metric}"] = entry
    if "baseline" in traced:
        base, change = (traced[side]["result"]["metrics"] for side in ("baseline", "checkout"))
        # Per-layer counts of one traced verify suite that differ between the sides.
        summary["verify_trace_counts"] = {
            name: {"baseline": base[name]["value"], "checkout": change.get(name, {}).get("value")}
            for name in sorted(base)
            if name.endswith(COUNT_SUFFIXES) and base[name]["value"] != change.get(name, {}).get("value")
        }
    # Traced seconds of each verify check, per side, to name the check that moved.
    summary["verify_trace_check_s"] = {
        name: {side: traced[side]["result"]["metrics"].get(name, {}).get("value") for side in traced}
        for name in sorted(traced["checkout"]["result"]["metrics"])
        if name.startswith("verify.") and name.endswith(".s")
    }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--baseline", type=Path, help="checkout to compare against, e.g. the parent commit")
    parser.add_argument("--pairs", type=int, default=1, help="runs of each --trace 0 workload per checkout")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"checkout": ROOT}
    if args.baseline is not None:
        if not (args.baseline / "perfbench" / "run.py").is_file():
            parser.error(f"{args.baseline} holds no perfbench/run.py")
        roots = {"baseline": args.baseline.resolve(), "checkout": ROOT}

    def alternating(index: int) -> list[str]:
        sides = list(roots)
        return sides if index % 2 == 0 else sides[::-1]

    for root in roots.values():
        compile_sources(root)
    runs = {side: {w: [] for w in WORKLOADS} for side in roots}
    step = 0
    for pair in range(args.pairs):
        for workload in WORKLOADS:
            for side in alternating(step):
                runs[side][workload].append(perfbench(roots[side], workload, pair + 1, 0))
                print(f"{workload} pair {pair} {side} done", file=sys.stderr, flush=True)
            step += 1
    traced = {side: perfbench(roots[side], "verify", 1, 1) for side in alternating(step)}

    walls = {side: {c: [] for c in COMMANDS} for side in roots}
    for command in COMMANDS:
        for side in roots:
            wall_seconds(roots[side], command)
        for rep in range(5):
            for side in alternating(rep):
                walls[side][command].append(wall_seconds(roots[side], command))
    timings = {side: [] for side in roots}
    for rep in range(INPROCESS_ROUNDS):
        for side in alternating(rep):
            timings[side].extend(inprocess(roots[side]))
    lines = {side: src_lines(roots[side]) for side in roots}
    report = {
        "pr": args.pr,
        "perfbench_seconds": SECONDS,
        "seeds": list(range(1, args.pairs + 1)),
        "perfbench": {side: {**runs[side], "verify_trace": traced[side]} for side in roots},
        "wall_s": {
            side: {c: {"median": statistics.median(v), "runs": v} for c, v in walls[side].items()} for side in roots
        },
        "inprocess": timings,
        "src_lines": lines,
        "summary": {**summarize(runs, traced, lines), **summarize_inprocess(timings)},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
