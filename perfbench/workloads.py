"""Seeded workloads for the mzpovm benchmark, and the gates that check their output.

Each workload is a closed loop with one client: the next CLI call starts
only after the previous one returned. The seed is a benchmark argument;
the program only ever sees the argv generated from it. Gates run outside
the timed region and return a list of failure reasons (empty = correct).

sweep   repeated ``mzpovm sweep`` calls rotating over the five
        (experiment, param) pairs whose rows really depend on the swept
        angle. Consecutive configs share everything but one angle, which
        is where batching over configs and dropping revalidation show.
run     single ``mzpovm run`` reports over a seeded mix of all five
        experiments, random angles and Haar inputs; a share of the
        requests read their fields from a ``--config`` JSON file. Each
        request is a batch of one that shares nothing with the next.
verify  the full ``mzpovm verify`` suite, heavy in oracle, povm and the
        relation loops over states.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mzpovm import cli, extraction, interferometer
from tracer import Ticker

SWEEP_HEADER = (
    "param_value,p11,p12,p21,p22,F_contrast,G_contrast,H_contrast,C_P,C_Ix,D,V_e,duality_slack"
)
SWEEP_PAIRS = (
    ("quantitative", "theta"),
    ("quantitative", "delta"),
    ("erasure", "gamma"),
    ("erasure", "delta"),
    ("marking", "delta"),
)
SWEEP_STEPS = 100
SWEEP_SAMPLED_ROWS = 8
RUN_CONFIG_SHARE = 0.25
RUN_CONFIG_FILES = 64
VERIFY_SAMPLES = 100
VERIFY_TOL = "1e-10"
VERIFY_SUITES = 6  # suites per run that the estimator uses, however fast the host
# The suite's rows in order: the 24 check_* functions and the 3 rows of
# extraction_grid_checks. Pinned so that a suite that loses a check fails.
VERIFY_ROWS = (
    "pauli-algebra",
    "bloch-round-trip",
    "partial-trace-product",
    "eig-reconstruction",
    "schmidt-separability",
    "smear-commutative",
    "joint-marginality",
    "joint-iff-grid",
    "contrast-oracle",
    "unsharpness-trade-off",
    "mub-fourier",
    "projection-meets",
    "mz-unitarity",
    "marking-unitary",
    "final-state-norm",
    "completion-independence",
    "extraction-positivity",
    "extraction-normalization",
    "closed-form-agreement",
    "probability-reproduction",
    "pointer-freedom",
    "state-relations",
    "entropic-bound",
    "erasure-duality",
    "limit-complementarity",
    "grid-maximize-agreement",
    "determinism",
)

PROB_SUM_TOL = 1e-12
SLACK_TOL = 1e-9
ANALYTIC_TOL = 1e-10


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int | None
    out: str
    seconds: float
    error: str = ""


def execute(argv: list[str]) -> Outcome:
    """Call ``cli.main`` in-process with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed op, never hidden
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return Outcome(rc, out.getvalue(), seconds, error or err.getvalue().strip())


def haar(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(4)
    v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return v / np.linalg.norm(v)


def input_flag(psi: np.ndarray) -> str:
    # '=' keeps argparse from reading a leading '-' in the value as a flag.
    return "--input=" + ",".join(repr(x) for x in state_reals(psi))


def state_reals(psi: np.ndarray) -> list[float]:
    return [float(psi[0].real), float(psi[0].imag), float(psi[1].real), float(psi[1].imag)]


def parsed_state(reals) -> np.ndarray:
    """The state the CLI builds from four reals: normalized re,im,re,im."""
    v = np.array([float(reals[0]) + 1j * float(reals[1]), float(reals[2]) + 1j * float(reals[3])])
    return v / np.linalg.norm(v)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class SweepWorkload:
    """One op = one sweep call; one round = one call per (experiment, param) pair."""

    name = "sweep"
    min_rounds = 1
    instrument = None

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.round = [self._pair_op(rng, experiment, param) for experiment, param in SWEEP_PAIRS]
        self.round_size = len(self.round)
        self._digests: dict[str, str] = {}
        self._best: dict[str, float] = {}

    @staticmethod
    def _pair_op(rng, experiment, param) -> Op:
        angles = {
            "delta": float(rng.uniform(-math.pi, math.pi)),
            "gamma": float(rng.uniform(0.0, 2.0 * math.pi)),
            "theta": float(rng.uniform(0.0, math.pi / 2.0)),
        }
        if param == "theta":
            start, stop = float(rng.uniform(0.0, 0.3)), float(rng.uniform(1.2, math.pi / 2.0))
        else:
            start = float(rng.uniform(-math.pi, -1.0))
            stop = float(rng.uniform(1.0, math.pi))
        psi = haar(rng)
        argv = ["sweep", f"--experiment={experiment}", f"--param={param}"]
        argv += [f"--{name}={value!r}" for name, value in angles.items() if name != param]
        argv += [f"--from={start!r}", f"--to={stop!r}", f"--steps={SWEEP_STEPS}", input_flag(psi)]
        sampled = sorted(rng.choice(SWEEP_STEPS, size=SWEEP_SAMPLED_ROWS, replace=False).tolist())
        expect = {
            "experiment": experiment,
            "param": param,
            "angles": angles,
            "values": np.linspace(start, stop, SWEEP_STEPS),
            "psi": psi / np.linalg.norm(psi),
            "sampled": sampled,
        }
        return Op(argv, expect)

    def ops(self):
        while True:
            yield from self.round

    def traced_ops(self) -> list[Op]:
        return list(self.round)

    def record(self, op: Op, seconds: float):
        key = " ".join(op.argv)
        self._best[key] = min(self._best.get(key, math.inf), seconds)

    def summarize(self, count: int) -> tuple[float, dict]:
        """Call time: mean over the pairs of each pair's fastest call in the run.

        Rounds repeat identical calls, so the fastest of each is the one least
        disturbed by other load on the machine.
        """
        call_s = statistics.fmean(self._best.values())
        return call_s, {"sweep_rows_per_s": (SWEEP_STEPS / call_s, "rows/s", count)}

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        failures = check_sweep(op, outcome)
        key = " ".join(op.argv)
        digest = hashlib.sha256(outcome.out.encode()).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            failures.append("output differs from an earlier call with the same argv")
        return failures


class RunWorkload:
    """One op = one run request; requests never repeat except config files."""

    name = "run"
    round_size = 1
    min_rounds = 1
    instrument = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.configs = []
        for index in range(RUN_CONFIG_FILES):
            fields = self._random_fields(rng)
            psi = haar(rng)
            fields["input"] = state_reals(psi)
            path = workdir / f"run_config_{index}.json"
            path.write_text(json.dumps(fields), encoding="utf-8")
            self.configs.append((path, fields))
        self._latencies = array("d")
        self._by_experiment = {name: array("d") for name in interferometer.EXPERIMENTS}

    @staticmethod
    def _random_fields(rng) -> dict:
        return {
            "experiment": str(rng.choice(interferometer.EXPERIMENTS)),
            "delta": float(rng.uniform(-math.pi, math.pi)),
            "gamma": float(rng.uniform(0.0, 2.0 * math.pi)),
            "theta": float(rng.uniform(0.0, math.pi / 2.0)),
        }

    def request(self, index: int) -> Op:
        rng = np.random.default_rng([self.seed, 3, index])
        if rng.random() < RUN_CONFIG_SHARE:
            path, fields = self.configs[int(rng.integers(len(self.configs)))]
            return Op(["run", f"--config={path}"], {"fields": fields, "psi": parsed_state(fields["input"])})
        fields = self._random_fields(rng)
        psi = haar(rng)
        argv = ["run"] + [f"--{name}={value}" if name == "experiment" else f"--{name}={value!r}"
                          for name, value in fields.items()]
        argv.append(input_flag(psi))
        return Op(argv, {"fields": fields, "psi": psi})

    def ops(self):
        index = 0
        while True:
            yield self.request(index)
            index += 1

    def traced_ops(self) -> list[Op]:
        return [self.request(i) for i in range(300)]

    def record(self, op: Op, seconds: float):
        self._latencies.append(seconds)
        self._by_experiment[op.expect["fields"]["experiment"]].append(seconds)

    def summarize(self, count: int) -> tuple[float, dict]:
        """Call time: mean over the experiments of each experiment's 1st
        percentile latency, the requests that ran in the quiet moments of
        the run. Experiments differ in cost, so each has its own percentile."""
        call_s = statistics.fmean(low_percentile(v) for v in self._by_experiment.values() if v)
        latencies = self._latencies
        n = len(latencies)
        named = {"run_p50_ms": (1e3 * statistics.median(latencies), "ms", n)}
        if n >= 200:  # at least ten samples beyond p95
            named["run_p95_ms"] = (1e3 * percentile(latencies, 95), "ms", n)
        return call_s, named

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        return check_run(op, outcome)


class VerifyWorkload:
    """One op = one full verify suite."""

    name = "verify"
    round_size = 1
    min_rounds = VERIFY_SUITES

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        argv = ["verify", "--seed", str(seed), "--samples", str(VERIFY_SAMPLES), "--tol", VERIFY_TOL]
        self.op = Op(argv)
        self._reference: str | None = None
        # Ticks on entry to every traced function cut a suite into about
        # 225,000 segments along about 150 distinct code paths.
        self.instrument = Ticker()
        self._recorded = 0
        self._fastest: dict[int, float] = {}
        self._count: dict[int, int] = {}
        self._rest = math.inf

    def ops(self):
        while True:
            yield self.op

    def traced_ops(self) -> list[Op]:
        return [self.op]

    def record(self, op: Op, seconds: float):
        tags, times = self.instrument.take()
        if self._recorded == VERIFY_SUITES:
            return
        self._recorded += 1
        self._rest = min(self._rest, seconds - (times[-1] - times[0] if times else 0.0))
        # A segment's path: the functions entered at its start and at its end.
        tags = np.frombuffer(tags, dtype=np.uint16).astype(np.int64)
        keys, path, counts = np.unique(tags[:-1] << 16 | tags[1:], return_inverse=True, return_counts=True)
        fastest = np.full(len(keys), math.inf)
        np.minimum.at(fastest, path, np.diff(np.frombuffer(times)))
        for key, count, gap in zip(keys.tolist(), counts.tolist(), fastest.tolist()):
            self._count[key] = self._count.get(key, 0) + count
            self._fastest[key] = min(self._fastest.get(key, math.inf), float(gap))

    def summarize(self, count: int) -> tuple[float, dict]:
        """Suite time assembled from code paths: for each path, its segments
        per suite times its fastest segment across the first VERIFY_SUITES
        suites, plus the fastest time outside the ticks (argument parsing,
        table formatting). A fixed number of suites keeps the number of
        samples behind each minimum from depending on how fast the host is."""
        suite_s = self._rest
        suite_s += sum(self._count[key] * gap for key, gap in self._fastest.items()) / self._recorded
        return suite_s, {"verify_s": (suite_s, "s", self._recorded)}

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        failures = check_verify(self.seed, outcome)
        if self._reference is None:
            self._reference = outcome.out
        elif outcome.out != self._reference:
            failures.append("verify table is not byte-identical to the first one")
        return failures


WORKLOADS = {w.name: w for w in (SweepWorkload, RunWorkload, VerifyWorkload)}


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles gives it)."""
    return statistics.quantiles(values, n=100)[q - 1]


def low_percentile(values) -> float:
    """The 1st percentile, or the minimum below a hundred values."""
    return percentile(values, 1) if len(values) >= 100 else min(values)


# ----------------------------------------------------------------------
# Output gates
# ----------------------------------------------------------------------


def _status(outcome: Outcome) -> list[str]:
    if outcome.rc != 0:
        return [f"exit code {outcome.rc} ({outcome.error})"]
    return []


def check_sweep(op: Op, outcome: Outcome) -> list[str]:
    """13 fields a row, probabilities summing to 1, duality slack ~ 0, and
    sampled rows equal to <psi|E_kl|psi> from the analytic effect table."""
    failures = _status(outcome)
    lines = outcome.out.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return failures + ["missing or wrong CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    exp = op.expect
    if len(rows) != len(exp["values"]):
        failures.append(f"{len(rows)} rows, expected {len(exp['values'])}")
    for index, row in enumerate(rows):
        if len(row) != 13:
            failures.append(f"row {index} has {len(row)} fields")
            continue
        try:
            values = [float(x) for x in row]
        except ValueError:
            failures.append(f"row {index} has a non-numeric field")
            continue
        if index < len(exp["values"]) and values[0] != exp["values"][index]:
            failures.append(f"row {index} param_value {values[0]!r} is off the requested grid")
        total = values[1] + values[2] + values[3] + values[4]
        if abs(total - 1.0) > PROB_SUM_TOL:
            failures.append(f"row {index} probabilities sum to {total!r}")
        if abs(values[12]) > SLACK_TOL:
            failures.append(f"row {index} duality slack {values[12]!r}")
    psi = exp["psi"]
    for index in exp["sampled"]:
        if index >= len(rows) or len(rows[index]) != 13:
            continue
        angles = dict(exp["angles"])
        angles[exp["param"]] = float(rows[index][0])
        joint = extraction.closed_form(interferometer.MzConfig(exp["experiment"], **angles)).joint
        for column, label in ((1, "11"), (2, "12"), (3, "21"), (4, "22")):
            deviation = abs(float(rows[index][column]) - float(np.vdot(psi, joint.operator(label) @ psi).real))
            if deviation > ANALYTIC_TOL:
                failures.append(f"row {index} p{label} deviates from <psi|E|psi> by {deviation:.3e}")
    return failures


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def check_run(op: Op, outcome: Outcome) -> list[str]:
    """Parsable JSON, a POVM classified valid, the requested config and input,
    and each probability equal to <psi|E|psi> from the report's own POVM."""
    failures = _status(outcome)
    try:
        report = json.loads(outcome.out)
        psi = np.array([complex(re, im) for re, im in report["input"]])
        if report["config"]["experiment"] != op.expect["fields"]["experiment"]:
            failures.append("report is for another experiment")
        if float(np.max(np.abs(psi - op.expect["psi"]))) > 1e-12:
            failures.append("report input differs from the requested state")
        if report["povm_classification"]["valid"] is not True:
            failures.append("extracted POVM is not classified valid")
        if set(report["probabilities"]) != set(report["povm"]):
            failures.append("probability labels differ from POVM labels")
        for label, p in report["probabilities"].items():
            want = float(np.vdot(psi, _matrix(report["povm"][label]) @ psi).real)
            if abs(p - want) > ANALYTIC_TOL:
                failures.append(f"p{label} deviates from <psi|E|psi> by {abs(p - want):.3e}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        failures.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return failures


def check_verify(seed: int, outcome: Outcome) -> list[str]:
    """Exit 0, the requested header, the full ordered list of checks, every
    check PASS, and a summary line that agrees."""
    failures = _status(outcome)
    lines = outcome.out.splitlines()
    if len(lines) < 4 or not lines[1].startswith("check"):
        return failures + ["missing verify table"]
    header = f"seed={seed} samples={VERIFY_SAMPLES} tol={VERIFY_TOL}"
    if lines[0] != header:
        failures.append(f"header reads {lines[0]!r}, expected {header!r}")
    checks = [line.split() for line in lines[2:-1]]
    names = tuple(parts[0] if parts else "(blank line)" for parts in checks)
    if names != VERIFY_ROWS:
        lost = [name for name in VERIFY_ROWS if name not in names]
        failures.append(f"checks differ from the {len(VERIFY_ROWS)} expected (missing: {', '.join(lost) or 'none'})")
    failing = [name for name, parts in zip(names, checks) if parts[1:2] != ["PASS"]]
    if failing:
        failures.append(f"checks not PASS: {', '.join(failing)}")
    if lines[-1] != f"{len(VERIFY_ROWS)} checks: {len(VERIFY_ROWS)} passed, 0 failed":
        failures.append(f"summary line reads {lines[-1]!r}")
    return failures


def gates_selftest(seed: int, workdir: Path) -> tuple[dict[str, list[str]], list[str]]:
    """Feed each gate a real output and tampered copies of it.

    Returns the failures each tampered case drew, and the problems found:
    a real output that fails, or a tampered one that passes. No problems
    means every gate catches what it must.
    """
    problems = []
    sweep = SweepWorkload(seed, workdir)
    op = sweep.round[0]
    real = execute(op.argv)
    failures = sweep.check(op, real)
    if failures:
        problems.append(f"real sweep output fails its gate: {failures[:2]}")
    lines = real.out.splitlines()
    sampled = op.expect["sampled"][0] + 1
    plain = next(i + 1 for i in range(SWEEP_STEPS) if i not in op.expect["sampled"])

    def sweep_row(at, edits=(), drop=False):
        fields = lines[at].split(",")[:-1 if drop else None]
        for column, edit in dict(edits).items():
            fields[column] = repr(edit(float(fields[column])))
        return Outcome(0, "\n".join(lines[:at] + [",".join(fields)] + lines[at + 1:]) + "\n", 0.0)

    runs = RunWorkload(seed, workdir)
    run_op = runs.request(0)
    real_run = execute(run_op.argv)
    failures = check_run(run_op, real_run)
    if failures:
        problems.append(f"real run report fails its gate: {failures[:2]}")

    def run_report(edit):
        report = json.loads(real_run.out)
        edit(report)
        return Outcome(0, json.dumps(report), 0.0)

    def shift_probability(report):
        label = sorted(report["probabilities"])[0]
        report["probabilities"][label] += 1e-6

    # A verify suite takes seconds, so its gate is fed a table in the CLI's format.
    verify = VerifyWorkload(seed, workdir)

    def verify_table(rows=VERIFY_ROWS, failing=(), header=f"seed={seed} samples=100 tol=1e-10"):
        lines = [header, f"{'check':32s} {'status':6s} {'max-deviation':>13s}"]
        lines += [f"{name:32s} {'FAIL' if name in failing else 'PASS':6s} {2.3e-16:13.3e}" for name in rows]
        lines.append(f"{len(rows)} checks: {len(rows) - len(failing)} passed, {len(failing)} failed")
        return Outcome(0, "\n".join(lines), 0.0)

    table = verify_table()
    if verify.check(verify.op, table):
        problems.append("a passing verify table fails its gate")

    cases = {
        "sweep: dropped field": lambda: check_sweep(op, sweep_row(plain, drop=True)),
        "sweep: p11/p12 shifted on a sampled row, sum kept": lambda: check_sweep(
            op, sweep_row(sampled, {1: lambda p: p + 1e-6, 2: lambda p: p - 1e-6})),
        "sweep: probabilities off 1": lambda: check_sweep(op, sweep_row(plain, {4: lambda p: p + 1e-9})),
        "sweep: duality slack": lambda: check_sweep(op, sweep_row(plain, {12: lambda s: 1e-6})),
        "sweep: differs from repeat": lambda: sweep.check(
            op, sweep_row(plain, {9: lambda c: float(np.nextafter(c, 2.0))})),
        "run: probability off": lambda: check_run(run_op, run_report(shift_probability)),
        "run: POVM invalid": lambda: check_run(
            run_op, run_report(lambda r: r["povm_classification"].update(valid=False))),
        "run: truncated JSON": lambda: check_run(run_op, Outcome(0, real_run.out[:-20], 0.0)),
        "verify: FAIL line in the table": lambda: check_verify(
            seed, verify_table(failing=("closed-form-agreement",))),
        "verify: a check missing, summary line agreeing": lambda: check_verify(
            seed, verify_table(rows=VERIFY_ROWS[:19] + VERIFY_ROWS[20:])),
        "verify: other samples in the header": lambda: check_verify(
            seed, verify_table(header=f"seed={seed} samples=10 tol=1e-10")),
        "verify: differs from repeat": lambda: verify.check(
            verify.op, Outcome(0, table.out.replace("2.300e-16", "2.301e-16", 1), 0.0)),
    }
    caught = {}
    for label, gate in cases.items():
        failures = gate()
        if failures:
            caught[label] = failures
        else:
            problems.append(f"gate missed tampered input: {label}")
    return caught, problems
