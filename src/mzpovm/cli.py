"""Command-line front end: run one experiment, sweep a parameter, verify.

Subcommands
-----------
run     Evaluate one configuration: output probabilities, the extracted
        POVM with classified marginals, per-probe-outcome conditional
        detector probabilities, and every applicable relation report, as
        canonical JSON (sorted keys, shortest round-trip floats) on
        standard output.
sweep   Emit plot-ready CSV, one row per step of delta, gamma or theta.
        Sweeping an angle the experiment ignores gives constant rows and
        a note on standard error.
verify  Run the full invariant suite and print a pass/fail table.

Exit codes: 0 success, 1 verification failure (a check fails or raises), 2 usage error.

Angles are radians; pass --degrees to convert every angle flag at parse
time. Complex numbers serialize as [re, im] pairs, matrices row-major.

A run or sweep checks its photon input and probe rows once and then calls
cores that check nothing more (``oracle.probabilities`` checks only its
results); ``tests/test_stacked_core.py::TestRouteArguments`` shows that each
core's checked entry accepts the route's arguments and gives the same bits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import extraction, interferometer, linalg, oracle, povm, relations
from .errors import MzPovmError, ZeroProbabilityCondition

SWEEP_COLUMNS = [
    "param_value",
    "p11",
    "p12",
    "p21",
    "p22",
    "F_contrast",
    "G_contrast",
    "H_contrast",
    "C_P",
    "C_Ix",
    "D",
    "V_e",
    "duality_slack",
]


class UsageError(Exception):
    pass


def _parse_input(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--input wants re,im,re,im (4 reals), got {len(parts)} fields")
    try:
        reals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--input fields must be numbers: {exc}") from None
    if not all(math.isfinite(x) for x in reals):
        raise UsageError(f"--input fields must be finite, got {text!r}")
    v = np.array([reals[0] + 1j * reals[1], reals[2] + 1j * reals[3]])
    # numpy.linalg.norm(v) without its argument handling; an overflow to inf fails the check below.
    with np.errstate(over="ignore"):
        n = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    if abs(n * n - 1.0) > 1e-6:
        raise UsageError(f"input state squared norm {n * n!r} deviates from 1 by more than 1e-6")
    if abs(n * n - 1.0) > 1e-10:
        print(f"note: renormalizing input state (norm {n!r})", file=sys.stderr)
    return v / n


def _pairs(values: np.ndarray) -> list:
    # Complex entries as nested [re, im] lists, from one .tolist() of the interleaved parts.
    values = np.ascontiguousarray(values, dtype=complex)
    return values.view(float).reshape(values.shape + (2,)).tolist()


def _classifications(effects: np.ndarray) -> list[dict]:
    # The verdicts on an (N, K, d, d) stack of candidate POVMs, from one classification pass.
    stack = povm.classify_effects(effects)
    return [
        {"valid": v, "sharp": s, "trivial": t, "kind": "trivial" if t else "sharp" if s else "unsharp" if v else "invalid"}
        for v, s, t in zip(stack.valid.tolist(), stack.sharp.tolist(), stack.trivial.tolist())
    ]


def _report_dict(r: relations.RelationReport) -> dict:
    # The audit of the first state of a stacked record.
    return {"name": r.name, "lhs": float(r.lhs[0]), "rhs": float(r.rhs[0]), "kind": r.kind,
            "satisfied": bool(r.satisfied[0]), "slack": float(r.slack[0])}


def _load_config(args) -> dict:
    """The fields of the --config JSON file, or {} without one."""
    if not getattr(args, "config", None):
        return {}
    with open(args.config, encoding="utf-8") as fh:
        try:
            fields = json.load(fh)
        except RecursionError:
            raise UsageError("config file nests too deeply to parse") from None
    if not isinstance(fields, dict):
        raise UsageError(f"config file must hold a JSON object, got {type(fields).__name__}")
    return fields


def _angle(name: str, value) -> float:
    # Only null or an absent field means 0; a bool is not a number here.
    if value is None:
        return 0.0
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise UsageError(f"config field {name!r} must be a number, got {value!r}")


def _config_from_args(args, file_fields: dict) -> interferometer.MzConfig:
    fields = {"experiment": args.experiment, "delta": args.delta, "gamma": args.gamma, "theta": args.theta}
    for key in fields:
        if fields[key] is None and key in file_fields:
            fields[key] = file_fields[key]
    if fields["experiment"] is None:
        raise UsageError("an experiment must be given via --experiment or --config")
    scale = math.pi / 180.0 if args.degrees else 1.0
    return interferometer.MzConfig(
        experiment=fields["experiment"],
        delta=scale * _angle("delta", fields["delta"]),
        gamma=scale * _angle("gamma", fields["gamma"]),
        theta=scale * _angle("theta", fields["theta"]),
    )


def _input_from_args(args, file_fields: dict) -> np.ndarray:
    text = args.input
    if text is None and "input" in file_fields:
        reals = file_fields["input"]
        try:
            # Exactly four JSON numbers; a bool is not a number here.
            if not (type(reals) is list and len(reals) == 4 and {type(x) for x in reals} <= {int, float}):
                raise TypeError
            text = ",".join(str(float(x)) for x in reals)
        except (TypeError, OverflowError):
            raise UsageError(f"config field 'input' must list 4 numbers, got {reals!r}") from None
    if text is None:
        text = "0.7071067811865476,0,0.7071067811865476,0"
    return _parse_input(text)


def _evaluate(configs, v: np.ndarray):
    # The stacked core of run and sweep for N configurations and one checked
    # input v: output labels, (N, L, 2, 2) effects, (N, L) direct
    # probabilities and the erasure duality audit of each configuration's
    # markers, which build_schemes checks with the rest of the probe rows.
    probes = interferometer.probe_stack(configs)
    schemes = extraction.build_schemes(
        probes, [interferometer.effective_delta(c) for c in configs], interferometer.pointer_stack(configs)
    )
    audit = relations.erasure_duality_core(v[None], probes[:, 1:])
    probabilities = oracle.probabilities(schemes, v[None])[:, 0]
    return schemes.labels, extraction.extract_effects(schemes), probabilities, audit


def evaluate_run(config: interferometer.MzConfig, psi: np.ndarray) -> dict:
    """The full report for one configuration and input state; a batch of one of the sweep core.

    ``psi`` is checked once, here, and every part of the report uses that checked vector.
    """
    psi = interferometer.photon_state(psi)
    labels, effects, probabilities, audits = _evaluate([config], psi)
    variance_product, *triple = relations.state_relations_core(linalg.projectors(psi[None]))
    entropy_pair = relations.entropic_bound_core(relations.pauli_pvm("z"), relations.pauli_pvm("x"), psi[None])
    reports = [variance_product, entropy_pair, *triple, audits.duality, audits.variance_tradeoff]
    d, pointer = float(audits.distinguishability[0]), audits.pointer_direction[0]

    report: dict = {
        "config": {"experiment": config.experiment, "delta": config.delta, "gamma": config.gamma,
                   "theta": config.theta, "effective_delta": interferometer.effective_delta(config)},
        "input": _pairs(psi),
        "probabilities": dict(zip(labels, probabilities[0].tolist())),
        "povm": dict(zip(labels, _pairs(effects[0]))),
        # No pointer direction (NaN) where the marker evidence vanishes.
        "distinguishability": {"D": d, "L": 0.5 * (1.0 + d), "r0": None if np.isnan(pointer[0]) else pointer.tolist()},
        "visibility": {"V_e": float(audits.visibility[0]), "n": audits.visibility_direction[0].tolist()},
    }

    if len(labels) == 2:
        report["povm_classification"] = _classifications(effects)[0]
    else:
        marginals = povm.joint_marginals(effects)[0]
        # Zero effects change no verdict, so F, G and H padded to four effects
        # share the joint POVM's classification pass.
        candidates = np.zeros((4, 4, 2, 2), dtype=complex)
        candidates[0], candidates[1:, :2] = effects[0], marginals
        report["povm_classification"], *verdicts = _classifications(candidates)
        report["marginals"] = {
            name: {"effects": dict(zip(("1", "2"), entries)), "classification": verdict}
            for name, entries, verdict in zip("FGH", _pairs(marginals), verdicts)
        }
        conditional = report["conditional_probabilities"] = {}
        for probe_label in ("1", "2"):
            try:
                conditional[probe_label] = extraction.conditional_probabilities_core(effects[0], probe_label, psi)
            except ZeroProbabilityCondition:
                conditional[probe_label] = None

    report["relations"] = [_report_dict(r) for r in reports]
    return report


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOATS_ONLY = frozenset({float})


def _float_text(x: float) -> str:
    # json.dumps' text of a float: its repr, or NaN, Infinity, -Infinity.
    return float.__repr__(x) if x - x == 0.0 else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _ESCAPE(key) if isinstance(key, str) else '"' + _scalar_text(key) + '"'


def _write(value, newline: str, out: list) -> None:
    # Append the JSON text of value to out; newline is a line break plus
    # the indentation of the line value starts on.
    inner = newline + "  "
    if isinstance(value, dict):
        opening = "{" + inner
        for key, item in sorted(value.items()):
            head = opening + (_ESCAPE(key) if type(key) is str else _key_text(key)) + ": "
            if isinstance(item, (dict, list, tuple)):
                out.append(head)
                _write(item, inner, out)
            else:
                out.append(head + _scalar_text(item))
            opening = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        if value and _FLOATS_ONLY.issuperset(map(type, value)):
            # A list of floats, such as an [re, im] pair, is one join.
            return out.append("[" + inner + ("," + inner).join(map(_float_text, value)) + newline + "]")
        opening = "[" + inner
        for item in value:
            out.append(opening)
            _write(item, inner, out)
            opening = "," + inner
        out.append(newline + "]" if value else "[]")
    else:
        out.append(_scalar_text(value))


def render_json(report) -> str:
    """The bytes of ``json.dumps(report, sort_keys=True, indent=2)``, written in one pass."""
    out: list[str] = []
    _write(report, "\n", out)
    return "".join(out)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def sweep_configs(config: interferometer.MzConfig, param: str, start: float, stop: float, steps: int):
    """The validated configuration of every sweep step: ``param`` on an even grid."""
    return [replace(config, **{param: float(v)}) for v in np.linspace(start, stop, steps)]


# Steps evaluated per stack: bounds the temporaries of a long sweep.
SWEEP_STACK = 4096


def sweep_rows(configs, psi: np.ndarray, param: str):
    """One CSV row of probabilities, contrasts and duality data per configuration.

    Up to ``SWEEP_STACK`` steps at a time go through the stacked core as
    one stack; ``psi`` is checked once, before the first.
    """
    psi = interferometer.photon_state(psi)
    r = linalg.bloch_from_density_stack(linalg.projectors(psi))
    path, interference = (min(1.0, abs(float(r[k]))) for k in (2, 0))
    for first in range(0, len(configs), SWEEP_STACK):
        chunk = configs[first:first + SWEEP_STACK]
        labels, effects, probabilities, audit = _evaluate(chunk, psi)
        columns = {
            "param_value": [getattr(c, param) for c in chunk],
            "D": audit.distinguishability,
            "V_e": audit.visibility,
            "duality_slack": audit.duality.slack,
        }
        if len(labels) == 4:
            columns.update(("p" + label, p) for label, p in zip(labels, probabilities.T))
            contrasts = povm.contrast_stack(povm.joint_marginals(effects).reshape(-1, 2, 2, 2)).reshape(-1, 3)
            columns.update(zip(("F_contrast", "G_contrast", "H_contrast"), contrasts.T))
        else:
            columns["F_contrast"] = povm.contrast_stack(effects)
        for n in range(len(chunk)):
            row = {name: None for name in SWEEP_COLUMNS}
            row.update((name, float(values[n])) for name, values in columns.items())
            row["C_P"], row["C_Ix"] = path, interference
            yield row


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--experiment",
        choices=interferometer.EXPERIMENTS,
        default=None,
        help="experiment kind",
    )
    parser.add_argument("--delta", type=float, default=None, help="phase shift (radians)")
    parser.add_argument("--gamma", type=float, default=None, help="erasure pointer phase (radians)")
    parser.add_argument("--theta", type=float, default=None, help="marker tilt (radians)")
    parser.add_argument("--input", default=None, help="photon input as re,im,re,im")
    parser.add_argument("--config", default=None, help="JSON file with the same fields; flags override")
    parser.add_argument("--degrees", action="store_true", help="interpret all angles in degrees")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="mzpovm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate one experiment configuration")
    _add_common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one angle, emitting CSV")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--param", choices=("delta", "gamma", "theta"), required=True)
    sweep_p.add_argument("--from", dest="start", type=float, required=True)
    sweep_p.add_argument("--to", dest="stop", type=float, required=True)
    sweep_p.add_argument("--steps", type=int, required=True)

    verify_p = sub.add_parser("verify", help="run the invariant suite")
    verify_p.add_argument("--seed", type=_seed, default=42)
    verify_p.add_argument("--samples", type=int, default=100)
    verify_p.add_argument("--tol", type=float, default=1e-10)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            file_fields = _load_config(args)
            config = _config_from_args(args, file_fields)
            psi = _input_from_args(args, file_fields)
        if args.command == "run":
            print(render_json(evaluate_run(config, psi)))
            return 0
        if args.command == "sweep":
            if not args.start < args.stop:
                raise UsageError("--from must be strictly below --to")
            if not 2 <= args.steps <= 100000:
                raise UsageError("--steps must lie in [2, 100000]")
            scale = math.pi / 180.0 if args.degrees else 1.0
            start, stop = scale * args.start, scale * args.stop
            if not math.isfinite(stop - start):
                raise UsageError("--from and --to must be finite, and so must their difference")
            # Every step is built and validated before the first line of output.
            configs = sweep_configs(config, args.param, start, stop, args.steps)
            if args.param not in interferometer.ANGLES_READ[config.experiment]:
                note = f"note: {config.experiment} ignores {args.param}; every row is the same"
                print(note, file=sys.stderr)
            print(",".join(SWEEP_COLUMNS))
            for row in sweep_rows(configs, psi, args.param):
                print(",".join(_fmt(row[name]) for name in SWEEP_COLUMNS))
            return 0
        if args.command == "verify":
            from . import verify

            if not 1 <= args.samples <= 100000:
                raise UsageError("--samples must lie in [1, 100000]")
            if not 0.0 < args.tol < math.inf:
                raise UsageError("--tol must be positive and finite")
            try:
                results = verify.run_all(seed=args.seed, samples=args.samples, tol=args.tol)
            except MzPovmError as exc:
                # A library error inside a check is a verification failure, not a usage error.
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 1
            print(verify.format_table(results, args.seed, args.samples, args.tol))
            return 0 if all(r.passed for r in results) else 1
    except (UsageError, MzPovmError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
