"""Golden outputs: SHA-256 digests of ``run`` reports and ``sweep`` CSV over a seeded corpus,
and of ``verify`` tables.

The corpus covers all five experiments, flag and ``--config`` requests,
``--degrees``, the angles 0 and +/-pi, and basis inputs for which the
report's pointer direction ``r0`` or a conditional distribution is null.
Any change to one byte of standard output or to an exit code changes a
digest. The digests were recorded with numpy 2 on x86-64; a platform whose
numpy rounds differently in its small-matrix kernels records its own.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np

from mzpovm import cli, interferometer

SPECIAL_ANGLES = (0.0, math.pi, -math.pi)
# |1>, |2>, i|1> and the balanced state: marking conditionals on |1> or |2>
# are null, and path and interference have no pointer direction on the last.
BASIS_INPUTS = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0.7071067811865476, 0, 0.7071067811865476, 0))
SWEEP_PAIRS = (
    ("quantitative", "theta"),
    ("quantitative", "delta"),
    ("erasure", "gamma"),
    ("erasure", "delta"),
    ("marking", "delta"),
)

RUN_DIGEST = "385b909ddbd1d1d014175b78e4b166f8bba09850a575d40924173d3cac089914"
SWEEP_DIGESTS = {
    ("quantitative", "theta"): "cbc6b85d7307f7c1ecc13c4700d2131670549504bfa3fd1eba30c693a24a260d",
    ("quantitative", "delta"): "1ec727804907b6accc179a61410945d5db5e8df2fa285595170fb3bfa05f683e",
    ("erasure", "gamma"): "42fc040427b0a531d024fa76774fe17e24c51b729ee1587024838300b93634b8",
    ("erasure", "delta"): "e7283bcc1f6b5fc51de9ea6dcfae6c4cd72e308a5dbc900fc7f86ee03d035245",
    ("marking", "delta"): "c9ce18f33a8e7282c62581fd33d5823d4200c8334f71ff2bfd772b302660c6d3",
}
# (exit code, digest of standard output) of ``verify`` at three seeds, and at a
# tolerance below the noise floor, where three rows fail.
VERIFY_DIGESTS = {
    ("--seed=42",): (0, "4be4ec0afa33f1f90f8704088e33024ed09ddb9e3e726c0f78224ba8e114f204"),
    ("--seed=7",): (0, "892fc01b6113825694e6798fa76d074002fc5eda716a671079e6a64f77017fcc"),
    ("--seed=1",): (0, "e65f24c96fd0773aed0619e75fd2b717207de5efb003017dc6515e1387175d15"),
    ("--seed=42", "--tol=1e-16"): (1, "617fa8a4ca69ba333c6d25effe8e0b469cbfc9beeca5b34d3bd875f437d70b43"),
}


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _main(argv) -> bytes:
    code, out = _call(argv)
    return f"{code}\n{out}".encode()


def _input(reals) -> str:
    return "--input=" + ",".join(repr(float(x)) for x in reals)


def _haar(rng) -> list[float]:
    z = rng.standard_normal(4)
    return (z / np.sqrt(z @ z)).tolist()


def run_corpus(tmp_path) -> list[list[str]]:
    """The argv of every ``run`` request of the corpus, config files written under ``tmp_path``."""
    rng = np.random.default_rng(20261019)
    requests = []
    for experiment in interferometer.EXPERIMENTS:
        for angle in SPECIAL_ANGLES:
            for reals in BASIS_INPUTS:
                angles = [f"--{name}={angle!r}" for name in ("delta", "gamma", "theta")]
                requests.append(["run", f"--experiment={experiment}", *angles, _input(reals)])
        for degrees in (0.0, 90.0, 180.0, -180.0):
            requests.append(["run", f"--experiment={experiment}", f"--delta={degrees!r}",
                             f"--gamma={degrees!r}", f"--theta={degrees / 2!r}", "--degrees"])
    for index in range(60):
        experiment = str(rng.choice(interferometer.EXPERIMENTS))
        fields = {
            "experiment": experiment,
            "delta": float(rng.uniform(-math.pi, math.pi)),
            "gamma": float(rng.uniform(0.0, 2.0 * math.pi)),
            "theta": float(rng.uniform(0.0, math.pi / 2.0)),
        }
        reals = list(BASIS_INPUTS[index % 4]) if index % 5 == 0 else _haar(rng)
        if index % 3 == 0:
            fields["input"] = reals
            if index % 2:
                fields["gamma"] = None
            path = tmp_path / f"run_{index}.json"
            path.write_text(json.dumps(fields), encoding="utf-8")
            argv = ["run", f"--config={path}"]
            if index % 4 == 0:
                argv.append(f"--delta={fields['delta'] / 2!r}")
            requests.append(argv)
        else:
            argv = ["run", f"--experiment={experiment}"]
            argv += [f"--{name}={fields[name]!r}" for name in ("delta", "gamma", "theta")]
            requests.append(argv + [_input(reals)])
    return requests


def sweep_argv(experiment: str, param: str) -> list[str]:
    rng = np.random.default_rng([20261019, SWEEP_PAIRS.index((experiment, param))])
    angles = {
        "delta": float(rng.uniform(-math.pi, math.pi)),
        "gamma": float(rng.uniform(0.0, 2.0 * math.pi)),
        "theta": float(rng.uniform(0.0, math.pi / 2.0)),
    }
    start, stop = (0.0, math.pi / 2.0) if param == "theta" else (-math.pi, math.pi)
    argv = ["sweep", f"--experiment={experiment}", f"--param={param}"]
    argv += [f"--{name}={value!r}" for name, value in angles.items() if name != param]
    return argv + [f"--from={start!r}", f"--to={stop!r}", "--steps=41", _input(_haar(rng))]


def test_run_reports_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for argv in run_corpus(tmp_path):
        digest.update(_main(argv))
    assert digest.hexdigest() == RUN_DIGEST


def test_sweep_csv_matches_golden_digests():
    got = {pair: hashlib.sha256(_main(sweep_argv(*pair))).hexdigest() for pair in SWEEP_PAIRS}
    assert got == SWEEP_DIGESTS


def test_verify_tables_match_golden_digests():
    got = {}
    for args in VERIFY_DIGESTS:
        code, out = _call(["verify", *args])
        got[args] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == VERIFY_DIGESTS
