"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
per criterion. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mzpovm import cli, extraction, interferometer, linalg, oracle, povm, relations, verify

from conftest import shannon_entropy, variance

I2 = np.eye(2, dtype=complex)
SX, SY, SZ = linalg.pauli_triple()
GRID = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi)
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


def conclude(number: int, ok: bool, description: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def state_sample():
    # 10000 seeded states: half drawn uniformly from the Bloch ball, half
    # pure, so the equality branches of the duality criteria are exercised.
    rng = np.random.default_rng(42)
    directions = rng.standard_normal((10000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = np.ones(10000)
    radii[:5000] = rng.random(5000) ** (1.0 / 3.0)
    return directions * radii[:, None]


def test_criterion_1_path_detection():
    measured = extraction.extract_effects(extraction.schemes_for([interferometer.MzConfig("path")]))[0]
    dev = max(
        float(np.max(np.abs(measured[0] - 0.5 * (I2 + SZ)))),
        float(np.max(np.abs(measured[1] - 0.5 * (I2 - SZ)))),
    )
    probs = oracle.direct_probabilities(
        extraction.schemes_for([interferometer.MzConfig("path")]), [1, 0]
    )
    ok = dev <= 1e-12 and abs(probs["1"] - 1.0) <= 1e-12
    conclude(1, ok, f"path detection extracts the sharp path observable (dev {dev:.2e})")


def test_criterion_2_interference_detection():
    config = interferometer.MzConfig("interference")
    measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
    dev = max(
        float(np.max(np.abs(measured[0] - 0.5 * (I2 + SX)))),
        float(np.max(np.abs(measured[1] - 0.5 * (I2 - SX)))),
    )
    probs = oracle.direct_probabilities(extraction.schemes_for([config]), PLUS)
    ok = dev <= 1e-12 and abs(probs["1"] - 1.0) <= 1e-12
    conclude(2, ok, f"interference detection extracts the sharp interference observable (dev {dev:.2e})")


def _marking_table(delta):
    plus, minus = 0.5 * (I2 + SZ), 0.5 * (I2 - SZ)
    c2, s2 = math.cos(delta / 2) ** 2, math.sin(delta / 2) ** 2
    joint = {"11": c2 * plus, "21": s2 * plus, "12": s2 * minus, "22": c2 * minus}
    marginals = {
        "F": {"1": 0.5 * (I2 + math.cos(delta) * SZ), "2": 0.5 * (I2 - math.cos(delta) * SZ)},
        "G": {"1": plus, "2": minus},
        "H": {"1": c2 * I2, "2": s2 * I2},
    }
    return joint, marginals


def _erasure_table(delta, gamma):
    n = math.sin(delta) * math.cos(gamma) * SX + math.sin(delta) * math.sin(gamma) * SY - math.cos(delta) * SZ
    m = n + 2 * math.cos(delta) * SZ
    fringe = math.sin(delta) * (math.cos(gamma) * SX + math.sin(gamma) * SY)
    joint = {
        "11": 0.25 * (I2 - n),
        "21": 0.25 * (I2 + n),
        "12": 0.25 * (I2 + m),
        "22": 0.25 * (I2 - m),
    }
    marginals = {
        "F": {"1": 0.5 * (I2 + math.cos(delta) * SZ), "2": 0.5 * (I2 - math.cos(delta) * SZ)},
        "G": {"1": 0.5 * I2, "2": 0.5 * I2},
        "H": {"1": 0.5 * (I2 - fringe), "2": 0.5 * (I2 + fringe)},
    }
    return joint, marginals


def _quantitative_table(delta, theta):
    bias = math.cos(theta) * math.cos(delta)
    m = -math.sin(delta) * math.sin(theta) * SX + (math.cos(delta) + math.cos(theta)) * SZ
    n = -math.sin(delta) * math.sin(theta) * SX + (math.cos(delta) - math.cos(theta)) * SZ
    f_op = -math.sin(delta) * math.sin(theta) * SX + math.cos(delta) * SZ
    joint = {
        "11": 0.25 * ((1 + bias) * I2 + m),
        "21": 0.25 * ((1 - bias) * I2 - n),
        "12": 0.25 * ((1 - bias) * I2 + n),
        "22": 0.25 * ((1 + bias) * I2 - m),
    }
    marginals = {
        "F": {"1": 0.5 * (I2 + f_op), "2": 0.5 * (I2 - f_op)},
        "G": {"1": 0.5 * (I2 + math.cos(theta) * SZ), "2": 0.5 * (I2 - math.cos(theta) * SZ)},
        "H": {"1": 0.5 * (1 + bias) * I2, "2": 0.5 * (1 - bias) * I2},
    }
    return joint, marginals


def test_criterion_3_closed_form_audit():
    started = time.perf_counter()
    tables = {
        "marking": lambda d, g, t: _marking_table(d),
        "erasure": lambda d, g, t: _erasure_table(d, g),
        "quantitative": lambda d, g, t: _quantitative_table(d, t),
    }
    worst = 0.0
    for experiment, table in tables.items():
        for d, g, t in itertools.product(GRID, repeat=3):
            config = interferometer.MzConfig(experiment, delta=d, gamma=g, theta=t)
            measured = extraction.extract_effects(extraction.schemes_for([config]))
            joint_want, marginal_want = table(d, g, t)
            for label, want in joint_want.items():
                worst = max(worst, float(np.max(np.abs(measured[0, povm.JOINT_LABELS.index(label)] - want))))
            grouped = povm.joint_marginals(measured)[0]
            for name, group in zip("FGH", grouped):
                for effect, label in zip(group, ("1", "2")):
                    worst = max(worst, float(np.max(np.abs(effect - marginal_want[name][label]))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    conclude(3, ok, f"closed-form audit over the full angle grid (dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_oracle_probability_reproduction():
    worst = 0.0
    # Configurations identical after dropping inert angles build the same
    # scheme; one representative per distinct scheme is exhaustive.
    for config in verify.distinct_grid_configs():
        scheme = extraction.schemes_for([config])
        worst = max(worst, float(oracle.cross_check_stack(scheme, extraction.extract_effects(scheme), 42, 100)[0]))
    ok = worst <= 1e-12
    conclude(4, ok, f"direct and extracted probabilities agree (max dev {worst:.2e})")


def test_criterion_5_erasure_fringes_and_epr_weight():
    config = interferometer.MzConfig("erasure", delta=-math.pi / 2, gamma=0.0)
    measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
    fringes = extraction.conditional_probabilities(measured, "1", PLUS)
    antifringes = extraction.conditional_probabilities(measured, "2", PLUS)
    final = interferometer.final_state_stack(
        PLUS, interferometer.probe_stack([config]), [interferometer.effective_delta(config)]
    )[0]
    weight = linalg.schmidt_stack(final[None])[0][0]
    ok = (
        abs(fringes["1"] - 1.0) <= 1e-12
        and abs(fringes["2"]) <= 1e-12
        and abs(antifringes["1"]) <= 1e-12
        and abs(antifringes["2"] - 1.0) <= 1e-12
        and abs(weight - 0.5) <= 1e-12
    )
    conclude(5, ok, f"erasure fringes/antifringes with EPR weight {weight!r}")


def test_criterion_6_joint_measurability_grid():
    f, g = (v.ravel() for v in np.meshgrid(np.linspace(-1.0, 1.0, 101), np.linspace(-1.0, 1.0, 101)))
    admissible = f * f + g * g <= 1.0 + 1e-10
    effects, admitted = povm.joint_pair_effects(f[:, None] * (1.0, 0.0, 0.0), g[:, None] * (0.0, 0.0, 1.0))
    built = admitted & povm.classify_effects(effects).valid
    grouped = povm.joint_marginals(effects)
    u_f, u_g = povm.unsharpness_stack(grouped[:, 0]), povm.unsharpness_stack(grouped[:, 1])
    ok = bool((built == admissible).all() and (u_f + u_g >= 1.0 - 1e-12)[admissible].all())
    conclude(6, ok, "joint observable exists exactly on the unit disk; unsharpness trade-off holds")


def test_criterion_7_duality_relations(state_sample):
    ok = True
    for r in state_sample:
        rho = linalg.density_from_bloch(r)
        # The contrast-triple's lhs is C_P^2 + C_Ix^2 + C_Iy^2.
        squares = float(relations.state_relations_stack(rho[None])[3].lhs[0])
        if squares > 1.0 + 1e-12:
            ok = False
        purity = float(np.trace(rho @ rho).real)
        saturated = 1.0 - squares < 1e-10
        if saturated != (1.0 - purity < 1e-10):
            ok = False
        variance_sum = sum(variance(linalg.pauli(ax), rho) for ax in "xyz")
        if abs(variance_sum - (3.0 - float(r @ r))) > 1e-12:
            ok = False
    conclude(7, ok, "squared-contrast duality with equality exactly at purity 1")


def test_criterion_8_entropic_relations(state_sample):
    pvms = {ax: relations.pauli_pvm(ax) for ax in "xyz"}
    ok = True
    for r in state_sample:
        rho = linalg.density_from_bloch(r)
        h = {ax: shannon_entropy(pvms[ax], rho) for ax in "xyz"}
        if h["z"] + h["x"] < 1.0 - 1e-9:
            ok = False
        if h["x"] + h["y"] + h["z"] < 2.0 - 1e-9:
            ok = False
    for eigenstate in ([1, 0], [0, 1]):
        rho = linalg.projectors(eigenstate)
        pair = shannon_entropy(pvms["z"], rho) + shannon_entropy(pvms["x"], rho)
        triple = pair + shannon_entropy(pvms["y"], rho)
        if abs(pair - 1.0) > 1e-9 or abs(triple - 2.0) > 1e-9:
            ok = False
    conclude(8, ok, "entropic pair bound (1 bit) and triple bound (2 bits), attained at eigenstates")


def test_criterion_9_quantitative_erasure():
    rng = np.random.default_rng(42)
    inputs = []
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi / 2))
        weight = float(rng.random())
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = math.sqrt(weight)
        beta = math.sqrt(1.0 - weight) * np.exp(1j * phase)
        inputs.append((alpha, beta, *interferometer.marker_states(theta)))
    audit = relations.erasure_duality_stack(*zip(*inputs))
    ok = bool((np.abs(audit.duality.slack) <= 1e-9).all() and (np.abs(audit.variance_tradeoff.slack) <= 1e-9).all())
    p1, p2 = interferometer.marker_states(math.pi / 3)
    worked = relations.erasure_duality_stack([1 / math.sqrt(2)], [1 / math.sqrt(2)], [p1], [p2])
    if abs(worked.distinguishability[0] - 0.5) > 1e-12:
        ok = False
    if abs(worked.visibility[0] - math.sqrt(3) / 2) > 1e-12:
        ok = False
    conclude(9, ok, "D^2 + V_e^2 = 1 and the variance trade-off, with the worked tilt point exact")


def test_criterion_10_limit_case_complementarity():
    ok = True
    for theta, sharp_marginal in ((0.0, "probe"), (math.pi / 2, "detector")):
        config = interferometer.MzConfig("quantitative", delta=-math.pi / 2, theta=theta)
        effects = extraction.extract_effects(extraction.schemes_for([config]))
        # Rows 0 and 1: the detector (F) and probe (G) marginals.
        cls = povm.classify_effects(povm.joint_marginals(effects)[0], tol=1e-12)
        sharp, trivial = (1, 0) if sharp_marginal == "probe" else (0, 1)
        if not (cls.valid[sharp] and cls.sharp[sharp] and cls.valid[trivial] and cls.trivial[trivial]):
            ok = False
    conclude(10, ok, "sharp path marking kills interference and vice versa, exactly")


def test_criterion_11_verify_determinism(capsys):
    started = time.perf_counter()
    first_code = cli.main(["verify", "--seed", "42"])
    first = capsys.readouterr().out
    single_run = time.perf_counter() - started
    second_code = cli.main(["verify", "--seed", "42"])
    second = capsys.readouterr().out
    ok = first_code == 0 and second_code == 0 and first == second and single_run < 60.0
    with capsys.disabled():
        conclude(
            11,
            ok,
            f"verify --seed 42 is byte-identical across runs and finishes in {single_run:.1f}s",
        )
