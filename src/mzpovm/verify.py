"""The runnable invariant suite behind ``mzpovm verify``.

Each check exercises one module contract or one oracle cross-check and
reports its worst observed deviation. Checks fall into two classes:

* structural invariants, asserted at the tolerances the contracts fix
  (these do not move with the user-supplied tolerance);
* exactness checks (closed-form agreement, probability reproduction,
  POVM normalization of extracted observables), asserted at the
  user-supplied ``tol``. Their true deviations sit at the floating-point
  noise floor (~1e-16), so a tol below that floor fails by design.

Everything is driven by one seed; two runs with the same arguments
produce byte-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import complementarity, extraction, interferometer, linalg, oracle, povm, relations

ANGLE_GRID = (0.0, math.pi / 6.0, -math.pi / 6.0, math.pi / 4.0, -math.pi / 4.0,
              math.pi / 2.0, -math.pi / 2.0, math.pi)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    detail: str = ""


def _result(name: str, deviation: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(deviation <= bound), deviation=float(deviation), detail=detail)


def _random_bloch_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(n) ** (1.0 / 3.0)
    return direction * radius[:, None]


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def distinct_grid_configs() -> list[interferometer.MzConfig]:
    # Configurations that differ only in angles an experiment ignores
    # build byte-identical schemes; evaluating one representative per
    # distinct scheme keeps grid sweeps exhaustive without duplicate work.
    configs: list[interferometer.MzConfig] = []
    seen = set()
    for experiment in interferometer.EXPERIMENTS:
        read = interferometer.ANGLES_READ[experiment]
        for d, g, t in itertools.product(ANGLE_GRID, repeat=3):
            config = interferometer.MzConfig(experiment, delta=d, gamma=g, theta=t)
            key = (
                experiment,
                interferometer.effective_delta(config),
                g if "gamma" in read else None,
                t if "theta" in read else None,
            )
            if key not in seen:
                seen.add(key)
                configs.append(config)
    return configs


def check_pauli_algebra() -> CheckResult:
    worst = 0.0
    for i, a in enumerate("xyz"):
        for j, b in enumerate("xyz"):
            sa, sb = linalg.pauli(a), linalg.pauli(b)
            anti = sa @ sb + sb @ sa
            expected = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            worst = max(worst, float(np.max(np.abs(anti - expected))))
    return _result("pauli-algebra", worst, 1e-14)


def check_bloch_round_trip(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 101])
    worst = 0.0
    for r in _random_bloch_ball(rng, 1000):
        back = linalg.bloch_from_density(linalg.density_from_bloch(r))
        worst = max(worst, float(np.max(np.abs(back - r))))
    return _result("bloch-round-trip", worst, 1e-12)


def check_partial_trace_product(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 102])
    worst = 0.0
    for _ in range(100):
        psi = oracle.haar_vector(rng)
        phi = oracle.haar_vector(rng)
        reduced = linalg.partial_trace_probe(np.kron(psi, phi))
        worst = max(worst, float(np.max(np.abs(reduced - np.outer(psi, psi.conj())))))
    return _result("partial-trace-product", worst, 1e-12)


def check_eig_reconstruction(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 103])
    worst = 0.0
    for k in range(1000):
        n = 2 if k % 2 == 0 else 4
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (g + g.conj().T)
        rec = np.zeros((n, n), dtype=complex)
        for ev, vec in linalg.eig_hermitian(h):
            rec += ev * np.outer(vec, vec.conj())
        worst = max(worst, float(np.max(np.abs(rec - h))))
    return _result("eig-reconstruction", worst, 1e-11)


def check_schmidt_separability(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 104])
    worst = 0.0
    ok = True
    for k in range(60):
        if k % 2 == 0:
            vec = np.kron(oracle.haar_vector(rng), oracle.haar_vector(rng))
            expected_variance = 0.0
        else:
            w = float(rng.uniform(0.55, 0.95))
            psi = oracle.haar_vector(rng)
            phi = oracle.haar_vector(rng)
            vec = math.sqrt(w) * np.kron(psi, phi) + math.sqrt(1.0 - w) * np.kron(
                linalg.perp(psi), linalg.perp(phi)
            )
            expected_variance = 4.0 * w * (1.0 - w)
        dec = linalg.schmidt(vec)
        worst = max(worst, float(np.max(np.abs(dec.reconstruct() - vec))))
        variance = linalg.adapted_observable_variance(vec)
        worst = max(worst, abs(variance - expected_variance))
        truncated = math.sqrt(dec.weight) * np.kron(dec.photon_pair[0], dec.probe_pair[0])
        is_product = float(np.linalg.norm(vec - truncated)) <= 1e-8
        if (variance <= 1e-8) != (expected_variance == 0.0) or is_product != (expected_variance == 0.0):
            ok = False
    res = _result("schmidt-separability", worst, 1e-10)
    return CheckResult(res.name, res.passed and ok, res.deviation, res.detail)


def check_smear_validity(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 105])
    axes, weights = [], []
    for _ in range(1000):
        axes.append(_random_unit(rng))
        rows = int(rng.integers(2, 5))
        w = rng.random((rows, 2)) + 1e-3
        w /= w.sum(axis=0, keepdims=True)
        weights.append(w)
    sx, sy, sz = linalg.pauli_triple()
    worst = 0.0
    ok = True
    # One smear, one classification and one commutator pass per row count.
    for rows in (2, 3, 4):
        members = [n for n, w in enumerate(weights) if len(w) == rows]
        a = np.array([axes[n] for n in members])[:, :, None, None]
        op = a[:, 0] * sx + a[:, 1] * sy + a[:, 2] * sz
        pvms = np.stack([0.5 * (np.eye(2) + op), 0.5 * (np.eye(2) - op)], axis=1)
        smeared = povm.smear_stack(pvms, np.array([weights[n] for n in members]))
        ok = ok and bool(povm.classify_effects(smeared).valid.all())
        i, j = np.triu_indices(rows, 1)
        left, right = smeared[:, i], smeared[:, j]
        worst = max(worst, float(np.max(np.abs(left @ right - right @ left))))
    res = _result("smear-commutative", worst, 1e-12)
    return CheckResult(res.name, res.passed and ok, res.deviation, res.detail)


def check_joint_marginality(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 106])
    sx, _, sz = linalg.pauli_triple()
    worst = 0.0
    for _ in range(200):
        angle = rng.random() * 2.0 * math.pi
        scale = math.sqrt(rng.random())
        pair = povm.UnsharpPair(scale * math.cos(angle), scale * math.sin(angle))
        joint = povm.joint_xz(pair)
        first = povm.marginal(joint, povm.JOINT_FIRST_INDEX_GROUPING)
        second = povm.marginal(joint, povm.JOINT_SECOND_INDEX_GROUPING)
        for sign, label in ((1.0, "1"), (-1.0, "2")):
            worst = max(
                worst,
                float(np.max(np.abs(first.operator(label) - 0.5 * (np.eye(2) + sign * pair.f * sx)))),
                float(np.max(np.abs(second.operator(label) - 0.5 * (np.eye(2) + sign * pair.g * sz)))),
            )
    return _result("joint-marginality", worst, 1e-14)


def check_joint_iff_grid() -> CheckResult:
    values = np.linspace(-1.0, 1.0, 101)
    mismatches = 0
    # One stacked build and classification per grid row keeps temporaries small.
    for f in values:
        effects, admitted = povm.joint_xz_effects(np.full_like(values, f), values)
        built = admitted & povm.classify_effects(effects).valid
        admissible = f * f + values * values <= 1.0 + 1e-10
        measurable = [povm.jointly_measurable(povm.UnsharpPair(float(f), float(g))) for g in values]
        mismatches += int(np.sum((built != admissible) | (measurable != admissible)))
    return _result("joint-iff-grid", float(mismatches), 0.0)


def _contrast_objective(diff: np.ndarray):
    """r -> |tr[rho(r) diff]| for a 2x2 ``diff``, on floats.

    With rho(r) = (I + r . sigma) / 2 written out entrywise,
    tr[rho(r) diff] = c0 + cx x + cy y + cz z. The coefficients are read
    off the matrix entries, not from ``povm.bias_and_direction``, which the
    closed form under test is built on.
    """
    (d00, d01), (d10, d11) = diff.tolist()
    c0 = 0.5 * (d00 + d11).real
    cx = 0.5 * (d01 + d10).real
    cy = 0.5 * (d10 - d01).imag
    cz = 0.5 * (d00 - d11).real

    def objective(r):
        x, y, z = r.tolist()
        return abs(c0 + cx * x + cy * y + cz * z)

    return objective


def check_contrast_oracle(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 107])
    cfg = oracle.OracleConfig(seed=seed, samples=1, grid_resolution=math.pi / 16.0)
    worst = 0.0
    for _ in range(50):
        u_dir = _random_unit(rng)
        u_len = rng.random()
        b = (1.0 - u_len) * (2.0 * rng.random() - 1.0)
        e1 = 0.5 * ((1.0 + b) * np.eye(2) + u_len * sum(u_dir[i] * s for i, s in enumerate(linalg.pauli_triple())))
        p = povm.DiscretePovm.from_pairs([("1", e1), ("2", np.eye(2) - e1)])
        diff = p.effects[0].operator - p.effects[1].operator
        best, _ = oracle.grid_maximize(_contrast_objective(diff), cfg)
        worst = max(worst, abs(best - povm.contrast(p)))
    return _result("contrast-oracle", worst, 1e-6)


def check_unsharpness_trade_off(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 108])
    worst = 0.0
    for _ in range(500):
        angle = rng.random() * 2.0 * math.pi
        scale = math.sqrt(rng.random())
        pair = povm.UnsharpPair(scale * math.cos(angle), scale * math.sin(angle))
        joint = povm.joint_xz(pair)
        u_f = povm.unsharpness(povm.marginal(joint, povm.JOINT_FIRST_INDEX_GROUPING))
        u_g = povm.unsharpness(povm.marginal(joint, povm.JOINT_SECOND_INDEX_GROUPING))
        worst = max(worst, 1.0 - (u_f + u_g))
    return _result("unsharpness-trade-off", max(0.0, worst), 1e-12)


def check_mub_fourier(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 109])
    failures = 0
    for dim in range(2, 9):
        for _ in range(5):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(g)
            basis = complementarity.OrthonormalBasis(q.T)
            partner = complementarity.fourier_partner(basis)
            if not complementarity.is_mutually_unbiased(basis, partner, tol=1e-9):
                failures += 1
    return _result("mub-fourier", float(failures), 0.0)


def check_projection_meets() -> CheckResult:
    # Spectral form of the meet rule, vectorized over the sweep: two
    # rank-1 qubit projections share an eigenvalue-2 direction of P + Q
    # exactly when they coincide.
    thetas = np.linspace(0.0, math.pi, 180)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    directions = np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
    ).reshape(-1, 3)
    fixed = np.array([0.0, 0.0, 1.0])
    cos_angle = directions @ fixed
    # tr(PQ) = (1 + cos angle) / 2 for rank-1 projections.
    overlap = 0.5 * (1.0 + cos_angle)
    predicted = (overlap > 1e-9) & (overlap < 1.0 - 1e-9)
    # Meet-based evaluation: lambda_max(P+Q) = 1 + |cos(angle/2)| via the
    # closed form; an eigenvalue-2 appears only at angle 0 for P^Q, and
    # the complement pairs move the coincidence to angle pi.
    lam_pq = 1.0 + np.sqrt(np.clip(overlap, 0.0, 1.0))
    lam_pqc = 1.0 + np.sqrt(np.clip(1.0 - overlap, 0.0, 1.0))
    spectral = ~((lam_pq >= 2.0 - 1e-8) | (lam_pqc >= 2.0 - 1e-8))
    mismatches = int(np.sum(spectral != predicted))
    # API route on a subsample, including the exact coincidence cases.
    p_op = 0.5 * (np.eye(2, dtype=complex) + linalg.pauli("z"))
    for k in range(0, len(directions), 2000):
        d = directions[k] / np.linalg.norm(directions[k])
        q_op = linalg.density_from_bloch(d)  # rank-1 projection for unit d
        got = complementarity.probabilistically_complementary(p_op, q_op)
        ov = 0.5 * (1.0 + float(d @ fixed))
        if got != (1e-9 < ov < 1.0 - 1e-9):
            mismatches += 1
    return _result("projection-meets", float(mismatches), 0.0)


def check_mz_unitarity(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 110])
    worst = 0.0
    for delta in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 1000):
        u = interferometer.mz_evolution(float(delta))
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
    return _result("mz-unitarity", worst, 1e-14)


def check_marking_unitary(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 111])
    worst = 0.0
    for _ in range(200):
        probes = interferometer.ProbeTriple(
            p0=oracle.haar_vector(rng), p1=oracle.haar_vector(rng), p2=oracle.haar_vector(rng)
        )
        u = interferometer.marking_unitary(probes)
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(4)))))
        for k, pk in ((1, probes.p1), (2, probes.p2)):
            e = np.zeros(2, dtype=complex)
            e[k - 1] = 1.0
            out = u @ np.kron(e, probes.p0)
            worst = max(worst, float(np.max(np.abs(out - np.kron(e, pk)))))
    return _result("marking-unitary", worst, 1e-12)


def check_final_state_norm() -> CheckResult:
    worst = 0.0
    # final_state reads only the fields distinct_grid_configs keys on, so no state is missed.
    for config in distinct_grid_configs():
        probes = interferometer.probes_for(config)
        psi = np.array([0.6, 0.8j])
        out = interferometer.final_state(psi, probes, config)
        worst = max(worst, abs(float(np.linalg.norm(out)) - 1.0))
    return _result("final-state-norm", worst, 1e-12)


def check_completion_independence(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 112])
    worst = 0.0
    for _ in range(40):
        probes = interferometer.ProbeTriple(
            p0=oracle.haar_vector(rng), p1=oracle.haar_vector(rng), p2=oracle.haar_vector(rng)
        )
        delta = float(rng.uniform(-math.pi, math.pi))
        pointer = interferometer.pointer_basis(interferometer.MzConfig("marking"))
        base = extraction.extract_povm(extraction.build_scheme(probes, delta, pointer))
        # Alternative completion: extra phases on the perp channel.
        phase1, phase2 = np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
        alt_blocks = []
        for pk, ph in ((probes.p1, phase1), (probes.p2, phase2)):
            alt_blocks.append(
                np.outer(pk, probes.p0.conj())
                + ph * np.outer(linalg.perp(pk), linalg.perp(probes.p0).conj())
            )
        alt_mark = np.zeros((4, 4), dtype=complex)
        alt_mark[:2, :2] = alt_blocks[0]
        alt_mark[2:, 2:] = alt_blocks[1]
        alt_unitary = np.kron(interferometer.mz_evolution(delta), np.eye(2)) @ alt_mark
        alt_scheme = extraction.MeasurementScheme(
            unitary=alt_unitary,
            probe_init=probes.p0,
            outputs=extraction.build_scheme(probes, delta, pointer).outputs,
        )
        alt = extraction.extract_povm(alt_scheme)
        for label in base.labels:
            worst = max(worst, float(np.max(np.abs(base.operator(label) - alt.operator(label)))))
    return _result("completion-independence", worst, 1e-12)


def extraction_grid_checks(tol: float) -> list[CheckResult]:
    """Positivity, normalization and closed-form agreement in one grid pass."""
    psd_worst = 0.0
    norm_worst = 0.0
    agree_worst = 0.0
    for config in distinct_grid_configs():
        measured = extraction.extract_povm(extraction.scheme_for(config))
        ops = np.array([e.operator for e in measured.effects])
        low = float(linalg.eigvals_hermitian(ops)[:, -1].min())
        psd_worst = max(psd_worst, max(0.0, -low))
        norm_worst = max(norm_worst, float(np.max(np.abs(ops.sum(axis=0) - np.eye(2)))))
        if config.experiment in ("path", "interference"):
            continue
        analytic = extraction.closed_form(config)
        for label in measured.labels:
            agree_worst = max(
                agree_worst,
                float(np.max(np.abs(measured.operator(label) - analytic.joint.operator(label)))),
            )
        grouped = extraction.marginals_of(measured)
        for got, want in (
            (grouped.detector, analytic.detector),
            (grouped.probe, analytic.probe),
            (grouped.coincidence, analytic.coincidence),
        ):
            for label in got.labels:
                agree_worst = max(
                    agree_worst, float(np.max(np.abs(got.operator(label) - want.operator(label))))
                )
    return [
        _result("extraction-positivity", psd_worst, 1e-10),
        _result("extraction-normalization", norm_worst, max(tol, 0.0)),
        _result("closed-form-agreement", agree_worst, tol),
    ]


def check_probability_reproduction(seed: int, samples: int, tol: float) -> CheckResult:
    cfg = oracle.OracleConfig(seed=seed, samples=samples)
    worst = 0.0
    for config in distinct_grid_configs():
        worst = max(worst, oracle.cross_check(config, cfg))
    return _result("probability-reproduction", worst, tol)


def check_pointer_freedom(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 113])
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        delta = float(rng.uniform(-math.pi, math.pi))
        p1, p2 = interferometer.marker_states(theta)
        probes = interferometer.ProbeTriple(p0=np.array([1.0, 0.0]), p1=p1, p2=p2)
        r1 = oracle.haar_vector(rng)
        r2 = linalg.perp(r1)
        scheme = extraction.build_scheme(probes, delta, (r1, r2))
        grouped = extraction.marginals_of(extraction.extract_povm(scheme))
        b1, u1 = povm.bias_and_direction(grouped.probe.operator("1"))
        b2, u2 = povm.bias_and_direction(grouped.probe.operator("2"))
        worst = max(worst, float(np.max(np.abs(u1 + u2))))
        worst = max(worst, abs(b1 + b2))
        worst = max(worst, abs(u1[0]), abs(u1[1]))  # path type: along z only
    return _result("pointer-freedom", worst, 1e-10)


def check_state_relations(seed: int, samples: int) -> CheckResult:
    rng = np.random.default_rng([seed, 114])
    half = max(1000, 10 * samples)
    blochs = _random_bloch_ball(rng, half)
    pure_dirs = rng.standard_normal((half, 3))
    pure_dirs /= np.linalg.norm(pure_dirs, axis=1, keepdims=True)
    rs = np.concatenate([blochs, pure_dirs])
    rhos = np.array([linalg.density_from_bloch(r) for r in rs])
    r2 = np.sum(rs * rs, axis=1)
    report = relations.variance_ur_stack(rhos)
    entropy_triple, var_triple, contrast_triple = relations.triple_relations_stack(rhos)
    worst = max(
        float(np.max(np.abs(report.slack - (1.0 - r2)))),
        float(np.max(np.abs(var_triple.lhs - (3.0 - r2)))),
        float(np.max(np.abs(contrast_triple.lhs - r2))),
    )
    ok = bool(
        np.all(report.slack >= -1e-12)
        and np.all(contrast_triple.lhs <= 1.0 + 1e-12)
        and np.all(entropy_triple.lhs >= 2.0 - 1e-9)
    )
    res = _result("state-relations", worst, 1e-10)
    return CheckResult(res.name, res.passed and ok, res.deviation, res.detail)


def check_entropic_bound(seed: int, samples: int) -> CheckResult:
    sz_pvm = relations.pauli_pvm("z")
    sx_pvm = relations.pauli_pvm("x")
    rng = np.random.default_rng([seed, 117])
    count = max(2000, 20 * samples)
    z = rng.standard_normal((count, 4))
    states = z[:, 0::2] + 1j * z[:, 1::2]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    eigenstates = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)]
    report = relations.entropic_bound_stack(sz_pvm, sx_pvm, np.vstack([states, eigenstates]))
    worst_violation = max(0.0, float(np.max(-report.slack)))
    lowest = float(np.min(report.lhs))
    passed = worst_violation <= 1e-9 and abs(lowest - 1.0) <= 1e-3
    return CheckResult("entropic-bound", passed, worst_violation, f"min lhs {lowest:.6f}")


def check_erasure_duality(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 115])
    alphas, betas, p1s, p2s = [], [], [], []
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        weight = rng.random()
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        alphas.append(math.sqrt(weight))
        betas.append(math.sqrt(1.0 - weight) * np.exp(1j * phase))
        p1, p2 = interferometer.marker_states(theta)
        p1s.append(p1)
        p2s.append(p2)
    audit = relations.erasure_duality_stack(alphas, betas, p1s, p2s)
    worst = float(max(np.max(np.abs(audit.duality.slack)), np.max(np.abs(audit.variance_tradeoff.slack))))
    return _result("erasure-duality", worst, 1e-9)


def check_limit_complementarity() -> CheckResult:
    failures = 0
    sharp_g = extraction.closed_form(
        interferometer.MzConfig("quantitative", delta=-math.pi / 2.0, theta=0.0)
    )
    cls_f = povm.validate(sharp_g.detector, tol=1e-12)
    cls_g = povm.validate(sharp_g.probe, tol=1e-12)
    if not (cls_f.valid and cls_f.trivial and cls_g.valid and cls_g.sharp):
        failures += 1
    sharp_f = extraction.closed_form(
        interferometer.MzConfig("quantitative", delta=-math.pi / 2.0, theta=math.pi / 2.0)
    )
    cls_f = povm.validate(sharp_f.detector, tol=1e-12)
    cls_g = povm.validate(sharp_f.probe, tol=1e-12)
    if not (cls_f.valid and cls_f.sharp and cls_g.valid and cls_g.trivial):
        failures += 1
    return _result("limit-complementarity", float(failures), 0.0)


def _correct_prob_objective(evidence: np.ndarray):
    """r -> (1 + r . evidence) / 2, the success probability of the pointer guess along r."""
    ex, ey, ez = evidence.tolist()

    def objective(r):
        x, y, z = r.tolist()
        return 0.5 * (1.0 + (x * ex + y * ey + z * ez))

    return objective


def _equatorial_objective(rho_e: np.ndarray):
    """r -> |tr[rho_e (n . sigma)]| for the unit equatorial direction n along (x, y)."""
    sx, sy, _ = linalg.pauli_triple()
    ex = float(np.trace(rho_e @ sx).real)
    ey = float(np.trace(rho_e @ sy).real)

    def objective(r):
        x, y, _ = r.tolist()
        planar = math.hypot(x, y)
        if planar < 1e-12:
            return 0.0
        return abs(ex * (x / planar) + ey * (y / planar))

    return objective


def check_grid_maximize_agreement(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 116])
    cfg = oracle.OracleConfig(seed=seed, samples=1)
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        weight = rng.random()
        alpha = math.sqrt(weight)
        beta = math.sqrt(1.0 - weight)
        p1, p2 = interferometer.marker_states(theta)
        b1, b2 = linalg.bloch_from_state(p1), linalg.bloch_from_state(p2)
        evidence = alpha**2 * b1 - beta**2 * b2
        best, _ = oracle.grid_maximize(_correct_prob_objective(evidence), cfg)
        inference = relations.distinguishability(alpha, beta, p1, p2)
        worst = max(worst, abs(best - inference.max_correct_probability))

        rho_e = linalg.partial_trace_probe(relations.marked_state(alpha, beta, p1, p2))
        best_v, _ = oracle.grid_maximize(_equatorial_objective(rho_e), cfg)
        worst = max(worst, abs(best_v - relations.visibility_reduced(rho_e).value))
    return _result("grid-maximize-agreement", worst, 1e-6)


def check_determinism(seed: int, samples: int) -> CheckResult:
    first = [oracle.haar_state(seed, i) for i in range(min(samples, 50))]
    second = [oracle.haar_state(seed, i) for i in range(min(samples, 50))]
    identical = all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    config = interferometer.MzConfig("erasure", delta=-math.pi / 2.0, gamma=0.3)
    scheme = extraction.scheme_for(config)
    rep1 = repr(oracle.direct_probabilities(scheme, first[0]))
    rep2 = repr(oracle.direct_probabilities(scheme, second[0]))
    return CheckResult("determinism", identical and rep1 == rep2, 0.0 if identical else 1.0)


def run_all(seed: int = 42, samples: int = 100, tol: float = 1e-10) -> list[CheckResult]:
    """Run every module invariant plus all oracle cross-checks."""
    return [
        check_pauli_algebra(),
        check_bloch_round_trip(seed),
        check_partial_trace_product(seed),
        check_eig_reconstruction(seed),
        check_schmidt_separability(seed),
        check_smear_validity(seed),
        check_joint_marginality(seed),
        check_joint_iff_grid(),
        check_contrast_oracle(seed),
        check_unsharpness_trade_off(seed),
        check_mub_fourier(seed),
        check_projection_meets(),
        check_mz_unitarity(seed),
        check_marking_unitary(seed),
        check_final_state_norm(),
        check_completion_independence(seed),
        *extraction_grid_checks(tol),
        check_probability_reproduction(seed, samples, tol),
        check_pointer_freedom(seed),
        check_state_relations(seed, samples),
        check_entropic_bound(seed, samples),
        check_erasure_duality(seed),
        check_limit_complementarity(),
        check_grid_maximize_agreement(seed),
        check_determinism(seed, samples),
    ]


def format_table(results: list[CheckResult], seed: int, samples: int, tol: float) -> str:
    lines = [f"seed={seed} samples={samples} tol={tol!r}"]
    lines.append(f"{'check':32s} {'status':6s} {'max-deviation':>13s}")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        lines.append(f"{r.name:32s} {status:6s} {r.deviation:13.3e}{detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{len(results)} checks: {passed} passed, {len(results) - passed} failed")
    return "\n".join(lines)
