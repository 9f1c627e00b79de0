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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import complementarity, extraction, interferometer, linalg, oracle, povm, relations

ANGLE_GRID = (0.0, math.pi / 6.0, -math.pi / 6.0, math.pi / 4.0, -math.pi / 4.0,
              math.pi / 2.0, -math.pi / 2.0, math.pi)
# States per pass of the relation kernels: bounds the temporaries of a large
# sample. At the default samples each relation check is one pass (the
# entropic bound evaluates 2,004 states).
RELATION_STACK = 2048


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    detail: str = ""


def _result(name: str, deviation: float, bound: float, ok: bool = True, detail: str = "") -> CheckResult:
    # ``ok`` carries a check's verdicts other than the bound on its deviation.
    return CheckResult(name=name, passed=bool(deviation <= bound and ok), deviation=float(deviation), detail=detail)


def _random_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction


def _random_bloch_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    ball = _random_directions(rng, n)
    ball *= (rng.random(n) ** (1.0 / 3.0))[:, None]
    return ball


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    # Generator.uniform(low, high) from random() draws u, scaled the way
    # numpy scales one draw, so a batched draw replays interleaved calls.
    return low + (high - low) * u


def _marker_stacks(thetas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    # interferometer.marker_states over a list of tilts; math.cos and
    # math.sin keep the markers independent of numpy's SIMD dispatch.
    c = np.array([math.cos(t / 2.0) for t in thetas], dtype=complex)
    s = np.array([math.sin(t / 2.0) for t in thetas], dtype=complex)
    return np.stack([c, s], axis=1), np.stack([s, c], axis=1)


@functools.cache
def distinct_grid_configs() -> tuple[interferometer.MzConfig, ...]:
    # Configurations that differ only in angles an experiment ignores
    # build byte-identical schemes; evaluating one representative per
    # distinct scheme keeps grid sweeps exhaustive without duplicate work.
    # The key holds only the angles the experiment reads (path and
    # interference pin delta), so each representative is built once. A
    # constant of ANGLE_GRID, built once per process.
    configs = []
    seen = set()
    for experiment in interferometer.EXPERIMENTS:
        read = interferometer.ANGLES_READ[experiment]
        for d, g, t in itertools.product(ANGLE_GRID, repeat=3):
            key = (
                experiment,
                d if "delta" in read else None,
                g if "gamma" in read else None,
                t if "theta" in read else None,
            )
            if key not in seen:
                seen.add(key)
                configs.append(interferometer.MzConfig(experiment, delta=d, gamma=g, theta=t))
    return tuple(configs)


def _readout_groups(configs) -> list[list[interferometer.MzConfig]]:
    # One scheme stack holds one readout: detectors alone (two outputs)
    # or detectors with a probe pointer (four outputs).
    detector_only = [c for c in configs if c.experiment in interferometer.DETECTOR_ONLY]
    with_pointer = [c for c in configs if c.experiment not in interferometer.DETECTOR_ONLY]
    return [group for group in (detector_only, with_pointer) if group]


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
    r = _random_bloch_ball(rng, 1000)
    back = linalg.bloch_from_density_stack(linalg.density_from_bloch_stack(r))
    return _result("bloch-round-trip", float(np.max(np.abs(back - r))), 1e-12)


def check_partial_trace_product(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 102])
    # Each sample draws psi then phi; one batched draw replays that order.
    pairs = oracle.haar_vectors(rng, 200).reshape(100, 2, 2)
    psi, phi = pairs[:, 0], pairs[:, 1]
    reduced = linalg.partial_trace_probe_stack(linalg.kron_rows(psi, phi))
    worst = float(np.max(np.abs(reduced - linalg.projectors(psi))))
    return _result("partial-trace-product", worst, 1e-12)


def check_eig_reconstruction(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 103])
    # Samples alternate 2x2 and 4x4, each drawing its real then its
    # imaginary part: 40 normals per pair of samples, replayed in one draw.
    z = rng.standard_normal((500, 40))
    worst = 0.0
    for n, parts in ((2, z[:, :8]), (4, z[:, 8:])):
        parts = parts.reshape(500, 2, n, n)
        g = parts[:, 0] + 1j * parts[:, 1]
        h = 0.5 * (g + g.conj().swapaxes(-1, -2))
        values, vectors = linalg.eig_hermitian_stack(h)
        rec = np.zeros_like(h)
        # Sum lambda_k v_k v_k^dagger in descending order of lambda_k.
        for k in range(n):
            rec += values[:, k, None, None] * linalg.projectors(vectors[:, k])
        worst = max(worst, float(np.max(np.abs(rec - h))))
    return _result("eig-reconstruction", worst, 1e-11)


def check_schmidt_separability(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 104])
    # Even samples are products; odd ones draw a weight, then psi and phi.
    # The draws interleave two distributions, so they stay in a loop.
    product = np.arange(60) % 2 == 0
    weights = np.ones(60)
    psi = np.empty((60, 2), dtype=complex)
    phi = np.empty((60, 2), dtype=complex)
    for k in range(60):
        if not product[k]:
            weights[k] = rng.uniform(0.55, 0.95)
        psi[k] = oracle.haar_vector(rng)
        phi[k] = oracle.haar_vector(rng)
    entangled = np.sqrt(weights)[:, None] * linalg.kron_rows(psi, phi) + np.sqrt(1.0 - weights)[:, None] * linalg.kron_rows(
        linalg.perp(psi), linalg.perp(phi)
    )
    vecs = np.where(product[:, None], linalg.kron_rows(psi, phi), entangled)
    expected_variance = np.where(product, 0.0, 4.0 * weights * (1.0 - weights))
    terms = linalg.schmidt_terms(*linalg.schmidt_stack(vecs))
    variance = linalg.adapted_observable_variance_stack(vecs)
    worst = max(
        float(np.max(np.abs(terms.sum(axis=1) - vecs))),
        float(np.max(np.abs(variance - expected_variance))),
    )
    is_product = np.linalg.norm(vecs - terms[:, 0], axis=1) <= 1e-8
    ok = bool(np.all((variance <= 1e-8) == product) and np.all(is_product == product))
    return _result("schmidt-separability", worst, 1e-10, ok)


def check_smear_validity(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 105])
    # Each sample draws an axis, a row count and that many weight rows; the
    # draws interleave three distributions, so they stay in a loop.
    axes, weights = [], []
    for _ in range(1000):
        axes.append(rng.standard_normal(3))
        weights.append(rng.random((int(rng.integers(2, 5)), 2)))
    axes = np.array(axes)
    axes /= linalg.vector_norms(axes)[:, None]
    sx, sy, sz = linalg.pauli_triple()
    worst = 0.0
    ok = True
    # One smear, one classification and one commutator pass per row count.
    for rows in (2, 3, 4):
        members = [n for n, w in enumerate(weights) if len(w) == rows]
        w = np.array([weights[n] for n in members]) + 1e-3
        w /= w.sum(axis=1, keepdims=True)
        a = axes[members][:, :, None, None]
        op = a[:, 0] * sx + a[:, 1] * sy + a[:, 2] * sz
        pvms = np.stack([0.5 * (np.eye(2) + op), 0.5 * (np.eye(2) - op)], axis=1)
        smeared = povm.smear_stack(pvms, w)
        ok = ok and bool(povm.classify_effects(smeared).valid.all())
        i, j = np.triu_indices(rows, 1)
        left, right = smeared[:, i], smeared[:, j]
        worst = max(worst, float(np.max(np.abs(left @ right - right @ left))))
    return _result("smear-commutative", worst, 1e-12, ok)


def _random_unsharp_pairs(rng: np.random.Generator, n: int):
    # Each sample draws an angle, then a squared scale: one batched draw
    # replays the per-sample order. math.cos and math.sin keep the pairs
    # independent of numpy's SIMD dispatch. Returns the joint effects of
    # the sigma_x / sigma_z pairs and whether all were admitted as valid POVMs.
    u = rng.random((n, 2))
    angle = (u[:, 0] * 2.0 * math.pi).tolist()
    scale = np.sqrt(u[:, 1])
    f = scale * np.array([math.cos(a) for a in angle])
    g = scale * np.array([math.sin(a) for a in angle])
    effects, admitted = povm.joint_pair_effects(f[:, None] * (1.0, 0.0, 0.0), g[:, None] * (0.0, 0.0, 1.0))
    valid = povm.classify_effects(effects).valid
    return f, g, effects, bool(admitted.all() and valid.all())


def check_joint_marginality(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 106])
    sx, _, sz = linalg.pauli_triple()
    f, g, effects, admitted = _random_unsharp_pairs(rng, 200)
    marginals = povm.joint_marginals(effects)
    worst = 0.0
    for param, axis, got in ((f, sx, marginals[:, 0]), (g, sz, marginals[:, 1])):
        # Outcome "1" carries +param, outcome "2" -param.
        want = 0.5 * (np.eye(2) + (param[:, None] * np.array([1.0, -1.0]))[..., None, None] * axis)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return _result("joint-marginality", worst, 1e-14, admitted)


def check_joint_iff_grid() -> CheckResult:
    values = np.linspace(-1.0, 1.0, 101)
    f, g = (a.ravel() for a in np.meshgrid(values, values, indexing="ij"))
    admissible = f * f + g * g <= 1.0 + 1e-10
    a, b = f[:, None] * (1.0, 0.0, 0.0), g[:, None] * (0.0, 0.0, 1.0)
    built = np.empty(f.shape, dtype=bool)
    # Stacked builds and classifications in blocks keep temporaries small.
    for start in range(0, f.size, 1024):
        block = slice(start, start + 1024)
        effects, admitted = povm.joint_pair_effects(a[block], b[block])
        built[block] = admitted & povm.classify_effects(effects).valid
    mismatches = int(np.sum(built != admissible))
    return _result("joint-iff-grid", float(mismatches), 0.0)


def _contrast_objective(diff: np.ndarray):
    """(points, rows) -> |tr[rho(r) diff_n]| for an (N, 2, 2) stack ``diff``, n = rows.

    With rho(r) = (I + r . sigma) / 2 written out entrywise,
    tr[rho(r) diff] = c0 + cx x + cy y + cz z. The coefficients are read
    off the matrix entries, not from ``povm.bias_and_direction_stack``,
    which the closed form under test is built on.
    """
    re, im = diff.real, diff.imag
    c0 = 0.5 * (re[:, 0, 0] + re[:, 1, 1])
    cx = 0.5 * (re[:, 0, 1] + re[:, 1, 0])
    cy = 0.5 * (im[:, 1, 0] - im[:, 0, 1])
    cz = 0.5 * (re[:, 0, 0] - re[:, 1, 1])

    def objective(points, rows):
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        return np.abs(c0[rows] + cx[rows] * x + cy[rows] * y + cz[rows] * z)

    return objective


def check_contrast_oracle(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 107])
    # Each sample draws a direction, a length and a bias; the draws
    # interleave two distributions, so they stay in a loop.
    u_dir, u_len, bias = [], [], []
    for _ in range(50):
        u_dir.append(_random_unit(rng))
        u_len.append(rng.random())
        bias.append(rng.random())
    u_dir = np.array(u_dir)
    u_len = np.array(u_len)[:, None, None]
    b = (1.0 - u_len) * (2.0 * np.array(bias)[:, None, None] - 1.0)
    along = sum(u_dir[:, i, None, None] * s for i, s in enumerate(linalg.pauli_triple()))
    e1 = 0.5 * ((1.0 + b) * np.eye(2) + u_len * along)
    effects = np.stack([e1, np.eye(2) - e1], axis=1)
    best, _ = oracle.grid_maximize_stack(_contrast_objective(effects[:, 0] - effects[:, 1]), len(effects))
    return _result("contrast-oracle", float(np.max(np.abs(best - povm.contrast_stack(effects)))), 1e-6)


def check_unsharpness_trade_off(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 108])
    _, _, effects, admitted = _random_unsharp_pairs(rng, 500)
    u_f, u_g, _ = povm.unsharpness_stack(povm.joint_marginals(effects).reshape(-1, 2, 2, 2)).reshape(-1, 3).T
    worst = max(0.0, float(np.max(1.0 - (u_f + u_g))))
    return _result("unsharpness-trade-off", worst, 1e-12, admitted)


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
    # Spectral form of the meet rule over a 180 x 360 latitude/longitude
    # sweep against the fixed z axis: two rank-1 qubit projections share
    # an eigenvalue-2 direction of P + Q exactly when they coincide. The
    # overlap depends on the latitude alone, so each latitude is evaluated
    # once and its verdict counts for all of its longitudes.
    thetas = np.linspace(0.0, math.pi, 180)
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    # tr(PQ) = (1 + cos angle) / 2 for rank-1 projections.
    overlap = 0.5 * (1.0 + np.cos(thetas))
    predicted = (overlap > 1e-9) & (overlap < 1.0 - 1e-9)
    # Meet-based evaluation: lambda_max(P+Q) = 1 + |cos(angle/2)| via the
    # closed form; an eigenvalue-2 appears only at angle 0 for P^Q, and
    # the complement pairs move the coincidence to angle pi.
    lam_pq = 1.0 + np.sqrt(np.clip(overlap, 0.0, 1.0))
    lam_pqc = 1.0 + np.sqrt(np.clip(1.0 - overlap, 0.0, 1.0))
    spectral = ~((lam_pq >= 2.0 - 1e-8) | (lam_pqc >= 2.0 - 1e-8))
    mismatches = len(phis) * int(np.sum(spectral != predicted))
    # API route on every 2000th grid point, latitude-major; k = 0 is the
    # coincident pole.
    k = np.arange(0, len(thetas) * len(phis), 2000)
    t, p = thetas[k // len(phis)], phis[k % len(phis)]
    directions = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    fixed = np.array([0.0, 0.0, 1.0])
    p_op = 0.5 * (np.eye(2, dtype=complex) + linalg.pauli("z"))
    for d in directions:
        d = d / np.linalg.norm(d)
        q_op = linalg.density_from_bloch(d)  # rank-1 projection for unit d
        got = complementarity.probabilistically_complementary(p_op, q_op)
        ov = 0.5 * (1.0 + float(d @ fixed))
        if got != (1e-9 < ov < 1.0 - 1e-9):
            mismatches += 1
    return _result("projection-meets", float(mismatches), 0.0)


def check_mz_unitarity(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 110])
    u = interferometer.mz_evolution_stack(rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 1000))
    worst = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2))))
    return _result("mz-unitarity", worst, 1e-14)


def check_marking_unitary(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 111])
    probes = oracle.haar_vectors(rng, 600).reshape(200, 3, 2)
    u = interferometer.marking_unitary_stack(probes)
    worst = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(4))))
    for k in (1, 2):
        e = np.zeros(2, dtype=complex)
        e[k - 1] = 1.0
        # U_mark (e_k (x) p0) must be e_k (x) p_k.
        inputs = (e[:, None] * probes[:, 0, None, :]).reshape(-1, 4, 1)
        wanted = (e[:, None] * probes[:, k, None, :]).reshape(-1, 4)
        worst = max(worst, float(np.max(np.abs((u @ inputs)[..., 0] - wanted))))
    return _result("marking-unitary", worst, 1e-12)


def check_final_state_norm() -> CheckResult:
    # final_state reads only the fields distinct_grid_configs keys on, so no state is missed.
    configs = distinct_grid_configs()
    out = interferometer.final_state_stack(
        np.array([0.6, 0.8j]),
        interferometer.probe_stack(configs),
        [interferometer.effective_delta(c) for c in configs],
    )
    worst = float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)))
    return _result("final-state-norm", worst, 1e-12)


def check_completion_independence(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 112])
    probes, deltas, phases = [], [], []
    for _ in range(40):
        probes.append([oracle.haar_vector(rng) for _ in range(3)])
        deltas.append(float(rng.uniform(-math.pi, math.pi)))
        phases.append(np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
    probes = np.array(probes)
    pointers = interferometer.pointer_stack([interferometer.MzConfig("marking")] * len(probes))
    base_schemes = extraction.build_schemes(probes, deltas, pointers)
    # Alternative completion: extra phases on the perp channel,
    # V_k = |p_k><p0| + ph_k |p_k_perp><p0_perp|.
    p0, pk = probes[:, 0, None, None, :], probes[:, 1:, :, None]
    perp_outer = linalg.perp(probes[:, 1:])[..., None] * linalg.perp(p0).conj()
    blocks = pk * p0.conj() + np.array(phases)[:, :, None, None] * perp_outer
    alt_mark = np.zeros((len(probes), 2, 2, 2, 2), dtype=complex)
    alt_mark[:, 0, :, 0, :] = blocks[:, 0]
    alt_mark[:, 1, :, 1, :] = blocks[:, 1]
    mz = interferometer.mz_evolution_stack(deltas)
    mz_kron_identity = np.einsum("nac,bd->nabcd", mz, np.eye(2)).reshape(-1, 4, 4)
    alt_schemes = extraction.SchemeStack(
        base_schemes.labels,
        mz_kron_identity @ alt_mark.reshape(-1, 4, 4),
        base_schemes.probe_init,
        base_schemes.outputs,
    )
    base = extraction.extract_effects(base_schemes)
    alt = extraction.extract_effects(alt_schemes)
    return _result("completion-independence", float(np.max(np.abs(base - alt))), 1e-12)


def extraction_grid_checks(tol: float) -> list[CheckResult]:
    """Positivity, normalization and closed-form agreement in one grid pass."""
    psd_worst = 0.0
    norm_worst = 0.0
    agree_worst = 0.0
    for configs in _readout_groups(distinct_grid_configs()):
        schemes = extraction.schemes_for(configs)
        effects = extraction.extract_effects(schemes)
        low = float(linalg.eigvals_hermitian(effects)[..., -1].min())
        psd_worst = max(psd_worst, -low)
        norm_worst = max(norm_worst, float(np.max(np.abs(effects.sum(axis=1) - np.eye(2)))))
        if configs[0].experiment in interferometer.DETECTOR_ONLY:
            continue
        # Joint effects in the order of the scheme labels, then the F, G and H
        # marginals, against the closed forms of each experiment's run of configs.
        measured = [effects, *povm.joint_marginals(effects).swapaxes(0, 1)]
        analytic = [
            extraction.closed_form_stack(list(run))
            for _, run in itertools.groupby(configs, key=lambda c: c.experiment)
        ]
        for got, *runs in zip(measured, *analytic):
            agree_worst = max(agree_worst, float(np.max(np.abs(got - np.concatenate(runs)))))
    return [
        _result("extraction-positivity", psd_worst, 1e-10),
        _result("extraction-normalization", norm_worst, max(tol, 0.0)),
        _result("closed-form-agreement", agree_worst, tol),
    ]


def check_probability_reproduction(seed: int, samples: int, tol: float) -> CheckResult:
    worst = 0.0
    for configs in _readout_groups(distinct_grid_configs()):
        worst = max(worst, float(oracle.cross_check_stack(extraction.schemes_for(configs), seed, samples).max()))
    return _result("probability-reproduction", worst, tol)


def check_pointer_freedom(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 113])
    configs, pointers = [], []
    for _ in range(50):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        delta = float(rng.uniform(-math.pi, math.pi))
        configs.append(interferometer.MzConfig("quantitative", delta=delta, theta=theta))
        r1 = oracle.haar_vector(rng)
        pointers.append((r1, linalg.perp(r1)))
    schemes = extraction.build_schemes(
        interferometer.probe_stack(configs), [c.delta for c in configs], pointers
    )
    effects = extraction.extract_effects(schemes)
    probe = povm.joint_marginals(effects)[:, 1]
    b, u = povm.bias_and_direction_stack(probe.reshape(-1, 2, 2))
    b, u = b.reshape(-1, 2), u.reshape(-1, 2, 3)
    worst = max(
        float(np.max(np.abs(u[:, 0] + u[:, 1]))),
        float(np.max(np.abs(b[:, 0] + b[:, 1]))),
        float(np.max(np.abs(u[:, 0, :2]))),  # path type: along z only
    )
    return _result("pointer-freedom", worst, 1e-10)


def check_state_relations(seed: int, samples: int) -> CheckResult:
    rng = np.random.default_rng([seed, 114])
    half = max(1000, 10 * samples)
    # Mixed states fill the ball, then pure states cover its surface. Per
    # pass: the slack, variance and contrast deviations, and the verdict.
    blochs = np.concatenate([_random_bloch_ball(rng, half), _random_directions(rng, half)])
    parts = []
    for first in range(0, len(blochs), RELATION_STACK):
        rs = blochs[first:first + RELATION_STACK]
        r2 = np.sum(rs * rs, axis=1)
        report, entropy_triple, var_triple, contrast_triple = relations.state_relations_stack(
            linalg.density_from_bloch_stack(rs)
        )
        parts.append((
            np.max(np.abs(report.slack - (1.0 - r2))),
            np.max(np.abs(var_triple.lhs - (3.0 - r2))),
            np.max(np.abs(contrast_triple.lhs - r2)),
            np.all(report.slack >= -1e-12)
            and np.all(contrast_triple.lhs <= 1.0 + 1e-12)
            and np.all(entropy_triple.lhs >= 2.0 - 1e-9),
        ))
    *deviations, verdicts = zip(*parts)
    worst = max(float(np.max(d)) for d in deviations)
    return _result("state-relations", worst, 1e-10, all(verdicts))


def check_entropic_bound(seed: int, samples: int) -> CheckResult:
    sz_pvm = relations.pauli_pvm("z")
    sx_pvm = relations.pauli_pvm("x")
    rng = np.random.default_rng([seed, 117])
    count = max(2000, 20 * samples)
    eigenstates = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                   np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)]
    # Each pass draws its states, as one draw of all would; the
    # eigenstates join the last. Per pass: the worst violation, lowest lhs.
    parts = []
    for first in range(0, count, RELATION_STACK):
        states = oracle.haar_vectors(rng, min(RELATION_STACK, count - first))
        if first + RELATION_STACK >= count:
            states = np.vstack([states, eigenstates])
        report = relations.entropic_bound_stack(sz_pvm, sx_pvm, states)
        parts.append((np.max(-report.slack), np.min(report.lhs)))
    violations, lows = zip(*parts)
    worst_violation = max(0.0, float(np.max(violations)))
    lowest = float(np.min(lows))
    return _result("entropic-bound", worst_violation, 1e-9, abs(lowest - 1.0) <= 1e-3, f"min lhs {lowest:.6f}")


def check_erasure_duality(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 115])
    # Each sample draws a tilt, a weight and a phase, in that order: one
    # batched draw replays them.
    u = rng.random((1000, 3))
    thetas = _uniform(0.0, math.pi / 2.0, u[:, 0]).tolist()
    weights, phases = u[:, 1], _uniform(0.0, 2.0 * math.pi, u[:, 2])
    alphas = np.sqrt(weights)
    betas = np.sqrt(1.0 - weights) * np.exp(1j * phases)
    p1s, p2s = _marker_stacks(thetas)
    audit = relations.erasure_duality_stack(alphas, betas, p1s, p2s)
    worst = float(max(np.max(np.abs(audit.duality.slack)), np.max(np.abs(audit.variance_tradeoff.slack))))
    return _result("erasure-duality", worst, 1e-9)


def check_limit_complementarity() -> CheckResult:
    # theta = 0 makes the probe marginal G sharp and the detector marginal F
    # trivial; theta = pi/2 the reverse. Sharp and trivial imply valid.
    configs = [interferometer.MzConfig("quantitative", delta=-math.pi / 2.0, theta=t) for t in (0.0, math.pi / 2.0)]
    _, detector, probe, _ = extraction.closed_form_stack(configs)
    f = povm.classify_effects(detector, tol=1e-12)
    g = povm.classify_effects(probe, tol=1e-12)
    failures = int(not (f.trivial[0] and g.sharp[0])) + int(not (f.sharp[1] and g.trivial[1]))
    return _result("limit-complementarity", float(failures), 0.0)


def _correct_prob_objective(evidence: np.ndarray):
    """(points, rows) -> (1 + r . evidence_n) / 2, the success probability of the pointer guess along r."""
    ex, ey, ez = evidence.T

    def objective(points, rows):
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        return 0.5 * (1.0 + (x * ex[rows] + y * ey[rows] + z * ez[rows]))

    return objective


def _planar_norms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # math.hypot point by point: numpy.hypot rounds differently from it in
    # about one case in 200.
    return np.fromiter(map(math.hypot, x.ravel().tolist(), y.ravel().tolist()), float, x.size).reshape(x.shape)


def _equatorial_objective(rho_e: np.ndarray):
    """(points, rows) -> |tr[rho_e,n (m . sigma)]| for the unit equatorial direction m along (x, y)."""
    sx, sy, _ = linalg.pauli_triple()
    ex = np.trace(rho_e @ sx, axis1=-2, axis2=-1).real
    ey = np.trace(rho_e @ sy, axis1=-2, axis2=-1).real

    def objective(points, rows):
        x, y = points[..., 0], points[..., 1]
        planar = _planar_norms(x, y)
        polar = planar < 1e-12
        planar = np.where(polar, 1.0, planar)
        return np.where(polar, 0.0, np.abs(ex[rows] * (x / planar) + ey[rows] * (y / planar)))

    return objective


def check_grid_maximize_agreement(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 116])
    # Each sample draws a tilt, then a weight: one batched draw replays them.
    u = rng.random((50, 2))
    thetas, weights = _uniform(0.0, math.pi / 2.0, u[:, 0]).tolist(), u[:, 1]
    alpha, beta = np.sqrt(weights), np.sqrt(1.0 - weights)
    p1, p2 = _marker_stacks(thetas)
    b1 = linalg.bloch_from_density_stack(linalg.projectors(p1))
    b2 = linalg.bloch_from_density_stack(linalg.projectors(p2))
    evidence = alpha[:, None] ** 2 * b1 - beta[:, None] ** 2 * b2
    best, _ = oracle.grid_maximize_stack(_correct_prob_objective(evidence), len(u))
    marked = np.concatenate([alpha[:, None] * p1, beta[:, None] * p2], axis=1)
    rho_e = linalg.partial_trace_probe_stack(marked)
    best_v, _ = oracle.grid_maximize_stack(_equatorial_objective(rho_e), len(u))
    # The closed forms under test: L = (1 + D) / 2 and V_e, from the erasure audit.
    audit = relations.erasure_duality_stack(alpha, beta, p1, p2)
    worst = max(
        float(np.max(np.abs(best - 0.5 * (1.0 + audit.distinguishability)))),
        float(np.max(np.abs(best_v - audit.visibility))),
    )
    return _result("grid-maximize-agreement", worst, 1e-6)


def check_determinism(seed: int, samples: int) -> CheckResult:
    first = [oracle.haar_state(seed, i) for i in range(min(samples, 50))]
    second = [oracle.haar_state(seed, i) for i in range(min(samples, 50))]
    identical = all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    config = interferometer.MzConfig("erasure", delta=-math.pi / 2.0, gamma=0.3)
    scheme = extraction.schemes_for([config])
    rep1 = repr(oracle.direct_probabilities(scheme, first[0]))
    rep2 = repr(oracle.direct_probabilities(scheme, second[0]))
    return _result("determinism", 0.0 if identical else 1.0, 0.0, rep1 == rep2)


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
