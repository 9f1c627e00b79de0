import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from mzpovm import extraction, interferometer, linalg, oracle, verify
from mzpovm.errors import DimensionMismatch, InvalidScheme, NotNormalized

from conftest import stack_of

I2 = np.eye(2, dtype=complex)
SX, SY, SZ = linalg.pauli_triple()


class TestConfig:
    def test_defaults_valid(self):
        assert oracle.GRID_RESOLUTION == math.pi / 16.0

    def test_bad_samples(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        with pytest.raises(ValueError, match="samples must be >= 1"):
            oracle.cross_check_stack(scheme, extraction.extract_effects(scheme), 42, 0)


class TestIndependence:
    def test_the_oracle_imports_no_extraction(self):
        # The oracle checks the effects extraction gives, so it must not reach extraction itself.
        modules = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("mzpovm" + (f".{node.module}" if node.module else "")) if node.level else node.module
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            modules.update(name.split(".")[1] for name in names if name.startswith("mzpovm."))
        assert modules and modules <= {"interferometer", "linalg", "errors"}


class TestHaarStates:
    def test_states_are_normalized(self):
        for i in range(50):
            psi = oracle.haar_state(7, i)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_counter_based_reproducibility(self):
        a = oracle.haar_state(123, 17)
        b = oracle.haar_state(123, 17)
        assert a.tobytes() == b.tobytes()

    def test_different_indices_differ(self):
        assert oracle.haar_state(123, 0).tobytes() != oracle.haar_state(123, 1).tobytes()

    def test_random_states_stack_rows_are_haar_states(self):
        states = oracle.random_states(11, 30)
        assert states.shape == (30, 2)
        assert not states.flags.writeable
        for i, row in enumerate(states):
            assert row.tobytes() == oracle.haar_state(11, i).tobytes()

    def test_random_states_cached_per_seed_and_count(self):
        assert oracle.random_states(12, 5) is oracle.random_states(12, 5)
        assert oracle.random_states(12, 6) is not oracle.random_states(12, 5)


class TestDirectProbabilities:
    def test_path_experiment_on_path_eigenstate(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        probs = oracle.direct_probabilities(scheme, [1, 0])
        assert probs["1"] == pytest.approx(1.0, abs=1e-14)
        assert probs["2"] == pytest.approx(0.0, abs=1e-14)

    def test_interference_experiment_on_coherent_input(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("interference")])
        probs = oracle.direct_probabilities(scheme, np.array([1, 1]) / math.sqrt(2))
        assert probs["1"] == pytest.approx(1.0, abs=1e-14)

    def test_marking_joint_probability_prefactor(self):
        # Path eigenstate |1> at delta = 0 lands in outcome (D1, marker 1)
        # with certainty; the joint probability is cos^2(delta/2), i.e. 1,
        # not 1/2 of it.
        scheme = extraction.schemes_for([interferometer.MzConfig("marking", delta=0.0)])
        probs = oracle.direct_probabilities(scheme, [1, 0])
        assert probs["11"] == pytest.approx(1.0, abs=1e-14)
        for label in ("21", "12", "22"):
            assert probs[label] == pytest.approx(0.0, abs=1e-14)

    def test_marking_prefactor_at_general_phase(self):
        delta = 0.9
        scheme = extraction.schemes_for([interferometer.MzConfig("marking", delta=delta)])
        probs = oracle.direct_probabilities(scheme, [1, 0])
        assert probs["11"] == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-14)
        assert probs["21"] == pytest.approx(math.sin(delta / 2) ** 2, abs=1e-14)

    def test_probabilities_sum_to_one(self, rng):
        scheme = extraction.schemes_for([interferometer.MzConfig("erasure", delta=1.2, gamma=0.5)])
        for i in range(20):
            probs = oracle.direct_probabilities(scheme, oracle.haar_state(5, i))
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestCrossCheck:
    def test_exactness_on_sample_configs(self):
        for experiment in interferometer.EXPERIMENTS:
            config = interferometer.MzConfig(experiment, delta=0.4, gamma=1.0, theta=0.7)
            scheme = extraction.schemes_for([config])
            assert oracle.cross_check_stack(scheme, extraction.extract_effects(scheme), 9, 100)[0] <= 1e-12

    def test_effects_of_another_stack_size_are_rejected(self):
        # A (1, L, 2, 2) array would broadcast against N schemes and compare each with scheme 0.
        configs = [interferometer.MzConfig("erasure", delta=0.1 * n, gamma=0.3) for n in range(3)]
        schemes = extraction.schemes_for(configs)
        one = extraction.extract_effects(extraction.schemes_for(configs[:1]))
        with pytest.raises(DimensionMismatch, match=r"^effects must be \(3, 4, 2, 2\)"):
            oracle.cross_check_stack(schemes, one, 42, 10)
        with pytest.raises(DimensionMismatch):
            oracle.cross_check_stack(schemes, extraction.extract_effects(schemes)[:, :2], 42, 10)

    def test_corrupted_effect_detected(self):
        config = interferometer.MzConfig("erasure", delta=0.4, gamma=1.0)
        scheme = extraction.schemes_for([config])
        corrupted = extraction.extract_effects(scheme).copy()
        corrupted[0, scheme.labels.index("11")] += 0.01 * I2
        worst = oracle.cross_check_stack(scheme, corrupted, 2, 100)[0]
        assert worst >= 0.004

    def test_stacked_route_matches_per_state_loop_on_the_grid(self):
        # Reference: one direct_probabilities call and one <psi|E|psi> per state.
        states = [oracle.haar_state(5, i) for i in range(100)]
        for config in verify.distinct_grid_configs():
            scheme = extraction.schemes_for([config])
            measured = extraction.extract_effects(scheme)[0]
            worst = 0.0
            for psi in states:
                for label, p in oracle.direct_probabilities(scheme, psi).items():
                    predicted = float(np.vdot(psi, measured[scheme.labels.index(label)] @ psi).real)
                    worst = max(worst, abs(p - predicted))
            assert abs(oracle.cross_check_stack(scheme, measured[None], 5, 100)[0] - worst) <= 1e-15

    def test_deterministic_given_seed(self):
        config = interferometer.MzConfig("quantitative", delta=-math.pi / 2, theta=0.6)
        scheme = extraction.schemes_for([config])
        effects = extraction.extract_effects(scheme)
        assert (
            oracle.cross_check_stack(scheme, effects, 21, 30).tobytes()
            == oracle.cross_check_stack(scheme, effects, 21, 30).tobytes()
        )

    def test_passes_match_one_shot_reference(self):
        # 600 samples take several passes of CROSS_CHECK_STACK inputs; the
        # reference evaluates all of them in one array pass.
        samples = 600
        assert samples > 2 * oracle.CROSS_CHECK_STACK
        states = oracle.random_states(4, samples)
        for _, schemes, effects in verify.grid_schemes():
            direct = oracle.probabilities(schemes, states)
            predicted = np.einsum("si,nlij,sj->nsl", states.conj(), effects, states).real
            want = np.abs(direct - predicted).max(axis=(1, 2))
            assert oracle.cross_check_stack(schemes, effects, 4, samples).tobytes() == want.tobytes()


class TestProbabilityChecks:
    def test_out_of_range_names_the_worst_value(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        states = np.array([[1.0, 0.0], [2.0, 0.0], [1.5, 0.0]], dtype=complex)
        with pytest.raises(InvalidScheme, match=r"probability 4\.0 for output '1'"):
            oracle.probabilities(scheme, states)

    def test_out_of_range_names_the_scheme_state_and_output(self):
        # Scheme 1 (path) on state 1 (2|1>) gives p1 = 4, the farthest from [0, 1].
        schemes = extraction.schemes_for([interferometer.MzConfig("interference"), interferometer.MzConfig("path")])
        states = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
        message = r"^scheme 1, state 1: probability 4\.0 for output '1' is out of range$"
        with pytest.raises(InvalidScheme, match=message):
            oracle.probabilities(schemes, states)

    @pytest.mark.parametrize("psi", [[1.0, 1.0], [0.0, 1.1], [math.nan, 0.0]])
    def test_direct_route_rejects_a_non_unit_input(self, psi):
        scheme = extraction.schemes_for([interferometer.MzConfig("erasure", delta=0.4)])
        with pytest.raises(NotNormalized, match="^state vector 0 has norm"):
            oracle.direct_probabilities(scheme, psi)

    def test_direct_route_rejects_an_input_of_another_dimension(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("erasure", delta=0.4)])
        with pytest.raises(InvalidScheme, match="^the input must be a two-component photon state$"):
            oracle.direct_probabilities(scheme, [1.0, 0.0, 0.0])

    def test_a_later_pass_names_the_state_by_its_sample_index(self):
        schemes = extraction.schemes_for([interferometer.MzConfig("interference"), interferometer.MzConfig("path")])
        states = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
        message = r"^scheme 1, state 301: probability 4\.0 for output '1' is out of range$"
        with pytest.raises(InvalidScheme, match=message):
            oracle.probabilities(schemes, states, 300)

    def test_bad_sum_names_the_worst_total(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        balanced = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        states = np.array([balanced, (1.0 + 1e-9) * balanced, (1.0 + 1e-10) * balanced])
        with pytest.raises(InvalidScheme, match=r"sum to 1\.000000002"):
            oracle.probabilities(scheme, states)


class TestGridMaximize:
    def test_linear_contrast_objective(self):
        effect_diff = 0.6 * SX

        def objective(r):
            return float(np.trace(linalg.density_from_bloch(r) @ effect_diff).real)

        (best,), (argmax,) = oracle.grid_maximize_stack(stack_of([objective]), 1)
        assert best == pytest.approx(0.6, abs=1e-6)
        np.testing.assert_allclose(argmax, [1.0, 0.0, 0.0], atol=1e-3)

    def test_equatorial_visibility_objective(self):
        rho = np.array([[0.5, 0.3 * np.exp(-0.8j)], [0.3 * np.exp(0.8j), 0.5]])

        def objective(r):
            planar = math.hypot(r[0], r[1])
            if planar < 1e-12:
                return 0.0
            n = (r[0] / planar, r[1] / planar)
            return abs(float(np.trace(rho @ (n[0] * SX + n[1] * SY)).real))

        (best,), _ = oracle.grid_maximize_stack(stack_of([objective]), 1)
        assert best == pytest.approx(0.6, abs=1e-6)

    def test_constant_objective(self):
        (best,), (argmax,) = oracle.grid_maximize_stack(stack_of([lambda r: 0.25]), 1)
        assert best == 0.25
        assert abs(np.linalg.norm(argmax) - 1.0) <= 1e-12

    def test_off_axis_linear_objective(self, rng):
        targets, scales = [], []
        for _ in range(20):
            target = rng.standard_normal(3)
            targets.append(target / np.linalg.norm(target))
            scales.append(float(rng.uniform(0.1, 1.0)))
        objectives = [lambda r, t=t, s=s: s * float(r @ t) for t, s in zip(targets, scales)]
        best, argmax = oracle.grid_maximize_stack(stack_of(objectives), len(objectives))
        for value, r, target, scale in zip(best, argmax, targets, scales):
            assert value == pytest.approx(scale, abs=1e-6)
            assert float(r @ target) >= 1.0 - 1e-5


def _reference_bloch(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def _float_unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


def _float_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


PATCH_OFFSETS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def float_reference_grid_maximize(objective):
    """The search on Python floats, one point at a time: the bit-for-bit reference.

    The lattice sweep keeps its first strict maximum. Each of the
    ``REFINE_LEVELS`` levels halves the step, scans the 5 x 5 patch around
    the best point in a-major order for the patch's first strict maximum,
    and moves there only if it beats the best.
    """
    step = oracle.GRID_RESOLUTION
    best_value, best = -math.inf, _reference_bloch(0.0, 0.0)
    theta = 0.0
    while theta <= math.pi + 1e-12:
        phi = 0.0
        while phi < 2.0 * math.pi - 1e-12:
            candidate = _reference_bloch(theta, phi)
            value = float(objective(candidate))
            if value > best_value:
                best_value, best = value, candidate
            if theta <= 1e-12 or theta >= math.pi - 1e-12:
                break
            phi += step
        theta += step
    r = best.tolist()
    for _ in range(oracle.REFINE_LEVELS):
        step *= 0.5
        axis = (0.0, 0.0, 1.0) if abs(r[2]) <= 0.9 else (1.0, 0.0, 0.0)
        t1 = _float_unit(_float_cross(r, axis))
        (u1, u2, u3), (v1, v2, v3) = t1, _float_cross(r, t1)
        patch_value, patch_best = -math.inf, None
        for a in PATCH_OFFSETS:
            for b in PATCH_OFFSETS:
                moved = (r[0] + step * (a * u1 + b * v1),
                         r[1] + step * (a * u2 + b * v2),
                         r[2] + step * (a * u3 + b * v3))
                candidate = np.array(_float_unit(moved))
                value = float(objective(candidate))
                if value > patch_value:
                    patch_value, patch_best = value, candidate
        if patch_value > best_value:
            best_value, best, r = patch_value, patch_best, patch_best.tolist()
    return best_value, np.array(best)


def _counted(objective):
    calls = []

    def wrapped(r):
        calls.append(1)
        return objective(r)

    return wrapped, calls


def _reference_contrast(diff):
    return lambda r: abs(float(np.trace(linalg.density_from_bloch(r) @ diff).real))


def _reference_correct_prob(evidence):
    return lambda r: 0.5 * (1.0 + float(r @ evidence))


def _reference_equatorial(rho_e):
    def equatorial(r):
        planar = math.hypot(r[0], r[1])
        if planar < 1e-12:
            return 0.0
        return abs(float(np.trace(rho_e @ ((r[0] * SX + r[1] * SY) / planar)).real))

    return equatorial


def _suite_inputs(seed, count):
    """The first ``count`` (at most 50) per-search inputs of the contrast-oracle
    and grid-maximize-agreement checks: the contrast-oracle ``diff`` matrices,
    the evidence vectors and the reduced states rho_e. The draws replay the
    checks' batched draws; the arithmetic runs one sample at a time."""
    rng = np.random.default_rng([seed, 107])
    draws = zip(verify._random_directions(rng, 50), rng.random(50), rng.random(50))
    diffs = []
    for u_dir, u_len, bias in itertools.islice(draws, count):
        b = (1.0 - u_len) * (2.0 * bias - 1.0)
        e1 = 0.5 * ((1.0 + b) * I2 + u_len * (u_dir[0] * SX + u_dir[1] * SY + u_dir[2] * SZ))
        diffs.append(e1 - (I2 - e1))
    rng = np.random.default_rng([seed, 116])
    evidences, reduced = [], []
    for _ in range(count):
        theta = float(rng.uniform(0.0, math.pi / 2.0))
        weight = rng.random()
        alpha, beta = math.sqrt(weight), math.sqrt(1.0 - weight)
        p1, p2 = interferometer.marker_states(theta)
        b1, b2 = linalg.bloch_from_density_stack(np.array([np.outer(p, p.conj()) for p in (p1, p2)]))
        evidences.append(alpha**2 * b1 - beta**2 * b2)
        reduced.append(linalg.partial_trace_probe_stack(np.concatenate([alpha * p1, beta * p2])[None])[0])
    return np.array(diffs), np.array(evidences), np.array(reduced)


# The suite's objectives on Python floats, one point at a time: the
# bit-for-bit twins of verify's stacked objectives.
def _float_contrast(diff):
    (d00, d01), (d10, d11) = diff.tolist()
    c0 = 0.5 * (d00 + d11).real
    cx = 0.5 * (d01 + d10).real
    cy = 0.5 * (d10 - d01).imag
    cz = 0.5 * (d00 - d11).real

    def objective(r):
        x, y, z = r.tolist()
        return abs(c0 + cx * x + cy * y + cz * z)

    return objective


def _float_correct_prob(evidence):
    ex, ey, ez = evidence.tolist()

    def objective(r):
        x, y, z = r.tolist()
        return 0.5 * (1.0 + (x * ex + y * ey + z * ez))

    return objective


def _float_equatorial(rho_e):
    ex = float(np.trace(rho_e @ SX).real)
    ey = float(np.trace(rho_e @ SY).real)

    def objective(r):
        x, y, _ = r.tolist()
        planar = math.sqrt(x * x + y * y)
        if planar < 1e-12:
            return 0.0
        return abs(ex * x + ey * y) / planar

    return objective


def _suite_stacks(diffs, evidences, reduced):
    """(stacked objective, per-row reference formulas, per-row float objectives) of each kind."""
    return [
        (verify._contrast_objective(diffs), [*map(_reference_contrast, diffs)], [*map(_float_contrast, diffs)]),
        (verify._correct_prob_objective(evidences), [*map(_reference_correct_prob, evidences)],
         [*map(_float_correct_prob, evidences)]),
        (verify._equatorial_objective(reduced), [*map(_reference_equatorial, reduced)],
         [*map(_float_equatorial, reduced)]),
    ]


class TestSuiteObjectives:
    def test_stacked_objectives_match_reference_formulas(self, rng):
        extra = rng.standard_normal((2000, 3))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        points = np.concatenate([oracle._coarse_lattice(math.pi / 16.0), extra])
        inputs = zip(_suite_inputs(42, 4), _suite_inputs(7, 4))
        stacks = _suite_stacks(*(np.concatenate(pair) for pair in inputs))
        # The suite's markers are real, so its evidence vectors and reduced
        # states have no y part; generic inputs cover that term.
        diffs, evidences, rhos = [], [], []
        for _ in range(4):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            diffs.append(0.5 * (g + g.conj().T))
            evidences.append(rng.standard_normal(3))
            rhos.append(linalg.density_from_bloch(0.9 * extra[rng.integers(2000)]))
        stacks += _suite_stacks(np.array(diffs), np.array(evidences), np.array(rhos))
        for objective, references, _ in stacks:
            values = objective(points[None], np.arange(len(references))[:, None])
            assert values.shape == (len(references), len(points))
            for row, reference in zip(values, references):
                worst = max(abs(v - reference(r)) for v, r in zip(row.tolist(), points))
                assert worst <= 1e-15

    def test_stacked_objectives_match_the_float_objectives_bit_for_bit(self, rng):
        extra = rng.standard_normal((500, 3))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        points = np.concatenate([oracle._coarse_lattice(math.pi / 16.0), extra, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        for objective, _, floats in _suite_stacks(*_suite_inputs(42, 6)):
            values = objective(points[None], np.arange(len(floats))[:, None])
            want = np.array([[f(r) for r in points] for f in floats])
            assert values.tobytes() == want.tobytes()


def _closed_maxima(diffs, evidences, reduced):
    """The exact maxima over the sphere of each kind of suite objective: |c0| + |c|
    of the contrast, (1 + |evidence|) / 2 and 2 |rho_01|."""
    c0 = 0.5 * np.trace(diffs, axis1=-2, axis2=-1).real
    c = 0.5 * np.einsum("kij,nji->nk", np.array([SX, SY, SZ]), diffs).real
    return [
        np.abs(c0) + np.linalg.norm(c, axis=1),
        0.5 * (1.0 + np.linalg.norm(evidences, axis=1)),
        2.0 * np.abs(reduced[:, 0, 1]),
    ]


class TestGridMaximizeExactness:
    @pytest.mark.parametrize("seed", (42, 7, 1, 3, 11))
    def test_suite_searches_reach_the_closed_maxima(self, seed):
        inputs = _suite_inputs(seed, 50)
        for (objective, _, floats), exact in zip(_suite_stacks(*inputs), _closed_maxima(*inputs)):
            values, argmax = oracle.grid_maximize_stack(objective, len(floats))
            assert np.max(np.abs(values - exact)) <= 1e-12
            np.testing.assert_allclose(np.linalg.norm(argmax, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_generic_linear_searches_reach_the_closed_maxima(self, rng):
        # Hermitian diffs with every Pauli part and evidence vectors with a
        # y part. The equatorial objective is left out: it is flat along
        # meridians, and with a complex coherence a search can stall near a pole.
        g = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
        diffs = 0.5 * (g + g.conj().swapaxes(-1, -2))
        evidences = rng.standard_normal((200, 3))
        exact = _closed_maxima(diffs, evidences, np.zeros((0, 2, 2)))
        for objective, want in zip((verify._contrast_objective(diffs), verify._correct_prob_objective(evidences)), exact):
            values, _ = oracle.grid_maximize_stack(objective, 200)
            assert np.max(np.abs(values - want)) <= 1e-12

    @pytest.mark.parametrize("count", (1, 7, 50))
    def test_every_search_makes_one_call_per_level(self, count):
        calls = []
        objective = verify._contrast_objective(_suite_inputs(42, count)[0])

        def counted(points, rows):
            calls.append(rows)
            return objective(points, rows)

        oracle.grid_maximize_stack(counted, count)
        assert len(calls) == 1 + oracle.REFINE_LEVELS


def _unit_test_objectives(rng):
    """Per-point objectives with a linear, an equatorial, a constant and five random linear cases."""
    rho = np.array([[0.5, 0.3 * np.exp(-0.8j)], [0.3 * np.exp(0.8j), 0.5]])

    def equatorial(r):
        planar = math.hypot(r[0], r[1])
        if planar < 1e-12:
            return 0.0
        return abs(float(np.trace(rho @ ((r[0] * SX + r[1] * SY) / planar)).real))

    objectives = [
        lambda r: float(np.trace(linalg.density_from_bloch(r) @ (0.6 * SX)).real),
        equatorial,
        lambda r: 0.25,
    ]
    for _ in range(5):
        target = rng.standard_normal(3)
        target /= np.linalg.norm(target)
        objectives.append(lambda r, t=target: float(r @ t))
    return objectives


# Objectives that give up: no value at all, nothing above -inf, NaN on half
# the sphere, and +inf on a cap.
DEGENERATE_OBJECTIVES = [
    lambda r: math.nan,
    lambda r: -math.inf,
    lambda r: math.nan if r[2] > 0.0 else float(r[0]),
    lambda r: math.inf if r[0] > 0.9 else float(r[1]),
]


class TestGridMaximizeStack:
    def assert_rows_match_float_reference(self, values, argmax, objectives):
        assert values.shape == (len(objectives),) and argmax.shape == (len(objectives), 3)
        for value, r, objective in zip(values, argmax, objectives):
            want, want_argmax = float_reference_grid_maximize(objective)
            assert value == want or (math.isnan(value) and math.isnan(want))
            assert r.tobytes() == want_argmax.tobytes()

    @pytest.mark.parametrize("seed", (42, 7, 1))
    def test_suite_searches_match_the_float_reference(self, seed):
        for objective, _, floats in _suite_stacks(*_suite_inputs(seed, 50)):
            values, argmax = oracle.grid_maximize_stack(objective, len(floats))
            self.assert_rows_match_float_reference(values, argmax, floats)

    @pytest.mark.parametrize("resolution", (math.pi / 16.0, math.pi / 8.0, 0.1))
    def test_unit_test_objectives_match_the_float_reference(self, rng, resolution, monkeypatch):
        monkeypatch.setattr(oracle, "GRID_RESOLUTION", resolution)
        objectives = _unit_test_objectives(rng)
        counted = [_counted(objective) for objective in objectives]
        values, argmax = oracle.grid_maximize_stack(stack_of([f for f, _ in counted]), len(objectives))
        self.assert_rows_match_float_reference(values, argmax, objectives)
        # Every lattice and patch point of every row is evaluated.
        for objective, (_, calls) in zip(objectives, counted):
            slow, slow_calls = _counted(objective)
            float_reference_grid_maximize(slow)
            assert len(calls) == len(slow_calls)

    def test_degenerate_objectives_behave_as_per_point(self):
        values, argmax = oracle.grid_maximize_stack(stack_of(DEGENERATE_OBJECTIVES), len(DEGENERATE_OBJECTIVES))
        self.assert_rows_match_float_reference(values, argmax, DEGENERATE_OBJECTIVES)
        lattice = oracle._coarse_lattice(oracle.GRID_RESOLUTION)
        for row in (0, 1):
            assert values[row] == -math.inf and argmax[row].tobytes() == lattice[0].tobytes()
        assert values[3] == math.inf
        for objective, value in zip(DEGENERATE_OBJECTIVES, values):
            assert oracle.grid_maximize_stack(stack_of([objective]), 1)[0] == value or math.isnan(value)

    def test_scalar_valued_objective_broadcasts(self):
        values, argmax = oracle.grid_maximize_stack(lambda points, rows: 0.25, 3)
        assert values.tolist() == [0.25] * 3
        assert argmax.tobytes() == np.repeat(oracle._coarse_lattice(oracle.GRID_RESOLUTION)[:1], 3, axis=0).tobytes()

    def test_each_row_of_a_mixed_stack_equals_its_stack_of_one(self, rng, monkeypatch):
        monkeypatch.setattr(oracle, "GRID_RESOLUTION", math.pi / 8.0)
        diffs, evidences, reduced = _suite_inputs(3, 2)
        objectives = [*_unit_test_objectives(rng), *DEGENERATE_OBJECTIVES, *map(_float_contrast, diffs),
                      *map(_float_correct_prob, evidences), *map(_float_equatorial, reduced)]
        rng.shuffle(objectives)
        values, argmax = oracle.grid_maximize_stack(stack_of(objectives), len(objectives))
        for n, objective in enumerate(objectives):
            value, r = oracle.grid_maximize_stack(stack_of([objective]), 1)
            assert values[n : n + 1].tobytes() == value.tobytes()
            assert argmax[n : n + 1].tobytes() == r.tobytes()

    def test_cached_lattice_is_read_only_and_result_is_owned(self):
        seen = []
        oracle.grid_maximize_stack(stack_of([lambda r: seen.append(r) or 0.0]), 1)
        with pytest.raises(ValueError):
            seen[0][0] = 5.0
        best, argmax = oracle.grid_maximize_stack(stack_of([lambda r: -float(r[2])]), 1)
        argmax[0, 0] = 5.0
        assert oracle.grid_maximize_stack(stack_of([lambda r: -float(r[2])]), 1)[0] == best

    def test_lattice_is_passed_once_and_read_only(self):
        lattice = oracle._coarse_lattice(oracle.GRID_RESOLUTION)
        calls = []

        def objective(points, rows):
            calls.append((points, rows))
            return points[..., 2] * (rows + 1.0)

        oracle.grid_maximize_stack(objective, 5)
        points, rows = calls[0]
        assert points.shape == (1, len(lattice), 3) and not points.flags.writeable
        assert np.shares_memory(points, lattice)
        assert rows.tolist() == [[0], [1], [2], [3], [4]]
        # Each level passes the 5 x 5 patch of every row in one call.
        assert len(calls) == 1 + oracle.REFINE_LEVELS
        for points, rows in calls[1:]:
            assert points.shape == (25, 5, 3) and rows.tolist() == [[0, 1, 2, 3, 4]]

    def test_batch_of_one_calls_the_objective_as_often_as_the_per_point_loop(self):
        for objective in (*DEGENERATE_OBJECTIVES, _float_contrast(_suite_inputs(42, 1)[0][0])):
            fast, fast_calls = _counted(objective)
            slow, slow_calls = _counted(objective)
            got = oracle.grid_maximize_stack(stack_of([fast]), 1)
            want = float_reference_grid_maximize(slow)
            assert len(fast_calls) == len(slow_calls)
            assert got[1][0].tobytes() == want[1].tobytes()

