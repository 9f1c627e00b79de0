import itertools
import math

import numpy as np
import pytest

from mzpovm import extraction, interferometer, linalg, oracle, povm, verify
from mzpovm.errors import InvalidScheme, NotNormalized, UnsupportedExperiment, ZeroProbabilityCondition

from conftest import assert_same_bits, expectation, random_pure

I2 = np.eye(2, dtype=complex)
SX, SY, SZ = linalg.pauli_triple()
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
GRID = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi)


def marking_effect_table(delta: float) -> dict[str, np.ndarray]:
    plus = 0.5 * (I2 + SZ)
    minus = 0.5 * (I2 - SZ)
    c2 = math.cos(delta / 2) ** 2
    s2 = math.sin(delta / 2) ** 2
    return {"11": c2 * plus, "21": s2 * plus, "12": s2 * minus, "22": c2 * minus}


def erasure_effect_table(delta: float, gamma: float) -> dict[str, np.ndarray]:
    n = math.sin(delta) * math.cos(gamma) * SX + math.sin(delta) * math.sin(gamma) * SY - math.cos(delta) * SZ
    m = math.sin(delta) * math.cos(gamma) * SX + math.sin(delta) * math.sin(gamma) * SY + math.cos(delta) * SZ
    return {
        "11": 0.25 * (I2 - n),
        "21": 0.25 * (I2 + n),
        "12": 0.25 * (I2 + m),
        "22": 0.25 * (I2 - m),
    }


def quantitative_effect_table(delta: float, theta: float) -> dict[str, np.ndarray]:
    bias = math.cos(theta) * math.cos(delta)
    m = -math.sin(delta) * math.sin(theta) * SX + (math.cos(delta) + math.cos(theta)) * SZ
    n = -math.sin(delta) * math.sin(theta) * SX + (math.cos(delta) - math.cos(theta)) * SZ
    return {
        "11": 0.25 * ((1 + bias) * I2 + m),
        "21": 0.25 * ((1 - bias) * I2 - n),
        "12": 0.25 * ((1 - bias) * I2 + n),
        "22": 0.25 * ((1 + bias) * I2 - m),
    }


class TestExtractSimple:
    def test_path_detection_measures_sharp_path(self):
        measured = extraction.extract_effects(extraction.schemes_for([interferometer.MzConfig("path")]))[0]
        np.testing.assert_allclose(measured[0], 0.5 * (I2 + SZ), atol=1e-12)
        np.testing.assert_allclose(measured[1], 0.5 * (I2 - SZ), atol=1e-12)

    def test_interference_detection_measures_sharp_interference(self):
        measured = extraction.extract_effects(
            extraction.schemes_for([interferometer.MzConfig("interference")])
        )[0]
        np.testing.assert_allclose(measured[0], 0.5 * (I2 + SX), atol=1e-12)
        np.testing.assert_allclose(measured[1], 0.5 * (I2 - SX), atol=1e-12)

    def test_marking_with_marker_pointers_gives_path_fractions(self):
        for delta in GRID:
            config = interferometer.MzConfig("marking", delta=delta)
            measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
            for label, want in marking_effect_table(delta).items():
                np.testing.assert_allclose(measured[povm.JOINT_LABELS.index(label)], want, atol=1e-12)


class TestClosedFormAgreement:
    def test_marking_table(self):
        for delta in GRID:
            analytic = extraction.closed_form(interferometer.MzConfig("marking", delta=delta))
            for label, want in marking_effect_table(delta).items():
                np.testing.assert_allclose(analytic.joint.operator(label), want, atol=1e-14)

    def test_erasure_table(self):
        for delta, gamma in itertools.product(GRID, GRID):
            config = interferometer.MzConfig("erasure", delta=delta, gamma=gamma)
            analytic = extraction.closed_form(config)
            measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
            for label, want in erasure_effect_table(delta, gamma).items():
                np.testing.assert_allclose(analytic.joint.operator(label), want, atol=1e-14)
                np.testing.assert_allclose(measured[povm.JOINT_LABELS.index(label)], want, atol=1e-10)

    def test_quantitative_table(self):
        for delta, theta in itertools.product(GRID, GRID):
            config = interferometer.MzConfig("quantitative", delta=delta, theta=theta)
            analytic = extraction.closed_form(config)
            measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
            for label, want in quantitative_effect_table(delta, theta).items():
                np.testing.assert_allclose(analytic.joint.operator(label), want, atol=1e-14)
                np.testing.assert_allclose(measured[povm.JOINT_LABELS.index(label)], want, atol=1e-10)

    def test_marking_reduces_to_quantitative_at_zero_tilt(self):
        for delta in GRID:
            a = extraction.closed_form(interferometer.MzConfig("marking", delta=delta))
            b = extraction.closed_form(
                interferometer.MzConfig("quantitative", delta=delta, theta=0.0)
            )
            for label in a.joint.labels:
                np.testing.assert_allclose(
                    a.joint.operator(label), b.joint.operator(label), atol=1e-14
                )

    def test_unsupported_experiment(self):
        with pytest.raises(UnsupportedExperiment):
            extraction.closed_form(interferometer.MzConfig("path"))


def _reference_half(coeff, vec):
    # The entrywise (coeff I + vec . sigma) / 2 on Python floats that the
    # scalar closed form was built from.
    x, y, z = (float(c) for c in vec)
    return np.array([[0.5 * (coeff + z), complex(0.5 * x, -0.5 * y)],
                     [complex(0.5 * x, 0.5 * y), 0.5 * (coeff - z)]])


def _reference_quarter(coeff, vec):
    return 0.5 * _reference_half(coeff, vec)


def _reference_closed_form(config):
    """The (4, 2, 2) joint and three (2, 2, 2) marginal effects of one config, one Python call per entry."""
    d = config.delta
    if config.experiment == "marking":
        ident = np.eye(2, dtype=complex)
        plus = 0.5 * (ident + SZ)
        minus = 0.5 * (ident - SZ)
        c2 = math.cos(d / 2.0) ** 2
        s2 = math.sin(d / 2.0) ** 2
        joint = [c2 * plus, s2 * plus, s2 * minus, c2 * minus]
        detector = [_reference_half(1.0, (0, 0, math.cos(d))), _reference_half(1.0, (0, 0, -math.cos(d)))]
        probe = [plus, minus]
        coincidence = [c2 * ident, s2 * ident]
    elif config.experiment == "erasure":
        g = config.gamma
        n = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), -math.cos(d)])
        m = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), math.cos(d)])
        joint = [_reference_quarter(1.0, -n), _reference_quarter(1.0, n),
                 _reference_quarter(1.0, m), _reference_quarter(1.0, -m)]
        detector = [_reference_half(1.0, (0, 0, math.cos(d))), _reference_half(1.0, (0, 0, -math.cos(d)))]
        probe = [_reference_half(1.0, (0, 0, 0)), _reference_half(1.0, (0, 0, 0))]
        fringe = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), 0.0])
        coincidence = [_reference_half(1.0, -fringe), _reference_half(1.0, fringe)]
    else:
        t = config.theta
        bias = math.cos(t) * math.cos(d)
        m = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d) + math.cos(t)])
        n = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d) - math.cos(t)])
        joint = [_reference_quarter(1.0 + bias, m), _reference_quarter(1.0 - bias, -n),
                 _reference_quarter(1.0 - bias, n), _reference_quarter(1.0 + bias, -m)]
        f_vec = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d)])
        detector = [_reference_half(1.0, f_vec), _reference_half(1.0, -f_vec)]
        probe = [_reference_half(1.0, (0, 0, math.cos(t))), _reference_half(1.0, (0, 0, -math.cos(t)))]
        coincidence = [_reference_half(1.0 + bias, (0, 0, 0)), _reference_half(1.0 - bias, (0, 0, 0))]
    return tuple(np.array(ops, dtype=complex) for ops in (joint, detector, probe, coincidence))


def _random_configs(rng, experiment, count):
    # Uniform angles in [-2 pi, 2 pi], about a third of them replaced by 0, -0, +/-pi/2 or +/-pi.
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, (count, 3))
    special = rng.random((count, 3)) < 0.3
    angles[special] = rng.choice([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi], special.sum())
    return [interferometer.MzConfig(experiment, *map(float, row)) for row in angles]


class TestClosedFormStack:
    def assert_matches_reference(self, configs):
        stacked = extraction.closed_form_stack(configs)
        assert [a.shape for a in stacked] == [(len(configs), 4, 2, 2)] + [(len(configs), 2, 2, 2)] * 3
        for n, config in enumerate(configs):
            for got, want in zip(stacked, _reference_closed_form(config)):
                assert_same_bits(got[n], want)

    def test_grid_configs(self):
        grid = [c for c in verify.distinct_grid_configs() if c.experiment not in interferometer.DETECTOR_ONLY]
        assert len(grid) == 136
        for _, run in itertools.groupby(grid, key=lambda c: c.experiment):
            self.assert_matches_reference(list(run))

    @pytest.mark.parametrize("experiment, count", [("marking", 666), ("erasure", 667), ("quantitative", 667)])
    def test_random_configs(self, rng, experiment, count):
        self.assert_matches_reference(_random_configs(rng, experiment, count))

    @pytest.mark.parametrize("experiment", ["marking", "erasure", "quantitative"])
    def test_closed_form_joint_is_row_zero_of_a_stack_of_one(self, rng, experiment):
        # The one read the benchmark's sweep gate makes: closed_form(config).joint.operator(label).
        configs = _random_configs(rng, experiment, 20)
        stacked = extraction.closed_form_stack(configs)[0]
        for n, config in enumerate(configs):
            joint = extraction.closed_form(config).joint
            one = extraction.closed_form_stack([config])[0][0]
            for k, label in enumerate(povm.JOINT_LABELS):
                assert_same_bits(joint.operator(label), one[k])
                assert_same_bits(joint.operator(label), stacked[n, k])

    @pytest.mark.parametrize("experiment", ["path", "interference"])
    def test_unread_experiments_raise(self, experiment):
        config = interferometer.MzConfig(experiment, delta=0.3)
        with pytest.raises(UnsupportedExperiment, match=f"not '{experiment}'"):
            extraction.closed_form(config)
        with pytest.raises(UnsupportedExperiment, match=f"not '{experiment}'"):
            extraction.closed_form_stack([config, config])

    def test_mixed_or_empty_stacks_raise(self):
        mixed = [interferometer.MzConfig("marking", delta=0.3), interferometer.MzConfig("erasure", delta=0.3)]
        with pytest.raises(UnsupportedExperiment, match=r"one experiment, got \['erasure', 'marking'\]"):
            extraction.closed_form_stack(mixed)
        with pytest.raises(UnsupportedExperiment, match=r"one experiment, got \[\]"):
            extraction.closed_form_stack([])


class TestMarginals:
    def test_marking_marginals(self):
        delta = 0.7
        _, detector, probe, coincidence = extraction.closed_form_stack([interferometer.MzConfig("marking", delta=delta)])
        np.testing.assert_allclose(detector[0, 0], 0.5 * (I2 + math.cos(delta) * SZ), atol=1e-14)
        np.testing.assert_allclose(probe[0, 0], 0.5 * (I2 + SZ), atol=1e-14)
        np.testing.assert_allclose(coincidence[0, 0], math.cos(delta / 2) ** 2 * I2, atol=1e-14)

    def test_erasure_marginals(self):
        delta, gamma = -0.9, 0.4
        _, detector, probe, coincidence = extraction.closed_form_stack(
            [interferometer.MzConfig("erasure", delta=delta, gamma=gamma)]
        )
        np.testing.assert_allclose(detector[0, 1], 0.5 * (I2 - math.cos(delta) * SZ), atol=1e-14)
        np.testing.assert_allclose(probe[0, 0], 0.5 * I2, atol=1e-14)
        fringe = math.sin(delta) * (math.cos(gamma) * SX + math.sin(gamma) * SY)
        np.testing.assert_allclose(coincidence[0, 0], 0.5 * (I2 - fringe), atol=1e-14)
        np.testing.assert_allclose(coincidence[0, 1], 0.5 * (I2 + fringe), atol=1e-14)

    def test_quantitative_marginals(self):
        delta, theta = -math.pi / 2, 0.8
        _, detector, probe, coincidence = extraction.closed_form_stack(
            [interferometer.MzConfig("quantitative", delta=delta, theta=theta)]
        )
        np.testing.assert_allclose(detector[0, 0], 0.5 * (I2 + math.sin(theta) * SX), atol=1e-14)
        np.testing.assert_allclose(probe[0, 0], 0.5 * (I2 + math.cos(theta) * SZ), atol=1e-14)
        np.testing.assert_allclose(
            coincidence[0, 0], 0.5 * (1 + math.cos(theta) * math.cos(delta)) * I2, atol=1e-14
        )

    def test_grouping_of_joint_reproduces_closed_marginals(self):
        joint, *marginals = extraction.closed_form_stack([interferometer.MzConfig("erasure", delta=0.5, gamma=1.1)])
        np.testing.assert_allclose(povm.joint_marginals(joint)[0], np.stack(marginals, axis=1)[0], atol=1e-14)


class TestSchemeValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidScheme):
            extraction.SchemeStack(("1",), [np.eye(4) * 1.1], [[1.0, 0.0]], [[np.eye(4)]])

    def test_non_projection_output_rejected(self):
        with pytest.raises(InvalidScheme):
            extraction.SchemeStack(("1", "2"), [np.eye(4)], [[1.0, 0.0]], [[0.5 * np.eye(4), 0.5 * np.eye(4)]])

    def test_outputs_must_sum_to_identity(self):
        p = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(InvalidScheme):
            extraction.SchemeStack(("1", "2"), [np.eye(4)], [[1.0, 0.0]], [[p, p]])


    def test_single_scheme_calls_take_one_member(self):
        schemes = extraction.schemes_for([interferometer.MzConfig("path")] * 2)
        with pytest.raises(InvalidScheme, match="one-member"):
            oracle.direct_probabilities(schemes, [1, 0])

    def test_nan_unitary_rejected(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        with pytest.raises(InvalidScheme, match="unitarity"):
            extraction.SchemeStack(scheme.labels, np.full((1, 4, 4), np.nan), scheme.probe_init, scheme.outputs)

    def test_nan_output_projection_rejected(self):
        scheme = extraction.schemes_for([interferometer.MzConfig("path")])
        broken = np.array(scheme.outputs)
        broken[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidScheme, match="'1'"):
            extraction.SchemeStack(scheme.labels, scheme.unitaries, scheme.probe_init, broken)


class TestExtractionProperties:
    def test_positivity_and_normalization(self, rng):
        for _ in range(40):
            config = interferometer.MzConfig(
                "quantitative",
                delta=float(rng.uniform(-math.pi, math.pi)),
                theta=float(rng.uniform(0, math.pi)),
            )
            measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
            total = np.zeros((2, 2), dtype=complex)
            for op in measured:
                low = linalg.eig_hermitian_stack(op)[0].min()
                assert low >= -1e-10
                total = total + op
            assert np.max(np.abs(total - I2)) <= 1e-12

    def test_probability_reproduction(self, rng):
        config = interferometer.MzConfig("erasure", delta=0.9, gamma=2.2)
        scheme = extraction.schemes_for([config])
        measured = extraction.extract_effects(scheme)[0]
        for _ in range(100):
            psi = random_pure(rng)
            direct = oracle.direct_probabilities(scheme, psi)
            for label, p in direct.items():
                predicted = float(np.vdot(psi, measured[scheme.labels.index(label)] @ psi).real)
                assert abs(p - predicted) <= 1e-12

    def test_probe_marginal_is_path_type_for_any_pointer_pair(self, rng):
        for _ in range(50):
            theta = float(rng.uniform(0, math.pi / 2))
            delta = float(rng.uniform(-math.pi, math.pi))
            p1, p2 = interferometer.marker_states(theta)
            r1 = random_pure(rng)
            scheme = extraction.build_schemes([[[1.0, 0.0], p1, p2]], [delta], [(r1, linalg.perp(r1))])
            probe = povm.joint_marginals(extraction.extract_effects(scheme))[0, 1]
            (b1, b2), (u1, u2) = povm.bias_and_direction_stack(probe)
            assert np.max(np.abs(u1 + u2)) <= 1e-10
            assert abs(b1 + b2) <= 1e-10
            assert abs(u1[0]) <= 1e-10 and abs(u1[1]) <= 1e-10


class TestConditionalProbabilities:
    def test_erasure_fringes_and_antifringes(self):
        config = interferometer.MzConfig("erasure", delta=-math.pi / 2, gamma=0.0)
        measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        fringes = extraction.conditional_probabilities(measured, "1", plus)
        antifringes = extraction.conditional_probabilities(measured, "2", plus)
        assert fringes["1"] == pytest.approx(1.0, abs=1e-12)
        assert fringes["2"] == pytest.approx(0.0, abs=1e-12)
        assert antifringes["1"] == pytest.approx(0.0, abs=1e-12)
        assert antifringes["2"] == pytest.approx(1.0, abs=1e-12)

    def test_conditionals_are_state_independent_at_erasure_point(self, rng):
        # With a trivial probe marginal the conditioning denominator is 1/2
        # for every input.
        config = interferometer.MzConfig("erasure", delta=-math.pi / 2, gamma=0.7)
        measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
        interference = 0.5 * (I2 + math.cos(0.7) * SX + math.sin(0.7) * SY)
        for _ in range(10):
            psi = random_pure(rng)
            got = extraction.conditional_probabilities(measured, "1", psi)
            rho = linalg.projectors(psi)
            assert got["1"] == pytest.approx(expectation(interference, rho), abs=1e-12)

    def test_zero_probability_condition_raises(self):
        # Sharp probe marginal (path basis) and a path eigenstate starve
        # one probe outcome.
        config = interferometer.MzConfig("marking", delta=0.3)
        measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
        with pytest.raises(ZeroProbabilityCondition):
            extraction.conditional_probabilities(measured, "1", np.array([0.0, 1.0]))

    @pytest.mark.parametrize("psi", [[1.0, 1.0], [0.0, 0.9], [math.nan, 0.0]])
    def test_non_unit_input_rejected_before_the_label(self, psi):
        config = interferometer.MzConfig("erasure", delta=0.4)
        measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
        for probe_label in ("1", "3"):
            with pytest.raises(NotNormalized, match="^state vector 0 has norm"):
                extraction.conditional_probabilities(measured, probe_label, psi)

    @pytest.mark.parametrize("probe_label", ["0", "3", "11", 1])
    def test_unknown_probe_label_raises_key_error(self, probe_label):
        config = interferometer.MzConfig("erasure", delta=0.4)
        measured = extraction.extract_effects(extraction.schemes_for([config]))[0]
        with pytest.raises(KeyError):
            extraction.conditional_probabilities(measured, probe_label, PLUS)
