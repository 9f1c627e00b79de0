import itertools
import math

import numpy as np
import pytest

from mzpovm import extraction, interferometer, linalg
from mzpovm.errors import InvalidScheme, UnsupportedExperiment

from conftest import random_pure

GRID = (0.0, math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2, math.pi)


class TestMzEvolution:
    def test_zero_phase_is_global_sign(self):
        np.testing.assert_allclose(interferometer.mz_evolution_stack([0.0])[0], -np.eye(2), atol=1e-15)

    def test_quarter_phase_sends_plus_to_first_output(self):
        u = interferometer.mz_evolution_stack([-math.pi / 2])[0]
        out = u @ (np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(out[1]) <= 1e-15
        assert abs(abs(out[0]) - 1.0) <= 1e-15

    def test_unitary_for_random_phases(self, rng):
        u = interferometer.mz_evolution_stack(rng.uniform(-2 * math.pi, 2 * math.pi, 1000))
        assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2))) <= 1e-14

    def test_interference_output_state(self, rng):
        # At delta = -pi/2 the output is a global phase times
        # alpha (|1>-|2>)/sqrt2 + beta (|1>+|2>)/sqrt2.
        alpha, beta = 0.6, 0.8
        u = interferometer.mz_evolution_stack([-math.pi / 2])[0]
        got = u @ np.array([alpha, beta])
        want = (
            -(1 - 1j)
            / math.sqrt(2)
            * (alpha * np.array([1, -1]) / math.sqrt(2) + beta * np.array([1, 1]) / math.sqrt(2))
        )
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestMarkerStates:
    def test_zero_tilt_orthogonal(self):
        p1, p2 = interferometer.marker_states(0.0)
        np.testing.assert_array_equal(p1, [1, 0])
        np.testing.assert_array_equal(p2, [0, 1])

    def test_right_angle_tilt_identical(self):
        p1, p2 = interferometer.marker_states(math.pi / 2)
        np.testing.assert_allclose(p1, p2, atol=1e-15)
        assert abs(np.vdot(p1, p2)) == pytest.approx(1.0, abs=1e-14)

    def test_overlap_is_sine(self):
        p1, p2 = interferometer.marker_states(math.pi / 3)
        assert np.vdot(p1, p2).real == pytest.approx(math.sqrt(3) / 2, abs=1e-14)


def _marking_unitary(probes):
    # U_mark as the run route builds it: the total unitary at delta = 0, where U_MZ = -I.
    return -interferometer.total_unitary_stack(probes, np.zeros(len(probes)))


class TestMarkingUnitary:
    def test_no_marking_acts_as_identity_on_neutral_inputs(self, rng):
        p0 = random_pure(rng)
        u = _marking_unitary(np.array([[p0, p0, p0]]))[0]
        np.testing.assert_allclose(u, np.eye(4), atol=1e-12)

    def test_orthogonal_markers_entangle(self):
        p0, p1, p2 = interferometer.probe_stack([interferometer.MzConfig("marking")])[0]
        u = _marking_unitary(np.array([[p0, p1, p2]]))[0]
        alpha, beta = 0.6, 0.8
        out = u @ np.kron([alpha, beta], p0)
        want = alpha * np.kron([1, 0], p1) + beta * np.kron([0, 1], p2)
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_unitarity_and_action_for_random_probes(self, rng):
        probes = np.array([[random_pure(rng), random_pure(rng), random_pure(rng)] for _ in range(200)])
        for u, (p0, p1, p2) in zip(_marking_unitary(probes), probes):
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
            for k, pk in ((1, p1), (2, p2)):
                e = np.zeros(2)
                e[k - 1] = 1.0
                np.testing.assert_allclose(u @ np.kron(e, p0), np.kron(e, pk), atol=1e-12)

    def test_two_completions_agree_on_neutral_inputs(self, rng):
        p0, p1, p2 = random_pure(rng), random_pure(rng), random_pure(rng)
        u = _marking_unitary(np.array([[p0, p1, p2]]))[0]
        # Alternative completion: arbitrary phases on the perp channel.
        blocks = []
        for pk, phase in ((p1, np.exp(0.7j)), (p2, np.exp(-1.1j))):
            blocks.append(np.outer(pk, p0.conj()) + phase * np.outer(linalg.perp(pk), linalg.perp(p0).conj()))
        alt = np.zeros((4, 4), dtype=complex)
        alt[:2, :2] = blocks[0]
        alt[2:, 2:] = blocks[1]
        for _ in range(10):
            psi = random_pure(rng)
            inp = np.kron(psi, p0)
            np.testing.assert_allclose(u @ inp, alt @ inp, atol=1e-12)


class TestFinalState:
    def test_path_experiment_is_minus_input(self, rng):
        config = interferometer.MzConfig("path")
        probes = interferometer.probe_stack([config])
        psi = random_pure(rng)
        (out,) = interferometer.final_state_stack(psi, probes, [interferometer.effective_delta(config)])
        np.testing.assert_allclose(out, -np.kron(psi, probes[0, 0]), atol=1e-14)

    def test_erasure_epr_form(self):
        # Balanced input, orthogonal markers, delta = -pi/2: the output is
        # a phase times [(|1>-|2>)|p1> + (|1>+|2>)|p2>] / 2, Schmidt
        # weight exactly one half.
        config = interferometer.MzConfig("erasure", delta=-math.pi / 2, gamma=0.0)
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        (out,) = interferometer.final_state_stack(psi, interferometer.probe_stack([config]), [-math.pi / 2])
        want = (
            -(1 - 1j)
            / math.sqrt(2)
            * 0.5
            * (np.kron([1, -1], [1, 0]) + np.kron([1, 1], [0, 1]))
        )
        np.testing.assert_allclose(out, want, atol=1e-14)
        assert linalg.schmidt_stack(out[None])[0][0] == pytest.approx(0.5, abs=1e-14)

    def test_quantitative_matches_component_formulas(self, rng):
        # Literal expansion of the tilted-marker output state.
        for _ in range(25):
            theta = float(rng.uniform(0, math.pi / 2))
            delta = float(rng.uniform(-math.pi, math.pi))
            psi = random_pure(rng)
            alpha, beta = psi
            config = interferometer.MzConfig("quantitative", delta=delta, theta=theta)
            (out,) = interferometer.final_state_stack(psi, interferometer.probe_stack([config]), [delta])
            e = np.exp(1j * delta)
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            want = np.array(
                [
                    -0.5 * alpha * c * (1 + e) + 0.5j * beta * s * (1 - e),
                    -0.5 * alpha * s * (1 + e) + 0.5j * beta * c * (1 - e),
                    -0.5j * alpha * c * (1 - e) - 0.5 * beta * s * (1 + e),
                    -0.5j * alpha * s * (1 - e) - 0.5 * beta * c * (1 + e),
                ]
            )
            np.testing.assert_allclose(out, want, atol=1e-12)

    def test_erasure_matches_component_formulas(self, rng):
        # Amplitudes against the rotated pointer pair q1, q2.
        for _ in range(25):
            gamma = float(rng.uniform(0, 2 * math.pi))
            delta = float(rng.uniform(-math.pi, math.pi))
            psi = random_pure(rng)
            alpha, beta = psi
            config = interferometer.MzConfig("erasure", delta=delta, gamma=gamma)
            (out,) = interferometer.final_state_stack(psi, interferometer.probe_stack([config]), [delta])
            q1, q2 = interferometer.pointer_stack([config])[0]
            e = np.exp(1j * delta)
            f = np.exp(-1j * gamma)
            scale = 1.0 / (2.0 * math.sqrt(2.0))
            want = {
                (1, 0): scale * (-alpha * (1 + e) + 1j * f * beta * (1 - e)),
                (2, 0): scale * (-1j * alpha * (1 - e) - f * beta * (1 + e)),
                (1, 1): scale * (-alpha * (1 + e) - 1j * f * beta * (1 - e)),
                (2, 1): scale * (-1j * alpha * (1 - e) + f * beta * (1 + e)),
            }
            for (k, pointer_index), amplitude in want.items():
                pointer = (q1, q2)[pointer_index]
                basis_vec = np.kron(np.eye(2)[k - 1], pointer)
                assert np.vdot(basis_vec, out) == pytest.approx(amplitude, abs=1e-12)

    def test_norm_preserved_over_grid(self):
        psi = np.array([0.6, 0.8j])
        for experiment in interferometer.EXPERIMENTS:
            configs = [
                interferometer.MzConfig(experiment, delta=d, gamma=g, theta=t)
                for d, g, t in itertools.product(GRID, repeat=3)
            ]
            deltas = [interferometer.effective_delta(c) for c in configs]
            out = interferometer.final_state_stack(psi, interferometer.probe_stack(configs), deltas)
            assert out.shape == (len(configs), 4)
            assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12


class TestOutputProjection:
    def test_first_detector_first_pointer(self):
        got = interferometer.output_projection_stack([[1.0, 0.0]])
        np.testing.assert_array_equal(got, [[np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 1.0, 0])]])

    def test_erasure_pointer_family_sums_to_identity(self):
        config = interferometer.MzConfig("erasure", gamma=0.9)
        pointers = interferometer.pointer_stack([config])[0]
        total = interferometer.output_projection_stack(pointers).sum(axis=(0, 1))
        np.testing.assert_allclose(total, np.eye(4), atol=1e-14)

    def test_non_unit_pointer_rejected(self):
        # The projections take pointer rows as given; the scheme built on them rejects them.
        pointers = np.array([[[1.0, 1.0], [1.0, -1.0]]], dtype=complex)
        probes = interferometer.probe_stack([interferometer.MzConfig("marking")])
        with pytest.raises(InvalidScheme, match="deviates from a projection"):
            extraction.build_schemes(probes, [0.0], pointers)


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(UnsupportedExperiment):
            interferometer.MzConfig("doubleslit")

    def test_non_finite_angle_rejected(self):
        with pytest.raises(UnsupportedExperiment):
            interferometer.MzConfig("path", delta=math.inf)

    def test_pinned_phases(self):
        assert interferometer.effective_delta(interferometer.MzConfig("path", delta=1.0)) == 0.0
        assert interferometer.effective_delta(
            interferometer.MzConfig("interference", delta=1.0)
        ) == -math.pi / 2
        assert interferometer.effective_delta(
            interferometer.MzConfig("erasure", delta=1.0)
        ) == 1.0

    def test_completion_independent_extraction(self, rng):
        # The measured POVM depends on the coupling only through its action
        # on neutral inputs: alternative completions extract identically.
        p0, p1, p2 = random_pure(rng), random_pure(rng), random_pure(rng)
        delta = 0.8
        pointer = interferometer.pointer_stack([interferometer.MzConfig("marking")])
        base_scheme = extraction.build_schemes([[p0, p1, p2]], [delta], pointer)
        base = extraction.extract_effects(base_scheme)[0]
        blocks = []
        for pk, phase in ((p1, np.exp(2.2j)), (p2, np.exp(0.4j))):
            blocks.append(np.outer(pk, p0.conj()) + phase * np.outer(linalg.perp(pk), linalg.perp(p0).conj()))
        alt_mark = np.zeros((4, 4), dtype=complex)
        alt_mark[:2, :2] = blocks[0]
        alt_mark[2:, 2:] = blocks[1]
        alt_scheme = extraction.SchemeStack(
            base_scheme.labels,
            [np.kron(interferometer.mz_evolution_stack([delta])[0], np.eye(2)) @ alt_mark],
            base_scheme.probe_init,
            base_scheme.outputs,
        )
        alt = extraction.extract_effects(alt_scheme)[0]
        np.testing.assert_allclose(base, alt, atol=1e-12)
