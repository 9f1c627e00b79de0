import math

import numpy as np
import pytest

from mzpovm import complementarity, interferometer, linalg, oracle, povm, relations
from mzpovm.errors import DimensionMismatch, NotHermitian, NotNormalized, NotSharp

from conftest import assert_same_bits, random_bloch_in_ball, random_pure, stack_of

I2 = np.eye(2, dtype=complex)
SX, SY, SZ = linalg.pauli_triple()
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


def state_reports(rho):
    """The four records of state_relations_stack for a batch of one state; entry 0 is its audit."""
    return relations.state_relations_stack(np.asarray(rho, dtype=complex)[None])


def entropic_report(a, b, psi):
    """entropic_bound_stack on a batch of one pure state; entry 0 is its audit."""
    return relations.entropic_bound_stack(a, b, np.asarray(psi, dtype=complex).reshape(1, -1))


class TestVarianceUr:
    def test_eigenstate_saturates_at_zero(self):
        report = state_reports(linalg.projectors([1, 0]))[0]
        assert report.lhs[0] == pytest.approx(0.0, abs=1e-14)
        assert report.rhs[0] == pytest.approx(0.0, abs=1e-14)
        assert report.satisfied[0]

    def test_maximally_mixed(self):
        report = state_reports(np.eye(2) / 2)[0]
        assert report.lhs[0] == pytest.approx(1.0, abs=1e-14)
        assert report.rhs[0] == pytest.approx(0.0, abs=1e-14)

    def test_equatorial_pure_state_saturates(self):
        report = state_reports(linalg.density_from_bloch([0.6, 0.0, 0.8]))[0]
        assert report.lhs[0] == pytest.approx(0.2304, abs=1e-12)
        assert report.rhs[0] == pytest.approx(0.2304, abs=1e-12)

    def test_rhs_equals_commutator_covariance_identity(self, rng):
        # The bound always evaluates to <sy>^2 + <sx>^2 <sz>^2, and the gap
        # to the left side is exactly 1 - |r|^2.
        r = np.array([random_bloch_in_ball(rng) for _ in range(500)])
        report = relations.state_relations_stack(linalg.density_from_bloch_stack(r))[0]
        np.testing.assert_allclose(report.rhs, r[:, 1] ** 2 + r[:, 0] ** 2 * r[:, 2] ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.slack, 1.0 - np.sum(r * r, axis=1), rtol=0, atol=1e-12)
        assert (report.slack >= -1e-12).all()

    def test_equality_exactly_on_pure_states(self, rng):
        directions = rng.standard_normal((200, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        report = relations.state_relations_stack(linalg.density_from_bloch_stack(directions))[0]
        assert (np.abs(report.slack) <= 1e-10).all()

    def test_holds_on_ten_thousand_random_states(self):
        rng = np.random.default_rng(2718)
        directions = rng.standard_normal((10000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = np.ones(10000)
        radii[:5000] = rng.random(5000) ** (1.0 / 3.0)
        r = directions * radii[:, None]
        report = relations.state_relations_stack(linalg.density_from_bloch_stack(r))[0]
        assert (report.slack >= -1e-12).all()
        np.testing.assert_allclose(report.slack, 1.0 - np.sum(r * r, axis=1), rtol=0, atol=1e-10)


class TestShannonEntropy:
    def test_eigenstate_has_zero_entropy(self):
        assert relations.shannon_entropy(
            relations.pauli_pvm("z"), linalg.projectors([1, 0])
        ) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_has_one_bit(self):
        assert relations.shannon_entropy(relations.pauli_pvm("z"), np.eye(2) / 2) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_binary_entropy_of_tilted_state(self):
        rho = linalg.density_from_bloch([0, 0, 0.5])
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert relations.shannon_entropy(relations.pauli_pvm("z"), rho) == pytest.approx(
            h, abs=1e-14
        )

    @pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.array([[0.5, 0.1], [0.0, 0.5]]), np.eye(4) / 4])
    def test_non_hermitian_nan_or_non_qubit_state_raises(self, bad):
        with pytest.raises(NotHermitian):
            relations.shannon_entropy(relations.pauli_pvm("z"), bad)


class TestEntropicBound:
    def test_eigenstate_saturates_one_bit(self):
        report = entropic_report(
            relations.pauli_pvm("z"), relations.pauli_pvm("x"), [1, 0]
        )
        assert report.lhs[0] == pytest.approx(1.0, abs=1e-12)
        assert report.rhs[0] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_direction_exceeds_bound(self):
        # The pure state along (1, 1, 1) / sqrt 3: the top eigenvector of its projector.
        psi = linalg.eig_hermitian_stack(linalg.density_from_bloch(np.array([1.0, 1.0, 1.0]) / math.sqrt(3)))[1][0]
        report = entropic_report(
            relations.pauli_pvm("z"), relations.pauli_pvm("x"), psi
        )
        assert report.rhs[0] == pytest.approx(1.0, abs=1e-12)
        assert report.lhs[0] > 1.0

    def test_identical_observables_have_zero_bound(self):
        report = entropic_report(
            relations.pauli_pvm("z"), relations.pauli_pvm("z"), [1, 0]
        )
        assert report.lhs[0] == pytest.approx(0.0, abs=1e-12)
        assert report.rhs[0] == pytest.approx(0.0, abs=1e-12)

    def test_bound_state_independent_for_unbiased_pair(self, rng):
        for _ in range(200):
            psi = random_pure(rng)
            report = entropic_report(
                relations.pauli_pvm("z"), relations.pauli_pvm("x"), psi
            )
            assert report.rhs[0] == pytest.approx(1.0, abs=1e-9)
            assert report.slack[0] >= -1e-9

    def test_unsharp_observable_rejected(self):
        blurred = np.array([0.5 * (I2 + 0.5 * SX), 0.5 * (I2 - 0.5 * SX)])
        with pytest.raises(NotSharp):
            entropic_report(blurred, relations.pauli_pvm("z"), [1, 0])
        with pytest.raises(NotSharp):
            entropic_report(relations.pauli_pvm("z"), blurred, [1, 0])

    def test_holds_on_ten_thousand_random_pure_states(self):
        rng = np.random.default_rng(3141)
        z = rng.standard_normal((10000, 4))
        states = z[:, 0::2] + 1j * z[:, 1::2]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        z_pvm, x_pvm = relations.pauli_pvm("z"), relations.pauli_pvm("x")
        eigenstates = np.array([[1, 0], [0, 1], [1, 1] / np.sqrt(2), [1, -1] / np.sqrt(2)])
        report = relations.entropic_bound_stack(z_pvm, x_pvm, np.vstack([states, eigenstates]))
        assert (report.slack >= -1e-9).all()
        assert float(report.lhs.min()) == pytest.approx(1.0, abs=1e-3)


class TestTripleRelations:
    def test_pure_state_saturations(self, rng):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        _, entropic, variances, squares = state_reports(linalg.density_from_bloch(direction))
        assert variances.lhs[0] == pytest.approx(2.0, abs=1e-12)
        assert squares.lhs[0] == pytest.approx(1.0, abs=1e-12)
        assert entropic.lhs[0] >= 2.0 - 1e-9

    def test_maximally_mixed_values(self):
        _, entropic, variances, squares = state_reports(np.eye(2) / 2)
        assert entropic.lhs[0] == pytest.approx(3.0, abs=1e-12)
        assert variances.lhs[0] == pytest.approx(3.0, abs=1e-12)
        assert squares.lhs[0] == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_entropy_triple_saturates(self):
        entropic = state_reports(linalg.projectors([1, 0]))[1]
        assert entropic.lhs[0] == pytest.approx(2.0, abs=1e-12)

    def test_identities_on_mixed_states(self, rng):
        r = np.array([random_bloch_in_ball(rng) for _ in range(300)])
        _, _, variances, squares = relations.state_relations_stack(linalg.density_from_bloch_stack(r))
        np.testing.assert_allclose(variances.lhs, 3.0 - np.sum(r * r, axis=1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(squares.lhs, np.sum(r * r, axis=1), rtol=0, atol=1e-12)


class TestContrasts:
    def test_path_eigenstate(self):
        c = relations.contrasts(linalg.projectors([1, 0]))
        assert (c.path, c.interference_x, c.interference_y, c.visibility) == (1.0, 0.0, 0.0, 0.0)

    def test_interference_eigenstate(self):
        c = relations.contrasts(linalg.projectors(PLUS))
        assert c.path == pytest.approx(0.0, abs=1e-14)
        assert c.interference_x == pytest.approx(1.0, abs=1e-14)
        assert c.visibility == pytest.approx(1.0, abs=1e-14)

    def test_partially_coherent_state_saturates_duality(self):
        rho = np.array([[0.75, math.sqrt(3) / 4], [math.sqrt(3) / 4, 0.25]], dtype=complex)
        c = relations.contrasts(rho)
        assert c.path == pytest.approx(0.5, abs=1e-14)
        assert c.interference_x == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
        assert c.path**2 + c.interference_x**2 == pytest.approx(1.0, abs=1e-14)


def reduced_state(alpha, beta, p1, p2) -> np.ndarray:
    """The photon state of alpha |1>|p1> + beta |2>|p2>, probe traced out."""
    return linalg.partial_trace_probe_stack(np.concatenate([alpha * np.asarray(p1), beta * np.asarray(p2)])[None])[0]


def pointer_success(alpha, beta, p1, p2, r) -> float:
    """Direct route to L: read the probe along r, guess path 1 on +r and path 2 on -r."""
    plus = linalg.density_from_bloch(r)
    return float(abs(alpha) ** 2 * np.vdot(p1, plus @ p1).real + abs(beta) ** 2 * np.vdot(p2, (I2 - plus) @ p2).real)


class TestDistinguishability:
    def test_orthogonal_markers_fully_distinguishable(self, rng):
        psi = np.array([random_pure(rng) for _ in range(10)])
        audit = relations.erasure_duality_stack(psi[:, 0], psi[:, 1], [[1, 0]] * 10, [[0, 1]] * 10)
        np.testing.assert_allclose(audit.distinguishability, 1.0, rtol=0, atol=1e-12)

    def test_balanced_input_tilted_markers(self):
        p1, p2 = interferometer.marker_states(math.pi / 3)
        audit = relations.erasure_duality_stack([1 / math.sqrt(2)], [1 / math.sqrt(2)], [p1], [p2])
        assert audit.distinguishability[0] == pytest.approx(0.5, abs=1e-12)

    def test_path_eigenstate_always_distinguishable(self):
        p1, p2 = interferometer.marker_states(1.1)
        audit = relations.erasure_duality_stack([1.0], [0.0], [p1], [p2])
        assert audit.distinguishability[0] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_identity(self, rng):
        inputs = []
        for _ in range(200):
            psi = random_pure(rng)
            theta = float(rng.uniform(0, math.pi / 2))
            inputs.append((psi[0], psi[1], *interferometer.marker_states(theta)))
        audits = relations.erasure_duality_stack(*zip(*inputs))
        for i, (alpha, beta, p1, p2) in enumerate(inputs):
            overlap = abs(np.vdot(p1, p2))
            want = math.sqrt(1 - 4 * abs(alpha) ** 2 * abs(beta) ** 2 * overlap**2)
            assert audits.distinguishability[i] == pytest.approx(want, abs=1e-12)
            # D = 2L - 1 for the success probability L of the probe readout
            # along the optimal pointer direction.
            success = pointer_success(alpha, beta, p1, p2, audits.pointer_direction[i])
            assert audits.distinguishability[i] == pytest.approx(2 * success - 1, abs=1e-12)

    def test_degenerate_direction_flagged(self):
        p1, p2 = interferometer.marker_states(math.pi / 2)
        audit = relations.erasure_duality_stack([1 / math.sqrt(2)], [1 / math.sqrt(2)], [p1], [p2])
        assert np.isnan(audit.pointer_direction[0]).all()
        assert audit.distinguishability[0] == 0.0

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(NotNormalized):
            relations.erasure_duality_stack([1.0], [1.0], [[1, 0]], [[0, 1]])

    def test_the_first_unnormalized_amplitude_pair_is_named(self):
        alphas, betas = [1.0, 0.6, 0.6, 1.0], [0.0, 0.8j, 0.9, 1.0]
        with pytest.raises(NotNormalized, match="^amplitude pair 2 has norm"):
            relations.erasure_duality_stack(alphas, betas, [[1, 0]] * 4, [[0, 1]] * 4)


class TestCoincidencePovm:
    def test_orthogonal_markers_aligned_pointer_gives_certainty(self):
        audits = relations.erasure_duality_stack([1.0, 0.6], [0.0, 0.8], [[1, 0]] * 2, [[0, 1]] * 2)
        for i, (alpha, beta) in enumerate(((1.0, 0.0), (0.6, 0.8))):
            np.testing.assert_allclose(audits.pointer_direction[i], [0.0, 0.0, 1.0], atol=1e-14)
            # Direct route: |alpha|^2 |<r1|p1>|^2 + |beta|^2 |<r2|p2>|^2 = 1.
            success = pointer_success(alpha, beta, np.array([1, 0]), np.array([0, 1]), audits.pointer_direction[i])
            assert success == pytest.approx(1.0, abs=1e-12)

    def test_identical_markers_general_form(self):
        # Identical markers carry no path evidence beyond the amplitudes:
        # the pointer lies along their Bloch vector and D = ||alpha|^2 - |beta|^2|.
        p1, p2 = interferometer.marker_states(math.pi / 2)
        alphas, betas = [0.8, 0.6], [0.6, 0.8]
        audits = relations.erasure_duality_stack(alphas, betas, [p1, p1], [p2, p2])
        b1 = linalg.bloch_from_density_stack(np.outer(p1, p1.conj()))
        for i, (alpha, beta) in enumerate(zip(alphas, betas)):
            sign = 1.0 if alpha > beta else -1.0
            np.testing.assert_allclose(audits.pointer_direction[i], sign * b1, atol=1e-14)
            assert audits.distinguishability[i] == pytest.approx(abs(alpha**2 - beta**2), abs=1e-14)

    def test_variance_matches_distinguishability(self, rng):
        inputs = []
        for _ in range(100):
            theta = float(rng.uniform(0, math.pi / 2))
            weight = float(rng.random())
            inputs.append((math.sqrt(weight), math.sqrt(1 - weight), *interferometer.marker_states(theta)))
        audits = relations.erasure_duality_stack(*zip(*inputs))
        for i, (alpha, beta, p1, p2) in enumerate(inputs):
            direction = audits.pointer_direction[i]
            if np.isnan(direction[0]):
                direction = np.array([0.0, 0.0, 1.0])
            # Variance of the +/-1-valued outcome: 1 - <H_corr - H_err>^2.
            bias = 2.0 * pointer_success(alpha, beta, p1, p2, direction) - 1.0
            var = 1.0 - bias**2
            assert var == pytest.approx(1.0 - audits.distinguishability[i] ** 2, abs=1e-12)


class TestVisibility:
    def test_orthogonal_markers_kill_visibility(self):
        audit = relations.erasure_duality_stack([PLUS[0]], [PLUS[1]], [[1, 0]], [[0, 1]])
        assert audit.visibility[0] == pytest.approx(0.0, abs=1e-14)

    def test_balanced_input_visibility_is_overlap(self):
        thetas = (0.3, 1.0, math.pi / 2)
        p1s, p2s = zip(*map(interferometer.marker_states, thetas))
        audit = relations.erasure_duality_stack([PLUS[0]] * 3, [PLUS[1]] * 3, p1s, p2s)
        np.testing.assert_allclose(audit.visibility, np.sin(thetas), rtol=0, atol=1e-12)

    def test_unmarked_coherent_state_has_unit_visibility(self):
        result = relations.erasure_duality_stack([PLUS[0]], [PLUS[1]], [[1, 0]], [[1, 0]])
        assert result.visibility[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(result.visibility_direction[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_optimal_direction_attains_the_maximum(self, rng):
        inputs = []
        for _ in range(10):
            psi = random_pure(rng)
            theta = float(rng.uniform(0.1, math.pi / 2))
            inputs.append((psi[0], psi[1], *interferometer.marker_states(theta)))
        audits = relations.erasure_duality_stack(*zip(*inputs))
        objectives = []
        for i, args in enumerate(inputs):
            rho_e = reduced_state(*args)
            n = audits.visibility_direction[i]
            s_n = n[0] * SX + n[1] * SY
            assert abs(linalg.expectation(s_n, rho_e)) == pytest.approx(audits.visibility[i], abs=1e-12)

            def equatorial(r, rho_e=rho_e):
                planar = math.hypot(r[0], r[1])
                if planar < 1e-12:
                    return 0.0
                return abs(
                    float(np.trace(rho_e @ ((r[0] * SX + r[1] * SY) / planar)).real)
                )

            objectives.append(equatorial)
        best, _ = oracle.grid_maximize_stack(stack_of(objectives), len(objectives))
        assert (best <= audits.visibility + 1e-9).all()


class TestErasureDuality:
    def test_worked_point(self):
        p1, p2 = interferometer.marker_states(math.pi / 3)
        audit = relations.erasure_duality_stack([1 / math.sqrt(2)], [1 / math.sqrt(2)], [p1], [p2])
        assert audit.distinguishability[0] == pytest.approx(0.5, abs=1e-12)
        assert audit.visibility[0] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert audit.duality.satisfied[0] and abs(audit.duality.slack[0]) <= 1e-12

    def test_orthogonal_markers(self):
        audit = relations.erasure_duality_stack([PLUS[0]], [PLUS[1]], [[1, 0]], [[0, 1]])
        assert audit.distinguishability[0] == pytest.approx(1.0, abs=1e-12)
        assert audit.visibility[0] == pytest.approx(0.0, abs=1e-12)
        assert audit.duality.satisfied[0]

    def test_lopsided_amplitudes(self):
        alpha = 0.9
        beta = math.sqrt(1 - alpha**2)
        p1, p2 = interferometer.marker_states(0.8)
        audit = relations.erasure_duality_stack([alpha], [beta], [p1], [p2])
        assert abs(audit.duality.slack[0]) <= 1e-9
        assert abs(audit.variance_tradeoff.slack[0]) <= 1e-9

    def test_random_sweep(self, rng):
        inputs = []
        for _ in range(300):
            theta = float(rng.uniform(0, math.pi / 2))
            weight = float(rng.random())
            phase = float(rng.uniform(0, 2 * math.pi))
            alpha = math.sqrt(weight)
            beta = math.sqrt(1 - weight) * np.exp(1j * phase)
            inputs.append((alpha, beta, *interferometer.marker_states(theta)))
        audit = relations.erasure_duality_stack(*zip(*inputs))
        assert (np.abs(audit.duality.slack) <= 1e-9).all()
        assert (np.abs(audit.variance_tradeoff.slack) <= 1e-9).all()

    def test_mixed_marker_preparations_fall_below_equality(self):
        # Classically mixing two marker choices gives D^2 + V_e^2 < 1:
        # the evidence vectors average while the coherences average too,
        # and both are strictly shorter than their pure-case values.
        alpha = beta = 1 / math.sqrt(2)
        pairs = [interferometer.marker_states(0.2), interferometer.marker_states(1.3)]
        weights = (0.5, 0.5)
        evidence = sum(
            w * (abs(alpha) ** 2 * linalg.bloch_from_density_stack(np.outer(p1, p1.conj()))
                 - abs(beta) ** 2 * linalg.bloch_from_density_stack(np.outer(p2, p2.conj())))
            for w, (p1, p2) in zip(weights, pairs)
        )
        mixed_rho = sum(w * reduced_state(alpha, beta, p1, p2) for w, (p1, p2) in zip(weights, pairs))
        d_mixed = float(np.linalg.norm(evidence))
        # V_e of any photon state is twice its coherence |rho_01|.
        v_mixed = 2.0 * abs(mixed_rho[0, 1])
        assert d_mixed**2 + v_mixed**2 < 1.0 - 1e-3


class TestReportMechanics:
    def test_geq_slack_sign(self):
        report = relations.make_reports("demo", [2.0], [1.0], "geq")
        assert report.satisfied[0] and report.slack[0] == 1.0

    def test_leq_slack_sign(self):
        report = relations.make_reports("demo", [2.0], [1.0], "leq")
        assert not report.satisfied[0] and report.slack[0] == -1.0

    def test_eq_tolerance(self):
        assert relations.make_reports("demo", [1.0 + 5e-10], [1.0], "eq").satisfied[0]
        assert not relations.make_reports("demo", [1.0 + 5e-9], [1.0], "eq").satisfied[0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            relations.make_reports("demo", [1.0], [1.0], "approx")


# Per-state reference formulas for the stacked kernels: the scalar routes
# these kernels replaced, written with the linalg primitives one state at
# a time.


def reference_entropy(effects, rho):
    total = 0.0
    for e in effects:
        prob = min(1.0, max(0.0, float(np.trace(e @ rho).real)))
        if prob > 0.0:
            total -= prob * math.log2(prob)
    return total


def reference_variance_ur(rho):
    lhs = linalg.variance(SX, rho) * linalg.variance(SZ, rho)
    comm = complex(np.trace((SX @ SZ - SZ @ SX) @ rho))
    anti = float(np.trace((SX @ SZ + SZ @ SX) @ rho).real)
    mx, mz = linalg.expectation(SX, rho), linalg.expectation(SZ, rho)
    return lhs, 0.25 * abs(comm) ** 2 + 0.25 * (anti - 2.0 * mx * mz) ** 2


def reference_triple(rho):
    pvms = [[0.5 * (I2 + s), 0.5 * (I2 - s)] for s in (SX, SY, SZ)]
    r = linalg.bloch_from_density_stack(rho)
    c = [min(1.0, abs(float(x))) for x in r]
    return (
        sum(reference_entropy(ops, rho) for ops in pvms),
        sum(linalg.variance(s, rho) for s in (SX, SY, SZ)),
        c[2] ** 2 + c[0] ** 2 + c[1] ** 2,
    )


def reference_entropic_bound(ops_a, ops_b, psi):
    v = linalg.state_vector(psi)
    rho = np.outer(v, v.conj())
    lhs = reference_entropy(ops_a, rho) + reference_entropy(ops_b, rho)
    best = 0.0
    for pa_op in ops_a:
        pa = pa_op @ v
        na = float(np.linalg.norm(pa))
        if na < 1e-12:
            continue
        for qb_op in ops_b:
            qb = qb_op @ v
            nb = float(np.linalg.norm(qb))
            if nb < 1e-12:
                continue
            best = max(best, abs(complex(np.vdot(v, pa_op @ qb))) / (na * nb))
    return lhs, (-2.0 * math.log2(best) if best > 0.0 else math.inf)


def reference_erasure(alpha, beta, p1, p2):
    """(pointer direction or None, D, V_e, visibility direction, D^2 + V_e^2, variance sum)."""
    b1, b2 = (linalg.bloch_from_density_stack(np.outer(p, np.conj(p))) for p in (p1, p2))
    evidence = abs(alpha) ** 2 * b1 - abs(beta) ** 2 * b2
    strength = float(np.linalg.norm(evidence))
    if strength < 1e-12:
        pointer, d = None, 0.0
    else:
        pointer, d = evidence / strength, min(1.0, strength)
    marked = alpha * np.kron([1.0, 0.0], p1) + beta * np.kron([0.0, 1.0], p2)
    rho_e = linalg.partial_trace_probe_stack(linalg.state_vector(marked)[None])[0]
    off = complex(rho_e[0, 1])
    if abs(off) < 1e-15:
        v_e, n = 0.0, np.array([1.0, 0.0, 0.0])
    else:
        angle = -np.angle(off)
        v_e, n = min(1.0, 2.0 * abs(off)), np.array([math.cos(angle), math.sin(angle), 0.0])
    r = np.array([0.0, 0.0, 1.0]) if pointer is None else pointer
    correct = 0.5 * ((1.0 + 0.5 * float(r @ (b1 - b2))) * I2 + 0.5 * float(r @ (b1 + b2)) * SZ)
    psi_in = linalg.state_vector([alpha, beta])
    diff = float(np.trace((correct - (I2 - correct)) @ np.outer(psi_in, psi_in.conj())).real)
    var_interference = linalg.variance(n[0] * SX + n[1] * SY, rho_e)
    return pointer, d, v_e, n, d * d + v_e**2, 1.0 - diff * diff + var_interference


EIGENSTATES = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), PLUS, np.array([1.0, -1.0]) / math.sqrt(2)]


def sample_states(rng):
    """Random mixed states, random pure states and the sigma_z / sigma_x eigenstates."""
    mixed = [linalg.density_from_bloch(random_bloch_in_ball(rng)) for _ in range(200)]
    pure = [linalg.projectors(random_pure(rng)) for _ in range(200)]
    return np.array(mixed + pure + [linalg.projectors(v) for v in EIGENSTATES])


class TestStackedKernels:
    def test_variance_ur_stack_matches_per_state_reference(self, rng):
        rhos = sample_states(rng)
        stack = relations.state_relations_stack(rhos)[0]
        want = np.array([reference_variance_ur(rho) for rho in rhos])
        np.testing.assert_allclose(stack.lhs, want[:, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack.rhs, want[:, 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack.slack, want[:, 0] - want[:, 1], rtol=0, atol=1e-15)
        assert stack.satisfied.all()

    def test_triple_relations_stack_matches_per_state_reference(self, rng):
        rhos = sample_states(rng)
        _, entropic, variances, squares = relations.state_relations_stack(rhos)
        want = np.array([reference_triple(rho) for rho in rhos])
        for got, column in ((entropic, 0), (variances, 1), (squares, 2)):
            np.testing.assert_allclose(got.lhs, want[:, column], rtol=0, atol=1e-15)
        np.testing.assert_allclose(squares.slack, 1.0 - want[:, 2], rtol=0, atol=1e-15)
        assert [s.name for s in (entropic, variances, squares)] == [
            "entropy-triple", "variance-triple", "contrast-triple"
        ]

    def test_entropic_bound_stack_matches_per_state_reference(self, rng):
        states = np.array([random_pure(rng) for _ in range(300)] + EIGENSTATES, dtype=complex)
        for a, b in (("z", "x"), ("x", "y"), ("z", "z")):
            pvm_a, pvm_b = relations.pauli_pvm(a), relations.pauli_pvm(b)
            stack = relations.entropic_bound_stack(pvm_a, pvm_b, states)
            ops_a, ops_b = list(pvm_a), list(pvm_b)
            want = np.array([reference_entropic_bound(ops_a, ops_b, psi) for psi in states])
            np.testing.assert_allclose(stack.lhs, want[:, 0], rtol=0, atol=1e-15)
            # The bound divides |<psi|P Q|psi>| by |P psi| |Q psi|, which
            # magnifies last-place rounding by up to 1 / (|P psi| |Q psi|):
            # both routes carry errors near 1e-14 on states close to an eigenstate.
            np.testing.assert_allclose(stack.rhs, want[:, 1], rtol=0, atol=1e-13)

    def test_entropic_bound_stack_in_three_dimensions(self, rng):
        computational = [np.diag(row).astype(complex) for row in np.eye(3)]
        fourier = complementarity.fourier_partner(complementarity.OrthonormalBasis(np.eye(3)))
        rotated = [np.outer(v, v.conj()) for v in fourier.vectors]
        pvm_a, pvm_b = np.array(computational), np.array(rotated)
        z = rng.standard_normal((50, 6))
        states = z[:, 0::2] + 1j * z[:, 1::2]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        stack = relations.entropic_bound_stack(pvm_a, pvm_b, states)
        want = np.array([reference_entropic_bound(computational, rotated, psi) for psi in states])
        np.testing.assert_allclose(stack.lhs, want[:, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack.rhs, math.log2(3.0), rtol=0, atol=1e-13)
        assert (stack.slack >= -1e-9).all()

    def test_eigenstates_take_the_excluded_term_branch(self):
        # P_2 |1> = 0: the (2, k) terms drop out of the maximum, and the
        # bound still comes out at one bit.
        stack = relations.entropic_bound_stack(
            relations.pauli_pvm("z"), relations.pauli_pvm("x"), np.array(EIGENSTATES)
        )
        np.testing.assert_allclose(stack.lhs, 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack.rhs, 1.0, rtol=0, atol=1e-15)

    def test_erasure_duality_stack_matches_per_state_reference(self, rng):
        alphas, betas, p1s, p2s = [], [], [], []
        for _ in range(300):
            weight = float(rng.random())
            alphas.append(math.sqrt(weight))
            betas.append(math.sqrt(1.0 - weight) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            p1, p2 = interferometer.marker_states(float(rng.uniform(0.0, math.pi / 2.0)))
            p1s.append(p1)
            p2s.append(p2)
        same = interferometer.marker_states(math.pi / 2)
        degenerate = [
            (PLUS[0], PLUS[1], *same),  # no evidence: no pointer direction
            (PLUS[0], PLUS[1], [1.0, 0.0], [0.0, 1.0]),  # orthogonal markers: rho_01 = 0
            (1.0, 0.0, *same),  # path eigenstate: rho_01 = 0
            (1.0, 1e-16j, *same),  # 0 < |rho_01| < 1e-15 counts as no coherence
        ]
        for alpha, beta, p1, p2 in degenerate:
            alphas.append(alpha)
            betas.append(beta)
            p1s.append(np.asarray(p1, dtype=complex))
            p2s.append(np.asarray(p2, dtype=complex))
        stack = relations.erasure_duality_stack(alphas, betas, p1s, p2s)
        assert np.isnan(stack.pointer_direction[-4]).all()
        assert (stack.visibility[-3:] == 0.0).all()
        np.testing.assert_array_equal(stack.visibility_direction[-1], [1.0, 0.0, 0.0])
        for i, args in enumerate(zip(alphas, betas, p1s, p2s)):
            pointer, d, v_e, n, duality, tradeoff = reference_erasure(*args)
            if pointer is None:
                assert np.isnan(stack.pointer_direction[i]).all()
            else:
                # Compared as evidence vectors: normalizing a short one magnifies rounding.
                np.testing.assert_allclose(stack.pointer_direction[i] * d, pointer * d, rtol=0, atol=1e-15)
            assert stack.distinguishability[i] == pytest.approx(d, abs=1e-15)
            assert stack.visibility[i] == pytest.approx(v_e, abs=1e-15)
            np.testing.assert_allclose(stack.visibility_direction[i], n, rtol=0, atol=1e-15)
            assert stack.duality.lhs[i] == pytest.approx(duality, abs=1e-15)
            assert stack.variance_tradeoff.lhs[i] == pytest.approx(tradeoff, abs=1e-15)

    def test_state_records_name_their_relations(self, rng):
        rho = linalg.density_from_bloch(random_bloch_in_ball(rng))
        records = relations.state_relations_stack(rho[None])
        assert [(r.name, r.kind) for r in records] == [
            ("variance-product-xz", "geq"),
            ("entropy-triple", "geq"),
            ("variance-triple", "geq"),
            ("contrast-triple", "leq"),
        ]

    def test_cached_pauli_pair_is_not_revalidated(self, monkeypatch):
        calls = []
        original = povm.classify_effects

        def counting_classify(effects, *args, **kwargs):
            calls.append(effects)
            return original(effects, *args, **kwargs)

        monkeypatch.setattr(povm, "classify_effects", counting_classify)
        z_pvm, x_pvm = relations.pauli_pvm("z"), relations.pauli_pvm("x")
        relations.entropic_bound_stack(z_pvm, x_pvm, np.array([[1.0, 0.0]]))
        assert calls == []
        copy = z_pvm.copy()
        relations.entropic_bound_stack(copy, x_pvm, np.array(EIGENSTATES, dtype=complex))
        # Once per kernel call, not once per state, as a batch of one.
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], copy[None])

    def test_cached_pauli_pvms_are_write_protected(self):
        for axis in "xyz":
            pvm = relations.pauli_pvm(axis)
            assert pvm.shape == (2, 2, 2)
            assert relations.pauli_pvm(axis) is pvm
            with pytest.raises(ValueError):
                pvm[0, 0, 0] = 2.0

    def test_stack_inputs_are_validated(self):
        with pytest.raises(NotNormalized):
            relations.entropic_bound_stack(
                relations.pauli_pvm("z"), relations.pauli_pvm("x"), np.array([[1.0, 0.0], [1.0, 1.0]])
            )
        # An observable must be an (L, d, d) effect array, not one matrix.
        with pytest.raises(DimensionMismatch):
            relations.entropic_bound_stack(SZ, relations.pauli_pvm("x"), np.array([[1.0, 0.0]]))
        with pytest.raises(NotHermitian):
            relations.state_relations_stack(np.array([[[0.5, 0.5], [0.0, 0.5]]]))
        with pytest.raises(NotHermitian):
            relations.state_relations_stack(np.full((1, 2, 2), np.nan))
        with pytest.raises(NotNormalized):
            relations.erasure_duality_stack([1.0, 0.6], [0.0, 0.6], [[1, 0], [1, 0]], [[0, 1], [0, 1]])
        with pytest.raises(NotNormalized):
            relations.erasure_duality_stack([1.0], [0.0], [[1, 1]], [[0, 1]])
        with pytest.raises(DimensionMismatch):
            relations.erasure_duality_stack([1.0, 0.0], [0.0, 1.0], [[1, 0]], [[0, 1]])
        with pytest.raises(DimensionMismatch):
            relations.erasure_duality_stack([1.0], [0.0], 1.0, [[0, 1]])
        with pytest.raises(NotNormalized, match="marker state 0 has norm"):
            relations.erasure_duality_stack([1.0], [0.0], [[1, 0]], [[1, 1]])

    def test_entropic_bound_rejects_observables_of_different_dimensions(self):
        computational3 = np.array([np.diag(row).astype(complex) for row in np.eye(3)])
        with pytest.raises(DimensionMismatch, match="C\\^2 and C\\^3"):
            relations.entropic_bound_stack(relations.pauli_pvm("z"), computational3, [[1, 0]])

    def test_entropic_bound_rejects_states_of_another_dimension(self):
        z_pvm = relations.pauli_pvm("z")
        with pytest.raises(DimensionMismatch, match="states in C\\^3"):
            relations.entropic_bound_stack(z_pvm, z_pvm, [[1, 0, 0]])

    def test_cores_give_the_public_kernels_bits(self, rng):
        # Each public kernel is its checks followed by its core.
        def same_report_bits(got, want):
            for field in ("lhs", "rhs", "slack", "satisfied"):
                assert_same_bits(getattr(got, field), getattr(want, field))

        states = np.array([random_pure(rng) for _ in range(40)] + EIGENSTATES, dtype=complex)
        rhos = states[:, :, None] * states.conj()[:, None, :]
        for got, want in zip(relations._state_relations_core(rhos), relations.state_relations_stack(rhos)):
            same_report_bits(got, want)
        z_pvm, x_pvm = relations.pauli_pvm("z"), relations.pauli_pvm("x")
        same_report_bits(
            relations._entropic_bound_core(z_pvm, x_pvm, states), relations.entropic_bound_stack(z_pvm, x_pvm, states)
        )
        # One (1, 2) amplitude row broadcasts against every marker pair.
        thetas = rng.uniform(0.0, math.pi / 2.0, len(states))
        markers = np.array([interferometer.marker_states(float(t)) for t in thetas])
        n = len(markers)
        for psi in states[:3]:
            got = relations._erasure_duality_core(psi[None], markers)
            want = relations.erasure_duality_stack(
                np.repeat(psi[:1], n), np.repeat(psi[1:], n), markers[:, 0], markers[:, 1]
            )
            for field in ("pointer_direction", "distinguishability", "visibility", "visibility_direction"):
                assert_same_bits(getattr(got, field), getattr(want, field))
            same_report_bits(got.duality, want.duality)
            same_report_bits(got.variance_tradeoff, want.variance_tradeoff)
