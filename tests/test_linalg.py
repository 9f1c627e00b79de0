import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzpovm import linalg
from mzpovm.errors import BlochOutOfBall, DimensionMismatch, NotHermitian, NotNormalized

from conftest import random_bloch_in_ball, random_hermitian, random_pure, random_pure4


class TestPauli:
    def test_z_is_diagonal_with_plus_one_on_first_basis_vector(self):
        sz = linalg.pauli("z")
        np.testing.assert_array_equal(sz, np.diag([1.0, -1.0]))
        e1 = np.array([1.0, 0.0])
        np.testing.assert_array_equal(sz @ e1, e1)

    def test_x_is_off_diagonal_ones(self):
        np.testing.assert_array_equal(linalg.pauli("x"), np.array([[0, 1], [1, 0]]))

    def test_commutator_identity(self):
        sx, sy, sz = linalg.pauli_triple()
        np.testing.assert_allclose(sx @ sy - sy @ sx, 2j * sz, atol=1e-15)

    def test_anticommutators(self):
        paulis = linalg.pauli_triple()
        for i, a in enumerate(paulis):
            for j, b in enumerate(paulis):
                want = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
                assert np.max(np.abs(a @ b + b @ a - want)) <= 1e-14

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            linalg.pauli("w")


class TestBloch:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_allclose(linalg.density_from_bloch([0, 0, 0]), np.eye(2) / 2)

    def test_north_pole_is_first_basis_projector(self):
        np.testing.assert_allclose(
            linalg.density_from_bloch([0, 0, 1]), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_outside_ball_rejected(self):
        with pytest.raises(BlochOutOfBall):
            linalg.density_from_bloch([0, 0, 1.5])

    def test_round_trip_seeded(self, rng):
        for _ in range(1000):
            r = random_bloch_in_ball(rng)
            np.testing.assert_allclose(
                linalg.bloch_from_density_stack(linalg.density_from_bloch(r)), r, atol=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.floats(-0.577, 0.577) for _ in range(3)]))
    def test_round_trip_hypothesis(self, r):
        back = linalg.bloch_from_density_stack(linalg.density_from_bloch(r))
        assert np.max(np.abs(back - np.asarray(r))) <= 1e-12


class TestTensorAndPartialTrace:
    def test_identity_tensor_identity(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_order_is_photon_slow(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(np.kron(p, p), np.diag([1.0, 0, 0, 0]))

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            got = np.trace(np.kron(a, b))
            assert got == pytest.approx(np.trace(a) * np.trace(b), abs=1e-12)

    def test_product_state_reduces_to_projector(self, rng):
        for _ in range(100):
            psi = random_pure(rng)
            phi = random_pure(rng)
            reduced = linalg.partial_trace_probe_stack(np.kron(psi, phi)[None])[0]
            np.testing.assert_allclose(reduced, np.outer(psi, psi.conj()), atol=1e-12)

    def test_orthogonal_markers_give_maximally_mixed(self):
        vec = np.array([1, 0, 0, 1]) / math.sqrt(2)
        np.testing.assert_allclose(linalg.partial_trace_probe_stack(vec[None])[0], np.eye(2) / 2, atol=1e-15)

    def test_tilted_markers_off_diagonal(self):
        theta = math.pi / 3
        p1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        p2 = np.array([math.sin(theta / 2), math.cos(theta / 2)])
        vec = (np.kron([1, 0], p1) + np.kron([0, 1], p2)) / math.sqrt(2)
        reduced = linalg.partial_trace_probe_stack(vec[None])[0]
        assert abs(reduced[0, 1]) == pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            linalg.partial_trace_probe_stack(np.array([[1.0, 0, 0, 1.0]]))


class TestEigHermitian:
    def test_sigma_z(self):
        values, (v1, v2) = linalg.eig_hermitian_stack(linalg.pauli("z"))
        assert values.tolist() == [1.0, -1.0]
        np.testing.assert_allclose(np.abs(v1), [1, 0])
        np.testing.assert_allclose(np.abs(v2), [0, 1])

    def test_degenerate_identity(self):
        values, _ = linalg.eig_hermitian_stack(np.eye(2) / 2)
        assert values.tolist() == [0.5, 0.5]

    def test_closed_form_example(self):
        a = 0.25 * (np.eye(2) + linalg.pauli("x") + linalg.pauli("z"))
        evs, _ = linalg.eig_hermitian_stack(a)
        np.testing.assert_allclose(evs, [(1 + math.sqrt(2)) / 4, (1 - math.sqrt(2)) / 4], atol=1e-14)

    def test_reconstruction_bound(self, rng):
        for k in range(1000):
            n = 2 if k % 2 == 0 else 4
            h = random_hermitian(rng, n)
            rec = sum(ev * np.outer(v, v.conj()) for ev, v in zip(*linalg.eig_hermitian_stack(h)))
            assert np.max(np.abs(rec - h)) <= 1e-11

    def test_eigenvalues_match_numpy_oracle(self, rng):
        for k in range(200):
            n = 2 if k % 2 == 0 else 4
            h = random_hermitian(rng, n)
            ours = sorted(linalg.eig_hermitian_stack(h)[0])
            np.testing.assert_allclose(ours, np.linalg.eigvalsh(h), atol=1e-12)

    def test_eigenvectors_orthonormal(self, rng):
        for _ in range(100):
            h = random_hermitian(rng, 4)
            _, vecs = linalg.eig_hermitian_stack(h)
            np.testing.assert_allclose(vecs.conj() @ vecs.T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_larger_dimensions_keep_the_contract(self, rng, n):
        for _ in range(20):
            h = random_hermitian(rng, n)
            evs, vecs = linalg.eig_hermitian_stack(h)
            assert evs.tolist() == sorted(evs, reverse=True)
            assert not vecs.flags.writeable
            for v in vecs:
                k = int(np.argmax(np.abs(v)))
                assert abs(v[k].imag) <= 1e-15 and v[k].real > 0.0
            rec = sum(ev * np.outer(v, v.conj()) for ev, v in zip(evs, vecs))
            assert np.max(np.abs(rec - h)) <= 1e-11


class TestEigvalsHermitian:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_matches_numpy_per_matrix(self, rng, n):
        stack = np.array([[random_hermitian(rng, n) for _ in range(3)] for _ in range(5)])
        got = linalg.eigvals_hermitian(stack)
        assert got.shape == (5, 3, n)
        for idx in np.ndindex(5, 3):
            want = np.linalg.eigvalsh(stack[idx])[::-1]
            np.testing.assert_allclose(got[idx], want, atol=1e-12)

    def test_two_by_two_matches_scalar_path(self, rng):
        stack = np.array([random_hermitian(rng, 2) for _ in range(50)])
        got = linalg.eigvals_hermitian(stack)
        for h, evs in zip(stack, got):
            np.testing.assert_allclose(evs, linalg.eig_hermitian_stack(h)[0], atol=1e-15)

    def test_uses_the_hermitian_part(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(linalg.eigvals_hermitian(a), [1.0, -1.0], atol=1e-15)

    def test_result_is_write_protected(self):
        assert not linalg.eigvals_hermitian(np.eye(2)).flags.writeable

    def test_non_square_rejected(self):
        with pytest.raises(NotHermitian):
            linalg.eigvals_hermitian(np.zeros((3, 2, 3)))


class TestNonFiniteCores:
    """The 2x2 eigen kernels and ``projectors`` are cores: non-finite input comes out NaN or inf, with no warning."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: linalg.eig_hermitian_stack(np.full((2, 2), math.inf))[0],
            lambda: linalg.eig_hermitian_stack(np.full((2, 2), math.nan))[1],
            lambda: linalg.eigvals_hermitian(np.full((2, 2), math.inf)),
            lambda: linalg.projectors([math.inf, 0.0]),
            lambda: linalg.projectors([1e200, 0.0]),
        ],
        ids=["eig-inf", "eig-nan", "eigvals-inf", "projectors-inf", "projectors-overflow"],
    )
    def test_no_numpy_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(call()).all()

    @pytest.mark.parametrize("kernel", [linalg.eig_hermitian_stack, linalg.eigvals_hermitian])
    def test_larger_matrices_raise_numpys_error(self, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                kernel(np.full((3, 3), math.inf))


class TestSchmidt:
    def test_product_state_has_weight_one(self, rng):
        for _ in range(20):
            vec = np.kron(random_pure(rng), random_pure(rng))
            w, photon, probe = linalg.schmidt_stack(vec[None])
            assert w[0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(linalg.schmidt_terms(w, photon, probe)[0].sum(axis=0) - vec)) <= 1e-10

    def test_balanced_entangled_state_has_weight_half(self):
        vec = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert linalg.schmidt_stack(vec[None])[0][0] == pytest.approx(0.5, abs=1e-14)

    def test_tilted_marker_weight(self, rng):
        # alpha = beta = 1/sqrt(2) with marker overlap sin(theta) gives
        # reduced-state eigenvalues (1 +/- sin(theta)) / 2.
        for theta in (0.2, math.pi / 4, 1.3):
            p1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
            p2 = np.array([math.sin(theta / 2), math.cos(theta / 2)])
            vec = (np.kron([1, 0], p1) + np.kron([0, 1], p2)) / math.sqrt(2)
            w = linalg.schmidt_stack(vec[None])[0]
            assert w[0] == pytest.approx(0.5 * (1 + math.sin(theta)), abs=1e-12)

    def test_pairs_orthonormal_and_reconstruction(self, rng):
        for _ in range(100):
            vec = random_pure4(rng)
            w, photon, probe = linalg.schmidt_stack(vec[None])
            for pair in (photon[0], probe[0]):
                np.testing.assert_allclose(pair.conj() @ pair.T, np.eye(2), atol=1e-10)
            assert np.max(np.abs(linalg.schmidt_terms(w, photon, probe)[0].sum(axis=0) - vec)) <= 1e-10
            assert w[0] >= 0.5 - 1e-12

    def test_degenerate_case_deterministic(self):
        vec = np.array([[1, 0, 0, 1]]) / math.sqrt(2)
        first = linalg.schmidt_stack(vec)
        second = linalg.schmidt_stack(vec)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            linalg.schmidt_stack(np.array([[1.0, 0, 0, 1.0]]))


def _adapted_variance(vec) -> float:
    return float(linalg.adapted_observable_variance_stack(vec[None])[0])


class TestAdaptedObservable:
    def test_product_state_has_definite_outcome(self, rng):
        vec = np.kron(random_pure(rng), random_pure(rng))
        assert _adapted_variance(vec) == pytest.approx(0.0, abs=1e-10)

    def test_balanced_entangled_state(self):
        vec = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert _adapted_variance(vec) == pytest.approx(1.0, abs=1e-12)

    def test_weight_three_quarters(self, rng):
        psi, phi = random_pure(rng), random_pure(rng)
        vec = math.sqrt(0.75) * np.kron(psi, phi) + 0.5 * np.kron(
            linalg.perp(psi), linalg.perp(phi)
        )
        assert _adapted_variance(vec) == pytest.approx(0.75, abs=1e-12)

    def test_zero_variance_iff_product(self, rng):
        for _ in range(50):
            product = np.kron(random_pure(rng), random_pure(rng))
            assert _adapted_variance(product) <= 1e-8
            w = rng.uniform(0.55, 0.95)
            psi, phi = random_pure(rng), random_pure(rng)
            entangled = math.sqrt(w) * np.kron(psi, phi) + math.sqrt(1 - w) * np.kron(
                linalg.perp(psi), linalg.perp(phi)
            )
            assert _adapted_variance(entangled) > 1e-8
            weight, photon, probe = linalg.schmidt_stack(entangled[None])
            truncated = math.sqrt(weight[0]) * np.kron(photon[0, 0], probe[0, 0])
            assert np.linalg.norm(entangled - truncated) > 1e-8


class TestConstructors:
    def test_state_vector_rejects_non_unit(self):
        with pytest.raises(NotNormalized):
            linalg.state_vector([1.0, 1.0])

    def test_state_vector_rejects_non_finite(self):
        with pytest.raises(NotNormalized):
            linalg.state_vector([np.nan, 0.0])

    @pytest.mark.parametrize("bad", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0], [1.0 + 2e-10, 0.0]])
    def test_unit_row_check_names_the_first_bad_row(self, bad):
        rows = np.array([[1.0, 0.0], [0.6, 0.8j], bad, [1.0, 1.0]], dtype=complex)
        with pytest.raises(NotNormalized, match="^row 2 has norm"):
            linalg.check_unit_rows(rows, "row")

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [[[1.0, 0.0]]], 1.0])
    def test_unit_row_check_takes_only_a_stack_of_rows(self, bad):
        with pytest.raises(DimensionMismatch, match=r"^expected an \(N, d\) stack of rows"):
            linalg.check_unit_rows(bad, "row")
        assert linalg.check_unit_rows([[1, 0], [0, 1j]], "row").dtype == complex

    def test_unit_row_check_passes_unit_rows_through(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.8j], [1.0 + 5e-11, 0.0]])
        assert linalg.check_unit_rows(rows, "row") is rows
        assert linalg.check_unit_rows(np.empty((0, 3), dtype=complex), "row").shape == (0, 3)

    def test_perp_is_orthogonal(self, rng):
        v = random_pure(rng)
        assert abs(np.vdot(v, linalg.perp(v))) <= 1e-15
