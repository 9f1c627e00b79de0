import math

import numpy as np
import pytest

from mzpovm import complementarity, linalg
from mzpovm.errors import DimensionMismatch, InvalidBasis, NotAProjection

from conftest import expectation

I2 = np.eye(2, dtype=complex)
SX, SY, SZ = linalg.pauli_triple()


def meet(p, q) -> np.ndarray:
    """Projection onto range(P) intersect range(Q), dimensions up to 4: the reference of the meet verdicts.

    The sum of v v^dagger over the eigenvectors v of P + Q whose eigenvalue
    is 2 within ``MEET_EIGENVALUE_TOL``.
    """
    values, vectors = linalg.eig_hermitian_stack(p + q)
    kept = (values >= 2.0 - complementarity.MEET_EIGENVALUE_TOL)[:, None]
    return np.einsum("ki,kj->ij", np.where(kept, vectors, 0.0), vectors.conj())


def rotated_qubit_basis(angle: float) -> complementarity.OrthonormalBasis:
    # Rotation about y: |1> -> cos(a/2)|1> + sin(a/2)|2>.
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return complementarity.OrthonormalBasis(np.array([[c, s], [-s, c]], dtype=complex))


class TestOrthonormalBasis:
    def test_standard_basis_accepted(self):
        complementarity.OrthonormalBasis(np.eye(3))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidBasis):
            complementarity.OrthonormalBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_oversized_rejected(self):
        with pytest.raises(InvalidBasis):
            complementarity.OrthonormalBasis(np.eye(17))


class TestFourierPartner:
    def test_qubit_standard_basis(self):
        partner = complementarity.fourier_partner(complementarity.OrthonormalBasis(np.eye(2)))
        want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(partner.vectors, want, atol=1e-15)

    def test_qutrit_overlaps(self):
        basis = complementarity.OrthonormalBasis(np.eye(3))
        partner = complementarity.fourier_partner(basis)
        overlaps = np.abs(basis.vectors.conj() @ partner.vectors.T)
        np.testing.assert_allclose(overlaps, np.full((3, 3), 1 / math.sqrt(3)), atol=1e-12)

    def test_double_application_still_unbiased_with_first_output(self):
        basis = complementarity.OrthonormalBasis(np.eye(4))
        once = complementarity.fourier_partner(basis)
        twice = complementarity.fourier_partner(once)
        assert complementarity.is_mutually_unbiased(once, twice, tol=1e-10)

    def test_rotated_inputs_all_dimensions(self, rng):
        for dim in range(2, 9):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(g)
            basis = complementarity.OrthonormalBasis(q.T)
            partner = complementarity.fourier_partner(basis)
            assert complementarity.is_mutually_unbiased(basis, partner, tol=1e-9)


class TestMutuallyUnbiased:
    def test_z_and_x_eigenbases(self):
        z_basis = complementarity.OrthonormalBasis(np.eye(2))
        x_basis = complementarity.OrthonormalBasis(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        assert complementarity.is_mutually_unbiased(z_basis, x_basis)

    def test_basis_not_unbiased_with_itself(self):
        basis = complementarity.OrthonormalBasis(np.eye(2))
        assert not complementarity.is_mutually_unbiased(basis, basis)

    def test_quarter_rotation_fails(self):
        z_basis = complementarity.OrthonormalBasis(np.eye(2))
        tilted = rotated_qubit_basis(math.pi / 4)
        overlaps = np.abs(z_basis.vectors.conj() @ tilted.vectors.T)
        assert overlaps[0, 0] == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
        assert not complementarity.is_mutually_unbiased(z_basis, tilted)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            complementarity.is_mutually_unbiased(
                complementarity.OrthonormalBasis(np.eye(2)), complementarity.OrthonormalBasis(np.eye(3))
            )


class TestMeets:
    def test_meet_of_equal_projections_is_the_projection(self):
        p = 0.5 * (I2 + SZ)
        np.testing.assert_allclose(meet(p, p), p, atol=1e-10)

    def test_meet_of_transverse_projections_is_zero(self):
        p = 0.5 * (I2 + SZ)
        q = 0.5 * (I2 + SX)
        np.testing.assert_allclose(meet(p, q), np.zeros((2, 2)), atol=1e-12)

    def test_meet_in_dimension_four(self):
        # Rank-2 projections sharing exactly one direction.
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            meet(p, q), np.diag([1.0, 0, 0, 0]), atol=1e-10
        )


class TestProbabilisticComplementarity:
    def test_z_and_x_projections_complementary(self):
        assert complementarity.probabilistically_complementary(
            0.5 * (I2 + SZ), 0.5 * (I2 + SX)
        )

    def test_equal_projections_not_complementary(self):
        p = 0.5 * (I2 + SZ)
        assert not complementarity.probabilistically_complementary(p, p)

    def test_complement_pair_not_complementary(self):
        p = 0.5 * (I2 + SZ)
        assert not complementarity.probabilistically_complementary(p, I2 - p)

    def test_trivial_projection_rejected(self):
        with pytest.raises(NotAProjection):
            complementarity.probabilistically_complementary(I2, 0.5 * (I2 + SZ))

    @pytest.mark.parametrize(
        "p", [0.5 * I2, np.array([[1.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)],
        ids=["not-idempotent", "not-hermitian", "nan"],
    )
    def test_non_projection_rejected(self, p):
        with pytest.raises(NotAProjection, match="deviates from a projection"):
            complementarity.probabilistically_complementary(p, 0.5 * (I2 + SZ))

    def test_sweep_matches_transition_probability_criterion(self):
        # Complementary iff 0 < tr(PQ) < 1, swept over Bloch directions.
        p = 0.5 * (I2 + SZ)
        for theta in np.linspace(0.0, math.pi, 36):
            for phi in np.linspace(0.0, 2 * math.pi, 18, endpoint=False):
                d = np.array(
                    [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
                )
                q = 0.5 * (I2 + d[0] * SX + d[1] * SY + d[2] * SZ)
                overlap = 0.5 * (1.0 + d[2])
                want = 1e-9 < overlap < 1.0 - 1e-9
                assert complementarity.probabilistically_complementary(p, q) == want


class TestMeetVerdict:
    """The eigenvalue verdict of probabilistically_complementary is the meet definition."""

    @staticmethod
    def meets_vanish(p, q) -> bool:
        # No meet of (P, Q), (P, I - Q) or (I - P, Q) has an entry above 1e-9.
        pairs = ((p, q), (p, I2 - q), (I2 - p, q))
        return all(np.max(np.abs(meet(a, b))) <= 1e-9 for a, b in pairs)

    def test_verdict_equals_the_meet_definition(self, rng):
        directions = rng.standard_normal((1000, 2, 3))
        pairs = [tuple(directions[n]) for n in range(1000)]
        for a in rng.standard_normal((40, 3)):
            a = a / np.linalg.norm(a)
            pairs += [(a, a), (a, -a)]
            for eps in (1e-5, 1e-9):
                pairs += [(a, a + eps * rng.standard_normal(3)), (a, -a + eps * rng.standard_normal(3))]
        verdicts = []
        for a, b in pairs:
            p = linalg.density_from_bloch(a / np.linalg.norm(a))
            q = linalg.density_from_bloch(b / np.linalg.norm(b))
            verdict = complementarity.probabilistically_complementary(p, q)
            assert verdict == self.meets_vanish(p, q)
            verdicts.append(verdict)
        # Both verdicts occur: random pairs are complementary, coincident ones are not.
        assert set(verdicts) == {True, False}


class TestValueComplementarityLimit:
    def test_z_eigenstates_uniform_over_x_outcomes(self):
        for eigenstate in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            rho = linalg.projectors(eigenstate)
            for sign in (1.0, -1.0):
                prob = expectation(0.5 * (I2 + sign * SX), rho)
                assert prob == pytest.approx(0.5, abs=1e-12)

    def test_x_eigenstates_uniform_over_z_outcomes(self):
        for eigenstate in (np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)):
            rho = linalg.projectors(eigenstate)
            for sign in (1.0, -1.0):
                prob = expectation(0.5 * (I2 + sign * SZ), rho)
                assert prob == pytest.approx(0.5, abs=1e-12)
