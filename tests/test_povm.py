import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzpovm import linalg, oracle, povm
from mzpovm.errors import (
    DimensionMismatch,
    InvalidStochasticMatrix,
    NotSharp,
    NotTwoOutcome,
)

from conftest import stack_of

SX, SY, SZ = linalg.pauli_triple()
I2 = np.eye(2, dtype=complex)


def two_outcome(f: float, axis=SX) -> np.ndarray:
    return np.array([0.5 * (I2 + f * axis), 0.5 * (I2 - f * axis)])


def xz_pairs(f, g) -> tuple[np.ndarray, np.ndarray]:
    # joint_pair_effects of the unsharp sigma_x / sigma_z pairs (f[n] x, g[n] z).
    f, g = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (f, g))
    return povm.joint_pair_effects(f[:, None] * (1.0, 0.0, 0.0), g[:, None] * (0.0, 0.0, 1.0))


def joint_povm(f: float, g: float) -> np.ndarray:
    return xz_pairs(f, g)[0][0]


def contrast(p: np.ndarray) -> float:
    return float(povm.contrast_stack(p[None])[0])


def marginals(p: np.ndarray) -> np.ndarray:
    # The (3, 2, 2, 2) F, G and H marginals of one joint POVM.
    return povm.joint_marginals(p[None])[0]


def smear_one(sharp: np.ndarray, w) -> np.ndarray:
    return povm.smear_stack(sharp[None], np.asarray(w)[None])[0]


def joint_effect(joint: np.ndarray, label: str) -> np.ndarray:
    return joint[povm.JOINT_LABELS.index(label)]


class TestValidate:
    """One POVM is classified as a batch of one of ``classify_effects``."""

    def test_sigma_z_spectral_measure_is_sharp(self):
        cls = povm.classify_effects(two_outcome(1.0, SZ)[None])
        assert cls.valid[0] and cls.sharp[0] and not cls.trivial[0]

    def test_zero_sharpness_is_trivial(self):
        cls = povm.classify_effects(two_outcome(0.0)[None])
        assert cls.valid[0] and cls.trivial[0] and not cls.sharp[0]

    def test_intermediate_sharpness_is_unsharp(self):
        cls = povm.classify_effects(two_outcome(0.7)[None])
        assert cls.valid[0] and not cls.sharp[0] and not cls.trivial[0]

    def test_negative_effect_reported(self):
        broken = np.array([0.75 * I2 + 0.5 * SX, 0.25 * I2 - 0.5 * SX])
        cls = povm.classify_effects(broken[None])
        assert not cls.valid[0]
        # The second effect has the offending eigenvalue -(1/4).
        assert not cls.lowest[0, 1] >= -povm.EFFECT_TOL
        assert cls.lowest[0, 1] == pytest.approx(-0.25, abs=1e-12)

    def test_sum_violation_reported(self):
        broken = np.array([0.5 * I2, 0.4 * I2])
        cls = povm.classify_effects(broken[None])
        assert not cls.valid[0]
        assert not cls.sum_deviation[0] <= povm.EFFECT_TOL


def reference_classification(ops, tol=1e-10):
    """Per-effect numpy classification of one candidate: (valid, sharp, trivial)."""
    dim = ops[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    valid = True
    for op in ops:
        if np.max(np.abs(op - op.conj().T)) > tol:
            valid = False
            continue
        evs = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
        if evs[0] < -tol or evs[-1] > 1.0 + tol:
            valid = False
        total = total + op
    if np.max(np.abs(total - np.eye(dim))) > tol:
        valid = False
    sharp = valid and all(np.max(np.abs(op @ op - op)) <= tol for op in ops)
    trivial = valid and all(
        np.max(np.abs(op - np.trace(op) / dim * np.eye(dim))) <= tol for op in ops
    )
    return valid, sharp, trivial


def random_povm(rng, k, dim):
    """k effects S^(-1/2) A_i S^(-1/2) from random positive A_i with sum S."""
    parts = []
    for _ in range(k):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    root = v @ np.diag(w**-0.5) @ v.conj().T
    return [root @ a @ root for a in parts]


def random_pvm(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(dim)]


def candidate_stack(rng, k, dim):
    """Valid, sharp, trivial and broken candidates with k effects of size dim."""
    out = [random_povm(rng, k, dim) for _ in range(6)]
    half = sum(random_pvm(rng, dim)[: dim // 2])
    out.append([half, np.eye(dim) - half] + [np.zeros((dim, dim))] * (k - 2))
    out.append([np.eye(dim)] + [np.zeros((dim, dim))] * (k - 1))
    out.append([np.eye(dim) / k] * k)
    non_hermitian = random_povm(rng, k, dim)
    non_hermitian[0] = non_hermitian[0] + 1e-6 * np.triu(np.ones((dim, dim)), 1)
    out.append(non_hermitian)
    # Move weight between two effects so that the first gets eigenvalue -0.05.
    negative = random_povm(rng, k, dim)
    w, v = np.linalg.eigh(negative[0])
    shift = (w[0] + 0.05) * np.outer(v[:, 0], v[:, 0].conj())
    negative[0] = negative[0] - shift
    negative[1] = negative[1] + shift
    out.append(negative)
    wrong_sum = random_povm(rng, k, dim)
    wrong_sum[-1] = 1.01 * wrong_sum[-1]
    out.append(wrong_sum)
    return np.array(out, dtype=complex)


class TestClassifyEffects:
    @pytest.mark.parametrize("k, dim", [(2, 2), (4, 2), (3, 4), (4, 4)])
    def test_agrees_with_per_effect_numpy_reference(self, rng, k, dim):
        stack = candidate_stack(rng, k, dim)
        got = povm.classify_effects(stack)
        for n, ops in enumerate(stack):
            want = reference_classification(ops)
            assert (bool(got.valid[n]), bool(got.sharp[n]), bool(got.trivial[n])) == want
            one = povm.classify_effects(ops[None])
            assert (bool(one.valid[0]), bool(one.sharp[0]), bool(one.trivial[0])) == want
            for j, op in enumerate(ops):
                evs = np.linalg.eigvalsh(0.5 * (op + op.conj().T))
                assert got.lowest[n, j] == pytest.approx(evs[0], abs=1e-12)
                assert got.highest[n, j] == pytest.approx(evs[-1], abs=1e-12)
        # The stack holds every kind of verdict: 9 valid (2 of them sharp,
        # 2 trivial) and 3 broken candidates.
        assert got.valid.sum() == 9 and got.sharp.sum() == 2 and got.trivial.sum() == 2
        assert got.lowest[-2].min() == pytest.approx(-0.05, abs=1e-12)

    def test_pvm_stack_is_sharp(self, rng):
        stack = np.array([random_pvm(rng, 4) for _ in range(5)])
        got = povm.classify_effects(stack)
        assert got.valid.all() and got.sharp.all() and not got.trivial.any()

    def test_boundary_pairs_are_valid(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 97)
        effects, admitted = xz_pairs(np.cos(angles), np.sin(angles))
        got = povm.classify_effects(effects)
        assert admitted.all() and got.valid.all()
        for ops in effects:
            assert reference_classification(ops) == (True, False, False)
        assert np.max(np.abs(got.lowest.min(axis=1))) <= 1e-12

    def test_non_hermitian_effect_left_out_of_the_sum(self):
        # The sum runs over the effects that are Hermitian.
        stack = np.array([[0.5 * I2 + 1e-6 * np.array([[0, 1], [0, 0]]), 0.5 * I2]])
        got = povm.classify_effects(stack)
        assert not got.valid[0]
        assert got.hermitian_deviation[0, 0] == pytest.approx(1e-6)
        assert got.sum_deviation[0] == pytest.approx(0.5)

    def test_rejects_a_bare_matrix_stack(self):
        with pytest.raises(DimensionMismatch):
            povm.classify_effects(np.zeros((3, 2, 2)))


class TestValidateFailures:
    def test_non_hermitian_reported_with_magnitude(self):
        broken = np.array([0.5 * I2 + np.array([[0, 1e-3], [0, 0]]), 0.5 * I2])
        cls = povm.classify_effects(broken[None])
        assert not cls.valid[0]
        assert cls.hermitian_deviation[0].tolist() == [pytest.approx(1e-3), 0.0]
        assert cls.sum_deviation[0] == pytest.approx(0.5)

    def test_non_finite_effect_is_invalid(self):
        broken = np.array([np.full((2, 2), np.nan), I2])
        cls = povm.classify_effects(broken[None])
        assert not cls.valid[0]
        assert np.isnan(cls.hermitian_deviation[0, 0])
        assert cls.hermitian_deviation[0, 1] <= povm.EFFECT_TOL

    def test_above_one_reported(self):
        broken = np.array([1.5 * I2, -0.5 * I2])
        cls = povm.classify_effects(broken[None])
        assert not cls.valid[0]
        assert cls.highest[0, 0] == pytest.approx(1.5) and cls.lowest[0, 0] >= -povm.EFFECT_TOL
        assert cls.lowest[0, 1] == pytest.approx(-0.5) and cls.highest[0, 1] <= 1.0 + povm.EFFECT_TOL
        assert cls.sum_deviation[0] <= povm.EFFECT_TOL


class TestSmear:
    def test_symmetric_two_by_two_matrix(self):
        # The classic bit-flip smearing with parameter f.
        f = 0.6
        w = 0.5 * np.array([[1 + f, 1 - f], [1 - f, 1 + f]])
        got = smear_one(two_outcome(1.0, SX), w)
        np.testing.assert_allclose(got[0], 0.5 * (I2 + f * SX), atol=1e-14)
        np.testing.assert_allclose(got[1], 0.5 * (I2 - f * SX), atol=1e-14)

    def test_identity_matrix_preserves_input(self):
        got = smear_one(two_outcome(1.0, SZ), np.eye(2))
        np.testing.assert_allclose(got[0], 0.5 * (I2 + SZ), atol=1e-15)

    def test_uniform_matrix_gives_trivial(self):
        got = smear_one(two_outcome(1.0, SX), 0.5 * np.ones((2, 2)))
        cls = povm.classify_effects(got[None])
        assert cls.valid[0] and cls.trivial[0]

    def test_output_valid_and_commutative(self, rng):
        for _ in range(300):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            op = axis[0] * SX + axis[1] * SY + axis[2] * SZ
            pvm = np.array([0.5 * (I2 + op), 0.5 * (I2 - op)])
            rows = int(rng.integers(2, 5))
            w = rng.random((rows, 2)) + 1e-3
            w /= w.sum(axis=0, keepdims=True)
            ops = smear_one(pvm, w)
            assert povm.classify_effects(ops[None]).valid[0]
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    assert np.max(np.abs(ops[i] @ ops[j] - ops[j] @ ops[i])) <= 1e-12

    def test_wrong_column_count(self):
        with pytest.raises(DimensionMismatch):
            smear_one(two_outcome(1.0, SZ), np.ones((2, 3)) / 2)

    def test_bad_column_sums(self):
        with pytest.raises(InvalidStochasticMatrix):
            smear_one(two_outcome(1.0, SZ), np.array([[0.7, 0.7], [0.7, 0.7]]))

    def test_negative_entries(self):
        with pytest.raises(InvalidStochasticMatrix):
            smear_one(two_outcome(1.0, SZ), np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_unsharp_input_rejected(self):
        with pytest.raises(NotSharp):
            smear_one(two_outcome(0.5), np.eye(2))


def random_pvm_stack(rng, n: int) -> np.ndarray:
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    op = np.einsum("na,aij->nij", axes, np.array([SX, SY, SZ]))
    return np.stack([0.5 * (I2 + op), 0.5 * (I2 - op)], axis=1)


def random_stochastic_stack(rng, n: int, rows: int) -> np.ndarray:
    w = rng.random((n, rows, 2)) + 1e-3
    return w / w.sum(axis=1, keepdims=True)


class TestSmearStack:
    def test_matches_per_member_loop(self, rng):
        for rows in (2, 3, 4):
            pvms = random_pvm_stack(rng, 40)
            w = random_stochastic_stack(rng, 40, rows)
            got = povm.smear_stack(pvms, w)
            assert got.shape == (40, rows, 2, 2)
            for n in range(40):
                for row in range(rows):
                    want = sum(w[n, row, k] * pvms[n, k] for k in range(2))
                    assert np.max(np.abs(got[n, row] - want)) <= 1e-15

    def test_one_unsharp_member_rejected(self, rng):
        pvms = random_pvm_stack(rng, 5)
        pvms[3] = [0.5 * (I2 + 0.5 * SX), 0.5 * (I2 - 0.5 * SX)]
        with pytest.raises(NotSharp, match="member 3"):
            povm.smear_stack(pvms, random_stochastic_stack(rng, 5, 2))

    def test_one_negative_entry_rejected(self, rng):
        w = random_stochastic_stack(rng, 5, 2)
        w[2, :, 0] = [1.2, -0.2]
        with pytest.raises(InvalidStochasticMatrix, match="negative.*member 2"):
            povm.smear_stack(random_pvm_stack(rng, 5), w)

    def test_one_bad_column_sum_rejected(self, rng):
        w = random_stochastic_stack(rng, 5, 3)
        w[4, 0, 1] += 0.1
        with pytest.raises(InvalidStochasticMatrix, match="column sums.*member 4"):
            povm.smear_stack(random_pvm_stack(rng, 5), w)

    def test_one_nan_entry_rejected(self, rng):
        w = random_stochastic_stack(rng, 5, 2)
        w[1, 0, 0] = np.nan
        with pytest.raises(InvalidStochasticMatrix):
            povm.smear_stack(random_pvm_stack(rng, 5), w)

    def test_mismatched_stacks_rejected(self, rng):
        pvms = random_pvm_stack(rng, 5)
        with pytest.raises(DimensionMismatch):
            povm.smear_stack(pvms, random_stochastic_stack(rng, 4, 2))
        with pytest.raises(DimensionMismatch):
            povm.smear_stack(pvms, np.full((5, 2, 3), 0.5))
        with pytest.raises(DimensionMismatch):
            povm.smear_stack(pvms[0], random_stochastic_stack(rng, 5, 2))

    def test_checks_run_in_order(self, rng):
        unsharp = random_pvm_stack(rng, 2)
        unsharp[0] = [0.5 * (I2 + 0.5 * SX), 0.5 * (I2 - 0.5 * SX)]
        with pytest.raises(InvalidStochasticMatrix):
            povm.smear_stack(unsharp, np.eye(2))
        with pytest.raises(NotSharp):
            povm.smear_stack(unsharp, -np.ones((3, 2, 3)))


class TestMarginal:
    def test_first_index_grouping_recovers_x_marginal(self):
        got = marginals(joint_povm(0.6, 0.3))[0]
        np.testing.assert_allclose(got[0], 0.5 * (I2 + 0.6 * SX), atol=1e-14)
        np.testing.assert_allclose(got[1], 0.5 * (I2 - 0.6 * SX), atol=1e-14)

    def test_second_index_grouping_recovers_z_marginal(self):
        got = marginals(joint_povm(0.6, 0.3))[1]
        np.testing.assert_allclose(got[0], 0.5 * (I2 + 0.3 * SZ), atol=1e-14)
        np.testing.assert_allclose(got[1], 0.5 * (I2 - 0.3 * SZ), atol=1e-14)

    def test_coincidence_marginal_pairs_equal_against_unequal_indices(self):
        joint = joint_povm(0.6, 0.3)
        got = marginals(joint)[2]
        np.testing.assert_array_equal(got[0], joint_effect(joint, "11") + joint_effect(joint, "22"))
        np.testing.assert_array_equal(got[1], joint_effect(joint, "12") + joint_effect(joint, "21"))

    @pytest.mark.parametrize("shape", [(4, 2, 2), (1, 3, 2, 2), (1, 2, 2, 2), (1, 4, 2, 3), (1, 1, 4, 2, 2)])
    def test_joint_marginals_reject_other_shapes(self, shape):
        with pytest.raises(DimensionMismatch, match="joint effect stack"):
            povm.joint_marginals(np.zeros(shape))


def random_ball(rng, n: int) -> np.ndarray:
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * rng.random((n, 1)) ** (1.0 / 3.0)


class TestJointPairEffects:
    """Busch's joint observable of an unbiased pair, and the sigma_x / sigma_z pairs as its special case."""

    def test_sharp_x_trivial_z_limit(self):
        joint = joint_povm(1.0, 0.0)
        cls = povm.classify_effects(marginals(joint))
        assert cls.sharp[0]
        assert cls.trivial[1]
        np.testing.assert_allclose(joint_effect(joint, "11"), 0.25 * (I2 + SX), atol=1e-15)
        np.testing.assert_allclose(joint_effect(joint, "12"), 0.25 * (I2 + SX), atol=1e-15)

    def test_xz_pairs_are_the_unit_disk_effects(self, rng):
        # For f x and g z the norms |a +/- b| round alike, so c0 is exactly 0 and the
        # effects equal (I +/- f sigma_x +/- g sigma_z) / 4; only signs of zeros may differ.
        f, g = rng.uniform(-1.0, 1.0, (2, 200))
        effects, _ = xz_pairs(f, g)
        j = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]
        k = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]
        want = 0.25 * (I2 + j * f[:, None, None, None] * SX + k * g[:, None, None, None] * SZ)
        np.testing.assert_array_equal(effects, want)

    def test_boundary_pair_still_valid(self):
        joint = joint_povm(1 / math.sqrt(2), 1 / math.sqrt(2))
        cls = povm.classify_effects(joint[None])
        assert cls.valid[0]
        lowest = linalg.eig_hermitian_stack(joint)[0].min()
        assert lowest == pytest.approx(0.0, abs=1e-12)

    def test_batch_of_one_matches_stacked_builder(self, rng):
        f = rng.uniform(-1.0, 1.0, 40)
        g = rng.uniform(-1.0, 1.0, 40)
        effects, admitted = xz_pairs(f, g)
        assert effects.shape == (40, 4, 2, 2)
        for n in range(40):
            assert admitted[n] == (f[n] ** 2 + g[n] ** 2 <= 1.0 + povm.JOINT_BOUNDARY_TOL)
            one, one_admitted = xz_pairs(float(f[n]), float(g[n]))
            assert one_admitted.tolist() == [admitted[n]]
            np.testing.assert_array_equal(one[0], effects[n])
            assert povm.classify_effects(one).valid[0] == admitted[n]

    @pytest.mark.parametrize("a, b", [((2, 3), (1, 3)), ((3,), (3,)), ((2, 2), (2, 2)), ((1, 2, 3), (1, 2, 3))])
    def test_stacked_builder_rejects_other_shapes(self, a, b):
        with pytest.raises(DimensionMismatch, match="Bloch vectors"):
            povm.joint_pair_effects(np.zeros(a), np.zeros(b))

    def test_inadmissible_pair_rejected(self):
        effects, admitted = xz_pairs(0.8, 0.8)
        assert not admitted[0]
        assert not povm.classify_effects(effects).valid[0]

    def test_jointly_measurable_examples(self):
        assert xz_pairs([1.0, 0.8], [0.0, 0.8])[1].tolist() == [True, False]

    @pytest.mark.parametrize("excess", [5e-11, 1e-10])
    def test_boundary_band_is_admitted_as_the_constructor_admits_it(self, excess):
        # f^2 + g^2 in (1 + 1e-12, 1 + 1e-10]: the builder makes a valid POVM,
        # and the sum 2 sqrt(f^2 + g^2) stays within 1e-10 of 2, so the pair is admitted.
        f, g = 1.0, math.sqrt(excess)
        assert 1.0 + 1e-12 < f * f + g * g <= 1.0 + 1e-10
        effects, admitted = xz_pairs(f, g)
        assert povm.classify_effects(effects).valid[0]
        assert admitted[0]

    def test_just_outside_the_band_is_rejected(self):
        f, g = 1.0, math.sqrt(2e-10)
        assert not xz_pairs(f, g)[1][0]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi))
    def test_exact_boundary_always_admissible(self, angle):
        assert xz_pairs(math.sin(angle), math.cos(angle))[1][0]

    def test_marginals_are_the_pair(self, rng):
        # F is {(I +/- a . sigma)/2} and G {(I +/- b . sigma)/2}, whatever the angle between a and b.
        a, b = random_ball(rng, 300), random_ball(rng, 300)
        grouped = povm.joint_marginals(povm.joint_pair_effects(a, b)[0])
        for row, v in ((0, a), (1, b)):
            bias, direction = povm.bias_and_direction_stack(grouped[:, row, 0])
            np.testing.assert_allclose(bias, 0.0, atol=1e-15)
            np.testing.assert_allclose(direction, v, rtol=0, atol=1e-15)
            np.testing.assert_allclose(grouped[:, row, 0] + grouped[:, row, 1], np.broadcast_to(I2, (300, 2, 2)), atol=1e-15)

    def test_lowest_eigenvalue_is_the_slack_of_the_sum(self, rng):
        a, b = random_ball(rng, 300), random_ball(rng, 300)
        effects, admitted = povm.joint_pair_effects(a, b)
        total = np.linalg.norm(a + b, axis=1) + np.linalg.norm(a - b, axis=1)
        got = povm.classify_effects(effects)
        np.testing.assert_allclose(got.lowest, np.broadcast_to(((2.0 - total) / 8.0)[:, None], (300, 4)), atol=1e-15)
        assert admitted.any() and not admitted.all()
        np.testing.assert_array_equal(got.valid, admitted)


class TestContrastUnsharpness:
    def test_unbiased_pair_contrast_is_sharpness(self):
        assert contrast(two_outcome(0.6)) == pytest.approx(0.6, abs=1e-14)

    def test_sharp_pvm_contrast_one(self):
        assert contrast(two_outcome(1.0, SZ)) == pytest.approx(1.0, abs=1e-14)

    def test_trivial_contrast_zero(self):
        assert contrast(two_outcome(0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_biased_contrast(self):
        # Effects c I and (1 - c) I: contrast |2c - 1| with no direction term.
        p = np.array([0.8 * I2, 0.2 * I2])
        assert contrast(p) == pytest.approx(0.6, abs=1e-14)

    def test_wrong_outcome_count(self):
        with pytest.raises(NotTwoOutcome):
            contrast(joint_povm(0.5, 0.5))

    def test_unsharpness_examples(self):
        got = povm.unsharpness_stack(np.array([two_outcome(f) for f in (1.0, 0.0, 0.6)]))
        np.testing.assert_allclose(got, [0.0, 1.0, 0.64], rtol=0, atol=1e-14)

    def test_unsharpness_is_minimal_outcome_variance(self):
        # Grid-minimize the outcome variance over the Bloch sphere and
        # compare with 1 - contrast^2.
        p = two_outcome(0.6)
        diff = p[0] - p[1]
        (best,), _ = oracle.grid_maximize_stack(
            stack_of([lambda r: abs(float(np.trace(linalg.density_from_bloch(r) @ diff).real))]), 1
        )
        assert 1.0 - best**2 == pytest.approx(povm.unsharpness_stack(p[None])[0], abs=1e-6)

    def test_contrast_matches_grid_oracle(self, rng):
        povms, objectives = [], []
        for _ in range(50):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            u_len = rng.random()
            b = (1.0 - u_len) * (2.0 * rng.random() - 1.0)
            e1 = 0.5 * ((1.0 + b) * I2 + u_len * (direction[0] * SX + direction[1] * SY + direction[2] * SZ))
            p = np.array([e1, I2 - e1])
            assert povm.classify_effects(p[None]).valid[0]
            diff = p[0] - p[1]
            povms.append(p)
            objectives.append(lambda r, diff=diff: abs(float(np.trace(linalg.density_from_bloch(r) @ diff).real)))
        best, _ = oracle.grid_maximize_stack(stack_of(objectives), len(objectives))
        for value, p in zip(best, povms):
            assert value == pytest.approx(contrast(p), abs=1e-6)

    def test_unsharpness_sum_bound_on_admissible_pairs(self, rng):
        f, g = [], []
        for _ in range(200):
            angle = rng.random() * 2.0 * math.pi
            scale = math.sqrt(rng.random())
            f.append(scale * math.cos(angle))
            g.append(scale * math.sin(angle))
        effects, admitted = xz_pairs(f, g)
        assert admitted.all()
        grouped = povm.joint_marginals(effects)
        u_f, u_g = povm.unsharpness_stack(grouped[:, 0]), povm.unsharpness_stack(grouped[:, 1])
        assert np.all(u_f + u_g >= 1.0 - 1e-12)
