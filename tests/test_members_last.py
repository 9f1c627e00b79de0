"""Bit-for-bit equivalence of the members-last kernels with the trailing-axis forms they replaced.

The reference formulations below reduce and multiply over the trailing
(d, d) axes of the public layout, one matrix at a time. They are kept here
so the members-last kernels of ``linalg`` and ``povm`` always have a route
to agree with, entry for entry and sign for sign.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from mzpovm import linalg, povm, relations
from mzpovm.errors import NotHermitian

from conftest import assert_same_bits

TOL = povm.EFFECT_TOL


def _reference_max_abs(a):
    return np.abs(a).max(axis=(-2, -1))


def _reference_hermitian_deviation(a):
    return _reference_max_abs(a - a.conj().swapaxes(-1, -2))


def _reference_classify(effects, tol=TOL):
    ops = np.asarray(effects, dtype=complex)
    dim = ops.shape[-1]
    ident = np.eye(dim)
    herm_dev = _reference_max_abs(ops - ops.conj().swapaxes(-1, -2))
    evs = linalg.eigvals_hermitian(ops)
    lowest, highest = evs[..., -1], evs[..., 0]
    hermitian = herm_dev <= tol
    total = np.where(hermitian[..., None, None], ops, 0.0).sum(axis=1)
    sum_dev = _reference_max_abs(total - ident)
    in_range = (lowest >= -tol) & (highest <= 1.0 + tol)
    valid = (hermitian & in_range).all(axis=1) & (sum_dev <= tol)
    sharp = valid & (_reference_max_abs(np.einsum("nkij,nkjl->nkil", ops, ops) - ops) <= tol).all(axis=1)
    mean = ops.diagonal(axis1=-2, axis2=-1).sum(axis=-1) / dim
    trivial = valid & (_reference_max_abs(ops - mean[..., None, None] * ident) <= tol).all(axis=1)
    return povm.StackClassification(valid, sharp, trivial)


def _reference_joint_pair_effects(a, b):
    # G_jk = ((1 + jk c0) I + v . sigma) / 4, v = j a + k b, one label at a time over
    # trailing axes. linalg.bloch_operators halves its halved arguments; halving is
    # exact, so each entry rounds as the kernel's quarter of the same sum.
    plus, minus = (np.sqrt(np.sum(s**2, axis=1)) for s in (a + b, a - b))
    out = []
    for label in povm.JOINT_LABELS:
        j, k = (1.0 if index == "1" else -1.0 for index in label)
        v = j * a + k * b
        out.append(linalg.bloch_operators(0.5 * (1.0 + j * k * (0.5 * (plus - minus))), 0.5 * v.T))
    return np.stack(out, axis=1)


def assert_same_classification(got, want):
    for field in dataclasses.fields(povm.StackClassification):
        assert_same_bits(getattr(got, field.name), getattr(want, field.name))


def _random_stack(rng, shape, kind):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "non-hermitian":
        return a
    h = 0.5 * (a + a.conj().swapaxes(-1, -2))
    if kind == "hermitian":
        return h
    return h + 1e-10 * rng.uniform(0.5, 1.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_povms(rng, n, k, d):
    # Valid K-outcome POVMs from positive parts normalised through S^-1/2.
    g = rng.standard_normal((n, k, d, d)) + 1j * rng.standard_normal((n, k, d, d))
    a = g @ g.conj().swapaxes(-1, -2)
    values, vectors = np.linalg.eigh(a.sum(axis=1))
    root = (vectors * values[:, None, :] ** -0.5) @ vectors.conj().swapaxes(-1, -2)
    return root[:, None] @ a @ root[:, None]


def _special_values(rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=max(1, flat.size // 7), replace=False)
    flat[picks] = rng.choice([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1.0), -0.0], picks.size)
    return a


SHAPES = [lead + (d, d) for lead, d in itertools.product([(), (5,), (6, 3), (0,), (0, 2)], (2, 3, 4))]


class TestMatrixReductions:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", ["hermitian", "near-hermitian", "non-hermitian"])
    def test_random_stacks(self, rng, shape, kind):
        a = _random_stack(rng, shape, kind)
        assert_same_bits(linalg.max_abs(a), _reference_max_abs(a))
        assert_same_bits(linalg.hermitian_deviation(a), _reference_hermitian_deviation(a))

    @pytest.mark.parametrize("shape", [s for s in SHAPES if 0 not in s], ids=str)
    def test_nan_and_infinite_entries(self, rng, shape):
        a = _special_values(rng, shape)
        with np.errstate(invalid="ignore"):
            assert_same_bits(linalg.max_abs(a), _reference_max_abs(a))
            assert_same_bits(linalg.hermitian_deviation(a), _reference_hermitian_deviation(a))

    def test_rectangular_max_abs(self, rng):
        a = rng.standard_normal((4, 3, 2, 5)) + 1j * rng.standard_normal((4, 3, 2, 5))
        assert_same_bits(linalg.max_abs(a), _reference_max_abs(a))

    def test_hermitian_deviation_rejects_non_square(self):
        for shape in [(3,), (2, 3), (4, 2, 3)]:
            with pytest.raises(NotHermitian):
                linalg.hermitian_deviation(np.zeros(shape))

    def test_callers_keep_their_verdicts(self):
        off = np.array([[0.0, 0.0], [TOL, 0.0]])
        assert linalg.hermitian_deviation(off) <= linalg.HERMITIAN_TOL < linalg.hermitian_deviation(off * 2)
        with pytest.raises(NotHermitian, match=r"deviates from Hermitian by 2\.000e-10"):
            relations.state_relations_stack((np.eye(2) / 2 + 2 * off)[None])


class TestClassification:
    @pytest.mark.parametrize("k, d", list(itertools.product((1, 2, 3, 4), (2, 3, 4))))
    def test_random_candidates(self, rng, k, d):
        stacks = [_random_povms(rng, 40, k, d)]
        stacks += [_random_stack(rng, (40, k, d, d), kind) / k for kind in ("hermitian", "near-hermitian", "non-hermitian")]
        for stack in stacks:
            assert_same_classification(povm.classify_effects(stack), _reference_classify(stack))

    @pytest.mark.parametrize("k, d", [(1, 2), (4, 2), (3, 3), (2, 4)])
    def test_nan_infinite_and_empty_stacks(self, rng, k, d):
        stack = _special_values(rng, (30, k, d, d))
        with np.errstate(invalid="ignore", over="ignore"):
            if d == 2:
                assert_same_classification(povm.classify_effects(stack), _reference_classify(stack))
            else:
                # numpy's eigvalsh, shared by both routes, refuses non-finite matrices.
                for classify in (povm.classify_effects, _reference_classify):
                    with pytest.raises(np.linalg.LinAlgError):
                        classify(stack)
        empty = np.zeros((0, k, d, d), dtype=complex)
        assert_same_classification(povm.classify_effects(empty), _reference_classify(empty))

    def test_projections_and_multiples_of_the_identity(self, rng):
        effects, _ = povm.joint_pair_effects(*rng.uniform(-0.7, 0.7, (2, 64, 3)))
        sx, _, sz = linalg.pauli_triple()
        pvm = np.array([[0.5 * (np.eye(2) + s), 0.5 * (np.eye(2) - s)] for s in (sx, sz)])
        trivial = np.array([[w * np.eye(2), (1 - w) * np.eye(2)] for w in rng.random(8)])
        for stack in (effects, pvm, trivial, np.concatenate([pvm, trivial])):
            assert_same_classification(povm.classify_effects(stack), _reference_classify(stack))

    @staticmethod
    def _straddling(build):
        # Stacks one ulp below, at and one ulp above the tolerance.
        steps = (np.nextafter(TOL, 0.0), TOL, np.nextafter(TOL, 1.0))
        return np.array([build(s) for s in steps])

    @pytest.mark.parametrize("criterion", ["hermitian", "sum", "trivial"])
    def test_verdicts_one_ulp_either_side_of_the_tolerance(self, criterion):
        half = 0.5 * np.eye(2)
        build = {
            # Deviations exactly s: |0 - s| off the diagonal, s off the identity, s off the mean.
            "hermitian": lambda s: [half + np.array([[0.0, 0.0], [s, 0.0]]), half],
            "sum": lambda s: [half + np.array([[0.0, s], [s, 0.0]]), half],
            "trivial": lambda s: [half + np.array([[0.0, s], [s, 0.0]]), half - np.array([[0.0, s], [s, 0.0]])],
        }[criterion]
        stack = self._straddling(build).astype(complex)
        want = _reference_classify(stack)
        verdict = {"hermitian": want.valid, "sum": want.valid, "trivial": want.trivial}[criterion]
        assert verdict.tolist() == [True, True, False]
        assert_same_classification(povm.classify_effects(stack), want)

    def test_idempotency_verdicts_either_side_of_the_tolerance(self):
        # diag(1 - e, 0) and diag(e, 1): each defect |a^2 - a| rounds near e,
        # the first in steps of the spacing of floats near 1. Scanning e by
        # that spacing puts the nearest computed defects either side of tol.
        e = TOL + np.arange(-6, 7) * 2.0 ** -53
        first = np.zeros((e.size, 2, 2))
        first[:, 0, 0] = 1.0 - e
        second = np.zeros((e.size, 2, 2))
        second[:, 0, 0], second[:, 1, 1] = e, 1.0
        stack = np.stack([first, second], axis=1).astype(complex)
        want = _reference_classify(stack)
        assert want.valid.any() and want.sharp.any() and not want.sharp[want.valid].all()
        assert_same_classification(povm.classify_effects(stack), want)

    def test_tolerance_argument(self, rng):
        stack = _random_stack(rng, (50, 3, 2, 2), "near-hermitian") / 3
        for tol in (0.0, 1e-12, 1e-9, 0.5):
            assert_same_classification(povm.classify_effects(stack, tol), _reference_classify(stack, tol))


class TestJointEffects:
    def test_members_last_build_matches_the_trailing_axis_form(self, rng):
        a = np.concatenate([rng.uniform(-1, 1, (300, 3)), [[0.0, -0.0, 1.0], [-1.0, 0.0, -0.0], [0.6, 0.0, 0.0]]])
        b = np.concatenate([rng.uniform(-1, 1, (300, 3)), [[-0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, -0.0, 0.8]]])
        effects, _ = povm.joint_pair_effects(a, b)
        assert_same_bits(effects, _reference_joint_pair_effects(a, b))
        # A view of a (2, 2, 4, N) array: the members-last copy classify_effects makes is free.
        assert effects.transpose(2, 3, 1, 0).flags.c_contiguous
        one, _ = povm.joint_pair_effects(a[:1], b[:1])
        assert_same_bits(one, _reference_joint_pair_effects(a[:1], b[:1]))
