"""Busch's criterion on the joint POVMs the repo extracts, and an independent search for joint observables.

The designed pair of a marked experiment is the pair of marginals its joint
POVM measures jointly: detector F and probe G for marking and quantitative
erasure, detector F and coincidence H for erasure. Each extracted joint POVM
is ``povm.joint_pair_effects`` of its designed pair, and that pair sits on
the boundary |a + b| + |a - b| = 2 (Busch, Phys. Rev. D 33, 2253, 1986).
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from mzpovm import extraction, interferometer, linalg, povm

# Row of the second designed marginal in povm.joint_marginals: 1 for G, 2 for H.
DESIGNED = {"marking": 1, "erasure": 2, "quantitative": 1}


def _random_configs(rng, experiment, n):
    return [interferometer.MzConfig(experiment, *rng.uniform(-math.pi, math.pi, 3)) for _ in range(n)]


def _kernel_order(second):
    # Extracted label of each kernel label jk: j is outcome i of F and k outcome o of the
    # second marginal, and the one joint label summed into both is their intersection.
    return [
        int(np.intersect1d(povm.MARGINAL_PAIRS[0, i], povm.MARGINAL_PAIRS[second, o])[0])
        for o in (0, 1)
        for i in (0, 1)
    ]


def _sum(a, b):
    return np.linalg.norm(a + b, axis=1) + np.linalg.norm(a - b, axis=1)


def test_erasure_pairs_detector_with_coincidence_outcomes():
    # 11 and 22 make H's outcome 1: kernel labels (+, +), (-, +), (+, -), (-, -) read 11, 22, 12, 21.
    assert _kernel_order(1) == [0, 1, 2, 3]
    assert [povm.JOINT_LABELS[k] for k in _kernel_order(2)] == ["11", "22", "12", "21"]


@pytest.mark.parametrize("experiment", sorted(DESIGNED))
def test_extracted_joint_povm_is_the_kernel_joint_observable_of_its_designed_pair(rng, experiment):
    measured = extraction.extract_effects(extraction.schemes_for(_random_configs(rng, experiment, 120)))
    grouped = povm.joint_marginals(measured)
    second = DESIGNED[experiment]
    bias_a, a = povm.bias_and_direction_stack(grouped[:, 0, 0])
    bias_b, b = povm.bias_and_direction_stack(grouped[:, second, 0])
    assert np.abs(bias_a).max() < 1e-12 and np.abs(bias_b).max() < 1e-12
    built, admitted = povm.joint_pair_effects(a, b)
    np.testing.assert_allclose(measured[:, _kernel_order(second)], built, rtol=0, atol=1e-14)
    np.testing.assert_allclose(_sum(a, b), 2.0, rtol=0, atol=1e-12)
    assert admitted.all()


def test_unbiased_marginal_pairs_of_extracted_joint_povms_are_admitted(rng):
    # Two marginals of one joint POVM are jointly measurable, so an unbiased pair of
    # them must pass Busch's criterion, which is necessary for any joint observable.
    deltas = [math.pi / 2.0, -math.pi / 2.0]  # marking's coincidence marginal is unbiased here
    configs = {e: _random_configs(rng, e, 100) for e in DESIGNED}
    configs["marking"] += [interferometer.MzConfig("marking", d) for d in deltas]
    checked = 0
    for experiment, group in configs.items():
        grouped = povm.joint_marginals(extraction.extract_effects(extraction.schemes_for(group)))
        bias, vec = povm.bias_and_direction_stack(grouped[:, :, 0].reshape(-1, 2, 2))
        bias, vec = bias.reshape(-1, 3), vec.reshape(-1, 3, 3)
        for m, n in itertools.combinations(range(3), 2):
            unbiased = (np.abs(bias[:, m]) < 1e-12) & (np.abs(bias[:, n]) < 1e-12)
            assert povm.joint_pair_effects(vec[unbiased, m], vec[unbiased, n])[1].all()
            checked += int(unbiased.sum())
    # Every designed pair, erasure's three pairs, and marking's F, G and H at delta = +/- pi/2.
    assert checked == 100 + 300 + 100 + 2 * 3


# ----------------------------------------------------------------------
# The "only if": a search of the whole family for a positive member.
# ----------------------------------------------------------------------

_PAULI = np.array(linalg.pauli_triple()).reshape(3, 4)
_J = np.array([1.0 if label[0] == "1" else -1.0 for label in povm.JOINT_LABELS])
_K = np.array([1.0 if label[1] == "1" else -1.0 for label in povm.JOINT_LABELS])
# A 5^4 grid over (c0, cx, cy, cz) around the best point so far.
_OFFSETS = np.array(list(itertools.product(range(-2, 3), repeat=4)), dtype=float)
_ROUNDS = 12


def _best_lowest_eigenvalue(a, b):
    """Of all G_jk(c0, c) = [(1 + jk c0) I + (j a + k b + jk c) . sigma] / 4, the largest lowest eigenvalue found.

    Every member of the family has the marginals {(I +/- a . sigma)/2} and
    {(I +/- b . sigma)/2}; a member is a joint observable when all four
    effects are positive. The lowest eigenvalue over the four effects is
    concave in (c0, c), so a grid around the best point that halves its
    step each round closes in on the maximum. Eigenvalues come from
    ``linalg.eigvals_hermitian`` of the built matrices.
    """
    rows = np.arange(len(a))
    centre, step = np.zeros((len(a), 4)), 0.5
    pair = _J[:, None] * a[:, None, None] + _K[:, None] * b[:, None, None]
    for _ in range(_ROUNDS):
        points = centre[:, None] + step * _OFFSETS
        coeff = 1.0 + _J * _K * points[..., :1]
        v = pair + (_J * _K)[:, None] * points[:, :, None, 1:]
        effects = np.empty(v.shape[:-1] + (4,), dtype=complex)
        effects.real = 0.25 * (coeff[..., None] * np.eye(2).reshape(4) + v @ _PAULI.real)
        effects.imag = 0.25 * (v @ _PAULI.imag)
        lowest = linalg.eigvals_hermitian(effects.reshape(v.shape[:-1] + (2, 2)))[..., -1].min(axis=-1)
        best = lowest.argmax(axis=1)
        centre, value = points[rows, best], lowest[rows, best]
        step *= 0.5
    return value


def test_search_finds_a_joint_observable_exactly_where_the_kernel_admits_one():
    rng = np.random.default_rng(22)
    direction = rng.standard_normal((2, 110, 3))
    direction /= np.linalg.norm(direction, axis=2, keepdims=True)
    a, b = direction * rng.random((2, 110, 1)) ** (1.0 / 3.0)
    # Half the pairs are moved just past 1e-3 either side of the boundary, where the search has least room.
    target = np.where(np.arange(110) % 2, 2.0 - 1.0001e-3, 2.0 + 1.0001e-3)
    scale = np.where(np.arange(110) < 55, target / _sum(a, b), 1.0)[:, None]
    a, b = a * scale, b * scale
    total = _sum(a, b)
    keep = np.abs(total - 2.0) >= 1e-3
    a, b, total = a[keep], b[keep], total[keep]
    inside = total <= 2.0 - 1e-3
    assert len(a) >= 100 and 30 <= inside.sum() <= len(a) - 30
    found = _best_lowest_eigenvalue(a, b) > 0.0
    np.testing.assert_array_equal(found, inside)
    np.testing.assert_array_equal(povm.joint_pair_effects(a, b)[1], found)


# ----------------------------------------------------------------------
# Non-finite input reads as a False verdict, with no numpy warning.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200, 1e155, np.nan])
def test_classify_effects_reads_huge_or_non_finite_entries_as_invalid(value):
    stack = np.array([[0.5 * np.eye(2), 0.5 * np.eye(2)]], dtype=complex)
    stack[0, 0, 0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not povm.classify_effects(stack).valid[0]


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200, np.nan])
def test_joint_pair_effects_reads_huge_or_non_finite_pairs_as_not_admitted(value):
    a = np.array([[value, 0.0, 0.0], [0.6, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert povm.joint_pair_effects(a, b)[1].tolist() == [False, True]
        assert povm.joint_pair_effects(b, a)[1].tolist() == [False, True]
