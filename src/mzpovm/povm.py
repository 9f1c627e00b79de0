"""Discrete POVMs: validation, smearing, marginals, and joint observables.

A POVM is one complex (L, d, d) array of effects, outcome k being
effect k. Every operation has one array kernel over an (N, L, d, d)
stack of N such arrays, and a single POVM is a batch of one.

Stacks are (N, ..., d, d) at every public boundary. A kernel that reduces
over the matrix axes works members-last: :func:`classify_effects` makes
one (d, d, K, N) copy of its stack, so each numpy pass loops along the
members rather than over one small matrix at a time.

Every four-outcome joint POVM, measured or built, lists its effects in
the order of ``JOINT_LABELS``, 11, 21, 12, 22 (detector index first).
:func:`joint_marginals` holds the one index table that sums them into the
detector marginal F (first index), the probe marginal G (second index)
and the coincidence marginal H (11 + 22 against 12 + 21). One kernel,
:func:`joint_pair_effects`, builds the joint observable of any pair of
unbiased qubit effects given by their Bloch vectors a and b, with F
{(I +/- a . sigma)/2} and G {(I +/- b . sigma)/2}. It admits the pair by
Busch's criterion |a + b| + |a - b| <= 2, with ``JOINT_BOUNDARY_TOL`` of
tolerance on the sum; an unsharp sigma_x / sigma_z pair (f x, g z) is the
case f^2 + g^2 <= 1. :class:`DiscretePovm` only labels the effects of the
closed-form joint POVM that the benchmark's sweep gate reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidStochasticMatrix, NotSharp, NotTwoOutcome

EFFECT_TOL = 1e-10
STOCHASTIC_TOL = 1e-12
JOINT_BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class DiscretePovm:
    """Outcome labels with one complex (L, d, d) effect array, effect k carrying ``labels[k]``; nothing is checked."""

    labels: tuple[str, ...]
    effects: np.ndarray

    def operator(self, label: str) -> np.ndarray:
        return self.effects[self.labels.index(label)]


@dataclass(frozen=True)
class StackClassification:
    """Verdicts on an (N, K, d, d) stack of N candidate K-effect POVMs: ``valid``, ``sharp`` and ``trivial``, each (N,)."""

    valid: np.ndarray
    sharp: np.ndarray
    trivial: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def classify_effects(effects, tol: float = EFFECT_TOL) -> StackClassification:
    """Classify an (N, K, d, d) stack of candidate POVMs in one array pass.

    A candidate is valid when every effect is Hermitian with spectrum in
    [0, 1] and the effects sum to the identity; a valid candidate is sharp
    when every effect is a projection and trivial when every effect is a
    multiple of the identity. Any shape but (N, K, d, d) raises ``DimensionMismatch``.
    """
    ops = np.asarray(effects, dtype=complex)
    if ops.ndim != 4 or ops.shape[-1] != ops.shape[-2]:
        raise DimensionMismatch(f"expected an (N, K, d, d) effect stack, got shape {ops.shape}")
    dim = ops.shape[-1]
    herm_dev = linalg.hermitian_deviation(ops)
    evs = linalg.eigvals_hermitian(ops)
    lowest, highest = evs[..., -1], evs[..., 0]
    # One members-last copy: t[i, j, k, n] is entry (i, j) of effect k of
    # member n, so every pass below loops along the members and reduces
    # over leading axes.
    t = np.ascontiguousarray(ops.transpose(2, 3, 1, 0))
    ident = np.eye(dim)[:, :, None, None]
    hermitian = herm_dev.T <= tol
    total = np.where(hermitian, t, 0.0).sum(axis=2)
    sum_dev = np.abs(total - ident[..., 0]).max(axis=(0, 1))
    in_range = ((lowest >= -tol) & (highest <= 1.0 + tol)).T
    valid = (hermitian & in_range).all(axis=0) & (sum_dev <= tol)
    square = (t[:, :, None] * t[None]).sum(axis=1)
    sharp = valid & (np.abs(square - t).max(axis=(0, 1)) <= tol).all(axis=0)
    mean = t.reshape(dim * dim, *t.shape[2:])[:: dim + 1].sum(axis=0) / dim
    trivial = valid & (np.abs(t - mean * ident).max(axis=(0, 1)) <= tol).all(axis=0)
    return StackClassification(valid, sharp, trivial)


def smear_stack(projections, w) -> np.ndarray:
    """Coarse-grain N PVMs through N stochastic matrices in one array pass.

    ``projections`` is an (N, K, d, d) stack of K-outcome PVMs and ``w`` an
    (N, L, K) stack of stochastic matrices; the result is the (N, L, d, d)
    stack E[n, l] = sum_k w[n, l, k] P[n, k]. Every member is checked, and
    the first failure raises, in this order: ``InvalidStochasticMatrix``
    when ``w`` is not a stack of matrices, ``NotSharp`` when a member of
    ``projections`` is not a valid PVM, ``DimensionMismatch`` when the
    stacks disagree on N or K, and ``InvalidStochasticMatrix`` for a
    negative (or NaN) entry or a column that does not sum to 1.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 3:
        raise InvalidStochasticMatrix(f"expected an (N, L, K) stack of matrices, got shape {w.shape}")
    ops = np.asarray(projections, dtype=complex)
    not_sharp = np.flatnonzero(~classify_effects(ops).sharp)
    if not_sharp.size:
        raise NotSharp(f"smearing requires a valid projection-valued input (member {not_sharp[0]})")
    if w.shape[0] != ops.shape[0] or w.shape[2] != ops.shape[1]:
        raise DimensionMismatch(
            f"{w.shape[0]} stochastic matrices with {w.shape[2]} columns for "
            f"{ops.shape[0]} PVMs with {ops.shape[1]} outcomes"
        )
    negative = np.flatnonzero(~(w >= -STOCHASTIC_TOL).all(axis=(1, 2)))
    if negative.size:
        n = negative[0]
        raise InvalidStochasticMatrix(f"negative entry {float(w[n].min())!r} (member {n})")
    col_dev = np.abs(w.sum(axis=1) - 1.0).max(axis=1)
    bad_sums = np.flatnonzero(col_dev > STOCHASTIC_TOL)
    if bad_sums.size:
        n = bad_sums[0]
        raise InvalidStochasticMatrix(f"column sums deviate from 1 by {col_dev[n]:.3e} (member {n})")
    return np.einsum("nlk,nkij->nlij", w, ops)


JOINT_LABELS = ("11", "21", "12", "22")
# [m, o] holds the two JOINT_LABELS indices summed into outcome o ("1", "2")
# of marginal m: F = 11+12 | 21+22, G = 11+21 | 12+22, H = 11+22 | 12+21.
MARGINAL_PAIRS = np.array([[[0, 2], [1, 3]], [[0, 1], [2, 3]], [[0, 3], [2, 1]]])
MARGINAL_PAIRS.flags.writeable = False
# The sign j of each label's first index and k of its second, as (4, 1) columns.
_J, _K = (np.array([[1.0] if label[i] == "1" else [-1.0] for label in JOINT_LABELS]) for i in (0, 1))


@np.errstate(over="ignore", invalid="ignore")
def joint_pair_effects(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Busch's joint observables of the unbiased qubit pairs with (N, 3) Bloch vectors a and b.

    Returns the (N, 4, 2, 2) effects G_jk = [(1 + jk c0) I + (j a + k b) . sigma] / 4,
    c0 = (|a + b| - |a - b|) / 2 and j, k the signs of a label's indices,
    in the order of ``JOINT_LABELS``, and the (N,) mask |a + b| + |a - b|
    <= 2 + ``JOINT_BOUNDARY_TOL``. Each effect's lowest eigenvalue is
    (2 - |a + b| - |a - b|) / 8; a non-finite pair reads False, with no
    warning. Other shapes raise ``DimensionMismatch``. The effects are an
    (N, 4, 2, 2) view of a members-last (2, 2, 4, N) array.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
        raise DimensionMismatch(f"expected two (N, 3) stacks of Bloch vectors, got shapes {a.shape} and {b.shape}")
    # v[:, n] = j a + k b of label n; labels 11 and 12 carry a + b and a - b.
    x, y, z = v = a.T[:, None] * _J + b.T[:, None] * _K
    plus, minus = np.sqrt((v[:, ::2] * v[:, ::2]).sum(axis=0))
    coeff = 1.0 + _J * _K * (0.5 * (plus - minus))
    effects = np.zeros((2, 2, 4, len(a)), dtype=complex)
    re, im = effects.real, effects.imag
    re[0, 0] = 0.25 * (coeff + z)
    re[0, 1] = re[1, 0] = 0.25 * x
    re[1, 1] = 0.25 * (coeff - z)
    im[0, 1] = -0.25 * y
    im[1, 0] = 0.25 * y
    return effects.transpose(3, 2, 0, 1), plus + minus <= 2.0 + JOINT_BOUNDARY_TOL


def joint_marginals(effects) -> np.ndarray:
    """The F, G and H marginals of an (N, 4, d, d) stack of joint POVMs, as (N, 3, 2, d, d).

    The effects follow the order of ``JOINT_LABELS``. Row 0 is the
    detector marginal F, row 1 the probe marginal G and row 2 the
    coincidence marginal H, each with outcomes "1" and "2". Each pair is
    summed as 0.0 + first + second, so a sum of two zeros is +0.0 whatever
    their signs. Any other shape raises ``DimensionMismatch``.
    """
    ops = np.asarray(effects, dtype=complex)
    if ops.ndim != 4 or ops.shape[1] != 4 or ops.shape[2] != ops.shape[3]:
        raise DimensionMismatch(f"expected an (N, 4, d, d) joint effect stack, got shape {ops.shape}")
    return 0.0 + ops[:, MARGINAL_PAIRS[..., 0]] + ops[:, MARGINAL_PAIRS[..., 1]]


def bias_and_direction_stack(effects) -> tuple[np.ndarray, np.ndarray]:
    """Decompose an (N, 2, 2) stack of qubit effects as ((1 + b) I + u . sigma) / 2.

    Returns b with shape (N,) and u = ``linalg.bloch_from_density_stack(effects)``, shape (N, 3).
    """
    ops = np.asarray(effects, dtype=complex)
    return np.trace(ops, axis1=-2, axis2=-1).real - 1.0, linalg.bloch_from_density_stack(ops)


def contrast_stack(effects) -> np.ndarray:
    """Maximal statistical contrasts of an (N, 2, 2, 2) stack of two-outcome qubit POVMs.

    Writing each first effect as ((1 + b) I + u . sigma) / 2, the maximum
    of |tr[rho E1] - tr[rho E2]| over the Bloch ball is |b| + |u|, clamped
    to [0, 1]. Biased effects (b != 0) are covered because erasure produces
    biased coincidence marginals.
    """
    ops = np.asarray(effects, dtype=complex)
    if ops.ndim != 4 or ops.shape[1] != 2:
        raise NotTwoOutcome(f"contrast needs exactly two outcomes, got a stack of shape {ops.shape}")
    b, u = bias_and_direction_stack(ops[:, 0])
    # |u| as one dot product per row, the way numpy.linalg.norm sums one vector.
    length = np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])
    return np.minimum(1.0, np.maximum(0.0, np.abs(b) + length))


def unsharpness_stack(effects) -> np.ndarray:
    """1 - contrast^2 for an (N, 2, 2, 2) stack of two-outcome qubit POVMs.

    Equals each POVM's minimum outcome variance over all states.
    """
    c = contrast_stack(effects)
    return 1.0 - c * c
