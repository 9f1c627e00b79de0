"""Value and probabilistic complementarity for finite-dimensional observables.

Two orthonormal bases are mutually unbiased when every cross overlap has
modulus n^(-1/2); observables with mutually unbiased eigenbases are value
complementary (a definite value of one forces the uniform distribution of
the other). Probabilistic complementarity of two projections is the
three-fold meet condition: P ^ Q, P ^ (I-Q) and (I-P) ^ Q all vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidBasis, NotAProjection

BASIS_TOL = 1e-10
MEET_EIGENVALUE_TOL = 1e-8
PROJECTION_TOL = 1e-10
MAX_DIMENSION = 16


@dataclass(frozen=True)
class OrthonormalBasis:
    """An orthonormal basis of C^n, n <= 16; ``vectors[k]`` is the k-th vector."""

    vectors: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidBasis(f"expected n vectors of dimension n, got shape {v.shape}")
        if v.shape[0] > MAX_DIMENSION:
            raise InvalidBasis(f"dimension {v.shape[0]} exceeds {MAX_DIMENSION}")
        gram = v.conj() @ v.T
        dev = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if not dev <= BASIS_TOL:
            raise InvalidBasis(f"Gram matrix deviates from identity by {dev:.3e}")
        object.__setattr__(self, "vectors", v)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]


def fourier_partner(b: OrthonormalBasis) -> OrthonormalBasis:
    """A basis mutually unbiased with ``b``.

    phi_l = n^(-1/2) sum_k exp(2 pi i k l / n) psi_k, indices k, l running
    0..n-1. Applying it twice yields a basis that is again unbiased with
    the first output.
    """
    n = b.dimension
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return OrthonormalBasis(phases @ b.vectors)


def is_mutually_unbiased(a: OrthonormalBasis, b: OrthonormalBasis, tol: float = 1e-10) -> bool:
    """Whether all overlaps |<psi_k|phi_l>| equal n^(-1/2) within ``tol``."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"dimensions differ: {a.dimension} vs {b.dimension}")
    overlaps = np.abs(a.vectors.conj() @ b.vectors.T)
    return bool(np.max(np.abs(overlaps - 1.0 / np.sqrt(a.dimension))) <= tol)


@np.errstate(over="ignore", invalid="ignore")
def _require_projection(p: np.ndarray):
    dev = float(np.max(np.abs(p @ p - p)))
    if not dev <= PROJECTION_TOL or not linalg.hermitian_deviation(p) <= linalg.HERMITIAN_TOL:
        raise NotAProjection(f"operator deviates from a projection by {dev:.3e}")


def probabilistically_complementary(p, q) -> bool:
    """Whether two nontrivial qubit projections satisfy the meet conditions.

    True iff P ^ Q = P ^ (I-Q) = (I-P) ^ Q = O, i.e. no state makes one
    observable certain while the other is certain on any outcome set. The
    projections must differ from O and I for the notion to apply.
    Each meet is nonzero exactly when the sum of its pair has an eigenvalue
    2 within ``MEET_EIGENVALUE_TOL``, so eigenvalues alone decide.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    for op in (p, q):
        _require_projection(op)
        tr = float(np.trace(op).real)
        if not 0.5 < tr < 1.5:
            raise NotAProjection(f"need a rank-1 qubit projection, got trace {tr!r}")
    ident = np.eye(2, dtype=complex)
    sums = np.array([p, p, ident - p]) + np.array([q, ident - q, q])
    return not bool(np.any(linalg.eigvals_hermitian(sums) >= 2.0 - MEET_EIGENVALUE_TOL))
