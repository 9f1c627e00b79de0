"""Dense complex linear algebra for one- and two-qubit states and operators.

Conventions
-----------
* The photon (path) Hilbert space is C^2 with basis |1>, |2>, where |1> is
  the +1 eigenvector of sigma_z.
* Compound photon-probe vectors use photon-slow ordering, i.e. the
  components of ``numpy.kron(photon, probe)``:
  ``|1>|q1>, |1>|q2>, |2>|q1>, |2>|q2>``.
* Tolerance policy: structural predicates (Hermitian, normalized, positive,
  projection) are checked at 1e-10; analytic identities are tested at 1e-12.
  The two orders of margin keep computation noise away from assertion
  thresholds.

All returned arrays are write-protected; every function is pure, so the
module is thread-safe without qualification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlochOutOfBall, NotHermitian, NotNormalized

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-10
ZERO_NORM_GUARD = 1e-12
MAX_DIMENSION = 16


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_PAULI = {
    "x": _frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    "y": _frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
    "z": _frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
}

IDENTITY2 = _frozen(np.eye(2, dtype=complex))
IDENTITY4 = _frozen(np.eye(4, dtype=complex))
_PLUS_MINUS = _frozen(np.array([1.0, -1.0]))


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {'x', 'y', 'z'}.

    The basis is |1>, |2> with sigma_z |1> = |1>.
    """
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def pauli_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (sigma_x, sigma_y, sigma_z) triple, in that order."""
    return _PAULI["x"], _PAULI["y"], _PAULI["z"]


def state_vector(components) -> np.ndarray:
    """Validate and return a unit state vector.

    Raises
    ------
    NotNormalized
        If any component is non-finite or the norm deviates from 1 by more
        than 1e-10.
    """
    v = np.asarray(components, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v.view(float))):
        raise NotNormalized("state vector has non-finite components")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > NORM_TOL:
        raise NotNormalized(f"state vector norm is {n!r}, expected 1 within {NORM_TOL}")
    return _frozen(v.copy())


def unit(v) -> np.ndarray:
    """Normalize ``v``, rejecting near-zero vectors.

    Vectors with norm below 1e-12 are rejected rather than normalized
    silently; a zero vector at this point always means an upstream bug.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = float(np.linalg.norm(v))
    if n < ZERO_NORM_GUARD:
        raise NotNormalized(f"refusing to normalize a vector of norm {n!r}")
    return _frozen(v / n)


def perp(v) -> np.ndarray:
    """The canonical perpendicular of C^2 vectors: (a, b) -> (-conj(b), conj(a)).

    ``v`` is one vector of shape (2,) or a stack of shape (..., 2).
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != 2:
        raise ValueError("perp is defined for two-component vectors only")
    return _frozen(np.stack([-v[..., 1].conj(), v[..., 0].conj()], axis=-1))


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def _require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.3e} (tol {tol})")
    return a


def density_operator(matrix) -> np.ndarray:
    """Validate a 2x2 density operator: Hermitian, PSD, trace 1, each to 1e-10."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise NotHermitian(f"density operator must be 2x2, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise NotHermitian("density operator has non-finite entries")
    m = _require_hermitian(m)
    tr = float(m.trace().real)
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise NotHermitian(f"density operator trace is {tr!r}, expected 1")
    lo = float(eigvals_hermitian(m)[-1])
    if lo < -HERMITIAN_TOL:
        raise NotHermitian(f"density operator has negative eigenvalue {lo!r}")
    return _frozen(m.copy())


def pure_density(psi) -> np.ndarray:
    """The projection |psi><psi| of a unit vector."""
    v = state_vector(psi)
    return _frozen(np.outer(v, v.conj()))


def density_from_bloch(r) -> np.ndarray:
    """Build the state (I + r . sigma) / 2 from a Bloch vector.

    Raises
    ------
    BlochOutOfBall
        If |r| exceeds 1 by more than 1e-10.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    # Scalar arithmetic: grid searches build one state per objective call.
    components = r.tolist()
    if len(components) != 3 or not all(map(math.isfinite, components)):
        raise BlochOutOfBall(f"Bloch vector must be 3 finite reals, got {r!r}")
    x, y, z = components
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1.0 + 1e-10:
        raise BlochOutOfBall(f"|r| = {n!r} lies outside the Bloch ball")
    return _frozen(
        np.array([[0.5 * (1.0 + z), complex(0.5 * x, -0.5 * y)],
                  [complex(0.5 * x, 0.5 * y), 0.5 * (1.0 - z)]])
    )


def bloch_from_density(rho) -> np.ndarray:
    """The Bloch vector r_k = tr[rho sigma_k]; inverse of density_from_bloch."""
    rho = np.asarray(rho, dtype=complex)
    return _frozen(np.array([float(np.trace(rho @ s).real) for s in pauli_triple()]))


def state_from_bloch(r) -> np.ndarray:
    """The pure state with unit Bloch vector ``r``."""
    r = np.asarray(r, dtype=float).reshape(-1)
    n = float(np.linalg.norm(r))
    if abs(n - 1.0) > 1e-9:
        raise BlochOutOfBall(f"pure states need |r| = 1, got {n!r}")
    theta = math.acos(min(1.0, max(-1.0, r[2] / n)))
    phi = math.atan2(r[1], r[0])
    return _frozen(
        np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])
    )


def bloch_from_state(psi) -> np.ndarray:
    """The Bloch vector of a pure C^2 state."""
    return bloch_from_density(pure_density(psi))


def expectation(a, rho) -> float:
    """tr[A rho] for Hermitian A; the imaginary residue must stay below 1e-10."""
    a = _require_hermitian(a)
    rho = np.asarray(rho, dtype=complex)
    val = complex(np.trace(a @ rho))
    if abs(val.imag) >= HERMITIAN_TOL:
        raise NotHermitian(f"expectation has imaginary part {val.imag!r}")
    return float(val.real)


def variance(a, rho) -> float:
    """Var(A, rho) = <A^2> - <A>^2; for Pauli operators this is 1 - r_k^2."""
    a = _require_hermitian(a)
    rho = np.asarray(rho, dtype=complex)
    mean = expectation(a, rho)
    second = float(np.trace(a @ a @ rho).real)
    return second - mean * mean


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the fixed photon-slow basis order."""
    return _frozen(np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def partial_trace_probe(psi) -> np.ndarray:
    """Reduced photon state of a photon-probe vector (probe traced out)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise NotNormalized(f"expected a 4-component compound vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > NORM_TOL:
        raise NotNormalized(f"compound vector norm is {n!r}, expected 1")
    c = v.reshape(2, 2)
    return _frozen(c @ c.conj().T)


# ----------------------------------------------------------------------
# Hermitian eigendecomposition: closed form for 2x2, numpy eigh above.
# ----------------------------------------------------------------------


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a unit vector's global phase so its largest component is real positive."""
    k = int(np.argmax(np.abs(v)))
    mag = abs(v[k])
    if mag < ZERO_NORM_GUARD:
        return v
    return v * (np.conj(v[k]) / mag)


def _eigh2(a: np.ndarray) -> list[tuple[float, np.ndarray]]:
    # Scalar arithmetic throughout: this path sits under every effect
    # validation, so numpy per-call overhead would dominate grid sweeps.
    a00 = float(a[0, 0].real)
    a11 = float(a[1, 1].real)
    b = complex(a[0, 1])
    mean = 0.5 * (a00 + a11)
    half_gap = 0.5 * (a00 - a11)
    spread = math.hypot(half_gap, abs(b))
    hi, lo = mean + spread, mean - spread
    if spread <= 0.0 or (b == 0.0 and a00 == a11):
        v1, v2 = (1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j)
    else:
        # Two equivalent eigenvector formulas; take the better-conditioned one.
        n1_sq = abs(b) ** 2 + (hi - a00) ** 2
        n2_sq = (hi - a11) ** 2 + abs(b) ** 2
        x, y = (b, hi - a00 + 0.0j) if n1_sq >= n2_sq else (hi - a11 + 0.0j, b.conjugate())
        norm = math.sqrt(max(n1_sq, n2_sq))
        if norm < ZERO_NORM_GUARD:
            v1, v2 = (1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j)
            if a11 > a00:
                v1, v2 = v2, v1
        else:
            x, y = x / norm, y / norm
            v1 = (x, y)
            v2 = (-y.conjugate(), x.conjugate())
    out = []
    for ev, (x, y) in ((hi, v1), (lo, v2)):
        pivot = x if abs(x) >= abs(y) else y
        mag = abs(pivot)
        if mag >= ZERO_NORM_GUARD:
            phase = pivot.conjugate() / mag
            x, y = x * phase, y * phase
        out.append((ev, _frozen(np.array([x, y]))))
    return out


def eig_hermitian(a) -> list[tuple[float, np.ndarray]]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Parameters
    ----------
    a
        Square Hermitian matrix, dimension at most 16. The 2x2 case is
        solved in closed form; larger matrices use ``numpy.linalg.eigh``.

    Returns
    -------
    list of (eigenvalue, eigenvector) pairs, eigenvalues descending. Each
    eigenvector's global phase makes its largest component real positive.
    The reconstruction  sum_k  lambda_k v_k v_k^dagger  reproduces ``a`` to
    1e-11 in max norm.
    """
    a = _require_hermitian(a)
    n = a.shape[0]
    if n > MAX_DIMENSION:
        raise NotHermitian(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    # Work on the Hermitian average so tiny asymmetries cannot bias the result.
    h = 0.5 * (a + a.conj().T)
    if n == 2:
        return _eigh2(h)
    evs, vecs = np.linalg.eigh(h)
    return [
        (float(evs[k]), _frozen(_canonical_phase(vecs[:, k].copy())))
        for k in range(n - 1, -1, -1)
    ]


def eigvals_hermitian(a) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part of every matrix in a stack.

    ``a`` has shape (..., n, n); the result has shape (..., n). The 2x2
    case is the closed form of ``eig_hermitian`` evaluated over the whole
    stack; larger matrices use ``numpy.linalg.eigvalsh``. Nothing is
    validated: callers that need Hermiticity measure it themselves.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {a.shape}")
    if a.shape[-1] == 2:
        a00 = a[..., 0, 0].real
        a11 = a[..., 1, 1].real
        b = 0.5 * (a[..., 0, 1] + a[..., 1, 0].conj())
        mean = 0.5 * (a00 + a11)
        spread = np.hypot(0.5 * (a00 - a11), np.abs(b))
        return _frozen(mean[..., None] + spread[..., None] * _PLUS_MINUS)
    h = 0.5 * (a + a.conj().swapaxes(-1, -2))
    return _frozen(np.ascontiguousarray(np.linalg.eigvalsh(h)[..., ::-1]))


# ----------------------------------------------------------------------
# Biorthogonal (Schmidt) decomposition of photon-probe vectors.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Psi = sqrt(w) psi1 x phi1 + sqrt(1-w) psi2 x phi2, with w >= 1/2.

    Both the photon pair (psi1, psi2) and the probe pair (phi1, phi2) are
    orthonormal. Separable vectors have w = 1.
    """

    weight: float
    photon_pair: tuple[np.ndarray, np.ndarray]
    probe_pair: tuple[np.ndarray, np.ndarray]

    def reconstruct(self) -> np.ndarray:
        w = self.weight
        p1, p2 = self.photon_pair
        q1, q2 = self.probe_pair
        return math.sqrt(max(w, 0.0)) * np.kron(p1, q1) + math.sqrt(
            max(1.0 - w, 0.0)
        ) * np.kron(p2, q2)


def schmidt(psi) -> SchmidtDecomposition:
    """Biorthogonal decomposition of a unit photon-probe vector.

    The photon pair diagonalizes the reduced photon state; weights are its
    eigenvalues, ordered so that w >= 1/2. Each photon vector's global
    phase is fixed by making its largest component real positive, which
    pins the (otherwise free) degenerate w = 1/2 case for golden tests.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise NotNormalized(f"expected a 4-component compound vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > NORM_TOL:
        raise NotNormalized(f"compound vector norm is {n!r}, expected 1")
    c = v.reshape(2, 2)
    reduced = c @ c.conj().T
    (w, u1), (_, u2) = eig_hermitian(reduced)
    w = min(1.0, max(0.0, float(w)))
    # Top weight is always >= 1/2 for a trace-1 reduced state, so this is safe.
    phi1 = c.T @ u1.conj() / math.sqrt(w)
    phi1 = phi1 / np.linalg.norm(phi1)
    if 1.0 - w < 1e-12:
        # A second weight below eigenvalue noise is zero: snapping it keeps
        # sqrt(1 - w) from injecting a ghost term into the reconstruction.
        w = 1.0
        # Second probe direction is unconstrained; pick the canonical perp.
        phi2 = perp(phi1).copy()
    else:
        phi2 = c.T @ u2.conj() / math.sqrt(1.0 - w)
        phi2 = phi2 / np.linalg.norm(phi2)
    return SchmidtDecomposition(
        weight=w,
        photon_pair=(u1, u2),
        probe_pair=(_frozen(phi1), _frozen(phi2)),
    )


def adapted_observable(psi) -> np.ndarray:
    """The +/-1 observable on a vector's own Schmidt product directions.

    Eigenvalue +1 on psi1 x phi1, -1 on psi2 x phi2, 0 on the rest. Its
    outcome is definite exactly when the vector is separable.
    """
    dec = schmidt(psi)
    p1, p2 = dec.photon_pair
    q1, q2 = dec.probe_pair
    plus = np.kron(np.outer(p1, p1.conj()), np.outer(q1, q1.conj()))
    minus = np.kron(np.outer(p2, p2.conj()), np.outer(q2, q2.conj()))
    return _frozen(plus - minus)


def adapted_observable_variance(psi) -> float:
    """Variance of the adapted observable in its own vector; equals 4 w (1 - w)."""
    v = state_vector(psi)
    s = adapted_observable(v)
    mean = float(np.vdot(v, s @ v).real)
    second = float(np.vdot(v, s @ (s @ v)).real)
    return second - mean * mean
