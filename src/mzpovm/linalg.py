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

Returned states, operators, spectra and norms are write-protected. The cores
:func:`projectors` and :func:`bloch_operators` and the measures :func:`max_abs`
and :func:`hermitian_deviation` return fresh writable arrays, and
:func:`check_unit_rows` returns its input as a complex array, the caller's own
when it is one. Every function is pure, so the module is thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import BlochOutOfBall, DimensionMismatch, NotHermitian, NotNormalized

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-10
ZERO_NORM_GUARD = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_PAULI = {
    "x": _frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
    "y": _frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
    "z": _frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
}

_PAULI_STACK = _frozen(np.array([_PAULI["x"], _PAULI["y"], _PAULI["z"]]))
IDENTITY2 = _frozen(np.eye(2, dtype=complex))
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


@np.errstate(over="ignore")
def check_unit_rows(v, what: str) -> np.ndarray:
    """Return an (N, d) complex stack after checking that every row is a unit vector.

    Anything but an (N, d) stack raises ``DimensionMismatch``. ``NotNormalized``
    names the first row (``what`` and its index) whose norm deviates from 1 by
    more than 1e-10; a norm past the largest float reads inf, with no warning.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise DimensionMismatch(f"expected an (N, d) stack of {what}s, got shape {v.shape}")
    norms = np.hypot.reduce(np.abs(v), axis=1)
    if not np.abs(norms - 1.0).max(initial=0.0) <= NORM_TOL:
        k = int(np.argmin(np.abs(norms - 1.0) <= NORM_TOL))
        raise NotNormalized(f"{what} {k} has norm {float(norms[k])!r}, expected 1 within {NORM_TOL}")
    return v


def state_vector(components) -> np.ndarray:
    """A write-protected copy of a unit state vector, checked as a batch of one by :func:`check_unit_rows`."""
    v = np.asarray(components, dtype=complex).reshape(-1)
    check_unit_rows(v[None], "state vector")
    return _frozen(v.copy())


def perp(v) -> np.ndarray:
    """The canonical perpendicular of C^2 vectors: (a, b) -> (-conj(b), conj(a)).

    ``v`` is one vector of shape (2,) or a stack of shape (..., 2).
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != 2:
        raise ValueError("perp is defined for two-component vectors only")
    return _frozen(np.concatenate([-v[..., 1:].conj(), v[..., :1].conj()], axis=-1))


def max_abs(a: np.ndarray) -> np.ndarray:
    """The largest absolute entry of each matrix of a (..., m, n) stack, shape (...).

    The absolute values are written members-last, (n, m, ...) with the
    leading axes reversed, so the reduction loops along the members
    rather than over one small matrix at a time.
    """
    return np.abs(a.T, order="C").max(axis=(0, 1)).T


def hermitian_deviation(a) -> np.ndarray:
    """max |A - A^dagger| of each matrix of a (..., d, d) stack, shape (...).

    The differences are written members-last, as in :func:`max_abs`.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {a.shape}")
    t = a.T
    return np.abs(np.subtract(t, t.conj().swapaxes(0, 1), order="C")).max(axis=(0, 1)).T


@np.errstate(over="ignore", invalid="ignore")
def projectors(states) -> np.ndarray:
    """The projections |v><v| of every vector along the last axis of a stack, shape (..., d, d).

    A core: nothing is checked, and a non-finite or overflowing entry gives inf or NaN entries, with no warning.
    """
    v = np.asarray(states, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]


def bloch_operators(coeff, vec) -> np.ndarray:
    """The operators (coeff I + vec . sigma) / 2, coeff and the parts x, y, z of vec broadcast to a shape S.

    Shape S + (2, 2); each entry takes the IEEE operations of the same expression on Python floats.
    """
    x, y, z = vec
    out = np.zeros(np.broadcast(coeff, x, y, z).shape + (2, 2), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0, 0] = 0.5 * (coeff + z)
    re[..., 0, 1] = re[..., 1, 0] = 0.5 * x
    re[..., 1, 1] = 0.5 * (coeff - z)
    im[..., 0, 1] = -0.5 * y
    im[..., 1, 0] = 0.5 * y
    return out


def density_from_bloch_stack(r) -> np.ndarray:
    """Build the states (I + r . sigma) / 2 from an (N, 3) stack of Bloch vectors.

    Raises
    ------
    BlochOutOfBall
        Naming the first member that is not 3 finite reals or whose |r|
        exceeds 1 by more than 1e-10.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[1] != 3:
        raise BlochOutOfBall(f"expected an (N, 3) stack of Bloch vectors, got shape {r.shape}")
    x, y, z = r[:, 0], r[:, 1], r[:, 2]
    finite = np.isfinite(r).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.sqrt(x * x + y * y + z * z)
    bad = np.flatnonzero(~(finite & (n <= 1.0 + 1e-10)))
    if bad.size:
        k = bad[0]
        if not finite[k]:
            raise BlochOutOfBall(f"Bloch vector {k} must be 3 finite reals, got {r[k]!r}")
        raise BlochOutOfBall(f"Bloch vector {k}: |r| = {float(n[k])!r} lies outside the Bloch ball")
    return _frozen(bloch_operators(1.0, (x, y, z)))


def density_from_bloch(r) -> np.ndarray:
    """The state (I + r . sigma) / 2; a batch of one of :func:`density_from_bloch_stack`."""
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.shape != (3,):
        raise BlochOutOfBall(f"Bloch vector must be 3 finite reals, got {r!r}")
    return density_from_bloch_stack(r[None])[0]


def bloch_from_density_stack(rho) -> np.ndarray:
    """Bloch vectors r_k = tr[rho sigma_k] of a (..., 2, 2) stack of states, shape (..., 3).

    The inverse of :func:`density_from_bloch_stack`; only the shape is
    checked. The Pauli entries are 0, +/-1 and +/-i, so each component is
    one rounded sum of two matrix entries.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise NotHermitian(f"expected a stack of 2x2 states, got shape {rho.shape}")
    return _frozen(np.einsum("kij,...ji->...k", _PAULI_STACK, rho).real)


def vector_norms(v) -> np.ndarray:
    """Euclidean norms along the last axis of a stack of complex vectors.

    One real dot product per part and row, the way ``numpy.linalg.norm``
    sums a single vector, so a row's norm equals that of the row alone.
    """
    v = np.asarray(v, dtype=complex)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return _frozen(np.sqrt((re @ re.swapaxes(-1, -2))[..., 0, 0] + (im @ im.swapaxes(-1, -2))[..., 0, 0]))


def kron_rows(a, b) -> np.ndarray:
    """``numpy.kron`` of matching rows of two stacks: (..., m) and (..., n) give (..., m n)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    products = a[..., :, None] * b[..., None, :]
    return _frozen(products.reshape(products.shape[:-2] + (-1,)))


def _compound_rows(psi) -> np.ndarray:
    # Validate an (N, 4) stack of unit photon-probe vectors, naming the
    # first bad member; a non-finite component fails the norm test.
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 4:
        raise NotNormalized(f"expected an (N, 4) stack of compound vectors, got shape {v.shape}")
    return check_unit_rows(v, "compound vector")


def partial_trace_probe_stack(psi) -> np.ndarray:
    """Reduced photon states (probe traced out) of an (N, 4) stack of unit photon-probe vectors."""
    c = _compound_rows(psi).reshape(-1, 2, 2)
    return _frozen(c @ c.conj().swapaxes(-1, -2))


# ----------------------------------------------------------------------
# Hermitian eigendecomposition: closed form for 2x2, numpy eigh above.
# ----------------------------------------------------------------------


def _eig2_values(a: np.ndarray):
    # Diagonal, Hermitian off-diagonal entry, descending eigenvalues
    # mean +/- spread and the spread of a 2x2 stack.
    a00 = a[..., 0, 0].real
    a11 = a[..., 1, 1].real
    b = 0.5 * (a[..., 0, 1] + a[..., 1, 0].conj())
    spread = np.hypot(0.5 * (a00 - a11), np.abs(b))
    return a00, a11, b, 0.5 * (a00 + a11)[..., None] + spread[..., None] * _PLUS_MINUS, spread


def _eigh2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The 2x2 closed form over a stack: eigenvector rows (x, y) and
    # (-conj y, conj x) for the values hi and lo.
    a00, a11, b, values, spread = _eig2_values(a)
    hi = values[..., 0]
    babs = np.abs(b)
    n1_sq = babs * babs + (hi - a00) * (hi - a00)
    n2_sq = (hi - a11) * (hi - a11) + babs * babs
    norm = np.sqrt(np.maximum(n1_sq, n2_sq))
    # Degenerate and vanishing cases take the standard basis, swapped when a11 > a00.
    basis = (spread <= 0.0) | (norm < ZERO_NORM_GUARD)
    swap = basis & (spread > 0.0) & (a11 > a00)
    # Two equivalent eigenvector formulas; take the better-conditioned one.
    first = n1_sq >= n2_sq
    norm = np.where(basis, 1.0, norm)
    x = np.where(basis, 1.0 - swap, np.where(first, b, hi - a11) / norm)
    y = np.where(basis, 1.0 * swap, np.where(first, hi - a00, b.conj()) / norm)
    rows = np.empty(hi.shape + (2, 2), dtype=complex)
    rows[..., 0, 0], rows[..., 0, 1] = x, y
    rows[..., 1, 0], rows[..., 1, 1] = -y.conj(), x.conj()
    return values, _canonical_phase(rows)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    # Rotate each row of a (..., n) stack of unit vectors by conj(pivot) /
    # |pivot|, the pivot being its first largest component.
    pivot = np.take_along_axis(v, np.abs(v).argmax(axis=-1)[..., None], axis=-1)
    return v * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


@np.errstate(over="ignore", invalid="ignore")
def eig_hermitian_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian part of every matrix in a stack.

    ``a`` has shape (..., n, n). Returns the eigenvalues, shape (..., n),
    descending, and the orthonormal eigenvectors, shape (..., n, n), row k
    belonging to eigenvalue k. Each eigenvector's global phase makes its
    largest component real positive. The 2x2 case is solved in closed form,
    mean +/- spread; larger matrices use ``numpy.linalg.eigh``. A core: nothing
    is validated, and callers that need Hermiticity measure it themselves. A
    non-finite 2x2 gives NaN or inf rows with no warning; larger matrices
    raise numpy's ``LinAlgError``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {a.shape}")
    if a.shape[-1] == 2:
        values, vectors = _eigh2(a)
    else:
        # Work on the Hermitian average so tiny asymmetries cannot bias the result.
        evs, vecs = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))
        values = np.ascontiguousarray(evs[..., ::-1])
        vectors = _canonical_phase(np.ascontiguousarray(vecs[..., ::-1].swapaxes(-1, -2)))
    return _frozen(values), _frozen(vectors)


@np.errstate(over="ignore", invalid="ignore")
def eigvals_hermitian(a) -> np.ndarray:
    """Descending eigenvalues of the Hermitian part of every matrix in a stack.

    ``a`` has shape (..., n, n); the result has shape (..., n). The 2x2
    case shares the closed form of :func:`eig_hermitian_stack`, so its
    values equal that kernel's; larger matrices use
    ``numpy.linalg.eigvalsh``. A core, which reads non-finite input as
    :func:`eig_hermitian_stack` does.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected a stack of square matrices, got shape {a.shape}")
    if a.shape[-1] == 2:
        return _frozen(_eig2_values(a)[3])
    h = 0.5 * (a + a.conj().swapaxes(-1, -2))
    return _frozen(np.ascontiguousarray(np.linalg.eigvalsh(h)[..., ::-1]))


# ----------------------------------------------------------------------
# Biorthogonal (Schmidt) decomposition of photon-probe vectors.
# ----------------------------------------------------------------------


def schmidt_stack(psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Biorthogonal decompositions of an (N, 4) stack of unit photon-probe vectors.

    Returns the weights w, shape (N,), and the photon and probe pairs,
    shape (N, 2, 2), row k of a pair belonging to the k-th Schmidt term.
    The photon pair diagonalizes the reduced photon state and the weights
    are its top eigenvalues, so w >= 1/2. Each photon vector's global phase
    makes its largest component real positive, which pins the (otherwise
    free) degenerate w = 1/2 case for golden tests. Raises
    ``NotNormalized`` naming the first member that is not a unit vector.
    """
    c = _compound_rows(psi).reshape(-1, 2, 2)
    values, photon = eig_hermitian_stack(c @ c.conj().swapaxes(-1, -2))
    w = np.minimum(1.0, np.maximum(0.0, values[:, 0]))
    ct = c.swapaxes(-1, -2)
    # Top weight is always >= 1/2 for a trace-1 reduced state, so this is safe.
    phi1 = (ct @ photon[:, 0].conj()[..., None])[..., 0] / np.sqrt(w)[:, None]
    phi1 = phi1 / vector_norms(phi1)[:, None]
    # A second weight below eigenvalue noise is zero: snapping it keeps
    # sqrt(1 - w) from injecting a ghost term into the reconstruction.
    snap = 1.0 - w < 1e-12
    w = np.where(snap, 1.0, w)
    phi2 = (ct @ photon[:, 1].conj()[..., None])[..., 0] / np.sqrt(np.where(snap, 1.0, 1.0 - w))[:, None]
    phi2 = phi2 / np.where(snap, 1.0, vector_norms(phi2))[:, None]
    # A snapped second probe direction is unconstrained; pick the canonical perp.
    phi2 = np.where(snap[:, None], perp(phi1), phi2)
    return _frozen(w), photon, _frozen(np.stack([phi1, phi2], axis=1))


def schmidt_terms(weights, photon, probe) -> np.ndarray:
    """The (N, 2, 4) terms sqrt(w_k) psi_k (x) phi_k of N Schmidt decompositions.

    ``weights`` (N,) and the (N, 2, 2) pairs are as :func:`schmidt_stack`
    returns them; the weights of the two terms are w and 1 - w. The terms
    sum to the decomposed vectors.
    """
    w = np.asarray(weights, dtype=float)
    scale = np.sqrt(np.maximum(np.stack([w, 1.0 - w], axis=1), 0.0))
    return _frozen(scale[..., None] * kron_rows(photon, probe))


def adapted_observable_stack(psi) -> np.ndarray:
    """The +/-1 observables on each vector's own Schmidt product directions, (N, 4, 4).

    Eigenvalue +1 on psi1 x phi1, -1 on psi2 x phi2, 0 on the rest. Its
    outcome is definite exactly when the vector is separable.
    """
    _, photon, probe = schmidt_stack(psi)
    p, q = projectors(photon), projectors(probe)
    # kron(p_k, q_k) for each term k: rows (i, a), columns (j, b).
    kron = (p[:, :, :, None, :, None] * q[:, :, None, :, None, :]).reshape(-1, 2, 4, 4)
    return _frozen(kron[:, 0] - kron[:, 1])


def adapted_observable_variance_stack(psi) -> np.ndarray:
    """Variance of each adapted observable in its own vector; equals 4 w (1 - w)."""
    v = _compound_rows(psi)
    s = adapted_observable_stack(v)
    bra = v.conj()[:, None, :]
    sv = s @ v[..., None]
    mean = (bra @ sv)[:, 0, 0].real
    second = (bra @ (s @ sv))[:, 0, 0].real
    return _frozen(second - mean * mean)
