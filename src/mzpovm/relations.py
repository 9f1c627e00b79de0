"""Uncertainty, duality and erasure trade-off relations as audit records.

Every relation is evaluated into a :class:`RelationReport` carrying both
sides, the demanded comparison, and the slack, so callers (tests, the CLI,
the verification suite) can audit rather than recompute. Quantities:

* variance product:  Var(sx) Var(sz) >= |<[sx,sz]>|^2/4 + cov^2, whose
  right side equals <sy>^2 + <sx>^2 <sz>^2; the gap is 1 - |r|^2, i.e. the
  relation expresses positivity of the state.
* Shannon entropies of POVM outcome distributions (base 2).
* contrasts C_P = |<sz>|, C_I = |<sx>| (or |<sy>|) and visibility 2r.
* distinguishability D = 2L - 1 from the optimal probe pointer, and the
  reduced-state visibility V_e, with the pure-state identities
  D^2 + V_e^2 = 1 and Var(H, psi) + Var(s_n, rho_e) = 1 at the respective
  optima, H being the coincidence POVM read along that pointer.

Each audited relation has one array kernel over a stack of states:
:func:`variance_ur_stack` and :func:`triple_relations_stack` take (N, 2, 2)
density operators and :func:`entropic_bound_stack` (N, 2) pure states;
they return :class:`RelationReport` records whose fields are (N,) arrays.
:func:`erasure_duality_stack` takes (N,) amplitudes with (N, 2) markers
and returns one :class:`ErasureAudit` whose fields are arrays, its two
equalities among them as :class:`RelationReport` records. On both records
``report(i)`` is the audit of state i with Python float and bool fields.
:func:`variance_ur`, :func:`entropic_bound` and :func:`triple_relations`
are batches of one that return it, because ``mzpovm run`` audits one
state. POVMs enter as :class:`povm.DiscretePovm`, whose ``effects`` array
goes to the kernels unconverted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, povm
from .errors import DimensionMismatch, NotHermitian, NotNormalized, NotSharp

EQ_TOL = 1e-9
DEGENERATE_DIRECTION_TOL = 1e-12


@dataclass(frozen=True)
class RelationReport:
    """One audited relation: name, both sides, sense, verdict and slack.

    ``slack`` is lhs - rhs for 'geq' and 'eq', rhs - lhs for 'leq';
    inequalities are satisfied when slack >= -tol, equalities when
    |slack| <= tol (tol = 1e-9). :func:`make_reports` audits N states at
    once and fills ``lhs``, ``rhs``, ``satisfied`` and ``slack`` with (N,)
    arrays; ``report(i)`` is the audit of state i, with Python float and
    bool fields.
    """

    name: str
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    kind: str
    satisfied: np.ndarray | bool
    slack: np.ndarray | float

    def report(self, index: int) -> RelationReport:
        return RelationReport(
            name=self.name,
            lhs=float(self.lhs[index]),
            rhs=float(self.rhs[index]),
            kind=self.kind,
            satisfied=bool(self.satisfied[index]),
            slack=float(self.slack[index]),
        )


def make_reports(name: str, lhs, rhs, kind: str, tol: float = EQ_TOL) -> RelationReport:
    """Audit lhs against rhs elementwise; rhs may be a scalar bound."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), lhs.shape)
    if kind == "geq":
        slack = lhs - rhs
        ok = slack >= -tol
    elif kind == "leq":
        slack = rhs - lhs
        ok = slack >= -tol
    elif kind == "eq":
        slack = lhs - rhs
        ok = np.abs(slack) <= tol
    else:
        raise ValueError(f"kind must be geq, leq or eq, got {kind!r}")
    return RelationReport(name=name, lhs=lhs, rhs=rhs, kind=kind, satisfied=ok, slack=slack)


def _trace(ops, rho) -> np.ndarray:
    # tr(A rho) over broadcast stacks of operators and states.
    return np.einsum("...ij,...ji->...", ops, rho)


def _variance(ops, rho) -> np.ndarray:
    # Var(A, rho) = <A^2> - <A>^2 over broadcast stacks.
    mean = _trace(ops, rho).real
    return _trace(ops @ ops, rho).real - mean * mean


def _density_stack(rhos) -> np.ndarray:
    rho = np.asarray(rhos, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise NotHermitian(f"expected an (N, 2, 2) stack of states, got shape {rho.shape}")
    dev = float(np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0))
    if not dev <= linalg.HERMITIAN_TOL:
        raise NotHermitian(f"state deviates from Hermitian by {dev:.3e} (tol {linalg.HERMITIAN_TOL})")
    return rho


def _unit_rows(states, what: str) -> np.ndarray:
    v = np.asarray(states, dtype=complex)
    if v.ndim != 2:
        raise DimensionMismatch(f"expected an (N, d) stack of {what}s, got shape {v.shape}")
    norms = np.linalg.norm(v, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= linalg.NORM_TOL))
    if bad.size:
        raise NotNormalized(
            f"{what} {bad[0]} has norm {float(norms[bad[0]])!r}, expected 1 within {linalg.NORM_TOL}"
        )
    return v


def _weight(amplitude: np.ndarray) -> np.ndarray:
    # |a|^2 through hypot, which rounds like abs() of a Python complex: a
    # batch of one then matches scalar arithmetic on the same amplitudes.
    return np.hypot(amplitude.real, amplitude.imag) ** 2


def _amplitudes(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alphas, dtype=complex).reshape(-1)
    beta = np.asarray(betas, dtype=complex).reshape(-1)
    if alpha.shape != beta.shape:
        raise DimensionMismatch(f"got {alpha.size} alpha and {beta.size} beta amplitudes")
    norm2 = _weight(alpha) + _weight(beta)
    bad = ~(np.abs(norm2 - 1.0) <= linalg.NORM_TOL)
    if bad.any():
        raise NotNormalized(f"|alpha|^2 + |beta|^2 = {float(norm2[bad][0])!r}, expected 1")
    return alpha, beta


def _projectors(states: np.ndarray) -> np.ndarray:
    return states[:, :, None] * states.conj()[:, None, :]


def variance_ur_stack(rhos) -> RelationReport:
    """Variance product relation for sigma_x / sigma_z over an (N, 2, 2) state stack.

    lhs = Var(sx) Var(sz); rhs carries the commutator and covariance
    terms. lhs - rhs reduces to 1 - |r|^2, so equality holds exactly on
    pure states.
    """
    rho = _density_stack(rhos)
    sx, _, sz = linalg.pauli_triple()
    lhs = _variance(sx, rho) * _variance(sz, rho)
    comm = _trace(sx @ sz - sz @ sx, rho)
    anti = _trace(sx @ sz + sz @ sx, rho).real
    mx = _trace(sx, rho).real
    mz = _trace(sz, rho).real
    rhs = 0.25 * np.abs(comm) ** 2 + 0.25 * (anti - 2.0 * mx * mz) ** 2
    return make_reports("variance-product-xz", lhs, rhs, "geq", tol=1e-12)


def variance_ur(rho) -> RelationReport:
    """Variance product relation for one state; see :func:`variance_ur_stack`."""
    return variance_ur_stack(np.asarray(rho, dtype=complex)[None]).report(0)


def _entropies(p: povm.DiscretePovm, rho: np.ndarray) -> np.ndarray:
    # Shannon entropies (bits) of p's outcome distributions over an (N, 2, 2) stack.
    probs = np.clip(_trace(p.effects, rho[:, None]).real, 0.0, 1.0)
    seen = probs > 0.0
    return -np.where(seen, probs * np.log2(np.where(seen, probs, 1.0)), 0.0).sum(axis=1)


def shannon_entropy(p: povm.DiscretePovm, rho) -> float:
    """Shannon entropy (bits) of a POVM's outcome distribution in a state."""
    return float(_entropies(p, np.asarray(rho, dtype=complex)[None])[0])


@functools.lru_cache(maxsize=None)
def pauli_pvm(axis: str) -> povm.DiscretePovm:
    """The spectral measure {(I + s)/2, (I - s)/2} of a Pauli operator.

    Cached and write-protected, so the same sharp instance serves every
    caller for the life of the process.
    """
    s = linalg.pauli(axis)
    effects = np.array([0.5 * (linalg.IDENTITY2 + s), 0.5 * (linalg.IDENTITY2 - s)])
    effects.setflags(write=False)
    return povm.DiscretePovm(("1", "2"), effects)


def entropic_bound_stack(a: povm.DiscretePovm, b: povm.DiscretePovm, states) -> RelationReport:
    """Additive entropic trade-off for two sharp observables over (N, d) pure states.

    H(A, psi) + H(B, psi) >= -2 log2 max_{i,k} |<psi|P_i Q_k|psi>| /
    (|P_i psi| |Q_k psi|); terms whose norms fall below 1e-12 are excluded
    from the maximum. For rank-1 mutually unbiased pairs the bound is one
    bit for every state. Sharpness is checked once per call.
    """
    for p in (a, b):
        # The cached Pauli PVMs are sharp by construction and immutable.
        if any(p is pauli_pvm(axis) for axis in "xyz"):
            continue
        cls = povm.validate(p)
        if not (cls.valid and cls.sharp):
            raise NotSharp("the entropic bound applies to projection-valued observables")
    v = _unit_rows(states, "state")
    rho = _projectors(v)
    lhs = _entropies(a, rho) + _entropies(b, rho)
    pa = np.einsum("kij,nj->nki", a.effects, v)
    qb = np.einsum("lij,nj->nli", b.effects, v)
    na = np.linalg.norm(pa, axis=2)
    nb = np.linalg.norm(qb, axis=2)
    overlap = np.abs(np.einsum("ni,kij,nlj->nkl", v.conj(), a.effects, qb))
    kept = (na >= 1e-12)[:, :, None] & (nb >= 1e-12)[:, None, :]
    norms = np.where(kept, na[:, :, None] * nb[:, None, :], 1.0)
    best = np.where(kept, overlap / norms, 0.0).max(axis=(1, 2))
    found = best > 0.0
    rhs = np.full(best.shape, math.inf)
    rhs[found] = -2.0 * np.log2(best[found])
    return make_reports("entropy-pair", lhs, rhs, "geq")


def entropic_bound(a: povm.DiscretePovm, b: povm.DiscretePovm, psi) -> RelationReport:
    """Additive entropic trade-off in one pure state; see :func:`entropic_bound_stack`."""
    return entropic_bound_stack(a, b, np.asarray(psi, dtype=complex).reshape(1, -1)).report(0)


@dataclass(frozen=True)
class StateContrasts:
    """Path/interference contrasts and visibility of a qubit state."""

    path: float
    interference_x: float
    interference_y: float
    visibility: float


def contrasts(rho) -> StateContrasts:
    """C_P = |<sz>|, C_Ix = |<sx>|, C_Iy = |<sy>|, V = sqrt(<sx>^2 + <sy>^2)."""
    r = linalg.bloch_from_density(rho)
    return StateContrasts(
        path=min(1.0, abs(float(r[2]))),
        interference_x=min(1.0, abs(float(r[0]))),
        interference_y=min(1.0, abs(float(r[1]))),
        visibility=min(1.0, float(math.hypot(r[0], r[1]))),
    )


def triple_relations_stack(rhos) -> list[RelationReport]:
    """The three-observable trade-offs for sigma_x, sigma_y, sigma_z over (N, 2, 2) states.

    Entropy sum >= 2 bits, variance sum >= 2 (equal to 3 - |r|^2), and
    squared-contrast sum <= 1 (equal to |r|^2).
    """
    rho = _density_stack(rhos)
    entropy_sum = sum(_entropies(pauli_pvm(ax), rho) for ax in "xyz")
    variance_sum = sum(_variance(s, rho) for s in linalg.pauli_triple())
    c = np.minimum(1.0, np.abs(linalg.bloch_from_density_stack(rho)))
    contrast_sum = c[:, 2] ** 2 + c[:, 0] ** 2 + c[:, 1] ** 2
    return [
        make_reports("entropy-triple", entropy_sum, 2.0, "geq"),
        make_reports("variance-triple", variance_sum, 2.0, "geq", tol=1e-12),
        make_reports("contrast-triple", contrast_sum, 1.0, "leq", tol=1e-12),
    ]


def triple_relations(rho) -> list[RelationReport]:
    """The three-observable trade-offs for one state; see :func:`triple_relations_stack`."""
    return [s.report(0) for s in triple_relations_stack(np.asarray(rho, dtype=complex)[None])]


def _inference(alpha, beta, b1, b2) -> tuple[np.ndarray, np.ndarray]:
    # Optimal pointer directions ((N, 3), NaN rows where the evidence
    # vanishes) and D = 2L - 1 = |evidence| = sqrt(1 - 4 |alpha beta <p1|p2>|^2)
    # over a stack, for evidence |alpha|^2 P1 - |beta|^2 P2 (marker Bloch vectors).
    evidence = _weight(alpha)[:, None] * b1 - _weight(beta)[:, None] * b2
    strength = np.linalg.norm(evidence, axis=1)
    resolved = strength >= DEGENERATE_DIRECTION_TOL
    direction = np.where(resolved[:, None], evidence / np.where(resolved, strength, 1.0)[:, None], np.nan)
    # Rounding can push |evidence| past 1.
    return direction, np.where(resolved, np.minimum(1.0, strength), 0.0)


def _coincidence_effect(b1, b2, r) -> np.ndarray:
    # The 'correct' effects ((1 + r.(P1 - P2)/2) I + (r.(P1 + P2)/2) sz) / 2
    # for (N, 3) marker Bloch vectors and pointer directions.
    bias = 0.5 * np.einsum("nk,nk->n", r, b1 - b2)
    axis = 0.5 * np.einsum("nk,nk->n", r, b1 + b2)
    return 0.5 * ((1.0 + bias)[:, None, None] * linalg.IDENTITY2 + axis[:, None, None] * linalg.pauli("z"))


def _two_outcome_variance(first, second, rho) -> np.ndarray:
    diff = _trace(first - second, rho).real
    return 1.0 - diff * diff


def _visibility(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Values 2|rho_01| and (N, 3) optimal equatorial directions for a stack
    # of off-diagonal elements; below 1e-15 the value is 0 along +x.
    coherent = np.abs(off) >= 1e-15
    angle = np.where(coherent, -np.angle(off), 0.0)
    value = np.where(coherent, np.minimum(1.0, 2.0 * np.abs(off)), 0.0)
    direction = np.stack([np.cos(angle), np.sin(angle), np.zeros(angle.shape)], axis=1)
    return value, direction


@dataclass(frozen=True)
class ErasureAudit:
    """Distinguishability/visibility trade-off audited at the optima.

    ``pointer_direction`` is the Bloch direction of the optimal probe
    readout, ``distinguishability`` D = 2L - 1 for the success probability
    L it achieves, ``visibility`` V_e the best interference contrast of the
    reduced photon state and ``visibility_direction`` the equatorial
    direction attaining it. :func:`erasure_duality_stack` fills them with
    arrays over N inputs: pointer_direction (N, 3) with NaN rows where the
    marker evidence vanishes, D and V_e (N,). ``report(i)`` is the audit of
    input i, with Python floats and pointer_direction None where the
    evidence vanishes.
    """

    pointer_direction: np.ndarray | None
    distinguishability: np.ndarray | float
    visibility: np.ndarray | float
    visibility_direction: np.ndarray
    duality: RelationReport
    variance_tradeoff: RelationReport

    def report(self, index: int) -> ErasureAudit:
        direction = self.pointer_direction[index]
        return ErasureAudit(
            pointer_direction=None if np.isnan(direction[0]) else direction,
            distinguishability=float(self.distinguishability[index]),
            visibility=float(self.visibility[index]),
            visibility_direction=self.visibility_direction[index],
            duality=self.duality.report(index),
            variance_tradeoff=self.variance_tradeoff.report(index),
        )


def erasure_duality_stack(alphas, betas, p1s, p2s) -> ErasureAudit:
    """Audit D^2 + V_e^2 = 1 and its variance form over (N,) amplitudes and (N, 2) markers.

    Both equalities are evaluated at the optima: the coincidence POVM at
    the optimal pointer direction (sigma_z where there is none), the
    interference variance at the optimal equatorial direction. Totals
    mixed across marker choices break the equality down to an inequality,
    which callers can probe by mixing reports.
    """
    alpha, beta = _amplitudes(alphas, betas)
    p1 = _unit_rows(p1s, "marker state")
    p2 = _unit_rows(p2s, "marker state")
    if not p1.shape == p2.shape == (alpha.size, 2):
        raise DimensionMismatch(f"got {alpha.size} amplitude pairs for {len(p1)} and {len(p2)} markers")
    b1 = linalg.bloch_from_density_stack(_projectors(p1))
    b2 = linalg.bloch_from_density_stack(_projectors(p2))
    direction, d = _inference(alpha, beta, b1, b2)
    # Reduced photon state of alpha |1>|p1> + beta |2>|p2>.
    rows = np.stack([alpha[:, None] * p1, beta[:, None] * p2], axis=1)
    rho_e = rows @ rows.conj().swapaxes(-1, -2)
    vis, n = _visibility(rho_e[:, 0, 1])
    pointer = np.where(np.isnan(direction), [0.0, 0.0, 1.0], direction)
    correct = _coincidence_effect(b1, b2, pointer)
    psi_in = np.stack([alpha, beta], axis=1)
    var_coincidence = _two_outcome_variance(correct, linalg.IDENTITY2 - correct, _projectors(psi_in))
    sx, sy, _ = linalg.pauli_triple()
    s_n = n[:, 0, None, None] * sx + n[:, 1, None, None] * sy
    var_interference = _variance(s_n, rho_e)
    return ErasureAudit(
        pointer_direction=direction,
        distinguishability=d,
        visibility=vis,
        visibility_direction=n,
        duality=make_reports("erasure-duality", d * d + vis**2, 1.0, "eq"),
        variance_tradeoff=make_reports(
            "coincidence-visibility-variance", var_coincidence + var_interference, 1.0, "eq"
        ),
    )
