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
:func:`state_relations_stack` audits the variance product and the three
sigma_x / sigma_y / sigma_z trade-offs of (N, 2, 2) density operators
from one validation and one pass of traces, and
:func:`entropic_bound_stack` takes (N, 2) pure states; they return
:class:`RelationReport` records whose fields are (N,) arrays.
:func:`erasure_duality_stack` takes (N,) amplitudes with (N, 2) markers
and returns one :class:`ErasureAudit` whose fields are arrays, its two
equalities among them as :class:`RelationReport` records. Entry i of each
array is the audit of state i; ``mzpovm run`` audits its one state as a
batch of one and reads entry 0. POVMs enter as (L, d, d) effect arrays,
effect k being outcome k.

Each public kernel checks its inputs, then calls a private core; the
``cli`` module docstring says which checks a run makes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, povm
from .errors import DimensionMismatch, NotHermitian, NotSharp

EQ_TOL = 1e-9
DEGENERATE_DIRECTION_TOL = 1e-12
_X, _Y, _Z = linalg.pauli_triple()


@dataclass(frozen=True)
class RelationReport:
    """One audited relation: name, both sides, sense, verdict and slack.

    ``slack`` is lhs - rhs for 'geq' and 'eq', rhs - lhs for 'leq';
    inequalities are satisfied when slack >= -tol, equalities when
    |slack| <= tol (tol = 1e-9). :func:`make_reports` audits N states at
    once and fills ``lhs``, ``rhs``, ``satisfied`` and ``slack`` with (N,)
    arrays.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    kind: str
    satisfied: np.ndarray
    slack: np.ndarray


def make_reports(name: str, lhs, rhs, kind: str, tol: float = EQ_TOL) -> RelationReport:
    """Audit lhs against rhs elementwise; rhs may be a scalar bound."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.full(lhs.shape, rhs, dtype=float)
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


def _density_stack(rhos) -> np.ndarray:
    rho = np.asarray(rhos, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise NotHermitian(f"expected an (N, 2, 2) stack of states, got shape {rho.shape}")
    dev = float(linalg.hermitian_deviation(rho).max(initial=0.0))
    if not dev <= linalg.HERMITIAN_TOL:
        raise NotHermitian(f"state deviates from Hermitian by {dev:.3e} (tol {linalg.HERMITIAN_TOL})")
    return rho


def _weight(amplitude: np.ndarray) -> np.ndarray:
    # |a|^2 through hypot, which rounds like abs() of a Python complex: a
    # batch of one then matches scalar arithmetic on the same amplitudes.
    return np.hypot(amplitude.real, amplitude.imag) ** 2


def _amplitudes(alphas, betas) -> np.ndarray:
    # The (N, 2) rows (alpha, beta), checked for unit norm.
    alpha = np.asarray(alphas, dtype=complex).reshape(-1)
    beta = np.asarray(betas, dtype=complex).reshape(-1)
    if alpha.shape != beta.shape:
        raise DimensionMismatch(f"got {alpha.size} alpha and {beta.size} beta amplitudes")
    return linalg.check_unit_rows(np.stack([alpha, beta], axis=1), "amplitude pair")


def _plogp(traces: np.ndarray) -> np.ndarray:
    # p log2 p of the probabilities p = tr[E rho] (real traces clipped to [0, 1]),
    # 0 where p = 0; an entropy (bits) is minus the sum over one distribution.
    probs = np.minimum(np.maximum(traces, 0.0), 1.0)
    seen = probs > 0.0
    return np.where(seen, probs * np.log2(probs + ~seen), 0.0)


def shannon_entropy(effects, rho) -> float:
    """Shannon entropy (bits) of the outcome distribution of an (L, 2, 2) POVM in a 2x2 state.

    A state that is not Hermitian within ``linalg.HERMITIAN_TOL`` (NaN included) raises ``NotHermitian``.
    """
    return float(-_plogp(_trace(effects, _density_stack(np.asarray(rho, dtype=complex)[None])[0]).real).sum())


@functools.lru_cache(maxsize=None)
def pauli_pvm(axis: str) -> np.ndarray:
    """The spectral measure {(I + s)/2, (I - s)/2} of a Pauli operator, as (2, 2, 2) effects.

    Cached and write-protected, so the same sharp array serves every
    caller for the life of the process.
    """
    s = linalg.pauli(axis)
    effects = np.array([0.5 * (linalg.IDENTITY2 + s), 0.5 * (linalg.IDENTITY2 - s)])
    effects.setflags(write=False)
    return effects


def entropic_bound_stack(a, b, states) -> RelationReport:
    """Additive entropic trade-off for two sharp observables over (N, d) pure states.

    ``a`` and ``b`` are (La, d, d) and (Lb, d, d) effect arrays, checked
    for sharpness once per call (any other shape raises ``DimensionMismatch``).
    H(A, psi) + H(B, psi) >= -2 log2 max_{i,k} |<psi|P_i Q_k|psi>| /
    (|P_i psi| |Q_k psi|); terms whose norms fall below 1e-12 are excluded
    from the maximum. For rank-1 mutually unbiased pairs the bound is one
    bit for every state.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    for p in (a, b):
        # The cached Pauli PVMs are sharp by construction and immutable.
        if any(p is pauli_pvm(axis) for axis in "xyz"):
            continue
        if not povm.classify_effects(p[None]).sharp[0]:
            raise NotSharp("the entropic bound applies to projection-valued observables")
    v = linalg.check_unit_rows(states, "state")
    if not a.shape[-1] == b.shape[-1] == v.shape[1]:
        raise DimensionMismatch(
            f"observables on C^{a.shape[-1]} and C^{b.shape[-1]} and states in C^{v.shape[1]} must share one dimension"
        )
    return _entropic_bound_core(a, b, v)


def _entropic_bound_core(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> RelationReport:
    """:func:`entropic_bound_stack` for sharp (La, d, d), (Lb, d, d) arrays and (N, d) unit rows the caller checked."""
    effects, split = np.concatenate([a, b]), len(a)
    terms = _plogp(_trace(effects, linalg.projectors(v)[:, None]).real)
    lhs = -terms[:, :split].sum(axis=-1) - terms[:, split:].sum(axis=-1)
    projected = np.einsum("kij,nj->nki", effects, v)
    # numpy.linalg.norm(projected, axis=2)'s arithmetic, without its argument handling.
    lengths = np.sqrt((projected.conj() * projected).real.sum(axis=2))
    na, nb, qb = lengths[:, :split], lengths[:, split:], projected[:, split:]
    overlap = np.abs(np.einsum("ni,kij,nlj->nkl", v.conj(), a, qb))
    kept = (na >= 1e-12)[:, :, None] & (nb >= 1e-12)[:, None, :]
    norms = np.where(kept, na[:, :, None] * nb[:, None, :], 1.0)
    best = np.where(kept, overlap / norms, 0.0).max(axis=(1, 2))
    found = best > 0.0
    rhs = np.full(best.shape, math.inf)
    rhs[found] = -2.0 * np.log2(best[found])
    return make_reports("entropy-pair", lhs, rhs, "geq")


@dataclass(frozen=True)
class StateContrasts:
    """Path/interference contrasts and visibility of a qubit state."""

    path: float
    interference_x: float
    interference_y: float
    visibility: float


def contrasts(rho) -> StateContrasts:
    """C_P = |<sz>|, C_Ix = |<sx>|, C_Iy = |<sy>|, V = sqrt(<sx>^2 + <sy>^2).

    ``rho`` is one 2x2 state; a non-Hermitian or NaN one raises ``NotHermitian``.
    """
    r = linalg.bloch_from_density_stack(_density_stack(np.asarray(rho, dtype=complex)[None]))[0]
    return StateContrasts(
        path=min(1.0, abs(float(r[2]))),
        interference_x=min(1.0, abs(float(r[0]))),
        interference_y=min(1.0, abs(float(r[1]))),
        visibility=min(1.0, float(math.hypot(r[0], r[1]))),
    )


# The (12, 2, 2) operators the state relations trace: I (every Pauli squared), sx, sy,
# sz, [sx, sz], {sx, sz} and the pauli_pvm effects of sx, sy and sz.
_STATE_OPERATORS = np.array([
    linalg.IDENTITY2, _X, _Y, _Z, _X @ _Z - _Z @ _X, _X @ _Z + _Z @ _X,
    *(effect for axis in "xyz" for effect in pauli_pvm(axis)),
])
_STATE_OPERATORS.setflags(write=False)


def state_relations_stack(rhos) -> list[RelationReport]:
    """Four state relations over (N, 2, 2) states, validated once, from one pass of traces.

    variance-product-xz: Var(sx) Var(sz) >= the commutator and covariance
    terms, lhs - rhs = 1 - |r|^2 (equality on pure states); entropy-triple:
    the sx, sy, sz entropy sum >= 2 bits; variance-triple: their variance sum
    >= 2 (= 3 - |r|^2); contrast-triple: the squared-contrast sum <= 1 (= |r|^2).
    """
    return _state_relations_core(_density_stack(rhos))


def _state_relations_core(rho: np.ndarray) -> list[RelationReport]:
    """:func:`state_relations_stack` on an (N, 2, 2) complex stack of states the caller has checked."""
    traces = _trace(_STATE_OPERATORS, rho[:, None])
    real = traces.real
    bloch = real[:, 1:4]
    variances = real[:, :1] - bloch * bloch
    lhs = variances[:, 0] * variances[:, 2]
    mx, mz = bloch[:, 0], bloch[:, 2]
    rhs = 0.25 * np.abs(traces[:, 4]) ** 2 + 0.25 * (real[:, 5] - 2.0 * mx * mz) ** 2
    entropies = -_plogp(real[:, 6:]).reshape(-1, 3, 2).sum(axis=-1)
    c = np.minimum(1.0, np.abs(bloch))
    contrast_sum = c[:, 2] ** 2 + c[:, 0] ** 2 + c[:, 1] ** 2
    return [
        make_reports("variance-product-xz", lhs, rhs, "geq", tol=1e-12),
        make_reports("entropy-triple", sum(entropies.T), 2.0, "geq"),
        make_reports("variance-triple", sum(variances.T), 2.0, "geq", tol=1e-12),
        make_reports("contrast-triple", contrast_sum, 1.0, "leq", tol=1e-12),
    ]


def _inference(weights, b1, b2) -> tuple[np.ndarray, np.ndarray]:
    # Optimal pointer directions ((N, 3), NaN rows where the evidence
    # vanishes) and D = 2L - 1 = |evidence| = sqrt(1 - 4 |alpha beta <p1|p2>|^2)
    # for evidence |alpha|^2 P1 - |beta|^2 P2 from (N, 2) weights.
    evidence = weights[:, :1] * b1 - weights[:, 1:] * b2
    strength = np.sqrt((evidence * evidence).sum(axis=-1))
    resolved = strength >= DEGENERATE_DIRECTION_TOL
    direction = np.where(resolved[:, None], evidence / np.where(resolved, strength, 1.0)[:, None], np.nan)
    # Rounding can push |evidence| past 1.
    return direction, np.where(resolved, np.minimum(1.0, strength), 0.0)


def _visibility(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Values 2|rho_01| and (N, 3) optimal equatorial directions for a stack
    # of off-diagonal elements; below 1e-15 the value is 0 along +x.
    size = np.abs(off)
    coherent = size >= 1e-15
    angle = np.where(coherent, -np.arctan2(off.imag, off.real), 0.0)
    value = np.where(coherent, np.minimum(1.0, 2.0 * size), 0.0)
    direction = np.zeros((len(off), 3))
    direction[:, 0], direction[:, 1] = np.cos(angle), np.sin(angle)
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
    marker evidence vanishes, D and V_e (N,), visibility_direction (N, 3).
    """

    pointer_direction: np.ndarray
    distinguishability: np.ndarray
    visibility: np.ndarray
    visibility_direction: np.ndarray
    duality: RelationReport
    variance_tradeoff: RelationReport


def erasure_duality_stack(alphas, betas, p1s, p2s) -> ErasureAudit:
    """Audit D^2 + V_e^2 = 1 and its variance form over (N,) amplitudes and (N, 2) markers.

    Both equalities are evaluated at the optima: the coincidence POVM at
    the optimal pointer direction (sigma_z where there is none), the
    interference variance at the optimal equatorial direction. Totals
    mixed across marker choices break the equality down to an inequality,
    which callers can probe by mixing reports.
    """
    amplitudes = _amplitudes(alphas, betas)
    p1 = linalg.check_unit_rows(p1s, "marker state")
    p2 = linalg.check_unit_rows(p2s, "marker state")
    if not p1.shape == p2.shape == (len(amplitudes), 2):
        raise DimensionMismatch(f"got {len(amplitudes)} amplitude pairs for {len(p1)} and {len(p2)} markers")
    return _erasure_duality_core(amplitudes, np.stack([p1, p2], axis=1))


def _erasure_duality_core(amplitudes: np.ndarray, markers: np.ndarray) -> ErasureAudit:
    """:func:`erasure_duality_stack` for unit rows the caller checked.

    ``markers[n, k]`` is the marker of path k + 1 for input n, (N, 2, 2);
    ``amplitudes`` holds the rows (alpha, beta), (N, 2) or (1, 2) for one
    input shared by every marker pair.
    """
    weights = _weight(amplitudes)
    bloch = linalg.bloch_from_density_stack(linalg.projectors(markers))
    b1, b2 = bloch[:, 0], bloch[:, 1]
    direction, d = _inference(weights, b1, b2)
    # Reduced photon state of alpha |1>|p1> + beta |2>|p2>.
    rows = amplitudes[:, :, None] * markers
    rho_e = rows @ rows.conj().swapaxes(-1, -2)
    vis, n = _visibility(rho_e[:, 0, 1])
    # The 'correct' coincidence effect ((1 + r.(P1 - P2)/2) I + (r.(P1 + P2)/2) sz) / 2
    # along the pointer r (sigma_z where there is none) is diagonal, c00 and c11.
    pointer = np.where(np.isnan(direction), (0.0, 0.0, 1.0), direction)
    bias = 1.0 + 0.5 * np.einsum("nk,nk->n", pointer, b1 - b2)
    axis = 0.5 * np.einsum("nk,nk->n", pointer, b1 + b2)
    c00, c11 = 0.5 * (bias + axis), 0.5 * (bias - axis)
    r = (amplitudes * amplitudes.conj()).real
    diff = (c00 - (1.0 - c00)) * r[:, 0] + (c11 - (1.0 - c11)) * r[:, 1]
    var_coincidence = 1.0 - diff * diff
    s_n = n[:, 0, None, None] * _X + n[:, 1, None, None] * _Y
    mean = _trace(s_n, rho_e).real
    var_interference = _trace(s_n @ s_n, rho_e).real - mean * mean  # Var(s_n, rho_e)
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
