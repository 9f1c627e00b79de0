"""Measured input POVMs of measurement schemes, and their closed forms.

A scheme couples the probe to the photon with a unitary U, fixes the
initial probe state p0, and reads a projective output observable M on the
compound system. The measured input POVM has matrix elements

    E_kl[i, j] = < i, p0 | U* M_kl U | j, p0 >,   i, j in {1, 2},

computed directly from the two basis inputs |i> (x) p0 (exact; no fitting
from samples). Output probabilities in the evolved state then equal the
input expectations <psi| E_kl |psi> for every input.

Schemes are held in a :class:`SchemeStack` of N members sharing one
output label set; a single scheme is a one-member stack, and
:func:`extract_effects` reads the (N, L, 2, 2) effects of all members in
one array pass. Callers hand them to ``oracle.cross_check_stack``, which
checks them on a route that never imports this module.

The closed forms here are the analytic effect tables of the three marked
experiments; the extraction route and the closed-form route must agree
entrywise, which is the central defense against sign and prefactor slips.
:func:`closed_form_stack` gives them for N configurations of one
experiment as (N, 4, 2, 2) joint and (N, 2, 2, 2) marginal arrays, and
:func:`closed_form` gives row 0 of its joint effects, for the benchmark's
sweep gate alone; neither calls an interferometer or extraction kernel.
The F, G and H marginals of an extracted joint POVM come from
``povm.joint_marginals``. Stacks are (N, ..., d, d) at every public
boundary. :func:`build_schemes` checks its probe rows before it builds a
unitary, and ``SchemeStack`` checks p0 with the same
``linalg.check_unit_rows``. A valid ``SchemeStack`` costs one maximum per
defect; only a failing one is reduced per member (``linalg.max_abs``) to
name the first bad member.
In the path-marking table the joint probability |alpha|^2 cos^2(delta/2)
follows from the effects: normalization fixes the prefactor at 1/2
(1 + cos delta), not 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interferometer, linalg, povm
from .errors import DimensionMismatch, InvalidScheme, NotHermitian, UnsupportedExperiment, ZeroProbabilityCondition

SCHEME_UNITARY_TOL = 1e-12
SCHEME_PROJECTION_TOL = 1e-10
_IDENTITY4 = np.eye(4)

@dataclass(frozen=True)
class SchemeStack:
    """N measurement schemes sharing one output label set, as stacked arrays.

    ``unitaries`` is (N, 4, 4), ``probe_init`` (N, 2) and ``outputs``
    (N, L, 4, 4), one projection per label. Construction validates the
    whole stack in one array pass and names the first bad member.
    """

    labels: tuple[str, ...]
    unitaries: np.ndarray
    probe_init: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        u = np.asarray(self.unitaries, dtype=complex)
        p0 = np.asarray(self.probe_init, dtype=complex)
        m = np.asarray(self.outputs, dtype=complex)
        if u.ndim != 3 or u.shape[1:] != (4, 4):
            raise InvalidScheme(f"scheme unitaries must be (N, 4, 4), got {u.shape}")
        n = len(u)
        if p0.shape != (n, 2):
            raise InvalidScheme(f"initial probe states must be ({n}, 2), got {p0.shape}")
        if m.shape != (n, len(labels), 4, 4):
            raise InvalidScheme(f"outputs must be ({n}, {len(labels)}, 4, 4), got {m.shape}")
        linalg.check_unit_rows(p0, "initial probe state")
        _validate(labels, u, m)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "unitaries", u)
        object.__setattr__(self, "probe_init", p0)
        object.__setattr__(self, "outputs", m)

    def __len__(self) -> int:
        return len(self.unitaries)


@np.errstate(over="ignore", invalid="ignore")
def _validate(labels, u: np.ndarray, m: np.ndarray) -> None:
    # Every check is "not value <= tol", which rejects NaN (every comparison
    # with NaN is False), inf and overflow, with no warning. On success each
    # matrix defect takes one maximum over the whole stack; only a failure
    # reduces it per member to name the first bad one.
    unitarity = u.conj().swapaxes(-1, -2) @ u - _IDENTITY4
    idempotency = m @ m - m
    hermiticity = linalg.hermitian_deviation(m)
    total = m.sum(axis=1) - _IDENTITY4
    if (
        np.abs(unitarity).max(initial=0.0) <= SCHEME_UNITARY_TOL
        and np.abs(idempotency).max(initial=0.0) <= SCHEME_PROJECTION_TOL
        and hermiticity.max(initial=0.0) <= linalg.HERMITIAN_TOL
        and np.abs(total).max(initial=0.0) <= SCHEME_PROJECTION_TOL
    ):
        return
    unitarity, idempotency, total = map(linalg.max_abs, (unitarity, idempotency, total))
    bad_unitary = ~(unitarity <= SCHEME_UNITARY_TOL)
    bad_output = ~(idempotency <= SCHEME_PROJECTION_TOL) | ~(hermiticity <= linalg.HERMITIAN_TOL)
    bad_total = ~(total <= SCHEME_PROJECTION_TOL)
    k = int(np.argmax(bad_unitary | bad_output.any(axis=1) | bad_total))
    if bad_unitary[k]:
        raise InvalidScheme(
            f"scheme {k}: unitarity defect {unitarity[k]:.3e} exceeds {SCHEME_UNITARY_TOL}"
        )
    if bad_output[k].any():
        l = int(np.argmax(bad_output[k]))
        raise InvalidScheme(
            f"scheme {k}: output {labels[l]!r} deviates from a projection by {idempotency[k, l]:.3e}"
        )
    raise InvalidScheme(f"scheme {k}: output projections do not sum to the identity")


_DETECTOR_LABELS = ("1", "2")
# |k><k| (x) I for k = 1, 2: the pointer projections along the identity's rows, summed.
_DETECTOR_OUTPUTS = interferometer.output_projection_stack(linalg.IDENTITY2).sum(axis=0)


def build_schemes(probes, deltas, pointers) -> SchemeStack:
    """Schemes for (N, 3, 2) probe triples, (N,) phases and (N, 2, 2) pointer pairs or None.

    With pointer pairs the outputs are the four compound projections
    |k><k| (x) |r_l><r_l| labeled 11, 21, 12, 22; without, only the
    detector projections |k><k| (x) I labeled 1, 2. Every probe row, p0 and
    markers, is checked in one ``linalg.check_unit_rows`` call before any
    unitary is built; ``NotNormalized`` names row 3 n + k, row k of triple n.
    """
    probes = np.asarray(probes, dtype=complex)
    linalg.check_unit_rows(probes.reshape(-1, probes.shape[-1]), "probe state")
    unitaries = interferometer.total_unitary_stack(probes, deltas)
    if pointers is None:
        outputs = np.broadcast_to(_DETECTOR_OUTPUTS, (len(probes), 2, 4, 4))
        return SchemeStack(_DETECTOR_LABELS, unitaries, probes[:, 0], outputs)
    # [n, l, k - 1] is |k><k| (x) |r_l><r_l|: label index 2 l + k - 1.
    outputs = interferometer.output_projection_stack(pointers)
    return SchemeStack(povm.JOINT_LABELS, unitaries, probes[:, 0], outputs.reshape(-1, 4, 4, 4))


def schemes_for(configs) -> SchemeStack:
    """The measurement schemes of configurations that share one readout, as one stack.

    Path and interference read the detectors alone; the other experiments
    add a pointer. One stack cannot mix the two. The scheme of a single
    configuration is the one-member stack ``schemes_for([config])``.
    """
    return build_schemes(
        interferometer.probe_stack(configs),
        [interferometer.effective_delta(c) for c in configs],
        interferometer.pointer_stack(configs),
    )


def extract_effects(schemes: SchemeStack) -> np.ndarray:
    """The (N, L, 2, 2) input effects E_l of every scheme of a stack.

    With W[:, i] = U (e_i (x) p0), the (4, 2) images of the two basis
    inputs, E_l = W* (M_l W) for the whole stack at once. Forming M_l W
    first sums in the order of the per-entry <w_i| M_l w_j> route.
    """
    # U[:, 2i + b] is the image of input |i, b>, so U (e_i (x) p0) = U[:, i, :] p0.
    columns = schemes.unitaries.reshape(-1, 4, 2, 2)
    w = np.einsum("naib,nb->nai", columns, schemes.probe_init)
    mw = np.einsum("nlab,nbj->nlaj", schemes.outputs, w)
    return np.einsum("nai,nlaj->nlij", w.conj(), mw)


@dataclass(frozen=True)
class ExperimentObservables:
    """The joint POVM :func:`closed_form` returns, kept for the benchmark's sweep gate."""

    joint: povm.DiscretePovm


# Signs of the two marginal outcomes, and the joint sign patterns; a
# product with +/-1 negates exactly, signed zeros included.
_PM = np.array([1.0, -1.0])
_PMPM = np.array([1.0, -1.0, 1.0, -1.0])
_MPPM = np.array([-1.0, 1.0, 1.0, -1.0])
_PMMP = np.array([1.0, -1.0, -1.0, 1.0])
_ZEROS = np.array([0.0, -0.0, 0.0, -0.0])
_PLUS = 0.5 * (linalg.IDENTITY2 + linalg.pauli("z"))
_MINUS = 0.5 * (linalg.IDENTITY2 - linalg.pauli("z"))
_MARKING_JOINT = np.array([_PLUS, _PLUS, _MINUS, _MINUS])
_MARKING_PROBE = np.array([_PLUS, _MINUS])


def closed_form_stack(configs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic joint effects and marginals of N configurations of one marked experiment.

    Returns the (N, 4, 2, 2) joint effects in the order of
    ``povm.JOINT_LABELS`` and the (N, 2, 2, 2) detector (F), probe (G) and
    coincidence (H) effects, outcomes "1" and "2". The angles are read
    with ``math.cos`` and ``math.sin`` per configuration, and each entry
    is formed from them alone, so a member does not depend on the rest of
    the stack.

    marking:       E_k1 and E_k2 are fractions of the path projections,
                   weighted cos^2(delta/2) / sin^2(delta/2); F is the path
                   observable smeared by cos(delta), G the sharp path
                   observable, H trivial.
    erasure:       effects (I -/+ n.sigma)/4, (I +/- m.sigma)/4 with
                   n = (sin d cos g, sin d sin g, -cos d),
                   m = (sin d cos g, sin d sin g, +cos d); F is the path
                   observable smeared by cos(delta), G trivial, H the
                   interference observable along (cos g, sin g, 0) smeared
                   by sin(delta).
    quantitative:  effects (I (1 +/- cos t cos d) +/- v.sigma)/4 built from
                   m = (-sin d sin t, 0, cos d + cos t) and
                   n = (-sin d sin t, 0, cos d - cos t); F is an unsharp
                   interference-path mixture, G the path observable
                   smeared by cos(theta), H trivial with bias
                   cos(theta) cos(delta).

    Raises ``UnsupportedExperiment`` for path or interference, and for a
    stack that is empty or mixes experiments.
    """
    experiments = sorted({c.experiment for c in configs})
    if len(experiments) != 1:
        raise UnsupportedExperiment(f"a closed-form stack takes one experiment, got {experiments}")
    experiment = experiments[0]
    if experiment not in ("marking", "erasure", "quantitative"):
        raise UnsupportedExperiment(f"closed forms exist for marking/erasure/quantitative, not {experiment!r}")
    d = [c.delta for c in configs]
    cd = np.array([math.cos(a) for a in d])[:, None]
    detector_z = cd * _PM
    if experiment == "marking":
        c2 = np.array([math.cos(a / 2.0) ** 2 for a in d])
        s2 = np.array([math.sin(a / 2.0) ** 2 for a in d])
        joint = np.stack([c2, s2, s2, c2], axis=1)[..., None, None] * _MARKING_JOINT
        detector = linalg.bloch_operators(1.0, (0.0, 0.0, detector_z))
        probe = np.broadcast_to(_MARKING_PROBE, (len(d), 2, 2, 2)).copy()
        coincidence = np.stack([c2, s2], axis=1)[..., None, None] * linalg.IDENTITY2
    elif experiment == "erasure":
        sd = np.array([math.sin(a) for a in d])[:, None]
        x = sd * np.array([math.cos(c.gamma) for c in configs])[:, None]
        y = sd * np.array([math.sin(c.gamma) for c in configs])[:, None]
        # -n, n, m, -m with n = (x, y, -cos d) and m = (x, y, cos d).
        joint = 0.5 * linalg.bloch_operators(1.0, (x * _MPPM, y * _MPPM, cd * _PMPM))
        detector = linalg.bloch_operators(1.0, (0.0, 0.0, detector_z))
        probe = linalg.bloch_operators(1.0, (0.0, 0.0, np.zeros((len(d), 2))))
        # -fringe and fringe with fringe = (x, y, 0).
        coincidence = linalg.bloch_operators(1.0, (-x * _PM, -y * _PM, 0.0))
    else:
        t = [c.theta for c in configs]
        ct = np.array([math.cos(a) for a in t])[:, None]
        x = -np.array([math.sin(a) for a in d])[:, None] * np.array([math.sin(a) for a in t])[:, None]
        bias = ct * cd
        # m, -n, n, -m with m = (x, 0, cos d + cos t) and n = (x, 0, cos d - cos t).
        joint = 0.5 * linalg.bloch_operators(1.0 + bias * _PMMP, (x * _PMPM, _ZEROS, (cd + ct * _PMMP) * _PMPM))
        # f and -f with f = (x, 0, cos d); the y parts of v and -v are 0 and -0.
        detector = linalg.bloch_operators(1.0, (x * _PM, _ZEROS[:2], detector_z))
        probe = linalg.bloch_operators(1.0, (0.0, 0.0, ct * _PM))
        coincidence = linalg.bloch_operators(1.0 + bias * _PM, (0.0, 0.0, 0.0))
    return joint, detector, probe, coincidence


def closed_form(config: interferometer.MzConfig) -> ExperimentObservables:
    """Analytic joint POVM of one configuration: row 0 of :func:`closed_form_stack` of ``[config]``.

    Only the benchmark's sweep gate calls it; once that gate reads :func:`closed_form_stack`,
    this function, :class:`ExperimentObservables` and ``povm.DiscretePovm`` can go.
    """
    return ExperimentObservables(povm.DiscretePovm(povm.JOINT_LABELS, closed_form_stack([config])[0][0]))


@np.errstate(over="ignore", invalid="ignore")
def conditional_probabilities(joint, probe_label: str, psi) -> dict[str, float]:
    """Detector probabilities conditional on one probe outcome.

    prob(D_k | probe = l) = <psi| E_kl |psi> / <psi| G_l |psi>, where G_l
    sums the joint effects over the detector index. ``joint`` is a (4, 2, 2)
    effect array in the order of ``povm.JOINT_LABELS``: another shape raises
    ``DimensionMismatch``, one not Hermitian within ``linalg.HERMITIAN_TOL``
    (NaN and inf included) ``NotHermitian``. ``interferometer.photon_state``
    checks ``psi``; an unknown ``probe_label`` raises ``KeyError``.
    """
    joint = np.asarray(joint, dtype=complex)
    if joint.shape != (4, 2, 2):
        raise DimensionMismatch(f"joint effects must be (4, 2, 2), got {joint.shape}")
    dev = float(linalg.hermitian_deviation(joint).max())
    if not dev <= linalg.HERMITIAN_TOL:
        raise NotHermitian(f"joint effects deviate from Hermitian by {dev:.3e} (tol {linalg.HERMITIAN_TOL})")
    return conditional_probabilities_core(joint, probe_label, interferometer.photon_state(psi))


def conditional_probabilities_core(joint, probe_label: str, v: np.ndarray) -> dict[str, float]:
    """:func:`conditional_probabilities`, checking nothing: the caller guarantees a
    Hermitian (4, 2, 2) complex joint and a complex (2,) unit vector ``v``."""
    # Outcome l of the probe marginal G sums E_1l and E_2l, in that order.
    members = povm.MARGINAL_PAIRS[1, {"1": 0, "2": 1}[probe_label]]
    joint_probabilities = [float(np.vdot(v, joint[k] @ v).real) for k in members]
    denom = sum(joint_probabilities)
    if denom <= 1e-12:
        raise ZeroProbabilityCondition(
            f"probe outcome {probe_label!r} has probability {denom!r} in this state"
        )
    return {"1": joint_probabilities[0] / denom, "2": joint_probabilities[1] / denom}
