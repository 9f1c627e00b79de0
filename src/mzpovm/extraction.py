"""Measured input POVMs of measurement schemes, and their closed forms.

A scheme couples the probe to the photon with a unitary U, fixes the
initial probe state p0, and reads a projective output observable M on the
compound system. The measured input POVM has matrix elements

    E_kl[i, j] = < i, p0 | U* M_kl U | j, p0 >,   i, j in {1, 2},

computed directly from the two basis inputs |i> (x) p0 (exact; no fitting
from samples). Output probabilities in the evolved state then equal the
input expectations <psi| E_kl |psi> for every input.

The closed forms here are the analytic effect tables of the three marked
experiments; the extraction route and the closed-form route must agree
entrywise, which is the central defense against sign and prefactor slips.
In the path-marking table the joint probability |alpha|^2 cos^2(delta/2)
follows from the effects: normalization fixes the prefactor at 1/2
(1 + cos delta), not 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interferometer, linalg, povm
from .errors import InvalidScheme, UnsupportedExperiment, ZeroProbabilityCondition

SCHEME_UNITARY_TOL = 1e-12
SCHEME_PROJECTION_TOL = 1e-10

DETECTOR_GROUPING = {"1": ("11", "12"), "2": ("21", "22")}
PROBE_GROUPING = {"1": ("11", "21"), "2": ("12", "22")}
COINCIDENCE_GROUPING = {"1": ("11", "22"), "2": ("12", "21")}


@dataclass(frozen=True)
class MeasurementScheme:
    """Unitary coupling, initial probe state, and labeled output projections."""

    unitary: np.ndarray
    probe_init: np.ndarray
    outputs: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (4, 4):
            raise InvalidScheme(f"scheme unitary must be 4x4, got {u.shape}")
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
        # "not <=" rejects NaN, which every comparison leaves False.
        if not defect <= SCHEME_UNITARY_TOL:
            raise InvalidScheme(f"unitarity defect {defect:.3e} exceeds {SCHEME_UNITARY_TOL}")
        object.__setattr__(self, "probe_init", linalg.state_vector(self.probe_init))
        total = np.zeros((4, 4), dtype=complex)
        outs = []
        for label, m in self.outputs:
            m = np.asarray(m, dtype=complex)
            idem = float(np.max(np.abs(m @ m - m)))
            if not idem <= SCHEME_PROJECTION_TOL or not linalg.is_hermitian(m):
                raise InvalidScheme(f"output {label!r} deviates from a projection by {idem:.3e}")
            total = total + m
            outs.append((str(label), m))
        if not float(np.max(np.abs(total - np.eye(4)))) <= SCHEME_PROJECTION_TOL:
            raise InvalidScheme("output projections do not sum to the identity")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "outputs", tuple(outs))


def build_scheme(
    probes: interferometer.ProbeTriple,
    delta: float,
    pointers: tuple[np.ndarray, np.ndarray] | None,
) -> MeasurementScheme:
    """Assemble a scheme from probes, phase, and an optional pointer basis.

    With a pointer pair the outputs are the four compound projections
    |k><k| (x) |r_l><r_l| labeled 11, 21, 12, 22; without one, only the
    detector projections |k><k| (x) I labeled 1, 2.
    """
    u = interferometer.total_unitary(probes, delta)
    if pointers is None:
        outputs = [
            ("1", interferometer.detector_projection(1)),
            ("2", interferometer.detector_projection(2)),
        ]
    else:
        r1, r2 = pointers
        outputs = [
            ("11", interferometer.output_projection(1, r1)),
            ("21", interferometer.output_projection(2, r1)),
            ("12", interferometer.output_projection(1, r2)),
            ("22", interferometer.output_projection(2, r2)),
        ]
    return MeasurementScheme(unitary=u, probe_init=probes.p0, outputs=tuple(outputs))


def scheme_for(config: interferometer.MzConfig) -> MeasurementScheme:
    """The measurement scheme realizing an experiment configuration."""
    return build_scheme(
        interferometer.probes_for(config),
        interferometer.effective_delta(config),
        interferometer.pointer_basis(config),
    )


def extract_povm(scheme: MeasurementScheme) -> povm.DiscretePovm:
    """The input POVM a scheme measures, one effect per output label."""
    basis_in = [
        scheme.unitary @ np.kron(e, scheme.probe_init)
        for e in (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
    ]
    effects = []
    for label, m in scheme.outputs:
        e = np.empty((2, 2), dtype=complex)
        for i, wi in enumerate(basis_in):
            for j, wj in enumerate(basis_in):
                e[i, j] = np.vdot(wi, m @ wj)
        effects.append((label, e))
    return povm.DiscretePovm.from_pairs(effects)


@dataclass(frozen=True)
class ExperimentObservables:
    """A four-outcome joint POVM with its three grouped marginals.

    ``detector`` sums over the probe index (the F marginal), ``probe``
    sums over the detector index (G), and ``coincidence`` groups equal
    against unequal index pairs (H).
    """

    joint: povm.DiscretePovm
    detector: povm.DiscretePovm
    probe: povm.DiscretePovm
    coincidence: povm.DiscretePovm


def marginals_of(joint: povm.DiscretePovm) -> ExperimentObservables:
    """Group a four-outcome joint POVM into its three standard marginals."""
    return ExperimentObservables(
        joint=joint,
        detector=povm.marginal(joint, DETECTOR_GROUPING),
        probe=povm.marginal(joint, PROBE_GROUPING),
        coincidence=povm.marginal(joint, COINCIDENCE_GROUPING),
    )


def _half(coeff: float, vec) -> np.ndarray:
    sx, sy, sz = linalg.pauli_triple()
    return 0.5 * (coeff * np.eye(2, dtype=complex) + vec[0] * sx + vec[1] * sy + vec[2] * sz)


def _quarter(coeff: float, vec) -> np.ndarray:
    return 0.5 * _half(coeff, vec)


def closed_form(config: interferometer.MzConfig) -> ExperimentObservables:
    """Analytic joint POVM and marginals for the three marked experiments.

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
    """
    d = config.delta
    if config.experiment == "marking":
        ident = np.eye(2, dtype=complex)
        sz = linalg.pauli("z")
        plus = 0.5 * (ident + sz)
        minus = 0.5 * (ident - sz)
        c2 = math.cos(d / 2.0) ** 2
        s2 = math.sin(d / 2.0) ** 2
        joint = povm.DiscretePovm.from_pairs(
            [("11", c2 * plus), ("21", s2 * plus), ("12", s2 * minus), ("22", c2 * minus)]
        )
        detector = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, (0, 0, math.cos(d)))), ("2", _half(1.0, (0, 0, -math.cos(d))))]
        )
        probe = povm.DiscretePovm.from_pairs([("1", plus), ("2", minus)])
        coincidence = povm.DiscretePovm.from_pairs([("1", c2 * ident), ("2", s2 * ident)])
        return ExperimentObservables(joint, detector, probe, coincidence)

    if config.experiment == "erasure":
        g = config.gamma
        n = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), -math.cos(d)])
        m = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), math.cos(d)])
        joint = povm.DiscretePovm.from_pairs(
            [
                ("11", _quarter(1.0, -n)),
                ("21", _quarter(1.0, n)),
                ("12", _quarter(1.0, m)),
                ("22", _quarter(1.0, -m)),
            ]
        )
        detector = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, (0, 0, math.cos(d)))), ("2", _half(1.0, (0, 0, -math.cos(d))))]
        )
        probe = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, (0, 0, 0))), ("2", _half(1.0, (0, 0, 0)))]
        )
        fringe = np.array([math.sin(d) * math.cos(g), math.sin(d) * math.sin(g), 0.0])
        coincidence = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, -fringe)), ("2", _half(1.0, fringe))]
        )
        return ExperimentObservables(joint, detector, probe, coincidence)

    if config.experiment == "quantitative":
        t = config.theta
        bias = math.cos(t) * math.cos(d)
        m = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d) + math.cos(t)])
        n = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d) - math.cos(t)])
        joint = povm.DiscretePovm.from_pairs(
            [
                ("11", _quarter(1.0 + bias, m)),
                ("21", _quarter(1.0 - bias, -n)),
                ("12", _quarter(1.0 - bias, n)),
                ("22", _quarter(1.0 + bias, -m)),
            ]
        )
        f_vec = np.array([-math.sin(d) * math.sin(t), 0.0, math.cos(d)])
        detector = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, f_vec)), ("2", _half(1.0, -f_vec))]
        )
        probe = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0, (0, 0, math.cos(t)))), ("2", _half(1.0, (0, 0, -math.cos(t))))]
        )
        coincidence = povm.DiscretePovm.from_pairs(
            [("1", _half(1.0 + bias, (0, 0, 0))), ("2", _half(1.0 - bias, (0, 0, 0)))]
        )
        return ExperimentObservables(joint, detector, probe, coincidence)

    raise UnsupportedExperiment(
        f"closed forms exist for marking/erasure/quantitative, not {config.experiment!r}"
    )


def conditional_probabilities(joint: povm.DiscretePovm, probe_label: str, psi) -> dict[str, float]:
    """Detector probabilities conditional on one probe outcome.

    prob(D_k | probe = l) = <psi| E_kl |psi> / <psi| G_l |psi>, where G_l
    sums the joint effects over the detector index.
    """
    v = linalg.state_vector(psi)
    members = PROBE_GROUPING[probe_label]
    denom = sum(float(np.vdot(v, joint.operator(m) @ v).real) for m in members)
    if denom <= 1e-12:
        raise ZeroProbabilityCondition(
            f"probe outcome {probe_label!r} has probability {denom!r} in this state"
        )
    out = {}
    for m in members:
        detector = m[0]
        out[detector] = float(np.vdot(v, joint.operator(m) @ v).real) / denom
    return out
