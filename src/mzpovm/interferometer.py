"""Mach-Zehnder optical elements, path-marking coupling and evolved states.

One code path covers all five experiments; they differ only in the probe
triple (neutral and marker states), the pointer basis read out on the
probe, and the effective interferometer phase:

====================  ====================  =======================  ==========
experiment            markers               pointer basis            phase
====================  ====================  =======================  ==========
path                  none (p1 = p2 = p0)   none (detectors only)    pinned 0
interference          none                  none (detectors only)    pinned -pi/2
marking               orthogonal            marker basis             free delta
erasure               orthogonal            (p1 +/- e^(i gamma) p2)  free delta
quantitative          tilted by theta       sigma_z eigenbasis       free delta
====================  ====================  =======================  ==========

The ``delta`` field of a path or interference configuration is stored but
ignored: those two experiments are *defined* by their phase settings.
The composite evolution (beam splitters, mirrors, phase shifter) is taken
as one authoritative unitary; element-by-element phase bookkeeping is
narrative only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotNormalized, UnsupportedExperiment

EXPERIMENTS = ("path", "interference", "marking", "erasure", "quantitative")
# The angles each experiment's scheme reads; it ignores the others.
ANGLES_READ = {
    "path": frozenset(),
    "interference": frozenset(),
    "marking": frozenset({"delta"}),
    "erasure": frozenset({"delta", "gamma"}),
    "quantitative": frozenset({"delta", "theta"}),
}


@dataclass(frozen=True)
class MzConfig:
    """Experiment kind plus the angles delta, gamma, theta (radians).

    Angles irrelevant to the chosen experiment are stored but ignored.
    """

    experiment: str
    delta: float = 0.0
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise UnsupportedExperiment(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        for name in ("delta", "gamma", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise UnsupportedExperiment(f"angle {name} must be finite")


@dataclass(frozen=True)
class ProbeTriple:
    """Neutral probe state p0 and the marker states p1, p2 (all unit)."""

    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        for name in ("p0", "p1", "p2"):
            object.__setattr__(self, name, linalg.state_vector(getattr(self, name)))


def effective_delta(config: MzConfig) -> float:
    """The phase actually applied: pinned for path/interference, free otherwise."""
    if config.experiment == "path":
        return 0.0
    if config.experiment == "interference":
        return -math.pi / 2.0
    return config.delta


def mz_evolution(delta: float) -> np.ndarray:
    """Photon unitary for the full interferometer passage at phase delta.

    Columns are the images of |1> and |2>:

        |1> -> [(-e^(i d) - 1) |1> + i (e^(i d) - 1) |2>] / 2
        |2> -> [i (-e^(i d) + 1) |1> - (1 + e^(i d)) |2>] / 2

    At delta = 0 both inputs pick up only a global sign (-I).
    """
    e = np.exp(1j * delta)
    return 0.5 * np.array(
        [
            [-e - 1.0, 1j * (-e + 1.0)],
            [1j * (e - 1.0), -(1.0 + e)],
        ]
    )


def marker_states(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Marker states tilted by theta from the probe poles toward +x.

    p1 = cos(theta/2) |q1> + sin(theta/2) |q2>,
    p2 = sin(theta/2) |q1> + cos(theta/2) |q2>; overlap <p1|p2> = sin(theta).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([c, s], dtype=complex), np.array([s, c], dtype=complex)


def probes_for(config: MzConfig) -> ProbeTriple:
    """The probe triple each experiment uses."""
    q1 = np.array([1.0, 0.0], dtype=complex)
    q2 = np.array([0.0, 1.0], dtype=complex)
    if config.experiment in ("path", "interference"):
        return ProbeTriple(p0=q1, p1=q1, p2=q1)
    if config.experiment in ("marking", "erasure"):
        return ProbeTriple(p0=q1, p1=q1, p2=q2)
    p1, p2 = marker_states(config.theta)
    return ProbeTriple(p0=q1, p1=p1, p2=p2)


def pointer_basis(config: MzConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal probe vectors read out jointly with the detectors.

    Returns None for path/interference, where only the detectors fire.
    """
    if config.experiment in ("path", "interference"):
        return None
    if config.experiment == "erasure":
        phase = np.exp(1j * config.gamma)
        r1 = np.array([1.0, phase], dtype=complex) / math.sqrt(2.0)
        r2 = np.array([1.0, -phase], dtype=complex) / math.sqrt(2.0)
        return r1, r2
    return (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
    )


def marking_unitary(probes: ProbeTriple) -> np.ndarray:
    """The path-marking coupling |k><k| (x) V_k with V_k p0 = p_k.

    The coupling is only constrained on inputs psi (x) p0; the completion
    V_k = |p_k><p0| + |p_k_perp><p0_perp| makes it a concrete unitary.
    Any other completion acts identically on all psi (x) p0 and yields the
    same measured POVM.
    """
    blocks = []
    p0 = probes.p0
    p0_perp = linalg.perp(p0)
    for pk in (probes.p1, probes.p2):
        v = np.outer(pk, p0.conj()) + np.outer(linalg.perp(pk), p0_perp.conj())
        blocks.append(v)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = blocks[0]
    out[2:, 2:] = blocks[1]
    return out


def total_unitary(probes: ProbeTriple, delta: float) -> np.ndarray:
    """Marking followed by the interferometer: (U_MZ (x) I) . U_mark."""
    return np.kron(mz_evolution(delta), np.eye(2, dtype=complex)) @ marking_unitary(probes)


def final_state(psi, probes: ProbeTriple, config: MzConfig) -> np.ndarray:
    """Total output vector for input psi: (U_MZ (x) I) U_mark (psi (x) p0)."""
    v = linalg.state_vector(psi)
    if v.shape != (2,):
        raise NotNormalized("the photon input must be a two-component state")
    out = total_unitary(probes, effective_delta(config)) @ np.kron(v, probes.p0)
    return linalg.state_vector(out)


def output_projection(k: int, pointer) -> np.ndarray:
    """The compound projection |k><k| (x) |pointer><pointer|, k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"detector index must be 1 or 2, got {k!r}")
    r = linalg.state_vector(pointer)
    photon = np.zeros((2, 2), dtype=complex)
    photon[k - 1, k - 1] = 1.0
    return np.kron(photon, np.outer(r, r.conj()))


def detector_projection(k: int) -> np.ndarray:
    """The detector-only projection |k><k| (x) I, k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"detector index must be 1 or 2, got {k!r}")
    photon = np.zeros((2, 2), dtype=complex)
    photon[k - 1, k - 1] = 1.0
    return np.kron(photon, np.eye(2, dtype=complex))
