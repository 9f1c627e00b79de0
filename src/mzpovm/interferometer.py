"""Mach-Zehnder optical elements, path-marking coupling and evolved states.

One code path covers all five experiments; they differ only in the probe
triple (the neutral state p0 and the markers p1, p2, held as one (3, 2)
array of rows), the pointer basis read out on the probe, and the
effective interferometer phase:

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

The marking kernels take the (N, 3, 2) probe rows of :func:`probe_stack`,
which copies the four shared, write-protected fixed triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidScheme, NotNormalized, UnsupportedExperiment

EXPERIMENTS = ("path", "interference", "marking", "erasure", "quantitative")
# The angles each experiment's scheme reads; it ignores the others.
ANGLES_READ = {
    "path": frozenset(),
    "interference": frozenset(),
    "marking": frozenset({"delta"}),
    "erasure": frozenset({"delta", "gamma"}),
    "quantitative": frozenset({"delta", "theta"}),
}
# Experiments read out by the detectors alone; the others add a probe pointer.
DETECTOR_ONLY = frozenset({"path", "interference"})


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


def effective_delta(config: MzConfig) -> float:
    """The phase actually applied: pinned for path/interference, free otherwise."""
    if config.experiment == "path":
        return 0.0
    if config.experiment == "interference":
        return -math.pi / 2.0
    return config.delta


def mz_evolution_stack(deltas) -> np.ndarray:
    """Photon unitaries for an (N,) array of phases, as one (N, 2, 2) array.

    Columns are the images of |1> and |2>:

        |1> -> [(-e^(i d) - 1) |1> + i (e^(i d) - 1) |2>] / 2
        |2> -> [i (-e^(i d) + 1) |1> - (1 + e^(i d)) |2>] / 2

    At delta = 0 both inputs pick up only a global sign (-I).
    """
    e = np.exp(1j * np.asarray(deltas, dtype=float).reshape(-1))
    out = np.empty((e.size, 2, 2), dtype=complex)
    out[:, 0, 0] = -e - 1.0
    out[:, 0, 1] = 1j * (-e + 1.0)
    out[:, 1, 0] = 1j * (e - 1.0)
    out[:, 1, 1] = -(1.0 + e)
    return 0.5 * out


def marker_states(theta) -> tuple[np.ndarray, np.ndarray]:
    """Marker states tilted by theta from the probe poles toward +x, each shaped like theta plus a last axis of 2.

    p1 = cos(theta/2) |q1> + sin(theta/2) |q2>,
    p2 = sin(theta/2) |q1> + cos(theta/2) |q2>; overlap <p1|p2> = sin(theta).
    ``math.cos`` and ``math.sin`` per tilt keep a marker independent of the
    tilts beside it.
    """
    t = np.asarray(theta, dtype=float)
    p1 = np.array([(math.cos(a / 2.0), math.sin(a / 2.0)) for a in t.flat], dtype=complex).reshape(t.shape + (2,))
    return p1, p1[..., ::-1].copy()


_Q1 = linalg.state_vector([1.0, 0.0])
_Q2 = linalg.state_vector([0.0, 1.0])
_UNMARKED = np.array([_Q1, _Q1, _Q1])
_MARKED = np.array([_Q1, _Q1, _Q2])
_UNMARKED.setflags(write=False)
_MARKED.setflags(write=False)
# Every experiment but quantitative uses one fixed triple; quantitative
# tilts its markers by theta.
_FIXED_ROWS = {"path": _UNMARKED, "interference": _UNMARKED, "marking": _MARKED, "erasure": _MARKED}


def probe_stack(configs) -> np.ndarray:
    """The probe triples of ``configs`` as one (N, 3, 2) array of rows p0, p1, p2."""
    return np.array([
        _FIXED_ROWS[c.experiment] if c.experiment in _FIXED_ROWS else (_Q1, *marker_states(c.theta))
        for c in configs
    ])


def pointer_stack(configs) -> np.ndarray | None:
    """The orthonormal pointer pairs (r1, r2) of ``configs`` as one (N, 2, 2) array.

    Returns None when every config is read out by the detectors alone
    (path, interference); configs that mix the two readouts are rejected.
    Erasure reads (p1 +/- e^(i gamma) p2) / sqrt 2, marking and
    quantitative the marker basis.
    """
    detector_only = [c.experiment in DETECTOR_ONLY for c in configs]
    if all(detector_only):
        return None
    if any(detector_only):
        raise UnsupportedExperiment("one stack cannot mix detector-only and pointer readouts")
    out = np.empty((len(configs), 2, 2), dtype=complex)
    out[:] = linalg.IDENTITY2
    erasure = [n for n, c in enumerate(configs) if c.experiment == "erasure"]
    if erasure:
        phase = np.exp(1j * np.array([configs[n].gamma for n in erasure]))
        out[erasure, :, 0] = 1.0 / math.sqrt(2.0)
        out[erasure, 0, 1] = phase / math.sqrt(2.0)
        out[erasure, 1, 1] = -phase / math.sqrt(2.0)
    return out


def total_unitary_stack(probes, deltas) -> np.ndarray:
    """Marking followed by the interferometer, (U_MZ (x) I) . U_mark, as (N, 4, 4).

    U_mark = sum_k |k><k| (x) V_k with V_k p0 = p_k, completed to a unitary by
    V_k = |p_k><p0| + |p_k_perp><p0_perp|; any other completion acts alike on
    every psi (x) p0 and yields the same measured POVM. The product maps |k, d>
    to sum_ab U_MZ[a, k] V_k[b, d] |a, b>, each entry one product, with no
    Kronecker product formed; at delta = 0, where U_MZ = -I, it is -U_mark.
    """
    probes = np.asarray(probes, dtype=complex)
    # V_k for k = 1, 2, as (N, 2, 2, 2) [n, k, row, col].
    p0, pk, perps = probes[:, 0, None, None, :], probes[:, 1:, :, None], linalg.perp(probes)
    blocks = pk * p0.conj() + perps[:, 1:, :, None] * perps[:, 0, None, None, :].conj()
    return np.einsum("nak,nkbd->nabkd", mz_evolution_stack(deltas), blocks).reshape(-1, 4, 4)


def photon_state(psi) -> np.ndarray:
    """The checked (2,) unit vector of a photon input; any other length raises ``InvalidScheme``.

    Past the ``linalg.state_vector`` check, a squared norm further than
    1e-12 from 1 raises ``NotNormalized``: that is the bound to which
    ``oracle.probabilities`` holds the sum of each output distribution.
    """
    v = linalg.state_vector(psi)
    if v.shape != (2,):
        raise InvalidScheme("the input must be a two-component photon state")
    squared = float(np.vdot(v, v).real)
    if not abs(squared - 1.0) <= 1e-12:
        raise NotNormalized(f"photon input has squared norm {squared!r}, expected 1 within 1e-12")
    return v


def final_state_stack(psi, probes, deltas) -> np.ndarray:
    """Total output vectors (U_MZ (x) I) U_mark (psi (x) p0) for one input, as (N, 4).

    ``psi`` is checked once for the whole stack, by :func:`photon_state`,
    and every probe row as ``extraction.build_schemes`` checks them.
    """
    v = photon_state(psi)
    probes = np.asarray(probes, dtype=complex)
    linalg.check_unit_rows(probes.reshape(-1, probes.shape[-1]), "probe state")
    inputs = (v[:, None] * probes[:, 0, None, :]).reshape(-1, 4)
    return np.einsum("nab,nb->na", total_unitary_stack(probes, deltas), inputs)


def output_projection_stack(pointers) -> np.ndarray:
    """The compound projections |k><k| (x) |r><r| for (..., 2) pointer rows r, as (..., 2, 4, 4).

    Entry [..., k - 1] is the projection for detector k; both are written
    into one array.
    """
    r = np.asarray(pointers, dtype=complex)
    out = np.zeros(r.shape[:-1] + (2, 2, 2, 2, 2), dtype=complex)
    out[..., 0, 0, :, 0, :] = out[..., 1, 1, :, 1, :] = linalg.projectors(r)
    return out.reshape(r.shape[:-1] + (2, 4, 4))
