"""Brute-force verification: direct probabilities, sampling, grid search.

Nothing here trusts a closed form. Output probabilities are evaluated
directly in the evolved compound state; random inputs replay exactly from
a seed; optima over the Bloch sphere come from a lattice sweep at
``GRID_RESOLUTION`` plus ``REFINE_LEVELS`` step-halving levels of a 5 x 5
patch around each best point, run for N objectives in lockstep: an
objective is called on a stack of points with the index of the search
each belongs to, once for the lattice and once per level, and every
point of every search is evaluated. On the linear and equatorial
objectives of the suite the maxima lie within 1e-12 of the exact ones.
Probabilities are always computed exactly, never estimated from
simulated counts.

Reproducibility contract: random pure states are two standard complex
Gaussians normalized (Haar-uniform on the qubit), drawn from numpy's
PCG64 generator seeded with the entropy pair (seed, sample_index). The
per-sample seeding is counter-based, so parallel and serial evaluation
orders agree bit for bit.

The oracle never imports extraction: :func:`cross_check_stack` checks the
effects its caller passes in. :func:`direct_probabilities` checks its
input with ``interferometer.photon_state``, the one photon-input check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import interferometer, linalg
from .errors import DimensionMismatch, InvalidScheme

# Latitude/longitude step of the coarse sweep that starts every search.
GRID_RESOLUTION = math.pi / 16.0
# Inputs per pass of a cross-check: bounds the temporaries of a large sample.
CROSS_CHECK_STACK = 128
# Step-halving patch levels that refine every search after the coarse sweep.
REFINE_LEVELS = 24


def haar_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-random unit qubit vectors drawn from ``rng``, shape (count, 2).

    Draws 4 standard normals per vector, pairs them as (re, im) and
    normalizes each row. The package's one random-state sampler: one vector
    is ``haar_vectors(rng, 1)[0]``, row n equals the n-th of ``count``
    successive batches of one bit for bit, and seeded draws replay.
    """
    z = rng.standard_normal((count, 4))
    v = z[:, 0::2] + 1j * z[:, 1::2]
    return v / linalg.vector_norms(v)[:, None]


def haar_state(seed: int, index: int) -> np.ndarray:
    """The ``index``-th reproducible Haar-random pure qubit state for ``seed``."""
    rng = np.random.default_rng([seed, index])
    while True:
        # A draw too short to normalize (probability zero) is drawn again.
        v = haar_vectors(rng, 1)[0]
        if np.isfinite(v).all():
            return linalg.state_vector(v)


@functools.lru_cache(maxsize=4)
def random_states(seed: int, count: int) -> np.ndarray:
    """The first ``count`` Haar states for ``seed`` as a write-protected (count, 2) array.

    Row i is ``haar_state(seed, i)``, so the counter-based contract holds
    row by row. Cached: every cross-check of a grid pass reuses one stack.
    """
    states = np.array([haar_state(seed, i) for i in range(count)])
    states.setflags(write=False)
    return states


def probabilities(schemes, states: np.ndarray, first: int = 0) -> np.ndarray:
    """p[n, s, l] = <Psi| M_l |Psi> with Psi = U_n (psi_s (x) p0_n) of a ``SchemeStack``, as (N, S, L).

    The caller guarantees (S, 2) complex unit rows ``states``; only the result is
    checked: each p must lie in [0, 1] and the p of each scheme and state sum to 1.
    A failure names the scheme, the state (counted from ``first``) and the output.
    """
    inputs = states[None, :, :, None] * schemes.probe_init[:, None, None, :]
    final = inputs.reshape(len(schemes), -1, 4) @ schemes.unitaries.swapaxes(-1, -2)
    probs = np.einsum("nsa,nlab,nsb->nsl", final.conj(), schemes.outputs, final).real
    if not (probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12):
        n, s, l = np.unravel_index(np.argmax(np.abs(probs - 0.5)), probs.shape)
        raise InvalidScheme(
            f"scheme {n}, state {first + s}: probability {float(probs[n, s, l])!r} "
            f"for output {schemes.labels[l]!r} is out of range"
        )
    totals = probs.sum(axis=2)
    deviation = np.abs(totals - 1.0)
    if not deviation.max() <= 1e-12:
        n, s = np.unravel_index(np.argmax(deviation), deviation.shape)
        raise InvalidScheme(
            f"scheme {n}, state {first + s}: probabilities sum to {float(totals[n, s])!r}, expected 1"
        )
    return probs


def direct_probabilities(scheme, psi) -> dict[str, float]:
    """Output probabilities <Psi_f| M |Psi_f> with Psi_f = U (psi (x) p0) of a one-member ``SchemeStack``.

    Computed with no reference to any extracted POVM; this is the
    independent route against which extraction is checked.
    """
    if len(scheme) != 1:
        raise InvalidScheme(f"expected a one-member scheme stack, got {len(scheme)} members")
    probs = probabilities(scheme, interferometer.photon_state(psi)[None])[0, 0]
    return {label: float(p) for label, p in zip(scheme.labels, probs)}


def cross_check_stack(schemes, effects: np.ndarray, seed: int, samples: int) -> np.ndarray:
    """Per scheme, the max deviation |direct - <psi|E|psi>| over random inputs and outcomes.

    ``effects`` are the (N, L, 2, 2) effects claimed for the N schemes of a
    ``SchemeStack``; any other shape raises ``DimensionMismatch``. The
    inputs are the first ``samples`` Haar states for ``seed`` (at least
    one), in passes of at most ``CROSS_CHECK_STACK``. This only reports;
    the caller compares the deviations with its own bound.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if np.shape(effects) != (len(schemes), len(schemes.labels), 2, 2):
        raise DimensionMismatch(
            f"effects must be ({len(schemes)}, {len(schemes.labels)}, 2, 2) for this stack, got {np.shape(effects)}"
        )
    states = random_states(seed, samples)
    worst = []
    for first in range(0, samples, CROSS_CHECK_STACK):
        chunk = states[first:first + CROSS_CHECK_STACK]
        direct = probabilities(schemes, chunk, first)
        predicted = np.einsum("si,nlij,sj->nsl", chunk.conj(), effects, chunk).real
        worst.append(np.abs(direct - predicted).max(axis=(1, 2)))
    return np.max(worst, axis=0)


@functools.lru_cache(maxsize=4)
def _coarse_lattice(step: float) -> np.ndarray:
    # The latitude/longitude points in sweep order, as one write-protected
    # (P, 3) array. theta and phi grow by repeated addition of step, and
    # that rounding fixes which points the sweep visits.
    points = []
    theta = 0.0
    while theta <= math.pi + 1e-12:
        phi = 0.0
        while phi < 2.0 * math.pi - 1e-12:
            points.append((math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)))
            # Poles are a single point; one longitude suffices there.
            if theta <= 1e-12 or theta >= math.pi - 1e-12:
                break
            phi += step
        theta += step
    lattice = np.array(points)
    lattice.setflags(write=False)
    return lattice


def _cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # u x v row by row, each component one difference of two products, so
    # a row's result does not depend on the rows beside it.
    out = np.empty_like(u)
    out[:, 0] = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    out[:, 1] = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    out[:, 2] = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return out


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # Each norm of a (..., 3) stack sums x^2, y^2 and z^2 in that order, as one vector's would.
    squares = v * v
    return v / np.sqrt(squares[..., 0] + squares[..., 1] + squares[..., 2])[..., None]


def _tangent_frames(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Two tangent directions at each row of r, crossed off an axis far from it.
    axis = np.where((np.abs(r[:, 2]) <= 0.9)[:, None], (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    t1 = _unit_rows(_cross_rows(r, axis))
    return t1, _cross_rows(r, t1)


# The (2 m + 1)^2 patch offsets of a refinement level, m = 2, as
# coefficients (a, b) of the two tangent directions in a-major order,
# shaped (P, 1, 1) so that one product scales an (N, 3) frame.
_PATCH_A, _PATCH_B = (
    np.array(c)[:, None, None]
    for c in zip(*((a, b) for a in (-2.0, -1.0, 0.0, 1.0, 2.0) for b in (-2.0, -1.0, 0.0, 1.0, 2.0)))
)


def _first_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per column of (P, N) values, the index and value of its first strict
    # maximum; NaN reads -inf, so it is never accepted.
    values = np.where(np.isnan(values), -np.inf, values)
    first = np.argmax(values, axis=0)
    return first, values[first, np.arange(values.shape[1])]


def grid_maximize_stack(objective, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``count`` functions of a unit Bloch vector over the sphere, in lockstep.

    Each search is a coarse latitude/longitude sweep at
    ``GRID_RESOLUTION``, then ``REFINE_LEVELS`` levels of patch search.
    Each level halves the step and evaluates the 5 x 5 patch of points
    best + step (a u + b v), a, b in -2..2, in a tangent frame (u, v) of
    the current best (renormalized), which has no pole pathology; the
    best moves to the patch's first strict maximum if that beats it. The
    last step is ``GRID_RESOLUTION`` / 2^``REFINE_LEVELS``, about 1.2e-8,
    so for the linear and equatorial objectives of ``verify`` the result
    lies within 1e-12 of the true maximum. A local search can still miss:
    an objective that is flat along meridians, like the equatorial one
    with a complex coherence, can drift to a pole and stall there.
    Returns the (count,) best values and the (count, 3) maximizers.

    Brute force throughout: ``objective(points, rows)`` gets a (..., 3)
    array of points and an int array ``rows``, broadcasting against
    ``points.shape[:-1]``, that names the search each point belongs to; it
    returns the real values in that broadcast shape. It is called
    1 + ``REFINE_LEVELS`` times, whatever ``count`` is. The coarse lattice
    is built once, cached write-protected, and passed as one (1, P, 3)
    array with ``rows`` of shape (count, 1); each level passes its
    (25, count, 3) patches with ``rows`` of shape (1, count). Every row
    keeps the first strict maximum of the points it evaluates; NaN is
    never accepted. A row's arithmetic is elementwise and its own, so it
    gives the same bits as a search of its own.
    """
    step = GRID_RESOLUTION
    lattice = _coarse_lattice(step)
    rows = np.arange(count)
    values = np.broadcast_to(np.asarray(objective(lattice[None], rows[:, None]), dtype=float), (count, len(lattice)))
    first, best_value = _first_maxima(values.T)
    best = lattice[first]
    for _ in range(REFINE_LEVELS):
        step *= 0.5
        u, v = _tangent_frames(best)
        patch = _unit_rows(best + step * (_PATCH_A * u + _PATCH_B * v))
        values = np.broadcast_to(np.asarray(objective(patch, rows[None]), dtype=float), patch.shape[:-1])
        first, value = _first_maxima(values)
        accept = value > best_value
        best = np.where(accept[:, None], patch[first, rows], best)
        best_value = np.where(accept, value, best_value)
    return best_value, best
