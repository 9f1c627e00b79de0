import math

import numpy as np
import pytest

from mzpovm import linalg, oracle


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def assert_same_bits(got, want):
    """Equal shape, dtype and bits; a NaN matches any NaN, every other value its exact bits (signed zeros too)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype.kind in "fc":
        got, want = (np.ascontiguousarray(a).view(float) for a in (got, want))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    else:
        assert np.array_equal(got, want)


def expectation(a, rho) -> float:
    """tr[A rho], the reference route to an expectation value."""
    return float(np.trace(a @ rho).real)


def variance(a, rho) -> float:
    """Var(A, rho) = <A^2> - <A>^2; for Pauli operators this is 1 - r_k^2."""
    mean = expectation(a, rho)
    return expectation(a @ a, rho) - mean * mean


def shannon_entropy(effects, rho) -> float:
    """-sum p log2 p (bits) over the outcomes p = tr[E rho] of a POVM, each p clipped to [0, 1]."""
    total = 0.0
    for e in effects:
        prob = min(1.0, max(0.0, expectation(e, rho)))
        if prob > 0.0:
            total -= prob * math.log2(prob)
    return total


def random_pure(rng) -> np.ndarray:
    return oracle.haar_vector(rng)


def random_pure4(rng) -> np.ndarray:
    z = rng.standard_normal(8)
    v = z[0::2] + 1j * z[1::2]
    return v / linalg.vector_norms(v)


def random_bloch_in_ball(rng) -> np.ndarray:
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    return direction * rng.random() ** (1.0 / 3.0)


def reference_marking_unitary(p0, p1, p2):
    """The path-marking coupling sum_k |k><k| (x) V_k, V_k = |p_k><p0| + |p_k_perp><p0_perp|, entry by entry."""
    out = np.zeros((4, 4), dtype=complex)
    for k, pk in enumerate((p1, p2)):
        block = np.outer(pk, p0.conj()) + np.outer(linalg.perp(pk), linalg.perp(p0).conj())
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    return out


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def stack_of(objectives):
    """A stacked objective whose row n calls ``objectives[n]`` on each of its points."""

    def stacked(points, rows):
        shape = np.broadcast_shapes(points.shape[:-1], np.shape(rows))
        rows = np.broadcast_to(rows, shape).ravel()
        points = np.broadcast_to(points, shape + (3,)).reshape(-1, 3)
        return np.array([float(objectives[n](r)) for n, r in zip(rows, points)]).reshape(shape)

    return stacked
