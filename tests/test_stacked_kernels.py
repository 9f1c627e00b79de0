"""Differential tests of the stacked linalg, povm and oracle kernels and of
the verify checks built on them.

The reference helpers below are copies of the per-sample scalar routes the
stacked kernels replaced: the closed-form 2x2 eigensolver on Python
complex numbers, the per-matrix ``numpy.linalg.eigh`` route, the Bloch
maps, the partial trace, the Schmidt decomposition and adapted variance,
and the per-sample loops of the rewritten verify checks. They are kept
here, and only here, so each kernel always has an independent route to
agree with.
"""

import dataclasses
import math

import numpy as np
import pytest

from mzpovm import interferometer, linalg, oracle, povm, relations, verify
from mzpovm.errors import BlochOutOfBall, NotHermitian, NotNormalized

from conftest import random_hermitian

TOL = 1e-15
SEEDS = (42, 7)


# ----------------------------------------------------------------------
# Copies of the scalar routes.
# ----------------------------------------------------------------------


def _reference_eigh2(a):
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
        n1_sq = abs(b) ** 2 + (hi - a00) ** 2
        n2_sq = (hi - a11) ** 2 + abs(b) ** 2
        x, y = (b, hi - a00 + 0.0j) if n1_sq >= n2_sq else (hi - a11 + 0.0j, b.conjugate())
        norm = math.sqrt(max(n1_sq, n2_sq))
        if norm < 1e-12:
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
        if mag >= 1e-12:
            phase = pivot.conjugate() / mag
            x, y = x * phase, y * phase
        out.append((ev, np.array([x, y])))
    return out


def _reference_eig(a):
    """(values, vectors as rows) of one Hermitian matrix by the scalar route."""
    h = 0.5 * (a + a.conj().T)
    if len(h) == 2:
        pairs = _reference_eigh2(h)
    else:
        evs, vecs = np.linalg.eigh(h)
        pairs = []
        for k in range(len(h) - 1, -1, -1):
            v = vecs[:, k].copy()
            j = int(np.argmax(np.abs(v)))
            pairs.append((float(evs[k]), v * (np.conj(v[j]) / abs(v[j]))))
    return np.array([ev for ev, _ in pairs]), np.array([v for _, v in pairs])


def _reference_density_from_bloch(r):
    x, y, z = (float(c) for c in r)
    return np.array([[0.5 * (1.0 + z), complex(0.5 * x, -0.5 * y)],
                     [complex(0.5 * x, 0.5 * y), 0.5 * (1.0 - z)]])


def _reference_bloch_from_density(rho):
    return np.array([float(np.trace(rho @ s).real) for s in linalg.pauli_triple()])


def _reference_partial_trace(v):
    c = np.asarray(v, dtype=complex).reshape(2, 2)
    return c @ c.conj().T


def _reference_schmidt(v):
    c = np.asarray(v, dtype=complex).reshape(2, 2)
    values, vectors = _reference_eig(c @ c.conj().T)
    u1, u2 = vectors
    w = min(1.0, max(0.0, float(values[0])))
    phi1 = c.T @ u1.conj() / math.sqrt(w)
    phi1 = phi1 / np.linalg.norm(phi1)
    if 1.0 - w < 1e-12:
        w = 1.0
        phi2 = linalg.perp(phi1)
    else:
        phi2 = c.T @ u2.conj() / math.sqrt(1.0 - w)
        phi2 = phi2 / np.linalg.norm(phi2)
    return w, np.array([u1, u2]), np.array([phi1, phi2])


def _reference_adapted_variance(v):
    _, (p1, p2), (q1, q2) = _reference_schmidt(v)
    s = np.kron(np.outer(p1, p1.conj()), np.outer(q1, q1.conj())) - np.kron(
        np.outer(p2, p2.conj()), np.outer(q2, q2.conj())
    )
    mean = float(np.vdot(v, s @ v).real)
    second = float(np.vdot(v, s @ (s @ v)).real)
    return second - mean * mean


def _reference_haar_vector(rng, dim=2):
    z = rng.standard_normal(2 * dim)
    v = z[0::2] + 1j * z[1::2]
    return v / np.linalg.norm(v)


def _product(rng):
    return np.kron(_reference_haar_vector(rng), _reference_haar_vector(rng))


def _entangled(rng, w):
    psi, phi = _reference_haar_vector(rng), _reference_haar_vector(rng)
    return math.sqrt(w) * np.kron(psi, phi) + math.sqrt(1.0 - w) * np.kron(linalg.perp(psi), linalg.perp(phi))


def _assert_close(got, want, tol=TOL):
    assert np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0) <= tol


# ----------------------------------------------------------------------
# Eigensolver.
# ----------------------------------------------------------------------


def _eig_inputs(rng, n):
    mats = [random_hermitian(rng, n) for _ in range(200)]
    mats += [np.diag(rng.standard_normal(n)).astype(complex) for _ in range(20)]
    mats += [
        0.3 * np.eye(n, dtype=complex),
        np.diag([1.0] * (n - 1) + [2.0]).astype(complex),
        np.diag([2.0] + [1.0] * (n - 1)).astype(complex),
        np.zeros((n, n), dtype=complex),
    ]
    return np.array(mats)


class TestEigHermitianStack:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_scalar_route(self, rng, n):
        stack = _eig_inputs(rng, n)
        values, vectors = linalg.eig_hermitian_stack(stack)
        assert values.shape == (len(stack), n) and vectors.shape == (len(stack), n, n)
        for h, got_values, got_vectors in zip(stack, values, vectors):
            want_values, want_vectors = _reference_eig(h)
            _assert_close(got_values, want_values)
            _assert_close(got_vectors, want_vectors)

    def test_four_by_four_is_bit_identical_to_per_matrix_eigh(self, rng):
        stack = _eig_inputs(rng, 4)
        values, vectors = linalg.eig_hermitian_stack(stack)
        for h, got_values, got_vectors in zip(stack, values, vectors):
            want_values, want_vectors = _reference_eig(h)
            assert got_values.tobytes() == want_values.tobytes()
            assert got_vectors.tobytes() == want_vectors.tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_order_phase_and_reconstruction(self, rng, n):
        stack = _eig_inputs(rng, n)
        values, vectors = linalg.eig_hermitian_stack(stack)
        assert np.all(np.diff(values, axis=-1) <= 0.0)
        pivots = np.take_along_axis(vectors, np.abs(vectors).argmax(axis=-1)[..., None], axis=-1)
        assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real > 0.0)
        gram = vectors.conj() @ vectors.swapaxes(-1, -2)
        _assert_close(gram, np.broadcast_to(np.eye(n), gram.shape), 1e-12)
        rec = np.einsum("nk,nki,nkj->nij", values, vectors, vectors.conj())
        _assert_close(rec, stack, 1e-11)
        assert not values.flags.writeable and not vectors.flags.writeable

    def test_two_by_two_values_equal_the_eigvals_kernel(self, rng):
        stack = _eig_inputs(rng, 2)
        np.testing.assert_array_equal(linalg.eig_hermitian_stack(stack)[0], linalg.eigvals_hermitian(stack))

    def test_subnormal_entries_stay_finite(self):
        h = np.array([[3e-320, 1e-320], [1e-320, -2e-320]], dtype=complex)
        values, vectors = linalg.eig_hermitian_stack(h)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))
        _assert_close(values, linalg.eigvals_hermitian(h), 1e-322)

    def test_degenerate_and_zero_take_the_standard_basis(self):
        stack = np.array([0.3 * np.eye(2), np.zeros((2, 2))], dtype=complex)
        values, vectors = linalg.eig_hermitian_stack(stack)
        np.testing.assert_array_equal(values, [[0.3, 0.3], [0.0, 0.0]])
        np.testing.assert_array_equal(vectors, np.broadcast_to(np.eye(2), (2, 2, 2)))

    def test_diagonal_orders_by_value(self):
        values, vectors = linalg.eig_hermitian_stack(np.diag([1.0, 2.0]).astype(complex)[None])
        np.testing.assert_array_equal(values, [[2.0, 1.0]])
        np.testing.assert_array_equal(np.abs(vectors[0]), [[0.0, 1.0], [1.0, 0.0]])

    def test_any_leading_shape(self, rng):
        stack = np.array([random_hermitian(rng, 2) for _ in range(12)]).reshape(3, 4, 2, 2)
        values, vectors = linalg.eig_hermitian_stack(stack)
        flat_values, flat_vectors = linalg.eig_hermitian_stack(stack.reshape(12, 2, 2))
        assert values.shape == (3, 4, 2) and vectors.shape == (3, 4, 2, 2)
        np.testing.assert_array_equal(values.reshape(12, 2), flat_values)
        np.testing.assert_array_equal(vectors.reshape(12, 2, 2), flat_vectors)

    @pytest.mark.parametrize("n", [2, 4])
    def test_scalar_is_a_batch_of_one(self, rng, n):
        # One (n, n) matrix decomposes exactly as the one-member stack holding it.
        h = random_hermitian(rng, n)
        values, vectors = linalg.eig_hermitian_stack(h[None])
        alone_values, alone_vectors = linalg.eig_hermitian_stack(h)
        np.testing.assert_array_equal(alone_values, values[0])
        np.testing.assert_array_equal(alone_vectors, vectors[0])

    def test_non_square_rejected(self):
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian_stack(np.zeros((3, 2, 3)))


# ----------------------------------------------------------------------
# Bloch maps and partial trace.
# ----------------------------------------------------------------------


class TestBlochStacks:
    def test_density_matches_scalar_route_bit_for_bit(self, rng):
        rs = verify._random_bloch_ball(rng, 500)
        got = linalg.density_from_bloch_stack(rs)
        want = np.array([_reference_density_from_bloch(r) for r in rs])
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_bloch_matches_scalar_route_bit_for_bit(self, rng):
        rhos = np.array([0.5 * (g + g.conj().T) for g in rng.standard_normal((300, 2, 2, 2)) @ [1.0, 1j]])
        got = linalg.bloch_from_density_stack(rhos)
        want = np.array([_reference_bloch_from_density(rho) for rho in rhos])
        assert got.tobytes() == want.tobytes()

    def test_bloch_keeps_leading_shape(self, rng):
        rs = verify._random_bloch_ball(rng, 6)
        rhos = linalg.density_from_bloch_stack(rs).reshape(2, 3, 2, 2)
        assert linalg.bloch_from_density_stack(rhos).shape == (2, 3, 3)
        _assert_close(linalg.bloch_from_density_stack(rhos).reshape(6, 3), rs, 1e-15)

    @pytest.mark.parametrize(
        "bad, pattern",
        [([0.0, 0.0, 1.5], r"Bloch vector 2: \|r\|"), ([np.nan, 0.0, 0.0], "Bloch vector 2 must be 3 finite"),
         ([np.inf, 0.0, 0.0], "Bloch vector 2 must be 3 finite")],
    )
    def test_bad_member_is_named(self, bad, pattern):
        rs = np.array([[0.0, 0.0, 0.5], [0.1, 0.2, 0.3], bad, [0.0, 0.0, 2.0]])
        with pytest.raises(BlochOutOfBall, match=pattern):
            linalg.density_from_bloch_stack(rs)

    def test_shape_rejected(self):
        with pytest.raises(BlochOutOfBall):
            linalg.density_from_bloch_stack(np.zeros((4, 2)))
        with pytest.raises(BlochOutOfBall):
            linalg.density_from_bloch([0.0, 0.0])

    def test_scalars_are_batches_of_one(self, rng):
        r = verify._random_bloch_ball(rng, 1)[0]
        np.testing.assert_array_equal(linalg.density_from_bloch(r), linalg.density_from_bloch_stack(r[None])[0])
        rho = linalg.density_from_bloch(r)
        np.testing.assert_array_equal(linalg.bloch_from_density_stack(rho), linalg.bloch_from_density_stack(rho[None])[0])


class TestKronRows:
    def test_matches_numpy_kron_row_by_row(self, rng):
        a = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        b = rng.standard_normal((5, 3, 3))
        got = linalg.kron_rows(a, b)
        assert got.shape == (5, 3, 6)
        want = np.array([[np.kron(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        assert got.tobytes() == want.tobytes()


class TestPartialTraceStack:
    def test_matches_scalar_route_bit_for_bit(self, rng):
        vecs = np.array([_product(rng) for _ in range(100)] + [_reference_haar_vector(rng, 4) for _ in range(100)])
        got = linalg.partial_trace_probe_stack(vecs)
        want = np.array([_reference_partial_trace(v) for v in vecs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.array([1.0, 0.0, 0.0, 1.0]), np.array([np.nan, 0.0, 0.0, 1.0])])
    def test_bad_member_is_named(self, rng, bad):
        vecs = np.array([_product(rng), _product(rng), bad, _product(rng)])
        with pytest.raises(NotNormalized, match="compound vector 2 has norm"):
            linalg.partial_trace_probe_stack(vecs)

    def test_shape_rejected(self):
        with pytest.raises(NotNormalized):
            linalg.partial_trace_probe_stack(np.zeros((3, 2)))


# ----------------------------------------------------------------------
# Schmidt decomposition and the adapted observable.
# ----------------------------------------------------------------------


def _schmidt_inputs(rng):
    vecs = [_product(rng) for _ in range(50)]
    vecs += [_entangled(rng, w) for w in rng.uniform(0.55, 0.95, 50)]
    vecs.append(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    return np.array(vecs)


class TestSchmidtStack:
    def test_matches_scalar_route(self, rng):
        vecs = _schmidt_inputs(rng)
        weights, photon, probe = linalg.schmidt_stack(vecs)
        variance = linalg.adapted_observable_variance_stack(vecs)
        for k, v in enumerate(vecs):
            w, want_photon, want_probe = _reference_schmidt(v)
            assert abs(weights[k] - w) <= TOL
            _assert_close(photon[k], want_photon)
            _assert_close(probe[k], want_probe)
            assert abs(variance[k] - _reference_adapted_variance(v)) <= TOL

    def test_products_snap_to_weight_one(self, rng):
        vecs = np.array([_product(rng) for _ in range(20)])
        weights, _, probe = linalg.schmidt_stack(vecs)
        np.testing.assert_array_equal(weights, 1.0)
        np.testing.assert_array_equal(probe[:, 1], linalg.perp(probe[:, 0]))

    def test_snap_band(self):
        # A second weight below 1e-12 is zero; one above it is kept.
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        vecs = np.array([
            math.sqrt(1.0 - w2) * np.kron(e1, e1) + math.sqrt(w2) * np.kron(e2, e2) for w2 in (1e-13, 1e-11)
        ])
        weights, _, probe = linalg.schmidt_stack(vecs)
        assert weights[0] == 1.0 and abs(weights[1] - (1.0 - 1e-11)) <= 1e-15
        for k, v in enumerate(vecs):
            w, _, want_probe = _reference_schmidt(v)
            assert weights[k] == w
            _assert_close(probe[k], want_probe)

    def test_terms_reconstruct_and_truncate(self, rng):
        vecs = _schmidt_inputs(rng)
        terms = linalg.schmidt_terms(*linalg.schmidt_stack(vecs))
        _assert_close(terms.sum(axis=1), vecs, 1e-14)
        product = np.linalg.norm(vecs - terms[:, 0], axis=1) <= 1e-8
        np.testing.assert_array_equal(product, np.arange(len(vecs)) < 50)

    def test_scalar_is_a_batch_of_one(self, rng):
        # A one-member stack decomposes its vector exactly as row 1 of a larger stack.
        vecs = np.array([_product(rng), _entangled(rng, 0.7), _entangled(rng, 0.6)])
        weights, photon, probe = linalg.schmidt_stack(vecs)
        alone = linalg.schmidt_stack(vecs[1:2])
        for got, want in zip(alone, (weights, photon, probe)):
            np.testing.assert_array_equal(got[0], want[1])
        np.testing.assert_array_equal(
            linalg.schmidt_terms(*alone)[0], linalg.schmidt_terms(weights, photon, probe)[1]
        )
        assert linalg.adapted_observable_variance_stack(vecs[1:2])[0] == linalg.adapted_observable_variance_stack(vecs)[1]

    def test_adapted_observable_has_plus_minus_one_on_schmidt_products(self, rng):
        v = _entangled(rng, 0.8)
        s = linalg.adapted_observable_stack(v[None])[0]
        terms = linalg.schmidt_terms(*linalg.schmidt_stack(v[None]))[0]
        plus, minus = terms[0] / math.sqrt(0.8), terms[1] / math.sqrt(0.2)
        _assert_close(s @ plus, plus, 1e-12)
        _assert_close(s @ minus, -minus, 1e-12)

    def test_bad_member_is_named(self, rng):
        vecs = np.array([_product(rng), np.array([1.0, 0.0, 0.0, 1.0])])
        with pytest.raises(NotNormalized, match="compound vector 1 has norm"):
            linalg.schmidt_stack(vecs)
        with pytest.raises(NotNormalized, match="compound vector 1 has norm"):
            linalg.adapted_observable_variance_stack(vecs)


# ----------------------------------------------------------------------
# Haar sampler and joint measurability.
# ----------------------------------------------------------------------


class TestHaarVectors:
    def test_rows_replay_successive_draws(self):
        got = oracle.haar_vectors(np.random.default_rng(11), 300)
        rng = np.random.default_rng(11)
        want = np.array([_reference_haar_vector(rng) for _ in range(300)])
        assert got.tobytes() == want.tobytes()

    def test_scalar_is_a_batch_of_one(self):
        a = oracle.haar_vector(np.random.default_rng(3))
        b = oracle.haar_vectors(np.random.default_rng(3), 1)[0]
        assert a.tobytes() == b.tobytes()


def _xz(f, g):
    # The Bloch vectors f x and g z of sigma_x / sigma_z pairs, as verify passes them.
    f, g = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (f, g))
    return f[:, None] * (1.0, 0.0, 0.0), g[:, None] * (0.0, 0.0, 1.0)


def _xz_of(call):
    # The (N, 2) pairs (f, g) of one joint_pair_effects call on f x and g z.
    a, b = call
    assert not a[:, 1:].any() and not b[:, :2].any()
    return np.stack([a[:, 0], b[:, 2]], axis=1)


class TestJointPairMask:
    def test_mask_is_the_disk_criterion_on_xz_pairs(self, rng):
        # Busch's sum 2 sqrt(f^2 + g^2) <= 2 + 1e-10 reads as f^2 + g^2 <= 1 + 1e-10,
        # on random pairs and on pairs within 3e-10 of the unit circle.
        f, g = rng.uniform(-1.0, 1.0, (2, 500))
        angle, excess = rng.uniform(0.0, 2.0 * math.pi, 500), rng.uniform(-3e-10, 3e-10, 500)
        f = np.concatenate([f, (1.0 + excess) * np.cos(angle)])
        g = np.concatenate([g, (1.0 + excess) * np.sin(angle)])
        _, admitted = povm.joint_pair_effects(*_xz(f, g))
        np.testing.assert_array_equal(admitted, f * f + g * g <= 1.0 + 1e-10)


# ----------------------------------------------------------------------
# Draw replay: each rewritten check sees the inputs of its old loop.
# ----------------------------------------------------------------------


def _spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _old_unsharp_loop(rng, n):
    # The old per-sample loop of the joint-marginality and unsharpness
    # checks, one pair at a time: the pairs, and the worst marginal and
    # trade-off deviations.
    sx, _, sz = linalg.pauli_triple()
    pairs, marginal_worst, trade_worst = [], 0.0, 0.0
    for _ in range(n):
        angle = rng.random() * 2.0 * math.pi
        scale = math.sqrt(rng.random())
        f, g = scale * math.cos(angle), scale * math.sin(angle)
        pairs.append((f, g))
        first, second, _ = povm.joint_marginals(povm.joint_pair_effects(*_xz(f, g))[0])[0]
        for sign, k in ((1.0, 0), (-1.0, 1)):
            marginal_worst = max(
                marginal_worst,
                float(np.max(np.abs(first[k] - 0.5 * (np.eye(2) + sign * f * sx)))),
                float(np.max(np.abs(second[k] - 0.5 * (np.eye(2) + sign * g * sz)))),
            )
        u_f, u_g = (povm.unsharpness_stack(m[None])[0] for m in (first, second))
        trade_worst = max(trade_worst, 1.0 - (u_f + u_g))
    return np.array(pairs), marginal_worst, max(0.0, trade_worst)


@pytest.mark.parametrize("seed", SEEDS)
class TestDrawReplay:
    def test_bloch_round_trip(self, monkeypatch, seed):
        calls = _spy(monkeypatch, linalg, "density_from_bloch_stack")
        result = verify.check_bloch_round_trip(seed)
        rng = np.random.default_rng([seed, 101])
        rs = verify._random_bloch_ball(rng, 1000)
        assert calls[0][0].tobytes() == rs.tobytes()
        worst = max(float(np.max(np.abs(_reference_bloch_from_density(_reference_density_from_bloch(r)) - r))) for r in rs)
        assert result.deviation == worst and result.passed

    def test_partial_trace_product(self, monkeypatch, seed):
        calls = _spy(monkeypatch, linalg, "partial_trace_probe_stack")
        result = verify.check_partial_trace_product(seed)
        rng = np.random.default_rng([seed, 102])
        worst, vecs = 0.0, []
        for _ in range(100):
            psi, phi = _reference_haar_vector(rng), _reference_haar_vector(rng)
            vecs.append(np.kron(psi, phi))
            worst = max(worst, float(np.max(np.abs(_reference_partial_trace(vecs[-1]) - np.outer(psi, psi.conj())))))
        assert calls[0][0].tobytes() == np.array(vecs).tobytes()
        assert result.deviation == worst and result.passed

    def test_eig_reconstruction(self, monkeypatch, seed):
        calls = _spy(monkeypatch, linalg, "eig_hermitian_stack")
        result = verify.check_eig_reconstruction(seed)
        rng = np.random.default_rng([seed, 103])
        stacks, worst = {2: [], 4: []}, 0.0
        for k in range(1000):
            n = 2 if k % 2 == 0 else 4
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (g + g.conj().T)
            stacks[n].append(h)
            rec = np.zeros((n, n), dtype=complex)
            values, vectors = _reference_eig(h)
            for ev, vec in zip(values, vectors):
                rec += ev * np.outer(vec, vec.conj())
            worst = max(worst, float(np.max(np.abs(rec - h))))
        assert [c[0].tobytes() for c in calls] == [np.array(stacks[2]).tobytes(), np.array(stacks[4]).tobytes()]
        assert abs(result.deviation - worst) <= TOL and result.passed

    def test_schmidt_separability(self, monkeypatch, seed):
        calls = _spy(monkeypatch, linalg, "schmidt_stack")
        result = verify.check_schmidt_separability(seed)
        rng = np.random.default_rng([seed, 104])
        vecs, worst = [], 0.0
        for k in range(60):
            if k % 2 == 0:
                vecs.append(_product(rng))
                expected = 0.0
            else:
                w = float(rng.uniform(0.55, 0.95))
                vecs.append(_entangled(rng, w))
                expected = 4.0 * w * (1.0 - w)
            w, (p1, p2), (q1, q2) = _reference_schmidt(vecs[-1])
            rec = math.sqrt(w) * np.kron(p1, q1) + math.sqrt(max(1.0 - w, 0.0)) * np.kron(p2, q2)
            worst = max(worst, float(np.max(np.abs(rec - vecs[-1]))), abs(_reference_adapted_variance(vecs[-1]) - expected))
        assert calls[0][0].tobytes() == np.array(vecs).tobytes()
        assert abs(result.deviation - worst) <= TOL and result.passed

    def test_joint_marginality(self, monkeypatch, seed):
        calls = _spy(monkeypatch, povm, "joint_pair_effects")
        result = verify.check_joint_marginality(seed)
        pairs, worst, _ = _old_unsharp_loop(np.random.default_rng([seed, 106]), 200)
        np.testing.assert_array_equal(_xz_of(calls[0]), pairs)
        assert result.deviation == worst and result.passed

    def test_unsharpness_trade_off(self, monkeypatch, seed):
        calls = _spy(monkeypatch, povm, "joint_pair_effects")
        result = verify.check_unsharpness_trade_off(seed)
        pairs, _, worst = _old_unsharp_loop(np.random.default_rng([seed, 108]), 500)
        np.testing.assert_array_equal(_xz_of(calls[0]), pairs)
        assert result.deviation == worst and result.passed

    def test_state_relations(self, monkeypatch, seed):
        calls = _spy(monkeypatch, linalg, "density_from_bloch_stack")
        assert verify.check_state_relations(seed, 100).passed
        rng = np.random.default_rng([seed, 114])
        blochs = verify._random_bloch_ball(rng, 1000)
        pure = rng.standard_normal((1000, 3))
        pure /= np.linalg.norm(pure, axis=1, keepdims=True)
        rs = np.concatenate([blochs, pure])
        assert calls[0][0].tobytes() == rs.tobytes()
        want = np.array([_reference_density_from_bloch(r) for r in rs])
        assert linalg.density_from_bloch_stack(rs).tobytes() == want.tobytes()

    def test_marking_unitary(self, monkeypatch, seed):
        calls = _spy(monkeypatch, interferometer, "total_unitary_stack")
        assert verify.check_marking_unitary(seed).passed
        rng = np.random.default_rng([seed, 111])
        probes = np.array([[_reference_haar_vector(rng) for _ in range(3)] for _ in range(200)])
        (args,) = calls
        assert args[0].tobytes() == probes.tobytes()
        assert np.asarray(args[1]).tobytes() == np.zeros(200).tobytes()

    def test_erasure_duality(self, monkeypatch, seed):
        calls = _spy(monkeypatch, relations, "erasure_duality_stack")
        assert verify.check_erasure_duality(seed).passed
        # The old loop: per-sample square roots, phases and marker states.
        rng = np.random.default_rng([seed, 115])
        alphas, betas, p1s, p2s = [], [], [], []
        for _ in range(1000):
            theta = float(rng.uniform(0.0, math.pi / 2.0))
            weight = rng.random()
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            alphas.append(math.sqrt(weight))
            betas.append(math.sqrt(1.0 - weight) * np.exp(1j * phase))
            p1, p2 = interferometer.marker_states(theta)
            p1s.append(p1)
            p2s.append(p2)
        (args,) = calls
        # The kernel reads amplitudes and markers as complex arrays.
        for got, want in zip(args, (alphas, betas, p1s, p2s)):
            assert np.asarray(got, dtype=complex).tobytes() == np.asarray(want, dtype=complex).tobytes()

    def test_contrast_oracle(self, monkeypatch, seed):
        calls = _spy(monkeypatch, povm, "contrast_stack")
        diffs = _spy(monkeypatch, verify, "_contrast_objective")
        assert verify.check_contrast_oracle(seed).passed
        # The old loop: one two-outcome POVM and its diff per sample.
        rng = np.random.default_rng([seed, 107])
        effects = []
        for _ in range(50):
            u_dir = verify._random_unit(rng)
            u_len = rng.random()
            b = (1.0 - u_len) * (2.0 * rng.random() - 1.0)
            e1 = 0.5 * ((1.0 + b) * np.eye(2) + u_len * sum(u_dir[i] * s for i, s in enumerate(linalg.pauli_triple())))
            effects.append(np.array([e1, np.eye(2) - e1], dtype=complex))
        effects = np.array(effects)
        assert calls[0][0].tobytes() == effects.tobytes()
        assert diffs[0][0].tobytes() == np.array([e[0] - e[1] for e in effects]).tobytes()

    def test_grid_maximize_agreement(self, monkeypatch, seed):
        calls = _spy(monkeypatch, relations, "erasure_duality_stack")
        evidence = _spy(monkeypatch, verify, "_correct_prob_objective")
        reduced = _spy(monkeypatch, verify, "_equatorial_objective")
        assert verify.check_grid_maximize_agreement(seed).passed
        # The old loop: per-sample draws, square roots, markers, evidence and reduced state.
        rng = np.random.default_rng([seed, 116])
        alphas, betas, p1s, p2s, evidences, rhos = [], [], [], [], [], []
        for _ in range(50):
            theta = float(rng.uniform(0.0, math.pi / 2.0))
            weight = rng.random()
            alpha, beta = math.sqrt(weight), math.sqrt(1.0 - weight)
            p1, p2 = interferometer.marker_states(theta)
            b1, b2 = (linalg.bloch_from_density_stack(np.outer(p, p.conj())) for p in (p1, p2))
            evidences.append(alpha**2 * b1 - beta**2 * b2)
            rhos.append(linalg.partial_trace_probe_stack(np.concatenate([alpha * p1, beta * p2])[None])[0])
            alphas.append(alpha)
            betas.append(beta)
            p1s.append(p1)
            p2s.append(p2)
        (args,) = calls
        for got, want in zip(args, (alphas, betas, p1s, p2s)):
            assert np.asarray(got, dtype=complex).tobytes() == np.asarray(want, dtype=complex).tobytes()
        assert evidence[0][0].tobytes() == np.array(evidences).tobytes()
        assert reduced[0][0].tobytes() == np.array(rhos).tobytes()

    def test_smear_validity(self, monkeypatch, seed):
        calls = _spy(monkeypatch, povm, "smear_stack")
        assert verify.check_smear_validity(seed).passed
        rng = np.random.default_rng([seed, 105])
        axes, weights = [], []
        for _ in range(1000):
            v = rng.standard_normal(3)
            axes.append(v / np.linalg.norm(v))
            rows = int(rng.integers(2, 5))
            w = rng.random((rows, 2)) + 1e-3
            w /= w.sum(axis=0, keepdims=True)
            weights.append(w)
        sx, sy, sz = linalg.pauli_triple()
        for (pvms, got), rows in zip(calls, (2, 3, 4)):
            members = [n for n, w in enumerate(weights) if len(w) == rows]
            assert got.tobytes() == np.array([weights[n] for n in members]).tobytes()
            ops = [axes[n][0] * sx + axes[n][1] * sy + axes[n][2] * sz for n in members]
            want = np.array([[0.5 * (np.eye(2) + op), 0.5 * (np.eye(2) - op)] for op in ops])
            assert pvms.tobytes() == want.tobytes()


def test_joint_iff_grid_covers_the_grid(monkeypatch):
    calls = _spy(monkeypatch, povm, "joint_pair_effects")
    assert verify.check_joint_iff_grid().passed
    values = np.linspace(-1.0, 1.0, 101)
    pairs = sorted(map(tuple, np.concatenate([_xz_of(call) for call in calls]).tolist()))
    assert pairs == sorted((a, b) for a in values.tolist() for b in values.tolist())


@pytest.mark.parametrize("bad, pattern", [((np.nan, 0.0, 0.0), "Bloch vector 5 must"), ((0.0, 1.5, 0.0), "Bloch vector 5:")])
def test_state_relations_names_a_bad_member(monkeypatch, bad, pattern):
    original = verify._random_bloch_ball

    def corrupted(rng, n):
        r = original(rng, n)
        r[5] = bad
        return r

    monkeypatch.setattr(verify, "_random_bloch_ball", corrupted)
    with pytest.raises(BlochOutOfBall, match=pattern):
        verify.check_state_relations(42, 100)


@pytest.mark.parametrize("check", [verify.check_joint_marginality, verify.check_unsharpness_trade_off])
def test_unsharp_checks_fail_on_an_invalid_joint_povm(monkeypatch, check):
    # The drawn joint POVMs are validated as a stack; one invalid member fails the row.
    classify = povm.classify_effects

    def one_invalid(effects):
        verdicts = classify(effects)
        valid = verdicts.valid.copy()
        valid[3] = False
        return dataclasses.replace(verdicts, valid=valid)

    monkeypatch.setattr(povm, "classify_effects", one_invalid)
    assert not check(42).passed
