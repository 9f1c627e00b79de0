"""Differential tests of the stacked extraction core against per-config routes.

The reference helpers below are the per-entry routes the stacked core
replaced: Kronecker-product unitaries and projections, and one
<w_i| M w_j> inner product per effect entry. They are kept here, and only
here, so the stacked arrays always have an independent route to agree with.
"""

import math
import warnings

import numpy as np
import pytest

from mzpovm import cli, complementarity, extraction, interferometer, linalg, oracle, povm, relations, verify
from mzpovm.errors import InvalidBasis, InvalidScheme, NotHermitian, NotNormalized, UnsupportedExperiment

from conftest import random_pure

TOL = 1e-15
E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def _reference_marking_unitary(p0, p1, p2):
    out = np.zeros((4, 4), dtype=complex)
    for k, pk in enumerate((p1, p2)):
        block = np.outer(pk, p0.conj()) + np.outer(linalg.perp(pk), linalg.perp(p0).conj())
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = block
    return out


def _reference_total_unitary(p0, p1, p2, delta):
    mz = interferometer.mz_evolution_stack([delta])[0]
    return np.kron(mz, np.eye(2, dtype=complex)) @ _reference_marking_unitary(p0, p1, p2)


def _reference_outputs(pointers):
    if pointers is None:
        return [np.kron(np.outer(e, e), np.eye(2)) for e in (E1, E2)]
    r1, r2 = pointers
    return [np.kron(np.outer(e, e), np.outer(r, r.conj())) for r in (r1, r2) for e in (E1, E2)]


def _reference_effects(unitary, p0, outputs):
    basis_in = [unitary @ np.kron(e, p0) for e in (E1, E2)]
    effects = []
    for m in outputs:
        e = np.empty((2, 2), dtype=complex)
        for i, wi in enumerate(basis_in):
            for j, wj in enumerate(basis_in):
                e[i, j] = np.vdot(wi, m @ wj)
        effects.append(e)
    return np.array(effects)


def _reference_pointers(config):
    pointers = interferometer.pointer_stack([config])
    return None if pointers is None else pointers[0]


def _reference_config_effects(config, probes):
    unitary = _reference_total_unitary(*probes, interferometer.effective_delta(config))
    return _reference_effects(unitary, probes[0], _reference_outputs(_reference_pointers(config)))


def _groups():
    return verify._readout_groups(verify.distinct_grid_configs())


class TestStackedExtraction:
    def test_grid_configs_match_the_per_entry_route(self):
        checked = 0
        for configs in _groups():
            effects = extraction.extract_effects(extraction.schemes_for(configs))
            for config, probes, got in zip(configs, interferometer.probe_stack(configs), effects):
                np.testing.assert_allclose(got, _reference_config_effects(config, probes), rtol=0, atol=TOL)
                checked += 1
        assert checked == 138

    def test_random_triples_and_pointers_match_the_per_entry_route(self, rng):
        triples, deltas, pointers = [], [], []
        for _ in range(200):
            triples.append([random_pure(rng) for _ in range(3)])
            deltas.append(float(rng.uniform(-math.pi, math.pi)))
            r1 = random_pure(rng)
            pointers.append([r1, linalg.perp(r1)])
        schemes = extraction.build_schemes(triples, deltas, pointers)
        effects = extraction.extract_effects(schemes)
        for n in range(200):
            p0, p1, p2 = triples[n]
            unitary = _reference_total_unitary(p0, p1, p2, deltas[n])
            np.testing.assert_allclose(schemes.unitaries[n], unitary, rtol=0, atol=TOL)
            want = _reference_effects(unitary, p0, _reference_outputs(pointers[n]))
            np.testing.assert_allclose(effects[n], want, rtol=0, atol=TOL)

    def test_scalar_entry_points_are_batches_of_one(self):
        for configs in _groups():
            schemes = extraction.schemes_for(configs)
            effects = extraction.extract_effects(schemes)
            for n in (0, len(configs) - 1):
                scheme = extraction.schemes_for([configs[n]])
                assert scheme.unitaries[0].tobytes() == schemes.unitaries[n].tobytes()
                assert scheme.labels == schemes.labels
                assert extraction.extract_effects(scheme)[0].tobytes() == effects[n].tobytes()

    def test_stacks_reject_mixed_readouts(self):
        configs = [interferometer.MzConfig("path"), interferometer.MzConfig("marking")]
        with pytest.raises(UnsupportedExperiment):
            extraction.schemes_for(configs)


class TestStackedOracle:
    def test_probabilities_match_a_per_config_per_state_loop(self):
        states = oracle.random_states(11, 20)
        for configs in _groups():
            schemes = extraction.schemes_for(configs)
            probs = oracle._probabilities(schemes, states)
            assert probs.shape == (len(configs), 20, len(schemes.labels))
            for n, (config, probes) in enumerate(zip(configs, interferometer.probe_stack(configs))):
                unitary = _reference_total_unitary(*probes, interferometer.effective_delta(config))
                outputs = _reference_outputs(_reference_pointers(config))
                for s, psi in enumerate(states):
                    final = unitary @ np.kron(psi, probes[0])
                    want = [np.vdot(final, m @ final).real for m in outputs]
                    np.testing.assert_allclose(probs[n, s], want, rtol=0, atol=TOL)

    def test_cross_check_stack_matches_the_scalar_cross_check(self):
        for configs in _groups():
            stacked = oracle.cross_check_stack(extraction.schemes_for(configs), 5, 30)
            for n in (0, len(configs) // 2, len(configs) - 1):
                alone = oracle.cross_check_stack(extraction.schemes_for([configs[n]]), 5, 30)[0]
                assert abs(stacked[n] - alone) <= TOL

    def test_out_of_range_names_scheme_and_state(self):
        schemes = extraction.schemes_for([interferometer.MzConfig("path")] * 3)
        states = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidScheme, match=r"scheme 0, state 2: probability 4\.0"):
            oracle._probabilities(schemes, states)


class TestStackedValidator:
    def _stack(self, **broken):
        configs = [interferometer.MzConfig("erasure", delta=0.1 * n, gamma=0.2 * n) for n in range(8)]
        schemes = extraction.schemes_for(configs)
        arrays = {
            "labels": schemes.labels,
            "unitaries": schemes.unitaries.copy(),
            "probe_init": schemes.probe_init.copy(),
            "outputs": np.array(schemes.outputs),
        }
        for name, (member, fn) in broken.items():
            fn(arrays[name][member])
        return arrays

    def test_valid_stack_passes(self):
        extraction.SchemeStack(**self._stack())

    @pytest.mark.parametrize(
        "name, fn, match",
        [
            ("unitaries", lambda u: np.multiply(u, 1.1, out=u), "unitarity"),
            ("unitaries", lambda u: u.fill(np.nan), "unitarity"),
            ("outputs", lambda m: np.multiply(m[2], 0.5, out=m[2]), "output '12' deviates from a projection"),
            ("outputs", lambda m: np.copyto(m[3], m[0]), "do not sum to the identity"),
        ],
    )
    def test_one_bad_member_is_named(self, name, fn, match):
        with pytest.raises(InvalidScheme, match=f"scheme 5: .*{match}"):
            extraction.SchemeStack(**self._stack(**{name: (5, fn)}))

    def test_first_of_two_bad_members_is_named(self):
        arrays = self._stack(unitaries=(6, lambda u: np.multiply(u, 2.0, out=u)))
        arrays["outputs"][3, 0] *= 0.5
        with pytest.raises(InvalidScheme, match="scheme 3: output '11'"):
            extraction.SchemeStack(**arrays)

    def test_bad_initial_probe_state_is_named(self):
        with pytest.raises(NotNormalized, match="scheme 4"):
            extraction.SchemeStack(**self._stack(probe_init=(4, lambda p: np.multiply(p, 1.5, out=p))))

    def test_shape_mismatch_rejected(self):
        arrays = self._stack()
        arrays["outputs"] = arrays["outputs"][:, :3]
        with pytest.raises(InvalidScheme, match="outputs must be"):
            extraction.SchemeStack(**arrays)


def _scalar_sweep_row(config, psi):
    # The per-step route: one scheme, POVM, probability table and audit per step.
    scheme = extraction.schemes_for([config])
    measured = extraction.extract_effects(scheme)[0]
    probabilities = oracle.direct_probabilities(scheme, psi)
    _, p1, p2 = interferometer.probe_stack([config])[0]
    audit = relations.erasure_duality_stack([complex(psi[0])], [complex(psi[1])], [p1], [p2])
    row = {"D": audit.distinguishability[0], "V_e": audit.visibility[0], "duality_slack": audit.duality.slack[0]}
    if len(scheme.labels) == 4:
        row.update({"p" + label: probabilities[label] for label in ("11", "12", "21", "22")})
        contrasts = povm.contrast_stack(povm.joint_marginals(measured[None])[0])
        row.update(zip(("F_contrast", "G_contrast", "H_contrast"), contrasts.tolist()))
    else:
        row["F_contrast"] = float(povm.contrast_stack(measured[None])[0])
    return row


class TestSweepRows:
    @pytest.mark.parametrize(
        "experiment, param",
        [("quantitative", "theta"), ("quantitative", "delta"), ("erasure", "gamma"),
         ("erasure", "delta"), ("marking", "delta"), ("path", "delta"), ("interference", "theta")],
    )
    def test_every_row_matches_the_per_step_route(self, rng, experiment, param):
        base = interferometer.MzConfig(experiment, delta=0.3, gamma=-0.7, theta=1.1)
        psi = random_pure(rng)
        configs = cli.sweep_configs(base, param, -2.0, 2.5, 41)
        rows = list(cli.sweep_rows(configs, psi, param))
        assert len(rows) == 41
        for config, row in zip(configs, rows):
            assert row["param_value"] == getattr(config, param)
            for name, want in _scalar_sweep_row(config, psi).items():
                assert abs(row[name] - want) <= TOL, name

    def test_long_sweeps_are_split_into_stacks(self, rng, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_STACK", 7)
        base = interferometer.MzConfig("erasure", delta=0.4)
        psi = random_pure(rng)
        configs = cli.sweep_configs(base, "gamma", 0.0, 3.0, 23)
        split = list(cli.sweep_rows(configs, psi, "gamma"))
        monkeypatch.setattr(cli, "SWEEP_STACK", 4096)
        assert split == list(cli.sweep_rows(configs, psi, "gamma"))

    def test_one_probe_stack_per_chunk(self, rng, monkeypatch):
        calls = []
        original = interferometer.probe_stack

        def counting(configs):
            calls.append(len(configs))
            return original(configs)

        monkeypatch.setattr(interferometer, "probe_stack", counting)
        monkeypatch.setattr(cli, "SWEEP_STACK", 7)
        configs = cli.sweep_configs(interferometer.MzConfig("quantitative", delta=0.4), "theta", 0.0, 1.5, 23)
        assert len(list(cli.sweep_rows(configs, random_pure(rng), "theta"))) == 23
        assert calls == [7, 7, 7, 2]

    def test_run_report_is_a_batch_of_one_of_the_sweep_core(self, rng):
        psi = random_pure(rng)
        config = interferometer.MzConfig("quantitative", delta=0.8, theta=0.5)
        report = cli.evaluate_run(config, psi)
        (row,) = cli.sweep_rows([config], psi, "theta")
        for label in ("11", "12", "21", "22"):
            assert report["probabilities"][label] == row["p" + label]
        assert report["distinguishability"]["D"] == row["D"]
        assert report["visibility"]["V_e"] == row["V_e"]


class TestInputCheckedOnce:
    """A run or sweep checks its input at the entry; the kernel cores behind it trust it."""

    @pytest.mark.parametrize("experiment", interferometer.EXPERIMENTS)
    def test_a_run_report_makes_two_unit_norm_checks(self, rng, monkeypatch, experiment):
        calls = []
        original = linalg.check_unit_rows

        def counting(v, what):
            calls.append(what)
            return original(v, what)

        monkeypatch.setattr(linalg, "check_unit_rows", counting)
        cli.evaluate_run(interferometer.MzConfig(experiment, delta=0.4, gamma=1.1, theta=0.6), random_pure(rng))
        # The photon state once, and the (3 N, 2) probe rows once.
        assert calls == ["state vector", "probe state"]

    @pytest.mark.parametrize("psi", [[1.0, 1.0], [0.6, 0.6j], [math.nan, 0.0], [math.inf, 0.0], [1.0, math.nan]])
    @pytest.mark.parametrize("experiment", ["path", "quantitative"])
    def test_run_and_sweep_reject_a_bad_input_passed_directly(self, psi, experiment):
        config = interferometer.MzConfig(experiment, delta=0.4, theta=0.6)
        configs = cli.sweep_configs(config, "delta", 0.0, 1.0, 3)
        with pytest.raises(NotNormalized):
            cli.evaluate_run(config, np.array(psi, dtype=complex))
        with pytest.raises(NotNormalized):
            next(cli.sweep_rows(configs, np.array(psi, dtype=complex), "delta"))

    @pytest.mark.parametrize("psi", [[math.inf, 0.0], [1e200, 0.0]])
    def test_infinite_and_huge_inputs_are_rejected_without_a_numpy_warning(self, psi):
        v = np.array(psi, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized, match="^state 0 has norm"):
                linalg.check_unit_rows(v[None], "state")
            with pytest.raises(NotNormalized, match="^state 0 has norm"):
                relations.entropic_bound_stack(relations.pauli_pvm("z"), relations.pauli_pvm("x"), v[None])
            with pytest.raises(NotNormalized, match="^state vector 0 has norm"):
                cli.evaluate_run(interferometer.MzConfig("erasure", delta=0.4), v)

    def test_run_and_sweep_reject_an_input_of_another_dimension(self):
        # The same check, and the same error, as oracle.direct_probability_stack.
        config = interferometer.MzConfig("erasure", delta=0.4)
        with pytest.raises(InvalidScheme, match="two-component"):
            cli.evaluate_run(config, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidScheme, match="two-component"):
            next(cli.sweep_rows([config], np.array([1.0, 0.0, 0.0]), "delta"))

    def test_every_route_rejects_an_input_of_another_dimension_alike(self):
        # interferometer.photon_state is the one photon-input check.
        config = interferometer.MzConfig("erasure", delta=0.4)
        psi = np.array([1.0, 0.0, 0.0])
        message = "^the input must be a two-component photon state$"
        with pytest.raises(InvalidScheme, match=message):
            interferometer.final_state_stack(psi, interferometer.probe_stack([config]), [0.4])
        with pytest.raises(InvalidScheme, match=message):
            oracle.direct_probability_stack(extraction.schemes_for([config]), psi)
        with pytest.raises(InvalidScheme, match=message):
            cli.evaluate_run(config, psi)

    def test_run_and_sweep_reject_non_unit_markers(self, monkeypatch):
        # The marker check the relation kernels make runs once on the route, with the other probe rows.
        original = interferometer.probe_stack

        def stretched(configs):
            probes = original(configs).copy()
            probes[-1, 2] *= 1.1
            return probes

        monkeypatch.setattr(interferometer, "probe_stack", stretched)
        config = interferometer.MzConfig("erasure", delta=0.4, gamma=0.7)
        configs = cli.sweep_configs(config, "delta", 0.0, 1.0, 3)
        with pytest.raises(NotNormalized, match="^probe state 2 has norm 1.1"):
            cli.evaluate_run(config, np.array([1.0, 0.0]))
        with pytest.raises(NotNormalized, match="^probe state 8 has norm 1.1"):
            next(cli.sweep_rows(configs, np.array([1.0, 0.0]), "delta"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: extraction.build_schemes([[[math.inf, 0.0], E1, E2]], [0.0], None), NotNormalized,
         "^probe state 0 has norm inf"),
        (lambda: relations.contrasts(np.full((2, 2), math.nan)), NotHermitian, "^state deviates from Hermitian by nan"),
        (lambda: extraction.conditional_probabilities(np.full((4, 2, 2), math.nan), "1", E1), NotHermitian,
         "^joint effects deviate from Hermitian by nan"),
        (lambda: complementarity.OrthonormalBasis(np.full((2, 2), math.nan)), InvalidBasis,
         "^Gram matrix deviates from identity by nan"),
    ],
    ids=["infinite-probe", "nan-state-contrasts", "nan-joint-conditional", "nan-basis"],
)
def test_a_bad_library_input_raises_a_named_error_without_a_numpy_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


class TestInterferometerStacks:
    def test_total_unitaries_match_the_kron_route(self, rng):
        triples = np.array([[random_pure(rng) for _ in range(3)] for _ in range(50)])
        deltas = rng.uniform(-2 * math.pi, 2 * math.pi, 50)
        stacked = interferometer.total_unitary_stack(triples, deltas)
        marking = interferometer.marking_unitary_stack(triples)
        for n in range(50):
            np.testing.assert_allclose(
                stacked[n], _reference_total_unitary(*triples[n], deltas[n]), rtol=0, atol=TOL
            )
            np.testing.assert_allclose(marking[n], _reference_marking_unitary(*triples[n]), rtol=0, atol=TOL)

    def test_probe_stack_matches_literal_triples(self):
        unmarked, marked = [E1, E1, E1], [E1, E1, E2]
        fixed = {"path": unmarked, "interference": unmarked, "marking": marked, "erasure": marked}
        configs = verify.distinct_grid_configs()
        stacked = interferometer.probe_stack(configs)
        assert stacked.shape == (len(configs), 3, 2) and stacked.dtype == complex
        for config, rows in zip(configs, stacked):
            if config.experiment in fixed:
                want = np.array(fixed[config.experiment])
            else:
                want = np.array([E1, *interferometer.marker_states(config.theta)])
            assert rows.tobytes() == want.tobytes()

    def test_fixed_probe_triples_are_shared(self):
        for experiment in ("path", "interference", "marking", "erasure"):
            fixed = interferometer._FIXED_ROWS[experiment]
            assert fixed.shape == (3, 2) and not fixed.flags.writeable
            with pytest.raises(ValueError):
                fixed[1, 0] = 0.0
        assert interferometer._FIXED_ROWS["path"] is interferometer._FIXED_ROWS["interference"]
        assert interferometer._FIXED_ROWS["marking"] is interferometer._FIXED_ROWS["erasure"]
        configs = [interferometer.MzConfig(e, theta=0.4) for e in interferometer.EXPERIMENTS]
        stacked = interferometer.probe_stack(configs)
        assert stacked.flags.owndata and stacked.flags.writeable
        stacked[0, 1] = 0.0  # an owned copy: the shared rows are untouched
        assert interferometer._FIXED_ROWS["path"][1, 0] == 1.0

    def test_final_state_validates_its_input_once(self, monkeypatch):
        calls = []
        original = linalg.state_vector

        def counting(v):
            calls.append(1)
            return original(v)

        monkeypatch.setattr(linalg, "state_vector", counting)
        configs = [interferometer.MzConfig("erasure", delta=0.3, gamma=0.2)] * 3
        out = interferometer.final_state_stack([0.6, 0.8j], interferometer.probe_stack(configs), [0.3] * 3)
        assert len(calls) == 1
        assert out.shape == (3, 4)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-15

    def test_perp_of_a_stack_is_rowwise(self, rng):
        rows = np.array([random_pure(rng) for _ in range(10)])
        stacked = linalg.perp(rows)
        for v, p in zip(rows, stacked):
            assert p.tobytes() == linalg.perp(v).tobytes()


def _reference_half(coeff, vec):
    sx, sy, sz = linalg.pauli_triple()
    return 0.5 * (coeff * np.eye(2, dtype=complex) + vec[0] * sx + vec[1] * sy + vec[2] * sz)


class TestClosedFormEntries:
    def test_half_matches_the_pauli_sum_entrywise(self, rng):
        # Equal as floats (so up to the sign of zeros), not just close.
        cases = [(1.0, (0, 0, 0)), (1.0, (0.0, -0.0, 1.0)), (0.0, (-1.0, 0.0, 0.0))]
        cases += [(float(c), tuple(v)) for c, v in zip(rng.uniform(-2, 2, 500), rng.standard_normal((500, 3)))]
        for coeff, vec in cases:
            got, want = linalg.bloch_operators(coeff, np.array(vec)), _reference_half(coeff, np.array(vec))
            assert np.array_equal(got, want), (coeff, vec)


# The F, G and H groupings of the joint labels 11, 21, 12, 22, and the
# label-keyed summation the fixed-index joint marginals replaced.
_REFERENCE_GROUPINGS = (
    {"1": ("11", "12"), "2": ("21", "22")},
    {"1": ("11", "21"), "2": ("12", "22")},
    {"1": ("11", "22"), "2": ("12", "21")},
)


def _reference_joint_marginals(effects):
    index = {label: k for k, label in enumerate(povm.JOINT_LABELS)}
    out = np.zeros((len(effects), 3, 2) + effects.shape[2:], dtype=complex)
    for m, grouping in enumerate(_REFERENCE_GROUPINGS):
        for o, members in enumerate(grouping.values()):
            for label in members:
                out[:, m, o] += effects[:, index[label]]
    return out


class TestPovmStacks:
    def test_joint_marginals_match_their_batch_of_one(self):
        effects = extraction.extract_effects(
            extraction.schemes_for([interferometer.MzConfig("erasure", delta=0.7, gamma=g) for g in (0.1, 2.0)])
        )
        stacked = povm.joint_marginals(effects)
        for n in range(2):
            assert np.array_equal(stacked[n], povm.joint_marginals(effects[n:n + 1])[0])

    def test_joint_marginals_match_the_label_keyed_sum_bit_for_bit(self, rng):
        # Real and imaginary parts drawn from signed zeros, +/-1 and normal
        # draws, so sums of two zeros of either sign occur in every position.
        parts = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(200, 4, 2, 2, 2))
        drawn = rng.random(parts.shape) < 0.3
        parts[drawn] = rng.standard_normal(int(drawn.sum()))
        effects = parts.view(complex)[..., 0]
        assert povm.joint_marginals(effects).tobytes() == _reference_joint_marginals(effects).tobytes()

    def test_joint_marginals_of_the_extraction_grid_match_bit_for_bit(self):
        configs = [c for c in verify.distinct_grid_configs() if c.experiment not in interferometer.DETECTOR_ONLY]
        effects = extraction.extract_effects(extraction.schemes_for(configs))
        assert effects.shape[1] == 4
        assert povm.joint_marginals(effects).tobytes() == _reference_joint_marginals(effects).tobytes()

    def test_contrast_stack_matches_the_bias_direction_formula(self, rng):
        firsts = []
        for _ in range(200):
            u = rng.standard_normal(3)
            u *= rng.random() / np.linalg.norm(u)
            b = (1.0 - np.linalg.norm(u)) * rng.uniform(-1, 1)
            firsts.append(_reference_half(1.0 + b, u))
        firsts = np.array(firsts)
        stacks = np.stack([firsts, np.eye(2) - firsts], axis=1)
        got = povm.contrast_stack(stacks)
        for n, first in enumerate(firsts):
            b = float(np.trace(first).real) - 1.0
            u = np.array([float(np.trace(first @ s).real) for s in linalg.pauli_triple()])
            assert got[n] == min(1.0, max(0.0, abs(b) + float(np.linalg.norm(u))))
