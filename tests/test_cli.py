import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzpovm import cli, interferometer, verify
from mzpovm.errors import InvalidScheme


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_path_eigenstate_probabilities(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "path", "--input", "1,0,0,0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["probabilities"]["1"] == pytest.approx(1.0, abs=1e-12)
        assert report["probabilities"]["2"] == pytest.approx(0.0, abs=1e-12)
        assert report["povm_classification"]["kind"] == "sharp"

    def test_erasure_conditional_fringes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--experiment", "erasure",
            "--delta", repr(-math.pi / 2),
            "--gamma", "0",
            "--input", "0.7071067811865476,0,0.7071067811865476,0",
        )
        assert code == 0
        report = json.loads(out)
        conditional = report["conditional_probabilities"]
        assert conditional["1"]["1"] == pytest.approx(1.0, abs=1e-12)
        assert conditional["1"]["2"] == pytest.approx(0.0, abs=1e-12)
        assert conditional["2"]["1"] == pytest.approx(0.0, abs=1e-12)
        assert conditional["2"]["2"] == pytest.approx(1.0, abs=1e-12)
        assert report["marginals"]["F"]["classification"]["kind"] == "trivial"
        assert report["marginals"]["H"]["classification"]["kind"] == "sharp"

    def test_quantitative_duality_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--experiment", "quantitative",
            "--delta", repr(-math.pi / 2),
            "--theta", repr(math.pi / 3),
        )
        assert code == 0
        report = json.loads(out)
        assert report["distinguishability"]["D"] == pytest.approx(0.5, abs=1e-12)
        assert report["visibility"]["V_e"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        duality = next(r for r in report["relations"] if r["name"] == "erasure-duality")
        assert abs(duality["slack"]) <= 1e-9

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "marking", "--delta", "0.7", "--input", "0.6,0,0.8,0"
        )
        assert code == 0
        report = json.loads(out)
        assert cli.render_json(report) + "\n" == out

    def test_degrees_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "marking", "--delta", "90", "--degrees"
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["delta"] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps({"experiment": "marking", "delta": 0.3, "input": [1, 0, 0, 0]})
        )
        code, out, _ = run_cli(
            capsys, "run", "--config", str(config_path), "--delta", "0.9"
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["experiment"] == "marking"
        assert report["config"]["delta"] == pytest.approx(0.9)
        assert report["input"][0][0] == pytest.approx(1.0)

    def test_off_norm_input_renormalized_with_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--experiment", "path", "--input", "0.70710673,0,0.70710673,0"
        )
        assert code == 0
        assert "renormalizing" in err
        report = json.loads(out)
        total = sum(report["probabilities"].values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_visibly_denormalized_input_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "path", "--input", "0.707,0,0.707,0"
        )
        assert code == 2
        assert "norm" in err

    def test_badly_denormalized_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--experiment", "path", "--input", "1,0,1,0")
        assert code == 2
        assert "error:" in err

    def test_missing_experiment_rejected(self, capsys):
        code, _, err = run_cli(capsys, "run", "--input", "1,0,0,0")
        assert code == 2
        assert "experiment" in err

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--experiment", "path", "--bogus"])
        assert excinfo.value.code == 2


class TestUsageErrors:
    """Malformed input exits 2 with an ``error:`` line, never a traceback."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err
        return err

    def test_non_numeric_config_angle(self, capsys, tmp_path):
        # Only null or an absent field means 0; a bool is not a number.
        config_path = tmp_path / "cfg.json"
        for delta in ("abc", [], {}, "", False, True):
            config_path.write_text(json.dumps({"experiment": "marking", "delta": delta}))
            err = self.assert_usage_error(capsys, "run", "--config", str(config_path))
            assert "delta" in err
        config_path.write_text(json.dumps({"experiment": "marking", "delta": None}))
        code, out, _ = run_cli(capsys, "run", "--config", str(config_path))
        assert code == 0 and json.loads(out)["config"]["delta"] == 0.0

    def test_non_numeric_config_input(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"experiment": "marking", "input": [1, "x", 0, 0]}))
        err = self.assert_usage_error(capsys, "run", "--config", str(config_path))
        assert "input" in err

    def test_config_input_must_list_four_numbers(self, capsys, tmp_path):
        # Bools taken as numbers, a string read one character at a time and a
        # dict's keys would each run as the state (1, 0).
        config_path = tmp_path / "cfg.json"
        for reals in ([True, False, "0", "0"], "1000", {"1": 0, "0": 0, "0.0": 0, "-0": 0}, [1, 0, 0]):
            config_path.write_text(json.dumps({"experiment": "marking", "input": reals}))
            err = self.assert_usage_error(capsys, "run", "--config", str(config_path))
            assert "config field 'input' must list 4 numbers" in err

    def test_config_that_is_not_an_object(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text("[1, 2]")
        err = self.assert_usage_error(
            capsys, "run", "--experiment", "path", "--config", str(config_path)
        )
        assert "JSON object" in err

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")])
    def test_deeply_nested_config_file(self, capsys, tmp_path, opening, closing):
        # Nesting past the interpreter's recursion limit is a usage error,
        # not a RecursionError traceback.
        config_path = tmp_path / "cfg.json"
        config_path.write_text(opening * 100_000 + "0" + closing * 100_000)
        err = self.assert_usage_error(capsys, "run", "--experiment", "path", "--config", str(config_path))
        assert err.count("\n") == 1 and "nests too deeply" in err

    def test_negative_seed_rejected_at_parse_time(self, capsys, monkeypatch):
        def fail(**kwargs):
            raise AssertionError("the suite must not start")

        monkeypatch.setattr(verify, "run_all", fail)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--seed", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "non-negative" in err and "Traceback" not in err

    def test_nan_input_rejected_before_arithmetic(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.assert_usage_error(
                capsys, "run", "--experiment", "path", "--input", "nan,0,0,0"
            )
        assert "finite" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "config"])
    @pytest.mark.parametrize("action", ["always", "error"])
    def test_overflowing_input_is_one_error_line(self, capsys, tmp_path, command, action):
        # The squared norm of (1e308, 1e308) overflows to inf: a usage error
        # with one stderr line, and no numpy overflow warning before it.
        argv = ["run", "--experiment", "erasure", "--input", "1e308,0,1e308,0"]
        if command == "sweep":
            argv[0:1] = ["sweep", "--param", "delta", "--from", "0", "--to", "1", "--steps", "3"]
        elif command == "config":
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps({"experiment": "erasure", "input": [1e308, 0, 1e308, 0]}))
            argv = ["run", "--config", str(config_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            err = self.assert_usage_error(capsys, *argv)
        assert caught == []
        assert err == "error: input state squared norm inf deviates from 1 by more than 1e-6\n"

    def test_config_file_read_once(self, capsys, tmp_path, monkeypatch):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"experiment": "path", "input": [1, 0, 0, 0]}))
        loads = []
        original = json.load

        def counting_load(fh, **kwargs):
            loads.append(fh.name)
            return original(fh, **kwargs)

        monkeypatch.setattr(json, "load", counting_load)
        code, _, _ = run_cli(capsys, "run", "--config", str(config_path))
        assert code == 0
        assert loads == [str(config_path)]


class TestSweep:
    def test_quantitative_theta_sweep_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--experiment", "quantitative",
            "--delta", repr(-math.pi / 2),
            "--param", "theta",
            "--from", "0",
            "--to", repr(math.pi / 2),
            "--steps", "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == cli.SWEEP_COLUMNS
        assert len(lines) == 1 + 7
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            theta = float(cells[header.index("param_value")])
            f_contrast = float(cells[header.index("F_contrast")])
            g_contrast = float(cells[header.index("G_contrast")])
            assert f_contrast == pytest.approx(abs(math.sin(theta)), abs=1e-12)
            assert g_contrast == pytest.approx(abs(math.cos(theta)), abs=1e-12)

    def test_erasure_delta_sweep_f_contrast(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--experiment", "erasure",
            "--param", "delta",
            "--from", "0",
            "--to", repr(math.pi / 2),
            "--steps", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            delta = float(cells[header.index("param_value")])
            f_contrast = float(cells[header.index("F_contrast")])
            assert f_contrast == pytest.approx(abs(math.cos(delta)), abs=1e-12)

    def test_two_steps_gives_two_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--experiment", "path",
            "--param", "delta",
            "--from", "0",
            "--to", "1",
            "--steps", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        # Two-outcome experiment: joint columns stay empty, F is sharp.
        cells = lines[1].split(",")
        header = lines[0].split(",")
        assert cells[header.index("p11")] == ""
        assert cells[header.index("G_contrast")] == ""
        assert float(cells[header.index("F_contrast")]) == pytest.approx(1.0)

    def test_state_contrast_columns(self):
        # C_P = |<sz>| and C_Ix = |<sx>| of the photon input, the same on every row.
        configs = cli.sweep_configs(interferometer.MzConfig("erasure", delta=0.0, gamma=0.3), "delta", 0.0, 1.0, 3)

        def columns(psi):
            pairs = {(row["C_P"], row["C_Ix"]) for row in cli.sweep_rows(configs, psi, "delta")}
            assert len(pairs) == 1
            return pairs.pop()

        assert columns([1.0, 0.0]) == (1.0, 0.0)
        assert columns([math.sqrt(0.5), math.sqrt(0.5)]) == pytest.approx((0.0, 1.0), abs=1e-14)
        assert columns([math.sqrt(3) / 2, 0.5]) == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-14)

    def test_ignored_angle_noted_on_stderr(self, capsys):
        argv = ("sweep", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3")
        code, out, err = run_cli(capsys, *argv, "--experiment", "erasure")
        assert code == 0
        assert err == "note: erasure ignores theta; every row is the same\n"
        rows = out.strip().splitlines()[1:]
        assert len({row.split(",", 1)[1] for row in rows}) == 1
        for experiment, param in (("marking", "gamma"), ("path", "delta"), ("interference", "delta")):
            code, _, err = run_cli(
                capsys, "sweep", "--experiment", experiment, "--param", param,
                "--from", "0", "--to", "1", "--steps", "2",
            )
            assert code == 0
            assert err.startswith(f"note: {experiment} ignores {param}")

    def test_read_angle_gives_no_note(self, capsys):
        for experiment, param in (("quantitative", "theta"), ("erasure", "gamma"), ("marking", "delta")):
            code, _, err = run_cli(
                capsys, "sweep", "--experiment", experiment, "--param", param,
                "--from", "0", "--to", "1", "--steps", "2",
            )
            assert code == 0
            assert err == ""

    def test_reversed_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--experiment", "path",
            "--param", "delta",
            "--from", "1",
            "--to", "0",
            "--steps", "5",
        )
        assert code == 2
        assert "below" in err

    @pytest.mark.parametrize(
        "bounds", [("--from=-1e308", "--to=1e308"), ("--from=-inf", "--to=1"), ("--from=0", "--to=inf")]
    )
    def test_unrepresentable_range_rejected_before_output(self, capsys, bounds):
        # The span of -1e308..1e308 overflows a float; infinite ends have no
        # grid at all. Either must fail as a usage error before the header
        # and without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "sweep",
                "--experiment", "quantitative",
                "--param", "theta",
                *bounds,
                "--steps", "3",
            )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_step_count_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--experiment", "path",
            "--param", "delta",
            "--from", "0",
            "--to", "1",
            "--steps", "1",
        )
        assert code == 2


class TestVerifyCommand:
    def test_exit_codes_follow_results(self, capsys, monkeypatch):
        canned_pass = [verify.CheckResult("demo", True, 0.0)]
        canned_fail = [verify.CheckResult("demo", False, 1.0)]
        monkeypatch.setattr(verify, "run_all", lambda seed, samples, tol: canned_pass)
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--samples", "2")
        assert code == 0
        assert "1 passed" in out
        monkeypatch.setattr(verify, "run_all", lambda seed, samples, tol: canned_fail)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "1 failed" in out

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_bad_tolerance_rejected(self, capsys, tol):
        code, _, err = run_cli(capsys, "verify", "--tol", tol)
        assert code == 2
        assert err == "error: --tol must be positive and finite\n"

    def test_a_library_error_inside_a_check_is_a_verification_failure(self, capsys, monkeypatch):
        def broken(seed):
            raise InvalidScheme("scheme 0: unitarity defect 1.000e+00 exceeds 1e-12")

        monkeypatch.setattr(verify, "check_marking_unitary", broken)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert out == ""
        assert err == "error: InvalidScheme: scheme 0: unitarity defect 1.000e+00 exceeds 1e-12\n"


class TestRepeatedCalls:
    def test_back_to_back_commands_keep_their_own_results(self, capsys, monkeypatch):
        # The parser is built once per process; consecutive calls must not
        # see each other's arguments.
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(
            verify, "run_all", lambda seed, samples, tol: [verify.CheckResult("demo", False, 1.0)]
        )
        code, out, err = run_cli(capsys, "run", "--experiment", "path", "--input", "1,0,0,0")
        assert code == 0 and err == ""
        assert json.loads(out)["config"]["experiment"] == "path"
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "marking", "--param", "delta",
            "--from", "0", "--to", "1", "--steps", "2",
        )
        assert code == 0 and err == ""
        assert len(out.strip().splitlines()) == 3
        code, out, _ = run_cli(capsys, "verify", "--seed", "3")
        assert code == 1
        assert out.startswith("seed=3 samples=100 tol=1e-10")
        code, out, err = run_cli(capsys, "run")
        assert code == 2 and out == ""
        assert "error:" in err and "experiment" in err
        code, out, err = run_cli(capsys, "run", "--experiment", "interference")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["config"]["experiment"] == "interference"
        assert report["input"] == [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]


def _number_text():
    return st.one_of(
        st.floats().map(repr),
        st.integers().map(str),
        st.sampled_from(["", "abc", "1e999", "-inf", "nan", "0x1p3", "1_0", " 2 ", "--1"]),
        st.text(max_size=6),
    )


def _json_value():
    big = st.integers(300, 400).map(lambda e: 10**e)
    scalar = st.one_of(st.none(), st.booleans(), st.integers(), big, st.floats(), st.text(max_size=8))
    return st.one_of(scalar, st.lists(scalar, max_size=5), st.dictionaries(st.text(max_size=4), scalar, max_size=3))


def _config_contents():
    fields = st.fixed_dictionaries(
        {},
        optional={
            "experiment": st.one_of(st.sampled_from(interferometer.EXPERIMENTS), _json_value()),
            "delta": _json_value(),
            "gamma": _json_value(),
            "theta": _json_value(),
            "input": st.one_of(st.lists(st.floats(), min_size=4, max_size=4), _json_value()),
        },
    )
    other = st.one_of(
        _json_value().map(lambda v: json.dumps(v).encode()),
        st.text(max_size=20).map(str.encode),
        st.binary(max_size=20),
    )
    return st.one_of(fields.map(lambda d: json.dumps(d).encode()), other)


def _common_flags():
    input_text = st.one_of(
        st.lists(_number_text(), min_size=1, max_size=5).map(",".join),
        st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4).map(lambda v: ",".join(map(repr, v))),
    )
    flag = st.one_of(
        st.one_of(st.sampled_from(interferometer.EXPERIMENTS), st.text(max_size=6)).map(
            lambda e: "--experiment=" + e
        ),
        st.tuples(st.sampled_from(["--delta=", "--gamma=", "--theta="]), _number_text()).map("".join),
        input_text.map(lambda v: "--input=" + v),
        st.just("--config=CONFIG"),
        st.just("--config=MISSING"),
        st.just("--degrees"),
        st.sampled_from(["--bogus", "extra", "-x"]),
    )
    return st.lists(flag, max_size=6)


def _not_a_seed(text: str) -> bool:
    try:
        return int(text) < 0
    except ValueError:
        return True


def _fuzz_main(argv, config: bytes) -> tuple[int, str]:
    """Exit code and standard error of ``main`` on argv, with CONFIG and MISSING
    replaced by a file holding ``config`` and a path that does not exist."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(config)
        argv = [a.replace("CONFIG", str(path)).replace("MISSING", str(Path(tmp) / "none.json")) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue()


class TestFuzzedArguments:
    """Every argv and config file exits 0 or 2, never with a traceback; exit 1
    belongs to a failed verification alone."""

    @settings(max_examples=150, deadline=None)
    @given(flags=_common_flags(), config=_config_contents())
    @example(flags=["--config=CONFIG"], config=b"\x80")
    @example(flags=["--config=CONFIG"], config=json.dumps({"experiment": "path", "delta": 10**400}).encode())
    @example(flags=["--config=CONFIG"], config=json.dumps({"experiment": "path", "input": [10**400, 0, 0, 0]}).encode())
    def test_run(self, flags, config):
        code, err = _fuzz_main(["run", *flags], config)
        assert code in (0, 2), err
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(
        flags=_common_flags(),
        config=_config_contents(),
        param=st.sampled_from(["delta", "gamma", "theta", "phi"]),
        start=_number_text(),
        stop=_number_text(),
        steps=st.one_of(st.integers(-2, 6), st.sampled_from([100001, 10**12]).map(str), _number_text()),
    )
    def test_sweep(self, flags, config, param, start, stop, steps):
        argv = ["sweep", *flags, f"--param={param}", f"--from={start}", f"--to={stop}", f"--steps={steps}"]
        code, err = _fuzz_main(argv, config)
        assert code in (0, 2), err
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(
        malformed=st.one_of(
            st.integers(max_value=-1).map(lambda v: f"--seed={v}"),
            st.text(max_size=6).filter(_not_a_seed).map(lambda t: f"--seed={t}"),
            st.integers(max_value=0).map(lambda v: f"--samples={v}"),
            st.integers(min_value=100_001).map(lambda v: f"--samples={v}"),
            st.sampled_from(["--samples=1.5", "--samples=x", "--samples=", "--samples=100001"]),
            st.floats(max_value=0.0).map(lambda v: f"--tol={v!r}"),
            st.sampled_from(["--tol=nan", "--tol=inf", "--tol=1e400", "--tol=x", "--tol=", "--bogus", "extra"]),
        ),
        valid=st.lists(st.sampled_from(["--seed=3", "--samples=2", "--tol=1e-9"]), max_size=2),
    )
    def test_verify_rejects_malformed_flags(self, malformed, valid):
        def never(**kwargs):
            raise AssertionError("the suite must not start")

        with mock.patch.object(verify, "run_all", never):
            code, err = _fuzz_main(["verify", *valid, malformed], b"")
        assert code == 2, err
        assert "Traceback" not in err


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e16, 0.1])
_ANY_TEXT = st.text(alphabet=st.characters(), max_size=6) | st.sampled_from(["\x00\x1f\x7f", "é ", "\ud83d", '"\\/'])


def _renderable():
    floats = st.floats() | _SPECIAL_FLOATS
    scalar = st.none() | st.booleans() | st.integers() | floats | _ANY_TEXT
    float_lists = st.lists(floats, min_size=1, max_size=4)

    def nested(children):
        return (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_ANY_TEXT, children, max_size=4)
            | st.lists(float_lists, max_size=3)
        )

    return st.recursive(scalar | float_lists, nested, max_leaves=24)


class TestRenderJson:
    """render_json writes the bytes of json.dumps(value, sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None)
    @given(value=_renderable())
    @example(value={"x": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16], "é\n": ["\x00", {}, [], ()]})
    @example(value=[[0.0, -0.0], [0.5, 0.5], [[1.0], [2.0, 3.0]], (0.25, 0.25)])
    def test_matches_json_dumps(self, value):
        assert cli.render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.one_of(
            st.lists(st.integers(), max_size=4),
            st.lists(st.floats() | _SPECIAL_FLOATS, max_size=4),
            st.lists(st.booleans(), max_size=2),
            st.lists(st.none(), max_size=1),
        ),
        value=st.floats() | st.integers(),
    )
    def test_non_string_keys_match_json_dumps(self, keys, value):
        report = {key: value for key in keys}
        assert cli.render_json(report) == json.dumps(report, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [object(), 1j, {1, 2}, b"x", bytearray(b"x")])
    def test_unsupported_values_raise_type_error(self, value):
        for report in (value, [0.5, value], {"a": value}, {"a": [value]}):
            with pytest.raises(TypeError):
                json.dumps(report, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                cli.render_json(report)

    def test_unsupported_keys_raise_type_error(self):
        for report in ({(1, 2): 0.5}, {"a": {frozenset(): 1}}):
            with pytest.raises(TypeError):
                json.dumps(report, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                cli.render_json(report)
