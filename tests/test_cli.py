import json
import math
import warnings

import pytest

from mzpovm import cli, verify


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
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"experiment": "marking", "delta": "abc"}))
        err = self.assert_usage_error(capsys, "run", "--config", str(config_path))
        assert "delta" in err

    def test_non_numeric_config_input(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"experiment": "marking", "input": [1, "x", 0, 0]}))
        err = self.assert_usage_error(capsys, "run", "--config", str(config_path))
        assert "input" in err

    def test_config_that_is_not_an_object(self, capsys, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text("[1, 2]")
        err = self.assert_usage_error(
            capsys, "run", "--experiment", "path", "--config", str(config_path)
        )
        assert "JSON object" in err

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

    def test_bad_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "0")
        assert code == 2
        assert "tol" in err


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
