"""End-to-end CLI behavior: output, exit codes, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nashroyalty
from nashroyalty import NumericalAccuracyError, cli
from nashroyalty.bargaining import FinancialStatement, royalty_rate
from nashroyalty.estimators import RiskProfile
from nashroyalty import ModelKind, estimate, validate_bounds

GOLDEN_ARGS = ["--a", "0", "--b", "0.2", "--c", "0", "--d", "0.8"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimateCommand:
    def test_golden_proportional_mean(self, capsys):
        code, out, err = run(
            capsys, ["estimate", "--model", "case2", "--risk", "mse", *GOLDEN_ARGS]
        )
        assert code == 0
        assert err == ""
        assert "party 1 share estimate (theta1): 0.255" in out
        assert "overpayment probability P{theta <= estimate}: 0.635" in out
        assert "method: exact closed form" in out

    def test_royalty_rate_line_appears_with_financials(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--model",
                "case2",
                "--risk",
                "mse",
                *GOLDEN_ARGS,
                "--or",
                "500",
                "--oc",
                "360",
            ],
        )
        assert code == 0
        bounds = validate_bounds(0.0, 0.2, 0.0, 0.8)
        theta = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
        expected = royalty_rate(theta, FinancialStatement(500.0, 360.0))
        assert f"royalty rate on revenue: {expected:.3f}" in out
        assert "royalty rate on revenue: 0.071" in out

    def test_json_output_round_trips_full_precision(self, capsys):
        argv = ["estimate", "--model", "case2", "--risk", "mse", *GOLDEN_ARGS, "--json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        bounds = validate_bounds(0.0, 0.2, 0.0, 0.8)
        exact = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds)
        assert payload["theta1"] == exact.theta1
        assert payload["theta2"] == exact.theta2
        assert payload["royalty_rate"] is None
        assert payload["method_note"] == "exact closed form"
        code2, out2, _ = run(capsys, argv)
        assert (code2, out2) == (code, out)

    def test_surplus_violation_exits_2_and_names_the_constraint(self, capsys):
        code, out, err = run(
            capsys,
            ["estimate", "--model", "nbs", "--risk", "map", "--a", "0", "--b", "0.6", "--c", "0", "--d", "0.6"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "b + d <= 1" in err

    def test_origin_rectangle_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            ["estimate", "--model", "case2", "--risk", "mse", "--a", "0", "--b", "0", "--c", "0", "--d", "0"],
        )
        assert code == 3
        assert "identically 0" in err

    def test_missing_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, ["estimate", "--model", "nbs", "--risk", "map"])
        assert code == 2
        assert "missing field(s): a, b, c, d" in err


class TestConfigFiles:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    BASE = {
        "bounds": {"a": 0.0, "b": 0.2, "c": 0.0, "d": 0.8},
        "model": "nbs",
        "risk": "mse",
    }

    def test_config_file_supplies_the_scenario(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["estimate", "--config", self.write(tmp_path, self.BASE)]
        )
        assert code == 0
        assert "party 1 share estimate (theta1): 0.350" in out

    def test_flags_override_config_fields(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["estimate", "--config", self.write(tmp_path, self.BASE), "--d", "0.4"],
        )
        assert code == 0
        # (0 + 0.2 - 0 - 0.4)/4 + 0.5
        assert "party 1 share estimate (theta1): 0.450" in out

    def test_malformed_json_reports_the_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"bounds": {\n  "a": 0.0,,\n}}', encoding="utf-8")
        code, _, err = run(capsys, ["estimate", "--config", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_unknown_top_level_key_is_named(self, capsys, tmp_path):
        payload = dict(self.BASE, modle="nbs")
        code, _, err = run(
            capsys, ["estimate", "--config", self.write(tmp_path, payload)]
        )
        assert code == 2
        assert "modle" in err

    def test_unknown_nested_key_is_named(self, capsys, tmp_path):
        payload = dict(self.BASE)
        payload["financials"] = {"operating_revenue": 500, "oc": 360}
        code, _, err = run(
            capsys, ["estimate", "--config", self.write(tmp_path, payload)]
        )
        assert code == 2
        assert "'financials'" in err and "oc" in err

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["estimate", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "cannot read config file" in err


class TestPerceptionScenarios:
    def scenario(self, tmp_path, extra=None):
        payload = {
            "bounds": {"a": 0.0, "b": 0.2, "c": 0.0, "d": 0.8},
            "risk": "mse",
            "perceptions": {"p11": 0.5, "p12": 0.7, "p21": 0.4, "p22": 0.4},
        }
        payload.update(extra or {})
        path = tmp_path / "perception.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_perception_weight_drives_a_numeric_estimate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["estimate", "--config", self.scenario(tmp_path), "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        # alpha = 0.6, so E[theta] = 0.6 + 0.4 E[d1] - 0.6 E[d2] = 0.4.
        assert payload["theta1"] == pytest.approx(0.4, abs=1e-6)
        assert payload["method_note"] == "numeric"

    def test_perception_label_shows_the_weight(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["estimate", "--config", self.scenario(tmp_path)])
        assert code == 0
        assert "alpha = 0.600" in out

    def test_perceptions_conflict_with_payoff_driven_models(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["estimate", "--config", self.scenario(tmp_path, {"model": "case1"})],
        )
        assert code == 2
        assert "perception" in err

    def test_incomplete_perceptions_exit_2(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(
            json.dumps(
                {
                    "bounds": {"a": 0.0, "b": 0.2, "c": 0.0, "d": 0.8},
                    "risk": "mse",
                    "perceptions": {"p11": 0.5, "p12": 0.7},
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["estimate", "--config", str(path)])
        assert code == 2
        assert "p21" in err and "p22" in err


class TestPosteriorCommand:
    def test_writes_the_curve_and_prints_numeric_estimates(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            [
                "posterior",
                "--model",
                "case2",
                *GOLDEN_ARGS,
                "--grid-points",
                "201",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "theta,pdf,cdf"
        assert len(lines) == 202
        assert "mode   (MAP): 0.200" in out
        assert "median (ABS): 0.200" in out
        assert "mean   (MSE): 0.255" in out

    def test_unwritable_output_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "posterior",
                "--model",
                "nbs",
                *GOLDEN_ARGS,
                "--grid-points",
                "11",
                "--out",
                str(tmp_path / "no_such_dir" / "curve.csv"),
            ],
        )
        assert code == 4
        assert err.startswith("error:")

    def test_deterministic_share_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "posterior",
                "--model",
                "nbs",
                "--a",
                "0.3",
                "--b",
                "0.3",
                "--c",
                "0.1",
                "--d",
                "0.1",
                "--out",
                str(tmp_path / "curve.csv"),
            ],
        )
        assert code == 3
        assert "deterministically" in err


class TestSweepCommand:
    def test_csv_and_map_outputs(self, capsys, tmp_path):
        out_path = tmp_path / "family.csv"
        code, out, err = run(
            capsys,
            [
                "sweep",
                "--model",
                "nbs",
                "--risk",
                "abs",
                *GOLDEN_ARGS,
                "--c-values",
                "0,0.4",
                "--d-max",
                "0.8",
                "--d-step",
                "0.2",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        assert err == ""
        lines = out_path.read_text(encoding="utf-8").splitlines()
        # c=0: d in {0,.2,.4,.6,.8}; c=0.4: d in {.4,.6,.8}.
        assert len(lines) == 1 + 5 + 3
        map_lines = (
            (tmp_path / "family.map.csv").read_text(encoding="utf-8").splitlines()
        )
        assert map_lines[0] == "d,theta_map"
        assert len(map_lines) == 6
        assert "wrote 8 sweep rows" in out

    def test_omitted_cells_reported_on_stderr(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "sweep",
                "--model",
                "case2",
                "--risk",
                "mse",
                "--a",
                "0",
                "--b",
                "0",
                "--c",
                "0",
                "--d",
                "0",
                "--c-values",
                "0",
                "--d-max",
                "0.2",
                "--d-step",
                "0.1",
                "--out",
                str(tmp_path / "family.csv"),
            ],
        )
        assert code == 0
        assert "note: omitted cell c=0, d=0" in err

    def test_json_mode_writes_the_mirror(self, capsys, tmp_path):
        out_path = tmp_path / "family.json"
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--model",
                "case1",
                "--risk",
                "mse",
                *GOLDEN_ARGS,
                "--c-values",
                "0",
                "--d-max",
                "0.4",
                "--d-step",
                "0.2",
                "--json",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["model"] == "case1"
        assert [row["d"] for row in payload["series"][0]["rows"]] == [0.0, 0.2, 0.4]

    def test_bad_c_values_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "sweep",
                "--model",
                "nbs",
                "--risk",
                "abs",
                *GOLDEN_ARGS,
                "--c-values",
                "0,x",
                "--out",
                str(tmp_path / "family.csv"),
            ],
        )
        assert code == 2
        assert "--c-values" in err


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--d-step", "nan"], "--d-step"),
            (["--d-max", "nan"], "--d-max"),
            (["--d-max", "-1"], "--d-max"),
            (["--d-step", "1e-300"], "10001 points"),
            (["--grid-points", "1000002"], "grid_points"),
        ],
    )
    def test_bad_grid_sizes_exit_2(self, capsys, tmp_path, flags, named):
        out = tmp_path / "family.csv"
        argv = ["sweep", "--model", "nbs", "--risk", "mse", *GOLDEN_ARGS]
        code, _, err = run(capsys, [*argv, *flags, "--out", str(out)])
        assert code == 2
        assert named in err
        assert not out.exists()


class TestNumericalHealth:
    def test_missed_error_target_exits_5(self, capsys, monkeypatch):
        def fail(*args):
            raise NumericalAccuracyError("quadrature missed its error target")

        monkeypatch.setattr(cli, "cdf_at", fail)
        code, out, err = run(
            capsys, ["estimate", "--model", "nbs", "--risk", "mse", *GOLDEN_ARGS]
        )
        assert code == 5
        assert out == ""
        assert "error: quadrature missed its error target" in err


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        probe = "import sys, nashroyalty.cli; print('scipy' in sys.modules)"
        src = Path(nashroyalty.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestVerifyCommand:
    ARGS = ["verify", "--samples", "5", "--seed", "7", "--mc-n", "2000"]

    def test_passes_and_is_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, self.ARGS)
        code2, out2, _ = run(capsys, self.ARGS)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert "result: PASS" in out1
        assert "exact closed forms vs quadrature" in out1


class TestReferenceCommand:
    def test_all_cells_pass(self, capsys):
        code, out, _ = run(capsys, ["reference"])
        assert code == 0
        assert "result: PASS (all 18 cells match)" in out
        assert out.count(" PASS") >= 9
