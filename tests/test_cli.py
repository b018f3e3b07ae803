"""End-to-end CLI behavior: output, exit codes, config handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import typing
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nashroyalty
from nashroyalty import NumericalAccuracyError, cli, montecarlo, posterior
from nashroyalty import _cli_reference, _cli_verify
from nashroyalty.bargaining import FinancialStatement, PayoffBounds, royalty_rate
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

    @pytest.mark.parametrize(
        "b, median",
        # d1 = 0 with d2 > 0 almost surely, and then the share is 0; on the
        # square, d1 <= d2 half the time.
        [("0", 0.0), ("5e-324", 0.5)],
    )
    def test_case2_median_on_subnormal_sides(self, capsys, b, median):
        argv = ["estimate", "--model", "case2", "--risk", "abs", "--json"]
        argv += ["--a", "0", "--b", b, "--c", "0", "--d", "5e-324"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["theta1"] == median

    def test_case2_overpayment_on_a_subnormal_square(self, capsys):
        argv = ["estimate", "--model", "case2", "--risk", "abs", "--json"]
        argv += ["--a", "0", "--b", "5e-324", "--c", "0", "--d", "5e-324"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["overpayment_prob"] == 0.5

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

    @pytest.mark.parametrize(
        "content, named",
        [
            (b'{"bounds": {\n  "a": 0.0,,\n}}', "invalid JSON at line 2"),
            (b"\xff\xfe", "not UTF-8 text"),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
            (b'{"grid_points": ' + b"1" * 4301 + b"}", "4300 digits"),
        ],
        ids=["syntax", "not-utf8", "deep-nesting", "long-integer"],
    )
    def test_malformed_config_exits_2(self, capsys, tmp_path, content, named):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code, out, err = run(capsys, ["estimate", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and named in err

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

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("bounds", "a", True),
            ("bounds", "b", "0.2"),
            ("financials", "operating_revenue", "500"),
            ("perceptions", "p11", False),
            (None, "grid_points", "201"),
        ],
    )
    def test_booleans_and_strings_in_numeric_fields_exit_2(
        self, capsys, tmp_path, block, key, value
    ):
        payload = json.loads(json.dumps(self.BASE))
        payload["financials"] = {"operating_revenue": 500, "operating_cost": 360}
        payload["perceptions"] = {"p11": 0.5, "p12": 0.5, "p21": 0.5, "p22": 0.5}
        if block is None:
            payload[key] = value
        else:
            payload[block][key] = value
        code, out, err = run(
            capsys, ["estimate", "--config", self.write(tmp_path, payload)]
        )
        assert (code, out) == (2, "")
        assert "must be a number" in err
        assert (f"'{block}.{key}'" if block else f"'{key}'") in err

    @pytest.mark.parametrize("value", [50.9, 2000.5, 1e400])
    def test_non_integral_grid_points_exit_2(self, capsys, tmp_path, value):
        payload = dict(self.BASE, grid_points=value)
        argv = ["posterior", "--config", self.write(tmp_path, payload)]
        out = tmp_path / "curve.csv"
        code, stdout, err = run(capsys, [*argv, "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err == f"error: field 'grid_points' must be an integer, got {value!r}\n"
        assert not out.exists()

    def test_integral_float_grid_points_accepted(self, capsys, tmp_path):
        payload = dict(self.BASE, grid_points=201.0)
        argv = ["posterior", "--config", self.write(tmp_path, payload)]
        code, stdout, _ = run(capsys, [*argv, "--out", str(tmp_path / "curve.csv")])
        assert code == 0
        assert "(201 grid points)" in stdout

    @pytest.mark.parametrize(
        "block, named",
        [
            ({"financials": {}}, "operating_revenue, operating_cost"),
            ({"perceptions": {}}, "p11, p12, p21, p22"),
        ],
    )
    def test_empty_blocks_name_every_missing_field(
        self, capsys, tmp_path, block, named
    ):
        payload = dict(self.BASE, **block)
        code, out, err = run(
            capsys, ["estimate", "--config", self.write(tmp_path, payload)]
        )
        assert (code, out) == (2, "")
        assert err.endswith(f"missing: {named}\n")

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["estimate", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "cannot read config file" in err

    def test_a_config_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [0.0, 0.2, 0.0, 0.8])
        code, out, err = run(capsys, ["estimate", "--config", path])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: config must be a JSON object\n"

    def test_a_block_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, dict(self.BASE, bounds=[0.0, 0.2, 0.0, 0.8]))
        code, out, err = run(capsys, ["estimate", "--config", path])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: field 'bounds' must be an object\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("model", "nash", "model must be one of nbs, case1, case2, got 'nash'"),
            ("risk", "l2", "risk must be one of map, abs, mse, got 'l2'"),
            ("risk", 1, "risk must be one of map, abs, mse, got 1"),
        ],
    )
    def test_an_unknown_model_or_risk_exits_2(
        self, capsys, tmp_path, key, value, message
    ):
        path = self.write(tmp_path, dict(self.BASE, **{key: value}))
        code, out, err = run(capsys, ["estimate", "--config", path])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key, message",
        [
            ("model", "field 'model' is required when no perceptions are given"),
            ("risk", "field 'risk' is required (map, abs, or mse)"),
        ],
    )
    def test_a_missing_model_or_risk_exits_2(self, capsys, tmp_path, key, message):
        payload = {k: v for k, v in self.BASE.items() if k != key}
        code, out, err = run(
            capsys, ["estimate", "--config", self.write(tmp_path, payload)]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


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

    def test_sweep_refuses_perceptions(self, capsys, tmp_path):
        out = tmp_path / "family.csv"
        argv = ["sweep", "--config", self.scenario(tmp_path), "--out", str(out)]
        code, stdout, err = run(capsys, argv)
        assert (code, stdout) == (2, "")
        assert err == "error: sweep supports the named models only, not perceptions\n"
        assert not out.exists()

    def test_perceptions_conflict_with_payoff_driven_models(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["estimate", "--config", self.scenario(tmp_path, {"model": "case1"})],
        )
        assert code == 2
        assert "perception" in err

    def test_deterministic_share_map_is_its_point(self, capsys, tmp_path):
        # alpha = 1 and a point-mass d2: the share is 1 - d2 = 0.9 on the box,
        # which has no density; the mode is that one value, as for abs and mse.
        path = self.scenario(
            tmp_path,
            {
                "bounds": {"a": 0.0, "b": 0.3, "c": 0.1, "d": 0.1},
                "perceptions": {"p11": 1, "p12": 1, "p21": 0, "p22": 0},
                "risk": "map",
            },
        )
        code, out, err = run(capsys, ["estimate", "--config", path])
        assert (code, err) == (0, "")
        assert "party 1 share estimate (theta1): 0.900" in out

    def test_median_on_a_thin_support_meets_its_target(self, capsys, tmp_path):
        # alpha = 0.0045 on a point-mass d1 and a d2 side 1e-6 wide: the
        # support is about 4.5e-9 wide, so one ulp of t moves the CDF by more
        # than 1e-9, and the median's target must count the support's width.
        path = self.scenario(
            tmp_path,
            {
                "bounds": {"a": 0.25, "b": 0.25, "c": 0.1, "d": 0.100001},
                "perceptions": {"p11": 0.018, "p12": 0, "p21": 1, "p22": 1},
                "risk": "abs",
            },
        )
        code, out, err = run(capsys, ["estimate", "--config", path, "--json"])
        assert (code, err) == (0, "")
        alpha = 0.5 + (0.018 - 2.0) / 4.0
        # The share is linear in the uniform d2, so the median is the mean.
        expected = 0.25 + alpha * (1.0 - 0.25 - 0.1000005)
        assert json.loads(out)["theta1"] == pytest.approx(expected, abs=1e-15)

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


    def test_too_many_grid_points_exit_2(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        argv = ["posterior", "--model", "nbs", *GOLDEN_ARGS, "--grid-points", "1000002"]
        code, _, err = run(capsys, [*argv, "--out", str(out)])
        assert code == 2
        assert "grid_points" in err
        assert not out.exists()


class TestScenarioFlags:
    """Each command parses only the scenario flags it reads."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("posterior", ["--risk", "abs"]),
            ("posterior", ["--or", "500"]),
            ("posterior", ["--oc", "360"]),
            ("sweep", ["--or", "500"]),
            ("sweep", ["--oc", "360"]),
            ("sweep", ["--grid-points", "201"]),
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_2(
        self, capsys, tmp_path, command, flag
    ):
        out = tmp_path / "out.csv"
        argv = [command, "--model", "nbs", *GOLDEN_ARGS, "--out", str(out)]
        if command == "sweep":
            argv += ["--risk", "abs"]
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


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
        "bounds, flags, top",
        [
            # The grid stops at b + d = 1, not one step past it (d = 0.81).
            (GOLDEN_ARGS, ["--d-step", "0.03"], 0.78),
            # --d-max is inclusive: 0.6 lies past it.
            (GOLDEN_ARGS, ["--d-max", "0.5", "--d-step", "0.3"], 0.3),
            # round(78.86) steps would reach 0.79 > --d-max and b + d > 1.
            (
                ["--a", "0", "--b", "0.211", "--c", "0", "--d", "0"],
                ["--d-max", "0.7886", "--d-step", "0.01"],
                0.78,
            ),
        ],
    )
    def test_d_grid_stops_at_its_top(self, capsys, tmp_path, bounds, flags, top):
        out = tmp_path / "family.json"
        argv = ["sweep", "--model", "nbs", "--risk", "abs", *bounds, *flags]
        code, _, err = run(capsys, [*argv, "--json", "--out", str(out)])
        assert (code, err) == (0, "")
        d_grid = [point["d"] for point in json.loads(out.read_text())["map_reference"]]
        assert d_grid[-1] == top

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--d-step", "nan"], "--d-step"),
            (["--d-max", "nan"], "--d-max"),
            (["--d-max", "-1"], "--d-max"),
            (["--d-step", "1e-300"], "10001 points"),
        ],
    )
    def test_bad_grid_sizes_exit_2(self, capsys, tmp_path, flags, named):
        out = tmp_path / "family.csv"
        argv = ["sweep", "--model", "nbs", "--risk", "mse", *GOLDEN_ARGS]
        code, _, err = run(capsys, [*argv, *flags, "--out", str(out)])
        assert code == 2
        assert named in err
        assert not out.exists()

    # A c that no d of the grid reaches (d runs from 0 here) was once never
    # checked: the sweep wrote no rows and exited 0, and its JSON mirror held
    # "c": Infinity.  No number at all was an empty sweep.
    @pytest.mark.parametrize(
        "c_values, stderr",
        [
            ("2", "error: each entry of c_values must lie in [0, 1], got 2.0\n"),
            ("inf", "error: each entry of c_values must lie in [0, 1], got inf\n"),
            ("-1", "error: each entry of c_values must lie in [0, 1], got -1.0\n"),
            ("", "error: --c-values expects a comma-separated list of numbers, "
             "got ''\n"),
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_c_values_outside_the_unit_interval_exit_2(
        self, capsys, tmp_path, c_values, stderr, json_flag
    ):
        out = tmp_path / "family.csv"
        argv = ["sweep", "--model", "case1", "--risk", "abs", "--a", "0", "--b", "0.2",
                "--c", "0", "--d", "0", f"--c-values={c_values}", *json_flag]
        code, stdout, err = run(capsys, [*argv, "--out", str(out)])
        assert (code, stdout, err) == (2, "", stderr)
        assert list(tmp_path.iterdir()) == []


class TestNumericalHealth:
    def test_missed_error_target_exits_5(self, capsys, monkeypatch, tmp_path):
        def fail(*args):
            raise NumericalAccuracyError("quadrature missed its error target")

        # A perception-fixed weight is estimated by the numeric engine.
        monkeypatch.setattr(posterior, "numeric_median", fail)
        config = tmp_path / "perception.json"
        config.write_text(
            json.dumps(
                {
                    "bounds": {"a": 0.0, "b": 0.2, "c": 0.0, "d": 0.8},
                    "risk": "abs",
                    "perceptions": {"p11": 0.5, "p12": 0.7, "p21": 0.4, "p22": 0.4},
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["estimate", "--config", str(config)])
        assert code == 5
        assert out == ""
        assert "error: quadrature missed its error target" in err

    def test_unexpected_exception_exits_6_with_its_traceback(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(_cli_reference, "run", crash)
        code, out, err = run(capsys, ["reference"])
        assert code == cli.EXIT_INTERNAL == 6
        assert out == ""
        assert "Traceback" in err and "RuntimeError: unexpected state" in err


@st.composite
def fuzz_side(draw, scale):
    """One payoff interval: a lower end at the given scale (or 0), and a
    width of 0, a few subnormal or tiny absolute sizes, a relative sliver,
    or anything up to the scale."""
    low = draw(st.just(0.0) | st.floats(0.0, 0.25).map(lambda v: v * scale))
    width = draw(
        st.just(0.0)
        | st.sampled_from([5e-324, 1e-310, 1e-300])
        | st.sampled_from([1e-16, 1e-9]).map(lambda r: r * max(low, scale))
        | st.floats(0.0, 0.25).map(lambda v: v * scale)
    )
    return low, low + width


@st.composite
def fuzz_estimate(draw):
    """An ``estimate`` argv, and the perception config it reads, if any."""
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-100, 1e-300]))
    (a, b), (c, d) = draw(fuzz_side(scale)), draw(fuzz_side(scale))
    risk = draw(st.sampled_from(["map", "abs", "mse"]))
    model = draw(st.sampled_from(["nbs", "case1", "case2", "perceptions"]))
    config = None
    argv = ["estimate", "--risk", risk]
    if model == "perceptions":
        score = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        config = {
            "bounds": {"a": a, "b": b, "c": c, "d": d},
            "perceptions": {name: draw(score) for name in ("p11", "p12", "p21", "p22")},
        }
    else:
        argv += ["--model", model]
        for flag, value in zip("abcd", (a, b, c, d)):
            argv += [f"--{flag}", repr(value)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, config


class TestFuzzedEstimates:
    """Valid and invalid boxes down to 5e-324 wide and 1e-300 in scale,
    point masses and origin corners, under every model, risk and a
    perception-fixed weight: ``estimate`` ends in a documented exit code."""

    @settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2))
    @given(fuzz_estimate())
    def test_never_exits_6_and_names_every_error(self, case):
        argv, config = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if config is not None:
                path = Path(tmp) / "scenario.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argv = [*argv, "--config", str(path)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code != cli.EXIT_INTERNAL, err.getvalue()
        if code != cli.EXIT_OK:
            assert err.getvalue().startswith("error: "), err.getvalue()


class TestImports:
    def test_scenario_config_annotations_resolve(self):
        assert typing.get_type_hints(cli.ScenarioConfig)["bounds"] is PayoffBounds

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

    @pytest.mark.parametrize(
        "flags, named",
        [(["--mc-n", "10000001"], "--mc-n"), (["--samples", "100001"], "--samples")],
    )
    def test_oversized_runs_exit_2(self, capsys, flags, named):
        code, out, err = run(capsys, ["verify", *flags])
        assert (code, out) == (2, "")
        assert named in err

    def test_a_gap_over_the_tolerance_fails_with_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(_cli_verify, "_EXACT_TOL", 0.0)
        code, out, err = run(capsys, self.ARGS)
        assert (code, err) == (1, "")
        (result,) = [line for line in out.splitlines() if line.startswith("result:")]
        assert result.startswith("result: FAIL: ")
        assert "exceeds 0.0e+00 (" in result

    def test_a_shifted_monte_carlo_mean_fails_with_exit_1(self, capsys, monkeypatch):
        # Shares shifted by 0.02 put the worst mean 46 standard errors off.
        sample_thetas = montecarlo.sample_thetas

        def shifted(*args, **kwargs):
            return np.clip(sample_thetas(*args, **kwargs) + 0.02, 0.0, 1.0)

        monkeypatch.setattr(montecarlo, "sample_thetas", shifted)
        code, out, err = run(capsys, self.ARGS)
        assert (code, err) == (1, "")
        (result,) = [line for line in out.splitlines() if line.startswith("result:")]
        assert result.startswith("result: FAIL: monte carlo mean exceeds 5 standard")


class TestReferenceCommand:
    def test_all_cells_pass(self, capsys):
        code, out, _ = run(capsys, ["reference"])
        assert code == 0
        assert "result: PASS (all 18 cells match)" in out
        assert out.count(" PASS") >= 9

    def test_a_wrong_golden_value_fails_with_exit_1(self, capsys, monkeypatch):
        golden = dict(_cli_reference._GOLDEN)
        golden[("nbs", "map")] = (0.201, 0.125)
        monkeypatch.setattr(_cli_reference, "_GOLDEN", golden)
        code, out, err = run(capsys, ["reference"])
        assert (code, err) == (1, "")
        assert "nbs    map      0.200     0.201          0.125     0.125  FAIL" in out
        assert out.count("  FAIL") == 1
        assert out.endswith("result: FAIL (1 of 18 cells mismatched)\n")
