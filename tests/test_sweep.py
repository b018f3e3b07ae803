"""Sweep tables: grid construction, omission rules, serialization."""

import hashlib
import json

import numpy as np
import pytest

from nashroyalty import (
    ModelKind,
    OutOfRangeError,
    RiskProfile,
    SurplusViolationError,
    estimate,
    family_sweep,
    theta_model,
    to_json_dict,
    validate_bounds,
    write_csv,
    write_json,
    write_map_csv,
)
from nashroyalty.estimators import paper_case1_median


def single_cell(model, risk, c, d, engine="closed_form"):
    table = family_sweep(
        model, risk, 0.0, 0.2, c_values=[c], d_grid=[d], engine=engine
    )
    (series,) = table.series
    (row,) = series.rows
    return row.theta_hat


class TestCellValues:
    def test_golden_cells(self):
        assert single_cell(ModelKind.NBS, RiskProfile.ABS, 0.0, 0.8) == pytest.approx(
            0.35, abs=1e-12
        )
        assert single_cell(ModelKind.CASE2, RiskProfile.ABS, 0.0, 0.8) == pytest.approx(
            0.2, abs=1e-12
        )
        assert single_cell(ModelKind.CASE1, RiskProfile.MSE, 0.0, 0.8) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_degenerate_point_cell_value(self):
        # c = d = 0 collapses party 2 to a sure zero payoff.
        value = single_cell(ModelKind.CASE1, RiskProfile.MSE, 0.0, 0.0)
        assert value == pytest.approx(89.0 / 150.0, abs=1e-12)
        assert round(value, 3) == 0.593


class TestGridConstruction:
    def test_default_grid_shape(self):
        table = family_sweep(ModelKind.NBS, RiskProfile.ABS, 0.0, 0.2)
        assert [series.c for series in table.series] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        )
        assert len(table.series[0].rows) == 81
        assert table.series[0].rows[0].d == 0.0
        assert table.series[0].rows[-1].d == 0.8

    def test_cells_below_the_series_lower_bound_are_skipped(self):
        table = family_sweep(ModelKind.NBS, RiskProfile.ABS, 0.0, 0.2)
        by_c = {series.c: series.rows for series in table.series}
        assert len(by_c[0.1]) == 71
        assert by_c[0.1][0].d == 0.1
        assert len(by_c[0.7]) == 11

    def test_estimates_nonincreasing_along_each_series(self):
        for model in ModelKind:
            table = family_sweep(model, RiskProfile.MSE, 0.0, 0.2)
            for series in table.series:
                values = [row.theta_hat for row in series.rows]
                for earlier, later in zip(values, values[1:]):
                    assert later <= earlier + 1e-12

    def test_rows_match_direct_estimates(self):
        table = family_sweep(ModelKind.CASE2, RiskProfile.MSE, 0.0, 0.2)
        for series in table.series:
            for row in series.rows:
                bounds = validate_bounds(0.0, 0.2, series.c, row.d)
                assert row.theta_hat == estimate(
                    ModelKind.CASE2, RiskProfile.MSE, bounds
                ).theta1

    def test_undefined_cells_are_omitted_with_a_reason(self):
        table = family_sweep(
            ModelKind.CASE2,
            RiskProfile.MSE,
            0.0,
            0.0,
            c_values=[0.0],
            d_grid=[0.0, 0.1, 0.2],
        )
        (cell,) = table.omitted
        assert (cell.c, cell.d) == (0.0, 0.0)
        assert "identically 0" in cell.reason
        (series,) = table.series
        assert [row.d for row in series.rows] == [0.1, 0.2]
        assert all(row.theta_hat == 0.0 for row in series.rows)
        # The undefined d = 0 reference point is skipped as well.
        assert [point.d for point in table.map_reference] == [0.1, 0.2]
        assert all(point.theta_map == 0.0 for point in table.map_reference)

    def test_numpy_scalar_bounds_meet_the_origin_without_a_warning(self):
        # The suite fails on any warning, and numpy warns on 0 / 0.
        zero = np.float64(0.0)
        table = family_sweep(
            ModelKind.CASE2, RiskProfile.MAP, zero, zero, [0.0], [0.0, 0.1]
        )
        assert [point.d for point in table.map_reference] == [0.1]
        assert type(table.a) is type(table.b) is float

    def test_map_reference_is_the_upper_corner_share(self):
        table = family_sweep(ModelKind.CASE2, RiskProfile.ABS, 0.0, 0.2)
        assert len(table.map_reference) == 81
        for point in table.map_reference:
            assert point.theta_map == theta_model(ModelKind.CASE2, 0.2, point.d)
        assert table.map_reference[0].theta_map == 1.0  # d = 0, b > 0

    def test_oversized_caller_grid_names_the_cell(self):
        with pytest.raises(SurplusViolationError, match=r"sweep cell \(c=0.0, d=0.6\)"):
            family_sweep(
                ModelKind.NBS, RiskProfile.ABS, 0.0, 0.5, c_values=[0.0], d_grid=[0.6]
            )

    @pytest.mark.parametrize("entry", ["x", None])
    @pytest.mark.parametrize("grid", ["c_values", "d_grid"])
    def test_an_entry_that_is_not_a_number_is_named(self, grid, entry):
        with pytest.raises(OutOfRangeError, match=f"entry of {grid} must be a number"):
            family_sweep(ModelKind.NBS, RiskProfile.ABS, 0.0, 0.2, **{grid: [entry]})

    @pytest.mark.parametrize("c", [2.0, float("inf"), -1.0, float("nan")])
    def test_a_c_that_no_d_reaches_is_still_checked(self, c):
        with pytest.raises(OutOfRangeError, match="entry of c_values must lie in"):
            family_sweep("case1", "abs", 0.0, 0.2, c_values=[0.0, c], d_grid=[0.0])

    @pytest.mark.parametrize("grid", ["c_values", "d_grid"])
    def test_a_grid_that_is_not_iterable_is_named(self, grid):
        with pytest.raises(OutOfRangeError, match=f"{grid} must be a sequence"):
            family_sweep("nbs", "abs", 0.0, 0.2, **{grid: 5})

    def test_unknown_engine_rejected(self):
        with pytest.raises(OutOfRangeError):
            family_sweep(ModelKind.NBS, RiskProfile.ABS, 0.0, 0.2, engine="exact")


class TestEngineAgreement:
    CELLS = ((0.0, 0.4), (0.1, 0.8))

    @pytest.mark.parametrize("model", [ModelKind.NBS, ModelKind.CASE2, ModelKind.CASE1])
    @pytest.mark.parametrize("risk", [RiskProfile.ABS, RiskProfile.MSE])
    def test_numeric_engine_confirms_exact_closed_forms(self, model, risk):
        for c, d in self.CELLS:
            closed = single_cell(model, risk, c, d)
            numeric = single_cell(model, risk, c, d, engine="numeric")
            assert numeric == pytest.approx(closed, abs=1e-6)

    def test_outside_option_median_approximation_within_percent_band(self):
        # The paper's midpoint rule; the sweep's closed forms are exact.
        for c, d in self.CELLS:
            closed = paper_case1_median(validate_bounds(0.0, 0.2, c, d)).theta1
            numeric = single_cell(
                ModelKind.CASE1, RiskProfile.ABS, c, d, engine="numeric"
            )
            assert abs(closed - numeric) / numeric <= 0.04

    def test_engines_agree_on_point_mass_cells(self):
        # a = b and the c = d cells give deterministic shares, whose numeric
        # mode is the point, as the closed form's is.
        args = (ModelKind.NBS, RiskProfile.MAP, 0.1, 0.1)
        numeric = family_sweep(*args, engine="numeric")
        closed = family_sweep(*args)
        assert sum(len(block.rows) for block in closed.series) == 368
        assert numeric == closed

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_numeric_mode_hits_the_corner_exactly(self, model):
        closed = single_cell(model, RiskProfile.MAP, 0.0, 0.8)
        numeric = single_cell(model, RiskProfile.MAP, 0.0, 0.8, engine="numeric")
        assert numeric == closed


class TestSerialization:
    @pytest.fixture()
    def table(self):
        return family_sweep(
            ModelKind.CASE2,
            RiskProfile.MSE,
            0.0,
            0.2,
            c_values=[0.0, 0.3],
            d_grid=[0.0, 0.3, 0.8],
        )

    def test_csv_round_trips_floats_exactly(self, table, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(table, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "model,risk,a,b,c,d,theta_hat"
        parsed = [line.split(",") for line in lines[1:]]
        expected = [
            (series.c, row.d, row.theta_hat)
            for series in table.series
            for row in series.rows
        ]
        assert len(parsed) == len(expected)
        for fields, (c, d, theta) in zip(parsed, expected):
            assert fields[0] == "case2"
            assert fields[1] == "mse"
            assert float(fields[4]) == c
            assert float(fields[5]) == d
            assert float(fields[6]) == theta

    def test_map_csv(self, table, tmp_path):
        path = tmp_path / "sweep.map.csv"
        write_map_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "d,theta_map"
        assert len(lines) == 1 + len(table.map_reference)
        for line, point in zip(lines[1:], table.map_reference):
            d_text, theta_text = line.split(",")
            assert float(d_text) == point.d
            assert float(theta_text) == point.theta_map

    def test_json_mirrors_the_table(self, table, tmp_path):
        payload = to_json_dict(table)
        assert payload["model"] == "case2"
        assert payload["risk"] == "mse"
        assert [block["c"] for block in payload["series"]] == [0.0, 0.3]
        assert payload["series"][1]["rows"] == [
            {"d": row.d, "theta_hat": row.theta_hat}
            for row in table.series[1].rows
        ]
        path = tmp_path / "sweep.json"
        write_json(table, path)
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_json_writes_are_byte_identical(self, table, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        write_json(table, first)
        write_json(table, second)
        assert first.read_bytes() == second.read_bytes()


# SHA-256 of write_json's bytes.  The JSON mirror's keys, their order,
# nesting and float text are its file format, so no byte may move.
JSON_PINS = {
    "case1_abs_default": (
        lambda: family_sweep(ModelKind.CASE1, RiskProfile.ABS, 0.0, 0.2),
        "b410a8b4ab3719d0ec7125c1bd7bbb349529d7d19bed81349705e0ed6b810643",
    ),
    "case2_omitted_origin": (
        lambda: family_sweep(
            ModelKind.CASE2,
            RiskProfile.MSE,
            0.0,
            0.0,
            c_values=[0.0, 0.1],
            d_grid=[0.0, 0.1, 0.2],
        ),
        "869b501fb8fdb874105ee39345637a43360c69f56f078b866e535a3bce6e8d0c",
    ),
}


@pytest.mark.parametrize("name", list(JSON_PINS))
def test_json_bytes_are_pinned(name, tmp_path):
    make, digest = JSON_PINS[name]
    table = make()
    path = tmp_path / "sweep.json"
    write_json(table, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    if name == "case2_omitted_origin":
        assert [(cell.c, cell.d) for cell in table.omitted] == [(0.0, 0.0)]
