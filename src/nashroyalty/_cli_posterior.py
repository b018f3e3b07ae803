"""The ``posterior`` command: tabulate the share pdf/cdf to CSV plus the
three numeric estimates."""

from __future__ import annotations

import argparse
from pathlib import Path

from ._cli_common import EXIT_OK, _add_scenario_arguments, _describe, _scenario_from


def run(args) -> int:
    from .posterior import (
        cdf_at,
        mode_from_curve,
        numeric_mean,
        numeric_median,
        pdf_curve,
    )
    from .sweep import write_rows

    config = _scenario_from(args, need_risk=False)
    model = config.model
    bounds = config.bounds
    curve = pdf_curve(model, bounds, config.grid_points)

    write_rows(args.out, "theta,pdf,cdf", zip(curve.thetas, curve.pdf, curve.cdf))

    mode = mode_from_curve(curve)
    median = numeric_median(model, bounds)
    mean = numeric_mean(model, bounds)
    print(
        f"wrote posterior curve ({config.grid_points} grid points) to {args.out}"
    )
    print(f"model: {_describe(model)}")
    plateau_note = " [plateau]" if mode.plateau else ""
    for label, value, extra in (
        ("mode   (MAP)", mode.value, plateau_note),
        ("median (ABS)", median, ""),
        ("mean   (MSE)", mean, ""),
    ):
        prob = cdf_at(model, bounds, value)
        print(
            f"  {label}: {value:.3f}{extra}  "
            f"overpayment probability: {prob:.3f}"
        )
    return EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "grid_points")
    parser.add_argument("--out", required=True, type=Path, help="output CSV path")
    parser.set_defaults(handler=run)
