"""The ``posterior`` command: tabulate the share pdf/cdf to CSV plus the
three numeric estimates."""

from __future__ import annotations

import argparse
from pathlib import Path

from ._cli_common import EXIT_OK, _add_scenario_arguments, _describe, _scenario_from


def run(args) -> int:
    import numpy as np

    from .posterior import _cdf, _curve, _mean, _median, _Rectangle
    from .sweep import write_rows

    config = _scenario_from(args, need_risk=False)
    model = config.model
    rect = _Rectangle(model, config.bounds)
    curve = _curve(rect, config.grid_points)
    mode = curve.mode
    values = mode.value, _median(rect), _mean(rect)
    probs = _cdf(rect, np.array(values)).tolist()
    # Written only once every value is in hand: an engine error leaves no file.
    write_rows(args.out, "theta,pdf,cdf", zip(curve.thetas, curve.pdf, curve.cdf))

    print(f"wrote posterior curve ({config.grid_points} grid points) to {args.out}")
    print(f"model: {_describe(model)}")
    labels = "mode   (MAP)", "median (ABS)", "mean   (MSE)"
    notes = " [plateau]" if mode.plateau else "", "", ""
    for label, value, note, prob in zip(labels, values, notes, probs):
        print(f"  {label}: {value:.3f}{note}  overpayment probability: {prob:.3f}")
    return EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "grid_points")
    parser.add_argument("--out", required=True, type=Path, help="output CSV path")
    parser.set_defaults(handler=run)
