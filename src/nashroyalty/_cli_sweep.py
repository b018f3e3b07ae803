"""The ``sweep`` command: estimate families over a payoff-bound grid
(CSV/JSON)."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ._cli_common import EXIT_OK, ConfigError, _add_scenario_arguments, _scenario_from
from .bargaining import ModelKind

_MAX_D_GRID = 10_001


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        values = ()
    if not values:
        raise ConfigError(
            f"{flag} expects a comma-separated list of numbers, got {text!r}"
        )
    return values


def run(args) -> int:
    from .sweep import _grid, family_sweep, write_csv, write_json, write_map_csv

    config = _scenario_from(args, need_risk=True)
    if not isinstance(config.model, ModelKind):
        raise ConfigError("sweep supports the named models only, not perceptions")
    c_values = None
    if args.c_values is not None:
        c_values = _parse_float_list(args.c_values, "--c-values")
    d_grid = None
    if args.d_max is not None or args.d_step is not None:
        step = args.d_step if args.d_step is not None else 0.01
        top = args.d_max if args.d_max is not None else 1.0 - config.bounds.b
        if not (math.isfinite(step) and step > 0.0):
            raise ConfigError(f"--d-step must be a positive number, got {step!r}")
        if not (math.isfinite(top) and top >= 0.0):
            raise ConfigError(f"--d-max must be a nonnegative number, got {top!r}")
        ratio = top / step  # inf when the step is far below the range
        count = round(ratio) + 1 if math.isfinite(ratio) else math.inf
        if count > _MAX_D_GRID:
            raise ConfigError(
                f"a d grid up to {top!r} in steps of {step!r} has more than "
                f"{_MAX_D_GRID} points (--d-max / --d-step)"
            )
        if round(step, 12) != step:  # else the rounded grid is uneven
            raise ConfigError(
                "--d-step must have at most 12 decimals, the d grid's "
                f"rounding, got {step!r}"
            )
        d_grid = _grid(step, top)
    table = family_sweep(
        config.model,
        config.risk,
        config.bounds.a,
        config.bounds.b,
        c_values=c_values,
        d_grid=d_grid,
        engine=args.engine,
    )
    for cell in table.omitted:
        print(
            f"note: omitted cell c={cell.c:g}, d={cell.d:g}: {cell.reason}",
            file=sys.stderr,
        )
    out = Path(args.out)
    if args.json:
        write_json(table, out)
        print(f"wrote sweep table (JSON) to {out}")
    else:
        write_csv(table, out)
        map_out = out.with_suffix(".map.csv")
        write_map_csv(table, map_out)
        rows = sum(len(block.rows) for block in table.series)
        print(f"wrote {rows} sweep rows to {out}")
        print(f"wrote {len(table.map_reference)} map-reference points to {map_out}")
    return EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "risk")
    parser.add_argument("--c-values", dest="c_values", help="comma-separated list")
    parser.add_argument("--d-max", dest="d_max", type=float)
    parser.add_argument("--d-step", dest="d_step", type=float)
    parser.add_argument(
        "--engine", choices=["closed_form", "numeric"], default="closed_form"
    )
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument(
        "--json", action="store_true", help="write the JSON mirror instead of CSV"
    )
    parser.set_defaults(handler=run)
