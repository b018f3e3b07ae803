"""Command-line interface for royalty-share estimation.

Subcommands, and the module that holds each one's handler and flags:

* ``estimate``  - one point estimate with its overpayment probability
  (here).
* ``posterior`` - tabulate the share pdf/cdf to CSV plus the three
  numeric estimates (``_cli_posterior``).
* ``sweep``     - estimate families over a payoff-bound grid, CSV/JSON
  (``_cli_sweep``).
* ``verify``    - cross-check closed forms against quadrature and Monte
  Carlo on random inputs (``_cli_verify``).
* ``reference`` - reproduce the built-in golden worked example
  (a=0, b=0.2, c=0, d=0.8) and check all 18 cells (``_cli_reference``).

A command's module is imported only when its command runs, and the JSON
config loader (``_cli_config``) only when ``--config`` is given, so a
process that runs ``estimate`` on a named model compiles none of them.
What the commands share, the scenario flags and the exit codes among it,
is in ``_cli_common``.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or
configuration, 3 degenerate model or distribution, 4 filesystem failure,
5 a numeric engine missed its documented error target, 6 an internal
error (the traceback goes to stderr).
Human-readable numbers are shown to three decimals; machine outputs keep
full precision.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from ._cli_common import (
    EXIT_DEGENERATE,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    ScenarioConfig,
    _add_scenario_arguments,
    _describe,
    _scenario_from,
)
from .bargaining import ModelKind, royalty_rate
from .errors import BoundsValidationError, DegeneracyError, NumericalAccuracyError
from .estimators import closed_cdf, estimate

# The engines (posterior, montecarlo) need numpy, which takes longer to
# import than the closed-form commands take to run; each handler imports
# what it uses, so estimate, reference and a closed-form sweep never load it.

__all__ = ["ScenarioConfig", "ConfigError", "build_parser", "main", "entrypoint"]


# --- estimate ---------------------------------------------------------------


def _cmd_estimate(args) -> int:
    config = _scenario_from(args, need_risk=True)
    model = config.model
    if isinstance(model, ModelKind):
        result = estimate(model, config.risk, config.bounds)
        overpayment = closed_cdf(model, config.bounds, result.theta1)
    else:  # a perception-fixed weight has only the numeric engine
        from .posterior import cdf_at, numeric_estimate

        result = numeric_estimate(model, config.risk, config.bounds, config.grid_points)
        overpayment = cdf_at(model, config.bounds, result.theta1)
    rate = None
    if config.financials is not None:
        rate = royalty_rate(result.theta1, config.financials)

    if args.json:
        import json

        payload = {
            "theta1": result.theta1,
            "theta2": result.theta2,
            "royalty_rate": rate,
            "overpayment_prob": overpayment,
            "method_note": result.method_note,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    print(f"model: {_describe(model)}")
    print(f"risk profile: {config.risk.value}")
    print(f"party 1 share estimate (theta1): {result.theta1:.3f}")
    print(f"party 2 share estimate (theta2): {result.theta2:.3f}")
    print(f"overpayment probability P{{theta <= estimate}}: {overpayment:.3f}")
    if rate is not None:
        print(f"royalty rate on revenue: {rate:.3f}")
    print(f"method: {result.method_note}")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------


def _estimate_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "risk", "financials", "grid_points")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.set_defaults(handler=_cmd_estimate)


# Each command: its name, its help line, and what adds its arguments: a
# function here, or the module whose add_arguments does, imported only when
# the parser is built for that command or for all of them.
_COMMANDS = (
    ("estimate", "one point estimate", _estimate_arguments),
    ("posterior", "tabulate the share pdf/cdf", "._cli_posterior"),
    ("sweep", "estimate family over a bound grid", "._cli_sweep"),
    ("verify", "cross-check closed forms on random inputs", "._cli_verify"),
    ("reference", "check the built-in golden worked example", "._cli_reference"),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``command`` names a command, only its
    subparser is built, which is all that a command line starting with it
    can parse; otherwise every command's is."""
    parser = argparse.ArgumentParser(
        prog="nashroyalty",
        description="Royalty-share point estimates under payoff uncertainty",
    )
    named = [entry for entry in _COMMANDS if entry[0] == command]
    # A named command's usage line still lists every command.  The full
    # parser keeps argparse's own metavar, since its errors for a missing or
    # unknown command would otherwise name the argument by it, not "command".
    metavar = "{" + ",".join(name for name, _, _ in _COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_line, add_arguments in named or _COMMANDS:
        if isinstance(add_arguments, str):
            add_arguments = import_module(add_arguments, __package__).add_arguments
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


# The exit code of each error a command may raise on purpose.
_EXIT_CODES = (
    (ConfigError, EXIT_INVALID),
    (BoundsValidationError, EXIT_INVALID),
    (DegeneracyError, EXIT_DEGENERATE),
    (OSError, EXIT_IO),
    (NumericalAccuracyError, EXIT_NUMERICAL),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:
    # No engine makes a BLAS call, but numpy starts one OpenBLAS worker per
    # CPU when it loads, about 65 ms of an engine command's start on 2 CPUs.
    # A value the user sets is kept; main() and library callers leave the
    # environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
