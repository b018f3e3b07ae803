"""Command-line interface for royalty-share estimation.

Subcommands:

* ``estimate``  - one point estimate with its overpayment probability.
* ``posterior`` - tabulate the share pdf/cdf to CSV plus the three
  numeric estimates.
* ``sweep``     - estimate families over a payoff-bound grid (CSV/JSON).
* ``verify``    - cross-check closed forms against quadrature and Monte
  Carlo on random inputs.
* ``reference`` - reproduce the built-in golden worked example
  (a=0, b=0.2, c=0, d=0.8) and check all 18 cells.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or
configuration, 3 degenerate model or distribution, 4 filesystem failure,
5 a numeric engine missed its documented error target, 6 an internal
error (the traceback goes to stderr).
Human-readable numbers are shown to three decimals; machine outputs keep
full precision.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bargaining import (
    FinancialStatement,
    FixedAlphaModel,
    ModelKind,
    PayoffBounds,
    PerceptionMatrix,
    _Record,
    _require_count,
    alpha_from_perceptions,
    as_model_kind,
    as_share_model,
    royalty_rate,
)
from .errors import BoundsValidationError, DegeneracyError, NumericalAccuracyError
from .estimators import (
    RiskProfile,
    as_risk_profile,
    closed_cdf,
    estimate,
    paper_case1_median,
)

# The engines (posterior, montecarlo) need numpy, which takes longer to
# import than the closed-form commands take to run; each handler imports
# what it uses, so estimate, reference and a closed-form sweep never load it.

__all__ = ["ScenarioConfig", "ConfigError", "build_parser", "main", "entrypoint"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5
EXIT_INTERNAL = 6

_EXACT_TOL = 1e-5
# Limit on the worst |MC mean - quadrature mean| / standard error over every
# (box, model) of a verify run: about 3.4e-4 false alarms per default run.
_MC_Z_LIMIT = 5.0

# Size caps that keep every run bounded in time and memory.
_MAX_GRID_POINTS = 1_000_001
_MAX_D_GRID = 10_001
_MAX_MC_N = 10_000_000
_MAX_SAMPLES = 100_000

# Golden worked example: published three-decimal estimates and overpayment
# probabilities for payoff bounds a=0, b=0.2, c=0, d=0.8.  The paper's case1
# abs estimate is its midpoint approximation (paper_case1_median).
_GOLDEN_BOUNDS = (0.0, 0.2, 0.0, 0.8)
_GOLDEN = {
    ("nbs", "map"): (0.200, 0.125),
    ("nbs", "abs"): (0.350, 0.500),
    ("nbs", "mse"): (0.350, 0.500),
    ("case1", "map"): (0.200, 0.308),
    ("case1", "abs"): (0.275, 0.495),
    ("case1", "mse"): (0.300, 0.547),
    ("case2", "map"): (0.200, 0.500),
    ("case2", "abs"): (0.200, 0.500),
    ("case2", "mse"): (0.255, 0.635),
}


class ConfigError(ValueError):
    """A scenario config file or flag set is malformed or inconsistent."""


class ScenarioConfig(_Record):
    """One fully resolved estimation scenario.

    ``model`` is what the engines run: a :class:`ModelKind`, or a
    :class:`FixedAlphaModel` when perception scores fix the weight.
    """

    bounds: PayoffBounds
    model: ModelKind | FixedAlphaModel
    risk: RiskProfile | None
    financials: FinancialStatement | None
    grid_points: int
    __slots__ = tuple(__annotations__)


# Each config block: the record it builds, whose field names are also the
# destinations of its flags, and the message that names missing fields.
_BLOCKS = {
    "bounds": (PayoffBounds, "payoff bounds are required; missing field(s): "),
    "financials": (
        FinancialStatement,
        "financials need both operating_revenue and operating_cost; missing: ",
    ),
    "perceptions": (
        PerceptionMatrix,
        "perceptions need all of p11, p12, p21, p22; missing: ",
    ),
}
_CONFIG_KEYS = {"model", "risk", "grid_points", *_BLOCKS}


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown field(s): {', '.join(unknown)}")


def _load_config_file(path: Path) -> dict:
    import json

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(data, _CONFIG_KEYS, str(path))
    numbers = {"grid_points": data["grid_points"]} if "grid_points" in data else {}
    for block, (kind, _) in _BLOCKS.items():
        if block in data:
            if not isinstance(data[block], dict):
                raise ConfigError(f"{path}: field '{block}' must be an object")
            _check_keys(data[block], set(kind.__slots__), f"{path}: field '{block}'")
            numbers.update((f"{block}.{k}", v) for k, v in data[block].items())
    for name, value in numbers.items():
        # JSON true/false would pass as 1/0 and "0" as 0 further on.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"{path}: field '{name}' must be a number, got {value!r}"
            )
    return data


def _block(data: dict, args, block: str, required: bool = False):
    """The record of one config block with its same-named flags laid over.

    None when the block is neither required, in the config, nor given a
    flag; otherwise every field must be set.
    """
    kind, missing_message = _BLOCKS[block]
    names = kind.__slots__
    flags = {name: getattr(args, name, None) for name in names}
    flags = {name: value for name, value in flags.items() if value is not None}
    if not (required or block in data or flags):
        return None
    values = {**data.get(block, {}), **flags}
    missing = [name for name in names if name not in values]
    if missing:
        raise ConfigError(missing_message + ", ".join(missing))
    return kind(**values)


def _scenario_from(args, need_risk: bool) -> ScenarioConfig:
    data = _load_config_file(args.config) if getattr(args, "config", None) else {}
    bounds = _block(data, args, "bounds", required=True)
    perceptions = _block(data, args, "perceptions")

    model_name = getattr(args, "model", None) or data.get("model")
    if perceptions is not None and model_name not in (None, "nbs"):
        raise ConfigError(
            "perception scores fix the bargaining weight directly; they combine "
            "only with the symmetric model ('nbs') or with 'model' omitted, got "
            f"model {model_name!r}"
        )
    if perceptions is not None:
        model = FixedAlphaModel(alpha_from_perceptions(perceptions))
    elif model_name is None:
        raise ConfigError("field 'model' is required when no perceptions are given")
    else:
        model = as_model_kind(model_name)

    risk_name = getattr(args, "risk", None) or data.get("risk")
    risk = None if risk_name is None else as_risk_profile(risk_name)
    if need_risk and risk is None:
        raise ConfigError("field 'risk' is required (map, abs, or mse)")

    grid_points = getattr(args, "grid_points", None)
    if grid_points is None:
        grid_points = data.get("grid_points", 2001)
    return ScenarioConfig(
        bounds=bounds,
        model=model,
        risk=risk,
        financials=_block(data, args, "financials"),
        grid_points=_require_count(
            "field 'grid_points'", grid_points, 3, _MAX_GRID_POINTS
        ),
    )


def _describe(model: ModelKind | FixedAlphaModel) -> str:
    if isinstance(model, FixedAlphaModel):
        return f"nbs with perception-fixed weight alpha = {model.alpha:.3f}"
    return model.value


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


# --- posterior --------------------------------------------------------------


def _cmd_posterior(args) -> int:
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


# --- sweep ------------------------------------------------------------------


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(
            f"{flag} expects a comma-separated list of numbers, got {text!r}"
        ) from None


def _cmd_sweep(args) -> int:
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


# --- verify -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    import numpy as np

    from .montecarlo import random_valid_bounds, sample_thetas
    from .posterior import _cdf, numeric_estimate

    samples = _require_count("--samples", args.samples, 1, _MAX_SAMPLES)
    mc_n = _require_count("--mc-n", args.mc_n, 2, _MAX_MC_N)
    seed = _require_count("--seed", args.seed, 0)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tuples = [random_valid_bounds(rng) for _ in range(samples)]

    risks = (RiskProfile.ABS, RiskProfile.MSE)
    worst = {(model, risk): 0.0 for model in ModelKind for risk in risks}
    worst_cdf = dict.fromkeys(ModelKind, 0.0)
    worst_z = 0.0

    for index, bounds in enumerate(tuples):
        for model in ModelKind:
            closed = {
                risk: estimate(model, risk, bounds).theta1 for risk in RiskProfile
            }
            numeric = {
                risk: numeric_estimate(model, risk, bounds).theta1 for risk in risks
            }
            # The overpayment probability of each estimate, both ways.
            ts = list(closed.values())
            numeric_cdf = _cdf(as_share_model(model), bounds, np.array(ts))
            for t, prob in zip(ts, numeric_cdf):
                gap = abs(closed_cdf(model, bounds, t) - float(prob))
                worst_cdf[model] = max(worst_cdf[model], gap)
            draws = sample_thetas(model, bounds, mc_n, seed=seed + 1 + index)
            se = float(draws.std(ddof=1)) / (mc_n**0.5)
            if se > 0.0:
                z = abs(float(draws.mean()) - numeric[RiskProfile.MSE]) / se
                worst_z = max(worst_z, z)
            for risk, value in numeric.items():
                gap = abs(closed[risk] - value)
                worst[(model, risk)] = max(worst[(model, risk)], gap)

    lines = [
        "verification report",
        f"  tuples: {samples}  seed: {seed}  mc draws per tuple: {mc_n}",
        f"  exact closed forms vs quadrature (tolerance {_EXACT_TOL:.1e}):",
    ]
    failures = []
    exact = [(model, risk.value, gap) for (model, risk), gap in worst.items()]
    exact += [(model, "cdf", gap) for model, gap in worst_cdf.items()]
    for model, check, gap in exact:
        lines.append(
            f"    {model.value:<5} {check}: max |closed - numeric| = {gap:.3e}"
        )
        if gap > _EXACT_TOL:
            failures.append(
                f"{model.value} {check} exceeds {_EXACT_TOL:.1e} ({gap:.3e})"
            )
    lines.append("  monte carlo mean vs quadrature mean:")
    lines.append(f"    worst |difference| / standard error = {worst_z:.2f}")
    if worst_z > _MC_Z_LIMIT:
        failures.append(
            f"monte carlo mean exceeds {_MC_Z_LIMIT:g} standard errors ({worst_z:.2f})"
        )
    lines.append("result: " + ("FAIL: " + "; ".join(failures) if failures else "PASS"))
    print("\n".join(lines))
    return EXIT_MISMATCH if failures else EXIT_OK


# --- reference --------------------------------------------------------------


def _cmd_reference(args) -> int:
    bounds = PayoffBounds(*_GOLDEN_BOUNDS)
    print(
        "golden worked example: a=0, b=0.2, c=0, d=0.8 "
        "(estimates and overpayment probabilities, 3 decimals)"
    )
    print("model  risk  estimate  expected  P{theta<=est}  expected  status")
    bad = 0
    for (model, risk), (theta_expected, prob_expected) in _GOLDEN.items():
        if (model, risk) == ("case1", "abs"):
            theta = paper_case1_median(bounds).theta1
        else:
            theta = estimate(model, risk, bounds).theta1
        prob = closed_cdf(model, bounds, theta)
        est_ok = abs(round(theta, 3) - theta_expected) <= 5.0e-4
        prob_ok = abs(round(prob, 3) - prob_expected) <= 5.0e-4
        bad += (not est_ok) + (not prob_ok)
        status = "PASS" if est_ok and prob_ok else "FAIL"
        print(
            f"{model:<6} {risk:<4}  {theta:>8.3f}  {theta_expected:>8.3f}  "
            f"{prob:>13.3f}  {prob_expected:>8.3f}  {status}"
        )
    total = 2 * len(_GOLDEN)
    if bad:
        print(f"result: FAIL ({bad} of {total} cells mismatched)")
        return EXIT_MISMATCH
    print(f"result: PASS (all {total} cells match)")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------


def _add_scenario_arguments(parser: argparse.ArgumentParser, *reads: str) -> None:
    """``--config``, ``--model``, the bounds, and the flags of those of
    ``risk``, ``financials`` and ``grid_points`` that the command reads."""
    parser.add_argument("--config", type=Path, help="JSON scenario config file")
    parser.add_argument("--model", choices=[m.value for m in ModelKind])
    if "risk" in reads:
        parser.add_argument("--risk", choices=[r.value for r in RiskProfile])
    parser.add_argument("--a", type=float, help="lower bound of party 1's payoff")
    parser.add_argument("--b", type=float, help="upper bound of party 1's payoff")
    parser.add_argument("--c", type=float, help="lower bound of party 2's payoff")
    parser.add_argument("--d", type=float, help="upper bound of party 2's payoff")
    if "financials" in reads:
        parser.add_argument(
            "--or", dest="operating_revenue", type=float, help="operating revenue"
        )
        parser.add_argument(
            "--oc", dest="operating_cost", type=float, help="operating cost"
        )
    if "grid_points" in reads:
        parser.add_argument("--grid-points", dest="grid_points", type=int)


def _estimate_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "risk", "financials", "grid_points")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.set_defaults(handler=_cmd_estimate)


def _posterior_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_arguments(parser, "grid_points")
    parser.add_argument("--out", required=True, type=Path, help="output CSV path")
    parser.set_defaults(handler=_cmd_posterior)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
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
    parser.set_defaults(handler=_cmd_sweep)


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mc-n", dest="mc_n", type=int, default=20000)
    parser.set_defaults(handler=_cmd_verify)


def _reference_arguments(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=_cmd_reference)


# Each command: its name, its help line, and what adds its arguments.
_COMMANDS = (
    ("estimate", "one point estimate", _estimate_arguments),
    ("posterior", "tabulate the share pdf/cdf", _posterior_arguments),
    ("sweep", "estimate family over a bound grid", _sweep_arguments),
    ("verify", "cross-check closed forms on random inputs", _verify_arguments),
    ("reference", "check the built-in golden worked example", _reference_arguments),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Every command is listed, but when ``command`` names
    one of them only that command gets its arguments, which is all that a
    command line starting with it can parse; otherwise every command does."""
    parser = argparse.ArgumentParser(
        prog="nashroyalty",
        description="Royalty-share point estimates under payoff uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = any(command == name for name, _, _ in _COMMANDS)
    for name, help_line, add_arguments in _COMMANDS:
        command_parser = sub.add_parser(name, help=help_line)
        if not named or command == name:
            add_arguments(command_parser)
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
