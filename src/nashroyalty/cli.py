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
5 a numeric engine missed its documented error target.
Human-readable numbers are shown to three decimals; machine outputs keep
full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bargaining import (
    FinancialStatement,
    ModelKind,
    PerceptionMatrix,
    alpha_from_perceptions,
    royalty_rate,
    validate_bounds,
)
from .errors import BoundsValidationError, DegeneracyError, NumericalAccuracyError
from .estimators import NOTE_NUMERIC, EstimateResult, RiskProfile, estimate
from .montecarlo import random_valid_bounds, sample_thetas
from .posterior import (
    FixedAlphaModel,
    cdf_at,
    mode_from_curve,
    numeric_mean,
    numeric_median,
    numeric_mode,
    pdf_curve,
)
from .sweep import family_sweep, write_csv, write_json, write_map_csv

__all__ = ["ScenarioConfig", "ConfigError", "build_parser", "main", "entrypoint"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

_EXACT_TOL = 1e-5
_CASE1_ABS_REL_TOL = 0.04

# Size caps that keep every run bounded in time and memory.
_MAX_GRID_POINTS = 1_000_001
_MAX_D_GRID = 10_001

# Golden worked example: published three-decimal estimates and overpayment
# probabilities for payoff bounds a=0, b=0.2, c=0, d=0.8.
_GOLDEN_BOUNDS = (0.0, 0.2, 0.0, 0.8)
_GOLDEN_ESTIMATES = {
    ("nbs", "map"): 0.200,
    ("nbs", "abs"): 0.350,
    ("nbs", "mse"): 0.350,
    ("case1", "map"): 0.200,
    ("case1", "abs"): 0.275,
    ("case1", "mse"): 0.300,
    ("case2", "map"): 0.200,
    ("case2", "abs"): 0.200,
    ("case2", "mse"): 0.255,
}
_GOLDEN_OVERPAYMENT = {
    ("nbs", "map"): 0.125,
    ("nbs", "abs"): 0.500,
    ("nbs", "mse"): 0.500,
    ("case1", "map"): 0.308,
    ("case1", "abs"): 0.495,
    ("case1", "mse"): 0.547,
    ("case2", "map"): 0.500,
    ("case2", "abs"): 0.500,
    ("case2", "mse"): 0.635,
}


class ConfigError(ValueError):
    """A scenario config file or flag set is malformed or inconsistent."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved estimation scenario."""

    bounds: PayoffBounds
    model: ModelKind | None
    risk: RiskProfile | None
    financials: FinancialStatement | None = None
    perceptions: PerceptionMatrix | None = None
    mc_n: int = 1_000_000
    seed: int = 42
    grid_points: int = 2001


_CONFIG_KEYS = {
    "bounds",
    "model",
    "risk",
    "financials",
    "perceptions",
    "mc_n",
    "seed",
    "grid_points",
}


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown field(s): {', '.join(unknown)}")


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(data, _CONFIG_KEYS, str(path))
    for block, keys in (
        ("bounds", {"a", "b", "c", "d"}),
        ("financials", {"operating_revenue", "operating_cost"}),
        ("perceptions", {"p11", "p12", "p21", "p22"}),
    ):
        if block in data:
            if not isinstance(data[block], dict):
                raise ConfigError(f"{path}: field '{block}' must be an object")
            _check_keys(data[block], keys, f"{path}: field '{block}'")
    return data


def _positive_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{name}' must be an integer, got {value!r}") from None
    if value < minimum:
        raise ConfigError(f"field '{name}' must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"field '{name}' must be at most {maximum}, got {value}")
    return value


def _scenario_from(args, need_risk: bool) -> ScenarioConfig:
    data = _load_config_file(args.config) if getattr(args, "config", None) else {}

    bounds_map = dict(data.get("bounds", {}))
    for name in ("a", "b", "c", "d"):
        override = getattr(args, name, None)
        if override is not None:
            bounds_map[name] = override
    missing = [k for k in ("a", "b", "c", "d") if k not in bounds_map]
    if missing:
        raise ConfigError(
            "payoff bounds are required; missing field(s): " + ", ".join(missing)
        )
    bounds = validate_bounds(
        bounds_map["a"], bounds_map["b"], bounds_map["c"], bounds_map["d"]
    )

    perceptions = None
    if "perceptions" in data:
        missing = [
            k for k in ("p11", "p12", "p21", "p22") if k not in data["perceptions"]
        ]
        if missing:
            raise ConfigError(
                "perceptions need all of p11, p12, p21, p22; missing: "
                + ", ".join(missing)
            )
        perceptions = PerceptionMatrix(**data["perceptions"])

    model_name = getattr(args, "model", None) or data.get("model")
    if perceptions is not None and model_name not in (None, "nbs"):
        raise ConfigError(
            "perception scores fix the bargaining weight directly; they combine "
            "only with the symmetric model ('nbs') or with 'model' omitted, got "
            f"model {model_name!r}"
        )
    model = None
    if model_name is not None:
        try:
            model = ModelKind(model_name)
        except ValueError:
            raise ConfigError(
                f"field 'model' must be one of nbs, case1, case2; got {model_name!r}"
            ) from None
    if model is None and perceptions is None:
        raise ConfigError("field 'model' is required when no perceptions are given")

    risk_name = getattr(args, "risk", None) or data.get("risk")
    risk = None
    if risk_name is not None:
        try:
            risk = RiskProfile(risk_name)
        except ValueError:
            raise ConfigError(
                f"field 'risk' must be one of map, abs, mse; got {risk_name!r}"
            ) from None
    if need_risk and risk is None:
        raise ConfigError("field 'risk' is required (map, abs, or mse)")

    fin_map = dict(data.get("financials", {}))
    if getattr(args, "operating_revenue", None) is not None:
        fin_map["operating_revenue"] = args.operating_revenue
    if getattr(args, "operating_cost", None) is not None:
        fin_map["operating_cost"] = args.operating_cost
    financials = None
    if fin_map:
        missing = [
            k for k in ("operating_revenue", "operating_cost") if k not in fin_map
        ]
        if missing:
            raise ConfigError(
                "financials need both operating_revenue and operating_cost; "
                "missing: " + ", ".join(missing)
            )
        financials = FinancialStatement(**fin_map)

    def setting(name: str, default: int, minimum: int, maximum=None) -> int:
        override = getattr(args, name, None)
        if override is not None:
            return _positive_int(name, override, minimum, maximum)
        if name in data:
            return _positive_int(name, data[name], minimum, maximum)
        return default

    return ScenarioConfig(
        bounds=bounds,
        model=model,
        risk=risk,
        financials=financials,
        perceptions=perceptions,
        mc_n=setting("mc_n", 1_000_000, 1),
        seed=setting("seed", 42, 0),
        grid_points=setting("grid_points", 2001, 3, _MAX_GRID_POINTS),
    )


def _engine_model(config: ScenarioConfig):
    """The model object driving the posterior engine for this scenario."""
    if config.perceptions is not None:
        return FixedAlphaModel(alpha_from_perceptions(config.perceptions))
    return config.model


def _model_label(config: ScenarioConfig) -> str:
    if config.perceptions is not None:
        alpha = alpha_from_perceptions(config.perceptions)
        return f"nbs with perception-fixed weight alpha = {alpha:.3f}"
    return config.model.value


# --- estimate ---------------------------------------------------------------


def _numeric_estimate(model, config: ScenarioConfig) -> EstimateResult:
    if config.risk is RiskProfile.MAP:
        value = numeric_mode(model, config.bounds, config.grid_points).value
    elif config.risk is RiskProfile.ABS:
        value = numeric_median(model, config.bounds)
    else:
        value = numeric_mean(model, config.bounds)
    value = min(1.0, max(0.0, float(value)))
    return EstimateResult(theta1=value, theta2=1.0 - value, method_note=NOTE_NUMERIC)


def _cmd_estimate(args) -> int:
    config = _scenario_from(args, need_risk=True)
    model = _engine_model(config)
    if config.perceptions is not None:
        result = _numeric_estimate(model, config)
    else:
        result = estimate(config.model, config.risk, config.bounds)
    overpayment = cdf_at(model, config.bounds, result.theta1)
    rate = None
    if config.financials is not None:
        rate = royalty_rate(result.theta1, config.financials)
    result = dataclasses.replace(
        result, overpayment_prob=overpayment, royalty_rate=rate
    )

    if args.json:
        payload = {
            "theta1": result.theta1,
            "theta2": result.theta2,
            "royalty_rate": result.royalty_rate,
            "overpayment_prob": result.overpayment_prob,
            "method_note": result.method_note,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    print(f"model: {_model_label(config)}")
    print(f"risk profile: {config.risk.value}")
    print(f"party 1 share estimate (theta1): {result.theta1:.3f}")
    print(f"party 2 share estimate (theta2): {result.theta2:.3f}")
    print(
        "overpayment probability P{theta <= estimate}: "
        f"{result.overpayment_prob:.3f}"
    )
    if rate is not None:
        print(f"royalty rate on revenue: {rate:.3f}")
    print(f"method: {result.method_note}")
    return EXIT_OK


# --- posterior --------------------------------------------------------------


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _cmd_posterior(args) -> int:
    config = _scenario_from(args, need_risk=False)
    model = _engine_model(config)
    bounds = config.bounds
    curve = pdf_curve(model, bounds, config.grid_points)

    lines = ["theta,pdf,cdf"]
    for t, p, f in zip(curve.thetas, curve.pdf, curve.cdf):
        lines.append(",".join((_fmt17(t), _fmt17(p), _fmt17(f))))
    Path(args.out).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

    mode = mode_from_curve(curve)
    median = numeric_median(model, bounds)
    mean = numeric_mean(model, bounds)
    print(
        f"wrote posterior curve ({config.grid_points} grid points) to {args.out}"
    )
    print(f"model: {_model_label(config)}")
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
    config = _scenario_from(args, need_risk=True)
    if config.perceptions is not None:
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
        d_grid = tuple(round(k * step, 12) for k in range(count))
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
    samples = _positive_int("samples", args.samples, 1)
    mc_n = _positive_int("mc_n", args.mc_n, 2)
    seed = _positive_int("seed", args.seed, 0)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tuples = [random_valid_bounds(rng) for _ in range(samples)]

    exact_pairs = [
        (ModelKind.NBS, RiskProfile.ABS),
        (ModelKind.NBS, RiskProfile.MSE),
        (ModelKind.CASE1, RiskProfile.MSE),
        (ModelKind.CASE2, RiskProfile.ABS),
        (ModelKind.CASE2, RiskProfile.MSE),
    ]
    worst_exact = {pair: 0.0 for pair in exact_pairs}
    worst_case1_rel = 0.0
    worst_z = 0.0

    for index, bounds in enumerate(tuples):
        medians = {}
        means = {}
        for model in ModelKind:
            medians[model] = numeric_median(model, bounds)
            means[model] = numeric_mean(model, bounds)
            draws = sample_thetas(model, bounds, mc_n, seed=seed + 1 + index)
            se = float(draws.std(ddof=1)) / (mc_n**0.5)
            if se > 0.0:
                z = abs(float(draws.mean()) - means[model]) / se
                worst_z = max(worst_z, z)
        for model, risk in exact_pairs:
            closed = estimate(model, risk, bounds).theta1
            target = medians[model] if risk is RiskProfile.ABS else means[model]
            worst_exact[(model, risk)] = max(
                worst_exact[(model, risk)], abs(closed - target)
            )
        approx = estimate(ModelKind.CASE1, RiskProfile.ABS, bounds).theta1
        rel = abs(approx - medians[ModelKind.CASE1]) / medians[ModelKind.CASE1]
        worst_case1_rel = max(worst_case1_rel, rel)

    lines = [
        "verification report",
        f"  tuples: {samples}  seed: {seed}  mc draws per tuple: {mc_n}",
        f"  exact closed forms vs quadrature (tolerance {_EXACT_TOL:.1e}):",
    ]
    failures = []
    for (model, risk), gap in worst_exact.items():
        lines.append(
            f"    {model.value:<5} {risk.value}: max |closed - numeric| = {gap:.3e}"
        )
        if gap > _EXACT_TOL:
            failures.append(
                f"{model.value} {risk.value} exceeds {_EXACT_TOL:.1e} ({gap:.3e})"
            )
    lines.append(
        "  case1 abs approximation vs numeric median "
        f"(tolerance {_CASE1_ABS_REL_TOL:.1e} relative):"
    )
    lines.append(f"    max relative gap = {worst_case1_rel:.3e}")
    if worst_case1_rel > _CASE1_ABS_REL_TOL:
        failures.append(
            f"case1 abs relative gap exceeds {_CASE1_ABS_REL_TOL:.1e} "
            f"({worst_case1_rel:.3e})"
        )
    lines.append("  monte carlo mean vs quadrature mean:")
    lines.append(f"    worst |difference| / standard error = {worst_z:.2f}")
    lines.append("result: " + ("FAIL: " + "; ".join(failures) if failures else "PASS"))
    print("\n".join(lines))
    return EXIT_MISMATCH if failures else EXIT_OK


# --- reference --------------------------------------------------------------


def _cmd_reference(args) -> int:
    bounds = validate_bounds(*_GOLDEN_BOUNDS)
    print(
        "golden worked example: a=0, b=0.2, c=0, d=0.8 "
        "(estimates and overpayment probabilities, 3 decimals)"
    )
    print("model  risk  estimate  expected  P{theta<=est}  expected  status")
    bad = 0
    for model in ModelKind:
        for risk in RiskProfile:
            key = (model.value, risk.value)
            theta = estimate(model, risk, bounds).theta1
            prob = cdf_at(model, bounds, theta)
            est_ok = abs(round(theta, 3) - _GOLDEN_ESTIMATES[key]) <= 5.0e-4
            prob_ok = abs(round(prob, 3) - _GOLDEN_OVERPAYMENT[key]) <= 5.0e-4
            bad += (not est_ok) + (not prob_ok)
            status = "PASS" if est_ok and prob_ok else "FAIL"
            print(
                f"{model.value:<6} {risk.value:<4}  "
                f"{theta:>8.3f}  {_GOLDEN_ESTIMATES[key]:>8.3f}  "
                f"{prob:>13.3f}  {_GOLDEN_OVERPAYMENT[key]:>8.3f}  {status}"
            )
    total = 2 * len(_GOLDEN_ESTIMATES)
    if bad:
        print(f"result: FAIL ({bad} of {total} cells mismatched)")
        return EXIT_MISMATCH
    print(f"result: PASS (all {total} cells match)")
    return EXIT_OK


# --- wiring -----------------------------------------------------------------


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON scenario config file")
    parser.add_argument("--model", choices=[m.value for m in ModelKind])
    parser.add_argument("--risk", choices=[r.value for r in RiskProfile])
    parser.add_argument("--a", type=float, help="lower bound of party 1's payoff")
    parser.add_argument("--b", type=float, help="upper bound of party 1's payoff")
    parser.add_argument("--c", type=float, help="lower bound of party 2's payoff")
    parser.add_argument("--d", type=float, help="upper bound of party 2's payoff")
    parser.add_argument(
        "--or", dest="operating_revenue", type=float, help="operating revenue"
    )
    parser.add_argument(
        "--oc", dest="operating_cost", type=float, help="operating cost"
    )
    parser.add_argument("--mc-n", dest="mc_n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grid-points", dest="grid_points", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashroyalty",
        description="Royalty-share point estimates under payoff uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="one point estimate")
    _add_scenario_arguments(p_est)
    p_est.add_argument("--json", action="store_true", help="machine-readable output")
    p_est.set_defaults(handler=_cmd_estimate)

    p_post = sub.add_parser("posterior", help="tabulate the share pdf/cdf")
    _add_scenario_arguments(p_post)
    p_post.add_argument("--out", required=True, type=Path, help="output CSV path")
    p_post.set_defaults(handler=_cmd_posterior)

    p_sweep = sub.add_parser("sweep", help="estimate family over a bound grid")
    _add_scenario_arguments(p_sweep)
    p_sweep.add_argument("--c-values", dest="c_values", help="comma-separated list")
    p_sweep.add_argument("--d-max", dest="d_max", type=float)
    p_sweep.add_argument("--d-step", dest="d_step", type=float)
    p_sweep.add_argument(
        "--engine", choices=["closed_form", "numeric"], default="closed_form"
    )
    p_sweep.add_argument("--out", required=True, type=Path)
    p_sweep.add_argument(
        "--json", action="store_true", help="write the JSON mirror instead of CSV"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="cross-check closed forms on random inputs"
    )
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--mc-n", dest="mc_n", type=int, default=20000)
    p_verify.set_defaults(handler=_cmd_verify)

    p_ref = sub.add_parser(
        "reference", help="check the built-in golden worked example"
    )
    p_ref.set_defaults(handler=_cmd_reference)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BoundsValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalAccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
