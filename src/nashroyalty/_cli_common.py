"""What the CLI's command modules share: the exit codes, the scenario record,
the flags that describe a scenario and how they resolve.

The command modules import these names from here, never from ``cli``:
under ``python -m nashroyalty.cli`` that module runs as ``__main__``, so
importing it again would compile it twice and make a second
:class:`ConfigError` that ``main`` does not catch.
"""

from __future__ import annotations

import argparse
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
)
from .estimators import RiskProfile, as_risk_profile

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5
EXIT_INTERNAL = 6

_MAX_GRID_POINTS = 1_000_001


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
    data = {}
    if getattr(args, "config", None):
        from ._cli_config import load_config_file

        data = load_config_file(args.config)
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
