"""The JSON scenario config file that ``--config`` names."""

from __future__ import annotations

import json
from pathlib import Path

from ._cli_common import _BLOCKS, ConfigError

_CONFIG_KEYS = {"model", "risk", "grid_points", *_BLOCKS}


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown field(s): {', '.join(unknown)}")


def load_config_file(path: Path) -> dict:
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
