"""Families of share estimates swept over the payoff-bound grid.

Reproduces the sensitivity tables behind the model figures: party 1's
bound interval [a, b] is held fixed while party 2's upper bound d sweeps a
grid for each lower bound c in a list.  Estimates come either from the
closed forms or from the numeric posterior engine, and tables serialize to
CSV and JSON for plotting.
"""

from __future__ import annotations

import enum
from pathlib import Path

from .bargaining import (
    ModelKind,
    PayoffBounds,
    _Record,
    _as_float,
    _require_unit,
    as_model_kind,
    as_share_model,
)
from .errors import (
    BoundsValidationError,
    DegeneratePayoffsError,
    OutOfRangeError,
)
from .estimators import RiskProfile, as_risk_profile, estimate

__all__ = [
    "SweepRow",
    "SweepSeries",
    "MapReferencePoint",
    "OmittedCell",
    "SweepTable",
    "family_sweep",
    "write_csv",
    "write_map_csv",
    "write_rows",
    "to_json_dict",
    "write_json",
]

_ENGINES = ("closed_form", "numeric")


class SweepRow(_Record):
    d: float
    theta_hat: float
    __slots__ = tuple(__annotations__)


class SweepSeries(_Record):
    c: float
    rows: tuple[SweepRow, ...]
    __slots__ = tuple(__annotations__)


class MapReferencePoint(_Record):
    d: float
    theta_map: float
    __slots__ = tuple(__annotations__)


class OmittedCell(_Record):
    c: float
    d: float
    reason: str
    __slots__ = tuple(__annotations__)


class SweepTable(_Record):
    """One estimator family over a (c, d) grid, plus the MAP reference line."""

    model: ModelKind
    risk: RiskProfile
    a: float
    b: float
    series: tuple[SweepSeries, ...]
    map_reference: tuple[MapReferencePoint, ...]
    omitted: tuple[OmittedCell, ...]
    __slots__ = tuple(__annotations__)


def _grid(step: float, top: float) -> tuple[float, ...]:
    """0, step, 2 step, ... rounded to 12 decimals, up to top inclusive."""
    points = (round(k * step, 12) for k in range(round(top / step) + 1))
    return tuple(point for point in points if point <= top)


def _floats(name: str, values, check=_as_float) -> tuple[float, ...]:
    """The entries of ``values`` as floats, each passed through ``check``;
    names ``values`` when it is empty or not a sequence, or the entry that
    is not a number."""
    try:
        entries = iter(values)
    except TypeError:
        message = f"{name} must be a sequence of numbers, got {values!r}"
        raise OutOfRangeError(message) from None
    floats = tuple(check(f"each entry of {name}", entry) for entry in entries)
    if not floats:
        raise OutOfRangeError(f"{name} must hold at least one number")
    return floats


def family_sweep(
    model: ModelKind,
    risk: RiskProfile,
    a: float,
    b: float,
    c_values=None,
    d_grid=None,
    engine: str = "closed_form",
) -> SweepTable:
    """Tabulate the chosen estimate over the (c, d) grid.

    By default c runs over 0, 0.1, ... and d over 0, 0.01, ..., each up to
    1 - b inclusive, and at most to 0.7 and 0.8.  Cells with d < c are
    skipped (no such interval exists), but every c must lie in [0, 1],
    also one that no d reaches, and neither list may be empty
    (:class:`OutOfRangeError`).  A cell on which the model itself is
    undefined is omitted from its series and recorded in ``omitted`` with
    the reason.  Bound-validation failures are propagated with the
    offending cell identified.
    """
    model = as_model_kind(model)
    risk = as_risk_profile(risk)
    if engine not in _ENGINES:
        raise OutOfRangeError(f"engine must be one of {_ENGINES}, got {engine!r}")
    checked = PayoffBounds(a, b, 0.0, 0.0)
    a, b = checked.a, checked.b  # floats: a numpy 0 / 0 would warn in share.at
    if c_values is None:
        c_values = _grid(0.1, min(0.7, 1.0 - b))
    if d_grid is None:
        d_grid = _grid(0.01, min(0.8, 1.0 - b))
    c_values = _floats("c_values", c_values, _require_unit)
    d_grid = _floats("d_grid", d_grid)
    engine_estimate = estimate
    if engine == "numeric":  # the closed forms run without numpy
        from .posterior import numeric_estimate as engine_estimate

    series = []
    omitted = []
    for c in c_values:
        rows = []
        for d in d_grid:
            if d < c:
                continue
            try:
                bounds = PayoffBounds(a, b, c, d)
            except BoundsValidationError as exc:
                raise type(exc)(f"sweep cell (c={c!r}, d={d!r}): {exc}") from exc
            try:
                value = engine_estimate(model, risk, bounds).theta1
            except DegeneratePayoffsError as exc:
                omitted.append(OmittedCell(c=c, d=d, reason=str(exc)))
                continue
            rows.append(SweepRow(d, value))
        series.append(SweepSeries(c=c, rows=tuple(rows)))

    share = as_share_model(model)
    map_reference = []
    for d in d_grid:
        try:
            PayoffBounds(a, b, 0.0, d)
        except BoundsValidationError as exc:
            raise type(exc)(f"map reference point d={d!r}: {exc}") from exc
        try:
            map_reference.append(MapReferencePoint(d=d, theta_map=share.at(b, d)))
        except DegeneratePayoffsError:
            continue  # the share is undefined at this reference point

    return SweepTable(
        model=model,
        risk=risk,
        a=a,
        b=b,
        series=tuple(series),
        map_reference=tuple(map_reference),
        omitted=tuple(omitted),
    )


def _fmt(value) -> str:
    """Strings verbatim, numbers at full (.17g) precision."""
    return value if isinstance(value, str) else format(float(value), ".17g")


def write_rows(path, header: str, rows) -> None:
    """Write a CSV header and rows of fields as UTF-8 with LF line endings."""
    lines = [header]
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_csv(table: SweepTable, path) -> None:
    """Write the sweep rows as CSV: one line per kept (c, d) cell."""
    head = (table.model.value, table.risk.value, table.a, table.b)
    rows = (
        (*head, block.c, row.d, row.theta_hat)
        for block in table.series
        for row in block.rows
    )
    write_rows(path, "model,risk,a,b,c,d,theta_hat", rows)


def write_map_csv(table: SweepTable, path) -> None:
    """Write the MAP reference line as CSV with columns d,theta_map."""
    rows = ((point.d, point.theta_map) for point in table.map_reference)
    write_rows(path, "d,theta_map", rows)


def to_json_dict(table: SweepTable) -> dict:
    """Mirror the table structure as JSON-ready primitives: a record as a
    dict of its fields in order, a tuple as a list and an enum member as
    its value, all the way down."""
    if isinstance(table, _Record):
        return {name: to_json_dict(getattr(table, name)) for name in table.__slots__}
    if isinstance(table, tuple):
        return [to_json_dict(item) for item in table]
    if isinstance(table, enum.Enum):
        return table.value
    return table


def write_json(table: SweepTable, path) -> None:
    """Write the JSON mirror (two-space indent, LF endings, UTF-8)."""
    import json

    text = json.dumps(to_json_dict(table), indent=2) + "\n"
    Path(path).write_bytes(text.encode("utf-8"))
