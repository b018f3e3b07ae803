"""Core bargaining models for splitting licensing profit.

Party 1 licenses intellectual property to party 2; together they realize a
divisible operating income.  Each party holds a disagreement payoff, the
profit it keeps if negotiation fails, and the generalized Nash solution
awards party 1 the share

    theta1 = d1 + alpha * (1 - d1 - d2)

of operating income, where d1 and d2 are the disagreement payoffs as
fractions of operating income and alpha is party 1's bargaining weight.
Three weight rules are supported:

* ``NBS``   - the symmetric solution, alpha = 1/2.
* ``CASE1`` - alpha = 1/2 + (d1 - d2) / 2: outside options shift weight.
* ``CASE2`` - alpha = d1 / (d1 + d2): weight proportional to payoff size.

Each rule's share, and the geometry of its level sets, is written down
once, as a :class:`ShareModel` in this module; the closed forms, the
quadrature engine and the Monte Carlo sampler all read it from here.  All
quantities are dimensionless fractions of operating income;
:func:`royalty_rate` converts a share into a royalty rate on revenue.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import (
    DegeneratePayoffsError,
    DisorderedBoundsError,
    OutOfRangeError,
    SurplusViolationError,
)

__all__ = [
    "ModelKind",
    "FinancialStatement",
    "PerceptionMatrix",
    "PayoffBounds",
    "ShareModel",
    "FixedAlphaModel",
    "as_model_kind",
    "as_share_model",
    "validate_bounds",
    "alpha_from_perceptions",
    "theta_model",
    "royalty_rate",
]

# Slack for d1 + d2 <= 1: points sampled on the edge of a valid payoff
# rectangle (b + d = 1) can overshoot the simplex by a few ulps.
_SUM_SLACK = 1e-12
# A case2 rectangle whose bounds all lie below this size is scaled up before
# its CDF is taken.  The share is scale invariant, but the engines' error
# targets read absolute side widths: unscaled, the median of (0.1 s, 0.3 s,
# 0.2 s, 0.6 s) read 0.342857 at s = 1e-13 (exact: 1/3).  Near the float
# floor a bound times a share of 2^-53 or more also falls out of the normal
# floats and loses bits: on (0, 5e-324, 0, 5e-324) both engines read
# P{theta <= 1/2} = 0 unscaled.
_CASE2_TINY = 0.25


class ModelKind(enum.Enum):
    """Which bargaining-weight rule maps payoffs to party 1's share."""

    NBS = "nbs"
    CASE1 = "case1"
    CASE2 = "case2"


def _as_float(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise OutOfRangeError(f"{name} must be a number, got {value!r}") from None


def _require_unit(name: str, value) -> float:
    value = _as_float(name, value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")
    return value


# The most float64 values one numpy array can hold: its size in bytes must
# fit a signed machine word.  Counts of array elements stop here.
_MAX_COUNT = sys.maxsize // 8


def _require_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    try:  # an integral float such as 2001.0 passes; 50.9 is not cut to 50
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise OutOfRangeError(f"{name} must be at least {minimum}, got {count!r}")
    if maximum is not None and count > maximum:
        raise OutOfRangeError(f"{name} must be at most {maximum}, got {count!r}")
    return count


def _require_record(name: str, value, kind: type):
    # Not coerced from a sequence: every caller builds the checked record.
    if not isinstance(value, kind):
        got = type(value).__name__
        raise OutOfRangeError(f"{name} must be a {kind.__name__}, got {got}")
    return value


def _require_bounds(bounds) -> PayoffBounds:
    return _require_record("bounds", bounds, PayoffBounds)


def _member(kind: type[enum.Enum], label: str, value):
    """The ``kind`` member that is ``value`` or has it as its value.

    Raises :class:`OutOfRangeError` naming the accepted values otherwise.
    """
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(member.value for member in kind)
        message = f"{label} must be one of {names}, got {value!r}"
        raise OutOfRangeError(message) from None


def _clip01(value: float) -> float:
    # Guards roundoff only; all model formulas map valid inputs into [0, 1].
    return min(1.0, max(0.0, value))


class _Record:
    """A frozen record: slotted fields, equality and hash by value, and a
    ``Name(field=value, ...)`` repr.

    Each subclass declares its fields once, as class annotations, followed
    by ``__slots__ = tuple(__annotations__)`` to list them in order.  The
    constructor takes every field, by position or by keyword, and raises
    :class:`TypeError` naming the record if one is missing, unknown, given
    twice, or in excess; a record that validates its input defines its own
    ``__init__`` and passes the checked values on to this one.  Assignment
    and deletion raise :class:`AttributeError`; ``copy`` and ``pickle``
    rebuild a record through its ``__init__``.
    """

    # For start-up time: importing the stdlib record decorator took 7-9 ms (2 vCPUs).

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of ``cls(*args, **kwargs)`` in declaration order."""
        names, n = cls.__slots__, len(args)
        if n + len(kwargs) == len(names):
            try:
                return args + tuple([kwargs[name] for name in names[n:]])
            except KeyError:
                pass
        problem = f"takes {len(names)} fields but {n} were given"
        for words, keys in (
            ("got unknown field(s)", [k for k in kwargs if k not in names]),
            ("got multiple values for field(s)", [k for k in names[:n] if k in kwargs]),
            ("missing field(s)", [k for k in names[n:] if k not in kwargs]),
        ):
            if keys and n <= len(names):
                problem = f"{words}: {', '.join(map(repr, keys))}"
                break
        raise TypeError(f"{cls.__qualname__}() {problem}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _require_amount(name: str, value) -> float:
    value = _as_float(name, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise OutOfRangeError(
            f"{name} must be a finite nonnegative number, got {value!r}"
        )
    return value


class FinancialStatement(_Record):
    """Licensee operating revenue and cost, in common currency units."""

    operating_revenue: float
    operating_cost: float
    __slots__ = tuple(__annotations__)

    def __init__(self, operating_revenue: float, operating_cost: float) -> None:
        revenue = _require_amount("operating_revenue", operating_revenue)
        cost = _require_amount("operating_cost", operating_cost)
        super().__init__(revenue, cost)
        if revenue <= cost:
            raise OutOfRangeError(
                "operating income must be positive: operating_revenue "
                f"({revenue!r}) must exceed operating_cost ({cost!r})"
            )

    @property
    def operating_income(self) -> float:
        return self.operating_revenue - self.operating_cost

    @property
    def operating_margin(self) -> float:
        """Operating income as a fraction of revenue."""
        return self.operating_income / self.operating_revenue


class PerceptionMatrix(_Record):
    """Pairwise bargaining-power perceptions, each scored in [0, 1].

    ``pij`` is how strong party j's position looks from party i's side;
    row 1 holds party 1's perceptions and row 2 party 2's.
    """

    p11: float
    p12: float
    p21: float
    p22: float
    __slots__ = tuple(__annotations__)

    def __init__(self, p11: float, p12: float, p21: float, p22: float) -> None:
        super().__init__(
            _require_unit("p11", p11),
            _require_unit("p12", p12),
            _require_unit("p21", p21),
            _require_unit("p22", p22),
        )


class PayoffBounds(_Record):
    """Interval bounds for both parties' uncertain disagreement payoffs.

    d1 is uniform on [a, b], d2 is uniform on [c, d], independently;
    b + d <= 1 keeps every realization inside the feasible simplex.
    """

    a: float
    b: float
    c: float
    d: float
    __slots__ = tuple(__annotations__)

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        a, b = _require_unit("a", a), _require_unit("b", b)
        c, d = _require_unit("c", c), _require_unit("d", d)
        super().__init__(a, b, c, d)
        if a > b:
            raise DisorderedBoundsError(
                f"bounds must satisfy a <= b, got a = {a!r} > b = {b!r}"
            )
        if c > d:
            raise DisorderedBoundsError(
                f"bounds must satisfy c <= d, got c = {c!r} > d = {d!r}"
            )
        if b + d > 1.0:
            raise SurplusViolationError(
                f"bounds must satisfy b + d <= 1, got b = {b!r}, "
                f"d = {d!r}, b + d = {b + d!r}"
            )

    @property
    def width1(self) -> float:
        return self.b - self.a

    @property
    def width2(self) -> float:
        return self.d - self.c

    def swapped(self) -> "PayoffBounds":
        """The same negotiation with the parties' roles exchanged."""
        return PayoffBounds(self.c, self.d, self.a, self.b)


# The checked constructor under the name the package has long exported.
validate_bounds = PayoffBounds


def alpha_from_perceptions(perceptions: PerceptionMatrix) -> float:
    """Bargaining weight implied by the four perception scores.

    Averages party 1's perceived strengths against party 2's around the
    symmetric baseline 1/2; returns exactly 0.5 when the rows balance.
    """
    p = perceptions
    gap = (p.p11 + p.p12) - (p.p21 + p.p22)
    return _clip01(0.5 + gap / 4.0)


class ShareModel:
    """Party 1's share under one weight rule, and where its level sets lie.

    Subclasses define three methods:

    * ``theta(d1, d2)``, the share in plain arithmetic, neither validated
      nor clipped, so that one expression serves floats and numpy arrays;
    * ``d2_threshold(x, t)``: every rule is nondecreasing in d1 and
      nonincreasing in d2, so for d1 = x the event {theta <= t} is
      {d2 >= d2_threshold(x, t)};
    * ``d1_threshold(y, t)``: for d2 = y the event is
      {d1 <= d1_threshold(y, t)}.

    Both CDFs read the crossings: the quadrature in
    :mod:`nashroyalty.posterior` on numpy arrays of shares (a payoff may
    be a float), which they broadcast, and the closed form
    :func:`nashroyalty.estimators.closed_cdf` of the built-in models on
    floats, where those compute in ``math`` with the rounding of each row
    of the array call, so the closed forms load no numpy.  Either asks
    them only at shares lo <= t < hi inside the support, where the level
    set meets the rectangle: ``d1_threshold`` on the rows y = c and y = d
    (the quadrature in one call on the column ``[[c], [d]]``, whose every
    row must equal the call on its own float y); ``d2_threshold`` on the
    columns between those crossings, where the level set crosses [c, d],
    or on the one column of a point-mass d1 side.  Both clip them to the
    rectangle, so where a level set misses a line any value that clips to
    the same edge as the exact +-inf gives the same CDF; neither silences
    overflow.  The tests judge the shared crossings against a scipy and a
    60-digit mpmath reference that solve each level set on their own.
    """

    __slots__ = ()

    def at(self, x: float, y: float) -> float:
        """The share at one payoff pair, clipped to [0, 1] against roundoff.

        Raises :class:`DegeneratePayoffsError` where the rule is undefined:
        where ``theta`` is NaN or divides by zero, as the proportional rule
        d1 / (d1 + d2) does at the origin.
        """
        try:
            share = self.theta(x, y)
        except ZeroDivisionError:
            share = math.nan
        if math.isnan(share):
            raise DegeneratePayoffsError(
                f"the share is undefined at d1 = {x!r}, d2 = {y!r}"
            )
        return _clip01(share)

    def support(self, bounds: PayoffBounds) -> tuple[float, float]:
        """Smallest and largest share on the payoff rectangle.

        By monotonicity these sit at the corners (a, d) and (b, c), so
        lo <= hi; a pair that rounding inverts is one deterministic share,
        and both ends are its value at (a, d).  ``bounds`` must be a
        :class:`PayoffBounds`, or :class:`OutOfRangeError` is raised.
        """
        bounds = _require_bounds(bounds)
        lo, hi = self.at(bounds.a, bounds.d), self.at(bounds.b, bounds.c)
        return (lo, lo) if lo > hi else (lo, hi)

    def rescaled(self, bounds: PayoffBounds) -> PayoffBounds:
        """The rectangle that the CDF of either engine works on, with the
        same share distribution: ``bounds`` itself, except for a share
        that is scale invariant (see :class:`_Case2`).  ``bounds`` must be
        a :class:`PayoffBounds`, as for :meth:`support`."""
        return _require_bounds(bounds)


class _Nbs(ShareModel):
    """The symmetric split of the surplus: alpha = 1/2."""

    @staticmethod
    def theta(x, y):
        return 0.5 + (x - y) * 0.5

    @staticmethod
    def d2_threshold(x, t):
        return x + 1.0 - 2.0 * t

    @staticmethod
    def d1_threshold(y, t):
        return y + 2.0 * t - 1.0


def _one_minus_root(arg):
    """1 - sqrt(max(arg, 0)), for an array computed in ``arg``: the
    quadrature's calls fill blocks of 256 x 36 nodes.  Where arg < 0 the
    level set misses the line, and 1 clips to the rectangle's far edge as
    +inf would."""
    if isinstance(arg, float):
        return 1.0 - math.sqrt(max(arg, 0.0))
    import numpy as np

    np.maximum(arg, 0.0, out=arg)
    np.sqrt(arg, out=arg)
    np.subtract(1.0, arg, out=arg)
    return arg


class _Case1(ShareModel):
    """Weight shifted by the outside-option gap: alpha = 1/2 + (d1 - d2) / 2."""

    @staticmethod
    def theta(x, y):
        return (y * y - x * x + 2.0 * (x - y) + 1.0) * 0.5

    @staticmethod
    def d2_threshold(x, t):
        # Level sets are hyperbolas centred at (1, 1): theta <= t  <=>
        # (1 - y)^2 <= (1 - x)^2 + 2 t - 1, written without the cancellation
        # of the 1s that would swamp small x and t.
        arg = t - x
        arg *= 2.0
        arg += x * x
        return _one_minus_root(arg)

    @staticmethod
    def d1_threshold(y, t):
        # Squared through pow on a float y and through float_power, which
        # rounds alike, on an array: ** 2 on an array multiplies, which
        # rounds differently on about one value in a thousand.
        if isinstance(y, float):
            square = (1.0 - y) ** 2.0
        else:
            import numpy as np

            square = np.float_power(1.0 - y, 2.0)
        return _one_minus_root(square + 1.0 - 2.0 * t)


class _Case2(ShareModel):
    """Weight proportional to payoff size: alpha = d1 / (d1 + d2).

    The share is constant on rays from the origin and undefined at the
    origin itself, where ``theta`` divides by zero.
    """

    @staticmethod
    def theta(x, y):
        return x / (x + y)

    @staticmethod
    def d2_threshold(x, t):
        # theta <= t  <=>  y >= x (1 - t) / t.  Asked at t > 0 only: at
        # t = lo = 0 both row crossings are 0 and the band is empty.
        cut = x * (1.0 - t)
        cut /= t
        return cut

    @staticmethod
    def d1_threshold(y, t):
        # theta <= t  <=>  x <= t y / (1 - t); t < hi <= 1.
        cut = t * y
        cut /= 1.0 - t
        return cut

    def support(self, bounds: PayoffBounds) -> tuple[float, float]:
        """As for every model, except at the origin.

        A rectangle equal to the origin has no defined share at all and
        raises :class:`DegeneratePayoffsError`.  A corner at the origin takes
        the limit from inside the rectangle, which then lies on one axis:
        d2 = 0 while d1 > 0 almost surely, or the reverse.
        """
        bounds = _require_bounds(bounds)
        a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
        if b == 0.0 and d == 0.0:
            raise DegeneratePayoffsError(
                "the proportional-weight share is undefined when both payoffs "
                "are identically 0 (a = b = 0 and c = d = 0)"
            )
        lo = 1.0 if a == d == 0.0 else self.at(a, d)
        hi = 0.0 if b == c == 0.0 else self.at(b, c)
        return lo, hi

    def rescaled(self, bounds: PayoffBounds) -> PayoffBounds:
        """``bounds`` times the power of two that brings its largest bound
        into [1/4, 1/2), when that bound is below ``_CASE2_TINY``.

        The share is the same at scaled points, and scaling by a power of
        two is exact, so every corner value rounds as before; b + d stays
        below 1.  Other rectangles, and the origin, are returned as given.
        """
        bounds = _require_bounds(bounds)
        top = max(bounds.b, bounds.d)
        if not 0.0 < top < _CASE2_TINY:
            return bounds
        power = -math.frexp(top)[1] - 1
        a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
        return PayoffBounds(*(math.ldexp(v, power) for v in (a, b, c, d)))


class FixedAlphaModel(ShareModel, _Record):
    """Share model with an externally fixed bargaining weight.

    Used when perception scores pin alpha directly instead of deriving it
    from the payoffs; theta = d1 + alpha * (1 - d1 - d2) stays monotone in
    both payoffs for any alpha in [0, 1].
    """

    alpha: float
    __slots__ = tuple(__annotations__)

    def __init__(self, alpha: float) -> None:
        super().__init__(_require_unit("alpha", alpha))

    def theta(self, x, y):
        return x + self.alpha * (1.0 - x - y)

    def d2_threshold(self, x, t):
        # Never asked at alpha = 0: theta = d1 there, so the level set is
        # the column x = t and the band between the row crossings is empty.
        return 1.0 - (t - (1.0 - self.alpha) * x) / self.alpha

    def d1_threshold(self, y, t):
        if self.alpha == 1.0:
            import numpy as np

            return np.where(1.0 - y <= t, np.inf, -np.inf)
        return (t - self.alpha * (1.0 - y)) / (1.0 - self.alpha)


_SHARES = {
    ModelKind.NBS: _Nbs(),
    ModelKind.CASE1: _Case1(),
    ModelKind.CASE2: _Case2(),
}


def as_model_kind(model) -> ModelKind:
    """The :class:`ModelKind` of a member or its string value.

    Raises :class:`OutOfRangeError` naming the accepted values otherwise.
    """
    return _member(ModelKind, "model", model)


def as_share_model(model) -> ShareModel:
    """The share model of a :class:`ModelKind` (or its string value).

    A :class:`ShareModel` instance, such as a :class:`FixedAlphaModel`,
    passes through unchanged.
    """
    if isinstance(model, ShareModel):
        return model
    return _SHARES[as_model_kind(model)]


def theta_model(model: ModelKind, d1: float, d2: float) -> float:
    """Party 1's share under one of the three built-in weight rules.

    Validates the payoffs (each in [0, 1], with d1 + d2 <= 1), clips the
    share to [0, 1], and raises :class:`DegeneratePayoffsError` for
    ``CASE2`` at d1 = d2 = 0.  Agrees to roundoff with
    ``FixedAlphaModel(alpha).at(d1, d2)`` at the model's weight alpha.
    """
    share = _SHARES[as_model_kind(model)]
    d1, d2 = _require_unit("d1", d1), _require_unit("d2", d2)
    if d1 + d2 > 1.0 + _SUM_SLACK:
        raise SurplusViolationError(
            f"d1 + d2 must not exceed 1, got {d1!r} + {d2!r} = {d1 + d2!r}"
        )
    return share.at(d1, d2)


def royalty_rate(theta1: float, financials: FinancialStatement) -> float:
    """Royalty rate on revenue equivalent to share theta1 of income.

    r = theta1 * operating margin, so r * revenue = theta1 * income.
    A ``financials`` that is not a :class:`FinancialStatement` raises
    :class:`OutOfRangeError`.
    """
    theta1 = _require_unit("theta1", theta1)
    financials = _require_record("financials", financials, FinancialStatement)
    return theta1 * financials.operating_margin

