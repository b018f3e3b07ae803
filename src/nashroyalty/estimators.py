"""Closed-form point estimates of party 1's share under payoff uncertainty.

With d1 ~ U[a, b] and d2 ~ U[c, d] independent, the share theta1 is a
random variable and the best point estimate depends on the negotiator's
attitude to estimation error, its :class:`RiskProfile`:

* ``MAP`` - minimize the probability of any error: the posterior mode,
  which for these monotone models sits at the upper payoff corner (b, d).
* ``ABS`` - minimize expected absolute error: the posterior median.
* ``MSE`` - minimize expected squared error: the posterior mean.

:func:`estimate` is the one closed-form entry point, and every value it
returns is exact.  The ``CASE1`` median has no elementary form: it is the
root of :func:`closed_cdf` at 1/2, found by safeguarded Newton steps, and
on a side thinner than ``_THIN_SIDE`` of its distance from 1 it is the
model value at the interval midpoints, whose error there is second order
in that relative width (README, *Accuracy notes*).  The paper reports
that midpoint value for every box; :func:`paper_case1_median` gives it.
Like the numeric :func:`nashroyalty.posterior.numeric_estimate`,
:func:`estimate` returns an :class:`EstimateResult`.  :func:`closed_cdf`
gives the overpayment probability P{theta <= t} of any estimate t in
elementary form, integrating the level-set crossings of each
:class:`~nashroyalty.bargaining.ShareModel` that the quadrature also
integrates; none of these functions needs numpy.
"""

from __future__ import annotations

import enum
import math
import sys

from .bargaining import (
    ModelKind,
    PayoffBounds,
    _Record,
    _clip01,
    _member,
    _require_bounds,
    _require_unit,
    as_model_kind,
    as_share_model,
    theta_model,
)

__all__ = [
    "RiskProfile",
    "EstimateResult",
    "NOTE_EXACT",
    "NOTE_APPROXIMATION",
    "NOTE_NUMERIC",
    "as_risk_profile",
    "estimate",
    "paper_case1_median",
    "closed_cdf",
]

NOTE_EXACT = "exact closed form"
NOTE_APPROXIMATION = "closed-form approximation"
NOTE_NUMERIC = "numeric"

# The case2 mean's log1p form is trusted while its rounding error,
# estimated as this many ulps of its terms' magnitudes over its
# denominator, stays within the limit.
_ROUNDING_ULPS = 4.0
_DIFFERENCE_ROUNDING = 1e-12

# The CASE1 median takes the midpoint value on a side whose width is at
# most this fraction of its distance from 1.  The midpoint errs there by
# at most about 6 times the fraction's square, a few ulps, while
# closed_cdf fails on widths near the float floor (pinned against a
# 60-digit median in the tests).
_THIN_SIDE = 1e-8
# A Newton step this small, relative to the support, leaves an error of
# order its square, below rounding, so it is taken without another CDF
# evaluation.  The solve takes at most _MEDIAN_ROUNDS steps.
_FINAL_STEP = 1e-9
_MEDIAN_ROUNDS = 100


class RiskProfile(enum.Enum):
    """Which estimation-error cost the point estimate minimizes."""

    MAP = "map"
    ABS = "abs"
    MSE = "mse"


def as_risk_profile(risk) -> RiskProfile:
    """The :class:`RiskProfile` of a member or its string value.

    Raises :class:`OutOfRangeError` naming the accepted values otherwise.
    """
    return _member(RiskProfile, "risk", risk)


class EstimateResult(_Record):
    """A point estimate of both parties' shares, from either engine.

    ``theta2`` is always exactly ``1 - theta1``.  ``method_note`` records
    how the value was computed: ``NOTE_EXACT`` from :func:`estimate`,
    ``NOTE_APPROXIMATION`` from :func:`paper_case1_median`, and
    ``NOTE_NUMERIC`` from :func:`nashroyalty.posterior.numeric_estimate`.
    """

    theta1: float
    theta2: float
    method_note: str
    __slots__ = tuple(__annotations__)


def _result(theta1: float, note: str) -> EstimateResult:
    theta1 = _clip01(float(theta1))
    return EstimateResult(theta1, 1.0 - theta1, note)


def _case2_mean(bounds: PayoffBounds) -> float:
    """E[d1 / (d1 + d2)] for independent uniform payoffs.

    Both forms run on bounds scaled so that the largest is 1 (the share is
    scale invariant): the exact integral with its logarithm differences
    taken by ``log1p`` wherever its estimated rounding error is small, and
    for thin sides and point masses the expansion of
    :func:`_case2_thin_mean`.  Within about 2e-13 of the exact mean
    (README, *Accuracy notes*).  Raises :class:`DegeneratePayoffsError` on
    the origin rectangle.
    """
    lo, hi = as_share_model(ModelKind.CASE2).support(bounds)
    if lo == hi:  # a deterministic share, such as two point masses
        return lo
    scale = max(bounds.b, bounds.d)
    a, b, c, d = bounds.a / scale, bounds.b / scale, bounds.c / scale, bounds.d / scale
    value = _case2_difference_mean(a, b, c, d)
    if value is not None:
        return value
    # Expand along the side that is narrower relative to its distance from
    # the origin, where the share is singular.
    if d > c and (b - a) / (c + _middle(a, b)) <= (d - c) / (a + _middle(c, d)):
        return _case2_thin_mean(a, b, c, d)
    return 1.0 - _case2_thin_mean(c, d, a, b)


def _middle(lo: float, hi: float) -> float:
    # The midpoint of [0, 5e-324] rounds to 0; hi keeps it inside (0, hi].
    return (lo + hi) / 2.0 or hi


def _case2_difference_mean(a: float, b: float, c: float, d: float) -> float | None:
    """Closed form from integrating x/(x+y) over the rectangle, or None.

    Grouping the corner terms by shared bound leaves
    b^2 L(b) - a^2 L(a) - d^2 log1p(w1 / (a + d)) + c^2 log1p(w1 / (a + c))
    over 2 w1 w2, plus 1/2, with L(x) = log1p(w2 / (x + c)).  No logarithm
    of a sum absorbs a small bound, so the rounding error grows only like
    one over the relative widths.  None when a side is a point mass or the
    rounding estimate, a few ulps of the terms' magnitudes over the
    denominator, exceeds ``_DIFFERENCE_ROUNDING``.
    """
    width, height = b - a, d - c
    if width == 0.0 or height == 0.0:
        return None
    terms = (
        b * b * math.log1p(height / (b + c)),
        # a^2 L(a) -> 0 at a = c = 0, and so does c^2 log1p(.) at c = 0.
        -a * a * math.log1p(height / (a + c)) if a > 0.0 else 0.0,
        -d * d * math.log1p(width / (a + d)),
        c * c * math.log1p(width / (a + c)) if c > 0.0 else 0.0,
    )
    denominator = 2.0 * width * height
    rounding = _ROUNDING_ULPS * sys.float_info.epsilon * sum(map(abs, terms))
    if not (denominator > 0.0 and rounding <= _DIFFERENCE_ROUNDING * denominator):
        return None
    return 0.5 + sum(terms) / denominator


def _case2_thin_mean(a: float, b: float, c: float, d: float) -> float:
    """E[x / (x + y)] for x uniform on [a, b], y on [c, d], with d > c.

    Exact in y at x's midpoint m, plus the second-order term in x,
    (b - a)^2 / 24 times the mean of d^2/dx^2 x/(x+y) over y; the next
    term is of order ((b - a) / (m + c))^4.  Exact when a = b.
    """
    m = _middle(a, b)
    width, height = b - a, d - c
    ratio = height / (m + c)
    if math.isfinite(ratio):
        spread = math.log1p(ratio)
    else:
        spread = math.log(m + d) - math.log(m + c)
    # The y-mean of the second derivative, -2y/(m+y)^3, is
    # [(m + 2y) / (m + y)^2] from c to d over the height.
    curvature = (width / (m + d)) ** 2 * (m + 2.0 * d) - (width / (m + c)) ** 2 * (
        m + 2.0 * c
    )
    return m * spread / height + curvature / (24.0 * height)


def estimate(
    model: ModelKind, risk: RiskProfile, bounds: PayoffBounds
) -> EstimateResult:
    """The closed-form estimate of party 1's share for one risk profile.

    * ``MAP``: the mode, the model value at the upper corner (b, d), where
      the density peaks.  Raises :class:`DegeneratePayoffsError` for
      ``CASE2`` when b = d = 0.
    * ``ABS``: the median.  For ``NBS`` (the share is a symmetric sum) and
      ``CASE2`` (the sub-level sets split the rectangle's symmetry group
      evenly) it is the model value at the interval midpoints; for
      ``CASE1`` the root of :func:`closed_cdf` at 1/2 (module docstring).
    * ``MSE``: the mean, exact for every model.

    ``model`` and ``risk`` may be given by their string values; an unknown
    one raises :class:`OutOfRangeError` naming the accepted values.
    """
    risk = as_risk_profile(risk)
    model = as_model_kind(model)
    bounds = _require_bounds(bounds)
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    if risk is RiskProfile.MAP:
        return _result(theta_model(model, b, d), NOTE_EXACT)
    if model is ModelKind.NBS:
        # Median and mean coincide for the linear symmetric model.
        return _result((a + b - c - d) / 4.0 + 0.5, NOTE_EXACT)
    if risk is RiskProfile.ABS:
        if model is ModelKind.CASE1:
            return _result(_case1_median(bounds), NOTE_EXACT)
        return _result(_midpoint_value(model, bounds), NOTE_EXACT)
    if model is ModelKind.CASE1:
        quadratic = (c * c + c * d + d * d - a * a - a * b - b * b) / 6.0
        linear = (a + b - c - d + 1.0) / 2.0
        return _result(quadratic + linear, NOTE_EXACT)
    return _result(_case2_mean(bounds), NOTE_EXACT)


def paper_case1_median(bounds: PayoffBounds) -> EstimateResult:
    """The paper's ``CASE1`` ABS estimate: the model value at the midpoints.

    An approximation of the median that the worked example reports (0.275
    on the golden box, whose median is 0.2771); :func:`estimate` returns
    the exact median.  Flagged ``NOTE_APPROXIMATION``.
    """
    bounds = _require_bounds(bounds)
    return _result(_midpoint_value(ModelKind.CASE1, bounds), NOTE_APPROXIMATION)


def _midpoint_value(model: ModelKind, bounds: PayoffBounds) -> float:
    # Scaled up, a case2 box of bounds near the float floor has exact midpoints.
    bounds = as_share_model(model).rescaled(bounds)
    return theta_model(
        model, _middle(bounds.a, bounds.b), _middle(bounds.c, bounds.d)
    )


def _case1_median(bounds: PayoffBounds) -> float:
    """The t with P{theta <= t} = 1/2 for ``CASE1``.

    The midpoint value on a point mass, where it is exact (the share is
    then monotone in one uniform payoff), and on a side thinner than
    ``_THIN_SIDE``.  Otherwise Newton
    steps on :func:`closed_cdf` from that value, inside the bracket
    lo < t <= hi with P(lo) < 1/2 <= P(hi), which starts as the support;
    a step that leaves the bracket bisects it instead.  A step below
    ``_FINAL_STEP`` of the support is taken and ends the solve, and so
    does a point that repeats; the solve returns after
    ``_MEDIAN_ROUNDS`` steps in any case.
    """
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    t = _midpoint_value(ModelKind.CASE1, bounds)
    if b - a <= _THIN_SIDE * (1.0 - a) or d - c <= _THIN_SIDE * (1.0 - c):
        return t
    lo, hi = as_share_model(ModelKind.CASE1).support(bounds)
    final_step = _FINAL_STEP * (hi - lo)
    for _ in range(_MEDIAN_ROUNDS):
        p, density = _cdf_and_density(ModelKind.CASE1, bounds, t)
        if p < 0.5:
            lo = t
        else:
            hi = t
        step = (0.5 - p) / density if density > 0.0 else math.inf
        newton = t + step
        if abs(step) <= final_step and lo <= newton <= hi:
            return newton
        if not lo < newton <= hi:
            newton = lo + (hi - lo) / 2.0
        if newton == t:
            return t
        t = newton
    return t


def _case1_band(
    x0: float, x1: float, r0: float, r1: float, t: float
) -> tuple[float, float]:
    """Mean of r = 1 - y0(x) over x in [x0, x1] for ``CASE1``, with x0 < x1,
    and the integral of 1/r there.

    With u = 1 - x and s = 2t - 1, r = sqrt(u^2 + s), whose integral is
    (u r + s log(u + r)) / 2; that of 1/r is log(u + r).  Their differences
    between the band ends u1 = 1 - x1 < u0 = 1 - x0, where r takes the
    values r1 and r0, are taken without cancellation: r0 - r1 = delta q
    with q = (u0 + u1) / (r0 + r1), and the logarithms' difference is
    log1p(delta (1 + q) / (u1 + r1)).
    """
    delta, u0, u1 = x1 - x0, 1.0 - x0, 1.0 - x1
    q = (u0 + u1) / (r0 + r1)
    log_ratio = math.log1p(delta * (1.0 + q) / (u1 + r1))
    s = 2.0 * t - 1.0
    mean = ((r0 + r1) + (u0 + u1) * q + 2.0 * s * log_ratio / delta) / 4.0
    return mean, log_ratio


def closed_cdf(model: ModelKind, bounds: PayoffBounds, t: float) -> float:
    """P{theta <= t}, the overpayment probability of the estimate t.

    The elementary counterpart of :func:`nashroyalty.posterior.cdf_at`:
    both integrate the level curve theta = t that the model's
    :class:`~nashroyalty.bargaining.ShareModel` crossings give, asked here
    at floats, so comparing the two checks the integrations, not the
    curve (the tests hold both to references with crossings of their
    own).  The curve meets the rows d2 = c and d2 = d at x_c and x_d,
    clipped to [a, b]; columns left of x_c lie wholly in {theta <= t},
    columns right of x_d miss it, and between them the fraction
    (d - y0(x)) / (d - c) does, where the curve passes through (x, y0(x)).
    So

        P = (x_c - a) / (b - a) + (x_d - x_c) / (b - a) * mean(d - y0) / (d - c),

    normalised by each side on its own, since their product can underflow.
    At a band end the curve sits on the row it crosses there, unless the
    rectangle clips the band.  The band's mean of d - y0 is the mean of
    its end values for ``NBS`` and ``CASE2``, whose level curves are
    straight, and an elementary integral for ``CASE1``.  A point-mass d1
    side is one column and a point-mass d2 side has an empty band; outside
    the support [lo, hi), and for a deterministic share, the CDF is a step.
    A ``CASE2`` rectangle whose largest bound is below 1/4 is first lifted
    into [1/4, 1/2) by an exact power of two, since the share is scale
    invariant.  Agrees with ``cdf_at`` within its error target (README,
    *Accuracy notes*).  ``model`` may be given by its string value; an
    unknown model, or a ``t`` outside [0, 1], raises :class:`OutOfRangeError`.
    """
    model = as_model_kind(model)
    bounds = _require_bounds(bounds)
    t = _require_unit("t", t)
    return _cdf_and_density(model, bounds, t)[0]


def _cdf_and_density(
    model: ModelKind, bounds: PayoffBounds, t: float
) -> tuple[float, float]:
    """:func:`closed_cdf` at a valid t, and for ``CASE1`` its density.

    Where the band's ends are clipped by the rectangle they do not move
    with t, and where they are not, the column share there is 0 or 1; so
    dP/dt is the band's integral of d/dt (d - y0) = 1/r over the area.
    The density is returned as 0 for the other models and at a
    point-mass side, where no caller reads it.
    """
    share_model = as_share_model(model)
    bounds = share_model.rescaled(bounds)
    lo, hi = share_model.support(bounds)
    if not lo <= t < hi:  # also every t of a deterministic share, lo == hi
        return (1.0 if t >= hi else 0.0), 0.0
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    width, height = b - a, d - c
    density = 0.0
    if width == 0.0:
        share = (d - share_model.d2_threshold(a, t)) / height
    else:
        cut_c = share_model.d1_threshold(c, t)
        cut_d = share_model.d1_threshold(d, t)
        x_c = min(max(cut_c, a), b)
        x_d = min(max(cut_d, x_c), b)  # x_c when c == d
        share = (x_c - a) / width
        if x_d > x_c:
            # The curve's height at the band ends: the row it crosses there,
            # or where it leaves the rectangle, held to [c, d] against
            # roundoff.
            y_c = c if x_c == cut_c else max(share_model.d2_threshold(x_c, t), c)
            y_d = d if x_d == cut_d else min(share_model.d2_threshold(x_d, t), d)
            if model is ModelKind.CASE1:
                r_mean, inverse_r_integral = _case1_band(
                    x_c, x_d, 1.0 - y_c, 1.0 - y_d, t
                )
                band = r_mean - (1.0 - d)
                density = inverse_r_integral / width / height
            else:
                band = ((d - y_c) + (d - y_d)) / 2.0
            share += (x_d - x_c) / width * (band / height)
    return _clip01(share), density
