"""Numeric posterior distribution of party 1's share.

Every supported model maps the payoff pair (d1, d2) to a share that is
nondecreasing in d1 and nonincreasing in d2.  For fixed d1 = x the event
{theta <= t} is therefore {d2 >= y0(x, t)} for a crossing point y0, so the
CDF is a 1-D integral of clipped cross-section lengths over the payoff
rectangle.  One vectorized kernel evaluates that integral for a whole
array of t at once, on Gauss-Legendre panels refined until each meets its
error target.  The density grid, median and mode derive from that CDF, and
so does the mean, as hi - (integral of the CDF over the support [lo, hi]).

This module is the verification channel for the closed forms in
:mod:`nashroyalty.estimators`: it never reuses their formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bargaining import ModelKind, PayoffBounds, theta_general, theta_model
from .errors import (
    DegenerateDistributionError,
    DegeneratePayoffsError,
    NumericalAccuracyError,
    OutOfRangeError,
)

__all__ = [
    "FixedAlphaModel",
    "MonotoneShareFunction",
    "PosteriorCurve",
    "ModeResult",
    "as_posterior_model",
    "support_range",
    "cdf_at",
    "pdf_curve",
    "numeric_median",
    "numeric_mean",
    "numeric_mode",
    "mode_from_curve",
    "overpayment_prob",
]

# Gauss-Legendre rules on [-1, 1].  A panel's value is its 24-point sum;
# the distance to the 12-point sum on the same panel is its error estimate.
_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X12, _W12 = np.polynomial.legendre.leggauss(12)
_NODES = np.concatenate((_X24, _X12))
# Absolute error target on CDF values.  The mode search compares density
# differences of order (CDF error / grid step), so it sits far below what
# the estimates themselves need.
_CDF_TOL = 1e-12
# A crossing point carries a few ulps of roundoff, which the CDF divides by
# a side of the rectangle, and a panel's error estimate can be twice the
# noise of its integrand: on rectangles with a side thinner than about
# 0.004 the target is this floor over the thinner side instead.
_ROUNDOFF_FLOOR = 16.0 * sys.float_info.epsilon
# Refinement limits: bisection rounds, and panels open at once for one
# integral.  With _CHUNK integrals per pass they also bound memory.
_MAX_ROUNDS = 50
_MAX_OPEN_PANELS = 32
_CHUNK = 512
# The mean's t-panels may err ten times the CDF target per unit t, so that
# CDF values within their own target cannot keep a panel open.
_MEAN_TOL_FACTOR = 10.0
_MEDIAN_TOL = 1e-9
# Median bracketing: points per round at these fractions of the bracket
# around the interpolated root, plus the bracket midpoint.
_MEDIAN_OFFSETS = np.concatenate(
    (-(4.0 ** -np.arange(1, 9)), [0.0], 4.0 ** -np.arange(8, 0, -1))
)
_MODE_TIE_TOL = 1e-9


class _NbsOps:
    """Share and level-crossing geometry for the symmetric model.

    The crossing methods here and in the other models take arrays (or
    scalars) and broadcast them.
    """

    name = "nbs"

    @staticmethod
    def theta(x: float, y: float) -> float:
        return theta_model(ModelKind.NBS, x, y)

    @staticmethod
    def d2_threshold(x, t):
        # theta <= t  <=>  y >= x + 1 - 2 t
        return x + 1.0 - 2.0 * t

    @staticmethod
    def d1_threshold(y, t):
        # theta <= t  <=>  x <= y + 2 t - 1
        return y + 2.0 * t - 1.0


class _Case1Ops:
    """Geometry for the outside-option-shifted weight model."""

    name = "case1"

    @staticmethod
    def theta(x: float, y: float) -> float:
        return theta_model(ModelKind.CASE1, x, y)

    @staticmethod
    def d2_threshold(x, t):
        # Level sets are hyperbolas centred at (1, 1): theta <= t  <=>
        # (1 - y)^2 <= (1 - x)^2 + 2 t - 1, written without the cancellation
        # of the 1s that would swamp small x and t.
        arg = 2.0 * (t - x) + x * x
        return np.where(arg < 0.0, np.inf, 1.0 - np.sqrt(np.maximum(arg, 0.0)))

    @staticmethod
    def d1_threshold(y, t):
        arg = (1.0 - y) ** 2 + 1.0 - 2.0 * t
        return np.where(arg <= 0.0, np.inf, 1.0 - np.sqrt(np.maximum(arg, 0.0)))


class _Case2Ops:
    """Geometry for the proportional weight model (rays from the origin)."""

    name = "case2"

    @staticmethod
    def theta(x: float, y: float) -> float:
        return theta_model(ModelKind.CASE2, x, y)

    @staticmethod
    def d2_threshold(x, t):
        # theta <= t  <=>  y >= x (1 - t) / t for 0 < t < 1; theta <= 1
        # always, and theta <= 0 only on the axis x = 0.
        inner = (t > 0.0) & (t < 1.0)
        safe_t = np.where(inner, t, 1.0)
        edge = np.where((t >= 1.0) | (x == 0.0), -np.inf, np.inf)
        return np.where(inner, x * (1.0 - safe_t) / safe_t, edge)

    @staticmethod
    def d1_threshold(y, t):
        below = t < 1.0
        safe_gap = np.where(below, 1.0 - t, 1.0)
        return np.where(below, t * y / safe_gap, np.inf)


@dataclass(frozen=True)
class FixedAlphaModel:
    """Share model with an externally fixed bargaining weight.

    Used when perception scores pin alpha directly instead of deriving it
    from the payoffs; theta = d1 + alpha * (1 - d1 - d2) stays monotone in
    both payoffs for any alpha in [0, 1].
    """

    alpha: float

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
            raise OutOfRangeError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def name(self) -> str:
        return f"fixed-alpha({self.alpha!r})"

    def theta(self, x: float, y: float) -> float:
        return theta_general(x, y, self.alpha)

    def d2_threshold(self, x, t):
        if self.alpha == 0.0:
            return np.where(x <= t, -np.inf, np.inf)
        return 1.0 - (t - (1.0 - self.alpha) * x) / self.alpha

    def d1_threshold(self, y, t):
        if self.alpha == 1.0:
            return np.where(1.0 - y <= t, np.inf, -np.inf)
        return (t - self.alpha * (1.0 - y)) / (1.0 - self.alpha)


class MonotoneShareFunction:
    """Posterior-engine adapter for an arbitrary monotone share function.

    ``fn(d1, d2)`` must be nondecreasing in d1, nonincreasing in d2, and
    defined on the feasible triangle d1 + d2 <= 1; it is called with one
    pair of floats at a time.  Level crossings are located by a bisection
    that runs on all requested points together down to brackets of width
    ``tol``, finished by one secant step inside each bracket, so any such
    share rule can reuse the CDF, curve, and estimator machinery without
    supplying analytic inverses.
    """

    def __init__(self, fn, name: str = "custom", tol: float = 1e-12):
        if not (0.0 < tol < 1e-3):
            raise OutOfRangeError(f"tol must lie in (0, 1e-3), got {tol!r}")
        self.fn = fn
        self.name = name
        self.tol = tol

    def theta(self, x: float, y: float) -> float:
        return float(self.fn(x, y))

    def d2_threshold(self, x, t):
        return self._crossing(x, t, free_is_d2=True)

    def d1_threshold(self, y, t):
        return self._crossing(y, t, free_is_d2=False)

    def _crossing(self, fixed, t, free_is_d2: bool) -> np.ndarray:
        """Where fn - t changes sign along the free payoff in [0, 1 - fixed]."""
        fixed, t = np.broadcast_arrays(
            np.asarray(fixed, dtype=float), np.asarray(t, dtype=float)
        )
        shape = fixed.shape
        fixed, t = fixed.ravel(), t.ravel()

        def excess(rows, free):  # fn - t at the free payoff, for these rows
            pairs = zip(fixed[rows].tolist(), free.tolist())
            if free_is_d2:
                shares = [self.fn(x, y) for x, y in pairs]
            else:
                shares = [self.fn(x, y) for y, x in pairs]
            return np.array(shares, dtype=float) - t[rows]

        every = np.arange(fixed.size)
        top = 1.0 - fixed  # stay inside the feasible triangle
        at_zero = excess(every, np.zeros_like(top))
        at_top = excess(every, top)
        # fn decreases along d2 and increases along d1.
        if free_is_d2:
            never, always = at_top > 0.0, at_zero <= 0.0
            out = np.where(never, np.inf, np.where(always, -np.inf, np.nan))
        else:
            never, always = at_zero > 0.0, at_top <= 0.0
            out = np.where(never, -np.inf, np.where(always, np.inf, np.nan))
        rows = np.flatnonzero(np.isnan(out))
        lo, hi = np.zeros(rows.size), top[rows]
        g_lo, g_hi = at_zero[rows], at_top[rows]
        wide = hi - lo > self.tol
        while wide.any():
            mid = 0.5 * (lo[wide] + hi[wide])
            g_mid = excess(rows[wide], mid)
            keep_lo = (g_mid <= 0.0) != (g_lo[wide] <= 0.0)
            idx = np.flatnonzero(wide)
            hi[idx[keep_lo]], g_hi[idx[keep_lo]] = mid[keep_lo], g_mid[keep_lo]
            lo[idx[~keep_lo]], g_lo[idx[~keep_lo]] = mid[~keep_lo], g_mid[~keep_lo]
            wide = hi - lo > self.tol
        # g_lo and g_hi lie on opposite sides of 0, so they differ.
        out[rows] = lo + g_lo / (g_lo - g_hi) * (hi - lo)
        return out.reshape(shape)


_BUILTIN_OPS = {
    ModelKind.NBS: _NbsOps(),
    ModelKind.CASE1: _Case1Ops(),
    ModelKind.CASE2: _Case2Ops(),
}


def as_posterior_model(model):
    """Resolve a model argument to an object with share/crossing methods.

    Accepts a :class:`ModelKind` (or its string value), a
    :class:`FixedAlphaModel`, a :class:`MonotoneShareFunction`, or any
    object already exposing ``theta``/``d2_threshold``/``d1_threshold``.
    The crossing methods must accept arrays of payoffs and of t, broadcast
    them, and return the crossing for each element.
    """
    if isinstance(model, ModelKind):
        return _BUILTIN_OPS[model]
    if isinstance(model, str):
        return _BUILTIN_OPS[ModelKind(model)]
    for attr in ("theta", "d2_threshold", "d1_threshold"):
        if not callable(getattr(model, attr, None)):
            raise OutOfRangeError(
                f"model must be a ModelKind or expose theta/d2_threshold/"
                f"d1_threshold, got {model!r}"
            )
    return model


def support_range(model, bounds: PayoffBounds) -> tuple[float, float]:
    """Smallest and largest share values the payoff rectangle can produce.

    By monotonicity these sit at the corners (a, d) and (b, c).  For the
    proportional model a corner at the origin is replaced by the limit
    along the rectangle's interior; a rectangle equal to the origin has no
    defined share at all and raises :class:`DegeneratePayoffsError`.
    """
    ops = as_posterior_model(model)
    try:
        lo = ops.theta(bounds.a, bounds.d)
    except DegeneratePayoffsError:
        if bounds.b == 0.0:  # the whole rectangle is the origin
            raise
        lo = 1.0  # d2 = 0 surely while d1 > 0 almost surely
    try:
        hi = ops.theta(bounds.b, bounds.c)
    except DegeneratePayoffsError:
        hi = 0.0  # d1 = 0 surely while d2 > 0 almost surely
    return lo, hi


def _require_prob_point(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and 0.0 <= t <= 1.0):
        raise OutOfRangeError(f"t must lie in [0, 1], got {t!r}")
    return t


def _integrate(fn, left: np.ndarray, right: np.ndarray, tol: float) -> np.ndarray:
    """Integral of ``fn`` over each interval [left[i], right[i]].

    ``fn(nodes, rows)`` returns the integrand at ``nodes``, one line of
    quadrature nodes per open panel, where ``rows`` names the interval each
    panel belongs to.  Each integral may err by ``tol`` times its
    interval's length.  A panel is accepted once its error estimate is at
    most ``tol`` times its own length, and all open panels of an integral
    are accepted once their estimates, with those already accepted, fit
    its allowance (which a panel next to an endpoint singularity needs);
    the other panels are bisected and evaluated again in the next round.
    Raises :class:`NumericalAccuracyError` when panels are still open after
    ``_MAX_ROUNDS`` rounds, or when one integral needs more than
    ``_MAX_OPEN_PANELS`` panels at once.
    """
    count = left.size
    total = np.zeros(count)
    spent = np.zeros(count)  # error estimates of the accepted panels
    allowance = tol * (right - left)
    rows = np.arange(count)
    for _ in range(_MAX_ROUNDS):
        if rows.size == 0:
            return total
        if (
            rows.size > _MAX_OPEN_PANELS
            and np.bincount(rows, minlength=count).max() > _MAX_OPEN_PANELS
        ):
            raise NumericalAccuracyError(
                f"quadrature needs more than {_MAX_OPEN_PANELS} panels on one "
                f"interval to reach its error target ({tol:.1e} per unit length)"
            )
        half = 0.5 * (right - left)
        mid = left + half
        values = fn(mid[:, None] + half[:, None] * _NODES, rows)
        fine = half * (values[:, :24] * _W24).sum(axis=1)
        error = np.abs(fine - half * (values[:, 24:] * _W12).sum(axis=1))
        pending = spent + np.bincount(rows, weights=error, minlength=count)
        done = (pending <= allowance)[rows] | (error <= tol * (right - left))
        total += np.bincount(rows[done], weights=fine[done], minlength=count)
        spent += np.bincount(rows[done], weights=error[done], minlength=count)
        redo = ~done
        left, mid, right, rows = left[redo], mid[redo], right[redo], rows[redo]
        left = np.concatenate((left, mid))
        right = np.concatenate((mid, right))
        rows = np.concatenate((rows, rows))
    raise NumericalAccuracyError(
        f"quadrature missed its error target ({tol:.1e} per unit length) "
        f"after {_MAX_ROUNDS} bisection rounds"
    )


def _tolerance(*lengths: float) -> float:
    """Error target of a value whose roundoff is divided by the shortest
    positive one of ``lengths``: 1e-12, or the roundoff floor over it."""
    shortest = min(length for length in lengths if length > 0.0)
    return max(_CDF_TOL, _ROUNDOFF_FLOOR / max(shortest, _ROUNDOFF_FLOOR))


def _cross_sections(ops, bounds: PayoffBounds, t: np.ndarray) -> np.ndarray:
    """The CDF at support points ``t`` of a rectangle with two open sides.

    The level curve theta = t crosses y = c at x_c and y = d at x_d.  Left
    of x_c the whole column [c, d] lies in {theta <= t}, right of x_d none
    of it does, and in between the fraction (d - y0(x, t)) / (d - c) does;
    only that middle part needs quadrature.
    """
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    height = d - c
    x_c = np.clip(ops.d1_threshold(c, t), a, b)
    x_d = np.clip(ops.d1_threshold(d, t), x_c, b)
    covered = x_c - a
    tol = _tolerance(b - a, height)
    open_rows = np.flatnonzero(x_d > x_c)
    for start in range(0, open_rows.size, _CHUNK):
        chunk = open_rows[start : start + _CHUNK]
        t_chunk = t[chunk]

        def column(x, rows):
            y0 = ops.d2_threshold(x, t_chunk[rows, None])
            return np.clip(d - y0, 0.0, height) / height

        covered[chunk] += _integrate(column, x_c[chunk], x_d[chunk], tol)
    return covered / (b - a)


def _cdf(ops, bounds: PayoffBounds, ts: np.ndarray) -> np.ndarray:
    """P{theta <= t} for every t of ``ts`` (each in [0, 1]).

    The one CDF kernel behind this module.  Values are accurate to 1e-12
    absolute (to the roundoff floor ``16 eps / side`` on rectangles with a
    side thinner than about 0.004); degenerate rectangles reduce to
    1-D length ratios, and a deterministic share yields the step value 0
    or 1.  A value is the same whatever other points share the call.
    """
    lo, hi = support_range(ops, bounds)
    if lo == hi:  # deterministic share: CDF is a step
        return np.where(ts >= lo, 1.0, 0.0)
    out = np.where(ts >= hi, 1.0, 0.0)
    inside = (ts >= lo) & (ts < hi)
    t = ts[inside]
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    # Near t = 0 or on very thin rectangles a crossing can overflow; +-inf is
    # the right limit there and every length is clipped to the rectangle.
    with np.errstate(over="ignore"):
        if bounds.is_point_mass1:
            share = np.clip(d - ops.d2_threshold(a, t), 0.0, d - c) / (d - c)
        elif bounds.is_point_mass2:
            share = np.clip(ops.d1_threshold(c, t) - a, 0.0, b - a) / (b - a)
        else:
            share = _cross_sections(ops, bounds, t)
    out[inside] = np.clip(share, 0.0, 1.0)
    return out


def cdf_at(model, bounds: PayoffBounds, t: float) -> float:
    """P{theta <= t} under independent uniform payoffs on the rectangle.

    Accurate to 1e-12 absolute (see :func:`_cdf`); raises
    :class:`NumericalAccuracyError` when the quadrature cannot reach that.
    """
    ops = as_posterior_model(model)
    t = _require_prob_point(t)
    return float(_cdf(ops, bounds, np.array([t]))[0])


@dataclass(frozen=True, eq=False)
class PosteriorCurve:
    """Share density and CDF tabulated on an even grid spanning [0, 1]."""

    thetas: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    model: object
    bounds: PayoffBounds


def pdf_curve(model, bounds: PayoffBounds, n_points: int = 2001) -> PosteriorCurve:
    """Tabulate the share CDF on an even grid and differentiate it.

    The density uses central differences in the grid interior and one-sided
    differences at the grid ends, so the trapezoid rule over the result
    telescopes back to CDF increments and integrates to 1 up to the
    quadrature accuracy.  Raises :class:`DegenerateDistributionError` when
    the share is deterministic (point-mass rectangle, or a proportional-
    model rectangle pinned to one axis) since no density curve exists.
    """
    ops = as_posterior_model(model)
    n_points = int(n_points)
    if n_points < 3:
        raise OutOfRangeError(f"n_points must be at least 3, got {n_points!r}")
    lo, hi = support_range(ops, bounds)
    if lo == hi:
        raise DegenerateDistributionError(
            f"the share is deterministically {lo!r} on these bounds; "
            "the distribution has no density curve"
        )
    thetas = np.linspace(0.0, 1.0, n_points)
    cdf = _cdf(ops, bounds, thetas)
    pdf = np.gradient(cdf, thetas)
    np.maximum(pdf, 0.0, out=pdf)  # clip quadrature noise
    return PosteriorCurve(thetas=thetas, pdf=pdf, cdf=cdf, model=ops, bounds=bounds)


def numeric_median(model, bounds: PayoffBounds) -> float:
    """Share value where the CDF crosses 1/2, located by batched bracketing.

    Each round evaluates the CDF at the bracket midpoint and at a ladder
    of points around the linearly interpolated crossing, all in one call,
    and keeps the tightest bracket.  Stops once |CDF - 1/2| <= 1e-9;
    returns the deterministic share value outright when the distribution
    is a point mass.
    """
    ops = as_posterior_model(model)
    lo, hi = support_range(ops, bounds)
    if lo == hi:
        return lo
    f_lo, f_hi = 0.0, 1.0
    for _ in range(100):  # each round at least halves the bracket
        if hi - lo <= 4.0 * math.ulp(0.5 * (lo + hi)):
            break
        guess = lo + (0.5 - f_lo) / (f_hi - f_lo) * (hi - lo)
        ts = np.append(guess + (hi - lo) * _MEDIAN_OFFSETS, 0.5 * (lo + hi))
        ts = np.unique(ts[(ts > lo) & (ts < hi)])
        probs = _cdf(ops, bounds, ts)
        gaps = np.abs(probs - 0.5)
        best = int(np.argmin(gaps))
        if gaps[best] <= _MEDIAN_TOL:
            return float(ts[best])
        below = np.flatnonzero(probs < 0.5)
        above = np.flatnonzero(probs > 0.5)
        if below.size:
            lo, f_lo = float(ts[below[-1]]), float(probs[below[-1]])
        if above.size:
            hi, f_hi = float(ts[above[0]]), float(probs[above[0]])
    return 0.5 * (lo + hi)


def numeric_mean(model, bounds: PayoffBounds) -> float:
    """Expected share, as hi - (integral of the CDF over the support [lo, hi]).

    The CDF is smooth between the images of the rectangle's corners, so
    the integral runs on t-panels split there, under the CDF's error rule
    with ten times its target (1e-11 per unit t, or the roundoff floor
    over the support's width when that is narrower still).  A
    deterministic share returns its value.
    """
    ops = as_posterior_model(model)
    lo, hi = support_range(ops, bounds)
    if lo == hi:
        return lo
    cuts = [lo, hi]
    for x, y in ((bounds.a, bounds.c), (bounds.b, bounds.d)):
        try:
            cuts.append(ops.theta(x, y))
        except DegeneratePayoffsError:
            pass  # the proportional model's corner at the origin
    edges = np.unique(np.clip(cuts, lo, hi))

    def cdf(ts, _rows):
        return _cdf(ops, bounds, ts.ravel()).reshape(ts.shape)

    # A support only a few thousand ulps wide also rounds the t nodes.
    tol = _MEAN_TOL_FACTOR * _tolerance(bounds.width1, bounds.width2, hi - lo)
    area = _integrate(cdf, edges[:-1], edges[1:], tol)
    return min(1.0, max(0.0, hi - float(area.sum())))


@dataclass(frozen=True)
class ModeResult:
    """Grid argmax of the share density.

    ``plateau`` records whether the maximum was attained on more than one
    grid point (a flat top rather than a single peak).
    """

    value: float
    plateau: bool

    def __float__(self) -> float:
        return self.value


def numeric_mode(model, bounds: PayoffBounds, n_points: int = 2001) -> ModeResult:
    """Locate the share density's maximum on a grid of ``n_points``.

    Ties within 1e-9 of the grid maximum form the argmax set.  The share
    value at the upper payoff corner (b, d) is returned exactly whenever
    its one-sided density (CDF slope into the support) ties the maximum,
    since the true peak of these models sits at that corner image;
    otherwise the largest tied grid point is returned.
    """
    return mode_from_curve(pdf_curve(model, bounds, n_points))


def mode_from_curve(curve: PosteriorCurve) -> ModeResult:
    """The density argmax of an already-tabulated posterior curve.

    Same tie and corner conventions as :func:`numeric_mode`.
    """
    ops = as_posterior_model(curve.model)
    bounds = curve.bounds
    peak = float(curve.pdf.max())
    tied = np.flatnonzero(curve.pdf >= peak - _MODE_TIE_TOL)
    plateau = tied.size > 1
    step = curve.thetas[1] - curve.thetas[0]
    corner = ops.theta(bounds.b, bounds.d)
    ts = np.array([corner - step, corner, corner + step])
    valid = (ts >= 0.0) & (ts <= 1.0)
    probs = np.full(3, np.nan)
    probs[valid] = _cdf(ops, bounds, ts[valid])
    one_sided = np.diff(probs) / step  # into the corner, out of it
    one_sided = one_sided[~np.isnan(one_sided)]
    if one_sided.size and one_sided.max() >= peak - _MODE_TIE_TOL:
        return ModeResult(value=corner, plateau=plateau)
    return ModeResult(value=float(curve.thetas[tied[-1]]), plateau=plateau)


def overpayment_prob(model, bounds: PayoffBounds, theta_hat: float) -> float:
    """Probability the realized share is at or below the point estimate.

    This is the chance that paying party 1 the estimated share
    overcompensates it: P{theta <= theta_hat} = ``cdf_at`` at the estimate.
    """
    return cdf_at(model, bounds, theta_hat)
