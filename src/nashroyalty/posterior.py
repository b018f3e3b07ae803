"""Numeric posterior distribution of party 1's share.

Every share model (:class:`~nashroyalty.bargaining.ShareModel`) maps the
payoff pair (d1, d2) to a share that is nondecreasing in d1 and
nonincreasing in d2.  For fixed d1 = x the event
{theta <= t} is therefore {d2 >= y0(x, t)} for a crossing point y0, so the
CDF is a 1-D integral of clipped cross-section lengths over the payoff
rectangle.  One vectorized kernel evaluates that integral for a whole
array of t at once, on Gauss-Legendre panels refined until each meets its
error target.  The density grid, median and mode derive from that CDF, and
so does the mean, as hi - (integral of the CDF over the support [lo, hi]).

This module is the verification channel for the closed forms in
:mod:`nashroyalty.estimators`: it never reuses their formulas.  Both it
and :func:`~nashroyalty.estimators.closed_cdf` read the level-set
crossings of the :class:`~nashroyalty.bargaining.ShareModel`, so a CDF
comparison between them checks two integrations of one crossing; the
tests judge the crossings against references of their own.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

try:  # the clip ufunc itself: np.clip reaches it through Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .bargaining import (
    _MAX_COUNT,
    FixedAlphaModel,
    PayoffBounds,
    _Record,
    _clip01,
    _require_bounds,
    _require_count,
    _require_unit,
    as_share_model,
)
from .errors import (
    DegenerateDistributionError,
    DegeneratePayoffsError,
    NumericalAccuracyError,
)
from .estimators import NOTE_NUMERIC, EstimateResult, RiskProfile, as_risk_profile

__all__ = [
    "FixedAlphaModel",
    "PosteriorCurve",
    "ModeResult",
    "cdf_at",
    "pdf_curve",
    "numeric_median",
    "numeric_mean",
    "mode_from_curve",
    "numeric_estimate",
]

# Gauss-Legendre rules on [-1, 1].  A panel's value is its 24-point sum;
# the distance to the 12-point sum on the same panel is its error estimate.
# The rules are stored, not computed, so that no process loads
# numpy.polynomial or starts LAPACK for them: each positive node and its
# weight, mirrored below.  The literals are the bits that numpy 2.4.6's
# np.polynomial.legendre.leggauss returns, which is exactly antisymmetric in
# the nodes and symmetric in the weights, so every kernel value keeps its
# bits.  The nodes are within an ulp of the exact rule; the 24-point
# weights are up to about 1.2e-13 relative from it, below the CDF target,
# and rounding them correctly would move every value.
_POSITIVE24 = (
    (0.06405689286260563, 0.12793819534675202),
    (0.1911188674736163, 0.12583745634682825),
    (0.3150426796961634, 0.1216704729278033),
    (0.4337935076260451, 0.11550566805372552),
    (0.5454214713888396, 0.10744427011596556),
    (0.6480936519369755, 0.09761865210411393),
    (0.7401241915785544, 0.0861901615319532),
    (0.820001985973903, 0.07334648141108016),
    (0.8864155270044011, 0.05929858491543636),
    (0.9382745520027328, 0.04427743881741941),
    (0.9747285559713095, 0.02853138862893356),
    (0.9951872199970213, 0.01234122979998869),
)
_POSITIVE12 = (
    (0.1252334085114689, 0.2491470458134027),
    (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573),
    (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907),
    (0.9815606342467192, 0.04717533638651141),
)


def _mirrored(positive: tuple) -> tuple:
    """Nodes ascending on [-1, 1] and their weights, from the positive half."""
    nodes, weights = np.array(positive).T
    return (
        np.concatenate((-nodes[::-1], nodes)),
        np.concatenate((weights[::-1], weights)),
    )


_X24, _W24 = _mirrored(_POSITIVE24)
_X12, _W12 = _mirrored(_POSITIVE12)
_NODES = np.concatenate((_X24, _X12))
_WEIGHTS = np.concatenate((_W24, _W12))
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
# integral.  With _CHUNK integrals per pass they also bound memory.  The
# first round's nodes for 256 integrals take 72 KiB per array, small enough
# that a pass reuses heap memory; at 512 (144 KiB) the heap was trimmed and
# faulted in again on every pass.
_MAX_ROUNDS = 50
_MAX_OPEN_PANELS = 32
_CHUNK = 256
# The mean's t-panels may err ten times the CDF target per unit t, so that
# CDF values within their own target cannot keep a panel open.
_MEAN_TOL_FACTOR = 10.0
_MEDIAN_TOL = 1e-9
# Median bracketing: points per round at these fractions of the bracket
# around the interpolated root, plus the bracket midpoint.
_MEDIAN_OFFSETS = (
    *(-(4.0**-k) for k in range(1, 9)),
    0.0,
    *(4.0**-k for k in range(8, 0, -1)),
)
_MODE_TIE_TOL = 1e-9
# A median bracket [lo, hi] with 0 < lo and hi / lo above this spans many
# decades, where halving it gains little: each round also tries its
# geometric midpoint.
_DECADES_RATIO = 2.0**32

# The CDF values the engine located on its last rectangle, kept for cdf_at
# and for the solvers' first rounds: (model, bits of the rectangle, bits of
# the points t in the order kept, bits of F at each).  Bits, since -0.0 ==
# 0.0 yet the kernel may tell them apart.  Replaced whole and never written
# (it holds only bytes), so threads may share it: a race only loses a value.
# At most the mode's three probe points, the median's first ladder, the
# mean's first-round nodes on at most three t-panels, and the median found.
_KEPT = 3 + (len(_MEDIAN_OFFSETS) + 2) + 3 * _NODES.size + 1
_NOTHING = (None, b"", b"", b"")
_located = _NOTHING
_box_bits = struct.Struct("4d").pack


def _every(mask: np.ndarray) -> bool:
    # np.all passes through Python-level wrappers, a few times slower on
    # short masks.
    return np.count_nonzero(mask) == mask.size


def _integrate(fn, left: np.ndarray, right: np.ndarray, tol: float) -> np.ndarray:
    """Integral of ``fn`` over each interval [left[i], right[i]].

    ``fn(nodes, rows)`` returns the integrand at ``nodes``, one line of
    quadrature nodes per open panel, as a new array that the quadrature
    may overwrite; ``rows`` names the interval each panel belongs to: an
    index array, or a full slice in the first round, which has one panel
    per interval in order.  Each integral may err by
    ``tol`` times its interval's length.  A panel is accepted once its
    error estimate is at most ``tol`` times its own length, and all open
    panels of an integral are accepted once their estimates, with those
    already accepted, fit its allowance (which a panel next to an endpoint
    singularity needs); the other panels are bisected and evaluated again
    in the next round.  Raises :class:`NumericalAccuracyError` when panels
    are still open after ``_MAX_ROUNDS`` rounds, or when one integral needs
    more than ``_MAX_OPEN_PANELS`` panels at once.
    """
    width, half, mid, nodes = _panels(left, right)
    allowance = tol * width
    fine, error = _panel_sums(fn, nodes, half, slice(None))
    # With one panel per interval both acceptance rules read the same.
    done = error <= allowance
    if _every(done):
        return fine + 0.0  # the 0.0 + fine of an accumulated total
    count = left.size
    total = np.where(done, fine, 0.0)
    spent = np.where(done, error, 0.0)  # error estimates of the accepted panels
    rows = np.arange(count)
    for _ in range(1, _MAX_ROUNDS):
        redo = ~done
        left, mid, right, rows = left[redo], mid[redo], right[redo], rows[redo]
        if rows.size == 0:
            return total
        left = np.concatenate((left, mid))
        right = np.concatenate((mid, right))
        rows = np.concatenate((rows, rows))
        if (
            rows.size > _MAX_OPEN_PANELS
            and np.bincount(rows, minlength=count).max() > _MAX_OPEN_PANELS
        ):
            raise NumericalAccuracyError(
                f"quadrature needs more than {_MAX_OPEN_PANELS} panels on one "
                f"interval to reach its error target ({tol:.1e} per unit length)"
            )
        width, half, mid, nodes = _panels(left, right)
        fine, error = _panel_sums(fn, nodes, half, rows)
        pending = spent + np.bincount(rows, weights=error, minlength=count)
        done = (pending <= allowance)[rows] | (error <= tol * width)
        total += np.bincount(rows[done], weights=fine[done], minlength=count)
        spent += np.bincount(rows[done], weights=error[done], minlength=count)
    if _every(done):  # the last round closed every open panel
        return total
    raise NumericalAccuracyError(
        f"quadrature missed its error target ({tol:.1e} per unit length) "
        f"after {_MAX_ROUNDS} bisection rounds"
    )


def _panels(left: np.ndarray, right: np.ndarray) -> tuple:
    """Each panel's width, half-width and midpoint, and its quadrature
    nodes: one line of ``_NODES.size`` per panel, 24 then 12."""
    width = right - left
    half = 0.5 * width
    mid = left + half
    nodes = half[:, None] * _NODES
    nodes += mid[:, None]
    return width, half, mid, nodes


def _panel_sums(fn, nodes: np.ndarray, half: np.ndarray, rows):
    """Each panel's 24-point sum and its distance to the 12-point sum."""
    # numpy's own reductions give one row the same bits whatever other rows
    # share the call, so a CDF value does not depend on its batch (see _cdf),
    # and cdf_at's kept values rest on that.  A BLAS product does not keep
    # it: with numpy 2.4.6 and OpenBLAS 0.3.31, on 277 panel rows of six
    # medians, ``values @ W`` (the two weight vectors as columns) gave other
    # bits than the row alone on 189 rows, and ``values[:, :24] @ w`` on
    # 176.  np.einsum and np.vecdot differed on none, but vecdot calls BLAS
    # ddot, so its bits may depend on the CPU.
    values = fn(nodes, rows)
    values *= _WEIGHTS
    fine = np.add.reduce(values[:, :24], axis=1)
    fine *= half
    error = np.add.reduce(values[:, 24:], axis=1)
    error *= half
    np.subtract(fine, error, out=error)
    np.abs(error, out=error)
    return fine, error


def _tolerance(*lengths: float) -> float:
    """Error target of a value whose roundoff is divided by the shortest
    positive one of ``lengths``: 1e-12, or the roundoff floor over it."""
    shortest = min(length for length in lengths if length > 0.0)
    return max(_CDF_TOL, _ROUNDOFF_FLOOR / max(shortest, _ROUNDOFF_FLOOR))


class _Rectangle:
    """A payoff rectangle prepared for the kernel, once per solve: all that
    a kernel call reads of the box.

    The model's ``rescaled`` box, its support [lo, hi], the height d - c,
    the rows ``[[c], [d]]`` where the level sets are crossed and, unless
    the share is deterministic, the band's error target ``tol``.
    """

    __slots__ = ("ops", "bounds", "lo", "hi", "height", "rows", "tol")

    def __init__(self, ops, bounds: PayoffBounds) -> None:
        self.ops = ops
        self.bounds = bounds = ops.rescaled(bounds)
        self.lo, self.hi = ops.support(bounds)
        self.height = bounds.d - bounds.c
        self.rows = np.array([[bounds.c], [bounds.d]])
        if self.lo < self.hi:  # then a side is wider than a point
            self.tol = _tolerance(bounds.b - bounds.a, self.height)


def _cross_sections(rect: _Rectangle, t: np.ndarray) -> np.ndarray:
    """The CDF at support points ``t`` where the share is not deterministic.

    Column x holds the fraction (d - y0(x, t)) / (d - c) of [c, d] in
    {theta <= t}, and a point-mass d1 side (a = b) is that one column.  Else
    theta = t crosses y = c at x_c and y = d at x_d: columns left of x_c lie
    wholly in the event, those right of x_d wholly out, and only the band in
    between needs quadrature.  A point-mass d2 side (c = d) has an empty band.
    """
    ops, height, tol = rect.ops, rect.height, rect.tol
    a, b, d = rect.bounds.a, rect.bounds.b, rect.bounds.d

    def column(x, t_x):
        # In place: a round's nodes can fill _CHUNK x 36 floats.  Where the
        # clip ufunc keeps a -0.0 that np.maximum makes 0.0, _cdf's last
        # clip makes it 0.0.
        share = d - ops.d2_threshold(x, t_x)
        _clip(share, 0.0, height, out=share)
        share /= height
        return share

    if a == b:
        return column(a, t)
    cross = ops.d1_threshold(rect.rows, t)  # rows y = c and y = d
    x_c = _clip(cross[0], a, b)
    x_d = _clip(cross[1], x_c, b)
    covered = x_c - a

    def band(part, left, right):
        return _integrate(lambda x, rows: column(x, part[rows, None]), left, right, tol)

    is_open = x_d > x_c
    if t.size <= _CHUNK and _every(is_open):
        covered += band(t, x_c, x_d)
    else:
        open_rows = np.flatnonzero(is_open)
        for start in range(0, open_rows.size, _CHUNK):
            chunk = open_rows[start : start + _CHUNK]
            covered[chunk] += band(t[chunk], x_c[chunk], x_d[chunk])
    covered /= b - a
    return covered


def _cdf(rect: _Rectangle, ts: np.ndarray, inside: bool = False) -> np.ndarray:
    """P{theta <= t} for every t of ``ts`` (each in [0, 1]) on a prepared
    rectangle; ``inside=True`` promises that every t lies in [lo, hi).

    The one CDF kernel behind this module.  Values are accurate to 1e-12
    absolute (to the roundoff floor ``16 eps / side`` on rectangles with a
    side thinner than about 0.004).  A deterministic share yields the step
    value 0 or 1; in :func:`_cross_sections` a point-mass d1 side is one
    column and a point-mass d2 side has an empty band.  A value is the same
    whatever other points share the call, and whether or not ``inside`` is
    given.  The rectangle is the model's ``rescaled`` one: a case2
    rectangle whose largest bound is below 1/4 is first lifted into
    [1/4, 1/2) by an exact power of two.  A solver prepares its
    :class:`_Rectangle` once and passes it to every call.
    """
    lo, hi = rect.lo, rect.hi
    if lo == hi:  # deterministic share: CDF is a step
        return np.where(ts >= lo, 1.0, 0.0)
    if not inside:
        mask = (ts >= lo) & (ts < hi)
        inside = _every(mask)
    share = _cross_sections(rect, ts if inside else ts[mask])
    # Two calls, not one clip: the clip ufunc returns x on a tie, so it
    # would keep a -0.0 that np.maximum(-0.0, 0.0) makes 0.0.
    np.maximum(share, 0.0, out=share)
    np.minimum(share, 1.0, out=share)
    if inside:
        return share
    out = np.where(ts >= hi, 1.0, 0.0)
    out[mask] = share
    return out


def _remember(ops, bounds: PayoffBounds, ts, values) -> None:
    """Keep ``values``, the kernel's at the points ``ts`` of ``bounds``, after
    those kept on the same rectangle and model while at most ``_KEPT`` in all."""
    global _located
    box = _box_bits(bounds.a, bounds.b, bounds.c, bounds.d)
    keys = np.asarray(ts, dtype=float).tobytes()
    found = np.asarray(values, dtype=float).tobytes()
    kept_ops, kept_box, kept_keys, kept_values = _located
    if kept_box == box and kept_ops == ops and len(kept_keys) + len(keys) <= 8 * _KEPT:
        keys, found = kept_keys + keys, kept_values + found
    _located = (ops, box, keys, found)


def _recall(ops, bounds: PayoffBounds, ts: np.ndarray) -> np.ndarray | None:
    """The kept values at the points ``ts``, as a new flat array, or None
    unless they were kept in one run, in this order.

    A run, since one search of the kept bits finds it in a few calls
    however many points it holds; every caller asks for one point, or for
    a run that :func:`pdf_curve` kept whole.
    """
    kept_ops, kept_box, keys, values = _located
    if (
        len(keys) < 8 * ts.size
        or kept_box != _box_bits(bounds.a, bounds.b, bounds.c, bounds.d)
        or kept_ops != ops
    ):
        return None
    wanted = ts.tobytes()
    start = keys.find(wanted)
    while start % 8 and start > 0:  # a run starts on a point's first byte
        start = keys.find(wanted, start + 1)
    if start < 0:
        return None
    return np.frombuffer(values, count=ts.size, offset=start).copy()


def cdf_at(model, bounds: PayoffBounds, t: float) -> float:
    """P{theta <= t} under independent uniform payoffs on the rectangle.

    Accurate to 1e-12 absolute (see :func:`_cdf`); raises
    :class:`NumericalAccuracyError` when the quadrature cannot reach that.
    The engine keeps the values it located on the last rectangle asked
    about, at most 131 (see :func:`pdf_curve`): among them the corner
    probe of :func:`pdf_curve`, which holds a mode at the corner image,
    and the point :func:`numeric_median` returned.  At one of those
    points, with the same model and a rectangle of the same bits, the kept
    value is returned; it is the kernel's own, since a value does not
    depend on the other points of its call.  Anywhere else the kernel is
    called.
    """
    ops = as_share_model(model)
    bounds = _require_bounds(bounds)
    t = _require_unit("t", t)
    kept = _recall(ops, bounds, np.array([t]))
    if kept is not None:
        return float(kept[0])
    return float(_cdf(_Rectangle(ops, bounds), np.array([t]))[0])


class ModeResult(_Record):
    """Grid argmax of the share density.

    ``plateau`` records whether the maximum was attained on more than one
    grid point (a flat top rather than a single peak).
    """

    value: float
    plateau: bool
    __slots__ = tuple(__annotations__)


class PosteriorCurve(_Record):
    """Share density and CDF tabulated on an even grid spanning [0, 1], and
    the density's mode on that grid.

    Holds arrays, so two curves are equal only if they are the same object.
    """

    thetas: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    mode: ModeResult
    __slots__ = tuple(__annotations__)

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def pdf_curve(model, bounds: PayoffBounds, n_points: int = 2001) -> PosteriorCurve:
    """Tabulate the share CDF on an even grid and differentiate it.

    The density uses central differences in the grid interior and one-sided
    differences at the grid ends, so the trapezoid rule over the result
    telescopes back to CDF increments and integrates to 1 up to the
    quadrature accuracy.  Raises :class:`DegenerateDistributionError` when
    the share is deterministic (point-mass rectangle, or a proportional-
    model rectangle pinned to one axis) since no density curve exists, and
    :class:`OutOfRangeError` unless ``n_points`` is an integer from 3 to
    ``sys.maxsize // 8``.

    The curve's ``mode`` is the density's maximum on the grid.  Ties
    within 1e-9 of the grid maximum form the argmax set.  The share value
    at the upper payoff corner (b, d) is the mode, exactly, whenever its
    one-sided density (CDF slope into the support) ties the maximum, since
    the true peak of these models sits at that corner image; otherwise the
    largest tied grid point is.  The slopes come from the corner probe:
    the CDF at the corner image and one grid step to either side, those in
    [0, 1], located in the grid's own kernel call.

    That call also locates the CDF at the points that the other estimates
    read first, and keeps those and the probe for them and for
    :func:`cdf_at` (replacing the values kept on another rectangle): the
    first round of :func:`numeric_median`, at most 19 points, and the
    first round of :func:`numeric_mean`, 36 nodes on each of at most
    three t-panels.  A caller that wants only the curve or the mode so
    pays for at most 127 points more than the grid, in the same call.
    """
    ops = as_share_model(model)
    bounds = _require_bounds(bounds)
    n_points = _require_count("n_points", n_points, 3, _MAX_COUNT)
    lo, hi = ops.support(bounds)
    if lo == hi:
        raise DegenerateDistributionError(
            f"the share is deterministically {lo!r} on these bounds; "
            "the distribution has no density curve"
        )
    # np.linspace(0, 1, n_points) without its Python wrapper: the same steps,
    # followed by the mode's corner probe and the solvers' first rounds.
    step = 1.0 / (n_points - 1)
    corner = ops.at(bounds.b, bounds.d)  # in [0, 1]: only an end can drop out
    probe = [t for t in (corner - step, corner, corner + step) if 0.0 <= t <= 1.0]
    rect = _Rectangle(ops, bounds)  # the solvers' rectangle and support
    ladder = _median_ladder(rect.lo, rect.hi, 0.0, 1.0)
    nodes = _panels(*_mean_panels(ops, rect.bounds, rect.lo, rect.hi))[3].ravel()
    ts = np.arange(n_points + len(probe) + len(ladder) + nodes.size, dtype=float)
    thetas = ts[:n_points]
    thetas *= step
    thetas[-1] = 1.0
    located = ts[n_points:]
    located[: len(probe) + len(ladder)] = probe + ladder
    located[len(probe) + len(ladder) :] = nodes
    values = _cdf(rect, ts)
    _remember(ops, bounds, located, values[n_points:])
    cdf = values[:n_points]
    pdf = _gradient(cdf, thetas)
    np.maximum(pdf, 0.0, out=pdf)  # clip quadrature noise
    peak = float(pdf.max())
    tied = np.flatnonzero(pdf >= peak - _MODE_TIE_TOL)
    probs = values[n_points : n_points + len(probe)].tolist()
    # Slopes into the corner and out of it.
    slopes = ((q - p) / step for p, q in zip(probs, probs[1:]))
    at_corner = any(slope >= peak - _MODE_TIE_TOL for slope in slopes)
    mode = ModeResult(corner if at_corner else float(thetas[tied[-1]]), tied.size > 1)
    return PosteriorCurve(thetas=thetas, pdf=pdf, cdf=cdf, mode=mode)


def _gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.gradient(f, x)`` without its argument handling: the same
    arithmetic in the same order, including its branch for evenly spaced
    ``x``, which it takes when every step rounds alike (as on
    ``np.linspace(0, 1, 2**k + 1)``)."""
    dx = x[1:] - x[:-1]
    out = np.empty_like(f)
    inner = out[1:-1]
    if _every(dx == dx[0]):
        np.subtract(f[2:], f[:-2], out=inner)
        inner /= 2.0 * dx[0]
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        span = dx1 + dx2
        below = -dx2 / (dx1 * span)
        here = (dx2 - dx1) / (dx1 * dx2)
        above = dx1 / (dx2 * span)
        np.multiply(below, f[:-2], out=inner)
        here *= f[1:-1]
        inner += here
        above *= f[2:]
        inner += above
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def _median_ladder(lo: float, hi: float, f_lo: float, f_hi: float) -> list:
    """One bracketing round's points in (lo, hi), in order: a ladder around
    the crossing of 1/2 interpolated from the CDF values ``f_lo`` and
    ``f_hi`` at the ends, the midpoint and, when the bracket spans many
    decades, its geometric midpoint."""
    span = hi - lo
    guess = lo + (0.5 - f_lo) / (f_hi - f_lo) * span
    ladder = {guess + span * offset for offset in _MEDIAN_OFFSETS}
    ladder.add(0.5 * (lo + hi))
    if lo > 0.0 and hi > lo * _DECADES_RATIO:
        ladder.add(math.sqrt(lo) * math.sqrt(hi))  # lo * hi may underflow
    return sorted(t for t in ladder if lo < t < hi)


def numeric_median(model, bounds: PayoffBounds) -> float:
    """Share value where the CDF crosses 1/2, located by batched bracketing.

    Each round evaluates the CDF at the bracket midpoint and at a ladder
    of points around the linearly interpolated crossing, all in one call,
    and keeps the tightest bracket.  Stops once |CDF - 1/2| <= 1e-9, or
    within the CDF's own error target when that is looser (on rectangles
    with a side, or a support, thinner than about 4e-6, see :func:`_cdf`);
    raises :class:`NumericalAccuracyError` when the bracket collapses first.
    Returns the support's midpoint outright when the support is at most
    a few ulps wide, as for a point mass.  A bracket [lo, hi] with lo > 0
    that spans many decades (hi > 2**32 lo) also tries its geometric
    midpoint each round.  The first round, on the whole support, reads the
    values :func:`pdf_curve` kept for this model and rectangle, and calls
    the kernel only when they are not kept.  The CDF at the point returned
    is kept for :func:`cdf_at`.  The rectangle is prepared for the kernel
    once (see :func:`_cdf`), and each round's points, which lie inside the
    support, skip the kernel's support mask; a round returns the first
    point closest to 1/2 and keeps the last point below and the first above.
    """
    ops = as_share_model(model)
    box = _require_bounds(bounds)
    rect = _Rectangle(ops, box)
    lo, hi = rect.lo, rect.hi
    if hi - lo <= 4.0 * math.ulp(0.5 * (lo + hi)):
        return 0.5 * (lo + hi)
    bounds = rect.bounds  # its widths set the target
    target = max(_MEDIAN_TOL, _tolerance(bounds.width1, bounds.width2, hi - lo))
    f_lo, f_hi = 0.0, 1.0
    ts = np.array(_median_ladder(lo, hi, f_lo, f_hi))
    values = _recall(ops, box, ts)
    for _ in range(100):  # each round at least halves the bracket
        if values is None:
            values = _cdf(rect, ts, inside=True)  # a ladder lies in (lo, hi)
        # The first point closest to 1/2, the last below it, the first above.
        gap, below, above = math.inf, None, None
        for t, p in zip(ts.tolist(), values.tolist()):
            if abs(p - 0.5) < gap:
                gap, closest = abs(p - 0.5), (t, p)
            if p < 0.5:
                below = t, p
            elif p > 0.5 and above is None:
                above = t, p
        if gap <= target:
            _remember(ops, box, [closest[0]], [closest[1]])
            return closest[0]
        if below is not None:
            lo, f_lo = below
        if above is not None:
            hi, f_hi = above
        if hi - lo <= 4.0 * math.ulp(0.5 * (lo + hi)):
            break
        ts, values = np.array(_median_ladder(lo, hi, f_lo, f_hi)), None
    raise NumericalAccuracyError(
        f"the median bracket closed at [{lo!r}, {hi!r}] with CDF values "
        f"{f_lo!r} and {f_hi!r}, none within {target:.1e} of 1/2"
    )


def _mean_panels(ops, bounds: PayoffBounds, lo: float, hi: float) -> tuple:
    """The left and right ends of the mean's first t-panels: the support
    [lo, hi] split at the images of the rectangle's corners."""
    cuts = [lo, hi]
    for x, y in ((bounds.a, bounds.c), (bounds.b, bounds.d)):
        try:
            cuts.append(ops.at(x, y))
        except DegeneratePayoffsError:
            pass  # the proportional model's corner at the origin
    edges = np.array(sorted({min(max(cut, lo), hi) for cut in cuts}))
    return edges[:-1], edges[1:]


def numeric_mean(model, bounds: PayoffBounds) -> float:
    """Expected share, as hi - (integral of the CDF over the support [lo, hi]).

    The CDF is smooth between the images of the rectangle's corners, so
    the integral runs on t-panels split there, under the CDF's error rule
    with ten times its target (1e-11 per unit t, or the roundoff floor
    over the support's width when that is narrower still).  The first
    round's nodes read the values :func:`pdf_curve` kept for this model
    and rectangle, and call the kernel only when they are not kept; every
    call reads the rectangle prepared once for the solve (see
    :func:`_cdf`).  A deterministic share returns its value.
    """
    ops = as_share_model(model)
    box = _require_bounds(bounds)
    rect = _Rectangle(ops, box)
    bounds, lo, hi = rect.bounds, rect.lo, rect.hi  # its widths set the target
    if lo == hi:
        return lo

    def cdf(ts, rows):
        flat = ts.ravel()
        # rows is a full slice only in the first round.
        values = _recall(ops, box, flat) if isinstance(rows, slice) else None
        if values is None:
            values = _cdf(rect, flat)
        return values.reshape(ts.shape)

    # A support only a few thousand ulps wide also rounds the t nodes.
    tol = _MEAN_TOL_FACTOR * _tolerance(bounds.width1, bounds.width2, hi - lo)
    area = _integrate(cdf, *_mean_panels(ops, bounds, lo, hi), tol)
    return _clip01(hi - float(area.sum()))


def mode_from_curve(curve: PosteriorCurve) -> ModeResult:
    """The share density's maximum on the grid of a tabulated curve: the
    ``mode`` the curve carries (see :func:`pdf_curve`).  Calls no kernel."""
    return curve.mode


def numeric_estimate(
    model, risk: RiskProfile, bounds: PayoffBounds, n_points: int = 2001
) -> EstimateResult:
    """The engine's estimate for one risk profile, noted ``NOTE_NUMERIC``.

    The ``mode`` of the :func:`pdf_curve` on ``n_points`` for ``MAP``, the
    median for ``ABS``, and the mean for ``MSE``; a deterministic share,
    which has no density, returns its one value for every risk, as the
    closed forms do.  ``risk`` may also be given by its string value; any other value
    raises :class:`OutOfRangeError`, as does an ``n_points`` that
    :func:`pdf_curve` would refuse, under every risk.
    """
    risk = as_risk_profile(risk)
    n_points = _require_count("n_points", n_points, 3, _MAX_COUNT)
    lo, hi = as_share_model(model).support(_require_bounds(bounds))
    if lo == hi:  # a deterministic share: every estimate is its one value
        value = lo
    elif risk is RiskProfile.MAP:
        value = pdf_curve(model, bounds, n_points).mode.value
    elif risk is RiskProfile.ABS:
        value = numeric_median(model, bounds)
    else:
        value = numeric_mean(model, bounds)
    return EstimateResult(value, 1.0 - value, NOTE_NUMERIC)
