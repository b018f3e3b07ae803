"""The batched CDF kernel against a scalar scipy reference, plus properties.

The reference below is the scalar engine the package used before the
batched kernel: one ``scipy.integrate.quad`` call per CDF point, with its
own scalar crossing formulas.  (Its ``dblquad`` mean lives on as
``quadrature_mean`` in ``test_estimators.py``; here the mean is held to
the closed form.)  scipy is a test-only dependency.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nashroyalty import (
    FixedAlphaModel,
    ModelKind,
    NumericalAccuracyError,
    RiskProfile,
    cdf_at,
    closed_cdf,
    estimate,
    numeric_mean,
    random_valid_bounds,
    theta_model,
    validate_bounds,
)
from nashroyalty import bargaining, posterior
from nashroyalty.bargaining import ShareModel, as_share_model
from nashroyalty.posterior import _cdf, _integrate, _Rectangle

# --- scalar scipy reference ---------------------------------------------------


def _ref_d2_threshold(model: ModelKind, x: float, t: float) -> float:
    if model is ModelKind.NBS:
        return x + 1.0 - 2.0 * t
    if model is ModelKind.CASE1:
        arg = (1.0 - x) ** 2 + 2.0 * t - 1.0
        return math.inf if arg < 0.0 else 1.0 - math.sqrt(arg)
    if t >= 1.0:
        return -math.inf
    if t <= 0.0:
        return -math.inf if x == 0.0 else math.inf
    return x * (1.0 - t) / t


def _ref_d1_threshold(model: ModelKind, y: float, t: float) -> float:
    if model is ModelKind.NBS:
        return y + 2.0 * t - 1.0
    if model is ModelKind.CASE1:
        arg = (1.0 - y) ** 2 + 1.0 - 2.0 * t
        return math.inf if arg <= 0.0 else 1.0 - math.sqrt(arg)
    return math.inf if t >= 1.0 else t * y / (1.0 - t)


def _ref_share(model: ModelKind, x: float, y: float) -> float:
    if model is ModelKind.NBS:
        return (1.0 + x - y) / 2.0
    if model is ModelKind.CASE1:
        return (1.0 + 2.0 * (x - y) - x * x + y * y) / 2.0
    return x / (x + y)


def reference_cdf(model: ModelKind, bounds, t: float) -> float:
    """P{theta <= t} by one adaptive ``quad`` over d1 (rectangles with a < b
    and c < d).  The share rises in d1 and falls in d2, so its support runs
    from the corner (a, d) to the corner (b, c)."""
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    if t < _ref_share(model, a, d):
        return 0.0
    if t >= _ref_share(model, b, c):
        return 1.0
    height = d - c

    def cross_len(x: float) -> float:
        y0 = _ref_d2_threshold(model, x, t)
        if y0 == -math.inf:
            return height
        if y0 == math.inf:
            return 0.0
        return min(height, max(0.0, d - y0))

    kinks = sorted(
        {
            x
            for x in (_ref_d1_threshold(model, c, t), _ref_d1_threshold(model, d, t))
            if math.isfinite(x) and a < x < b
        }
    )
    with warnings.catch_warnings():
        # quad flags roundoff at this target on some case1 boxes; the
        # comparison below still holds it to 1e-11.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(
            cross_len,
            a,
            b,
            points=kinks or None,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=300,
        )
    return min(1.0, max(0.0, value / (bounds.width1 * bounds.width2)))


# --- boxes ----------------------------------------------------------------------

GOLDEN = validate_bounds(0.0, 0.2, 0.0, 0.8)
SWEEP_SLICE = [
    validate_bounds(0.0, 0.2, c, d)
    for c in (0.0, 0.1, 0.2, 0.3)
    for d in (0.74, 0.75, 0.76, 0.77, 0.78)
]
_RNG = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2407)))
RANDOM_BOXES = [random_valid_bounds(_RNG) for _ in range(50)]
# Thin d1 intervals at the simplex edge b + d ~ 1, and boxes at the origin.
EDGE_BOXES = [
    validate_bounds(0.0, 1e-3, 0.5, 0.999),
    validate_bounds(0.0, 1e-2, 0.0, 0.99),
    validate_bounds(0.005, 0.01, 0.2, 0.99),
    validate_bounds(1e-3, 2e-3, 0.7, 0.998),
    validate_bounds(0.0, 5e-3, 0.9, 0.995),
    validate_bounds(0.0, 0.3, 0.0, 0.5),
    validate_bounds(0.0, 0.6, 0.0, 0.4),
    validate_bounds(0.0, 0.05, 0.0, 0.95),
]
ALL_BOXES = [GOLDEN, *SWEEP_SLICE, *RANDOM_BOXES, *EDGE_BOXES]


def _box_id(bounds) -> str:
    return f"{bounds.a:.4g},{bounds.b:.4g},{bounds.c:.4g},{bounds.d:.4g}"


def _probe_points(model: ModelKind, bounds) -> np.ndarray:
    """An even grid over [0, 1] plus an even grid over the support."""
    lo, hi = as_share_model(model).support(bounds)
    grids = (np.linspace(0.0, 1.0, 41), np.linspace(lo, hi, 41))
    return np.unique(np.concatenate(grids))


@pytest.mark.parametrize("bounds", ALL_BOXES, ids=_box_id)
@pytest.mark.parametrize("model", list(ModelKind))
def test_kernel_matches_scalar_quad_reference(model, bounds):
    # The reference's crossings are its own, so it also judges the closed
    # form, which reads the same ShareModel crossings as the kernel.
    ts = _probe_points(model, bounds)
    batched = _cdf(_Rectangle(as_share_model(model), bounds), ts)
    reference = np.array([reference_cdf(model, bounds, float(t)) for t in ts])
    assert np.max(np.abs(batched - reference)) <= 1e-11
    closed = np.array([closed_cdf(model, bounds, float(t)) for t in ts])
    assert np.max(np.abs(closed - reference)) <= 1e-11


@pytest.mark.parametrize("bounds", ALL_BOXES, ids=_box_id)
@pytest.mark.parametrize("model", list(ModelKind))
def test_mean_from_cdf_matches_closed_form(model, bounds):
    closed = estimate(model, RiskProfile.MSE, bounds).theta1
    assert abs(numeric_mean(model, bounds) - closed) <= 1e-10


@pytest.mark.parametrize(
    "model, bounds",
    [
        (ModelKind.CASE1, validate_bounds(0.0, 1.0, 0.0, 0.0)),
        (ModelKind.CASE1, validate_bounds(0.0, 0.0, 0.0, 1.0)),
        (ModelKind.CASE1, validate_bounds(0.95, 1.0 - 2.0**-53, 0.0, 0.0)),
        (ModelKind.CASE1, validate_bounds(0.0, 1e-6, 0.5, 1.0 - 1e-6)),
        (ModelKind.CASE2, validate_bounds(0.41859712955009293, 0.95, 1e-9, 1e-9)),
        (ModelKind.CASE2, validate_bounds(0.1, 0.1 + 1e-12, 0.3, 0.3 + 1e-12)),
        (ModelKind.CASE2, validate_bounds(1e-300, 2e-300, 0.0, 0.5)),
    ],
)
def test_mean_on_singular_and_thin_edge_boxes(model, bounds):
    # case1's CDF has square-root endpoints on the simplex edge.  The thin
    # box's target is 16 eps / 1e-6 per unit t (README, Accuracy notes).
    # The third box's support is about 1e-9 wide just below 1, where the
    # spacing of floats is 1e-7 of it.  On the last two boxes the case2
    # closed form's corner terms cancel far below its area, or square to
    # below the smallest float.
    closed = estimate(model, RiskProfile.MSE, bounds).theta1
    assert abs(numeric_mean(model, bounds) - closed) <= 1e-9


# --- batching and crossings -------------------------------------------------------


@pytest.mark.parametrize("model", list(ModelKind))
def test_a_value_does_not_depend_on_its_batch(model):
    ts = np.linspace(0.0, 1.0, 257)
    batched = _cdf(_Rectangle(as_share_model(model), GOLDEN), ts)
    alone = np.array([cdf_at(model, GOLDEN, float(t)) for t in ts[::16]])
    assert np.array_equal(batched[::16], alone)


# Thin d1 sides at the simplex edge.  On the second, as on GOLDEN, case1's
# integrals bisect for some CDF points and settle in one round for others.
THIN = validate_bounds(0.0, 1e-3, 0.5, 0.999)
NARROW = validate_bounds(0.0, 0.05, 0.0, 0.95)
SHARES = [*ModelKind, FixedAlphaModel(0.3)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _alone(model, bounds, ts) -> np.ndarray:
    # One kernel call per point: cdf_at may answer from the values it kept.
    rect = _Rectangle(as_share_model(model), bounds)
    return np.array([_cdf(rect, np.array([float(t)]))[0] for t in ts])


@pytest.mark.parametrize("bounds", [THIN, NARROW, GOLDEN, *RANDOM_BOXES[:12]], ids=_box_id)
@pytest.mark.parametrize("model", SHARES, ids=str)
def test_a_call_over_the_support_matches_each_point_alone(model, bounds):
    # Points inside the support, in one chunk and shuffled.  Where some of
    # them bisect, the call runs the bisection loop for all of them, while
    # the points that settle alone return from the first round.  They all
    # lie inside the support, so the call may also skip the support mask,
    # as the median's rounds do.
    rect = _Rectangle(as_share_model(model), bounds)
    ts = np.random.default_rng(7).permutation(np.linspace(rect.lo, rect.hi, 35)[1:-1])
    alone = _bits(_alone(model, bounds, ts))
    assert _bits(_cdf(rect, ts)) == alone
    assert _bits(_cdf(rect, ts, inside=True)) == alone


@pytest.mark.parametrize("bounds", [THIN, NARROW, *RANDOM_BOXES[:2]], ids=_box_id)
@pytest.mark.parametrize("model", SHARES, ids=str)
def test_a_chunked_call_matches_each_point_alone(model, bounds):
    # More points than one chunk holds, some of them outside the support.
    ts = np.linspace(0.0, 1.0, 2 * posterior._CHUNK + 3)
    batched = _cdf(_Rectangle(as_share_model(model), bounds), ts)
    assert _bits(batched) == _bits(_alone(model, bounds, ts))


@pytest.mark.parametrize("bounds", [NARROW, GOLDEN], ids=_box_id)
def test_one_call_mixes_settled_and_bisecting_points(monkeypatch, bounds):
    # The two tests above hold the first-round exit to the bisection loop
    # only if one call holds both kinds of point: count each point's rounds.
    rounds = []
    panel_sums = posterior._panel_sums

    def counted(*args):
        rounds[-1] += 1
        return panel_sums(*args)

    monkeypatch.setattr(posterior, "_panel_sums", counted)
    lo, hi = as_share_model(ModelKind.CASE1).support(bounds)
    for t in np.linspace(lo, hi, 35)[1:-1]:
        rounds.append(0)
        cdf_at(ModelKind.CASE1, bounds, float(t))
    assert 1 in rounds
    assert max(rounds) > 1


def _clipped(values) -> np.ndarray:
    # The kernel clips every crossing to the rectangle, inside [0, 1]: where
    # a level set misses a line, the crossing need only clip as +-inf does.
    return np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)


def _domain(model, shares):
    """The shares to pin a crossing at: for case2 only 0 < t < 1, since the
    kernel asks its d2 only at t > 0 and its d1 only at t < hi <= 1."""
    if model is ModelKind.CASE2:
        return [t for t in shares if 0.0 < t < 1.0]
    return list(shares)


@pytest.mark.parametrize("model", list(ModelKind))
def test_array_crossings_match_scalar_reference(model):
    ops = as_share_model(model)
    payoffs = np.linspace(0.0, 1.0, 11)
    for t in _domain(model, (0.0, 0.05, 0.3, 0.5, 0.77, 1.0)):
        d2 = _clipped(ops.d2_threshold(payoffs, np.full(payoffs.shape, t)))
        d1 = _clipped(ops.d1_threshold(payoffs, t))
        for i, p in enumerate(payoffs):
            d2_ref = _clipped(_ref_d2_threshold(model, p, t))
            d1_ref = _clipped(_ref_d1_threshold(model, p, t))
            assert d2[i] == pytest.approx(d2_ref, abs=1e-15)
            assert d1[i] == pytest.approx(d1_ref, abs=1e-15)


def _numpy_d2_threshold(model, x, t):
    """The crossings as numpy expressions, before they worked in place."""
    if model is ModelKind.CASE1:
        arg = 2.0 * (t - x) + x * x
        return np.where(arg < 0.0, np.inf, 1.0 - np.sqrt(np.maximum(arg, 0.0)))
    if model is ModelKind.CASE2:
        return x * (1.0 - t) / t
    return as_share_model(model).d2_threshold(x, t)


def _numpy_d1_threshold(model, y, t):
    if model is ModelKind.CASE1:
        arg = (1.0 - y) ** 2 + 1.0 - 2.0 * t
        return np.where(arg <= 0.0, np.inf, 1.0 - np.sqrt(np.maximum(arg, 0.0)))
    if model is ModelKind.CASE2:
        return t * y / (1.0 - t)
    return as_share_model(model).d1_threshold(y, t)


# The last two payoffs square to different bits as a float (** 2 is pow)
# and in an array (** 2 multiplies).
CROSSING_PAYOFFS = [
    *np.linspace(0.0, 1.0, 11).tolist(),
    0.32789142927284987,
    0.2544372552686815,
]
CROSSING_SHARES = np.array([0.0, 0.05, 0.3, 0.5, 0.77, 1.0])


@pytest.mark.parametrize(
    "model", [*SHARES, FixedAlphaModel(0.0), FixedAlphaModel(1.0)], ids=str
)
def test_crossings_keep_the_bits_of_their_numpy_expressions(model):
    # Each crossing keeps its old expression's bits up to the kernel's clip,
    # at the shares the kernel asks it at.  At alpha = 0 the band is always
    # empty, so d2_threshold is never asked there.
    ops = as_share_model(model)
    crossings = [(ops.d1_threshold, _numpy_d1_threshold)]
    if model != FixedAlphaModel(0.0):
        crossings.append((ops.d2_threshold, _numpy_d2_threshold))
    payoffs = np.array(CROSSING_PAYOFFS)
    scalar_shares = _domain(model, CROSSING_SHARES.tolist())
    row_shares = np.array(scalar_shares)
    for t in (*scalar_shares, row_shares):
        for p in CROSSING_PAYOFFS:
            for crossing, reference in crossings:
                clipped = _clipped(crossing(p, t))
                assert _bits(clipped) == _bits(_clipped(reference(model, p, t)))
    for t in scalar_shares:  # 1-D payoffs
        for crossing, reference in crossings:
            alone = [reference(model, p, t) for p in CROSSING_PAYOFFS]
            assert _bits(_clipped(crossing(payoffs, t))) == _bits(_clipped(alone))
        if len(crossings) == 2:  # d2's expression has no square to round apart
            assert _bits(_clipped(ops.d2_threshold(payoffs, t))) == _bits(
                _clipped(_numpy_d2_threshold(model, payoffs, t))
            )
    # The engine used to call d1_threshold with one float y per row, and now
    # calls it on the column [[c], [d]]: each row must match its float's call.
    for column in (payoffs[:2, None], payoffs[:, None]):
        for crossing, _ in crossings:
            rows = [crossing(p, row_shares) for p in column[:, 0].tolist()]
            assert _bits(crossing(column, row_shares)) == _bits(rows)


class Spy(ShareModel):
    """A share model that asks ``model`` and records every share its
    crossings are asked at, by crossing name."""

    def __init__(self, model):
        self.model = as_share_model(model)
        self.asked = {"d1_threshold": [], "d2_threshold": []}

    def theta(self, x, y):
        return self.model.theta(x, y)

    def support(self, bounds):
        return self.model.support(bounds)

    def rescaled(self, bounds):
        return self.model.rescaled(bounds)

    def d1_threshold(self, y, t):
        self.asked["d1_threshold"].append(np.array(t, dtype=np.float64).ravel())
        return self.model.d1_threshold(y, t)

    def d2_threshold(self, x, t):
        self.asked["d2_threshold"].append(np.array(t, dtype=np.float64).ravel())
        return self.model.d2_threshold(x, t)


def _engine_values(model, bounds) -> list:
    """Every engine value the kernel computes for ``model`` on ``bounds``."""
    ops = as_share_model(model)
    lo, hi = ops.support(bounds)
    values = [
        cdf_at(model, bounds, t) for t in (0.0, lo, 0.5 * (lo + hi), hi, 1.0)
    ]
    values += [posterior.numeric_median(model, bounds), numeric_mean(model, bounds)]
    if lo < hi:  # a deterministic share has no density curve
        mode = posterior.mode_from_curve(posterior.pdf_curve(model, bounds, 257))
        values += [mode.value, float(mode.plateau)]
    return values


def _closed_values(model: ModelKind, bounds) -> list:
    """Every closed-form value for ``model`` on ``bounds`` that may read a
    crossing: the CDF at the support's ends and middle, and each estimate."""
    ops = as_share_model(model)
    lo, hi = ops.support(ops.rescaled(bounds))
    values = [
        closed_cdf(model, bounds, t) for t in (0.0, lo, 0.5 * (lo + hi), hi, 1.0)
    ]
    return values + [estimate(model, risk, bounds).theta1 for risk in RiskProfile]


CONTRACT_BOXES = [
    GOLDEN,
    validate_bounds(0.1, 0.3, 0.2, 0.6),  # inner
    THIN,
    validate_bounds(0.25, 0.25, 0.1, 0.6),  # point-mass d1 side
    validate_bounds(0.1, 0.4, 0.3, 0.3),  # point-mass d2 side
    validate_bounds(0.1e-300, 0.3e-300, 0.2e-300, 0.6e-300),
]


@pytest.mark.parametrize(
    "model",
    [*ModelKind, FixedAlphaModel(0.0), FixedAlphaModel(0.3), FixedAlphaModel(1.0)],
    ids=str,
)
def test_crossings_are_asked_only_inside_the_support(model, monkeypatch):
    # The contract of ShareModel: a crossing is asked only at lo <= t < hi
    # (so case2's d1 never at t = 1), case2's d2 never at t = 0, and d2 at
    # alpha = 0 never on a non-empty array.  The spy changes no engine value.
    # The closed forms take a ModelKind, so for them the spy stands in the
    # model table, where their CASE1 band test still sees the kind.
    for bounds in CONTRACT_BOXES:
        spy = Spy(model)
        assert _bits(_engine_values(spy, bounds)) == _bits(
            _engine_values(model, bounds)
        )
        lo, hi = spy.support(spy.rescaled(bounds))
        if isinstance(model, ModelKind):
            closed = _closed_values(model, bounds)
            asked = sum(map(len, spy.asked.values()))
            with monkeypatch.context() as patch:
                patch.setitem(bargaining._SHARES, model, spy)
                assert _bits(_closed_values(model, bounds)) == _bits(closed)
            assert lo == hi or sum(map(len, spy.asked.values())) > asked, bounds
        for name, asked in spy.asked.items():
            for t in asked:
                if t.size:
                    assert lo <= t.min() and t.max() < hi, (name, bounds)
                    if model is ModelKind.CASE2 and name == "d2_threshold":
                        assert t.min() > 0.0, bounds
                if model == FixedAlphaModel(0.0) and name == "d2_threshold":
                    assert t.size == 0, bounds
        assert lo == hi or any(t.size for asked in spy.asked.values() for t in asked)


# --- numerical health ---------------------------------------------------------------


def _legendre_rule(n: int) -> list:
    """The n-point Gauss-Legendre nodes and weights to 60 digits: Newton's
    method on P_n, evaluated by the three-term recurrence."""
    with mpmath.workdps(60):
        rule = []
        for k in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(0.25)) / (n + mpmath.mpf(0.5)))
            for _ in range(100):
                p_prev, p = mpmath.mpf(1), x
                for j in range(1, n):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                slope = n * (x * p - p_prev) / (x * x - 1)
                step = p / slope
                x -= step
                if abs(step) < mpmath.mpf(10) ** -58:
                    break
            rule.append((x, 2 / ((1 - x * x) * slope * slope)))
        return sorted(rule)


@pytest.mark.parametrize(
    "nodes, weights",
    [(posterior._X24, posterior._W24), (posterior._X12, posterior._W12)],
    ids=["24", "12"],
)
def test_the_stored_rules_are_gauss_legendre(nodes, weights):
    # The stored bits are numpy's leggauss (see posterior): nodes within an
    # ulp of the exact rule, weights within 2e-13 relative of it.
    assert nodes.dtype == weights.dtype == np.float64
    assert (-nodes[::-1]).tobytes() == nodes.tobytes()
    assert weights[::-1].tobytes() == weights.tobytes()
    exact = _legendre_rule(nodes.size)
    for x, w, (x_exact, w_exact) in zip(nodes.tolist(), weights.tolist(), exact):
        assert abs(x - x_exact) <= math.ulp(x), (x, x_exact)
        assert abs(w - w_exact) <= 2e-13 * w_exact, (w, w_exact)


def test_quadrature_closes_a_square_root_endpoint():
    # A per-panel rule alone would need panels below 1e-16 wide at x = 0.
    value = _integrate(
        lambda x, rows: np.sqrt(x), np.array([0.0]), np.array([1.0]), 1e-12
    )
    assert abs(value[0] - 2.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("rounds, converges", [(18, True), (17, False)])
def test_quadrature_may_close_its_last_panels_in_its_last_round(
    monkeypatch, rounds, converges
):
    # The square root at 1e-12 needs exactly 18 rounds, the first included.
    monkeypatch.setattr(posterior, "_MAX_ROUNDS", rounds)
    left, right = np.array([0.0]), np.array([1.0])
    if converges:
        value = _integrate(lambda x, rows: np.sqrt(x), left, right, 1e-12)
        assert abs(value[0] - 2.0 / 3.0) <= 1e-12
    else:
        with pytest.raises(NumericalAccuracyError, match="after 17 bisection rounds"):
            _integrate(lambda x, rows: np.sqrt(x), left, right, 1e-12)


def test_quadrature_refuses_more_than_the_open_panel_limit():
    # 1e4 oscillations per unit length: 64 panels would be open at once.
    with pytest.raises(NumericalAccuracyError, match="more than 32 panels"):
        _integrate(
            lambda x, rows: np.sin(1e4 * x),
            np.array([0.0, 0.0]),
            np.array([1.0, 1e-6]),
            1e-12,
        )


def test_quadrature_refuses_more_than_the_round_limit():
    # No panel at the square root's endpoint meets a target of 1e-300.
    with pytest.raises(NumericalAccuracyError, match="after 50 bisection rounds"):
        _integrate(lambda x, rows: np.sqrt(x), np.array([0.0]), np.array([1.0]), 1e-300)


class _WigglyOps(ShareModel):
    """The symmetric model with a crossing that oscillates within one panel."""

    name = "wiggly"

    @staticmethod
    def theta(x, y):
        return theta_model(ModelKind.NBS, x, y)

    @staticmethod
    def d1_threshold(y, t):
        return y + 2.0 * t - 1.0

    @staticmethod
    def d2_threshold(x, t):
        return x + 1.0 - 2.0 * t + 0.05 * np.sin(1e7 * x)


def test_unresolvable_crossing_raises_numerical_accuracy_error():
    with pytest.raises(NumericalAccuracyError, match="more than 32 panels"):
        cdf_at(_WigglyOps(), GOLDEN, 0.35)


# --- properties ---------------------------------------------------------------------


@st.composite
def grid_boxes(draw, n=256):
    # Both sides at least 1/256 wide, where the CDF target is 1e-12.
    b = draw(st.integers(min_value=1, max_value=n - 1))
    d = draw(st.integers(min_value=1, max_value=n - b))
    a = draw(st.integers(min_value=0, max_value=b - 1))
    c = draw(st.integers(min_value=0, max_value=d - 1))
    return validate_bounds(a / n, b / n, c / n, d / n)


@st.composite
def float_boxes(draw):
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    d = draw(st.floats(min_value=0.0, max_value=1.0 - b, allow_nan=False))
    a = draw(st.floats(min_value=0.0, max_value=b, allow_nan=False))
    c = draw(st.floats(min_value=0.0, max_value=d, allow_nan=False))
    return validate_bounds(a, b, c, d)


PROBS = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)
MODELS = st.sampled_from(list(ModelKind))


@settings(deadline=None)
@given(grid_boxes(), MODELS, PROBS)
def test_cdf_is_a_monotone_probability(bounds, model, ts):
    ts = np.sort(np.array(ts))
    values = _cdf(_Rectangle(as_share_model(model), bounds), ts)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= -2e-12)


@settings(deadline=None)
@given(grid_boxes(), MODELS, PROBS)
def test_exchanging_the_parties_reflects_the_cdf(bounds, model, ts):
    ops = as_share_model(model)
    ts = np.array(ts)
    direct = _cdf(_Rectangle(ops, bounds), ts)
    swapped = _cdf(_Rectangle(ops, bounds.swapped()), 1.0 - ts)
    assert np.max(np.abs(swapped - (1.0 - direct))) <= 1e-11


@settings(deadline=None)
@given(float_boxes(), MODELS, PROBS)
def test_cdf_stays_in_unit_interval_on_any_valid_box(bounds, model, ts):
    if model is ModelKind.CASE2 and bounds.b == 0.0 and bounds.d == 0.0:
        return  # the share is undefined on the origin rectangle
    values = _cdf(_Rectangle(as_share_model(model), bounds), np.array(ts))
    assert np.all((values >= 0.0) & (values <= 1.0))
