"""The batched CDF kernel against a scalar scipy reference, plus properties.

The reference below is the scalar engine the package used before the
batched kernel: one ``scipy.integrate.quad`` call per CDF point, with its
own scalar crossing formulas.  (Its ``dblquad`` mean lives on as
``quadrature_mean`` in ``test_estimators.py``; here the mean is held to
the closed form.)  scipy is a test-only dependency.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nashroyalty import (
    ModelKind,
    NumericalAccuracyError,
    cdf_at,
    mse_estimate,
    numeric_mean,
    random_valid_bounds,
    theta_model,
    validate_bounds,
)
from nashroyalty.posterior import (
    MonotoneShareFunction,
    _cdf,
    _integrate,
    as_posterior_model,
    support_range,
)

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


def reference_cdf(model: ModelKind, bounds, t: float) -> float:
    """P{theta <= t} by one adaptive ``quad`` over d1 (rectangles with a < b
    and c < d)."""
    lo, hi = support_range(model, bounds)
    if t < lo:
        return 0.0
    if t >= hi:
        return 1.0
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
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
    return min(1.0, max(0.0, value / bounds.area))


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
    lo, hi = support_range(model, bounds)
    grids = (np.linspace(0.0, 1.0, 41), np.linspace(lo, hi, 41))
    return np.unique(np.concatenate(grids))


@pytest.mark.parametrize("bounds", ALL_BOXES, ids=_box_id)
@pytest.mark.parametrize("model", list(ModelKind))
def test_kernel_matches_scalar_quad_reference(model, bounds):
    ts = _probe_points(model, bounds)
    batched = _cdf(as_posterior_model(model), bounds, ts)
    reference = np.array([reference_cdf(model, bounds, float(t)) for t in ts])
    assert np.max(np.abs(batched - reference)) <= 1e-11


@pytest.mark.parametrize("bounds", ALL_BOXES, ids=_box_id)
@pytest.mark.parametrize("model", list(ModelKind))
def test_mean_from_cdf_matches_closed_form(model, bounds):
    closed = mse_estimate(model, bounds).theta1
    assert abs(numeric_mean(model, bounds) - closed) <= 1e-10


@pytest.mark.parametrize(
    "model, bounds",
    [
        (ModelKind.CASE1, validate_bounds(0.0, 1.0, 0.0, 0.0)),
        (ModelKind.CASE1, validate_bounds(0.0, 0.0, 0.0, 1.0)),
        (ModelKind.CASE1, validate_bounds(0.95, 1.0 - 2.0**-53, 0.0, 0.0)),
        (ModelKind.CASE1, validate_bounds(0.0, 1e-6, 0.5, 1.0 - 1e-6)),
        (ModelKind.CASE2, validate_bounds(0.41859712955009293, 0.95, 1e-9, 1e-9)),
    ],
)
def test_mean_on_singular_and_thin_edge_boxes(model, bounds):
    # case1's CDF has square-root endpoints on the simplex edge.  The thin
    # box's target is 16 eps / 1e-6 per unit t (README, Accuracy notes).
    # The last box's support is about 1e-9 wide just below 1, where the
    # spacing of floats is 1e-7 of it.
    closed = mse_estimate(model, bounds).theta1
    assert abs(numeric_mean(model, bounds) - closed) <= 1e-9


# --- batching and crossings -------------------------------------------------------


@pytest.mark.parametrize("model", list(ModelKind))
def test_a_value_does_not_depend_on_its_batch(model):
    ts = np.linspace(0.0, 1.0, 257)
    batched = _cdf(as_posterior_model(model), GOLDEN, ts)
    alone = np.array([cdf_at(model, GOLDEN, float(t)) for t in ts[::16]])
    assert np.array_equal(batched[::16], alone)


@pytest.mark.parametrize("model", list(ModelKind))
def test_array_crossings_match_scalar_reference(model):
    ops = as_posterior_model(model)
    payoffs = np.linspace(0.0, 1.0, 11)
    for t in (0.0, 0.3, 0.5, 1.0):
        d2 = ops.d2_threshold(payoffs, np.full(payoffs.shape, t))
        d1 = ops.d1_threshold(payoffs, t)
        for i, p in enumerate(payoffs):
            assert d2[i] == pytest.approx(_ref_d2_threshold(model, p, t), abs=1e-15)
            assert d1[i] == pytest.approx(_ref_d1_threshold(model, p, t), abs=1e-15)


def test_monotone_share_function_bisects_arrays_with_a_scalar_fn():
    calls = []

    def share(x, y):
        calls.append((type(x), type(y)))
        return theta_model(ModelKind.CASE1, x, y)

    wrapped = MonotoneShareFunction(share)
    xs = np.linspace(0.0, 0.2, 7)
    ts = np.linspace(0.1, 0.4, 7)  # crossings inside the feasible triangle
    exact = as_posterior_model(ModelKind.CASE1).d2_threshold(xs, ts)
    assert np.all((exact > 0.0) & (exact < 1.0 - xs))
    assert np.allclose(wrapped.d2_threshold(xs, ts), exact, rtol=0.0, atol=1e-12)
    assert set(calls) == {(float, float)}


# --- numerical health ---------------------------------------------------------------


def test_quadrature_closes_a_square_root_endpoint():
    # A per-panel rule alone would need panels below 1e-16 wide at x = 0.
    value = _integrate(
        lambda x, rows: np.sqrt(x), np.array([0.0]), np.array([1.0]), 1e-12
    )
    assert abs(value[0] - 2.0 / 3.0) <= 1e-12


class _WigglyOps:
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
    with pytest.raises(NumericalAccuracyError):
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
    values = _cdf(as_posterior_model(model), bounds, ts)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= -2e-12)


@settings(deadline=None)
@given(grid_boxes(), MODELS, PROBS)
def test_exchanging_the_parties_reflects_the_cdf(bounds, model, ts):
    ops = as_posterior_model(model)
    ts = np.array(ts)
    direct = _cdf(ops, bounds, ts)
    swapped = _cdf(ops, bounds.swapped(), 1.0 - ts)
    assert np.max(np.abs(swapped - (1.0 - direct))) <= 1e-11


@settings(deadline=None)
@given(float_boxes(), MODELS, PROBS)
def test_cdf_stays_in_unit_interval_on_any_valid_box(bounds, model, ts):
    if model is ModelKind.CASE2 and bounds.b == 0.0 and bounds.d == 0.0:
        return  # the share is undefined on the origin rectangle
    values = _cdf(as_posterior_model(model), bounds, np.array(ts))
    assert np.all((values >= 0.0) & (values <= 1.0))
