"""Closed-form estimators against golden values and quadrature oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from nashroyalty import (
    DegeneratePayoffsError,
    ModelKind,
    OutOfRangeError,
    RiskProfile,
    cdf_at,
    closed_cdf,
    estimate,
    random_valid_bounds,
    theta_model,
    validate_bounds,
)
from nashroyalty import estimators
from nashroyalty.bargaining import as_share_model
from nashroyalty.estimators import NOTE_APPROXIMATION, NOTE_EXACT, paper_case1_median
from nashroyalty.posterior import _cdf, _Rectangle, numeric_mean, numeric_median

GOLDEN = validate_bounds(0.0, 0.2, 0.0, 0.8)

# Published three-decimal worked-example estimates; the case1 abs cell is
# the paper's midpoint approximation (paper_case1_median).
GOLDEN_CELLS = {
    (ModelKind.NBS, RiskProfile.MAP): 0.200,
    (ModelKind.NBS, RiskProfile.ABS): 0.350,
    (ModelKind.NBS, RiskProfile.MSE): 0.350,
    (ModelKind.CASE1, RiskProfile.MAP): 0.200,
    (ModelKind.CASE1, RiskProfile.ABS): 0.275,
    (ModelKind.CASE1, RiskProfile.MSE): 0.300,
    (ModelKind.CASE2, RiskProfile.MAP): 0.200,
    (ModelKind.CASE2, RiskProfile.ABS): 0.200,
    (ModelKind.CASE2, RiskProfile.MSE): 0.255,
}


@st.composite
def valid_bounds(draw):
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    d = draw(st.floats(min_value=0.0, max_value=1.0 - b, allow_nan=False))
    a = draw(st.floats(min_value=0.0, max_value=b, allow_nan=False))
    c = draw(st.floats(min_value=0.0, max_value=d, allow_nan=False))
    return validate_bounds(a, b, c, d)


@st.composite
def grid_bounds(draw):
    # Sixteenths keep interval widths either 0 or >= 1/16, the regime where
    # the closed forms carry full double precision.
    b16 = draw(st.integers(min_value=0, max_value=16))
    d16 = draw(st.integers(min_value=0, max_value=16 - b16))
    a16 = draw(st.integers(min_value=0, max_value=b16))
    c16 = draw(st.integers(min_value=0, max_value=d16))
    return validate_bounds(a16 / 16.0, b16 / 16.0, c16 / 16.0, d16 / 16.0)


def _share(model: ModelKind, x: float, y: float) -> float:
    """Party 1's share at payoffs (x, y), written out apart from the package."""
    if model is ModelKind.NBS:
        return (1.0 + x - y) / 2.0
    if model is ModelKind.CASE1:
        return (1.0 + 2.0 * (x - y) - x * x + y * y) / 2.0
    return x / (x + y)


def quadrature_mean(model: ModelKind, bounds) -> float:
    """Independent expectation of the share by direct numerical integration."""
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    if a == b and c == d:
        return _share(model, a, c)
    if a == b:
        value, _ = integrate.quad(lambda y: _share(model, a, y), c, d)
        return value / (d - c)
    if c == d:
        value, _ = integrate.quad(lambda x: _share(model, x, c), a, b)
        return value / (b - a)
    value, _ = integrate.dblquad(
        lambda y, x: _share(model, x, y), a, b, c, d, epsabs=1e-12
    )
    return value / (bounds.width1 * bounds.width2)


def mpmath_case2_mean(bounds) -> mpmath.mpf:
    """E[d1 / (d1 + d2)] at 60 digits, integrating exactly in d2 first.

    A point-mass side leaves the 1-D integral over the other side.
    """
    a, b, c, d = map(mpmath.mpf, (bounds.a, bounds.b, bounds.c, bounds.d))
    with mpmath.workdps(60):
        if a == b:
            return mpmath.quad(lambda y: a / (a + y), [c, d]) / (d - c)
        if c == d:
            return mpmath.quad(lambda x: x / (x + c), [a, b]) / (b - a)

        def column(x):  # the integral of x / (x + y) over y in [c, d]
            return x * (mpmath.log(x + d) - mpmath.log(x + c))

        return mpmath.quad(column, [a, b]) / ((b - a) * (d - c))


def mpmath_cdf(model: ModelKind, bounds, t: float) -> mpmath.mpf:
    """P{theta <= t} at 60 digits, as the mean over d1 of each column's share.

    The column d1 = x holds {theta <= t} on d2 >= y0(x), solved from the
    share formula; the integral breaks where the level curve meets the
    rows d2 = c and d2 = d, found by bisecting the share itself.
    """
    with mpmath.workdps(60):
        a, b, c, d, t = map(mpmath.mpf, (bounds.a, bounds.b, bounds.c, bounds.d, t))
        if model is ModelKind.NBS:
            share = lambda x, y: (1 + x - y) / 2  # noqa: E731
            level = lambda x: x + 1 - 2 * t  # noqa: E731
        elif model is ModelKind.CASE1:
            share = lambda x, y: (y * y - x * x + 2 * (x - y) + 1) / 2  # noqa: E731

            def level(x):
                square = (1 - x) ** 2 + 2 * t - 1
                return 1 - mpmath.sqrt(square) if square >= 0 else mpmath.inf

        else:
            # On the row d2 = 0 the share is 1, its limit at the origin too.
            share = lambda x, y: x / (x + y) if y else 1  # noqa: E731
            level = lambda x: x * (1 - t) / t  # noqa: E731

        def meets(y, lo):  # where share(., y) rises through t on [lo, b]
            hi = b
            if share(lo, y) >= t or share(hi, y) <= t:
                return lo if share(lo, y) >= t else hi
            for _ in range(220):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if share(mid, y) > t else (mid, hi)
            return lo

        def column(x):
            return min(max(d - level(x), 0), d - c) / (d - c)

        x_c = meets(c, a)
        return mpmath.quad(column, [a, x_c, meets(d, x_c), b]) / (b - a)


class TestGoldenTable:
    def test_all_point_estimates_match_published_values(self):
        for (model, risk), expected in GOLDEN_CELLS.items():
            if (model, risk) == (ModelKind.CASE1, RiskProfile.ABS):
                theta = paper_case1_median(GOLDEN).theta1
            else:
                theta = estimate(model, risk, GOLDEN).theta1
            assert round(theta, 3) == pytest.approx(expected, abs=1e-12), (
                model,
                risk,
            )

    def test_proportional_mean_has_exact_log_value(self):
        # Frozen high-accuracy quadrature value for E[d1/(d1+d2)] on the
        # golden bounds.
        theta = estimate(ModelKind.CASE2, RiskProfile.MSE, GOLDEN).theta1
        assert theta == pytest.approx(0.2548926364258431, abs=1e-12)


class TestMapEstimate:
    def test_upper_corner_value(self):
        for model in ModelKind:
            result = estimate(model, RiskProfile.MAP, GOLDEN)
            assert result.theta1 == theta_model(model, 0.2, 0.8)
            assert result.method_note == NOTE_EXACT

    def test_proportional_origin_rectangle_raises(self):
        origin = validate_bounds(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegeneratePayoffsError):
            estimate(ModelKind.CASE2, RiskProfile.MAP, origin)


class TestAbsEstimate:
    def test_midpoint_evaluation(self):
        result = estimate(ModelKind.CASE2, RiskProfile.ABS, GOLDEN)
        assert result.theta1 == pytest.approx(0.1 / 0.5, abs=1e-15)
        assert result.method_note == NOTE_EXACT

    def test_outside_option_model_is_flagged_as_approximation(self):
        paper = paper_case1_median(GOLDEN)
        assert paper.method_note == NOTE_APPROXIMATION
        for model in ModelKind:
            assert estimate(model, RiskProfile.ABS, GOLDEN).method_note == NOTE_EXACT

    @pytest.mark.parametrize(
        "box, median",
        [
            # The midpoints of 3 and 2 times 5e-324 round to 2 and 1 times
            # it, which gave 2/3; scaled up first, they are exact.
            ((0.0, 1.5e-323, 0.0, 1e-323), 0.6),
            ((0.0, 5e-324, 0.0, 5e-324), 0.5),
            ((0.0, 0.0, 0.0, 5e-324), 0.0),
        ],
        ids=str,
    )
    def test_case2_median_on_subnormal_boxes(self, box, median):
        bounds = validate_bounds(*box)
        assert estimate(ModelKind.CASE2, RiskProfile.ABS, bounds).theta1 == median

    @given(valid_bounds())
    def test_symmetric_model_abs_equals_mse_bitwise(self, bounds):
        assert (
            estimate(ModelKind.NBS, RiskProfile.ABS, bounds).theta1
            == estimate(ModelKind.NBS, RiskProfile.MSE, bounds).theta1
        )


def mpmath_case1_median(bounds, guess: float) -> mpmath.mpf:
    """The case1 median at 60 digits: the root of ``mpmath_cdf`` at 1/2 near guess."""
    lo, hi = as_share_model(ModelKind.CASE1).support(bounds)
    with mpmath.workdps(60):
        half, step = mpmath.mpf(1) / 2, mpmath.mpf(hi - lo) * mpmath.mpf("1e-12")
        return mpmath.findroot(
            lambda t: mpmath_cdf(ModelKind.CASE1, bounds, t) - half,
            (mpmath.mpf(guess) - step, mpmath.mpf(guess) + step),
            solver="anderson",
        )


# A box where the midpoint value errs most for its thin side's relative
# width (about 6 times its square), with d1's side set to rho of 1 - a.
_A, _C, _D = 0.03521155030262779, 0.9210242795247564, 0.9232526005138533


def steep_thin_box(rho):
    return (_A, _A + rho * (1.0 - _A), _C, _D)


class TestCase1Median:
    """estimate's case1 abs value is the median, the root of closed_cdf at 1/2."""

    def test_golden_box(self):
        result = estimate(ModelKind.CASE1, RiskProfile.ABS, GOLDEN)
        assert result.method_note == NOTE_EXACT
        assert round(result.theta1, 3) == 0.277
        assert abs(result.theta1 - numeric_median(ModelKind.CASE1, GOLDEN)) <= 1e-9
        assert round(paper_case1_median(GOLDEN).theta1, 3) == 0.275

    def test_box_past_the_paper_band(self):
        # Box 371 of verify's seed-21 stream: the midpoint rule misses the
        # median by 5.3%, past the 4% the paper's rule is held to.
        bounds = validate_bounds(
            0.0020242878381656615, 0.05372383939643899,
            0.6829314646297929, 0.9399097418292172,
        )
        median = numeric_median(ModelKind.CASE1, bounds)
        assert abs(paper_case1_median(bounds).theta1 - median) / median > 0.04
        exact = estimate(ModelKind.CASE1, RiskProfile.ABS, bounds).theta1
        assert abs(exact - median) <= 1e-9

    def test_halves_the_closed_cdf_on_random_boxes(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(31)))
        for _ in range(1000):
            bounds = random_valid_bounds(rng)
            t = estimate(ModelKind.CASE1, RiskProfile.ABS, bounds).theta1
            assert abs(closed_cdf(ModelKind.CASE1, bounds, t) - 0.5) <= 1e-13

    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 0.2, 0.0, 0.8),
            (0.1, 0.11, 0.2, 0.6),
            (0.45, 0.55, 0.25, 0.25 + 1e-16),
            # Either side of the thin-side threshold, 1e-8: solved at 2e-8,
            # where the midpoint would err by 2.4e-15, the midpoint at 5e-9.
            steep_thin_box(1e-5),
            steep_thin_box(2e-8),
            steep_thin_box(5e-9),
        ],
        ids=str,
    )
    def test_against_60_digit_median(self, box):
        bounds = validate_bounds(*box)
        t = estimate(ModelKind.CASE1, RiskProfile.ABS, bounds).theta1
        assert abs(t - mpmath_case1_median(bounds, t)) <= 1e-15

    @pytest.mark.parametrize(
        "box, median",
        [
            # theta(0, y) = (1 - y)^2 / 2 at the median y of d2.
            ((0.0, 5e-324, 0.0, 0.1), 0.45125),
            ((0.0, 0.1, 0.0, 5e-324), 0.54875),
            ((0.0, 1e-310, 0.2, 0.7), 0.15125),
        ],
    )
    def test_sides_at_the_float_floor(self, box, median):
        # closed_cdf fails on such sides: it steps to 1 at 0.405 on the
        # first box.  The midpoint value is the median to within 1e-300.
        bounds = validate_bounds(*box)
        t = estimate(ModelKind.CASE1, RiskProfile.ABS, bounds).theta1
        assert t == pytest.approx(median, abs=1e-15)

    def test_takes_few_cdf_evaluations(self, monkeypatch):
        calls = []
        evaluate = estimators._cdf_and_density

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(estimators, "_cdf_and_density", counted)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(32)))
        counts = []
        for _ in range(500):
            bounds = random_valid_bounds(rng)
            calls.clear()
            estimate(ModelKind.CASE1, RiskProfile.ABS, bounds)
            counts.append(len(calls))
        assert max(counts) <= 6
        assert sum(counts) / len(counts) <= 3.5


class TestMseEstimate:
    def test_matches_quadrature_oracle_on_seeded_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b, c, d = sorted(rng.uniform(0, 0.5, 2)) + sorted(rng.uniform(0, 0.5, 2))
            bounds = validate_bounds(a, b, c, d)
            for model in ModelKind:
                closed = estimate(model, RiskProfile.MSE, bounds).theta1
                oracle = quadrature_mean(model, bounds)
                assert closed == pytest.approx(oracle, abs=1e-9), (model, bounds)

    def test_zero_lower_bounds_log_convention(self):
        # a = c = 0 exercises the 0 * log(0) -> 0 term.
        for b, d in ((0.2, 0.8), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0)):
            bounds = validate_bounds(0.0, b, 0.0, d)
            closed = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
            assert closed == pytest.approx(
                quadrature_mean(ModelKind.CASE2, bounds), abs=1e-9
            )

    def test_point_mass_party1_limit(self):
        bounds = validate_bounds(0.2, 0.2, 0.0, 0.8)
        closed = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
        expected = 0.2 * math.log((0.2 + 0.8) / 0.2) / 0.8
        assert closed == pytest.approx(expected, abs=1e-15)
        assert closed == pytest.approx(
            quadrature_mean(ModelKind.CASE2, bounds), abs=1e-10
        )

    def test_point_mass_party2_limit(self):
        bounds = validate_bounds(0.1, 0.5, 0.3, 0.3)
        closed = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
        expected = 1.0 - 0.3 * math.log((0.5 + 0.3) / (0.1 + 0.3)) / 0.4
        assert closed == pytest.approx(expected, abs=1e-15)
        assert closed == pytest.approx(
            quadrature_mean(ModelKind.CASE2, bounds), abs=1e-10
        )

    def test_double_point_mass_is_pointwise_share(self):
        bounds = validate_bounds(0.3, 0.3, 0.1, 0.1)
        expected = theta_model(ModelKind.CASE2, 0.3, 0.1)
        assert estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1 == expected
        assert expected == pytest.approx(0.75, abs=1e-15)

    def test_point_masses_at_zero(self):
        low, high = validate_bounds(0, 0, 0.2, 0.6), validate_bounds(0.2, 0.6, 0, 0)
        assert estimate(ModelKind.CASE2, RiskProfile.MSE, low).theta1 == 0.0
        assert estimate(ModelKind.CASE2, RiskProfile.MSE, high).theta1 == 1.0

    @pytest.mark.parametrize(
        "box",
        [
            # A tiny box with thin sides, where the rectangle closed form
            # (since deleted) erred by 1.2e-12.
            (3.526110400286981e-26, 3.553423699195946e-26, 9.797726683854885e-27,
             3.428834475490791e-26),
            # Thin and tiny boxes that were once off by a whole share.
            (0.1, 0.1 + 1e-12, 0.3, 0.3 + 1e-12),
            (1e-300, 2e-300, 0.0, 0.5),
            # The golden box, and a near-worst random box of the log1p form.
            (0.0, 0.2, 0.0, 0.8),
            (0.23464240579335077, 0.23874751296326005, 0.47007369707480706,
             0.47036798488919473),
            # Thin sides at scale 1e-298: unscaled, the expansion's
            # second-order term underflows.
            (9.213364381230067e-299, 9.213364381230287e-299,
             8.693275854009991e-299, 8.693275854010122e-299),
            (0.2, 0.2 + 1e-9, 0.0, 0.7),
            (1e-300, 3e-300, 2e-300, 5e-300),
            # Corners at the origin, and point-mass sides.
            (0.0, 0.3, 0.0, 1e-7),
            (0.0, 1e-200, 0.2, 0.7),
            (0.2, 0.2, 0.0, 0.8),
            (0.1, 0.5, 0.3, 0.3),
        ],
    )
    def test_case2_mean_against_60_digit_reference(self, box):
        bounds = validate_bounds(*box)
        closed = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
        assert abs(closed - mpmath_case2_mean(bounds)) <= 5e-13

    def test_origin_rectangle_raises(self):
        origin = validate_bounds(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegeneratePayoffsError, match="a = b = 0 and c = d = 0"):
            estimate(ModelKind.CASE2, RiskProfile.MSE, origin)


def mpmath_polynomial_mean(model: ModelKind, bounds) -> mpmath.mpf:
    """E[theta] at 60 digits for the models whose share is a polynomial in
    (d1, d2): nbs, (1 + d1 - d2) / 2, and case1, (d2^2 - d1^2 + 2 (d1 - d2)
    + 1) / 2, from the uniform moments E[x] = (a + b) / 2 and E[x^2] = (a^2
    + ab + b^2) / 3."""
    with mpmath.workdps(60):
        a, b, c, d = map(mpmath.mpf, (bounds.a, bounds.b, bounds.c, bounds.d))
        x1, y1 = (a + b) / 2, (c + d) / 2
        if model is ModelKind.NBS:
            return (1 + x1 - y1) / 2
        x2, y2 = (a * a + a * b + b * b) / 3, (c * c + c * d + d * d) / 3
        return (y2 - x2 + 2 * (x1 - y1) + 1) / 2


# The golden box, the inner box, and the case1 sweep slice a = 0, b = 0.2.
ORACLE_BOXES = [
    (0.0, 0.2, 0.0, 0.8),
    (0.1, 0.3, 0.2, 0.6),
    *((0.0, 0.2, c, d) for c in (0.0, 0.1, 0.2, 0.3) for d in (0.74, 0.75, 0.76, 0.77, 0.78)),
]


@pytest.mark.parametrize("model", list(ModelKind), ids=lambda model: model.value)
@pytest.mark.parametrize("box", ORACLE_BOXES, ids=str)
class TestSolversAgainst60Digits:
    """The quadrature engine's solvers held to 60-digit values that share no
    code with it."""

    def test_median_halves_the_cdf(self, box, model):
        bounds = validate_bounds(*box)
        median = numeric_median(model, bounds)
        assert abs(mpmath_cdf(model, bounds, median) - mpmath.mpf(0.5)) <= 1e-9 + 1e-12

    def test_mean_is_the_expected_share(self, box, model):
        bounds = validate_bounds(*box)
        if model is ModelKind.CASE2:
            exact = mpmath_case2_mean(bounds)
        else:
            exact = mpmath_polynomial_mean(model, bounds)
        lo, hi = as_share_model(model).support(bounds)
        assert abs(numeric_mean(model, bounds) - exact) <= 1e-11 * (hi - lo)


class TestEstimatorProperties:
    @given(valid_bounds(), st.sampled_from(list(ModelKind)), st.sampled_from(list(RiskProfile)))
    def test_shares_sum_to_one_exactly(self, bounds, model, risk):
        try:
            result = estimate(model, risk, bounds)
        except DegeneratePayoffsError:
            return
        assert result.theta1 + result.theta2 == 1.0
        assert 0.0 <= result.theta1 <= 1.0

    @given(grid_bounds(), st.sampled_from(list(ModelKind)), st.sampled_from(list(RiskProfile)))
    def test_exchange_antisymmetry(self, bounds, model, risk):
        try:
            direct = estimate(model, risk, bounds).theta1
            swapped = estimate(model, risk, bounds.swapped()).theta1
        except DegeneratePayoffsError:
            return
        assert direct + swapped == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.sampled_from(list(ModelKind)),
        st.sampled_from(list(RiskProfile)),
    )
    def test_identical_bounds_collapse_to_half(self, v1, v2, model, risk):
        # Both parties share one point-mass payoff level: a fair split.
        bounds = validate_bounds(v1, v1, v1, v1)
        if model is ModelKind.CASE2 and v1 == 0.0:
            return
        del v2
        result = estimate(model, risk, bounds)
        assert result.theta1 == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_bounds_on_seeded_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            b = rng.uniform(0.05, 0.95)
            d = rng.uniform(0.0, 1.0 - b)
            a = rng.uniform(0.0, b)
            c = rng.uniform(0.0, d)
            bounds = validate_bounds(a, b, c, d)
            step = 0.01
            for model in ModelKind:
                for risk in RiskProfile:
                    try:
                        base = estimate(model, risk, bounds).theta1
                        if a + step <= b:
                            up_a = validate_bounds(a + step, b, c, d)
                            assert estimate(model, risk, up_a).theta1 >= base - 1e-12
                        if d + step <= 1.0 - b:
                            up_d = validate_bounds(a, b, c, d + step)
                            assert estimate(model, risk, up_d).theta1 <= base + 1e-12
                    except DegeneratePayoffsError:
                        continue


class TestClosedCdf:
    """The elementary overpayment probability against the quadrature and mpmath."""

    def test_matches_the_quadrature_on_random_boxes(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024)))
        worst = 0.0
        for _ in range(1000):
            bounds = random_valid_bounds(rng)
            for model in ModelKind:
                lo, hi = as_share_model(model).support(bounds)
                inner = lo + (hi - lo) * rng.uniform(0.0, 1.0, 3)
                ts = np.array([0.0, lo, *inner, hi, 1.0])
                # cdf_at's kernel, batched: a value does not depend on its
                # batch (test_cdf_kernel).
                numeric = _cdf(_Rectangle(as_share_model(model), bounds), ts)
                for t, prob in zip(ts, numeric):
                    worst = max(worst, abs(closed_cdf(model, bounds, float(t)) - prob))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "box",
        [
            (0.3, 0.3 + 5e-9, 0.1, 0.4),
            (0.1, 0.4, 0.2, 0.2 + 5e-9),
            (0.0, 1e-9, 2.977733903987352e-4, 2.977743903987352e-4),
            (0.25, 0.25, 0.1, 0.100001),
            (0.1, 0.1 + 1e-12, 0.3, 0.3 + 1e-12),
            (0.2, 0.2 + 1e-9, 0.0, 0.7),
            (1e-300, 2e-300, 0.0, 0.5),
            (1e-300, 3e-300, 2e-300, 5e-300),
            (9.213364381230067e-299, 9.213364381230287e-299,
             8.693275854009991e-299, 8.693275854010122e-299),
            (0.0, 1e-200, 0.2, 0.7),
            (0.0, 0.3, 0.0, 1e-7),
        ],
    )
    def test_matches_the_quadrature_on_thin_and_tiny_boxes(self, box):
        bounds = validate_bounds(*box)
        # The quadrature's own error target: 1e-12, or 16 eps over the
        # thinner positive side.
        sides = [side for side in (bounds.width1, bounds.width2) if side > 0.0]
        floor = max(1e-12, 16.0 * np.finfo(float).eps / min(sides))
        for model in ModelKind:
            lo, hi = as_share_model(model).support(bounds)
            ts = [lo, hi, *(lo + (hi - lo) * u for u in (0.1, 0.5, 0.9))]
            ts += [estimate(model, risk, bounds).theta1 for risk in RiskProfile]
            for t in ts:
                gap = abs(closed_cdf(model, bounds, t) - cdf_at(model, bounds, t))
                assert gap <= floor, (model, t)

    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 0.2, 0.0, 0.8),
            (0.1, 0.3, 0.2, 0.6),
            (0.05, 0.3, 0.1, 0.6),
            (0.4, 0.45, 0.0, 0.5),
            (0.0, 0.6, 0.3, 0.35),
            (0.7, 0.9, 0.02, 0.08),
        ],
    )
    def test_against_60_digit_reference(self, box):
        bounds = validate_bounds(*box)
        for model in ModelKind:
            for risk in RiskProfile:
                t = estimate(model, risk, bounds).theta1
                gap = abs(closed_cdf(model, bounds, t) - mpmath_cdf(model, bounds, t))
                assert gap <= 1e-13, (model, risk)

    def test_golden_case1_midpoint_overpayment(self):
        assert closed_cdf(ModelKind.CASE1, GOLDEN, 0.275) == pytest.approx(
            0.4954592922989102, abs=1e-15
        )

    def test_point_masses_reduce_to_one_dimension(self):
        # nbs: theta = 0.6 - y / 2 on the column a = b = 0.2, so
        # theta <= 0.45 exactly when y >= 0.3, half of [0.1, 0.5].
        column = validate_bounds(0.2, 0.2, 0.1, 0.5)
        assert closed_cdf("nbs", column, 0.45) == pytest.approx(0.5, abs=1e-15)
        row = validate_bounds(0.1, 0.5, 0.3, 0.3)
        for model in ModelKind:
            for bounds in (column, row):
                for t in (0.3, 0.4, 0.5):
                    expected = cdf_at(model, bounds, t)
                    closed = closed_cdf(model, bounds, t)
                    assert closed == pytest.approx(expected, abs=1e-14)

    def test_deterministic_share_is_a_step(self):
        point = validate_bounds(0.2, 0.2, 0.3, 0.3)  # nbs share 0.45
        assert closed_cdf("nbs", point, math.nextafter(0.45, 0.0)) == 0.0
        assert closed_cdf("nbs", point, 0.45) == 1.0

    def test_case2_origin_corners(self):
        # The corner (a, c) at the origin: theta <= 1/2 exactly when
        # d1 <= d2, which holds on 0.105 of the 0.15 area.
        corner = validate_bounds(0.0, 0.3, 0.0, 0.5)
        assert closed_cdf("case2", corner, 0.5) == pytest.approx(0.7, abs=1e-15)
        assert closed_cdf("case2", corner, 0.0) == 0.0
        # One side pinned to 0: the share is 0 (or 1) almost surely.
        on_axis = validate_bounds(0.0, 0.0, 0.0, 0.5)
        assert closed_cdf("case2", on_axis, 0.0) == 1.0
        other_axis = validate_bounds(0.0, 0.5, 0.0, 0.0)
        assert closed_cdf("case2", other_axis, math.nextafter(1.0, 0.0)) == 0.0
        assert closed_cdf("case2", other_axis, 1.0) == 1.0
        with pytest.raises(DegeneratePayoffsError):
            closed_cdf("case2", validate_bounds(0.0, 0.0, 0.0, 0.0), 0.5)

    @pytest.mark.parametrize("side", [5e-324, 1e-320, 2.0**-1000], ids=str)
    def test_case2_on_subnormal_squares(self, side):
        # P{d1 <= d2 t / (1 - t)} on a square: t / (2 (1 - t)) for t <= 1/2.
        # Unscaled, the crossing at 5e-324 rounded to 0 and so did P.
        square = validate_bounds(0.0, side, 0.0, side)
        assert closed_cdf("case2", square, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert closed_cdf("case2", square, 0.4) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_steps_outside_the_support(self, model):
        bounds = validate_bounds(0.1, 0.3, 0.2, 0.6)
        lo, hi = as_share_model(model).support(bounds)
        assert closed_cdf(model, bounds, 0.0) == 0.0
        assert closed_cdf(model, bounds, math.nextafter(lo, 0.0)) == 0.0
        assert closed_cdf(model, bounds, lo) == pytest.approx(0.0, abs=1e-15)
        assert closed_cdf(model, bounds, math.nextafter(hi, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert closed_cdf(model, bounds, hi) == 1.0
        assert closed_cdf(model, bounds, 1.0) == 1.0

    def test_string_model_names(self):
        for model in ModelKind:
            by_name = closed_cdf(model.value, GOLDEN, 0.3)
            assert by_name == closed_cdf(model, GOLDEN, 0.3)

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan, math.inf, "x", None])
    def test_bad_t_raises_like_cdf_at(self, t):
        for cdf in (closed_cdf, cdf_at):
            with pytest.raises(OutOfRangeError, match="t must"):
                cdf(ModelKind.NBS, GOLDEN, t)
