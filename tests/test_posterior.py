"""Numeric posterior engine against analytic CDFs and the closed forms."""

import math
import sys

import numpy as np
import pytest

from nashroyalty import (
    DegenerateDistributionError,
    DegeneratePayoffsError,
    FixedAlphaModel,
    ModelKind,
    NumericalAccuracyError,
    OutOfRangeError,
    RiskProfile,
    ShareModel,
    cdf_at,
    estimate,
    mc_summary,
    numeric_mean,
    numeric_median,
    pdf_curve,
    sample_thetas,
    theta_model,
    validate_bounds,
)
from nashroyalty.bargaining import as_share_model
from nashroyalty import posterior
from nashroyalty.posterior import ModeResult, mode_from_curve, numeric_estimate

GOLDEN = validate_bounds(0.0, 0.2, 0.0, 0.8)
ORIGIN = validate_bounds(0.0, 0.0, 0.0, 0.0)


def nbs_golden_cdf(t: float) -> float:
    """Hand-derived CDF of 0.5 + (d1 - d2)/2 on the golden bounds.

    The payoff difference is a trapezoid convolution, so the CDF is
    quadratic on the feet [0.1, 0.2] and [0.5, 0.6] and linear between.
    """
    if t <= 0.1:
        return 0.0
    if t <= 0.2:
        return 12.5 * (t - 0.1) ** 2
    if t <= 0.5:
        return 0.125 + 2.5 * (t - 0.2)
    if t <= 0.6:
        return 1.0 - 12.5 * (0.6 - t) ** 2
    return 1.0


def case2_golden_cdf(t: float) -> float:
    """Hand-derived CDF of d1/(d1 + d2) on the golden bounds."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    if t <= 0.2:
        return 2.0 * t / (1.0 - t)
    return 1.0 - (1.0 - t) / (8.0 * t)


class TestCdfAgainstAnalyticOracles:
    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 41).tolist())
    def test_symmetric_model_piecewise_quadratic(self, t):
        assert cdf_at(ModelKind.NBS, GOLDEN, t) == pytest.approx(
            nbs_golden_cdf(t), abs=1e-9
        )

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 41).tolist())
    def test_proportional_model_rational_pieces(self, t):
        assert cdf_at(ModelKind.CASE2, GOLDEN, t) == pytest.approx(
            case2_golden_cdf(t), abs=1e-9
        )

    def test_outside_option_golden_probabilities(self):
        # Three-decimal probabilities published for the worked example.
        assert round(cdf_at(ModelKind.CASE1, GOLDEN, 0.2), 3) == 0.308
        assert round(cdf_at(ModelKind.CASE1, GOLDEN, 0.275), 3) == 0.495
        assert round(cdf_at(ModelKind.CASE1, GOLDEN, 0.3), 3) == 0.547

    def test_point_mass_party1_is_exact_length_ratio(self):
        bounds = validate_bounds(0.3, 0.3, 0.1, 0.5)
        # theta = (1 + 0.3 - d2)/2 is uniform on [0.4, 0.6].
        for t, expected in ((0.4, 0.0), (0.45, 0.25), (0.5, 0.5), (0.6, 1.0)):
            assert cdf_at(ModelKind.NBS, bounds, t) == pytest.approx(
                expected, abs=1e-12
            )

    def test_point_mass_party1_proportional(self):
        bounds = validate_bounds(0.2, 0.2, 0.0, 0.8)
        # theta = 0.2/(0.2 + d2): support [0.2, 1], CDF 1 - (1-t)/(4t).
        for t in (0.25, 0.4, 0.5, 0.8):
            assert cdf_at(ModelKind.CASE2, bounds, t) == pytest.approx(
                1.0 - (1.0 - t) / (4.0 * t), abs=1e-12
            )
        assert cdf_at(ModelKind.CASE2, bounds, 0.1) == 0.0
        assert cdf_at(ModelKind.CASE2, bounds, 1.0) == 1.0

    def test_point_mass_party2_is_exact_length_ratio(self):
        bounds = validate_bounds(0.1, 0.5, 0.3, 0.3)
        # theta = (1 + d1 - 0.3)/2 is uniform on [0.4, 0.6].
        assert cdf_at(ModelKind.NBS, bounds, 0.45) == pytest.approx(0.25, abs=1e-12)
        assert cdf_at(ModelKind.NBS, bounds, 0.55) == pytest.approx(0.75, abs=1e-12)


class TestCdfShape:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_support_bracketing(self, model):
        lo, hi = as_share_model(model).support(GOLDEN)
        assert lo < hi
        assert cdf_at(model, GOLDEN, max(0.0, lo - 0.01)) == 0.0
        assert cdf_at(model, GOLDEN, lo) <= 1e-6
        assert cdf_at(model, GOLDEN, min(1.0, hi)) == 1.0
        assert cdf_at(model, GOLDEN, min(1.0, hi + 0.01)) == 1.0

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("bounds", [GOLDEN, validate_bounds(0.1, 0.4, 0.2, 0.5)])
    def test_monotone_nondecreasing(self, model, bounds):
        grid = np.linspace(0.0, 1.0, 81)
        values = [cdf_at(model, bounds, float(t)) for t in grid]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-10

    def test_overpayment_prob_is_the_cdf(self):
        theta_hat = estimate(ModelKind.NBS, RiskProfile.MAP, GOLDEN).theta1
        # P{theta <= estimate}: the chance the estimate overpays party 1.
        prob = cdf_at(ModelKind.NBS, GOLDEN, theta_hat)
        assert prob == pytest.approx(0.125, abs=1e-8)


class TestSupportRange:
    def test_corner_values(self):
        assert as_share_model(ModelKind.NBS).support(GOLDEN) == (
            theta_model(ModelKind.NBS, 0.0, 0.8),
            theta_model(ModelKind.NBS, 0.2, 0.0),
        )

    def test_proportional_full_span_with_zero_lower_bounds(self):
        assert as_share_model(ModelKind.CASE2).support(GOLDEN) == (0.0, 1.0)

    def test_proportional_zero_axis_rectangles(self):
        case2 = as_share_model(ModelKind.CASE2)
        assert case2.support(validate_bounds(0, 0, 0.2, 0.6)) == (0.0, 0.0)
        assert case2.support(validate_bounds(0.2, 0.6, 0, 0)) == (1.0, 1.0)

    def test_origin_rectangle_raises(self):
        with pytest.raises(DegeneratePayoffsError):
            as_share_model(ModelKind.CASE2).support(ORIGIN)


class TestDeterministicShare:
    BOUNDS = validate_bounds(0.3, 0.3, 0.1, 0.1)
    POINT = theta_model(ModelKind.CASE2, 0.3, 0.1)

    def test_cdf_is_a_step(self):
        assert cdf_at(ModelKind.CASE2, self.BOUNDS, 0.74) == 0.0
        assert cdf_at(ModelKind.CASE2, self.BOUNDS, 0.76) == 1.0
        assert cdf_at(ModelKind.CASE2, self.BOUNDS, self.POINT) == 1.0

    def test_median_and_mean_return_the_point(self):
        assert numeric_median(ModelKind.CASE2, self.BOUNDS) == self.POINT
        assert numeric_mean(ModelKind.CASE2, self.BOUNDS) == self.POINT

    def test_density_raises_and_mode_is_the_point(self):
        with pytest.raises(DegenerateDistributionError):
            pdf_curve(ModelKind.CASE2, self.BOUNDS)
        for risk in RiskProfile:
            result = posterior.numeric_estimate(ModelKind.CASE2, risk, self.BOUNDS)
            assert result.theta1 == self.POINT

    def test_proportional_axis_rectangles_are_steps(self):
        pinned_low = validate_bounds(0.0, 0.0, 0.2, 0.6)
        assert numeric_median(ModelKind.CASE2, pinned_low) == 0.0
        assert cdf_at(ModelKind.CASE2, pinned_low, 0.0) == 1.0
        pinned_high = validate_bounds(0.2, 0.6, 0.0, 0.0)
        assert numeric_median(ModelKind.CASE2, pinned_high) == 1.0
        assert cdf_at(ModelKind.CASE2, pinned_high, 0.999) == 0.0
        with pytest.raises(DegenerateDistributionError):
            pdf_curve(ModelKind.CASE2, pinned_low)


class TestPdfCurve:
    def test_symmetric_model_plateau_height(self):
        curve = pdf_curve(ModelKind.NBS, GOLDEN, n_points=801)
        inside = (curve.thetas >= 0.21) & (curve.thetas <= 0.49)
        assert np.all(np.abs(curve.pdf[inside] - 2.5) < 1e-6)

    def test_density_integrates_to_one(self):
        for model in ModelKind:
            curve = pdf_curve(model, GOLDEN, n_points=801)
            assert np.trapezoid(curve.pdf, curve.thetas) == pytest.approx(
                1.0, abs=1e-4
            )

    def test_density_vanishes_outside_support(self):
        curve = pdf_curve(ModelKind.NBS, GOLDEN, n_points=801)
        cell = curve.thetas[1] - curve.thetas[0]
        outside = (curve.thetas < 0.1 - cell) | (curve.thetas > 0.6 + cell)
        assert np.all(curve.pdf[outside] <= 1e-9)

    def test_proportional_tail_density(self):
        curve = pdf_curve(ModelKind.CASE2, GOLDEN, n_points=801)
        # dF/dt at t = 1 is 1/8 for the golden bounds.
        assert curve.pdf[-1] == pytest.approx(0.125, abs=1e-3)
        # The true peak 3.125 sits on a density kink, so the grid estimate
        # carries an O(grid step) sampling error.
        assert curve.pdf.max() == pytest.approx(3.125, abs=0.02)

    @pytest.mark.parametrize("n_points", [3, 5, 17, 2001, 2049])
    @pytest.mark.parametrize("model", [*ModelKind, FixedAlphaModel(0.3)], ids=str)
    def test_density_is_numpys_gradient_of_the_cdf(self, model, n_points):
        # np.gradient takes its evenly spaced branch at n = 2**k + 1, where
        # every grid step rounds alike; at 2001 it does not.
        curve = pdf_curve(model, GOLDEN, n_points)
        thetas = np.linspace(0.0, 1.0, n_points)
        assert curve.thetas.tobytes() == thetas.tobytes()
        pdf = np.maximum(np.gradient(curve.cdf, thetas), 0.0)
        assert curve.pdf.tobytes() == pdf.tobytes()

    def test_too_few_points_rejected(self):
        with pytest.raises(OutOfRangeError):
            pdf_curve(ModelKind.NBS, GOLDEN, n_points=2)

    @pytest.mark.parametrize("n_points", [3.9, 801.5, math.inf, math.nan])
    def test_non_integral_point_counts_rejected(self, n_points):
        with pytest.raises(OutOfRangeError, match="n_points must be an integer"):
            pdf_curve(ModelKind.NBS, GOLDEN, n_points=n_points)

    # Counts of more doubles than one array can hold; none is allocated.
    @pytest.mark.parametrize(
        "n_points",
        [sys.maxsize // 8 + 1, 2**62, 10**400],
        ids=["max+1", "2**62", "10**400"],
    )
    def test_point_counts_no_array_can_hold_rejected(self, n_points):
        with pytest.raises(OutOfRangeError, match="n_points must be at most"):
            pdf_curve(ModelKind.NBS, GOLDEN, n_points=n_points)

    def test_integral_float_point_count_accepted(self):
        curve = pdf_curve(ModelKind.NBS, GOLDEN, n_points=801.0)
        assert np.array_equal(curve.cdf, pdf_curve(ModelKind.NBS, GOLDEN, 801).cdf)


class TestNumericMedian:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_cdf_at_median_is_half(self, model):
        for bounds in (GOLDEN, validate_bounds(0.1, 0.4, 0.2, 0.5)):
            median = numeric_median(model, bounds)
            assert abs(cdf_at(model, bounds, median) - 0.5) <= 1e-9

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_exchange_symmetry(self, model):
        bounds = validate_bounds(0.05, 0.35, 0.1, 0.6)
        direct = numeric_median(model, bounds)
        swapped = numeric_median(model, bounds.swapped())
        assert direct + swapped == pytest.approx(1.0, abs=1e-8)

    def test_matches_exact_medians_on_golden_bounds(self):
        assert numeric_median(ModelKind.NBS, GOLDEN) == pytest.approx(0.35, abs=1e-8)
        assert numeric_median(ModelKind.CASE2, GOLDEN) == pytest.approx(0.2, abs=1e-8)
        # The midpoint approximation 0.275 sits close to, but off, the true
        # median for the outside-option model.
        assert numeric_median(ModelKind.CASE1, GOLDEN) == pytest.approx(
            0.277, abs=5e-4
        )

    def test_thin_box_median_meets_the_cdf_target(self):
        # Sides 1e-12 wide: the CDF is only accurate to 16 eps / 1e-12, so
        # the median's stop widens to that target.
        bounds = validate_bounds(0.1, 0.1 + 1e-12, 0.3, 0.3 + 1e-12)
        target = max(1e-9, posterior._tolerance(bounds.width1, bounds.width2))
        median = numeric_median(ModelKind.NBS, bounds)
        assert abs(cdf_at(ModelKind.NBS, bounds, median) - 0.5) <= target

    def test_a_bracket_across_many_decades_closes(self):
        # The support is about [1e-288, 1/2].  Bisected by its arithmetic
        # midpoint alone, the bracket still held [1e-288, 3.1e-61] after 100
        # rounds; its geometric midpoint crosses a decade range per round.
        bounds = validate_bounds(1e-300, 1e-300, 1e-300, 1e-12)
        median = numeric_median(ModelKind.CASE2, bounds)
        assert median == pytest.approx(2e-288, rel=1e-9)
        assert abs(cdf_at(ModelKind.CASE2, bounds, median) - 0.5) <= 1e-9

    def test_cdf_jumping_across_half_raises(self, monkeypatch):
        def jump(rect, ts, inside=False):
            return np.where(ts < 0.3, 0.4, 0.6)

        monkeypatch.setattr(posterior, "_cdf", jump)
        with pytest.raises(NumericalAccuracyError, match="median"):
            numeric_median(ModelKind.NBS, GOLDEN)


class TestSubnormalCase2Boxes:
    """case2 boxes whose bounds lie below 1/4 are scaled up exactly."""

    @pytest.mark.parametrize("side", [5e-324, 1e-320, 2.0**-1000], ids=str)
    def test_cdf_on_a_square(self, side):
        # On a square, d1 / (d1 + d2) <= t exactly when d1 <= d2 t / (1 - t),
        # which holds on t / (2 (1 - t)) of it for t <= 1/2.
        square = validate_bounds(0.0, side, 0.0, side)
        assert cdf_at(ModelKind.CASE2, square, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert cdf_at(ModelKind.CASE2, square, 0.4) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 5e-324, 0.0, 5e-324),
            (0.0, 1.5e-323, 0.0, 1e-323),
            (5e-324, 1e-320, 0.0, 3e-321),
            (1e-310, 3e-310, 2e-310, 9e-310),
        ],
        ids=str,
    )
    def test_median_and_mean_match_the_closed_forms(self, box):
        # Unscaled, the CDF's target on sides this thin is 1, and the median
        # missed by as much as 0.052 on these boxes.
        bounds = validate_bounds(*box)
        median = estimate(ModelKind.CASE2, RiskProfile.ABS, bounds).theta1
        mean = estimate(ModelKind.CASE2, RiskProfile.MSE, bounds).theta1
        assert numeric_median(ModelKind.CASE2, bounds) == pytest.approx(median, abs=1e-9)
        assert numeric_mean(ModelKind.CASE2, bounds) == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("s", [1e-13, 1e-200], ids=str)
    def test_small_box_median_is_scale_free(self, s):
        # Unscaled, the median's target read the absolute side widths, and
        # on this box it returned 0.342857 (CDF 0.5414) at both scales.
        bounds = validate_bounds(0.1 * s, 0.3 * s, 0.2 * s, 0.6 * s)
        median = numeric_median(ModelKind.CASE2, bounds)
        assert median == pytest.approx(1 / 3, abs=1e-9)


class TestNumericMean:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize(
        "bounds",
        [
            GOLDEN,
            validate_bounds(0.1, 0.4, 0.2, 0.5),
            validate_bounds(0.05, 0.6, 0.1, 0.35),
            validate_bounds(0.2, 0.2, 0.0, 0.8),
            validate_bounds(0.1, 0.5, 0.3, 0.3),
            # Corner images that coincide (every model maps (a, c) and
            # (b, d) to 1/2), and case2's corner at the origin.
            validate_bounds(0.1, 0.3, 0.1, 0.3),
            validate_bounds(0.0, 0.3, 0.0, 0.5),
        ],
    )
    def test_matches_closed_form(self, monkeypatch, model, bounds):
        panels = []
        integrate = posterior._integrate

        def recorded(fn, left, right, tol):
            panels.append((left, right))
            return integrate(fn, left, right, tol)

        monkeypatch.setattr(posterior, "_integrate", recorded)
        assert numeric_mean(model, bounds) == pytest.approx(
            estimate(model, RiskProfile.MSE, bounds).theta1, abs=1e-8
        )
        # The t-panels split the support at the corner images, as numpy's
        # clipped, sorted and deduplicated cut list did.
        ops = as_share_model(model)
        lo, hi = ops.support(bounds)
        cuts = [lo, hi]
        for x, y in ((bounds.a, bounds.c), (bounds.b, bounds.d)):
            try:
                cuts.append(ops.at(x, y))
            except DegeneratePayoffsError:
                pass
        edges = np.unique(np.clip(cuts, lo, hi))
        left, right = panels[0]  # the mean's own call comes first
        assert left.tobytes() == edges[:-1].tobytes()
        assert right.tobytes() == edges[1:].tobytes()

    def test_degenerate_axis_values(self):
        assert numeric_mean(ModelKind.CASE2, validate_bounds(0, 0, 0.2, 0.6)) == 0.0
        assert numeric_mean(ModelKind.CASE2, validate_bounds(0.2, 0.6, 0, 0)) == 1.0


class Cube(ShareModel):
    """theta = d1^3, whatever d2: nondecreasing in d1 and constant in d2."""

    @staticmethod
    def theta(x, y):
        return x * x * x

    @staticmethod
    def d2_threshold(x, t):
        return np.where(x * x * x <= t, -np.inf, np.inf)

    @staticmethod
    def d1_threshold(y, t):
        return np.cbrt(t) + 0.0 * y


class TestNumericMode:
    def test_golden_modes_equal_map_estimate_bitwise(self):
        for model in ModelKind:
            mode = mode_from_curve(pdf_curve(model, GOLDEN))
            assert mode.value == estimate(model, RiskProfile.MAP, GOLDEN).theta1

    def test_golden_plateau_flags(self):
        assert mode_from_curve(pdf_curve(ModelKind.NBS, GOLDEN)).plateau is True
        assert mode_from_curve(pdf_curve(ModelKind.CASE1, GOLDEN)).plateau is False
        assert mode_from_curve(pdf_curve(ModelKind.CASE2, GOLDEN)).plateau is False

    def test_right_edge_plateau_returns_the_corner(self):
        # Wider d1 interval: the flat top ends at the upper corner image.
        bounds = validate_bounds(0.0, 0.4, 0.0, 0.2)
        mode = mode_from_curve(pdf_curve(ModelKind.NBS, bounds))
        assert mode.value == theta_model(ModelKind.NBS, 0.4, 0.2)
        assert mode.plateau is True

    def test_equal_widths_peak_at_center(self):
        bounds = validate_bounds(0.0, 0.4, 0.0, 0.4)
        mode = mode_from_curve(pdf_curve(ModelKind.NBS, bounds))
        assert mode.value == pytest.approx(0.5, abs=1e-9)
        assert mode.plateau is False

    def test_curve_mode_matches_the_closed_form(self):
        curve = pdf_curve(ModelKind.NBS, GOLDEN, n_points=801)
        mode = mode_from_curve(curve)
        assert mode.value == estimate(ModelKind.NBS, RiskProfile.MAP, GOLDEN).theta1

    def test_a_peak_away_from_the_corner_is_the_largest_tied_grid_point(self):
        # theta = d1^3 has density t^(-2/3) / 1.8 on [0.008, 0.512]: its grid
        # maximum is the first grid point past 0.008, and the slope at the
        # corner image 0.512 is far below it.
        bounds = validate_bounds(0.2, 0.8, 0.1, 0.2)
        curve = pdf_curve(Cube(), bounds)
        assert curve.thetas[17] == 0.0085
        assert mode_from_curve(curve) == ModeResult(value=0.0085, plateau=False)


class Nowhere(ShareModel):
    """A rule undefined (NaN) at every payoff pair, with the inherited
    ``support``."""

    @staticmethod
    def theta(x, y):
        return x * math.nan


class TestUndefinedShare:
    """``ShareModel.at`` raises where a rule is undefined, so both engines
    raise on a rule that is undefined everywhere."""

    BOX = validate_bounds(0.1, 0.3, 0.2, 0.6)
    CALLS = {
        "support": lambda box: Nowhere().support(box),
        "cdf_at": lambda box: cdf_at(Nowhere(), box, 0.5),
        "pdf_curve": lambda box: pdf_curve(Nowhere(), box),
        **{
            f"numeric_estimate-{risk.value}": (
                lambda box, risk=risk: numeric_estimate(Nowhere(), risk, box)
            )
            for risk in RiskProfile
        },
        "sample_thetas": lambda box: sample_thetas(Nowhere(), box, 100, seed=1),
        "mc_summary": lambda box: mc_summary(Nowhere(), box, 100, seed=1),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_every_engine_raises(self, call):
        message = "the share is undefined at d1 = 0.1, d2 = 0.6"
        with pytest.raises(DegeneratePayoffsError, match=message):
            call(self.BOX)


class TestFixedAlphaModel:
    def test_half_alpha_reproduces_symmetric_model(self):
        fixed = FixedAlphaModel(0.5)
        for t in (0.15, 0.3, 0.45, 0.55):
            assert cdf_at(fixed, GOLDEN, t) == pytest.approx(
                cdf_at(ModelKind.NBS, GOLDEN, t), abs=1e-9
            )

    def test_mean_is_linear_in_the_payoff_means(self):
        # E[theta] = alpha + (1-alpha) E[d1] - alpha E[d2].
        fixed = FixedAlphaModel(0.6)
        expected = 0.6 + 0.4 * 0.1 - 0.6 * 0.4
        assert numeric_mean(fixed, GOLDEN) == pytest.approx(expected, abs=1e-6)

    def test_zero_alpha_share_is_party1_payoff(self):
        bounds = validate_bounds(0.1, 0.4, 0.2, 0.5)
        fixed = FixedAlphaModel(0.0)
        for t in (0.15, 0.25, 0.35):
            assert cdf_at(fixed, bounds, t) == pytest.approx(
                (t - 0.1) / 0.3, abs=1e-9
            )

    def test_unit_alpha_share_is_party2_complement(self):
        bounds = validate_bounds(0.1, 0.4, 0.2, 0.5)
        fixed = FixedAlphaModel(1.0)
        for t in (0.55, 0.65, 0.75):
            # theta = 1 - d2 uniform on [0.5, 0.8].
            assert cdf_at(fixed, bounds, t) == pytest.approx(
                (t - 0.5) / 0.3, abs=1e-9
            )

    def test_unit_alpha_on_a_point_mass_side_is_deterministic(self):
        # theta = 1 - d2 = 0.9 everywhere; at the corners the rounding of
        # x + (1 - x - y) differs, which must not open a support.
        bounds = validate_bounds(0.0, 0.3, 0.1, 0.1)
        lo, hi = FixedAlphaModel(1.0).support(bounds)
        assert lo == hi == 0.9
        with pytest.raises(DegenerateDistributionError):
            pdf_curve(FixedAlphaModel(1.0), bounds)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan, math.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(OutOfRangeError):
            FixedAlphaModel(alpha)


class TestNumericEstimate:
    @pytest.mark.parametrize("risk", list(RiskProfile))
    def test_string_risk_matches_its_member(self, risk):
        by_name = posterior.numeric_estimate(ModelKind.NBS, risk.value, GOLDEN)
        assert by_name == posterior.numeric_estimate(ModelKind.NBS, risk, GOLDEN)

    def test_result_is_a_numeric_estimate_result(self):
        result = posterior.numeric_estimate(ModelKind.CASE2, RiskProfile.MSE, GOLDEN)
        assert result.theta1 == numeric_mean(ModelKind.CASE2, GOLDEN)
        assert result.theta2 == 1.0 - result.theta1
        assert result.method_note == "numeric"

    def test_unknown_risk_rejected(self):
        with pytest.raises(OutOfRangeError, match="got 'bogus'"):
            posterior.numeric_estimate(ModelKind.NBS, "bogus", GOLDEN)

    # The grid serves only the mode, but every risk checks its size, and a
    # deterministic share too.
    @pytest.mark.parametrize(
        "n_points",
        [-5, 2, "junk", 2.5, 2**62, 10**400],
        ids=["-5", "2", "junk", "2.5", "2**62", "10**400"],
    )
    @pytest.mark.parametrize("risk", list(RiskProfile))
    @pytest.mark.parametrize(
        "bounds", [GOLDEN, validate_bounds(0.3, 0.3, 0.1, 0.1)], ids=["box", "point"]
    )
    def test_bad_point_counts_rejected_under_every_risk(self, bounds, risk, n_points):
        with pytest.raises(OutOfRangeError, match="n_points must be"):
            posterior.numeric_estimate(ModelKind.NBS, risk, bounds, n_points)


class TestModelResolution:
    def test_string_and_enum_resolve_to_the_same_ops(self):
        assert as_share_model("nbs") is as_share_model(ModelKind.NBS)

    def test_ops_objects_pass_through(self):
        ops = as_share_model(ModelKind.CASE2)
        assert as_share_model(ops) is ops

    def test_objects_without_crossing_methods_rejected(self):
        with pytest.raises(OutOfRangeError):
            as_share_model(object())

    @pytest.mark.parametrize("t", [-0.1, 1.1, math.nan])
    def test_cdf_rejects_points_outside_unit_interval(self, t):
        with pytest.raises(OutOfRangeError):
            cdf_at(ModelKind.NBS, GOLDEN, t)
