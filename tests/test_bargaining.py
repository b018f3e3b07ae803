"""Core bargaining-model behavior: validation, weights, shares, financials."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nashroyalty import (
    DegeneratePayoffsError,
    DisorderedBoundsError,
    FinancialStatement,
    FixedAlphaModel,
    ModelKind,
    OutOfRangeError,
    PerceptionMatrix,
    SurplusViolationError,
    alpha_from_perceptions,
    cdf_at,
    closed_cdf,
    estimate,
    family_sweep,
    mc_summary,
    numeric_mean,
    numeric_median,
    pdf_curve,
    royalty_rate,
    sample_thetas,
    theta_model,
    validate_bounds,
)
from nashroyalty.bargaining import as_share_model
from nashroyalty.estimators import paper_case1_median
from nashroyalty.posterior import numeric_estimate

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def payoff_pairs(draw):
    d1 = draw(UNIT)
    d2 = draw(st.floats(min_value=0.0, max_value=1.0 - d1, allow_nan=False))
    return d1, d2


class TestValidateBounds:
    def test_golden_bounds_accepted(self):
        bounds = validate_bounds(0.0, 0.2, 0.0, 0.8)
        assert (bounds.a, bounds.b, bounds.c, bounds.d) == (0.0, 0.2, 0.0, 0.8)
        assert bounds.width1 == pytest.approx(0.2)

    def test_point_mass_bounds_accepted(self):
        bounds = validate_bounds(0.3, 0.3, 0.1, 0.1)
        assert bounds.a == bounds.b and bounds.c == bounds.d

    def test_disordered_interval_rejected(self):
        with pytest.raises(DisorderedBoundsError, match="a <= b"):
            validate_bounds(0.5, 0.2, 0.0, 0.3)
        with pytest.raises(DisorderedBoundsError, match="c <= d"):
            validate_bounds(0.0, 0.2, 0.4, 0.3)

    def test_out_of_range_values_rejected(self):
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(OutOfRangeError, match=r"\[0, 1\]"):
                validate_bounds(bad, 0.2, 0.0, 0.3)

    def test_surplus_violation_rejected(self):
        with pytest.raises(SurplusViolationError, match="b \\+ d <= 1"):
            validate_bounds(0.0, 0.6, 0.0, 0.6)

    def test_edge_of_simplex_accepted(self):
        validate_bounds(0.0, 0.5, 0.0, 0.5)
        validate_bounds(0.0, 1.0, 0.0, 0.0)

    def test_swapped_exchanges_parties(self):
        bounds = validate_bounds(0.1, 0.2, 0.3, 0.4)
        assert bounds.swapped() == validate_bounds(0.3, 0.4, 0.1, 0.2)


class TestNormalizedPayoffs:
    """Payoffs as fractions of operating income, as ``theta_model`` checks them."""

    def test_sum_above_one_rejected(self):
        with pytest.raises(SurplusViolationError, match="d1 \\+ d2"):
            theta_model(ModelKind.NBS, 0.6, 0.6)

    def test_unit_range_enforced(self):
        with pytest.raises(OutOfRangeError, match="d1"):
            theta_model(ModelKind.NBS, -0.2, 0.1)


class TestBargainingWeights:
    def test_balanced_perceptions_give_exactly_half(self):
        assert alpha_from_perceptions(PerceptionMatrix(1, 1, 1, 1)) == 0.5
        assert alpha_from_perceptions(PerceptionMatrix(0.3, 0.4, 0.3, 0.4)) == 0.5

    def test_one_sided_perceptions(self):
        assert alpha_from_perceptions(PerceptionMatrix(1, 1, 0, 0)) == 1.0
        assert alpha_from_perceptions(PerceptionMatrix(0, 0, 1, 1)) == 0.0

    def test_perception_example(self):
        alpha = alpha_from_perceptions(PerceptionMatrix(0.5, 0.7, 0.4, 0.4))
        assert alpha == pytest.approx(0.6, abs=1e-15)

    @given(UNIT, UNIT, UNIT, UNIT)
    def test_perception_weight_in_unit_interval(self, p11, p12, p21, p22):
        alpha = alpha_from_perceptions(PerceptionMatrix(p11, p12, p21, p22))
        assert 0.0 <= alpha <= 1.0


class TestThetaGeneral:
    """The general solution d1 + alpha (1 - d1 - d2), as ``FixedAlphaModel``."""

    def test_examples(self):
        assert FixedAlphaModel(0.7).at(0.2, 0.8) == pytest.approx(0.2, abs=1e-15)
        assert FixedAlphaModel(0.5).at(0.0, 0.0) == 0.5
        assert FixedAlphaModel(0.5).at(0.3, 0.1) == pytest.approx(0.6, abs=1e-15)

    def test_alpha_validated(self):
        with pytest.raises(OutOfRangeError, match="alpha"):
            FixedAlphaModel(1.5)

    @given(payoff_pairs(), UNIT)
    def test_individual_rationality(self, pair, alpha):
        d1, d2 = pair
        theta = FixedAlphaModel(alpha).at(d1, d2)
        assert d1 - 1e-12 <= theta <= 1.0 - d2 + 1e-12
        assert 0.0 <= theta <= 1.0


class TestRescaledBounds:
    """Only case2 rescales, and only rectangles of bounds below 1/4."""

    CASE2 = as_share_model(ModelKind.CASE2)

    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 0.2, 0.0, 0.8),
            (1e-300, 2e-300, 0.0, 0.5),
            (0.0, 0.25, 0.0, 0.25),
            (0.0, 0.0, 0.0, 0.0),
        ],
        ids=str,
    )
    def test_other_rectangles_pass_through(self, box):
        bounds = validate_bounds(*box)
        assert self.CASE2.rescaled(bounds) is bounds

    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 5e-324, 0.0, 5e-324),
            (5e-324, 1e-320, 0.0, 3e-321),
            (1e-310, 3e-310, 2e-310, 9e-310),
            (0.0, 2.0**-970, 0.0, 2.0**-970),
            (0.0, 0.1, 0.0, math.nextafter(0.25, 0.0)),
        ],
        ids=str,
    )
    def test_tiny_rectangles_scale_by_an_exact_power_of_two(self, box):
        bounds = validate_bounds(*box)
        scaled = self.CASE2.rescaled(bounds)
        top = max(scaled.b, scaled.d)
        assert 0.25 <= top < 0.5
        # The factor 2^power itself can overflow a float.
        power = math.frexp(top)[1] - math.frexp(max(bounds.b, bounds.d))[1]
        for name in ("a", "b", "c", "d"):
            value = getattr(scaled, name)
            assert value == math.ldexp(getattr(bounds, name), power)
            assert math.ldexp(value, -power) == getattr(bounds, name)

    @pytest.mark.parametrize("model", [ModelKind.NBS, ModelKind.CASE1])
    def test_other_models_never_rescale(self, model):
        bounds = validate_bounds(0.0, 5e-324, 0.0, 5e-324)
        assert as_share_model(model).rescaled(bounds) is bounds
        assert FixedAlphaModel(0.5).rescaled(bounds) is bounds


class TestThetaModel:
    def test_golden_point_all_models(self):
        for model in ModelKind:
            assert theta_model(model, 0.2, 0.8) == pytest.approx(0.2, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_equal_payoffs_give_exactly_half(self, v):
        assert theta_model(ModelKind.NBS, v, v) == 0.5
        assert theta_model(ModelKind.CASE1, v, v) == 0.5
        if v > 0.0:
            assert theta_model(ModelKind.CASE2, v, v) == 0.5

    def test_proportional_model_undefined_at_origin(self):
        message = "the share is undefined at d1 = 0.0, d2 = 0.0"
        with pytest.raises(DegeneratePayoffsError, match=message):
            theta_model(ModelKind.CASE2, 0.0, 0.0)

    @given(payoff_pairs(), st.sampled_from(list(ModelKind)))
    def test_matches_general_solution_with_model_weight(self, pair, model):
        d1, d2 = pair
        if model is ModelKind.CASE2 and d1 + d2 == 0.0:
            return
        # The paper's weights: 1/2, 1/2 + (d1 - d2)/2 and d1/(d1 + d2).
        weight = {
            ModelKind.NBS: lambda: 0.5,
            ModelKind.CASE1: lambda: 0.5 + (d1 - d2) / 2.0,
            ModelKind.CASE2: lambda: d1 / (d1 + d2),
        }[model]()
        direct = theta_model(model, d1, d2)
        composed = FixedAlphaModel(weight).at(d1, d2)
        assert direct == pytest.approx(composed, abs=1e-12)

    @given(payoff_pairs(), st.sampled_from(list(ModelKind)))
    def test_exchange_antisymmetry(self, pair, model):
        d1, d2 = pair
        if model is ModelKind.CASE2 and d1 + d2 == 0.0:
            return
        assert theta_model(model, d1, d2) + theta_model(model, d2, d1) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(payoff_pairs(), st.sampled_from(list(ModelKind)))
    def test_share_stays_in_unit_interval(self, pair, model):
        d1, d2 = pair
        if model is ModelKind.CASE2 and d1 + d2 == 0.0:
            return
        assert 0.0 <= theta_model(model, d1, d2) <= 1.0

    # Halving by * 0.5 in place of / 2.0: the same real number, so IEEE
    # rounds both alike, on signed zeros, subnormals, infinities and NaN too.
    SPECIAL = (
        *(0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308),
        *(1.7976931348623157e308, math.inf, -math.inf, math.nan),
    )
    DIVIDING = {
        "nbs": lambda x, y: 0.5 + (x - y) / 2.0,
        "case1": lambda x, y: (y * y - x * x + 2.0 * (x - y) + 1.0) / 2.0,
    }

    @given(st.floats(), st.floats())
    def test_halving_by_multiplying_keeps_every_bit(self, x, y):
        pairs = [(x, y), *itertools.product(self.SPECIAL, repeat=2)]
        xs, ys = np.array(pairs).T
        for name, dividing in self.DIVIDING.items():
            theta = as_share_model(name).theta
            assert struct.pack("d", theta(x, y)) == struct.pack("d", dividing(x, y))
            with np.errstate(all="ignore"):
                assert theta(xs, ys).tobytes() == dividing(xs, ys).tobytes()

    def test_nbs_recovered_from_general_solution(self):
        for d1, d2 in ((0.0, 0.0), (0.2, 0.8), (0.3, 0.3), (0.15, 0.4)):
            assert FixedAlphaModel(0.5).at(d1, d2) == pytest.approx(
                theta_model(ModelKind.NBS, d1, d2), abs=1e-12
            )


class TestUnknownModelName:
    """Every entry point that takes a model name rejects an unknown one alike."""

    BOX = validate_bounds(0.0, 0.2, 0.0, 0.8)

    @pytest.mark.parametrize(
        "call",
        [
            lambda box: theta_model("bogus", 0.1, 0.2),
            lambda box: estimate("bogus", "map", box),
            lambda box: estimate("bogus", "abs", box),
            lambda box: estimate("bogus", "mse", box),
            lambda box: family_sweep("bogus", "abs", 0.0, 0.2),
            lambda box: cdf_at("bogus", box, 0.3),
            lambda box: closed_cdf("bogus", box, 0.3),
            lambda box: mc_summary("bogus", box, 10, seed=0),
        ],
        ids=["theta_model", "estimate-map", "estimate-abs", "estimate-mse",
             "family_sweep", "cdf_at", "closed_cdf", "mc_summary"],
    )
    def test_raises_out_of_range_naming_the_models(self, call):
        with pytest.raises(OutOfRangeError, match="nbs, case1, case2, got 'bogus'"):
            call(self.BOX)

    def test_string_values_are_accepted(self):
        assert theta_model("case1", 0.1, 0.2) == theta_model(ModelKind.CASE1, 0.1, 0.2)


class TestUnknownRiskName:
    """Every entry point that takes a risk profile rejects an unknown one alike."""

    BOX = validate_bounds(0.0, 0.2, 0.0, 0.8)

    @pytest.mark.parametrize(
        "call",
        [
            lambda box: estimate("nbs", "bogus", box),
            lambda box: family_sweep("nbs", "bogus", 0.0, 0.2),
            lambda box: numeric_estimate("nbs", "bogus", box),
        ],
        ids=["estimate", "family_sweep", "numeric_estimate"],
    )
    def test_raises_out_of_range_naming_the_profiles(self, call):
        with pytest.raises(OutOfRangeError, match="map, abs, mse, got 'bogus'"):
            call(self.BOX)


class TestBoundsMustBeARecord:
    """Every entry point that takes ``bounds`` names a value that is not a
    :class:`PayoffBounds`, without coercing a sequence."""

    @pytest.mark.parametrize("bounds", [(0.1, 0.3, 0.2, 0.6), None], ids=str)
    @pytest.mark.parametrize(
        "call",
        [
            lambda box: estimate("case1", "abs", box),
            lambda box: paper_case1_median(box),
            lambda box: closed_cdf("nbs", box, 0.3),
            lambda box: cdf_at("nbs", box, 0.3),
            lambda box: pdf_curve("nbs", box),
            lambda box: numeric_median("nbs", box),
            lambda box: numeric_mean("nbs", box),
            lambda box: numeric_estimate("nbs", "mse", box),
            lambda box: sample_thetas("nbs", box, 10, seed=0),
            lambda box: mc_summary("nbs", box, 10, seed=0),
            lambda box: as_share_model("nbs").support(box),
            lambda box: as_share_model("nbs").rescaled(box),
            lambda box: as_share_model("case2").support(box),
            lambda box: as_share_model("case2").rescaled(box),
            lambda box: FixedAlphaModel(0.3).support(box),
        ],
        ids=["estimate", "paper_case1_median", "closed_cdf", "cdf_at", "pdf_curve",
             "numeric_median", "numeric_mean", "numeric_estimate", "sample_thetas",
             "mc_summary", "nbs.support", "nbs.rescaled", "case2.support",
             "case2.rescaled", "fixed_alpha.support"],
    )
    def test_raises_out_of_range_naming_the_type(self, call, bounds):
        kind = type(bounds).__name__
        with pytest.raises(OutOfRangeError, match=f"a PayoffBounds, got {kind}$"):
            call(bounds)


class TestFinancials:
    def test_margin_and_royalty_rate(self):
        fs = FinancialStatement(operating_revenue=100.0, operating_cost=80.0)
        assert fs.operating_income == pytest.approx(20.0)
        assert fs.operating_margin == pytest.approx(0.2)
        assert royalty_rate(0.35, fs) == pytest.approx(0.07, abs=1e-15)

    @pytest.mark.parametrize("financials", [(500.0, 360.0), None, 0.28], ids=str)
    def test_royalty_rate_names_financials_that_are_not_a_statement(self, financials):
        kind = type(financials).__name__
        message = f"financials must be a FinancialStatement, got {kind}$"
        with pytest.raises(OutOfRangeError, match=message):
            royalty_rate(0.3, financials)

    def test_income_must_be_positive(self):
        with pytest.raises(OutOfRangeError, match="operating income"):
            FinancialStatement(operating_revenue=80.0, operating_cost=80.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(OutOfRangeError):
            FinancialStatement(operating_revenue=-1.0, operating_cost=0.0)
