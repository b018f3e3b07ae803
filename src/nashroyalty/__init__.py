"""Royalty-share point estimation under uncertain disagreement payoffs.

Splits a license's operating income between licensor and licensee with a
generalized Nash bargaining solution, treats both parties' disagreement
payoffs as independent uniform random variables over known intervals, and
returns the point estimate of the licensor's share that minimizes the
chosen estimation-error cost (mode, median, or mean of the induced share
distribution).  Closed forms live in :mod:`nashroyalty.estimators`; two
independent verification channels, a batched error-controlled CDF
quadrature and seeded Monte Carlo, live in :mod:`nashroyalty.posterior`
and :mod:`nashroyalty.montecarlo`.
"""

from .bargaining import (
    FinancialStatement,
    ModelKind,
    NormalizedPayoffs,
    PayoffBounds,
    PerceptionMatrix,
    ProfitPartition,
    alpha_case1,
    alpha_case2,
    alpha_from_perceptions,
    optimal_partition,
    party2_share,
    royalty_rate,
    theta_general,
    theta_model,
    validate_bounds,
)
from .errors import (
    BoundsValidationError,
    DegeneracyError,
    DegenerateDistributionError,
    DegeneratePayoffsError,
    DisorderedBoundsError,
    EmptySampleError,
    NumericalAccuracyError,
    OutOfRangeError,
    RoyaltyModelError,
    SurplusViolationError,
)
from .estimators import (
    EstimateResult,
    RiskProfile,
    abs_estimate,
    estimate,
    map_estimate,
    mse_estimate,
)
from .montecarlo import (
    SHARD_SIZE,
    SampleSummary,
    mc_summary,
    random_valid_bounds,
    sample_thetas,
    summarize,
)
from .posterior import (
    FixedAlphaModel,
    ModeResult,
    MonotoneShareFunction,
    PosteriorCurve,
    cdf_at,
    mode_from_curve,
    numeric_mean,
    numeric_median,
    numeric_mode,
    overpayment_prob,
    pdf_curve,
    support_range,
)
from .sweep import (
    MapReferencePoint,
    OmittedCell,
    SweepRow,
    SweepSeries,
    SweepTable,
    family_sweep,
    to_json_dict,
    write_csv,
    write_json,
    write_map_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bargaining
    "ModelKind",
    "FinancialStatement",
    "NormalizedPayoffs",
    "PerceptionMatrix",
    "PayoffBounds",
    "ProfitPartition",
    "validate_bounds",
    "alpha_from_perceptions",
    "alpha_case1",
    "alpha_case2",
    "theta_general",
    "theta_model",
    "optimal_partition",
    "royalty_rate",
    "party2_share",
    # estimators
    "RiskProfile",
    "EstimateResult",
    "map_estimate",
    "abs_estimate",
    "mse_estimate",
    "estimate",
    # posterior engine
    "FixedAlphaModel",
    "MonotoneShareFunction",
    "PosteriorCurve",
    "ModeResult",
    "support_range",
    "cdf_at",
    "pdf_curve",
    "numeric_median",
    "numeric_mean",
    "numeric_mode",
    "mode_from_curve",
    "overpayment_prob",
    # monte carlo
    "SHARD_SIZE",
    "SampleSummary",
    "sample_thetas",
    "summarize",
    "mc_summary",
    "random_valid_bounds",
    # sweep
    "SweepTable",
    "SweepSeries",
    "SweepRow",
    "MapReferencePoint",
    "OmittedCell",
    "family_sweep",
    "write_csv",
    "write_map_csv",
    "to_json_dict",
    "write_json",
    # errors
    "RoyaltyModelError",
    "BoundsValidationError",
    "OutOfRangeError",
    "DisorderedBoundsError",
    "SurplusViolationError",
    "DegeneracyError",
    "DegeneratePayoffsError",
    "DegenerateDistributionError",
    "EmptySampleError",
    "NumericalAccuracyError",
]
