"""Royalty-share point estimation under uncertain disagreement payoffs.

Splits a license's operating income between licensor and licensee with a
generalized Nash bargaining solution, treats both parties' disagreement
payoffs as independent uniform random variables over known intervals, and
returns the point estimate of the licensor's share that minimizes the
chosen estimation-error cost (mode, median, or mean of the induced share
distribution).  Each model's share rule is written once, as a
:class:`ShareModel` in :mod:`nashroyalty.bargaining`.  Closed forms live in
:mod:`nashroyalty.estimators`; two independent verification channels, a
batched error-controlled CDF quadrature and seeded Monte Carlo, live in
:mod:`nashroyalty.posterior` and :mod:`nashroyalty.montecarlo`.
"""

from importlib import import_module as _import_module

from .bargaining import (
    FinancialStatement,
    FixedAlphaModel,
    ModelKind,
    PayoffBounds,
    PerceptionMatrix,
    ShareModel,
    alpha_from_perceptions,
    royalty_rate,
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
from .estimators import EstimateResult, RiskProfile, closed_cdf, estimate

# The engines need numpy, which costs more start-up time than the closed
# forms' commands take in all; their names load on first use (PEP 562).
_LAZY = {
    "montecarlo": (
        "SHARD_SIZE",
        "SampleSummary",
        "mc_summary",
        "random_valid_bounds",
        "sample_thetas",
        "summarize",
    ),
    "posterior": (
        "ModeResult",
        "PosteriorCurve",
        "cdf_at",
        "mode_from_curve",
        "numeric_mean",
        "numeric_median",
        "pdf_curve",
    ),
    "sweep": (
        "MapReferencePoint",
        "OmittedCell",
        "SweepRow",
        "SweepSeries",
        "SweepTable",
        "family_sweep",
        "to_json_dict",
        "write_csv",
        "write_json",
        "write_map_csv",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOME})


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bargaining
    "ModelKind",
    "FinancialStatement",
    "PerceptionMatrix",
    "PayoffBounds",
    "ShareModel",
    "FixedAlphaModel",
    "validate_bounds",
    "alpha_from_perceptions",
    "theta_model",
    "royalty_rate",
    # estimators
    "RiskProfile",
    "EstimateResult",
    "estimate",
    "closed_cdf",
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
    # the engines: posterior, monte carlo, sweep
    *_LAZY_HOME,
]
