"""The ``verify`` command: cross-check closed forms against quadrature and
Monte Carlo on random inputs."""

from __future__ import annotations

import argparse
import math

from ._cli_common import EXIT_MISMATCH, EXIT_OK
from .bargaining import ModelKind, _require_count, as_share_model
from .estimators import RiskProfile, closed_cdf, estimate

_EXACT_TOL = 1e-5
# Limit on the worst |MC mean - quadrature mean| / standard error over every
# (box, model) of a verify run: about 3.4e-4 false alarms per default run.
_MC_Z_LIMIT = 5.0
# Each engine's documented accuracy, from README *Accuracy notes* and not
# from the engine's own constants, so that loosening one cannot loosen the
# gate: the quadrature's CDF target (1e-12, or 16 eps over the thinnest
# side), the median's stop |CDF - 1/2| <= 1e-9 (or that target when
# looser), the mean's ten CDF targets per unit t, the gap between
# closed_cdf and cdf_at, and the closed means' own errors (a few ulps;
# 2e-13 for case2).
_CDF_TARGET = 1e-12
_ROUNDOFF_FLOOR = 16.0 * 2.0**-52
_MEDIAN_STOP = 1e-9
_MEAN_TARGETS = 10.0
_CLOSED_CDF_GAP = 4.4e-14
_CLOSED_MEAN_ERROR = {ModelKind.CASE2: 2e-13}
_CLOSED_ULPS = 4.0

# Size caps that keep every run bounded in time and memory.
_MAX_MC_N = 10_000_000
_MAX_SAMPLES = 100_000


def _target(*lengths: float) -> float:
    """The CDF target on a rectangle whose shortest positive length this is."""
    shortest = min((length for length in lengths if length > 0.0), default=1.0)
    return max(_CDF_TARGET, _ROUNDOFF_FLOOR / max(shortest, _ROUNDOFF_FLOOR))


def _bounds(model, rect, mean: float) -> dict:
    """Each statistic's documented bound on its gap from the closed form, on
    the engine's rescaled rectangle, whose widths set the targets."""
    width1, width2, span = rect.bounds.width1, rect.bounds.width2, rect.hi - rect.lo
    solve = _target(width1, width2, span)
    closed_error = _CLOSED_MEAN_ERROR.get(model, _CLOSED_ULPS * math.ulp(mean))
    return {
        "median": max(_MEDIAN_STOP, solve) + _CLOSED_CDF_GAP,
        "mean": _MEAN_TARGETS * solve * span + closed_error,
        "cdf": _target(width1, width2) + _CLOSED_CDF_GAP,
    }


def run(args) -> int:
    import numpy as np

    from .montecarlo import random_valid_bounds, sample_thetas
    from .posterior import _cdf, _Rectangle, numeric_estimate

    samples = _require_count("--samples", args.samples, 1, _MAX_SAMPLES)
    mc_n = _require_count("--mc-n", args.mc_n, 2, _MAX_MC_N)
    seed = _require_count("--seed", args.seed, 0)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tuples = [random_valid_bounds(rng) for _ in range(samples)]

    risks = (RiskProfile.ABS, RiskProfile.MSE)
    worst = {(model, risk): 0.0 for model in ModelKind for risk in risks}
    worst_cdf = dict.fromkeys(ModelKind, 0.0)
    stats = ("median", "mean", "cdf")
    worst_ratio = {(model, stat): 0.0 for model in ModelKind for stat in stats}
    worst_z = 0.0

    for index, bounds in enumerate(tuples):
        for model in ModelKind:
            closed = {
                risk: estimate(model, risk, bounds).theta1 for risk in RiskProfile
            }
            numeric = {
                risk: numeric_estimate(model, risk, bounds).theta1 for risk in risks
            }
            # The overpayment probability of each estimate, both ways.
            ts = list(closed.values())
            rect = _Rectangle(as_share_model(model), bounds)
            numeric_cdf = _cdf(rect, np.array(ts))
            cdf_gaps = [
                abs(closed_cdf(model, bounds, t) - float(prob))
                for t, prob in zip(ts, numeric_cdf)
            ]
            worst_cdf[model] = max(worst_cdf[model], *cdf_gaps)
            # Each statistic against its documented accuracy, judged by the
            # closed forms: the median by the closed CDF there.
            median, mean = numeric[RiskProfile.ABS], numeric[RiskProfile.MSE]
            gaps = {
                "median": abs(closed_cdf(model, bounds, median) - 0.5),
                "mean": abs(closed[RiskProfile.MSE] - mean),
                "cdf": max(cdf_gaps),
            }
            for stat, bound in _bounds(model, rect, closed[RiskProfile.MSE]).items():
                ratio = gaps[stat] / bound
                worst_ratio[model, stat] = max(worst_ratio[model, stat], ratio)
            draws = sample_thetas(model, bounds, mc_n, seed=seed + 1 + index)
            se = float(draws.std(ddof=1)) / (mc_n**0.5)
            if se > 0.0:
                z = abs(float(draws.mean()) - numeric[RiskProfile.MSE]) / se
                worst_z = max(worst_z, z)
            for risk, value in numeric.items():
                gap = abs(closed[risk] - value)
                worst[(model, risk)] = max(worst[(model, risk)], gap)

    lines = [
        "verification report",
        f"  tuples: {samples}  seed: {seed}  mc draws per tuple: {mc_n}",
        f"  exact closed forms vs quadrature (tolerance {_EXACT_TOL:.1e}):",
    ]
    failures = []
    exact = [(model, risk.value, gap) for (model, risk), gap in worst.items()]
    exact += [(model, "cdf", gap) for model, gap in worst_cdf.items()]
    for model, check, gap in exact:
        lines.append(
            f"    {model.value:<5} {check}: max |closed - numeric| = {gap:.3e}"
        )
        if gap > _EXACT_TOL:
            failures.append(
                f"{model.value} {check} exceeds {_EXACT_TOL:.1e} ({gap:.3e})"
            )
    lines.append(
        "  quadrature vs its documented accuracy (worst gap / bound, limit 1):"
    )
    for model in ModelKind:
        ratios = [(stat, worst_ratio[model, stat]) for stat in stats]
        lines.append(
            f"    {model.value:<5} " + "  ".join(f"{s} {r:.3e}" for s, r in ratios)
        )
        failures += [
            f"{model.value} {stat} gap is {ratio:.3e} times its documented bound"
            for stat, ratio in ratios
            if not ratio <= 1.0
        ]
    lines.append("  monte carlo mean vs quadrature mean:")
    lines.append(f"    worst |difference| / standard error = {worst_z:.2f}")
    if worst_z > _MC_Z_LIMIT:
        failures.append(
            f"monte carlo mean exceeds {_MC_Z_LIMIT:g} standard errors ({worst_z:.2f})"
        )
    lines.append("result: " + ("FAIL: " + "; ".join(failures) if failures else "PASS"))
    print("\n".join(lines))
    return EXIT_MISMATCH if failures else EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mc-n", dest="mc_n", type=int, default=20000)
    parser.set_defaults(handler=run)
