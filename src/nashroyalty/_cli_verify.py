"""The ``verify`` command: cross-check closed forms against quadrature and
Monte Carlo on random inputs."""

from __future__ import annotations

import argparse
import math
from itertools import product

from ._cli_common import EXIT_MISMATCH, EXIT_OK
from .bargaining import ModelKind, _require_count
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
    from .posterior import _cdf, _mean, _median, _Rectangle

    samples = _require_count("--samples", args.samples, 1, _MAX_SAMPLES)
    mc_n = _require_count("--mc-n", args.mc_n, 2, _MAX_MC_N)
    seed = _require_count("--seed", args.seed, 0)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tuples = [random_valid_bounds(rng) for _ in range(samples)]

    # The worst value of every check, keyed in report order: the gaps found
    # from the closed forms, then each model's gaps judged by their bounds.
    worst = {
        "found": dict.fromkeys(
            [*product(ModelKind, ("abs", "mse")), *product(ModelKind, ["cdf"])], 0.0
        ),
        "judged": dict.fromkeys(product(ModelKind, ("median", "mean", "cdf")), 0.0),
    }
    worst_z = 0.0

    for index, bounds in enumerate(tuples):
        for model in ModelKind:
            # The closed MAP, ABS (median) and MSE (mean) estimates.
            ts = [estimate(model, risk, bounds).theta1 for risk in RiskProfile]
            rect = _Rectangle(model, bounds)
            median, mean = _median(rect), _mean(rect)
            # The overpayment probability of each closed estimate, both ways.
            cdf = max(
                abs(closed_cdf(model, bounds, t) - p)
                for t, p in zip(ts, _cdf(rect, np.array(ts)).tolist())
            )
            found = {"abs": abs(ts[1] - median), "mse": abs(ts[2] - mean), "cdf": cdf}
            # The median, mean and cdf gaps over their documented bounds,
            # judged by the closed forms: the median by the closed CDF there.
            gaps = abs(closed_cdf(model, bounds, median) - 0.5), found["mse"], cdf
            bound = _bounds(model, rect, ts[2])
            judged = {stat: gap / bound[stat] for stat, gap in zip(bound, gaps)}
            for section, new in (("found", found), ("judged", judged)):
                table = worst[section]
                table |= {(model, c): max(table[model, c], v) for c, v in new.items()}
            draws = sample_thetas(model, bounds, mc_n, seed=seed + 1 + index)
            se = float(draws.std(ddof=1)) / (mc_n**0.5)
            if se > 0.0:
                worst_z = max(worst_z, abs(float(draws.mean()) - mean) / se)

    lines = [
        "verification report",
        f"  tuples: {samples}  seed: {seed}  mc draws per tuple: {mc_n}",
        f"  exact closed forms vs quadrature (tolerance {_EXACT_TOL:.1e}):",
    ]
    failures = []
    for (m, c), g in worst["found"].items():
        lines.append(f"    {m.value:<5} {c}: max |closed - numeric| = {g:.3e}")
        if g > _EXACT_TOL:
            failures.append(f"{m.value} {c} exceeds {_EXACT_TOL:.1e} ({g:.3e})")
    lines.append(
        "  quadrature vs its documented accuracy (worst gap / bound, limit 1):"
    )
    ratios = worst["judged"].items()
    for model in ModelKind:
        row = "  ".join(f"{s} {r:.3e}" for (m, s), r in ratios if m is model)
        lines.append(f"    {model.value:<5} {row}")
    for (m, s), r in ratios:
        if not r <= 1.0:
            failures.append(f"{m.value} {s} gap is {r:.3e} times its documented bound")
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
