"""The ``verify`` command: cross-check closed forms against quadrature and
Monte Carlo on random inputs."""

from __future__ import annotations

import argparse

from ._cli_common import EXIT_MISMATCH, EXIT_OK
from .bargaining import ModelKind, _require_count, as_share_model
from .estimators import RiskProfile, closed_cdf, estimate

_EXACT_TOL = 1e-5
# Limit on the worst |MC mean - quadrature mean| / standard error over every
# (box, model) of a verify run: about 3.4e-4 false alarms per default run.
_MC_Z_LIMIT = 5.0

# Size caps that keep every run bounded in time and memory.
_MAX_MC_N = 10_000_000
_MAX_SAMPLES = 100_000


def run(args) -> int:
    import numpy as np

    from .montecarlo import random_valid_bounds, sample_thetas
    from .posterior import _cdf, numeric_estimate

    samples = _require_count("--samples", args.samples, 1, _MAX_SAMPLES)
    mc_n = _require_count("--mc-n", args.mc_n, 2, _MAX_MC_N)
    seed = _require_count("--seed", args.seed, 0)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    tuples = [random_valid_bounds(rng) for _ in range(samples)]

    risks = (RiskProfile.ABS, RiskProfile.MSE)
    worst = {(model, risk): 0.0 for model in ModelKind for risk in risks}
    worst_cdf = dict.fromkeys(ModelKind, 0.0)
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
            numeric_cdf = _cdf(as_share_model(model), bounds, np.array(ts))
            for t, prob in zip(ts, numeric_cdf):
                gap = abs(closed_cdf(model, bounds, t) - float(prob))
                worst_cdf[model] = max(worst_cdf[model], gap)
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
