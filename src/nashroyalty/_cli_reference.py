"""The ``reference`` command: reproduce the built-in golden worked example
(a=0, b=0.2, c=0, d=0.8) and check all 18 cells."""

from __future__ import annotations

import argparse

from ._cli_common import EXIT_MISMATCH, EXIT_OK
from .bargaining import PayoffBounds
from .estimators import closed_cdf, estimate, paper_case1_median

# Golden worked example: published three-decimal estimates and overpayment
# probabilities for payoff bounds a=0, b=0.2, c=0, d=0.8.  The paper's case1
# abs estimate is its midpoint approximation (paper_case1_median).
_GOLDEN_BOUNDS = (0.0, 0.2, 0.0, 0.8)
_GOLDEN = {
    ("nbs", "map"): (0.200, 0.125),
    ("nbs", "abs"): (0.350, 0.500),
    ("nbs", "mse"): (0.350, 0.500),
    ("case1", "map"): (0.200, 0.308),
    ("case1", "abs"): (0.275, 0.495),
    ("case1", "mse"): (0.300, 0.547),
    ("case2", "map"): (0.200, 0.500),
    ("case2", "abs"): (0.200, 0.500),
    ("case2", "mse"): (0.255, 0.635),
}


def run(args) -> int:
    bounds = PayoffBounds(*_GOLDEN_BOUNDS)
    print(
        "golden worked example: a=0, b=0.2, c=0, d=0.8 "
        "(estimates and overpayment probabilities, 3 decimals)"
    )
    print("model  risk  estimate  expected  P{theta<=est}  expected  status")
    bad = 0
    for (model, risk), (theta_expected, prob_expected) in _GOLDEN.items():
        if (model, risk) == ("case1", "abs"):
            theta = paper_case1_median(bounds).theta1
        else:
            theta = estimate(model, risk, bounds).theta1
        prob = closed_cdf(model, bounds, theta)
        est_ok = abs(round(theta, 3) - theta_expected) <= 5.0e-4
        prob_ok = abs(round(prob, 3) - prob_expected) <= 5.0e-4
        bad += (not est_ok) + (not prob_ok)
        status = "PASS" if est_ok and prob_ok else "FAIL"
        print(
            f"{model:<6} {risk:<4}  {theta:>8.3f}  {theta_expected:>8.3f}  "
            f"{prob:>13.3f}  {prob_expected:>8.3f}  {status}"
        )
    total = 2 * len(_GOLDEN)
    if bad:
        print(f"result: FAIL ({bad} of {total} cells mismatched)")
        return EXIT_MISMATCH
    print(f"result: PASS (all {total} cells match)")
    return EXIT_OK


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(handler=run)
