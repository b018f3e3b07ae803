"""Exact bits and call counts of the numeric posterior engine.

The digests below were captured from the engine before its per-call
overhead was cut, and those of the point-mass boxes while the kernel still
had a 1-D formula of its own for each point-mass side; a change that should
leave every value alone must keep them.  The kernel-call counts guard the
engine's cost without timing it: a change that adds ``_cdf`` calls has to
update them on purpose, and ``work_counts.json`` holds each CLI command's
calls and points the same way.  The CDF values the engine keeps for
``cdf_at`` are held to the bits of a kernel call of their own.
"""

import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nashroyalty import FixedAlphaModel, cdf_at, cli, validate_bounds
from nashroyalty import posterior
from nashroyalty.bargaining import as_share_model
from nashroyalty.posterior import (
    ModeResult,
    mode_from_curve,
    numeric_estimate,
    numeric_mean,
    numeric_median,
    pdf_curve,
)

BOXES = {
    "golden": validate_bounds(0.0, 0.2, 0.0, 0.8),
    "inner": validate_bounds(0.1, 0.3, 0.2, 0.6),
    # A thin d1 side at the simplex edge: most of case1's integrals bisect.
    "thin": validate_bounds(0.0, 1e-3, 0.5, 0.999),
    # Point-mass sides: d1 known for certain, then d2.
    "point1": validate_bounds(0.25, 0.25, 0.1, 0.6),
    "point2": validate_bounds(0.1, 0.4, 0.3, 0.3),
}
# More boxes for the pins and the tests of kept values: with ±0 corners the
# pins also hold which zero each clip of the kernel returns.
KEPT_BOXES = {
    **BOXES,
    # case2 works on this box lifted into [1/4, 1/2) by a power of two.
    "small": validate_bounds(0.01, 0.05, 0.02, 0.1),
    "signed_zero": validate_bounds(-0.0, 0.2, -0.0, 0.8),
    # At t = 0 case2's crossing of y = c is -0.0 here while a is 0.0, so a
    # clip that kept the -0.0 through to the CDF would move the curve's bits.
    "mixed_zero": validate_bounds(0.0, 0.2, -0.0, 0.8),
}
MODELS = {
    "nbs": "nbs",
    "case1": "case1",
    "case2": "case2",
    "alpha0.3": FixedAlphaModel(0.3),
}

# (box, model): (SHA-256 of the 2001-point curve's cdf and pdf bytes,
#                SHA-256 of repr((median, mean, mode))), values in comments.
PINS = {
    ("golden", "nbs"): (
        "423b19597c3d9bd7712714186ea4a20ffb830a8e7436022d5245a5c6edb221d3",
        "1615802d61626f7e05d7bc3d270c9c9283de3933d7d7f8f4f7e2cc8fe6d7de8e",
    ),  # (0.35, 0.35, 0.19999999999999996)
    ("golden", "case1"): (
        "5c6b92c2c85441b6d2e8bc4d4578d01abf3cb29f9a657b37acfb7c76db6ca13a",
        "66455d7baba7624bb47b0389392dbf2c215a62a1ac44c35c4a74d9ecd866845d",
    ),  # (0.27712503477624306, 0.30000000000000004, 0.19999999999999996)
    ("golden", "case2"): (
        "91452eb550f741115bb64248405e41fb4753a4695cf17246a1d93ba6a02fb1da",
        "456335b2cdd107d164772182611401329a278bbbc18ac809c7528639908d413d",
    ),  # (0.2, 0.25489263642584326, 0.2)
    ("golden", "alpha0.3"): (
        "b9f868c4f4daf573707984999b62458767e2e6b35142c0fe46663502f09bc9ab",
        "85f38c86bbfb8f5a1394e18edef02a5acbea15c457a697158f9eca5d71229d52",
    ),  # (0.25, 0.25, 0.2)
    ("inner", "nbs"): (
        "2c7d2ec516bcae100c3858b36bb5147cebe346ac03a52f1a105d0028f4fec496",
        "be1817585777157aa4bc6c025c9255880ddbbfa6d52f1dc09e5aa2439af27c9b",
    ),  # (0.4, 0.4, 0.35)
    ("inner", "case1"): (
        "93d1242769618d1f39157b55ae5de01e1cac3a7d1b796d6c60629bbae5a577ca",
        "b595761bb1bc9ab8da56146403b1f4be51f72b0544c9abb1d96965903bbce718",
    ),  # (0.36131597772454216, 0.365, 0.335)
    ("inner", "case2"): (
        "503defc8124209c1d34c6901a6a52e8190a12982327f6c8ab946a626917c894b",
        "964c6aae1e4fd8ce1cc99c253e60410c61e2831fa400447e494cd58507d4a388",
    ),  # (0.3333333333333385, 0.33992282504270077, 0.33333333333333337)
    ("inner", "alpha0.3"): (
        "c24b3591bbfd5dae8e9507ea7a5b7ad2657c52de0942a4a2e30f439a16992912",
        "ff0a364d4e2bec1767b8584b38a9f2245bdc28de28e5824621f8c9ddd0c8cd8b",
    ),  # (0.31999999999999995, 0.32, 0.32999999999999996)
    ("thin", "nbs"): (
        "099ed37d3777771026c7549191e40c8eacf59aafbe71ae07bfa4855392d44ec1",
        "954f72c6201f5902c8d3b2962486d5a9dd669eb75eb64af27b145c3db85e0985",
    ),  # (0.1255, 0.12550000000000003, 0.0010000000000000009)
    ("thin", "case1"): (
        "1dc5cf91af119bca5697688c5c92b4a2ffc526ea4f8be7d296d88c004209f40d",
        "eafc5e3f3e28fde8bd71176b8c5d20f7326c5952bd5557174101c86cfe1d4a61",
    ),  # (0.0318756216904498, 0.0422499999999635, 0.0010000000000000009)
    ("thin", "case2"): (
        "c9484d5c35841522940c2ada9054df4026f21dfcc85a605fe08ac159d5a5699a",
        "a45bed83318259aecf9e13b586a73e4e4d89e6f5f7574d08840e15cbee7d2aee",
    ),  # (0.0006666666666659963, 0.0006928671637888377, 0.001)
    ("thin", "alpha0.3"): (
        "fafa6ddfe4278e8b44d34dd49b1ec70a0f91bd8b3a10b17766e96944958e1c60",
        "6d1eb0d21dd7bbb4fc3922992945229de004d693dfd1ffd0028defd2bcf48c60",
    ),  # (0.0755, 0.0755, 0.001)
    ("point1", "nbs"): (
        "9359944a42bb0d6d533759c0a6e9f0842e2e4ec7e6fe8b24597d0b3121d02072",
        "4ffb79e44f0455f351851aecb980063db5063387dd290c6bd0e1b339bb3c27c7",
    ),  # (0.44999999999999996, 0.45000000000000007, 0.325)
    ("point1", "case1"): (
        "4b630a42e73aeafc8af18603687e8ea0ea5ff7ca5b96d66a967038d2dfcbd1cc",
        "c5546026360d7ae1d20adaf502cd07b2b026c0a1998fa28be0dbcd49cb7b14da",
    ),  # (0.43000000000000377, 0.4404166666666667, 0.29875)
    ("point1", "case2"): (
        "e82ec5d2d886b934725b0a6711d4b141a376eb8c71c62962f52be18d1052d6c2",
        "638602b31491813f325dbaca9ec9917e84fd4a96f22534b2a8c4ceddd823f57a",
    ),  # (0.41666666673191877, 0.44365159750045147, 0.29411764705882354)
    ("point1", "alpha0.3"): (
        "71c1ecb33b3a754f0473f22e1a3b2fd835b43fde725958acfd6fec775bf1a9e8",
        "9bc250e4939fac0d8e02bc809862f9aa98aae4d81b79f3a68b176ced77458fc3",
    ),  # (0.37, 0.37, 0.295)
    ("point2", "nbs"): (
        "8bf054b179ab6c87e5fe10f7442c66196ef79e03b11e13345630c84125cd47f9",
        "5ab20749c455007f8f30b2f0da6494374e41b414894beeaee02b4923f2e105ed",
    ),  # (0.47500000000000003, 0.475, 0.55)
    ("point2", "case1"): (
        "7ff94d81a18b01cd7c0f78a0ca0149e00d843af85a02b49498a310c258faa1ee",
        "b68914ead1170068b973b1dc56e340b1f40fb98f5532d7a22e0855ca6b9946b1",
    ),  # (0.4637499998253422, 0.46, 0.5650000000000001)
    ("point2", "case2"): (
        "40d4e1be8ff79e9d63039c8da60106f3ba70dedb329e517bc680fd980854e445",
        "b43f27492a00b2340aa632ad2c7a3e3795811f017340bb388b77e998c7d37373",
    ),  # (0.45454545454485634, 0.44038421206457734, 0.5714285714285715)
    ("point2", "alpha0.3"): (
        "6f9cb7221705de6a4bb0bc760f670fa5c211eaaa96401c5318f16712cc4358d8",
        "5ec17367681cf91633ee77b8d38bbf7196bca1d8b23e88b2f235d1cc46024cac",
    ),  # (0.385, 0.385, 0.49)
    # The golden box with -0.0 for c, and for a, captured before any clip of
    # the kernel was merged into one ufunc call: the golden box's bits.
    ("mixed_zero", "nbs"): (
        "423b19597c3d9bd7712714186ea4a20ffb830a8e7436022d5245a5c6edb221d3",
        "1615802d61626f7e05d7bc3d270c9c9283de3933d7d7f8f4f7e2cc8fe6d7de8e",
    ),  # (0.35, 0.35, 0.19999999999999996)
    ("mixed_zero", "case1"): (
        "5c6b92c2c85441b6d2e8bc4d4578d01abf3cb29f9a657b37acfb7c76db6ca13a",
        "66455d7baba7624bb47b0389392dbf2c215a62a1ac44c35c4a74d9ecd866845d",
    ),  # (0.27712503477624306, 0.30000000000000004, 0.19999999999999996)
    ("mixed_zero", "case2"): (
        "91452eb550f741115bb64248405e41fb4753a4695cf17246a1d93ba6a02fb1da",
        "456335b2cdd107d164772182611401329a278bbbc18ac809c7528639908d413d",
    ),  # (0.2, 0.25489263642584326, 0.2)
    ("mixed_zero", "alpha0.3"): (
        "b9f868c4f4daf573707984999b62458767e2e6b35142c0fe46663502f09bc9ab",
        "85f38c86bbfb8f5a1394e18edef02a5acbea15c457a697158f9eca5d71229d52",
    ),  # (0.25, 0.25, 0.2)
    ("signed_zero", "nbs"): (
        "423b19597c3d9bd7712714186ea4a20ffb830a8e7436022d5245a5c6edb221d3",
        "1615802d61626f7e05d7bc3d270c9c9283de3933d7d7f8f4f7e2cc8fe6d7de8e",
    ),  # (0.35, 0.35, 0.19999999999999996)
    ("signed_zero", "case1"): (
        "5c6b92c2c85441b6d2e8bc4d4578d01abf3cb29f9a657b37acfb7c76db6ca13a",
        "66455d7baba7624bb47b0389392dbf2c215a62a1ac44c35c4a74d9ecd866845d",
    ),  # (0.27712503477624306, 0.30000000000000004, 0.19999999999999996)
    ("signed_zero", "case2"): (
        "91452eb550f741115bb64248405e41fb4753a4695cf17246a1d93ba6a02fb1da",
        "456335b2cdd107d164772182611401329a278bbbc18ac809c7528639908d413d",
    ),  # (0.2, 0.25489263642584326, 0.2)
    ("signed_zero", "alpha0.3"): (
        "b9f868c4f4daf573707984999b62458767e2e6b35142c0fe46663502f09bc9ab",
        "85f38c86bbfb8f5a1394e18edef02a5acbea15c457a697158f9eca5d71229d52",
    ),  # (0.25, 0.25, 0.2)
}


@pytest.mark.parametrize("box, model", sorted(PINS))
def test_curve_and_estimates_keep_their_bits(box, model):
    bounds, share = KEPT_BOXES[box], MODELS[model]
    curve = pdf_curve(share, bounds, 2001)
    values = repr(
        (
            numeric_median(share, bounds),
            numeric_mean(share, bounds),
            mode_from_curve(curve).value,
        )
    )
    curve_digest = hashlib.sha256(curve.cdf.tobytes() + curve.pdf.tobytes()).hexdigest()
    values_digest = hashlib.sha256(values.encode()).hexdigest()
    assert (curve_digest, values_digest) == PINS[box, model], values


# Kernel calls per estimate; columns nbs, case1, case2, alpha0.3.
CALLS = {
    ("golden", numeric_median): (1, 4, 2, 1),
    ("golden", numeric_mean): (1, 2, 2, 1),
    ("inner", numeric_median): (1, 4, 4, 1),
    ("inner", numeric_mean): (1, 1, 1, 1),
    ("thin", numeric_median): (1, 4, 3, 1),
    ("thin", numeric_mean): (1, 9, 1, 1),
    ("point1", numeric_median): (1, 4, 4, 1),
    ("point1", numeric_mean): (1, 1, 1, 1),
    ("point2", numeric_median): (1, 3, 4, 1),
    ("point2", numeric_mean): (1, 1, 1, 1),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = posterior._cdf

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(posterior, "_cdf", counted)
    return calls


@pytest.mark.parametrize(
    "box, estimator", sorted(CALLS, key=lambda key: (key[0], key[1].__name__))
)
def test_estimates_make_a_fixed_number_of_kernel_calls(kernel_calls, box, estimator):
    counts = []
    for share in MODELS.values():
        kernel_calls.clear()
        estimator(share, BOXES[box])
        counts.append(len(kernel_calls))
    assert tuple(counts) == CALLS[box, estimator]


# Kernel calls of the posterior command's whole computation: the curve, its
# mode, the median, the mean and cdf_at at each of the three; columns nbs,
# case1, case2, alpha0.3.  The curve's call also locates the median's and
# the mean's first rounds, two calls that the solvers made of their own.
OP_CALLS = {
    "golden": (1, 6, 4, 1),
    "inner": (1, 5, 5, 2),
    "point1": (2, 5, 5, 1),
    "point2": (2, 4, 5, 1),
    "thin": (2, 13, 4, 1),
}


def _posterior_op(share, bounds) -> tuple:
    curve = pdf_curve(share, bounds)
    values = (
        mode_from_curve(curve).value,
        numeric_median(share, bounds),
        numeric_mean(share, bounds),
    )
    return curve, values, tuple(cdf_at(share, bounds, v) for v in values)


@pytest.mark.parametrize("box", sorted(OP_CALLS))
def test_the_posterior_computation_makes_a_fixed_number_of_kernel_calls(
    kernel_calls, box
):
    counts = []
    for share in MODELS.values():
        posterior._located = posterior._NOTHING
        kernel_calls.clear()
        _posterior_op(share, BOXES[box])
        counts.append(len(kernel_calls))
    assert tuple(counts) == OP_CALLS[box]


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_after_the_curve_each_solver_makes_one_call_fewer(kernel_calls, box, model):
    # Their first rounds read what the curve's call kept, in the bits of
    # the cold solves that CALLS counts.
    share, bounds = MODELS[model], BOXES[box]
    column = list(MODELS).index(model)
    cold = []
    for estimator in (numeric_median, numeric_mean):
        posterior._located = posterior._NOTHING
        cold.append(estimator(share, bounds))
    pdf_curve(share, bounds)
    for estimator, value in zip((numeric_median, numeric_mean), cold):
        kernel_calls.clear()
        assert estimator(share, bounds).hex() == value.hex()
        assert len(kernel_calls) == CALLS[box, estimator][column] - 1


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_curve_and_mode_make_one_kernel_call_each(kernel_calls, box, model):
    # The curve's call also locates the mode's corner probe.
    curve = pdf_curve(MODELS[model], BOXES[box])
    assert len(kernel_calls) == 1
    mode_from_curve(curve)
    assert len(kernel_calls) == 1


# Kernel calls and points of whole CLI commands: verify at its defaults, the
# posterior command on the golden box, numeric sweeps on its a, b and
# reference.  "{out}" stands for the output file.
WORK_COUNTS = json.loads(Path(__file__).with_name("work_counts.json").read_text())


@pytest.mark.parametrize("command", sorted(WORK_COUNTS))
def test_each_command_does_a_fixed_amount_of_kernel_work(kernel_calls, tmp_path, command):
    entry = WORK_COUNTS[command]
    out = str(tmp_path / "out.csv")
    assert cli.main([out if arg == "{out}" else arg for arg in entry["argv"]]) == 0
    work = (len(kernel_calls), sum(args[1].size for args in kernel_calls))
    assert work == (entry["kernel_calls"], entry["kernel_points"])


# --- the CDF values kept for cdf_at ---------------------------------------------



def _fresh(model, bounds, t) -> str:
    """F(t) from a kernel call of its own with nothing kept, as hex."""
    posterior._located = posterior._NOTHING
    rect = posterior._Rectangle(as_share_model(model), bounds)
    value = posterior._cdf(rect, np.array([float(t)]))[0]
    return float(value).hex()


def _probe(model, bounds, curve) -> list:
    """The points in [0, 1] of the mode's corner probe in pdf_curve."""
    corner = as_share_model(model).at(bounds.b, bounds.d)
    step = curve.thetas[1] - curve.thetas[0]
    return [t for t in (corner - step, corner, corner + step) if 0.0 <= t <= 1.0]


@pytest.mark.parametrize("box", sorted(KEPT_BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_kept_values_are_the_kernels_own(kernel_calls, box, model):
    # The probe, which holds the corner mode, and the median.
    share, bounds = MODELS[model], KEPT_BOXES[box]
    curve = pdf_curve(share, bounds)
    mode = mode_from_curve(curve).value
    median = numeric_median(share, bounds)
    points = [*_probe(share, bounds, curve), mode, median]
    assert mode in points[:3]
    kernel_calls.clear()
    kept = [cdf_at(share, bounds, t).hex() for t in points]
    assert kernel_calls == []
    assert kept == [_fresh(share, bounds, t) for t in points]


@pytest.mark.parametrize("box", sorted(KEPT_BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_kept_value_is_the_kernels_own(box, model):
    # All that a posterior computation keeps: the probe, both solvers'
    # first rounds and the median.
    share, bounds = MODELS[model], KEPT_BOXES[box]
    _posterior_op(share, bounds)
    _, _, keys, values = posterior._located
    points, kept = np.frombuffer(keys), np.frombuffer(values)
    assert points.size == kept.size
    assert [float(p).hex() for p in kept] == [_fresh(share, bounds, t) for t in points]


@pytest.mark.parametrize("box", sorted(KEPT_BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_value_a_solve_reads_is_the_kernels_own(monkeypatch, box, model):
    # Cold solves read every value from the kernel on the rectangle they
    # prepared once: each median round's ladder, asked without the support
    # mask, and each round of the mean's nodes.  Each value must have the
    # bits of a one-point call of its own.
    share, bounds = MODELS[model], KEPT_BOXES[box]
    kernel, read = posterior._cdf, {}

    def recorded(rect, ts, **kwargs):
        values = kernel(rect, ts, **kwargs)
        read.update(zip(ts.tolist(), values.tolist()))
        return values

    monkeypatch.setattr(posterior, "_cdf", recorded)
    numeric_median(share, bounds)
    numeric_mean(share, bounds)
    monkeypatch.setattr(posterior, "_cdf", kernel)
    points = sorted(read)
    assert [read[t].hex() for t in points] == [_fresh(share, bounds, t) for t in points]


def test_the_first_of_two_equally_close_points_is_the_median(monkeypatch):
    # A kernel whose first ladder has two neighbours 2**-40 from 1/2, one
    # below and one above: the first point as close is the answer.
    def tied(rect, ts, inside=False):
        middle = ts.size // 2
        values = np.where(ts < ts[middle], 0.25, 0.75)
        values[middle - 1 : middle + 1] = 0.5 - 2.0**-40, 0.5 + 2.0**-40
        return values

    bounds = BOXES["golden"]
    ladder = posterior._median_ladder(*as_share_model("nbs").support(bounds), 0.0, 1.0)
    monkeypatch.setattr(posterior, "_cdf", tied)
    assert numeric_median("nbs", bounds) == ladder[len(ladder) // 2 - 1]


def test_a_grid_point_mode_is_asked_of_the_kernel(kernel_calls):
    # On this coarse grid the steepest difference is at t = 0, away from
    # the corner image 0.001.
    bounds = BOXES["thin"]
    assert mode_from_curve(pdf_curve("case1", bounds, 101)).value == 0.0
    kernel_calls.clear()
    value = cdf_at("case1", bounds, 0.0).hex()
    assert len(kernel_calls) == 1
    assert value == _fresh("case1", bounds, 0.0)


def test_a_built_curve_keeps_nothing_of_its_own(kernel_calls):
    # A curve is a record any caller can build: its mode is the one it
    # states, and its cdf, here not the CDF, is never a kept value.
    model, bounds = FixedAlphaModel(0.5), BOXES["golden"]
    mode = ModeResult(value=0.5, plateau=False)
    curve = posterior.PosteriorCurve(
        thetas=np.array([0.0, 0.5, 1.0]),
        pdf=np.array([0.0, 2.0, 0.0]),
        cdf=np.array([0.0, 0.5, 1.0]),
        mode=mode,
    )
    assert mode_from_curve(curve) is mode
    assert kernel_calls == []
    assert cdf_at(model, bounds, 0.5) == pytest.approx(0.875, abs=1e-12)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("box", sorted(KEPT_BOXES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_the_map_estimate_is_the_curves_mode(box, model):
    share, bounds = MODELS[model], KEPT_BOXES[box]
    value = numeric_estimate(share, "map", bounds).theta1
    assert value.hex() == pdf_curve(share, bounds).mode.value.hex()


def test_another_model_rectangle_or_point_misses(kernel_calls):
    bounds = BOXES["golden"]
    alpha = FixedAlphaModel(0.3)
    mode = mode_from_curve(pdf_curve(alpha, bounds)).value
    assert mode == 0.2
    kernel_calls.clear()
    # An equal model hits, even as an instance of its own.
    assert cdf_at(FixedAlphaModel(0.3), bounds, mode) == cdf_at(alpha, bounds, mode)
    assert kernel_calls == []
    misses = [
        (FixedAlphaModel(0.31), bounds, mode),
        ("nbs", bounds, mode),
        (alpha, BOXES["inner"], mode),
        (alpha, KEPT_BOXES["signed_zero"], mode),  # equal, but not in its bits
        (alpha, bounds, math.nextafter(mode, 1.0)),
    ]
    for model, box, t in misses:
        cdf_at(model, box, t)
    assert len(kernel_calls) == len(misses)
    kernel_calls.clear()
    cdf_at(alpha, bounds, mode)  # no miss replaced the record
    assert kernel_calls == []


def test_negative_zero_misses_where_zero_is_kept(kernel_calls):
    ops, bounds = as_share_model("case1"), BOXES["thin"]
    zero = posterior._cdf(posterior._Rectangle(ops, bounds), np.zeros(1)).tolist()
    posterior._remember(ops, bounds, [0.0], zero)
    kernel_calls.clear()
    cdf_at(ops, bounds, 0.0)
    assert kernel_calls == []
    cdf_at(ops, bounds, -0.0)
    assert len(kernel_calls) == 1


def test_a_mode_makes_no_kernel_call_whatever_was_asked_before(kernel_calls):
    # The curve carries its mode, so another rectangle's curve since, which
    # replaces the kept values, leaves it alone.
    bounds = BOXES["inner"]
    curve = pdf_curve("case2", bounds)
    kept = repr(mode_from_curve(curve))
    pdf_curve("case2", BOXES["golden"])  # keeps the golden box's values instead
    kernel_calls.clear()
    assert repr(mode_from_curve(curve)) == kept
    assert kernel_calls == []


def test_at_most_131_values_are_kept():
    # The three probe points, at most 19 of the median's first ladder, 36
    # nodes on each of at most three t-panels of the mean, and the median.
    bounds = BOXES["golden"]
    for n_points in (2001, 1001, 101):
        mode_from_curve(pdf_curve("case1", bounds, n_points))
        numeric_median("case1", bounds)
        assert np.frombuffer(posterior._located[3]).size <= posterior._KEPT == 131


def test_the_record_is_replaced_whole_and_never_written():
    # What lets threads share it: a reader that took the record once holds
    # one model, rectangle and set of values that belong together.
    bounds = BOXES["golden"]
    pdf_curve("case1", bounds)
    before = posterior._located
    keys, values = before[2], before[3]
    assert (type(keys), type(values)) == (bytes, bytes)  # immutable
    numeric_median("case1", bounds)
    pdf_curve("nbs", bounds)
    assert posterior._located is not before
    assert before[2:] == (keys, values)


def test_threads_sharing_the_record_read_only_their_own_values():
    # On the golden box nbs and case1 share the corner image t = 0.2 (to
    # roundoff) but not its CDF value.  Threads build each model's curve,
    # take its mode and ask cdf_at there, switching every few bytecodes, so
    # that each keeps values over the other's: one kept for the wrong
    # model would read as a wrong answer.
    bounds = BOXES["golden"]
    curves = {model: pdf_curve(model, bounds, 101) for model in ("nbs", "case1")}
    modes = {model: mode_from_curve(curve).value for model, curve in curves.items()}
    assert modes["nbs"] == modes["case1"]
    expected = {model: _fresh(model, bounds, mode) for model, mode in modes.items()}
    models = [*curves] * 4
    answers = [[] for _ in models]

    def work(i):
        model = models[i]
        for _ in range(100):
            mode = mode_from_curve(pdf_curve(model, bounds, 101)).value
            answers[i].append(cdf_at(model, bounds, mode).hex())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [[expected[model]] * 100 for model in models]
