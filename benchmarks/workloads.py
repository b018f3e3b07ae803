"""The four benchmark workloads: seeded inputs, one op, and its output check.

Every workload is a closed loop with one client.  A workload hands out its
ops in cycles; a cycle is a fixed, seeded list of ops whose mix matches the
workload's purpose.  ``run(op)`` performs one op and returns its output,
``check(op, output)`` raises :class:`CheckFailed` when the output is wrong.
Checks use the tolerances the repository already uses in ``cli.py`` and the
acceptance tests; none is looser.

Library calls go through module attributes (``posterior.pdf_curve(...)``)
so that the traced run, which swaps those attributes for recording
wrappers, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nashroyalty import cli, estimators, montecarlo, posterior, sweep  # noqa: E402
from nashroyalty.bargaining import (  # noqa: E402
    ModelKind,
    PerceptionMatrix,
    alpha_from_perceptions,
    validate_bounds,
)
from nashroyalty.estimators import RiskProfile  # noqa: E402

# Tolerances, as in cli._cmd_verify, the acceptance tests and the posterior
# tests.
EXACT_TOL = 1e-5
CASE1_ABS_REL_TOL = 0.04
MEDIAN_CDF_TOL = 1e-9
MONOTONE_SLACK = 1e-10
MC_Z_LIMIT = 4.0

GOLDEN = validate_bounds(0.0, 0.2, 0.0, 0.8)

# Closed forms that are exact, paired with the numeric statistic they equal.
EXACT_PAIRS = (
    (ModelKind.NBS, RiskProfile.ABS),
    (ModelKind.NBS, RiskProfile.MSE),
    (ModelKind.CASE1, RiskProfile.MSE),
    (ModelKind.CASE2, RiskProfile.ABS),
    (ModelKind.CASE2, RiskProfile.MSE),
)


class CheckFailed(Exception):
    """An op returned an output that fails its correctness check."""


def child_env() -> dict:
    """Environment for a child interpreter that imports ``nashroyalty`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _check_exact_pairs(bounds, closed: dict, medians: dict, means: dict) -> None:
    """Exact closed forms against the numeric median/mean of each model given."""
    for model, risk in EXACT_PAIRS:
        if model not in medians:
            continue
        numeric = medians[model] if risk is RiskProfile.ABS else means[model]
        gap = abs(closed[(model, risk)] - numeric)
        if not gap <= EXACT_TOL:
            raise CheckFailed(
                f"{model.value} {risk.value}: |closed - numeric| = {gap:.3e} "
                f"> {EXACT_TOL:.0e} on {bounds}"
            )


class Workload:
    """Base class: ``cycle()`` returns the next seeded list of ops."""

    # The reference probe whose resource profile is closest to the ops'
    # (a key of ``run.REFERENCE_PROBES``).
    reference = "interpreter"

    def cycle(self) -> list:
        raise NotImplementedError

    def warmup_op(self, cycle: list):
        """The untimed op run once before timing starts."""
        return cycle[0]

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output) -> None:
        raise NotImplementedError


# --- posterior ---------------------------------------------------------------

# Slice of the default case1 sweep grid (a=0, b=0.2) where the scalar
# quadrature leaks IntegrationWarnings at d = 0.76.
_SWEEP_SLICE = tuple(
    validate_bounds(0.0, 0.2, c, d)
    for c in (0.0, 0.1, 0.2, 0.3)
    for d in (0.74, 0.75, 0.76, 0.77, 0.78)
)
# Random boxes per cycle, each run under all three models.  With the fixed
# golden and sweep-slice ops this makes random boxes about half of a cycle,
# and every cycle draws new ones, so the latency mix differs little from
# seed to seed.
_POSTERIOR_RANDOM_BOXES = 9


@dataclass(frozen=True)
class PosteriorOutput:
    cdf: np.ndarray
    mode: float
    median: float
    mean: float
    probs: tuple[float, float, float]


class PosteriorWorkload(Workload):
    """What ``nashroyalty posterior`` computes for one (box, model)."""

    grid_points = 2001  # the posterior command's default

    def __init__(self, seed: int, workdir: Path):
        self._rng = _rng(seed)

    def cycle(self) -> list:
        ops = [(GOLDEN, model) for model in ModelKind]
        ops += [(bounds, ModelKind.CASE1) for bounds in _SWEEP_SLICE]
        for _ in range(_POSTERIOR_RANDOM_BOXES):
            bounds = montecarlo.random_valid_bounds(self._rng)
            ops += [(bounds, model) for model in ModelKind]
        order = self._rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warmup_op(self, cycle: list):
        # A fixed op, so that set-up time does not depend on the seed.
        return (GOLDEN, ModelKind.NBS)

    def run(self, op) -> PosteriorOutput:
        bounds, model = op
        curve = posterior.pdf_curve(model, bounds, self.grid_points)
        mode = posterior.mode_from_curve(curve).value
        median = posterior.numeric_median(model, bounds)
        mean = posterior.numeric_mean(model, bounds)
        probs = tuple(posterior.cdf_at(model, bounds, v) for v in (mode, median, mean))
        return PosteriorOutput(curve.cdf, mode, median, mean, probs)

    def check(self, op, output: PosteriorOutput) -> None:
        bounds, model = op
        cdf = output.cdf
        if not (cdf.min() >= 0.0 and cdf.max() <= 1.0):
            raise CheckFailed(f"CDF leaves [0, 1] for {model.value} on {bounds}")
        if not np.all(np.diff(cdf) >= -MONOTONE_SLACK):
            raise CheckFailed(f"CDF decreases for {model.value} on {bounds}")
        gap = abs(output.probs[1] - 0.5)
        if not gap <= MEDIAN_CDF_TOL:
            raise CheckFailed(
                f"CDF at the median is {output.probs[1]!r} for {model.value} on {bounds}"
            )
        closed = {
            (model, risk): estimators.estimate(model, risk, bounds).theta1
            for risk in (RiskProfile.ABS, RiskProfile.MSE)
        }
        _check_exact_pairs(bounds, closed, {model: output.median}, {model: output.mean})


# --- verify ------------------------------------------------------------------

_VERIFY_MC_N = 20000  # the verify command's default --mc-n
_VERIFY_BOXES_PER_CYCLE = 16


@dataclass(frozen=True)
class VerifyOutput:
    medians: dict
    means: dict
    z: dict
    closed: dict


class VerifyWorkload(Workload):
    """What ``nashroyalty verify`` does for one seeded box, at its defaults.

    Boxes and sample seeds follow the command: boxes come from
    ``random_valid_bounds`` on a PCG64 stream seeded with the workload seed,
    and box ``index`` samples with seed ``seed + 1 + index``.
    """

    def __init__(self, seed: int, workdir: Path):
        self._seed = seed
        self._rng = _rng(seed)
        self._index = 0

    def cycle(self) -> list:
        ops = []
        for _ in range(_VERIFY_BOXES_PER_CYCLE):
            ops.append((self._index, montecarlo.random_valid_bounds(self._rng)))
            self._index += 1
        return ops

    def run(self, op) -> VerifyOutput:
        index, bounds = op
        medians, means, z = {}, {}, {}
        for model in ModelKind:
            medians[model] = posterior.numeric_median(model, bounds)
            means[model] = posterior.numeric_mean(model, bounds)
            draws = montecarlo.sample_thetas(
                model, bounds, _VERIFY_MC_N, seed=self._seed + 1 + index
            )
            se = float(draws.std(ddof=1)) / (_VERIFY_MC_N**0.5)
            if se > 0.0:
                z[model] = abs(float(draws.mean()) - means[model]) / se
        closed = {
            (model, risk): estimators.estimate(model, risk, bounds).theta1
            for model in ModelKind
            for risk in RiskProfile
        }
        return VerifyOutput(medians, means, z, closed)

    def check(self, op, output: VerifyOutput) -> None:
        _, bounds = op
        _check_exact_pairs(bounds, output.closed, output.medians, output.means)
        median = output.medians[ModelKind.CASE1]
        rel = abs(output.closed[(ModelKind.CASE1, RiskProfile.ABS)] - median) / median
        if not rel <= CASE1_ABS_REL_TOL:
            raise CheckFailed(f"case1 abs relative gap {rel:.3e} on {bounds}")
        # The verify command reports the worst z-score without a limit, so
        # here it only has to be a number.  The mc workload holds sampling
        # to the 4-SE limit of acceptance criterion 5.
        for model, value in output.z.items():
            if not math.isfinite(value):
                raise CheckFailed(f"{model.value}: MC z-score {value!r} on {bounds}")


# --- mc ------------------------------------------------------------------------

_MC_N = 1_000_000  # acceptance criterion 5's sample size
# Enough boxes that the op mix, and with it the latency, differs little
# from seed to seed, and few enough that few distinct 4-SE tests run per
# seed: each is a statistical test that a correct sampler fails with
# probability 6.3e-5, so 36 of them fail a correct run with probability
# 0.23%.
_MC_BOXES = 12


class McWorkload(Workload):
    """One ``mc_summary(model, box, n=10**6)`` per op."""

    reference = "memory"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed)
        self._ops = []
        for index in range(_MC_BOXES):
            bounds = montecarlo.random_valid_bounds(rng)
            mse = {
                model: estimators.estimate(model, RiskProfile.MSE, bounds).theta1
                for model in ModelKind
            }
            for model in ModelKind:
                self._ops.append((bounds, model, seed + 1 + index, mse[model]))

    def cycle(self) -> list:
        return list(self._ops)

    def run(self, op):
        bounds, model, sample_seed, _ = op
        return montecarlo.mc_summary(model, bounds, _MC_N, seed=sample_seed)

    def check(self, op, output) -> None:
        bounds, model, _, mse = op
        if output.n != _MC_N:
            raise CheckFailed(f"summary holds {output.n} draws, not {_MC_N}")
        se = output.std_error_of_mean
        if not abs(output.mean - mse) <= MC_Z_LIMIT * se:
            raise CheckFailed(
                f"{model.value}: sample mean {output.mean!r} is more than "
                f"{MC_Z_LIMIT} SE ({se:.3e}) from the closed-form mean {mse!r} "
                f"on {bounds}"
            )


# --- cli -----------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    kind: str  # "estimate", "estimate-json", "reference" or "sweep"
    argv: tuple[str, ...]
    expected: object  # theta1, or the sweep row count


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _num(value: float) -> str:
    return repr(float(value))


def _box_args(bounds) -> list[str]:
    args = []
    for name in "abcd":
        args += [f"--{name}", _num(getattr(bounds, name))]
    return args


class CliWorkload(Workload):
    """One ``python -m nashroyalty.cli ...`` process per op.

    A cycle holds ``estimate`` for all nine model/risk combinations in text
    and in ``--json`` form, each on its own seeded box; one ``estimate`` from
    a perception config with a non-``map`` risk; ``reference``; and a
    closed-form ``sweep`` at its default grid.
    """

    def __init__(self, seed: int, workdir: Path):
        self._rng = _rng(seed)
        self._workdir = workdir
        self._sweep_out = workdir / "sweep.csv"
        self._cycles = 0
        self._env = child_env()

    def cycle(self) -> list:
        rng = self._rng
        ops = []
        for model in ModelKind:
            for risk in RiskProfile:
                for as_json in (False, True):
                    bounds = montecarlo.random_valid_bounds(rng)
                    theta = estimators.estimate(model, risk, bounds).theta1
                    argv = ["estimate", "--model", model.value, "--risk", risk.value]
                    argv += _box_args(bounds)
                    if as_json:
                        argv.append("--json")
                    kind = "estimate-json" if as_json else "estimate"
                    ops.append(CliOp(kind, tuple(argv), theta))

        # Perception-fixed weight: the estimate comes from the numeric engine.
        bounds = montecarlo.random_valid_bounds(rng)
        scores = {k: float(v) for k, v in zip(("p11", "p12", "p21", "p22"), rng.uniform(0, 1, 4))}
        risk = (RiskProfile.ABS, RiskProfile.MSE)[int(rng.integers(2))]
        model = posterior.FixedAlphaModel(alpha_from_perceptions(PerceptionMatrix(**scores)))
        if risk is RiskProfile.ABS:
            theta = posterior.numeric_median(model, bounds)
        else:
            theta = posterior.numeric_mean(model, bounds)
        theta = min(1.0, max(0.0, float(theta)))
        config = self._workdir / f"perception-{self._cycles}.json"
        config.write_text(
            json.dumps(
                {
                    "bounds": {"a": bounds.a, "b": bounds.b, "c": bounds.c, "d": bounds.d},
                    "perceptions": scores,
                    "risk": risk.value,
                }
            ),
            encoding="utf-8",
        )
        ops.append(CliOp("estimate-json", ("estimate", "--config", str(config), "--json"), theta))

        ops.append(CliOp("reference", ("reference",), None))

        model = list(ModelKind)[int(rng.integers(3))]
        risk = list(RiskProfile)[int(rng.integers(3))]
        a, b = sorted(float(v) for v in rng.uniform(0.0, 0.5, 2))
        table = sweep.family_sweep(model, risk, a, b)
        rows = sum(len(block.rows) for block in table.series)
        argv = ["sweep", "--model", model.value, "--risk", risk.value]
        argv += ["--a", _num(a), "--b", _num(b), "--c", "0", "--d", "0"]
        argv += ["--out", str(self._sweep_out)]
        ops.append(CliOp("sweep", tuple(argv), rows))

        self._cycles += 1
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op: CliOp) -> CliOutput:
        proc = subprocess.run(
            [sys.executable, "-m", "nashroyalty.cli", *op.argv],
            cwd=ROOT,
            env=self._env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, op: CliOp) -> CliOutput:
        """The same argv through ``cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        return CliOutput(code, out.getvalue(), err.getvalue())

    def check(self, op: CliOp, output: CliOutput) -> None:
        if output.code != 0:
            raise CheckFailed(f"{' '.join(op.argv)} exited {output.code}: {output.stderr[-300:]}")
        if op.kind == "estimate":
            line = f"party 1 share estimate (theta1): {op.expected:.3f}"
            if line not in output.stdout:
                raise CheckFailed(f"{' '.join(op.argv)}: missing {line!r}")
        elif op.kind == "estimate-json":
            try:
                theta = json.loads(output.stdout)["theta1"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CheckFailed(f"{' '.join(op.argv)}: no theta1 in output ({exc})") from None
            if theta != op.expected:
                raise CheckFailed(f"{' '.join(op.argv)}: theta1 {theta!r} != {op.expected!r}")
        elif op.kind == "reference":
            if "result: PASS" not in output.stdout:
                raise CheckFailed("reference did not print 'result: PASS'")
        else:
            line = f"wrote {op.expected} sweep rows to"
            if line not in output.stdout:
                raise CheckFailed(f"{' '.join(op.argv)}: missing {line!r}")


WORKLOADS = {
    "cli": CliWorkload,
    "posterior": PosteriorWorkload,
    "verify": VerifyWorkload,
    "mc": McWorkload,
}
