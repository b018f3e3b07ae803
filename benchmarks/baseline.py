"""Rebuild the ROADMAP "Baseline" table: one row per layer, from this harness.

``python3 benchmarks/run.py --baseline [--seed N]`` times each row a few
times, prints median, min and interquartile range per row, and writes them
with the run metadata to ``.bench_out/baseline.json``.  The box is the
ROADMAP's ``(a, b, c, d) = (0.1, 0.3, 0.2, 0.6)`` unless a row says
otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import workloads  # puts src on sys.path
from nashroyalty import estimators, montecarlo, posterior, sweep
from nashroyalty.bargaining import ModelKind, validate_bounds
from nashroyalty.estimators import RiskProfile
from run import OUT, ROOT, probe_startup, run_metadata


def _samples(fn, repeats: int, calls: int = 1) -> list[float]:
    """Seconds per call of ``fn()`` (which makes ``calls`` calls), ``repeats`` times."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / calls)
    return samples


def baseline_rows(seed: int) -> list[tuple[str, list[float]]]:
    """(row label, per-call seconds of each repeat) for every baseline layer."""
    box = validate_bounds(0.1, 0.3, 0.2, 0.6)
    models = list(ModelKind)
    combos = [(m, r) for m in models for r in RiskProfile]

    def estimate_all() -> None:
        for _ in range(200):
            for model, risk in combos:
                estimators.estimate(model, risk, box)

    def cdf_points() -> None:
        for model in models:
            for t in (0.35, 0.45, 0.55):
                posterior.cdf_at(model, box, t)

    def per_model(fn, bounds):
        return lambda: [fn(model, bounds) for model in models]

    slice_c = (0.0, 0.1, 0.2, 0.3)
    slice_d = (0.74, 0.75, 0.76, 0.77, 0.78)

    def sweep_slice() -> None:
        sweep.family_sweep("case1", "map", 0.0, 0.2, c_values=slice_c, d_grid=slice_d,
                           engine="numeric")

    def wall(argv):
        return lambda: subprocess.run(
            [sys.executable, "-m", "nashroyalty.cli", *argv],
            cwd=ROOT, env=workloads.child_env(), capture_output=True, check=True, timeout=600,
        )

    cells = len(slice_c) * len(slice_d)
    return [
        ("estimate(), any of 9 combos", _samples(estimate_all, 7, 200 * 9)),
        ("cdf_at (one point)", _samples(cdf_points, 7, 9)),
        ("numeric_median", _samples(per_model(posterior.numeric_median, box), 5, 3)),
        ("numeric_mean", _samples(per_model(posterior.numeric_mean, box), 5, 3)),
        ("pdf_curve, 2001 points", _samples(per_model(posterior.pdf_curve, box), 3, 3)),
        ("pdf_curve, 2001 points, golden box",
         _samples(per_model(posterior.pdf_curve, workloads.GOLDEN), 3, 3)),
        ("sample_thetas, n = 1e6",
         _samples(lambda: montecarlo.sample_thetas("case1", box, 1_000_000, seed), 5)),
        ("mc_summary, n = 1e6",
         _samples(lambda: montecarlo.mc_summary("case1", box, 1_000_000, seed), 5)),
        ("one numeric sweep cell (case1 map, a=0 b=0.2 slice)", _samples(sweep_slice, 2, cells)),
        ("import nashroyalty (fresh process)",
         [probe_startup(1)["import.nashroyalty_s"] for _ in range(5)]),
        ("CLI reference (process wall)", _samples(wall(["reference"]), 3)),
        ("CLI verify at defaults (process wall)", _samples(wall(["verify"]), 3)),
    ]


def _scale(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def run_baseline(seed: int) -> int:
    meta = run_metadata("baseline", seed)
    table = []
    print(
        f"# baseline  seed {seed}  commit {meta['commit']}  python {meta['python']}  "
        f"numpy {meta['numpy']}  scipy {meta['scipy']}  nproc {meta['nproc']}"
    )
    print(f"{'layer / command':<52} {'median':>11} {'min':>11} {'IQR':>11}  n")
    for label, samples in baseline_rows(seed):
        median = statistics.median(samples)
        quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [median] * 3
        iqr = quartiles[2] - quartiles[0]
        table.append({"layer": label, "median_s": median, "min_s": min(samples),
                      "iqr_s": iqr, "samples_s": samples})
        print(f"{label:<52} {_scale(median):>11} {_scale(min(samples)):>11} "
              f"{_scale(iqr):>11}  {len(samples)}", flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "baseline.json").write_text(
        json.dumps({"meta": meta, "rows": table}, indent=2) + "\n", encoding="utf-8"
    )
    return 0
