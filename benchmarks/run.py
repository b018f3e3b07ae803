#!/usr/bin/env python3
"""Benchmark for ``nashroyalty``: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 benchmarks/run.py --workload posterior --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py                     # every workload, end-to-end then per-layer
    python3 benchmarks/run.py --trace 1           # per-layer metrics of every workload
    python3 benchmarks/run.py --baseline          # rebuild the ROADMAP baseline table
    python3 benchmarks/selftest.py                # fast self-test of this harness

Workloads (see ``workloads.py``; each is a closed loop with one client):

* ``cli``       - one ``python -m nashroyalty.cli`` process per op: what
  every user pays, interpreter start and imports included.
* ``posterior`` - the ``posterior`` command's computation for one (box,
  model): a 2001-point CDF curve, so thousands of single-point quadratures.
* ``verify``    - the ``verify`` command's work for one box: bisection
  medians, ``dblquad`` means and 20000-draw samples, so few CDF points.
* ``mc``        - one ``mc_summary`` of 10**6 draws: multi-shard sampling
  and the sample summary, with no quadrature at all.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones, measured with tracing off:

* ``setup_s``: median over fresh processes of the normalised time from
  process start to the first timed op (package import, inputs, one warm-up
  op); every set-up is bracketed by the interpreter-bound probe.
* ``norm_throughput_ops_per_s``: ops completed per normalised second.
* ``norm_latency_p50_s``: median normalised op latency.
* ``norm_latency_tail_s``: the 90th percentile of normalised op latency, or
  the highest percentile with ten samples beyond it when fewer than ten lie
  beyond the 90th (runs of under 111 ops, as in ``cli``); the percentile and
  the sample count are printed and written with it.  A fixed percentile,
  because the number of ops in a run follows the host's speed, and the
  highest percentile with ten samples beyond would move with it.
* ``peak_rss_mib``: peak RSS of the workload process (for ``cli``, of the
  largest ``nashroyalty`` child process; for ``mc``, with the 8 MiB array
  of its reference probe).

Normalised times.  On a shared host the same op runs up to twice as slow
for stretches of 10-40 s, and CPU time slows with wall time, so raw
latencies from two runs of the same code can differ by more than any useful
regression bound.  Every timed op is therefore bracketed by a reference
probe: a fixed numpy workload that calls no ``nashroyalty`` code and that
contention slows about as much as it slows the op.  ``cli``, ``posterior``
and ``verify`` use an interpreter-bound probe (many small numpy calls, like
quadrature callbacks); ``mc`` uses a memory-bound one (passes over a
preallocated array the size of its samples).  An op's normalised latency is
its wall latency over the mean host slowdown (probe time over the probe's
nominal time in ``REFERENCE_PROBES``) just before and just after it, that
is, its latency at the host speed at which the probe takes its nominal
time.  The probe runs right after an op, so it also feels the cache state
the op leaves behind: a change that makes ops touch much less memory speeds
the probe a little and so understates its own gain.  Raw wall-clock set-up
time, throughput and latencies, and the host slowdown (median probe over
nominal), are printed beside the metrics and written to the result file.

Ops that raise or fail their output check are counted in ``failed``;
``error_rate`` = failed / attempted is printed by name.

With ``--trace 1`` the metrics are the per-layer ones from a traced run
(``spans.py``): the workload's first cycle of ops is run alternately
without and with span recording, and counts and times are totals per
traced cycle (``trace.cycle_ops`` ops), so counts repeat exactly at a
given seed.  Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli", "posterior", "verify", "mc")
SETUP_PROBES = 3
STARTUP_PROBES = 3
TAIL_BEYOND = 10
TAIL_PERCENTILE = 90.0
# Sizes of the reference probes (see REFERENCE_PROBES).
REFERENCE_LOOPS = 600
REFERENCE_BLOCK = 1 << 18
MEMORY_PROBE_BLOCK = 1 << 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_throughput_ops_per_s": "1/s",
    "norm_latency_p50_s": "s",
    "norm_latency_tail_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def _require_source() -> None:
    if not (SRC / "nashroyalty" / "__init__.py").is_file():
        raise BenchmarkError(f"no nashroyalty source tree under {SRC}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int) -> dict:
    """Commit, versions and core count recorded with every result."""
    from importlib import metadata

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
    }


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the 90th percentile, with ten samples beyond it.

    When fewer than ten samples lie beyond the 90th percentile this is the
    highest percentile that has ten beyond (the eleventh-largest sample);
    with fewer than eleven samples it is the largest.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.floor(TAIL_PERCENTILE / 100.0 * (n - 1))
    if n - 1 - rank < TAIL_BEYOND:
        rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], percentile, n


def _peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# --- running ops ----------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_checked(workload, runner, op, tally: Tally) -> float:
    """Run one op, check its output, and return its latency in seconds."""
    from workloads import CheckFailed

    error = None
    start = time.perf_counter()
    try:
        output = runner(op)
    except Exception as exc:  # an op that raises counts as failed
        latency = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
    else:
        latency = time.perf_counter() - start
        try:
            workload.check(op, output)
        except CheckFailed as exc:
            error = str(exc)
    tally.record(error)
    return latency


_PROBE_ARRAY = np.linspace(0.1, 1.0, 16)


def _interpreter_probe() -> float:
    """Interpreter work around many small numpy calls, like quadrature callbacks.

    Plus one pass over a freshly allocated 2 MiB array.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_LOOPS):
        total += float(np.exp(-_PROBE_ARRAY * (i % 7)).sum())
    block = np.ones(REFERENCE_BLOCK)
    block *= 2.0
    total += float(block.sum())
    return time.perf_counter() - start


@functools.cache
def _memory_probe_block() -> np.ndarray:
    return np.ones(MEMORY_PROBE_BLOCK)


def _memory_probe() -> float:
    """Passes over an array the size of a 10**6-draw sample.

    The array is allocated once, so that the probe times memory traffic and
    not the allocator, whose state differs from process to process.
    """
    block = _memory_probe_block()
    start = time.perf_counter()
    block.fill(1.0)
    block *= 2.0
    float(block.sum())
    return time.perf_counter() - start


# Reference probes by the ``reference`` attribute of a workload, each with
# about its wall time on an uncontended core of the 2-vCPU host (Python
# 3.10, numpy 2.4) where the benchmark was written.  The nominal times only
# set the scale of the normalised times.
REFERENCE_PROBES = {
    "interpreter": (_interpreter_probe, 2.0e-3),
    "memory": (_memory_probe, 1.0e-3),
}


def host_slowdown(reference: str) -> float:
    """Wall time of a reference probe over its nominal time; uses no ``nashroyalty`` code."""
    probe, nominal = REFERENCE_PROBES[reference]
    return probe() / nominal


def timed_loop(workload, first_cycle: list, seconds: float, tally: Tally):
    """Closed loop, one client: run ops until ``seconds`` have passed.

    Returns the wall latencies, the host slowdowns from the workload's
    reference probe (one more than there are ops: a probe precedes every op
    and one follows the last) and the wall time of the loop.
    """
    latencies = []
    slowdowns = [host_slowdown(workload.reference)]
    cycle = first_cycle
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for op in cycle:
            latencies.append(run_checked(workload, workload.run, op, tally))
            slowdowns.append(host_slowdown(workload.reference))
            if time.perf_counter() >= deadline:
                return latencies, slowdowns, time.perf_counter() - start
        cycle = workload.cycle()


def normalised(latencies: list[float], slowdowns: list[float]) -> list[float]:
    """Latencies at the host speed where the reference probe takes its nominal time."""
    return [
        latency * 2.0 / (before + after)
        for latency, before, after in zip(latencies, slowdowns, slowdowns[1:])
    ]


def _workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(name: str, seed: int, workdir: Path):
    """Import the package, build the inputs and run one warm-up op."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    first_cycle = workload.cycle()
    workload.run(workload.warmup_op(first_cycle))
    return workload, first_cycle


def probe_setup(name: str, seed: int) -> float:
    """Wall time from starting a fresh workload process to its first op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=300)
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"setup probe for {name} failed (exit {code})")
    return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(name: str, seed: int, seconds: float, probes: int = SETUP_PROBES) -> dict:
    workdir = _workdir()
    try:
        workload, first_cycle = prepare(name, seed, workdir)
        tally = Tally()
        latencies, slowdowns, wall = timed_loop(workload, first_cycle, seconds, tally)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        peak = _peak_rss_mib(who)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups, setup_slowdowns = [], [host_slowdown("interpreter")]
    for _ in range(probes):
        setups.append(probe_setup(name, seed))
        setup_slowdowns.append(host_slowdown("interpreter"))
    norm = normalised(latencies, slowdowns)
    tail, percentile, n = tail_latency(norm)
    metrics = {
        "setup_s": statistics.median(normalised(setups, setup_slowdowns)),
        "norm_throughput_ops_per_s": len(norm) / math.fsum(norm),
        "norm_latency_p50_s": statistics.median(norm),
        "norm_latency_tail_s": tail,
        "peak_rss_mib": peak,
    }
    return {
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "detail": {
            "latency_tail_percentile": percentile,
            "latency_samples": n,
            "raw_setup_s": statistics.median(setups),
            "timed_wall_s": wall,
            "raw_throughput_ops_per_s": len(latencies) / wall,
            "raw_latency_p50_s": statistics.median(latencies),
            "raw_latency_tail_s": tail_latency(latencies)[0],
            "host_slowdown": statistics.median(slowdowns),
        },
    }


# --- traced run -----------------------------------------------------------------

# Per-layer metrics, grouped by the end-to-end metric each should move.
# Counts and times are per traced cycle unless the name says otherwise.
PER_LAYER_UNITS = {
    # latency on cli, setup_s on every workload; the bare interpreter start
    # is the floor no change to the package can move.
    "import.nashroyalty_s": "s",
    "import.modules_loaded": "count",
    "import.scipy_loaded": "bool",
    "cli.interpreter_s": "s",
    # latency_p50_s on cli: in-process main(argv) medians after a warm import,
    # and the share of the subprocess p50 that interpreter + import + main explain.
    "cli.main.estimate_s": "s",
    "cli.main.reference_s": "s",
    "cli.main.sweep_s": "s",
    "cli.accounted_ratio": "ratio",
    "sweep.family_sweep.busy_s": "s",
    "sweep.write_csv.busy_s": "s",
    # No effect predicted: microseconds per call.
    "estimators.estimate.calls": "count",
    "estimators.estimate.busy_s": "s",
    # throughput on verify (dblquad means call the share hundreds of times).
    "bargaining.theta_model.calls": "count",
    "bargaining.theta_model.ns_per_call": "ns",
    # throughput on posterior (dense CDF grid) and on verify (median, mean).
    "posterior.cdf_at.calls": "count",
    "posterior.cdf_at.busy_s": "s",
    "posterior.cdf_at.self_s": "s",
    "posterior.pdf_curve.calls": "count",
    "posterior.pdf_curve.busy_s": "s",
    "posterior.pdf_curve.self_s": "s",
    "posterior.mode_from_curve.busy_s": "s",
    "posterior.numeric_median.calls": "count",
    "posterior.numeric_median.busy_s": "s",
    "posterior.numeric_median.cdf_evals_per_call": "count",
    "posterior.numeric_mean.calls": "count",
    "posterior.numeric_mean.busy_s": "s",
    # Health count: a fix shows as a change in the count, not in time.
    "posterior.integration_warnings": "count",
    # throughput on mc and verify; summarize on mc only.
    "montecarlo.sample_thetas.calls": "count",
    "montecarlo.sample_thetas.busy_s": "s",
    "montecarlo.sample_thetas.draws_returned": "count",
    "montecarlo.sample_thetas.draws_generated": "count",
    "montecarlo.sample_thetas.draw_use_ratio": "ratio",
    "montecarlo.sample_thetas.bytes_computed": "B",
    "montecarlo.summarize.calls": "count",
    "montecarlo.summarize.busy_s": "s",
    # Validity of the trace itself, and the base of every per-cycle figure.
    "trace.overhead_ratio": "ratio",
    "trace.cycle_ops": "count",
}

_IMPORT_PROBE = (
    "import json, sys, time\n"
    "before = len(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import nashroyalty\n"
    "elapsed = time.perf_counter() - start\n"
    "print(json.dumps([elapsed, len(sys.modules) - before, int('scipy' in sys.modules)]))\n"
)


def probe_startup(probes: int) -> dict:
    """Fresh-process ``import nashroyalty`` and bare interpreter start."""
    from workloads import child_env

    env = child_env()
    imports = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        imports.append(json.loads(proc.stdout))
    interpreter = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=300)
        interpreter.append(time.perf_counter() - start)
    return {
        "import.nashroyalty_s": statistics.median(row[0] for row in imports),
        "import.modules_loaded": imports[-1][1],
        "import.scipy_loaded": imports[-1][2],
        "cli.interpreter_s": statistics.median(interpreter),
    }


def _run_pass(workload, runner, cycle, tally, tracer=None):
    """One pass over ``cycle``; returns (wall, per-op latencies, warnings)."""
    latencies = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        for op in cycle:
            if tracer is not None:
                tracer.op += 1  # spans of one op share this id
            latencies.append(run_checked(workload, runner, op, tally))
        wall = time.perf_counter() - start
    integration = sum(1 for w in caught if w.category.__name__ == "IntegrationWarning")
    return wall, latencies, integration


def _layer_metrics(tracer, passes: int) -> dict:
    """Per-layer counts and times per traced cycle, from the recorded spans."""
    from nashroyalty.montecarlo import SHARD_SIZE

    columns = tracer.arrays()
    out = {}
    for name_id, name in enumerate(tracer.names):
        mask = columns["name"] == name_id
        out[f"{name}.calls"] = int(mask.sum()) / passes
        out[f"{name}.busy_s"] = int(columns["duration_ns"][mask].sum()) / passes / 1e9
        out[f"{name}.self_s"] = int(columns["self_ns"][mask].sum()) / passes / 1e9

    median_id = tracer.names.index("posterior.numeric_median")
    parents = columns["parent"][columns["name"] == tracer.names.index("posterior.cdf_at")]
    under_median = int((columns["name"][parents[parents >= 0]] == median_id).sum())
    median_calls = int((columns["name"] == median_id).sum())
    out["posterior.numeric_median.cdf_evals_per_call"] = (
        under_median / median_calls if median_calls else 0.0
    )

    calls, ns = tracer.counters["bargaining.theta_model"]
    out["bargaining.theta_model.calls"] = calls / passes
    out["bargaining.theta_model.ns_per_call"] = ns / calls if calls else 0.0

    returned = sum(tracer.draws)
    generated = sum(math.ceil(n / SHARD_SIZE) * SHARD_SIZE for n in tracer.draws)
    out["montecarlo.sample_thetas.draws_returned"] = returned / passes
    out["montecarlo.sample_thetas.draws_generated"] = generated / passes
    out["montecarlo.sample_thetas.draw_use_ratio"] = returned / generated if generated else 0.0
    # Computed, not measured: two float64 draw buffers per generated pair
    # plus one float64 share per returned draw.
    out["montecarlo.sample_thetas.bytes_computed"] = (16 * generated + 8 * returned) / passes
    return out


def measure_per_layer(name: str, seed: int, seconds: float, probes: int = STARTUP_PROBES,
                      meta: dict | None = None) -> dict:
    import spans

    workdir = _workdir()
    tally = Tally()
    try:
        workload, cycle = prepare(name, seed, workdir)
        is_cli = name == "cli"
        runner = workload.run_in_process if is_cli else workload.run
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        loop_seconds = seconds
        if is_cli:
            # Subprocess latency, for the share that start-up and main explain.
            loop_seconds = seconds / 2.0
            latencies, _, _ = timed_loop(workload, cycle, seconds / 2.0, tally)
            subprocess_p50 = statistics.median(latencies)
            runner(workload.warmup_op(cycle))  # warm the in-process path
        metrics.update(probe_startup(probes))

        tracer = spans.Tracer()
        plain_wall = traced_wall = 0.0
        plain_latencies = []
        passes = 0
        warnings_seen = 0
        deadline = time.perf_counter() + loop_seconds
        # Plain and traced passes alternate, and swap order every round, so
        # that drift in machine speed cancels out of the overhead ratio.
        while passes == 0 or time.perf_counter() < deadline:
            for traced in ((False, True) if passes % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    wall, latencies, integration = _run_pass(
                        workload, runner, cycle, tally, tracer if traced else None
                    )
                finally:
                    tracer.restore()
                if traced:
                    traced_wall += wall
                    warnings_seen += integration
                else:
                    plain_wall += wall
                    plain_latencies.append(latencies)
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    layers = _layer_metrics(tracer, passes)
    for key in PER_LAYER_UNITS:
        if key in layers:
            metrics[key] = layers[key]
    metrics["posterior.integration_warnings"] = warnings_seen / passes
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    metrics["trace.cycle_ops"] = len(cycle)

    if is_cli:
        by_kind: dict[str, list[float]] = {}
        every = []
        for latencies in plain_latencies:
            for op, latency in zip(cycle, latencies):
                kind = "estimate" if op.kind.startswith("estimate") else op.kind
                by_kind.setdefault(kind, []).append(latency)
                every.append(latency)
        for kind, samples in by_kind.items():
            metrics[f"cli.main.{kind}_s"] = statistics.median(samples)
        explained = (
            metrics["cli.interpreter_s"]
            + metrics["import.nashroyalty_s"]
            + statistics.median(every)
        )
        metrics["cli.accounted_ratio"] = explained / subprocess_p50

    if meta is not None:
        tracer.write(OUT / f"spans-{name}.json.gz", meta)
    return {
        "metrics": {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "detail": {"traced_cycles": passes},
    }


# --- command line ---------------------------------------------------------------


def _print_result(name: str, seed: int, trace: int, result: dict) -> None:
    meta = result["meta"]
    print(
        f"# workload {name}  seed {seed}  trace {trace}  commit {meta['commit']}  "
        f"python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}  "
        f"nproc {meta['nproc']}"
    )
    for key, metric in result["metrics"].items():
        print(f"{name:<9} {key:<46} {metric['value']:>14.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{name:<9} {'error_rate':<46} {failed / attempted:>14.6g} ratio "
        f"({failed} of {attempted} ops)"
    )
    detail = result["detail"]
    if "latency_tail_percentile" in detail:
        print(
            f"{name:<9} norm_latency_tail_s is p{detail['latency_tail_percentile']:.1f} "
            f"of {detail['latency_samples']} samples"
        )
        for key in ("raw_setup_s", "raw_throughput_ops_per_s", "raw_latency_p50_s",
                    "raw_latency_tail_s", "host_slowdown"):
            print(f"{name:<9} {key:<46} {detail[key]:>14.6g} (not a metric)")
    for error in result["errors"]:
        print(f"{name:<9} failure: {error}")


def _final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    meta = run_metadata(name, seed)
    if trace:
        result = measure_per_layer(name, seed, seconds, meta=meta)
    else:
        result = measure_end_to_end(name, seed, seconds)
    result["meta"] = meta
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-trace{trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    _print_result(name, seed, trace, result)
    print(_final_line(result))
    return 0


def run_all(seed: int, seconds: float, traces: tuple[int, ...]) -> int:
    """Every workload, each run in its own fresh process."""
    combined = {"attempted": 0, "failed": 0, "metrics": {}}
    for trace in traces:
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchmarkError(f"workload {name} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    print(_final_line(combined))
    return 0


def _setup_probe(name: str, seed: int) -> int:
    workdir = _workdir()
    try:
        prepare(name, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nashroyalty benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics (default for one workload); "
                             "1: per-layer metrics; both when omitted with --workload all")
    parser.add_argument("--baseline", action="store_true",
                        help="rebuild the ROADMAP baseline table instead")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0.0 < args.seconds < float("inf"):
        parser.error("--seconds must be a positive number")
    try:
        _require_source()
        if args.setup_probe:
            return _setup_probe(args.workload, args.seed)
        if args.baseline:
            from baseline import run_baseline

            return run_baseline(args.seed)
        if args.workload == "all":
            traces = (0, 1) if args.trace is None else (args.trace,)
            return run_all(args.seed, args.seconds, traces)
        return run_one(args.workload, args.seed, args.seconds, args.trace or 0)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
