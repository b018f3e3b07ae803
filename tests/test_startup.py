"""What a fresh process loads: the closed-form commands start without numpy.

``estimate`` on a named model, ``reference`` and a closed-form ``sweep``
need only the closed forms, so numpy, which takes longer to import than
they take to run, must stay out of ``sys.modules``; in text mode they also
leave out dataclasses, inspect, json and traceback, and json loads only
where a command reads or writes JSON.  The engine commands load numpy on
demand and still work, and they leave out numpy.ma and numpy.polynomial.
Run through the entry point, as the console script and ``python -m
nashroyalty.cli`` run them, they start no OpenBLAS worker thread unless the
user asks for one.  A named-model ``estimate`` compiles only the package
modules it runs, since each other command's module is imported when that
command runs; a moved command keeps its exit codes and its error bytes
under ``python -m``.  Each probe runs in a fresh interpreter, since this
test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nashroyalty
from nashroyalty import cli

SRC = Path(nashroyalty.__file__).resolve().parents[1]
GOLDEN_ARGS = ["--a", "0", "--b", "0.2", "--c", "0", "--d", "0.8"]
PERCEPTION_CONFIG = {
    "bounds": {"a": 0.1, "b": 0.4, "c": 0.2, "d": 0.5},
    "perceptions": {"p11": 0.5, "p12": 0.7, "p21": 0.4, "p22": 0.4},
    "risk": "abs",
}

# Runs each argv through cli.main and reports its exit code, and whether
# numpy is loaded afterwards.
CLI_PROBE = """
import contextlib, io, json, sys
from nashroyalty import cli
report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report.append([code, "numpy" in sys.modules, err.getvalue()])
print(json.dumps(report))
"""

# Runs each argv, its words joined by a unit separator, through cli.main and
# prints the exit codes, then which of WATCHED are loaded.  It imports no
# module of its own that would load one of them, as CLI_PROBE's json does.
WATCHED = ("dataclasses", "inspect", "json", "traceback", "numpy.ma",
           "numpy.polynomial")
LEAN_PROBE = f"""
import contextlib, io, sys
from nashroyalty import cli
codes = []
for arg in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes.append(cli.main(arg.split("\\x1f")))
    assert err.getvalue() == "", err.getvalue()
print(*codes)
print(*[name for name in {WATCHED!r} if name in sys.modules])
"""

EXPORTS_PROBE = """
import json, sys
import nashroyalty
before = "numpy" in sys.modules
listed = sorted(set(nashroyalty.__all__) - set(dir(nashroyalty)))
missing = [name for name in nashroyalty.__all__ if not hasattr(nashroyalty, name)]
print(json.dumps([before, listed, missing, "numpy" in sys.modules]))
"""

# Runs the argv as `python -m nashroyalty.cli` does, through cli.entrypoint,
# and prints its exit code, how many threads the process has at the end and
# its OPENBLAS_NUM_THREADS.
ENTRYPOINT_PROBE = """
import contextlib, io, json, os, runpy, sys
sys.argv = ["nashroyalty", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("nashroyalty.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
threads = len(os.listdir("/proc/self/task"))
print(json.dumps([code, threads, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""

# Runs the argv in the directory given as `python -m nashroyalty.cli` does,
# and prints its exit code, its stderr and whether a second copy of the CLI
# module, with a second ConfigError, was imported as nashroyalty.cli.
MAIN_PROBE = """
import contextlib, io, json, os, runpy, sys
os.chdir(sys.argv[1])
sys.argv = ["nashroyalty", *json.loads(sys.argv[2])]
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("nashroyalty.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, err.getvalue(), "nashroyalty.cli" in sys.modules]))
"""

# Runs the argv through cli.main and prints the number of source lines of
# every nashroyalty module loaded afterwards, as `wc -l` counts them.
LINES_PROBE = """
import contextlib, io, json, sys
from nashroyalty import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
lines = {
    name: open(module.__file__, "rb").read().count(b"\\n")
    for name, module in sys.modules.items()
    if name.split(".")[0] == "nashroyalty"
}
print(json.dumps([code, lines]))
"""

# What sets the thread count of numpy's BLAS, removed from a probe's
# environment so that only the entry point's default is left.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(script: str, *args: str, env=os.environ) -> str:
    env = {**env, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(script: str, *args: str, env=os.environ):
    return json.loads(run_fresh(script, *args, env=env))


def lean_probe(*runs: list[str]) -> tuple[list[str], list[str]]:
    """Exit codes of the runs in one fresh process, and the watched modules
    it has loaded at the end."""
    stdout = run_fresh(LEAN_PROBE, *("\x1f".join(run) for run in runs))
    codes, loaded = stdout.split("\n")[:2]
    return codes.split(), loaded.split()


def test_closed_form_commands_never_load_numpy(tmp_path):
    runs = [["reference"]]
    for model in ("nbs", "case1", "case2"):
        estimate = ["estimate", "--model", model, "--risk", "abs", *GOLDEN_ARGS]
        runs += [estimate, [*estimate, "--json"]]
    runs.append(
        ["sweep", "--model", "case1", "--risk", "mse", "--a", "0", "--b", "0.2",
         "--c", "0", "--d", "0", "--out", str(tmp_path / "sweep.csv")]
    )
    report = probe(CLI_PROBE, json.dumps(runs))
    assert report == [[0, False, ""]] * len(runs)


def test_engine_commands_load_numpy_and_work(tmp_path):
    config = tmp_path / "perception.json"
    config.write_text(json.dumps(PERCEPTION_CONFIG), encoding="utf-8")
    runs = [
        ["estimate", "--config", str(config)],
        ["posterior", "--model", "case2", "--grid-points", "11", *GOLDEN_ARGS,
         "--out", str(tmp_path / "curve.csv")],
        ["verify", "--samples", "2", "--mc-n", "100"],
        ["sweep", "--model", "nbs", "--risk", "abs", "--a", "0", "--b", "0.2",
         "--c", "0", "--d", "0", "--c-values", "0", "--d-max", "0.1",
         "--engine", "numeric", "--out", str(tmp_path / "numeric.csv")],
    ]
    report = probe(CLI_PROBE, json.dumps(runs))
    assert report == [[0, True, ""]] * len(runs)


def test_package_exports_resolve_on_demand():
    before, unlisted, missing, after = probe(EXPORTS_PROBE)
    assert before is False
    assert unlisted == [] and missing == []
    assert after is True  # the engines' names were loaded to resolve them


def test_text_mode_commands_load_no_dataclasses_json_or_traceback(tmp_path):
    assert lean_probe() == ([], [])  # importing the CLI loads none of them
    estimate = ["estimate", "--model", "case1", "--risk", "abs", *GOLDEN_ARGS]
    sweep = ["sweep", "--model", "case2", "--risk", "mse", "--a", "0", "--b", "0.2",
             "--c", "0", "--d", "0", "--out", str(tmp_path / "sweep.csv")]
    assert lean_probe(estimate, ["reference"], sweep) == (["0", "0", "0"], [])


def test_json_loads_where_it_is_used(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(
        '{"bounds": {"a": 0, "b": 0.2, "c": 0, "d": 0.8}, "model": "nbs", "risk": "mse"}',
        encoding="utf-8",
    )
    estimate = ["estimate", "--model", "nbs", "--risk", "map", *GOLDEN_ARGS, "--json"]
    assert lean_probe(estimate) == (["0"], ["json"])
    assert lean_probe(["estimate", "--config", str(config)]) == (["0"], ["json"])


def test_engine_commands_leave_out_numpy_ma_and_numpy_polynomial(tmp_path):
    # np.unique, which once split the numeric mean's t-panels, imports
    # numpy.ma (more than 1 MiB of memory) on its first call, and
    # np.polynomial.legendre.leggauss, which once computed the quadrature
    # rules, needs numpy.polynomial and a LAPACK eigen-solve.
    config = tmp_path / "perception.json"
    config.write_text(json.dumps({**PERCEPTION_CONFIG, "risk": "mse"}), encoding="utf-8")
    posterior = ["posterior", "--model", "case1", *GOLDEN_ARGS,
                 "--out", str(tmp_path / "curve.csv")]
    verify = ["verify", "--samples", "2", "--mc-n", "100"]
    sweep = ["sweep", "--model", "case1", "--risk", "abs", "--a", "0", "--b", "0.2",
             "--c", "0", "--d", "0", "--c-values", "0", "--d-max", "0.1",
             "--engine", "numeric", "--out", str(tmp_path / "numeric.csv")]
    estimate = ["estimate", "--config", str(config)]
    codes, loaded = lean_probe(estimate, posterior, verify, sweep)
    assert codes == ["0"] * 4
    assert "numpy.ma" not in loaded and "numpy.polynomial" not in loaded, loaded


def entrypoint_probe(tmp_path, **blas_env: str):
    """The perception estimate run through the entry point in a fresh process
    whose environment sets no BLAS thread count but ``blas_env``."""
    if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs /proc/self/task and at least 2 CPUs to see BLAS threads")
    config = tmp_path / "perception.json"
    config.write_text(json.dumps(PERCEPTION_CONFIG), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    argv = ["estimate", "--config", str(config), "--json"]
    return probe(ENTRYPOINT_PROBE, json.dumps(argv), env={**env, **blas_env})


def test_the_entry_point_starts_no_blas_thread(tmp_path):
    # numpy is loaded, but its BLAS pool is not started.
    assert entrypoint_probe(tmp_path) == [0, 1, "1"]


def test_the_entry_point_keeps_a_thread_count_the_user_sets(tmp_path):
    code, threads, setting = entrypoint_probe(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert (code, setting) == (0, "2")
    assert threads >= 2


def test_main_in_process_leaves_the_environment_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    config = tmp_path / "perception.json"
    config.write_text(json.dumps(PERCEPTION_CONFIG), encoding="utf-8")
    before = dict(os.environ)
    assert cli.main(["reference"]) == 0
    assert cli.main(["estimate", "--config", str(config), "--json"]) == 0
    assert dict(os.environ) == before


USAGE = "usage: nashroyalty [-h] {estimate,posterior,sweep,verify,reference} ...\n"


# Usage errors through the entry point, captured before the parser built only
# the named command's subparser: an unknown command, and an unknown flag after
# a known one, which the top-level parser reports with its own usage line.
@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["bogus"],
            USAGE + "nashroyalty: error: argument command: invalid choice: 'bogus' "
            "(choose from 'estimate', 'posterior', 'sweep', 'verify', 'reference')\n",
        ),
        (
            ["estimate", "--model", "case1", "--risk", "abs", *GOLDEN_ARGS, "--bogus"],
            USAGE + "nashroyalty: error: unrecognized arguments: --bogus\n",
        ),
    ],
    ids=["unknown command", "unknown flag"],
)
def test_usage_errors_through_the_entry_point(argv, stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "nashroyalty.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (
            ["sweep", "--model", "nbs", "--risk", "abs", *GOLDEN_ARGS,
             "--c-values", "x", "--out", "sweep.csv"],
            2,
            "error: --c-values expects a comma-separated list of numbers, got 'x'\n",
        ),
        (
            ["posterior", "--model", "nbs", "--a", "0.1", "--b", "0.1", "--c", "0.2",
             "--d", "0.2", "--out", "curve.csv"],
            3,
            "error: the share is deterministically 0.45 on these bounds; the "
            "distribution has no density curve\n",
        ),
        (["verify", "--samples", "0"], 2, "error: --samples must be at least 1, got 0\n"),
        (
            ["estimate", "--model", "nbs", "--risk", "abs", "--config", "missing.json"],
            2,
            "error: missing.json: cannot read config file: [Errno 2] No such file or "
            "directory: 'missing.json'\n",
        ),
    ],
    ids=["sweep", "posterior", "verify", "config"],
)
def test_moved_commands_keep_their_exit_codes_under_python_m(tmp_path, argv, code, stderr):
    # The stderr bytes were captured while every command lived in cli.py.
    assert probe(MAIN_PROBE, str(tmp_path), json.dumps(argv)) == [code, stderr, False]
    assert list(tmp_path.iterdir()) == []


# What a named-model estimate loads of the package; 1781 lines when every
# command lived in cli.py.
ESTIMATE_MODULES = {"nashroyalty", "nashroyalty.errors", "nashroyalty.bargaining",
                    "nashroyalty.estimators", "nashroyalty.cli", "nashroyalty._cli_common"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["estimate", "--model", "case1", "--risk", "abs", *GOLDEN_ARGS], set()),
        (["estimate", "--model", "nbs", "--risk", "mse", *GOLDEN_ARGS, "--json"], set()),
        (["reference"], {"nashroyalty._cli_reference"}),
        (
            ["sweep", "--model", "case2", "--risk", "mse", "--a", "0", "--b", "0.2",
             "--c", "0", "--d", "0", "--out", "SWEEP"],
            {"nashroyalty._cli_sweep", "nashroyalty.sweep"},
        ),
    ],
    ids=["estimate", "estimate --json", "reference", "sweep"],
)
def test_closed_form_commands_compile_only_their_own_code(tmp_path, argv, extra):
    argv = [str(tmp_path / "sweep.csv") if arg == "SWEEP" else arg for arg in argv]
    code, lines = probe(LINES_PROBE, *argv)
    assert code == 0
    assert set(lines) == ESTIMATE_MODULES | extra
    assert sum(lines[name] for name in ESTIMATE_MODULES) <= 1550
