"""What a fresh process loads: the closed-form commands start without numpy.

``estimate`` on a named model, ``reference`` and a closed-form ``sweep``
need only the closed forms, so numpy, which takes longer to import than
they take to run, must stay out of ``sys.modules``; in text mode they also
leave out dataclasses, inspect, json and traceback, and json loads only
where a command reads or writes JSON.  The engine commands load numpy on
demand and still work, and they leave out numpy.ma and numpy.polynomial.
Each probe runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nashroyalty

SRC = Path(nashroyalty.__file__).resolve().parents[1]
GOLDEN_ARGS = ["--a", "0", "--b", "0.2", "--c", "0", "--d", "0.8"]

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


def run_fresh(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(script: str, *args: str):
    return json.loads(run_fresh(script, *args))


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
    config.write_text(
        json.dumps(
            {
                "bounds": {"a": 0.1, "b": 0.4, "c": 0.2, "d": 0.5},
                "perceptions": {"p11": 0.5, "p12": 0.7, "p21": 0.4, "p22": 0.4},
                "risk": "abs",
            }
        ),
        encoding="utf-8",
    )
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
    config.write_text(
        json.dumps(
            {
                "bounds": {"a": 0.1, "b": 0.4, "c": 0.2, "d": 0.5},
                "perceptions": {"p11": 0.5, "p12": 0.7, "p21": 0.4, "p22": 0.4},
                "risk": "mse",
            }
        ),
        encoding="utf-8",
    )
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
