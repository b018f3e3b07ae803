"""Pinned CLI outputs: every byte of stdout, and a SHA-256 of every file.

``golden_cli.json`` holds, for each run, its argv, any config file it
reads, its stdout and the digests of the files it writes.  The values were
captured from the CLI before its estimate layer was merged into one path
per engine, except the case2 ``mse`` estimate and the ``verify`` report,
re-captured when the case2 mean became one ``log1p`` formula nearer the
exact value, and the ``overpayment_prob`` of five ``estimate --json``
runs and the ``verify`` report again, when named models' overpayment
probabilities came from the closed-form CDF, and the case1 ``abs``
``estimate``, the case1 ``abs`` ``sweep`` CSV and the ``verify`` report
again, when the case1 median became exact; a change that moves any of
them changes what a user sees and must say so.  The runs cover ``reference``, ``estimate --json`` for all
nine model/risk combinations on the golden box with financials, the
README's perception config, a 201-point ``posterior``, a closed-form
``sweep`` and a small ``verify``, and two 2001-point case1 ``posterior``
runs (the golden box and a box of the case1 sweep slice), captured before
the curve's kernel call located the median's and the mean's first rounds.

``golden_help.json`` holds the ``--help`` text of the top level and of
every command, and the usage errors of a missing, unknown or misused
command, captured at 80 columns before the parser built only the named
command's arguments.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nashroyalty import cli

CASES = json.loads(
    (Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_pinned(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in case.get("config", {}).items():
        Path(name).write_text(json.dumps(data), encoding="utf-8")
    before = set(Path().iterdir())
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == case["stdout"]
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(set(Path().iterdir()) - before)
    }
    assert written == case["files"]


HELP = json.loads((Path(__file__).with_name("golden_help.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", HELP, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_errors_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
