"""Every row of the golden corpus (tests/golden_cli.json) keeps its bytes.

Each row runs through cli.main in-process, in an empty working directory,
and must give the exit code and the digests of stdout, stderr and the
--out file that tests/record_golden_cli.py recorded from a fresh process.
Warnings print to stderr as they would there: once per line that warns,
counted afresh for each command.
"""

import json
import sys
import warnings

import pytest

from aoi_erasure.cli import main
from record_golden_cli import TABLE, digests

ROWS = json.loads(TABLE.read_text())


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _id(args: list[str]) -> str:
    return " ".join(a if len(a) < 40 else a[:30] + "..." for a in args) or "(no args)"


@pytest.mark.parametrize("row", ROWS, ids=[_id(row["args"]) for row in ROWS])
def test_cli_output_keeps_its_bytes(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        warnings.showwarning = _print_warning
        code = main(row["args"])
    captured = capsys.readouterr()
    assert digests(code, captured.out, captured.err, tmp_path, row["args"]) == row
