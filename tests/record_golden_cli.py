"""Record the golden corpus of CLI outputs: tests/golden_cli.json.

    PYTHONPATH=src python tests/record_golden_cli.py

Each row of ROWS runs once as `python -m aoi_erasure.cli ARGS` in a fresh
process, in an empty working directory, so a relative --out path lands
there. The table keeps, per row, the exit code and the sha256 of stdout,
of stderr and of the --out file (null when none is written).
tests/test_golden_cli.py runs every row through cli.main in-process and
requires the same digests. A change that moves an output re-records the
table and says which rows moved and why.

stderr is hashed after normalize_stderr: a warnings line starts with the
absolute path of the module that warned, which depends on where the
package lives, so only the path from the package directory on is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "golden_cli.json"

_TRACED = ["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "50000", "--trace",
           "--out", "events.log", "--seed"]
_SWEEP = ["sweep", "--q", "0.1,0.3,0.5", "--m", "1,2", "--setting", "nofb,wfb"]
# perfbench's sweep-curves workload: 8,784 closed-form cells
_CURVES = ["sweep", "--q", ",".join(str(round(0.1 + 0.1 * i, 10)) for i in range(9)), "--m", "1,2,3,4,5,6,7,8",
           "--setting", "nofb,wfb", "--gamma", ",".join(str(round(0.05 * i, 10)) for i in range(61)), "--seed", "1"]

ROWS: list[list[str]] = [
    *(["validate", "--seed", s] for s in ("1", "2", "3")),
    _SWEEP,
    [*_SWEEP, "--epochs", "3000"],
    [*_SWEEP, "--epochs", "3000", "--out", "grid.csv"],
    _CURVES,
    *([*_TRACED, s] for s in ("1", "2", "3")),
    ["simulate", "--q", "0.3", "--m", "3", "--setting", "nofb", "--gamma", "0.2", "--epochs", "20000"],
    ["simulate", "--q", "0.7", "--m", "1", "--setting", "wfb", "--epochs", "3000", "--seed", "4", "--trace",
     "--out", "events.log"],
    *(["solve", "--q", q, "--setting", s] for q in ("0", "0.3", "0.9") for s in ("nofb", "wfb")),
    *(["eval", "--q", q, "--m", "2", "--setting", s] for q in ("0.1", "0.5") for s in ("nofb", "wfb")),
    ["eval", "--q", "0.3", "--m", "4", "--setting", "wfb", "--gamma", "1.5"],
    *(["optimize", "--q", q, "--m", m, "--setting", s] for q, m in (("0.1", "2"), ("0.3", "1"), ("0.7", "8"))
      for s in ("nofb", "wfb")),
    # a q close to 1 warns on stderr
    ["solve", "--q", "0.9995", "--setting", "nofb"],
    ["sweep", "--q", "0.3,0.9995", "--m", "1,2", "--setting", "wfb", "--epochs", "100"],
    # usage errors, one per message class: exit 2
    [],
    ["solve", "--q", "0.3", "--sett", "nofb"],
    ["simulate", "--q", "0.3", "--setting", "nofb", "--epochs", "many"],
    ["solve", "--setting", "nofb"],
    ["sweep", "--q", "0.3"],
    ["solve", "--q", "0.3", "--setting", "fb"],
    ["eval", "--q", "abc", "--setting", "nofb"],
    ["sweep", "--q", "0.3", "--m", "1.5", "--setting", "nofb"],
    ["sweep", "--q", ",", "--setting", "nofb"],
    ["eval", "--q", "0.3", "--setting", "nofb", "--gamma", "best"],
    ["solve", "--q", "0.1,0.2", "--setting", "nofb"],
    ["simulate", "--q", "0.3", "--setting", "nofb", "--out", "events.log"],
    ["solve", "--q", "1.5", "--setting", "nofb"],
    ["optimize", "--q", "0.3", "--m", "0", "--setting", "nofb"],
    ["eval", "--q", "0.3", "--setting", "nofb", "--gamma", "-1"],
    ["simulate", "--q", "0.3", "--setting", "nofb", "--epochs", "0"],
    ["solve", "--config", "missing.cfg"],
    # an unwritable --out: exit 1
    [*_SWEEP, "--out", "missing/grid.csv"],
    ["simulate", "--q", "0.3", "--setting", "nofb", "--epochs", "100", "--trace", "--out", "missing/events.log"],
    # the trace engine's edges: a short threshold over round-robin sources, many overflows
    # per attempt, and sources stored above uint8
    ["simulate", "--q", "0.3", "--m", "3", "--setting", "nofb", "--gamma", "0.2", "--epochs", "5000", "--seed", "5",
     "--trace", "--out", "events.log"],
    ["simulate", "--q", "0.2", "--m", "2", "--setting", "nofb", "--gamma", "6", "--epochs", "2000", "--seed", "7",
     "--trace", "--out", "events.log"],
    ["simulate", "--q", "0.3", "--m", "300", "--setting", "wfb", "--epochs", "4", "--seed", "2", "--trace",
     "--out", "events.log"],
    # traced runs over many of the trace engine's attempt windows: a long run, round-robin
    # sources under a short threshold, and about ten attempts an epoch
    ["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "200000", "--trace", "--out", "events.log",
     "--seed", "4"],
    ["simulate", "--q", "0.3", "--m", "3", "--setting", "nofb", "--gamma", "0.2", "--epochs", "20000", "--seed", "6",
     "--trace", "--out", "events.log"],
    ["simulate", "--q", "0.9", "--m", "1", "--setting", "wfb", "--epochs", "5000", "--seed", "8", "--trace",
     "--out", "events.log"],
    # a traced run without --out: the log is made and written nowhere
    ["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "50000", "--trace", "--seed", "1"],
]

_WARNING_PATH = re.compile(r"^.*?(?=aoi_erasure[\\/]\w+\.py:\d+: )", re.MULTILINE)


def normalize_stderr(text: str) -> str:
    """stderr with each warning line's path cut to start at the package directory."""
    return _WARNING_PATH.sub("", text)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def out_file(args: list[str]) -> str | None:
    return args[args.index("--out") + 1] if "--out" in args else None


def digests(code: int, stdout: str, stderr: str, cwd: Path, args: list[str]) -> dict:
    out = out_file(args)
    written = out is not None and (cwd / out).is_file()
    return {
        "args": args,
        "exit": code,
        "stdout": sha(stdout.encode()),
        "stderr": sha(normalize_stderr(stderr).encode()),
        "out": sha((cwd / out).read_bytes()) if written else None,
    }


def record(args: list[str]) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80", "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "aoi_erasure.cli", *args], cwd=tmp, env=env,
                              capture_output=True, text=True, check=False)
        return digests(proc.returncode, proc.stdout, proc.stderr, Path(tmp), args)


def main() -> int:
    rows = [record(args) for args in ROWS]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
