"""Benchmark of the aoi-erasure CLI: end-to-end metrics and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Each workload is one real CLI command
(`python -m aoi_erasure.cli ...` with src/ on the path) run in a fresh
process, one at a time: a closed loop with one client. Runs repeat until
S seconds have passed. Each is followed by a reference job, a fresh
process that only imports numpy, whose wall time tracks the host's speed,
and every third is preceded by a fresh process that only imports
aoi_erasure.cli (the set-up time). The metrics are medians over the run.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: it alternates untraced runs with in-process runs under
perfbench/traced.py and adds the library probes of perfbench/probe.py.
--workload all runs every workload in turn.

Every output is checked; an operation is one grid cell or one command
run. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are a readable report
and the environment record. perfbench/README.md explains the workloads
and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "aoi_erasure"

# every run must exit within 180 s; children are killed past this point
RUN_LIMIT_S = 165.0
# one BLAS/OpenMP thread per child, so results do not depend on the core count
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HORIZON = 1e5
SETUP_EVERY = 3  # one set-up probe per this many workload runs

CSV_HEADER = "q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict"
REL_TOL = 0.01  # the CLI's validate tolerance, reused for the simulate check
EPS = 2e-6  # two units in the last printed decimal


# --------------------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns one child at a time and reaps it with os.wait4 for its own rusage."""

    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}

    def run(self, argv: list[str]) -> Child:
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        # a child that would outlive the run's limit is killed; it then counts as failed
        watchdog = threading.Timer(max(self.deadline - time.monotonic(), 1.0), _kill, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        return Child(
            code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
            stdout=out.read_text(),
            stderr=err.read_text(),
        )


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli_argv(args: list[str]) -> list[str]:
    return ["-m", "aoi_erasure.cli", *args]


SETUP_ARGV = ["-c", "import aoi_erasure.cli"]
# Start-up plus a module import, like the first half of every workload
# command, but nothing of the package: no change to it can move this job.
REFERENCE_ARGV = ["-c", "import numpy"]


# --------------------------------------------------------------------------- checks


@dataclass
class Outcome:
    """What the checks found in one command's output."""

    ops: int
    failed: int = 0
    work: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    fields: dict = field(default_factory=dict)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)


def _csv_rows(text: str, out: Outcome) -> list[list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        out.fail(out.ops, "CSV header differs from the fixed header")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 10 for r in rows):
        out.fail(out.ops, "CSV row with a wrong field count")
        return None
    return rows


def _row_key(r: list[str]) -> tuple:
    return (float(r[0]), int(r[1]), r[2], float(r[3]))


def _unsorted(rows: list[list[str]]) -> int:
    """Rows whose (q, M, setting, gamma) key does not strictly follow the previous one."""
    keys = [_row_key(r) for r in rows]
    return sum(1 for a, b in zip(keys, keys[1:]) if not a < b)


def _fmt_list(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Sweep:
    """`sweep` over a (q, M, setting, gamma) grid: closed forms and optimizer only."""

    name: str
    why: str
    qs: tuple[float, ...]
    ms: tuple[int, ...]
    settings: tuple[str, ...]
    gammas: tuple[float, ...]
    work_name: str = "cells_per_s"

    def argv(self, seed: int, tmp: Path) -> list[str]:
        return [
            "sweep", "--q", _fmt_list(self.qs), "--m", _fmt_list(self.ms),
            "--setting", _fmt_list(self.settings), "--gamma", _fmt_list(self.gammas),
            "--seed", str(seed),
        ]

    def check(self, child: Child, tmp: Path) -> Outcome:
        expected = {
            (f"{q:.6f}", str(m), s, f"{g:.6f}")
            for q in self.qs for m in self.ms for s in self.settings for g in self.gammas
        }
        out = Outcome(ops=len(expected), digest=_sha(child.stdout))
        if child.code != 0:
            out.fail(out.ops, f"sweep exited {child.code}")
            return out
        rows = _csv_rows(child.stdout, out)
        if rows is None:
            return out
        out.work = len(rows)
        seen = {tuple(r[:4]) for r in rows}
        if len(seen) != len(rows) or seen != expected:
            out.fail(len(expected ^ seen) + len(rows) - len(seen), "sweep rows differ from the grid")
        if n := _unsorted(rows):
            out.fail(n, "sweep rows out of (q, M, setting, gamma) order")
        bad = sum(1 for r in rows if float(r[4]) < float(r[6]) - EPS or any(r[7:]))
        if bad:
            out.fail(bad, "sweep row below the infinite-battery bound or with simulation fields")
        if bad := self._gamma_star_off(rows):
            out.fail(bad, "gamma_star is not next to the grid minimum of analytic_aoi")
        return out

    def _gamma_star_off(self, rows: list[list[str]]) -> int:
        """Rows whose gamma_star lies more than one grid step from the grid argmin.

        Both closed forms are unimodal in gamma, so the true minimizer is
        within one step of the grid's best point; printed values that tie
        at 6 decimals widen the allowed interval to the whole tie.
        """
        step = max(b - a for a, b in zip(self.gammas, self.gammas[1:]))
        groups: dict[tuple, list[list[str]]] = {}
        for r in rows:
            groups.setdefault(tuple(r[:3]), []).append(r)
        bad = 0
        for group in groups.values():
            best = min(float(r[4]) for r in group)
            ties = [float(r[3]) for r in group if float(r[4]) <= best + EPS]
            lo, hi = min(ties) - step - EPS, max(ties) + step + EPS
            if max(ties) >= max(self.gammas):
                hi = math.inf  # the minimizer may lie beyond the grid
            bad += sum(1 for r in group if not lo <= float(r[5]) <= hi or r[5] != group[0][5])
        return bad


@dataclass(frozen=True)
class Validate:
    """`validate` on a grid of cells (default grid when qs is empty)."""

    name: str
    why: str
    qs: tuple[float, ...] = ()
    ms: tuple[int, ...] = ()
    settings: tuple[str, ...] = ()
    epochs: int | None = None
    default_groups: int = 4 * 4 * 2  # (q, M, setting) triples of the CLI's default grid
    work_name: str = "cells_per_s"

    def argv(self, seed: int, tmp: Path) -> list[str]:
        args = ["validate", "--seed", str(seed)]
        if self.qs:
            args += ["--q", _fmt_list(self.qs), "--m", _fmt_list(self.ms)]
            args += ["--setting", _fmt_list(self.settings)]
        if self.epochs:
            args += ["--epochs", str(self.epochs)]
        return args

    def check(self, child: Child, tmp: Path) -> Outcome:
        groups = len(self.qs) * len(self.ms) * len(self.settings) if self.qs else self.default_groups
        out = Outcome(ops=groups, digest=_sha(child.stdout))
        if child.code not in (0, 3):
            out.fail(out.ops, f"validate exited {child.code}")
            return out
        rows = _csv_rows(child.stdout, out)
        if rows is None:
            return out
        out.ops = len(rows)
        out.work = len(rows)
        if n := _unsorted(rows):
            out.fail(n, "validate rows out of (q, M, setting, gamma) order")
        # each (q, M, setting) has the cells gamma = 0 and gamma = gamma_star, merged when equal
        by_group: dict[tuple, set] = {}
        for r in rows:
            by_group.setdefault(tuple(r[:3]), set()).add(r[3])
        odd = sum(1 for r in rows if by_group[tuple(r[:3])] != {f"{0:.6f}", r[5]})
        if len(by_group) != groups or odd:
            out.fail(odd + abs(groups - len(by_group)), "validate cells differ from {0, gamma_star}")
        fails = sum(1 for r in rows if r[9] == "FAIL")
        if fails:
            out.fail(fails, "validate reported FAIL cells")
        if (child.code == 3) != (fails > 0):
            out.fail(1, f"exit code {child.code} disagrees with {fails} FAIL cells")
        if bad := sum(1 for r in rows if r[9] not in ("PASS", "FAIL") or r[9] != _verdict(r)):
            out.fail(bad, "verdict disagrees with max(3 CI, 1%) on the printed numbers")
        return out


def _verdict(r: list[str]) -> str:
    analytic, mean, ci = float(r[4]), float(r[7]), float(r[8])
    slack = abs(abs(mean - analytic) - max(3.0 * ci, REL_TOL * analytic))
    if slack <= 4 * EPS:
        return r[9]  # too close to call from 6-decimal output
    return "PASS" if abs(mean - analytic) <= max(3.0 * ci, REL_TOL * analytic) else "FAIL"


_KV = re.compile(r"(\w+)=(\S+)")


@dataclass(frozen=True)
class Simulate:
    """`simulate` of one cell; with trace, the event log is written and checked."""

    name: str
    why: str
    q: float
    M: int
    setting: str
    epochs: int
    trace: bool = False
    work_name: str = "epochs_per_s"

    def argv(self, seed: int, tmp: Path) -> list[str]:
        args = [
            "simulate", "--q", str(self.q), "--m", str(self.M), "--setting", self.setting,
            "--epochs", str(self.epochs), "--seed", str(seed),
        ]
        if self.trace:
            args += ["--trace", "--out", str(self.log_path(tmp))]
        return args

    def log_path(self, tmp: Path) -> Path:
        return tmp / "events.log"

    def check(self, child: Child, tmp: Path) -> Outcome:
        out = Outcome(ops=1, digest=_sha(child.stdout))
        if child.code != 0:
            out.fail(1, f"simulate exited {child.code}")
            return out
        f = dict(_KV.findall(child.stdout))
        try:
            n = {k: int(f[k]) for k in ("M", "epochs_per_source", "arrivals", "overflows", "attempts", "successes")}
            mean, ci, gamma = float(f["sim_mean"]), float(f["sim_ci"]), float(f["gamma"])
        except (KeyError, ValueError):
            out.fail(1, "simulate output lacks a field")
            return out
        out.fields = {"sim_mean": mean, "sim_ci": ci, "gamma": gamma}
        ok = (
            n["M"] == self.M
            and n["epochs_per_source"] == self.epochs
            and n["successes"] <= n["attempts"]
            and n["arrivals"] == n["attempts"] + n["overflows"]
            and math.isfinite(mean)
        )
        out.work = self.epochs * self.M
        if self.trace:
            log = self.log_path(tmp).read_bytes()
            lines = log.count(b"\n")
            out.digest += _sha(log)
            out.work = lines
            ok = ok and lines == n["arrivals"] + 2 * n["attempts"]
        if not ok:
            out.fail(1, "simulate counters or event-log size inconsistent")
        return out

    def verify(self, runner: Runner, tmp: Path, fields: dict) -> list[str]:
        """Closed-form agreement and event-log invariants, checked by the package."""
        args = [str(BENCH / "verify.py"), str(self.q), str(self.M), self.setting, repr(fields["gamma"])]
        if self.trace:
            args.append(str(self.log_path(tmp)))
        child = runner.run(args)
        if child.code != 0:
            return [f"verify.py exited {child.code}: {child.stderr.strip()[-200:]}"]
        res = json.loads(child.stdout)
        problems = []
        analytic = res["closed_form_aoi"]
        if abs(fields["sim_mean"] - analytic) > max(3.0 * fields["sim_ci"], REL_TOL * analytic):
            problems.append(f"sim_mean {fields['sim_mean']} is far from the closed form {analytic}")
        if self.trace and res.get("log_error"):
            problems.append(f"event log fails check_invariants: {res['log_error']}")
        return problems


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _grid(lo: float, step: float, n: int) -> tuple[float, ...]:
    return tuple(round(lo + step * i, 10) for i in range(n))


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "sweep-curves",
            "AoI-vs-threshold curves: the only workload where the analytic layer does most of the work",
            qs=_grid(0.1, 0.1, 9),
            ms=tuple(range(1, 9)),
            settings=("nofb", "wfb"),
            gammas=_grid(0.0, 0.05, 61),
        ),
        Validate(
            "validate-grid",
            "default validate grid: epoch engines through stats.validate, no EpochRecord objects",
        ),
        Simulate(
            "simulate-long",
            "5e5-epoch simulate: same engines as validate but through run_simulation and its records",
            q=0.3, M=1, setting="nofb", epochs=500_000,
        ),
        Simulate(
            "traced-run",
            "traced simulate with --out: the pure-Python event loop and the event-log write",
            q=0.3, M=2, setting="wfb", epochs=50_000, trace=True, work_name="events_per_s",
        ),
    )
}


# --------------------------------------------------------------------------- measuring


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set = field(default_factory=set)

    def add(self, out: Outcome) -> None:
        self.attempted += out.ops
        self.failed += out.failed
        self.problems += out.problems
        self.digests.add(out.digest)

    def command(self, child: Child, what: str) -> None:
        """One command run whose only check is its exit code."""
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            self.problems.append(f"{what} exited {child.code}: {child.stderr.strip()[-200:]}")


# The gated end-to-end metrics. The raw wall times drift with the host by
# more than any bound the format allows, so the gate uses the workload's
# wall time divided by the reference job's (README, Noise).
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# printed in the report only
RAW_TIMES = {"wall_s": "s", "work_per_s": "1/s", "ref_s": "s"}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]]  # name -> (median, unit, samples)
    tally: Tally
    raw: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # reported, not gated
    spans: dict[str, list[float]] = field(default_factory=dict)  # last traced run
    missing: list[str] = field(default_factory=list)


def measure(workload, seed: int, seconds: float, trace: bool, runner: Runner, tmp: Path) -> Result:
    tally = Tally()
    warm = runner.run(SETUP_ARGV)  # writes bytecode before anything is timed
    tally.command(warm, "warm-up import")
    if warm.code != 0:
        raise SystemExit(f"error: cannot import aoi_erasure.cli from {SRC}:\n{warm.stderr}")
    argv = workload.argv(seed, tmp)
    spans_path = tmp / "spans.json"
    samples: dict[str, list[float]] = {}
    traces: list[dict] = []
    last: Outcome | None = None
    start = time.monotonic()
    for i in itertools.count():
        if trace:
            commands = [
                ("untraced_s", cli_argv(argv)),
                ("traced_s", [str(BENCH / "traced.py"), str(spans_path), "--", *argv]),
            ]
        else:
            # set-up needs fewer samples than the workload: only its median's drift is bounded
            if i % SETUP_EVERY == 0:
                setup = runner.run(SETUP_ARGV)
                tally.command(setup, "set-up import")
                samples.setdefault("setup_s", []).append(setup.wall_s)
            commands = [("wall_s", cli_argv(argv))]
        for key, command in commands:
            child = runner.run(command)
            last = workload.check(child, tmp)  # before the next run overwrites its output files
            tally.add(last)
            samples.setdefault(key, []).append(child.wall_s)
        if trace and child.code in (0, 3):
            traces.append(json.loads(spans_path.read_text()))
        if not trace:
            # the reference job right after the command runs at nearly the same host speed
            reference = runner.run(REFERENCE_ARGV)
            tally.command(reference, "reference job")
            samples.setdefault("ref_s", []).append(reference.wall_s)
            samples.setdefault("wall_rel", []).append(child.wall_s / reference.wall_s)
            samples.setdefault("peak_rss_mb", []).append(child.peak_rss_mb)
            samples.setdefault("work_per_s", []).append(last.work / child.wall_s)
        # stop before an iteration that would end past --seconds or near the run's limit
        now = time.monotonic()
        per_iteration = (now - start) / (i + 1)
        if now + per_iteration - start > seconds or now + 2 * per_iteration > runner.deadline:
            break
    if len(tally.digests) > 1:
        tally.failed += 1
        tally.problems.append("outputs differ between runs of one seed")
    if isinstance(workload, Simulate) and last is not None and last.fields:
        tally.attempted += 1
        if problems := workload.verify(runner, tmp, last.fields):
            tally.failed += 1
            tally.problems += problems
    if not trace:
        def medians(units: dict[str, str]) -> dict[str, tuple[float, str, int]]:
            return {k: (statistics.median(samples[k]), u, len(samples[k])) for k, u in units.items()}

        return Result(medians(END_TO_END), tally, raw=medians(RAW_TIMES))
    probe = runner.run(["-X", "importtime", str(BENCH / "probe.py"), str(seed), repr(HORIZON)])
    tally.command(probe, "probe.py")
    result = Result(layer_metrics(traces, samples, probe), tally)
    if traces:
        result.spans = span_table(traces[-1]["spans"])
        result.missing = traces[-1]["missing"]
    return result


# --------------------------------------------------------------------------- layers


def span_table(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds]."""
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table: dict[str, list[float]] = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child_time[i]
    return table


def _per(total: float, n: float, scale: float) -> float:
    return total / n * scale if n else 0.0


def traced_values(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced run."""
    table = span_table(trace["spans"])
    count = trace["counts"].get

    def calls(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[2]

    def per_epoch_ns(name: str) -> float:
        return _per(total(name), count(f"{name}.epochs", 0), 1e9)

    events = count("simulator.events", 0)
    attempts, arrivals = count("simulator.attempts", 0), count("simulator.arrivals", 0)
    opt = "analytic.optimize_gamma"
    return {
        "cli.self_s": (own("cli.main"), "s"),
        f"{opt}.calls": (calls(opt), "count"),
        f"{opt}.distinct": (trace["distinct"].get(opt, 0), "count"),
        f"{opt}.us_per_call": (_per(total(opt), calls(opt), 1e6), "us"),
        f"{opt}.self_s": (own(opt), "s"),
        "analytic.closed_form.us_per_call": (_per(total("analytic.closed_form"), calls("analytic.closed_form"), 1e6), "us"),
        "stats.validate.ns_per_epoch": (per_epoch_ns("stats.validate"), "ns"),
        "stats.validate.self_s": (own("stats.validate"), "s"),
        "stats.ratio_estimate.ns_per_epoch": (per_epoch_ns("stats.ratio_estimate"), "ns"),
        "simulator.engine.ns_per_epoch": (per_epoch_ns("simulator.engine"), "ns"),
        "simulator.engine.self_s": (own("simulator.engine"), "s"),
        "simulator.run_simulation.ns_per_epoch": (per_epoch_ns("simulator.run_simulation"), "ns"),
        "simulator.run_simulation.self_s": (own("simulator.run_simulation"), "s"),
        "model.epoch_records": (count("model.epoch_records", 0), "count"),
        "simulator.trace.us_per_event": (_per(total("simulator.trace"), events, 1e6), "us"),
        "simulator.dump.ns_per_event": (_per(total("simulator.dump"), count("simulator.dump.events", 0), 1e9), "ns"),
        "simulator.events": (events, "count"),
        "simulator.arrivals": (arrivals, "count"),
        "simulator.attempts": (attempts, "count"),
        "simulator.success_ratio": (_per(count("simulator.successes", 0), attempts, 1.0), "ratio"),
        "simulator.overflow_ratio": (_per(count("simulator.overflows", 0), arrivals, 1.0), "ratio"),
    }


def import_times(importtime_report: str) -> tuple[float, float]:
    """(aoi_erasure import, outermost scipy imports inside it), in seconds.

    -X importtime prints one line per module after its children, indented
    two spaces per nesting level, with the cumulative time in microseconds.
    """
    entries = []  # (depth, name, cumulative us)
    for line in importtime_report.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(parts[1])))
    total = scipy = 0
    inside = []  # names of the open ancestors, innermost last, rebuilt from the post-order
    for depth, name, cum in reversed(entries):
        del inside[depth:]
        top = inside[0] if inside else name
        if top.split(".")[0] == "aoi_erasure":
            if depth == 0:
                total += cum
            if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in inside):
                scipy += cum
        inside.append(name)
    return total / 1e6, scipy / 1e6


def layer_metrics(traces: list[dict], samples: dict, probe: Child) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for trace in traces:
        for name, (value, unit) in traced_values(trace).items():
            values.setdefault(name, []).append(value)
            units[name] = unit
    metrics = {k: (statistics.median(v), units[k], len(v)) for k, v in values.items()}
    total_s, scipy_s = import_times(probe.stderr)
    metrics["import.total_s"] = (total_s, "s", 1)
    metrics["import.scipy_s"] = (scipy_s, "s", 1)
    lib = json.loads(probe.stdout.splitlines()[-1]) if probe.code == 0 else {}
    per_arrival = _per(lib.get("horizon_s", 0.0), lib.get("horizon_arrivals", 0), 1e6)
    metrics["simulator.horizon.us_per_arrival"] = (per_arrival, "us", 1)
    overhead = statistics.median(samples["traced_s"]) - statistics.median(samples["untraced_s"])
    metrics["tracing.overhead_s"] = (overhead, "s", len(samples["traced_s"]))
    return metrics


# --------------------------------------------------------------------------- report


def environment(loadavg: tuple[float, ...]) -> dict:
    """What the numbers depend on; results from different machines are not comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **{dist: _version(dist) for dist in ("numpy", "scipy")},
        "commit": _commit(),
        "loadavg_start": loadavg,
        "threads": THREAD_ENV,
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(workload, seed: int, trace: bool, result: Result) -> None:
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  ({workload.why})")
    for name, (value, unit, n) in result.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} median of {n}")
    for name, (value, unit, n) in result.raw.items():
        alias = f" [{workload.work_name}]" if name == "work_per_s" else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<6} median of {n}, not gated{alias}")
    t = result.tally
    rate = t.failed / t.attempted if t.attempted else 0.0
    print(f"  {'fail_rate':<40} {rate:>14.6g} ratio  {t.failed} of {t.attempted} operations")
    if result.spans:
        missing = ", ".join(result.missing) or "none"
        print(f"  spans of the last traced run (targets missing: {missing}):")
        for name, (calls, total, own) in result.spans.items():
            print(f"    {name:<28} calls {calls:>8}  total {total:>10.4f} s  self {own:>10.4f} s")
    for problem in dict.fromkeys(t.problems):
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no aoi_erasure package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results: dict[str, Result] = {}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            runner = Runner(tmp, deadline=time.monotonic() + RUN_LIMIT_S)
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), runner, tmp)
            report(WORKLOADS[name], args.seed, bool(args.trace), results[name])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("env " + json.dumps(environment(loadavg)))
    metrics = {
        (f"{name}.{k}" if len(names) > 1 else k): {"value": v[0], "unit": v[1]}
        for name, r in results.items()
        for k, v in r.metrics.items()
    }
    tallies = [r.tally for r in results.values()]
    failed = sum(t.failed for t in tallies)
    line = {
        "correct": failed == 0 and not any(t.problems for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
