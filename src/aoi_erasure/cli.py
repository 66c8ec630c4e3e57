"""Command-line driver.

Commands: solve, eval, optimize, simulate, sweep, validate. Grid
commands (sweep, validate) emit CSV with the fixed column set

    q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict

in deterministic row order (ascending q, then M, then setting, then
gamma); real-valued fields use fixed 6-decimal formatting, except a q
that six decimals would not read back, printed as its repr. Each flag is
declared once (_FLAGS); each command takes only the flags it reads, named
in _COMMANDS beside its defaults, plus --config, and the command's own
parser refuses any other flag, abbreviations included. A flat
`key = value` config file supplies the command's flags by name: argparse
parses each line as the flag `--key=value`, placed before the explicit
flags, so flags override config values, which override the defaults. A
comma-list flag refuses an empty list. Exit codes: 0 ok, 1 solver,
simulation or allocation failure, 2 usage error, 3 validation FAIL.
simulate prints one seeded run's SimResult as run_simulation returns
it. With --trace, --out receives the event log as the run makes it, a
window of attempts at a time, so the command's memory does not grow
with --epochs; without --out, or where --out cannot be opened (exit 1
once the run is printed), the windows go to a sink that formats no
line. The simulator and stats modules, and
numpy with them, are imported only by the commands that simulate
(simulate, validate, sweep --epochs).
Where os.fork exists and two CPUs are usable, the simulating commands
run in two processes, the caller and one forked helper (_with_helper):
validate and sweep --epochs share their cells with it, and simulate
--trace --out hands it each window of the log to lay out, format and
write, the caller pinned to the CPU it runs on and the writer to the
rest of the usable set (which also needs os.sched_setaffinity,
_writer_pins). The rows, log bytes, messages and exit codes are those
of one process.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, BinaryIO, Callable, Sequence

from .analytic import (
    BracketError,
    baseline_infinite_battery,
    closed_form_aoi,
    optimize_gamma,
    solve_nofb,
    solve_wfb,
)
from .model import Feedback, SimConfig

if TYPE_CHECKING:
    from .model import SimResult
    from .stats import ValidationRecord

_CSV_HEADER = "q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict"


class UsageError(Exception):
    """Bad arguments or config values; maps to exit code 2."""


class _Discard:
    """A binary file for a log no one reads: writelines drops EventLog.dump's line generator unstarted."""

    def writelines(self, lines: object) -> None:
        pass

    def close(self) -> None:
        pass


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _fmt_q(q: float) -> str:
    """q with six decimals where they read back as q, else its shortest round-trip repr."""
    return _fmt(q) if float(_fmt(q)) == q else repr(q)


def _parse_list(text: str, flag: str, parse: Callable) -> list:
    """The values of a comma list; blank tokens are skipped and an empty list is refused."""
    values = [parse(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


def _parse_numbers(text: str, flag: str, kind: type = float) -> list:
    try:
        return _parse_list(text, flag, kind)
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {noun}, got {text!r}") from None


def _setting(tok: str) -> Feedback:
    try:
        return Feedback(tok)
    except ValueError:
        raise UsageError(f"--setting must be nofb or wfb, got {tok!r}") from None


def _parse_settings(text: str) -> list[Feedback]:
    return _parse_list(text, "--setting", _setting)


def _gamma(tok: str) -> float | str:
    """A number or 'optimal'; the library checks the number's domain."""
    tok = tok.strip().lower()
    if tok == "optimal":
        return tok
    try:
        return float(tok)
    except ValueError:
        raise UsageError(f"--gamma expects numbers or 'optimal', got {tok!r}") from None


def _parse_gammas(text: str) -> list[float | str]:
    """Comma list of thresholds; the token 'optimal' is resolved per cell."""
    return _parse_list(text, "--gamma", _gamma)


def _scalar(values: list, flag: str):
    if len(values) != 1:
        raise UsageError(f"{flag} expects a single value for this command")
    return values[0]


_TRACE_ON, _TRACE_OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _config_flags(path: str, command: str) -> list[str]:
    """The lines of a flat `key = value` file as `--key=value` flags of command."""
    flags: list[str] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key not in _COMMANDS[command][2]:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
        if key != "trace":
            flags.append(f"--{key}={val}")
        elif val.lower() in _TRACE_ON:
            flags.append("--trace")
        elif val.lower() not in _TRACE_OFF:
            raise UsageError(f"trace must be one of 1/true/yes/on or 0/false/no/off, got {val!r}")
    return flags


def _resolve_gamma(spec: float | str, q: float, M: int, setting: Feedback, star: float | None = None) -> float:
    """The threshold a spec names; 'optimal' is gamma_star: star if given, else optimized here."""
    if spec != "optimal":
        return float(spec)
    return optimize_gamma(q, M, setting)[0] if star is None else star


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cell(opts: argparse.Namespace) -> tuple[float, int, Feedback]:
    """The one (q, M, setting) of a single-cell command; M is 1 where it takes no --m."""
    if opts.q is None or opts.setting is None:
        raise UsageError(f"{opts.command} requires --q and --setting")
    q = _scalar(_parse_numbers(opts.q, "--q"), "--q")
    M = _scalar(_parse_numbers(opts.m, "--m", int), "--m") if "m" in opts else 1
    setting = _scalar(_parse_settings(opts.setting), "--setting")
    return q, M, setting


def _cmd_solve(opts: argparse.Namespace) -> int:
    q, _, setting = _cell(opts)
    sol = solve_nofb(q) if setting is Feedback.NOFB else solve_wfb(q)
    print(
        f"regime={sol.regime.value} lambda_star={_fmt(sol.lambda_star)} "
        f"threshold={_fmt(sol.threshold)} q={_fmt_q(sol.q)} setting={setting.value}"
    )
    return 0


def _cmd_eval(opts: argparse.Namespace) -> int:
    q, M, setting = _cell(opts)
    gamma = _resolve_gamma(_scalar(_parse_gammas(opts.gamma), "--gamma"), q, M, setting)
    aoi = closed_form_aoi(q, M, setting, gamma)
    print(
        f"q={_fmt_q(q)} M={M} setting={setting.value} gamma={_fmt(gamma)} "
        f"analytic_aoi={_fmt(aoi)} baseline_inf_battery={_fmt(baseline_infinite_battery(q, setting))}"
    )
    return 0


def _cmd_optimize(opts: argparse.Namespace) -> int:
    q, M, setting = _cell(opts)
    gamma, aoi = optimize_gamma(q, M, setting)
    print(f"q={_fmt_q(q)} M={M} setting={setting.value} gamma_star={_fmt(gamma)} aoi={_fmt(aoi)}")
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count() where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _forking(command: Callable) -> Callable:
    """command, with Python 3.12's warning on a fork beside other OS threads (OpenBLAS's pool) filtered.

    The helper processes call no BLAS. The filter spans the whole
    command: a filter's change resets the warning registry, so a warning
    given before the fork would be given again after it.
    """

    def run(*args):
        import warnings

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            return command(*args)

    return run


def _this_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _writer_pins() -> tuple[set[int], set[int]] | None:
    """The CPUs of the traced command and of its log writer, or None where the writer is not forked.

    The command keeps the CPU it runs on and the writer gets the rest of
    the usable set, so the two never share a CPU: Linux starts a forked
    child on its parent's CPU and each pipe wakeup pulls it back there,
    which made an unpinned writer slower than none. Keeping the CPU the
    scheduler chose leaves commands that run at once where it spread
    them. None without os.fork or os.sched_setaffinity, with fewer than
    two usable CPUs, or where this CPU cannot be read.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return None
    mask, here = os.sched_getaffinity(0), _this_cpu()
    if len(mask) < 2 or here not in mask:
        return None
    return {here}, mask - {here}


def _pin(cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # the usable set changed since it was read; pinning only places the work
        pass


def _with_helper(helper: Callable[[int], object], caller: Callable[[Callable[[], object]], object],
                 pins: tuple[set[int], set[int]] | None = None, grace: float = 0.0) -> object:
    """caller(result) here, while helper(this process's pid) runs in a forked helper process.

    result() waits for what helper returned, or raises what it raised,
    pickled back down a pipe. The helper ignores SIGINT, which the caller
    handles, and leaves by os._exit. An exception here, an interrupt too,
    gives the helper grace seconds to end by itself and then kills it
    with SIGKILL; it is always reaped. With pins, this process and the
    helper run on pins[0] and pins[1] until then, and this process's set
    is restored.
    """
    import pickle
    import signal
    import time

    mask = os.sched_getaffinity(0) if pins else None
    parent = os.getpid()
    results_r, results_w = os.pipe()
    with open(results_r, "rb") as results, open(results_w, "wb") as sent:
        pid = os.fork()
        if pid == 0:
            try:
                results.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                if pins:
                    _pin(pins[1])
                try:
                    out = helper(parent)
                except BaseException as exc:
                    out = exc
                pickle.dump(out, sent)
                sent.close()
            finally:
                os._exit(0)
        sent.close()

        def result() -> object:
            out = pickle.load(results) if results.peek(1) else RuntimeError("the helper process was killed")
            if isinstance(out, BaseException):
                raise out
            return out

        reaped = False
        try:
            if pins:
                _pin(pins[0])
            return caller(result)
        except BaseException:
            try:
                deadline = time.monotonic() + grace
                while not (reaped := os.waitpid(pid, os.WNOHANG)[0] == pid) and time.monotonic() < deadline:
                    time.sleep(0.005)
            finally:
                if not reaped:
                    os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if not reaped:
                os.waitpid(pid, 0)
            if pins:
                _pin(mask)


def _write_beside(cfg: SimConfig, out: BinaryIO, pins: tuple[set[int], set[int]]) -> SimResult:
    """The traced run of cfg, made here on pins[0] while a forked writer on pins[1] writes its log into out.

    Each window's arrays (about 75 KB) are pickled down a pipe, which the
    writer reads a window at a time, laying out, formatting and writing
    its log as the one-process command does (_dump_windows); a full pipe
    holds the run back, so neither process holds more than a few
    windows. None ends the log. The writer stops at an EOF without that
    end, where its parent has gone or the run has raised, and closes out
    in every case, so the log keeps the windows sent so far, whole. A
    write error there is raised here as the writer raised it, not as the
    broken pipe the run then meets. A run that raises gives the writer a
    second to finish before it is killed.
    """
    import pickle

    from .simulator import _dump_windows, run_simulation

    windows_r, windows_w = os.pipe()
    with open(windows_r, "rb") as windows, open(windows_w, "wb", buffering=0) as to_writer:

        def write(_parent: int) -> None:
            to_writer.close()  # so the writer sees an EOF once its parent has gone
            dump = _dump_windows(out)
            try:
                while (window := pickle.load(windows)) is not None:
                    dump(window)
            finally:
                out.close()

        def put(window: object) -> None:
            view = memoryview(pickle.dumps(window, protocol=5))
            while view:  # a raw write to a pipe may take part of it
                view = view[to_writer.write(view):]

        def run(result: Callable[[], object]) -> SimResult:
            windows.close()  # so a write fails once the writer has gone
            try:
                res, _, _ = run_simulation(cfg, _with_epochs=False, _out=put)
                put(None)
            except BrokenPipeError:
                result()
                raise
            except BaseException:
                to_writer.close()  # the writer writes what it got, then stops
                raise
            result()
            return res

        return _with_helper(write, run, pins, grace=1.0)


@_forking
def _cmd_simulate(opts: argparse.Namespace) -> int:
    from .simulator import run_simulation

    q, M, setting = _cell(opts)
    spec = _scalar(_parse_gammas(opts.gamma), "--gamma")
    if opts.out and not opts.trace:
        raise UsageError("--out on simulate needs --trace: it writes the event log")
    # the run is checked before gamma is optimized, so a q it refuses draws no warning
    cfg = SimConfig(q, M, setting, 0.0, target_epochs=opts.epochs, seed=opts.seed, trace=opts.trace)
    gamma = _resolve_gamma(spec, q, M, setting)
    cfg = replace(cfg, gamma=gamma)
    unwritable = None
    try:
        out = open(opts.out, "wb") if opts.out else _Discard() if opts.trace else None
    except OSError as exc:  # the run is still made and printed, then the error reported
        out, unwritable = _Discard(), exc
    # a forked writer, pinned apart from this process, writes the log into an --out that opened
    pins = _writer_pins() if opts.out and unwritable is None else None
    try:
        if pins:
            res = _write_beside(cfg, out, pins)
        else:
            res, _, _ = run_simulation(cfg, _with_epochs=False, _out=out)
    finally:
        if out is not None:
            out.close()
    print(
        f"q={_fmt_q(q)} M={M} setting={setting.value} gamma={_fmt(gamma)} "
        f"sim_mean={_fmt(res.mean_aoi)} sim_ci={_fmt(res.ci_half_width)} epochs_per_source={res.epochs_per_source} "
        f"arrivals={res.arrivals} overflows={res.overflows} attempts={res.attempts} "
        f"successes={res.successes} seed={res.seed}"
    )
    if unwritable is not None:
        raise unwritable
    return 0


def _grid_cells(opts: argparse.Namespace) -> list[tuple[float, int, Feedback, float, float]]:
    """Deduplicated, sorted (q, M, setting, gamma, gamma_star) grid cells.

    gamma_star is optimized once per (q, M, setting) and serves both the
    'optimal' gamma token and the gamma_star column. When the grid
    simulates, each (q, M, setting) run is checked first.
    """
    if opts.q is None or opts.setting is None:
        raise UsageError(f"{opts.command} requires --q and --setting (comma lists allowed)")
    qs = _parse_numbers(opts.q, "--q")
    ms = _parse_numbers(opts.m, "--m", int)
    settings = _parse_settings(opts.setting)
    gamma_specs = _parse_gammas(opts.gamma)
    if opts.epochs is not None:
        # importing numpy resets the once-per-location warning registry, so it comes
        # before the first check: then a q close to 1 warns here and not again in the cells
        from . import stats  # noqa: F401
    cells = []
    seen = set()
    for q in qs:
        for M in ms:
            for setting in settings:
                if opts.epochs is not None:  # as in simulate, a refused run draws no optimizer warning
                    SimConfig(q, M, setting, 0.0, target_epochs=opts.epochs, seed=opts.seed)
                gamma_star, _ = optimize_gamma(q, M, setting)
                for spec in gamma_specs:
                    gamma = _resolve_gamma(spec, q, M, setting, gamma_star)
                    key = (round(q, 12), M, setting, round(gamma, 12))
                    if key in seen:
                        continue
                    seen.add(key)
                    cells.append((q, M, setting, gamma, gamma_star))
    cells.sort(key=lambda c: (c[0], c[1], c[2].value, c[3]))
    return cells


def _validate_cells(cells: list[tuple], epochs: int, seed: int) -> list[ValidationRecord]:
    """Each cell's ValidationRecord, in cell order, from this process and, given two CPUs, a forked helper.

    Where os.fork exists and two CPUs are usable (_usable_cpus), each
    process holds one cell at a time, the helper started by _with_helper;
    elsewhere the cells run here. Both claim cells, largest M first, from
    a pipe that holds only the next position, read by the claimer and
    written back, so no write blocks; a failed cell writes back the end.
    The helper's records or its failure come back as _with_helper returns
    them, and the helper starts no cell once its parent has gone.
    """
    from .stats import validate

    order = sorted(range(len(cells)), key=lambda i: cells[i][1])[::-1]  # largest M first, equal Ms last cell first
    queue_r, queue_w = os.pipe()
    os.write(queue_w, bytes(8))

    def claim(stop: bool = False) -> int:
        k = int.from_bytes(os.read(queue_r, 8), "little")
        os.write(queue_w, (len(order) if stop else min(k + 1, len(order))).to_bytes(8, "little"))
        return k

    def work(parent: int | None = None) -> dict[int, ValidationRecord]:
        done = {}
        while parent in (None, os.getppid()) and (k := claim()) < len(order):
            q, M, setting, gamma, _ = cells[order[k]]
            try:
                done[order[k]] = validate(q, M, setting, gamma, epochs, seed)
            except BaseException:
                claim(stop=True)
                raise
        return done

    try:
        if _usable_cpus() > 1 and hasattr(os, "fork"):
            # unpinned: the grid's processes rarely wake each other, and pinning them gained nothing
            records = _with_helper(work, lambda result: {**work(), **result()})
        else:
            records = work()
    finally:
        os.close(queue_r), os.close(queue_w)
    return [records[i] for i in range(len(cells))]


@_forking
def _grid_rows(opts: argparse.Namespace) -> tuple[list[str], list[ValidationRecord]]:
    """The CSV lines of the grid; with --epochs, every cell is also simulated and validated."""
    cells = _grid_cells(opts)
    records = [] if opts.epochs is None else _validate_cells(cells, opts.epochs, opts.seed)
    lines = [_CSV_HEADER]
    for i, (q, M, setting, gamma, gamma_star) in enumerate(cells):
        base = baseline_infinite_battery(q, setting)
        if opts.epochs is None:
            analytic, sim = closed_form_aoi(q, M, setting, gamma), ",,"
        else:
            rec = records[i]
            analytic, sim = rec.analytic, f"{_fmt(rec.sim_mean)},{_fmt(rec.sim_ci)},{rec.verdict}"
        lines.append(
            f"{_fmt_q(q)},{M},{setting.value},{_fmt(gamma)},{_fmt(analytic)},"
            f"{_fmt(gamma_star)},{_fmt(base)},{sim}"
        )
    return lines, records


def _cmd_sweep(opts: argparse.Namespace) -> int:
    lines, _ = _grid_rows(opts)
    _emit(lines, opts.out)
    return 0


def _cmd_validate(opts: argparse.Namespace) -> int:
    lines, records = _grid_rows(opts)
    _emit(lines, opts.out)
    wide = sum(rec.leans_on_ci for rec in records)
    if wide:
        print(
            f"warning: CI too wide for the {records[0].rel_tol:.0%} tolerance in {wide} of "
            f"{len(records)} cells; verdicts there lean on the 3-CI criterion",
            file=sys.stderr,
        )
    return 0 if all(rec.passed for rec in records) else 3


# each command takes --config and the flags _COMMANDS names for it, which are also its config keys;
# the parser adds "; comma list" on the grid commands and the default where there is one
_FLAGS = {
    "q": dict(help="erasure probability"),
    "m": dict(default="1", help="number of sources"),
    "setting": dict(help="nofb or wfb"),
    "gamma": dict(default="optimal", help="threshold or 'optimal'"),
    "epochs": dict(type=int, help="target epochs per source"),
    "seed": dict(type=int, default=1, help="RNG seed"),
    "out": dict(help="output path (default stdout)"),
    "config": dict(help="flat key=value config file; flags override it"),
    "trace": dict(action="store_true", help="keep the event log"),
}

_LISTS = ("q", "m", "setting", "gamma")  # comma lists on the grid commands, one value elsewhere
_GRID = (*_LISTS, "epochs", "seed", "out")  # grid cells are untraced single runs
# command: (function, help, flags it reads, defaults other than those in _FLAGS)
_COMMANDS = {
    "solve": (_cmd_solve, "solve the optimal single-source policy for one q", ("q", "setting"), {}),
    "eval": (_cmd_eval, "evaluate the closed-form AoI at one (q, M, setting, gamma)",
             ("q", "m", "setting", "gamma"), {}),
    "optimize": (_cmd_optimize, "find the AoI-minimizing threshold for one (q, M, setting)",
                 ("q", "m", "setting"), {}),
    "simulate": (_cmd_simulate, "run the discrete-event simulator for one cell",
                 (*_GRID, "trace"), {"epochs": 10000}),
    "sweep": (_cmd_sweep, "emit a CSV over a (q, M, setting, gamma) grid", _GRID, {}),
    # with no grid flags, validate runs the full default validation grid
    "validate": (_cmd_validate, "simulate a grid and compare against the closed forms", _GRID, {
        "q": "0.1,0.3,0.5,0.7", "m": "1,2,4,8", "setting": "nofb,wfb", "gamma": "0,optimal", "epochs": 100000,
    }),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the parser of each command."""
    parser = argparse.ArgumentParser(
        prog="aoi-erasure",
        description="Average age-of-information analytics and simulation for a "
        "unit-battery energy-harvesting sensor on an erasure channel.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, spec in _FLAGS.items():
            if flag in flags or flag == "config":
                text = spec["help"] + ("; comma list" if flags == _GRID and flag in _LISTS else "")
                if defaults.get(flag, spec.get("default")) not in (None, False):
                    text += " (default %(default)s)"
                p.add_argument(f"--{flag}", **{**spec, "help": text})
        p.set_defaults(**defaults)
    return parser, sub.choices


def _parse(parser: argparse.ArgumentParser, commands: dict, argv: list[str]) -> argparse.Namespace:
    # argparse hands a command's unknown flags up to the top-level parser;
    # the command's own parser refuses them, so the usage line is the command's
    args, extras = parser.parse_known_args(argv)
    if extras:
        commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = _parse(parser, commands, argv)
        if args.config:
            # config flags go right after the command, so explicit flags win
            at = argv.index(args.command) + 1
            args = _parse(parser, commands, [*argv[:at], *_config_flags(args.config, args.command), *argv[at:]])
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    # BracketError is a ValueError, so the exit-1 clause comes first
    except (BracketError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
