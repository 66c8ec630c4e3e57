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
validate and sweep --epochs simulate their cells on two threads where
two CPUs are usable; the rows and messages are those of one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

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


def _cmd_simulate(opts: argparse.Namespace) -> int:
    from .simulator import run_simulation

    q, M, setting = _cell(opts)
    spec = _scalar(_parse_gammas(opts.gamma), "--gamma")
    if opts.out and not opts.trace:
        raise UsageError("--out on simulate needs --trace: it writes the event log")
    # the run is checked before gamma is optimized, so a q it refuses draws no warning
    cfg = SimConfig(q, M, setting, 0.0, target_epochs=opts.epochs, seed=opts.seed, trace=opts.trace)
    gamma = _resolve_gamma(spec, q, M, setting)
    unwritable = None
    try:
        out = open(opts.out, "wb") if opts.out else _Discard() if opts.trace else None
    except OSError as exc:  # the run is still made and printed, then the error reported
        out, unwritable = _Discard(), exc
    try:
        res, _, _ = run_simulation(replace(cfg, gamma=gamma), _with_epochs=False, _out=out)
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
    """Each cell's ValidationRecord, in cell order, on the calling thread and, given two CPUs, one more.

    numpy's draws release the GIL, so a helper thread shares the cells.
    The usable CPUs are the process's affinity set, or os.cpu_count()
    where the platform has no sched_getaffinity. The cells are ordered
    by M: the caller takes the largest left and the helper the smallest,
    so the largest cells start first and run beside small ones, not
    beside each other. Since a cell holds the estimator's window and not
    its epochs, about the same memory at every M, that order moves the
    default grid's peak RSS little: 39.7-39.9 MB, against 39.8-40.2 MB
    with both threads taking the largest cells first (46.5-49.7 against
    49.5-49.6 MB when a cell held its epoch block). A failure stops both
    from starting another cell and is raised here, once the helper has
    stopped.
    """
    import threading
    from collections import deque

    from .stats import validate

    records: list = [None] * len(cells)
    todo = deque(sorted(range(len(cells)), key=lambda i: cells[i][1]))
    failures: list[BaseException] = []
    lock = threading.Lock()  # no cell is taken once a failure is recorded

    def work(take: Callable[[], int]) -> None:
        while True:
            with lock:
                if failures or not todo:
                    return
                i = take()
            q, M, setting, gamma, _ = cells[i]
            try:
                records[i] = validate(q, M, setting, gamma, epochs, seed)
            except BaseException as exc:  # an interrupt too: it stops the helper, then is raised below
                with lock:
                    failures.append(exc)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    helper = threading.Thread(target=work, args=(todo.popleft,)) if cpus > 1 else None
    if helper is not None:
        helper.start()
    try:
        work(todo.pop)
    finally:
        if helper is not None:
            helper.join()
    if failures:
        raise failures[0]
    return records


def _grid_rows(cells: list[tuple], epochs: int | None, seed: int) -> tuple[list[str], list[ValidationRecord]]:
    """The CSV lines of the grid; with epochs, every cell is also simulated and validated."""
    records = [] if epochs is None else _validate_cells(cells, epochs, seed)
    lines = [_CSV_HEADER]
    for i, (q, M, setting, gamma, gamma_star) in enumerate(cells):
        base = baseline_infinite_battery(q, setting)
        if epochs is None:
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
    lines, _ = _grid_rows(_grid_cells(opts), opts.epochs, opts.seed)
    _emit(lines, opts.out)
    return 0


def _cmd_validate(opts: argparse.Namespace) -> int:
    lines, records = _grid_rows(_grid_cells(opts), opts.epochs, opts.seed)
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
