"""Command-line driver.

Commands: solve, eval, optimize, simulate, sweep, validate. Grid
commands (sweep, validate) emit CSV with the fixed column set

    q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict

in deterministic row order (ascending q, then M, then setting, then
gamma); real-valued fields use fixed 6-decimal formatting. A flat
`key = value` config file can supply any flag's value; explicit flags
win. Exit codes: 0 ok, 1 solver or simulation failure, 2 usage error,
3 validation FAIL.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analytic import (
    BracketError,
    baseline_infinite_battery,
    optimize_gamma,
    solve_nofb,
    solve_wfb,
)
from .model import Feedback
from .simulator import make_config, run_simulation
from .stats import Moments, ValidationRecord, closed_form_aoi, validate

_CSV_HEADER = "q,M,setting,gamma,analytic_aoi,gamma_star,baseline_inf_battery,sim_mean,sim_ci,verdict"
_REL_TOL = 0.01  # validate's relative tolerance on every grid cell


class UsageError(Exception):
    """Bad arguments or config values; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _parse_numbers(text: str, flag: str, kind: type = float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {noun}, got {text!r}") from None


def _parse_settings(text: str) -> list[Feedback]:
    out = []
    for tok in text.split(","):
        if tok.strip() == "":
            continue
        try:
            out.append(Feedback(tok))
        except ValueError:
            raise UsageError(f"--setting must be nofb or wfb, got {tok!r}") from None
    if not out:
        raise UsageError("--setting is empty")
    return out


def _parse_gammas(text: str) -> list[float | str]:
    """Comma list of thresholds; the token 'optimal' is resolved per cell."""
    out: list[float | str] = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok == "":
            continue
        if tok == "optimal":
            out.append("optimal")
            continue
        try:
            val = float(tok)
        except ValueError:
            raise UsageError(f"--gamma expects numbers or 'optimal', got {tok!r}") from None
        if val < 0.0:
            raise UsageError("--gamma must be nonnegative")
        out.append(val)
    if not out:
        raise UsageError("--gamma is empty")
    return out


def _scalar(values: list, flag: str):
    if len(values) != 1:
        raise UsageError(f"{flag} expects a single value for this command")
    return values[0]


_CONFIG_KEYS = ("q", "m", "setting", "gamma", "epochs", "seed", "replications", "out", "trace")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
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
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _merged(args: argparse.Namespace) -> dict:
    """Flags override config values, which override built-in defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def pick(name: str, default):
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            return flag_val
        return cfg.get(name, default)

    out = {
        "q": pick("q", None),
        "m": pick("m", None),
        "setting": pick("setting", None),
        "gamma": pick("gamma", None),
        "out": pick("out", None),
    }
    for name, default in (("epochs", None), ("seed", 1), ("replications", 1)):
        val = pick(name, default)
        if isinstance(val, str):
            try:
                val = int(val)
            except ValueError:
                raise UsageError(f"{name} must be an integer, got {val!r}") from None
        out[name] = val
    trace = pick("trace", False)
    if isinstance(trace, str):
        word = trace.lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise UsageError(f"trace must be one of 1/true/yes/on or 0/false/no/off, got {trace!r}")
        trace = word in ("1", "true", "yes", "on")
    out["trace"] = bool(trace)
    return out


def _resolve_gamma(spec: float | str, q: float, M: int, setting: Feedback) -> float:
    if spec == "optimal":
        gamma, _ = optimize_gamma(q, M, setting)
        return gamma
    return float(spec)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _cell(opts: dict, command: str) -> tuple[float, int, Feedback]:
    """The one (q, M, setting) of a single-cell command; M defaults to 1."""
    if opts["q"] is None or opts["setting"] is None:
        raise UsageError(f"{command} requires --q and --setting")
    q = _scalar(_parse_numbers(opts["q"], "--q"), "--q")
    M = _scalar(_parse_numbers(opts["m"] or "1", "--m", int), "--m")
    setting = _scalar(_parse_settings(opts["setting"]), "--setting")
    return q, M, setting


def _print_only(opts: dict, command: str) -> tuple[float, int, Feedback]:
    """The cell of a command that prints one line and writes no file."""
    if opts["out"]:
        raise UsageError(f"--out is not supported by {command}: it prints one line to stdout")
    return _cell(opts, command)


def _cmd_solve(opts: dict) -> int:
    q, _, setting = _print_only(opts, "solve")
    sol = solve_nofb(q) if setting is Feedback.NOFB else solve_wfb(q)
    print(
        f"regime={sol.regime.value} lambda_star={_fmt(sol.lambda_star)} "
        f"threshold={_fmt(sol.threshold)} q={_fmt(sol.q)} setting={setting.value}"
    )
    return 0


def _cmd_eval(opts: dict) -> int:
    q, M, setting = _print_only(opts, "eval")
    gamma_spec = _scalar(_parse_gammas(opts["gamma"] or "optimal"), "--gamma")
    gamma = _resolve_gamma(gamma_spec, q, M, setting)
    aoi = closed_form_aoi(q, M, setting, gamma)
    print(
        f"q={_fmt(q)} M={M} setting={setting.value} gamma={_fmt(gamma)} "
        f"analytic_aoi={_fmt(aoi)} baseline_inf_battery={_fmt(baseline_infinite_battery(q, setting))}"
    )
    return 0


def _cmd_optimize(opts: dict) -> int:
    q, M, setting = _print_only(opts, "optimize")
    gamma, aoi = optimize_gamma(q, M, setting)
    print(f"q={_fmt(q)} M={M} setting={setting.value} gamma_star={_fmt(gamma)} aoi={_fmt(aoi)}")
    return 0


def _cmd_simulate(opts: dict) -> int:
    q, M, setting = _cell(opts, "simulate")
    gamma_spec = _scalar(_parse_gammas(opts["gamma"] or "optimal"), "--gamma")
    gamma = _resolve_gamma(gamma_spec, q, M, setting)
    epochs = 10000 if opts["epochs"] is None else opts["epochs"]
    reps = opts["replications"]
    if reps < 1:
        raise UsageError("--replications must be at least 1")
    if opts["trace"] and reps > 1:
        raise UsageError("--trace supports a single replication")
    if opts["out"] and not opts["trace"]:
        raise UsageError("--out on simulate needs --trace: it writes the event log")

    pooled = Moments()
    arrivals = overflows = attempts = successes = 0
    log = None
    for r in range(reps):
        cfg = make_config(
            q, M, setting, gamma, target_epochs=epochs, seed=opts["seed"] + r, trace=opts["trace"]
        )
        result, run_epochs, log = run_simulation(cfg)
        if reps > 1:
            pooled.merge(Moments.of(run_epochs.y, run_epochs.R))
        arrivals += result.arrivals
        overflows += result.overflows
        attempts += result.attempts
        successes += result.successes
    point, ci = pooled.estimate() if reps > 1 else (result.mean_aoi, result.ci_half_width)
    print(
        f"q={_fmt(q)} M={M} setting={setting.value} gamma={_fmt(gamma)} "
        f"sim_mean={_fmt(point)} sim_ci={_fmt(ci)} epochs_per_source={epochs} "
        f"replications={reps} arrivals={arrivals} overflows={overflows} "
        f"attempts={attempts} successes={successes} seed={opts['seed']}"
    )
    if opts["out"]:
        log.dump(opts["out"])
    return 0


def _grid_cells(opts: dict, default_gammas: str) -> list[tuple[float, int, Feedback, float, float]]:
    """Deduplicated, sorted (q, M, setting, gamma, gamma_star) grid cells.

    gamma_star is optimized once per (q, M, setting) and serves both the
    'optimal' gamma token and the gamma_star column.
    """
    qs = _parse_numbers(opts["q"], "--q")
    ms = _parse_numbers(opts["m"] or "1", "--m", int)
    settings = _parse_settings(opts["setting"])
    gamma_specs = _parse_gammas(opts["gamma"] or default_gammas)
    cells = []
    seen = set()
    for q in qs:
        for M in ms:
            for setting in settings:
                gamma_star, _ = optimize_gamma(q, M, setting)
                for spec in gamma_specs:
                    gamma = gamma_star if spec == "optimal" else float(spec)
                    key = (round(q, 12), M, setting, round(gamma, 12))
                    if key in seen:
                        continue
                    seen.add(key)
                    cells.append((q, M, setting, gamma, gamma_star))
    cells.sort(key=lambda c: (c[0], c[1], c[2].value, c[3]))
    return cells


def _grid_rows(cells: list[tuple], epochs: int | None, seed: int) -> tuple[list[str], list[ValidationRecord]]:
    """The CSV lines of the grid; with epochs, every cell is also simulated and validated."""
    lines, records = [_CSV_HEADER], []
    for q, M, setting, gamma, gamma_star in cells:
        base = baseline_infinite_battery(q, setting)
        if epochs is None:
            analytic, sim = closed_form_aoi(q, M, setting, gamma), ",,"
        else:
            rec = validate(q, M, setting, gamma, epochs, seed, rel_tol=_REL_TOL)
            records.append(rec)
            analytic, sim = rec.analytic, f"{_fmt(rec.sim_mean)},{_fmt(rec.sim_ci)},{rec.verdict}"
        lines.append(
            f"{_fmt(q)},{M},{setting.value},{_fmt(gamma)},{_fmt(analytic)},"
            f"{_fmt(gamma_star)},{_fmt(base)},{sim}"
        )
    return lines, records


def _one_run_per_cell(opts: dict, command: str) -> None:
    """Refuse the flags of a single run, which a grid command would ignore."""
    if opts["trace"]:
        raise UsageError(f"--trace is not supported by {command}: grid cells run untraced")
    if opts["replications"] != 1:
        raise UsageError(f"--replications is not supported by {command}: each cell is one run")


def _cmd_sweep(opts: dict) -> int:
    _one_run_per_cell(opts, "sweep")
    if opts["q"] is None or opts["setting"] is None:
        raise UsageError("sweep requires --q and --setting (comma lists allowed)")
    lines, _ = _grid_rows(_grid_cells(opts, default_gammas="optimal"), opts["epochs"], opts["seed"])
    _emit(lines, opts["out"])
    return 0


_DEFAULT_VALIDATE = {"q": "0.1,0.3,0.5,0.7", "m": "1,2,4,8", "setting": "nofb,wfb"}


def _cmd_validate(opts: dict) -> int:
    _one_run_per_cell(opts, "validate")
    # with no grid flags this runs the full default validation grid
    opts = dict(opts)
    for key, default in _DEFAULT_VALIDATE.items():
        if opts[key] is None:
            opts[key] = default
    epochs = 100000 if opts["epochs"] is None else opts["epochs"]
    lines, records = _grid_rows(_grid_cells(opts, default_gammas="0,optimal"), epochs, opts["seed"])
    _emit(lines, opts["out"])
    wide = sum(3.0 * rec.sim_ci > _REL_TOL * rec.analytic for rec in records)
    if wide:
        print(
            f"warning: CI too wide for the {_REL_TOL:.0%} tolerance in {wide} of "
            f"{len(records)} cells; verdicts there lean on the 3-CI criterion",
            file=sys.stderr,
        )
    return 0 if all(rec.passed for rec in records) else 3


_COMMANDS = {
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-erasure",
        description="Average age-of-information analytics and simulation for a "
        "unit-battery energy-harvesting sensor on an erasure channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "solve the optimal single-source policy for one q",
        "eval": "evaluate the closed-form AoI at one (q, M, setting, gamma)",
        "optimize": "find the AoI-minimizing threshold for one (q, M, setting)",
        "simulate": "run the discrete-event simulator for one cell",
        "sweep": "emit a CSV over a (q, M, setting, gamma) grid",
        "validate": "simulate a grid and compare against the closed forms",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--q", help="erasure probability; comma list on grid commands")
        p.add_argument("--m", help="number of sources (default 1); comma list on grid commands")
        p.add_argument("--setting", help="nofb or wfb; comma list on grid commands")
        p.add_argument("--gamma", help="threshold value(s) or 'optimal'")
        p.add_argument("--epochs", type=int, help="target epochs per source")
        p.add_argument("--seed", type=int, help="RNG seed (default 1)")
        p.add_argument("--replications", type=int, help="independent runs to pool (default 1)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--trace", action="store_true", default=None, help="keep the event log")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        opts = _merged(args)
        return _COMMANDS[args.command](opts)
    # BracketError is a ValueError, so the exit-1 clause comes first
    except (BracketError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
