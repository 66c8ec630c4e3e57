"""Run the aoi-erasure CLI in-process with a span around each layer.

    python perfbench/traced.py SPANS_JSON -- <cli arguments>

The wrappers replace module attributes at runtime and change no source
file. A function that a later version of the package renames or removes
is listed under "missing" instead of failing the run. Spans are kept in
memory as [name, start, end, parent] (parent is an index into the list,
-1 for a root) and are written to SPANS_JSON, with the layer counters,
when the CLI returns. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import ModuleType
from typing import Any, Callable

import aoi_erasure
from aoi_erasure import analytic, cli, simulator, stats

After = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._open: list[int] = []

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, after: After | None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            # counters run outside the span, so they cost the caller, not the callee
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced


def _count_optimize(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.keys.setdefault("analytic.optimize_gamma", set()).add((args, tuple(sorted(kwargs.items()))))


def _count_validate(tr: Tracer, args: tuple, kwargs: dict, rec: Any) -> None:
    tr.add("stats.validate.epochs", getattr(rec, "n_epochs", 0) * getattr(rec, "M", 0))


def _count_ratio(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    y = args[0] if args else kwargs.get("y")
    tr.add("stats.ratio_estimate.epochs", len(y) if y is not None else 0)


def _count_raw(prefix: str) -> After:
    """Counters of one engine call, read from the raw run it returns."""

    def after(tr: Tracer, args: tuple, kwargs: dict, raw: Any) -> None:
        tr.add(f"{prefix}.epochs", sum(len(y) for y in getattr(raw, "ys", ())))
        for field in ("arrivals", "overflows", "attempts", "successes"):
            tr.add(f"simulator.{field}", getattr(raw, field, 0))
        events = getattr(raw, "events", None)
        tr.add("simulator.events", len(events) if events is not None else 0)

    return after


def _count_run(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    result, records = (out[0], out[1]) if isinstance(out, tuple) and len(out) > 1 else (out, ())
    n_sources = len(getattr(result, "per_source_mean", ()))
    tr.add("simulator.run_simulation.epochs", getattr(result, "epochs_per_source", 0) * n_sources)
    tr.add("model.epoch_records", len(records) if hasattr(records, "__len__") else 0)


def _count_dump(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.add("simulator.dump.events", len(getattr(args[0], "events", ())))


# (span name, owner, attribute, counter hook)
TARGETS: list[tuple[str, Any, str, After | None]] = [
    ("cli.main", cli, "main", None),
    ("analytic.optimize_gamma", analytic, "optimize_gamma", _count_optimize),
    ("analytic.closed_form", stats, "closed_form_aoi", None),
    ("analytic.baseline", analytic, "baseline_infinite_battery", None),
    ("stats.validate", stats, "validate", _count_validate),
    ("stats.ratio_estimate", stats, "ratio_estimate", _count_ratio),
    ("simulator.run_simulation", simulator, "run_simulation", _count_run),
    ("simulator.engine", simulator, "_epochs_nofb", _count_raw("simulator.engine")),
    ("simulator.engine", simulator, "_epochs_wfb", _count_raw("simulator.engine")),
    ("simulator.trace", simulator, "_run_loop", _count_raw("simulator.trace")),
    ("simulator.dump", getattr(simulator, "EventLog", None), "dump", _count_dump),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever the package binds it; return the missing ones."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == aoi_erasure.__name__]
    missing = []
    for name, owner, attr, after in TARGETS:
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{name}:{attr}")
            continue
        wrapped = tracer.wrap(name, orig, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            if isinstance(mod, ModuleType):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(
            {
                "exit": code,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "distinct": {k: len(v) for k, v in tracer.keys.items()},
                "missing": missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
