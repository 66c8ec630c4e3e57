"""Checks of one simulate run that need the package itself.

    python perfbench/verify.py Q M SETTING GAMMA [EVENT_LOG]

Prints one JSON object: the closed-form AoI at the given cell and, when
an event log is given, whether it parses back into an EventLog that
passes check_invariants().
"""

from __future__ import annotations

import json
import sys

from aoi_erasure.simulator import Event, EventLog
from aoi_erasure.stats import closed_form_aoi


def read_log(path: str) -> EventLog:
    events = []
    with open(path) as fh:
        for line in fh:
            t, kind, source = line.rstrip("\n").split("\t")
            events.append(Event(float(t), kind, int(source)))
    return EventLog(events)


def main(argv: list[str]) -> int:
    q, M, setting, gamma = float(argv[0]), int(argv[1]), argv[2], float(argv[3])
    out: dict = {"closed_form_aoi": closed_form_aoi(q, M, setting, gamma)}
    if len(argv) > 4:
        try:
            read_log(argv[4]).check_invariants()
            out["log_error"] = None
        except ValueError as exc:
            out["log_error"] = str(exc)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
