"""Library probes for the traced benchmark run.

    python -X importtime perfbench/probe.py SEED HORIZON

Imports aoi_erasure.cli (the -X importtime report on stderr gives the
import layer), then times one horizon-stopped simulation, which the CLI
cannot reach because it has no horizon flag. Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

import aoi_erasure.cli  # noqa: F401  (the import is what -X importtime measures)
from aoi_erasure import make_config, run_simulation

# the horizon-path probe named in the benchmark notes: M = 4 with feedback
PROBE_CELL = dict(q=0.3, M=4, setting="wfb", gamma=0.4)


def main(argv: list[str]) -> int:
    seed, horizon = int(argv[0]), float(argv[1])
    cfg = make_config(**PROBE_CELL, horizon=horizon, seed=seed)
    t0 = time.perf_counter()
    result, _, _ = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"horizon_s": elapsed, "horizon_arrivals": result.arrivals}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
