"""All-at-once reference for the epoch engines.

These are the epoch engines as they were before they drew in blocks:
each stream drawn in one piece (nofb over-draws and extends until every
source has its successes), one cumsum over every attempt, and the
estimate from np.cov over whole arrays. The block engines in
aoi_erasure.simulator must reproduce their counters and epochs bit for
bit, and stats.Moments the estimate to rounding
(tests/test_simulator.py::TestEngineBlocks, tests/test_stats.py::TestMoments).
"""

from __future__ import annotations

import numpy as np

_Z95 = 1.959963984540054


def epochs_nofb(q, M, gamma, target, rng_a, rng_e, rng_o):
    """(ys, atts, arrivals, overflows, attempts, successes) without feedback."""
    need = target + 1
    n0 = int(M * need / (1.0 - q) * 1.1) + 1024
    taus = [rng_a.exponential(size=n0)]
    oks = [rng_e.random(size=n0) < (1.0 - q)]
    while True:
        ok = oks[0] if len(oks) == 1 else np.concatenate(oks)
        counts = [int(ok[j::M].sum()) for j in range(M)]
        if min(counts) >= need:
            break
        extra = max(4096, n0 // 4)
        taus.append(rng_a.exponential(size=extra))
        oks.append(rng_e.random(size=extra) < (1.0 - q))
    tau = taus[0] if len(taus) == 1 else np.concatenate(taus)
    t = np.cumsum(np.maximum(gamma, tau))
    ys = np.empty((M, target))
    atts = np.empty((M, target), np.int64)
    cut = 0
    for j in range(M):
        pos = np.flatnonzero(ok[j::M])[:need]  # successes, as indices into source j's attempts
        times = t[j::M][pos]
        np.subtract(times[1:], times[:-1], out=ys[j])
        np.subtract(pos[1:], pos[:-1], out=atts[j])
        cut = max(cut, int(pos[-1]) * M + j + 1)
    successes = int(ok[:cut].sum())
    overflows = int(rng_o.poisson(np.maximum(gamma - tau[:cut], 0.0)).sum()) if gamma > 0.0 else 0
    return ys, atts, cut + overflows, overflows, cut, successes


def epochs_wfb(q, M, gamma, target, rng_a, rng_e, rng_o):
    """(ys, atts, arrivals, overflows, attempts, successes) with feedback."""
    need = target + 1
    n = M * need
    tau1 = rng_a.exponential(size=n)
    first = np.maximum(gamma, tau1)
    if q > 0.0:
        fails = rng_e.geometric(1.0 - q, size=n) - 1
    else:
        fails = np.zeros(n, dtype=np.int64)
    retr = rng_a.standard_gamma(fails.astype(np.float64))
    t = np.cumsum(first + retr).reshape(need, M)  # row k: every source's k-th success
    ys = np.empty((M, target))
    np.subtract(t[1:].T, t[:-1].T, out=ys)
    atts = np.empty((M, target), np.int64)
    np.add(fails.reshape(need, M)[1:].T, 1, out=atts)
    attempts = int(n + fails.sum())
    overflows = int(rng_o.poisson(np.maximum(gamma - tau1, 0.0)).sum()) if gamma > 0.0 else 0
    return ys, atts, attempts + overflows, overflows, attempts, n


def ratio_estimate(y, R):
    """The ratio estimate and its delta-method CI from np.cov over whole arrays."""
    point = float(R.sum() / y.sum())
    if y.size == 1:
        return point, 0.0
    cov = np.cov(R, y, ddof=1)
    var_point = (cov[0, 0] - 2.0 * point * cov[0, 1] + point * point * cov[1, 1]) / (y.size * y.mean() ** 2)
    return point, _Z95 * float(np.sqrt(max(var_point, 0.0)))
