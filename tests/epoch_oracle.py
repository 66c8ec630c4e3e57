"""All-at-once reference for the epoch engines, and a batch-means reference.

These are the epoch engines as they were before they drew in blocks:
each stream drawn in one piece (nofb over-draws and extends until every
source has its successes) and one cumsum over every attempt. The block
engines in aoi_erasure.simulator must reproduce their counters and
epochs bit for bit (tests/test_simulator.py::TestEngineBlocks).
batch_ratio_estimate recomputes the batch-means interval from scratch,
with np.array_split, plain sums, np.cov and scipy's t quantile, and
shares no code with aoi_erasure.stats, which must match it to rounding
(TestEngineBlocks, tests/test_stats.py::TestMoments).
"""

from __future__ import annotations

import numpy as np


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


def batch_ratio_estimate(rows):
    """Point and 95% batch-means CI of sum R / sum y over equal-length rows of epochs y.

    Each row (a source of one run) is cut into min(20, n) batches of
    consecutive epochs by np.array_split, and batch b's totals add up
    every row's b-th piece. The CI is the delta method on the batch
    totals, from np.cov, times Student's t with one degree of freedom
    fewer than batches; one batch gives 0.0.
    """
    rows = [np.asarray(row, dtype=np.float64) for row in rows]
    B = min(20, rows[0].size)
    Y, R = np.zeros(B), np.zeros(B)
    for row in rows:
        for b, piece in enumerate(np.array_split(row, B)):
            Y[b] += piece.sum()
            R[b] += (0.5 * piece * piece).sum()
    point = float(R.sum() / Y.sum())
    if B == 1:
        return point, 0.0
    from scipy import stats

    cov = np.cov(R, Y, ddof=1)
    var_point = (cov[0, 0] - 2.0 * point * cov[0, 1] + point * point * cov[1, 1]) / (B * Y.mean() ** 2)
    return point, float(stats.t.ppf(0.975, B - 1) * np.sqrt(max(var_point, 0.0)))
