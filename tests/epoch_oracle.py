"""All-at-once reference for the epoch engines, and a batch-means reference.

These are the epoch engines as they were before they drew in blocks:
each stream drawn in one piece (nofb over-draws and extends until every
source has its successes) and one cumsum over every attempt. The block
engines in aoi_erasure.simulator must reproduce their counters and
epochs bit for bit (tests/test_simulator.py::TestEngineBlocks).
batch_ratio_estimate recomputes the batch-means interval from scratch,
with np.array_split, plain sums, exact rational arithmetic on the batch
totals and scipy's t quantile, and shares no code with aoi_erasure.stats,
which must match it to rounding (TestEngineBlocks,
tests/test_stats.py::TestMoments).
paired_ratio_difference takes the same batches from two runs that share
their draws and gives the difference of their ratios with a paired
interval (tests/test_stats.py::TestPairedThresholdShape).
renewal_estimates is the simulator's renewal estimator as it was before
it took its sums a leaf at a time: whole-row sums and np.add.reduceat
over an (M, n) block. The streaming estimator must give its numbers bit
for bit (tests/test_simulator.py::TestRenewalStream).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from aoi_erasure.simulator import _N_BATCHES, ratio_estimate


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
    totals, times Student's t with one degree of freedom fewer than
    batches; one batch gives 0.0. The variance is taken exactly from the
    float totals, as fractions, so it keeps its digits where the
    residuals R - point * y nearly cancel (np.cov lost 2.3e-10 relative
    on two epochs at q = 0).
    """
    Y, R = _batch_totals(rows)
    B = Y.size
    point = float(R.sum() / Y.sum())
    if B == 1:
        return point, 0.0
    from scipy import stats

    Ys, Rs = [Fraction(y) for y in Y.tolist()], [Fraction(r) for r in R.tolist()]
    p, y_mean, r_mean = sum(Rs) / sum(Ys), sum(Ys) / B, sum(Rs) / B
    spread = sum(((r - r_mean) - p * (y - y_mean)) ** 2 for y, r in zip(Ys, Rs)) / (B - 1)
    return point, float(stats.t.ppf(0.975, B - 1)) * math.sqrt(spread / (B * y_mean * y_mean))


def _batch_totals(rows):
    """Batch totals of y and of R = y**2 / 2: min(20, n) np.array_split pieces of each row, added over rows."""
    rows = [np.asarray(row, dtype=np.float64) for row in rows]
    B = min(20, rows[0].size)
    Y, R = np.zeros(B), np.zeros(B)
    for row in rows:
        for b, piece in enumerate(np.array_split(row, B)):
            Y[b] += piece.sum()
            R[b] += (0.5 * piece * piece).sum()
    return Y, R


def paired_ratio_difference(rows_a, rows_b):
    """Point and 95% half-width of p_b - p_a, the difference of two runs' ratios sum R / sum y.

    Two runs with one seed share their draws, so their batches err
    together. A run's ratio errs by about the mean of its batch
    residuals (R - p * y) / mean(y) (the delta method), so the
    difference errs by the mean of the batch-wise differences of the
    residuals: Student's t at B - 1 df times their spread over sqrt(B).
    """
    from scipy import stats

    points, residuals = [], []
    for rows in (rows_a, rows_b):
        Y, R = _batch_totals(rows)
        point = float(R.sum() / Y.sum())
        points.append(point)
        residuals.append((R - point * Y) / Y.mean())
    d = residuals[1] - residuals[0]
    B = d.size
    return points[1] - points[0], float(stats.t.ppf(0.975, B - 1) * d.std(ddof=1) / np.sqrt(B))


def renewal_estimates(ys):
    """Each row's ratio R.sum() / y.sum() of an (M, n) epoch block, the pooled ratio (row sums
    added in row order) and its interval, from the totals of y and R over the rows in
    B = min(_N_BATCHES, n) batches, cut as np.array_split cuts a row."""
    n = ys.shape[1]
    B = min(_N_BATCHES, n)
    starts = np.arange(B) * (n // B) + np.minimum(np.arange(B), n % B)
    per_row, sum_y, sum_r = [], 0.0, 0.0
    totals = np.zeros((2, B))
    R = np.empty(n)  # one row's areas, 0.5 * y * y in the order of that product
    for row in ys:
        np.multiply(row, 0.5, out=R)
        R *= row
        y_j, r_j = float(row.sum()), float(R.sum())
        per_row.append(r_j / y_j)
        sum_y += y_j
        sum_r += r_j
        totals[0] += np.add.reduceat(row, starts)
        totals[1] += np.add.reduceat(R, starts)
    mean = sum_r / sum_y
    return per_row, mean, ratio_estimate(*totals, mean)
