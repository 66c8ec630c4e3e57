"""Closed-form AoI evaluators and threshold solvers.

Covers the four setting combinations (single or many sources, with or
without erasure feedback) and the dispatch between them
(closed_form_aoi), the infinite-battery baselines, and the gain metrics
comparing the two feedback settings. All operations are pure
functions of their arguments. Every optimal threshold, for one source or
many, is the zero in gamma of one first-order condition (_foc_root),
bisected on the one bracket [0, sqrt(2)] for every q < 1 and every M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .model import AnalyticSolution, Feedback, Regime, require_m, require_q

__all__ = [
    "BracketError",
    "MaxMoments",
    "exp_max_moments",
    "p_nofb",
    "solve_nofb",
    "p_wfb",
    "solve_wfb",
    "aoi_rr_nofb",
    "aoi_maf_wfb",
    "closed_form_aoi",
    "optimize_gamma",
    "baseline_infinite_battery",
    "feedback_gain",
    "percentage_gain",
]


class BracketError(ValueError):
    """The bracket does not straddle a sign change."""


_TOL = 1e-12  # bracket width at which bisection stops
_MAX_ITER = 200


@dataclass(frozen=True, slots=True)
class MaxMoments:
    """First two moments of max(gamma, tau) for tau ~ exponential(1)."""

    m1: float
    m2: float


def exp_max_moments(gamma: float) -> MaxMoments:
    """The first two moments of the wait max(gamma, tau), tau ~ exp(1).

    m1 = gamma + e^-gamma and m2 = gamma^2 + 2(gamma+1)e^-gamma; these are
    the building blocks of every threshold-policy AoI expression here.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    e = math.exp(-gamma)
    return MaxMoments(m1=gamma + e, m2=gamma * gamma + 2.0 * (gamma + 1.0) * e)


def p_nofb(lambda_prime: float, q: float) -> float:
    """Root function whose zero gives the optimal no-feedback threshold.

    Positive below the optimal threshold, negative above it; strictly
    decreasing in lambda_prime. It is P_1(lambda_prime) / (1-q) (_first_order).
    """
    q = require_q(q)
    if lambda_prime < 0.0:
        raise ValueError("lambda_prime must be nonnegative")
    return _first_order(q, 1, Feedback.NOFB)(lambda_prime) / (1.0 - q)


def _first_order(q: float, M: int, setting: Feedback) -> Callable[[float], float]:
    """P_M(gamma) = e^-gamma - gamma^2/2 + a(1-gamma) - c(gamma + b + e^-gamma)^2.

    The first-order condition of the M-source closed form f: f'(gamma) =
    -(1 - e^-gamma) P_M(gamma) / (gamma + b + e^-gamma)^2, with (a, b, c) =
    (0, 0, (q + (M-1)(1+q)/2)/(1-q)) without feedback and (d, d, (M-1)/2)
    with it, d = q/(1-q). a(1-gamma) is one product: expanded, it cancels.
    """
    nofb = setting is Feedback.NOFB
    a = b = 0.0 if nofb else q / (1.0 - q)
    c = (q + (M - 1) * (1.0 + q) / 2.0) / (1.0 - q) if nofb else (M - 1) / 2.0

    def p_m(gamma: float) -> float:
        e = math.exp(-gamma)
        return e - 0.5 * gamma * gamma + a * (1.0 - gamma) - c * (gamma + b + e) ** 2

    return p_m


def _bisect_checked(f: Callable[[float], float], lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}] (f(lo) = {flo:g}, f(hi) = {fhi:g}); adjust the bracket"
        )
    # plain bisection; flo keeps the sign of the lower end, so only left moves
    # on a same-sign midpoint and the bracket width halves every step
    width, left = hi - lo, lo
    for _ in range(_MAX_ITER):
        width *= 0.5
        root = left + width
        fmid = f(root)
        if fmid * flo >= 0.0:
            left = root
        if fmid == 0.0 or width < _TOL:
            break
    else:
        raise RuntimeError(f"bisection did not converge in {_MAX_ITER} iterations, value is {left!r}")
    # the residual should be slope-small; the probe stays in [lo, hi]
    x0, x1 = max(root - 1e-6, lo), min(root + 1e-6, hi)
    slope = abs(f(x1) - f(x0)) / max(x1 - x0, 1e-6)
    if abs(f(root)) > (slope + 1.0) * _TOL * 1e3:
        raise RuntimeError(f"root residual {f(root):g} exceeds the tolerance-scaled bound")
    return float(root)


def solve_nofb(q: float) -> AnalyticSolution:
    """Optimal single-source policy without erasure feedback.

    For q >= 1/2 (_zero_threshold_optimal at M = 1) the optimum is
    greedy with average AoI 1/(1-q). Below that, the optimal threshold
    lambda' is the zero of P_1 (_foc_root), and the optimal AoI follows
    from it in closed form.
    """
    q = require_q(q)
    if _zero_threshold_optimal(q, 1, Feedback.NOFB):
        return AnalyticSolution(regime=Regime.GREEDY, lambda_star=1.0 / (1.0 - q), threshold=0.0, q=q)
    lp = _foc_root(q, 1, Feedback.NOFB)
    lam = (1.0 + q) / (1.0 - q) * lp + 2.0 * q / (1.0 - q) * math.exp(-lp)
    return AnalyticSolution(regime=Regime.THRESHOLD, lambda_star=lam, threshold=lp, q=q)


def p_wfb(lam: float, q: float) -> float:
    """Root function for the with-feedback setting, piecewise in lam.

    The breakpoint sits at d = q/(1-q), the mean retransmission overhead
    of the greedy phase; beyond it p_wfb(lam) = P_1(lam - d) (_first_order).
    """
    q = require_q(q)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    d = q / (1.0 - q)
    if lam < d:
        return (1.0 + d) * (1.0 - (lam - d))
    return _first_order(q, 1, Feedback.WFB)(lam - d)


def _foc_root(q: float, M: int, setting: Feedback) -> float:
    """The zero in gamma of P_M, the first-order condition (_first_order).

    P_M decreases strictly, so gamma* = 0 iff P_M(0) <= 0 (_zero_threshold_optimal);
    else the zero lies in [0, sqrt(2)] for every q < 1 and M, as P_M(sqrt(2)) < 0.
    """
    return _bisect_checked(_first_order(q, M, setting), 0.0, math.sqrt(2.0))


def solve_wfb(q: float) -> AnalyticSolution:
    """Optimal single-source policy with erasure feedback.

    The optimal structure is threshold-greedy for every q: threshold
    gamma* on the first attempt after a success, greedy retransmissions
    afterwards. gamma* is the zero of P_1 (_foc_root), positive as
    P_1(0) = 1 + q/(1-q) > 0, and the optimal AoI is gamma* + q/(1-q).
    """
    q = require_q(q)
    gamma = _foc_root(q, 1, Feedback.WFB)
    return AnalyticSolution(regime=Regime.THRESHOLD, lambda_star=gamma + q / (1.0 - q), threshold=gamma, q=q)


def aoi_rr_nofb(q: float, M: int, gamma: float) -> float:
    """Average AoI of M round-robin sources, no feedback, threshold gamma."""
    q = require_q(q)
    M = require_m(M)
    mm = exp_max_moments(gamma)
    return mm.m2 / (2.0 * mm.m1) + ((M - 1) / 2.0 + M * q / (1.0 - q)) * mm.m1


def aoi_maf_wfb(q: float, M: int, gamma: float) -> float:
    """Average AoI of M max-age-first sources, with feedback, threshold gamma.

    Built from the per-turn service moments: a turn takes max(gamma, tau)
    plus a geometric number of greedy retransmission waits.
    """
    q = require_q(q)
    M = require_m(M)
    mm = exp_max_moments(gamma)
    d = q / (1.0 - q)
    a = mm.m1 + d
    s = mm.m2 + 2.0 * mm.m1 * d + 2.0 * q / (1.0 - q) ** 2
    return s / (2.0 * a) + (M - 1) * a / 2.0


def closed_form_aoi(q: float, M: int, setting: Feedback | str, gamma: float) -> float:
    """Dispatch to the closed form matching the feedback setting."""
    setting = Feedback(setting)
    if setting is Feedback.NOFB:
        return aoi_rr_nofb(q, M, gamma)
    return aoi_maf_wfb(q, M, gamma)


def _zero_threshold_optimal(q: float, M: int, setting: Feedback) -> bool:
    """Whether gamma = 0 minimizes the closed form for (q, M, setting).

    Zero is the minimizer exactly when the first-order condition P_M
    (see _first_order) is nonpositive at gamma = 0: M(1 + q) >= 3(1 - q)
    without feedback, M >= 3 - 2q with it. The test runs in integer
    arithmetic on the exact binary value of q, so no rounding settles a
    boundary point such as q = 0.2, M = 2 without feedback.
    """
    num, den = float(q).as_integer_ratio()
    if setting is Feedback.NOFB:
        return (M + 3) * num >= (3 - M) * den
    return 2 * num >= (3 - M) * den


def optimize_gamma(q: float, M: int, setting: Feedback | str) -> tuple[float, float]:
    """Minimize the matching closed form over the threshold gamma.

    The minimizer is exactly 0 where _zero_threshold_optimal says so;
    elsewhere it is the zero of the first-order condition (_foc_root), so
    at M = 1 it equals the threshold of solve_nofb and solve_wfb exactly.
    """
    setting = Feedback(setting)
    f = aoi_rr_nofb if setting is Feedback.NOFB else aoi_maf_wfb
    f0 = f(q, M, 0.0)  # validates q and M
    if _zero_threshold_optimal(q, int(M), setting):
        return 0.0, f0
    gamma = _foc_root(q, int(M), setting)
    return gamma, f(q, M, gamma)


def baseline_infinite_battery(q: float, setting: Feedback | str) -> float:
    """Optimal average AoI with an infinite battery, used as a lower bound."""
    q = require_q(q)
    if Feedback(setting) is Feedback.NOFB:
        return (1.0 + q) / (2.0 * (1.0 - q))
    return 1.0 / (2.0 * (1.0 - q))


def feedback_gain(q: float) -> float:
    """Absolute single-source AoI reduction from having erasure feedback."""
    return solve_nofb(q).lambda_star - solve_wfb(q).lambda_star


def percentage_gain(q: float, M: int) -> float:
    """Relative AoI reduction from feedback with M sources, in percent.

    Each setting is evaluated at its own optimal threshold.
    """
    _, rr = optimize_gamma(q, M, Feedback.NOFB)
    _, maf = optimize_gamma(q, M, Feedback.WFB)
    return (1.0 - maf / rr) * 100.0
