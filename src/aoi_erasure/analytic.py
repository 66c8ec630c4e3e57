"""Closed-form AoI evaluators and threshold solvers.

Covers the four setting combinations (single or many sources, with or
without erasure feedback), the infinite-battery baselines, and the gain
metrics comparing the two feedback settings. All operations are pure
functions of their arguments; each solver derives its root bracket
from q, so none takes a configuration.
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
    "optimize_gamma",
    "baseline_infinite_battery",
    "feedback_gain",
    "percentage_gain",
]


class BracketError(ValueError):
    """The bracket does not straddle a sign change."""


_TOL = 1e-12  # bracket width at which bisection and golden-section stop
_MAX_ITER = 200
_GAMMA_HI = 50.0  # optimize_gamma searches [0, _GAMMA_HI]


@dataclass(frozen=True, slots=True)
class MaxMoments:
    """First two moments of max(gamma, tau) for tau ~ exponential(1)."""

    m1: float
    m2: float


def exp_max_moments(gamma: float) -> MaxMoments:
    """Moments of the wait max(gamma, tau), tau ~ exp(1).

    m1 = gamma + e^-gamma and m2 = gamma^2 + 2(gamma+1)e^-gamma; these are
    the building blocks of every threshold-policy AoI expression here.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma!r}")
    e = math.exp(-gamma)
    return MaxMoments(m1=gamma + e, m2=gamma * gamma + 2.0 * (gamma + 1.0) * e)


def p_nofb(lambda_prime: float, q: float) -> float:
    """Root function whose zero gives the optimal no-feedback threshold.

    Positive below the optimal threshold, negative above it; strictly
    decreasing in lambda_prime.
    """
    q = require_q(q)
    if lambda_prime < 0.0:
        raise ValueError("lambda_prime must be nonnegative")
    e = math.exp(-lambda_prime)
    num = (1.0 - q) * (e - 0.5 * lambda_prime * lambda_prime) - q * (lambda_prime + e) ** 2
    return num / (1.0 - q) ** 2


def _bisect_checked(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}] (f(lo) = {flo:g}, f(hi) = {fhi:g}); adjust the bracket"
        )
    # plain bisection; flo keeps the sign of the lower end, so only lo moves
    # on a same-sign midpoint and the bracket width halves every step
    width = hi - lo
    for _ in range(_MAX_ITER):
        width *= 0.5
        root = lo + width
        fmid = f(root)
        if fmid * flo >= 0.0:
            lo = root
        if fmid == 0.0 or width < tol:
            break
    else:
        raise RuntimeError(f"bisection did not converge in {_MAX_ITER} iterations, value is {lo!r}")
    # bisection converged to tol; the residual should be derivative-small
    h = 1e-6
    slope = abs(f(root + h) - f(root - h)) / (2.0 * h)
    if abs(f(root)) > (slope + 1.0) * tol * 1e3:
        raise RuntimeError(f"root residual {f(root):g} exceeds the tolerance-scaled bound")
    return float(root)


def solve_nofb(q: float) -> AnalyticSolution:
    """Optimal single-source policy without erasure feedback.

    For q >= 1/2 the optimum is greedy with average AoI 1/(1-q). Below
    that, the optimal threshold lambda' is the unique zero of p_nofb and
    the optimal AoI follows from it in closed form. The zero lies in
    [0, sqrt(2)]: p_nofb(0) > 0, and the numerator of p_nofb is below
    (1-q)(1 - x^2/2), which is negative past sqrt(2).
    """
    q = require_q(q)
    if q >= 0.5:
        lam = 1.0 / (1.0 - q)
        return AnalyticSolution(regime=Regime.GREEDY, lambda_star=lam, threshold=0.0, q=q)
    lp = _bisect_checked(lambda x: p_nofb(x, q), 0.0, math.sqrt(2.0), _TOL)
    lam = (1.0 + q) / (1.0 - q) * lp + 2.0 * q / (1.0 - q) * math.exp(-lp)
    return AnalyticSolution(regime=Regime.THRESHOLD, lambda_star=lam, threshold=lp, q=q)


def p_wfb(lam: float, q: float) -> float:
    """Root function for the with-feedback setting, piecewise in lam.

    The breakpoint sits at q/(1-q), the mean retransmission overhead of
    the greedy phase.
    """
    q = require_q(q)
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    d = q / (1.0 - q)
    if lam < d:
        return 1.0 - lam / (1.0 - q) + (2.0 * q - q * q) / (1.0 - q) ** 2
    return math.exp(-(lam - d)) - 0.5 * lam * lam + (2.0 * q - q * q) / (2.0 * (1.0 - q) ** 2)


def solve_wfb(q: float) -> AnalyticSolution:
    """Optimal single-source policy with erasure feedback.

    The optimal structure is threshold-greedy for every q: threshold
    gamma* = lambda* - q/(1-q) on the first attempt after a success,
    greedy retransmissions afterwards. lambda* is the unique zero of
    p_wfb beyond the breakpoint d = q/(1-q), and gamma* is always
    positive. p_wfb(d) = 1 + d > 0, and at hi = sqrt(2 + (2q-q^2)/(1-q)^2),
    which exceeds d for every q < 1, p_wfb = e^-(hi-d) - 1 < 0.
    """
    q = require_q(q)
    d = q / (1.0 - q)
    hi = math.sqrt(2.0 + (2.0 * q - q * q) / (1.0 - q) ** 2)
    lam = _bisect_checked(lambda x: p_wfb(x, q), d, hi, _TOL)
    return AnalyticSolution(regime=Regime.THRESHOLD, lambda_star=lam, threshold=lam - d, q=q)


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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f: Callable[[float], float]) -> float:
    """The minimizer of a unimodal f on [0, _GAMMA_HI], to within _TOL."""
    a, b = 0.0, _GAMMA_HI
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= _TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    else:
        raise RuntimeError(f"golden-section search did not shrink below tol in {_MAX_ITER} iterations")
    return 0.5 * (a + b)


def _zero_threshold_optimal(q: float, M: int, setting: Feedback) -> bool:
    """Whether gamma = 0 minimizes the closed form for (q, M, setting).

    Both closed forms have zero slope at gamma = 0, and zero is the
    minimizer exactly when their curvature there is nonnegative:
    M(1 + q) >= 3(1 - q) without feedback, M >= 3 - 2q with it. The
    test runs in integer arithmetic on the exact binary value of q, so
    no rounding settles a boundary point such as q = 0.2, M = 2 without
    feedback.
    """
    num, den = float(q).as_integer_ratio()
    if setting is Feedback.NOFB:
        return (M + 3) * num >= (3 - M) * den
    return 2 * num >= (3 - M) * den


def optimize_gamma(q: float, M: int, setting: Feedback | str) -> tuple[float, float]:
    """Minimize the matching closed form over the threshold gamma.

    The sign of the curvature at gamma = 0 decides whether the minimizer
    is exactly 0 (_zero_threshold_optimal); otherwise both closed forms
    are unimodal in gamma and golden-section search on [0, 50] finds it.
    """
    setting = Feedback(setting)
    if setting is Feedback.NOFB:
        f = lambda g: aoi_rr_nofb(q, M, g)
    else:
        f = lambda g: aoi_maf_wfb(q, M, g)
    f0 = f(0.0)  # validates q and M
    if _zero_threshold_optimal(q, int(M), setting):
        return 0.0, f0
    x = _golden_section(f)
    return x, f(x)


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
