"""Growth exponent sigma of the root-shift island separation ratio.

sigma(alpha, beta) is the infimum over t > 1 of
(t^beta - 1) / (t^alpha (t-1)^(beta-alpha)); a quarter of it, capped at
one half, is the radius constant that keeps the image discs of the
slit-plane root shifts apart.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import record

__all__ = ["DEFAULT_T_MAX", "SigmaReport", "cmd_sigma"]

DEFAULT_T_MAX = 1.0e6

# Interior minima of the growth ratio are bracketed on a log-spaced
# probe grid before golden-section refinement.
SIGMA_GRID_POINTS = 4096
SIGMA_XTOL = 1e-12
# scipy's rounded golden-ratio conjugate, kept so that sigma matches its
# golden search bit for bit
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
GOLDEN_MAXITER = 5000
RICHARDSON_FACTOR = 10.0


@record
class SigmaReport:
    """Infimum of the island separation ratio and the radius constant."""

    alpha: float
    beta: float
    t_max: float
    sigma: float
    c_const: float
    interior_min: float
    t_at_min: float
    limit_at_one: float
    limit_at_inf: float
    richardson: float


def _growth_ratio(alpha: float, beta: float) -> Callable:
    gap = beta - alpha
    def value(t):
        t = np.asarray(t, dtype=float)
        return (np.power(t, beta) - 1.0) / (
            np.power(t, alpha) * np.power(t - 1.0, gap)
        )
    return value


def _golden_section(f: Callable, xa: float, xb: float, xc: float, xtol: float) -> tuple:
    """Golden-section search (Kiefer 1953) in the bracket xa < xb < xc.

    Returns (x, f(x)) for the better of the two final interior points.
    The arithmetic repeats scipy.optimize.minimize_scalar(method="golden")
    with a three-point bracket step for step, constants included, so both
    give equal results under ==.  Raises ValueError unless f(xb) lies
    below f(xa) and f(xc); after GOLDEN_MAXITER steps it returns the best
    point found.
    """
    fa, fb, fc = f(xa), f(xb), f(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("golden-section bracket needs f(xb) below f(xa) and f(xc)")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAXITER):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def _interior_minimum(ratio: Callable, t_max: float) -> tuple:
    lo = math.log1p(1e-8)
    hi = math.log(t_max)
    us = np.linspace(lo, hi, SIGMA_GRID_POINTS)
    vals = np.asarray(ratio(np.exp(us)), dtype=float)
    i = int(np.argmin(vals))
    t_best = float(np.exp(us[i]))
    v_best = float(vals[i])
    if 0 < i < us.size - 1 and vals[i] < vals[i - 1] and vals[i] < vals[i + 1]:
        x, fx = _golden_section(
            lambda u: float(ratio(math.exp(u))),
            float(us[i - 1]), float(us[i]), float(us[i + 1]),
            SIGMA_XTOL,
        )
        if fx < v_best:
            t_best = math.exp(x)
            v_best = fx
    return t_best, v_best


def cmd_sigma(alpha: float, beta: float, t_max: float = DEFAULT_T_MAX) -> SigmaReport:
    """Minimise (t^beta - 1) / (t^alpha (t-1)^(beta-alpha)) over t > 1.

    The infimum over the open half-line is the least of the interior
    grid-plus-golden minimum and the two analytic endpoint values: the
    ratio tends to 1 as t grows without bound, and as t decreases to 1
    it tends to beta when the exponent gap is exactly one and diverges
    otherwise.  The reported Richardson value extrapolates the interior
    minimum from t_max and 10 t_max and serves as a consistency check.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta < 1.0 + alpha:
        raise ValueError("the exponent gap beta - alpha must be at least one")
    if t_max <= 10.0:
        raise ValueError("t_max must exceed 10")
    ratio = _growth_ratio(alpha, beta)
    gap = beta - alpha
    limit_inf = 1.0
    limit_one = beta if abs(gap - 1.0) <= 1e-12 else math.inf
    t_at, interior = _interior_minimum(ratio, t_max)
    _, interior_far = _interior_minimum(ratio, RICHARDSON_FACTOR * t_max)
    richardson = (RICHARDSON_FACTOR * interior_far - interior) / (
        RICHARDSON_FACTOR - 1.0
    )
    sigma = min(interior, limit_inf, limit_one)
    return SigmaReport(
        alpha=float(alpha),
        beta=float(beta),
        t_max=float(t_max),
        sigma=float(sigma),
        c_const=float(min(0.5, sigma / 4.0)),
        interior_min=float(interior),
        t_at_min=float(t_at),
        limit_at_one=float(limit_one),
        limit_at_inf=float(limit_inf),
        richardson=float(richardson),
    )
