"""Growth exponent sigma of the root-shift island separation ratio.

sigma(alpha, beta) is the infimum over t > 1 of
f(t) = (t^beta - 1) / (t^alpha (t-1)^(beta-alpha)); a quarter of it, capped at
one half, is the radius constant that keeps the image discs of the
slit-plane root shifts apart.

With g = beta - alpha >= 1, f = P Q for the chord P(t) = (1 - t^-beta) /
(1 - 1/t) and the power Q(t) = (1 - 1/t)^(1-g) >= 1.  P is the slope of the
chord of s -> s^beta over [1/t, 1], at least min(1, beta), so sigma >=
min(1, beta).  Equality holds in closed form for beta >= 1 (sigma = 1, the
limit as t grows) and for g = 1 (sigma = beta, the limit as t decreases to
1).  Otherwise s^beta is concave, so P increases in t from beta, and Q
decreases in t: on a cell [t_i, t_j], f >= P(t_i) Q(t_j).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record

__all__ = ["SigmaReport", "cmd_sigma"]

# the bracket is refined until hi - lo is within SIGMA_TOL of hi, over at
# most SIGMA_ROUNDS grids of about SIGMA_CELLS cells each
SIGMA_TOL = 1e-6
SIGMA_CELLS = 4096
SIGMA_ROUNDS = 8
# the grid spans t - 1 in [_U_MIN, _U_MAX]; head and tail bounds cover the rest
_U_MIN, _U_MAX = 2.0**-500, 2.0**500
# relative error of one exp, log, expm1, log1p or float operation: libm is
# assumed within four ulps
_ROUND = 4 * 2.0**-52
# exp arguments are capped here, which only lowers a lower bound
_EXP_CAP = 700.0


@record
class SigmaReport:
    """Bracket [sigma, upper] of the separation ratio's infimum and the
    radius constant taken from its lower end."""

    alpha: float
    beta: float
    sigma: float
    upper: float
    c_const: float
    limit_at_one: float
    limit_at_inf: float


def _lowered(value, exponent):
    """value, computed as a few rounded factors times exp of an argument of
    the given size, less its rounding margin: at most the exact value."""
    return value * (1.0 - 16.0 * _ROUND * (1.0 + exponent))


def _chord(beta: float, u):
    """P at t = 1 + u, or 0 where its numerator underflows."""
    x = beta * np.log1p(u)
    return np.where(x >= np.finfo(float).tiny, -np.expm1(-x), 0.0) * (1.0 + 1.0 / u)


def _log_power(excess: float, u):
    """log Q at t = 1 + u, capped, for excess = g - 1."""
    return np.minimum(excess * np.log1p(1.0 / u), _EXP_CAP)


def _cell_bracket(beta: float, excess: float) -> tuple:
    """(lo, hi) for beta < 1 and excess = g - 1 > 0.

    lo is the least of beta Q(1 + _U_MIN) on the head (1, 1 + _U_MIN],
    P(1 + _U_MAX) on the tail, and the cell bounds of a log grid in t - 1
    between; cells whose bound is more than half the tolerance below hi,
    the least sampled value of f, are split again, unless P underflows.
    """
    z = _log_power(excess, _U_MIN)
    lo = min(_lowered(beta * math.exp(z), z), _lowered(_chord(beta, _U_MAX), 0.0))
    edges = np.geomspace(_U_MIN, _U_MAX, SIGMA_CELLS + 1)
    left, right = edges[:-1], edges[1:]
    hi = 1.0  # the limit of f as t grows
    for step in range(SIGMA_ROUNDS):
        chord, z_left, z_right = (_chord(beta, left), _log_power(excess, left),
                                  _log_power(excess, right))
        sampled = (chord > 0.0) & (z_left < _EXP_CAP)
        hi = min(hi, float((chord[sampled] * np.exp(z_left[sampled])).min(initial=1.0)))
        bounds = _lowered(chord * np.exp(z_right), z_right)
        keep = (bounds < hi * (1.0 - 0.5 * SIGMA_TOL)) & (chord > 0.0)
        if step == SIGMA_ROUNDS - 1 or not keep.any():
            break
        lo = min(lo, float(bounds[~keep].min(initial=math.inf)))
        parts = max(2, SIGMA_CELLS // int(keep.sum()))
        left, right = left[keep, None], right[keep, None]
        log_left = np.log(left)
        inner = np.exp(log_left + (np.log(right) - log_left) * (np.arange(1, parts) / parts))
        # rounded edges must still run from left to right in order
        inner = np.minimum(np.maximum.accumulate(np.maximum(inner, left), axis=1), right)
        left, right = np.hstack((left, inner)).ravel(), np.hstack((inner, right)).ravel()
    lo = max(beta, min(lo, float(bounds.min())))
    return lo, max(lo, hi)


def cmd_sigma(alpha: float, beta: float) -> SigmaReport:
    """Bracket inf over t > 1 of (t^beta - 1) / (t^alpha (t-1)^(beta-alpha)).

    sigma is a lower bound of the infimum, exact when beta >= 1 or
    beta - alpha = 1, and upper is the least sampled value or endpoint
    limit.  The ratio tends to 1 as t grows without bound, and as t
    decreases to 1 it tends to beta when the exponent gap is exactly one
    and diverges otherwise.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta < 1.0 + alpha:
        raise ValueError("the exponent gap beta - alpha must be at least one")
    # g - 1 for the gap g = beta - alpha in double precision: exact, and
    # negative only within a rounding of 1 + alpha, where it is taken as 0
    excess = max(0.0, beta - alpha - 1.0)
    if beta >= 1.0:
        lo = hi = 1.0
    elif excess == 0.0:
        lo = hi = beta
    else:
        lo, hi = _cell_bracket(beta, excess)
    return SigmaReport(
        alpha=float(alpha),
        beta=float(beta),
        sigma=float(lo),
        upper=float(hi),
        c_const=float(min(0.5, lo / 4.0)),
        limit_at_one=float(beta) if excess == 0.0 else math.inf,
        limit_at_inf=1.0,
    )
