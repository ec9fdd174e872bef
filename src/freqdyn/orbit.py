"""Orbit scanning against polynomial targets.

A scan measures, for a fixed candidate f and a schedule of maps, the
sup distance of f composed with each map to a target polynomial over a
compact, and compares the resulting hit set with the index set the
candidate was designed for: a pair passes when every designed index
past the burn-in is a hit and the hit rate past the burn-in is
positive.  A scan's sups are grid sups, which understate the true
value; pass thresholds therefore carry a slack factor, and burn-in
indices are reported rather than silently skipped.  The iterate errors
are instead closed-form upper bounds: iterate_convergence gives their
rule, iterate_bounds evaluates it for any range of steps, and
decreasing_from decides exactly from which step the errors decrease.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._record import record
from .approx import NewtonPoly, Polynomial, SpanBasis
from .density import IndexSet
from .geometry import (
    ClosedDisc,
    CompactSet,
    Exhaustion,
    enclosing_disc,
    eps_to_boundary,
    lies_in,
    sample_grid,
)
from .maps import HoloMap, Mobius, _add, _image_discs, _mul, apply, map_domain

__all__ = [
    "GRID_RESOLUTION",
    "GRID_SLACK",
    "ITERATE_BITS",
    "ITERATE_MARGIN",
    "IterateRule",
    "OrbitScanReport",
    "PairScan",
    "combination_scan",
    "decreasing_from",
    "iterate_bounds",
    "iterate_convergence",
    "scan",
]

# Grid sup-norms understate true sup-norms; measured errors are
# multiplied by this before any pass/fail comparison.
GRID_SLACK = 1.1
# scan takes its sups on sample_grid of each level at this resolution.
GRID_RESOLUTION = 3

# iterate_bounds widens each bound by this relative margin before it
# rounds it up; iterate_convergence's docstring shows that the margin
# covers the rounding the bound commits.
ITERATE_MARGIN = 2.0 ** -40
# iterate_bounds rounds each widened bound up to this many significant bits.
ITERATE_BITS = 32

# iterate_bounds forms this many powers at a time; the block bounds its
# working memory.
_POWER_BLOCK = 1024

# The inversion w -> 1/w as one maps._image_discs row (a, b, c, d).
_INVERSION = tuple(np.array([x], dtype=complex) for x in (0.0, 1.0, 1.0, 0.0))


@record(eq=False)
class PairScan:
    """Scan outcome for one (nu, l) pair."""

    nu: int
    l: int
    designed: IndexSet
    hits: IndexSet
    burn_in: int
    errors: np.ndarray  # measured error at every n in [1, horizon]
    eps_sup: np.ndarray  # sup over the grid of the boundary envelope at phi_n
    hit_rate: float  # fraction of post-burn-in indices that are hits
    passed: bool


@record(eq=False)
class OrbitScanReport:
    entries: tuple
    delta: float
    horizon: int
    coefficients: Optional[tuple] = None
    coeff_square_sum: Optional[float] = None

    @property
    def passed(self) -> bool:
        return bool(self.entries) and all(e.passed for e in self.entries)


def _pair_scan(
    nu: int,
    l: int,
    designed: IndexSet,
    errors: np.ndarray,
    eps_sup: np.ndarray,
    hit_mask: np.ndarray,
    burn_in: int,
    horizon: int,
) -> PairScan:
    """Hit set, coverage, hit rate and verdict of one pair from the mask
    of indices it hits and its burn-in."""
    hits = IndexSet(
        np.nonzero(hit_mask)[0].astype(np.int64) + 1,
        horizon,
        f"hits(nu={nu},l={l})",
    )
    els = designed.elements[designed.elements <= horizon]
    tail = els[els > burn_in]
    covered = bool(np.all(hit_mask[tail - 1])) if tail.size else True
    window = horizon - burn_in
    hit_rate = float(np.count_nonzero(hit_mask[burn_in:]) / window) if window > 0 else 0.0
    passed = covered and hit_rate > 0.0
    return PairScan(
        nu=nu,
        l=l,
        designed=designed,
        hits=hits,
        burn_in=burn_in,
        errors=errors,
        eps_sup=eps_sup,
        hit_rate=hit_rate,
        passed=passed,
    )


def scan(
    f,
    maps_schedule: Callable[[int], HoloMap],
    exhaustion: Exhaustion,
    dense_seq: Callable[[int], Polynomial],
    delta: float,
    horizon: int,
    pairs: Sequence,
    envelope_constant: float = 1.0,
) -> OrbitScanReport:
    """Measure hit sets {n : GRID_SLACK * error_n < delta} for each (nu, l) pair.

    pairs is a sequence of (nu, l, designed IndexSet).  For each tested
    level nu the burn-in is the last index at which the sup of the
    boundary envelope over the mapped grid still reaches
    delta / envelope_constant; a pair passes when every designed index
    beyond the burn-in is a hit and the hit rate over the indices after
    the burn-in is positive.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not pairs:
        raise ValueError("need at least one (nu, l, designed) triple")

    by_nu = {}
    for nu, l, designed in pairs:
        by_nu.setdefault(int(nu), []).append((int(l), designed))

    entries = []
    for nu, blocks in sorted(by_nu.items()):
        grid = sample_grid(exhaustion.member(nu), GRID_RESOLUTION)
        if grid.size == 0:
            raise ValueError(f"level {nu} compact has an empty grid")
        mapped = np.empty((horizon, grid.size), dtype=complex)
        for n in range(1, horizon + 1):
            mapped[n - 1] = apply(maps_schedule(n), grid)
        vals = f.evaluate(mapped)
        eps_sup = np.max(
            eps_to_boundary(exhaustion.domain, mapped.ravel()).reshape(mapped.shape),
            axis=1,
        )
        over = np.nonzero(eps_sup >= delta / envelope_constant)[0]
        burn_in = int(over[-1] + 1) if over.size else 0
        for l, designed in sorted(blocks, key=lambda t: t[0]):
            targ = dense_seq(l).evaluate(grid)
            errors = np.max(np.abs(vals - targ[None, :]), axis=1)
            entries.append(
                _pair_scan(
                    nu, l, designed, errors, eps_sup, errors * GRID_SLACK < delta,
                    burn_in, horizon,
                )
            )
    return OrbitScanReport(entries=tuple(entries), delta=delta, horizon=horizon)


class _Combination:
    """Fixed linear combination of basis members, evaluated memberwise."""

    def __init__(self, members, alphas):
        self._members = members
        self._alphas = alphas

    def evaluate(self, z):
        out = self._alphas[0] * self._members[0].fn.evaluate(z)
        for a, m in zip(self._alphas[1:], self._members[1:]):
            if a != 0.0:
                out = out + a * m.fn.evaluate(z)
        return out


def combination_scan(
    basis: SpanBasis,
    coefficients: Sequence[complex],
    maps_schedule: Callable[[int], HoloMap],
    exhaustion: Exhaustion,
    dense_seq: Callable[[int], Polynomial],
    delta: float,
    horizon: int,
    pairs: Sequence,
    envelope_constant: Optional[float] = None,
    phi: Optional[NewtonPoly] = None,
) -> OrbitScanReport:
    """Scan a span combination, leading coefficient normalized to one.

    The designed pairs must belong to the leading member's index block;
    scaling the coefficient vector therefore never changes the verdict.
    The default envelope constant is 1 + sqrt of the squared sum of the
    non-leading normalized coefficients, so a single-member combination
    reproduces a plain scan of that member exactly.

    For a Mixed basis with a supplied dense part phi, the hit rule is
    the two-sided split of the target: phi must track the target within
    delta/2 while the combination stays below delta/2, and the reported
    errors are those of phi + combination against the target.
    """
    alphas = np.asarray(list(coefficients), dtype=complex)
    if alphas.size != len(basis.members):
        raise ValueError("coefficient count must match basis size")
    nonzero = np.nonzero(alphas)[0]
    if nonzero.size == 0:
        raise ValueError("coefficients must not all vanish")
    lead = int(nonzero[0])
    alphas = alphas / alphas[lead]
    tail_sq = float(np.sum(np.abs(np.delete(alphas, lead)) ** 2))
    if envelope_constant is None:
        envelope_constant = 1.0 + float(np.sqrt(tail_sq))

    comb = _Combination(basis.members, alphas)
    if basis.kind == "mixed" and phi is not None:
        half = delta / 2.0
        rep_phi = scan(
            phi, maps_schedule, exhaustion, dense_seq, half, horizon, pairs,
            envelope_constant,
        )
        rep_h = scan(
            comb, maps_schedule, exhaustion, lambda l: Polynomial.zero(), half,
            horizon, pairs, envelope_constant,
        )
        entries = tuple(
            _pair_scan(
                e_phi.nu,
                e_phi.l,
                e_phi.designed,
                e_phi.errors + e_h.errors,
                e_phi.eps_sup,
                (e_phi.errors * GRID_SLACK < half) & (e_h.errors * GRID_SLACK < half),
                max(e_phi.burn_in, e_h.burn_in),
                horizon,
            )
            for e_phi, e_h in zip(rep_phi.entries, rep_h.entries)
        )
    else:
        entries = scan(
            comb, maps_schedule, exhaustion, dense_seq, delta, horizon, pairs,
            envelope_constant,
        ).entries
    return OrbitScanReport(
        entries=entries,
        delta=delta,
        horizon=horizon,
        coefficients=tuple(alphas.tolist()),
        coeff_square_sum=1.0 + tail_sq,
    )


@record
class IterateRule:
    """The closed-form rule of iterate_convergence: the bounds e_n,
    n = 1..iterates, on sup over K of |phi^n - limit|, kept as the facts
    that give them (iterate_bounds evaluates them)."""

    v0: complex  # centre of a disc that holds 1/(K - limit)
    rho: float  # its radius
    step: complex  # S = c / lam of the map, rounded to nearest
    reach: float  # 2^11 delta, the largest bound the margin covers
    iterates: int


def _exact(z: complex) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def _limit_frame(m: HoloMap, k: CompactSet, limit: complex) -> tuple:
    """(S, disc): the step S = c / lam of m as an exact (real, imag) pair
    of Fractions, and the enclosing disc of k moved by -limit.

    m, conjugated by the translation z -> z + limit, must be exactly the
    record (lam, 0, c, lam): its entries (lam + L c, -L^2 c, c, lam - L c)
    with L = limit and lam = (a + d)/2 exact, checked in rational
    arithmetic.  k must lie strictly inside the map's domain, and the
    moved centre must be exact and the limit outside the disc."""
    step = None
    if isinstance(m, Mobius):
        entries = (m.a, m.b, m.c, m.d, complex(limit), (m.a + m.d) / 2)
        if all(map(cmath.isfinite, entries)):
            a, b, c, d, el, lam = map(_exact, entries)
            lc = _mul(el, c)
            if (_add(a, d) == _add(lam, lam) and _add(a, d, -1) == _add(lc, lc)
                    and _add(b, _mul(el, lc)) == (0, 0)):
                num, den = _mul(c, (lam[0], -lam[1])), lam[0] ** 2 + lam[1] ** 2
                step = num[0] / den, num[1] / den
    if step is None:
        raise ValueError(f"no closed-form powers of {m!r} fixing {limit}")
    enc = enclosing_disc(k)
    if not lies_in(map_domain(m), enc):
        raise ValueError(f"{k} is not strictly inside the domain of {m!r}")
    z0 = complex(enc.center)
    disc = ClosedDisc(z0 - limit, enc.radius)
    x, y = _exact(disc.center)
    if (x, y) != _add(_exact(z0), _exact(limit), -1):
        raise ValueError(f"the centre of {k} less {limit} is not a float")
    if not x * x + y * y > Fraction(disc.radius) ** 2:
        raise ValueError(f"{limit} lies in the enclosing disc of {k}")
    return step, disc


def _within_reach(
    v0: complex, rho: float, step: tuple, reach: float, n_steps: int
) -> bool:
    """Whether 0 < 1/(|v0 + n S| - rho) <= reach for every 1 <= n <= n_steps,
    S the exact step: the least of the convex quadratic |v0 + n S|^2 over
    those n, at the one nearest its vertex, against (rho + 1/reach)^2, in
    rationals."""
    if not reach > 0.0:
        return False
    x, y = _exact(v0)
    sx, sy = step
    norm = sx * sx + sy * sy
    n = 1 if norm == 0 else min(max(round(-(x * sx + y * sy) / norm), 1), n_steps)
    inverse = 1 / Fraction(reach) if math.isfinite(reach) else 0
    return (x + n * sx) ** 2 + (y + n * sy) ** 2 >= (Fraction(rho) + inverse) ** 2


def iterate_convergence(
    m: HoloMap, k: CompactSet, limit: complex, n_steps: int
) -> IterateRule:
    """The rule of upper bounds e_n on sup over K of |phi^n(z) - limit|,
    n = 1..N; nothing in it grows with N.

    The rule covers a Mobius record that, conjugated by the translation
    z -> z + limit, is exactly (lam, 0, c, lam): a parabolic map fixing
    limit, or the identity (c = 0).  In v = 1/(z - limit) it is the
    translation by S = c / lam, so phi^n is v -> v + n S, with no step
    taken.  One maps._image_discs row sends the enclosing disc
    |z - z0| <= r of K, moved by -limit, under w -> 1/w to a disc
    D(v0, rho) holding the exact image D(V, R).  For z in K then
    |phi^n(z) - limit| = 1/|v + n S| <= 1/(|v0 + n S| - rho) = E_n, which
    iterate_bounds forms with s, S rounded to nearest, widens by
    ITERATE_MARGIN and rounds up to ITERATE_BITS significant bits.

    Why the margin covers the rounding, to first order in the unit
    roundoff u.  Let M = |v0 + n S| and x = M - rho = 1/E_n.  Rounding s,
    n s and v0 + n s, the modulus (one ulp) and the difference move x by
    at most u (2 n |S| + 3 M + x) <= u (6 x + 2 (|v0| + rho) + 3 rho), as
    n |S| <= M + |v0|.  With delta = |z0 - limit| - r, |V| + R = 1/delta
    and R < 1/(2 delta), so E_n, the reciprocal included, is within a
    factor 1 + u (7 + 3.5 E_n / delta).  A rule in which some E_n,
    n <= N, exceeds the reach 2^11 delta raises, decided exactly (a pole
    of phi^n on the disc, |v0 + n S| <= rho, counts as out of reach), so
    the chain commits at most 7175 u, and with the widening product's u
    less than the margin 2^-40 = 2^13 u.  Rounding up to 32 bits only
    raises a value, and is exact for normal values.  A shift that
    overflows gives NaN bounds, which fail every comparison.

    Raises ValueError for any other map, for a compact not strictly
    inside the map's domain, whose centre less limit is inexact or whose
    enclosing disc holds the limit, and for n_steps < 1.
    """
    if n_steps < 1:
        raise ValueError("need at least one iterate")
    step, disc = _limit_frame(m, k, limit)
    (v0,), (rho,) = _image_discs(*_INVERSION, disc.center, disc.radius)
    reach = 2.0 ** 11 * (abs(disc.center) - disc.radius)
    if not _within_reach(v0, rho, step, reach, n_steps):
        raise ValueError(f"the bounds on {k} exceed the reach of the margin")
    return IterateRule(
        v0=complex(v0),
        rho=float(rho),
        step=complex(*map(float, step)),
        reach=reach,
        iterates=n_steps,
    )


def iterate_bounds(rule: IterateRule, start: int, stop: int) -> np.ndarray:
    """The bounds e_n of rule for start <= n < stop, as float64.

    They are formed _POWER_BLOCK powers at a time, in blocks aligned at
    n = 1, 1 + _POWER_BLOCK, ..., so a range that starts at a block, such
    as the block that holds N, repeats the arithmetic of the range 1..N
    exactly.  Raises ValueError unless 1 <= start <= stop <= rule.iterates + 1.
    """
    if not 1 <= start <= stop <= rule.iterates + 1:
        raise ValueError(f"bounds {start}..{stop - 1} are not within 1..{rule.iterates}")
    out = np.empty(stop - start)
    lo = start
    while lo < stop:
        hi = min(stop, lo + _POWER_BLOCK - (lo - 1) % _POWER_BLOCK)
        block = out[lo - start : hi - start]
        # 1 / (|v0 + n s| - rho) in place, bit for bit: n is exact as
        # n + 0j, the complex operand the product would cast it to
        with np.errstate(all="ignore"):
            shifted = np.arange(lo, hi, dtype=complex)
            shifted *= rule.step
            shifted += rule.v0
            np.abs(shifted, out=block)
            del shifted
            block -= rule.rho
            np.divide(1.0, block, out=block)
        # a pole of phi^n on the disc, or a shift that overflowed (1/inf = 0)
        block[~(block > 0.0)] = np.nan
        block *= 1.0 + ITERATE_MARGIN
        frac, exp = np.frexp(block)
        np.ceil(np.ldexp(frac, ITERATE_BITS, out=frac), out=frac)
        np.ldexp(frac, exp - ITERATE_BITS, out=block)
        lo = hi
    return out


def decreasing_from(m: HoloMap, k: CompactSet, limit: complex) -> Optional[int]:
    """Least t >= 1 from which e_n, the sup of |phi^n - limit| over the
    enclosing disc of K, strictly decreases; None if it never does.

    In iterate_convergence's frame e_n = 1/(|V + n S| - R) falls from n to
    n + 1 iff (2 n + 1) |S|^2 + 2 Re(V conj S) > 0, the rise of the
    quadratic |V + n S|^2: for every n > -Re(V conj S) / |S|^2 - 1/2 when
    S != 0, for none when S = 0 (the identity).  Decided in rationals,
    with V = conj(w) / (|w|^2 - r^2) for the moved centre w.
    """
    step, disc = _limit_frame(m, k, limit)
    norm = step[0] ** 2 + step[1] ** 2
    if norm == 0:
        return None
    x, y = _exact(disc.center)
    cross = (x * step[0] - y * step[1]) / (x * x + y * y - Fraction(disc.radius) ** 2)
    return max(1, math.floor(-cross / norm - Fraction(1, 2)) + 1)
