"""Orbit scanning against polynomial targets.

A scan measures, for a fixed candidate f and a schedule of maps, the
sup distance of f composed with each map to a target polynomial over a
compact, and compares the resulting hit set with the index set the
candidate was designed for: a pair passes when every designed index
past the burn-in is a hit and the hit rate past the burn-in is
positive.  Every sup here is a grid sup, which understates the true
value; pass thresholds therefore carry a slack factor, and burn-in
indices are reported rather than silently skipped.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ._record import record
from .approx import PolyLike, Polynomial, SpanBasis
from .density import IndexSet
from .geometry import (
    CompactSet,
    DomainError,
    Exhaustion,
    eps_to_boundary,
    sample_grid,
)
from .maps import HoloMap, _outside, _stepper, apply, map_domain

__all__ = [
    "GRID_SLACK",
    "IterateReport",
    "MONOTONE_TOL",
    "OrbitScanReport",
    "PairScan",
    "combination_scan",
    "first_monotone_tail",
    "iterate_convergence",
    "scan",
]

# Grid sup-norms understate true sup-norms; measured errors are
# multiplied by this before any pass/fail comparison.
GRID_SLACK = 1.1

# iterate_convergence checks the domain and evaluates the observable on
# blocks of about this many iterated grid points; the block bounds its
# working memory.
ITERATE_BLOCK = 8192

# Steps smaller than this do not break a monotone tail.
MONOTONE_TOL = 1e-12


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

    @property
    def designed_elements(self) -> np.ndarray:
        horizon = self.errors.size
        els = self.designed.elements
        return els[els <= horizon]


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

    def entry(self, nu: int, l: int) -> PairScan:
        for e in self.entries:
            if e.nu == nu and e.l == l:
                return e
        raise KeyError((nu, l))


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
    grid_res: int = 3,
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
        grid = sample_grid(exhaustion.member(nu), grid_res)
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
    grid_res: int = 3,
    envelope_constant: Optional[float] = None,
    phi: Optional[PolyLike] = None,
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
            grid_res, envelope_constant,
        )
        rep_h = scan(
            comb, maps_schedule, exhaustion, lambda l: Polynomial.zero(), half,
            horizon, pairs, grid_res, envelope_constant,
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
            grid_res, envelope_constant,
        ).entries
    return OrbitScanReport(
        entries=entries,
        delta=delta,
        horizon=horizon,
        coefficients=tuple(alphas.tolist()),
        coeff_square_sum=1.0 + tail_sq,
    )


@record(eq=False)
class IterateReport:
    errors: np.ndarray
    escaped: bool
    escaped_at: Optional[int]


def iterate_convergence(
    m: HoloMap,
    q: Polynomial,
    k: CompactSet,
    limit: complex,
    n_steps: int,
    grid_res: int = 3,
) -> IterateReport:
    """e_n = sup over the grid of K of |Q(phi^n(z)) - Q(limit)|, n = 1..N.

    If some iterate leaves the map's domain the error list is truncated
    and flagged; the caller judges decrease and eventual monotonicity
    from the returned values.

    Only the recurrence runs step by step: the iterates fill a block of
    rows, and the domain check of every input row and the observable run
    once per block.  Each step is the map's prepared `maps._stepper`,
    built once per call, which writes the next row in place with the
    values `apply` would give.  The escape step n is the first at which
    iterate n - 1 fails the map's domain check or the map's own
    evaluation refuses it, as for step-by-step `apply`, and the errors
    hold e_1 .. e_{n-1}.
    """
    if n_steps < 1:
        raise ValueError("need at least one iterate")
    limit_value = complex(q.evaluate(limit))
    grid = sample_grid(k, grid_res)
    if grid.size == 0:
        raise ValueError("cannot iterate over an empty compact")
    dom = map_domain(m)
    rows = max(1, ITERATE_BLOCK // grid.size)
    block = np.empty((rows + 1, grid.size), dtype=complex)
    block[0] = grid
    row_view = list(block)
    step = _stepper(m, grid.size)
    errors = np.empty(n_steps)
    done = 0
    escaped_at = None
    # rows after an escape may be evaluated, but are never used
    with np.errstate(all="ignore"):
        while done < n_steps:
            count = min(rows, n_steps - done)
            evaluated = count
            for j in range(count):
                try:
                    step(row_view[j], row_view[j + 1])
                except DomainError:
                    evaluated = j
                    break
            bad = np.flatnonzero(_outside(dom, block[:evaluated]).any(axis=1))
            valid = int(bad[0]) if bad.size else evaluated
            vals = q.evaluate(block[1 : valid + 1])
            errors[done : done + valid] = np.max(np.abs(vals - limit_value), axis=1)
            done += valid
            if valid < count:
                escaped_at = done + 1
                break
            block[0] = block[count]
    return IterateReport(
        errors=errors[:done],
        escaped=escaped_at is not None,
        escaped_at=escaped_at,
    )


def first_monotone_tail(errors: np.ndarray, tol: float = MONOTONE_TOL) -> int:
    """Least index from which the sequence is non-increasing within tol.

    Always defined: the final element alone forms a monotone tail, so
    the caller should judge whether the returned position is early
    enough to call the sequence eventually monotone.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("empty error sequence")
    # written as a negated <= so that a NaN step also ends the tail
    rises = np.flatnonzero(~(errors[1:] <= errors[:-1] + tol))
    return int(rises[-1]) + 1 if rises.size else 0
