"""Plane domains, compact subsets, and the chordal metric on the sphere.

Points are Python complex numbers; the point at infinity is any complex
value with an infinite component.  The chordal (spherical) distance used
throughout is

    chi(z, w) = 2 |z - w| / sqrt((1 + |z|^2) (1 + |w|^2)),

with chi(z, inf) = 2 / sqrt(1 + |z|^2).  Values lie in [0, 2].
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Callable, Union

import numpy as np

from ._record import record

__all__ = [
    "AnnularSector",
    "ClosedDisc",
    "CompactSet",
    "Domain",
    "DomainError",
    "DomainKind",
    "Exhaustion",
    "chordal_distance",
    "clear_of",
    "covering_discs",
    "disc_pairs",
    "discs_inside",
    "disjointness",
    "distance_to_slit",
    "enclosing_disc",
    "eps_to_boundary",
    "lies_in",
    "min_envelope",
    "right_half_plane_exhaustion",
    "sample_grid",
    "sector_exhaustion",
    "unit_disc_exhaustion",
    "whole_plane_exhaustion",
]

# Slack below which a point counts as sitting on the slit (-inf, 0].
SLIT_GUARD = 1e-9
# Disc pairs that disc_pairs evaluates at a time.
PAIR_CHUNK = 1 << 14


class DomainError(ValueError):
    """A point fell outside the domain where it was required to lie."""


def chordal_distance(z, w):
    """Spherical chord length between two points of the extended plane.

    Accepts scalars or numpy arrays (broadcast).  Either argument may be
    the point at infinity.
    """
    scalar = np.isscalar(z) and np.isscalar(w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zinf = ~np.isfinite(z)
    winf = ~np.isfinite(w)
    zf = np.where(zinf, 0.0, z)
    wf = np.where(winf, 0.0, w)
    az2 = np.abs(zf) ** 2
    aw2 = np.abs(wf) ** 2
    out = 2.0 * np.abs(zf - wf) / np.sqrt((1.0 + az2) * (1.0 + aw2))
    out = np.where(zinf & ~winf, 2.0 / np.sqrt(1.0 + aw2), out)
    out = np.where(winf & ~zinf, 2.0 / np.sqrt(1.0 + az2), out)
    out = np.where(zinf & winf, 0.0, out)
    return float(out) if scalar else out


def distance_to_slit(z):
    """Euclidean distance from z to the ray (-inf, 0]."""
    z = np.asarray(z, dtype=complex)
    d = np.where(z.real > 0.0, np.abs(z), np.abs(z.imag))
    return float(d) if d.ndim == 0 else d


class DomainKind(Enum):
    WHOLE_PLANE = "whole_plane"
    UNIT_DISC = "unit_disc"
    RIGHT_HALF_PLANE = "right_half_plane"
    SLIT_PLANE = "slit_plane"


@record
class Domain:
    """A simply connected plane domain with a decidable membership test."""

    kind: DomainKind

    @staticmethod
    def whole_plane() -> "Domain":
        return Domain(DomainKind.WHOLE_PLANE)

    @staticmethod
    def unit_disc() -> "Domain":
        return Domain(DomainKind.UNIT_DISC)

    @staticmethod
    def right_half_plane() -> "Domain":
        return Domain(DomainKind.RIGHT_HALF_PLANE)

    @staticmethod
    def slit_plane() -> "Domain":
        return Domain(DomainKind.SLIT_PLANE)

    def contains(self, z, slack: float = 0.0):
        """Membership test, vectorized.  slack loosens the boundary."""
        z = np.asarray(z, dtype=complex)
        finite = np.isfinite(z)
        if self.kind is DomainKind.WHOLE_PLANE:
            ok = finite
        elif self.kind is DomainKind.UNIT_DISC:
            ok = finite & (np.abs(z) < 1.0 + slack)
        elif self.kind is DomainKind.RIGHT_HALF_PLANE:
            ok = finite & (z.real > -slack)
        else:
            ok = finite & ~((z.imag == 0.0) & (z.real <= slack))
        return bool(ok) if ok.ndim == 0 else ok


def _chord_to_great_circle(p):
    """Chordal distance from a point of the unit sphere to the great circle
    {P_k = 0}, given p = P_k: sqrt(2 - 2 sqrt(1 - p^2)), written so that
    small p loses no digits to cancellation."""
    return np.abs(p) * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 - p * p)))


def eps_to_boundary(domain: Domain, z):
    """Chordal distance from z to the extended boundary of the domain.

    This is the error envelope used by the approximation pipeline: it is
    positive on the domain and tends to zero along any sequence leaving
    every compact subset.  Every domain has a closed form.  The whole
    plane measures the distance to infinity alone and the disc projects
    radially onto the circle.  The other two lift z = x + iy to the unit
    sphere, P = (2x, 2y, |z|^2 - 1) / (1 + |z|^2), where the chordal
    distance to the great circle {P_k = 0} is sqrt(2 - 2 sqrt(1 - P_k^2)).
    The boundary iR + inf of the half plane is the circle P_1 = 0.  The
    boundary (-inf, 0] + inf of the slit plane is the half of the circle
    P_2 = 0 with P_1 <= 0: for Re z <= 0 the projection of P lands on that
    half, and for Re z > 0 the nearest boundary point is an endpoint, so
    the distance is min(chi(z, 0), chi(z, inf)).

    Raises DomainError when z lies outside the domain.
    """
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    inside = domain.contains(z)
    if not np.all(inside):
        bad = z[~np.atleast_1d(inside)][0]
        raise DomainError(f"point {bad} is not in {domain.kind.value}")
    r = np.abs(z)
    if domain.kind is DomainKind.WHOLE_PLANE:
        out = 2.0 / np.sqrt(1.0 + r**2)
    elif domain.kind is DomainKind.UNIT_DISC:
        out = 2.0 * (1.0 - r) / np.sqrt(2.0 * (1.0 + r * r))
    elif domain.kind is DomainKind.RIGHT_HALF_PLANE:
        out = _chord_to_great_circle(2.0 * z.real / (1.0 + r**2))
    else:
        out = np.where(
            z.real <= 0.0,
            _chord_to_great_circle(2.0 * z.imag / (1.0 + r**2)),
            2.0 * np.minimum(r, 1.0) / np.sqrt(1.0 + r**2),
        )
    return float(out[0]) if scalar else out


def min_envelope(domain: Domain, c: CompactSet) -> float:
    """The least eps_to_boundary over the compact set, in closed form.

    In every domain eps(r e^{it}) does not increase in |t| and is unimodal
    in r, so a sector takes it at a corner r e^{i half_angle}, r in {rmin,
    rmax}.  On the whole plane and the unit disc eps falls as |z| grows, so
    a disc takes it at |c| + r.  Elsewhere D(c, r), with a, b = |c| +- r,
    projects to a spherical cap of angular radius atan a - atan b =
    atan2(2r, 1 + ab) about z_C = (c/|c|) tan((atan a + atan b)/2); the
    boundary is closed, so the cap's least chord to it is 2 sin of half
    its centre's geodesic distance 2 asin(eps(z_C)/2) less that radius.
    Raises ValueError for an empty compact, DomainError for one not in it.
    """
    if c.is_empty:
        raise ValueError("an empty compact has no boundary envelope")
    if not lies_in(domain, c):
        raise DomainError(f"{c} does not lie in {domain.kind.value}")
    if isinstance(c, AnnularSector):
        corners = np.array([c.rmin, c.rmax]) * cmath.rect(1.0, c.half_angle)
        return float(np.min(eps_to_boundary(domain, corners)))
    m, r = abs(complex(c.center)), c.radius
    if domain.kind in (DomainKind.WHOLE_PLANE, DomainKind.UNIT_DISC):
        return eps_to_boundary(domain, m + r)
    a, b = m + r, m - r
    sa, sb = math.sqrt(1.0 + a * a), math.sqrt(1.0 + b * b)
    # tan of the half sum as (sin A + sin B)/(cos A + cos B), no cancellation
    z_c = complex(c.center) / m * ((a * sb + b * sa) / (sa + sb))
    reach = 2.0 * math.asin(0.5 * eps_to_boundary(domain, z_c)) - math.atan2(2.0 * r, 1.0 + a * b)
    return 2.0 * math.sin(0.5 * max(reach, 0.0))


# ---------------------------------------------------------------------------
# Compact sets


@record
class ClosedDisc:
    """Closed disc {|z - center| <= radius}."""

    # a class attribute, not a field: a disc always holds its centre
    is_empty = False

    center: complex
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("disc radius must be finite and nonnegative")
        if not cmath.isfinite(complex(self.center)):
            raise ValueError("disc center must be finite")


@record
class AnnularSector:
    """Sector {r e^{i t} : rmin <= r <= rmax, |t| <= half_angle}.

    rmax < rmin is allowed and denotes the empty set; this arises for the
    small members of the slit-plane exhaustion, whose radial interval
    [min(1/R, 1), R] is void while R < 1.  half_angle = 0 denotes a
    radial segment.
    """

    rmin: float
    rmax: float
    half_angle: float

    def __post_init__(self):
        if not (self.rmin > 0.0 and math.isfinite(self.rmin)):
            raise ValueError("rmin must be positive and finite")
        if not (self.rmax > 0.0 and math.isfinite(self.rmax)):
            raise ValueError("rmax must be positive and finite")
        if not (0.0 <= self.half_angle <= math.pi + 1e-12):
            raise ValueError("half_angle must lie in [0, pi]")

    @property
    def is_empty(self) -> bool:
        return self.rmax < self.rmin


CompactSet = Union[ClosedDisc, AnnularSector]


def enclosing_disc(c: CompactSet) -> ClosedDisc:
    """A closed disc containing the compact set."""
    if isinstance(c, ClosedDisc):
        return c
    return ClosedDisc(0.0 + 0.0j, c.rmax)


def discs_inside(domain: Domain, centers, radii) -> np.ndarray:
    """Whether each closed disc |z - centers[k]| <= radii[k] lies in the
    open domain, as a bool array: |c| + r < 1 on the unit disc, Re c > r
    on the right half plane, distance_to_slit(c) > r on the slit plane.
    A disc whose centre or radius is not finite lies in no domain.  The
    modulus is within an ulp of |c|, so on the unit disc the rounded sum
    is held below 1 - 2^-52, which puts the exact sum below 1."""
    c, r = np.asarray(centers, dtype=complex), np.asarray(radii, dtype=float)
    ok = np.isfinite(c) & np.isfinite(r)
    if domain.kind is DomainKind.UNIT_DISC:
        return ok & (np.hypot(c.real, c.imag) + r < 1.0 - 2.0 ** -52)
    if domain.kind is DomainKind.RIGHT_HALF_PLANE:
        return ok & (c.real > r)
    if domain.kind is DomainKind.SLIT_PLANE:
        return ok & (distance_to_slit(c) > r)
    return ok


def covering_discs(c: CompactSet) -> tuple:
    """(centre, radius) of discs that each contain c: its enclosing disc
    and, for a sector, the disc about x = (rmin + rmax)/2 through its
    farther corner r e^{i half_angle}, widened by 2^-48 (rmax + x) for
    rounding.  A corner is farthest: for x >= 0 the squared distance
    r^2 - 2 r x cos t + x^2 to r e^{it} grows with |t| and is convex in r."""
    e = enclosing_disc(c)
    if not isinstance(c, AnnularSector):
        return ((complex(e.center), e.radius),)
    x, corner = 0.5 * (c.rmin + c.rmax), cmath.rect(1.0, c.half_angle)
    far = max(abs(c.rmin * corner - x), abs(c.rmax * corner - x))
    return (complex(e.center), e.radius), (complex(x), far + 2.0 ** -48 * (c.rmax + x))


def lies_in(domain: Domain, c: CompactSet) -> bool:
    """Whether the compact set lies in the open domain: a sector lies in
    the slit plane iff its half angle is below pi (its radii are
    positive), and otherwise the set lies in the domain when one of its
    covering_discs does."""
    if isinstance(c, AnnularSector) and domain.kind is DomainKind.SLIT_PLANE:
        return c.half_angle < math.pi
    return any(discs_inside(domain, z0, r) for z0, r in covering_discs(c))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a NaN-free array: its distinct values in ascending
    order, each as it first occurs (the sign of a zero included).

    A stable sort keeps equal values in input order, so the first of each
    run is that first occurrence.  np.unique would import numpy.ma, about
    15 ms, on its first call in a process.
    """
    a = np.sort(np.ravel(values), kind="stable")
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def sample_grid(c: CompactSet, resolution: int) -> np.ndarray:
    """Deterministic point set covering boundary and interior of c.

    The grid at resolution r is the union of per-level point sets for
    levels 1..r, so raising the resolution always yields a superset.
    Level 1 already contains the centre (disc case) and the outer
    boundary.  An empty sector yields an empty array.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    if isinstance(c, ClosedDisc):
        pts = [np.array([complex(c.center)])]
        for k in range(1, resolution + 1):
            m = 8 * k
            ang = np.exp(2j * np.pi * np.arange(m) / m)
            scales = c.radius * np.arange(1, k + 1) / k
            pts.append((c.center + scales[:, None] * ang).ravel())
        return _sorted_unique(np.concatenate(pts, dtype=complex))
    if c.is_empty:
        return np.empty(0, dtype=complex)
    pts = []
    for k in range(1, resolution + 1):
        radii = c.rmin + (c.rmax - c.rmin) * np.arange(k + 1) / k
        m = 4 * k
        angles = c.half_angle * np.arange(-m, m + 1) / m
        pts.append((radii[:, None] * np.exp(1j * angles[None, :])).ravel())
    return _sorted_unique(np.concatenate(pts, dtype=complex))


def disjointness(a: CompactSet, b: CompactSet) -> bool:
    """Whether the enclosing discs of a and b are disjoint.

    The closed discs D(c1, r1) and D(c2, r2) are disjoint if and only if
    |c1 - c2| > r1 + r2, so True certifies that a and b are disjoint.
    For two discs the test is exact; a sector stands in for its
    enclosing disc, so False only says that the discs meet.  The test is
    that of clear_of for the one disc enclosing a.
    """
    ea = enclosing_disc(a)
    return bool(clear_of(np.array([ea.center], dtype=complex), np.array([ea.radius]), b)[0])


def clear_of(centers: np.ndarray, radii: np.ndarray, c: CompactSet) -> np.ndarray:
    """Whether each disc D(centers[i], radii[i]) is disjoint from c's
    enclosing disc D(c0, r0), |centers[i] - c0| > radii[i] + r0, as one
    bool array.

    |d| comes from np.hypot of the real and imaginary parts, the C
    hypot that Python's complex abs calls, so an entry is the verdict
    that abs of the scalar difference gives; np.abs of a complex array
    can differ from that abs in the last bit.
    """
    e = enclosing_disc(c)
    d = centers - e.center
    return np.hypot(d.real, d.imag) > radii + e.radius


def _pair_gaps(centers: np.ndarray, radii: np.ndarray, i, j) -> tuple:
    """(meets, gap) for the disc pairs (i[k], j[k]): |c_i - c_j| <= r_i + r_j
    and |c_i - c_j| - (r_i + r_j), with the np.hypot of `clear_of`."""
    d = centers[i] - centers[j]
    sep = np.hypot(d.real, d.imag)
    need = radii[i] + radii[j]
    return sep <= need, sep - need


def _sweep(coord: np.ndarray, centers: np.ndarray, radii: np.ndarray,
           scale: float) -> tuple:
    """(order, counts) of a sweep along one axis, coord being Re c or Im c:
    order sorts the discs by lo = coord - r, and position k of that order
    is paired with the counts[k] positions after it."""
    m = centers.size
    lo = coord - radii
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = coord[order] + radii[order]
    least = float(np.min(_pair_gaps(centers, radii, order[:-1], order[1:])[1]))
    slack = max(least, 0.0) + math.ldexp(float(scale + abs(least)), -40)
    if not math.isfinite(slack):
        slack = math.inf
    # position k meets the positions k + 1 .. ends[k] - 1 in the sweep
    ends = np.searchsorted(lo, hi + slack, side="right")
    return order, ends - np.arange(1, m + 1)


def _distinct_disc_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple:
    """(first_bad, gap, closest) of `disc_pairs` by the sweep, first_bad
    and closest as keys i m + j, for at least two discs."""
    m = centers.size
    scale = (np.max(np.abs(centers.real)) + np.max(np.abs(centers.imag))
             + 2.0 * np.max(radii))
    order, counts = _sweep(centers.real, centers, radii, scale)
    im_order, im_counts = _sweep(centers.imag, centers, radii, scale)
    if int(im_counts.sum()) < int(counts.sum()):
        order, counts = im_order, im_counts
    stops = np.cumsum(counts)
    first_bad = closest = None
    best = math.inf
    for t0 in range(0, int(stops[-1]), PAIR_CHUNK):
        t = np.arange(t0, min(t0 + PAIR_CHUNK, int(stops[-1])))
        k = np.searchsorted(stops, t, side="right")
        a, b = order[k], order[k + 1 + t - (stops[k] - counts[k])]
        i, j = np.minimum(a, b), np.maximum(a, b)
        meets, gap = _pair_gaps(centers, radii, i, j)
        key = i * m + j
        if meets.any():
            bad = int(key[meets].min())
            first_bad = bad if first_bad is None else min(first_bad, bad)
        low = float(gap.min())
        if low < best:
            best, closest = low, int(key[gap == low].min())
        elif low == best and closest is not None:
            closest = min(closest, int(key[gap == low].min()))
    return first_bad, best, closest


def disc_pairs(centers: np.ndarray, radii: np.ndarray) -> tuple:
    """The inequality of `disjointness` over all pairs of finite discs
    i < j, decided by a sweep along the real or the imaginary axis
    (Shamos and Hoey, Geometric intersection problems, FOCS 1976).

    Returns (first_bad, gap, closest, checked), what the test of every
    pair gives.  first_bad is the first pair in row-major order whose
    discs meet, |c_i - c_j| <= r_i + r_j, or None.  gap is the least
    |c_i - c_j| - (r_i + r_j), and closest the first pair in row-major
    order attaining it; below two discs gap is inf and closest None.
    checked counts the pairs decided, m (m - 1) / 2.  |c_i - c_j| comes
    from np.hypot, as in `disjointness` and `clear_of`.

    Discs of equal centre and radius form one group, and only the
    lowest index of each group enters the sweep.  Every pair across
    groups U and V has one verdict and gap, and its first pair in
    row-major order is (min U, min V) in order.  A group of two or more
    meets itself, at gap 0 - 2r, first at its two lowest indices.

    Along an axis, the discs are sorted by lo = x - r, x being the centre's
    coordinate on it, and the gaps of neighbours in that order bound the
    least gap by some G.  A pair whose extents on the axis lie more than
    T = max(G, 0) apart has a gap above T, so it neither meets nor attains
    the least gap.  Only the pairs with lo_j <= hi_i + T (hi = x + r),
    widened by a rounding margin of 2^-40 times the coordinates' scale,
    are candidates.  Both axes count their candidates, and the one with
    fewer is evaluated, PAIR_CHUNK pairs at a time; a tie keeps the real
    axis.  Either axis gives the same result, since every pair is decided
    by the same np.hypot of both coordinates.  Memory is O(discs); time is
    O(m log m) plus the evaluated pairs of distinct discs, which are all
    pairs only when every extent meets every other on both axes, as on a
    diagonal.
    """
    m = centers.size
    checked = m * (m - 1) // 2
    if m < 2:
        return None, math.inf, None, checked
    # lexsort is stable, so each group starts at its lowest index
    order = np.lexsort((radii, centers.imag, centers.real))
    re, im, r = centers.real[order], centers.imag[order], radii[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (re[1:] != re[:-1]) | (im[1:] != im[:-1]) | (r[1:] != r[:-1]))
    ))
    first_bad = closest = None
    best = math.inf
    reps = np.sort(order[starts])
    if reps.size > 1:
        # reps ascend, so row-major order of their pairs is that of the
        # pairs they stand for
        first_bad, best, closest = _distinct_disc_pairs(centers[reps], radii[reps])
        u = reps.size
        if first_bad is not None:
            first_bad = int(reps[first_bad // u]) * m + int(reps[first_bad % u])
        if closest is not None:
            closest = int(reps[closest // u]) * m + int(reps[closest % u])
    # starts of the groups of two or more
    multi = starts[np.diff(np.append(starts, m)) > 1]
    if multi.size:
        keys = order[multi] * m + order[multi + 1]
        gaps = 0.0 - (r[multi] + r[multi])
        bad = int(keys.min())
        first_bad = bad if first_bad is None else min(first_bad, bad)
        low = float(gaps.min())
        key = int(keys[gaps == low].min())
        if low < best:
            best, closest = low, key
        elif low == best:
            closest = min(closest, key)
    first_bad = None if first_bad is None else divmod(first_bad, m)
    closest = None if closest is None else divmod(closest, m)
    return first_bad, best, closest, checked


# ---------------------------------------------------------------------------
# Exhaustions


@record
class Exhaustion:
    """A closed-form sequence of compacts K_1 <= K_2 <= ... filling a domain.

    Members are hole-free compacts (discs or annular sectors), so every
    member is admissible for polynomial and rational approximation on the
    ambient domain.
    """

    domain: Domain
    label: str
    generator: Callable[[int], CompactSet]

    def member(self, nu: int) -> CompactSet:
        if nu < 1:
            raise ValueError("exhaustion index starts at 1")
        return self.generator(nu)


def whole_plane_exhaustion() -> Exhaustion:
    """Discs of radius nu centred at the origin."""
    return Exhaustion(
        Domain.whole_plane(),
        "discs |z| <= nu",
        lambda nu: ClosedDisc(0.0 + 0.0j, float(nu)),
    )


def unit_disc_exhaustion() -> Exhaustion:
    """Concentric discs of radius 1 - 1/(nu + 1)."""
    return Exhaustion(
        Domain.unit_disc(),
        "discs |z| <= 1 - 1/(nu+1)",
        lambda nu: ClosedDisc(0.0 + 0.0j, 1.0 - 1.0 / (nu + 1)),
    )


def right_half_plane_exhaustion() -> Exhaustion:
    """Discs with real diameter [1/nu, nu], filling Re z > 0."""
    return Exhaustion(
        Domain.right_half_plane(),
        "discs with diameter [1/nu, nu]",
        lambda nu: ClosedDisc(
            complex((nu + 1.0 / nu) / 2.0), (nu - 1.0 / nu) / 2.0
        ),
    )


def sector_exhaustion(c_const: float, alpha: float, beta: float, root_n: int) -> Exhaustion:
    """Annular sectors exhausting the slit plane.

    With R_nu = (c_const * nu^(beta - alpha))^root_n the member is

        K_nu = {r e^{i t} : min(1/R_nu, 1) <= r <= R_nu, |t| <= pi (1 - 1/nu)}.

    Members with R_nu < 1 are empty; they occur for small nu whenever
    c_const <= 1/2 and are represented by empty sectors.
    """
    if c_const <= 0.0:
        raise ValueError("c_const must be positive")
    if root_n < 1:
        raise ValueError("root_n must be a positive integer")

    def member(nu: int) -> CompactSet:
        big_r = (c_const * nu ** (beta - alpha)) ** root_n
        return AnnularSector(
            rmin=min(1.0 / big_r, 1.0),
            rmax=big_r,
            half_angle=math.pi * (1.0 - 1.0 / nu),
        )

    return Exhaustion(Domain.slit_plane(), "annular sectors", member)
