"""Holomorphic self-map families of the four supported domains.

Every map variant is a frozen value class with a declared domain, and
`Conjugated` transports one by a conformal equivalence; module
functions provide evaluation, the inverse formulas, iteration, and
closed-form disc bounds for images of compact sets: every affine,
disc-automorphism and parabolic map is a Moebius map, which sends a
disc onto a disc.
Evaluation near the slit (-inf, 0] is refused within a guard distance
because the principal branch is unstable there.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Union

import numpy as np

from ._record import record
from .geometry import (
    SLIT_GUARD,
    ClosedDisc,
    CompactSet,
    Domain,
    DomainError,
    DomainKind,
    distance_to_slit,
    enclosing_disc,
    sample_grid,
)

__all__ = [
    "ConformalPair",
    "Conjugated",
    "DiscAutomorphism",
    "HalfPlaneShift",
    "HoloMap",
    "Identity",
    "Iterated",
    "PairKind",
    "ParabolicDisc",
    "RootShift",
    "Similarity",
    "apply",
    "image_enclosing_disc",
    "inverse_degree",
    "iterate",
    "map_domain",
    "maps_into",
]

# Membership slack used when validating map inputs.
_EVAL_SLACK = 1e-9
# The unit roundoff u of a float.
_UNIT_ROUNDOFF = 2.0 ** -53
# Complex entries (256 kB) per block of mapped sample points.
ARRAY_BLOCK = 1 << 14


@record
class Identity:
    """The identity map on a declared domain."""

    domain: Domain = Domain.whole_plane()


@record
class Similarity:
    """z -> a z + b on the whole plane, a != 0."""

    a: complex
    b: complex

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("similarity coefficient a must be nonzero")


@record
class DiscAutomorphism:
    """z -> k (z - a) / (1 - conj(a) z) with |k| = 1 and |a| < 1."""

    k: complex
    a: complex

    def __post_init__(self):
        if abs(abs(complex(self.k)) - 1.0) > 1e-12:
            raise ValueError("rotation factor k must be unimodular")
        if abs(complex(self.a)) >= 1.0:
            raise ValueError("automorphism parameter a must satisfy |a| < 1")


@record
class ParabolicDisc:
    """Parabolic disc self-map with boundary fixed point 1.

    Phi_n(z) = 1 + 2 (z - 1) / (2 - i a n^gamma (z - 1)), a > 0, gamma >= 1.
    """

    a: float
    gamma: float
    n: int

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("parameter a must be positive")
        if self.gamma < 1.0:
            raise ValueError("exponent gamma must be at least 1")
        if self.n < 1:
            raise ValueError("index n must be a positive integer")

    @property
    def shift(self) -> float:
        return self.a * float(self.n) ** self.gamma


@record
class RootShift:
    """phi_n(z) = n^alpha z^(1/N) + n^beta on the slit plane.

    Requires beta > 0 and beta >= 1 + alpha; the root is the principal
    branch.
    """

    alpha: float
    beta: float
    root_n: int
    n: int

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.beta < 1.0 + self.alpha:
            raise ValueError("beta must be at least 1 + alpha")
        if self.root_n < 1:
            raise ValueError("root order must be a positive integer")
        if self.n < 1:
            raise ValueError("index n must be a positive integer")


@record
class HalfPlaneShift:
    """phi_n(z) = z + i a n^gamma on the right half plane."""

    a: float
    gamma: float
    n: int

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("parameter a must be positive")
        if self.gamma < 1.0:
            raise ValueError("exponent gamma must be at least 1")
        if self.n < 1:
            raise ValueError("index n must be a positive integer")

    @property
    def shift(self) -> float:
        return self.a * float(self.n) ** self.gamma


class PairKind(Enum):
    CAYLEY_DISC_TO_HALF_PLANE = "cayley_disc_to_half_plane"
    SLIT_TO_DISC = "slit_to_disc"


@record
class ConformalPair:
    """A conformal equivalence f : source -> target with explicit inverse.

    CAYLEY_DISC_TO_HALF_PLANE is f(z) = (1 + z)/(1 - z) from the unit
    disc onto Re z > 0; SLIT_TO_DISC is f(z) = (sqrt(z) - 1)/(sqrt(z) + 1)
    from the slit plane onto the disc.  reversed() swaps orientation.
    """

    kind: PairKind
    flipped: bool = False

    @property
    def source(self) -> Domain:
        return self.target_raw if self.flipped else self.source_raw

    @property
    def target(self) -> Domain:
        return self.source_raw if self.flipped else self.target_raw

    @property
    def source_raw(self) -> Domain:
        if self.kind is PairKind.CAYLEY_DISC_TO_HALF_PLANE:
            return Domain.unit_disc()
        return Domain.slit_plane()

    @property
    def target_raw(self) -> Domain:
        if self.kind is PairKind.CAYLEY_DISC_TO_HALF_PLANE:
            return Domain.right_half_plane()
        return Domain.unit_disc()

    def reversed(self) -> "ConformalPair":
        return ConformalPair(self.kind, not self.flipped)

    def _fwd_raw(self, z):
        if np.isscalar(z) and _scalar_is_inf(z):
            # Both raw maps send infinity to a boundary point.
            return -1.0 + 0.0j if self.kind is PairKind.CAYLEY_DISC_TO_HALF_PLANE else 1.0 + 0.0j
        z = np.asarray(z, dtype=complex)
        if self.kind is PairKind.CAYLEY_DISC_TO_HALF_PLANE:
            out = (1.0 + z) / (1.0 - z)
        else:
            s = np.sqrt(z)
            out = (s - 1.0) / (s + 1.0)
        return complex(out) if out.ndim == 0 else out

    def _bwd_raw(self, z):
        if np.isscalar(z) and _scalar_is_inf(z):
            return 1.0 + 0.0j
        z = np.asarray(z, dtype=complex)
        if self.kind is PairKind.CAYLEY_DISC_TO_HALF_PLANE:
            out = (z - 1.0) / (z + 1.0)
        else:
            out = ((1.0 + z) / (1.0 - z)) ** 2
        return complex(out) if out.ndim == 0 else out

    def forward(self, z):
        return self._bwd_raw(z) if self.flipped else self._fwd_raw(z)

    def backward(self, z):
        return self._fwd_raw(z) if self.flipped else self._bwd_raw(z)


@record
class Conjugated:
    """pair.forward o inner o pair.backward, acting on pair.target."""

    pair: ConformalPair
    inner: "HoloMap"

    def __post_init__(self):
        if map_domain(self.inner) != self.pair.source:
            raise ValueError("inner map domain must equal the pair's source")


@record
class Iterated:
    """The power-fold composition of a base self-map."""

    base: "HoloMap"
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("iteration power must be a positive integer")


HoloMap = Union[
    Identity,
    Similarity,
    DiscAutomorphism,
    ParabolicDisc,
    RootShift,
    HalfPlaneShift,
    Conjugated,
    Iterated,
]


def _scalar_is_inf(z) -> bool:
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


# The declared domain of each map variant whose domain is fixed.
_FIXED_DOMAINS = {
    Similarity: Domain.whole_plane(),
    DiscAutomorphism: Domain.unit_disc(),
    ParabolicDisc: Domain.unit_disc(),
    RootShift: Domain.slit_plane(),
    HalfPlaneShift: Domain.right_half_plane(),
}


def map_domain(m: HoloMap) -> Domain:
    """The declared domain on which the map acts as a self-map."""
    fixed = _FIXED_DOMAINS.get(type(m))
    if fixed is not None:
        return fixed
    if isinstance(m, Identity):
        return m.domain
    if isinstance(m, Conjugated):
        return m.pair.target
    if isinstance(m, Iterated):
        return map_domain(m.base)
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def _outside(dom: Domain, z: np.ndarray) -> np.ndarray:
    """Mask, shaped like z, of the points a map on dom refuses as input."""
    if dom.kind is DomainKind.SLIT_PLANE:
        return np.atleast_1d(distance_to_slit(z) < SLIT_GUARD)
    return ~np.atleast_1d(dom.contains(z, slack=_EVAL_SLACK))


def _check_in_domain(dom: Domain, z: np.ndarray) -> None:
    bad = _outside(dom, z)
    if np.any(bad):
        offender = np.atleast_1d(z)[bad][0]
        raise DomainError(f"point {offender} rejected for domain {dom.kind.value}")


def apply(m: HoloMap, z):
    """Evaluate the map at z (scalar or array) after a domain check."""
    scalar = np.isscalar(z)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_in_domain(map_domain(m), zz)
    out = _eval(m, zz)
    return complex(out[0]) if scalar else out


def _eval(m: HoloMap, z: np.ndarray) -> np.ndarray:
    if isinstance(m, Identity):
        return z
    if isinstance(m, Similarity):
        return m.a * z + m.b
    if isinstance(m, DiscAutomorphism):
        return m.k * (z - m.a) / (1.0 - np.conj(m.a) * z)
    if isinstance(m, ParabolicDisc):
        t = z - 1.0
        return 1.0 + 2.0 * t / (2.0 - 1j * m.shift * t)
    if isinstance(m, RootShift):
        root = z if m.root_n == 1 else z ** (1.0 / m.root_n)
        return float(m.n) ** m.alpha * root + float(m.n) ** m.beta
    if isinstance(m, HalfPlaneShift):
        return z + 1j * m.shift
    if isinstance(m, Conjugated):
        inner_in = m.pair.backward(z)
        _check_in_domain(map_domain(m.inner), inner_in)
        return m.pair.forward(_eval(m.inner, inner_in))
    if isinstance(m, Iterated):
        out = z
        for _ in range(m.power):
            _check_in_domain(map_domain(m.base), out)
            out = _eval(m.base, out)
        return out
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def _stepper(m: HoloMap, width: int):
    """step(z, out), which writes _eval(m, z) into out bit for bit.

    z and out are distinct complex rows of the given width.  A parabolic
    map runs the ufuncs of its _eval branch on constant and scratch rows
    prepared once, so a step allocates nothing.  Only a NaN may differ,
    in sign, where the shift has overflowed to infinity.  Every other map
    evaluates through _eval, which may raise DomainError as before.
    """
    if not isinstance(m, ParabolicDisc):

        def step(z, out):
            out[...] = _eval(m, z)

        return step

    one = np.full(width, 1.0 + 0.0j)
    two = np.full(width, 2.0 + 0.0j)
    shift = np.full(width, 1j * m.shift)
    t = np.empty(width, dtype=complex)
    den = np.empty(width, dtype=complex)
    sub, mul, div, add = np.subtract, np.multiply, np.divide, np.add

    def step(z, out):
        # the ParabolicDisc branch of _eval, operand for operand:
        # 1.0 + 2.0 * t / (2.0 - 1j * m.shift * t) with t = z - 1.0
        sub(z, one, out=t)
        mul(shift, t, out=den)
        sub(two, den, out=den)
        mul(two, t, out=t)
        div(t, den, out=t)
        add(one, t, out=out)

    return step


def _inv(m: HoloMap, w: np.ndarray) -> np.ndarray:
    if isinstance(m, Identity):
        return w
    if isinstance(m, Similarity):
        return (w - m.b) / m.a
    if isinstance(m, DiscAutomorphism):
        return (w + m.k * m.a) / (m.k + np.conj(m.a) * w)
    if isinstance(m, ParabolicDisc):
        t = w - 1.0
        return 1.0 + 2.0 * t / (2.0 + 1j * m.shift * t)
    if isinstance(m, RootShift):
        u = (w - float(m.n) ** m.beta) / float(m.n) ** m.alpha
        return u if m.root_n == 1 else u ** m.root_n
    if isinstance(m, HalfPlaneShift):
        return w - 1j * m.shift
    if isinstance(m, Conjugated):
        inner_w = m.pair.backward(w)
        return m.pair.forward(_inv(m.inner, inner_w))
    if isinstance(m, Iterated):
        out = w
        for _ in range(m.power):
            out = _inv(m.base, out)
        return out
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def raw_inverse(m: HoloMap, w):
    """The inverse formula without membership or round-trip checks.

    Used when composing a polynomial with the inverse on a disc bound
    that may spill slightly outside the mathematical image; for the
    supported families the formula continues holomorphically there.
    """
    ww = np.asarray(w, dtype=complex)
    out = _inv(m, np.atleast_1d(ww))
    return complex(out[0]) if np.isscalar(w) else out.reshape(ww.shape)


def iterate(m: HoloMap, power: int) -> Iterated:
    """The power-fold composition; nested iterates are flattened."""
    if isinstance(m, Iterated):
        return Iterated(m.base, m.power * power)
    return Iterated(m, power)


def _mobius(m: HoloMap) -> Optional[tuple]:
    """(a, b, c, d) with m(z) = (a z + b) / (c z + d) exactly, else None;
    c = 0 (with d = 1) marks an affine map, iterates of which stay so."""
    if isinstance(m, Identity):
        return (1.0 + 0.0j, 0.0 + 0.0j, 0.0, 1.0)
    if isinstance(m, Similarity):
        return (complex(m.a), complex(m.b), 0.0, 1.0)
    if isinstance(m, HalfPlaneShift):
        return (1.0 + 0.0j, 1j * m.shift, 0.0, 1.0)
    if isinstance(m, RootShift) and m.root_n == 1:
        n = float(m.n)
        return (complex(n ** m.alpha), complex(n ** m.beta), 0.0, 1.0)
    if isinstance(m, DiscAutomorphism):
        k, a = complex(m.k), complex(m.a)
        return (k, -k * a, -a.conjugate(), 1.0)
    if isinstance(m, ParabolicDisc):
        s = m.shift  # ad - bc = 4
        return (2.0 - 1j * s, 1j * s, -1j * s, 2.0 + 1j * s)
    base = _mobius(m.base) if isinstance(m, Iterated) else None
    if base is None or base[2] != 0:
        return None
    a, b, p = base[0], base[1], m.power
    if a == 1.0:
        return (a, b * p, 0.0, 1.0)
    return (a ** p, b * (a ** p - 1.0) / (a - 1.0), 0.0, 1.0)


def inverse_degree(m: HoloMap) -> Optional[int]:
    """Degree of the inverse formula as a polynomial, None if it is none."""
    mob = _mobius(m)
    if mob is not None:
        return 1 if mob[2] == 0 else None
    if isinstance(m, Iterated):
        base = inverse_degree(m.base)
        return None if base is None else base ** m.power
    return m.root_n if isinstance(m, RootShift) else None


def image_enclosing_disc(m: HoloMap, c: CompactSet) -> ClosedDisc:
    """A closed disc containing m(c): the image of c's enclosing disc
    |z - z0| <= r under one closed-form rule.

    A Moebius map (_mobius) sends it onto a disc (Needham, Visual Complex
    Analysis, ch. 3), a z0 + b and |a| r when c = 0.  Otherwise, with
    q = c z0 + d and D = |q|^2 - |c|^2 r^2, the centre is
    ((a z0 + b) conj(q) - a conj(c) r^2) / D and the radius |ad - bc| r / D
    plus the pad 16 u (M_w M_q + |a c| r^2 + (|a d| + |b c|) r
    + (|centre| + radius) (M_q^2 + |c|^2 r^2)) / D, with M_w = |a z0| + |b|,
    M_q = |c z0| + |d| and u the unit roundoff: to first order in u a bound
    on the rounding of centre and radius.  D <= 0 puts the pole on the
    disc and raises ValueError.  A root shift with root_n = N > 1 maps
    |z| <= R into the disc of radius n^alpha R^(1/N) about n^beta.  An
    iterate of a non-affine map applies its base's rule power times.  Any
    other map, Conjugated among them, raises ValueError.
    """
    return _image_disc(m, enclosing_disc(c))


def _image_disc(m: HoloMap, enc: ClosedDisc) -> ClosedDisc:
    # iterates recurse here, so image_enclosing_disc runs once per disc
    mob = _mobius(m)
    if mob is None:
        if isinstance(m, RootShift):
            big_r = abs(enc.center) + enc.radius
            n = float(m.n)
            return ClosedDisc(complex(n ** m.beta), n ** m.alpha * big_r ** (1.0 / m.root_n))
        if isinstance(m, Iterated):
            for _ in range(m.power):
                enc = _image_disc(m.base, enc)
            return enc
        raise ValueError(f"no closed-form image disc for {type(m).__name__}")
    z0, r = enc.center, enc.radius
    if mob[2] == 0:
        return ClosedDisc(mob[0] * z0 + mob[1], abs(mob[0]) * r)
    # scaling by a power of two is exact and keeps |q|^2 finite
    scale = math.ldexp(1.0, -math.frexp(max(map(abs, mob)))[1])
    a, b, c, d = (scale * x for x in mob)
    q, rr = c * z0 + d, r * r
    den = abs(q) ** 2 - abs(c) ** 2 * rr
    if not den > 0.0:
        raise ValueError(f"the pole {-d / c} of the map lies on the disc {enc}")
    centre = ((a * z0 + b) * q.conjugate() - a * c.conjugate() * rr) / den
    radius = abs(a * d - b * c) * r / den
    m_q = abs(c) * abs(z0) + abs(d)
    slack = ((abs(a) * abs(z0) + abs(b)) * m_q + abs(a) * abs(c) * rr
             + (abs(a) * abs(d) + abs(b) * abs(c)) * r
             + (abs(centre) + radius) * (m_q * m_q + abs(c) ** 2 * rr))
    return ClosedDisc(centre, radius + 16.0 * _UNIT_ROUNDOFF * slack / den)


def _affine_image_discs(ms, enc: ClosedDisc) -> tuple:
    """The image discs of enc under the affine maps among ms, as arrays.

    Returns (rows, a, b, centers, radii): rows are the positions in ms of
    the maps whose _mobius has c = 0, a and b their coefficients, and
    centers and radii the c = 0 rule of _image_disc, a z0 + b and |a| r.
    The centre is formed from real and imaginary parts in the order of
    Python's complex product and sum, and |a| by np.hypot as Python's
    complex abs, so each disc is bit for bit the scalar one; a disc that
    is not finite is returned as computed.  A map whose coefficients
    overflow (a long iterate) is left out, for the scalar rule to raise.
    """
    rows, a, b = [], [], []
    for i, m in enumerate(ms):
        try:
            mob = _mobius(m)
        except OverflowError:
            continue
        if mob is not None and mob[2] == 0:
            rows.append(i)
            a.append(mob[0])
            b.append(mob[1])
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    z0 = complex(enc.center)
    centers = np.empty(a.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        centers.real = a.real * z0.real - a.imag * z0.imag + b.real
        centers.imag = a.real * z0.imag + a.imag * z0.real + b.imag
        radii = np.hypot(a.real, a.imag) * enc.radius
    return np.array(rows, dtype=np.intp), a, b, centers, radii


def _affine_points_into(ms, a: np.ndarray, b: np.ndarray, d: Domain,
                        pts: np.ndarray) -> np.ndarray:
    """_maps_points_into(ms[k], d, pts) for maps ms[k](z) = a[k] z + b[k],
    as one bool array.

    Each map's input domain is tested on pts once per distinct domain;
    the images a z + b are formed and tested against d with the slack of
    _maps_points_into in blocks of ARRAY_BLOCK points.  An iterate is
    evaluated through its closed-form coefficients, not step by step.
    """
    ok = np.ones(a.size, dtype=bool)
    if pts.size == 0:
        return ok
    accepts = {}
    for k, m in enumerate(ms):
        dom = map_domain(m)
        if dom.kind not in accepts:
            accepts[dom.kind] = not np.any(_outside(dom, pts))
        ok[k] = accepts[dom.kind]
    step = max(1, ARRAY_BLOCK // pts.size)
    for s in range(0, a.size, step):
        images = a[s:s + step, None] * pts
        images += b[s:s + step, None]
        ok[s:s + step] &= np.all(d.contains(images, slack=1e-12), axis=1)
    return ok


def maps_into(m: HoloMap, d: Domain, c: CompactSet, resolution: int = 3) -> bool:
    """True iff every mapped sample point of c lies in d."""
    return _maps_points_into(m, d, sample_grid(c, resolution))


def _maps_points_into(m: HoloMap, d: Domain, pts: np.ndarray) -> bool:
    """True iff m is defined at every point of pts and sends each into d."""
    if pts.size == 0:
        return True
    try:
        mapped = apply(m, pts)
    except DomainError:
        return False
    return bool(np.all(d.contains(mapped, slack=1e-12)))
