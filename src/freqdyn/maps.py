"""Holomorphic self-map families of the four supported domains.

Every Moebius map z -> (a z + b)/(c z + d) is one `Mobius` record with a
declared domain, built by the family constructors; a root shift of
higher order, a conformal conjugate and their iterates keep records of
their own.  Module functions provide evaluation, inverses, iteration (a
matrix power for a Moebius map) and closed-form disc bounds for images
of compact sets, one rule on coefficient arrays for every Moebius map.
Evaluation near the slit (-inf, 0] is refused within a guard distance
because the principal branch is unstable there.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from fractions import Fraction
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
    "Mobius",
    "PairKind",
    "ParabolicDisc",
    "RootMap",
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

_WHOLE_PLANE = Domain.whole_plane()
_UNIT_DISC = Domain.unit_disc()
_RIGHT_HALF_PLANE = Domain.right_half_plane()
_SLIT_PLANE = Domain.slit_plane()


@record
class Mobius:
    """z -> (a z + b) / (c z + d) on a declared domain, ad - bc != 0.

    c = 0 marks an affine map z -> a z + b, and then d = 1.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    domain: Domain

    def __post_init__(self):
        if self.c == 0 and self.d != 1:
            raise ValueError("an affine Moebius record (c = 0) needs d = 1")
        if (self.a == 0) if self.c == 0 else _det_vanishes(self.a, self.b, self.c, self.d):
            raise ValueError("a Moebius map needs ad - bc != 0")


def _det_vanishes(a, b, c, d) -> bool:
    """ad - bc = 0 exactly for c != 0: in floats when the float
    determinant exceeds a bound on its rounding, else by exact products.
    Entries not all finite (an overflowed matrix power) pass."""
    if (abs(a * d - b * c) > 8.0 * _UNIT_ROUNDOFF * (abs(a) * abs(d) + abs(b) * abs(c)) + 2.0 ** -1000
            or not all(map(cmath.isfinite, (a, b, c, d)))):
        return False
    (ar, ai), (br, bi), (cr, ci), (dr, di) = (
        map(Fraction, (complex(x).real, complex(x).imag)) for x in (a, b, c, d))
    return ar * dr - ai * di == br * cr - bi * ci and ar * di + ai * dr == br * ci + bi * cr


def Identity(domain: Domain = _WHOLE_PLANE) -> Mobius:
    """The identity map on a declared domain."""
    return Mobius(1.0 + 0.0j, 0.0j, 0.0, 1.0, domain)


def Similarity(a: complex, b: complex) -> Mobius:
    """z -> a z + b on the whole plane, a != 0."""
    if a == 0:
        raise ValueError("similarity coefficient a must be nonzero")
    return Mobius(complex(a), complex(b), 0.0, 1.0, _WHOLE_PLANE)


def DiscAutomorphism(k: complex, a: complex) -> Mobius:
    """z -> k (z - a) / (1 - conj(a) z) with |k| = 1 and |a| < 1."""
    k, a = complex(k), complex(a)
    if abs(abs(k) - 1.0) > 1e-12:
        raise ValueError("rotation factor k must be unimodular")
    if abs(a) >= 1.0:
        raise ValueError("automorphism parameter a must satisfy |a| < 1")
    return Mobius(k, -k * a, -a.conjugate(), 1.0, _UNIT_DISC)


def _shift(a: float, gamma: float, n: int) -> float:
    """The shift a n^gamma of a parabolic map, a > 0, gamma >= 1, n >= 1."""
    if a <= 0.0:
        raise ValueError("parameter a must be positive")
    if gamma < 1.0:
        raise ValueError("exponent gamma must be at least 1")
    if n < 1:
        raise ValueError("index n must be a positive integer")
    return a * float(n) ** gamma


def ParabolicDisc(a: float, gamma: float, n: int) -> Mobius:
    """Phi_n(z) = 1 + 2 (z - 1) / (2 - i s (z - 1)) with shift s = a n^gamma,
    a > 0, gamma >= 1, boundary fixed point 1: (2 - i s, i s, -i s, 2 + i s)."""
    s = _shift(a, gamma, n)
    return Mobius(2.0 - 1j * s, 1j * s, -1j * s, 2.0 + 1j * s, _UNIT_DISC)


def HalfPlaneShift(a: float, gamma: float, n: int) -> Mobius:
    """phi_n(z) = z + i a n^gamma on the right half plane."""
    return Mobius(1.0 + 0.0j, 1j * _shift(a, gamma, n), 0.0, 1.0, _RIGHT_HALF_PLANE)


@record
class RootMap:
    """phi_n(z) = n^alpha z^(1/N) + n^beta with N = root_n > 1 on the slit
    plane, as RootShift validates and builds it."""

    alpha: float
    beta: float
    root_n: int
    n: int


def RootShift(alpha: float, beta: float, root_n: int, n: int) -> Union[Mobius, RootMap]:
    """phi_n(z) = n^alpha z^(1/N) + n^beta on the slit plane, N = root_n.

    Requires beta > 0 and beta >= 1 + alpha; the root is the principal
    branch.  N = 1 gives the affine record (n^alpha, n^beta, 0, 1).
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if beta < 1.0 + alpha:
        raise ValueError("beta must be at least 1 + alpha")
    if root_n < 1:
        raise ValueError("root order must be a positive integer")
    if n < 1:
        raise ValueError("index n must be a positive integer")
    if root_n > 1:
        return RootMap(alpha, beta, root_n, n)
    x = float(n)
    return Mobius(complex(x ** alpha), complex(x ** beta), 0.0, 1.0, _SLIT_PLANE)


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
    """The power-fold composition of a base self-map that is no Mobius
    record; a Mobius record's iterate is its matrix power (iterate)."""

    base: "HoloMap"
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("iteration power must be a positive integer")
        if isinstance(self.base, Mobius):
            raise ValueError("the iterate of a Moebius map is its matrix power; use iterate")


HoloMap = Union[Mobius, RootMap, Conjugated, Iterated]


def _scalar_is_inf(z) -> bool:
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def map_domain(m: HoloMap) -> Domain:
    """The declared domain on which the map acts as a self-map."""
    if isinstance(m, Mobius):
        return m.domain
    if isinstance(m, RootMap):
        return _SLIT_PLANE
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
    if isinstance(m, Mobius):
        if m.c == 0:
            return m.a * z + m.b
        return (m.a * z + m.b) / (m.c * z + m.d)
    if isinstance(m, RootMap):
        return float(m.n) ** m.alpha * z ** (1.0 / m.root_n) + float(m.n) ** m.beta
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
    """step(z, out), which writes _eval(m, z) into out, a distinct row of
    the given width.  A Mobius record runs the ufuncs of _eval on
    coefficient and scratch rows prepared once, so a step allocates
    nothing, and only a NaN may differ, in sign, where a coefficient is
    infinite.  Any other map evaluates through _eval, which may raise
    DomainError.
    """
    if not isinstance(m, Mobius):

        def step(z, out):
            out[...] = _eval(m, z)

        return step

    a, b, c, d = (np.full(width, x, dtype=complex) for x in (m.a, m.b, m.c, m.d))
    den = np.empty(width, dtype=complex)
    mul, add, div = np.multiply, np.add, np.divide

    def step(z, out):
        # _eval operand for operand: a z + b, over c z + d when c != 0
        mul(a, z, out=out)
        add(out, b, out=out)
        if m.c != 0:
            mul(c, z, out=den)
            add(den, d, out=den)
            div(out, den, out=out)

    return step


def _inv(m: HoloMap, w: np.ndarray) -> np.ndarray:
    if isinstance(m, Mobius):
        if m.c == 0:
            return (w - m.b) / m.a
        return (m.d * w - m.b) / (m.a - m.c * w)
    if isinstance(m, RootMap):
        return ((w - float(m.n) ** m.beta) / float(m.n) ** m.alpha) ** m.root_n
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


def iterate(m: HoloMap, power: int) -> HoloMap:
    """The power-fold composition: a Mobius record's matrix power by
    repeated squaring, exact for integer translations, and an Iterated
    for any other map, nested iterates flattened.  A power may overflow
    to non-finite entries; its image disc then raises OverflowError.
    """
    if isinstance(m, Iterated):
        return Iterated(m.base, m.power * power)
    if not isinstance(m, Mobius):
        return Iterated(m, power)
    if power < 1:
        raise ValueError("iteration power must be a positive integer")
    if power == 1:
        return m
    half = iterate(m, power // 2)
    square = _compose(half, half)
    return _compose(square, m) if power % 2 else square


def _compose(f: Mobius, g: Mobius) -> Mobius:
    """f o g for two records on one domain: the product of their matrices,
    (a a', a b' + b) for affine ones, else rescaled by a power of two,
    which changes no value."""
    if f.c == 0 and g.c == 0:
        return Mobius(f.a * g.a, f.a * g.b + f.b, 0.0, 1.0, g.domain)
    a, b = f.a * g.a + f.b * g.c, f.a * g.b + f.b * g.d
    c, d = f.c * g.a + f.d * g.c, f.c * g.b + f.d * g.d
    if c == 0:
        return Mobius(a / d, b / d, 0.0, 1.0, g.domain)
    scale = math.ldexp(1.0, -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1])
    return Mobius(scale * a, scale * b, scale * c, scale * d, g.domain)


def inverse_degree(m: HoloMap) -> Optional[int]:
    """Degree of the inverse formula as a polynomial, None if it is none."""
    if isinstance(m, Mobius):
        return 1 if m.c == 0 else None
    if isinstance(m, RootMap):
        return m.root_n
    if isinstance(m, Iterated):
        base = inverse_degree(m.base)
        return None if base is None else base ** m.power
    return None


def image_enclosing_disc(m: HoloMap, c: CompactSet) -> ClosedDisc:
    """A closed disc containing m(c): the image of c's enclosing disc
    |z - z0| <= r under one closed-form rule.

    A Mobius record takes the rule of _image_discs at size 1, and a row
    that is not finite raises: OverflowError when a, c or d is not finite
    (an overflowed matrix power), ValueError naming the pole when it lies
    on the disc, ClosedDisc's ValueError otherwise.  A root shift with
    root_n = N > 1 maps |z| <= R into the disc of radius n^alpha R^(1/N)
    about n^beta, and an iterate of one applies that rule power times.
    Any other map, Conjugated among them, raises ValueError.
    """
    return _image_disc(m, enclosing_disc(c))


def _image_disc(m: HoloMap, enc: ClosedDisc) -> ClosedDisc:
    # iterates recurse here, so image_enclosing_disc runs once per disc
    if isinstance(m, Mobius):
        if not all(map(cmath.isfinite, (m.a, m.c, m.d))):
            raise OverflowError(f"the coefficients of {m} are not finite")
        (centre,), (radius,) = _image_discs(*np.array([[m.a], [m.b], [m.c], [m.d]], dtype=complex), enc)
        if m.c != 0 and not (cmath.isfinite(centre) and math.isfinite(radius)):
            raise ValueError(f"the pole {-m.d / m.c} of the map lies on the disc {enc}")
        return ClosedDisc(complex(centre), float(radius))
    if isinstance(m, RootMap):
        big_r = abs(enc.center) + enc.radius
        n = float(m.n)
        return ClosedDisc(complex(n ** m.beta), n ** m.alpha * big_r ** (1.0 / m.root_n))
    if isinstance(m, Iterated):
        for _ in range(m.power):
            enc = _image_disc(m.base, enc)
        return enc
    raise ValueError(f"no closed-form image disc for {type(m).__name__}")


def _mul(x, y):
    """x y for complex values held as (real, imag) pairs of floats or
    arrays, formed as Python's complex product forms it."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y, sign=1.0):
    return x[0] + sign * y[0], x[1] + sign * y[1]


def _image_discs(a, b, c, d, enc: ClosedDisc) -> tuple:
    """(centers, radii): row k bounds the image of enc, |z - z0| <= r,
    under z -> (a z + b) / (c z + d) with the coefficients of row k.

    A Moebius map sends a disc onto a disc (Needham, Visual Complex
    Analysis, ch. 3).  An affine row (c = 0) has centre a z0 + b and
    radius |a| r.  Any other row is scaled by a power of two, exact and
    keeping |q|^2 finite; with q = c z0 + d and D = |q|^2 - |c|^2 r^2 its
    centre is ((a z0 + b) conj(q) - a conj(c) r^2) / D and its radius
    |ad - bc| r / D plus the pad 16 u (M_w M_q + |a c| r^2 + (|a d|
    + |b c|) r + (|centre| + radius) (M_q^2 + |c|^2 r^2)) / D, with
    M_w = |a z0| + |b|, M_q = |c z0| + |d| and u the unit roundoff: to
    first order in u a bound on the rounding of centre and radius.  D <= 0
    puts the pole on the disc and the row is NaN.  Complex arithmetic runs
    on real and imaginary parts in Python's order and moduli are np.hypot,
    Python's abs, so a row is the scalar formula bit for bit, but that a
    square is a product where Python's ** 2 may round the other way.
    """
    z0, r = complex(enc.center), enc.radius
    z, rr = (z0.real, z0.imag), r * r
    centers = np.empty(a.size, dtype=complex)
    rest = c != 0
    with np.errstate(all="ignore"):
        centers.real, centers.imag = _add(_mul((a.real, a.imag), z), (b.real, b.imag))
        radii = np.hypot(a.real, a.imag) * r
        if not rest.any():
            return centers, radii
        rows = [(x[rest].real, x[rest].imag) for x in (a, b, c, d)]
        big = np.maximum.reduce([np.hypot(*x) for x in rows])
        a, b, c, d = (_mul((np.ldexp(1.0, -np.frexp(big)[1]), 0.0), x) for x in rows)
        q = _add(_mul(c, z), d)
        abs_a, abs_b, abs_c, abs_d, abs_q = (np.hypot(*x) for x in (a, b, c, d, q))
        den = abs_q * abs_q - abs_c * abs_c * rr
        num = _add(_mul(_add(_mul(a, z), b), (q[0], -q[1])),
                   _mul(_mul(a, (c[0], -c[1])), (rr, 0.0)), -1.0)
        # Python's complex quotient by (den, 0): ratio 0.0, denominator den
        centre = ((num[0] + num[1] * 0.0) / den, (num[1] - num[0] * 0.0) / den)
        radius = np.hypot(*_add(_mul(a, d), _mul(b, c), -1.0)) * r / den
        m_q = abs_c * abs(z0) + abs_d
        slack = ((abs_a * abs(z0) + abs_b) * m_q + abs_a * abs_c * rr
                 + (abs_a * abs_d + abs_b * abs_c) * r
                 + (np.hypot(*centre) + radius) * (m_q * m_q + abs_c * abs_c * rr))
        pole = ~(den > 0.0)
        centers.real[rest] = np.where(pole, np.nan, centre[0])
        centers.imag[rest] = np.where(pole, np.nan, centre[1])
        radii[rest] = np.where(pole, np.nan, radius + 16.0 * _UNIT_ROUNDOFF * slack / den)
    return centers, radii


def _mobius_points_into(domains, a, b, c, d, domain: Domain, pts: np.ndarray) -> bool:
    """_maps_points_into(m, domain, pts) for every Mobius record m with
    coefficient rows a, b, c, d and its own domain among domains.

    pts is tested once per domain; the images a z + b, divided by c z + d
    where c != 0, are formed as _eval forms them and tested against
    domain with the slack of _maps_points_into, ARRAY_BLOCK at a time.
    """
    if pts.size == 0:
        return True
    if any(np.any(_outside(dom, pts)) for dom in domains):
        return False
    step = max(1, ARRAY_BLOCK // pts.size)
    for s in range(0, a.size, step):
        rows = slice(s, s + step)
        images = a[rows, None] * pts
        images += b[rows, None]
        frac = c[rows] != 0
        if frac.any():
            images[frac] /= c[rows][frac, None] * pts + d[rows][frac, None]
        if not np.all(domain.contains(images, slack=1e-12)):
            return False
    return True


def maps_into(m: HoloMap, d: Domain, c: CompactSet, resolution: int = 3) -> bool:
    """True iff every mapped sample point of c lies in d."""
    return _maps_points_into(m, d, sample_grid(c, resolution))


def _maps_points_into(m: HoloMap, d: Domain, pts: np.ndarray) -> bool:
    """True iff m is defined at every point of pts and sends each into d."""
    if pts.size == 0:
        return True
    try:
        # an overflowed power's image is non-finite, which d refuses
        with np.errstate(all="ignore"):
            mapped = apply(m, pts)
    except DomainError:
        return False
    return bool(np.all(d.contains(mapped, slack=1e-12)))
