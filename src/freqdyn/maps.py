"""Holomorphic self-map families of the four supported domains.

Every Moebius map z -> (a z + b)/(c z + d) is one `Mobius` record with a
declared domain, built by the family constructors; its conjugate by
the Cayley map is a product of matrices, decided equal to another record
in exact arithmetic.  A root shift of higher order and its iterates keep
records of their own.  Module functions provide evaluation, inverses,
iteration (a matrix power for a Moebius map) and closed-form disc bounds
for images of compact sets, one rule on coefficient arrays for every
Moebius map.  The square-root conjugation of the slit plane onto the
disc is a pair of module functions, slit_to_disc and disc_to_slit.
Evaluation near the slit (-inf, 0] is refused within a guard distance
because the principal branch is unstable there.
"""

from __future__ import annotations

import cmath
import math
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
    covering_discs,
    discs_inside,
    distance_to_slit,
    enclosing_disc,
    lies_in,
)

__all__ = [
    "CAYLEY",
    "CAYLEY_INVERSE",
    "DiscAutomorphism",
    "HalfPlaneShift",
    "HoloMap",
    "Identity",
    "Iterated",
    "Mobius",
    "ParabolicDisc",
    "RootMap",
    "RootShift",
    "Similarity",
    "apply",
    "cayley_conjugate",
    "disc_to_slit",
    "exact_entries",
    "image_enclosing_disc",
    "inverse_degree",
    "iterate",
    "map_domain",
    "maps_into",
    "projectively_equal",
    "slit_to_disc",
]

# Membership slack used when validating map inputs.
_EVAL_SLACK = 1e-9
# The unit roundoff u of a float.
_UNIT_ROUNDOFF = 2.0 ** -53

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
        if (self.a == 0) if self.c == 0 else _det_vanishes(self):
            raise ValueError("a Moebius map needs ad - bc != 0")


def _det_vanishes(m: Mobius) -> bool:
    """ad - bc = 0 exactly for c != 0: in floats when the float
    determinant exceeds a bound on its rounding, else by exact products.
    Entries not all finite (an overflowed matrix power) pass."""
    a, b, c, d = m.a, m.b, m.c, m.d
    if (abs(a * d - b * c) > 8.0 * _UNIT_ROUNDOFF * (abs(a) * abs(d) + abs(b) * abs(c)) + 2.0 ** -1000
            or not all(map(cmath.isfinite, (a, b, c, d)))):
        return False
    a, b, c, d = exact_entries(m)
    return _mul(a, d) == _mul(b, c)


def exact_entries(m: Mobius) -> list:
    """The finite entries a, b, c, d of a record as exact (real, imag)
    pairs of Fractions."""
    return [(Fraction(x.real), Fraction(x.imag)) for x in map(complex, (m.a, m.b, m.c, m.d))]


def projectively_equal(f: Mobius, g: Mobius) -> bool:
    """Whether f and g are one map: their matrices are proportional, every
    2 x 2 minor of the rows (a, b, c, d) vanishing in exact arithmetic on
    the float entries.  Domains are not compared."""
    u, v = exact_entries(f), exact_entries(g)
    return all(_mul(u[i], v[j]) == _mul(u[j], v[i]) for i in range(4) for j in range(i + 1, 4))


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


# The Cayley map z -> (1 + z) / (1 - z) of the unit disc onto the right
# half plane and its inverse w -> (w - 1) / (w + 1), each declared on its
# source domain: conformal bijections, not self-maps.
CAYLEY = Mobius(1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j, _UNIT_DISC)
CAYLEY_INVERSE = Mobius(1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j, _RIGHT_HALF_PLANE)


def cayley_conjugate(m: Mobius) -> Mobius:
    """The disc map CAYLEY^-1 o m o CAYLEY of a record m on the right half
    plane: a product of matrices, exact wherever the entries' products
    and sums are."""
    if m.domain != _RIGHT_HALF_PLANE:
        raise ValueError("a Cayley conjugate needs a map of the right half plane")
    return _compose(_compose(CAYLEY_INVERSE, m), CAYLEY)


def slit_to_disc(z):
    """f(z) = (sqrt(z) - 1) / (sqrt(z) + 1), the slit plane onto the disc,
    principal branch."""
    s = np.sqrt(np.asarray(z, dtype=complex))
    return (s - 1.0) / (s + 1.0)


def disc_to_slit(w):
    """The inverse of slit_to_disc, w -> ((1 + w) / (1 - w))^2."""
    w = np.asarray(w, dtype=complex)
    return ((1.0 + w) / (1.0 - w)) ** 2


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


HoloMap = Union[Mobius, RootMap, Iterated]


def map_domain(m: HoloMap) -> Domain:
    """The declared domain on which the map acts as a self-map."""
    if isinstance(m, Mobius):
        return m.domain
    if isinstance(m, RootMap):
        return _SLIT_PLANE
    if isinstance(m, Iterated):
        return map_domain(m.base)
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def _check_in_domain(dom: Domain, z: np.ndarray) -> None:
    """Raise DomainError at the first point of z a map on dom refuses as input."""
    if dom.kind is DomainKind.SLIT_PLANE:
        bad = np.atleast_1d(distance_to_slit(z) < SLIT_GUARD)
    else:
        bad = ~np.atleast_1d(dom.contains(z, slack=_EVAL_SLACK))
    if np.any(bad):
        raise DomainError(f"point {np.atleast_1d(z)[bad][0]} rejected for domain {dom.kind.value}")


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
    if isinstance(m, Iterated):
        out = z
        for _ in range(m.power):
            _check_in_domain(map_domain(m.base), out)
            out = _eval(m.base, out)
        return out
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def _inv(m: HoloMap, w: np.ndarray) -> np.ndarray:
    if isinstance(m, Mobius):
        if m.c == 0:
            return (w - m.b) / m.a
        return (m.d * w - m.b) / (m.a - m.c * w)
    if isinstance(m, RootMap):
        return ((w - float(m.n) ** m.beta) / float(m.n) ** m.alpha) ** m.root_n
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
    """f o g on g's domain for two records, f defined on g's image: the
    product of their matrices, (a a', a b' + b) for affine ones, else
    rescaled by a power of two, which changes no value."""
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
        # the base of an iterate is no Mobius record, so it has a degree
        return inverse_degree(m.base) ** m.power
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
    """
    if isinstance(m, Mobius) and not all(map(cmath.isfinite, (m.a, m.c, m.d))):
        raise OverflowError(f"the coefficients of {m} are not finite")
    enc = enclosing_disc(c)
    centre, radius = _image_disc(m, complex(enc.center), enc.radius)
    if isinstance(m, Mobius) and m.c != 0 and not (cmath.isfinite(centre) and math.isfinite(radius)):
        raise ValueError(f"the pole {-m.d / m.c} of the map lies on the disc {enc}")
    return ClosedDisc(centre, radius)


def _image_disc(m: HoloMap, z0: complex, r: float) -> tuple:
    """(centre, radius) of the image of |z - z0| <= r under the rule of
    image_enclosing_disc, not finite where that rule raises for it."""
    # iterates recurse here, so image_enclosing_disc runs once per disc
    if isinstance(m, Mobius):
        (centre,), (radius,) = _image_discs(*np.array([[m.a], [m.b], [m.c], [m.d]], dtype=complex), z0, r)
        return complex(centre), float(radius)
    if isinstance(m, RootMap):
        n = float(m.n)
        return complex(n ** m.beta), n ** m.alpha * (abs(z0) + r) ** (1.0 / m.root_n)
    if isinstance(m, Iterated):
        for _ in range(m.power):
            z0, r = _image_disc(m.base, z0, r)
        return z0, r
    raise TypeError(f"not a holomorphic map variant: {m!r}")


def _mul(x, y):
    """x y for complex values held as (real, imag) pairs of floats,
    arrays or Fractions, formed as Python's complex product forms it."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y, sign=1):
    """x + sign y for pairs as _mul takes them; an int sign keeps
    Fractions exact."""
    return x[0] + sign * y[0], x[1] + sign * y[1]


def _image_discs(a, b, c, d, z0: complex, r: float) -> tuple:
    """(centers, radii): row k bounds the image of the disc |z - z0| <= r
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


def maps_into(m: HoloMap, d: Domain, c: CompactSet) -> bool:
    """True iff c lies in map_domain(m) and m sends it into d, decided in
    closed form by geometry.lies_in.  The image is c for an identity
    record, else the disc image_enclosing_disc's rule gives for one of c's
    covering_discs, and a disc that is not finite (an overflowed power, a
    pole on the disc) lies in no domain."""
    if not lies_in(map_domain(m), c):
        return False
    if isinstance(m, Mobius) and (m.a, m.b, m.c) == (1, 0, 0):
        return lies_in(d, c)
    return any(discs_inside(d, *_image_disc(m, z0, r)) for z0, r in covering_discs(c))
