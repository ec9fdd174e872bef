"""Holomorphic self-map families of the four supported domains.

Every map variant is a frozen value class with a declared domain, and
`Conjugated` transports one by a conformal equivalence; module
functions provide evaluation, inversion with a round-trip check,
iteration, and certified disc bounds for images of compact sets.
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
    "inverse_apply",
    "inverse_degree",
    "iterate",
    "map_domain",
    "maps_into",
]

# Relative round-trip tolerance accepted by inverse_apply.
ROUND_TRIP_TOL = 1e-8
# Membership slack used when validating map inputs.
_EVAL_SLACK = 1e-9
# Inflation factor for sampled image bounds.
IMAGE_MARGIN = 1.05


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


def map_domain(m: HoloMap) -> Domain:
    """The declared domain on which the map acts as a self-map."""
    if isinstance(m, Identity):
        return m.domain
    if isinstance(m, Similarity):
        return Domain.whole_plane()
    if isinstance(m, (DiscAutomorphism, ParabolicDisc)):
        return Domain.unit_disc()
    if isinstance(m, RootShift):
        return Domain.slit_plane()
    if isinstance(m, HalfPlaneShift):
        return Domain.right_half_plane()
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


def inverse_apply(m: HoloMap, w):
    """Evaluate the inverse map at w.

    The closed-form inverse is applied, the preimage is checked to lie in
    the domain, and a round trip through apply must reproduce w within a
    relative tolerance; otherwise w is not in the image and a DomainError
    is raised.
    """
    scalar = np.isscalar(w)
    ww = np.atleast_1d(np.asarray(w, dtype=complex))
    _check_in_domain(map_domain(m), ww)
    zz = _inv(m, ww)
    _check_in_domain(map_domain(m), zz)
    back = _eval(m, zz)
    err = np.abs(back - ww)
    tol = ROUND_TRIP_TOL * (1.0 + np.abs(ww))
    if np.any(err > tol):
        offender = ww[err > tol][0]
        raise DomainError(f"{offender} is not in the image of {type(m).__name__}")
    return complex(zz[0]) if scalar else zz


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


def _linear_coeffs(m: HoloMap) -> Optional[tuple]:
    """(a, b) with m(z) = a z + b where that form is exact, else None."""
    if isinstance(m, Identity):
        return (1.0 + 0.0j, 0.0 + 0.0j)
    if isinstance(m, Similarity):
        return (complex(m.a), complex(m.b))
    if isinstance(m, HalfPlaneShift):
        return (1.0 + 0.0j, 1j * m.shift)
    if isinstance(m, RootShift) and m.root_n == 1:
        return (
            complex(float(m.n) ** m.alpha),
            complex(float(m.n) ** m.beta),
        )
    if isinstance(m, Iterated):
        base = _linear_coeffs(m.base)
        if base is None:
            return None
        a, b = base
        p = m.power
        if a == 1.0:
            return (a, b * p)
        return (a ** p, b * (a ** p - 1.0) / (a - 1.0))
    return None


def inverse_degree(m: HoloMap) -> Optional[int]:
    """Degree of the inverse formula as a polynomial, None if it is none."""
    if _linear_coeffs(m) is not None:
        return 1
    if isinstance(m, Iterated):
        base = inverse_degree(m.base)
        return None if base is None else base ** m.power
    return m.root_n if isinstance(m, RootShift) else None


def image_enclosing_disc(
    m: HoloMap,
    c: CompactSet,
    resolution: int = 3,
) -> ClosedDisc:
    """A closed disc certified (or analytically known) to contain m(c).

    Affine maps give the exact image of the enclosing disc.  For a root
    shift the bound is the analytic one: a compact inside |z| <= R maps
    into the disc of radius n^alpha R^(1/N) about n^beta.  All other
    variants map a sample grid and return the smallest centred disc over
    the mapped points inflated by the factor IMAGE_MARGIN.
    """
    enc = enclosing_disc(c)
    lin = _linear_coeffs(m)
    if lin is not None:
        a, b = lin
        return ClosedDisc(a * enc.center + b, abs(a) * enc.radius)
    if isinstance(m, RootShift):
        big_r = abs(enc.center) + enc.radius
        return ClosedDisc(
            complex(float(m.n) ** m.beta),
            float(m.n) ** m.alpha * big_r ** (1.0 / m.root_n),
        )
    pts = sample_grid(c, resolution)
    if pts.size == 0:
        pts = sample_grid(enc, resolution)
    mapped = apply(m, pts)
    centre = complex(np.mean(mapped))
    radius = float(np.max(np.abs(mapped - centre)))
    return ClosedDisc(centre, IMAGE_MARGIN * radius)


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
