"""Polynomial machinery for approximation on disjoint compacts.

A candidate holomorphic function is represented by a single polynomial
fitted simultaneously on finitely many pairwise disjoint compact
regions, each carrying its own target values and tolerance budget.
The fit interpolates the targets in Newton form at weighted discrete
Leja points of rings around the compacts (Leja, Ann. Polon. Math. 4,
1957; Reichel, "Newton interpolation at Leja points", BIT 30, 1990):
each degree adds one node, one scale and one coefficient, the
interpolants are nested and well conditioned however far apart the
compacts lie, and the pass keeps two arrays on the points.  Fixed
polynomials (targets, the dense enumeration, span monomials) are the
Newton form at nodes 0 and scales 1, the monomial basis, so one
Newton-Horner loop evaluates every polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from ._record import record
from .density import IndexSet, split
from .geometry import ClosedDisc, CompactSet, disc_pairs, enclosing_disc, min_envelope
from .maps import HoloMap, Mobius, inverse_degree, raw_inverse
from .runaway import CarlemanTruncation

__all__ = [
    "CandidateStatus",
    "ComposedInverse",
    "FhcCandidate",
    "NewtonPoly",
    "PieceCertificate",
    "PiecewiseTarget",
    "Polynomial",
    "SpanBasis",
    "TargetPiece",
    "assemble_dense_target",
    "assemble_existence_target",
    "assemble_mixed_target",
    "assemble_spaceable_target",
    "build_span_basis",
    "double_split",
    "enumerate_dense_polynomial",
    "fit_bytes",
    "fit_on_compacts",
    "island_label",
    "l2_circle_norm",
    "l2_distance_on_circle",
]

_U = np.finfo(float).eps / 2  # unit roundoff

# _verify reads each disc on a ring of at least _RING_DENSITY points per
# degree of freedom, so its Bernstein factor at D = d is below
# _BERNSTEIN_FACTOR, which the fit's verification schedule takes.
_RING_DENSITY = 64
_BERNSTEIN_FACTOR = 1.0 / (1.0 - math.pi / _RING_DENSITY)


# ---------------------------------------------------------------------------
# Polynomial representations


def _newton_horner(c, x, s, z, rounding: bool) -> tuple:
    """The Newton-Horner recurrence y <- c_k + t y, t = (z - x_k) / s_k,
    from y = c_d at the flat points z, and with rounding a running error
    bound for each value, of first order in the unit roundoff u (Higham,
    Accuracy and Stability of Numerical Algorithms, secs. 3.1 and 5.1);
    without it the bound is None.

    The step errs by at most u |t| |y_{k+1}| in the difference, 2 sqrt(2)
    u |t| |y_{k+1}| in the complex product and u |y_k| in the sum; the
    error carried from y_{k+1} is multiplied by |t|.  The bound doubles
    the total, a margin for the terms of second order.  Every point takes
    the same operations, in the order c_k + t y, so values agree bit for
    bit however the points are chunked.
    """
    y = np.full(z.shape, c[-1])
    error = np.zeros(z.shape) if rounding else None
    for k in range(c.size - 2, -1, -1):
        t = z - x[k]
        t /= s[k]
        if rounding:
            size = np.abs(t)
            error *= size
            size *= (1.0 + 2.0 * math.sqrt(2.0)) * _U
            size *= np.abs(y)
            error += size
        # y <- c_k + t y, in t's buffer; the product keeps the operand
        # order t y, since numpy's complex product need not commute bit for bit
        t *= y
        t += c[k]
        y = t
        if rounding:
            error += _U * np.abs(y)
    return y, None if error is None else 2.0 * error


@record(eq=False)
class NewtonPoly:
    """Polynomial in the Newton form of its interpolation nodes x_k:
    p(z) = sum_k c_k prod_{j<k} (z - x_j) / s_j, with d nodes and scales
    and d + 1 coefficients.  Every scale s_j is a power of two, so
    dividing by it rounds nothing.
    """

    nodes: np.ndarray
    scales: np.ndarray
    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def evaluate(self, z):
        """Values at the points z, of z's shape; a complex for a scalar."""
        w = np.asarray(z, dtype=complex)
        y, _ = _newton_horner(self.coefficients, self.nodes, self.scales, w.ravel(), False)
        if w.ndim == 0:
            return complex(y[0])
        return y.reshape(w.shape)

    def evaluate_with_rounding(self, z) -> tuple:
        """Values at the points z, flattened, as evaluate takes them, and
        the running error bound of _newton_horner for each."""
        z = np.asarray(z, dtype=complex).ravel()
        return _newton_horner(self.coefficients, self.nodes, self.scales, z, True)


class Polynomial(NewtonPoly):
    """Coefficients in the monomial basis z^j, ascending: the Newton form
    at nodes 0 and scales 1, whose differences and quotients round
    nothing.  Trailing zero coefficients are trimmed, so the stated
    degree is honest."""

    def __init__(self, coefficients):
        coeffs = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        nz = np.nonzero(coeffs)[0]
        coeffs = coeffs[: nz[-1] + 1] if nz.size else coeffs[:1] * 0.0
        d = coeffs.size - 1
        super().__init__(np.zeros(d, dtype=complex), np.ones(d), coeffs)

    @staticmethod
    def monomial(mu: int) -> "Polynomial":
        if mu < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = np.zeros(mu + 1, dtype=complex)
        c[mu] = 1.0
        return Polynomial(c)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(np.zeros(1, dtype=complex))


# ---------------------------------------------------------------------------
# Dense enumeration of polynomials with Gaussian-rational coefficients


def _cantor_unpair(n: int) -> tuple:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def _calkin_wilf(j: int) -> Fraction:
    """j-th positive rational in breadth-first tree order, j >= 1."""
    num, den = 1, 1
    for bit in bin(j)[3:]:
        if bit == "1":
            num += den
        else:
            den += num
    return Fraction(num, den)


def _signed_rational(k: int) -> Fraction:
    """Bijection from nonnegative integers onto the rationals, 0 -> 0, 1 -> 1."""
    if k == 0:
        return Fraction(0)
    q = _calkin_wilf((k - 1) // 2 + 1)
    return q if (k - 1) % 2 == 0 else -q


def _gaussian_rational(m: int) -> complex:
    """Bijection from nonnegative integers onto the Gaussian rationals.

    Index 0 is the only preimage of 0, so a positive index certifies a
    nonzero value; index 1 gives 1, which places the monomials at
    closed-form positions in the polynomial enumeration.
    """
    if m == 0:
        return 0.0 + 0.0j
    a, b = _cantor_unpair(m)
    return complex(_signed_rational(a)) + 1j * float(_signed_rational(b))


def _decode_tuple(pack: int, length: int) -> tuple:
    if length == 1:
        return (pack,)
    head, rest = _cantor_unpair(pack)
    return (head,) + _decode_tuple(rest, length - 1)


def enumerate_dense_polynomial(l: int) -> Polynomial:
    """Deterministic enumeration of Gaussian-rational polynomials.

    Index 1 is the zero polynomial.  For l >= 2, the offset l - 2 is
    unpaired into (degree, pack); pack then decodes into one coefficient
    index per position, the leading one shifted so that it is always
    nonzero.  Fixed positions: l = 2 gives the constant 1 and, in
    general, l = 2 + degree(degree+1)/2 gives the monomial z^degree.
    """
    if l < 1:
        raise ValueError("enumeration index starts at 1")
    if l == 1:
        return Polynomial.zero()
    degree, pack = _cantor_unpair(l - 2)
    idx = _decode_tuple(pack, degree + 1)
    coeffs = [_gaussian_rational(m) for m in idx[:-1]]
    coeffs.append(_gaussian_rational(idx[-1] + 1))
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# Local Taylor coefficients and circle norms


def _circle(center: complex, radius: float, n: int) -> np.ndarray:
    """n equispaced points on the circle |z - center| = radius, the first
    at angle 0."""
    return center + radius * np.exp(2j * np.pi * np.arange(n) / n)


def _local_taylor(values: np.ndarray) -> Polynomial:
    """Coefficients of u -> p(c + r u) in powers of u, from the values of
    p at the n = len(values) points _circle(c, r, n), deg p < n.

    The DFT of the values, divided by n, is the coefficient vector exactly:
    with no more coefficients than nodes nothing aliases (Trefethen,
    Approximation Theory and Approximation Practice, ch. 3).  Every
    coefficient is at most the largest value in modulus.
    """
    return Polynomial(np.fft.fft(values) / values.size)


def _ring_points(d: int) -> int:
    """The ring size of _verify at fit degree d: 2^ceil(log2 64 (d + 1))."""
    return 1 << (_RING_DENSITY * (d + 1) - 1).bit_length()


def _ring_values(coefficients: np.ndarray, m: int) -> np.ndarray:
    """sum_k a_k u^k at the m points _circle(0, 1, m), m >= len(a): a
    zero-padded inverse FFT, unscaled."""
    return np.fft.ifft(coefficients, m, norm="forward")


def _fft_error(n: int) -> float:
    """A bound on max_j |fl(F x)_j - (F x)_j| / ||x||_1 for numpy's FFT of
    length n.  Higham (Accuracy and Stability of Numerical Algorithms,
    sec. 24.1) proves Thm 24.2 from a stage model of the radix-2 FFT:
    stage k computes (A_k + dA_k) y with |dA_k| <= eta |A_k|, where
    eta = mu + gamma_4 (sqrt 2 + mu) and mu bounds the twiddle factors'
    error.  The moduli |A_t| ... |A_1| multiply to the all-ones matrix,
    so every output errs by at most ((1 + eta)^t - 1) ||x||_1 <=
    t eta / (1 - t eta) ||x||_1, with t = log2 n stages.  Here
    t = ceil(log2 n), which assumes as much of a length that is no power
    of two, and mu = 4 u (cos and sin each within one ulp)."""
    t = (n - 1).bit_length()
    eta = 4.0 * _U + 4.0 * _U / (1.0 - 4.0 * _U) * (math.sqrt(2.0) + 4.0 * _U)
    return t * eta / (1.0 - t * eta)


def _circle_coefficients(polys) -> np.ndarray:
    """Monomial coefficients of each polynomial as zero-padded rows, from
    its values at deg + 1 points of the unit circle (_local_taylor).

    By Parseval, products of rows are the inner products in L2 of the
    unit circle with normalized arclength measure.
    """
    coeffs = [
        _local_taylor(p.evaluate(_circle(0.0, 1.0, p.degree + 1))).coefficients for p in polys
    ]
    rows = np.zeros((len(coeffs), max(c.size for c in coeffs)), dtype=complex)
    for row, c in zip(rows, coeffs):
        row[: c.size] = c
    return rows


def _l2(coefficients: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(coefficients) ** 2)))


def l2_circle_norm(p: NewtonPoly) -> float:
    """Norm in L2 of the unit circle with normalized arclength measure:
    the square root of the sum of squared moduli of the monomial
    coefficients, exactly (Parseval)."""
    return _l2(_circle_coefficients([p])[0])


def l2_distance_on_circle(f: NewtonPoly, g: NewtonPoly) -> float:
    """||f - g|| in L2 of the circle, from coefficients by Parseval."""
    rows = _circle_coefficients([f, g])
    return _l2(rows[0] - rows[1])


# ---------------------------------------------------------------------------
# Piecewise targets


@record(eq=False)
class ComposedInverse:
    """Target P(phi^{-1}(z)) on an island; the inverse formula is applied
    without an image-membership check because the certified disc bound
    may slightly overhang the true image."""

    poly: Polynomial
    map: HoloMap

    @property
    def degree(self) -> Optional[int]:
        """deg P times that of the inverse formula, None if that is none."""
        k = inverse_degree(self.map)
        return None if k is None else self.poly.degree * k

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(raw_inverse(self.map, z))

    def evaluate_with_rounding(self, z: np.ndarray) -> tuple:
        """Values and a bound on their rounding, to first order in u.

        A constant P takes no rounding.  Through an affine map z -> a z + b
        the inverse x = (z - b) / a errs by at most u |z - b| / |a| for the
        difference and 16 u |x| for the quotient (Smith's algorithm, which
        numpy divides by, within about 10 u); moving x by h moves P(x) by at
        most |h| sum_k k |p_k| (|x| + |h|)^(k - 1), beside the running
        bound of P at the computed x.  Through any other map the bound is inf.
        """
        z = np.asarray(z, dtype=complex).ravel()
        p, m = self.poly, self.map
        if p.degree == 0:
            return np.full(z.shape, p.coefficients[0]), np.zeros(z.shape)
        x = raw_inverse(m, z)
        values, rounding = p.evaluate_with_rounding(x)
        if not (isinstance(m, Mobius) and m.c == 0):
            return values, np.full(z.shape, math.inf)
        shift = _U * (np.abs(z - m.b) / abs(m.a) + 16.0 * np.abs(x))
        slope = Polynomial(np.abs(p.coefficients[1:]) * np.arange(1, p.degree + 1))
        return values, rounding + shift * slope.evaluate(np.abs(x) + shift).real


# A piece's target: degree, evaluate and evaluate_with_rounding, the
# values being those that _piece_data fits and _verify certifies.
PieceSpec = Union[Polynomial, ComposedInverse]


@record(eq=False)
class TargetPiece:
    region: ClosedDisc
    spec: PieceSpec
    tau: float

    def __post_init__(self):
        if not isinstance(self.region, ClosedDisc):
            raise ValueError(f"a target piece is a disc, not a {type(self.region).__name__}")
        if not (self.tau > 0.0):
            raise ValueError("tolerance budget must be positive")


@record(eq=False)
class PiecewiseTarget:
    pieces: tuple

    def __post_init__(self):
        regions = [piece.region for piece in self.pieces]
        first_bad = disc_pairs(
            np.array([r.center for r in regions], dtype=complex),
            np.array([r.radius for r in regions], dtype=float),
        )[0]
        if first_bad is not None:
            i, j = first_bad
            raise ValueError(f"target regions {i} and {j} are not disjoint")


# ---------------------------------------------------------------------------
# Fitting


@record
class PieceCertificate:
    """achieved bounds sup |f - target| on the piece (_verify); envelope is its budget tau."""

    achieved: float
    envelope: float


class CandidateStatus:
    PASS = "PASS"
    FAILED = "FAILED"


@record(eq=False)
class FhcCandidate:
    fn: NewtonPoly
    certificates: tuple
    status: str
    reason: Optional[str]

    @property
    def degree(self) -> int:
        return self.fn.degree

    def evaluate(self, z):
        return self.fn.evaluate(z)

    @property
    def max_ratio(self) -> float:
        """Worst achieved error over envelope across pieces."""
        return max(c.achieved / c.envelope for c in self.certificates)


def _ring_sizes(target: PiecewiseTarget, max_degree: int) -> list:
    """The number of fit points on each piece.

    The rings share one arclength spacing: a disc of radius r > 0 carries
    max(32, D + 1, ceil((max_degree + 1) r / r_max)) equispaced points on
    its boundary circle, r_max the largest radius of the target and D the
    degree of the piece's target.  So the largest disc holds as many
    points as fix a polynomial of the degree cap, the discrete inner
    product approximates arclength on the union of circles, and no ring
    aliases its own target.  A disc of radius 0 contributes its centre.
    Every piece's target must be a polynomial.
    """
    r_max = max(piece.region.radius for piece in target.pieces)
    sizes = []
    for idx, piece in enumerate(target.pieces):
        if piece.spec.degree is None:
            m = piece.spec.map
            name = "a non-affine Moebius map" if isinstance(m, Mobius) else type(m).__name__
            raise ValueError(f"piece {idx}: the target through {name} is no polynomial")
        r = piece.region.radius
        if r > 0.0:
            share = math.ceil((max_degree + 1) * (r / r_max))
            sizes.append(max(32, piece.spec.degree + 1, share))
        else:
            sizes.append(1)
    return sizes


def fit_bytes(target: PiecewiseTarget, max_degree: int) -> int:
    """A bound on the memory fit_on_compacts takes on target when the fit
    runs to its degree cap: eight complex arrays on the fit points
    (_piece_data's points, values and weights, the residual and node
    polynomial of _fit_leja, and their temporaries) and eight on the ring
    of _ring_points(cap) points that _verify takes through one piece (the
    unit ring, the target's points, values and bounds, the fit's values
    and their temporaries)."""
    points = sum(_ring_sizes(target, max_degree))
    ring = _ring_points(min(max_degree, points - 1))
    return 128 * (points + ring)


def _piece_data(target: PiecewiseTarget, max_degree: int):
    """Fit points (_ring_sizes), target values and weights 1 / tau of all
    pieces."""
    pts, vals, weights = [], [], []
    for piece, n in zip(target.pieces, _ring_sizes(target, max_degree)):
        c, r = piece.region.center, piece.region.radius
        grid = _circle(c, r, n) if r > 0.0 else np.array([complex(c)])
        pts.append(grid)
        vals.append(piece.spec.evaluate(grid))
        weights.append(np.full(grid.size, 1.0 / piece.tau))
    return np.concatenate(pts), np.concatenate(vals), np.concatenate(weights)


def _fit_leja(pts, vals, weights, max_degree):
    """Newton interpolation at weighted discrete Leja points of pts, one
    degree at a time (Reichel, BIT 30, 1990; Bos, De Marchi, Sommariva
    and Vianello, SIAM J. Numer. Anal. 48, 2010).

    Two arrays live on the points: the residual r = vals - p_{k-1} and
    the node polynomial omega_k = prod_{j<k} (z - x_j) / s_j.  The first
    node x_0 is the first point of largest weight; step k takes
    c_k = r(x_k) / omega_k(x_k) and r <- r - c_k omega_k, then
    omega_{k+1} = omega_k (z - x_k) / s_k, s_k the power of two nearest
    max w |omega_k (z - x_k)|, and x_{k+1} the first point where
    w |omega_{k+1}| is largest.  Nodes, scales and coefficients are
    nested, so their first entries are the lower-degree fits.  For
    k = 0, 1, ... the generator yields (rho, last, fit): rho = max |w r|
    over the points (with w = 1 / tau on each piece, the worst sampled
    error-to-budget ratio); last, true at max_degree or once w |omega|
    has no positive finite maximum, which happens when every distinct
    point is a node; and fit(), which returns the degree-k NewtonPoly
    while the generator waits.
    """
    w = np.asarray(weights, dtype=float)
    r = np.array(vals, dtype=complex)
    omega = np.ones(pts.size, dtype=complex)
    nodes = np.empty(max_degree, dtype=complex)
    scales = np.empty(max_degree)
    coeffs = np.empty(max_degree + 1, dtype=complex)
    j = int(np.argmax(w))
    for k in range(max_degree + 1):
        coeffs[k] = r[j] / omega[j]
        r -= coeffs[k] * omega
        rho = float(np.max(w * np.abs(r)))
        last = k == max_degree
        if not last:
            nodes[k] = pts[j]
            omega *= pts - nodes[k]
            size = w * np.abs(omega)
            j = int(np.argmax(size))
            last = not 0.0 < size[j] < math.inf
            if not last:
                scales[k] = math.ldexp(1.0, min(max(round(math.log2(size[j])), -1022), 1023))
                omega /= scales[k]
        yield rho, last, lambda k=k: NewtonPoly(
            nodes[:k].copy(), scales[:k].copy(), coeffs[: k + 1].copy()
        )
        if last:
            return


def _moved(degree: int, shift: float) -> float:
    """The most a polynomial of this degree, of sup 1 on the unit disc,
    changes when its argument moves by shift: shift times its
    derivative's bound degree (1 + shift)^(degree - 1) on that disc grown
    by shift (Bernstein); inf once degree shift reaches 1."""
    if degree * shift >= 1.0:
        return math.inf
    return degree * shift * (1.0 + shift) ** max(degree - 1, 0)


def _sup(ring_max: float, loss: float) -> float:
    """sup <= ring_max + loss sup, solved: ring_max / (1 - loss), or inf."""
    return ring_max / (1.0 - loss) if loss < 1.0 else math.inf


def _verify(fn: NewtonPoly, target: PiecewiseTarget) -> list:
    """A bound on sup |fn - target| over every piece, rounding included.

    On a disc of centre c and radius r > 0, e(c + r u) is a polynomial in
    u of degree D = max(d, target degree), d = fn.degree, whose sup sits
    on |u| = 1.  fn is evaluated at d + 1 nodes c + r u_j only; their FFT
    gives its local Taylor coefficients, and a zero-padded inverse FFT
    their values on m = _ring_points(d) ring points, where the target is
    evaluated with its running error bound.  Bernstein's inequality gives
    ||e|| <= max_ring |e| + (pi D / m) ||e||, below 1.052 max_ring |e|
    when D = d (_BERNSTEIN_FACTOR), inf when m <= pi D.

    max_ring |e| gains every rounding, to first order in u:
    - the 2-norm of the node error bounds, by Parseval the most they move
      a ring value;
    - the FFTs (_fft_error): the forward one of length d + 1 moves each
      Taylor coefficient by at most e_{d+1} ||values||_1 / (d + 1), and
      so a ring value by e_{d+1} ||values||_1; dividing by d + 1 and the
      inverse one move a ring value by (u + e_m) ||coefficients||_1;
    - the target's rounding bound;
    - point positions: _circle's angles 2 pi k / n round by 4 u of
      2 pi, libm's cos and sin by an ulp, and c + r u by u (|c| + 2 r),
      so a point lies within delta = 2 u (|c| + 16 r) of its place,
      which moves fn's node values and the
      target's ring values by at most _moved(degree, delta / r) times
      their sup, each sup bounded from its own ring values; the node
      moves reach the ring through Parseval, times sqrt(d + 1).
    A disc of radius 0 is one point: its error plus both roundings.
    Every bound is raised by 16 u for the difference, the moduli and the
    sums that form it.  A bound that is not finite, as where fn
    overflows on a disc, is inf.
    """
    d = fn.degree
    nodes, ring = _circle(0.0, 1.0, d + 1), _circle(0.0, 1.0, _ring_points(d))
    bounds = [_piece_bound(fn, piece, nodes, ring) for piece in target.pieces]
    return [float((1.0 + 16.0 * _U) * b) if math.isfinite(b) else math.inf for b in bounds]


def _piece_bound(fn: NewtonPoly, piece: TargetPiece, nodes: np.ndarray, ring: np.ndarray) -> float:
    """The bound of _verify on one piece, before its 16 u, from the unit
    circles of d + 1 nodes and of m ring points."""
    c, r, spec = piece.region.center, piece.region.radius, piece.spec
    if r == 0.0:
        value, rounding = fn.evaluate_with_rounding(c)
        wanted, slack = spec.evaluate_with_rounding(c)
        return abs(value[0] - wanted[0]) + rounding[0] + slack[0]
    d, m = fn.degree, ring.size
    wanted, slack = spec.evaluate_with_rounding(c + r * ring)
    target_error = np.max(slack)
    del slack
    values, rounding = fn.evaluate_with_rounding(c + r * nodes)
    taylor = _local_taylor(values).coefficients
    fitted = _ring_values(taylor, m)
    transform = _fft_error(d + 1) * np.sum(np.abs(values))
    transform += (_U + _fft_error(m)) * np.sum(np.abs(taylor))
    node_error = np.linalg.norm(rounding) + transform
    shift = 2.0 * _U * (abs(c) + 16.0 * r) / r
    moved_fn = math.sqrt(d + 1) * _moved(d, shift)
    moved_target = _moved(spec.degree, shift)
    fn_sup = _sup(np.max(np.abs(fitted)) + node_error, math.pi * d / m + moved_fn)
    target_sup = _sup(np.max(np.abs(wanted)) + target_error, math.pi * spec.degree / m + moved_target)
    fitted -= wanted
    ring_max = np.max(np.abs(fitted)) + node_error + target_error
    ring_max += moved_fn * fn_sup + moved_target * target_sup
    return _sup(ring_max, math.pi * max(d, spec.degree) / m)


def fit_on_compacts(target: PiecewiseTarget, max_degree: int = 256) -> FhcCandidate:
    """Newton interpolation at weighted Leja points, certified by _verify.

    One pass over one grid (_piece_data, _fit_leja) gives the degree-k
    fit and its weighted residual rho_k, the worst sampled
    error-to-budget ratio, at every degree k up to max_degree.  The bound
    of _verify is a ring maximum times a Bernstein factor of up to
    _BERNSTEIN_FACTOR, so the degree-k fit is verified only when that
    factor times rho_k is below a limit: at first 1, after each FAIL that
    step's rho, and the last degree always.  The first verified step
    whose bound is below every piece's budget PASSes, certified by those
    bounds; the schedule only skips steps, so a PASS is always a bound.
    If none passes, the verified step of least worst bound-to-budget
    ratio, the first on a tie, FAILs as NON-CONVERGED; a bound that is
    not finite makes its step's ratio inf, so such a step is never kept
    over a finite one.
    Every piece's target must be a polynomial.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    taus = [p.tau for p in target.pieces]
    pts, vals, weights = _piece_data(target, max_degree)
    limit, best = 1.0, None
    for rho, last, fit in _fit_leja(pts, vals, weights, min(max_degree, pts.size - 1)):
        if not (last or _BERNSTEIN_FACTOR * rho < limit):
            continue
        fn = fit()
        bounds = _verify(fn, target)
        ratio = max(b / t if math.isfinite(b) else math.inf for b, t in zip(bounds, taus))
        if best is None or ratio < best[0]:
            best = (ratio, fn, bounds)
        passed = all(b < t for b, t in zip(bounds, taus))
        if passed:
            break
        limit = rho
    _, fn, bounds = best
    return FhcCandidate(
        fn=fn,
        certificates=tuple(PieceCertificate(b, t) for b, t in zip(bounds, taus)),
        status=CandidateStatus.PASS if passed else CandidateStatus.FAILED,
        reason=None if passed else "NON-CONVERGED",
    )


# ---------------------------------------------------------------------------
# Target assembly


def double_split(a: IndexSet, l_max: int, p_max: int, horizon: int) -> dict:
    """Split a into blocks keyed (l, p): first by p, then each block by l.

    Every returned set keeps positive rank density; labels with l = l_max
    or p = p_max absorb all higher assignments of their level.
    """
    out = {}
    for p_idx, block in enumerate(split(a, p_max, horizon), start=1):
        for l_idx, piece in enumerate(split(block, l_max, horizon), start=1):
            out[(l_idx, p_idx)] = piece
    return out


def island_label(splits: dict, n: int, nu: int) -> Optional[tuple]:
    """Key (l, p) of the piece of level nu that holds index n, or None.

    splits maps nu -> dict[(l, p) -> IndexSet], as double_split builds
    each level; the pieces of one level are disjoint.
    """
    for key, index_set in splits.get(nu, {}).items():
        if n in index_set:
            return key
    return None


def _island_pieces(
    tr: CarlemanTruncation,
    splits: dict,
    block: int,
    tau: Callable[[float], float],
) -> list:
    """The labelled polynomial composed with the inverse map on islands
    whose p-block is block, zero on the rest, at tolerance tau(envelope)."""
    pieces = []
    for island in tr.islands:
        key = island_label(splits, island.n, island.nu)
        spec = Polynomial.zero()
        if key is not None and key[1] == block:
            spec = ComposedInverse(enumerate_dense_polynomial(key[0]), island.map)
        eps_min = min_envelope(tr.domain, island.image_bound)
        pieces.append(TargetPiece(island.image_bound, spec, tau(eps_min)))
    return pieces


def assemble_existence_target(tr: CarlemanTruncation, splits: dict) -> PiecewiseTarget:
    """One piece per island: the l-th enumerated polynomial composed with
    the island's inverse map, at tolerance min over the island of the
    boundary envelope.

    splits maps nu -> dict[(l, 1) -> IndexSet], a double_split with one
    p-block; islands whose index falls outside every labelled set
    receive the zero target.
    """
    if tr.bases:
        raise ValueError("the existence build uses a truncation without bases")
    return PiecewiseTarget(tuple(_island_pieces(tr, splits, 1, lambda e: e)))


def _member_target(
    tr: CarlemanTruncation,
    splits: dict,
    base: CompactSet,
    base_spec,
    block: int,
    scale: float,
) -> PiecewiseTarget:
    """base_spec on the base, the labelled polynomial composed with its
    inverse on islands whose p-block is block, zero on the rest; every
    tolerance is scale * min(1, envelope)."""
    tau = lambda e: scale * min(1.0, e)
    eps_base = min_envelope(tr.domain, base)
    # a sector base is fitted on its enclosing disc at the sector's budget: base
    # targets are entire, and islands clear a sector only through that disc
    base_piece = TargetPiece(enclosing_disc(base), base_spec, tau(eps_base))
    return PiecewiseTarget((base_piece, *_island_pieces(tr, splits, block, tau)))


def assemble_spaceable_target(
    mu: int, tr: CarlemanTruncation, splits: dict
) -> PiecewiseTarget:
    """Monomial z^mu on the base compact, labelled targets on the islands.

    splits maps nu -> dict[(l, p) -> IndexSet].  An island whose p-block
    equals mu carries the l-th enumerated polynomial composed with its
    inverse; all other islands carry zero.  Every tolerance shrinks by
    3^-mu, so the circle perturbations of the built members sum below
    one half.
    """
    if mu < 1:
        raise ValueError("member index must be at least 1")
    if len(tr.bases) != 1:
        raise ValueError("the spaceable build uses exactly one base compact")
    return _member_target(tr, splits, tr.bases[0], Polynomial.monomial(mu), mu, 3.0 ** (-mu))


def assemble_dense_target(
    mu: int, tr: CarlemanTruncation, splits: dict
) -> PiecewiseTarget:
    """The (mu + 1)-th enumerated polynomial on the base at level mu + 1,
    at tolerance scaled by 1/mu; islands in p-block mu + 1 carry their
    labelled polynomial, the rest zero.  The enumeration is taken from
    index 2, the constant 1, since index 1 is the zero polynomial, which
    is not frequently hypercyclic.  The smaller bases are nested inside
    K_{mu+1}, so fitting there covers them automatically."""
    if mu < 1:
        raise ValueError("member index must be at least 1")
    if len(tr.bases) < mu + 1:
        raise ValueError("the dense build needs base compacts up to level mu + 1")
    base_spec = enumerate_dense_polynomial(mu + 1)
    return _member_target(tr, splits, tr.bases[mu], base_spec, mu + 1, 1.0 / mu)


def assemble_mixed_target(
    mu: int, tr: CarlemanTruncation, quad_splits: dict
) -> PiecewiseTarget:
    """Spaceable-shaped member fed from a fourth-level split.

    quad_splits maps nu -> dict[(l, q) -> IndexSet], where the q-blocks
    subdivide the first p-block of the dense construction; the member
    carries z^mu on the base and the labelled polynomial on islands
    whose q equals mu.
    """
    return assemble_spaceable_target(mu, tr, quad_splits)


# ---------------------------------------------------------------------------
# Span bases


@record(eq=False)
class SpanBasis:
    members: tuple  # of FhcCandidate
    indices: tuple  # member index mu per candidate
    kind: str
    perturbation_sum: float
    gram_lambda_min: float  # the lower bound (1 - s2)^2 of build_span_basis
    coeff_bound: float  # the constant H = 1 / lambda_min

    def member(self, mu: int) -> FhcCandidate:
        return self.members[self.indices.index(mu)]


def build_span_basis(members, indices, kind: str) -> SpanBasis:
    """Assemble PASS candidates into a span basis of kind, spaceable or
    mixed, where member k stands for the monomial z^mu_k, mu_k =
    indices[k].

    The indices must be distinct, so the monomials are orthonormal in L2
    of the unit circle, and the members' circle distances d_k to their
    monomials must sum below one half (Bonilla and Grosse-Erdmann, ETDS
    27, 2007).  The same distances bound the Gram matrix from below: for
    a unit vector c, ||sum c_k f_k|| >= 1 - sum |c_k| d_k >= 1 - s2 by
    Cauchy-Schwarz, s2 the 2-norm of the d_k (the Paley-Wiener stability
    argument; Young, An Introduction to Nonharmonic Fourier Series,
    ch. 1).  So lambda_min >= (1 - s2)^2, and H = 1 / lambda bounds the
    squared coefficient sum of any unit-norm element of the span.  Both
    are formed in floats.
    """
    members = tuple(members)
    indices = tuple(indices)
    if len(members) != len(indices) or not members:
        raise ValueError("members and indices must align and be nonempty")
    repeated = sorted({mu for mu in indices if indices.count(mu) > 1})
    if repeated:
        raise ValueError(f"member indices {repeated} repeat; the basis needs distinct monomials")
    for cand in members:
        if cand.status != CandidateStatus.PASS:
            raise ValueError("cannot build a basis from FAILED candidates")
    dists = [
        l2_distance_on_circle(cand.fn, Polynomial.monomial(mu))
        for cand, mu in zip(members, indices)
    ]
    pert = sum(dists)
    if not pert < 0.5:
        raise ValueError(
            f"perturbation sum {pert:.6f} violates the < 1/2 requirement"
        )
    lam = (1.0 - math.hypot(*dists)) ** 2
    return SpanBasis(
        members=members,
        indices=indices,
        kind=kind,
        perturbation_sum=pert,
        gram_lambda_min=lam,
        coeff_bound=1.0 / lam,
    )
