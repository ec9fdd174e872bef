"""Polynomial machinery for approximation on disjoint compacts.

A candidate holomorphic function is represented by a single polynomial
fitted simultaneously on finitely many pairwise disjoint compact
regions, each carrying its own target values and tolerance budget.
The fit is weighted least squares in an orthogonalized sample basis
built by the Arnoldi recurrence, which spans the polynomials of the
fitted degree with well conditioned columns however far apart the
compacts lie.  The recurrence follows "Vandermonde with Arnoldi"
(Brubeck, Nakatsukasa and Trefethen, SIAM Review 63(2), 2021): each
step orthogonalizes the new column against the whole basis by block
classical Gram-Schmidt with one reorthogonalization, each pass two
matrix-vector products.  Fixed polynomials (targets, the dense
enumeration, span monomials) are plain monomial coefficient vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from ._record import record
from .density import IndexSet, split
from .geometry import (
    ClosedDisc,
    CompactSet,
    Domain,
    DomainKind,
    disc_pairs,
    enclosing_disc,
    eps_to_boundary,
    sample_grid,
)
from .maps import HoloMap, Mobius, inverse_degree, raw_inverse
from .runaway import CarlemanTruncation

__all__ = [
    "ArnoldiPoly",
    "CandidateStatus",
    "ComposedInverse",
    "FhcCandidate",
    "FixedPoly",
    "Monomial",
    "PieceCertificate",
    "PiecewiseTarget",
    "Polynomial",
    "SpanBasis",
    "TargetPiece",
    "Zero",
    "assemble_dense_target",
    "assemble_existence_target",
    "assemble_mixed_target",
    "assemble_spaceable_target",
    "build_span_basis",
    "double_split",
    "enumerate_dense_polynomial",
    "fit_on_compacts",
    "gram_independence",
    "island_label",
    "l2_circle_norm",
    "l2_distance_on_circle",
    "min_envelope",
    "verify_basis_perturbation",
]

_EPS_RESOLUTION = 3

# Columns of the Hessenberg recurrence per matrix product in
# ArnoldiPoly.basis, rows first allocated by _fit_arnoldi, and points per
# basis matrix in ArnoldiPoly.evaluate.
BASIS_BLOCK = 32
EVAL_CHUNK = 512
_U = np.finfo(float).eps / 2  # unit roundoff


# ---------------------------------------------------------------------------
# Polynomial representations


@record(eq=False)
class Polynomial:
    """Coefficients in the monomial basis z^j, ascending."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        # trim trailing zeros so the stated degree is honest
        nz = np.nonzero(coeffs)[0]
        if nz.size:
            coeffs = coeffs[: nz[-1] + 1]
        else:
            coeffs = coeffs[:1] * 0.0
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def evaluate(self, z):
        w = np.asarray(z, dtype=complex)
        out = np.zeros_like(w)
        for c in self.coefficients[::-1]:
            out = out * w + c
        if np.ndim(z) == 0:
            return complex(out)
        return out

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


@record(eq=False)
class ArnoldiPoly:
    """Polynomial in an orthogonalized sample basis.

    The basis functions q_0, q_1, ... are defined by q_0 = 1/norm0 and
    the stored Hessenberg recurrence
    q_{k+1}(z) = (z q_k(z) - sum_j H[j,k] q_j(z)) / H[k+1,k];
    they are orthonormal with respect to the weighted discrete inner
    product of the fit grid, which is what keeps evaluation stable.
    """

    hessenberg: np.ndarray
    norm0: float
    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def basis(self, z: np.ndarray) -> np.ndarray:
        """Basis values q_k(z) as the rows of a (degree + 1, len(z)) array.

        The recurrence runs in blocks of BASIS_BLOCK columns of H: the
        terms from the rows before a block enter through one matrix
        product, and only the rows inside the block take the per-k step.
        """
        z = np.asarray(z, dtype=complex).ravel()
        d = self.degree
        h = self.hessenberg
        q = np.empty((d + 1, z.size), dtype=complex)
        q[0] = 1.0 / self.norm0
        for k0 in range(0, d, BASIS_BLOCK):
            k1 = min(k0 + BASIS_BLOCK, d)
            # rows j < k0 are final: their share of every column k in the
            # block, sum_j H[j,k] q_j, lands in q[k+1] before the block runs
            # (zeros for the first block)
            np.matmul(h[:k0, k0:k1].T, q[:k0], out=q[k0 + 1 : k1 + 1])
            for k in range(k0, k1):
                v = z * q[k] - h[k0 : k + 1, k] @ q[k0 : k + 1] - q[k + 1]
                q[k + 1] = v / h[k + 1, k]
        return q

    def evaluate(self, z):
        w = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
        # blockwise so the basis matrix stays small on large grids
        out = np.empty(w.size, dtype=complex)
        step = EVAL_CHUNK
        for s in range(0, w.size, step):
            out[s : s + step] = self.coefficients @ self.basis(w[s : s + step])
        if np.ndim(z) == 0:
            return complex(out[0])
        return out.reshape(np.shape(z))

    def evaluate_with_rounding(self, z: np.ndarray) -> tuple:
        """Values at the points z and a running error bound for each, of
        first order in the unit roundoff u (Higham, Accuracy and Stability
        of Numerical Algorithms, sec. 3.3).

        Step k of basis errs locally by at most rho_{k+1} = (2 (k + 4) u
        (|z q_k| + sum_{j<=k} |H[j,k] q_j|) + 4 u H[k+1,k] |q_{k+1}|) / H[k+1,k],
        rho_0 = u |q_0|, and the final sum by 2 (d + 3) u sum_k |c_k q_k|.
        Each rho_k reaches the value weighted by s_k = dp/dq_k: s_d = c_d,
        s_j = c_j + z t_j - sum_{k>=j} H[j,k] t_k, t_k = s_{k+1} / H[k+1,k].
        The bound doubles the sum, a margin for the rounding of s.  The
        recurrence on magnitudes, with no adjoint, ignores all cancellation
        and overshoots by about 1e166 on the shipped degree-256 fit.
        """
        z = np.asarray(z, dtype=complex).ravel()
        d, h, c = self.degree, self.hessenberg, self.coefficients
        q = self.basis(z)
        values = c @ q
        q = np.abs(q)
        sub = np.abs(np.diagonal(h, -1))
        t = np.empty((d, z.size), dtype=complex)
        s = np.full(z.size, c[d])
        total = 2.0 * (d + 3) * _U * (np.abs(c) @ q)
        for j1 in range(d, 0, -BASIS_BLOCK):
            j0 = max(j1 - BASIS_BLOCK, 0)
            tail = h[j0:j1, j1:d] @ t[j1:d]  # the columns k >= j1, all final
            for j in range(j1 - 1, j0 - 1, -1):
                t[j] = s / sub[j]
                s = c[j] + z * t[j] - h[j, j:j1] @ t[j:j1] - tail[j - j0]
            # H[k+1,k] rho_{k+1} on the rows k of the block, weighed by |t_k|
            local = np.triu(np.abs(h[:j1, j0:j1]), -j0).T @ q[:j1] + np.abs(z) * q[j0:j1]
            local *= (2.0 * (np.arange(j0, j1) + 4) * _U)[:, None]
            local += 4.0 * _U * sub[j0:j1, None] * q[j0 + 1 : j1 + 1]
            total += np.sum(local * np.abs(t[j0:j1]), axis=0)
        return values, 2.0 * (total + np.abs(s) * _U * q[0])


PolyLike = Union[Polynomial, ArnoldiPoly]


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


def _circle_coefficients(polys) -> np.ndarray:
    """Monomial coefficients of each polynomial as zero-padded rows.

    By Parseval, products of rows are the inner products in L2 of the
    unit circle with normalized arclength measure.
    """
    coeffs = [
        (p if isinstance(p, Polynomial)
         else _local_taylor(p.evaluate(_circle(0.0, 1.0, p.degree + 1)))).coefficients
        for p in polys
    ]
    rows = np.zeros((len(coeffs), max(c.size for c in coeffs)), dtype=complex)
    for row, c in zip(rows, coeffs):
        row[: c.size] = c
    return rows


def _l2(coefficients: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(coefficients) ** 2)))


def l2_circle_norm(p: PolyLike) -> float:
    """Norm in L2 of the unit circle with normalized arclength measure:
    the square root of the sum of squared moduli of the monomial
    coefficients, exactly (Parseval)."""
    return _l2(_circle_coefficients([p])[0])


def l2_distance_on_circle(f: PolyLike, g: PolyLike) -> float:
    """||f - g|| in L2 of the circle, from coefficients by Parseval."""
    rows = _circle_coefficients([f, g])
    return _l2(rows[0] - rows[1])


# ---------------------------------------------------------------------------
# Piecewise targets


@record
class Monomial:
    mu: int
    degree = property(lambda self: self.mu)

    def values(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=complex) ** self.mu


@record(eq=False)
class FixedPoly:
    poly: Polynomial
    degree = property(lambda self: self.poly.degree)

    def values(self, z: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(z)


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

    def values(self, z: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(raw_inverse(self.map, z))


@record
class Zero:
    degree = 0

    def values(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(z), dtype=complex)


PieceSpec = Union[Monomial, FixedPoly, ComposedInverse, Zero]


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


def min_envelope(domain: Domain, region: CompactSet, resolution: int = _EPS_RESOLUTION) -> float:
    """Minimum chordal boundary distance over the region.

    Using the per-region minimum instead of the pointwise envelope makes
    every certificate a strictly stronger statement.  The minimum over
    sample_grid(region, resolution) can exceed the true one between grid
    points.  On the whole plane and the unit disc, where the distance
    falls as |z| grows, a disc takes the closed form at |c| + r instead,
    unless a grid point rounded just outside the disc undercuts it.
    """
    pts = sample_grid(region, resolution)
    if pts.size == 0:
        raise ValueError("cannot sample an empty region for the envelope")
    sampled = float(np.min(eps_to_boundary(domain, pts)))
    radial = (DomainKind.WHOLE_PLANE, DomainKind.UNIT_DISC)
    if isinstance(region, ClosedDisc) and domain.kind in radial:
        far = abs(complex(region.center)) + region.radius
        return min(sampled, eps_to_boundary(domain, far))
    return sampled


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
    fn: ArnoldiPoly
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


def _piece_data(target: PiecewiseTarget, max_degree: int):
    """Fit points, target values and weights 1 / tau of all pieces.

    The rings share one arclength spacing: a disc of radius r > 0 carries
    max(32, D + 1, ceil((max_degree + 1) r / r_max)) equispaced points on
    its boundary circle, r_max the largest radius of the target and D the
    degree of the piece's target.  So the largest disc holds as many
    points as fix a polynomial of the degree cap, the discrete inner
    product approximates arclength on the union of circles, and no ring
    aliases its own target.  A disc of radius 0 contributes its centre.
    """
    r_max = max(piece.region.radius for piece in target.pieces)
    pts, vals, weights = [], [], []
    for piece in target.pieces:
        c, r = piece.region.center, piece.region.radius
        if r > 0.0:
            share = math.ceil((max_degree + 1) * (r / r_max))
            grid = _circle(c, r, max(32, piece.spec.degree + 1, share))
        else:
            grid = np.array([complex(c)])
        pts.append(grid)
        vals.append(piece.spec.values(grid))
        weights.append(np.full(grid.size, 1.0 / piece.tau))
    return np.concatenate(pts), np.concatenate(vals), np.concatenate(weights)


def _fit_arnoldi(pts, vals, weights, max_degree):
    """Weighted least squares in the Arnoldi basis of the sample points,
    one degree at a time.

    Row k of b holds the weighted basis vector w * q_k(pts), so plain
    Euclidean products of rows are the weighted inner products of the
    basis.  Each new vector pts * q_k is orthogonalized against all
    previous rows at once by block classical Gram-Schmidt, applied
    twice: the second pass restores the orthogonality a single pass
    loses on the ill-conditioned Krylov spaces of widely separated
    compacts.  Both passes conjugate the vector instead of the basis,
    since conj(b) would copy the whole basis at every step.

    The basis is nested and orthonormal, so its first k + 1 coefficients
    are the degree-k fit.  For k = 0, 1, ... the generator yields
    (rho, last, fit): rho = max |w (vals - fit_k)| over the sample points,
    from the weighted residual r <- r - c_k b_k (with w = 1 / tau on each
    piece, the worst sampled error-to-budget ratio); last, true at
    max_degree or once the points admit no higher degree; and fit(),
    which returns the degree-k ArnoldiPoly while the generator waits.
    The rows of b live in blocks, the first BASIS_BLOCK rows long and
    each later one as long as all before it, and H grows with them: memory
    follows the degree reached, not max_degree, and no row is copied.
    """
    w = weights.astype(float)
    norm0 = float(np.sqrt(np.sum(w * w)))
    rows = min(BASIS_BLOCK, max_degree + 1)
    blocks = [np.empty((rows, pts.size), dtype=complex)]
    h = np.zeros((rows, rows), dtype=complex)
    start = 0  # the row index of the first row of the last block
    coeffs = np.empty(max_degree + 1, dtype=complex)
    blocks[0][0] = w / norm0
    r = w * np.asarray(vals, dtype=complex)
    for k in range(max_degree + 1):
        bk = blocks[-1][k - start]
        coeffs[k] = np.vdot(bk, r)
        r -= coeffs[k] * bk
        rho = float(np.max(np.abs(r)))
        last = k == max_degree
        if not last:
            basis = blocks[:-1] + [blocks[-1][: k + 1 - start]]
            v = pts * bk
            c = _project_out(basis, v)
            h[: k + 1, k] = c + _project_out(basis, v)
            nrm = float(np.linalg.norm(v))
            # a saturated basis: the points cannot distinguish higher degrees
            last = nrm < 1e-14 * norm0
            if not last:
                if k + 1 - start == blocks[-1].shape[0]:
                    start = k + 1
                    rows = min(start, max_degree + 1 - start)
                    blocks.append(np.empty((rows, pts.size), dtype=complex))
                    h = np.pad(h, (0, rows))
                h[k + 1, k] = nrm
                blocks[-1][k + 1 - start] = v / nrm
        yield rho, last, lambda k=k, h=h: ArnoldiPoly(
            h[: k + 1, :k].copy(), norm0, coeffs[: k + 1].copy()
        )
        if last:
            return


def _project_out(basis: list, v: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass against the rows of the blocks in
    basis: the coefficients c_j = <v, b_j>, all taken before v loses
    sum_j c_j b_j in place."""
    cv = np.conj(v)
    c = [np.conj(block @ cv) for block in basis]
    for cb, block in zip(c, basis):
        v -= cb @ block
    return np.concatenate(c)


def _verify(fn: ArnoldiPoly, target: PiecewiseTarget) -> list:
    """A bound on sup |fn - target| over every piece, rounding included.

    On a disc of centre c and radius r > 0, e(c + r u) is a polynomial in
    u of degree D = max(d, target degree), d = fn.degree, whose sup sits
    on |u| = 1.  With m = 16 (d + 1) equispaced ring points, Bernstein's
    inequality gives ||e|| <= max_ring |e| / (1 - pi D / m), at most 1.25
    max_ring |e| when D = d, no bound (inf) when m <= pi D.  fn is
    evaluated at its d + 1 nodes only; Horner's rule on the local Taylor
    coefficients gives the ring.  max_ring |e| gains the 2-norm of the
    node error bounds (by Parseval, the most they move a ring value) and
    4 (d + 1)^2 eps max |node value| for the FFT and Horner's rule, each
    2 (d + 1) eps per coefficient.  A disc of radius 0 is one point:
    its error plus its rounding.  Target values are taken as computed.
    A bound that is not finite, as where fn overflows on a disc, is inf.
    """
    d = fn.degree
    m = 16 * (d + 1)
    ring = _circle(0.0, 1.0, m)
    bounds = []
    for piece in target.pieces:
        c, r = piece.region.center, piece.region.radius
        if r == 0.0:
            value, rounding = fn.evaluate_with_rounding(c)
            bounds.append(abs(value[0] - piece.spec.values(c)) + rounding[0])
            continue
        values, rounding = fn.evaluate_with_rounding(_circle(c, r, d + 1))
        errors = _local_taylor(values).evaluate(ring) - piece.spec.values(_circle(c, r, m))
        ring_max = np.max(np.abs(errors)) + np.linalg.norm(rounding)
        ring_max += 8.0 * (d + 1) ** 2 * _U * np.max(np.abs(values))
        factor = 1.0 - math.pi * max(d, piece.spec.degree) / m
        bounds.append(ring_max / factor if factor > 0.0 else math.inf)
    return [float(b) if math.isfinite(b) else math.inf for b in bounds]


def fit_on_compacts(target: PiecewiseTarget, max_degree: int = 256) -> FhcCandidate:
    """Weighted least-squares fit in one Arnoldi pass, certified by _verify.

    One recurrence on one grid (_piece_data) gives the degree-k fit and
    its weighted residual rho_k, the worst sampled error-to-budget ratio,
    at every degree k up to max_degree.  The bound of _verify is a ring
    maximum times a Bernstein factor of up to 1 / (1 - pi / 16), which
    1.25 rounds up, so the degree-k fit is verified only when 1.25 rho_k
    is below a limit: at first 1, after each FAIL that step's rho, and
    the last degree always.  The first verified step whose bound is below
    every piece's budget PASSes, certified by those bounds; the schedule
    only skips steps, so a PASS is always a bound.  If none passes, the
    verified step of least worst bound-to-budget ratio, the first on a
    tie, FAILs as NON-CONVERGED; a bound that is not finite makes its
    step's ratio inf, so such a step is never kept over a finite one.
    Every piece's target must be a polynomial.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    for idx, piece in enumerate(target.pieces):
        if piece.spec.degree is None:
            m = piece.spec.map
            name = "a non-affine Moebius map" if isinstance(m, Mobius) else type(m).__name__
            raise ValueError(f"piece {idx}: the target through {name} is no polynomial")
    taus = [p.tau for p in target.pieces]
    pts, vals, weights = _piece_data(target, max_degree)
    limit, best = 1.0, None
    for rho, last, fit in _fit_arnoldi(pts, vals, weights, min(max_degree, pts.size - 1)):
        if not (last or 1.25 * rho < limit):
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
    resolution: int,
) -> list:
    """The labelled polynomial composed with the inverse map on islands
    whose p-block is block, zero on the rest, at tolerance tau(envelope)."""
    pieces = []
    for island in tr.islands:
        key = island_label(splits, island.n, island.nu)
        spec = Zero()
        if key is not None and key[1] == block:
            spec = ComposedInverse(enumerate_dense_polynomial(key[0]), island.map)
        eps_min = min_envelope(tr.domain, island.image_bound, resolution)
        pieces.append(TargetPiece(island.image_bound, spec, tau(eps_min)))
    return pieces


def assemble_existence_target(
    tr: CarlemanTruncation,
    splits: dict,
    resolution: int = _EPS_RESOLUTION,
) -> PiecewiseTarget:
    """One piece per island: the l-th enumerated polynomial composed with
    the island's inverse map, at tolerance min over the island of the
    boundary envelope.

    splits maps nu -> dict[(l, 1) -> IndexSet], a double_split with one
    p-block; islands whose index falls outside every labelled set
    receive the zero target.
    """
    if tr.bases:
        raise ValueError("the existence build uses a truncation without bases")
    return PiecewiseTarget(tuple(_island_pieces(tr, splits, 1, lambda e: e, resolution)))


def _member_target(
    tr: CarlemanTruncation,
    splits: dict,
    base: CompactSet,
    base_spec,
    block: int,
    scale: float,
    resolution: int,
) -> PiecewiseTarget:
    """base_spec on the base, the labelled polynomial composed with its
    inverse on islands whose p-block is block, zero on the rest; every
    tolerance is scale * min(1, envelope)."""
    tau = lambda e: scale * min(1.0, e)
    eps_base = min_envelope(tr.domain, base, resolution)
    # a sector base is fitted on its enclosing disc at the sector's budget: base
    # targets are entire, and islands clear a sector only through that disc
    base_piece = TargetPiece(enclosing_disc(base), base_spec, tau(eps_base))
    return PiecewiseTarget((base_piece, *_island_pieces(tr, splits, block, tau, resolution)))


def assemble_spaceable_target(
    mu: int,
    tr: CarlemanTruncation,
    splits: dict,
    resolution: int = _EPS_RESOLUTION,
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
    return _member_target(
        tr, splits, tr.bases[0], Monomial(mu), mu, 3.0 ** (-mu), resolution
    )


def assemble_dense_target(
    mu: int,
    tr: CarlemanTruncation,
    splits: dict,
    resolution: int = _EPS_RESOLUTION,
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
    base_spec = FixedPoly(enumerate_dense_polynomial(mu + 1))
    return _member_target(
        tr, splits, tr.bases[mu], base_spec, mu + 1, 1.0 / mu, resolution
    )


def assemble_mixed_target(
    mu: int,
    tr: CarlemanTruncation,
    quad_splits: dict,
    resolution: int = _EPS_RESOLUTION,
) -> PiecewiseTarget:
    """Spaceable-shaped member fed from a fourth-level split.

    quad_splits maps nu -> dict[(l, q) -> IndexSet], where the q-blocks
    subdivide the first p-block of the dense construction; the member
    carries z^mu on the base and the labelled polynomial on islands
    whose q equals mu.
    """
    return assemble_spaceable_target(mu, tr, quad_splits, resolution)


# ---------------------------------------------------------------------------
# Span bases


class BasisKind:
    SPACEABLE = "spaceable"
    DENSE = "dense"
    MIXED = "mixed"


@record(eq=False)
class SpanBasis:
    members: tuple  # of FhcCandidate
    indices: tuple  # member index mu per candidate
    kind: str
    perturbation_sum: Optional[float]
    gram_lambda_min: float
    coeff_bound: float  # the constant H = 1 / lambda_min

    def member(self, mu: int) -> FhcCandidate:
        return self.members[self.indices.index(mu)]


def verify_basis_perturbation(members, indices) -> float:
    """Sum over members of the circle distance to their monomials."""
    total = 0.0
    for cand, mu in zip(members, indices):
        total += l2_distance_on_circle(cand.fn, Polynomial.monomial(mu))
    return float(total)


def gram_independence(members) -> tuple:
    """Smallest Gram eigenvalue on the circle and the bound H = 1/lambda.

    The Gram matrix is formed from the members' monomial coefficients,
    by Parseval; a positive smallest eigenvalue certifies numerical
    linear independence of the members, and its inverse bounds the
    squared coefficient sums of any normalized combination drawn from
    the span.
    """
    if not members:
        raise ValueError("need at least one member")
    rows = _circle_coefficients([m.fn for m in members])
    gram = rows @ np.conj(rows.T)
    lam = float(np.min(np.linalg.eigvalsh(gram)))
    h = float("inf") if lam <= 0.0 else 1.0 / lam
    return lam, h


def build_span_basis(members, indices, kind: str) -> SpanBasis:
    """Assemble candidates into a span basis, enforcing the invariants.

    Spaceable and mixed bases must have total circle perturbation below
    one half; every kind requires a numerically independent Gram matrix.
    """
    members = tuple(members)
    indices = tuple(indices)
    if len(members) != len(indices) or not members:
        raise ValueError("members and indices must align and be nonempty")
    for cand in members:
        if cand.status != CandidateStatus.PASS:
            raise ValueError("cannot build a basis from FAILED candidates")
    pert = None
    if kind in (BasisKind.SPACEABLE, BasisKind.MIXED):
        pert = verify_basis_perturbation(members, indices)
        if not pert < 0.5:
            raise ValueError(
                f"perturbation sum {pert:.6f} violates the < 1/2 requirement"
            )
    lam, h = gram_independence(members)
    if lam <= 1e-12:
        raise ValueError("members are numerically dependent on the circle")
    return SpanBasis(
        members=members,
        indices=indices,
        kind=kind,
        perturbation_sum=pert,
        gram_lambda_min=lam,
        coeff_bound=h,
    )
