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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .density import IndexSet, split
from .geometry import (
    AnnularSector,
    ClosedDisc,
    CompactSet,
    Disjointness,
    Domain,
    disjointness,
    eps_to_boundary,
    sample_grid,
)
from .maps import HoloMap, raw_inverse
from .runaway import CarlemanTruncation, Island

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

# Escalation schedule: degrees double from here until max_degree.
START_DEGREE = 8

_EPS_RESOLUTION = 3

# Columns of the Hessenberg recurrence per matrix product in
# ArnoldiPoly.basis, and points per basis matrix in ArnoldiPoly.evaluate.
BASIS_BLOCK = 32
EVAL_CHUNK = 512


# ---------------------------------------------------------------------------
# Polynomial representations


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _local_taylor(fn: PolyLike, center: complex, radius: float) -> Polynomial:
    """Coefficients of u -> fn(center + radius u) in powers of u.

    fn is evaluated once, at its degree + 1 equispaced nodes on the
    circle |z - center| = radius, and the discrete Fourier transform of
    those values is the coefficient vector exactly: with no more
    coefficients than nodes nothing aliases (interpolation at roots of
    unity, Trefethen, Approximation Theory and Approximation Practice,
    ch. 3).  Every coefficient is at most the largest node value in
    modulus.
    """
    n0 = fn.degree + 1
    nodes = center + radius * np.exp(2j * np.pi * np.arange(n0) / n0)
    return Polynomial(np.fft.fft(fn.evaluate(nodes)) / n0)


def _circle_coefficients(polys) -> np.ndarray:
    """Monomial coefficients of each polynomial as zero-padded rows.

    By Parseval, products of rows are the inner products in L2 of the
    unit circle with normalized arclength measure.
    """
    coeffs = [
        (p if isinstance(p, Polynomial) else _local_taylor(p, 0.0, 1.0)).coefficients
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


@dataclass(frozen=True)
class Monomial:
    mu: int

    def values(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=complex) ** self.mu


@dataclass(frozen=True, eq=False)
class FixedPoly:
    poly: Polynomial

    def values(self, z: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(z)


@dataclass(frozen=True, eq=False)
class ComposedInverse:
    """Target P(phi^{-1}(z)) on an island; the inverse formula is applied
    without an image-membership check because the certified disc bound
    may slightly overhang the true image."""

    poly: Polynomial
    map: HoloMap

    def values(self, z: np.ndarray) -> np.ndarray:
        return self.poly.evaluate(raw_inverse(self.map, z))


@dataclass(frozen=True)
class Zero:
    def values(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(z), dtype=complex)


PieceSpec = Union[Monomial, FixedPoly, ComposedInverse, Zero]


@dataclass(frozen=True, eq=False)
class TargetPiece:
    region: CompactSet
    spec: PieceSpec
    tau: float

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise ValueError("tolerance budget must be positive")


@dataclass(frozen=True, eq=False)
class PiecewiseTarget:
    pieces: tuple

    def __post_init__(self):
        for i, a in enumerate(self.pieces):
            for b in self.pieces[i + 1:]:
                verdict = disjointness(a.region, b.region)
                if verdict is not Disjointness.DISJOINT:
                    raise ValueError(
                        f"target regions {i} and {self.pieces.index(b)} "
                        f"are not certified disjoint ({verdict.name})"
                    )


def min_envelope(domain: Domain, region: CompactSet, resolution: int = _EPS_RESOLUTION) -> float:
    """Minimum sampled chordal boundary distance over the region.

    Using the per-region minimum instead of the pointwise envelope makes
    every certificate a strictly stronger statement.
    """
    pts = sample_grid(region, resolution)
    if pts.size == 0:
        raise ValueError("cannot sample an empty region for the envelope")
    return float(np.min(eps_to_boundary(domain, pts)))


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class PieceCertificate:
    achieved: float
    envelope: float
    fine_grid: float

    @property
    def ok(self) -> bool:
        return self.achieved < self.envelope and self.fine_grid < self.envelope


class CandidateStatus:
    PASS = "PASS"
    FAILED = "FAILED"


@dataclass(frozen=True, eq=False)
class FhcCandidate:
    fn: ArnoldiPoly
    certificates: tuple
    status: str
    reason: Optional[str]
    degree: int

    def evaluate(self, z):
        return self.fn.evaluate(z)

    @property
    def max_ratio(self) -> float:
        """Worst achieved error over envelope across pieces."""
        return max(c.achieved / c.envelope for c in self.certificates)


def _boundary_ring(region: CompactSet, m: int) -> np.ndarray:
    """Dense boundary samples; sup errors of holomorphic targets live here."""
    if isinstance(region, ClosedDisc):
        ang = np.exp(2j * np.pi * np.arange(m) / m)
        return region.center + region.radius * ang
    if isinstance(region, AnnularSector):
        if region.is_empty:
            return np.empty(0, dtype=complex)
        t = region.half_angle * (2.0 * np.arange(m + 1) / m - 1.0)
        parts = [region.rmax * np.exp(1j * t)]
        if region.rmin > 0.0:
            parts.append(region.rmin * np.exp(1j * t))
        if region.half_angle < np.pi:
            rr = np.linspace(region.rmin, region.rmax, m // 4 + 2)
            parts.append(rr * np.exp(1j * region.half_angle))
            parts.append(rr * np.exp(-1j * region.half_angle))
        return np.concatenate(parts)
    return np.asarray(region.boundary_points, dtype=complex)


def _piece_grid(
    region: CompactSet, degree: int, grid_res: int, refine: int = 1
) -> np.ndarray:
    """Fit or verification grid for one piece, scaled to the degree.

    refine = 1 is the fit grid: max(32, degree + 1) ring points, as many
    as fix a polynomial of the degree on a disc, and the grid_res
    lattice.  refine = 2 and 4 are the verification grids: refine *
    max(32, 4 (degree + 1)) ring points, so the refine-4 ring interleaves
    every refine-2 angle with a midpoint, and a lattice twice as fine.
    The interior lattice stays coarse: the sup error of a holomorphic
    target sits on the boundary ring.
    """
    if refine == 1:
        m, res = max(32, degree + 1), grid_res
    else:
        m, res = refine * max(32, 4 * (degree + 1)), 2 * grid_res
    lattice = sample_grid(region, res)
    return np.unique(np.concatenate([lattice, _boundary_ring(region, m)]))


def _piece_data(target: PiecewiseTarget, degree: int, grid_res: int):
    pts, vals, weights = [], [], []
    for idx, piece in enumerate(target.pieces):
        grid = _piece_grid(piece.region, degree, grid_res)
        if grid.size == 0:
            raise ValueError(f"piece {idx} has an empty sample grid")
        pts.append(grid)
        vals.append(piece.spec.values(grid))
        weights.append(np.full(grid.size, 1.0 / piece.tau))
    return np.concatenate(pts), np.concatenate(vals), np.concatenate(weights)


def _fit_arnoldi(pts, vals, weights, degree):
    """Weighted least squares in the Arnoldi basis of the sample points.

    Row k of b holds the weighted basis vector w * q_k(pts), so plain
    Euclidean products of rows are the weighted inner products of the
    basis.  Each new vector pts * q_k is orthogonalized against all
    previous rows at once by block classical Gram-Schmidt, applied
    twice: the second pass restores the orthogonality a single pass
    loses on the ill-conditioned Krylov spaces of widely separated
    compacts.  Both passes conjugate the vector instead of the basis,
    since conj(b) would copy the whole basis at every step.
    """
    w = weights.astype(float)
    b = np.empty((degree + 1, pts.size), dtype=complex)
    h = np.zeros((degree + 1, degree), dtype=complex)
    norm0 = float(np.sqrt(np.sum(w * w)))
    b[0] = w / norm0
    for k in range(degree):
        basis = b[: k + 1]
        v = pts * b[k]
        c = np.conj(basis @ np.conj(v))
        v -= c @ basis
        c2 = np.conj(basis @ np.conj(v))
        v -= c2 @ basis
        h[: k + 1, k] = c + c2
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-14 * norm0:
            # basis saturated: the sample set cannot distinguish higher
            # degrees; stop extending
            b = b[: k + 1]
            h = h[: k + 1, :k]
            break
        h[k + 1, k] = nrm
        b[k + 1] = v / nrm
    coeffs = np.conj(b @ np.conj(w * vals))
    return ArnoldiPoly(h, norm0, coeffs)


def _verify(
    fn: PolyLike,
    target: PiecewiseTarget,
    degree: int,
    grid_res: int,
    refine: int,
    checked: Optional[list] = None,
) -> tuple:
    """Sup error of every piece on its refine grid.

    Returns the errors and, per piece, the grid with its pointwise
    errors.  Given those pairs from an earlier pass of the same fn as
    checked, points found there (by exact equality) keep their error
    and only the rest of the grid is evaluated.

    On a disc of positive radius, fn is evaluated only at degree + 1
    nodes of the boundary circle; every grid point then takes Horner's
    rule on the local Taylor coefficients in u = (z - c) / r, |u| <= 1,
    at O(degree) cost instead of the O(degree^2) Arnoldi recurrence.
    The coefficients are bounded by max |fn| on the circle, so rounding
    adds at most about 2 (degree + 1)^2 eps max |fn| to each error.
    """
    errs, pairs = [], []
    for idx, piece in enumerate(target.pieces):
        grid = _piece_grid(piece.region, degree, grid_res, refine)
        pointwise = np.empty(grid.size)
        new = np.ones(grid.size, dtype=bool)
        if checked is not None:
            # both grids come sorted from np.unique
            old_grid, old_err = checked[idx]
            at = np.minimum(np.searchsorted(old_grid, grid), old_grid.size - 1)
            new = old_grid[at] != grid
            pointwise[~new] = old_err[at[~new]]
        z = grid[new]
        region = piece.region
        if isinstance(region, ClosedDisc) and region.radius > 0.0:
            local = _local_taylor(fn, region.center, region.radius)
            values = local.evaluate((z - region.center) / region.radius)
        else:
            values = fn.evaluate(z)
        pointwise[new] = np.abs(values - piece.spec.values(z))
        errs.append(float(np.max(pointwise)))
        pairs.append((grid, pointwise))
    return errs, pairs


def fit_on_compacts(
    target: PiecewiseTarget,
    max_degree: int = 256,
    grid_res: int = 3,
) -> FhcCandidate:
    """Weighted least-squares fit with degree escalation and certification.

    The degree doubles from START_DEGREE, the sample grids growing with
    it, until every piece's sup error on the refine-2 verification grid
    drops below its tolerance budget.  Every step fits in the Arnoldi
    basis of its own sample grid, whose rings hold max(32, degree + 1)
    points; the refine-2 and refine-4 rings hold 2 and 4 times
    max(32, 4 (degree + 1)) (_piece_grid).  A candidate only PASSes when
    the errors re-measured on the refine-4 grid stay below every budget
    and within a factor 2 of the certified values.
    """
    if max_degree < START_DEGREE:
        raise ValueError(f"max_degree must be at least {START_DEGREE}")
    taus = [p.tau for p in target.pieces]
    degree = START_DEGREE
    best = None  # (fn, errs, degree, checked points)
    while True:
        pts, vals, weights = _piece_data(target, min(degree, max_degree), grid_res)
        capped = min(degree, max_degree, pts.size - 1)
        fn = _fit_arnoldi(pts, vals, weights, capped)
        errs, checked = _verify(fn, target, capped, grid_res, 2)
        if best is None or max(e / t for e, t in zip(errs, taus)) < max(
            e / t for e, t in zip(best[1], taus)
        ):
            best = (fn, errs, capped, checked)
        if all(e < t for e, t in zip(errs, taus)):
            break
        if capped >= max_degree or capped >= pts.size - 1:
            fn, errs, capped, checked = best
            fine, _ = _verify(fn, target, capped, grid_res, 4, checked)
            certs = tuple(
                PieceCertificate(e, t, f) for e, t, f in zip(errs, taus, fine)
            )
            return FhcCandidate(
                fn=fn,
                certificates=certs,
                status=CandidateStatus.FAILED,
                reason="NON-CONVERGED",
                degree=capped,
            )
        degree *= 2

    fine, _ = _verify(fn, target, capped, grid_res, 4, checked)
    certs = tuple(PieceCertificate(e, t, f) for e, t, f in zip(errs, taus, fine))
    honest = all(
        f < t and (f < 2.0 * e or f < 1e-12) for e, t, f in zip(errs, taus, fine)
    )
    return FhcCandidate(
        fn=fn,
        certificates=certs,
        status=CandidateStatus.PASS if honest else CandidateStatus.FAILED,
        reason=None if honest else "HONESTY",
        degree=capped,
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


def _island_piece(
    domain: Domain,
    island: Island,
    poly: Optional[Polynomial],
    tau_scale: Callable[[float], float],
    resolution: int,
) -> TargetPiece:
    eps_min = min_envelope(domain, island.image_bound, resolution)
    spec = ComposedInverse(poly, island.map) if poly is not None else Zero()
    return TargetPiece(island.image_bound, spec, tau_scale(eps_min))


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
    pieces = []
    for island in tr.islands:
        label = island_label(splits, island.n, island.nu)
        poly = enumerate_dense_polynomial(label[0]) if label is not None else None
        pieces.append(
            _island_piece(tr.domain, island, poly, lambda e: e, resolution)
        )
    return PiecewiseTarget(tuple(pieces))


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
    pieces = [TargetPiece(base, base_spec, tau(eps_base))]
    for island in tr.islands:
        key = island_label(splits, island.n, island.nu)
        poly = None
        if key is not None and key[1] == block:
            poly = enumerate_dense_polynomial(key[0])
        pieces.append(_island_piece(tr.domain, island, poly, tau, resolution))
    return PiecewiseTarget(tuple(pieces))


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
    """The mu-th enumerated polynomial on the base at level mu + 1, at
    tolerance scaled by 1/mu; islands in p-block mu + 1 carry their
    labelled polynomial, the rest zero.  The smaller bases are nested
    inside K_{mu+1}, so fitting there covers them automatically."""
    if mu < 1:
        raise ValueError("member index must be at least 1")
    if len(tr.bases) < mu + 1:
        raise ValueError("the dense build needs base compacts up to level mu + 1")
    base_spec = FixedPoly(enumerate_dense_polynomial(mu))
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


@dataclass(frozen=True, eq=False)
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
