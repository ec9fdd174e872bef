"""Tests for polynomial representations, enumeration, and compact fitting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqdyn import approx
from freqdyn.approx import (
    BASIS_BLOCK,
    ArnoldiPoly,
    BasisKind,
    CandidateStatus,
    ComposedInverse,
    FixedPoly,
    Monomial,
    PiecewiseTarget,
    Polynomial,
    TargetPiece,
    Zero,
    _cantor_unpair,
    _circle,
    _fit_arnoldi,
    _gaussian_rational,
    _local_taylor,
    _piece_data,
    _signed_rational,
    _verify,
    assemble_dense_target,
    assemble_spaceable_target,
    build_span_basis,
    double_split,
    enumerate_dense_polynomial,
    fit_on_compacts,
    gram_independence,
    island_label,
    l2_circle_norm,
    l2_distance_on_circle,
    min_envelope,
    verify_basis_perturbation,
)
from freqdyn.density import arithmetic_progression, naturals, split
from freqdyn.geometry import (
    AnnularSector,
    ClosedDisc,
    Domain,
    DomainKind,
    enclosing_disc,
    eps_to_boundary,
    sample_grid,
    sector_exhaustion,
)
from freqdyn.maps import Iterated, ParabolicDisc, RootShift, Similarity

PARSEVAL_TOL = 1e-10
EVAL_TOL = 1e-9

WHOLE_PLANE = Domain(DomainKind.WHOLE_PLANE)


# ---------------------------------------------------------------------------
# Polynomial representation


def test_polynomial_trims_trailing_zeros():
    p = Polynomial(np.array([1.0, 2.0, 0.0, 0.0]))
    assert p.degree == 1
    z = Polynomial(np.zeros(5))
    assert z.degree == 0 and z.evaluate(3.0) == 0.0


def test_polynomial_evaluate_matches_polyval():
    rng = np.random.default_rng(7)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    p = Polynomial(c)
    zs = rng.normal(size=40) + 1j * rng.normal(size=40)
    want = np.polyval(c[::-1], zs)
    assert np.max(np.abs(p.evaluate(zs) - want)) < EVAL_TOL
    assert p.evaluate(complex(zs[0])) == pytest.approx(complex(want[0]))


def test_monomial_and_zero_constructors():
    m = Polynomial.monomial(4)
    assert m.degree == 4 and m.evaluate(2.0) == pytest.approx(16.0)
    assert Polynomial.zero().evaluate(1j) == 0.0
    with pytest.raises(ValueError):
        Polynomial.monomial(-1)


def _fit_to(pts, vals, weights, degree):
    """The last fit of the Arnoldi pass to degree, lower only if the points
    saturate the basis, and its weighted residual rho."""
    for rho, _, fit in _fit_arnoldi(pts, vals, weights, degree):
        pass
    return fit(), rho


def _simple_arnoldi(target_coeffs, npts=120, degree=10):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=npts) + 1j * rng.normal(size=npts)
    p = Polynomial(target_coeffs)
    vals = p.evaluate(pts)
    fn, _ = _fit_to(pts, vals, np.ones(npts), degree)
    return fn, p


def test_arnoldi_reproduces_polynomial_targets():
    fn, p = _simple_arnoldi(np.array([1.0, -2.0, 0.5j, 0.0, 3.0]))
    rng = np.random.default_rng(4)
    zs = rng.normal(size=30) + 1j * rng.normal(size=30)
    assert np.max(np.abs(fn.evaluate(zs) - p.evaluate(zs))) < 1e-9


def test_arnoldi_saturates_on_few_distinct_points():
    # five distinct points, each sampled three times, only separate
    # polynomials up to degree 4; the fit must stop there and interpolate
    distinct = 0.3 + 1.5 * np.exp(2j * np.pi * np.arange(5) / 5)
    pts = np.tile(distinct, 3)
    vals = np.cos(pts)
    fn, _ = _fit_to(pts, vals, np.linspace(1.0, 2.0, pts.size), 10)
    assert fn.degree == 4
    assert fn.hessenberg.shape == (5, 4)
    assert np.max(np.abs(fn.evaluate(pts) - vals)) < 1e-12


def _dense_shaped_fit(offset):
    # the seven discs and budgets of the third dense member at degree 256
    discs = ((0.0, 4.0), (8.0, 1.0), (16.0, 1.0), (24.0, 2.0), (32.0, 1.0),
             (40.0, 1.0), (48.0, 1.0))
    taus = (0.162, 0.0736, 0.0391, 0.0256, 0.0202, 0.0163, 0.0136)
    target = PiecewiseTarget(
        tuple(
            TargetPiece(ClosedDisc(complex(c + offset), r), Zero(), tau)
            for (c, r), tau in zip(discs, taus)
        )
    )
    pts, _, weights = _piece_data(target, 256)
    fn, _ = _fit_to(pts, np.exp(-pts / 30.0), weights, 256)
    return fn, pts, weights


@pytest.mark.parametrize("offset", [0.0, 100.0])
def test_arnoldi_basis_orthonormal_on_dense_shaped_grid(offset):
    # moved away from the origin, a single Gram-Schmidt pass loses
    # orthogonality completely, so this pins the reorthogonalization
    fn, pts, weights = _dense_shaped_fit(offset)
    assert fn.degree == 256
    q = fn.basis(pts) * weights
    gram = np.conj(q) @ q.T
    assert np.max(np.abs(gram - np.eye(257))) < 1e-10


def _per_column_basis(fn, z):
    """The Hessenberg recurrence one column at a time, for reference."""
    q = np.empty((fn.degree + 1, z.size), dtype=complex)
    q[0] = 1.0 / fn.norm0
    for k in range(fn.degree):
        v = z * q[k] - fn.hessenberg[: k + 1, k] @ q[: k + 1]
        q[k + 1] = v / fn.hessenberg[k + 1, k]
    return q


@pytest.mark.parametrize("offset", [0.0, 100.0])
def test_arnoldi_blocked_basis_matches_per_column_recurrence(offset):
    fn, pts, _ = _dense_shaped_fit(offset)
    assert fn.degree > 4 * BASIS_BLOCK
    got, want = fn.basis(pts), _per_column_basis(fn, pts)
    # the first block has no earlier rows to gather: bit for bit
    assert np.array_equal(got[: BASIS_BLOCK + 1], want[: BASIS_BLOCK + 1])
    scale = np.max(np.abs(want), axis=1)
    assert np.max(np.max(np.abs(got - want), axis=1) / scale) <= 1e-12


def test_arnoldi_chunked_evaluation_consistent():
    fn, _ = _simple_arnoldi(np.array([0.0, 1.0, 1.0]))
    zs = np.linspace(-1, 1, 20000) + 0.25j
    small = np.concatenate([fn.evaluate(zs[s : s + 100]) for s in range(0, zs.size, 100)])
    assert np.array_equal(fn.evaluate(zs), small)
    assert isinstance(fn.evaluate(1.0 + 0.0j), complex)


def test_arnoldi_chunked_evaluation_consistent_at_degree_256():
    # matrix products round differently on chunks of different widths,
    # so at high degree only agreement to rounding is promised
    fn, pts, _ = _dense_shaped_fit(0.0)
    whole = fn.evaluate(pts)
    small = np.concatenate([fn.evaluate(pts[s : s + 100]) for s in range(0, pts.size, 100)])
    assert np.max(np.abs(small - whole)) <= 1e-12 * np.max(np.abs(whole))


# ---------------------------------------------------------------------------
# Enumeration of polynomials with Gaussian-rational coefficients


def test_pairing_round_trip():
    # the first 31 * 32 / 2 indices fill the diagonals a + b < 31, each
    # pair once, b counting up along a diagonal
    pairs = [_cantor_unpair(n) for n in range(496)]
    assert set(pairs) == {(w - b, b) for w in range(31) for b in range(w + 1)}
    assert len(set(pairs)) == len(pairs)
    assert pairs[:6] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@given(st.integers(0, 10**9))
def test_pairing_round_trip_hypothesis(n):
    a, b = _cantor_unpair(n)
    w = a + b
    assert a >= 0 and b >= 0
    assert w * (w + 1) // 2 + b == n


def test_signed_rationals_enumerate_without_repeats():
    seen = {_signed_rational(k) for k in range(600)}
    assert len(seen) == 600
    assert _signed_rational(0) == 0
    assert _signed_rational(1) == 1
    assert _signed_rational(2) == -1


def test_gaussian_rational_zero_only_at_zero():
    assert _gaussian_rational(0) == 0
    vals = [_gaussian_rational(m) for m in range(1, 400)]
    assert all(v != 0 for v in vals)
    assert len(set(vals)) == len(vals)


def test_enumeration_fixed_positions():
    assert enumerate_dense_polynomial(1).coefficients.tolist() == [0.0]
    assert enumerate_dense_polynomial(2).coefficients.tolist() == [1.0]
    np.testing.assert_allclose(
        enumerate_dense_polynomial(3).coefficients, [0.0, 1.0]
    )
    for mu in range(7):
        l = 2 + mu * (mu + 1) // 2
        got = enumerate_dense_polynomial(l).coefficients
        want = Polynomial.monomial(mu).coefficients
        np.testing.assert_allclose(got, want)


def test_enumeration_is_injective_and_degree_honest():
    seen = set()
    for l in range(1, 2000):
        p = enumerate_dense_polynomial(l)
        key = tuple(np.round(p.coefficients, 12).tolist())
        assert key not in seen
        seen.add(key)
        if l >= 2:
            assert p.coefficients[-1] != 0.0


def test_enumeration_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        enumerate_dense_polynomial(0)


# ---------------------------------------------------------------------------
# Circle norms


def test_parseval_exact_for_standard_basis():
    rng = np.random.default_rng(0)
    c = rng.normal(size=13) + 1j * rng.normal(size=13)
    p = Polynomial(c)
    assert l2_circle_norm(p) == pytest.approx(float(np.sqrt(np.sum(np.abs(c) ** 2))))


def test_parseval_matches_quadrature_to_degree_200():
    rng = np.random.default_rng(1)
    for deg in (0, 1, 7, 50, 200):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        c[-1] += 1.0
        p = Polynomial(c)
        zs = np.exp(2j * np.pi * np.arange(2048) / 2048)
        quad = float(np.sqrt(np.mean(np.abs(p.evaluate(zs)) ** 2)))
        assert abs(l2_circle_norm(p) - quad) < PARSEVAL_TOL * max(1.0, quad)


@settings(max_examples=40)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=24))
def test_parseval_invariant_hypothesis(re_parts):
    c = np.asarray(re_parts, dtype=complex)
    p = Polynomial(c)
    zs = np.exp(2j * np.pi * np.arange(2048) / 2048)
    quad = float(np.sqrt(np.mean(np.abs(p.evaluate(zs)) ** 2)))
    assert abs(l2_circle_norm(p) - quad) <= PARSEVAL_TOL * (1.0 + quad)


def test_distance_on_circle_matches_coefficient_subtraction():
    rng = np.random.default_rng(2)
    a = rng.normal(size=9) + 1j * rng.normal(size=9)
    b = rng.normal(size=5) + 1j * rng.normal(size=5)
    f, g = Polynomial(a), Polynomial(b)
    diff = a.copy()
    diff[:5] -= b
    want = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    assert l2_distance_on_circle(f, g) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Targets and envelopes


def test_piecewise_target_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        PiecewiseTarget(
            (
                TargetPiece(ClosedDisc(0.0, 1.0), Zero(), 1.0),
                TargetPiece(ClosedDisc(1.5, 1.0), Zero(), 1.0),
            )
        )
    # the first meeting pair in row-major order is named; touching discs meet
    discs = (ClosedDisc(0.0, 1.0), ClosedDisc(5.0, 1.0), ClosedDisc(7.0, 1.0),
             ClosedDisc(0.5, 1.0))
    for regions, pair in ((discs, "0 and 3"), (discs[:3], "1 and 2")):
        with pytest.raises(ValueError, match=f"target regions {pair} are not disjoint"):
            PiecewiseTarget(tuple(TargetPiece(d, Zero(), 1.0) for d in regions))


def test_target_piece_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        TargetPiece(ClosedDisc(0.0, 1.0), Zero(), 0.0)


def test_min_envelope_whole_plane_disc():
    # on the plane the boundary is the point at infinity; the minimum
    # over D(0,1) sits on the rim
    got = min_envelope(WHOLE_PLANE, ClosedDisc(0.0, 1.0))
    grid = sample_grid(ClosedDisc(0.0, 1.0), 3)
    want = float(np.min(eps_to_boundary(WHOLE_PLANE, grid)))
    assert got == pytest.approx(want)
    assert got == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize(
    "domain, disc",
    [
        (WHOLE_PLANE, ClosedDisc(5.0 * np.exp(0.3j), 2.0)),
        (Domain(DomainKind.UNIT_DISC), ClosedDisc(0.5 * np.exp(0.3j), 0.3)),
    ],
    ids=["whole-plane", "unit-disc"],
)
def test_min_envelope_of_an_off_axis_disc_is_the_true_minimum(domain, disc):
    # the farthest point c (1 + r/|c|) lies between the angles of the
    # sample grid, whose minimum overshot the true one (0.2828840 against
    # 0.2828427 on the plane, 0.2210289 against 0.2208631 in the disc)
    far = abs(disc.center) + disc.radius
    got = min_envelope(domain, disc)
    assert got == eps_to_boundary(domain, far)
    assert got <= float(np.min(eps_to_boundary(domain, _circle(disc.center, disc.radius, 4096))))


def test_target_piece_is_a_disc():
    with pytest.raises(ValueError, match="disc, not a AnnularSector"):
        TargetPiece(AnnularSector(0.5, 2.0, 2.5), Monomial(3), 1.0)


# ---------------------------------------------------------------------------
# Fitting


def _two_disc_target(tau=1e-8):
    return PiecewiseTarget(
        (
            TargetPiece(ClosedDisc(0.0, 0.5), FixedPoly(Polynomial([1.0, 2.0])), tau),
            TargetPiece(ClosedDisc(3.0, 0.5), FixedPoly(Polynomial([0.0, 0.0, 1.0])), tau),
        )
    )


def test_fit_two_disc_polynomial_targets():
    # both targets are polynomials, so some finite degree nails them; the
    # certificates are the bounds of _verify on the candidate, bit for bit
    target = _two_disc_target()
    cand = fit_on_compacts(target)
    assert cand.status == CandidateStatus.PASS
    for cert in cand.certificates:
        assert cert.achieved < cert.envelope
    assert [c.achieved for c in cand.certificates] == _verify(cand.fn, target)


def test_fit_is_deterministic():
    a = fit_on_compacts(_two_disc_target())
    b = fit_on_compacts(_two_disc_target())
    assert a.degree == b.degree
    zs = np.linspace(-0.5, 3.5, 101) + 0.1j
    assert np.array_equal(a.evaluate(zs), b.evaluate(zs))


def test_fit_reports_nonconvergence_at_degree_cap():
    target = PiecewiseTarget(
        (TargetPiece(ClosedDisc(0.0, 1.0), Monomial(10), 1e-8),)
    )
    cand = fit_on_compacts(target, max_degree=8)
    assert cand.status == CandidateStatus.FAILED
    assert cand.reason == "NON-CONVERGED"
    assert cand.degree <= 8


def test_fit_rejects_small_degree_cap():
    with pytest.raises(ValueError, match="nonnegative"):
        fit_on_compacts(_two_disc_target(), max_degree=-1)
    # the least cap fits a constant
    assert fit_on_compacts(_two_disc_target(), max_degree=0).degree == 0


def test_fit_linear_in_target_values():
    # same regions, budgets, and grids; a loose budget stops every run
    # at the first degree, where least squares is linear in the data
    r1, r2 = ClosedDisc(0.0, 1.0), ClosedDisc(4.0, 1.0)
    pa = Polynomial([0.3, 1.0, -0.2])
    pb = Polynomial([1.0, 0.0, 0.5j])
    alpha, beta = 2.0, -1.5

    def fit_for(p1, p2):
        t = PiecewiseTarget(
            (TargetPiece(r1, FixedPoly(p1), 100.0), TargetPiece(r2, FixedPoly(p2), 100.0))
        )
        return fit_on_compacts(t)

    fa = fit_for(pa, Polynomial.zero())
    fb = fit_for(Polynomial.zero(), pb)
    comb = fit_for(
        Polynomial(alpha * pa.coefficients),
        Polynomial(beta * pb.coefficients),
    )
    zs = np.linspace(-1, 5, 61) + 0.2j
    want = alpha * fa.evaluate(zs) + beta * fb.evaluate(zs)
    assert np.max(np.abs(comb.evaluate(zs) - want)) < 1e-8


def test_fit_arnoldi_fallback_on_far_separated_discs():
    # widely separated discs with tight budgets make the monomial
    # Vandermonde matrix degenerate; the Arnoldi fit must still certify
    pieces = [
        TargetPiece(ClosedDisc(0.0, 1.0), Monomial(1), 1e-3),
    ]
    for j, c in enumerate((8.0, 16.0, 24.0, 32.0, 40.0)):
        pieces.append(TargetPiece(ClosedDisc(c, 1.0), Zero(), 1e-3))
    cand = fit_on_compacts(PiecewiseTarget(tuple(pieces)))
    assert cand.status == CandidateStatus.PASS


def _three_disc_target(tau=1e-3):
    # z^2, 0 and z on separated discs: the degree-128 fit leaves errors
    # near 1e-4, far above rounding
    pieces = (
        (ClosedDisc(0.0, 1.0), Monomial(2)),
        (ClosedDisc(4.0, 1.0), Zero()),
        (ClosedDisc(8.0, 1.0), Monomial(1)),
    )
    return PiecewiseTarget(tuple(TargetPiece(r, f, tau) for r, f in pieces))


def _one_disc_target(coefficients, tau):
    return PiecewiseTarget(
        (TargetPiece(ClosedDisc(0.0, 1.0), FixedPoly(Polynomial(coefficients)), tau),)
    )


def _record_fit_steps(monkeypatch):
    """rho at each degree the pass reaches, and (fn, bounds) of each step
    verified, in order."""
    rhos, verified = [], []
    fit, verify = approx._fit_arnoldi, approx._verify

    def fitting(*args):
        for rho, last, build in fit(*args):
            rhos.append(rho)
            yield rho, last, build

    def verifying(fn, target):
        bounds = verify(fn, target)
        verified.append((fn, bounds))
        return bounds

    monkeypatch.setattr(approx, "_fit_arnoldi", fitting)
    monkeypatch.setattr(approx, "_verify", verifying)
    return rhos, verified


def _scheduled(rhos):
    """Degrees the verification schedule names in a pass that stopped
    after len(rhos) steps: the first with 1.25 rho < 1, then each whose
    rho is below the last verified one's by another factor 1.25, and the
    last step."""
    degrees, limit = [], 1.0
    for k, rho in enumerate(rhos):
        if 1.25 * rho < limit or k == len(rhos) - 1:
            degrees.append(k)
            limit = rho
    return degrees


def test_only_a_fit_step_within_budget_is_verified(monkeypatch):
    # the three-disc fit verifies degree 104 alone, the first with
    # 1.25 rho < 1, and passes there.  z^20 at budget 2 has rho = 0.5 up
    # to degree 19: degree 0 is verified and fails, with no norming bound
    # (20 >= 16 / pi), and the next step verified is degree 20, where rho
    # falls to rounding and the bound passes
    z20 = _one_disc_target([0.0] * 20 + [1.0], 2.0)
    for target, want in ((_three_disc_target(), [104]), (z20, [0, 20])):
        rhos, verified = _record_fit_steps(monkeypatch)
        cand = fit_on_compacts(target)
        monkeypatch.undo()
        assert [fn.degree for fn, _ in verified] == _scheduled(rhos) == want
        assert cand.status == CandidateStatus.PASS and cand.fn is verified[-1][0]
        assert [c.achieved for c in cand.certificates] == _verify(cand.fn, target)


@pytest.mark.parametrize(
    "target",
    [_three_disc_target(), _one_disc_target([0.0] * 20 + [1.0], 2.0)],
    ids=["three-disc", "one-disc"],
)
def test_fit_residual_is_the_residual_of_each_truncation(target):
    # rho_k, kept as r <- r - c_k b_k, is max |w (vals - fn_k(pts))| with
    # fn_k the degree-k truncation evaluated through its own recurrence,
    # up to rounding on the scale of the weighted data: under 1e-9 here
    pts, vals, weights = _piece_data(target, 128)
    scale = float(np.max(np.abs(weights * vals)))
    for k, (rho, _, fit) in enumerate(_fit_arnoldi(pts, vals, weights, 128)):
        fn = fit()
        assert fn.degree == k and fn.hessenberg.shape == (k + 1, k)
        direct = float(np.max(np.abs(weights * (vals - fn.evaluate(pts)))))
        assert abs(rho - direct) <= 1e-13 * scale


def test_fit_memory_follows_the_degree_reached():
    # a cap of 4096 rings the disc with 4097 points, and the fit passes at
    # degree 3: basis rows and H sized for the cap would take 540 MB
    target = _one_disc_target([0.0, 0.0, 0.0, 1.0], 1e-3)
    tracemalloc.start()
    try:
        cand = fit_on_compacts(target, max_degree=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cand.status == CandidateStatus.PASS and cand.degree == 3
    assert peak < 8 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.25, 1.0]),
            st.integers(0, 24),
            st.floats(-6.0, 0.0),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([0.0, 10.0, 99.5 + 0.5j]),
    st.sampled_from([8, 16]),
    st.integers(0, 2**32 - 1),
)
def test_fit_residual_at_the_budget_leaves_a_bound_at_the_budget(discs, offset, degree, seed):
    # rho >= 1 leaves a step unverified; the certificate of that step
    # must then miss some budget too
    rng = np.random.default_rng(seed)
    pieces = []
    for j, (radius, target_degree, log_tau) in enumerate(discs):
        coefficients = rng.normal(size=target_degree + 1) + 1j * rng.normal(size=target_degree + 1)
        disc = ClosedDisc(complex(offset) + 3.0 * j, radius)
        pieces.append(TargetPiece(disc, FixedPoly(Polynomial(coefficients)), 10.0 ** log_tau))
    target = PiecewiseTarget(tuple(pieces))
    pts, vals, weights = _piece_data(target, degree)
    fn, rho = _fit_to(pts, vals, weights, min(degree, pts.size - 1))
    if rho >= 1.0:
        assert any(b >= p.tau for b, p in zip(_verify(fn, target), pieces))


@pytest.mark.parametrize(
    "target, max_degree, verified_degrees, unbounded",
    [
        (_three_disc_target(), 32, [32], False),
        # z + z^12 at budget 1.3: rho = 1 / 1.3 from degree 1 to 11, so
        # degree 1 is verified, with no norming bound (12 >= 32 / pi); the
        # cap 8 bounds the error |z^12| = 1 by 1 / (1 - 12 pi / 144) > 1.3
        (_one_disc_target([0.0, 1.0] + [0.0] * 10 + [1.0], 1.3), 8, [1, 8], False),
        # z^200 leaves every step of degree d < 200 pi / 16 - 1 without a
        # norming bound.  Its ring holds 201 points, on which z^200 is
        # orthogonal to every lower degree, so rho stays 1e3 and the cap
        # alone is verified, at ratio inf
        (_one_disc_target([0.0] * 200 + [1.0], 1e-3), 32, [32], True),
    ],
    ids=["all-screened", "last-verified", "all-unbounded"],
)
def test_non_converged_fit_matches_verifying_every_step(
    monkeypatch, target, max_degree, verified_degrees, unbounded
):
    # the steps the schedule names are each verified once, the cap among
    # them, and the candidate is the first of least worst ratio
    rhos, verified = _record_fit_steps(monkeypatch)
    cand = fit_on_compacts(target, max_degree=max_degree)
    monkeypatch.undo()
    assert cand.status == CandidateStatus.FAILED and cand.reason == "NON-CONVERGED"
    degrees = [fn.degree for fn, _ in verified]
    assert degrees == _scheduled(rhos) and degrees[-1] == max_degree
    assert degrees == verified_degrees
    taus = [p.tau for p in target.pieces]
    ratios = [max(b / t for b, t in zip(bounds, taus)) for _, bounds in verified]
    fn, bounds = verified[ratios.index(min(ratios))]
    assert cand.fn is fn and [c.achieved for c in cand.certificates] == bounds
    assert (min(ratios) == math.inf) == unbounded


def _local_target(coefficients, disc):
    """The polynomial with these coefficients in u = (z - c) / r."""
    return ComposedInverse(Polynomial(coefficients), Similarity(disc.radius, disc.center))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(0.01, 5.0),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_certificate_bounds_the_error_on_a_finer_ring(cx, cy, radius, d, share, seed):
    # fn of degree d against a target of degree up to 5 (d + 1), so that
    # D = max(d, target degree) < m / pi for the m = 16 (d + 1) ring
    rng = np.random.default_rng(seed)
    disc = ClosedDisc(complex(cx, cy), radius)
    normal = lambda n: rng.normal(size=n) + 1j * rng.normal(size=n)
    grid = _circle(disc.center, disc.radius, max(32, d + 1))
    fitted = _local_target(normal(d + 1), disc).values(grid)
    fn, _ = _fit_to(grid, fitted, np.ones(grid.size), d)
    spec = _local_target(normal(int(share * 5 * (d + 1)) + 1), disc)
    target = PiecewiseTarget((TargetPiece(disc, spec, 1.0),))
    [bound] = _verify(fn, target)
    fine = _circle(disc.center, disc.radius, 64 * 16 * (fn.degree + 1))
    assert bound >= np.max(np.abs(fn.evaluate(fine) - spec.values(fine)))


def test_certificate_is_not_fooled_by_an_error_vanishing_on_the_ring():
    # e = eps u^200 (1 - u^480) vanishes, to rounding, on the 480-point
    # ring of a degree-29 fit, on every ring point of the sampled check it
    # replaced and on that check's lattice, yet |e| reaches 2 eps
    # half way between ring points; degree 680 > 480 / pi leaves no
    # norming bound
    eps, d, m = 1e-3, 29, 480
    disc = ClosedDisc(0.0, 1.0)
    coefficients = np.zeros(201 + m, dtype=complex)
    coefficients[200], coefficients[200 + m] = eps, -eps
    spec = FixedPoly(Polynomial(coefficients))
    grid = _circle(disc.center, disc.radius, max(32, d + 1))
    fn, _ = _fit_to(grid, np.zeros(grid.size), np.ones(grid.size), d)
    ring = _circle(0.0, 1.0, m)
    assert np.max(np.abs(spec.values(ring))) < 1e-12 * eps
    assert abs(spec.values(np.exp(1j * np.pi / m))) == pytest.approx(2.0 * eps)
    assert _verify(fn, PiecewiseTarget((TargetPiece(disc, spec, eps),))) == [math.inf]


def test_fit_without_a_norming_bound_fails():
    # z^60 against m = 16 (8 + 1) = 144 <= 60 pi ring points: the budget
    # is loose, but no step may certify it
    target = PiecewiseTarget((TargetPiece(ClosedDisc(0.0, 1.0), Monomial(60), 1e3),))
    cand = fit_on_compacts(target, max_degree=8)
    assert cand.certificates[0].achieved == math.inf
    assert cand.status == CandidateStatus.FAILED and cand.reason == "NON-CONVERGED"


def test_target_degrees():
    p = Polynomial([1.0, 0.0, 2.0])
    assert Zero().degree == 0 and Monomial(4).degree == 4 and FixedPoly(p).degree == 2
    assert ComposedInverse(p, Similarity(2.0, 1.0)).degree == 2
    assert ComposedInverse(p, RootShift(0.0, 1.0, 3, 5)).degree == 6
    assert ComposedInverse(p, Iterated(RootShift(0.0, 1.0, 2, 1), 3)).degree == 16
    assert ComposedInverse(p, ParabolicDisc(1.0, 1.0, 2)).degree is None


def test_fit_refuses_a_target_through_a_non_polynomial_inverse():
    spec = ComposedInverse(Polynomial([0.0, 1.0]), ParabolicDisc(1.0, 1.0, 2))
    target = PiecewiseTarget(
        (
            TargetPiece(ClosedDisc(-0.5, 0.1), Zero(), 1e-3),
            TargetPiece(ClosedDisc(0.5, 0.1), spec, 1e-3),
        )
    )
    with pytest.raises(ValueError, match="piece 1: .* non-affine Moebius map is no polynomial"):
        fit_on_compacts(target)


def test_slit_plane_spaceable_base_is_the_sector_enclosing_disc():
    from freqdyn.density import build_separated_family
    from freqdyn.runaway import RunawayConfig, build_carleman_truncation

    fam = build_separated_family(6, 10_000, 8)
    exh = sector_exhaustion(1.0, 0.0, 1.0, 1)
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: RootShift(0.0, 1.0, 1, n),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=10_000,
        nu_max=3,
    )
    tr = build_carleman_truncation(cfg, bases=1, max_islands=4)
    sector = tr.bases[0]
    assert isinstance(sector, AnnularSector)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 2, 10_000) for nu in (1, 2, 3)}
    members = []
    for mu in (1, 2):
        target = assemble_spaceable_target(mu, tr, splits)
        base = target.pieces[0]
        assert base.region == enclosing_disc(sector) == ClosedDisc(0.0, sector.rmax)
        eps = min_envelope(exh.domain, sector)
        assert base.tau == 3.0 ** (-mu) * min(1.0, eps)
        members.append(fit_on_compacts(target))
        assert members[-1].status == CandidateStatus.PASS
    # fitted on the whole disc, the members stay close to z^mu on |z| = 1
    assert build_span_basis(members, (1, 2), BasisKind.SPACEABLE).perturbation_sum < 0.5


@pytest.fixture(scope="module")
def dense_member3():
    """The third member of configs/dense.ini: target and fit."""
    from freqdyn.density import build_separated_family
    from freqdyn.geometry import whole_plane_exhaustion
    from freqdyn.maps import Similarity
    from freqdyn.runaway import RunawayConfig, build_carleman_truncation

    horizon = 10_000
    fam = build_separated_family(10, horizon, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=horizon,
        nu_max=4,
        resolution=3,
    )
    tr = build_carleman_truncation(cfg, bases=4, max_islands=6)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 4, horizon) for nu in (1, 2, 3, 4)}
    target = assemble_dense_target(3, tr, splits)
    return target, fit_on_compacts(target)


def _ring_fit(target, degree):
    """The degree fit on rings of degree + 1 points on every disc, weighted
    by 1 / tau: every ring as large as the largest of _piece_data's."""
    rings = [_circle(p.region.center, p.region.radius, degree + 1) for p in target.pieces]
    vals = [p.spec.values(ring) for p, ring in zip(target.pieces, rings)]
    weights = [np.full(degree + 1, 1.0 / p.tau) for p in target.pieces]
    fn, _ = _fit_to(np.concatenate(rings), np.concatenate(vals), np.concatenate(weights), degree)
    return fn


def _far_small_disc_fit():
    # a disc of radius 1e-3 far from the origin, fitted at degree 256
    # together with a unit disc
    target = PiecewiseTarget(
        (
            TargetPiece(ClosedDisc(0.0, 1.0), Monomial(3), 1e-3),
            TargetPiece(ClosedDisc(300.0 + 400.0j, 1e-3), Monomial(1), 1e-3),
        )
    )
    return target, _ring_fit(target, 256)


def test_local_taylor_agrees_with_arnoldi_evaluation(dense_member3):
    # the member's fit carried on to the degree cap 256
    target, _ = dense_member3
    fn = _ring_fit(target, 256)
    assert fn.degree == 256
    far_target, far_fn = _far_small_disc_fit()
    for tgt, fn in ((target, fn), (far_target, far_fn)):
        direct, taylor = [], []
        for piece in tgt.pieces:
            disc = piece.region
            assert isinstance(disc, ClosedDisc) and disc.radius > 0.0
            local = _local_taylor(fn.evaluate(_circle(disc.center, disc.radius, fn.degree + 1)))
            # the verification ring of _verify
            ring = _circle(0.0, 1.0, 16 * (fn.degree + 1))
            direct.append(fn.evaluate(disc.center + disc.radius * ring))
            taylor.append(local.evaluate(ring))
        # rounding of either path is on the scale of the fit's largest value
        scale = max(np.max(np.abs(d)) for d in direct)
        for d, t in zip(direct, taylor):
            assert np.max(np.abs(t - d)) <= 1e-12 * scale


def test_dense_member3_fit_grid_is_thin(dense_member3):
    target, cand = dense_member3
    # seven discs at the cap 256; rings of 4 (d + 1) points made 7854,
    # rings of d + 1 points with interior lattices 2478, and rings of
    # d + 1 points on every disc 1799.  At one arclength spacing the
    # radius-4 base keeps 257 points, the radius-2 island 129 and the
    # five radius-1 islands 65 each
    assert sorted(p.region.radius for p in target.pieces) == [1.0] * 5 + [2.0, 4.0]
    pts, _, _ = _piece_data(target, 256)
    assert pts.size == 257 + 129 + 5 * 65
    assert cand.status == CandidateStatus.PASS


def test_zero_radius_disc_takes_the_direct_path(monkeypatch):
    target = PiecewiseTarget(
        (
            TargetPiece(ClosedDisc(0.0, 1.0), Monomial(2), 1e-3),
            TargetPiece(ClosedDisc(3.0 + 1.0j, 0.0), Monomial(1), 1e-3),
        )
    )
    pts, vals, weights = _piece_data(target, 16)
    fn, _ = _fit_to(pts, vals, weights, 16)
    sizes = []
    evaluate = ArnoldiPoly.evaluate_with_rounding

    def recording(self, z):
        sizes.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(ArnoldiPoly, "evaluate_with_rounding", recording)
    bounds = _verify(fn, target)
    monkeypatch.undo()
    # d + 1 circle nodes on the unit disc, the one point of the other
    assert sizes == [17, 1]
    z = np.array([3.0 + 1.0j])
    value, rounding = fn.evaluate_with_rounding(z)
    assert value[0] == fn.evaluate(z[0])
    assert 0.0 < rounding[0] < 1e-12
    assert bounds[1] == abs(value[0] - z[0]) + rounding[0]


@pytest.mark.parametrize(
    "region", [ClosedDisc(2.0 - 1.0j, 0.5), ClosedDisc(2.0 - 1.0j, 0.0)], ids=["disc", "point"]
)
@pytest.mark.parametrize("degree", [4, 8, 256])
def test_piece_grid_point_sets(region, degree):
    # boundary points only, no interior lattice.  Beside a disc of radius
    # 2, which holds max(32, degree + 1) points, a disc of radius 0.5
    # holds a quarter as many, but never fewer than 32 or power + 1; a
    # disc of radius 0 holds its centre alone
    base = ClosedDisc(-2.0, 2.0)
    ring = lambda disc, k: disc.center + disc.radius * np.exp(2j * np.pi * np.arange(k) / k)
    n = max(32, degree + 1)
    for power in (2, 40):
        m = max(32, power + 1, math.ceil((degree + 1) / 4)) if region.radius > 0.0 else 1
        target = PiecewiseTarget(
            (TargetPiece(base, Monomial(1), 0.25), TargetPiece(region, Monomial(power), 0.5))
        )
        pts, vals, weights = _piece_data(target, degree)
        assert np.array_equal(pts, np.concatenate([ring(base, n), ring(region, m)]))
        assert np.array_equal(vals, np.concatenate([ring(base, n), ring(region, m) ** power]))
        assert np.array_equal(weights, np.concatenate([np.full(n, 4.0), np.full(m, 2.0)]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
            st.integers(0, 24),
            st.floats(-6.0, 0.0),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(8, 64),
    st.integers(0, 2**32 - 1),
)
def test_ring_sizes_follow_the_radius_and_every_pass_is_a_bound(discs, cap, seed):
    # random polynomial targets of degree D on discs 10 apart
    rng = np.random.default_rng(seed)
    pieces = []
    for j, (radius, target_degree, log_tau) in enumerate(discs):
        coefficients = rng.normal(size=target_degree + 1) + 1j * rng.normal(size=target_degree + 1)
        disc = ClosedDisc(10.0 * j, radius)
        pieces.append(TargetPiece(disc, FixedPoly(Polynomial(coefficients)), 10.0 ** log_tau))
    target = PiecewiseTarget(tuple(pieces))
    pts, _, _ = _piece_data(target, cap)
    centres = np.array([p.region.center for p in pieces])
    counts = np.bincount(np.argmin(np.abs(pts[:, None] - centres), axis=1), minlength=len(pieces))
    radii = np.array([p.region.radius for p in pieces])
    rings = radii > 0.0
    assert np.all(counts[~rings] == 1)
    if np.any(rings):
        assert np.max(counts[rings]) == max(32, cap + 1)
        floors = np.array([max(32, p.spec.degree + 1) for p in pieces])
        assert np.all(counts[rings] >= floors[rings])
        # above its floor a ring is spaced as the largest one: at most one
        # point beyond its share of the arclength
        share = (cap + 1) * radii / np.max(radii)
        assert np.all(counts[rings] <= np.maximum(floors, share + 1)[rings])
        # D + 1 <= 25 < 32 here, so the counts order as the radii do
        order = np.argsort(radii[rings], kind="stable")
        assert np.all(np.diff(counts[rings][order]) >= 0)
    cand = fit_on_compacts(target, cap)
    if cand.status == CandidateStatus.PASS:
        for piece, cert in zip(pieces, cand.certificates):
            disc = piece.region
            m = 4 * 16 * (cand.degree + 1) if disc.radius > 0.0 else 1
            z = _circle(disc.center, disc.radius, m) if disc.radius > 0.0 else np.array([disc.center])
            error = np.max(np.abs(cand.fn.evaluate(z) - piece.spec.values(z)))
            assert cert.achieved >= error


def _overflow_at_the_cap_target():
    # z^3 on the unit disc and z on a disc of radius 1e-3 far off: at the
    # cap 256 the small disc's 32 ring points leave the fit overflowing
    # on its verification nodes
    return PiecewiseTarget(
        (
            TargetPiece(ClosedDisc(0.0, 1.0), Monomial(3), 1e-9),
            TargetPiece(ClosedDisc(300.0 + 400.0j, 1e-3), Monomial(1), 1e-12),
        )
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_step_is_unbounded_and_never_kept(monkeypatch):
    # the cap's bound on the small disc is inf, not NaN, so its ratio
    # cannot rank below the finite ratios of the earlier steps
    target = _overflow_at_the_cap_target()
    _, verified = _record_fit_steps(monkeypatch)
    cand = fit_on_compacts(target, 256)
    monkeypatch.undo()
    assert verified[-1][0].degree == 256 and verified[-1][1][1] == math.inf
    assert not any(math.isnan(b) for _, bounds in verified for b in bounds)
    assert cand.status == CandidateStatus.FAILED and cand.reason == "NON-CONVERGED"
    assert cand.degree < 256 and all(math.isfinite(c.achieved) for c in cand.certificates)


def test_a_nan_bound_never_outranks_a_finite_one(monkeypatch):
    # z + z^12 at budget 1.3 and cap 8 verifies degrees 1 and 8, both
    # failing; a NaN bound at degree 1 leaves degree 8 the candidate
    target = _one_disc_target([0.0, 1.0] + [0.0] * 10 + [1.0], 1.3)
    verify = approx._verify
    monkeypatch.setattr(
        approx, "_verify", lambda fn, t: [math.nan] if fn.degree == 1 else verify(fn, t)
    )
    cand = fit_on_compacts(target, 8)
    assert cand.status == CandidateStatus.FAILED and cand.degree == 8
    assert math.isfinite(cand.certificates[0].achieved)


# ---------------------------------------------------------------------------
# Double split


def test_double_split_partitions_the_set():
    a = arithmetic_progression(5, 5, 3000)
    blocks = double_split(a, l_max=2, p_max=3, horizon=3000)
    assert set(blocks) == {(l, p) for l in (1, 2) for p in (1, 2, 3)}
    merged = np.sort(np.concatenate([b.elements for b in blocks.values()]))
    assert np.array_equal(merged, a.elements)


@pytest.mark.parametrize(
    "a, l_max, horizon",
    [
        (arithmetic_progression(5, 5, 3000), 2, 3000),
        (arithmetic_progression(5, 5, 3000), 3, 1000),
        (naturals(2**12), 1, 2**12),
    ],
)
def test_double_split_with_one_block_matches_split(a, l_max, horizon):
    # the existence build labels its islands from this one-block split
    blocks = double_split(a, l_max=l_max, p_max=1, horizon=horizon)
    assert list(blocks) == [(l, 1) for l in range(1, l_max + 1)]
    merged = np.sort(np.concatenate([b.elements for b in blocks.values()]))
    assert np.array_equal(merged, a.elements[a.elements <= horizon])
    for l, piece in enumerate(split(a, l_max, horizon), start=1):
        assert np.array_equal(blocks[(l, 1)].elements, piece.elements)


def test_island_label_finds_the_piece_holding_an_index():
    a = arithmetic_progression(5, 5, 3000)
    splits = {2: double_split(a, l_max=2, p_max=3, horizon=3000)}
    for key, piece in splits[2].items():
        for n in piece.elements[:20]:
            assert island_label(splits, int(n), 2) == key
    assert island_label(splits, 7, 2) is None  # not in a
    assert island_label(splits, 5, 1) is None  # no split at that level


def test_double_split_block_densities():
    a = naturals(2**14)
    blocks = double_split(a, l_max=2, p_max=2, horizon=2**14)
    # outer split is 1/2 + 1/2 (two parts with absorption), inner the same
    for key, b in blocks.items():
        assert len(b) / len(a) == pytest.approx(0.25, abs=0.01)


# ---------------------------------------------------------------------------
# Basis verification


def _monomial_member(mu, tau=1e-6):
    t = PiecewiseTarget((TargetPiece(ClosedDisc(0.0, 1.2), Monomial(mu), tau),))
    return fit_on_compacts(t)


def test_perturbation_sum_near_zero_for_exact_monomials():
    members = [_monomial_member(mu) for mu in (1, 2, 3)]
    assert all(m.status == CandidateStatus.PASS for m in members)
    assert verify_basis_perturbation(members, (1, 2, 3)) < 1e-4


def test_gram_of_near_monomials_is_near_identity():
    members = [_monomial_member(mu) for mu in (1, 2, 3)]
    lam, h = gram_independence(members)
    assert lam == pytest.approx(1.0, abs=1e-3)
    assert h == pytest.approx(1.0, abs=1e-3)


def test_build_span_basis_round_trip():
    members = [_monomial_member(mu) for mu in (1, 2, 3)]
    basis = build_span_basis(members, (1, 2, 3), BasisKind.SPACEABLE)
    assert basis.perturbation_sum < 0.5
    assert basis.gram_lambda_min > 0.2
    assert basis.member(2) is members[1]


def test_build_span_basis_rejects_large_perturbation():
    # calling a z^2 approximant the mu = 1 member puts the circle
    # distance at sqrt(2), well over the allowance
    members = [_monomial_member(2), _monomial_member(3)]
    with pytest.raises(ValueError, match="perturbation"):
        build_span_basis(members, (1, 2), BasisKind.SPACEABLE)


def test_build_span_basis_rejects_dependent_members():
    members = [_monomial_member(1), _monomial_member(1)]
    with pytest.raises(ValueError, match="dependent"):
        build_span_basis(members, (1, 1), BasisKind.DENSE)


def test_build_span_basis_rejects_failed_candidates():
    bad = fit_on_compacts(
        PiecewiseTarget((TargetPiece(ClosedDisc(0.0, 1.0), Monomial(10), 1e-9),)),
        max_degree=8,
    )
    with pytest.raises(ValueError, match="FAILED"):
        build_span_basis([bad], [1], BasisKind.DENSE)


# ---------------------------------------------------------------------------
# Target assembly on a small truncation


HORIZON = 2000


@pytest.fixture(scope="module")
def translation_setup():
    from freqdyn.density import build_separated_family, split
    from freqdyn.geometry import whole_plane_exhaustion
    from freqdyn.maps import Similarity
    from freqdyn.runaway import RunawayConfig, build_carleman_truncation

    fam = build_separated_family(3, HORIZON, 8)
    exh = whole_plane_exhaustion()
    cfg = RunawayConfig(
        domain=exh.domain,
        maps=lambda n: Similarity(1.0, float(n)),
        exhaustion=exh,
        family=fam.a_of_nu,
        n_max=HORIZON,
        nu_max=2,
    )
    return fam, cfg


def test_assemble_existence_certifies(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_existence_target

    fam, cfg = translation_setup
    tr = build_carleman_truncation(cfg, bases=0, max_islands=4)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 1, HORIZON) for nu in (1, 2)}
    cand = fit_on_compacts(assemble_existence_target(tr, splits))
    assert cand.status == CandidateStatus.PASS
    assert len(cand.certificates) == len(tr.islands)
    for cert in cand.certificates:
        assert cert.achieved < cert.envelope


def test_assemble_existence_rejects_truncation_with_bases(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_existence_target

    fam, cfg = translation_setup
    tr = build_carleman_truncation(cfg, bases=1, max_islands=2)
    with pytest.raises(ValueError, match="without bases"):
        assemble_existence_target(tr, {})


def test_assemble_spaceable_members_and_basis(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_spaceable_target

    fam, cfg = translation_setup
    tr = build_carleman_truncation(cfg, bases=1, max_islands=4)
    splits = {
        nu: double_split(fam.a_of_nu(nu), l_max=2, p_max=2, horizon=HORIZON)
        for nu in (1, 2)
    }
    members = []
    for mu in (1, 2):
        target = assemble_spaceable_target(mu, tr, splits)
        # base piece carries the monomial, budget 3^-mu
        assert isinstance(target.pieces[0].spec, Monomial)
        assert target.pieces[0].tau == pytest.approx(3.0 ** (-mu))
        members.append(fit_on_compacts(target))
    basis = build_span_basis(members, (1, 2), BasisKind.SPACEABLE)
    assert basis.perturbation_sum < 0.5
    assert basis.gram_lambda_min > 0.2


def test_assemble_spaceable_validations(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_spaceable_target

    fam, cfg = translation_setup
    tr0 = build_carleman_truncation(cfg, bases=0, max_islands=2)
    with pytest.raises(ValueError, match="exactly one base"):
        assemble_spaceable_target(1, tr0, {})
    tr1 = build_carleman_truncation(cfg, bases=1, max_islands=2)
    with pytest.raises(ValueError, match="at least 1"):
        assemble_spaceable_target(0, tr1, {})


def test_assemble_dense_requires_enough_bases(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_dense_target

    fam, cfg = translation_setup
    tr1 = build_carleman_truncation(cfg, bases=1, max_islands=2)
    with pytest.raises(ValueError, match="mu \\+ 1"):
        assemble_dense_target(1, tr1, {})


def test_assemble_dense_member_tracks_its_target(translation_setup):
    from freqdyn.runaway import build_carleman_truncation
    from freqdyn.approx import assemble_dense_target

    fam, cfg = translation_setup
    tr = build_carleman_truncation(cfg, bases=2, max_islands=4)
    splits = {
        nu: double_split(fam.a_of_nu(nu), l_max=2, p_max=2, horizon=HORIZON)
        for nu in (1, 2)
    }
    cand = fit_on_compacts(assemble_dense_target(1, tr, splits))
    assert cand.status == CandidateStatus.PASS
    # criterion: within 1/mu of the (mu + 1)-th enumerated polynomial, the
    # constant 1 for mu = 1, on K_{mu+1}
    grid = sample_grid(tr.bases[1], 6)
    p2 = enumerate_dense_polynomial(2)
    assert p2.coefficients.tolist() == [1.0]
    err = float(np.max(np.abs(cand.evaluate(grid) - p2.evaluate(grid))))
    assert err < 1.0
