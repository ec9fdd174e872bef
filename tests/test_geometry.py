"""Tests for domains, compacts, the chordal metric, and exhaustions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqdyn.geometry import (
    AnnularSector,
    ClosedDisc,
    Domain,
    DomainError,
    Exhaustion,
    _sorted_unique,
    chordal_distance,
    clear_of,
    disjointness,
    distance_to_slit,
    enclosing_disc,
    eps_to_boundary,
    lies_in,
    min_envelope,
    right_half_plane_exhaustion,
    sample_grid,
    sector_exhaustion,
    unit_disc_exhaustion,
    whole_plane_exhaustion,
)

INF = complex(math.inf, 0.0)

finite_points = st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def chordal_oracle(z: complex, w: complex) -> float:
    """Straight transcription of the chordal formula, scalars only."""
    zi = math.isinf(z.real) or math.isinf(z.imag)
    wi = math.isinf(w.real) or math.isinf(w.imag)
    if zi and wi:
        return 0.0
    if zi:
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    if wi:
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def test_chordal_known_values():
    assert chordal_distance(0.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert chordal_distance(0.0, INF) == pytest.approx(2.0, abs=1e-15)
    assert chordal_distance(INF, INF) == 0.0
    assert chordal_distance(1.0, 1.0) == 0.0


@given(finite_points, finite_points)
@settings(max_examples=200)
def test_chordal_matches_oracle_and_symmetry(z, w):
    d = chordal_distance(z, w)
    assert d == pytest.approx(chordal_oracle(z, w), rel=1e-12, abs=1e-15)
    assert d == chordal_distance(w, z)
    assert 0.0 <= d <= 2.0 + 1e-12


@given(finite_points, finite_points, finite_points)
@settings(max_examples=300)
def test_chordal_triangle_inequality(a, b, c):
    assert chordal_distance(a, c) <= (
        chordal_distance(a, b) + chordal_distance(b, c) + 1e-12
    )


@given(finite_points)
@settings(max_examples=100)
def test_chordal_triangle_through_infinity(a):
    b = complex(a.real + 1.0, a.imag)
    assert chordal_distance(a, b) <= (
        chordal_distance(a, INF) + chordal_distance(INF, b) + 1e-12
    )


def test_chordal_vectorized():
    z = np.array([0.0, 1.0, 2.0j])
    d = chordal_distance(z, 0.0)
    assert d.shape == (3,)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(math.sqrt(2.0))


def test_distance_to_slit():
    assert distance_to_slit(1.0 + 0.0j) == 1.0
    assert distance_to_slit(-3.0 + 2.0j) == 2.0
    assert distance_to_slit(-5.0 + 0.0j) == 0.0
    assert distance_to_slit(2.0 + 1.0j) == pytest.approx(math.sqrt(5.0))


def test_eps_whole_plane_closed_form():
    dom = Domain.whole_plane()
    assert eps_to_boundary(dom, 0.0) == pytest.approx(2.0, abs=1e-15)
    vals = [eps_to_boundary(dom, float(n)) for n in range(1, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:])), "must decay with |z|"
    assert eps_to_boundary(dom, 3.0) == pytest.approx(2.0 / math.sqrt(10.0))


def test_eps_slit_plane_at_one():
    # Oracle: brute-force minimum over an independent uniform discretization
    # of the slit plus the infinity term.  At z = 1 both the tip t = 0 and
    # infinity realize chi = sqrt(2).
    ts = -np.linspace(0.0, 50.0, 400_001)
    brute = min(
        float(np.min(chordal_distance(1.0 + 0.0j, ts.astype(complex)))),
        2.0 / math.sqrt(2.0),
    )
    assert brute == pytest.approx(math.sqrt(2.0), abs=1e-9)
    val = eps_to_boundary(Domain.slit_plane(), 1.0 + 0.0j)
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_eps_unit_disc_matches_brute_force():
    dom = Domain.unit_disc()
    rng = np.random.default_rng(7)
    circle = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 20_000, endpoint=False))
    for _ in range(20):
        z = complex(*(rng.uniform(-0.7, 0.7, 2)))
        if abs(z) >= 1.0:
            continue
        brute = float(np.min(chordal_distance(z, circle)))
        assert eps_to_boundary(dom, z) == pytest.approx(brute, abs=1e-7)


def test_eps_right_half_plane_matches_brute_force():
    dom = Domain.right_half_plane()
    axis = 1j * np.concatenate([-np.linspace(0, 200, 100_001), np.linspace(0, 200, 100_001)])
    for z in [1.0 + 0.0j, 0.5 + 3.0j, 10.0 - 2.0j]:
        brute = min(
            float(np.min(chordal_distance(z, axis))),
            2.0 / math.sqrt(1.0 + abs(z) ** 2),
        )
        assert eps_to_boundary(dom, z) == pytest.approx(brute, rel=1e-3)


def _envelope_reference(z: complex, rays) -> float:
    """Chordal distance from z to the rays {d t : t >= 0} plus infinity,
    found without any closed form: the best point of a log grid over t on
    each ray, refined by bounded Brent on the bracket of its neighbours,
    then the minimum with the tip t = 0 and the infinity term."""
    from scipy.optimize import minimize_scalar

    ts = np.logspace(-12.0, 12.0, 24 * 400 + 1)
    best = min(chordal_oracle(z, 0j), chordal_oracle(z, INF))
    for d in rays:
        i = int(np.argmin(chordal_distance(z, d * ts)))
        c = ts[i]
        lo, hi = ts[max(i - 1, 0)] - c, ts[min(i + 1, ts.size - 1)] - c
        best = min(best, chordal_oracle(z, d * c))
        # Brent's tolerance grows with the offset it returns, so each pass
        # re-centres on the last minimiser and shrinks the bracket 10^6-fold.
        for _ in range(3):
            res = minimize_scalar(
                lambda s: chordal_oracle(z, d * (c + s)),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-13 * (hi - lo)},
            )
            best = min(best, float(res.fun))
            c += res.x
            lo, hi = -1e-6 * (hi - lo), 1e-6 * (hi - lo)
    return best


_SLIT_RAYS = (-1.0 + 0j,)
_AXIS_RAYS = (1j, -1j)


def _envelope_cases():
    rng = np.random.default_rng(20260)
    slit = [-1 + 1e-2j, -1 + 1e-4j, -1 + 1e-6j, -37.3 + 1e-3j]
    axis = [1e-2 + 1j, 1e-6 + 3.7j, 1e-3 + 250j]
    for _ in range(40):
        sign = rng.choice([-1.0, 1.0])
        # Re z <= 0 near the slit, and Re z <= 0 near iR, in the slit plane
        slit.append(complex(-(10 ** rng.uniform(-3, 3)), sign * 10 ** rng.uniform(-8, -1)))
        slit.append(complex(-(10 ** rng.uniform(-8, -1)), sign * 10 ** rng.uniform(-3, 3)))
        # Re z > 0 anywhere in the slit plane, and near iR in the half plane
        slit.append(complex(10 ** rng.uniform(-3, 3), sign * 10 ** rng.uniform(-8, 3)))
        axis.append(complex(10 ** rng.uniform(-8, -1), sign * 10 ** rng.uniform(-3, 3)))
    slit += [0.0 + 0.5j, 0.0 - 3.0j]
    return [(Domain.slit_plane(), z, _SLIT_RAYS) for z in slit] + [
        (Domain.right_half_plane(), z, _AXIS_RAYS) for z in axis
    ]


def test_eps_matches_refined_reference_near_the_boundary():
    cases = _envelope_cases()
    for dom, z, rays in cases:
        want = _envelope_reference(z, rays)
        got = eps_to_boundary(dom, z)
        assert got == pytest.approx(want, rel=1e-6, abs=0.0), (dom.kind, z)
    for dom in (Domain.slit_plane(), Domain.right_half_plane()):
        zs = np.array([z for d, z, _ in cases if d == dom])
        want = [eps_to_boundary(dom, z) for z in zs]
        assert np.array_equal(eps_to_boundary(dom, zs), want)


def test_eps_rejects_outside_points():
    with pytest.raises(DomainError):
        eps_to_boundary(Domain.unit_disc(), 2.0 + 0.0j)
    with pytest.raises(DomainError):
        eps_to_boundary(Domain.slit_plane(), -1.0 + 0.0j)
    with pytest.raises(DomainError):
        eps_to_boundary(Domain.right_half_plane(), -0.1 + 1.0j)


# ---------------------------------------------------------------------------
# Least envelope over a compact

FOUR_DOMAINS = [Domain.whole_plane(), Domain.unit_disc(), Domain.right_half_plane(),
                Domain.slit_plane()]


def _seeded_discs(dom: Domain, count: int, seed: int, tangent: bool) -> list:
    """count discs lying in dom: centres over four decades of modulus (inside
    the unit disc for it), radii a uniform fraction of the room the domain
    leaves, or within 10^-12..10^-3 of all of it when tangent."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        mod = rng.uniform(0.0, 0.999) if dom == Domain.unit_disc() else 10.0 ** rng.uniform(-2, 2)
        c = complex(mod * np.exp(1j * rng.uniform(-math.pi, math.pi)))
        room = {
            "whole_plane": 10.0 * mod,
            "unit_disc": 1.0 - mod,
            "right_half_plane": c.real,
            "slit_plane": float(distance_to_slit(c)),
        }[dom.kind.value]
        fraction = 1.0 - 10.0 ** rng.uniform(-12, -3) if tangent else rng.uniform(0.0, 1.0)
        if room > 0.0 and lies_in(dom, disc := ClosedDisc(c, fraction * room)):
            out.append(disc)
    return out


_STEP = 2.0 * math.pi / 4096


def _rim_minimum(dom: Domain, disc: ClosedDisc) -> float:
    """Least eps over 4096 rim points and about each of their local minima,
    zoomed in eight rounds of 65 points across two of the last round's
    spacings.  The 4096 points alone can sit 2 % above the true minimum,
    of a disc nearly touching the slit's tip."""
    rim = lambda t: eps_to_boundary(dom, disc.center + disc.radius * np.exp(1j * t))
    angles = _STEP * np.arange(4096)
    coarse = rim(angles)
    best = float(np.min(coarse))
    for k in np.flatnonzero((coarse <= np.roll(coarse, 1)) & (coarse <= np.roll(coarse, -1))):
        centre, step = angles[k], _STEP
        for _ in range(8):
            ts = centre + step * np.linspace(-1.0, 1.0, 65)
            values = rim(ts)
            centre, step = ts[np.argmin(values)], step / 32.0
            best = min(best, float(np.min(values)))
    return best


@pytest.mark.parametrize("dom", FOUR_DOMAINS, ids=lambda d: d.kind.value)
def test_min_envelope_of_seeded_discs_is_their_rim_minimum(dom):
    # the least envelope lies on the rim: rim points bound it from above
    # and come within 1e-6 of it.  Near tangency the minimum is tiny, and
    # a few ulps of |c| + r, which rounding the rim or |c| costs either
    # side, outweigh 1e-12 of it.
    for disc in _seeded_discs(dom, 500, 7, False) + _seeded_discs(dom, 100, 8, True):
        got, rim = min_envelope(dom, disc), _rim_minimum(dom, disc)
        floor = 2.0 ** -48 * (1.0 + abs(disc.center) + disc.radius)
        assert got <= rim * (1.0 + 1e-12) + floor and rim - got <= 1e-6, disc


def _seeded_sectors(dom: Domain, count: int, seed: int) -> list:
    """count sectors lying in dom, outer radii over three decades (below 1
    for the unit disc), radial segments among them."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        top = 0.999 if dom == Domain.unit_disc() else 10.0 ** rng.uniform(-1, 2)
        rmax = top * rng.uniform(0.01, 1.0)
        sector = AnnularSector(rmax * rng.uniform(0.001, 1.0), rmax,
                               rng.choice([0.0, rng.uniform(0.0, math.pi)]))
        if lies_in(dom, sector):
            out.append(sector)
    return out


@pytest.mark.parametrize("dom", FOUR_DOMAINS, ids=lambda d: d.kind.value)
def test_min_envelope_of_a_sector_is_its_fine_grid_minimum(dom):
    # the corners are grid points, so the rule and a resolution-40 grid
    # agree to rounding: no interior or edge point lies lower
    count = 40 if dom == Domain.slit_plane() else 12
    for sector in _seeded_sectors(dom, count, seed=11):
        got = min_envelope(dom, sector)
        grid = float(np.min(eps_to_boundary(dom, sample_grid(sector, 40))))
        assert abs(got - grid) <= 1e-12 * grid, sector


def test_min_envelope_refuses_empty_and_outside_compacts():
    slit = Domain.slit_plane()
    with pytest.raises(ValueError, match="empty compact") as info:
        min_envelope(slit, AnnularSector(1.0, 0.5, 1.0))
    assert "sampl" not in str(info.value)
    with pytest.raises(DomainError, match="does not lie in slit_plane"):
        min_envelope(slit, ClosedDisc(-1.0 + 0.1j, 0.5))


def test_domain_membership():
    assert Domain.slit_plane().contains(1j)
    assert not Domain.slit_plane().contains(-2.0 + 0.0j)
    assert not Domain.slit_plane().contains(0.0 + 0.0j)
    # z = 0, a slit point with imaginary part -0.0, and a point 1e-300
    # above the slit, at every slack the package passes
    zs = np.array([0.0, complex(-2.0, -0.0), complex(-2.0, 1e-300)])
    for slack in (0.0, 1e-12, 1e-9):
        assert Domain.slit_plane().contains(zs, slack=slack).tolist() == [False, False, True]
    assert Domain.unit_disc().contains(0.5)
    assert not Domain.unit_disc().contains(1.0 + 0.0j)
    assert Domain.unit_disc().contains(1.0 + 0.0j, slack=1e-9)
    assert Domain.right_half_plane().contains(1e-12 + 5j)


# ---------------------------------------------------------------------------
# Compacts and disjointness


def test_disc_disc_disjointness_exact():
    a = ClosedDisc(0.0 + 0.0j, 1.0)
    assert disjointness(a, ClosedDisc(3.0 + 0.0j, 1.0)) is True
    # touching counts as meeting for closed discs
    assert disjointness(a, ClosedDisc(2.0 + 0.0j, 1.0)) is False
    assert disjointness(a, ClosedDisc(1.9999 + 0.0j, 1.0)) is False


def test_sector_k1_vs_far_disc():
    # K_1 of the sector exhaustion with C = 1/4, alpha = 0, beta = 1, N = 1
    # has enclosing disc centred at 0 with radius R_1 = 1/4.
    exh = sector_exhaustion(0.25, 0.0, 1.0, 1)
    k1 = exh.member(1)
    assert isinstance(k1, AnnularSector)
    assert enclosing_disc(k1).radius == pytest.approx(0.25)
    assert disjointness(k1, ClosedDisc(10.0 + 0.0j, 0.25)) is True


def test_sector_disc_overlap_detected():
    sec = AnnularSector(rmin=1.0, rmax=2.0, half_angle=math.pi / 2)
    assert disjointness(sec, ClosedDisc(1.5 + 0.0j, 0.3)) is False


def test_disjointness_symmetry_and_shared_point_rule():
    sec = AnnularSector(rmin=0.5, rmax=1.5, half_angle=math.pi)
    disc = ClosedDisc(1.0 + 0.0j, 0.25)
    assert disjointness(sec, disc) == disjointness(disc, sec)
    # a shared sample point forbids a disjoint verdict
    for a, b in [(sec, disc), (disc, sec)]:
        ga = set(np.round(sample_grid(a, 2), 12))
        gb = set(np.round(sample_grid(b, 2), 12))
        if ga & gb:
            assert not disjointness(a, b)


def test_sample_grid_refinement_supersets():
    sets = [
        ClosedDisc(1.0 + 2.0j, 1.5),
        AnnularSector(rmin=0.5, rmax=2.0, half_angle=2.0),
    ]
    for c in sets:
        for r in (1, 2, 3):
            coarse = set(sample_grid(c, r))
            fine = set(sample_grid(c, r + 1))
            finer = set(sample_grid(c, 2 * r))
            assert coarse <= fine
            assert coarse <= finer


def test_sample_grid_disc_coarsest_contains_centre_and_boundary():
    g = set(sample_grid(ClosedDisc(0.0 + 0.0j, 1.0), 1))
    assert (0.0 + 0.0j) in g
    on_boundary = [z for z in g if abs(abs(z) - 1.0) < 1e-12]
    assert len(on_boundary) >= 8


def test_sample_grid_stays_inside():
    sec = AnnularSector(rmin=0.5, rmax=2.0, half_angle=1.0)
    for z in sample_grid(sec, 3):
        assert sec.rmin - 1e-12 <= abs(z) <= sec.rmax + 1e-12
        assert abs(np.angle(z)) <= sec.half_angle + 1e-12
    disc = ClosedDisc(2.0 - 1.0j, 0.7)
    for z in sample_grid(disc, 3):
        assert abs(z - disc.center) <= disc.radius + 1e-12


def test_empty_sector():
    empty = AnnularSector(rmin=1.0, rmax=0.25, half_angle=0.0)
    assert empty.is_empty
    assert sample_grid(empty, 3).size == 0


def test_annular_sector_validation():
    with pytest.raises(ValueError):
        AnnularSector(rmin=0.0, rmax=1.0, half_angle=1.0)
    with pytest.raises(ValueError):
        AnnularSector(rmin=0.5, rmax=1.0, half_angle=4.0)
    with pytest.raises(ValueError):
        ClosedDisc(0.0 + 0.0j, -1.0)


@pytest.mark.parametrize(
    "center",
    [complex("nan"), complex(math.nan, 0.0), complex(0.0, math.nan), INF,
     complex(0.0, -math.inf), np.complex128(complex("nan"))],
)
def test_closed_disc_rejects_non_finite_center(center):
    with pytest.raises(ValueError, match="center must be finite"):
        ClosedDisc(center, 1.0)


@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 3),
    st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 3),
)
@settings(max_examples=150)
def test_disc_disjointness_agrees_with_geometry(x1, y1, r1, x2, y2, r2):
    a = ClosedDisc(complex(x1, y1), r1)
    b = ClosedDisc(complex(x2, y2), r2)
    assert disjointness(a, b) is (abs(a.center - b.center) > r1 + r2)


discs = st.builds(
    ClosedDisc,
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 5.0),
)
sectors = st.builds(
    AnnularSector,
    st.floats(0.01, 5.0),
    st.floats(0.01, 5.0),
    st.floats(0.0, math.pi),
)


@given(st.one_of(discs, sectors), st.one_of(discs, sectors))
@settings(max_examples=200)
def test_disjointness_is_the_symmetric_enclosing_disc_test(a, b):
    ea, eb = enclosing_disc(a), enclosing_disc(b)
    expected = abs(ea.center - eb.center) > ea.radius + eb.radius
    assert disjointness(a, b) is expected
    assert disjointness(b, a) is expected


def _clear_of_reference(centers, radii, probe):
    return [disjointness(ClosedDisc(c, r), probe) for c, r in zip(centers, radii)]


@pytest.mark.parametrize(
    "probe",
    [ClosedDisc(0.3 - 0.7j, 1.5), ClosedDisc(0.0j, 0.0), AnnularSector(0.5, 2.0, 1.0),
     AnnularSector(1.0, 0.25, 0.5)],
)
def test_clear_of_matches_disjointness_on_random_discs(probe):
    rng = np.random.default_rng(7)
    centers = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * rng.exponential(4.0, 2000)
    radii = rng.exponential(1.0, 2000)
    got = clear_of(centers, radii, probe)
    assert got.dtype == bool
    assert got.tolist() == _clear_of_reference(centers, radii, probe)


def test_clear_of_matches_disjointness_on_touching_discs():
    # radius |c - p| exactly: the discs share one boundary point, and a
    # last-bit difference in |c - p| would call them disjoint
    rng = np.random.default_rng(11)
    p = 0.25 + 0.5j
    centers = p + rng.normal(size=5000) * 1e3 + 1j * rng.normal(size=5000)
    radii = np.array([abs(c - p) for c in centers])
    probe = ClosedDisc(p, 0.0)
    got = clear_of(centers, radii, probe)
    assert not got.any()
    assert got.tolist() == _clear_of_reference(centers, radii, probe)
    touching = clear_of(np.array([3.0 + 4.0j, 3.0 + 4.0j]), np.array([3.0, 2.5]),
                        ClosedDisc(0.0j, 2.0))
    assert touching.tolist() == [False, True]


def test_clear_of_without_discs():
    assert clear_of(np.empty(0, complex), np.empty(0), ClosedDisc(0.0j, 1.0)).size == 0


# ---------------------------------------------------------------------------
# Exhaustions


ALL_EXHAUSTIONS = [
    whole_plane_exhaustion(),
    unit_disc_exhaustion(),
    right_half_plane_exhaustion(),
    sector_exhaustion(0.25, 0.0, 1.0, 1),
]


def _interior_margin(c, z: complex) -> float:
    """Positive when z lies strictly inside c, in plane units."""
    if isinstance(c, ClosedDisc):
        return c.radius - abs(z - c.center)
    if c.is_empty:
        return -math.inf
    r = abs(z)
    margin = min(r - c.rmin, c.rmax - r)
    if c.half_angle < math.pi:
        margin = min(margin, r * (c.half_angle - abs(np.angle(z))))
    return margin


@pytest.mark.parametrize("exh", ALL_EXHAUSTIONS, ids=lambda e: e.domain.kind.value)
def test_exhaustion_nesting(exh: Exhaustion):
    # every sample of K_nu lies strictly inside K_{nu+1}; an empty member
    # has no samples and passes vacuously
    for nu in range(1, 21):
        inner, outer = exh.member(nu), exh.member(nu + 1)
        for z in sample_grid(inner, 2):
            margin = _interior_margin(outer, complex(z))
            assert margin > 0.0, f"nesting violated at {(nu, complex(z))} with margin {margin}"


@pytest.mark.parametrize("exh", ALL_EXHAUSTIONS, ids=lambda e: e.domain.kind.value)
def test_exhaustion_members_inside_domain(exh: Exhaustion):
    for nu in (1, 2, 5, 9):
        for z in sample_grid(exh.member(nu), 2):
            assert exh.domain.contains(complex(z), slack=1e-12)


def test_unit_disc_exhaustion_radii():
    exh = unit_disc_exhaustion()
    for nu in range(1, 6):
        disc = exh.member(nu)
        assert disc.radius == pytest.approx(1.0 - 1.0 / (nu + 1))


def test_sector_exhaustion_small_members_empty():
    # With C = 1/4 the radii are R_nu = nu / 4, so members 1..3 are empty
    # and member 4 degenerates to the unit arc.
    exh = sector_exhaustion(0.25, 0.0, 1.0, 1)
    for nu in (1, 2, 3):
        assert exh.member(nu).is_empty
    k4 = exh.member(4)
    assert not k4.is_empty
    assert k4.rmin == pytest.approx(1.0)
    assert k4.rmax == pytest.approx(1.0)
    k5 = exh.member(5)
    assert k5.rmin == pytest.approx(0.8)
    assert k5.rmax == pytest.approx(1.25)
    assert k5.half_angle == pytest.approx(math.pi * 0.8)


def test_exhaustion_rejects_bad_index():
    with pytest.raises(ValueError):
        whole_plane_exhaustion().member(0)


# ---------------------------------------------------------------------------
# Sorted unique values


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and want.tobytes() == got.tobytes())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**63, 2**63 - 1)), max_size=60))
def test_sorted_unique_matches_numpy_on_integers(values):
    a = np.array(values, dtype=np.int64)
    assert _same_bits(_sorted_unique(a), np.unique(a))


_SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
# long enough that an unstable sort reorders equal values
_MANY_ZEROS = [_SIGNED_ZEROS[i] for i in np.random.default_rng(0).integers(0, 4, 1000)]


@settings(max_examples=200, deadline=None)
@example(_MANY_ZEROS)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_SIGNED_ZEROS + [1.0 + 1.0j, -2.0j, 1.0 - 0.0j]),
            st.complex_numbers(allow_nan=False),
        ),
        max_size=60,
    )
)
def test_sorted_unique_matches_numpy_on_complex_values(values):
    # equal values that differ in the sign of a zero keep their first
    # occurrence, bit for bit, as np.unique keeps it
    a = np.array(values, dtype=complex)
    assert _same_bits(_sorted_unique(a), np.unique(a))
