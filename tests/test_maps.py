"""Tests for the holomorphic map families and conformal transport."""

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
    sample_grid,
    sector_exhaustion,
    unit_disc_exhaustion,
)
from freqdyn.maps import (
    ConformalPair,
    Conjugated,
    DiscAutomorphism,
    HalfPlaneShift,
    Identity,
    Iterated,
    PairKind,
    ParabolicDisc,
    RootShift,
    Similarity,
    _eval,
    _mobius,
    _stepper,
    apply,
    image_enclosing_disc,
    inverse_degree,
    iterate,
    map_domain,
    maps_into,
    raw_inverse,
)

disc_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


def slit_points():
    # Points of the slit plane a safe distance from the cut.
    return st.builds(
        lambda r, t: r * np.exp(1j * t),
        st.floats(0.1, 50.0),
        st.floats(-3.0, 3.0),
    )


def test_root_shift_known_value():
    m = RootShift(alpha=0.0, beta=1.0, root_n=1, n=5)
    assert apply(m, 2.0 + 0.0j) == pytest.approx(7.0 + 0.0j)


def test_parabolic_disc_known_value():
    # Hand evaluation: 1 + 2(0-1)/(2 - 2i(0-1)) = 1 - 2/(2+2i) = (1+i)/2.
    m = ParabolicDisc(a=1.0, gamma=1.0, n=2)
    assert apply(m, 0.0 + 0.0j) == pytest.approx(0.5 + 0.5j, abs=1e-15)


def test_parabolic_fixed_point_and_contraction():
    for n in (1, 2, 7):
        m = ParabolicDisc(a=1.0, gamma=1.5, n=n)
        assert apply(m, 1.0 + 0.0j) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        grid = sample_grid(ClosedDisc(0.0 + 0.0j, 0.95), 3)
        assert np.all(np.abs(apply(m, grid)) < 1.0)


def test_apply_rejects_slit_points():
    m = RootShift(alpha=0.5, beta=1.5, root_n=2, n=3)
    with pytest.raises(DomainError):
        apply(m, -1.0 + 0.0j)
    with pytest.raises(DomainError):
        apply(m, -2.0 + 1e-12j)  # within the guard distance of the cut


def test_similarity_inverse_known_value():
    m = Similarity(a=2.0 + 0.0j, b=1.0 + 0.0j)
    assert raw_inverse(m, 5.0 + 0.0j) == pytest.approx(2.0 + 0.0j)
    assert apply(m, raw_inverse(m, 5.0 + 0.0j)) == pytest.approx(5.0 + 0.0j)


def test_root_shift_inverse_known_value():
    m = RootShift(alpha=0.0, beta=1.0, root_n=2, n=3)
    assert raw_inverse(m, 4.0 + 0.0j) == pytest.approx(1.0 + 0.0j)
    assert apply(m, raw_inverse(m, 4.0 + 0.0j)) == pytest.approx(4.0 + 0.0j)


@given(disc_points)
@settings(max_examples=150)
def test_disc_automorphism_round_trip(z):
    m = DiscAutomorphism(k=np.exp(0.7j), a=0.3 - 0.2j)
    w = apply(m, z)
    assert abs(w) < 1.0 + 1e-12
    assert raw_inverse(m, w) == pytest.approx(z, abs=1e-10)


@given(disc_points)
@settings(max_examples=100)
def test_parabolic_round_trip(z):
    m = ParabolicDisc(a=0.5, gamma=2.0, n=3)
    assert raw_inverse(m, apply(m, z)) == pytest.approx(z, abs=1e-10)


@given(slit_points())
@settings(max_examples=150)
def test_root_shift_round_trip(z):
    m = RootShift(alpha=0.5, beta=1.5, root_n=3, n=4)
    w = apply(m, z)
    assert raw_inverse(m, w) == pytest.approx(z, rel=1e-8, abs=1e-8)


def test_half_plane_shift_round_trip():
    m = HalfPlaneShift(a=2.0, gamma=1.0, n=6)
    for z in (1.0 + 0.0j, 0.01 + 40.0j, 9.0 - 3.0j):
        assert raw_inverse(m, apply(m, z)) == pytest.approx(z, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        Similarity(a=0.0 + 0.0j, b=1.0)
    with pytest.raises(ValueError):
        DiscAutomorphism(k=2.0 + 0.0j, a=0.0 + 0.0j)
    with pytest.raises(ValueError):
        DiscAutomorphism(k=1.0 + 0.0j, a=1.0 + 0.0j)
    with pytest.raises(ValueError):
        RootShift(alpha=1.0, beta=1.5, root_n=1, n=2)
    with pytest.raises(ValueError):
        HalfPlaneShift(a=-1.0, gamma=1.0, n=1)
    with pytest.raises(ValueError):
        Iterated(Identity(), 0)


# ---------------------------------------------------------------------------
# Conjugation


def test_cayley_conjugated_shift_equals_parabolic():
    # The vertical translation on Re z > 0, read through the Cayley map,
    # is exactly the parabolic disc map with the same parameters.
    for n in (1, 2, 5):
        shift = HalfPlaneShift(a=1.0, gamma=1.0, n=n)
        conj = Conjugated(
            ConformalPair(PairKind.CAYLEY_DISC_TO_HALF_PLANE).reversed(), shift
        )
        assert map_domain(conj) == Domain.unit_disc()
        para = ParabolicDisc(a=1.0, gamma=1.0, n=n)
        grid = sample_grid(ClosedDisc(0.0 + 0.0j, 0.9), 4)
        diff = np.abs(apply(conj, grid) - apply(para, grid))
        assert np.max(diff) < 1e-10


def test_slit_to_disc_conjugation_closed_form():
    # Phi_n = f o phi_n o f^{-1} with f the slit-to-disc map; compare the
    # composite against the directly expanded formula.
    alpha, beta, root_n, n = 0.5, 1.5, 2, 4
    shift = RootShift(alpha=alpha, beta=beta, root_n=root_n, n=n)
    pair = ConformalPair(PairKind.SLIT_TO_DISC)
    assert pair.source == map_domain(shift)
    conj = Conjugated(pair, shift)
    assert map_domain(conj) == Domain.unit_disc()
    grid = sample_grid(ClosedDisc(0.0 + 0.0j, 0.6), 3)
    u = float(n) ** alpha * ((1.0 + grid) / (1.0 - grid)) ** (2.0 / root_n) + float(n) ** beta
    s = np.sqrt(u)
    direct = (s - 1.0) / (s + 1.0)
    assert np.max(np.abs(apply(conj, grid) - direct)) < 1e-10
    assert np.all(np.abs(apply(conj, grid)) < 1.0)


def test_conjugated_round_trip():
    shift = HalfPlaneShift(a=1.0, gamma=1.0, n=3)
    conj = Conjugated(ConformalPair(PairKind.CAYLEY_DISC_TO_HALF_PLANE).reversed(), shift)
    for z in (0.0 + 0.0j, 0.4 - 0.3j, -0.7 + 0.1j):
        assert raw_inverse(conj, apply(conj, z)) == pytest.approx(z, abs=1e-10)


# ---------------------------------------------------------------------------
# Image bounds, maps_into, iteration


def test_similarity_image_disc_exact():
    m = Similarity(a=2.0 + 0.0j, b=1.0j)
    disc = image_enclosing_disc(m, ClosedDisc(1.0 + 0.0j, 1.0))
    assert disc.center == pytest.approx(2.0 + 1.0j)
    assert disc.radius == pytest.approx(2.0)


def test_root_shift_image_disc_analytic():
    # K_nu from the sector exhaustion sits in |z| <= R_nu, so the image
    # bound is the disc of radius n^alpha R_nu^(1/N) about n^beta.
    exh = sector_exhaustion(0.25, 0.0, 1.0, 1)
    for nu in (1, 2, 5):
        m = RootShift(alpha=0.0, beta=1.0, root_n=1, n=9)
        bound = image_enclosing_disc(m, exh.member(nu))
        assert bound.center == pytest.approx(9.0 + 0.0j)
        assert bound.radius == pytest.approx(nu / 4.0)


def test_automorphism_image_disc_contains_finer_grid():
    m = DiscAutomorphism(k=np.exp(0.3j), a=0.4 + 0.1j)
    src = ClosedDisc(0.1 + 0.2j, 0.5)
    bound = image_enclosing_disc(m, src)
    fine = apply(m, sample_grid(src, 12))
    assert np.max(np.abs(fine - bound.center)) <= bound.radius


def test_parabolic_image_disc_contains_finer_grid():
    m = ParabolicDisc(a=1.0, gamma=1.0, n=4)
    src = ClosedDisc(0.0 + 0.0j, 0.5)
    bound = image_enclosing_disc(m, src)
    fine = apply(m, sample_grid(src, 12))
    assert np.max(np.abs(fine - bound.center)) <= bound.radius


# Unit roundoff of a float.
_U = 2.0 ** -53


def _boundary_inside(disc, count):
    """count points of the disc's boundary circle, pulled in by a few ulps
    so that each lies in the disc: 0.8 e^{it} alone rounds to moduli up
    to 0.8000000000000003, and an image may then leave the exact image
    disc legitimately."""
    theta = 2.0 * np.pi * np.arange(count) / count
    pts = disc.center + disc.radius * (1.0 - 8.0 * _U) * np.exp(1j * theta)
    assert np.all(np.abs(pts - disc.center) <= disc.radius)
    return pts


def _reach(m, disc, count):
    """The largest distance from the image disc's centre to the image of
    the boundary of disc, as a fraction of its radius; a Moebius map with
    its pole off the disc takes its largest value there."""
    bound = image_enclosing_disc(m, disc)
    images = apply(m, _boundary_inside(disc, count))
    return float(np.max(np.abs(images - bound.center))) / bound.radius


def test_mobius_table_matches_eval():
    z = sample_grid(ClosedDisc(0.1 - 0.2j, 0.6), 3)
    maps = [
        Identity(Domain.unit_disc()),
        Similarity(2.0 - 1.0j, 0.5j),
        HalfPlaneShift(1.5, 1.0, 3),
        RootShift(0.5, 1.5, 1, 4),
        DiscAutomorphism(np.exp(0.4j), 0.3 - 0.5j),
        ParabolicDisc(2.0, 1.5, 7),
        Iterated(Similarity(0.5 + 0.5j, 1.0), 5),
        Iterated(Similarity(1.0, 2.0j), 3),
    ]
    for m in maps:
        a, b, c, d = _mobius(m)
        assert np.allclose((a * z + b) / (c * z + d), _eval(m, z), rtol=1e-13, atol=1e-13)
        assert inverse_degree(m) == (1 if c == 0 else None)
    a, b, c, d = _mobius(ParabolicDisc(0.5, 2.0, 3))
    assert a * d - b * c == 4.0
    # a root, the conjugated maps and a non-affine iterate have no 4-tuple
    assert _mobius(RootShift(0.5, 1.5, 2, 4)) is None
    assert _mobius(Iterated(ParabolicDisc(1.0, 1.0, 1), 2)) is None
    pair = ConformalPair(PairKind.CAYLEY_DISC_TO_HALF_PLANE).reversed()
    assert _mobius(Conjugated(pair, HalfPlaneShift(1.0, 1.0, 1))) is None


def test_parabolic_image_disc_worst_sampled_case():
    # the worst miss of the sampled hull this rule replaces: 1.135 radii
    disc = unit_disc_exhaustion().member(5)
    assert _reach(ParabolicDisc(2.0, 1.0, 8), disc, 200_000) <= 1.0


def test_parabolic_image_discs_contain_boundary_images():
    exh = unit_disc_exhaustion()
    worst = 0.0
    for nu in range(1, 6):
        for n in (1, 2, 3, 5, 8, 13, 21, 50, 100, 1000):
            for a in (0.5, 1.0, 2.0):
                for gamma in (1.0, 1.5, 2.0):
                    m = ParabolicDisc(a, gamma, n)
                    worst = max(worst, _reach(m, exh.member(nu), 20_000))
    assert worst <= 1.0


def test_parabolic_image_disc_at_shift_two_million():
    # s = 2e6: a radius near 1.2e-12 about a centre near 1, so the pad
    # must scale with the centre, and it must not swamp the radius
    disc = unit_disc_exhaustion().member(2)
    m = ParabolicDisc(2.0, 2.0, 1000)
    s, r = m.shift, disc.radius
    exact = 4.0 * r / (4.0 + s * s * (1.0 - r * r))
    bound = image_enclosing_disc(m, disc)
    assert exact <= bound.radius <= 1.05 * exact
    assert _reach(m, disc, 20_000) <= 1.0


def test_parabolic_image_disc_when_the_squared_shift_overflows():
    # s^2 = 1e400 is no float; the rule rescales the 4-tuple exactly
    disc = unit_disc_exhaustion().member(2)
    m = ParabolicDisc(1e200, 1.0, 1)
    bound = image_enclosing_disc(m, disc)
    assert bound.radius < 1e-13
    assert _reach(m, disc, 2_000) <= 1.0


def test_iterated_parabolic_image_discs_contain_boundary_images():
    # the powers-of-two schedule maps n = 2^p to the p-th iterate
    discs = (ClosedDisc(0.0, 0.5), ClosedDisc(0.3 - 0.4j, 0.2), unit_disc_exhaustion().member(5))
    for k in discs:
        for a in (0.5, 1.0, 2.0):
            for p in range(1, 12):
                assert _reach(Iterated(ParabolicDisc(a, 1.0, 1), p), k, 4_000) <= 1.0


def test_iterated_image_disc_is_one_call(monkeypatch):
    from freqdyn import maps

    calls = []

    def counted(*args):
        calls.append(args)
        return image_enclosing_disc(*args)

    monkeypatch.setattr(maps, "image_enclosing_disc", counted)
    m = Iterated(ParabolicDisc(1.0, 1.0, 1), 6)
    maps.image_enclosing_disc(m, ClosedDisc(0.0, 0.5))
    assert len(calls) == 1


def test_image_disc_refuses_maps_without_closed_form():
    conj = Conjugated(ConformalPair(PairKind.SLIT_TO_DISC), RootShift(0.5, 1.5, 2, 4))
    with pytest.raises(ValueError, match="no closed-form image disc for Conjugated"):
        image_enclosing_disc(conj, ClosedDisc(0.0, 0.5))
    with pytest.raises(ValueError, match="no closed-form image disc"):
        image_enclosing_disc(Iterated(conj, 2), ClosedDisc(0.0, 0.5))
    # the pole 1/conj(a) = 2 lies on the disc |z| <= 3
    with pytest.raises(ValueError, match="pole"):
        image_enclosing_disc(DiscAutomorphism(1.0, 0.5), ClosedDisc(0.0, 3.0))


def test_maps_into():
    exh = sector_exhaustion(0.25, 0.0, 1.0, 1)
    m = RootShift(alpha=0.0, beta=1.0, root_n=1, n=7)
    assert maps_into(m, Domain.slit_plane(), exh.member(5))
    assert maps_into(Identity(Domain.unit_disc()), Domain.unit_disc(), ClosedDisc(0j, 0.5))
    # a translation pushes the big sector across the slit of the *left*
    # half plane mirror, so mapping into the unit disc must fail
    assert not maps_into(m, Domain.unit_disc(), exh.member(5))


def test_every_family_self_maps():
    cases = [
        (Similarity(a=1.0 + 1.0j, b=2.0), ClosedDisc(0.0 + 0.0j, 3.0)),
        (DiscAutomorphism(k=1.0 + 0.0j, a=0.2 + 0.0j), ClosedDisc(0.0 + 0.0j, 0.8)),
        (ParabolicDisc(a=2.0, gamma=1.0, n=3), ClosedDisc(0.0 + 0.0j, 0.8)),
        (RootShift(alpha=0.5, beta=1.5, root_n=2, n=3), AnnularSector(0.5, 2.0, 2.0)),
        (HalfPlaneShift(a=1.0, gamma=2.0, n=2), ClosedDisc(5.0 + 0.0j, 2.0)),
    ]
    for m, compact in cases:
        assert maps_into(m, map_domain(m), compact), type(m).__name__


def test_iterate_power_one_pointwise_equal():
    m = ParabolicDisc(a=1.0, gamma=1.0, n=2)
    it = iterate(m, 1)
    grid = sample_grid(ClosedDisc(0.0 + 0.0j, 0.7), 3)
    assert np.allclose(apply(it, grid), apply(m, grid))


def test_iterate_flattens_and_matches_loop():
    m = Similarity(a=0.5 + 0.5j, b=1.0 + 0.0j)
    it = iterate(iterate(m, 2), 3)
    assert isinstance(it, Iterated) and it.power == 6
    z = 0.3 - 0.8j
    expected = z
    for _ in range(6):
        expected = apply(m, expected)
    assert apply(it, z) == pytest.approx(expected)


def test_iterated_similarity_image_disc_closed_form():
    m = Similarity(a=2.0 + 0.0j, b=1.0 + 0.0j)
    it = iterate(m, 3)
    bound = image_enclosing_disc(it, ClosedDisc(0.0 + 0.0j, 1.0))
    # a^3 = 8, b (a^2 + a + 1) = 7
    assert bound.center == pytest.approx(7.0 + 0.0j)
    assert bound.radius == pytest.approx(8.0)


def test_conjugated_inner_domain_mismatch():
    shift = HalfPlaneShift(1.0, 1.0, 1)
    # both sources differ from the half plane the shift acts on
    for kind in (PairKind.SLIT_TO_DISC, PairKind.CAYLEY_DISC_TO_HALF_PLANE):
        with pytest.raises(ValueError, match="domain must equal"):
            Conjugated(ConformalPair(kind), shift)


def _same_bits(x, y):
    """Bitwise equality of complex rows, a NaN matching any NaN."""
    x, y = x.view(np.float64), y.view(np.float64)
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.uint64), y[~nan].view(np.uint64)
    )


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(1e-6, 1e306),
    gamma=st.floats(1.0, 3.0),
    n=st.integers(1, 10**6),
    z=st.lists(st.complex_numbers(), max_size=40),
)
# s = 2 puts the pole 2 - i s (z - 1) = 0 exactly at z = 1 - i
@example(a=2.0, gamma=1.0, n=1, z=[1.0 - 1.0j, 0.5 + 0.0j])
# a shift just below overflow, and one that overflows to infinity
@example(a=1.7e308, gamma=1.0, n=1, z=[0.5j, -0.0 + 1.0j])
@example(a=1e306, gamma=3.0, n=10**6, z=[0.5j, complex("nan+1j")])
def test_parabolic_stepper_matches_eval_bitwise(a, gamma, n, z):
    m = ParabolicDisc(a, gamma, n)
    # every row also holds the computed pole
    row = np.array(z + [1.0 - 2.0j / m.shift], dtype=complex)
    out = np.empty_like(row)
    with np.errstate(all="ignore"):
        want = _eval(m, row)
        _stepper(m, row.size)(row, out)
    assert _same_bits(out, want)
