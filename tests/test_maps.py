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
    Mobius,
    PairKind,
    ParabolicDisc,
    RootMap,
    RootShift,
    Similarity,
    _eval,
    _inv,
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
    families = [
        ("Identity", (Domain.unit_disc(),)),
        ("Similarity", (2.0 - 1.0j, 0.5j)),
        ("HalfPlaneShift", (1.5, 1.0, 3)),
        ("RootShift", (0.5, 1.5, 1, 4)),
        ("DiscAutomorphism", (np.exp(0.4j), 0.3 - 0.5j)),
        ("ParabolicDisc", (2.0, 1.5, 7)),
    ]
    for name, params in families:
        m = _CONSTRUCTORS[name](*params)
        # the record holds the frozen table's 4-tuple
        assert (m.a, m.b, m.c, m.d) == oracle_mobius(name, params)
        assert np.allclose(oracle_eval(name, params, z), _eval(m, z), rtol=1e-13, atol=1e-13)
        assert inverse_degree(m) == (1 if m.c == 0 else None)
    m = ParabolicDisc(0.5, 2.0, 3)
    assert m.a * m.d - m.b * m.c == 4.0
    # a root and the conjugated maps are no records; a parabolic iterate
    # is the record of the summed shift, up to a power of two
    assert isinstance(RootShift(0.5, 1.5, 2, 4), RootMap)
    pair = ConformalPair(PairKind.CAYLEY_DISC_TO_HALF_PLANE).reversed()
    assert not isinstance(Conjugated(pair, HalfPlaneShift(1.0, 1.0, 1)), Mobius)
    square, twice = iterate(ParabolicDisc(1.0, 1.0, 1), 2), ParabolicDisc(1.0, 1.0, 2)
    ratios = {x / y for x, y in zip((square.a, square.b, square.c, square.d),
                                    (twice.a, twice.b, twice.c, twice.d))}
    assert ratios == {0.25}


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
    s, r = 2.0 * 1000.0 ** 2, disc.radius
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
    # the powers-of-two schedule maps n = 2^p to the p-th iterate, one
    # matrix power and one disc
    discs = (ClosedDisc(0.0, 0.5), ClosedDisc(0.3 - 0.4j, 0.2), unit_disc_exhaustion().member(5))
    for k in discs:
        for a in (0.5, 1.0, 2.0):
            for p in range(1, 12):
                assert _reach(iterate(ParabolicDisc(a, 1.0, 1), p), k, 4_000) <= 1.0


def test_iterated_image_disc_is_one_call(monkeypatch):
    from freqdyn import maps

    calls = []

    def counted(*args):
        calls.append(args)
        return image_enclosing_disc(*args)

    monkeypatch.setattr(maps, "image_enclosing_disc", counted)
    m = Iterated(RootShift(0.0, 1.0, 2, 1), 6)
    maps.image_enclosing_disc(m, AnnularSector(0.5, 2.0, 1.0))
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
    root = RootShift(0.0, 1.0, 2, 3)
    assert iterate(iterate(root, 2), 3) == Iterated(root, 6)
    m = Similarity(a=0.5 + 0.5j, b=1.0 + 0.0j)
    it = iterate(iterate(m, 2), 3)
    assert isinstance(it, Mobius) and it == iterate(m, 6)
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
    # every row also holds the computed pole of the parabolic map
    row = np.array(z + [1.0 - 2.0j / (a * float(n) ** gamma)], dtype=complex)
    records = (
        ParabolicDisc(a, gamma, n),
        Similarity(2.0 - 1.0j, 0.5j),
        DiscAutomorphism(np.exp(0.4j), 0.3 - 0.5j),
        Identity(Domain.unit_disc()),
    )
    for m in records:
        out = np.empty_like(row)
        with np.errstate(all="ignore"):
            want = _eval(m, row)
            _stepper(m, row.size)(row, out)
        assert _same_bits(out, want), m


# ---------------------------------------------------------------------------
# Oracles: each family's evaluation and inverse formulas, its 4-tuple and
# the scalar image-disc rule, frozen as they stood before every Moebius
# map became one Mobius record.  A family is named by its constructor and
# given by that constructor's parameters.

_CONSTRUCTORS = {
    "Identity": Identity,
    "Similarity": Similarity,
    "DiscAutomorphism": DiscAutomorphism,
    "ParabolicDisc": ParabolicDisc,
    "HalfPlaneShift": HalfPlaneShift,
    "RootShift": RootShift,
}


def _oracle_shift(a, gamma, n):
    return a * float(n) ** gamma


def oracle_eval(name, params, z):
    """The former per-class evaluation formula."""
    if name == "Identity":
        return z
    if name == "Similarity":
        a, b = params
        return a * z + b
    if name == "DiscAutomorphism":
        k, a = params
        return k * (z - a) / (1.0 - np.conj(a) * z)
    if name == "ParabolicDisc":
        t = z - 1.0
        return 1.0 + 2.0 * t / (2.0 - 1j * _oracle_shift(*params) * t)
    if name == "HalfPlaneShift":
        return z + 1j * _oracle_shift(*params)
    alpha, beta, _, n = params  # RootShift with root_n = 1
    return float(n) ** alpha * z + float(n) ** beta


def oracle_inverse(name, params, w):
    """The former per-class inverse formula."""
    if name == "Identity":
        return w
    if name == "Similarity":
        a, b = params
        return (w - b) / a
    if name == "DiscAutomorphism":
        k, a = params
        return (w + k * a) / (k + np.conj(a) * w)
    if name == "ParabolicDisc":
        t = w - 1.0
        return 1.0 + 2.0 * t / (2.0 + 1j * _oracle_shift(*params) * t)
    if name == "HalfPlaneShift":
        return w - 1j * _oracle_shift(*params)
    alpha, beta, _, n = params
    return (w - float(n) ** beta) / float(n) ** alpha


def oracle_mobius(name, params):
    """The former 4-tuple table: (a, b, c, d), c = 0 for an affine map."""
    if name == "Identity":
        return (1.0 + 0.0j, 0.0 + 0.0j, 0.0, 1.0)
    if name == "Similarity":
        return (complex(params[0]), complex(params[1]), 0.0, 1.0)
    if name == "HalfPlaneShift":
        return (1.0 + 0.0j, 1j * _oracle_shift(*params), 0.0, 1.0)
    if name == "RootShift":
        alpha, beta, _, n = params
        return (complex(float(n) ** alpha), complex(float(n) ** beta), 0.0, 1.0)
    if name == "DiscAutomorphism":
        k, a = complex(params[0]), complex(params[1])
        return (k, -k * a, -a.conjugate(), 1.0)
    s = _oracle_shift(*params)
    return (2.0 - 1j * s, 1j * s, -1j * s, 2.0 + 1j * s)


def oracle_image_disc(mob, enc):
    """The former scalar image-disc rule for a 4-tuple (a, b, c, d)."""
    z0, r = enc.center, enc.radius
    if mob[2] == 0:
        return ClosedDisc(mob[0] * z0 + mob[1], abs(mob[0]) * r)
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
    return ClosedDisc(centre, radius + 16.0 * _U * slack / den)


_moderate = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_shift_params = st.tuples(st.floats(1e-3, 10.0), st.floats(1.0, 2.0), st.integers(1, 30))
# parameters per family: affine maps on points of their domain of any
# moderate size, non-affine maps on the disc |z| <= 0.9 with their poles
# at least 0.1 beyond it (|a| <= 0.9; shifts up to 9000)
_FAMILIES = st.one_of(
    st.tuples(st.just("Identity"), st.just((Domain.whole_plane(),))),
    st.tuples(st.just("Similarity"), st.tuples(_moderate.filter(lambda a: abs(a) > 1e-3), _moderate)),
    st.tuples(st.just("HalfPlaneShift"), _shift_params),
    st.tuples(st.just("RootShift"), st.tuples(st.floats(-2.0, 1.0), st.just(2.0), st.just(1),
                                              st.integers(1, 1000))),
    st.tuples(st.just("DiscAutomorphism"), st.tuples(
        st.floats(-math.pi, math.pi).map(lambda t: complex(np.exp(1j * t))),
        st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))),
    st.tuples(st.just("ParabolicDisc"), _shift_params),
)


def _points(name, zs):
    """zs moved into the family's domain: Re z >= 1 for a half-plane or
    root shift, the disc |z| <= 0.9 for a non-affine map."""
    z = np.array(zs, dtype=complex)
    if name in ("HalfPlaneShift", "RootShift"):
        return 1.0 + np.abs(z.real) + 1j * z.imag
    if name in ("DiscAutomorphism", "ParabolicDisc"):
        return 0.9 * z / (1.0 + np.abs(z))
    return z


# Non-affine records round z -> (a z + b)/(c z + d) where the former
# formulas rounded 1 + 2t/(2 - i s t) or k (z - a)/(1 - conj(a) z); on
# |z| <= 0.9 with the pole 0.1 away the two differ by a few units of
# u (1 + s) relative to 1 + |value|, s the shift (0 for an automorphism).
# The parabolic inverse has derivative of order s^2 near the fixed point
# 1, so there the two inverse formulas differ by a few u (1 + s)^2.
_NON_AFFINE_TOL = 64 * _U


def _scale(name, params):
    return 1.0 + (_oracle_shift(*params) if name == "ParabolicDisc" else 0.0)


@settings(max_examples=300, deadline=None)
@given(family=_FAMILIES, zs=st.lists(_moderate, min_size=1, max_size=8))
def test_every_constructor_matches_its_oracle(family, zs):
    name, params = family
    m = _CONSTRUCTORS[name](*params)
    assert (m.a, m.b, m.c, m.d) == oracle_mobius(name, params)
    z = _points(name, zs)
    got, want = _eval(m, z), oracle_eval(name, params, z)
    inv, inv_want = _inv(m, want), oracle_inverse(name, params, want)
    enc = ClosedDisc(complex(z[0]) / 2.0, 0.4 if m.c != 0 else 3.0)
    disc, disc_want = image_enclosing_disc(m, enc), oracle_image_disc(oracle_mobius(name, params), enc)
    if m.c == 0:
        # equal as numbers: the identity's a z + b may flip a zero's sign
        assert np.array_equal(got, want)
        assert np.array_equal(inv, inv_want)
        assert disc == disc_want
        return
    tol = _NON_AFFINE_TOL * _scale(name, params)
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))
    assert np.all(np.abs(inv - inv_want) <= tol * _scale(name, params) * (1.0 + np.abs(inv_want)))
    # the disc rules differ only where a square is a product rather than
    # Python's ** 2, by an ulp of |q|^2 or |c|^2
    size = abs(disc_want.center) + disc_want.radius
    assert abs(disc.center - disc_want.center) <= 64 * _U * size
    assert abs(disc.radius - disc_want.radius) <= 64 * _U * size


@settings(max_examples=200, deadline=None)
@given(family=_FAMILIES, p=st.integers(1, 12), zs=st.lists(_moderate, min_size=1, max_size=4))
def test_matrix_power_matches_repeated_apply(family, p, zs):
    name, params = family
    if name == "Similarity":  # keep |a|^p moderate
        a, b = params
        params = (a / abs(a) * min(max(abs(a), 0.5), 1.5), b)
    m = _CONSTRUCTORS[name](*params)
    z = _points(name, zs)
    want = z
    for _ in range(p):
        want = apply(m, want)
    got = apply(iterate(m, p), z)
    tol = 4 * p * _NON_AFFINE_TOL * _scale(name, params)
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(z) + np.abs(want)))


@given(b=st.integers(-1000, 1000).filter(bool), p=st.integers(1, 2 ** 20))
def test_matrix_power_of_an_integer_translation_is_exact(b, p):
    assert iterate(Similarity(1.0, b), p) == Similarity(1.0, p * b)


@pytest.mark.filterwarnings("error")
def test_overflowed_power_has_no_disc():
    # (1.5)^2000 overflows: the record's values leave every domain, and
    # its disc raises OverflowError, as the former closed form a ** p did
    m = iterate(Similarity(1.5, 0.0), 2000)
    assert not maps_into(m, Domain.whole_plane(), ClosedDisc(0.0, 0.5))
    with pytest.raises(OverflowError):
        image_enclosing_disc(m, ClosedDisc(0.0, 0.5))


def test_mobius_record_validation():
    with pytest.raises(ValueError, match="ad - bc"):
        Mobius(1.0, 2.0, 2.0, 4.0, Domain.whole_plane())
    with pytest.raises(ValueError, match="ad - bc"):
        Mobius(0.0, 1.0, 0.0, 1.0, Domain.whole_plane())
    with pytest.raises(ValueError, match="needs d = 1"):
        Mobius(1.0, 0.0, 0.0, 2.0, Domain.whole_plane())
    with pytest.raises(ValueError, match="matrix power"):
        Iterated(Similarity(1.0, 1.0), 2)
    # ad - bc = 4 cancels to 0 in floats at shift 1e9, and to NaN at 1e200
    for s in (1e9, 1e200):
        m = ParabolicDisc(s, 1.0, 1)
        assert m.a * m.d - m.b * m.c != 4.0
