"""Tests for orbit scanning, span combinations, and iterate convergence."""

import decimal
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqdyn.approx import (
    Polynomial,
    assemble_existence_target,
    assemble_spaceable_target,
    build_span_basis,
    double_split,
    enumerate_dense_polynomial,
    fit_on_compacts,
)
from freqdyn.density import arithmetic_progression, build_separated_family
from freqdyn.geometry import ClosedDisc, Domain, whole_plane_exhaustion
from freqdyn import orbit
from freqdyn.maps import (
    DiscAutomorphism,
    Identity,
    Mobius,
    ParabolicDisc,
    Similarity,
    _image_discs,
    apply,
)
from freqdyn.orbit import (
    GRID_SLACK,
    _Combination,
    combination_scan,
    decreasing_from,
    iterate_bounds,
    iterate_convergence,
    scan,
)
from freqdyn.runaway import RunawayConfig, build_carleman_truncation

from iterate_oracle import blocked_bounds

HORIZON = 2000

EXH = whole_plane_exhaustion()


def _translations(n):
    return Similarity(1.0, float(n))


@pytest.fixture(scope="module")
def existence_setup():
    fam = build_separated_family(3, HORIZON, 8)
    cfg = RunawayConfig(
        domain=EXH.domain, maps=_translations, exhaustion=EXH,
        family=fam.a_of_nu, n_max=HORIZON, nu_max=2,
    )
    tr = build_carleman_truncation(cfg, bases=0, max_islands=4)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 1, HORIZON) for nu in (1, 2)}
    target = assemble_existence_target(tr, splits)
    cand = fit_on_compacts(target)
    delta = 2.0 * max(p.tau for p in target.pieces)
    horizon_scan = max(i.n for i in tr.islands)
    pairs = [
        (nu, l, splits[nu][(l, 1)])
        for nu in (1, 2)
        for l in (1, 2)
        if np.any(splits[nu][(l, 1)].elements <= horizon_scan)
    ]
    return cand, delta, horizon_scan, pairs


@pytest.fixture(scope="module")
def spaceable_setup():
    fam = build_separated_family(3, HORIZON, 8)
    cfg = RunawayConfig(
        domain=EXH.domain, maps=_translations, exhaustion=EXH,
        family=fam.a_of_nu, n_max=HORIZON, nu_max=2,
    )
    tr = build_carleman_truncation(cfg, bases=1, max_islands=6)
    splits = {nu: double_split(fam.a_of_nu(nu), 2, 3, HORIZON) for nu in (1, 2)}
    members, max_tau = [], 0.0
    for mu in (1, 2, 3):
        t = assemble_spaceable_target(mu, tr, splits)
        members.append(fit_on_compacts(t))
        if mu == 1:
            max_tau = max(p.tau for p in t.pieces)
    basis = build_span_basis(members, (1, 2, 3), "spaceable")
    horizon_scan = max(i.n for i in tr.islands)
    pairs = [
        (nu, l, splits[nu][(l, 1)])
        for nu in (1, 2)
        for l in (1, 2)
        if np.any(splits[nu][(l, 1)].elements <= horizon_scan)
    ]
    return basis, 2.0 * max_tau, horizon_scan, pairs


# ---------------------------------------------------------------------------
# scan basics


def _simple_pairs(horizon):
    return [(1, 2, arithmetic_progression(4, 4, horizon))]


def test_scan_rejects_bad_arguments():
    f = Polynomial.zero()
    with pytest.raises(ValueError, match="delta"):
        scan(f, _translations, EXH, enumerate_dense_polynomial, 0.0, 10, _simple_pairs(10))
    with pytest.raises(ValueError, match="horizon"):
        scan(f, _translations, EXH, enumerate_dense_polynomial, 1.0, 0, _simple_pairs(10))
    with pytest.raises(ValueError, match="triple"):
        scan(f, _translations, EXH, enumerate_dense_polynomial, 1.0, 10, [])


def test_scan_zero_candidate_never_hits_nonzero_target():
    # target P_2 = 1 and f = 0 leave a constant error of one
    rep = scan(
        Polynomial.zero(), _translations, EXH, enumerate_dense_polynomial,
        0.5, 60, _simple_pairs(60),
    )
    entry = rep.entries[0]
    assert len(entry.hits) == 0
    assert not entry.passed
    assert np.allclose(entry.errors, 1.0)


def test_scan_huge_delta_hits_everything():
    rep = scan(
        Polynomial.zero(), _translations, EXH, enumerate_dense_polynomial,
        1e6, 60, _simple_pairs(60),
    )
    entry = rep.entries[0]
    assert list(entry.hits) == list(range(1, 61))
    assert entry.hit_rate == 1.0
    assert entry.passed


def test_scan_burn_in_matches_envelope_decay():
    rep = scan(
        Polynomial.zero(), _translations, EXH, enumerate_dense_polynomial,
        0.25, 100, _simple_pairs(100),
    )
    entry = rep.entries[0]
    thresh = 0.25
    over = np.nonzero(entry.eps_sup >= thresh)[0]
    assert entry.burn_in == int(over[-1]) + 1
    # translations decay like 2/n, so the burn-in is where 2/(n-1) ~ 0.25
    assert 5 <= entry.burn_in <= 12


# ---------------------------------------------------------------------------
# scan on the existence pipeline


def test_existence_scan_passes(existence_setup):
    cand, delta, horizon, pairs = existence_setup
    rep = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial, delta, horizon, pairs)
    assert rep.passed
    for entry in rep.entries:
        designed = entry.designed.elements[entry.designed.elements <= horizon]
        tail = designed[designed > entry.burn_in]
        assert all(int(n) in entry.hits for n in tail)
        assert entry.hit_rate > 0.0


def test_scan_is_reproducible(existence_setup):
    cand, delta, horizon, pairs = existence_setup
    a = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial, delta, horizon, pairs)
    b = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial, delta, horizon, pairs)
    for ea, eb in zip(a.entries, b.entries):
        assert np.array_equal(ea.errors, eb.errors)
        assert np.array_equal(ea.hits.elements, eb.hits.elements)


def test_hits_monotone_in_delta(existence_setup):
    cand, delta, horizon, pairs = existence_setup
    small = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial,
                 delta / 3.0, horizon, pairs)
    large = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial,
                 delta, horizon, pairs)
    for es, el in zip(small.entries, large.entries):
        assert set(es.hits).issubset(set(el.hits))


def test_hits_monotone_in_compact(existence_setup):
    cand, delta, horizon, pairs = existence_setup
    designed = pairs[0][2]
    both = scan(
        cand.fn, _translations, EXH, enumerate_dense_polynomial, delta, horizon,
        [(1, 1, designed), (2, 1, designed)],
    )
    inner, outer = both.entries
    # the sup over the larger compact dominates, so its hit set is smaller
    assert set(outer.hits).issubset(set(inner.hits))


def test_passed_entries_cover_designed_rate(existence_setup):
    cand, delta, horizon, pairs = existence_setup
    rep = scan(cand.fn, _translations, EXH, enumerate_dense_polynomial, delta, horizon, pairs)
    for entry in rep.entries:
        if not entry.passed:
            continue
        designed = entry.designed.elements[entry.designed.elements <= horizon]
        tail = designed[designed > entry.burn_in]
        window = horizon - entry.burn_in
        assert entry.hit_rate >= len(tail) / window - 1e-12


# ---------------------------------------------------------------------------
# combination scan


def test_combination_rejects_degenerate_coefficients(spaceable_setup):
    basis, delta, horizon, pairs = spaceable_setup
    with pytest.raises(ValueError, match="vanish"):
        combination_scan(basis, (0.0, 0.0, 0.0), _translations, EXH,
                         enumerate_dense_polynomial, delta, horizon, pairs)
    with pytest.raises(ValueError, match="count"):
        combination_scan(basis, (1.0,), _translations, EXH,
                         enumerate_dense_polynomial, delta, horizon, pairs)


def test_single_member_combination_reproduces_member_scan(spaceable_setup):
    basis, delta, horizon, pairs = spaceable_setup
    via_comb = combination_scan(basis, (1.0, 0.0, 0.0), _translations, EXH,
                                enumerate_dense_polynomial, delta, horizon, pairs)
    direct = scan(basis.members[0].fn, _translations, EXH,
                  enumerate_dense_polynomial, delta, horizon, pairs)
    for a, b in zip(via_comb.entries, direct.entries):
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.hits.elements, b.hits.elements)
        assert a.burn_in == b.burn_in


def test_combination_normalization_invariance(spaceable_setup):
    basis, delta, horizon, pairs = spaceable_setup
    one = combination_scan(basis, (1.0, 0.1, 0.01), _translations, EXH,
                           enumerate_dense_polynomial, delta, horizon, pairs)
    scaled = combination_scan(basis, (3.0 - 1j, 0.3 - 0.1j, 0.03 - 0.01j),
                              _translations, EXH, enumerate_dense_polynomial,
                              delta, horizon, pairs)
    assert np.allclose(one.coefficients, scaled.coefficients)
    for a, b in zip(one.entries, scaled.entries):
        assert np.allclose(a.errors, b.errors)
        assert np.array_equal(a.hits.elements, b.hits.elements)


def test_combination_scan_passes_with_sp2_bound(spaceable_setup):
    basis, delta, horizon, pairs = spaceable_setup
    rep = combination_scan(basis, (1.0, 0.1, 0.01), _translations, EXH,
                           enumerate_dense_polynomial, delta, horizon, pairs)
    assert rep.passed
    bound_const = 1.0 + np.sqrt(rep.coeff_square_sum)
    for entry in rep.entries:
        designed = entry.designed.elements[entry.designed.elements <= horizon]
        tail = designed[designed > entry.burn_in]
        for n in tail:
            assert entry.errors[n - 1] <= bound_const * entry.eps_sup[n - 1] * GRID_SLACK


def test_mixed_combination_splits_delta_between_phi_and_span(
    spaceable_setup, existence_setup
):
    basis, delta, horizon, pairs = spaceable_setup
    mixed = build_span_basis(basis.members, basis.indices, "mixed")
    phi = existence_setup[0].fn
    coeffs = (1.0, 0.1, 0.01)
    env = 1.25
    rep = combination_scan(mixed, coeffs, _translations, EXH,
                           enumerate_dense_polynomial, delta, horizon, pairs,
                           envelope_constant=env, phi=phi)
    half = delta / 2.0
    rep_phi = scan(phi, _translations, EXH, enumerate_dense_polynomial, half,
                   horizon, pairs, envelope_constant=env)
    rep_h = scan(_Combination(basis.members, np.asarray(coeffs, dtype=complex)),
                 _translations, EXH, lambda l: Polynomial.zero(), half, horizon,
                 pairs, envelope_constant=env)
    assert len(rep.entries) == len(rep_phi.entries) == len(rep_h.entries) > 0
    for e, a, b in zip(rep.entries, rep_phi.entries, rep_h.entries):
        assert (e.nu, e.l) == (a.nu, a.l) == (b.nu, b.l)
        assert np.array_equal(e.errors, a.errors + b.errors)
        both = np.intersect1d(a.hits.elements, b.hits.elements)
        assert np.array_equal(e.hits.elements, both)
        assert e.burn_in == max(a.burn_in, b.burn_in)
        assert np.array_equal(e.eps_sup, a.eps_sup)


# ---------------------------------------------------------------------------
# iterate convergence


def _bounds(m, k, limit, n_steps):
    """Every bound e_1, ..., e_N of the rule of m on k."""
    return iterate_bounds(iterate_convergence(m, k, limit, n_steps), 1, n_steps + 1)


def test_parabolic_iterates_converge():
    errors = _bounds(
        ParabolicDisc(a=1.0, gamma=1.0, n=1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 200
    )
    assert errors.size == 200
    assert errors[-1] < 0.1
    assert np.all(np.diff(errors) < 0.0)


def test_identity_iterates_show_no_decrease():
    errors = _bounds(Identity(EXH.domain), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 50)
    assert np.all(errors == errors[0])
    assert 1.5 < errors[0] < 1.5 * (1.0 + 2.0 ** -30)


@pytest.mark.parametrize("n_steps", [1, 200, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("a", [1.0, 0.1, 3.7])
def test_iterate_bounds_match_the_blocked_loop_on_every_range(a, n_steps):
    m, disc = ParabolicDisc(a, 1.0, 1), ClosedDisc(0.0, 0.5)
    want = blocked_bounds(m, disc, 1.0 + 0.0j, n_steps)
    rule = iterate_convergence(m, disc, 1.0 + 0.0j, n_steps)
    assert rule.iterates == n_steps
    assert np.array_equal(iterate_bounds(rule, 1, n_steps + 1).view("<u8"), want.view("<u8"))
    # the block that holds N repeats the loop's arithmetic by construction;
    # on one numpy build any other range gives the same bits as well
    rng = np.random.default_rng(n_steps)
    ranges = [(n_steps - (n_steps - 1) % 1024, n_steps + 1), (n_steps, n_steps + 1)]
    ranges += [tuple(sorted(rng.integers(1, n_steps + 2, 2))) for _ in range(5)]
    for start, stop in ranges:
        got = iterate_bounds(rule, start, stop)
        assert np.array_equal(got.view("<u8"), want[start - 1 : stop - 1].view("<u8"))


def test_iterate_bounds_refuse_steps_outside_the_rule():
    rule = iterate_convergence(ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 10)
    assert iterate_bounds(rule, 4, 4).size == 0
    for start, stop in [(0, 5), (1, 12), (6, 5)]:
        with pytest.raises(ValueError, match="not within 1..10"):
            iterate_bounds(rule, start, stop)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(1e-3, 1e3),
    radius=st.floats(0.99, 0.9999),
    n_steps=st.integers(1, 3000),
)
# radii at the edge, where the two disagree: the loop raises and the
# exact decision does not, then the other way round
@example(a=0.001, radius=0.9990239141012789, n_steps=10)
@example(a=0.1, radius=0.9990239188575039, n_steps=10)
def test_reach_decision_agrees_with_the_blocked_loop(a, radius, n_steps):
    # e_1 is about 1 + radius and the reach 2^11 (1 - radius), so discs
    # about 2/2049 from the fixed point sit on the edge of the reach
    m, disc = ParabolicDisc(a, 1.0, 1), ClosedDisc(0.0, radius)
    try:
        want = blocked_bounds(m, disc, 1.0 + 0.0j, n_steps)
    except ValueError:
        want = None
    try:
        got = _bounds(m, disc, 1.0 + 0.0j, n_steps)
    except ValueError:
        got = None
    if (want is None) != (got is None):
        # only within 2^-40 relative of the reach may the two disagree
        reach = 2.0 ** 11 * (1.0 - radius)
        assert abs(_first_bound(m, disc) - reach) <= 2.0 ** -40 * reach, (a, radius, n_steps)
    elif got is not None:
        assert np.array_equal(got.view("<u8"), want.view("<u8"))


def _first_bound(m, disc):
    """1/(|v0 + S| - rho) of the rule of m on disc, to 40 digits: the
    largest bound when disc is centred at 0, as |v0 + n S| then rises
    with n."""
    step, moved = orbit._limit_frame(m, disc, 1.0 + 0.0j)
    (v0,), (rho,) = _image_discs(*orbit._INVERSION, moved.center, moved.radius)
    square = (Fraction(v0.real) + step[0]) ** 2 + (Fraction(v0.imag) + step[1]) ** 2
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        modulus = (Decimal(square.numerator) / square.denominator).sqrt()
        return float(1 / (modulus - Decimal(float(rho))))


_EIGHTHS = st.integers(-40, 40).map(lambda k: Fraction(k, 8))


@settings(max_examples=300, deadline=None)
@given(
    v0=st.tuples(_EIGHTHS, _EIGHTHS),
    step=st.tuples(_EIGHTHS, _EIGHTHS),
    rho=st.integers(0, 40).map(lambda k: k / 8),
    reach=st.floats(0.01, 100.0),
    n_steps=st.integers(1, 60),
)
def test_within_reach_takes_the_least_gap_over_every_step(v0, step, rho, reach, n_steps):
    # against every step in turn: 1/(|v0 + n S| - rho) lies in (0, reach]
    # iff |v0 + n S| >= rho + 1/reach
    gap = (Fraction(rho) + 1 / Fraction(reach)) ** 2
    want = all(
        (v0[0] + n * step[0]) ** 2 + (v0[1] + n * step[1]) ** 2 >= gap
        for n in range(1, n_steps + 1)
    )
    got = orbit._within_reach(complex(*map(float, v0)), rho, step, reach, n_steps)
    assert got == want


def test_iterate_convergence_refuses_a_pole_on_the_disc():
    # lam = 1, c = S = 3/2 fixing 1: in u = 1/(z - 1), D(0, 1/2) is
    # D(-4/3, 2/3), which one step moves onto 0, a pole of Phi on the disc
    m = Mobius(2.5, -1.5, 1.5, -0.5, Domain.unit_disc())
    disc = ClosedDisc(0.0, 0.5)
    assert np.isnan(blocked_bounds(m, disc, 1.0 + 0.0j, 10)[0])
    with pytest.raises(ValueError, match="exceed the reach"):
        iterate_convergence(m, disc, 1.0 + 0.0j, 10)


def _exact_parabolic_sup(a, n_steps):
    """sup over D(0, 1/2) of |Phi^n - 1| for the shift t = n a, in long
    double: in u = 1/(z - 1) the disc is D(-4/3, 2/3) and Phi^n moves it
    by -i t / 2, so the sup is 2 / (sqrt(64/9 + t^2) - 4/3)."""
    t = np.longdouble(a) * np.arange(1, n_steps + 1, dtype=np.longdouble)
    return 2 / (np.sqrt(np.longdouble(64) / 9 + t * t) - np.longdouble(4) / 3)


@pytest.mark.parametrize("a", [1.0, 0.25, 0.1, 3.7])
def test_parabolic_bounds_cover_the_exact_sup(a):
    n_steps = 50_000
    got = _bounds(ParabolicDisc(a, 1.0, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, n_steps)
    want = _exact_parabolic_sup(a, n_steps)
    assert np.all(got >= want)
    assert np.all(got <= want * (1 + np.longdouble(2.0) ** -30))
    assert np.all(np.diff(got) < 0.0)


@pytest.mark.parametrize("a", [1.0, 0.25, 0.1, 3.7])
def test_parabolic_bounds_cover_mapped_boundary_samples(a):
    m = ParabolicDisc(a, 1.0, 1)
    n_steps = 2000
    bounds = _bounds(m, ClosedDisc(0.0, 0.5), 1.0 + 0.0j, n_steps)
    points = 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    for n in range(n_steps):
        points = apply(m, points)
        assert np.max(np.abs(points - 1.0)) <= bounds[n]


def test_parabolic_bounds_follow_the_fixed_point():
    # z -> -Phi(-z) fixes -1; the disc D(0, 1/2) is symmetric about 0
    m = ParabolicDisc(0.25, 1.5, 3)
    mirrored = Mobius(m.a, -m.b, -m.c, m.d, Domain.unit_disc())
    want = _bounds(m, ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 3000)
    got = _bounds(mirrored, ClosedDisc(0.0, 0.5), -1.0 + 0.0j, 3000)
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        iterate_convergence(mirrored, ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 3000)


def test_iterate_bounds_are_rounded_up_to_32_bits():
    errors = _bounds(ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 5000)
    frac, _ = np.frexp(errors)
    assert np.all(np.ldexp(frac, 32) == np.floor(np.ldexp(frac, 32)))


@pytest.mark.parametrize(
    "m, k, n_steps",
    [
        # no parabolic record fixing 1: their powers have no closed form here
        (Similarity(2.0, 0.0), ClosedDisc(0.0, 0.5), 10),
        (DiscAutomorphism(0.6 + 0.8j, 0.3), ClosedDisc(0.0, 0.5), 10),
        # the compact pokes outside the open disc
        (ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.5, 0.7), 10),
        (Identity(Domain.unit_disc()), ClosedDisc(0.5, 0.7), 10),
        (Identity(Domain.right_half_plane()), ClosedDisc(0.5, 0.7), 10),
        (Identity(Domain.slit_plane()), ClosedDisc(1.0, 1.5), 10),
        # 1e-4 from the fixed point, where the margin does not cover the shift
        (ParabolicDisc(1.0, 1.0, 1), ClosedDisc(0.0, 0.9999), 10),
        (Identity(EXH.domain), ClosedDisc(0.0, 0.5), 0),
        # the limit lies in the compact: no inversion frame
        (Identity(EXH.domain), ClosedDisc(1.0, 0.5), 10),
    ],
)
def test_iterate_convergence_refuses_what_the_rule_does_not_cover(m, k, n_steps):
    with pytest.raises(ValueError):
        iterate_convergence(m, k, 1.0 + 0.0j, n_steps)


def test_iterate_bounds_of_an_overflowing_shift_are_nan():
    # the parabolic record with lam = 1 and step c / lam = -1e308 i, whose
    # shift n c / lam overflows from n = 2 on
    m = Mobius(1.0 - 1e308j, 1e308j, -1e308j, 1.0 + 1e308j, Domain.unit_disc())
    errors = _bounds(m, ClosedDisc(0.0, 0.5), 1.0 + 0.0j, 10)
    assert 0.0 < errors[0] < 1e-307
    assert np.all(np.isnan(errors[1:]))


# The rotations of ParabolicDisc that fix these points have exact entries.
LIMITS = (1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j)


def _parabolic_fixing(limit, a):
    """L Phi(z / L) for Phi = ParabolicDisc(a, 1, 1) and L = limit: the
    parabolic map of the disc with step -i a / (2 L), fixing L."""
    s = complex(a)
    return Mobius(2.0 - 1j * s, limit * (1j * s), (-1j * s) * limit.conjugate(),
                  2.0 + 1j * s, Domain.unit_disc())


def _exact_frame(m, disc, limit):
    """(V, R, S) as Fractions: the disc D(V, R) that w -> 1/w makes of
    disc moved by -limit, and the step S = c / lam of m."""
    w = disc.center - limit
    x, y, r = Fraction(w.real), Fraction(w.imag), Fraction(disc.radius)
    den = x * x + y * y - r * r
    lam = (Fraction(m.a.real) + Fraction(m.d.real)) / 2
    assert m.a.imag + m.d.imag == 0.0
    return (x / den, -y / den), r / den, (Fraction(m.c.real) / lam, Fraction(m.c.imag) / lam)


def _random_cases(seed, count):
    """(map, disc, limit) triples: random discs of the unit disc with
    centres on a 1/64 grid, so that moved centres stay exact, random
    steps a, and now and then the identity."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        centre = complex(*rng.integers(-40, 41, 2)) / 64
        if abs(centre) > 0.9:
            continue
        disc = ClosedDisc(centre, float(rng.uniform(0.01, 0.95) * (1 - abs(centre))))
        limit = LIMITS[rng.integers(4)]
        if trial % 9 == 0:
            m = Identity(Domain.unit_disc())
        else:
            m = _parabolic_fixing(limit, float(np.exp(rng.uniform(np.log(0.01), np.log(10.0)))))
        yield m, disc, limit


def test_iterate_bounds_are_at_least_the_exact_sups():
    # bound b >= 1/(|V + n S| - R) iff (1/b + R)^2 <= |V + n S|^2, in Fractions
    n_steps = 400
    for m, disc, limit in _random_cases(41, 60):
        (vx, vy), r, (sx, sy) = _exact_frame(m, disc, limit)
        bounds = _bounds(m, disc, limit, n_steps)
        for n, bound in enumerate(bounds.tolist(), start=1):
            gap = 1 / Fraction(bound) + r
            assert gap * gap <= (vx + n * sx) ** 2 + (vy + n * sy) ** 2, (m, disc, n)


def test_decreasing_from_is_where_the_exact_sups_start_to_fall():
    # e_n = 1/(|V + n S| - R) falls from n to n + 1 iff |V + n S|^2 rises
    seen = set()
    for m, disc, limit in _random_cases(42, 200):
        (vx, vy), _, (sx, sy) = _exact_frame(m, disc, limit)
        t = decreasing_from(m, disc, limit)
        square = lambda n: (vx + n * sx) ** 2 + (vy + n * sy) ** 2
        if sx == sy == 0:
            assert t is None
            continue
        assert t >= 1
        assert all(square(n + 1) > square(n) for n in range(t, t + 50))
        assert t == 1 or square(t) <= square(t - 1)
        seen.add(min(t, 3))
    assert seen == {1, 2, 3}


def test_decreasing_from_shipped_and_identity():
    disc = ClosedDisc(0.0, 0.5)
    assert decreasing_from(ParabolicDisc(1.0, 1.0, 1), disc, 1.0 + 0.0j) == 1
    assert decreasing_from(Identity(Domain.unit_disc()), disc, 1.0 + 0.0j) is None
    with pytest.raises(ValueError):
        decreasing_from(Similarity(2.0, 0.0), disc, 1.0 + 0.0j)
